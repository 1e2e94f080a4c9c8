//! # udao-model — the model-server substrate of UDAO
//!
//! The paper separates model learning (offline, asynchronous) from
//! optimization (online, seconds). This crate is the offline half: it learns
//! per-(workload, objective) predictive models from runtime traces and
//! serves them to the MOO layer through the `udao-core`
//! [`ObjectiveModel`](udao_core::ObjectiveModel) trait.
//!
//! Three model families are provided, mirroring §V "Model Server":
//!
//! * [`mlp`] — from-scratch deep neural networks (dense layers, ReLU, Adam,
//!   L2 regularization) with analytic input gradients for the MOGD solver
//!   and deep-ensemble predictive uncertainty;
//! * [`gp`] — Gaussian Process regression with a squared-exponential
//!   kernel, Cholesky-based inference, and MLE hyperparameter selection
//!   (the OtterTune-style model family);
//! * [`regression`] — hand-crafted Ernest-style analytical models.
//!
//! Supporting modules: [`linalg`] (small dense linear algebra), [`simd`]
//! (runtime-dispatched f64 SIMD kernels behind the linalg hot paths,
//! bitwise batch-composition independent within a process), [`dataset`]
//! (trace matrices, scalers, splits), [`features`] (constant filtering,
//! LASSO-path knob selection), and [`server`] (the model registry with
//! periodic retraining and incremental fine-tuning from checkpoints).

#![warn(missing_docs)]

pub mod dataset;
pub mod drift;
pub mod features;
pub mod gp;
pub mod linalg;
pub mod mlp;
pub mod regression;
pub mod server;
pub mod simd;
pub mod transform;

pub use dataset::Dataset;
pub use drift::{DriftOptions, DriftVerdict, DriftWindow};
pub use gp::{Gp, GpConfig};
pub use mlp::{Ensemble, McDropout, Mlp, MlpConfig};
pub use server::{ModelKey, ModelKind, ModelLease, ModelServer};
pub use simd::KernelVariant;
