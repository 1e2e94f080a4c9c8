//! # udao-core — Progressive Frontier multi-objective optimization
//!
//! This crate implements the primary contribution of *"Spark-based Cloud Data
//! Analytics using Multi-Objective Optimization"* (ICDE 2021): a principled
//! multi-objective optimization (MOO) framework that computes a Pareto-optimal
//! set of system configurations under stringent time constraints and
//! recommends one configuration that best explores the trade-offs between
//! conflicting objectives.
//!
//! The crate is deliberately model-agnostic: objectives are anything
//! implementing [`ObjectiveModel`] — hand-crafted regression functions,
//! Gaussian Processes, or deep neural networks (see the `udao-model` crate
//! for concrete learners). The MOO layer only requires point predictions,
//! optionally predictive uncertainty, and (sub)gradients.
//!
//! ## Layout
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`space`] | §IV-B step 1 | mixed categorical/integer/continuous parameter spaces, one-hot encoding, normalization to `[0,1]^D` |
//! | [`budget`] | §VI | cooperative solve deadlines threaded through every solver |
//! | [`objective`] | §II-B | objective descriptors and the [`ObjectiveModel`] trait |
//! | [`pareto`] | §III | dominance, frontier filtering, hypervolume, uncertain-space volume |
//! | [`hyperrect`] | §III | Utopia/Nadir hyperrectangles, middle points, subdivision |
//! | [`solver`] | §IV | the constrained-optimization (CO) problem and an exact reference solver |
//! | [`mogd`] | §IV-B | the Multi-Objective Gradient Descent CO solver (Adam, multi-start, Eq. 3 loss) |
//! | [`pf`] | §III–IV | Progressive Frontier algorithms: PF-S, PF-AS, PF-AP |
//! | [`recommend`] | §V, App. B | Utopia-Nearest, Weighted-UN, Slope-Maximization, Knee-Point selection |
//! | [`stage`] | Lyu et al. (fine-grained tuning) | per-stage knob spaces over a stage DAG, critical-path/sum folds, composed objectives |
//!
//! ## Quick example
//!
//! ```
//! use udao_core::objective::FnModel;
//! use udao_core::pf::{ProgressiveFrontier, PfVariant};
//! use udao_core::solver::MooProblem;
//! use std::sync::Arc;
//!
//! // Two conflicting objectives over one knob x ∈ [0,1]:
//! // latency falls with resources, cost rises with resources.
//! let latency = FnModel::new(1, |x| 1.0 / (0.1 + x[0]));
//! let cost = FnModel::new(1, |x| 1.0 + 9.0 * x[0]);
//! let problem = MooProblem::new(1, vec![Arc::new(latency), Arc::new(cost)]);
//!
//! let pf = ProgressiveFrontier::new(PfVariant::ApproxSequential, Default::default());
//! let run = pf.solve(&problem, 10).unwrap();
//! assert!(run.frontier.len() >= 3);
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod error;
pub mod hyperrect;
pub mod mogd;
pub mod objective;
pub mod pareto;
pub mod pf;
pub mod priority;
pub mod recommend;
pub mod solver;
pub mod space;
pub mod stage;

pub use budget::Budget;
pub use error::{Error, Result};
pub use priority::Priority;
pub use objective::{Direction, FnModel, ObjectiveModel, ObjectiveSpec};
pub use pareto::ParetoPoint;
pub use solver::MooProblem;
pub use stage::{ComposedObjective, Fold, StageDag, StageSpace};

/// FNV-1a offset basis: the starting value of an [`fnv_fold`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a whole `u64` word. Stable across runs and
/// processes (no random state), so it backs every structural fingerprint
/// and model-version stamp: DAG and space shapes, per-stage cache shapes,
/// pinned-version generations and MOGD memo shards.
#[inline]
pub fn fnv_fold(hash: u64, v: u64) -> u64 {
    (hash ^ v).wrapping_mul(0x100_0000_01b3)
}
