//! # udao — the Spark-based Unified Data Analytics Optimizer
//!
//! The end-to-end system of the paper (Fig. 1(a)): user or provider
//! requests carry a dataflow program and a set of objectives (optionally
//! with value constraints and preference weights); UDAO retrieves the
//! task's predictive models from the model server, computes a
//! Pareto-optimal set of configurations with the Progressive Frontier
//! algorithms, and recommends the configuration that best explores the
//! trade-offs.
//!
//! Every solve is instrumented through `udao-telemetry`: the returned
//! [`Recommendation`] carries a [`SolveReport`] with per-stage wall-clock
//! and optimizer/model counters for that request.
//!
//! ```no_run
//! use udao::{ModelFamily, Udao};
//! use udao_sparksim::objectives::BatchObjective;
//! use udao_sparksim::{batch_workloads, ClusterSpec};
//!
//! let udao = Udao::builder(ClusterSpec::paper_cluster())
//!     .build()
//!     .expect("default options are valid");
//! let workloads = batch_workloads();
//! let q2 = workloads.iter().find(|w| w.id == "q2-v0").unwrap();
//!
//! // Offline: the model server learns latency/cost models from traces.
//! udao.train_batch(q2, 80, ModelFamily::Gp, &[BatchObjective::Latency]);
//!
//! // Online: a request with two objectives and a preference vector.
//! let request = udao::BatchRequest::new(q2.id.clone())
//!     .objective(BatchObjective::Latency)
//!     .objective(BatchObjective::CostCores)
//!     .weights(vec![0.9, 0.1]);
//! let rec = udao.recommend(&request).unwrap();
//! println!("run Q2 with {:?}", rec.batch_conf);
//! println!("{}", rec.report.render());
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod frontier_cache;
pub mod lifecycle;
pub mod optimizer;
pub mod pipeline;
pub mod report;
pub mod request;
pub mod resilience;
pub mod serve;
pub mod stage;

pub use analytic::{BatchCostCoresModel, StreamCostCoresModel};
pub use frontier_cache::{
    CacheLookup, CachedFrontier, FrontierCache, FrontierKey, RequestFingerprint,
};
pub use lifecycle::{LifecycleManager, LifecycleOptions, LifecycleStats};
pub use optimizer::{ModelFamily, Recommendation, Udao, UdaoBuilder};
pub use pipeline::{PipelineRecommendation, PipelineRequest};
pub use report::{SolveReport, StageAttribution, StageTiming};
pub use request::{BatchRequest, Objective, Request, StreamRequest};
pub use resilience::{FallbackStage, ModelProvider, ResilienceOptions, RetryPolicy};
pub use serve::{ClassQuotas, ClassScheduler, ResponseHandle, ServingEngine, ServingOptions};
pub use stage::{StageMode, StageObjectiveSpec, StageRequest};
pub use udao_core::priority::Priority;
pub use udao_core::stage::{ComposedObjective, Fold, StageDag, StageSpace};
