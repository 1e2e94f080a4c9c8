//! Analytic objective models for cost measures that are *certain* given the
//! configuration (Expt 4: "cost1 in #cores, which is certain") — no
//! learning needed, and exact gradients for MOGD.
//!
//! Besides the exact cost models, this module provides *heuristic* priors
//! ([`BatchHeuristicModel`], [`StreamHeuristicModel`]) for the objectives
//! that normally require trained models. They encode only the coarse shape
//! every Spark workload shares — latency falls roughly hyperbolically with
//! allocated cores, loads and costs rise with them — and exist solely as
//! the cold-start rung of the degradation ladder
//! ([`ResilienceOptions::cold_start_analytic`](crate::ResilienceOptions::cold_start_analytic)
//! (crate::resilience::ResilienceOptions)): a workload-agnostic answer
//! beats no answer, but it is always flagged degraded.

use udao_core::ObjectiveModel;
use udao_sparksim::objectives::{BatchObjective, StreamObjective};
use udao_sparksim::{BatchConf, StreamConf};

/// `cost1 = executor.instances × executor.cores` over the encoded batch
/// knob space. Works on the *relaxed* (continuous) encoding, so MOGD can
/// differentiate through it; decoding rounds to the true integer cost.
#[derive(Debug, Clone, Default)]
pub struct BatchCostCoresModel;

/// Encoded-dimension indices of the relevant batch knobs (positionally
/// fixed by [`BatchConf::space`], whose knobs are all width-1).
const B_EXECUTORS: usize = 1;
const B_CORES: usize = 2;
/// Knob ranges, mirroring [`BatchConf::space`].
const B_EXEC_RANGE: (f64, f64) = (2.0, 29.0);
const B_CORE_RANGE: (f64, f64) = (1.0, 5.0);

impl ObjectiveModel for BatchCostCoresModel {
    fn dim(&self) -> usize {
        BatchConf::space().encoded_dim()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let e = B_EXEC_RANGE.0 + x[B_EXECUTORS].clamp(0.0, 1.0) * (B_EXEC_RANGE.1 - B_EXEC_RANGE.0);
        let c = B_CORE_RANGE.0 + x[B_CORES].clamp(0.0, 1.0) * (B_CORE_RANGE.1 - B_CORE_RANGE.0);
        e * c
    }

    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        for g in out.iter_mut() {
            *g = 0.0;
        }
        let e = B_EXEC_RANGE.0 + x[B_EXECUTORS].clamp(0.0, 1.0) * (B_EXEC_RANGE.1 - B_EXEC_RANGE.0);
        let c = B_CORE_RANGE.0 + x[B_CORES].clamp(0.0, 1.0) * (B_CORE_RANGE.1 - B_CORE_RANGE.0);
        out[B_EXECUTORS] = c * (B_EXEC_RANGE.1 - B_EXEC_RANGE.0);
        out[B_CORES] = e * (B_CORE_RANGE.1 - B_CORE_RANGE.0);
    }
}

/// `cost = executor.instances × executor.cores` over the encoded streaming
/// knob space.
#[derive(Debug, Clone, Default)]
pub struct StreamCostCoresModel;

const S_EXECUTORS: usize = 4;
const S_CORES: usize = 5;
const S_EXEC_RANGE: (f64, f64) = (2.0, 29.0);
const S_CORE_RANGE: (f64, f64) = (1.0, 5.0);

impl ObjectiveModel for StreamCostCoresModel {
    fn dim(&self) -> usize {
        StreamConf::space().encoded_dim()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let e = S_EXEC_RANGE.0 + x[S_EXECUTORS].clamp(0.0, 1.0) * (S_EXEC_RANGE.1 - S_EXEC_RANGE.0);
        let c = S_CORE_RANGE.0 + x[S_CORES].clamp(0.0, 1.0) * (S_CORE_RANGE.1 - S_CORE_RANGE.0);
        e * c
    }

    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        for g in out.iter_mut() {
            *g = 0.0;
        }
        let e = S_EXEC_RANGE.0 + x[S_EXECUTORS].clamp(0.0, 1.0) * (S_EXEC_RANGE.1 - S_EXEC_RANGE.0);
        let c = S_CORE_RANGE.0 + x[S_CORES].clamp(0.0, 1.0) * (S_CORE_RANGE.1 - S_CORE_RANGE.0);
        out[S_EXECUTORS] = c * (S_EXEC_RANGE.1 - S_EXEC_RANGE.0);
        out[S_CORES] = e * (S_CORE_RANGE.1 - S_CORE_RANGE.0);
    }
}

/// Decode the (executors, cores) pair from an encoded batch point.
fn batch_cores(x: &[f64]) -> (f64, f64) {
    let e = B_EXEC_RANGE.0 + x[B_EXECUTORS].clamp(0.0, 1.0) * (B_EXEC_RANGE.1 - B_EXEC_RANGE.0);
    let c = B_CORE_RANGE.0 + x[B_CORES].clamp(0.0, 1.0) * (B_CORE_RANGE.1 - B_CORE_RANGE.0);
    (e, c)
}

/// Workload-agnostic heuristic prior for a batch objective; the cold-start
/// stand-in when no trained model exists for a `(workload, objective)` key.
#[derive(Debug, Clone)]
pub struct BatchHeuristicModel {
    objective: BatchObjective,
}

impl BatchHeuristicModel {
    /// Heuristic prior for `objective`.
    pub fn new(objective: BatchObjective) -> Self {
        Self { objective }
    }

    /// Heuristic latency (seconds) at `total` allocated cores: Amdahl-style
    /// hyperbolic speedup over a serial floor.
    fn latency(total: f64) -> f64 {
        5.0 + 600.0 / total
    }
}

impl ObjectiveModel for BatchHeuristicModel {
    fn dim(&self) -> usize {
        BatchConf::space().encoded_dim()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let (e, c) = batch_cores(x);
        let total = e * c;
        match &self.objective {
            BatchObjective::Latency => Self::latency(total),
            // Fixed work over more slots: utilization falls (negated
            // maximization objective).
            BatchObjective::CpuUtilization => -(0.2 + 0.7 * 10.0 / (10.0 + total)),
            // Loads grow mildly with fan-out (more partial files/shuffles).
            BatchObjective::IoLoad => 100.0 + 1.5 * total,
            BatchObjective::NetworkLoad => 50.0 + 1.0 * total,
            BatchObjective::CostCores => total,
            BatchObjective::CostCpuHour => Self::latency(total) * total / 3600.0,
            BatchObjective::CostWeighted { cpu_hour_rate, io_gb_rate } => {
                cpu_hour_rate * Self::latency(total) * total / 3600.0
                    + io_gb_rate * (100.0 + 1.5 * total) / 1024.0
            }
        }
    }
}

/// Decode the (executors, cores) pair from an encoded streaming point.
fn stream_cores(x: &[f64]) -> (f64, f64) {
    let e = S_EXEC_RANGE.0 + x[S_EXECUTORS].clamp(0.0, 1.0) * (S_EXEC_RANGE.1 - S_EXEC_RANGE.0);
    let c = S_CORE_RANGE.0 + x[S_CORES].clamp(0.0, 1.0) * (S_CORE_RANGE.1 - S_CORE_RANGE.0);
    (e, c)
}

/// Workload-agnostic heuristic prior for a streaming objective.
#[derive(Debug, Clone)]
pub struct StreamHeuristicModel {
    objective: StreamObjective,
}

impl StreamHeuristicModel {
    /// Heuristic prior for `objective`.
    pub fn new(objective: StreamObjective) -> Self {
        Self { objective }
    }
}

impl ObjectiveModel for StreamHeuristicModel {
    fn dim(&self) -> usize {
        StreamConf::space().encoded_dim()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let (e, c) = stream_cores(x);
        let total = e * c;
        match self.objective {
            StreamObjective::Latency => 0.3 + 40.0 / total,
            // Saturating scale-out (negated maximization objective).
            StreamObjective::Throughput => -(2000.0 * total / (total + 10.0)),
            StreamObjective::CostCores => total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao_sparksim::BatchConf;

    #[test]
    fn batch_cost_matches_decoded_configuration() {
        let space = BatchConf::space();
        let conf = BatchConf { executor_instances: 10, executor_cores: 3, ..BatchConf::spark_default() };
        let x = space.encode(&conf.to_configuration()).unwrap();
        let m = BatchCostCoresModel;
        assert!((m.predict(&x) - 30.0).abs() < 1e-9);
        assert_eq!(m.dim(), space.encoded_dim());
    }

    #[test]
    fn batch_cost_gradient_matches_fd() {
        let m = BatchCostCoresModel;
        let x = vec![0.5; m.dim()];
        let mut g = vec![0.0; m.dim()];
        m.gradient(&x, &mut g);
        let h = 1e-6;
        for d in [B_EXECUTORS, B_CORES, 0, 7] {
            let mut xp = x.clone();
            xp[d] += h;
            let mut xm = x.clone();
            xm[d] -= h;
            let fd = (m.predict(&xp) - m.predict(&xm)) / (2.0 * h);
            assert!((g[d] - fd).abs() < 1e-5, "dim {d}: {} vs {fd}", g[d]);
        }
    }

    #[test]
    fn stream_cost_matches_decoded_configuration() {
        use udao_sparksim::StreamConf;
        let space = StreamConf::space();
        let conf = StreamConf { executor_instances: 8, executor_cores: 4, ..StreamConf::spark_default() };
        let x = space.encode(&conf.to_configuration()).unwrap();
        assert!((StreamCostCoresModel.predict(&x) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn heuristic_priors_are_finite_and_trade_off_against_cost() {
        let objectives = [
            BatchObjective::Latency,
            BatchObjective::CpuUtilization,
            BatchObjective::IoLoad,
            BatchObjective::NetworkLoad,
            BatchObjective::CostCores,
            BatchObjective::CostCpuHour,
            BatchObjective::cost2(),
        ];
        let dim = BatchConf::space().encoded_dim();
        for obj in objectives {
            let m = BatchHeuristicModel::new(obj);
            assert_eq!(m.dim(), dim);
            for i in 0..=10 {
                let x = vec![i as f64 / 10.0; dim];
                assert!(m.predict(&x).is_finite(), "{obj:?} non-finite");
            }
        }
        // More cores: latency falls, core cost rises — a real frontier.
        let lat = BatchHeuristicModel::new(BatchObjective::Latency);
        let cost = BatchHeuristicModel::new(BatchObjective::CostCores);
        let small = vec![0.1; dim];
        let big = vec![0.9; dim];
        assert!(lat.predict(&big) < lat.predict(&small));
        assert!(cost.predict(&big) > cost.predict(&small));
    }

    #[test]
    fn stream_heuristics_are_finite_and_monotone() {
        use udao_sparksim::StreamConf;
        let dim = StreamConf::space().encoded_dim();
        let lat = StreamHeuristicModel::new(StreamObjective::Latency);
        let thr = StreamHeuristicModel::new(StreamObjective::Throughput);
        let small = vec![0.1; dim];
        let big = vec![0.9; dim];
        assert!(lat.predict(&big) < lat.predict(&small));
        // Negated throughput improves (falls) with more cores.
        assert!(thr.predict(&big) < thr.predict(&small));
        for i in 0..=10 {
            let x = vec![i as f64 / 10.0; dim];
            assert!(lat.predict(&x).is_finite() && thr.predict(&x).is_finite());
        }
    }
}
