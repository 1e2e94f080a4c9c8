//! Pipelines of analytic tasks — the extension sketched in the paper's
//! conclusion ("we plan to extend UDAO to support a pipeline of analytic
//! tasks").
//!
//! A pipeline runs its stages sequentially (the lambda-architecture batch
//! path, or an ETL → ML chain), so total latency is the sum of stage
//! latencies, while the cloud bill is the sum of stage CPU-time costs. The
//! optimizer computes one latency/cost Pareto frontier per stage and then
//! allocates a global CPU-hour budget across stages: starting from every
//! stage's cheapest Pareto point, it repeatedly applies the frontier
//! upgrade with the best latency-saved-per-dollar ratio until the budget
//! is exhausted — the classic greedy that is near-optimal on the convex
//! hulls of per-stage frontiers.

use crate::optimizer::{Recommendation, Udao};
use crate::request::BatchRequest;
use udao_core::{Error, Result};

/// A pipeline optimization request.
#[derive(Debug, Clone)]
pub struct PipelineRequest {
    /// Per-stage requests. Each must name latency as objective 0 and a
    /// cost objective as objective 1 (the trade-off being allocated).
    pub stages: Vec<BatchRequest>,
    /// Global budget on `Σ latency_i × cores_i / 3600` (CPU-hours).
    pub cpu_hour_budget: f64,
}

/// The chosen configuration per stage plus pipeline-level totals.
#[derive(Debug)]
pub struct PipelineRecommendation {
    /// One recommendation per stage (same order as the request).
    pub stages: Vec<Recommendation>,
    /// Predicted end-to-end latency (sum over stages), seconds.
    pub total_latency: f64,
    /// Predicted total CPU-hours.
    pub total_cpu_hours: f64,
}

/// Frontier point view used during allocation.
#[derive(Clone, Copy)]
struct Option2D {
    latency: f64,
    cpu_hours: f64,
    index: usize,
}

impl Udao {
    /// Optimize a sequential pipeline of batch tasks under a global
    /// CPU-hour budget (see module docs for the allocation strategy).
    pub fn recommend_pipeline(&self, request: &PipelineRequest) -> Result<PipelineRecommendation> {
        if request.stages.is_empty() {
            return Err(Error::InvalidConfig("pipeline has no stages".into()));
        }
        // Per-stage frontiers: reuse the single-task path, then re-rank.
        // Options are evaluated at their *snapped* (decodable) form so the
        // chosen plans both respect the stage constraints and reflect what
        // will actually run.
        let space = udao_sparksim::BatchConf::space();
        let mut frontiers: Vec<Vec<Option2D>> = Vec::new();
        let mut recs: Vec<Recommendation> = Vec::new();
        for stage in &request.stages {
            if stage.objectives.len() < 2 {
                return Err(Error::InvalidConfig(
                    "pipeline stages need latency and cost objectives".into(),
                ));
            }
            let problem = self.problem(stage)?;
            let rec = self.recommend(stage)?;
            let mut options: Vec<Option2D> = Vec::new();
            for (i, p) in rec.frontier.iter().enumerate() {
                let snapped = space.snap(&p.x)?;
                let f = problem.evaluate(&snapped)?;
                if problem.feasible(&f, 1e-3) {
                    options.push(Option2D {
                        latency: f[0],
                        // Objective 1 is a cores-style cost; CPU-hours follow.
                        cpu_hours: f[0] * f[1] / 3600.0,
                        index: i,
                    });
                }
            }
            if options.is_empty() {
                return Err(Error::Infeasible(format!(
                    "stage {} has no feasible snapped frontier point",
                    stage.workload_id
                )));
            }
            frontiers.push(options);
            recs.push(rec);
        }

        // Start every stage at its cheapest (by CPU-hours) frontier point.
        // Emptiness was rejected above, so the min always exists; the error
        // arm keeps the serving path free of panic sites.
        let mut chosen: Vec<Option2D> = Vec::with_capacity(frontiers.len());
        for opts in &frontiers {
            let cheapest = opts
                .iter()
                .min_by(|a, b| {
                    a.cpu_hours.partial_cmp(&b.cpu_hours).unwrap_or(std::cmp::Ordering::Equal)
                })
                .ok_or_else(|| Error::Infeasible("pipeline stage lost its frontier".into()))?;
            chosen.push(*cheapest);
        }
        let mut spent: f64 = chosen.iter().map(|o| o.cpu_hours).sum();
        if spent > request.cpu_hour_budget {
            return Err(Error::Infeasible(format!(
                "cheapest pipeline plan needs {spent:.4} CPU-hours, budget is {:.4}",
                request.cpu_hour_budget
            )));
        }

        // Greedy upgrades: best latency reduction per extra CPU-hour.
        loop {
            let mut best: Option<(usize, Option2D, f64)> = None;
            for (si, opts) in frontiers.iter().enumerate() {
                for o in opts {
                    let d_lat = chosen[si].latency - o.latency;
                    let d_cost = o.cpu_hours - chosen[si].cpu_hours;
                    if d_lat <= 0.0 || spent + d_cost > request.cpu_hour_budget {
                        continue;
                    }
                    // Free upgrades are taken unconditionally; paid ones
                    // compete on the latency-per-CPU-hour ratio.
                    let ratio = if d_cost <= 1e-12 { f64::INFINITY } else { d_lat / d_cost };
                    if best.map(|(_, _, r)| ratio > r).unwrap_or(true) {
                        best = Some((si, *o, ratio));
                    }
                }
            }
            match best {
                Some((si, o, _)) => {
                    spent += o.cpu_hours - chosen[si].cpu_hours;
                    chosen[si] = o;
                }
                None => break,
            }
        }

        // Materialize the chosen frontier point of each stage.
        let mut stages_out = Vec::with_capacity(recs.len());
        let mut total_latency = 0.0;
        let mut total_cpu_hours = 0.0;
        for (rec, choice) in recs.into_iter().zip(&chosen) {
            let point = &rec.frontier[choice.index];
            let snapped = space.snap(&point.x)?;
            let configuration = space.decode(&snapped)?;
            total_latency += choice.latency;
            total_cpu_hours += choice.cpu_hours;
            stages_out.push(Recommendation {
                batch_conf: Some(udao_sparksim::BatchConf::from_configuration(&configuration)),
                stream_conf: None,
                x: snapped,
                configuration,
                predicted: point.f.clone(),
                frontier: rec.frontier,
                utopia: rec.utopia,
                nadir: rec.nadir,
                probes: rec.probes,
                moo_seconds: rec.moo_seconds,
                degraded: rec.degraded,
                stage: rec.stage,
                report: rec.report,
            });
        }
        Ok(PipelineRecommendation { stages: stages_out, total_latency, total_cpu_hours })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::ModelFamily;
    use udao_core::mogd::MogdConfig;
    use udao_core::pf::{PfOptions, PfVariant};
    use udao_sparksim::objectives::BatchObjective;
    use udao_sparksim::{batch_workloads, ClusterSpec};

    fn pipeline_udao() -> Udao {
        Udao::builder(ClusterSpec::paper_cluster())
            .pf(
                PfVariant::ApproxSequential,
                PfOptions {
                    mogd: MogdConfig {
                        multistarts: 4,
                        max_iters: 60,
                        alpha: 1.0,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .build()
            .expect("valid options")
    }

    fn stage_request(id: &str) -> BatchRequest {
        BatchRequest::new(id)
            .objective(BatchObjective::Latency)
            .objective_bounded(BatchObjective::CostCores, 4.0, 58.0)
            .points(8)
    }

    fn trained_udao(ids: &[&str]) -> Udao {
        let udao = pipeline_udao();
        let workloads = batch_workloads();
        for id in ids {
            let w = workloads.iter().find(|w| w.id == *id).unwrap();
            udao.train_batch(w, 40, ModelFamily::Gp, &[BatchObjective::Latency]);
        }
        udao
    }

    #[test]
    fn bigger_budgets_buy_lower_pipeline_latency() {
        let udao = trained_udao(&["q1-v0", "q7-v0"]);
        let stages = vec![stage_request("q1-v0"), stage_request("q7-v0")];
        let tight = udao
            .recommend_pipeline(&PipelineRequest { stages: stages.clone(), cpu_hour_budget: 0.4 })
            .unwrap();
        let roomy = udao
            .recommend_pipeline(&PipelineRequest { stages, cpu_hour_budget: 10.0 })
            .unwrap();
        assert!(tight.total_cpu_hours <= 0.4 + 1e-9);
        assert!(
            roomy.total_latency <= tight.total_latency,
            "more budget cannot hurt: {} vs {}",
            roomy.total_latency,
            tight.total_latency
        );
        assert_eq!(roomy.stages.len(), 2);
    }

    #[test]
    fn infeasible_budget_is_reported() {
        let udao = trained_udao(&["q1-v0"]);
        let err = udao
            .recommend_pipeline(&PipelineRequest {
                stages: vec![stage_request("q1-v0")],
                cpu_hour_budget: 1e-6,
            })
            .unwrap_err();
        assert!(matches!(err, Error::Infeasible(_)), "{err}");
    }

    #[test]
    fn empty_and_malformed_pipelines_are_rejected() {
        let udao = pipeline_udao();
        assert!(udao
            .recommend_pipeline(&PipelineRequest { stages: vec![], cpu_hour_budget: 1.0 })
            .is_err());
        let one_obj = BatchRequest::new("q1-v0").objective(BatchObjective::Latency);
        let udao = trained_udao(&["q1-v0"]);
        assert!(udao
            .recommend_pipeline(&PipelineRequest { stages: vec![one_obj], cpu_hour_budget: 1.0 })
            .is_err());
    }
}
