//! `udao-cli` — command-line front end for the UDAO optimizer.
//!
//! ```text
//! udao-cli workloads [--streaming]
//!     list the benchmark workloads
//! udao-cli recommend --workload <id> [--objectives latency,cost_cores]
//!     [--weights 0.5,0.5] [--constraint cost_cores=4:58]
//!     [--family gp|dnn] [--traces 80] [--points 12] [--json] [--report]
//!     [--workers N] [--budget-ms M] [--cache N]
//!     [--priority interactive|standard|batch] [--deadline-ms M]
//!     train models from simulator traces and recommend a configuration;
//!     --report also prints the per-request solve report (stage timings,
//!     MOGD/PF/model counters, scheduler decisions); --workers routes the
//!     request through a concurrent ServingEngine with N workers;
//!     --budget-ms sets a per-request deadline (requests it cannot cover
//!     are shed); --priority sets the scheduling class the engine orders
//!     and sheds by; --deadline-ms sets the SLO deadline used for
//!     earliest-deadline-first ordering within the class; --cache enables
//!     the cross-request frontier cache with capacity N entries;
//!     --per-stage tunes each stage of the workload's dataflow DAG
//!     separately (shared cluster knobs pinned global) instead of one
//!     configuration for the whole plan — --stage-mode picks the solver
//!     (descent: DAG-ordered coordinate descent, the default; joint: one
//!     MOGD solve over the concatenated space), and the output attributes
//!     predicted latency/cost and solver effort to each stage
//!
//! With --json, failures also print a machine-readable error object (and,
//! under --report, a complete all-zero solve report — every counter key
//! present) before exiting non-zero, so downstream parsers never see
//! truncated output when a request is shed or degrades to the default
//! configuration.
//! udao-cli measure --workload <id> [--json]
//!     run the Spark default configuration on the simulated cluster
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use udao::{
    BatchRequest, Fold, ModelFamily, Priority, Recommendation, ServingEngine, ServingOptions,
    SolveReport, StageMode, StageObjectiveSpec, StageRequest, Udao,
};
use udao_core::Error;
use udao_sparksim::objectives::BatchObjective;
use udao_sparksim::{
    batch_workloads, streaming_workloads, BatchConf, ClusterSpec, StageFixture, Workload,
    WorkloadPayload,
};

/// Parse `--key value` flags (and bare subcommand words) from argv.
fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut words = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            words.push(args[i].clone());
            i += 1;
        }
    }
    (words, flags)
}

/// Parse an objective name into the batch catalog.
fn parse_objective(name: &str) -> Option<BatchObjective> {
    match name {
        "latency" => Some(BatchObjective::Latency),
        "cost_cores" => Some(BatchObjective::CostCores),
        "cost_cpu_hour" => Some(BatchObjective::CostCpuHour),
        "cost_weighted" | "cost2" => Some(BatchObjective::cost2()),
        "cpu_utilization" => Some(BatchObjective::CpuUtilization),
        "io_load" => Some(BatchObjective::IoLoad),
        "network_load" => Some(BatchObjective::NetworkLoad),
        _ => None,
    }
}

/// Parse `name=lo:hi` constraint syntax.
fn parse_constraint(s: &str) -> Option<(String, f64, f64)> {
    let (name, range) = s.split_once('=')?;
    let (lo, hi) = range.split_once(':')?;
    Some((name.to_string(), lo.parse().ok()?, hi.parse().ok()?))
}

/// The machine-readable failure object printed under `--json`: always a
/// complete, parseable document. With `with_report`, a full all-zero
/// [`SolveReport`] rides along so report consumers see every counter key
/// (and an empty-but-present `metrics.counters` object) even when the
/// request never reached a solver — shed at admission, or failed outright.
fn error_value(workload: &str, err: &Error, with_report: bool) -> serde_json::Value {
    // Scheduler context keys are always present so parsers need no
    // conditional schema: null unless the engine shed the request.
    let (shed_reason, class, queued) = match err {
        Error::Shed { reason, class, queued } => (
            serde_json::Value::String(reason.clone()),
            class.map_or(serde_json::Value::Null, |c| {
                serde_json::Value::String(c.to_string())
            }),
            queued.map_or(serde_json::Value::Null, |q| serde_json::json!(q)),
        ),
        _ => (serde_json::Value::Null, serde_json::Value::Null, serde_json::Value::Null),
    };
    let mut out = serde_json::json!({
        "workload": workload,
        "error": err.to_string(),
        "shed": matches!(err, Error::Shed { .. }),
        "shed_reason": shed_reason,
        "class": class,
        "queued": queued,
    });
    if with_report {
        if let serde_json::Value::Object(fields) = &mut out {
            fields.push(("report".to_string(), SolveReport::empty(workload).to_value()));
        }
    }
    out
}

fn cmd_workloads(flags: &HashMap<String, String>) -> ExitCode {
    if flags.contains_key("streaming") {
        println!("{:<10} {:>8} {:>8} {:>8}", "id", "template", "variant", "offline");
        for w in streaming_workloads() {
            println!("{:<10} {:>8} {:>8} {:>8}", w.id, w.template, w.variant, w.offline);
        }
    } else {
        println!("{:<10} {:>8} {:>8} {:>8}  kind", "id", "template", "variant", "offline");
        for w in batch_workloads() {
            println!(
                "{:<10} {:>8} {:>8} {:>8}  {:?}",
                w.id, w.template, w.variant, w.offline, w.kind
            );
        }
    }
    ExitCode::SUCCESS
}

/// What `recommend` and `recommend --per-stage` share: the optimizer
/// (with `--cache`), the request options every request kind carries
/// (`--weights`, `--budget-ms`, `--priority`, `--deadline-ms`), and the
/// `--workers` dispatch.
struct Setup {
    udao: Arc<Udao>,
    weights: Option<Vec<f64>>,
    budget: Option<Duration>,
    priority: Priority,
    deadline: Option<Duration>,
    workers: Option<usize>,
}

impl Setup {
    /// Parse the shared flags and build the optimizer; `None` once the
    /// reason has been printed.
    fn parse(flags: &HashMap<String, String>) -> Option<Self> {
        let priority = match flags.get("priority") {
            Some(name) => match Priority::parse(name) {
                Some(class) => class,
                None => {
                    eprintln!("unknown priority {name} (expected interactive|standard|batch)");
                    return None;
                }
            },
            None => Priority::Standard,
        };
        let mut builder = Udao::builder(ClusterSpec::paper_cluster());
        if let Some(cap) = flags.get("cache").and_then(|v| v.parse::<usize>().ok()) {
            builder = builder.frontier_cache(cap);
        }
        let udao = match builder.build() {
            Ok(u) => Arc::new(u),
            Err(e) => {
                eprintln!("optimizer construction failed: {e}");
                return None;
            }
        };
        let millis =
            |key: &str| flags.get(key).and_then(|v| v.parse().ok()).map(Duration::from_millis);
        Some(Self {
            udao,
            weights: flags
                .get("weights")
                .map(|s| s.split(',').filter_map(|v| v.trim().parse().ok()).collect()),
            budget: millis("budget-ms"),
            priority,
            deadline: millis("deadline-ms"),
            workers: flags.get("workers").and_then(|v| v.parse().ok()),
        })
    }

    /// Solve directly, or through a [`ServingEngine`] with `--workers`
    /// workers.
    fn solve(
        &self,
        direct: impl FnOnce(&Udao) -> Result<Recommendation, Error>,
        served: impl FnOnce(&ServingEngine<BatchObjective>) -> Result<Recommendation, Error>,
    ) -> Result<Recommendation, Error> {
        match self.workers {
            Some(workers) => served(&ServingEngine::start_with(
                Arc::clone(&self.udao),
                ServingOptions::default().with_workers(workers),
            )),
            None => direct(&self.udao),
        }
    }
}

/// Print a recommendation outcome. On success, under `--json`: one
/// document of `workload`, the kind's own `fields`, the fields every kind
/// shares, and the `--report` solve report; otherwise the kind's `text`
/// and the shared notes. On failure: the error document under `--json`
/// and a one-line message.
fn finish(
    id: &str,
    flags: &HashMap<String, String>,
    what: &str,
    result: Result<Recommendation, Error>,
    fields: impl FnOnce(&Recommendation) -> serde_json::Value,
    text: impl FnOnce(&Recommendation),
) -> ExitCode {
    let rec = match result {
        Ok(rec) => rec,
        Err(e) => {
            // Under --json downstream parsers still get one complete
            // document (regression: a shed or bottomed-out request used to
            // produce no JSON at all).
            if flags.contains_key("json") {
                println!("{}", error_value(id, &e, flags.contains_key("report")));
            }
            eprintln!("{what} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !flags.contains_key("json") {
        text(&rec);
        if rec.degraded {
            println!("note: degraded answer (stage: {})", rec.stage);
        }
        if flags.contains_key("report") {
            println!("{}", rec.report.render());
        }
        return ExitCode::SUCCESS;
    }
    let shared = serde_json::json!({
        "predicted": rec.predicted,
        "frontier_size": rec.frontier.len(),
        "probes": rec.probes,
        "moo_seconds": rec.moo_seconds,
        "degraded": rec.degraded,
        "stage": rec.stage.to_string(),
    });
    let mut out = vec![("workload".to_string(), serde_json::json!(id))];
    for part in [fields(&rec), shared] {
        if let serde_json::Value::Object(kv) = part {
            out.extend(kv);
        }
    }
    if flags.contains_key("report") {
        out.push(("report".to_string(), rec.report.to_value()));
    }
    println!("{}", serde_json::Value::Object(out));
    ExitCode::SUCCESS
}

fn cmd_recommend(flags: &HashMap<String, String>) -> ExitCode {
    let Some(id) = flags.get("workload") else {
        eprintln!("recommend requires --workload <id> (see `udao-cli workloads`)");
        return ExitCode::FAILURE;
    };
    let workloads = batch_workloads();
    let Some(w) = workloads.iter().find(|w| &w.id == id) else {
        eprintln!("unknown workload {id}");
        return ExitCode::FAILURE;
    };
    if flags.contains_key("per-stage") {
        return cmd_recommend_stages(id, w, flags);
    }
    let family = match flags.get("family").map(String::as_str) {
        Some("dnn") => ModelFamily::Dnn,
        _ => ModelFamily::Gp,
    };
    let traces: usize = flags.get("traces").and_then(|v| v.parse().ok()).unwrap_or(80);
    let points: usize = flags.get("points").and_then(|v| v.parse().ok()).unwrap_or(12);

    let objective_names = flags
        .get("objectives")
        .map(String::as_str)
        .unwrap_or("latency,cost_cores");
    let mut objectives = Vec::new();
    for name in objective_names.split(',') {
        match parse_objective(name.trim()) {
            Some(o) => objectives.push(o),
            None => {
                eprintln!("unknown objective {name}");
                return ExitCode::FAILURE;
            }
        }
    }
    let constraint = flags.get("constraint").and_then(|s| parse_constraint(s));
    let Some(setup) = Setup::parse(flags) else {
        return ExitCode::FAILURE;
    };
    let udao = &setup.udao;
    eprintln!("training {family:?} models for {id} from {traces} traces ...");
    udao.train_batch(w, traces, family, &objectives);

    let mut req = BatchRequest::new(id.clone()).points(points);
    for o in &objectives {
        match &constraint {
            Some((name, lo, hi)) if name == o.name() => {
                req = req.objective_bounded(*o, *lo, *hi);
            }
            _ => req = req.objective(*o),
        }
    }
    req.weights = setup.weights.clone();
    req.budget = setup.budget;
    req.priority = setup.priority;
    req.deadline = setup.deadline;
    let result = setup.solve(|udao| udao.recommend(&req), |engine| engine.solve(req.clone()));
    finish(
        id,
        flags,
        "recommendation",
        result,
        |rec| serde_json::json!({ "configuration": rec.batch_conf }),
        |rec| {
            println!("recommended configuration for {id}:");
            println!("{}", BatchConf::space().render(&rec.configuration));
            println!("predicted objectives ({}): {:?}", objective_names, rec.predicted);
            println!(
                "frontier {} points / {} probes / {:.2}s MOO",
                rec.frontier.len(),
                rec.probes,
                rec.moo_seconds
            );
            if let Some(conf) = &rec.batch_conf {
                match udao.measure_batch(w, conf, 0) {
                    Ok(m) => println!(
                        "measured on the simulated cluster: latency {:.1}s, {:.0} cores, {:.4} CPU-h",
                        m.latency_s, m.cores, m.cost_cpu_hour()
                    ),
                    Err(e) => eprintln!("measurement failed: {e}"),
                }
            }
        },
    )
}

/// The `recommend --per-stage` path: partition the workload's dataflow
/// DAG into per-stage knob blocks (cluster knobs pinned global), compose
/// closed-form per-stage latency/cost surfaces along the DAG
/// (critical-path latency, summed cost), and solve with
/// [`Udao::recommend_stages`] in the requested mode.
fn cmd_recommend_stages(id: &str, w: &Workload, flags: &HashMap<String, String>) -> ExitCode {
    let WorkloadPayload::Batch(program) = &w.payload else {
        eprintln!("--per-stage needs a batch workload (streaming queries have no stage DAG)");
        return ExitCode::FAILURE;
    };
    let fx = StageFixture::from_program(program);
    let (mode, mode_name) = match flags.get("stage-mode").map(String::as_str) {
        Some("joint") => (StageMode::Joint, "joint"),
        Some("descent") | None => (StageMode::Descent, "descent"),
        Some(other) => {
            eprintln!("unknown stage mode {other} (expected descent|joint)");
            return ExitCode::FAILURE;
        }
    };
    let points: usize = flags.get("points").and_then(|v| v.parse().ok()).unwrap_or(9);
    let Some(setup) = Setup::parse(flags) else {
        return ExitCode::FAILURE;
    };

    let mut req = StageRequest::new(id, fx.dag.clone(), fx.space())
        .objective(StageObjectiveSpec::analytic(
            "latency",
            Fold::CriticalPath,
            fx.latency_models(),
        ))
        .objective(StageObjectiveSpec::analytic("cost", Fold::Sum, fx.cost_models()))
        .points(points)
        .mode(mode);
    req.weights = setup.weights.clone();
    req.budget = setup.budget;
    req.priority = setup.priority;
    req.deadline = setup.deadline;
    let result = setup.solve(
        |udao| udao.recommend_stages(&req),
        |engine| engine.solve_stages(req.clone()),
    );
    let global_dim = fx.space().global_dim();
    let global = |rec: &Recommendation| rec.x.first().copied().unwrap_or(f64::NAN);
    finish(
        id,
        flags,
        "per-stage recommendation",
        result,
        |rec| {
            let stages: Vec<serde_json::Value> = rec
                .report
                .stage_attribution
                .iter()
                .map(|a| {
                    serde_json::json!({
                        "stage": a.stage,
                        "knob": rec.x.get(global_dim + a.stage).copied(),
                        "predicted": a.predicted,
                        "seconds": a.seconds,
                        "solves": a.solves,
                    })
                })
                .collect();
            serde_json::json!({
                "mode": mode_name,
                "stages_tuned": rec.report.stages_tuned,
                "descent_rounds": rec.report.stage_descent_rounds,
                "global_cluster_slots": global(rec),
                "stages": stages,
            })
        },
        |rec| {
            println!("per-stage recommendation for {id} ({} stages, {mode_name}):", fx.len());
            println!("  cluster-slots (global) = {:.4}", global(rec));
            for a in &rec.report.stage_attribution {
                let knob = rec.x.get(global_dim + a.stage).copied().unwrap_or(f64::NAN);
                let (lat, cost) = (
                    a.predicted.first().copied().unwrap_or(f64::NAN),
                    a.predicted.get(1).copied().unwrap_or(f64::NAN),
                );
                println!(
                    "  stage {}: knob {knob:.4}  latency {lat:.3}  cost {cost:.3}  \
                     ({} block solves, {:.1} ms)",
                    a.stage,
                    a.solves,
                    a.seconds * 1e3,
                );
            }
            println!(
                "composed predicted (critical-path latency, summed cost): {:?}",
                rec.predicted
            );
            println!(
                "frontier {} points / {} probes / {:.2}s MOO / {} descent rounds",
                rec.frontier.len(),
                rec.probes,
                rec.moo_seconds,
                rec.report.stage_descent_rounds,
            );
        },
    )
}

fn cmd_measure(flags: &HashMap<String, String>) -> ExitCode {
    let Some(id) = flags.get("workload") else {
        eprintln!("measure requires --workload <id>");
        return ExitCode::FAILURE;
    };
    let workloads = batch_workloads();
    let Some(w) = workloads.iter().find(|w| &w.id == id) else {
        eprintln!("unknown workload {id}");
        return ExitCode::FAILURE;
    };
    let udao = Udao::new(ClusterSpec::paper_cluster());
    let conf = BatchConf::spark_default();
    let m = match udao.measure_batch(w, &conf, 0) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("measurement failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.contains_key("json") {
        match serde_json::to_string_pretty(&m) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("failed to serialize metrics: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "{id} under the Spark default configuration: latency {:.1}s, {:.0} cores, \
             {:.4} CPU-h, {:.0} MB shuffled",
            m.latency_s, m.cores, m.cost_cpu_hour(), m.shuffle_read_mb
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (words, flags) = parse_flags(&args);
    match words.first().map(String::as_str) {
        Some("workloads") => cmd_workloads(&flags),
        Some("recommend") => cmd_recommend(&flags),
        Some("measure") => cmd_measure(&flags),
        _ => {
            eprintln!("usage: udao-cli <workloads|recommend|measure> [flags]");
            eprintln!("see the crate docs for flag details");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["recommend", "--workload", "q2-v0", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (words, flags) = parse_flags(&args);
        assert_eq!(words, vec!["recommend"]);
        assert_eq!(flags.get("workload").map(String::as_str), Some("q2-v0"));
        assert_eq!(flags.get("json").map(String::as_str), Some("true"));
    }

    #[test]
    fn shed_error_json_is_valid_and_report_complete() {
        // Regression: --json --report must emit one parseable document with
        // every report key present even when the request never solved.
        let err = Error::Shed {
            reason: "queue full (depth 4)".into(),
            class: Some(Priority::Batch),
            queued: Some(4),
        };
        let v = error_value("q2-v0", &err, true);
        let text = serde_json::to_string(&v).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(parsed.get("workload").and_then(|v| v.as_str()), Some("q2-v0"));
        assert!(matches!(parsed.get("shed"), Some(serde_json::Value::Bool(true))));
        // Scheduler context rides along: the bare reason (not the rendered
        // error string), the shed class, and the observed queue depth.
        assert_eq!(
            parsed.get("shed_reason").and_then(|v| v.as_str()),
            Some("queue full (depth 4)")
        );
        assert_eq!(parsed.get("class").and_then(|v| v.as_str()), Some("batch"));
        assert_eq!(parsed.get("queued").and_then(|v| v.as_u64()), Some(4));
        let report = parsed.get("report").expect("report present");
        // All counter keys exist, zeroed — not missing.
        for key in [
            "mogd_iterations",
            "pf_probes",
            "model_inferences",
            "model_batch_calls",
            "stale_served",
            "fallback_transitions",
            "reorders",
        ] {
            assert_eq!(report.get(key).and_then(|v| v.as_u64()), Some(0), "key {key}");
        }
        // Scheduler report keys present with neutral values.
        assert_eq!(report.get("class"), Some(&serde_json::Value::Null));
        assert_eq!(report.get("queue_wait_seconds").and_then(|v| v.as_f64()), Some(0.0));
        // Lifecycle fields present even for never-solved requests.
        assert!(
            report.get("model_versions").and_then(|v| v.as_object()).is_some(),
            "model_versions present"
        );
        // The metrics delta carries empty-but-present objects.
        let metrics = report.get("metrics").expect("metrics present");
        assert_eq!(metrics.get("counters").and_then(|c| c.as_object()).map(|o| o.len()), Some(0));
        assert_eq!(
            metrics.get("histograms").and_then(|h| h.as_object()).map(|o| o.len()),
            Some(0)
        );
    }

    #[test]
    fn non_shed_error_json_marks_shed_false_and_omits_report_when_unasked() {
        let err = Error::ModelUnavailable("q2-v0/latency".into());
        let v = error_value("q2-v0", &err, false);
        assert!(matches!(v.get("shed"), Some(serde_json::Value::Bool(false))));
        assert!(v.get("report").is_none());
        assert!(v.get("error").and_then(|e| e.as_str()).unwrap().contains("no trained model"));
        // Scheduler keys stay present (null) so parsers keep one schema.
        assert_eq!(v.get("shed_reason"), Some(&serde_json::Value::Null));
        assert_eq!(v.get("class"), Some(&serde_json::Value::Null));
        assert_eq!(v.get("queued"), Some(&serde_json::Value::Null));
    }

    #[test]
    fn priority_flag_values_parse_into_classes() {
        assert_eq!(Priority::parse("interactive"), Some(Priority::Interactive));
        assert_eq!(Priority::parse("standard"), Some(Priority::Standard));
        assert_eq!(Priority::parse("batch"), Some(Priority::Batch));
        assert_eq!(Priority::parse("urgent"), None);
    }

    #[test]
    fn objective_and_constraint_parsing() {
        assert!(parse_objective("latency").is_some());
        assert!(parse_objective("cost2").is_some());
        assert!(parse_objective("nope").is_none());
        let (name, lo, hi) = parse_constraint("cost_cores=4:58").unwrap();
        assert_eq!((name.as_str(), lo, hi), ("cost_cores", 4.0, 58.0));
        assert!(parse_constraint("garbage").is_none());
    }
}
