//! End-to-end UDAO benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives UDAO's public API from one generator process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A provenance summary
//! (input digest, seed, nproc, kernel variant, commit) and, for traced runs,
//! the span file go to `.bench_out/`. See `perfbench/README.md` for every
//! metric, the layer map and why each workload exists.

mod measure;
mod metrics;
mod plan;
mod tracing;

use measure::{Instance, Length, Phase};
use metrics::Metrics;
use plan::{Plan, WorkloadKind};
use std::fmt::Write as _;
use std::process::ExitCode;
use udao_sparksim::ClusterSpec;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(m: &Metrics) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (k, (v, unit))) in m.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {k} is not finite: {v}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {v:?}, \"unit\": {}}}",
            json_str(k),
            json_str(unit)
        );
    }
    out.push('}');
    Ok(out)
}

/// Bitwise comparison of the deterministic work of two runs of one request
/// list: per request, the same outcome, MOGD iterations, PF probes, memo
/// lookups and frontier bits. Returns the number of requests whose
/// `model.inferences` differ: PF-AP's worker threads share one memo cache,
/// so which thread evaluates a point first, and hence how many points are
/// evaluated twice, depends on timing even between two untraced runs.
fn same_work(a: &Phase, b: &Phase) -> Result<usize, String> {
    if a.outcomes.len() != b.outcomes.len() {
        return Err(format!(
            "{} vs {} requests",
            a.outcomes.len(),
            b.outcomes.len()
        ));
    }
    let lookups = |r: &udao::SolveReport| r.model_cache_hits + r.model_cache_misses;
    let mut inference_diffs = 0;
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        let same = x.id == y.id
            && match (&x.result, &y.result) {
                (Ok(p), Ok(q)) => {
                    let (r, s) = (&p.report, &q.report);
                    inference_diffs += usize::from(r.model_inferences != s.model_inferences);
                    r.mogd_iterations == s.mogd_iterations
                        && r.pf_probes == s.pf_probes
                        && lookups(r) == lookups(s)
                        && p.frontier_hash == q.frontier_hash
                }
                (Err(p), Err(q)) => p == q,
                _ => false,
            };
        if !same {
            return Err(format!(
                "request {} differs between the untraced and traced run",
                x.id
            ));
        }
    }
    Ok(inference_diffs)
}

fn run_phase(
    inst: &Instance,
    plan: &mut Plan,
    targets: &[plan::Target],
    fresh: &[udao_model::dataset::Dataset],
    length: Length,
    traced: bool,
) -> Result<Phase, String> {
    if plan.kind.serves() {
        measure::run_serve(inst, plan, targets, fresh, length, traced)
    } else {
        measure::run_cold(inst, plan, length, traced)
    }
}

fn write_trace(path: &str, spans: &[tracing::Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut next = spans.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id\tparent\tlayer\tthread\tstart_ns\tend_ns\tcalls\tbusy_ns"
    )?;
    for s in spans {
        let id = if s.id == 0 {
            next += 1;
            next - 1
        } else {
            s.id
        };
        writeln!(
            w,
            "{id}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.parent,
            s.layer.name(),
            s.thread,
            s.start,
            s.end,
            s.calls,
            s.busy
        )?;
    }
    w.flush()
}

fn run(args: &Args) -> Result<(bool, usize, usize, Metrics), String> {
    let cluster = ClusterSpec::paper_cluster();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kind = args.workload;

    let mut instances = Vec::new();
    let mut totals = Vec::new();
    let mut traces_ms = Vec::new();
    let mut targets = Vec::new();
    for _ in 0..SETUP_REPS {
        let (inst, t, times) = measure::build(kind, args.trace, nproc, &cluster)?;
        totals.push(times.total_s);
        traces_ms.push(times.traces_s * 1e3);
        if instances.len() < 2 {
            instances.push(inst);
        }
        targets = t;
    }
    let setup_s = metrics::median(&totals);
    let fit_ms: Vec<f64> = totals
        .iter()
        .zip(&traces_ms)
        .map(|(t, tr)| t * 1e3 - tr)
        .collect();

    let mut plan = plan::generate(kind, args.seed, &targets);
    let fresh = if kind == WorkloadKind::SwapServe {
        measure::swap_traces(&targets, &cluster)
    } else {
        Vec::new()
    };

    let untraced = run_phase(
        &instances[0],
        &mut plan,
        &targets,
        &fresh,
        Length::Seconds(args.seconds),
        false,
    )?;
    let mut correct = true;
    let mut notes: Vec<String> = Vec::new();
    let traced;
    let (reported, metrics, spans) = if args.trace {
        traced = run_phase(
            &instances[1],
            &mut plan,
            &targets,
            &fresh,
            Length::Rounds(untraced.rounds),
            true,
        )?;
        tracing::flush_thread();
        let spans = tracing::tracer().take_spans();
        if kind == WorkloadKind::ColdMix {
            match same_work(&untraced, &traced) {
                Ok(diffs) => notes.push(format!(
                    "traced run repeated the untraced run's work; model.inferences differed in \
                     {diffs} requests (timing-dependent under PF-AP)"
                )),
                Err(e) => {
                    correct = false;
                    notes.push(format!("tracing changed the program's work: {e}"));
                }
            }
        }
        let lat = |p: &Phase| {
            metrics::median(&p.outcomes.iter().map(|o| o.latency_s).collect::<Vec<_>>())
        };
        let overhead = lat(&traced) / lat(&untraced);
        let items = metrics::index(&plan);
        let tally = metrics::tally(&traced, &items)?;
        let m = metrics::per_layer(
            &traced,
            &tally,
            &items,
            overhead,
            metrics::median(&traces_ms),
            metrics::median(&fit_ms),
        );
        (tally, m, Some(spans))
    } else {
        let items = metrics::index(&plan);
        let tally = metrics::tally(&untraced, &items)?;
        let m = metrics::end_to_end(&untraced, &tally, &items, &targets, &cluster, setup_s);
        (tally, m, None)
    };
    let (attempted, failed) = (reported.attempted, reported.failed);

    // Provenance and spans, written after the run.
    let digest = plan.digest(untraced.rounds);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut summary = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"kernel_variant\": {}, \"forced_portable\": {}, \"commit\": {}, \
         \"input_digest\": \"{digest:016x}\", \"rounds\": {}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"correct\": {correct}, \"notes\": [{}], \"fails\": {{{}}}, \"metrics\": {}",
        json_str(kind.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_str(udao_model::simd::kernel_variant().name()),
        udao_model::simd::forced_portable(),
        json_str(&commit()),
        untraced.rounds,
        notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
        reported.fails.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect::<Vec<_>>().join(", "),
        metrics_json(&metrics)?,
    );
    if let Some(spans) = &spans {
        let path = format!("{stem}.spans.tsv");
        write_trace(&path, spans).map_err(|e| format!("{path}: {e}"))?;
        let mut rows: Vec<String> = tracing::self_times(spans)
            .iter()
            .map(|(layer, count, ms)| {
                format!(
                    "{}: {{\"spans\": {count}, \"self_ms\": {ms:?}}}",
                    json_str(layer.name())
                )
            })
            .collect();
        rows.extend(tracing::Method::ALL.iter().map(|m| {
            let (calls, points, ms) = tracing::tracer().totals(*m);
            format!(
                "{}: {{\"calls\": {calls}, \"points\": {points}, \"busy_ms\": {ms:?}}}",
                json_str(m.name())
            )
        }));
        let _ = write!(
            summary,
            ", \"sampled_self_time\": {{{}}}, \"spans_file\": {}",
            rows.join(", "),
            json_str(&path)
        );
    }
    summary.push('}');
    let path = format!("{stem}.json");
    std::fs::write(&path, &summary).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("{summary}");

    Ok((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload cold-mix|burst-serve|swap-serve --seed N --seconds S --trace 0|1 ({e})");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|(correct, attempted, failed, m)| {
        if attempted == 0 {
            return Err("no request completed".into());
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            metrics_json(&m)?
        ))
    }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
