//! Hot-path bench: scalar vs. batched model inference at MOGD restart-count
//! batch sizes, emitting `BENCH_hotpath.json`.
//!
//! Run: `cargo run --release -p udao-bench --bin bench_hotpath`
//!
//! MOGD steps all multi-start restarts of one CO problem in lockstep, so
//! the model sees one `predict_batch` of `multistarts + 1` points per Adam
//! iteration instead of that many scalar `predict` calls. This bench
//! measures exactly that shape: a fig4-scale MLP (and a GP for reference)
//! evaluated point-by-point vs. in one batch, on identical inputs — plus
//! the incremental GP Cholesky row-append (`Gp::extend`) against the full
//! refit it replaces.
//!
//! The binary validates its own output:
//!
//! * batched f64 results must be bitwise identical to scalar ones;
//! * the batched f64 MLP path must beat the pre-SIMD per-point loop
//!   (re-timed in this run; [`MLP_BASELINE_US_PER_POINT`] records it from
//!   before the cache-blocked / SIMD kernels landed) by at least
//!   [`MLP_SPEEDUP_GATE`]x — a margin the AVX2 kernel clears and the
//!   portable fallback does not, so a dispatch or micro-kernel regression
//!   fails here;
//! * `Gp::extend` must be faster than the full `Gp::fit` fallback.
//!
//! The combined verdict lands in the `hotpath_gate` field, which
//! `scripts/check.sh` re-checks on disk and fails CI over loudly.

use std::hint::black_box;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use udao_core::ObjectiveModel;
use udao_model::dataset::Dataset;
use udao_model::mlp::{Mlp, MlpConfig};
use udao_model::{Gp, GpConfig};

const OUT_PATH: &str = "BENCH_hotpath.json";
/// Default MOGD restarts (8) plus the center start.
const BATCH_SIZE: usize = 9;
/// Timed repetitions per path (each covers one full batch).
const REPS: usize = 3000;
/// Measurement blocks per path: each path is timed [`BLOCKS`] times at
/// `REPS / BLOCKS` repetitions and the *minimum* per-point cost wins. A
/// shared CI box sees transient neighbours inflate wall-clock uniformly;
/// the fastest block is the closest observable estimate of the kernel's
/// actual cost, so the speedup gates don't flap under contention.
const BLOCKS: usize = 8;
/// Batched MLP per-point cost recorded on this suite *before* the
/// cache-blocked/SIMD kernels landed (BENCH_hotpath.json at the naive
/// axpy-loop seed: 13.8766 µs/pt on a quiet host). Kept for provenance
/// in the JSON; the gate itself divides by [`time_naive_baseline`] — the
/// same pre-SIMD loop re-timed in this run — so that host contention,
/// which inflates both sides equally, cancels out of the ratio instead
/// of flapping an absolute-microseconds gate.
const MLP_BASELINE_US_PER_POINT: f64 = 13.88;
/// Required batched-f64 speedup over the re-timed pre-SIMD loop. Measured
/// on a 2-vCPU AVX2 host: 2.44–3.66x with the AVX2 kernel, 1.0–1.34x
/// with `UDAO_FORCE_PORTABLE=1`.
const MLP_SPEEDUP_GATE: f64 = 2.0;

/// fig4-scale training set: the 2-D (cores, memory) knob surface the batch
/// experiments sweep, with a smooth latency-like response.
fn fig4_data() -> Dataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            let a = i as f64 / 11.0;
            let b = j as f64 / 11.0;
            x.push(vec![a, b]);
            y.push(30.0 + 80.0 / (1.0 + 6.0 * a) + 15.0 * (b - 0.4) * (b - 0.4));
        }
    }
    Dataset::new(x, y)
}

fn probe_points() -> Vec<Vec<f64>> {
    (0..BATCH_SIZE)
        .map(|i| {
            let t = i as f64 / (BATCH_SIZE - 1) as f64;
            vec![t, 1.0 - 0.5 * t]
        })
        .collect()
}

struct Timing {
    scalar_us_per_point: f64,
    batched_us_per_point: f64,
    speedup: f64,
}

/// Best-of-[`BLOCKS`] per-point cost of `body`, where each block runs
/// `REPS / BLOCKS` repetitions over `points` points.
fn time_best(points: usize, mut body: impl FnMut()) -> f64 {
    let per_block = (REPS / BLOCKS).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..BLOCKS {
        let started = Instant::now();
        for _ in 0..per_block {
            body();
        }
        let us = started.elapsed().as_secs_f64() * 1e6 / (per_block * points) as f64;
        best = best.min(us);
    }
    best
}

/// Time scalar sweeps vs. batched calls over the same points (best of
/// [`BLOCKS`] blocks each) and confirm the two paths agree bitwise.
fn time_model(model: &dyn ObjectiveModel, xs: &[Vec<f64>]) -> Result<Timing, String> {
    let n = xs.len();
    let mut out = vec![0.0; n];
    // Warm-up + bitwise agreement check.
    model.predict_batch(xs, &mut out);
    for (x, b) in xs.iter().zip(&out) {
        let s = model.predict(x);
        if s.to_bits() != b.to_bits() {
            return Err(format!("batched {b} != scalar {s} at {x:?}"));
        }
    }

    let mut sink = 0.0;
    let scalar_us = time_best(n, || {
        for x in xs {
            sink += model.predict(black_box(x));
        }
    });
    black_box(sink);

    let batched_us = time_best(n, || {
        model.predict_batch(black_box(xs), &mut out);
        black_box(&out);
    });

    Ok(Timing {
        scalar_us_per_point: scalar_us,
        batched_us_per_point: batched_us,
        speedup: scalar_us / batched_us,
    })
}

/// Per-point cost of the pre-SIMD inference loop, re-timed in this run:
/// one point at a time, each layer as the serial axpy sweep the old
/// `linalg::affine_batch` ran (bias copy, then `out += x[i] * wt_row`),
/// on synthetic weights of the benched MLP's exact shape. Weight values
/// don't matter for timing; the loop shape and memory traffic do. This
/// is the denominator of the baseline gate — measured under the same
/// host conditions as the kernels it is compared against.
fn time_naive_baseline(xs: &[Vec<f64>], hidden: &[usize]) -> f64 {
    let in_dim = xs[0].len();
    let mut dims = vec![in_dim];
    dims.extend_from_slice(hidden);
    dims.push(1);
    let layers: Vec<(usize, usize, Vec<f64>, Vec<f64>)> = dims
        .windows(2)
        .map(|w| {
            let (ind, outd) = (w[0], w[1]);
            let wt: Vec<f64> =
                (0..ind * outd).map(|t| ((t % 17) as f64 - 8.0) * 0.05).collect();
            let b: Vec<f64> = (0..outd).map(|t| (t % 5) as f64 * 0.01).collect();
            (ind, outd, wt, b)
        })
        .collect();
    let max_width = *dims.iter().max().unwrap_or(&1);
    let mut cur = vec![0.0; max_width];
    let mut next = vec![0.0; max_width];
    time_best(xs.len(), || {
        for x in xs {
            cur[..in_dim].copy_from_slice(x);
            let mut width = in_dim;
            for (li, (ind, outd, wt, b)) in layers.iter().enumerate() {
                debug_assert_eq!(width, *ind);
                next[..*outd].copy_from_slice(b);
                for (i, xi) in cur[..*ind].iter().enumerate() {
                    let row = &wt[i * outd..(i + 1) * outd];
                    for (o, w) in next[..*outd].iter_mut().zip(row) {
                        *o += xi * w;
                    }
                }
                if li + 1 < layers.len() {
                    for o in next[..*outd].iter_mut() {
                        *o = o.max(0.0);
                    }
                }
                std::mem::swap(&mut cur, &mut next);
                width = *outd;
            }
            black_box(cur[0]);
        }
    })
}

/// Time incremental `Gp::extend` (rank-k Cholesky row append) against the
/// full `Gp::fit` it replaces on the serving path, on the same grown
/// training set. Returns `(extend_ms, refit_ms, max predictive gap)`.
fn time_gp_extend(data: &Dataset, xs: &[Vec<f64>]) -> Result<(f64, f64, f64), String> {
    let n = data.x.len();
    let split = n - 8; // the small-batch ingest shape the server extends on
    let base = Dataset::new(data.x[..split].to_vec(), data.y[..split].to_vec());
    let new_x = data.x[split..].to_vec();
    let new_y = data.y[split..].to_vec();
    let cfg = GpConfig::default();
    let gp_base = Gp::fit(&base, &cfg).ok_or("GP base training failed")?;

    let mut extend_ms = f64::INFINITY;
    let mut extended = gp_base.clone();
    for _ in 0..3 {
        let mut fresh = gp_base.clone();
        let started = Instant::now();
        if !fresh.extend(&new_x, &new_y) {
            return Err("Gp::extend rejected a PD border it must accept".into());
        }
        extend_ms = extend_ms.min(started.elapsed().as_secs_f64() * 1e3);
        extended = fresh;
    }

    let started = Instant::now();
    let refit = Gp::fit(data, &cfg).ok_or("GP refit failed")?;
    let refit_ms = started.elapsed().as_secs_f64() * 1e3;

    // The two must agree closely where it matters: on the probe points.
    let gap = xs
        .iter()
        .map(|x| (extended.predict(x) - refit.predict(x)).abs())
        .fold(0.0, f64::max);
    Ok((extend_ms, refit_ms, gap))
}

fn run() -> Result<(), String> {
    let data = fig4_data();
    let xs = probe_points();
    let variant = udao_model::simd::kernel_variant().name();
    let forced_portable = udao_model::simd::forced_portable();
    println!("[bench] kernel variant: {variant} (forced_portable: {forced_portable})");

    // The paper's largest latency model: 4 hidden layers of 128 units.
    let mlp_cfg =
        MlpConfig { hidden: vec![128, 128, 128, 128], epochs: 120, ..Default::default() };
    let mlp = Mlp::fit(&data, &mlp_cfg).ok_or("MLP training failed")?;
    let mlp_t = time_model(&mlp, &xs).map_err(|e| format!("mlp: {e}"))?;
    // Re-time the pre-SIMD loop under this run's host conditions so the
    // gate is a contention-free ratio, not an absolute-time comparison.
    let mlp_naive_us = time_naive_baseline(&xs, &mlp_cfg.hidden);
    let mlp_vs_baseline = mlp_naive_us / mlp_t.batched_us_per_point;
    println!(
        "[bench] mlp: naive {:.3} us/pt (recorded seed {:.2}), scalar {:.3} us/pt, \
         batched {:.3} us/pt ({:.2}x naive)",
        mlp_naive_us,
        MLP_BASELINE_US_PER_POINT,
        mlp_t.scalar_us_per_point,
        mlp_t.batched_us_per_point,
        mlp_vs_baseline,
    );

    let gp = Gp::fit(&data, &GpConfig::default()).ok_or("GP training failed")?;
    let gp_t = time_model(&gp, &xs).map_err(|e| format!("gp: {e}"))?;
    println!(
        "[bench] gp:  scalar {:.3} us/pt, batched {:.3} us/pt, speedup {:.2}x",
        gp_t.scalar_us_per_point, gp_t.batched_us_per_point, gp_t.speedup
    );
    let (gp_extend_ms, gp_refit_ms, gp_extend_gap) =
        time_gp_extend(&data, &xs).map_err(|e| format!("gp extend: {e}"))?;
    println!(
        "[bench] gp extend: {:.3} ms vs full refit {:.3} ms ({:.1}x), max predictive gap {:.2e}",
        gp_extend_ms,
        gp_refit_ms,
        gp_refit_ms / gp_extend_ms,
        gp_extend_gap,
    );

    let batched_not_slower = mlp_t.speedup >= 1.0 && gp_t.speedup >= 1.0;
    let baseline_gate = mlp_vs_baseline >= MLP_SPEEDUP_GATE;
    let extend_beats_refit = gp_extend_ms < gp_refit_ms;
    let hotpath_gate = batched_not_slower && baseline_gate && extend_beats_refit;

    let json = format!(
        concat!(
            "{{\n",
            "  \"batch_size\": {},\n",
            "  \"reps\": {},\n",
            "  \"kernel_variant\": \"{}\",\n",
            "  \"forced_portable\": {},\n",
            "  \"mlp_scalar_us_per_point\": {:.4},\n",
            "  \"mlp_batched_us_per_point\": {:.4},\n",
            "  \"mlp_speedup\": {:.4},\n",
            "  \"mlp_baseline_us_per_point\": {:.4},\n",
            "  \"mlp_naive_us_per_point\": {:.4},\n",
            "  \"mlp_vs_baseline\": {:.4},\n",
            "  \"gp_scalar_us_per_point\": {:.4},\n",
            "  \"gp_batched_us_per_point\": {:.4},\n",
            "  \"gp_speedup\": {:.4},\n",
            "  \"gp_extend_ms\": {:.4},\n",
            "  \"gp_refit_ms\": {:.4},\n",
            "  \"gp_extend_max_gap\": {:.3e},\n",
            "  \"batched_not_slower\": {},\n",
            "  \"extend_beats_refit\": {},\n",
            "  \"hotpath_gate\": {}\n",
            "}}\n"
        ),
        BATCH_SIZE,
        REPS,
        variant,
        forced_portable,
        mlp_t.scalar_us_per_point,
        mlp_t.batched_us_per_point,
        mlp_t.speedup,
        MLP_BASELINE_US_PER_POINT,
        mlp_naive_us,
        mlp_vs_baseline,
        gp_t.scalar_us_per_point,
        gp_t.batched_us_per_point,
        gp_t.speedup,
        gp_extend_ms,
        gp_refit_ms,
        gp_extend_gap,
        batched_not_slower,
        extend_beats_refit,
        hotpath_gate,
    );
    let mut f = std::fs::File::create(OUT_PATH).map_err(|e| format!("create {OUT_PATH}: {e}"))?;
    f.write_all(json.as_bytes()).map_err(|e| format!("write {OUT_PATH}: {e}"))?;
    println!("[bench] wrote {OUT_PATH}");

    // Self-validate: re-parse and fail loudly on any gate miss, naming the
    // branch that failed so a CI log points straight at the regression.
    let raw = std::fs::read_to_string(OUT_PATH).map_err(|e| format!("read back: {e}"))?;
    let parsed: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("re-parse: {e}"))?;
    let gate = match parsed.get("hotpath_gate") {
        Some(serde_json::Value::Bool(b)) => *b,
        _ => return Err("hotpath_gate missing".into()),
    };
    if !gate {
        if !batched_not_slower {
            return Err(format!(
                "batched inference is slower than scalar (mlp {:.2}x, gp {:.2}x)",
                mlp_t.speedup, gp_t.speedup
            ));
        }
        if !baseline_gate {
            return Err(format!(
                "batched f64 MLP reached {mlp_vs_baseline:.2}x, not {MLP_SPEEDUP_GATE}x, \
                 over the pre-SIMD loop re-timed in this run ({mlp_naive_us:.2} us/pt; \
                 recorded seed {MLP_BASELINE_US_PER_POINT} us/pt; variant {variant})"
            ));
        }
        return Err(format!(
            "Gp::extend ({gp_extend_ms:.2} ms) must beat the full refit ({gp_refit_ms:.2} ms)"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_hotpath failed: {e}");
            ExitCode::FAILURE
        }
    }
}
