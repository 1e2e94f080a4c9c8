#!/usr/bin/env bash
# Local CI gate: release build, full test suite, clippy and rustdoc with warnings
# denied. `clippy::disallowed-methods` is enabled so the unwrap() ban of
# crates/system/clippy.toml is enforced (see that file for rationale).
#
# Usage: scripts/check.sh
#   CHECK_FAST=1 scripts/check.sh   # smaller bench sizing for smoke runs
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> perfbench build + tests (a separate Cargo workspace)"
# perfbench has its own [workspace], so `--workspace` above never compiles
# it; build and test it here so a public-API change that breaks the
# end-to-end benchmark fails this gate.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -W clippy::disallowed-methods -D warnings

echo "==> rustdoc with warnings denied"
# Broken or private intra-doc links (e.g. to a deleted type) and unescaped
# citation brackets fail the gate instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> telemetry bench smoke"
cargo run --release -p udao-bench --bin bench_telemetry
if [ ! -s BENCH_telemetry.json ]; then
    echo "BENCH_telemetry.json missing or empty" >&2
    exit 1
fi
# Malformed output (bad JSON, zero counters, no stage timings) makes the
# smoke binary itself exit non-zero; here we re-check the headline fields
# survived on disk.
for field in mogd_iterations pf_probes model_inferences stages; do
    if ! grep -q "\"$field\"" BENCH_telemetry.json; then
        echo "BENCH_telemetry.json is missing field: $field" >&2
        exit 1
    fi
done

echo "==> concurrent solve-report isolation"
cargo test -q -p udao concurrent_requests_produce_disjoint_exact_reports -- --nocapture

echo "==> inference kernel suite (runtime-detected variant)"
cargo test -q -p udao-model

echo "==> inference kernel suite (UDAO_FORCE_PORTABLE=1)"
# Same suite with the SIMD dispatch pinned to the portable kernels: the
# portable and vector paths each promise batched-vs-scalar bitwise
# equality within themselves, and both must hold on every host.
UDAO_FORCE_PORTABLE=1 cargo test -q -p udao-model

echo "==> hot-path bench (scalar vs batched vs f32 inference, GP extend)"
cargo run --release -p udao-bench --bin bench_hotpath
if [ ! -s BENCH_hotpath.json ]; then
    echo "BENCH_hotpath.json missing or empty" >&2
    exit 1
fi
# The bench binary exits non-zero on any gate miss; re-check the combined
# verdict that survived on disk. The gate requires: batched never slower
# than scalar, >= 4x over the recorded 13.88 us/pt pre-SIMD baseline on at
# least one kernel variant, and Gp::extend faster than a full refit.
if ! grep -q '"hotpath_gate": true' BENCH_hotpath.json; then
    echo "!!!! BENCH_hotpath.json: hot-path performance gate FAILED !!!!" >&2
    echo "!!!! (see mlp_vs_baseline / mlp_f32_vs_baseline / extend_beats_refit" >&2
    echo "!!!!  in BENCH_hotpath.json; the pre-SIMD baseline is 13.88 us/pt)" >&2
    cat BENCH_hotpath.json >&2
    exit 1
fi
for field in kernel_variant forced_portable mlp_naive_us_per_point mlp_vs_baseline mlp_f32_max_rel_err gp_extend_ms; do
    if ! grep -q "\"$field\"" BENCH_hotpath.json; then
        echo "BENCH_hotpath.json is missing field: $field" >&2
        exit 1
    fi
done

echo "==> serving engine stress tests"
cargo test -q -p udao --test serving

echo "==> scheduler invariants (proptest + shed accounting)"
cargo test -q -p udao --test scheduler

echo "==> lifecycle stress (smoke-sized swap storm)"
CHECK_FAST=1 cargo test -q -p udao --test lifecycle

echo "==> model lifecycle bench (hot-swap under serving load)"
cargo run --release -p udao-bench --bin bench_lifecycle
if [ ! -s BENCH_lifecycle.json ]; then
    echo "BENCH_lifecycle.json missing or empty" >&2
    exit 1
fi
# The bench binary exits non-zero on any stale serve or a swap-free run;
# re-check the verdict and the headline fields that survived on disk.
if ! grep -q '"lifecycle_gate": true' BENCH_lifecycle.json; then
    echo "BENCH_lifecycle.json: stale-serve/swap gate failed" >&2
    exit 1
fi
if ! grep -q '"stale_served": 0' BENCH_lifecycle.json; then
    echo "BENCH_lifecycle.json: stale_served must be 0" >&2
    exit 1
fi
for field in swaps swap_ms_mean swap_ms_p95 distinct_versions_served; do
    if ! grep -q "\"$field\"" BENCH_lifecycle.json; then
        echo "BENCH_lifecycle.json is missing field: $field" >&2
        exit 1
    fi
done

echo "==> frontier cache bench (exact hits and warm-started near hits)"
cargo run --release -p udao-bench --bin bench_cache
if [ ! -s BENCH_cache.json ]; then
    echo "BENCH_cache.json missing or empty" >&2
    exit 1
fi
# The bench binary exits non-zero when the cache never serves, exact hits
# are under 10x faster than cold solves, warm starts lose to cold solves,
# or the warm frontier drops >2% hypervolume; re-check the verdict and the
# headline fields that survived on disk.
if ! grep -q '"cache_gate": true' BENCH_cache.json; then
    echo "BENCH_cache.json: frontier-cache hit/warm-start gate failed" >&2
    exit 1
fi
if ! grep -q '"warm_beats_cold": true' BENCH_cache.json; then
    echo "BENCH_cache.json: warm-started solves must beat cold solves" >&2
    exit 1
fi
for field in served warm_starts hit_speedup cold_p50_ms hit_p50_ms hv_min_ratio; do
    if ! grep -q "\"$field\"" BENCH_cache.json; then
        echo "BENCH_cache.json is missing field: $field" >&2
        exit 1
    fi
done

echo "==> serving throughput bench (1/4/8 workers)"
cargo run --release -p udao-bench --bin bench_throughput
if [ ! -s BENCH_throughput.json ]; then
    echo "BENCH_throughput.json missing or empty" >&2
    exit 1
fi
# The bench binary exits non-zero when 4 workers deliver < 2x the
# single-worker throughput; re-check the verdict and the latency fields
# that survived on disk.
if ! grep -q '"throughput_gate": true' BENCH_throughput.json; then
    echo "BENCH_throughput.json: 4-worker speedup gate failed" >&2
    exit 1
fi
for field in rps p50_ms p95_ms p99_ms speedup_4x; do
    if ! grep -q "\"$field\"" BENCH_throughput.json; then
        echo "BENCH_throughput.json is missing field: $field" >&2
        exit 1
    fi
done

echo "==> SLO scheduler bench (interactive tail under 10:1 batch flood)"
cargo run --release -p udao-bench --bin bench_scheduler
if [ ! -s BENCH_scheduler.json ]; then
    echo "BENCH_scheduler.json missing or empty" >&2
    exit 1
fi
# The bench binary exits non-zero when the loaded interactive p99 exceeds
# 3x the unloaded p99, fewer than 95% of interactive submissions are
# admitted, any shed lands outside the batch class, or the flood never
# overflowed the batch quota; re-check the verdict and headline fields
# that survived on disk.
if ! grep -q '"scheduler_gate": true' BENCH_scheduler.json; then
    echo "BENCH_scheduler.json: interactive-SLO/shed-isolation gate failed" >&2
    exit 1
fi
if ! grep -q '"interactive_shed": 0' BENCH_scheduler.json; then
    echo "BENCH_scheduler.json: interactive_shed must be 0" >&2
    exit 1
fi
for field in unloaded_p99_ms loaded_p99_ms p99_ratio interactive_admitted_frac batch_shed; do
    if ! grep -q "\"$field\"" BENCH_scheduler.json; then
        echo "BENCH_scheduler.json is missing field: $field" >&2
        exit 1
    fi
done

echo "==> stage-truth suite (closed-form per-stage optima, bitwise)"
cargo test -q -p udao --test stage_truth

echo "==> per-stage tuning bench (decomposed vs joint vs one-global-config)"
cargo run --release -p udao-bench --bin bench_stages
if [ ! -s BENCH_stages.json ]; then
    echo "BENCH_stages.json missing or empty" >&2
    exit 1
fi
# The bench binary exits non-zero when decomposed tuning loses hypervolume
# against the joint solve (ratio < 0.999), is not faster at p50, strays off
# the closed-form front, or the one-global-config cost gap falls short of
# the analytic 1 + Var_w(a) margin; re-check the verdict and every gated
# field that survived on disk so a silently dropped gate also fails here.
if ! grep -q '"stages_gate": true' BENCH_stages.json; then
    echo "!!!! BENCH_stages.json: per-stage tuning gate FAILED !!!!" >&2
    echo "!!!! (see hv_ratio_min / decomposed_faster / front_residual_max" >&2
    echo "!!!!  / one_global_cost_ratio in BENCH_stages.json)" >&2
    cat BENCH_stages.json >&2
    exit 1
fi
if ! grep -q '"decomposed_faster": true' BENCH_stages.json; then
    echo "BENCH_stages.json: decomposed tuning must beat joint p50 wall-clock" >&2
    exit 1
fi
if ! grep -q '"latency_dominated": true' BENCH_stages.json; then
    echo "BENCH_stages.json: one-global-config must be latency-dominated too" >&2
    exit 1
fi
for field in hv_ratio_min hv_ratio_gate front_residual_max one_global_cost_ratio one_global_cost_margin decomposed_p50_ms joint_p50_ms; do
    if ! grep -q "\"$field\"" BENCH_stages.json; then
        echo "BENCH_stages.json is missing field: $field" >&2
        exit 1
    fi
done

echo "==> all checks passed"
