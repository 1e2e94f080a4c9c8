//! Runtime-dispatched SIMD kernels for the inference hot path.
//!
//! Every dense-math primitive the serving path touches — the batched affine
//! map behind MLP layers, `dot`/`sq_dist`, and the fused GP cross-kernel +
//! Gram-vector product — lives here in two variants:
//!
//! * **portable** — safe Rust written as contiguous axpy sweeps that LLVM
//!   auto-vectorizes on any target; plain `mul`/`add` rounding;
//! * **avx2** — explicit `core::arch::x86_64` intrinsics with FMA, selected
//!   at runtime via `is_x86_feature_detected!` and cached in a
//!   [`OnceLock`]. Register-blocked micro-kernels (see `MR`/`NR` below)
//!   keep accumulators in `ymm` registers across the full reduction.
//!
//! Setting `UDAO_FORCE_PORTABLE=1` in the environment pins the portable
//! variant regardless of CPU features (read once per process); CI uses it
//! to keep the fallback covered on AVX2 hosts.
//!
//! # Determinism contract
//!
//! Within one process (one variant), every kernel is *batch-composition
//! independent*: the bits produced for a given `(point, output)` pair do
//! not depend on how many other points share the call or on which micro-
//! kernel tile handled them. Each output is a serial fold over the input
//! dimension in a fixed order — the AVX2 variant vectorizes *across*
//! independent outputs and keeps the reduction axis scalar-ordered, and
//! its scalar remainders use `f64::mul_add` so they round exactly like the
//! FMA vector lanes. This is what lets `Layer::forward` route through
//! [`affine_batch_f64`] with `n = 1` and stay bitwise identical to the
//! batched path. Across variants (portable vs. avx2) bits may differ —
//! FMA skips the intermediate product rounding — so equality is only
//! promised within a variant, never between them.

use std::sync::OnceLock;

/// Which kernel implementation the process selected at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Safe auto-vectorized fallback; plain `mul`/`add` rounding.
    Portable,
    /// Explicit AVX2 + FMA intrinsics (`core::arch::x86_64`).
    Avx2,
}

impl KernelVariant {
    /// Stable lowercase name for logs and bench JSON (`portable` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Portable => "portable",
            KernelVariant::Avx2 => "avx2",
        }
    }
}

static VARIANT: OnceLock<(KernelVariant, bool)> = OnceLock::new();

fn detect() -> (KernelVariant, bool) {
    let forced = std::env::var("UDAO_FORCE_PORTABLE").map(|v| v == "1").unwrap_or(false);
    if forced {
        return (KernelVariant::Portable, true);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return (KernelVariant::Avx2, false);
        }
    }
    (KernelVariant::Portable, false)
}

/// The kernel variant in use (detected once, then cached for the process).
pub fn kernel_variant() -> KernelVariant {
    VARIANT.get_or_init(detect).0
}

/// Whether `UDAO_FORCE_PORTABLE=1` pinned the portable variant (recorded in
/// bench output for provenance).
pub fn forced_portable() -> bool {
    VARIANT.get_or_init(detect).1
}

// Micro-tile shape for the AVX2 GEMM kernels: MR batch points × NR outputs
// held in registers across the full input-dimension reduction. 4×8 in f64
// is 8 ymm accumulators + 2 weight loads + broadcasts, comfortably inside
// the 16 ymm registers.
const MR: usize = 4;

/// Batched affine map `Y = X·Wᵀ + b` (f64). `xs` is `n × in_dim` row-major,
/// `wt` the **transposed** (`in_dim × out_dim`) weight block, `out` receives
/// `n × out_dim`. See the module docs for the determinism contract.
pub fn affine_batch_f64(
    xs: &[f64],
    n: usize,
    in_dim: usize,
    wt: &[f64],
    b: &[f64],
    out: &mut Vec<f64>,
) {
    let out_dim = b.len();
    debug_assert_eq!(xs.len(), n * in_dim);
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    out.clear();
    out.resize(n * out_dim, 0.0);
    match kernel_variant() {
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => unsafe { affine_f64_avx2(xs, n, in_dim, wt, b, out) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelVariant::Avx2 => affine_f64_portable(xs, n, in_dim, wt, b, out),
        KernelVariant::Portable => affine_f64_portable(xs, n, in_dim, wt, b, out),
    }
}

/// Batched affine map `Y = X·Wᵀ + b` in f32 — the opt-in fast path. Same
/// layout and batch-independence contract as [`affine_batch_f64`], single
/// precision throughout (weights are converted once per model, see
/// `Layer::transposed_f32`).
pub fn affine_batch_f32(
    xs: &[f32],
    n: usize,
    in_dim: usize,
    wt: &[f32],
    b: &[f32],
    out: &mut Vec<f32>,
) {
    let out_dim = b.len();
    debug_assert_eq!(xs.len(), n * in_dim);
    debug_assert_eq!(wt.len(), in_dim * out_dim);
    out.clear();
    out.resize(n * out_dim, 0.0);
    match kernel_variant() {
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => unsafe { affine_f32_avx2(xs, n, in_dim, wt, b, out) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelVariant::Avx2 => affine_f32_portable(xs, n, in_dim, wt, b, out),
        KernelVariant::Portable => affine_f32_portable(xs, n, in_dim, wt, b, out),
    }
}

fn affine_f64_portable(xs: &[f64], n: usize, in_dim: usize, wt: &[f64], b: &[f64], out: &mut [f64]) {
    let out_dim = b.len();
    for i in 0..in_dim {
        let wrow = &wt[i * out_dim..(i + 1) * out_dim];
        for p in 0..n {
            let xi = xs[p * in_dim + i];
            let row_out = &mut out[p * out_dim..(p + 1) * out_dim];
            for (acc, &wv) in row_out.iter_mut().zip(wrow) {
                *acc += xi * wv;
            }
        }
    }
    for p in 0..n {
        let row_out = &mut out[p * out_dim..(p + 1) * out_dim];
        for (acc, &bo) in row_out.iter_mut().zip(b) {
            *acc += bo;
        }
    }
}

fn affine_f32_portable(xs: &[f32], n: usize, in_dim: usize, wt: &[f32], b: &[f32], out: &mut [f32]) {
    let out_dim = b.len();
    for i in 0..in_dim {
        let wrow = &wt[i * out_dim..(i + 1) * out_dim];
        for p in 0..n {
            let xi = xs[p * in_dim + i];
            let row_out = &mut out[p * out_dim..(p + 1) * out_dim];
            for (acc, &wv) in row_out.iter_mut().zip(wrow) {
                *acc += xi * wv;
            }
        }
    }
    for p in 0..n {
        let row_out = &mut out[p * out_dim..(p + 1) * out_dim];
        for (acc, &bo) in row_out.iter_mut().zip(b) {
            *acc += bo;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn affine_f64_avx2(xs: &[f64], n: usize, in_dim: usize, wt: &[f64], b: &[f64], out: &mut [f64]) {
    use core::arch::x86_64::*;
    let out_dim = b.len();
    // Per-(point, output) math is a serial fma fold over i regardless of
    // which tile below computes it — that is the batch-independence
    // contract; see module docs.
    let mut p = 0;
    while p + MR <= n {
        let mut o = 0;
        // 4 points × 8 outputs: weight column panel (in_dim × 8 ≈ 8 KB at
        // in_dim = 128) stays L1-resident across the reduction.
        while o + 8 <= out_dim {
            let mut acc = [[_mm256_setzero_pd(); 2]; MR];
            for i in 0..in_dim {
                let w0 = _mm256_loadu_pd(wt.as_ptr().add(i * out_dim + o));
                let w1 = _mm256_loadu_pd(wt.as_ptr().add(i * out_dim + o + 4));
                for (m, a) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_pd(*xs.get_unchecked((p + m) * in_dim + i));
                    a[0] = _mm256_fmadd_pd(x, w0, a[0]);
                    a[1] = _mm256_fmadd_pd(x, w1, a[1]);
                }
            }
            let b0 = _mm256_loadu_pd(b.as_ptr().add(o));
            let b1 = _mm256_loadu_pd(b.as_ptr().add(o + 4));
            for (m, a) in acc.iter().enumerate() {
                let dst = out.as_mut_ptr().add((p + m) * out_dim + o);
                _mm256_storeu_pd(dst, _mm256_add_pd(a[0], b0));
                _mm256_storeu_pd(dst.add(4), _mm256_add_pd(a[1], b1));
            }
            o += 8;
        }
        while o + 4 <= out_dim {
            let mut acc = [_mm256_setzero_pd(); MR];
            for i in 0..in_dim {
                let w = _mm256_loadu_pd(wt.as_ptr().add(i * out_dim + o));
                for (m, a) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_pd(*xs.get_unchecked((p + m) * in_dim + i));
                    *a = _mm256_fmadd_pd(x, w, *a);
                }
            }
            let bv = _mm256_loadu_pd(b.as_ptr().add(o));
            for (m, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(out.as_mut_ptr().add((p + m) * out_dim + o), _mm256_add_pd(*a, bv));
            }
            o += 4;
        }
        while o < out_dim {
            for m in 0..MR {
                let mut acc = 0.0f64;
                for i in 0..in_dim {
                    acc = xs[(p + m) * in_dim + i].mul_add(wt[i * out_dim + o], acc);
                }
                out[(p + m) * out_dim + o] = acc + b[o];
            }
            o += 1;
        }
        p += MR;
    }
    while p < n {
        let mut o = 0;
        while o + 4 <= out_dim {
            let mut acc = _mm256_setzero_pd();
            for i in 0..in_dim {
                let w = _mm256_loadu_pd(wt.as_ptr().add(i * out_dim + o));
                let x = _mm256_set1_pd(*xs.get_unchecked(p * in_dim + i));
                acc = _mm256_fmadd_pd(x, w, acc);
            }
            let bv = _mm256_loadu_pd(b.as_ptr().add(o));
            _mm256_storeu_pd(out.as_mut_ptr().add(p * out_dim + o), _mm256_add_pd(acc, bv));
            o += 4;
        }
        while o < out_dim {
            let mut acc = 0.0f64;
            for i in 0..in_dim {
                acc = xs[p * in_dim + i].mul_add(wt[i * out_dim + o], acc);
            }
            out[p * out_dim + o] = acc + b[o];
            o += 1;
        }
        p += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn affine_f32_avx2(xs: &[f32], n: usize, in_dim: usize, wt: &[f32], b: &[f32], out: &mut [f32]) {
    use core::arch::x86_64::*;
    let out_dim = b.len();
    let mut p = 0;
    while p + MR <= n {
        let mut o = 0;
        // 4 points × 16 outputs (2 ymm of 8 f32 lanes each).
        while o + 16 <= out_dim {
            let mut acc = [[_mm256_setzero_ps(); 2]; MR];
            for i in 0..in_dim {
                let w0 = _mm256_loadu_ps(wt.as_ptr().add(i * out_dim + o));
                let w1 = _mm256_loadu_ps(wt.as_ptr().add(i * out_dim + o + 8));
                for (m, a) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*xs.get_unchecked((p + m) * in_dim + i));
                    a[0] = _mm256_fmadd_ps(x, w0, a[0]);
                    a[1] = _mm256_fmadd_ps(x, w1, a[1]);
                }
            }
            let b0 = _mm256_loadu_ps(b.as_ptr().add(o));
            let b1 = _mm256_loadu_ps(b.as_ptr().add(o + 8));
            for (m, a) in acc.iter().enumerate() {
                let dst = out.as_mut_ptr().add((p + m) * out_dim + o);
                _mm256_storeu_ps(dst, _mm256_add_ps(a[0], b0));
                _mm256_storeu_ps(dst.add(8), _mm256_add_ps(a[1], b1));
            }
            o += 16;
        }
        while o + 8 <= out_dim {
            let mut acc = [_mm256_setzero_ps(); MR];
            for i in 0..in_dim {
                let w = _mm256_loadu_ps(wt.as_ptr().add(i * out_dim + o));
                for (m, a) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*xs.get_unchecked((p + m) * in_dim + i));
                    *a = _mm256_fmadd_ps(x, w, *a);
                }
            }
            let bv = _mm256_loadu_ps(b.as_ptr().add(o));
            for (m, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add((p + m) * out_dim + o), _mm256_add_ps(*a, bv));
            }
            o += 8;
        }
        while o < out_dim {
            for m in 0..MR {
                let mut acc = 0.0f32;
                for i in 0..in_dim {
                    acc = xs[(p + m) * in_dim + i].mul_add(wt[i * out_dim + o], acc);
                }
                out[(p + m) * out_dim + o] = acc + b[o];
            }
            o += 1;
        }
        p += MR;
    }
    while p < n {
        let mut o = 0;
        while o + 8 <= out_dim {
            let mut acc = _mm256_setzero_ps();
            for i in 0..in_dim {
                let w = _mm256_loadu_ps(wt.as_ptr().add(i * out_dim + o));
                let x = _mm256_set1_ps(*xs.get_unchecked(p * in_dim + i));
                acc = _mm256_fmadd_ps(x, w, acc);
            }
            let bv = _mm256_loadu_ps(b.as_ptr().add(o));
            _mm256_storeu_ps(out.as_mut_ptr().add(p * out_dim + o), _mm256_add_ps(acc, bv));
            o += 8;
        }
        while o < out_dim {
            let mut acc = 0.0f32;
            for i in 0..in_dim {
                acc = xs[p * in_dim + i].mul_add(wt[i * out_dim + o], acc);
            }
            out[p * out_dim + o] = acc + b[o];
            o += 1;
        }
        p += 1;
    }
}

/// Dot product, dispatched to the active kernel variant.
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match kernel_variant() {
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => unsafe { dot_f64_avx2(a, b) },
        _ => a.iter().zip(b).map(|(x, y)| x * y).sum(),
    }
}

/// Squared Euclidean distance, dispatched to the active kernel variant.
pub fn sq_dist_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match kernel_variant() {
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => unsafe { sq_dist_f64_avx2(a, b) },
        _ => a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_f64_avx2(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = a.len();
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let a0 = _mm256_loadu_pd(a.as_ptr().add(i));
        let b0 = _mm256_loadu_pd(b.as_ptr().add(i));
        let a1 = _mm256_loadu_pd(a.as_ptr().add(i + 4));
        let b1 = _mm256_loadu_pd(b.as_ptr().add(i + 4));
        acc0 = _mm256_fmadd_pd(a0, b0, acc0);
        acc1 = _mm256_fmadd_pd(a1, b1, acc1);
        i += 8;
    }
    while i + 4 <= n {
        let av = _mm256_loadu_pd(a.as_ptr().add(i));
        let bv = _mm256_loadu_pd(b.as_ptr().add(i));
        acc0 = _mm256_fmadd_pd(av, bv, acc0);
        i += 4;
    }
    let mut sum = hsum_pd(_mm256_add_pd(acc0, acc1));
    while i < n {
        sum = a[i].mul_add(b[i], sum);
        i += 1;
    }
    sum
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sq_dist_f64_avx2(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let d = _mm256_sub_pd(_mm256_loadu_pd(a.as_ptr().add(i)), _mm256_loadu_pd(b.as_ptr().add(i)));
        acc = _mm256_fmadd_pd(d, d, acc);
        i += 4;
    }
    let mut sum = hsum_pd(acc);
    while i < n {
        let d = a[i] - b[i];
        sum = d.mul_add(d, sum);
        i += 1;
    }
    sum
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum_pd(v: core::arch::x86_64::__m256d) -> f64 {
    use core::arch::x86_64::*;
    // Fixed reduction order: (lane0 + lane2) + (lane1 + lane3).
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let pair = _mm_add_pd(lo, hi);
    let high = _mm_unpackhi_pd(pair, pair);
    _mm_cvtsd_f64(_mm_add_sd(pair, high))
}

/// Fused SE cross-kernel + Gram-vector product (f64): in one pass over the
/// training block (`x_flat` is `n × dim` row-major) fills `kx[i] =
/// signal_var · exp(−½·‖xᵢ − q‖² / ℓ²)` and returns `kxᵀ·α`. The `kx` row
/// is kept because the GP variance path reuses it for the triangular solve.
/// The reduction over training points is a serial plain-multiply fold, so
/// the result is bitwise equal to computing the row first and then taking
/// a serial dot product (the two-step reference).
// A kernel entry point, not an API to shrink behind a params struct: every
// argument is a hot-loop operand the single GP call site feeds directly.
#[allow(clippy::too_many_arguments)]
pub fn se_cross_gram_f64(
    x_flat: &[f64],
    n: usize,
    dim: usize,
    q: &[f64],
    alpha: &[f64],
    length_scale: f64,
    signal_var: f64,
    kx: &mut Vec<f64>,
) -> f64 {
    debug_assert_eq!(x_flat.len(), n * dim);
    debug_assert_eq!(alpha.len(), n);
    debug_assert_eq!(q.len(), dim);
    kx.clear();
    kx.reserve(n);
    let l2 = length_scale * length_scale;
    let mut mean = 0.0;
    for i in 0..n {
        let row = &x_flat[i * dim..(i + 1) * dim];
        let d = sq_dist_f64(row, q);
        let k = signal_var * (-0.5 * d / l2).exp();
        kx.push(k);
        mean += k * alpha[i];
    }
    mean
}

/// f32 counterpart of [`se_cross_gram_f64`] for the opt-in fast path. The
/// caller provides pre-converted f32 training block and Gram weights; no
/// `kx` row is materialized because the f32 path serves means only
/// (variance stays on the f64 path).
pub fn se_cross_gram_f32(
    x_flat: &[f32],
    n: usize,
    dim: usize,
    q: &[f32],
    alpha: &[f32],
    length_scale: f32,
    signal_var: f32,
) -> f32 {
    debug_assert_eq!(x_flat.len(), n * dim);
    debug_assert_eq!(alpha.len(), n);
    let l2 = length_scale * length_scale;
    let mut mean = 0.0f32;
    for i in 0..n {
        let row = &x_flat[i * dim..(i + 1) * dim];
        let mut d = 0.0f32;
        for (a, b) in row.iter().zip(q) {
            let diff = a - b;
            d += diff * diff;
        }
        let k = signal_var * (-0.5 * d / l2).exp();
        mean += k * alpha[i];
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_affine_ref(xs: &[f64], n: usize, in_dim: usize, wt: &[f64], b: &[f64]) -> Vec<f64> {
        // Plain-rounding reference (portable semantics).
        let out_dim = b.len();
        let mut out = vec![0.0; n * out_dim];
        for p in 0..n {
            for o in 0..out_dim {
                let mut acc = 0.0;
                for i in 0..in_dim {
                    acc += xs[p * in_dim + i] * wt[i * out_dim + o];
                }
                out[p * out_dim + o] = acc + b[o];
            }
        }
        out
    }

    #[test]
    fn variant_detection_is_cached_and_named() {
        let v = kernel_variant();
        assert_eq!(v, kernel_variant());
        assert!(v.name() == "avx2" || v.name() == "portable");
    }

    #[test]
    fn affine_f64_matches_reference_within_tolerance() {
        // Cross-variant tolerance check (FMA may round differently).
        let n = 7;
        let in_dim = 13;
        let out_dim = 11;
        let xs: Vec<f64> = (0..n * in_dim).map(|i| ((i * 37 % 19) as f64 - 9.0) * 0.173).collect();
        let wt: Vec<f64> = (0..in_dim * out_dim).map(|i| ((i * 53 % 23) as f64 - 11.0) * 0.091).collect();
        let b: Vec<f64> = (0..out_dim).map(|i| i as f64 * 0.01 - 0.05).collect();
        let mut out = Vec::new();
        affine_batch_f64(&xs, n, in_dim, &wt, &b, &mut out);
        let reference = scalar_affine_ref(&xs, n, in_dim, &wt, &b);
        for (a, r) in out.iter().zip(&reference) {
            assert!((a - r).abs() <= 1e-12 * (1.0 + r.abs()), "{a} vs {r}");
        }
    }

    #[test]
    fn affine_f64_is_batch_composition_independent() {
        // The n-point batch must produce, row for row, the exact bits of
        // n separate single-point calls — this is the contract that keeps
        // batched and scalar predictions bitwise identical.
        for &(n, in_dim, out_dim) in
            &[(1usize, 5usize, 3usize), (2, 16, 9), (9, 128, 128), (5, 7, 17), (6, 33, 12)]
        {
            let xs: Vec<f64> =
                (0..n * in_dim).map(|i| ((i * 29 % 17) as f64 - 8.0) * 0.219).collect();
            let wt: Vec<f64> =
                (0..in_dim * out_dim).map(|i| ((i * 41 % 13) as f64 - 6.0) * 0.137).collect();
            let b: Vec<f64> = (0..out_dim).map(|i| (i as f64) * 0.03 - 0.1).collect();
            let mut batched = Vec::new();
            affine_batch_f64(&xs, n, in_dim, &wt, &b, &mut batched);
            let mut single = Vec::new();
            for p in 0..n {
                affine_batch_f64(&xs[p * in_dim..(p + 1) * in_dim], 1, in_dim, &wt, &b, &mut single);
                let got = &batched[p * out_dim..(p + 1) * out_dim];
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "row {p} of n={n} differs from its single-point call"
                );
            }
        }
    }

    #[test]
    fn affine_f32_is_batch_composition_independent() {
        for &(n, in_dim, out_dim) in &[(1usize, 5usize, 3usize), (9, 128, 128), (3, 20, 33)] {
            let xs: Vec<f32> =
                (0..n * in_dim).map(|i| ((i * 29 % 17) as f32 - 8.0) * 0.219).collect();
            let wt: Vec<f32> =
                (0..in_dim * out_dim).map(|i| ((i * 41 % 13) as f32 - 6.0) * 0.137).collect();
            let b: Vec<f32> = (0..out_dim).map(|i| (i as f32) * 0.03 - 0.1).collect();
            let mut batched = Vec::new();
            affine_batch_f32(&xs, n, in_dim, &wt, &b, &mut batched);
            let mut single = Vec::new();
            for p in 0..n {
                affine_batch_f32(&xs[p * in_dim..(p + 1) * in_dim], 1, in_dim, &wt, &b, &mut single);
                let got = &batched[p * out_dim..(p + 1) * out_dim];
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "row {p} of n={n} differs from its single-point call"
                );
            }
        }
    }

    #[test]
    fn dot_and_sq_dist_match_serial_within_tolerance() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.31).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.17).cos()).collect();
        let serial_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let serial_sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((dot_f64(&a, &b) - serial_dot).abs() < 1e-12);
        assert!((sq_dist_f64(&a, &b) - serial_sq).abs() < 1e-12);
    }

    #[test]
    fn fused_gram_matches_two_step_reference_bitwise() {
        let n = 23;
        let dim = 4;
        let x_flat: Vec<f64> = (0..n * dim).map(|i| (i as f64 * 0.37).sin()).collect();
        let q: Vec<f64> = (0..dim).map(|i| 0.1 * i as f64).collect();
        let alpha: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let (l, sv) = (0.8, 1.7);
        let mut kx = Vec::new();
        let mean = se_cross_gram_f64(&x_flat, n, dim, &q, &alpha, l, sv, &mut kx);
        // Two-step reference: kernel row first, then a serial dot.
        let mut kx_ref = vec![0.0; n];
        for i in 0..n {
            let d = sq_dist_f64(&x_flat[i * dim..(i + 1) * dim], &q);
            kx_ref[i] = sv * (-0.5 * d / (l * l)).exp();
        }
        let mean_ref: f64 = kx_ref.iter().zip(&alpha).map(|(k, a)| k * a).sum();
        assert_eq!(mean.to_bits(), mean_ref.to_bits());
        for (a, b) in kx.iter().zip(&kx_ref) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
