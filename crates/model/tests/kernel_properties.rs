//! Property tests of the SIMD / cache-blocked inference kernels: the three
//! contracts the serving path builds on, checked over randomized shapes
//! and data instead of the hand-picked cases in the unit suites.
//!
//! 1. The blocked f64 GEMM is bitwise equal to the per-point path
//!    (`Layer::forward` routes through the same kernel with `n = 1`), for
//!    every batch/dimension split the tiler can produce.
//! 2. Rank-k Cholesky row appends match a from-scratch refactorization of
//!    the grown matrix within `1e-10`.
//! 3. The fused GP cross-kernel + Gram-vector product is bitwise equal to
//!    the two-step (kernel row, then dot) reference it replaced.
//!
//! All three properties run under whatever kernel variant the host
//! dispatches (and under `UDAO_FORCE_PORTABLE=1` in `scripts/check.sh`,
//! which runs this suite once per variant).

use proptest::prelude::*;
use udao_model::linalg::Matrix;
use udao_model::simd;

/// Ceilings for the generated shapes; data vectors are generated at the
/// matching maximum length and sliced down to the drawn shape.
const MAX_N: usize = 9;
const MAX_IN: usize = 17;
const MAX_OUT: usize = 17;

proptest! {
    /// Contract 1: batch composition independence, bitwise. Each (point,
    /// output) cell must be one serial fold over the input dimension in a
    /// fixed order, whatever tile or remainder path computes it — this is
    /// what makes MOGD's lockstep multistart batches return exactly the
    /// bits per-point calls would have seen.
    #[test]
    fn blocked_gemm_is_bitwise_equal_to_per_point_forward(
        n in 1usize..=MAX_N,
        in_dim in 1usize..=MAX_IN,
        out_dim in 1usize..=MAX_OUT,
        xs in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_IN),
        wt in prop::collection::vec(-1.5f64..1.5, MAX_IN * MAX_OUT),
        b in prop::collection::vec(-1.0f64..1.0, MAX_OUT),
    ) {
        let xs = &xs[..n * in_dim];
        let wt = &wt[..in_dim * out_dim];
        let b = &b[..out_dim];
        let mut batched = Vec::new();
        simd::affine_batch_f64(xs, n, in_dim, wt, b, &mut batched);
        prop_assert_eq!(batched.len(), n * out_dim);
        let mut single = Vec::new();
        for p in 0..n {
            simd::affine_batch_f64(
                &xs[p * in_dim..(p + 1) * in_dim],
                1,
                in_dim,
                wt,
                b,
                &mut single,
            );
            for o in 0..out_dim {
                prop_assert!(
                    batched[p * out_dim + o].to_bits() == single[o].to_bits(),
                    "point {p} output {o}: batched {} != single {}",
                    batched[p * out_dim + o],
                    single[o]
                );
            }
        }
    }

    /// Contract 2: growing a Cholesky factor one bordered row at a time
    /// (`Matrix::cholesky_append_row`, the O(kn^2) GP fine-tune path)
    /// matches refactorizing the grown matrix from scratch within 1e-10.
    #[test]
    fn rank_k_cholesky_append_matches_refactorization(
        n in 1usize..7,
        k in 1usize..5,
        seed in prop::collection::vec(-1.0f64..1.0, 12 * 12),
    ) {
        let m = n + k;
        // A = B·Bᵀ + m·I over a 12-wide random B: symmetric positive
        // definite with eigenvalues >= m, so every leading block and every
        // appended border is comfortably PD.
        let a = |i: usize, j: usize| -> f64 {
            let dot: f64 = (0..12).map(|t| seed[i * 12 + t] * seed[j * 12 + t]).sum();
            dot + if i == j { m as f64 } else { 0.0 }
        };
        let rows: Vec<Vec<f64>> =
            (0..m).map(|i| (0..m).map(|j| a(i, j)).collect()).collect();
        let full = Matrix::from_rows(&rows).cholesky();
        prop_assert!(full.is_some(), "full matrix must be PD");
        let full = full.unwrap();

        let head: Vec<Vec<f64>> =
            (0..n).map(|i| rows[i][..n].to_vec()).collect();
        let grown = Matrix::from_rows(&head).cholesky();
        prop_assert!(grown.is_some(), "leading block must be PD");
        let mut grown = grown.unwrap();
        for j in 0..k {
            let idx = n + j;
            let accepted = grown.cholesky_append_row(&rows[idx][..idx], rows[idx][idx]);
            prop_assert!(accepted, "PD border {idx} must be accepted");
        }
        prop_assert_eq!(grown.rows(), m);
        for i in 0..m {
            for j in 0..m {
                let diff = (grown.row(i)[j] - full.row(i)[j]).abs();
                prop_assert!(
                    diff <= 1e-10,
                    "factor entry ({i},{j}) drifted by {diff:.3e}"
                );
            }
        }
    }

    /// Contract 3: the fused SE cross-kernel + Gram-vector product returns
    /// exactly the bits of the two-step reference (kernel row via the same
    /// dispatched `sq_dist`, then a serial multiply-add fold).
    #[test]
    fn fused_gp_gram_is_bitwise_equal_to_two_step_reference(
        n in 1usize..12,
        dim in 1usize..6,
        data in prop::collection::vec(-2.0f64..2.0, 11 * 5),
        q in prop::collection::vec(-2.0f64..2.0, 5),
        alpha in prop::collection::vec(-1.0f64..1.0, 11),
        length_scale in 0.2f64..2.0,
        signal_var in 0.1f64..3.0,
    ) {
        let x_flat = &data[..n * dim];
        let q = &q[..dim];
        let alpha = &alpha[..n];
        let mut kx = Vec::new();
        let mean = simd::se_cross_gram_f64(
            x_flat, n, dim, q, alpha, length_scale, signal_var, &mut kx,
        );

        let l2 = length_scale * length_scale;
        let mut ref_kx = Vec::with_capacity(n);
        for row in x_flat.chunks_exact(dim) {
            let d = simd::sq_dist_f64(row, q);
            ref_kx.push(signal_var * (-0.5 * d / l2).exp());
        }
        let mut ref_mean = 0.0;
        for (kv, av) in ref_kx.iter().zip(alpha) {
            ref_mean += kv * av;
        }

        prop_assert_eq!(kx.len(), n);
        for (f, r) in kx.iter().zip(&ref_kx) {
            prop_assert!(f.to_bits() == r.to_bits(), "kernel row: {f} != {r}");
        }
        prop_assert!(mean.to_bits() == ref_mean.to_bits(), "mean: {mean} != {ref_mean}");
    }
}
