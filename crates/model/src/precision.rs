//! The opt-in f32 inference ladder.
//!
//! The default serving path is f64 end to end and keeps the strict
//! bitwise batched-vs-scalar property MOGD's lockstep batching relies
//! on. For throughput-bound deployments, [`Precision`] offers two lower
//! rungs, both served through the [`FastPath`] wrapper:
//!
//! * [`Precision::F32`] — batched *mean* predictions run through the f32
//!   kernels ([`crate::simd::affine_batch_f32`] and the f32 fused GP
//!   cross-kernel): half the memory traffic, double the SIMD lane width.
//! * [`Precision::F32Verified`] — every f32 batch is shadowed by the f64
//!   path; elements whose relative error exceeds `rel_tol` increment
//!   `model.f32_verify_violations`, and the *f64* values are returned.
//!   This is the deployment-validation mode: it costs more than either
//!   pure path but certifies the bound before anyone trusts the fast one.
//!
//! Uncertainty (`predict_std*`) and both gradients always stay on the f64
//! path — MOGD's descent and the `E[F] + α·std[F]` handling are far more
//! sensitive to gradient noise than to mean rounding, and the f32 win is
//! in the high-volume lockstep mean batches MOGD dispatches.
//!
//! The wrapper sits *innermost* in the serving stack —
//! `Metered(LogSpace(FastPath(model)))` — so log-space entries exponentiate
//! an f32-computed exponent rather than running `exp` in f32, and metering
//! still counts every call.

use udao_core::ObjectiveModel;
use udao_telemetry::names;

/// Inference precision for served models (`UdaoBuilder::precision`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Precision {
    /// Full double precision (default): bitwise-equal batched vs. scalar.
    #[default]
    F64,
    /// Single-precision batched means via the f32 kernels.
    F32,
    /// f32 means shadow-checked against f64 per batch; returns the f64
    /// values and counts elements whose relative error exceeds `rel_tol`.
    F32Verified {
        /// Relative-error bound: a violation is
        /// `|f32 − f64| > rel_tol · (1 + |f64|)`.
        rel_tol: f64,
    },
}

impl Precision {
    /// Whether this is the default full-precision path (no wrapper).
    pub fn is_f64(self) -> bool {
        matches!(self, Precision::F64)
    }
}

/// Models that expose a single-precision batched mean — implemented by the
/// model families whose hot path has an f32 kernel.
pub trait F32Batch {
    /// Batched mean prediction through the f32 kernels. Inputs and outputs
    /// stay `f64` at the interface; narrowing happens against cached f32
    /// weight mirrors inside.
    fn predict_batch_f32(&self, xs: &[Vec<f64>], out: &mut [f64]);
}

impl F32Batch for crate::mlp::Mlp {
    fn predict_batch_f32(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        crate::mlp::Mlp::predict_batch_f32(self, xs, out);
    }
}

impl F32Batch for crate::mlp::Ensemble {
    fn predict_batch_f32(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        crate::mlp::Ensemble::predict_batch_f32(self, xs, out);
    }
}

impl F32Batch for crate::gp::Gp {
    fn predict_batch_f32(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        crate::gp::Gp::predict_batch_f32(self, xs, out);
    }
}

/// Serving wrapper that routes mean predictions through the f32 fast path
/// (optionally shadow-verified against f64); everything else delegates to
/// the wrapped f64 model. See the module docs for placement and semantics.
pub struct FastPath<M> {
    inner: M,
    /// `Some(rel_tol)` in verified mode.
    verify: Option<f64>,
}

impl<M> FastPath<M> {
    /// Wrap `inner` at the given precision rung. Callers should not
    /// construct this for [`Precision::F64`]; it behaves like `F32` there.
    pub fn new(inner: M, precision: Precision) -> Self {
        let verify = match precision {
            Precision::F32Verified { rel_tol } => Some(rel_tol),
            _ => None,
        };
        Self { inner, verify }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: ObjectiveModel + F32Batch> FastPath<M> {
    fn batch_f32(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        udao_telemetry::counter(names::MODEL_F32_BATCH_CALLS).inc();
        self.inner.predict_batch_f32(xs, out);
        if let Some(rel_tol) = self.verify {
            let mut exact = vec![0.0; out.len()];
            self.inner.predict_batch(xs, &mut exact);
            let violations = out
                .iter()
                .zip(&exact)
                .filter(|(fast, full)| (*fast - *full).abs() > rel_tol * (1.0 + full.abs()))
                .count();
            if violations > 0 {
                udao_telemetry::counter(names::MODEL_F32_VERIFY_VIOLATIONS)
                    .add(violations as u64);
            }
            out.copy_from_slice(&exact);
        }
    }
}

impl<M: ObjectiveModel + F32Batch> ObjectiveModel for FastPath<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let xs = [x.to_vec()];
        let mut out = [0.0];
        self.batch_f32(&xs, &mut out);
        out[0]
    }

    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        self.batch_f32(xs, out);
    }

    fn predict_std(&self, x: &[f64]) -> f64 {
        self.inner.predict_std(x)
    }

    fn predict_std_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        self.inner.predict_std_batch(xs, out);
    }

    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        self.inner.gradient(x, out);
    }

    fn std_gradient(&self, x: &[f64], out: &mut [f64]) {
        self.inner.std_gradient(x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::mlp::{Mlp, MlpConfig};

    fn trained_mlp() -> Mlp {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 5.0 + 3.0 * r[0]).collect();
        Mlp::fit(
            &Dataset::new(x, y),
            &MlpConfig { hidden: vec![32, 32], epochs: 200, ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn fast_path_serves_f32_means_and_f64_everything_else() {
        let m = trained_mlp();
        let fast = FastPath::new(m.clone(), Precision::F32);
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let mut fast_out = vec![0.0; xs.len()];
        let mut f32_ref = vec![0.0; xs.len()];
        fast.predict_batch(&xs, &mut fast_out);
        m.predict_batch_f32(&xs, &mut f32_ref);
        for (a, b) in fast_out.iter().zip(&f32_ref) {
            assert_eq!(a.to_bits(), b.to_bits(), "fast path must serve the f32 kernel output");
        }
        // Scalar predict goes through the same f32 path.
        assert_eq!(fast.predict(&xs[2]).to_bits(), f32_ref[2].to_bits());
        // Gradients stay on the f64 path.
        let mut g_fast = [0.0];
        let mut g_full = [0.0];
        fast.gradient(&[0.5], &mut g_fast);
        udao_core::ObjectiveModel::gradient(&m, &[0.5], &mut g_full);
        assert_eq!(g_fast[0].to_bits(), g_full[0].to_bits());
    }

    #[test]
    fn verified_mode_returns_f64_and_counts_violations() {
        let m = trained_mlp();
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let mut f64_ref = vec![0.0; xs.len()];
        udao_core::ObjectiveModel::predict_batch(&m, &xs, &mut f64_ref);

        // Loose bound: no violations, f64 values returned.
        let before =
            udao_telemetry::global().counter(names::MODEL_F32_VERIFY_VIOLATIONS).get();
        let lax = FastPath::new(m.clone(), Precision::F32Verified { rel_tol: 1e-2 });
        let mut out = vec![0.0; xs.len()];
        lax.predict_batch(&xs, &mut out);
        for (a, b) in out.iter().zip(&f64_ref) {
            assert_eq!(a.to_bits(), b.to_bits(), "verified mode must return f64 values");
        }
        assert_eq!(
            udao_telemetry::global().counter(names::MODEL_F32_VERIFY_VIOLATIONS).get(),
            before
        );

        // Impossible bound: every element violates, and the counter says so.
        let strict = FastPath::new(m, Precision::F32Verified { rel_tol: 0.0 });
        strict.predict_batch(&xs, &mut out);
        assert!(
            udao_telemetry::global().counter(names::MODEL_F32_VERIFY_VIOLATIONS).get()
                > before,
            "zero tolerance must record violations"
        );
    }

    #[test]
    fn precision_tags_are_distinct() {
        assert!(Precision::F64.is_f64());
        assert!(!Precision::F32.is_f64());
        assert!(!Precision::F32Verified { rel_tol: 1e-3 }.is_f64());
    }
}
