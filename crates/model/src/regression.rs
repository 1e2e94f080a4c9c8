//! Hand-crafted analytical performance models (Ernest-style \[36\]).
//!
//! Before learned models are available (or for users who profile their
//! hardware), UDAO accepts domain-knowledge regression functions: simple
//! linear / low-degree-polynomial shapes over a small set of resource
//! knobs. These are subdifferentiable by construction, so MOGD handles
//! them directly.

use serde::{Deserialize, Serialize};
use udao_core::ObjectiveModel;

/// Ernest's canonical latency shape for data-parallel jobs on `m` machines
/// over input scale `s`:
///
/// `T(s, m) = θ₀ + θ₁·s/m + θ₂·log(m) + θ₃·m`
///
/// — a fixed cost, a parallelizable fraction, a tree-aggregation term, and
/// a per-machine coordination overhead. Inputs are normalized: `x[0]` maps
/// to machines in `[m_lo, m_hi]`, `x[1]` (optional) maps to input scale in
/// `[s_lo, s_hi]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErnestLatency {
    /// Coefficients `θ₀..θ₃`.
    pub theta: [f64; 4],
    /// Machine-count range mapped from `x[0]`.
    pub machines: (f64, f64),
    /// Input-scale range mapped from `x[1]`; `None` fixes scale to 1.
    pub scale: Option<(f64, f64)>,
}

impl ErnestLatency {
    fn machines_at(&self, x: &[f64]) -> f64 {
        let (lo, hi) = self.machines;
        (lo + x[0].clamp(0.0, 1.0) * (hi - lo)).max(1.0)
    }

    fn scale_at(&self, x: &[f64]) -> f64 {
        match self.scale {
            Some((lo, hi)) => lo + x[1].clamp(0.0, 1.0) * (hi - lo),
            None => 1.0,
        }
    }
}

impl ObjectiveModel for ErnestLatency {
    fn dim(&self) -> usize {
        if self.scale.is_some() {
            2
        } else {
            1
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let m = self.machines_at(x);
        let s = self.scale_at(x);
        let [t0, t1, t2, t3] = self.theta;
        t0 + t1 * s / m + t2 * m.ln() + t3 * m
    }

    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        let m = self.machines_at(x);
        let s = self.scale_at(x);
        let [_, t1, t2, t3] = self.theta;
        let (m_lo, m_hi) = self.machines;
        let dm_dx = m_hi - m_lo;
        out[0] = (-t1 * s / (m * m) + t2 / m + t3) * dm_dx;
        if let Some((s_lo, s_hi)) = self.scale {
            out[1] = t1 / m * (s_hi - s_lo);
        }
    }

    /// Closed-form model: the batch is a tight loop over the formula, with
    /// no per-point dispatch overhead.
    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        let [t0, t1, t2, t3] = self.theta;
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            let m = self.machines_at(x);
            let s = self.scale_at(x);
            *o = t0 + t1 * s / m + t2 * m.ln() + t3 * m;
        }
    }
}

/// A resource-cost model: cost rises affinely with allocated capacity,
/// `C(x) = base + Σ rate_d · raw_d(x)` where `raw_d` maps normalized knob
/// `d` to its physical range.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearCost {
    /// Constant cost floor.
    pub base: f64,
    /// Per-knob `(lo, hi, rate)`: the knob spans `[lo, hi]` physically and
    /// contributes `rate · value` to the cost.
    pub knobs: Vec<(f64, f64, f64)>,
}

impl ObjectiveModel for LinearCost {
    fn dim(&self) -> usize {
        self.knobs.len()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.base
            + self
                .knobs
                .iter()
                .zip(x)
                .map(|(&(lo, hi, rate), &xi)| rate * (lo + xi.clamp(0.0, 1.0) * (hi - lo)))
                .sum::<f64>()
    }

    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        for (o, &(lo, hi, rate)) in out.iter_mut().zip(&self.knobs) {
            *o = rate * (hi - lo);
        }
        let _ = x;
    }

    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.predict(x);
        }
    }
}

/// Ordinary least-squares fit of the Ernest model on observed
/// `(machines, scale, latency)` triples via the normal equations.
pub fn fit_ernest(observations: &[(f64, f64, f64)]) -> Option<[f64; 4]> {
    if observations.len() < 4 {
        return None;
    }
    // Features per row: [1, s/m, ln m, m].
    let rows: Vec<[f64; 4]> =
        observations.iter().map(|&(m, s, _)| [1.0, s / m, m.ln(), m]).collect();
    let y: Vec<f64> = observations.iter().map(|&(_, _, t)| t).collect();
    // Normal equations AᵀA θ = Aᵀy solved by Cholesky.
    let mut ata = crate::linalg::Matrix::zeros(4, 4);
    let mut aty = [0.0; 4];
    for (r, yi) in rows.iter().zip(&y) {
        for i in 0..4 {
            aty[i] += r[i] * yi;
            for j in 0..4 {
                ata[(i, j)] += r[i] * r[j];
            }
        }
    }
    for i in 0..4 {
        ata[(i, i)] += 1e-9; // ridge jitter
    }
    let l = ata.cholesky()?;
    let theta = l.cholesky_solve(&aty);
    Some([theta[0], theta[1], theta[2], theta[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ErnestLatency {
        ErnestLatency {
            theta: [5.0, 120.0, 2.0, 0.3],
            machines: (1.0, 32.0),
            scale: Some((0.5, 2.0)),
        }
    }

    #[test]
    fn latency_falls_with_machines_then_rises() {
        let m = model();
        let few = m.predict(&[0.0, 1.0]);
        let mid = m.predict(&[0.3, 1.0]);
        let many = m.predict(&[1.0, 1.0]);
        assert!(mid < few, "adding machines should help initially: {few} -> {mid}");
        // With the θ₃ overhead, very large clusters cost latency again
        // relative to the sweet spot.
        assert!(many > m.predict(&[0.5, 1.0]) - 50.0, "sanity: {many}");
    }

    #[test]
    fn latency_rises_with_scale() {
        let m = model();
        assert!(m.predict(&[0.5, 1.0]) > m.predict(&[0.5, 0.0]));
    }

    #[test]
    fn ernest_gradient_matches_fd() {
        let m = model();
        let x = [0.4, 0.6];
        let mut g = [0.0, 0.0];
        m.gradient(&x, &mut g);
        let h = 1e-6;
        for d in 0..2 {
            let mut xp = x;
            xp[d] += h;
            let mut xm = x;
            xm[d] -= h;
            let fd = (m.predict(&xp) - m.predict(&xm)) / (2.0 * h);
            assert!((g[d] - fd).abs() < 1e-4 * (1.0 + fd.abs()), "d={d}: {} vs {fd}", g[d]);
        }
    }

    #[test]
    fn linear_cost_is_affine() {
        let c = LinearCost { base: 2.0, knobs: vec![(1.0, 9.0, 0.5), (0.0, 4.0, 1.0)] };
        assert!((c.predict(&[0.0, 0.0]) - (2.0 + 0.5)).abs() < 1e-12);
        assert!((c.predict(&[1.0, 1.0]) - (2.0 + 4.5 + 4.0)).abs() < 1e-12);
        let mut g = [0.0, 0.0];
        c.gradient(&[0.3, 0.3], &mut g);
        assert_eq!(g, [4.0, 4.0]);
    }

    #[test]
    fn fit_ernest_recovers_coefficients() {
        let truth = [5.0, 120.0, 2.0, 0.3];
        let obs: Vec<(f64, f64, f64)> = (1..=16)
            .flat_map(|m| {
                [0.5, 1.0, 2.0].into_iter().map(move |s| {
                    let m = m as f64;
                    let t = truth[0] + truth[1] * s / m + truth[2] * m.ln() + truth[3] * m;
                    (m, s, t)
                })
            })
            .collect();
        let theta = fit_ernest(&obs).unwrap();
        for (a, b) in theta.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-5, "{theta:?} vs {truth:?}");
        }
    }

    #[test]
    fn fit_ernest_needs_enough_data() {
        assert!(fit_ernest(&[(1.0, 1.0, 1.0)]).is_none());
    }
}
