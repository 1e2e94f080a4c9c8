//! Gaussian Process regression with a squared-exponential kernel.
//!
//! This is the model family OtterTune uses and one of the two "complex
//! learned models" the MOGD solver must support (§II, §V). Inference
//! follows the standard Cholesky recipe; hyperparameters (length-scale,
//! signal variance, noise variance) are selected by maximizing the log
//! marginal likelihood over a log-space grid with local refinement —
//! robust, derivative-free, and entirely adequate at the trace counts UDAO
//! sees per workload (tens to a few hundred).
//!
//! Both the predictive mean and standard deviation expose *analytic* input
//! gradients, which is what lets MOGD treat a GP exactly like a DNN.

use crate::dataset::{Dataset, Scaler};
use crate::linalg::{sq_dist, Matrix};
use serde::{Deserialize, Serialize};

/// GP hyperparameter search configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpConfig {
    /// Candidate length-scales for the MLE grid (in normalized input units).
    pub length_scales: Vec<f64>,
    /// Candidate noise standard deviations (relative to unit signal).
    pub noise_levels: Vec<f64>,
    /// Jitter added to the kernel diagonal for numerical stability.
    pub jitter: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self {
            length_scales: vec![0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 2.0],
            noise_levels: vec![0.01, 0.05, 0.1, 0.2],
            jitter: 1e-8,
        }
    }
}

/// A trained Gaussian Process regressor.
#[derive(Debug, Clone)]
pub struct Gp {
    /// Training inputs, flattened row-major (`n × dim`) so the fused
    /// cross-kernel kernel streams one contiguous block.
    x_flat: Vec<f64>,
    /// Standardized training targets (kept so incremental extension can
    /// re-solve for `α` against the grown factor).
    y_std: Vec<f64>,
    /// `α = K⁻¹·y` (standardized targets).
    alpha: Vec<f64>,
    /// Cholesky factor of `K`.
    chol: Matrix,
    /// Selected length-scale.
    length_scale: f64,
    /// Selected signal variance (standardized space ⇒ ≈ 1).
    signal_var: f64,
    /// Selected noise variance.
    noise_var: f64,
    /// Diagonal jitter used at fit time (reused by [`Gp::extend`]).
    jitter: f64,
    scaler: Scaler,
    dim: usize,
    /// Log marginal likelihood at the selected hyperparameters.
    log_marginal: f64,
    /// Lazily converted f32 mirrors (x_flat, alpha) for the fast path.
    f32_cache: std::sync::OnceLock<(Vec<f32>, Vec<f32>)>,
}

impl Gp {
    /// Fit a GP to `data` with MLE hyperparameter selection.
    ///
    /// Returns `None` if the dataset is empty or the kernel matrix cannot
    /// be factorized for any candidate hyperparameters.
    pub fn fit(data: &Dataset, cfg: &GpConfig) -> Option<Gp> {
        if data.is_empty() {
            return None;
        }
        let scaler = Scaler::fit(&data.y);
        let y: Vec<f64> = data.y.iter().map(|v| scaler.transform(*v)).collect();
        let n = data.len();
        let mut best: Option<Gp> = None;
        // Coarse grid over (length_scale, noise); signal variance fixed at 1
        // in standardized target space, then refined around the winner.
        let mut candidates: Vec<(f64, f64)> = Vec::new();
        for &l in &cfg.length_scales {
            for &s in &cfg.noise_levels {
                candidates.push((l, s));
            }
        }
        for round in 0..2 {
            let mut round_best: Option<(f64, f64, f64)> = None; // (lml, l, noise)
            for &(l, s) in &candidates {
                if let Some((chol, alpha, lml)) = Self::factorize(&data.x, &y, l, s * s, cfg.jitter)
                {
                    if round_best.map(|(b, _, _)| lml > b).unwrap_or(true) {
                        round_best = Some((lml, l, s));
                        best = Some(Gp {
                            x_flat: data.x.iter().flatten().copied().collect(),
                            y_std: y.clone(),
                            alpha,
                            chol,
                            length_scale: l,
                            signal_var: 1.0,
                            noise_var: s * s,
                            jitter: cfg.jitter,
                            scaler,
                            dim: data.dim(),
                            log_marginal: lml,
                            f32_cache: std::sync::OnceLock::new(),
                        });
                    }
                }
            }
            // Refine once around the winner.
            if round == 0 {
                if let Some((_, l, s)) = round_best {
                    candidates = [0.7, 0.85, 1.0, 1.2, 1.4]
                        .iter()
                        .flat_map(|fl| {
                            [0.6, 1.0, 1.6].iter().map(move |fs| (l * fl, s * fs))
                        })
                        .collect();
                } else {
                    break;
                }
            }
            let _ = n;
        }
        best
    }

    /// Factorize the kernel matrix at the given hyperparameters; returns
    /// the Cholesky factor, `α`, and the log marginal likelihood.
    fn factorize(
        x: &[Vec<f64>],
        y: &[f64],
        length_scale: f64,
        noise_var: f64,
        jitter: f64,
    ) -> Option<(Matrix, Vec<f64>, f64)> {
        let n = x.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = se_kernel(&x[i], &x[j], length_scale, 1.0);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += noise_var + jitter;
        }
        let chol = k.cholesky()?;
        let alpha = chol.cholesky_solve(y);
        let data_fit: f64 = y.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let lml = -0.5 * data_fit
            - 0.5 * chol.log_det_from_cholesky()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Some((chol, alpha, lml))
    }

    /// Predictive mean and variance in *standardized* target space: the
    /// fused kernel computes the cross-kernel row and `kxᵀα` in one pass,
    /// and the variance path reuses the row for the triangular solve.
    fn predict_standardized(&self, x: &[f64]) -> (f64, f64) {
        let mut kx = Vec::new();
        let mean = crate::simd::se_cross_gram_f64(
            &self.x_flat,
            self.n_train(),
            self.dim,
            x,
            &self.alpha,
            self.length_scale,
            self.signal_var,
            &mut kx,
        );
        // var = k(x,x) - kxᵀ K⁻¹ kx, via v = L⁻¹ kx.
        let v = self.chol.solve_lower(&kx);
        let var = (self.signal_var - v.iter().map(|a| a * a).sum::<f64>()).max(1e-12);
        (mean, var)
    }

    /// The number of training points.
    pub fn n_train(&self) -> usize {
        self.alpha.len()
    }

    /// Incrementally absorb new observations **without refitting**: the
    /// hyperparameters and target scaler stay frozen and the Cholesky
    /// factor is grown one bordered row at a time via
    /// [`Matrix::cholesky_append_row`] — O(k·n²) for k new points against
    /// the O(n³) full refactorization (times the ~35-candidate grid) that
    /// [`Gp::fit`] pays. `α` is then re-solved against the grown factor.
    ///
    /// Returns `false` without modifying the model when the inputs are
    /// malformed (dimension mismatch) or a bordered matrix fails positive
    /// definiteness; the caller should fall back to a full [`Gp::fit`].
    pub fn extend(&mut self, new_x: &[Vec<f64>], new_y: &[f64]) -> bool {
        if new_x.len() != new_y.len() || new_x.iter().any(|x| x.len() != self.dim) {
            return false;
        }
        if new_x.is_empty() {
            return true;
        }
        // Stage everything on copies so a failed append cannot leave the
        // model half-extended.
        let mut chol = self.chol.clone();
        let mut x_flat = self.x_flat.clone();
        let mut n = self.n_train();
        let diag = self.signal_var + self.noise_var + self.jitter;
        for x in new_x {
            let mut cross = Vec::with_capacity(n);
            for i in 0..n {
                cross.push(se_kernel(&x_flat[i * self.dim..(i + 1) * self.dim], x, self.length_scale, self.signal_var));
            }
            if !chol.cholesky_append_row(&cross, diag) {
                return false;
            }
            x_flat.extend_from_slice(x);
            n += 1;
        }
        self.chol = chol;
        self.x_flat = x_flat;
        self.y_std.extend(new_y.iter().map(|&v| self.scaler.transform(v)));
        self.alpha = self.chol.cholesky_solve(&self.y_std);
        let data_fit: f64 = self.y_std.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        self.log_marginal = -0.5 * data_fit
            - 0.5 * self.chol.log_det_from_cholesky()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        self.f32_cache = std::sync::OnceLock::new();
        true
    }

    /// Single-precision batched mean — the opt-in fast path (see
    /// [`crate::precision`]): training block and `α` are narrowed to f32
    /// once and the fused cross-kernel + Gram product runs in f32. Serves
    /// means only; variance and gradients stay on the f64 path.
    pub fn predict_batch_f32(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        let (x32, a32) = self.f32_cache.get_or_init(|| {
            (
                self.x_flat.iter().map(|&v| v as f32).collect(),
                self.alpha.iter().map(|&v| v as f32).collect(),
            )
        });
        let n = self.n_train();
        let mut q = Vec::with_capacity(self.dim);
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            q.clear();
            q.extend(x.iter().map(|&v| v as f32));
            let mean = crate::simd::se_cross_gram_f32(
                x32,
                n,
                self.dim,
                &q,
                a32,
                self.length_scale as f32,
                self.signal_var as f32,
            );
            *o = self.scaler.inverse(mean as f64);
        }
    }

    /// The log marginal likelihood at the fitted hyperparameters.
    pub fn log_marginal(&self) -> f64 {
        self.log_marginal
    }

    /// The selected kernel length-scale.
    pub fn length_scale(&self) -> f64 {
        self.length_scale
    }

    /// The selected noise variance.
    pub fn noise_variance(&self) -> f64 {
        self.noise_var
    }
}

/// Squared-exponential kernel `σ²·exp(−‖a−b‖²/(2l²))`.
#[inline]
fn se_kernel(a: &[f64], b: &[f64], length_scale: f64, signal_var: f64) -> f64 {
    signal_var * (-0.5 * sq_dist(a, b) / (length_scale * length_scale)).exp()
}

impl udao_core::ObjectiveModel for Gp {
    fn dim(&self) -> usize {
        self.dim
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let (m, _) = self.predict_standardized(x);
        self.scaler.inverse(m)
    }

    fn predict_std(&self, x: &[f64]) -> f64 {
        let (_, v) = self.predict_standardized(x);
        v.sqrt() * self.scaler.std
    }

    /// Batched mean: the fused cross-kernel + Gram product runs per point
    /// against the flat training block with one reused row buffer —
    /// bitwise identical to scalar
    /// [`predict`](udao_core::ObjectiveModel::predict) calls, which route
    /// through the same fused kernel.
    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        let n = self.n_train();
        let mut kx = Vec::with_capacity(n);
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            let mean = crate::simd::se_cross_gram_f64(
                &self.x_flat,
                n,
                self.dim,
                x,
                &self.alpha,
                self.length_scale,
                self.signal_var,
                &mut kx,
            );
            *o = self.scaler.inverse(mean);
        }
    }

    /// Batched predictive std, sharing the cross-kernel buffer across the
    /// batch (the triangular solve per point is unavoidable).
    fn predict_std_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        let n = self.n_train();
        let mut kx = Vec::with_capacity(n);
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            crate::simd::se_cross_gram_f64(
                &self.x_flat,
                n,
                self.dim,
                x,
                &self.alpha,
                self.length_scale,
                self.signal_var,
                &mut kx,
            );
            let v = self.chol.solve_lower(&kx);
            let var = (self.signal_var - v.iter().map(|a| a * a).sum::<f64>()).max(1e-12);
            *o = var.sqrt() * self.scaler.std;
        }
    }

    /// Analytic mean gradient: `∂m/∂x = Σ_i α_i · k(x,x_i) · (x_i − x)/l²`,
    /// scaled back to the raw target scale.
    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        let inv_l2 = 1.0 / (self.length_scale * self.length_scale);
        for g in out.iter_mut() {
            *g = 0.0;
        }
        for (xi, alpha) in self.x_flat.chunks_exact(self.dim).zip(&self.alpha) {
            let k = se_kernel(x, xi, self.length_scale, self.signal_var);
            let c = alpha * k * inv_l2;
            for d in 0..x.len() {
                out[d] += c * (xi[d] - x[d]);
            }
        }
        for g in out.iter_mut() {
            *g *= self.scaler.std;
        }
    }

    /// Analytic std gradient: with `v = L⁻¹k_x` and `β = K⁻¹k_x`,
    /// `∂var/∂x = −2·βᵀ·∂k_x/∂x` and `∂std/∂x = ∂var/∂x / (2·std)`.
    fn std_gradient(&self, x: &[f64], out: &mut [f64]) {
        let kx: Vec<f64> = self
            .x_flat
            .chunks_exact(self.dim)
            .map(|xi| se_kernel(x, xi, self.length_scale, self.signal_var))
            .collect();
        let beta = self.chol.cholesky_solve(&kx);
        let v = self.chol.solve_lower(&kx);
        let var = (self.signal_var - v.iter().map(|a| a * a).sum::<f64>()).max(1e-12);
        let std = var.sqrt();
        let inv_l2 = 1.0 / (self.length_scale * self.length_scale);
        for g in out.iter_mut() {
            *g = 0.0;
        }
        for ((xi, k), b) in self.x_flat.chunks_exact(self.dim).zip(&kx).zip(&beta) {
            // ∂k(x,xi)/∂x_d = k · (xi_d − x_d)/l²
            let c = -2.0 * b * k * inv_l2;
            for d in 0..x.len() {
                out[d] += c * (xi[d] - x[d]);
            }
        }
        for g in out.iter_mut() {
            *g = *g / (2.0 * std) * self.scaler.std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao_core::ObjectiveModel;

    fn smooth_dataset(n: usize) -> Dataset {
        // y = sin(4x) + 2x over [0,1]
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| (4.0 * r[0]).sin() + 2.0 * r[0]).collect();
        Dataset::new(x, y)
    }

    #[test]
    fn gp_interpolates_training_points() {
        let d = smooth_dataset(20);
        let gp = Gp::fit(&d, &GpConfig::default()).unwrap();
        for (xi, yi) in d.x.iter().zip(&d.y) {
            let p = gp.predict(xi);
            assert!((p - yi).abs() < 0.15, "pred {p} truth {yi}");
        }
    }

    #[test]
    fn gp_generalizes_between_points() {
        let d = smooth_dataset(25);
        let gp = Gp::fit(&d, &GpConfig::default()).unwrap();
        let x = [0.37f64];
        let truth = (4.0 * x[0]).sin() + 2.0 * x[0];
        assert!((gp.predict(&x) - truth).abs() < 0.1, "{} vs {}", gp.predict(&x), truth);
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        // Train only on [0, 0.5]; extrapolation at 1.0 must be less certain.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.05]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let gp = Gp::fit(&Dataset::new(x, y), &GpConfig::default()).unwrap();
        let near = gp.predict_std(&[0.25]);
        let far = gp.predict_std(&[1.0]);
        assert!(far > near * 1.5, "near {near} far {far}");
    }

    #[test]
    fn analytic_gradients_match_finite_differences() {
        let d = smooth_dataset(15);
        let gp = Gp::fit(&d, &GpConfig::default()).unwrap();
        let x = [0.43];
        let mut g = [0.0];
        gp.gradient(&x, &mut g);
        let h = 1e-6;
        let fd = (gp.predict(&[x[0] + h]) - gp.predict(&[x[0] - h])) / (2.0 * h);
        assert!((g[0] - fd).abs() < 1e-4, "analytic {} vs fd {fd}", g[0]);

        let mut gs = [0.0];
        gp.std_gradient(&x, &mut gs);
        let fd = (gp.predict_std(&[x[0] + h]) - gp.predict_std(&[x[0] - h])) / (2.0 * h);
        assert!((gs[0] - fd).abs() < 1e-3, "analytic std {} vs fd {fd}", gs[0]);
    }

    #[test]
    fn empty_dataset_yields_none() {
        assert!(Gp::fit(&Dataset::default(), &GpConfig::default()).is_none());
    }

    #[test]
    fn multivariate_inputs_work() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 6) as f64 / 5.0, (i / 6) as f64 / 4.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 - r[1]).collect();
        let gp = Gp::fit(&Dataset::new(x, y), &GpConfig::default()).unwrap();
        let p = gp.predict(&[0.5, 0.5]);
        assert!((p - 0.5).abs() < 0.2, "pred {p}");
        assert_eq!(gp.dim(), 2);
    }

    #[test]
    fn batched_predictions_are_bitwise_identical_to_scalar() {
        let d = smooth_dataset(20);
        let gp = Gp::fit(&d, &GpConfig::default()).unwrap();
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let mut mean = vec![0.0; xs.len()];
        let mut std = vec![0.0; xs.len()];
        gp.predict_batch(&xs, &mut mean);
        gp.predict_std_batch(&xs, &mut std);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(gp.predict(x).to_bits(), mean[i].to_bits());
            assert_eq!(gp.predict_std(x).to_bits(), std[i].to_bits());
        }
    }

    #[test]
    fn extend_matches_full_refit_predictions() {
        // Fit on the first 15 points, extend with 5 more, and compare
        // against a GP factorized from scratch on all 20 points at the
        // *same* hyperparameters (extend freezes them, so pin the grid).
        let d = smooth_dataset(20);
        let head = Dataset::new(d.x[..15].to_vec(), d.y[..15].to_vec());
        let cfg = GpConfig {
            length_scales: vec![0.35],
            noise_levels: vec![0.05],
            ..Default::default()
        };
        let mut gp = Gp::fit(&head, &cfg).unwrap();
        let pinned = GpConfig {
            length_scales: vec![gp.length_scale()],
            noise_levels: vec![gp.noise_variance().sqrt()],
            ..cfg
        };
        assert!(gp.extend(&d.x[15..].to_vec(), &d.y[15..].to_vec()));
        assert_eq!(gp.n_train(), 20);

        // The refit standardizes targets over all 20 ys while extend keeps
        // the 15-point scaler, so compare in each model's own prediction
        // space — both should track the truth closely at interior points.
        let refit = Gp::fit(&d, &pinned).unwrap();
        for i in [2usize, 9, 13, 17] {
            let p_ext = gp.predict(&d.x[i]);
            let p_ref = refit.predict(&d.x[i]);
            assert!(
                (p_ext - p_ref).abs() < 0.05,
                "point {i}: extended {p_ext} vs refit {p_ref}"
            );
        }
        assert!(gp.log_marginal().is_finite());
    }

    #[test]
    fn extend_rejects_malformed_input_without_mutation() {
        let d = smooth_dataset(12);
        let mut gp = Gp::fit(&d, &GpConfig::default()).unwrap();
        let before = gp.predict(&[0.4]);
        assert!(!gp.extend(&[vec![0.1, 0.2]], &[1.0]), "dim mismatch must fail");
        assert!(!gp.extend(&[vec![0.1]], &[1.0, 2.0]), "length mismatch must fail");
        assert_eq!(gp.n_train(), 12);
        assert_eq!(gp.predict(&[0.4]).to_bits(), before.to_bits());
    }

    #[test]
    fn gp_f32_fast_path_tracks_f64_within_bound() {
        let d = smooth_dataset(25);
        let gp = Gp::fit(&d, &GpConfig::default()).unwrap();
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let mut f64_out = vec![0.0; xs.len()];
        let mut f32_out = vec![0.0; xs.len()];
        gp.predict_batch(&xs, &mut f64_out);
        gp.predict_batch_f32(&xs, &mut f32_out);
        for (a, b) in f64_out.iter().zip(&f32_out) {
            assert!((a - b).abs() <= 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn mle_picks_plausible_length_scale() {
        let d = smooth_dataset(25);
        let gp = Gp::fit(&d, &GpConfig::default()).unwrap();
        // sin(4x) varies on a ~0.4 scale; MLE should not pick extremes.
        assert!(gp.length_scale() > 0.05 && gp.length_scale() < 3.0);
        assert!(gp.noise_variance() > 0.0);
        assert!(gp.log_marginal().is_finite());
        assert_eq!(gp.n_train(), 25);
    }
}
