//! From-scratch multi-layer perceptrons with Adam training, analytic input
//! gradients, checkpointing, and deep-ensemble uncertainty.
//!
//! This substitutes the paper's PyTorch DNN models \[38\]: the MOGD solver
//! needs `Ψ(x)`, `∇ₓΨ(x)`, and (under uncertainty handling) `std[Ψ(x)]`
//! with its gradient — all provided here. Ensembles replace the paper's
//! MC-dropout Bayesian approximation \[9\]; both produce the
//! `E[F(x)] + α·std[F(x)]` interface that MOGD consumes, which is the only
//! property the optimizer relies on.

use crate::dataset::{Dataset, Scaler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// MLP architecture and training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer widths (the paper's largest model: 4 × 128).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 weight decay (the paper regularizes its DNN with an L2 loss).
    pub l2: f64,
    /// RNG seed for initialization and batching.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![64, 64],
            epochs: 300,
            batch_size: 32,
            learning_rate: 3e-3,
            l2: 1e-5,
            seed: 17,
        }
    }
}

/// Lazily built derived copy of a layer's weights: the column-major
/// (transposed) block every forward pass streams through. Derived data:
/// checkpoints store it as `null` and restores rebuild it on first use,
/// and training resets it after every optimizer step (the forward pass
/// reads weights exclusively through this cache, so a stale transpose
/// would silently serve the previous step's weights).
#[derive(Debug, Clone, Default)]
struct WtCache(std::sync::OnceLock<Vec<f64>>);

impl serde::Serialize for WtCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for WtCache {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(WtCache::default())
    }
}

/// One dense layer `y = W·x + b`, row-major weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layer {
    w: Vec<f64>,
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    wt: WtCache,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU networks.
        let scale = (2.0 / in_dim as f64).sqrt();
        let w = (0..in_dim * out_dim).map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale).collect();
        Self { w, b: vec![0.0; out_dim], in_dim, out_dim, wt: WtCache::default() }
    }

    /// The transposed weight block (`in_dim × out_dim`), computed once.
    fn transposed(&self) -> &[f64] {
        self.wt.0.get_or_init(|| crate::linalg::transpose(&self.w, self.out_dim, self.in_dim))
    }

    /// Single-point forward: the batched kernel with `n = 1`, so scalar
    /// and batched predictions share one code path (and one set of bits).
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        crate::linalg::affine_batch(x, 1, self.in_dim, self.transposed(), &self.b, out);
    }
}

/// A trained MLP regressor (scalar output, standardized internally).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Layer>,
    scaler: Scaler,
    dim: usize,
    cfg: MlpConfig,
    /// Final training MSE (standardized space) — exposed for diagnostics.
    pub train_mse: f64,
}

/// Adam state for one parameter vector.
#[derive(Debug, Clone, Default)]
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: i32,
}

impl Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) {
        if self.m.is_empty() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        self.t += 1;
        let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
        let bc1 = 1.0 - b1.powi(self.t);
        let bc2 = 1.0 - b2.powi(self.t);
        for i in 0..params.len() {
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * grads[i];
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * grads[i] * grads[i];
            params[i] -= lr * (self.m[i] / bc1) / ((self.v[i] / bc2).sqrt() + eps);
        }
    }
}

impl Mlp {
    /// Train a fresh MLP on `data`.
    pub fn fit(data: &Dataset, cfg: &MlpConfig) -> Option<Mlp> {
        if data.is_empty() {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dim = data.dim();
        let mut dims = vec![dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let layers: Vec<Layer> =
            dims.windows(2).map(|w| Layer::new(w[0], w[1], &mut rng)).collect();
        let mut mlp = Mlp {
            layers,
            scaler: Scaler::fit(&data.y),
            dim,
            cfg: cfg.clone(),
            train_mse: f64::INFINITY,
        };
        mlp.train(data, cfg.epochs, &mut rng);
        Some(mlp)
    }

    /// Incremental fine-tuning from the current weights (the model server's
    /// small-trace-update path, §V.3): a short continuation run on `data`.
    pub fn fine_tune(&mut self, data: &Dataset, epochs: usize) {
        if data.is_empty() || data.dim() != self.dim {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(0x9E3779B9));
        self.train(data, epochs, &mut rng);
    }

    fn train(&mut self, data: &Dataset, epochs: usize, rng: &mut StdRng) {
        let n = data.len();
        let y: Vec<f64> = data.y.iter().map(|v| self.scaler.transform(*v)).collect();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut adams: Vec<(Adam, Adam)> =
            self.layers.iter().map(|_| (Adam::default(), Adam::default())).collect();
        let mut grads_w: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut grads_b: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut last_mse = f64::INFINITY;
        for _epoch in 0..epochs {
            idx.shuffle(rng);
            let mut epoch_sse = 0.0;
            for batch in idx.chunks(self.cfg.batch_size.max(1)) {
                for gw in &mut grads_w {
                    gw.iter_mut().for_each(|g| *g = 0.0);
                }
                for gb in &mut grads_b {
                    gb.iter_mut().for_each(|g| *g = 0.0);
                }
                for &i in batch {
                    let (acts, pred) = self.forward_cached(&data.x[i]);
                    let err = pred - y[i];
                    epoch_sse += err * err;
                    self.backward(&acts, &data.x[i], 2.0 * err, &mut grads_w, &mut grads_b);
                }
                let scale = 1.0 / batch.len() as f64;
                for (li, layer) in self.layers.iter_mut().enumerate() {
                    for (g, w) in grads_w[li].iter_mut().zip(&layer.w) {
                        *g = *g * scale + self.cfg.l2 * w;
                    }
                    for g in grads_b[li].iter_mut() {
                        *g *= scale;
                    }
                    adams[li].0.step(&mut layer.w, &grads_w[li], self.cfg.learning_rate);
                    adams[li].1.step(&mut layer.b, &grads_b[li], self.cfg.learning_rate);
                    // The forward pass reads weights through the transpose
                    // cache, so it must be dropped on every step — not just
                    // at the end of training — or the next mini-batch would
                    // predict through the pre-step weights.
                    layer.wt = WtCache::default();
                }
            }
            last_mse = epoch_sse / n as f64;
        }
        self.train_mse = last_mse;
    }

    /// Forward pass caching post-activation values per layer; returns the
    /// activations and the (standardized) scalar prediction.
    fn forward_cached(&self, x: &[f64]) -> (Vec<Vec<f64>>, f64) {
        let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut cur = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = Vec::new();
            layer.forward(&cur, &mut z);
            if li + 1 < self.layers.len() {
                for v in &mut z {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(z.clone());
            cur = z;
        }
        let out = acts.last().unwrap()[0];
        (acts, out)
    }

    /// Backpropagate a scalar output gradient into weight/bias gradients.
    fn backward(
        &self,
        acts: &[Vec<f64>],
        x: &[f64],
        out_grad: f64,
        grads_w: &mut [Vec<f64>],
        grads_b: &mut [Vec<f64>],
    ) {
        let mut delta = vec![out_grad];
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let input: &[f64] = if li == 0 { x } else { &acts[li - 1] };
            for o in 0..layer.out_dim {
                grads_b[li][o] += delta[o];
                let row = &mut grads_w[li][o * layer.in_dim..(o + 1) * layer.in_dim];
                for (g, inp) in row.iter_mut().zip(input) {
                    *g += delta[o] * inp;
                }
            }
            if li > 0 {
                // delta_prev = Wᵀ·delta ⊙ relu'(act_prev)
                let mut prev = vec![0.0; layer.in_dim];
                for (d, row) in delta.iter().zip(layer.w.chunks_exact(layer.in_dim)) {
                    for (p, w) in prev.iter_mut().zip(row) {
                        *p += d * w;
                    }
                }
                for (p, a) in prev.iter_mut().zip(&acts[li - 1]) {
                    if *a <= 0.0 {
                        *p = 0.0; // ReLU subgradient
                    }
                }
                delta = prev;
            }
        }
    }

    /// Serialize the weights to a JSON checkpoint string (§V.3 "checkpoint
    /// the best model weights").
    pub fn checkpoint(&self) -> String {
        serde_json::to_string(self).expect("mlp serializes")
    }

    /// Restore a model from a checkpoint produced by [`Mlp::checkpoint`].
    pub fn restore(json: &str) -> Option<Mlp> {
        serde_json::from_str(json).ok()
    }
}

impl udao_core::ObjectiveModel for Mlp {
    fn dim(&self) -> usize {
        self.dim
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let (_, out) = self.forward_cached(x);
        self.scaler.inverse(out)
    }

    /// Vectorized forward pass: all points flow through each layer as one
    /// flat `n × width` buffer (ping-pong between two allocations), so the
    /// per-point `Vec` churn of the scalar path disappears. Accumulation
    /// order matches `Layer::forward` exactly, so results are bitwise
    /// identical to per-point [`predict`](udao_core::ObjectiveModel::predict) calls.
    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        let n = xs.len();
        if n == 0 {
            return;
        }
        let max_width =
            self.layers.iter().map(|l| l.out_dim).max().unwrap_or(1).max(self.dim);
        let mut cur: Vec<f64> = Vec::with_capacity(n * max_width);
        for x in xs {
            debug_assert_eq!(x.len(), self.dim);
            cur.extend_from_slice(x);
        }
        let mut next: Vec<f64> = Vec::with_capacity(n * max_width);
        let mut width = self.dim;
        let n_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            crate::linalg::affine_batch(&cur, n, width, layer.transposed(), &layer.b, &mut next);
            if li + 1 < n_layers {
                for v in &mut next {
                    *v = v.max(0.0); // ReLU
                }
            }
            std::mem::swap(&mut cur, &mut next);
            width = layer.out_dim;
        }
        debug_assert_eq!(width, 1);
        for (o, v) in out.iter_mut().zip(&cur) {
            *o = self.scaler.inverse(*v);
        }
    }

    /// Analytic input gradient via backpropagation to the inputs.
    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        let (acts, _) = self.forward_cached(x);
        let mut delta = vec![1.0];
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let mut prev = vec![0.0; layer.in_dim];
            for (d, row) in delta.iter().zip(layer.w.chunks_exact(layer.in_dim)) {
                for (p, w) in prev.iter_mut().zip(row) {
                    *p += d * w;
                }
            }
            if li > 0 {
                for (p, a) in prev.iter_mut().zip(&acts[li - 1]) {
                    if *a <= 0.0 {
                        *p = 0.0;
                    }
                }
            }
            delta = prev;
        }
        for (o, d) in out.iter_mut().zip(&delta) {
            *o = d * self.scaler.std;
        }
    }
}

/// Monte-Carlo-dropout wrapper: the paper's cited alternative to deep
/// ensembles for Bayesian uncertainty in DNNs \[9\]. At prediction time the
/// wrapped network is evaluated `samples` times with random Bernoulli
/// masks over its hidden activations; the sample mean and spread provide
/// `E[F(x)]` and `std[F(x)]`. Masks are derived deterministically from the
/// input, so predictions stay reproducible and MOGD's finite-difference
/// std-gradients remain meaningful.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McDropout {
    inner: Mlp,
    /// Dropout keep-probability for hidden units.
    pub keep_prob: f64,
    /// Monte-Carlo samples per prediction.
    pub samples: usize,
}

impl McDropout {
    /// Wrap a trained MLP with MC-dropout inference.
    pub fn new(inner: Mlp, keep_prob: f64, samples: usize) -> Self {
        Self { inner, keep_prob: keep_prob.clamp(0.05, 1.0), samples: samples.max(2) }
    }

    /// One stochastic forward pass with the given mask seed.
    fn stochastic_predict(&self, x: &[f64], mask_seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let mut cur = x.to_vec();
        let n_layers = self.inner.layers.len();
        for (li, layer) in self.inner.layers.iter().enumerate() {
            let mut z = Vec::new();
            layer.forward(&cur, &mut z);
            if li + 1 < n_layers {
                for v in &mut z {
                    *v = v.max(0.0);
                    // Inverted dropout: zero with prob 1-p, scale by 1/p.
                    if rng.gen::<f64>() > self.keep_prob {
                        *v = 0.0;
                    } else {
                        *v /= self.keep_prob;
                    }
                }
            }
            cur = z;
        }
        self.inner.scaler.inverse(cur[0])
    }

    /// Deterministic mask-seed family for an input point.
    fn mask_seed(x: &[f64], s: usize) -> u64 {
        let mut h = 0x6D43_D807u64 ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for v in x {
            // Quantize so neighboring points share masks (smooth surface).
            h = h.rotate_left(13) ^ ((v * 1e4).round() as i64 as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        }
        h
    }
}

impl udao_core::ObjectiveModel for McDropout {
    fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Mean over MC samples.
    fn predict(&self, x: &[f64]) -> f64 {
        let s: f64 =
            (0..self.samples).map(|s| self.stochastic_predict(x, Self::mask_seed(x, s))).sum();
        s / self.samples as f64
    }

    fn predict_std(&self, x: &[f64]) -> f64 {
        let preds: Vec<f64> = (0..self.samples)
            .map(|s| self.stochastic_predict(x, Self::mask_seed(x, s)))
            .collect();
        crate::linalg::std_dev(&preds)
    }

    /// Gradient of the deterministic mean network (the standard MC-dropout
    /// practice: optimize the expected network, sample for uncertainty).
    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        udao_core::ObjectiveModel::gradient(&self.inner, x, out)
    }
}

/// Bootstrap resample (with replacement) of a dataset.
fn bootstrap(data: &Dataset, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB007_57A9);
    let n = data.len();
    let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    Dataset::new(
        idx.iter().map(|&i| data.x[i].clone()).collect(),
        idx.iter().map(|&i| data.y[i]).collect(),
    )
}

/// A deep ensemble of MLPs: mean prediction, member-spread uncertainty,
/// and analytic gradients of both.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ensemble {
    members: Vec<Mlp>,
}

impl Ensemble {
    /// Train `k` members with distinct seeds on bootstrap resamples of the
    /// data (bagging): away from the data the members disagree, giving the
    /// spread that the `E[F] + α·std[F]` uncertainty handling relies on.
    pub fn fit(data: &Dataset, cfg: &MlpConfig, k: usize) -> Option<Ensemble> {
        if data.is_empty() || k == 0 {
            return None;
        }
        let members: Vec<Mlp> = (0..k)
            .filter_map(|i| {
                let seed = cfg.seed.wrapping_add(i as u64 * 1000 + 1);
                let cfg = MlpConfig { seed, ..cfg.clone() };
                let sample = if k > 1 { bootstrap(data, seed) } else { data.clone() };
                Mlp::fit(&sample, &cfg)
            })
            .collect();
        if members.is_empty() {
            None
        } else {
            Some(Ensemble { members })
        }
    }

    /// The ensemble members.
    pub fn members(&self) -> &[Mlp] {
        &self.members
    }

    /// Fine-tune every member on new data.
    pub fn fine_tune(&mut self, data: &Dataset, epochs: usize) {
        for m in &mut self.members {
            m.fine_tune(data, epochs);
        }
    }
}

impl udao_core::ObjectiveModel for Ensemble {
    fn dim(&self) -> usize {
        self.members[0].dim
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let s: f64 = self.members.iter().map(|m| udao_core::ObjectiveModel::predict(m, x)).sum();
        s / self.members.len() as f64
    }

    fn predict_std(&self, x: &[f64]) -> f64 {
        let preds: Vec<f64> =
            self.members.iter().map(|m| udao_core::ObjectiveModel::predict(m, x)).collect();
        crate::linalg::std_dev(&preds)
    }

    /// Batched mean: one vectorized pass per member, accumulated in the
    /// same member order as the scalar path.
    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        for o in out.iter_mut() {
            *o = 0.0;
        }
        let mut buf = vec![0.0; xs.len()];
        for m in &self.members {
            udao_core::ObjectiveModel::predict_batch(m, xs, &mut buf);
            for (o, v) in out.iter_mut().zip(&buf) {
                *o += v;
            }
        }
        let k = self.members.len() as f64;
        for o in out.iter_mut() {
            *o /= k;
        }
    }

    /// Batched spread: member predictions are gathered per point (member
    /// order preserved) and reduced with the same `std_dev` as the scalar
    /// path.
    fn predict_std_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        let k = self.members.len();
        let mut per_point = vec![0.0; xs.len() * k];
        let mut buf = vec![0.0; xs.len()];
        for (mi, m) in self.members.iter().enumerate() {
            udao_core::ObjectiveModel::predict_batch(m, xs, &mut buf);
            for (i, v) in buf.iter().enumerate() {
                per_point[i * k + mi] = *v;
            }
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = crate::linalg::std_dev(&per_point[i * k..(i + 1) * k]);
        }
    }

    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        for o in out.iter_mut() {
            *o = 0.0;
        }
        let mut g = vec![0.0; x.len()];
        for m in &self.members {
            udao_core::ObjectiveModel::gradient(m, x, &mut g);
            for (o, gi) in out.iter_mut().zip(&g) {
                *o += gi;
            }
        }
        let k = self.members.len() as f64;
        for o in out.iter_mut() {
            *o /= k;
        }
    }

    /// Analytic spread gradient: with member predictions `p_i` and their
    /// gradients `g_i`, `∂std/∂x = (mean(p·g) − mean(p)·mean(g)) / std`.
    fn std_gradient(&self, x: &[f64], out: &mut [f64]) {
        let k = self.members.len();
        let mut preds = Vec::with_capacity(k);
        let mut grads = Vec::with_capacity(k);
        for m in &self.members {
            preds.push(udao_core::ObjectiveModel::predict(m, x));
            let mut g = vec![0.0; x.len()];
            udao_core::ObjectiveModel::gradient(m, x, &mut g);
            grads.push(g);
        }
        let std = crate::linalg::std_dev(&preds).max(1e-12);
        let mean_p = crate::linalg::mean(&preds);
        for d in 0..x.len() {
            let mean_g = grads.iter().map(|g| g[d]).sum::<f64>() / k as f64;
            let mean_pg = preds.iter().zip(&grads).map(|(p, g)| p * g[d]).sum::<f64>() / k as f64;
            out[d] = (mean_pg - mean_p * mean_g) / std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udao_core::ObjectiveModel;

    fn quadratic_data(n: usize) -> Dataset {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 10.0 + 20.0 * (r[0] - 0.3) * (r[0] - 0.3)).collect();
        Dataset::new(x, y)
    }

    fn quick_cfg() -> MlpConfig {
        MlpConfig { hidden: vec![32, 32], epochs: 400, ..Default::default() }
    }

    #[test]
    fn mlp_learns_a_quadratic() {
        let d = quadratic_data(40);
        let m = Mlp::fit(&d, &quick_cfg()).unwrap();
        let mut max_err: f64 = 0.0;
        for (xi, yi) in d.x.iter().zip(&d.y) {
            max_err = max_err.max((m.predict(xi) - yi).abs());
        }
        assert!(max_err < 1.5, "max training error {max_err}");
    }

    #[test]
    fn analytic_input_gradient_matches_finite_differences() {
        let d = quadratic_data(40);
        let m = Mlp::fit(&d, &quick_cfg()).unwrap();
        for &x0 in &[0.2, 0.5, 0.8] {
            let mut g = [0.0];
            m.gradient(&[x0], &mut g);
            let h = 1e-6;
            let fd = (m.predict(&[x0 + h]) - m.predict(&[x0 - h])) / (2.0 * h);
            assert!((g[0] - fd).abs() < 1e-5 + fd.abs() * 1e-4, "x={x0}: {} vs {}", g[0], fd);
        }
    }

    #[test]
    fn checkpoints_round_trip() {
        let d = quadratic_data(20);
        let m = Mlp::fit(&d, &quick_cfg()).unwrap();
        let ck = m.checkpoint();
        let m2 = Mlp::restore(&ck).unwrap();
        for x in [[0.1], [0.6], [0.95]] {
            assert_eq!(m.predict(&x), m2.predict(&x));
        }
        assert!(Mlp::restore("{bad json").is_none());
    }

    #[test]
    fn fine_tune_improves_on_shifted_data() {
        let d = quadratic_data(30);
        let mut m = Mlp::fit(&d, &MlpConfig { epochs: 200, ..quick_cfg() }).unwrap();
        // The function shifts (new traces arrive): y' = y + 5.
        let shifted = Dataset::new(d.x.clone(), d.y.iter().map(|v| v + 5.0).collect());
        let before = crate::dataset::wmape(
            &shifted.y,
            &shifted.x.iter().map(|x| m.predict(x)).collect::<Vec<_>>(),
        );
        m.fine_tune(&shifted, 200);
        let after = crate::dataset::wmape(
            &shifted.y,
            &shifted.x.iter().map(|x| m.predict(x)).collect::<Vec<_>>(),
        );
        assert!(after < before, "fine-tune did not help: {before} -> {after}");
    }

    #[test]
    fn empty_data_is_rejected() {
        assert!(Mlp::fit(&Dataset::default(), &quick_cfg()).is_none());
        assert!(Ensemble::fit(&Dataset::default(), &quick_cfg(), 3).is_none());
        assert!(Ensemble::fit(&quadratic_data(5), &quick_cfg(), 0).is_none());
    }

    #[test]
    fn ensemble_mean_tracks_members_and_spread_is_positive() {
        let d = quadratic_data(25);
        let e = Ensemble::fit(&d, &MlpConfig { epochs: 150, ..quick_cfg() }, 3).unwrap();
        assert_eq!(e.members().len(), 3);
        let x = [0.4];
        let mean = e.predict(&x);
        let members: Vec<f64> = e.members().iter().map(|m| m.predict(&x)).collect();
        let expect = crate::linalg::mean(&members);
        assert!((mean - expect).abs() < 1e-12);
        assert!(e.predict_std(&x) >= 0.0);
    }

    #[test]
    fn ensemble_std_gradient_matches_finite_differences() {
        let d = quadratic_data(25);
        let e = Ensemble::fit(&d, &MlpConfig { epochs: 100, ..quick_cfg() }, 3).unwrap();
        let x0 = 0.45;
        let mut g = [0.0];
        e.std_gradient(&[x0], &mut g);
        let h = 1e-6;
        let fd = (e.predict_std(&[x0 + h]) - e.predict_std(&[x0 - h])) / (2.0 * h);
        assert!((g[0] - fd).abs() < 1e-4 + fd.abs() * 1e-3, "{} vs {}", g[0], fd);
    }

    #[test]
    fn mc_dropout_mean_tracks_the_network_and_spread_is_positive() {
        let d = quadratic_data(30);
        let mlp = Mlp::fit(&d, &MlpConfig { epochs: 250, ..quick_cfg() }).unwrap();
        let det = mlp.predict(&[0.4]);
        let mc = McDropout::new(mlp, 0.9, 24);
        let mean = mc.predict(&[0.4]);
        // With keep_prob near 1 the MC mean stays close to the
        // deterministic network.
        assert!((mean - det).abs() < 0.2 * det.abs().max(1.0), "{mean} vs {det}");
        assert!(mc.predict_std(&[0.4]) > 0.0);
    }

    #[test]
    fn mc_dropout_is_deterministic_per_input() {
        let d = quadratic_data(20);
        let mlp = Mlp::fit(&d, &MlpConfig { epochs: 120, ..quick_cfg() }).unwrap();
        let mc = McDropout::new(mlp, 0.8, 16);
        assert_eq!(mc.predict(&[0.3]), mc.predict(&[0.3]));
        assert_eq!(mc.predict_std(&[0.7]), mc.predict_std(&[0.7]));
    }

    #[test]
    fn lower_keep_prob_raises_uncertainty() {
        let d = quadratic_data(25);
        let mlp = Mlp::fit(&d, &MlpConfig { epochs: 150, ..quick_cfg() }).unwrap();
        let tight = McDropout::new(mlp.clone(), 0.95, 32).predict_std(&[0.5]);
        let loose = McDropout::new(mlp, 0.5, 32).predict_std(&[0.5]);
        assert!(loose > tight, "{loose} vs {tight}");
    }

    #[test]
    fn batched_predictions_are_bitwise_identical_to_scalar() {
        let d = quadratic_data(30);
        let m = Mlp::fit(&d, &MlpConfig { epochs: 150, ..quick_cfg() }).unwrap();
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let mut batched = vec![0.0; xs.len()];
        m.predict_batch(&xs, &mut batched);
        for (x, b) in xs.iter().zip(&batched) {
            assert_eq!(m.predict(x).to_bits(), b.to_bits());
        }

        let e = Ensemble::fit(&d, &MlpConfig { epochs: 80, ..quick_cfg() }, 3).unwrap();
        let mut mean = vec![0.0; xs.len()];
        let mut std = vec![0.0; xs.len()];
        e.predict_batch(&xs, &mut mean);
        e.predict_std_batch(&xs, &mut std);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(e.predict(x).to_bits(), mean[i].to_bits());
            assert_eq!(e.predict_std(x).to_bits(), std[i].to_bits());
        }
    }

    #[test]
    fn multivariate_mlp_gradient() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 8) as f64 / 7.0, (i / 8) as f64 / 7.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0).collect();
        let m = Mlp::fit(&Dataset::new(x, y), &quick_cfg()).unwrap();
        let mut g = [0.0, 0.0];
        m.gradient(&[0.5, 0.5], &mut g);
        assert!((g[0] - 3.0).abs() < 0.5, "g0 {}", g[0]);
        assert!((g[1] + 2.0).abs() < 0.5, "g1 {}", g[1]);
    }
}
