//! Multi-Objective Gradient Descent (MOGD) — the approximate CO solver of
//! §IV-B.
//!
//! MOGD solves each constrained optimization problem produced by a middle
//! point probe with a carefully crafted loss (Eq. 3): the target objective
//! is minimized inside its normalized constraint region, while every
//! objective outside its region contributes a quadratic pull towards the
//! region plus a constant penalty `P`. Gradients flow through the objective
//! models (analytic for the MLP/GP learners in `udao-model`, finite
//! differences otherwise); optimization uses Adam with multi-start, clamping
//! iterates into the `[0,1]^D` box. Under model uncertainty each objective
//! is replaced by the conservative estimate `E[F] + α·std[F]`.

use crate::budget::Budget;
use crate::error::{Error, Result};
use crate::objective::ObjectiveModel;
use crate::solver::{Bound, CoProblem, CoSolution, CoSolver, MooProblem};
use crate::{fnv_fold, FNV_OFFSET};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use udao_telemetry::{names, Counter, Histogram};

/// Tuning parameters for the MOGD solver.
#[derive(Debug, Clone)]
pub struct MogdConfig {
    /// Number of random restarts (§IV-B.1 multi-start); the box center is
    /// always tried in addition.
    pub multistarts: usize,
    /// Maximum Adam iterations per start.
    pub max_iters: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Extra penalty `P` of Eq. 3 for violated constraints.
    pub penalty: f64,
    /// Uncertainty factor α: objectives are optimized as `E[F] + α·std[F]`.
    pub alpha: f64,
    /// Relative constraint tolerance for declaring a solution feasible.
    pub tol: f64,
    /// Early-stop patience: iterations without loss improvement.
    pub patience: usize,
    /// Base RNG seed; per-problem seeds are derived deterministically.
    pub seed: u64,
    /// Warm-start points in `[0,1]^D` tried ahead of random restarts —
    /// the cross-request frontier cache seeds descent from previously
    /// Pareto-optimal configurations here. At most `multistarts` warm
    /// points are used (points with the wrong dimension are skipped);
    /// any remaining start slots fall back to random restarts, so an
    /// empty list (the default) reproduces pure random multi-start.
    pub warm_starts: Vec<Vec<f64>>,
}

impl Default for MogdConfig {
    fn default() -> Self {
        Self {
            multistarts: 8,
            max_iters: 120,
            learning_rate: 0.08,
            penalty: 100.0,
            alpha: 0.0,
            tol: 1e-3,
            patience: 20,
            seed: 0x0DA0,
            warm_starts: Vec::new(),
        }
    }
}

/// Pre-resolved telemetry handles so the Adam loop increments atomics
/// instead of re-resolving instrument names per iteration.
#[derive(Debug)]
struct MogdTelemetry {
    iterations: Arc<Counter>,
    restarts: Arc<Counter>,
    violations: Arc<Counter>,
    solves: Arc<Counter>,
    solve_seconds: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl Default for MogdTelemetry {
    fn default() -> Self {
        Self {
            iterations: udao_telemetry::counter(names::MOGD_ITERATIONS),
            restarts: udao_telemetry::counter(names::MOGD_RESTARTS),
            violations: udao_telemetry::counter(names::MOGD_VIOLATIONS),
            solves: udao_telemetry::counter(names::MOGD_SOLVES),
            solve_seconds: udao_telemetry::histogram(names::MOGD_SOLVE_SECONDS),
            cache_hits: udao_telemetry::counter(names::MODEL_CACHE_HITS),
            cache_misses: udao_telemetry::counter(names::MODEL_CACHE_MISSES),
        }
    }
}

/// Shard count for the memoization cache: enough to keep PF-AP workers off
/// each other's locks, small enough that clearing stays cheap.
const CACHE_SHARDS: usize = 8;
/// Per-shard entry cap. On overflow the shard is cleared wholesale
/// (generational eviction) — no LRU bookkeeping on the hot path, and the
/// total footprint stays bounded at `CACHE_SHARDS * CACHE_SHARD_CAP`
/// entries.
const CACHE_SHARD_CAP: usize = 8192;

/// Per-solver memoization of conservative objective values, keyed by the
/// exact configuration point. PF probes the same configurations over
/// and over (anchor points, cell middles, feasibility re-checks across
/// neighboring cells); memoizing the `k` conservative values per point
/// turns those repeats into lock-then-clone lookups.
struct MemoCache {
    shards: Vec<Mutex<HashMap<Vec<i64>, Vec<f64>>>>,
    /// Identity of the problem the cached values belong to: the data
    /// pointers of its objective models plus its dimension. Values never
    /// depend on the CO sub-problem, only on the models and α, so one
    /// fingerprint per [`MooProblem`] suffices.
    fingerprint: Mutex<Vec<usize>>,
}

impl Default for MemoCache {
    fn default() -> Self {
        Self {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            fingerprint: Mutex::new(Vec::new()),
        }
    }
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len: usize = self.shards.iter().map(|s| s.lock().len()).sum();
        f.debug_struct("MemoCache").field("entries", &len).finish()
    }
}

/// Exact cache key: every dimension contributes its full IEEE-754 bit
/// pattern, so two points share a key iff they are bitwise identical.
///
/// An earlier revision quantized coordinates to `2^-30` before keying;
/// distinct points straddling a rounding boundary then collided and one
/// silently received its neighbor's conservative values. PF's repeated
/// probes (anchors, cell middles, feasibility re-checks) are replayed with
/// bitwise-identical coordinates, so exact keys keep the same hit rate
/// while guaranteeing a hit is indistinguishable from a fresh evaluation.
fn cache_key(x: &[f64]) -> Vec<i64> {
    x.iter().map(|v| v.to_bits() as i64).collect()
}

impl MemoCache {
    fn shard_of(key: &[i64]) -> usize {
        let h = key.iter().fold(FNV_OFFSET, |h, v| fnv_fold(h, *v as u64));
        (h as usize) % CACHE_SHARDS
    }

    /// Clear the cache if `problem` is not the one the cached values were
    /// computed for. The model-generation stamp joins the pointer identity:
    /// a hot-swap can free an old model and allocate the new one at the
    /// same address (ABA), and without the generation the cache would
    /// replay values computed from the retired weights.
    fn sync_problem(&self, problem: &MooProblem) {
        let fp: Vec<usize> = problem
            .objectives
            .iter()
            .map(|m| Arc::as_ptr(m) as *const () as usize)
            .chain(std::iter::once(problem.dim))
            .chain(std::iter::once(problem.generation as usize))
            .collect();
        let mut cur = self.fingerprint.lock();
        if *cur != fp {
            *cur = fp;
            for s in &self.shards {
                s.lock().clear();
            }
        }
    }

    fn get(&self, key: &[i64]) -> Option<Vec<f64>> {
        self.shards[Self::shard_of(key)].lock().get(key).cloned()
    }

    fn insert(&self, key: Vec<i64>, values: Vec<f64>) {
        let mut s = self.shards[Self::shard_of(&key)].lock();
        if s.len() >= CACHE_SHARD_CAP {
            s.clear();
        }
        s.insert(key, values);
    }
}

/// The MOGD solver. Thread-safe: [`crate::pf`]'s parallel algorithm shares
/// one instance across worker threads — and with it the memoization cache,
/// so cells of one PF run reuse each other's model evaluations.
#[derive(Debug, Default)]
pub struct Mogd {
    cfg: MogdConfig,
    evals: AtomicUsize,
    tel: MogdTelemetry,
    cache: MemoCache,
}

impl Mogd {
    /// Create a solver with the given configuration.
    pub fn new(cfg: MogdConfig) -> Self {
        Self {
            cfg,
            evals: AtomicUsize::new(0),
            tel: MogdTelemetry::default(),
            cache: MemoCache::default(),
        }
    }

    /// The solver configuration.
    pub fn config(&self) -> &MogdConfig {
        &self.cfg
    }

    /// Evaluate the Eq. 3 loss at `x` for a CO problem — exposed so the
    /// loss surfaces of Fig. 3(c–f) can be regenerated. Value-only: no
    /// gradient is allocated or computed.
    pub fn loss(&self, problem: &MooProblem, co: &CoProblem, x: &[f64]) -> f64 {
        let xs = [x.to_vec()];
        let values = self.batch_values(problem, &xs);
        self.loss_with_values(problem, co, x, &values[0], None)
    }

    /// Conservative objective values `E[F_j] + α·std[F_j]` for every
    /// objective at every point of `xs`, served through the memoization
    /// cache. Misses are deduplicated within the batch and evaluated with
    /// one `predict_batch` call per objective; only all-finite results are
    /// memoized, so transiently poisoned regions are re-probed.
    fn batch_values(&self, problem: &MooProblem, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let k = problem.num_objectives();
        let n = xs.len();
        self.cache.sync_problem(problem);
        let keys: Vec<Vec<i64>> = xs.iter().map(|x| cache_key(x)).collect();
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(n);
        // point index -> slot among the unique misses (usize::MAX = hit).
        let mut slot_of: Vec<usize> = vec![usize::MAX; n];
        let mut pending: HashMap<&[i64], usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if let Some(v) = self.cache.get(key) {
                self.tel.cache_hits.inc();
                out.push(v);
                continue;
            }
            out.push(Vec::new());
            match pending.get(key.as_slice()) {
                Some(&slot) => {
                    // In-batch duplicate: evaluation avoided, count a hit.
                    self.tel.cache_hits.inc();
                    slot_of[i] = slot;
                }
                None => {
                    self.tel.cache_misses.inc();
                    pending.insert(key.as_slice(), unique.len());
                    slot_of[i] = unique.len();
                    unique.push(i);
                }
            }
        }
        if unique.is_empty() {
            return out;
        }
        let miss_xs: Vec<Vec<f64>> = unique.iter().map(|&i| xs[i].clone()).collect();
        let mut miss_values: Vec<Vec<f64>> = vec![vec![0.0; k]; unique.len()];
        let mut buf = vec![0.0; unique.len()];
        let mut std_buf = vec![0.0; unique.len()];
        for j in 0..k {
            let m = problem.objectives[j].as_ref();
            m.predict_batch(&miss_xs, &mut buf);
            if self.cfg.alpha != 0.0 {
                m.predict_std_batch(&miss_xs, &mut std_buf);
                for (b, s) in buf.iter_mut().zip(&std_buf) {
                    *b += self.cfg.alpha * *s;
                }
            }
            for (vals, v) in miss_values.iter_mut().zip(&buf) {
                vals[j] = *v;
            }
        }
        self.evals.fetch_add(unique.len() * k, Ordering::Relaxed);
        for (slot, &i) in unique.iter().enumerate() {
            if miss_values[slot].iter().all(|v| v.is_finite()) {
                self.cache.insert(keys[i].clone(), miss_values[slot].clone());
            }
        }
        for i in 0..n {
            if slot_of[i] != usize::MAX {
                out[i] = miss_values[slot_of[i]].clone();
            }
        }
        out
    }

    /// Gradient of the conservative objective.
    fn grad(&self, m: &dyn ObjectiveModel, x: &[f64], out: &mut [f64]) {
        m.gradient(x, out);
        if self.cfg.alpha != 0.0 {
            let mut gs = vec![0.0; x.len()];
            m.std_gradient(x, &mut gs);
            for (o, g) in out.iter_mut().zip(&gs) {
                *o += self.cfg.alpha * g;
            }
        }
    }

    /// Accumulate `c · ∇F̃_j(x)` into `out`.
    fn accum_grad(
        &self,
        problem: &MooProblem,
        j: usize,
        x: &[f64],
        c: f64,
        gj: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        if gj.len() != x.len() {
            gj.resize(x.len(), 0.0);
        }
        self.grad(problem.objectives[j].as_ref(), x, gj);
        for (go, g) in out.iter_mut().zip(gj.iter()) {
            *go += c * g;
        }
    }

    /// Eq. 3 loss at `x` given precomputed conservative objective `values`,
    /// optionally with its gradient with respect to `x`.
    ///
    /// Bounded objectives are normalized to `F̃_j ∈ [0,1]`; the target
    /// contributes `F̃_i²` inside its region, and any objective outside its
    /// region contributes `(F̃_j − ½)² + P`. Unbounded (`Bound::FREE`)
    /// objectives contribute the raw value for the target and nothing as
    /// constraints, recovering plain single-objective optimization.
    ///
    /// Passing `grad_out: None` is the value-only path: no gradient buffer
    /// is touched and no gradient model calls are made.
    fn loss_with_values(
        &self,
        problem: &MooProblem,
        co: &CoProblem,
        x: &[f64],
        values: &[f64],
        mut grad_out: Option<&mut [f64]>,
    ) -> f64 {
        let k = problem.num_objectives();
        if let Some(g) = grad_out.as_deref_mut() {
            for gi in g.iter_mut() {
                *gi = 0.0;
            }
        }
        let mut loss = 0.0;
        let mut gj: Vec<f64> = Vec::new();
        for (j, &fj) in values.iter().enumerate().take(k) {
            let b = effective_bound(co, problem, j);
            if !fj.is_finite() {
                // Poisoned region: huge loss, no usable gradient.
                return f64::INFINITY;
            }
            if b.is_finite() {
                let width = (b.hi - b.lo).max(1e-12);
                let ft = (fj - b.lo) / width; // normalized objective F̃_j
                let in_region = (0.0..=1.0).contains(&ft);
                if j == co.target && in_region {
                    // Target term: F̃_i² pushes the target down inside the box.
                    loss += ft * ft;
                    if let Some(gout) = grad_out.as_deref_mut() {
                        self.accum_grad(problem, j, x, 2.0 * ft / width, &mut gj, gout);
                    }
                } else if !in_region {
                    // Constraint term: pull back into the region, plus penalty P.
                    self.tel.violations.inc();
                    loss += (ft - 0.5) * (ft - 0.5) + self.cfg.penalty;
                    if let Some(gout) = grad_out.as_deref_mut() {
                        self.accum_grad(problem, j, x, 2.0 * (ft - 0.5) / width, &mut gj, gout);
                    }
                }
            } else if j == co.target {
                // Unbounded target: minimize the raw objective.
                loss += fj;
                if let Some(gout) = grad_out.as_deref_mut() {
                    self.accum_grad(problem, j, x, 1.0, &mut gj, gout);
                }
            } else if b.lo.is_finite() || b.hi.is_finite() {
                // Half-open constraint: penalize only the violated side.
                let (violated, dist) = if b.lo.is_finite() && fj < b.lo {
                    (true, fj - b.lo)
                } else if b.hi.is_finite() && fj > b.hi {
                    (true, fj - b.hi)
                } else {
                    (false, 0.0)
                };
                if violated {
                    self.tel.violations.inc();
                    loss += dist * dist + self.cfg.penalty;
                    if let Some(gout) = grad_out.as_deref_mut() {
                        self.accum_grad(problem, j, x, 2.0 * dist, &mut gj, gout);
                    }
                }
            }
        }
        // General inequality constraints g(x) ≤ 0 (§IV-B extension):
        // quadratic pull plus the P penalty while violated.
        for g_model in &problem.inequalities {
            let gv = g_model.predict(x);
            if gv > 0.0 {
                self.tel.violations.inc();
                loss += gv * gv + self.cfg.penalty;
                if let Some(gout) = grad_out.as_deref_mut() {
                    if gj.len() != x.len() {
                        gj.resize(x.len(), 0.0);
                    }
                    g_model.gradient(x, &mut gj);
                    let c = 2.0 * gv;
                    for (go, g) in gout.iter_mut().zip(&gj) {
                        *go += c * g;
                    }
                }
            }
        }
        loss
    }

    /// Run every multistart of one CO problem in lockstep: per Adam
    /// iteration, one [`Mogd::batch_values`] call covers the loss
    /// evaluation of all still-active restarts, so batch-capable models see
    /// restart-count batches instead of single points. Each restart keeps
    /// its own Adam state and deactivates independently (patience,
    /// non-finite loss); the shared iteration index `t` equals each
    /// restart's own iteration count, so the per-restart trajectories are
    /// identical to running them sequentially.
    ///
    /// The budget is polled once per batched iteration (the first is
    /// exempt); on expiry the best feasible point found so far stands.
    fn descend_batch(
        &self,
        problem: &MooProblem,
        co: &CoProblem,
        starts: &[Vec<f64>],
        budget: &Budget,
    ) -> Option<CoSolution> {
        struct Restart {
            x: Vec<f64>,
            m: Vec<f64>,
            v: Vec<f64>,
            best: Option<CoSolution>,
            best_loss: f64,
            stale: usize,
            active: bool,
        }
        let d = problem.dim;
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        let mut restarts: Vec<Restart> = starts
            .iter()
            .map(|x0| Restart {
                x: x0.clone(),
                m: vec![0.0; d],
                v: vec![0.0; d],
                best: None,
                best_loss: f64::INFINITY,
                stale: 0,
                active: true,
            })
            .collect();
        let mut g = vec![0.0; d];
        for t in 1..=self.cfg.max_iters {
            if t > 1 && budget.expired() {
                break;
            }
            let active: Vec<usize> =
                (0..restarts.len()).filter(|&i| restarts[i].active).collect();
            if active.is_empty() {
                break;
            }
            self.tel.iterations.add(active.len() as u64);
            let xs: Vec<Vec<f64>> = active.iter().map(|&i| restarts[i].x.clone()).collect();
            let values = self.batch_values(problem, &xs);
            for (slot, &i) in active.iter().enumerate() {
                let loss = self.loss_with_values(
                    problem,
                    co,
                    &restarts[i].x,
                    &values[slot],
                    Some(&mut g),
                );
                let improved = loss.is_finite() && loss < restarts[i].best_loss - 1e-12;
                if improved {
                    restarts[i].best_loss = loss;
                    restarts[i].stale = 0;
                    if let Some(sol) = self.feasible_solution(problem, co, &restarts[i].x) {
                        match &restarts[i].best {
                            Some(b) if b.f[co.target] <= sol.f[co.target] => {}
                            _ => restarts[i].best = Some(sol),
                        }
                    }
                } else {
                    restarts[i].stale += 1;
                    if restarts[i].stale > self.cfg.patience {
                        restarts[i].active = false;
                        continue;
                    }
                }
                if !loss.is_finite() {
                    restarts[i].active = false;
                    continue;
                }
                // Adam update, projected onto the [0,1] box. `t` is this
                // restart's own iteration count (active since t = 1).
                let st = &mut restarts[i];
                for (q, &gq) in g.iter().enumerate().take(d) {
                    st.m[q] = b1 * st.m[q] + (1.0 - b1) * gq;
                    st.v[q] = b2 * st.v[q] + (1.0 - b2) * gq * gq;
                    let mh = st.m[q] / (1.0 - b1.powi(t as i32));
                    let vh = st.v[q] / (1.0 - b2.powi(t as i32));
                    st.x[q] =
                        (st.x[q] - self.cfg.learning_rate * mh / (vh.sqrt() + eps)).clamp(0.0, 1.0);
                }
            }
        }
        // Final iterates may be the best feasible points; merge per restart,
        // then across restarts in start order (center first) so ties keep
        // the sequential solver's winner.
        let mut best: Option<CoSolution> = None;
        for st in &restarts {
            let mut candidate = st.best.clone();
            if let Some(sol) = self.feasible_solution(problem, co, &st.x) {
                match &candidate {
                    Some(b) if b.f[co.target] <= sol.f[co.target] => {}
                    _ => candidate = Some(sol),
                }
            }
            if let Some(sol) = candidate {
                match &best {
                    Some(b) if b.f[co.target] <= sol.f[co.target] => {}
                    _ => best = Some(sol),
                }
            }
        }
        best
    }

    /// Evaluate `x` (through the memoization cache — right after a loss
    /// evaluation this is a guaranteed hit); return it as a solution iff
    /// all constraints hold.
    fn feasible_solution(
        &self,
        problem: &MooProblem,
        co: &CoProblem,
        x: &[f64],
    ) -> Option<CoSolution> {
        if !problem.inequalities_satisfied(x, self.cfg.tol) {
            return None;
        }
        let xs = [x.to_vec()];
        let values = self.batch_values(problem, &xs);
        let f = &values[0];
        for (j, fj) in f.iter().enumerate() {
            if !fj.is_finite() {
                return None;
            }
            let b = effective_bound(co, problem, j);
            if !b.satisfied(*fj, self.cfg.tol) {
                return None;
            }
        }
        Some(CoSolution { x: x.to_vec(), f: f.clone() })
    }
}

/// Intersection of the CO bound and the problem's global constraint for
/// objective `j`.
fn effective_bound(co: &CoProblem, problem: &MooProblem, j: usize) -> Bound {
    let a = co.bounds[j];
    let b = problem.constraints[j];
    Bound { lo: a.lo.max(b.lo), hi: a.hi.min(b.hi) }
}

impl CoSolver for Mogd {
    fn solve(&self, problem: &MooProblem, co: &CoProblem) -> Result<Option<CoSolution>> {
        self.solve_within(problem, co, &Budget::unlimited())
    }

    fn solve_within(
        &self,
        problem: &MooProblem,
        co: &CoProblem,
        budget: &Budget,
    ) -> Result<Option<CoSolution>> {
        if co.target >= problem.num_objectives() {
            return Err(Error::NoSuchObjective(co.target));
        }
        if co.bounds.len() != problem.num_objectives() {
            return Err(Error::DimensionMismatch {
                expected: problem.num_objectives(),
                got: co.bounds.len(),
            });
        }
        // Deterministic per-problem seed so identical probes reproduce.
        let mut h = self.cfg.seed;
        for b in &co.bounds {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(b.lo.to_bits());
            h = h.wrapping_mul(0x100000001b3).wrapping_add(b.hi.to_bits());
        }
        let mut rng = StdRng::seed_from_u64(h);

        let solve_started = Instant::now();
        let d = problem.dim;
        // Center start plus random restarts, all descending in lockstep
        // (one batched model evaluation per Adam iteration). The first
        // iteration is deadline-exempt, so even an expired budget yields an
        // answer when the center is feasible; the random restarts are
        // dropped up front in that case to keep the degraded path minimal.
        let mut starts: Vec<Vec<f64>> = Vec::with_capacity(self.cfg.multistarts + 1);
        starts.push(vec![0.5; d]);
        if !budget.expired() {
            // Warm starts (cached Pareto configurations) claim start slots
            // ahead of random restarts; the RNG still derives from the same
            // per-problem seed, so runs with an identical warm list replay.
            for w in self
                .cfg
                .warm_starts
                .iter()
                .filter(|w| w.len() == d && w.iter().all(|v| v.is_finite()))
                .take(self.cfg.multistarts)
            {
                starts.push(w.iter().map(|v| v.clamp(0.0, 1.0)).collect());
            }
            while starts.len() < self.cfg.multistarts + 1 {
                starts.push((0..d).map(|_| rng.gen::<f64>()).collect());
            }
        }
        self.tel.restarts.add(starts.len() as u64);
        let best = self.descend_batch(problem, co, &starts, budget);
        self.tel.solves.inc();
        self.tel.solve_seconds.record_duration(solve_started.elapsed());
        Ok(best)
    }

    fn last_evals(&self) -> Option<usize> {
        Some(self.evals.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnModel;
    use std::sync::Arc;

    fn toy_problem() -> MooProblem {
        // Smooth, conflicting 2-objective problem over 2 knobs.
        // latency falls with total "cores" x0*x1; cost rises with it.
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 100.0 + 200.0 / (0.1 + x[0] * x[1] * 4.0)));
        let cost: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 8.0 + 16.0 * (x[0] * x[1]).min(1.0)));
        MooProblem::new(2, vec![lat, cost])
    }

    #[test]
    fn unconstrained_minimum_matches_exact_grid() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig::default());
        let sol = mogd.solve(&p, &CoProblem::unconstrained(0, 2)).unwrap().expect("feasible");
        // latency minimized at x0 = x1 = 1.
        let exact = 100.0 + 200.0 / 4.1;
        assert!(
            (sol.f[0] - exact).abs() < 1.0,
            "mogd found {}, exact {}",
            sol.f[0],
            exact
        );
    }

    #[test]
    fn constrained_solution_is_feasible_and_near_optimal() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig::default());
        // minimize latency subject to cost in [8, 16] => x0*x1 <= 0.5
        let co = CoProblem::constrained(0, vec![Bound::new(100.0, 260.0), Bound::new(8.0, 16.0)]);
        let sol = mogd.solve(&p, &co).unwrap().expect("feasible");
        assert!(sol.f[1] <= 16.0 + 0.1, "cost {}", sol.f[1]);
        assert!(sol.f[0] <= 260.0 + 0.5, "latency {}", sol.f[0]);
        // Optimum: x0*x1 = 0.5 => latency = 100 + 200/2.1 ≈ 195.2
        assert!(sol.f[0] < 205.0, "latency {} too far from optimum 195.2", sol.f[0]);
    }

    #[test]
    fn infeasible_box_returns_none() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig::default());
        // cost <= 7 is impossible (cost >= 8).
        let co = CoProblem::constrained(0, vec![Bound::FREE, Bound::new(0.0, 7.0)]);
        assert_eq!(mogd.solve(&p, &co).unwrap(), None);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig::default());
        let co = CoProblem::constrained(0, vec![Bound::new(100.0, 260.0), Bound::new(8.0, 16.0)]);
        let a = mogd.solve(&p, &co).unwrap();
        let b = mogd.solve(&p, &co).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn respects_global_problem_constraints() {
        let p = toy_problem().with_constraints(vec![Bound::FREE, Bound::new(8.0, 12.0)]);
        let mogd = Mogd::new(MogdConfig::default());
        let sol = mogd.solve(&p, &CoProblem::unconstrained(0, 2)).unwrap().expect("feasible");
        assert!(sol.f[1] <= 12.0 + 0.1, "global cost cap violated: {}", sol.f[1]);
    }

    #[test]
    fn uncertainty_alpha_makes_estimates_conservative() {
        struct Noisy;
        impl ObjectiveModel for Noisy {
            fn dim(&self) -> usize {
                1
            }
            fn predict(&self, x: &[f64]) -> f64 {
                x[0]
            }
            fn predict_std(&self, _: &[f64]) -> f64 {
                1.0
            }
        }
        let p = MooProblem::new(1, vec![Arc::new(Noisy) as Arc<dyn ObjectiveModel>]);
        let plain = Mogd::new(MogdConfig { alpha: 0.0, ..Default::default() });
        let cons = Mogd::new(MogdConfig { alpha: 2.0, ..Default::default() });
        let f0 = plain.solve(&p, &CoProblem::unconstrained(0, 1)).unwrap().unwrap().f[0];
        let f2 = cons.solve(&p, &CoProblem::unconstrained(0, 1)).unwrap().unwrap().f[0];
        assert!((f2 - f0 - 2.0).abs() < 1e-6, "conservative offset: {} vs {}", f2, f0);
    }

    #[test]
    fn inequality_constraints_are_enforced() {
        // g(x) = x0 + x1 - 1 <= 0: the solution must stay under the
        // anti-diagonal even though latency wants x0 = x1 = 1.
        let p = toy_problem().with_inequality(Arc::new(FnModel::new(2, |x| x[0] + x[1] - 1.0)));
        let mogd = Mogd::new(MogdConfig::default());
        let sol = mogd.solve(&p, &CoProblem::unconstrained(0, 2)).unwrap().expect("feasible");
        assert!(
            sol.x[0] + sol.x[1] <= 1.0 + 1e-3,
            "g violated: {} + {}",
            sol.x[0],
            sol.x[1]
        );
        // Optimum on the constraint boundary: x0*x1 maximized at 0.25.
        let best = 100.0 + 200.0 / (0.1 + 0.25 * 4.0);
        assert!(sol.f[0] < best + 8.0, "latency {} vs boundary optimum {}", sol.f[0], best);
    }

    #[test]
    fn impossible_inequality_yields_none() {
        let p = toy_problem().with_inequality(Arc::new(FnModel::new(2, |_| 1.0)));
        let mogd = Mogd::new(MogdConfig::default());
        assert_eq!(mogd.solve(&p, &CoProblem::unconstrained(0, 2)).unwrap(), None);
    }

    #[test]
    fn eval_counter_increases() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig::default());
        let before = mogd.last_evals().unwrap();
        mogd.solve(&p, &CoProblem::unconstrained(0, 2)).unwrap();
        assert!(mogd.last_evals().unwrap() > before);
    }

    #[test]
    fn wrong_bounds_arity_is_an_error() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig::default());
        let co = CoProblem { target: 0, bounds: vec![Bound::FREE] };
        assert!(mogd.solve(&p, &co).is_err());
    }

    /// A model with an analytic gradient that counts how many scalar
    /// predictions it serves (finite-difference models probe `predict`
    /// from the gradient path, which is deliberately not memoized).
    struct CountingModel(std::sync::atomic::AtomicUsize);

    impl ObjectiveModel for CountingModel {
        fn dim(&self) -> usize {
            2
        }
        fn predict(&self, x: &[f64]) -> f64 {
            self.0.fetch_add(1, Ordering::Relaxed);
            (x[0] - 0.3) * (x[0] - 0.3) + (x[1] - 0.6) * (x[1] - 0.6)
        }
        fn gradient(&self, x: &[f64], out: &mut [f64]) {
            out[0] = 2.0 * (x[0] - 0.3);
            out[1] = 2.0 * (x[1] - 0.6);
        }
    }

    #[test]
    fn memo_cache_eliminates_repeat_evaluations() {
        let counter: Arc<CountingModel> = Arc::new(CountingModel(AtomicUsize::new(0)));
        let p = MooProblem::new(2, vec![counter.clone() as Arc<dyn ObjectiveModel>]);
        let mogd = Mogd::new(MogdConfig::default());
        let co = CoProblem::unconstrained(0, 1);
        let a = mogd.solve(&p, &co).unwrap();
        let after_first = counter.0.load(Ordering::Relaxed);
        assert!(after_first > 0);
        // The repeated solve probes exactly the same points (deterministic
        // seed): every evaluation is a cache hit.
        let b = mogd.solve(&p, &co).unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), after_first, "second solve hit the model");
        assert_eq!(a, b);
    }

    #[test]
    fn memo_cache_resets_when_the_problem_changes() {
        let mogd = Mogd::new(MogdConfig::default());
        let p1 = MooProblem::new(1, vec![
            Arc::new(FnModel::new(1, |x: &[f64]| x[0])) as Arc<dyn ObjectiveModel>,
        ]);
        let p2 = MooProblem::new(1, vec![
            Arc::new(FnModel::new(1, |x: &[f64]| 1.0 - x[0])) as Arc<dyn ObjectiveModel>,
        ]);
        let co = CoProblem::unconstrained(0, 1);
        let s1 = mogd.solve(&p1, &co).unwrap().expect("p1 feasible");
        assert!(s1.x[0] < 0.1, "p1 minimizes at 0, got {}", s1.x[0]);
        // Stale p1 values under the same keys would drag p2's solution
        // toward 0; the fingerprint reset must prevent that.
        let s2 = mogd.solve(&p2, &co).unwrap().expect("p2 feasible");
        assert!(s2.x[0] > 0.9, "p2 minimizes at 1, got {}", s2.x[0]);
        assert!(s2.f[0] < 0.1, "p2 value is fresh, got {}", s2.f[0]);
    }

    #[test]
    fn memo_cache_resets_when_the_model_generation_changes() {
        let counter: Arc<CountingModel> = Arc::new(CountingModel(AtomicUsize::new(0)));
        let mogd = Mogd::new(MogdConfig::default());
        let co = CoProblem::unconstrained(0, 1);
        // Same model Arc (same address — simulating a hot-swap that reused
        // a retired model's allocation), different generation stamps.
        let p1 = MooProblem::new(2, vec![counter.clone() as Arc<dyn ObjectiveModel>])
            .with_generation(1);
        let p2 = MooProblem::new(2, vec![counter.clone() as Arc<dyn ObjectiveModel>])
            .with_generation(2);
        mogd.solve(&p1, &co).unwrap();
        let after_first = counter.0.load(Ordering::Relaxed);
        // A new generation must invalidate, forcing fresh evaluations even
        // though every pointer in the fingerprint is unchanged.
        mogd.solve(&p2, &co).unwrap();
        assert!(
            counter.0.load(Ordering::Relaxed) > after_first,
            "generation bump must invalidate the memo cache"
        );
        // Same generation again: back to pure cache hits.
        let hits_baseline = counter.0.load(Ordering::Relaxed);
        mogd.solve(&p2, &co).unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), hits_baseline);
    }

    #[test]
    fn value_only_loss_matches_the_descent_loss() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig::default());
        let co = CoProblem::constrained(0, vec![Bound::new(100.0, 260.0), Bound::new(8.0, 16.0)]);
        for x in [[0.1, 0.2], [0.5, 0.5], [0.9, 0.9]] {
            let loss = mogd.loss(&p, &co, &x);
            // Recompute through the gradient path; values must agree.
            let values = mogd.batch_values(&p, &[x.to_vec()]);
            let mut g = vec![0.0; 2];
            let with_grad = mogd.loss_with_values(&p, &co, &x, &values[0], Some(&mut g));
            assert_eq!(loss, with_grad);
            assert!(g.iter().any(|v| *v != 0.0), "gradient at {x:?} is all-zero");
        }
    }

    #[test]
    fn cache_key_distinguishes_points_straddling_a_rounding_boundary() {
        // Regression: the old quantized key (round to 2^-30) collided for
        // distinct points closer than half a quantum, so the second point
        // silently received the first one's cached values.
        let probe: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(1, |x: &[f64]| x[0] * 1.0e9));
        let p = MooProblem::new(1, vec![probe.clone()]);
        let mogd = Mogd::new(MogdConfig::default());
        let a: f64 = 0.5;
        let b: f64 = 0.5 + 2f64.powi(-32); // same key as `a` under the old scheme
        assert_ne!(a.to_bits(), b.to_bits());
        // Evaluate `a` first so a collision would serve its cached values.
        let va = mogd.batch_values(&p, &[vec![a]]);
        let vb = mogd.batch_values(&p, &[vec![b]]);
        assert_eq!(va[0][0].to_bits(), probe.predict(&[a]).to_bits());
        assert_eq!(vb[0][0].to_bits(), probe.predict(&[b]).to_bits(), "served neighbor's value");
        assert_ne!(va[0][0].to_bits(), vb[0][0].to_bits());
    }

    #[test]
    fn warm_starts_seed_descent_and_keep_determinism() {
        let p = toy_problem();
        let co = CoProblem::constrained(0, vec![Bound::new(100.0, 260.0), Bound::new(8.0, 16.0)]);
        let cold = Mogd::new(MogdConfig::default());
        let reference = cold.solve(&p, &co).unwrap().expect("feasible");
        // Seed descent from the cold optimum (plus a junk-dimension point,
        // which must be skipped): the warm solver may only match or beat it.
        let cfg = MogdConfig {
            warm_starts: vec![vec![0.1], reference.x.clone()],
            ..Default::default()
        };
        let warm = Mogd::new(cfg);
        let a = warm.solve(&p, &co).unwrap().expect("feasible");
        assert!(a.f[co.target] <= reference.f[co.target] + 1e-9);
        // Warm-started solves replay deterministically too.
        let b = warm.solve(&p, &co).unwrap().expect("feasible");
        assert_eq!(a, b);
    }

    mod memo_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any cache hit is bitwise-equal to a fresh model evaluation:
            /// populate the cache at arbitrary points (including pairs
            /// closer than the old quantization step), then re-evaluate and
            /// compare against the uncached model directly.
            #[test]
            fn cache_hits_are_bitwise_equal_to_fresh_evaluations(
                base in prop::collection::vec(0.0f64..1.0, 4),
                nudge_sel in 0usize..3,
            ) {
                let p = toy_problem();
                let mogd = Mogd::new(MogdConfig::default());
                // Nudges below the old 2^-30 quantum stress the boundary
                // cases that used to collide.
                let nudge = [0.0f64, 2f64.powi(-33), 2f64.powi(-31)][nudge_sel];
                let near: Vec<f64> =
                    base.iter().map(|v| (v + nudge).min(1.0)).collect();
                let points = vec![
                    vec![base[0], base[1]],
                    vec![near[0], near[1]],
                    vec![base[2], base[3]],
                ];
                // First pass populates; second pass must hit.
                let first = mogd.batch_values(&p, &points);
                let second = mogd.batch_values(&p, &points);
                for (x, (fresh_pass, hit_pass)) in
                    points.iter().zip(first.iter().zip(&second))
                {
                    for j in 0..p.num_objectives() {
                        let fresh = p.objectives[j].predict(x);
                        prop_assert_eq!(fresh_pass[j].to_bits(), fresh.to_bits());
                        prop_assert_eq!(hit_pass[j].to_bits(), fresh.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn batched_values_match_scalar_predictions() {
        let p = toy_problem();
        let mogd = Mogd::new(MogdConfig { alpha: 0.0, ..Default::default() });
        let xs: Vec<Vec<f64>> = vec![
            vec![0.1, 0.9],
            vec![0.5, 0.5],
            vec![0.5, 0.5], // in-batch duplicate
            vec![0.99, 0.01],
        ];
        let values = mogd.batch_values(&p, &xs);
        for (x, vals) in xs.iter().zip(&values) {
            for (j, v) in vals.iter().enumerate() {
                assert_eq!(*v, p.objectives[j].predict(x));
            }
        }
        assert_eq!(values[1], values[2]);
    }
}
