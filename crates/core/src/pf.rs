//! Progressive Frontier algorithms (§III–IV): PF-S, PF-AS, and PF-AP.
//!
//! All three variants share the Iterative-Middle-Point-Probes skeleton of
//! Algorithm 1: compute per-objective reference points to form the initial
//! Utopia/Nadir hyperrectangle, then repeatedly pop the largest-volume
//! rectangle from a priority queue and probe its middle point by solving a
//! constrained optimization (CO) problem. They differ in the CO solver and
//! in how many probes run concurrently:
//!
//! * **PF-S** — deterministic sequential, exact lattice CO solver (the
//!   paper's Knitro stand-in). Exact but slow; reference implementation.
//! * **PF-AS** — approximate sequential: the MOGD solver (§IV-B) replaces
//!   the exact solver.
//! * **PF-AP** — approximate parallel: each popped rectangle is partitioned
//!   into an `l^k` grid and the per-cell CO problems are solved
//!   simultaneously by a pool of worker threads.
//!
//! Every run records a per-probe history (elapsed wall-clock, uncertain
//! space fraction, frontier size) for the Fig. 4/5 experiments, and PF runs
//! are *incremental and consistent*: the frontier after `n` probes is a
//! subset (up to dominance) of the frontier after `n' > n` probes — the
//! property NSGA-II lacks (Fig. 4(e)).
//!
//! ## Resilience
//!
//! Every variant accepts a [`Budget`] ([`ProgressiveFrontier::solve_within`]):
//! the probe loop polls the deadline cooperatively and, once it passes,
//! returns the best-so-far frontier with [`PfRun::degraded`] set instead of
//! overrunning. In PF-AP each per-cell CO solve additionally runs under
//! `catch_unwind`, so one poisoned subproblem (a model panicking on some
//! input region) is logged, counted in [`PfRun::skipped_probes`], and
//! skipped — not fatal to the run.

use crate::budget::Budget;
use crate::error::{Error, Result};
use crate::hyperrect::{Rect, RectQueue};
use crate::mogd::{Mogd, MogdConfig};
use crate::pareto::{pareto_filter, ParetoPoint};
use crate::solver::{Bound, CoProblem, CoSolution, CoSolver, ExactGridSolver, MooProblem};
use std::panic::AssertUnwindSafe;
use std::time::Instant;
use udao_telemetry::names;

/// Which Progressive Frontier algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfVariant {
    /// PF-S: deterministic sequential with the exact lattice solver.
    Sequential,
    /// PF-AS: approximate sequential with the MOGD solver.
    ApproxSequential,
    /// PF-AP: approximate parallel with the MOGD solver.
    ApproxParallel,
}

/// Options shared by the PF variants.
#[derive(Debug, Clone)]
pub struct PfOptions {
    /// MOGD solver configuration (PF-AS / PF-AP).
    pub mogd: MogdConfig,
    /// Lattice resolution of the exact solver (PF-S).
    pub exact_resolution: usize,
    /// Grid subdivisions per objective dimension for PF-AP (`l` in §IV-C);
    /// each popped rectangle spawns `l^k` concurrent CO problems.
    pub grid_l: usize,
    /// Worker threads for PF-AP (0 = available parallelism).
    pub threads: usize,
    /// Degenerate-rectangle cutoff: rectangles whose volume falls below
    /// this fraction of the initial volume are not re-queued.
    pub min_volume_frac: f64,
    /// Hard cap on CO probes per run (0 = unlimited). Bounds the wall
    /// clock when the attainable frontier has fewer distinct points than
    /// requested — without it the loop grinds through thousands of
    /// near-degenerate rectangles before the queue drains.
    pub max_probes: usize,
}

impl PfOptions {
    /// The constraint tolerance `variant`'s CO solver accepts points at:
    /// the exact lattice solver's under PF-S, MOGD's otherwise. Seed
    /// frontiers are filtered against a new problem at this tolerance, so
    /// a resumed run keeps only points that pass its own probes' test.
    pub fn accept_tol(&self, variant: PfVariant) -> f64 {
        match variant {
            PfVariant::Sequential => ExactGridSolver::default().tol,
            PfVariant::ApproxSequential | PfVariant::ApproxParallel => self.mogd.tol,
        }
    }
}

impl Default for PfOptions {
    fn default() -> Self {
        Self {
            mogd: MogdConfig::default(),
            exact_resolution: 32,
            grid_l: 2,
            threads: 0,
            min_volume_frac: 1e-6,
            max_probes: 256,
        }
    }
}

/// One entry of the probe-by-probe history of a PF run.
#[derive(Debug, Clone, PartialEq)]
pub struct PfSnapshot {
    /// Wall-clock seconds since the run started.
    pub elapsed: f64,
    /// CO problems solved so far.
    pub probes: usize,
    /// Fraction of the initial Utopia–Nadir volume still uncertain.
    pub uncertain_frac: f64,
    /// Pareto points found so far (before final filtering).
    pub frontier_len: usize,
}

/// Result of a Progressive Frontier run.
#[derive(Debug, Clone)]
pub struct PfRun {
    /// The Pareto frontier (dominance-filtered).
    pub frontier: Vec<ParetoPoint>,
    /// Initial Utopia point (componentwise best of the reference points).
    pub utopia: Vec<f64>,
    /// Initial Nadir point (componentwise worst of the reference points).
    pub nadir: Vec<f64>,
    /// Total CO problems solved.
    pub probes: usize,
    /// Per-probe history.
    pub history: Vec<PfSnapshot>,
    /// Whether the run was cut short (expired [`Budget`]) or lost probes to
    /// isolated worker panics — the frontier is valid but may be coarser
    /// than requested.
    pub degraded: bool,
    /// Probes abandoned because the CO solve panicked (PF-AP isolation).
    pub skipped_probes: usize,
    /// Rectangles still uncertain when the run stopped (largest first) —
    /// the bookkeeping a [`PfSeed`] resumes from.
    pub uncertain: Vec<Rect>,
    /// Volume of the run's *original* Utopia–Nadir box (carried through
    /// seeded resumes so uncertain-space fractions stay comparable).
    pub initial_volume: f64,
}

impl PfRun {
    /// Final uncertain-space fraction (0 when the queue drained).
    pub fn final_uncertainty(&self) -> f64 {
        self.history.last().map(|s| s.uncertain_frac).unwrap_or(1.0)
    }

    /// Capture this run's outcome as warm-start state for a later run on
    /// the same (or a near-identical) problem.
    pub fn seed(&self) -> PfSeed {
        PfSeed {
            frontier: self.frontier.clone(),
            utopia: self.utopia.clone(),
            nadir: self.nadir.clone(),
            uncertain: self.uncertain.clone(),
            initial_volume: self.initial_volume,
        }
    }
}

/// Warm-start state for a PF run, captured from a previous run via
/// [`PfRun::seed`] — the cross-request frontier cache's near-hit path.
/// A seeded run skips the per-objective anchor solves (the seed frontier
/// already spans the Utopia–Nadir box) and resumes probing from the
/// recorded uncertain rectangles instead of the full box.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PfSeed {
    /// Previously found Pareto points (configurations and objective values).
    pub frontier: Vec<ParetoPoint>,
    /// Utopia point of the run the seed was captured from.
    pub utopia: Vec<f64>,
    /// Nadir point of the run the seed was captured from.
    pub nadir: Vec<f64>,
    /// Uncertain rectangles left when the captured run stopped.
    pub uncertain: Vec<Rect>,
    /// The captured run's original Utopia–Nadir volume.
    pub initial_volume: f64,
}

impl PfSeed {
    /// Whether this seed is usable for a `k`-objective problem: a seed
    /// must carry at least one Pareto point and dimensionally consistent
    /// corners and rectangles, or the run falls back to a cold start.
    pub fn usable_for(&self, k: usize) -> bool {
        !self.frontier.is_empty()
            && self.utopia.len() == k
            && self.nadir.len() == k
            && self.frontier.iter().all(|p| p.f.len() == k)
            && self.uncertain.iter().all(|r| r.dim() == k)
    }

    /// Whether any seed point satisfies `problem`'s value constraints within
    /// `tol`. A seed whose every point violates them (a near hit whose
    /// bounds tightened past the whole cached frontier) has nothing to
    /// resume from and is treated as absent.
    pub fn fits(&self, problem: &MooProblem, tol: f64) -> bool {
        self.frontier.iter().any(|p| problem.feasible(&p.f, tol))
    }

    /// The seed's Pareto configurations — what MOGD multi-start warms from
    /// (see `MogdConfig::warm_starts`).
    pub fn pareto_configs(&self) -> Vec<Vec<f64>> {
        self.frontier.iter().map(|p| p.x.clone()).collect()
    }
}

/// Mutable probe-loop state, assembled cold (anchors + full Utopia–Nadir
/// root) or warm (seed frontier + saved uncertain rectangles).
struct PfState {
    frontier: Vec<ParetoPoint>,
    utopia: Vec<f64>,
    nadir: Vec<f64>,
    queue: RectQueue,
    initial_volume: f64,
    probes: usize,
}

impl PfState {
    fn from_anchors(plans: Vec<CoSolution>, utopia: Vec<f64>, nadir: Vec<f64>) -> Self {
        let probes = plans.len();
        let frontier = plans.into_iter().map(|p| ParetoPoint::new(p.x, p.f)).collect();
        let root = Rect::new(utopia.clone(), nadir.clone());
        let initial_volume = root.volume();
        let mut queue = RectQueue::new();
        if initial_volume > 0.0 {
            queue.push(root);
        }
        Self { frontier, utopia, nadir, queue, initial_volume, probes }
    }

    /// Resume from `seed`, keeping only the seed points that satisfy
    /// `problem`'s value constraints within `tol`: the seed may come from a
    /// nearby request with looser bounds.
    fn from_seed(seed: &PfSeed, problem: &MooProblem, tol: f64) -> Self {
        udao_telemetry::counter(names::PF_SEEDED_RUNS).inc();
        let mut queue = RectQueue::new();
        for r in &seed.uncertain {
            queue.push(r.clone());
        }
        let initial_volume = if seed.initial_volume > 0.0 {
            seed.initial_volume
        } else {
            Rect::new(seed.utopia.clone(), seed.nadir.clone()).volume()
        };
        Self {
            frontier: pareto_filter(
                seed.frontier.iter().filter(|p| problem.feasible(&p.f, tol)).cloned().collect(),
            ),
            utopia: seed.utopia.clone(),
            nadir: seed.nadir.clone(),
            queue,
            initial_volume,
            probes: 0,
        }
    }
}

/// The Progressive Frontier driver.
pub struct ProgressiveFrontier {
    variant: PfVariant,
    opts: PfOptions,
}

impl ProgressiveFrontier {
    /// Create a driver for the given variant.
    pub fn new(variant: PfVariant, opts: PfOptions) -> Self {
        Self { variant, opts }
    }

    /// Convenience constructor for the recommended online variant (PF-AP).
    pub fn recommended() -> Self {
        Self::new(PfVariant::ApproxParallel, PfOptions::default())
    }

    /// Compute (at least) `n_points` Pareto points, or run until the
    /// uncertain space is exhausted, whichever comes first. Unlimited
    /// budget; see [`ProgressiveFrontier::solve_within`].
    pub fn solve(&self, problem: &MooProblem, n_points: usize) -> Result<PfRun> {
        self.solve_within(problem, n_points, &Budget::unlimited())
    }

    /// Like [`ProgressiveFrontier::solve`], but cooperatively checks
    /// `budget` throughout: when the deadline passes mid-run, the
    /// best-so-far frontier is returned with [`PfRun::degraded`] set. Only
    /// when the deadline fires before any Pareto point exists does this
    /// return [`Error::Timeout`].
    pub fn solve_within(
        &self,
        problem: &MooProblem,
        n_points: usize,
        budget: &Budget,
    ) -> Result<PfRun> {
        self.solve_seeded_within(problem, n_points, budget, None)
    }

    /// Like [`ProgressiveFrontier::solve_within`], but optionally resumed
    /// from a [`PfSeed`]: the anchor solves are skipped and probing starts
    /// from the seed's uncertain rectangles. Seed points outside the
    /// problem's value constraints are dropped; a seed that fails
    /// [`PfSeed::usable_for`] or keeps no point ([`PfSeed::fits`]) is
    /// ignored and the run starts cold.
    pub fn solve_seeded_within(
        &self,
        problem: &MooProblem,
        n_points: usize,
        budget: &Budget,
        seed: Option<&PfSeed>,
    ) -> Result<PfRun> {
        udao_telemetry::counter(names::PF_RUNS).inc();
        let tol = self.opts.accept_tol(self.variant);
        let seed = seed.filter(|s| s.usable_for(problem.num_objectives()) && s.fits(problem, tol));
        let run = match self.variant {
            PfVariant::Sequential => {
                let solver = ExactGridSolver::new(self.opts.exact_resolution);
                self.run_sequential(problem, n_points, &solver, budget, seed)
            }
            PfVariant::ApproxSequential => {
                let solver = Mogd::new(self.opts.mogd.clone());
                self.run_sequential(problem, n_points, &solver, budget, seed)
            }
            PfVariant::ApproxParallel => self.run_parallel(problem, n_points, budget, seed),
        }?;
        // Per-run aggregates: how many probes this run cost, how much of
        // the Utopia–Nadir volume it left uncertain, and what it lost to
        // isolated panics — the quantities Fig. 4/5 plot over time.
        udao_telemetry::counter(names::PF_PROBES).add(run.probes as u64);
        udao_telemetry::counter(names::PF_SKIPPED_PROBES).add(run.skipped_probes as u64);
        udao_telemetry::histogram(names::PF_UNCERTAIN_FRAC).record(run.final_uncertainty());
        Ok(run)
    }

    /// Compute the per-objective reference points (`plan_i` of Algorithm 1,
    /// line 2) and the initial Utopia/Nadir corners.
    fn anchors(
        &self,
        problem: &MooProblem,
        solver: &dyn CoSolver,
        budget: &Budget,
    ) -> Result<(Vec<CoSolution>, Vec<f64>, Vec<f64>)> {
        let k = problem.num_objectives();
        let mut plans = Vec::with_capacity(k);
        for i in 0..k {
            let co = CoProblem::unconstrained(i, k);
            match solver.solve_within(problem, &co, budget)? {
                Some(sol) => plans.push(sol),
                None if budget.expired() => return Err(budget.timeout_error()),
                None => {
                    return Err(Error::Infeasible(format!(
                        "no feasible configuration minimizes objective {i}"
                    )))
                }
            }
        }
        let mut utopia = plans[0].f.clone();
        let mut nadir = plans[0].f.clone();
        for p in &plans[1..] {
            for d in 0..k {
                utopia[d] = utopia[d].min(p.f[d]);
                nadir[d] = nadir[d].max(p.f[d]);
            }
        }
        Ok((plans, utopia, nadir))
    }

    fn run_sequential(
        &self,
        problem: &MooProblem,
        n_points: usize,
        solver: &dyn CoSolver,
        budget: &Budget,
        seed: Option<&PfSeed>,
    ) -> Result<PfRun> {
        let start = Instant::now();
        let state = match seed {
            Some(s) => PfState::from_seed(s, problem, self.opts.accept_tol(self.variant)),
            None => {
                let (plans, utopia, nadir) = self.anchors(problem, solver, budget)?;
                PfState::from_anchors(plans, utopia, nadir)
            }
        };
        let PfState { mut frontier, utopia, nadir, mut queue, initial_volume, mut probes } = state;
        let mut history = Vec::new();
        let min_volume = initial_volume * self.opts.min_volume_frac;
        let cell_seconds = udao_telemetry::histogram(names::PF_CELL_SOLVE_SECONDS);
        let snapshot = |queue: &RectQueue, probes: usize, frontier_len: usize, start: &Instant| {
            PfSnapshot {
                elapsed: start.elapsed().as_secs_f64(),
                probes,
                uncertain_frac: if initial_volume > 0.0 {
                    (queue.total_volume() / initial_volume).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                frontier_len,
            }
        };
        history.push(snapshot(&queue, probes, frontier.len(), &start));
        let mut degraded = false;

        while frontier.len() < n_points
            && (self.opts.max_probes == 0 || probes < self.opts.max_probes)
        {
            if budget.expired() {
                degraded = true;
                break;
            }
            let Some(rect) = queue.pop() else { break };
            let middle = rect.middle();
            // Middle point probe (Eq. 2): minimize objective 0 inside
            // [lo, middle] of every objective.
            let bounds: Vec<Bound> = rect
                .lo
                .iter()
                .zip(&middle)
                .map(|(l, m)| Bound::new(*l, *m))
                .collect();
            let co = CoProblem::constrained(0, bounds);
            probes += 1;
            let probe_started = Instant::now();
            let probe_result = solver.solve_within(problem, &co, budget);
            cell_seconds.record_duration(probe_started.elapsed());
            match probe_result? {
                Some(sol) => {
                    for cell in rect.subdivide(&sol.f) {
                        if cell.volume() > min_volume {
                            queue.push(cell);
                        }
                    }
                    insert_nondominated(&mut frontier, ParetoPoint::new(sol.x, sol.f));
                }
                None => {
                    // The [lo, middle] cell is proven empty; re-queue the rest.
                    for cell in subdivide_after_empty_probe(&rect, &middle) {
                        if cell.volume() > min_volume {
                            queue.push(cell);
                        }
                    }
                }
            }
            history.push(snapshot(&queue, probes, frontier.len(), &start));
        }

        Ok(PfRun {
            frontier: pareto_filter(frontier),
            utopia,
            nadir,
            probes,
            history,
            degraded,
            skipped_probes: 0,
            uncertain: queue.into_rects(),
            initial_volume,
        })
    }

    fn run_parallel(
        &self,
        problem: &MooProblem,
        n_points: usize,
        budget: &Budget,
        seed: Option<&PfSeed>,
    ) -> Result<PfRun> {
        let start = Instant::now();
        let k = problem.num_objectives();
        let solver = Mogd::new(self.opts.mogd.clone());
        let threads = if self.opts.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            self.opts.threads
        };

        let state = match seed {
            Some(s) => PfState::from_seed(s, problem, self.opts.accept_tol(self.variant)),
            None => {
                // Anchor COs in parallel; each solve is panic-isolated so a
                // poisoned model turns into a typed error, not a dead scope.
                let anchor_results: Vec<Result<Option<CoSolution>>> =
                    parallel_map(threads, (0..k).collect(), |i| {
                        isolated_solve(&solver, problem, &CoProblem::unconstrained(i, k), budget)
                    })?;
                let mut plans = Vec::with_capacity(k);
                for (i, r) in anchor_results.into_iter().enumerate() {
                    match r? {
                        Some(sol) => plans.push(sol),
                        None if budget.expired() => return Err(budget.timeout_error()),
                        None => {
                            return Err(Error::Infeasible(format!(
                                "no feasible configuration minimizes objective {i}"
                            )))
                        }
                    }
                }
                let mut utopia = plans[0].f.clone();
                let mut nadir = plans[0].f.clone();
                for p in &plans[1..] {
                    for d in 0..k {
                        utopia[d] = utopia[d].min(p.f[d]);
                        nadir[d] = nadir[d].max(p.f[d]);
                    }
                }
                PfState::from_anchors(plans, utopia, nadir)
            }
        };
        let PfState { mut frontier, utopia, nadir, mut queue, initial_volume, mut probes } = state;
        let mut history = Vec::new();
        let min_volume = initial_volume * self.opts.min_volume_frac;
        history.push(PfSnapshot {
            elapsed: start.elapsed().as_secs_f64(),
            probes,
            uncertain_frac: if initial_volume > 0.0 {
                (queue.total_volume() / initial_volume).clamp(0.0, 1.0)
            } else {
                0.0
            },
            frontier_len: frontier.len(),
        });

        let mut degraded = false;
        let mut skipped_probes = 0usize;

        while frontier.len() < n_points
            && (self.opts.max_probes == 0 || probes < self.opts.max_probes)
        {
            if budget.expired() {
                degraded = true;
                break;
            }
            let Some(rect) = queue.pop() else { break };
            // Partition the rectangle into an l^k grid of cells (§IV-C).
            let cells = grid_cells(&rect, self.opts.grid_l, k);
            // Solve all cell probes simultaneously. Each solve runs under
            // catch_unwind: a panicking subproblem must not poison the
            // sibling probes of this round.
            let cell_seconds = udao_telemetry::histogram(names::PF_CELL_SOLVE_SECONDS);
            let results: Vec<(Rect, Result<Option<CoSolution>>)> =
                parallel_map(threads, cells, |cell| {
                    let middle = cell.middle();
                    let bounds: Vec<Bound> = cell
                        .lo
                        .iter()
                        .zip(&middle)
                        .map(|(l, m)| Bound::new(*l, *m))
                        .collect();
                    let cell_started = Instant::now();
                    let r =
                        isolated_solve(&solver, problem, &CoProblem::constrained(0, bounds), budget);
                    cell_seconds.record_duration(cell_started.elapsed());
                    (cell, r)
                })?;
            for (cell, result) in results {
                probes += 1;
                match result {
                    Err(Error::WorkerPanicked(msg)) => {
                        // Poisoned subrectangle: log, drop the cell (its
                        // solve is deterministic — retrying would panic
                        // again), and mark the run degraded.
                        eprintln!("pf-ap: skipping cell after solver panic: {msg}");
                        skipped_probes += 1;
                        degraded = true;
                    }
                    Err(e) => return Err(e),
                    Ok(Some(sol)) => {
                        for sub in cell.subdivide(&sol.f) {
                            if sub.volume() > min_volume {
                                queue.push(sub);
                            }
                        }
                        insert_nondominated(&mut frontier, ParetoPoint::new(sol.x, sol.f));
                    }
                    Ok(None) => {
                        let middle = cell.middle();
                        for sub in subdivide_after_empty_probe(&cell, &middle) {
                            if sub.volume() > min_volume {
                                queue.push(sub);
                            }
                        }
                    }
                }
            }
            history.push(PfSnapshot {
                elapsed: start.elapsed().as_secs_f64(),
                probes,
                uncertain_frac: if initial_volume > 0.0 {
                    (queue.total_volume() / initial_volume).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                frontier_len: frontier.len(),
            });
        }

        Ok(PfRun {
            frontier: pareto_filter(frontier),
            utopia,
            nadir,
            probes,
            history,
            degraded,
            skipped_probes,
            uncertain: queue.into_rects(),
            initial_volume,
        })
    }
}

/// Render a `catch_unwind` payload as a readable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one CO solve under `catch_unwind`, converting a panic into
/// [`Error::WorkerPanicked`] so the caller can skip the poisoned subproblem.
fn isolated_solve(
    solver: &dyn CoSolver,
    problem: &MooProblem,
    co: &CoProblem,
    budget: &Budget,
) -> Result<Option<CoSolution>> {
    std::panic::catch_unwind(AssertUnwindSafe(|| solver.solve_within(problem, co, budget)))
        .unwrap_or_else(|payload| Err(Error::WorkerPanicked(panic_message(payload.as_ref()))))
}

/// Partition `rect` into an `l^k` grid of equal cells.
///
/// Boundary cells are snapped exactly onto the parent rect's edges:
/// computing the top edge as `lo + l·step` can land strictly below
/// `rect.hi[d]` in floating point, leaving an uncovered sliver of
/// uncertain space that would violate the PF coverage invariant. Interior
/// edges are shared verbatim between neighbors (same expression on both
/// sides), so the cells tile the rectangle exactly.
fn grid_cells(rect: &Rect, l: usize, k: usize) -> Vec<Rect> {
    let l = l.max(1);
    let total = l.pow(k as u32);
    let mut cells = Vec::with_capacity(total);
    for idx in 0..total {
        let mut rem = idx;
        let mut lo = Vec::with_capacity(k);
        let mut hi = Vec::with_capacity(k);
        for d in 0..k {
            let cell = rem % l;
            rem /= l;
            let step = (rect.hi[d] - rect.lo[d]) / l as f64;
            lo.push(if cell == 0 {
                rect.lo[d]
            } else {
                rect.lo[d] + cell as f64 * step
            });
            hi.push(if cell == l - 1 {
                rect.hi[d]
            } else {
                rect.lo[d] + (cell + 1) as f64 * step
            });
        }
        let cell = Rect { lo, hi };
        if cell.volume() > 0.0 {
            cells.push(cell);
        }
    }
    cells
}

/// After a middle-point probe of `rect` proves its `[lo, middle]` cell has
/// no feasible point (Proposition A.4, empty case), return the remaining
/// `2^k − 1` cells that stay uncertain.
fn subdivide_after_empty_probe(rect: &Rect, middle: &[f64]) -> Vec<Rect> {
    let k = rect.dim();
    let mut cells = Vec::with_capacity((1usize << k) - 1);
    for mask in 1u32..(1u32 << k) {
        let mut lo = Vec::with_capacity(k);
        let mut hi = Vec::with_capacity(k);
        for (d, &m) in middle.iter().enumerate() {
            if mask & (1 << d) != 0 {
                lo.push(m);
                hi.push(rect.hi[d]);
            } else {
                lo.push(rect.lo[d]);
                hi.push(m);
            }
        }
        let cell = Rect { lo, hi };
        if cell.volume() > 0.0 {
            cells.push(cell);
        }
    }
    cells
}

/// Insert a point into a dominance-filtered frontier: drop it if dominated
/// (or duplicate), evict points it dominates. Keeps the PF loop's point
/// count equal to the number of *usable* Pareto points.
fn insert_nondominated(frontier: &mut Vec<ParetoPoint>, p: ParetoPoint) {
    use crate::pareto::dominates;
    let mut i = 0;
    while i < frontier.len() {
        if dominates(&frontier[i].f, &p.f) || frontier[i].f == p.f {
            return;
        }
        if dominates(&p.f, &frontier[i].f) {
            frontier.swap_remove(i);
        } else {
            i += 1;
        }
    }
    frontier.push(p);
}

/// Map `f` over `items` using up to `threads` scoped worker threads,
/// preserving input order. Worker panics surface as
/// [`Error::WorkerPanicked`] instead of unwinding through the scope —
/// callers isolate panics *inside* `f` (see [`isolated_solve`]), so this is
/// the second line of defense.
fn parallel_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Result<Vec<U>>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return Ok(items.into_iter().map(f).collect());
    }
    let n = items.len();
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let work: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = parking_lot::Mutex::new(work);
    let slots_mutex = parking_lot::Mutex::new(&mut slots);
    // Telemetry scopes are thread-local; re-enter the caller's scope on
    // each worker so per-request accounting survives the fan-out.
    let telemetry_scope = udao_telemetry::current_scope();
    let scope_result = crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let telemetry_scope = telemetry_scope.clone();
            let queue = &queue;
            let slots_mutex = &slots_mutex;
            let f = &f;
            scope.spawn(move |_| {
                let _scope_guard = telemetry_scope.map(udao_telemetry::enter_scope);
                loop {
                    let item = queue.lock().pop();
                    match item {
                        Some((i, t)) => {
                            let u = f(t);
                            slots_mutex.lock()[i] = Some(u);
                        }
                        None => break,
                    }
                }
            });
        }
    });
    if let Err(payload) = scope_result {
        return Err(Error::WorkerPanicked(panic_message(payload.as_ref())));
    }
    slots
        .into_iter()
        .map(|s| {
            s.ok_or_else(|| Error::WorkerPanicked("worker died before filling its slot".into()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{FnModel, ObjectiveModel};
    use crate::pareto::{dominates, uncertain_space};
    use std::sync::Arc;

    fn convex_problem() -> MooProblem {
        // x0 trades latency against cost; x1 is pure inefficiency (hurts
        // both), so the attainable objective set is two-dimensional and the
        // Pareto frontier is its x1 = 0 lower edge from (100, 24) to
        // (300, 8) — the TPCx-BB Q2 geometry of Fig. 2.
        let lat: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1]));
        let cost: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 8.0 + 16.0 * x[0] + 8.0 * x[1]));
        MooProblem::new(2, vec![lat, cost])
    }

    #[test]
    fn pf_s_finds_a_frontier_on_the_tradeoff() {
        let pf = ProgressiveFrontier::new(PfVariant::Sequential, PfOptions::default());
        let run = pf.solve(&convex_problem(), 8).unwrap();
        assert!(run.frontier.len() >= 5, "got {} points", run.frontier.len());
        // Frontier must be mutually non-dominated.
        for a in &run.frontier {
            for b in &run.frontier {
                assert!(!dominates(&a.f, &b.f) || a.f == b.f);
            }
        }
        // Anchors: min latency 100 (x0+x1 >= 2 impossible => at (1,1): 100),
        // min cost 8 at (0,0) with latency 300.
        assert!((run.utopia[0] - 100.0).abs() < 2.0, "utopia {:?}", run.utopia);
        assert!((run.utopia[1] - 8.0).abs() < 0.5);
        assert!((run.nadir[1] - 24.0).abs() < 0.5);
    }

    #[test]
    fn pf_as_matches_pf_s_shape() {
        let p = convex_problem();
        let pf_s = ProgressiveFrontier::new(PfVariant::Sequential, PfOptions::default())
            .solve(&p, 10)
            .unwrap();
        let pf_as = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default())
            .solve(&p, 10)
            .unwrap();
        let u = [100.0, 8.0];
        let n = [300.0, 24.0];
        let us_s = uncertain_space(
            &pf_s.frontier.iter().map(|p| p.f.clone()).collect::<Vec<_>>(),
            &u,
            &n,
        );
        let us_as = uncertain_space(
            &pf_as.frontier.iter().map(|p| p.f.clone()).collect::<Vec<_>>(),
            &u,
            &n,
        );
        assert!(us_s < 0.4, "PF-S uncertainty {us_s}");
        assert!(us_as < 0.4, "PF-AS uncertainty {us_as}");
    }

    #[test]
    fn pf_ap_runs_in_parallel_and_finds_points() {
        let pf = ProgressiveFrontier::new(
            PfVariant::ApproxParallel,
            PfOptions { threads: 4, grid_l: 2, ..Default::default() },
        );
        let run = pf.solve(&convex_problem(), 12).unwrap();
        assert!(run.frontier.len() >= 8, "got {}", run.frontier.len());
        assert!(run.probes >= 2);
    }

    #[test]
    fn uncertainty_is_monotone_nonincreasing_over_probes() {
        let pf = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default());
        let run = pf.solve(&convex_problem(), 10).unwrap();
        for w in run.history.windows(2) {
            assert!(
                w[1].uncertain_frac <= w[0].uncertain_frac + 1e-9,
                "uncertainty increased: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn pf_is_incrementally_consistent() {
        // Frontier with 6 points must be consistent with frontier with 12:
        // no early point may be dominated by a strictly better later answer
        // at the same objective trade-off region beyond solver tolerance.
        let p = convex_problem();
        let small = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default())
            .solve(&p, 6)
            .unwrap();
        let large = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default())
            .solve(&p, 12)
            .unwrap();
        // Every point of the small run must re-appear in the large run, or
        // be (weakly) dominated by a refinement found later: PF only ever
        // adds probes, so it never contradicts earlier answers.
        for s in &small.frontier {
            assert!(
                large
                    .frontier
                    .iter()
                    .any(|l| l.f == s.f || dominates(&l.f, &s.f)),
                "point {:?} contradicted by the larger run",
                s.f
            );
        }
    }

    #[test]
    fn degenerate_problem_returns_single_point() {
        // Both objectives minimized at the same corner: no tradeoff.
        let f1: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(1, |x| x[0]));
        let f2: Arc<dyn ObjectiveModel> = Arc::new(FnModel::new(1, |x| 2.0 * x[0]));
        let p = MooProblem::new(1, vec![f1, f2]);
        let run = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default())
            .solve(&p, 10)
            .unwrap();
        assert_eq!(run.frontier.len(), 1);
        assert!(run.frontier[0].f[0].abs() < 1e-6);
    }

    #[test]
    fn infeasible_global_constraints_error() {
        let p = convex_problem().with_constraints(vec![
            Bound::new(0.0, 50.0), // latency <= 50 impossible (min 100)
            Bound::FREE,
        ]);
        let pf = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default());
        assert!(matches!(pf.solve(&p, 5), Err(Error::Infeasible(_))));
    }

    #[test]
    fn three_objectives_are_supported() {
        let f1: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 1.0 - x[0]));
        let f2: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| 1.0 - x[1]));
        let f3: Arc<dyn ObjectiveModel> =
            Arc::new(FnModel::new(2, |x| x[0] + x[1]));
        let p = MooProblem::new(2, vec![f1, f2, f3]);
        let run = ProgressiveFrontier::new(PfVariant::ApproxParallel, PfOptions::default())
            .solve(&p, 8)
            .unwrap();
        assert!(run.frontier.len() >= 3, "got {}", run.frontier.len());
        assert_eq!(run.utopia.len(), 3);
    }

    #[test]
    fn expired_budget_returns_degraded_nondominated_frontier() {
        // A budget that is already expired when the solve starts: the
        // anchors still run (first-iteration exemption) but the probe loop
        // exits immediately, so we get the anchor frontier flagged degraded.
        for variant in [PfVariant::Sequential, PfVariant::ApproxSequential] {
            let pf = ProgressiveFrontier::new(variant, PfOptions::default());
            let run = pf
                .solve_within(&convex_problem(), 10, &Budget::from_millis(0))
                .unwrap();
            assert!(run.degraded, "{variant:?} run not flagged degraded");
            assert!(!run.frontier.is_empty(), "{variant:?} returned no points");
            for a in &run.frontier {
                for b in &run.frontier {
                    assert!(
                        !dominates(&a.f, &b.f) || a.f == b.f,
                        "{variant:?} degraded frontier is not mutually non-dominated"
                    );
                }
            }
        }
    }

    #[test]
    fn unlimited_budget_runs_are_not_degraded() {
        let pf = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default());
        let run = pf.solve(&convex_problem(), 8).unwrap();
        assert!(!run.degraded);
        assert_eq!(run.skipped_probes, 0);
    }

    /// Model that counts predictions and panics on every call once the
    /// shared counter passes `panic_after` — simulates a poisoned model that
    /// goes bad mid-run, after the anchors have been computed.
    struct PanicAfterModel {
        calls: Arc<std::sync::atomic::AtomicUsize>,
        panic_after: usize,
        f: fn(&[f64]) -> f64,
    }

    impl ObjectiveModel for PanicAfterModel {
        fn dim(&self) -> usize {
            2
        }
        fn predict(&self, x: &[f64]) -> f64 {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n >= self.panic_after {
                panic!("injected model fault at call {n}");
            }
            (self.f)(x)
        }
    }

    #[test]
    fn pf_ap_isolates_panicking_cells_and_still_returns_a_frontier() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let lat_fn: fn(&[f64]) -> f64 = |x| 100.0 + 200.0 * (1.0 - x[0]) + 30.0 * x[1];
        let cost_fn: fn(&[f64]) -> f64 = |x| 8.0 + 16.0 * x[0] + 8.0 * x[1];

        // Phase 1: measure how many model evaluations the anchor solves
        // use, by running exactly the anchor CO problems the way PF-AP does
        // (the MOGD solver is deterministic per problem).
        let calls = Arc::new(AtomicUsize::new(0));
        let mk = |calls: &Arc<AtomicUsize>, f| -> Arc<dyn ObjectiveModel> {
            Arc::new(PanicAfterModel { calls: calls.clone(), panic_after: usize::MAX, f })
        };
        let p = MooProblem::new(2, vec![mk(&calls, lat_fn), mk(&calls, cost_fn)]);
        let solver = Mogd::new(MogdConfig::default());
        for i in 0..2 {
            solver.solve(&p, &CoProblem::unconstrained(i, 2)).unwrap();
        }
        let anchor_evals = calls.load(Ordering::SeqCst);

        // Phase 2: the model goes bad shortly after the anchors complete,
        // so main-loop cell solves panic. PF-AP must skip those cells,
        // flag the run degraded, and still return the anchor frontier.
        let calls = Arc::new(AtomicUsize::new(0));
        let mk_bad = |calls: &Arc<AtomicUsize>, f| -> Arc<dyn ObjectiveModel> {
            Arc::new(PanicAfterModel {
                calls: calls.clone(),
                panic_after: anchor_evals + 50,
                f,
            })
        };
        let p = MooProblem::new(2, vec![mk_bad(&calls, lat_fn), mk_bad(&calls, cost_fn)]);
        let pf = ProgressiveFrontier::new(
            PfVariant::ApproxParallel,
            PfOptions { threads: 2, grid_l: 2, ..Default::default() },
        );
        let run = pf.solve(&p, 12).expect("panics must be isolated, not fatal");
        assert!(run.skipped_probes >= 1, "no cell was skipped");
        assert!(run.degraded);
        assert!(!run.frontier.is_empty());
        for a in &run.frontier {
            for b in &run.frontier {
                assert!(!dominates(&a.f, &b.f) || a.f == b.f);
            }
        }
    }

    #[test]
    fn seeded_resume_refines_without_anchor_solves() {
        let p = convex_problem();
        for variant in [PfVariant::ApproxSequential, PfVariant::ApproxParallel] {
            let pf = ProgressiveFrontier::new(variant, PfOptions::default());
            let cold = pf.solve(&p, 6).unwrap();
            assert!(cold.initial_volume > 0.0);
            assert!(!cold.uncertain.is_empty(), "6-point run should leave uncertain space");
            // Resume toward more points from the finished run's seed:
            // probing restarts from the saved rectangles and the warm
            // frontier may only shrink the uncertain space further.
            let warm = pf
                .solve_seeded_within(&p, 12, &Budget::unlimited(), Some(&cold.seed()))
                .unwrap();
            assert!(warm.frontier.len() >= cold.frontier.len());
            let u = [100.0, 8.0];
            let n = [300.0, 24.0];
            let fs = |run: &PfRun| run.frontier.iter().map(|p| p.f.clone()).collect::<Vec<_>>();
            let us_cold = uncertain_space(&fs(&cold), &u, &n);
            let us_warm = uncertain_space(&fs(&warm), &u, &n);
            assert!(us_warm <= us_cold + 1e-9, "{variant:?}: {us_warm} > {us_cold}");
            // The seed frontier is never contradicted, only refined.
            for s in &cold.frontier {
                assert!(warm.frontier.iter().any(|l| l.f == s.f || dominates(&l.f, &s.f)));
            }
        }
    }

    #[test]
    fn unusable_seeds_fall_back_to_a_cold_start() {
        let empty = PfSeed {
            frontier: vec![],
            utopia: vec![0.0; 2],
            nadir: vec![1.0; 2],
            uncertain: vec![],
            initial_volume: 1.0,
        };
        assert!(!empty.usable_for(2));
        let pf = ProgressiveFrontier::new(PfVariant::ApproxSequential, PfOptions::default());
        // With the seed rejected the run must still anchor and solve.
        let run = pf
            .solve_seeded_within(&convex_problem(), 8, &Budget::unlimited(), Some(&empty))
            .unwrap();
        assert!(run.frontier.len() >= 5);
    }

    #[test]
    fn grid_cells_tile_the_rectangle() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 2.0]);
        let cells = grid_cells(&r, 3, 2);
        assert_eq!(cells.len(), 9);
        let vol: f64 = cells.iter().map(Rect::volume).sum();
        assert!((vol - r.volume()).abs() < 1e-9);
    }

    #[test]
    fn empty_probe_subdivision_keeps_all_but_lower_cell() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let cells = subdivide_after_empty_probe(&r, &[0.5, 0.5]);
        assert_eq!(cells.len(), 3);
        let vol: f64 = cells.iter().map(Rect::volume).sum();
        assert!((vol - 0.75).abs() < 1e-9);
    }

    mod grid_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The `l^k` grid must tile the parent rectangle *exactly*: the
            /// outermost cell edges land bitwise on the parent's edges (no
            /// floating-point slivers of uncovered uncertain space), and any
            /// interior point belongs to exactly one half-open cell.
            #[test]
            fn grid_cells_tile_exactly(
                lo in prop::collection::vec(-1e6f64..1e6, 1..=3),
                widths in prop::collection::vec(1e-6f64..1e6, 3),
                l in 1usize..=5,
                frac in prop::collection::vec(0.0f64..1.0, 3),
            ) {
                let k = lo.len();
                let hi: Vec<f64> = lo.iter().zip(&widths).map(|(a, w)| a + w).collect();
                let rect = Rect::new(lo, hi);
                let cells = grid_cells(&rect, l, k);
                prop_assert_eq!(cells.len(), l.pow(k as u32));

                for d in 0..k {
                    let min_lo = cells.iter().map(|c| c.lo[d]).fold(f64::INFINITY, f64::min);
                    let max_hi = cells.iter().map(|c| c.hi[d]).fold(f64::NEG_INFINITY, f64::max);
                    prop_assert_eq!(min_lo.to_bits(), rect.lo[d].to_bits());
                    prop_assert_eq!(max_hi.to_bits(), rect.hi[d].to_bits());
                }

                let point: Vec<f64> = (0..k)
                    .map(|d| rect.lo[d] + frac[d] * (rect.hi[d] - rect.lo[d]))
                    .collect();
                let containing = cells
                    .iter()
                    .filter(|c| (0..k).all(|d| c.lo[d] <= point[d] && point[d] < c.hi[d]))
                    .count();
                prop_assert!(containing <= 1, "point in {containing} overlapping cells");
                if (0..k).all(|d| point[d] < rect.hi[d]) {
                    prop_assert_eq!(containing, 1);
                }
            }
        }
    }
}
