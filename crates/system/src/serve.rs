//! Concurrent serving engine: a fixed worker pool over an SLO-aware,
//! class-scheduled submission queue with admission control and graceful
//! drain.
//!
//! The paper's serving story (§VI: recommendations in 1–2 s) is stated per
//! request; a deployed optimizer serves *many* tenants at once, and those
//! tenants are not equal — interactive tuning requests sit on a user's
//! critical path while bulk re-tuning sweeps arrive in cheap floods. The
//! [`ServingEngine`] is the front door that keeps the two from starving
//! each other:
//!
//! * **Priority classes + EDF** — every request carries a
//!   [`Priority`] class (`Interactive` / `Standard` / `Batch`) and an
//!   optional SLO deadline. Admitted work dispatches in *strict class
//!   precedence* (no queued lower-class request ever starts while a
//!   higher-class one is waiting) and earliest-deadline-first within a
//!   class; see [`ClassScheduler`].
//! * **Per-class quotas + shedding** — each class has a queue quota
//!   ([`ClassQuotas`], derived from [`ServingOptions::queue_depth`] by
//!   default) so a flood of cheap batch requests fills *its own* allowance
//!   and is shed — with a typed [`Error::Shed`] naming the class and
//!   observed queue depth — while interactive admission stays open.
//! * **Bounded queue, fixed workers** — [`ServingOptions::workers`] threads
//!   pull from a queue capped at [`ServingOptions::queue_depth`]; nothing
//!   in the engine allocates per-request threads, so load cannot fan out
//!   into unbounded concurrency.
//! * **Admission control** — a request is *shed* (rejected with the typed
//!   [`Error::Shed`], never solved, never panicking) when its class quota
//!   or the global queue is full, the in-flight cap is reached, the engine
//!   is draining, or its remaining [`Budget`] cannot cover the engine's
//!   observed p50 solve time. Failing in microseconds beats timing out
//!   after seconds: the caller can retry against a less loaded engine
//!   immediately.
//! * **Deadlines start at admission** — the request [`Budget`] is started
//!   when `submit` accepts it, so time spent queued counts against the
//!   deadline, and a request whose deadline passed while queued is shed at
//!   dequeue instead of burning a worker.
//! * **Determinism** — workers run the same seeded
//!   [`Udao::recommend_within`] path as a serial caller, calling the
//!   leased models directly; for a fixed request the engine returns
//!   bitwise-identical recommendations regardless of worker count,
//!   scheduling order, or co-tenants.
//! * **Graceful drain** — [`ServingEngine::shutdown`] (and `Drop`) stops
//!   admissions, lets workers finish everything already queued, and joins
//!   them; submitted work is never abandoned.
//! * **Hot-swap safe** — a solve pins its model versions at problem-build
//!   time, exactly as before; see [`crate::lifecycle`].
//!
//! Each served request's [`SolveReport`](crate::SolveReport) names the
//! scheduler's decisions: the class it ran under, the time it spent
//! queued, and how many already-admitted requests it overtook at admission
//! (`report.class` / `report.queue_wait_seconds` / `report.reorders`).
//!
//! Telemetry: `serve.queue_depth` (histogram, sampled at every
//! enqueue/dequeue), `serve.queue_wait_seconds` (histogram),
//! `serve.shed` + `serve.shed.<class>`, `serve.admitted` +
//! `serve.admitted.<class>`, `serve.completed`, and `serve.seconds`
//! (admission → response).

use crate::optimizer::{Recommendation, Udao};
use crate::request::{Objective, Request};
use crate::stage::StageRequest;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use udao_core::budget::Budget;
use udao_core::priority::Priority;
use udao_core::{Error, Result};
use udao_telemetry::names;

/// Per-class queue quotas: the maximum number of *queued* (admitted, not
/// yet dispatched) requests each [`Priority`] class may hold. A class at
/// its quota sheds further submissions of that class while leaving the
/// other classes' admission untouched — under overload the batch class
/// fills first and absorbs the shedding, and a batch flood can never
/// occupy the queue capacity interactive requests need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassQuotas {
    /// Queued-request quota for [`Priority::Interactive`].
    pub interactive: usize,
    /// Queued-request quota for [`Priority::Standard`].
    pub standard: usize,
    /// Queued-request quota for [`Priority::Batch`].
    pub batch: usize,
}

impl ClassQuotas {
    /// The default policy for a queue of `depth` slots: interactive may
    /// use the whole queue, standard three quarters, batch half — so the
    /// two lower classes can never jointly crowd interactive out of its
    /// headroom, while an idle engine still gives bulk work real capacity.
    pub fn derived(depth: usize) -> Self {
        ClassQuotas {
            interactive: depth.max(1),
            standard: (depth.saturating_mul(3) / 4).max(1),
            batch: (depth / 2).max(1),
        }
    }

    /// The quota for `class`.
    pub fn quota(&self, class: Priority) -> usize {
        match class {
            Priority::Interactive => self.interactive,
            Priority::Standard => self.standard,
            Priority::Batch => self.batch,
        }
    }

    /// Validate the quotas; shared by [`ServingOptions::validate`].
    pub fn validate(&self) -> Result<()> {
        for class in Priority::ALL {
            if self.quota(class) == 0 {
                return Err(Error::InvalidConfig(format!(
                    "serving.class_quotas.{class} must be >= 1"
                )));
            }
        }
        Ok(())
    }
}

/// Policy for a [`ServingEngine`]: pool size, queue bounds, class quotas,
/// and admission control. Configured once on [`crate::UdaoBuilder::serving`].
#[derive(Debug, Clone)]
pub struct ServingOptions {
    /// Worker threads solving requests.
    pub workers: usize,
    /// Maximum queued (admitted, not yet started) requests across all
    /// classes; submissions beyond this are shed.
    pub queue_depth: usize,
    /// Per-class queue quotas; `None` derives [`ClassQuotas::derived`]
    /// from `queue_depth`.
    pub class_quotas: Option<ClassQuotas>,
    /// Cap on requests admitted but not yet answered (queued + solving);
    /// `None` derives `queue_depth + workers` (i.e. the queue bound alone
    /// governs).
    pub max_in_flight: Option<usize>,
    /// Default per-request budget applied when the request carries none.
    /// `None` falls through to the optimizer's resilience budget.
    pub default_budget: Option<Duration>,
    /// Completed-solve window used for the p50 estimate behind
    /// deadline-aware shedding. Shedding on p50 only engages once a full
    /// window of observations exists.
    pub p50_window: usize,
}

impl Default for ServingOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            class_quotas: None,
            max_in_flight: None,
            default_budget: None,
            p50_window: 32,
        }
    }
}

impl ServingOptions {
    /// Set the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the submission-queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Set explicit per-class queue quotas (see [`ClassQuotas`]).
    pub fn with_class_quotas(mut self, quotas: ClassQuotas) -> Self {
        self.class_quotas = Some(quotas);
        self
    }

    /// Set the default per-request budget.
    pub fn with_default_budget(mut self, budget: Duration) -> Self {
        self.default_budget = Some(budget);
        self
    }

    /// The effective in-flight cap.
    pub fn in_flight_cap(&self) -> usize {
        self.max_in_flight.unwrap_or(self.queue_depth + self.workers)
    }

    /// The effective quota for `class`: the explicit [`ClassQuotas`] when
    /// set, the derived default otherwise. Never exceeds the global
    /// [`ServingOptions::queue_depth`], which bounds the queue as a whole.
    pub fn quota(&self, class: Priority) -> usize {
        self.class_quotas
            .unwrap_or_else(|| ClassQuotas::derived(self.queue_depth))
            .quota(class)
    }

    /// Validate the options; shared by [`crate::UdaoBuilder::build`].
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(Error::InvalidConfig("serving.workers must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(Error::InvalidConfig("serving.queue_depth must be >= 1".into()));
        }
        if let Some(quotas) = &self.class_quotas {
            quotas.validate()?;
        }
        if self.max_in_flight == Some(0) {
            return Err(Error::InvalidConfig("serving.max_in_flight must be >= 1".into()));
        }
        if self.p50_window == 0 {
            return Err(Error::InvalidConfig("serving.p50_window must be >= 1".into()));
        }
        Ok(())
    }
}

/// Lock a mutex, recovering the data on poison: worker panics are already
/// isolated into per-request errors, so shared state stays consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One queued entry of a [`ClassScheduler`].
struct SchedEntry<T> {
    /// Absolute EDF deadline; `None` sorts after every deadlined entry.
    deadline: Option<Instant>,
    /// Admission sequence number: the FIFO tiebreaker.
    seq: u64,
    item: T,
}

/// The serving engine's dispatch order, factored out so its invariants are
/// directly testable: strict class precedence between [`Priority`] classes
/// and earliest-deadline-first order within each class.
///
/// * [`ClassScheduler::pop`] never returns an entry of a class while any
///   higher-precedence class has queued entries (no priority inversion).
/// * Within one class, entries dispatch in ascending deadline order;
///   entries without a deadline come after all deadlined ones, in arrival
///   order. Ties on deadline break by arrival order.
///
/// The scheduler is a passive data structure (no clock, no threads): the
/// engine drives it under its queue lock. `tests/scheduler.rs` proptests
/// the two invariants over arbitrary admit/dispatch interleavings.
pub struct ClassScheduler<T> {
    queues: [VecDeque<SchedEntry<T>>; 3],
    seq: u64,
}

impl<T> Default for ClassScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ClassScheduler<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        ClassScheduler { queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()], seq: 0 }
    }

    /// Total queued entries across all classes.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Queued entries of one class.
    pub fn class_len(&self, class: Priority) -> usize {
        self.queues[class.index()].len()
    }

    /// Admit an entry into `class` at its EDF position. `make` receives
    /// the entry's *reorder count* — how many already-queued entries the
    /// new one is ordered ahead of (later-deadline entries of its own
    /// class plus everything queued in lower classes) — and builds the
    /// stored item, so the count can ride along with it. Returns the same
    /// count.
    pub fn push(
        &mut self,
        class: Priority,
        deadline: Option<Instant>,
        make: impl FnOnce(usize) -> T,
    ) -> usize {
        let seq = self.seq;
        self.seq += 1;
        // A shared far-future sentinel lets deadline-less entries compare
        // as "later than any real deadline" while breaking their mutual
        // ties on arrival order alone.
        let far = Instant::now() + Duration::from_secs(60 * 60 * 24 * 365);
        let key = (deadline.unwrap_or(far), seq);
        let queue = &mut self.queues[class.index()];
        // Insert after every entry ordered at-or-before the new one (FIFO
        // among equal deadlines and among the deadline-less).
        let idx = queue.partition_point(|e| (e.deadline.unwrap_or(far), e.seq) <= key);
        let overtaken_in_class = queue.len() - idx;
        let overtaken_below: usize = self.queues[class.index() + 1..]
            .iter()
            .map(VecDeque::len)
            .sum();
        let reorders = overtaken_in_class + overtaken_below;
        let entry = SchedEntry { deadline, seq, item: make(reorders) };
        self.queues[class.index()].insert(idx, entry);
        reorders
    }

    /// Dispatch the next entry: the earliest deadline of the highest
    /// non-empty class.
    pub fn pop(&mut self) -> Option<(Priority, T)> {
        for class in Priority::ALL {
            if let Some(entry) = self.queues[class.index()].pop_front() {
                return Some((class, entry.item));
            }
        }
        None
    }
}

/// One request's response cell: filled exactly once by a worker (or by the
/// shed path), awaited by the submitter.
struct ResponseSlot {
    ready: Mutex<Option<Result<Recommendation>>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot { ready: Mutex::new(None), cv: Condvar::new() }
    }

    fn fulfill(&self, result: Result<Recommendation>) {
        *lock(&self.ready) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Recommendation> {
        let mut guard = lock(&self.ready);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Handle to an admitted request's eventual response.
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = lock(&self.slot.ready).is_some();
        f.debug_struct("ResponseHandle").field("ready", &ready).finish()
    }
}

impl ResponseHandle {
    /// Block until the request is answered. Returns the recommendation,
    /// the solve's error, or [`Error::Shed`] if the deadline passed while
    /// the request was still queued.
    pub fn wait(self) -> Result<Recommendation> {
        self.slot.wait()
    }

    /// Non-blocking poll: `Some` once the response is ready.
    pub fn try_wait(&self) -> Option<Result<Recommendation>> {
        lock(&self.slot.ready).take()
    }
}

/// The unit of queued work: a workload-level request or a per-stage
/// request. Both flow through identical admission control, class
/// scheduling, and budget accounting — a per-stage solve is just another
/// tenant of the same worker pool.
enum Work<O: Objective> {
    Plain(Request<O>),
    Stages(StageRequest),
}

struct Job<O: Objective> {
    work: Work<O>,
    budget: Budget,
    admitted: Instant,
    priority: Priority,
    /// Already-queued requests this one was ordered ahead of at admission.
    reorders: usize,
    slot: Arc<ResponseSlot>,
}

struct QueueState<O: Objective> {
    sched: ClassScheduler<Job<O>>,
    draining: bool,
}

struct Shared<O: Objective> {
    udao: Arc<Udao>,
    options: ServingOptions,
    state: Mutex<QueueState<O>>,
    /// Wakes idle workers on enqueue and on drain.
    cv: Condvar,
    /// Admitted but not yet answered (queued + solving).
    in_flight: AtomicUsize,
    /// Recent solve durations (seconds), newest last; bounded by
    /// `options.p50_window`.
    solve_seconds: Mutex<VecDeque<f64>>,
}

impl<O: Objective> Shared<O> {
    /// Median of the completed-solve window; `None` until the window is
    /// full (early estimates from a cold engine are noise).
    fn p50_solve_time(&self) -> Option<Duration> {
        let window = lock(&self.solve_seconds);
        if window.len() < self.options.p50_window {
            return None;
        }
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(Duration::from_secs_f64(sorted[sorted.len() / 2]))
    }

    fn record_solve_time(&self, seconds: f64) {
        let mut window = lock(&self.solve_seconds);
        window.push_back(seconds);
        while window.len() > self.options.p50_window {
            window.pop_front();
        }
    }

    /// Build the typed shed error and count it — globally and per class.
    fn shed(
        &self,
        reason: impl Into<String>,
        class: Priority,
        queued: Option<usize>,
    ) -> Error {
        udao_telemetry::counter(names::SERVE_SHED).inc();
        udao_telemetry::counter(&names::serve_shed_class(&class)).inc();
        Error::Shed { reason: reason.into(), class: Some(class), queued }
    }
}

/// The concurrent serving engine; see the module docs.
///
/// ```no_run
/// use udao::{BatchRequest, Priority, ServingEngine, Udao};
/// use udao_sparksim::objectives::BatchObjective;
/// use udao_sparksim::ClusterSpec;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let udao = Arc::new(Udao::builder(ClusterSpec::paper_cluster()).build().unwrap());
/// let engine: ServingEngine<BatchObjective> = ServingEngine::start(udao);
/// let req = BatchRequest::new("q2-v0")
///     .objective(BatchObjective::CostCores)
///     .priority(Priority::Interactive)
///     .deadline(Duration::from_millis(500));
/// let rec = engine.solve(req).unwrap();
/// # let _ = rec;
/// ```
pub struct ServingEngine<O: Objective> {
    shared: Arc<Shared<O>>,
    workers: Vec<JoinHandle<()>>,
}

impl<O: Objective> ServingEngine<O> {
    /// Start an engine over `udao` using its configured
    /// [`ServingOptions`]; spawns the worker pool immediately.
    pub fn start(udao: Arc<Udao>) -> Self {
        let options = udao.serving_options().clone();
        Self::start_with(udao, options)
    }

    /// Start an engine with explicit options (validated at
    /// [`crate::UdaoBuilder::build`] when routed through the builder; an
    /// invalid `workers == 0` here would simply never answer, so it is
    /// clamped to one).
    pub fn start_with(udao: Arc<Udao>, options: ServingOptions) -> Self {
        let workers = options.workers.max(1);
        let shared = Arc::new(Shared {
            udao,
            options,
            state: Mutex::new(QueueState { sched: ClassScheduler::new(), draining: false }),
            cv: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            solve_seconds: Mutex::new(VecDeque::new()),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("udao-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .unwrap_or_else(|e| panic!("failed to spawn serving worker: {e}"))
            })
            .collect();
        ServingEngine { shared, workers: handles }
    }

    /// The engine's effective options.
    pub fn options(&self) -> &ServingOptions {
        &self.shared.options
    }

    /// Requests admitted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Submit a request. Returns a handle to the eventual response, or
    /// [`Error::Shed`] immediately when admission control rejects it —
    /// the error names the request's class and, for queue-based sheds,
    /// the class queue depth observed at rejection.
    pub fn submit(&self, request: Request<O>) -> Result<ResponseHandle> {
        let class = request.priority;
        let requested = request.budget;
        let slo = request.deadline;
        self.submit_work(Work::Plain(request), class, requested, slo)
    }

    /// Submit a per-stage tuning request ([`StageRequest`]); identical
    /// admission control, class scheduling, and budget semantics as
    /// [`ServingEngine::submit`].
    pub fn submit_stages(&self, request: StageRequest) -> Result<ResponseHandle> {
        let class = request.priority;
        let requested = request.budget;
        let slo = request.deadline;
        self.submit_work(Work::Stages(request), class, requested, slo)
    }

    /// The shared admission path behind [`ServingEngine::submit`] and
    /// [`ServingEngine::submit_stages`].
    fn submit_work(
        &self,
        work: Work<O>,
        class: Priority,
        requested_budget: Option<Duration>,
        slo_deadline: Option<Duration>,
    ) -> Result<ResponseHandle> {
        let shared = &self.shared;
        // The budget starts here: queue wait counts against the deadline.
        let limit = requested_budget
            .or(shared.options.default_budget)
            .or(shared.udao.resilience_options().budget);
        let budget = limit.map(Budget::new).unwrap_or_default();
        if budget.expired() {
            return Err(shared.shed("request budget already expired at admission", class, None));
        }
        if let Some(p50) = shared.p50_solve_time() {
            if !budget.can_cover(p50) {
                return Err(shared.shed(
                    format!(
                        "remaining budget cannot cover p50 solve time ({} ms)",
                        p50.as_millis()
                    ),
                    class,
                    None,
                ));
            }
        }
        // EDF deadline: explicit SLO first, wall-clock budget as fallback.
        let admitted = Instant::now();
        let deadline = slo_deadline.or(limit).map(|d| admitted + d);
        let cap = shared.options.in_flight_cap();
        let quota = shared.options.quota(class);
        let slot = Arc::new(ResponseSlot::new());
        {
            let mut st = lock(&shared.state);
            if st.draining {
                return Err(shared.shed("engine is draining", class, None));
            }
            let queued_in_class = st.sched.class_len(class);
            if st.sched.len() >= shared.options.queue_depth {
                return Err(shared.shed(
                    format!("queue full (depth {})", shared.options.queue_depth),
                    class,
                    Some(queued_in_class),
                ));
            }
            if queued_in_class >= quota {
                return Err(shared.shed(
                    format!("{class} class quota full ({queued_in_class}/{quota} queued)"),
                    class,
                    Some(queued_in_class),
                ));
            }
            if shared.in_flight.load(Ordering::Relaxed) >= cap {
                return Err(shared.shed(
                    format!("in-flight cap reached ({cap})"),
                    class,
                    Some(queued_in_class),
                ));
            }
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
            let slot_for_job = Arc::clone(&slot);
            st.sched.push(class, deadline, move |reorders| Job {
                work,
                budget,
                admitted,
                priority: class,
                reorders,
                slot: slot_for_job,
            });
            udao_telemetry::counter(names::SERVE_ADMITTED).inc();
            udao_telemetry::counter(&names::serve_admitted_class(&class)).inc();
            udao_telemetry::histogram(names::SERVE_QUEUE_DEPTH).record(st.sched.len() as f64);
        }
        shared.cv.notify_one();
        Ok(ResponseHandle { slot })
    }

    /// Submit and wait: the synchronous single-call form of
    /// [`ServingEngine::submit`].
    pub fn solve(&self, request: Request<O>) -> Result<Recommendation> {
        self.submit(request)?.wait()
    }

    /// Submit a per-stage request and wait: the synchronous form of
    /// [`ServingEngine::submit_stages`].
    pub fn solve_stages(&self, request: StageRequest) -> Result<Recommendation> {
        self.submit_stages(request)?.wait()
    }

    /// Graceful drain: stop admitting, finish everything already queued,
    /// and join the workers. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.draining = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<O: Objective> Drop for ServingEngine<O> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long an idle worker waits before running a reclamation pass (stale
/// frontier-cache entries) and going back to sleep. Pruning runs off-lock, so a request arriving mid-prune is
/// picked up by another worker immediately.
const IDLE_PRUNE_PERIOD: Duration = Duration::from_millis(50);

fn worker_loop<O: Objective>(shared: &Arc<Shared<O>>) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some((_, job)) = st.sched.pop() {
                    udao_telemetry::histogram(names::SERVE_QUEUE_DEPTH)
                        .record(st.sched.len() as f64);
                    break Some(job);
                }
                if st.draining {
                    break None;
                }
                let (guard, wait) = shared
                    .cv
                    .wait_timeout(st, IDLE_PRUNE_PERIOD)
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
                // Periodic idle-path reclamation: without this, stale
                // cached frontiers only went away when a lifecycle manager
                // happened to publish.
                if wait.timed_out() && st.sched.is_empty() && !st.draining {
                    drop(st);
                    shared.udao.prune_idle();
                    st = lock(&shared.state);
                }
            }
        };
        let Some(job) = job else {
            return;
        };
        serve_job(shared, job);
    }
}

fn serve_job<O: Objective>(shared: &Arc<Shared<O>>, job: Job<O>) {
    let queue_wait = job.admitted.elapsed();
    // Deadline re-check at dequeue: a request whose budget died in the
    // queue is shed here instead of burning a worker on a doomed solve.
    if job.budget.expired() {
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        job.slot.fulfill(Err(shared.shed("budget expired while queued", job.priority, None)));
        return;
    }
    udao_telemetry::histogram(names::SERVE_QUEUE_WAIT_SECONDS)
        .record(queue_wait.as_secs_f64());
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match &job.work {
        Work::Plain(request) => shared.udao.recommend_within(request, job.budget),
        Work::Stages(request) => shared.udao.recommend_stages_within(request, job.budget),
    }));
    let result = outcome.unwrap_or_else(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        };
        Err(Error::WorkerPanicked(msg))
    });
    // Stamp the scheduler's decisions into the per-request report.
    let result = result.map(|mut rec| {
        rec.report.class = Some(job.priority);
        rec.report.queue_wait_seconds = queue_wait.as_secs_f64();
        rec.report.reorders = job.reorders as u64;
        rec
    });
    let elapsed = job.admitted.elapsed().as_secs_f64();
    if result.is_ok() {
        shared.record_solve_time(elapsed);
    }
    udao_telemetry::counter(names::SERVE_COMPLETED).inc();
    udao_telemetry::histogram(names::SERVE_SECONDS).record(elapsed);
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    job.slot.fulfill(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_valid() {
        let opts = ServingOptions::default();
        assert!(opts.validate().is_ok());
        assert_eq!(opts.in_flight_cap(), opts.queue_depth + opts.workers);
        // Derived quotas: interactive full, standard 3/4, batch half.
        assert_eq!(opts.quota(Priority::Interactive), 64);
        assert_eq!(opts.quota(Priority::Standard), 48);
        assert_eq!(opts.quota(Priority::Batch), 32);
    }

    #[test]
    fn degenerate_options_are_rejected() {
        assert!(ServingOptions::default().with_workers(0).validate().is_err());
        assert!(ServingOptions::default().with_queue_depth(0).validate().is_err());
        let zero_cap = ServingOptions { max_in_flight: Some(0), ..Default::default() };
        assert!(zero_cap.validate().is_err());
        let zero_window = ServingOptions { p50_window: 0, ..Default::default() };
        assert!(zero_window.validate().is_err());
        let zero_quota = ServingOptions::default().with_class_quotas(ClassQuotas {
            interactive: 4,
            standard: 4,
            batch: 0,
        });
        assert!(zero_quota.validate().is_err());
    }

    #[test]
    fn builder_style_setters_compose() {
        let opts = ServingOptions::default()
            .with_workers(2)
            .with_queue_depth(8)
            .with_default_budget(Duration::from_millis(500))
            .with_class_quotas(ClassQuotas { interactive: 8, standard: 4, batch: 2 });
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.queue_depth, 8);
        assert_eq!(opts.default_budget, Some(Duration::from_millis(500)));
        assert_eq!(opts.in_flight_cap(), 10);
        assert_eq!(opts.quota(Priority::Batch), 2);
    }

    #[test]
    fn derived_quotas_never_hit_zero() {
        let q = ClassQuotas::derived(1);
        assert!(q.validate().is_ok());
        assert_eq!(q.quota(Priority::Interactive), 1);
        assert_eq!(q.quota(Priority::Batch), 1);
    }

    #[test]
    fn response_slot_fulfills_once_and_wakes_waiters() {
        let slot = Arc::new(ResponseSlot::new());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        slot.fulfill(Err(Error::shed("test")));
        let got = waiter.join().expect("waiter thread");
        assert!(matches!(got, Err(Error::Shed { .. })));
    }

    #[test]
    fn scheduler_dispatches_by_class_then_deadline() {
        let now = Instant::now();
        let mut sched: ClassScheduler<u32> = ClassScheduler::new();
        sched.push(Priority::Batch, None, |_| 0);
        sched.push(Priority::Standard, Some(now + Duration::from_secs(9)), |_| 1);
        sched.push(Priority::Standard, Some(now + Duration::from_secs(1)), |_| 2);
        sched.push(Priority::Interactive, None, |_| 3);
        sched.push(Priority::Standard, None, |_| 4);
        let order: Vec<u32> = std::iter::from_fn(|| sched.pop().map(|(_, v)| v)).collect();
        // Interactive first, then standard in EDF order (deadline-less
        // last), then batch.
        assert_eq!(order, vec![3, 2, 1, 4, 0]);
        assert!(sched.is_empty());
    }

    #[test]
    fn scheduler_reports_reorders_for_overtaken_entries() {
        let now = Instant::now();
        let mut sched: ClassScheduler<u32> = ClassScheduler::new();
        assert_eq!(sched.push(Priority::Batch, None, |_| 0), 0);
        assert_eq!(sched.push(Priority::Batch, None, |_| 1), 0, "FIFO within batch");
        // A standard request overtakes both batch entries.
        assert_eq!(sched.push(Priority::Standard, None, |_| 2), 2);
        // A tighter deadline overtakes the queued standard entry and both
        // batch entries.
        let r = sched.push(Priority::Standard, Some(now + Duration::from_millis(1)), |_| 3);
        assert_eq!(r, 3);
        // The make closure sees the same count the method returns.
        let mut seen = 0;
        sched.push(Priority::Interactive, None, |reorders| {
            seen = reorders;
            4
        });
        assert_eq!(seen, 4);
    }

    #[test]
    fn scheduler_fifo_among_equal_deadlines() {
        let now = Instant::now();
        let d = Some(now + Duration::from_secs(5));
        let mut sched: ClassScheduler<u32> = ClassScheduler::new();
        for i in 0..4 {
            assert_eq!(sched.push(Priority::Interactive, d, |_| i), 0);
        }
        let order: Vec<u32> = std::iter::from_fn(|| sched.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
