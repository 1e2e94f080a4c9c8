//! Outside-in tracing of the model layer.
//!
//! [`TracedProvider`] is the `ModelProvider` the traced run installs through
//! `UdaoBuilder::model_provider`. It reads that `UdaoBuilder`'s
//! `ModelServer`, times every `lease`, and hands out each leased model
//! wrapped in [`Timed`], which times and counts all seven `ObjectiveModel`
//! methods and forwards each one to the same method of the wrapped model
//! (so batched calls stay batched). One wrapper is shared per
//! `(key, version)` while any solve holds it, so concurrent solves of one
//! version still see one model identity, as they do without tracing.
//!
//! Spans are kept in memory and written out after the run, for one parent
//! in [`SAMPLE_EVERY`] (a request in a serial loop, a round under a serving
//! engine): the parent, its leases, swaps and requests, and its model calls.
//! Model calls on one thread less than [`MERGE_GAP_NS`] apart are merged
//! into one `model` span carrying the call count and their summed busy
//! time. Exact per-method totals are counted for every call, sampled or
//! not; each thread adds its totals to the process-wide ones when it flushes
//! (on exit, or through [`flush_thread`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;
use udao::ModelProvider;
use udao_core::objective::ObjectiveModel;
use udao_core::Result;
use udao_model::server::{ModelKey, ModelLease, ModelServer};

/// Spans are kept for one parent (request or round) in this many.
pub const SAMPLE_EVERY: u64 = 8;
/// Model calls on one thread closer than this merge into one span.
const MERGE_GAP_NS: u64 = 1_000;

/// Span layers, in trace-file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Round,
    Request,
    Lease,
    Ingest,
    Model,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::Request => "request",
            Layer::Lease => "model.lease",
            Layer::Ingest => "server.ingest",
            Layer::Model => "model",
        }
    }
}

/// The `ObjectiveModel` methods, grouped as the metrics report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Dim = 0,
    Value = 1,
    Std = 2,
    Grad = 3,
    StdGrad = 4,
}

impl Method {
    pub const ALL: [Method; 5] = [
        Method::Dim,
        Method::Value,
        Method::Std,
        Method::Grad,
        Method::StdGrad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Method::Dim => "model.dim",
            Method::Value => "model.value",
            Method::Std => "model.std",
            Method::Grad => "model.grad",
            Method::StdGrad => "model.std_grad",
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: Layer,
    pub thread: u64,
    pub start: u64,
    pub end: u64,
    /// Calls merged into this span (1 for non-model spans).
    pub calls: u64,
    /// Summed duration of the merged calls.
    pub busy: u64,
}

/// Exact per-method totals: calls, points and busy nanoseconds.
#[derive(Default)]
pub struct MethodTotals {
    pub calls: AtomicU64,
    pub points: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// Process-wide trace state.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    /// Parent span id for model calls and leases (the current request in a
    /// serial loop, the current round under a serving engine).
    parent: AtomicU64,
    sampled: AtomicBool,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<Span>>,
    pub model: [MethodTotals; 5],
    pub leases: MethodTotals,
}

pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        on: AtomicBool::new(false),
        parent: AtomicU64::new(0),
        sampled: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
        model: Default::default(),
        leases: MethodTotals::default(),
    })
}

impl Tracer {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Make `id` the parent of the model calls and leases that follow; its
    /// model calls are kept as spans when `sample` is set.
    pub fn enter(&self, id: u64, sample: bool) {
        self.parent.store(id, Ordering::SeqCst);
        self.sampled.store(sample, Ordering::SeqCst);
    }

    pub fn parent(&self) -> u64 {
        self.parent.load(Ordering::Relaxed)
    }

    /// Whether the current parent's spans are kept.
    pub fn sampled(&self) -> bool {
        self.is_on() && self.sampled.load(Ordering::Relaxed)
    }

    /// Record a finished span from the calling thread.
    pub fn record(&self, id: u64, parent: u64, layer: Layer, start: u64, end: u64) {
        let thread = LOCAL.with(|l| l.borrow_mut().thread());
        self.push(Span {
            id,
            parent,
            layer,
            thread,
            start,
            end,
            calls: 1,
            busy: end - start,
        });
    }

    /// Per-method totals `(calls, points, busy ms)` of the flushed threads.
    pub fn totals(&self, m: Method) -> (f64, f64, f64) {
        let t = &self.model[m as usize];
        (
            t.calls.load(Ordering::SeqCst) as f64,
            t.points.load(Ordering::SeqCst) as f64,
            t.busy_ns.load(Ordering::SeqCst) as f64 / 1e6,
        )
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span log lock poisoned")
            .push(span);
    }

    /// Move every span recorded so far out of the log. Threads that are
    /// still alive keep at most one unmerged model span each; call
    /// [`flush_thread`] on them first.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock poisoned"))
    }

    /// Reset the per-method totals (between the untraced and traced phase).
    pub fn reset_totals(&self) {
        for t in self.model.iter().chain(std::iter::once(&self.leases)) {
            t.calls.store(0, Ordering::SeqCst);
            t.points.store(0, Ordering::SeqCst);
            t.busy_ns.store(0, Ordering::SeqCst);
        }
    }
}

/// Per-thread state: a stable thread number, this thread's per-method
/// totals `(calls, points, busy ns)` not yet added to the process-wide ones,
/// and the open merged model span.
struct Local {
    thread: Option<u64>,
    totals: [(u64, u64, u64); 5],
    open: Option<Span>,
}

impl Local {
    fn thread(&mut self) -> u64 {
        *self
            .thread
            .get_or_insert_with(|| tracer().next_thread.fetch_add(1, Ordering::Relaxed))
    }

    fn flush(&mut self) {
        let t = tracer();
        for (i, (calls, points, busy)) in self.totals.iter_mut().enumerate() {
            if *calls > 0 {
                t.model[i]
                    .calls
                    .fetch_add(std::mem::take(calls), Ordering::SeqCst);
                t.model[i]
                    .points
                    .fetch_add(std::mem::take(points), Ordering::SeqCst);
                t.model[i]
                    .busy_ns
                    .fetch_add(std::mem::take(busy), Ordering::SeqCst);
            }
        }
        if let Some(span) = self.open.take() {
            t.push(span);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> =
        const { RefCell::new(Local { thread: None, totals: [(0, 0, 0); 5], open: None }) };
}

/// Add the calling thread's totals and open span to the process-wide ones.
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

fn model_call(method: Method, points: usize, start: u64, end: u64) {
    let t = tracer();
    let sampled = t.sampled.load(Ordering::Relaxed);
    let parent = t.parent();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let totals = &mut l.totals[method as usize];
        totals.0 += 1;
        totals.1 += points as u64;
        totals.2 += end - start;
        if !sampled {
            return;
        }
        if let Some(open) = &mut l.open {
            if open.parent == parent && start <= open.end + MERGE_GAP_NS {
                open.end = end;
                open.calls += 1;
                open.busy += end - start;
                return;
            }
        }
        if let Some(done) = l.open.take() {
            t.push(done);
        }
        let thread = l.thread();
        l.open = Some(Span {
            id: 0,
            parent,
            layer: Layer::Model,
            thread,
            start,
            end,
            calls: 1,
            busy: end - start,
        });
    });
}

/// Times and counts every `ObjectiveModel` method of the wrapped model.
pub struct Timed {
    inner: Arc<dyn ObjectiveModel>,
}

impl ObjectiveModel for Timed {
    fn dim(&self) -> usize {
        let s = tracer().now();
        let d = self.inner.dim();
        model_call(Method::Dim, 0, s, tracer().now());
        d
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let s = tracer().now();
        let v = self.inner.predict(x);
        model_call(Method::Value, 1, s, tracer().now());
        v
    }

    fn predict_std(&self, x: &[f64]) -> f64 {
        let s = tracer().now();
        let v = self.inner.predict_std(x);
        model_call(Method::Std, 1, s, tracer().now());
        v
    }

    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        let s = tracer().now();
        self.inner.gradient(x, out);
        model_call(Method::Grad, 1, s, tracer().now());
    }

    fn std_gradient(&self, x: &[f64], out: &mut [f64]) {
        let s = tracer().now();
        self.inner.std_gradient(x, out);
        model_call(Method::StdGrad, 1, s, tracer().now());
    }

    fn predict_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        let s = tracer().now();
        self.inner.predict_batch(xs, out);
        model_call(Method::Value, xs.len(), s, tracer().now());
    }

    fn predict_std_batch(&self, xs: &[Vec<f64>], out: &mut [f64]) {
        let s = tracer().now();
        self.inner.predict_std_batch(xs, out);
        model_call(Method::Std, xs.len(), s, tracer().now());
    }
}

/// The traced run's model provider: the `UdaoBuilder`'s `ModelServer` behind a
/// switch. Off, it forwards leases untouched; on, it times them and wraps
/// the leased model in [`Timed`].
pub struct TracedProvider {
    server: Arc<ModelServer>,
    wrappers: Mutex<HashMap<(ModelKey, u64), Weak<Timed>>>,
}

impl TracedProvider {
    pub fn new(server: Arc<ModelServer>) -> Self {
        Self {
            server,
            wrappers: Mutex::new(HashMap::new()),
        }
    }

    fn wrap(&self, key: &ModelKey, lease: ModelLease) -> ModelLease {
        let mut wrappers = self.wrappers.lock().expect("wrapper map lock poisoned");
        let slot = (key.clone(), lease.version);
        let timed = match wrappers.get(&slot).and_then(Weak::upgrade) {
            Some(timed) => timed,
            None => {
                let timed = Arc::new(Timed { inner: lease.model });
                wrappers.retain(|_, w| w.strong_count() > 0);
                wrappers.insert(slot, Arc::downgrade(&timed));
                timed
            }
        };
        ModelLease {
            model: timed,
            version: lease.version,
        }
    }
}

impl ModelProvider for TracedProvider {
    fn fetch(&self, key: &ModelKey) -> Result<Option<Arc<dyn ObjectiveModel>>> {
        Ok(self.lease(key)?.map(|l| l.model))
    }

    fn lease(&self, key: &ModelKey) -> Result<Option<ModelLease>> {
        let t = tracer();
        if !t.is_on() {
            return Ok(self.server.lease(key));
        }
        let start = t.now();
        let lease = self.server.lease(key);
        let end = t.now();
        t.leases.calls.fetch_add(1, Ordering::Relaxed);
        t.leases.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        if t.sampled() {
            t.record(t.new_id(), t.parent(), Layer::Lease, start, end);
        }
        Ok(lease.map(|l| self.wrap(key, l)))
    }
}

/// Per-layer self time: each span's duration minus the part of it that
/// its children cover (children may run on other threads, so coverage is
/// the union of their intervals). Model spans are leaves and count their
/// busy time. Returns `(layer, spans, self ms)`.
pub fn self_times(spans: &[Span]) -> Vec<(Layer, u64, f64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut totals: HashMap<Layer, (u64, f64)> = HashMap::new();
    for s in spans {
        let own = if s.layer == Layer::Model {
            s.busy as f64
        } else {
            let covered = children
                .get(&s.id)
                .map(|c| union_within(c, s.start, s.end))
                .unwrap_or(0);
            (s.end - s.start).saturating_sub(covered) as f64
        };
        let e = totals.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += own;
    }
    let mut out: Vec<(Layer, u64, f64)> = totals
        .into_iter()
        .map(|(l, (n, ns))| (l, n, ns / 1e6))
        .collect();
    out.sort_by_key(|(l, _, _)| *l);
    out
}

fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records which method of the inner model each call reached.
    #[derive(Default)]
    struct Probe {
        seen: Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn saw(&self, name: &'static str) {
            self.seen.lock().expect("probe lock").push(name);
        }
    }

    impl ObjectiveModel for Probe {
        fn dim(&self) -> usize {
            self.saw("dim");
            2
        }
        fn predict(&self, _: &[f64]) -> f64 {
            self.saw("predict");
            1.0
        }
        fn predict_std(&self, _: &[f64]) -> f64 {
            self.saw("predict_std");
            0.5
        }
        fn gradient(&self, _: &[f64], out: &mut [f64]) {
            self.saw("gradient");
            out.fill(1.0);
        }
        fn std_gradient(&self, _: &[f64], out: &mut [f64]) {
            self.saw("std_gradient");
            out.fill(0.5);
        }
        fn predict_batch(&self, _: &[Vec<f64>], out: &mut [f64]) {
            self.saw("predict_batch");
            out.fill(1.0);
        }
        fn predict_std_batch(&self, _: &[Vec<f64>], out: &mut [f64]) {
            self.saw("predict_std_batch");
            out.fill(0.5);
        }
    }

    #[test]
    fn timed_forwards_every_method_to_the_same_method() {
        let probe = Arc::new(Probe::default());
        let timed = Timed {
            inner: probe.clone(),
        };
        let x = [0.1, 0.2];
        let xs = vec![x.to_vec(), x.to_vec()];
        let mut g = [0.0; 2];
        let mut out = [0.0; 2];
        assert_eq!(timed.dim(), 2);
        assert_eq!(timed.predict(&x), 1.0);
        assert_eq!(timed.predict_std(&x), 0.5);
        timed.gradient(&x, &mut g);
        timed.std_gradient(&x, &mut g);
        timed.predict_batch(&xs, &mut out);
        timed.predict_std_batch(&xs, &mut out);
        let seen = probe.seen.lock().expect("probe lock").clone();
        assert_eq!(
            seen,
            [
                "dim",
                "predict",
                "predict_std",
                "gradient",
                "std_gradient",
                "predict_batch",
                "predict_std_batch"
            ]
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, layer, start, end| Span {
            id,
            parent,
            layer,
            thread: 0,
            start,
            end,
            calls: 1,
            busy: end - start,
        };
        // A request [0, 100) with two overlapping model spans [10, 40) and
        // [30, 60) on different threads, and a lease [70, 80).
        let spans = [
            span(1, 0, Layer::Request, 0, 100),
            span(0, 1, Layer::Model, 10, 40),
            span(0, 1, Layer::Model, 30, 60),
            span(2, 1, Layer::Lease, 70, 80),
        ];
        let times = self_times(&spans);
        let get = |l| {
            times
                .iter()
                .find(|(layer, _, _)| *layer == l)
                .map(|t| t.2 * 1e6)
        };
        assert_eq!(get(Layer::Request), Some(40.0));
        assert_eq!(get(Layer::Model), Some(60.0));
        assert_eq!(get(Layer::Lease), Some(10.0));
    }
}
