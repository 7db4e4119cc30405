//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each layer.
//!
//! The product exposes three trait seams — [`Queue`], [`Endpoint`] and
//! [`CongestionControl`] — plus the [`ChurnDriver`] callback. The traced
//! run boxes a timing wrapper around each object it hands to the simulator;
//! the untraced run hands over the bare object. Nothing in the product
//! knows which it got.
//!
//! One [`Tracer`] serves one single-threaded simulation. Its counters are
//! atomics only because the wrapped traits demand `Send`; they are updated
//! with plain load/store pairs (no locked read-modify-write on the hot
//! path), which is exact as long as a tracer is not shared between
//! concurrently running simulations — and the benchmark never does that.
//!
//! A span's *total* time is what its two clock reads bracket. A layer's
//! *self* time is its total minus its children's totals minus the measured
//! cost of the clock reads themselves ([`Calibration`]).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pcc_simnet::prelude::*;
use pcc_transport::{
    AckEvent, CongestionControl, Ctx, LossEvent, LossKind, MeasurementReport, ReportMode, SentEvent,
};

use crate::json::Json;

/// One raw span in every this many is kept (name, start, end, parent).
pub const SAMPLE_EVERY: u64 = 4096;

/// The layer every top-level span hangs under: the event loop itself.
pub const ROOT_LAYER: &str = "simnet.sim";

/// Accumulated spans of one layer, for one flow (static flows) or for all
/// flows of a churn workload together (`flow == None`).
pub struct Cell {
    /// Layer name (`transport.sender`, `cc.cubic`, ...).
    pub layer: String,
    /// The static flow this cell belongs to, if any.
    pub flow: Option<u32>,
    /// The layer whose spans enclose this cell's spans.
    pub parent: String,
    calls: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Cell {
    /// Spans recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Sum of span durations, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Relaxed)
    }

    /// Longest single span, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Relaxed)
    }
}

/// One sampled raw span.
#[derive(Clone, Debug)]
pub struct RawSpan {
    /// This span's id (ids count every span, sampled or not).
    pub id: u64,
    /// The id of the span that was open when this one began (0 = the run).
    pub parent: u64,
    /// Index into the tracer's cell list.
    pub cell: usize,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Span store for one traced simulation.
pub struct Tracer {
    epoch: Instant,
    cells: Mutex<Vec<Arc<Cell>>>,
    next_id: AtomicU64,
    /// Id of the innermost open span.
    current: AtomicU64,
    samples: Mutex<Vec<RawSpan>>,
    /// `on_report` deliveries seen at the algorithm boundary.
    pub reports: AtomicU64,
    /// Timeout loss events seen at the algorithm boundary (per-ACK
    /// `on_loss(Timeout)` calls plus the `timeouts` field of reports).
    pub timeouts: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

impl Tracer {
    /// A fresh tracer; its clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            cells: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            current: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
            reports: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        })
    }

    /// The cell for `(layer, flow)`, created on first use.
    pub fn cell(&self, layer: &str, flow: Option<u32>, parent: &str) -> (usize, Arc<Cell>) {
        let mut cells = self.cells.lock().expect("tracer is single-threaded");
        if let Some(i) = cells
            .iter()
            .position(|c| c.layer == layer && c.flow == flow)
        {
            return (i, Arc::clone(&cells[i]));
        }
        let cell = Arc::new(Cell {
            layer: layer.to_string(),
            flow,
            parent: parent.to_string(),
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        });
        cells.push(Arc::clone(&cell));
        (cells.len() - 1, cell)
    }

    /// Every cell created so far.
    pub fn cells(&self) -> Vec<Arc<Cell>> {
        self.cells
            .lock()
            .expect("tracer is single-threaded")
            .clone()
    }

    /// Sampled raw spans recorded so far.
    pub fn samples(&self) -> Vec<RawSpan> {
        self.samples
            .lock()
            .expect("tracer is single-threaded")
            .clone()
    }

    /// `(calls, total_ns)` summed over every cell of `layer`.
    pub fn layer_totals(&self, layer: &str) -> (u64, u64) {
        self.cells()
            .iter()
            .filter(|c| c.layer == layer)
            .fold((0, 0), |(n, t), c| (n + c.calls(), t + c.total_ns()))
    }

    /// Write cell summaries and the sampled raw spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let cells = self.cells();
        for c in &cells {
            let line = Json::obj()
                .with("cell", c.layer.as_str())
                .with("flow", c.flow.map_or(Json::Null, |f| Json::from(f as u64)))
                .with("parent", c.parent.as_str())
                .with("calls", c.calls())
                .with("total_ns", c.total_ns())
                .with("max_ns", c.max_ns());
            writeln!(out, "{line}")?;
        }
        for s in self.samples() {
            let c = &cells[s.cell];
            let line = Json::obj()
                .with("span", s.id)
                .with("parent", s.parent)
                .with("name", c.layer.as_str())
                .with("flow", c.flow.map_or(Json::Null, |f| Json::from(f as u64)))
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

/// A handle a wrapper holds: the tracer plus the one cell it writes.
#[derive(Clone)]
pub struct Probe {
    tracer: Arc<Tracer>,
    cell: Arc<Cell>,
    index: usize,
}

impl Probe {
    /// A probe writing to the `(layer, flow)` cell of `tracer`.
    pub fn new(tracer: &Arc<Tracer>, layer: &str, flow: Option<u32>, parent: &str) -> Probe {
        let (index, cell) = tracer.cell(layer, flow, parent);
        Probe {
            tracer: Arc::clone(tracer),
            cell,
            index,
        }
    }

    /// Run `f` inside one span of this probe's cell.
    #[inline]
    pub fn span<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = &self.tracer;
        let id = t.next_id.load(Relaxed) + 1;
        t.next_id.store(id, Relaxed);
        let parent = t.current.load(Relaxed);
        t.current.store(id, Relaxed);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        t.current.store(parent, Relaxed);
        let c = &self.cell;
        bump(&c.calls, 1);
        bump(&c.total_ns, ns);
        if ns > c.max_ns.load(Relaxed) {
            c.max_ns.store(ns, Relaxed);
        }
        if id.is_multiple_of(SAMPLE_EVERY) {
            let start_ns = start.duration_since(t.epoch).as_nanos() as u64;
            t.samples
                .lock()
                .expect("tracer is single-threaded")
                .push(RawSpan {
                    id,
                    parent,
                    cell: self.index,
                    start_ns,
                    end_ns: start_ns + ns,
                });
        }
        out
    }
}

/// Measured cost of the instrumentation itself.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// One `Instant::now()`, nanoseconds.
    pub clock_ns: f64,
    /// What an empty span reports as its own duration, nanoseconds: the
    /// share of the instrumentation a span charges to itself.
    pub span_inner_ns: f64,
    /// What an empty span costs its caller in wall time, nanoseconds.
    pub span_total_ns: f64,
}

impl Calibration {
    /// Measure on this machine, now (about 50 ms). Each cost is the
    /// *smallest* per-operation time over [`Self::BATCHES`] batches: the
    /// instrumentation's cost is fixed, and everything a shared machine
    /// adds to a batch (a cold core, a neighbour's burst) only ever adds.
    pub fn measure() -> Calibration {
        let tracer = Tracer::new();
        let probe = Probe::new(&tracer, "calibration", None, ROOT_LAYER);
        let mut cal = Calibration {
            clock_ns: f64::MAX,
            span_inner_ns: f64::MAX,
            span_total_ns: f64::MAX,
        };
        let n = Self::BATCH as f64;
        for _ in 0..Self::BATCHES {
            let t0 = Instant::now();
            for _ in 0..Self::BATCH {
                std::hint::black_box(Instant::now());
            }
            cal.clock_ns = cal.clock_ns.min(t0.elapsed().as_nanos() as f64 / n);
            let inner_before = probe.cell.total_ns();
            let t0 = Instant::now();
            for i in 0..Self::BATCH {
                probe.span(|| std::hint::black_box(i));
            }
            cal.span_total_ns = cal.span_total_ns.min(t0.elapsed().as_nanos() as f64 / n);
            let inner = (probe.cell.total_ns() - inner_before) as f64 / n;
            cal.span_inner_ns = cal.span_inner_ns.min(inner);
        }
        cal
    }

    const BATCH: u64 = 20_000;
    const BATCHES: usize = 25;

    /// The part of a span's cost that lands in its *parent's* time.
    pub fn span_outer_ns(&self) -> f64 {
        (self.span_total_ns - self.span_inner_ns).max(0.0)
    }
}

/// Per-layer times of one traced run, instrumentation cost removed.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `(layer, calls, self_ms)` for every named layer, sorted by name.
    pub layers: Vec<(String, u64, f64)>,
    /// The event loop's own time: traced wall minus every top-level span
    /// (heap, links, routing, slot arena, sampling).
    pub sim_self_ms: f64,
}

impl LayerTimes {
    /// Attribute `traced_wall_s` to the tracer's layers.
    pub fn attribute(tracer: &Tracer, cal: &Calibration, traced_wall_s: f64) -> LayerTimes {
        let cells = tracer.cells();
        let mut names: Vec<&str> = cells.iter().map(|c| c.layer.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let mut top_total_ns = 0.0;
        let mut top_calls = 0u64;
        let mut layers = Vec::new();
        for name in names {
            let (calls, total_ns) = tracer.layer_totals(name);
            let (child_calls, child_ns) = cells
                .iter()
                .filter(|c| c.parent == name)
                .fold((0u64, 0u64), |(n, t), c| (n + c.calls(), t + c.total_ns()));
            let self_ns = total_ns as f64
                - child_ns as f64
                - child_calls as f64 * cal.span_outer_ns()
                - calls as f64 * cal.span_inner_ns;
            layers.push((name.to_string(), calls, self_ns.max(0.0) / 1e6));
            if cells
                .iter()
                .any(|c| c.layer == name && c.parent == ROOT_LAYER)
            {
                top_total_ns += total_ns as f64;
                top_calls += calls;
            }
        }
        let sim_self_ns =
            traced_wall_s * 1e9 - top_total_ns - top_calls as f64 * cal.span_outer_ns();
        LayerTimes {
            layers,
            sim_self_ms: sim_self_ns.max(0.0) / 1e6,
        }
    }

    /// `(calls, self_ms)` of `layer` (zeros when the layer never ran).
    pub fn get(&self, layer: &str) -> (u64, f64) {
        self.layers
            .iter()
            .find(|(n, _, _)| n == layer)
            .map_or((0, 0.0), |&(_, calls, ms)| (calls, ms))
    }

    /// Self time of every named layer plus the event loop, milliseconds.
    pub fn attributed_ms(&self) -> f64 {
        self.sim_self_ms + self.layers.iter().map(|(_, _, ms)| ms).sum::<f64>()
    }
}

/// Layer name of the queue seam.
pub const QUEUE_LAYER: &str = "simnet.queue";
/// Layer name of the sender endpoint seam.
pub const SENDER_LAYER: &str = "transport.sender";
/// Layer name of the receiver endpoint seam.
pub const RECEIVER_LAYER: &str = "transport.receiver";
/// Layer name of the churn driver seam.
pub const WORKLOAD_LAYER: &str = "scenarios.workload";

/// Layer name of a congestion-control algorithm. `name` is the registry
/// name the workload built it by: `CongestionControl::name()` says `pcc`
/// for every PCC utility, which would fold `pcc-lossresilient` into `pcc`.
pub fn cc_layer(name: &str) -> String {
    format!("cc.{name}")
}

/// A queue discipline with its `enqueue`/`dequeue` timed.
pub struct TimedQueue {
    inner: Box<dyn Queue>,
    probe: Probe,
}

impl TimedQueue {
    /// Wrap `inner`, writing to `probe`'s cell.
    pub fn new(inner: Box<dyn Queue>, probe: Probe) -> TimedQueue {
        TimedQueue { inner, probe }
    }
}

impl Queue for TimedQueue {
    fn enqueue(&mut self, pkt: Packet, now: SimTime) -> bool {
        let inner = &mut self.inner;
        self.probe.span(|| inner.enqueue(pkt, now))
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let inner = &mut self.inner;
        self.probe.span(|| inner.dequeue(now))
    }
    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }
    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }
    fn stats(&self) -> pcc_simnet::queue::QueueStats {
        self.inner.stats()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// An endpoint (sender or receiver) with every callback timed.
pub struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    probe: Probe,
}

impl TimedEndpoint {
    /// Wrap `inner`, writing to `probe`'s cell.
    pub fn new(inner: Box<dyn Endpoint>, probe: Probe) -> TimedEndpoint {
        TimedEndpoint { inner, probe }
    }
}

impl Endpoint for TimedEndpoint {
    fn start(&mut self, ctx: &mut EndpointCtx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.start(ctx))
    }
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_packet(pkt, ctx))
    }
    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_timer(token, ctx))
    }
}

/// A congestion-control algorithm with every event callback timed; also
/// counts report deliveries and timeout events, which no product counter
/// exposes.
pub struct TimedCc {
    inner: Box<dyn CongestionControl>,
    probe: Probe,
}

impl TimedCc {
    /// Wrap `inner`, writing to `probe`'s cell (a [`cc_layer`] cell whose
    /// parent is the sender).
    pub fn new(inner: Box<dyn CongestionControl>, probe: Probe) -> TimedCc {
        TimedCc { inner, probe }
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_start(ctx))
    }
    fn on_sent(&mut self, ev: &SentEvent, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_sent(ev, ctx))
    }
    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_ack(ack, ctx))
    }
    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
        if loss.kind == LossKind::Timeout {
            bump(&self.probe.tracer.timeouts, 1);
        }
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_loss(loss, ctx))
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_timer(token, ctx))
    }
    fn report_mode(&self) -> ReportMode {
        self.inner.report_mode()
    }
    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        bump(&self.probe.tracer.reports, 1);
        bump(&self.probe.tracer.timeouts, rep.timeouts as u64);
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_report(rep, ctx))
    }
    fn on_resume(&mut self, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_resume(ctx))
    }
    fn probe_tag(&self) -> Option<u32> {
        self.inner.probe_tag()
    }
}

/// A churn driver with arrival generation (including sender construction)
/// and harvesting timed.
pub struct TimedDriver {
    inner: Box<dyn ChurnDriver>,
    probe: Probe,
}

impl TimedDriver {
    /// Wrap `inner`, writing to `probe`'s cell.
    pub fn new(inner: Box<dyn ChurnDriver>, probe: Probe) -> TimedDriver {
        TimedDriver { inner, probe }
    }
}

impl ChurnDriver for TimedDriver {
    fn next_arrival(&mut self, now: SimTime) -> Option<(SimTime, ChurnFlow)> {
        let inner = &mut self.inner;
        self.probe.span(|| inner.next_arrival(now))
    }
    fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, now: SimTime) {
        let inner = &mut self.inner;
        self.probe.span(|| inner.on_flow_complete(tag, stats, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new();
        let outer = Probe::new(&tracer, "outer", None, ROOT_LAYER);
        let inner = Probe::new(&tracer, "inner", Some(3), "outer");
        let spin = |us: u64| {
            let t = Instant::now();
            while (t.elapsed().as_micros() as u64) < us {}
        };
        let t0 = Instant::now();
        for _ in 0..20 {
            outer.span(|| {
                spin(200);
                inner.span(|| spin(300));
            });
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cal = Calibration {
            clock_ns: 0.0,
            span_inner_ns: 0.0,
            span_total_ns: 0.0,
        };
        let times = LayerTimes::attribute(&tracer, &cal, wall_s);
        let (outer_calls, outer_ms) = times.get("outer");
        let (inner_calls, inner_ms) = times.get("inner");
        assert_eq!((outer_calls, inner_calls), (20, 20));
        // Lower bounds only: a busy box can stretch any span, never shrink
        // one below its spin.
        assert!(inner_ms >= 5.9, "inner self {inner_ms} ms");
        assert!(outer_ms >= 3.9, "outer self {outer_ms} ms");
        // Only `outer` is top-level, and with a zero-cost clock the three
        // self times partition the wall exactly.
        let total = times.attributed_ms();
        assert!((total - wall_s * 1e3).abs() < 1e-3, "{total} vs {wall_s} s");
        assert!(tracer.cells()[1].max_ns() >= 300_000);
    }

    #[test]
    fn one_span_in_4096_is_kept_with_its_parent() {
        let tracer = Tracer::new();
        let outer = Probe::new(&tracer, "outer", None, ROOT_LAYER);
        let inner = Probe::new(&tracer, "inner", None, "outer");
        for _ in 0..SAMPLE_EVERY {
            outer.span(|| inner.span(|| ()));
        }
        let samples = tracer.samples();
        assert_eq!(samples.len(), 2, "8192 spans, one in 4096 kept");
        for s in &samples {
            assert!(s.end_ns >= s.start_ns);
            // Inner spans have even ids and their parent is the outer span
            // opened just before.
            assert_eq!(s.id % 2, 0);
            assert_eq!(s.parent, s.id - 1);
        }
        let mut text = Vec::new();
        tracer.write_jsonl(&mut text).expect("in-memory write");
        let text = String::from_utf8(text).expect("utf-8");
        assert_eq!(text.lines().count(), 4, "two cells + two spans");
        for line in text.lines() {
            Json::parse(line).expect("every line is JSON");
        }
    }
}
