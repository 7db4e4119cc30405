//! The five workloads, built by the benchmark itself on the public
//! `pcc-simnet` / `pcc-transport` / `pcc-scenarios` surface.
//!
//! Each simulator workload has **one** construction, shared by the timed
//! and the traced run; [`Instrument`] — a constructor argument of the
//! benchmark, not a product knob — decides whether the queues, endpoints,
//! algorithms and churn driver handed to the simulator are bare or wrapped
//! in the timing shims of [`crate::trace`]. At [`Scale::FULL`] and seed 1
//! the constructions reproduce the product builders event for event
//! (`run_churn(churn_benchmark_config(300_000, 1))`, `run_dumbbell`,
//! `run_ft_permutation(8, pcc, 4 MiB, 1)`); `tests/benchmark.rs` checks the
//! equality at 1/100 size.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use pcc_experiments::Opts;
use pcc_scenarios::dc::{dc_link, DC_HOP_DELAY, DC_HORIZON};
use pcc_scenarios::workload::{Arrival, SizeCdf};
use pcc_scenarios::Protocol;
use pcc_simnet::link::LinkSchedule;
use pcc_simnet::prelude::*;
use pcc_transport::{
    CcParams, CcSender, CcSenderConfig, FlowSize, ReportMode, SackReceiver, TransportConfig,
};

use crate::catalog::Workload;
use crate::json::Json;
use crate::trace::{
    cc_layer, Probe, TimedCc, TimedDriver, TimedEndpoint, TimedQueue, Tracer, QUEUE_LAYER,
    RECEIVER_LAYER, ROOT_LAYER, SENDER_LAYER, WORKLOAD_LAYER,
};

/// Wire size of every data packet.
pub const MSS: u32 = 1500;

/// Work divisor. The benchmark runs at [`Scale::FULL`]; tests shrink every
/// workload by the same factor so a debug build finishes in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    /// The benchmark's own size.
    pub const FULL: Scale = Scale(1);
}

/// Whether the objects handed to the simulator are bare or timed.
#[derive(Clone)]
pub enum Instrument {
    /// The timed (end-to-end) run: bare product objects.
    Off,
    /// The traced run: every trait seam wrapped, spans go to the tracer.
    On(Arc<Tracer>),
}

/// The probes one sender needs: its own span cell and its algorithm's.
#[derive(Clone)]
struct SenderProbes {
    sender: Probe,
    cc: Probe,
}

impl Instrument {
    fn tracer(&self) -> Option<&Arc<Tracer>> {
        match self {
            Instrument::Off => None,
            Instrument::On(t) => Some(t),
        }
    }

    fn queue(&self, q: Box<dyn Queue>) -> Box<dyn Queue> {
        match self.tracer() {
            None => q,
            Some(t) => Box::new(TimedQueue::new(
                q,
                Probe::new(t, QUEUE_LAYER, None, ROOT_LAYER),
            )),
        }
    }

    /// Probes for a sender running the algorithm labelled `algo`; `flow` is
    /// the static flow index, or `None` when all flows of a churn workload
    /// share one cell per layer.
    fn sender_probes(&self, algo: &str, flow: Option<u32>) -> Option<SenderProbes> {
        self.tracer().map(|t| SenderProbes {
            sender: Probe::new(t, SENDER_LAYER, flow, ROOT_LAYER),
            cc: Probe::new(t, &cc_layer(algo), flow, SENDER_LAYER),
        })
    }

    fn receiver_probe(&self, flow: Option<u32>) -> Option<Probe> {
        self.tracer()
            .map(|t| Probe::new(t, RECEIVER_LAYER, flow, ROOT_LAYER))
    }

    fn driver(&self, d: Box<dyn ChurnDriver>) -> Box<dyn ChurnDriver> {
        match self.tracer() {
            None => d,
            Some(t) => Box::new(TimedDriver::new(
                d,
                Probe::new(t, WORKLOAD_LAYER, None, ROOT_LAYER),
            )),
        }
    }
}

/// What one flow asks of the transport: who controls it, how much it
/// sends, how feedback reaches the algorithm.
struct SenderPlan {
    protocol: Protocol,
    size: FlowSize,
    rtt_hint: SimDuration,
    report: Option<ReportMode>,
    dead_time_budget: Option<SimDuration>,
}

/// `CcSender::new(cfg, cc)` exactly as `Protocol::build_sender_*` wires it
/// (those builders return an opaque endpoint, which leaves no seam around
/// the algorithm), with both objects wrapped when `probes` is given.
fn build_sender(plan: &SenderPlan, probes: Option<&SenderProbes>) -> Box<dyn Endpoint> {
    let params = CcParams::default()
        .with_mss(MSS)
        .with_rtt_hint(plan.rtt_hint);
    let mut cc = plan
        .protocol
        .build_cc(&params)
        .unwrap_or_else(|e| panic!("benchmark workload names an unknown algorithm: {e}"));
    if let Some(p) = probes {
        cc = Box::new(TimedCc::new(cc, p.cc.clone()));
    }
    let cfg = CcSenderConfig {
        transport: TransportConfig {
            mss: MSS,
            size: plan.size,
        },
        report: plan.report,
        dead_time_budget: plan.dead_time_budget,
        ..Default::default()
    };
    let sender: Box<dyn Endpoint> = Box::new(CcSender::new(cfg, cc));
    match probes {
        None => sender,
        Some(p) => Box::new(TimedEndpoint::new(sender, p.sender.clone())),
    }
}

fn build_receiver(probe: Option<Probe>) -> Box<dyn Endpoint> {
    let receiver: Box<dyn Endpoint> = Box::new(SackReceiver::new());
    match probe {
        None => receiver,
        Some(p) => Box::new(TimedEndpoint::new(receiver, p)),
    }
}

/// Final statistics of one flow, from a harvest (churn) or the report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRecord {
    /// Requested size in bytes (0 for unbounded flows).
    pub bytes: u64,
    /// Completion time in simulated seconds, if the flow finished.
    pub fct: Option<f64>,
    /// Unique bytes the receiver accepted.
    pub goodput_bytes: u64,
    /// Data bytes that reached the receiver, duplicates included.
    pub delivered_bytes: u64,
    /// Data packets sent.
    pub sent_packets: u64,
    /// Losses the sender declared.
    pub detected_losses: u64,
}

impl FlowRecord {
    fn of(bytes: u64, stats: &FlowStats) -> FlowRecord {
        FlowRecord {
            bytes,
            fct: stats.fct().map(|d| d.as_secs_f64()),
            goodput_bytes: stats.goodput_bytes,
            delivered_bytes: stats.delivered_bytes,
            sent_packets: stats.sent_packets,
            detected_losses: stats.detected_losses,
        }
    }
}

/// A workload built up to, and not including, its first event.
pub struct Built {
    workload: Workload,
    sim: Simulation,
    horizon: SimTime,
    /// Requested bytes of every static flow (0 = unbounded).
    flow_bytes: u64,
    harvest: Option<Rc<RefCell<Vec<FlowRecord>>>>,
}

/// What a finished simulation left behind. Fields are public so a test can
/// break one on purpose and watch the checks catch it.
pub struct RunData {
    /// Which workload ran.
    pub workload: Workload,
    /// The simulator's report.
    pub report: SimReport,
    /// The horizon the run was given.
    pub horizon: SimTime,
    /// One record per flow: harvest order on churn_web, flow-id order
    /// elsewhere.
    pub flows: Vec<FlowRecord>,
}

/// RNG stream tags of `pcc_scenarios::workload` (`"WLAR"`, `"WLSZ"`;
/// private there). Copied so churn_web draws the very arrivals and sizes
/// `run_churn` would; the product-equality test fails if they drift.
const ARRIVAL_STREAM: u64 = 0x574C_4152_0000_0000;
const SIZE_STREAM: u64 = 0x574C_535A_0000_0000;

/// The open-loop generator of churn_web: Poisson gaps and cache-follower
/// sizes from two derived streams, one arrival of look-ahead.
struct ChurnGenerator {
    plan: SenderPlan,
    probes: Option<SenderProbes>,
    receiver_probe: Option<Probe>,
    fwd_path: Vec<LinkId>,
    rev_path: Vec<LinkId>,
    arr_rng: SimRng,
    size_rng: SimRng,
    arrival: Arrival,
    cdf: SizeCdf,
    remaining: u64,
    clock_secs: f64,
    harvest: Rc<RefCell<Vec<FlowRecord>>>,
}

impl ChurnDriver for ChurnGenerator {
    fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock_secs += self.arrival.gap_secs(&mut self.arr_rng);
        let bytes = self.cdf.sample(&mut self.size_rng);
        self.plan.size = FlowSize::Bytes(bytes);
        Some((
            SimTime::from_secs_f64(self.clock_secs),
            ChurnFlow {
                sender: build_sender(&self.plan, self.probes.as_ref()),
                receiver: build_receiver(self.receiver_probe.clone()),
                fwd_path: self.fwd_path.clone(),
                rev_path: self.rev_path.clone(),
                tag: bytes,
            },
        ))
    }

    fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, _now: SimTime) {
        self.harvest.borrow_mut().push(FlowRecord::of(tag, stats));
    }
}

/// The shared-bottleneck dumbbell of `run_dumbbell` / `run_churn`: a
/// source host, a middle switch, the rated edge between them, and per
/// receiver a pair of pure-delay shims that carry the RTT.
struct Dumbbell {
    topo: Topology,
    src: NodeId,
    mid: NodeId,
}

impl Dumbbell {
    fn new(bottleneck: LinkConfig) -> Dumbbell {
        let mut topo = Topology::new();
        let src = topo.add_host();
        let mid = topo.add_switch();
        topo.add_link(src, mid, bottleneck);
        Dumbbell { topo, src, mid }
    }

    fn add_receiver(&mut self, rtt: SimDuration) -> NodeId {
        let half = rtt / 2;
        let recv = self.topo.add_host();
        self.topo
            .add_link(self.mid, recv, LinkConfig::delay_only(half));
        self.topo
            .add_link(recv, self.src, LinkConfig::delay_only(rtt - half));
        recv
    }
}

fn bottleneck(rate_bps: f64, loss: f64, queue: Box<dyn Queue>, shaper: ShaperConfig) -> LinkConfig {
    LinkConfig {
        rate_bps: Some(rate_bps),
        delay: SimDuration::ZERO,
        loss,
        queue,
        schedule: LinkSchedule::new(),
        shaper,
    }
}

/// Build `workload` from `seed`, ready to run.
///
/// # Panics
/// On [`Workload::FigsJobs2`], which is not a single simulation (see
/// [`run_figs`]).
pub fn build(workload: Workload, seed: u64, scale: Scale, instr: &Instrument) -> Built {
    pcc_scenarios::install_registry();
    let div = scale.0.max(1);
    match workload {
        Workload::ChurnWeb => build_churn_web(seed, 300_000 / div, instr),
        Workload::BulkPcc1g => build_bulk_pcc(seed, 1e9 / div as f64, instr),
        Workload::FabricPerm => build_fabric_perm(seed, (4 << 20) / div, instr),
        Workload::LossyMix => build_lossy_mix(seed, 400 / div, instr),
        Workload::FigsJobs2 => panic!("figs_jobs2 is run by run_figs, not built as a simulation"),
    }
}

/// `run_churn(churn_benchmark_config(flows, seed))`, rebuilt on the public
/// surface: cache-follower sizes, Poisson arrivals at 80% of 1 Gbps, a
/// 10 ms / 1.25 MB drop-tail dumbbell, cubic, 10 s dead-time budget, 10 s
/// of drain after the last arrival.
fn build_churn_web(seed: u64, flows: u64, instr: &Instrument) -> Built {
    let rate_bps = 1e9;
    let rtt = SimDuration::from_millis(10);
    let cdf = SizeCdf::builtin("cache-follower").expect("bundled CDF");
    let arrival = Arrival::poisson_for_load(0.8, rate_bps, cdf.mean_bytes());
    let master = SimRng::new(seed);
    // `derive` is consumption-independent: this probe stream is the one
    // the generator will draw from.
    let mut probe = master.derive(ARRIVAL_STREAM);
    let last_arrival: f64 = (0..flows).map(|_| arrival.gap_secs(&mut probe)).sum();
    let horizon = SimTime::from_secs_f64(last_arrival) + SimDuration::from_secs(10);

    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval: SimDuration::from_secs(1),
        seed,
    });
    let mut db = Dumbbell::new(bottleneck(
        rate_bps,
        0.0,
        instr.queue(Box::new(DropTail::bytes(1_250_000))),
        ShaperConfig::default(),
    ));
    let recv = db.add_receiver(rtt);
    db.topo.install(&mut net);
    let path = db.topo.flow_path(db.src, recv, 0);

    let harvest = Rc::new(RefCell::new(Vec::with_capacity(flows as usize)));
    net.set_churn_driver(instr.driver(Box::new(ChurnGenerator {
        plan: SenderPlan {
            protocol: Protocol::Tcp("cubic"),
            size: FlowSize::Infinite,
            rtt_hint: rtt,
            report: None,
            dead_time_budget: Some(SimDuration::from_secs(10)),
        },
        probes: instr.sender_probes("cubic", None),
        receiver_probe: instr.receiver_probe(None),
        fwd_path: path.fwd,
        rev_path: path.rev,
        arr_rng: master.derive(ARRIVAL_STREAM),
        size_rng: master.derive(SIZE_STREAM),
        arrival,
        cdf,
        remaining: flows,
        clock_secs: 0.0,
        harvest: Rc::clone(&harvest),
    })));
    net.set_record_series(false);
    Built {
        workload: Workload::ChurnWeb,
        sim: net.build(),
        horizon,
        flow_bytes: 0,
        harvest: Some(harvest),
    }
}

/// A `run_dumbbell` scenario: `plans[i]` is flow `i`, labelled for the
/// trace by `labels[i]`, starting at `starts[i]`.
fn build_dumbbell(
    workload: Workload,
    seed: u64,
    link: LinkConfig,
    rtt: SimDuration,
    flows: Vec<(&'static str, SenderPlan, SimTime)>,
    horizon: SimTime,
    instr: &Instrument,
) -> Built {
    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval: SimDuration::from_millis(100),
        seed,
    });
    let mut db = Dumbbell::new(link);
    let receivers: Vec<NodeId> = flows.iter().map(|_| db.add_receiver(rtt)).collect();
    db.topo.install(&mut net);
    for (i, ((label, plan, start_at), recv)) in flows.iter().zip(receivers).enumerate() {
        let path = db.topo.flow_path(db.src, recv, 0);
        let flow = Some(i as u32);
        net.add_flow(FlowSpec {
            sender: build_sender(plan, instr.sender_probes(label, flow).as_ref()),
            receiver: build_receiver(instr.receiver_probe(flow)),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: *start_at,
        });
    }
    Built {
        workload,
        sim: net.build(),
        horizon,
        flow_bytes: 0,
        harvest: None,
    }
}

/// Four `pcc` flows starting 1 s apart on `rate_bps` / 30 ms with one BDP
/// of drop-tail buffer, 10 simulated seconds.
fn build_bulk_pcc(seed: u64, rate_bps: f64, instr: &Instrument) -> Built {
    let rtt = SimDuration::from_millis(30);
    let bdp_bytes = (rate_bps * rtt.as_secs_f64() / 8.0) as u64;
    let flows = (0..4)
        .map(|i| {
            let plan = SenderPlan {
                protocol: Protocol::pcc_default(rtt),
                size: FlowSize::Infinite,
                rtt_hint: rtt,
                report: None,
                dead_time_budget: None,
            };
            ("pcc", plan, SimTime::from_secs(i))
        })
        .collect();
    let link = bottleneck(
        rate_bps,
        0.0,
        instr.queue(Box::new(DropTail::bytes(bdp_bytes))),
        ShaperConfig::default(),
    );
    build_dumbbell(
        Workload::BulkPcc1g,
        seed,
        link,
        rtt,
        flows,
        SimTime::from_secs(10),
        instr,
    )
}

/// cubic (batched), bbr, illinois (batched) and pcc-lossresilient sharing
/// 100 Mbps / 20 ms / 1 BDP of FQ-CoDel with 0.3% random loss, 2 ms of
/// uniform jitter and 2% reordering of depth 4.
fn build_lossy_mix(seed: u64, sim_secs: u64, instr: &Instrument) -> Built {
    let rtt = SimDuration::from_millis(20);
    let batched = Some(ReportMode::batched_rtt());
    let flows = [
        ("cubic", Protocol::Tcp("cubic"), batched),
        ("bbr", Protocol::Named("bbr".into()), None),
        ("illinois", Protocol::Tcp("illinois"), batched),
        (
            "pcc-lossresilient",
            Protocol::Named("pcc-lossresilient".into()),
            None,
        ),
    ]
    .into_iter()
    .map(|(label, protocol, report)| {
        let plan = SenderPlan {
            protocol,
            size: FlowSize::Infinite,
            rtt_hint: rtt,
            report,
            dead_time_budget: None,
        };
        (label, plan, SimTime::ZERO)
    })
    .collect();
    let jitter = JitterConfig::uniform(SimDuration::from_millis(2)).with_reordering(0.02, 4);
    let link = bottleneck(
        100e6,
        0.003,
        instr.queue(Box::new(fq_codel(250_000))),
        ShaperConfig::default().with_jitter(jitter),
    );
    build_dumbbell(
        Workload::LossyMix,
        seed,
        link,
        rtt,
        flows,
        SimTime::from_secs(sim_secs.max(1)),
        instr,
    )
}

/// `run_ft_permutation(8, pcc, flow_bytes, seed)`: host `i` sends to host
/// `i + 64` across a k=8 fat-tree of `dc_link()` edges, ECMP-routed.
fn build_fabric_perm(seed: u64, flow_bytes: u64, instr: &Instrument) -> Built {
    let spec = dc_link();
    let mut ft = fat_tree(8, spec, spec);
    // `fat_tree` owns its link configs, so there is no way to hand it
    // wrapped queues. Install the graph into a scratch builder — that only
    // assigns link ids (edge order) so routes resolve — and add the same
    // links, queues wrapped or not, to the real builder in the same order.
    let mut scratch = NetworkBuilder::new(SimConfig::default());
    ft.topo.install(&mut scratch);
    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval: SimDuration::from_millis(100),
        seed,
    });
    for _ in 0..ft.topo.num_edges() {
        let queue = instr.queue(Box::new(DropTail::bytes(spec.buffer_bytes)));
        net.add_link(spec.config().with_queue(queue));
    }
    let n = ft.hosts.len();
    for src in 0..n {
        let dst = (src + n / 2) % n;
        let path = ft
            .topo
            .flow_path(ft.hosts[src], ft.hosts[dst], ecmp_key(seed, src as u64));
        let rtt_hint = DC_HOP_DELAY * (path.fwd.len() + path.rev.len()) as u64;
        let plan = SenderPlan {
            protocol: Protocol::pcc_default(rtt_hint),
            size: FlowSize::Bytes(flow_bytes),
            rtt_hint,
            report: None,
            dead_time_budget: None,
        };
        let flow = Some(src as u32);
        net.add_flow(FlowSpec {
            sender: build_sender(&plan, instr.sender_probes("pcc", flow).as_ref()),
            receiver: build_receiver(instr.receiver_probe(flow)),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
    }
    Built {
        workload: Workload::FabricPerm,
        sim: net.build(),
        horizon: DC_HORIZON,
        flow_bytes,
        harvest: None,
    }
}

impl Built {
    /// Run to the horizon.
    pub fn run(self) -> RunData {
        let report = self.sim.run_until(self.horizon);
        let flows = match self.harvest {
            Some(h) => Rc::try_unwrap(h)
                .expect("the generator is dropped with the simulation")
                .into_inner(),
            None => report
                .flows
                .iter()
                .map(|stats| FlowRecord::of(self.flow_bytes, stats))
                .collect(),
        };
        RunData {
            workload: self.workload,
            report,
            horizon: self.horizon,
            flows,
        }
    }
}

/// The numbers every repetition of a workload must reproduce bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exact {
    /// Events the simulator processed (0 on figs_jobs2).
    pub events: u64,
    /// Unique bytes delivered, all flows (0 on figs_jobs2).
    pub goodput_bytes: u64,
    /// FNV-1a over every flow's (size, FCT bits, goodput, delivered, sent,
    /// losses) in order — or over the CSV bytes on figs_jobs2.
    pub fct_hash: u64,
}

impl Exact {
    /// As a JSON object (the hash in hex: it does not fit a JSON number).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("events", self.events)
            .with("goodput_bytes", self.goodput_bytes)
            .with("fct_hash", format!("{:016x}", self.fct_hash))
    }

    /// Back from [`Exact::to_json`].
    pub fn from_json(j: &Json) -> Option<Exact> {
        Some(Exact {
            events: j.get("events")?.num()? as u64,
            goodput_bytes: j.get("goodput_bytes")?.num()? as u64,
            fct_hash: u64::from_str_radix(j.get("fct_hash")?.str()?, 16).ok()?,
        })
    }
}

/// Operations and output checks: how many were attempted, how many failed,
/// and why.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Flows or table cells attempted, plus output checks made.
    pub attempted: u64,
    /// Operations that failed, plus output checks violated.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// Add another tally's counts and failures to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }

    /// `failed / attempted`, percent.
    pub fn failed_pct(&self) -> f64 {
        self.failed as f64 * 100.0 / self.attempted.max(1) as f64
    }
}

/// One workload run, summarised.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The bit-exact fingerprint.
    pub exact: Exact,
    /// Operations (flows, table cells) and output checks.
    pub tally: Tally,
    /// Simulated results and exact counts, by catalog metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The value recorded under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find_map(|&(n, v)| (n == name).then_some(v))
    }
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    /// Mix one word in.
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl RunData {
    /// Reduce the run to metrics, count failed operations and apply the
    /// output checks.
    pub fn summarise(&self) -> Outcome {
        let r = &self.report;
        let mut out = Outcome {
            exact: Exact {
                events: r.events_processed,
                goodput_bytes: self.flows.iter().map(|f| f.goodput_bytes).sum(),
                fct_hash: 0,
            },
            tally: Tally::default(),
            values: Vec::new(),
        };
        let mut hash = Fnv::new();
        for f in &self.flows {
            hash.mix(f.bytes);
            hash.mix(f.fct.map_or(u64::MAX, f64::to_bits));
            hash.mix(f.goodput_bytes);
            hash.mix(f.delivered_bytes);
            hash.mix(f.sent_packets);
            hash.mix(f.detected_losses);
        }
        out.exact.fct_hash = hash.finish();

        // Operations. Sized flows must complete; unbounded flows must
        // still be delivering in the last quarter of the run.
        let sized = self.workload == Workload::ChurnWeb || self.flows.iter().any(|f| f.bytes > 0);
        if sized {
            // A churn flow still live at the horizon was never harvested:
            // it is an arrival without a record.
            let arrivals = match self.workload {
                Workload::ChurnWeb => r.churn.arrivals,
                _ => self.flows.len() as u64,
            };
            let completed = self.flows.iter().filter(|f| f.fct.is_some()).count() as u64;
            let unfinished = arrivals.saturating_sub(completed);
            out.tally.ops(arrivals, unfinished, || {
                format!("{unfinished} of {arrivals} sized flows did not complete")
            });
        } else {
            let end = self.horizon;
            let from = SimTime::from_nanos(end.as_nanos() / 4 * 3);
            for i in 0..self.flows.len() {
                let tail = r.avg_goodput_mbps(FlowId(i as u32), from, end);
                out.tally.check(tail > 0.0, || {
                    format!("flow {i} delivered nothing in the last quarter")
                });
            }
        }

        // Output checks.
        if self.workload == Workload::ChurnWeb {
            let c = r.churn;
            out.tally.check(
                c.arrivals == c.completions + c.stalls + c.live_at_end,
                || format!("churn conservation broken: {c:?}"),
            );
            out.tally
                .check(self.flows.len() as u64 == c.completions + c.stalls, || {
                    format!(
                        "{} harvests for {} retirements",
                        self.flows.len(),
                        c.completions + c.stalls
                    )
                });
        }
        let mut offered = 0u64;
        let mut transmitted = 0u64;
        let mut reordered = 0u64;
        let mut enqueued = 0u64;
        let mut dropped = 0u64;
        let mut max_backlog = 0u64;
        let mut links_ok = true;
        for l in &r.links {
            let s = l.stats;
            links_ok &= s.offered >= s.transmitted + l.queue.dropped() + s.policed;
            offered += s.offered;
            transmitted += s.transmitted;
            reordered += s.reordered;
            enqueued += l.queue.enqueued;
            dropped += l.queue.dropped();
            max_backlog = max_backlog.max(l.queue.max_backlog_bytes);
        }
        out.tally.check(links_ok, || {
            "a link transmitted + dropped more packets than it was offered".to_string()
        });

        // Simulated results.
        let fcts: Vec<f64> = self.flows.iter().filter_map(|f| f.fct).collect();
        let all_done = sized && fcts.len() == self.flows.len() && !fcts.is_empty();
        // A closed set of equal sized flows is rated over its *median* flow
        // completion time: the last completion is an extreme of 128 ECMP
        // draws and moves by a quarter from seed to seed (the mean, pulled
        // by that tail, by 6%), the median by 1%. Everything else is
        // measured over the horizon.
        let sim_secs = if self.workload == Workload::FabricPerm && all_done {
            percentile(&fcts, 50.0)
        } else {
            self.horizon.as_secs_f64()
        };
        let sent: u64 = self.flows.iter().map(|f| f.sent_packets).sum();
        let losses: u64 = self.flows.iter().map(|f| f.detected_losses).sum();
        let delivered: u64 = self.flows.iter().map(|f| f.delivered_bytes).sum();
        let pct = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 * 100.0 / den as f64
            }
        };
        let jain = if sized {
            0.0
        } else {
            let half = SimTime::from_nanos(self.horizon.as_nanos() / 2);
            let shares: Vec<f64> = (0..self.flows.len())
                .map(|i| r.avg_goodput_mbps(FlowId(i as u32), half, self.horizon))
                .collect();
            jain_index(&shares)
        };
        let (p50, p99) = if sized {
            (percentile(&fcts, 50.0) * 1e3, percentile(&fcts, 99.0) * 1e3)
        } else {
            (0.0, 0.0)
        };
        out.values = vec![
            (
                "sim_goodput_mbps",
                out.exact.goodput_bytes as f64 * 8.0 / sim_secs / 1e6,
            ),
            ("sim_fct_p50_ms", p50),
            ("sim_fct_p99_ms", p99),
            ("sim_fct_n", if sized { fcts.len() as f64 } else { 0.0 }),
            ("sim_loss_pct", pct(losses, sent)),
            ("sim_jain", jain),
            ("simnet.sim.events", r.events_processed as f64),
            ("simnet.link.offered", offered as f64),
            ("simnet.link.transmitted", transmitted as f64),
            ("simnet.link.reordered", reordered as f64),
            ("simnet.queue.enqueued", enqueued as f64),
            ("simnet.queue.dropped", dropped as f64),
            ("simnet.queue.max_backlog_kb", max_backlog as f64 / 1e3),
            ("simnet.sim.churn_arrivals", r.churn.arrivals as f64),
            ("simnet.sim.peak_live_slots", r.churn.peak_live as f64),
            ("simnet.sim.recycled", r.churn.recycled as f64),
            ("simnet.sim.stale_packets", r.churn.stale_packets as f64),
            (
                "scenarios.workload.flows",
                if self.workload == Workload::ChurnWeb {
                    r.churn.arrivals as f64
                } else {
                    0.0
                },
            ),
            ("transport.sender.sent_packets", sent as f64),
            ("transport.sender.detected_losses", losses as f64),
            (
                "transport.sender.retx_pct",
                pct(
                    delivered - out.exact.goodput_bytes.min(delivered),
                    delivered,
                ),
            ),
        ];
        out
    }
}

/// Counts only the traced run can make, at the algorithm boundary.
pub fn traced_counts(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    vec![
        (
            "transport.report.reports",
            tracer.reports.load(Relaxed) as f64,
        ),
        (
            "transport.sender.timeouts",
            tracer.timeouts.load(Relaxed) as f64,
        ),
    ]
}

/// The experiments figs_jobs2 runs, by registry id, with the CSV each
/// writes.
const FIGS: [(&str, &str); 2] = [
    ("fig07", "fig07_loss.csv"),
    ("fig14", "fig14_friendliness.csv"),
];

/// figs_jobs2, set up: the registry entries resolved and an empty output
/// directory.
pub struct Figs {
    runs: Vec<fn(&Opts) -> Vec<pcc_experiments::Table>>,
    opts: Opts,
}

/// What the experiments wrote.
pub struct FigsData {
    /// `(file name, bytes)` per experiment, in [`FIGS`] order.
    pub csvs: Vec<(String, Vec<u8>)>,
}

/// Resolve fig07 and fig14 in `pcc_experiments::registry()` and prepare
/// `out_dir` (emptied first, so a stale CSV can never pass for output).
pub fn setup_figs(seed: u64, jobs: usize, out_dir: &Path) -> std::io::Result<Figs> {
    let registry = pcc_experiments::registry();
    let runs = FIGS
        .iter()
        .map(|(id, _)| {
            registry
                .iter()
                .find(|(rid, _, _)| rid == id)
                .map(|&(_, _, run)| run)
                .unwrap_or_else(|| panic!("experiment {id} left the registry"))
        })
        .collect();
    let _ = std::fs::remove_dir_all(out_dir);
    std::fs::create_dir_all(out_dir)?;
    Ok(Figs {
        runs,
        opts: Opts {
            full: false,
            out_dir: PathBuf::from(out_dir),
            seed,
            jobs,
        },
    })
}

impl Figs {
    /// Run both experiments (tables go to stdout, as for any user of
    /// `pcc-experiments`) and read back what they wrote.
    pub fn run(self) -> std::io::Result<FigsData> {
        for run in &self.runs {
            run(&self.opts);
        }
        let csvs = FIGS
            .iter()
            .map(|(_, file)| {
                std::fs::read(self.opts.out_dir.join(file)).map(|bytes| (file.to_string(), bytes))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        std::fs::remove_dir_all(&self.opts.out_dir)?;
        Ok(FigsData { csvs })
    }
}

impl FigsData {
    /// Table cells are the operations: each must be a finite number.
    pub fn summarise(&self) -> Outcome {
        let mut hash = Fnv::new();
        let mut out = Outcome {
            exact: Exact {
                events: 0,
                goodput_bytes: 0,
                fct_hash: 0,
            },
            tally: Tally::default(),
            values: Vec::new(),
        };
        let mut cells_per_csv = Vec::new();
        // PCC's throughput in the fig07 rows up to 1% loss: the paper's
        // Fig. 7 claim. Their median is steady from seed to seed; the cells
        // around each algorithm's collapse point are not, and one seed in
        // ten collapses PCC's 1% cell already.
        let mut headline = Vec::new();
        for (file, bytes) in &self.csvs {
            bytes.iter().for_each(|&b| hash.mix(b as u64));
            let text = String::from_utf8_lossy(bytes);
            let mut cells = 0u64;
            let header: Vec<&str> = text.lines().next().unwrap_or("").split(',').collect();
            let width = header.len();
            // Header row and the label column carry no results.
            for row in text.lines().skip(1) {
                // fig14 labels look like `10Mbps,10ms`: split from the
                // right, the label keeps whatever is left.
                let low_loss = row
                    .split(',')
                    .next()
                    .and_then(|l| l.parse::<f64>().ok())
                    .is_some_and(|loss| loss <= 0.01);
                for (from_right, cell) in row.rsplit(',').take(width.saturating_sub(1)).enumerate()
                {
                    cells += 1;
                    match cell.trim().parse::<f64>() {
                        Ok(v) if v.is_finite() => {
                            let column = header[width - 1 - from_right];
                            if file.starts_with("fig07") && column == "pcc" && low_loss {
                                headline.push(v);
                            }
                        }
                        _ => out.tally.ops(0, 1, || {
                            format!("{file}: cell {cell:?} is not a finite number")
                        }),
                    }
                }
            }
            out.tally
                .check(cells > 0, || format!("{file} has no result cells"));
            out.tally.attempted += cells;
            cells_per_csv.push(cells);
        }
        out.tally.check(!headline.is_empty(), || {
            "fig07 has no pcc cells at loss <= 1%".to_string()
        });
        out.exact.fct_hash = hash.finish();
        let fig07_cells = cells_per_csv.first().copied().unwrap_or(0);
        let fig14_cells = cells_per_csv.get(1).copied().unwrap_or(0);
        let csv_bytes: usize = self.csvs.iter().map(|(_, b)| b.len()).sum();
        out.values = vec![
            ("sim_goodput_mbps", percentile(&headline, 50.0)),
            // One simulation per fig07 cell; fig14 divides two.
            (
                "experiments.runner.jobs",
                (fig07_cells + 2 * fig14_cells) as f64,
            ),
            ("experiments.table.csv_bytes", csv_bytes as f64),
        ];
        out
    }
}
