//! The one scenario builder: a topology, the flows on it, optional faults
//! and churn, run to a horizon.
//!
//! Every `run_*` in this crate is data in, reduction out: it describes a
//! [`Scenario`], calls [`Scenario::run`], and returns the [`ScenarioRun`]
//! or a reduction of it. This module is the only place a simulation is
//! wired — network builder, topology installation, path resolution, fault
//! plane, churn driver, senders and receivers — so link-id order, per-link
//! RNG streams, ECMP keys and flow-id order are decided once:
//!
//! * edges install in edge-id order;
//! * static flow `i` (in [`Scenario::flows`] order) becomes `FlowId(i)` and
//!   is routed under [`ecmp_key`]`(seed, i)`;
//! * each sender's RTT hint is its resolved path's
//!   [`FlowPath::base_rtt`](pcc_simnet::topology::FlowPath::base_rtt) — the
//!   sum of the configured propagation delays it crosses, both ways. A
//!   [`Protocol`] is a registry spec and carries no RTT, so this is the
//!   only hint any algorithm sees;
//! * with a fault script, the plane copies the topology's router and
//!   registers every static flow, so node failures re-route them.

use pcc_simnet::prelude::*;
use pcc_transport::{FlowSize, ReportMode, SackReceiver};

use crate::protocol::Protocol;

/// One flow between two hosts of the scenario's topology.
pub struct Flow {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// What drives the sender (a registry spec).
    pub protocol: Protocol,
    /// How much it sends.
    pub size: FlowSize,
    /// When it starts.
    pub start_at: SimTime,
    /// Feedback granularity override (`None` = the algorithm's own
    /// preference).
    pub report: Option<ReportMode>,
    /// Abort as a typed stall after this long without forward progress.
    pub dead_time_budget: Option<SimDuration>,
}

impl Flow {
    /// An infinite flow starting at t=0 with default feedback and no
    /// dead-time budget.
    pub fn new(src: NodeId, dst: NodeId, protocol: Protocol) -> Self {
        Flow {
            src,
            dst,
            protocol,
            size: FlowSize::Infinite,
            start_at: SimTime::ZERO,
            report: None,
            dead_time_budget: None,
        }
    }
}

/// The workload side of an open-loop churn run: when flows arrive and how
/// big they are, and what to keep of each once it retires.
pub trait Arrivals {
    /// The next arrival `(time, size in bytes)`, or `None` when the
    /// workload is exhausted. Times must be non-decreasing.
    fn next_arrival(&mut self) -> Option<(SimTime, u64)>;

    /// A flow of `bytes` retired (completed or stalled) with `stats`.
    fn on_flow_complete(&mut self, bytes: u64, stats: &FlowStats);
}

/// Open-loop flow churn: every arrival is a fresh copy of `flow` (its
/// `size` and `start_at` replaced by the arrival's), admitted lazily and
/// recycled through the simulator's slot arena.
pub struct Churn {
    /// Template for every arriving flow.
    pub flow: Flow,
    /// The arrival process.
    pub arrivals: Box<dyn Arrivals>,
}

/// A complete simulation description.
pub struct Scenario {
    /// The network graph (not yet installed).
    pub topology: Topology,
    /// Static flows, in flow-id order.
    pub flows: Vec<Flow>,
    /// Fault script injected into the run.
    pub faults: Option<FaultScript>,
    /// Open-loop churn workload (turns per-flow sampled series off: a churn
    /// run keeps aggregates and FCTs only).
    pub churn: Option<Churn>,
    /// Stats sampling interval.
    pub sample_interval: SimDuration,
    /// Master seed: simulator streams and ECMP keys derive from it.
    pub seed: u64,
}

/// What [`Scenario::run`] hands back for reduction.
pub struct ScenarioRun {
    /// Full simulator report.
    pub report: SimReport,
    /// The static flows, in [`Scenario::flows`] order.
    pub flows: Vec<FlowId>,
    /// The installed topology (edge → link lookups, utilization).
    pub topology: Topology,
}

impl ScenarioRun {
    /// Whole-lifetime average delivered throughput of flow `i`, Mbit/s.
    pub fn throughput_mbps(&self, i: usize) -> f64 {
        self.report.flow_throughput_mbps(self.flows[i])
    }

    /// Average throughput of flow `i` over `[from, to]`, Mbit/s.
    pub fn throughput_in(&self, i: usize, from: SimTime, to: SimTime) -> f64 {
        self.report.avg_throughput_mbps(self.flows[i], from, to)
    }

    /// Sender-observed loss rate of flow `i`.
    pub fn loss_rate(&self, i: usize) -> f64 {
        self.report.flows[self.flows[i].index()].loss_rate()
    }

    /// Mean RTT of flow `i`, milliseconds.
    pub fn mean_rtt_ms(&self, i: usize) -> f64 {
        self.report.flows[self.flows[i].index()]
            .mean_rtt()
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN)
    }

    /// Flow completion time of flow `i`, if it finished.
    pub fn fct(&self, i: usize) -> Option<SimDuration> {
        self.report.flows[self.flows[i].index()].fct()
    }
}

impl Scenario {
    /// A scenario on `topology` with no flows, faults or churn, sampled
    /// every 100 ms.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Scenario {
            topology,
            flows: Vec::new(),
            faults: None,
            churn: None,
            sample_interval: SimDuration::from_millis(100),
            seed,
        }
    }

    /// Wire the simulation and run it until `horizon`.
    ///
    /// # Panics
    /// If a flow names an algorithm the registry cannot build.
    pub fn run(self, horizon: SimTime) -> ScenarioRun {
        let Scenario {
            mut topology,
            flows,
            faults,
            churn,
            sample_interval,
            seed,
        } = self;
        let mut net = NetworkBuilder::new(SimConfig {
            sample_interval,
            seed,
        });
        topology.install(&mut net);
        let mut plane = faults.map(|script| {
            let mut plane = FaultPlane::new(script);
            plane.attach_topology(&topology);
            plane
        });
        let mut ids = Vec::with_capacity(flows.len());
        for (i, flow) in flows.into_iter().enumerate() {
            let key = ecmp_key(seed, i as u64);
            let path = topology.flow_path(flow.src, flow.dst, key);
            let id = net.add_flow(FlowSpec {
                sender: build_sender(&flow, flow.size, path.base_rtt),
                receiver: Box::new(SackReceiver::new()),
                fwd_path: path.fwd,
                rev_path: path.rev,
                start_at: flow.start_at,
            });
            if let Some(plane) = plane.as_mut() {
                plane.register_flow(id, flow.src, flow.dst, key);
            }
            ids.push(id);
        }
        if let Some(Churn { flow, arrivals }) = churn {
            let key = ecmp_key(seed, ids.len() as u64);
            let path = topology.flow_path(flow.src, flow.dst, key);
            net.set_churn_driver(Box::new(ChurnAdapter {
                flow,
                path,
                arrivals,
            }));
            net.set_record_series(false);
        }
        if let Some(plane) = plane {
            net.set_fault_plane(plane);
        }
        ScenarioRun {
            report: net.build().run_until(horizon),
            flows: ids,
            topology,
        }
    }
}

/// `flow`'s sender for a transfer of `size` on a path of `base_rtt`: a
/// function of the [`Flow`] alone, for static flows and churn arrivals
/// alike.
fn build_sender(flow: &Flow, size: FlowSize, base_rtt: SimDuration) -> Box<dyn Endpoint> {
    flow.protocol
        .build_sender(size, base_rtt, flow.report, flow.dead_time_budget)
        .unwrap_or_else(|e| panic!("scenario references an unknown algorithm: {e}"))
}

/// [`Arrivals`] as the simulator's churn driver: every arrival becomes a
/// sender/receiver pair of the template `flow` on its resolved path,
/// tagged with its size.
struct ChurnAdapter {
    flow: Flow,
    path: FlowPath,
    arrivals: Box<dyn Arrivals>,
}

impl ChurnDriver for ChurnAdapter {
    fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
        let (at, bytes) = self.arrivals.next_arrival()?;
        let flow = ChurnFlow {
            sender: build_sender(&self.flow, FlowSize::Bytes(bytes), self.path.base_rtt),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: self.path.fwd.clone(),
            rev_path: self.path.rev.clone(),
            tag: bytes,
        };
        Some((at, flow))
    }

    fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, _now: SimTime) {
        self.arrivals.on_flow_complete(tag, stats);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};

    use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent};
    use pcc_transport::{registry, MeasurementReport};

    use super::*;
    use crate::protocol::MSS;

    #[test]
    fn the_routed_path_is_the_only_rtt_hint() {
        // Fig. 11's shape: 50 ms of RTT shims around a bottleneck that
        // carries 11 ms of its own. A caller's idea of the RTT reaches no
        // sender — `pcc_default`'s argument is ignored — so PCC starts at
        // 2·MSS per *routed* base RTT, like every other algorithm.
        let mut db = Dumbbell::graph(LinkConfig::bottleneck(
            100e6,
            SimDuration::from_millis(11),
            64_000,
        ));
        let dst = db.add_receiver(SimDuration::from_millis(50), 0.0);
        let protocol = Protocol::pcc_default(SimDuration::from_millis(50));
        let flow = Flow::new(db.source(), dst, protocol);
        let mut scenario = Scenario::new(db.into_topology(), 1);
        scenario.flows = vec![flow];
        // Sample the rate at 0.5 ms, well inside PCC's first interval.
        scenario.sample_interval = SimDuration::from_micros(500);
        let run = scenario.run(SimTime::from_millis(1));
        let first_rate = run.report.flows[0].series.rate_mbps[0] * 1e6;
        let want = 2.0 * f64::from(MSS) * 8.0 / 0.061;
        assert!(
            (first_rate - want).abs() < 1e-6 * want,
            "started at {first_rate} bit/s, 2·MSS/61 ms is {want}"
        );
    }

    /// Reports delivered to [`ReportsOnly`] across the process.
    static REPORTS: AtomicU64 = AtomicU64::new(0);

    /// A fixed 2 Mbit/s sender that prefers per-ACK events (the trait
    /// default) and panics on one: it runs only on a flow whose engine
    /// was told to batch.
    struct ReportsOnly;

    impl CongestionControl for ReportsOnly {
        fn name(&self) -> &'static str {
            "reports-only"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(2e6);
        }
        fn on_ack(&mut self, _: &AckEvent, _: &mut Ctx) {
            panic!("a per-ACK event reached a flow that should batch");
        }
        fn on_loss(&mut self, _: &LossEvent, _: &mut Ctx) {
            panic!("a per-event loss reached a flow that should batch");
        }
        fn on_report(&mut self, _: &MeasurementReport, _: &mut Ctx) {
            REPORTS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `left` arrivals 100 ms apart, each too large to finish; keeps
    /// `(stalled, delivered bytes)` of every retired flow.
    struct Spaced {
        left: u64,
        at: SimTime,
        retired: Rc<RefCell<Vec<(bool, u64)>>>,
    }

    impl Arrivals for Spaced {
        fn next_arrival(&mut self) -> Option<(SimTime, u64)> {
            self.left = self.left.checked_sub(1)?;
            self.at += SimDuration::from_millis(100);
            Some((self.at, 1 << 30))
        }

        fn on_flow_complete(&mut self, _bytes: u64, stats: &FlowStats) {
            let stalled = stats.stalled.is_some();
            self.retired
                .borrow_mut()
                .push((stalled, stats.delivered_bytes));
        }
    }

    #[test]
    fn every_churn_arrival_is_built_from_the_template_flow() {
        // Five arrivals in the first half second, then the bottleneck goes
        // down at 1 s for longer than the run. Each arrival must carry the
        // template's `report` (else `ReportsOnly` panics on its first ACK)
        // and its 1 s `dead_time_budget` (else it is still live at the
        // horizon instead of stalled).
        registry::register(
            "test-reports-only",
            &[],
            None,
            Box::new(|_| Box::new(ReportsOnly)),
        );
        let mut db = Dumbbell::graph(LinkConfig::bottleneck(
            20e6,
            SimDuration::from_millis(10),
            100_000,
        ));
        let dst = db.add_receiver(SimDuration::from_millis(10), 0.0);
        let template = Flow {
            report: Some(ReportMode::batched_rtt()),
            dead_time_budget: Some(SimDuration::from_secs(1)),
            ..Flow::new(db.source(), dst, Protocol::named("test-reports-only"))
        };
        let retired = Rc::new(RefCell::new(Vec::new()));
        let arrivals = Spaced {
            left: 5,
            at: SimTime::ZERO,
            retired: Rc::clone(&retired),
        };
        let run = Scenario {
            faults: Some(FaultScript::parse("1 down 0 100").expect("script parses")),
            churn: Some(Churn {
                flow: template,
                arrivals: Box::new(arrivals),
            }),
            ..Scenario::new(db.into_topology(), 3)
        }
        .run(SimTime::from_secs(10));
        let c = run.report.churn;
        assert_eq!(
            (c.arrivals, c.stalls),
            (5, 5),
            "every arrival stalls: {c:?}"
        );
        assert_eq!((c.completions, c.live_at_end), (0, 0), "{c:?}");
        let retired = retired.borrow();
        assert_eq!(retired.len(), 5);
        for &(stalled, delivered) in retired.iter() {
            assert!(stalled && delivered > 0, "moved data, then stalled");
        }
        assert!(
            REPORTS.load(Ordering::Relaxed) > 0,
            "reports were delivered"
        );
    }
}
