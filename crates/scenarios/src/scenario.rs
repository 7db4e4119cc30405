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
//!   registers every static flow, so node failures re-route them;
//! * once every path is resolved, the topology's route tables are freed
//!   ([`Topology::forget_routes`]) before the run starts.

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
    /// Record the flow's sampled series (throughput, goodput, rate, RTT).
    /// A reduction that reads only totals or FCTs turns it off; an
    /// unsampled flow runs exactly as a sampled one.
    pub sampled: bool,
}

impl Flow {
    /// An infinite, sampled flow starting at t=0 with default feedback and
    /// no dead-time budget.
    pub fn new(src: NodeId, dst: NodeId, protocol: Protocol) -> Self {
        Flow {
            src,
            dst,
            protocol,
            size: FlowSize::Infinite,
            start_at: SimTime::ZERO,
            report: None,
            dead_time_budget: None,
            sampled: true,
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
    /// Open-loop churn workload. No arrival is sampled, and neither is a
    /// static flow of a churn run, whatever its [`Flow::sampled`]: a churn
    /// run keeps aggregates and FCTs only.
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
    /// Whether each static flow's series were recorded.
    sampled: Vec<bool>,
}

impl ScenarioRun {
    /// Whole-lifetime average delivered throughput of flow `i`, Mbit/s.
    pub fn throughput_mbps(&self, i: usize) -> f64 {
        self.report.flow_throughput_mbps(self.flows[i])
    }

    /// Average throughput of flow `i` over `[from, to]`, Mbit/s.
    ///
    /// # Panics
    /// If flow `i` ran unsampled: it has no series to average.
    pub fn throughput_in(&self, i: usize, from: SimTime, to: SimTime) -> f64 {
        assert!(
            self.sampled[i],
            "flow {i} ({:?}) ran unsampled: it has no throughput series",
            self.flows[i]
        );
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
    /// If a flow names an algorithm [`crate::ALGORITHMS`] cannot build.
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
        let mut sampled = Vec::with_capacity(flows.len());
        for (i, flow) in flows.into_iter().enumerate() {
            let key = ecmp_key(seed, i as u64);
            let path = topology.flow_path(flow.src, flow.dst, key);
            sampled.push(flow.sampled && churn.is_none());
            net.set_record_series(sampled[i]);
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
        }
        // Every path the run uses is resolved; the fault plane re-routes on
        // its own copy of the router.
        topology.forget_routes();
        if let Some(plane) = plane {
            net.set_fault_plane(plane);
        }
        ScenarioRun {
            report: net.build().run_until(horizon),
            flows: ids,
            topology,
            sampled,
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

    /// Two `cubic` flows on a 20 Mbit/s dumbbell for 2 s, the second
    /// unsampled.
    fn one_sampled_one_not() -> ScenarioRun {
        let mut db = Dumbbell::graph(LinkConfig::bottleneck(
            20e6,
            SimDuration::from_millis(10),
            100_000,
        ));
        let src = db.source();
        let rtt = SimDuration::from_millis(10);
        let sampled = Flow::new(src, db.add_receiver(rtt, 0.0), Protocol::Tcp("cubic"));
        let unsampled = Flow {
            sampled: false,
            ..Flow::new(src, db.add_receiver(rtt, 0.0), Protocol::Tcp("cubic"))
        };
        Scenario {
            flows: vec![sampled, unsampled],
            ..Scenario::new(db.into_topology(), 5)
        }
        .run(SimTime::from_secs(2))
    }

    #[test]
    fn an_unsampled_flow_keeps_its_totals() {
        let run = one_sampled_one_not();
        let (on, off) = (&run.report.flows[0], &run.report.flows[1]);
        assert_eq!(on.series.throughput_mbps.len(), 20);
        assert!(off.series.throughput_mbps.is_empty() && off.series.rtt_ms.is_empty());
        assert!(off.delivered_bytes > 0 && off.rtt_samples > 0);
        assert!(run.throughput_in(0, SimTime::ZERO, SimTime::from_secs(2)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "flow 1 (FlowId(1)) ran unsampled")]
    fn reading_an_unsampled_flows_series_panics() {
        one_sampled_one_not().throughput_in(1, SimTime::ZERO, SimTime::from_secs(2));
    }

    /// What a retired flow did: stalled, completion time, delivered
    /// bytes, sent packets.
    type Retired = (bool, Option<SimTime>, u64, u64);

    /// `left` arrivals of `bytes` each, 100 ms apart; keeps a [`Retired`]
    /// for every retired flow.
    struct Spaced {
        left: u64,
        at: SimTime,
        bytes: u64,
        retired: Rc<RefCell<Vec<Retired>>>,
    }

    impl Arrivals for Spaced {
        fn next_arrival(&mut self) -> Option<(SimTime, u64)> {
            self.left = self.left.checked_sub(1)?;
            self.at += SimDuration::from_millis(100);
            Some((self.at, self.bytes))
        }

        fn on_flow_complete(&mut self, _bytes: u64, stats: &FlowStats) {
            self.retired.borrow_mut().push((
                stats.stalled.is_some(),
                stats.completed_at,
                stats.delivered_bytes,
                stats.sent_packets,
            ));
        }
    }

    /// Five `cubic` arrivals of `bytes` in the first half second on a
    /// 20 Mbit/s dumbbell, built from a template with `report` and
    /// `dead_time_budget`, under `faults`; run for 10 s.
    fn five_arrivals(
        report: Option<ReportMode>,
        dead_time_budget: Option<SimDuration>,
        bytes: u64,
        faults: Option<&str>,
    ) -> (ChurnStats, Vec<Retired>) {
        let mut db = Dumbbell::graph(LinkConfig::bottleneck(
            20e6,
            SimDuration::from_millis(10),
            100_000,
        ));
        let dst = db.add_receiver(SimDuration::from_millis(10), 0.0);
        let template = Flow {
            report,
            dead_time_budget,
            ..Flow::new(db.source(), dst, Protocol::Tcp("cubic"))
        };
        let retired = Rc::new(RefCell::new(Vec::new()));
        let arrivals = Spaced {
            left: 5,
            at: SimTime::ZERO,
            bytes,
            retired: Rc::clone(&retired),
        };
        let run = Scenario {
            faults: faults.map(|f| FaultScript::parse(f).expect("script parses")),
            churn: Some(Churn {
                flow: template,
                arrivals: Box::new(arrivals),
            }),
            ..Scenario::new(db.into_topology(), 3)
        }
        .run(SimTime::from_secs(10));
        (run.report.churn, retired.take())
    }

    #[test]
    fn every_churn_arrival_is_built_from_the_template_flow() {
        // The bottleneck goes down at 1 s for longer than the run, and no
        // arrival can finish: each must carry the template's 1 s
        // `dead_time_budget`, else it is still live at the horizon instead
        // of stalled.
        let budget = Some(SimDuration::from_secs(1));
        let (c, retired) = five_arrivals(None, budget, 1 << 30, Some("1 down 0 100"));
        assert_eq!(
            (c.arrivals, c.stalls),
            (5, 5),
            "every arrival stalls: {c:?}"
        );
        assert_eq!((c.completions, c.live_at_end), (0, 0), "{c:?}");
        assert_eq!(retired.len(), 5);
        assert!(retired.iter().all(|r| r.0), "{retired:?}");
        // Each must carry the template's `report` too, else the batched
        // run replays the per-ACK one flow for flow.
        let (c, per_ack) = five_arrivals(None, None, 1 << 20, None);
        assert_eq!(c.completions, 5, "{c:?}");
        let (_, batched) = five_arrivals(Some(ReportMode::batched_rtt()), None, 1 << 20, None);
        assert_ne!(batched, per_ack, "the template's report reached no arrival");
    }
}
