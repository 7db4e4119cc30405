//! The one scenario builder: a topology, the flows on it, optional faults
//! and churn, run to a horizon.
//!
//! Every `run_*` in this crate is data in, reduction out: it describes a
//! [`Scenario`], calls [`Scenario::run`], and reduces the [`ScenarioRun`]
//! to its own result type. This module is the only place a simulation is
//! wired — network builder, topology installation, path resolution, fault
//! plane, churn driver, senders and receivers — so link-id order, per-link
//! RNG streams, ECMP keys and flow-id order are decided once:
//!
//! * edges install in edge-id order;
//! * static flow `i` (in [`Scenario::flows`] order) becomes `FlowId(i)` and
//!   is routed under [`ecmp_key`]`(seed, i)`;
//! * each sender's RTT hint is its resolved path's
//!   [`FlowPath::base_rtt`](pcc_simnet::topology::FlowPath::base_rtt) — the
//!   sum of the configured propagation delays it crosses, both ways;
//! * with a fault script, the plane copies the topology's router and
//!   registers every static flow, so node failures re-route them.

use pcc_simnet::prelude::*;
use pcc_transport::{FlowSize, ReportMode, SackReceiver};

use crate::protocol::Protocol;

/// Segment size of every scenario-built sender.
const MSS: u32 = 1500;

/// What drives a flow's sender: a protocol, or a function from the flow's
/// base RTT to one (PCC's paper configuration carries an RTT hint, and only
/// the builder knows the routed path's RTT).
pub enum FlowProtocol<'a> {
    /// This protocol.
    Is(Protocol),
    /// The protocol this returns for the flow's base RTT.
    ForRtt(&'a dyn Fn(SimDuration) -> Protocol),
}

impl From<Protocol> for FlowProtocol<'_> {
    fn from(protocol: Protocol) -> Self {
        FlowProtocol::Is(protocol)
    }
}

/// One flow between two hosts of the scenario's topology.
pub struct Flow<'a> {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// What drives the sender.
    pub protocol: FlowProtocol<'a>,
    /// How much it sends.
    pub size: FlowSize,
    /// When it starts.
    pub start_at: SimTime,
    /// Feedback granularity override (`None` = the process-global
    /// [`crate::protocol::force_batched_reports`] default, then the
    /// algorithm's own preference).
    pub report: Option<ReportMode>,
    /// Abort as a typed stall after this long without forward progress.
    pub dead_time_budget: Option<SimDuration>,
}

impl<'a> Flow<'a> {
    /// An infinite flow starting at t=0 with default feedback and no
    /// dead-time budget.
    pub fn new(src: NodeId, dst: NodeId, protocol: impl Into<FlowProtocol<'a>>) -> Self {
        Flow {
            src,
            dst,
            protocol: protocol.into(),
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
pub struct Churn<'a> {
    /// Template for every arriving flow.
    pub flow: Flow<'a>,
    /// The arrival process.
    pub arrivals: Box<dyn Arrivals>,
}

/// A complete simulation description.
pub struct Scenario<'a> {
    /// The network graph (not yet installed).
    pub topology: Topology,
    /// Static flows, in flow-id order.
    pub flows: Vec<Flow<'a>>,
    /// Fault script injected into the run.
    pub faults: Option<FaultScript>,
    /// Open-loop churn workload (turns per-flow sampled series off: a churn
    /// run keeps aggregates and FCTs only).
    pub churn: Option<Churn<'a>>,
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

impl<'a> Scenario<'a> {
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
            let protocol = flow.protocol.resolve(path.base_rtt);
            let id = net.add_flow(FlowSpec {
                sender: build_sender(
                    &protocol,
                    flow.size,
                    path.base_rtt,
                    flow.report,
                    flow.dead_time_budget,
                ),
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
                protocol: flow.protocol.resolve(path.base_rtt),
                report: flow.report,
                dead_time_budget: flow.dead_time_budget,
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

impl FlowProtocol<'_> {
    fn resolve(self, base_rtt: SimDuration) -> Protocol {
        match self {
            FlowProtocol::Is(protocol) => protocol,
            FlowProtocol::ForRtt(mk_protocol) => mk_protocol(base_rtt),
        }
    }
}

fn build_sender(
    protocol: &Protocol,
    size: FlowSize,
    base_rtt: SimDuration,
    report: Option<ReportMode>,
    dead_time_budget: Option<SimDuration>,
) -> Box<dyn Endpoint> {
    protocol
        .build_sender(size, MSS, base_rtt, report, dead_time_budget)
        .unwrap_or_else(|e| panic!("scenario references an unknown algorithm: {e}"))
}

/// [`Arrivals`] as the simulator's churn driver: every arrival becomes a
/// sender/receiver pair on the template flow's resolved path, tagged with
/// its size.
struct ChurnAdapter {
    protocol: Protocol,
    report: Option<ReportMode>,
    dead_time_budget: Option<SimDuration>,
    path: FlowPath,
    arrivals: Box<dyn Arrivals>,
}

impl ChurnDriver for ChurnAdapter {
    fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
        let (at, bytes) = self.arrivals.next_arrival()?;
        let flow = ChurnFlow {
            sender: build_sender(
                &self.protocol,
                FlowSize::Bytes(bytes),
                self.path.base_rtt,
                self.report,
                self.dead_time_budget,
            ),
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
