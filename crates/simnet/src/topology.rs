//! Topology helpers: canonical shapes used across the paper's evaluation.
//!
//! The workhorse is the **dumbbell**: `n` flows sharing one bottleneck link,
//! each flow with its own RTT realized as pure-delay shims on either side of
//! the bottleneck. Forward path: `bottleneck → fwd shim(RTT/2)`; reverse
//! path: `rev shim(RTT/2)`. All queueing happens at the bottleneck, exactly
//! as in the paper's Emulab setups.
//!
//! [`Dumbbell`] is a thin wrapper over a [`crate::topo`] [`Topology`]
//! graph: one shared source host, one middle switch (the bottleneck edge
//! between them), and one receiver host per flow whose down-edge and
//! return-edge are the RTT shims. Paths come from the graph's routing.
//! Edge order is the [`crate::ids::LinkId`] layout: the bottleneck first,
//! then each receiver's forward shim followed by its reverse shim.

use crate::ids::{EdgeId, LinkId, NodeId};
use crate::link::LinkConfig;
use crate::sim::NetworkBuilder;
use crate::time::SimDuration;
use crate::topo::Topology;

/// Paths for one flow through a topology.
#[derive(Clone, Debug)]
pub struct FlowPath {
    /// Links for data packets, in order.
    pub fwd: Vec<LinkId>,
    /// Links for ACKs, in order.
    pub rev: Vec<LinkId>,
    /// Sum of the configured propagation delays along `fwd` and `rev`: the
    /// path's round-trip time with empty queues.
    pub base_rtt: SimDuration,
}

/// A dumbbell under construction: one shared bottleneck, per-flow RTT shims.
///
/// [`Dumbbell::graph`] and [`Dumbbell::add_receiver`] build the graph alone
/// (the scenario builder installs it); [`Dumbbell::new`] and
/// [`Dumbbell::attach_flow`] are the same two steps installing into a
/// [`NetworkBuilder`] as they go.
pub struct Dumbbell {
    topo: Topology,
    src: NodeId,
    mid: NodeId,
    bottleneck: EdgeId,
}

impl Dumbbell {
    /// The dumbbell graph around `bottleneck` (any link configuration:
    /// schedule, shaper, queue discipline), with no receivers yet and
    /// nothing installed. The bottleneck is edge 0.
    pub fn graph(bottleneck: LinkConfig) -> Self {
        let mut topo = Topology::new();
        let src = topo.add_host();
        let mid = topo.add_switch();
        let bottleneck = topo.add_link(src, mid, bottleneck);
        Dumbbell {
            topo,
            src,
            mid,
            bottleneck,
        }
    }

    /// Add a receiver host behind delay shims realizing a round-trip time
    /// of `rtt` (forward shim `rtt/2`, reverse shim the rest, so odd
    /// nanoseconds still sum exactly), with random loss `ack_loss` on the
    /// reverse shim. Edge order is the [`LinkId`] layout: bottleneck first,
    /// then per receiver the forward shim followed by the reverse shim.
    pub fn add_receiver(&mut self, rtt: SimDuration, ack_loss: f64) -> NodeId {
        let half = rtt / 2;
        let recv = self.topo.add_host();
        self.topo
            .add_link(self.mid, recv, LinkConfig::delay_only(half));
        self.topo.add_link(
            recv,
            self.src,
            LinkConfig::delay_only(rtt - half).with_loss(ack_loss),
        );
        recv
    }

    /// The shared sending host.
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// Give up the graph (to install and route it elsewhere).
    pub fn into_topology(self) -> Topology {
        self.topo
    }

    /// [`Dumbbell::graph`] with the bottleneck installed into `net`.
    pub fn new(net: &mut NetworkBuilder, bottleneck: LinkConfig) -> Self {
        let mut db = Dumbbell::graph(bottleneck);
        db.topo.install(net);
        db
    }

    /// The shared bottleneck link.
    pub fn bottleneck(&self) -> LinkId {
        self.topo.link_of(self.bottleneck)
    }

    /// [`Dumbbell::add_receiver`] (no ACK loss) installed into `net`: data
    /// packets cross the bottleneck then the forward shim, ACKs cross the
    /// reverse shim only.
    pub fn attach_flow(&mut self, net: &mut NetworkBuilder, rtt: SimDuration) -> FlowPath {
        let recv = self.add_receiver(rtt, 0.0);
        self.topo.install(net);
        // Single-path by construction, so the ECMP key is irrelevant.
        self.topo.flow_path(self.src, recv, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;

    #[test]
    fn dumbbell_wires_paths() {
        let mut net = NetworkBuilder::new(SimConfig::default());
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000),
        );
        let p1 = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let p2 = db.attach_flow(&mut net, SimDuration::from_millis(60));
        assert_eq!(p1.fwd[0], db.bottleneck(), "data crosses bottleneck first");
        assert_eq!(p2.fwd[0], db.bottleneck());
        assert_ne!(p1.fwd[1], p2.fwd[1], "per-flow shims are distinct");
        assert_eq!(p1.fwd.len(), 2);
        assert_eq!(p1.rev.len(), 1);
    }

    #[test]
    fn dumbbell_link_ids_match_pre_graph_layout() {
        // The historical layout: bottleneck first, then per flow the
        // forward shim followed by the reverse shim. Determinism of every
        // pre-graph experiment depends on this exact assignment.
        let mut net = NetworkBuilder::new(SimConfig::default());
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000),
        );
        let p1 = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let p2 = db.attach_flow(&mut net, SimDuration::from_millis(60));
        assert_eq!(p1.fwd, vec![LinkId(0), LinkId(1)]);
        assert_eq!(p1.rev, vec![LinkId(2)]);
        assert_eq!(p2.fwd, vec![LinkId(0), LinkId(3)]);
        assert_eq!(p2.rev, vec![LinkId(4)]);
    }

    #[test]
    fn rtt_split_covers_odd_nanos() {
        let mut net = NetworkBuilder::new(SimConfig::default());
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(1e6, SimDuration::ZERO, 1 << 16),
        );
        // Odd RTT: the shims must sum exactly, and the path reports it.
        let rtt = SimDuration::from_nanos(30_000_001);
        let path = db.attach_flow(&mut net, rtt);
        assert_eq!(path.base_rtt, rtt);
    }
}
