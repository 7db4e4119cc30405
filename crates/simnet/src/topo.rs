//! Topology graph + routing: multi-hop networks over the existing link
//! machinery.
//!
//! [`Topology`] is a directed multigraph whose nodes are hosts or switches
//! and whose every edge owns a full [`LinkConfig`] — so queue disciplines,
//! schedules, traces, shapers, and random loss compose on any fabric edge
//! exactly as they do on a dumbbell bottleneck. [`Routes`] precomputes
//! per-destination shortest-path next-hop *edge* sets by BFS (hosts never
//! transit traffic); equal-cost choices are resolved per hop by a
//! deterministic hash of the flow's key (parsimon-style ECMP), so a flow's
//! path depends only on the graph shape and the key — never on edge
//! insertion order, and never on any RNG stream the simulation consumes.
//!
//! [`Topology::flow_path`] expands a `(src, dst)` host pair into the
//! [`FlowPath`]`{ fwd, rev }` the simulator consumes, which makes the
//! dumbbell builder in [`crate::topology`] (and every scenario runner on
//! top of it) a thin wrapper over this module.
//!
//! Canonical datacenter shapes are provided as builders: [`fat_tree`]
//! (k-ary Clos, `k³/4` hosts at full bisection) and [`leaf_spine`] (two
//! tiers with an explicit oversubscription knob).
//!
//! ```
//! use pcc_simnet::prelude::*;
//! use pcc_simnet::topo::Topology;
//!
//! // Two hosts joined by two equal-cost 2-switch paths.
//! let mut topo = Topology::new();
//! let (a, b) = (topo.add_host(), topo.add_host());
//! let (s1, s2) = (topo.add_switch(), topo.add_switch());
//! let mut duplex = |u, v| {
//!     topo.add_duplex(
//!         u,
//!         v,
//!         LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 64_000),
//!         LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 64_000),
//!     );
//! };
//! duplex(a, s1);
//! duplex(a, s2);
//! duplex(s1, b);
//! duplex(s2, b);
//! let mut net = NetworkBuilder::new(SimConfig::default());
//! topo.install(&mut net);
//! let path = topo.flow_path(a, b, 7);
//! assert_eq!(path.fwd.len(), 2, "a → s? → b");
//! assert_eq!(path.rev.len(), 2, "b → s? → a");
//! ```

use std::collections::VecDeque;

use crate::ids::{EdgeId, LinkId, NodeId};
use crate::link::LinkConfig;
use crate::queue::QueueStats;
use crate::rng::mix64;
use crate::sim::{NetworkBuilder, SimReport};
use crate::time::{SimDuration, SimTime};
use crate::topology::FlowPath;

/// What a topology node is. Only switches carry transit traffic: a host can
/// source or sink a path but is never an intermediate hop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An endpoint: sources and sinks flows, never forwards.
    Host,
    /// A forwarding element.
    Switch,
}

struct EdgeRec {
    src: NodeId,
    dst: NodeId,
    /// Serialization rate recorded before the config is consumed, so
    /// utilization accounting survives installation.
    rate_bps: Option<f64>,
    /// Configured one-way propagation delay, kept for the same reason: a
    /// flow's base RTT is the sum of these along its resolved paths.
    delay: SimDuration,
    /// Present until [`Topology::install`] moves it into the simulator.
    config: Option<LinkConfig>,
    /// The simulator link realizing this edge, once installed.
    link: Option<LinkId>,
}

/// A node/edge graph where every directed edge owns a [`LinkConfig`].
///
/// Build nodes and edges, [`install`](Topology::install) into a
/// [`NetworkBuilder`] (edges become simulator links in edge-id order), then
/// expand host pairs into [`FlowPath`]s via [`flow_path`](Topology::flow_path).
/// Routes are computed lazily and cached; adding an edge invalidates them.
#[derive(Default)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    edges: Vec<EdgeRec>,
    /// Out-edges per node, in insertion order.
    out: Vec<Vec<EdgeId>>,
    routes: Option<Routes>,
    /// First edge not yet moved into a builder (supports incremental
    /// installation, which the dumbbell wrapper uses).
    next_install: usize,
}

impl Topology {
    /// An empty graph.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node of the given kind.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.out.push(Vec::new());
        id
    }

    /// Add a host (endpoint) node.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Add a switch (forwarding) node.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    /// Add a directed edge `src → dst` realized by `config`.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, config: LinkConfig) -> EdgeId {
        assert!(src.index() < self.kinds.len(), "unknown src node {src:?}");
        assert!(dst.index() < self.kinds.len(), "unknown dst node {dst:?}");
        assert_ne!(src, dst, "self-loop edges are not allowed");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRec {
            src,
            dst,
            rate_bps: config.rate_bps,
            delay: config.delay,
            config: Some(config),
            link: None,
        });
        self.out[src.index()].push(id);
        self.routes = None;
        id
    }

    /// Add a duplex pair of edges `a → b` and `b → a`.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        ab: LinkConfig,
        ba: LinkConfig,
    ) -> (EdgeId, EdgeId) {
        (self.add_link(a, b, ab), self.add_link(b, a, ba))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// The `(src, dst)` endpoints of `edge`.
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.index()];
        (e.src, e.dst)
    }

    /// The serialization rate `edge` was configured with (`None` =
    /// pure-delay shim). Available before and after installation.
    pub fn edge_rate_bps(&self, edge: EdgeId) -> Option<f64> {
        self.edges[edge.index()].rate_bps
    }

    /// Install every not-yet-installed edge into `net`, in edge-id order,
    /// consuming each edge's [`LinkConfig`]. May be called repeatedly as
    /// the graph grows; each call installs only the new edges.
    pub fn install(&mut self, net: &mut NetworkBuilder) {
        for e in &mut self.edges[self.next_install..] {
            let config = e.config.take().expect("pending edge has its config");
            e.link = Some(net.add_link(config));
        }
        self.next_install = self.edges.len();
    }

    /// The simulator link realizing `edge`.
    ///
    /// # Panics
    /// If the edge has not been installed yet.
    pub fn link_of(&self, edge: EdgeId) -> LinkId {
        self.edges[edge.index()]
            .link
            .unwrap_or_else(|| panic!("{edge:?} not installed; call Topology::install first"))
    }

    /// The precomputed routing tables (computed on first use, cached until
    /// the graph changes).
    pub fn routes(&mut self) -> &Routes {
        if self.routes.is_none() {
            self.routes = Some(Routes::compute(&self.kinds, &self.edges, &self.out));
        }
        self.routes.as_ref().expect("just computed")
    }

    /// The edges of the path `src → dst` selected for flow key `key`.
    ///
    /// Each hop picks among the equal-cost next-hop edges by a
    /// deterministic hash of `(key, current node)`; the walk follows
    /// strictly decreasing BFS distance, so the path is loop-free and of
    /// shortest length by construction.
    ///
    /// # Panics
    /// If `dst` is unreachable from `src`.
    pub fn path_edges(&mut self, src: NodeId, dst: NodeId, key: u64) -> Vec<EdgeId> {
        self.routes();
        let routes = self.routes.as_ref().expect("routes cached");
        let mut path = Vec::with_capacity(routes.distance(src, dst).unwrap_or_else(|| {
            panic!("no route from {src:?} to {dst:?}");
        }) as usize);
        let mut cur = src;
        while cur != dst {
            let choices = routes.next_hops(cur, dst);
            let picked = choices
                [(mix64(key ^ ECMP_SALT ^ ((cur.0 as u64) << 32)) % choices.len() as u64) as usize];
            path.push(picked);
            cur = self.edges[picked.index()].dst;
        }
        path
    }

    /// Expand a host pair into the forward/reverse link paths a
    /// [`crate::sim::FlowSpec`] consumes. Forward and reverse directions
    /// are routed independently (each hop hashes its own node), both under
    /// the same flow key. The path's base RTT is the sum of the configured
    /// propagation delays of every edge crossed, both ways.
    pub fn flow_path(&mut self, src: NodeId, dst: NodeId, key: u64) -> FlowPath {
        let fwd = self.path_edges(src, dst, key);
        let rev = self.path_edges(dst, src, key);
        let base_rtt = fwd.iter().chain(&rev).fold(SimDuration::ZERO, |sum, e| {
            sum + self.edges[e.index()].delay
        });
        let links = |edges: Vec<EdgeId>| edges.into_iter().map(|e| self.link_of(e)).collect();
        FlowPath {
            fwd: links(fwd),
            rev: links(rev),
            base_rtt,
        }
    }
}

/// Salt folded into every ECMP hop hash (`"ECMP"`). Shared with the fault
/// plane so post-failure re-resolution picks the exact path routing would.
pub(crate) const ECMP_SALT: u64 = 0x4543_4D50;

/// Combine an experiment seed and a flow index into a flow key for
/// [`Topology::path_edges`]: deterministic, and distinct flows land on
/// decorrelated hash streams.
pub fn ecmp_key(seed: u64, flow: u64) -> u64 {
    mix64(seed ^ mix64(flow))
}

/// Precomputed next-hop routing tables: for every `(node, destination)`
/// pair, the BFS distance and the set of equal-cost out-edges that make
/// progress toward the destination.
///
/// Hosts never transit: a path may start or end at a host but BFS refuses
/// to route *through* one. Choice sets are sorted by `(next-hop node,
/// edge id)`, so the node sequence a flow takes is independent of the
/// order edges were inserted in.
pub struct Routes {
    n: usize,
    /// `dist[dst * n + node]` = hops from `node` to `dst` (`u32::MAX` =
    /// unreachable).
    dist: Vec<u32>,
    /// `choices[dst * n + node]` = equal-cost next-hop edges.
    choices: Vec<Vec<EdgeId>>,
}

impl Routes {
    fn compute(kinds: &[NodeKind], edges: &[EdgeRec], out: &[Vec<EdgeId>]) -> Routes {
        let n = kinds.len();
        // Reverse adjacency for the per-destination BFS.
        let mut inn: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            inn[e.dst.index()].push(EdgeId(i as u32));
        }
        let mut dist = vec![u32::MAX; n * n];
        let mut choices = vec![Vec::new(); n * n];
        let mut queue = VecDeque::new();
        for dst in 0..n {
            let base = dst * n;
            dist[base + dst] = 0;
            queue.clear();
            queue.push_back(NodeId(dst as u32));
            while let Some(u) = queue.pop_front() {
                // A host sources or sinks traffic but never forwards it.
                if kinds[u.index()] == NodeKind::Host && u.index() != dst {
                    continue;
                }
                let du = dist[base + u.index()];
                for &e in &inn[u.index()] {
                    let v = edges[e.index()].src;
                    if dist[base + v.index()] == u32::MAX {
                        dist[base + v.index()] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
            // Next-hop choice sets: out-edges one hop closer to dst whose
            // target is allowed to carry the traffic onward.
            for u in 0..n {
                let du = dist[base + u];
                if du == u32::MAX || du == 0 {
                    continue;
                }
                let mut set: Vec<EdgeId> = out[u]
                    .iter()
                    .copied()
                    .filter(|&e| {
                        let w = edges[e.index()].dst;
                        (w.index() == dst || kinds[w.index()] == NodeKind::Switch)
                            && dist[base + w.index()] == du - 1
                    })
                    .collect();
                set.sort_by_key(|&e| (edges[e.index()].dst, e));
                choices[base + u] = set;
            }
        }
        Routes { n, dist, choices }
    }

    /// Hop count from `from` to `to`, if reachable.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let d = self.dist[to.index() * self.n + from.index()];
        (d != u32::MAX).then_some(d)
    }

    /// The equal-cost next-hop edges out of `from` toward `to` (empty when
    /// unreachable or already there), sorted by `(next-hop node, edge id)`.
    pub fn next_hops(&self, from: NodeId, to: NodeId) -> &[EdgeId] {
        &self.choices[to.index() * self.n + from.index()]
    }
}

/// Rate/delay/buffer triple describing one class of datacenter link; every
/// edge built from it gets a fresh drop-tail [`LinkConfig`].
#[derive(Clone, Copy, Debug)]
pub struct DcLinkSpec {
    /// Serialization rate, bits/sec.
    pub rate_bps: f64,
    /// One-way propagation delay per hop.
    pub delay: SimDuration,
    /// Drop-tail buffer, bytes.
    pub buffer_bytes: u64,
}

impl DcLinkSpec {
    /// A new spec.
    pub fn new(rate_bps: f64, delay: SimDuration, buffer_bytes: u64) -> Self {
        DcLinkSpec {
            rate_bps,
            delay,
            buffer_bytes,
        }
    }

    /// One fresh link configuration from this spec.
    pub fn config(&self) -> LinkConfig {
        LinkConfig::bottleneck(self.rate_bps, self.delay, self.buffer_bytes)
    }
}

/// A k-ary fat-tree (Clos): `k` pods of `k/2` ToR + `k/2` aggregation
/// switches, `(k/2)²` cores, `k/2` hosts per ToR — `k³/4` hosts at full
/// bisection bandwidth.
pub struct FatTree {
    /// The graph (install it, then route flows between [`FatTree::hosts`]).
    pub topo: Topology,
    /// All hosts, rack-major: hosts `[t·k/2, (t+1)·k/2)` hang off ToR `t`.
    pub hosts: Vec<NodeId>,
    /// Top-of-rack (edge) switches, pod-major.
    pub tors: Vec<NodeId>,
    /// Aggregation switches, pod-major.
    pub aggs: Vec<NodeId>,
    /// Core switches.
    pub cores: Vec<NodeId>,
    /// Per host: the `(host → ToR, ToR → host)` edge pair. The down-link
    /// is where rack-scale incast queues.
    pub host_edges: Vec<(EdgeId, EdgeId)>,
    k: usize,
}

impl FatTree {
    /// The arity the tree was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Hosts per rack (`k/2`).
    pub fn hosts_per_rack(&self) -> usize {
        self.k / 2
    }

    /// The ToR serving host index `h`.
    pub fn tor_of(&self, h: usize) -> NodeId {
        self.tors[h / self.hosts_per_rack()]
    }

    /// The pod containing host index `h`.
    pub fn pod_of(&self, h: usize) -> usize {
        h / (self.hosts_per_rack() * self.hosts_per_rack())
    }

    /// The ToR → host down-link edge of host index `h`.
    pub fn down_edge(&self, h: usize) -> EdgeId {
        self.host_edges[h].1
    }
}

/// Build a k-ary fat-tree. `host_link` configures host↔ToR edges,
/// `fabric_link` everything above (ToR↔agg, agg↔core). `k` must be even
/// and ≥ 2.
pub fn fat_tree(k: usize, host_link: DcLinkSpec, fabric_link: DcLinkSpec) -> FatTree {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even, got {k}"
    );
    let half = k / 2;
    let mut topo = Topology::new();
    let cores: Vec<NodeId> = (0..half * half).map(|_| topo.add_switch()).collect();
    let mut aggs = Vec::with_capacity(k * half);
    let mut tors = Vec::with_capacity(k * half);
    for _pod in 0..k {
        for _ in 0..half {
            aggs.push(topo.add_switch());
        }
        for _ in 0..half {
            tors.push(topo.add_switch());
        }
    }
    let mut hosts = Vec::with_capacity(k * half * half);
    let mut host_edges = Vec::with_capacity(k * half * half);
    for &tor in &tors {
        for _ in 0..half {
            let h = topo.add_host();
            host_edges.push(topo.add_duplex(h, tor, host_link.config(), host_link.config()));
            hosts.push(h);
        }
    }
    for pod in 0..k {
        for t in 0..half {
            for a in 0..half {
                topo.add_duplex(
                    tors[pod * half + t],
                    aggs[pod * half + a],
                    fabric_link.config(),
                    fabric_link.config(),
                );
            }
        }
        for a in 0..half {
            for c in 0..half {
                topo.add_duplex(
                    aggs[pod * half + a],
                    cores[a * half + c],
                    fabric_link.config(),
                    fabric_link.config(),
                );
            }
        }
    }
    FatTree {
        topo,
        hosts,
        tors,
        aggs,
        cores,
        host_edges,
        k,
    }
}

/// A two-tier leaf-spine fabric with an explicit oversubscription knob.
pub struct LeafSpine {
    /// The graph.
    pub topo: Topology,
    /// All hosts, leaf-major: hosts `[l·per, (l+1)·per)` hang off leaf `l`.
    pub hosts: Vec<NodeId>,
    /// Leaf (ToR) switches.
    pub leaves: Vec<NodeId>,
    /// Spine switches.
    pub spines: Vec<NodeId>,
    /// Per host: the `(host → leaf, leaf → host)` edge pair.
    pub host_edges: Vec<(EdgeId, EdgeId)>,
    hosts_per_leaf: usize,
}

impl LeafSpine {
    /// Hosts per leaf.
    pub fn hosts_per_leaf(&self) -> usize {
        self.hosts_per_leaf
    }

    /// The leaf serving host index `h`.
    pub fn leaf_of(&self, h: usize) -> NodeId {
        self.leaves[h / self.hosts_per_leaf]
    }
}

/// Build a leaf-spine fabric: `leaves` ToRs each serving `hosts_per_leaf`
/// hosts on `host_link`, every leaf connected to every one of `spines`
/// spines. The uplink rate is sized so aggregate host bandwidth exceeds
/// aggregate uplink bandwidth by `oversubscription` (1.0 = non-blocking,
/// 4.0 = classic 4:1 oversubscribed core); uplink buffers scale with the
/// rate ratio.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    host_link: DcLinkSpec,
    oversubscription: f64,
) -> LeafSpine {
    assert!(leaves >= 2 && spines >= 1 && hosts_per_leaf >= 1);
    assert!(oversubscription >= 1.0, "oversubscription is ≥ 1.0");
    let uplink_rate =
        host_link.rate_bps * hosts_per_leaf as f64 / (spines as f64 * oversubscription);
    let uplink = DcLinkSpec {
        rate_bps: uplink_rate,
        delay: host_link.delay,
        buffer_bytes: ((host_link.buffer_bytes as f64 * uplink_rate / host_link.rate_bps) as u64)
            .max(host_link.buffer_bytes),
    };
    let mut topo = Topology::new();
    let spine_nodes: Vec<NodeId> = (0..spines).map(|_| topo.add_switch()).collect();
    let leaf_nodes: Vec<NodeId> = (0..leaves).map(|_| topo.add_switch()).collect();
    let mut hosts = Vec::with_capacity(leaves * hosts_per_leaf);
    let mut host_edges = Vec::with_capacity(leaves * hosts_per_leaf);
    for &leaf in &leaf_nodes {
        for _ in 0..hosts_per_leaf {
            let h = topo.add_host();
            host_edges.push(topo.add_duplex(h, leaf, host_link.config(), host_link.config()));
            hosts.push(h);
        }
    }
    for &leaf in &leaf_nodes {
        for &spine in &spine_nodes {
            topo.add_duplex(leaf, spine, uplink.config(), uplink.config());
        }
    }
    LeafSpine {
        topo,
        hosts,
        leaves: leaf_nodes,
        spines: spine_nodes,
        host_edges,
        hosts_per_leaf,
    }
}

/// Post-run utilization/queue summary of one installed rated edge.
#[derive(Clone, Copy, Debug)]
pub struct LinkUse {
    /// The topology edge.
    pub edge: EdgeId,
    /// The simulator link realizing it.
    pub link: LinkId,
    /// Edge source node.
    pub src: NodeId,
    /// Edge destination node.
    pub dst: NodeId,
    /// Configured rate, bits/sec.
    pub rate_bps: f64,
    /// Transmitted bits divided by capacity over the measured interval.
    pub utilization: f64,
    /// Queue counters (drops, peak backlog).
    pub queue: QueueStats,
}

/// Per-edge utilization over `[0, until]` for every rated edge of an
/// installed topology, in edge-id order.
pub fn link_usage(topo: &Topology, report: &SimReport, until: SimTime) -> Vec<LinkUse> {
    let secs = until.as_secs_f64().max(f64::MIN_POSITIVE);
    (0..topo.num_edges())
        .filter_map(|i| {
            let edge = EdgeId(i as u32);
            let rate_bps = topo.edge_rate_bps(edge)?;
            let link = topo.link_of(edge);
            let lr = &report.links[link.index()];
            let (src, dst) = topo.edge_endpoints(edge);
            Some(LinkUse {
                edge,
                link,
                src,
                dst,
                rate_bps,
                utilization: lr.stats.transmitted_bytes as f64 * 8.0 / (rate_bps * secs),
                queue: lr.queue,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;

    fn cfg() -> LinkConfig {
        LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 64_000)
    }

    fn shim() -> LinkConfig {
        LinkConfig::delay_only(SimDuration::from_micros(20))
    }

    #[test]
    fn line_graph_routes_end_to_end() {
        let mut t = Topology::new();
        let a = t.add_host();
        let s = t.add_switch();
        let b = t.add_host();
        t.add_duplex(a, s, cfg(), cfg());
        t.add_duplex(s, b, cfg(), shim());
        let mut net = NetworkBuilder::new(SimConfig::default());
        t.install(&mut net);
        let p = t.flow_path(a, b, 1);
        assert_eq!(p.fwd.len(), 2);
        assert_eq!(p.rev.len(), 2);
        assert_eq!(t.routes().distance(a, b), Some(2));
        assert_eq!(t.routes().distance(b, a), Some(2));
        assert_eq!(t.routes().distance(a, a), Some(0));
    }

    #[test]
    fn hosts_never_transit() {
        // s1 and s2 are joined through a host h and through a switch x:
        // only the switch path is a legal route.
        let mut t = Topology::new();
        let s1 = t.add_switch();
        let s2 = t.add_switch();
        let h = t.add_host();
        let x = t.add_switch();
        t.add_duplex(s1, h, cfg(), cfg());
        t.add_duplex(h, s2, cfg(), cfg());
        t.add_duplex(s1, x, cfg(), cfg());
        t.add_duplex(x, s2, cfg(), cfg());
        let routes = t.routes();
        assert_eq!(routes.distance(s1, s2), Some(2));
        let hops = routes.next_hops(s1, s2).to_vec();
        assert_eq!(hops.len(), 1, "only the switch path is usable");
        assert_eq!(t.edge_endpoints(hops[0]).1, x);
        // h itself can still originate and sink traffic.
        assert_eq!(t.routes().distance(h, s2), Some(1));
        assert_eq!(t.routes().distance(s2, h), Some(1));
    }

    #[test]
    fn unreachable_is_reported() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s = t.add_switch();
        t.add_link(a, s, cfg());
        t.add_link(s, b, cfg());
        // No reverse direction: b cannot reach a.
        assert_eq!(t.routes().distance(a, b), Some(2));
        assert_eq!(t.routes().distance(b, a), None);
        assert!(t.routes().next_hops(b, a).is_empty());
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn path_to_unreachable_panics() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let mut net = NetworkBuilder::new(SimConfig::default());
        t.install(&mut net);
        let _ = t.path_edges(a, b, 0);
    }

    #[test]
    fn ecmp_spreads_flows_and_is_deterministic() {
        // Two equal-cost middle switches: different keys should (with
        // overwhelming probability over 64 keys) use both, and the same
        // key must always pick the same path.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s1 = t.add_switch();
        let s2 = t.add_switch();
        for &s in &[s1, s2] {
            t.add_duplex(a, s, cfg(), cfg());
            t.add_duplex(s, b, cfg(), cfg());
        }
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..64u64 {
            let key = ecmp_key(9, f);
            let p1 = t.path_edges(a, b, key);
            let p2 = t.path_edges(a, b, key);
            assert_eq!(p1, p2, "same key, same path");
            seen.insert(p1);
        }
        assert_eq!(seen.len(), 2, "both equal-cost paths used across keys");
    }

    #[test]
    fn fat_tree_shape() {
        let ft = fat_tree(
            4,
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
        );
        assert_eq!(ft.hosts.len(), 16);
        assert_eq!(ft.tors.len(), 8);
        assert_eq!(ft.aggs.len(), 8);
        assert_eq!(ft.cores.len(), 4);
        // 16 host duplexes + 8 pods·(2·2) tor-agg + 4·(2·2) agg-core.
        assert_eq!(ft.topo.num_edges(), 2 * (16 + 16 + 16));
        assert_eq!(ft.pod_of(0), 0);
        assert_eq!(ft.pod_of(15), 3);
        assert_eq!(ft.tor_of(3), ft.tors[1]);
    }

    #[test]
    fn fat_tree_distances() {
        let mut ft = fat_tree(
            4,
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
        );
        let (h, t, a, c) = (ft.hosts[0], ft.hosts[1], ft.hosts[2], ft.hosts[15]);
        let routes = ft.topo.routes();
        assert_eq!(routes.distance(h, t), Some(2), "same rack: via ToR");
        assert_eq!(routes.distance(h, a), Some(4), "same pod: via agg");
        assert_eq!(routes.distance(h, c), Some(6), "cross pod: via core");
        // Cross-pod ECMP width at the ToR: k/2 aggs.
        assert_eq!(routes.next_hops(ft.tors[0], c).len(), 2);
    }

    #[test]
    fn leaf_spine_oversubscription_sizes_uplinks() {
        let ls = leaf_spine(
            4,
            2,
            8,
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
            4.0,
        );
        assert_eq!(ls.hosts.len(), 32);
        // 8 Gbps of hosts over 2 spines at 4:1 → 1 Gbps per uplink.
        let uplink = EdgeId((2 * 32) as u32); // first edge after host duplexes
        assert_eq!(ls.topo.edge_rate_bps(uplink), Some(1e9));
        assert_eq!(ls.leaf_of(9), ls.leaves[1]);
        let mut topo = ls.topo;
        assert_eq!(topo.routes().distance(ls.hosts[0], ls.hosts[31]), Some(4));
    }

    #[test]
    fn install_is_incremental_and_ordered() {
        let mut t = Topology::new();
        let a = t.add_host();
        let s = t.add_switch();
        let e0 = t.add_link(a, s, cfg());
        let mut net = NetworkBuilder::new(SimConfig::default());
        t.install(&mut net);
        let b = t.add_host();
        let e1 = t.add_link(s, b, cfg());
        let e2 = t.add_link(b, a, shim());
        t.install(&mut net);
        assert_eq!(t.link_of(e0), LinkId(0));
        assert_eq!(t.link_of(e1), LinkId(1));
        assert_eq!(t.link_of(e2), LinkId(2));
        assert_eq!(t.edge_rate_bps(e2), None, "shim rate survives install");
    }

    /// FNV-1a over the edge ids of `path_edges(a, b, ecmp_key(seed + k,
    /// i·n + j))` for every ordered host pair and `k ∈ 0..4`, one
    /// terminator per path.
    fn routing_digest(topo: &mut Topology, hosts: &[NodeId], seed: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        let n = hosts.len() as u64;
        for (i, &a) in hosts.iter().enumerate() {
            for (j, &b) in hosts.iter().enumerate() {
                if i == j {
                    continue;
                }
                for k in 0..4 {
                    let key = ecmp_key(seed + k, i as u64 * n + j as u64);
                    for e in topo.path_edges(a, b, key) {
                        fold(e.0 as u64);
                    }
                    fold(u64::MAX);
                }
            }
        }
        h
    }

    /// Golden routing digests, captured on the eager all-pairs `Routes`
    /// table before the router was rebuilt: any change to BFS distances,
    /// choice-set order or the hop hash moves them.
    #[test]
    fn routing_digests_are_pinned() {
        let spec = DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000);
        let (ft4, ft8) = (fat_tree(4, spec, spec), fat_tree(8, spec, spec));
        let ls = leaf_spine(4, 3, 8, spec, 4.0);
        for (mut topo, hosts, seed, want) in [
            (ft4.topo, ft4.hosts, 1, 0xa9cb_bdd5_8902_5c71u64),
            (ft8.topo, ft8.hosts, 2, 0x9b48_5320_b770_cac5),
            (ls.topo, ls.hosts, 3, 0x5950_55fa_6fe6_9615),
        ] {
            let got = routing_digest(&mut topo, &hosts, seed);
            assert_eq!(got, want, "seed {seed}: {got:#018x}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A random connected switch graph: a spanning tree over `n` nodes plus
    /// `extra` random duplex chords. Returns the duplex node pairs.
    fn random_connected(n: usize, picks: &[u64]) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for v in 1..n as u32 {
            let u = picks[(v as usize - 1) % picks.len()] % v as u64;
            pairs.push((u as u32, v));
        }
        for (i, &p) in picks.iter().enumerate() {
            let a = (p % n as u64) as u32;
            let b = ((p >> 17).wrapping_add(i as u64) % n as u64) as u32;
            if a != b {
                pairs.push((a, b));
            }
        }
        pairs
    }

    fn build(n: usize, pairs: &[(u32, u32)]) -> Topology {
        let mut t = Topology::new();
        for _ in 0..n {
            t.add_switch();
        }
        for &(a, b) in pairs {
            t.add_duplex(
                NodeId(a),
                NodeId(b),
                LinkConfig::bottleneck(1e9, SimDuration::from_micros(10), 64_000),
                LinkConfig::bottleneck(1e9, SimDuration::from_micros(10), 64_000),
            );
        }
        t
    }

    /// The node sequence of a path (for insertion-order comparisons).
    fn node_seq(t: &mut Topology, src: NodeId, dst: NodeId, key: u64) -> Vec<NodeId> {
        let mut seq = vec![src];
        for e in t.path_edges(src, dst, key) {
            seq.push(t.edge_endpoints(e).1);
        }
        seq
    }

    proptest! {
        /// Every computed path is loop-free, hop-connected, reaches its
        /// destination, and has shortest length.
        #[test]
        fn paths_are_loop_free_and_reach(
            n in 2usize..16,
            picks in proptest::collection::vec(0u64..u64::MAX, 1..24),
            src in 0u64..16, dst in 0u64..16, key in 0u64..u64::MAX,
        ) {
            let (src, dst) = (NodeId((src % n as u64) as u32), NodeId((dst % n as u64) as u32));
            let mut t = build(n, &random_connected(n, &picks));
            let path = t.path_edges(src, dst, key);
            prop_assert_eq!(path.len() as u32, t.routes().distance(src, dst).expect("connected"));
            let mut cur = src;
            let mut seen = std::collections::BTreeSet::new();
            prop_assert!(seen.insert(cur));
            for e in &path {
                let (a, b) = t.edge_endpoints(*e);
                prop_assert_eq!(a, cur, "hops are connected");
                prop_assert!(seen.insert(b), "no node repeats");
                cur = b;
            }
            prop_assert_eq!(cur, dst, "path reaches its destination");
        }

        /// The ECMP choice is a function of (key, graph shape) only:
        /// re-adding the duplex pairs in reverse order leaves every flow's
        /// node sequence unchanged.
        #[test]
        fn ecmp_is_insertion_order_independent(
            n in 2usize..12,
            picks in proptest::collection::vec(0u64..u64::MAX, 1..16),
            src in 0u64..12, dst in 0u64..12, flow in 0u64..1024, seed in 0u64..u64::MAX,
        ) {
            let (src, dst) = (NodeId((src % n as u64) as u32), NodeId((dst % n as u64) as u32));
            // Dedup pairs: parallel duplexes would make edge identity (not
            // node choice) depend on insertion order.
            let mut pairs = random_connected(n, &picks);
            pairs.sort_unstable();
            pairs.dedup();
            let key = ecmp_key(seed, flow);
            let mut fwd = build(n, &pairs);
            let mut rev_pairs = pairs.clone();
            rev_pairs.reverse();
            let mut rev = build(n, &rev_pairs);
            prop_assert_eq!(
                node_seq(&mut fwd, src, dst, key),
                node_seq(&mut rev, src, dst, key),
                "same key, same node sequence, any insertion order"
            );
        }
    }
}
