//! Topology graph + routing: multi-hop networks over the existing link
//! machinery.
//!
//! [`Topology`] is a directed multigraph whose nodes are hosts or switches
//! and whose every edge owns a full [`LinkConfig`] — so queue disciplines,
//! schedules, traces, shapers, and random loss compose on any fabric edge
//! exactly as they do on a dumbbell bottleneck. One `Router` holds the
//! graph shape and a node-liveness mask and resolves every path: hop
//! distances come from a per-destination BFS run on first use (hosts never
//! transit traffic), and equal-cost next hops are resolved per hop by a
//! deterministic hash of the flow's key (parsimon-style ECMP), so a flow's
//! path depends only on the graph shape, the live nodes and the key — never
//! on edge insertion order, and never on any RNG stream the simulation
//! consumes. The fault plane ([`crate::fault`]) re-routes on a copy of the
//! same router, which is why repairing a node restores the original paths.
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

use std::collections::{BTreeMap, VecDeque};

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

/// Salt folded into every ECMP hop hash (`"ECMP"`).
const ECMP_SALT: u64 = 0x4543_4D50;

/// The routing view of a graph: its shape, which nodes are alive, and the
/// one path resolver both [`Topology::path_edges`] and the fault plane's
/// post-failure re-routing call.
///
/// Hosts never transit: a path may start or end at a host but is never
/// routed *through* one. A dead node carries nothing and neither sources
/// nor sinks.
#[derive(Clone, Default)]
pub(crate) struct Router {
    kinds: Vec<NodeKind>,
    /// `(src, dst)` per edge, in edge-id order.
    ends: Vec<(NodeId, NodeId)>,
    /// Out-edges per node, in insertion order.
    out: Vec<Vec<EdgeId>>,
    /// In-edges per node (the BFS runs backwards from the destination).
    inn: Vec<Vec<EdgeId>>,
    alive: Vec<bool>,
    /// Hops from every node to each destination routed to so far
    /// (`u32::MAX` = unreachable). Emptied whenever a node, an edge or a
    /// node's liveness changes.
    dist: BTreeMap<NodeId, Vec<u32>>,
}

impl Router {
    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.alive.push(true);
        self.dist.clear();
        id
    }

    fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        let id = EdgeId(self.ends.len() as u32);
        self.ends.push((src, dst));
        self.out[src.index()].push(id);
        self.inn[dst.index()].push(id);
        self.dist.clear();
        id
    }

    /// Mark `node` alive or dead. Returns false, changing nothing, when the
    /// node is unknown or already in that state.
    pub(crate) fn set_alive(&mut self, node: NodeId, alive: bool) -> bool {
        match self.alive.get_mut(node.index()) {
            Some(a) if *a != alive => {
                *a = alive;
                self.dist.clear();
                true
            }
            _ => false,
        }
    }

    /// True when both endpoints of `edge` are alive.
    pub(crate) fn edge_alive(&self, edge: EdgeId) -> bool {
        let (src, dst) = self.ends[edge.index()];
        self.alive[src.index()] && self.alive[dst.index()]
    }

    /// Every edge into or out of `node`, in edge-id order.
    pub(crate) fn incident(&self, node: NodeId) -> Vec<EdgeId> {
        let (out, inn) = (&self.out[node.index()], &self.inn[node.index()]);
        let mut edges: Vec<EdgeId> = out.iter().chain(inn).copied().collect();
        edges.sort_unstable();
        edges
    }

    /// The edges of the shortest path `src → dst` over the alive nodes that
    /// flow key `key` selects, or `None` when an endpoint is unknown, dead
    /// or cut off.
    ///
    /// Each hop picks among the equal-cost next-hop edges — sorted by
    /// `(next-hop node, edge id)`, so the node sequence is independent of
    /// edge insertion order — by a deterministic hash of `(key, current
    /// node)`. The walk follows strictly decreasing BFS distance, so the
    /// path is loop-free and of shortest length by construction.
    pub(crate) fn path(&mut self, src: NodeId, dst: NodeId, key: u64) -> Option<Vec<EdgeId>> {
        let Router {
            kinds,
            ends,
            out,
            inn,
            alive,
            dist,
        } = self;
        if !(*alive.get(src.index())? && *alive.get(dst.index())?) {
            return None;
        }
        // A node may forward toward `dst` if it is `dst` or a switch.
        let carries = |w: NodeId| w == dst || kinds[w.index()] == NodeKind::Switch;
        let dist = dist.entry(dst).or_insert_with(|| {
            let mut dist = vec![u32::MAX; kinds.len()];
            dist[dst.index()] = 0;
            let mut queue = VecDeque::from([dst]);
            while let Some(u) = queue.pop_front() {
                if !carries(u) {
                    continue;
                }
                for &e in &inn[u.index()] {
                    let v = ends[e.index()].0;
                    if alive[v.index()] && dist[v.index()] == u32::MAX {
                        dist[v.index()] = dist[u.index()] + 1;
                        queue.push_back(v);
                    }
                }
            }
            dist
        });
        if dist[src.index()] == u32::MAX {
            return None;
        }
        let mut path = Vec::with_capacity(dist[src.index()] as usize);
        let mut choices = Vec::new();
        let mut cur = src;
        while cur != dst {
            let closer = dist[cur.index()] - 1;
            choices.clear();
            // Only alive nodes have a finite distance.
            choices.extend(out[cur.index()].iter().copied().filter(|&e| {
                let w = ends[e.index()].1;
                carries(w) && dist[w.index()] == closer
            }));
            choices.sort_unstable_by_key(|&e| (ends[e.index()].1, e));
            let hash = mix64(key ^ ECMP_SALT ^ ((cur.0 as u64) << 32));
            let picked = choices[(hash % choices.len() as u64) as usize];
            path.push(picked);
            cur = ends[picked.index()].1;
        }
        Some(path)
    }
}

struct EdgeRec {
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
/// Route state is computed per destination on first use and cached; adding
/// a node or an edge invalidates it.
#[derive(Default)]
pub struct Topology {
    router: Router,
    /// Per-edge link state, in edge-id order (endpoints live in `router`).
    edges: Vec<EdgeRec>,
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
        self.router.add_node(kind)
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
        assert!(src.index() < self.num_nodes(), "unknown src node {src:?}");
        assert!(dst.index() < self.num_nodes(), "unknown dst node {dst:?}");
        assert_ne!(src, dst, "self-loop edges are not allowed");
        self.edges.push(EdgeRec {
            rate_bps: config.rate_bps,
            delay: config.delay,
            config: Some(config),
            link: None,
        });
        self.router.add_edge(src, dst)
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
        self.router.kinds.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.router.kinds[node.index()]
    }

    /// The `(src, dst)` endpoints of `edge`.
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.router.ends[edge.index()]
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

    /// Free the cached route state: one BFS distance table per destination
    /// routed to, four bytes per node each (5.5 MB once a k = 16 fat-tree
    /// has routed to all of its 1 024 hosts). Paths already resolved stay
    /// valid, and the next query rebuilds only the table it needs.
    pub fn forget_routes(&mut self) {
        self.router.dist.clear();
    }

    /// The routing view (graph shape, liveness, path resolver); the fault
    /// plane re-routes on a clone of it.
    pub(crate) fn router(&self) -> &Router {
        &self.router
    }

    /// The edges of the shortest path `src → dst` selected for flow key
    /// `key`: per-hop ECMP by a deterministic hash of `(key, current
    /// node)`, loop-free by construction.
    ///
    /// # Panics
    /// If `dst` is unreachable from `src`.
    pub fn path_edges(&mut self, src: NodeId, dst: NodeId, key: u64) -> Vec<EdgeId> {
        self.router
            .path(src, dst, key)
            .unwrap_or_else(|| panic!("no route from {src:?} to {dst:?}"))
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

/// A random connected switch graph for property tests (routing, the fault
/// plane, the network twin): a spanning tree over `n` nodes plus one random
/// duplex chord per pick. Returns the duplex node pairs; `picks` must not
/// be empty when `n > 1`.
pub fn random_connected(n: usize, picks: &[u64]) -> Vec<(u32, u32)> {
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

/// Combine an experiment seed and a flow index into a flow key for
/// [`Topology::path_edges`]: deterministic, and distinct flows land on
/// decorrelated hash streams.
pub fn ecmp_key(seed: u64, flow: u64) -> u64 {
    mix64(seed ^ mix64(flow))
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

    /// Hop count of the route `a → b`, if there is one.
    fn hops(t: &mut Topology, a: NodeId, b: NodeId) -> Option<usize> {
        t.router.path(a, b, 0).map(|p| p.len())
    }

    /// The distinct first-hop edges flows `a → b` take over 64 keys: the
    /// ECMP choice set at `a`.
    fn first_hops(t: &mut Topology, a: NodeId, b: NodeId) -> std::collections::BTreeSet<EdgeId> {
        (0..64)
            .map(|f| t.path_edges(a, b, ecmp_key(9, f))[0])
            .collect()
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
        assert_eq!(hops(&mut t, a, b), Some(2));
        assert_eq!(hops(&mut t, b, a), Some(2));
        assert_eq!(hops(&mut t, a, a), Some(0));
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
        assert_eq!(hops(&mut t, s1, s2), Some(2));
        let first = first_hops(&mut t, s1, s2);
        assert_eq!(first.len(), 1, "only the switch path is usable");
        assert_eq!(first.first().map(|&e| t.edge_endpoints(e).1), Some(x));
        // h itself can still originate and sink traffic.
        assert_eq!(hops(&mut t, h, s2), Some(1));
        assert_eq!(hops(&mut t, s2, h), Some(1));
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
        assert_eq!(hops(&mut t, a, b), Some(2));
        assert_eq!(hops(&mut t, b, a), None);
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
    }

    #[test]
    fn fat_tree_distances() {
        let mut ft = fat_tree(
            4,
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
        );
        let (h, t, a, c) = (ft.hosts[0], ft.hosts[1], ft.hosts[2], ft.hosts[15]);
        let topo = &mut ft.topo;
        assert_eq!(hops(topo, h, t), Some(2), "same rack: via ToR");
        assert_eq!(hops(topo, h, a), Some(4), "same pod: via agg");
        assert_eq!(hops(topo, h, c), Some(6), "cross pod: via core");
        // Cross-pod ECMP width at the ToR: k/2 aggs.
        assert_eq!(first_hops(topo, ft.tors[0], c).len(), 2);
    }

    #[test]
    fn forgotten_routes_refill_to_the_same_paths() {
        let mut ft = fat_tree(
            4,
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
            DcLinkSpec::new(1e9, SimDuration::from_micros(20), 256_000),
        );
        let hosts = ft.hosts.clone();
        let topo = &mut ft.topo;
        let all = |topo: &mut Topology| -> Vec<Vec<EdgeId>> {
            let pairs = hosts
                .iter()
                .flat_map(|&a| hosts.iter().map(move |&b| (a, b)));
            pairs
                .filter(|(a, b)| a != b)
                .map(|(a, b)| topo.path_edges(a, b, ecmp_key(7, a.0 as u64)))
                .collect()
        };
        let before = all(topo);
        assert_eq!(
            topo.router.dist.len(),
            hosts.len(),
            "one table per destination"
        );
        topo.forget_routes();
        assert!(topo.router.dist.is_empty());
        assert_eq!(all(topo), before);
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
        let mut topo = ls.topo;
        assert_eq!(hops(&mut topo, ls.hosts[0], ls.hosts[31]), Some(4));
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

    /// Golden routing digests: any change to BFS distances, choice-set
    /// order or the hop hash moves them.
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

    fn cfg() -> LinkConfig {
        LinkConfig::bottleneck(1e9, SimDuration::from_micros(10), 64_000)
    }

    fn build(n: usize, pairs: &[(u32, u32)]) -> Topology {
        let mut t = Topology::new();
        for _ in 0..n {
            t.add_switch();
        }
        for &(a, b) in pairs {
            t.add_duplex(NodeId(a), NodeId(b), cfg(), cfg());
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

    /// Reference hop count `src → dst`: a forward BFS over the alive nodes
    /// in which only `src` and switches forward — the router's BFS runs
    /// backwards from `dst`, so the two share no code.
    fn ref_hops(t: &Topology, alive: &[bool], src: NodeId, dst: NodeId) -> Option<usize> {
        if !alive[src.index()] || !alive[dst.index()] {
            return None;
        }
        let mut hops = vec![None; t.num_nodes()];
        hops[src.index()] = Some(0);
        let mut frontier = VecDeque::from([src]);
        while let Some(u) = frontier.pop_front() {
            if u != src && t.kind(u) == NodeKind::Host {
                continue;
            }
            for e in 0..t.num_edges() {
                let (a, b) = t.edge_endpoints(EdgeId(e as u32));
                if a == u && alive[b.index()] && hops[b.index()].is_none() {
                    hops[b.index()] = hops[u.index()].map(|h| h + 1);
                    frontier.push_back(b);
                }
            }
        }
        hops[dst.index()]
    }

    /// Set node liveness to `alive`, resolve `src → dst` and check the
    /// result: present exactly when the reference BFS finds a route, of
    /// its length, hop-connected, loop-free, through alive nodes only and
    /// never through a host.
    fn checked_path(
        t: &mut Topology,
        alive: &[bool],
        src: NodeId,
        dst: NodeId,
        key: u64,
    ) -> Option<Vec<EdgeId>> {
        for (i, &a) in alive.iter().enumerate() {
            t.router.set_alive(NodeId(i as u32), a);
        }
        let path = t.router.path(src, dst, key);
        assert_eq!(
            path.as_ref().map(Vec::len),
            ref_hops(t, alive, src, dst),
            "a path exists exactly when the alive subgraph connects the endpoints, and is shortest"
        );
        let mut cur = src;
        let mut seen = std::collections::BTreeSet::from([src]);
        for &e in path.iter().flatten() {
            let (a, b) = t.edge_endpoints(e);
            assert_eq!(a, cur, "hops are connected");
            assert!(alive[b.index()], "dead nodes carry nothing");
            assert!(seen.insert(b), "no node repeats");
            assert!(
                b == dst || t.kind(b) == NodeKind::Switch,
                "hosts never transit"
            );
            cur = b;
        }
        assert!(path.is_none() || cur == dst, "path reaches its destination");
        path
    }

    proptest! {
        /// A random connected switch graph with hosts hung off it, with
        /// every node alive and then with a random dead set: each resolved
        /// path passes `checked_path`, and reviving every node brings the
        /// original path back for the same key — what makes node repair
        /// restore routing.
        #[test]
        fn paths_are_shortest_loop_free_and_survive_node_failures(
            n in 2usize..12,
            picks in proptest::collection::vec(0u64..u64::MAX, 1..16),
            homes in proptest::collection::vec(0u64..u64::MAX, 2..5),
            dead in 0u64..u64::MAX,
            src in 0u64..16, dst in 0u64..16, key in 0u64..u64::MAX,
        ) {
            let mut t = build(n, &random_connected(n, &picks));
            for &h in &homes {
                let host = t.add_host();
                // Dual-homed when the two picks differ, so a host can sit on
                // a shortcut between switches that it must not carry.
                let mut homes = vec![h % n as u64, (h >> 20) % n as u64];
                homes.dedup();
                for s in homes {
                    t.add_duplex(host, NodeId(s as u32), cfg(), cfg());
                }
            }
            let total = t.num_nodes();
            let (src, dst) = (NodeId((src % total as u64) as u32), NodeId((dst % total as u64) as u32));
            let all = vec![true; total];
            let original = checked_path(&mut t, &all, src, dst, key);
            prop_assert!(original.is_some(), "the graph is connected through switches");
            // About one node in four dies.
            let alive: Vec<bool> = (0..total).map(|i| (dead >> (2 * i)) & 3 != 0).collect();
            checked_path(&mut t, &alive, src, dst, key);
            prop_assert_eq!(checked_path(&mut t, &all, src, dst, key), original);
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
