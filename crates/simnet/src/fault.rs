//! Deterministic fault-injection plane: scheduled link/node failures and
//! corruption.
//!
//! A [`FaultScript`] is a plain-text schedule (same spirit as
//! [`crate::trace::LinkTrace`]: one event per line, `#` comments,
//! line-attributed parse errors) compiled into time-ordered
//! [`FaultEvent`]s. A [`FaultPlane`] owns the compiled schedule plus an
//! optional copy of the routing view of the [`Topology`] the simulation
//! was built from; the simulation fires one
//! [`crate::event::Event::Fault`] per entry and applies it through the
//! plane.
//!
//! Script format — `time_s event target [args]`, targets are simulator
//! link / node indexes:
//!
//! ```text
//! # t     event      target  args
//! 0.5     down       3       0.25        # link 3 down for 0.25 s
//! 1.0     up         4                   # explicit repair
//! 1.5     node_down  2       1.0         # node 2 (and adjacent links) down for 1 s
//! 2.0     node_up    5
//! 3.0     corrupt    3       0.5  0.2    # kill 20% of link 3's packets for 0.5 s
//! ```
//!
//! Semantics:
//!
//! * **Link down** purges the queue and black-holes everything offered
//!   (every kill counted in [`crate::link::LinkStats::fault_dropped`] — no
//!   fault loss is ever silent). Downing a reverse-path link is the
//!   asymmetric ACK-path blackout: data flows, ACKs die.
//! * **Node down** takes every adjacent link down and — when a topology
//!   is attached — marks the node dead in the plane's copy of the router
//!   and re-resolves every registered flow's path with it, so flows shift
//!   to surviving equal-cost paths deterministically. Flows with no
//!   surviving path keep their (dead) path and stall against it; repair
//!   restores the original routing because a path is a pure function of
//!   `(key, graph, live nodes)`.
//! * **Corrupt** rolls per-packet on dedicated
//!   [`crate::rng::SimRng::derive`] streams salted by the fault's schedule index, so
//!   activating a fault never perturbs any other random process and runs
//!   stay bit-identical per seed at any `--jobs`.
//!
//! In-flight packets are grandfathered onto a rewritten path at their
//! current hop index: the plane models routing-table updates, not
//! per-packet tunnels.

use std::collections::{BTreeMap, BTreeSet};

use crate::ids::{EdgeId, FlowId, LinkId, NodeId};
use crate::text::{self, lines, TextError};
use crate::time::SimTime;
use crate::topo::{Router, Topology};

const FAULT: &str = "fault script";

/// One schedulable fault transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Take a link down (queue purged, offers black-holed).
    LinkDown {
        /// The link to fail.
        link: LinkId,
    },
    /// Bring a link back up.
    LinkUp {
        /// The link to repair.
        link: LinkId,
    },
    /// Fail a node: every adjacent link goes down and registered flows are
    /// re-routed over the surviving graph.
    NodeDown {
        /// The node to fail.
        node: NodeId,
    },
    /// Repair a node: adjacent links to live peers come back (unless still
    /// held down by an explicit link fault) and flows re-route.
    NodeUp {
        /// The node to repair.
        node: NodeId,
    },
    /// Start killing a fraction of the link's surviving packets at egress.
    CorruptOn {
        /// The link to corrupt.
        link: LinkId,
        /// Per-packet kill probability in `[0, 1]`.
        prob: f64,
    },
    /// Stop the corruption fault on a link.
    CorruptOff {
        /// The link to restore.
        link: LinkId,
    },
}

/// Default corruption probability when a script omits one.
pub const DEFAULT_FAULT_PROB: f64 = 0.5;

/// A parsed, compiled fault schedule: `(time, event)` pairs.
///
/// Build one with [`FaultScript::parse`] or programmatically with
/// [`FaultScript::push`]; [`FaultPlane::new`] stable-sorts entries by time,
/// so same-time events apply in insertion (source-line) order.
#[derive(Clone, Debug, Default)]
pub struct FaultScript {
    entries: Vec<(SimTime, FaultEvent)>,
}

impl FaultScript {
    /// An empty script.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Append an event (programmatic construction; any time order).
    pub fn push(&mut self, at: SimTime, event: FaultEvent) {
        self.entries.push((at, event));
    }

    /// The raw entries, in construction order.
    pub fn entries(&self) -> &[(SimTime, FaultEvent)] {
        &self.entries
    }

    /// Number of compiled events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the script has no events.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parse the plain-text format (see the module docs). Lines must be in
    /// non-decreasing start-time order; durations compile into a paired
    /// repair/stop event.
    pub fn parse(text: &str) -> Result<FaultScript, TextError> {
        let mut script = FaultScript::new();
        let mut last_start = 0.0;
        for (n, cols) in lines(text) {
            let err = |reason: String| Err(text::err(FAULT, n, reason));
            if cols.len() < 3 {
                return err("expected `time_s event target [args]`".into());
            }
            let t = text::num(FAULT, n, cols[0], "time")?;
            if t < 0.0 {
                return err(format!("time must be >= 0, got {t}"));
            }
            if t < last_start {
                return err(format!(
                    "start times must be non-decreasing ({t} after {last_start})"
                ));
            }
            last_start = t;
            let Ok(target) = cols[2].parse::<u32>() else {
                return err(format!("target is not an index: {}", cols[2]));
            };
            let (link, node) = (LinkId(target), NodeId(target));
            let end = match cols.get(3) {
                None => None,
                Some(_) if matches!(cols[1], "up" | "node_up") => {
                    return err(format!("`{}` takes no arguments after the target", cols[1]))
                }
                Some(tok) => {
                    let d = text::num(FAULT, n, tok, "duration")?;
                    if d <= 0.0 {
                        return err(format!("duration must be > 0, got {d}"));
                    }
                    Some(SimTime::from_secs_f64(t + d))
                }
            };
            let prob = || match cols.get(4) {
                None => Ok(DEFAULT_FAULT_PROB),
                Some(tok) => match text::num(FAULT, n, tok, "probability")? {
                    p if (0.0..=1.0).contains(&p) => Ok(p),
                    p => Err(text::err(
                        FAULT,
                        n,
                        format!("probability must be in [0, 1], got {p}"),
                    )),
                },
            };
            let (start, stop) = match cols[1] {
                "down" => (
                    FaultEvent::LinkDown { link },
                    Some(FaultEvent::LinkUp { link }),
                ),
                "up" => (FaultEvent::LinkUp { link }, None),
                "node_down" => (
                    FaultEvent::NodeDown { node },
                    Some(FaultEvent::NodeUp { node }),
                ),
                "node_up" => (FaultEvent::NodeUp { node }, None),
                "corrupt" if end.is_none() => {
                    return err(format!("`{}` requires a duration", cols[1]))
                }
                "corrupt" => (
                    FaultEvent::CorruptOn {
                        link,
                        prob: prob()?,
                    },
                    Some(FaultEvent::CorruptOff { link }),
                ),
                other => return err(format!("unknown event `{other}`")),
            };
            // `time event target [duration [probability]]`; only `corrupt`
            // reads a probability.
            let most = if cols[1] == "corrupt" { 5 } else { 4 };
            if cols.len() > most {
                return err(format!(
                    "too many columns for `{}`: expected at most {most}, got {}",
                    cols[1],
                    cols.len()
                ));
            }
            script.push(SimTime::from_secs_f64(t), start);
            if let (Some(end), Some(stop)) = (end, stop) {
                script.push(end, stop);
            }
        }
        Ok(script)
    }
}

/// A registered flow the plane can re-route after node failures.
#[derive(Clone, Copy, Debug)]
struct FlowReg {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    key: u64,
}

/// The attached topology: a copy of its router, on which node faults flip
/// liveness, and the edge ↔ simulator-link correspondence.
struct FaultGraph {
    router: Router,
    /// The link realizing each edge, in edge-id order.
    links: Vec<LinkId>,
    /// The edge each link realizes.
    edges: BTreeMap<LinkId, EdgeId>,
    flows: Vec<FlowReg>,
}

/// The net effect of applying one fault entry (consumed by the simulation).
#[derive(Debug, Default)]
pub(crate) struct FaultChange {
    /// Links to take down.
    pub(crate) link_down: Vec<LinkId>,
    /// Links to bring back up.
    pub(crate) link_up: Vec<LinkId>,
    /// Corruption faults to install (`Some(prob)`) or clear (`None`).
    pub(crate) corrupt: Vec<(LinkId, Option<f64>)>,
    /// True when registered flows must be re-routed.
    pub(crate) reroute: bool,
}

/// The fault plane: a compiled schedule plus the state needed to apply it
/// (explicit link faults, and the router copy that tracks node liveness
/// and re-resolves paths after node failures).
///
/// Attach to a simulation via
/// [`crate::sim::NetworkBuilder::set_fault_plane`]. Without
/// [`FaultPlane::attach_topology`], node events are ignored (there is no
/// graph to reason about) and link events still work.
pub struct FaultPlane {
    entries: Vec<(SimTime, FaultEvent)>,
    explicit_down: BTreeSet<LinkId>,
    graph: Option<FaultGraph>,
}

impl FaultPlane {
    /// Build a plane from a script (entries stable-sorted by time).
    pub fn new(script: FaultScript) -> Self {
        let mut entries = script.entries;
        entries.sort_by_key(|&(at, _)| at);
        FaultPlane {
            entries,
            explicit_down: BTreeSet::new(),
            graph: None,
        }
    }

    /// Copy `topo`'s routing view and edge → link map so node failures can
    /// re-route flows. Every edge must already be installed into the
    /// builder this plane will be attached to.
    ///
    /// # Panics
    /// If an edge has not been installed yet.
    pub fn attach_topology(&mut self, topo: &Topology) {
        let edge_ids = || (0..topo.num_edges() as u32).map(EdgeId);
        self.graph = Some(FaultGraph {
            router: topo.router().clone(),
            links: edge_ids().map(|e| topo.link_of(e)).collect(),
            edges: edge_ids().map(|e| (topo.link_of(e), e)).collect(),
            flows: Vec::new(),
        });
    }

    /// Register a flow for post-failure re-routing: the simulator flow id,
    /// its endpoint nodes, and the ECMP key its paths were resolved with.
    ///
    /// # Panics
    /// If no topology snapshot is attached.
    pub fn register_flow(&mut self, flow: FlowId, src: NodeId, dst: NodeId, key: u64) {
        let graph = self
            .graph
            .as_mut()
            .expect("attach_topology before register_flow");
        graph.flows.push(FlowReg {
            flow,
            src,
            dst,
            key,
        });
    }

    /// The compiled schedule, time-sorted.
    pub(crate) fn entries(&self) -> &[(SimTime, FaultEvent)] {
        &self.entries
    }

    /// Compute the net effect of schedule entry `index`.
    pub(crate) fn transition(&mut self, index: usize) -> FaultChange {
        let mut change = FaultChange::default();
        let Some(&(_, event)) = self.entries.get(index) else {
            return change;
        };
        match event {
            FaultEvent::LinkDown { link } => {
                self.explicit_down.insert(link);
                change.link_down.push(link);
            }
            FaultEvent::LinkUp { link } => {
                self.explicit_down.remove(&link);
                if self.endpoints_alive(link) {
                    change.link_up.push(link);
                }
            }
            FaultEvent::NodeDown { node } => {
                if let Some(g) = self.graph.as_mut() {
                    if g.router.set_alive(node, false) {
                        let adjacent = g.router.incident(node);
                        change
                            .link_down
                            .extend(adjacent.iter().map(|e| g.links[e.index()]));
                        change.reroute = true;
                    }
                }
            }
            FaultEvent::NodeUp { node } => {
                if let Some(g) = self.graph.as_mut() {
                    if g.router.set_alive(node, true) {
                        for e in g.router.incident(node) {
                            let link = g.links[e.index()];
                            if g.router.edge_alive(e) && !self.explicit_down.contains(&link) {
                                change.link_up.push(link);
                            }
                        }
                        change.reroute = true;
                    }
                }
            }
            FaultEvent::CorruptOn { link, prob } => change.corrupt.push((link, Some(prob))),
            FaultEvent::CorruptOff { link } => change.corrupt.push((link, None)),
        }
        change
    }

    /// Re-resolve every registered flow's forward/reverse paths over the
    /// surviving graph. Flows with no surviving path (or a dead endpoint)
    /// are omitted — they keep their existing paths and stall against the
    /// downed links.
    pub(crate) fn reroute(&mut self) -> Vec<(FlowId, Vec<LinkId>, Vec<LinkId>)> {
        let Some(FaultGraph {
            router,
            links,
            flows,
            ..
        }) = self.graph.as_mut()
        else {
            return Vec::new();
        };
        let mut resolve = |src, dst, key| -> Option<Vec<LinkId>> {
            let path = router.path(src, dst, key)?;
            Some(path.into_iter().map(|e| links[e.index()]).collect())
        };
        flows
            .iter()
            .filter_map(|reg| {
                let fwd = resolve(reg.src, reg.dst, reg.key)?;
                let rev = resolve(reg.dst, reg.src, reg.key)?;
                Some((reg.flow, fwd, rev))
            })
            .collect()
    }

    /// True when both endpoints of `link`'s edge are alive (or the link
    /// realizes no attached edge, so node liveness cannot hold it down).
    fn endpoints_alive(&self, link: LinkId) -> bool {
        self.graph
            .as_ref()
            .and_then(|g| Some(g.router.edge_alive(*g.edges.get(&link)?)))
            .unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::{NetworkBuilder, SimConfig};
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn parses_all_events_and_compiles_durations() {
        let s = FaultScript::parse(
            "# chaos\n\
             0.5  down      3  0.25\n\
             1.0  up        4\n\
             1.5  node_down 2  1.0\n\
             2.0  node_up   5\n\
             3.0  corrupt   3  0.5 0.2\n\
             3.5  corrupt   4  0.5\n",
        )
        .expect("valid script");
        // 6 lines, 4 with paired end events: down+up, node_down+node_up,
        // and two corrupt on/off pairs.
        assert_eq!(s.len(), 10);
        let plane = FaultPlane::new(s);
        let times: Vec<f64> = plane
            .entries()
            .iter()
            .map(|(at, _)| at.as_secs_f64())
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "sorted by time: {times:?}"
        );
        assert_eq!(
            plane.entries()[0].1,
            FaultEvent::LinkDown { link: LinkId(3) }
        );
        // The compiled repair for line 1 lands at 0.75 s.
        assert!(plane
            .entries()
            .iter()
            .any(|&(at, e)| e == FaultEvent::LinkUp { link: LinkId(3) }
                && (at.as_secs_f64() - 0.75).abs() < 1e-9));
        assert!(plane.entries().iter().any(|&(_, e)| matches!(
            e,
            FaultEvent::CorruptOn { link: LinkId(3), prob } if (prob - 0.2).abs() < 1e-12
        )));
        assert!(plane.entries().iter().any(|&(_, e)| matches!(
            e,
            FaultEvent::CorruptOn { link: LinkId(4), prob }
                if (prob - DEFAULT_FAULT_PROB).abs() < 1e-12
        )));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("0.5 down", "expected"),
            ("0.5 explode 3", "unknown event"),
            (
                "1.0 duplicate 0 2.0 0.05",
                "line 1: unknown event `duplicate`",
            ),
            ("nan down 3", "not a finite number"),
            ("1.0 down 3\n0.5 down 4", "non-decreasing"),
            ("0.5 corrupt 3", "requires a duration"),
            ("0.5 corrupt 3 1.0 1.5", "probability must be in"),
            ("0.5 down 3 -1", "duration must be > 0"),
            ("0.5 down x", "not an index"),
            ("0.5 up 3 9", "takes no arguments"),
            ("1 down 0 0.5 0.3", "too many columns"),
            ("1 node_down 0 0.5 0.3", "too many columns"),
            ("1 corrupt 0 0.5 0.3 7", "too many columns"),
        ];
        for (text, want) in cases {
            let e = FaultScript::parse(text).expect_err(text);
            assert!(
                e.to_string().contains(want),
                "{text:?} => {e} (wanted {want:?})"
            );
            assert!(e.line >= 1);
        }
        // The error Display is line-attributed.
        let e = FaultScript::parse("0.0 down 1\n\n# c\nbogus line here").expect_err("bad");
        assert_eq!(e.line, 4);
        assert!(e.to_string().starts_with("fault script line 4:"));
    }

    /// Two hosts joined via two equal-cost switches; killing the switch the
    /// flow's ECMP hash picked must re-route it onto the survivor, and
    /// repair must restore the original path.
    #[test]
    fn node_failure_reroutes_onto_survivor_and_repair_restores() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        let s1 = topo.add_switch();
        let s2 = topo.add_switch();
        for &s in &[s1, s2] {
            topo.add_duplex(
                a,
                s,
                LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 64_000),
                LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 64_000),
            );
            topo.add_duplex(
                s,
                b,
                LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 64_000),
                LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 64_000),
            );
        }
        let mut net = NetworkBuilder::new(SimConfig::default());
        topo.install(&mut net);
        let key = 7u64;
        let original = topo.flow_path(a, b, key);

        let mut script = FaultScript::new();
        script.push(SimTime::from_secs(1), FaultEvent::NodeDown { node: s1 });
        script.push(SimTime::from_secs(2), FaultEvent::NodeUp { node: s1 });
        let mut plane = FaultPlane::new(script);
        plane.attach_topology(&topo);
        plane.register_flow(FlowId(0), a, b, key);

        // Before any fault the re-resolver agrees with routing exactly.
        let routed = plane.reroute();
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].1, original.fwd);
        assert_eq!(routed[0].2, original.rev);

        let change = plane.transition(0);
        assert!(change.reroute);
        assert_eq!(change.link_down.len(), 4, "all four s1-adjacent links");
        let rerouted = plane.reroute();
        assert_eq!(rerouted.len(), 1);
        for link in rerouted[0].1.iter().chain(rerouted[0].2.iter()) {
            assert!(
                !change.link_down.contains(link),
                "surviving path avoids dead links"
            );
        }

        // Repair: the original ECMP path comes back verbatim.
        let change = plane.transition(1);
        assert!(change.reroute);
        assert_eq!(change.link_up.len(), 4);
        let restored = plane.reroute();
        assert_eq!(restored[0].1, original.fwd);
        assert_eq!(restored[0].2, original.rev);
    }

    #[test]
    fn explicit_link_fault_survives_node_repair() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let s = topo.add_switch();
        let b = topo.add_host();
        let (e0, _) = topo.add_duplex(
            a,
            s,
            LinkConfig::delay_only(SimDuration::from_micros(20)),
            LinkConfig::delay_only(SimDuration::from_micros(20)),
        );
        topo.add_duplex(
            s,
            b,
            LinkConfig::delay_only(SimDuration::from_micros(20)),
            LinkConfig::delay_only(SimDuration::from_micros(20)),
        );
        let mut net = NetworkBuilder::new(SimConfig::default());
        topo.install(&mut net);
        let l0 = topo.link_of(e0);

        let mut script = FaultScript::new();
        script.push(SimTime::from_secs(1), FaultEvent::LinkDown { link: l0 });
        script.push(SimTime::from_secs(2), FaultEvent::NodeDown { node: s });
        script.push(SimTime::from_secs(3), FaultEvent::NodeUp { node: s });
        script.push(SimTime::from_secs(4), FaultEvent::LinkUp { link: l0 });
        let mut plane = FaultPlane::new(script);
        plane.attach_topology(&topo);

        assert_eq!(plane.transition(0).link_down, vec![l0]);
        assert!(
            plane.transition(1).link_down.contains(&l0),
            "node takes it too"
        );
        let up_after_node_repair = plane.transition(2).link_up;
        assert!(
            !up_after_node_repair.contains(&l0),
            "explicitly failed link stays down across node repair"
        );
        assert_eq!(plane.transition(3).link_up, vec![l0]);
    }

    #[test]
    fn pure_delay_loss_is_counted() {
        use crate::endpoint::{Endpoint, EndpointCtx};
        use crate::packet::Packet;
        use crate::sim::FlowSpec;
        // Regression: random loss on a pure-delay shim used to vanish
        // without touching `LinkStats.egress_lost`.
        struct Blaster(u64);
        impl Endpoint for Blaster {
            fn start(&mut self, ctx: &mut EndpointCtx) {
                ctx.set_timer(ctx.now, 0);
            }
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut EndpointCtx) {
                if self.0 < 1000 {
                    ctx.send_data(self.0, 1500, false);
                    self.0 += 1;
                    ctx.set_timer(ctx.now + SimDuration::from_millis(1), 0);
                }
            }
        }
        struct Sink;
        impl Endpoint for Sink {
            fn start(&mut self, _ctx: &mut EndpointCtx) {}
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
        }
        let mut nb = NetworkBuilder::new(SimConfig::default());
        let fwd = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(5)).with_loss(0.5));
        let rev = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(5)));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(Blaster(0)),
            receiver: Box::new(Sink),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let report = nb.build().run_until(SimTime::from_secs(2));
        let st = &report.flows[flow.index()];
        let ls = report.links[fwd.index()].stats;
        assert_eq!(st.sent_packets, 1000);
        assert_eq!(
            ls.egress_lost + st.delivered_packets,
            1000,
            "every shim loss is counted"
        );
        assert!(ls.egress_lost > 300, "~50% loss: {}", ls.egress_lost);
    }

    #[test]
    fn node_events_without_graph_are_ignored() {
        let mut script = FaultScript::new();
        script.push(
            SimTime::from_secs(1),
            FaultEvent::NodeDown { node: NodeId(0) },
        );
        let mut plane = FaultPlane::new(script);
        let change = plane.transition(0);
        assert!(change.link_down.is_empty());
        assert!(!change.reroute);
        assert!(plane.reroute().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::endpoint::{Endpoint, EndpointCtx};
    use crate::ids::NodeId;
    use crate::link::LinkConfig;
    use crate::packet::{AckInfo, Packet};
    use crate::sim::{FlowSpec, NetworkBuilder, SimConfig};
    use crate::time::{SimDuration, SimTime};
    use crate::topo::{ecmp_key, random_connected, Topology};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Paced sender that counts the ACKs it hears back.
    struct CountingSender {
        next_seq: u64,
        count: u64,
        spacing: SimDuration,
        acks_heard: Arc<AtomicU64>,
    }

    impl Endpoint for CountingSender {
        fn start(&mut self, ctx: &mut EndpointCtx) {
            ctx.set_timer(ctx.now, 0);
        }
        fn on_packet(&mut self, pkt: &Packet, _ctx: &mut EndpointCtx) {
            assert!(pkt.as_ack().is_some(), "sender side only hears ACKs");
            self.acks_heard.fetch_add(1, Ordering::Relaxed);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut EndpointCtx) {
            if self.next_seq < self.count {
                ctx.send_data(self.next_seq, 1500, false);
                self.next_seq += 1;
                ctx.set_timer(ctx.now + self.spacing, 0);
            }
        }
    }

    /// Receiver that ACKs every data packet and counts the ACKs it sends.
    struct CountingReceiver {
        received: u64,
        acks_sent: Arc<AtomicU64>,
    }

    impl Endpoint for CountingReceiver {
        fn start(&mut self, _ctx: &mut EndpointCtx) {}
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
            let d = pkt.as_data().expect("receiver side only hears data");
            self.received += 1;
            ctx.record_goodput(pkt.bytes as u64);
            self.acks_sent.fetch_add(1, Ordering::Relaxed);
            ctx.send_ack(AckInfo {
                acked_seq: d.seq,
                cum_ack: self.received,
                echo_sent_at: d.sent_at,
                recv_at: ctx.now,
                recv_bytes: self.received * 1500,
                probe_train: d.probe_train,
                of_retx: d.retx,
            });
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    }

    /// Decode a raw `(kind, target, extra)` triple into a fault event. The
    /// modulus intentionally ranges past the real id space so out-of-range
    /// targets exercise the plane's ignore-don't-panic guards.
    fn decode_event(kind: u64, target: u64, extra: u64, links: u64, nodes: u64) -> FaultEvent {
        let link = crate::ids::LinkId((target % (2 * links)) as u32);
        let node = NodeId((target % (2 * nodes)) as u32);
        let prob = (extra % 101) as f64 / 100.0;
        match kind % 6 {
            0 => FaultEvent::LinkDown { link },
            1 => FaultEvent::LinkUp { link },
            2 => FaultEvent::NodeDown { node },
            3 => FaultEvent::NodeUp { node },
            4 => FaultEvent::CorruptOn { link, prob },
            _ => FaultEvent::CorruptOff { link },
        }
    }

    /// Everything a chaos run can observe — compared across reruns for
    /// bit-identity and checked for packet conservation.
    #[derive(Clone, Debug, PartialEq)]
    struct Outcome {
        events_processed: u64,
        data_sent: u64,
        data_delivered: u64,
        acks_sent: u64,
        acks_heard: u64,
        removed: u64,
    }

    /// Build a random connected topology, run a 60-packet flow through a
    /// random fault script, and tally every packet the network touched.
    fn run_chaos(n: usize, picks: &[u64], events: &[(u64, u64, u64)], seed: u64) -> Outcome {
        let mut topo = Topology::new();
        for _ in 0..n {
            topo.add_switch();
        }
        let cfg = || LinkConfig::bottleneck(50e6, SimDuration::from_micros(100), 30_000);
        for &(a, b) in &random_connected(n, picks) {
            topo.add_duplex(NodeId(a), NodeId(b), cfg(), cfg());
        }
        let src = topo.add_host();
        let dst = topo.add_host();
        topo.add_duplex(src, NodeId((picks[0] % n as u64) as u32), cfg(), cfg());
        topo.add_duplex(
            dst,
            NodeId((picks[picks.len() - 1] % n as u64) as u32),
            cfg(),
            cfg(),
        );
        let mut nb = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed,
        });
        topo.install(&mut nb);
        let key = ecmp_key(seed, 0);
        let path = topo.flow_path(src, dst, key);
        let acks_heard = Arc::new(AtomicU64::new(0));
        let acks_sent = Arc::new(AtomicU64::new(0));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(CountingSender {
                next_seq: 0,
                count: 60,
                spacing: SimDuration::from_millis(10),
                acks_heard: Arc::clone(&acks_heard),
            }),
            receiver: Box::new(CountingReceiver {
                received: 0,
                acks_sent: Arc::clone(&acks_sent),
            }),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let links = topo.num_edges() as u64;
        let nodes = topo.num_nodes() as u64;
        let mut script = FaultScript::new();
        for &(t, kind, rest) in events {
            let at = SimTime::from_millis(t % 1000);
            script.push(at, decode_event(kind, rest, rest >> 32, links, nodes));
        }
        let mut plane = FaultPlane::new(script);
        plane.attach_topology(&topo);
        plane.register_flow(flow, src, dst, key);
        nb.set_fault_plane(plane);
        let report = nb.build().run_until(SimTime::from_secs(4));
        let st = &report.flows[flow.index()];
        let mut removed = 0;
        for l in &report.links {
            removed += l.stats.egress_lost
                + l.stats.fault_dropped
                + l.stats.fault_corrupted
                + l.queue.dropped_tail
                + l.queue.dropped_aqm;
        }
        Outcome {
            events_processed: report.events_processed,
            data_sent: st.sent_packets,
            data_delivered: st.delivered_packets,
            acks_sent: acks_sent.load(Ordering::Relaxed),
            acks_heard: acks_heard.load(Ordering::Relaxed),
            removed,
        }
    }

    proptest! {
        /// Any fault script on any connected topology: routing never
        /// panics, and every packet the endpoints injected is either
        /// delivered or shows up in a loss counter — nothing vanishes
        /// silently. The run is also bit-identical when repeated.
        #[test]
        fn chaos_conserves_packets_and_is_deterministic(
            n in 2usize..10,
            picks in proptest::collection::vec(0u64..u64::MAX, 1..12),
            events in proptest::collection::vec(
                (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..12),
            seed in 0u64..u64::MAX,
        ) {
            let out = run_chaos(n, &picks, &events, seed);
            let injected = out.data_sent + out.acks_sent;
            let accounted = out.data_delivered + out.acks_heard + out.removed;
            prop_assert_eq!(
                injected, accounted,
                "conservation: {:?}", out
            );
            let again = run_chaos(n, &picks, &events, seed);
            prop_assert_eq!(out, again, "chaos reruns are bit-identical");
        }
    }
}
