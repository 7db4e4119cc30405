//! Datacenter scenario family on the topology subsystem.
//!
//! Three canonical workloads on multi-hop Clos fabrics, the regimes where
//! congestion-control behavior diverges hardest from the paper's dumbbell
//! results ("Micro Congestion Control" in PAPERS.md):
//!
//! * [`run_rack_incast`] — many senders across a fat-tree converge on one
//!   host; the queue builds at the receiver's ToR **down-link**, the
//!   classic incast hotspot.
//! * [`run_ft_permutation`] — cross-pod permutation traffic on a fat-tree:
//!   every host sends to the host half the fabric away, so every flow
//!   crosses the core and exercises ECMP spreading.
//! * [`run_ls_mix`] — an elephant/mouse mix on an oversubscribed
//!   leaf-spine fabric, where the contended spine uplinks shape tail FCT.
//!
//! Every run yields per-path flow completion times (p50/p99 via
//! [`dc_stats`]) and per-link utilization ([`pcc_simnet::topo::link_usage`]).
//! All randomness is seed-derived, so runs are bit-deterministic and safe
//! to fan out on the parallel experiment runner.

use pcc_simnet::prelude::*;
use pcc_transport::FlowSize;

use crate::protocol::Protocol;
use crate::scenario::{Flow, Scenario, ScenarioRun};

/// Host (and full-bisection fabric) port speed.
pub const DC_HOST_RATE_BPS: f64 = 1e9;
/// Per-hop one-way propagation delay.
pub const DC_HOP_DELAY: SimDuration = SimDuration::from_micros(20);
/// Drop-tail buffer per port (same shallow-buffer regime as Fig. 10).
pub const DC_BUFFER_BYTES: u64 = 256_000;
/// Horizon: generous even for an RTO-collapsed workload.
pub const DC_HORIZON: SimTime = SimTime::from_secs(30);

/// The default datacenter link class.
pub fn dc_link() -> DcLinkSpec {
    DcLinkSpec::new(DC_HOST_RATE_BPS, DC_HOP_DELAY, DC_BUFFER_BYTES)
}

/// One flow of a datacenter workload: host indices into the fabric's host
/// list plus a transfer size.
#[derive(Clone, Copy, Debug)]
pub struct DcFlow {
    /// Sending host index.
    pub src: usize,
    /// Receiving host index.
    pub dst: usize,
    /// Transfer size in bytes.
    pub size_bytes: u64,
}

/// A completed datacenter run: the simulator report, the flows in workload
/// order, and per-edge utilization.
pub struct DcRun {
    /// Full simulator report.
    pub report: SimReport,
    /// Flow ids, in [`DcFlow`] order.
    pub flows: Vec<FlowId>,
    /// Per-rated-edge utilization and queue counters, in edge order.
    pub links: Vec<LinkUse>,
}

/// Route `flows` over an (uninstalled) fabric and run until `horizon`.
///
/// Each flow's path comes from the fabric's ECMP routing keyed by
/// `ecmp_key(seed, flow index)`; its sender's RTT hint is the routed path's
/// base RTT (hop count times [`DC_HOP_DELAY`] on these fabrics). All flows
/// start at t=0 (synchronized, the hardest case for shallow buffers).
pub fn run_dc(
    topo: Topology,
    hosts: &[NodeId],
    flows: &[DcFlow],
    protocol: &Protocol,
    horizon: SimTime,
    seed: u64,
) -> DcRun {
    let mut scenario = Scenario::new(topo, seed);
    scenario.flows = flows
        .iter()
        .map(|f| Flow {
            size: FlowSize::Bytes(f.size_bytes),
            ..Flow::new(hosts[f.src], hosts[f.dst], protocol.clone())
        })
        .collect();
    let ScenarioRun {
        report,
        flows: ids,
        topology: topo,
    } = scenario.run(horizon);
    // Utilization over the busy period (last completion), not the full
    // horizon — short workloads would otherwise dilute every link toward
    // zero. Unfinished flows stretch the window to the whole run.
    let until = if report.flows.iter().all(|f| f.completed_at.is_some()) {
        report
            .flows
            .iter()
            .filter_map(|f| f.completed_at)
            .max()
            .unwrap_or(report.ended_at)
    } else {
        report.ended_at
    };
    let links = link_usage(&topo, &report, until);
    DcRun {
        report,
        flows: ids,
        links,
    }
}

/// Summary statistics of one datacenter run.
#[derive(Clone, Copy, Debug)]
pub struct DcStats {
    /// Flows in the workload.
    pub total: usize,
    /// Flows that completed within the horizon.
    pub completed: usize,
    /// Median flow completion time, ms (incomplete flows count as the
    /// horizon — strongly penalized, as in Fig. 10).
    pub fct_p50_ms: f64,
    /// 99th-percentile flow completion time, ms (same penalty).
    pub fct_p99_ms: f64,
    /// Aggregate goodput, Mbit/s: total workload bits over the slowest
    /// completion (or the horizon when any flow is unfinished).
    pub goodput_mbps: f64,
    /// Highest per-link utilization across rated edges.
    pub max_link_util: f64,
    /// Largest peak queue backlog across rated edges, bytes.
    pub max_queue_bytes: u64,
}

/// Reduce a [`DcRun`] to [`DcStats`].
pub fn dc_stats(run: &DcRun, flows: &[DcFlow], horizon: SimTime) -> DcStats {
    let mut fcts_ms = Vec::with_capacity(flows.len());
    let mut completed = 0;
    let mut max_fct = SimDuration::ZERO;
    for &id in &run.flows {
        match run.report.flows[id.index()].fct() {
            Some(fct) => {
                completed += 1;
                max_fct = max_fct.max(fct);
                fcts_ms.push(fct.as_millis_f64());
            }
            None => fcts_ms.push(horizon.as_secs_f64() * 1e3),
        }
    }
    let elapsed = if completed == flows.len() {
        max_fct.as_secs_f64()
    } else {
        horizon.as_secs_f64()
    };
    let total_bits: f64 = flows.iter().map(|f| f.size_bytes as f64 * 8.0).sum();
    DcStats {
        total: flows.len(),
        completed,
        fct_p50_ms: percentile(&fcts_ms, 50.0),
        fct_p99_ms: percentile(&fcts_ms, 99.0),
        goodput_mbps: total_bits / elapsed.max(f64::MIN_POSITIVE) / 1e6,
        max_link_util: run.links.iter().map(|l| l.utilization).fold(0.0, f64::max),
        max_queue_bytes: run
            .links
            .iter()
            .map(|l| l.queue.max_backlog_bytes)
            .max()
            .unwrap_or(0),
    }
}

/// Outcome of a rack-scale incast round.
pub struct RackIncast {
    /// Workload summary.
    pub stats: DcStats,
    /// Utilization/queue counters of the receiver's ToR down-link — the
    /// incast hotspot.
    pub down_link: LinkUse,
    /// The full run, for deeper inspection.
    pub run: DcRun,
}

/// Rack-scale incast on a `k`-ary fat-tree: `n_senders` hosts (everything
/// but the receiver, in host order) each push `block_bytes` to host 0,
/// synchronized. The receiver's ToR down-link is the bottleneck.
pub fn run_rack_incast(
    k: usize,
    protocol: &Protocol,
    n_senders: usize,
    block_bytes: u64,
    seed: u64,
) -> RackIncast {
    let ft = fat_tree(k, dc_link(), dc_link());
    assert!(
        n_senders < ft.hosts.len(),
        "fat-tree k={k} has only {} hosts ({} possible senders)",
        ft.hosts.len(),
        ft.hosts.len() - 1
    );
    let flows: Vec<DcFlow> = (1..=n_senders)
        .map(|src| DcFlow {
            src,
            dst: 0,
            size_bytes: block_bytes,
        })
        .collect();
    let down_edge = ft.down_edge(0);
    let hosts = ft.hosts;
    let run = run_dc(ft.topo, &hosts, &flows, protocol, DC_HORIZON, seed);
    let stats = dc_stats(&run, &flows, DC_HORIZON);
    let down_link = *run
        .links
        .iter()
        .find(|l| l.edge == down_edge)
        .expect("host down-link is rated");
    RackIncast {
        stats,
        down_link,
        run,
    }
}

/// Cross-pod permutation on a `k`-ary fat-tree: every host sends
/// `flow_bytes` to the host half the fabric away, so all `k³/4` flows
/// cross the core simultaneously and ECMP spreads them over the spine.
///
/// `mk_protocol` is a source-compat shim for the benchmark package, which
/// may not change with this crate: it is evaluated once, with the 12-hop
/// base RTT every cross-pod path has, and the result drives every flow.
pub fn run_ft_permutation(
    k: usize,
    mk_protocol: &dyn Fn(SimDuration) -> Protocol,
    flow_bytes: u64,
    seed: u64,
) -> (DcStats, DcRun) {
    let ft = fat_tree(k, dc_link(), dc_link());
    let n = ft.hosts.len();
    let flows: Vec<DcFlow> = (0..n)
        .map(|src| DcFlow {
            src,
            dst: (src + n / 2) % n,
            size_bytes: flow_bytes,
        })
        .collect();
    let hosts = ft.hosts;
    let protocol = mk_protocol(DC_HOP_DELAY * 12);
    let run = run_dc(ft.topo, &hosts, &flows, &protocol, DC_HORIZON, seed);
    let stats = dc_stats(&run, &flows, DC_HORIZON);
    (stats, run)
}

/// Shape of the leaf-spine fabric [`run_ls_mix`] builds.
#[derive(Clone, Copy, Debug)]
pub struct LsFabric {
    /// Number of leaf (top-of-rack) switches.
    pub leaves: usize,
    /// Number of spine switches.
    pub spines: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Uplink oversubscription ratio (1.0 = full bisection).
    pub oversubscription: f64,
}

/// Elephant/mouse mix on an oversubscribed leaf-spine fabric: a
/// one-leaf-over permutation where even hosts send `elephant_bytes` and
/// odd hosts send `mouse_bytes`, contending for uplinks sized by the
/// fabric's oversubscription. Returns the overall stats plus the peak
/// **uplink** (leaf→spine) utilization, the contended tier.
pub fn run_ls_mix(
    fabric: LsFabric,
    protocol: &Protocol,
    elephant_bytes: u64,
    mouse_bytes: u64,
    seed: u64,
) -> (DcStats, f64, DcRun) {
    let ls = leaf_spine(
        fabric.leaves,
        fabric.spines,
        fabric.hosts_per_leaf,
        dc_link(),
        fabric.oversubscription,
    );
    let n = ls.hosts.len();
    let flows: Vec<DcFlow> = (0..n)
        .map(|src| DcFlow {
            src,
            dst: (src + fabric.hosts_per_leaf) % n,
            size_bytes: if src % 2 == 0 {
                elephant_bytes
            } else {
                mouse_bytes
            },
        })
        .collect();
    // Host edges come first; everything after is a leaf↔spine uplink.
    let first_uplink = 2 * n;
    let hosts = ls.hosts;
    let run = run_dc(ls.topo, &hosts, &flows, protocol, DC_HORIZON, seed);
    let stats = dc_stats(&run, &flows, DC_HORIZON);
    let uplink_util = run
        .links
        .iter()
        .filter(|l| l.edge.index() >= first_uplink)
        .map(|l| l.utilization)
        .fold(0.0, f64::max);
    (stats, uplink_util, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_incast_builds_queue_at_tor_downlink() {
        // 12-to-1 over a k=4 fat-tree: 12 × 256 KB bursts into one 1 Gbps
        // down-link with a 256 KB buffer. The hotspot must be the
        // receiver's down-link, not some fabric link.
        let r = run_rack_incast(4, &Protocol::Tcp("cubic"), 12, 256 * 1024, 5);
        assert!(
            r.down_link.queue.max_backlog_bytes > DC_BUFFER_BYTES / 2,
            "down-link backlog {} should approach the {} B buffer",
            r.down_link.queue.max_backlog_bytes,
            DC_BUFFER_BYTES
        );
        let other_max = r
            .run
            .links
            .iter()
            .filter(|l| l.edge != r.down_link.edge)
            .map(|l| l.queue.max_backlog_bytes)
            .max()
            .unwrap_or(0);
        assert!(
            r.down_link.queue.max_backlog_bytes >= other_max,
            "hotspot is the ToR down-link: {} vs {}",
            r.down_link.queue.max_backlog_bytes,
            other_max
        );
        assert!(r.down_link.queue.dropped() > 0, "incast overflows the port");
    }

    #[test]
    fn pcc_at_least_matches_cubic_under_rack_incast() {
        // The paper's Fig. 10 ordering, on the multi-hop fabric: PCC's
        // loss resilience keeps goodput where CUBIC's synchronized
        // window collapses cost whole RTOs.
        let pcc = run_rack_incast(4, &Protocol::named("pcc"), 12, 256 * 1024, 5);
        let cubic = run_rack_incast(4, &Protocol::Tcp("cubic"), 12, 256 * 1024, 5);
        assert_eq!(pcc.stats.completed, 12, "all PCC flows complete");
        assert!(
            pcc.stats.goodput_mbps >= cubic.stats.goodput_mbps,
            "PCC {} Mbps ≥ CUBIC {} Mbps",
            pcc.stats.goodput_mbps,
            cubic.stats.goodput_mbps
        );
    }

    #[test]
    fn permutation_crosses_the_core_and_is_deterministic() {
        let pcc = |_| Protocol::named("pcc");
        let (stats, run) = run_ft_permutation(4, &pcc, 64 * 1024, 9);
        assert_eq!(stats.total, 16);
        assert!(stats.completed > 0);
        // Cross-pod traffic must put bytes on agg↔core edges (the last
        // block of edges built by fat_tree).
        let core_bytes: u64 = run
            .links
            .iter()
            .rev()
            .take(32)
            .map(|l| l.queue.enqueued)
            .sum();
        assert!(core_bytes > 0, "permutation traffic exercises the core");
        let (stats2, run2) = run_ft_permutation(4, &pcc, 64 * 1024, 9);
        assert_eq!(run.report.events_processed, run2.report.events_processed);
        assert_eq!(stats.fct_p99_ms.to_bits(), stats2.fct_p99_ms.to_bits());
        let _ = run2;
    }

    #[test]
    fn oversubscribed_uplinks_are_the_contended_tier() {
        let (stats, uplink_util, _run) = run_ls_mix(
            LsFabric {
                leaves: 4,
                spines: 2,
                hosts_per_leaf: 4,
                oversubscription: 4.0,
            },
            &Protocol::named("pcc"),
            512 * 1024,
            32 * 1024,
            11,
        );
        assert_eq!(stats.total, 16);
        assert!(
            uplink_util > 0.0,
            "cross-leaf permutation loads the uplinks"
        );
    }
}
