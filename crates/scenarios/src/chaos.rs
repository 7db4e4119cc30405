//! Chaos conformance scenarios: canonical fault scripts every registered
//! algorithm must survive.
//!
//! Four scripted injuries, spanning both the dumbbell and the
//! datacenter-fabric datapaths:
//!
//! * [`ChaosScript::LinkFlap`] — the bottleneck goes down mid-flow for
//!   half a second, then comes back (queue purged, in-flight dropped).
//! * [`ChaosScript::Blackout`] — an asymmetric ACK-path blackout long
//!   enough to cover at least three backed-off RTO fires: data keeps
//!   landing, nothing is heard back.
//! * [`ChaosScript::SpineFailure`] — a core switch of a `k=4` fat-tree
//!   dies under cross-pod traffic; registered flows re-route over the
//!   surviving spine via the fault plane's ECMP re-resolution.
//! * [`ChaosScript::CorruptStorm`] — a 40% corruption storm on the
//!   bottleneck for three seconds.
//!
//! Every script is compiled through [`FaultScript::parse`] — the chaos
//! battery deliberately exercises the plain-text parser on the production
//! path, not just in parser unit tests. Flows carry a dead-time budget
//! ([`Flow::dead_time_budget`]) so a wedged flow becomes a typed `Stalled`
//! outcome instead of silently burning the horizon: the conformance
//! contract is *completes or stalls*, never hangs. Runs are
//! seed-deterministic; [`ChaosOutcome::fingerprint`] folds the run's
//! counters into one value so reruns (serial or fanned out on the parallel
//! runner) can be asserted bit-identical.

use pcc_simnet::prelude::*;
use pcc_transport::FlowSize;

use crate::dc::dc_link;
use crate::protocol::Protocol;
use crate::scenario::{Flow, Scenario};

/// Bottleneck rate of the dumbbell chaos scenarios.
pub const CHAOS_RATE_BPS: f64 = 20e6;
/// Path RTT of the dumbbell chaos scenarios.
pub const CHAOS_RTT: SimDuration = SimDuration::from_millis(30);
/// Bottleneck buffer of the dumbbell chaos scenarios.
pub const CHAOS_BUFFER_BYTES: u64 = 75_000;
/// Transfer size per flow: ~1.7 s at capacity, so every script lands
/// mid-flow.
pub const CHAOS_BYTES: u64 = 4 * 1024 * 1024;
/// Run horizon: generous enough for the slowest backed-off recovery and
/// for the dead-time budget to declare a genuine wedge.
pub const CHAOS_HORIZON: SimTime = SimTime::from_secs(30);
/// Dead-time budget handed to every chaos sender: longer than the worst
/// survivable dark gap the scripts produce (a 4 s blackout plus the
/// following backed-off RTO), shorter than the horizon.
pub const CHAOS_BUDGET: SimDuration = SimDuration::from_secs(12);

/// Per-flow transfer size of the spine-failure workload (~270 ms at the
/// fabric's 1 Gbps host rate, so the failure lands mid-flow).
pub const SPINE_BYTES: u64 = 32 * 1024 * 1024;

/// One of the canonical chaos scripts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosScript {
    /// Mid-flow bottleneck flap: down at 1 s for 0.5 s.
    LinkFlap,
    /// Asymmetric ACK-path blackout: reverse shim down at 1 s for 4 s
    /// (covers RTO fires at 0.2/0.6/1.4/3.0 s of dark time — at least
    /// three backed-off timeouts before repair).
    Blackout,
    /// Core-switch failure on a `k=4` fat-tree under cross-pod traffic:
    /// down at 0.05 s for 1 s.
    SpineFailure,
    /// 40% corruption storm on the bottleneck: 1 s to 4 s.
    CorruptStorm,
}

impl ChaosScript {
    /// All scripts, battery order.
    pub fn all() -> [ChaosScript; 4] {
        [
            ChaosScript::LinkFlap,
            ChaosScript::Blackout,
            ChaosScript::SpineFailure,
            ChaosScript::CorruptStorm,
        ]
    }

    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            ChaosScript::LinkFlap => "flap",
            ChaosScript::Blackout => "blackout",
            ChaosScript::SpineFailure => "spine",
            ChaosScript::CorruptStorm => "corrupt",
        }
    }

    /// When the injected fault is repaired (recovery time is measured
    /// from here).
    pub fn repair_at(self) -> SimTime {
        match self {
            ChaosScript::LinkFlap => SimTime::from_millis(1500),
            ChaosScript::Blackout => SimTime::from_secs(5),
            ChaosScript::SpineFailure => SimTime::from_millis(1050),
            ChaosScript::CorruptStorm => SimTime::from_secs(4),
        }
    }
}

/// Outcome of one protocol under one chaos script.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOutcome {
    /// Every flow delivered all its bytes within the horizon.
    pub completed: bool,
    /// At least one flow aborted on the dead-time budget.
    pub stalled: bool,
    /// Aggregate goodput over the busy period, Mbit/s.
    pub goodput_mbps: f64,
    /// Time from fault repair to the first post-repair sample with
    /// forward progress, ms. `None` when the workload was already done
    /// (or stalled for good) before the repair.
    pub recovery_ms: Option<f64>,
    /// Order-independent digest of the run's counters; equal
    /// fingerprints mean bit-identical runs.
    pub fingerprint: u64,
}

/// SplitMix64 finalizer-based fold step.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of both report digests.
const FINGERPRINT_SEED: u64 = 0x43_48_41_4F_53;

/// Fold a report's deterministic counters into one digest: event count,
/// then per-flow delivery/loss/lifecycle counters in flow order.
pub fn report_fingerprint(report: &SimReport) -> u64 {
    fold_flows(mix(FINGERPRINT_SEED, report.events_processed), report)
}

/// [`report_fingerprint`] without the event count: the per-flow
/// delivery/loss/lifecycle counters alone, in flow order.
pub fn flows_fingerprint(report: &SimReport) -> u64 {
    fold_flows(FINGERPRINT_SEED, report)
}

fn fold_flows(mut h: u64, report: &SimReport) -> u64 {
    for f in &report.flows {
        h = mix(h, f.delivered_bytes);
        h = mix(h, f.sent_packets);
        h = mix(h, f.delivered_packets);
        h = mix(h, f.detected_losses);
        h = mix(h, f.completed_at.map(|t| t.as_nanos()).unwrap_or(u64::MAX));
        match f.stalled {
            Some(s) => {
                h = mix(h, s.at.as_nanos());
                h = mix(h, s.dark.as_nanos());
                h = mix(h, s.timeouts);
            }
            None => h = mix(h, 0),
        }
    }
    h
}

/// Sampling interval of every chaos run (drives recovery-time
/// granularity).
const SAMPLE: SimDuration = SimDuration::from_millis(100);

/// First post-repair forward-progress instant across `flows`, as
/// milliseconds after `repair`. Skipped entirely when every flow was
/// finished (completed or stalled) before the repair.
fn recovery_ms(report: &SimReport, flows: &[FlowId], repair: SimTime) -> Option<f64> {
    let live_past_repair = flows.iter().any(|&id| {
        let f = &report.flows[id.index()];
        let done_at = f.completed_at.or(f.stalled.map(|s| s.at));
        done_at.is_none_or(|t| t > repair)
    });
    if !live_past_repair {
        return None;
    }
    let start = (repair.as_nanos() / SAMPLE.as_nanos()) as usize;
    let mut first: Option<usize> = None;
    for &id in flows {
        let series = &report.flows[id.index()].series.goodput_mbps;
        if let Some(i) = (start..series.len()).find(|&i| series[i] > 0.0) {
            first = Some(first.map_or(i, |f| f.min(i)));
        }
    }
    first.map(|i| {
        let sample_end = SAMPLE.as_millis_f64() * (i + 1) as f64;
        (sample_end - repair.as_secs_f64() * 1e3).max(0.0)
    })
}

fn outcome(
    report: &SimReport,
    flows: &[FlowId],
    total_bytes: u64,
    repair: SimTime,
) -> ChaosOutcome {
    let completed = flows
        .iter()
        .all(|&id| report.flows[id.index()].completed_at.is_some());
    let stalled = flows
        .iter()
        .any(|&id| report.flows[id.index()].stalled.is_some());
    let end = flows
        .iter()
        .filter_map(|&id| {
            let f = &report.flows[id.index()];
            f.completed_at.or(f.stalled.map(|s| s.at))
        })
        .max()
        .filter(|_| completed || stalled)
        .unwrap_or(report.ended_at);
    let delivered: u64 = flows
        .iter()
        .map(|&id| report.flows[id.index()].delivered_bytes.min(total_bytes))
        .sum();
    ChaosOutcome {
        completed,
        stalled,
        goodput_mbps: delivered as f64 * 8.0 / end.as_secs_f64().max(f64::MIN_POSITIVE) / 1e6,
        recovery_ms: recovery_ms(report, flows, repair),
        fingerprint: report_fingerprint(report),
    }
}

/// Run one flow of `protocol` through a dumbbell chaos script. The
/// dumbbell is the historical three-link layout (bottleneck `0`, forward
/// shim `1`, reverse shim `2`), which is what the script link indices
/// address.
fn run_dumbbell_chaos(
    protocol: &Protocol,
    text: &str,
    repair: SimTime,
    seed: u64,
) -> (ChaosOutcome, SimReport) {
    let mut db = Dumbbell::graph(LinkConfig::bottleneck(
        CHAOS_RATE_BPS,
        SimDuration::ZERO,
        CHAOS_BUFFER_BYTES,
    ));
    let flow = chaos_flow(
        db.source(),
        db.add_receiver(CHAOS_RTT, 0.0),
        protocol,
        CHAOS_BYTES,
    );
    let run = chaos_scenario(db.into_topology(), vec![flow], text, seed).run(CHAOS_HORIZON);
    let outcome = outcome(&run.report, &run.flows, CHAOS_BYTES, repair);
    (outcome, run.report)
}

/// Run four cross-pod flows of `protocol` on a `k=4` fat-tree and kill
/// one core switch mid-transfer. The builder registers every flow with the
/// fault plane, so survivors of the dead spine re-route via ECMP
/// re-resolution over the surviving graph.
fn run_spine_failure(protocol: &Protocol, seed: u64) -> (ChaosOutcome, SimReport) {
    let ft = fat_tree(4, dc_link(), dc_link());
    let text = format!("0.05 node_down {} 1", ft.cores[0].index());
    let n = ft.hosts.len();
    let flows: Vec<Flow> = (0..4)
        .map(|i| {
            chaos_flow(
                ft.hosts[i],
                ft.hosts[(i + n / 2) % n],
                protocol,
                SPINE_BYTES,
            )
        })
        .collect();
    let run = chaos_scenario(ft.topo, flows, &text, seed).run(CHAOS_HORIZON);
    let outcome = outcome(
        &run.report,
        &run.flows,
        SPINE_BYTES * run.flows.len() as u64,
        ChaosScript::SpineFailure.repair_at(),
    );
    (outcome, run.report)
}

/// A finite chaos flow: `bytes` under the battery's dead-time budget.
fn chaos_flow(src: NodeId, dst: NodeId, protocol: &Protocol, bytes: u64) -> Flow {
    Flow {
        size: FlowSize::Bytes(bytes),
        dead_time_budget: Some(CHAOS_BUDGET),
        ..Flow::new(src, dst, protocol.clone())
    }
}

/// `flows` on `topology` under the fault script `text`, sampled at the
/// battery's recovery-time granularity.
fn chaos_scenario(topology: Topology, flows: Vec<Flow>, text: &str, seed: u64) -> Scenario {
    Scenario {
        flows,
        faults: Some(FaultScript::parse(text).expect("chaos scripts are well-formed")),
        sample_interval: SAMPLE,
        ..Scenario::new(topology, seed)
    }
}

/// Run `protocol` through `script` with all randomness derived from
/// `seed`. Bit-deterministic: same inputs, same [`ChaosOutcome`] (and
/// fingerprint), at any runner parallelism.
pub fn run_chaos(protocol: &Protocol, script: ChaosScript, seed: u64) -> ChaosOutcome {
    run_chaos_report(protocol, script, seed).0
}

/// [`run_chaos`] with the run's whole report next to its outcome.
pub(crate) fn run_chaos_report(
    protocol: &Protocol,
    script: ChaosScript,
    seed: u64,
) -> (ChaosOutcome, SimReport) {
    let repair = script.repair_at();
    match script {
        ChaosScript::LinkFlap => run_dumbbell_chaos(protocol, "1 down 0 0.5", repair, seed),
        ChaosScript::Blackout => run_dumbbell_chaos(protocol, "1 down 2 4", repair, seed),
        ChaosScript::CorruptStorm => {
            run_dumbbell_chaos(protocol, "1 corrupt 0 3 0.4", repair, seed)
        }
        ChaosScript::SpineFailure => run_spine_failure(protocol, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_flap_delays_but_does_not_kill_cubic() {
        let o = run_chaos(&Protocol::Tcp("cubic"), ChaosScript::LinkFlap, 3);
        assert!(o.completed, "a half-second flap is survivable");
        assert!(!o.stalled);
        assert!(o.goodput_mbps > 1.0, "goodput sane: {}", o.goodput_mbps);
        let r = o.recovery_ms.expect("flow was mid-transfer at repair");
        assert!(r < 5_000.0, "recovery prompt: {r} ms");
    }

    #[test]
    fn ack_blackout_recovers_for_pcc() {
        let o = run_chaos(&Protocol::named("pcc"), ChaosScript::Blackout, 3);
        assert!(o.completed, "the flow resumes after the ACK path heals");
        assert!(!o.stalled);
    }

    #[test]
    fn spine_failure_reroutes_and_completes() {
        let o = run_chaos(&Protocol::Tcp("cubic"), ChaosScript::SpineFailure, 3);
        assert!(o.completed, "cross-pod flows survive a dead core");
        assert!(!o.stalled);
    }

    #[test]
    fn chaos_runs_are_bit_identical() {
        for script in ChaosScript::all() {
            let a = run_chaos(&Protocol::Tcp("cubic"), script, 9);
            let b = run_chaos(&Protocol::Tcp("cubic"), script, 9);
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{} rerun identical",
                script.label()
            );
        }
    }

    #[test]
    fn permanent_blackout_is_a_typed_stall_not_a_wedge() {
        // A repair-less variant of the ACK blackout: the budget must turn
        // the wedge into a recorded stall with partial progress.
        let (o, _) = run_dumbbell_chaos(
            &Protocol::Tcp("cubic"),
            "1 down 2",
            SimTime::from_secs(1),
            5,
        );
        assert!(!o.completed);
        assert!(o.stalled, "the dead-time budget fired");
        assert!(o.goodput_mbps > 0.0, "partial progress is reported");
    }
}
