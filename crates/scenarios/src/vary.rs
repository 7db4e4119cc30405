//! Trace-driven time-varying link workloads — the "consistency" workload
//! family.
//!
//! The paper's §4.3 argues PCC's edge is *consistent* performance when
//! conditions change faster than a hardwired TCP mapping can track. Fig.
//! 11 probes that with one synthetic step-function environment; this
//! module generalizes it to replayable [`LinkTrace`]s (bundled LTE-like,
//! WiFi-like and satellite-handoff profiles, or any trace file), with
//! optional jitter/reordering from the [`ShaperConfig`] stage.
//!
//! [`run_trace`] plays one protocol over one trace and returns the
//! [`ScenarioRun`]: the protocol's throughput is `throughput_mbps(0)`, and
//! the optimal line it is measured against is the trace's own
//! [`LinkTrace::avg_capacity_mbps`]. The `pcc-experiments vary` command
//! sweeps every registered algorithm spec over every bundled trace through
//! this entry point.

use pcc_simnet::prelude::*;
use pcc_simnet::trace::LinkTrace;

use crate::protocol::Protocol;
use crate::scenario::{Flow, Scenario, ScenarioRun};

/// The buffer the traced bottleneck gets: 1.5× the bandwidth-delay
/// product of the trace's *average* capacity at the trace's initial RTT,
/// floored at 64 KB. Sizing from the average (not the peak) keeps deep
/// fades from hiding behind an over-provisioned queue.
pub fn trace_buffer_bytes(trace: &LinkTrace, duration: SimDuration) -> u64 {
    let avg_bps = trace.avg_capacity_mbps(duration) * 1e6;
    let rtt = trace_rtt(trace);
    ((avg_bps * rtt.as_secs_f64() / 8.0 * 1.5) as u64).max(64_000)
}

/// The base round-trip realized for flows over `trace`: twice the
/// trace's initial one-way delay (clamped to at least 2 ms), before any
/// scheduled delay changes move it.
pub fn trace_rtt(trace: &LinkTrace) -> SimDuration {
    let one_way = trace
        .initial()
        .delay
        .unwrap_or(SimDuration::from_millis(20));
    (one_way + one_way).max(SimDuration::from_millis(2))
}

/// Play `protocol` alone over `trace` for `duration`.
///
/// Topology: one traced bottleneck (edge 0; initial rate/delay/loss from
/// the trace's first sample; the expanded [`LinkTrace::to_schedule`]
/// varies them), a pure-delay reverse shim at the initial one-way delay,
/// and an optional impairment stage (`shaper`) on the bottleneck. The
/// trace drives the *environment* deterministically; `seed` drives the
/// protocol's own randomness, so every protocol faces the identical
/// network.
pub fn run_trace(
    protocol: Protocol,
    trace: &LinkTrace,
    duration: SimDuration,
    seed: u64,
    shaper: ShaperConfig,
) -> ScenarioRun {
    let horizon = SimTime::ZERO + duration;
    let first = trace.initial();
    let rtt = trace_rtt(trace);
    let one_way = rtt / 2;
    let mut topo = Topology::new();
    let (src, dst) = (topo.add_host(), topo.add_host());
    topo.add_link(
        src,
        dst,
        LinkConfig {
            rate_bps: Some(first.rate_bps),
            delay: one_way,
            loss: first.loss.unwrap_or(0.0),
            queue: Box::new(DropTail::bytes(trace_buffer_bytes(trace, duration))),
            schedule: trace.to_schedule(horizon),
            shaper,
        },
    );
    topo.add_link(dst, src, LinkConfig::delay_only(rtt - one_way));
    Scenario {
        flows: vec![Flow::new(src, dst, protocol)],
        ..Scenario::new(topo, seed)
    }
    .run(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lte() -> LinkTrace {
        LinkTrace::builtin("lte").expect("bundled")
    }

    #[test]
    fn trace_run_is_deterministic_per_seed() {
        let run = |seed| {
            let r = run_trace(
                Protocol::Tcp("cubic"),
                &lte(),
                SimDuration::from_secs(10),
                seed,
                ShaperConfig::default(),
            );
            (r.report.flows[0].delivered_bytes, r.report.events_processed)
        };
        assert_eq!(run(3), run(3), "same seed, identical run");
        assert_ne!(run(3), run(4), "loss draws differ across seeds");
    }

    #[test]
    fn pcc_doubles_cubic_utilization_on_the_lte_trace() {
        // The repo's headline consistency claim: on the LTE-like trace —
        // capacity fades, delay wander, and a non-congestive loss floor —
        // PCC sustains at least twice CUBIC's utilization, the paper's
        // §4.3 story on a replayable workload. `pcc-experiments vary`
        // measures the same pair at larger scale.
        let dur = SimDuration::from_secs(40);
        let cap = lte().avg_capacity_mbps(dur);
        let utilization = |protocol| {
            let r = run_trace(protocol, &lte(), dur, 11, ShaperConfig::default());
            r.throughput_mbps(0) / cap
        };
        let pcc = utilization(Protocol::named("pcc"));
        let cubic = utilization(Protocol::Tcp("cubic"));
        assert!(
            pcc >= 2.0 * cubic,
            "PCC {pcc:.2} vs CUBIC {cubic:.2} of {cap:.1} Mbps deliverable"
        );
        assert!(pcc > 0.4, "PCC achieves a solid fraction: {pcc:.2}");
    }

    #[test]
    fn impairments_compose_onto_a_trace() {
        // Jitter + bounded reordering on the traced bottleneck: the run
        // completes, moves data, and reordering is observed.
        let shaper = ShaperConfig::default().with_jitter(
            JitterConfig::uniform(SimDuration::from_millis(3)).with_reordering(0.05, 3),
        );
        let r = run_trace(
            Protocol::named("pcc"),
            &lte(),
            SimDuration::from_secs(15),
            2,
            shaper,
        );
        // The traced bottleneck is edge 0, so link 0.
        let stats = r.report.links[0].stats;
        assert!(stats.reordered > 0, "reordering engaged");
        let tput = r.throughput_mbps(0);
        assert!(tput > 1.0, "still moves data: {tput} Mbps");
    }

    #[test]
    fn every_bundled_trace_carries_a_flow() {
        for name in pcc_simnet::trace::builtin_names() {
            let trace = LinkTrace::builtin(name).unwrap();
            let dur = SimDuration::from_secs(8);
            let r = run_trace(
                Protocol::named("pcc"),
                &trace,
                dur,
                5,
                ShaperConfig::default(),
            );
            let tput = r.throughput_mbps(0);
            assert!(tput > 0.5, "{name}: data moves ({tput} Mbps)");
            let cap = trace.avg_capacity_mbps(dur);
            assert!(cap > 1.0, "{name} capacity sane");
        }
    }
}
