//! Fig. 15 — flow completion time for short flows (§4.3.2).
//!
//! 100 KB flows arrive as a Poisson process on a 15 Mbps / 60 ms path; the
//! arrival rate sets the offered load. The question is whether PCC's
//! learning startup hurts short transfers relative to TCP's slow start.

use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::FlowSize;

use crate::protocol::Protocol;
use crate::setup::{run_dumbbell, FlowPlan, LinkSetup};
use crate::workload::FctSummary;

/// Fig. 15 path: 15 Mbps, 60 ms RTT.
pub const FCT_RATE_BPS: f64 = 15e6;
/// Path RTT.
pub const FCT_RTT: SimDuration = SimDuration::from_millis(60);
/// Short-flow size (100 KB).
pub const FCT_FLOW_BYTES: u64 = 100 * 1024;

/// Run the short-flow workload at `load` (fraction of link capacity) for
/// `duration`, every flow driven by `protocol`.
pub fn run_fct(protocol: Protocol, load: f64, duration: SimDuration, seed: u64) -> FctSummary {
    assert!((0.0..1.0).contains(&load), "load must be in (0,1)");
    // Poisson arrivals: λ = load·C / flow size.
    let lambda = load * FCT_RATE_BPS / (FCT_FLOW_BYTES as f64 * 8.0);
    let mut arr_rng = SimRng::new(seed ^ 0x00A1_1CE5);
    let mut plans = Vec::new();
    let mut t = 0.0;
    let horizon_secs = duration.as_secs_f64();
    while t < horizon_secs {
        t += arr_rng.exponential(1.0 / lambda);
        if t >= horizon_secs {
            break;
        }
        plans.push(
            FlowPlan::new(protocol.clone(), FCT_RTT)
                .starting_at(SimTime::from_secs_f64(t))
                .sized(FlowSize::Bytes(FCT_FLOW_BYTES)),
        );
    }
    let n = plans.len();
    // Let the tail drain: generous extra time after the last arrival.
    let horizon = SimTime::ZERO + duration + SimDuration::from_secs(30);
    let setup = LinkSetup::new(FCT_RATE_BPS, FCT_RTT, 112_500);
    let r = run_dumbbell(setup, plans, horizon, seed);
    let mut fcts = Vec::with_capacity(n);
    let mut incomplete = 0;
    for i in 0..n {
        match r.fct(i) {
            Some(d) => fcts.push(d.as_secs_f64()),
            None => incomplete += 1,
        }
    }
    FctSummary { fcts, incomplete }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_fct_near_ideal() {
        // At 10% load a 100 KB flow on 15 Mbps takes ≥ 100KB·8/15e6 ≈ 55 ms
        // of serialization plus a few RTTs of startup.
        let r = run_fct(Protocol::Tcp("cubic"), 0.10, SimDuration::from_secs(30), 1);
        assert!(r.fcts.len() > 3, "some flows arrived: {}", r.fcts.len());
        assert_eq!(r.incomplete, 0);
        let med = r.p50_ms();
        assert!(
            (150.0..1500.0).contains(&med),
            "light-load FCT plausible: {med} ms"
        );
    }

    #[test]
    fn pcc_fct_comparable_to_tcp() {
        // Fig. 15's claim: similar FCT at moderate load (within ~2×).
        let dur = SimDuration::from_secs(40);
        let tcp = run_fct(Protocol::Tcp("cubic"), 0.3, dur, 2);
        let pcc = run_fct(Protocol::named("pcc"), 0.3, dur, 2);
        assert_eq!(pcc.incomplete, 0, "all PCC short flows complete");
        // PCC's starting phase doubles once per MI (~2 RTTs) vs TCP's
        // once per RTT, so short-flow FCT runs ~2-4x TCP at light load
        // (the gap closes at high load, where queueing dominates — see
        // the fig15 experiment). The paper's point is that PCC does not
        // *fundamentally* harm short flows: same order of magnitude.
        let ratio = pcc.p50_ms() / tcp.p50_ms();
        assert!(
            ratio < 4.5,
            "PCC median {} ms vs TCP {} ms",
            pcc.p50_ms(),
            tcp.p50_ms()
        );
    }

    #[test]
    fn golden_fct_output_survives_summary_rebase() {
        // Exact values captured on this module's pre-rebase bespoke summary
        // (arrival RNG, plan construction, and percentile math must all
        // come out identical through the shared `FctSummary`).
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        let r = run_fct(Protocol::Tcp("cubic"), 0.2, SimDuration::from_secs(20), 7);
        assert_eq!(r.fcts.len(), 76);
        assert_eq!(r.incomplete, 0);
        assert!(close(r.mean_ms(), 225.333621434), "{}", r.mean_ms());
        assert!(close(r.p50_ms(), 215.800000000), "{}", r.p50_ms());
        assert!(close(r.p95_ms(), 251.497116000), "{}", r.p95_ms());

        let r = run_fct(Protocol::Tcp("cubic"), 0.5, SimDuration::from_secs(20), 11);
        assert_eq!(r.fcts.len(), 194);
        assert_eq!(r.incomplete, 0);
        assert!(close(r.mean_ms(), 275.702913258), "{}", r.mean_ms());
        assert!(close(r.p50_ms(), 236.786557000), "{}", r.p50_ms());
        assert!(close(r.p95_ms(), 487.669031000), "{}", r.p95_ms());
    }

    #[test]
    fn heavier_load_increases_fct() {
        let dur = SimDuration::from_secs(40);
        let light = run_fct(Protocol::Tcp("cubic"), 0.1, dur, 3);
        let heavy = run_fct(Protocol::Tcp("cubic"), 0.6, dur, 3);
        assert!(
            heavy.p95_ms() > light.p95_ms(),
            "queueing at load: {} vs {}",
            heavy.p95_ms(),
            light.p95_ms()
        );
    }
}
