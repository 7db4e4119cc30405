//! Fig. 11 — rapidly changing network conditions (§4.1.7).
//!
//! Every `step` seconds the bottleneck's available bandwidth, latency, and
//! loss rate are re-drawn independently and uniformly (10–100 Mbps,
//! 10–100 ms, 0–1%). The paper tracks whether each protocol's *decided
//! sending rate* follows the optimal (available bandwidth) line.
//!
//! The generated environment is a [`LinkTrace`] — the same substrate the
//! bundled LTE/WiFi/satellite profiles use (see [`crate::vary`]) — so Fig.
//! 11 is just one member of the trace-driven workload family, with a
//! freshly synthesized trace per `env_seed`. The trace is also the optimal
//! line: [`LinkTrace::at`] per second, [`LinkTrace::avg_capacity_mbps`] on
//! average.

use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_simnet::trace::{LinkTrace, TracePoint};

use crate::protocol::Protocol;
use crate::scenario::ScenarioRun;
use crate::setup::{dumbbell, FlowPlan, LinkSetup};

/// The generated environment plus the run over it.
pub struct RapidResult {
    /// The run (100 ms samples); flow 0 is the protocol under test.
    pub inner: ScenarioRun,
    /// The environment (delays stored as the one-way forward component
    /// applied to the bottleneck).
    pub trace: LinkTrace,
}

/// Generate the Fig. 11 environment and run one protocol over it.
///
/// Parameters are re-drawn every `step` (paper: 5 s) for `duration`
/// (paper: 500 s). `env_seed` fixes the environment independently of the
/// protocol's own randomness so every protocol faces the same network.
pub fn run_rapid_change(
    protocol: Protocol,
    step: SimDuration,
    duration: SimDuration,
    env_seed: u64,
    seed: u64,
) -> RapidResult {
    let mut env_rng = SimRng::new(env_seed);
    let mut points = Vec::new();
    let mut at = SimDuration::ZERO;
    // Initial epoch uses the same distribution.
    loop {
        let rate_bps = env_rng.range_f64(10e6, 100e6);
        let delay = SimDuration::from_secs_f64(env_rng.range_f64(0.010, 0.100) / 2.0);
        let loss = env_rng.range_f64(0.0, 0.01);
        points.push(TracePoint {
            at,
            rate_bps,
            delay: Some(delay),
            loss: Some(loss),
        });
        at += step;
        if at >= duration {
            break;
        }
    }
    let trace = LinkTrace::from_points("fig11", points, None)
        .expect("generated points are ordered and positive");
    let first = trace.initial();
    let rtt = first.delay.expect("every epoch draws a delay") * 2;
    // The RTT shims realize the initial round trip; the scheduled
    // bottleneck delay (expanded from the trace) carries the varying
    // forward component.
    let setup = LinkSetup::new(first.rate_bps, rtt, 375_000).with_loss(first.loss.unwrap_or(0.0));
    let horizon = SimTime::ZERO + duration;
    let plans = vec![FlowPlan::new(protocol, rtt)];
    let inner = dumbbell(setup, trace.to_schedule(horizon), plans, seed).run(horizon);
    RapidResult { inner, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_is_deterministic_per_seed() {
        let a = run_rapid_change(
            Protocol::named("pcc"),
            SimDuration::from_secs(5),
            SimDuration::from_secs(20),
            9,
            1,
        );
        let b = run_rapid_change(
            Protocol::Tcp("cubic"),
            SimDuration::from_secs(5),
            SimDuration::from_secs(20),
            9,
            1,
        );
        assert_eq!(a.trace.points(), b.trace.points());
    }

    #[test]
    fn epochs_cover_duration() {
        let dur = SimDuration::from_secs(30);
        let r = run_rapid_change(
            Protocol::named("pcc"),
            SimDuration::from_secs(5),
            dur,
            11,
            1,
        );
        assert_eq!(r.trace.points().len(), 6, "30 s / 5 s steps");
        let opt = r.trace.avg_capacity_mbps(dur);
        assert!((10.0..100.0).contains(&opt), "optimal in range: {opt}");
    }

    #[test]
    fn pcc_tracks_better_than_cubic() {
        // Fig. 11 shape, scaled down: PCC's achieved fraction of optimal
        // must exceed CUBIC's.
        let step = SimDuration::from_secs(5);
        let dur = SimDuration::from_secs(60);
        let pcc = run_rapid_change(Protocol::named("pcc"), step, dur, 13, 2);
        let cubic = run_rapid_change(Protocol::Tcp("cubic"), step, dur, 13, 2);
        let opt = pcc.trace.avg_capacity_mbps(dur);
        let f_pcc = pcc.inner.throughput_mbps(0) / opt;
        let f_cubic = cubic.inner.throughput_mbps(0) / opt;
        assert!(
            f_pcc > 1.5 * f_cubic,
            "PCC tracks optimal: {:.2} vs CUBIC {:.2} (optimal {opt:.1} Mbps)",
            f_pcc,
            f_cubic
        );
        assert!(f_pcc > 0.5, "PCC achieves a solid fraction: {f_pcc:.2}");
    }
}
