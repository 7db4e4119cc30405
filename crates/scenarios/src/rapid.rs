//! Fig. 11 — rapidly changing network conditions (§4.1.7).
//!
//! Every `step` seconds the bottleneck's available bandwidth, latency, and
//! loss rate are re-drawn independently and uniformly (10–100 Mbps,
//! 10–100 ms, 0–1%). The paper tracks whether each protocol's *decided
//! sending rate* follows the optimal (available bandwidth) line.
//!
//! The generated environment is a [`LinkTrace`] — the same substrate the
//! bundled LTE/WiFi/satellite profiles use — and the run is
//! [`vary::run_trace`] over it, so Fig. 11 is one member of the
//! trace-driven workload family with a freshly synthesized trace per
//! `env_seed`: the traced bottleneck carries each epoch's one-way delay
//! (the reverse path keeps the initial one), so epoch k runs at an RTT of
//! d₀ + d_k, and [`vary::trace_buffer_bytes`] sizes its buffer. The trace
//! is also the optimal line: [`LinkTrace::at`] per second,
//! [`LinkTrace::avg_capacity_mbps`] on average.

use pcc_simnet::prelude::*;
use pcc_simnet::rng::SimRng;
use pcc_simnet::trace::{LinkTrace, TracePoint};

use crate::protocol::Protocol;
use crate::scenario::ScenarioRun;
use crate::vary;

/// The generated environment plus the run over it.
pub struct RapidResult {
    /// The [`vary::run_trace`] run (100 ms samples); flow 0 is the
    /// protocol under test.
    pub inner: ScenarioRun,
    /// The environment (each delay is the one-way forward delay of the
    /// traced bottleneck).
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
    let inner = vary::run_trace(protocol, &trace, duration, seed, ShaperConfig::default());
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
    fn every_epoch_runs_at_the_initial_reverse_delay_plus_its_own() {
        // The traced bottleneck carries d₀ forward from time zero, so the
        // base RTT is 2·d₀ and epoch k's is d₀ + d_k: the lowest 100 ms mean
        // RTT of each epoch (its first sample straddles the step) sits at
        // most d₀/2 of queueing above it, so a second d₀ in any later
        // epoch (shims carrying the initial round trip beside a bottleneck
        // with no delay of its own) fails.
        let step = SimDuration::from_secs(5);
        let mut r = run_rapid_change(
            Protocol::named("pcc"),
            step,
            SimDuration::from_secs(60),
            13,
            2,
        );
        let d0 = r.trace.initial().delay.expect("every epoch draws a delay");
        let (src, dst) = (NodeId(0), NodeId(1));
        assert_eq!(
            r.inner.topology.num_edges(),
            2,
            "one traced link and its reverse"
        );
        assert_eq!(r.inner.topology.flow_path(src, dst, 0).base_rtt, d0 * 2);
        let rtt_ms = &r.inner.report.flows[0].series.rtt_ms;
        let per_epoch = (step.as_nanos() / r.inner.report.sample_interval.as_nanos()) as usize;
        for (k, p) in r.trace.points().iter().enumerate() {
            let base = (d0 + p.delay.expect("drawn")).as_millis_f64();
            let lowest = rtt_ms[k * per_epoch + 1..(k + 1) * per_epoch]
                .iter()
                .copied()
                .filter(|ms| !ms.is_nan())
                .fold(f64::INFINITY, f64::min);
            assert!(
                (base..base + d0.as_millis_f64() / 2.0).contains(&lowest),
                "epoch {k}: lowest RTT {lowest:.2} ms, d0 + dk = {base:.2} ms"
            );
        }
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
