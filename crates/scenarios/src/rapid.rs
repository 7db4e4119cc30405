//! Fig. 11 — rapidly changing network conditions (§4.1.7).
//!
//! Every `step` seconds the bottleneck's available bandwidth, latency, and
//! loss rate are re-drawn independently and uniformly (10–100 Mbps,
//! 10–100 ms, 0–1%). The paper tracks whether each protocol's *decided
//! sending rate* follows the optimal (available bandwidth) line.
//!
//! The generated environment is materialized as a [`LinkTrace`] — the
//! same substrate the bundled LTE/WiFi/satellite profiles use (see
//! [`crate::vary`]) — so Fig. 11 is just one member of the trace-driven
//! workload family, with a freshly synthesized trace per `env_seed`.

use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_simnet::trace::{LinkTrace, TracePoint};

use crate::protocol::Protocol;
use crate::setup::{run_dumbbell_scheduled, FlowPlan, LinkSetup, ScenarioResult};

/// One epoch of the generated environment.
#[derive(Clone, Copy, Debug)]
pub struct RapidEpoch {
    /// Epoch start.
    pub at: SimTime,
    /// Drawn bandwidth, bits/sec.
    pub rate_bps: f64,
    /// Drawn one-way forward delay.
    pub delay: SimDuration,
    /// Drawn loss rate.
    pub loss: f64,
}

/// The generated environment plus run results.
pub struct RapidResult {
    /// Scenario output (100 ms samples).
    pub inner: ScenarioResult,
    /// The environment's epochs (the "optimal" line of Fig. 11).
    pub epochs: Vec<RapidEpoch>,
    /// The same environment as a replayable trace (delays stored as the
    /// one-way forward component applied to the bottleneck).
    pub trace: LinkTrace,
}

impl RapidResult {
    /// Time-average of the optimal rate `bw·(1−loss)` in Mbit/s.
    pub fn optimal_mbps(&self, horizon: SimTime) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, e) in self.epochs.iter().enumerate() {
            let end = self
                .epochs
                .get(i + 1)
                .map(|n| n.at)
                .unwrap_or(horizon)
                .min(horizon);
            let dur = end.saturating_since(e.at).as_secs_f64();
            acc += e.rate_bps * (1.0 - e.loss) * dur;
        }
        acc / horizon.as_secs_f64() / 1e6
    }

    /// The protocol's average delivered throughput, Mbit/s.
    pub fn achieved_mbps(&self) -> f64 {
        self.inner.throughput_mbps(0)
    }
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
    let mut epochs = Vec::new();
    let mut points = Vec::new();
    let mut at = SimTime::ZERO;
    let horizon = SimTime::ZERO + duration;
    // Initial epoch uses the same distribution.
    loop {
        let rate_bps = env_rng.range_f64(10e6, 100e6);
        let delay = SimDuration::from_secs_f64(env_rng.range_f64(0.010, 0.100) / 2.0);
        let loss = env_rng.range_f64(0.0, 0.01);
        epochs.push(RapidEpoch {
            at,
            rate_bps,
            delay: delay * 2,
            loss,
        });
        points.push(TracePoint {
            at: at.saturating_since(SimTime::ZERO),
            rate_bps,
            delay: Some(delay),
            loss: Some(loss),
        });
        at += step;
        if at >= horizon {
            break;
        }
    }
    let trace = LinkTrace::from_points("fig11", points, None)
        .expect("generated points are ordered and positive");
    let first = epochs[0];
    // Base RTT shims carry half the initial delay; the scheduled bottleneck
    // delay (expanded from the trace) carries the varying forward
    // component.
    let setup = LinkSetup::new(first.rate_bps, first.delay, 375_000).with_loss(first.loss);
    let inner = run_dumbbell_scheduled(
        setup,
        vec![FlowPlan::new(protocol, first.delay)],
        horizon,
        seed,
        trace.to_schedule(horizon),
        None,
    );
    RapidResult {
        inner,
        epochs,
        trace,
    }
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
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.rate_bps.to_bits(), y.rate_bps.to_bits());
            assert_eq!(x.loss.to_bits(), y.loss.to_bits());
        }
    }

    #[test]
    fn epochs_cover_duration() {
        let r = run_rapid_change(
            Protocol::named("pcc"),
            SimDuration::from_secs(5),
            SimDuration::from_secs(30),
            11,
            1,
        );
        assert_eq!(r.epochs.len(), 6, "30 s / 5 s steps");
        let opt = r.optimal_mbps(SimTime::from_secs(30));
        assert!((10.0..100.0).contains(&opt), "optimal in range: {opt}");
    }

    #[test]
    fn trace_mirrors_epochs() {
        // Fig. 11's environment now *is* a LinkTrace: the materialized
        // trace must agree with the epoch list sample-for-sample, and
        // its deliverable-capacity average must equal the figure's
        // optimal line.
        let dur = SimDuration::from_secs(20);
        let r = run_rapid_change(Protocol::named("pcc"), SimDuration::from_secs(5), dur, 9, 1);
        assert_eq!(r.trace.points().len(), r.epochs.len());
        for (p, e) in r.trace.points().iter().zip(&r.epochs) {
            assert_eq!(p.rate_bps.to_bits(), e.rate_bps.to_bits());
            assert_eq!(p.delay, Some(e.delay / 2), "trace stores one-way");
            assert_eq!(p.loss.map(f64::to_bits), Some(e.loss.to_bits()));
        }
        let opt = r.optimal_mbps(SimTime::ZERO + dur);
        let avg = r.trace.avg_capacity_mbps(dur);
        assert!((opt - avg).abs() < 1e-9, "optimal {opt} vs trace avg {avg}");
    }

    #[test]
    fn pcc_tracks_better_than_cubic() {
        // Fig. 11 shape, scaled down: PCC's achieved fraction of optimal
        // must exceed CUBIC's.
        let step = SimDuration::from_secs(5);
        let dur = SimDuration::from_secs(60);
        let pcc = run_rapid_change(Protocol::named("pcc"), step, dur, 13, 2);
        let cubic = run_rapid_change(Protocol::Tcp("cubic"), step, dur, 13, 2);
        let opt = pcc.optimal_mbps(SimTime::ZERO + dur);
        let f_pcc = pcc.achieved_mbps() / opt;
        let f_cubic = cubic.achieved_mbps() / opt;
        assert!(
            f_pcc > 1.5 * f_cubic,
            "PCC tracks optimal: {:.2} vs CUBIC {:.2} (optimal {opt:.1} Mbps)",
            f_pcc,
            f_cubic
        );
        assert!(f_pcc > 0.5, "PCC achieves a solid fraction: {f_pcc:.2}");
    }
}
