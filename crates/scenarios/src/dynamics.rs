//! Multi-flow dynamics scenarios: RTT fairness (Fig. 8), convergence
//! (Figs. 12–13), TCP friendliness (Fig. 14), and the
//! stability/reactiveness trade-off (Fig. 16).

use pcc_simnet::prelude::*;
use pcc_simnet::stats::{convergence_time, jain_index_at_scale, std_dev};

use crate::protocol::Protocol;
use crate::scenario::{Scenario, ScenarioRun};
use crate::setup::{dumbbell, run_dumbbell, FlowPlan, LinkSetup};

// ---------------------------------------------------------------------------
// Fig. 8 — RTT fairness
// ---------------------------------------------------------------------------

/// Fig. 8: a 10 ms flow and a long-RTT flow share a 100 Mbps bottleneck
/// whose buffer equals the short flow's BDP; the long flow starts first,
/// the short one joins 5 s later. Returns the ratio of the long-RTT flow's
/// throughput to the short-RTT flow's over the contention window.
pub fn rtt_fairness_ratio(
    protocol: Protocol,
    long_rtt: SimDuration,
    contention: SimDuration,
    seed: u64,
) -> f64 {
    let short_rtt = SimDuration::from_millis(10);
    // Buffer = BDP of the short-RTT flow (125 KB at 100 Mbps × 10 ms).
    let setup = LinkSetup::new(100e6, short_rtt, 125_000);
    let t_join = SimTime::from_secs(5);
    let horizon = t_join + contention;
    let r = run_dumbbell(
        setup,
        vec![
            FlowPlan::new(protocol.clone(), long_rtt),
            FlowPlan::new(protocol, short_rtt).starting_at(t_join),
        ],
        horizon,
        seed,
    );
    // Measure over the second half of the contention period.
    let from = t_join + contention.mul_f64(0.5);
    let long = r.throughput_in(0, from, horizon);
    let short = r.throughput_in(1, from, horizon);
    if short <= 0.0 {
        return f64::INFINITY;
    }
    long / short
}

// ---------------------------------------------------------------------------
// Figs. 12 & 13 — convergence and fairness of staggered flows
// ---------------------------------------------------------------------------

/// Result of the staggered-convergence scenario.
pub struct ConvergenceResult {
    /// The run (1 s samples).
    pub inner: ScenarioRun,
    /// Stagger between consecutive flow starts.
    pub stagger: SimDuration,
    /// Per-flow lifetime.
    pub lifetime: SimDuration,
}

/// Figs. 12–13 topology: `n` flows over a 100 Mbps / 30 ms bottleneck with
/// a BDP buffer; flow `i` starts at `i·stagger` and stops implicitly at the
/// horizon (the paper runs each for 2000 s with 500 s staggering; callers
/// scale).
pub fn run_convergence(
    protocol: Protocol,
    n: usize,
    stagger: SimDuration,
    lifetime: SimDuration,
    seed: u64,
) -> ConvergenceResult {
    let rtt = SimDuration::from_millis(30);
    let setup = LinkSetup::new(100e6, rtt, 375_000);
    let plans = (0..n)
        .map(|i| {
            FlowPlan::new(protocol.clone(), rtt).starting_at(SimTime::ZERO + stagger * i as u64)
        })
        .collect();
    let inner = Scenario {
        sample_interval: SimDuration::from_secs(1),
        ..dumbbell(setup, plans, seed)
    }
    .run(SimTime::ZERO + lifetime);
    ConvergenceResult {
        inner,
        stagger,
        lifetime,
    }
}

impl ConvergenceResult {
    /// Jain's index at a given time-scale (in samples = seconds), computed
    /// over the window where all flows are active (Fig. 13).
    pub fn jain_at_scale(&self, scale: usize) -> f64 {
        let n = self.inner.flows.len();
        let all_active_from = (self.stagger * (n as u64 - 1)).as_secs_f64() as usize + 2;
        let series: Vec<&[f64]> = self
            .inner
            .flows
            .iter()
            .map(|f| {
                let s = &self.inner.report.flows[f.index()].series.throughput_mbps;
                let lo = all_active_from.min(s.len());
                &s[lo..]
            })
            .collect();
        jain_index_at_scale(&series, scale)
    }

    /// Mean per-flow throughput stddev over the all-active window — the
    /// "rate variance" the paper contrasts in Fig. 12.
    pub fn mean_stddev(&self) -> f64 {
        let n = self.inner.flows.len();
        let from = (self.stagger * (n as u64 - 1)).as_secs_f64() as usize + 2;
        let devs: Vec<f64> = self
            .inner
            .flows
            .iter()
            .map(|f| {
                let s = &self.inner.report.flows[f.index()].series.throughput_mbps;
                std_dev(&s[from.min(s.len())..])
            })
            .collect();
        devs.iter().sum::<f64>() / devs.len().max(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Fig. 14 — TCP friendliness
// ---------------------------------------------------------------------------

/// What a "selfish" entity is in Fig. 14.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selfish {
    /// A bundle of 10 parallel New Reno flows ("TCP-Selfish", the common
    /// download-accelerator practice).
    TcpBundle,
    /// A single PCC flow.
    Pcc,
}

/// Average throughput of one normal TCP flow competing with `k` selfish
/// entities on `rate_bps`/`rtt` (Fig. 14 measures the ratio between the
/// [`Selfish::Pcc`] and [`Selfish::TcpBundle`] values of this). Only the
/// normal flow is sampled.
pub fn normal_tcp_throughput(
    selfish: Selfish,
    k: usize,
    rate_bps: f64,
    rtt: SimDuration,
    duration: SimDuration,
    seed: u64,
) -> f64 {
    let bdp = (rate_bps * rtt.as_secs_f64() / 8.0) as u64;
    let setup = LinkSetup::new(rate_bps, rtt, bdp.max(30_000));
    let mut plans = vec![FlowPlan::new(Protocol::Tcp("newreno"), rtt)];
    for _ in 0..k {
        match selfish {
            Selfish::TcpBundle => {
                for _ in 0..10 {
                    plans.push(FlowPlan::new(Protocol::Tcp("newreno"), rtt).unsampled());
                }
            }
            Selfish::Pcc => plans.push(FlowPlan::new(Protocol::named("pcc"), rtt).unsampled()),
        }
    }
    let horizon = SimTime::ZERO + duration;
    let r = run_dumbbell(setup, plans, horizon, seed);
    r.throughput_in(0, SimTime::ZERO + duration.mul_f64(0.2), horizon)
}

// ---------------------------------------------------------------------------
// Fig. 16 — stability/reactiveness trade-off
// ---------------------------------------------------------------------------

/// One point in the Fig. 16 trade-off space.
#[derive(Clone, Copy, Debug)]
pub struct TradeoffPoint {
    /// Forward-looking convergence time of the joining flow, seconds.
    pub convergence_secs: f64,
    /// Stddev of its throughput over the 60 s after convergence, Mbit/s.
    pub stddev_mbps: f64,
    /// Whether the flow converged at all within the horizon.
    pub converged: bool,
}

/// Fig. 16 setup: flow A starts at 0 on a 100 Mbps / 30 ms link; flow B
/// joins at 20 s. Convergence time is the paper's forward-looking
/// definition: the earliest `t` where every 1 s sample in `[t, t+5)` is
/// within ±25% of the 50 Mbps fair share; stability is B's throughput
/// stddev over the `stability_window` seconds after convergence.
pub fn run_tradeoff(protocol: Protocol, stability_window: u64, seed: u64) -> TradeoffPoint {
    let rtt = SimDuration::from_millis(30);
    let setup = LinkSetup::new(100e6, rtt, 375_000);
    let join = 20u64;
    let horizon_secs = join + 120 + stability_window;
    let plans = vec![
        FlowPlan::new(protocol.clone(), rtt),
        FlowPlan::new(protocol, rtt).starting_at(SimTime::from_secs(join)),
    ];
    let r = Scenario {
        sample_interval: SimDuration::from_secs(1),
        ..dumbbell(setup, plans, seed)
    }
    .run(SimTime::from_secs(horizon_secs));
    let series = &r.report.flows[r.flows[1].index()].series.throughput_mbps;
    let b_series = &series[join as usize..];
    match convergence_time(b_series, 50.0, 0.25, 5) {
        Some(t) => {
            let lo = t + 5;
            let hi = (lo + stability_window as usize).min(b_series.len());
            TradeoffPoint {
                convergence_secs: t as f64,
                stddev_mbps: std_dev(&b_series[lo.min(b_series.len())..hi]),
                converged: true,
            }
        }
        None => TradeoffPoint {
            convergence_secs: f64::INFINITY,
            stddev_mbps: std_dev(b_series),
            converged: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_fairness_pcc_beats_newreno() {
        // Fig. 8 shape: at 60 ms vs 10 ms, New Reno's long-RTT flow is
        // starved far below PCC's.
        let contention = SimDuration::from_secs(30);
        let pcc = rtt_fairness_ratio(
            Protocol::named("pcc"),
            SimDuration::from_millis(60),
            contention,
            5,
        );
        let reno = rtt_fairness_ratio(
            Protocol::Tcp("newreno"),
            SimDuration::from_millis(60),
            contention,
            5,
        );
        assert!(
            pcc > 2.0 * reno,
            "PCC long/short ratio {pcc:.3} must beat New Reno {reno:.3}"
        );
        assert!(pcc > 0.35, "PCC long flow not starved: {pcc:.3}");
    }

    #[test]
    fn convergence_fairness_pcc() {
        // The joiner needs a long time to claim its share (±1% decision
        // steps; the paper staggers flows by 500 s and reports 30-60 s
        // convergence; a joiner squeezed behind a full buffer can need a
        // few minutes). Judge fairness after the transient.
        let r = run_convergence(
            Protocol::named("pcc"),
            2,
            SimDuration::from_secs(20),
            SimDuration::from_secs(260),
            6,
        );
        let series: Vec<&[f64]> = r
            .inner
            .flows
            .iter()
            .map(|f| {
                let s = &r.inner.report.flows[f.index()].series.throughput_mbps;
                &s[200.min(s.len())..]
            })
            .collect();
        let jain = pcc_simnet::stats::jain_index_at_scale(&series, 5);
        assert!(jain > 0.85, "2 PCC flows near-fair: {jain:.3}");
    }

    #[test]
    fn pcc_more_stable_than_cubic() {
        // Compare post-convergence rate variance (Fig. 12's point); the
        // first ~40 s are the convergence transient for both.
        let post_stddev = |r: &super::ConvergenceResult| {
            let devs: Vec<f64> = r
                .inner
                .flows
                .iter()
                .map(|f| {
                    let s = &r.inner.report.flows[f.index()].series.throughput_mbps;
                    pcc_simnet::stats::std_dev(&s[200.min(s.len())..])
                })
                .collect();
            pcc_simnet::stats::mean(&devs)
        };
        let pcc = run_convergence(
            Protocol::named("pcc"),
            2,
            SimDuration::from_secs(20),
            SimDuration::from_secs(260),
            7,
        );
        let cubic = run_convergence(
            Protocol::Tcp("cubic"),
            2,
            SimDuration::from_secs(20),
            SimDuration::from_secs(260),
            7,
        );
        assert!(
            post_stddev(&pcc) < post_stddev(&cubic),
            "PCC stddev {:.2} < CUBIC {:.2}",
            post_stddev(&pcc),
            post_stddev(&cubic)
        );
    }

    #[test]
    fn tradeoff_point_sane() {
        let p = run_tradeoff(Protocol::named("pcc"), 60, 8);
        assert!(p.converged, "PCC converges in the tradeoff scenario");
        // Joiners squeezed behind a standing queue can need ~2 minutes to
        // reach the ±25% band (the paper's Fig. 16 default sits at 30-60 s
        // under gentler contention).
        assert!(p.convergence_secs < 130.0, "t={}", p.convergence_secs);
        assert!(p.stddev_mbps.is_finite());
    }
}
