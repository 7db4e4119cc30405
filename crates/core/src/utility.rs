//! Utility functions: how PCC scores the performance of a monitor interval.
//!
//! The utility function is PCC's objective. The paper's central one is the
//! "safe" sigmoid utility of §2.2, which provably yields a fair, stable
//! equilibrium (Theorem 1) while capping worst-case loss near 5%. §4.4 shows
//! the architectural payoff of making this pluggable: swap the function and
//! the same control machinery optimizes a different objective (low latency,
//! or extreme loss resilience) — something no hardwired TCP can express.

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::report::MeasurementReport;

/// Measured performance of one monitor interval, as handed to a utility
/// function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiMetrics {
    /// Monotonically increasing MI identifier.
    pub mi_id: u64,
    /// The rate the controller asked the pacer for (bits/sec).
    pub target_rate_bps: f64,
    /// The rate actually achieved on the wire: sent bytes over the MI
    /// duration (bits/sec). This is the `x` of the utility function.
    pub send_rate_bps: f64,
    /// Delivered rate: acked bytes over the MI duration (bits/sec). The `T`
    /// of the utility function.
    pub throughput_bps: f64,
    /// Fraction of the MI's packets lost (`L`).
    pub loss_rate: f64,
    /// Mean RTT of the MI's acked packets.
    pub avg_rtt: SimDuration,
    /// Mean RTT of the previous MI (for objectives that compare
    /// consecutive intervals).
    pub prev_avg_rtt: Option<SimDuration>,
    /// Minimum RTT ever sampled on this flow (propagation-delay estimate,
    /// for latency-level objectives).
    pub min_rtt: SimDuration,
    /// RTT slope within the MI, in seconds of RTT per second of wall time
    /// (positive = the bottleneck queue grew while this MI was sending).
    pub rtt_slope: f64,
    /// MI duration.
    pub duration: SimDuration,
    /// When the MI started.
    pub started_at: SimTime,
    /// Packets sent / acked / lost in this MI.
    pub sent: u64,
    /// Packets acknowledged.
    pub acked: u64,
    /// Packets declared lost (including written-off unresolved packets).
    pub lost: u64,
}

impl MiMetrics {
    /// The metrics of one closed measurement interval — the only place a
    /// [`MeasurementReport`] becomes the (x, T, L, RTT) tuple of §3.1,
    /// whichever fold filled it: the engine's send epochs (unresolved
    /// packets already written off into `lost_pkts`) or its batched
    /// reports. `prev_avg_rtt` is the previous interval's
    /// mean RTT, which also stands in when this one has no sample;
    /// `min_rtt` is the flow's propagation estimate, defaulting to this
    /// interval's mean.
    pub fn from_report(
        mi_id: u64,
        target_rate_bps: f64,
        rep: &MeasurementReport,
        prev_avg_rtt: Option<SimDuration>,
        min_rtt: Option<SimDuration>,
    ) -> Self {
        let secs = rep.span().as_secs_f64().max(1e-9);
        let avg_rtt = if rep.rtt_samples == 0 {
            prev_avg_rtt.unwrap_or(SimDuration::from_millis(100))
        } else {
            rep.mean_rtt()
        };
        MiMetrics {
            mi_id,
            target_rate_bps,
            send_rate_bps: rep.sent_bytes as f64 * 8.0 / secs,
            throughput_bps: rep.delivery_rate_bps(),
            loss_rate: if rep.sent_pkts == 0 {
                0.0
            } else {
                rep.lost_pkts as f64 / rep.sent_pkts as f64
            },
            avg_rtt,
            prev_avg_rtt,
            min_rtt: min_rtt.unwrap_or(avg_rtt),
            rtt_slope: rep.rtt_slope().unwrap_or(0.0),
            duration: rep.span(),
            started_at: rep.start,
            sent: rep.sent_pkts,
            acked: rep.acked_pkts,
            lost: rep.lost_pkts,
        }
    }

    /// Send rate in Mbit/s (`x` in the paper's units).
    pub fn x_mbps(&self) -> f64 {
        self.send_rate_bps / 1e6
    }

    /// Delivered throughput in Mbit/s (`T`).
    pub fn t_mbps(&self) -> f64 {
        self.throughput_bps / 1e6
    }
}

/// A pluggable MI-scoring function.
pub trait UtilityFunction: Send {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Score one monitor interval; higher is better.
    fn utility(&self, m: &MiMetrics) -> f64;
}

/// The paper's sigmoid cut-off: `1 / (1 + e^(α·y))`, a reverse sigmoid that
/// is ≈1 for `y < 0` and drops sharply to 0 once `y > 0` (α controls how
/// sharply).
pub fn sigmoid(alpha: f64, y: f64) -> f64 {
    // Guard the exponential against overflow; ±30 keeps 1 + e^z strictly
    // away from 1.0 in f64, so the sigmoid stays in the open interval (0,1).
    let z = (alpha * y).clamp(-30.0, 30.0);
    1.0 / (1.0 + z.exp())
}

/// §2.2 "safe" utility:
/// `u(x) = T·Sigmoid_α(L − 0.05) − x·L` (rates in Mbit/s).
///
/// Below the 5% loss knee this is ≈ throughput, so senders push up to
/// capacity; past the knee the sigmoid zeroes the throughput term and the
/// `−x·L` term dominates, capping aggregate loss near 5% (Theorem 1 makes
/// this precise: with α ≥ max(2.2(n−1), 100) the unique equilibrium is fair
/// and total rate stays within (C, 20C/19)).
#[derive(Clone, Copy, Debug)]
pub struct SafeSigmoid {
    /// Sigmoid steepness (paper: α = 100 for up to ~46 senders).
    pub alpha: f64,
    /// Loss knee (paper: 5%).
    pub loss_cutoff: f64,
}

impl Default for SafeSigmoid {
    fn default() -> Self {
        SafeSigmoid {
            alpha: 100.0,
            loss_cutoff: 0.05,
        }
    }
}

impl UtilityFunction for SafeSigmoid {
    fn name(&self) -> &'static str {
        "safe-sigmoid"
    }

    fn utility(&self, m: &MiMetrics) -> f64 {
        let x = m.x_mbps();
        let t = m.t_mbps();
        let l = m.loss_rate;
        t * sigmoid(self.alpha, l - self.loss_cutoff) - x * l
    }
}

/// The naive starting point the paper derives [`SafeSigmoid`] from:
/// `u(x) = T − x·L`. Loss approaches 50% as competing senders multiply —
/// kept as a baseline to demonstrate exactly that failure in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimpleThroughputLoss;

impl UtilityFunction for SimpleThroughputLoss {
    fn name(&self) -> &'static str {
        "simple"
    }

    fn utility(&self, m: &MiMetrics) -> f64 {
        m.t_mbps() - m.x_mbps() * m.loss_rate
    }
}

/// §4.4.2 loss-resilient utility: `u = T·(1 − L)`.
///
/// Under per-flow fair queueing a sender can optimize itself without a
/// loss cap; the optimum is its fair share regardless of random loss (the
/// paper demonstrates 97% of achievable throughput at 50% loss).
#[derive(Clone, Copy, Debug, Default)]
pub struct LossResilient;

impl UtilityFunction for LossResilient {
    fn name(&self) -> &'static str {
        "loss-resilient"
    }

    fn utility(&self, m: &MiMetrics) -> f64 {
        m.t_mbps() * (1.0 - m.loss_rate)
    }
}

/// §4.4.1 latency-sensitive utility for interactive flows.
///
/// The paper writes `u = (T·Sigmoid_α(L−0.05)·(RTT_{n−1}/RTT_n) − x·L) /
/// RTT_n`: a *gradient* penalty on latency increases plus the power
/// objective's `1/RTT_n`. The consecutive-MI ratio is degenerate once a
/// standing queue exists, though — the queue integrates across the ±ε
/// trials, so both trials of a pair observe the same average RTT and the
/// decision signal vanishes, leaving any bloat built during startup in
/// place forever. We therefore reference the ratio to the observed minimum
/// RTT (the propagation-delay estimate) instead:
///
/// `u = (T·Sigmoid_α(L−0.05)·(RTT_min/RTT_n) − x·L) / RTT_n`
///
/// which preserves the objective ("low latency, and no latency increase"),
/// restores an absolute gradient toward an empty queue, and adds the
/// within-MI RTT-*slope* penalty `− β·x·max(dRTT/dt, 0)` — the term the
/// authors themselves introduced in the follow-up PCC Vivace to make
/// latency observable: a standing queue hides rate overshoot from level
/// comparisons (the ±ε trials integrate to the same average RTT), but the
/// slope differs by `2ε·x` between the trials regardless of queue depth.
/// With this utility PCC holds its rate just below the fair share with an
/// empty queue, reproducing Fig. 17's observation that CoDel never sees a
/// queue worth dropping from.
#[derive(Clone, Copy, Debug)]
pub struct LatencySensitive {
    /// Sigmoid steepness.
    pub alpha: f64,
    /// Loss knee.
    pub loss_cutoff: f64,
    /// RTT-slope penalty coefficient β (Vivace's `b`).
    pub slope_penalty: f64,
}

impl Default for LatencySensitive {
    fn default() -> Self {
        LatencySensitive {
            alpha: 100.0,
            loss_cutoff: 0.05,
            slope_penalty: 25.0,
        }
    }
}

impl UtilityFunction for LatencySensitive {
    fn name(&self) -> &'static str {
        "latency-sensitive"
    }

    fn utility(&self, m: &MiMetrics) -> f64 {
        let rtt_n = m.avg_rtt.as_secs_f64().max(1e-6);
        let rtt_min = m.min_rtt.as_secs_f64().clamp(1e-6, rtt_n);
        let x = m.x_mbps();
        let t = m.t_mbps();
        let l = m.loss_rate;
        let slope_pen = self.slope_penalty * x * m.rtt_slope.max(0.0);
        (t * sigmoid(self.alpha, l - self.loss_cutoff) * (rtt_min / rtt_n) - x * l - slope_pen)
            / rtt_n
    }
}

/// Wrap an arbitrary closure as a utility function (application-defined
/// objectives, the paper's §2.4 flexibility argument).
pub struct CustomUtility<F: Fn(&MiMetrics) -> f64 + Send> {
    name: &'static str,
    f: F,
}

impl<F: Fn(&MiMetrics) -> f64 + Send> CustomUtility<F> {
    /// Wrap `f` under `name`.
    pub fn new(name: &'static str, f: F) -> Self {
        CustomUtility { name, f }
    }
}

impl<F: Fn(&MiMetrics) -> f64 + Send> UtilityFunction for CustomUtility<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn utility(&self, m: &MiMetrics) -> f64 {
        (self.f)(m)
    }
}

#[cfg(test)]
pub(crate) fn metrics(x_mbps: f64, t_mbps: f64, loss: f64) -> MiMetrics {
    MiMetrics {
        mi_id: 0,
        target_rate_bps: x_mbps * 1e6,
        send_rate_bps: x_mbps * 1e6,
        throughput_bps: t_mbps * 1e6,
        loss_rate: loss,
        avg_rtt: SimDuration::from_millis(30),
        prev_avg_rtt: Some(SimDuration::from_millis(30)),
        min_rtt: SimDuration::from_millis(30),
        rtt_slope: 0.0,
        duration: SimDuration::from_millis(60),
        started_at: SimTime::ZERO,
        sent: 100,
        acked: (100.0 * (1.0 - loss)) as u64,
        lost: (100.0 * loss) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_shape() {
        assert!(
            (sigmoid(100.0, -0.05) - 1.0).abs() < 0.01,
            "≈1 well below knee"
        );
        assert!(sigmoid(100.0, 0.05) < 0.01, "≈0 well above knee");
        assert!(
            (sigmoid(100.0, 0.0) - 0.5).abs() < 1e-12,
            "exactly 1/2 at knee"
        );
        // No overflow at extremes.
        assert!(sigmoid(100.0, 1e9).is_finite());
        assert!(sigmoid(100.0, -1e9).is_finite());
    }

    #[test]
    fn safe_utility_rewards_rate_without_loss() {
        let u = SafeSigmoid::default();
        let lo = u.utility(&metrics(50.0, 50.0, 0.0));
        let hi = u.utility(&metrics(100.0, 100.0, 0.0));
        assert!(hi > lo, "no loss: more throughput is better");
        // Numerically u ≈ 0.9933 * T.
        assert!((hi - 100.0 * sigmoid(100.0, -0.05)).abs() < 1e-9);
    }

    #[test]
    fn safe_utility_peaks_at_capacity() {
        // Single sender on C = 100 Mbps: u(x) for x <= C is ~x; for x > C,
        // T = C and L = (x - C)/x. The peak must sit at x = C.
        let u = SafeSigmoid::default();
        let capacity = 100.0;
        let eval = |x: f64| {
            let (t, l) = if x <= capacity {
                (x, 0.0)
            } else {
                (capacity, (x - capacity) / x)
            };
            u.utility(&metrics(x, t, l))
        };
        let at_c = eval(capacity);
        assert!(at_c > eval(capacity * 0.9), "below capacity is worse");
        assert!(at_c > eval(capacity * 1.05), "overdriving is worse");
        assert!(at_c > eval(capacity * 1.5), "heavy overdrive much worse");
    }

    #[test]
    fn safe_utility_ignores_moderate_random_loss() {
        // Random (non-congestion) loss below the knee: higher rate still
        // wins — the architectural point of §2.1's example.
        let u = SafeSigmoid::default();
        let l = 0.01;
        let lo = u.utility(&metrics(100.0, 100.0 * (1.0 - l), l));
        let hi = u.utility(&metrics(105.0, 105.0 * (1.0 - l), l));
        assert!(hi > lo, "1% random loss must not deter rate increase");
    }

    #[test]
    fn safe_utility_negative_past_cutoff() {
        let u = SafeSigmoid::default();
        let m = metrics(100.0, 90.0, 0.10);
        assert!(u.utility(&m) < 0.0, "10% loss ⇒ negative utility");
    }

    #[test]
    fn loss_resilient_tolerates_extreme_loss() {
        // At 50% random loss, throughput scales with rate: utility must
        // keep increasing in x (no cliff), unlike the safe function.
        let u = LossResilient;
        let l = 0.5;
        let lo = u.utility(&metrics(50.0, 25.0, l));
        let hi = u.utility(&metrics(100.0, 50.0, l));
        assert!(hi > lo);
        let safe = SafeSigmoid::default();
        assert!(safe.utility(&metrics(100.0, 50.0, l)) < 0.0);
    }

    #[test]
    fn latency_sensitive_penalizes_standing_queue() {
        let u = LatencySensitive::default();
        let mut empty = metrics(40.0, 40.0, 0.0);
        empty.avg_rtt = SimDuration::from_millis(20);
        empty.min_rtt = SimDuration::from_millis(20);
        let mut queued = empty;
        queued.avg_rtt = SimDuration::from_millis(40); // 20 ms standing queue
        assert!(
            u.utility(&empty) > u.utility(&queued),
            "standing queue must hurt even when RTT is stable"
        );
        // And lower absolute RTT scores higher (power objective).
        let mut low = empty;
        low.avg_rtt = SimDuration::from_millis(10);
        low.min_rtt = SimDuration::from_millis(10);
        assert!(u.utility(&low) > u.utility(&empty));
    }

    #[test]
    fn custom_utility_wraps_closure() {
        let u = CustomUtility::new("t-squared", |m: &MiMetrics| m.t_mbps().powi(2));
        assert_eq!(u.name(), "t-squared");
        assert_eq!(u.utility(&metrics(10.0, 10.0, 0.0)), 100.0);
    }

    #[test]
    fn simple_utility_linear_in_loss() {
        let u = SimpleThroughputLoss;
        let a = u.utility(&metrics(100.0, 95.0, 0.05));
        assert!((a - (95.0 - 100.0 * 0.05)).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// More throughput at equal send rate and loss never lowers any
        /// bundled utility function.
        #[test]
        fn monotone_in_throughput(x in 1.0f64..1000.0, l in 0.0f64..0.5,
                                  t1 in 0.0f64..1000.0, dt in 0.1f64..100.0) {
            let m1 = metrics(x, t1, l);
            let m2 = metrics(x, t1 + dt, l);
            let funcs: Vec<Box<dyn UtilityFunction>> = vec![
                Box::new(SafeSigmoid::default()),
                Box::new(SimpleThroughputLoss),
                Box::new(LossResilient),
                Box::new(LatencySensitive::default()),
            ];
            for f in &funcs {
                prop_assert!(f.utility(&m2) >= f.utility(&m1),
                    "{} must be monotone in T", f.name());
            }
        }

        /// More loss at equal send rate and throughput never raises any
        /// bundled utility function.
        #[test]
        fn antitone_in_loss(x in 1.0f64..1000.0, t in 0.0f64..1000.0,
                            l1 in 0.0f64..0.4, dl in 0.001f64..0.5) {
            let m1 = metrics(x, t, l1);
            let m2 = metrics(x, t, (l1 + dl).min(1.0));
            let funcs: Vec<Box<dyn UtilityFunction>> = vec![
                Box::new(SafeSigmoid::default()),
                Box::new(SimpleThroughputLoss),
                Box::new(LossResilient),
                Box::new(LatencySensitive::default()),
            ];
            for f in &funcs {
                prop_assert!(f.utility(&m2) <= f.utility(&m1),
                    "{} must be antitone in L", f.name());
            }
        }

        /// Sigmoid is bounded in (0, 1) and decreasing.
        #[test]
        fn sigmoid_bounded_decreasing(y1 in -10.0f64..10.0, dy in 0.001f64..10.0) {
            let a = sigmoid(100.0, y1);
            let b = sigmoid(100.0, y1 + dy);
            prop_assert!(a > 0.0 && a < 1.0);
            prop_assert!(b <= a);
        }

        /// One interval, two folds: a random send/ack/loss sequence folded
        /// by the engine's send epochs (per-transmission attribution) and
        /// by a `ReportAggregator` (plain sums) closes to equal `MiMetrics`
        /// — one record, one formula, whoever fills it.
        #[test]
        fn epochs_and_aggregator_close_an_interval_to_equal_metrics(
            script in proptest::collection::vec((0u8..4, 0u8..=255), 1..300),
        ) {
            use pcc_transport::cc::{AckEvent, LossEvent, LossKind, SentEvent};
            use pcc_transport::report::{Epochs, ReportAggregator};
            use pcc_simnet::time::SimTime;

            let mut epochs = Epochs::default();
            let mut agg = ReportAggregator::default();
            epochs.begin(SimTime::ZERO, SimDuration::from_millis(20));
            agg.begin(SimTime::ZERO);
            let mut now = SimTime::ZERO;
            let mut outstanding = std::collections::VecDeque::new();
            let lose = |epochs: &mut Epochs, agg: &mut ReportAggregator, sent: &[SimTime], now| {
                sent.iter().for_each(|&at| epochs.on_lost(at));
                let seqs = vec![0; sent.len()];
                agg.on_loss(&LossEvent {
                    now,
                    seqs: &seqs,
                    kind: LossKind::Detected,
                    new_episode: true,
                    in_flight: 0,
                    mss: 1500,
                });
            };
            for (seq, (op, mag)) in script.into_iter().enumerate() {
                now += SimDuration::from_micros(mag as u64 * 40);
                match (op, outstanding.pop_front()) {
                    (0 | 1, oldest) => {
                        outstanding.extend(oldest);
                        outstanding.push_back(now);
                        epochs.on_sent(now, 1500);
                        agg.on_sent(&SentEvent {
                            now,
                            seq: seq as u64,
                            bytes: 1500,
                            retx: false,
                            in_flight: outstanding.len() as u64,
                        });
                    }
                    (2, Some(sent_at)) => {
                        let rtt = SimDuration::from_micros(10_000 + mag as u64 * 50);
                        epochs.on_acked(sent_at, 1500, Some((rtt, now)));
                        agg.on_ack(&AckEvent {
                            now,
                            seq: seq as u64,
                            rtt,
                            sampled: true,
                            srtt: rtt,
                            min_rtt: rtt,
                            max_rtt: rtt,
                            recv_at: now,
                            probe_train: None,
                            of_retx: false,
                            cum_ack: 0,
                            newly_acked: 1,
                            in_flight: outstanding.len() as u64,
                            mss: 1500,
                            in_recovery: false,
                        });
                    }
                    (_, Some(sent_at)) => lose(&mut epochs, &mut agg, &[sent_at], now),
                    (_, None) => {}
                }
            }
            // The aggregator has no deadline to write off against, so
            // nothing stays unresolved when the interval closes.
            let rest: Vec<SimTime> = outstanding.into_iter().collect();
            lose(&mut epochs, &mut agg, &rest, now);
            now += SimDuration::from_millis(1);
            epochs.begin(now, SimDuration::ZERO);
            prop_assert_eq!(epochs.ready(now), 1);
            let closed = |rep: &MeasurementReport| MiMetrics::from_report(0, 5e6, rep, None, rep.rtt_min);
            prop_assert_eq!(closed(&epochs.pop().expect("ready")), closed(&agg.take(now)));
        }
    }
}
