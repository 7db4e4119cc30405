//! Per-link impairment stage: stochastic jitter and bounded reordering.
//!
//! A [`LinkShaper`] composes onto the existing link/queue path (see
//! [`crate::link::Link`]) without touching the event loop:
//!
//! * **Jitter** happens at link egress, *after* serialization and loss:
//!   each delivery gets an extra delay drawn uniformly from
//!   `[0, max]` out of the shaper's own [`SimRng`] stream. Deliveries are
//!   clamped to be non-decreasing in arrival time, so jitter alone never
//!   reorders (a FIFO jitter buffer).
//! * **Reordering** is opt-in and *bounded*: with probability
//!   `reorder_prob` a delivery skips its jitter and is scheduled at its
//!   un-jittered arrival time — it may overtake packets delivered just
//!   before it, but never more than `reorder_depth` of them, and nothing
//!   older (the shaper tracks a high-water mark of arrivals that have
//!   left the window and floors rushed deliveries at it). The shaper
//!   never drops a packet.
//!
//! Every draw comes from a stream derived from the link's RNG, so runs
//! stay bit-deterministic per seed and enabling a shaper on one link
//! never perturbs another link's loss process.

use std::collections::VecDeque;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Jitter / bounded-reordering parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JitterConfig {
    /// Maximum extra per-packet delay; each delivery draws uniformly
    /// from `[0, max]`.
    pub max: SimDuration,
    /// Probability that a delivery is "rushed" past recent ones
    /// (reordered). `0` keeps strict FIFO.
    pub reorder_prob: f64,
    /// Upper bound on how many earlier deliveries a rushed packet may
    /// overtake. `0` disables reordering regardless of `reorder_prob`.
    pub reorder_depth: usize,
}

impl JitterConfig {
    /// Jitter only: uniform extra delay in `[0, max]`, strict FIFO.
    pub fn uniform(max: SimDuration) -> Self {
        JitterConfig {
            max,
            reorder_prob: 0.0,
            reorder_depth: 0,
        }
    }

    /// Enable bounded reordering: with probability `prob` a delivery may
    /// overtake up to `depth` earlier ones.
    pub fn with_reordering(mut self, prob: f64, depth: usize) -> Self {
        self.reorder_prob = prob;
        self.reorder_depth = depth;
        self
    }
}

/// Which impairments a link's shaper applies. The default is a no-op.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShaperConfig {
    /// Per-packet jitter and bounded reordering at egress.
    pub jitter: Option<JitterConfig>,
}

impl ShaperConfig {
    /// True if no impairment is configured (the shaper is a no-op and
    /// draws no randomness).
    pub fn is_noop(&self) -> bool {
        self.jitter.is_none()
    }

    /// Add jitter/reordering.
    pub fn with_jitter(mut self, jitter: JitterConfig) -> Self {
        self.jitter = Some(jitter);
        self
    }
}

/// Runtime state of one link's impairment stage.
#[derive(Debug)]
pub struct LinkShaper {
    config: ShaperConfig,
    rng: SimRng,
    // Reordering window: arrival times of the last `reorder_depth`
    // deliveries, plus the high-water mark of everything older.
    recent: VecDeque<SimTime>,
    old_max: SimTime,
    // Running max of all scheduled arrivals: the FIFO floor for
    // non-rushed deliveries.
    last_arrival: SimTime,
}

impl LinkShaper {
    /// Build a shaper. `rng` must be an independent stream for this link
    /// (links derive one from their own stream, so shaper draws never
    /// perturb the loss process).
    pub fn new(config: ShaperConfig, rng: SimRng) -> Self {
        if let Some(j) = &config.jitter {
            assert!(
                (0.0..=1.0).contains(&j.reorder_prob),
                "reorder probability must be in [0,1]"
            );
        }
        LinkShaper {
            config,
            rng,
            recent: VecDeque::new(),
            old_max: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Shape one delivery: given the un-impaired arrival time `nominal`,
    /// return when the packet actually arrives. Returns the arrival plus
    /// whether this delivery was rushed (reordered ahead of jittered
    /// ones). Never drops; arrival is always `>= nominal`'s propagation
    /// floor minus nothing (rushed packets keep their nominal time).
    pub fn arrival(&mut self, nominal: SimTime) -> (SimTime, bool) {
        let Some(j) = self.config.jitter else {
            return (nominal, false);
        };
        let rush = j.reorder_depth > 0 && self.rng.chance(j.reorder_prob);
        let arrival = if rush {
            // Rushed: no jitter, but never overtake anything older than
            // the last `reorder_depth` deliveries.
            nominal.max(self.old_max)
        } else {
            let extra =
                SimDuration::from_secs_f64(self.rng.range_f64(0.0, j.max.as_secs_f64().max(0.0)));
            (nominal + extra).max(self.last_arrival)
        };
        self.last_arrival = self.last_arrival.max(arrival);
        self.recent.push_back(arrival);
        while self.recent.len() > j.reorder_depth {
            let left = self.recent.pop_front().expect("non-empty");
            self.old_max = self.old_max.max(left);
        }
        (arrival, rush && arrival < self.last_arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shaper(config: ShaperConfig) -> LinkShaper {
        LinkShaper::new(config, SimRng::new(7))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn noop_shaper_passes_through() {
        let mut s = shaper(ShaperConfig::default());
        assert_eq!(s.arrival(t(5)), (t(5), false));
    }

    #[test]
    fn jitter_is_fifo_without_reordering() {
        let mut s = shaper(
            ShaperConfig::default()
                .with_jitter(JitterConfig::uniform(SimDuration::from_millis(10))),
        );
        let mut last = SimTime::ZERO;
        for i in 0..1000u64 {
            let nominal = SimTime::from_nanos(i * 100_000); // 0.1 ms apart
            let (a, rushed) = s.arrival(nominal);
            assert!(a >= nominal, "jitter only adds delay");
            // The draw is bounded by max jitter; the FIFO clamp can only
            // raise it to the previous arrival, never past it.
            assert!(
                a <= last.max(nominal + SimDuration::from_millis(10)),
                "jitter magnitude bounded"
            );
            assert!(a >= last, "FIFO: arrivals non-decreasing");
            assert!(!rushed);
            last = a;
        }
    }

    #[test]
    fn reordering_happens_and_is_bounded() {
        let depth = 3usize;
        let mut s = shaper(ShaperConfig::default().with_jitter(
            JitterConfig::uniform(SimDuration::from_millis(5)).with_reordering(0.2, depth),
        ));
        let arrivals: Vec<SimTime> = (0..2000u64)
            .map(|i| s.arrival(SimTime::from_nanos(i * 200_000)).0)
            .collect();
        // Some actual reordering occurred...
        let inversions = arrivals.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(inversions > 0, "reordering configured but never happened");
        // ...but each packet overtakes at most `depth` earlier ones.
        for (i, &a) in arrivals.iter().enumerate() {
            let overtaken = arrivals[..i].iter().filter(|&&b| b > a).count();
            assert!(
                overtaken <= depth,
                "packet {i} overtook {overtaken} > depth {depth}"
            );
        }
    }

    #[test]
    fn depth_zero_disables_reordering_even_with_probability() {
        let mut s = shaper(ShaperConfig::default().with_jitter(
            JitterConfig::uniform(SimDuration::from_millis(5)).with_reordering(1.0, 0),
        ));
        let mut last = SimTime::ZERO;
        for i in 0..500u64 {
            let (a, rushed) = s.arrival(SimTime::from_nanos(i * 200_000));
            assert!(a >= last);
            assert!(!rushed);
            last = a;
        }
    }

    #[test]
    fn same_seed_same_impairments() {
        let run = || {
            let mut s = LinkShaper::new(
                ShaperConfig::default().with_jitter(
                    JitterConfig::uniform(SimDuration::from_millis(8)).with_reordering(0.3, 4),
                ),
                SimRng::new(99),
            );
            (0..200u64)
                .map(|i| s.arrival(SimTime::from_nanos(i * 500_000)).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The shaper never drops and never reorders beyond the
        /// configured depth: for every delivery, the number of earlier
        /// deliveries it overtakes is at most `depth`, for any seed, any
        /// jitter magnitude, any packet spacing.
        #[test]
        fn reordering_is_bounded_and_lossless(
            seed in 0u64..1_000,
            depth in 0usize..8,
            prob in 0.0f64..1.0,
            jitter_ms in 0u64..20,
            gaps in proptest::collection::vec(1u64..2_000_000, 10..300),
        ) {
            let mut s = LinkShaper::new(
                ShaperConfig::default().with_jitter(
                    JitterConfig::uniform(SimDuration::from_millis(jitter_ms))
                        .with_reordering(prob, depth),
                ),
                SimRng::new(seed),
            );
            let mut now = SimTime::ZERO;
            let mut arrivals = Vec::with_capacity(gaps.len());
            for gap in &gaps {
                now += SimDuration::from_nanos(*gap);
                let (a, _) = s.arrival(now);
                // Lossless and causal: every packet gets an arrival, at
                // or after its nominal time.
                prop_assert!(a >= now);
                arrivals.push(a);
            }
            for (i, &a) in arrivals.iter().enumerate() {
                let overtaken = arrivals[..i].iter().filter(|&&b| b > a).count();
                prop_assert!(
                    overtaken <= depth,
                    "packet {} overtook {} > depth {}", i, overtaken, depth
                );
            }
        }
    }
}
