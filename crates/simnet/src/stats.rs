//! Per-flow measurement and post-run analysis.
//!
//! The simulation samples each flow at a fixed interval, producing aligned
//! time series of throughput, goodput, control rate and RTT; losses are
//! counted over the flow's lifetime ([`FlowStats::detected_losses`]). The
//! analysis helpers compute the paper's metrics: Jain's fairness index
//! (Fig. 13), convergence time and post-convergence standard deviation
//! (Fig. 16), and flow completion times (Fig. 15).

use crate::time::{SimDuration, SimTime};

/// Aligned per-flow time series, one sample per [`sample interval`].
#[derive(Clone, Debug, Default)]
pub struct FlowSeries {
    /// Receiver-side delivery rate per sample, Mbit/s (includes duplicates).
    pub throughput_mbps: Vec<f64>,
    /// Unique-data delivery rate per sample, Mbit/s.
    pub goodput_mbps: Vec<f64>,
    /// Most recent control decision (sending rate) at each sample, Mbit/s.
    /// For window-based protocols this is cwnd/RTT.
    pub rate_mbps: Vec<f64>,
    /// Mean RTT over each sample window, milliseconds (NaN when no sample).
    pub rtt_ms: Vec<f64>,
}

/// How a flow stalled out: recorded when a sender's dead-time budget
/// elapsed with no forward progress and it aborted the transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StallInfo {
    /// When the sender declared the stall.
    pub at: SimTime,
    /// How long the flow went without forward progress before aborting.
    pub dark: SimDuration,
    /// Consecutive RTO fires observed during the dark period.
    pub timeouts: u64,
}

/// Everything measured about one flow.
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Data bytes arriving at the receiver (wire bytes, includes retx).
    pub delivered_bytes: u64,
    /// Unique data bytes accepted by the receiver.
    pub goodput_bytes: u64,
    /// Data packets the sender put on the wire.
    pub sent_packets: u64,
    /// Data packets arriving at the receiver.
    pub delivered_packets: u64,
    /// Losses detected by the sender (SACK reordering or RTO).
    pub detected_losses: u64,
    /// Sum/count of sender RTT samples (for lifetime mean).
    pub rtt_sum_ns: u64,
    /// Number of RTT samples.
    pub rtt_samples: u64,
    /// When the flow started.
    pub started_at: SimTime,
    /// Completion time, for sized flows that finished.
    pub completed_at: Option<SimTime>,
    /// Set when the sender aborted the transfer on its dead-time budget
    /// (graceful degradation instead of retrying forever).
    pub stalled: Option<StallInfo>,
    /// Sampled series.
    pub series: FlowSeries,
}

impl FlowStats {
    /// Mean RTT over the flow's lifetime.
    pub fn mean_rtt(&self) -> Option<SimDuration> {
        self.rtt_sum_ns
            .checked_div(self.rtt_samples)
            .map(SimDuration::from_nanos)
    }

    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|t| t.saturating_since(self.started_at))
    }

    /// Average delivered throughput in Mbit/s over `[from, to]`.
    ///
    /// Uses the sampled series, so resolution is the sample interval.
    pub fn avg_throughput_mbps(
        &self,
        sample_interval: SimDuration,
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        window_mean(&self.series.throughput_mbps, sample_interval, from, to)
    }

    /// Average goodput in Mbit/s over `[from, to]`.
    pub fn avg_goodput_mbps(
        &self,
        sample_interval: SimDuration,
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        window_mean(&self.series.goodput_mbps, sample_interval, from, to)
    }

    /// Loss rate observed by the sender over the whole run.
    pub fn loss_rate(&self) -> f64 {
        if self.sent_packets == 0 {
            0.0
        } else {
            self.detected_losses as f64 / self.sent_packets as f64
        }
    }
}

fn sample_index(interval: SimDuration, t: SimTime) -> usize {
    if interval.is_zero() {
        return 0;
    }
    (t.as_nanos() / interval.as_nanos()) as usize
}

/// Mean of `series` over the sample range covering `[from, to]`.
pub fn window_mean(series: &[f64], interval: SimDuration, from: SimTime, to: SimTime) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let lo = sample_index(interval, from).min(series.len());
    let hi = sample_index(interval, to).min(series.len());
    if hi <= lo {
        return 0.0;
    }
    let window = &series[lo..hi];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Jain's fairness index of `values`: `(Σx)² / (n·Σx²)`.
///
/// Equals 1 for perfectly equal allocations and `1/n` for a single hog.
pub fn jain_index(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Jain's index computed over coarse time bins (the "time scale" axis of
/// Fig. 13): each flow's throughput is averaged over bins of `scale`
/// samples, the index computed per bin (over *all* flows — an idle flow is
/// maximal unfairness), then averaged over bins with any activity.
///
/// Callers should pass series trimmed to the window where all flows are
/// supposed to be active, as the paper does for its convergence experiment.
pub fn jain_index_at_scale(series: &[&[f64]], scale: usize) -> f64 {
    if series.is_empty() || scale == 0 {
        return 1.0;
    }
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    if len == 0 {
        return 1.0;
    }
    let mut indices = Vec::new();
    let mut bin_start = 0;
    while bin_start + scale <= len {
        let bin: Vec<f64> = series
            .iter()
            .map(|s| s[bin_start..bin_start + scale].iter().sum::<f64>() / scale as f64)
            .collect();
        if bin.iter().any(|&v| v > 1e-9) {
            indices.push(jain_index(&bin));
        }
        bin_start += scale;
    }
    if indices.is_empty() {
        1.0
    } else {
        indices.iter().sum::<f64>() / indices.len() as f64
    }
}

/// Sample standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    var.sqrt()
}

/// Arithmetic mean (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `p`-th percentile (0..=100) by nearest rank in [`f64::total_cmp`]
/// order: the value a copy sorted by `total_cmp` holds at index
/// `round(p/100 · (n − 1))`, clamped to the slice. A NaN `p` reads rank 0.
///
/// Found by selection, not by sorting: O(n) time and no allocation.
/// NaN sorts as `total_cmp` puts it — a positive NaN above +∞, a negative
/// one below −∞ — and −0.0 below +0.0. Empty input reads 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let Some(last) = values.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = ((p / 100.0) * last as f64).round() as usize;
    select_total(values, rank.min(last))
}

/// A `u64` whose unsigned order is [`f64::total_cmp`]'s order on `v`.
fn total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The inverse of [`total_key`].
fn from_total_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k ^ 1 << 63 } else { !k })
}

/// The `rank`-th smallest (from 0) of `values` in `total_cmp` order, for
/// `rank < values.len()`: a most-significant-digit radix select over
/// [`total_key`]s. Each of the eight passes counts, by their next byte,
/// the keys that share the bytes fixed so far, and fixes the byte whose
/// counts span `rank`.
fn select_total(values: &[f64], mut rank: usize) -> f64 {
    let mut prefix = 0u64;
    for shift in (0..64).step_by(8).rev() {
        // The bits above this digit, fixed by the passes before it.
        let fixed = u64::MAX.checked_shl(shift + 8).unwrap_or(0);
        let mut counts = [0usize; 256];
        for &v in values {
            let key = total_key(v);
            if key & fixed == prefix {
                counts[usize::from((key >> shift) as u8)] += 1;
            }
        }
        let mut digit = 0;
        while rank >= counts[digit] {
            rank -= counts[digit];
            digit += 1;
        }
        prefix |= (digit as u64) << shift;
    }
    from_total_key(prefix)
}

/// The paper's "forward-looking" convergence-time definition (§4.2.2): the
/// convergence time of a flow is the smallest sample index `t` such that
/// every sample in `[t, t + window)` is within `±tolerance` of `target`.
/// Returns `None` if the flow never converges.
pub fn convergence_time(
    series: &[f64],
    target: f64,
    tolerance: f64,
    window: usize,
) -> Option<usize> {
    if series.len() < window || window == 0 {
        return None;
    }
    let lo = target * (1.0 - tolerance);
    let hi = target * (1.0 + tolerance);
    // Scan with a running count of in-range samples.
    let mut run = 0usize;
    for (i, &v) in series.iter().enumerate() {
        if v >= lo && v <= hi {
            run += 1;
            if run >= window {
                return Some(i + 1 - window);
            }
        } else {
            run = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let idx = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_and_zero() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_at_scale_smooths_alternation() {
        // Two flows alternating 10/0 and 0/10: unfair at scale 1, perfectly
        // fair at scale 2.
        let a: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 10.0 } else { 0.0 })
            .collect();
        let b: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 1 { 10.0 } else { 0.0 })
            .collect();
        let fine = jain_index_at_scale(&[&a, &b], 1);
        let coarse = jain_index_at_scale(&[&a, &b], 2);
        assert!(fine < 0.6, "fine-scale unfair: {fine}");
        assert!((coarse - 1.0).abs() < 1e-12, "coarse-scale fair: {coarse}");
    }

    #[test]
    fn std_dev_known() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // Sample stddev of this classic set is ~2.138.
        assert!((std_dev(&v) - 2.138).abs() < 0.01);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let med = percentile(&v, 50.0);
        assert!((49.0..=51.0).contains(&med));
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_tolerates_nan_instead_of_panicking() {
        // The comparator used to be `partial_cmp(..).expect("no NaNs")`,
        // which turned one NaN sample (e.g. 0/0 from an empty-interval
        // rate) into a panic mid-table. `total_cmp` sorts NaN above every
        // finite value, so finite percentiles of a mostly-finite series
        // stay meaningful and nothing crashes.
        let v = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        let p67 = percentile(&v, 67.0);
        assert_eq!(p67, 3.0, "finite ranks unaffected by the NaN tail");
        assert!(percentile(&v, 100.0).is_nan(), "NaN sorts last");
    }

    #[test]
    fn percentile_orders_signed_zeros_and_nans_as_total_cmp() {
        // Ranks 0..=4 of five values: a negative NaN sorts below −∞, −0.0
        // below +0.0, and a positive NaN above everything.
        let v = [0.0, f64::NAN, -0.0, -f64::NAN, f64::NEG_INFINITY];
        let at = |rank: u32| percentile(&v, f64::from(rank) * 25.0);
        assert_eq!(at(0).to_bits(), (-f64::NAN).to_bits(), "negative NaN first");
        assert_eq!(at(1), f64::NEG_INFINITY);
        assert_eq!(at(2).to_bits(), (-0.0f64).to_bits(), "-0.0 before +0.0");
        assert_eq!(at(3).to_bits(), 0.0f64.to_bits());
        assert_eq!(at(4).to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn convergence_found() {
        // Ramp up, then stable around 10.
        let mut s: Vec<f64> = (0..10).map(|i| i as f64).collect();
        s.extend(std::iter::repeat_n(10.0, 20));
        let t = convergence_time(&s, 10.0, 0.25, 5).expect("converges");
        assert_eq!(t, 8, "samples 8,9 are within 25% of 10");
    }

    #[test]
    fn convergence_never() {
        let s: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 1.0 } else { 20.0 })
            .collect();
        assert_eq!(convergence_time(&s, 10.0, 0.25, 5), None);
    }

    #[test]
    fn convergence_requires_full_window() {
        let s = vec![10.0, 10.0, 10.0];
        assert_eq!(
            convergence_time(&s, 10.0, 0.25, 5),
            None,
            "series shorter than window"
        );
    }

    #[test]
    fn window_mean_bounds() {
        let s = vec![1.0, 2.0, 3.0, 4.0];
        let iv = SimDuration::from_secs(1);
        let m = window_mean(&s, iv, SimTime::from_secs(1), SimTime::from_secs(3));
        assert!((m - 2.5).abs() < 1e-12);
        // Degenerate windows.
        assert_eq!(
            window_mean(&s, iv, SimTime::from_secs(3), SimTime::from_secs(3)),
            0.0
        );
        assert_eq!(
            window_mean(&[], iv, SimTime::ZERO, SimTime::from_secs(10)),
            0.0
        );
    }

    #[test]
    fn flow_stats_helpers() {
        let mut fs = FlowStats::default();
        assert!(fs.mean_rtt().is_none());
        fs.rtt_sum_ns = 30_000_000;
        fs.rtt_samples = 2;
        assert_eq!(fs.mean_rtt().unwrap().as_millis_f64(), 15.0);
        fs.started_at = SimTime::from_secs(1);
        fs.completed_at = Some(SimTime::from_secs(3));
        assert_eq!(fs.fct().unwrap().as_secs_f64(), 2.0);
        fs.sent_packets = 100;
        fs.detected_losses = 7;
        assert!((fs.loss_rate() - 0.07).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// What [`percentile`] computes, the slow way: nearest rank on a copy
    /// sorted by `total_cmp`.
    fn sorted_copy_percentile(values: &[f64], p: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Values that stress a `total_cmp` order: signed zeros, infinities and
    /// NaNs of both signs drawn from a small pool (so duplicates are
    /// heavy), subnormals of both signs, arbitrary bit patterns (NaN
    /// payloads, every exponent) and plain FCT-like seconds.
    fn awkward_f64() -> impl Strategy<Value = f64> {
        const POOL: [f64; 8] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        prop_oneof![
            (0usize..POOL.len()).prop_map(|i| POOL[i]),
            (0u64..1 << 53).prop_map(|m| f64::from_bits((m & 1) << 63 | m >> 1)),
            (0u64..u64::MAX).prop_map(f64::from_bits),
            0.0f64..10.0,
        ]
    }

    /// Percentile ranks over [−10, 110] (out of range both ways), NaN, and
    /// the ranks the tables print.
    fn awkward_p() -> impl Strategy<Value = f64> {
        const PRINTED: [f64; 5] = [0.0, 50.0, 99.0, 99.9, 100.0];
        prop_oneof![
            -10.0f64..110.0,
            Just(f64::NAN),
            (0usize..PRINTED.len()).prop_map(|i| PRINTED[i]),
        ]
    }

    proptest! {
        /// Jain's index is always in [1/n, 1] for non-negative inputs.
        #[test]
        fn jain_bounds(values in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            let idx = jain_index(&values);
            let n = values.len() as f64;
            prop_assert!(idx <= 1.0 + 1e-9);
            prop_assert!(idx >= 1.0 / n - 1e-9);
        }

        /// Scaling all inputs leaves the index unchanged.
        #[test]
        fn jain_scale_invariant(values in proptest::collection::vec(0.1f64..1e3, 2..20), k in 0.1f64..100.0) {
            let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
            prop_assert!((jain_index(&values) - jain_index(&scaled)).abs() < 1e-9);
        }

        /// Percentile is monotone in p.
        #[test]
        fn percentile_monotone(values in proptest::collection::vec(-1e3f64..1e3, 1..100),
                               p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&values, lo) <= percentile(&values, hi) + 1e-12);
        }

        /// The selection kernel returns the very bits the sorted copy
        /// holds at the nearest rank, for any `p` (out of range or NaN).
        #[test]
        fn percentile_is_the_sorted_copys_nearest_rank(
            values in proptest::collection::vec(awkward_f64(), 0..300),
            p in awkward_p(),
        ) {
            prop_assert_eq!(
                percentile(&values, p).to_bits(),
                sorted_copy_percentile(&values, p).to_bits(),
                "p = {} over {:?}", p, values
            );
        }

        /// std_dev is translation invariant.
        #[test]
        fn stddev_translation_invariant(values in proptest::collection::vec(-1e3f64..1e3, 2..50), c in -1e3f64..1e3) {
            let shifted: Vec<f64> = values.iter().map(|v| v + c).collect();
            prop_assert!((std_dev(&values) - std_dev(&shifted)).abs() < 1e-6);
        }
    }
}
