//! The path model a BBR-style algorithm maintains: a windowed-max filter
//! over bottleneck-bandwidth samples, a windowed-min RTT tracker, and the
//! per-packet delivery-rate sampler that produces the bandwidth samples.
//!
//! The sampler is the part that makes the model robust: instead of the
//! naive `newly_acked / rtt` (which collapses under aggregated or thinned
//! ACKs), each transmitted packet records how much data had been delivered
//! when it left. When its ACK returns, the *delivery rate* over that
//! packet's flight —
//! `(delivered_now − delivered_at_send) / (now − sent_at)` — measures the
//! rate the network actually sustained, independent of how ACKs were
//! batched on the return path.
//!
//! The sampler runs on every ACK of a per-ACK BBR flow, so its send
//! records live in the workspace's one per-packet table, a
//! [`SeqRing`]: taking the acked record and dropping everything below the
//! cumulative ACK cost a slot each, not a tree walk and a fresh tree.

use std::collections::VecDeque;

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::SeqRing;

use crate::MIN_RTT_WINDOW;

/// Windowed maximum filter keyed by round-trip count: reports the largest
/// sample seen in the last `window` rounds. Implemented as a monotonic
/// deque, so `update` is amortized O(1).
#[derive(Clone, Debug)]
pub struct MaxBwFilter {
    window: u64,
    /// `(round, sample)` pairs with strictly decreasing samples.
    samples: VecDeque<(u64, f64)>,
}

impl MaxBwFilter {
    /// Filter over the last `window` rounds.
    pub fn new(window: u64) -> Self {
        MaxBwFilter {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Insert a bandwidth sample observed in `round`.
    pub fn update(&mut self, round: u64, sample_bps: f64) {
        while self
            .samples
            .front()
            .is_some_and(|&(r, _)| r + self.window <= round)
        {
            self.samples.pop_front();
        }
        while self.samples.back().is_some_and(|&(_, s)| s <= sample_bps) {
            self.samples.pop_back();
        }
        self.samples.push_back((round, sample_bps));
    }

    /// The windowed maximum, if any sample is live.
    pub fn get(&self) -> Option<f64> {
        self.samples.front().map(|&(_, s)| s)
    }
}

/// Minimum-RTT tracker with an explicit expiry window
/// ([`MIN_RTT_WINDOW`], 10 s in BBR): the minimum only *tightens* inside
/// the window; when no equal-or-lower sample has arrived for the window,
/// the estimate is stale and the algorithm must deliberately re-probe
/// (ProbeRTT) rather than silently trust an inflated value.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinRttTracker {
    value: Option<SimDuration>,
    stamp: SimTime,
}

impl MinRttTracker {
    /// Tracker whose estimate expires after [`MIN_RTT_WINDOW`] without
    /// refresh.
    pub fn new() -> Self {
        MinRttTracker::default()
    }

    /// Feed an RTT sample. Equal samples refresh the stamp, so a flow
    /// sitting at the propagation delay never needlessly probes.
    pub fn update(&mut self, sample: SimDuration, now: SimTime) {
        if self.value.is_none_or(|v| sample <= v) {
            self.value = Some(sample);
            self.stamp = now;
        }
    }

    /// Replace the estimate outright (ProbeRTT concluded a re-measurement).
    pub fn reset(&mut self, value: SimDuration, now: SimTime) {
        self.value = Some(value);
        self.stamp = now;
    }

    /// Current estimate.
    pub fn get(&self) -> Option<SimDuration> {
        self.value
    }

    /// True when the estimate has gone [`MIN_RTT_WINDOW`] without a
    /// refresh.
    pub fn expired(&self, now: SimTime) -> bool {
        self.value.is_some() && now.saturating_since(self.stamp) > MIN_RTT_WINDOW
    }
}

/// Per-packet send record: total packets delivered when this packet left,
/// and when it left.
#[derive(Clone, Copy, Debug)]
struct SendRecord {
    delivered: u64,
    sent_at: SimTime,
}

/// One delivery-rate measurement.
#[derive(Clone, Copy, Debug)]
pub struct RateSample {
    /// Measured delivery rate, bits/sec.
    pub bw_bps: f64,
    /// Total packets delivered when the measured packet was *sent* — the
    /// round-trip marker ("packet.delivered" in BBR's pseudocode).
    pub delivered_at_send: u64,
}

/// Delivery-rate sampler over packet-granularity sequence numbers.
#[derive(Clone, Debug, Default)]
pub struct DeliverySampler {
    delivered: u64,
    /// Send records of first transmissions not yet acked, lost or below
    /// the cumulative ACK.
    records: SeqRing<SendRecord>,
    /// Highest cumulative ACK seen; no new data is sent below it.
    cum_ack: u64,
}

impl DeliverySampler {
    /// Fresh sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// A packet left the sender. Retransmissions are not recorded: an ACK
    /// of a retransmitted sequence is ambiguous about which flight it
    /// measures.
    pub fn on_sent(&mut self, seq: u64, now: SimTime, retx: bool) {
        if !retx {
            debug_assert!(
                seq >= self.cum_ack,
                "new data {seq} sent below the cumulative ACK {}",
                self.cum_ack
            );
            self.records.insert(
                seq,
                SendRecord {
                    delivered: self.delivered,
                    sent_at: now,
                },
            );
        }
    }

    /// An ACK advanced delivery by `newly_acked` packets; if `seq` has an
    /// unambiguous send record, return the delivery-rate sample it
    /// completes. `mss` converts packets to wire bits.
    pub fn on_ack(
        &mut self,
        seq: u64,
        cum_ack: u64,
        newly_acked: u32,
        of_retx: bool,
        mss: u32,
        now: SimTime,
    ) -> Option<RateSample> {
        self.delivered += u64::from(newly_acked);
        // Take the acked record *before* pruning: the cumulative ack
        // usually covers `seq` itself.
        let rec = self.records.take(seq);
        // Everything below the cumulative ack can never be sampled again.
        self.records.drop_below(cum_ack);
        self.cum_ack = self.cum_ack.max(cum_ack);
        let rec = rec?;
        if of_retx {
            return None;
        }
        let interval = now.saturating_since(rec.sent_at);
        if interval.is_zero() {
            return None;
        }
        let pkts = self.delivered.saturating_sub(rec.delivered) as f64;
        Some(RateSample {
            bw_bps: pkts * mss as f64 * 8.0 / interval.as_secs_f64(),
            delivered_at_send: rec.delivered,
        })
    }

    /// Sequences were declared lost: their records can no longer produce a
    /// clean sample (any later ACK will be for a retransmission).
    pub fn on_loss(&mut self, seqs: &[u64]) {
        for &seq in seqs {
            self.records.take(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_filter_reports_window_max_and_expires() {
        let mut f = MaxBwFilter::new(3);
        f.update(0, 10.0);
        f.update(1, 30.0);
        f.update(2, 20.0);
        assert_eq!(f.get(), Some(30.0));
        // Round 4: the round-1 peak leaves the window; 20.0 remains.
        f.update(4, 5.0);
        assert_eq!(f.get(), Some(20.0));
        // Round 5: 20.0 (round 2) expires too.
        f.update(5, 6.0);
        assert_eq!(f.get(), Some(6.0));
    }

    #[test]
    fn min_rtt_tightens_and_expires() {
        let mut m = MinRttTracker::new();
        m.update(SimDuration::from_millis(30), SimTime::from_secs(1));
        m.update(SimDuration::from_millis(40), SimTime::from_secs(2));
        assert_eq!(m.get(), Some(SimDuration::from_millis(30)));
        assert!(!m.expired(SimTime::from_secs(11)));
        assert!(m.expired(SimTime::from_secs(12)));
        // An equal sample refreshes the stamp.
        m.update(SimDuration::from_millis(30), SimTime::from_secs(5));
        assert!(!m.expired(SimTime::from_secs(14)));
    }

    #[test]
    fn delivery_rate_is_batching_independent() {
        // 10 packets delivered over 10 ms reads 12 Mbps at MSS 1500
        // whether the ACKs arrive singly or in one cumulative burst.
        let mss = 1500u32;
        let mut s = DeliverySampler::new();
        for seq in 0..10u64 {
            s.on_sent(seq, SimTime::ZERO, false);
        }
        // One aggregated ACK for seq 9 carrying newly_acked = 10.
        let sample = s
            .on_ack(9, 10, 10, false, mss, SimTime::from_millis(10))
            .expect("sampled");
        let expect = 10.0 * 1500.0 * 8.0 / 0.010;
        assert!((sample.bw_bps - expect).abs() < 1.0, "{}", sample.bw_bps);
        assert_eq!(sample.delivered_at_send, 0);
    }

    #[test]
    fn retransmissions_never_produce_samples() {
        let mut s = DeliverySampler::new();
        s.on_sent(0, SimTime::ZERO, false);
        s.on_loss(&[0]);
        s.on_sent(0, SimTime::from_millis(5), true);
        assert!(s
            .on_ack(0, 1, 1, true, 1500, SimTime::from_millis(9))
            .is_none());
        // Delivery still counted: the data did arrive.
        assert_eq!(s.delivered(), 1);
    }

    /// The sampler as a `BTreeMap` keyed by sequence, pruned by
    /// `split_off` on every ACK: the reference the ring-backed sampler must
    /// match sample for sample.
    #[derive(Default)]
    struct TreeSampler {
        delivered: u64,
        records: std::collections::BTreeMap<u64, SendRecord>,
    }

    impl TreeSampler {
        fn on_sent(&mut self, seq: u64, now: SimTime, retx: bool) {
            if !retx {
                let delivered = self.delivered;
                self.records.insert(
                    seq,
                    SendRecord {
                        delivered,
                        sent_at: now,
                    },
                );
            }
        }

        fn on_ack(
            &mut self,
            seq: u64,
            cum_ack: u64,
            newly_acked: u32,
            of_retx: bool,
            mss: u32,
            now: SimTime,
        ) -> Option<RateSample> {
            self.delivered += u64::from(newly_acked);
            let rec = self.records.remove(&seq);
            self.records = self.records.split_off(&cum_ack);
            let rec = rec?;
            let interval = now.saturating_since(rec.sent_at);
            if of_retx || interval.is_zero() {
                return None;
            }
            let pkts = self.delivered.saturating_sub(rec.delivered) as f64;
            Some(RateSample {
                bw_bps: pkts * mss as f64 * 8.0 / interval.as_secs_f64(),
                delivered_at_send: rec.delivered,
            })
        }

        fn on_loss(&mut self, seqs: &[u64]) {
            for seq in seqs {
                self.records.remove(seq);
            }
        }
    }

    /// Cases per randomized test: `PROPTEST_CASES`, as the workspace's
    /// `proptest!` reads it, else 256.
    fn cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    }

    /// Random sends, reordered ACKs (stale cumulative points, hole fills
    /// that jump the cumulative point, and ACKs lost on the way back
    /// included), loss declarations and retransmissions give the same
    /// sample sequence, and the same delivery count, from the sampler and
    /// from its `BTreeMap` twin.
    #[test]
    fn sampler_matches_its_btreemap_twin() {
        use pcc_simnet::rng::SimRng;
        use std::collections::BTreeSet;

        let key = |s: Option<RateSample>| s.map(|s| (s.bw_bps.to_bits(), s.delivered_at_send));
        for case in 0..cases() {
            let mut rng = SimRng::new(case);
            let (mut ring, mut tree) = (DeliverySampler::new(), TreeSampler::default());
            let mut now = SimTime::ZERO;
            let mut next_seq = 0u64;
            // Sent and not yet delivered or declared lost, with the
            // retransmission flag; declared lost and not yet resent.
            let mut flight: Vec<(u64, bool)> = Vec::new();
            let mut lost: Vec<u64> = Vec::new();
            let (mut got, mut cum_ack) = (BTreeSet::new(), 0u64);
            for _ in 0..rng.range_u64(1, 400) {
                now += SimDuration::from_micros(rng.range_u64(0, 3) * 500);
                match rng.range_u64(0, 10) {
                    0..=3 => {
                        ring.on_sent(next_seq, now, false);
                        tree.on_sent(next_seq, now, false);
                        flight.push((next_seq, false));
                        next_seq += 1;
                    }
                    4..=6 if !flight.is_empty() => {
                        let (seq, retx) =
                            flight.swap_remove(rng.range_u64(0, flight.len() as u64) as usize);
                        got.insert(seq);
                        while got.contains(&cum_ack) {
                            cum_ack += 1;
                        }
                        // Now and then an older ACK overtaken on the way
                        // back carries a stale cumulative point.
                        let cum = match rng.range_u64(0, 5) {
                            0 => cum_ack.saturating_sub(rng.range_u64(0, 8)),
                            _ => cum_ack,
                        };
                        let newly = rng.range_u64(0, 4) as u32;
                        // Some ACKs die on the way back: the record stays
                        // until a later cumulative point passes it.
                        if rng.range_u64(0, 6) > 0 {
                            let a = ring.on_ack(seq, cum, newly, retx, 1500, now);
                            let b = tree.on_ack(seq, cum, newly, retx, 1500, now);
                            assert_eq!(key(a), key(b), "case {case}: ACK of {seq}, cum {cum}");
                        }
                    }
                    7 if !flight.is_empty() => {
                        let n = rng.range_u64(1, 4).min(flight.len() as u64);
                        let seqs: Vec<u64> = (0..n)
                            .map(|_| {
                                let i = rng.range_u64(0, flight.len() as u64) as usize;
                                flight.swap_remove(i).0
                            })
                            .collect();
                        ring.on_loss(&seqs);
                        tree.on_loss(&seqs);
                        lost.extend(seqs);
                    }
                    8 if !lost.is_empty() => {
                        let seq = lost.swap_remove(rng.range_u64(0, lost.len() as u64) as usize);
                        ring.on_sent(seq, now, true);
                        tree.on_sent(seq, now, true);
                        flight.push((seq, true));
                    }
                    _ => {
                        // A duplicate or spurious ACK of anything sent,
                        // often of a sequence just below the cumulative
                        // point, whose record must already be gone.
                        let seq = match rng.coin() {
                            true => cum_ack.saturating_sub(rng.range_u64(1, 3)),
                            false => rng.range_u64(0, next_seq.max(1)),
                        };
                        let a = ring.on_ack(seq, cum_ack, 0, false, 1500, now);
                        let b = tree.on_ack(seq, cum_ack, 0, false, 1500, now);
                        assert_eq!(key(a), key(b), "case {case}: repeat ACK of {seq}");
                    }
                }
                assert_eq!(ring.delivered(), tree.delivered);
            }
        }
    }

    #[test]
    fn records_pruned_below_cum_ack() {
        let mut s = DeliverySampler::new();
        for seq in 0..100u64 {
            s.on_sent(seq, SimTime::ZERO, false);
        }
        s.on_ack(99, 100, 100, false, 1500, SimTime::from_millis(1));
        // All records at or below the cumulative ack are gone.
        assert!(s
            .on_ack(50, 100, 0, false, 1500, SimTime::from_millis(2))
            .is_none());
    }
}
