//! Monitor intervals (§3.1): slicing time into continuous measurement
//! windows and aggregating per-packet fates into per-MI performance metrics.
//!
//! The controller begins a new MI whenever it changes (or re-tests) a rate;
//! every transmitted packet is attributed to the MI active at send time
//! (retransmissions to the MI that retransmitted them). ACKs and loss
//! declarations resolve packets; an MI's metrics are published once **all**
//! its packets are resolved or its deadline passes (≈1 RTT after the MI
//! ends, the paper's "SACKs for all packets sent out in MI1" moment), with
//! unresolved packets written off as lost.
//!
//! MIs complete strictly in order, so each [`MiMetrics`] carries the
//! previous MI's average RTT — which the latency-sensitive utility of
//! §4.4.1 needs.
//!
//! The seq → MI table holds one 8-byte slot per tracked sequence: the low
//! 32 bits of the MI's id and the packet's size. Two live MIs cannot share
//! those bits. Ids increase, the live MIs (the current one and those
//! awaiting resolution) span fewer than 2^32 ids, and an MI leaves no slot
//! behind once it is published: a resolved MI's slots were each taken when
//! its packets were acked or lost, and a written-off MI's are dropped by
//! `retain`.

use std::collections::VecDeque;
use std::num::NonZeroU32;

use pcc_simnet::time::{SimDuration, SimTime};

use pcc_transport::report::MeasurementReport;
use pcc_transport::SeqRing;

use crate::utility::MiMetrics;

/// One monitor interval: the report it fills, plus what only the monitor
/// knows about it.
#[derive(Clone, Debug)]
struct MiState {
    id: u64,
    target_rate_bps: f64,
    /// When unresolved packets are written off (set when the MI ends).
    deadline: SimTime,
    /// The measurement record. The monitor fills the event-sourced fields
    /// the metrics read: `start`/`end`, the sent/acked/lost sums, the RTT
    /// sum and count, and the first/last *timed* ack's arrival and RTT.
    rep: MeasurementReport,
}

impl MiState {
    fn resolved(&self) -> bool {
        self.rep.acked_pkts + self.rep.lost_pkts >= self.rep.sent_pkts
    }
}

/// What the monitor remembers about an in-flight transmission: the MI it
/// belongs to (the low 32 bits of its id; see the module docs) and the bytes
/// it actually carried (so resolution credits real sizes — a short tail
/// packet must not be credited as a full MSS). A transmission carries at
/// least one byte, which leaves `Option<SeqInfo>` its 8 bytes.
#[derive(Clone, Copy, Debug)]
struct SeqInfo {
    mi: u32,
    bytes: NonZeroU32,
}

impl SeqInfo {
    fn bytes(self) -> u64 {
        u64::from(self.bytes.get())
    }
}

/// The low 32 bits of an MI id: what a [`SeqInfo`] stores.
fn short_id(id: u64) -> u32 {
    id as u32
}

/// The §3.1 monitor: attributes packets to monitor intervals and publishes
/// per-MI metrics once each interval's packets are resolved.
#[derive(Debug, Default)]
pub struct Monitor {
    current: Option<MiState>,
    /// Ended MIs awaiting resolution, oldest first.
    pending: VecDeque<MiState>,
    /// seq → (MI id, sent bytes) of its *latest* transmission, held in the
    /// shared offset-indexed ring (ordered, so cumulative ACKs can resolve
    /// whole prefixes by popping the front).
    seq_mi: SeqRing<SeqInfo>,
    /// Average RTT of the most recently completed MI.
    last_avg_rtt: Option<SimDuration>,
    /// Minimum RTT sample ever observed (propagation estimate).
    min_rtt: Option<SimDuration>,
    /// Completed metrics not yet drained by the controller.
    ready: VecDeque<MiMetrics>,
}

impl Monitor {
    /// New monitor with no active MI.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin MI `id` at `now` with the given pacing target. Any active MI
    /// is ended first (with `deadline` applied to it — see
    /// [`Monitor::end_current`]). Ids are the caller's, and must increase.
    pub fn begin(
        &mut self,
        id: u64,
        now: SimTime,
        target_rate_bps: f64,
        prev_deadline: SimDuration,
    ) {
        self.end_current(now, prev_deadline);
        debug_assert!(self.pending.back().is_none_or(|mi| mi.id < id));
        debug_assert!(
            self.pending
                .front()
                .is_none_or(|mi| id - mi.id <= u64::from(u32::MAX)),
            "live MIs span 2^32 ids: their slots would alias"
        );
        self.current = Some(MiState {
            id,
            target_rate_bps,
            deadline: SimTime::MAX,
            rep: MeasurementReport {
                start: now,
                ..Default::default()
            },
        });
    }

    /// End the active MI at `now`; its unresolved packets will be written
    /// off as lost if still unresolved at `now + deadline_slack`.
    pub fn end_current(&mut self, now: SimTime, deadline_slack: SimDuration) {
        if let Some(mut mi) = self.current.take() {
            mi.rep.end = now;
            mi.deadline = now + deadline_slack;
            self.pending.push_back(mi);
        }
    }

    /// Attribute a transmission of `bytes` (at least one) to the active MI.
    pub fn on_sent(&mut self, seq: u64, bytes: u32) {
        let Some(cur) = self.current.as_mut() else {
            debug_assert!(false, "sent packet outside any MI");
            return;
        };
        let bytes = NonZeroU32::new(bytes).expect("a transmission carries bytes");
        cur.rep.sent_pkts += 1;
        cur.rep.sent_bytes += u64::from(bytes.get());
        let info = SeqInfo {
            mi: short_id(cur.id),
            bytes,
        };
        self.seq_mi.insert(seq, info);
    }

    /// The live MI whose id's low 32 bits are `mi`.
    fn mi_mut(&mut self, mi: u32) -> Option<&mut MiState> {
        if let Some(cur) = self.current.as_mut() {
            if short_id(cur.id) == mi {
                return Some(cur);
            }
        }
        self.pending.iter_mut().find(|m| short_id(m.id) == mi)
    }

    /// Resolve `seq` as acknowledged by its own (S)ACK, which carries a
    /// genuine RTT measurement of that transmission. `recv_at` is the
    /// receiver-side arrival timestamp echoed in the ACK (drives
    /// span-based throughput). The credited bytes are the ones recorded
    /// at send time.
    pub fn on_ack(&mut self, seq: u64, rtt: SimDuration, recv_at: SimTime) {
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
        let Some(info) = self.seq_mi.take(seq) else {
            return; // duplicate ACK or MI already force-completed
        };
        if let Some(mi) = self.mi_mut(info.mi) {
            let rep = &mut mi.rep;
            rep.acked_pkts += 1;
            rep.acked_bytes += info.bytes();
            rep.rtt_sum_ns += rtt.as_nanos() as u128;
            rep.rtt_samples += 1;
            if rep.first_recv.is_none() {
                rep.first_recv = Some(recv_at);
                rep.first_rtt = Some(rtt);
            }
            rep.last_recv = Some(recv_at);
            rep.last_rtt = Some(rtt);
        }
    }

    /// Credit a delivery proven *without* a timing measurement: the
    /// recorded bytes count, but neither an RTT sample nor an ACK-arrival
    /// span point — the cumulative ACK that proved the delivery measures
    /// a different packet's flight.
    fn credit_delivery(&mut self, info: SeqInfo) {
        if let Some(mi) = self.mi_mut(info.mi) {
            mi.rep.acked_pkts += 1;
            mi.rep.acked_bytes += info.bytes();
        }
    }

    /// Resolve every tracked sequence below `cum_ack` as delivered. The
    /// receiver's cumulative ACK proves delivery even when the selective
    /// ACK for a packet was lost on the reverse path — without this, ACK
    /// loss masquerades as data loss and inflates the measured loss rate
    /// by the reverse-path loss rate.
    ///
    /// Prefix packets are credited with the bytes they actually carried
    /// and contribute **no** RTT sample or span point: duplicating the
    /// triggering ACK's RTT across the prefix used to inflate `rtt_n`
    /// (skewing per-MI average RTT), and crediting a full MSS per prefix
    /// seq over-counted `acked_bytes` whenever a short tail packet was
    /// covered — reporting per-MI throughput above link capacity.
    pub fn on_cum_ack(&mut self, cum_ack: u64) {
        while let Some(info) = self.seq_mi.pop_below(cum_ack) {
            self.credit_delivery(info);
        }
    }

    /// Resolve `seq` as lost.
    pub fn on_loss(&mut self, seq: u64) {
        let Some(info) = self.seq_mi.take(seq) else {
            return;
        };
        if let Some(mi) = self.mi_mut(info.mi) {
            mi.rep.lost_pkts += 1;
        }
    }

    /// Publish any head-of-line MIs that are resolved (or past deadline) and
    /// return them, oldest first.
    pub fn poll(&mut self, now: SimTime) -> Vec<MiMetrics> {
        while let Some(head) = self.pending.front() {
            if head.resolved() || now >= head.deadline {
                let mut mi = self.pending.pop_front().expect("non-empty");
                // Past the deadline: write the unresolved packets off as
                // lost, and drop their seq attributions so a late ACK
                // can't corrupt a future MI's counters.
                if !mi.resolved() {
                    let id = short_id(mi.id);
                    self.seq_mi.retain(|info| info.mi != id);
                    mi.rep.lost_pkts = mi.rep.sent_pkts - mi.rep.acked_pkts;
                }
                let metrics = MiMetrics::from_report(
                    mi.id,
                    mi.target_rate_bps,
                    &mi.rep,
                    self.last_avg_rtt,
                    self.min_rtt,
                );
                self.last_avg_rtt = Some(metrics.avg_rtt);
                self.ready.push_back(metrics);
            } else {
                break;
            }
        }
        self.ready.drain(..).collect()
    }

    /// Earliest pending deadline (for timer scheduling).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.front().map(|m| m.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn mi_lifecycle_and_metrics() {
        let mut mon = Monitor::new();
        let id = 7;
        mon.begin(id, t(0), 10e6, ms(50));
        // Send 10 packets of 1500 B over a 60 ms MI.
        for seq in 0..10 {
            mon.on_sent(seq, 1500);
        }
        mon.begin(8, t(60), 12e6, ms(50)); // ends the first MI at 60 ms
        assert!(mon.poll(t(60)).is_empty(), "unresolved: nothing published");
        // Resolve: 8 acked, 2 lost.
        for seq in 0..8 {
            mon.on_ack(seq, ms(30), t(0));
        }
        mon.on_loss(8);
        mon.on_loss(9);
        let out = mon.poll(t(70));
        assert_eq!(out.len(), 1);
        let m = &out[0];
        assert_eq!(m.mi_id, id);
        assert_eq!(m.sent, 10);
        assert_eq!(m.acked, 8);
        assert_eq!(m.lost, 2);
        assert!((m.loss_rate - 0.2).abs() < 1e-12);
        // x = 15000 B * 8 / 0.060 s = 2 Mbps; T = 12000 B * 8 / 0.060 s.
        assert!((m.send_rate_bps - 2e6).abs() < 1e3);
        assert!((m.throughput_bps - 1.6e6).abs() < 1e3);
        assert_eq!(m.avg_rtt, ms(30));
    }

    #[test]
    fn deadline_writes_off_unresolved_as_lost() {
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(50));
        for seq in 0..5 {
            mon.on_sent(seq, 1500);
        }
        mon.end_current(t(60), ms(40)); // deadline at 100 ms
        mon.on_ack(0, ms(20), t(0));
        assert!(mon.poll(t(99)).is_empty(), "before deadline");
        let out = mon.poll(t(100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].acked, 1);
        assert_eq!(out[0].lost, 4, "unresolved written off");
        assert!((out[0].loss_rate - 0.8).abs() < 1e-12);
    }

    #[test]
    fn late_ack_after_writeoff_is_ignored() {
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(10));
        mon.on_sent(0, 1500);
        mon.end_current(t(10), ms(10));
        let _ = mon.poll(t(30)); // force-completed
        mon.begin(1, t(30), 1e6, ms(10));
        mon.on_sent(1, 1500);
        mon.on_ack(0, ms(25), t(0)); // late ack for dead MI: must not touch MI 2
        mon.end_current(t(40), ms(10));
        mon.on_ack(1, ms(12), t(0));
        let out = mon.poll(t(60));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].acked, 1, "only its own packet");
        assert_eq!(out[0].sent, 1);
    }

    #[test]
    fn completion_is_strictly_in_order() {
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(100));
        mon.on_sent(0, 1500);
        mon.begin(1, t(20), 1e6, ms(100)); // MI0 ends (deadline 120 ms)
        mon.on_sent(1, 1500);
        mon.end_current(t(40), ms(100)); // MI1 ends (deadline 140 ms)
                                         // MI1 resolves first, but MI0 must still publish first.
        mon.on_ack(1, ms(15), t(0));
        assert!(mon.poll(t(50)).is_empty(), "head-of-line MI0 unresolved");
        mon.on_ack(0, ms(55), t(0));
        let out = mon.poll(t(56));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].mi_id, 0);
        assert_eq!(out[1].mi_id, 1);
        // prev RTT chains through.
        assert_eq!(out[1].prev_avg_rtt, Some(out[0].avg_rtt));
    }

    #[test]
    fn retransmission_attributed_to_latest_mi() {
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(20));
        mon.on_sent(0, 1500);
        mon.on_loss(0); // lost in MI0
        mon.begin(1, t(20), 1e6, ms(20));
        mon.on_sent(0, 1500); // retransmitted in MI1
        mon.on_ack(0, ms(10), t(0));
        mon.end_current(t(40), ms(20));
        let out = mon.poll(t(40));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].lost, 1, "MI0 charged the loss");
        assert_eq!(out[0].acked, 0);
        assert_eq!(out[1].acked, 1, "MI1 credited the retx delivery");
    }

    #[test]
    fn empty_mi_publishes_zeroes() {
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(10));
        mon.begin(1, t(10), 2e6, ms(10));
        let out = mon.poll(t(10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sent, 0);
        assert_eq!(out[0].loss_rate, 0.0);
        assert_eq!(out[0].send_rate_bps, 0.0);
    }

    #[test]
    fn realign_shortens_current_mi() {
        // §3.1 optimization: a rate change mid-MI ends the MI early.
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(10));
        mon.on_sent(0, 1500);
        // Re-align after only 5 ms.
        mon.begin(1, t(5), 3e6, ms(10));
        mon.on_ack(0, ms(4), t(0));
        let out = mon.poll(t(9));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].duration, ms(5));
        // x = 1500*8 bits / 5 ms = 2.4 Mbps.
        assert!((out[0].send_rate_bps - 2.4e6).abs() < 1e3);
    }

    #[test]
    fn cum_ack_resolves_reverse_path_lost_sacks() {
        // SACKs for 0..3 die on the reverse path; the ACK of seq 4
        // carries cum_ack = 5, which must resolve the prefix as delivered
        // instead of letting the deadline write it off as lost.
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(50));
        for seq in 0..5 {
            mon.on_sent(seq, 1500);
        }
        mon.end_current(t(60), ms(40));
        mon.on_ack(4, ms(30), t(55));
        mon.on_cum_ack(5);
        let out = mon.poll(t(70));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].acked, 5);
        assert_eq!(out[0].lost, 0, "reverse-path ACK loss is not data loss");
    }

    #[test]
    fn cum_ack_does_not_duplicate_rtt_samples() {
        // Regression: prefix seqs resolved via cum_ack used to each inject
        // a copy of the triggering ACK's RTT, drowning genuine samples.
        // Here two genuine samples (20 ms, 100 ms) exist; three prefix
        // seqs resolve via the second ACK's cum_ack. avg must be 60 ms —
        // the old duplication reported (20 + 4·100)/5 = 84 ms.
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(50));
        for seq in 0..5 {
            mon.on_sent(seq, 1500);
        }
        mon.end_current(t(60), ms(60));
        mon.on_ack(0, ms(20), t(20));
        mon.on_ack(4, ms(100), t(55));
        mon.on_cum_ack(5); // resolves 1..3 as delivered, no RTT samples
        let out = mon.poll(t(70));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].acked, 5);
        assert_eq!(out[0].avg_rtt, ms(60), "only genuine samples averaged");
    }

    #[test]
    fn cum_ack_credits_actual_bytes_throughput_capped_at_capacity() {
        // A 1 Mbps link carries 9×1500 B + one 300 B tail (110 400 bits)
        // in exactly 110.4 ms. Every SACK is dropped on the reverse path;
        // one final cumulative ACK proves delivery. Credited bytes must
        // be the bytes actually sent — the old full-MSS-per-prefix credit
        // counted 15 000 B and reported 1.087× link capacity.
        let mut mon = Monitor::new();
        let capacity_bps = 1e6;
        mon.begin(0, t(0), capacity_bps, ms(50));
        for seq in 0..9 {
            mon.on_sent(seq, 1500);
        }
        mon.on_sent(9, 300);
        let wire_bits = (9 * 1500 + 300) * 8; // 110 400
        let secs = wire_bits as f64 / capacity_bps;
        mon.end_current(SimTime::from_nanos((secs * 1e9) as u64), ms(50));
        mon.on_ack(9, ms(30), t(111));
        mon.on_cum_ack(10);
        let out = mon.poll(t(200));
        assert_eq!(out.len(), 1);
        let m = &out[0];
        assert_eq!(m.acked, 10);
        assert_eq!(m.lost, 0);
        assert!(
            m.throughput_bps <= capacity_bps * 1.0001,
            "per-MI throughput ≤ link capacity: {} vs {capacity_bps}",
            m.throughput_bps
        );
        assert!(
            m.throughput_bps >= capacity_bps * 0.999,
            "and the full payload is still credited: {}",
            m.throughput_bps
        );
    }

    #[test]
    fn a_seq_slot_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Option<SeqInfo>>(), 8);
    }

    /// MI ids straddle 2^32, where the slots' 32-bit ids wrap, with every
    /// MI's packets still in flight when the next begins. Each resolution
    /// path must credit the MI that sent the packet.
    #[test]
    fn ids_across_the_32_bit_boundary_resolve_to_their_own_mi() {
        let counts = |out: Vec<MiMetrics>| -> Vec<(u64, u64, u64, u64)> {
            out.iter()
                .map(|m| (m.mi_id, m.sent, m.acked, m.lost))
                .collect()
        };
        let first = u64::from(u32::MAX) - 1;
        let mut mon = Monitor::new();
        // Five MIs of four packets each: seq / 4 is the MI's offset.
        for k in 0..5 {
            mon.begin(first + k, t(10 * k), 1e6, ms(1_000));
            for seq in 4 * k..4 * k + 4 {
                mon.on_sent(seq, 1500);
            }
        }
        mon.end_current(t(50), ms(100)); // the last MI's deadline: 150 ms
        for k in 0..5 {
            mon.on_ack(4 * k, ms(30), t(60));
            mon.on_loss(4 * k + 1);
        }
        mon.on_cum_ack(15); // 2, 3, 6, 7, 10, 11, 14
        mon.on_ack(15, ms(30), t(70));
        let resolved: Vec<_> = (first..first + 4).map(|id| (id, 4, 3, 1)).collect();
        assert_eq!(
            counts(mon.poll(t(100))),
            resolved,
            "the last MI waits for its deadline"
        );
        // 18 and 19 are written off; a late ACK of 18 credits nobody.
        assert_eq!(counts(mon.poll(t(150))), [(first + 4, 4, 1, 3)]);
        mon.begin(first + 5, t(150), 1e6, ms(10));
        mon.on_sent(20, 1500);
        mon.on_ack(18, ms(30), t(155));
        mon.on_ack(20, ms(5), t(155));
        mon.end_current(t(160), ms(10));
        assert_eq!(counts(mon.poll(t(160))), [(first + 5, 1, 1, 0)]);
    }

    #[test]
    fn conservation_sent_equals_acked_plus_lost() {
        let mut mon = Monitor::new();
        mon.begin(0, t(0), 1e6, ms(50));
        for seq in 0..100 {
            mon.on_sent(seq, 1500);
        }
        for seq in 0..60 {
            mon.on_ack(seq, ms(30), t(0));
        }
        for seq in 60..80 {
            mon.on_loss(seq);
        }
        mon.end_current(t(100), ms(10));
        let out = mon.poll(t(200)); // past deadline: 20 unresolved -> lost
        assert_eq!(out[0].sent, 100);
        assert_eq!(out[0].acked + out[0].lost, 100);
        assert_eq!(out[0].lost, 40);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pcc_transport::cc::{AckEvent, LossEvent, LossKind, SentEvent};
    use pcc_transport::report::ReportAggregator;
    use proptest::prelude::*;

    proptest! {
        /// However sends/acks/losses/boundaries interleave, every published
        /// MI satisfies acked + lost == sent and rates are finite and
        /// non-negative.
        #[test]
        fn mi_conservation(script in proptest::collection::vec(0u8..6, 1..500)) {
            let mut mon = Monitor::new();
            let mut now = SimTime::ZERO;
            let mut next_seq = 0u64;
            let mut outstanding: Vec<u64> = Vec::new();
            mon.begin(0, now, 1e6, SimDuration::from_millis(20));
            let mut next_id = 1;
            let mut published = Vec::new();
            for op in script {
                now += SimDuration::from_millis(1);
                match op {
                    0 | 1 => {
                        mon.on_sent(next_seq, 1500);
                        outstanding.push(next_seq);
                        next_seq += 1;
                    }
                    2 => {
                        if !outstanding.is_empty() {
                            let seq = outstanding.remove(0);
                            mon.on_ack(seq, SimDuration::from_millis(10), now);
                        }
                    }
                    3 => {
                        if !outstanding.is_empty() {
                            let seq = outstanding.remove(0);
                            mon.on_loss(seq);
                        }
                    }
                    4 => {
                        // Cumulative-ACK resolution of the oldest packet
                        // (delivery proven without its own SACK).
                        if !outstanding.is_empty() {
                            let seq = outstanding.remove(0);
                            mon.on_cum_ack(seq + 1);
                        }
                    }
                    _ => {
                        mon.begin(next_id, now, 2e6, SimDuration::from_millis(20));
                        next_id += 1;
                    }
                }
                published.extend(mon.poll(now));
            }
            // Flush everything.
            mon.end_current(now, SimDuration::ZERO);
            published.extend(mon.poll(now + SimDuration::from_secs(10)));
            for m in &published {
                prop_assert_eq!(m.acked + m.lost, m.sent, "conservation per MI");
                prop_assert!(m.loss_rate >= 0.0 && m.loss_rate <= 1.0);
                prop_assert!(m.send_rate_bps.is_finite() && m.send_rate_bps >= 0.0);
                prop_assert!(m.throughput_bps <= m.send_rate_bps + 1e-6,
                    "cannot deliver more than sent within an MI");
            }
            // MIs publish in id order.
            for w in published.windows(2) {
                prop_assert!(w[0].mi_id < w[1].mi_id);
            }
        }

        /// One interval, two folders: a random send/ack/loss sequence
        /// folded by a single-MI `Monitor` (per-seq attribution) and by a
        /// single-interval `ReportAggregator` (plain sums) closes to equal
        /// `MiMetrics` — one record, one formula, whoever fills it.
        #[test]
        fn monitor_and_aggregator_close_an_interval_to_equal_metrics(
            script in proptest::collection::vec((0u8..4, 0u8..=255), 1..300),
        ) {
            let mut mon = Monitor::new();
            let mut agg = ReportAggregator::default();
            mon.begin(0, SimTime::ZERO, 5e6, SimDuration::from_millis(20));
            agg.begin(SimTime::ZERO);
            let mut now = SimTime::ZERO;
            let mut outstanding = VecDeque::new();
            let lose = |mon: &mut Monitor, agg: &mut ReportAggregator, seqs: &[u64], now| {
                seqs.iter().for_each(|&seq| mon.on_loss(seq));
                agg.on_loss(&LossEvent {
                    now,
                    seqs,
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
                        outstanding.push_back(seq as u64);
                        mon.on_sent(seq as u64, 1500);
                        agg.on_sent(&SentEvent {
                            now,
                            seq: seq as u64,
                            bytes: 1500,
                            retx: false,
                            in_flight: outstanding.len() as u64,
                        });
                    }
                    (2, Some(seq)) => {
                        let rtt = SimDuration::from_micros(10_000 + mag as u64 * 50);
                        mon.on_ack(seq, rtt, now);
                        agg.on_ack(&AckEvent {
                            now,
                            seq,
                            rtt,
                            sampled: true,
                            srtt: rtt,
                            min_rtt: rtt,
                            max_rtt: rtt,
                            recv_at: now,
                            probe_train: None,
                            of_retx: false,
                            cum_ack: seq + 1,
                            newly_acked: 1,
                            in_flight: outstanding.len() as u64,
                            mss: 1500,
                            in_recovery: false,
                        });
                    }
                    (_, Some(seq)) => lose(&mut mon, &mut agg, &[seq], now),
                    (_, None) => {}
                }
            }
            // The aggregator has no deadline to write off against, so
            // nothing stays unresolved when the interval closes.
            let rest: Vec<u64> = outstanding.into_iter().collect();
            lose(&mut mon, &mut agg, &rest, now);
            now += SimDuration::from_millis(1);
            mon.end_current(now, SimDuration::ZERO);
            let rep = agg.take(now);
            let from_aggregator = MiMetrics::from_report(0, 5e6, &rep, None, rep.rtt_min);
            prop_assert_eq!(mon.poll(now), vec![from_aggregator]);
        }
    }
}
