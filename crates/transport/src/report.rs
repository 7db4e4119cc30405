//! Measurement reports: the data format of both report paths.
//!
//! PCC's decisions are interval-structured (per-monitor-interval utility,
//! §2 of the paper), and CCP-style architectures generalize the point:
//! congestion logic does not need to run on every ACK. This module defines
//! [`MeasurementReport`] — everything an algorithm needs to know about one
//! measurement interval — and the two engine-side folds that fill it:
//!
//! * [`ReportAggregator`] folds the events that *happen* in an interval —
//!   sends, and the ACKs and losses that arrive — into one report per
//!   smoothed RTT (re-read at each boundary), with *no
//!   information loss on the aggregate fields* (summed bytes/packets, RTT
//!   bounds, interval span; proptested below). The engine delivers them
//!   when an algorithm opts into [`crate::cc::ReportMode::Batched`].
//! * [`Epochs`] credits each packet's fate to the *send epoch* of its
//!   latest transmission (§3.1: an MI is judged by the packets sent in
//!   it), and closes an epoch once all its packets are resolved or its
//!   deadline passes, for [`crate::cc::ReportMode::Epochs`].

use std::collections::VecDeque;

use pcc_simnet::time::{SimDuration, SimTime};

use crate::cc::{AckEvent, LossEvent, LossKind, SentEvent};

/// One aggregated measurement interval, delivered to a batched algorithm.
///
/// Event-sourced fields (sent/acked/lost counts, RTT bounds, first/last
/// timestamps) are exact sums over the events of the interval; the
/// engine-stamped fields (`srtt`, `min_rtt`, `in_flight`, `cum_ack`,
/// `in_recovery`) are snapshots taken at emission time.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasurementReport {
    /// Interval start (previous report's end).
    pub start: SimTime,
    /// Interval end (emission time).
    pub end: SimTime,

    /// Data packets transmitted in the interval (including retx).
    pub sent_pkts: u64,
    /// Bytes transmitted in the interval (including retx).
    pub sent_bytes: u64,

    /// Packets newly acknowledged in the interval.
    pub acked_pkts: u64,
    /// Bytes newly acknowledged in the interval.
    pub acked_bytes: u64,

    /// Packets newly declared lost in the interval.
    pub lost_pkts: u64,
    /// Loss-event deliveries (each batch of sequences counts once).
    pub loss_events: u32,
    /// At least one loss event in the interval began a recovery episode.
    pub new_loss_episode: bool,
    /// Whole-window (RTO-style) loss declarations in the interval.
    pub timeouts: u32,

    /// Smallest exact RTT sample in the interval.
    pub rtt_min: Option<SimDuration>,
    /// Largest exact RTT sample in the interval.
    pub rtt_max: Option<SimDuration>,
    /// First exact RTT sample (for the latency utility's RTT slope).
    pub first_rtt: Option<SimDuration>,
    /// Last exact RTT sample.
    pub last_rtt: Option<SimDuration>,
    /// Sum of exact RTT samples, nanoseconds (mean = sum / samples).
    pub rtt_sum_ns: u128,
    /// Number of exact RTT samples.
    pub rtt_samples: u64,

    /// Receiver-side arrival timestamp of the interval's first ack event.
    pub first_recv: Option<SimTime>,
    /// Receiver-side arrival timestamp of the interval's last ack event.
    pub last_recv: Option<SimTime>,

    /// Engine snapshot at emission: smoothed RTT.
    pub srtt: SimDuration,
    /// Engine snapshot at emission: path minimum RTT estimate.
    pub min_rtt: SimDuration,
    /// Engine snapshot at emission: packets in flight.
    pub in_flight: u64,
    /// Engine snapshot at emission: receiver's cumulative-ack point.
    pub cum_ack: u64,
    /// Packet size in bytes.
    pub mss: u32,
    /// Engine snapshot at emission: inside a loss-recovery episode.
    pub in_recovery: bool,
}

impl MeasurementReport {
    /// Interval length.
    pub fn span(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Mean of the interval's exact RTT samples; the engine SRTT snapshot
    /// when the interval had none.
    pub fn mean_rtt(&self) -> SimDuration {
        if self.rtt_samples == 0 {
            self.srtt
        } else {
            SimDuration::from_nanos((self.rtt_sum_ns / self.rtt_samples as u128) as u64)
        }
    }

    /// Estimated delivery rate, bits/sec — the §3.1 monitor's estimator,
    /// and the only definition of it in the workspace. Prefer the
    /// receiver-side ack-arrival spacing (the true drain rate): bytes
    /// between the first and last ack arrival over their spacing. Measuring
    /// `acked_bytes / span` alone inflates above link capacity when
    /// overdriving, because acks of an overshooting interval keep arriving
    /// after it ends — "send faster into the buffer" would look like higher
    /// throughput. The whole-interval average (span floored at 1 ns) caps
    /// the spaced estimate and stands in for it when the interval has fewer
    /// than two ack arrivals.
    pub fn delivery_rate_bps(&self) -> f64 {
        let secs = self.span().as_secs_f64().max(1e-9);
        let interval_rate = self.acked_bytes as f64 * 8.0 / secs;
        match (self.first_recv, self.last_recv) {
            (Some(first), Some(last)) if self.acked_pkts >= 2 && last > first => {
                let per_pkt = self.acked_bytes as f64 / self.acked_pkts as f64;
                let spacing = last.saturating_since(first).as_secs_f64();
                let spaced = (self.acked_pkts - 1) as f64 * per_pkt * 8.0 / spacing;
                spaced.min(interval_rate)
            }
            _ => interval_rate,
        }
    }

    /// Fold one exact RTT sample into the RTT fields.
    fn add_rtt(&mut self, r: SimDuration) {
        self.rtt_min = Some(self.rtt_min.map_or(r, |m| m.min(r)));
        self.rtt_max = Some(self.rtt_max.map_or(r, |m| m.max(r)));
        self.first_rtt = self.first_rtt.or(Some(r));
        self.last_rtt = Some(r);
        self.rtt_sum_ns += r.as_nanos() as u128;
        self.rtt_samples += 1;
    }

    /// Latency gradient over the interval: `(last_rtt − first_rtt)` over
    /// the receiver-side time between those samples, seconds of RTT per
    /// second — the within-interval queue-growth signal. A standing queue
    /// hides rate overshoot from *level* comparisons (PCC's ±ε trials
    /// average the same RTT), but the slope differs by 2ε·x between them
    /// however deep the queue already is. `None` without two distinct
    /// samples.
    pub fn rtt_slope(&self) -> Option<f64> {
        let (r0, r1) = (self.first_rtt?, self.last_rtt?);
        let (t0, t1) = (self.first_recv?, self.last_recv?);
        if t1 <= t0 {
            return None;
        }
        let dt = t1.saturating_since(t0).as_secs_f64();
        Some((r1.as_secs_f64() - r0.as_secs_f64()) / dt)
    }
}

/// Engine-side accumulator folding per-event data into the current
/// [`MeasurementReport`]. Aggregation is lossless on the summed fields:
/// for any event sequence and any partition of it into intervals, the
/// summed report fields equal the one-shot totals (proptested below).
#[derive(Debug, Default)]
pub struct ReportAggregator {
    cur: MeasurementReport,
}

impl ReportAggregator {
    /// Start the first interval at `now`.
    pub fn begin(&mut self, now: SimTime) {
        self.cur = MeasurementReport {
            start: now,
            end: now,
            ..Default::default()
        };
    }

    /// Fold a transmission.
    pub fn on_sent(&mut self, ev: &SentEvent) {
        self.cur.sent_pkts += 1;
        self.cur.sent_bytes += ev.bytes as u64;
    }

    /// Fold an ACK.
    pub fn on_ack(&mut self, ack: &AckEvent) {
        let newly = ack.newly_acked as u64;
        self.cur.acked_pkts += newly;
        self.cur.acked_bytes += newly * ack.mss as u64;
        if ack.sampled {
            self.cur.add_rtt(ack.rtt);
        }
        self.cur.first_recv = self.cur.first_recv.or(Some(ack.recv_at));
        self.cur.last_recv = Some(ack.recv_at);
    }

    /// Fold a loss event.
    pub fn on_loss(&mut self, loss: &LossEvent) {
        self.cur.lost_pkts += loss.seqs.len() as u64;
        self.cur.loss_events += 1;
        if loss.new_episode {
            self.cur.new_loss_episode = true;
        }
        if loss.kind == LossKind::Timeout {
            self.cur.timeouts += 1;
        }
    }

    /// Close the current interval at `now` and return its report; the next
    /// interval begins at `now`, so consecutive reports tile the timeline.
    /// The caller stamps the engine-snapshot fields on the returned report.
    pub fn take(&mut self, now: SimTime) -> MeasurementReport {
        let mut rep = self.cur;
        rep.end = now;
        self.begin(now);
        rep
    }
}

/// One send epoch: the report it fills, and which transmissions are its.
#[derive(Clone, Debug)]
struct Epoch {
    /// A transmission whose latest send is at or after this instant, and
    /// before the next epoch's, belongs to this epoch.
    from: SimTime,
    /// When its unresolved packets are written off; `None` while open.
    deadline: Option<SimTime>,
    /// `start`/`end`, the sent/acked/lost sums, the RTT fields and the
    /// first/last *timed* ack's arrival.
    rep: MeasurementReport,
}

impl Epoch {
    fn resolved(&self) -> bool {
        self.rep.acked_pkts + self.rep.lost_pkts >= self.rep.sent_pkts
    }
}

/// The send epochs of [`crate::cc::ReportMode::Epochs`], kept by the
/// engine: no per-sequence table, because the scoreboard already holds
/// every transmission's latest send time.
///
/// The algorithm opens an epoch with [`Epochs::begin`], which closes the
/// open one. A transmission, and later its fate, is credited to the newest
/// live epoch that began at or before its send, so a retransmission
/// belongs to the epoch that retransmitted it. A fate is a selective ACK
/// (with its RTT and arrival), a delivery proven only by the cumulative
/// ACK (bytes, no timing: that ACK measured another packet's flight) or a
/// loss. A closed epoch is ready once all its packets are resolved or its
/// deadline passes. Epochs are handed out strictly oldest first, so a
/// written-off epoch's late ACKs credit nobody.
#[derive(Clone, Debug, Default)]
pub struct Epochs {
    /// Closed epochs awaiting resolution, oldest first, then the open one.
    live: VecDeque<Epoch>,
    /// When the newest transmission left.
    last_send: Option<SimTime>,
    /// The current ACK's transitions out of `Outstanding`, as (latest send,
    /// selective), held until the algorithm sees that ACK.
    staged: Vec<(SimTime, bool)>,
}

impl Epochs {
    /// Close the open epoch at `now`, to be written off `deadline_slack`
    /// later, and open the next. An epoch opened at an instant that already
    /// carried a transmission claims sends from 1 ns later: that
    /// transmission went out before the epoch began.
    pub fn begin(&mut self, now: SimTime, deadline_slack: SimDuration) {
        if let Some(open) = self.live.back_mut().filter(|e| e.deadline.is_none()) {
            open.rep.end = now;
            open.deadline = Some(now + deadline_slack);
        }
        let after_a_send = self.last_send == Some(now);
        self.live.push_back(Epoch {
            from: now + SimDuration::from_nanos(after_a_send.into()),
            deadline: None,
            rep: MeasurementReport {
                start: now,
                end: now,
                ..Default::default()
            },
        });
    }

    /// Count a transmission of `bytes` at `now`, in the epoch its fate
    /// will be credited to.
    pub fn on_sent(&mut self, now: SimTime, bytes: u32) {
        self.last_send = Some(now);
        if let Some(rep) = self.of(now) {
            rep.sent_pkts += 1;
            rep.sent_bytes += u64::from(bytes);
        }
    }

    /// The report of the live epoch a transmission sent at `sent_at` is in.
    fn of(&mut self, sent_at: SimTime) -> Option<&mut MeasurementReport> {
        let epoch = self.live.iter_mut().rev().find(|e| e.from <= sent_at)?;
        Some(&mut epoch.rep)
    }

    /// Credit the delivery of `bytes` sent at `sent_at`: with the RTT and
    /// receiver arrival of its own selective ACK, or with `None` when only
    /// a cumulative ACK proved it.
    pub fn on_acked(
        &mut self,
        sent_at: SimTime,
        bytes: u32,
        timing: Option<(SimDuration, SimTime)>,
    ) {
        let Some(rep) = self.of(sent_at) else {
            return;
        };
        rep.acked_pkts += 1;
        rep.acked_bytes += u64::from(bytes);
        if let Some((rtt, recv_at)) = timing {
            rep.add_rtt(rtt);
            rep.first_recv = rep.first_recv.or(Some(recv_at));
            rep.last_recv = Some(recv_at);
        }
    }

    /// Credit the loss of a transmission sent at `sent_at`.
    pub fn on_lost(&mut self, sent_at: SimTime) {
        if let Some(rep) = self.of(sent_at) {
            rep.lost_pkts += 1;
        }
    }

    /// Hold a delivery (see [`Epochs::credit_staged`]).
    pub fn stage(&mut self, sent_at: SimTime, selective: bool) {
        self.staged.push((sent_at, selective));
    }

    /// Credit the held deliveries of one ACK; `timing` is its RTT sample
    /// and receiver arrival, which only the selective one carries.
    pub fn credit_staged(&mut self, bytes: u32, timing: Option<(SimDuration, SimTime)>) {
        let mut staged = std::mem::take(&mut self.staged);
        for &(sent_at, selective) in &staged {
            self.on_acked(sent_at, bytes, timing.filter(|_| selective));
        }
        staged.clear();
        self.staged = staged;
    }

    /// How many epochs, oldest first, are closed and resolved or past
    /// their deadline at `now`.
    pub fn ready(&self, now: SimTime) -> usize {
        self.live
            .iter()
            .take_while(|e| e.deadline.is_some_and(|d| e.resolved() || now >= d))
            .count()
    }

    /// Hand out the oldest epoch's report, its unresolved packets written
    /// off as lost. Call it only for an epoch [`Epochs::ready`] counted.
    pub fn pop(&mut self) -> Option<MeasurementReport> {
        let mut epoch = self.live.pop_front()?;
        if !epoch.resolved() {
            epoch.rep.lost_pkts = epoch.rep.sent_pkts - epoch.rep.acked_pkts;
        }
        Some(epoch.rep)
    }

    /// How many epochs are live: the open one and the closed ones not yet
    /// handed out. An algorithm that pairs each report with the interval
    /// it opened holds exactly this many intervals.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// The oldest closed epoch's deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.live.front()?.deadline
    }

    /// Drop every epoch (an outage ended: they measured a dead path).
    pub fn clear(&mut self) {
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, seq: u64, cum: u64, newly: u32, rtt_ms: u64, sampled: bool) -> AckEvent {
        let rtt = SimDuration::from_millis(rtt_ms);
        AckEvent {
            now: SimTime::from_millis(now_ms),
            seq,
            rtt,
            sampled,
            srtt: rtt,
            min_rtt: rtt,
            max_rtt: rtt,
            recv_at: SimTime::from_millis(now_ms),
            probe_train: None,
            of_retx: false,
            cum_ack: cum,
            newly_acked: newly,
            in_flight: 5,
            mss: 1000,
            in_recovery: false,
        }
    }

    #[test]
    fn aggregates_acks_and_losses() {
        let mut agg = ReportAggregator::default();
        agg.begin(SimTime::ZERO);
        agg.on_sent(&SentEvent {
            now: SimTime::from_millis(1),
            seq: 0,
            bytes: 1000,
            retx: false,
            in_flight: 1,
        });
        agg.on_ack(&ack(10, 0, 1, 1, 30, true));
        agg.on_ack(&ack(12, 5, 1, 1, 50, true));
        let seqs = [2u64, 3];
        agg.on_loss(&LossEvent {
            now: SimTime::from_millis(15),
            seqs: &seqs,
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 2,
            mss: 1000,
        });
        let rep = agg.take(SimTime::from_millis(20));
        assert_eq!(rep.span(), SimDuration::from_millis(20));
        assert_eq!((rep.sent_pkts, rep.sent_bytes), (1, 1000));
        assert_eq!((rep.acked_pkts, rep.acked_bytes), (2, 2000));
        assert_eq!(rep.lost_pkts, 2);
        assert_eq!(rep.loss_events, 1);
        assert!(rep.new_loss_episode);
        assert_eq!(rep.timeouts, 0);
        assert_eq!(rep.rtt_min, Some(SimDuration::from_millis(30)));
        assert_eq!(rep.rtt_max, Some(SimDuration::from_millis(50)));
        assert_eq!(rep.mean_rtt(), SimDuration::from_millis(40));
        assert_eq!(
            agg.take(SimTime::from_millis(21)).acked_pkts,
            0,
            "take resets"
        );
    }

    #[test]
    fn rtt_slope_needs_two_samples() {
        let mut agg = ReportAggregator::default();
        agg.begin(SimTime::ZERO);
        agg.on_ack(&ack(10, 0, 1, 1, 30, true));
        let rep = agg.take(SimTime::from_millis(20));
        assert_eq!(rep.rtt_slope(), None);
        let mut agg = ReportAggregator::default();
        agg.begin(SimTime::ZERO);
        agg.on_ack(&ack(10, 0, 1, 1, 30, true));
        agg.on_ack(&ack(110, 1, 2, 1, 40, true));
        let rep = agg.take(SimTime::from_millis(120));
        // +10 ms of RTT over 100 ms of arrival time: slope 0.1 s/s.
        let slope = rep.rtt_slope().expect("two samples");
        assert!((slope - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_reports_defaults() {
        let mut agg = ReportAggregator::default();
        agg.begin(SimTime::from_millis(5));
        let rep = agg.take(SimTime::from_millis(35));
        assert_eq!(rep.start, SimTime::from_millis(5));
        assert_eq!(rep.end, SimTime::from_millis(35));
        assert_eq!(rep.acked_pkts, 0);
        assert_eq!(rep.delivery_rate_bps(), 0.0);
        // With no samples, mean_rtt falls back to the (caller-stamped)
        // engine SRTT — zero here because nothing stamped it.
        assert_eq!(rep.mean_rtt(), SimDuration::ZERO);
    }
}

#[cfg(test)]
mod epoch_tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// Every ready report at `now`, oldest first.
    fn poll(ep: &mut Epochs, now: SimTime) -> Vec<MeasurementReport> {
        (0..ep.ready(now)).filter_map(|_| ep.pop()).collect()
    }

    /// (sent, acked, lost) of each report.
    fn counts(reps: &[MeasurementReport]) -> Vec<(u64, u64, u64)> {
        reps.iter()
            .map(|r| (r.sent_pkts, r.acked_pkts, r.lost_pkts))
            .collect()
    }

    /// A selective ACK of a packet sent at `sent_at`, arriving at `recv_at`.
    fn sack(ep: &mut Epochs, sent_at: SimTime, rtt: SimDuration, recv_at: SimTime) {
        ep.on_acked(sent_at, 1500, Some((rtt, recv_at)));
    }

    #[test]
    fn epoch_lifecycle_and_report() {
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(50));
        // Ten 1500 B packets over a 60 ms epoch.
        (0..10).for_each(|k| ep.on_sent(t(6 * k), 1500));
        ep.begin(t(60), ms(50)); // closes the first epoch at 60 ms
        assert!(poll(&mut ep, t(60)).is_empty(), "unresolved: nothing ready");
        (0..8).for_each(|k| sack(&mut ep, t(6 * k), ms(30), t(30)));
        ep.on_lost(t(48));
        ep.on_lost(t(54));
        let out = poll(&mut ep, t(70));
        assert_eq!(counts(&out), [(10, 8, 2)]);
        let r = &out[0];
        assert_eq!((r.start, r.end), (t(0), t(60)));
        assert_eq!((r.sent_bytes, r.acked_bytes), (15_000, 12_000));
        assert_eq!(
            (r.mean_rtt(), r.rtt_min, r.rtt_samples),
            (ms(30), Some(ms(30)), 8)
        );
        // One arrival instant: T = 12 000 B · 8 / 60 ms.
        assert!((r.delivery_rate_bps() - 1.6e6).abs() < 1e3);
        assert_eq!(ep.next_deadline(), None, "the open epoch has no deadline");
    }

    #[test]
    fn a_deadline_writes_off_the_unresolved_as_lost() {
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(50));
        (0..5).for_each(|k| ep.on_sent(t(k), 1500));
        ep.begin(t(60), ms(40)); // deadline at 100 ms
        assert_eq!(ep.next_deadline(), Some(t(100)));
        sack(&mut ep, t(0), ms(20), t(20));
        ep.on_lost(t(1));
        assert!(poll(&mut ep, t(99)).is_empty(), "before the deadline");
        assert_eq!(counts(&poll(&mut ep, t(100))), [(5, 1, 4)]);
    }

    #[test]
    fn a_late_ack_after_a_write_off_credits_nobody() {
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(10));
        ep.on_sent(t(0), 1500);
        ep.begin(t(10), ms(10));
        assert_eq!(counts(&poll(&mut ep, t(20))), [(1, 0, 1)]);
        ep.on_sent(t(25), 1500);
        sack(&mut ep, t(0), ms(25), t(15)); // the dead epoch's packet
        sack(&mut ep, t(25), ms(12), t(31));
        ep.begin(t(40), ms(10));
        assert_eq!(
            counts(&poll(&mut ep, t(40))),
            [(1, 1, 0)],
            "its own packet only"
        );
    }

    #[test]
    fn epochs_are_handed_out_in_order() {
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(100));
        ep.on_sent(t(0), 1500);
        ep.begin(t(20), ms(100));
        ep.on_sent(t(20), 1500);
        ep.begin(t(40), ms(100));
        // The second resolves first, but the first must still go first.
        sack(&mut ep, t(20), ms(15), t(30));
        assert!(poll(&mut ep, t(50)).is_empty(), "the oldest is unresolved");
        sack(&mut ep, t(0), ms(55), t(50));
        let out = poll(&mut ep, t(56));
        let starts: Vec<_> = out.iter().map(|r| (r.start, r.mean_rtt())).collect();
        assert_eq!(starts, [(t(0), ms(55)), (t(20), ms(15))]);
    }

    #[test]
    fn a_retransmission_is_credited_to_its_latest_epoch() {
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(20));
        ep.on_sent(t(0), 1500);
        ep.on_lost(t(0)); // lost in the first epoch
        ep.begin(t(20), ms(20));
        ep.on_sent(t(25), 1500); // retransmitted in the second
        sack(&mut ep, t(25), ms(10), t(30));
        ep.begin(t(40), ms(20));
        let out = poll(&mut ep, t(40));
        assert_eq!(counts(&out), [(1, 0, 1), (1, 1, 0)]);
    }

    #[test]
    fn an_empty_epoch_reports_zeroes() {
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(10));
        ep.begin(t(10), ms(10));
        let out = poll(&mut ep, t(10));
        assert_eq!(counts(&out), [(0, 0, 0)]);
        assert_eq!(out[0].delivery_rate_bps(), 0.0);
    }

    #[test]
    fn a_realign_shortens_the_epoch() {
        // §3.1: a rate change mid-MI ends its epoch early.
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(10));
        ep.on_sent(t(0), 1500);
        ep.begin(t(5), ms(10));
        sack(&mut ep, t(0), ms(4), t(4));
        let out = poll(&mut ep, t(9));
        assert_eq!(out[0].span(), ms(5));
    }

    #[test]
    fn a_cumulative_ack_resolves_packets_whose_sacks_were_lost() {
        // The SACKs of four packets die on the reverse path; the fifth's
        // ACK proves them delivered cumulatively, without timing. The
        // RTT mean takes only the two genuine samples: 60 ms, where
        // copying the triggering ACK's RTT over the prefix read 84 ms.
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(50));
        (0..5).for_each(|k| ep.on_sent(t(k), 1500));
        ep.begin(t(60), ms(60));
        sack(&mut ep, t(0), ms(20), t(20));
        ep.stage(t(4), true);
        (1..4).for_each(|k| ep.stage(t(k), false));
        ep.credit_staged(1500, Some((ms(100), t(55))));
        let out = poll(&mut ep, t(70));
        assert_eq!(
            counts(&out),
            [(5, 5, 0)],
            "reverse-path loss is not data loss"
        );
        assert_eq!((out[0].mean_rtt(), out[0].rtt_samples), (ms(60), 2));
        assert_eq!(
            (out[0].first_recv, out[0].last_recv),
            (Some(t(20)), Some(t(55)))
        );
    }

    #[test]
    fn throughput_stays_within_capacity_when_only_a_cumulative_ack_survives() {
        // A 1 Mbps link carries ten 1500 B packets in 120 ms. Every SACK
        // but the last is lost; the cumulative ACK credits the rest with
        // their bytes and no arrival, so the estimate is the interval
        // average: the link rate, not above it.
        let capacity_bps = 1e6;
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(50));
        (0..10).for_each(|k| ep.on_sent(t(12 * k), 1500));
        ep.begin(t(120), ms(50));
        ep.stage(t(108), true);
        (0..9).for_each(|k| ep.stage(t(12 * k), false));
        ep.credit_staged(1500, Some((ms(30), t(125))));
        let out = poll(&mut ep, t(200));
        assert_eq!(counts(&out), [(10, 10, 0)]);
        let tput = out[0].delivery_rate_bps();
        assert!(tput <= capacity_bps * 1.0001, "{tput} above {capacity_bps}");
        assert!(
            tput >= capacity_bps * 0.999,
            "the full payload is credited: {tput}"
        );
    }

    #[test]
    fn conservation_sent_equals_acked_plus_lost() {
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(50));
        (0..100).for_each(|k| ep.on_sent(t(k), 1500));
        (0..60).for_each(|k| sack(&mut ep, t(k), ms(30), t(k + 30)));
        (60..80).for_each(|k| ep.on_lost(t(k)));
        ep.begin(t(100), ms(10));
        assert_eq!(counts(&poll(&mut ep, t(200))), [(100, 60, 40)]);
    }

    #[test]
    fn an_epoch_opened_at_a_send_instant_leaves_that_send_out() {
        // A packet sent at the instant an epoch opens, before it opened,
        // is not the new epoch's: after `clear` (a resume) it is nobody's.
        let mut ep = Epochs::default();
        ep.begin(t(0), ms(10));
        ep.on_sent(t(5), 1500);
        ep.clear();
        ep.begin(t(5), ms(10));
        ep.on_sent(t(6), 1500);
        sack(&mut ep, t(5), ms(1), t(6));
        sack(&mut ep, t(6), ms(1), t(7));
        ep.begin(t(8), ms(10));
        assert_eq!(counts(&poll(&mut ep, t(8))), [(1, 1, 0)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One scripted event: (kind, magnitude). Kinds: 0 = sent, 1 and 2 =
    /// ack, 3 = loss detected, 4 = timeout.
    fn apply(agg: &mut ReportAggregator, op: (u8, u8), at: SimTime) {
        let (kind, mag) = op;
        let n = (mag % 4) as u32 + 1;
        match kind % 5 {
            0 => agg.on_sent(&SentEvent {
                now: at,
                seq: 0,
                bytes: 1200,
                retx: mag % 3 == 0,
                in_flight: 1,
            }),
            1 | 2 => {
                let rtt = SimDuration::from_millis(20 + mag as u64);
                agg.on_ack(&AckEvent {
                    now: at,
                    seq: 0,
                    rtt,
                    sampled: mag % 4 != 0,
                    srtt: rtt,
                    min_rtt: rtt,
                    max_rtt: rtt,
                    recv_at: at,
                    probe_train: None,
                    of_retx: false,
                    cum_ack: 10,
                    newly_acked: n,
                    in_flight: 3,
                    mss: 1200,
                    in_recovery: false,
                });
            }
            _ => {
                let seqs: Vec<u64> = (0..n as u64).collect();
                agg.on_loss(&LossEvent {
                    now: at,
                    seqs: &seqs,
                    kind: if kind % 5 == 4 {
                        LossKind::Timeout
                    } else {
                        LossKind::Detected
                    },
                    new_episode: mag % 2 == 0,
                    in_flight: 1,
                    mss: 1200,
                });
            }
        }
    }

    proptest! {
        /// Lossless aggregation: for an arbitrary event sequence and an
        /// arbitrary partition of it into report intervals, the summed
        /// per-report fields equal the one-shot totals — bytes, packets,
        /// loss counters, RTT bounds and sums, and interval span.
        #[test]
        fn partitioned_reports_sum_to_one_shot_totals(
            script in proptest::collection::vec((0u8..5, 0u8..=255), 1..200),
            cuts in proptest::collection::vec(0u8..2, 1..200),
        ) {
            // One-shot: everything in a single interval.
            let mut whole = ReportAggregator::default();
            whole.begin(SimTime::ZERO);
            for (i, &op) in script.iter().enumerate() {
                apply(&mut whole, op, SimTime::from_millis(i as u64 + 1));
            }
            let end = SimTime::from_millis(script.len() as u64 + 1);
            let total = whole.take(end);

            // Partitioned: cut after event i whenever cuts[i % len].
            let mut part = ReportAggregator::default();
            part.begin(SimTime::ZERO);
            let mut reports = Vec::new();
            for (i, &op) in script.iter().enumerate() {
                let at = SimTime::from_millis(i as u64 + 1);
                apply(&mut part, op, at);
                if cuts[i % cuts.len()] == 1 {
                    reports.push(part.take(at));
                }
            }
            reports.push(part.take(end));

            // Reports tile the timeline.
            prop_assert_eq!(reports[0].start, SimTime::ZERO);
            prop_assert_eq!(reports.last().unwrap().end, end);
            for w in reports.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            let span_sum: u64 = reports.iter().map(|r| r.span().as_nanos()).sum();
            prop_assert_eq!(span_sum, total.span().as_nanos());

            // Summed counters equal the one-shot totals.
            macro_rules! sums {
                ($($f:ident: $t:ty),+) => {$(
                    let s: $t = reports.iter().map(|r| r.$f).sum();
                    prop_assert_eq!(s, total.$f, stringify!($f));
                )+};
            }
            sums!(sent_pkts: u64, sent_bytes: u64,
                  acked_pkts: u64, acked_bytes: u64, lost_pkts: u64,
                  rtt_sum_ns: u128, rtt_samples: u64);
            let loss_events: u32 = reports.iter().map(|r| r.loss_events).sum();
            prop_assert_eq!(loss_events, total.loss_events);
            let timeouts: u32 = reports.iter().map(|r| r.timeouts).sum();
            prop_assert_eq!(timeouts, total.timeouts);
            prop_assert_eq!(
                reports.iter().any(|r| r.new_loss_episode),
                total.new_loss_episode
            );

            // RTT bounds: min of mins, max of maxes.
            let min = reports.iter().filter_map(|r| r.rtt_min).min();
            let max = reports.iter().filter_map(|r| r.rtt_max).max();
            prop_assert_eq!(min, total.rtt_min);
            prop_assert_eq!(max, total.rtt_max);
            // First/last samples survive the partition.
            let first = reports.iter().find_map(|r| r.first_rtt);
            let last = reports.iter().rev().find_map(|r| r.last_rtt);
            prop_assert_eq!(first, total.first_rtt);
            prop_assert_eq!(last, total.last_rtt);
        }

        /// However sends, ACKs (selective or cumulative), losses, epoch
        /// boundaries and clears interleave, every report conserves its
        /// packets (acked + lost = sent) and reports come out in start
        /// order.
        #[test]
        fn epoch_conservation(script in proptest::collection::vec((0u8..7, 0u8..4), 1..500)) {
            let mut ep = Epochs::default();
            let mut now = SimTime::ZERO;
            let mut outstanding = std::collections::VecDeque::new();
            ep.begin(now, SimDuration::from_millis(20));
            let mut reports = Vec::new();
            for (op, step) in script {
                now += SimDuration::from_millis(u64::from(step));
                match (op, outstanding.pop_front()) {
                    (0 | 1, oldest) => {
                        outstanding.extend(oldest);
                        outstanding.push_back(now);
                        ep.on_sent(now, 1500);
                    }
                    (2, Some(at)) => ep.on_acked(at, 1500, Some((SimDuration::from_millis(10), now))),
                    (3, Some(at)) => ep.on_acked(at, 1500, None),
                    (4, Some(at)) => ep.on_lost(at),
                    (5, oldest) => {
                        outstanding.extend(oldest);
                        ep.begin(now, SimDuration::from_millis(20));
                    }
                    (_, oldest) => {
                        outstanding.extend(oldest);
                        if step == 0 {
                            ep.clear();
                            ep.begin(now, SimDuration::from_millis(20));
                        }
                    }
                }
                reports.extend((0..ep.ready(now)).filter_map(|_| ep.pop()));
            }
            ep.begin(now, SimDuration::ZERO);
            let later = now + SimDuration::from_secs(10);
            reports.extend((0..ep.ready(later)).filter_map(|_| ep.pop()));
            for r in &reports {
                prop_assert_eq!(r.acked_pkts + r.lost_pkts, r.sent_pkts, "conservation");
                prop_assert_eq!(r.acked_bytes, r.acked_pkts * 1500);
                prop_assert!(r.delivery_rate_bps().is_finite());
            }
            prop_assert!(reports.windows(2).all(|w| w[0].start <= w[1].start));
        }
    }
}
