//! Batched measurement reports: the off-path control plane's data format.
//!
//! PCC's decisions are interval-structured (per-monitor-interval utility,
//! §2 of the paper), and CCP-style architectures generalize the point:
//! congestion logic does not need to run on every ACK. This module defines
//! [`MeasurementReport`] — everything an algorithm needs to know about one
//! measurement interval — and [`ReportAggregator`], the engine-side
//! accumulator that folds per-ACK/loss/send events into a report with *no
//! information loss on the aggregate fields* (summed bytes/packets, RTT
//! bounds, interval span; proptested below).
//!
//! The engine emits one report per `report_interval` (default 1 smoothed
//! RTT, adaptive) through [`crate::cc::CongestionControl::on_report`] when
//! an algorithm opts into [`crate::cc::ReportMode::Batched`].

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
    /// First exact RTT sample (for the latency-gradient slope).
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
            let r = ack.rtt;
            self.cur.rtt_min = Some(self.cur.rtt_min.map_or(r, |m| m.min(r)));
            self.cur.rtt_max = Some(self.cur.rtt_max.map_or(r, |m| m.max(r)));
            if self.cur.first_rtt.is_none() {
                self.cur.first_rtt = Some(r);
            }
            self.cur.last_rtt = Some(r);
            self.cur.rtt_sum_ns += r.as_nanos() as u128;
            self.cur.rtt_samples += 1;
        }
        if self.cur.first_recv.is_none() {
            self.cur.first_recv = Some(ack.recv_at);
        }
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
    }
}
