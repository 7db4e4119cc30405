//! The classic cwnd/ssthresh sub-API and its adapter onto the unified
//! [`CongestionControl`] trait.
//!
//! Every TCP baseline in this crate is, structurally, the same thing: a
//! little state machine that owns a congestion window and a slow-start
//! threshold, grows on ACKs, shrinks on loss events, and collapses on RTO.
//! [`WindowAlgo`] captures exactly that shape (it mirrors Linux's
//! `tcp_congestion_ops`), and [`Windowed`] adapts any such algorithm onto
//! the workspace-wide [`CongestionControl`] API by translating the unified
//! event vocabulary:
//!
//! * `on_ack` with `newly_acked > 0` outside recovery → [`WindowAlgo::on_ack`];
//! * `on_loss` with [`LossKind::Detected`] opening a new episode →
//!   [`WindowAlgo::on_loss_event`];
//! * `on_loss` with [`LossKind::Timeout`] → [`WindowAlgo::on_rto`];
//!
//! and pushing the resulting window through [`Ctx::set_cwnd`] after every
//! callback, floored at the crate-private `MIN_CWND` (2 packets) so the
//! engine can always keep loss detection alive.
//!
//! A paced [`Windowed`] also sets a `cwnd·MSS/SRTT` pacing rate after every
//! callback, so the engine spreads each window over one RTT instead of
//! releasing it in ack-clocked bursts: the paper's Fig. 9 "TCP pacing" is
//! any baseline with `paced=true`, not a second algorithm.

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent, LossKind};
use pcc_transport::registry::CcParams;
use pcc_transport::report::MeasurementReport;

use crate::common::MIN_CWND;

/// Everything a classic window algorithm sees on each (growth-eligible)
/// ACK.
#[derive(Clone, Copy, Debug)]
pub struct CcAck {
    /// Current time.
    pub now: SimTime,
    /// Exact RTT of the acknowledged transmission.
    pub rtt: SimDuration,
    /// Smoothed RTT.
    pub srtt: SimDuration,
    /// Minimum RTT observed (propagation estimate).
    pub min_rtt: SimDuration,
    /// Maximum RTT observed.
    pub max_rtt: SimDuration,
    /// Packets newly acknowledged by this ACK.
    pub newly_acked: u32,
    /// Packets currently in flight.
    pub in_flight: u64,
    /// Packet size in bytes.
    pub mss: u32,
}

/// A classic window-based congestion-control algorithm (cwnd + ssthresh).
///
/// Implementations own their `cwnd`/`ssthresh`; the [`Windowed`] adapter
/// reads [`WindowAlgo::cwnd`] after each event and forwards it to the
/// engine. This is a convenience sub-API for this crate's TCP baselines —
/// engines and datapaths only ever see [`CongestionControl`].
pub trait WindowAlgo: Send {
    /// Algorithm name (for reports).
    fn name(&self) -> &'static str;

    /// Process an ACK (called only outside recovery episodes).
    fn on_ack(&mut self, ack: &CcAck);

    /// A loss event begins a recovery episode (fast retransmit).
    fn on_loss_event(&mut self, now: SimTime);

    /// Retransmission timeout fired.
    fn on_rto(&mut self, now: SimTime);

    /// Current congestion window in packets.
    fn cwnd(&self) -> f64;

    /// Current slow-start threshold in packets.
    fn ssthresh(&self) -> f64;

    /// True while in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }
}

/// Adapter: any [`WindowAlgo`] as a [`CongestionControl`], optionally
/// paced.
pub struct Windowed {
    inner: Box<dyn WindowAlgo>,
    paced: bool,
    mss: u32,
    srtt: SimDuration,
}

impl Windowed {
    /// Wrap a window algorithm; `params` seeds the MSS and the RTT the
    /// pacing rate uses before the first sample.
    pub fn new(inner: Box<dyn WindowAlgo>, paced: bool, params: &CcParams) -> Self {
        Windowed {
            inner,
            paced,
            mss: params.mss,
            srtt: params.rtt_hint,
        }
    }

    /// Hand the engine the window, floored at `MIN_CWND`, and, when paced,
    /// the rate that spreads it over one smoothed RTT.
    fn push(&self, ctx: &mut Ctx) {
        let cwnd = self.inner.cwnd().max(MIN_CWND);
        ctx.set_cwnd(cwnd);
        if self.paced {
            let srtt = self.srtt.as_secs_f64().max(1e-6);
            ctx.set_rate(cwnd * self.mss as f64 * 8.0 / srtt);
        }
    }

    fn translate(ack: &AckEvent) -> CcAck {
        CcAck {
            now: ack.now,
            rtt: ack.rtt,
            srtt: ack.srtt,
            min_rtt: ack.min_rtt,
            max_rtt: ack.max_rtt,
            newly_acked: ack.newly_acked,
            in_flight: ack.in_flight,
            mss: ack.mss,
        }
    }
}

impl CongestionControl for Windowed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.push(ctx);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
        self.mss = ack.mss;
        self.srtt = ack.srtt;
        // Window growth only outside recovery episodes and only for ACKs
        // that advance the scoreboard (standard TCP behaviour).
        if ack.newly_acked > 0 && !ack.in_recovery {
            self.inner.on_ack(&Self::translate(ack));
        }
        self.push(ctx);
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
        self.mss = loss.mss;
        match loss.kind {
            LossKind::Detected => {
                if loss.new_episode {
                    self.inner.on_loss_event(loss.now);
                }
            }
            LossKind::Timeout => self.inner.on_rto(loss.now),
        }
        self.push(ctx);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        self.mss = rep.mss;
        self.srtt = rep.srtt;
        // Loss-event-driven semantics reconstructed from report deltas:
        // a timeout collapses, a fresh loss episode cuts once, and growth
        // is credited only for clean intervals (the engine flushes a
        // report the moment an episode opens, so a lossy interval never
        // smuggles its ACKs past the cut — same once-per-episode behaviour
        // as the per-ACK path).
        if rep.timeouts > 0 {
            self.inner.on_rto(rep.end);
        } else if rep.loss_events > 0 && rep.new_loss_episode {
            self.inner.on_loss_event(rep.end);
        } else if rep.acked_pkts > 0 && !rep.in_recovery {
            let ack = CcAck {
                now: rep.end,
                rtt: rep.mean_rtt(),
                srtt: rep.srtt,
                min_rtt: rep.min_rtt,
                max_rtt: rep.rtt_max.unwrap_or(rep.srtt),
                newly_acked: rep.acked_pkts.min(u32::MAX as u64) as u32,
                in_flight: rep.in_flight,
                mss: rep.mss,
            };
            self.inner.on_ack(&ack);
        }
        self.push(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewReno;
    use pcc_simnet::rng::SimRng;
    use pcc_transport::cc::Effects;

    fn ack_event(newly_acked: u32, in_recovery: bool) -> AckEvent {
        let rtt = SimDuration::from_millis(30);
        AckEvent {
            now: SimTime::ZERO,
            seq: 0,
            rtt,
            sampled: true,
            srtt: rtt,
            min_rtt: rtt,
            max_rtt: rtt,
            recv_at: SimTime::ZERO,
            probe_train: None,
            of_retx: false,
            cum_ack: 0,
            newly_acked,
            in_flight: 10,
            mss: 1500,
            in_recovery,
        }
    }

    /// New Reno behind the adapter, seeded with a 100 ms RTT hint.
    fn reno(paced: bool) -> Windowed {
        let params = CcParams::default().with_rtt_hint(SimDuration::from_millis(100));
        Windowed::new(Box::new(NewReno::new()), paced, &params)
    }

    fn drain_cwnd(fx: &mut Effects) -> Option<f64> {
        fx.drain().cwnd
    }

    #[test]
    fn adapter_grows_outside_recovery_only() {
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(drain_cwnd(&mut fx), Some(10.0), "IW10");
        cc.on_ack(
            &ack_event(5, false),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(15.0), "slow start grows");
        cc.on_ack(
            &ack_event(5, true),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(15.0), "frozen in recovery");
    }

    #[test]
    fn adapter_maps_loss_kinds() {
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        let seqs = [3u64, 4];
        let loss = LossEvent {
            now: SimTime::ZERO,
            seqs: &seqs,
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 8,
            mss: 1500,
        };
        cc.on_loss(&loss, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(drain_cwnd(&mut fx), Some(5.0), "halved on loss event");
        let repeat = LossEvent {
            new_episode: false,
            ..loss
        };
        cc.on_loss(&repeat, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(drain_cwnd(&mut fx), Some(5.0), "same episode: no re-cut");
    }

    #[test]
    fn min_cwnd_floor_enforced_after_rto() {
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        let seqs = [0u64];
        let loss = LossEvent {
            now: SimTime::ZERO,
            seqs: &seqs,
            kind: LossKind::Timeout,
            new_episode: true,
            in_flight: 0,
            mss: 1500,
        };
        cc.on_loss(&loss, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        // NewReno internally collapses to cwnd = 1 on RTO; the adapter
        // floors the window handed to the engine at MIN_CWND.
        let cwnd = drain_cwnd(&mut fx).expect("cwnd pushed");
        assert_eq!(cwnd, MIN_CWND, "floor enforced: {cwnd}");
    }

    #[test]
    fn paced_adapter_sets_both_effects() {
        let mut cc = reno(true);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let d = fx.drain();
        assert_eq!(d.cwnd, Some(10.0));
        // 10 pkts × 1500 B × 8 / 100 ms = 1.2 Mbps.
        let rate = d.rate.expect("pacing rate set");
        assert!((rate - 1.2e6).abs() < 1.0, "rate {rate}");
        // Unpaced, the same adapter sets the window only.
        let mut cc = reno(false);
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let d = fx.drain();
        assert_eq!((d.cwnd, d.rate), (Some(10.0), None));
    }

    fn report(acked: u64, loss_events: u32, new_episode: bool, timeouts: u32) -> MeasurementReport {
        let rtt = SimDuration::from_millis(30);
        MeasurementReport {
            start: SimTime::ZERO,
            end: SimTime::from_millis(30),
            acked_pkts: acked,
            acked_bytes: acked * 1500,
            loss_events,
            new_loss_episode: new_episode,
            timeouts,
            srtt: rtt,
            min_rtt: rtt,
            mss: 1500,
            ..Default::default()
        }
    }

    #[test]
    fn batched_report_reconstructs_loss_event_semantics() {
        // The same NewReno through reports: a clean 5-ack interval grows
        // exactly like 5 per-ACK deliveries; a loss-episode report cuts
        // once; a timeout report collapses to the floor.
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        cc.on_report(
            &report(5, 0, false, 0),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(15.0), "slow start via report");
        cc.on_report(
            &report(3, 1, true, 0),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(7.5), "halved on episode report");
        cc.on_report(
            &report(0, 4, true, 1),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(
            drain_cwnd(&mut fx),
            Some(MIN_CWND),
            "timeout report collapses"
        );
    }

    #[test]
    fn batched_growth_matches_per_ack_totals() {
        // 20 packets acked in one clean interval must land on the same
        // window as 4 per-ACK events of 5 — lossless aggregation end to
        // end for ack-counting algorithms.
        let mut per_ack = reno(false);
        let mut batched = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        per_ack.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        batched.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        for _ in 0..4 {
            per_ack.on_ack(
                &ack_event(5, false),
                &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
            );
        }
        let per_ack_cwnd = drain_cwnd(&mut fx).expect("cwnd");
        batched.on_report(
            &report(20, 0, false, 0),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(per_ack_cwnd));
    }
}
