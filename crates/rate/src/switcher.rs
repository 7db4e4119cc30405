//! `rate-then-window`: the mode-switching reference algorithm.
//!
//! Exercises the control-plane seam the off-path refactor added: an
//! algorithm that *starts* as a pure rate controller (doubling its pacing
//! rate off batched delivery feedback, BBR-startup-style) and then asks
//! the engine — via [`CtrlCtx::set_mode`] — to re-plumb it as a pure
//! window controller for steady state (Reno-style AIMD per report). The
//! engine derives the missing operating point at the switch, so the
//! transition is seamless on both datapaths (`CcSender` under the
//! simulator and under the real-UDP driver).
//!
//! Natively batched ([`ReportMode::batched_rtt`]): control decisions run
//! once per smoothed RTT off [`MeasurementReport`]s. On an engine that
//! only offers per-ACK delivery, the algorithm self-batches through its
//! own [`ReportAggregator`], so either feedback granularity produces the
//! same decision sequence.

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::{
    AckEvent, CcMode, CongestionControl, Ctx as CtrlCtx, LossEvent, LossKind, ReportMode, SentEvent,
};
use pcc_transport::registry::CcParams;
use pcc_transport::report::{MeasurementReport, ReportAggregator};

/// Floor for the steady-state window, packets.
pub const MIN_CWND_PKTS: f64 = 2.0;
/// Window installed at the switch is at least this many packets.
const SWITCH_CWND_FLOOR: f64 = 4.0;
/// Startup keeps doubling while delivery sustains at least this fraction
/// of the probed rate.
const SUSTAIN_FRACTION: f64 = 0.5;

/// Two-phase controller: rate-mode startup, window-mode steady state.
pub struct RateThenWindow {
    mss: u32,
    rtt_hint: SimDuration,
    /// Startup pacing rate, bits/sec.
    rate_bps: f64,
    /// Steady-state congestion window, packets (valid once `in_window`).
    cwnd_pkts: f64,
    /// Steady state reached: the engine has been switched to window mode.
    in_window: bool,
    /// Per-ACK compatibility path: self-batching aggregator plus the
    /// engine snapshots the next self-emitted report gets stamped with.
    agg: ReportAggregator,
    next_emit: SimTime,
    last_srtt: SimDuration,
    last_min_rtt: SimDuration,
    last_in_flight: u64,
    last_in_recovery: bool,
}

impl RateThenWindow {
    /// Build from registry construction parameters; `rate0_mbps` (spec)
    /// overrides the initial-window-derived starting rate.
    pub fn new(params: &CcParams) -> Self {
        let mss = params.mss.max(1);
        let rtt_hint = params.rtt_hint.max(SimDuration::from_millis(1));
        let rate0 = params.spec.f64("rate0_mbps").map(|m| m * 1e6).unwrap_or(
            // 10-packet initial window spread over the RTT hint.
            10.0 * mss as f64 * 8.0 / rtt_hint.as_secs_f64(),
        );
        RateThenWindow {
            mss,
            rtt_hint,
            rate_bps: rate0.max(1e5),
            cwnd_pkts: SWITCH_CWND_FLOOR,
            in_window: false,
            agg: ReportAggregator::default(),
            next_emit: SimTime::ZERO,
            last_srtt: SimDuration::ZERO,
            last_min_rtt: SimDuration::ZERO,
            last_in_flight: 0,
            last_in_recovery: false,
        }
    }

    /// True once the controller has switched to window mode.
    pub fn in_window_mode(&self) -> bool {
        self.in_window
    }

    /// Current startup rate (bits/sec) — meaningful until the switch.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Current steady-state window (packets) — meaningful after the switch.
    pub fn cwnd_pkts(&self) -> f64 {
        self.cwnd_pkts
    }

    fn srtt_or_hint(&self, rep: &MeasurementReport) -> SimDuration {
        if rep.srtt.is_zero() {
            self.rtt_hint
        } else {
            rep.srtt
        }
    }

    /// The one decision procedure, fed by either the engine's reports
    /// (batched mode) or self-batched ones (per-ACK compatibility).
    fn handle_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
        if !self.in_window {
            let delivery = rep.delivery_rate_bps();
            let lossy = rep.lost_pkts > 0 || rep.timeouts > 0;
            // Plateau is only evidence against the probed rate when the
            // sender actually transmitted near it over the interval —
            // an app/window-limited interval delivers little no matter
            // what the path could sustain.
            let span = rep.span().as_secs_f64();
            let send_rate = if span > 0.0 {
                rep.sent_bytes as f64 * 8.0 / span
            } else {
                0.0
            };
            let plateau = rep.acked_pkts > 0
                && delivery > 0.0
                && send_rate >= self.rate_bps * 0.75
                && delivery < self.rate_bps * SUSTAIN_FRACTION;
            if lossy || plateau {
                // Switch: install a window worth what the path actually
                // delivered over the last measured RTT, and tell the
                // engine to re-plumb (clear pacing, clock on ACKs).
                let srtt = self.srtt_or_hint(rep);
                let base = if delivery > 0.0 {
                    delivery
                } else {
                    self.rate_bps
                };
                self.cwnd_pkts =
                    (base * srtt.as_secs_f64() / (self.mss as f64 * 8.0)).max(SWITCH_CWND_FLOOR);
                self.in_window = true;
                ctx.set_cwnd(self.cwnd_pkts);
                ctx.set_mode(CcMode::Window);
                return;
            }
            if rep.acked_pkts > 0 {
                // The path sustained the probe: double and try again.
                self.rate_bps *= 2.0;
                ctx.set_rate(self.rate_bps);
            }
            return;
        }
        // Steady state: Reno-shaped AIMD, one decision per report.
        if rep.timeouts > 0 {
            self.cwnd_pkts = MIN_CWND_PKTS;
        } else if rep.loss_events > 0 && rep.new_loss_episode {
            self.cwnd_pkts = (self.cwnd_pkts / 2.0).max(MIN_CWND_PKTS);
        } else if rep.acked_pkts > 0 && !rep.in_recovery {
            self.cwnd_pkts += rep.acked_pkts as f64 / self.cwnd_pkts.max(1.0);
        }
        ctx.set_cwnd(self.cwnd_pkts);
    }

    /// Per-ACK compatibility: close the self-batched interval, stamp the
    /// snapshots a real engine would, and decide.
    fn self_emit(&mut self, ctx: &mut CtrlCtx) {
        let mut rep = self.agg.take(ctx.now);
        rep.srtt = self.last_srtt;
        rep.min_rtt = self.last_min_rtt;
        rep.in_flight = self.last_in_flight;
        rep.mss = self.mss;
        rep.in_recovery = self.last_in_recovery;
        let srtt = self.srtt_or_hint(&rep);
        self.next_emit = ctx.now + srtt;
        self.handle_report(&rep, ctx);
    }
}

impl CongestionControl for RateThenWindow {
    fn name(&self) -> &'static str {
        "rate-then-window"
    }

    fn report_mode(&self) -> ReportMode {
        ReportMode::batched_rtt()
    }

    fn on_start(&mut self, ctx: &mut CtrlCtx) {
        self.agg.begin(ctx.now);
        self.next_emit = ctx.now + self.rtt_hint;
        ctx.set_rate(self.rate_bps);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
        self.handle_report(rep, ctx);
    }

    // Per-ACK compatibility path (engines or configs that force PerAck):
    // feed the internal aggregator and self-emit once per smoothed RTT,
    // urgently on loss — mirroring the engine's own flush policy.

    fn on_sent(&mut self, ev: &SentEvent, _ctx: &mut CtrlCtx) {
        self.agg.on_sent(ev);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut CtrlCtx) {
        self.agg.on_ack(ack);
        self.last_srtt = ack.srtt;
        self.last_min_rtt = ack.min_rtt;
        self.last_in_flight = ack.in_flight;
        self.last_in_recovery = ack.in_recovery;
        if ctx.now >= self.next_emit {
            self.self_emit(ctx);
        }
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut CtrlCtx) {
        self.agg.on_loss(loss);
        if loss.new_episode || loss.kind == LossKind::Timeout {
            self.self_emit(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::rng::SimRng;
    use pcc_transport::cc::Effects;

    const MSS: u32 = 1500;
    const RTT: SimDuration = SimDuration::from_millis(30);

    fn cc() -> RateThenWindow {
        RateThenWindow::new(&CcParams::default().with_mss(MSS).with_rtt_hint(RTT))
    }

    /// A one-RTT report delivering `acked` packets with an
    /// interval-average rate of `acked · MSS · 8 / RTT`.
    fn report(start_ms: u64, acked: u64, lost: u64, new_episode: bool) -> MeasurementReport {
        MeasurementReport {
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(start_ms + 30),
            sent_pkts: acked + lost,
            sent_bytes: (acked + lost) * MSS as u64,
            acked_pkts: acked,
            acked_bytes: acked * MSS as u64,
            lost_pkts: lost,
            lost_bytes: lost * MSS as u64,
            loss_events: u32::from(lost > 0),
            new_loss_episode: new_episode,
            rtt_min: (acked > 0).then_some(RTT),
            rtt_max: (acked > 0).then_some(RTT),
            rtt_sum_ns: RTT.as_nanos() as u128 * acked as u128,
            rtt_samples: acked,
            srtt: RTT,
            min_rtt: RTT,
            in_flight: 1,
            mss: MSS,
            ..MeasurementReport::default()
        }
    }

    fn deliver(c: &mut RateThenWindow, rep: &MeasurementReport, fx: &mut Effects) {
        let mut rng = SimRng::new(7);
        let mut ctx = CtrlCtx::new(rep.end, &mut rng, fx);
        c.on_report(rep, &mut ctx);
    }

    #[test]
    fn startup_doubles_while_delivery_sustains() {
        let mut c = cc();
        let mut fx = Effects::default();
        let r0 = c.rate_bps();
        // Deliver exactly what the rate asks: 30 ms of r0 in packets.
        let pkts = (r0 * 0.030 / (MSS as f64 * 8.0)).ceil() as u64;
        deliver(&mut c, &report(0, pkts, 0, false), &mut fx);
        assert!(!c.in_window_mode());
        assert!((c.rate_bps() - 2.0 * r0).abs() < 1.0, "doubled");
        let d = fx.drain();
        assert_eq!(d.rate, Some(2.0 * r0));
        assert_eq!(d.mode, None, "no switch yet");
    }

    #[test]
    fn loss_switches_to_window_mode_with_a_delivery_derived_window() {
        let mut c = cc();
        let mut fx = Effects::default();
        // 40 pkts/RTT ≈ 16 Mbit/s delivered, one loss: switch.
        deliver(&mut c, &report(0, 40, 1, true), &mut fx);
        assert!(c.in_window_mode());
        let d = fx.drain();
        assert_eq!(d.mode, Some(CcMode::Window));
        let cwnd = d.cwnd.expect("window installed at the switch");
        // delivery ≈ 40 pkts over 30 ms, srtt 30 ms ⇒ ≈ 40 pkts (±1 for
        // the (n−1)-spacing estimator).
        assert!((35.0..=45.0).contains(&cwnd), "cwnd {cwnd}");
    }

    #[test]
    fn plateau_without_loss_also_switches() {
        let mut c = cc();
        let mut fx = Effects::default();
        let r0 = c.rate_bps();
        // Sent at the full probed rate but delivery stuck far below it:
        // the doubling stops and the switch fires.
        let few = (r0 * 0.030 * 0.2 / (MSS as f64 * 8.0)).ceil() as u64;
        let mut rep = report(0, few.max(2), 0, false);
        rep.sent_pkts = (r0 * 0.030 / (MSS as f64 * 8.0)).ceil() as u64;
        rep.sent_bytes = rep.sent_pkts * MSS as u64;
        deliver(&mut c, &rep, &mut fx);
        assert!(c.in_window_mode(), "plateau triggers the switch");
        assert_eq!(fx.drain().mode, Some(CcMode::Window));
    }

    #[test]
    fn app_limited_interval_does_not_read_as_a_plateau() {
        let mut c = cc();
        let mut fx = Effects::default();
        let r0 = c.rate_bps();
        // Low delivery because barely anything was *sent*: keep probing.
        deliver(&mut c, &report(0, 2, 0, false), &mut fx);
        assert!(!c.in_window_mode(), "limited interval is not evidence");
        assert!((c.rate_bps() - 2.0 * r0).abs() < 1.0);
    }

    #[test]
    fn steady_state_is_reno_shaped_per_report() {
        let mut c = cc();
        let mut fx = Effects::default();
        deliver(&mut c, &report(0, 40, 1, true), &mut fx);
        fx.drain();
        let w0 = c.cwnd_pkts();
        // Clean report: +acked/cwnd.
        deliver(&mut c, &report(30, 20, 0, false), &mut fx);
        assert!((c.cwnd_pkts() - (w0 + 20.0 / w0)).abs() < 1e-9);
        // New loss episode: halve.
        let w1 = c.cwnd_pkts();
        deliver(&mut c, &report(60, 10, 2, true), &mut fx);
        assert!((c.cwnd_pkts() - w1 / 2.0).abs() < 1e-9);
        assert_eq!(fx.drain().cwnd, Some(c.cwnd_pkts()));
    }

    #[test]
    fn per_ack_compatibility_self_batches_to_the_same_decisions() {
        let mut c = cc();
        let mut rng = SimRng::new(11);
        let mut fx = Effects::default();
        {
            let mut ctx = CtrlCtx::new(SimTime::ZERO, &mut rng, &mut fx);
            c.on_start(&mut ctx);
        }
        let r0 = fx.drain().rate.expect("startup rate");
        // One RTT of per-ACK feedback at full delivery: the self-batched
        // report must double the rate exactly once.
        let pkts = (r0 * 0.030 / (MSS as f64 * 8.0)).ceil() as u64 + 1;
        for i in 0..pkts {
            let at = SimTime::from_millis(30) + SimDuration::from_nanos(i * 200_000);
            let ack = AckEvent {
                now: at,
                seq: i,
                rtt: RTT,
                sampled: true,
                srtt: RTT,
                min_rtt: RTT,
                max_rtt: RTT,
                recv_at: at,
                probe_train: None,
                of_retx: false,
                cum_ack: i + 1,
                newly_acked: 1,
                in_flight: 1,
                mss: MSS,
                in_recovery: false,
            };
            let mut ctx = CtrlCtx::new(at, &mut rng, &mut fx);
            c.on_ack(&ack, &mut ctx);
        }
        assert!(!c.in_window_mode());
        assert!((c.rate_bps() - 2.0 * r0).abs() < 1.0, "one doubling");
        // A new loss episode flushes immediately and flips the mode.
        let seqs = [pkts + 3];
        let loss = LossEvent {
            now: SimTime::from_millis(61),
            seqs: &seqs,
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 4,
            mss: MSS,
        };
        let mut ctx = CtrlCtx::new(SimTime::from_millis(61), &mut rng, &mut fx);
        c.on_loss(&loss, &mut ctx);
        let _ = ctx;
        assert!(c.in_window_mode());
        assert_eq!(fx.drain().mode, Some(CcMode::Window));
    }
}
