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
//! once per smoothed RTT off [`MeasurementReport`]s, and only off them —
//! the engine never refines a batched algorithm to per-ACK delivery, so
//! `on_ack` / `on_loss` are never called and do nothing.

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{
    AckEvent, CcMode, CongestionControl, Ctx as CtrlCtx, LossEvent, ReportMode,
};
use pcc_transport::registry::CcParams;
use pcc_transport::report::MeasurementReport;

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
}

impl CongestionControl for RateThenWindow {
    fn name(&self) -> &'static str {
        "rate-then-window"
    }

    fn report_mode(&self) -> ReportMode {
        ReportMode::batched_rtt()
    }

    fn on_start(&mut self, ctx: &mut CtrlCtx) {
        ctx.set_rate(self.rate_bps);
    }

    fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut CtrlCtx) {}

    fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut CtrlCtx) {}

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
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
                // With nothing delivered there is no evidence for more than
                // the floor: the probed rate is no stand-in, since a sender
                // that never filled it kept doubling it without bound.
                let srtt = self.srtt_or_hint(rep);
                self.cwnd_pkts = (delivery * srtt.as_secs_f64() / (self.mss as f64 * 8.0))
                    .max(SWITCH_CWND_FLOOR);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::rng::SimRng;
    use pcc_simnet::time::SimTime;
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
    fn a_switch_on_nothing_delivered_installs_the_floor() {
        // A sender that never fills its probe keeps doubling the rate (the
        // plateau check needs it sent), so the rate says nothing about the
        // path. A lossy report that then delivers nothing must not size
        // the window from it: 60 doublings would be ~1e19 packets, far
        // past the engine's 20 000-packet clamp.
        let mut c = cc();
        let mut fx = Effects::default();
        for i in 0..60 {
            deliver(&mut c, &report(i * 30, 1, 0, false), &mut fx);
        }
        assert!(!c.in_window_mode() && c.rate_bps() > 1e20, "runaway rate");
        deliver(&mut c, &report(60 * 30, 0, 5, true), &mut fx);
        assert!(c.in_window_mode());
        assert!(c.cwnd_pkts() <= 20_000.0, "cwnd {}", c.cwnd_pkts());
        assert_eq!(fx.drain().cwnd, Some(SWITCH_CWND_FLOOR));
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

    /// Forwards to a [`RateThenWindow`], counting its reports and noting
    /// the switch; a per-ACK callback fails the test.
    struct Watched {
        inner: RateThenWindow,
        seen: std::sync::Arc<std::sync::Mutex<(u64, bool)>>,
    }

    impl CongestionControl for Watched {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn report_mode(&self) -> ReportMode {
            self.inner.report_mode()
        }
        fn on_start(&mut self, ctx: &mut CtrlCtx) {
            self.inner.on_start(ctx);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut CtrlCtx) {
            panic!("the engine refined a batched algorithm to per-ACK delivery");
        }
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut CtrlCtx) {
            panic!("the engine refined a batched algorithm to per-ACK delivery");
        }
        fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
            self.inner.on_report(rep, ctx);
            let mut seen = pcc_simnet::sync::lock(&self.seen);
            *seen = (seen.0 + 1, self.inner.in_window_mode());
        }
    }

    #[test]
    fn a_per_ack_override_cannot_refine_the_batched_switcher() {
        // `report: Some(PerAck)` over a natively batched algorithm keeps
        // the algorithm's mode: reports keep coming (the switcher has no
        // other input) and the flow reaches its window-mode steady state.
        use pcc_simnet::prelude::*;
        use pcc_transport::{CcSender, CcSenderConfig, SackReceiver};
        let seen = std::sync::Arc::new(std::sync::Mutex::new((0, false)));
        let mut net = NetworkBuilder::new(SimConfig::default());
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(20e6, SimDuration::ZERO, 75_000),
        );
        let path = db.attach_flow(&mut net, RTT);
        let cfg = CcSenderConfig {
            report: Some(ReportMode::PerAck),
            ..Default::default()
        };
        let watched = Watched {
            inner: cc(),
            seen: std::sync::Arc::clone(&seen),
        };
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(cfg, Box::new(watched))),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(4));
        let (reports, in_window) = *pcc_simnet::sync::lock(&seen);
        assert!(reports > 50, "reports still delivered: {reports}");
        assert!(in_window, "window mode reached");
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(2), SimTime::from_secs(4));
        assert!(tput > 5.0, "and the flow moves data: {tput} Mbps");
    }
}
