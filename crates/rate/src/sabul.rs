//! SABUL/UDT-style rate control — the scientific-data-transfer baseline
//! (§4.1.1, Table 1).
//!
//! UDT's native control (Gu & Grossman) is rate-based AIMD driven by a
//! 10 ms `SYN` clock: every interval without loss feedback, the packet rate
//! gets a large additive boost whose size scales with the estimated
//! headroom to link capacity; every loss event (NAK) cuts the rate
//! multiplicatively by 1/9. The paper's measurements show the consequence:
//! "SABUL shows an unstable control loop: it aggressively overshoots the
//! network and then deeply falls back" (11.5% average loss vs PCC's 3.1%).
//!
//! Simplification vs UDT: we estimate link capacity from the peak observed
//! delivery rate rather than UDT's packet-pair estimator, and NAKs are the
//! engine's SACK-based loss detections. Both preserve the control law —
//! fixed-clock additive increase toward a capacity guess, 1/9
//! multiplicative decrease — which is what produces the oscillation the
//! paper reports.

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx as CtrlCtx, LossEvent, SentEvent};
use pcc_transport::report::MeasurementReport;

/// UDT's SYN interval: the fixed control clock.
const SYN: SimDuration = SimDuration::from_millis(10);
/// Multiplicative decrease on a loss event (UDT: rate /= 1.125).
const DECREASE: f64 = 1.0 / 1.125;
/// Starting rate, bits/sec.
const RATE0_BPS: f64 = 1e6;
/// Timer token for the SYN tick.
const TOKEN_SYN: u64 = 1;

/// SABUL/UDT-style rate controller.
pub struct Sabul {
    /// Current pacing rate, bits/sec.
    rate_bps: f64,
    /// Packet size estimate (from `on_sent`).
    pkt_bits: f64,
    /// Loss seen since the last SYN tick.
    loss_since_tick: bool,
    /// Delivery-rate estimator: bytes acked in the current window.
    acked_bytes_window: u64,
    window_start: SimTime,
    /// Peak observed delivery rate ≈ capacity estimate, bits/sec.
    capacity_est_bps: f64,
    /// Losses observed (for reports).
    losses: u64,
    started: bool,
}

impl Sabul {
    /// New controller with the UDT constants (1 Mbps start, 10 ms SYN
    /// clock, ×8/9 decrease).
    pub fn new() -> Self {
        Sabul {
            rate_bps: RATE0_BPS,
            pkt_bits: 1500.0 * 8.0,
            loss_since_tick: false,
            acked_bytes_window: 0,
            window_start: SimTime::ZERO,
            capacity_est_bps: 0.0,
            losses: 0,
            started: false,
        }
    }

    /// UDT's increase step per SYN: `inc = max(10^ceil(log10((B−C)·S)) ·
    /// 1.5e-6, 1/S)` packets, where B is estimated link capacity and C the
    /// current rate (in packets/sec), S the packet size in bytes. We keep
    /// the same log-scaled shape.
    fn increase_pkts(&self) -> f64 {
        let headroom_bps = (self.capacity_est_bps - self.rate_bps).max(0.0);
        if headroom_bps <= 0.0 {
            // At/above the believed capacity: minimal probe.
            return 1.0 / (self.pkt_bits / 8.0);
        }
        let headroom_pkts = headroom_bps / self.pkt_bits;
        // 10^ceil(log10(headroom_bits)) * beta, beta = 1.5e-6 per UDT.
        let bits = headroom_pkts * self.pkt_bits;
        let step = 10f64.powf(bits.log10().ceil()) * 1.5e-6;
        step.max(1.0 / (self.pkt_bits / 8.0))
    }

    fn tick(&mut self, ctx: &mut CtrlCtx) {
        // Refresh the capacity estimate from the delivery rate of the
        // closing window.
        let elapsed = ctx.now.saturating_since(self.window_start);
        if !elapsed.is_zero() && self.acked_bytes_window > 0 {
            let delivered = self.acked_bytes_window as f64 * 8.0 / elapsed.as_secs_f64();
            if delivered > self.capacity_est_bps {
                self.capacity_est_bps = delivered;
            }
        }
        self.acked_bytes_window = 0;
        self.window_start = ctx.now;
        if !self.loss_since_tick {
            // Additive increase: `increase_pkts` more packets per SYN.
            let add_bps = self.increase_pkts() * self.pkt_bits / SYN.as_secs_f64();
            self.rate_bps += add_bps;
            ctx.set_rate(self.rate_bps);
        }
        self.loss_since_tick = false;
        ctx.set_timer(ctx.now + SYN, TOKEN_SYN);
    }

    /// A NAK of `lost` packets: multiplicative decrease, at most once per
    /// SYN.
    fn nak(&mut self, lost: u64, ctx: &mut CtrlCtx) {
        self.losses += lost;
        if !self.loss_since_tick {
            self.rate_bps = (self.rate_bps * DECREASE).max(1e5);
            ctx.set_rate(self.rate_bps);
        }
        self.loss_since_tick = true;
    }
}

impl Default for Sabul {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Sabul {
    fn name(&self) -> &'static str {
        "sabul"
    }

    fn on_start(&mut self, ctx: &mut CtrlCtx) {
        self.started = true;
        self.window_start = ctx.now;
        ctx.set_timer(ctx.now + SYN, TOKEN_SYN);
        ctx.set_rate(self.rate_bps);
    }

    fn on_sent(&mut self, ev: &SentEvent, _ctx: &mut CtrlCtx) {
        self.pkt_bits = ev.bytes as f64 * 8.0;
    }

    fn on_ack(&mut self, ack: &AckEvent, _ctx: &mut CtrlCtx) {
        if !ack.sampled {
            // Keep the delivery-rate estimator on exact samples only.
            return;
        }
        self.acked_bytes_window += (self.pkt_bits / 8.0) as u64;
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut CtrlCtx) {
        if loss.seqs.is_empty() {
            return;
        }
        self.nak(loss.seqs.len() as u64, ctx);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
        // Batched feedback folds straight into the SYN-clocked law: acked
        // bytes feed the delivery-rate window the next tick closes, and a
        // lossy report is one NAK (the engine's urgent flush on a new loss
        // episode keeps the cut as timely as the per-ACK path's).
        if rep.mss > 0 {
            self.pkt_bits = rep.mss as f64 * 8.0;
        }
        self.acked_bytes_window += rep.acked_bytes;
        if rep.lost_pkts > 0 {
            self.nak(rep.lost_pkts, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut CtrlCtx) {
        if token == TOKEN_SYN {
            self.tick(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::rng::SimRng;
    use pcc_transport::cc::{Effects as CtrlEffects, LossKind};

    fn ctx<'a>(now_ms: u64, rng: &'a mut SimRng, fx: &'a mut CtrlEffects) -> CtrlCtx<'a> {
        CtrlCtx::new(SimTime::from_millis(now_ms), rng, fx)
    }

    fn loss_of(seqs: &[u64]) -> LossEvent<'_> {
        LossEvent {
            now: SimTime::ZERO,
            seqs,
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 0,
            mss: 1500,
        }
    }

    #[test]
    fn increases_without_loss() {
        let mut c = Sabul::new();
        let mut rng = SimRng::new(1);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut ctx(0, &mut rng, &mut fx));
        let r0 = c.rate_bps;
        // Pretend good delivery so a capacity estimate forms.
        c.capacity_est_bps = 100e6;
        for t in 1..=10 {
            c.on_timer(TOKEN_SYN, &mut ctx(t * 10, &mut rng, &mut fx));
        }
        assert!(c.rate_bps > r0, "rate grew: {} -> {}", r0, c.rate_bps);
    }

    #[test]
    fn loss_cuts_by_one_ninth() {
        let mut c = Sabul::new();
        let mut rng = SimRng::new(2);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut ctx(0, &mut rng, &mut fx));
        c.rate_bps = 90e6;
        c.on_loss(&loss_of(&[5]), &mut ctx(15, &mut rng, &mut fx));
        assert!((c.rate_bps - 80e6).abs() < 1e3, "90 → 80 Mbps (×8/9)");
    }

    #[test]
    fn at_most_one_cut_per_syn() {
        let mut c = Sabul::new();
        let mut rng = SimRng::new(3);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut ctx(0, &mut rng, &mut fx));
        c.rate_bps = 90e6;
        c.on_loss(&loss_of(&[1]), &mut ctx(15, &mut rng, &mut fx));
        c.on_loss(&loss_of(&[2, 3]), &mut ctx(16, &mut rng, &mut fx));
        assert!(
            (c.rate_bps - 80e6).abs() < 1e3,
            "second NAK in same SYN ignored"
        );
        // After the tick, a new loss cuts again.
        c.on_timer(TOKEN_SYN, &mut ctx(20, &mut rng, &mut fx));
        c.on_loss(&loss_of(&[4]), &mut ctx(21, &mut rng, &mut fx));
        assert!(c.rate_bps < 80e6);
    }

    #[test]
    fn batched_report_feeds_the_window_and_cuts_once() {
        let mut c = Sabul::new();
        let mut rng = SimRng::new(9);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut ctx(0, &mut rng, &mut fx));
        c.rate_bps = 90e6;
        let mut rep = pcc_transport::report::MeasurementReport {
            acked_pkts: 100,
            acked_bytes: 150_000,
            mss: 1500,
            ..Default::default()
        };
        c.on_report(&rep, &mut ctx(5, &mut rng, &mut fx));
        assert_eq!(c.acked_bytes_window, 150_000, "acked bytes accumulate");
        assert!((c.rate_bps - 90e6).abs() < 1.0, "clean report: no cut");
        // Two lossy reports inside the same SYN: exactly one NAK cut.
        rep.lost_pkts = 3;
        c.on_report(&rep, &mut ctx(6, &mut rng, &mut fx));
        c.on_report(&rep, &mut ctx(7, &mut rng, &mut fx));
        assert!((c.rate_bps - 80e6).abs() < 1e3, "one ×8/9 cut per SYN");
    }

    #[test]
    fn increase_steps_scale_with_headroom() {
        let mut c = Sabul::new();
        c.rate_bps = 1e6;
        c.capacity_est_bps = 100e6;
        let big = c.increase_pkts();
        c.rate_bps = 99.9e6;
        let small = c.increase_pkts();
        assert!(
            big > small,
            "far from capacity grows faster: {big} vs {small}"
        );
    }
}
