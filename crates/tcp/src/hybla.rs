//! TCP Hybla (Caini & Firrincieli 2004) — the satellite-link baseline.
//!
//! Hybla normalizes window growth to a reference RTT (25 ms): a flow with
//! RTT ρ times the reference grows `2^ρ − 1` per ACK in slow start and
//! `ρ²/cwnd` per ACK in congestion avoidance, so long-RTT (GEO satellite)
//! flows ramp as fast as terrestrial ones. The loss response stays Reno's
//! halving — which is exactly why it still collapses under the random loss
//! of a real satellite link (Fig. 6: 17× below PCC).

use crate::window::{Window, WindowAlgo};
use pcc_simnet::time::SimDuration;
use pcc_transport::cc::AckEvent;

use crate::common::halved;

/// Hybla's reference RTT (25 ms, per the paper and Linux tcp_hybla.c).
const RTT0: SimDuration = SimDuration::from_millis(25);

/// TCP Hybla congestion control.
#[derive(Clone, Debug)]
pub struct Hybla {
    /// ρ = max(RTT/RTT₀, 1).
    rho: f64,
}

impl Default for Hybla {
    fn default() -> Self {
        Hybla { rho: 1.0 }
    }
}

impl Hybla {
    fn update_rho(&mut self, srtt: SimDuration) {
        self.rho = (srtt.as_secs_f64() / RTT0.as_secs_f64()).max(1.0);
    }
}

impl WindowAlgo for Hybla {
    fn name(&self) -> &'static str {
        "hybla"
    }

    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent) {
        self.update_rho(ack.srtt);
        if w.cwnd < w.ssthresh {
            // cwnd += 2^ρ − 1 per ACK; like Linux tcp_hybla.c, the slow-
            // start exponent is clamped (ρ ≤ 16) or the window goes
            // astronomical within a single ACK on GEO-satellite RTTs.
            w.cwnd += (2f64.powf(self.rho.min(16.0)) - 1.0) * ack.newly_acked as f64;
        } else {
            // cwnd += ρ²/cwnd per ACK.
            w.cwnd += self.rho * self.rho * ack.newly_acked as f64 / w.cwnd;
        }
    }

    fn on_loss_event(&mut self, w: &mut Window) {
        w.ssthresh = halved(w.cwnd);
        w.cwnd = w.ssthresh;
    }

    fn on_rto(&mut self, cwnd: f64) -> f64 {
        halved(cwnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ack_at, Driven};
    use pcc_simnet::time::SimTime;

    #[test]
    fn short_rtt_behaves_like_reno() {
        let mut cc = Driven::new(Hybla::default());
        // 25 ms RTT ⇒ ρ = 1 ⇒ slow start +1/ack, CA +1/cwnd.
        cc.ack(&ack_at(1, SimTime::ZERO, SimDuration::from_millis(25)));
        assert!((cc.cc.rho - 1.0).abs() < 1e-9);
        assert_eq!(cc.cwnd(), 11.0);
    }

    #[test]
    fn rho_floors_at_one() {
        let mut cc = Driven::new(Hybla::default());
        cc.ack(&ack_at(1, SimTime::ZERO, SimDuration::from_millis(5)));
        assert_eq!(cc.cc.rho, 1.0, "sub-reference RTT does not slow growth");
    }

    #[test]
    fn long_rtt_ramps_aggressively() {
        // 800 ms satellite RTT ⇒ ρ = 32 ⇒ slow-start adds 2^32−1... in
        // practice cwnd explodes per ACK, compensating the slow ACK clock.
        let mut cc = Driven::new(Hybla::default());
        let before = cc.cwnd();
        cc.ack(&ack_at(1, SimTime::ZERO, SimDuration::from_millis(250)));
        // ρ = 10 ⇒ +1023 per ack.
        assert!((cc.cc.rho - 10.0).abs() < 1e-9);
        assert!((cc.cwnd() - (before + 1023.0)).abs() < 1e-6);
    }

    #[test]
    fn ca_growth_scales_with_rho_squared() {
        let mut cc = Driven::new(Hybla::default());
        cc.loss(); // force CA (cwnd 5, ssthresh 5)
        let w = cc.cwnd();
        cc.ack(&ack_at(1, SimTime::ZERO, SimDuration::from_millis(50)));
        // ρ = 2 ⇒ +4/cwnd.
        assert!((cc.cwnd() - (w + 4.0 / w)).abs() < 1e-9);
    }

    #[test]
    fn loss_still_halves() {
        let mut cc = Driven::new(Hybla::default());
        for _ in 0..5 {
            cc.ack(&ack_at(1, SimTime::ZERO, SimDuration::from_millis(800)));
        }
        let before = cc.cwnd();
        cc.loss();
        assert!((cc.cwnd() - before / 2.0).abs() < 1e-6, "hardwired halving");
    }
}
