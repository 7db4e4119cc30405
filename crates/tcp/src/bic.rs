//! TCP BIC (Xu, Harfoush, Rhee 2004) — CUBIC's predecessor, included in
//! the Fig. 16 stability comparison.
//!
//! Binary increase: below the last-known maximum the window binary-searches
//! toward it (fast far away, slow close up); above it, max probing
//! accelerates away. Constants follow Linux `tcp_bic.c`.

use crate::window::{Window, WindowAlgo};
use pcc_transport::cc::AckEvent;

use crate::common::{halved, slow_start, MIN_SSTHRESH};

/// Don't binary-search below this window; behave like Reno.
const LOW_WINDOW: f64 = 14.0;
/// Max window growth per RTT (packets).
const MAX_INCREMENT: f64 = 16.0;
/// Binary-search divisor (Linux `BICTCP_B`).
const B: f64 = 4.0;
/// Smoothing for the plateau near the old maximum.
const SMOOTH_PART: f64 = 20.0;
/// Multiplicative decrease factor (Linux: 819/1024).
const BETA: f64 = 819.0 / 1024.0;

/// TCP BIC congestion control.
#[derive(Clone, Debug, Default)]
pub struct Bic {
    /// Window right before the last reduction.
    last_max: f64,
}

impl Bic {
    /// The threshold after a loss event or a timeout, remembering the
    /// peak to search back toward (Linux `bictcp_recalc_ssthresh`, which
    /// serves both): fast convergence, then a Reno halving below
    /// `LOW_WINDOW` and a β cut above it.
    fn recalc_ssthresh(&mut self, cwnd: f64) -> f64 {
        // Fast convergence.
        if cwnd < self.last_max {
            self.last_max = cwnd * (2.0 - (1.0 - BETA)) / 2.0;
        } else {
            self.last_max = cwnd;
        }
        if cwnd < LOW_WINDOW {
            halved(cwnd)
        } else {
            (cwnd * BETA).max(MIN_SSTHRESH)
        }
    }

    /// Packets that must be ACKed for `cwnd` to grow by 1 (Linux `cnt`).
    fn cnt(&self, cwnd: f64) -> f64 {
        if cwnd < LOW_WINDOW {
            // Reno region.
            return cwnd;
        }
        if cwnd < self.last_max {
            // Binary search toward last_max.
            let dist = (self.last_max - cwnd) / B;
            if dist > MAX_INCREMENT {
                cwnd / MAX_INCREMENT
            } else if dist <= 1.0 {
                cwnd * SMOOTH_PART / B
            } else {
                cwnd / dist
            }
        } else {
            // Max probing.
            if cwnd < self.last_max + B {
                cwnd * SMOOTH_PART / B
            } else if cwnd < self.last_max + MAX_INCREMENT * (B - 1.0) {
                cwnd * (B - 1.0) / (cwnd - self.last_max)
            } else {
                cwnd / MAX_INCREMENT
            }
        }
    }
}

impl WindowAlgo for Bic {
    fn name(&self) -> &'static str {
        "bic"
    }

    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent) {
        if w.cwnd < w.ssthresh {
            slow_start(&mut w.cwnd, ack.newly_acked);
            return;
        }
        for _ in 0..ack.newly_acked {
            w.cwnd += 1.0 / self.cnt(w.cwnd);
        }
    }

    fn on_loss_event(&mut self, w: &mut Window) {
        w.ssthresh = self.recalc_ssthresh(w.cwnd);
        w.cwnd = w.ssthresh;
    }

    fn on_rto(&mut self, cwnd: f64) -> f64 {
        self.recalc_ssthresh(cwnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Driven;

    #[test]
    fn gentle_decrease_above_low_window() {
        let mut cc = Driven::new(Bic::default());
        cc.acks(90, 1); // 100
        let before = cc.cwnd();
        cc.loss();
        assert!((cc.cwnd() - before * BETA).abs() < 1e-9, "~20% cut only");
    }

    #[test]
    fn reno_halving_below_low_window() {
        let mut cc = Driven::new(Bic::default());
        cc.loss(); // from 10 (< LOW_WINDOW): halve
        assert_eq!(cc.cwnd(), 5.0);
    }

    #[test]
    fn a_timeout_shares_the_loss_threshold() {
        // Below LOW_WINDOW a timeout halves, as a loss does, rather than
        // taking the β cut; the window itself collapses to one packet.
        let mut cc = Driven::new(Bic::default());
        cc.rto(); // from 10
        assert_eq!(cc.w.ssthresh, 5.0);
        assert_eq!(cc.cwnd(), 1.0);
        // Above it, a timeout under the remembered peak converges fast.
        let mut cc = Driven::new(Bic::default());
        cc.acks(90, 1); // 100
        cc.loss(); // last_max 100, cwnd 79.98
        let cwnd = cc.cwnd();
        cc.rto();
        assert_eq!(cc.w.ssthresh, cwnd * BETA);
        assert!((cc.cc.last_max - cwnd * (1.0 + BETA) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn binary_search_fast_when_far_slow_when_near() {
        let mut cc = Driven::new(Bic::default());
        cc.acks(190, 1); // cwnd 200
        cc.loss(); // last_max=200, cwnd=159.9
        let far_cnt = cc.cc.cnt(cc.w.cwnd);
        // Grow until near last_max.
        while cc.cwnd() < cc.cc.last_max - 2.0 {
            cc.acks(1, 1);
        }
        let near_cnt = cc.cc.cnt(cc.w.cwnd);
        assert!(
            near_cnt > far_cnt,
            "growth slows near the old max: cnt {near_cnt} vs {far_cnt}"
        );
    }

    #[test]
    fn max_probing_accelerates_past_old_peak() {
        let mut cc = Driven::new(Bic::default());
        cc.acks(90, 1); // 100
        cc.loss(); // last_max 100
                   // Push well past the old max.
        while cc.cwnd() < cc.cc.last_max + 2.0 {
            cc.acks(1, 1);
        }
        let just_past = cc.cc.cnt(cc.w.cwnd);
        while cc.cwnd() < cc.cc.last_max + MAX_INCREMENT * (B - 1.0) + 5.0 {
            cc.acks(1, 1);
        }
        let far_past = cc.cc.cnt(cc.w.cwnd);
        assert!(
            far_past < just_past,
            "probing accelerates with distance: {far_past} vs {just_past}"
        );
    }
}
