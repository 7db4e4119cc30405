//! TCP Illinois (Liu, Başar, Srikant 2008) — loss-*and*-delay-based AIMD,
//! designed for high-speed networks and evaluated by the paper as its most
//! sophisticated hardwired baseline (§2.1 calls out its collapse under
//! random loss and rapidly changing conditions).
//!
//! The additive-increase step α grows toward `α_max` when queueing delay is
//! small and shrinks toward `α_min` as delay rises; the multiplicative
//! decrease factor β does the opposite. The *event→response* wiring stays
//! hardwired: a loss still always shrinks the window.

use crate::window::{Window, WindowAlgo};
use pcc_simnet::time::SimDuration;
use pcc_transport::cc::AckEvent;

use crate::common::{slow_start, MIN_SSTHRESH};

const ALPHA_MAX: f64 = 10.0;
const ALPHA_MIN: f64 = 0.3;
const BETA_MIN: f64 = 0.125;
const BETA_MAX: f64 = 0.5;
/// Below this window, behave like Reno (tcp_illinois.c `win_thresh`).
const WIN_THRESH: f64 = 15.0;

/// TCP Illinois congestion control.
#[derive(Clone, Debug)]
pub struct Illinois {
    base_rtt: SimDuration,
    max_rtt: SimDuration,
    /// RTT samples accumulated over the current window-epoch.
    rtt_sum: f64,
    rtt_cnt: u32,
    /// Current adaptive parameters.
    alpha: f64,
    beta: f64,
    /// Acked packets since the last per-RTT parameter update.
    acked_since_update: f64,
}

impl Default for Illinois {
    fn default() -> Self {
        Illinois {
            base_rtt: SimDuration::MAX,
            max_rtt: SimDuration::ZERO,
            rtt_sum: 0.0,
            rtt_cnt: 0,
            alpha: 1.0,
            beta: BETA_MAX,
            acked_since_update: 0.0,
        }
    }
}

impl Illinois {
    /// Recompute α(d_a) and β(d_a) from the average queueing delay of the
    /// last RTT epoch at window `cwnd` (tcp_illinois.c `update_params`).
    fn update_params(&mut self, cwnd: f64) {
        if self.rtt_cnt == 0 {
            return;
        }
        let avg_rtt = self.rtt_sum / self.rtt_cnt as f64;
        self.rtt_sum = 0.0;
        self.rtt_cnt = 0;
        if cwnd < WIN_THRESH {
            self.alpha = 1.0;
            self.beta = BETA_MAX;
            return;
        }
        let base = self.base_rtt.as_secs_f64();
        let dm = (self.max_rtt.as_secs_f64() - base).max(1e-9);
        let da = (avg_rtt - base).max(0.0);
        // α: maximum when delay under d1 = dm/100, hyperbolic decay after.
        let d1 = dm / 100.0;
        self.alpha = if da <= d1 {
            ALPHA_MAX
        } else {
            let spread = ALPHA_MAX - ALPHA_MIN;
            let k1 = (dm - d1) * ALPHA_MIN * ALPHA_MAX / spread;
            let k2 = (dm - d1) * ALPHA_MIN / spread - d1;
            (k1 / (k2 + da)).clamp(ALPHA_MIN, ALPHA_MAX)
        };
        // β: minimum under d2 = dm/10, maximum above d3 = 8dm/10, linear
        // in between.
        let d2 = dm / 10.0;
        let d3 = dm * 8.0 / 10.0;
        self.beta = if da <= d2 {
            BETA_MIN
        } else if da >= d3 {
            BETA_MAX
        } else {
            (BETA_MIN * (d3 - da) + BETA_MAX * (da - d2)) / (d3 - d2)
        };
    }
}

impl WindowAlgo for Illinois {
    fn name(&self) -> &'static str {
        "illinois"
    }

    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent) {
        // Delay bookkeeping.
        if ack.rtt < self.base_rtt {
            self.base_rtt = ack.rtt;
        }
        if ack.rtt > self.max_rtt {
            self.max_rtt = ack.rtt;
        }
        self.rtt_sum += ack.rtt.as_secs_f64();
        self.rtt_cnt += 1;
        if w.cwnd < w.ssthresh {
            slow_start(&mut w.cwnd, ack.newly_acked);
            return;
        }
        // Once per window of ACKs, refresh α/β.
        self.acked_since_update += ack.newly_acked as f64;
        if self.acked_since_update >= w.cwnd {
            self.acked_since_update = 0.0;
            self.update_params(w.cwnd);
        }
        w.cwnd += self.alpha * ack.newly_acked as f64 / w.cwnd;
    }

    fn on_loss_event(&mut self, w: &mut Window) {
        w.ssthresh = ((1.0 - self.beta) * w.cwnd).max(MIN_SSTHRESH);
        w.cwnd = w.ssthresh;
    }

    fn on_rto(&mut self, cwnd: f64) -> f64 {
        ((1.0 - self.beta) * cwnd).max(MIN_SSTHRESH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ack_at, Driven};
    use pcc_simnet::time::SimTime;

    fn feed_epoch(cc: &mut Driven<Illinois>, rtt_ms: u64, n: u32) {
        for _ in 0..n {
            cc.ack(&ack_at(1, SimTime::ZERO, SimDuration::from_millis(rtt_ms)));
        }
    }

    #[test]
    fn low_delay_accelerates() {
        let mut cc = Driven::new(Illinois::default());
        cc.acks(90, 1); // slow start to 100
        cc.loss(); // enter CA
                   // Establish delay range: base 20 ms, max 100 ms.
        feed_epoch(&mut cc, 100, 1);
        feed_epoch(&mut cc, 20, 1);
        // Run epochs at the base RTT: queueing delay 0 ⇒ α → α_max.
        for _ in 0..4 {
            let n = cc.cwnd() as u32 + 1;
            feed_epoch(&mut cc, 20, n);
        }
        assert!(
            (cc.cc.alpha - ALPHA_MAX).abs() < 1e-9,
            "α at max under low delay: {}",
            cc.cc.alpha
        );
        // β should be at its minimum.
        assert!((cc.cc.beta - BETA_MIN).abs() < 1e-9, "β={}", cc.cc.beta);
    }

    #[test]
    fn high_delay_brakes() {
        let mut cc = Driven::new(Illinois::default());
        cc.acks(90, 1);
        cc.loss();
        feed_epoch(&mut cc, 20, 1); // base
        feed_epoch(&mut cc, 100, 1); // max
                                     // Run epochs near max RTT: α → α_min, β → β_max.
        for _ in 0..4 {
            let n = cc.cwnd() as u32 + 1;
            feed_epoch(&mut cc, 95, n);
        }
        assert!(
            cc.cc.alpha < 1.0,
            "α small under high delay: {}",
            cc.cc.alpha
        );
        assert!(cc.cc.beta > 0.4, "β large under high delay: {}", cc.cc.beta);
    }

    #[test]
    fn loss_uses_adaptive_beta() {
        let mut cc = Driven::new(Illinois::default());
        cc.acks(90, 1);
        cc.loss();
        feed_epoch(&mut cc, 20, 1);
        feed_epoch(&mut cc, 100, 1);
        for _ in 0..4 {
            let n = cc.cwnd() as u32 + 1;
            feed_epoch(&mut cc, 20, n);
        }
        let before = cc.cwnd();
        cc.loss();
        // β = β_min = 0.125 ⇒ cwnd shrinks by only 12.5%.
        assert!((cc.cwnd() - before * (1.0 - BETA_MIN)).abs() < 1e-6);
    }

    #[test]
    fn small_window_behaves_like_reno() {
        let mut cc = Driven::new(Illinois::default());
        // cwnd 10 < WIN_THRESH: α pinned to 1.
        cc.loss(); // cwnd 5, CA mode
        feed_epoch(&mut cc, 30, 20);
        assert_eq!(cc.cc.alpha, 1.0);
    }
}
