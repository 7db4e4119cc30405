//! TCP Vegas (Brakmo & Peterson 1995) — the classic delay-based algorithm,
//! included in the Fig. 16 stability/reactiveness comparison.
//!
//! Vegas estimates the backlog it keeps in the bottleneck queue as
//! `diff = cwnd · (RTT − baseRTT)/RTT` and nudges the window to hold
//! `diff` between α = 2 and β = 4 packets. Gentle and stable — but it
//! needs an accurate baseRTT and gets starved by loss-based competitors.

use crate::window::{Window, WindowAlgo};
use pcc_simnet::time::SimDuration;
use pcc_transport::cc::AckEvent;

use crate::common::{halved, INITIAL_CWND, MIN_SSTHRESH};

/// Lower backlog target α, packets (Brakmo & Peterson: 2): grow below it.
const ALPHA_PKTS: f64 = 2.0;
/// Upper backlog target β, packets (Brakmo & Peterson: 4): shrink above it.
const BETA_PKTS: f64 = 4.0;
const GAMMA_PKTS: f64 = 1.0;

/// TCP Vegas congestion control.
#[derive(Clone, Debug)]
pub struct Vegas {
    base_rtt: SimDuration,
    /// Minimum RTT seen during the current epoch.
    epoch_min_rtt: SimDuration,
    /// ACKs remaining until the epoch (≈ one RTT) completes.
    epoch_acks_left: f64,
    /// Slow-start epochs alternate growth/hold (Vegas doubles every
    /// *other* RTT).
    ss_grow_this_epoch: bool,
}

impl Default for Vegas {
    /// Vegas whose first epoch lasts the initial window.
    fn default() -> Self {
        Vegas {
            base_rtt: SimDuration::MAX,
            epoch_min_rtt: SimDuration::MAX,
            epoch_acks_left: INITIAL_CWND,
            ss_grow_this_epoch: true,
        }
    }
}

impl Vegas {
    /// Estimated queue backlog in packets at window `cwnd`.
    fn diff(&self, cwnd: f64) -> f64 {
        let rtt = self.epoch_min_rtt.as_secs_f64();
        let base = self.base_rtt.as_secs_f64();
        if rtt <= 0.0 || !rtt.is_finite() || base > rtt {
            return 0.0;
        }
        cwnd * (rtt - base) / rtt
    }

    fn end_epoch(&mut self, w: &mut Window) {
        let diff = self.diff(w.cwnd);
        if w.cwnd < w.ssthresh {
            // Slow start: grow every other epoch; leave once the backlog
            // exceeds γ.
            if diff > GAMMA_PKTS {
                w.ssthresh = w.cwnd.min(w.ssthresh);
                w.cwnd = (w.cwnd - diff).max(MIN_SSTHRESH);
            } else if self.ss_grow_this_epoch {
                w.cwnd *= 2.0;
            }
            self.ss_grow_this_epoch = !self.ss_grow_this_epoch;
        } else if diff < ALPHA_PKTS {
            w.cwnd += 1.0;
        } else if diff > BETA_PKTS {
            w.cwnd = (w.cwnd - 1.0).max(MIN_SSTHRESH);
        }
        self.epoch_min_rtt = SimDuration::MAX;
        self.epoch_acks_left = w.cwnd;
    }
}

impl WindowAlgo for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent) {
        if ack.rtt < self.base_rtt {
            self.base_rtt = ack.rtt;
        }
        if ack.rtt < self.epoch_min_rtt {
            self.epoch_min_rtt = ack.rtt;
        }
        self.epoch_acks_left -= ack.newly_acked as f64;
        if self.epoch_acks_left <= 0.0 {
            self.end_epoch(w);
        }
    }

    fn on_loss_event(&mut self, w: &mut Window) {
        w.ssthresh = halved(w.cwnd);
        w.cwnd = w.ssthresh;
        self.epoch_acks_left = w.cwnd;
        self.epoch_min_rtt = SimDuration::MAX;
    }

    fn on_rto(&mut self, cwnd: f64) -> f64 {
        // The next epoch is the collapsed window's one packet.
        self.epoch_acks_left = 1.0;
        self.epoch_min_rtt = SimDuration::MAX;
        halved(cwnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ack_at, Driven};
    use pcc_simnet::time::SimTime;

    fn vegas() -> Driven<Vegas> {
        Driven::new(Vegas::default())
    }

    /// Feed exactly one epoch's worth of ACKs so `end_epoch` fires once.
    fn epoch(cc: &mut Driven<Vegas>, rtt_ms: u64) {
        let n = cc.cc.epoch_acks_left.ceil().max(1.0) as u32;
        for _ in 0..n {
            cc.ack(&ack_at(1, SimTime::ZERO, SimDuration::from_millis(rtt_ms)));
        }
    }

    #[test]
    fn increments_when_queue_empty() {
        let mut cc = vegas();
        cc.loss(); // into CA at cwnd 5
        let w = cc.cwnd();
        // RTT equals baseRTT ⇒ diff = 0 < α ⇒ +1 per epoch.
        epoch(&mut cc, 30);
        epoch(&mut cc, 30);
        assert_eq!(cc.cwnd(), w + 2.0);
    }

    #[test]
    fn decrements_when_backlogged() {
        let mut cc = vegas();
        cc.loss();
        epoch(&mut cc, 20); // establish baseRTT = 20 ms
                            // Grow the window a bit first.
        epoch(&mut cc, 20);
        let w = cc.cwnd();
        // RTT quadruples: diff = cwnd·(60/80) > β ⇒ −1.
        epoch(&mut cc, 80);
        assert_eq!(cc.cwnd(), w - 1.0);
    }

    #[test]
    fn holds_inside_band() {
        let mut cc = vegas();
        cc.loss(); // cwnd 5
        epoch(&mut cc, 30); // baseRTT 30; diff 0 -> +1 (cwnd 6)
        let w = cc.cwnd();
        // Choose RTT so diff lands inside [α, β]: w = 6, r = 50 gives
        // diff = 6·(20/50) = 2.4 ⇒ not < α, not > β: hold.
        epoch(&mut cc, 50);
        assert_eq!(cc.cwnd(), w, "no adjustment inside [α, β]");
    }

    #[test]
    fn slow_start_exits_on_backlog() {
        let mut cc = vegas();
        // Establish base 30 ms, then queueing RTTs in slow start.
        epoch(&mut cc, 30);
        for _ in 0..10 {
            epoch(&mut cc, 60);
            if cc.cwnd() >= cc.w.ssthresh {
                break;
            }
        }
        assert!(cc.w.ssthresh < f64::MAX, "left slow start via delay signal");
    }
}
