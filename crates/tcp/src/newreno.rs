//! TCP New Reno (RFC 5681/6582): the textbook AIMD baseline.
//!
//! Slow start doubles per RTT; congestion avoidance adds one packet per
//! RTT; a loss event halves the window. This is the paper's canonical
//! example of a hardwired event→response mapping: "a packet loss halves the
//! congestion window size" regardless of why the loss happened.

use crate::window::{Window, WindowAlgo};
use pcc_transport::cc::AckEvent;

use crate::common::{halved, reno_ca, slow_start};

/// New Reno congestion control: no state beyond the window.
#[derive(Clone, Copy, Debug)]
pub struct NewReno;

impl WindowAlgo for NewReno {
    fn name(&self) -> &'static str {
        "newreno"
    }

    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent) {
        if w.cwnd < w.ssthresh {
            slow_start(&mut w.cwnd, ack.newly_acked);
        } else {
            reno_ca(&mut w.cwnd, ack.newly_acked);
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
    use crate::common::MIN_SSTHRESH;
    use crate::testutil::{ack, Driven};

    #[test]
    fn slow_start_then_ca() {
        let mut cc = Driven::new(NewReno);
        cc.acks(10, 1);
        assert_eq!(cc.cwnd(), 20.0, "doubled in slow start");
        cc.loss();
        assert_eq!(cc.cwnd(), 10.0, "halved");
        assert_eq!(cc.w.ssthresh, 10.0);
        cc.ack(&ack(1));
        assert!((cc.cwnd() - 10.1).abs() < 1e-9, "CA adds 1/cwnd");
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut cc = Driven::new(NewReno);
        cc.acks(30, 1);
        cc.rto();
        assert_eq!(cc.cwnd(), 1.0);
        assert_eq!(cc.w.ssthresh, 20.0);
    }

    #[test]
    fn repeated_losses_floor_at_min() {
        let mut cc = Driven::new(NewReno);
        for _ in 0..20 {
            cc.loss();
        }
        assert_eq!(cc.cwnd(), MIN_SSTHRESH);
    }
}
