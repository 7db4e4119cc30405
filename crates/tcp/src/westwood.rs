//! TCP Westwood+ (Mascolo et al. 2001) — bandwidth-estimation backoff,
//! designed for wireless/lossy links (Fig. 16's comparison set).
//!
//! Instead of blind halving, Westwood sets `ssthresh = BWE·RTT_min/MSS`
//! on loss, where BWE is a low-pass-filtered estimate of the delivery rate
//! — so random loss that doesn't reduce delivered bandwidth doesn't shrink
//! the operating point as much. Growth is Reno's.

use crate::window::{Window, WindowAlgo};
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::AckEvent;

use crate::common::{halved, reno_ca, slow_start, MIN_SSTHRESH};

/// Westwood's bandwidth-filter new-sample weight (Linux tcp_westwood.c:
/// 1/8).
const GAIN: f64 = 0.125;

/// TCP Westwood+ congestion control.
#[derive(Clone, Debug)]
pub struct Westwood {
    /// Filtered bandwidth estimate, packets/sec.
    bwe: f64,
    /// Bytes acked since the last bandwidth sample.
    acked_since_sample: f64,
    /// Time of the last bandwidth sample.
    last_sample_at: Option<SimTime>,
    min_rtt: SimDuration,
}

impl Default for Westwood {
    fn default() -> Self {
        Westwood {
            bwe: 0.0,
            acked_since_sample: 0.0,
            last_sample_at: None,
            min_rtt: SimDuration::MAX,
        }
    }
}

impl Westwood {
    /// Westwood+ samples bandwidth once per RTT and low-pass filters it.
    fn sample(&mut self, now: SimTime, srtt: SimDuration) {
        let Some(last) = self.last_sample_at else {
            self.last_sample_at = Some(now);
            return;
        };
        let elapsed = now.saturating_since(last);
        if elapsed < srtt.max(SimDuration::from_millis(50)) {
            return;
        }
        let sample = self.acked_since_sample / elapsed.as_secs_f64().max(1e-9);
        // 7/8 old + 1/8 new (Linux tcp_westwood.c filter).
        self.bwe = if self.bwe == 0.0 {
            sample
        } else {
            (1.0 - GAIN) * self.bwe + GAIN * sample
        };
        self.acked_since_sample = 0.0;
        self.last_sample_at = Some(now);
    }

    /// The threshold a loss or a timeout backs off to: the estimated BDP,
    /// not half the window, once there is an estimate.
    fn threshold(&self, cwnd: f64) -> f64 {
        if self.bwe > 0.0 && self.min_rtt < SimDuration::MAX {
            (self.bwe * self.min_rtt.as_secs_f64()).max(MIN_SSTHRESH)
        } else {
            halved(cwnd)
        }
    }
}

impl WindowAlgo for Westwood {
    fn name(&self) -> &'static str {
        "westwood"
    }

    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent) {
        if ack.rtt < self.min_rtt {
            self.min_rtt = ack.rtt;
        }
        self.acked_since_sample += ack.newly_acked as f64;
        self.sample(ack.now, ack.srtt);
        if w.cwnd < w.ssthresh {
            slow_start(&mut w.cwnd, ack.newly_acked);
        } else {
            reno_ca(&mut w.cwnd, ack.newly_acked);
        }
    }

    fn on_loss_event(&mut self, w: &mut Window) {
        w.ssthresh = self.threshold(w.cwnd);
        // A window already below the estimate is never raised by a loss.
        if w.cwnd > w.ssthresh {
            w.cwnd = w.ssthresh;
        }
    }

    fn on_rto(&mut self, cwnd: f64) -> f64 {
        self.threshold(cwnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ack_at, Driven};

    /// Feed a steady 100 pkt/s delivery for a while to converge the filter.
    fn feed_steady(cc: &mut Driven<Westwood>, secs: u64, pkts_per_sec: u64) -> SimTime {
        let mut now = SimTime::ZERO;
        let gap = SimDuration::from_nanos(1_000_000_000 / pkts_per_sec);
        for _ in 0..(secs * pkts_per_sec) {
            cc.ack(&ack_at(1, now, SimDuration::from_millis(50)));
            now += gap;
        }
        now
    }

    #[test]
    fn bandwidth_estimate_converges() {
        let mut cc = Driven::new(Westwood::default());
        feed_steady(&mut cc, 10, 100);
        let bwe = cc.cc.bwe;
        assert!(
            (bwe - 100.0).abs() < 15.0,
            "BWE ≈ delivery rate: {bwe} pkts/s"
        );
    }

    #[test]
    fn loss_backs_off_to_bdp_not_half() {
        let mut cc = Driven::new(Westwood::default());
        feed_steady(&mut cc, 10, 100);
        // BDP = 100 pkt/s × 50 ms = 5 packets.
        let w_before = cc.cwnd();
        cc.loss();
        assert!(
            (cc.w.ssthresh - 5.0).abs() < 1.0,
            "ssthresh ≈ BDP: {}",
            cc.w.ssthresh
        );
        assert!(cc.cwnd() <= w_before);
    }

    #[test]
    fn loss_without_estimate_halves() {
        let mut cc = Driven::new(Westwood::default());
        cc.loss();
        assert_eq!(cc.w.ssthresh, 5.0, "fallback to halving from IW10");
    }

    #[test]
    fn cwnd_below_bdp_not_raised_by_loss() {
        let mut cc = Driven::new(Westwood::default());
        feed_steady(&mut cc, 10, 1000); // BDP = 1000*0.05 = 50
        cc.rto();
        assert_eq!(cc.cwnd(), 1.0, "RTO still collapses cwnd");
        assert!(cc.w.ssthresh > 30.0, "but ssthresh holds the BDP estimate");
    }
}
