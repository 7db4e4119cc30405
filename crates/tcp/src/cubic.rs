//! TCP CUBIC (Ha, Rhee, Xu 2008; RFC 8312) — the Linux default since
//! 2.6.19 and the paper's primary Internet baseline.
//!
//! Window growth is a cubic function of wall-clock time since the last
//! loss, `W(t) = C(t−K)³ + W_max`, making growth RTT-independent (the
//! motivation for Fig. 8's RTT-fairness comparison), with a TCP-friendly
//! region that keeps it no slower than Reno on short paths.

use crate::window::{Window, WindowAlgo};
use pcc_simnet::time::SimTime;
use pcc_transport::cc::AckEvent;

use crate::common::{slow_start, MIN_SSTHRESH};

/// CUBIC's scaling constant (RFC 8312: 0.4).
const C: f64 = 0.4;
/// Multiplicative decrease factor (RFC 8312: β = 0.7).
const BETA: f64 = 0.7;

/// CUBIC congestion control.
#[derive(Clone, Debug)]
pub struct Cubic {
    /// Window size just before the last reduction.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Time offset of the cubic's inflection point.
    k: f64,
    /// Fast-convergence memory of the previous `w_max`.
    w_last_max: f64,
}

impl Default for Cubic {
    fn default() -> Self {
        Cubic {
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_last_max: 0.0,
        }
    }
}

impl Cubic {
    fn enter_epoch(&mut self, now: SimTime, cwnd: f64) {
        self.epoch_start = Some(now);
        self.k = if cwnd < self.w_max {
            ((self.w_max - cwnd) / C).cbrt()
        } else {
            0.0
        };
    }

    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }
}

impl WindowAlgo for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent) {
        if w.cwnd < w.ssthresh {
            slow_start(&mut w.cwnd, ack.newly_acked);
            return;
        }
        if self.epoch_start.is_none() {
            self.enter_epoch(ack.now, w.cwnd);
        }
        let t = ack
            .now
            .saturating_since(self.epoch_start.expect("set above"))
            .as_secs_f64();
        let rtt = ack.srtt.as_secs_f64();
        // Target one RTT ahead on the cubic curve.
        let target = self.w_cubic(t + rtt);
        // TCP-friendly region (RFC 8312 §4.2): CUBIC must not be slower
        // than standard AIMD with its β: W_est = W_max·β + [3(1−β)/(1+β)]·(t/RTT).
        let w_est = self.w_max * BETA + (3.0 * (1.0 - BETA) / (1.0 + BETA)) * (t / rtt.max(1e-6));
        for _ in 0..ack.newly_acked {
            let goal = target.max(w_est);
            if goal > w.cwnd {
                w.cwnd += (goal - w.cwnd) / w.cwnd;
            } else {
                // Max-probing plateau: creep forward slowly.
                w.cwnd += 0.01 / w.cwnd;
            }
        }
    }

    fn on_loss_event(&mut self, w: &mut Window) {
        // Fast convergence (RFC 8312 §4.6): if the loss came below the
        // previous W_max, release bandwidth by remembering a smaller peak.
        if w.cwnd < self.w_last_max {
            self.w_max = w.cwnd * (2.0 - BETA) / 2.0;
        } else {
            self.w_max = w.cwnd;
        }
        self.w_last_max = w.cwnd;
        w.ssthresh = (w.cwnd * BETA).max(MIN_SSTHRESH);
        w.cwnd = w.ssthresh;
        self.epoch_start = None;
    }

    fn on_rto(&mut self, cwnd: f64) -> f64 {
        self.w_max = cwnd;
        self.w_last_max = cwnd;
        self.epoch_start = None;
        (cwnd * BETA).max(MIN_SSTHRESH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ack_at, Driven};
    use pcc_simnet::time::SimDuration;

    #[test]
    fn loss_reduces_by_beta() {
        let mut cc = Driven::new(Cubic::default());
        cc.acks(90, 1); // slow start to 100
        let before = cc.cwnd();
        cc.loss();
        assert!((cc.cwnd() - before * BETA).abs() < 1e-9);
    }

    #[test]
    fn concave_recovery_toward_w_max() {
        let mut cc = Driven::new(Cubic::default());
        cc.acks(90, 1);
        let w_before_loss = cc.cwnd();
        cc.loss();
        // Drive ACKs over several seconds: cwnd must approach W_max and
        // plateau near it (concave region).
        let rtt = SimDuration::from_millis(30);
        let mut now = SimTime::from_secs(1);
        let mut last = cc.cwnd();
        let mut grew = 0;
        for _ in 0..200 {
            now = cc.acks_timed(10, 1, now, SimDuration::from_millis(3), rtt);
            if cc.cwnd() > last {
                grew += 1;
            }
            last = cc.cwnd();
        }
        assert!(grew > 100, "cwnd keeps growing");
        assert!(
            cc.cwnd() > w_before_loss * 0.9,
            "recovers toward W_max: {} vs {}",
            cc.cwnd(),
            w_before_loss
        );
    }

    #[test]
    fn inflection_point_k_matches_rfc() {
        // After a loss at W = 1000: W_max = 1000, cwnd = 700, and
        // K = cbrt(W_max·(1−β)/C) = cbrt(300/0.4) ≈ 9.086 s (RFC 8312 §4.1).
        let mut cc = Driven::new(Cubic::default());
        cc.acks(990, 1); // slow start to 1000
        cc.loss();
        cc.cc.enter_epoch(SimTime::from_secs(5), cc.w.cwnd);
        assert!((cc.cc.w_max - 1000.0).abs() < 1e-9);
        assert!((cc.cwnd() - 700.0).abs() < 1e-9);
        let expected_k = (1000.0 * (1.0 - BETA) / C).cbrt();
        assert!((cc.cc.k - expected_k).abs() < 1e-9, "K = {}", cc.cc.k);
        // The curve anchors: W(0) = cwnd at reduction, W(K) = W_max, and
        // it grows monotonically through the concave and convex regions.
        assert!((cc.cc.w_cubic(0.0) - 700.0).abs() < 1e-6);
        assert!((cc.cc.w_cubic(cc.cc.k) - 1000.0).abs() < 1e-9);
        assert!(cc.cc.w_cubic(2.0) > cc.cc.w_cubic(1.0));
        assert!(cc.cc.w_cubic(cc.cc.k + 2.0) > cc.cc.w_cubic(cc.cc.k + 1.0));
        // Wall-clock (not RTT) drives the curve — the design property the
        // paper's Fig. 8 RTT-fairness experiment leans on.
        assert!(cc.cc.w_cubic(12.0) > 1000.0, "convex growth past K");
    }

    #[test]
    fn fast_convergence_shrinks_peak() {
        let mut cc = Driven::new(Cubic::default());
        cc.acks(90, 1);
        cc.loss();
        let w1 = cc.cc.w_max;
        // Second loss below the previous peak triggers fast convergence.
        cc.loss();
        assert!(cc.cc.w_max < w1, "fast convergence lowers the target peak");
    }

    #[test]
    fn tcp_friendly_region_floors_growth() {
        let mut cc = Driven::new(Cubic::default());
        cc.acks(20, 1); // cwnd 30
        cc.loss();
        let after_loss = cc.cwnd();
        // With a long RTT and small window, W_est (Reno-like) dominates.
        let rtt = SimDuration::from_millis(200);
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            cc.ack(&ack_at(1, now, rtt));
            now += SimDuration::from_millis(40);
        }
        assert!(cc.cwnd() > after_loss, "friendly region keeps growing");
    }
}
