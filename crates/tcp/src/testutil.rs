//! Test helpers for exercising [`WindowAlgo`] implementations directly.

use crate::common::INITIAL_CWND;
use crate::window::{Window, WindowAlgo};
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::AckEvent;

/// A variant with the window its [`crate::Windowed`] adapter would lend
/// it, starting at IW10 in slow start.
pub struct Driven<A> {
    pub cc: A,
    pub w: Window,
}

impl<A: WindowAlgo> Driven<A> {
    pub fn new(cc: A) -> Self {
        Driven {
            cc,
            w: Window {
                cwnd: INITIAL_CWND,
                ssthresh: f64::MAX,
            },
        }
    }

    pub fn cwnd(&self) -> f64 {
        self.w.cwnd
    }

    pub fn ack(&mut self, ack: &AckEvent) {
        self.cc.on_ack(&mut self.w, ack);
    }

    pub fn loss(&mut self) {
        self.cc.on_loss_event(&mut self.w);
    }

    pub fn rto(&mut self) {
        self.w.collapse(self.cc.on_rto(self.w.cwnd));
    }

    /// Feed `n` ACKs of `per` packets each.
    pub fn acks(&mut self, n: u32, per: u32) {
        for _ in 0..n {
            self.ack(&ack(per));
        }
    }

    /// Feed ACKs spread over time with a given RTT (for time-based
    /// algorithms like CUBIC): `n` acks, one every `spacing`, each acking
    /// `per` packets.
    pub fn acks_timed(
        &mut self,
        n: u32,
        per: u32,
        start: SimTime,
        spacing: SimDuration,
        rtt: SimDuration,
    ) -> SimTime {
        let mut now = start;
        for _ in 0..n {
            self.ack(&ack_at(per, now, rtt));
            now += spacing;
        }
        now
    }
}

/// A synthetic ACK with a 30 ms RTT and sane defaults.
pub fn ack(newly_acked: u32) -> AckEvent {
    ack_at(newly_acked, SimTime::ZERO, SimDuration::from_millis(30))
}

/// A synthetic ACK at a given time/RTT.
pub fn ack_at(newly_acked: u32, now: SimTime, rtt: SimDuration) -> AckEvent {
    AckEvent {
        now,
        seq: 0,
        rtt,
        sampled: true,
        srtt: rtt,
        min_rtt: rtt,
        max_rtt: rtt,
        recv_at: now,
        probe_train: None,
        of_retx: false,
        cum_ack: 0,
        newly_acked,
        in_flight: 10,
        mss: 1500,
        in_recovery: false,
    }
}
