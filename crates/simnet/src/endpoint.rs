//! The endpoint abstraction: how transport protocols plug into the
//! simulator.
//!
//! A flow has two endpoints (sender and receiver). The simulator invokes
//! them on packet arrival and on timers; endpoints respond by emitting
//! [`Action`]s through the [`EndpointCtx`] — sending packets, arming timers,
//! and recording measurements. The indirection keeps the simulator free of
//! any protocol knowledge and keeps endpoints deterministic and testable in
//! isolation.

use crate::ids::{FlowId, Side};
use crate::packet::{AckInfo, Packet};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What an endpoint asks the simulator to do.
#[derive(Debug)]
#[allow(missing_docs, reason = "variant fields are self-describing")]
pub enum Action {
    /// Transmit a packet (data from senders, ACKs from receivers). The
    /// simulator fixes up the flow id, direction, and hop index.
    Send(Packet),
    /// Arm a timer that fires [`Endpoint::on_timer`] with `token` at `at`.
    SetTimer { at: SimTime, token: u64 },
    /// Record the current control decision (sending rate, bits/sec).
    RecordRate(f64),
    /// Record an RTT sample.
    RecordRtt(SimDuration),
    /// Record `n` sender-detected packet losses.
    RecordLoss(u64),
    /// Record `n` unique data bytes accepted (receiver goodput).
    RecordGoodput(u64),
    /// Declare the flow stalled: the sender's dead-time budget elapsed with
    /// no forward progress and it aborted the transfer.
    Stall {
        /// How long the flow went without forward progress.
        dark: SimDuration,
        /// Consecutive RTO fires observed during the dark period.
        timeouts: u64,
    },
    /// Declare the flow complete (records the flow completion time).
    Finish,
}

/// Mutable view handed to an endpoint during a callback.
pub struct EndpointCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The flow this endpoint belongs to.
    pub flow: FlowId,
    /// Which side this endpoint is.
    pub side: Side,
    rng: &'a mut SimRng,
    actions: &'a mut Vec<Action>,
}

impl<'a> EndpointCtx<'a> {
    /// Build a context (used by the simulator and by endpoint unit tests).
    pub fn new(
        now: SimTime,
        flow: FlowId,
        side: Side,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action>,
    ) -> Self {
        EndpointCtx {
            now,
            flow,
            side,
            rng,
            actions,
        }
    }

    /// Send a data packet: `seq` with `bytes` on the wire.
    pub fn send_data(&mut self, seq: u64, bytes: u32, retx: bool) {
        debug_assert_eq!(self.side, Side::Sender, "only senders send data");
        let pkt = Packet::data(self.flow, seq, bytes, self.now, retx);
        self.actions.push(Action::Send(pkt));
    }

    /// Send a data packet tagged as part of a probe train (PCP-style).
    pub fn send_probe(&mut self, seq: u64, bytes: u32, train: u32) {
        debug_assert_eq!(self.side, Side::Sender);
        let mut pkt = Packet::data(self.flow, seq, bytes, self.now, false);
        if let crate::packet::PacketKind::Data(ref mut d) = pkt.kind {
            d.probe_train = Some(train);
        }
        self.actions.push(Action::Send(pkt));
    }

    /// Send an ACK (receivers only).
    pub fn send_ack(&mut self, info: AckInfo) {
        debug_assert_eq!(self.side, Side::Receiver, "only receivers send ACKs");
        self.actions
            .push(Action::Send(Packet::ack(self.flow, info)));
    }

    /// Arm a timer.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.actions.push(Action::SetTimer { at, token });
    }

    /// Record the current sending-rate decision (bits/sec).
    pub fn record_rate(&mut self, bps: f64) {
        self.actions.push(Action::RecordRate(bps));
    }

    /// Record an RTT sample.
    pub fn record_rtt(&mut self, rtt: SimDuration) {
        self.actions.push(Action::RecordRtt(rtt));
    }

    /// Record sender-detected losses.
    pub fn record_loss(&mut self, n: u64) {
        self.actions.push(Action::RecordLoss(n));
    }

    /// Record unique data bytes accepted by the receiver.
    pub fn record_goodput(&mut self, bytes: u64) {
        self.actions.push(Action::RecordGoodput(bytes));
    }

    /// Mark the flow finished (for sized flows; records FCT).
    pub fn finish(&mut self) {
        self.actions.push(Action::Finish);
    }

    /// Declare the flow stalled: `dark` time without progress over
    /// `timeouts` consecutive RTO fires (records
    /// [`crate::stats::FlowStats::stalled`]).
    pub fn stall(&mut self, dark: SimDuration, timeouts: u64) {
        self.actions.push(Action::Stall { dark, timeouts });
    }

    /// This endpoint's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// A protocol endpoint (sender or receiver side of a flow).
pub trait Endpoint: Send {
    /// Called once when the flow starts (senders kick off transmission
    /// here; receivers usually ignore it).
    fn start(&mut self, ctx: &mut EndpointCtx);

    /// Called when a packet addressed to this endpoint arrives.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    #[test]
    fn ctx_collects_actions() {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut ctx = EndpointCtx::new(
            SimTime::from_millis(3),
            FlowId(7),
            Side::Sender,
            &mut rng,
            &mut actions,
        );
        ctx.send_data(0, 1500, false);
        ctx.set_timer(SimTime::from_millis(10), 42);
        ctx.record_rate(1e6);
        ctx.finish();
        assert_eq!(actions.len(), 4);
        match &actions[0] {
            Action::Send(p) => {
                assert_eq!(p.flow, FlowId(7));
                assert!(matches!(p.kind, PacketKind::Data(d) if d.seq == 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(actions[1], Action::SetTimer { token: 42, .. }));
        assert!(matches!(actions[2], Action::RecordRate(r) if r == 1e6));
        assert!(matches!(actions[3], Action::Finish));
    }

    #[test]
    fn probe_packets_tagged() {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut ctx = EndpointCtx::new(
            SimTime::ZERO,
            FlowId(0),
            Side::Sender,
            &mut rng,
            &mut actions,
        );
        ctx.send_probe(5, 1500, 3);
        match &actions[0] {
            Action::Send(p) => {
                assert_eq!(p.as_data().unwrap().probe_train, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
