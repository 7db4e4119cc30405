//! The receiver endpoint: per-packet selective acknowledgement generation.
//!
//! One receiver serves every sender type in this reproduction (PCC, TCP
//! variants, SABUL, PCP): it ACKs every data packet with a selective
//! acknowledgement carrying the cumulative ack point, an echo of the data
//! packet's send timestamp (exact RTT at the sender), and the receiver-side
//! arrival timestamp (used by dispersion-based bandwidth probers). This
//! matches the paper's prototype, which relies on TCP SACK as its only
//! feedback (§2.3: "No receiver change: TCP SACK is enough feedback").

use std::collections::BTreeSet;

use pcc_simnet::endpoint::{Endpoint, EndpointCtx};
use pcc_simnet::packet::{AckInfo, Packet};

/// SACK-generating receiver with duplicate suppression for goodput
/// accounting.
#[derive(Debug, Default)]
pub struct SackReceiver {
    /// All sequences below this point received.
    cum_ack: u64,
    /// Received sequences at or above `cum_ack` (out-of-order buffer).
    ooo: BTreeSet<u64>,
    /// Unique data bytes accepted.
    recv_bytes: u64,
    /// Total data packets seen (including duplicates).
    packets_seen: u64,
    /// Duplicate data packets seen.
    duplicates: u64,
}

impl SackReceiver {
    /// New receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative ack point: all sequences below are received.
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    /// Unique data bytes accepted.
    pub fn recv_bytes(&self) -> u64 {
        self.recv_bytes
    }

    /// Duplicate packets observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Record the arrival of `seq` carrying `bytes`: true when it is new
    /// data (counted into [`recv_bytes`](Self::recv_bytes), cumulative
    /// point advanced over any now-contiguous prefix), false for a
    /// duplicate. The reassembly state behind both datapaths' receivers.
    pub fn accept(&mut self, seq: u64, bytes: u32) -> bool {
        if seq == self.cum_ack {
            // In order: the set never holds the cumulative point itself, so
            // bump it directly, then advance over any now-contiguous prefix
            // (on an empty set `remove` touches no node).
            self.cum_ack += 1;
            while self.ooo.remove(&self.cum_ack) {
                self.cum_ack += 1;
            }
        } else if seq < self.cum_ack || !self.ooo.insert(seq) {
            self.duplicates += 1;
            return false;
        }
        self.recv_bytes += bytes as u64;
        true
    }

    /// [`SackReceiver::accept`] as insert-then-drain: every packet goes
    /// through the set. The reference the proptest compares against.
    #[cfg(test)]
    fn accept_by_insert_then_drain(&mut self, seq: u64, bytes: u32) -> bool {
        if seq < self.cum_ack || self.ooo.contains(&seq) {
            self.duplicates += 1;
            return false;
        }
        self.ooo.insert(seq);
        while self.ooo.remove(&self.cum_ack) {
            self.cum_ack += 1;
        }
        self.recv_bytes += bytes as u64;
        true
    }
}

impl Endpoint for SackReceiver {
    fn start(&mut self, _ctx: &mut EndpointCtx) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        let Some(data) = pkt.as_data() else {
            debug_assert!(false, "receiver got a non-data packet");
            return;
        };
        self.packets_seen += 1;
        let fresh = self.accept(data.seq, pkt.bytes);
        if fresh {
            ctx.record_goodput(pkt.bytes as u64);
        }
        ctx.send_ack(AckInfo {
            acked_seq: data.seq,
            cum_ack: self.cum_ack,
            echo_sent_at: data.sent_at,
            recv_at: ctx.now,
            recv_bytes: self.recv_bytes,
            probe_train: data.probe_train,
            of_retx: data.retx,
        });
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::endpoint::Action;
    use pcc_simnet::ids::{FlowId, Side};
    use pcc_simnet::rng::SimRng;
    use pcc_simnet::time::SimTime;

    fn drive(rx: &mut SackReceiver, pkt: Packet, now: SimTime) -> Vec<Action> {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        let mut ctx = EndpointCtx::new(now, FlowId(0), Side::Receiver, &mut rng, &mut actions);
        rx.on_packet(&pkt, &mut ctx);
        actions
    }

    fn data(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, 1500, SimTime::from_millis(seq), false)
    }

    fn ack_of(actions: &[Action]) -> AckInfo {
        for a in actions {
            if let Action::Send(p) = a {
                return *p.as_ack().expect("receiver sends ACKs");
            }
        }
        panic!("no ack emitted");
    }

    #[test]
    fn acks_every_packet_with_cum_point() {
        let mut rx = SackReceiver::new();
        let a0 = ack_of(&drive(&mut rx, data(0), SimTime::from_millis(10)));
        assert_eq!(a0.acked_seq, 0);
        assert_eq!(a0.cum_ack, 1);
        assert_eq!(a0.echo_sent_at, SimTime::ZERO);
        let a1 = ack_of(&drive(&mut rx, data(1), SimTime::from_millis(11)));
        assert_eq!(a1.cum_ack, 2);
        assert_eq!(a1.recv_bytes, 3000);
    }

    #[test]
    fn out_of_order_holds_cum_ack() {
        let mut rx = SackReceiver::new();
        let a2 = ack_of(&drive(&mut rx, data(2), SimTime::from_millis(1)));
        assert_eq!(a2.acked_seq, 2);
        assert_eq!(a2.cum_ack, 0, "hole at 0");
        let a0 = ack_of(&drive(&mut rx, data(0), SimTime::from_millis(2)));
        assert_eq!(a0.cum_ack, 1, "hole at 1 remains");
        let a1 = ack_of(&drive(&mut rx, data(1), SimTime::from_millis(3)));
        assert_eq!(a1.cum_ack, 3, "contiguous through 2");
    }

    #[test]
    fn duplicates_suppressed_from_goodput() {
        let mut rx = SackReceiver::new();
        let first = drive(&mut rx, data(0), SimTime::from_millis(1));
        assert!(first
            .iter()
            .any(|a| matches!(a, Action::RecordGoodput(1500))));
        let second = drive(&mut rx, data(0), SimTime::from_millis(2));
        assert!(
            !second.iter().any(|a| matches!(a, Action::RecordGoodput(_))),
            "duplicate adds no goodput"
        );
        // But it is still acked (duplicate ACKs drive TCP recovery).
        let a = ack_of(&second);
        assert_eq!(a.acked_seq, 0);
        assert_eq!(rx.duplicates(), 1);
        assert_eq!(rx.recv_bytes(), 1500);
    }

    #[test]
    fn echo_preserves_retx_flag_and_train() {
        let mut rx = SackReceiver::new();
        let mut pkt = Packet::data(FlowId(0), 5, 1500, SimTime::from_millis(9), true);
        if let pcc_simnet::packet::PacketKind::Data(ref mut d) = pkt.kind {
            d.probe_train = Some(7);
        }
        let a = ack_of(&drive(&mut rx, pkt, SimTime::from_millis(12)));
        assert!(a.of_retx);
        assert_eq!(a.probe_train, Some(7));
        assert_eq!(a.echo_sent_at, SimTime::from_millis(9));
        assert_eq!(a.recv_at, SimTime::from_millis(12));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The in-order fast path changes no answer: any arrival order,
        /// duplicates included, gives the same verdict per packet and the
        /// same `cum_ack`, `recv_bytes` and `duplicates` after it.
        #[test]
        fn accept_equals_insert_then_drain(
            n in 1u64..80,
            swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 0..120),
            dups in proptest::collection::vec(0usize..1000, 0..40),
        ) {
            // A permutation of 0..n that is in order when `swaps` is short,
            // with some sequences arriving again later.
            let mut arrivals: Vec<u64> = (0..n).collect();
            for (a, b) in swaps {
                let len = arrivals.len();
                arrivals.swap(a % len, b % len);
            }
            for d in dups {
                let seq = arrivals[d % arrivals.len()];
                arrivals.insert((d * 7 + 1) % (arrivals.len() + 1), seq);
            }
            let (mut fast, mut slow) = (SackReceiver::new(), SackReceiver::new());
            for seq in arrivals {
                let bytes = 100 + seq as u32;
                prop_assert_eq!(
                    fast.accept(seq, bytes),
                    slow.accept_by_insert_then_drain(seq, bytes)
                );
                prop_assert_eq!(fast.cum_ack(), slow.cum_ack());
                prop_assert_eq!(fast.recv_bytes(), slow.recv_bytes());
                prop_assert_eq!(fast.duplicates(), slow.duplicates());
            }
            prop_assert_eq!(fast.cum_ack(), n);
            prop_assert!(fast.ooo.is_empty());
        }
    }
}
