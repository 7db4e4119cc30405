//! The receiver endpoint: per-packet selective acknowledgement generation.
//!
//! One receiver serves every sender type in this reproduction (PCC, TCP
//! variants, SABUL, PCP): it ACKs every data packet with a selective
//! acknowledgement carrying the cumulative ack point, an echo of the data
//! packet's send timestamp (exact RTT at the sender), and the receiver-side
//! arrival timestamp (used by dispersion-based bandwidth probers). This
//! matches the paper's prototype, which relies on TCP SACK as its only
//! feedback (§2.3: "No receiver change: TCP SACK is enough feedback").
//!
//! Under random loss every packet behind a hole waits in the reorder
//! buffer, so that buffer is a [`SeqRing`]: a slot per sequence between the
//! cumulative point and the highest arrival, no tree node per packet. The
//! same state reassembles raw datagrams in `pcc-udp`, where a sequence
//! number is whatever arrived on the socket; an arrival [`REORDER_SPAN`] or
//! more past the cumulative point is ACKed but neither stored nor counted,
//! so a forged number cannot make the ring allocate without bound.

use std::sync::atomic::{AtomicU64, Ordering};

use pcc_simnet::endpoint::{Endpoint, EndpointCtx};
use pcc_simnet::packet::{AckInfo, Packet};

use crate::sender::MAX_IN_FLIGHT;
use crate::seq_ring::SeqRing;

/// How far past the cumulative point an arrival may land and still be
/// stored.
///
/// The engine keeps at most `MAX_IN_FLIGHT` packets in flight, and its
/// scoreboard — every sequence from its cumulative point to its next
/// fresh one — is debug-asserted to stay within `2 · MAX_IN_FLIGHT + 64`
/// entries. The sender's cumulative point never passes the receiver's, so
/// a genuine arrival lands within that distance of it. Twice that again
/// leaves headroom, and caps a forged number's cost at 256 Ki one-byte
/// slots.
pub const REORDER_SPAN: u64 = 4 * MAX_IN_FLIGHT;

/// Arrivals refused for landing [`REORDER_SPAN`] or more past the
/// cumulative point, summed over every receiver in the process.
static SPAN_REJECTIONS: AtomicU64 = AtomicU64::new(0);

/// How many arrivals every [`SackReceiver`] in this process has refused as
/// beyond [`REORDER_SPAN`]. Only a forged or corrupt sequence number gets
/// there, so a simulation leaves it at 0.
pub fn span_rejections() -> u64 {
    SPAN_REJECTIONS.load(Ordering::Relaxed)
}

/// SACK-generating receiver with duplicate suppression for goodput
/// accounting.
#[derive(Debug, Default)]
pub struct SackReceiver {
    /// All sequences below this point received.
    cum_ack: u64,
    /// Received sequences above `cum_ack` (out-of-order buffer).
    ooo: SeqRing<()>,
    /// Unique data bytes accepted.
    recv_bytes: u64,
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
    /// duplicate or for an arrival [`REORDER_SPAN`] or more past the
    /// cumulative point. The reassembly state behind both datapaths'
    /// receivers.
    pub fn accept(&mut self, seq: u64, bytes: u32) -> bool {
        if seq >= self.cum_ack && seq - self.cum_ack >= REORDER_SPAN {
            SPAN_REJECTIONS.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if seq == self.cum_ack {
            // In order: the ring never holds the cumulative point itself,
            // so bump it directly, then advance over any now-contiguous
            // prefix.
            self.cum_ack += 1;
            while self.ooo.take(self.cum_ack).is_some() {
                self.cum_ack += 1;
            }
        } else if seq < self.cum_ack || self.ooo.insert(seq, ()).is_some() {
            self.duplicates += 1;
            return false;
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
    fn forged_sequence_numbers_are_acked_but_not_stored() {
        let mut rx = SackReceiver::new();
        for seq in [0, 1, 3] {
            assert!(rx.accept(seq, 1500));
        }
        let held = (rx.cum_ack(), rx.recv_bytes(), rx.ooo.len(), rx.ooo.slots());
        assert_eq!(held, (2, 4500, 1, 1));
        let rejected = span_rejections();
        for forged in [u64::MAX - 1, rx.cum_ack() + REORDER_SPAN] {
            let pkt = Packet::data(FlowId(0), forged, 1500, SimTime::ZERO, false);
            let actions = drive(&mut rx, pkt, SimTime::from_millis(5));
            assert_eq!(ack_of(&actions).acked_seq, forged, "still ACKed");
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, Action::RecordGoodput(_))),
                "not fresh data"
            );
            assert_eq!(
                (rx.cum_ack(), rx.recv_bytes(), rx.ooo.len(), rx.ooo.slots()),
                held,
                "neither stored nor counted"
            );
        }
        assert!(span_rejections() >= rejected + 2);
        assert_eq!(rx.duplicates(), 0, "a forged number is not a duplicate");
        // Later in-range packets still land, up to the span's last slot.
        assert!(rx.accept(2, 1500));
        assert_eq!(rx.cum_ack(), 4);
        assert!(rx.accept(rx.cum_ack() + REORDER_SPAN - 1, 1500));
        assert_eq!((rx.cum_ack(), rx.ooo.len()), (4, 1));
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
    use std::collections::BTreeSet;

    /// The reference reassembly: every arrival goes into a set, then the
    /// set drains from the cumulative point.
    #[derive(Default)]
    struct InsertThenDrain {
        cum_ack: u64,
        ooo: BTreeSet<u64>,
        recv_bytes: u64,
        duplicates: u64,
    }

    impl InsertThenDrain {
        fn accept(&mut self, seq: u64, bytes: u32) -> bool {
            if seq < self.cum_ack || !self.ooo.insert(seq) {
                self.duplicates += 1;
                return false;
            }
            while self.ooo.remove(&self.cum_ack) {
                self.cum_ack += 1;
            }
            self.recv_bytes += bytes as u64;
            true
        }
    }

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
            let (mut fast, mut slow) = (SackReceiver::new(), InsertThenDrain::default());
            for seq in arrivals {
                let bytes = 100 + seq as u32;
                prop_assert_eq!(fast.accept(seq, bytes), slow.accept(seq, bytes));
                prop_assert_eq!(fast.cum_ack(), slow.cum_ack);
                prop_assert_eq!(fast.recv_bytes(), slow.recv_bytes);
                prop_assert_eq!(fast.duplicates(), slow.duplicates);
            }
            prop_assert_eq!(fast.cum_ack(), n);
            prop_assert!(fast.ooo.is_empty());
        }
    }
}
