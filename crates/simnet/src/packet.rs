//! Packet representation shared by the simulator and the transport layer.
//!
//! The simulator is packet-level but content-free: a packet carries transport
//! metadata (sequence numbers, timestamps, SACK summary) but no payload bytes.
//!
//! A packet carries what the wire carries, plus the few fields the
//! simulation loop needs to route it (`flow`, `dir`, `hop`, `gen`). Every
//! queue ring, delay lane and event-heap entry holds a `Packet` by value,
//! so it is kept at 72 bytes: a queue that needs bookkeeping of its own,
//! like FQ-CoDel's enqueue times, keeps it beside the packet.

use crate::ids::{Direction, FlowId};
use crate::time::SimTime;

/// Default data packet size in bytes (MSS + headers), matching the 1.5 KB
/// packets used throughout the paper's evaluation.
pub const DEFAULT_DATA_BYTES: u32 = 1500;
/// Default ACK packet size in bytes.
pub const DEFAULT_ACK_BYTES: u32 = 40;

/// Transport metadata carried by a data packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataInfo {
    /// Transport sequence number (packet-granularity, 0-based).
    pub seq: u64,
    /// True if this transmission is a retransmission of `seq`.
    pub retx: bool,
    /// Time the packet left the sender (echoed back in the ACK for RTT).
    pub sent_at: SimTime,
    /// Marks the packet as part of a probe train (used by PCP-style probing).
    pub probe_train: Option<u32>,
}

/// Transport metadata carried by an ACK (models TCP SACK feedback).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AckInfo {
    /// The data sequence number this ACK acknowledges (selective ACK).
    pub acked_seq: u64,
    /// Cumulative ACK: all sequences `< cum_ack` have been received.
    pub cum_ack: u64,
    /// Echo of the data packet's `sent_at` (gives the sender an exact RTT).
    pub echo_sent_at: SimTime,
    /// Receiver timestamp when the data packet arrived (for dispersion-based
    /// bandwidth probing, e.g. PCP packet trains).
    pub recv_at: SimTime,
    /// Total data bytes the receiver has accepted so far (goodput counter).
    pub recv_bytes: u64,
    /// Echo of the data packet's probe-train tag.
    pub probe_train: Option<u32>,
    /// Whether the acked packet was a retransmission.
    pub of_retx: bool,
}

/// What a packet is, transport-wise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PacketKind {
    /// A data segment.
    Data(DataInfo),
    /// A (selective) acknowledgement.
    Ack(AckInfo),
}

/// A simulated packet.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Direction relative to the flow (data = forward, ACK = reverse).
    pub dir: Direction,
    /// Index of the next link along the packet's path (maintained by the
    /// simulation loop as the packet hops).
    pub hop: u16,
    /// Generation of the owning flow's slot when the packet was sent
    /// (stamped by the simulation loop, like `flow`/`dir`). Flow slots are
    /// recycled under churn; a packet whose generation no longer matches
    /// its slot belongs to a retired flow and is dropped on arrival instead
    /// of bleeding into the slot's new tenant. Always 0 for statically
    /// registered flows.
    pub gen: u32,
    /// Wire size in bytes (includes all headers).
    pub bytes: u32,
    /// Transport metadata.
    pub kind: PacketKind,
}

impl Packet {
    /// Build a data packet for `flow` with sequence `seq`.
    pub fn data(flow: FlowId, seq: u64, bytes: u32, now: SimTime, retx: bool) -> Packet {
        Packet {
            flow,
            dir: Direction::Forward,
            hop: 0,
            gen: 0,
            bytes,
            kind: PacketKind::Data(DataInfo {
                seq,
                retx,
                sent_at: now,
                probe_train: None,
            }),
        }
    }

    /// Build an ACK packet for `flow`.
    pub fn ack(flow: FlowId, info: AckInfo) -> Packet {
        Packet {
            flow,
            dir: Direction::Reverse,
            hop: 0,
            gen: 0,
            bytes: DEFAULT_ACK_BYTES,
            kind: PacketKind::Ack(info),
        }
    }

    /// The data metadata, if this is a data packet.
    pub fn as_data(&self) -> Option<&DataInfo> {
        match &self.kind {
            PacketKind::Data(d) => Some(d),
            PacketKind::Ack(_) => None,
        }
    }

    /// The ACK metadata, if this is an ACK.
    pub fn as_ack(&self) -> Option<&AckInfo> {
        match &self.kind {
            PacketKind::Ack(a) => Some(a),
            PacketKind::Data(_) => None,
        }
    }

    /// True for data packets.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_construction() {
        let p = Packet::data(FlowId(1), 42, 1500, SimTime::from_millis(5), false);
        assert!(p.is_data());
        assert_eq!(p.dir, Direction::Forward);
        let d = p.as_data().unwrap();
        assert_eq!(d.seq, 42);
        assert!(!d.retx);
        assert_eq!(d.sent_at, SimTime::from_millis(5));
        assert!(p.as_ack().is_none());
    }

    #[test]
    fn ack_packet_construction() {
        let info = AckInfo {
            acked_seq: 7,
            cum_ack: 8,
            echo_sent_at: SimTime::from_millis(1),
            recv_at: SimTime::from_millis(2),
            recv_bytes: 12_000,
            probe_train: None,
            of_retx: false,
        };
        let p = Packet::ack(FlowId(0), info);
        assert!(!p.is_data());
        assert_eq!(p.dir, Direction::Reverse);
        assert_eq!(p.bytes, DEFAULT_ACK_BYTES);
        assert_eq!(p.as_ack().unwrap().acked_seq, 7);
    }
}
