//! Wire format for the UDP transport: fixed 40-byte headers, no payload
//! compression, everything big-endian. Mirrors the simulator's packet
//! metadata (sequence, send-time echo, receive time, retransmission flag,
//! probe-train tag) so the same engine and controller logic drive both.
//! Encoding is plain `Vec<u8>`/slice work — no external buffer crates.

/// Magic tag guarding against stray datagrams.
pub const MAGIC: u32 = 0x9CC0_2015;
/// Header length for both packet kinds.
pub const HEADER_LEN: usize = 40;

/// A data segment header (payload follows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataHeader {
    /// Packet-granularity sequence number.
    pub seq: u64,
    /// Sender timestamp, microseconds since sender start.
    pub sent_us: u64,
    /// Retransmission flag.
    pub retx: bool,
    /// Probe-train tag (PCP-style dispersion probing): the low 16 bits of
    /// the sender's train id, which the sender widens again on the echo.
    pub probe_train: Option<u16>,
}

/// A selective acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckPacket {
    /// The sequence being acknowledged.
    pub acked_seq: u64,
    /// Cumulative ack point.
    pub cum_ack: u64,
    /// Echo of the data packet's `sent_us`.
    pub echo_sent_us: u64,
    /// Receiver timestamp, microseconds since receiver start.
    pub recv_us: u64,
    /// The acked packet was a retransmission.
    pub of_retx: bool,
    /// Echo of the data packet's `probe_train`.
    pub probe_train: Option<u16>,
}

/// Either side of the protocol; data payloads borrow from the receive
/// buffer.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame<'a> {
    /// Data with its payload.
    Data(DataHeader, &'a [u8]),
    /// An ACK.
    Ack(AckPacket),
}

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
/// Flag bits (header byte 5).
const FLAG_RETX: u8 = 1;
const FLAG_PROBE: u8 = 2;

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// The 8 bytes both kinds share: magic, kind, flags, probe-train tag.
fn header(kind: u8, retx: bool, probe_train: Option<u16>) -> Vec<u8> {
    let mut flags = 0;
    if retx {
        flags |= FLAG_RETX;
    }
    if probe_train.is_some() {
        flags |= FLAG_PROBE;
    }
    let mut b = Vec::with_capacity(HEADER_LEN);
    b.extend_from_slice(&MAGIC.to_be_bytes());
    b.push(kind);
    b.push(flags);
    b.extend_from_slice(&probe_train.unwrap_or(0).to_be_bytes());
    b
}

/// Encode a data frame.
pub fn encode_data(h: &DataHeader, payload: &[u8]) -> Vec<u8> {
    let mut b = header(KIND_DATA, h.retx, h.probe_train);
    b.reserve(HEADER_LEN - b.len() + payload.len());
    put_u64(&mut b, h.seq);
    put_u64(&mut b, h.sent_us);
    put_u64(&mut b, 0); // reserved
    put_u64(&mut b, 0); // reserved
    debug_assert_eq!(b.len(), HEADER_LEN);
    b.extend_from_slice(payload);
    b
}

/// Encode an ACK frame.
pub fn encode_ack(a: &AckPacket) -> Vec<u8> {
    let mut b = header(KIND_ACK, a.of_retx, a.probe_train);
    put_u64(&mut b, a.acked_seq);
    put_u64(&mut b, a.cum_ack);
    put_u64(&mut b, a.echo_sent_us);
    put_u64(&mut b, a.recv_us);
    debug_assert_eq!(b.len(), HEADER_LEN);
    b
}

/// Decode any frame; `None` for foreign or truncated datagrams.
pub fn decode(buf: &[u8]) -> Option<Frame<'_>> {
    if buf.len() < HEADER_LEN || buf[0..4] != MAGIC.to_be_bytes() {
        return None;
    }
    let kind = buf[4];
    let retx = buf[5] & FLAG_RETX != 0;
    let probe_train = (buf[5] & FLAG_PROBE != 0).then(|| u16::from_be_bytes([buf[6], buf[7]]));
    match kind {
        KIND_DATA => Some(Frame::Data(
            DataHeader {
                seq: get_u64(buf, 8),
                sent_us: get_u64(buf, 16),
                retx,
                probe_train,
            },
            &buf[HEADER_LEN..],
        )),
        KIND_ACK => Some(Frame::Ack(AckPacket {
            acked_seq: get_u64(buf, 8),
            cum_ack: get_u64(buf, 16),
            echo_sent_us: get_u64(buf, 24),
            recv_us: get_u64(buf, 32),
            of_retx: retx,
            probe_train,
        })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip() {
        // With and without a probe tag; tag 0 is distinct from no tag.
        for probe_train in [None, Some(0), Some(0xBEEF)] {
            let h = DataHeader {
                seq: 123456789,
                sent_us: 42_000_000,
                retx: true,
                probe_train,
            };
            let payload = vec![7u8; 1000];
            let wire = encode_data(&h, &payload);
            assert_eq!(wire.len(), HEADER_LEN + 1000);
            match decode(&wire).expect("decodes") {
                Frame::Data(h2, p) => {
                    assert_eq!(h, h2);
                    assert_eq!(p.len(), 1000);
                    assert!(p.iter().all(|&b| b == 7));
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn ack_roundtrip() {
        for probe_train in [None, Some(0), Some(7)] {
            let a = AckPacket {
                acked_seq: 55,
                cum_ack: 50,
                echo_sent_us: 999,
                recv_us: 1001,
                of_retx: false,
                probe_train,
            };
            let wire = encode_ack(&a);
            assert_eq!(wire.len(), HEADER_LEN, "the tag rides in reserved bytes");
            match decode(&wire).expect("decodes") {
                Frame::Ack(a2) => assert_eq!(a, a2),
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(b"nonsense"), None);
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC.to_be_bytes());
        junk.push(99); // unknown kind
        junk.extend_from_slice(&[0u8; 64]);
        assert_eq!(decode(&junk), None);
        // Truncated.
        let a = AckPacket {
            acked_seq: 1,
            cum_ack: 1,
            echo_sent_us: 0,
            recv_us: 0,
            of_retx: false,
            probe_train: None,
        };
        let short = &encode_ack(&a)[0..10];
        assert_eq!(decode(short), None);
    }
}
