//! The UDP receiver: per-datagram SACK generation over a real socket,
//! on the same reassembly state ([`SackReceiver`]) as the simulator's
//! receiver endpoint.

use std::net::UdpSocket;
use std::time::Instant;

use pcc_transport::SackReceiver;

use crate::wire::{decode, encode_ack, AckPacket, Frame};

/// Outcome of one receive session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReceiverReport {
    /// Unique data bytes accepted.
    pub unique_bytes: u64,
    /// Total datagrams seen.
    pub datagrams: u64,
    /// Duplicates among them.
    pub duplicates: u64,
}

/// Receive `expected_bytes` of payload on `socket`, acking every datagram
/// back to its source address, then return.
pub fn receive(socket: &UdpSocket, expected_bytes: u64) -> std::io::Result<ReceiverReport> {
    #[expect(
        clippy::disallowed_methods,
        reason = "pcc-udp's entire job is real sockets on a real clock, so its outputs are outside the determinism contract"
    )]
    let start = Instant::now();
    let mut buf = vec![0u8; 65_536];
    let mut rx = SackReceiver::new();
    let mut datagrams = 0u64;
    socket.set_nonblocking(false)?;
    while rx.recv_bytes() < expected_bytes {
        let (n, from) = match socket.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let Some(Frame::Data(h, payload)) = decode(&buf[..n]) else {
            continue;
        };
        datagrams += 1;
        rx.accept(h.seq, payload.len() as u32);
        let ack = AckPacket {
            acked_seq: h.seq,
            cum_ack: rx.cum_ack(),
            echo_sent_us: h.sent_us,
            recv_us: start.elapsed().as_micros() as u64,
            of_retx: h.retx,
            probe_train: h.probe_train,
        };
        socket.send_to(&encode_ack(&ack), from)?;
    }
    Ok(ReceiverReport {
        unique_bytes: rx.recv_bytes(),
        datagrams,
        duplicates: rx.duplicates(),
    })
}
