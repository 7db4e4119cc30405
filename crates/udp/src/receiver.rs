//! The UDP receiver: per-datagram SACK generation over a real socket,
//! on the same reassembly state ([`SackReceiver`]) as the simulator's
//! receiver endpoint.

use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

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

/// The shortest time [`receive`] keeps answering once the last byte has
/// landed. It returns only after the socket has been idle for the longer
/// of this and four times the longest gap it saw between two datagrams. A
/// final ACK lost on the way back is then repaired by the sender's
/// retransmission, which is ACKed again — TCP's TIME_WAIT in miniature.
///
/// The repair needs each retransmission to arrive within the linger. The
/// first comes one RTO after the sender's last send, and that RTO must be
/// under 1 s (the sender's floor is 10 ms). Each later one comes at most
/// twice the previous RTO after it (exponential backoff); the previous RTO
/// was itself a gap seen here, so four times the longest gap covers it.
pub const LINGER: Duration = Duration::from_secs(1);

/// Receive `expected_bytes` of payload on `socket`, acking every datagram
/// back to its source address, then keep acking duplicates until the
/// socket has been idle for the linger (see [`LINGER`]), and return. The
/// socket's read timeout is the caller's again on return.
pub fn receive(socket: &UdpSocket, expected_bytes: u64) -> std::io::Result<ReceiverReport> {
    let caller_timeout = socket.read_timeout()?;
    let report = serve(socket, expected_bytes);
    socket.set_read_timeout(caller_timeout)?;
    report
}

fn serve(socket: &UdpSocket, expected_bytes: u64) -> std::io::Result<ReceiverReport> {
    #[expect(
        clippy::disallowed_methods,
        reason = "pcc-udp's entire job is real sockets on a real clock, so its outputs are outside the determinism contract"
    )]
    let start = Instant::now();
    let mut buf = vec![0u8; 65_536];
    let mut rx = SackReceiver::new();
    let mut datagrams = 0u64;
    let (mut last_arrival, mut longest_gap) = (None, Duration::ZERO);
    socket.set_nonblocking(false)?;
    loop {
        let lingering = rx.recv_bytes() >= expected_bytes;
        if lingering {
            socket.set_read_timeout(Some(LINGER.max(4 * longest_gap)))?;
        }
        let (n, from) = match socket.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e)
                if lingering && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                break
            }
            Err(e) => return Err(e),
        };
        let Some(Frame::Data(h, payload)) = decode(&buf[..n]) else {
            continue;
        };
        let now = start.elapsed();
        if let Some(prev) = last_arrival.replace(now) {
            longest_gap = longest_gap.max(now - prev);
        }
        datagrams += 1;
        rx.accept(h.seq, payload.len() as u32);
        let ack = AckPacket {
            acked_seq: h.seq,
            cum_ack: rx.cum_ack(),
            echo_sent_us: h.sent_us,
            recv_us: now.as_micros() as u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_data, DataHeader};

    /// A lost final ACK is repaired: the sender's retransmission of the
    /// last datagram, arriving after every byte has landed, is ACKed.
    #[test]
    fn a_retransmitted_last_datagram_is_acked_after_completion() {
        retransmit_last_after(Duration::ZERO, Duration::ZERO);
    }

    /// A sender that has already waited 500 ms between two datagrams may
    /// wait longer than [`LINGER`] before it retransmits; the receiver is
    /// still there.
    #[test]
    fn the_linger_stretches_to_four_times_the_longest_gap() {
        retransmit_last_after(Duration::from_millis(500), LINGER + LINGER / 4);
    }

    /// Send eight datagrams with `pause` after the fourth, discard their
    /// ACKs, wait `wait`, then re-send the last: it must be ACKed as a
    /// retransmission, and the caller's read timeout must survive.
    fn retransmit_last_after(pause: Duration, wait: Duration) {
        let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let rx_addr = rx_sock.local_addr().expect("addr");
        let caller_timeout = Some(Duration::from_secs(30));
        rx_sock.set_read_timeout(caller_timeout).expect("timeout");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        tx.set_read_timeout(Some(LINGER / 2)).expect("timeout");
        let (count, payload) = (8u64, vec![0u8; 1000]);
        let rx = std::thread::spawn(move || {
            let report = receive(&rx_sock, count * 1000);
            (report, rx_sock.read_timeout().expect("read timeout"))
        });
        let send = |seq, retx| {
            let h = DataHeader {
                seq,
                sent_us: seq,
                retx,
                probe_train: None,
            };
            tx.send_to(&encode_data(&h, &payload), rx_addr)
                .expect("send");
        };
        let mut buf = [0u8; 64];
        let mut next_ack = || {
            let (n, _) = tx.recv_from(&mut buf).ok()?;
            match decode(&buf[..n]) {
                Some(Frame::Ack(a)) => Some(a),
                _ => None,
            }
        };
        for seq in 0..count {
            if seq == count / 2 {
                std::thread::sleep(pause);
            }
            send(seq, false);
        }
        // Discard every ACK: as far as the sender knows, the last was lost.
        for _ in 0..count {
            next_ack().expect("each datagram is ACKed");
        }
        std::thread::sleep(wait);
        send(count - 1, true);
        let ack = next_ack().expect("the retransmitted last datagram is ACKed");
        assert_eq!(
            (ack.acked_seq, ack.cum_ack, ack.of_retx),
            (count - 1, count, true)
        );
        let (report, timeout) = rx.join().expect("join");
        let report = report.expect("receive");
        assert_eq!((report.unique_bytes, report.duplicates), (count * 1000, 1));
        assert_eq!(timeout, caller_timeout);
    }
}
