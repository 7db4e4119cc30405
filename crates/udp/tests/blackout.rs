//! The RTO-backoff blackout regression, in its own test binary so it
//! runs without the loopback suite's seven concurrent busy-loop
//! transfers: the assertion budgets whole-window RTO fires against the
//! blackout the sender actually experienced, and intra-binary thread
//! contention (every other loopback test spinning a sender loop) can
//! stretch sender-side scheduling in ways no receiver-side measurement
//! captures. Cargo runs test binaries sequentially, so isolation here
//! makes the timing deterministic enough to assert tightly.

use std::net::UdpSocket;
use std::thread;

use pcc_scenarios::install_registry;
use pcc_simnet::time::SimDuration;
use pcc_udp::{send_named, UdpSenderConfig};

fn sockets() -> (UdpSocket, UdpSocket, std::net::SocketAddr) {
    let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    let rx_addr = rx_sock.local_addr().expect("addr");
    let tx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    (rx_sock, tx_sock, rx_addr)
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "this test times a real loopback transfer; wall clock is the thing under test, not a simulation input"
)]
fn rto_backoff_limits_blackout_refires_and_recovers() {
    install_registry();
    // Regression for the datapath's missing RTO backoff: a receiver that
    // goes silent mid-transfer used to re-fire the whole-window loss
    // declaration every *base* RTO (~10 ms on loopback), hammering the
    // dead path with retransmission bursts. With exponential backoff the
    // blackout must cost at most 4 backed-off RTOs (10+20+40+80 ms covers
    // the 140 ms pause), and the first ACK after resumption must reset
    // the backoff so the transfer still completes promptly.
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

    use pcc_udp::wire::{decode, encode_ack, AckPacket, Frame};

    /// Like `receive`, but goes dark for (at least) `pause` once
    /// `pause_after_bytes` have arrived. Returns the unique bytes
    /// received and the *measured* dark time — under CI contention the
    /// sleep can overshoot substantially, and the sender's allowed
    /// timeout count must be judged against the blackout it actually
    /// experienced, not the nominal one.
    fn receive_with_pause(
        socket: &UdpSocket,
        expected_bytes: u64,
        pause_after_bytes: u64,
        pause: Duration,
    ) -> std::io::Result<(u64, Duration)> {
        let start = Instant::now();
        let mut buf = vec![0u8; 65_536];
        let mut cum_ack = 0u64;
        let mut ooo: BTreeSet<u64> = BTreeSet::new();
        let mut unique = 0u64;
        let mut dark = Duration::ZERO;
        socket.set_nonblocking(false)?;
        while unique < expected_bytes {
            let (n, from) = match socket.recv_from(&mut buf) {
                Ok(ok) => ok,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let Some(Frame::Data(h, payload)) = decode(&buf[..n]) else {
                continue;
            };
            let fresh = h.seq >= cum_ack && !ooo.contains(&h.seq);
            if fresh {
                ooo.insert(h.seq);
                while ooo.remove(&cum_ack) {
                    cum_ack += 1;
                }
                unique += payload.len() as u64;
            }
            let ack = AckPacket {
                acked_seq: h.seq,
                cum_ack,
                echo_sent_us: h.sent_us,
                recv_us: start.elapsed().as_micros() as u64,
                of_retx: h.retx,
                probe_train: h.probe_train,
            };
            socket.send_to(&encode_ack(&ack), from)?;
            if dark.is_zero() && unique >= pause_after_bytes {
                // Go dark: datagrams queue in the socket buffer, but no
                // ACKs flow — the sender sees a blackout.
                let t0 = Instant::now();
                std::thread::sleep(pause);
                dark = t0.elapsed().max(Duration::from_nanos(1));
            }
        }
        Ok((unique, dark))
    }

    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 512 * 1024;
    let pause = Duration::from_millis(140);
    let rx = thread::spawn(move || receive_with_pause(&rx_sock, total, total / 4, pause));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 21,
        ..Default::default()
    };
    let t0 = Instant::now();
    let report = send_named(&tx_sock, rx_addr, cfg, "cubic", SimDuration::from_millis(2))
        .expect("io")
        .expect("cubic is registered");
    let elapsed = t0.elapsed();
    let (received, dark) = rx.join().expect("join").expect("receive");

    assert!(
        received >= total,
        "all payload arrived despite the blackout"
    );
    assert!(
        report.timeouts >= 1,
        "the blackout actually exercised the RTO path"
    );
    // With exponential backoff the k-th whole-window fire happens at
    // cumulative base·(2^k − 1) into the blackout (base = the 10 ms
    // loopback RTO floor): 10, 30, 70, 150, 310, ... ms. Allow the fires
    // that fit into the blackout the sender *actually* saw plus a 30 ms
    // grace for a scan racing the resumed ACK drain — for the nominal
    // 140 ms pause that is exactly 4. Scheduler overshoot under CI
    // contention is measured and extends the budget accordingly. Without
    // backoff the same pause re-fired every base RTO — ~14 declarations.
    let base_ms = 10u128;
    let budget_ms = dark.as_millis() + 30;
    let mut allowed = 0u64;
    let mut k = 1u32;
    while base_ms * ((1u128 << k) - 1) <= budget_ms {
        allowed += 1;
        k += 1;
    }
    assert!(
        report.timeouts <= allowed,
        "exponential backoff caps re-fires at {allowed} for a {dark:?} \
         blackout (nominal: 4 for 140 ms; ~14 without backoff): {}",
        report.timeouts
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "backoff reset on the first post-blackout ACK, transfer not wedged: {elapsed:?}"
    );
}

#[test]
fn never_returning_receiver_stalls_within_budget_without_parting_burst() {
    // Both of the engine's budget paths, on real sockets: a window
    // algorithm enforces the budget off the RTO timer, a pure rate
    // algorithm off the loss scan.
    for algo in ["cubic", "pcc"] {
        never_returning_receiver_stalls(algo);
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "this test times a real loopback transfer; wall clock is the thing under test, not a simulation input"
)]
fn never_returning_receiver_stalls(algo: &str) {
    install_registry();
    // Graceful-degradation hardening: a receiver that ACKs the start of a
    // transfer and then goes silent *forever* must not be retried on the
    // capped-backoff timer until the heat death of the universe. With a
    // dead-time budget configured the sender aborts with a typed
    // `TransferError::Stalled` carrying partial-progress stats, and the
    // abort happens *before* the whole-window retransmission burst — the
    // dead path goes quiet, it is not hammered one last time on the way
    // out.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use pcc_transport::TransferError;
    use pcc_udp::wire::{decode, encode_ack, AckPacket, Frame};

    /// ACKs normally until `ack_until_bytes` unique bytes arrived, then
    /// never ACKs again — but keeps draining datagrams, timestamping each
    /// data arrival, so the test can prove the sender stopped transmitting
    /// once it declared the transfer stalled.
    fn receive_then_vanish(
        socket: &UdpSocket,
        ack_until_bytes: u64,
        stop: &AtomicBool,
    ) -> std::io::Result<Vec<Instant>> {
        let start = Instant::now();
        let mut buf = vec![0u8; 65_536];
        let mut cum_ack = 0u64;
        let mut unique = 0u64;
        let mut arrivals = Vec::new();
        socket.set_nonblocking(true)?;
        while !stop.load(Ordering::Relaxed) {
            let (n, from) = match socket.recv_from(&mut buf) {
                Ok(ok) => ok,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_micros(500));
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let Some(Frame::Data(h, payload)) = decode(&buf[..n]) else {
                continue;
            };
            arrivals.push(Instant::now());
            if unique >= ack_until_bytes {
                // Gone dark, for good.
                continue;
            }
            if h.seq == cum_ack {
                cum_ack += 1;
                unique += payload.len() as u64;
            }
            let ack = AckPacket {
                acked_seq: h.seq,
                cum_ack,
                echo_sent_us: h.sent_us,
                recv_us: start.elapsed().as_micros() as u64,
                of_retx: h.retx,
                probe_train: h.probe_train,
            };
            socket.send_to(&encode_ack(&ack), from)?;
        }
        Ok(arrivals)
    }

    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 256 * 1024;
    let ack_until: u64 = 32 * 1024;
    let budget = Duration::from_millis(400);
    let stop = Arc::new(AtomicBool::new(false));
    let rx_stop = Arc::clone(&stop);
    let rx = thread::spawn(move || receive_then_vanish(&rx_sock, ack_until, &rx_stop));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 7,
        dead_time_budget: Some(budget),
        ..Default::default()
    };
    let t0 = Instant::now();
    let err = send_named(&tx_sock, rx_addr, cfg, algo, SimDuration::from_millis(2))
        .expect_err("a permanently silent receiver must abort the transfer");
    let aborted_at = Instant::now();
    let elapsed = t0.elapsed();

    // Give any in-flight loopback datagrams time to land, then stop the
    // receiver and inspect what it saw.
    thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let arrivals = rx.join().expect("join").expect("receive");

    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    let stalled = err
        .get_ref()
        .and_then(|inner| inner.downcast_ref::<TransferError>())
        .expect("the io::Error wraps the typed stall");
    let TransferError::Stalled {
        dark_ms,
        timeouts,
        acked_bytes,
    } = *stalled;
    assert!(
        dark_ms >= budget.as_millis() as u64,
        "the budget was actually exhausted before aborting: {dark_ms} ms"
    );
    assert!(timeouts >= 1, "the stall was declared off the timeout path");
    assert!(
        acked_bytes >= ack_until,
        "partial progress is reported: {acked_bytes} bytes acked"
    );
    assert!(
        acked_bytes < total,
        "the transfer did not secretly complete"
    );
    // Backed-off whole-window fires land at cumulative base·(2^k − 1); the
    // 400 ms budget is crossed by the ~630 ms fire even on a bare 10 ms
    // loopback RTO floor. Allow generous CI-scheduler slack, but nothing
    // like the ~30 s a budget-less sender would burn before the test's own
    // safety net.
    assert!(
        elapsed < Duration::from_secs(10),
        "the stall was declared promptly: {elapsed:?}"
    );
    // No parting burst: the abort fires *before* the retransmission leg,
    // so nothing new hits the wire after it. A 20 ms grace covers
    // loopback delivery + receiver scheduling of datagrams already sent.
    let grace = aborted_at + Duration::from_millis(20);
    let late = arrivals.iter().filter(|&&t| t > grace).count();
    assert_eq!(
        late, 0,
        "no datagrams transmitted after the stall was declared"
    );
}
