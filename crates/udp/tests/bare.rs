//! The datapath needs no algorithm crate: `send_named` resolves against
//! the tables its caller passes, and nothing else.

use std::net::UdpSocket;
use std::thread;

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent};
use pcc_transport::registry::{Algorithm, SpecError};
use pcc_udp::{receive, send_named, UdpSenderConfig};

/// A test-local algorithm: one fixed pacing rate, no reaction to anything.
struct Fixed;
impl CongestionControl for Fixed {
    fn name(&self) -> &'static str {
        "bare-fixed"
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_rate(50e6);
    }
    fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
    fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
}

/// The one table this test passes.
const BARE: &[Algorithm] = &[Algorithm {
    name: "bare-fixed",
    schema: &[],
    check: None,
    build: |_| Box::new(Fixed),
}];

#[test]
fn send_named_resolves_against_the_tables_it_is_passed() {
    let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    let rx_addr = rx_sock.local_addr().expect("addr");
    let tx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    let total: u64 = 64 * 1024;
    let cfg = UdpSenderConfig {
        total_bytes: total,
        ..Default::default()
    };
    let rtt = SimDuration::from_millis(2);

    // `pcc` is in no table passed, so it is unknown; the error lists
    // what the tables hold.
    match send_named(&tx_sock, rx_addr, cfg, &[BARE], "pcc", rtt) {
        Ok(Err(SpecError::Unknown(e))) => assert_eq!(e.known, ["bare-fixed"]),
        other => panic!("expected Unknown, got {other:?}"),
    }

    // The name the table holds moves data.
    let rx = thread::spawn(move || receive(&rx_sock, total));
    let report = send_named(&tx_sock, rx_addr, cfg, &[BARE], "bare-fixed", rtt)
        .expect("io")
        .expect("bare-fixed is in the table");
    let rx_report = rx.join().expect("join").expect("receive");
    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(report.sent >= total / 1200, "sent at least the payload");
}
