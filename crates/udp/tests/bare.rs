//! The datapath needs no algorithm crate. This binary is its own process
//! and never calls `install_registry`, so the registry holds exactly what
//! the one test below puts there: `send_named` resolves against whatever
//! the process registered, and nothing else.

use std::net::UdpSocket;
use std::thread;

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent};
use pcc_transport::registry::{self, SpecError};
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

#[test]
fn send_named_resolves_against_what_the_process_registered() {
    let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    let rx_addr = rx_sock.local_addr().expect("addr");
    let tx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    let total: u64 = 64 * 1024;
    let cfg = UdpSenderConfig {
        total_bytes: total,
        ..Default::default()
    };
    let rtt = SimDuration::from_millis(2);

    // Nothing installed: even `pcc` is unknown, and the error says why.
    match send_named(&tx_sock, rx_addr, cfg, "pcc", rtt) {
        Ok(Err(SpecError::Unknown(e))) => {
            assert!(e.known.is_empty(), "nothing registered yet: {:?}", e.known);
            assert!(e.to_string().contains("registry is empty"), "{e}");
        }
        other => panic!("expected Unknown from an empty registry, got {other:?}"),
    }

    // One registration later the same call moves data.
    registry::register("bare-fixed", Box::new(|_| Box::new(Fixed)));
    let rx = thread::spawn(move || receive(&rx_sock, total));
    let report = send_named(&tx_sock, rx_addr, cfg, "bare-fixed", rtt)
        .expect("io")
        .expect("bare-fixed is registered");
    let rx_report = rx.join().expect("join").expect("receive");
    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(report.sent >= total / 1200, "sent at least the payload");
}
