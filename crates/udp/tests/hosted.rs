//! Off-path control plane on the real-socket datapath: one shared
//! [`pcc_transport::CcHost`] drives several concurrent loopback transfers,
//! and the batched report path moves real bytes for both a rate-based and
//! a window-based algorithm.

use std::net::UdpSocket;
use std::sync::Arc;
use std::thread;

use pcc_scenarios::install_registry;
use pcc_simnet::time::SimDuration;
use pcc_transport::cc::ReportMode;
use pcc_transport::host::shared_host;
use pcc_transport::registry::{self, CcParams};
use pcc_udp::{receive, send_hosted, send_named, UdpSenderConfig};

fn sockets() -> (UdpSocket, UdpSocket, std::net::SocketAddr) {
    let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    let rx_addr = rx_sock.local_addr().expect("addr");
    let tx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    (rx_sock, tx_sock, rx_addr)
}

#[test]
fn one_host_drives_concurrent_transfers() {
    // Three flows, three algorithms, one brain: every engine callback
    // funnels through the same CcHost (and its one lock), yet each transfer
    // completes as if it owned its algorithm outright.
    install_registry();
    let host = shared_host();
    let mut workers = Vec::new();
    for (i, name) in ["cubic", "pcc", "rate-then-window"].iter().enumerate() {
        let (rx_sock, tx_sock, rx_addr) = sockets();
        let total: u64 = 512 * 1024;
        let rx = thread::spawn(move || receive(&rx_sock, total));
        let host = Arc::clone(&host);
        workers.push(thread::spawn(move || {
            let cfg = UdpSenderConfig {
                payload: 1200,
                total_bytes: total,
                seed: 31 + i as u64,
                ..Default::default()
            };
            let params = CcParams::default()
                .with_mss((cfg.payload + 40) as u32)
                .with_rtt_hint(SimDuration::from_millis(2));
            let cc = registry::by_name(name, &params).expect("registered");
            let report = send_hosted(&tx_sock, rx_addr, cfg, host, cc).expect("send");
            let rx_report = rx.join().expect("join").expect("receive");
            assert!(rx_report.unique_bytes >= total, "{name}: all bytes arrived");
            assert!(
                report.goodput_mbps > 0.5,
                "{name}: goodput sane: {} Mbps",
                report.goodput_mbps
            );
        }));
    }
    for w in workers {
        w.join().expect("transfer thread");
    }
    // Every HostedCc stub dropped on completion → the host is empty again.
    assert!(
        pcc_simnet::sync::lock(&host).is_empty(),
        "flows deregistered on drop"
    );
}

#[test]
fn batched_reports_move_data_over_loopback() {
    install_registry();
    // Force 1-RTT batched reports on the real-socket engine: per-packet
    // callbacks are withheld, the algorithm only hears report boundaries,
    // and the transfer still completes for a window algorithm (cubic) and
    // a rate algorithm (sabul).
    for (name, seed) in [("cubic", 41u64), ("sabul", 43)] {
        let (rx_sock, tx_sock, rx_addr) = sockets();
        let total: u64 = 512 * 1024;
        let rx = thread::spawn(move || receive(&rx_sock, total));
        let cfg = UdpSenderConfig {
            payload: 1200,
            total_bytes: total,
            seed,
            report: Some(ReportMode::batched_rtt()),
            ..Default::default()
        };
        let report = send_named(&tx_sock, rx_addr, cfg, name, SimDuration::from_millis(2))
            .expect("io")
            .expect("registered");
        let rx_report = rx.join().expect("join").expect("receive");
        assert!(rx_report.unique_bytes >= total, "{name}: all bytes arrived");
        assert!(
            report.goodput_mbps > 0.5,
            "{name}: goodput sane: {} Mbps",
            report.goodput_mbps
        );
    }
}

#[test]
fn mode_switcher_runs_hosted_and_batched() {
    // The acceptance-criteria pincer on the real datapath: rate-then-window
    // starts rate-paced, switches the engine to Window mid-flight via
    // `Effects::set_mode`, with its brain off-path in a CcHost and its
    // feedback batched — and the transfer still lands every byte.
    install_registry();
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 512 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));
    let host = shared_host();
    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 47,
        report: Some(ReportMode::batched_rtt()),
        ..Default::default()
    };
    let params = CcParams::default()
        .with_mss((cfg.payload + 40) as u32)
        .with_rtt_hint(SimDuration::from_millis(2));
    let cc = registry::by_name("rate-then-window", &params).expect("registered");
    let report = send_hosted(&tx_sock, rx_addr, cfg, host, cc).expect("send");
    let rx_report = rx.join().expect("join").expect("receive");
    assert!(rx_report.unique_bytes >= total, "all bytes arrived");
    assert!(report.goodput_mbps > 0.5, "made progress");
}
