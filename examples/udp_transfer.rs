//! Real data over real sockets: any congestion-control algorithm pacing a
//! UDP transfer across loopback — the paper's "user-space implementation
//! that can deliver real data today" (§1), in Rust, generalized to the
//! whole algorithm list, `pcc::ALGORITHMS`.
//!
//! ```text
//! cargo run --release --example udp_transfer                       # PCC (default)
//! cargo run --release --example udp_transfer -- cubic              # any registered name
//! cargo run --release --example udp_transfer -- "cubic:paced=true" # parameterized spec
//! cargo run --release --example udp_transfer -- "pcc:eps=0.05,util=latency"
//! cargo run --release --example udp_transfer -- cubic --batched    # 1-RTT batched reports
//! cargo run --release --example udp_transfer -- list               # every name + its spec keys
//! ```
//!
//! `--batched` flips the engine from per-ACK callbacks to 1-RTT
//! aggregated measurement reports — the off-path control plane's
//! feedback path (see ARCHITECTURE.md's "Measurement reports"). It
//! changes nothing for PCC, which reports by send epochs either way, and
//! the banner says so.

use std::net::UdpSocket;
use std::thread;

use pcc::simnet::time::SimDuration;
use pcc::transport::{registry, ReportMode};
use pcc::udp::{receive, send_named, UdpSenderConfig};
use pcc::ALGORITHMS;

fn main() -> std::io::Result<()> {
    let mut algo = String::from("pcc");
    let mut batched = false;
    let mut spec_set = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--batched" => batched = true,
            other if !spec_set => {
                algo = other.to_string();
                spec_set = true;
            }
            other => {
                eprintln!("unexpected argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if algo == "list" {
        println!("registered algorithms (parameterize with name:key=val,...):");
        for name in registry::names(ALGORITHMS) {
            println!("  {name}");
            for p in registry::schema_of(ALGORITHMS, name).unwrap_or(&[]) {
                println!("      {}=<{}>  {}", p.key, p.kind.describe(), p.doc);
            }
        }
        return Ok(());
    }

    let rx_sock = UdpSocket::bind("127.0.0.1:0")?;
    let rx_addr = rx_sock.local_addr()?;
    let tx_sock = UdpSocket::bind("127.0.0.1:0")?;
    let on_epochs = registry::by_name(ALGORITHMS, &algo, &registry::CcParams::default())
        .is_ok_and(|cc| cc.report_mode() == ReportMode::Epochs);
    let path = match (batched, on_epochs) {
        (true, false) => " on 1-RTT batched reports",
        (true, true) => " on its send-epoch reports (--batched batches per-ACK algorithms only)",
        (false, _) => "",
    };
    println!("receiver on {rx_addr}, sending 16 MB of real datagrams with `{algo}`{path}...");

    let total: u64 = 16 * 1024 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 42,
        report: batched.then(ReportMode::batched_rtt),
        ..Default::default()
    };
    let rtt_hint = SimDuration::from_millis(1);
    let report = match send_named(&tx_sock, rx_addr, cfg, ALGORITHMS, &algo, rtt_hint)? {
        Ok(report) => report,
        Err(unknown) => {
            eprintln!("{unknown}");
            std::process::exit(2);
        }
    };
    let rx_report = rx.join().expect("receiver thread")?;

    println!("transfer complete:");
    println!("  elapsed        : {:?}", report.elapsed);
    println!("  goodput        : {:.1} Mbps", report.goodput_mbps);
    println!("  datagrams sent : {}", report.sent);
    println!("  losses detected: {}", report.losses);
    println!("  duplicates     : {}", rx_report.duplicates);
    if report.final_rate_bps > 0.0 {
        println!("  final rate     : {:.1} Mbps", report.final_rate_bps / 1e6);
    }
    if report.final_cwnd_pkts > 0.0 {
        println!("  final cwnd     : {:.1} pkts", report.final_cwnd_pkts);
    }
    Ok(())
}
