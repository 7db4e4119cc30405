//! Data-center incast (§4.1.8): many synchronized senders, one receiver,
//! one shallow switch port.
//!
//! TCP's goodput collapses once the senders' bursts overwhelm the port
//! buffer — whole window tails get lost and recovery is RTO-bound at a
//! 200 ms minimum on a 200 µs RTT. PCC keeps its pacing near the fair
//! share and sails through.
//!
//! ```text
//! cargo run --release --example datacenter_incast
//! ```

use pcc::scenarios::incast::run_incast;
use pcc::scenarios::Protocol;

fn main() {
    let block = 256 * 1024;
    println!("Incast: N senders each push 256 KB to one receiver (1 Gbps, 200 us RTT)\n");
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "senders", "tcp [Mbps]", "pcc [Mbps]", "pcc/tcp"
    );
    for n in [2, 4, 8, 16, 24, 33] {
        let tcp = run_incast(Protocol::Tcp("newreno"), n, block, 11);
        let pcc = run_incast(Protocol::named("pcc"), n, block, 11);
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>9.1}x   (tcp {}/{} done, pcc {}/{} done)",
            n,
            tcp.goodput_mbps,
            pcc.goodput_mbps,
            pcc.goodput_mbps / tcp.goodput_mbps.max(0.01),
            tcp.completed,
            n,
            pcc.completed,
            n,
        );
    }
    println!("\nTCP collapses as senders multiply; PCC's goodput keeps climbing.");
}
