//! Quickstart: one PCC flow on a clean 100 Mbps / 30 ms path.
//!
//! Shows the three-layer API — build a network, plug a PCC sender into a
//! flow, run, and read the report. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pcc::prelude::*;

fn main() {
    // 1. A deterministic network: same seed ⇒ bit-identical run.
    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval: SimDuration::from_millis(500),
        seed: 42,
    });

    // 2. Topology: a 100 Mbps bottleneck with a 64 KB drop-tail buffer and
    //    a 30 ms round trip.
    let mut db = Dumbbell::new(
        &mut net,
        LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000),
    );
    let path = db.attach_flow(&mut net, SimDuration::from_millis(30));

    // 3. A PCC sender (paper defaults: safe utility, RCTs, ε = 1%-5%).
    let pcc = PccController::new(PccConfig::paper().with_rtt_hint(SimDuration::from_millis(30)));
    let flow = net.add_flow(FlowSpec {
        sender: Box::new(CcSender::new(CcSenderConfig::default(), Box::new(pcc))),
        receiver: Box::new(SackReceiver::new()),
        fwd_path: path.fwd,
        rev_path: path.rev,
        start_at: SimTime::ZERO,
    });

    // 4. Run 20 simulated seconds and inspect.
    let report = net.build().run_until(SimTime::from_secs(20));
    let stats = &report.flows[flow.index()];

    println!("PCC on 100 Mbps / 30 ms for 20 s:");
    println!("  packets sent      : {}", stats.sent_packets);
    println!("  losses detected   : {}", stats.detected_losses);
    println!(
        "  mean RTT          : {:.2} ms",
        stats.mean_rtt().map(|d| d.as_millis_f64()).unwrap_or(0.0)
    );
    println!("  throughput by 500 ms window:");
    for (i, chunk) in stats.series.throughput_mbps.chunks(8).enumerate() {
        let row: Vec<String> = chunk.iter().map(|v| format!("{v:6.1}")).collect();
        println!("    t={:>2}s  {}", i * 4, row.join(" "));
    }
    let steady = report.avg_throughput_mbps(flow, SimTime::from_secs(5), SimTime::from_secs(20));
    println!("  steady-state throughput: {steady:.1} Mbps of 100");
    assert!(steady > 90.0, "PCC should fill the pipe");
    println!("OK");
}
