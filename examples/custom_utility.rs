//! Pluggable objectives (§2.4/§4.4): the same PCC machinery optimizing
//! three different goals on the same lossy, fair-queued link.
//!
//! * the safe utility caps loss near 5% — it refuses to push through a 30%
//!   random-loss link;
//! * the loss-resilient utility `T·(1−L)` drives straight through it;
//! * a custom closure can encode anything (here: throughput but with a
//!   hard personal rate cap, e.g. a tenant's billing limit).
//!
//! The first two need no code at all: they are registry *specs*
//! (`"pcc"`, `"pcc:util=lossresilient"`) — the same strings work on the
//! command line of `udp_transfer` and `pcc-experiments sweep`. Only the
//! closure objective requires constructing a controller by hand.
//!
//! ```text
//! cargo run --release --example custom_utility
//! ```

use pcc::core::{CustomUtility, MiMetrics, PccConfig, PccController};
use pcc::prelude::*;
use pcc::scenarios::Protocol;

fn run_with(label: &str, sender: Box<dyn Endpoint>) -> f64 {
    let mut net = NetworkBuilder::new(SimConfig::default());
    let mut db = Dumbbell::new(
        &mut net,
        LinkConfig::bottleneck(100e6, SimDuration::ZERO, 375_000)
            .with_loss(0.30)
            .with_queue(Box::new(FairQueue::new(375_000))),
    );
    let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
    let flow = net.add_flow(FlowSpec {
        sender,
        receiver: Box::new(SackReceiver::new()),
        fwd_path: path.fwd,
        rev_path: path.rev,
        start_at: SimTime::ZERO,
    });
    let report = net.build().run_until(SimTime::from_secs(40));
    let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(10), SimTime::from_secs(40));
    println!("  {label:<28} {tput:7.2} Mbps");
    tput
}

fn main() {
    println!("100 Mbps FQ link with 30% random loss — one PCC flow, three objectives:\n");
    let rtt = SimDuration::from_millis(30);
    let cfg = PccConfig::paper().with_rtt_hint(rtt);

    // 1. The safe utility: loss-capped, as everywhere in §4.1. A plain
    //    registry name (the RTT hint rides on build_sender).
    let safe = Protocol::Named("pcc".into())
        .build_sender(FlowSize::Infinite, rtt, None, None)
        .expect("pcc builds");
    let t_safe = run_with("safe sigmoid (loss-capped)", safe);

    // 2. The §4.4.2 loss-resilient utility — one spec string away.
    let resilient = Protocol::Named("pcc:util=lossresilient".into())
        .build_sender(FlowSize::Infinite, rtt, None, None)
        .expect("spec builds");
    let t_res = run_with("pcc:util=lossresilient", resilient);

    // 3. A custom application objective: loss-resilient, but never above a
    //    personal 25 Mbps budget (e.g. a metered tenant).
    let capped = CustomUtility::new("capped-25mbps", |m: &MiMetrics| {
        let over = (m.x_mbps() - 25.0).max(0.0);
        m.t_mbps() * (1.0 - m.loss_rate) - 10.0 * over * over
    });
    let ctrl = PccController::with_utility(cfg, Box::new(capped));
    let sender = Box::new(CcSender::new(CcSenderConfig::default(), Box::new(ctrl)));
    let t_cap = run_with("custom: resilient, cap 25 Mbps", sender);

    println!();
    assert!(
        t_res > 5.0 * t_safe,
        "resilience objective must punch through"
    );
    assert!(t_cap < 30.0, "custom cap respected");
    println!(
        "Same control machinery, three behaviours: {t_safe:.1} / {t_res:.1} / {t_cap:.1} Mbps.\n\
         No TCP variant can express any of this without a new kernel patch."
    );
}
