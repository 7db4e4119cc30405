//! End-to-end simulation tests: the same `Bbr` object that passed the
//! unit harness must fill real (simulated) pipes through the one
//! `CcSender` engine, with both machineries — pacing and window — live.

use pcc_bbr::Bbr;
use pcc_simnet::prelude::*;
use pcc_transport::registry::CcParams;
use pcc_transport::{CcSender, CcSenderConfig, SackReceiver};

fn run_bbr(link_mbps: f64, rtt_ms: u64, buffer: u64, loss: f64, secs: u64) -> (SimReport, FlowId) {
    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval: SimDuration::from_millis(100),
        seed: 21,
    });
    let mut db = Dumbbell::new(
        &mut net,
        LinkConfig::bottleneck(link_mbps * 1e6, SimDuration::ZERO, buffer).with_loss(loss),
    );
    let path = db.attach_flow(&mut net, SimDuration::from_millis(rtt_ms));
    let params = CcParams::default().with_rtt_hint(SimDuration::from_millis(rtt_ms));
    let flow = net.add_flow(FlowSpec {
        sender: Box::new(CcSender::new(
            CcSenderConfig::default(),
            Box::new(Bbr::new(&params)),
        )),
        receiver: Box::new(SackReceiver::new()),
        fwd_path: path.fwd,
        rev_path: path.rev,
        start_at: SimTime::ZERO,
    });
    (net.build().run_until(SimTime::from_secs(secs)), flow)
}

#[test]
fn fills_a_clean_pipe() {
    let (report, flow) = run_bbr(50.0, 30, 375_000, 0.0, 10);
    let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(2), SimTime::from_secs(10));
    assert!(tput > 42.0, "BBR fills 50 Mbps: {tput:.1}");
}

#[test]
fn holds_throughput_at_one_percent_loss() {
    // The loss-blindness property: random loss doesn't collapse the model.
    let (report, flow) = run_bbr(50.0, 30, 375_000, 0.01, 15);
    let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(5), SimTime::from_secs(15));
    assert!(tput > 40.0, "BBR at 1% loss: {tput:.1}");
}

#[test]
fn deterministic_across_runs() {
    let a = run_bbr(20.0, 20, 75_000, 0.005, 8).0;
    let b = run_bbr(20.0, 20, 75_000, 0.005, 8).0;
    assert_eq!(a.flows[0].delivered_bytes, b.flows[0].delivered_bytes);
    assert_eq!(a.events_processed, b.events_processed);
}
