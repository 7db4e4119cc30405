//! Fig. 10 — TCP incast in a data center (§4.1.8).
//!
//! `n` senders simultaneously push a fixed block each to one receiver
//! through a 1 Gbps, shallow-buffered top-of-rack port. TCP collapses:
//! synchronized tail drops leave whole windows lost, and with few packets
//! in flight recovery needs a 200 ms minimum RTO — orders of magnitude
//! above the ~100 µs RTT. Goodput = total unique bytes / time until the
//! last flow completes.

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::FlowSize;

use crate::protocol::Protocol;
use crate::setup::{run_dumbbell, FlowPlan, LinkSetup};

/// Data-center port speed (Fig. 10's goodput axis tops at 1000 Mbps).
pub const INCAST_RATE_BPS: f64 = 1e9;
/// Intra-rack RTT.
pub const INCAST_RTT: SimDuration = SimDuration::from_micros(200);
/// Switch buffer per port: deep enough to absorb small-N slow-start
/// bursts (no collapse below ~8 senders, as in the paper), shallow enough
/// that synchronized incast overwhelms it.
pub const INCAST_BUFFER_BYTES: u64 = 256_000;

/// Result of one incast round.
#[derive(Clone, Copy, Debug)]
pub struct IncastResult {
    /// Aggregate goodput in Mbit/s (total unique data over the time the
    /// slowest flow took).
    pub goodput_mbps: f64,
    /// Number of flows that completed within the horizon.
    pub completed: usize,
    /// The slowest flow's completion time.
    pub max_fct: Option<SimDuration>,
}

/// Run one incast round: `n` senders, `block_bytes` each, synchronized
/// start. Only FCTs are read, so no flow is sampled.
pub fn run_incast(protocol: Protocol, n: usize, block_bytes: u64, seed: u64) -> IncastResult {
    let setup = LinkSetup::new(INCAST_RATE_BPS, INCAST_RTT, INCAST_BUFFER_BYTES);
    let plans = (0..n)
        .map(|_| {
            FlowPlan::new(protocol.clone(), INCAST_RTT)
                .sized(FlowSize::Bytes(block_bytes))
                .unsampled()
        })
        .collect();
    // Generous horizon: even a collapsed TCP round finishes in seconds.
    let horizon = SimTime::from_secs(30);
    let r = run_dumbbell(setup, plans, horizon, seed);
    let mut max_fct: Option<SimDuration> = None;
    let mut completed = 0;
    for i in 0..n {
        if let Some(fct) = r.fct(i) {
            completed += 1;
            max_fct = Some(match max_fct {
                Some(m) => m.max(fct),
                None => fct,
            });
        }
    }
    let goodput_mbps = if completed == n {
        let total_bits = (block_bytes * n as u64) as f64 * 8.0;
        total_bits / max_fct.expect("all completed").as_secs_f64() / 1e6
    } else {
        // Count unfinished rounds as the horizon (strongly penalized).
        let total_bits = (block_bytes * n as u64) as f64 * 8.0;
        total_bits / horizon.as_secs_f64() / 1e6
    };
    IncastResult {
        goodput_mbps,
        completed,
        max_fct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_senders_no_collapse() {
        // 2 senders' bursts fit the switch buffer; TCP finishes in a few
        // RTTs at high goodput.
        let r = run_incast(Protocol::Tcp("newreno"), 2, 256 * 1024, 1);
        assert_eq!(r.completed, 2);
        assert!(r.goodput_mbps > 300.0, "no collapse: {}", r.goodput_mbps);
    }

    #[test]
    fn tcp_collapses_with_many_senders() {
        let few = run_incast(Protocol::Tcp("newreno"), 2, 256 * 1024, 2);
        let many = run_incast(Protocol::Tcp("newreno"), 24, 256 * 1024, 2);
        assert!(
            many.goodput_mbps < few.goodput_mbps / 5.0,
            "incast collapse: {} (24 senders) vs {} (2)",
            many.goodput_mbps,
            few.goodput_mbps
        );
    }

    #[test]
    fn pcc_sustains_goodput_under_incast() {
        let pcc = run_incast(Protocol::named("pcc"), 24, 256 * 1024, 3);
        let tcp = run_incast(Protocol::Tcp("newreno"), 24, 256 * 1024, 3);
        assert_eq!(pcc.completed, 24, "all PCC flows complete");
        assert!(
            pcc.goodput_mbps > 100.0,
            "PCC sustains real goodput: {} Mbps",
            pcc.goodput_mbps
        );
        assert!(
            pcc.goodput_mbps > 5.0 * tcp.goodput_mbps,
            "PCC {} Mbps ≫ TCP {} Mbps at 24 senders",
            pcc.goodput_mbps,
            tcp.goodput_mbps
        );
    }
}
