//! Fig. 17 and §4.4.2 — alternate utility functions under fair queueing.
//!
//! Fig. 17: two long-running "interactive" flows on a 40 Mbps / 20 ms path
//! want maximal *power* (throughput/delay). TCP needs CoDel in the network
//! to get good power; PCC with the latency-sensitive utility achieves it
//! under either AQM because it simply never builds the queue.
//!
//! §4.4.2: with per-flow FQ isolation, a PCC sender may plug in the
//! loss-resilient utility `T·(1−L)` and keep ~full throughput under
//! 10–50% random loss, where loss-backoff TCP gets nothing.

use pcc_simnet::time::{SimDuration, SimTime};

use crate::protocol::Protocol;
use crate::setup::{run_dumbbell, FlowPlan, LinkSetup, QueueKind};

/// Fig. 17 path parameters.
pub const POWER_RATE_BPS: f64 = 40e6;
/// Fig. 17 base RTT.
pub const POWER_RTT: SimDuration = SimDuration::from_millis(20);

/// Result of one Fig. 17 cell: mean per-flow throughput, delay, and power.
#[derive(Clone, Copy, Debug)]
pub struct PowerResult {
    /// Mean per-flow throughput, Mbit/s.
    pub throughput_mbps: f64,
    /// Mean RTT, milliseconds.
    pub rtt_ms: f64,
    /// Power = throughput / delay (Mbit/s per second of RTT).
    pub power: f64,
}

/// Run two identical interactive flows under the given queue discipline.
pub fn run_power(
    protocol: Protocol,
    queue: QueueKind,
    duration: SimDuration,
    seed: u64,
) -> PowerResult {
    let setup = LinkSetup::new(POWER_RATE_BPS, POWER_RTT, 1 << 20).with_queue(queue);
    let horizon = SimTime::ZERO + duration;
    let r = run_dumbbell(
        setup,
        vec![
            FlowPlan::new(protocol.clone(), POWER_RTT),
            FlowPlan::new(protocol, POWER_RTT),
        ],
        horizon,
        seed,
    );
    let from = SimTime::ZERO + duration.mul_f64(0.2);
    let tput = (r.throughput_in(0, from, horizon) + r.throughput_in(1, from, horizon)) / 2.0;
    // Windowed RTT (the lifetime mean would never forget startup bloat).
    let window_rtt = |i: usize| {
        let s = &r.report.flows[r.flows[i].index()].series.rtt_ms;
        let lo = ((from.as_nanos() / r.report.sample_interval.as_nanos()) as usize).min(s.len());
        let vals: Vec<f64> = s[lo..].iter().copied().filter(|v| v.is_finite()).collect();
        pcc_simnet::stats::mean(&vals)
    };
    let rtt_ms = (window_rtt(0) + window_rtt(1)) / 2.0;
    PowerResult {
        throughput_mbps: tput,
        rtt_ms,
        power: tput / (rtt_ms / 1000.0).max(1e-6),
    }
}

/// The PCC variant used for interactive flows in Fig. 17 (§4.4.1's
/// latency-sensitive utility).
pub fn pcc_interactive() -> Protocol {
    Protocol::named("pcc-latency")
}

/// §4.4.2: one loss-resilient PCC flow (or a TCP baseline) on a 100 Mbps /
/// 30 ms FQ path with extreme random loss. Returns the achieved fraction
/// of the lossy-link optimum `C·(1−loss)`.
pub fn run_high_loss(protocol: Protocol, loss: f64, duration: SimDuration, seed: u64) -> f64 {
    let setup = LinkSetup::new(100e6, SimDuration::from_millis(30), 375_000)
        .with_loss(loss)
        .with_queue(QueueKind::Fq);
    let horizon = SimTime::ZERO + duration;
    let r = run_dumbbell(
        setup,
        vec![FlowPlan::new(protocol, SimDuration::from_millis(30))],
        horizon,
        seed,
    );
    let achieved = r.throughput_in(0, SimTime::ZERO + duration.mul_f64(0.25), horizon);
    let optimal = 100.0 * (1.0 - loss);
    achieved / optimal
}

/// The PCC variant used for §4.4.2 (loss-resilient utility).
pub fn pcc_loss_resilient() -> Protocol {
    Protocol::named("pcc-lossresilient")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_power_needs_codel() {
        // Fig. 17's left half: TCP power under CoDel+FQ far exceeds TCP
        // power under Bufferbloat+FQ.
        let dur = SimDuration::from_secs(20);
        let codel = run_power(Protocol::Tcp("cubic"), QueueKind::FqCodel, dur, 1);
        let bloat = run_power(Protocol::Tcp("cubic"), QueueKind::Bufferbloat, dur, 1);
        assert!(
            codel.power > 3.0 * bloat.power,
            "CoDel rescues TCP: {:.0} vs {:.0}",
            codel.power,
            bloat.power
        );
    }

    #[test]
    fn pcc_power_agnostic_to_aqm() {
        // Fig. 17's right half: PCC+latency-utility gets similar power
        // under CoDel and Bufferbloat — CoDel has nothing to do.
        let dur = SimDuration::from_secs(20);
        let codel = run_power(pcc_interactive(), QueueKind::FqCodel, dur, 2);
        let bloat = run_power(pcc_interactive(), QueueKind::Bufferbloat, dur, 2);
        let ratio = codel.power / bloat.power.max(1e-9);
        assert!(
            (0.5..2.0).contains(&ratio),
            "PCC power ≈ equal: codel {:.0} vs bloat {:.0}",
            codel.power,
            bloat.power
        );
        // And PCC under bufferbloat beats TCP under bufferbloat.
        let tcp_bloat = run_power(Protocol::Tcp("cubic"), QueueKind::Bufferbloat, dur, 2);
        assert!(bloat.power > tcp_bloat.power, "PCC keeps queues empty");
    }

    #[test]
    fn loss_resilient_survives_extreme_loss() {
        // §4.4.2 shape at 30% loss: loss-resilient PCC ≫ CUBIC.
        let dur = SimDuration::from_secs(25);
        let pcc = run_high_loss(pcc_loss_resilient(), 0.3, dur, 3);
        let cubic = run_high_loss(Protocol::Tcp("cubic"), 0.3, dur, 3);
        assert!(pcc > 0.6, "PCC fraction of optimum: {pcc:.2}");
        assert!(pcc > 10.0 * cubic, "CUBIC dead: {cubic:.4}");
    }
}
