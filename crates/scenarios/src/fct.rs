//! Fig. 15 — flow completion time for short flows (§4.3.2).
//!
//! 100 KB flows arrive as a Poisson process on a 15 Mbps / 60 ms path; the
//! arrival rate sets the offered load. The question is whether PCC's
//! learning startup hurts short transfers relative to TCP's slow start.
//!
//! A cell is an open-loop churn run: [`fct_config`] describes it as a
//! [`ChurnConfig`] whose size distribution is the one point
//! [`FCT_FLOW_BYTES`], and [`run_churn`](crate::workload::run_churn) runs
//! it; its `overall` summary is the cell's FCT distribution.

use pcc_simnet::time::SimDuration;

use crate::protocol::Protocol;
use crate::setup::LinkSetup;
use crate::workload::{Arrival, ChurnConfig, SizeCdf};

/// Fig. 15 path: 15 Mbps, 60 ms RTT.
pub const FCT_RATE_BPS: f64 = 15e6;
/// Path RTT.
pub const FCT_RTT: SimDuration = SimDuration::from_millis(60);
/// Short-flow size (100 KB).
pub const FCT_FLOW_BYTES: u64 = 100 * 1024;
/// Bottleneck buffer: one bandwidth-delay product of the path.
const FCT_BUFFER_BYTES: u64 = 112_500;

/// The Fig. 15 cell at `load` (fraction of link capacity): Poisson
/// arrivals of [`FCT_FLOW_BYTES`] flows at λ = load·C / (8·size), and
/// `round(λ·duration)` of them, every flow driven by `protocol`.
pub fn fct_config(protocol: Protocol, load: f64, duration: SimDuration, seed: u64) -> ChurnConfig {
    assert!((0.0..1.0).contains(&load), "load must be in (0,1)");
    let arrival = Arrival::poisson_for_load(load, FCT_RATE_BPS, FCT_FLOW_BYTES as f64);
    let flows = (duration.as_secs_f64() / arrival.mean_gap_secs()).round() as u64;
    let cdf = SizeCdf::parse("fig15", &format!("{FCT_FLOW_BYTES} 1")).expect("one point parses");
    let link = LinkSetup::new(FCT_RATE_BPS, FCT_RTT, FCT_BUFFER_BYTES);
    ChurnConfig::new(protocol, link, cdf, arrival, flows, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MSS;
    use crate::workload::{run_churn, ChurnReport};

    fn run_fct(protocol: Protocol, load: f64, duration: SimDuration, seed: u64) -> ChurnReport {
        run_churn(fct_config(protocol, load, duration, seed))
    }

    #[test]
    fn a_cell_is_one_size_at_the_offered_load() {
        let cfg = fct_config(Protocol::Tcp("cubic"), 0.5, SimDuration::from_secs(20), 7);
        // λ = 0.5 · 15e6 / 819 200 ≈ 9.155 flows/s, so 183 flows in 20 s.
        assert_eq!(cfg.flows, 183);
        assert_eq!(cfg.cdf.points(), &[(FCT_FLOW_BYTES, 1.0)]);
        assert_eq!(cfg.cdf.mean_bytes(), FCT_FLOW_BYTES as f64);
    }

    #[test]
    fn light_load_fct_near_ideal() {
        // At 10% load a 100 KB flow on 15 Mbps takes ≥ 100KB·8/15e6 ≈ 55 ms
        // of serialization plus a few RTTs of startup.
        let r = run_fct(Protocol::Tcp("cubic"), 0.10, SimDuration::from_secs(30), 1);
        assert!(
            r.overall.count() > 3,
            "some flows arrived: {}",
            r.overall.count()
        );
        assert_eq!(r.overall.incomplete, 0);
        assert_eq!(r.churn.live_at_end, 0, "every flow retired");
        let med = r.overall.p50_ms();
        assert!(
            (150.0..1500.0).contains(&med),
            "light-load FCT plausible: {med} ms"
        );
    }

    #[test]
    fn pcc_fct_comparable_to_tcp() {
        // Fig. 15's claim: similar FCT at moderate load.
        let dur = SimDuration::from_secs(40);
        let tcp = run_fct(Protocol::Tcp("cubic"), 0.3, dur, 2).overall;
        let pcc = run_fct(Protocol::named("pcc"), 0.3, dur, 2).overall;
        assert_eq!(pcc.incomplete, 0, "all PCC short flows complete");
        // PCC's starting phase doubles once per MI (~2 RTTs, and its first
        // MI lasts the 10 packets at 2·MSS/RTT) vs TCP's once per RTT, so
        // short-flow FCT runs ~2-4x TCP at light load (the gap closes at
        // high load, where queueing dominates — see the fig15 experiment).
        // The paper's point is that PCC does not *fundamentally* harm short
        // flows: same order of magnitude.
        let ratio = pcc.p50_ms() / tcp.p50_ms();
        assert!(
            ratio < 4.5,
            "PCC median {} ms vs TCP {} ms",
            pcc.p50_ms(),
            tcp.p50_ms()
        );
    }

    #[test]
    fn golden_fct_output_survives_summary_rebase() {
        // Exact values of two cells through the churn engine: arrivals,
        // sizes, the run and the percentile math must all come out
        // identical.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        let r = run_fct(Protocol::Tcp("cubic"), 0.2, SimDuration::from_secs(20), 7).overall;
        assert_eq!(r.fcts.len(), 73);
        assert_eq!(r.incomplete, 0);
        assert!(close(r.mean_ms(), 221.273778233), "{}", r.mean_ms());
        assert!(close(r.p50_ms(), 215.800000000), "{}", r.p50_ms());
        assert!(close(r.p95_ms(), 242.986911000), "{}", r.p95_ms());

        let r = run_fct(Protocol::Tcp("cubic"), 0.5, SimDuration::from_secs(20), 11).overall;
        assert_eq!(r.fcts.len(), 183);
        assert_eq!(r.incomplete, 0);
        assert!(close(r.mean_ms(), 253.570096869), "{}", r.mean_ms());
        assert!(close(r.p50_ms(), 231.800000000), "{}", r.p50_ms());
        assert!(close(r.p95_ms(), 467.400000000), "{}", r.p95_ms());
    }

    #[test]
    fn heavier_load_increases_fct() {
        let dur = SimDuration::from_secs(40);
        let light = run_fct(Protocol::Tcp("cubic"), 0.1, dur, 3).overall;
        let heavy = run_fct(Protocol::Tcp("cubic"), 0.6, dur, 3).overall;
        assert!(
            heavy.p95_ms() > light.p95_ms(),
            "queueing at load: {} vs {}",
            heavy.p95_ms(),
            light.p95_ms()
        );
    }

    /// §3's starting phase as written, in packets: the first MI sends at
    /// 2·MSS/RTT, each MI lasts max(10 packets, `u`·RTT), and the rate
    /// doubles every MI. Returns the FCT of a lone `packets`-packet flow
    /// (its last packet's send time plus one RTT for the last ACK) and the
    /// length of the MI that sends that last packet.
    fn starting_phase_fct(packets: f64, u: f64) -> (f64, f64) {
        let rtt = FCT_RTT.as_secs_f64();
        let (mut rate, mut start, mut sent) = (2.0 / rtt, 0.0, 0.0);
        loop {
            let len = f64::max(10.0 / rate, u * rtt);
            if sent + rate * len >= packets {
                return (start + (packets - sent) / rate + rtt, len);
            }
            sent += rate * len;
            start += len;
            rate *= 2.0;
        }
    }

    #[test]
    fn pcc_startup_follows_the_papers_arithmetic_on_fig15s_path() {
        // One arrival on Fig. 15's path with a 1 MB buffer: a lone flow of
        // these sizes never fills the path, so its FCT is the starting
        // phase alone. §3.1 lets an MI
        // last U[1.7, 2.2]·RTT; the flow must finish within one MI of the
        // closed form at either end of that range.
        for bytes in [15 * 1024, FCT_FLOW_BYTES] {
            let packets = bytes.div_ceil(u64::from(MSS)) as f64;
            let (fast, fast_mi) = starting_phase_fct(packets, 1.7);
            let (slow, slow_mi) = starting_phase_fct(packets, 2.2);
            let (lo, hi) = (
                (fast - fast_mi).min(slow - slow_mi),
                (fast + fast_mi).max(slow + slow_mi),
            );
            let lone = ChurnConfig {
                link: LinkSetup::new(FCT_RATE_BPS, FCT_RTT, 1_000_000),
                cdf: SizeCdf::parse("lone", &format!("{bytes} 1")).expect("one point parses"),
                flows: 1,
                ..fct_config(Protocol::named("pcc"), 0.05, SimDuration::from_secs(1), 1)
            };
            let r = run_churn(lone).overall;
            assert_eq!((r.count(), r.incomplete), (1, 0), "the lone flow finishes");
            let fct = r.fcts[0];
            assert!(
                (lo..=hi).contains(&fct),
                "{bytes} B: FCT {fct:.4} s, closed form {fast:.4}–{slow:.4} s \
                 (MIs {fast_mi:.3} / {slow_mi:.3} s)"
            );
        }
    }
}
