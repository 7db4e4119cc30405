//! Figs. 4–5 — the "big data transfer in the wild" population (§4.1.1).
//!
//! The paper measures 510 sender–receiver pairs across PlanetLab/GENI with
//! BDPs from 14.3 KB to 18 MB. We synthesize a path population spanning the
//! same ranges: log-uniform bandwidth and RTT (clamped to the paper's BDP
//! envelope), a heavy-tailed sprinkle of random loss (old routers, failing
//! wires — §1), and widely varying buffer depths (from severely
//! under-buffered gateways to bufferbloat). Each protocol runs alone on
//! each path; Fig. 5 is the CDF of per-path throughput ratios vs PCC.

use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};

use crate::protocol::Protocol;
use crate::setup::{run_single, LinkSetup};

/// One synthesized wide-area path.
#[derive(Clone, Copy, Debug)]
pub struct InternetPath {
    /// Bottleneck rate, bits/sec.
    pub rate_bps: f64,
    /// Round-trip time.
    pub rtt: SimDuration,
    /// Bottleneck buffer, bytes.
    pub buffer_bytes: u64,
    /// Random loss probability.
    pub loss: f64,
}

impl InternetPath {
    /// Bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> f64 {
        self.rate_bps * self.rtt.as_secs_f64() / 8.0
    }

    /// The [`LinkSetup`] for this path.
    pub fn setup(&self) -> LinkSetup {
        LinkSetup::new(self.rate_bps, self.rtt, self.buffer_bytes).with_loss(self.loss)
    }
}

fn log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    (rng.range_f64(lo.ln(), hi.ln())).exp()
}

/// Draw `n` paths spanning the paper's population (BDP 14.3 KB – 18 MB).
pub fn sample_paths(n: usize, seed: u64) -> Vec<InternetPath> {
    let mut rng = SimRng::new(seed);
    let mut paths = Vec::with_capacity(n);
    while paths.len() < n {
        let rate_bps = log_uniform(&mut rng, 2e6, 600e6);
        let rtt = SimDuration::from_secs_f64(log_uniform(&mut rng, 0.010, 0.400));
        let bdp = rate_bps * rtt.as_secs_f64() / 8.0;
        // Keep within the paper's measured envelope.
        if !(14_300.0..=18_000_000.0).contains(&bdp) {
            continue;
        }
        // Half the paths see some random loss (old infrastructure,
        // wireless segments); the other half are clean.
        let loss = if rng.chance(0.5) {
            log_uniform(&mut rng, 0.0002, 0.02)
        } else {
            0.0
        };
        // Buffers from 2% of BDP (under-buffered gateways, rate shapers)
        // to 2×BDP (bufferbloat), floored at a few packets.
        let buffer_bytes = (log_uniform(&mut rng, 0.02, 2.0) * bdp).max(4_500.0) as u64;
        paths.push(InternetPath {
            rate_bps,
            rtt,
            buffer_bytes,
            loss,
        });
    }
    paths
}

/// Throughput (Mbit/s) of one protocol alone on one path.
pub fn path_throughput(
    protocol: Protocol,
    path: &InternetPath,
    duration: SimDuration,
    seed: u64,
) -> f64 {
    let r = run_single(protocol, path.setup(), duration, seed);
    let horizon = SimTime::ZERO + duration;
    r.throughput_in(0, SimTime::ZERO + duration.mul_f64(0.15), horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_spans_paper_envelope() {
        let paths = sample_paths(200, 77);
        assert_eq!(paths.len(), 200);
        let bdps: Vec<f64> = paths.iter().map(|p| p.bdp_bytes()).collect();
        let min = bdps.iter().copied().fold(f64::MAX, f64::min);
        let max = bdps.iter().copied().fold(f64::MIN, f64::max);
        assert!(min >= 14_300.0, "floor respected: {min}");
        assert!(max <= 18_000_000.0, "cap respected: {max}");
        assert!(max / min > 50.0, "population is diverse");
        let lossy = paths.iter().filter(|p| p.loss > 0.0).count();
        assert!((60..140).contains(&lossy), "≈half lossy: {lossy}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_paths(50, 5);
        let b = sample_paths(50, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rate_bps.to_bits(), y.rate_bps.to_bits());
        }
    }

    #[test]
    fn pcc_beats_cubic_on_a_lossy_high_bdp_path() {
        let path = InternetPath {
            rate_bps: 100e6,
            rtt: SimDuration::from_millis(120),
            buffer_bytes: 60_000, // ~4% BDP: under-buffered
            loss: 0.004,
        };
        let dur = SimDuration::from_secs(15);
        let pcc = path_throughput(Protocol::named("pcc"), &path, dur, 1);
        let cubic = path_throughput(Protocol::Tcp("cubic"), &path, dur, 1);
        assert!(
            pcc > 5.0 * cubic,
            "the wild favors PCC: {pcc:.1} vs {cubic:.1} Mbps"
        );
    }
}
