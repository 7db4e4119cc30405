//! # pcc-bbr — a BBR-style model-based congestion controller
//!
//! The first genuine *hybrid* on the workspace's unified
//! [`pcc_transport::CongestionControl`] API (the modern baseline the
//! paper's evaluation is compared against; see "An Evaluation of BBR and
//! its variants" in PAPERS.md). Where PCC learns its rate empirically
//! from utility measurements and the TCPs react to loss, BBR builds an
//! explicit *model* of the path — a windowed-max filter over
//! delivery-rate samples estimates the bottleneck bandwidth, a
//! windowed-min filter estimates the propagation RTT — and drives a
//! four-phase state machine over it:
//!
//! * **Startup**: pacing gain `2/ln 2` doubles the rate each round until
//!   the bandwidth estimate plateaus (three rounds below 25% growth);
//! * **Drain**: the inverse gain removes the queue Startup built;
//! * **ProbeBW**: an eight-slot gain cycle (`1.25, 0.75, 1 × 6`) probes
//!   for more bandwidth and immediately drains what the probe queued;
//! * **ProbeRTT**: when the min-RTT estimate goes 10 s without a refresh,
//!   the window drops to 4 packets for ~200 ms to re-measure the
//!   propagation delay honestly.
//!
//! Every control decision requests **both** effects —
//! `set_rate(pacing_gain · btl_bw)` *and* `set_cwnd(cwnd_gain · BDP)` —
//! so the engine ([`pcc_transport::CcSender`], in simulation and under
//! `pcc-udp` on real sockets) enforces pacing and window simultaneously:
//! the cap the rate-based machinery needs plus the inflight bound that
//! keeps a wrong bandwidth estimate from flooding the path.
//!
//! [`register_algorithms`] installs it as `bbr` in the workspace-wide
//! [`pcc_transport::registry`], which makes it constructible by name from
//! the scenario builders, the conformance suite, the experiments binary,
//! and the real-UDP datapath with zero per-harness code.

mod bbr;
pub mod model;

pub use bbr::{
    Bbr, BW_WINDOW_ROUNDS, CWND_GAIN, CYCLE_GAINS, DRAIN_GAIN, MIN_CWND_PKTS, MIN_RTT_WINDOW,
    PROBE_RTT_DURATION, STARTUP_GAIN,
};

use pcc_transport::registry;

/// Register `bbr` in the workspace-wide [`pcc_transport::registry`]. It
/// takes no spec keys: every constant is BBR v1's. Idempotent.
pub fn register_algorithms() {
    registry::register(
        "bbr",
        &[],
        None,
        Box::new(|params| Box::new(Bbr::new(params))),
    );
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use pcc_transport::registry::{CcParams, SpecError};

    #[test]
    fn bbr_registers() {
        register_algorithms();
        let cc = registry::by_name("bbr", &CcParams::default()).expect("registered");
        assert_eq!(cc.name(), "bbr");
    }

    #[test]
    fn removed_keys_are_typed_errors() {
        register_algorithms();
        for gone in ["bbr:probe_rtt_ms=5000", "bbr:cwnd_gain=2.5"] {
            let err = match registry::by_name(gone, &CcParams::default()) {
                Ok(_) => panic!("{gone} must fail"),
                Err(SpecError::InvalidParam(e)) => e,
                Err(e) => panic!("{gone}: expected InvalidParam, got {e}"),
            };
            assert!(err.to_string().contains("takes no parameters"), "{err}");
        }
    }
}
