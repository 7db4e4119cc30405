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
use pcc_transport::spec::{ParamKind, ParamSpec, Schema};

/// BBR's spec parameters (`bbr:probe_rtt_ms=5000,cwnd_gain=2.5`): the
/// ProbeRTT refresh interval and the steady-state cwnd gain — the two
/// knobs the BBR-variant evaluation literature sweeps most.
pub const BBR_SCHEMA: Schema = &[
    ParamSpec {
        key: "probe_rtt_ms",
        kind: ParamKind::Int {
            min: 100,
            max: 120_000,
        },
        doc: "min-RTT estimate lifetime before a ProbeRTT re-probe, ms (default 10000)",
    },
    ParamSpec {
        key: "cwnd_gain",
        kind: ParamKind::Float { min: 1.0, max: 8.0 },
        doc: "steady-state cwnd gain over the BDP (default 2)",
    },
];

/// Register `bbr` (with [`BBR_SCHEMA`]) in the workspace-wide
/// [`pcc_transport::registry`]. Idempotent.
pub fn register_algorithms() {
    registry::register(
        "bbr",
        BBR_SCHEMA,
        None,
        Box::new(|params| Box::new(Bbr::new(params))),
    );
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use pcc_simnet::time::SimDuration;
    use pcc_transport::registry::CcParams;
    use pcc_transport::spec;

    #[test]
    fn bbr_registers() {
        register_algorithms();
        let cc = registry::by_name("bbr", &CcParams::default()).expect("registered");
        assert_eq!(cc.name(), "bbr");
    }

    #[test]
    fn spec_tunes_probe_rtt_and_cwnd_gain() {
        let raw = vec![
            ("probe_rtt_ms".to_string(), "5000".to_string()),
            ("cwnd_gain".to_string(), "2.5".to_string()),
        ];
        let params =
            CcParams::default().with_spec(spec::validate("bbr", BBR_SCHEMA, &raw).expect("valid"));
        let bbr = Bbr::new(&params);
        assert_eq!(bbr.min_rtt_window(), SimDuration::from_millis(5000));
        assert_eq!(bbr.steady_cwnd_gain(), 2.5);
        // Defaults when the bag is empty.
        let bbr = Bbr::new(&CcParams::default());
        assert_eq!(bbr.min_rtt_window(), MIN_RTT_WINDOW);
        assert_eq!(bbr.steady_cwnd_gain(), CWND_GAIN);
    }

    #[test]
    fn registry_rejects_bad_bbr_specs() {
        register_algorithms();
        let err = match registry::by_name("bbr:probe_rtt_ms=1", &CcParams::default()) {
            Ok(_) => panic!("must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("probe_rtt_ms=<"), "{err}");
        assert!(registry::by_name("bbr:probe_rtt_ms=5000", &CcParams::default()).is_ok());
    }
}
