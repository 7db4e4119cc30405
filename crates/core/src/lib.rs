//! # pcc-core — Performance-oriented Congestion Control
//!
//! The primary contribution of *PCC: Re-architecting Congestion Control for
//! Consistent High Performance* (Dong, Li, Zarchy, Godfrey, Schapira —
//! NSDI 2015), implemented as a rate-driving
//! [`pcc_transport::CongestionControl`]:
//!
//! * [`utility`] — pluggable utility functions (§2.2, §4.4): the provably
//!   safe sigmoid objective plus latency-sensitive and loss-resilient ones.
//! * [`control`] — the online learning control algorithm (§3.2): Starting /
//!   Decision-Making (randomized controlled trials) / Rate-Adjusting, over
//!   monitor intervals (§3.1) that the engine measures as send epochs
//!   ([`pcc_transport::ReportMode::Epochs`]).
//! * [`fluid`] — the game-theoretic model behind Theorems 1–2, with
//!   numerical verification in its test-suite.
//!
//! Because [`PccController`] speaks the unified congestion-control API, the
//! *same object* drives the deterministic simulator
//! ([`pcc_transport::CcSender`]) and the real-UDP datapath (`pcc-udp`).
//! [`ALGORITHMS`] lists the PCC×utility family (`pcc`, `pcc-simple`,
//! `pcc-lossresilient`, `pcc-latency`) as [`pcc_transport::registry`]
//! entries.
//!
//! ## Quick start (simulation)
//!
//! ```
//! use pcc_core::{PccConfig, PccController};
//! use pcc_simnet::prelude::*;
//! use pcc_transport::{CcSender, CcSenderConfig, SackReceiver};
//!
//! let mut net = NetworkBuilder::new(SimConfig::default());
//! let mut db = Dumbbell::new(&mut net, LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000));
//! let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
//! let pcc = PccController::new(
//!     PccConfig::paper().with_rtt_hint(SimDuration::from_millis(30)),
//! );
//! let flow = net.add_flow(FlowSpec {
//!     sender: Box::new(CcSender::new(CcSenderConfig::default(), Box::new(pcc))),
//!     receiver: Box::new(SackReceiver::new()),
//!     fwd_path: path.fwd,
//!     rev_path: path.rev,
//!     start_at: SimTime::ZERO,
//! });
//! let report = net.build().run_until(SimTime::from_secs(5));
//! let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(3), SimTime::from_secs(5));
//! assert!(tput > 80.0, "PCC fills the pipe: {tput} Mbps");
//! ```

pub mod config;
pub mod control;
pub mod fluid;
pub mod utility;

pub use config::{MiTiming, PccConfig};
pub use control::PccController;
pub use fluid::FluidModel;
pub use utility::{
    sigmoid, CustomUtility, LatencySensitive, LossResilient, MiMetrics, SafeSigmoid,
    SimpleThroughputLoss, UtilityFunction,
};

use pcc_transport::registry::{Algorithm, CcParams};
use pcc_transport::spec::{ParamKind, ParamSpec, Schema, SpecParams};
use pcc_transport::CongestionControl;

/// The PCC family's spec-parameter schema (`pcc:eps=0.05,util=latency`):
/// the §3.2 constants Fig. 16 turns and the utility choice. Shared by all
/// four [`ALGORITHMS`] — a variant is just a different `util`
/// default.
pub const PCC_SCHEMA: Schema = &[
    ParamSpec {
        key: "eps",
        kind: ParamKind::Float {
            min: 1e-4,
            max: 0.5,
        },
        doc: "minimum experiment granularity ε (paper: 0.01)",
    },
    ParamSpec {
        key: "eps_max",
        kind: ParamKind::Float {
            min: 1e-4,
            max: 0.5,
        },
        doc: "ε escalation ceiling (paper: 0.05; raised to ε when below it)",
    },
    ParamSpec {
        key: "tm",
        kind: ParamKind::Float {
            min: 0.5,
            max: 10.0,
        },
        doc: "fixed MI duration in RTT multiples (replaces the randomized 1.7–2.2 timing)",
    },
    ParamSpec {
        key: "rct",
        kind: ParamKind::Bool,
        doc: "randomized controlled trials: two ±ε pairs instead of one",
    },
    ParamSpec {
        key: "util",
        kind: ParamKind::Choice(&["safe", "simple", "lossresilient", "latency"]),
        doc: "utility function (overrides the variant's default objective)",
    },
];

/// Build a [`PccController`] from construction parameters,
/// applying any validated spec keys (see [`PCC_SCHEMA`]) over the paper
/// defaults. `default_util` names the objective used when the spec sets
/// no `util` key — it is what distinguishes the four [`ALGORITHMS`].
///
/// The spec bag is pre-validated by `registry::by_name`, so this never fails; a
/// spec-set ε above the default ε ceiling raises the ceiling rather than
/// violating the `eps_min ≤ eps_max` invariant.
pub fn controller_from_params(params: &CcParams, default_util: &str) -> PccController {
    let s = &params.spec;
    let mut cfg = PccConfig::paper().with_rtt_hint(params.rtt_hint);
    if let Some(eps) = s.f64("eps") {
        cfg.eps_min = eps;
    }
    if let Some(eps_max) = s.f64("eps_max") {
        cfg.eps_max = eps_max;
    }
    cfg.eps_max = cfg.eps_max.max(cfg.eps_min);
    if let Some(tm) = s.f64("tm") {
        cfg.mi_timing = MiTiming::FixedRttMultiple(tm);
    }
    if let Some(rct) = s.bool("rct") {
        cfg.rct = rct;
    }
    let utility: Box<dyn UtilityFunction> = match s.choice("util").unwrap_or(default_util) {
        "simple" => Box::new(SimpleThroughputLoss),
        "lossresilient" => Box::new(LossResilient),
        "latency" => Box::new(LatencySensitive),
        _ => Box::new(SafeSigmoid),
    };
    PccController::with_utility(cfg, utility).with_mss(params.mss)
}

/// Reject an escalation ceiling below ε: it would be silently raised back
/// to ε, so it is refused like any other parameter that cannot take
/// effect. (ε *above* the default ceiling raises the ceiling
/// deliberately, so a lone `eps=0.2` stays valid.)
fn eps_max_not_below_eps(bag: &SpecParams) -> Result<(), (String, String)> {
    let eps = bag.f64("eps").unwrap_or(PccConfig::paper().eps_min);
    match bag.f64("eps_max") {
        Some(eps_max) if eps_max < eps => Err((
            "eps_max".to_string(),
            format!("has no effect below eps ({eps}) — the ceiling is raised to eps"),
        )),
        _ => Ok(()),
    }
}

/// A PCC variant: [`PCC_SCHEMA`] and the ε-ceiling check around `build`.
const fn variant(
    name: &'static str,
    build: fn(&CcParams) -> Box<dyn CongestionControl>,
) -> Algorithm {
    Algorithm {
        name,
        schema: PCC_SCHEMA,
        check: Some(eps_max_not_below_eps),
        build,
    }
}

/// The PCC×utility family:
///
/// * `pcc` — the §2.2 safe sigmoid objective (the default everywhere);
/// * `pcc-simple` — the naive `T − x·L` starting point;
/// * `pcc-lossresilient` — §4.4.2's `T·(1−L)` for extreme-loss links;
/// * `pcc-latency` — §4.4.1's latency-sensitive power objective.
///
/// Every variant carries [`PCC_SCHEMA`], so all of them accept
/// parameterized specs (`"pcc:eps=0.05,util=latency"`,
/// `"pcc-latency:tm=1"`), plus a cross-key check that rejects an
/// escalation ceiling below ε (`"pcc:eps=0.2,eps_max=0.1"` is a typed
/// error, not a silent no-op).
pub const ALGORITHMS: &[Algorithm] = &[
    variant("pcc", |p| Box::new(controller_from_params(p, "safe"))),
    variant("pcc-simple", |p| {
        Box::new(controller_from_params(p, "simple"))
    }),
    variant("pcc-lossresilient", |p| {
        Box::new(controller_from_params(p, "lossresilient"))
    }),
    variant("pcc-latency", |p| {
        Box::new(controller_from_params(p, "latency"))
    }),
];

#[cfg(test)]
mod registry_tests {
    use super::*;
    use pcc_simnet::time::SimDuration;
    use pcc_transport::{registry, spec};

    #[test]
    fn the_table_holds_the_pcc_family() {
        let params = CcParams::default();
        for name in ["pcc", "pcc-simple", "pcc-lossresilient", "pcc-latency"] {
            let cc = registry::by_name(&[ALGORITHMS], name, &params)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(cc.name(), "pcc");
        }
    }

    fn bag(pairs: &[(&str, &str)]) -> CcParams {
        let raw: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        CcParams::default()
            .with_rtt_hint(SimDuration::from_millis(30))
            .with_spec(spec::validate("pcc", PCC_SCHEMA, &raw).expect("valid"))
    }

    #[test]
    fn spec_keys_tune_the_controller() {
        let c = controller_from_params(
            &bag(&[("eps", "0.05"), ("tm", "1.5"), ("rct", "false")]),
            "safe",
        );
        let cfg = c.config();
        assert_eq!(cfg.eps_min, 0.05);
        assert_eq!(cfg.eps_max, 0.05, "ceiling raised to ε, no panic");
        assert_eq!(cfg.mi_timing, MiTiming::FixedRttMultiple(1.5));
        assert!(!cfg.rct);
        assert_eq!(cfg.rtt_hint, SimDuration::from_millis(30));
    }

    #[test]
    fn util_key_overrides_the_variant_default() {
        let c = controller_from_params(&bag(&[("util", "latency")]), "safe");
        assert_eq!(c.utility_name(), "latency-sensitive");
        let c = controller_from_params(&bag(&[]), "lossresilient");
        assert_eq!(c.utility_name(), "loss-resilient");
    }

    #[test]
    fn registry_rejects_bad_pcc_specs_with_typed_errors() {
        let params = CcParams::default();
        for spec_str in ["pcc:eps=0.9", "pcc:util=fastest", "pcc:nope=1"] {
            let err = match registry::by_name(&[ALGORITHMS], spec_str, &params) {
                Ok(_) => panic!("{spec_str} must fail"),
                Err(e) => e,
            };
            let msg = err.to_string();
            assert!(msg.contains("eps=<"), "{spec_str}: lists keys: {msg}");
        }
        // And a valid spec constructs.
        assert!(registry::by_name(&[ALGORITHMS], "pcc:eps=0.05,util=latency", &params).is_ok());
    }

    #[test]
    fn removed_keys_are_typed_errors_listing_the_surviving_ones() {
        let params = CcParams::default();
        for gone in [
            "pcc:slack=4",
            "pcc:mi_pkts=20",
            "pcc:alpha=50",
            "pcc-latency:slope_penalty=5",
            "pcc-simple:cutoff=0.2",
        ] {
            let err = match registry::by_name(&[ALGORITHMS], gone, &params) {
                Ok(_) => panic!("{gone} must fail"),
                Err(registry::SpecError::InvalidParam(e)) => e,
                Err(e) => panic!("{gone}: expected InvalidParam, got {e}"),
            };
            assert!(err.reason.contains("unknown key"), "{gone}: {err}");
            let keys: Vec<&str> = err
                .valid
                .iter()
                .map(|k| k.split('=').next().unwrap_or(k))
                .collect();
            assert_eq!(keys, ["eps", "eps_max", "tm", "rct", "util"], "{gone}");
        }
        assert!(registry::by_name(&[ALGORITHMS], "pcc:util=latency-gradient", &params).is_err());
    }

    #[test]
    fn eps_max_below_eps_is_rejected_not_silently_raised() {
        let params = CcParams::default();
        // An explicit ceiling below ε (spec-set or the 0.01 default)
        // would be silently raised back to ε — typed error instead.
        for bad in ["pcc:eps_max=0.001", "pcc:eps=0.2,eps_max=0.1"] {
            let err = match registry::by_name(&[ALGORITHMS], bad, &params) {
                Ok(_) => panic!("{bad} must fail"),
                Err(e) => e,
            };
            assert!(err.to_string().contains("eps_max"), "{bad}: {err}");
        }
        // Ceiling at or above ε is effective and accepted; a lone ε
        // above the default ceiling still raises the ceiling itself.
        for good in [
            "pcc:eps=0.05,eps_max=0.05",
            "pcc:eps_max=0.2",
            "pcc:eps=0.2",
        ] {
            assert!(
                registry::by_name(&[ALGORITHMS], good, &params).is_ok(),
                "{good}"
            );
        }
    }
}
