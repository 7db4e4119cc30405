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
//! [`register_algorithms`] installs the PCC×utility family (`pcc`,
//! `pcc-simple`, `pcc-lossresilient`, `pcc-latency`) into the
//! [`pcc_transport::registry`].
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
    sigmoid, CustomUtility, LatencyGradient, LatencySensitive, LossResilient, MiMetrics,
    SafeSigmoid, SimpleThroughputLoss, UtilityFunction,
};

use pcc_transport::registry::{self, CcParams};
use pcc_transport::spec::{ParamKind, ParamSpec, Schema};

/// The PCC family's spec-parameter schema (`pcc:eps=0.05,util=latency`):
/// the §3.2 control constants, the MI timing/resolution policy, the
/// utility choice, and the chosen utility's exponents. Shared by all four
/// registered variants — a variant is just a different `util` default.
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
        key: "slack",
        kind: ParamKind::Float {
            min: 0.5,
            max: 20.0,
        },
        doc: "MI-resolution deadline slack, in SRTT multiples (paper-era default 2.5)",
    },
    ParamSpec {
        key: "mi_pkts",
        kind: ParamKind::Int {
            min: 1,
            max: 10_000,
        },
        doc: "minimum packets per MI (paper: 10)",
    },
    ParamSpec {
        key: "rct",
        kind: ParamKind::Bool,
        doc: "randomized controlled trials: two ±ε pairs instead of one",
    },
    ParamSpec {
        key: "util",
        kind: ParamKind::Choice(&[
            "safe",
            "simple",
            "lossresilient",
            "latency",
            "latency-gradient",
        ]),
        doc: "utility function (overrides the variant's default objective)",
    },
    ParamSpec {
        key: "alpha",
        kind: ParamKind::Float { min: 1.0, max: 1e4 },
        doc: "sigmoid steepness α of the utility (paper: 100)",
    },
    ParamSpec {
        key: "cutoff",
        kind: ParamKind::Float {
            min: 1e-3,
            max: 0.5,
        },
        doc: "loss knee of the utility (paper: 0.05)",
    },
    ParamSpec {
        key: "slope_penalty",
        kind: ParamKind::Float { min: 0.0, max: 1e4 },
        doc: "RTT-slope penalty β of the latency-sensitive utility",
    },
];

/// Build a [`PccController`] from registry construction parameters,
/// applying any validated spec keys (see [`PCC_SCHEMA`]) over the paper
/// defaults. `default_util` names the objective used when the spec sets
/// no `util` key — it is what distinguishes the four registered variants.
///
/// The spec bag is pre-validated by the registry, so this never fails; a
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
    if let Some(slack) = s.f64("slack") {
        cfg.deadline_rtts = slack;
    }
    if let Some(n) = s.u64("mi_pkts") {
        cfg.mi_min_packets = n;
    }
    if let Some(rct) = s.bool("rct") {
        cfg.rct = rct;
    }
    let alpha = s.f64("alpha");
    let cutoff = s.f64("cutoff");
    let utility: Box<dyn UtilityFunction> = match s.choice("util").unwrap_or(default_util) {
        "simple" => Box::new(SimpleThroughputLoss),
        "lossresilient" => Box::new(LossResilient),
        "latency" => {
            let mut u = LatencySensitive::default();
            u.alpha = alpha.unwrap_or(u.alpha);
            u.loss_cutoff = cutoff.unwrap_or(u.loss_cutoff);
            u.slope_penalty = s.f64("slope_penalty").unwrap_or(u.slope_penalty);
            Box::new(u)
        }
        "latency-gradient" => {
            let mut u = LatencyGradient::default();
            u.alpha = alpha.unwrap_or(u.alpha);
            u.loss_cutoff = cutoff.unwrap_or(u.loss_cutoff);
            Box::new(u)
        }
        _ => {
            let mut u = SafeSigmoid::default();
            u.alpha = alpha.unwrap_or(u.alpha);
            u.loss_cutoff = cutoff.unwrap_or(u.loss_cutoff);
            Box::new(u)
        }
    };
    PccController::with_utility(cfg, utility).with_mss(params.mss)
}

/// The utility-exponent keys each objective actually reads. A spec that
/// sets an exponent its (explicit or variant-default) utility ignores is
/// rejected with a typed error — sweeping `pcc-simple:alpha=…` would
/// otherwise run N identical simulations and report them as a sweep.
fn utility_reads(util: &str, key: &str) -> bool {
    match util {
        // No constants at all: `T − x·L` and `T·(1−L)`.
        "simple" | "lossresilient" => false,
        // Sigmoid objectives read α and the loss knee; only the
        // Vivace-style latency utility also has the slope penalty β.
        "latency" => true,
        _ => key != "slope_penalty",
    }
}

/// Register the PCC×utility family with the workspace-wide
/// [`pcc_transport::registry`]:
///
/// * `pcc` — the §2.2 safe sigmoid objective (the default everywhere);
/// * `pcc-simple` — the naive `T − x·L` starting point;
/// * `pcc-lossresilient` — §4.4.2's `T·(1−L)` for extreme-loss links;
/// * `pcc-latency` — §4.4.1's latency-sensitive power objective.
///
/// Every variant carries [`PCC_SCHEMA`], so all of them accept
/// parameterized specs (`"pcc:eps=0.05,util=latency"`,
/// `"pcc-latency:slope_penalty=50"`), plus a cross-key check that
/// rejects utility exponents the effective objective ignores
/// (`"pcc-simple:alpha=50"` is a typed error, not a silent no-op).
/// Idempotent.
pub fn register_algorithms() {
    for (name, util) in [
        ("pcc", "safe"),
        ("pcc-simple", "simple"),
        ("pcc-lossresilient", "lossresilient"),
        ("pcc-latency", "latency"),
    ] {
        registry::register(
            name,
            PCC_SCHEMA,
            Some(Box::new(move |bag| {
                let effective = bag.choice("util").unwrap_or(util);
                for key in ["alpha", "cutoff", "slope_penalty"] {
                    if bag.f64(key).is_some() && !utility_reads(effective, key) {
                        return Err((
                            key.to_string(),
                            format!("has no effect with util={effective}"),
                        ));
                    }
                }
                // An escalation ceiling below ε would be silently raised
                // back to ε — reject it instead, like any other
                // parameter that cannot take effect. (ε *above* the
                // default ceiling raises the ceiling deliberately, so a
                // lone `eps=0.2` stays valid.)
                let eps = bag.f64("eps").unwrap_or(PccConfig::paper().eps_min);
                if let Some(eps_max) = bag.f64("eps_max") {
                    if eps_max < eps {
                        return Err((
                            "eps_max".to_string(),
                            format!(
                                "has no effect below eps ({eps}) — the ceiling is raised to eps"
                            ),
                        ));
                    }
                }
                Ok(())
            })),
            Box::new(move |p| Box::new(controller_from_params(p, util))),
        );
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use pcc_simnet::time::SimDuration;
    use pcc_transport::spec;

    #[test]
    fn pcc_family_registers() {
        register_algorithms();
        let params = CcParams::default();
        for name in ["pcc", "pcc-simple", "pcc-lossresilient", "pcc-latency"] {
            let cc = registry::by_name(name, &params).unwrap_or_else(|e| panic!("{name}: {e}"));
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
            &bag(&[
                ("eps", "0.05"),
                ("tm", "1.5"),
                ("slack", "4"),
                ("mi_pkts", "20"),
                ("rct", "false"),
            ]),
            "safe",
        );
        let cfg = c.config();
        assert_eq!(cfg.eps_min, 0.05);
        assert_eq!(cfg.eps_max, 0.05, "ceiling raised to ε, no panic");
        assert_eq!(cfg.mi_timing, MiTiming::FixedRttMultiple(1.5));
        assert_eq!(cfg.deadline_rtts, 4.0);
        assert_eq!(cfg.mi_min_packets, 20);
        assert!(!cfg.rct);
        assert_eq!(cfg.rtt_hint, SimDuration::from_millis(30));
    }

    #[test]
    fn util_key_overrides_the_variant_default() {
        let c = controller_from_params(&bag(&[("util", "latency")]), "safe");
        assert_eq!(c.utility_name(), "latency-sensitive");
        let c = controller_from_params(&bag(&[]), "lossresilient");
        assert_eq!(c.utility_name(), "loss-resilient");
        let c = controller_from_params(&bag(&[("util", "latency-gradient")]), "safe");
        assert_eq!(c.utility_name(), "latency-gradient");
    }

    #[test]
    fn registry_rejects_bad_pcc_specs_with_typed_errors() {
        register_algorithms();
        let params = CcParams::default();
        for spec_str in ["pcc:eps=0.9", "pcc:util=fastest", "pcc:nope=1"] {
            let err = match registry::by_name(spec_str, &params) {
                Ok(_) => panic!("{spec_str} must fail"),
                Err(e) => e,
            };
            let msg = err.to_string();
            assert!(msg.contains("eps=<"), "{spec_str}: lists keys: {msg}");
        }
        // And a valid spec constructs.
        assert!(registry::by_name("pcc:eps=0.05,util=latency", &params).is_ok());
    }

    #[test]
    fn ineffective_utility_exponents_are_rejected() {
        register_algorithms();
        let params = CcParams::default();
        // Exponents the effective utility ignores are typed errors, not
        // silent no-ops (the variant default counts as the utility).
        for bad in [
            "pcc:util=simple,alpha=50",
            "pcc-simple:alpha=50",
            "pcc-lossresilient:cutoff=0.2",
            "pcc:slope_penalty=5",
            "pcc:util=latency-gradient,slope_penalty=5",
        ] {
            let err = match registry::by_name(bad, &params) {
                Ok(_) => panic!("{bad} must fail"),
                Err(e) => e,
            };
            assert!(err.to_string().contains("has no effect"), "{bad}: {err}");
        }
        // The same keys are accepted where the objective reads them.
        for good in [
            "pcc:alpha=50,cutoff=0.1",
            "pcc:util=latency,slope_penalty=5",
            "pcc-latency:alpha=50,slope_penalty=5",
            "pcc-simple:util=latency,alpha=50",
            "pcc:util=latency-gradient,alpha=50",
        ] {
            assert!(registry::by_name(good, &params).is_ok(), "{good}");
        }
    }

    #[test]
    fn eps_max_below_eps_is_rejected_not_silently_raised() {
        register_algorithms();
        let params = CcParams::default();
        // An explicit ceiling below ε (spec-set or the 0.01 default)
        // would be silently raised back to ε — typed error instead.
        for bad in ["pcc:eps_max=0.001", "pcc:eps=0.2,eps_max=0.1"] {
            let err = match registry::by_name(bad, &params) {
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
            assert!(registry::by_name(good, &params).is_ok(), "{good}");
        }
    }
}
