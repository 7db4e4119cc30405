//! # pcc-tcp — the TCP congestion-control baselines
//!
//! Faithful implementations of every TCP variant the paper evaluates
//! against, as the paper frames them: one machine, packet-level events
//! wired to fixed window responses, with only the response law changing.
//! [`Windowed`] is that machine and the crate's one
//! [`pcc_transport::CongestionControl`]: it owns the [`Window`] (cwnd and
//! ssthresh, starting at the initial window), grows it only outside
//! recovery, collapses it to one packet on a timeout, pushes it to the
//! engine floored at two packets, and reads batched reports as the same
//! events. Each variant is a [`WindowAlgo`] that supplies only its laws —
//! growth on an ACK, the cut on a loss event, the threshold after a
//! timeout — so the same [`pcc_transport::CcSender`] engine, and the
//! real-UDP datapath, runs any of them:
//!
//! | Algorithm | Paper role |
//! |---|---|
//! | [`NewReno`] | textbook AIMD (Figs. 6, 8, 16) |
//! | [`Cubic`] | Linux default, high-BDP baseline (everywhere) |
//! | [`Illinois`] | loss+delay adaptive AIMD (Table 1, Figs. 6, 7, 11) |
//! | [`Hybla`] | satellite-optimized (Fig. 6) |
//! | [`Vegas`] | delay-based (Fig. 16) |
//! | [`Bic`] | binary increase (Fig. 16) |
//! | [`Westwood`] | bandwidth-estimate backoff (Fig. 16) |
//!
//! "TCP pacing" (Fig. 9) is any of these with the `paced=true` spec key
//! (`"cubic:paced=true"`): the same adapter then sets a `cwnd/SRTT` pacing
//! rate *and* the window, two effects on the unified API rather than an
//! engine config flag.
//!
//! Construction by name goes through the workspace-wide
//! [`pcc_transport::registry`] after [`register_algorithms`] has run.

mod bic;
mod common;
mod cubic;
mod hybla;
mod illinois;
mod newreno;
#[cfg(test)]
pub(crate) mod testutil;
mod vegas;
pub mod window;

mod westwood;

pub use bic::Bic;
pub use cubic::Cubic;
pub use hybla::Hybla;
pub use illinois::Illinois;
pub use newreno::NewReno;
pub use vegas::Vegas;
pub use westwood::Westwood;
pub use window::{Window, WindowAlgo, Windowed};

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::CongestionControl;
use pcc_transport::registry::{self, CcParams};
use pcc_transport::spec::{ParamKind, ParamSpec, Schema, SpecParams};

/// CUBIC's spec parameters (`cubic:beta=0.7,c=0.4,iw=32`): the RFC 8312
/// constants plus the initial window and pacing.
pub const CUBIC_SCHEMA: Schema = &[
    ParamSpec {
        key: "beta",
        kind: ParamKind::Float {
            min: 0.1,
            max: 0.95,
        },
        doc: "multiplicative-decrease factor β (RFC 8312: 0.7)",
    },
    ParamSpec {
        key: "c",
        kind: ParamKind::Float {
            min: 0.01,
            max: 10.0,
        },
        doc: "cubic scaling constant C (RFC 8312: 0.4)",
    },
    IW_PARAM,
    PACED_PARAM,
];

/// Vegas' spec parameters (`vegas:alpha=2,beta=4,iw=10`): the backlog
/// band targets plus the initial window and pacing.
pub const VEGAS_SCHEMA: Schema = &[
    ParamSpec {
        key: "alpha",
        kind: ParamKind::Float {
            min: 0.1,
            max: 100.0,
        },
        doc: "lower backlog target α, packets (classic: 2)",
    },
    ParamSpec {
        key: "beta",
        kind: ParamKind::Float {
            min: 0.1,
            max: 100.0,
        },
        doc: "upper backlog target β, packets (classic: 4)",
    },
    IW_PARAM,
    PACED_PARAM,
];

/// The initial-window key every baseline shares.
const IW_PARAM: ParamSpec = ParamSpec {
    key: "iw",
    kind: ParamKind::Int {
        min: 1,
        max: 10_000,
    },
    doc: "initial congestion window, packets (default IW10)",
};

/// The pacing key every baseline shares (`newreno:paced=true`).
const PACED_PARAM: ParamSpec = ParamSpec {
    key: "paced",
    kind: ParamKind::Bool,
    doc: "pace at cwnd·MSS/SRTT; Fig. 9's TCP pacing",
};

/// New Reno's spec parameters (`newreno:iw=32`).
pub const NEWRENO_SCHEMA: Schema = &[IW_PARAM, PACED_PARAM];

/// BIC's spec parameters (`bic:beta=0.7,iw=32`).
pub const BIC_SCHEMA: Schema = &[
    ParamSpec {
        key: "beta",
        kind: ParamKind::Float {
            min: 0.1,
            max: 0.95,
        },
        doc: "multiplicative-decrease factor β (Linux: 819/1024)",
    },
    IW_PARAM,
    PACED_PARAM,
];

/// Hybla's spec parameters (`hybla:rtt0_ms=50,iw=32`).
pub const HYBLA_SCHEMA: Schema = &[
    ParamSpec {
        key: "rtt0_ms",
        kind: ParamKind::Float {
            min: 1.0,
            max: 1_000.0,
        },
        doc: "reference RTT growth is normalized to, ms (classic: 25)",
    },
    IW_PARAM,
    PACED_PARAM,
];

/// Illinois' spec parameters (`illinois:alpha_max=5,beta_max=0.3,iw=32`).
pub const ILLINOIS_SCHEMA: Schema = &[
    ParamSpec {
        key: "alpha_max",
        kind: ParamKind::Float {
            min: 0.5,
            max: 100.0,
        },
        doc: "additive-increase ceiling α_max (Linux: 10)",
    },
    ParamSpec {
        key: "beta_max",
        kind: ParamKind::Float { min: 0.2, max: 1.0 },
        doc: "multiplicative-decrease ceiling β_max (Linux: 0.5)",
    },
    IW_PARAM,
    PACED_PARAM,
];

/// Westwood's spec parameters (`westwood:gain=0.5,iw=32`).
pub const WESTWOOD_SCHEMA: Schema = &[
    ParamSpec {
        key: "gain",
        kind: ParamKind::Float {
            min: 0.01,
            max: 1.0,
        },
        doc: "bandwidth-filter new-sample weight (Linux: 1/8)",
    },
    IW_PARAM,
    PACED_PARAM,
];

/// Builds a baseline from its validated spec keys and the initial window
/// (which only Vegas' first epoch reads: the adapter owns the window).
type Build = fn(&SpecParams, f64) -> Box<dyn WindowAlgo>;

/// One baseline: name, spec schema, constructor.
type Variant = (&'static str, Schema, Build);

/// Every baseline, in the order used by reports; what
/// [`register_algorithms`] registers.
const VARIANTS: &[Variant] = &[
    ("newreno", NEWRENO_SCHEMA, |_, _| Box::new(NewReno)),
    ("cubic", CUBIC_SCHEMA, |s, _| {
        Box::new(Cubic::with_params(
            s.f64("beta").unwrap_or(cubic::DEFAULT_BETA),
            s.f64("c").unwrap_or(cubic::DEFAULT_C),
        ))
    }),
    ("illinois", ILLINOIS_SCHEMA, |s, _| {
        Box::new(Illinois::with_params(
            s.f64("alpha_max").unwrap_or(illinois::ALPHA_MAX),
            s.f64("beta_max").unwrap_or(illinois::BETA_MAX),
        ))
    }),
    ("hybla", HYBLA_SCHEMA, |s, _| {
        Box::new(Hybla::with_params(
            s.f64("rtt0_ms")
                .map(|ms| SimDuration::from_secs_f64(ms / 1000.0))
                .unwrap_or(hybla::RTT0),
        ))
    }),
    ("vegas", VEGAS_SCHEMA, |s, iw| {
        Box::new(Vegas::with_params(
            s.f64("alpha").unwrap_or(vegas::DEFAULT_ALPHA_PKTS),
            s.f64("beta").unwrap_or(vegas::DEFAULT_BETA_PKTS),
            iw,
        ))
    }),
    ("bic", BIC_SCHEMA, |s, _| {
        Box::new(Bic::with_params(s.f64("beta").unwrap_or(bic::BETA)))
    }),
    ("westwood", WESTWOOD_SCHEMA, |s, _| {
        Box::new(Westwood::with_params(
            s.f64("gain").unwrap_or(westwood::DEFAULT_GAIN),
        ))
    }),
];

/// Build the baseline and adapt it onto [`CongestionControl`] at its
/// initial window, paced when its spec says `paced=true`.
fn construct(build: Build, params: &CcParams) -> Box<dyn CongestionControl> {
    let iw = params.spec.f64("iw").unwrap_or(common::INITIAL_CWND);
    let paced = params.spec.bool("paced").unwrap_or(false);
    Box::new(Windowed::new(build(&params.spec, iw), iw, paced, params))
}

/// Register every TCP baseline with the workspace-wide
/// [`pcc_transport::registry`] under its spec schema
/// (`cubic:beta=0.7,iw=32,paced=true`). Idempotent.
pub fn register_algorithms() {
    for &(name, schema, build) in VARIANTS {
        registry::register(
            name,
            schema,
            None,
            Box::new(move |params| construct(build, params)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_installs_the_seven_baselines_and_nothing_else() {
        use pcc_transport::registry::{by_name, names, SpecError};

        register_algorithms();
        let params = pcc_transport::registry::CcParams::default();
        let mut expected: Vec<String> = VARIANTS.iter().map(|v| v.0.to_string()).collect();
        expected.sort();
        assert_eq!(names(), expected, "one name per baseline");
        for &(name, ..) in VARIANTS {
            for spec in [name.to_string(), format!("{name}:paced=true")] {
                let cc = by_name(&spec, &params).unwrap_or_else(|e| panic!("{spec}: {e}"));
                assert_eq!(cc.name(), name);
            }
        }
        // Pacing is a key, not a second name; New Reno has one name.
        for gone in ["cubic-paced", "reno"] {
            assert!(
                matches!(by_name(gone, &params), Err(SpecError::Unknown(_))),
                "{gone} is not registered"
            );
        }
    }

    #[test]
    fn cubic_spec_tunes_iw_and_beta() {
        use pcc_simnet::rng::SimRng;
        use pcc_simnet::time::SimTime;
        use pcc_transport::cc::{Ctx, Effects, LossEvent, LossKind};

        register_algorithms();
        let params = pcc_transport::registry::CcParams::default();
        let mut cc =
            pcc_transport::registry::by_name("cubic:beta=0.5,iw=32", &params).expect("tuned cubic");
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let cwnd = fx.drain().cwnd;
        assert_eq!(cwnd, Some(32.0), "iw=32 reaches the engine");
        let seqs = [0u64];
        let loss = LossEvent {
            now: SimTime::ZERO,
            seqs: &seqs,
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 8,
            mss: 1500,
        };
        cc.on_loss(&loss, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let cwnd = fx.drain().cwnd;
        assert_eq!(cwnd, Some(16.0), "beta=0.5 halves instead of ×0.7");
    }

    #[test]
    fn every_variant_has_a_schema_with_iw_and_paced() {
        register_algorithms();
        for &(name, ..) in VARIANTS {
            let schema = pcc_transport::registry::schema_of(name).expect("registered");
            for key in ["iw", "paced"] {
                assert!(
                    schema.iter().any(|p| p.key == key),
                    "{name} exposes {key}: {schema:?}"
                );
            }
        }
    }

    #[test]
    fn remaining_tcp_specs_resolve_and_tune() {
        use pcc_simnet::rng::SimRng;
        use pcc_simnet::time::SimTime;
        use pcc_transport::cc::{Ctx, Effects};

        register_algorithms();
        let params = pcc_transport::registry::CcParams::default();
        // Each spec builds; iw is observable through the first cwnd effect.
        for spec in [
            "newreno:iw=32",
            "bic:beta=0.5,iw=32",
            "hybla:rtt0_ms=50,iw=32",
            "illinois:alpha_max=5,beta_max=0.3,iw=32",
            "westwood:gain=0.5,iw=32",
            "illinois:alpha_max=5,paced=true",
            "westwood:gain=0.25,paced=true",
        ] {
            let mut cc = pcc_transport::registry::by_name(spec, &params)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let mut rng = SimRng::new(1);
            let mut fx = Effects::default();
            cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
            let cwnd = fx.drain().cwnd;
            if spec.contains("iw=32") {
                assert_eq!(cwnd, Some(32.0), "{spec}: iw reaches the engine");
            }
        }
        // Out-of-range values are typed errors naming the key.
        for bad in [
            "newreno:iw=0",
            "bic:beta=0.99",
            "hybla:rtt0_ms=0.1",
            "illinois:beta_max=0.1",
            "westwood:gain=2",
        ] {
            let err = pcc_transport::registry::by_name(bad, &params)
                .err()
                .unwrap_or_else(|| panic!("{bad} must fail"));
            assert!(
                matches!(err, pcc_transport::registry::SpecError::InvalidParam(_)),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn vegas_spec_tunes_the_band_and_iw() {
        register_algorithms();
        let params = pcc_transport::registry::CcParams::default();
        assert!(
            pcc_transport::registry::by_name("vegas:alpha=3,beta=6,iw=4", &params).is_ok(),
            "tuned vegas constructs"
        );
        // Tuning applies to a paced Vegas too (same schema).
        assert!(
            pcc_transport::registry::by_name("vegas:alpha=3,beta=6,paced=true", &params).is_ok()
        );
        // Out-of-range band is a typed error listing keys.
        let err = match pcc_transport::registry::by_name("vegas:alpha=1000", &params) {
            Ok(_) => panic!("must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("alpha=<"), "{err}");
    }
}
