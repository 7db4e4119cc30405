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

use pcc_transport::cc::CongestionControl;
use pcc_transport::registry::{self, CcParams};
use pcc_transport::spec::{ParamKind, ParamSpec, Schema};

/// Every baseline's spec parameters: only the pacing switch
/// (`newreno:paced=true`, Fig. 9's TCP pacing). Each variant runs at its
/// RFC or kernel constants and the IW10 initial window.
const TCP_SCHEMA: Schema = &[ParamSpec {
    key: "paced",
    kind: ParamKind::Bool,
    doc: "pace at cwnd·MSS/SRTT; Fig. 9's TCP pacing",
}];

/// Builds a baseline's window laws.
type Build = fn() -> Box<dyn WindowAlgo>;

/// Every baseline, in the order used by reports; what
/// [`register_algorithms`] registers.
const VARIANTS: &[(&str, Build)] = &[
    ("newreno", || Box::new(NewReno)),
    ("cubic", || Box::<Cubic>::default()),
    ("illinois", || Box::<Illinois>::default()),
    ("hybla", || Box::<Hybla>::default()),
    ("vegas", || Box::<Vegas>::default()),
    ("bic", || Box::<Bic>::default()),
    ("westwood", || Box::<Westwood>::default()),
];

/// Build the baseline and adapt it onto [`CongestionControl`], paced when
/// its spec says `paced=true`.
fn construct(build: Build, params: &CcParams) -> Box<dyn CongestionControl> {
    let paced = params.spec.bool("paced").unwrap_or(false);
    Box::new(Windowed::new(build(), paced, params))
}

/// Register every TCP baseline with the workspace-wide
/// [`pcc_transport::registry`], each taking the one `paced` key
/// (`cubic:paced=true`). Idempotent.
pub fn register_algorithms() {
    for &(name, build) in VARIANTS {
        registry::register(
            name,
            TCP_SCHEMA,
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
    fn removed_keys_are_typed_errors_listing_paced() {
        use pcc_transport::registry::{by_name, SpecError};

        register_algorithms();
        let params = pcc_transport::registry::CcParams::default();
        for gone in [
            "newreno:iw=32",
            "cubic:beta=0.5",
            "cubic:c=0.4",
            "vegas:alpha=3,beta=6",
            "bic:beta=0.7",
            "hybla:rtt0_ms=50",
            "illinois:alpha_max=5",
            "westwood:gain=0.5",
        ] {
            let err = match by_name(gone, &params) {
                Ok(_) => panic!("{gone} must fail"),
                Err(SpecError::InvalidParam(e)) => e,
                Err(e) => panic!("{gone}: expected InvalidParam, got {e}"),
            };
            assert!(err.reason.contains("unknown key"), "{gone}: {err}");
            assert_eq!(err.valid, ["paced=<bool>"], "{gone}");
        }
    }
}
