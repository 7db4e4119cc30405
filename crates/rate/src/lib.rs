//! # pcc-rate — rate-based baselines: SABUL/UDT and PCP
//!
//! The two non-TCP transports the paper compares against in §4.1.1, both
//! as rate-driving [`pcc_transport::CongestionControl`] implementations
//! (they call `set_rate` only, so any engine runs them paced):
//!
//! * [`Sabul`] — UDT-style fixed-clock AIMD rate control (scientific data
//!   transfer). Reproduces the overshoot/fall-back oscillation the paper
//!   measures (SABUL's 11.5% average loss vs PCC's 3.1%).
//! * [`Pcp`] — packet-train available-bandwidth probing. Reproduces the
//!   dispersion mis-estimation failure mode (§5's "continuously wrongly
//!   estimates ... 50−60 Mbps" on a clean 100 Mbps link).
//!
//! Simplifications relative to the original codebases are documented on
//! each type; both preserve the control laws the paper's comparison is
//! about. [`register_algorithms`] installs them as `sabul` and `pcp` in
//! the workspace-wide [`pcc_transport::registry`]. Both take per-ACK
//! events by preference and implement `on_report` too, so a host may batch
//! them.

mod pcp;
mod sabul;

pub use pcp::Pcp;
pub use sabul::Sabul;

use pcc_simnet::time::SimDuration;
use pcc_transport::registry;
use pcc_transport::spec::{ParamKind, ParamSpec, Schema};

/// SABUL's spec parameters (`sabul:syn_ms=20,decrease=0.8`): the UDT
/// control-law constants.
pub const SABUL_SCHEMA: Schema = &[
    ParamSpec {
        key: "syn_ms",
        kind: ParamKind::Int { min: 1, max: 1000 },
        doc: "SYN control-clock interval, milliseconds (UDT: 10)",
    },
    ParamSpec {
        key: "decrease",
        kind: ParamKind::Float {
            min: 0.1,
            max: 0.999,
        },
        doc: "multiplicative decrease per NAK (UDT: 1/1.125 ≈ 0.889)",
    },
    ParamSpec {
        key: "rate0_mbps",
        kind: ParamKind::Float {
            min: 0.1,
            max: 10_000.0,
        },
        doc: "starting rate, Mbit/s (default 1)",
    },
];

/// PCP's spec parameters (`pcp:train=16,poll_ms=50`): the probing
/// schedule constants.
pub const PCP_SCHEMA: Schema = &[
    ParamSpec {
        key: "train",
        kind: ParamKind::Int { min: 2, max: 64 },
        doc: "packets per probe train (default 8)",
    },
    ParamSpec {
        key: "poll_ms",
        kind: ParamKind::Int {
            min: 1,
            max: 10_000,
        },
        doc: "interval between probe trains, milliseconds (default 100)",
    },
    ParamSpec {
        key: "rate0_mbps",
        kind: ParamKind::Float {
            min: 0.1,
            max: 10_000.0,
        },
        doc: "starting rate, Mbit/s (default 1)",
    },
];

/// Register `sabul` and `pcp` (with their spec schemas) in the
/// workspace-wide [`pcc_transport::registry`]. Idempotent.
pub fn register_algorithms() {
    registry::register(
        "sabul",
        SABUL_SCHEMA,
        None,
        Box::new(|p| {
            let s = &p.spec;
            Box::new(Sabul::with_params(
                s.u64("syn_ms")
                    .map(SimDuration::from_millis)
                    .unwrap_or(sabul::DEFAULT_SYN),
                s.f64("decrease").unwrap_or(sabul::DEFAULT_DECREASE),
                s.f64("rate0_mbps")
                    .map(|m| m * 1e6)
                    .unwrap_or(sabul::DEFAULT_RATE0_BPS),
            ))
        }),
    );
    registry::register(
        "pcp",
        PCP_SCHEMA,
        None,
        Box::new(|p| {
            let s = &p.spec;
            Box::new(Pcp::with_params(
                s.u64("train").unwrap_or(pcp::DEFAULT_TRAIN_LEN as u64) as u32,
                s.u64("poll_ms")
                    .map(SimDuration::from_millis)
                    .unwrap_or(pcp::DEFAULT_POLL),
                s.f64("rate0_mbps")
                    .map(|m| m * 1e6)
                    .unwrap_or(pcp::DEFAULT_RATE0_BPS),
            ))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_transport::registry::{CcParams, SpecError};

    #[test]
    fn baselines_register() {
        register_algorithms();
        let params = CcParams::default();
        assert_eq!(
            registry::by_name("sabul", &params).expect("sabul").name(),
            "sabul"
        );
        assert_eq!(
            registry::by_name("pcp", &params).expect("pcp").name(),
            "pcp"
        );
        assert!(
            matches!(
                registry::by_name("rate-then-window", &params),
                Err(SpecError::Unknown(_))
            ),
            "the mode switcher is no longer registered"
        );
    }

    #[test]
    fn spec_constants_construct_and_validate() {
        register_algorithms();
        let params = CcParams::default();
        for good in [
            "sabul:syn_ms=20,decrease=0.8",
            "sabul:rate0_mbps=10",
            "pcp:train=16,poll_ms=50",
            "pcp:rate0_mbps=2",
        ] {
            assert!(registry::by_name(good, &params).is_ok(), "{good}");
        }
        for bad in ["sabul:decrease=2", "pcp:train=1", "sabul:nope=1"] {
            let err = match registry::by_name(bad, &params) {
                Ok(_) => panic!("{bad} must fail"),
                Err(e) => e,
            };
            assert!(
                err.to_string().contains("valid keys"),
                "{bad}: lists keys: {err}"
            );
        }
    }
}
