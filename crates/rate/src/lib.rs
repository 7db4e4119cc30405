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
//! about. [`ALGORITHMS`] lists them as `sabul` and `pcp`
//! [`pcc_transport::registry`] entries. Both take per-ACK
//! events by preference and implement `on_report` too, so a host may batch
//! them.

mod pcp;
mod sabul;

pub use pcp::Pcp;
pub use sabul::Sabul;

use pcc_transport::registry::Algorithm;

/// `sabul` and `pcp`. Neither takes spec keys: both run at the constants
/// the paper's comparison used.
pub const ALGORITHMS: &[Algorithm] = &[
    Algorithm {
        name: "sabul",
        schema: &[],
        check: None,
        build: |_| Box::new(Sabul::new()),
    },
    Algorithm {
        name: "pcp",
        schema: &[],
        check: None,
        build: |_| Box::new(Pcp::new()),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_transport::registry::{self, CcParams, SpecError};

    #[test]
    fn the_table_holds_both_baselines() {
        let params = CcParams::default();
        assert_eq!(
            registry::by_name(&[ALGORITHMS], "sabul", &params)
                .expect("sabul")
                .name(),
            "sabul"
        );
        assert_eq!(
            registry::by_name(&[ALGORITHMS], "pcp", &params)
                .expect("pcp")
                .name(),
            "pcp"
        );
        assert!(
            matches!(
                registry::by_name(&[ALGORITHMS], "rate-then-window", &params),
                Err(SpecError::Unknown(_))
            ),
            "the mode switcher is no longer registered"
        );
    }

    #[test]
    fn removed_keys_are_typed_errors() {
        let params = CcParams::default();
        for gone in [
            "sabul:syn_ms=20",
            "sabul:decrease=0.8",
            "sabul:rate0_mbps=10",
            "pcp:train=16",
            "pcp:poll_ms=50",
            "pcp:rate0_mbps=2",
        ] {
            let err = match registry::by_name(&[ALGORITHMS], gone, &params) {
                Ok(_) => panic!("{gone} must fail"),
                Err(SpecError::InvalidParam(e)) => e,
                Err(e) => panic!("{gone}: expected InvalidParam, got {e}"),
            };
            assert!(err.to_string().contains("takes no parameters"), "{err}");
        }
    }
}
