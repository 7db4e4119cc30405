//! Protocol factory: build any evaluated sender by description.
//!
//! A [`Protocol`] is a [`pcc_transport::registry`] spec and nothing else:
//! [`Protocol::build_cc`] is `registry::by_name(spec, params)` (after
//! [`install_registry`]), [`Protocol::label`] is the spec, and every
//! sender is the same engine — [`CcSender`] — hosting whatever
//! [`pcc_transport::CongestionControl`] the spec names. Specs may carry
//! parameters (`"pcc:eps=0.05,util=latency"`, `"cubic:paced=true"` — see
//! `pcc_transport::spec`), so scenario tables sweep algorithm parameters
//! by string. Unknown names and invalid parameters are a typed
//! [`SpecError`], never a panic.

use std::sync::Once;

use pcc_simnet::endpoint::Endpoint;
use pcc_simnet::time::SimDuration;
use pcc_transport::registry::{self, CcParams, SpecError};
use pcc_transport::{
    CcSender, CcSenderConfig, CongestionControl, FlowSize, ReportMode, TransportConfig,
};

/// Segment size of every sender [`Protocol::build_sender`] builds.
pub const MSS: u32 = 1500;

/// Install every algorithm in the workspace — the PCC×utility family from
/// `pcc-core`, the seven TCP baselines (each with a `paced` key) from
/// `pcc-tcp`, SABUL/PCP from `pcc-rate`, and the BBR-style hybrid from
/// `pcc-bbr` — into the [`pcc_transport::registry`]. Idempotent and
/// cheap; called automatically by [`Protocol::build_sender`]. This is the
/// workspace's one registration list (`pcc::install_registry` re-exports
/// it; `pcc-udp` names no algorithm and resolves against whatever the
/// process registered), so a new algorithm crate is added here and
/// nowhere else.
pub fn install_registry() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        pcc_core::register_algorithms();
        pcc_tcp::register_algorithms();
        pcc_rate::register_algorithms();
        pcc_bbr::register_algorithms();
    });
}

/// A protocol under evaluation: a registry spec — a bare name (`"pcc"`,
/// `"cubic"`) or a parameterized one (`"pcc:rct=false"`,
/// `"cubic:paced=true"`). Both variants hold the same
/// thing; `Tcp` is the `&'static str` spelling the benchmark package
/// compiles against.
#[derive(Clone, Debug)]
pub enum Protocol {
    /// A spec known at compile time (any registered name, not only TCPs).
    Tcp(&'static str),
    /// An owned spec.
    Named(String),
}

impl Protocol {
    /// The protocol `spec` names.
    pub fn named(spec: impl Into<String>) -> Protocol {
        Protocol::Named(spec.into())
    }

    /// `Protocol::named("pcc")`. Source-compat shim for the benchmark
    /// package: the argument is ignored — every sender's RTT hint is its
    /// routed path's base RTT (see [`crate::scenario`]).
    pub fn pcc_default(_rtt_hint: SimDuration) -> Protocol {
        Protocol::named("pcc")
    }

    /// The spec: what tables print and what the registry resolves.
    pub fn label(&self) -> &str {
        match self {
            Protocol::Tcp(spec) => spec,
            Protocol::Named(spec) => spec,
        }
    }

    /// Build just the congestion-control algorithm (shared by the
    /// simulator path here and by real-datapath callers that bring their
    /// own engine). `params` seeds pre-sample state — MSS, and the RTT
    /// hint PCC's starting rate and a paced TCP's initial pacing rate
    /// derive from.
    pub fn build_cc(&self, params: &CcParams) -> Result<Box<dyn CongestionControl>, SpecError> {
        install_registry();
        registry::by_name(self.label(), params)
    }

    /// Build the sender endpoint for a flow of `size` (use
    /// [`FlowSize::Infinite`] for long-running throughput flows) with
    /// [`MSS`]-byte segments — the one way from a protocol description to
    /// an engine. `rtt_hint` is the path's base RTT, threaded into the
    /// algorithm's construction parameters. `report: None` keeps the
    /// algorithm's own [`ReportMode`] preference; `Some(mode)` is the
    /// engine's per-flow override (`CcSenderConfig::report`). With a
    /// `dead_time_budget` the engine aborts the flow as
    /// [`pcc_transport::TransferError::Stalled`] (recorded in
    /// `FlowStats::stalled`) once that long passes without forward
    /// progress while timeouts keep firing, so a wedged flow is a
    /// typed outcome instead of burning the rest of the horizon. Unknown
    /// algorithm names and invalid spec parameters surface as a typed
    /// [`SpecError`].
    pub fn build_sender(
        &self,
        size: FlowSize,
        rtt_hint: SimDuration,
        report: Option<ReportMode>,
        dead_time_budget: Option<SimDuration>,
    ) -> Result<Box<dyn Endpoint>, SpecError> {
        let params = CcParams::default().with_mss(MSS).with_rtt_hint(rtt_hint);
        let cc = self.build_cc(&params)?;
        let cfg = CcSenderConfig {
            transport: TransportConfig { mss: MSS, size },
            report,
            dead_time_budget,
            ..Default::default()
        };
        Ok(Box::new(CcSender::new(cfg, cc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(p: &Protocol) -> Result<Box<dyn Endpoint>, SpecError> {
        let rtt = SimDuration::from_millis(100);
        p.build_sender(FlowSize::Infinite, rtt, None, None)
    }

    #[test]
    fn labels() {
        assert_eq!(Protocol::named("pcc").label(), "pcc");
        assert_eq!(Protocol::Tcp("cubic").label(), "cubic");
        assert_eq!(Protocol::named("pcc:rct=false").label(), "pcc:rct=false");
    }

    #[test]
    fn builders_produce_endpoints() {
        for p in [
            Protocol::named("pcc"),
            Protocol::Tcp("cubic"),
            Protocol::named("pcc:rct=false"),
        ] {
            assert!(build(&p).is_ok(), "buildable: {}", p.label());
        }
    }

    #[test]
    fn unknown_tcp_is_typed_error() {
        let err = match build(&Protocol::Tcp("tahoe")) {
            Ok(_) => panic!("tahoe must not resolve"),
            Err(SpecError::Unknown(e)) => e,
            Err(other) => panic!("expected Unknown, got {other}"),
        };
        assert_eq!(err.name, "tahoe");
        assert!(
            err.known.contains(&"cubic".to_string()),
            "lists known: {err}"
        );
    }

    #[test]
    fn named_specs_resolve_and_invalid_params_are_typed() {
        // A parameterized spec builds a sender exactly like a bare name —
        // the surface the experiments sweep rides on.
        for spec in ["pcc:eps=0.05,util=latency", "cubic:paced=true"] {
            let p = Protocol::Named(spec.into());
            assert_eq!(p.label(), spec, "label is the spec string");
            assert!(build(&p).is_ok(), "{spec} builds");
        }
        let err = match build(&Protocol::Named("cubic:bogus=1".into())) {
            Ok(_) => panic!("bad key must not resolve"),
            Err(SpecError::InvalidParam(e)) => e,
            Err(other) => panic!("expected InvalidParam, got {other}"),
        };
        assert_eq!(err.algo, "cubic");
        assert!(
            err.valid.iter().any(|k| k.contains("paced")),
            "lists cubic's keys: {:?}",
            err.valid
        );
    }

    #[test]
    fn bbr_resolves_through_the_registry() {
        // The hybrid is a first-class registry citizen: scenario builders
        // pick it up by name with zero per-harness code.
        let p = Protocol::Named("bbr".into());
        assert_eq!(p.label(), "bbr");
        assert!(build(&p).is_ok());
    }

    #[test]
    fn every_registered_name_builds_a_sender() {
        install_registry();
        for name in registry::names() {
            let p = Protocol::Named(name.clone());
            assert!(build(&p).is_ok(), "{name} builds");
        }
    }
}
