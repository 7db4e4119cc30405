//! Protocol factory: build any evaluated sender by description.
//!
//! Every variant resolves through the workspace-wide
//! [`pcc_transport::registry`] (installed by [`install_registry`], which
//! [`Protocol::build_sender`] calls automatically), and every sender is the
//! same engine — [`CcSender`] — hosting whatever
//! [`pcc_transport::CongestionControl`] the description names.
//! [`Protocol::Named`] accepts parameterized specs
//! (`"pcc:eps=0.05,util=latency"`, `"cubic:iw=32"` — see
//! `pcc_transport::spec`), so scenario tables can sweep algorithm
//! parameters by string. Unknown names and invalid parameters are a typed
//! [`SpecError`], never a panic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

use pcc_core::{
    LatencySensitive, LossResilient, PccConfig, PccController, SafeSigmoid, SimpleThroughputLoss,
    UtilityFunction,
};
use pcc_simnet::endpoint::Endpoint;
use pcc_simnet::time::SimDuration;
use pcc_transport::registry::{self, CcParams, SpecError};
use pcc_transport::{
    CcSender, CcSenderConfig, CongestionControl, FlowSize, ReportMode, TransportConfig,
};

/// Process-global default feedback granularity for scenario-built senders
/// (see [`force_batched_reports`]).
static FORCE_BATCHED: AtomicBool = AtomicBool::new(false);

/// Force every sender subsequently built through [`Protocol`] onto
/// batched one-RTT measurement reports (the off-path control plane),
/// regardless of each algorithm's preferred [`ReportMode`]. Per-flow
/// overrides (e.g. `FlowPlan::reporting`) still win. Used by
/// `pcc-experiments --batched` and the CI smoke run; golden-fingerprint
/// scenarios run with this off, so defaults stay bit-identical.
pub fn force_batched_reports(on: bool) {
    FORCE_BATCHED.store(on, Ordering::SeqCst);
}

/// Whether [`force_batched_reports`] is currently set.
pub fn batched_reports_forced() -> bool {
    FORCE_BATCHED.load(Ordering::SeqCst)
}

/// Install every algorithm in the workspace — the PCC×utility family from
/// `pcc-core`, the seven TCP baselines (plus `-paced` variants) from
/// `pcc-tcp`, SABUL/PCP from `pcc-rate`, and the BBR-style hybrid from
/// `pcc-bbr` — into the [`pcc_transport::registry`]. Idempotent and
/// cheap; called automatically by [`Protocol::build_sender`]. Twin of
/// `pcc_udp::install_registry` (neither crate can depend on the other
/// without warping the graph); a new algorithm crate must be added to
/// BOTH registration lists.
pub fn install_registry() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        pcc_core::register_algorithms();
        pcc_tcp::register_algorithms();
        pcc_rate::register_algorithms();
        pcc_bbr::register_algorithms();
    });
}

/// Which utility function a PCC sender optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UtilityKind {
    /// §2.2 safe sigmoid (the default everywhere in §4.1–4.3).
    Safe,
    /// `T − x·L` (§2.2's naive starting point).
    Simple,
    /// §4.4.2 `T·(1−L)` for extreme-loss links under FQ.
    LossResilient,
    /// §4.4.1 latency-sensitive power objective.
    LatencySensitive,
}

impl UtilityKind {
    /// Instantiate the utility function.
    pub fn build(self) -> Box<dyn UtilityFunction> {
        match self {
            UtilityKind::Safe => Box::new(SafeSigmoid::default()),
            UtilityKind::Simple => Box::new(SimpleThroughputLoss),
            UtilityKind::LossResilient => Box::new(LossResilient),
            UtilityKind::LatencySensitive => Box::new(LatencySensitive::default()),
        }
    }
}

/// A protocol under evaluation.
#[derive(Clone, Debug)]
pub enum Protocol {
    /// PCC with a given config and utility.
    Pcc(PccConfig, UtilityKind),
    /// A TCP baseline by name (`"cubic"`, `"illinois"`, ...).
    Tcp(&'static str),
    /// A TCP baseline with packet pacing (Fig. 9's "TCP Pacing").
    TcpPaced(&'static str),
    /// SABUL/UDT-style rate control.
    Sabul,
    /// PCP-style bandwidth probing.
    Pcp,
    /// Any registered algorithm by registry name or parameterized spec
    /// (`"pcc-lossresilient"`, `"cubic-paced"`, `"cubic:beta=0.7,iw=32"`,
    /// ...).
    Named(String),
}

impl Protocol {
    /// PCC with paper defaults and the safe utility, RTT hint attached.
    pub fn pcc_default(rtt_hint: SimDuration) -> Protocol {
        Protocol::Pcc(
            PccConfig::paper().with_rtt_hint(rtt_hint),
            UtilityKind::Safe,
        )
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Protocol::Pcc(cfg, UtilityKind::Safe) if cfg.rct => "pcc".into(),
            Protocol::Pcc(_, UtilityKind::Safe) => "pcc-norct".into(),
            Protocol::Pcc(_, u) => format!("pcc-{u:?}").to_lowercase(),
            Protocol::Tcp(name) => (*name).into(),
            Protocol::TcpPaced(name) => format!("{name}-paced"),
            Protocol::Sabul => "sabul".into(),
            Protocol::Pcp => "pcp".into(),
            Protocol::Named(name) => name.clone(),
        }
    }

    /// The registry name this protocol resolves through, or `None` for the
    /// directly-constructed custom-config PCC variant.
    fn registry_name(&self) -> Option<String> {
        match self {
            Protocol::Pcc(..) => None,
            Protocol::Tcp(name) => Some((*name).into()),
            Protocol::TcpPaced(name) => Some(format!("{name}-paced")),
            Protocol::Sabul => Some("sabul".into()),
            Protocol::Pcp => Some("pcp".into()),
            Protocol::Named(name) => Some(name.clone()),
        }
    }

    /// Build just the congestion-control algorithm (shared by the
    /// simulator path here and by real-datapath callers that bring their
    /// own engine). `params` seeds pre-sample state — MSS, and the RTT
    /// hint that paced variants derive their initial pacing rate from.
    pub fn build_cc(&self, params: &CcParams) -> Result<Box<dyn CongestionControl>, SpecError> {
        install_registry();
        match self {
            Protocol::Pcc(cfg, util) => Ok(Box::new(
                PccController::with_utility(*cfg, util.build()).with_mss(params.mss),
            )),
            other => {
                let name = other.registry_name().expect("non-Pcc has a name");
                registry::by_name(&name, params)
            }
        }
    }

    /// Build the sender endpoint for a flow of `size` (use
    /// [`FlowSize::Infinite`] for long-running throughput flows) — the one
    /// way from a protocol description to an engine. `rtt_hint` is the
    /// path's base RTT, threaded into the algorithm's construction
    /// parameters. `report: None` falls through to the process-global
    /// [`force_batched_reports`] default, then to the algorithm's own
    /// [`ReportMode`] preference. With a `dead_time_budget` the engine
    /// aborts the flow as [`pcc_transport::TransferError::Stalled`]
    /// (recorded in `FlowStats::stalled`) once that long passes without
    /// forward progress while timeouts keep firing, so a wedged flow is a
    /// typed outcome instead of burning the rest of the horizon. Unknown
    /// algorithm names and invalid spec parameters surface as a typed
    /// [`SpecError`].
    pub fn build_sender(
        &self,
        size: FlowSize,
        mss: u32,
        rtt_hint: SimDuration,
        report: Option<ReportMode>,
        dead_time_budget: Option<SimDuration>,
    ) -> Result<Box<dyn Endpoint>, SpecError> {
        let params = CcParams::default().with_mss(mss).with_rtt_hint(rtt_hint);
        let cc = self.build_cc(&params)?;
        let report = report.or_else(|| batched_reports_forced().then(ReportMode::batched_rtt));
        let cfg = CcSenderConfig {
            transport: TransportConfig { mss, size },
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
        p.build_sender(FlowSize::Infinite, 1500, rtt, None, None)
    }

    #[test]
    fn labels() {
        assert_eq!(
            Protocol::pcc_default(SimDuration::from_millis(30)).label(),
            "pcc"
        );
        assert_eq!(Protocol::Tcp("cubic").label(), "cubic");
        assert_eq!(Protocol::TcpPaced("newreno").label(), "newreno-paced");
        assert_eq!(
            Protocol::Pcc(PccConfig::paper().without_rct(), UtilityKind::Safe).label(),
            "pcc-norct"
        );
        assert_eq!(
            Protocol::Pcc(PccConfig::paper(), UtilityKind::LossResilient).label(),
            "pcc-lossresilient"
        );
        assert_eq!(Protocol::Named("cubic-paced".into()).label(), "cubic-paced");
    }

    #[test]
    fn builders_produce_endpoints() {
        for p in [
            Protocol::pcc_default(SimDuration::from_millis(30)),
            Protocol::Tcp("cubic"),
            Protocol::TcpPaced("newreno"),
            Protocol::Sabul,
            Protocol::Pcp,
            Protocol::Named("pcc-lossresilient".into()),
            Protocol::Named("illinois".into()),
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
        for spec in ["pcc:eps=0.05,util=latency", "cubic:beta=0.7,iw=32"] {
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
            err.valid.iter().any(|k| k.contains("beta")),
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
