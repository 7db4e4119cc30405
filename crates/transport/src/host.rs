//! The off-path control plane: one controller, many flows.
//!
//! CCP-style architectures run congestion logic outside the datapath: the
//! datapath aggregates measurements ([`crate::report::MeasurementReport`]),
//! ships them to a controller, and applies the decisions that come back.
//! [`CcHost`] is that controller — it owns many [`CongestionControl`]
//! instances keyed by dense [`HostFlowId`]s, and [`CcHost::with_flow`] runs
//! one callback on one of them.
//!
//! [`HostedCc`] is the datapath-side stub: it implements
//! [`CongestionControl`] itself, so the engine (`CcSender`, under the
//! simulator or `pcc-udp`'s real-socket driver) can be pointed at a shared
//! host without modification — each callback is forwarded to the host's
//! instance together with the engine's own [`Ctx`], so the decisions land
//! where an in-path algorithm's would. One host can drive all concurrent
//! transfers of a process (the paper's millions-of-users shape: flows are
//! cheap slots, the controller is one object).
//!
//! Determinism: the host owns no clock, RNG or effect sink — the algorithm
//! sees the *caller's* [`Ctx`], so a hosted algorithm makes bit-identical
//! decisions to the same algorithm running in-path (asserted for every
//! registered name by the root conformance suite).

use std::sync::{Arc, Mutex};

use pcc_simnet::sync::lock;

use crate::cc::{AckEvent, CongestionControl, Ctx, LossEvent, ReportMode, SentEvent};
use crate::report::MeasurementReport;

/// Dense per-host flow identifier. Slots are recycled: removing a flow
/// frees its id for the next [`CcHost::add_flow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    clippy::disallowed_methods,
    reason = "the derived partial_cmp compares one integer field, never a float"
)]
pub struct HostFlowId(u32);

impl HostFlowId {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The controller: many congestion-control instances behind dense flow
/// ids.
#[derive(Default)]
pub struct CcHost {
    slots: Vec<Option<Box<dyn CongestionControl>>>,
    free: Vec<u32>,
}

impl CcHost {
    /// An empty host.
    pub fn new() -> Self {
        CcHost::default()
    }

    /// Register an algorithm instance; returns its flow id.
    pub fn add_flow(&mut self, cc: Box<dyn CongestionControl>) -> HostFlowId {
        match self.free.pop() {
            Some(ix) => {
                self.slots[ix as usize] = Some(cc);
                HostFlowId(ix)
            }
            None => {
                self.slots.push(Some(cc));
                HostFlowId((self.slots.len() - 1) as u32)
            }
        }
    }

    /// Drop a flow's algorithm instance and recycle its id.
    pub fn remove_flow(&mut self, id: HostFlowId) {
        if let Some(s) = self.slots.get_mut(id.index()) {
            if s.take().is_some() {
                self.free.push(id.0);
            }
        }
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `f` on a flow's algorithm. The caller brings whatever the
    /// callback needs — for the event callbacks, its own [`Ctx`].
    pub fn with_flow<R>(
        &mut self,
        id: HostFlowId,
        f: impl FnOnce(&mut dyn CongestionControl) -> R,
    ) -> R {
        let cc = self
            .slots
            .get_mut(id.index())
            .and_then(|s| s.as_mut())
            .expect("CcHost: unknown or removed flow id");
        f(cc.as_mut())
    }
}

/// A shareable, lock-protected host handle. Take it with
/// [`pcc_simnet::sync::lock`]: a poisoned host is still structurally sound
/// (algorithm state may be mid-update, but every field is a valid value),
/// so keep serving rather than wedging every flow.
pub type SharedHost = Arc<Mutex<CcHost>>;

/// Create a [`SharedHost`] ready to drive many flows.
pub fn shared_host() -> SharedHost {
    Arc::new(Mutex::new(CcHost::new()))
}

/// Datapath-side stub: a [`CongestionControl`] whose brain lives in a
/// (possibly shared) [`CcHost`]. Every engine callback runs the host's
/// instance under the host lock with the engine's own context — so the
/// engine cannot tell a hosted algorithm from an in-path one, and one host
/// can drive all of a process's transfers.
///
/// The wrapped flow is removed from the host when the stub is dropped.
pub struct HostedCc {
    host: SharedHost,
    flow: HostFlowId,
    name: &'static str,
}

impl HostedCc {
    /// Register `cc` with `host` and return the datapath stub driving it.
    pub fn new(host: SharedHost, cc: Box<dyn CongestionControl>) -> Self {
        let name = cc.name();
        let flow = lock(&host).add_flow(cc);
        HostedCc { host, flow, name }
    }

    fn with<R>(&self, f: impl FnOnce(&mut dyn CongestionControl) -> R) -> R {
        lock(&self.host).with_flow(self.flow, f)
    }
}

impl Drop for HostedCc {
    fn drop(&mut self) {
        lock(&self.host).remove_flow(self.flow);
    }
}

impl CongestionControl for HostedCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.with(|cc| cc.on_start(ctx))
    }

    fn on_sent(&mut self, ev: &SentEvent, ctx: &mut Ctx) {
        self.with(|cc| cc.on_sent(ev, ctx))
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
        self.with(|cc| cc.on_ack(ack, ctx))
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
        self.with(|cc| cc.on_loss(loss, ctx))
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        self.with(|cc| cc.on_timer(token, ctx))
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        self.with(|cc| cc.on_report(rep, ctx))
    }

    fn on_resume(&mut self, ctx: &mut Ctx) {
        self.with(|cc| cc.on_resume(ctx))
    }

    fn report_mode(&self) -> ReportMode {
        self.with(|cc| cc.report_mode())
    }

    fn probe_tag(&self) -> Option<u32> {
        self.with(|cc| cc.probe_tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Effects;
    use pcc_simnet::rng::SimRng;
    use pcc_simnet::time::SimTime;

    /// Toy algorithm: sets a rate at start, halves it on every report with
    /// losses, arms a timer tagged 7.
    struct Toy {
        rate: f64,
    }

    impl CongestionControl for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(self.rate);
            ctx.set_timer(SimTime::from_millis(10), 7);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
        fn report_mode(&self) -> ReportMode {
            ReportMode::batched_rtt()
        }
        fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
            if rep.lost_pkts > 0 {
                self.rate /= 2.0;
            }
            ctx.set_rate(self.rate);
        }
    }

    /// Deliver a one-loss report to `id` and return the rate it decided.
    fn lossy_report(host: &mut CcHost, id: HostFlowId) -> Option<f64> {
        let rep = MeasurementReport {
            lost_pkts: 1,
            end: SimTime::from_millis(50),
            ..Default::default()
        };
        let mut fx = Effects::default();
        let mut rng = SimRng::new(2);
        let mut ctx = Ctx::new(rep.end, &mut rng, &mut fx);
        host.with_flow(id, |cc| cc.on_report(&rep, &mut ctx));
        fx.rate
    }

    #[test]
    fn decisions_land_in_the_callers_context() {
        let mut host = CcHost::new();
        let id = host.add_flow(Box::new(Toy { rate: 8e6 }));
        assert_eq!(lossy_report(&mut host, id), Some(4e6));
        assert_eq!(host.with_flow(id, |cc| cc.name()), "toy");
    }

    #[test]
    fn dense_ids_recycle() {
        let mut host = CcHost::new();
        let a = host.add_flow(Box::new(Toy { rate: 1.0 }));
        let b = host.add_flow(Box::new(Toy { rate: 1.0 }));
        assert_eq!((a.index(), b.index()), (0, 1));
        host.remove_flow(a);
        assert_eq!(host.len(), 1);
        let c = host.add_flow(Box::new(Toy { rate: 1.0 }));
        assert_eq!(c.index(), 0, "freed slot reused");
        assert_eq!(host.len(), 2);
    }

    #[test]
    fn middle_flow_dies_mid_transfer_without_disturbing_siblings() {
        let mut host = CcHost::new();
        let a = host.add_flow(Box::new(Toy { rate: 1e6 }));
        let b = host.add_flow(Box::new(Toy { rate: 2e6 }));
        let c = host.add_flow(Box::new(Toy { rate: 3e6 }));
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        // The middle flow dies mid-transfer (its sender aborted).
        host.remove_flow(b);
        assert_eq!(host.len(), 2);
        // Siblings keep processing under their original dense ids.
        for (id, want) in [(a, 0.5e6), (c, 1.5e6)] {
            let got = lossy_report(&mut host, id);
            assert_eq!(got, Some(want), "sibling state undisturbed");
        }
        // The freed id is recycled by the next arrival — no renumbering.
        let d = host.add_flow(Box::new(Toy { rate: 9e6 }));
        assert_eq!(d.index(), 1, "middle slot recycled");
        assert_eq!(host.len(), 3);
    }

    #[test]
    fn hosted_stub_forwards_and_cleans_up() {
        let host = shared_host();
        let mut stub = HostedCc::new(Arc::clone(&host), Box::new(Toy { rate: 2e6 }));
        assert_eq!(stub.name(), "toy");
        assert_eq!(stub.report_mode(), ReportMode::batched_rtt());
        assert_eq!(lock(&host).len(), 1);
        let mut fx = Effects::default();
        let mut rng = SimRng::new(3);
        stub.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(fx.rate, Some(2e6), "decision came back through the stub");
        assert_eq!(fx.timers, vec![(SimTime::from_millis(10), 7)]);
        drop(stub);
        assert!(lock(&host).is_empty(), "drop removed the flow");
    }
}
