//! The off-path control plane: one controller, many flows.
//!
//! CCP-style architectures run congestion logic outside the datapath: the
//! datapath aggregates measurements ([`crate::report::MeasurementReport`]),
//! ships them to a controller, and applies the decisions that come back.
//! [`CcHost`] is that controller — it owns many [`CongestionControl`]
//! instances keyed by dense [`HostFlowId`]s, consumes per-flow events and
//! reports, and queues the resulting decisions as [`Command`]s that the
//! datapath replays into its own [`Ctx`] via [`CcHost::apply_to`].
//!
//! [`HostedCc`] is the datapath-side stub: it implements
//! [`CongestionControl`] itself, so the engine (`CcSender`, under the
//! simulator or `pcc-udp`'s real-socket driver) can be pointed at a shared
//! host without modification — each callback is forwarded to the host and
//! the queued commands are drained straight back. One host can drive all
//! concurrent transfers of a process (the paper's millions-of-users shape:
//! flows are cheap slots, the controller is one object).
//!
//! Determinism: the host owns no RNG — every entry point threads the
//! *caller's* per-flow random stream through, so a hosted algorithm makes
//! bit-identical decisions to the same algorithm running in-path.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};

use crate::cc::{
    AckEvent, CcMode, CongestionControl, Ctx, Effects, LossEvent, ReportMode, SentEvent,
};
use crate::report::MeasurementReport;

/// Dense per-host flow identifier. Slots are recycled: removing a flow
/// frees its id for the next [`CcHost::add_flow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostFlowId(u32);

impl HostFlowId {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One decision the controller pushes back to a datapath, replayed in
/// order by [`CcHost::apply_to`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Command {
    /// Set the pacing rate (bits/sec).
    SetRate(f64),
    /// Set the congestion window (packets).
    SetCwnd(f64),
    /// Switch the engine's transmission machinery.
    SetMode(CcMode),
    /// One-shot override of the next report interval.
    SetReportIn(SimDuration),
    /// Arm an algorithm timer with the given token.
    Timer(SimTime, u64),
}

struct Slot {
    cc: Box<dyn CongestionControl>,
    queue: VecDeque<Command>,
    fx: Effects,
}

/// The controller: many congestion-control instances behind dense flow
/// ids, each with a pending command queue.
#[derive(Default)]
pub struct CcHost {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
}

impl CcHost {
    /// An empty host.
    pub fn new() -> Self {
        CcHost::default()
    }

    /// Register an algorithm instance; returns its flow id.
    pub fn add_flow(&mut self, cc: Box<dyn CongestionControl>) -> HostFlowId {
        let slot = Slot {
            cc,
            queue: VecDeque::new(),
            fx: Effects::default(),
        };
        match self.free.pop() {
            Some(ix) => {
                self.slots[ix as usize] = Some(slot);
                HostFlowId(ix)
            }
            None => {
                self.slots.push(Some(slot));
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

    fn slot_mut(&mut self, id: HostFlowId) -> &mut Slot {
        self.slots
            .get_mut(id.index())
            .and_then(|s| s.as_mut())
            .expect("CcHost: unknown or removed flow id")
    }

    fn slot(&self, id: HostFlowId) -> &Slot {
        self.slots
            .get(id.index())
            .and_then(|s| s.as_ref())
            .expect("CcHost: unknown or removed flow id")
    }

    /// Run one callback on a flow's algorithm and queue its decisions.
    fn with_flow(
        &mut self,
        id: HostFlowId,
        now: SimTime,
        rng: &mut SimRng,
        f: impl FnOnce(&mut dyn CongestionControl, &mut Ctx),
    ) {
        let slot = self.slot_mut(id);
        {
            let mut ctx = Ctx::new(now, rng, &mut slot.fx);
            f(slot.cc.as_mut(), &mut ctx);
        }
        let d = slot.fx.drain();
        if let Some(r) = d.rate {
            slot.queue.push_back(Command::SetRate(r));
        }
        if let Some(w) = d.cwnd {
            slot.queue.push_back(Command::SetCwnd(w));
        }
        if let Some(m) = d.mode {
            slot.queue.push_back(Command::SetMode(m));
        }
        if let Some(ri) = d.report_in {
            slot.queue.push_back(Command::SetReportIn(ri));
        }
        for (at, tok) in d.timers {
            slot.queue.push_back(Command::Timer(at, tok));
        }
    }

    /// Forward flow start.
    pub fn on_start(&mut self, id: HostFlowId, now: SimTime, rng: &mut SimRng) {
        self.with_flow(id, now, rng, |c, cc| c.on_start(cc));
    }

    /// Forward a transmission event.
    pub fn on_sent(&mut self, id: HostFlowId, ev: &SentEvent, rng: &mut SimRng) {
        self.with_flow(id, ev.now, rng, |c, cc| c.on_sent(ev, cc));
    }

    /// Forward an ACK event (per-ACK compatibility path).
    pub fn on_ack(&mut self, id: HostFlowId, ack: &AckEvent, rng: &mut SimRng) {
        self.with_flow(id, ack.now, rng, |c, cc| c.on_ack(ack, cc));
    }

    /// Forward a loss event (per-ACK compatibility path).
    pub fn on_loss(&mut self, id: HostFlowId, loss: &LossEvent, rng: &mut SimRng) {
        self.with_flow(id, loss.now, rng, |c, cc| c.on_loss(loss, cc));
    }

    /// Forward an algorithm timer expiry.
    pub fn on_timer(&mut self, id: HostFlowId, token: u64, now: SimTime, rng: &mut SimRng) {
        self.with_flow(id, now, rng, |c, cc| c.on_timer(token, cc));
    }

    /// Consume one aggregated measurement report — the host's primary diet.
    pub fn on_report(&mut self, id: HostFlowId, rep: &MeasurementReport, rng: &mut SimRng) {
        self.with_flow(id, rep.end, rng, |c, cc| c.on_report(rep, cc));
    }

    /// The flow's engine detected post-outage resumption.
    pub fn on_resume(&mut self, id: HostFlowId, now: SimTime, rng: &mut SimRng) {
        self.with_flow(id, now, rng, |c, cc| c.on_resume(cc));
    }

    /// Replay every queued decision for a flow into a datapath context, in
    /// the order the algorithm issued them.
    pub fn apply_to(&mut self, id: HostFlowId, ctx: &mut Ctx) {
        let slot = self.slot_mut(id);
        while let Some(cmd) = slot.queue.pop_front() {
            match cmd {
                Command::SetRate(r) => ctx.set_rate(r),
                Command::SetCwnd(w) => ctx.set_cwnd(w),
                Command::SetMode(m) => ctx.set_mode(m),
                Command::SetReportIn(d) => ctx.set_report_interval(d),
                Command::Timer(at, tok) => ctx.set_timer(at, tok),
            }
        }
    }

    /// Pending (not yet applied) decisions for a flow.
    pub fn pending(&self, id: HostFlowId) -> usize {
        self.slot(id).queue.len()
    }

    /// The flow's algorithm name.
    pub fn name(&self, id: HostFlowId) -> &'static str {
        self.slot(id).cc.name()
    }

    /// The flow's preferred feedback path.
    pub fn report_mode(&self, id: HostFlowId) -> ReportMode {
        self.slot(id).cc.report_mode()
    }

    /// The flow's current probe tag, if probing.
    pub fn probe_tag(&self, id: HostFlowId) -> Option<u32> {
        self.slot(id).cc.probe_tag()
    }
}

/// A shareable, lock-protected host handle.
pub type SharedHost = Arc<Mutex<CcHost>>;

/// Create a [`SharedHost`] ready to drive many flows.
pub fn shared_host() -> SharedHost {
    Arc::new(Mutex::new(CcHost::new()))
}

/// Datapath-side stub: a [`CongestionControl`] whose brain lives in a
/// (possibly shared) [`CcHost`]. Every engine callback is forwarded to the
/// host, then the host's queued commands are drained back into the
/// engine's context — so the engine cannot tell a hosted algorithm from an
/// in-path one, and one host can drive all of a process's transfers.
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

    /// The flow id inside the host.
    pub fn flow(&self) -> HostFlowId {
        self.flow
    }
}

/// Mutex recovery per the workspace convention: a poisoned host is still
/// structurally sound (algorithm state may be mid-update, but every field
/// is a valid value), so keep serving rather than wedging every flow.
fn lock(host: &SharedHost) -> MutexGuard<'_, CcHost> {
    host.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut h = lock(&self.host);
        h.on_start(self.flow, ctx.now, &mut *ctx.rng);
        h.apply_to(self.flow, ctx);
    }

    fn on_sent(&mut self, ev: &SentEvent, ctx: &mut Ctx) {
        let mut h = lock(&self.host);
        h.on_sent(self.flow, ev, &mut *ctx.rng);
        h.apply_to(self.flow, ctx);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
        let mut h = lock(&self.host);
        h.on_ack(self.flow, ack, &mut *ctx.rng);
        h.apply_to(self.flow, ctx);
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
        let mut h = lock(&self.host);
        h.on_loss(self.flow, loss, &mut *ctx.rng);
        h.apply_to(self.flow, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let mut h = lock(&self.host);
        h.on_timer(self.flow, token, ctx.now, &mut *ctx.rng);
        h.apply_to(self.flow, ctx);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        let mut h = lock(&self.host);
        h.on_report(self.flow, rep, &mut *ctx.rng);
        h.apply_to(self.flow, ctx);
    }

    fn on_resume(&mut self, ctx: &mut Ctx) {
        let mut h = lock(&self.host);
        h.on_resume(self.flow, ctx.now, &mut *ctx.rng);
        h.apply_to(self.flow, ctx);
    }

    fn report_mode(&self) -> ReportMode {
        lock(&self.host).report_mode(self.flow)
    }

    fn probe_tag(&self) -> Option<u32> {
        lock(&self.host).probe_tag(self.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn commands_queue_and_replay_in_order() {
        let mut host = CcHost::new();
        let id = host.add_flow(Box::new(Toy { rate: 1e6 }));
        let mut rng = SimRng::new(1);
        host.on_start(id, SimTime::ZERO, &mut rng);
        assert_eq!(host.pending(id), 2, "rate + timer queued");
        let mut fx = Effects::default();
        let mut rng2 = SimRng::new(2);
        let mut ctx = Ctx::new(SimTime::ZERO, &mut rng2, &mut fx);
        host.apply_to(id, &mut ctx);
        assert_eq!(host.pending(id), 0);
        let d = fx.drain();
        assert_eq!(d.rate, Some(1e6));
        assert_eq!(d.timers, vec![(SimTime::from_millis(10), 7)]);
    }

    #[test]
    fn report_consumption_drives_decisions() {
        let mut host = CcHost::new();
        let id = host.add_flow(Box::new(Toy { rate: 8e6 }));
        let mut rng = SimRng::new(1);
        let rep = MeasurementReport {
            lost_pkts: 3,
            end: SimTime::from_millis(50),
            ..Default::default()
        };
        host.on_report(id, &rep, &mut rng);
        let mut fx = Effects::default();
        let mut rng2 = SimRng::new(2);
        let mut ctx = Ctx::new(rep.end, &mut rng2, &mut fx);
        host.apply_to(id, &mut ctx);
        assert_eq!(fx.drain().rate, Some(4e6));
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
        let mut rng = SimRng::new(1);
        let a = host.add_flow(Box::new(Toy { rate: 1e6 }));
        let b = host.add_flow(Box::new(Toy { rate: 2e6 }));
        let c = host.add_flow(Box::new(Toy { rate: 3e6 }));
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        for &id in &[a, b, c] {
            host.on_start(id, SimTime::ZERO, &mut rng);
        }
        // The middle flow dies mid-transfer (its sender aborted); its
        // queued-but-undelivered decisions die with it.
        host.remove_flow(b);
        assert_eq!(host.len(), 2);
        // Siblings keep processing under their original dense ids.
        let rep = MeasurementReport {
            lost_pkts: 1,
            end: SimTime::from_millis(50),
            ..Default::default()
        };
        host.on_report(a, &rep, &mut rng);
        host.on_report(c, &rep, &mut rng);
        for (id, want) in [(a, 0.5e6), (c, 1.5e6)] {
            let mut fx = Effects::default();
            let mut rng2 = SimRng::new(2);
            let mut ctx = Ctx::new(rep.end, &mut rng2, &mut fx);
            host.apply_to(id, &mut ctx);
            assert_eq!(fx.drain().rate, Some(want), "sibling state undisturbed");
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
        {
            let mut ctx = Ctx::new(SimTime::ZERO, &mut rng, &mut fx);
            stub.on_start(&mut ctx);
        }
        let d = fx.drain();
        assert_eq!(d.rate, Some(2e6), "decision came back through the stub");
        drop(stub);
        assert!(lock(&host).is_empty(), "drop removed the flow");
    }
}
