//! The unified congestion-control API.
//!
//! The paper's architectural claim (§3) is that control intelligence should
//! be a pluggable module over a dumb sending engine. This module is that
//! plug: **one** trait — [`CongestionControl`] — with a uniform event
//! vocabulary (`on_start`, `on_sent`, `on_ack`, `on_loss`, `on_timer`) and
//! an [`Effects`] sink through which an algorithm requests a pacing rate, a
//! congestion window, *or both*.
//!
//! Every algorithm speaks this one vocabulary:
//!
//! * rate-based algorithms (PCC, SABUL, PCP) call [`Ctx::set_rate`];
//! * window-based algorithms (the TCPs) call [`Ctx::set_cwnd`];
//! * hybrid algorithms call both;
//!
//! and the one engine ([`crate::sender::CcSender`], driven by the
//! simulator's event loop or by `pcc-udp`'s socket loop) enforces whichever
//! combination the algorithm requested. The machinery is what the
//! algorithm sets — a rate means paced, a cwnd means windowed, both mean
//! hybrid — and there is no other switch. The same boxed algorithm object —
//! and the same engine under it — runs unchanged on either datapath.
//!
//! The reference *hybrid* implementation is `pcc-bbr`'s `Bbr` (registered
//! as `bbr`): a BBR-style model-based controller whose every control
//! decision sets `set_rate(pacing_gain · btl_bw)` *and*
//! `set_cwnd(cwnd_gain · BDP)`, so both machineries — pacing and window
//! clocking — run simultaneously for the whole flow. A TCP baseline with
//! `paced=true` (`pcc-tcp`'s `Windowed` adapter setting a `cwnd/SRTT`
//! rate) is the thin end of the same path. The engine enforces *both*
//! effects when both are set: a closed window blocks transmission even
//! when the pacing gap has elapsed, and vice versa (asserted under both
//! drivers by the root conformance suite's `hybrid_enforcement` tests).

use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};

use crate::report::MeasurementReport;

/// Everything an algorithm sees when an ACK arrives.
#[derive(Clone, Copy, Debug)]
pub struct AckEvent {
    /// Current time.
    pub now: SimTime,
    /// The acknowledged sequence.
    pub seq: u64,
    /// RTT attributed to this ACK: the exact sample when one was taken
    /// (see [`AckEvent::sampled`]), otherwise the smoothed RTT.
    pub rtt: SimDuration,
    /// True when [`AckEvent::rtt`] is an exact per-packet sample (false for
    /// e.g. ACKs of retransmissions, where the sample would be ambiguous).
    pub sampled: bool,
    /// Smoothed RTT.
    pub srtt: SimDuration,
    /// Minimum RTT observed (propagation estimate).
    pub min_rtt: SimDuration,
    /// Maximum RTT observed.
    pub max_rtt: SimDuration,
    /// Receiver-side arrival timestamp (for dispersion probing).
    pub recv_at: SimTime,
    /// Probe-train tag echoed by the receiver, if any.
    pub probe_train: Option<u32>,
    /// The acked transmission was a retransmission.
    pub of_retx: bool,
    /// Receiver's cumulative ack point.
    pub cum_ack: u64,
    /// Packets newly acknowledged by this ACK (0 for pure duplicates).
    pub newly_acked: u32,
    /// Packets currently in flight.
    pub in_flight: u64,
    /// Packet size in bytes.
    pub mss: u32,
    /// True while the engine is inside a loss-recovery episode. Window
    /// algorithms conventionally freeze growth here; rate algorithms are
    /// free to ignore it.
    pub in_recovery: bool,
}

/// A data packet left the sender.
#[derive(Clone, Copy, Debug)]
pub struct SentEvent {
    /// Current time.
    pub now: SimTime,
    /// Sequence transmitted.
    pub seq: u64,
    /// Bytes on the wire.
    pub bytes: u32,
    /// This was a retransmission.
    pub retx: bool,
    /// Packets in flight after this send.
    pub in_flight: u64,
}

/// Why a batch of sequences was declared lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// Reordering-threshold / deadline detection (fast-retransmit-style).
    Detected,
    /// A retransmission timeout fired and all in-flight data was marked
    /// lost.
    Timeout,
}

/// Sequences newly declared lost.
#[derive(Clone, Copy, Debug)]
pub struct LossEvent<'a> {
    /// Current time.
    pub now: SimTime,
    /// The sequences (packet granularity).
    pub seqs: &'a [u64],
    /// Detection mechanism.
    pub kind: LossKind,
    /// True when this detection *begins* a recovery episode (the engine
    /// suppresses the flag for further detections until the episode ends).
    /// Window algorithms react once per episode; rate algorithms usually
    /// count every loss.
    pub new_episode: bool,
    /// Packets in flight after removing the lost ones.
    pub in_flight: u64,
    /// Packet size in bytes.
    pub mss: u32,
}

/// How the engine delivers measurement feedback to an algorithm.
///
/// Every shipped algorithm prefers [`ReportMode::PerAck`] and also
/// implements [`CongestionControl::on_report`], so a host can batch any of
/// them through `CcSenderConfig::report`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportMode {
    /// Every ACK and loss event is delivered individually through
    /// `on_ack` / `on_loss`.
    PerAck,
    /// Off-path control plane: the engine aggregates events locally and
    /// delivers one [`MeasurementReport`] per interval through
    /// [`CongestionControl::on_report`]. `on_ack` / `on_loss` are *not*
    /// called. An interval lasts one smoothed RTT, re-read at each report
    /// boundary, unless the algorithm sets the next one itself
    /// ([`Ctx::set_report_interval`]).
    Batched,
}

impl ReportMode {
    /// Batched delivery: one report per smoothed RTT.
    pub fn batched_rtt() -> Self {
        ReportMode::Batched
    }
}

/// Control decisions an algorithm requests during a callback, written
/// through [`Ctx`] and read back by whoever hosts the algorithm.
///
/// The engine applies whatever subset was set: a pacing rate, a congestion
/// window, or both — plus report-cadence overrides and timers.
#[derive(Debug, Default)]
pub struct Effects {
    /// Pacing rate (bits/sec), if requested.
    pub rate: Option<f64>,
    /// Congestion window (packets), if requested.
    pub cwnd: Option<f64>,
    /// One-shot override for the next report interval, if requested.
    pub report_in: Option<SimDuration>,
    /// Timers to arm; each token is redelivered through
    /// [`CongestionControl::on_timer`].
    pub timers: Vec<(SimTime, u64)>,
}

impl Effects {
    /// Take everything requested so far, leaving the sink empty
    /// ([`crate::sender::CcSender`] does after every callback; harnesses
    /// driving an algorithm directly do the same).
    pub fn drain(&mut self) -> Effects {
        std::mem::take(self)
    }

    /// True if nothing was requested.
    pub fn is_empty(&self) -> bool {
        self.rate.is_none()
            && self.cwnd.is_none()
            && self.report_in.is_none()
            && self.timers.is_empty()
    }
}

/// Algorithm-side view during a callback: clock, RNG, and effect sink.
pub struct Ctx<'a> {
    /// Current time.
    pub now: SimTime,
    /// Deterministic per-flow random stream.
    pub rng: &'a mut SimRng,
    effects: &'a mut Effects,
}

impl<'a> Ctx<'a> {
    /// Build a context (also used directly by algorithm unit tests).
    pub fn new(now: SimTime, rng: &'a mut SimRng, effects: &'a mut Effects) -> Self {
        Ctx { now, rng, effects }
    }

    /// Request a pacing rate (bits/sec), effective immediately. Floored at
    /// 1 bps — an engine never stalls on a zero or negative rate.
    pub fn set_rate(&mut self, bps: f64) {
        self.effects.rate = Some(if bps.is_finite() { bps.max(1.0) } else { 1.0 });
    }

    /// Request a congestion window (packets), effective immediately.
    /// Floored at one packet.
    pub fn set_cwnd(&mut self, pkts: f64) {
        self.effects.cwnd = Some(if pkts.is_finite() { pkts.max(1.0) } else { 1.0 });
    }

    /// Arm an algorithm timer; `token` is redelivered in
    /// [`CongestionControl::on_timer`].
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.effects.timers.push((at, token));
    }

    /// One-shot override of the *next* report interval (batched mode
    /// only): the next [`MeasurementReport`] is emitted `d` after now.
    /// Lets interval-structured algorithms (PCC) align report boundaries
    /// with their own monitor intervals.
    pub fn set_report_interval(&mut self, d: SimDuration) {
        self.effects.report_in = Some(d);
    }
}

/// A congestion-control algorithm: the single plug-in point for every
/// protocol in the evaluation, rate-based, window-based, or hybrid.
///
/// Lifecycle: the engine calls [`CongestionControl::on_start`] once, then
/// forwards packet events (`on_sent` / `on_ack` / `on_loss`) and timer
/// expirations (`on_timer`). During any callback the algorithm may request
/// effects through [`Ctx`]; the engine applies them when the callback
/// returns.
pub trait CongestionControl: Send {
    /// Algorithm name (for reports and the registry).
    fn name(&self) -> &'static str;

    /// Called once at flow start. The algorithm must request its initial
    /// operating point here: a rate ([`Ctx::set_rate`]), a window
    /// ([`Ctx::set_cwnd`]), or both. What it sets determines which
    /// machinery the engine runs (pacing, window clocking, or both).
    fn on_start(&mut self, ctx: &mut Ctx);

    /// A data packet left the sender.
    fn on_sent(&mut self, ev: &SentEvent, ctx: &mut Ctx) {
        let _ = (ev, ctx);
    }

    /// An ACK arrived.
    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx);

    /// Sequences were newly declared lost.
    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx);

    /// A previously armed algorithm timer fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let _ = (token, ctx);
    }

    /// Which feedback path this algorithm wants. [`ReportMode::PerAck`]
    /// (the default) delivers every event through `on_ack` / `on_loss`;
    /// [`ReportMode::Batched`] makes the engine aggregate locally and
    /// deliver one [`MeasurementReport`] per interval through
    /// [`CongestionControl::on_report`] instead. An engine config may
    /// coarsen the preference per flow (`CcSenderConfig::report`; the
    /// benchmark's `lossy_mix`, `udp_transfer --batched` and the batched
    /// conformance battery are the callers) but never refines it: an
    /// algorithm that asks for reports is never handed per-ACK events,
    /// even under `Some(PerAck)`.
    fn report_mode(&self) -> ReportMode {
        ReportMode::PerAck
    }

    /// One aggregated measurement interval completed (batched mode). The
    /// default implementation ignores it; algorithms opting into
    /// [`ReportMode::Batched`] — or run by an engine whose config forces
    /// batching — must implement it.
    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        let _ = (rep, ctx);
    }

    /// The engine detected recovery from a connectivity outage: progress
    /// resumed after deep RTO backoff. The engine has already re-seeded
    /// its RTT estimator from the first post-repair sample; the algorithm
    /// should discard measurement state accumulated against the dead path
    /// (e.g. PCC resets its monitor machinery) and may set a fresh
    /// operating point. Default: no-op — any rate/cwnd the algorithm does
    /// not reset is re-derived by the engine from the surviving operating
    /// point and the fresh RTT.
    fn on_resume(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    /// Probe-train tag to stamp on the next outgoing data packet, if the
    /// algorithm is currently probing (dispersion-based designs like PCP).
    /// The receiver echoes the tag in its ACKs.
    fn probe_tag(&self) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_floor_rate_and_cwnd() {
        let mut fx = Effects::default();
        let mut rng = SimRng::new(1);
        let mut ctx = Ctx::new(SimTime::ZERO, &mut rng, &mut fx);
        ctx.set_rate(-5.0);
        ctx.set_cwnd(0.0);
        let d = fx.drain();
        assert_eq!(d.rate, Some(1.0));
        assert_eq!(d.cwnd, Some(1.0));
    }

    #[test]
    fn effects_reject_non_finite() {
        let mut fx = Effects::default();
        let mut rng = SimRng::new(1);
        let mut ctx = Ctx::new(SimTime::ZERO, &mut rng, &mut fx);
        ctx.set_rate(f64::NAN);
        ctx.set_cwnd(f64::INFINITY);
        let d = fx.drain();
        assert_eq!(d.rate, Some(1.0));
        assert_eq!(d.cwnd, Some(1.0));
    }

    #[test]
    fn effects_collect_timers_in_order() {
        let mut fx = Effects::default();
        let mut rng = SimRng::new(1);
        let mut ctx = Ctx::new(SimTime::ZERO, &mut rng, &mut fx);
        ctx.set_timer(SimTime::from_millis(5), 7);
        ctx.set_timer(SimTime::from_millis(1), 9);
        let d = fx.drain();
        assert_eq!(
            d.timers,
            vec![(SimTime::from_millis(5), 7), (SimTime::from_millis(1), 9)]
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn effects_carry_report_interval() {
        let mut fx = Effects::default();
        let mut rng = SimRng::new(1);
        let mut ctx = Ctx::new(SimTime::ZERO, &mut rng, &mut fx);
        ctx.set_report_interval(SimDuration::from_millis(30));
        assert!(!fx.is_empty());
        let d = fx.drain();
        assert_eq!(d.report_in, Some(SimDuration::from_millis(30)));
        assert!(fx.is_empty());
    }
}
