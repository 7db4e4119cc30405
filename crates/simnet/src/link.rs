//! Link model: serialization rate, propagation delay, random loss, and an
//! attached queue discipline.
//!
//! Two flavors:
//!
//! * **Rated links** serialize packets at `rate_bps` through their queue —
//!   these are bottlenecks.
//! * **Pure-delay links** (`rate_bps == None`) forward instantly after a
//!   fixed propagation delay — used as per-flow RTT shims so different flows
//!   sharing a bottleneck can have different RTTs.
//!
//! Loss is applied at link *egress* (after serialization, before
//! propagation), which models corruption on the wire rather than drops in
//! the buffer; buffer drops come from the queue discipline. Each link owns an
//! independent RNG stream, so loss processes do not interfere across links.
//!
//! A [`LinkSchedule`] makes the link parameters time-varying — the substrate
//! for the paper's "rapidly changing network" experiment (Fig. 11).

use crate::ids::LinkId;
use crate::packet::Packet;
use crate::queue::{DropTail, Queue, QueueStats};
use crate::rng::SimRng;
use crate::shaper::{LinkShaper, ShaperConfig};
use crate::time::{tx_time, SimDuration, SimTime};

/// One step of a time-varying link schedule.
#[derive(Clone, Copy, Debug)]
pub struct LinkStep {
    /// When this step takes effect.
    pub at: SimTime,
    /// New serialization rate in bits/sec (`None` keeps the current rate).
    pub rate_bps: Option<f64>,
    /// New one-way propagation delay (`None` keeps the current delay).
    pub delay: Option<SimDuration>,
    /// New random loss probability (`None` keeps the current loss).
    pub loss: Option<f64>,
}

/// A time-ordered sequence of parameter changes.
#[derive(Clone, Debug, Default)]
pub struct LinkSchedule {
    steps: Vec<LinkStep>,
}

impl LinkSchedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a step; steps must be added in non-decreasing time order.
    pub fn push(&mut self, step: LinkStep) {
        if let Some(last) = self.steps.last() {
            assert!(step.at >= last.at, "schedule steps must be time-ordered");
        }
        self.steps.push(step);
    }

    /// The step at `index`, if any.
    pub fn step(&self, index: usize) -> Option<&LinkStep> {
        self.steps.get(index)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Configuration for building a [`Link`].
pub struct LinkConfig {
    /// Serialization rate in bits/sec; `None` = pure-delay (infinite rate).
    pub rate_bps: Option<f64>,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Bernoulli random loss probability at egress, in `[0, 1]`.
    pub loss: f64,
    /// Queue discipline (ignored for pure-delay links).
    pub queue: Box<dyn Queue>,
    /// Optional time-varying parameter schedule.
    pub schedule: LinkSchedule,
    /// Impairment stage: jitter and bounded reordering (default: none).
    pub shaper: ShaperConfig,
}

impl LinkConfig {
    /// A bottleneck: `rate_bps` bits/sec, `delay` one-way, drop-tail queue of
    /// `buffer_bytes`.
    pub fn bottleneck(rate_bps: f64, delay: SimDuration, buffer_bytes: u64) -> Self {
        LinkConfig {
            rate_bps: Some(rate_bps),
            delay,
            loss: 0.0,
            queue: Box::new(DropTail::bytes(buffer_bytes)),
            schedule: LinkSchedule::new(),
            shaper: ShaperConfig::default(),
        }
    }

    /// A pure-delay element (infinite rate, no queueing, no loss).
    pub fn delay_only(delay: SimDuration) -> Self {
        LinkConfig {
            rate_bps: None,
            delay,
            loss: 0.0,
            queue: Box::new(DropTail::bytes(u64::MAX)),
            schedule: LinkSchedule::new(),
            shaper: ShaperConfig::default(),
        }
    }

    /// Set the random loss rate.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Replace the queue discipline.
    pub fn with_queue(mut self, queue: Box<dyn Queue>) -> Self {
        self.queue = queue;
        self
    }

    /// Attach a time-varying schedule.
    pub fn with_schedule(mut self, schedule: LinkSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// What a link does with a packet offered to it.
#[derive(Debug, PartialEq)]
#[allow(missing_docs, reason = "variant fields are self-describing")]
pub enum LinkOutcome {
    /// Packet queued or started serializing; `tx_done` tells the simulation
    /// when to fire `TxComplete` (only when serialization started now).
    Accepted { start_tx: Option<SimTime> },
    /// Packet dropped by the queue discipline.
    Dropped,
}

/// The result of completing one serialization.
#[derive(Debug)]
pub struct TxResult {
    /// The packet that finished serializing, if it survived egress loss, and
    /// the time it will arrive at the next hop.
    pub delivered: Option<(Packet, SimTime)>,
    /// The packet was killed by random egress loss.
    pub egress_lost: bool,
    /// If another packet is waiting, when its serialization completes.
    pub next_tx_done: Option<SimTime>,
}

/// What [`Link::egress`] decided for one departing packet.
pub(crate) struct Egress {
    /// Killed by random egress loss.
    pub(crate) lost: bool,
    /// When it arrives at the next hop; `None` if lost or corrupted.
    pub(crate) arrive: Option<SimTime>,
}

/// Per-link lifetime counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets that completed serialization.
    pub transmitted: u64,
    /// Packets killed by random egress loss.
    pub egress_lost: u64,
    /// Bytes that completed serialization.
    pub transmitted_bytes: u64,
    /// Always 0: links no longer police. Kept because the repo benchmark
    /// still reads it.
    pub policed: u64,
    /// Deliveries the shaper rushed ahead of an already-scheduled one
    /// (actual out-of-order arrivals).
    pub reordered: u64,
    /// Packets killed by an injected fault: offered to (or completing on) a
    /// downed link, or purged from its queue when the link went down.
    pub fault_dropped: u64,
    /// Packets killed by an injected corruption fault at egress.
    pub fault_corrupted: u64,
}

/// Injected-fault state attached to a link, present only while the fault
/// plane has ever touched it (a fault-free link pays one `Option` check).
#[derive(Debug)]
struct FaultState {
    /// False while the link is administratively down.
    up: bool,
    /// Corruption fault: kill probability and its dedicated RNG stream.
    corrupt: Option<(f64, SimRng)>,
}

impl FaultState {
    fn new() -> Self {
        FaultState {
            up: true,
            corrupt: None,
        }
    }
}

/// A simulated link.
pub struct Link {
    id: LinkId,
    rate_bps: Option<f64>,
    delay: SimDuration,
    loss: f64,
    queue: Box<dyn Queue>,
    /// Packet currently being serialized (rated links only).
    in_flight: Option<Packet>,
    schedule: LinkSchedule,
    /// Impairment stage, present only when configured (a no-op config
    /// costs nothing on the hot path). Boxed: few links have one, and every
    /// link would otherwise carry its size inline.
    shaper: Option<Box<LinkShaper>>,
    /// Injected-fault state, allocated only once the fault plane first
    /// touches this link (no-fault runs never allocate it).
    fault: Option<Box<FaultState>>,
    rng: SimRng,
    stats: LinkStats,
}

impl Link {
    /// Build a link. `rng` must be an independent stream for this link.
    pub fn new(id: LinkId, config: LinkConfig, rng: SimRng) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.loss),
            "loss probability must be in [0,1]"
        );
        // The shaper draws from its own derived stream, so configuring
        // one never perturbs this link's loss process (derive depends
        // only on the seed, not on stream consumption).
        let shaper = (!config.shaper.is_noop())
            .then(|| Box::new(LinkShaper::new(config.shaper, rng.derive(0x5348_4150_4552))));
        Link {
            id,
            rate_bps: config.rate_bps,
            delay: config.delay,
            loss: config.loss,
            queue: config.queue,
            in_flight: None,
            schedule: config.schedule,
            shaper,
            fault: None,
            rng,
            stats: LinkStats::default(),
        }
    }

    /// The link's id.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Current serialization rate (`None` = pure delay).
    pub fn rate_bps(&self) -> Option<f64> {
        self.rate_bps
    }

    /// Current one-way propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Current random loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// The attached schedule (empty if none).
    pub fn schedule(&self) -> &LinkSchedule {
        &self.schedule
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Current queue backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.queue.len_bytes()
    }

    /// Offer a packet to the link at `now`.
    ///
    /// Pure-delay links have nothing to serialize: they return
    /// `start_tx: Some(now)` and the simulation takes the packet straight
    /// through the egress sequence [`Link::tx_complete`] ends with.
    pub fn offer(&mut self, pkt: Packet, now: SimTime) -> LinkOutcome {
        self.stats.offered += 1;
        // A downed link black-holes everything offered to it; the drop is
        // accounted so no fault loss is ever silent.
        if !self.is_up() {
            self.stats.fault_dropped += 1;
            return LinkOutcome::Dropped;
        }
        match self.rate_bps {
            None => {
                // Pure delay: no queue, no serialization.
                LinkOutcome::Accepted {
                    start_tx: Some(now),
                }
            }
            Some(rate) => {
                if self.in_flight.is_none() && self.queue.is_empty() {
                    // Link idle: start serializing immediately.
                    let done = now + tx_time(pkt.bytes as u64, rate);
                    self.in_flight = Some(pkt);
                    LinkOutcome::Accepted {
                        start_tx: Some(done),
                    }
                } else if self.queue.enqueue(pkt, now) {
                    LinkOutcome::Accepted { start_tx: None }
                } else {
                    LinkOutcome::Dropped
                }
            }
        }
    }

    /// Complete the in-flight serialization at `now`; returns the delivered
    /// packet (if it survives egress loss) and schedules the next one.
    pub fn tx_complete(&mut self, now: SimTime) -> TxResult {
        let rate = self.rate_bps.expect("tx_complete on pure-delay link");
        let pkt = self
            .in_flight
            .take()
            .expect("tx_complete with nothing in flight");
        // A packet whose serialization completes while the link is down is
        // killed (the queue behind it was already purged, so nothing
        // chains). It never counts as transmitted.
        if !self.is_up() {
            self.stats.fault_dropped += 1;
            return TxResult {
                delivered: None,
                egress_lost: false,
                next_tx_done: None,
            };
        }
        self.stats.transmitted += 1;
        self.stats.transmitted_bytes += pkt.bytes as u64;
        let out = self.egress(now);
        // Pull the next packet from the queue, if any.
        let next_tx_done = self.queue.dequeue(now).map(|next| {
            let done = now + tx_time(next.bytes as u64, rate);
            self.in_flight = Some(next);
            done
        });
        TxResult {
            delivered: out.arrive.map(|at| (pkt, at)),
            egress_lost: out.lost,
            next_tx_done,
        }
    }

    /// Decide the fate of a packet leaving the link at `now`: the random
    /// egress-loss roll (every hit counted in [`LinkStats::egress_lost`]),
    /// a corruption roll only if it survived, and the impairment stage on
    /// its arrival time.
    /// [`Link::tx_complete`] ends with this; a pure-delay link has no
    /// serialization to complete, so the simulation calls it straight after
    /// [`Link::offer`].
    pub(crate) fn egress(&mut self, now: SimTime) -> Egress {
        let lost = self.rng.chance(self.loss);
        if lost {
            self.stats.egress_lost += 1;
        }
        // The corruption roll draws from the fault's own derived stream
        // *after* the link's loss roll, so activating a fault never shifts
        // the link's base loss process.
        let corrupt = self.fault.as_deref_mut().and_then(|f| f.corrupt.as_mut());
        let corrupted = !lost && corrupt.is_some_and(|(prob, rng)| rng.chance(*prob));
        self.stats.fault_corrupted += corrupted as u64;
        let arrive = (!lost && !corrupted).then(|| self.shape_arrival(now + self.delay));
        Egress { lost, arrive }
    }

    /// True unless an injected fault has taken the link down.
    pub fn is_up(&self) -> bool {
        self.fault.as_ref().is_none_or(|f| f.up)
    }

    /// Take the link down: everything queued is purged (counted in
    /// [`LinkStats::fault_dropped`]) and everything offered or completing
    /// while down is killed. Idempotent.
    pub fn set_down(&mut self, now: SimTime) {
        let fault = self.fault_state();
        if !fault.up {
            return;
        }
        fault.up = false;
        while self.queue.dequeue(now).is_some() {
            self.stats.fault_dropped += 1;
        }
    }

    /// Bring the link back up. The in-flight slot is idle (anything
    /// serializing when the link went down was killed at its completion
    /// event), so the next offered packet serializes immediately. Idempotent.
    pub fn set_up(&mut self) {
        self.fault_state().up = true;
    }

    /// Install or clear an egress corruption fault: each surviving packet
    /// is killed with probability `prob`, rolled on the fault's own RNG
    /// stream.
    pub fn set_fault_corrupt(&mut self, fault: Option<(f64, SimRng)>) {
        self.fault_state().corrupt = fault;
    }

    fn fault_state(&mut self) -> &mut FaultState {
        self.fault
            .get_or_insert_with(|| Box::new(FaultState::new()))
    }

    /// Run a delivery through the impairment stage: jitter and bounded
    /// reordering may move the nominal arrival time. Identity when no
    /// shaper is configured.
    fn shape_arrival(&mut self, nominal: SimTime) -> SimTime {
        match &mut self.shaper {
            Some(shaper) => {
                let (arrive, reordered) = shaper.arrival(nominal);
                if reordered {
                    self.stats.reordered += 1;
                }
                arrive
            }
            None => nominal,
        }
    }

    /// Apply schedule step `index`; returns the time of the next step.
    pub fn apply_step(&mut self, index: usize) -> Option<SimTime> {
        let step = *self.schedule.step(index)?;
        if let Some(rate) = step.rate_bps {
            // Only meaningful for rated links; keep pure-delay links pure.
            if self.rate_bps.is_some() {
                self.rate_bps = Some(rate);
            }
        }
        if let Some(delay) = step.delay {
            self.delay = delay;
        }
        if let Some(loss) = step.loss {
            self.loss = loss.clamp(0.0, 1.0);
        }
        self.schedule.step(index + 1).map(|s| s.at)
    }

    /// True if the link is mid-serialization.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;

    fn data(seq: u64) -> Packet {
        Packet::data(FlowId(0), seq, 1500, SimTime::ZERO, false)
    }

    fn mk_link(cfg: LinkConfig) -> Link {
        Link::new(LinkId(0), cfg, SimRng::new(1))
    }

    #[test]
    fn idle_link_serializes_immediately() {
        // 1500 B at 12 Mbps = 1 ms serialization.
        let mut l = mk_link(LinkConfig::bottleneck(
            12e6,
            SimDuration::from_millis(10),
            64_000,
        ));
        let out = l.offer(data(0), SimTime::ZERO);
        match out {
            LinkOutcome::Accepted { start_tx: Some(t) } => {
                assert_eq!(t, SimTime::from_millis(1));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(l.is_busy());
        let res = l.tx_complete(SimTime::from_millis(1));
        let (pkt, arrive) = res.delivered.expect("no loss configured");
        assert_eq!(pkt.as_data().unwrap().seq, 0);
        assert_eq!(arrive, SimTime::from_millis(11), "1ms tx + 10ms prop");
        assert!(res.next_tx_done.is_none());
        assert!(!l.is_busy());
    }

    #[test]
    fn busy_link_queues_and_chains() {
        let mut l = mk_link(LinkConfig::bottleneck(
            12e6,
            SimDuration::from_millis(0),
            64_000,
        ));
        assert!(matches!(
            l.offer(data(0), SimTime::ZERO),
            LinkOutcome::Accepted { start_tx: Some(_) }
        ));
        assert!(matches!(
            l.offer(data(1), SimTime::ZERO),
            LinkOutcome::Accepted { start_tx: None }
        ));
        let res = l.tx_complete(SimTime::from_millis(1));
        assert!(res.delivered.is_some());
        assert_eq!(
            res.next_tx_done,
            Some(SimTime::from_millis(2)),
            "second packet tx-completes 1 ms later"
        );
    }

    #[test]
    fn full_queue_drops() {
        let mut l = mk_link(LinkConfig::bottleneck(
            12e6,
            SimDuration::ZERO,
            1500, // room for exactly one queued packet
        ));
        assert!(matches!(
            l.offer(data(0), SimTime::ZERO),
            LinkOutcome::Accepted { .. }
        )); // in flight
        assert!(matches!(
            l.offer(data(1), SimTime::ZERO),
            LinkOutcome::Accepted { .. }
        )); // queued
        assert_eq!(l.offer(data(2), SimTime::ZERO), LinkOutcome::Dropped);
    }

    #[test]
    fn pure_delay_link() {
        let mut l = mk_link(LinkConfig::delay_only(SimDuration::from_millis(25)));
        let out = l.offer(data(0), SimTime::from_millis(5));
        assert!(
            matches!(out, LinkOutcome::Accepted { start_tx: Some(t) } if t == SimTime::from_millis(5))
        );
        let out = l.egress(SimTime::from_millis(5));
        assert_eq!(out.arrive, Some(SimTime::from_millis(30)));
    }

    #[test]
    fn loss_rate_statistics() {
        let mut l =
            mk_link(LinkConfig::bottleneck(1e9, SimDuration::ZERO, 1 << 20).with_loss(0.25));
        let n = 100_000;
        let losses = (0..n).filter(|_| l.egress(SimTime::ZERO).lost).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "measured loss {rate}");
    }

    #[test]
    fn schedule_application() {
        let mut sched = LinkSchedule::new();
        sched.push(LinkStep {
            at: SimTime::from_secs(5),
            rate_bps: Some(50e6),
            delay: Some(SimDuration::from_millis(20)),
            loss: Some(0.01),
        });
        sched.push(LinkStep {
            at: SimTime::from_secs(10),
            rate_bps: Some(10e6),
            delay: None,
            loss: None,
        });
        let mut l = mk_link(
            LinkConfig::bottleneck(100e6, SimDuration::from_millis(10), 64_000)
                .with_schedule(sched),
        );
        let next = l.apply_step(0);
        assert_eq!(l.rate_bps(), Some(50e6));
        assert_eq!(l.delay(), SimDuration::from_millis(20));
        assert!((l.loss() - 0.01).abs() < 1e-12);
        assert_eq!(next, Some(SimTime::from_secs(10)));
        let next = l.apply_step(1);
        assert_eq!(l.rate_bps(), Some(10e6));
        assert_eq!(l.delay(), SimDuration::from_millis(20), "unchanged");
        assert_eq!(next, None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn schedule_rejects_unordered_steps() {
        let mut sched = LinkSchedule::new();
        sched.push(LinkStep {
            at: SimTime::from_secs(5),
            rate_bps: None,
            delay: None,
            loss: None,
        });
        sched.push(LinkStep {
            at: SimTime::from_secs(1),
            rate_bps: None,
            delay: None,
            loss: None,
        });
    }
}
