//! The simulation engine: wires flows onto link paths and runs the event
//! loop to a horizon.
//!
//! Construction goes through [`NetworkBuilder`]: add links, add flows (each
//! with a boxed sender and receiver [`Endpoint`] and explicit forward/reverse
//! link paths), then [`NetworkBuilder::build`] and [`Simulation::run_until`].
//! The run produces a [`SimReport`] with per-flow statistics and series.

use crate::arena::FlowArena;
use crate::endpoint::{Action, Endpoint, EndpointCtx};
use crate::event::{Event, EventQueue};
use crate::fault::FaultPlane;
use crate::ids::{Direction, FlowId, LinkId, Side};
use crate::link::{Link, LinkConfig, LinkOutcome, LinkStats};
use crate::packet::Packet;
use crate::queue::QueueStats;
use crate::rng::SimRng;
use crate::stats::{FlowStats, StallInfo};
use crate::time::{SimDuration, SimTime};

/// Salt deriving the fault plane's master RNG stream from the simulation
/// seed (`"FAUL"`); per-fault streams derive from it by schedule index.
const FAULT_RNG_SALT: u64 = 0x4641_554C;

/// Dead timers a heap may hold before any purge, however small it is.
const DEAD_TIMER_FLOOR: usize = 256;

/// Global simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Statistics sampling interval (throughput/RTT series resolution).
    pub sample_interval: SimDuration,
    /// Master seed; all per-link and per-flow streams derive from it.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 0x5043_4331, // "PCC1"
        }
    }
}

/// A dynamically arriving flow supplied by a [`ChurnDriver`].
///
/// Unlike a [`FlowSpec`], a churn flow has no `start_at`: it starts the
/// instant it is admitted. The `tag` is opaque to the engine and handed back
/// in [`ChurnDriver::on_flow_complete`] so the driver can key its own
/// per-flow records (e.g. the flow's size) without the engine keeping a map.
pub struct ChurnFlow {
    /// Sender endpoint (drives data transmission).
    pub sender: Box<dyn Endpoint>,
    /// Receiver endpoint (generates ACKs).
    pub receiver: Box<dyn Endpoint>,
    /// Links traversed by data packets, in order.
    pub fwd_path: Vec<LinkId>,
    /// Links traversed by ACKs, in order.
    pub rev_path: Vec<LinkId>,
    /// Opaque driver-owned tag, echoed back on completion.
    pub tag: u64,
}

/// Supplies an open-loop workload of dynamically arriving flows and
/// receives their final statistics back as they retire.
///
/// The engine pulls arrivals lazily — one look-ahead flow at a time — so a
/// driver can generate millions of arrivals without materializing them. All
/// arrivals due at the same instant are admitted in a single event. When a
/// churn flow finishes (or stalls on its dead-time budget), its slot is
/// harvested: the stats are passed to [`ChurnDriver::on_flow_complete`] and
/// the dense [`FlowId`] goes onto a free list for the next arrival,
/// bounding live state by the number of *concurrent* flows.
pub trait ChurnDriver {
    /// The next flow arrival at or after `now`, or `None` when the workload
    /// is exhausted. Arrival times must be non-decreasing; an arrival in
    /// the past is admitted immediately.
    fn next_arrival(&mut self, now: SimTime) -> Option<(SimTime, ChurnFlow)>;

    /// Called when a churn flow retires (completed or stalled). `stats` is
    /// the flow's final harvested state; `tag` is the [`ChurnFlow::tag`]
    /// it was admitted with.
    fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, now: SimTime);
}

/// Engine-level churn accounting, all zeros when no driver is installed.
///
/// The conservation invariant `arrivals == completions + stalls +
/// live_at_end` holds at any horizon; `peak_live` vs `arrivals` is the
/// free-list recycling ratio (peak concurrent slots, not total flows, bound
/// memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Flows admitted by the churn driver.
    pub arrivals: u64,
    /// Churn flows that finished and were harvested.
    pub completions: u64,
    /// Churn flows that aborted on their dead-time budget.
    pub stalls: u64,
    /// Churn flows still live when the run ended.
    pub live_at_end: u64,
    /// Peak concurrently live flows (including statically registered ones).
    pub peak_live: u64,
    /// Slot allocations served by the free list instead of growing the arena.
    pub recycled: u64,
    /// Packets dropped on arrival because their flow had already retired.
    pub stale_packets: u64,
    /// Timers discarded because their flow had already retired: every timer
    /// a retired flow left armed, whether it came due first, a purge took
    /// it out of the heap, or it was still pending at the horizon. None of
    /// them counts as an event.
    pub stale_timers: u64,
}

/// A flow being added to the network.
pub struct FlowSpec {
    /// Sender endpoint (drives data transmission).
    pub sender: Box<dyn Endpoint>,
    /// Receiver endpoint (generates ACKs).
    pub receiver: Box<dyn Endpoint>,
    /// Links traversed by data packets, in order.
    pub fwd_path: Vec<LinkId>,
    /// Links traversed by ACKs, in order.
    pub rev_path: Vec<LinkId>,
    /// When the sender's `start` fires.
    pub start_at: SimTime,
}

struct FlowRuntime {
    sender: Box<dyn Endpoint>,
    receiver: Box<dyn Endpoint>,
    fwd_path: Vec<LinkId>,
    rev_path: Vec<LinkId>,
    sender_rng: SimRng,
    receiver_rng: SimRng,
    stats: FlowStats,
    window: SampleWindow,
    last_rate_bps: f64,
    /// The driver's tag for a driver-admitted flow, which retires (harvest
    /// stats, recycle the slot) on finish or stall instead of lingering to
    /// the horizon; `None` for a flow registered with the builder.
    churn: Option<u64>,
}

/// A flow's sampling accumulators, reset every sample tick.
#[derive(Default)]
struct SampleWindow {
    delivered_bytes: u64,
    goodput_bytes: u64,
    rtt_sum_ns: u64,
    rtt_count: u64,
}

impl FlowRuntime {
    /// A flow that has sent nothing yet.
    fn new(spec: FlowSpec, sender_rng: SimRng, receiver_rng: SimRng, churn: Option<u64>) -> Self {
        assert!(
            !spec.fwd_path.is_empty() && !spec.rev_path.is_empty(),
            "flow needs at least one link each way"
        );
        FlowRuntime {
            sender: spec.sender,
            receiver: spec.receiver,
            fwd_path: spec.fwd_path,
            rev_path: spec.rev_path,
            sender_rng,
            receiver_rng,
            stats: FlowStats {
                started_at: spec.start_at,
                ..Default::default()
            },
            window: SampleWindow::default(),
            last_rate_bps: 0.0,
            churn,
        }
    }
}

/// Per-link summary in the final report.
#[derive(Clone, Copy, Debug)]
pub struct LinkReport {
    /// Link id.
    pub id: LinkId,
    /// Link counters (offered/transmitted/egress loss).
    pub stats: LinkStats,
    /// Queue counters (drops, peak backlog).
    pub queue: QueueStats,
}

/// The outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-flow statistics, indexed by `FlowId`.
    pub flows: Vec<FlowStats>,
    /// Per-link statistics, indexed by `LinkId`.
    pub links: Vec<LinkReport>,
    /// The sampling interval the series were recorded at.
    pub sample_interval: SimDuration,
    /// When the run ended.
    pub ended_at: SimTime,
    /// Total events processed (for performance accounting). A zero-delay
    /// hop routed in place counts as the `Arrive` it stood in for.
    pub events_processed: u64,
    /// Events stored in a delay lane of the event queue; every other
    /// scheduled event went through its heap, and a zero-delay hop routed
    /// in place was never stored (for performance accounting — pop order
    /// does not depend on it).
    pub lane_events: u64,
    /// Churn-engine accounting (all zeros unless a [`ChurnDriver`] ran).
    pub churn: ChurnStats,
}

impl SimReport {
    /// Average delivered throughput of `flow` in Mbit/s over `[from, to]`.
    pub fn avg_throughput_mbps(&self, flow: FlowId, from: SimTime, to: SimTime) -> f64 {
        self.flows[flow.index()].avg_throughput_mbps(self.sample_interval, from, to)
    }

    /// Average goodput of `flow` in Mbit/s over `[from, to]`.
    pub fn avg_goodput_mbps(&self, flow: FlowId, from: SimTime, to: SimTime) -> f64 {
        self.flows[flow.index()].avg_goodput_mbps(self.sample_interval, from, to)
    }

    /// Whole-run average delivered throughput of `flow` in Mbit/s, measured
    /// from the flow's start to the run end (or completion).
    pub fn flow_throughput_mbps(&self, flow: FlowId) -> f64 {
        let st = &self.flows[flow.index()];
        let end = st.completed_at.unwrap_or(self.ended_at);
        let dur = end.saturating_since(st.started_at).as_secs_f64();
        if dur <= 0.0 {
            return 0.0;
        }
        st.delivered_bytes as f64 * 8.0 / dur / 1e6
    }
}

/// Builder for a [`Simulation`].
pub struct NetworkBuilder {
    config: SimConfig,
    links: Vec<Link>,
    flows: Vec<FlowRuntime>,
    fault: Option<FaultPlane>,
    driver: Option<Box<dyn ChurnDriver>>,
    record_series: bool,
    rng: SimRng,
}

impl NetworkBuilder {
    /// Start building a network with the given config.
    pub fn new(config: SimConfig) -> Self {
        let rng = SimRng::new(config.seed);
        NetworkBuilder {
            config,
            links: Vec::new(),
            flows: Vec::new(),
            fault: None,
            driver: None,
            record_series: true,
            rng,
        }
    }

    /// Attach a fault plane; its compiled schedule is fired as
    /// [`Event::Fault`] events during the run.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.fault = Some(plane);
    }

    /// Attach a churn driver supplying an open-loop flow-arrival workload.
    pub fn set_churn_driver(&mut self, driver: Box<dyn ChurnDriver>) {
        self.driver = Some(driver);
    }

    /// Enable or disable per-flow sampled series (on by default). Churn
    /// runs over O(100k) flows turn this off: aggregate stats and FCTs are
    /// still recorded, but the five per-flow series stay empty, keeping
    /// steady-state memory proportional to *concurrent* flows only.
    pub fn set_record_series(&mut self, record: bool) {
        self.record_series = record;
    }

    /// Add a link; returns its id.
    pub fn add_link(&mut self, config: LinkConfig) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let rng = self.rng.derive(0x4C49_4E4B_0000 + id.0 as u64);
        self.links.push(Link::new(id, config, rng));
        id
    }

    /// Add a flow; returns its id.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        let sender_rng = self.rng.derive(0x534E_4400_0000 + id.0 as u64);
        let receiver_rng = self.rng.derive(0x5243_5600_0000 + id.0 as u64);
        self.flows
            .push(FlowRuntime::new(spec, sender_rng, receiver_rng, None));
        id
    }

    /// Finalize into a runnable [`Simulation`].
    pub fn build(self) -> Simulation {
        // Link events wait in the queue's delay lanes, whatever the link
        // count, and a zero-delay hop is often routed without an event at
        // all. The heap holds live timers (on `fabric_perm` 5.2 pending
        // per flow on average and 8.2 at the peak: about one each of pace,
        // loss scan and algorithm timer, and 2.5 epoch deadlines), retired
        // flows' timers until the next purge (at most half the heap past a
        // floor), control events (one pending step per scheduled link),
        // shaped arrivals and lane-slot collisions; no lane is per link.
        // The hint is a starting size; the heap grows by doubling.
        let hint = (self.flows.len() * 8 + self.links.len()).max(256);
        let events = EventQueue::with_capacity(hint);
        // Deriving is consumption-independent, so taking the fault stream
        // unconditionally leaves every other stream untouched.
        let fault_rng = self.rng.derive(FAULT_RNG_SALT);
        let live = self.flows.len() as u64;
        let has_driver = self.driver.is_some();
        Simulation {
            now: SimTime::ZERO,
            events,
            links: self.links,
            flows: FlowArena::new(self.flows),
            config: self.config,
            fault: self.fault,
            fault_rng,
            rng: self.rng,
            driver: self.driver,
            pending_arrival: None,
            pending_harvest: Vec::new(),
            churn_seq: 0,
            churn: ChurnStats {
                // Zeros (the documented no-churn state) unless a driver runs.
                peak_live: if has_driver { live } else { 0 },
                ..ChurnStats::default()
            },
            record_series: self.record_series,
            scratch: Vec::new(),
            events_processed: 0,
        }
    }
}

/// A runnable simulation.
pub struct Simulation {
    now: SimTime,
    events: EventQueue,
    links: Vec<Link>,
    flows: FlowArena<FlowRuntime>,
    config: SimConfig,
    fault: Option<FaultPlane>,
    fault_rng: SimRng,
    /// Master stream; per-arrival endpoint streams derive from it.
    rng: SimRng,
    driver: Option<Box<dyn ChurnDriver>>,
    /// One-arrival look-ahead pulled from the driver but not yet due.
    pending_arrival: Option<(SimTime, ChurnFlow)>,
    /// Harvests that retired while the driver was checked out (see
    /// `admit_arrivals`), delivered as soon as it returns.
    pending_harvest: Vec<(u64, FlowStats)>,
    /// Monotone arrival counter, salting per-churn-flow RNG streams so a
    /// recycled slot never replays its previous tenant's randomness.
    churn_seq: u64,
    churn: ChurnStats,
    record_series: bool,
    scratch: Vec<Action>,
    events_processed: u64,
}

impl Simulation {
    fn bootstrap(&mut self) {
        for (flow, f) in self.flows.iter_mut() {
            self.events
                .schedule(f.stats.started_at, Event::FlowStart { flow });
        }
        for (i, l) in self.links.iter().enumerate() {
            if let Some(step) = l.schedule().step(0) {
                self.events.schedule(
                    step.at,
                    Event::LinkUpdate {
                        link: LinkId(i as u32),
                        step: 0,
                    },
                );
            }
        }
        if let Some(plane) = &self.fault {
            for (i, &(at, _)) in plane.entries().iter().enumerate() {
                self.events.schedule(at, Event::Fault { index: i });
            }
        }
        self.events
            .schedule(SimTime::ZERO + self.config.sample_interval, Event::Sample);
        if let Some(driver) = &mut self.driver {
            if let Some((at, flow)) = driver.next_arrival(SimTime::ZERO) {
                self.pending_arrival = Some((at, flow));
                self.events.schedule(at, Event::ChurnArrival);
            }
        }
    }

    /// Run until `horizon` (inclusive), then produce the report.
    pub fn run_until(mut self, horizon: SimTime) -> SimReport {
        self.run_to(horizon);
        self.finalize()
    }

    /// Process every event due up to `horizon`, leaving the rest queued.
    fn run_to(&mut self, horizon: SimTime) {
        self.bootstrap();
        // The horizon fixes the series lengths exactly; reserve once.
        let samples = (horizon.as_nanos() / self.config.sample_interval.as_nanos().max(1))
            .min(1 << 24) as usize;
        if self.record_series {
            for (_, rt) in self.flows.iter_mut() {
                let s = &mut rt.stats.series;
                s.throughput_mbps.reserve_exact(samples);
                s.goodput_mbps.reserve_exact(samples);
                s.rate_mbps.reserve_exact(samples);
                s.rtt_ms.reserve_exact(samples);
            }
        }
        while let Some((at, event)) = self.events.pop() {
            if at > horizon {
                // Back into the queue unprocessed, so it ends holding
                // exactly what is still pending.
                self.events.schedule(at, event);
                break;
            }
            self.now = at;
            self.events_processed += 1;
            self.dispatch(event, horizon);
        }
        self.now = horizon;
        // The timers retired flows left armed past the horizon are
        // discarded too, so `stale_timers` does not depend on when purges
        // ran.
        self.churn.stale_timers += self.flows.purge(&mut self.events) as u64;
    }

    fn dispatch(&mut self, event: Event, horizon: SimTime) {
        match event {
            Event::FlowStart { flow } => {
                self.call_endpoint(flow, Side::Sender, |e, ctx| e.start(ctx));
                self.call_endpoint(flow, Side::Receiver, |e, ctx| e.start(ctx));
            }
            Event::Timer {
                flow,
                side,
                token,
                gen,
            } => {
                if self.flows.fire_timer(flow, gen) {
                    self.call_endpoint(flow, side, |e, ctx| e.on_timer(token, ctx));
                } else {
                    // Armed by a retired flow, never by the slot's new
                    // tenant, and it came due before a purge took it:
                    // discarded, and not an event.
                    self.churn.stale_timers += 1;
                    self.events_processed -= 1;
                }
            }
            Event::TxComplete { link } => {
                let res = self.links[link.index()].tx_complete(self.now);
                if let Some(next) = res.next_tx_done {
                    self.events
                        .schedule_after(next - self.now, Event::TxComplete { link });
                }
                let Some((mut pkt, at)) = res.delivered else {
                    return;
                };
                pkt.hop += 1;
                if at == self.now && self.arrival_pops_next(res.duplicate.is_some()) {
                    // A zero-delay hop whose `Arrive` would be the very next
                    // pop: route the packet now, and count it as that event.
                    self.events_processed += 1;
                    self.route(pkt);
                    return;
                }
                self.schedule_arrival(link, at, pkt);
                if res.duplicate.is_some() {
                    self.schedule_arrival(link, at, pkt);
                }
            }
            Event::Arrive { packet } => {
                self.route(packet);
            }
            Event::LinkUpdate { link, step } => {
                if let Some(next_at) = self.links[link.index()].apply_step(step) {
                    self.events.schedule(
                        next_at,
                        Event::LinkUpdate {
                            link,
                            step: step + 1,
                        },
                    );
                }
            }
            Event::Fault { index } => {
                self.apply_fault(index);
            }
            Event::ChurnArrival => {
                self.admit_arrivals();
            }
            Event::Sample => {
                self.take_sample();
                let next = self.now + self.config.sample_interval;
                if next <= horizon {
                    self.events.schedule(next, Event::Sample);
                }
            }
        }
    }

    /// True when an `Arrive` scheduled now, for now, would be the very next
    /// pop: no duplicate is scheduled behind it, and nothing else is due at
    /// this instant. Its sequence number would be the newest, so anything
    /// already due now pops before it; anything later pops after it.
    fn arrival_pops_next(&self, duplicated: bool) -> bool {
        if duplicated {
            #[cfg(test)]
            tests::count_fallback(tests::Fallback::Duplicate);
            return false;
        }
        let tie = self.events.peek_time().is_some_and(|t| t <= self.now);
        #[cfg(test)]
        if tie {
            tests::count_fallback(tests::Fallback::Tie);
        }
        !tie
    }

    /// Apply one fault-plane schedule entry: link state changes, per-fault
    /// corruption/duplication streams, and post-failure ECMP re-resolution.
    fn apply_fault(&mut self, index: usize) {
        let Some(mut plane) = self.fault.take() else {
            return;
        };
        let change = plane.transition(index);
        // Out-of-range targets (a script written for a different topology)
        // are ignored rather than panicking: the fault plane must never be
        // able to crash a run.
        let n = self.links.len();
        for link in change.link_down {
            if link.index() < n {
                self.links[link.index()].set_down(self.now);
            }
        }
        for link in change.link_up {
            if link.index() < n {
                self.links[link.index()].set_up();
            }
        }
        for (link, prob) in change.corrupt {
            if link.index() < n {
                let fault = prob.map(|p| (p, self.fault_rng.derive(index as u64)));
                self.links[link.index()].set_fault_corrupt(fault);
            }
        }
        for (link, prob) in change.duplicate {
            if link.index() < n {
                let fault = prob.map(|p| (p, self.fault_rng.derive(index as u64)));
                self.links[link.index()].set_fault_duplicate(fault);
            }
        }
        if change.reroute {
            for (flow, fwd, rev) in plane.reroute() {
                if let Some(rt) = self.flows.get_mut(flow) {
                    rt.fwd_path = fwd;
                    rt.rev_path = rev;
                }
            }
        }
        self.fault = Some(plane);
    }

    /// Admit every driver arrival due at the current instant (batched into
    /// this one event), then re-arm for the next distinct arrival time.
    fn admit_arrivals(&mut self) {
        // Take the driver out so admitting (which calls endpoints) doesn't
        // alias the `&mut self` borrow — the apply_fault idiom.
        let Some(mut driver) = self.driver.take() else {
            return;
        };
        loop {
            let Some((at, flow)) = self.pending_arrival.take() else {
                break;
            };
            if at > self.now {
                self.pending_arrival = Some((at, flow));
                self.events.schedule(at, Event::ChurnArrival);
                break;
            }
            self.spawn_churn_flow(flow);
            self.pending_arrival = driver.next_arrival(self.now);
        }
        for (tag, stats) in self.pending_harvest.drain(..) {
            driver.on_flow_complete(tag, &stats, self.now);
        }
        self.driver = Some(driver);
    }

    /// Allocate a slot (recycling the free list when possible) and start a
    /// driver-admitted flow right now.
    fn spawn_churn_flow(&mut self, flow: ChurnFlow) {
        let k = self.churn_seq;
        self.churn_seq += 1;
        self.churn.arrivals += 1;
        // Per-arrival streams are salted by the monotone arrival index, not
        // the slot id, so a recycled slot never replays its previous
        // tenant's randomness. The high bits ("WLSD"/"WLRC") keep these
        // tags disjoint from the builder's per-slot and per-link streams.
        let sender_rng = self.rng.derive(0x574C_5344_0000_0000_u64.wrapping_add(k));
        let receiver_rng = self.rng.derive(0x574C_5243_0000_0000_u64.wrapping_add(k));
        let spec = FlowSpec {
            sender: flow.sender,
            receiver: flow.receiver,
            fwd_path: flow.fwd_path,
            rev_path: flow.rev_path,
            start_at: self.now,
        };
        let rt = FlowRuntime::new(spec, sender_rng, receiver_rng, Some(flow.tag));
        let id = self.flows.admit(rt);
        self.churn.peak_live = self.churn.peak_live.max(self.flows.live() as u64);
        self.call_endpoint(id, Side::Sender, |e, ctx| e.start(ctx));
        self.call_endpoint(id, Side::Receiver, |e, ctx| e.start(ctx));
    }

    /// Harvest a terminal churn flow: free its slot (orphaning whatever it
    /// left in flight) and hand its stats to the driver with its `tag`.
    fn retire_flow(&mut self, flow: FlowId, tag: u64) {
        let rt = self.flows.retire(flow).expect("a terminal flow is live");
        if rt.stats.completed_at.is_some() {
            self.churn.completions += 1;
        } else {
            self.churn.stalls += 1;
        }
        match &mut self.driver {
            Some(driver) => driver.on_flow_complete(tag, &rt.stats, self.now),
            // The driver is momentarily out while admit_arrivals runs (a
            // flow can go terminal inside its own start); buffer the
            // harvest and deliver it when the driver is re-installed.
            None => self.pending_harvest.push((tag, rt.stats)),
        }
        // Amortised O(1) per dead timer: a purge walks the heap only once
        // the dead outnumber half of it.
        if self.flows.dead_timers() > DEAD_TIMER_FLOOR.max(self.events.heap_len() / 2) {
            self.churn.stale_timers += self.flows.purge(&mut self.events) as u64;
        }
    }

    /// Move `pkt` along its path: offer to the next link, or deliver to the
    /// destination endpoint if all links are traversed.
    fn route(&mut self, mut pkt: Packet) {
        let Some(flow) = self.flows.owner_mut(pkt.flow, pkt.gen) else {
            // Sent by a retired flow: it must not bleed into the slot's
            // next tenant.
            self.churn.stale_packets += 1;
            return;
        };
        let path = match pkt.dir {
            Direction::Forward => &flow.fwd_path,
            Direction::Reverse => &flow.rev_path,
        };
        let hop = pkt.hop as usize;
        if hop >= path.len() {
            if pkt.is_data() {
                flow.stats.delivered_bytes += pkt.bytes as u64;
                flow.stats.delivered_packets += 1;
                flow.window.delivered_bytes += pkt.bytes as u64;
            }
            let side = match pkt.dir {
                Direction::Forward => Side::Receiver,
                Direction::Reverse => Side::Sender,
            };
            self.call_endpoint(pkt.flow, side, |e, ctx| e.on_packet(&pkt, ctx));
            return;
        }
        let link_id = path[hop];
        let link = &mut self.links[link_id.index()];
        if link.rate_bps().is_none() {
            // Pure-delay link: ingress (policing, the downed-link black
            // hole) is all `offer` does, and with nothing to serialize the
            // packet leaves at once.
            if link.offer(pkt, self.now) == LinkOutcome::Dropped {
                return;
            }
            let out = link.egress(self.now);
            if let Some(at) = out.arrive {
                pkt.hop += 1;
                self.schedule_arrival(link_id, at, pkt);
                if out.duplicated {
                    self.schedule_arrival(link_id, at, pkt);
                }
            }
            return;
        }
        match link.offer(pkt, self.now) {
            LinkOutcome::Accepted {
                start_tx: Some(done),
            } => {
                self.events
                    .schedule_after(done - self.now, Event::TxComplete { link: link_id });
            }
            LinkOutcome::Accepted { start_tx: None } => {}
            LinkOutcome::Dropped => {}
        }
    }

    /// Schedule `pkt`'s arrival at `at` over `link`: exactly the link's delay
    /// from now joins that delay's lane; a shaped arrival goes by its time.
    fn schedule_arrival(&mut self, link: LinkId, at: SimTime, pkt: Packet) {
        let delay = self.links[link.index()].delay();
        let event = Event::Arrive { packet: pkt };
        if at == self.now + delay {
            self.events.schedule_after(delay, event);
        } else {
            self.events.schedule(at, event);
        }
    }

    /// Invoke an endpoint callback and apply the actions it emitted.
    fn call_endpoint(
        &mut self,
        flow: FlowId,
        side: Side,
        f: impl FnOnce(&mut dyn Endpoint, &mut EndpointCtx),
    ) {
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        {
            let Some(rt) = self.flows.get_mut(flow) else {
                self.scratch = actions;
                return;
            };
            let (endpoint, rng) = match side {
                Side::Sender => (&mut rt.sender, &mut rt.sender_rng),
                Side::Receiver => (&mut rt.receiver, &mut rt.receiver_rng),
            };
            let mut ctx = EndpointCtx::new(self.now, flow, side, rng, &mut actions);
            f(endpoint.as_mut(), &mut ctx);
        }
        // Apply actions outside the endpoint borrow.
        for action in actions.drain(..) {
            self.apply_action(flow, side, action);
        }
        self.scratch = actions;
        // Retire terminal churn flows only after the whole action batch is
        // applied, so trailing Record* actions still land on this flow.
        let terminal = self.flows.get_mut(flow).and_then(|rt| {
            rt.churn
                .filter(|_| rt.stats.completed_at.is_some() || rt.stats.stalled.is_some())
        });
        if let Some(tag) = terminal {
            self.retire_flow(flow, tag);
        }
    }

    fn apply_action(&mut self, flow: FlowId, side: Side, action: Action) {
        let Some(rt) = self.flows.get_mut(flow) else {
            return;
        };
        match action {
            Action::Send(mut pkt) => {
                if side == Side::Sender && pkt.is_data() {
                    rt.stats.sent_packets += 1;
                }
                pkt.flow = flow;
                pkt.dir = match side {
                    Side::Sender => Direction::Forward,
                    Side::Receiver => Direction::Reverse,
                };
                pkt.hop = 0;
                pkt.gen = self.flows.stamp(flow);
                self.route(pkt);
            }
            Action::SetTimer { at, token } => {
                let gen = self.flows.arm_timer(flow);
                let timer = Event::Timer {
                    flow,
                    side,
                    token,
                    gen,
                };
                self.events.schedule(at.max(self.now), timer);
            }
            Action::RecordRate(bps) => rt.last_rate_bps = bps,
            Action::RecordRtt(rtt) => {
                rt.stats.rtt_sum_ns += rtt.as_nanos();
                rt.stats.rtt_samples += 1;
                rt.window.rtt_sum_ns += rtt.as_nanos();
                rt.window.rtt_count += 1;
            }
            Action::RecordLoss(n) => rt.stats.detected_losses += n,
            Action::RecordGoodput(bytes) => {
                rt.stats.goodput_bytes += bytes;
                rt.window.goodput_bytes += bytes;
            }
            Action::Stall { dark, timeouts } => {
                let at = self.now;
                rt.stats
                    .stalled
                    .get_or_insert(StallInfo { at, dark, timeouts });
            }
            Action::Finish => {
                rt.stats.completed_at.get_or_insert(self.now);
            }
        }
    }

    fn take_sample(&mut self) {
        let dt = self.config.sample_interval.as_secs_f64();
        for (_, rt) in self.flows.iter_mut() {
            let w = std::mem::take(&mut rt.window);
            if self.record_series {
                let rtt_ms = if w.rtt_count > 0 {
                    (w.rtt_sum_ns as f64 / w.rtt_count as f64) / 1e6
                } else {
                    f64::NAN
                };
                let s = &mut rt.stats.series;
                s.throughput_mbps
                    .push(w.delivered_bytes as f64 * 8.0 / dt / 1e6);
                s.goodput_mbps.push(w.goodput_bytes as f64 * 8.0 / dt / 1e6);
                s.rate_mbps.push(rt.last_rate_bps / 1e6);
                s.rtt_ms.push(rtt_ms);
            }
        }
    }

    fn finalize(mut self) -> SimReport {
        let live = self.flows.iter_mut();
        self.churn.live_at_end = live.filter(|(_, rt)| rt.churn.is_some()).count() as u64;
        self.churn.recycled = self.flows.recycled();
        SimReport {
            // A retired slot reports default (empty) stats: its real stats
            // were harvested through the driver when the flow retired.
            flows: self
                .flows
                .into_tenants()
                .map(|f| f.map(|f| f.stats).unwrap_or_default())
                .collect(),
            links: self
                .links
                .iter()
                .map(|l| LinkReport {
                    id: l.id(),
                    stats: l.stats(),
                    queue: l.queue_stats(),
                })
                .collect(),
            sample_interval: self.config.sample_interval,
            ended_at: self.now,
            events_processed: self.events_processed,
            lane_events: self.events.lane_scheduled(),
            churn: self.churn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultPlane, FaultScript};
    use crate::packet::AckInfo;

    /// A sender that emits `count` packets at fixed spacing, one per timer.
    struct TickSender {
        next_seq: u64,
        count: u64,
        spacing: SimDuration,
        acked: u64,
    }

    impl Endpoint for TickSender {
        fn start(&mut self, ctx: &mut EndpointCtx) {
            ctx.set_timer(ctx.now, 0);
        }
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
            let ack = pkt.as_ack().expect("sender gets ACKs");
            self.acked += 1;
            ctx.record_rtt(ctx.now.saturating_since(ack.echo_sent_at));
            if self.acked == self.count {
                ctx.finish();
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut EndpointCtx) {
            if self.next_seq < self.count {
                ctx.send_data(self.next_seq, 1500, false);
                self.next_seq += 1;
                ctx.set_timer(ctx.now + self.spacing, 0);
            }
        }
    }

    /// A receiver that ACKs every data packet.
    struct EchoReceiver {
        received: u64,
    }

    impl Endpoint for EchoReceiver {
        fn start(&mut self, _ctx: &mut EndpointCtx) {}
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
            let d = pkt.as_data().expect("receiver gets data");
            self.received += 1;
            ctx.record_goodput(pkt.bytes as u64);
            ctx.send_ack(AckInfo {
                acked_seq: d.seq,
                cum_ack: self.received,
                echo_sent_at: d.sent_at,
                recv_at: ctx.now,
                recv_bytes: self.received * 1500,
                probe_train: d.probe_train,
                of_retx: d.retx,
            });
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    }

    fn two_way_net(rate_bps: f64, one_way: SimDuration) -> (NetworkBuilder, LinkId, LinkId) {
        let mut nb = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 7,
        });
        let fwd = nb.add_link(LinkConfig::bottleneck(rate_bps, one_way, 64_000));
        let rev = nb.add_link(LinkConfig::delay_only(one_way));
        (nb, fwd, rev)
    }

    /// Why a zero-delay hop's arrival went into the event queue instead of
    /// being routed in place.
    #[derive(Clone, Copy)]
    pub(super) enum Fallback {
        /// A fault-plane duplicate follows it.
        Duplicate,
        /// Another event is due at the same instant.
        Tie,
    }

    thread_local! {
        /// This test thread's fallback counts, indexed by [`Fallback`].
        static FALLBACKS: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
    }

    pub(super) fn count_fallback(why: Fallback) {
        FALLBACKS.with(|c| {
            let mut n = c.get();
            n[why as usize] += 1;
            c.set(n);
        });
    }

    /// Take this thread's fallback counts, `[duplicate, tie]`.
    fn take_fallbacks() -> [u64; 2] {
        FALLBACKS.with(|c| c.take())
    }

    /// One `TickSender` flow over a zero-delay 10 Mbit/s bottleneck (link
    /// 0) and a 5 ms shim, the shape of a scenario dumbbell, with ACKs back
    /// over 5 ms; `script` runs on the fault plane. Returns the report and
    /// the fallback counts of the run.
    fn run_zero_delay_hop(spacing: SimDuration, script: FaultScript) -> (SimReport, [u64; 2]) {
        let mut nb = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 7,
        });
        let bottleneck = nb.add_link(LinkConfig::bottleneck(10e6, SimDuration::ZERO, 64_000));
        let shim = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(5)));
        let rev = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(5)));
        nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 500,
                spacing,
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![bottleneck, shim],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        nb.set_fault_plane(FaultPlane::new(script));
        take_fallbacks();
        let report = nb.build().run_until(SimTime::from_secs(2));
        (report, take_fallbacks())
    }

    /// What a change to the event loop must not move: the event count and
    /// the flow's delivery.
    fn delivery(r: &SimReport) -> (u64, u64, u64, Option<SimTime>) {
        let f = &r.flows[0];
        (
            r.events_processed,
            f.delivered_packets,
            f.rtt_sum_ns,
            f.completed_at,
        )
    }

    #[test]
    fn zero_delay_hop_waits_behind_its_duplicate() {
        let mut script = FaultScript::new();
        let link = LinkId(0);
        script.push(
            SimTime::from_millis(100),
            FaultEvent::DuplicateOn { link, prob: 0.5 },
        );
        script.push(SimTime::from_millis(400), FaultEvent::DuplicateOff { link });
        let (r, [duplicate, tie]) = run_zero_delay_hop(SimDuration::from_millis(2), script);
        assert!(r.links[0].stats.fault_duplicated > 0);
        assert!(
            duplicate > 0 && tie == 0,
            "{duplicate} duplicates, {tie} ties"
        );
        // Captured with every zero-delay arrival scheduled.
        let done = SimTime::from_nanos(865_200_000);
        assert_eq!(delivery(&r), (2_740, 572, 6_406_400_000, Some(done)));
    }

    #[test]
    fn zero_delay_hop_waits_behind_a_same_instant_event() {
        // A departure every serialization time (1 500 B at 10 Mbit/s): the
        // sender's next timer, armed just after the link scheduled its
        // completion, falls due at that completion's instant.
        let spacing = SimDuration::from_micros(1200);
        let (r, [duplicate, tie]) = run_zero_delay_hop(spacing, FaultScript::new());
        assert!(
            duplicate == 0 && tie > 0,
            "{duplicate} duplicates, {tie} ties"
        );
        let done = SimTime::from_millis(610);
        assert_eq!(delivery(&r), (2_522, 500, 5_600_000_000, Some(done)));
    }

    #[test]
    fn packets_flow_end_to_end() {
        let (mut nb, fwd, rev) = two_way_net(10e6, SimDuration::from_millis(10));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 100,
                spacing: SimDuration::from_millis(2),
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let report = nb.build().run_until(SimTime::from_secs(2));
        let st = &report.flows[flow.index()];
        assert_eq!(st.sent_packets, 100);
        assert_eq!(st.delivered_packets, 100);
        assert_eq!(st.delivered_bytes, 150_000);
        assert_eq!(st.goodput_bytes, 150_000);
        assert!(st.completed_at.is_some(), "all ACKs received => finished");
        // RTT = 10ms fwd prop + 1.2ms serialization + 10ms rev = ~21.2ms.
        let rtt = st.mean_rtt().expect("rtt measured");
        assert!(
            (rtt.as_millis_f64() - 21.2).abs() < 0.5,
            "rtt={}",
            rtt.as_millis_f64()
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let mut nb = NetworkBuilder::new(SimConfig {
                sample_interval: SimDuration::from_millis(50),
                seed,
            });
            let fwd = nb.add_link(
                LinkConfig::bottleneck(5e6, SimDuration::from_millis(5), 20_000).with_loss(0.05),
            );
            let rev = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(5)));
            nb.add_flow(FlowSpec {
                sender: Box::new(TickSender {
                    next_seq: 0,
                    count: 500,
                    // Below the 5 Mbps bottleneck (1500 B / 3 ms = 4 Mbps),
                    // so the delivered count reflects the random-loss
                    // pattern rather than a deterministic queue-drain rate.
                    spacing: SimDuration::from_millis(3),
                    acked: 0,
                }),
                receiver: Box::new(EchoReceiver { received: 0 }),
                fwd_path: vec![fwd],
                rev_path: vec![rev],
                start_at: SimTime::ZERO,
            });
            let r = nb.build().run_until(SimTime::from_secs(2));
            (
                r.flows[0].delivered_packets,
                r.flows[0].delivered_bytes,
                r.events_processed,
            )
        };
        assert_eq!(run(42), run(42), "same seed, identical run");
        assert_ne!(
            run(42),
            run(43),
            "different seed, different loss pattern (with overwhelming probability)"
        );
    }

    #[test]
    fn egress_loss_reduces_delivery() {
        let mut nb = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 3,
        });
        let fwd = nb.add_link(
            LinkConfig::bottleneck(100e6, SimDuration::from_millis(1), 1 << 20).with_loss(0.5),
        );
        let rev = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(1)));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 2000,
                spacing: SimDuration::from_micros(200),
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let report = nb.build().run_until(SimTime::from_secs(2));
        let st = &report.flows[flow.index()];
        let delivery = st.delivered_packets as f64 / st.sent_packets as f64;
        assert!(
            (delivery - 0.5).abs() < 0.05,
            "~50% delivery, got {delivery}"
        );
        assert_eq!(
            report.links[fwd.index()].stats.egress_lost
                + report.flows[flow.index()].delivered_packets,
            2000
        );
    }

    #[test]
    fn bottleneck_paces_delivery_rate() {
        // Sender injects at 30 Mbps into a 10 Mbps bottleneck with a large
        // buffer: delivery rate must equal the bottleneck rate.
        let (mut nb, fwd, rev) = two_way_net(10e6, SimDuration::from_millis(5));
        let _ = rev;
        let rev2 = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(5)));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 100_000,
                spacing: SimDuration::from_micros(400), // 1500B/400us = 30 Mbps
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![fwd],
            rev_path: vec![rev2],
            start_at: SimTime::ZERO,
        });
        let report = nb.build().run_until(SimTime::from_secs(3));
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(1), SimTime::from_secs(3));
        assert!(
            (tput - 10.0).abs() < 0.5,
            "delivery pinned at bottleneck: {tput} Mbps"
        );
        // The queue must have dropped the excess.
        assert!(report.links[fwd.index()].queue.dropped_tail > 0);
    }

    #[test]
    fn sample_series_lengths_match() {
        let (mut nb, fwd, rev) = two_way_net(10e6, SimDuration::from_millis(5));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 10,
                spacing: SimDuration::from_millis(1),
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let report = nb.build().run_until(SimTime::from_secs(1));
        let s = &report.flows[flow.index()].series;
        // 1s horizon, 100ms sampling => 10 samples.
        assert_eq!(s.throughput_mbps.len(), 10);
        assert_eq!(s.goodput_mbps.len(), 10);
        assert_eq!(s.rate_mbps.len(), 10);
        assert_eq!(s.rtt_ms.len(), 10);
    }

    #[test]
    fn link_flap_drops_are_counted_not_silent() {
        use crate::fault::{FaultEvent, FaultPlane, FaultScript};
        let (mut nb, fwd, rev) = two_way_net(10e6, SimDuration::from_millis(5));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 300,
                spacing: SimDuration::from_millis(2),
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let mut script = FaultScript::new();
        script.push(
            SimTime::from_millis(100),
            FaultEvent::LinkDown { link: fwd },
        );
        script.push(SimTime::from_millis(200), FaultEvent::LinkUp { link: fwd });
        nb.set_fault_plane(FaultPlane::new(script));
        let report = nb.build().run_until(SimTime::from_secs(2));
        let st = &report.flows[flow.index()];
        let ls = report.links[fwd.index()].stats;
        assert!(ls.fault_dropped > 0, "the flap killed something");
        // Conservation: every sent packet is delivered or accounted as a
        // fault drop (no random loss, ample buffer => nothing else).
        assert_eq!(
            st.sent_packets,
            st.delivered_packets + ls.fault_dropped,
            "no silent drops"
        );
        // Delivery resumed after repair: everything sent post-repair lands.
        assert!(st.delivered_packets > 200, "flow recovered after the flap");
    }

    #[test]
    fn duplicate_and_corrupt_faults_are_counted() {
        use crate::fault::{FaultEvent, FaultPlane, FaultScript};
        let (mut nb, fwd, rev) = two_way_net(10e6, SimDuration::from_millis(5));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 500,
                spacing: SimDuration::from_millis(2),
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let mut script = FaultScript::new();
        script.push(
            SimTime::from_millis(100),
            FaultEvent::DuplicateOn {
                link: fwd,
                prob: 0.5,
            },
        );
        script.push(
            SimTime::from_millis(400),
            FaultEvent::DuplicateOff { link: fwd },
        );
        script.push(
            SimTime::from_millis(500),
            FaultEvent::CorruptOn {
                link: fwd,
                prob: 1.0,
            },
        );
        script.push(
            SimTime::from_millis(600),
            FaultEvent::CorruptOff { link: fwd },
        );
        nb.set_fault_plane(FaultPlane::new(script));
        let report = nb.build().run_until(SimTime::from_secs(2));
        let st = &report.flows[flow.index()];
        let ls = report.links[fwd.index()].stats;
        assert!(ls.fault_duplicated > 0, "duplication fault fired");
        assert!(ls.fault_corrupted > 0, "corruption fault fired");
        // Conservation with duplicates counted as extra deliveries.
        assert_eq!(
            st.sent_packets + ls.fault_duplicated,
            st.delivered_packets + ls.fault_corrupted,
            "every packet delivered, duplicated-and-delivered, or corrupted"
        );
    }

    #[test]
    fn node_failure_reroutes_live_flow_onto_survivor() {
        use crate::fault::{FaultEvent, FaultPlane, FaultScript};
        use crate::topo::{ecmp_key, Topology};
        // Two equal-cost switch paths between two hosts.
        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        let s1 = topo.add_switch();
        let s2 = topo.add_switch();
        let cfg = || LinkConfig::bottleneck(10e6, SimDuration::from_millis(2), 64_000);
        for &s in &[s1, s2] {
            topo.add_duplex(a, s, cfg(), cfg());
            topo.add_duplex(s, b, cfg(), cfg());
        }
        let mut nb = NetworkBuilder::new(SimConfig::default());
        topo.install(&mut nb);
        let key = ecmp_key(11, 0);
        let path = topo.flow_path(a, b, key);
        // Which middle switch does the forward path transit? Its first hop
        // link leaves host `a` toward that switch.
        let via = topo
            .edge_endpoints(
                (0..topo.num_edges() as u32)
                    .map(crate::ids::EdgeId)
                    .find(|&e| topo.link_of(e) == path.fwd[0])
                    .expect("first hop edge"),
            )
            .1;
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 400,
                spacing: SimDuration::from_millis(2),
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let mut script = FaultScript::new();
        script.push(
            SimTime::from_millis(200),
            FaultEvent::NodeDown { node: via },
        );
        let mut plane = FaultPlane::new(script);
        plane.attach_topology(&topo);
        plane.register_flow(flow, a, b, key);
        nb.set_fault_plane(plane);
        let report = nb.build().run_until(SimTime::from_secs(2));
        let st = &report.flows[flow.index()];
        // The switch never comes back, yet delivery continues over the
        // surviving equal-cost path; only the handful of packets in flight
        // at the failure instant die (this sender never retransmits), and
        // every one of them is accounted as a fault drop.
        assert_eq!(st.sent_packets, 400);
        assert!(
            st.delivered_packets >= 395,
            "rerouted onto the survivor: {} delivered",
            st.delivered_packets
        );
        let fault_drops: u64 = report.links.iter().map(|l| l.stats.fault_dropped).sum();
        assert!(fault_drops > 0, "the failure killed the in-flight packets");
        assert!(
            st.sent_packets - st.delivered_packets <= fault_drops,
            "every undelivered data packet is accounted as a fault drop"
        );
    }

    /// Shared collector for churn-driver tests: records each harvested
    /// flow's tag and final stats.
    type Harvest = std::rc::Rc<std::cell::RefCell<Vec<(u64, u64, u64, bool)>>>;

    /// A driver admitting `count` flows at a fixed interval, each a
    /// `TickSender` sending `pkts` packets. Tags are arrival indices.
    struct IntervalDriver {
        next_at: SimTime,
        interval: SimDuration,
        admitted: u64,
        count: u64,
        pkts: u64,
        fwd: LinkId,
        rev: LinkId,
        harvest: Harvest,
    }

    impl IntervalDriver {
        fn flow(&self, tag: u64) -> ChurnFlow {
            ChurnFlow {
                sender: Box::new(TickSender {
                    next_seq: 0,
                    count: self.pkts,
                    spacing: SimDuration::from_millis(1),
                    acked: 0,
                }),
                receiver: Box::new(EchoReceiver { received: 0 }),
                fwd_path: vec![self.fwd],
                rev_path: vec![self.rev],
                tag,
            }
        }
    }

    impl ChurnDriver for IntervalDriver {
        fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
            if self.admitted >= self.count {
                return None;
            }
            let tag = self.admitted;
            let at = self.next_at;
            self.admitted += 1;
            self.next_at = at + self.interval;
            Some((at, self.flow(tag)))
        }

        fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, _now: SimTime) {
            self.harvest.borrow_mut().push((
                tag,
                stats.delivered_bytes,
                stats.goodput_bytes,
                stats.completed_at.is_some(),
            ));
        }
    }

    #[test]
    fn churn_recycles_slots_and_conserves_accounting() {
        let (mut nb, fwd, rev) = two_way_net(100e6, SimDuration::from_millis(2));
        let harvest: Harvest = Default::default();
        nb.set_churn_driver(Box::new(IntervalDriver {
            next_at: SimTime::ZERO,
            interval: SimDuration::from_millis(25),
            admitted: 0,
            count: 200,
            pkts: 5,
            fwd,
            rev,
            harvest: harvest.clone(),
        }));
        let report = nb.build().run_until(SimTime::from_secs(6));
        let c = report.churn;
        assert_eq!(c.arrivals, 200);
        assert_eq!(
            c.completions + c.stalls + c.live_at_end,
            c.arrivals,
            "accounting conserved: {c:?}"
        );
        assert_eq!(c.completions, 200, "every short flow finishes: {c:?}");
        // Each flow lives ~9 ms against a 25 ms inter-arrival gap: the arena
        // never needs more than a couple of slots for 200 flows.
        assert!(c.peak_live <= 3, "peak slots ≪ total flows: {c:?}");
        assert!(
            report.flows.len() as u64 <= c.peak_live,
            "arena bounded by peak, not arrivals: {} slots",
            report.flows.len()
        );
        assert!(
            c.recycled >= 197,
            "free list served the steady state: {c:?}"
        );
        // Harvested stats are per-flow, uncontaminated: every flow delivered
        // exactly its own 5 packets.
        let h = harvest.borrow();
        assert_eq!(h.len(), 200);
        for &(tag, delivered, goodput, done) in h.iter() {
            assert!(tag < 200);
            assert_eq!(delivered, 5 * 1500, "flow {tag} delivered its bytes");
            assert_eq!(goodput, 5 * 1500);
            assert!(done);
        }
    }

    #[test]
    fn same_instant_arrivals_are_batched_and_all_admitted() {
        // The buffer must absorb the synchronized 100-packet burst: this
        // sender never retransmits, so a tail drop would leave its flow
        // incomplete (and the completions assert below is exact).
        let mut nb = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 7,
        });
        let fwd = nb.add_link(LinkConfig::bottleneck(
            100e6,
            SimDuration::from_millis(2),
            1 << 20,
        ));
        let rev = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(2)));
        let harvest: Harvest = Default::default();
        // Zero interval: all 50 arrivals land at the same instant and must
        // be admitted by the single ChurnArrival event.
        nb.set_churn_driver(Box::new(IntervalDriver {
            next_at: SimTime::from_millis(10),
            interval: SimDuration::ZERO,
            admitted: 0,
            count: 50,
            pkts: 2,
            fwd,
            rev,
            harvest: harvest.clone(),
        }));
        let report = nb.build().run_until(SimTime::from_secs(2));
        let c = report.churn;
        assert_eq!(c.arrivals, 50);
        assert_eq!(c.completions, 50);
        assert_eq!(c.peak_live, 50, "all concurrent");
        assert_eq!(harvest.borrow().len(), 50);
    }

    /// A sender that fires two packets back-to-back but finishes on the
    /// first ACK, deliberately leaving its second packet (and that packet's
    /// ACK) in flight past its own retirement.
    struct EagerFinisher;

    impl Endpoint for EagerFinisher {
        fn start(&mut self, ctx: &mut EndpointCtx) {
            ctx.send_data(0, 1500, false);
            ctx.send_data(1, 1500, false);
        }
        fn on_packet(&mut self, _pkt: &Packet, ctx: &mut EndpointCtx) {
            ctx.finish();
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
    }

    struct TwoFlowDriver {
        admitted: u32,
        fwd: LinkId,
        rev: LinkId,
        harvest: Harvest,
    }

    impl ChurnDriver for TwoFlowDriver {
        fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
            self.admitted += 1;
            match self.admitted {
                1 => Some((
                    SimTime::ZERO,
                    ChurnFlow {
                        sender: Box::new(EagerFinisher),
                        receiver: Box::new(EchoReceiver { received: 0 }),
                        fwd_path: vec![self.fwd],
                        rev_path: vec![self.rev],
                        tag: 1,
                    },
                )),
                2 => Some((
                    // Long after flow 1's leftovers have drained out of the
                    // network — but its slot (and any stale events) remain.
                    SimTime::from_millis(200),
                    ChurnFlow {
                        sender: Box::new(TickSender {
                            next_seq: 0,
                            count: 3,
                            spacing: SimDuration::from_millis(1),
                            acked: 0,
                        }),
                        receiver: Box::new(EchoReceiver { received: 0 }),
                        fwd_path: vec![self.fwd],
                        rev_path: vec![self.rev],
                        tag: 2,
                    },
                )),
                _ => None,
            }
        }

        fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, _now: SimTime) {
            self.harvest.borrow_mut().push((
                tag,
                stats.delivered_bytes,
                stats.goodput_bytes,
                stats.completed_at.is_some(),
            ));
        }
    }

    #[test]
    fn recycled_slot_never_aliases_retired_flow() {
        // Regression against cross-flow stat bleed: flow 1 retires with a
        // data packet still in flight; flow 2 reuses the same slot. The
        // stale packet must be dropped by the generation check, not
        // credited to flow 2's delivered bytes.
        //
        // The reverse path is much faster than the forward one, so the
        // first ACK (and with it Finish) beats the second data packet:
        // pkt0 lands at 11.2 ms, its ACK finishes the flow at 12.2 ms,
        // and pkt1 arrives stale at 12.4 ms.
        let mut nb = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 7,
        });
        let fwd = nb.add_link(LinkConfig::bottleneck(
            10e6,
            SimDuration::from_millis(10),
            64_000,
        ));
        let rev = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(1)));
        let harvest: Harvest = Default::default();
        nb.set_churn_driver(Box::new(TwoFlowDriver {
            admitted: 0,
            fwd,
            rev,
            harvest: harvest.clone(),
        }));
        let report = nb.build().run_until(SimTime::from_secs(1));
        let c = report.churn;
        assert_eq!(c.arrivals, 2);
        assert_eq!(c.completions, 2);
        assert_eq!(c.recycled, 1, "flow 2 reused flow 1's slot");
        assert!(
            c.stale_packets >= 1,
            "flow 1's in-flight leftovers were dropped, not delivered: {c:?}"
        );
        let h = harvest.borrow();
        // Flow 1 finished on its first ACK: exactly one packet delivered.
        let f1 = h.iter().find(|e| e.0 == 1).expect("flow 1 harvested");
        assert_eq!(f1.1, 1500, "flow 1 credited only its pre-retire delivery");
        // Flow 2's stats contain flow 2's packets only — no bleed.
        let f2 = h.iter().find(|e| e.0 == 2).expect("flow 2 harvested");
        assert_eq!(f2.1, 3 * 1500, "no cross-flow stat bleed: {f2:?}");
        assert_eq!(f2.2, 3 * 1500);
    }

    /// A sender that arms a long timer, then behaves like a 1-packet flow;
    /// its timer outlives its own retirement.
    struct TimerLeaker;

    impl Endpoint for TimerLeaker {
        fn start(&mut self, ctx: &mut EndpointCtx) {
            ctx.set_timer(ctx.now + SimDuration::from_millis(300), 99);
            ctx.send_data(0, 1500, false);
        }
        fn on_packet(&mut self, _pkt: &Packet, ctx: &mut EndpointCtx) {
            ctx.finish();
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {
            panic!("stale timer fired into a retired flow");
        }
    }

    /// Counts its own timer fires; panics if it sees token 99 (the
    /// leaker's), which would mean a stale timer crossed tenants.
    struct TimerCounter {
        fires: u64,
        done: bool,
    }

    impl Endpoint for TimerCounter {
        fn start(&mut self, ctx: &mut EndpointCtx) {
            ctx.set_timer(ctx.now + SimDuration::from_millis(10), 1);
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
        fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
            assert_ne!(token, 99, "previous tenant's timer leaked across");
            self.fires += 1;
            if !self.done {
                self.done = true;
                ctx.set_timer(ctx.now + SimDuration::from_millis(10), 1);
            } else {
                ctx.finish();
            }
        }
    }

    struct LeakDriver {
        admitted: u32,
        fwd: LinkId,
        rev: LinkId,
    }

    impl ChurnDriver for LeakDriver {
        fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
            self.admitted += 1;
            match self.admitted {
                1 => Some((
                    SimTime::ZERO,
                    ChurnFlow {
                        sender: Box::new(TimerLeaker),
                        receiver: Box::new(EchoReceiver { received: 0 }),
                        fwd_path: vec![self.fwd],
                        rev_path: vec![self.rev],
                        tag: 1,
                    },
                )),
                2 => Some((
                    SimTime::from_millis(100),
                    ChurnFlow {
                        sender: Box::new(TimerCounter {
                            fires: 0,
                            done: false,
                        }),
                        receiver: Box::new(EchoReceiver { received: 0 }),
                        fwd_path: vec![self.fwd],
                        rev_path: vec![self.rev],
                        tag: 2,
                    },
                )),
                _ => None,
            }
        }

        fn on_flow_complete(&mut self, _tag: u64, _stats: &FlowStats, _now: SimTime) {}
    }

    #[test]
    fn stale_timer_never_fires_into_new_tenant() {
        let (mut nb, fwd, rev) = two_way_net(10e6, SimDuration::from_millis(5));
        nb.set_churn_driver(Box::new(LeakDriver {
            admitted: 0,
            fwd,
            rev,
        }));
        let report = nb.build().run_until(SimTime::from_secs(1));
        let c = report.churn;
        assert_eq!(c.completions, 2);
        assert_eq!(c.recycled, 1, "tenant 2 reused tenant 1's slot");
        // Tenant 1's 300 ms timer fires at a time when tenant 2 owns the
        // slot; the generation check must discard it (either endpoint would
        // panic if it fired).
        assert!(c.stale_timers >= 1, "leaked timer was discarded: {c:?}");
    }

    /// Admits a `TimerLeaker` every millisecond, `count` in all.
    struct LeakerStream {
        admitted: u64,
        count: u64,
        fwd: LinkId,
        rev: LinkId,
    }

    impl ChurnDriver for LeakerStream {
        fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
            if self.admitted == self.count {
                return None;
            }
            self.admitted += 1;
            Some((
                SimTime::from_millis(self.admitted),
                ChurnFlow {
                    sender: Box::new(TimerLeaker),
                    receiver: Box::new(EchoReceiver { received: 0 }),
                    fwd_path: vec![self.fwd],
                    rev_path: vec![self.rev],
                    tag: self.admitted,
                },
            ))
        }

        fn on_flow_complete(&mut self, _tag: u64, _stats: &FlowStats, _now: SimTime) {}
    }

    #[test]
    fn retired_flows_leave_no_timer_in_the_heap() {
        // Each flow retires ~10 ms after it arrives with its 300 ms timer
        // still armed. Some of those timers come due before a purge takes
        // them, most are purged first, and the last ~100 are still pending
        // at the horizon.
        let (mut nb, fwd, rev) = two_way_net(100e6, SimDuration::from_millis(5));
        nb.set_churn_driver(Box::new(LeakerStream {
            admitted: 0,
            count: 1_000,
            fwd,
            rev,
        }));
        let mut sim = nb.build();
        sim.run_to(SimTime::from_millis(1_200));
        let orphaned = sim
            .events
            .heap_events()
            .filter(|e| matches!(e, Event::Timer { flow, gen, .. } if sim.flows.owner(*flow, *gen).is_none()))
            .count();
        assert_eq!(orphaned, 0, "timers of retired flows left in the heap");
        let c = sim.finalize().churn;
        assert_eq!(c.completions, 1_000);
        assert_eq!(c.stale_timers, 1_000, "every orphaned timer is counted");
    }

    #[test]
    fn record_series_opt_out_keeps_aggregates() {
        let run = |record| {
            let (mut nb, fwd, rev) = two_way_net(10e6, SimDuration::from_millis(10));
            nb.set_record_series(record);
            let flow = nb.add_flow(FlowSpec {
                sender: Box::new(TickSender {
                    next_seq: 0,
                    count: 100,
                    spacing: SimDuration::from_millis(2),
                    acked: 0,
                }),
                receiver: Box::new(EchoReceiver { received: 0 }),
                fwd_path: vec![fwd],
                rev_path: vec![rev],
                start_at: SimTime::ZERO,
            });
            let r = nb.build().run_until(SimTime::from_secs(2));
            (
                r.flows[flow.index()].delivered_bytes,
                r.flows[flow.index()].goodput_bytes,
                r.flows[flow.index()].series.throughput_mbps.len(),
                r.events_processed,
            )
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.0, off.0, "aggregates identical");
        assert_eq!(on.1, off.1);
        assert_eq!(on.3, off.3, "event stream identical");
        assert_eq!(on.2, 20, "series recorded by default");
        assert_eq!(off.2, 0, "series empty when opted out");
    }

    #[test]
    fn link_schedule_changes_rate_mid_run() {
        use crate::link::{LinkSchedule, LinkStep};
        let mut sched = LinkSchedule::new();
        sched.push(LinkStep {
            at: SimTime::from_secs(1),
            rate_bps: Some(2e6),
            delay: None,
            loss: None,
        });
        let mut nb = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 5,
        });
        let fwd = nb.add_link(
            LinkConfig::bottleneck(10e6, SimDuration::from_millis(5), 1 << 20).with_schedule(sched),
        );
        let rev = nb.add_link(LinkConfig::delay_only(SimDuration::from_millis(5)));
        let flow = nb.add_flow(FlowSpec {
            sender: Box::new(TickSender {
                next_seq: 0,
                count: 100_000,
                spacing: SimDuration::from_micros(1500), // 8 Mbps injection
                acked: 0,
            }),
            receiver: Box::new(EchoReceiver { received: 0 }),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let report = nb.build().run_until(SimTime::from_secs(3));
        let before =
            report.avg_throughput_mbps(flow, SimTime::from_millis(200), SimTime::from_secs(1));
        let after = report.avg_throughput_mbps(flow, SimTime::from_secs(2), SimTime::from_secs(3));
        assert!((before - 8.0).abs() < 0.5, "pre-change ~8 Mbps: {before}");
        assert!(
            (after - 2.0).abs() < 0.3,
            "post-change pinned at 2 Mbps: {after}"
        );
    }
}
