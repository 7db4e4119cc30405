//! The discrete-event queue.
//!
//! Events pop in `(time, sequence)` order. The monotonically increasing
//! sequence number breaks ties deterministically: two events scheduled for
//! the same instant fire in scheduling order, which makes every run with
//! the same seed bit-identical.
//!
//! Most events are due a fixed **delay** after the instant that schedules
//! them (a serialization time, a propagation delay). The queue's clock is
//! the time of the latest pop and never goes backwards;
//! [`EventQueue::schedule_after`] puts an event in the FIFO **lane** bound
//! to its delay. Each lane entry is one constant delay after a clock that
//! only moves forward, so a lane is in `(time, sequence)` order by
//! construction and no push can go back in time. A delay finds its lane
//! slot by a multiplicative hash, tagged with the slot's delay; an empty
//! slot rebinds to the next delay, and a push whose slot is busy with
//! another delay goes to the heap, with timers, control events and shaped
//! arrivals. A small heap keys each non-empty lane by its front entry, and
//! [`EventQueue::pop`] takes the smaller top of the two heaps: the pop
//! order is the total `(time, sequence)` order wherever an event is stored.
//!
//! The simulation keeps two kinds of event out of the queue without
//! changing that order. A zero-delay hop's arrival that would be the very
//! next pop is never scheduled: it is routed in place (see
//! `Simulation::arrival_pops_next`). A retired churn flow's timers, which
//! would only be discarded when they came due, leave the heap in batches
//! through `EventQueue::retain_heap`.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::ids::{FlowId, LinkId, Side};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// Everything that can happen in the simulator.
#[derive(Clone, Debug)]
#[allow(missing_docs, reason = "variant fields are self-describing")]
pub enum Event {
    /// A link finished serializing the packet at the head of its queue.
    TxComplete { link: LinkId },
    /// A packet finished propagating and arrives at the next hop (or the
    /// endpoint, if it was the last hop).
    Arrive { packet: Packet },
    /// An endpoint timer fires. `token` is opaque to the simulator; `gen`
    /// is the flow slot's generation when the timer was armed — a timer
    /// whose generation no longer matches (the slot was recycled under
    /// churn) is discarded instead of firing into the new tenant.
    Timer {
        flow: FlowId,
        side: Side,
        token: u64,
        gen: u32,
    },
    /// A flow's sender should start transmitting.
    FlowStart { flow: FlowId },
    /// The churn driver's next flow arrival is due. One event admits every
    /// arrival batched at the same timestamp, then re-arms for the next
    /// distinct arrival instant.
    ChurnArrival,
    /// Apply step `step` of a link's time-varying parameter schedule.
    LinkUpdate { link: LinkId, step: usize },
    /// Apply entry `index` of the fault plane's compiled schedule.
    Fault { index: usize },
    /// Periodic statistics sampling tick.
    Sample,
}

struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first ordering.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// log2 of the lane slot count. A simulator workload binds three delays
/// (data and ACK serialization, propagation); spare slots avoid collisions.
const LANE_BITS: u32 = 4;

/// The lane slot of `delay`: Fibonacci hashing of its nanoseconds.
fn lane_slot(delay: SimDuration) -> usize {
    (delay.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - LANE_BITS)) as usize
}

/// Events each scheduled `delay` after the clock; `delay` is the slot's tag
/// while `q` is non-empty.
#[derive(Default)]
struct Lane {
    delay: SimDuration,
    q: VecDeque<Entry>,
}

/// Deterministic earliest-first event queue.
#[derive(Default)]
pub struct EventQueue {
    /// Events with no lane.
    heap: BinaryHeap<Entry>,
    /// Delay lanes by [`lane_slot`], each in `(at, seq)` order.
    lanes: [Lane; 1 << LANE_BITS],
    /// One `(key, slot)` per non-empty lane: the `(at, seq)` of the lane's
    /// front entry, reversed for earliest-first. `seq` is unique, so the
    /// slot index never decides the order.
    heads: BinaryHeap<(Reverse<(SimTime, u64)>, u8)>,
    /// The time of the latest pop, never going backwards:
    /// [`EventQueue::schedule_after`] counts from it.
    clock: SimTime,
    next_seq: u64,
    scheduled: u64,
    lane_scheduled: u64,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Create an empty queue whose heap is pre-sized for `capacity` pending
    /// events (the simulation derives a hint from its topology so the heap
    /// rarely reallocates mid-run).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..Self::default()
        }
    }

    fn next_entry(&mut self, at: SimTime, event: Event) -> Entry {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        Entry { at, seq, event }
    }

    /// Schedule `event` to fire at absolute time `at`. A time before the
    /// latest pop is allowed: it pops next, and the clock stays put.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let entry = self.next_entry(at, event);
        self.heap.push(entry);
    }

    /// Schedule `event` to fire `delay` after the latest pop (time zero
    /// before the first). Pop order is the same as [`EventQueue::schedule`]'s
    /// at that time; only the cost differs. The event joins the lane bound
    /// to `delay`, unless that slot holds another delay's pending events.
    pub fn schedule_after(&mut self, delay: SimDuration, event: Event) {
        let entry = self.next_entry(self.clock + delay, event);
        let slot = lane_slot(delay);
        let lane = &mut self.lanes[slot];
        if lane.q.is_empty() {
            lane.delay = delay;
            self.heads
                .push((Reverse((entry.at, entry.seq)), slot as u8));
        } else if lane.delay != delay {
            self.heap.push(entry);
            return;
        }
        crate::ring::reserve(&mut lane.q, 1);
        lane.q.push_back(entry);
        self.lane_scheduled += 1;
    }

    /// True if the earliest pending event sits at the front of a lane.
    fn lane_is_next(&self) -> bool {
        match (self.heads.peek(), self.heap.peek()) {
            (Some((Reverse(head), _)), Some(e)) => *head < (e.at, e.seq),
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if !self.lane_is_next() {
            let e = self.heap.pop()?;
            self.clock = self.clock.max(e.at);
            return Some((e.at, e.event));
        }
        let mut head = self.heads.peek_mut()?;
        let q = &mut self.lanes[head.1 as usize].q;
        let e = q.pop_front().expect("a lane with a head key is non-empty");
        match q.front() {
            // Re-key in place: dropping the `PeekMut` sifts it down once.
            Some(next) => head.0 = Reverse((next.at, next.seq)),
            None => {
                PeekMut::pop(head);
            }
        }
        // Counted from an earlier clock, and everything popped since came
        // before it: a lane entry never moves the clock back.
        self.clock = e.at;
        Some((e.at, e.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane_is_next() {
            self.heads.peek().map(|(Reverse((at, _)), _)| *at)
        } else {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Drop every event in the heap that fails `keep`; returns how many
    /// went. Lanes are not walked. Removing entries leaves the others'
    /// `(time, sequence)` order as it was.
    pub(crate) fn retain_heap(&mut self, mut keep: impl FnMut(&Event) -> bool) -> usize {
        let before = self.heap.len();
        self.heap.retain(|e| keep(&e.event));
        before - self.heap.len()
    }

    /// Number of pending events in the heap, the lanes left out.
    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// The events in the heap, in no particular order.
    #[cfg(test)]
    pub(crate) fn heap_events(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter().map(|e| &e.event)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.q.len()).sum::<usize>()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// How many of those were stored in a lane rather than the heap.
    pub fn lane_scheduled(&self) -> u64 {
        self.lane_scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    /// The first two whole-millisecond delays that share a lane slot, in
    /// increasing order (there is one among the first slots + 1 delays).
    pub(super) fn colliding_delays() -> (SimDuration, SimDuration) {
        let mut seen = [None; 1 << LANE_BITS];
        for ms in 1.. {
            if let Some(first) = seen[lane_slot(d(ms))].replace(ms) {
                return (d(first), d(ms));
            }
        }
        unreachable!("the slot table is finite")
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), Event::Sample);
        q.schedule(t(10), Event::Sample);
        q.schedule(t(20), Event::Sample);
        let times: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(at, _)| at).collect();
        assert_eq!(times, vec![t(10), t(20), t(30)]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.schedule(
                t(1),
                Event::LinkUpdate {
                    link: LinkId(i),
                    step: 0,
                },
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::LinkUpdate { link, .. } => link.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(t(5), Event::Sample);
        q.schedule(t(2), Event::Sample);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.total_scheduled(), 2);
    }

    /// A popped `Fault` event as `(time, index)`: the tests tag events by
    /// their fault index.
    pub(super) fn tagged((at, event): (SimTime, Event)) -> (SimTime, usize) {
        match event {
            Event::Fault { index } => (at, index),
            _ => unreachable!(),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(SimTime, usize)> {
        std::iter::from_fn(|| q.pop()).map(tagged).collect()
    }

    #[test]
    fn same_instant_lane_entries_keep_scheduling_order() {
        // A pure-delay link forwarding two packets in one instant puts two
        // arrivals for one later instant in one delay lane; a timer armed
        // between them for that instant must still fire between them.
        let mut q = EventQueue::new();
        q.schedule(t(3), Event::Sample);
        q.pop();
        q.schedule_after(d(4), Event::Fault { index: 0 });
        q.schedule(t(7), Event::Fault { index: 1 });
        q.schedule_after(d(4), Event::Fault { index: 2 });
        assert_eq!(q.lane_scheduled(), 2);
        assert_eq!(drain(&mut q), vec![(t(7), 0), (t(7), 1), (t(7), 2)]);
    }

    #[test]
    fn busy_colliding_slot_sends_the_push_to_the_heap() {
        let (a, b) = colliding_delays();
        let mut q = EventQueue::new();
        q.schedule_after(b, Event::Fault { index: 0 });
        // `a`'s slot holds `b`'s pending event, so `a` cannot join it.
        q.schedule_after(a, Event::Fault { index: 1 });
        q.schedule_after(b, Event::Fault { index: 2 });
        assert_eq!((q.lane_scheduled(), q.len()), (2, 3));
        assert_eq!(q.peek_time(), Some(SimTime::ZERO + a));
        assert_eq!(
            drain(&mut q),
            vec![
                (SimTime::ZERO + a, 1),
                (SimTime::ZERO + b, 0),
                (SimTime::ZERO + b, 2)
            ]
        );
    }

    #[test]
    fn emptied_slot_rebinds() {
        let (a, b) = colliding_delays();
        let mut q = EventQueue::new();
        for round in 0..3 {
            q.schedule_after(b, Event::Fault { index: round });
            q.schedule_after(b, Event::Fault { index: round });
            let at = SimTime::ZERO + b * (round as u64 + 1);
            assert_eq!(drain(&mut q), vec![(at, round), (at, round)]);
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        }
        // The drained slot takes the other delay: a lane push, no heap.
        q.schedule_after(a, Event::Fault { index: 9 });
        assert_eq!(q.lane_scheduled(), 7);
        assert_eq!(drain(&mut q), vec![(SimTime::ZERO + b * 3 + a, 9)]);
    }

    #[test]
    fn past_schedule_pops_first_and_leaves_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(t(10), Event::Fault { index: 0 });
        assert_eq!(q.pop().map(tagged), Some((t(10), 0)));
        q.schedule_after(d(1), Event::Fault { index: 1 });
        q.schedule(t(5), Event::Fault { index: 2 });
        assert_eq!(q.pop().map(tagged), Some((t(5), 2)));
        assert_eq!(q.clock, t(10));
        // Still counted from t = 10, so it queues behind index 1.
        q.schedule_after(d(1), Event::Fault { index: 3 });
        assert_eq!(drain(&mut q), vec![(t(11), 1), (t(11), 3)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// More distinct delays than the table has slots, so some share one.
    const DELAYS: u64 = (1 << LANE_BITS) + 8;

    proptest! {
        /// Events always pop in non-decreasing time order, and same-time
        /// events pop in scheduling order.
        #[test]
        fn ordering_invariant(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &ms) in times.iter().enumerate() {
                q.schedule(SimTime::from_millis(ms), Event::LinkUpdate {
                    link: LinkId(i as u32), step: 0,
                });
            }
            let mut last: Option<(SimTime, u32)> = None;
            while let Some((at, e)) = q.pop() {
                let id = match e { Event::LinkUpdate { link, .. } => link.0, _ => unreachable!() };
                if let Some((lt, lid)) = last {
                    prop_assert!(at >= lt);
                    if at == lt {
                        prop_assert!(id > lid, "same-time events must pop in schedule order");
                    }
                }
                last = Some((at, id));
            }
        }

        /// The queue is a priority queue on `(at, seq)` wherever an event
        /// is stored: under any interleaving of heap pushes (before the
        /// clock included), delay-lane pushes (colliding delays included)
        /// and pops, it agrees with a sorted reference at every step.
        #[test]
        fn pop_order_is_the_models_order(
            ops in proptest::collection::vec((0u32..3, 0u64..DELAYS), 1..300),
        ) {
            let (_, b) = super::tests::colliding_delays();
            prop_assert!(b < SimDuration::from_millis(DELAYS), "the alphabet holds a collision");
            let mut q = EventQueue::new();
            // Pending `(at, seq)` keys; `seq` doubles as the event's tag.
            let mut model: Vec<(SimTime, usize)> = Vec::new();
            let mut clock = SimTime::ZERO;
            let mut seq = 0;
            for (op, ms) in ops {
                let event = Event::Fault { index: seq };
                match op {
                    0 => {
                        // Any absolute time, often before the clock.
                        let at = SimTime::from_millis(ms * 3);
                        q.schedule(at, event);
                        model.push((at, seq));
                        seq += 1;
                    }
                    1 => {
                        let delay = SimDuration::from_millis(ms);
                        q.schedule_after(delay, event);
                        model.push((clock + delay, seq));
                        seq += 1;
                    }
                    _ => {
                        let want = model.iter().copied().min();
                        model.retain(|&k| Some(k) != want);
                        if let Some((at, _)) = want {
                            clock = clock.max(at);
                        }
                        prop_assert_eq!(q.pop().map(super::tests::tagged), want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.peek_time(), model.iter().min().map(|k| k.0));
            }
            prop_assert_eq!(q.total_scheduled(), seq as u64);
        }
    }
}
