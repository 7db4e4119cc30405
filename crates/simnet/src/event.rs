//! The discrete-event queue.
//!
//! Events pop in `(time, sequence)` order. The monotonically increasing
//! sequence number breaks ties deterministically: two events scheduled for
//! the same instant fire in scheduling order, which makes every run with
//! the same seed bit-identical.
//!
//! Most events come from sources that already emit them in time order — a
//! link's serialization completions, a link's propagation arrivals. Each
//! such source gets a FIFO **lane** (a `VecDeque`), and a small heap holds
//! one key per non-empty lane; everything else (timers, control events, and
//! any lane push that would go back in time) lives in the general heap.
//! [`EventQueue::pop`] takes the smaller of the two tops, so the pop order
//! is the total `(time, sequence)` order wherever an event was stored.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::ids::{FlowId, LinkId, Side};
use crate::packet::Packet;
use crate::time::SimTime;

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

/// Deterministic earliest-first event queue.
#[derive(Default)]
pub struct EventQueue {
    /// Events with no lane, and lane pushes that would have gone back in
    /// time.
    heap: BinaryHeap<Entry>,
    /// FIFO lanes; within each, entries are in `(at, seq)` order.
    lanes: Vec<VecDeque<Entry>>,
    /// One `(key, lane)` per non-empty lane: the `(at, seq)` of the lane's
    /// front entry, reversed for earliest-first. `seq` is unique, so the
    /// lane index never decides the order.
    heads: BinaryHeap<(Reverse<(SimTime, u64)>, u32)>,
    /// Entries currently held in lanes.
    in_lanes: usize,
    next_seq: u64,
    scheduled: u64,
    lane_scheduled: u64,
    lane_fallbacks: u64,
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

    /// Add `n` FIFO lanes; they take the indices following the existing
    /// lanes. A lane is for one source whose events are (almost always)
    /// scheduled in non-decreasing time order.
    pub fn add_lanes(&mut self, n: usize) {
        self.lanes.resize_with(self.lanes.len() + n, VecDeque::new);
        self.heads.reserve(n);
    }

    fn next_entry(&mut self, at: SimTime, event: Event) -> Entry {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        Entry { at, seq, event }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let entry = self.next_entry(at, event);
        self.heap.push(entry);
    }

    /// Schedule `event` at `at` through FIFO lane `lane`. Pop order is the
    /// same as [`EventQueue::schedule`]'s; only the cost differs. A push
    /// earlier than the lane's newest entry (a reordering shaper, a delay
    /// that just fell) cannot join the lane and goes to the heap instead.
    ///
    /// # Panics
    /// If `lane` was not created by [`EventQueue::add_lanes`].
    pub fn schedule_in(&mut self, lane: usize, at: SimTime, event: Event) {
        let entry = self.next_entry(at, event);
        let q = &mut self.lanes[lane];
        if q.back().is_some_and(|back| at < back.at) {
            self.lane_fallbacks += 1;
            self.heap.push(entry);
            return;
        }
        if q.is_empty() {
            self.heads.push((Reverse((at, entry.seq)), lane as u32));
        }
        q.push_back(entry);
        self.in_lanes += 1;
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
            return self.heap.pop().map(|e| (e.at, e.event));
        }
        let mut head = self.heads.peek_mut()?;
        let q = &mut self.lanes[head.1 as usize];
        let e = q.pop_front().expect("a lane with a head key is non-empty");
        self.in_lanes -= 1;
        match q.front() {
            // Re-key in place: dropping the `PeekMut` sifts it down once.
            Some(next) => head.0 = Reverse((next.at, next.seq)),
            None => {
                PeekMut::pop(head);
            }
        }
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

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.in_lanes
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

    /// How many [`EventQueue::schedule_in`] pushes went to the heap because
    /// they were earlier than their lane's newest entry.
    pub fn lane_fallbacks(&self) -> u64 {
        self.lane_fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
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
    fn same_instant_duplicate_keeps_scheduling_order() {
        // The fault plane's duplication delivers a packet twice at one
        // instant through one lane; a timer armed between them for that
        // instant must still fire between them.
        let mut q = EventQueue::new();
        q.add_lanes(1);
        q.schedule_in(0, t(7), Event::Fault { index: 0 });
        q.schedule(t(7), Event::Fault { index: 1 });
        q.schedule_in(0, t(7), Event::Fault { index: 2 });
        assert_eq!(q.lane_scheduled(), 2);
        assert_eq!(drain(&mut q), vec![(t(7), 0), (t(7), 1), (t(7), 2)]);
    }

    #[test]
    fn non_monotone_push_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.add_lanes(2);
        q.schedule_in(0, t(10), Event::Fault { index: 0 });
        q.schedule_in(0, t(20), Event::Fault { index: 1 });
        // Earlier than the lane's back: cannot join the lane...
        q.schedule_in(0, t(15), Event::Fault { index: 2 });
        assert_eq!((q.lane_scheduled(), q.lane_fallbacks()), (2, 1));
        // ...and the lane keeps accepting pushes at or after its back.
        q.schedule_in(0, t(20), Event::Fault { index: 3 });
        q.schedule_in(1, t(5), Event::Fault { index: 4 });
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(
            drain(&mut q),
            vec![(t(5), 4), (t(10), 0), (t(15), 2), (t(20), 1), (t(20), 3)]
        );
    }

    #[test]
    fn lane_that_empties_refills() {
        let mut q = EventQueue::new();
        q.add_lanes(1);
        for round in 0..3 {
            let base = 10 * round as u64;
            q.schedule_in(0, t(base + 1), Event::Fault { index: round });
            q.schedule_in(0, t(base + 2), Event::Fault { index: round });
            assert_eq!(q.len(), 2);
            assert_eq!(
                drain(&mut q),
                vec![(t(base + 1), round), (t(base + 2), round)]
            );
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        }
        // An emptied lane has no back: an earlier time than it ever held
        // is in order again.
        q.schedule_in(0, t(1), Event::Fault { index: 9 });
        assert_eq!(q.lane_fallbacks(), 0);
        assert_eq!(drain(&mut q), vec![(t(1), 9)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

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
        /// is stored: under any interleaving of heap pushes, lane pushes
        /// (ties and backward steps included) and pops, it agrees with a
        /// sorted reference at every step.
        #[test]
        fn pop_order_is_the_models_order(
            ops in proptest::collection::vec((0u32..7, 0u64..12), 1..300),
        ) {
            const LANES: u32 = 4;
            let mut q = EventQueue::new();
            q.add_lanes(LANES as usize);
            // Pending `(at, seq)` keys; `seq` doubles as the event's tag.
            let mut model: Vec<(SimTime, usize)> = Vec::new();
            let mut seq = 0;
            for (op, ms) in ops {
                let at = SimTime::from_millis(ms);
                // Ops 0..LANES push through that lane, LANES pushes to the
                // heap, the rest pop.
                if op <= LANES {
                    let event = Event::Fault { index: seq };
                    if op < LANES {
                        q.schedule_in(op as usize, at, event);
                    } else {
                        q.schedule(at, event);
                    }
                    model.push((at, seq));
                    seq += 1;
                } else {
                    let want = model.iter().copied().min();
                    model.retain(|&k| Some(k) != want);
                    prop_assert_eq!(q.pop().map(super::tests::tagged), want);
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.peek_time(), model.iter().min().map(|k| k.0));
            }
            prop_assert_eq!(q.total_scheduled(), seq as u64);
        }
    }
}
