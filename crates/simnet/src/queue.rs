//! Queue disciplines for bottleneck links.
//!
//! Two types cover everything the paper's evaluation needs:
//!
//! * [`DropTail`] — plain FIFO with a byte limit (all of §4.1).
//! * [`FairQueue`] — per-flow deficit round robin with longest-queue drop
//!   (the FQ of §4.4); built by [`fq_codel`] it also runs the RFC 8289
//!   CoDel law per flow (Fig. 17's "CoDel + FQ").
//!
//! "Bufferbloat" in Fig. 17 is simply a [`DropTail`] with a very deep buffer.
//!
//! Accounting invariant (checked by property tests): every packet offered to
//! a queue is either rejected at the door (`dropped_tail`), dropped after
//! acceptance by AQM/eviction (`dropped_aqm`), handed to the link
//! (`dequeued`), or still queued — so `enqueued == dequeued + dropped_aqm +
//! len_pkts` at all times.

use std::collections::VecDeque;

use crate::ids::FlowId;
use crate::packet::Packet;
use crate::ring;
use crate::time::{SimDuration, SimTime};

/// Lifetime counters every queue maintains.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets handed to the link.
    pub dequeued: u64,
    /// Packets rejected at enqueue (tail drops; never counted in `enqueued`).
    pub dropped_tail: u64,
    /// Packets dropped after acceptance (AQM drops, fair-queue evictions).
    pub dropped_aqm: u64,
    /// Total bytes dropped (both kinds).
    pub dropped_bytes: u64,
    /// Peak backlog in bytes.
    pub max_backlog_bytes: u64,
}

impl QueueStats {
    /// All drops, regardless of where they happened.
    pub fn dropped(&self) -> u64 {
        self.dropped_tail + self.dropped_aqm
    }
}

/// A queue discipline attached to a link's egress.
pub trait Queue: Send {
    /// Offer `pkt` to the queue at time `now`. Returns `false` if `pkt`
    /// itself was dropped (other packets may be evicted in its favor and are
    /// accounted in [`QueueStats::dropped_aqm`]).
    fn enqueue(&mut self, pkt: Packet, now: SimTime) -> bool;

    /// Remove the next packet to serialize. AQM disciplines may drop packets
    /// internally here; drops show up in [`Queue::stats`].
    fn dequeue(&mut self, now: SimTime) -> Option<Packet>;

    /// Current backlog in bytes.
    fn len_bytes(&self) -> u64;

    /// Current backlog in packets.
    fn len_pkts(&self) -> usize;

    /// Lifetime counters.
    fn stats(&self) -> QueueStats;

    /// True if no packet is waiting.
    fn is_empty(&self) -> bool {
        self.len_pkts() == 0
    }
}

// ---------------------------------------------------------------------------
// DropTail
// ---------------------------------------------------------------------------

/// FIFO queue with tail drop.
pub struct DropTail {
    q: VecDeque<Packet>,
    bytes: u64,
    /// Capacity in bytes (the paper quotes buffer sizes in KB).
    limit_bytes: u64,
    stats: QueueStats,
}

impl DropTail {
    /// FIFO limited to `limit_bytes` bytes. The ring starts empty and grows
    /// with its backlog by [`ring::reserve`]'s rule, to at most a quarter
    /// past the largest backlog it holds once that passes 64 packets: a ring
    /// that cycles writes every slot it owns, so one sized from the limit
    /// keeps that much resident.
    pub fn bytes(limit_bytes: u64) -> Self {
        DropTail {
            q: VecDeque::new(),
            bytes: 0,
            limit_bytes,
            stats: QueueStats::default(),
        }
    }
}

impl Queue for DropTail {
    fn enqueue(&mut self, pkt: Packet, _now: SimTime) -> bool {
        if self.bytes + pkt.bytes as u64 > self.limit_bytes {
            self.stats.dropped_tail += 1;
            self.stats.dropped_bytes += pkt.bytes as u64;
            return false;
        }
        self.bytes += pkt.bytes as u64;
        ring::reserve(&mut self.q, 1);
        self.q.push_back(pkt);
        self.stats.enqueued += 1;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.bytes);
        true
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.bytes as u64;
        self.stats.dequeued += 1;
        Some(pkt)
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.q.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Deficit Round Robin fair queue (optionally with per-flow CoDel)
// ---------------------------------------------------------------------------

struct DrrFlow {
    flow: FlowId,
    /// Each packet with the instant it was enqueued (CoDel's sojourn).
    q: VecDeque<(SimTime, Packet)>,
    bytes: u64,
    deficit: i64,
    codel: Option<CodelState>,
}

/// Per-flow fair queueing via deficit round robin (DRR).
///
/// A shared byte budget is policed by dropping from the *longest* per-flow
/// queue on overflow (as in Linux `fq_codel`), which protects low-rate flows
/// from aggressive ones — the isolation property §4.4 relies on. Built by
/// [`fq_codel`], each per-flow queue additionally runs the CoDel drop law
/// (FQ-CoDel).
pub struct FairQueue {
    flows: Vec<DrrFlow>,
    /// The DRR round: the slot of every backlogged flow, each once.
    active: VecDeque<usize>,
    quantum: u32,
    limit_bytes: u64,
    bytes: u64,
    pkts: usize,
    stats: QueueStats,
    codel: bool,
}

impl FairQueue {
    /// DRR fair queue with a shared `limit_bytes` buffer.
    pub fn new(limit_bytes: u64) -> Self {
        FairQueue {
            flows: Vec::new(),
            active: VecDeque::new(),
            quantum: 1514,
            limit_bytes,
            bytes: 0,
            pkts: 0,
            stats: QueueStats::default(),
            codel: false,
        }
    }

    fn flow_slot(&mut self, flow: FlowId) -> usize {
        if let Some(i) = self.flows.iter().position(|f| f.flow == flow) {
            return i;
        }
        self.flows.push(DrrFlow {
            flow,
            q: VecDeque::new(),
            bytes: 0,
            deficit: 0,
            codel: self.codel.then(CodelState::new),
        });
        self.flows.len() - 1
    }

    fn longest_slot(&self) -> Option<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.q.is_empty())
            .max_by_key(|(_, f)| f.bytes)
            .map(|(i, _)| i)
    }

    /// Evict the newest packet of `slot`. A flow this empties leaves the
    /// round, so its next packet rejoins it once.
    fn pop_tail(&mut self, slot: usize) -> Packet {
        let (_, victim) = self.flows[slot].q.pop_back().expect("non-empty");
        self.flows[slot].bytes -= victim.bytes as u64;
        self.bytes -= victim.bytes as u64;
        self.pkts -= 1;
        if self.flows[slot].q.is_empty() {
            self.active.retain(|&s| s != slot);
        }
        victim
    }

    fn drop_head(&mut self, slot: usize) {
        let (_, victim) = self.flows[slot].q.pop_front().expect("non-empty");
        self.flows[slot].bytes -= victim.bytes as u64;
        self.bytes -= victim.bytes as u64;
        self.pkts -= 1;
        self.stats.dropped_aqm += 1;
        self.stats.dropped_bytes += victim.bytes as u64;
    }
}

impl Queue for FairQueue {
    fn enqueue(&mut self, pkt: Packet, now: SimTime) -> bool {
        let slot = self.flow_slot(pkt.flow);
        let was_empty = self.flows[slot].q.is_empty();
        let pkt_bytes = pkt.bytes as u64;
        ring::reserve(&mut self.flows[slot].q, 1);
        self.flows[slot].q.push_back((now, pkt));
        self.flows[slot].bytes += pkt_bytes;
        self.bytes += pkt_bytes;
        self.pkts += 1;
        self.stats.enqueued += 1;
        if was_empty {
            self.flows[slot].deficit = 0;
            self.active.push_back(slot);
        }
        // Police the shared budget: evict from the longest queue's tail. The
        // new packet sits at the tail of `slot` until something evicts it, so
        // "victim is the new packet" is exactly "victim slot == slot and the
        // new packet hasn't been evicted yet".
        let mut new_in_queue = true;
        while self.bytes > self.limit_bytes {
            let Some(victim_slot) = self.longest_slot() else {
                break;
            };
            let victim = self.pop_tail(victim_slot);
            self.stats.dropped_bytes += victim.bytes as u64;
            if victim_slot == slot && new_in_queue {
                new_in_queue = false;
                // Semantically a tail drop of the offered packet.
                self.stats.enqueued -= 1;
                self.stats.dropped_tail += 1;
            } else {
                self.stats.dropped_aqm += 1;
            }
        }
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.bytes);
        new_in_queue
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        loop {
            let slot = *self.active.front()?;
            let head_bytes = self.flows[slot].q.front().expect("in the round").1.bytes as i64;
            if self.flows[slot].deficit < head_bytes {
                self.flows[slot].deficit += self.quantum as i64;
                self.active.rotate_left(1);
                continue;
            }
            // CoDel pass (FQ-CoDel): may shed head packets of this flow.
            if self.flows[slot].codel.is_some() {
                while let Some(&(enqueued_at, _)) = self.flows[slot].q.front() {
                    let backlog = self.flows[slot].bytes;
                    let verdict = self.flows[slot]
                        .codel
                        .as_mut()
                        .expect("checked")
                        .on_dequeue(now, enqueued_at, backlog);
                    if verdict == CodelVerdict::Drop {
                        self.drop_head(slot);
                        continue;
                    }
                    break;
                }
                if self.flows[slot].q.is_empty() {
                    self.active.pop_front();
                    continue;
                }
            }
            let (_, pkt) = self.flows[slot].q.pop_front().expect("non-empty");
            self.flows[slot].bytes -= pkt.bytes as u64;
            self.flows[slot].deficit -= pkt.bytes as i64;
            self.bytes -= pkt.bytes as u64;
            self.pkts -= 1;
            self.stats.dequeued += 1;
            if self.flows[slot].q.is_empty() {
                self.active.pop_front();
            }
            return Some(pkt);
        }
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.pkts
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// CoDel
// ---------------------------------------------------------------------------

/// Acceptable standing-queue sojourn time (RFC 8289: 5 ms).
const CODEL_TARGET: SimDuration = SimDuration::from_millis(5);
/// Sliding window over which sojourn must exceed the target before
/// dropping (RFC 8289: 100 ms).
const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Don't drop when the backlog is at or below this many bytes (RFC 8289:
/// one MTU).
const CODEL_MIN_BACKLOG_BYTES: u64 = 1514;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CodelVerdict {
    Pass,
    Drop,
}

/// The CoDel control-law state machine of [`fq_codel`]: one instance per
/// flow queue.
#[derive(Clone, Copy, Debug)]
struct CodelState {
    first_above_time: Option<SimTime>,
    drop_next: SimTime,
    count: u32,
    last_count: u32,
    dropping: bool,
}

impl CodelState {
    fn new() -> Self {
        CodelState {
            first_above_time: None,
            drop_next: SimTime::ZERO,
            count: 0,
            last_count: 0,
            dropping: false,
        }
    }

    fn control_law(&self, t: SimTime) -> SimTime {
        t + CODEL_INTERVAL.mul_f64(1.0 / (self.count.max(1) as f64).sqrt())
    }

    /// Decide the fate of the packet at the head of the queue.
    fn on_dequeue(
        &mut self,
        now: SimTime,
        enqueued_at: SimTime,
        backlog_bytes: u64,
    ) -> CodelVerdict {
        let sojourn = now.saturating_since(enqueued_at);
        let ok_to_drop = self.update_sojourn(now, sojourn, backlog_bytes);
        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
                return CodelVerdict::Pass;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.drop_next = self.control_law(self.drop_next);
                return CodelVerdict::Drop;
            }
            CodelVerdict::Pass
        } else if ok_to_drop {
            self.dropping = true;
            // Resume close to the previous drop rate if we were dropping
            // recently (RFC 8289 §5.4).
            let delta = self.count.saturating_sub(self.last_count);
            self.count = if delta > 1 && now < self.drop_next + CODEL_INTERVAL * 16 {
                delta
            } else {
                1
            };
            self.last_count = self.count;
            self.drop_next = self.control_law(now);
            CodelVerdict::Drop
        } else {
            CodelVerdict::Pass
        }
    }

    fn update_sojourn(&mut self, now: SimTime, sojourn: SimDuration, backlog_bytes: u64) -> bool {
        if sojourn < CODEL_TARGET || backlog_bytes <= CODEL_MIN_BACKLOG_BYTES {
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + CODEL_INTERVAL);
                    false
                }
                Some(fat) => now >= fat,
            }
        }
    }
}

/// DRR fair queue with per-flow CoDel (FQ-CoDel, Linux `fq_codel`).
pub fn fq_codel(limit_bytes: u64) -> FairQueue {
    FairQueue {
        codel: true,
        ..FairQueue::new(limit_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;

    fn pkt(flow: u32, seq: u64, bytes: u32) -> Packet {
        Packet::data(FlowId(flow), seq, bytes, SimTime::ZERO, false)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn assert_conserved(q: &dyn Queue) {
        let st = q.stats();
        assert_eq!(
            st.enqueued,
            st.dequeued + st.dropped_aqm + q.len_pkts() as u64,
            "queue conservation"
        );
    }

    #[test]
    fn droptail_respects_byte_limit() {
        let mut q = DropTail::bytes(3000);
        assert!(q.enqueue(pkt(0, 0, 1500), t(0)));
        assert!(q.enqueue(pkt(0, 1, 1500), t(0)));
        assert!(!q.enqueue(pkt(0, 2, 1500), t(0)), "third must tail-drop");
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 3000);
        assert_eq!(q.stats().dropped_tail, 1);
        assert_conserved(&q);
    }

    #[test]
    fn droptail_fifo_order() {
        let mut q = DropTail::bytes(1 << 20);
        for s in 0..10 {
            q.enqueue(pkt(0, s, 1500), t(0));
        }
        for s in 0..10 {
            assert_eq!(q.dequeue(t(1)).unwrap().as_data().unwrap().seq, s);
        }
    }

    #[test]
    fn droptail_ring_grows_with_backlog_not_limit() {
        for limit in [0, 1500, 256_000, u64::MAX] {
            assert_eq!(DropTail::bytes(limit).q.capacity(), 0, "limit {limit}");
        }
        for peak in [1u64, 3, 5, 40, 63, 64, 65, 81, 170, 333, 640, 1000] {
            let mut q = DropTail::bytes(2_000_000);
            // Cycle at a backlog of `peak` packets for many times its size:
            // the ring holds on to no more than the doubling of a small peak,
            // and a quarter past one of 64 packets or more.
            for s in 0..peak {
                assert!(q.enqueue(pkt(0, s, 1500), t(0)));
            }
            for s in peak..peak * 20 {
                assert!(q.dequeue(t(1)).is_some());
                assert!(q.enqueue(pkt(0, s, 1500), t(1)));
            }
            while q.dequeue(t(2)).is_some() {}
            let peak = peak as usize;
            let bound = if peak >= 64 {
                (5 * peak).div_ceil(4)
            } else {
                (2 * peak).max(8)
            };
            assert!(q.q.capacity() <= bound, "peak {peak}: {}", q.q.capacity());
        }
    }

    #[test]
    fn drr_alternates_between_flows() {
        let mut q = FairQueue::new(1 << 20);
        for s in 0..4 {
            q.enqueue(pkt(1, s, 1500), t(0));
        }
        for s in 0..4 {
            q.enqueue(pkt(2, s, 1500), t(0));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.dequeue(t(1)))
            .map(|p| p.flow.0)
            .collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn drr_fair_in_bytes_with_unequal_sizes() {
        // Flow 1 sends 300-byte packets, flow 2 sends 1500-byte packets.
        // Over a long run each should get ~equal bytes of service.
        let mut q = FairQueue::new(1 << 24);
        for s in 0..500 {
            q.enqueue(pkt(1, s, 300), t(0));
        }
        for s in 0..100 {
            q.enqueue(pkt(2, s, 1500), t(0));
        }
        let mut bytes = [0u64; 2];
        for _ in 0..240 {
            let p = q.dequeue(t(1)).unwrap();
            bytes[(p.flow.0 - 1) as usize] += p.bytes as u64;
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.8..1.25).contains(&ratio), "byte fairness ratio {ratio}");
    }

    #[test]
    fn drr_drops_from_longest_queue() {
        let mut q = FairQueue::new(6000);
        for s in 0..4 {
            assert!(q.enqueue(pkt(1, s, 1500), t(0)));
        }
        // Flow 2's first packet overflows the shared buffer; the victim must
        // come from flow 1 (the longest queue), not flow 2.
        assert!(q.enqueue(pkt(2, 0, 1500), t(0)));
        assert_eq!(q.stats().dropped_aqm, 1);
        assert_eq!(q.stats().dropped_tail, 0);
        let mut flows_seen = [0u32; 3];
        while let Some(p) = q.dequeue(t(1)) {
            flows_seen[p.flow.0 as usize] += 1;
        }
        assert_eq!(flows_seen[2], 1, "flow 2's packet survived");
        assert_eq!(flows_seen[1], 3, "flow 1 lost one packet");
    }

    /// A flow emptied by eviction leaves the DRR round. Flow 2's 1000-B
    /// packets tie flow 1's queue for longest, so each is evicted on
    /// arrival; its 500-B packets fit. With each flow refilled as soon as
    /// it is served, both stay backlogged and must take turns.
    #[test]
    fn drr_flow_emptied_by_eviction_takes_one_turn_per_round() {
        let mut q = FairQueue::new(1500);
        assert!(q.enqueue(pkt(1, 0, 1000), t(0)));
        assert!(!q.enqueue(pkt(2, 0, 1000), t(0)));
        assert!(!q.enqueue(pkt(2, 1, 1000), t(0)));
        assert!(q.enqueue(pkt(2, 2, 500), t(0)));
        let mut order = Vec::new();
        for seq in 3..11 {
            let served = q.dequeue(t(1)).expect("both flows backlogged").flow.0;
            let bytes = if served == 1 { 1000 } else { 500 };
            assert!(q.enqueue(pkt(served, seq, bytes), t(1)));
            order.push(served);
        }
        assert_eq!(order, [1, 2, 1, 2, 1, 2, 1, 2]);
        assert_conserved(&q);
    }

    #[test]
    fn drr_rejects_new_packet_when_own_queue_longest() {
        let mut q = FairQueue::new(4500);
        assert!(q.enqueue(pkt(1, 0, 1500), t(0)));
        assert!(q.enqueue(pkt(1, 1, 1500), t(0)));
        assert!(q.enqueue(pkt(1, 2, 1500), t(0)));
        // Flow 1 is the only (hence longest) queue: its own new packet is
        // the eviction victim, i.e. a tail drop.
        assert!(!q.enqueue(pkt(1, 3, 1500), t(0)));
        assert_eq!(q.stats().dropped_tail, 1);
        assert_eq!(q.len_pkts(), 3);
        assert_conserved(&q);
    }

    // The three CoDel-law tests below offer flow 0 only, so FQ-CoDel is one
    // CoDel queue.
    #[test]
    fn codel_no_drops_below_target() {
        let mut q = fq_codel(1 << 20);
        // Sojourn stays at 1 ms << 5 ms target: CoDel never drops.
        let mut now = t(0);
        for s in 0..1000u64 {
            q.enqueue(pkt(0, s, 1500), now);
            now += SimDuration::from_millis(1);
            assert!(q.dequeue(now).is_some());
        }
        assert_eq!(q.stats().dropped(), 0);
    }

    #[test]
    fn codel_drops_on_persistent_queue() {
        let mut q = fq_codel(1 << 20);
        // Build a standing queue, then dequeue slowly: sojourn stays far
        // above the 5 ms target for longer than the 100 ms interval.
        let mut now = t(0);
        for seq in 0..400u64 {
            q.enqueue(pkt(0, seq, 1500), now);
            now += SimDuration::from_micros(250);
        }
        for _ in 0..300 {
            now += SimDuration::from_millis(2);
            let _ = q.dequeue(now);
        }
        assert!(
            q.stats().dropped_aqm > 0,
            "CoDel should drop under standing queue"
        );
        assert_conserved(&q);
    }

    #[test]
    fn codel_recovers_when_queue_drains() {
        let mut q = fq_codel(1 << 20);
        let mut now = t(0);
        for s in 0..200u64 {
            q.enqueue(pkt(0, s, 1500), now);
        }
        for _ in 0..150 {
            now += SimDuration::from_millis(3);
            let _ = q.dequeue(now);
        }
        assert!(q.stats().dropped_aqm > 0);
        while q.dequeue(now).is_some() {}
        let drops_after_drain = q.stats().dropped_aqm;
        // Low-latency phase: no more drops.
        for s in 0..100u64 {
            q.enqueue(pkt(0, 1000 + s, 1500), now);
            now += SimDuration::from_micros(500);
            assert!(q.dequeue(now).is_some());
        }
        assert_eq!(q.stats().dropped_aqm, drops_after_drain);
    }

    /// CoDel measures each packet's sojourn from the instant it entered
    /// the queue. The packets are built at t = 0 and offered from t = 1 s
    /// at a standing queue of `ahead` packets, one in and one out every
    /// 0.4 ms: every sojourn is `ahead` × 0.4 ms. Timed from when a packet
    /// was built, 4 ms would read as a second and drop; timed from a later
    /// instant (the dequeue, the tail's arrival), 6 ms would not.
    #[test]
    fn fq_codel_times_sojourn_from_the_packets_own_enqueue() {
        let standing = |ahead: u64| {
            let mut q = fq_codel(1 << 20);
            let gap = SimDuration::from_micros(400);
            let mut now = SimTime::from_secs(1);
            for seq in 0..ahead {
                assert!(q.enqueue(pkt(0, seq, 1500), now));
                now += gap;
            }
            for seq in ahead..ahead + 1000 {
                assert!(q.dequeue(now).is_some());
                assert!(q.enqueue(pkt(0, seq, 1500), now));
                now += gap;
            }
            q.stats().dropped()
        };
        assert_eq!(standing(10), 0, "4 ms is under the 5 ms target");
        assert!(
            standing(15) > 0,
            "6 ms for 400 ms is over it for an interval"
        );
    }

    #[test]
    fn fq_codel_constructor_works() {
        let mut q = fq_codel(1 << 20);
        q.enqueue(pkt(0, 0, 1500), t(0));
        assert_eq!(q.len_pkts(), 1);
        assert!(q.dequeue(t(0)).is_some());
    }

    #[test]
    fn fq_codel_drops_only_in_bloated_flow() {
        let mut q = fq_codel(1 << 22);
        let mut now = t(0);
        // Flow 1 bloats its queue; flow 2 trickles.
        for s in 0..2000u64 {
            q.enqueue(pkt(1, s, 1500), now);
            if s % 50 == 0 {
                q.enqueue(pkt(2, s, 1500), now);
            }
            now += SimDuration::from_micros(100);
        }
        let mut delivered = [0u64; 3];
        for _ in 0..800 {
            now += SimDuration::from_millis(1);
            if let Some(p) = q.dequeue(now) {
                delivered[p.flow.0 as usize] += 1;
            }
        }
        assert!(q.stats().dropped_aqm > 0, "codel active on bloated flow");
        assert!(delivered[2] >= 35, "sparse flow served: {delivered:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::FlowId;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Enq { flow: u32, bytes: u32 },
        Deq,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..4, 40u32..2000).prop_map(|(flow, bytes)| Op::Enq { flow, bytes }),
            Just(Op::Deq),
        ]
    }

    fn run_ops(q: &mut dyn Queue, ops: &[Op], step: SimDuration) {
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for op in ops {
            now += step;
            match *op {
                Op::Enq { flow, bytes } => {
                    q.enqueue(Packet::data(FlowId(flow), seq, bytes, now, false), now);
                    seq += 1;
                }
                Op::Deq => {
                    let _ = q.dequeue(now);
                }
            }
        }
    }

    fn conservation_holds(q: &dyn Queue, offered: u64) -> bool {
        let st = q.stats();
        st.enqueued == st.dequeued + st.dropped_aqm + q.len_pkts() as u64
            && st.enqueued + st.dropped_tail == offered
    }

    proptest! {
        #[test]
        fn droptail_conservation(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut q = DropTail::bytes(8000);
            let offered = ops.iter().filter(|o| matches!(o, Op::Enq { .. })).count() as u64;
            run_ops(&mut q, &ops, SimDuration::from_micros(37));
            prop_assert!(conservation_holds(&q, offered));
        }

        #[test]
        fn fairqueue_conservation(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut q = FairQueue::new(8000);
            let offered = ops.iter().filter(|o| matches!(o, Op::Enq { .. })).count() as u64;
            run_ops(&mut q, &ops, SimDuration::from_micros(37));
            prop_assert!(conservation_holds(&q, offered));
            prop_assert!(q.len_bytes() <= 8000 + 2000, "buffer limit respected");
        }

        #[test]
        fn fq_codel_conservation(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut q = fq_codel(8000);
            let offered = ops.iter().filter(|o| matches!(o, Op::Enq { .. })).count() as u64;
            run_ops(&mut q, &ops, SimDuration::from_millis(3));
            prop_assert!(conservation_holds(&q, offered));
        }

        /// `DropTail` against a model: a FIFO of `(seq, bytes)` and a byte
        /// counter under the same `bytes + pkt > limit` drop rule. Limits
        /// below one packet are drawn too, and random dequeues make the
        /// ring grow while it is wrapped; its capacity stays within twice
        /// the largest backlog it has held (`ring`'s proptest holds the
        /// tighter bound past 64 slots).
        #[test]
        fn byte_accounting(
            limit in 0u64..20_000,
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut q = DropTail::bytes(limit);
            let mut model: VecDeque<(u64, u32)> = VecDeque::new();
            let mut model_bytes = 0u64;
            let mut peak = 0usize;
            let mut now = SimTime::ZERO;
            for (seq, op) in (0u64..).zip(&ops) {
                now += SimDuration::from_micros(11);
                match *op {
                    Op::Enq { flow, bytes } => {
                        let fits = model_bytes + bytes as u64 <= limit;
                        let pkt = Packet::data(FlowId(flow), seq, bytes, now, false);
                        prop_assert_eq!(q.enqueue(pkt, now), fits);
                        if fits {
                            model.push_back((seq, bytes));
                            model_bytes += bytes as u64;
                        }
                    }
                    Op::Deq => {
                        let got = q.dequeue(now).map(|p| (p.as_data().unwrap().seq, p.bytes));
                        let want = model.pop_front();
                        model_bytes -= want.map_or(0, |(_, b)| b as u64);
                        prop_assert_eq!(got, want);
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(q.len_bytes(), model_bytes);
                prop_assert_eq!(q.len_pkts(), model.len());
                prop_assert!(q.q.capacity() <= (2 * peak).max(8));
            }
        }
    }
}
