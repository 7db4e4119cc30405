//! The SACK scoreboard: per-packet fate tracking and loss detection.
//!
//! Both sender kinds (window-based TCP and rate-based PCC/SABUL/PCP) share
//! this structure. It records every transmission, matches incoming selective
//! ACKs, and detects losses two ways:
//!
//! * **Reordering threshold** (RFC 6675 `DupThresh`): an unacked original
//!   transmission is lost once a packet sent ≥ 3 sequence numbers later has
//!   been SACKed.
//! * **Timeout**: any transmission (including retransmissions, whose
//!   sequence-based detection would be ambiguous) is lost once it has been
//!   outstanding longer than the supplied RTO.
//!
//! One sequence costs one `u64` in the window (`SeqEntry`): bits 0–1 hold
//! its state, bits 2–7 its retransmission count, saturating at 63 (every
//! rule only asks whether the count is zero), and bits 8–63 the time of
//! its latest transmission in nanoseconds. That bounds a send time to
//! 2^56 ns, about 2.3 years of simulated or process time, and
//! [`Scoreboard::on_send`] asserts it.

use std::collections::VecDeque;

use pcc_simnet::packet::AckInfo;
use pcc_simnet::ring;
use pcc_simnet::time::{SimDuration, SimTime};

/// Fate of one sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SeqState {
    /// In flight, fate unknown.
    Outstanding = 0,
    /// SACKed (or cumulatively acked).
    Acked = 1,
    /// Declared lost, waiting for retransmission to be scheduled.
    Lost = 2,
}

/// One sequence's record, packed into a `u64` (layout in the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SeqEntry(u64);

impl SeqEntry {
    const STATE_MASK: u64 = 0b11;
    const RETX_SHIFT: u32 = 2;
    /// Retransmission counts stop here.
    const MAX_RETX: u32 = 63;
    const TIME_SHIFT: u32 = 8;
    /// The latest send time an entry can hold, in nanoseconds.
    const MAX_SENT_NS: u64 = u64::MAX >> Self::TIME_SHIFT;

    /// An original transmission at `sent_at`, outstanding.
    fn sent(sent_at: SimTime) -> Self {
        let ns = sent_at.as_nanos();
        assert!(
            ns <= Self::MAX_SENT_NS,
            "send time {sent_at:?} is past the scoreboard's 2^56 ns"
        );
        SeqEntry(ns << Self::TIME_SHIFT)
    }

    fn state(self) -> SeqState {
        match self.0 & Self::STATE_MASK {
            0 => SeqState::Outstanding,
            1 => SeqState::Acked,
            2 => SeqState::Lost,
            _ => unreachable!("state bits hold a SeqState"),
        }
    }

    fn set_state(&mut self, state: SeqState) {
        self.0 = self.0 & !Self::STATE_MASK | state as u64;
    }

    /// Time of the most recent transmission of this sequence.
    fn last_sent_at(self) -> SimTime {
        SimTime::from_nanos(self.0 >> Self::TIME_SHIFT)
    }

    /// Number of retransmissions so far (0 = original only), saturating
    /// at [`SeqEntry::MAX_RETX`].
    fn retx_count(self) -> u32 {
        (self.0 >> Self::RETX_SHIFT) as u32 & Self::MAX_RETX
    }

    /// An original transmission still in flight: what both loss rules
    /// look for.
    fn is_outstanding_original(self) -> bool {
        self.state() == SeqState::Outstanding && self.retx_count() == 0
    }

    /// Record a retransmission at `now`: outstanding again, one more
    /// retransmission, a new send time.
    fn resent(&mut self, now: SimTime) {
        let retx = (self.retx_count() + 1).min(Self::MAX_RETX);
        *self = SeqEntry(Self::sent(now).0 | u64::from(retx) << Self::RETX_SHIFT);
    }
}

/// Outcome of processing one ACK.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckOutcome {
    /// Sequences newly acknowledged (cumulative + selective) by this ACK.
    pub newly_acked: u64,
    /// Exact RTT of the acknowledged transmission (receiver echoes the
    /// packet's send timestamp, so even retransmissions yield clean samples).
    pub rtt: Option<SimDuration>,
    /// This ACK acknowledged something not seen before.
    pub advanced: bool,
}

/// SACK scoreboard over packet-granularity sequence numbers.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    /// Entry `i` describes sequence `base + i`.
    entries: VecDeque<SeqEntry>,
    /// All sequences `< base` are acked and pruned.
    base: u64,
    /// Highest sequence ever sent, plus one.
    high_seq: u64,
    /// Highest SACKed sequence, plus one (0 = nothing sacked).
    high_sacked: u64,
    /// Packets currently considered in flight.
    in_flight: u64,
    /// Total losses declared.
    losses: u64,
    /// Reordering threshold in packets.
    dup_thresh: u64,
    /// Timeout frontier over *original* transmissions: no sequence below
    /// it is an `Outstanding` original (`retx_count == 0`) — each was
    /// acked, declared lost or retransmitted when the cursor passed it,
    /// and none of those can be undone. New data is sent in sequence
    /// order, so the originals at and above it are sorted by send time
    /// and the first one that has not timed out ends the search.
    timeout_cursor: u64,
    /// Timeout frontier over retransmissions, which happen in any
    /// sequence order: one `(sent_at, seq)` record per retransmission, in
    /// send order. A record is stale once its entry is gone, no longer
    /// `Outstanding`, or was sent again since (`last_sent_at != sent_at`).
    retx_log: VecDeque<(SimTime, u64)>,
    /// Entries and records the two frontiers have looked at (the
    /// complexity tripwire's count).
    #[cfg(test)]
    frontier_steps: u64,
    /// Sequences below this have already been judged by the reordering
    /// rule. Once a scan reaches a cutoff, no entry below it can ever
    /// qualify again (originals there were marked `Lost` on the spot and
    /// retransmissions carry `retx_count > 0`, which the rule excludes),
    /// so the next scan resumes here instead of re-walking from `base` —
    /// without this, a single unrepaired hole pinning `base` makes every
    /// ACK rescan the whole outstanding window, turning a loss-heavy run
    /// quadratic.
    reorder_floor: u64,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Self::new()
    }
}

impl Scoreboard {
    /// Empty scoreboard with the standard reordering threshold of 3.
    pub fn new() -> Self {
        Scoreboard {
            entries: VecDeque::new(),
            base: 0,
            high_seq: 0,
            high_sacked: 0,
            in_flight: 0,
            losses: 0,
            dup_thresh: 3,
            timeout_cursor: 0,
            retx_log: VecDeque::new(),
            #[cfg(test)]
            frontier_steps: 0,
            reorder_floor: 0,
        }
    }

    fn entry(&self, seq: u64) -> Option<&SeqEntry> {
        if seq < self.base {
            return None;
        }
        self.entries.get((seq - self.base) as usize)
    }

    /// Index of `seq` in `entries`, if tracked.
    fn idx(&self, seq: u64) -> Option<usize> {
        if seq < self.base {
            return None;
        }
        let i = (seq - self.base) as usize;
        (i < self.entries.len()).then_some(i)
    }

    /// Record a transmission of `seq` at `now`. New sequences must be sent
    /// in order; retransmissions may target any outstanding sequence.
    ///
    /// `now` must never decrease from one call to the next (true of
    /// `Simulation`'s clock and of `pcc-udp`'s `Instant`-derived one): the
    /// timeout rule in [`Scoreboard::detect_losses`] stops at the first
    /// transmission, in send order, that has not timed out. A send
    /// stamped earlier than its predecessor would wait behind it and be
    /// declared late — never wrongly, since every declaration checks the
    /// transmission's own age.
    pub fn on_send(&mut self, seq: u64, now: SimTime, retx: bool) {
        debug_assert!(
            self.entries.back().is_none_or(|e| e.last_sent_at() <= now)
                && self.retx_log.back().is_none_or(|r| r.0 <= now),
            "send at {now:?} is earlier than the one before it"
        );
        if !retx {
            assert_eq!(seq, self.high_seq, "new data must be sent in order");
            ring::reserve(&mut self.entries, 1);
            self.entries.push_back(SeqEntry::sent(now));
            self.high_seq += 1;
            self.in_flight += 1;
        } else if let Some(i) = self.idx(seq) {
            let e = &mut self.entries[i];
            debug_assert_ne!(e.state(), SeqState::Acked, "retransmitting acked seq");
            if e.state() == SeqState::Lost {
                // Back in flight.
                self.in_flight += 1;
            }
            e.resent(now);
            ring::reserve(&mut self.retx_log, 1);
            self.retx_log.push_back((now, seq));
        }
    }

    /// Process a SACK. Returns what the ACK newly covered.
    pub fn on_ack(&mut self, info: &AckInfo, now: SimTime) -> AckOutcome {
        self.on_ack_with(info, now, |_, _| {})
    }

    /// [`Scoreboard::on_ack`], reporting each transmission it moves out of
    /// `Outstanding` to `delivered(latest send, selective)`: the selective
    /// one first, then the cumulative prefix in sequence order. A
    /// declared-lost sequence ACKed late is not reported; its loss was.
    pub(crate) fn on_ack_with(
        &mut self,
        info: &AckInfo,
        now: SimTime,
        mut delivered: impl FnMut(SimTime, bool),
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        // Selective part.
        if let Some(i) = self.idx(info.acked_seq) {
            let e = &mut self.entries[i];
            if e.state() != SeqState::Acked {
                if e.state() == SeqState::Outstanding {
                    self.in_flight -= 1;
                    delivered(e.last_sent_at(), true);
                }
                e.set_state(SeqState::Acked);
                out.newly_acked += 1;
                out.advanced = true;
                out.rtt = Some(now.saturating_since(info.echo_sent_at));
            }
        }
        if info.acked_seq + 1 > self.high_sacked {
            self.high_sacked = info.acked_seq + 1;
            out.advanced = true;
        }
        // Cumulative part: everything below cum_ack is acked.
        if info.cum_ack > self.base {
            let upto = info.cum_ack.min(self.high_seq);
            for seq in self.base..upto {
                let i = (seq - self.base) as usize;
                let e = &mut self.entries[i];
                if e.state() != SeqState::Acked {
                    if e.state() == SeqState::Outstanding {
                        self.in_flight -= 1;
                        delivered(e.last_sent_at(), false);
                    }
                    e.set_state(SeqState::Acked);
                    out.newly_acked += 1;
                    out.advanced = true;
                }
            }
            self.high_sacked = self.high_sacked.max(upto);
            // Prune.
            while self.base < upto {
                self.entries.pop_front();
                self.base += 1;
            }
        }
        out
    }

    /// Declare losses per the reordering-threshold and timeout rules.
    /// Returns the newly lost sequences (oldest first); the caller should
    /// queue them for retransmission.
    ///
    /// This runs on every ACK, so neither rule walks the window: reorder
    /// candidates all sit in the SACK-hole region `[base, dup_cutoff)`
    /// (empty for an in-order flow), and the timeout rule reads two
    /// frontiers that are each sorted by send time — a cursor over the
    /// originals and a log of the retransmissions — visiting every
    /// transmission once over the scoreboard's life, plus the one at
    /// each frontier that stops the call.
    pub fn detect_losses(&mut self, now: SimTime, rto: SimDuration) -> Vec<u64> {
        let mut lost = self.reorder_losses();
        let timed_out = |sent_at: SimTime| now.saturating_since(sent_at) >= rto;
        // Timeout rule, originals: in sequence order from the cursor.
        self.timeout_cursor = self.timeout_cursor.max(self.base);
        while let Some(e) = self
            .entries
            .get_mut((self.timeout_cursor - self.base) as usize)
        {
            #[cfg(test)]
            {
                self.frontier_steps += 1;
            }
            if e.is_outstanding_original() {
                if !timed_out(e.last_sent_at()) {
                    break;
                }
                e.set_state(SeqState::Lost);
                self.in_flight -= 1;
                self.losses += 1;
                lost.push(self.timeout_cursor);
            }
            self.timeout_cursor += 1;
        }
        // Timeout rule, retransmissions (which the reorder rule cannot
        // judge): in send order from the front of the log.
        while let Some(&(sent_at, seq)) = self.retx_log.front() {
            #[cfg(test)]
            {
                self.frontier_steps += 1;
            }
            if let Some(i) = self.idx(seq) {
                let e = &mut self.entries[i];
                if e.state() == SeqState::Outstanding && e.last_sent_at() == sent_at {
                    if !timed_out(sent_at) {
                        break;
                    }
                    e.set_state(SeqState::Lost);
                    self.in_flight -= 1;
                    self.losses += 1;
                    lost.push(seq);
                }
            }
            self.retx_log.pop_front();
        }
        // Each of the three passes emits in its own order; restore the
        // global oldest-first contract.
        lost.sort_unstable();
        lost
    }

    /// The reordering rule: only *original* transmissions below the SACK
    /// frontier minus DupThresh qualify, and everything below `base` is
    /// acked — so the candidates live in `[base, dup_cutoff)`.
    fn reorder_losses(&mut self) -> Vec<u64> {
        let mut lost = Vec::new();
        let dup_cutoff = self.high_sacked.saturating_sub(self.dup_thresh);
        let start = self.base.max(self.reorder_floor);
        if dup_cutoff > start {
            let skip = (start - self.base) as usize;
            let end = ((dup_cutoff - self.base) as usize).min(self.entries.len());
            for (i, e) in self.entries.iter_mut().enumerate().take(end).skip(skip) {
                if e.is_outstanding_original() {
                    e.set_state(SeqState::Lost);
                    self.in_flight -= 1;
                    self.losses += 1;
                    lost.push(self.base + i as u64);
                }
            }
            self.reorder_floor = self.base + end as u64;
        }
        lost
    }

    /// What [`Scoreboard::detect_losses`] must equal, call for call: the
    /// timeout rule as a sweep of the whole window. The reference the
    /// oracle proptest compares against.
    #[cfg(test)]
    fn detect_losses_by_sweep(&mut self, now: SimTime, rto: SimDuration) -> Vec<u64> {
        let mut lost = self.reorder_losses();
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.state() == SeqState::Outstanding && now.saturating_since(e.last_sent_at()) >= rto {
                e.set_state(SeqState::Lost);
                self.in_flight -= 1;
                self.losses += 1;
                lost.push(self.base + i as u64);
            }
        }
        lost.sort_unstable();
        lost
    }

    /// Declare every outstanding packet lost (used on RTO).
    pub fn mark_all_lost(&mut self) -> Vec<u64> {
        let mut lost = Vec::new();
        for i in 0..self.entries.len() {
            let seq = self.base + i as u64;
            let e = &mut self.entries[i];
            if e.state() == SeqState::Outstanding {
                e.set_state(SeqState::Lost);
                self.in_flight -= 1;
                self.losses += 1;
                lost.push(seq);
            }
        }
        lost
    }

    /// Every sequence currently marked lost (awaiting retransmission),
    /// oldest first — the set an RTO must requeue. This is a superset of
    /// what [`Scoreboard::mark_all_lost`] just returned: sequences
    /// declared lost *earlier* (and possibly dropped from a
    /// retransmission queue since) are still here.
    pub fn lost_seqs(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state() == SeqState::Lost)
            .map(|(i, _)| self.base + i as u64)
            .collect()
    }

    /// Oldest sequence not yet acked, if any (`== cum ack` point).
    #[cfg(test)]
    fn oldest_unacked(&self) -> Option<u64> {
        for i in 0..self.entries.len() {
            if self.entries[i].state() != SeqState::Acked {
                return Some(self.base + i as u64);
            }
        }
        None
    }

    /// True when every sequence below `upper` has been acked.
    pub fn all_acked_below(&self, upper: u64) -> bool {
        if self.base >= upper {
            return true;
        }
        // Nothing at or above the SACK frontier is acked (and `high_sacked
        // <= high_seq`), so a frontier below `upper` answers without the
        // scan — the common case for every mid-flow call.
        if self.high_sacked < upper || self.high_seq < upper {
            return false;
        }
        (self.base..upper.min(self.high_seq))
            .all(|seq| matches!(self.entry(seq), Some(e) if e.state() == SeqState::Acked))
    }

    /// Packets currently in flight (sent, not acked, not declared lost).
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Entries currently tracked (the `base..next_seq` window). Memory is
    /// proportional to this; the engine bounds it against its in-flight
    /// cap as a leak tripwire.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Cumulative-ack point (all sequences below are acked and pruned —
    /// equals `base`, which may lag the true cum-ack until pruning).
    pub fn cum_ack(&self) -> u64 {
        self.base
    }

    /// Next fresh sequence number.
    pub fn next_seq(&self) -> u64 {
        self.high_seq
    }

    /// Highest SACKed sequence plus one.
    pub fn high_sacked(&self) -> u64 {
        self.high_sacked
    }

    /// Total losses declared over the scoreboard's lifetime.
    pub fn total_losses(&self) -> u64 {
        self.losses
    }

    /// Retransmission count for `seq` (0 when unknown).
    #[cfg(test)]
    fn retx_count(&self, seq: u64) -> u32 {
        self.entry(seq).map(|e| e.retx_count()).unwrap_or(0)
    }

    /// When `seq`'s latest transmission left, while it is tracked.
    pub(crate) fn sent_at(&self, seq: u64) -> Option<SimTime> {
        self.entry(seq).map(|e| e.last_sent_at())
    }

    /// True if `seq` is currently marked lost (awaiting retransmission).
    pub fn is_lost(&self, seq: u64) -> bool {
        matches!(self.entry(seq), Some(e) if e.state() == SeqState::Lost)
    }

    /// True if `seq` has been acked (or pruned, implying acked).
    pub fn is_acked(&self, seq: u64) -> bool {
        seq < self.base || matches!(self.entry(seq), Some(e) if e.state() == SeqState::Acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    pub(super) fn ack(acked_seq: u64, cum_ack: u64, sent_at: SimTime) -> AckInfo {
        AckInfo {
            acked_seq,
            cum_ack,
            echo_sent_at: sent_at,
            recv_at: SimTime::ZERO,
            recv_bytes: 0,
            probe_train: None,
            of_retx: false,
        }
    }

    /// The delivery hook names each transmission an ACK moves out of
    /// `Outstanding`, with its latest send time: the selective one, then
    /// the cumulative prefix. A late ACK of a declared loss is not one.
    #[test]
    fn on_ack_with_reports_only_transitions_out_of_outstanding() {
        let mut sb = Scoreboard::new();
        (0..4).for_each(|seq| sb.on_send(seq, t(seq), false));
        sb.on_send(2, t(5), true); // a retransmission's latest send
        let mut seen = Vec::new();
        sb.on_ack_with(&ack(3, 0, t(3)), t(20), |at, sel| seen.push((at, sel)));
        assert_eq!(seen, [(t(3), true)]);
        assert_eq!(sb.mark_all_lost(), [0, 1, 2]);
        sb.on_send(0, t(30), true);
        seen.clear();
        let out = sb.on_ack_with(&ack(1, 3, t(1)), t(40), |at, sel| seen.push((at, sel)));
        assert_eq!(seen, [(t(30), false)], "1 and 2 were declared lost");
        assert_eq!(out.newly_acked, 3);
    }

    #[test]
    fn an_entry_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<SeqEntry>(), 8);
    }

    /// Every state, the retransmission count up to where it saturates and
    /// the latest send time the entry can hold come back as written, and
    /// no field disturbs another.
    #[test]
    fn an_entry_round_trips_its_fields() {
        let latest = SimTime::from_nanos(SeqEntry::MAX_SENT_NS);
        for sent_at in [SimTime::ZERO, t(1), latest] {
            let mut e = SeqEntry::sent(sent_at);
            assert_eq!(
                (e.state(), e.retx_count(), e.last_sent_at()),
                (SeqState::Outstanding, 0, sent_at)
            );
            assert!(e.is_outstanding_original());
            for state in [SeqState::Lost, SeqState::Acked, SeqState::Outstanding] {
                e.set_state(state);
                assert_eq!(
                    (e.state(), e.retx_count(), e.last_sent_at()),
                    (state, 0, sent_at)
                );
            }
            for retx in 1..=SeqEntry::MAX_RETX + 2 {
                e.set_state(SeqState::Lost);
                e.resent(sent_at);
                let want = retx.min(SeqEntry::MAX_RETX);
                assert_eq!(
                    (e.state(), e.retx_count(), e.last_sent_at()),
                    (SeqState::Outstanding, want, sent_at)
                );
                assert!(!e.is_outstanding_original());
                e.set_state(SeqState::Acked);
                assert_eq!(
                    (e.state(), e.retx_count(), e.last_sent_at()),
                    (SeqState::Acked, want, sent_at)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^56 ns")]
    fn a_send_time_past_the_entry_panics() {
        Scoreboard::new().on_send(0, SimTime::from_nanos(SeqEntry::MAX_SENT_NS + 1), false);
    }

    #[test]
    fn in_order_ack_flow() {
        let mut sb = Scoreboard::new();
        for s in 0..5 {
            sb.on_send(s, t(s), false);
        }
        assert_eq!(sb.in_flight(), 5);
        let out = sb.on_ack(&ack(0, 1, t(0)), t(30));
        assert_eq!(out.newly_acked, 1);
        assert_eq!(out.rtt, Some(SimDuration::from_millis(30)));
        assert_eq!(sb.cum_ack(), 1);
        assert_eq!(sb.in_flight(), 4);
        let out = sb.on_ack(&ack(4, 5, t(4)), t(34));
        assert_eq!(out.newly_acked, 4, "cumulative covers 1..4 plus sack of 4");
        assert_eq!(sb.in_flight(), 0);
        assert!(sb.all_acked_below(5));
    }

    #[test]
    fn duplicate_ack_is_no_op() {
        let mut sb = Scoreboard::new();
        sb.on_send(0, t(0), false);
        let first = sb.on_ack(&ack(0, 1, t(0)), t(10));
        assert_eq!(first.newly_acked, 1);
        let dup = sb.on_ack(&ack(0, 1, t(0)), t(12));
        assert_eq!(dup.newly_acked, 0);
        assert!(!dup.advanced);
        assert_eq!(dup.rtt, None);
    }

    #[test]
    fn reorder_threshold_loss() {
        let mut sb = Scoreboard::new();
        for s in 0..6 {
            sb.on_send(s, t(s), false);
        }
        // Seq 0 never arrives; SACKs for 1, 2, 3 arrive.
        for s in 1..=3 {
            sb.on_ack(&ack(s, 0, t(s)), t(30 + s));
        }
        // high_sacked = 4, dup_thresh 3 => seqs < 1 are lost.
        let lost = sb.detect_losses(t(40), SimDuration::from_secs(60));
        assert_eq!(lost, vec![0]);
        assert!(sb.is_lost(0));
        assert_eq!(sb.total_losses(), 1);
        // A second scan declares nothing new.
        assert!(sb
            .detect_losses(t(41), SimDuration::from_secs(60))
            .is_empty());
    }

    #[test]
    fn timeout_loss_for_retransmission() {
        let mut sb = Scoreboard::new();
        for s in 0..5 {
            sb.on_send(s, t(0), false);
        }
        for s in 1..=4 {
            sb.on_ack(&ack(s, 0, t(0)), t(20 + s));
        }
        let lost = sb.detect_losses(t(30), SimDuration::from_secs(60));
        assert_eq!(lost, vec![0]);
        // Retransmit seq 0; it's back in flight and immune to the
        // reordering rule (retx_count > 0)...
        sb.on_send(0, t(31), true);
        assert!(sb
            .detect_losses(t(32), SimDuration::from_secs(60))
            .is_empty());
        // ...but a timeout declares it lost again.
        let lost = sb.detect_losses(t(300), SimDuration::from_millis(200));
        assert_eq!(lost, vec![0]);
        assert_eq!(sb.retx_count(0), 1);
    }

    #[test]
    fn mark_all_lost_on_rto() {
        let mut sb = Scoreboard::new();
        for s in 0..4 {
            sb.on_send(s, t(0), false);
        }
        sb.on_ack(&ack(1, 0, t(0)), t(10));
        let lost = sb.mark_all_lost();
        assert_eq!(lost, vec![0, 2, 3]);
        assert_eq!(sb.in_flight(), 0);
    }

    #[test]
    fn lost_seqs_includes_previously_declared_losses() {
        // Regression for the RTO requeue path: seq 0 is declared lost by a
        // scan; seq 2 is still outstanding when the RTO marks all lost.
        // `mark_all_lost` reports only the newly lost seq 2, but the full
        // lost set — what an RTO must requeue — is {0, 2}.
        let mut sb = Scoreboard::new();
        for s in 0..3 {
            sb.on_send(s, t(0), false);
        }
        sb.on_ack(&ack(1, 0, t(0)), t(10));
        let scan_lost = sb.detect_losses(t(300), SimDuration::from_millis(100));
        assert_eq!(scan_lost, vec![0, 2]);
        sb.on_send(2, t(301), true); // 2 retransmitted, back in flight
        let rto_lost = sb.mark_all_lost();
        assert_eq!(rto_lost, vec![2], "only the outstanding retransmission");
        assert_eq!(sb.lost_seqs(), vec![0, 2], "the full requeue set");
    }

    #[test]
    fn oldest_unacked_tracking() {
        let mut sb = Scoreboard::new();
        assert_eq!(sb.oldest_unacked(), None);
        for s in 0..3 {
            sb.on_send(s, t(s), false);
        }
        assert_eq!(sb.oldest_unacked(), Some(0));
        sb.on_ack(&ack(0, 1, t(0)), t(10));
        assert_eq!(sb.oldest_unacked(), Some(1));
        sb.on_ack(&ack(2, 1, t(2)), t(12));
        assert_eq!(sb.oldest_unacked(), Some(1), "hole at 1");
    }

    #[test]
    fn retx_restores_inflight_accounting() {
        let mut sb = Scoreboard::new();
        sb.on_send(0, t(0), false);
        sb.on_send(1, t(0), false);
        sb.on_send(2, t(0), false);
        sb.on_send(3, t(0), false);
        for s in 1..=3 {
            sb.on_ack(&ack(s, 0, t(0)), t(10));
        }
        assert_eq!(sb.in_flight(), 1);
        let lost = sb.detect_losses(t(20), SimDuration::from_secs(60));
        assert_eq!(lost, vec![0]);
        assert_eq!(sb.in_flight(), 0);
        sb.on_send(0, t(21), true);
        assert_eq!(sb.in_flight(), 1);
        sb.on_ack(&ack(0, 4, t(21)), t(40));
        assert_eq!(sb.in_flight(), 0);
        assert!(sb.all_acked_below(4));
        assert_eq!(sb.cum_ack(), 4);
    }

    #[test]
    fn prune_keeps_indices_valid() {
        let mut sb = Scoreboard::new();
        for s in 0..100 {
            sb.on_send(s, t(s), false);
        }
        sb.on_ack(&ack(49, 50, t(49)), t(80));
        assert_eq!(sb.cum_ack(), 50);
        // Later sequences still addressable.
        sb.on_ack(&ack(75, 50, t(75)), t(100));
        assert!(sb.is_acked(75));
        assert!(!sb.is_acked(74));
        assert!(sb.is_acked(10), "pruned implies acked");
    }

    #[test]
    fn all_acked_below_requires_data_sent() {
        let mut sb = Scoreboard::new();
        sb.on_send(0, t(0), false);
        sb.on_ack(&ack(0, 1, t(0)), t(1));
        assert!(sb.all_acked_below(1));
        assert!(!sb.all_acked_below(5), "seqs 1..5 never sent");
    }

    /// Two scoreboards fed identically: `fast` detects with the frontiers,
    /// `slow` with the reference sweep. Every call checks that they agree.
    pub(super) struct Pair {
        pub(super) fast: Scoreboard,
        slow: Scoreboard,
    }

    impl Pair {
        pub(super) fn new() -> Self {
            Pair {
                fast: Scoreboard::new(),
                slow: Scoreboard::new(),
            }
        }

        pub(super) fn send(&mut self, seq: u64, now: SimTime, retx: bool) {
            self.fast.on_send(seq, now, retx);
            self.slow.on_send(seq, now, retx);
            self.check();
        }

        pub(super) fn ack(&mut self, info: &AckInfo, now: SimTime) {
            self.fast.on_ack(info, now);
            self.slow.on_ack(info, now);
            self.check();
        }

        pub(super) fn mark_all_lost(&mut self) {
            assert_eq!(self.fast.mark_all_lost(), self.slow.mark_all_lost());
            self.check();
        }

        pub(super) fn detect(&mut self, now: SimTime, rto: SimDuration) -> Vec<u64> {
            let lost = self.fast.detect_losses(now, rto);
            assert_eq!(lost, self.slow.detect_losses_by_sweep(now, rto));
            self.check();
            lost
        }

        fn check(&self) {
            assert_eq!(self.fast.in_flight(), self.slow.in_flight());
            assert_eq!(self.fast.total_losses(), self.slow.total_losses());
            for seq in self.fast.cum_ack()..self.fast.next_seq() {
                assert_eq!(self.fast.is_lost(seq), self.slow.is_lost(seq), "seq {seq}");
            }
        }
    }

    #[test]
    fn retransmission_below_the_cursor_times_out_again() {
        let mut p = Pair::new();
        for s in 0..10 {
            p.send(s, t(s), false);
        }
        for s in 1..=4 {
            p.ack(&ack(s, 0, t(s)), t(10));
        }
        // The reordering rule takes 0; the cursor passes it and the four
        // SACKed entries and stops at 5, which is 7 ms old.
        assert_eq!(p.detect(t(12), SimDuration::from_millis(60)), vec![0]);
        p.send(0, t(13), true);
        assert!(p.detect(t(14), SimDuration::from_millis(60)).is_empty());
        // 0 now sits below the cursor: only the log can time it out.
        assert_eq!(
            p.detect(t(80), SimDuration::from_millis(60)),
            vec![0, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn only_the_latest_retransmission_of_a_sequence_is_live() {
        let mut p = Pair::new();
        for s in 0..6 {
            p.send(s, t(s), false);
        }
        for s in 1..=5 {
            p.ack(&ack(s, 0, t(s)), t(10));
        }
        assert_eq!(p.detect(t(11), SimDuration::from_secs(1)), vec![0]);
        p.send(0, t(20), true);
        p.mark_all_lost();
        p.send(0, t(25), true);
        // Two records for 0. The one from t = 20 is 11 ms old but stale;
        // the live one from t = 25 is 6 ms old.
        assert!(p.detect(t(31), SimDuration::from_millis(10)).is_empty());
        assert_eq!(p.detect(t(35), SimDuration::from_millis(10)), vec![0]);
        // A retransmission of a sequence still in flight supersedes the
        // earlier one the same way.
        p.send(0, t(40), true);
        p.send(0, t(44), true);
        assert!(p.detect(t(51), SimDuration::from_millis(10)).is_empty());
        assert_eq!(p.detect(t(54), SimDuration::from_millis(10)), vec![0]);
    }

    /// The shape that made the timeout rule the most expensive thing in a
    /// high-BDP run: a full window in flight, an RTO just above the RTT
    /// (so the oldest outstanding send is always nearly due), and holes
    /// that pin the cumulative point. Counts work, not time.
    #[test]
    fn timeout_rule_does_not_walk_the_window() {
        const WINDOW: u64 = 2_500;
        const PACKETS: u64 = 200_000;
        const HOLE_EVERY: u64 = 50;
        let gap = SimDuration::from_micros(12);
        let rto = gap * WINDOW + SimDuration::from_micros(1);
        let sent_at = |seq: u64| SimTime::ZERO + gap * (seq + 1);
        let mut sb = Scoreboard::new();
        // Holes not yet repaired, oldest first: `(seq, retransmitted)`.
        let mut holes: VecDeque<(u64, bool)> = VecDeque::new();
        let (mut sends, mut calls, mut lost) = (0u64, 0u64, 0u64);
        for next in 0..PACKETS {
            let now = sent_at(next);
            sb.on_send(next, now, false);
            sends += 1;
            let Some(due) = next.checked_sub(WINDOW) else {
                continue;
            };
            // Repair the oldest hole: retransmit it a window after its ACK
            // was due, acknowledge the retransmission a window after that.
            if let Some(&mut (seq, ref mut retx)) = holes.front_mut() {
                if !*retx && due >= seq + WINDOW {
                    sb.on_send(seq, now, true);
                    sends += 1;
                    *retx = true;
                } else if *retx && due >= seq + 2 * WINDOW {
                    holes.pop_front();
                    let cum = holes.front().map_or(due, |h| h.0);
                    sb.on_ack(&ack(seq, cum, now), now);
                }
            }
            if due % HOLE_EVERY == HOLE_EVERY / 2 {
                holes.push_back((due, false));
            } else {
                let cum = holes.front().map_or(due + 1, |h| h.0);
                sb.on_ack(&ack(due, cum, sent_at(due)), now);
            }
            lost += sb.detect_losses(now, rto).len() as u64;
            calls += 1;
        }
        assert_eq!(
            lost,
            (PACKETS - WINDOW) / HOLE_EVERY,
            "every hole is declared exactly once and no retransmission is"
        );
        assert!(sb.tracked() as u64 > WINDOW, "the holes pin the window");
        // Each frontier looks at every transmission once, plus the one
        // that stops each call: at most `sends + 2 * calls`.
        assert!(
            sb.frontier_steps <= 2 * (sends + calls),
            "{} frontier steps for {sends} sends and {calls} calls",
            sb.frontier_steps
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{ack, Pair};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation: sent = acked + lost-pending + in-flight, under any
        /// interleaving of sends, acks, and loss scans.
        #[test]
        fn scoreboard_conservation(script in proptest::collection::vec(0u8..4, 1..400)) {
            let mut sb = Scoreboard::new();
            let mut now = SimTime::ZERO;
            let mut next_ackable = 0u64;
            for op in script {
                now += SimDuration::from_millis(1);
                match op {
                    0 => {
                        let seq = sb.next_seq();
                        sb.on_send(seq, now, false);
                    }
                    1 => {
                        // Ack the oldest unacked (simulating in-order receipt).
                        if let Some(seq) = sb.oldest_unacked() {
                            if seq < sb.next_seq() {
                                let info = AckInfo {
                                    acked_seq: seq,
                                    cum_ack: seq + 1,
                                    echo_sent_at: now,
                                    recv_at: now,
                                    recv_bytes: 0,
                                    probe_train: None,
                                    of_retx: false,
                                };
                                sb.on_ack(&info, now);
                                next_ackable = next_ackable.max(seq + 1);
                            }
                        }
                    }
                    2 => {
                        let _ = sb.detect_losses(now, SimDuration::from_millis(50));
                    }
                    _ => {
                        // Retransmit the first lost seq, if any.
                        let base = sb.cum_ack();
                        for seq in base..sb.next_seq() {
                            if sb.is_lost(seq) {
                                sb.on_send(seq, now, true);
                                break;
                            }
                        }
                    }
                }
                // Invariants that must hold after every operation:
                // in_flight is never negative (type-level) and never exceeds
                // the number of unacked sequences.
                let unacked = (sb.cum_ack()..sb.next_seq())
                    .filter(|&s| !sb.is_acked(s))
                    .count() as u64;
                prop_assert!(sb.in_flight() <= unacked);
                prop_assert!(sb.high_sacked() <= sb.next_seq());
            }
        }

        /// The frontiers declare exactly what a sweep of the whole window
        /// on every call declares, in the same order, whatever the RTO does
        /// between calls.
        #[test]
        fn frontiers_equal_the_sweep(script in proptest::collection::vec((0u8..10, 0u64..1000), 1..400)) {
            let mut p = Pair::new();
            let mut now = SimTime::ZERO;
            let mut rto = SimDuration::from_millis(20);
            for (op, arg) in script {
                // Steps of 0 ms keep equal timestamps in play.
                now += SimDuration::from_millis(arg % 4);
                let (base, next) = (p.fast.cum_ack(), p.fast.next_seq());
                match op {
                    0..=2 => p.send(next, now, false),
                    // A SACK above the cumulative point: leaves a hole.
                    3 if next > base => p.ack(&ack(base + arg % (next - base), base, now), now),
                    // A cumulative ACK over the oldest few sequences.
                    4 if next > base => {
                        let cum = (base + 1 + arg % 3).min(next);
                        p.ack(&ack(cum - 1, cum, now), now);
                    }
                    5 | 6 => {
                        let lost = p.fast.lost_seqs();
                        if !lost.is_empty() {
                            p.send(lost[arg as usize % lost.len()], now, true);
                        }
                    }
                    // Rarely, an RTO writes the whole window off.
                    7 if arg % 8 == 0 => p.mark_all_lost(),
                    _ => {
                        rto = match arg % 3 {
                            0 => rto.mul_f64(0.6),
                            1 => rto,
                            _ => rto.mul_f64(1.5) + SimDuration::from_millis(1),
                        };
                        p.detect(now, rto);
                    }
                }
            }
        }
    }
}
