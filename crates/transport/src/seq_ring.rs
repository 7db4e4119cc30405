//! The one per-packet sequence table: an offset-indexed ring.
//!
//! Every table keyed by packet sequence number uses it — the receiver's
//! reorder buffer ([`crate::receiver::SackReceiver`]) and BBR's
//! delivery-rate sampler. (PCC's monitor intervals need none: the engine
//! credits them by send time, which the scoreboard already holds.)

use std::collections::VecDeque;

use pcc_simnet::ring;

/// A map from sequence numbers to `T`, held as a `VecDeque<Option<T>>`
/// indexed by `seq - base`.
///
/// Sequence numbers are dense and arrive almost in order (new data is
/// strictly increasing; retransmissions and reordered arrivals revisit
/// recent holes), so a slot per sequence gives O(1) insert, lookup and
/// removal where a `BTreeMap<u64, T>` pays a tree walk and a rebalance per
/// packet. Empty slots at the front are trimmed as they appear, so the
/// front slot is live whenever the ring is not empty. The ring spends one
/// slot on every sequence between its oldest and newest entries, so a
/// caller fed untrusted sequence numbers must bound that span itself.
#[derive(Clone, Debug)]
pub struct SeqRing<T> {
    /// Sequence of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Number of `Some` slots.
    live: usize,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        SeqRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> SeqRing<T> {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the ring holds no entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Store `value` at `seq`, returning the value it replaces. A `seq`
    /// below the oldest entry grows the front down to it.
    pub fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = seq;
        } else if seq < self.base {
            ring::reserve(&mut self.slots, (self.base - seq) as usize);
            for _ in seq..self.base {
                self.slots.push_front(None);
            }
            self.base = seq;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.slots.len() {
            let grow = idx + 1 - self.slots.len();
            ring::reserve(&mut self.slots, grow);
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Remove and return the entry at `seq`.
    pub fn take(&mut self, seq: u64) -> Option<T> {
        let idx = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        self.trim_front();
        Some(value)
    }

    /// Remove and return the oldest entry if its sequence is below `upper`.
    pub fn pop_below(&mut self, upper: u64) -> Option<T> {
        if self.base >= upper {
            return None;
        }
        let value = self.slots.pop_front().flatten()?;
        self.base += 1;
        self.live -= 1;
        self.trim_front();
        Some(value)
    }

    /// Drop every entry below `seq`.
    pub fn drop_below(&mut self, seq: u64) {
        while self.pop_below(seq).is_some() {}
    }

    /// Slots held, live or not: the ring's footprint.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Restore the invariant that the front slot is live.
    fn trim_front(&mut self) {
        if self.live == 0 {
            self.slots.clear();
            return;
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every live `(seq, value)` pair, in sequence order.
    fn entries(ring: &SeqRing<u32>) -> Vec<(u64, u32)> {
        (ring.base..)
            .zip(&ring.slots)
            .filter_map(|(seq, slot)| slot.map(|v| (seq, v)))
            .collect()
    }

    proptest! {
        /// Any interleaving of inserts (below the oldest entry and over a
        /// live one included), takes, pops and `drop_below` leaves the ring
        /// holding exactly what a `BTreeMap` holds, with the same length,
        /// emptiness and answers, and with a live front slot.
        #[test]
        fn ring_matches_a_btreemap(
            script in proptest::collection::vec((0u8..5, 0u64..48, 0u32..1000), 1..200),
            origin in 0u64..1_000_000,
        ) {
            let mut ring = SeqRing::new();
            let mut model = BTreeMap::new();
            for (op, off, value) in script {
                let seq = origin + off;
                match op {
                    0 | 1 => prop_assert_eq!(ring.insert(seq, value), model.insert(seq, value)),
                    2 => prop_assert_eq!(ring.take(seq), model.remove(&seq)),
                    3 => {
                        let oldest = model.first_key_value().map(|(&k, &v)| (k, v));
                        let want = oldest.filter(|&(k, _)| k < seq).map(|(k, v)| {
                            model.remove(&k);
                            v
                        });
                        prop_assert_eq!(ring.pop_below(seq), want);
                    }
                    _ => {
                        ring.drop_below(seq);
                        model = model.split_off(&seq);
                    }
                }
                let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(entries(&ring), want);
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                prop_assert!(ring.slots.front().is_none_or(Option::is_some));
            }
        }

    }
}
