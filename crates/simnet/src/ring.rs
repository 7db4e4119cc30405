//! How a long-lived ring on the packet path grows.
//!
//! A `VecDeque` that cycles writes every slot it owns, and none of the
//! simulator's rings gives capacity back, so each keeps its largest
//! footprint to the end of the run. `VecDeque` doubles when full: a ring
//! that peaked one item past a power of two holds nearly twice its peak.
//! A fabric whose PCC senders all overshoot in their starting phase fills
//! hundreds of queues at once, and on `fabric_perm` that slack was over a
//! quarter of the drop-tail rings' slots. Every long-lived ring on the
//! packet path reserves through [`reserve`] before it grows: drop-tail
//! queues, fair-queue flow queues, the event queue's delay lanes, the
//! scoreboard's entries and retransmission log, the sender's
//! retransmission queue and `pcc_transport::SeqRing`.

use std::collections::VecDeque;

/// Below this many slots a ring doubles as `VecDeque` does, so the small,
/// short-lived rings of churn flows grow exactly as before; from here it
/// grows by a quarter.
const GROWTH_KNEE: usize = 64;

/// Make room in `ring` for `additional` more items. Below 64 slots the
/// capacity doubles (from 4, as `VecDeque`'s does for items of up to
/// 1 KiB) but not past 64; from there it grows by a quarter. A batch that
/// needs more gets exactly what it needs. A ring whose backlog peaked at
/// `p ≥ 64` items so holds at most ⌈1.25 p⌉ slots.
#[inline]
pub fn reserve<T>(ring: &mut VecDeque<T>, additional: usize) {
    if ring.len() + additional > ring.capacity() {
        grow(ring, additional);
    }
}

#[cold]
fn grow<T>(ring: &mut VecDeque<T>, additional: usize) {
    let cap = ring.capacity();
    let grown = if cap < GROWTH_KNEE {
        (2 * cap).clamp(4, GROWTH_KNEE)
    } else {
        cap + cap / 4
    };
    let need = ring.len() + additional;
    ring.reserve_exact(grown.max(need) - ring.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The most slots a ring that peaked at `peak` items may hold.
    fn bound(peak: usize) -> usize {
        if peak >= GROWTH_KNEE {
            (5 * peak).div_ceil(4)
        } else {
            (2 * peak).max(4)
        }
    }

    #[test]
    fn small_rings_double_and_large_ones_grow_by_a_quarter() {
        let mut ring = VecDeque::new();
        let mut caps = Vec::new();
        for i in 0..200u32 {
            reserve(&mut ring, 1);
            ring.push_back(i);
            if caps.last() != Some(&ring.capacity()) {
                caps.push(ring.capacity());
            }
        }
        assert_eq!(caps, [4, 8, 16, 32, 64, 80, 100, 125, 156, 195, 243]);
    }

    proptest! {
        /// Any interleaving of pushes (one at a time, or a batch after one
        /// `reserve`) and pops keeps FIFO order, and the capacity never
        /// passes the bound of the largest backlog so far.
        #[test]
        fn fifo_order_and_the_capacity_bound_hold(
            ops in proptest::collection::vec((0u8..3, 1u32..120), 1..120),
        ) {
            let mut ring = VecDeque::new();
            // The ring must hold exactly `head..next`, oldest first.
            let (mut head, mut next, mut peak) = (0u32, 0u32, 0usize);
            for (op, n) in ops {
                match op {
                    0 => {
                        for _ in 0..n {
                            reserve(&mut ring, 1);
                            ring.push_back(next);
                            next += 1;
                        }
                    }
                    1 => {
                        reserve(&mut ring, n as usize);
                        ring.extend(next..next + n);
                        next += n;
                    }
                    _ => {
                        for _ in 0..n {
                            let want = (head < next).then_some(head);
                            prop_assert_eq!(ring.pop_front(), want);
                            head += want.is_some() as u32;
                        }
                    }
                }
                peak = peak.max(ring.len());
                prop_assert!(ring.iter().copied().eq(head..next));
                prop_assert!(
                    ring.capacity() <= bound(peak),
                    "capacity {} after a peak of {}", ring.capacity(), peak
                );
            }
        }
    }
}
