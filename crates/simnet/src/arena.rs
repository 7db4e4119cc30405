//! The flow slot arena: dense [`FlowId`]s that churn recycles, and the one
//! place that knows whether a packet or timer still belongs to its flow.
//!
//! Every packet and timer is stamped with its slot's generation when it is
//! sent or armed. Retiring a tenant bumps the generation, so whatever the
//! tenant left in flight can never reach the slot's next tenant. Each slot
//! also counts its tenant's pending timers; retiring makes them dead, and
//! [`FlowArena::purge`] takes the dead out of the event queue's heap in one
//! pass.

use crate::event::{Event, EventQueue};
use crate::ids::FlowId;

struct Slot<T> {
    gen: u32,
    tenant: Option<T>,
    /// Timers the current tenant has armed that have not fired yet.
    timers: u32,
}

pub(crate) struct FlowArena<T> {
    slots: Vec<Slot<T>>,
    /// Retired slot indices awaiting reuse.
    free: Vec<u32>,
    /// Timers of retired tenants still in the event queue's heap.
    dead_timers: usize,
    /// Admissions served by the free list instead of growing the arena.
    recycled: u64,
}

impl<T> FlowArena<T> {
    /// An arena holding `tenants` as flows `0..n`.
    pub(crate) fn new(tenants: Vec<T>) -> Self {
        let slots = tenants.into_iter().map(|t| Slot {
            gen: 0,
            tenant: Some(t),
            timers: 0,
        });
        FlowArena {
            slots: slots.collect(),
            free: Vec::new(),
            dead_timers: 0,
            recycled: 0,
        }
    }

    /// Slots holding a tenant.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub(crate) fn dead_timers(&self) -> usize {
        self.dead_timers
    }

    pub(crate) fn recycled(&self) -> u64 {
        self.recycled
    }

    /// The current tenant of `flow`.
    pub(crate) fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        self.slots.get_mut(flow.index())?.tenant.as_mut()
    }

    /// The tenant of `flow` if it is the one that stamped `gen`.
    pub(crate) fn owner(&self, flow: FlowId, gen: u32) -> Option<&T> {
        let slot = self.slots.get(flow.index()).filter(|s| s.gen == gen)?;
        slot.tenant.as_ref()
    }

    pub(crate) fn owner_mut(&mut self, flow: FlowId, gen: u32) -> Option<&mut T> {
        let slot = self.slots.get_mut(flow.index()).filter(|s| s.gen == gen)?;
        slot.tenant.as_mut()
    }

    /// Every tenant, with its flow.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut T)> {
        let slots = self.slots.iter_mut().enumerate();
        slots.filter_map(|(i, s)| Some((FlowId(i as u32), s.tenant.as_mut()?)))
    }

    /// Each slot's tenant in flow order, `None` for a free slot.
    pub(crate) fn into_tenants(self) -> impl Iterator<Item = Option<T>> {
        self.slots.into_iter().map(|s| s.tenant)
    }

    /// Seat `tenant` in the most recently freed slot, else in a new one.
    pub(crate) fn admit(&mut self, tenant: T) -> FlowId {
        let Some(i) = self.free.pop() else {
            self.slots.push(Slot {
                gen: 0,
                tenant: Some(tenant),
                timers: 0,
            });
            return FlowId(self.slots.len() as u32 - 1);
        };
        self.recycled += 1;
        self.slots[i as usize].tenant = Some(tenant);
        FlowId(i)
    }

    /// Take `flow`'s tenant out and free its slot; the timers it left armed
    /// become dead.
    pub(crate) fn retire(&mut self, flow: FlowId) -> Option<T> {
        let slot = self.slots.get_mut(flow.index())?;
        let tenant = slot.tenant.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.dead_timers += std::mem::take(&mut slot.timers) as usize;
        self.free.push(flow.0);
        Some(tenant)
    }

    /// The generation to stamp on a packet `flow` sends.
    pub(crate) fn stamp(&self, flow: FlowId) -> u32 {
        self.slots[flow.index()].gen
    }

    /// Count a timer `flow` arms; the generation to stamp on it.
    pub(crate) fn arm_timer(&mut self, flow: FlowId) -> u32 {
        let slot = &mut self.slots[flow.index()];
        slot.timers += 1;
        slot.gen
    }

    /// Account a timer that came due: true if the tenant that armed it is
    /// still live, false if it is a retired tenant's, to be discarded.
    pub(crate) fn fire_timer(&mut self, flow: FlowId, gen: u32) -> bool {
        if self.owner(flow, gen).is_none() {
            self.dead_timers -= 1;
            return false;
        }
        self.slots[flow.index()].timers -= 1;
        true
    }

    /// Take every dead timer out of `events`' heap; returns how many.
    pub(crate) fn purge(&mut self, events: &mut EventQueue) -> usize {
        if self.dead_timers == 0 {
            return 0;
        }
        let purged = events.retain_heap(|event| match *event {
            Event::Timer { flow, gen, .. } => self.owner(flow, gen).is_some(),
            _ => true,
        });
        debug_assert_eq!(purged, self.dead_timers, "every dead timer is counted");
        self.dead_timers = 0;
        purged
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::ids::Side;
    use crate::time::SimTime;
    use proptest::prelude::*;

    /// The reference: each slot's generation and tenant, and the timers
    /// still in the queue as `(flow, gen)`.
    #[derive(Default)]
    struct Model {
        slots: BTreeMap<u32, (u32, Option<u64>)>,
        timers: Vec<(u32, u32)>,
        recycled: u64,
    }

    impl Model {
        fn owner(&self, flow: u32, gen: u32) -> Option<u64> {
            let &(g, tenant) = self.slots.get(&flow)?;
            tenant.filter(|_| g == gen)
        }

        /// `(flow, tenant)` of every live slot, in flow order.
        fn live(&self) -> Vec<(u32, u64)> {
            let live = self.slots.iter().filter_map(|(&f, &(_, t))| Some((f, t?)));
            live.collect()
        }

        fn dead(&self) -> usize {
            let dead = |&&(f, g): &&(u32, u32)| self.owner(f, g).is_none();
            self.timers.iter().filter(dead).count()
        }
    }

    proptest! {
        /// Under any interleaving of admissions, retirements (of live,
        /// free and unknown slots), packet stamps, timer arms, fires and
        /// purges, the arena agrees with a map from slot to generation and
        /// tenant plus the list of timers still queued.
        #[test]
        fn arena_matches_a_map_model(
            statics in 0u64..4,
            ops in proptest::collection::vec((0u32..6, 0u32..16), 1..200),
        ) {
            let mut arena = FlowArena::new((0..statics).collect());
            let mut model = Model::default();
            for t in 0..statics {
                model.slots.insert(t as u32, (0, Some(t)));
            }
            let mut events = EventQueue::new();
            let mut next_tenant = statics;
            for (op, pick) in ops {
                let live = model.live();
                let live_flow = (!live.is_empty()).then(|| live[pick as usize % live.len()].0);
                match op {
                    0 => {
                        let flow = arena.admit(next_tenant).0;
                        if live.len() == model.slots.len() {
                            prop_assert_eq!(flow as usize, model.slots.len(), "grows when full");
                        } else {
                            prop_assert!(model.slots.get(&flow).is_some_and(|s| s.1.is_none()));
                            model.recycled += 1;
                        }
                        model.slots.entry(flow).or_default().1 = Some(next_tenant);
                        next_tenant += 1;
                    }
                    1 => {
                        let flow = pick % (model.slots.len() as u32 + 1);
                        let want = model.slots.get_mut(&flow).and_then(|s| {
                            let t = s.1.take()?;
                            s.0 += 1;
                            Some(t)
                        });
                        prop_assert_eq!(arena.retire(FlowId(flow)), want);
                    }
                    2 => {
                        if let Some(flow) = live_flow {
                            prop_assert_eq!(arena.stamp(FlowId(flow)), model.slots[&flow].0);
                        }
                    }
                    3 => {
                        if let Some(flow) = live_flow {
                            let gen = arena.arm_timer(FlowId(flow));
                            prop_assert_eq!(gen, model.slots[&flow].0);
                            let timer = Event::Timer { flow: FlowId(flow), side: Side::Sender, token: 0, gen };
                            events.schedule(SimTime::from_millis(pick as u64), timer);
                            model.timers.push((flow, gen));
                        }
                    }
                    4 => {
                        if let Some((_, Event::Timer { flow, gen, .. })) = events.pop() {
                            let i = model.timers.iter().position(|&t| t == (flow.0, gen));
                            model.timers.swap_remove(i.expect("a queued timer"));
                            let live = model.owner(flow.0, gen).is_some();
                            prop_assert_eq!(arena.fire_timer(flow, gen), live);
                        }
                    }
                    _ => {
                        prop_assert_eq!(arena.purge(&mut events), model.dead());
                        let owned: Vec<_> = model.timers.iter().map(|&(f, g)| model.owner(f, g).is_some()).collect();
                        let mut owned = owned.into_iter();
                        model.timers.retain(|_| owned.next() == Some(true));
                    }
                }
                prop_assert_eq!(arena.live(), model.live().len());
                prop_assert_eq!(arena.dead_timers(), model.dead());
                prop_assert_eq!(arena.recycled(), model.recycled);
                prop_assert_eq!(events.len(), model.timers.len());
                for (&flow, &(gen, tenant)) in &model.slots {
                    prop_assert_eq!(arena.get_mut(FlowId(flow)).copied(), tenant);
                    for g in gen.saturating_sub(1)..=gen + 1 {
                        prop_assert_eq!(arena.owner(FlowId(flow), g).copied(), model.owner(flow, g));
                    }
                }
            }
            let live: Vec<_> = arena.iter_mut().map(|(f, &mut t)| (f.0, t)).collect();
            prop_assert_eq!(live, model.live());
            let tenants: Vec<_> = arena.into_tenants().collect();
            prop_assert_eq!(tenants.len(), model.slots.len());
            for (flow, tenant) in tenants.into_iter().enumerate() {
                prop_assert_eq!(tenant, model.slots[&(flow as u32)].1);
            }
        }
    }
}
