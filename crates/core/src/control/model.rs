//! A pure model of §3.2's learning controller, written from the paper's
//! text, plus one named adapter for each place `PccController` departs
//! from it. The model takes each judged MI's utility (and, for the adapters
//! that read them, its measured counters) and returns the rate of each MI
//! it issues; `control::tests` runs it in lockstep with the controller and
//! requires the two rate sequences to be bit-equal.
//!
//! §3.2, in short: *starting* doubles the rate from 2·MSS/RTT each MI and,
//! "only when the utility decreases", returns to the previous rate and
//! decides. *Decision making* runs two pairs of MIs at r(1±ε) in random
//! order; if one direction wins both, it moves to r(1±ε) and adjusts,
//! otherwise it stays at r with "ε = ε + ε_min", up to ε_max, holding r
//! while results are outstanding. *Rate adjusting* sets
//! r_n = r_{n−1}·(1 + n·ε_min·dir) until U(r_n) < U(r_{n−1}), then
//! "reverts its rate to r_{n−1}" and decides again.
//!
//! The trial order and §3.1's randomized MI length come from the flow's
//! random stream; the model draws from a copy of it in the same order (one
//! draw per MI under randomized timing, one coin per pair).

use std::collections::{BTreeMap, VecDeque};

use pcc_simnet::rng::SimRng;

use super::{MAX_RATE_BPS, MIN_RATE_BPS};
use crate::config::{MiTiming, PccConfig};
use crate::utility::MiMetrics;

/// What an issued MI was for.
#[derive(Clone, Copy, Debug)]
enum Role {
    Double,
    Trial,
    Step(u32),
    Hold,
}

/// §3.2's three states.
#[derive(Debug)]
enum State {
    /// The utility the next doubling judged must beat; misses so far.
    Starting { level: Option<f64>, misses: u32 },
    /// The round's trial directions, how many are issued, and the
    /// utilities judged so far.
    Deciding {
        eps: f64,
        plan: Vec<f64>,
        next: usize,
        utils: Vec<f64>,
    },
    /// Step `n` issued; step `judged` judged, with utility `u_prev`.
    Adjusting {
        dir: f64,
        n: u32,
        judged: u32,
        u_prev: Option<f64>,
    },
}

/// The reference model.
pub(super) struct Model {
    cfg: PccConfig,
    /// 2·MSS/RTT.
    r0: f64,
    rng: SimRng,
    /// The base rate r.
    r: f64,
    state: State,
    /// The roles of the MIs issued and not yet judged, oldest first.
    pending: VecDeque<Role>,
    /// How often each transition was taken.
    pub seen: BTreeMap<&'static str, u32>,
}

impl Model {
    /// A model of a flow whose every RTT estimate is the configured hint,
    /// drawing from a copy of the flow's random stream.
    pub fn new(cfg: PccConfig, mss: u32, rng: SimRng) -> Self {
        Model {
            r0: 2.0 * mss as f64 * 8.0 / cfg.rtt_hint.as_secs_f64(),
            r: 0.0,
            cfg,
            rng,
            state: State::Starting {
                level: None,
                misses: 0,
            },
            pending: VecDeque::new(),
            seen: BTreeMap::new(),
        }
    }

    /// The first MI, at 2·MSS/RTT.
    pub fn start(&mut self) -> f64 {
        self.r = self.clamps(self.r0);
        self.issue(self.r, Role::Double)
    }

    /// The MI on the wire ended: the rate of the next one.
    pub fn boundary(&mut self) -> f64 {
        match &mut self.state {
            State::Starting { .. } => {
                self.r = self.clamps(self.r * 2.0);
                self.issue(self.r, Role::Double)
            }
            State::Deciding {
                eps, plan, next, ..
            } => match plan.get(*next) {
                Some(&dir) => {
                    *next += 1;
                    let trial = self.r * (1.0 + dir * *eps);
                    self.issue(trial, Role::Trial)
                }
                None => self.issue(self.r, Role::Hold),
            },
            State::Adjusting { dir, n, judged, .. } => {
                if Self::bounded_optimism(*n, *judged) {
                    self.saw("bounded-optimism hold");
                    return self.issue(self.r, Role::Hold);
                }
                *n += 1;
                let (n, dir) = (*n, *dir);
                self.r = self.clamps(self.r * (1.0 + n as f64 * self.cfg.eps_min * dir));
                self.issue(self.r, Role::Step(n))
            }
        }
    }

    /// The oldest issued MI was judged at utility `u`: the rate of the MI
    /// the judgement issued at once (the §3.1 re-align), if any.
    pub fn judge(&mut self, u: f64, m: &MiMetrics) -> Option<f64> {
        let role = self.pending.pop_front()?;
        match (role, &mut self.state) {
            (Role::Double, State::Starting { level, misses }) => {
                let before = level.replace(u)?;
                if Self::improved(u, before) {
                    *misses = 0;
                    return None;
                }
                *misses += 1;
                let Some(exit) = Self::noisy_dip(*misses, u, before, m) else {
                    *level = Some(before);
                    return None;
                };
                self.saw(exit);
                let back = self.clamps(self.start_revert_halves_the_wire_rate());
                self.r = self.clamps(Self::drain_cap(back, m));
                Some(self.decide(self.cfg.eps_min))
            }
            (
                Role::Trial,
                State::Deciding {
                    eps, plan, utils, ..
                },
            ) => {
                utils.push(u);
                if utils.len() < plan.len() {
                    return None;
                }
                let eps = *eps;
                let mut winners = plan
                    .chunks(2)
                    .zip(utils.chunks(2))
                    .map(|(d, u)| Self::ties_go_to_the_later_trial(d, u));
                let dir = winners.next()?;
                if !winners.all(|w| w == dir) {
                    self.saw("inconclusive decision");
                    return Some(self.decide(eps + self.cfg.eps_min));
                }
                self.saw("concluded decision");
                self.r = self.clamps(self.r * (1.0 + dir * eps));
                self.state = State::Adjusting {
                    dir,
                    n: 0,
                    judged: 0,
                    u_prev: None,
                };
                // r_0, the decided rate, is measured first.
                Some(self.issue(self.r, Role::Step(0)))
            }
            (
                Role::Step(n),
                State::Adjusting {
                    dir,
                    judged,
                    u_prev,
                    ..
                },
            ) => {
                let dir = *dir;
                *judged = n;
                let fell = u_prev.replace(u).is_some_and(|before| u < before);
                if fell {
                    self.saw("revert: utility fell");
                } else if n > 0 && Self::queue_filling(dir, m) {
                    self.saw("revert: queue filling");
                } else {
                    return None;
                }
                self.r = self.clamps(self.revert_divides_the_issued_rate(n, dir));
                Some(self.decide(self.cfg.eps_min))
            }
            // A hold, or an MI of a state that has ended.
            _ => None,
        }
    }

    /// Adapter `on_resume` (§3 has no outage): every MI in flight is
    /// forgotten and a fresh decision round starts at r with ε_min.
    pub fn resume(&mut self) -> f64 {
        self.saw("resume");
        self.pending.clear();
        self.r = self.clamps(self.r);
        self.decide(self.cfg.eps_min)
    }

    /// Enter decision making at r with granularity `eps`, "up to ε_max";
    /// the first trial's rate.
    fn decide(&mut self, eps: f64) -> f64 {
        let eps = eps.clamp(self.cfg.eps_min, self.cfg.eps_max);
        if eps == self.cfg.eps_max {
            self.saw("round at eps_max");
        }
        let pairs = if self.cfg.rct { 2 } else { 1 };
        let plan = (0..pairs)
            .flat_map(|_| {
                if self.rng.coin() {
                    [1.0, -1.0]
                } else {
                    [-1.0, 1.0]
                }
            })
            .collect();
        self.state = State::Deciding {
            eps,
            plan,
            next: 0,
            utils: Vec::new(),
        };
        self.boundary()
    }

    /// Issue an MI at `rate`; its clamped rate.
    fn issue(&mut self, rate: f64, role: Role) -> f64 {
        if self.cfg.mi_timing == MiTiming::Randomized {
            self.rng.range_f64(1.7, 2.2);
        }
        self.pending.push_back(role);
        self.clamps(rate)
    }

    fn saw(&mut self, what: &'static str) {
        *self.seen.entry(what).or_default() += 1;
    }

    // The adapters, each named after the controller's departure from one
    // sentence of §3.2.

    /// `clamps`. §3.2 bounds no rate; the controller keeps every rate it
    /// adopts or issues within [max(2·MSS/RTT, 24 kbit/s), 10 Gbit/s].
    fn clamps(&self, rate: f64) -> f64 {
        let floor = self.r0.clamp(MIN_RATE_BPS, MAX_RATE_BPS);
        rate.clamp(floor, MAX_RATE_BPS)
    }

    /// `improved`. "Only when the utility decreases": a doubling counts as
    /// a miss unless utility rose by more than 0.1% (+1e-9).
    fn improved(u: f64, before: f64) -> bool {
        u > before + before.abs() * 1e-3 + 1e-9
    }

    /// `noisy_dip`. "Only when the utility decreases, PCC exits the
    /// starting state": a miss ends it only on a lossless plateau, a cliff
    /// (two or more losses and under 0.6 of the level to beat) or a second
    /// miss in a row; after a lone dip the next doubling is compared with
    /// the level before it.
    fn noisy_dip(misses: u32, u: f64, before: f64, m: &MiMetrics) -> Option<&'static str> {
        if m.lost == 0 {
            Some("start exit: plateau")
        } else if m.lost >= 2 && u < before * 0.6 {
            Some("start exit: cliff")
        } else {
            (misses >= 2).then_some("start exit: second miss")
        }
    }

    /// `start_revert_halves_the_wire_rate`. "Returns to the previous
    /// rate", the doubling before the one judged: the controller halves
    /// the newest doubling's rate once per doubling issued since that one
    /// (each still pending, plus the one judged). The two differ once a
    /// doubling was clamped, e.g. at the ceiling.
    fn start_revert_halves_the_wire_rate(&self) -> f64 {
        self.r / 2f64.powi(self.pending.len() as i32 + 1)
    }

    /// `drain_cap`. "Returns to the previous rate", but no higher than 0.9
    /// of the failing MI's measured delivery, so the overshoot's queue
    /// drains.
    fn drain_cap(back: f64, m: &MiMetrics) -> f64 {
        if m.throughput_bps > 0.0 {
            back.min(0.9 * m.throughput_bps)
        } else {
            back
        }
    }

    /// `ties_go_to_the_later_trial`. "If the higher rate consistently has
    /// higher utility": a pair with equal utilities is won by the direction
    /// of its later trial, not counted as a disagreement.
    fn ties_go_to_the_later_trial(dirs: &[f64], utils: &[f64]) -> f64 {
        if utils[0] > utils[1] {
            dirs[0]
        } else {
            dirs[1]
        }
    }

    /// `bounded_optimism`. "In the nth MI, r_n = r_{n−1}·(1 + n·ε_min·dir)":
    /// the controller issues no step more than three ahead of the newest
    /// judged one, and holds r instead.
    fn bounded_optimism(n: u32, judged: u32) -> bool {
        n.saturating_sub(judged) >= 3
    }

    /// `queue_filling`. "If the utility falls … PCC reverts": the
    /// controller also reverts an upward step whose delivery lags its send
    /// rate by over 5% at under 2.5% loss — it is filling a buffer.
    fn queue_filling(dir: f64, m: &MiMetrics) -> bool {
        dir > 0.0 && m.throughput_bps < 0.95 * m.send_rate_bps && m.loss_rate < 0.025
    }

    /// `revert_divides_the_issued_rate`. "PCC reverts its rate to
    /// r_{n−1}": the controller divides the rate of the newest step
    /// *issued* by step n's factor, which is r_{n−1} only when no later
    /// step was issued before step n was judged.
    fn revert_divides_the_issued_rate(&self, n: u32, dir: f64) -> f64 {
        self.r / (1.0 + n as f64 * self.cfg.eps_min * dir)
    }
}
