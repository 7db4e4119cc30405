//! The PCC learning control algorithm (§3.2): a rate-driving
//! `CongestionControl` implementation that runs
//! the Starting / Decision-Making / Rate-Adjusting state machine over
//! monitor-interval utility measurements.
//!
//! * **Starting**: begin at `2·MSS/RTT`, double the rate every MI. Unlike
//!   TCP slow start, loss does *not* end this phase — only a measured
//!   utility decrease does, at which point PCC reverts to the previous
//!   (higher-utility) rate and enters decision making.
//! * **Decision Making**: run randomized controlled trials around the
//!   current rate `r`: four consecutive MIs in two pairs, each pair testing
//!   `r(1+ε)` and `r(1−ε)` in random order (two MIs without RCT). If the
//!   same direction wins every pair, move that way; otherwise hold `r` and
//!   escalate ε by `ε_min` (up to `ε_max`) to climb out of the noise.
//! * **Rate Adjusting**: accelerate in the chosen direction,
//!   `r_n = r_{n−1}·(1 + n·ε_min·dir)`, until utility falls; then revert to
//!   `r_{n−1}` and drop back to decision making.
//!
//! Utility results arrive ≈1 RTT after each MI ends; the controller
//! processes them asynchronously and applies the §3.1 "re-align" trick —
//! concluding a decision immediately re-bases the current MI rather than
//! waiting for the next boundary.

use std::collections::{BTreeMap, VecDeque};

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx as CtrlCtx, LossEvent, SentEvent};
use pcc_transport::report::MeasurementReport;
use pcc_transport::rtt::RttEstimator;

use crate::config::{MiTiming, PccConfig};
use crate::monitor::Monitor;
use crate::utility::{MiMetrics, SafeSigmoid, UtilityFunction};

/// Why a given MI was run (controller-side bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Purpose {
    /// Starting phase, step `k` (rate = r0·2^k).
    Start { step: u32, rate: f64 },
    /// Decision trial `slot` of `round`, testing `dir` = ±1 at `rate`.
    Trial {
        round: u64,
        slot: u8,
        dir: f64,
        rate: f64,
    },
    /// Rate-adjusting step `n` at `rate`.
    Adjust { n: u32, rate: f64 },
    /// Holding at the base rate (e.g. while awaiting trial results).
    Hold,
}

/// Control phase.
#[derive(Clone, Debug, PartialEq)]
enum Phase {
    /// Doubling until utility drops.
    Starting,
    /// Issuing trial MIs (`issued` of `dirs.len()` so far).
    Trials {
        round: u64,
        eps: f64,
        dirs: Vec<f64>,
        issued: u8,
    },
    /// All trials issued; holding at base rate until results are in.
    WaitResults { round: u64, eps: f64 },
    /// Moving in `dir` with growing steps.
    Adjusting { dir: f64, n: u32 },
}

/// Snapshot of controller state for tests and introspection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PccStats {
    /// Decisions concluded (direction picked).
    pub decisions: u64,
    /// Decisions that were inconclusive (ε escalated).
    pub inconclusive: u64,
    /// Times the starting phase ended.
    pub starts_exited: u64,
    /// Rate-adjusting reversions (utility fell).
    pub adjust_reverts: u64,
    /// Monitor intervals completed.
    pub mis_completed: u64,
}

const TOKEN_KIND_BOUNDARY: u64 = 0;
const TOKEN_KIND_DEADLINE: u64 = 1;

/// The PCC controller: a rate-driving [`CongestionControl`] (plugs into
/// [`pcc_transport::CcSender`], in simulation and under the `pcc-udp`
/// driver on real sockets).
pub struct PccController {
    cfg: PccConfig,
    utility: Box<dyn UtilityFunction>,
    monitor: Monitor,
    rtt: RttEstimator,
    phase: Phase,
    /// Base rate `r` (bits/sec) that decisions perturb around.
    rate: f64,
    purposes: BTreeMap<u64, Purpose>,
    /// Starting-phase utilities by step.
    start_utils: BTreeMap<u32, f64>,
    /// Consecutive non-improving starting steps (for noise tolerance).
    start_misses: u32,
    /// Trial utilities by (round, slot).
    trial_utils: BTreeMap<(u64, u8), (f64, f64)>,
    /// Adjusting utilities by n (0 = seed from winning trials).
    adjust_utils: BTreeMap<u32, f64>,
    trial_round: u64,
    stats: PccStats,
    mss: u32,
    /// Off-path (batched-report) operation detected: the [`Monitor`] and
    /// its boundary/deadline timers are bypassed — each engine report is
    /// one MI, and `set_report_interval` plays the boundary timer's role.
    batched: bool,
    /// Batched mode: issued MIs awaiting measurement `(id, rate)`, oldest
    /// first. A report evaluates the MI from one window back (its acks
    /// arrive ≈1 RTT after that MI's sends — the §3.1 result lag).
    pending_mis: VecDeque<(u64, f64)>,
    /// Batched mode: next synthetic MI id.
    next_batched_mi: u64,
    /// Batched mode: a `begin_mi` ran while processing the current report
    /// (the re-align trick already advanced the pipeline).
    mi_begun: bool,
    /// Batched mode: previous report's average RTT (latency-gradient
    /// chaining; the monitor keeps its own for the per-ACK path).
    prev_avg_rtt: Option<SimDuration>,
}

impl PccController {
    /// PCC with the §2.2 safe utility function.
    pub fn new(cfg: PccConfig) -> Self {
        Self::with_utility(cfg, Box::new(SafeSigmoid::default()))
    }

    /// PCC with a custom utility function (§2.4 / §4.4).
    pub fn with_utility(cfg: PccConfig, utility: Box<dyn UtilityFunction>) -> Self {
        PccController {
            cfg,
            utility,
            monitor: Monitor::new(),
            rtt: RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(120)),
            phase: Phase::Starting,
            rate: 0.0,
            purposes: BTreeMap::new(),
            start_utils: BTreeMap::new(),
            start_misses: 0,
            trial_utils: BTreeMap::new(),
            adjust_utils: BTreeMap::new(),
            trial_round: 0,
            stats: PccStats::default(),
            mss: 1500,
            batched: false,
            pending_mis: VecDeque::new(),
            next_batched_mi: 0,
            mi_begun: false,
            prev_avg_rtt: None,
        }
    }

    /// Set the wire packet size the monitor accounts with (default
    /// 1500 B). Datapaths with a different MSS — e.g. the UDP prototype's
    /// `payload + 40` — must thread theirs through, or throughput, the
    /// 2·MSS/RTT starting rate, and the rate floor are all skewed.
    pub fn with_mss(mut self, mss: u32) -> Self {
        self.mss = mss.max(1);
        self
    }

    /// The wire packet size the monitor accounts with (see
    /// [`PccController::with_mss`]).
    pub fn mss(&self) -> u32 {
        self.mss
    }

    /// The configuration this controller runs with (paper defaults plus
    /// whatever a parameterized spec overrode — tests and tooling use
    /// this to verify tuning actually reached the controller).
    pub fn config(&self) -> &PccConfig {
        &self.cfg
    }

    /// Name of the utility function being optimized.
    pub fn utility_name(&self) -> &'static str {
        self.utility.name()
    }

    /// Controller statistics.
    pub fn stats(&self) -> PccStats {
        self.stats
    }

    /// Current base rate in bits/sec.
    pub fn base_rate_bps(&self) -> f64 {
        self.rate
    }

    /// Human-readable phase name.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Starting => "starting",
            Phase::Trials { .. } => "decision-trials",
            Phase::WaitResults { .. } => "decision-wait",
            Phase::Adjusting { .. } => "adjusting",
        }
    }

    fn clamp_rate(&self, rate: f64) -> f64 {
        // The dynamic floor is the §3.2 starting rate, 2·MSS/RTT. Below it
        // the "time to send 10 packets" MI rule stretches monitor intervals
        // to many seconds, freezing the control loop exactly when the flow
        // most needs to react (e.g. a joiner that got squeezed while the
        // incumbent holds the buffer full).
        let floor = (2.0 * self.mss as f64 * 8.0 / self.control_rtt().as_secs_f64().max(1e-6))
            .max(self.cfg.min_rate_bps);
        rate.clamp(floor.min(self.cfg.max_rate_bps), self.cfg.max_rate_bps)
    }

    /// "Utility improved" test with a small relative tolerance.
    ///
    /// The paper's fluid model compares with plain `<` because loss reacts
    /// instantly there. At packet level a deep buffer absorbs overdrive:
    /// `T` caps at the bottleneck rate and `L` stays 0, so utility stays
    /// *equal* while the rate accelerates into the buffer. Treating
    /// non-improvement as failure stops doubling/adjusting at the knee
    /// instead of deep inside the queue.
    fn improved(new: f64, old: f64) -> bool {
        new > old + old.abs() * 1e-3 + 1e-9
    }

    fn srtt(&self) -> SimDuration {
        self.rtt.srtt_or(self.cfg.rtt_hint)
    }

    /// The RTT that clocks the control loop. Using the *smoothed* RTT here
    /// is a trap: a self-inflicted queue inflates SRTT, which stretches the
    /// monitor intervals, which slows the control loop precisely when it
    /// must react — a positive feedback into ever-deeper excursions. Clock
    /// off the propagation estimate (min RTT), lightly padded, instead.
    fn control_rtt(&self) -> SimDuration {
        let srtt = self.srtt();
        match self.rtt.min_rtt() {
            Some(min) => srtt.min(min.mul_f64(1.5)).max(min),
            None => srtt,
        }
    }

    /// MI duration for a given pacing rate (§3.1): long enough for
    /// `mi_min_packets` packets and the configured RTT multiple.
    fn mi_duration(&self, rate_bps: f64, ctx: &mut CtrlCtx) -> SimDuration {
        let pkt_time = SimDuration::from_secs_f64(
            self.cfg.mi_min_packets as f64 * self.mss as f64 * 8.0 / rate_bps.max(1.0),
        );
        let rtt = self.control_rtt();
        let rtt_mult = match self.cfg.mi_timing {
            MiTiming::Randomized { lo, hi } => ctx.rng.range_f64(lo, hi),
            MiTiming::FixedRttMultiple(f) => f,
        };
        pkt_time.max(rtt.mul_f64(rtt_mult))
    }

    /// Deadline slack applied when an MI ends: how long to wait for its
    /// SACKs before writing unresolved packets off as lost.
    fn deadline_slack(&self) -> SimDuration {
        self.srtt()
            .mul_f64(self.cfg.deadline_rtts)
            .max(self.cfg.deadline_floor)
    }

    /// Begin a new MI at `rate` with the given purpose.
    ///
    /// On-path (per-ACK) mode opens a [`Monitor`] interval and arms its
    /// boundary and deadline timers. Batched mode has no monitor: the MI
    /// *is* the next report interval — record the purpose, request the
    /// rate, and ask the engine to deliver the next report one MI
    /// duration from now (which also implements the §3.1 re-align: a
    /// mid-interval decision re-bases the boundary).
    fn begin_mi(&mut self, rate_bps: f64, purpose: Purpose, ctx: &mut CtrlCtx) {
        let rate = self.clamp_rate(rate_bps);
        if self.batched {
            self.mi_begun = true;
            let id = self.next_batched_mi;
            self.next_batched_mi += 1;
            self.purposes.insert(id, purpose);
            self.pending_mis.push_back((id, rate));
            // A re-align abandons the interval it interrupts: keep only
            // the most recent two issues (the one measuring now and the
            // one just issued) so stale purposes can't conclude later.
            while self.pending_mis.len() > 2 {
                if let Some((old, _)) = self.pending_mis.pop_front() {
                    self.purposes.remove(&old);
                }
            }
            ctx.set_rate(rate);
            let dur = self.mi_duration(rate, ctx);
            ctx.set_report_interval(dur);
            return;
        }
        let slack = self.deadline_slack();
        let id = self.monitor.begin(ctx.now, rate, slack);
        self.purposes.insert(id, purpose);
        ctx.set_rate(rate);
        let dur = self.mi_duration(rate, ctx);
        ctx.set_timer(ctx.now + dur, (id << 2) | TOKEN_KIND_BOUNDARY);
        // Deadline poll for the MI that just ended (if any is pending).
        if let Some(dl) = self.monitor.next_deadline() {
            ctx.set_timer(dl, (id << 2) | TOKEN_KIND_DEADLINE);
        }
    }

    /// Build the randomized trial direction sequence for one decision round:
    /// one or two pairs, each `+,−` or `−,+` uniformly at random (§3.2).
    fn make_trial_dirs(&self, ctx: &mut CtrlCtx) -> Vec<f64> {
        let pairs = if self.cfg.rct { 2 } else { 1 };
        let mut dirs = Vec::with_capacity(pairs * 2);
        for _ in 0..pairs {
            if ctx.rng.coin() {
                dirs.extend_from_slice(&[1.0, -1.0]);
            } else {
                dirs.extend_from_slice(&[-1.0, 1.0]);
            }
        }
        dirs
    }

    /// Enter decision making at the current base rate.
    fn enter_decision(&mut self, eps: f64, ctx: &mut CtrlCtx) {
        self.trial_round += 1;
        let round = self.trial_round;
        // Results from abandoned rounds can never conclude; drop them.
        self.trial_utils.retain(|(r, _), _| *r >= round);
        let eps = eps.clamp(self.cfg.eps_min, self.cfg.eps_max);
        let dirs = self.make_trial_dirs(ctx);
        // Issue the first trial immediately (re-align).
        let dir0 = dirs[0];
        let rate0 = self.clamp_rate(self.rate * (1.0 + dir0 * eps));
        self.phase = Phase::Trials {
            round,
            eps,
            dirs,
            issued: 1,
        };
        self.begin_mi(
            rate0,
            Purpose::Trial {
                round,
                slot: 0,
                dir: dir0,
                rate: rate0,
            },
            ctx,
        );
    }

    /// Enter rate adjusting in direction `dir` from the just-decided rate.
    fn enter_adjusting(&mut self, dir: f64, seed_utility: f64, ctx: &mut CtrlCtx) {
        self.adjust_utils.clear();
        self.adjust_utils.insert(0, seed_utility);
        self.phase = Phase::Adjusting { dir, n: 0 };
        self.stats.decisions += 1;
        // First adjusting MI starts at the next boundary; meanwhile run at
        // the new base rate (n = 0 plays the role of r0).
        self.begin_mi(
            self.rate,
            Purpose::Adjust {
                n: 0,
                rate: self.rate,
            },
            ctx,
        );
    }

    /// An MI boundary fired for MI `mi_id` — if it's still the active MI,
    /// start the next one per the current phase.
    fn on_boundary(&mut self, mi_id: u64, ctx: &mut CtrlCtx) {
        if self.monitor.current_id() != Some(mi_id) {
            return; // stale boundary: the MI was re-aligned away
        }
        let step = match self.purposes.get(&mi_id) {
            Some(Purpose::Start { step, .. }) => *step,
            _ => 0,
        };
        self.advance_phase(step, ctx);
    }

    /// The phase machine's boundary action: the active MI ended (timer in
    /// per-ACK mode, report delivery in batched mode); issue the next MI.
    /// `start_step` is the starting-phase step of the MI that just ended.
    fn advance_phase(&mut self, start_step: u32, ctx: &mut CtrlCtx) {
        match self.phase.clone() {
            Phase::Starting => {
                let step = start_step;
                let next_rate = self.clamp_rate(self.rate * 2.0);
                self.rate = next_rate;
                self.begin_mi(
                    next_rate,
                    Purpose::Start {
                        step: step + 1,
                        rate: next_rate,
                    },
                    ctx,
                );
            }
            Phase::Trials {
                round,
                eps,
                dirs,
                issued,
            } => {
                if (issued as usize) < dirs.len() {
                    let slot = issued;
                    let dir = dirs[slot as usize];
                    let rate = self.clamp_rate(self.rate * (1.0 + dir * eps));
                    self.phase = Phase::Trials {
                        round,
                        eps,
                        dirs,
                        issued: issued + 1,
                    };
                    self.begin_mi(
                        rate,
                        Purpose::Trial {
                            round,
                            slot,
                            dir,
                            rate,
                        },
                        ctx,
                    );
                } else {
                    // All trials issued; hold at r while results arrive
                    // (§3.2: "changes the rate back to r and keeps
                    // aggregating SACKs").
                    self.phase = Phase::WaitResults { round, eps };
                    self.begin_mi(self.rate, Purpose::Hold, ctx);
                }
            }
            Phase::WaitResults { .. } => {
                self.begin_mi(self.rate, Purpose::Hold, ctx);
            }
            Phase::Adjusting { dir, n } => {
                // Bounded optimism: utility results lag ≈1 RTT behind the
                // MI they measure. Racing more than two un-evaluated steps
                // ahead turns that lag into a large overshoot (each step is
                // n·ε, so late steps are big). Hold the current rate until
                // the pipeline catches up.
                let newest_result = self.adjust_utils.keys().copied().max().unwrap_or(0);
                if n.saturating_sub(newest_result) >= 3 {
                    self.begin_mi(self.rate, Purpose::Hold, ctx);
                    return;
                }
                let next_n = n + 1;
                let next_rate =
                    self.clamp_rate(self.rate * (1.0 + next_n as f64 * self.cfg.eps_min * dir));
                self.rate = next_rate;
                self.phase = Phase::Adjusting { dir, n: next_n };
                self.begin_mi(
                    next_rate,
                    Purpose::Adjust {
                        n: next_n,
                        rate: next_rate,
                    },
                    ctx,
                );
            }
        }
    }

    /// A completed MI's utility is available.
    fn on_mi_complete(&mut self, m: &MiMetrics, ctx: &mut CtrlCtx) {
        self.stats.mis_completed += 1;
        let Some(purpose) = self.purposes.remove(&m.mi_id) else {
            return;
        };
        // Skip empty MIs for control decisions: a 0-packet MI carries no
        // information about the rate (it usually means severe app-limiting).
        let u = if m.sent == 0 {
            0.0
        } else {
            self.utility.utility(m)
        };
        match purpose {
            Purpose::Start { step, rate: _ } => {
                self.start_utils.insert(step, u);
                if !matches!(self.phase, Phase::Starting) {
                    return;
                }
                if step == 0 {
                    return;
                }
                let Some(&prev) = self.start_utils.get(&(step - 1)) else {
                    return;
                };
                if !Self::improved(u, prev) {
                    let prev_rate = match self.purposes.values().find_map(|p| match p {
                        Purpose::Start { step: s, rate } if *s == step - 1 => Some(*rate),
                        _ => None,
                    }) {
                        Some(r) => r,
                        // The previous MI's purpose is gone (already
                        // completed); its rate is half of this MI's.
                        None => self.clamp_rate(self.rate_of_start_step(step - 1)),
                    };
                    // Early MIs carry only tens of packets, so the measured
                    // loss rate is quantized and the sigmoid makes single
                    // unlucky samples look like cliffs. Exit immediately
                    // only on unambiguous evidence — a lossless delivery
                    // plateau (buffer filling: T capped, L = 0) or a deep
                    // multi-loss utility cliff; otherwise tolerate exactly
                    // one noisy dip before concluding.
                    self.start_misses += 1;
                    let plateau = m.lost == 0;
                    let cliff = m.lost >= 2 && u < prev * 0.6;
                    if plateau || cliff || self.start_misses >= 2 {
                        self.exit_starting(prev_rate, m, ctx);
                    } else {
                        // Spurious dip: keep doubling and let the next
                        // comparison use the pre-dip level.
                        self.start_utils.insert(step, prev);
                    }
                } else {
                    self.start_misses = 0;
                }
            }
            Purpose::Trial {
                round, slot, dir, ..
            } => {
                self.trial_utils.insert((round, slot), (dir, u));
                self.maybe_conclude_decision(round, ctx);
            }
            Purpose::Adjust { n, .. } => {
                if !matches!(self.phase, Phase::Adjusting { .. }) {
                    return;
                }
                self.adjust_utils.insert(n, u);
                // Only the previous step's utility is ever compared again.
                self.adjust_utils.retain(|&k, _| k + 2 > n);
                if n == 0 {
                    // n = 0 re-measures the decided rate; only replace the
                    // trial-seeded utility, no comparison yet.
                    return;
                }
                let Some(&prev) = self.adjust_utils.get(&(n - 1)) else {
                    return;
                };
                let dir = match self.phase {
                    Phase::Adjusting { dir, .. } => dir,
                    _ => unreachable!("checked above"),
                };
                // Two revert triggers. (a) Utility actually fell — the
                // paper's rule; a plain comparison, so measurement noise on
                // a lossy link doesn't kill genuine climbing momentum.
                // (b) Structural plateau: while moving *up*, delivery lags
                // the send rate with little loss — the MI is filling a
                // buffer, and utility comparisons are blind to that until
                // the buffer finally overflows (T caps, L stays 0).
                let queue_filling =
                    dir > 0.0 && m.throughput_bps < 0.95 * m.send_rate_bps && m.loss_rate < 0.025;
                if u < prev || queue_filling {
                    // Utility stopped improving at r_n: revert to r_{n−1}
                    // and decide.
                    let dir = match self.phase {
                        Phase::Adjusting { dir, .. } => dir,
                        _ => unreachable!(),
                    };
                    let r_n_minus_1 = self.rate / (1.0 + n as f64 * self.cfg.eps_min * dir);
                    // If further adjusting MIs already ran past n, self.rate
                    // is ahead; recompute r_{n−1} by unwinding from the
                    // stored purposes instead when available.
                    let target = self
                        .purposes
                        .values()
                        .find_map(|p| match p {
                            Purpose::Adjust { n: pn, rate } if *pn == n.saturating_sub(1) => {
                                Some(*rate)
                            }
                            _ => None,
                        })
                        .unwrap_or(r_n_minus_1);
                    self.rate = self.clamp_rate(target);
                    self.stats.adjust_reverts += 1;
                    self.enter_decision(self.cfg.eps_min, ctx);
                }
            }
            Purpose::Hold => {}
        }
    }

    /// Leave the starting phase: revert to `revert_rate`, additionally
    /// capped just below the failing MI's *measured* delivery rate —
    /// sending at exactly the bottleneck share would leave any queue the
    /// overshoot built standing forever (rate == drain rate), which matters
    /// for delay-based utilities under FQ (§3.2 Starting State).
    fn exit_starting(&mut self, revert_rate: f64, m: &MiMetrics, ctx: &mut CtrlCtx) {
        let drain_cap = if m.throughput_bps > 0.0 {
            0.9 * m.throughput_bps
        } else {
            revert_rate
        };
        self.rate = self.clamp_rate(revert_rate.min(drain_cap));
        self.stats.starts_exited += 1;
        self.start_utils.clear();
        self.start_misses = 0;
        self.enter_decision(self.cfg.eps_min, ctx);
    }

    /// Rate of starting step `k` assuming pure doubling from the current
    /// overshoot position (used when the step's purpose is gone).
    fn rate_of_start_step(&self, step: u32) -> f64 {
        // The active rate is r0·2^latest; walk back via stored purposes if
        // possible, else halve once (the common case: the decrease is
        // detected one step late).
        let latest = self
            .purposes
            .values()
            .filter_map(|p| match p {
                Purpose::Start { step, .. } => Some(*step),
                _ => None,
            })
            .max()
            .unwrap_or(step + 1);
        let back = latest.saturating_sub(step) as i32;
        self.rate / 2f64.powi(back)
    }

    /// If all trials of `round` have results, conclude the decision.
    fn maybe_conclude_decision(&mut self, round: u64, ctx: &mut CtrlCtx) {
        let (cur_round, eps) = match self.phase {
            Phase::Trials { round, eps, .. } => (round, eps),
            Phase::WaitResults { round, eps } => (round, eps),
            _ => return,
        };
        if round != cur_round {
            return;
        }
        let n_trials = if self.cfg.rct { 4 } else { 2 };
        let mut pair_winners = Vec::new();
        let mut utils_by_dir: [(f64, u32); 2] = [(0.0, 0); 2]; // [down, up]
        for pair in 0..n_trials / 2 {
            let a = self.trial_utils.get(&(round, pair * 2));
            let b = self.trial_utils.get(&(round, pair * 2 + 1));
            let (Some(&(dir_a, u_a)), Some(&(dir_b, u_b))) = (a, b) else {
                return; // not all results in yet
            };
            // Each pair has one +ε and one −ε MI; the winner is the
            // direction of the higher-utility MI (exact ties go to the
            // later-run trial, which is a uniformly random direction).
            let winner = if u_a > u_b { dir_a } else { dir_b };
            pair_winners.push(winner);
            for (d, u) in [(dir_a, u_a), (dir_b, u_b)] {
                let slot = if d > 0.0 { 1 } else { 0 };
                utils_by_dir[slot].0 += u;
                utils_by_dir[slot].1 += 1;
            }
        }
        self.trial_utils.retain(|(r, _), _| *r != round);
        let all_up = pair_winners.iter().all(|&w| w > 0.0);
        let all_down = pair_winners.iter().all(|&w| w < 0.0);
        if all_up || all_down {
            let dir = if all_up { 1.0 } else { -1.0 };
            let new_rate = self.clamp_rate(self.rate * (1.0 + dir * eps));
            self.rate = new_rate;
            // Seed u(r0) for the first adjusting comparison with the mean
            // utility the winning-direction trials measured at ≈ this rate.
            let (sum, n) = utils_by_dir[if dir > 0.0 { 1 } else { 0 }];
            let seed = if n > 0 { sum / n as f64 } else { 0.0 };
            self.enter_adjusting(dir, seed, ctx);
        } else {
            // Inconclusive: hold r, escalate ε, try again (§3.2).
            self.stats.inconclusive += 1;
            self.enter_decision(eps + self.cfg.eps_min, ctx);
        }
    }
}

impl CongestionControl for PccController {
    fn name(&self) -> &'static str {
        "pcc"
    }

    fn on_start(&mut self, ctx: &mut CtrlCtx) {
        // 2·MSS/RTT, like TCP's initial window (§3.2). `begin_mi` requests
        // the rate through the effects sink.
        let r0 = 2.0 * self.mss as f64 * 8.0 / self.cfg.rtt_hint.as_secs_f64();
        self.rate = self.clamp_rate(r0);
        self.phase = Phase::Starting;
        self.begin_mi(
            self.rate,
            Purpose::Start {
                step: 0,
                rate: self.rate,
            },
            ctx,
        );
    }

    fn on_sent(&mut self, ev: &SentEvent, _ctx: &mut CtrlCtx) {
        self.monitor.on_sent(ev.seq, ev.bytes);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut CtrlCtx) {
        if ack.sampled {
            // Only exact per-packet samples feed the RTT estimator and
            // the monitor's timing state; an ACK of a retransmission is
            // ambiguous about which transmission it measures. The acked
            // seq is credited (with its timing) before the cumulative
            // prefix so the sample isn't lost to untimed resolution.
            self.rtt.on_sample(ack.rtt);
            self.monitor.on_ack(ack.seq, ack.rtt, ack.recv_at);
        }
        // The cumulative ACK proves delivery even when this ACK carries
        // no usable RTT sample — a retransmission's ACK is ambiguous
        // about timing, not about delivery. Skipping it here let
        // reverse-path ACK loss masquerade as data loss whenever the
        // only surviving proof rode on a retransmission's ACK.
        self.monitor.on_cum_ack(ack.cum_ack);
        for m in self.monitor.poll(ctx.now) {
            self.on_mi_complete(&m, ctx);
        }
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut CtrlCtx) {
        for &seq in loss.seqs {
            self.monitor.on_loss(seq);
        }
        for m in self.monitor.poll(ctx.now) {
            self.on_mi_complete(&m, ctx);
        }
    }

    fn on_resume(&mut self, ctx: &mut CtrlCtx) {
        // Outage recovery: every in-flight MI measured a path that no
        // longer exists (or a blackout). Discard the measurement pipeline
        // wholesale — stale boundary/deadline timers die against the
        // fresh monitor's id space — keep the base rate as the operating
        // point, and re-probe around it with a fresh decision round
        // instead of concluding half-dark trials.
        self.monitor = Monitor::new();
        self.purposes.clear();
        self.start_utils.clear();
        self.start_misses = 0;
        self.trial_utils.clear();
        self.adjust_utils.clear();
        self.pending_mis.clear();
        self.prev_avg_rtt = None;
        self.rtt = RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(120));
        self.rate = self.clamp_rate(self.rate);
        self.enter_decision(self.cfg.eps_min, ctx);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
        if !self.batched {
            // First report: the engine runs us off-path. Abandon the
            // monitor pipeline (its timers are dead from here on) and
            // restart the MI pipeline report-clocked at the current rate
            // and phase. This report measured the unmonitored prelude, so
            // it issues the first batched MI instead of being judged.
            self.batched = true;
            self.purposes.clear();
            self.pending_mis.clear();
            self.start_utils.clear();
            self.start_misses = 0;
            let purpose = if matches!(self.phase, Phase::Starting) {
                Purpose::Start {
                    step: 0,
                    rate: self.rate,
                }
            } else {
                Purpose::Hold
            };
            let rate = self.rate;
            self.begin_mi(rate, purpose, ctx);
            self.mi_begun = false;
            return;
        }
        // The estimator normally eats every sampled ACK; feed it the
        // report's extremes instead (the min keeps the propagation
        // estimate honest, the mean drives SRTT-scaled slacks).
        if rep.rtt_samples > 0 {
            if let Some(min) = rep.rtt_min {
                self.rtt.on_sample(min);
            }
            self.rtt.on_sample(rep.mean_rtt());
        }
        self.mi_begun = false;
        // This report's ACKs measure the MI issued one window back
        // (results lag ≈1 RTT, §3.1); judge it now.
        if self.pending_mis.len() >= 2 {
            if let Some((id, rate)) = self.pending_mis.pop_front() {
                let min_rtt = (!rep.min_rtt.is_zero()).then_some(rep.min_rtt);
                let m = MiMetrics::from_report(id, rate, rep, self.prev_avg_rtt, min_rtt);
                self.prev_avg_rtt = Some(m.avg_rtt);
                self.on_mi_complete(&m, ctx);
            }
        }
        // Unless judging re-aligned the pipeline, the report boundary is
        // the MI boundary: issue the next MI per the current phase.
        if !self.mi_begun {
            let step = self
                .purposes
                .values()
                .filter_map(|p| match p {
                    Purpose::Start { step, .. } => Some(*step),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            self.advance_phase(step, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut CtrlCtx) {
        if self.batched {
            // Leftover monitor boundary/deadline timers from the per-ACK
            // prelude — meaningless once report-clocked.
            return;
        }
        let mi_id = token >> 2;
        let kind = token & 0b11;
        match kind {
            TOKEN_KIND_BOUNDARY => self.on_boundary(mi_id, ctx),
            TOKEN_KIND_DEADLINE => {
                for m in self.monitor.poll(ctx.now) {
                    self.on_mi_complete(&m, ctx);
                }
                // Keep the pending queue covered by a deadline timer.
                if let Some(dl) = self.monitor.next_deadline() {
                    ctx.set_timer(dl, (mi_id << 2) | TOKEN_KIND_DEADLINE);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::rng::SimRng;
    use pcc_simnet::time::SimTime;
    use pcc_transport::cc::{Effects as CtrlEffects, LossKind};

    /// Minimal harness: drives the controller directly with a virtual
    /// clock, collecting rate changes and timers like an engine would.
    struct Harness {
        ctrl: PccController,
        rng: SimRng,
        fx: CtrlEffects,
        now: SimTime,
        rate: f64,
        timers: Vec<(SimTime, u64)>,
        next_seq: u64,
    }

    impl Harness {
        fn new(cfg: PccConfig) -> Self {
            Harness {
                ctrl: PccController::new(cfg),
                rng: SimRng::new(7),
                fx: CtrlEffects::default(),
                now: SimTime::ZERO,
                rate: 0.0,
                timers: Vec::new(),
                next_seq: 0,
            }
        }

        fn drain(&mut self) {
            let d = self.fx.drain();
            if let Some(r) = d.rate {
                self.rate = r;
            }
            self.timers.extend(d.timers);
        }

        fn start(&mut self) {
            {
                let mut cc = CtrlCtx::new(self.now, &mut self.rng, &mut self.fx);
                self.ctrl.on_start(&mut cc);
            }
            self.drain();
        }

        /// Fire every timer due at or before `t` (in time order).
        fn advance_to(&mut self, t: SimTime) {
            loop {
                self.timers.sort_by_key(|(at, _)| *at);
                let Some(&(at, token)) = self.timers.first() else {
                    break;
                };
                if at > t {
                    break;
                }
                self.timers.remove(0);
                self.now = at;
                {
                    let mut cc = CtrlCtx::new(self.now, &mut self.rng, &mut self.fx);
                    self.ctrl.on_timer(token, &mut cc);
                }
                self.drain();
            }
            self.now = t;
        }

        /// Send `n` packets now and immediately resolve them: `acked` of
        /// them delivered with `rtt`, the rest lost.
        fn traffic(&mut self, n: u64, acked: u64, rtt_ms: u64) {
            for i in 0..n {
                let seq = self.next_seq + i;
                let ev = SentEvent {
                    now: self.now,
                    seq,
                    bytes: 1500,
                    retx: false,
                    in_flight: n,
                };
                let mut cc = CtrlCtx::new(self.now, &mut self.rng, &mut self.fx);
                self.ctrl.on_sent(&ev, &mut cc);
            }
            let rtt = SimDuration::from_millis(rtt_ms);
            for i in 0..n {
                let seq = self.next_seq + i;
                if i < acked {
                    let ack = AckEvent {
                        now: self.now,
                        seq,
                        rtt,
                        sampled: true,
                        srtt: rtt,
                        min_rtt: rtt,
                        max_rtt: rtt,
                        recv_at: self.now + SimDuration::from_micros(i * 120),
                        probe_train: None,
                        of_retx: false,
                        cum_ack: seq + 1,
                        newly_acked: 1,
                        in_flight: n - i,
                        mss: 1500,
                        in_recovery: false,
                    };
                    let mut cc = CtrlCtx::new(self.now, &mut self.rng, &mut self.fx);
                    self.ctrl.on_ack(&ack, &mut cc);
                } else {
                    let seqs = [seq];
                    let ev = LossEvent {
                        now: self.now,
                        seqs: &seqs,
                        kind: LossKind::Detected,
                        new_episode: true,
                        in_flight: n - i,
                        mss: 1500,
                    };
                    let mut cc = CtrlCtx::new(self.now, &mut self.rng, &mut self.fx);
                    self.ctrl.on_loss(&ev, &mut cc);
                }
            }
            self.next_seq += n;
            self.drain();
        }
    }

    fn cfg() -> PccConfig {
        PccConfig::paper().with_rtt_hint(SimDuration::from_millis(100))
    }

    #[test]
    fn starts_at_two_mss_per_rtt() {
        let mut h = Harness::new(cfg());
        h.start();
        // 2 × 1500 B × 8 / 100 ms = 240 kbps.
        assert!((h.rate - 240_000.0).abs() < 1.0, "rate {}", h.rate);
        assert_eq!(h.ctrl.phase_name(), "starting");
        assert!(!h.timers.is_empty(), "boundary timer armed");
    }

    #[test]
    fn starting_doubles_each_boundary() {
        let mut h = Harness::new(cfg());
        h.start();
        let r0 = h.rate;
        h.advance_to(SimTime::from_millis(600));
        assert!(h.rate >= 2.0 * r0 - 1.0, "doubled: {} -> {}", r0, h.rate);
        assert_eq!(h.ctrl.phase_name(), "starting");
    }

    #[test]
    fn clean_mis_keep_doubling_lossy_cliff_exits() {
        let mut h = Harness::new(cfg());
        h.start();
        // MI 0: clean.
        h.traffic(10, 10, 100);
        h.advance_to(SimTime::from_millis(250)); // boundary: MI 1 begins
                                                 // MI 1: clean again, doubled throughput.
        h.traffic(20, 20, 100);
        h.advance_to(SimTime::from_millis(500));
        assert_eq!(h.ctrl.phase_name(), "starting", "still climbing");
        // MI 2: heavy loss — utility cliff.
        h.traffic(40, 10, 100);
        h.advance_to(SimTime::from_secs(2));
        assert_eq!(
            h.ctrl.stats().starts_exited,
            1,
            "cliff ends the starting phase: {:?}",
            h.ctrl.stats()
        );
        assert_ne!(h.ctrl.phase_name(), "starting");
    }

    #[test]
    fn single_loss_does_not_abort_startup() {
        let mut h = Harness::new(cfg());
        h.start();
        h.traffic(10, 10, 100);
        h.advance_to(SimTime::from_millis(250));
        // One lost packet of 20: L = 5% quantum noise, not congestion.
        h.traffic(20, 19, 100);
        h.advance_to(SimTime::from_millis(500));
        h.traffic(40, 40, 100);
        h.advance_to(SimTime::from_millis(800));
        assert_eq!(
            h.ctrl.stats().starts_exited,
            0,
            "single-loss dip ignored: {:?}",
            h.ctrl.stats()
        );
    }

    #[test]
    fn unsampled_cum_ack_still_resolves_deliveries() {
        // An ACK of a retransmission carries no usable RTT sample
        // (`sampled: false`), but its cumulative ACK still proves the
        // prefix arrived. Step 1's packets are resolved *only* by such
        // an ACK and no later ACK re-covers them before the MI deadline
        // — so the pre-fix sampling guard (which returned before
        // `on_cum_ack`) wrote all 20 packets off as lost at the
        // deadline and aborted startup on a phantom loss cliff.
        let mut h = Harness::new(cfg());
        h.start();
        // Step 0: clean, sampled traffic (step 0 is never compared).
        h.traffic(10, 10, 100);
        // Into step 1 (first boundary fires at 500 ms: ten 1500 B
        // packets at the 240 kbps starting rate).
        h.advance_to(SimTime::from_millis(600));
        assert_eq!(h.ctrl.phase_name(), "starting");
        // Step 1: 20 packets, and not one per-packet SACK survives the
        // reverse path — delivery is proven solely by the cumulative
        // ACK riding on a retransmission's (unsampled) ACK.
        for i in 0..20 {
            let ev = SentEvent {
                now: h.now,
                seq: h.next_seq + i,
                bytes: 1500,
                retx: false,
                in_flight: 20,
            };
            let mut cc = CtrlCtx::new(h.now, &mut h.rng, &mut h.fx);
            h.ctrl.on_sent(&ev, &mut cc);
        }
        h.next_seq += 20;
        let rtt = SimDuration::from_millis(100);
        let ack = AckEvent {
            now: h.now,
            seq: h.next_seq - 1,
            rtt,
            sampled: false,
            srtt: rtt,
            min_rtt: rtt,
            max_rtt: rtt,
            recv_at: h.now,
            probe_train: None,
            of_retx: true,
            cum_ack: h.next_seq,
            newly_acked: 20,
            in_flight: 0,
            mss: 1500,
            in_recovery: false,
        };
        {
            let mut cc = CtrlCtx::new(h.now, &mut h.rng, &mut h.fx);
            h.ctrl.on_ack(&ack, &mut cc);
        }
        h.drain();
        // Step 1's MI ends at its 750 ms boundary. With the fix it is
        // already fully resolved by the cumulative ACK, so it publishes
        // right there (two completed MIs by 900 ms) and startup keeps
        // climbing. Pre-fix, the guard dropped the cum_ack: the MI sat
        // unresolved past 900 ms awaiting its ~1000 ms deadline, where
        // all 20 packets were written off as lost and the phantom
        // utility cliff ended the starting phase.
        h.advance_to(SimTime::from_millis(900));
        assert_eq!(
            h.ctrl.stats().mis_completed,
            2,
            "the cum-ack alone resolves the MI, no deadline wait: {:?}",
            h.ctrl.stats()
        );
        assert_eq!(
            h.ctrl.stats().starts_exited,
            0,
            "cum-ack-only resolution is delivery, not a loss cliff: {:?}",
            h.ctrl.stats()
        );
        assert_eq!(h.ctrl.phase_name(), "starting", "still climbing");
    }

    #[test]
    fn decision_trials_perturb_by_epsilon() {
        let mut h = Harness::new(cfg());
        h.start();
        // High packet volumes keep the measured delivery rate — and hence
        // the post-collapse base rate — far above the controller's rate
        // floor, so trial rates are never clamped back onto the base.
        h.traffic(100, 100, 100);
        h.advance_to(SimTime::from_millis(250));
        h.traffic(200, 200, 100);
        h.advance_to(SimTime::from_millis(500));
        h.traffic(400, 80, 100); // collapse
        h.advance_to(SimTime::from_secs(2));
        assert_eq!(h.ctrl.phase_name(), "decision-trials");
        let base = h.ctrl.base_rate_bps();
        // The active trial rate is clamp(base·(1±kε)) for some escalation
        // step k — the clamp matters because a post-collapse base can sit
        // on the controller's rate floor (2·MSS/RTT), where the −ε trial
        // legitimately collapses back onto the base.
        let floor = 2.0 * 1500.0 * 8.0 / 0.1; // 2·MSS/RTT at the 100 ms hint
        let eps_min = cfg().eps_min;
        let eps_max = cfg().eps_max;
        let mut eps = eps_min;
        let mut matched = false;
        while eps <= eps_max + 1e-12 {
            for dir in [-1.0, 1.0] {
                let expected = (base * (1.0 + dir * eps)).max(floor);
                if (h.rate - expected).abs() < 1e-6 {
                    matched = true;
                }
            }
            eps += eps_min;
        }
        assert!(
            matched,
            "trial at clamp(base·(1±kε)): rate {} base {base}",
            h.rate
        );
        // And the up-trial is genuinely above base when base is at the
        // floor, so the perturbation machinery is alive.
        assert!(base >= floor - 1e-6, "base respects the floor");
    }

    #[test]
    fn rate_stays_within_configured_bounds() {
        let mut c = cfg();
        c.max_rate_bps = 1e6;
        let mut h = Harness::new(c);
        h.start();
        // Let it double unboundedly with clean traffic: must clamp at max.
        for step in 0..12 {
            h.traffic(10, 10, 100);
            h.advance_to(SimTime::from_millis(250 * (step + 1)));
        }
        assert!(h.rate <= 1e6 + 1.0, "clamped: {}", h.rate);
    }

    /// A report window: `sent` packets over `[start_ms, end_ms)`, `acked`
    /// delivered (100 ms RTT — matching the hint, so the 2·MSS/RTT floor
    /// stays put — arrivals spanning the window) and `lost` written off.
    /// Engine snapshots stamped like `CcSender::emit_report`.
    fn mk_rep(start_ms: u64, end_ms: u64, sent: u64, acked: u64, lost: u64) -> MeasurementReport {
        let rtt = SimDuration::from_millis(100);
        MeasurementReport {
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            sent_pkts: sent,
            sent_bytes: sent * 1500,
            acked_pkts: acked,
            acked_bytes: acked * 1500,
            lost_pkts: lost,
            loss_events: u32::from(lost > 0),
            new_loss_episode: lost > 0,
            rtt_min: (acked > 0).then_some(rtt),
            rtt_max: (acked > 0).then_some(rtt),
            first_rtt: (acked > 0).then_some(rtt),
            last_rtt: (acked > 0).then_some(rtt),
            rtt_sum_ns: rtt.as_nanos() as u128 * acked as u128,
            rtt_samples: acked,
            first_recv: (acked > 0).then(|| SimTime::from_millis(start_ms + 1)),
            last_recv: (acked > 0).then(|| SimTime::from_millis(end_ms)),
            srtt: rtt,
            min_rtt: rtt,
            in_flight: 4,
            cum_ack: 0,
            mss: 1500,
            in_recovery: false,
            ..MeasurementReport::default()
        }
    }

    impl Harness {
        fn report(&mut self, rep: &MeasurementReport) {
            self.now = rep.end;
            {
                let mut cc = CtrlCtx::new(self.now, &mut self.rng, &mut self.fx);
                self.ctrl.on_report(rep, &mut cc);
            }
            self.drain();
        }
    }

    #[test]
    fn batched_reports_clock_the_mi_pipeline() {
        let mut h = Harness::new(cfg());
        h.start();
        // First report flips the controller off-path and issues the first
        // report-clocked MI: a rate and a report interval, no new timers.
        let before = h.timers.len();
        h.report(&mk_rep(0, 100, 3, 3, 0));
        let d = h.fx.drain();
        assert_eq!(h.timers.len(), before, "no monitor timers off-path");
        // Starting phase: each subsequent report boundary doubles.
        let r1 = h.rate;
        h.report(&mk_rep(100, 200, 6, 6, 0));
        assert!((h.rate - 2.0 * r1).abs() < 1.0, "doubled: {}", h.rate);
        h.report(&mk_rep(200, 300, 12, 12, 0));
        assert!((h.rate - 4.0 * r1).abs() < 1.0, "doubled again");
        assert_eq!(h.ctrl.phase_name(), "starting");
        drop(d);
        // A collapse window — three quarters lost — judged against the
        // clean previous step is an unambiguous utility cliff.
        h.report(&mk_rep(300, 400, 48, 12, 36));
        h.report(&mk_rep(400, 500, 40, 10, 30));
        assert_eq!(
            h.ctrl.stats().starts_exited,
            1,
            "cliff ends starting off-path: {:?}",
            h.ctrl.stats()
        );
        assert_eq!(h.ctrl.phase_name(), "decision-trials");
    }

    #[test]
    fn batched_reports_request_their_own_interval() {
        let mut h = Harness::new(cfg());
        h.start();
        h.fx.drain();
        {
            let mut cc = CtrlCtx::new(SimTime::from_millis(100), &mut h.rng, &mut h.fx);
            h.ctrl.on_report(&mk_rep(0, 100, 3, 3, 0), &mut cc);
        }
        let d = h.fx.drain();
        assert!(d.rate.is_some(), "rate re-asserted");
        let next = d.report_in.expect("MI duration drives the report clock");
        // ≥ the 10-packet MI floor at this rate, and bounded by the RTT
        // multiple rule — i.e. a genuine mi_duration, not a default.
        assert!(next > SimDuration::from_millis(50), "interval {next:?}");
    }

    #[test]
    fn mi_timing_fixed_multiple_is_deterministic() {
        let c = cfg().with_mi_timing(MiTiming::FixedRttMultiple(2.0));
        let mut h = Harness::new(c);
        h.start();
        // First boundary at max(10-pkt time, 2×100 ms). 10 packets at
        // 240 kbps take 0.5 s > 0.2 s, so the packet term dominates.
        let (at, _) = *h
            .timers
            .iter()
            .min_by_key(|(at, _)| *at)
            .expect("boundary armed");
        assert!((at.as_secs_f64() - 0.5).abs() < 1e-6, "Tm = {at:?}");
    }
}
