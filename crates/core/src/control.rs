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
//!
//! Every MI goes through one pipeline: `begin_mi` issues it onto the
//! `issued` queue, `on_mi_complete` judges the front of that queue. Two
//! clocks close an interval — the [`Monitor`] with its boundary/deadline
//! timers on the per-ACK path, the engine's report on the batched path —
//! and both deliver results in issue order.

use std::collections::VecDeque;

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx as CtrlCtx, LossEvent, SentEvent};
use pcc_transport::report::MeasurementReport;
use pcc_transport::rtt::RttEstimator;

use crate::config::{MiTiming, PccConfig};
use crate::monitor::Monitor;
use crate::utility::{MiMetrics, SafeSigmoid, UtilityFunction};

/// Floor on the controlled sending rate: two 1500 B packets per second.
const MIN_RATE_BPS: f64 = 24_000.0;
/// Ceiling on the controlled sending rate.
const MAX_RATE_BPS: f64 = 10e9;
/// Minimum absolute MI-resolution deadline slack.
const DEADLINE_FLOOR: SimDuration = SimDuration::from_millis(2);

/// Why a given MI was run.
#[derive(Clone, Copy, Debug)]
enum Purpose {
    /// Starting phase, step `k` (rate = r0·2^k).
    Start { step: u32 },
    /// Decision trial `slot` of `round`.
    Trial { round: u64, slot: usize },
    /// Rate-adjusting step `n`.
    Adjust { n: u32 },
    /// Holding at the base rate (e.g. while awaiting trial results).
    Hold,
}

/// A monitor interval that was issued and has not been judged yet.
#[derive(Clone, Copy, Debug)]
struct Issued {
    id: u64,
    /// The pacing rate it ran at (what a report-clocked result is
    /// measured against; the monitor keeps its own copy).
    rate: f64,
    purpose: Purpose,
}

/// Control phase: §3.2's three states, each holding the results it
/// compares.
#[derive(Debug)]
enum Phase {
    /// Doubling until utility drops.
    Starting {
        /// The newest judged step and the utility the next one must beat.
        prev: Option<(u32, f64)>,
        /// Consecutive non-improving steps (for noise tolerance).
        misses: u32,
    },
    /// Issuing trial MIs (`issued` of `dirs.len()` so far), then holding at
    /// the base rate until every slot's result is in.
    Deciding {
        round: u64,
        eps: f64,
        /// The direction (±1) each trial slot tests.
        dirs: Vec<f64>,
        issued: usize,
        /// The utility each trial slot measured.
        results: Vec<Option<f64>>,
    },
    /// Moving in `dir` with growing steps, `n` issued so far.
    Adjusting {
        dir: f64,
        n: u32,
        /// The newest judged step and its utility (step 0 is seeded from
        /// the winning trials).
        last: (u32, f64),
    },
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
    /// MIs issued and not yet judged, oldest first; the back is the one on
    /// the wire. Both clocks complete intervals in issue order
    /// ([`Monitor::poll`] publishes its head, a report judges the front),
    /// so a result always belongs to the front. Report-clocked, the queue
    /// is two deep: a report's ACKs measure the MI issued one window back
    /// (its acks arrive ≈1 RTT after that MI's sends — the §3.1 result
    /// lag).
    issued: VecDeque<Issued>,
    /// Next MI id. Never reset, so a timer token armed for one interval
    /// cannot name an interval issued after a resume or a clock switch.
    next_mi: u64,
    trial_round: u64,
    stats: PccStats,
    mss: u32,
    /// Off-path (batched-report) operation detected: each engine report is
    /// one MI, and `set_report_interval` plays the boundary timer's role.
    batched: bool,
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
            phase: Phase::Starting {
                prev: None,
                misses: 0,
            },
            rate: 0.0,
            issued: VecDeque::new(),
            next_mi: 0,
            trial_round: 0,
            stats: PccStats::default(),
            mss: 1500,
            batched: false,
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
            Phase::Starting { .. } => "starting",
            Phase::Deciding { .. } => "deciding",
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
            .max(MIN_RATE_BPS);
        rate.clamp(floor.min(MAX_RATE_BPS), MAX_RATE_BPS)
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
            MiTiming::Randomized => ctx.rng.range_f64(1.7, 2.2),
            MiTiming::FixedRttMultiple(f) => f,
        };
        pkt_time.max(rtt.mul_f64(rtt_mult))
    }

    /// Deadline slack applied when an MI ends: how long to wait for its
    /// SACKs before writing unresolved packets off as lost.
    fn deadline_slack(&self) -> SimDuration {
        self.srtt()
            .mul_f64(self.cfg.deadline_rtts)
            .max(DEADLINE_FLOOR)
    }

    /// Issue a new MI at `rate` with the given purpose, and arm the clock
    /// that will end it.
    ///
    /// On-path (per-ACK) mode opens a [`Monitor`] interval and arms its
    /// boundary and deadline timers. Batched mode has no monitor: the MI
    /// *is* the next report interval — ask the engine to deliver the next
    /// report one MI duration from now (which also implements the §3.1
    /// re-align: a mid-interval decision re-bases the boundary).
    fn begin_mi(&mut self, rate_bps: f64, purpose: Purpose, ctx: &mut CtrlCtx) {
        let rate = self.clamp_rate(rate_bps);
        let id = self.next_mi;
        self.next_mi += 1;
        self.issued.push_back(Issued { id, rate, purpose });
        ctx.set_rate(rate);
        let dur = self.mi_duration(rate, ctx);
        if self.batched {
            ctx.set_report_interval(dur);
            return;
        }
        let slack = self.deadline_slack();
        self.monitor.begin(id, ctx.now, rate, slack);
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
        let dirs = self.make_trial_dirs(ctx);
        self.phase = Phase::Deciding {
            round: self.trial_round,
            eps: eps.clamp(self.cfg.eps_min, self.cfg.eps_max),
            results: vec![None; dirs.len()],
            dirs,
            issued: 0,
        };
        // Issue the first trial immediately (re-align).
        self.advance_phase(ctx);
    }

    /// Enter rate adjusting in direction `dir` from the just-decided rate.
    fn enter_adjusting(&mut self, dir: f64, seed_utility: f64, ctx: &mut CtrlCtx) {
        self.phase = Phase::Adjusting {
            dir,
            n: 0,
            last: (0, seed_utility),
        };
        self.stats.decisions += 1;
        // First adjusting MI starts at the next boundary; meanwhile run at
        // the new base rate (n = 0 plays the role of r0).
        self.begin_mi(self.rate, Purpose::Adjust { n: 0 }, ctx);
    }

    /// Starting-phase step of the MI on the wire.
    fn wire_start_step(&self) -> Option<u32> {
        match self.issued.back()?.purpose {
            Purpose::Start { step } => Some(step),
            _ => None,
        }
    }

    /// The phase machine's boundary action: the MI on the wire ended (timer
    /// in per-ACK mode, report delivery in batched mode); issue the next
    /// one.
    fn advance_phase(&mut self, ctx: &mut CtrlCtx) {
        let (rate, purpose) = match &mut self.phase {
            Phase::Starting { .. } => {
                let step = self.wire_start_step().unwrap_or(0) + 1;
                self.rate = self.clamp_rate(self.rate * 2.0);
                (self.rate, Purpose::Start { step })
            }
            Phase::Deciding {
                round,
                eps,
                dirs,
                issued,
                ..
            } => match dirs.get(*issued) {
                Some(&dir) => {
                    let purpose = Purpose::Trial {
                        round: *round,
                        slot: *issued,
                    };
                    *issued += 1;
                    (self.rate * (1.0 + dir * *eps), purpose)
                }
                // All trials issued; hold at r while results arrive
                // (§3.2: "changes the rate back to r and keeps
                // aggregating SACKs").
                None => (self.rate, Purpose::Hold),
            },
            Phase::Adjusting { dir, n, last } => {
                // Bounded optimism: utility results lag ≈1 RTT behind the
                // MI they measure. Racing more than two un-evaluated steps
                // ahead turns that lag into a large overshoot (each step is
                // n·ε, so late steps are big). Hold the current rate until
                // the pipeline catches up.
                if n.saturating_sub(last.0) >= 3 {
                    (self.rate, Purpose::Hold)
                } else {
                    *n += 1;
                    let (dir, n) = (*dir, *n);
                    self.rate =
                        self.clamp_rate(self.rate * (1.0 + n as f64 * self.cfg.eps_min * dir));
                    (self.rate, Purpose::Adjust { n })
                }
            }
        };
        self.begin_mi(rate, purpose, ctx);
    }

    /// A completed MI's utility is available.
    fn on_mi_complete(&mut self, m: &MiMetrics, ctx: &mut CtrlCtx) {
        self.stats.mis_completed += 1;
        debug_assert!(
            self.issued.front().is_none_or(|mi| m.mi_id <= mi.id),
            "MI {} completed ahead of the front of {:?}",
            m.mi_id,
            self.issued
        );
        let Some(Issued { purpose, .. }) = self.issued.pop_front_if(|mi| mi.id == m.mi_id) else {
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
            Purpose::Start { step } => {
                let Phase::Starting { prev, misses } = &mut self.phase else {
                    return;
                };
                // Step 0 has nothing to be compared with.
                let Some((_, before)) = prev.replace((step, u)).filter(|&(s, _)| s + 1 == step)
                else {
                    return;
                };
                if Self::improved(u, before) {
                    *misses = 0;
                    return;
                }
                // Early MIs carry only tens of packets, so the measured
                // loss rate is quantized and the sigmoid makes single
                // unlucky samples look like cliffs. Exit immediately
                // only on unambiguous evidence — a lossless delivery
                // plateau (buffer filling: T capped, L = 0) or a deep
                // multi-loss utility cliff; otherwise tolerate exactly
                // one noisy dip before concluding.
                *misses += 1;
                let plateau = m.lost == 0;
                let cliff = m.lost >= 2 && u < before * 0.6;
                if plateau || cliff || *misses >= 2 {
                    let revert = self.clamp_rate(self.rate_of_start_step(step - 1));
                    self.exit_starting(revert, m, ctx);
                } else {
                    // Spurious dip: keep doubling and let the next
                    // comparison use the pre-dip level.
                    *prev = Some((step, before));
                }
            }
            Purpose::Trial { round, slot } => {
                let Phase::Deciding {
                    round: current,
                    results,
                    ..
                } = &mut self.phase
                else {
                    return;
                };
                // A trial of an abandoned round can never conclude.
                if *current == round {
                    results[slot] = Some(u);
                    self.maybe_conclude_decision(ctx);
                }
            }
            Purpose::Adjust { n } => {
                let Phase::Adjusting { dir, last, .. } = &mut self.phase else {
                    return;
                };
                let dir = *dir;
                // Only the previous step's utility is ever compared again.
                let (judged, prev) = std::mem::replace(last, (n, u));
                // n = 0 re-measures the decided rate; it only replaces the
                // trial-seeded utility, no comparison yet.
                if n == 0 || judged + 1 != n {
                    return;
                }
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
                    // Utility stopped improving at r_n: fall back and
                    // decide. `self.rate` is the rate of the newest step
                    // *issued*, r_m with m ≥ n (results lag, so the phase
                    // is usually one step ahead of the step judged), and
                    // this divides it by step n's factor alone: r_{n−1}
                    // when m = n, but r_{n−1}·(1 + (n+1)·ε·dir) when
                    // m = n + 1 — not §3.2's r_{n−1}. ROADMAP tracks the
                    // fix and what it re-pins.
                    self.rate =
                        self.clamp_rate(self.rate / (1.0 + n as f64 * self.cfg.eps_min * dir));
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
        self.enter_decision(self.cfg.eps_min, ctx);
    }

    /// Rate of starting step `step`, assuming pure doubling up to the
    /// current overshoot position: the base rate is that of the step on
    /// the wire, so halve once per step back (twice in the common case —
    /// the decrease is detected one step late).
    fn rate_of_start_step(&self, step: u32) -> f64 {
        let latest = self.wire_start_step().unwrap_or(step + 1);
        self.rate / 2f64.powi(latest.saturating_sub(step) as i32)
    }

    /// If all trials of the round have results, conclude the decision.
    fn maybe_conclude_decision(&mut self, ctx: &mut CtrlCtx) {
        let Phase::Deciding {
            eps, dirs, results, ..
        } = &self.phase
        else {
            return;
        };
        let (eps, pairs) = (*eps, dirs.len() / 2);
        let (mut all_up, mut all_down) = (true, true);
        let mut utility_sum = [0.0; 2]; // over the trials that went [down, up]
        for (dirs, results) in dirs.chunks(2).zip(results.chunks(2)) {
            let (Some(u_a), Some(u_b)) = (results[0], results[1]) else {
                return; // not all results in yet
            };
            // Each pair has one +ε and one −ε MI; the winner is the
            // direction of the higher-utility MI (exact ties go to the
            // later-run trial, which is a uniformly random direction).
            let winner = if u_a > u_b { dirs[0] } else { dirs[1] };
            all_up &= winner > 0.0;
            all_down &= winner < 0.0;
            for (d, u) in [(dirs[0], u_a), (dirs[1], u_b)] {
                utility_sum[usize::from(d > 0.0)] += u;
            }
        }
        if all_up || all_down {
            let dir = if all_up { 1.0 } else { -1.0 };
            self.rate = self.clamp_rate(self.rate * (1.0 + dir * eps));
            // Seed u(r0) for the first adjusting comparison with the mean
            // utility the winning-direction trials measured at ≈ this rate.
            let seed = utility_sum[usize::from(all_up)] / pairs as f64;
            self.enter_adjusting(dir, seed, ctx);
        } else {
            // Inconclusive: hold r, escalate ε, try again (§3.2).
            self.stats.inconclusive += 1;
            self.enter_decision(eps + self.cfg.eps_min, ctx);
        }
    }

    /// Drain the monitor's finished intervals into the phase machine.
    fn poll_monitor(&mut self, ctx: &mut CtrlCtx) {
        for m in self.monitor.poll(ctx.now) {
            self.on_mi_complete(&m, ctx);
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
        self.begin_mi(self.rate, Purpose::Start { step: 0 }, ctx);
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
        self.poll_monitor(ctx);
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut CtrlCtx) {
        for &seq in loss.seqs {
            self.monitor.on_loss(seq);
        }
        self.poll_monitor(ctx);
    }

    fn on_resume(&mut self, ctx: &mut CtrlCtx) {
        // Outage recovery: every in-flight MI measured a path that no
        // longer exists (or a blackout). Discard the measurement pipeline
        // wholesale — stale boundary/deadline timers die against ids the
        // queue no longer holds — keep the base rate as the operating
        // point, and re-probe around it with a fresh decision round
        // instead of concluding half-dark trials.
        self.monitor = Monitor::new();
        self.issued.clear();
        self.prev_avg_rtt = None;
        self.rtt = RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(120));
        self.rate = self.clamp_rate(self.rate);
        self.enter_decision(self.cfg.eps_min, ctx);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
        if !self.batched {
            // First report: the engine runs us off-path. Abandon the
            // monitor pipeline (its timers are dead from here on: their
            // ids are gone from the queue) and restart the MI pipeline
            // report-clocked at the current rate and phase. This report
            // measured the unmonitored prelude, so it issues the first
            // batched MI instead of being judged.
            self.batched = true;
            self.monitor = Monitor::new();
            self.issued.clear();
            let purpose = match &mut self.phase {
                Phase::Starting { prev, misses } => {
                    (*prev, *misses) = (None, 0);
                    Purpose::Start { step: 0 }
                }
                _ => Purpose::Hold,
            };
            self.begin_mi(self.rate, purpose, ctx);
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
        let issued_before = self.next_mi;
        // This report's ACKs measure the MI issued one window back
        // (results lag ≈1 RTT, §3.1); judge it now.
        if self.issued.len() >= 2 {
            let Issued { id, rate, .. } = self.issued[0];
            let min_rtt = (!rep.min_rtt.is_zero()).then_some(rep.min_rtt);
            let m = MiMetrics::from_report(id, rate, rep, self.prev_avg_rtt, min_rtt);
            self.prev_avg_rtt = Some(m.avg_rtt);
            self.on_mi_complete(&m, ctx);
        }
        // Unless judging re-aligned the pipeline (concluding a decision
        // issues its first MI on the spot), the report boundary is the MI
        // boundary: issue the next MI per the current phase.
        if self.next_mi == issued_before {
            self.advance_phase(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut CtrlCtx) {
        let mi_id = token >> 2;
        match token & 0b11 {
            // A boundary counts only for the MI on the wire: one that was
            // re-aligned away — or armed before a resume or the switch to
            // report clocking — is stale.
            TOKEN_KIND_BOUNDARY if self.issued.back().is_some_and(|mi| mi.id == mi_id) => {
                self.advance_phase(ctx);
            }
            TOKEN_KIND_DEADLINE => {
                self.poll_monitor(ctx);
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

        /// One controller callback at the current time, its effects
        /// collected like an engine would.
        fn call(&mut self, f: impl FnOnce(&mut PccController, &mut CtrlCtx)) {
            f(
                &mut self.ctrl,
                &mut CtrlCtx::new(self.now, &mut self.rng, &mut self.fx),
            );
            let d = self.fx.drain();
            if let Some(r) = d.rate {
                self.rate = r;
            }
            self.timers.extend(d.timers);
        }

        fn start(&mut self) {
            self.call(|c, cc| c.on_start(cc));
        }

        fn fire(&mut self, token: u64) {
            self.call(|c, cc| c.on_timer(token, cc));
        }

        fn sent(&mut self, seq: u64) {
            let ev = SentEvent {
                now: self.now,
                seq,
                bytes: 1500,
                retx: false,
                in_flight: 1,
            };
            self.call(|c, cc| c.on_sent(&ev, cc));
        }

        /// An ACK of `seq` arriving now. `sampled: false` is the ACK of a
        /// retransmission: no usable RTT, but its cumulative ACK counts.
        fn ack(&mut self, seq: u64, rtt: SimDuration, sampled: bool, recv_at: SimTime) {
            let ack = AckEvent {
                now: self.now,
                seq,
                rtt,
                sampled,
                srtt: rtt,
                min_rtt: rtt,
                max_rtt: rtt,
                recv_at,
                probe_train: None,
                of_retx: !sampled,
                cum_ack: seq + 1,
                newly_acked: 1,
                in_flight: 1,
                mss: 1500,
                in_recovery: false,
            };
            self.call(|c, cc| c.on_ack(&ack, cc));
        }

        fn loss(&mut self, seq: u64) {
            let ev = LossEvent {
                now: self.now,
                seqs: &[seq],
                kind: LossKind::Detected,
                new_episode: true,
                in_flight: 1,
                mss: 1500,
            };
            self.call(|c, cc| c.on_loss(&ev, cc));
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
                self.fire(token);
            }
            self.now = t;
        }

        /// Send `n` packets now and immediately resolve them: `acked` of
        /// them delivered with `rtt`, the rest lost.
        fn traffic(&mut self, n: u64, acked: u64, rtt_ms: u64) {
            let seqs = self.next_seq..self.next_seq + n;
            self.next_seq += n;
            seqs.clone().for_each(|seq| self.sent(seq));
            let rtt = SimDuration::from_millis(rtt_ms);
            for (i, seq) in seqs.enumerate() {
                if (i as u64) < acked {
                    let recv_at = self.now + SimDuration::from_micros(i as u64 * 120);
                    self.ack(seq, rtt, true, recv_at);
                } else {
                    self.loss(seq);
                }
            }
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
        let step1 = h.next_seq..h.next_seq + 20;
        h.next_seq += 20;
        step1.clone().for_each(|seq| h.sent(seq));
        h.ack(step1.end - 1, SimDuration::from_millis(100), false, h.now);
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
        assert_eq!(h.ctrl.phase_name(), "deciding");
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
    fn rate_stays_within_the_bounds() {
        let mut h = Harness::new(cfg());
        h.start();
        // One doubling from just under the ceiling clamps at it (the first
        // boundary fires at 500 ms).
        h.ctrl.rate = 0.75 * MAX_RATE_BPS;
        h.advance_to(SimTime::from_millis(600));
        assert_eq!(h.rate, MAX_RATE_BPS);
        assert_eq!(h.ctrl.base_rate_bps(), MAX_RATE_BPS);
        // The floor is 2·MSS/RTT — 240 kbit/s at the 100 ms hint —
        let floor = h.ctrl.clamp_rate(0.0);
        assert!((floor - 240_000.0).abs() < 1.0, "floor {floor}");
        // and never under the absolute minimum, however long the RTT.
        let slow = PccConfig::paper().with_rtt_hint(SimDuration::from_secs(2));
        assert_eq!(Harness::new(slow).ctrl.clamp_rate(0.0), MIN_RATE_BPS);
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
            self.call(|c, cc| c.on_report(rep, cc));
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
        assert_eq!(h.ctrl.phase_name(), "deciding");
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

    #[test]
    fn a_boundary_armed_before_a_resume_is_stale_after_it() {
        let mut h = Harness::new(cfg());
        h.start();
        let (at, boundary) = h.timers.remove(0);
        assert_eq!(boundary & 0b11, TOKEN_KIND_BOUNDARY);
        assert!(h.timers.is_empty(), "the first MI arms its boundary only");
        h.now = SimTime::from_millis(10);
        h.call(|c, cc| c.on_resume(cc));
        let (rate, armed) = (h.rate, h.timers.len());
        // MI ids do not restart with the measurement pipeline, so the old
        // token names no live interval: firing it must not issue the
        // round's second trial early.
        h.now = at;
        h.fire(boundary);
        assert_eq!((h.rate, h.timers.len()), (rate, armed), "no effect");
        assert_eq!(h.ctrl.issued.len(), 1, "still on the first trial");
    }

    proptest::proptest! {
        /// The invariant the `issued` queue rests on: however sends, sampled
        /// ACKs, cumulative-only ACKs, losses, live and stale timers, resumes
        /// and reports interleave, every interval handed to `on_mi_complete`
        /// is the front of the queue — each completion pops exactly the
        /// front, nothing completes ahead of it, and nothing that was
        /// dropped (a resume, the switch to report clocking) completes later.
        #[test]
        fn intervals_complete_in_issue_order(
            script in proptest::collection::vec((0u8..16, 0u8..=255), 1..400),
            first_report in 0usize..800,
        ) {
            use proptest::prop_assert;
            let mut h = Harness::new(cfg());
            h.start();
            let mut outstanding = VecDeque::new();
            let mut fired: Vec<u64> = Vec::new();
            let rtt = SimDuration::from_millis(100);
            for (i, (op, mag)) in script.into_iter().enumerate() {
                h.now += SimDuration::from_micros(mag as u64 * 500);
                let ids = |h: &Harness| h.ctrl.issued.iter().map(|mi| mi.id).collect::<Vec<_>>();
                let (before, next_mi) = (ids(&h), h.ctrl.next_mi);
                let completed = h.ctrl.stats.mis_completed;
                let mut restarted = false;
                // Off-path the engine delivers reports and timers only.
                match if h.ctrl.batched && op < 8 { 13 } else { op } {
                    0..=3 => {
                        outstanding.push_back(h.next_seq);
                        h.sent(h.next_seq);
                        h.next_seq += 1;
                    }
                    4..=7 => match (op, outstanding.pop_front()) {
                        (4 | 5, Some(seq)) => h.ack(seq, rtt, true, h.now),
                        (6, Some(seq)) => h.ack(seq, rtt, false, h.now),
                        (_, Some(seq)) => h.loss(seq),
                        (_, None) => {}
                    },
                    // A token that already fired, delivered again.
                    11 if !fired.is_empty() => h.fire(fired[mag as usize % fired.len()]),
                    12 if mag < 32 => {
                        restarted = true;
                        h.call(|c, cc| c.on_resume(cc));
                    }
                    13 if i >= first_report => {
                        restarted = !h.ctrl.batched;
                        let start_ms = h.now.as_nanos() / 1_000_000;
                        let lost = u64::from(mag) % 4 * 10;
                        h.report(&mk_rep(start_ms, start_ms + 1 + mag as u64, 40, 40 - lost, lost));
                    }
                    // The earliest pending timer, boundary or deadline.
                    8..=10 | 12 | 13 => {
                        h.timers.sort_by_key(|(at, _)| *at);
                        if !h.timers.is_empty() {
                            let (at, token) = h.timers.remove(0);
                            h.now = h.now.max(at);
                            h.fire(token);
                            fired.push(token);
                        }
                    }
                    _ => {}
                }
                let after = ids(&h);
                prop_assert!(after.windows(2).all(|w| w[0] < w[1]), "ids ascend: {after:?}");
                prop_assert!(after.iter().all(|&id| id < h.ctrl.next_mi));
                prop_assert!(!after.is_empty(), "some MI is always on the wire");
                if h.ctrl.batched {
                    prop_assert!(after.len() <= 2, "report-clocked: two deep, {after:?}");
                }
                if restarted {
                    prop_assert!(after.iter().all(|&id| id >= next_mi), "{after:?}");
                    continue;
                }
                let popped = (h.ctrl.stats.mis_completed - completed) as usize;
                prop_assert!(popped <= before.len(), "{popped} completions, queue {before:?}");
                let kept = &before[popped..];
                prop_assert!(
                    after.starts_with(kept) && after[kept.len()..].iter().all(|&id| id >= next_mi),
                    "{popped} completions took {before:?} to {after:?}"
                );
            }
        }
    }
}
