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
//!   `r_n = r_{n−1}·(1 + n·ε_min·dir)`, until utility falls; then revert
//!   and drop back to decision making.
//!
//! Utility results arrive ≈1 RTT after each MI ends; the controller
//! processes them asynchronously and applies the §3.1 "re-align" trick —
//! concluding a decision immediately re-bases the current MI rather than
//! waiting for the next boundary.
//!
//! Every MI goes through one pipeline: `begin_mi` issues it onto the
//! `issued` queue and opens a send epoch in the engine
//! ([`ReportMode::Epochs`]); the engine credits each packet's fate to the
//! epoch that sent it and hands the epochs' reports over in order, with
//! the ACK, loss or deadline that resolved them, so each report judges
//! the front of that queue. The controller decides when an MI
//! ends (its boundary timer); the engine decides when its packets are
//! resolved.
//!
//! A pure model of the text (`control/model.rs`, test-only) issues the
//! same rate sequence bit for bit, and names each place this code departs
//! from §3.2 as an adapter:
//! `clamps` (every rate within [max(2·MSS/RTT, 24 kbit/s), 10 Gbit/s]),
//! `improved` (starting needs a 0.1% gain, not just no decrease),
//! `noisy_dip` (starting exits on a plateau, a cliff or a second miss),
//! `start_revert_halves_the_wire_rate` (not the previous step's stored
//! rate, which it differs from once a doubling hit the ceiling),
//! `drain_cap` (the starting revert stays under 0.9× the measured
//! delivery), `ties_go_to_the_later_trial`, `bounded_optimism` (adjusting
//! holds three unjudged steps ahead), `queue_filling` (a second revert
//! trigger), `revert_divides_the_issued_rate` (not §3.2's r_{n−1}) and
//! `on_resume`.

use std::collections::VecDeque;

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{
    AckEvent, CongestionControl, Ctx as CtrlCtx, LossEvent, ReportMode, EPOCH_DEADLINE,
};
use pcc_transport::rtt::RttEstimator;

use crate::config::{MiTiming, PccConfig};
use crate::utility::{MiMetrics, SafeSigmoid, UtilityFunction};

/// Minimum packets per MI (paper §3.1: the time to send 10 data packets).
const MI_MIN_PACKETS: f64 = 10.0;
/// Extra wait after an MI ends before unresolved packets are written off
/// as lost, in SRTT multiples (never below [`DEADLINE_FLOOR`]).
const DEADLINE_RTTS: f64 = 2.5;
/// Floor on the controlled sending rate: two 1500 B packets per second.
const MIN_RATE_BPS: f64 = 24_000.0;
/// Ceiling on the controlled sending rate.
const MAX_RATE_BPS: f64 = 10e9;
/// Minimum absolute MI-resolution deadline slack.
const DEADLINE_FLOOR: SimDuration = SimDuration::from_millis(2);

/// Why a given MI was run.
#[derive(Clone, Copy, Debug)]
enum Purpose {
    /// A starting-phase doubling.
    Start,
    /// A decision trial.
    Trial,
    /// Rate-adjusting step `n`.
    Adjust { n: u32 },
    /// Holding at the base rate (e.g. while awaiting trial results).
    Hold,
}

/// A monitor interval that was issued and has not been judged yet.
#[derive(Clone, Copy, Debug)]
struct Issued {
    id: u64,
    /// The pacing rate it ran at (what its report is measured against).
    rate: f64,
    purpose: Purpose,
}

/// Control phase: §3.2's three states, each holding the results it
/// compares. `issued` is FIFO and every phase change either follows the
/// judging of the old phase's last result or clears the queue, so an
/// interval judged in the phase that issued it is always the next one of
/// that phase; one issued by an ended phase is stale.
#[derive(Debug)]
enum Phase {
    /// Doubling until utility drops.
    Starting {
        /// The utility the next judged step must beat.
        prev: Option<f64>,
        /// Consecutive non-improving steps (for noise tolerance).
        misses: u32,
    },
    /// Issuing trial MIs (`issued` of `dirs.len()` so far), then holding at
    /// the base rate until every trial's result is in.
    Deciding {
        eps: f64,
        /// The direction (±1) each trial tests.
        dirs: Vec<f64>,
        issued: usize,
        /// The utility of each judged trial, in issue order.
        results: Vec<f64>,
    },
    /// Moving in `dir` with growing steps, `n` issued so far.
    Adjusting {
        dir: f64,
        n: u32,
        /// The newest judged step.
        judged: u32,
        /// Its utility; `None` until step 0, which re-measures the
        /// decided rate, is judged.
        last: Option<f64>,
    },
}

/// The PCC controller: a rate-driving [`CongestionControl`] (plugs into
/// [`pcc_transport::CcSender`], in simulation and under the `pcc-udp`
/// driver on real sockets).
pub struct PccController {
    cfg: PccConfig,
    utility: Box<dyn UtilityFunction>,
    rtt: RttEstimator,
    phase: Phase,
    /// Base rate `r` (bits/sec) that decisions perturb around.
    rate: f64,
    /// MIs issued and not yet judged, oldest first; the back is the one on
    /// the wire. Each has one send epoch, and the engine reports epochs in
    /// order, so a report always belongs to the front.
    issued: VecDeque<Issued>,
    /// Next MI id, the boundary timer's token. Never reset, so a token
    /// armed for one interval cannot name an interval issued after a
    /// resume.
    next_mi: u64,
    mss: u32,
    /// The previous judged MI's average RTT (the latency utilities read
    /// it).
    prev_avg_rtt: Option<SimDuration>,
}

impl PccController {
    /// PCC with the §2.2 safe utility function.
    pub fn new(cfg: PccConfig) -> Self {
        Self::with_utility(cfg, Box::new(SafeSigmoid))
    }

    /// PCC with a custom utility function (§2.4 / §4.4).
    pub fn with_utility(cfg: PccConfig, utility: Box<dyn UtilityFunction>) -> Self {
        PccController {
            cfg,
            utility,
            rtt: RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(120)),
            phase: Phase::Starting {
                prev: None,
                misses: 0,
            },
            rate: 0.0,
            issued: VecDeque::new(),
            next_mi: 0,
            mss: 1500,
            prev_avg_rtt: None,
        }
    }

    /// Set the wire packet size the controller assumes (default 1500 B). Datapaths with a different MSS — e.g. the UDP prototype's
    /// `payload + 40` — must thread theirs through, or throughput, the
    /// 2·MSS/RTT starting rate, and the rate floor are all skewed.
    pub fn with_mss(mut self, mss: u32) -> Self {
        self.mss = mss.max(1);
        self
    }

    /// The wire packet size the controller assumes (see
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
    /// non-improvement as failure stops doubling at the knee instead of
    /// deep inside the queue.
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
    /// [`MI_MIN_PACKETS`] packets and the configured RTT multiple.
    fn mi_duration(&self, rate_bps: f64, ctx: &mut CtrlCtx) -> SimDuration {
        let pkt_time =
            SimDuration::from_secs_f64(MI_MIN_PACKETS * self.mss as f64 * 8.0 / rate_bps.max(1.0));
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
        self.srtt().mul_f64(DEADLINE_RTTS).max(DEADLINE_FLOOR)
    }

    /// Issue a new MI at `rate` with the given purpose: arm the boundary
    /// timer that will end it, and open its send epoch, which closes the
    /// previous MI's (the §3.1 re-align, when that one ends early).
    fn begin_mi(&mut self, rate_bps: f64, purpose: Purpose, ctx: &mut CtrlCtx) {
        let rate = self.clamp_rate(rate_bps);
        let id = self.next_mi;
        self.next_mi += 1;
        self.issued.push_back(Issued { id, rate, purpose });
        ctx.set_rate(rate);
        let dur = self.mi_duration(rate, ctx);
        ctx.set_timer(ctx.now + dur, id);
        ctx.begin_epoch(self.deadline_slack());
    }

    /// Enter decision making at the current base rate: one or two pairs of
    /// trial directions, each `+,−` or `−,+` uniformly at random (§3.2).
    fn enter_decision(&mut self, eps: f64, ctx: &mut CtrlCtx) {
        let pairs = if self.cfg.rct { 2 } else { 1 };
        let dirs = (0..pairs)
            .flat_map(|_| {
                if ctx.rng.coin() {
                    [1.0, -1.0]
                } else {
                    [-1.0, 1.0]
                }
            })
            .collect();
        self.phase = Phase::Deciding {
            eps: eps.clamp(self.cfg.eps_min, self.cfg.eps_max),
            dirs,
            issued: 0,
            results: Vec::with_capacity(pairs * 2),
        };
        // Issue the first trial immediately (re-align).
        self.advance_phase(ctx);
    }

    /// The phase machine's boundary action: the MI on the wire ended;
    /// issue the next one.
    fn advance_phase(&mut self, ctx: &mut CtrlCtx) {
        let (rate, purpose) = match &mut self.phase {
            Phase::Starting { .. } => {
                self.rate = self.clamp_rate(self.rate * 2.0);
                (self.rate, Purpose::Start)
            }
            Phase::Deciding {
                eps, dirs, issued, ..
            } => match dirs.get(*issued) {
                Some(&dir) => {
                    *issued += 1;
                    (self.rate * (1.0 + dir * *eps), Purpose::Trial)
                }
                // All trials issued; hold at r while results arrive
                // (§3.2: "changes the rate back to r and keeps
                // aggregating SACKs").
                None => (self.rate, Purpose::Hold),
            },
            Phase::Adjusting { dir, n, judged, .. } => {
                // Adapter `bounded_optimism`: utility results lag ≈1 RTT
                // behind the MI they measure. Racing more than two
                // un-evaluated steps ahead turns that lag into a large
                // overshoot (each step is n·ε, so late steps are big). Hold
                // the current rate until the pipeline catches up.
                if n.saturating_sub(*judged) >= 3 {
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

    /// Judge the front MI by each send epoch this callback resolved (or
    /// wrote off at its deadline), oldest first.
    fn judge_epochs(&mut self, ctx: &mut CtrlCtx) {
        for rep in ctx.epoch_reports() {
            let Some(Issued { id, rate, purpose }) = self.issued.pop_front() else {
                return;
            };
            let m = MiMetrics::from_report(id, rate, rep, self.prev_avg_rtt, self.rtt.min_rtt());
            self.prev_avg_rtt = Some(m.avg_rtt);
            self.on_mi_complete(purpose, &m, ctx);
        }
    }

    /// The utility of a completed MI, run for `purpose`, is available.
    fn on_mi_complete(&mut self, purpose: Purpose, m: &MiMetrics, ctx: &mut CtrlCtx) {
        // Skip empty MIs for control decisions: a 0-packet MI carries no
        // information about the rate (it usually means severe app-limiting).
        let u = if m.sent == 0 {
            0.0
        } else {
            self.utility.utility(m)
        };
        match (purpose, &mut self.phase) {
            (Purpose::Start, Phase::Starting { prev, misses }) => {
                // Step 0 has nothing to be compared with.
                let Some(before) = prev.replace(u) else {
                    return;
                };
                if Self::improved(u, before) {
                    *misses = 0;
                    return;
                }
                // Adapter `noisy_dip`: early MIs carry only tens of
                // packets, so the measured loss rate is quantized and the
                // sigmoid makes single unlucky samples look like cliffs.
                // Exit immediately only on unambiguous evidence — a
                // lossless delivery plateau (buffer filling: T capped,
                // L = 0) or a deep multi-loss utility cliff; otherwise
                // tolerate exactly one noisy dip before concluding.
                *misses += 1;
                let plateau = m.lost == 0;
                let cliff = m.lost >= 2 && u < before * 0.6;
                if plateau || cliff || *misses >= 2 {
                    // Adapter `start_revert_halves_the_wire_rate`: halve
                    // the rate on the wire once per doubling issued since
                    // the previous step (every interval still queued is
                    // one).
                    let back = self.clamp_rate(self.rate / 2f64.powi(self.issued.len() as i32 + 1));
                    // Adapter `drain_cap`: stay just below the failing
                    // MI's *measured* delivery rate — sending at exactly
                    // the bottleneck share would leave any queue the
                    // overshoot built standing forever (rate == drain
                    // rate), which matters for delay-based utilities under
                    // FQ.
                    let drain_cap = if m.throughput_bps > 0.0 {
                        0.9 * m.throughput_bps
                    } else {
                        back
                    };
                    self.rate = self.clamp_rate(back.min(drain_cap));
                    self.enter_decision(self.cfg.eps_min, ctx);
                } else {
                    // Spurious dip: keep doubling and let the next
                    // comparison use the pre-dip level.
                    *prev = Some(before);
                }
            }
            (
                Purpose::Trial,
                Phase::Deciding {
                    eps, dirs, results, ..
                },
            ) => {
                results.push(u);
                if results.len() < dirs.len() {
                    return;
                }
                let eps = *eps;
                // Each pair has one +ε and one −ε MI; the winner is the
                // direction of the higher-utility MI (adapter
                // `ties_go_to_the_later_trial`). `0` when the pairs
                // disagree.
                let dir = dirs
                    .chunks(2)
                    .zip(results.chunks(2))
                    .map(|(d, u)| if u[0] > u[1] { d[0] } else { d[1] })
                    .reduce(|a, b| if a == b { a } else { 0.0 })
                    .unwrap_or(0.0);
                if dir == 0.0 {
                    // Inconclusive: hold r, escalate ε, try again (§3.2).
                    return self.enter_decision(eps + self.cfg.eps_min, ctx);
                }
                self.rate = self.clamp_rate(self.rate * (1.0 + dir * eps));
                self.phase = Phase::Adjusting {
                    dir,
                    n: 0,
                    judged: 0,
                    last: None,
                };
                // The first adjusting MI (n = 0) re-measures the decided
                // rate r0, issued now (re-align).
                self.begin_mi(self.rate, Purpose::Adjust { n: 0 }, ctx);
            }
            (
                Purpose::Adjust { n },
                Phase::Adjusting {
                    dir, judged, last, ..
                },
            ) => {
                let dir = *dir;
                *judged = n;
                let Some(prev) = last.replace(u) else {
                    return;
                };
                // Two revert triggers. (a) Utility actually fell — the
                // paper's rule; a plain comparison, so measurement noise on
                // a lossy link doesn't kill genuine climbing momentum.
                // (b) Adapter `queue_filling`: while moving *up*, delivery
                // lags the send rate with little loss — the MI is filling a
                // buffer, and utility comparisons are blind to that until
                // the buffer finally overflows (T caps, L stays 0).
                let queue_filling =
                    dir > 0.0 && m.throughput_bps < 0.95 * m.send_rate_bps && m.loss_rate < 0.025;
                if u < prev || queue_filling {
                    // Adapter `revert_divides_the_issued_rate`.
                    self.rate =
                        self.clamp_rate(self.rate / (1.0 + n as f64 * self.cfg.eps_min * dir));
                    self.enter_decision(self.cfg.eps_min, ctx);
                }
            }
            // Holds, and stale intervals of a phase that has ended.
            _ => {}
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
        self.begin_mi(self.rate, Purpose::Start, ctx);
    }

    fn report_mode(&self) -> ReportMode {
        ReportMode::Epochs
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut CtrlCtx) {
        // Only exact per-packet samples feed the estimator; an ACK of a
        // retransmission is ambiguous about which transmission it measures.
        if ack.sampled {
            self.rtt.on_sample(ack.rtt);
        }
        self.judge_epochs(ctx);
    }

    /// Losses reach the controller through its epochs' reports.
    fn on_loss(&mut self, _loss: &LossEvent, ctx: &mut CtrlCtx) {
        self.judge_epochs(ctx);
    }

    fn on_resume(&mut self, ctx: &mut CtrlCtx) {
        // Adapter `on_resume` — outage recovery: every in-flight MI
        // measured a path that no longer exists (or a blackout). The
        // engine has dropped their epochs; drop them here too — stale
        // boundary timers die against ids the queue no longer holds — keep
        // the base rate as the operating point, and re-probe around it
        // with a fresh decision round instead of concluding half-dark
        // trials.
        self.issued.clear();
        self.prev_avg_rtt = None;
        self.rtt = RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(120));
        self.rate = self.clamp_rate(self.rate);
        self.enter_decision(self.cfg.eps_min, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut CtrlCtx) {
        if token == EPOCH_DEADLINE {
            return self.judge_epochs(ctx);
        }
        // A boundary counts only for the MI on the wire: one that was
        // re-aligned away, or armed before a resume, is stale.
        if self.issued.back().is_some_and(|mi| mi.id == token) {
            self.advance_phase(ctx);
        }
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::model::Model;
    use super::*;
    use std::collections::BTreeMap;

    use pcc_simnet::rng::SimRng;
    use pcc_simnet::time::SimTime;
    use pcc_transport::cc::{Effects as CtrlEffects, LossKind};
    use pcc_transport::report::{Epochs, MeasurementReport};

    use crate::utility::LossResilient;

    /// Minimal harness: drives the controller directly with a virtual
    /// clock, collecting rate changes and timers, and keeping send epochs
    /// and handing their reports over, like the engine does.
    struct Harness {
        ctrl: PccController,
        rng: SimRng,
        fx: CtrlEffects,
        now: SimTime,
        rate: f64,
        /// Boundary tokens, and [`EPOCH_DEADLINE`] for an epoch deadline.
        timers: Vec<(SimTime, u64)>,
        next_seq: u64,
        epochs: Epochs,
        /// Send time of each packet still in flight.
        outstanding: BTreeMap<u64, SimTime>,
        /// Epoch reports handed to the controller so far.
        handed: usize,
    }

    impl Harness {
        fn new(cfg: PccConfig) -> Self {
            Self::with_controller(PccController::new(cfg))
        }

        fn with_controller(ctrl: PccController) -> Self {
            Harness {
                ctrl,
                rng: SimRng::new(7),
                fx: CtrlEffects::default(),
                now: SimTime::ZERO,
                rate: 0.0,
                timers: Vec::new(),
                next_seq: 0,
                epochs: Epochs::default(),
                outstanding: BTreeMap::new(),
                handed: 0,
            }
        }

        /// One controller callback at the current time, carrying
        /// `reports`, its effects applied like the engine would.
        fn call_with(
            &mut self,
            reports: &[MeasurementReport],
            f: impl FnOnce(&mut PccController, &mut CtrlCtx),
        ) {
            self.handed += reports.len();
            f(
                &mut self.ctrl,
                &mut CtrlCtx::new(self.now, &mut self.rng, &mut self.fx)
                    .with_epoch_reports(reports),
            );
            let d = self.fx.drain();
            if let Some(r) = d.rate {
                self.rate = r;
            }
            self.timers.extend(d.timers);
            for slack in d.epochs {
                self.epochs.begin(self.now, slack);
                self.timers
                    .extend(self.epochs.next_deadline().map(|at| (at, EPOCH_DEADLINE)));
            }
        }

        fn call(&mut self, f: impl FnOnce(&mut PccController, &mut CtrlCtx)) {
            self.call_with(&[], f);
        }

        /// A callback whose event may have resolved epochs: it carries the
        /// report of every epoch ready now.
        fn resolving(&mut self, f: impl FnOnce(&mut PccController, &mut CtrlCtx)) {
            let ready = self.epochs.ready(self.now);
            let reports: Vec<_> = (0..ready).filter_map(|_| self.epochs.pop()).collect();
            self.call_with(&reports, f);
        }

        fn start(&mut self) {
            self.call(|c, cc| c.on_start(cc));
        }

        /// Hand over a scripted report for the oldest live epoch, as its
        /// deadline would.
        fn report(&mut self, rep: MeasurementReport) {
            self.epochs.pop();
            self.call_with(&[rep], |c, cc| c.on_timer(EPOCH_DEADLINE, cc));
        }

        fn starting(&self) -> bool {
            matches!(self.ctrl.phase, Phase::Starting { .. })
        }

        fn fire(&mut self, token: u64) {
            if token != EPOCH_DEADLINE {
                return self.call(|c, cc| c.on_timer(token, cc));
            }
            if self.epochs.ready(self.now) > 0 {
                self.resolving(|c, cc| c.on_timer(EPOCH_DEADLINE, cc));
            }
            self.timers
                .extend(self.epochs.next_deadline().map(|at| (at, EPOCH_DEADLINE)));
        }

        fn resume(&mut self) {
            self.epochs.clear();
            self.call(|c, cc| c.on_resume(cc));
        }

        fn sent(&mut self, seq: u64) {
            self.epochs.on_sent(self.now, 1500);
            self.outstanding.insert(seq, self.now);
        }

        /// An ACK of `seq` arriving now. `sampled: false` is the ACK of a
        /// retransmission: no usable RTT, but its cumulative ACK counts.
        fn ack(&mut self, seq: u64, rtt: SimDuration, sampled: bool, recv_at: SimTime) {
            if let Some(at) = sampled.then(|| self.outstanding.remove(&seq)).flatten() {
                self.epochs.stage(at, true);
            }
            let rest = self.outstanding.split_off(&(seq + 1));
            for (_, at) in std::mem::replace(&mut self.outstanding, rest) {
                self.epochs.stage(at, false);
            }
            self.epochs.credit_staged(1500, Some((rtt, recv_at)));
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
            self.resolving(|c, cc| c.on_ack(&ack, cc));
        }

        fn loss(&mut self, seq: u64) {
            if let Some(at) = self.outstanding.remove(&seq) {
                self.epochs.on_lost(at);
            }
            let ev = LossEvent {
                now: self.now,
                seqs: &[seq],
                kind: LossKind::Detected,
                new_episode: true,
                in_flight: 1,
                mss: 1500,
            };
            self.resolving(|c, cc| c.on_loss(&ev, cc));
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
        assert!(h.starting());
        assert!(!h.timers.is_empty(), "boundary timer armed");
    }

    #[test]
    fn starting_doubles_each_boundary() {
        let mut h = Harness::new(cfg());
        h.start();
        let r0 = h.rate;
        h.advance_to(SimTime::from_millis(600));
        assert!(h.rate >= 2.0 * r0 - 1.0, "doubled: {} -> {}", r0, h.rate);
        assert!(h.starting());
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
        assert!(h.starting(), "still climbing");
        // MI 2: heavy loss — utility cliff.
        h.traffic(40, 10, 100);
        h.advance_to(SimTime::from_secs(2));
        assert!(!h.starting(), "cliff ends the starting phase");
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
        assert!(h.starting(), "single-loss dip ignored");
    }

    #[test]
    fn unsampled_cum_ack_still_resolves_deliveries() {
        // An ACK of a retransmission carries no usable RTT sample
        // (`sampled: false`), but its cumulative ACK still proves the
        // prefix arrived. Step 1's packets are resolved *only* by such
        // an ACK and no later ACK re-covers them before the MI deadline
        // — so a measurement that dropped that proof would write all 20
        // packets off as lost at the deadline and abort startup on a
        // phantom loss cliff.
        let mut h = Harness::new(cfg());
        h.start();
        // Step 0: clean, sampled traffic (step 0 is never compared).
        h.traffic(10, 10, 100);
        // Into step 1 (first boundary fires at 500 ms: ten 1500 B
        // packets at the 240 kbps starting rate).
        h.advance_to(SimTime::from_millis(600));
        assert!(h.starting());
        // Step 1: 20 packets, and not one per-packet SACK survives the
        // reverse path — delivery is proven solely by the cumulative
        // ACK riding on a retransmission's (unsampled) ACK.
        let step1 = h.next_seq..h.next_seq + 20;
        h.next_seq += 20;
        step1.clone().for_each(|seq| h.sent(seq));
        h.ack(step1.end - 1, SimDuration::from_millis(100), false, h.now);
        // Step 1's MI ends at its 750 ms boundary, already fully
        // resolved by the cumulative ACK, so it is reported right there
        // (two completed MIs by 900 ms) and startup keeps climbing.
        // Without that proof it would sit unresolved past 900 ms awaiting
        // its ~1000 ms deadline, where all 20 packets would be written
        // off as lost and the phantom utility cliff end the starting
        // phase.
        h.advance_to(SimTime::from_millis(900));
        assert_eq!(
            h.handed, 2,
            "the cum-ack alone resolves the MI, no deadline wait"
        );
        assert!(
            h.starting(),
            "cum-ack-only resolution is delivery, not a loss cliff"
        );
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
        assert!(matches!(h.ctrl.phase, Phase::Deciding { .. }));
        let base = h.ctrl.rate;
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
        assert_eq!(h.ctrl.rate, MAX_RATE_BPS);
        // The floor is 2·MSS/RTT — 240 kbit/s at the 100 ms hint —
        let floor = h.ctrl.clamp_rate(0.0);
        assert!((floor - 240_000.0).abs() < 1.0, "floor {floor}");
        // and never under the absolute minimum, however long the RTT.
        let slow = PccConfig::paper().with_rtt_hint(SimDuration::from_secs(2));
        assert_eq!(Harness::new(slow).ctrl.clamp_rate(0.0), MIN_RATE_BPS);
    }

    #[test]
    fn mi_timing_fixed_multiple_is_deterministic() {
        let c = PccConfig {
            mi_timing: MiTiming::FixedRttMultiple(2.0),
            ..cfg()
        };
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
        assert_eq!(boundary, 0, "a boundary's token is its MI's id");
        assert!(h.timers.is_empty(), "the first MI arms its boundary only");
        h.now = SimTime::from_millis(10);
        h.resume();
        let (rate, armed) = (h.rate, h.timers.len());
        // MI ids do not restart with the measurement pipeline, so the old
        // token names no live interval: firing it must not issue the
        // round's second trial early.
        h.now = at;
        h.fire(boundary);
        assert_eq!((h.rate, h.timers.len()), (rate, armed), "no effect");
        assert_eq!(h.ctrl.issued.len(), 1, "still on the first trial");
    }

    /// Records every judged MI's metrics.
    struct Recording(std::sync::Arc<std::sync::Mutex<Vec<MiMetrics>>>);

    impl UtilityFunction for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn utility(&self, m: &MiMetrics) -> f64 {
            pcc_simnet::sync::lock(&self.0).push(*m);
            m.throughput_bps
        }
    }

    #[test]
    fn reports_are_judged_in_issue_order_and_chain_the_previous_rtt() {
        let judged = std::sync::Arc::default();
        let recording = Box::new(Recording(std::sync::Arc::clone(&judged)));
        // A 2 s RTT hint puts the starting rate on its 24 kbit/s floor:
        // MI 0 lasts the 5 s its 10 packets take, and the 2.5×SRTT slack
        // keeps it open until 10 s. MI 1, at twice the rate, lasts its
        // 1.7–2.2 RTT multiple and ends by 9.4 s, before MI 0 is written
        // off.
        let c = PccConfig::paper().with_rtt_hint(SimDuration::from_secs(2));
        let mut h = Harness::with_controller(PccController::with_utility(c, recording));
        h.start();
        // Sequence numbers are the harness's labels; the ACK of `seq`
        // covers every label below it, so MI 1's packet takes the lower.
        h.sent(5);
        h.advance_to(SimTime::from_secs(6)); // MI 1 begins at 5 s
        h.sent(0);
        h.advance_to(SimTime::from_millis(9_600)); // and has ended
        let ms = SimDuration::from_millis;
        // MI 1 resolves first, but MI 0 must still be judged first.
        h.ack(0, ms(15), true, h.now);
        assert_eq!(h.handed, 0, "MI 0 unresolved");
        h.ack(5, ms(55), true, h.now);
        let judged = pcc_simnet::sync::lock(&judged);
        let got: Vec<_> = judged
            .iter()
            .map(|m| (m.mi_id, m.avg_rtt, m.prev_avg_rtt))
            .collect();
        assert_eq!(got, [(0, ms(55), None), (1, ms(15), Some(ms(55)))]);
    }

    proptest::proptest! {
        /// The invariant the `issued` queue rests on: however sends, sampled
        /// ACKs, cumulative-only ACKs, losses, boundaries, epoch deadlines,
        /// stale timers and resumes interleave, every epoch report is judged
        /// against the front of the queue — each pops exactly the front,
        /// nothing completes ahead of it, and nothing that a resume dropped
        /// completes later. Reports carry no MI id, so the pairing rests on
        /// one live epoch per issued MI, checked after every step.
        #[test]
        fn intervals_complete_in_issue_order(
            script in proptest::collection::vec((0u8..16, 0u8..=255), 1..400),
        ) {
            use proptest::prop_assert;
            let mut h = Harness::new(cfg());
            h.start();
            let mut outstanding = VecDeque::new();
            let mut fired: Vec<u64> = Vec::new();
            let rtt = SimDuration::from_millis(100);
            for (op, mag) in script {
                h.now += SimDuration::from_micros(mag as u64 * 500);
                let ids = |h: &Harness| h.ctrl.issued.iter().map(|mi| mi.id).collect::<Vec<_>>();
                let (before, next_mi) = (ids(&h), h.ctrl.next_mi);
                let handed = h.handed;
                let mut restarted = false;
                match op {
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
                        h.resume();
                    }
                    // The earliest pending timer, boundary or deadline.
                    _ => {
                        h.timers.sort_by_key(|(at, _)| *at);
                        if !h.timers.is_empty() {
                            let (at, token) = h.timers.remove(0);
                            h.now = h.now.max(at);
                            h.fire(token);
                            fired.push(token);
                        }
                    }
                }
                let after = ids(&h);
                prop_assert!(
                    h.epochs.live() == after.len(),
                    "{} live epochs for the MIs {after:?}",
                    h.epochs.live()
                );
                prop_assert!(after.windows(2).all(|w| w[0] < w[1]), "ids ascend: {after:?}");
                prop_assert!(after.iter().all(|&id| id < h.ctrl.next_mi));
                prop_assert!(!after.is_empty(), "some MI is always on the wire");
                if restarted {
                    prop_assert!(after.iter().all(|&id| id >= next_mi), "{after:?}");
                    continue;
                }
                let popped = h.handed - handed;
                prop_assert!(popped <= before.len(), "{popped} completions, queue {before:?}");
                let kept = &before[popped..];
                prop_assert!(
                    after.starts_with(kept) && after[kept.len()..].iter().all(|&id| id >= next_mi),
                    "{popped} completions took {before:?} to {after:?}"
                );
            }
        }
    }

    /// One bottleneck as scripted epoch reports. Each MI meets a capacity
    /// of `cap·(1 + noise·U[−1, 1))`; it delivers the smaller of its rate
    /// and that capacity, loses a share `spill` of the excess (the rest
    /// queues), and loses each packet at random with probability `loss`.
    #[derive(Clone, Copy, Debug)]
    struct Bottleneck {
        cap: f64,
        noise: f64,
        spill: f64,
        loss: f64,
        rtt: SimDuration,
    }

    impl Bottleneck {
        /// The report of an MI run at `rate`, long enough for ten packets
        /// and two RTTs. The receiver-side spacing of its ACKs puts the
        /// delivery rate at min(rate, capacity), thinned by random loss.
        fn report(&self, rate: f64, rng: &mut SimRng) -> MeasurementReport {
            let pkt_bits = 1500.0 * 8.0;
            let sent = ((rate * 2.0 * self.rtt.as_secs_f64() / pkt_bits).round() as u64).max(10);
            let cap = self.cap * (1.0 + self.noise * rng.range_f64(-1.0, 1.0));
            let dropped = (sent as f64 * (1.0 - cap / rate).max(0.0) * self.spill).round() as u64;
            let random = binomial(sent - dropped, self.loss, rng);
            let acked = sent - dropped - random;
            let delivery = rate.min(cap) * acked as f64 / (sent - dropped).max(1) as f64;
            let spacing = (acked.max(1) - 1) as f64 * pkt_bits / delivery.max(1.0);
            MeasurementReport {
                end: SimTime::ZERO + SimDuration::from_secs_f64(sent as f64 * pkt_bits / rate),
                sent_pkts: sent,
                sent_bytes: sent * 1500,
                acked_pkts: acked,
                acked_bytes: acked * 1500,
                lost_pkts: dropped + random,
                first_recv: Some(SimTime::ZERO),
                last_recv: Some(SimTime::ZERO + SimDuration::from_secs_f64(spacing)),
                ..Default::default()
            }
        }
    }

    /// Losses among `n` packets each lost with probability `p`: drawn per
    /// packet for a small MI, where quantization matters, and from a
    /// uniform of the binomial's mean and variance for a large one.
    fn binomial(n: u64, p: f64, rng: &mut SimRng) -> u64 {
        if p <= 0.0 {
            0
        } else if n <= 64 {
            (0..n).filter(|_| rng.chance(p)).count() as u64
        } else {
            let (mean, var) = (n as f64 * p, n as f64 * p * (1.0 - p));
            let draw = mean + (rng.uniform() - 0.5) * (12.0 * var).sqrt();
            (draw.round().max(0.0) as u64).min(n)
        }
    }

    /// One lockstep run: configuration, path, utility, the seed of the
    /// controller's random stream and of the path's, and the number of
    /// events.
    #[derive(Clone, Copy, Debug)]
    struct Case {
        cfg: PccConfig,
        path: Bottleneck,
        utility: fn() -> Box<dyn UtilityFunction>,
        seed: u64,
        events: usize,
    }

    /// The case of `seed`: capacity 0.5 Mbit/s–2 Gbit/s (one case in 16
    /// at 20 Gbit/s, over the rate ceiling), RTT 5–200 ms, noise up to
    /// 40%, a buffer that absorbs all the excess in a quarter of the
    /// cases, random loss up to 10% in half, single-pair trials and fixed
    /// MI timing each in a quarter.
    fn case(seed: u64) -> Case {
        let mut rng = SimRng::new(seed ^ 0x5EED);
        let cap = if rng.range_u64(0, 16) == 0 {
            20e9
        } else {
            0.5e6 * 4000f64.powf(rng.uniform())
        };
        let rtt = SimDuration::from_secs_f64(rng.range_f64(0.005, 0.2));
        let cfg = PccConfig {
            rct: rng.range_u64(0, 4) != 0,
            mi_timing: if rng.range_u64(0, 4) == 0 {
                MiTiming::FixedRttMultiple(rng.range_f64(1.0, 4.8))
            } else {
                MiTiming::Randomized
            },
            ..PccConfig::paper().with_rtt_hint(rtt)
        };
        let path = Bottleneck {
            cap,
            noise: rng.range_f64(0.0, 0.4),
            spill: if rng.range_u64(0, 4) == 0 {
                0.0
            } else {
                rng.uniform()
            },
            loss: if rng.coin() {
                0.0
            } else {
                rng.range_f64(0.0, 0.1)
            },
            rtt,
        };
        Case {
            cfg,
            path,
            utility: || Box::new(SafeSigmoid),
            seed,
            events: rng.range_u64(50, 600) as usize,
        }
    }

    /// Drive the controller through the harness on the path's scripted
    /// reports, and the model on the same judgements; every MI either
    /// issues must run at bit-equal rates. An ended MI is judged after 0–2
    /// more have ended, and now and then the flow resumes from an outage.
    /// Returns how often the model took each transition, and the rates
    /// issued.
    fn lockstep(case: &Case) -> (BTreeMap<&'static str, u32>, Vec<f64>) {
        let mut h =
            Harness::with_controller(PccController::with_utility(case.cfg, (case.utility)()));
        h.rng = SimRng::new(case.seed);
        let mut model = Model::new(case.cfg, 1500, SimRng::new(case.seed));
        let (utility, mut env) = ((case.utility)(), SimRng::new(!case.seed));
        h.start();
        let (mut want, mut got) = (vec![model.start()], vec![h.ctrl.issued[0].rate]);
        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        for event in 0..case.events {
            let checked = got.len();
            let next = h.ctrl.next_mi;
            let closed = h.ctrl.issued.len() - 1;
            if env.chance(0.003) {
                h.resume();
                want.push(model.resume());
            } else if closed == 0 || (closed < 3 && env.coin()) {
                let wire = h.ctrl.issued[closed].id;
                h.fire(wire);
                want.push(model.boundary());
            } else {
                let Issued { id, rate, .. } = h.ctrl.issued[0];
                let rep = case.path.report(rate, &mut env);
                let m = MiMetrics::from_report(id, rate, &rep, None, None);
                h.report(rep);
                want.extend(model.judge(utility.utility(&m), &m));
            }
            got.extend(
                h.ctrl
                    .issued
                    .iter()
                    .filter(|mi| mi.id >= next)
                    .map(|mi| mi.rate),
            );
            assert_eq!(h.epochs.live(), h.ctrl.issued.len());
            assert_eq!(
                bits(&got[checked..]),
                bits(&want[checked..]),
                "event {event}, from MI {checked}: controller {:?} model {:?} in {case:?}",
                &got[checked..],
                &want[checked..],
            );
        }
        (model.seen, got)
    }

    proptest::proptest! {
        /// The controller is §3.2's model plus its named adapters: over
        /// seeded paths, configurations and report lags, both issue the
        /// same rates bit for bit.
        #[test]
        fn controller_issues_the_reference_models_rates(seed in 0u64..u64::MAX) {
            lockstep(&case(seed));
        }
    }

    /// The lockstep above is not vacuous: over a fixed set of cases, the
    /// model takes every transition of §3.2 and of its adapters at least
    /// once, under both trial counts and both MI timings.
    #[test]
    fn the_lockstep_cases_take_every_transition() {
        let mut total = BTreeMap::new();
        for seed in 0..96 {
            let case = case(seed);
            let (seen, _) = lockstep(&case);
            let configs = [
                (!case.cfg.rct, "single-pair case"),
                (case.cfg.mi_timing != MiTiming::Randomized, "fixed-tm case"),
            ];
            let configs = configs
                .into_iter()
                .filter(|c| c.0)
                .map(|(_, what)| (what, 1));
            for (what, count) in seen.into_iter().chain(configs) {
                *total.entry(what).or_insert(0) += count;
            }
        }
        for what in [
            "start exit: plateau",
            "start exit: cliff",
            "start exit: second miss",
            "concluded decision",
            "inconclusive decision",
            "round at eps_max",
            "revert: utility fell",
            "revert: queue filling",
            "bounded-optimism hold",
            "resume",
            "single-pair case",
            "fixed-tm case",
        ] {
            assert!(total.contains_key(what), "no {what} in {total:?}");
        }
    }

    /// `sec442`'s trap, scripted: the loss-resilient utility on a
    /// 100 Mbit/s, 30 ms path with 20% random loss and no capacity noise —
    /// the smallest loss floor at which any of 40 seeds traps, and capacity
    /// noise up to 50% changes no seed's outcome. A noisy cliff at the
    /// lowest rates ends the starting phase back at 2·MSS/RTT, and
    /// adjusting's ε-sized steps, reverted by the loss noise, then hold the
    /// flow within 2× of that rate for hundreds of MIs. The model falls
    /// into it too: the lockstep holds throughout.
    #[test]
    fn sec442s_trap_is_the_models_too() {
        let rtt = SimDuration::from_millis(30);
        let trap = Case {
            cfg: PccConfig::paper().with_rtt_hint(rtt),
            path: Bottleneck {
                cap: 100e6,
                noise: 0.0,
                spill: 1.0,
                loss: 0.2,
                rtt,
            },
            utility: || Box::new(LossResilient),
            seed: 2,
            events: 600,
        };
        let (seen, rates) = lockstep(&trap);
        assert_eq!(seen.get("start exit: cliff"), Some(&1), "{seen:?}");
        let low = rates.iter().map(|&r| r <= 2.0 * rates[0]);
        let longest = low
            .scan(0, |run, low| {
                *run = if low { *run + 1 } else { 0 };
                Some(*run)
            })
            .max();
        assert!(longest >= Some(50), "{longest:?} MIs in a row under 2·r0");
    }
}
