//! The one sender engine.
//!
//! [`CcSender`] hosts any [`CongestionControl`] algorithm and enforces
//! whichever operating point the algorithm requests through its
//! [`Effects`]: a pacing rate, a congestion window, or both.
//!
//! The engine is sans-IO: it touches neither a clock nor a socket. Its
//! inputs are the three [`Endpoint`] callbacks (`start`, an arrived ACK,
//! a fired timer) stamped with the caller's `now`; its outputs are the
//! `Action`s drained from the [`EndpointCtx`] (transmit this packet, arm
//! this timer, finish, stall). Two thin drivers feed it — the simulator's
//! event loop and `pcc-udp`'s socket + monotonic-clock loop — so every
//! engine feature exists once and both datapaths get it.
//!
//! What the algorithm sets in `on_start` engages the matching machinery:
//!
//! * **rate only** (PCC, SABUL, PCP): packets are paced at the requested
//!   rate; losses are declared by a periodic SRTT-clocked scan over the
//!   SACK scoreboard (user-space transports are not bound by TCP's
//!   conservative RTO conventions, so the default loss-declaration floor
//!   is 10 ms);
//! * **cwnd only** (the TCP variants): classic ack-clocked transmission
//!   with segmentation-offload burstiness, fast-retransmit recovery
//!   episodes, and an RTO timer with exponential backoff (200 ms floor, the
//!   Linux default the paper's incast experiment depends on);
//! * **both** (paced TCP, BBR-style hybrids): paced release *gated* by the
//!   window, with the full TCP loss machinery.
//!
//! Reliability (SACK scoreboard + retransmission) is engine business in
//! every mode; algorithms only decide how fast data may leave. So is
//! measurement: under [`ReportMode::Epochs`] the engine credits each
//! packet's fate to the send epoch of its latest transmission, read from
//! the scoreboard, and hands each epoch's report to the callback of the
//! ACK, loss or deadline that resolved it ([`crate::report::Epochs`]).

use std::collections::VecDeque;

use pcc_simnet::endpoint::{Endpoint, EndpointCtx};
use pcc_simnet::packet::Packet;
use pcc_simnet::time::{SimDuration, SimTime};

use crate::cc::{
    AckEvent, CongestionControl, Ctx, Effects, LossEvent, LossKind, ReportMode, SentEvent,
    EPOCH_DEADLINE,
};
use crate::flow::TransportConfig;
use crate::report::{Epochs, MeasurementReport, ReportAggregator};
use crate::rtt::RttEstimator;
use crate::sack::Scoreboard;

/// Engine knobs (transport machinery, not algorithm parameters).
#[derive(Clone, Copy, Debug)]
pub struct CcSenderConfig {
    /// Transport basics (MSS, flow size).
    pub transport: TransportConfig,
    /// Floor for the retransmission timeout. `None` picks the mode default
    /// once the algorithm has declared itself: 200 ms when it drives a
    /// congestion window (TCP's convention — the incast experiment depends
    /// on it), 10 ms for pure rate control (PCC's monitor intervals
    /// resolve packet fates at MI+RTT granularity, §3.1).
    pub min_rto: Option<SimDuration>,
    /// Segmentation-offload burst size in packets, for ack-clocked (cwnd,
    /// unpaced) operation. Paper-era kernels hand the NIC up to 64 KB
    /// (≈44 MSS) per TSO/GSO chunk, which leaves the host at line rate
    /// back-to-back; this burstiness — not the congestion window math — is
    /// what murders TCP on shallow buffers (Figs. 6/9, Table 1). `1`
    /// disables aggregation. Irrelevant whenever a pacing rate is set
    /// (pacing exists precisely to kill these bursts).
    pub tso_burst_pkts: u32,
    /// Feedback path override. `None` (the default) honours the
    /// algorithm's own [`CongestionControl::report_mode`] preference;
    /// `Some(Batched)` forces batched delivery on a per-ACK algorithm —
    /// e.g. a host driving many flows off-path batches all of them. Every
    /// other case keeps the preference: an algorithm whose `report_mode()`
    /// is `Batched` stays on reports under `Some(PerAck)` (it may have no
    /// per-ACK path to fall back to; a test-local one pins the rule) and
    /// one that asks for `Epochs` (PCC) stays on epochs under
    /// `Some(Batched)`. `Some(Epochs)` is refused at start: send epochs
    /// are opened by the algorithm, so no host can force them.
    pub report: Option<ReportMode>,
    /// Dead-time budget: if the flow makes no forward progress (no new
    /// cumulative bytes acknowledged) for this long while the RTO keeps
    /// firing, the engine aborts with [`crate::TransferError::Stalled`]
    /// semantics — the flow stops and its stall is recorded in
    /// `FlowStats::stalled` with partial-progress statistics. `None` (the
    /// simulation default) retries forever on the capped-backoff timer;
    /// real-socket datapaths should set a budget.
    pub dead_time_budget: Option<SimDuration>,
}

impl Default for CcSenderConfig {
    fn default() -> Self {
        CcSenderConfig {
            transport: TransportConfig::default(),
            min_rto: None,
            tso_burst_pkts: 44,
            report: None,
            dead_time_budget: None,
        }
    }
}

/// Forward progress returning after at least this many consecutive
/// fruitless timeouts (RTO firings in windowed mode, whole-window
/// write-offs in rate mode) is treated as recovery from an outage and
/// triggers the resumption path (RTT estimator re-seeded,
/// [`CongestionControl::on_resume`], operating point re-derived). Three
/// deep means several RTOs of darkness — beyond any plausible reordering.
const RESUME_TIMEOUTS: u64 = 3;

/// Mode defaults for the RTO floor (see [`CcSenderConfig::min_rto`]).
pub const WINDOWED_MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// RTO floor for pure rate control.
pub const RATE_MIN_RTO: SimDuration = SimDuration::from_millis(10);
/// Hard cap on packets in flight (memory guard; generously above any BDP
/// in the evaluation). Applies in every mode.
pub(crate) const MAX_IN_FLIGHT: u64 = 65_536;
/// Receiver-window-like clamp on the effective window, packets. Real
/// stacks are bounded by the advertised window; 20 000 packets (30 MB)
/// models a well-tuned host and comfortably exceeds every BDP in the
/// paper's evaluation (max 18 MB).
const MAX_CWND_PKTS: f64 = 20_000.0;
/// How long segments may wait for a segmentation-offload burst to fill
/// before the NIC flushes anyway (models the offload flush timer).
const TSO_FLUSH: SimDuration = SimDuration::from_millis(1);

const TOKEN_KIND_SHIFT: u64 = 56;
const TOKEN_PACE: u64 = 1 << TOKEN_KIND_SHIFT;
const TOKEN_SCAN: u64 = 2 << TOKEN_KIND_SHIFT;
/// Algorithm tokens are passed through with this tag.
const TOKEN_CTRL: u64 = 3 << TOKEN_KIND_SHIFT;
const TOKEN_RTO: u64 = 4 << TOKEN_KIND_SHIFT;
const TOKEN_TSO: u64 = 5 << TOKEN_KIND_SHIFT;
const TOKEN_REPORT: u64 = 6 << TOKEN_KIND_SHIFT;
/// Epoch deadlines. They carry no generation and every arm acts, so there
/// is at most one pending per instant: an arm at the oldest pending
/// epoch's deadline (each time an epoch closes, and after each firing) is
/// dropped when an event for that instant is already pending. The first
/// arm at an instant keeps its place in the event order; a single timer
/// chasing the oldest deadline, as the RTO does, would move it.
const TOKEN_EPOCH: u64 = 7 << TOKEN_KIND_SHIFT;
const TOKEN_GEN_MASK: u64 = (1 << TOKEN_KIND_SHIFT) - 1;

/// One engine-owned timer kind: the generation of its newest arm and that
/// arm's deadline while it is pending. A fired token is acted on only if it
/// carries the newest generation and that arm is still pending, so
/// re-arming needs no event-queue removal.
#[derive(Default)]
struct Timer {
    gen: u64,
    due: Option<SimTime>,
}

impl Timer {
    fn arm(&mut self, kind: u64, at: SimTime, ctx: &mut EndpointCtx) {
        self.gen += 1;
        self.due = Some(at);
        ctx.set_timer(at, kind | (self.gen & TOKEN_GEN_MASK));
    }

    fn armed(&self) -> bool {
        self.due.is_some()
    }

    /// True (and no longer pending) if `gen` is the pending arm's.
    fn fire(&mut self, gen: u64) -> bool {
        let newest = self.armed() && gen == self.gen & TOKEN_GEN_MASK;
        if newest {
            self.due = None;
        }
        newest
    }
}

/// The unified sender endpoint: reliability + transmission scheduling
/// around a [`CongestionControl`] algorithm.
pub struct CcSender {
    cfg: CcSenderConfig,
    cc: Box<dyn CongestionControl>,
    sb: Scoreboard,
    rtt: RttEstimator,
    retx_queue: VecDeque<u64>,
    /// Pacing rate, bits/sec; `Some` iff the algorithm drives a rate.
    rate_bps: Option<f64>,
    /// Congestion window, packets; `Some` iff the algorithm drives a cwnd.
    cwnd_pkts: Option<f64>,
    /// While `Some`, a recovery episode is active until cum-ack passes it
    /// (windowed machinery only).
    recovery_point: Option<u64>,
    rto_backoff: u32,
    /// When the RTO should actually fire. Re-based on every ACK without
    /// touching the event queue: the one scheduled timer event checks this
    /// on expiry and re-arms itself if the deadline moved (lazy
    /// cancellation — the alternative schedules a fresh heap entry per
    /// ACK and lets thousands of stale ones churn through the queue).
    rto_deadline: SimTime,
    /// The one RTO event in the queue, due at or before `rto_deadline`.
    rto: Timer,
    pace: Timer,
    scan: Timer,
    tso: Timer,
    report: Timer,
    finished: bool,
    last_rate_report: (SimTime, f64),
    /// Resolved feedback path (a batching config override, else the
    /// algorithm's preference); fixed at `start()`.
    report_mode: ReportMode,
    /// Local event accumulator for batched mode.
    agg: ReportAggregator,
    /// Send epochs, under [`ReportMode::Epochs`].
    epochs: Option<Epochs>,
    /// The instants with a pending [`TOKEN_EPOCH`] event, one event each.
    epoch_arms: Vec<SimTime>,
    /// When the flow last made forward progress (new cumulative bytes
    /// acknowledged); seeds the dead-time budget clock.
    last_progress_at: SimTime,
    /// Consecutive RTO firings since the last forward progress.
    timeouts_since_progress: u64,
    /// RTO firings over the whole flow (never reset).
    rto_fires: u64,
    /// RTO floor resolved at `start()` (mode convention or explicit
    /// override); the resumption path re-seeds the RTT estimator with it.
    resolved_min_rto: SimDuration,
    /// Monotonicity tripwire for the cumulative-ack point.
    last_cum_ack: u64,
}

impl CcSender {
    /// Build a sender around a congestion-control algorithm.
    pub fn new(cfg: CcSenderConfig, cc: Box<dyn CongestionControl>) -> Self {
        CcSender {
            cfg,
            cc,
            sb: Scoreboard::new(),
            // Replaced in `start()` once the algorithm has declared its
            // mode (the RTO floor differs between modes).
            rtt: RttEstimator::new(RATE_MIN_RTO, SimDuration::from_secs(120)),
            retx_queue: VecDeque::new(),
            rate_bps: None,
            cwnd_pkts: None,
            recovery_point: None,
            rto_backoff: 0,
            rto_deadline: SimTime::MAX,
            rto: Timer::default(),
            pace: Timer::default(),
            scan: Timer::default(),
            tso: Timer::default(),
            report: Timer::default(),
            finished: false,
            last_rate_report: (SimTime::MAX, 0.0),
            report_mode: ReportMode::PerAck,
            agg: ReportAggregator::default(),
            epochs: None,
            epoch_arms: Vec::new(),
            last_progress_at: SimTime::ZERO,
            timeouts_since_progress: 0,
            rto_fires: 0,
            resolved_min_rto: RATE_MIN_RTO,
            last_cum_ack: 0,
        }
    }

    /// Current pacing rate in bits/sec, if the algorithm drives one.
    pub fn rate_bps(&self) -> Option<f64> {
        self.rate_bps
    }

    /// Current congestion window in packets, if the algorithm drives one.
    pub fn cwnd_pkts(&self) -> Option<f64> {
        self.cwnd_pkts
    }

    /// Total losses the scoreboard has declared.
    pub fn losses(&self) -> u64 {
        self.sb.total_losses()
    }

    /// Cumulative ack point: every sequence below it is known delivered.
    pub fn cum_ack(&self) -> u64 {
        self.sb.cum_ack()
    }

    /// RTO expiries over the flow's life (windowed machinery; pure rate
    /// control arms no RTO timer).
    pub fn timeouts(&self) -> u64 {
        self.rto_fires
    }

    fn mss(&self) -> u32 {
        self.cfg.transport.mss
    }

    /// The algorithm drives a pacing rate.
    fn paced(&self) -> bool {
        self.rate_bps.is_some()
    }

    /// The algorithm drives a congestion window (engages TCP loss
    /// machinery: recovery episodes, RTO backoff).
    fn windowed(&self) -> bool {
        self.cwnd_pkts.is_some()
    }

    fn in_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    /// Events are aggregated locally and delivered as reports.
    fn batched(&self) -> bool {
        self.report_mode == ReportMode::Batched
    }

    /// Effective in-flight limit right now: the memory guard, tightened by
    /// the congestion window when the algorithm drives one.
    fn flight_limit(&self) -> u64 {
        match self.cwnd_pkts {
            Some(cwnd) => MAX_IN_FLIGHT.min(cwnd.clamp(1.0, MAX_CWND_PKTS) as u64),
            None => MAX_IN_FLIGHT,
        }
    }

    /// Rate to report for windowed algorithms without an explicit pacing
    /// rate: the classic `cwnd/SRTT` estimate.
    fn derived_rate(&self) -> f64 {
        match self.rate_bps {
            Some(r) => r,
            None => {
                let srtt = self.rtt.srtt_or(SimDuration::from_millis(100));
                let cwnd = self.cwnd_pkts.unwrap_or(1.0).min(MAX_CWND_PKTS);
                cwnd * self.mss() as f64 * 8.0 / srtt.as_secs_f64().max(1e-6)
            }
        }
    }

    /// Window for an algorithm that left one unset: what the pacing rate
    /// keeps in flight over one smoothed RTT, at least two packets.
    fn derived_cwnd(&self) -> f64 {
        let srtt = self.rtt.srtt_or(SimDuration::from_millis(100));
        let rate = self.rate_bps.unwrap_or(1.0);
        (rate * srtt.as_secs_f64() / (self.mss() as f64 * 8.0)).max(2.0)
    }

    fn pace_gap(&self) -> SimDuration {
        let rate = self.rate_bps.unwrap_or(1.0).max(1.0);
        SimDuration::from_secs_f64(self.mss() as f64 * 8.0 / rate)
    }

    fn has_work(&self) -> bool {
        !self.retx_queue.is_empty()
            || !self
                .cfg
                .transport
                .size
                .exhausted(self.sb.next_seq(), self.mss())
    }

    /// Apply the rate/cwnd changes, timers and send epochs the algorithm
    /// requested. Opening epochs arms a deadline event at the oldest
    /// pending epoch's deadline.
    fn apply_effects(&mut self, d: Effects, ctx: &mut EndpointCtx) {
        if let Some(rate) = d.rate {
            if self.rate_bps != Some(rate) {
                self.rate_bps = Some(rate);
                if self.windowed() {
                    // Hybrid algorithms update the rate every ACK; keep the
                    // throttled reporting path so samples stay bounded.
                    self.report_rate(ctx);
                } else {
                    ctx.record_rate(rate);
                }
            }
        }
        if let Some(cwnd) = d.cwnd {
            self.cwnd_pkts = Some(cwnd);
        }
        for (at, token) in d.timers {
            debug_assert!(token <= TOKEN_GEN_MASK, "algorithm token too large");
            ctx.set_timer(at, TOKEN_CTRL | (token & TOKEN_GEN_MASK));
        }
        let Some(epochs) = self.epochs.as_mut() else {
            return;
        };
        if d.epochs.is_empty() {
            return;
        }
        for slack in d.epochs {
            epochs.begin(ctx.now, slack);
        }
        self.arm_epoch_deadline(ctx);
    }

    /// Arm a deadline event at the oldest pending epoch's deadline unless
    /// one is pending for that instant already. A deadline already past
    /// (an older epoch's later deadline held its epoch back) is armed for
    /// now, where the event would fire anyway, so the pending instants are
    /// the instants the events fire at.
    fn arm_epoch_deadline(&mut self, ctx: &mut EndpointCtx) {
        let Some(deadline) = self.epochs.as_ref().and_then(Epochs::next_deadline) else {
            return;
        };
        let at = deadline.max(ctx.now);
        if !self.epoch_arms.contains(&at) {
            self.epoch_arms.push(at);
            ctx.set_timer(at, TOKEN_EPOCH);
        }
    }

    /// An epoch-deadline event fired. Timers fire in deadline order, so it
    /// is the earliest pending one. It hands out the epochs ready now and,
    /// in one more pass, any that its own callback closed already
    /// resolved; a third pass is left to the next event, so an algorithm
    /// that closes a resolved epoch in every callback cannot hold the
    /// clock at one instant.
    fn on_epoch_deadline(&mut self, ctx: &mut EndpointCtx) {
        let earliest = (0..self.epoch_arms.len()).min_by_key(|&i| self.epoch_arms[i]);
        if let Some(i) = earliest {
            self.epoch_arms.swap_remove(i);
        }
        for _ in 0..2 {
            if self.epochs.as_ref().is_none_or(|e| e.ready(ctx.now) == 0) {
                break;
            }
            self.with_cc_resolving(ctx, |c, cc| c.on_timer(EPOCH_DEADLINE, cc));
        }
        self.arm_epoch_deadline(ctx);
        self.try_send(ctx);
    }

    fn with_cc(
        &mut self,
        ctx: &mut EndpointCtx,
        f: impl FnOnce(&mut dyn CongestionControl, &mut Ctx),
    ) {
        self.with_cc_carrying(ctx, &[], f);
    }

    /// [`CcSender::with_cc`] for a callback whose event may have resolved
    /// send epochs (an ACK, a loss, a deadline): it carries the report of
    /// every epoch ready now, oldest first, in [`Ctx::epoch_reports`]. The
    /// count is fixed before the callback, so an epoch that the algorithm
    /// closes while judging one waits for the next ACK, loss or deadline
    /// (or the second pass of the deadline firing it was judged in).
    fn with_cc_resolving(
        &mut self,
        ctx: &mut EndpointCtx,
        f: impl FnOnce(&mut dyn CongestionControl, &mut Ctx),
    ) {
        let ready = self.epochs.as_ref().map_or(0, |e| e.ready(ctx.now));
        let mut reports: Vec<_> = (0..ready)
            .filter_map(|_| self.epochs.as_mut()?.pop())
            .collect();
        reports.iter_mut().for_each(|rep| self.stamp(rep));
        self.with_cc_carrying(ctx, &reports, f);
    }

    fn with_cc_carrying(
        &mut self,
        ctx: &mut EndpointCtx,
        reports: &[MeasurementReport],
        f: impl FnOnce(&mut dyn CongestionControl, &mut Ctx),
    ) {
        let mut effects = Effects::default();
        f(
            self.cc.as_mut(),
            &mut Ctx::new(ctx.now, ctx.rng(), &mut effects).with_epoch_reports(reports),
        );
        self.apply_effects(effects, ctx);
    }

    /// Transmit one packet (retransmissions first). Returns false if there
    /// was nothing to send.
    fn send_one(&mut self, ctx: &mut EndpointCtx) -> bool {
        // Skip retx entries that got acked (or un-lost) while queued.
        let mut queued = None;
        while let Some(seq) = self.retx_queue.pop_front() {
            if !self.sb.is_acked(seq) && self.sb.is_lost(seq) {
                queued = Some(seq);
                break;
            }
        }
        let (seq, retx) = match queued {
            Some(seq) => (seq, true),
            None => {
                let next = self.sb.next_seq();
                if self.cfg.transport.size.exhausted(next, self.mss()) {
                    return false;
                }
                (next, false)
            }
        };
        self.sb.on_send(seq, ctx.now, retx);
        let probe = if retx { None } else { self.cc.probe_tag() };
        match probe {
            Some(train) => ctx.send_probe(seq, self.mss(), train),
            None => ctx.send_data(seq, self.mss(), retx),
        }
        let ev = SentEvent {
            now: ctx.now,
            seq,
            bytes: self.mss(),
            retx,
            in_flight: self.sb.in_flight(),
        };
        if let Some(epochs) = self.epochs.as_mut() {
            epochs.on_sent(ev.now, ev.bytes);
        }
        if self.batched() {
            self.agg.on_sent(&ev);
        } else {
            self.with_cc(ctx, |c, cc| c.on_sent(&ev, cc));
        }
        true
    }

    // ---- paced release ---------------------------------------------------

    fn on_pace_tick(&mut self, ctx: &mut EndpointCtx) {
        if self.sb.in_flight() >= self.flight_limit() {
            if self.windowed() {
                // Window-blocked: the next ACK re-arms the pacer.
                return;
            }
            // Flow-window blocked (memory guard); re-check one gap later.
            self.pace.arm(TOKEN_PACE, ctx.now + self.pace_gap(), ctx);
            return;
        }
        if self.send_one(ctx) {
            if self.windowed() {
                self.arm_rto(ctx);
            }
            if self.has_work() {
                self.pace.arm(TOKEN_PACE, ctx.now + self.pace_gap(), ctx);
            }
        }
        // If idle (nothing to send), the pacer re-arms when work arrives
        // (ack opens window / retransmission queued).
    }

    /// Wake the pacer if it went idle and there is work (and window room)
    /// again.
    fn wake_pacer(&mut self, ctx: &mut EndpointCtx) {
        if !self.finished
            && !self.pace.armed()
            && self.has_work()
            && self.sb.in_flight() < self.flight_limit()
        {
            self.pace.arm(TOKEN_PACE, ctx.now, ctx);
        }
    }

    // ---- ack-clocked release (cwnd without a pacing rate) ----------------

    /// New packets the window and remaining data allow right now.
    fn sendable_new(&self) -> u64 {
        let room = self.flight_limit().saturating_sub(self.sb.in_flight());
        match self.cfg.transport.size.packets(self.mss()) {
            None => room,
            Some(total) => room.min(total.saturating_sub(self.sb.next_seq())),
        }
    }

    /// Fill the congestion window (ack-clocked mode) or wake the pacer.
    ///
    /// In ack-clocked mode, new data goes through segmentation-offload
    /// aggregation: segments are released in bursts of `tso_burst_pkts`
    /// (or after [`TSO_FLUSH`]), back-to-back — the burstiness of a real
    /// offloading NIC. Retransmissions bypass aggregation.
    fn try_send(&mut self, ctx: &mut EndpointCtx) {
        if self.finished {
            return;
        }
        if self.paced() {
            self.wake_pacer(ctx);
            return;
        }
        // Loss repair is never held back by offload aggregation.
        while !self.retx_queue.is_empty()
            && self.sb.in_flight() < self.flight_limit()
            && self.send_one(ctx)
        {}
        let burst = self.cfg.tso_burst_pkts.max(1) as u64;
        let n = self.sendable_new();
        if n > 0 {
            let last_chunk = match self.cfg.transport.size.packets(self.mss()) {
                Some(total) => self.sb.next_seq() + n >= total,
                None => false,
            };
            if n >= burst || last_chunk {
                self.send_up_to(n, ctx);
            } else if !self.tso.armed() {
                self.tso.arm(TOKEN_TSO, ctx.now + TSO_FLUSH, ctx);
            }
        }
        self.arm_rto(ctx);
    }

    /// Transmit up to `n` packets, fewer if the data runs out.
    fn send_up_to(&mut self, n: u64, ctx: &mut EndpointCtx) {
        for _ in 0..n {
            if !self.send_one(ctx) {
                break;
            }
        }
    }

    fn on_tso_flush(&mut self, ctx: &mut EndpointCtx) {
        if self.paced() {
            return;
        }
        let n = self.sendable_new();
        self.send_up_to(n, ctx);
        if n > 0 {
            self.arm_rto(ctx);
        }
    }

    // ---- loss machinery --------------------------------------------------

    /// Declare losses via the scoreboard and notify the algorithm. The
    /// windowed machinery additionally tracks recovery episodes.
    fn scan_losses(&mut self, ctx: &mut EndpointCtx) {
        let rto = self.rtt.rto();
        let lost = self.sb.detect_losses(ctx.now, rto);
        if lost.is_empty() {
            return;
        }
        ctx.record_loss(lost.len() as u64);
        let new_episode = if self.windowed() {
            if self.in_recovery() {
                false
            } else {
                self.recovery_point = Some(self.sb.next_seq());
                true
            }
        } else {
            true
        };
        self.retx_queue.extend(lost.iter().copied());
        if !self.windowed() {
            // Pure rate control never arms the RTO timer — the
            // SRTT-clocked scan is its timeout machinery, so a scan that
            // writes packets off without any intervening forward progress
            // plays the role of an RTO firing: it drives the consecutive-
            // timeout count (any progress resets it) and enforces the
            // dead-time budget.
            if self.timed_out(ctx) {
                return;
            }
        }
        let ev = LossEvent {
            now: ctx.now,
            seqs: &lost,
            kind: LossKind::Detected,
            new_episode,
            in_flight: self.sb.in_flight(),
            mss: self.mss(),
        };
        self.deliver_loss(&ev, ctx);
        if self.paced() {
            self.wake_pacer(ctx);
        }
    }

    /// Hand a loss event to the algorithm. In batched mode it joins the
    /// current report, and a new episode (every timeout is one) flushes the
    /// report on the spot: loss-driven algorithms react as promptly as
    /// per-ACK ones, and a timeout collapses the window or rate before the
    /// retransmission burst. Only growth is deferred to the cadence.
    fn deliver_loss(&mut self, ev: &LossEvent, ctx: &mut EndpointCtx) {
        if !self.batched() {
            if let Some(epochs) = self.epochs.as_mut() {
                let sent = ev.seqs.iter().filter_map(|&seq| self.sb.sent_at(seq));
                sent.for_each(|at| epochs.on_lost(at));
            }
            self.with_cc_resolving(ctx, |c, cc| c.on_loss(ev, cc));
            return;
        }
        self.agg.on_loss(ev);
        if ev.new_episode {
            self.flush_report(ctx);
        }
    }

    fn arm_scan(&mut self, ctx: &mut EndpointCtx) {
        if self.scan.armed() || self.finished {
            return;
        }
        let interval = self
            .rtt
            .srtt_or(SimDuration::from_millis(100))
            .max(SimDuration::from_millis(10));
        self.scan.arm(TOKEN_SCAN, ctx.now + interval, ctx);
    }

    fn arm_rto(&mut self, ctx: &mut EndpointCtx) {
        if self.sb.in_flight() == 0 && self.retx_queue.is_empty() {
            return;
        }
        let backoff = 1u64 << self.rto_backoff.min(6);
        let deadline = ctx.now + SimDuration::from_nanos(self.rtt.rto().as_nanos() * backoff);
        self.rto_deadline = deadline;
        // Lazy re-arm: an event already due at or before the deadline will
        // fire, notice the pushed-out deadline, and re-schedule itself.
        match self.rto.due {
            Some(at) if at <= deadline => {}
            _ => self.rto.arm(TOKEN_RTO, deadline, ctx),
        }
    }

    fn on_rto_event(&mut self, ctx: &mut EndpointCtx) {
        if self.sb.in_flight() == 0 && self.retx_queue.is_empty() {
            return; // nothing outstanding; stay disarmed
        }
        if ctx.now < self.rto_deadline {
            // The deadline moved while this event sat in the queue (ACKs
            // re-based it); chase it instead of declaring a timeout.
            self.rto.arm(TOKEN_RTO, self.rto_deadline, ctx);
            return;
        }
        self.on_rto_fire(ctx);
    }

    /// Count one more timeout without forward progress and enforce the
    /// dead-time budget. True if the budget expired and the flow aborted:
    /// all machinery halts behind the `finished` flag (stale timers no-op);
    /// the stall and its partial-progress statistics land in the flow's
    /// `FlowStats::stalled`.
    fn timed_out(&mut self, ctx: &mut EndpointCtx) -> bool {
        self.timeouts_since_progress += 1;
        let dark = ctx.now.saturating_since(self.last_progress_at);
        let stalled = self.cfg.dead_time_budget.is_some_and(|b| dark >= b);
        if stalled {
            self.finished = true;
            ctx.stall(dark, self.timeouts_since_progress);
        }
        stalled
    }

    fn on_rto_fire(&mut self, ctx: &mut EndpointCtx) {
        if self.finished || (self.sb.in_flight() == 0 && self.retx_queue.is_empty()) {
            return;
        }
        if self.timed_out(ctx) {
            return;
        }
        self.rto_backoff += 1;
        self.rto_fires += 1;
        let lost = self.sb.mark_all_lost();
        ctx.record_loss(lost.len() as u64);
        // Requeue every lost sequence the scoreboard knows, not just the
        // ones this timeout declared: seqs declared lost *before* the RTO
        // were sitting in the old queue, and dropping them with the
        // `clear()` left them permanently unretransmitted (a sized flow
        // would wedge with the cum-ack hole open and no timer armed).
        self.retx_queue.clear();
        self.retx_queue.extend(self.sb.lost_seqs());
        // RTO aborts any recovery episode; slow-start restart.
        self.recovery_point = None;
        let ev = LossEvent {
            now: ctx.now,
            seqs: &lost,
            kind: LossKind::Timeout,
            new_episode: true,
            in_flight: self.sb.in_flight(),
            mss: self.mss(),
        };
        self.deliver_loss(&ev, ctx);
        self.report_rate(ctx);
        self.try_send(ctx);
        self.arm_rto(ctx);
    }

    /// Recovery from an outage: first forward progress after deep RTO
    /// backoff. The RTT estimator is re-seeded from the fresh sample
    /// (pre-outage smoothing no longer describes the path — after a
    /// reroute it may be a different path entirely), the algorithm gets
    /// its [`CongestionControl::on_resume`] hook, and any hybrid window
    /// the algorithm left untouched is re-derived from the pacing rate and
    /// the fresh RTT instead of resuming stale.
    fn resume(&mut self, ctx: &mut EndpointCtx, sample: Option<SimDuration>) {
        self.rto_backoff = 0;
        let mut fresh = RttEstimator::new(self.resolved_min_rto, SimDuration::from_secs(120));
        if let Some(s) = sample {
            fresh.on_sample(s);
        }
        self.rtt = fresh;
        if let Some(epochs) = self.epochs.as_mut() {
            epochs.clear();
        }
        let cwnd_before = self.cwnd_pkts;
        self.with_cc(ctx, |c, cc| c.on_resume(cc));
        if self.paced() && self.windowed() && self.cwnd_pkts == cwnd_before {
            self.cwnd_pkts = Some(self.derived_cwnd().min(MAX_CWND_PKTS));
        }
        self.report_rate(ctx);
    }

    // ---- reporting / completion -----------------------------------------

    fn report_rate(&mut self, ctx: &mut EndpointCtx) {
        let rate = self.derived_rate();
        let (last_t, last_r) = self.last_rate_report;
        let due = last_t == SimTime::MAX
            || ctx.now.saturating_since(last_t) >= SimDuration::from_millis(100)
            || (last_r > 0.0 && ((rate - last_r) / last_r).abs() > 0.05);
        if due {
            self.last_rate_report = (ctx.now, rate);
            ctx.record_rate(rate);
        }
    }

    fn check_finished(&mut self, ctx: &mut EndpointCtx) {
        if self.finished {
            return;
        }
        if let Some(total) = self.cfg.transport.size.packets(self.mss()) {
            if self.sb.all_acked_below(total) {
                self.finished = true;
                ctx.finish();
            }
        }
    }

    // ---- batched measurement reports -------------------------------------

    /// Arm the next report: one smoothed RTT from now, re-read at every
    /// boundary and floored at 1 ms.
    fn arm_report(&mut self, ctx: &mut EndpointCtx) {
        if self.finished {
            return;
        }
        let srtt = self.rtt.srtt_or(SimDuration::from_millis(100));
        let interval = srtt.max(SimDuration::from_millis(1));
        self.report.arm(TOKEN_REPORT, ctx.now + interval, ctx);
    }

    /// Stamp the engine snapshot on a report about to be delivered.
    fn stamp(&self, rep: &mut MeasurementReport) {
        let srtt = self.rtt.srtt_or(SimDuration::from_millis(100));
        rep.srtt = srtt;
        rep.min_rtt = self.rtt.min_rtt().unwrap_or(srtt);
        rep.in_flight = self.sb.in_flight();
        rep.cum_ack = self.sb.cum_ack();
        rep.mss = self.mss();
        rep.in_recovery = self.in_recovery();
    }

    /// Close the current interval, stamp the engine snapshot, and deliver
    /// the report. Empty intervals are delivered too — an algorithm may use
    /// the boundary itself as its clock.
    fn emit_report(&mut self, ctx: &mut EndpointCtx) {
        let mut rep = self.agg.take(ctx.now);
        self.stamp(&mut rep);
        self.with_cc(ctx, |c, cc| c.on_report(&rep, cc));
        if self.windowed() {
            self.report_rate(ctx);
        }
        self.try_send(ctx);
    }

    /// Emit a report now and start the next interval: the cadence tick,
    /// and the out-of-cadence report of a loss episode or timeout (whose
    /// re-arm supersedes the pending tick).
    fn flush_report(&mut self, ctx: &mut EndpointCtx) {
        self.emit_report(ctx);
        self.arm_report(ctx);
    }
}

impl CcSender {
    /// [`Endpoint::start`] for drivers that must not panic on a broken
    /// algorithm or config: an `on_start` that declared no operating
    /// point, or a `report: Some(Epochs)` override, is returned as the
    /// error message `start` would have panicked with.
    pub fn try_start(&mut self, ctx: &mut EndpointCtx) -> Result<(), String> {
        // Resolve the feedback path before the first callback so a
        // `begin_epoch` in `on_start` lands on the right machinery. The
        // override may batch a per-ACK algorithm and changes nothing else.
        if self.cfg.report == Some(ReportMode::Epochs) {
            return Err(format!(
                "send epochs cannot be forced on `{}`: an algorithm opens them",
                self.cc.name()
            ));
        }
        self.report_mode = match self.cc.report_mode() {
            ReportMode::PerAck if self.cfg.report == Some(ReportMode::Batched) => {
                ReportMode::Batched
            }
            mode => mode,
        };
        self.epochs = (self.report_mode == ReportMode::Epochs).then(Epochs::default);
        self.with_cc(ctx, |c, cc| c.on_start(cc));
        if self.rate_bps.is_none() && self.cwnd_pkts.is_none() {
            return Err(format!(
                "algorithm `{}` set neither a rate nor a cwnd in on_start",
                self.cc.name()
            ));
        }
        // The RTO floor convention differs between user-space rate control
        // and TCP-style window control; honour an explicit override.
        let min_rto = self.cfg.min_rto.unwrap_or(if self.windowed() {
            WINDOWED_MIN_RTO
        } else {
            RATE_MIN_RTO
        });
        self.resolved_min_rto = min_rto;
        self.last_progress_at = ctx.now;
        self.rtt = RttEstimator::new(min_rto, SimDuration::from_secs(120));
        if let Some(rate) = self.rate_bps {
            ctx.record_rate(rate);
            self.pace.arm(TOKEN_PACE, ctx.now, ctx);
        }
        if self.windowed() {
            if !self.paced() {
                self.report_rate(ctx);
                self.try_send(ctx);
            }
            self.arm_rto(ctx);
        } else {
            self.arm_scan(ctx);
        }
        if self.batched() {
            self.agg.begin(ctx.now);
            self.arm_report(ctx);
        }
        Ok(())
    }
}

impl Endpoint for CcSender {
    fn start(&mut self, ctx: &mut EndpointCtx) {
        if let Err(msg) = self.try_start(ctx) {
            panic!("{msg}");
        }
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        let Some(info) = pkt.as_ack() else {
            debug_assert!(false, "sender got non-ACK");
            return;
        };
        if self.finished {
            // A stalled flow ignores stragglers (a real socket is closed).
            return;
        }
        let out = match self.epochs.as_mut() {
            Some(epochs) => self
                .sb
                .on_ack_with(info, ctx.now, |at, sel| epochs.stage(at, sel)),
            None => self.sb.on_ack(info, ctx.now),
        };
        debug_assert!(
            self.sb.cum_ack() >= self.last_cum_ack,
            "cumulative ack went backwards: {} < {}",
            self.sb.cum_ack(),
            self.last_cum_ack
        );
        self.last_cum_ack = self.sb.cum_ack();
        debug_assert!(
            (self.sb.tracked() as u64) <= MAX_IN_FLIGHT.saturating_mul(2) + 64,
            "scoreboard leak: {} entries tracked against an in-flight cap of {}",
            self.sb.tracked(),
            MAX_IN_FLIGHT
        );
        let resuming = out.newly_acked > 0 && self.timeouts_since_progress >= RESUME_TIMEOUTS;
        if let Some(rtt) = out.rtt {
            self.rtt.on_sample(rtt);
            ctx.record_rtt(rtt);
            if self.windowed() {
                self.rto_backoff = 0;
            }
        }
        if out.newly_acked > 0 {
            self.last_progress_at = ctx.now;
            self.timeouts_since_progress = 0;
        }
        if resuming {
            self.resume(ctx, out.rtt);
        }
        // Loss detection (reordering threshold / deadline), both modes.
        self.scan_losses(ctx);
        // Recovery exit: cumulative ack passed the recovery point.
        if let Some(rp) = self.recovery_point {
            if self.sb.cum_ack() >= rp {
                self.recovery_point = None;
            }
        }
        if out.rtt.is_some() || out.newly_acked > 0 {
            let fallback = self.rtt.srtt_or(SimDuration::from_millis(100));
            let ack = AckEvent {
                now: ctx.now,
                seq: info.acked_seq,
                rtt: out.rtt.unwrap_or(fallback),
                sampled: out.rtt.is_some(),
                srtt: fallback,
                min_rtt: self.rtt.min_rtt().unwrap_or(fallback),
                max_rtt: self.rtt.max_rtt().unwrap_or(fallback),
                recv_at: info.recv_at,
                probe_train: info.probe_train,
                of_retx: info.of_retx,
                cum_ack: info.cum_ack,
                newly_acked: out.newly_acked.min(u32::MAX as u64) as u32,
                in_flight: self.sb.in_flight(),
                mss: self.mss(),
                in_recovery: self.in_recovery(),
            };
            if self.batched() {
                self.agg.on_ack(&ack);
            } else {
                // The ACK's deliveries count toward their epochs only now,
                // after the losses it revealed were delivered, and an epoch
                // they complete is reported with the ACK (and its RTT
                // sample).
                if let Some(epochs) = self.epochs.as_mut() {
                    epochs.credit_staged(ack.mss, out.rtt.map(|rtt| (rtt, ack.recv_at)));
                }
                self.with_cc_resolving(ctx, |c, cc| c.on_ack(&ack, cc));
            }
        }
        if self.windowed() {
            self.report_rate(ctx);
        }
        self.check_finished(ctx);
        self.try_send(ctx);
        if self.windowed() && out.newly_acked > 0 {
            self.arm_rto(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        if self.finished {
            // Completed or stalled: every timer still pending is stale,
            // the controller's included — it must not keep running empty
            // intervals to the horizon.
            return;
        }
        let gen = token & TOKEN_GEN_MASK;
        match token & !TOKEN_GEN_MASK {
            TOKEN_CTRL => {
                self.with_cc(ctx, |c, cc| c.on_timer(gen, cc));
                self.try_send(ctx);
            }
            TOKEN_PACE if self.pace.fire(gen) => self.on_pace_tick(ctx),
            TOKEN_SCAN if self.scan.fire(gen) => {
                self.scan_losses(ctx);
                self.arm_scan(ctx);
            }
            TOKEN_RTO if self.rto.fire(gen) => self.on_rto_event(ctx),
            TOKEN_TSO if self.tso.fire(gen) => self.on_tso_flush(ctx),
            TOKEN_REPORT if self.report.fire(gen) => self.flush_report(ctx),
            TOKEN_EPOCH => self.on_epoch_deadline(ctx),
            // A superseded arm.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Ctx;
    use crate::flow::FlowSize;
    use crate::receiver::SackReceiver;
    use pcc_simnet::link::LinkConfig;
    use pcc_simnet::prelude::*;

    /// Fixed-rate algorithm for engine tests (pure rate mode).
    struct FixedRate {
        bps: f64,
        acks: u64,
        losses: u64,
        sent: u64,
    }

    impl FixedRate {
        fn new(bps: f64) -> Self {
            FixedRate {
                bps,
                acks: 0,
                losses: 0,
                sent: 0,
            }
        }
    }

    impl CongestionControl for FixedRate {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(self.bps);
        }
        fn on_sent(&mut self, _ev: &SentEvent, _ctx: &mut Ctx) {
            self.sent += 1;
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {
            self.acks += 1;
        }
        fn on_loss(&mut self, loss: &LossEvent, _ctx: &mut Ctx) {
            self.losses += loss.seqs.len() as u64;
        }
    }

    /// Minimal Reno-like algorithm for engine tests (pure window mode; the
    /// real variants live in `pcc-tcp`).
    struct MiniReno {
        cwnd: f64,
        ssthresh: f64,
    }

    impl MiniReno {
        fn new() -> Self {
            MiniReno {
                cwnd: 10.0,
                ssthresh: f64::MAX,
            }
        }
    }

    impl CongestionControl for MiniReno {
        fn name(&self) -> &'static str {
            "mini-reno"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_cwnd(self.cwnd);
        }
        fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
            if ack.newly_acked == 0 || ack.in_recovery {
                return;
            }
            for _ in 0..ack.newly_acked {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0;
                } else {
                    self.cwnd += 1.0 / self.cwnd;
                }
            }
            ctx.set_cwnd(self.cwnd);
        }
        fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
            match loss.kind {
                LossKind::Detected => {
                    if loss.new_episode {
                        self.ssthresh = (self.cwnd / 2.0).max(2.0);
                        self.cwnd = self.ssthresh;
                    }
                }
                LossKind::Timeout => {
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = 1.0;
                }
            }
            ctx.set_cwnd(self.cwnd);
        }
    }

    /// Hybrid: MiniReno window plus an explicit pacing rate `cwnd/SRTT` —
    /// what the seed engine needed a config flag for is now two effects.
    struct PacedMiniReno {
        inner: MiniReno,
    }

    impl CongestionControl for PacedMiniReno {
        fn name(&self) -> &'static str {
            "mini-reno-paced"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.inner.on_start(ctx);
            ctx.set_rate(self.inner.cwnd * 1500.0 * 8.0 / 0.1);
        }
        fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
            self.inner.on_ack(ack, ctx);
            let srtt = ack.srtt.as_secs_f64().max(1e-6);
            ctx.set_rate(self.inner.cwnd * ack.mss as f64 * 8.0 / srtt);
        }
        fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
            self.inner.on_loss(loss, ctx);
            let srtt = SimDuration::from_millis(100).as_secs_f64();
            ctx.set_rate(self.inner.cwnd * loss.mss as f64 * 8.0 / srtt);
        }
    }

    fn net(seed: u64) -> NetworkBuilder {
        NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed,
        })
    }

    fn run_fixed(
        ctrl_bps: f64,
        link_mbps: f64,
        loss: f64,
        secs: u64,
        size: FlowSize,
        seed: u64,
    ) -> (SimReport, FlowId) {
        let mut net = net(seed);
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(link_mbps * 1e6, SimDuration::ZERO, 64_000).with_loss(loss),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let cfg = CcSenderConfig {
            transport: TransportConfig { mss: 1500, size },
            ..Default::default()
        };
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(cfg, Box::new(FixedRate::new(ctrl_bps)))),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        (net.build().run_until(SimTime::from_secs(secs)), flow)
    }

    fn run_tcp(
        rate_mbps: f64,
        rtt_ms: u64,
        buffer: u64,
        loss: f64,
        secs: u64,
        size: FlowSize,
        paced: bool,
    ) -> (SimReport, FlowId) {
        let mut net = net(12);
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(rate_mbps * 1e6, SimDuration::ZERO, buffer).with_loss(loss),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(rtt_ms));
        let cfg = CcSenderConfig {
            transport: TransportConfig { mss: 1500, size },
            ..Default::default()
        };
        let cc: Box<dyn CongestionControl> = if paced {
            Box::new(PacedMiniReno {
                inner: MiniReno::new(),
            })
        } else {
            Box::new(MiniReno::new())
        };
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(cfg, cc)),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        (net.build().run_until(SimTime::from_secs(secs)), flow)
    }

    // ---- rate mode (the seed RateSender suite) ---------------------------

    #[test]
    fn paces_at_requested_rate() {
        let (report, flow) = run_fixed(5e6, 100.0, 0.0, 10, FlowSize::Infinite, 1);
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(1), SimTime::from_secs(10));
        assert!((tput - 5.0).abs() < 0.25, "paced at 5 Mbps, got {tput}");
    }

    #[test]
    fn overdriving_pins_at_bottleneck() {
        let (report, flow) = run_fixed(50e6, 10.0, 0.0, 10, FlowSize::Infinite, 2);
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(1), SimTime::from_secs(10));
        assert!((tput - 10.0).abs() < 0.5, "pinned at 10 Mbps, got {tput}");
    }

    #[test]
    fn sized_flow_completes_under_loss() {
        let (report, flow) = run_fixed(10e6, 100.0, 0.1, 30, FlowSize::kb(256), 3);
        let st = &report.flows[flow.index()];
        assert!(
            st.completed_at.is_some(),
            "reliability: 256 KB must complete despite 10% loss"
        );
        assert!(st.detected_losses > 0);
    }

    #[test]
    fn detects_losses_close_to_link_rate() {
        let (report, flow) = run_fixed(20e6, 100.0, 0.05, 10, FlowSize::Infinite, 4);
        let st = &report.flows[flow.index()];
        let detected = st.detected_losses as f64;
        let sent = st.sent_packets as f64;
        let rate = detected / sent;
        assert!(
            (rate - 0.05).abs() < 0.015,
            "detected loss fraction {rate} vs configured 0.05"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_fixed(8e6, 10.0, 0.02, 5, FlowSize::Infinite, 77).0;
        let b = run_fixed(8e6, 10.0, 0.02, 5, FlowSize::Infinite, 77).0;
        assert_eq!(a.flows[0].delivered_bytes, b.flows[0].delivered_bytes);
        assert_eq!(a.flows[0].detected_losses, b.flows[0].detected_losses);
        assert_eq!(a.events_processed, b.events_processed);
    }

    // ---- window mode (the seed WindowSender suite) -----------------------

    #[test]
    fn fills_clean_pipe() {
        // 10 Mbps, 30 ms RTT, BDP buffer: Reno should keep the pipe full.
        let (report, flow) = run_tcp(10.0, 30, 37_500, 0.0, 10, FlowSize::Infinite, false);
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(2), SimTime::from_secs(10));
        assert!(tput > 9.0, "utilization {tput} Mbps of 10");
    }

    #[test]
    fn recovers_from_random_loss() {
        // With 0.1% loss the flow must keep making progress (not stall).
        let (report, flow) = run_tcp(10.0, 30, 37_500, 0.001, 20, FlowSize::Infinite, false);
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(5), SimTime::from_secs(20));
        assert!(tput > 2.0, "progress under loss: {tput} Mbps");
        assert!(report.flows[flow.index()].detected_losses > 0);
    }

    #[test]
    fn sized_flow_completes_reliably_under_loss() {
        // 100 KB across a 5% lossy link: every byte must eventually arrive.
        let (report, flow) = run_tcp(10.0, 20, 37_500, 0.05, 30, FlowSize::kb(100), false);
        let st = &report.flows[flow.index()];
        assert!(st.completed_at.is_some(), "flow must complete");
        assert_eq!(st.goodput_bytes, 100 * 1024 / 1500 * 1500 + 1500); // 69 pkts
    }

    #[test]
    fn goodput_never_exceeds_sent_unique_data() {
        let (report, flow) = run_tcp(5.0, 20, 18_750, 0.02, 10, FlowSize::Infinite, false);
        let st = &report.flows[flow.index()];
        assert!(st.goodput_bytes <= st.delivered_bytes);
        assert!(st.delivered_packets <= st.sent_packets);
    }

    #[test]
    fn survives_total_blackout_then_resumes() {
        // Link dies (100% loss) for 2 s mid-flow; RTO backoff must not wedge
        // the connection; after healing the flow resumes.
        let mut net = net(99);
        let mut sched = LinkSchedule::new();
        sched.push(LinkStep {
            at: SimTime::from_secs(3),
            rate_bps: None,
            delay: None,
            loss: Some(1.0),
        });
        sched.push(LinkStep {
            at: SimTime::from_secs(5),
            rate_bps: None,
            delay: None,
            loss: Some(0.0),
        });
        let fwd = net.add_link(
            LinkConfig::bottleneck(10e6, SimDuration::from_millis(10), 64_000).with_schedule(sched),
        );
        let rev = net.add_link(LinkConfig::delay_only(SimDuration::from_millis(10)));
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(
                CcSenderConfig::default(),
                Box::new(MiniReno::new()),
            )),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: vec![fwd],
            rev_path: vec![rev],
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(12));
        let resumed =
            report.avg_throughput_mbps(flow, SimTime::from_secs(8), SimTime::from_secs(12));
        assert!(resumed > 5.0, "flow resumed after blackout: {resumed} Mbps");
    }

    /// Drives one `CcSender` by hand, callback by callback. Every token the
    /// engine arms is kept, so a test fires the token the engine emitted.
    struct Harness {
        s: CcSender,
        rng: SimRng,
        /// What the last callback emitted.
        out: Vec<Action>,
        /// Every timer armed so far as `(due, token)`, oldest arm first.
        armed: Vec<(SimTime, u64)>,
    }

    impl Harness {
        fn new(cfg: CcSenderConfig, cc: impl CongestionControl + 'static) -> Self {
            Harness {
                s: CcSender::new(cfg, Box::new(cc)),
                rng: SimRng::new(1),
                out: Vec::new(),
                armed: Vec::new(),
            }
        }

        fn call(&mut self, now: SimTime, f: impl FnOnce(&mut CcSender, &mut EndpointCtx)) {
            self.out.clear();
            let mut ctx =
                EndpointCtx::new(now, FlowId(0), Side::Sender, &mut self.rng, &mut self.out);
            f(&mut self.s, &mut ctx);
            self.armed.extend(self.out.iter().filter_map(|a| match *a {
                Action::SetTimer { at, token } => Some((at, token)),
                _ => None,
            }));
        }

        /// The timers of `kind` armed so far, oldest arm first.
        fn arms(&self, kind: u64) -> Vec<(SimTime, u64)> {
            let of_kind = |&(_, t): &(SimTime, u64)| t & !TOKEN_GEN_MASK == kind;
            self.armed.iter().copied().filter(of_kind).collect()
        }

        /// Fire the newest token of `kind` at `now`.
        fn fire(&mut self, now: SimTime, kind: u64) {
            let (_, token) = *self
                .arms(kind)
                .last()
                .expect("a timer of this kind was armed");
            self.call(now, |s, ctx| s.on_timer(token, ctx));
        }

        /// `(seq, retx)` of every data packet the last callback sent.
        fn sent(&self) -> Vec<(u64, bool)> {
            self.out
                .iter()
                .filter_map(|a| match a {
                    Action::Send(p) => p.as_data().map(|d| (d.seq, d.retx)),
                    _ => None,
                })
                .collect()
        }
    }

    /// An ACK for `seq` that echoes a packet sent at `sent_at`.
    fn ack(seq: u64, cum_ack: u64, sent_at: SimTime, now: SimTime) -> Packet {
        let info = AckInfo {
            acked_seq: seq,
            cum_ack,
            echo_sent_at: sent_at,
            recv_at: now,
            recv_bytes: 0,
            probe_train: None,
            of_retx: false,
        };
        Packet::ack(FlowId(0), info)
    }

    /// Rate or window set by `start` in `on_start`, then `tick` each time
    /// its own timer fires; the timer is re-armed for the same instant.
    struct Scripted<S, T> {
        start: S,
        tick: T,
    }

    impl<S, T> CongestionControl for Scripted<S, T>
    where
        S: FnMut(&mut Ctx) + Send,
        T: FnMut(&mut Ctx) + Send,
    {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            (self.start)(ctx);
            ctx.set_timer(ctx.now, 0);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
            (self.tick)(ctx);
            ctx.set_timer(ctx.now, 0);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
    }

    fn sized(pkts: u64) -> CcSenderConfig {
        CcSenderConfig {
            transport: TransportConfig {
                mss: 1500,
                size: FlowSize::Bytes(pkts * 1500),
            },
            ..Default::default()
        }
    }

    #[test]
    fn only_the_newest_arm_of_each_engine_timer_fires() {
        // Each case arms one engine timer kind, then supersedes the arm or
        // arms it again while it is pending. Every token of the kind but
        // the newest must be ignored; the newest must act.
        const MS: fn(u64) -> SimTime = SimTime::from_millis;
        let start = |h: &mut Harness| h.call(SimTime::ZERO, |s, ctx| s.start(ctx));
        type Case = (&'static str, u64, usize, Harness);
        let cases: Vec<Case> = vec![
            {
                // The first RTO is armed off the 1 s initial RTO; the first
                // RTT sample brings the deadline forward to 220 ms.
                let cfg = CcSenderConfig {
                    tso_burst_pkts: 1,
                    ..sized(100)
                };
                let mut h = Harness::new(cfg, MiniReno::new());
                start(&mut h);
                h.call(MS(20), |s, ctx| {
                    s.on_packet(&ack(0, 1, SimTime::ZERO, ctx.now), ctx)
                });
                ("RTO re-armed to an earlier deadline", TOKEN_RTO, 2, h)
            },
            {
                // A loss episode flushes a report out of cadence, and the
                // next interval starts there.
                let cfg = CcSenderConfig {
                    report: Some(ReportMode::Batched),
                    ..sized(5)
                };
                let cc = Scripted {
                    start: |ctx: &mut Ctx| ctx.set_rate(1e9),
                    tick: |_: &mut Ctx| {},
                };
                let mut h = Harness::new(cfg, cc);
                start(&mut h);
                for _ in 0..5 {
                    h.fire(SimTime::ZERO, TOKEN_PACE);
                }
                for ms in (100..=1_000).step_by(100) {
                    h.fire(MS(ms), TOKEN_SCAN);
                }
                ("report tick after a loss flush", TOKEN_REPORT, 2, h)
            },
            {
                // A window too small for one offload burst waits for the
                // flush; growing it while the flush is pending arms nothing.
                let cc = Scripted {
                    start: |ctx: &mut Ctx| ctx.set_cwnd(10.0),
                    tick: |ctx: &mut Ctx| ctx.set_cwnd(12.0),
                };
                let mut h = Harness::new(sized(100), cc);
                start(&mut h);
                h.fire(SimTime::ZERO, TOKEN_CTRL);
                ("second TSO arm while pending", TOKEN_TSO, 1, h)
            },
        ];
        for (name, kind, arms, mut h) in cases {
            let mut due = h.arms(kind);
            assert_eq!(due.len(), arms, "{name}: armed {due:x?}");
            let (_, newest) = *due.last().expect("armed");
            // Each token fires at its own deadline, earliest first.
            due.sort_by_key(|&(at, _)| at);
            for (at, token) in due {
                h.call(at, |s, ctx| s.on_timer(token, ctx));
                assert_eq!(
                    !h.out.is_empty(),
                    token == newest,
                    "{name}: token {token:x} at {at:?} emitted {:?}",
                    h.out
                );
            }
        }
    }

    #[test]
    fn stale_retx_entries_drain_in_one_send_slot() {
        // Five packets go out, a scan writes all five off, then 0..4 turn
        // out to have been delivered after all: their retransmit-queue
        // entries are stale. The next pacing slot must skip every stale
        // entry and retransmit the one still-lost sequence — burning one
        // slot per stale entry would stall the tail of the transfer.
        let mut h = Harness::new(sized(5), FixedRate::new(1e9));
        h.call(SimTime::ZERO, |s, ctx| s.start(ctx));
        for seq in 0..5 {
            h.fire(SimTime::ZERO, TOKEN_PACE);
            assert_eq!(h.sent(), vec![(seq, false)]);
        }
        let later = SimTime::from_secs(1);
        h.fire(later, TOKEN_SCAN);
        assert_eq!(h.s.retx_queue.len(), 5, "the scan wrote the window off");
        for seq in 0..4 {
            h.call(later, |s, ctx| {
                s.on_packet(&ack(seq, seq + 1, SimTime::ZERO, later), ctx)
            });
            assert!(h.sent().is_empty(), "ACKs open no pacing slot");
        }
        assert_eq!(h.s.retx_queue.len(), 5, "four entries are now stale");
        h.fire(later, TOKEN_PACE);
        assert_eq!(h.sent(), vec![(4, true)]);
        assert!(h.s.retx_queue.is_empty(), "stale entries discarded eagerly");
    }

    // ---- graceful degradation: dead-time budget & resumption -------------

    /// Dumbbell whose forward link goes 100% lossy at `die` (and heals at
    /// `heal`, if given).
    fn blackout_net(
        seed: u64,
        die: SimTime,
        heal: Option<SimTime>,
    ) -> (NetworkBuilder, Vec<LinkId>, Vec<LinkId>) {
        let mut net = net(seed);
        let mut sched = LinkSchedule::new();
        sched.push(LinkStep {
            at: die,
            rate_bps: None,
            delay: None,
            loss: Some(1.0),
        });
        if let Some(at) = heal {
            sched.push(LinkStep {
                at,
                rate_bps: None,
                delay: None,
                loss: Some(0.0),
            });
        }
        let fwd = net.add_link(
            LinkConfig::bottleneck(10e6, SimDuration::from_millis(10), 64_000).with_schedule(sched),
        );
        let rev = net.add_link(LinkConfig::delay_only(SimDuration::from_millis(10)));
        (net, vec![fwd], vec![rev])
    }

    #[test]
    fn dead_time_budget_stalls_windowed_flow_with_partial_progress() {
        // Permanent blackout at 2 s with a 3 s budget: instead of backing
        // off forever, the engine aborts and records the stall.
        let (mut net, fwd, rev) = blackout_net(31, SimTime::from_secs(2), None);
        let cfg = CcSenderConfig {
            dead_time_budget: Some(SimDuration::from_secs(3)),
            ..Default::default()
        };
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(cfg, Box::new(MiniReno::new()))),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: fwd,
            rev_path: rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(30));
        let st = &report.flows[flow.index()];
        let stall = st.stalled.expect("typed stall recorded in flow stats");
        assert!(st.completed_at.is_none(), "the flow did not complete");
        assert!(stall.dark >= SimDuration::from_secs(3), "budget respected");
        assert!(stall.timeouts >= 1, "fruitless timeouts counted");
        assert!(
            stall.at < SimTime::from_secs(15),
            "gave up near budget + backoff, not at the horizon: {:?}",
            stall.at
        );
        assert!(st.delivered_bytes > 0, "partial progress preserved");
    }

    #[test]
    fn dead_time_budget_stalls_rate_flow_too() {
        // Pure rate mode has no RTO timer; the scan-driven budget must
        // still convert the blackout into a stall.
        let (mut net, fwd, rev) = blackout_net(32, SimTime::from_secs(2), None);
        let cfg = CcSenderConfig {
            dead_time_budget: Some(SimDuration::from_secs(3)),
            ..Default::default()
        };
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(cfg, Box::new(FixedRate::new(5e6)))),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: fwd,
            rev_path: rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(30));
        let st = &report.flows[flow.index()];
        let stall = st.stalled.expect("rate-mode stall recorded");
        assert!(stall.dark >= SimDuration::from_secs(3));
        assert!(stall.timeouts >= 3, "consecutive dark scans counted");
        assert!(
            stall.at < SimTime::from_secs(6),
            "rate mode gives up promptly: {:?}",
            stall.at
        );
    }

    /// Rate algorithm that counts its `on_resume` calls.
    struct ResumeProbe {
        inner: FixedRate,
        resumes: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl CongestionControl for ResumeProbe {
        fn name(&self) -> &'static str {
            "resume-probe"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.inner.on_start(ctx);
        }
        fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
            self.inner.on_ack(ack, ctx);
        }
        fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
            self.inner.on_loss(loss, ctx);
        }
        fn on_resume(&mut self, _ctx: &mut Ctx) {
            self.resumes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn outage_recovery_invokes_on_resume_and_flow_continues() {
        // Blackout from 2 s to 5 s, no budget: the engine must ride it out,
        // then detect the recovery, fire `on_resume`, and keep delivering.
        let (mut net, fwd, rev) =
            blackout_net(33, SimTime::from_secs(2), Some(SimTime::from_secs(5)));
        let resumes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(
                CcSenderConfig::default(),
                Box::new(ResumeProbe {
                    inner: FixedRate::new(5e6),
                    resumes: std::sync::Arc::clone(&resumes),
                }),
            )),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: fwd,
            rev_path: rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(12));
        assert!(
            resumes.load(std::sync::atomic::Ordering::Relaxed) >= 1,
            "the resumption hook fired"
        );
        let after = report.avg_throughput_mbps(flow, SimTime::from_secs(6), SimTime::from_secs(12));
        assert!(after > 3.0, "flow resumed after repair: {after} Mbps");
        assert!(
            report.flows[flow.index()].stalled.is_none(),
            "no budget, no stall"
        );
    }

    // ---- hybrid mode (rate + cwnd together) ------------------------------

    #[test]
    fn paced_window_moves_data() {
        let (report, flow) = run_tcp(10.0, 30, 37_500, 0.0, 10, FlowSize::Infinite, true);
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(2), SimTime::from_secs(10));
        assert!(tput > 8.0, "paced utilization {tput} Mbps of 10");
    }

    #[test]
    fn pacing_smooths_queue_occupancy() {
        // Paced TCP should have a lower peak backlog than burst TCP in slow
        // start on a deep buffer.
        let (burst, _) = run_tcp(10.0, 30, 1 << 20, 0.0, 5, FlowSize::Infinite, false);
        let (paced, _) = run_tcp(10.0, 30, 1 << 20, 0.0, 5, FlowSize::Infinite, true);
        let burst_peak = burst.links[0].queue.max_backlog_bytes;
        let paced_peak = paced.links[0].queue.max_backlog_bytes;
        assert!(
            paced_peak <= burst_peak,
            "paced peak {paced_peak} vs burst {burst_peak}"
        );
    }

    #[test]
    fn hybrid_respects_both_rate_and_window() {
        // A huge rate with a tiny window: the window must cap throughput at
        // ~cwnd/RTT, far below the requested rate.
        struct TinyWindowBigRate;
        impl CongestionControl for TinyWindowBigRate {
            fn name(&self) -> &'static str {
                "tiny-window"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_rate(100e6);
                ctx.set_cwnd(4.0);
            }
            fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
            fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
        }
        let mut net = net(5);
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(100e6, SimDuration::ZERO, 1 << 20),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(
                CcSenderConfig::default(),
                Box::new(TinyWindowBigRate),
            )),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(5));
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(1), SimTime::from_secs(5));
        // 4 pkts per 30 ms RTT = 1.6 Mbps; allow generous slack.
        assert!(tput < 3.0, "window caps the paced rate: {tput} Mbps");
        assert!(tput > 0.5, "data still flows: {tput} Mbps");
    }

    // ---- batched reports ------------------------------------------------

    /// Rate algorithm on the batched path: counts its reports and sums the
    /// per-report ack totals (shared with the test via a sink).
    struct BatchedFixed {
        bps: f64,
        sink: std::sync::Arc<std::sync::Mutex<(u64, u64, u64)>>, // (reports, acked, lost)
    }

    impl CongestionControl for BatchedFixed {
        fn name(&self) -> &'static str {
            "batched-fixed"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(self.bps);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {
            panic!("batched mode must not deliver per-ACK events");
        }
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {
            panic!("batched mode must not deliver per-event losses");
        }
        fn report_mode(&self) -> ReportMode {
            ReportMode::batched_rtt()
        }
        fn on_report(&mut self, rep: &crate::report::MeasurementReport, _ctx: &mut Ctx) {
            let mut s = pcc_simnet::sync::lock(&self.sink);
            s.0 += 1;
            s.1 += rep.acked_pkts;
            s.2 += rep.lost_pkts;
        }
    }

    /// Run one [`BatchedFixed`] flow at 10 Mbps over a 2%-lossy 30 ms
    /// dumbbell; returns its `(reports, acked, lost)` sums and the
    /// packets the flow delivered.
    fn run_batched_fixed(cfg: CcSenderConfig, seed: u64, secs: u64) -> ((u64, u64, u64), u64) {
        let sink = std::sync::Arc::new(std::sync::Mutex::new((0u64, 0u64, 0u64)));
        let mut net = net(seed);
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000).with_loss(0.02),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(
                cfg,
                Box::new(BatchedFixed {
                    bps: 10e6,
                    sink: std::sync::Arc::clone(&sink),
                }),
            )),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(secs));
        let sums = *pcc_simnet::sync::lock(&sink);
        (sums, report.flows[flow.index()].delivered_packets)
    }

    #[test]
    fn batched_path_aggregates_instead_of_per_ack() {
        let ((reports, acked, lost), delivered) =
            run_batched_fixed(CcSenderConfig::default(), 21, 10);
        // ~10 s at one report per 30 ms RTT ⇒ hundreds of reports, far
        // fewer than the ~8000 ACKs per-ACK mode would have delivered.
        assert!(reports > 100, "reports delivered on cadence: {reports}");
        assert!(
            reports < delivered / 4,
            "batching amortized: {reports} reports vs {delivered} acks"
        );
        // Aggregation is lossless: summed report fields cover what the
        // engine resolved (the final partial interval is never emitted).
        assert!(acked <= delivered);
        assert!(acked >= delivered * 95 / 100);
        assert!(lost > 0, "2% loss surfaced through reports");
    }

    #[test]
    fn a_per_ack_override_cannot_refine_a_batched_algorithm() {
        // The config override only coarsens: an algorithm that asks for
        // reports has no per-ACK path, so `Some(PerAck)` leaves it on
        // reports. `BatchedFixed` panics on any `on_ack` or `on_loss`.
        let cfg = CcSenderConfig {
            report: Some(ReportMode::PerAck),
            ..Default::default()
        };
        let ((reports, acked, _), delivered) = run_batched_fixed(cfg, 24, 2);
        assert!(reports > 10, "reports still delivered: {reports}");
        assert!(acked > 0 && acked <= delivered, "{acked} of {delivered}");
    }

    #[test]
    fn config_override_forces_batching_on_a_per_ack_algorithm() {
        // MiniReno knows nothing about reports; forcing batched mode must
        // keep the engine machinery alive (window clocking, RTO) even
        // though the algorithm sees no events after on_start — cwnd just
        // stays at its initial value.
        let mut net = net(23);
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(10e6, SimDuration::ZERO, 64_000),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let cfg = CcSenderConfig {
            report: Some(ReportMode::batched_rtt()),
            ..Default::default()
        };
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(cfg, Box::new(MiniReno::new()))),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(5));
        let tput = report.avg_throughput_mbps(flow, SimTime::from_secs(1), SimTime::from_secs(5));
        // 10-packet initial window over 30 ms RTT ⇒ ~4 Mbps, ack-clocked.
        assert!(tput > 2.0, "static window still moves data: {tput} Mbps");
    }

    // ---- send epochs ----------------------------------------------------

    /// What each epoch report said: (start, sent, acked, lost).
    type EpochLog = std::sync::Arc<std::sync::Mutex<Vec<(SimTime, u64, u64, u64)>>>;

    /// A fixed-rate algorithm on send epochs: it opens one at start, at
    /// each of its timers and at a resume, and logs every report.
    struct EpochProbe {
        bps: f64,
        log: EpochLog,
    }

    impl EpochProbe {
        const SLACK: SimDuration = SimDuration::from_secs(10);

        fn next_epoch(ctx: &mut Ctx) {
            ctx.begin_epoch(Self::SLACK);
            ctx.set_timer(ctx.now + SimDuration::from_secs(100), 0);
        }

        fn record(&self, ctx: &Ctx) {
            let mut log = pcc_simnet::sync::lock(&self.log);
            for rep in ctx.epoch_reports() {
                log.push((rep.start, rep.sent_pkts, rep.acked_pkts, rep.lost_pkts));
            }
        }
    }

    impl CongestionControl for EpochProbe {
        fn name(&self) -> &'static str {
            "epoch-probe"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(self.bps);
            Self::next_epoch(ctx);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
            self.record(ctx);
            if token != EPOCH_DEADLINE {
                Self::next_epoch(ctx);
            }
        }
        fn on_resume(&mut self, ctx: &mut Ctx) {
            Self::next_epoch(ctx);
        }
        fn on_ack(&mut self, _ack: &AckEvent, ctx: &mut Ctx) {
            self.record(ctx);
        }
        fn on_loss(&mut self, _loss: &LossEvent, ctx: &mut Ctx) {
            self.record(ctx);
        }
        fn report_mode(&self) -> ReportMode {
            ReportMode::Epochs
        }
        fn on_report(&mut self, _rep: &crate::report::MeasurementReport, _ctx: &mut Ctx) {
            panic!("epoch reports ride on the per-ACK callbacks");
        }
    }

    #[test]
    fn the_batching_override_leaves_epochs_alone() {
        let resolved = |report, cc: Box<dyn CongestionControl>| {
            let mut s = CcSender::new(CcSenderConfig { report, ..sized(4) }, cc);
            let mut rng = SimRng::new(1);
            let mut out = Vec::new();
            s.try_start(&mut EndpointCtx::new(
                SimTime::ZERO,
                FlowId(0),
                Side::Sender,
                &mut rng,
                &mut out,
            ))
            .map(|()| (s.report_mode, s.epochs.is_some()))
        };
        let probe = || {
            Box::new(EpochProbe {
                bps: 1e6,
                log: EpochLog::default(),
            })
        };
        let fixed = || Box::new(FixedRate::new(1e6));
        assert_eq!(
            resolved(Some(ReportMode::Batched), probe()),
            Ok((ReportMode::Epochs, true))
        );
        assert_eq!(
            resolved(Some(ReportMode::PerAck), probe()),
            Ok((ReportMode::Epochs, true))
        );
        assert_eq!(
            resolved(Some(ReportMode::Batched), fixed()),
            Ok((ReportMode::Batched, false))
        );
        // No host can force epochs: the algorithm opens them.
        for cc in [probe() as Box<dyn CongestionControl>, fixed()] {
            let err = resolved(Some(ReportMode::Epochs), cc).unwrap_err();
            assert!(err.contains("send epochs cannot be forced"), "{err}");
        }
    }

    #[test]
    fn epoch_reports_conserve_packets_over_a_lossy_link() {
        // Epochs of 50 ms at 10 Mbps through 2% loss: every report
        // accounts for each packet it sent exactly once, and together they
        // cover all but the last few epochs' packets.
        struct Timed(EpochProbe);
        impl CongestionControl for Timed {
            fn name(&self) -> &'static str {
                "timed-epochs"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                self.0.on_start(ctx);
                ctx.set_timer(ctx.now + SimDuration::from_millis(50), 0);
            }
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
                self.0.record(ctx);
                if token != EPOCH_DEADLINE {
                    ctx.begin_epoch(SimDuration::from_millis(100));
                    ctx.set_timer(ctx.now + SimDuration::from_millis(50), 0);
                }
            }
            fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
                self.0.on_ack(ack, ctx);
            }
            fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
                self.0.on_loss(loss, ctx);
            }
            fn report_mode(&self) -> ReportMode {
                ReportMode::Epochs
            }
        }
        let log = EpochLog::default();
        let mut net = net(41);
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000).with_loss(0.02),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let probe = EpochProbe {
            bps: 10e6,
            log: std::sync::Arc::clone(&log),
        };
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(
                CcSenderConfig::default(),
                Box::new(Timed(probe)),
            )),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(5));
        let log = pcc_simnet::sync::lock(&log);
        assert!(
            log.len() > 90,
            "an epoch per 50 ms, reported: {}",
            log.len()
        );
        assert!(log.windows(2).all(|w| w[0].0 < w[1].0), "in order");
        assert!(log
            .iter()
            .all(|&(_, sent, acked, lost)| acked + lost == sent));
        let lost: u64 = log.iter().map(|r| r.3).sum();
        let sent: u64 = log.iter().map(|r| r.1).sum();
        let all = report.flows[flow.index()].sent_packets;
        assert!(
            sent <= all && sent + 100 >= all,
            "{sent} of {all} sent in reported epochs"
        );
        assert!(
            lost * 100 > sent && lost * 100 < sent * 4,
            "2% loss: {lost} of {sent}"
        );
    }

    /// Four packets sent at 0 and written off by three fruitless scans
    /// (1, 2 and 3 s), retransmitted after the first two; then a
    /// retransmission of 0 at `resend_at` (after `close_at`, an epoch
    /// boundary, if given). At 4 s the late ACK of 1 ends the outage:
    /// the engine resumes, and the algorithm opens an epoch at 4 s. Then
    /// the ACK of 0 arrives, an epoch boundary closes the resume's epoch,
    /// and its deadline reports it. Returns every report.
    fn epochs_through_a_resume(
        resend_at: SimTime,
        close_at: Option<SimTime>,
    ) -> Vec<(SimTime, u64, u64, u64)> {
        let secs = SimTime::from_secs;
        let log = EpochLog::default();
        let probe = EpochProbe {
            bps: 1e9,
            log: std::sync::Arc::clone(&log),
        };
        let mut h = Harness::new(sized(4), probe);
        h.call(SimTime::ZERO, |s, ctx| s.start(ctx));
        (0..4).for_each(|_| h.fire(SimTime::ZERO, TOKEN_PACE));
        for s in 1..=3 {
            h.fire(secs(s), TOKEN_SCAN);
            assert_eq!(h.s.sb.lost_seqs(), [0, 1, 2, 3], "scan at {s} s");
            if s < 3 {
                (0..4).for_each(|_| h.fire(secs(s), TOKEN_PACE));
            }
        }
        h.fire(resend_at, TOKEN_PACE);
        assert_eq!(h.sent(), [(0, true)]);
        if let Some(at) = close_at {
            h.fire(at, TOKEN_CTRL);
        }
        h.call(secs(4), |s, ctx| {
            s.on_packet(&ack(1, 0, secs(2), ctx.now), ctx)
        });
        assert_eq!(h.s.timeouts_since_progress, 0, "the outage ended");
        let later = |ms| secs(4) + SimDuration::from_millis(ms);
        h.call(later(10), |s, ctx| {
            s.on_packet(&ack(0, 2, resend_at, ctx.now), ctx)
        });
        h.fire(later(20), TOKEN_CTRL);
        h.fire(later(30), TOKEN_EPOCH);
        let log = pcc_simnet::sync::lock(&log).clone();
        log
    }

    #[test]
    fn a_send_at_the_resume_instant_is_not_the_resumed_epochs() {
        // The retransmission at 4 s left before the resume at 4 s: the
        // epoch the resume opens must not be credited with its ACK.
        let reports = epochs_through_a_resume(SimTime::from_secs(4), None);
        assert_eq!(reports, [(SimTime::from_secs(4), 0, 0, 0)]);
    }

    #[test]
    fn a_resume_drops_the_epochs_awaiting_resolution() {
        // The retransmission at 3.5 s is the only unresolved packet of an
        // epoch closed at 3.6 s. The resume drops that epoch, so the ACK
        // that would have resolved it completes nothing.
        let ms = SimTime::from_millis;
        let reports = epochs_through_a_resume(ms(3_500), Some(ms(3_600)));
        assert_eq!(reports, [(SimTime::from_secs(4), 0, 0, 0)]);
    }

    #[test]
    fn closing_epochs_arms_one_deadline_event_per_instant() {
        // Five epochs, each with one packet that is never ACKed, closed
        // 1 ms apart: each close arms at the oldest epoch's deadline, and
        // one event is pending for it, not one per close. Each firing
        // writes off one epoch and arms the next deadline once.
        let ms = SimTime::from_millis;
        let due = |i| ms(i) + EpochProbe::SLACK;
        let log = EpochLog::default();
        let probe = EpochProbe {
            bps: 1e6,
            log: std::sync::Arc::clone(&log),
        };
        let mut h = Harness::new(CcSenderConfig::default(), probe);
        h.call(SimTime::ZERO, |s, ctx| s.start(ctx));
        for i in 1..=5 {
            h.fire(ms(i - 1), TOKEN_PACE);
            h.fire(ms(i), TOKEN_CTRL);
        }
        assert_eq!(h.arms(TOKEN_EPOCH), [(due(1), TOKEN_EPOCH)]);
        assert_eq!(h.s.epoch_arms, [due(1)]);
        for i in 1..=5 {
            h.fire(due(i), TOKEN_EPOCH);
            let armed: Vec<_> = h.arms(TOKEN_EPOCH).iter().map(|&(at, _)| at).collect();
            let next = (i < 5).then(|| due(i + 1));
            assert_eq!(armed, (1..=i).map(due).chain(next).collect::<Vec<_>>());
            assert_eq!(h.s.epoch_arms, Vec::from_iter(next));
        }
        let reports: Vec<_> = (0..5).map(|i| (ms(i), 1, 0, 1)).collect();
        assert_eq!(*pcc_simnet::sync::lock(&log), reports);
    }

    /// Hand-outs as (instant, epoch start, packets sent).
    type HandOuts = std::sync::Arc<std::sync::Mutex<Vec<(SimTime, SimTime, u64)>>>;

    /// Closes the open epoch in every deadline callback, as PCC does when
    /// a judgement starts a new interval, and panics if called a third
    /// time at one instant.
    struct Reopener {
        log: HandOuts,
        /// The instant of the latest deadline callback, and how many
        /// callbacks that instant had.
        calls: (SimTime, u32),
    }

    impl CongestionControl for Reopener {
        fn name(&self) -> &'static str {
            "reopener"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(1e6);
            ctx.begin_epoch(EpochProbe::SLACK);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
            if token == EPOCH_DEADLINE {
                let reports = ctx.epoch_reports().iter();
                pcc_simnet::sync::lock(&self.log)
                    .extend(reports.map(|rep| (ctx.now, rep.start, rep.sent_pkts)));
                let (at, n) = self.calls;
                let n = if at == ctx.now { n + 1 } else { 1 };
                assert!(n <= 2, "a third deadline pass at {:?}", ctx.now);
                self.calls = (ctx.now, n);
            }
            ctx.begin_epoch(EpochProbe::SLACK);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
        fn report_mode(&self) -> ReportMode {
            ReportMode::Epochs
        }
    }

    /// A [`Reopener`] whose first epoch sent one packet at 0 and closed at
    /// 1 ms; nothing is ever ACKed. Returns it and its hand-outs.
    fn reopened() -> (Harness, HandOuts) {
        let log = HandOuts::default();
        let probe = Reopener {
            log: std::sync::Arc::clone(&log),
            calls: (SimTime::MAX, 0),
        };
        let mut h = Harness::new(CcSenderConfig::default(), probe);
        h.call(SimTime::ZERO, |s, ctx| s.start(ctx));
        h.fire(SimTime::ZERO, TOKEN_PACE);
        h.call(SimTime::from_millis(1), |s, ctx| {
            s.on_timer(TOKEN_CTRL, ctx)
        });
        (h, log)
    }

    #[test]
    fn a_deadline_hands_out_the_resolved_epoch_its_callback_closed() {
        // The first epoch's deadline writes it off; judging it closes the
        // second, empty and so resolved, which the same firing hands out.
        let (mut h, log) = reopened();
        let due = SimTime::from_millis(1) + EpochProbe::SLACK;
        h.fire(due, TOKEN_EPOCH);
        assert_eq!(
            *pcc_simnet::sync::lock(&log),
            [(due, SimTime::ZERO, 1), (due, SimTime::from_millis(1), 0)]
        );
    }

    #[test]
    fn a_deadline_firing_stops_after_two_passes() {
        // Every pass closes another empty epoch. The firing returns after
        // the second, leaving the third resolved epoch to an event at its
        // own deadline: none is pending at this instant, so the probe is
        // never called a third time here.
        let (mut h, log) = reopened();
        let due = SimTime::from_millis(1) + EpochProbe::SLACK;
        h.fire(due, TOKEN_EPOCH);
        assert_eq!(h.s.epochs.as_ref().map(|e| e.ready(due)), Some(1));
        let next = due + EpochProbe::SLACK;
        assert_eq!(h.s.epoch_arms, [next]);
        h.fire(next, TOKEN_EPOCH);
        let at: Vec<_> = pcc_simnet::sync::lock(&log).iter().map(|r| r.0).collect();
        assert_eq!(at, [due, due, next, next]);
    }

    /// Random scripts against the deadline machinery: every closed epoch
    /// is handed out once, in order, by its deadline (or an older epoch's
    /// later one, which holds it back), and the engine's pending instants
    /// are exactly the deadline events armed and not yet fired.
    mod deadline_liveness {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};
        use std::sync::{Arc, Mutex};

        /// What the algorithm saw, in order.
        #[derive(Clone, Copy, Debug)]
        enum Seen {
            /// It opened an epoch at this instant with this slack.
            Begin(SimTime, SimDuration),
            /// The engine resumed (and dropped every epoch first).
            Resume,
            /// A report handed out: (instant, start, sent, acked, lost).
            Report(SimTime, SimTime, u64, u64, u64),
        }

        #[derive(Default)]
        struct Shared {
            seen: Vec<Seen>,
            /// The slack of the next epoch it opens.
            slack: SimDuration,
        }

        /// Paced at 100 Mbps on send epochs; opens an epoch at start, at
        /// each of its timers and at a resume.
        struct Opener(Arc<Mutex<Shared>>);

        impl Opener {
            fn begin(&self, ctx: &mut Ctx) {
                let mut shared = pcc_simnet::sync::lock(&self.0);
                let slack = shared.slack;
                shared.seen.push(Seen::Begin(ctx.now, slack));
                ctx.begin_epoch(slack);
            }
            fn record(&self, ctx: &Ctx) {
                let reports = ctx.epoch_reports().iter().map(|rep| {
                    let counts = (rep.sent_pkts, rep.acked_pkts, rep.lost_pkts);
                    Seen::Report(ctx.now, rep.start, counts.0, counts.1, counts.2)
                });
                pcc_simnet::sync::lock(&self.0).seen.extend(reports);
            }
        }

        impl CongestionControl for Opener {
            fn name(&self) -> &'static str {
                "opener"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_rate(100e6);
                self.begin(ctx);
            }
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
                self.record(ctx);
                if token != EPOCH_DEADLINE {
                    self.begin(ctx);
                }
            }
            fn on_resume(&mut self, ctx: &mut Ctx) {
                pcc_simnet::sync::lock(&self.0).seen.push(Seen::Resume);
                self.begin(ctx);
            }
            fn on_ack(&mut self, _ack: &AckEvent, ctx: &mut Ctx) {
                self.record(ctx);
            }
            fn on_loss(&mut self, _loss: &LossEvent, ctx: &mut Ctx) {
                self.record(ctx);
            }
            fn report_mode(&self) -> ReportMode {
                ReportMode::Epochs
            }
        }

        /// The epochs the engine should hold, replayed from what the
        /// algorithm saw: each live one's start and, once closed, the
        /// instant it must be handed out by.
        #[derive(Default)]
        struct Model {
            live: VecDeque<(SimTime, Option<SimTime>)>,
            /// The latest deadline since the last resume.
            latest: Option<SimTime>,
        }

        impl Model {
            fn replay(&mut self, seen: &[Seen]) {
                for &ev in seen {
                    match ev {
                        Seen::Begin(now, slack) => {
                            if let Some(open) = self.live.back_mut().filter(|e| e.1.is_none()) {
                                self.latest = self.latest.max(Some(now + slack));
                                open.1 = self.latest;
                            }
                            self.live.push_back((now, None));
                        }
                        Seen::Resume => *self = Model::default(),
                        Seen::Report(at, start, sent, acked, lost) => {
                            let (began, by) = self.live.pop_front().expect("a live epoch");
                            prop_assert_eq!(began, start, "oldest first, each once");
                            let by = by.expect("only closed epochs are handed out");
                            prop_assert!(at <= by, "handed out at {at:?}, due by {by:?}");
                            prop_assert_eq!(acked + lost, sent);
                        }
                    }
                }
            }

            /// True if no closed epoch was due by `now`.
            fn none_overdue(&self, now: SimTime) -> bool {
                self.live.iter().all(|e| e.1.is_none_or(|by| by > now))
            }
        }

        struct Rig {
            h: Harness,
            shared: Arc<Mutex<Shared>>,
            replayed: usize,
            model: Model,
            now: SimTime,
            /// Deadline events armed and not fired: (instant, arm order).
            pending: Vec<(SimTime, u64)>,
            arms: u64,
            /// Sequences sent and not yet ACKed, with their latest send.
            outstanding: BTreeMap<u64, SimTime>,
            received: BTreeSet<u64>,
        }

        impl Rig {
            fn new() -> Self {
                let shared = Arc::new(Mutex::new(Shared::default()));
                let h = Harness::new(CcSenderConfig::default(), Opener(Arc::clone(&shared)));
                let mut d = Rig {
                    h,
                    shared,
                    replayed: 0,
                    model: Model::default(),
                    now: SimTime::ZERO,
                    pending: Vec::new(),
                    arms: 0,
                    outstanding: BTreeMap::new(),
                    received: BTreeSet::new(),
                };
                d.call(|s, ctx| s.start(ctx));
                d
            }

            /// Run `f` at the rig's clock, then check the engine's
            /// pending instants against the events armed and not fired.
            fn call(&mut self, f: impl FnOnce(&mut CcSender, &mut EndpointCtx)) {
                let now = self.now;
                self.h.call(now, f);
                for a in &self.h.out {
                    match a {
                        Action::SetTimer { at, token }
                            if token & !TOKEN_GEN_MASK == TOKEN_EPOCH =>
                        {
                            prop_assert!(*at >= now, "armed in the past");
                            self.pending.push((*at, self.arms));
                            self.arms += 1;
                        }
                        Action::Send(p) => {
                            if let Some(d) = p.as_data() {
                                self.outstanding.insert(d.seq, now);
                            }
                        }
                        _ => {}
                    }
                }
                let seen = pcc_simnet::sync::lock(&self.shared).seen.clone();
                self.model.replay(&seen[self.replayed..]);
                self.replayed = seen.len();
                let mut armed: Vec<SimTime> = self.pending.iter().map(|p| p.0).collect();
                armed.sort();
                let mut engine = self.h.s.epoch_arms.clone();
                engine.sort();
                prop_assert_eq!(&engine, &armed);
                armed.dedup();
                prop_assert_eq!(engine.len(), armed.len(), "one event per instant");
            }

            /// Fire the newest armed token of an engine timer kind.
            fn fire(&mut self, kind: u64) {
                if let Some(&(_, token)) = self.h.arms(kind).last() {
                    self.call(|s, ctx| s.on_timer(token, ctx));
                }
            }

            /// Fire every deadline event due by `t` in firing order, then
            /// move the clock to `t`.
            fn advance(&mut self, t: SimTime) {
                while let Some(i) = (0..self.pending.len())
                    .filter(|&i| self.pending[i].0 <= t)
                    .min_by_key(|&i| self.pending[i])
                {
                    self.now = self.pending.remove(i).0;
                    self.call(|s, ctx| s.on_timer(TOKEN_EPOCH, ctx));
                }
                self.now = t;
                prop_assert!(self.model.none_overdue(t), "an epoch overdue at {t:?}");
            }

            /// ACK the `pick`-th outstanding sequence.
            fn ack(&mut self, pick: usize) {
                let Some((&seq, &sent_at)) = self
                    .outstanding
                    .iter()
                    .nth(pick % self.outstanding.len().max(1))
                else {
                    return;
                };
                self.outstanding.remove(&seq);
                self.received.insert(seq);
                let cum = (0..).find(|s| !self.received.contains(s)).unwrap_or(0);
                self.call(|s, ctx| s.on_packet(&ack(seq, cum, sent_at, ctx.now), ctx));
            }
        }

        proptest! {
            #[test]
            fn every_closed_epoch_is_handed_out_once_by_its_deadline(
                script in proptest::collection::vec((0u8..6, 0u8..=255, 0u8..10), 1..200),
            ) {
                let mut d = Rig::new();
                for (kind, mag, dt) in script {
                    d.advance(d.now + SimDuration::from_millis(u64::from(dt)));
                    match kind {
                        0 | 1 => d.fire(TOKEN_PACE),
                        2 => d.ack(usize::from(mag)),
                        3 => d.fire(TOKEN_SCAN),
                        4 => {
                            let slack = SimDuration::from_millis(u64::from(mag % 64));
                            pcc_simnet::sync::lock(&d.shared).slack = slack;
                            d.call(|s, ctx| s.on_timer(TOKEN_CTRL, ctx));
                        }
                        _ if mag % 8 == 0 => d.call(|s, ctx| s.resume(ctx, None)),
                        _ => d.ack(usize::from(mag)),
                    }
                }
                d.advance(SimTime::MAX);
                prop_assert!(d.pending.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "neither a rate nor a cwnd")]
    fn algorithm_must_declare_operating_point() {
        struct Lazy;
        impl CongestionControl for Lazy {
            fn name(&self) -> &'static str {
                "lazy"
            }
            fn on_start(&mut self, _ctx: &mut Ctx) {}
            fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
            fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
        }
        let mut net = net(1);
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(10e6, SimDuration::ZERO, 64_000),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(10));
        net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(CcSenderConfig::default(), Box::new(Lazy))),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        net.build().run_until(SimTime::from_secs(1));
    }
}
