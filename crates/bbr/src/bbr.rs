//! The BBR-style state machine: Startup → Drain → ProbeBW ⇄ ProbeRTT,
//! driven by the [`crate::model`] path model, requesting *both* effects —
//! `set_rate(pacing_gain · btl_bw)` and `set_cwnd(cwnd_gain · BDP)` — on
//! every control decision.

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent, LossKind, SentEvent};
use pcc_transport::registry::CcParams;
use pcc_transport::report::MeasurementReport;

use crate::model::{DeliverySampler, MaxBwFilter, MinRttTracker};

/// Startup pacing/cwnd gain, `2/ln 2` ≈ 2.885: the smallest gain that
/// still doubles the sending rate every round while the pipe is unfilled.
pub const STARTUP_GAIN: f64 = 2.0 / std::f64::consts::LN_2;
/// Drain pacing gain, the inverse of [`STARTUP_GAIN`]: one round at
/// `ln 2 / 2` removes exactly the queue Startup's overshoot built.
pub const DRAIN_GAIN: f64 = std::f64::consts::LN_2 / 2.0;
/// ProbeBW's eight-slot pacing-gain cycle: probe up ¼, drain the probe's
/// queue, then cruise six rounds at the estimate.
pub const CYCLE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Steady-state cwnd gain: twice the BDP absorbs delayed/aggregated ACKs.
pub const CWND_GAIN: f64 = 2.0;
/// Never let the window collapse below this (BBR's MinPipeCwnd).
pub const MIN_CWND_PKTS: f64 = 4.0;
/// Quantization slack added to the cwnd target.
const CWND_SLACK_PKTS: f64 = 3.0;
/// Bottleneck-bandwidth filter window, in packet-timed round trips.
pub const BW_WINDOW_ROUNDS: u64 = 10;
/// Min-RTT estimate lifetime before a deliberate re-probe.
pub const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Time spent near-idle re-measuring the propagation RTT.
pub const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
/// Startup exits after this many rounds without ≥25% bandwidth growth.
const FULL_BW_ROUNDS: u32 = 3;
/// "Still growing" threshold for the Startup exit check.
const FULL_BW_GROWTH: f64 = 1.25;
/// The sender's initial window (packets), also the pre-sample BDP guess.
const INITIAL_CWND_PKTS: f64 = 10.0;

/// Control states (§BBR: one four-phase machine).
#[derive(Clone, Copy, Debug, PartialEq)]
enum State {
    /// Exponential search for the bottleneck bandwidth.
    Startup,
    /// Remove the queue Startup built.
    Drain,
    /// Steady state: cycle pacing gains around the estimate, slot `phase`.
    ProbeBw { phase: usize, phase_start: SimTime },
    /// Near-idle re-measurement of the propagation RTT. `min_seen` holds
    /// only RTTs *sampled during the probe* — seeding it from the (by
    /// definition stale) pre-probe estimate would let the probe conclude
    /// by re-installing exactly the value it set out to re-measure.
    ProbeRtt {
        until: SimTime,
        min_seen: Option<SimDuration>,
    },
}

/// A BBR-style model-based congestion controller — the workspace's
/// reference *hybrid* algorithm: every control decision requests a pacing
/// rate *and* a congestion window, so the engine
/// ([`pcc_transport::CcSender`], in simulation and on real UDP sockets
/// alike) enforces both simultaneously.
///
/// Faithful to BBR v1's architecture (windowed max-bandwidth filter,
/// windowed min-RTT with deliberate ProbeRTT refresh, the four-phase gain
/// machine, loss-blindness in steady state); simplified in ways that do
/// not affect the paper-comparison role: no app-limited accounting (the
/// evaluation's flows are backlogged), no packet-conservation recovery
/// phase (a timeout clamps the window to [`MIN_CWND_PKTS`] for one round
/// instead), and ProbeBW's 1.25-slot advances on time rather than on
/// inflight feedback.
pub struct Bbr {
    mss: u32,
    rtt_hint: SimDuration,
    bw: MaxBwFilter,
    min_rtt: MinRttTracker,
    sampler: DeliverySampler,
    /// Packet-timed round trips observed.
    round: u64,
    /// `delivered` level that, once carried by an acked packet's send
    /// record, marks the start of the next round.
    next_round_delivered: u64,
    /// Startup concluded the pipe is full.
    filled_pipe: bool,
    full_bw: f64,
    full_bw_count: u32,
    state: State,
    /// Post-RTO packet conservation: clamp cwnd until the next round.
    conservation: bool,
    /// Generation tag for the ProbeRTT exit timer.
    timer_gen: u64,
}

impl Bbr {
    /// Build from registry construction parameters: MSS and RTT hint
    /// seed the pre-sample model.
    pub fn new(params: &CcParams) -> Self {
        Bbr {
            mss: params.mss.max(1),
            rtt_hint: params.rtt_hint,
            bw: MaxBwFilter::new(BW_WINDOW_ROUNDS),
            min_rtt: MinRttTracker::new(),
            sampler: DeliverySampler::new(),
            round: 0,
            next_round_delivered: 0,
            filled_pipe: false,
            full_bw: 0.0,
            full_bw_count: 0,
            state: State::Startup,
            conservation: false,
            timer_gen: 0,
        }
    }

    /// Current bottleneck-bandwidth estimate, bits/sec (pre-sample: the
    /// initial window spread over the RTT hint).
    pub fn btl_bw_bps(&self) -> f64 {
        self.bw.get().unwrap_or_else(|| {
            INITIAL_CWND_PKTS * self.mss as f64 * 8.0 / self.rtt_hint.as_secs_f64().max(1e-6)
        })
    }

    /// Current propagation-RTT estimate (pre-sample: the hint).
    pub fn min_rtt_estimate(&self) -> SimDuration {
        self.min_rtt.get().unwrap_or(self.rtt_hint)
    }

    /// Bandwidth-delay product in packets under the current model.
    pub fn bdp_pkts(&self) -> f64 {
        let bits = self.btl_bw_bps() * self.min_rtt_estimate().as_secs_f64();
        (bits / (self.mss as f64 * 8.0)).max(1.0)
    }

    /// Human-readable state name (tests, traces).
    pub fn phase_name(&self) -> &'static str {
        match self.state {
            State::Startup => "startup",
            State::Drain => "drain",
            State::ProbeBw { .. } => "probe-bw",
            State::ProbeRtt { .. } => "probe-rtt",
        }
    }

    /// True once Startup has measured a bandwidth plateau.
    pub fn filled_pipe(&self) -> bool {
        self.filled_pipe
    }

    fn pacing_gain(&self) -> f64 {
        match self.state {
            State::Startup => STARTUP_GAIN,
            State::Drain => DRAIN_GAIN,
            State::ProbeBw { phase, .. } => CYCLE_GAINS[phase],
            State::ProbeRtt { .. } => 1.0,
        }
    }

    fn cwnd_gain(&self) -> f64 {
        match self.state {
            State::Startup | State::Drain => STARTUP_GAIN,
            State::ProbeBw { .. } => CWND_GAIN,
            State::ProbeRtt { .. } => 1.0,
        }
    }

    /// Push the current operating point — always *both* effects.
    fn control(&mut self, ctx: &mut Ctx) {
        let bw = self.btl_bw_bps();
        ctx.set_rate(self.pacing_gain() * bw);
        let cwnd = if matches!(self.state, State::ProbeRtt { .. }) || self.conservation {
            MIN_CWND_PKTS
        } else {
            (self.cwnd_gain() * self.bdp_pkts() + CWND_SLACK_PKTS).max(MIN_CWND_PKTS)
        };
        ctx.set_cwnd(cwnd);
    }

    fn enter_probe_bw(&mut self, ctx: &mut Ctx) {
        // Random initial slot, excluding the 0.75 drain slot (index 1), so
        // competing BBR flows don't synchronize their probes.
        let idx = ctx.rng.range_u64(0, 7);
        let phase = if idx >= 1 { idx as usize + 1 } else { 0 };
        self.state = State::ProbeBw {
            phase,
            phase_start: ctx.now,
        };
    }

    fn enter_probe_rtt(&mut self, sample: Option<SimDuration>, ctx: &mut Ctx) {
        let until = ctx.now + PROBE_RTT_DURATION.max(self.min_rtt_estimate());
        self.state = State::ProbeRtt {
            until,
            min_seen: sample,
        };
        self.timer_gen += 1;
        ctx.set_timer(until, self.timer_gen);
    }

    fn exit_probe_rtt(&mut self, ctx: &mut Ctx) {
        if let State::ProbeRtt { min_seen, .. } = self.state {
            // Install what the probe measured. If not a single clean
            // sample arrived (a near-dead path), keep the old value but
            // refresh its stamp — re-entering ProbeRTT immediately would
            // starve the flow for no information gain.
            self.min_rtt
                .reset(min_seen.unwrap_or_else(|| self.min_rtt_estimate()), ctx.now);
        }
        if self.filled_pipe {
            self.enter_probe_bw(ctx);
        } else {
            self.state = State::Startup;
        }
    }

    /// Startup's plateau detector, evaluated once per round.
    fn check_full_pipe(&mut self) {
        let Some(bw) = self.bw.get() else {
            return;
        };
        if bw >= self.full_bw * FULL_BW_GROWTH {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= FULL_BW_ROUNDS {
            self.filled_pipe = true;
        }
    }

    /// One step of the four-phase machine, fed by values rather than a
    /// specific event shape so both feedback granularities (per-ACK and
    /// batched [`MeasurementReport`]s) drive the same transitions.
    /// `sampled_rtt` is a genuine propagation sample from the feedback
    /// that triggered this step, if one exists.
    fn advance_machine(
        &mut self,
        in_flight: u64,
        sampled_rtt: Option<SimDuration>,
        round_advanced: bool,
        ctx: &mut Ctx,
    ) {
        match self.state {
            State::Startup => {
                if round_advanced {
                    self.check_full_pipe();
                }
                if self.filled_pipe {
                    self.state = State::Drain;
                }
            }
            State::Drain => {
                if (in_flight as f64) <= self.bdp_pkts() {
                    self.enter_probe_bw(ctx);
                }
            }
            State::ProbeBw { phase, phase_start } => {
                if ctx.now.saturating_since(phase_start) >= self.min_rtt_estimate() {
                    self.state = State::ProbeBw {
                        phase: (phase + 1) % CYCLE_GAINS.len(),
                        phase_start: ctx.now,
                    };
                }
            }
            State::ProbeRtt { until, min_seen } => {
                if let Some(rtt) = sampled_rtt {
                    self.state = State::ProbeRtt {
                        until,
                        min_seen: Some(min_seen.map_or(rtt, |m| m.min(rtt))),
                    };
                }
                if ctx.now >= until {
                    self.exit_probe_rtt(ctx);
                }
            }
        }
        // A stale propagation estimate forces a deliberate re-probe, from
        // any state but ProbeRTT itself. Only a genuine sample may seed
        // the probe's minimum; an unsampled trigger (e.g. the ACK of a
        // retransmission) starts it empty.
        if !matches!(self.state, State::ProbeRtt { .. }) && self.min_rtt.expired(ctx.now) {
            self.enter_probe_rtt(sampled_rtt, ctx);
        }
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // Pre-sample operating point: Startup gains over the initial
        // window spread across the RTT hint. Both effects from the first
        // decision on.
        self.control(ctx);
    }

    fn on_sent(&mut self, ev: &SentEvent, _ctx: &mut Ctx) {
        self.sampler.on_sent(ev.seq, ev.now, ev.retx);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
        if ack.sampled {
            self.min_rtt.update(ack.rtt, ctx.now);
        }
        let sample = self.sampler.on_ack(
            ack.seq,
            ack.cum_ack,
            ack.newly_acked,
            ack.of_retx,
            self.mss,
            ctx.now,
        );
        let mut round_advanced = false;
        if let Some(s) = sample {
            if s.delivered_at_send >= self.next_round_delivered {
                self.round += 1;
                self.next_round_delivered = self.sampler.delivered();
                round_advanced = true;
                self.conservation = false;
            }
            self.bw.update(self.round, s.bw_bps);
        }
        self.advance_machine(
            ack.in_flight,
            ack.sampled.then_some(ack.rtt),
            round_advanced,
            ctx,
        );
        self.control(ctx);
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
        self.sampler.on_loss(loss.seqs);
        // BBR's model is loss-blind by design (the property Fig. 7 leans
        // on); only a timeout — evidence the whole flight died — clamps
        // the window to the floor until a fresh round confirms delivery.
        if loss.kind == LossKind::Timeout {
            self.conservation = true;
        }
        self.control(ctx);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        // Batched feedback: one report ≈ one packet-timed round trip (the
        // engine's cadence is one smoothed RTT), so the report sequence
        // itself clocks the round counter and the bandwidth filter — the
        // per-packet `DeliverySampler` never sees batched traffic.
        if rep.rtt_samples > 0 {
            if let Some(min) = rep.rtt_min {
                self.min_rtt.update(min, ctx.now);
            }
        }
        if rep.acked_pkts > 0 {
            self.round += 1;
            self.conservation = false;
            let bw = rep.delivery_rate_bps();
            if bw > 0.0 {
                self.bw.update(self.round, bw);
            }
        }
        if rep.timeouts > 0 {
            // Same policy as the per-ACK path: only whole-flight death
            // clamps the window; detected losses leave the model alone.
            self.conservation = true;
        }
        self.advance_machine(rep.in_flight, rep.rtt_min, rep.acked_pkts > 0, ctx);
        self.control(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token != self.timer_gen {
            return; // stale generation
        }
        if let State::ProbeRtt { until, .. } = self.state {
            if ctx.now >= until {
                self.exit_probe_rtt(ctx);
            }
        }
        self.control(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::rng::SimRng;
    use pcc_transport::cc::Effects;

    /// Minimal harness driving the controller with a virtual clock — the
    /// same pattern `PccController`'s unit suite uses.
    struct Harness {
        cc: Bbr,
        rng: SimRng,
        fx: Effects,
        now: SimTime,
        rate: f64,
        cwnd: f64,
        timers: Vec<(SimTime, u64)>,
        next_seq: u64,
        /// Every `(rate, cwnd)` pair as of each applied decision.
        decisions: Vec<(Option<f64>, Option<f64>)>,
    }

    const MSS: u32 = 1500;

    impl Harness {
        fn new(rtt_hint_ms: u64) -> Self {
            let params = CcParams::default()
                .with_mss(MSS)
                .with_rtt_hint(SimDuration::from_millis(rtt_hint_ms));
            Harness {
                cc: Bbr::new(&params),
                rng: SimRng::new(5),
                fx: Effects::default(),
                now: SimTime::ZERO,
                rate: 0.0,
                cwnd: 0.0,
                timers: Vec::new(),
                next_seq: 0,
                decisions: Vec::new(),
            }
        }

        fn drain(&mut self) {
            let d = self.fx.drain();
            if d.rate.is_some() || d.cwnd.is_some() {
                self.decisions.push((d.rate, d.cwnd));
            }
            if let Some(r) = d.rate {
                self.rate = r;
            }
            if let Some(w) = d.cwnd {
                self.cwnd = w;
            }
            self.timers.extend(d.timers);
        }

        fn start(&mut self) {
            {
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_start(&mut ctx);
            }
            self.drain();
        }

        fn advance_to(&mut self, t: SimTime) {
            loop {
                self.timers.sort_by_key(|&(at, _)| at);
                let Some(&(at, token)) = self.timers.first() else {
                    break;
                };
                if at > t {
                    break;
                }
                self.timers.remove(0);
                self.now = at;
                {
                    let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                    self.cc.on_timer(token, &mut ctx);
                }
                self.drain();
            }
            self.now = t;
        }

        /// One traffic round: send `n` packets now, then ack them all one
        /// flight-time later, spaced at the "link rate" `pps`, each ACK
        /// carrying `rtt`. Produces genuine delivery-rate samples.
        fn round_trip(&mut self, n: u64, rtt: SimDuration, pps: f64, in_flight: u64) {
            let base = self.next_seq;
            for i in 0..n {
                let ev = SentEvent {
                    now: self.now,
                    seq: base + i,
                    bytes: MSS,
                    retx: false,
                    in_flight: i + 1,
                };
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_sent(&ev, &mut ctx);
            }
            let sent_at = self.now;
            for i in 0..n {
                let seq = base + i;
                let at = sent_at + rtt + SimDuration::from_secs_f64(i as f64 / pps);
                self.advance_to(at);
                let ack = AckEvent {
                    now: self.now,
                    seq,
                    rtt,
                    sampled: true,
                    srtt: rtt,
                    min_rtt: rtt,
                    max_rtt: rtt,
                    recv_at: self.now,
                    probe_train: None,
                    of_retx: false,
                    cum_ack: seq + 1,
                    newly_acked: 1,
                    in_flight,
                    mss: MSS,
                    in_recovery: false,
                };
                {
                    let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                    self.cc.on_ack(&ack, &mut ctx);
                }
                self.drain();
            }
            self.next_seq = base + n;
        }

        /// Deliver one ACK of a retransmission: `sampled = false`, no
        /// delivery record — the shape both engines emit after recovery.
        fn unsampled_ack(&mut self) {
            let ack = AckEvent {
                now: self.now,
                seq: 0,
                rtt: SimDuration::from_millis(1),
                sampled: false,
                srtt: RTT,
                min_rtt: RTT,
                max_rtt: RTT,
                recv_at: self.now,
                probe_train: None,
                of_retx: true,
                cum_ack: self.next_seq,
                newly_acked: 1,
                in_flight: 1,
                mss: MSS,
                in_recovery: false,
            };
            {
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_ack(&ack, &mut ctx);
            }
            self.drain();
        }

        fn loss(&mut self, seqs: &[u64], kind: LossKind) {
            let ev = LossEvent {
                now: self.now,
                seqs,
                kind,
                new_episode: true,
                in_flight: 0,
                mss: MSS,
            };
            {
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_loss(&ev, &mut ctx);
            }
            self.drain();
        }
    }

    const RTT: SimDuration = SimDuration::from_millis(30);

    /// Acks arriving at ~20 Mbps in 1500 B packets.
    const PPS_20MBPS: f64 = 20e6 / (1500.0 * 8.0);

    /// Drive enough identical-bandwidth rounds to exit Startup and Drain.
    fn to_probe_bw(h: &mut Harness) {
        for _ in 0..8 {
            h.round_trip(40, RTT, PPS_20MBPS, 1);
            if h.cc.phase_name() == "probe-bw" {
                break;
            }
        }
        assert_eq!(h.cc.phase_name(), "probe-bw", "reached steady state");
    }

    #[test]
    fn starts_with_startup_gains_on_the_hint() {
        let mut h = Harness::new(30);
        h.start();
        // 2/ln2 × 10 pkts × 1500 B × 8 / 30 ms.
        let expect = STARTUP_GAIN * 10.0 * 1500.0 * 8.0 / 0.030;
        assert!((h.rate - expect).abs() < 1.0, "rate {} vs {expect}", h.rate);
        assert!(h.cwnd >= MIN_CWND_PKTS, "cwnd set: {}", h.cwnd);
        assert_eq!(h.cc.phase_name(), "startup");
    }

    #[test]
    fn every_decision_sets_both_effects() {
        let mut h = Harness::new(30);
        h.start();
        for _ in 0..6 {
            h.round_trip(30, RTT, PPS_20MBPS, 1);
        }
        h.loss(&[9999], LossKind::Detected);
        assert!(!h.decisions.is_empty());
        for (i, (rate, cwnd)) in h.decisions.iter().enumerate() {
            assert!(
                rate.is_some() && cwnd.is_some(),
                "decision {i} must set rate AND cwnd: {:?}",
                (rate, cwnd)
            );
        }
    }

    #[test]
    fn bandwidth_plateau_exits_startup_through_drain() {
        let mut h = Harness::new(30);
        h.start();
        assert_eq!(h.cc.phase_name(), "startup");
        // Same measured bandwidth round after round: the 25%-growth check
        // fails three times and the machine moves on.
        to_probe_bw(&mut h);
        assert!(h.cc.filled_pipe());
        // The model converged on the best delivery-rate sample the
        // harness's batch shape can produce — all 40 packets of a round
        // delivered over one flight-plus-serialization span — not on the
        // startup overshoot.
        let bw = h.cc.btl_bw_bps();
        let expect = 40.0 * 1500.0 * 8.0 / (RTT.as_secs_f64() + 39.0 / PPS_20MBPS);
        assert!(
            (bw - expect).abs() / expect < 0.2,
            "btl_bw tracks delivery: {bw:.0} vs {expect:.0}"
        );
        // Steady-state window is ~2×BDP, far below startup's.
        let bdp = h.cc.bdp_pkts();
        assert!(
            (h.cwnd - (CWND_GAIN * bdp + 3.0)).abs() < 1.0,
            "cwnd {} vs 2×BDP {bdp}",
            h.cwnd
        );
    }

    #[test]
    fn probe_bw_cycles_through_the_gain_slots() {
        let mut h = Harness::new(30);
        h.start();
        to_probe_bw(&mut h);
        let mut gains = Vec::new();
        // Single-packet rounds: one ACK per min-RTT, so the cycle advances
        // exactly one slot per round and sampling can't alias past the
        // probe/drain slots. The pacing-rate/estimate ratio IS the slot
        // gain, whatever the bandwidth filter currently holds.
        for _ in 0..12 {
            h.round_trip(1, RTT, PPS_20MBPS, 1);
            gains.push(h.rate / h.cc.btl_bw_bps());
        }
        let hi = gains.iter().cloned().fold(0.0_f64, f64::max);
        let lo = gains.iter().cloned().fold(f64::MAX, f64::min);
        assert!((hi - 1.25).abs() < 0.01, "probe slot seen: {hi}");
        assert!((lo - 0.75).abs() < 0.01, "drain slot seen: {lo}");
        let cruise = gains.iter().filter(|g| (**g - 1.0).abs() < 0.01).count();
        assert!(cruise >= 6, "cruise slots dominate: {gains:?}");
    }

    #[test]
    fn stale_min_rtt_triggers_probe_rtt_with_cwnd_floor() {
        let mut h = Harness::new(30);
        h.start();
        to_probe_bw(&mut h);
        assert_eq!(h.cc.min_rtt_estimate(), RTT);
        // RTT inflates to 36 ms: the 30 ms minimum never refreshes, and
        // after 10 s the machine must deliberately re-probe.
        let inflated = SimDuration::from_millis(36);
        let mut rounds = 0;
        while h.cc.phase_name() != "probe-rtt" && rounds < 400 {
            h.round_trip(40, inflated, PPS_20MBPS, 1);
            rounds += 1;
        }
        assert_eq!(h.cc.phase_name(), "probe-rtt", "after {rounds} rounds");
        assert!(
            h.now.as_secs_f64() > 10.0,
            "probe waited out the window: {:?}",
            h.now
        );
        assert_eq!(h.cwnd, MIN_CWND_PKTS, "ProbeRTT floors the window");
        // The exit timer returns the machine to ProbeBW with the fresh
        // (inflated) propagation estimate installed.
        h.advance_to(h.now + SimDuration::from_secs(1));
        assert_eq!(h.cc.phase_name(), "probe-bw");
        assert_eq!(h.cc.min_rtt_estimate(), inflated);
        assert!(h.cwnd > MIN_CWND_PKTS, "window restored: {}", h.cwnd);
    }

    #[test]
    fn probe_rtt_entered_unsampled_remeasures_rather_than_reinstalling_stale_min() {
        let mut h = Harness::new(30);
        h.start();
        to_probe_bw(&mut h);
        assert_eq!(h.cc.min_rtt_estimate(), RTT);
        // The min-RTT window expires quietly; the expiry is then noticed
        // by a retransmission ACK, which carries no usable RTT sample, so
        // the probe must start with an *empty* minimum.
        h.advance_to(h.now + SimDuration::from_secs(11));
        h.unsampled_ack();
        assert_eq!(h.cc.phase_name(), "probe-rtt");
        // Everything actually measured during the probe says 70 ms.
        let inflated = SimDuration::from_millis(70);
        h.round_trip(5, inflated, PPS_20MBPS, 1);
        h.advance_to(h.now + SimDuration::from_secs(1));
        assert_eq!(h.cc.phase_name(), "probe-bw");
        assert_eq!(
            h.cc.min_rtt_estimate(),
            inflated,
            "the probe installs what it measured, not the stale 30 ms"
        );
    }

    #[test]
    fn detected_loss_leaves_the_model_alone() {
        let mut h = Harness::new(30);
        h.start();
        to_probe_bw(&mut h);
        let (rate, cwnd) = (h.rate, h.cwnd);
        h.loss(&[h.next_seq + 1], LossKind::Detected);
        assert!(
            (h.rate - rate).abs() / rate < 1e-9,
            "rate unchanged by detected loss"
        );
        assert!((h.cwnd - cwnd).abs() < 1e-9, "cwnd unchanged");
    }

    #[test]
    fn timeout_clamps_cwnd_until_the_next_round() {
        let mut h = Harness::new(30);
        h.start();
        to_probe_bw(&mut h);
        assert!(h.cwnd > MIN_CWND_PKTS);
        h.loss(&[h.next_seq, h.next_seq + 1], LossKind::Timeout);
        assert_eq!(h.cwnd, MIN_CWND_PKTS, "conservation window");
        let rate_after = h.rate;
        assert!(rate_after > 1.0, "pacing continues at the model rate");
        // A full new round of delivery lifts the clamp.
        h.round_trip(40, RTT, PPS_20MBPS, 1);
        assert!(h.cwnd > MIN_CWND_PKTS, "restored: {}", h.cwnd);
    }

    /// One synthetic report spanning `span` with `acked` packets fully
    /// delivered at RTT; the interval-average delivery rate is then
    /// `acked · MSS · 8 / span`.
    fn mk_report(start: SimTime, end: SimTime, acked: u64, in_flight: u64) -> MeasurementReport {
        MeasurementReport {
            start,
            end,
            sent_pkts: acked,
            sent_bytes: acked * MSS as u64,
            acked_pkts: acked,
            acked_bytes: acked * MSS as u64,
            rtt_min: (acked > 0).then_some(RTT),
            rtt_max: (acked > 0).then_some(RTT),
            rtt_sum_ns: RTT.as_nanos() as u128 * acked as u128,
            rtt_samples: acked,
            srtt: RTT,
            min_rtt: RTT,
            in_flight,
            mss: MSS,
            ..MeasurementReport::default()
        }
    }

    impl Harness {
        fn report(&mut self, rep: &MeasurementReport) {
            self.now = rep.end;
            {
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_report(rep, &mut ctx);
            }
            self.drain();
        }
    }

    #[test]
    fn batched_reports_drive_startup_through_drain_to_probe_bw() {
        let mut h = Harness::new(30);
        h.start();
        assert_eq!(h.cc.phase_name(), "startup");
        // Ten back-to-back one-RTT reports, each carrying the same 20 Mbps
        // interval-average delivery rate: the plateau detector must fire
        // off report-clocked rounds exactly as it does off ACK-clocked
        // ones, and Drain must exit on the report's in-flight snapshot.
        let pkts_per_rtt = (20e6 * RTT.as_secs_f64() / (MSS as f64 * 8.0)) as u64;
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            let end = t + RTT;
            h.report(&mk_report(t, end, pkts_per_rtt, 1));
            t = end;
            if h.cc.phase_name() == "probe-bw" {
                break;
            }
        }
        assert_eq!(h.cc.phase_name(), "probe-bw");
        assert!(h.cc.filled_pipe());
        let bw = h.cc.btl_bw_bps();
        assert!(
            (bw - 20e6).abs() / 20e6 < 0.05,
            "report-fed filter converges on the interval rate: {bw:.0}"
        );
        assert!(h.rate > 1.0 && h.cwnd >= MIN_CWND_PKTS, "both effects live");
    }

    #[test]
    fn batched_timeout_report_clamps_until_a_delivering_report() {
        let mut h = Harness::new(30);
        h.start();
        let pkts_per_rtt = (20e6 * RTT.as_secs_f64() / (MSS as f64 * 8.0)) as u64;
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            let end = t + RTT;
            h.report(&mk_report(t, end, pkts_per_rtt, 1));
            t = end;
        }
        assert!(h.cwnd > MIN_CWND_PKTS);
        // An all-timeout report (the engine's urgent flush after an RTO)
        // clamps the window to the floor…
        let end = t + RTT;
        let mut dead = mk_report(t, end, 0, 0);
        dead.timeouts = 1;
        dead.lost_pkts = 2;
        dead.loss_events = 1;
        dead.new_loss_episode = true;
        h.report(&dead);
        t = end;
        assert_eq!(h.cwnd, MIN_CWND_PKTS, "conservation window");
        // …and the next report that carries acknowledged data lifts it.
        let end = t + RTT;
        h.report(&mk_report(t, end, pkts_per_rtt, 1));
        assert!(h.cwnd > MIN_CWND_PKTS, "restored: {}", h.cwnd);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let run = || {
            let mut h = Harness::new(30);
            h.start();
            for _ in 0..10 {
                h.round_trip(25, RTT, PPS_20MBPS, 2);
            }
            (h.rate, h.cwnd, h.cc.phase_name())
        };
        assert_eq!(run(), run());
    }
}
