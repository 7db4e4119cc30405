//! The one window machine behind every TCP baseline, adapted onto the
//! unified [`CongestionControl`] trait.
//!
//! The paper's case against TCP is that every variant is the same machine
//! with a different response law: a congestion window and a slow-start
//! threshold, grown on ACKs, cut on a loss event, collapsed on a timeout.
//! [`Windowed`] is that machine. It owns the [`Window`] (starting at the
//! initial window, with no threshold yet), maps the unified event
//! vocabulary onto it, and lends it to a [`WindowAlgo`], which supplies
//! only its laws:
//!
//! * `on_ack` with `newly_acked > 0` outside recovery → the growth law,
//!   [`WindowAlgo::on_ack`];
//! * `on_loss` with [`LossKind::Detected`] opening a new episode → the cut,
//!   [`WindowAlgo::on_loss_event`];
//! * `on_loss` with [`LossKind::Timeout`] → the threshold from
//!   [`WindowAlgo::on_rto`], after which the adapter alone collapses the
//!   window to one packet;
//! * a batched `on_report` → the same three, reconstructed from the
//!   report's deltas, its clean interval folded into one [`AckEvent`].
//!
//! After every callback the adapter pushes the window through
//! [`Ctx::set_cwnd`], floored at the crate-private `MIN_CWND` (2 packets)
//! so the engine can always keep loss detection alive.
//!
//! A paced [`Windowed`] also sets a `cwnd·MSS/SRTT` pacing rate after every
//! callback, so the engine spreads each window over one RTT instead of
//! releasing it in ack-clocked bursts: the paper's Fig. 9 "TCP pacing" is
//! any baseline with `paced=true`, not a second algorithm.

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent, LossKind};
use pcc_transport::registry::CcParams;
use pcc_transport::report::MeasurementReport;

use crate::common::{INITIAL_CWND, MIN_CWND};

/// The congestion window and slow-start threshold, in packets: what
/// [`Windowed`] owns and lends to its [`WindowAlgo`] on each event.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Congestion window.
    pub cwnd: f64,
    /// Slow-start threshold (`f64::MAX` until the first cut).
    pub ssthresh: f64,
}

impl Window {
    /// A retransmission timeout: the variant's threshold, and the window
    /// collapses to one packet.
    pub(crate) fn collapse(&mut self, ssthresh: f64) {
        self.ssthresh = ssthresh;
        self.cwnd = 1.0;
    }
}

/// A TCP variant's laws over the [`Window`] its [`Windowed`] adapter owns
/// (the shape of Linux's `tcp_congestion_ops`). A sub-API for this crate's
/// baselines: engines and datapaths only ever see [`CongestionControl`].
pub trait WindowAlgo: Send {
    /// Algorithm name (for reports).
    fn name(&self) -> &'static str;

    /// Growth: an ACK that advances the scoreboard outside recovery.
    fn on_ack(&mut self, w: &mut Window, ack: &AckEvent);

    /// Cut: a loss event begins a recovery episode (fast retransmit).
    fn on_loss_event(&mut self, w: &mut Window);

    /// A retransmission timeout fired at window `cwnd`: the slow-start
    /// threshold to restart from (the adapter collapses the window).
    fn on_rto(&mut self, cwnd: f64) -> f64;
}

/// Adapter: any [`WindowAlgo`] as a [`CongestionControl`], optionally
/// paced.
pub struct Windowed {
    inner: Box<dyn WindowAlgo>,
    window: Window,
    paced: bool,
    mss: u32,
    srtt: SimDuration,
}

impl Windowed {
    /// Wrap a window algorithm starting at the IW10 initial window;
    /// `params` seeds the MSS and the RTT the pacing rate uses before the
    /// first sample.
    pub fn new(inner: Box<dyn WindowAlgo>, paced: bool, params: &CcParams) -> Self {
        Windowed {
            inner,
            window: Window {
                cwnd: INITIAL_CWND,
                ssthresh: f64::MAX,
            },
            paced,
            mss: params.mss,
            srtt: params.rtt_hint,
        }
    }

    /// Hand the engine the window, floored at `MIN_CWND`, and, when paced,
    /// the rate that spreads it over one smoothed RTT.
    fn push(&self, ctx: &mut Ctx) {
        let cwnd = self.window.cwnd.max(MIN_CWND);
        ctx.set_cwnd(cwnd);
        if self.paced {
            let srtt = self.srtt.as_secs_f64().max(1e-6);
            ctx.set_rate(cwnd * self.mss as f64 * 8.0 / srtt);
        }
    }
}

impl CongestionControl for Windowed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.push(ctx);
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
        self.mss = ack.mss;
        self.srtt = ack.srtt;
        // Window growth only outside recovery episodes and only for ACKs
        // that advance the scoreboard (standard TCP behaviour).
        if ack.newly_acked > 0 && !ack.in_recovery {
            self.inner.on_ack(&mut self.window, ack);
        }
        self.push(ctx);
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
        self.mss = loss.mss;
        match loss.kind {
            LossKind::Detected => {
                if loss.new_episode {
                    self.inner.on_loss_event(&mut self.window);
                }
            }
            LossKind::Timeout => self.window.collapse(self.inner.on_rto(self.window.cwnd)),
        }
        self.push(ctx);
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        self.mss = rep.mss;
        self.srtt = rep.srtt;
        // Loss-event-driven semantics reconstructed from report deltas:
        // a timeout collapses, a fresh loss episode cuts once, and growth
        // is credited only for clean intervals (the engine flushes a
        // report the moment an episode opens, so a lossy interval never
        // smuggles its ACKs past the cut — same once-per-episode behaviour
        // as the per-ACK path). A clean interval is one ACK of all its
        // packets at its mean RTT.
        if rep.timeouts > 0 {
            self.window.collapse(self.inner.on_rto(self.window.cwnd));
        } else if rep.loss_events > 0 && rep.new_loss_episode {
            self.inner.on_loss_event(&mut self.window);
        } else if rep.acked_pkts > 0 && !rep.in_recovery {
            let ack = AckEvent {
                now: rep.end,
                seq: rep.cum_ack,
                rtt: rep.mean_rtt(),
                sampled: rep.rtt_samples > 0,
                srtt: rep.srtt,
                min_rtt: rep.min_rtt,
                max_rtt: rep.rtt_max.unwrap_or(rep.srtt),
                recv_at: rep.last_recv.unwrap_or(rep.end),
                probe_train: None,
                of_retx: false,
                cum_ack: rep.cum_ack,
                newly_acked: rep.acked_pkts.min(u32::MAX as u64) as u32,
                in_flight: rep.in_flight,
                mss: rep.mss,
                in_recovery: false,
            };
            self.inner.on_ack(&mut self.window, &ack);
        }
        self.push(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewReno;
    use pcc_simnet::rng::SimRng;
    use pcc_simnet::time::SimTime;
    use pcc_transport::cc::Effects;

    fn ack_event(newly_acked: u32, in_recovery: bool) -> AckEvent {
        let rtt = SimDuration::from_millis(30);
        AckEvent {
            now: SimTime::ZERO,
            seq: 0,
            rtt,
            sampled: true,
            srtt: rtt,
            min_rtt: rtt,
            max_rtt: rtt,
            recv_at: SimTime::ZERO,
            probe_train: None,
            of_retx: false,
            cum_ack: 0,
            newly_acked,
            in_flight: 10,
            mss: 1500,
            in_recovery,
        }
    }

    /// New Reno behind the adapter, seeded with a 100 ms RTT hint.
    fn reno(paced: bool) -> Windowed {
        let params = CcParams::default().with_rtt_hint(SimDuration::from_millis(100));
        Windowed::new(Box::new(NewReno), paced, &params)
    }

    fn drain_cwnd(fx: &mut Effects) -> Option<f64> {
        fx.drain().cwnd
    }

    #[test]
    fn adapter_grows_outside_recovery_only() {
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(drain_cwnd(&mut fx), Some(10.0), "IW10");
        cc.on_ack(
            &ack_event(5, false),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(15.0), "slow start grows");
        cc.on_ack(
            &ack_event(5, true),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(15.0), "frozen in recovery");
    }

    #[test]
    fn adapter_maps_loss_kinds() {
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        let seqs = [3u64, 4];
        let loss = LossEvent {
            now: SimTime::ZERO,
            seqs: &seqs,
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 8,
            mss: 1500,
        };
        cc.on_loss(&loss, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(drain_cwnd(&mut fx), Some(5.0), "halved on loss event");
        let repeat = LossEvent {
            new_episode: false,
            ..loss
        };
        cc.on_loss(&repeat, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(drain_cwnd(&mut fx), Some(5.0), "same episode: no re-cut");
    }

    #[test]
    fn min_cwnd_floor_enforced_after_rto() {
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        let seqs = [0u64];
        let loss = LossEvent {
            now: SimTime::ZERO,
            seqs: &seqs,
            kind: LossKind::Timeout,
            new_episode: true,
            in_flight: 0,
            mss: 1500,
        };
        cc.on_loss(&loss, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        // The adapter collapses the window to 1 on RTO and floors the
        // window handed to the engine at MIN_CWND.
        let cwnd = drain_cwnd(&mut fx).expect("cwnd pushed");
        assert_eq!(cwnd, MIN_CWND, "floor enforced: {cwnd}");
    }

    #[test]
    fn paced_adapter_sets_both_effects() {
        let mut cc = reno(true);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let d = fx.drain();
        assert_eq!(d.cwnd, Some(10.0));
        // 10 pkts × 1500 B × 8 / 100 ms = 1.2 Mbps.
        let rate = d.rate.expect("pacing rate set");
        assert!((rate - 1.2e6).abs() < 1.0, "rate {rate}");
        // Unpaced, the same adapter sets the window only.
        let mut cc = reno(false);
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let d = fx.drain();
        assert_eq!((d.cwnd, d.rate), (Some(10.0), None));
    }

    fn report(acked: u64, loss_events: u32, new_episode: bool, timeouts: u32) -> MeasurementReport {
        let rtt = SimDuration::from_millis(30);
        MeasurementReport {
            start: SimTime::ZERO,
            end: SimTime::from_millis(30),
            acked_pkts: acked,
            acked_bytes: acked * 1500,
            loss_events,
            new_loss_episode: new_episode,
            timeouts,
            srtt: rtt,
            min_rtt: rtt,
            mss: 1500,
            ..Default::default()
        }
    }

    #[test]
    fn batched_report_reconstructs_loss_event_semantics() {
        // The same NewReno through reports: a clean 5-ack interval grows
        // exactly like 5 per-ACK deliveries; a loss-episode report cuts
        // once; a timeout report collapses to the floor.
        let mut cc = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        cc.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        cc.on_report(
            &report(5, 0, false, 0),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(15.0), "slow start via report");
        let frozen = MeasurementReport {
            in_recovery: true,
            ..report(5, 0, false, 0)
        };
        cc.on_report(&frozen, &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert_eq!(drain_cwnd(&mut fx), Some(15.0), "frozen in recovery");
        cc.on_report(
            &report(3, 1, true, 0),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(7.5), "halved on episode report");
        cc.on_report(
            &report(0, 4, true, 1),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(
            drain_cwnd(&mut fx),
            Some(MIN_CWND),
            "timeout report collapses"
        );
    }

    #[test]
    fn batched_growth_matches_per_ack_totals() {
        // 20 packets acked in one clean interval must land on the same
        // window as 4 per-ACK events of 5 — lossless aggregation end to
        // end for ack-counting algorithms.
        let mut per_ack = reno(false);
        let mut batched = reno(false);
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        per_ack.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        batched.on_start(&mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx));
        let _ = fx.drain();
        for _ in 0..4 {
            per_ack.on_ack(
                &ack_event(5, false),
                &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
            );
        }
        let per_ack_cwnd = drain_cwnd(&mut fx).expect("cwnd");
        batched.on_report(
            &report(20, 0, false, 0),
            &mut Ctx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert_eq!(drain_cwnd(&mut fx), Some(per_ack_cwnd));
    }

    /// Every registered baseline, unpaced and paced, behind the adapter
    /// over two scripted histories. The long one: ACK runs of varying size
    /// and RTT through slow start, a new loss episode and a repeat, ACKs
    /// in recovery, a long congestion-avoidance run, a timeout, three
    /// batched reports (loss episode, clean, timeout) and a cut after the
    /// timeout. The short one cuts before any bandwidth estimate and grows
    /// a small window under swinging RTTs. Each spec's FNV-1a digest of
    /// every pushed window and rate, bit for bit, is pinned, so a drift in
    /// any variant's law that reaches the engine, down to one ulp, fails
    /// here in seconds.
    #[test]
    fn every_baseline_replays_two_scripted_histories_bit_for_bit() {
        use pcc_simnet::rng::SimRng;
        use pcc_simnet::time::{SimDuration, SimTime};
        use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, Effects, LossEvent, LossKind};
        use pcc_transport::registry::{self, CcParams};
        use pcc_transport::report::MeasurementReport;

        const GOLDEN: [(&str, u64); 14] = [
            ("newreno", 0xbcf6_97ad_5a45_db50),
            ("newreno:paced=true", 0x0594_7c9c_3ada_6a46),
            ("cubic", 0x7106_ae9a_7222_0242),
            ("cubic:paced=true", 0xa565_0549_6164_e397),
            ("illinois", 0xecae_f723_fcce_e464),
            ("illinois:paced=true", 0xa1ff_4d1b_f485_17d6),
            ("hybla", 0xe363_54f3_4a9a_526d),
            ("hybla:paced=true", 0x944d_816e_ef26_100b),
            ("vegas", 0x8daf_abb7_b8df_4c27),
            ("vegas:paced=true", 0xa0c3_3648_d029_8b04),
            ("bic", 0xe96d_7392_3d76_07c7),
            ("bic:paced=true", 0x93bd_b5c0_1939_9de0),
            ("westwood", 0x6c17_aef9_cf06_eba5),
            ("westwood:paced=true", 0xb72e_e4ab_10de_3c70),
        ];

        struct Script {
            cc: Box<dyn CongestionControl>,
            rng: SimRng,
            fx: Effects,
            now: SimTime,
            srtt: SimDuration,
            min_rtt: SimDuration,
            max_rtt: SimDuration,
            digest: u64,
        }

        impl Script {
            /// Fold the callback's effects into the digest.
            fn fold(&mut self) {
                let d = self.fx.drain();
                for word in [d.cwnd, d.rate].map(|v| v.map_or(u64::MAX, f64::to_bits)) {
                    for b in word.to_le_bytes() {
                        self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }

            fn ack(&mut self, newly_acked: u32, rtt_ms: u64, step_ms: u64, in_recovery: bool) {
                self.now += SimDuration::from_millis(step_ms);
                let rtt = SimDuration::from_millis(rtt_ms);
                self.srtt =
                    SimDuration::from_nanos((self.srtt.as_nanos() * 7 + rtt.as_nanos()) / 8);
                self.min_rtt = self.min_rtt.min(rtt);
                self.max_rtt = self.max_rtt.max(rtt);
                let ack = AckEvent {
                    now: self.now,
                    seq: 0,
                    rtt,
                    sampled: true,
                    srtt: self.srtt,
                    min_rtt: self.min_rtt,
                    max_rtt: self.max_rtt,
                    recv_at: self.now,
                    probe_train: None,
                    of_retx: false,
                    cum_ack: 0,
                    newly_acked,
                    in_flight: 20,
                    mss: 1500,
                    in_recovery,
                };
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_ack(&ack, &mut ctx);
                self.fold();
            }

            fn loss(&mut self, kind: LossKind, new_episode: bool) {
                let seqs = [7u64, 8];
                let loss = LossEvent {
                    now: self.now,
                    seqs: &seqs,
                    kind,
                    new_episode,
                    in_flight: 12,
                    mss: 1500,
                };
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_loss(&loss, &mut ctx);
                self.fold();
            }

            fn report(&mut self, acked: u64, loss_events: u32, timeouts: u32) {
                let start = self.now;
                self.now += SimDuration::from_millis(45);
                let rep = MeasurementReport {
                    start,
                    end: self.now,
                    acked_pkts: acked,
                    acked_bytes: acked * 1500,
                    loss_events,
                    new_loss_episode: loss_events > 0,
                    timeouts,
                    rtt_min: Some(SimDuration::from_millis(38)),
                    rtt_max: Some(SimDuration::from_millis(71)),
                    rtt_sum_ns: u128::from(acked) * 52_000_000,
                    rtt_samples: acked,
                    srtt: SimDuration::from_millis(47),
                    min_rtt: self.min_rtt,
                    in_flight: 16,
                    mss: 1500,
                    ..Default::default()
                };
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_report(&rep, &mut ctx);
                self.fold();
            }
        }

        crate::register_algorithms();
        let params = CcParams::default().with_rtt_hint(SimDuration::from_millis(40));
        let mut got = Vec::new();
        for (spec, _) in GOLDEN {
            let mut digest = 0xcbf2_9ce4_8422_2325;
            // Both histories fold into the spec's one digest.
            for long in [true, false] {
                let cc = registry::by_name(spec, &params).unwrap_or_else(|e| panic!("{spec}: {e}"));
                let mut s = Script {
                    cc,
                    rng: SimRng::new(1),
                    fx: Effects::default(),
                    now: SimTime::ZERO,
                    srtt: SimDuration::from_millis(40),
                    min_rtt: SimDuration::MAX,
                    max_rtt: SimDuration::ZERO,
                    digest,
                };
                let mut ctx = Ctx::new(s.now, &mut s.rng, &mut s.fx);
                s.cc.on_start(&mut ctx);
                s.fold();
                if !long {
                    for i in 0..3u64 {
                        s.ack(1, 30 + i, 5, false);
                    }
                    s.loss(LossKind::Detected, true);
                    for i in 0..400u64 {
                        s.ack(1 + i as u32 % 2, [20, 90][i as usize / 20 % 2], 5, false);
                    }
                    digest = s.digest;
                    continue;
                }
                for i in 0..400u64 {
                    let n = [1, 2, 1, 3, 0, 4][i as usize % 6];
                    s.ack(n, 30 + i * 37 % 50, 5, false);
                }
                s.loss(LossKind::Detected, true);
                s.loss(LossKind::Detected, false);
                for i in 0..30u64 {
                    s.ack(1 + i as u32 % 2, 60, 2, true);
                }
                for i in 0..5000u64 {
                    s.ack([8, 12, 16][i as usize % 3], 35 + i * 13 % 40, 4, false);
                }
                s.loss(LossKind::Timeout, true);
                for i in 0..30u64 {
                    s.ack(1 + i as u32 % 3, 40 + i % 20, 3, false);
                }
                s.report(5, 1, 0);
                s.report(30, 0, 0);
                s.report(0, 2, 1);
                for i in 0..1600u64 {
                    s.ack(1 + i as u32 % 2, 45 + i % 15, 3, false);
                    if i == 400 {
                        s.loss(LossKind::Detected, true);
                    }
                }
                digest = s.digest;
            }
            got.push((spec, digest));
        }
        let want: Vec<_> = GOLDEN.to_vec();
        assert_eq!(got, want, "a baseline's window or rate moved");
    }

    /// The slow-start threshold the adapter holds for its variant.
    fn ssthresh(cc: &Windowed) -> f64 {
        cc.window.ssthresh
    }

    proptest::proptest! {
        /// Whatever the history of ACKs, losses, timeouts and batched
        /// reports, every variant hands the engine a finite window of at
        /// least `MIN_CWND` and, when paced, a finite positive rate; and
        /// right after a cut or a collapse its ssthresh is at least
        /// `MIN_SSTHRESH`.
        #[test]
        fn every_variant_keeps_the_window_sane(
            script in proptest::collection::vec((0u8..4, 0u32..=64, 1u64..=500), 1..200),
        ) {
            use crate::common::MIN_SSTHRESH;

            let params = CcParams::default().with_rtt_hint(SimDuration::from_millis(40));
            for &(_, build) in crate::VARIANTS {
                for paced in [false, true] {
                    let mut cc = Windowed::new(build(), paced, &params);
                    let mut rng = SimRng::new(1);
                    let mut fx = Effects::default();
                    let mut now = SimTime::ZERO;
                    let mut srtt = SimDuration::from_millis(40);
                    let mut min_rtt = SimDuration::MAX;
                    cc.on_start(&mut Ctx::new(now, &mut rng, &mut fx));
                    let check = |fx: &mut Effects, cc: &Windowed, cut: bool| {
                        let d = fx.drain();
                        let cwnd = d.cwnd.expect("every callback pushes the window");
                        proptest::prop_assert!(cwnd.is_finite() && cwnd >= MIN_CWND, "{} cwnd {cwnd}", cc.name());
                        if paced {
                            let rate = d.rate.expect("a paced adapter sets a rate");
                            proptest::prop_assert!(rate.is_finite() && rate > 0.0, "{} rate {rate}", cc.name());
                        }
                        if cut {
                            proptest::prop_assert!(ssthresh(cc) >= MIN_SSTHRESH, "{} ssthresh {}", cc.name(), ssthresh(cc));
                        }
                    };
                    check(&mut fx, &cc, false);
                    for &(op, a, b) in &script {
                        now += SimDuration::from_millis(u64::from(a % 20));
                        let rtt = SimDuration::from_millis(b);
                        srtt = SimDuration::from_nanos((srtt.as_nanos() * 7 + rtt.as_nanos()) / 8);
                        min_rtt = min_rtt.min(rtt);
                        let mut ctx = Ctx::new(now, &mut rng, &mut fx);
                        let cut = match op {
                            0 => {
                                let ack = AckEvent {
                                    now,
                                    rtt,
                                    srtt,
                                    min_rtt,
                                    newly_acked: a,
                                    in_recovery: b % 5 == 0,
                                    ..ack_event(0, false)
                                };
                                cc.on_ack(&ack, &mut ctx);
                                false
                            }
                            1 | 2 => {
                                let seqs = [1u64];
                                let loss = LossEvent {
                                    now,
                                    seqs: &seqs,
                                    kind: if op == 1 { LossKind::Detected } else { LossKind::Timeout },
                                    new_episode: b % 2 == 0,
                                    in_flight: u64::from(a),
                                    mss: 1500,
                                };
                                cc.on_loss(&loss, &mut ctx);
                                op == 2 || loss.new_episode
                            }
                            _ => {
                                let rep = MeasurementReport {
                                    start: now,
                                    end: now + rtt,
                                    acked_pkts: u64::from(a),
                                    acked_bytes: u64::from(a) * 1500,
                                    loss_events: (b % 3) as u32,
                                    new_loss_episode: b % 2 == 0,
                                    timeouts: u32::from(b % 7 == 0),
                                    rtt_max: (a % 2 == 0).then_some(rtt),
                                    rtt_sum_ns: u128::from(a) * u128::from(rtt.as_nanos()),
                                    rtt_samples: u64::from(a),
                                    srtt,
                                    min_rtt,
                                    mss: 1500,
                                    in_recovery: b % 11 == 0,
                                    ..Default::default()
                                };
                                cc.on_report(&rep, &mut ctx);
                                rep.timeouts > 0 || (rep.loss_events > 0 && rep.new_loss_episode)
                            }
                        };
                        check(&mut fx, &cc, cut);
                    }
                }
            }
        }
    }
}
