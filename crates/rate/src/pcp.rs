//! PCP-style rate control (Anderson, Collins, Krishnamurthy, Zahorjan,
//! NSDI 2006) — the bandwidth-probing baseline of §4.1.1 and §5.
//!
//! PCP probes for available bandwidth with short packet trains: it sends a
//! few back-to-back packets and infers capacity from the *dispersion* of
//! their arrivals at the receiver (echoed in our ACKs' `recv_at`). If the
//! estimate exceeds the probed rate the sender jumps to it; otherwise it
//! backs down to the estimate.
//!
//! The paper's critique (§5) is that dispersion embeds fragile assumptions
//! about inter-arrival latency: jitter from queues, software routers, or
//! middleboxes corrupts the estimate ("PCP continuously wrongly estimates
//! the available bandwidth as 50−60 Mbps" on a clean 100 Mbps link). This
//! implementation inherits the same failure mode because cross-traffic and
//! queueing genuinely perturb `recv_at` spacing in the simulator.
//!
//! Simplification vs PCP: the original uses a binary-search "probe and
//! pause" schedule; we keep a fixed poll interval with doubling probes,
//! which preserves the estimate-driven rate selection being compared.

use std::collections::BTreeMap;

use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx as CtrlCtx, LossEvent, SentEvent};
use pcc_transport::report::MeasurementReport;

/// Packets per probe train.
const TRAIN_LEN: u32 = 8;
/// Interval between probes.
const POLL: SimDuration = SimDuration::from_millis(100);
/// Starting rate, bits/sec (the paper's PCP setup).
const RATE0_BPS: f64 = 1e6;
/// Timer token for the poll tick.
const TOKEN_POLL: u64 = 1;

#[derive(Debug, Default, Clone)]
struct TrainObs {
    first_recv: Option<SimTime>,
    last_recv: Option<SimTime>,
    count: u32,
}

/// PCP-style probing rate controller.
pub struct Pcp {
    /// The committed (non-probing) rate.
    rate_bps: f64,
    pkt_bits: f64,
    /// Next probe-train tag.
    next_train: u32,
    /// Arrival observations per outstanding train.
    trains: BTreeMap<u32, TrainObs>,
    /// The rate each train probed at.
    probe_rates: BTreeMap<u32, f64>,
    /// Most recent dispersion-based bandwidth estimate, bits/sec.
    last_estimate_bps: Option<f64>,
    /// Sequences assigned to the in-progress train (tagging window).
    tagging: Option<(u32, u32)>, // (train id, packets left to tag)
}

impl Pcp {
    /// New controller starting at 1 Mbps with 8-packet trains every
    /// 100 ms (the paper's PCP setup).
    pub fn new() -> Self {
        Pcp {
            rate_bps: RATE0_BPS,
            pkt_bits: 1500.0 * 8.0,
            next_train: 0,
            trains: BTreeMap::new(),
            probe_rates: BTreeMap::new(),
            last_estimate_bps: None,
            tagging: None,
        }
    }

    /// Latest bandwidth estimate, if any (bits/sec).
    pub fn last_estimate_bps(&self) -> Option<f64> {
        self.last_estimate_bps
    }

    /// Begin a probe: tag the next [`TRAIN_LEN`] packets and pace them at
    /// `probe_rate` (PCP probes *at* a target rate and checks whether the
    /// path sustains it).
    fn start_train(&mut self, ctx: &mut CtrlCtx) -> u32 {
        let id = self.next_train;
        self.next_train += 1;
        self.trains.insert(id, TrainObs::default());
        let probe_rate = self.rate_bps * 2.0;
        self.probe_rates.insert(id, probe_rate);
        self.tagging = Some((id, TRAIN_LEN));
        ctx.set_rate(probe_rate);
        id
    }

    fn finish_train(&mut self, id: u32, ctx: &mut CtrlCtx) {
        let Some(obs) = self.trains.remove(&id) else {
            return;
        };
        let probe_rate = self.probe_rates.remove(&id).unwrap_or(self.rate_bps);
        let (Some(first), Some(last)) = (obs.first_recv, obs.last_recv) else {
            return;
        };
        if obs.count < 2 || last <= first {
            return;
        }
        // Dispersion estimate: (n−1) packets delivered over the arrival
        // span ⇒ the rate the path sustained for this train.
        let span = last.saturating_since(first).as_secs_f64();
        self.commit((obs.count as f64 - 1.0) * self.pkt_bits / span, probe_rate);
        ctx.set_rate(self.rate_bps);
    }

    /// PCP's verdict on a probe at `probe_rate` the path sustained at
    /// `est`: if it sustained (almost) the probed rate, commit to it;
    /// otherwise settle slightly below the estimate.
    fn commit(&mut self, est: f64, probe_rate: f64) {
        self.last_estimate_bps = Some(est);
        self.rate_bps = if est >= probe_rate * 0.9 {
            probe_rate
        } else {
            (est * 0.9).min(probe_rate)
        }
        .max(1e5);
    }

    /// Loss means the estimate was optimistic: back off to the last
    /// estimate (or half) — PCP treats loss as a failed probe.
    fn back_off(&mut self, ctx: &mut CtrlCtx) {
        let fallback = self
            .last_estimate_bps
            .map(|e| e * 0.8)
            .unwrap_or(self.rate_bps * 0.5);
        self.rate_bps = fallback.min(self.rate_bps).max(1e5);
        ctx.set_rate(self.rate_bps);
    }
}

impl Default for Pcp {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Pcp {
    fn name(&self) -> &'static str {
        "pcp"
    }

    fn on_start(&mut self, ctx: &mut CtrlCtx) {
        ctx.set_timer(ctx.now + POLL, TOKEN_POLL);
        ctx.set_rate(self.rate_bps);
        self.start_train(ctx);
    }

    fn on_sent(&mut self, ev: &SentEvent, ctx: &mut CtrlCtx) {
        self.pkt_bits = ev.bytes as f64 * 8.0;
        if ev.retx {
            return;
        }
        if let Some((_id, left)) = self.tagging.as_mut() {
            *left -= 1;
            if *left == 0 {
                self.tagging = None;
                // Probe over: fall back to the committed rate until the
                // train's verdict arrives.
                ctx.set_rate(self.rate_bps);
            }
        }
    }

    /// The engine tags probe packets for us via `probe_train`; we only need
    /// to say *which* train id to stamp. See `CcSender`'s probe-tag path.
    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut CtrlCtx) {
        if let Some(train) = ack.probe_train {
            let finished = {
                let obs = self.trains.entry(train).or_default();
                if obs.first_recv.is_none() {
                    obs.first_recv = Some(ack.recv_at);
                }
                obs.last_recv = Some(ack.recv_at);
                obs.count += 1;
                obs.count >= TRAIN_LEN
            };
            if finished {
                self.finish_train(train, ctx);
            }
        }
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut CtrlCtx) {
        if !loss.seqs.is_empty() {
            self.back_off(ctx);
        }
    }

    /// Batched feedback: the report's own arrival statistics *are* a
    /// dispersion measurement — [`MeasurementReport::delivery_rate_bps`]
    /// computes `(n−1)·pkt_bits / arrival-span` from the echoed `recv_at`
    /// spacing, exactly the train formula, just coarsened from an 8-packet
    /// train to a one-report interval. Each report closes whatever probe
    /// is outstanding with that estimate.
    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut CtrlCtx) {
        if rep.mss > 0 {
            self.pkt_bits = rep.mss as f64 * 8.0;
        }
        if rep.lost_pkts > 0 {
            // A lossy interval is a failed probe: abandon the train and
            // back off, same law as the per-ACK path.
            if let Some((id, _)) = self.tagging.take() {
                self.trains.remove(&id);
                self.probe_rates.remove(&id);
            }
            self.back_off(ctx);
            return;
        }
        if let Some((id, _)) = self.tagging.take() {
            self.trains.remove(&id);
            let probe_rate = self.probe_rates.remove(&id).unwrap_or(self.rate_bps);
            let est = rep.delivery_rate_bps();
            if rep.acked_pkts >= 2 && est > 0.0 {
                self.commit(est, probe_rate);
            }
            ctx.set_rate(self.rate_bps);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut CtrlCtx) {
        if token == TOKEN_POLL {
            self.start_train(ctx);
            ctx.set_timer(ctx.now + POLL, TOKEN_POLL);
        }
    }

    /// Tag for the next outgoing data packet (probe-train id), if a train
    /// is in progress; the engine stamps it and the receiver echoes it.
    fn probe_tag(&self) -> Option<u32> {
        self.tagging.map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::rng::SimRng;
    use pcc_transport::cc::{Effects as CtrlEffects, LossKind};

    fn ack_with_train(train: u32, recv_ms_x10: u64) -> AckEvent {
        let rtt = SimDuration::from_millis(30);
        AckEvent {
            now: SimTime::from_millis(recv_ms_x10 / 10 + 30),
            seq: 0,
            rtt,
            sampled: true,
            srtt: rtt,
            min_rtt: rtt,
            max_rtt: rtt,
            recv_at: SimTime::from_nanos(recv_ms_x10 * 100_000),
            probe_train: Some(train),
            of_retx: false,
            cum_ack: 0,
            newly_acked: 1,
            in_flight: 8,
            mss: 1500,
            in_recovery: false,
        }
    }

    fn loss_of(seqs: &[u64]) -> LossEvent<'_> {
        LossEvent {
            now: SimTime::ZERO,
            seqs,
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 0,
            mss: 1500,
        }
    }

    #[test]
    fn dispersion_estimate_matches_bottleneck() {
        let mut c = Pcp::new();
        let mut rng = SimRng::new(1);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut CtrlCtx::new(SimTime::ZERO, &mut rng, &mut fx));
        // 8 arrivals spaced 1.2 ms apart => 1500B/1.2ms = 10 Mbps service.
        for i in 0..TRAIN_LEN {
            let mut fx2 = CtrlEffects::default();
            let mut rng2 = SimRng::new(2);
            c.on_ack(
                &ack_with_train(0, (i as u64) * 12),
                &mut CtrlCtx::new(SimTime::from_millis(40), &mut rng2, &mut fx2),
            );
        }
        let est = c.last_estimate_bps().expect("estimate formed");
        assert!((est - 10e6).abs() / 10e6 < 0.01, "est {est}");
    }

    #[test]
    fn jumps_when_estimate_supports_double() {
        let mut c = Pcp::new();
        c.rate_bps = 4e6;
        let mut rng = SimRng::new(3);
        let mut fx = CtrlEffects::default();
        c.trains.insert(7, TrainObs::default());
        c.probe_rates.insert(7, 8e6);
        for i in 0..TRAIN_LEN {
            c.on_ack(
                &ack_with_train(7, (i as u64) * 12), // 10 Mbps >= 1.8*4
                &mut CtrlCtx::new(SimTime::from_millis(40), &mut rng, &mut fx),
            );
        }
        assert!((c.rate_bps - 8e6).abs() < 1e3, "doubled to {}", c.rate_bps);
    }

    #[test]
    fn settles_below_weak_estimate() {
        let mut c = Pcp::new();
        c.rate_bps = 50e6;
        let mut rng = SimRng::new(4);
        let mut fx = CtrlEffects::default();
        c.trains.insert(9, TrainObs::default());
        c.probe_rates.insert(9, 100e6);
        for i in 0..TRAIN_LEN {
            c.on_ack(
                &ack_with_train(9, (i as u64) * 12), // est 10 Mbps << 50
                &mut CtrlCtx::new(SimTime::from_millis(40), &mut rng, &mut fx),
            );
        }
        assert!((c.rate_bps - 9e6).abs() < 1e3, "0.9×est: {}", c.rate_bps);
    }

    #[test]
    fn loss_backs_off() {
        let mut c = Pcp::new();
        c.rate_bps = 20e6;
        c.last_estimate_bps = Some(10e6);
        let mut rng = SimRng::new(5);
        let mut fx = CtrlEffects::default();
        c.on_loss(
            &loss_of(&[1, 2]),
            &mut CtrlCtx::new(SimTime::ZERO, &mut rng, &mut fx),
        );
        assert!((c.rate_bps - 8e6).abs() < 1e3, "0.8×est: {}", c.rate_bps);
    }

    #[test]
    fn batched_report_closes_the_outstanding_probe() {
        use pcc_transport::report::MeasurementReport;
        let mut c = Pcp::new();
        let mut rng = SimRng::new(8);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut CtrlCtx::new(SimTime::ZERO, &mut rng, &mut fx));
        let probed = c.probe_rates[&0];
        // Report whose arrival statistics say ~10 Mbps — far above the
        // 2 Mbps probe — so the probe commits.
        let rep = MeasurementReport {
            start: SimTime::ZERO,
            end: SimTime::from_millis(30),
            acked_pkts: 25,
            acked_bytes: 25 * 1500,
            first_recv: Some(SimTime::from_millis(1)),
            last_recv: Some(SimTime::from_nanos(29_800_000)),
            rtt_samples: 25,
            mss: 1500,
            ..Default::default()
        };
        c.on_report(&rep, &mut CtrlCtx::new(rep.end, &mut rng, &mut fx));
        assert!(c.probe_tag().is_none(), "train closed");
        assert!((c.rate_bps - probed).abs() < 1.0, "committed the probe");
        assert!(c.last_estimate_bps().is_some());
    }

    #[test]
    fn batched_lossy_report_abandons_the_probe_and_backs_off() {
        use pcc_transport::report::MeasurementReport;
        let mut c = Pcp::new();
        let mut rng = SimRng::new(9);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut CtrlCtx::new(SimTime::ZERO, &mut rng, &mut fx));
        c.rate_bps = 20e6;
        c.last_estimate_bps = Some(10e6);
        let rep = MeasurementReport {
            lost_pkts: 2,
            loss_events: 1,
            new_loss_episode: true,
            mss: 1500,
            ..Default::default()
        };
        c.on_report(
            &rep,
            &mut CtrlCtx::new(SimTime::from_millis(30), &mut rng, &mut fx),
        );
        assert!(c.probe_tag().is_none(), "failed probe abandoned");
        assert!((c.rate_bps - 8e6).abs() < 1e3, "0.8×est: {}", c.rate_bps);
    }

    #[test]
    fn tagging_window_counts_down() {
        let mut c = Pcp::new();
        let mut rng = SimRng::new(6);
        let mut fx = CtrlEffects::default();
        c.on_start(&mut CtrlCtx::new(SimTime::ZERO, &mut rng, &mut fx));
        assert!(c.probe_tag().is_some());
        for s in 0..TRAIN_LEN as u64 {
            let mut fx2 = CtrlEffects::default();
            let mut rng2 = SimRng::new(7);
            let ev = SentEvent {
                now: SimTime::ZERO,
                seq: s,
                bytes: 1500,
                retx: false,
                in_flight: s + 1,
            };
            c.on_sent(&ev, &mut CtrlCtx::new(SimTime::ZERO, &mut rng2, &mut fx2));
        }
        assert!(c.probe_tag().is_none(), "train fully tagged");
    }
}
