//! The dumbbell, the building block every figure reuses: one bottleneck
//! ([`LinkSetup`]: rate, buffer, queue discipline, loss, impairments) and
//! per-flow RTT shims, one [`FlowPlan`] per flow. [`dumbbell`] describes it
//! as a [`Scenario`]; [`run_dumbbell`] and [`run_single`] run it and hand
//! back the [`ScenarioRun`].

use pcc_simnet::link::LinkSchedule;
use pcc_simnet::prelude::*;
use pcc_transport::{FlowSize, ReportMode};

use crate::protocol::Protocol;
use crate::scenario::{Flow, Scenario, ScenarioRun};

/// Queue discipline selection for the bottleneck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// Drop-tail FIFO sized by `buffer_bytes`.
    DropTail,
    /// Per-flow DRR fair queueing (§4.4).
    Fq,
    /// FQ-CoDel (Fig. 17's "CoDel + FQ").
    FqCodel,
    /// Fair queueing with a 16 MB buffer, ignoring `buffer_bytes` (Fig.
    /// 17's "Bufferbloat + FQ" — all four cells of that figure keep FQ).
    Bufferbloat,
}

impl QueueKind {
    pub(crate) fn build(self, buffer_bytes: u64) -> Box<dyn Queue> {
        match self {
            QueueKind::DropTail => Box::new(DropTail::bytes(buffer_bytes)),
            QueueKind::Fq => Box::new(FairQueue::new(buffer_bytes)),
            QueueKind::FqCodel => Box::new(fq_codel(buffer_bytes)),
            QueueKind::Bufferbloat => Box::new(FairQueue::new(16 * 1024 * 1024)),
        }
    }
}

/// A single bottleneck path description.
#[derive(Clone, Copy, Debug)]
pub struct LinkSetup {
    /// Bottleneck rate, bits/sec.
    pub rate_bps: f64,
    /// Path round-trip time.
    pub rtt: SimDuration,
    /// Bottleneck buffer, bytes.
    pub buffer_bytes: u64,
    /// Random loss probability on the forward path.
    pub loss: f64,
    /// Random loss probability on the reverse (ACK) path.
    pub ack_loss: f64,
    /// Queue discipline at the bottleneck.
    pub queue: QueueKind,
    /// Optional jitter / bounded reordering at the bottleneck egress.
    pub jitter: Option<JitterConfig>,
    /// Optional token-bucket policer at the bottleneck ingress.
    pub policer: Option<PolicerConfig>,
}

impl LinkSetup {
    /// A clean drop-tail path.
    pub fn new(rate_bps: f64, rtt: SimDuration, buffer_bytes: u64) -> Self {
        LinkSetup {
            rate_bps,
            rtt,
            buffer_bytes,
            loss: 0.0,
            ack_loss: 0.0,
            queue: QueueKind::DropTail,
            jitter: None,
            policer: None,
        }
    }

    /// Set forward random loss.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Set reverse (ACK) random loss.
    pub fn with_ack_loss(mut self, loss: f64) -> Self {
        self.ack_loss = loss;
        self
    }

    /// Set the queue discipline.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Add jitter / bounded reordering at the bottleneck egress.
    pub fn with_jitter(mut self, jitter: JitterConfig) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Add a token-bucket policer at the bottleneck ingress.
    pub fn with_policer(mut self, policer: PolicerConfig) -> Self {
        self.policer = Some(policer);
        self
    }

    /// The impairment-stage configuration this setup implies.
    pub fn shaper(&self) -> ShaperConfig {
        ShaperConfig {
            jitter: self.jitter,
            policer: self.policer,
        }
    }

    /// The bottleneck link this setup describes. It carries no delay of
    /// its own: the RTT lives in per-flow shims.
    pub(crate) fn bottleneck(&self) -> LinkConfig {
        LinkConfig {
            rate_bps: Some(self.rate_bps),
            delay: SimDuration::ZERO,
            loss: self.loss,
            queue: self.queue.build(self.buffer_bytes),
            schedule: LinkSchedule::new(),
            shaper: self.shaper(),
        }
    }

    /// Bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        (self.rate_bps * self.rtt.as_secs_f64() / 8.0) as u64
    }
}

/// One flow's plan in a multi-flow scenario.
pub struct FlowPlan {
    /// The protocol driving the sender.
    pub protocol: Protocol,
    /// Path RTT for this flow.
    pub rtt: SimDuration,
    /// When the flow starts.
    pub start_at: SimTime,
    /// How much it sends.
    pub size: FlowSize,
    /// Feedback granularity override for this flow (`None` = the
    /// algorithm's own preference).
    pub report: Option<ReportMode>,
}

impl FlowPlan {
    /// An infinite flow starting at t=0.
    pub fn new(protocol: Protocol, rtt: SimDuration) -> Self {
        FlowPlan {
            protocol,
            rtt,
            start_at: SimTime::ZERO,
            size: FlowSize::Infinite,
            report: None,
        }
    }

    /// Start the flow at `t`.
    pub fn starting_at(mut self, t: SimTime) -> Self {
        self.start_at = t;
        self
    }

    /// Give the flow a fixed size.
    pub fn sized(mut self, size: FlowSize) -> Self {
        self.size = size;
        self
    }

    /// Force this flow's engine onto the given feedback granularity
    /// (e.g. `ReportMode::batched_rtt()` for the off-path control plane).
    pub fn reporting(mut self, mode: ReportMode) -> Self {
        self.report = Some(mode);
        self
    }
}

/// The dumbbell scenario: `plans` share one bottleneck described by
/// `setup`; each plan gets a receiver host behind its own RTT shims.
/// Static flow `i` is `plans[i]`. Adjust the returned [`Scenario`] (its
/// `sample_interval`, say) before running it.
pub fn dumbbell(setup: LinkSetup, plans: Vec<FlowPlan>, seed: u64) -> Scenario {
    let mut db = Dumbbell::graph(setup.bottleneck());
    let flows = plans
        .into_iter()
        .map(|plan| Flow {
            size: plan.size,
            start_at: plan.start_at,
            report: plan.report,
            ..Flow::new(
                db.source(),
                db.add_receiver(plan.rtt, setup.ack_loss),
                plan.protocol,
            )
        })
        .collect();
    Scenario {
        flows,
        ..Scenario::new(db.into_topology(), seed)
    }
}

/// Run `plans` over a shared bottleneck described by `setup` (each flow
/// gets its own RTT shims) until `horizon`.
pub fn run_dumbbell(
    setup: LinkSetup,
    plans: Vec<FlowPlan>,
    horizon: SimTime,
    seed: u64,
) -> ScenarioRun {
    dumbbell(setup, plans, seed).run(horizon)
}

/// Run one protocol alone on a path (the workhorse of Figs. 6, 7, 9 and
/// Table 1).
pub fn run_single(
    protocol: Protocol,
    setup: LinkSetup,
    duration: SimDuration,
    seed: u64,
) -> ScenarioRun {
    let rtt = setup.rtt;
    run_dumbbell(
        setup,
        vec![FlowPlan::new(protocol, rtt)],
        SimTime::ZERO + duration,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::flows_fingerprint;
    use crate::protocol::Protocol;
    use pcc_transport::receiver::span_rejections;

    fn quick(proto: Protocol, setup: LinkSetup, secs: u64) -> ScenarioRun {
        run_single(proto, setup, SimDuration::from_secs(secs), 42)
    }

    /// A golden row: its name, then what the run gave and what is pinned,
    /// each as (events processed, digest of the per-flow counters).
    type Golden<'a> = (&'a str, (u64, u64), (u64, u64));

    fn assert_pinned(golden: &[Golden]) {
        let moved: Vec<String> = golden
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(name, (events, digest), (was_events, was_digest))| {
                format!(
                    "{name}: ({events}, {digest:#018x}), pinned ({was_events}, {was_digest:#018x})"
                )
            })
            .collect();
        assert!(moved.is_empty(), "rows moved:\n{}", moved.join("\n"));
    }

    /// A run's events processed and [`flows_fingerprint`].
    fn pin(report: &SimReport) -> (u64, u64) {
        (report.events_processed, flows_fingerprint(report))
    }

    #[test]
    fn pcc_fills_clean_link() {
        let setup = LinkSetup::new(50e6, SimDuration::from_millis(30), 64_000);
        let r = quick(Protocol::named("pcc"), setup, 8);
        let t = r.throughput_in(0, SimTime::from_secs(4), SimTime::from_secs(8));
        assert!(t > 42.0, "PCC ≈ capacity: {t} Mbps");
    }

    #[test]
    fn cubic_fills_clean_link() {
        let setup = LinkSetup::new(50e6, SimDuration::from_millis(30), 187_500);
        let r = quick(Protocol::Tcp("cubic"), setup, 8);
        let t = r.throughput_in(0, SimTime::from_secs(4), SimTime::from_secs(8));
        assert!(t > 40.0, "CUBIC ≈ capacity with BDP buffer: {t} Mbps");
    }

    #[test]
    fn sabul_moves_data() {
        let setup = LinkSetup::new(50e6, SimDuration::from_millis(30), 64_000);
        let r = quick(Protocol::named("sabul"), setup, 8);
        let t = r.throughput_in(0, SimTime::from_secs(4), SimTime::from_secs(8));
        assert!(t > 10.0, "SABUL makes progress: {t} Mbps");
    }

    #[test]
    fn pcp_moves_data() {
        let setup = LinkSetup::new(50e6, SimDuration::from_millis(30), 64_000);
        let r = quick(Protocol::named("pcp"), setup, 8);
        let t = r.throughput_in(0, SimTime::from_secs(4), SimTime::from_secs(8));
        assert!(t > 5.0, "PCP makes progress: {t} Mbps");
    }

    #[test]
    fn golden_fingerprints_survive_graph_rebase() {
        // Exact counters captured on the pre-graph (direct add_link)
        // dumbbell construction. The topology rebase must not perturb a
        // single event: link ids, per-link RNG streams, and path vectors
        // all have to come out identical.
        let setup = LinkSetup::new(50e6, SimDuration::from_millis(30), 64_000);
        let r = run_single(Protocol::named("pcc"), setup, SimDuration::from_secs(8), 42);
        assert_eq!(r.report.events_processed, 157_622);
        assert_eq!(r.report.flows[0].delivered_bytes, 46_510_500);
        assert_eq!(r.report.flows[0].goodput_bytes, 46_510_500);
        assert_eq!(r.report.flows[0].sent_packets, 32_974);

        // A heterogeneous case: random loss both ways, FQ at the
        // bottleneck, staggered second flow with a different RTT.
        let setup = LinkSetup::new(20e6, SimDuration::from_millis(30), 75_000)
            .with_loss(0.01)
            .with_ack_loss(0.005)
            .with_queue(QueueKind::Fq);
        let r = run_dumbbell(
            setup,
            vec![
                FlowPlan::new(Protocol::Tcp("cubic"), SimDuration::from_millis(30)),
                FlowPlan::new(Protocol::Tcp("newreno"), SimDuration::from_millis(60))
                    .starting_at(SimTime::from_secs(1)),
            ],
            SimTime::from_secs(10),
            7,
        );
        assert_eq!(r.report.events_processed, 29_420);
        assert_eq!(r.report.flows[0].delivered_bytes, 7_152_000);
        assert_eq!(r.report.flows[1].delivered_bytes, 2_410_500);
        assert_eq!(r.report.flows[0].detected_losses, 263);
        assert_eq!(r.report.flows[1].detected_losses, 28);

        // Every other scenario family, one row each, captured on the
        // hand-wired constructions that preceded `Scenario`. A row pins
        // the event count apart from a digest of the per-flow counters,
        // so a change to the engine's timers alone moves only the count.
        // The churn row's digest leaves out its dead timers of retired
        // flows too, so they are pinned on their own below. (The three
        // pcc fabric values were re-pinned once: finished senders stopped
        // ticking their controller to the horizon, which moved the event
        // count and no per-flow counter. The churn row was re-pinned once,
        // when a retired flow's timer stopped being an event: 204 557
        // events became 199 977, 4 580 fewer, which is its `stale_timers`
        // on both sides. Every harvested flow and every other churn
        // counter is unchanged. The rapid row was re-pinned once, when Fig.
        // 11 moved onto `run_trace`: its bottleneck carries the initial
        // one-way delay and a trace-sized buffer, so every epoch's RTT lost
        // the extra d0 the shims had added.)
        use crate::chaos::{run_chaos_report, ChaosScript};
        use crate::dc::{run_ft_permutation, run_ls_mix, run_rack_incast, LsFabric};
        use crate::dynamics::run_convergence;
        use crate::rapid::run_rapid_change;
        use crate::vary::run_trace;
        use crate::workload::{churn_benchmark_config, run_churn};
        use pcc_simnet::trace::LinkTrace;

        let cubic = Protocol::Tcp("cubic");
        let pcc = Protocol::named("pcc");
        let mk_pcc = |_| pcc.clone();
        let chaos = |p: &Protocol, s| pin(&run_chaos_report(p, s, 9).1);
        let lte = LinkTrace::builtin("lte").expect("bundled");
        let shaper = ShaperConfig::default();
        let trace = run_trace(cubic.clone(), &lte, SimDuration::from_secs(10), 3, shaper);
        let fabric = LsFabric {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 4,
            oversubscription: 4.0,
        };
        let rtt = SimDuration::from_millis(30);
        let batched = run_dumbbell(
            LinkSetup::new(50e6, rtt, 187_500),
            vec![FlowPlan::new(cubic.clone(), rtt).reporting(ReportMode::batched_rtt())],
            SimTime::from_secs(8),
            42,
        );
        // A paced window algorithm seeds its first pacing rate from the
        // RTT hint, so the paced cubic spine run pins the fabric hint too.
        let paced = Protocol::named("cubic:paced=true");
        // Fig. 11's generated trace, and a dumbbell sampled every second.
        let secs = SimDuration::from_secs;
        let rapid = run_rapid_change(pcc.clone(), secs(5), secs(60), 13, 2);
        let convergence = run_convergence(pcc.clone(), 2, secs(20), secs(60), 6);
        let churn = run_churn(churn_benchmark_config(3000, 1));
        let golden: [Golden; 13] = [
            (
                "trace lte cubic",
                pin(&trace.report),
                (6_316, 0xac32_6cb7_2dbc_c1b7),
            ),
            (
                "rack incast k=4 pcc",
                pin(&run_rack_incast(4, &pcc, 12, 256 * 1024, 5).run.report),
                (56_378, 0x62a6_4067_2d9d_e4c9),
            ),
            (
                "ft permutation k=4 pcc",
                pin(&run_ft_permutation(4, &mk_pcc, 64 * 1024, 9).1.report),
                (18_044, 0xff47_5bf4_282b_989a),
            ),
            (
                "leaf-spine mix pcc",
                pin(&run_ls_mix(fabric, &pcc, 512 * 1024, 32 * 1024, 11).2.report),
                (52_067, 0xfb23_ed94_2601_466a),
            ),
            (
                "chaos flap",
                chaos(&cubic, ChaosScript::LinkFlap),
                (12_811, 0x0681_3285_85a1_755e),
            ),
            (
                "chaos blackout",
                chaos(&cubic, ChaosScript::Blackout),
                (12_773, 0x853f_4ff8_6c44_6e4e),
            ),
            (
                "chaos spine",
                chaos(&cubic, ChaosScript::SpineFailure),
                (2_157_482, 0x8602_5284_6601_f95b),
            ),
            (
                "chaos corrupt",
                chaos(&cubic, ChaosScript::CorruptStorm),
                (13_791, 0x82a7_b3ff_8b80_cedd),
            ),
            (
                "chaos spine paced",
                chaos(&paced, ChaosScript::SpineFailure),
                (2_296_227, 0x0d04_44dd_1937_b44c),
            ),
            (
                "churn benchmark 3000",
                (churn.events_processed, churn.flows_fingerprint()),
                (199_977, 0x2487_65f6_9152_c4f3),
            ),
            (
                "dumbbell cubic batched",
                pin(&batched.report),
                (137_549, 0xddff_0b69_51cb_9e63),
            ),
            (
                "rapid pcc",
                pin(&rapid.inner.report),
                (993_556, 0x8d04_d64d_457b_9c4a),
            ),
            (
                "convergence pcc n=2",
                pin(&convergence.inner.report),
                (2_489_277, 0x9a60_3568_b6b9_478f),
            ),
        ];
        assert_pinned(&golden);
        assert_eq!(churn.churn.stale_timers, 4_580, "churn dead timers");
        assert_eq!(
            span_rejections(),
            0,
            "no simulated arrival is beyond the span"
        );
    }

    #[test]
    fn golden_fingerprints_cover_out_of_order_link_events() {
        // Two runs whose bottleneck emits arrivals out of time order — a
        // schedule step that lowers the propagation delay mid-run (packets
        // sent after the step land before ones sent just ahead of it) and
        // a jitter stage with bounded reordering. Fingerprints captured on
        // the single-heap event queue.
        use pcc_simnet::link::LinkStep;

        let rtt = SimDuration::from_millis(30);
        let setup = LinkSetup::new(50e6, rtt, 187_500);
        let plans = || {
            vec![
                FlowPlan::new(Protocol::Tcp("cubic"), rtt),
                FlowPlan::new(Protocol::named("pcc"), rtt),
            ]
        };
        let mut schedule = LinkSchedule::new();
        for (at_s, delay_ms) in [(0, 20), (3, 2)] {
            schedule.push(LinkStep {
                at: SimTime::from_secs(at_s),
                rate_bps: None,
                delay: Some(SimDuration::from_millis(delay_ms)),
                loss: None,
            });
        }
        let horizon = SimTime::from_secs(6);
        let mut db = Dumbbell::graph(LinkConfig {
            schedule,
            ..setup.bottleneck()
        });
        let flows = plans()
            .into_iter()
            .map(|plan| Flow::new(db.source(), db.add_receiver(rtt, 0.0), plan.protocol))
            .collect();
        let lowered = Scenario {
            flows,
            ..Scenario::new(db.into_topology(), 42)
        }
        .run(horizon);
        let jitter = JitterConfig::uniform(SimDuration::from_millis(2)).with_reordering(0.02, 4);
        let reordered = run_dumbbell(setup.with_jitter(jitter), plans(), horizon, 42);
        // Every link event of the lowered run is stored in a delay lane:
        // after the step, arrivals land 2 ms after their departure and bind
        // a second propagation lane. A serialization schedules its
        // completion and its arrival, a pure-delay link one arrival per
        // packet offered, minus egress losses; a rated link may still hold
        // one completion at the horizon.
        let r = &lowered.report;
        let link_events: u64 = r
            .links
            .iter()
            .map(|l| {
                let s = l.stats;
                let scheduled = if s.transmitted == 0 {
                    s.offered
                } else {
                    2 * s.transmitted
                };
                scheduled - s.egress_lost
            })
            .sum();
        let pending = r.lane_events.checked_sub(link_events);
        assert!(
            pending.is_some_and(|p| p <= r.links.len() as u64),
            "{} lane events for {link_events} link events",
            r.lane_events
        );
        // Jittered arrivals are off the nominal delay and go to the heap.
        let plain = run_dumbbell(setup, plans(), horizon, 42);
        assert!(reordered.report.lane_events < plain.report.lane_events);
        assert_pinned(&[
            (
                "delay step",
                pin(&lowered.report),
                (104_971, 0x1b41_6a17_79bf_0138),
            ),
            (
                "reordering shaper",
                pin(&reordered.report),
                (117_676, 0x6a35_fd70_73eb_0a51),
            ),
        ]);
        assert_eq!(
            span_rejections(),
            0,
            "no simulated arrival is beyond the span"
        );
    }

    #[test]
    fn golden_fingerprints_pin_the_zero_delay_hop_fallbacks() {
        // A dumbbell's bottleneck has no delay of its own, so a packet
        // reaches the next hop at the instant its serialization completes.
        // The simulation routes it in place, except in two cases where the
        // arrival still waits in the event queue. Each run below reaches
        // one: a fault-plane duplicate delivered with its original (383
        // times here), and a paced sender's next departure falling due at
        // that same instant (23 323 times). Fingerprints captured when
        // every arrival was scheduled. The lane counts were 66 252 and
        // 131 463 then, and fell by exactly the hops routed in place
        // (15 908 and 9 558); routing a fallback case in place moves them.
        use crate::chaos::report_fingerprint;

        let rtt = SimDuration::from_millis(30);
        let setup = LinkSetup::new(50e6, rtt, 187_500);
        let mut db = Dumbbell::graph(setup.bottleneck());
        let flow = Flow::new(
            db.source(),
            db.add_receiver(rtt, 0.0),
            Protocol::Tcp("cubic"),
        );
        let script = "1.0 duplicate 0 2.0 0.05\n";
        let duplicated = Scenario {
            flows: vec![flow],
            faults: Some(FaultScript::parse(script).expect("a valid script")),
            ..Scenario::new(db.into_topology(), 42)
        }
        .run(SimTime::from_secs(4))
        .report;
        let paced = run_single(
            Protocol::named("cubic:paced=true"),
            setup,
            SimDuration::from_secs(8),
            42,
        )
        .report;
        assert!(duplicated.links[0].stats.fault_duplicated > 0);
        assert_eq!(
            [&duplicated, &paced].map(|r| (report_fingerprint(r), r.lane_events)),
            [
                (0x3f01_615e_debc_bae7, 50_344),
                (0x54b3_3399_7a1f_8431, 121_905)
            ],
            "fingerprints or lane counts moved (duplicate, paced tie)"
        );
        assert_eq!(
            span_rejections(),
            0,
            "no simulated arrival is beyond the span"
        );
    }

    #[test]
    fn golden_fingerprints_pin_both_feedback_paths() {
        // What crosses the `CongestionControl` seam, pinned per algorithm
        // family: the three algorithms with a report estimator of their own
        // on forced 1-RTT batched reports (PCC's epochs ignore the
        // override, so batched PCC must equal per-ACK PCC), and a PCC run
        // whose engine closes ~275 send epochs by deadline write-off (1 ms
        // RTT: a lost retransmission waits out the engine's 10 ms RTO floor,
        // past the 2.5-SRTT deadline; 2% loss each way). Then the PCC
        // controller paths nothing above reaches: single-pair decisions on
        // fixed MI timing, and on the default timing, two `pcc-latency`
        // flows competing (inconclusive rounds escalate ε, and the
        // latency utility reads the previous interval's RTT), the
        // loss-resilient utility at 20% loss, and `on_resume` after an
        // ACK-path blackout. Last, per-ACK BBR through 1% loss and a
        // reordering jitter stage: its delivery sampler takes ACKs behind
        // holes, cumulative jumps as holes fill, and loss declarations.
        // And the paced window adapter on both feedback paths: per-ACK New
        // Reno on Fig. 9's 6 kB buffer, Illinois on batched reports, and
        // tuned Vegas, whose spec keys pass through with `paced`.
        use crate::chaos::{run_chaos_report, ChaosScript};
        use crate::links::shallow_setup;

        let rtt = SimDuration::from_millis(30);
        let short = SimDuration::from_millis(1);
        let setup = LinkSetup::new(50e6, rtt, 187_500);
        let lossy = LinkSetup::new(100e6, short, 15_000)
            .with_loss(0.02)
            .with_ack_loss(0.02);
        let jitter = JitterConfig::uniform(SimDuration::from_millis(2)).with_reordering(0.02, 4);
        let reordered = setup.with_loss(0.01).with_jitter(jitter);
        let named = |name: &str| Protocol::Named(name.into());
        let run_all =
            |setup, plans| pin(&run_dumbbell(setup, plans, SimTime::from_secs(8), 42).report);
        let run = |setup, plan| run_all(setup, vec![plan]);
        let per_ack = |name| FlowPlan::new(named(name), rtt);
        let batched = |name| FlowPlan::new(named(name), rtt).reporting(ReportMode::batched_rtt());
        // PCC reports by send epochs, which the batching override leaves
        // alone: batched PCC is per-ACK PCC.
        for spec in ["pcc", "pcc:rct=false"] {
            assert_eq!(
                run(setup, batched(spec)),
                run(setup, per_ack(spec)),
                "{spec} batched"
            );
        }
        let golden: [Golden; 12] = [
            (
                "bbr batched",
                run(setup, batched("bbr")),
                (164_319, 0x759b_d66a_abd1_41fe),
            ),
            (
                "pcp batched",
                run(setup, batched("pcp")),
                (2_364, 0xbd7c_ce83_b584_6a00),
            ),
            (
                "sabul batched",
                run(setup, batched("sabul")),
                (537_676, 0xa316_e501_1300_b577),
            ),
            (
                "pcc per-ack deadline write-offs",
                run(lossy, FlowPlan::new(named("pcc"), short)),
                (332_162, 0xbe1c_d842_f1cf_078a),
            ),
            (
                "pcc single-pair fixed-tm per-ack",
                run(setup, per_ack("pcc:tm=1,rct=false")),
                (162_361, 0x6716_8feb_0bc2_d1dc),
            ),
            (
                "pcc-latency x2 competing",
                run_all(
                    setup,
                    vec![
                        per_ack("pcc-latency"),
                        per_ack("pcc-latency").starting_at(SimTime::from_secs(1)),
                    ],
                ),
                (145_269, 0x4dfc_873d_bdc0_05d4),
            ),
            (
                "pcc-lossresilient 20% loss",
                run(setup.with_loss(0.2), per_ack("pcc-lossresilient")),
                (128_378, 0xecfa_ede5_4590_4719),
            ),
            (
                "pcc chaos blackout",
                pin(&run_chaos_report(&named("pcc"), ChaosScript::Blackout, 9).1),
                (22_591, 0x5b5e_b619_b185_9188),
            ),
            (
                "bbr per-ack 1% loss reordered",
                run(reordered, per_ack("bbr")),
                (165_614, 0xf593_69ac_8182_0780),
            ),
            (
                "newreno:paced=true per-ack fig09 6 kB buffer",
                run(shallow_setup(6_000), per_ack("newreno:paced=true")),
                (252_103, 0x3b53_1127_9a9c_2e6f),
            ),
            (
                "illinois:paced=true batched",
                run(setup, batched("illinois:paced=true")),
                (184_702, 0x6ed5_e496_2592_5be3),
            ),
            (
                "vegas:paced=true per-ack",
                run(setup, per_ack("vegas:paced=true")),
                (177_698, 0x256b_5fbf_290d_93fa),
            ),
        ];
        assert_pinned(&golden);
        assert_eq!(
            span_rejections(),
            0,
            "no simulated arrival is beyond the span"
        );
    }

    #[test]
    fn completed_flows_are_silent() {
        // A finished sender's controller must stop with it: once both
        // sized flows complete, a 30 s horizon costs only the sampling
        // ticks plus the few timers and straggler packets already pending
        // at completion.
        let rtt = SimDuration::from_millis(30);
        let setup = LinkSetup::new(50e6, rtt, 187_500);
        let plans = || {
            [Protocol::named("pcc"), Protocol::Tcp("cubic")]
                .into_iter()
                .map(|p| FlowPlan::new(p, rtt).sized(FlowSize::Bytes(4 << 20)))
                .collect()
        };
        let horizon = SimTime::from_secs(30);
        let full = run_dumbbell(setup, plans(), horizon, 42).report;
        let tick = full.sample_interval.as_nanos();
        let mut done = SimTime::ZERO;
        for flow in &full.flows {
            let completed = flow.completed_at.expect("4 MiB finishes in 30 s");
            // Sample k is taken at (k + 1) ticks: every one from the first
            // tick after completion on sees the same rate decision.
            let after = &flow.series.rate_mbps[(completed.as_nanos() / tick) as usize..];
            assert!(
                after.iter().all(|&r| r == after[0]),
                "rate decided after completing at {completed:?}: {after:?}"
            );
            done = done.max(completed);
        }
        // The same run cut at the last completion is the same run up to it.
        let cut = run_dumbbell(setup, plans(), done, 42).report;
        let samples = horizon.as_nanos() / tick - done.as_nanos() / tick;
        let after = full.events_processed - cut.events_processed;
        assert!(
            after <= samples + 64,
            "{after} events after the last completion, {samples} of them samples"
        );
    }

    #[test]
    fn batched_reports_land_near_the_per_ack_baseline() {
        // Tolerance gate for the off-path control plane: the same CUBIC
        // flow fed 1-RTT batched reports must land within 10% of the
        // per-ACK baseline on a clean BDP-buffered link.
        let setup = LinkSetup::new(50e6, SimDuration::from_millis(30), 187_500);
        let rtt = SimDuration::from_millis(30);
        let horizon = SimTime::from_secs(8);
        let base = run_dumbbell(
            setup,
            vec![FlowPlan::new(Protocol::Tcp("cubic"), rtt)],
            horizon,
            42,
        );
        let batched = run_dumbbell(
            setup,
            vec![FlowPlan::new(Protocol::Tcp("cubic"), rtt).reporting(ReportMode::batched_rtt())],
            horizon,
            42,
        );
        let tb = base.throughput_in(0, SimTime::from_secs(4), SimTime::from_secs(8));
        let tr = batched.throughput_in(0, SimTime::from_secs(4), SimTime::from_secs(8));
        assert!(tr > 40.0, "batched CUBIC still fills the link: {tr} Mbps");
        assert!(
            (tr - tb).abs() / tb < 0.10,
            "within 10% of per-ACK: {tb} vs {tr} Mbps"
        );
    }

    #[test]
    fn multi_flow_shares_bottleneck() {
        // PCC convergence takes tens of seconds at ±1% steps (the paper's
        // Fig. 16 reports 30-60 s); measure after the dust settles.
        let setup = LinkSetup::new(20e6, SimDuration::from_millis(30), 75_000);
        let rtt = SimDuration::from_millis(30);
        let r = run_dumbbell(
            setup,
            vec![
                FlowPlan::new(Protocol::named("pcc"), rtt),
                FlowPlan::new(Protocol::named("pcc"), rtt),
            ],
            SimTime::from_secs(90),
            7,
        );
        let t0 = r.throughput_in(0, SimTime::from_secs(60), SimTime::from_secs(90));
        let t1 = r.throughput_in(1, SimTime::from_secs(60), SimTime::from_secs(90));
        assert!(t0 + t1 > 16.0, "link utilized: {t0}+{t1}");
        let ratio = t0.max(t1) / t0.min(t1).max(0.01);
        assert!(ratio < 2.0, "roughly fair: {t0} vs {t1}");
    }
}
