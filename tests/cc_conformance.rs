//! Conformance suite for the unified `CongestionControl` API: every
//! algorithm in `pcc::ALGORITHMS` — the PCC×utility family, all seven TCP
//! baselines (plain and `paced=true`), SABUL, PCP, and the BBR-style hybrid —
//! is driven through the same scripted event sequence and the same
//! end-to-end simulation, and must uphold the API contract:
//!
//! * construction by name succeeds and the initial operating point is sane
//!   (a positive finite rate and/or a window ≥ 1 packet);
//! * behaviour is deterministic under a fixed `SimRng` seed;
//! * requested rates never fall below the 1 bps floor (and windows never
//!   below 1 packet), no matter how hostile the event stream;
//! * timers are redelivered with the token the algorithm armed;
//! * the algorithm actually moves data through the one `CcSender` engine.

use pcc::prelude::*;
use pcc::transport::cc::{
    AckEvent, CongestionControl, Ctx, Effects, LossEvent, LossKind, SentEvent,
};
use pcc::transport::registry;

fn params() -> CcParams {
    CcParams::default().with_rtt_hint(SimDuration::from_millis(30))
}

/// Every name in `pcc::ALGORITHMS`, plus `"{name}:paced=true"` for each
/// name whose schema has a `paced` key: 14 names and the 7 paced TCPs.
fn all_names() -> Vec<String> {
    let names = registry::names(ALGORITHMS);
    let paced = names
        .iter()
        .filter(|n| {
            registry::schema_of(ALGORITHMS, n).is_some_and(|s| s.iter().any(|p| p.key == "paced"))
        })
        .map(|n| format!("{n}:paced=true"));
    let specs: Vec<String> = names.iter().map(|n| n.to_string()).chain(paced).collect();
    assert_eq!(
        specs.len(),
        21,
        "PCC×utilities, 7 TCPs plain and paced, SABUL, PCP, BBR: {specs:?}"
    );
    assert!(
        names.contains(&"bbr"),
        "the hybrid is in the list: {names:?}"
    );
    specs
}

/// A scripted pseudo-engine: feeds a deterministic event sequence and logs
/// every effect the algorithm requests.
struct Script {
    cc: Box<dyn CongestionControl>,
    rng: SimRng,
    fx: Effects,
    now: SimTime,
    /// Armed timers (time, token), fired in order.
    timers: Vec<(SimTime, u64)>,
    /// Every applied effect, stringified for comparison.
    log: Vec<String>,
    rate: Option<f64>,
    cwnd: Option<f64>,
    next_seq: u64,
}

impl Script {
    fn new(name: &str, seed: u64) -> Script {
        let cc = registry::by_name(ALGORITHMS, name, &params()).expect("in the list");
        Script {
            cc,
            rng: SimRng::new(seed),
            fx: Effects::default(),
            now: SimTime::ZERO,
            timers: Vec::new(),
            log: Vec::new(),
            rate: None,
            cwnd: None,
            next_seq: 0,
        }
    }

    fn apply(&mut self) {
        let d = self.fx.drain();
        if let Some(r) = d.rate {
            assert!(r >= 1.0 && r.is_finite(), "rate floor respected: {r}");
            self.rate = Some(r);
            self.log.push(format!("rate={r:.3}"));
        }
        if let Some(w) = d.cwnd {
            assert!(w >= 1.0 && w.is_finite(), "cwnd floor respected: {w}");
            self.cwnd = Some(w);
            self.log.push(format!("cwnd={w:.3}"));
        }
        for (at, token) in d.timers {
            self.log.push(format!("timer@{}#{token}", at.as_nanos()));
            self.timers.push((at, token));
        }
    }

    fn start(&mut self) {
        {
            let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
            self.cc.on_start(&mut ctx);
        }
        self.apply();
    }

    /// Fire every timer due at or before `t`, redelivering tokens.
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
            self.apply();
        }
        self.now = t;
    }

    /// Send `n` packets and resolve them: `acked` delivered, the rest lost.
    fn traffic(&mut self, n: u64, acked: u64, rtt_ms: u64) {
        let rtt = SimDuration::from_millis(rtt_ms);
        for i in 0..n {
            let ev = SentEvent {
                now: self.now,
                seq: self.next_seq + i,
                bytes: 1500,
                retx: false,
                in_flight: i + 1,
            };
            {
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_sent(&ev, &mut ctx);
            }
            self.apply();
        }
        for i in 0..acked {
            let seq = self.next_seq + i;
            let ack = AckEvent {
                now: self.now,
                seq,
                rtt,
                sampled: true,
                srtt: rtt,
                min_rtt: rtt,
                max_rtt: rtt,
                recv_at: self.now + SimDuration::from_micros(i * 120),
                probe_train: self.cc.probe_tag(),
                of_retx: false,
                cum_ack: seq + 1,
                newly_acked: 1,
                in_flight: n - i,
                mss: 1500,
                in_recovery: false,
            };
            {
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_ack(&ack, &mut ctx);
            }
            self.apply();
        }
        if acked < n {
            let lost: Vec<u64> = (self.next_seq + acked..self.next_seq + n).collect();
            let ev = LossEvent {
                now: self.now,
                seqs: &lost,
                kind: if lost.len() as u64 == n {
                    LossKind::Timeout
                } else {
                    LossKind::Detected
                },
                new_episode: true,
                in_flight: 0,
                mss: 1500,
            };
            {
                let mut ctx = Ctx::new(self.now, &mut self.rng, &mut self.fx);
                self.cc.on_loss(&ev, &mut ctx);
            }
            self.apply();
        }
        self.next_seq += n;
    }

    /// The full scripted session: clean growth, partial loss, total loss,
    /// recovery — every event kind the API defines.
    fn run_session(&mut self) {
        self.start();
        self.advance_to(SimTime::from_millis(40));
        self.traffic(10, 10, 30);
        self.advance_to(SimTime::from_millis(200));
        self.traffic(20, 18, 30); // partial loss
        self.advance_to(SimTime::from_millis(600));
        self.traffic(8, 0, 30); // total loss (timeout-style)
        self.advance_to(SimTime::from_secs(2));
        self.traffic(30, 30, 35);
        self.advance_to(SimTime::from_secs(4));
    }
}

#[test]
fn initial_operating_point_is_sane() {
    for name in all_names() {
        let mut s = Script::new(&name, 11);
        s.start();
        assert!(
            s.rate.is_some() || s.cwnd.is_some(),
            "{name}: on_start must set a rate and/or a cwnd"
        );
        if let Some(r) = s.rate {
            assert!((1.0..1e12).contains(&r), "{name}: initial rate sane: {r}");
        }
        if let Some(w) = s.cwnd {
            assert!((1.0..1e6).contains(&w), "{name}: initial cwnd sane: {w}");
        }
    }
}

#[test]
fn deterministic_under_fixed_seed() {
    for name in all_names() {
        let mut a = Script::new(&name, 42);
        let mut b = Script::new(&name, 42);
        a.run_session();
        b.run_session();
        assert_eq!(a.log, b.log, "{name}: same seed, same effect stream");
    }
}

#[test]
fn floors_hold_under_hostile_loss() {
    for name in all_names() {
        let mut s = Script::new(&name, 3);
        s.start();
        // A barrage of pure-loss rounds; the `apply` asserts enforce the
        // rate/cwnd floors on every requested effect.
        for round in 0..30u64 {
            s.advance_to(SimTime::from_millis(100 * (round + 1)));
            s.traffic(5, 0, 30);
        }
        if let Some(r) = s.rate {
            assert!(r >= 1.0, "{name}: rate floored after loss barrage: {r}");
        }
        if let Some(w) = s.cwnd {
            assert!(w >= 1.0, "{name}: cwnd floored after loss barrage: {w}");
        }
    }
}

#[test]
fn timers_are_redelivered_with_their_token() {
    // The scripted driver redelivers armed timers verbatim; an algorithm
    // that mismatches tokens would misbehave or panic. Additionally check
    // the tokens stay within the engine's 56-bit passthrough budget.
    for name in all_names() {
        let mut s = Script::new(&name, 9);
        s.start();
        for &(_, token) in &s.timers {
            assert!(
                token < (1u64 << 56),
                "{name}: token {token} fits the engine's passthrough tag"
            );
        }
        s.run_session();
    }
}

mod hybrid_enforcement {
    //! When an algorithm sets *both* effects, each engine must enforce
    //! both: a closed window blocks sends even when pacing is due, and a
    //! due pacing gap blocks sends even when the window is open. This is
    //! the path BBR-style hybrids depend on.

    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use pcc::prelude::*;
    use pcc::transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent};

    /// Fixed hybrid operating point that records the largest in-flight
    /// count the engine ever let it reach.
    struct HybridProbe {
        rate_bps: f64,
        cwnd_pkts: f64,
        max_in_flight: Arc<AtomicU64>,
    }

    impl CongestionControl for HybridProbe {
        fn name(&self) -> &'static str {
            "hybrid-probe"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(self.rate_bps);
            ctx.set_cwnd(self.cwnd_pkts);
        }
        fn on_sent(&mut self, ev: &pcc::transport::cc::SentEvent, _ctx: &mut Ctx) {
            self.max_in_flight
                .fetch_max(ev.in_flight, Ordering::Relaxed);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
    }

    fn run_sim(rate_bps: f64, cwnd_pkts: f64, max_in_flight: Arc<AtomicU64>) -> f64 {
        let mut net = NetworkBuilder::new(SimConfig {
            sample_interval: SimDuration::from_millis(100),
            seed: 7,
        });
        let mut db = Dumbbell::new(
            &mut net,
            LinkConfig::bottleneck(100e6, SimDuration::ZERO, 1 << 20),
        );
        let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
        let flow = net.add_flow(FlowSpec {
            sender: Box::new(CcSender::new(
                CcSenderConfig::default(),
                Box::new(HybridProbe {
                    rate_bps,
                    cwnd_pkts,
                    max_in_flight,
                }),
            )),
            receiver: Box::new(SackReceiver::new()),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: SimTime::ZERO,
        });
        let report = net.build().run_until(SimTime::from_secs(5));
        report.avg_throughput_mbps(flow, SimTime::from_secs(1), SimTime::from_secs(5))
    }

    #[test]
    fn cc_sender_window_gates_pacing() {
        // 100 Mbps pacing against a 6-packet window on a 30 ms path: the
        // engine must never exceed the window, pinning throughput at
        // ~cwnd/RTT (2.4 Mbps) despite a due pacer.
        let peak = Arc::new(AtomicU64::new(0));
        let tput = run_sim(100e6, 6.0, Arc::clone(&peak));
        assert!(
            peak.load(Ordering::Relaxed) <= 6,
            "in-flight capped by the window: {}",
            peak.load(Ordering::Relaxed)
        );
        assert!(tput < 4.0, "window caps the paced rate: {tput} Mbps");
        assert!(tput > 0.5, "data still flows: {tput} Mbps");
    }

    #[test]
    fn cc_sender_pacing_gates_window() {
        // A 4 Mbps pacing rate under a huge window: the pacer, not the
        // window, must set the throughput.
        let peak = Arc::new(AtomicU64::new(0));
        let tput = run_sim(4e6, 10_000.0, peak);
        assert!(
            (tput - 4.0).abs() < 0.5,
            "pacing caps an open window: {tput} Mbps"
        );
    }

    #[test]
    fn udp_engine_window_gates_pacing() {
        // Same contract on real sockets: a gigabit pacing rate with a
        // 4-packet window must never have more than 4 datagrams in
        // flight.
        let (rx_sock, tx_sock, rx_addr) = udp_sockets();
        let total: u64 = 256 * 1024;
        let rx = std::thread::spawn(move || pcc::udp::receive(&rx_sock, total));
        let peak = Arc::new(AtomicU64::new(0));
        let cc = HybridProbe {
            rate_bps: 1e9,
            cwnd_pkts: 4.0,
            max_in_flight: Arc::clone(&peak),
        };
        let cfg = pcc::udp::UdpSenderConfig {
            payload: 1200,
            total_bytes: total,
            seed: 2,
            ..Default::default()
        };
        let report = pcc::udp::send_with(&tx_sock, rx_addr, cfg, Box::new(cc)).expect("send");
        rx.join().expect("join").expect("receive");
        assert!(
            peak.load(Ordering::Relaxed) <= 4,
            "UDP engine honours the window even with pacing due: {}",
            peak.load(Ordering::Relaxed)
        );
        assert!(report.final_cwnd_pkts > 0.0 && report.final_rate_bps > 0.0);
    }

    #[test]
    fn udp_engine_pacing_gates_window() {
        // And the converse: a huge window with a 16 Mbps pacing rate must
        // take at least the paced duration (512 KB wire ≈ 0.26 s) — if
        // the engine ignored the rate, loopback would finish in
        // milliseconds. Lower bound only, so CI jitter can't flake it.
        let (rx_sock, tx_sock, rx_addr) = udp_sockets();
        let total: u64 = 512 * 1024;
        let rx = std::thread::spawn(move || pcc::udp::receive(&rx_sock, total));
        let peak = Arc::new(AtomicU64::new(0));
        let cc = HybridProbe {
            rate_bps: 16e6,
            cwnd_pkts: 10_000.0,
            max_in_flight: peak,
        };
        let cfg = pcc::udp::UdpSenderConfig {
            payload: 1200,
            total_bytes: total,
            seed: 3,
            ..Default::default()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "this test times a real loopback UDP transfer; wall clock is the thing under test, not a simulation input"
        )]
        let t0 = std::time::Instant::now();
        pcc::udp::send_with(&tx_sock, rx_addr, cfg, Box::new(cc)).expect("send");
        let elapsed = t0.elapsed();
        rx.join().expect("join").expect("receive");
        assert!(
            elapsed.as_secs_f64() > 0.1,
            "pacing throttles an open window: {elapsed:?}"
        );
    }

    fn udp_sockets() -> (
        std::net::UdpSocket,
        std::net::UdpSocket,
        std::net::SocketAddr,
    ) {
        let rx_sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let rx_addr = rx_sock.local_addr().expect("addr");
        let tx_sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        (rx_sock, tx_sock, rx_addr)
    }
}

/// Parameterized specs covering every spec key — the conformance battery
/// runs over these exactly as over bare names.
const PARAMETERIZED_SPECS: &[&str] = &[
    "pcc:eps=0.05",
    "pcc:eps=0.02,util=latency",
    "pcc:eps_max=0.1",
    "pcc-lossresilient:tm=1.5,rct=false",
    "cubic:paced=true",
];

#[test]
fn parameterized_specs_run_the_conformance_battery() {
    // The sanity + determinism battery over tuned operating points: a
    // spec-built algorithm must uphold the same API contract as its
    // default-built sibling.
    for spec in PARAMETERIZED_SPECS {
        let mut s = Script::new(spec, 11);
        s.start();
        assert!(
            s.rate.is_some() || s.cwnd.is_some(),
            "{spec}: on_start sets an operating point"
        );
        let mut a = Script::new(spec, 42);
        let mut b = Script::new(spec, 42);
        a.run_session();
        b.run_session();
        assert_eq!(a.log, b.log, "{spec}: same seed, same effect stream");
    }
}

#[test]
fn parameterized_specs_move_data_end_to_end() {
    // Both datapaths resolve specs: this drives the simulator engine for
    // every table entry (the UDP datapath's spec transfers live in
    // crates/udp/tests/loopback.rs, which CI also runs).
    for spec in PARAMETERIZED_SPECS {
        let r = pcc::scenarios::run_single(
            pcc::scenarios::Protocol::Named(spec.to_string()),
            LinkSetup::new(20e6, SimDuration::from_millis(20), 75_000),
            SimDuration::from_secs(4),
            17,
        );
        let tput = r.throughput_in(0, SimTime::from_secs(1), SimTime::from_secs(4));
        assert!(tput > 0.5, "{spec}: moves data: {tput:.2} Mbps");
    }
}

#[test]
fn parameterized_specs_transfer_on_the_udp_datapath() {
    // The same spec strings on the *real-socket* engine: paced cubic and
    // tuned PCC each deliver a loopback transfer end-to-end (the sim
    // datapath's half of this contract is the test above).
    for spec in ["cubic:paced=true", "pcc:eps=0.05"] {
        let rx_sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let rx_addr = rx_sock.local_addr().expect("addr");
        let tx_sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        let total: u64 = 256 * 1024;
        let rx = std::thread::spawn(move || pcc::udp::receive(&rx_sock, total));
        let cfg = pcc::udp::UdpSenderConfig {
            payload: 1200,
            total_bytes: total,
            seed: 23,
            ..Default::default()
        };
        let report = pcc::udp::send_named(
            &tx_sock,
            rx_addr,
            cfg,
            ALGORITHMS,
            spec,
            SimDuration::from_millis(2),
        )
        .expect("io")
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let rx_report = rx.join().expect("join").expect("receive");
        assert!(
            rx_report.unique_bytes >= total,
            "{spec}: all payload arrived"
        );
        assert!(report.sent >= total / 1200, "{spec}: sender accounted");
    }
}

#[test]
fn spec_tuning_reaches_the_engine() {
    // `cubic:paced=true` is not merely accepted — the engine is handed
    // a pacing rate of IW10 over the 30 ms hint, on top of the same
    // window; plain `cubic` sets the window only.
    let mut paced = Script::new("cubic:paced=true", 7);
    paced.start();
    assert_eq!(paced.cwnd, Some(10.0), "IW10 either way");
    let rate = paced.rate.expect("paced=true sets a rate");
    assert!((rate - 10.0 * 1500.0 * 8.0 / 0.030).abs() < 1.0, "{rate}");
    let mut stock = Script::new("cubic", 7);
    stock.start();
    assert_eq!((stock.cwnd, stock.rate), (Some(10.0), None), "window only");
}

#[test]
fn invalid_specs_are_typed_errors_never_panics() {
    for bad in [
        "pcc:eps=banana",
        "pcc:eps_max=0.9",
        "pcc:nope=1",
        "pcc:alpha=50",
        "cubic:iw=0",
        "cubic:paced",
        "cubic:paced=yes",
        "bbr:cwnd_gain=99",
        "nosuch:eps=0.05",
        ":::",
        "pcc:,",
    ] {
        let err = match registry::by_name(ALGORITHMS, bad, &params()) {
            Ok(_) => panic!("{bad} must not resolve"),
            Err(e) => e,
        };
        assert!(!err.to_string().is_empty(), "{bad}: displayable error");
    }
    // And the error for a bad key lists the valid ones (self-documenting).
    let err = match registry::by_name(ALGORITHMS, "cubic:wrong=1", &params()) {
        Ok(_) => panic!("must fail"),
        Err(pcc::transport::registry::SpecError::InvalidParam(e)) => e,
        Err(other) => panic!("expected InvalidParam: {other}"),
    };
    assert_eq!(err.valid, ["paced=<bool>"], "valid keys listed");
}

#[test]
fn paced_is_a_key_of_the_seven_tcps_only() {
    // `paced` belongs to the TCP window adapter; every other algorithm
    // (`pcc:paced=true`, say) rejects it as a typed error naming the key.
    let mut paced = Vec::new();
    for name in registry::names(ALGORITHMS) {
        let spec = format!("{name}:paced=true");
        match registry::by_name(ALGORITHMS, &spec, &params()) {
            Ok(cc) => paced.push(cc.name()),
            Err(registry::SpecError::InvalidParam(e)) => assert_eq!(e.key, "paced", "{spec}"),
            Err(e) => panic!("{spec}: {e}"),
        }
    }
    assert_eq!(
        paced,
        ["bic", "cubic", "hybla", "illinois", "newreno", "vegas", "westwood"]
    );
}

#[test]
fn unpaced_is_the_plain_name() {
    // `cubic:paced=false` is `cubic`, effect for effect, through the whole
    // scripted session; `paced=true` adds a rate to the same windows.
    let session = |spec: &str| {
        let mut s = Script::new(spec, 42);
        s.run_session();
        s.log
    };
    let plain = session("cubic");
    assert_eq!(session("cubic:paced=false"), plain);
    let paced = session("cubic:paced=true");
    let windows = |log: &[String]| -> Vec<String> {
        log.iter()
            .filter(|e| !e.starts_with("rate="))
            .cloned()
            .collect()
    };
    assert_eq!(windows(&paced), plain);
    assert!(paced.iter().any(|e| e.starts_with("rate=")), "{paced:?}");
}

#[test]
fn empty_param_list_is_the_plain_name() {
    // `"pcc:"` ≡ `"pcc"` on the registry surface.
    let a = registry::by_name(ALGORITHMS, "pcc:", &params()).expect("trailing colon resolves");
    let b = registry::by_name(ALGORITHMS, "pcc", &params()).expect("plain resolves");
    assert_eq!(a.name(), b.name());
}

#[test]
fn every_algorithm_moves_data_end_to_end() {
    // The same engine, every algorithm, a clean 20 Mbps path: each must
    // deliver a meaningful share of the link within 4 s.
    for name in all_names() {
        let r = pcc::scenarios::run_single(
            pcc::scenarios::Protocol::Named(name.clone()),
            LinkSetup::new(20e6, SimDuration::from_millis(20), 75_000),
            SimDuration::from_secs(4),
            17,
        );
        let tput = r.throughput_in(0, SimTime::from_secs(1), SimTime::from_secs(4));
        assert!(
            tput > 0.5,
            "{name}: moves data through CcSender: {tput:.2} Mbps"
        );
    }
}

#[test]
fn every_algorithm_moves_data_with_batched_reports() {
    // The tentpole acceptance gate: the identical end-to-end scenario as
    // `every_algorithm_moves_data_end_to_end`, but the engine withholds
    // per-ACK callbacks and delivers one aggregated report per RTT (PCC
    // excepted: forced batching leaves its send-epoch reports alone).
    // Every algorithm must still move a meaningful share of the link,
    // clean and with 1% random loss in each direction (so reports carry
    // losses and thinned ACKs, not only clean intervals).
    use pcc::transport::cc::ReportMode;
    let names = all_names();
    let rtt = SimDuration::from_millis(20);
    let clean = LinkSetup::new(20e6, rtt, 75_000);
    let lossy = clean.with_loss(0.01).with_ack_loss(0.01);
    for (path, setup) in [("clean", clean), ("1% loss", lossy)] {
        for name in &names {
            let r = pcc::scenarios::run_dumbbell(
                setup,
                vec![pcc::scenarios::FlowPlan::new(
                    pcc::scenarios::Protocol::Named(name.clone()),
                    rtt,
                )
                .reporting(ReportMode::batched_rtt())],
                SimTime::from_secs(4),
                17,
            );
            let tput = r.throughput_in(0, SimTime::from_secs(1), SimTime::from_secs(4));
            assert!(
                tput > 0.5,
                "{name}: moves data on batched reports ({path}): {tput:.2} Mbps"
            );
        }
    }
}

#[test]
fn batched_reports_are_deterministic_end_to_end() {
    // Same seed, same batched run, bit-identical results — the report
    // machinery must not introduce any nondeterminism: SABUL on batched
    // reports, beside PCC, which the same override leaves on send epochs.
    use pcc::transport::cc::ReportMode;
    let rtt = SimDuration::from_millis(20);
    let run = || {
        let plan = |name: &str| {
            pcc::scenarios::FlowPlan::new(pcc::scenarios::Protocol::Named(name.into()), rtt)
                .reporting(ReportMode::batched_rtt())
        };
        pcc::scenarios::run_dumbbell(
            LinkSetup::new(20e6, rtt, 75_000),
            vec![plan("pcc"), plan("sabul")],
            SimTime::from_secs(4),
            17,
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.report.events_processed, b.report.events_processed);
    for (fa, fb) in a.report.flows.iter().zip(&b.report.flows) {
        assert_eq!(fa.delivered_bytes, fb.delivered_bytes);
        assert_eq!(fa.sent_packets, fb.sent_packets);
    }
}
