//! Loopback integration tests: real datagrams, real clock, and the same
//! algorithm objects that drive the simulator — both a rate-based one
//! (PCC) and a window-based one (CUBIC via the registry), proving the
//! real-UDP datapath is algorithm-agnostic — on per-ACK callbacks and on
//! forced 1-RTT batched reports, one transfer at a time and several at
//! once in one process.

use std::net::UdpSocket;
use std::thread;

use pcc_scenarios::install_registry;
use pcc_simnet::time::SimDuration;
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent, ReportMode, SentEvent};
use pcc_transport::receiver::span_rejections;
use pcc_transport::registry::{self, CcParams, SpecError};
use pcc_udp::wire::{encode_data, DataHeader};
use pcc_udp::{receive, send_named, send_with, wire_mss, UdpSenderConfig};

fn sockets() -> (UdpSocket, UdpSocket, std::net::SocketAddr) {
    let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    let rx_addr = rx_sock.local_addr().expect("addr");
    let tx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    (rx_sock, tx_sock, rx_addr)
}

#[test]
fn pcc_transfers_over_loopback() {
    install_registry();
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 2 * 1024 * 1024; // 2 MB keeps CI fast
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 3,
        ..Default::default()
    };
    let report = send_named(&tx_sock, rx_addr, cfg, "pcc", SimDuration::from_millis(2))
        .expect("io")
        .expect("pcc is registered");
    let rx_report = rx.join().expect("join").expect("receive");

    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(report.sent >= total / 1200, "sent at least the payload");
    assert!(
        report.goodput_mbps > 1.0,
        "loopback goodput sane: {} Mbps",
        report.goodput_mbps
    );
    assert!(report.final_rate_bps > 0.0, "PCC drives a rate");
}

#[test]
fn cubic_transfers_over_loopback_via_registry() {
    install_registry();
    // A *window* algorithm on the real-UDP datapath, resolved by name —
    // impossible in the seed design, where only RateControllers could
    // drive real sockets.
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 1024 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 7,
        ..Default::default()
    };
    let report = send_named(&tx_sock, rx_addr, cfg, "cubic", SimDuration::from_millis(2))
        .expect("io")
        .expect("cubic is registered");
    let rx_report = rx.join().expect("join").expect("receive");

    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(
        report.final_cwnd_pkts >= 2.0,
        "cubic drives a window: {}",
        report.final_cwnd_pkts
    );
    assert!(
        report.goodput_mbps > 1.0,
        "loopback goodput sane: {} Mbps",
        report.goodput_mbps
    );
}

#[test]
fn unknown_algorithm_is_typed_error_not_panic() {
    install_registry();
    let (_rx_sock, tx_sock, rx_addr) = sockets();
    let cfg = UdpSenderConfig::default();
    let err = match send_named(&tx_sock, rx_addr, cfg, "tahoe", SimDuration::from_millis(2))
        .expect("io ok")
    {
        Ok(_) => panic!("tahoe is not registered"),
        Err(SpecError::Unknown(e)) => e,
        Err(other) => panic!("expected Unknown, got {other}"),
    };
    assert_eq!(err.name, "tahoe");
    assert!(err.known.contains(&"cubic".to_string()));
    assert!(
        err.known.contains(&"bbr".to_string()),
        "the hybrid is a registered real-socket citizen"
    );
}

#[test]
fn algorithm_without_operating_point_is_invalid_input_not_panic() {
    // The simulator treats an `on_start` that sets neither rate nor cwnd
    // as a programming error and panics; a real-socket caller gets a typed
    // error before anything is sent (so no receiver is needed).
    struct Lazy;
    impl CongestionControl for Lazy {
        fn name(&self) -> &'static str {
            "lazy"
        }
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
    }
    let (_rx_sock, tx_sock, rx_addr) = sockets();
    let err = send_with(
        &tx_sock,
        rx_addr,
        UdpSenderConfig::default(),
        Box::new(Lazy),
    )
    .expect_err("no operating point");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("`lazy` set neither"), "{err}");
}

#[test]
fn forcing_send_epochs_is_invalid_input_not_panic() {
    // Send epochs are opened by the algorithm; a host that asks for them
    // gets a typed error before anything is sent.
    install_registry();
    let (_rx_sock, tx_sock, rx_addr) = sockets();
    let cfg = UdpSenderConfig {
        report: Some(ReportMode::Epochs),
        ..UdpSenderConfig::default()
    };
    let err = send_named(&tx_sock, rx_addr, cfg, "pcc", SimDuration::from_millis(2))
        .expect_err("epochs cannot be forced");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("cannot be forced"), "{err}");
}

#[test]
fn invalid_spec_param_is_typed_error_not_panic() {
    install_registry();
    // The datapath threads parameterized specs through the registry, so a
    // bad key/value surfaces the schema's typed error (listing valid
    // keys) instead of constructing a mis-tuned controller.
    let (_rx_sock, tx_sock, rx_addr) = sockets();
    let cfg = UdpSenderConfig::default();
    let err = match send_named(
        &tx_sock,
        rx_addr,
        cfg,
        "cubic:paced=yes",
        SimDuration::from_millis(2),
    )
    .expect("io ok")
    {
        Ok(_) => panic!("paced=yes is not a bool"),
        Err(SpecError::InvalidParam(e)) => e,
        Err(other) => panic!("expected InvalidParam, got {other}"),
    };
    assert_eq!(err.algo, "cubic");
    assert!(
        err.valid.iter().any(|k| k.contains("paced")),
        "{:?}",
        err.valid
    );
}

#[test]
fn parameterized_specs_transfer_over_loopback() {
    install_registry();
    // The acceptance surface: `name:key=val` resolves on the *real*
    // datapath too — a paced cubic and a tuned PCC both move real bytes.
    for spec in ["cubic:paced=true", "pcc:eps=0.05"] {
        let (rx_sock, tx_sock, rx_addr) = sockets();
        let total: u64 = 512 * 1024;
        let rx = thread::spawn(move || receive(&rx_sock, total));
        let cfg = UdpSenderConfig {
            payload: 1200,
            total_bytes: total,
            seed: 13,
            ..Default::default()
        };
        let report = send_named(&tx_sock, rx_addr, cfg, spec, SimDuration::from_millis(2))
            .expect("io")
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let rx_report = rx.join().expect("join").expect("receive");
        assert!(
            rx_report.unique_bytes >= total,
            "{spec}: all payload arrived"
        );
        assert!(
            report.goodput_mbps > 1.0,
            "{spec}: goodput sane: {} Mbps",
            report.goodput_mbps
        );
    }
}

#[test]
fn a_forged_far_ahead_datagram_is_not_counted() {
    install_registry();
    // A third party injects one data datagram numbered far past anything
    // the sender will reach. The receiver ACKs it to the forger but must
    // neither store it nor count its payload: counted, it would end the
    // transfer one datagram early with a byte total that is not the
    // payload's.
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 1024 * 1200;
    let rx = thread::spawn(move || receive(&rx_sock, total));
    // Forged before the sender starts: mid-transfer, a receive buffer the
    // transfer has filled could drop it, and nothing would resend it.
    let forger = UdpSocket::bind("127.0.0.1:0").expect("bind forger");
    let h = DataHeader {
        seq: 1 << 40,
        sent_us: 0,
        retx: false,
        probe_train: None,
    };
    forger
        .send_to(&encode_data(&h, &[0u8; 1200]), rx_addr)
        .expect("forge");
    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 17,
        ..Default::default()
    };
    send_named(&tx_sock, rx_addr, cfg, "cubic", SimDuration::from_millis(2))
        .expect("io")
        .expect("cubic is registered");
    let rx_report = rx.join().expect("join").expect("receive");
    assert_eq!(rx_report.unique_bytes, total, "exactly the payload");
    assert!(
        span_rejections() >= 1,
        "the forged datagram was read and refused"
    );
}

#[test]
fn bbr_transfers_over_loopback_as_a_hybrid() {
    install_registry();
    // The first algorithm to drive *both* machineries of the UDP engine
    // at once: a pacing rate and a congestion window, live simultaneously
    // for the whole transfer.
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 2 * 1024 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 11,
        ..Default::default()
    };
    let report = send_named(&tx_sock, rx_addr, cfg, "bbr", SimDuration::from_millis(2))
        .expect("io")
        .expect("bbr is registered");
    let rx_report = rx.join().expect("join").expect("receive");

    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(
        report.final_rate_bps > 0.0,
        "bbr drives a pacing rate: {}",
        report.final_rate_bps
    );
    assert!(
        report.final_cwnd_pkts > 0.0,
        "bbr drives a window too: {}",
        report.final_cwnd_pkts
    );
    assert!(
        report.goodput_mbps > 1.0,
        "loopback goodput sane: {} Mbps",
        report.goodput_mbps
    );
}

#[test]
fn send_named_builds_the_algorithm_with_the_wire_mss() {
    // Regression for the MSS skew: the algorithm must account with the
    // wire packet size (payload + 40), not the 1500 B default. A probe
    // registration records the MSS its factory is handed and builds the
    // real `pcc`, so the fixed path also runs end-to-end with a payload far
    // from the default.
    use std::sync::atomic::{AtomicU32, Ordering};
    static BUILT_WITH_MSS: AtomicU32 = AtomicU32::new(0);
    install_registry();
    registry::register(
        "mss-probe",
        &[],
        None,
        Box::new(|params| {
            BUILT_WITH_MSS.store(params.mss, Ordering::SeqCst);
            registry::by_name("pcc", params).expect("pcc is registered")
        }),
    );
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 256 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 400,
        total_bytes: total,
        seed: 5,
        ..Default::default()
    };
    let rtt = SimDuration::from_millis(2);
    let report = send_named(&tx_sock, rx_addr, cfg, "mss-probe", rtt)
        .expect("io")
        .expect("just registered");
    let rx_report = rx.join().expect("join").expect("receive");

    assert_eq!(
        (wire_mss(&cfg), BUILT_WITH_MSS.load(Ordering::SeqCst)),
        (440, 440)
    );
    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(report.final_rate_bps > 0.0, "PCC drives a rate");
}

#[test]
fn pcp_probe_trains_cross_the_wire() {
    // Regression: the old UDP engine never tagged probe packets, so PCP's
    // dispersion measurement could not complete on real sockets. The tag
    // the engine stamps from `probe_tag` must ride the data header, be
    // echoed by the receiver, and reach the algorithm as
    // `AckEvent::probe_train`, exactly as in the simulator.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Forwards everything to the wrapped algorithm, counting tagged ACKs
    /// and checking each echoed train id is one the algorithm issued.
    struct TagWatch {
        inner: Box<dyn CongestionControl>,
        /// Highest train id issued so far, plus one (0 = none yet).
        issued: AtomicU64,
        tagged_acks: Arc<AtomicU64>,
    }
    impl CongestionControl for TagWatch {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.inner.on_start(ctx);
        }
        fn on_sent(&mut self, ev: &SentEvent, ctx: &mut Ctx) {
            self.inner.on_sent(ev, ctx);
        }
        fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
            if let Some(train) = ack.probe_train {
                let issued = self.issued.load(Ordering::Relaxed);
                assert!(
                    u64::from(train) < issued,
                    "echoed train {train} was never issued ({issued} so far)"
                );
                self.tagged_acks.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.on_ack(ack, ctx);
        }
        fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
            self.inner.on_loss(loss, ctx);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
            self.inner.on_timer(token, ctx);
        }
        fn probe_tag(&self) -> Option<u32> {
            let tag = self.inner.probe_tag();
            if let Some(train) = tag {
                self.issued
                    .fetch_max(u64::from(train) + 1, Ordering::Relaxed);
            }
            tag
        }
    }

    install_registry();
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 256 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));
    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 17,
        ..Default::default()
    };
    let params = CcParams::default()
        .with_mss((cfg.payload + 40) as u32)
        .with_rtt_hint(SimDuration::from_millis(2));
    let tagged_acks = Arc::new(AtomicU64::new(0));
    let cc = TagWatch {
        inner: registry::by_name("pcp", &params).expect("registered"),
        issued: AtomicU64::new(0),
        tagged_acks: Arc::clone(&tagged_acks),
    };
    send_with(&tx_sock, rx_addr, cfg, Box::new(cc)).expect("send");
    let rx_report = rx.join().expect("join").expect("receive");
    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(
        tagged_acks.load(Ordering::Relaxed) >= 1,
        "at least one probe-train tag made the round trip"
    );
}

#[test]
fn batched_reports_move_data_over_loopback() {
    install_registry();
    // Force 1-RTT batched reports on the real-socket engine: per-packet
    // callbacks are withheld, the algorithm only hears report boundaries,
    // and the transfer still completes for a window algorithm (cubic) and
    // a rate algorithm (sabul).
    for (name, seed) in [("cubic", 41u64), ("sabul", 43)] {
        let (rx_sock, tx_sock, rx_addr) = sockets();
        let total: u64 = 512 * 1024;
        let rx = thread::spawn(move || receive(&rx_sock, total));
        let cfg = UdpSenderConfig {
            payload: 1200,
            total_bytes: total,
            seed,
            report: Some(ReportMode::batched_rtt()),
            ..Default::default()
        };
        let report = send_named(&tx_sock, rx_addr, cfg, name, SimDuration::from_millis(2))
            .expect("io")
            .expect("registered");
        let rx_report = rx.join().expect("join").expect("receive");
        assert!(rx_report.unique_bytes >= total, "{name}: all bytes arrived");
        assert!(
            report.goodput_mbps > 0.5,
            "{name}: goodput sane: {} Mbps",
            report.goodput_mbps
        );
    }
}

#[test]
fn concurrent_transfers_share_one_process() {
    // Three flows, three algorithms (window, rate, hybrid), three socket
    // pairs, one process: the only test that resolves specs against the
    // process-wide registry from several threads at once, and each
    // transfer completes as if alone.
    install_registry();
    let mut workers = Vec::new();
    for (i, name) in ["cubic", "pcc", "bbr"].iter().enumerate() {
        let (rx_sock, tx_sock, rx_addr) = sockets();
        let total: u64 = 512 * 1024;
        let rx = thread::spawn(move || receive(&rx_sock, total));
        workers.push(thread::spawn(move || {
            let cfg = UdpSenderConfig {
                payload: 1200,
                total_bytes: total,
                seed: 31 + i as u64,
                ..Default::default()
            };
            let report = send_named(&tx_sock, rx_addr, cfg, name, SimDuration::from_millis(2))
                .expect("io")
                .expect("registered");
            let rx_report = rx.join().expect("join").expect("receive");
            assert!(rx_report.unique_bytes >= total, "{name}: all bytes arrived");
            assert!(
                report.goodput_mbps > 0.5,
                "{name}: goodput sane: {} Mbps",
                report.goodput_mbps
            );
        }));
    }
    for w in workers {
        w.join().expect("transfer thread");
    }
}
