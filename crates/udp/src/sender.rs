//! The UDP sender: the paper's user-space prototype shape, as a thin
//! driver around the one transport engine. [`send_with`] owns a socket, a
//! monotonic clock and a timer heap — nothing else. Every transmission
//! decision (pacing, window clocking, SACK reliability, RTO backoff, batched
//! reports, the dead-time budget) is made by
//! [`CcSender`], the same sans-IO engine the simulator drives: the loop
//! feeds it `start`, each decoded ACK and each due timer through the
//! simulator's own [`Endpoint`] interface with real time mapped onto
//! [`SimTime`], and carries out the [`Action`]s it emits. So the algorithm
//! *and* the engine under it are the same objects on both datapaths.
//!
//! Everything runs on blocking `std::net` sockets (non-blocking receive +
//! short sleeps); no async runtime is required.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use pcc_simnet::endpoint::{Action, Endpoint, EndpointCtx};
use pcc_simnet::ids::{FlowId, Side};
use pcc_simnet::packet::{AckInfo, Packet};
use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::{CongestionControl, ReportMode};
use pcc_transport::error::TransferError;
use pcc_transport::registry::{self, CcParams, SpecError};
use pcc_transport::sender::RATE_MIN_RTO;
use pcc_transport::{CcSender, CcSenderConfig, FlowSize, TransportConfig};

use crate::wire::{decode, encode_data, AckPacket, DataHeader, Frame};

/// Sender configuration.
#[derive(Clone, Copy, Debug)]
pub struct UdpSenderConfig {
    /// Payload bytes per datagram.
    pub payload: usize,
    /// Total payload bytes to deliver.
    pub total_bytes: u64,
    /// RNG seed for the algorithm's randomized decisions.
    pub seed: u64,
    /// Feedback-path override. `None` honours the algorithm's own
    /// [`CongestionControl::report_mode`] preference;
    /// `Some(Batched)` batches a per-ACK algorithm and changes no other
    /// preference; `Some(Epochs)` is an `InvalidInput` error. Passed
    /// through as `CcSenderConfig::report`.
    pub report: Option<ReportMode>,
    /// Dead-time budget, passed through as
    /// `CcSenderConfig::dead_time_budget`: if no forward progress (no new
    /// bytes cumulatively acknowledged) happens for this long while
    /// timeouts keep firing, the transfer aborts with an
    /// [`ErrorKind::TimedOut`] `io::Error` wrapping
    /// [`TransferError::Stalled`] (downcast via `err.get_ref()`), instead
    /// of retrying a dead peer forever on the capped-backoff timer. `None`
    /// disables the budget. In simulation the engine's default is off (the
    /// experiment horizon bounds every run); a real socket has no horizon
    /// — the default here is 30 s on.
    pub dead_time_budget: Option<Duration>,
}

impl Default for UdpSenderConfig {
    fn default() -> Self {
        UdpSenderConfig {
            payload: 1200,
            total_bytes: 8 * 1024 * 1024,
            seed: 1,
            report: None,
            dead_time_budget: Some(Duration::from_secs(30)),
        }
    }
}

/// Outcome of one send session.
#[derive(Clone, Copy, Debug, Default)]
pub struct SenderReport {
    /// Wall-clock transfer time.
    pub elapsed: Duration,
    /// Payload goodput in Mbit/s.
    pub goodput_mbps: f64,
    /// Datagrams sent (including retransmissions).
    pub sent: u64,
    /// Losses detected.
    pub losses: u64,
    /// Final pacing rate, bits/sec (0 for pure window algorithms).
    pub final_rate_bps: f64,
    /// Final congestion window, packets (0 for pure rate algorithms).
    pub final_cwnd_pkts: f64,
    /// RTO expiries (window and hybrid algorithms; pure rate control arms
    /// no RTO timer). Each one doubles the effective RTO until an ACK
    /// delivers an RTT sample, so a blackout fires O(log duration) of
    /// these instead of one per base RTO.
    pub timeouts: u64,
}

/// Bytes of UDP/IP framing added to each payload datagram; what the
/// engine accounts as the wire packet size must include it, and so must
/// the MSS handed to the algorithm.
pub const WIRE_OVERHEAD_BYTES: usize = 40;

/// The wire packet size for a sender configuration.
pub fn wire_mss(cfg: &UdpSenderConfig) -> u32 {
    (cfg.payload + WIRE_OVERHEAD_BYTES) as u32
}

/// Send with any registered algorithm, resolved by name or parameterized
/// spec (`"pcc"`, `"cubic:paced=true"`, `"pcc:eps=0.05,util=latency"`, ...) against
/// whatever the process has registered: this crate names no algorithm and
/// installs none, so call `pcc::install_registry()` (or
/// [`registry::register`] your own) first. Unknown names and invalid spec
/// parameters surface the registry's typed [`SpecError`]; with nothing
/// registered every name is unknown and the error says the registry is
/// empty. The algorithm is built with the *wire* MSS
/// ([`wire_mss`]): PCC's 2·MSS/RTT starting rate and its rate floor are
/// in units of the packet size, and a controller left at the 1500 B
/// default overshoots both on a `payload + 40` wire.
pub fn send_named(
    socket: &UdpSocket,
    peer: SocketAddr,
    cfg: UdpSenderConfig,
    name: &str,
    rtt_hint: SimDuration,
) -> std::io::Result<Result<SenderReport, SpecError>> {
    let params = CcParams::default()
        .with_mss(wire_mss(&cfg))
        .with_rtt_hint(rtt_hint);
    match registry::by_name(name, &params) {
        Ok(cc) => send_with(socket, peer, cfg, cc).map(Ok),
        Err(e) => Ok(Err(e)),
    }
}

/// Upper bound on one idle nap, so ACK processing stays responsive while
/// the next timer is far away (the socket is polled, not blocked on).
const MAX_NAP: Duration = Duration::from_millis(1);

/// The engine plus everything its actions act on.
struct Driver<'a> {
    socket: &'a UdpSocket,
    peer: SocketAddr,
    payload: Vec<u8>,
    start: Instant,
    engine: CcSender,
    rng: SimRng,
    actions: Vec<Action>,
    /// Armed timers as `(deadline, arm order, token)`: a min-heap that
    /// fires equal deadlines in the order they were armed, like the
    /// simulator's event queue.
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    armed: u64,
    /// Last probe-train id put on the wire; widens the 16-bit echo.
    last_train: u32,
    sent: u64,
    finished: bool,
}

impl Driver<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Run one engine callback at the current time, then carry out the
    /// actions it emitted, in order.
    fn step<R>(
        &mut self,
        f: impl FnOnce(&mut CcSender, &mut EndpointCtx) -> R,
    ) -> std::io::Result<R> {
        let mut ctx = EndpointCtx::new(
            self.now(),
            FlowId(0),
            Side::Sender,
            &mut self.rng,
            &mut self.actions,
        );
        let out = f(&mut self.engine, &mut ctx);
        for action in self.actions.drain(..) {
            match action {
                Action::Send(pkt) => {
                    let Some(d) = pkt.as_data() else { continue };
                    if let Some(train) = d.probe_train {
                        self.last_train = train;
                    }
                    let h = DataHeader {
                        seq: d.seq,
                        sent_us: d.sent_at.as_nanos() / 1_000,
                        retx: d.retx,
                        probe_train: d.probe_train.map(|t| t as u16),
                    };
                    self.socket
                        .send_to(&encode_data(&h, &self.payload), self.peer)?;
                    self.sent += 1;
                }
                Action::SetTimer { at, token } => {
                    self.timers.push(Reverse((at, self.armed, token)));
                    self.armed += 1;
                }
                Action::Finish => self.finished = true,
                Action::Stall { dark, timeouts } => {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        TransferError::Stalled {
                            dark_ms: dark.as_nanos() / 1_000_000,
                            timeouts,
                            acked_bytes: self
                                .engine
                                .cum_ack()
                                .saturating_mul(self.payload.len() as u64),
                        },
                    ));
                }
                // The simulator's per-flow statistics hooks; the report
                // reads the engine's own accessors instead.
                Action::RecordRate(_)
                | Action::RecordRtt(_)
                | Action::RecordLoss(_)
                | Action::RecordGoodput(_) => {}
            }
        }
        Ok(out)
    }

    /// Hand a decoded ACK to the engine as the packet the simulator would
    /// have delivered.
    fn on_ack(&mut self, a: &AckPacket) -> std::io::Result<()> {
        // The echo carries the low 16 bits of the train id: the full id is
        // the most recent one at or below the last id sent that matches.
        let last = self.last_train;
        let probe_train = a
            .probe_train
            .map(|echo| last.wrapping_sub((last as u16).wrapping_sub(echo) as u32));
        let info = AckInfo {
            acked_seq: a.acked_seq,
            cum_ack: a.cum_ack,
            echo_sent_at: SimTime::from_nanos(a.echo_sent_us.saturating_mul(1_000)),
            recv_at: SimTime::from_nanos(a.recv_us.saturating_mul(1_000)),
            recv_bytes: 0,
            probe_train,
            of_retx: a.of_retx,
        };
        self.step(|e, ctx| e.on_packet(&Packet::ack(ctx.flow, info), ctx))
    }
}

/// Send with an arbitrary congestion-control algorithm. The engine
/// enforces whatever operating point the algorithm requests: pacing rate,
/// congestion window, or both.
pub fn send_with(
    socket: &UdpSocket,
    peer: SocketAddr,
    cfg: UdpSenderConfig,
    cc: Box<dyn CongestionControl>,
) -> std::io::Result<SenderReport> {
    let mss = wire_mss(&cfg);
    // One engine packet per datagram: sizing the flow in wire bytes keeps
    // the engine's packet count equal to the payload's.
    let total_pkts = cfg.total_bytes.div_ceil(cfg.payload as u64);
    let engine_cfg = CcSenderConfig {
        transport: TransportConfig {
            mss,
            size: FlowSize::Bytes(total_pkts * mss as u64),
        },
        // A user-space transport in every mode: window algorithms get the
        // 10 ms floor too, not TCP's 200 ms convention.
        min_rto: Some(RATE_MIN_RTO),
        // Offload burstiness is the simulator's model of a NIC; a real one
        // does its own.
        tso_burst_pkts: 1,
        report: cfg.report,
        dead_time_budget: cfg
            .dead_time_budget
            .map(|d| SimDuration::from_nanos(d.as_nanos() as u64)),
    };
    let mut d = Driver {
        socket,
        peer,
        payload: vec![0xA5u8; cfg.payload],
        #[expect(
            clippy::disallowed_methods,
            reason = "pcc-udp's entire job is real sockets on a real clock, so its outputs are outside the determinism contract"
        )]
        start: Instant::now(),
        engine: CcSender::new(engine_cfg, cc),
        rng: SimRng::new(cfg.seed),
        actions: Vec::new(),
        timers: BinaryHeap::new(),
        armed: 0,
        last_train: 0,
        sent: 0,
        finished: false,
    };
    let mut buf = vec![0u8; 65_536];
    socket.set_nonblocking(true)?;

    d.step(|e, ctx| e.try_start(ctx))?
        .map_err(|msg| std::io::Error::new(ErrorKind::InvalidInput, msg))?;
    while !d.finished {
        let mut idle = true;
        // Drain whatever ACKs have arrived.
        loop {
            match socket.recv_from(&mut buf) {
                Ok((n, _)) => {
                    idle = false;
                    if let Some(Frame::Ack(a)) = decode(&buf[..n]) {
                        d.on_ack(&a)?;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Fire the timers due as of this pass. Ones armed meanwhile (the
        // pacer re-arming itself) wait for the next pass, so a saturated
        // pacer cannot starve the ACK drain above.
        let due = d.now();
        while let Some(&Reverse((at, _, token))) = d.timers.peek() {
            if at > due {
                break;
            }
            d.timers.pop();
            idle = false;
            d.step(|e, ctx| e.on_timer(token, ctx))?;
        }
        if idle {
            let next = d.timers.peek().map_or(MAX_NAP, |&Reverse((at, ..))| {
                Duration::from_nanos(at.saturating_since(d.now()).as_nanos())
            });
            std::thread::sleep(next.min(MAX_NAP));
        }
    }
    let elapsed = d.start.elapsed();
    Ok(SenderReport {
        elapsed,
        goodput_mbps: cfg.total_bytes as f64 * 8.0 / elapsed.as_secs_f64().max(1e-9) / 1e6,
        sent: d.sent,
        losses: d.engine.losses(),
        final_rate_bps: d.engine.rate_bps().unwrap_or(0.0),
        final_cwnd_pkts: d.engine.cwnd_pkts().unwrap_or(0.0),
        timeouts: d.engine.timeouts(),
    })
}
