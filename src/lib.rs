//! # pcc — Performance-oriented Congestion Control
//!
//! A complete Rust reproduction of *PCC: Re-architecting Congestion Control
//! for Consistent High Performance* (Dong, Li, Zarchy, Godfrey, Schapira —
//! NSDI 2015): the PCC algorithm itself, every TCP and rate-based baseline
//! the paper compares against, a deterministic packet-level network
//! simulator to run them on, every evaluation scenario from §4, and a
//! harness that regenerates every table and figure.
//!
//! All control intelligence speaks one API —
//! [`transport::CongestionControl`] — and all of it is constructible by
//! name through [`transport::registry::by_name`] over [`ALGORITHMS`], the
//! workspace's one compile-time list, so the same algorithm object runs on
//! the simulator *and* on real UDP sockets.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `pcc-core` | monitor intervals, utility functions, the learning controller, the game-theoretic fluid model |
//! | [`simnet`] | `pcc-simnet` | deterministic discrete-event network simulator |
//! | [`transport`] | `pcc-transport` | SACK scoreboard, the unified `CongestionControl` API, the one `CcSender` engine, spec lookup over algorithm tables |
//! | [`tcp`] | `pcc-tcp` | New Reno, CUBIC, Illinois, Hybla, Vegas, BIC, Westwood, each optionally paced |
//! | [`rate`] | `pcc-rate` | SABUL/UDT-style and PCP-style rate control |
//! | [`bbr`] | `pcc-bbr` | BBR-style model-based control — the reference *hybrid* (rate + cwnd) algorithm |
//! | [`scenarios`] | `pcc-scenarios` | every §4 evaluation scenario as a reusable builder |
//! | [`experiments`] | `pcc-experiments` | per-figure/table regeneration harness |
//! | [`udp`] | `pcc-udp` | real-network datapath: any algorithm over std UDP sockets |
//!
//! ## Quick start
//!
//! ```
//! use pcc::prelude::*;
//!
//! // One PCC flow on a 100 Mbps / 30 ms dumbbell for five simulated
//! // seconds. Everything is deterministic: same seed, same bytes.
//! let mut net = NetworkBuilder::new(SimConfig::default());
//! let mut db = Dumbbell::new(&mut net, LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000));
//! let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
//! let pcc = PccController::new(PccConfig::paper().with_rtt_hint(SimDuration::from_millis(30)));
//! let flow = net.add_flow(FlowSpec {
//!     sender: Box::new(CcSender::new(CcSenderConfig::default(), Box::new(pcc))),
//!     receiver: Box::new(SackReceiver::new()),
//!     fwd_path: path.fwd,
//!     rev_path: path.rev,
//!     start_at: SimTime::ZERO,
//! });
//! let report = net.build().run_until(SimTime::from_secs(5));
//! assert!(report.avg_throughput_mbps(flow, SimTime::from_secs(3), SimTime::from_secs(5)) > 80.0);
//! ```
//!
//! Or resolve any algorithm by name and run it on the same engine:
//!
//! ```
//! use pcc::prelude::*;
//!
//! let cc = pcc::transport::registry::by_name(pcc::ALGORITHMS, "cubic", &CcParams::default()).unwrap();
//! let sender = CcSender::new(CcSenderConfig::default(), cc);
//! # let _ = sender;
//! ```
//!
//! Or play a protocol over a bundled time-varying trace (LTE-like here;
//! see `pcc::simnet::trace` for the format and
//! `pcc::scenarios::vary` for the harness):
//!
//! ```
//! use pcc::prelude::*;
//!
//! let trace = LinkTrace::builtin("lte").unwrap();
//! let run = run_trace(
//!     Protocol::Tcp("cubic"),
//!     &trace,
//!     SimDuration::from_secs(5),
//!     1,
//!     ShaperConfig::default(),
//! );
//! assert!(run.throughput_mbps(0) > 0.0);
//! ```

pub use pcc_bbr as bbr;
pub use pcc_core as core;
pub use pcc_experiments as experiments;
pub use pcc_rate as rate;
pub use pcc_scenarios as scenarios;
pub use pcc_simnet as simnet;
pub use pcc_tcp as tcp;
pub use pcc_transport as transport;
pub use pcc_udp as udp;

pub use pcc_scenarios::ALGORITHMS;

/// Everything needed for typical simulation-based use.
pub mod prelude {
    pub use pcc_bbr::Bbr;
    pub use pcc_core::{
        LatencySensitive, LossResilient, MiTiming, PccConfig, PccController, SafeSigmoid,
        UtilityFunction,
    };
    pub use pcc_rate::{Pcp, Sabul};
    pub use pcc_scenarios::vary::run_trace;
    pub use pcc_scenarios::{
        run_dumbbell, run_single, FlowPlan, LinkSetup, Protocol, QueueKind, ALGORITHMS,
    };
    pub use pcc_simnet::prelude::*;
    pub use pcc_tcp::{Cubic, Hybla, Illinois, NewReno};
    pub use pcc_transport::{
        CcParams, CcSender, CcSenderConfig, CongestionControl, FlowSize, InvalidParam,
        SackReceiver, SpecError, TransportConfig, UnknownAlgorithm,
    };
}
