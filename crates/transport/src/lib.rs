//! # pcc-transport — transport machinery for the PCC reproduction
//!
//! Substrate shared by every protocol in the evaluation, organized around
//! the paper's §3 split: dumb sending machinery below, pluggable control
//! intelligence above.
//!
//! * [`cc::CongestionControl`] — **the** control-plane API: one trait with
//!   a uniform event vocabulary (`on_start` / `on_sent` / `on_ack` /
//!   `on_loss` / `on_timer`) and an effects sink that can set a pacing
//!   rate, a congestion window, or both. PCC, the TCP variants, SABUL and
//!   PCP all implement it; so can BBR-style hybrids that need rate *and*
//!   cwnd.
//! * [`sender::CcSender`] — the one sender engine: SACK reliability plus
//!   transmission scheduling that enforces whatever operating point the
//!   algorithm requested (pacing, window clocking with TSO burstiness and
//!   RTO machinery, or both). Sans-IO: the simulator's event loop and
//!   `pcc-udp`'s socket loop are two thin drivers around it.
//! * [`registry`] — the datapath-agnostic [`registry::Algorithm`] entry
//!   that each algorithm crate lists in a compile-time table: construct
//!   any algorithm in the tables a caller passes via
//!   [`registry::by_name`], including parameterized specs
//!   (`"pcc:eps=0.05,util=latency"` — see [`spec`]); unknown names and
//!   invalid parameters are typed [`registry::SpecError`]s, never a panic.
//! * [`sack::Scoreboard`] — per-packet fate tracking with RFC 6675-style
//!   reordering-threshold loss detection plus timeout detection.
//! * [`rtt::RttEstimator`] — SRTT/RTTVAR/RTO per RFC 6298.
//! * [`receiver::SackReceiver`] — the single receiver used by all senders
//!   (per-packet selective ACKs; §2.3: "TCP SACK is enough feedback").
//! * [`report`] — measurement reports: batched per interval
//!   ([`report::ReportAggregator`]) or per send epoch ([`report::Epochs`],
//!   PCC's monitor intervals).
//! * [`seq_ring::SeqRing`] — the one per-packet sequence table: the
//!   receiver's reorder buffer and BBR's delivery sampler key their
//!   per-packet state on it.
//!
//! The seed design's two parallel engines (`RateSender` for rate
//! controllers, `WindowSender` for window algorithms) and their two traits
//! are gone; both roles are modes of [`sender::CcSender`], selected by
//! what the algorithm sets in `on_start`.

pub mod cc;
pub mod error;
pub mod flow;
pub mod receiver;
pub mod registry;
pub mod report;
pub mod rtt;
pub mod sack;
pub mod sender;
pub mod seq_ring;
pub mod spec;

pub use cc::{
    AckEvent, CongestionControl, Ctx, Effects, LossEvent, LossKind, ReportMode, SentEvent,
    EPOCH_DEADLINE,
};
pub use error::TransferError;
pub use flow::{FlowSize, TransportConfig};
pub use receiver::SackReceiver;
pub use registry::{CcParams, SpecError, UnknownAlgorithm};
pub use report::{Epochs, MeasurementReport, ReportAggregator};
pub use rtt::RttEstimator;
pub use sack::{AckOutcome, Scoreboard};
pub use sender::{CcSender, CcSenderConfig};
pub use seq_ring::SeqRing;
pub use spec::{AlgoSpec, InvalidParam, ParamKind, ParamSpec, Schema, SpecParams};
