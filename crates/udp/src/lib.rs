//! # pcc-udp — congestion control over real UDP sockets
//!
//! The paper ships a user-space prototype on UDT that "can deliver real
//! data today" (§1). This crate is that shape in Rust, and it contains no
//! transport engine of its own: the sender is a `std::net` socket +
//! monotonic-clock driver around [`pcc_transport::CcSender`], the same
//! sans-IO engine the simulator drives, hosting *any*
//! [`pcc_transport::CongestionControl`] — the same boxed object that runs
//! in the simulator. The receiver acks every datagram off the simulator
//! receiver's reassembly state ([`pcc_transport::SackReceiver`]), and the
//! [`wire`] format carries the simulator's packet metadata. The engine
//! enforces whatever the algorithm requests: a pacing rate (PCC, SABUL,
//! PCP), a congestion window (any TCP baseline), or both (paced TCP).
//!
//! Resolve algorithms by name with [`send_named`] (against the algorithm
//! tables the caller passes — this crate depends on no algorithm crate;
//! unknown names are a typed error) or hand a
//! constructed algorithm to [`send_with`]. Either way the engine feeds it
//! per-ACK events, batched [`pcc_transport::MeasurementReport`]s when the
//! algorithm (or a [`UdpSenderConfig::report`] override) opts in, or
//! per-ACK events plus a report per send epoch (PCC).
//!
//! See `examples/udp_transfer.rs` at the workspace root for a loopback
//! demonstration (pick the algorithm on the command line), and
//! `crates/udp/tests/loopback.rs` for the integration tests.

pub mod receiver;
pub mod sender;
pub mod wire;

pub use receiver::{receive, ReceiverReport};
pub use sender::{send_named, send_with, wire_mss, SenderReport, UdpSenderConfig};
