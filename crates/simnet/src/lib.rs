//! # pcc-simnet — deterministic packet-level network simulator
//!
//! The experiment substrate for the PCC (NSDI'15) reproduction. A
//! discrete-event simulator in the spirit of event-driven network stacks:
//! single-threaded, allocation-light, and **bit-deterministic** — every run
//! with the same seed produces the identical event sequence, which makes
//! every experiment in the paper reproducible to the byte.
//!
//! ## Architecture
//!
//! * [`event::EventQueue`] — `(time, sequence)`-ordered scheduler with
//!   deterministic tie-breaking: FIFO lanes keyed by a fixed scheduling
//!   delay beside a binary heap for timers and control events.
//! * [`link::Link`] — serialization rate + propagation delay + Bernoulli
//!   egress loss, with an attached [`queue::Queue`] discipline and optional
//!   time-varying [`link::LinkSchedule`].
//! * [`queue`] — DropTail, DRR [`queue::FairQueue`], and FQ-CoDel
//!   ([`queue::fq_codel`], DRR with the RFC 8289 CoDel law per flow).
//! * [`ring::reserve`] — the one growth rule of every long-lived ring on
//!   the packet path: doubling below 64 slots, a quarter from there.
//! * [`shaper::LinkShaper`] — per-link impairment stage: stochastic
//!   jitter and bounded reordering.
//! * [`trace::LinkTrace`] — trace-driven time-varying capacity: a
//!   plain-text trace format with bundled LTE/WiFi/satellite profiles,
//!   expanded into a [`link::LinkSchedule`].
//! * [`endpoint::Endpoint`] — the protocol plug-in trait; transport
//!   implementations (PCC, TCP variants, SABUL, PCP) live in sibling crates.
//! * [`sim::Simulation`] — the event loop; [`sim::NetworkBuilder`] wires
//!   links, paths, and flows.
//! * [`stats`] — per-flow series plus the paper's metrics (Jain's index,
//!   convergence time, percentiles).
//! * [`topo`] — topology graph + routing: BFS next-hop tables with
//!   deterministic per-flow ECMP, datacenter fabric builders
//!   ([`topo::fat_tree`], [`topo::leaf_spine`]), per-link utilization.
//! * [`fault`] — deterministic fault-injection plane: scripted link/node
//!   failures and corruption ([`fault::FaultScript`] →
//!   [`fault::FaultPlane`]), with post-failure ECMP re-resolution.
//! * [`text`] — the one reader behind every plain-text input (traces,
//!   fault scripts, flow-size CDFs): `#` comments, blank lines, columns,
//!   and one [`text::TextError`] that names its format and line.
//!
//! ## Example
//!
//! ```
//! use pcc_simnet::prelude::*;
//!
//! // Endpoints come from transport crates; here a trivial no-op pair.
//! struct Quiet;
//! impl Endpoint for Quiet {
//!     fn start(&mut self, _ctx: &mut EndpointCtx) {}
//!     fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
//!     fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
//! }
//!
//! let mut net = NetworkBuilder::new(SimConfig::default());
//! let mut db = Dumbbell::new(&mut net, LinkConfig::bottleneck(100e6, SimDuration::ZERO, 64_000));
//! let path = db.attach_flow(&mut net, SimDuration::from_millis(30));
//! net.add_flow(FlowSpec {
//!     sender: Box::new(Quiet),
//!     receiver: Box::new(Quiet),
//!     fwd_path: path.fwd,
//!     rev_path: path.rev,
//!     start_at: SimTime::ZERO,
//! });
//! let report = net.build().run_until(SimTime::from_secs(1));
//! assert_eq!(report.flows.len(), 1);
//! ```

mod arena;
pub mod endpoint;
pub mod event;
pub mod fault;
pub mod ids;
pub mod link;
pub mod packet;
pub mod queue;
pub mod ring;
pub mod rng;
pub mod shaper;
pub mod sim;
pub mod stats;
pub mod sync;
pub mod text;
pub mod time;
pub mod topo;
pub mod topology;
pub mod trace;

/// Convenient glob-import of the simulator's main types.
pub mod prelude {
    pub use crate::endpoint::{Action, Endpoint, EndpointCtx};
    pub use crate::fault::{FaultEvent, FaultPlane, FaultScript};
    pub use crate::ids::{Direction, EdgeId, FlowId, LinkId, NodeId, Side};
    pub use crate::link::{LinkConfig, LinkSchedule, LinkStep};
    pub use crate::packet::{AckInfo, DataInfo, Packet, PacketKind};
    pub use crate::queue::{fq_codel, DropTail, FairQueue, Queue};
    pub use crate::rng::SimRng;
    pub use crate::shaper::{JitterConfig, ShaperConfig};
    pub use crate::sim::{
        ChurnDriver, ChurnFlow, ChurnStats, FlowSpec, LinkReport, NetworkBuilder, SimConfig,
        SimReport, Simulation,
    };
    pub use crate::stats::{
        convergence_time, jain_index, jain_index_at_scale, mean, percentile, std_dev, FlowStats,
        StallInfo,
    };
    pub use crate::text::TextError;
    pub use crate::time::{rate_bps, tx_time, SimDuration, SimTime};
    pub use crate::topo::{
        ecmp_key, fat_tree, leaf_spine, link_usage, DcLinkSpec, FatTree, LeafSpine, LinkUse,
        NodeKind, Topology,
    };
    pub use crate::topology::{Dumbbell, FlowPath};
    pub use crate::trace::{builtin_names, LinkTrace, TracePoint};
}
