//! # pcc-scenarios — every evaluation scenario from the paper's §4
//!
//! One builder, many descriptions. A simulation is wired in exactly one
//! place — [`Scenario::run`] in [`scenario`]: a topology, the flows on it,
//! optional faults and churn, run to a horizon. Every `run_*` below is
//! *data in, reduction out*: it describes a [`Scenario`], calls `run`, and
//! returns the [`ScenarioRun`] (the one run record, with per-flow
//! accessors) or a reduction of it.
//!
//! | Module | Describes | Reproduces |
//! |---|---|---|
//! | [`scenario`] | — (the builder: [`Scenario`], [`Flow`], [`Churn`]; the record: [`ScenarioRun`]) | |
//! | [`setup`] | dumbbell + per-flow RTT shims ([`dumbbell`], [`run_dumbbell`], [`LinkSetup`], [`FlowPlan`]) | the substrate of every figure below |
//! | [`internet`] | dumbbells drawn from a path population | Figs. 4–5 |
//! | [`links`] | one dumbbell per link class | Fig. 6 (satellite), Fig. 7 (lossy), Fig. 9 (shallow buffer), Table 1 (inter-DC) |
//! | [`dynamics`] | multi-flow dumbbells | Fig. 8 (RTT fairness), Figs. 12–13 (convergence), Fig. 14 (friendliness), Fig. 16 (trade-off) |
//! | [`incast`] | many-to-one dumbbell | Fig. 10 |
//! | [`rapid`] | a generated [`LinkTrace`](pcc_simnet::trace::LinkTrace), run by [`vary::run_trace`] | Fig. 11 |
//! | [`fct`] | Poisson 100 KB flows as a [`ChurnConfig`], run by [`run_churn`] | Fig. 15 |
//! | [`power`] | dumbbells under AQM / FQ | Fig. 17 and §4.4.2 |
//! | [`vary`] | two hosts, one traced link | trace-driven time-varying links (`pcc-experiments vary`) |
//! | [`dc`] | fat-tree / leaf-spine fabrics, ECMP-routed flows | rack incast, cross-pod permutation, oversubscribed mix (`pcc-experiments dc`) |
//! | [`chaos`] | dumbbell or fat-tree + a fault script | link flap, ACK blackout, spine failure, corruption storm (`pcc-experiments chaos`) |
//! | [`workload`] | dumbbell + an open-loop arrival process | flow churn: heavy-tailed sizes, Poisson arrivals, FCT percentiles (`pcc-experiments churn`) |
//!
//! [`protocol`] turns a protocol description into a sender
//! ([`Protocol::build_sender`], the one way to an engine). A [`Protocol`]
//! is a registry spec — `"pcc"`, `"cubic:paced=true"`, `"pcc:rct=false"` — and
//! nothing else, so every `run_*` takes protocols as plain values and the
//! builder alone supplies each sender's RTT hint. All scenarios
//! take explicit durations/seeds so tests can run scaled-down versions
//! while the `pcc-experiments` crate runs paper-scale parameters.

pub mod chaos;
pub mod dc;
pub mod dynamics;
pub mod fct;
pub mod incast;
pub mod internet;
pub mod links;
pub mod power;
pub mod protocol;
pub mod rapid;
pub mod scenario;
pub mod setup;
pub mod vary;
pub mod workload;

pub use protocol::{install_registry, Protocol};
pub use scenario::{Arrivals, Churn, Flow, Scenario, ScenarioRun};
pub use setup::{dumbbell, run_dumbbell, run_single, FlowPlan, LinkSetup, QueueKind};
pub use workload::{
    run_churn, Arrival, ChurnConfig, ChurnReport, ChurnSample, FctSummary, SizeCdf,
};
