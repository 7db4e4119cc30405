//! The benchmark's vocabulary: workload names, metric names, units,
//! directions, regression bounds, and — written down before measuring —
//! which end-to-end metric each layer metric should move, on which
//! workload. `BENCHMARK.json` at the repo root is [`manifest`] rendered;
//! a test keeps the two equal.

use crate::json::Json;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 300 000 cache-follower flows churning through a 1 Gbps dumbbell.
    ChurnWeb,
    /// Four long PCC flows on a 1 Gbps × 30 ms path.
    BulkPcc1g,
    /// 128-flow cross-pod permutation on a k=8 fat-tree.
    FabricPerm,
    /// Four algorithm families on a lossy, jittery, reordering FQ-CoDel link.
    LossyMix,
    /// `fig07` + `fig14` through the experiment runner at two workers.
    FigsJobs2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ChurnWeb,
        Workload::BulkPcc1g,
        Workload::FabricPerm,
        Workload::LossyMix,
        Workload::FigsJobs2,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnWeb => "churn_web",
            Workload::BulkPcc1g => "bulk_pcc_1g",
            Workload::FabricPerm => "fabric_perm",
            Workload::LossyMix => "lossy_mix",
            Workload::FigsJobs2 => "figs_jobs2",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line, ≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ChurnWeb => "300k short cubic flows, open-loop Poisson at 80% load: per-flow set-up/tear-down, generator, slot arena and a shallow event heap do the work; scoreboard and CC near idle",
            Workload::BulkPcc1g => "4 long pcc flows at 1 Gbps x 30 ms, 10 sim-s: steady-state high-BDP packet path, SACK scoreboard and PCC monitor dominate, zero flow set-up",
            Workload::FabricPerm => "k=8 fat-tree, 128 pcc flows x 4 MiB over 6-hop ECMP paths: link/queue service per packet and the deepest event heap dominate; largest topology set-up and RSS",
            Workload::LossyMix => "cubic+bbr+illinois+pcc-lossresilient on lossy jittery reordering FQ-CoDel, 400 sim-s: SACK holes, retransmits, RTOs, AQM, shaper and batched reports, so a fast-path gain that costs recovery shows",
            Workload::FigsJobs2 => "fig07+fig14 via pcc_experiments::registry() at jobs=2: dozens of short sims through scenario builders, worker pool and table/CSV output; the only workload with more than one thread",
        }
    }

    /// How load is generated.
    pub fn loop_kind(self) -> &'static str {
        match self {
            Workload::ChurnWeb => {
                "open loop in simulated time: Poisson arrivals, 80% offered load, 300 000 flows"
            }
            Workload::BulkPcc1g => {
                "closed set of 4 unbounded flows started 1 simulated second apart"
            }
            Workload::FabricPerm => "closed set of 128 sized flows, all started at t=0",
            Workload::LossyMix => "closed set of 4 unbounded flows, all started at t=0",
            Workload::FigsJobs2 => "batch of 80 independent simulation jobs on 2 worker threads",
        }
    }

    /// False for the one workload that is not a single simulation.
    pub fn is_sim(self) -> bool {
        self != Workload::FigsJobs2
    }
}

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a number is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or host memory; noisy, reported as a median.
    Host,
    /// A simulated-time result; repeats bit-exactly for a seed.
    Sim,
    /// An exact count made by the program; repeats bit-exactly for a seed.
    Count,
    /// Host time from the traced run's spans.
    Span,
    /// A workload-independent unit-cost kernel.
    Kernel,
}

/// One metric of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// The fixed name.
    pub name: &'static str,
    /// Unit, in the manifest's unit alphabet.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// What the number is made of.
    pub kind: Kind,
    /// What it measures, and — for a layer metric — which end-to-end
    /// metric it should move and on which workload it does most / least.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    kind: Kind,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        kind,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        kind,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees. Measured with
/// tracing off; every one is defined (and non-zero) on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", Lower, 0.25, Kind::Host,
        "host seconds for run_until + summarising (the whole registry call on figs_jobs2); median over the run's fresh-process repetitions"),
    e2e("setup_s", "s", Lower, 0.25, Kind::Host,
        "host seconds to start a fresh process and reach a built Simulation (registry, CDF, topology, routes, flow registration), then exit; median of set-up-only processes"),
    e2e("peak_rss_mb", "MB", Lower, 0.25, Kind::Host,
        "VmHWM of the measuring process; median over repetitions"),
    e2e("sim_goodput_mbps", "Mbit/s", Higher, 0.05, Kind::Sim,
        "unique bytes delivered per simulated second (per median flow completion time on fabric_perm; median pcc cell of the fig07 rows at loss <= 1% on figs_jobs2); simulated time, unvalidated against a testbed"),
];

/// Per-layer metrics. Reported by the traced run (`--trace 1`); a metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Simulated results that exist only on some workloads: no bound in the
    // manifest, but `--compare` demands they repeat exactly.
    layer("sim_fct_p50_ms", "ms", Lower, Kind::Sim,
        "median flow completion time, simulated; churn_web and fabric_perm only"),
    layer("sim_fct_p99_ms", "ms", Lower, Kind::Sim,
        "99th-percentile FCT, simulated; >=10 samples beyond it only on churn_web (see sim_fct_n)"),
    layer("sim_fct_n", "count", Higher, Kind::Count,
        "completed flows behind the FCT percentiles"),
    layer("sim_loss_pct", "%", Lower, Kind::Sim,
        "sender-detected losses / data packets sent; the four simulator workloads"),
    layer("sim_jain", "ratio", Higher, Kind::Sim,
        "Jain index of per-flow goodput over the last half; bulk_pcc_1g and lossy_mix"),
    layer("failed_ops_pct", "%", Lower, Kind::Count,
        "failed / attempted: sized flows must complete, unbounded flows must deliver in the last quarter, experiment cells must be finite, plus every output check"),
    // simnet.sim — the event loop.
    layer("simnet.sim.events", "count", Lower, Kind::Count,
        "events processed; moves wall_s; most on churn_web and fabric_perm, least on bulk_pcc_1g"),
    layer("simnet.sim.ns_per_event", "ns", Lower, Kind::Host,
        "untraced wall / events; moves wall_s"),
    layer("simnet.sim.self_ms", "ms", Lower, Kind::Span,
        "traced wall minus every top-level span: heap, link, routing, slot arena, sampling; moves wall_s; most on churn_web and fabric_perm"),
    // simnet.event — the heap (no trait seam: kernels).
    layer("simnet.event.entry_bytes", "B", Lower, Kind::Kernel,
        "size_of::<Event>() plus the 16-byte (time, seq) key; moves wall_s and peak_rss_mb"),
    layer("simnet.event.ns_per_op_d64", "ns", Lower, Kind::Kernel,
        "schedule+pop of Event::Arrive at a steady depth of 64; moves wall_s on churn_web (shallow heap)"),
    layer("simnet.event.ns_per_op_d4k", "ns", Lower, Kind::Kernel,
        "same at depth 4096; moves wall_s on bulk_pcc_1g and lossy_mix"),
    layer("simnet.event.ns_per_op_d64k", "ns", Lower, Kind::Kernel,
        "same at depth 65536; moves wall_s on fabric_perm (deepest heap)"),
    // simnet.link.
    layer("simnet.link.offered", "count", Lower, Kind::Count,
        "packets offered to any link; moves wall_s; most on fabric_perm (6 hops per packet)"),
    layer("simnet.link.transmitted", "count", Lower, Kind::Count,
        "packets that completed serialization on a rated link"),
    layer("simnet.link.reordered", "count", Lower, Kind::Count,
        "deliveries the shaper rushed ahead; non-zero only on lossy_mix"),
    layer("simnet.link.ns_per_pkt", "ns", Lower, Kind::Kernel,
        "Link::offer + tx_complete per packet on a busy drop-tail link; moves wall_s; most on fabric_perm and lossy_mix, least on bulk_pcc_1g"),
    // simnet.queue — trait seam plus kernels.
    layer("simnet.queue.enqueued", "count", Lower, Kind::Count,
        "packets accepted into any queue"),
    layer("simnet.queue.dropped", "count", Lower, Kind::Count,
        "tail + AQM drops; moves sim_loss_pct and sim_fct_p99_ms"),
    layer("simnet.queue.max_backlog_kb", "kB", Lower, Kind::Count,
        "largest peak backlog over all queues"),
    layer("simnet.queue.calls", "count", Lower, Kind::Span,
        "enqueue + dequeue calls through the Queue trait"),
    layer("simnet.queue.self_ms", "ms", Lower, Kind::Span,
        "time inside Queue::enqueue/dequeue; moves wall_s; most on lossy_mix (FQ-CoDel), least on churn_web"),
    layer("simnet.queue.ns_per_pkt_droptail", "ns", Lower, Kind::Kernel,
        "enqueue+dequeue per packet, DropTail at 64 packets standing"),
    layer("simnet.queue.ns_per_pkt_fqcodel", "ns", Lower, Kind::Kernel,
        "enqueue+dequeue per packet, FQ-CoDel over 8 flows at 64 packets standing; moves wall_s on lossy_mix"),
    // Churn: the slot arena and the workload generator.
    layer("simnet.sim.churn_arrivals", "count", Lower, Kind::Count,
        "flows admitted by the churn driver; churn_web only"),
    layer("simnet.sim.peak_live_slots", "count", Lower, Kind::Count,
        "peak concurrently live flow slots; moves peak_rss_mb on churn_web"),
    layer("simnet.sim.recycled", "count", Higher, Kind::Count,
        "slot allocations served from the free list"),
    layer("simnet.sim.stale_packets", "count", Lower, Kind::Count,
        "packets that arrived for an already retired flow (wasted work)"),
    layer("scenarios.workload.flows", "count", Lower, Kind::Count,
        "flows the workload generated"),
    layer("scenarios.workload.self_ms", "ms", Lower, Kind::Span,
        "driver next_arrival (sampling + sender construction) + harvest; moves wall_s and setup_s; churn_web only, zero elsewhere"),
    // transport.sender — the engine around the algorithm.
    layer("transport.sender.calls", "count", Lower, Kind::Span,
        "sender endpoint callbacks (start, on_packet, on_timer)"),
    layer("transport.sender.self_ms", "ms", Lower, Kind::Span,
        "sender endpoint spans minus the cc spans inside them: scoreboard, RTT, pacing, retransmit queue; moves wall_s; most on bulk_pcc_1g and lossy_mix, least on churn_web"),
    layer("transport.sender.ns_per_call", "ns", Lower, Kind::Span,
        "transport.sender.self_ms / transport.sender.calls"),
    layer("transport.sender.sent_packets", "count", Lower, Kind::Count,
        "data packets put on the wire"),
    layer("transport.sender.detected_losses", "count", Lower, Kind::Count,
        "losses the senders declared; moves sim_loss_pct and sim_goodput_mbps"),
    layer("transport.sender.timeouts", "count", Lower, Kind::Count,
        "timeout loss events seen at the algorithm boundary (traced run)"),
    layer("transport.sender.retx_pct", "%", Lower, Kind::Sim,
        "(delivered - unique) / delivered bytes: wasted work; moves sim_goodput_mbps"),
    layer("transport.sack.ns_per_ack_inorder", "ns", Lower, Kind::Kernel,
        "Scoreboard on_send+on_ack+detect_losses per packet, window 2500, no holes; moves wall_s on churn_web"),
    layer("transport.sack.ns_per_ack_holes", "ns", Lower, Kind::Kernel,
        "same with 2% of packets lost and retransmitted one window later; moves wall_s on bulk_pcc_1g and lossy_mix"),
    layer("transport.receiver.calls", "count", Lower, Kind::Span,
        "receiver endpoint callbacks"),
    layer("transport.receiver.self_ms", "ms", Lower, Kind::Span,
        "time inside SackReceiver; moves wall_s"),
    layer("transport.report.reports", "count", Lower, Kind::Count,
        "on_report deliveries (traced run); >0 only on lossy_mix, whose cubic and illinois flows take batched reports"),
    // cc.<name> — the algorithms.
    layer("cc.cubic.calls", "count", Lower, Kind::Span, "callbacks into cubic"),
    layer("cc.cubic.self_ms", "ms", Lower, Kind::Span,
        "time inside cubic; moves wall_s on churn_web and lossy_mix"),
    layer("cc.pcc.calls", "count", Lower, Kind::Span, "callbacks into pcc"),
    layer("cc.pcc.self_ms", "ms", Lower, Kind::Span,
        "time inside pcc (monitor intervals, utility); moves wall_s on bulk_pcc_1g and fabric_perm"),
    layer("cc.bbr.calls", "count", Lower, Kind::Span, "callbacks into bbr"),
    layer("cc.bbr.self_ms", "ms", Lower, Kind::Span,
        "time inside bbr; lossy_mix only"),
    layer("cc.illinois.calls", "count", Lower, Kind::Span, "callbacks into illinois"),
    layer("cc.illinois.self_ms", "ms", Lower, Kind::Span,
        "time inside illinois; lossy_mix only"),
    layer("cc.pcc-lossresilient.calls", "count", Lower, Kind::Span,
        "callbacks into pcc-lossresilient"),
    layer("cc.pcc-lossresilient.self_ms", "ms", Lower, Kind::Span,
        "time inside pcc-lossresilient; lossy_mix only"),
    // experiments — the runner and table output.
    layer("experiments.runner.jobs", "count", Lower, Kind::Count,
        "simulation jobs behind the fig07 and fig14 tables; figs_jobs2 only"),
    layer("experiments.runner.serial_s", "s", Lower, Kind::Host,
        "the same registry calls at jobs=1 (the traced pass of figs_jobs2)"),
    layer("experiments.runner.parallel_efficiency", "ratio", Higher, Kind::Host,
        "serial_s / (2 x wall_s); moves wall_s on figs_jobs2, the only workload the runner can move"),
    layer("experiments.table.csv_bytes", "B", Lower, Kind::Count,
        "bytes of CSV the two experiments wrote"),
    // trace — the instrumentation itself.
    layer("trace.clock_ns", "ns", Lower, Kind::Host, "one Instant::now()"),
    layer("trace.overhead_pct", "%", Lower, Kind::Host,
        "traced wall / untraced wall - 1"),
    layer("trace.attributed_pct", "%", Higher, Kind::Host,
        "(named layers' self time + simnet.sim.self_ms) / untraced wall_s: how much of the untraced run the overhead-corrected spans account for"),
];

/// The metric called `name`, end-to-end or per-layer.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 20;

/// The benchmark's own directory, relative to the repo root.
pub const BENCH_DIR: &str = "benchmark";

/// `BENCHMARK.json`, in the driver's schema (exactly these keys).
pub fn manifest() -> Json {
    let workloads: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| Json::obj().with("name", w.name()).with("why", w.why()))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound.expect("end-to-end metrics carry a bound"))
        })
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect();
    Json::obj()
        .with(
            "command",
            vec![
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--bin",
                "pcc-benchmark",
                "--",
            ],
        )
        .with("paths", vec![BENCH_DIR])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// Everything the manifest's schema has no key for, machine-readable:
/// each workload's loop kind, and each metric's time base, bound and note
/// (what it measures, which end-to-end metric it should move, and where).
pub fn catalog() -> Json {
    let kind = |k: Kind| match k {
        Kind::Host => "host",
        Kind::Sim => "sim",
        Kind::Count => "count",
        Kind::Span => "span",
        Kind::Kernel => "kernel",
    };
    let workloads: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| {
            Json::obj()
                .with("name", w.name())
                .with("why", w.why())
                .with("loop", w.loop_kind())
        })
        .collect();
    let metrics = |list: &[Metric]| -> Vec<Json> {
        list.iter()
            .map(|m| {
                Json::obj()
                    .with("name", m.name)
                    .with("unit", m.unit)
                    .with("better", m.better.as_str())
                    .with("bound", m.bound.map_or(Json::Null, Json::Num))
                    .with("base", kind(m.kind))
                    .with("note", m.note)
            })
            .collect()
    };
    Json::obj()
        .with("workloads", workloads)
        .with("end_to_end", metrics(END_TO_END))
        .with("per_layer", metrics(PER_LAYER))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_sizes_meet_the_manifest_rules() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w:?}");
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(manifest().pretty().len() < 64 * 1024);
    }
}
