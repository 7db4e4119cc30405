//! The benchmark's own tests. Simulator workloads run at 1/100 size, so a
//! debug build finishes in seconds; figs_jobs2 has one size (two whole
//! experiments) and is covered only by the name and manifest checks here —
//! its serial-vs-parallel CSV equality is checked by every traced run of
//! the benchmark itself and by `pcc-experiments`' own determinism test.

use std::collections::BTreeSet;
use std::sync::Arc;

use pcc_benchmark::catalog::{manifest, Kind, Workload, END_TO_END, PER_LAYER};
use pcc_benchmark::compare::compare;
use pcc_benchmark::json::Json;
use pcc_benchmark::kernels;
use pcc_benchmark::run::{
    measure_rep, reduce_timed, reduce_traced, result_json, ChildReport, WorkloadResult,
};
use pcc_benchmark::trace::Tracer;
use pcc_benchmark::workloads::{build, Instrument, Scale};
use pcc_scenarios::dc::run_ft_permutation;
use pcc_scenarios::workload::{churn_benchmark_config, run_churn};
use pcc_scenarios::{run_dumbbell, FlowPlan, LinkSetup, Protocol, QueueKind};
use pcc_simnet::prelude::*;
use pcc_transport::ReportMode;

const SMALL: Scale = Scale(100);
const SEED: u64 = 3;

const SIM_WORKLOADS: [Workload; 4] = [
    Workload::ChurnWeb,
    Workload::BulkPcc1g,
    Workload::FabricPerm,
    Workload::LossyMix,
];

/// (a) At 1/100 size every simulator workload's traced and untraced runs
/// give identical events, goodput bytes and FCT hash — and every simulated
/// statistic and exact count besides.
#[test]
fn traced_and_untraced_runs_are_identical() {
    for w in SIM_WORKLOADS {
        let plain = build(w, SEED, SMALL, &Instrument::Off).run().summarise();
        let tracer = Tracer::new();
        let traced = build(w, SEED, SMALL, &Instrument::On(Arc::clone(&tracer)))
            .run()
            .summarise();
        assert_eq!(plain.exact, traced.exact, "{}", w.name());
        assert!(plain.exact.events > 0 && plain.exact.goodput_bytes > 0);
        assert_eq!(plain.values.len(), traced.values.len());
        for (&(name, a), &(_, b)) in plain.values.iter().zip(&traced.values) {
            assert_eq!(a.to_bits(), b.to_bits(), "{}: {name}", w.name());
        }
        assert_eq!(
            (plain.tally.failed, traced.tally.failed),
            (0, 0),
            "{:?}",
            plain.tally.failures
        );
        // The wrappers really were in the path.
        let calls: u64 = tracer.cells().iter().map(|c| c.calls()).sum();
        assert!(
            calls > plain.exact.events / 4,
            "{}: {calls} spans",
            w.name()
        );
        // And a second untraced run repeats the first.
        let again = build(w, SEED, SMALL, &Instrument::Off).run().summarise();
        assert_eq!(plain.exact, again.exact, "{} repeats", w.name());
    }
}

/// The benchmark-built workloads are the product builders' workloads: same
/// seed and size, same event count and delivered bytes.
#[test]
fn constructions_reproduce_the_product_builders() {
    let ours = |w| build(w, SEED, SMALL, &Instrument::Off).run().summarise();

    let churn = run_churn(churn_benchmark_config(3_000, SEED));
    let o = ours(Workload::ChurnWeb);
    assert_eq!(o.exact.events, churn.events_processed);
    assert_eq!(
        o.value("sim_goodput_mbps").map(f64::to_bits),
        Some(churn.goodput_mbps.to_bits())
    );
    assert_eq!(
        o.value("sim_fct_p99_ms").map(f64::to_bits),
        Some(churn.overall.p99_ms().to_bits())
    );

    let rtt = SimDuration::from_millis(30);
    let plans = (0..4)
        .map(|i| FlowPlan::new(Protocol::pcc_default(rtt), rtt).starting_at(SimTime::from_secs(i)))
        .collect();
    let bulk = run_dumbbell(
        LinkSetup::new(1e7, rtt, 37_500),
        plans,
        SimTime::from_secs(10),
        SEED,
    );
    let o = ours(Workload::BulkPcc1g);
    assert_eq!(o.exact.events, bulk.report.events_processed);
    let goodput: u64 = bulk.report.flows.iter().map(|f| f.goodput_bytes).sum();
    assert_eq!(o.exact.goodput_bytes, goodput);

    let (stats, fabric) =
        run_ft_permutation(8, &|rtt| Protocol::pcc_default(rtt), (4 << 20) / 100, SEED);
    let o = ours(Workload::FabricPerm);
    assert_eq!(o.exact.events, fabric.report.events_processed);
    assert_eq!(stats.completed, 128);
    assert_eq!(
        o.value("sim_fct_p50_ms").map(f64::to_bits),
        Some(stats.fct_p50_ms.to_bits())
    );

    let rtt = SimDuration::from_millis(20);
    let setup = LinkSetup::new(100e6, rtt, 250_000)
        .with_queue(QueueKind::FqCodel)
        .with_loss(0.003)
        .with_jitter(JitterConfig::uniform(SimDuration::from_millis(2)).with_reordering(0.02, 4));
    let batched = ReportMode::batched_rtt();
    let plans = vec![
        FlowPlan::new(Protocol::Tcp("cubic"), rtt).reporting(batched),
        FlowPlan::new(Protocol::Named("bbr".into()), rtt),
        FlowPlan::new(Protocol::Tcp("illinois"), rtt).reporting(batched),
        FlowPlan::new(Protocol::Named("pcc-lossresilient".into()), rtt),
    ];
    let lossy = run_dumbbell(setup, plans, SimTime::from_secs(4), SEED);
    let o = ours(Workload::LossyMix);
    assert_eq!(o.exact.events, lossy.report.events_processed);
    let goodput: u64 = lossy.report.flows.iter().map(|f| f.goodput_bytes).sum();
    assert_eq!(o.exact.goodput_bytes, goodput);
}

fn names(of: &Json, key: &str) -> BTreeSet<String> {
    of.get(key)
        .and_then(Json::items)
        .expect("array")
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
        .collect()
}

fn emitted(line: &Json) -> BTreeSet<String> {
    line.get("metrics")
        .and_then(Json::fields)
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn reports(w: Workload) -> (ChildReport, ChildReport) {
    (
        measure_rep(w, SEED, false, SMALL).0,
        measure_rep(w, SEED, true, SMALL).0,
    )
}

/// (b) `BENCHMARK.json` is the catalog rendered; the names a run emits are
/// exactly the names it lists; every name is made of `[A-Za-z0-9_.-]`.
#[test]
fn emitted_names_equal_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        text,
        manifest().pretty(),
        "BENCHMARK.json is out of date: regenerate it with `pcc-benchmark --manifest`"
    );
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = file
        .fields()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(names(&file, "workloads"), workloads);
    let e2e = names(&file, "end_to_end");
    let layers = names(&file, "per_layer");
    for n in workloads.iter().chain(&e2e).chain(&layers) {
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n:?}"
        );
    }

    let kernel_values = kernels::run_all(0.001);
    for w in SIM_WORKLOADS {
        let (plain, traced) = reports(w);
        let timed = reduce_timed(vec![0.002, 0.003, 0.002], &[plain.clone(), plain.clone()]);
        let line = timed.driver_line();
        assert_eq!(emitted(&line), e2e, "{} --trace 0", w.name());
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for (name, v) in line.get("metrics").and_then(Json::fields).expect("metrics") {
            let v = v.get("value").and_then(Json::num).expect("value");
            assert!(v > 0.0, "{}: end-to-end metric {name} is never 0", w.name());
        }
        let per_layer = reduce_traced(w, &plain, &traced, &kernel_values);
        assert_eq!(per_layer.tally.failed, 0, "{:?}", per_layer.tally.failures);
        assert_eq!(
            emitted(&per_layer.driver_line()),
            layers,
            "{} --trace 1",
            w.name()
        );
    }
}

/// The predicted contrasts between workloads show at 1/100 size already.
#[test]
fn layers_light_up_where_predicted() {
    let kernel_values = kernels::run_all(0.001);
    let layer = |w| {
        let (plain, traced) = reports(w);
        let r = reduce_traced(w, &plain, &traced, &kernel_values);
        move |name: &str| {
            r.per_layer
                .iter()
                .find_map(|&(n, v)| (n == name).then_some(v))
                .unwrap_or_else(|| panic!("{name} not emitted"))
        }
    };
    let churn = layer(Workload::ChurnWeb);
    let bulk = layer(Workload::BulkPcc1g);
    let lossy = layer(Workload::LossyMix);
    assert_eq!(churn("simnet.sim.churn_arrivals"), 3_000.0);
    assert!(churn("scenarios.workload.self_ms") > 0.0);
    assert!(churn("cc.cubic.calls") > 0.0);
    assert_eq!(churn("cc.pcc.calls"), 0.0);
    assert_eq!(churn("transport.report.reports"), 0.0);
    assert_eq!(bulk("scenarios.workload.self_ms"), 0.0);
    assert_eq!(bulk("transport.report.reports"), 0.0);
    assert!(bulk("cc.pcc.calls") > 0.0);
    assert!(bulk("sim_jain") > 0.0);
    assert!(lossy("transport.report.reports") > 0.0);
    assert!(lossy("simnet.link.reordered") > 0.0);
    for algo in ["cubic", "bbr", "illinois", "pcc-lossresilient"] {
        assert!(lossy(&format!("cc.{algo}.calls")) > 0.0, "{algo}");
    }
    assert_eq!(
        lossy("cc.pcc.calls"),
        0.0,
        "pcc-lossresilient is its own layer"
    );
}

/// (c) Seeded failures: a flow that cannot complete, and a deliberately
/// broken conservation sum, each raise `failed_ops_pct` above 0.
#[test]
fn seeded_failures_are_counted() {
    let mut fabric = build(Workload::FabricPerm, SEED, SMALL, &Instrument::Off).run();
    assert_eq!(fabric.summarise().tally.failed, 0);
    fabric.flows[5].fct = None;
    let broken = fabric.summarise().tally;
    assert_eq!(broken.failed, 1, "{:?}", broken.failures);

    let mut churn = build(Workload::ChurnWeb, SEED, SMALL, &Instrument::Off).run();
    assert_eq!(churn.summarise().tally.failed, 0);
    churn.report.churn.completions -= 1;
    let broken = churn.summarise().tally;
    assert!(broken.failed >= 1, "{:?}", broken.failures);
    assert!(broken.failures.iter().any(|f| f.contains("conservation")));

    // An unbounded flow that stops delivering fails its operation too.
    let mut bulk = build(Workload::BulkPcc1g, SEED, SMALL, &Instrument::Off).run();
    bulk.report.flows[2]
        .series
        .goodput_mbps
        .iter_mut()
        .for_each(|v| *v = 0.0);
    assert_eq!(bulk.summarise().tally.failed, 1);

    // Failed operations travel all the way to the driver's line.
    let (mut plain, _) = reports(Workload::ChurnWeb);
    plain.outcome.tally = broken;
    let timed = reduce_timed(vec![0.001], std::slice::from_ref(&plain));
    assert!(timed.tally.failed_pct() > 0.0);
    let line = timed.driver_line();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::num).expect("failed") >= 1.0);
}

/// Two result files of the same commit compare clean; a changed simulated
/// statistic at an unchanged event count, a slower median and a rise in
/// failed operations each fail the comparison.
#[test]
fn compare_gates_on_bounds_exactness_and_failures() {
    let kernel_values = kernels::run_all(0.001);
    let result = |wall_factor: f64| {
        let results: Vec<WorkloadResult> = [Workload::ChurnWeb, Workload::LossyMix]
            .into_iter()
            .map(|workload| {
                let (mut plain, traced) = reports(workload);
                // Host times at this size are microseconds of noise; pin
                // them so the verdicts below test the rule, not the box.
                plain.wall_s = 1.0 * wall_factor;
                plain.peak_rss_mb = 10.0;
                WorkloadResult {
                    workload,
                    timed: reduce_timed(
                        vec![0.002; 3],
                        &[plain.clone(), plain.clone(), plain.clone()],
                    ),
                    traced: reduce_traced(workload, &plain, &traced, &kernel_values),
                }
            })
            .collect();
        Json::parse(&result_json(SEED, 1.0, &results).pretty()).expect("result.json parses")
    };
    let base = result(1.0);
    let (text, pass) = compare(&base, &result(1.05)).expect("comparable");
    assert!(pass, "{text}");
    assert!(
        !text.contains("regressed") && !text.contains("unresolved"),
        "{text}"
    );
    assert!(text.contains("identical"), "{text}");

    let (text, pass) = compare(&base, &result(1.5)).expect("comparable");
    assert!(!pass && text.contains("regressed"), "{text}");

    let edit = |text: &str, from: &str, to: &str| {
        assert!(text.contains(from), "{from} not in result.json");
        Json::parse(&text.replacen(from, to, 1)).expect("still JSON")
    };
    let pretty = base.pretty();
    let changed = edit(&pretty, "\"sim_loss_pct\": ", "\"sim_loss_pct\": 1");
    let (text, pass) = compare(&base, &changed).expect("comparable");
    assert!(!pass && text.contains("CHANGED"), "{text}");

    // The workload-level field, not the per-layer metric of the same name.
    let failing = edit(
        &pretty,
        "\"failed\": 0,\n      \"failed_ops_pct\": 0",
        "\"failed\": 1,\n      \"failed_ops_pct\": 0.5",
    );
    let (text, pass) = compare(&base, &failing).expect("comparable");
    assert!(!pass && text.contains("ROSE"), "{text}");

    assert!(compare(&Json::obj(), &base).is_err(), "not a result file");
}

/// Exact metrics are the ones `--compare` insists on: make sure the
/// catalog marks every simulated result and count the runs produce.
#[test]
fn every_value_a_run_reports_is_a_catalog_metric() {
    let (plain, traced) = reports(Workload::LossyMix);
    for (name, _) in plain.outcome.values.iter().chain(&traced.outcome.values) {
        let m = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("{name} is not in the catalog"));
        assert!(
            matches!(m.kind, Kind::Sim | Kind::Count),
            "{name}: {:?}",
            m.kind
        );
    }
    for (name, _) in &traced.spans {
        let known = PER_LAYER.iter().any(|m| m.name == name) || name == "trace.attributed_ms";
        assert!(known, "span metric {name} is not in the catalog");
    }
}
