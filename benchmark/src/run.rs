//! Measurement procedure: fresh-process repetitions, medians, output
//! checks, and the traced run.
//!
//! The parent process never simulates. Every repetition is a **fresh
//! single-threaded child** (the parent re-executes its own binary), so no
//! repetition inherits a warm allocator, a grown heap or a populated
//! registry from the one before, and `VmHWM` belongs to exactly one run.
//!
//! * **Timed run** (`--trace 0`): as many untraced repetitions as fit in
//!   `--seconds` (at least [`MIN_REPS`]), each preceded by
//!   [`SETUPS_PER_REP`] set-up-only children. Repetition `k` runs *instance*
//!   `k` of the workload ([`instance_seed`]): the same construction on a
//!   sub-seed of `--seed`. What one instance costs depends on the dynamics
//!   its seed happens to produce (on bulk_pcc_1g three seeds in ten cost a
//!   fifth more), so a median over one instance would say more about the
//!   seed than about the code. End-to-end metrics are medians over the
//!   instances.
//! * **Traced run** (`--trace 1`): one untraced and one traced child, whose
//!   simulated statistics must be equal bit for bit (both run instance 0:
//!   this is also the check that a workload repeats exactly from process
//!   to process), plus the unit-cost kernels, run in the parent.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::{metric, Kind, Workload, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::kernels;
use crate::trace::{Calibration, LayerTimes, Tracer, ROOT_LAYER};
use crate::workloads::{self, Exact, Instrument, Outcome, Scale, Tally};

/// Fewest timed repetitions a run reports a median of, whatever `--seconds`.
pub const MIN_REPS: usize = 3;

/// Set-up-only children before each timed repetition; `setup_s` is the
/// median over all of them. Spread through the run rather than bunched at
/// its start, so a slow second on a shared box taints a few, not all.
pub const SETUPS_PER_REP: usize = 8;

/// The simulation seed of instance `k` of a workload. Instance 0 is
/// `--seed` itself — the instance the traced run, the event counts quoted
/// in the README and `result.json`'s fingerprint refer to.
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    match k {
        0 => seed,
        // Any fixed odd multiplier spreads neighbouring seeds apart; this
        // is the 64-bit golden-ratio constant.
        k => seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(k as u64),
    }
}

/// Worker threads figs_jobs2 runs the experiments on.
pub const FIGS_JOBS: usize = 2;

/// What one child process reports on the last line of its stdout.
#[derive(Clone, Debug)]
pub struct ChildReport {
    /// Host seconds for `run_until` + summarising (the registry calls on
    /// figs_jobs2).
    pub wall_s: f64,
    /// `VmHWM` of the child, MB.
    pub peak_rss_mb: f64,
    /// The summarised run.
    pub outcome: Outcome,
    /// Span metrics of a traced child, by catalog name; empty otherwise.
    pub spans: Vec<(String, f64)>,
}

/// Where the benchmark writes: `<target dir>/benchmark/`, next to the
/// profile directory the binary runs from. Inside the checkout for any
/// `CARGO_TARGET_DIR` the driver or a user picks there.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark binary has a path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("the binary sits in <target>/<profile>/");
    target.join("benchmark")
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn figs_dir(seed: u64) -> PathBuf {
    out_dir().join(format!("figs.{}.{seed}", std::process::id()))
}

/// Child entry point: build the workload and stop, without tearing it
/// down, the moment a `Simulation` (or a resolved registry plus output
/// directory) exists. The parent times the whole process.
pub fn child_setup(workload: Workload, seed: u64) -> ! {
    if workload.is_sim() {
        std::hint::black_box(workloads::build(
            workload,
            seed,
            Scale::FULL,
            &Instrument::Off,
        ));
    } else {
        let dir = figs_dir(seed);
        std::hint::black_box(workloads::setup_figs(seed, FIGS_JOBS, &dir).expect("figs set-up"));
        let _ = std::fs::remove_dir_all(dir);
    }
    std::process::exit(0)
}

/// One repetition of `workload`, in this process: build, run, summarise,
/// and — traced — reduce the spans. Returns the tracer too, so the caller
/// can write the raw spans out. `scale` shrinks the simulator workloads for
/// tests; figs_jobs2 has one size.
pub fn measure_rep(
    workload: Workload,
    seed: u64,
    traced: bool,
    scale: Scale,
) -> (ChildReport, Option<Arc<Tracer>>) {
    if !workload.is_sim() {
        // The traced pass of figs_jobs2 is the serial one.
        let jobs = if traced { 1 } else { FIGS_JOBS };
        let figs = workloads::setup_figs(seed, jobs, &figs_dir(seed)).expect("figs set-up");
        let t0 = Instant::now();
        let outcome = figs.run().expect("experiment CSVs").summarise();
        let report = ChildReport {
            wall_s: t0.elapsed().as_secs_f64(),
            peak_rss_mb: peak_rss_mb(),
            outcome,
            spans: Vec::new(),
        };
        return (report, None);
    }
    // Calibrate before building: the loop touches only the clock.
    let cal = traced.then(Calibration::measure);
    let tracer = traced.then(Tracer::new);
    let instr = tracer.clone().map_or(Instrument::Off, Instrument::On);
    let built = workloads::build(workload, seed, scale, &instr);
    let t0 = Instant::now();
    let mut outcome = built.run().summarise();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    if let (Some(tracer), Some(cal)) = (&tracer, &cal) {
        outcome.values.extend(workloads::traced_counts(tracer));
        spans = span_metrics(tracer, cal, wall_s);
    }
    let report = ChildReport {
        wall_s,
        peak_rss_mb: peak_rss_mb(),
        outcome,
        spans,
    };
    (report, tracer)
}

/// Child entry point: one full-size repetition; writes the raw spans of a
/// traced run to `<out dir>/<workload>.trace.jsonl` and prints the report
/// as the last line of stdout.
pub fn child_rep(workload: Workload, seed: u64, traced: bool) {
    let (report, tracer) = measure_rep(workload, seed, traced, Scale::FULL);
    if let Some(tracer) = &tracer {
        write_trace(workload, tracer);
    }
    println!("{}", report.to_json());
}

/// Span metrics under their catalog names: `<layer>.calls`,
/// `<layer>.self_ms`, the event loop's residual, and the clock cost.
fn span_metrics(tracer: &Tracer, cal: &Calibration, traced_wall_s: f64) -> Vec<(String, f64)> {
    let times = LayerTimes::attribute(tracer, cal, traced_wall_s);
    let mut out = Vec::new();
    for (layer, calls, self_ms) in &times.layers {
        out.push((format!("{layer}.calls"), *calls as f64));
        out.push((format!("{layer}.self_ms"), *self_ms));
    }
    out.push((format!("{ROOT_LAYER}.self_ms"), times.sim_self_ms));
    out.push(("trace.clock_ns".to_string(), cal.clock_ns));
    out.push(("trace.attributed_ms".to_string(), times.attributed_ms()));
    out
}

fn write_trace(workload: Workload, tracer: &Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("{}.trace.jsonl", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_jsonl(&mut w)?;
            w.flush()
        });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

impl ChildReport {
    fn to_json(&self) -> Json {
        let o = &self.outcome;
        let pairs = |items: Vec<(String, f64)>| {
            Json::Obj(items.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
        };
        Json::obj()
            .with("wall_s", self.wall_s)
            .with("peak_rss_mb", self.peak_rss_mb)
            .with("exact", o.exact.to_json())
            .with("attempted", o.tally.attempted)
            .with("failed", o.tally.failed)
            .with("failures", o.tally.failures.clone())
            .with(
                "values",
                pairs(o.values.iter().map(|&(k, v)| (k.to_string(), v)).collect()),
            )
            .with("spans", pairs(self.spans.clone()))
    }

    fn from_json(j: &Json) -> Option<ChildReport> {
        let num = |k: &str| j.get(k).and_then(Json::num);
        let pairs = |k: &str| -> Option<Vec<(String, f64)>> {
            j.get(k)?
                .fields()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.num()?)))
                .collect()
        };
        // Values come back keyed by the catalog's static names; a name the
        // catalog does not know is not a metric and is dropped.
        let values = pairs("values")?
            .into_iter()
            .filter_map(|(k, v)| metric(&k).map(|m| (m.name, v)))
            .collect();
        Some(ChildReport {
            wall_s: num("wall_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            outcome: Outcome {
                exact: Exact::from_json(j.get("exact")?)?,
                tally: Tally {
                    attempted: num("attempted")? as u64,
                    failed: num("failed")? as u64,
                    failures: j
                        .get("failures")?
                        .items()?
                        .iter()
                        .filter_map(|f| f.str().map(String::from))
                        .collect(),
                },
                values,
            },
            spans: pairs("spans")?,
        })
    }
}

fn child_command(mode: &str, workload: Workload, seed: u64, traced: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("the benchmark binary has a path"));
    cmd.args(["--child", mode, "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null());
    cmd
}

/// Run one repetition in a fresh child and wait for it.
fn spawn_rep(workload: Workload, seed: u64, traced: bool) -> Result<ChildReport, String> {
    let out = child_command("rep", workload, seed, traced)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            out.status
        ));
    }
    // figs_jobs2 prints its tables first; the report is the last line.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last)
        .ok()
        .as_ref()
        .and_then(ChildReport::from_json)
        .ok_or_else(|| format!("{} child printed no report", workload.name()))
}

/// Host seconds from spawning a set-up-only child to its exit.
fn spawn_setup(workload: Workload, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let status = child_command("setup", workload, seed, false)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    status
        .success()
        .then_some(secs)
        .ok_or_else(|| format!("{} set-up child exited with {status}", workload.name()))
}

/// Median, quartiles and minimum of a sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Every value, in the order measured.
    pub runs: Vec<f64>,
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The smallest value.
    pub min: f64,
}

impl Summary {
    /// Summarise `runs` (at least one value). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)`, the rule the driver applies;
    /// a single value is its own quartiles.
    pub fn of(runs: Vec<f64>) -> Summary {
        assert!(!runs.is_empty(), "a summary needs at least one run");
        let mut sorted = runs.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quantile = |i: usize| {
            if n < 2 {
                return sorted[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: sorted[0],
            runs,
        }
    }

    fn to_json(&self, unit: &str) -> Json {
        Json::obj()
            .with("unit", unit)
            .with("median", self.median)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("min", self.min)
            .with("n", self.runs.len())
            .with("runs", self.runs.clone())
    }
}

/// Result of one run of one workload, timed or traced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// End-to-end metrics (timed run), by name.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Per-layer metrics (traced run), by name.
    pub per_layer: Vec<(&'static str, f64)>,
    /// The fingerprint of instance 0.
    pub exact: Option<Exact>,
    /// Operations and output checks, summed over the run's repetitions.
    pub tally: Tally,
}

impl RunResult {
    /// The line the driver reads: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn driver_line(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, s) in &self.end_to_end {
            metrics.set(name, metric_json(name, s.median));
        }
        for &(name, v) in &self.per_layer {
            metrics.set(name, metric_json(name, v));
        }
        Json::obj()
            .with("correct", self.tally.failed == 0)
            .with("attempted", self.tally.attempted.max(1))
            .with("failed", self.tally.failed)
            .with("metrics", metrics)
    }
}

fn metric_json(name: &str, value: f64) -> Json {
    let unit = metric(name).map_or("", |m| m.unit);
    Json::obj().with("value", value).with("unit", unit)
}

/// The timed run: untraced repetitions, one workload instance each, until
/// `seconds` are used up; set-up-only children before every one.
pub fn timed_run(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let begin = Instant::now();
    let mut setups = Vec::new();
    let mut reps = Vec::new();
    loop {
        let rep_begin = Instant::now();
        for _ in 0..SETUPS_PER_REP {
            setups.push(spawn_setup(workload, seed)?);
        }
        reps.push(spawn_rep(workload, instance_seed(seed, reps.len()), false)?);
        let rep_secs = rep_begin.elapsed().as_secs_f64();
        // Another repetition only if it would end inside the budget.
        let fits = begin.elapsed().as_secs_f64() + rep_secs <= seconds;
        if reps.len() >= MIN_REPS && !fits {
            return Ok(reduce_timed(setups, &reps));
        }
    }
}

/// Reduce the set-up timings and the untraced repetitions (instances 0, 1,
/// ...) of one timed run to end-to-end medians.
pub fn reduce_timed(setups: Vec<f64>, reps: &[ChildReport]) -> RunResult {
    let mut result = RunResult {
        exact: reps.first().map(|r| r.outcome.exact),
        ..RunResult::default()
    };
    for rep in reps {
        result.tally.merge(&rep.outcome.tally);
    }
    let column = |f: &dyn Fn(&ChildReport) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    for (name, runs) in [
        ("wall_s", column(&|r| r.wall_s)),
        ("setup_s", setups),
        ("peak_rss_mb", column(&|r| r.peak_rss_mb)),
        (
            "sim_goodput_mbps",
            column(&|r| r.outcome.value("sim_goodput_mbps").unwrap_or(0.0)),
        ),
    ] {
        result.end_to_end.push((name, Summary::of(runs)));
    }
    debug_assert!(result
        .end_to_end
        .iter()
        .map(|(n, _)| *n)
        .eq(END_TO_END.iter().map(|m| m.name)));
    result
}

/// The traced run: one untraced child, one traced child, and the kernels.
pub fn traced_run(workload: Workload, seed: u64, kernel_secs: f64) -> Result<RunResult, String> {
    let plain = spawn_rep(workload, seed, false)?;
    let traced = spawn_rep(workload, seed, true)?;
    let kernel_values = kernels::run_all(kernel_secs);
    Ok(reduce_traced(workload, &plain, &traced, &kernel_values))
}

/// Reduce an untraced and a traced repetition plus the kernel costs to the
/// per-layer metrics, one per catalog entry, in catalog order.
pub fn reduce_traced(
    workload: Workload,
    plain: &ChildReport,
    traced: &ChildReport,
    kernel_values: &[(&'static str, f64)],
) -> RunResult {
    let mut result = RunResult {
        exact: Some(plain.outcome.exact),
        ..RunResult::default()
    };
    result.tally.merge(&plain.outcome.tally);
    result.tally.merge(&traced.outcome.tally);
    // Two processes, one seed: the workload must repeat exactly and the
    // wrappers must be transparent (on figs_jobs2: the serial pass must
    // write the bytes the parallel one did).
    result
        .tally
        .check(plain.outcome.exact == traced.outcome.exact, || {
            format!(
                "traced run diverged: {:?} vs untraced {:?}",
                traced.outcome.exact, plain.outcome.exact
            )
        });
    for &(name, v) in &plain.outcome.values {
        let exact_kind = metric(name).is_some_and(|m| matches!(m.kind, Kind::Sim | Kind::Count));
        if let (true, Some(t)) = (exact_kind, traced.outcome.value(name)) {
            result.tally.check(v.to_bits() == t.to_bits(), || {
                format!("{name}: traced {t} vs untraced {v}")
            });
        }
    }

    let span = |name: &str| {
        traced
            .spans
            .iter()
            .find_map(|(n, v)| (n == name).then_some(*v))
    };
    let events = plain.outcome.exact.events as f64;
    let sender_calls = span("transport.sender.calls").unwrap_or(0.0);
    let sender_ms = span("transport.sender.self_ms").unwrap_or(0.0);
    for m in PER_LAYER {
        let v = match m.name {
            "failed_ops_pct" => result.tally.failed_pct(),
            "simnet.sim.ns_per_event" if events > 0.0 => plain.wall_s * 1e9 / events,
            "transport.sender.ns_per_call" if sender_calls > 0.0 => sender_ms * 1e6 / sender_calls,
            "trace.overhead_pct" if workload.is_sim() => {
                (traced.wall_s / plain.wall_s - 1.0) * 100.0
            }
            "trace.attributed_pct" if workload.is_sim() => {
                span("trace.attributed_ms").unwrap_or(0.0) / (plain.wall_s * 1e3) * 100.0
            }
            "experiments.runner.serial_s" if !workload.is_sim() => traced.wall_s,
            "experiments.runner.parallel_efficiency" if !workload.is_sim() => {
                traced.wall_s / (FIGS_JOBS as f64 * plain.wall_s)
            }
            name => span(name)
                .or_else(|| {
                    kernel_values
                        .iter()
                        .find_map(|&(n, v)| (n == name).then_some(v))
                })
                // Counts the traced run alone can make come from it; the
                // rest from the untraced run they were checked against.
                .or_else(|| traced.outcome.value(name))
                .or_else(|| plain.outcome.value(name))
                .unwrap_or(0.0),
        };
        result.per_layer.push((m.name, v));
    }
    result
}

/// Everything measured for one workload by the full procedure.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Which workload.
    pub workload: Workload,
    /// The timed run.
    pub timed: RunResult,
    /// The traced run.
    pub traced: RunResult,
}

impl WorkloadResult {
    /// Operations and checks of both runs.
    pub fn tally(&self) -> Tally {
        let mut tally = self.timed.tally.clone();
        tally.merge(&self.traced.tally);
        tally
    }

    fn to_json(&self) -> Json {
        let mut e2e = Json::obj();
        for (name, s) in &self.timed.end_to_end {
            e2e.set(name, s.to_json(metric(name).map_or("", |m| m.unit)));
        }
        let mut layers = Json::obj();
        for &(name, v) in &self.traced.per_layer {
            layers.set(name, v);
        }
        let tally = self.tally();
        Json::obj()
            .with("end_to_end", e2e)
            .with("per_layer", layers)
            .with(
                "exact",
                self.timed.exact.map_or(Json::Null, |x| x.to_json()),
            )
            .with("attempted", tally.attempted)
            .with("failed", tally.failed)
            .with("failed_ops_pct", tally.failed_pct())
            .with("failures", tally.failures)
    }
}

/// `result.json`: every workload measured by one invocation.
pub fn result_json(seed: u64, seconds: f64, results: &[WorkloadResult]) -> Json {
    let mut workloads = Json::obj();
    for r in results {
        workloads.set(r.workload.name(), r.to_json());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .with("schema", 1u64)
        .with("seed", seed)
        .with("run_seconds", seconds)
        .with("nproc", nproc)
        .with("workloads", workloads)
}

/// Print every metric of `r` by name, with its unit.
pub fn print_timed(workload: Workload, r: &RunResult) {
    println!("== {} — end to end (tracing off) ==", workload.name());
    println!("why:  {}", workload.why());
    println!("load: {}", workload.loop_kind());
    for (name, s) in &r.end_to_end {
        let m = metric(name).expect("catalog name");
        println!(
            "{:<20} {:>14.6} {:<7} q1 {:.6}  q3 {:.6}  min {:.6}  n {}  (bound {:.0}%, {} is better)",
            name,
            s.median,
            m.unit,
            s.q1,
            s.q3,
            s.min,
            s.runs.len(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.better.as_str(),
        );
    }
    print_failures(r);
}

/// Print every per-layer metric of `r` by name, with its unit.
pub fn print_traced(workload: Workload, r: &RunResult) {
    println!(
        "== {} — per layer (traced run + kernels) ==",
        workload.name()
    );
    for &(name, v) in &r.per_layer {
        let unit = metric(name).map_or("", |m| m.unit);
        println!("{name:<40} {v:>18.4} {unit}");
    }
    print_failures(r);
}

fn print_failures(r: &RunResult) {
    println!(
        "failed_ops_pct {:.4} % ({} of {})",
        r.tally.failed_pct(),
        r.tally.failed,
        r.tally.attempted
    );
    for f in &r.tally.failures {
        println!("  FAILED: {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).rev().map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3, s.min), (2.75, 5.5, 8.25, 1.0));
        // statistics.quantiles([4.1, 4.0, 4.4], n=4) == [4.0, 4.1, 4.4]
        let s = Summary::of(vec![4.1, 4.0, 4.4]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.1, 4.4));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(vec![1.0, 2.0, 4.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
        let s = Summary::of(vec![7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn child_report_survives_the_pipe() {
        let report = ChildReport {
            wall_s: 4.25,
            peak_rss_mb: 12.5,
            outcome: Outcome {
                exact: Exact {
                    events: 20_641_851,
                    goodput_bytes: 7_000_000_123,
                    fct_hash: 0xfedc_ba98_7654_3210,
                },
                tally: Tally {
                    attempted: 300_003,
                    failed: 1,
                    failures: vec!["one \"quoted\" failure".into()],
                },
                values: vec![("sim_goodput_mbps", 723.551_397_583_480_7)],
            },
            spans: vec![("cc.cubic.self_ms".into(), 1.5)],
        };
        let line = report.to_json().to_string();
        let back = ChildReport::from_json(&Json::parse(&line).expect("json")).expect("report");
        assert_eq!(back.outcome.exact, report.outcome.exact);
        assert_eq!(back.outcome.values, report.outcome.values);
        assert_eq!(back.outcome.tally, report.outcome.tally);
        assert_eq!(back.spans, report.spans);
        assert_eq!((back.wall_s, back.peak_rss_mb), (4.25, 12.5));
    }

    #[test]
    fn instances_and_divergence() {
        // Instance 0 is the seed itself; the others differ from it, from
        // each other, and from the neighbouring seed's.
        assert_eq!(instance_seed(7, 0), 7);
        let seeds: Vec<u64> = (0..6).map(|k| instance_seed(7, k)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(!seeds[i + 1..].contains(a), "{seeds:?}");
            assert!(i == 0 || *a != instance_seed(8, i));
        }

        let rep = |events| ChildReport {
            wall_s: 1.0,
            peak_rss_mb: 1.0,
            outcome: Outcome {
                exact: Exact {
                    events,
                    goodput_bytes: 1,
                    fct_hash: 1,
                },
                tally: Tally {
                    attempted: 10,
                    ..Tally::default()
                },
                values: Vec::new(),
            },
            spans: Vec::new(),
        };
        // Timed repetitions are different instances: nothing to compare.
        let timed = reduce_timed(vec![0.001], &[rep(100), rep(101)]);
        assert_eq!((timed.tally.attempted, timed.tally.failed), (20, 0));
        assert_eq!(timed.exact.map(|x| x.events), Some(100));
        // The traced run's two processes share a seed: they must agree.
        let same = reduce_traced(Workload::BulkPcc1g, &rep(100), &rep(100), &[]);
        assert_eq!(same.tally.failed, 0);
        let diverged = reduce_traced(Workload::BulkPcc1g, &rep(100), &rep(101), &[]);
        assert_eq!(diverged.tally.failed, 1, "{:?}", diverged.tally.failures);
        assert!(diverged.tally.failed_pct() > 0.0);
        assert_eq!(
            diverged.driver_line().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
