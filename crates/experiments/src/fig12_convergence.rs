//! Fig. 12 — convergence dynamics of four staggered flows.
//!
//! Paper setup: four flows on a 100 Mbps / 30 ms bottleneck (BDP buffer),
//! starting 500 s apart, each alive 2000 s; rates plotted at 1 s
//! granularity. Paper result: PCC flows converge smoothly to the fair
//! share with dramatically lower rate variance than CUBIC's sawtooth.

use pcc_scenarios::dynamics::run_convergence;
use pcc_scenarios::Protocol;
use pcc_simnet::time::SimDuration;

use crate::{fmt, runner, scaled, Opts, Table};

/// The two compared protocols; their labels name the rows and trace files.
pub fn protocols() -> [Protocol; 2] {
    [Protocol::named("pcc"), Protocol::Tcp("cubic")]
}

/// Run the Fig. 12 experiment.
pub fn run(opts: &Opts) -> Vec<Table> {
    let stagger = SimDuration::from_secs(scaled(opts, 60, 500));
    let lifetime = SimDuration::from_secs(scaled(opts, 300, 3500));
    let mut out = Vec::new();
    let mut summary = Table::new(
        "Fig. 12 — 4 staggered flows: per-flow stddev after all active [Mbps]",
        &["protocol", "mean_stddev"],
    );
    let runs = protocols();
    let jobs = runs
        .iter()
        .map(|proto| {
            let seed = opts.seed;
            runner::job(move || run_convergence(proto.clone(), 4, stagger, lifetime, seed))
        })
        .collect();
    let results = runner::run_jobs(opts, "fig12", jobs);
    for (name, r) in runs.iter().map(Protocol::label).zip(results) {
        summary.row(vec![name.into(), fmt(r.mean_stddev())]);
        let mut trace = Table::new(
            &format!("Fig. 12 — rate trace ({name}), 1 s samples [Mbps]"),
            &["t_s", "flow1", "flow2", "flow3", "flow4"],
        );
        let series: Vec<&Vec<f64>> = r
            .inner
            .flows
            .iter()
            .map(|f| &r.inner.report.flows[f.index()].series.throughput_mbps)
            .collect();
        let n = series.iter().map(|s| s.len()).min().unwrap_or(0);
        for t in (0..n).step_by(2) {
            trace.row(vec![
                format!("{t}"),
                fmt(series[0][t]),
                fmt(series[1][t]),
                fmt(series[2][t]),
                fmt(series[3][t]),
            ]);
        }
        trace.save(opts, &format!("fig12_convergence_{name}"));
        out.push(trace);
    }
    summary.emit(opts, "fig12_convergence_summary");
    out.insert(0, summary);
    out
}
