//! Fig. 11 — rapidly changing network conditions.
//!
//! Paper setup: bandwidth (10–100 Mbps), latency (10–100 ms) and loss
//! (0–1%) all re-drawn every 5 s for 500 s. Paper result: PCC tracks the
//! optimal rate, averaging 44.9 Mbps = 83% of optimal, while CUBIC is 14×
//! and Illinois 5.6× worse.

use pcc_scenarios::rapid::run_rapid_change;
use pcc_scenarios::Protocol;
use pcc_simnet::time::SimDuration;

use crate::{fmt, runner, scaled, Opts, Table};

/// The compared protocols: summary rows and series columns, in order.
pub fn protocols() -> [Protocol; 3] {
    [
        Protocol::named("pcc"),
        Protocol::Tcp("cubic"),
        Protocol::Tcp("illinois"),
    ]
}

/// Run the Fig. 11 experiment.
pub fn run(opts: &Opts) -> Vec<Table> {
    let secs = scaled(opts, 120, 500);
    let dur = SimDuration::from_secs(secs);
    let step = SimDuration::from_secs(5);
    let env_seed = opts.seed ^ 0xEAF1;

    let mut summary = Table::new(
        "Fig. 11 — rapidly changing network (5 s re-draws): achieved vs optimal",
        &["protocol", "achieved_mbps", "optimal_mbps", "fraction"],
    );
    let mut series_tbl = Table::new(
        "Fig. 11 — sending-rate trace [Mbps per second]",
        &["t_s", "optimal", "pcc", "cubic", "illinois"],
    );
    let runs = protocols();
    let jobs = runs
        .iter()
        .map(|proto| {
            let seed = opts.seed;
            runner::job(move || run_rapid_change(proto.clone(), step, dur, env_seed, seed))
        })
        .collect();
    let results = runner::run_jobs(opts, "fig11", jobs);
    // Every protocol faces the same environment: its trace is the optimal line.
    let trace = &results[0].trace;
    let opt = trace.avg_capacity_mbps(dur);
    let mut rate_series: Vec<Vec<f64>> = Vec::new();
    for (proto, r) in runs.iter().zip(&results) {
        let ach = r.inner.throughput_mbps(0);
        summary.row(vec![
            proto.label().into(),
            fmt(ach),
            fmt(opt),
            format!("{:.2}", ach / opt),
        ]);
        // Control-decision rate series sampled at 1 s from the 100 ms grid.
        let s = &r.inner.report.flows[0].series.rate_mbps;
        rate_series.push(s.iter().step_by(10).copied().collect());
    }
    let optimal: Vec<f64> = (0..secs)
        .map(|t| {
            let p = trace.at(SimDuration::from_secs(t));
            p.rate_bps * (1.0 - p.loss.unwrap_or(0.0)) / 1e6
        })
        .collect();
    let n = optimal
        .len()
        .min(rate_series.iter().map(|s| s.len()).min().unwrap_or(0));
    for t in 0..n {
        series_tbl.row(vec![
            format!("{t}"),
            fmt(optimal[t]),
            fmt(rate_series[0][t]),
            fmt(rate_series[1][t]),
            fmt(rate_series[2][t]),
        ]);
    }
    summary.emit(opts, "fig11_rapid_summary");
    series_tbl.save(opts, "fig11_rapid_series");
    vec![summary, series_tbl]
}
