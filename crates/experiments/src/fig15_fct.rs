//! Fig. 15 — flow completion time for short flows vs offered load.
//!
//! Paper setup: 100 KB flows arrive as a Poisson process on a 15 Mbps /
//! 60 ms path at 5–75% load. Paper result: PCC's FCT is similar to TCP's
//! at the median and 95th percentile (95th at 75% load is 20% longer) —
//! the learning startup does not fundamentally harm short flows.
//!
//! Each cell is a churn run of one flow size ([`fct_config`]), reduced to
//! its overall FCT summary.

use pcc_scenarios::fct::fct_config;
use pcc_scenarios::{run_churn, Protocol};
use pcc_simnet::time::SimDuration;

use crate::{fmt, runner, scaled, Opts, Table};

/// Offered loads swept.
pub const LOADS: &[f64] = &[0.05, 0.25, 0.50, 0.75];

/// The compared protocols: the `pcc_*` then the `tcp_*` columns.
pub fn protocols() -> [Protocol; 2] {
    [Protocol::named("pcc"), Protocol::Tcp("cubic")]
}

/// Run the Fig. 15 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let dur = SimDuration::from_secs(scaled(opts, 60, 300));
    let mut table = Table::new(
        "Fig. 15 — 100 KB flow completion times [ms] (15 Mbps, 60 ms RTT)",
        &[
            "load",
            "pcc_med",
            "tcp_med",
            "pcc_avg",
            "tcp_avg",
            "pcc_p95",
            "tcp_p95",
            "pcc_incomplete",
        ],
    );
    let grid = runner::run_grid(opts, "fig15", LOADS, &protocols(), |&load, proto| {
        run_churn(fct_config(proto.clone(), load, dur, opts.seed)).overall
    });
    for (&load, cells) in LOADS.iter().zip(grid) {
        let (pcc, tcp) = (&cells[0], &cells[1]);
        table.row(vec![
            format!("{:.0}%", load * 100.0),
            fmt(pcc.p50_ms()),
            fmt(tcp.p50_ms()),
            fmt(pcc.mean_ms()),
            fmt(tcp.mean_ms()),
            fmt(pcc.p95_ms()),
            fmt(tcp.p95_ms()),
            format!("{}", pcc.incomplete),
        ]);
    }
    table.emit(opts, "fig15_fct");
    vec![table]
}
