//! Fig. 8 — RTT fairness: relative throughput of the long-RTT flow.
//!
//! Paper setup: a 10 ms flow joins a long-RTT flow (20–100 ms) on a
//! 100 Mbps bottleneck buffered at the short flow's BDP; 500 s contention.
//! Paper result: PCC holds the ratio near 1 across the range (convergence
//! driven by utility, not by the control-cycle length); New Reno starves
//! the long flow; CUBIC helps but degrades past ~60 ms.

use pcc_scenarios::dynamics::rtt_fairness_ratio;
use pcc_scenarios::Protocol;
use pcc_simnet::time::SimDuration;

use crate::{fmt, runner, scaled, Opts, Table};

/// Long-flow RTTs swept (ms), as in the paper.
pub const LONG_RTTS_MS: &[u64] = &[20, 30, 40, 50, 60, 70, 80, 90, 100];

/// The protocol columns, in table order.
pub fn protocols() -> [Protocol; 4] {
    [
        Protocol::named("pcc"),
        Protocol::named("bbr"),
        Protocol::Tcp("cubic"),
        Protocol::Tcp("newreno"),
    ]
}

/// Run the Fig. 8 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let contention = SimDuration::from_secs(scaled(opts, 60, 500));
    let mut table = Table::new(
        "Fig. 8 — RTT fairness: long-RTT/short-RTT throughput ratio",
        &["long_rtt_ms", "pcc", "bbr", "cubic", "newreno"],
    );
    let grid = runner::run_grid(
        opts,
        "fig08",
        LONG_RTTS_MS,
        &protocols(),
        |&rtt_ms, proto| {
            let long = SimDuration::from_millis(rtt_ms);
            rtt_fairness_ratio(proto.clone(), long, contention, opts.seed)
        },
    );
    for (&rtt_ms, cells) in LONG_RTTS_MS.iter().zip(grid) {
        let mut row = vec![format!("{rtt_ms}")];
        row.extend(cells.into_iter().map(fmt));
        table.row(row);
    }
    table.emit(opts, "fig08_rtt_fairness");
    vec![table]
}
