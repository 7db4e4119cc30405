//! Fig. 6 — satellite links: throughput vs bottleneck buffer size.
//!
//! Paper setup: emulated WINDS satellite link (800 ms RTT, 42 Mbps, 0.74%
//! random loss), buffer swept 1.5 KB – 1 MB, 100 s per point. Paper result:
//! PCC reaches 90% of capacity with a 7.5 KB buffer; Hybla manages only
//! ~2 Mbps even with 1 MB (17×), Illinois 54× worse at 1 MB.

use pcc_scenarios::links::satellite_setup;
use pcc_scenarios::{run_single, Protocol};
use pcc_simnet::time::{SimDuration, SimTime};

use crate::{fmt, runner, scaled, Opts, Table};

/// Buffer sizes swept (bytes), matching the paper's log-spaced axis.
pub const BUFFERS: &[u64] = &[
    1_500, 3_750, 7_500, 15_000, 37_500, 75_000, 150_000, 375_000, 1_000_000,
];

/// The protocol columns, in table order.
pub fn protocols() -> [Protocol; 5] {
    [
        Protocol::named("pcc"),
        Protocol::Tcp("hybla"),
        Protocol::Tcp("illinois"),
        Protocol::Tcp("cubic"),
        Protocol::Tcp("newreno"),
    ]
}

/// Run the Fig. 6 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    // PCC needs ~20 s to ramp at 800 ms RTT; measure steady state.
    let secs = scaled(opts, 60, 100);
    let warmup = scaled(opts, 30, 40);
    let dur = SimDuration::from_secs(secs);
    let mut table = Table::new(
        "Fig. 6 — satellite (42 Mbps, 800 ms RTT, 0.74% loss): throughput [Mbps] vs buffer",
        &["buffer_kb", "pcc", "hybla", "illinois", "cubic", "newreno"],
    );
    let grid = runner::run_grid(opts, "fig06", BUFFERS, &protocols(), |&buf, proto| {
        let r = run_single(proto.clone(), satellite_setup(buf), dur, opts.seed);
        r.throughput_in(0, SimTime::from_secs(warmup), SimTime::from_secs(secs))
    });
    for (&buf, cells) in BUFFERS.iter().zip(grid) {
        let mut row = vec![format!("{:.1}", buf as f64 / 1000.0)];
        row.extend(cells.into_iter().map(fmt));
        table.row(row);
    }
    table.emit(opts, "fig06_satellite");
    vec![table]
}
