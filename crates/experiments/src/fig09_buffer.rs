//! Fig. 9 — shallow buffers: throughput vs bottleneck buffer size.
//!
//! Paper setup: 100 Mbps, 30 ms RTT, buffer swept from one packet (1.5 KB)
//! to 1×BDP (375 KB), 100 s per point; PCC vs TCP with pacing vs CUBIC.
//! Paper result: PCC reaches 90% capacity with a 6-packet buffer (CUBIC:
//! 2%, paced TCP: 30%) and 25% of capacity with a single-packet buffer.

use pcc_scenarios::links::shallow_setup;
use pcc_scenarios::{run_single, Protocol};
use pcc_simnet::time::{SimDuration, SimTime};

use crate::{fmt, runner, scaled, Opts, Table};

/// Buffer sizes swept (bytes): 1 packet up to 1×BDP, as in the paper.
pub const BUFFERS: &[u64] = &[
    1_500, 3_000, 6_000, 9_000, 15_000, 30_000, 60_000, 125_000, 250_000, 375_000,
];

/// The protocol columns, in table order ("TCP pacing" is paced New Reno).
pub fn protocols() -> [Protocol; 3] {
    [
        Protocol::named("pcc"),
        Protocol::named("newreno:paced=true"),
        Protocol::Tcp("cubic"),
    ]
}

/// Run the Fig. 9 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let secs = scaled(opts, 30, 100);
    let warmup = scaled(opts, 8, 20);
    let dur = SimDuration::from_secs(secs);
    let mut table = Table::new(
        "Fig. 9 — shallow buffers (100 Mbps, 30 ms): throughput [Mbps] vs buffer",
        &["buffer_kb", "pcc", "tcp_pacing", "cubic"],
    );
    let grid = runner::run_grid(opts, "fig09", BUFFERS, &protocols(), |&buf, proto| {
        let r = run_single(proto.clone(), shallow_setup(buf), dur, opts.seed);
        r.throughput_in(0, SimTime::from_secs(warmup), SimTime::from_secs(secs))
    });
    for (&buf, cells) in BUFFERS.iter().zip(grid) {
        let mut row = vec![format!("{:.1}", buf as f64 / 1000.0)];
        row.extend(cells.into_iter().map(fmt));
        table.row(row);
    }
    table.emit(opts, "fig09_buffer");
    vec![table]
}
