//! Fig. 17 — power (throughput/delay) under AQM × protocol combinations.
//!
//! Paper setup: two long-running interactive flows on a 40 Mbps / 20 ms
//! path with per-flow fair queueing; the network side is either CoDel or a
//! bufferbloated FIFO per flow. Paper result: TCP's power collapses 10.5×
//! without CoDel; PCC with the latency-sensitive utility achieves the same
//! power under either AQM (CoDel never sees a queue worth dropping from)
//! and beats TCP+CoDel by 1.55×.

use pcc_scenarios::power::{pcc_interactive, run_power};
use pcc_scenarios::{Protocol, QueueKind};
use pcc_simnet::time::SimDuration;

use crate::{fmt, runner, scaled, Opts, Table};

/// The compared protocols: the `tcp` and the `pcc` cells.
pub fn protocols() -> [Protocol; 2] {
    [Protocol::Tcp("cubic"), pcc_interactive()]
}

/// Run the Fig. 17 grid.
pub fn run(opts: &Opts) -> Vec<Table> {
    let dur = SimDuration::from_secs(scaled(opts, 40, 120));
    let mut table = Table::new(
        "Fig. 17 — power = throughput/delay (two interactive flows, FQ)",
        &["cell", "tput_mbps", "rtt_ms", "power"],
    );
    let queues = [
        ("codel", QueueKind::FqCodel),
        ("bufferbloat", QueueKind::Bufferbloat),
    ];
    let grid = runner::run_grid(
        opts,
        "fig17",
        &protocols(),
        &queues,
        |proto, &(_, queue)| run_power(proto.clone(), queue, dur, opts.seed),
    );
    for (who, by_queue) in ["tcp", "pcc"].iter().zip(grid) {
        for ((aqm, _), r) in queues.iter().zip(by_queue) {
            table.row(vec![
                format!("{who} + {aqm} + fq"),
                fmt(r.throughput_mbps),
                fmt(r.rtt_ms),
                fmt(r.power),
            ]);
        }
    }
    table.emit(opts, "fig17_power");
    vec![table]
}
