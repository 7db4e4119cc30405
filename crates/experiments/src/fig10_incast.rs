//! Fig. 10 — data-center incast: goodput vs number of senders.
//!
//! Paper setup: 33 senders to 1 receiver on Emulab, blocks of 64/128/256
//! KB, 15 trials per point. Paper result: TCP collapses once ≥ ~10 senders
//! overflow the port buffer (RTO-bound recovery at a 200 ms minimum RTO on
//! a sub-millisecond RTT); PCC sustains 60–80% of the maximum goodput,
//! 7–8× TCP, and stays stable as senders scale.

use pcc_scenarios::incast::run_incast;
use pcc_scenarios::Protocol;

use crate::{fmt, runner, scaled, Opts, Table};

/// Sender counts swept.
pub const SENDERS: &[usize] = &[2, 5, 10, 15, 20, 25, 30, 33];
/// Block sizes (KB) swept, as in the paper.
pub const BLOCKS_KB: &[u64] = &[64, 128, 256];

/// The compared protocols: each block size's `pcc_*` then `tcp_*` column.
pub fn protocols() -> [Protocol; 2] {
    [Protocol::named("pcc"), Protocol::Tcp("newreno")]
}

/// Run the Fig. 10 grid.
pub fn run(opts: &Opts) -> Vec<Table> {
    let trials = scaled(opts, 3, 15);
    let mut table = Table::new(
        "Fig. 10 — incast goodput [Mbps] (mean over trials)",
        &[
            "senders", "pcc_64k", "tcp_64k", "pcc_128k", "tcp_128k", "pcc_256k", "tcp_256k",
        ],
    );
    // A table cell is one (senders, block, protocol) point's mean over its
    // trials: the points are the grid's rows, in table-cell order.
    let points: Vec<(usize, u64, Protocol)> = SENDERS
        .iter()
        .flat_map(|&n| BLOCKS_KB.iter().map(move |&kb| (n, kb)))
        .flat_map(|(n, kb)| protocols().map(|proto| (n, kb, proto)))
        .collect();
    let trial_ids: Vec<u64> = (0..trials).collect();
    let grid = runner::run_grid(opts, "fig10", &points, &trial_ids, |(n, kb, proto), &t| {
        let seed = opts.seed ^ (t << 8) ^ (*n as u64) ^ (kb << 16);
        run_incast(proto.clone(), *n, kb * 1024, seed).goodput_mbps
    });
    let means: Vec<String> = grid
        .iter()
        .map(|runs| fmt(runs.iter().sum::<f64>() / trials as f64))
        .collect();
    for (&n, cells) in SENDERS
        .iter()
        .zip(means.chunks(points.len() / SENDERS.len()))
    {
        let mut row = vec![format!("{n}")];
        row.extend_from_slice(cells);
        table.row(row);
    }
    table.emit(opts, "fig10_incast");
    vec![table]
}
