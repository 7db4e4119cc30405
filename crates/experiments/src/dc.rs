//! Datacenter fabrics: rack-scale incast, cross-pod permutation traffic,
//! and an oversubscribed leaf-spine elephant/mouse mix.
//!
//! Not a figure from the paper — the multi-hop counterpart of Fig. 10 on
//! the topology subsystem's Clos fabrics, reporting per-path FCT
//! percentiles and per-link utilization. Every cell is an independent
//! simulation fanned out on the parallel runner; output is bit-identical
//! at any `--jobs`.

use pcc_scenarios::dc::{run_ft_permutation, run_ls_mix, run_rack_incast, DcStats, LsFabric};
use pcc_scenarios::Protocol;

use crate::{fmt, runner, scaled, Opts, Table};

/// Sender counts for the k=4 rack-scale incast sweep (15 possible senders).
pub const INCAST_SENDERS: &[usize] = &[2, 6, 14];
/// Fat-tree arity of the permutation workload: k=8 → 128 hosts.
pub const PERMUTATION_K: usize = 8;
/// Leaf-spine shape of the oversubscribed mix: 8 leaves × 8 hosts = 64
/// hosts over 4 spines at 4:1.
pub const LEAF_SPINE: (usize, usize, usize) = (8, 4, 8);
/// Core oversubscription of the leaf-spine mix.
pub const OVERSUBSCRIPTION: f64 = 4.0;

/// The protocols compared in every table; their labels name the rows.
pub fn protocols() -> [Protocol; 2] {
    [Protocol::named("pcc"), Protocol::Tcp("cubic")]
}

/// Rack-scale incast on a k=4 fat-tree: goodput and down-link pressure vs
/// sender count.
pub fn run_incast_table(opts: &Opts) -> Table {
    let block = scaled(opts, 128, 256) * 1024;
    let mut table = Table::new(
        "DC — rack-scale incast, fat-tree k=4 (goodput [Mbps], ToR down-link peak queue [KB])",
        &[
            "senders",
            "pcc_mbps",
            "cubic_mbps",
            "pcc_downq_kb",
            "cubic_downq_kb",
        ],
    );
    let cols: Vec<(u64, Protocol)> = (0..).zip(protocols()).collect();
    let grid = runner::run_grid(
        opts,
        "dc-incast",
        INCAST_SENDERS,
        &cols,
        |&n, (i, proto)| {
            let seed = opts.seed ^ ((n as u64) << 4) ^ i;
            let r = run_rack_incast(4, proto, n, block, seed);
            (
                r.stats.goodput_mbps,
                r.down_link.queue.max_backlog_bytes as f64 / 1024.0,
            )
        },
    );
    for (&n, cells) in INCAST_SENDERS.iter().zip(grid) {
        let ((pcc_gp, pcc_q), (cubic_gp, cubic_q)) = (cells[0], cells[1]);
        table.row(vec![
            format!("{n}"),
            fmt(pcc_gp),
            fmt(cubic_gp),
            fmt(pcc_q),
            fmt(cubic_q),
        ]);
    }
    table.emit(opts, "dc_incast");
    table
}

/// Cross-pod permutation on a k=8 fat-tree (128 hosts): FCT percentiles
/// and fabric utilization per protocol.
pub fn run_fattree_table(opts: &Opts) -> Table {
    let flow_bytes = scaled(opts, 64, 512) * 1024;
    let mut table = Table::new(
        "DC — cross-pod permutation, fat-tree k=8, 128 hosts (per-path FCT, link util)",
        &[
            "protocol",
            "completed",
            "fct_p50_ms",
            "fct_p99_ms",
            "goodput_mbps",
            "max_link_util",
            "max_queue_kb",
        ],
    );
    let protocols = protocols();
    let jobs: Vec<runner::Job<'_, DcStats>> = (0..)
        .zip(&protocols)
        .map(|(i, proto)| {
            let seed = opts.seed ^ 0xD0 ^ i;
            runner::job(move || {
                run_ft_permutation(PERMUTATION_K, &|_| proto.clone(), flow_bytes, seed).0
            })
        })
        .collect();
    let results = runner::run_jobs(opts, "dc-fattree", jobs);
    for (proto, stats) in protocols.iter().zip(results) {
        table.row(vec![
            proto.label().to_string(),
            format!("{}/{}", stats.completed, stats.total),
            fmt(stats.fct_p50_ms),
            fmt(stats.fct_p99_ms),
            fmt(stats.goodput_mbps),
            fmt(stats.max_link_util),
            fmt(stats.max_queue_bytes as f64 / 1024.0),
        ]);
    }
    table.emit(opts, "dc_fattree_perm");
    table
}

/// Elephant/mouse mix on the 4:1 oversubscribed leaf-spine fabric (64
/// hosts): tail FCT under a contended core.
pub fn run_leafspine_table(opts: &Opts) -> Table {
    let elephant = scaled(opts, 256, 2048) * 1024;
    let mouse = 32 * 1024;
    let (leaves, spines, per_leaf) = LEAF_SPINE;
    let mut table = Table::new(
        "DC — elephant/mouse mix, leaf-spine 8x4 at 4:1 oversubscription, 64 hosts",
        &[
            "protocol",
            "completed",
            "fct_p50_ms",
            "fct_p99_ms",
            "goodput_mbps",
            "uplink_util",
        ],
    );
    let protocols = protocols();
    let jobs: Vec<runner::Job<'_, (DcStats, f64)>> = (0..)
        .zip(&protocols)
        .map(|(i, proto)| {
            let seed = opts.seed ^ 0x15 ^ i;
            runner::job(move || {
                let (stats, uplink_util, _) = run_ls_mix(
                    LsFabric {
                        leaves,
                        spines,
                        hosts_per_leaf: per_leaf,
                        oversubscription: OVERSUBSCRIPTION,
                    },
                    proto,
                    elephant,
                    mouse,
                    seed,
                );
                (stats, uplink_util)
            })
        })
        .collect();
    let results = runner::run_jobs(opts, "dc-leafspine", jobs);
    for (proto, (stats, uplink_util)) in protocols.iter().zip(results) {
        table.row(vec![
            proto.label().to_string(),
            format!("{}/{}", stats.completed, stats.total),
            fmt(stats.fct_p50_ms),
            fmt(stats.fct_p99_ms),
            fmt(stats.goodput_mbps),
            fmt(uplink_util),
        ]);
    }
    table.emit(opts, "dc_leafspine");
    table
}

/// Run all three datacenter tables.
pub fn run(opts: &Opts) -> Vec<Table> {
    vec![
        run_incast_table(opts),
        run_fattree_table(opts),
        run_leafspine_table(opts),
    ]
}
