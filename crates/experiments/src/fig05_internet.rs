//! Figs. 4–5 — big data transfer in the wild: per-path throughput-ratio
//! CDF of PCC vs TCP CUBIC, SABUL, and PCP.
//!
//! Paper setup: 510 PlanetLab/GENI sender–receiver pairs with BDP from
//! 14.3 KB to 18 MB; 100 s per protocol per pair. Paper result: PCC beats
//! CUBIC by 5.52× at the median and ≥10× on 41% of pairs; beats SABUL
//! 1.41× and PCP 4.58× at the median. Our substitute population samples
//! the same BDP envelope with random loss and buffer depth (see
//! `pcc_scenarios::internet`).

use pcc_scenarios::internet::{path_throughput, sample_paths};
use pcc_scenarios::Protocol;
use pcc_simnet::stats::percentile;
use pcc_simnet::time::SimDuration;

use crate::{fmt, runner, scaled, Opts, Table};

/// The protocol columns, in table order.
pub fn protocols() -> [Protocol; 4] {
    [
        Protocol::named("pcc"),
        Protocol::Tcp("cubic"),
        Protocol::named("sabul"),
        Protocol::named("pcp"),
    ]
}

/// Run the Figs. 4–5 population sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let n_pairs = scaled(opts, 60, 510) as usize;
    let secs = scaled(opts, 15, 100);
    let dur = SimDuration::from_secs(secs);
    let paths = sample_paths(n_pairs, opts.seed);

    let mut ratios_cubic = Vec::new();
    let mut ratios_sabul = Vec::new();
    let mut ratios_pcp = Vec::new();
    let mut per_path = Table::new(
        "Figs. 4-5 — per-path throughput [Mbps] (synthetic wide-area population)",
        &[
            "bw_mbps", "rtt_ms", "buf_kb", "loss", "pcc", "cubic", "sabul", "pcp",
        ],
    );
    let rows: Vec<_> = paths.iter().enumerate().collect();
    let grid = runner::run_grid(opts, "fig05", &rows, &protocols(), |&(i, path), proto| {
        let seed = opts.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
        path_throughput(proto.clone(), path, dur, seed)
    });
    for (path, cells) in paths.iter().zip(grid) {
        let (pcc, cubic, sabul, pcp) = (cells[0], cells[1], cells[2], cells[3]);
        let floor = 0.05; // 50 kbps floor avoids divide-by-~zero ratios
        ratios_cubic.push(pcc / cubic.max(floor));
        ratios_sabul.push(pcc / sabul.max(floor));
        ratios_pcp.push(pcc / pcp.max(floor));
        per_path.row(vec![
            fmt(path.rate_bps / 1e6),
            fmt(path.rtt.as_millis_f64()),
            fmt(path.buffer_bytes as f64 / 1000.0),
            format!("{:.4}", path.loss),
            fmt(pcc),
            fmt(cubic),
            fmt(sabul),
            fmt(pcp),
        ]);
    }

    let mut summary = Table::new(
        "Fig. 5 — PCC throughput-improvement ratio distribution",
        &["vs", "p10", "median", "p90", "frac>=10x"],
    );
    for (name, ratios) in [
        ("cubic", &ratios_cubic),
        ("sabul", &ratios_sabul),
        ("pcp", &ratios_pcp),
    ] {
        let ge10 = ratios.iter().filter(|&&r| r >= 10.0).count() as f64 / ratios.len() as f64;
        summary.row(vec![
            name.into(),
            fmt(percentile(ratios, 10.0)),
            fmt(percentile(ratios, 50.0)),
            fmt(percentile(ratios, 90.0)),
            format!("{:.2}", ge10),
        ]);
    }
    per_path.save(opts, "fig05_internet_paths");
    summary.emit(opts, "fig05_internet_summary");
    vec![summary, per_path]
}
