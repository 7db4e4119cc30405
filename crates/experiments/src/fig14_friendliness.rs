//! Fig. 14 — TCP friendliness relative to the common selfish practice.
//!
//! Paper setup: one normal TCP flow competes with k "selfish" entities,
//! where an entity is either a bundle of 10 parallel TCP connections
//! (download accelerators: FlashGet, wxDownload) or a single PCC flow. The
//! "relative unfriendliness ratio" is the normal flow's throughput when
//! competing with PCC divided by its throughput when competing with the
//! bundles. Paper result: the ratio rises above 1 as k grows — PCC is
//! *friendlier* than what people already run.

use pcc_scenarios::dynamics::{normal_tcp_throughput, Selfish};
use pcc_simnet::time::SimDuration;

use crate::{runner, scaled, Opts, Table};

/// The paper's four link configurations (rate Mbps, RTT ms).
pub const CONFIGS: &[(f64, u64)] = &[(10.0, 10), (30.0, 20), (30.0, 10), (100.0, 10)];
/// Numbers of selfish entities swept.
pub const KS: &[usize] = &[1, 2, 4, 6, 8];

/// Run the Fig. 14 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let dur = SimDuration::from_secs(scaled(opts, 30, 100));
    let mut table = Table::new(
        "Fig. 14 — relative unfriendliness ratio (>1 ⇒ PCC friendlier than TCP bundles)",
        &["config", "k=1", "k=2", "k=4", "k=6", "k=8"],
    );
    // Each k is a (vs PCC, vs bundles) pair of adjacent cells.
    let cols: Vec<(usize, Selfish)> = KS
        .iter()
        .flat_map(|&k| [(k, Selfish::Pcc), (k, Selfish::TcpBundle)])
        .collect();
    let grid = runner::run_grid(
        opts,
        "fig14",
        CONFIGS,
        &cols,
        |&(mbps, rtt_ms), &(k, selfish)| {
            let rtt = SimDuration::from_millis(rtt_ms);
            normal_tcp_throughput(selfish, k, mbps * 1e6, rtt, dur, opts.seed)
        },
    );
    for (&(mbps, rtt_ms), cells) in CONFIGS.iter().zip(grid) {
        let mut row = vec![format!("{mbps:.0}Mbps,{rtt_ms}ms")];
        for pair in cells.chunks(2) {
            row.push(format!("{:.2}", pair[0] / pair[1].max(1e-3)));
        }
        table.row(row);
    }
    table.emit(opts, "fig14_friendliness");
    vec![table]
}
