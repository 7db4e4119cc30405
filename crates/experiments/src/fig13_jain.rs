//! Fig. 13 — Jain's fairness index vs measurement time scale.
//!
//! Paper setup: the Fig. 12 topology with 2/3/4 concurrent flows; Jain's
//! index computed over windows from seconds to hundreds of seconds. Paper
//! result: selfishly competing PCC flows are *more* fair than TCP at every
//! time scale (PCC ≥ 0.99 at coarse scales; New Reno/CUBIC dip well below
//! at fine scales because of sawtooth desynchronization).

use pcc_scenarios::dynamics::run_convergence;
use pcc_scenarios::Protocol;
use pcc_simnet::time::SimDuration;

use crate::{runner, scaled, Opts, Table};

/// Time scales (in 1 s samples) at which the index is evaluated.
pub const SCALES: &[usize] = &[1, 5, 10, 30, 60];

/// The compared protocols; their labels name the rows.
pub fn protocols() -> [Protocol; 3] {
    [
        Protocol::named("pcc"),
        Protocol::Tcp("cubic"),
        Protocol::Tcp("newreno"),
    ]
}

/// Flow counts evaluated per protocol.
const FLOW_COUNTS: &[usize] = &[2, 3, 4];

/// Run the Fig. 13 experiment.
pub fn run(opts: &Opts) -> Vec<Table> {
    let stagger = SimDuration::from_secs(scaled(opts, 30, 500));
    let lifetime = SimDuration::from_secs(scaled(opts, 240, 3500));
    let mut table = Table::new(
        "Fig. 13 — Jain's fairness index vs time scale [s]",
        &["protocol", "flows", "1s", "5s", "10s", "30s", "60s"],
    );
    let runs = protocols();
    let grid = runner::run_grid(opts, "fig13", &runs, FLOW_COUNTS, |proto, &flows| {
        let r = run_convergence(proto.clone(), flows, stagger, lifetime, opts.seed);
        SCALES
            .iter()
            .map(|&scale| r.jain_at_scale(scale))
            .collect::<Vec<f64>>()
    });
    for (proto, by_flows) in runs.iter().zip(grid) {
        for (&flows, indices) in FLOW_COUNTS.iter().zip(by_flows) {
            let mut row = vec![proto.label().to_string(), format!("{flows}")];
            row.extend(indices.iter().map(|v| format!("{v:.3}")));
            table.row(row);
        }
    }
    table.emit(opts, "fig13_jain");
    vec![table]
}
