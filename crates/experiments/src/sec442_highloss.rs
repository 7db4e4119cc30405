//! §4.4.2 — enduring excessive loss with the loss-resilient utility.
//!
//! Paper setup: 100 Mbps / 30 ms path with per-flow FQ and 10–50% random
//! loss; PCC plugs in `u = T·(1−L)`. Paper result: PCC stays within 97% of
//! the achievable (lossy-link) optimum even at 50% loss and beats CUBIC by
//! 151× at 10% loss.

use pcc_scenarios::power::{pcc_loss_resilient, run_high_loss};
use pcc_scenarios::Protocol;
use pcc_simnet::time::SimDuration;

use crate::{runner, scaled, Opts, Table};

/// Loss rates swept.
pub const LOSSES: &[f64] = &[0.10, 0.20, 0.30, 0.40, 0.50];

/// The protocol columns, in table order.
pub fn protocols() -> [Protocol; 2] {
    [pcc_loss_resilient(), Protocol::Tcp("cubic")]
}

/// Run the §4.4.2 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let dur = SimDuration::from_secs(scaled(opts, 40, 100));
    let mut table = Table::new(
        "Sec. 4.4.2 — fraction of achievable throughput C·(1−loss) under FQ",
        &["loss", "pcc_lossres", "cubic"],
    );
    let grid = runner::run_grid(opts, "sec442", LOSSES, &protocols(), |&loss, proto| {
        run_high_loss(proto.clone(), loss, dur, opts.seed)
    });
    for (&loss, cells) in LOSSES.iter().zip(grid) {
        table.row(vec![
            format!("{:.0}%", loss * 100.0),
            format!("{:.3}", cells[0]),
            format!("{:.4}", cells[1]),
        ]);
    }
    table.emit(opts, "sec442_highloss");
    vec![table]
}
