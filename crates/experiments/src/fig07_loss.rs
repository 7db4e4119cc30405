//! Fig. 7 — random loss resilience: throughput vs loss rate.
//!
//! Paper setup: 100 Mbps, 30 ms RTT, loss on both directions swept 0–6%,
//! 100 s per point. Paper result: PCC ≥ 95% of capacity to 1% loss and
//! degrades gracefully to ~74% at 2%; CUBIC is 10× below PCC at just 0.1%
//! and 37× at 2%; Illinois is 16× below at 2%. PCC's safe utility caps
//! tolerance near its 5% loss knee, so throughput collapses by ~6%.
//!
//! The sweep additionally runs `bbr` (the modern model-based baseline,
//! resolved through the registry like any other name): loss-blind by
//! design, it holds high utilization at low loss rates where CUBIC
//! collapses, giving the figure a post-paper comparison point.

use pcc_scenarios::links::lossy_setup;
use pcc_scenarios::{run_single, Protocol};
use pcc_simnet::time::{SimDuration, SimTime};

use crate::{fmt, runner, scaled, Opts, Table};

/// Loss rates swept (both directions), matching the paper's axis.
pub const LOSS_RATES: &[f64] = &[0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06];

/// The protocol columns, in table order.
pub fn protocols() -> [Protocol; 4] {
    [
        Protocol::named("pcc"),
        Protocol::Named("bbr".into()),
        Protocol::Tcp("illinois"),
        Protocol::Tcp("cubic"),
    ]
}

/// Run the Fig. 7 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let secs = scaled(opts, 30, 100);
    let warmup = scaled(opts, 8, 20);
    let dur = SimDuration::from_secs(secs);
    let mut table = Table::new(
        "Fig. 7 — random loss (100 Mbps, 30 ms): throughput [Mbps] vs loss rate",
        &["loss", "pcc", "bbr", "illinois", "cubic"],
    );
    let grid = runner::run_grid(opts, "fig07", LOSS_RATES, &protocols(), |&loss, proto| {
        let r = run_single(proto.clone(), lossy_setup(loss), dur, opts.seed);
        r.throughput_in(0, SimTime::from_secs(warmup), SimTime::from_secs(secs))
    });
    for (&loss, cells) in LOSS_RATES.iter().zip(grid) {
        let mut row = vec![format!("{loss:.3}")];
        row.extend(cells.into_iter().map(fmt));
        table.row(row);
    }
    table.emit(opts, "fig07_loss");
    vec![table]
}
