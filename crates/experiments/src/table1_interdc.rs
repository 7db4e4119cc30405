//! Table 1 — inter-data-center transfers over reserved 800 Mbps paths.
//!
//! Paper setup: nine GENI site pairs with end-to-end reserved bandwidth;
//! the bandwidth-reserving rate limiter has a small buffer, which TCP's
//! bursts continually overflow. Paper result: PCC ≈ 790±30 Mbps on most
//! pairs, SABUL 480–700, CUBIC 80–550, Illinois 90–560 (PCC beats Illinois
//! by 5.2× on average).

use pcc_scenarios::links::{interdc_setup, INTERDC_PAIRS};
use pcc_scenarios::{run_single, Protocol};
use pcc_simnet::time::{SimDuration, SimTime};

use crate::{fmt, runner, scaled, Opts, Table};

/// The protocol columns, in table order.
pub fn protocols() -> [Protocol; 4] {
    [
        Protocol::named("pcc"),
        Protocol::named("sabul"),
        Protocol::Tcp("cubic"),
        Protocol::Tcp("illinois"),
    ]
}

/// Run the Table 1 grid.
pub fn run(opts: &Opts) -> Vec<Table> {
    let secs = scaled(opts, 20, 100);
    let warmup = scaled(opts, 5, 15);
    let dur = SimDuration::from_secs(secs);
    let mut table = Table::new(
        "Table 1 — inter-DC pairs (800 Mbps reserved): throughput [Mbps]",
        &["pair", "rtt_ms", "pcc", "sabul", "cubic", "illinois"],
    );
    let grid = runner::run_grid(
        opts,
        "table1",
        INTERDC_PAIRS,
        &protocols(),
        |pair, proto| {
            let r = run_single(proto.clone(), interdc_setup(pair), dur, opts.seed);
            r.throughput_in(0, SimTime::from_secs(warmup), SimTime::from_secs(secs))
        },
    );
    for (pair, cells) in INTERDC_PAIRS.iter().zip(grid) {
        let mut row = vec![pair.name.to_string(), fmt(pair.rtt_ms)];
        row.extend(cells.into_iter().map(fmt));
        table.row(row);
    }
    table.emit(opts, "table1_interdc");
    vec![table]
}
