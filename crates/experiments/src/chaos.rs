//! `pcc-experiments chaos` — every registered algorithm through the
//! fault-injection battery.
//!
//! One table per chaos script (`flap`, `blackout`, `spine`, `corrupt` —
//! see [`pcc_scenarios::chaos`]): each registered algorithm spec runs
//! alone through the script and the table reports the typed outcome
//! (`ok` / `stalled` / `running`), goodput over the busy period, time
//! from fault repair to the first forward-progress sample, and the run's
//! counter fingerprint. Every (script × algorithm) cell is an
//! independent simulation on the parallel [`crate::runner`], so tables
//! and CSVs are bit-identical at any `--jobs` setting — the fingerprint
//! column makes a rerun diff a one-line `cmp`.
//!
//! ```text
//! pcc-experiments chaos             # every algorithm, all four scripts
//! pcc-experiments chaos --jobs 2    # parallel cells, identical output
//! ```

use pcc_scenarios::chaos::{run_chaos, ChaosOutcome, ChaosScript};
use pcc_scenarios::{install_registry, Protocol};
use pcc_transport::registry;

use crate::{fmt, runner, Opts, Table};

/// Render one outcome row cell-by-cell.
fn row(algo: &str, o: &ChaosOutcome) -> Vec<String> {
    let outcome = if o.completed {
        "ok"
    } else if o.stalled {
        "stalled"
    } else {
        "running"
    };
    vec![
        algo.to_string(),
        outcome.to_string(),
        fmt(o.goodput_mbps),
        o.recovery_ms.map(fmt).unwrap_or_else(|| "-".to_string()),
        format!("{:016x}", o.fingerprint),
    ]
}

/// Run the battery for `specs` (registry names or parameterized specs;
/// empty = every registered algorithm). One table per script.
pub fn run_specs(opts: &Opts, specs: &[String]) -> Vec<Table> {
    install_registry();
    let algos: Vec<String> = if specs.is_empty() {
        registry::names()
    } else {
        specs.to_vec()
    };
    let scripts = ChaosScript::all();
    // One flat batch: every (script × algorithm) cell is independent.
    let grid = runner::run_grid(opts, "chaos", &scripts, &algos, |&script, algo| {
        run_chaos(&Protocol::named(algo), script, opts.seed)
    });
    let mut tables = Vec::with_capacity(scripts.len());
    for (script, outcomes) in scripts.iter().zip(grid) {
        let mut table = Table::new(
            &format!(
                "chaos — {} script: outcome, goodput, post-repair recovery by algorithm",
                script.label()
            ),
            &[
                "spec",
                "outcome",
                "goodput_mbps",
                "recovery_ms",
                "fingerprint",
            ],
        );
        for (algo, outcome) in algos.iter().zip(&outcomes) {
            table.row(row(algo, outcome));
        }
        table.emit(opts, &format!("chaos_{}", script.label()));
        tables.push(table);
    }
    tables
}

/// The experiment registered as `chaos`: the full battery over every
/// registered algorithm.
pub fn run(opts: &Opts) -> Vec<Table> {
    run_specs(opts, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_spec_tabulates_all_four_scripts() {
        let opts = Opts {
            out_dir: std::env::temp_dir().join("pcc_chaos_unit"),
            ..Opts::default()
        };
        let tables = run_specs(&opts, &["cubic".to_string()]);
        assert_eq!(tables.len(), 4);
        for (table, script) in tables.iter().zip(ChaosScript::all()) {
            assert_eq!(table.len(), 1);
            let rendered = table.render();
            assert!(rendered.contains("cubic"), "{rendered}");
            assert!(
                opts.out_dir
                    .join(format!("chaos_{}.csv", script.label()))
                    .exists(),
                "CSV written for {}",
                script.label()
            );
        }
    }
}
