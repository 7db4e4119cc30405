//! `pcc-experiments vary` — every registered algorithm over the bundled
//! time-varying traces.
//!
//! The trace-driven generalization of Fig. 11: instead of one synthetic
//! step-function environment, each algorithm spec in the registry runs
//! alone over each bundled [`LinkTrace`] profile (`lte`, `wifi`,
//! `satellite` — see `pcc_simnet::trace`), and the table reports how much
//! of the trace's deliverable capacity it sustained. Every (trace ×
//! algorithm) cell is an independent simulation on the parallel
//! [`crate::runner`], so tables and CSVs are bit-identical at any
//! `--jobs` setting.
//!
//! ```text
//! pcc-experiments vary                  # all traces, every registered algorithm
//! pcc-experiments vary lte              # one trace
//! pcc-experiments vary lte --secs 30    # explicit per-cell duration
//! pcc-experiments vary --jobs 4         # parallel cells, identical output
//! ```

use pcc_scenarios::vary::run_trace;
use pcc_scenarios::{Protocol, ALGORITHMS};
use pcc_simnet::shaper::ShaperConfig;
use pcc_simnet::time::SimDuration;
use pcc_simnet::trace::{builtin_names, LinkTrace};
use pcc_transport::registry;

use crate::{fmt, runner, scaled, Opts, Table};

/// Run all bundled traces at scaled/full durations — the experiment
/// registered as `vary` (so `pcc-experiments all` includes it; the
/// `vary` subcommand adds trace-name filtering on top via
/// [`run_cli`]).
pub fn run(opts: &Opts) -> Vec<Table> {
    let names: Vec<String> = builtin_names().iter().map(|s| s.to_string()).collect();
    run_traces(opts, &names, 0).expect("bundled traces resolve")
}

/// Run `traces` (bundled names) for `secs` simulated seconds per cell
/// (`0` = scaled default: 30 s, `--full` 300 s). Unknown trace names are
/// a readable error listing the bundled ones, never a panic.
pub fn run_traces(opts: &Opts, traces: &[String], secs: u64) -> Result<Vec<Table>, String> {
    let secs = if secs == 0 {
        scaled(opts, 30, 300)
    } else {
        secs
    };
    let dur = SimDuration::from_secs(secs);
    let mut loaded = Vec::with_capacity(traces.len());
    for name in traces {
        let trace = LinkTrace::builtin(name).ok_or_else(|| {
            format!(
                "unknown trace `{name}`; bundled: {}",
                builtin_names().join(", ")
            )
        })?;
        loaded.push(trace);
    }
    let algos = registry::names(ALGORITHMS);
    // One flat batch: every (trace × algorithm) cell is independent, so a
    // slow cell on one trace never serializes another trace's sweep.
    let grid = runner::run_grid(opts, "vary", &loaded, &algos, |trace, algo| {
        let shaper = ShaperConfig::default();
        let r = run_trace(Protocol::Tcp(algo), trace, dur, opts.seed, shaper);
        let achieved = r.throughput_mbps(0);
        // Utilization: the fraction of the trace's deliverable capacity
        // achieved (`0..≈1`).
        let utilization = achieved / trace.avg_capacity_mbps(dur);
        (achieved, utilization, r.loss_rate(0), r.mean_rtt_ms(0))
    });
    let mut tables = Vec::with_capacity(loaded.len());
    for (trace, cells) in loaded.iter().zip(&grid) {
        let cap = trace.avg_capacity_mbps(dur);
        let mut table = Table::new(
            &format!(
                "vary — {} trace ({} s per cell, {:.1} Mbps deliverable): utilization by algorithm",
                trace.name(),
                secs,
                cap,
            ),
            &[
                "spec",
                "achieved_mbps",
                "capacity_mbps",
                "utilization",
                "loss_rate",
                "rtt_ms",
            ],
        );
        for (algo, &(ach, util, loss, rtt)) in algos.iter().zip(cells) {
            table.row(vec![
                algo.to_string(),
                fmt(ach),
                fmt(cap),
                format!("{util:.3}"),
                fmt(loss),
                fmt(rtt),
            ]);
        }
        table.emit(opts, &format!("vary_{}", trace.name()));
        tables.push(table);
    }
    // The headline consistency ratio, when both contenders are in view.
    for (trace, cells) in loaded.iter().zip(&grid) {
        let util_of = |name: &str| -> Option<f64> {
            algos.iter().position(|a| *a == name).map(|a| cells[a].1)
        };
        if let (Some(pcc), Some(cubic)) = (util_of("pcc"), util_of("cubic")) {
            println!(
                "[{}] pcc sustains {:.1}% vs cubic {:.1}% of deliverable capacity ({:.1}x)",
                trace.name(),
                pcc * 100.0,
                cubic * 100.0,
                if cubic > 0.0 {
                    pcc / cubic
                } else {
                    f64::INFINITY
                },
            );
        }
    }
    Ok(tables)
}

/// The `pcc-experiments vary` CLI entry point: default to all bundled
/// traces when none are named.
pub fn run_cli(opts: &Opts, traces: &[String], secs: u64) -> Result<Vec<Table>, String> {
    let all: Vec<String>;
    let traces = if traces.is_empty() {
        all = builtin_names().iter().map(|s| s.to_string()).collect();
        &all
    } else {
        traces
    };
    run_traces(opts, traces, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_trace_is_a_readable_error() {
        let err = run_traces(&Opts::default(), &["dsl".to_string()], 1).expect_err("unknown");
        assert!(err.contains("dsl") && err.contains("lte"), "{err}");
    }

    #[test]
    fn one_trace_tabulates_every_algorithm() {
        let opts = Opts {
            out_dir: std::env::temp_dir().join("pcc_vary_unit"),
            ..Opts::default()
        };
        let tables = run_traces(&opts, &["wifi".to_string()], 2).expect("runs");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), registry::names(ALGORITHMS).len());
        let rendered = tables[0].render();
        assert!(rendered.contains("pcc"), "{rendered}");
        assert!(rendered.contains("cubic"), "{rendered}");
        assert!(opts.out_dir.join("vary_wifi.csv").exists(), "CSV written");
    }
}
