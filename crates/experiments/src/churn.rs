//! `pcc-experiments churn` — production-traffic flow churn at scale.
//!
//! Every bundled flow-size distribution (`web-search`, `cache-follower` —
//! see [`pcc_scenarios::workload`]) crossed with PCC and CUBIC: an
//! open-loop Poisson arrival process at 70% offered load on a 1 Gbps /
//! 10 ms dumbbell, flows recycled through the simulator's slot arena.
//! One table per workload reports FCT percentiles (p50/p99/p999) by
//! flow-size bucket; a final accounting table reports the engine's
//! conservation counters, goodput, arrival/completion rates, and a
//! per-run fingerprint. Every (workload × protocol) cell is an
//! independent simulation on the parallel [`crate::runner`], so tables
//! and CSVs are bit-identical at any `--jobs` setting.
//!
//! ```text
//! pcc-experiments churn             # scaled flow counts
//! pcc-experiments churn --full      # 100k flows per cell
//! pcc-experiments churn --jobs 2    # parallel cells, identical output
//! ```

use pcc_scenarios::workload::{builtin_names, run_churn, Arrival, ChurnReport, SizeCdf};
use pcc_scenarios::{ChurnConfig, LinkSetup, Protocol};
use pcc_simnet::time::SimDuration;

use crate::{fmt, runner, scaled, Opts, Table};

/// Bottleneck rate: 1 Gbps.
const RATE_BPS: f64 = 1e9;
/// Path RTT.
const RTT: SimDuration = SimDuration::from_millis(10);
/// Offered load as a fraction of the bottleneck.
const LOAD: f64 = 0.7;

/// The protocols each workload runs under; their labels fill the `spec`
/// column.
pub fn protocols() -> [Protocol; 2] {
    [Protocol::named("pcc"), Protocol::Tcp("cubic")]
}

/// The churn configuration for one (workload × protocol) cell.
fn config(workload: &str, protocol: Protocol, flows: u64, seed: u64) -> ChurnConfig {
    let cdf = SizeCdf::builtin(workload).expect("bundled workload CDF");
    let arrival = Arrival::poisson_for_load(LOAD, RATE_BPS, cdf.mean_bytes());
    // BDP-sized bottleneck buffer.
    let link = LinkSetup::new(RATE_BPS, RTT, 1_250_000);
    ChurnConfig::new(protocol, link, cdf, arrival, flows, seed)
}

/// A percentile cell: `-` when the bucket completed no flows.
fn pct(count: usize, ms: f64) -> String {
    if count == 0 {
        "-".to_string()
    } else {
        fmt(ms)
    }
}

/// Run the churn battery with `flows` flows per cell. One FCT table per
/// workload plus an engine-accounting table.
pub fn run_flows(opts: &Opts, flows: u64) -> Vec<Table> {
    let workloads = builtin_names();
    let protos = protocols();
    let grid: Vec<Vec<ChurnReport>> =
        runner::run_grid(opts, "churn", &workloads, &protos, |w, p| {
            run_churn(config(w, p.clone(), flows, opts.seed))
        });
    let mut tables = Vec::with_capacity(workloads.len() + 1);
    for (workload, reports) in workloads.iter().zip(&grid) {
        let mut table = Table::new(
            &format!("churn — {workload}: FCT percentiles by flow-size bucket"),
            &[
                "spec", "bucket", "flows", "done", "p50_ms", "p99_ms", "p999_ms",
            ],
        );
        for (spec, r) in protos.iter().map(Protocol::label).zip(reports) {
            let all = &r.overall;
            table.row(vec![
                spec.to_string(),
                "all".to_string(),
                (all.count() + all.incomplete).to_string(),
                all.count().to_string(),
                pct(all.count(), all.p50_ms()),
                pct(all.count(), all.p99_ms()),
                pct(all.count(), all.p999_ms()),
            ]);
            for bucket in &r.buckets {
                table.row(vec![
                    spec.to_string(),
                    bucket.label.to_string(),
                    bucket.flows.to_string(),
                    bucket.fct.count().to_string(),
                    pct(bucket.fct.count(), bucket.fct.p50_ms()),
                    pct(bucket.fct.count(), bucket.fct.p99_ms()),
                    pct(bucket.fct.count(), bucket.fct.p999_ms()),
                ]);
            }
        }
        table.emit(opts, &format!("churn_{workload}"));
        tables.push(table);
    }
    let mut acct = Table::new(
        "churn — engine accounting: conservation, recycling, rates per cell",
        &[
            "workload",
            "spec",
            "arrivals",
            "completions",
            "stalls",
            "peak_live",
            "recycled",
            "goodput_mbps",
            "arrival_hz",
            "completion_hz",
            "fingerprint",
        ],
    );
    for (workload, reports) in workloads.iter().zip(&grid) {
        for (spec, r) in protos.iter().map(Protocol::label).zip(reports) {
            let c = r.churn;
            acct.row(vec![
                workload.to_string(),
                spec.to_string(),
                c.arrivals.to_string(),
                c.completions.to_string(),
                c.stalls.to_string(),
                c.peak_live.to_string(),
                c.recycled.to_string(),
                fmt(r.goodput_mbps),
                fmt(r.arrival_rate_hz),
                fmt(r.completion_rate_hz),
                format!("{:016x}", r.fingerprint()),
            ]);
        }
    }
    acct.emit(opts, "churn_accounting");
    tables.push(acct);
    tables
}

/// The experiment registered as `churn`: scaled to 400 flows per cell by
/// default, 100k per cell with `--full` (the paper-scale churn regime).
pub fn run(opts: &Opts) -> Vec<Table> {
    run_flows(opts, scaled(opts, 400, 100_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_battery_tabulates_and_conserves() {
        let opts = Opts {
            out_dir: std::env::temp_dir().join("pcc_churn_unit"),
            ..Opts::default()
        };
        let tables = run_flows(&opts, 80);
        // One table per bundled workload plus the accounting table.
        assert_eq!(tables.len(), builtin_names().len() + 1);
        for w in builtin_names() {
            assert!(
                opts.out_dir.join(format!("churn_{w}.csv")).exists(),
                "CSV written for {w}"
            );
        }
        let acct = tables.last().unwrap().render();
        assert!(acct.contains("80"), "arrivals column shows 80:\n{acct}");
        assert!(
            opts.out_dir.join("churn_accounting.csv").exists(),
            "accounting CSV written"
        );
    }
}
