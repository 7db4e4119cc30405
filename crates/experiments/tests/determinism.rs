//! Runner determinism: a parallel run must be bit-identical to the serial
//! run — same table text, same CSV bytes — because every job owns its
//! seed and results are returned in submission order.

use pcc_experiments::{chaos, churn, dc, fig15_fct, sweep, vary, Opts};

fn opts(jobs: usize, dir: &str) -> Opts {
    Opts {
        jobs,
        out_dir: std::env::temp_dir().join(dir),
        ..Opts::default()
    }
}

fn csv_bytes(opts: &Opts, name: &str) -> Vec<u8> {
    std::fs::read(opts.out_dir.join(format!("{name}.csv")))
        .unwrap_or_else(|e| panic!("{name}.csv written: {e}"))
}

#[test]
fn fig_module_parallel_is_bit_identical_to_serial() {
    let serial = opts(1, "pcc_det_fig15_serial");
    let parallel = opts(4, "pcc_det_fig15_parallel");
    let t_serial = fig15_fct::run(&serial);
    let t_parallel = fig15_fct::run(&parallel);
    assert_eq!(t_serial.len(), t_parallel.len());
    for (a, b) in t_serial.iter().zip(&t_parallel) {
        assert_eq!(a.render(), b.render(), "rendered tables identical");
    }
    assert_eq!(
        csv_bytes(&serial, "fig15_fct"),
        csv_bytes(&parallel, "fig15_fct"),
        "CSV bytes identical across --jobs"
    );
}

#[test]
fn vary_trace_playback_parallel_is_bit_identical_to_serial() {
    // Same seed + same trace must reproduce to the byte at any worker
    // count: trace playback is part of the environment (expanded into the
    // link schedule before the run), and every (trace × algorithm) cell
    // owns its seed.
    let traces = ["lte".to_string(), "satellite".to_string()];
    let serial = opts(1, "pcc_det_vary_serial");
    let parallel = opts(4, "pcc_det_vary_parallel");
    let t_serial = vary::run_traces(&serial, &traces, 3).expect("serial vary");
    let t_parallel = vary::run_traces(&parallel, &traces, 3).expect("parallel vary");
    assert_eq!(t_serial.len(), t_parallel.len());
    for (a, b) in t_serial.iter().zip(&t_parallel) {
        assert_eq!(a.render(), b.render(), "rendered tables identical");
    }
    for name in ["vary_lte", "vary_satellite"] {
        assert_eq!(
            csv_bytes(&serial, name),
            csv_bytes(&parallel, name),
            "{name}.csv bytes identical across --jobs"
        );
    }
}

#[test]
fn dc_fattree_parallel_is_bit_identical_to_serial() {
    // The ≥64-host datacenter scenario: a k=8 fat-tree (128 hosts) cross-
    // pod permutation with per-path FCT percentiles and per-link
    // utilization. ECMP path choice is a pure hash of (seed, flow), so
    // worker count must not perturb a byte of the CSV.
    // (Dumbbell experiments' bit-identity across the graph rebase is
    // pinned separately by golden fingerprints in pcc-scenarios::setup.)
    let serial = opts(1, "pcc_det_dc_serial");
    let parallel = opts(4, "pcc_det_dc_parallel");
    let t_serial = dc::run_fattree_table(&serial);
    let t_parallel = dc::run_fattree_table(&parallel);
    assert_eq!(t_serial.render(), t_parallel.render(), "tables identical");
    assert_eq!(
        csv_bytes(&serial, "dc_fattree_perm"),
        csv_bytes(&parallel, "dc_fattree_perm"),
        "CSV bytes identical across --jobs"
    );
}

#[test]
fn chaos_tables_parallel_are_bit_identical_to_serial() {
    // The fault-injection battery leans hardest on determinism: per-fault
    // RNG streams are derived from the schedule index, node failures
    // re-resolve ECMP paths, and the per-run fingerprint column would
    // expose a single divergent event. Serial vs `--jobs 4` must agree to
    // the byte — tables, CSVs, and fingerprints alike.
    let specs = ["cubic".to_string(), "pcc".to_string()];
    let serial = opts(1, "pcc_det_chaos_serial");
    let parallel = opts(4, "pcc_det_chaos_parallel");
    let t_serial = chaos::run_specs(&serial, &specs);
    let t_parallel = chaos::run_specs(&parallel, &specs);
    assert_eq!(t_serial.len(), t_parallel.len());
    for (a, b) in t_serial.iter().zip(&t_parallel) {
        assert_eq!(a.render(), b.render(), "rendered tables identical");
    }
    for name in [
        "chaos_flap",
        "chaos_blackout",
        "chaos_spine",
        "chaos_corrupt",
    ] {
        assert_eq!(
            csv_bytes(&serial, name),
            csv_bytes(&parallel, name),
            "{name}.csv bytes identical across --jobs"
        );
    }
}

#[test]
fn churn_tables_parallel_are_bit_identical_to_serial() {
    // The churn engine's whole pitch is open-loop workload determinism:
    // arrival gaps and flow sizes come off derived RNG streams, harvests
    // land in retirement order, and the per-cell fingerprint column in
    // the accounting table would expose a single divergent flow. Serial
    // vs `--jobs 4` must agree to the byte — FCT tables, bucket rows,
    // accounting counters, and CSVs alike.
    let serial = opts(1, "pcc_det_churn_serial");
    let parallel = opts(4, "pcc_det_churn_parallel");
    let t_serial = churn::run_flows(&serial, 60);
    let t_parallel = churn::run_flows(&parallel, 60);
    assert_eq!(t_serial.len(), t_parallel.len());
    for (a, b) in t_serial.iter().zip(&t_parallel) {
        assert_eq!(a.render(), b.render(), "rendered tables identical");
    }
    for name in [
        "churn_web-search",
        "churn_cache-follower",
        "churn_accounting",
    ] {
        assert_eq!(
            csv_bytes(&serial, name),
            csv_bytes(&parallel, name),
            "{name}.csv bytes identical across --jobs"
        );
    }
}

#[test]
fn sweep_parallel_is_bit_identical_to_serial() {
    let template = [
        "pcc:eps=0.01..0.05".to_string(),
        "pcc:eps_max=0.05|0.1".to_string(),
    ];
    let serial = opts(1, "pcc_det_sweep_serial");
    let parallel = opts(4, "pcc_det_sweep_parallel");
    let t_serial = sweep::run_cli(&serial, &template, 3, 2).expect("serial sweep");
    let t_parallel = sweep::run_cli(&parallel, &template, 3, 2).expect("parallel sweep");
    assert_eq!(t_serial.render(), t_parallel.render());
    assert_eq!(
        csv_bytes(&serial, "sweep"),
        csv_bytes(&parallel, "sweep"),
        "CSV bytes identical across --jobs"
    );
}
