//! Parameter sweeps over spec templates — the command-line face of the
//! registry's `name:key=val` surface (§4.4's "swap the constants, keep
//! the architecture" claim as a one-liner).
//!
//! A *template* is a spec string whose values may be ranges or lists:
//!
//! ```text
//! pcc:eps=0.01..0.1            # linspace over --points steps
//! pcc:eps_max=0.05|0.1         # explicit list
//! pcc:tm=1|2,eps=0.01..0.05    # cross-product of both axes
//! ```
//!
//! [`expand`] turns a template into concrete spec strings; [`run_specs`]
//! measures each on a reference dumbbell (100 Mbps, 30 ms, 3× BDP
//! buffer) and tabulates throughput / loss / RTT. The Fig. 16 harness
//! builds its PCC sweep points through [`expand`] as well, so the figure
//! and the CLI share one expansion path.

use pcc_scenarios::{run_single, LinkSetup, Protocol, ALGORITHMS};
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::registry::{self, CcParams};
use pcc_transport::spec::AlgoSpec;

use crate::{fmt, runner, Opts, Table};

/// Most specs one invocation may expand to. Each is a simulation, so a
/// bound far above any real sweep still stops `--points` from asking
/// for more specs than memory holds.
const MAX_SPECS: usize = 10_000;

/// Simulated seconds [`run_specs`] discards before it averages throughput.
const WARMUP_SECS: u64 = 1;

/// The linspace range `lo..hi` of a value expression, if it is one.
fn range(value: &str) -> Option<(f64, f64)> {
    let (lo, hi) = value.split_once("..")?;
    Some((lo.parse().ok()?, hi.parse().ok()?))
}

/// How many values [`expand_value`] yields for `value`, without building
/// them.
fn value_count(value: &str, points: usize) -> usize {
    if range(value).is_some() {
        points.max(2)
    } else {
        value.split('|').count()
    }
}

/// Expand one value expression: `lo..hi` (linspace over `points` steps),
/// `a|b|c` (explicit list), or a scalar. Interior points keep their
/// fractions, snapped to 9 decimals so linspace artifacts don't leak into
/// the spec strings (0.055, not 0.055000000000000004).
fn expand_value(value: &str, points: usize) -> Vec<String> {
    if let Some((lo, hi)) = range(value) {
        let n = points.max(2);
        return (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                format!("{}", (x * 1e9).round() / 1e9)
            })
            .collect();
    }
    value.split('|').map(str::to_string).collect()
}

/// Expand a spec template into concrete spec strings: every range/list
/// value is enumerated and the axes are crossed in template order (last
/// key varies fastest). A template with no ranges expands to itself.
/// Syntax errors, and a cross product above 10 000 specs (counted before
/// anything is built), are a readable message, never a panic.
pub fn expand(template: &str, points: usize) -> Result<Vec<String>, String> {
    let spec = AlgoSpec::parse(template).map_err(|e| {
        format!(
            "bad template `{template}`: {} in `{}`",
            e.reason, e.fragment
        )
    })?;
    let fits = spec
        .params
        .iter()
        .try_fold(1usize, |n, (_, v)| n.checked_mul(value_count(v, points)))
        .is_some_and(|n| n <= MAX_SPECS);
    if !fits {
        return Err(format!(
            "usage: template `{template}` at --points {points} expands to more than \
             {MAX_SPECS} specs"
        ));
    }
    let mut combos: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for (key, value) in &spec.params {
        let values = expand_value(value, points);
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for combo in &combos {
            for v in &values {
                let mut c = combo.clone();
                c.push((key.clone(), v.clone()));
                next.push(c);
            }
        }
        combos = next;
    }
    Ok(combos
        .into_iter()
        .map(|params| {
            AlgoSpec {
                name: spec.name.clone(),
                params,
            }
            .render()
        })
        .collect())
}

/// Validate that every spec resolves (schema included) before any
/// simulation time is spent; returns the registry's typed error text.
pub fn validate_specs(specs: &[String]) -> Result<(), String> {
    for spec in specs {
        registry::by_name(ALGORITHMS, spec, &CcParams::default()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Measure each spec alone on the reference dumbbell (100 Mbps / 30 ms /
/// 3×BDP ≈ 375 KB buffer) for `secs` simulated seconds and tabulate
/// steady-state throughput (after 1 s warmup), loss rate, and mean RTT.
pub fn run_specs(opts: &Opts, specs: &[String], secs: u64) -> Table {
    let mut table = Table::new(
        "sweep — each spec alone on 100 Mbps / 30 ms (3×BDP buffer)",
        &["spec", "tput_mbps", "loss_rate", "rtt_ms"],
    );
    let jobs = specs
        .iter()
        .map(|spec| {
            let proto = Protocol::Named(spec.clone());
            let seed = opts.seed;
            runner::job(move || {
                let r = run_single(
                    proto,
                    LinkSetup::new(100e6, SimDuration::from_millis(30), 375_000),
                    SimDuration::from_secs(secs),
                    seed,
                );
                let warm = SimTime::from_secs(WARMUP_SECS);
                let tput = r.throughput_in(0, warm, SimTime::from_secs(secs));
                (tput, r.loss_rate(0), r.mean_rtt_ms(0))
            })
        })
        .collect();
    let results = runner::run_jobs(opts, "sweep", jobs);
    for (spec, (tput, loss, rtt)) in specs.iter().zip(results) {
        table.row(vec![spec.clone(), fmt(tput), fmt(loss), fmt(rtt)]);
    }
    table
}

/// The `pcc-experiments sweep` entry point: expand every template, bail
/// early (with the registry's typed error) on anything that does not
/// validate, then measure and print. A `secs` that ends at or before the
/// warm-up leaves no window to average throughput over, so it is a usage
/// error too.
pub fn run_cli(
    opts: &Opts,
    templates: &[String],
    points: usize,
    secs: u64,
) -> Result<Table, String> {
    if templates.is_empty() {
        return Err(
            "sweep needs at least one template, e.g. `sweep \"pcc:eps=0.01..0.1\" --points 3`"
                .to_string(),
        );
    }
    if secs <= WARMUP_SECS {
        return Err(format!(
            "usage: --secs {secs} leaves no measured window: sweep discards the first \
             {WARMUP_SECS} s, so it needs --secs {} or more",
            WARMUP_SECS + 1
        ));
    }
    let mut specs = Vec::new();
    for template in templates {
        specs.extend(expand(template, points)?);
    }
    validate_specs(&specs)?;
    let table = run_specs(opts, &specs, secs);
    table.emit(opts, "sweep");
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_expand_to_linspace() {
        let specs = expand("pcc:eps=0.01..0.05", 3).expect("expands");
        assert_eq!(specs, vec!["pcc:eps=0.01", "pcc:eps=0.03", "pcc:eps=0.05"]);
    }

    #[test]
    fn float_ranges_keep_interior_points_between_whole_endpoints() {
        // Regression: int-ness used to be guessed from the endpoints, so
        // a parameter swept between whole numbers collapsed to its
        // endpoints ([1, 1, 2, 2, 2]).
        let specs = expand("pcc:tm=1..2", 5).expect("expands");
        assert_eq!(
            specs,
            vec![
                "pcc:tm=1",
                "pcc:tm=1.25",
                "pcc:tm=1.5",
                "pcc:tm=1.75",
                "pcc:tm=2",
            ]
        );
        validate_specs(&specs).expect("all distinct points validate");
    }

    #[test]
    fn lists_and_cross_products() {
        let specs = expand("pcc:tm=1|2,eps=0.01..0.02", 2).expect("expands");
        assert_eq!(
            specs,
            vec![
                "pcc:tm=1,eps=0.01",
                "pcc:tm=1,eps=0.02",
                "pcc:tm=2,eps=0.01",
                "pcc:tm=2,eps=0.02",
            ]
        );
    }

    #[test]
    fn plain_specs_expand_to_themselves() {
        assert_eq!(expand("bbr", 3).expect("expands"), vec!["bbr"]);
        assert_eq!(
            expand("cubic:paced=true", 5).expect("expands"),
            vec!["cubic:paced=true"]
        );
    }

    #[test]
    fn expanded_specs_validate_against_schemas() {
        let mut specs = expand("pcc:eps=0.01..0.05", 3).expect("expands");
        specs.extend(expand("pcc:eps_max=0.05|0.1", 3).expect("expands"));
        validate_specs(&specs).expect("all schema-valid");
        let bad = vec!["pcc:eps_max=0.9".to_string()];
        let err = validate_specs(&bad).expect_err("out of range");
        assert!(err.contains("eps_max"), "{err}");
    }

    #[test]
    fn oversized_sweeps_are_errors_counted_before_allocation() {
        // `--points usize::MAX` once asked `collect` for usize::MAX
        // strings ("capacity overflow"); three 1 000-point axes ask for
        // 10⁹. Both are refused by count.
        let err = expand("pcc:eps=0.01..0.1", usize::MAX).expect_err("usize::MAX points");
        assert!(err.contains("more than"), "{err}");
        assert!(expand("pcc:eps=0.01..0.1,eps_max=0.1..0.2,tm=1..2", 1_000).is_err());
        assert_eq!(
            expand("pcc:eps=0.01..0.1", MAX_SPECS).map(|v| v.len()),
            Ok(MAX_SPECS)
        );
    }

    #[test]
    fn a_sweep_shorter_than_its_warm_up_is_a_usage_error() {
        // `--secs 1` once printed `tput_mbps` 0 for every spec beside a
        // non-zero loss rate and RTT: the throughput window was empty.
        for secs in [0, 1] {
            let err = run_cli(&Opts::default(), &["cubic".to_string()], 3, secs)
                .expect_err("no measured window");
            assert!(
                err.starts_with("usage: ") && err.contains("--secs 2"),
                "{err}"
            );
            assert!(!err.contains('\n'), "one line: {err:?}");
        }
    }

    #[test]
    fn bad_templates_are_errors_not_panics() {
        assert!(expand("pcc:eps", 3).is_err());
        let err = run_cli(&Opts::default(), &[], 3, 4).expect_err("no templates");
        assert!(err.contains("sweep needs"), "{err}");
    }
}
