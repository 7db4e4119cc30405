//! Fig. 16 — the stability/reactiveness trade-off.
//!
//! Paper setup: flow B joins flow A on a 100 Mbps / 30 ms link; X axis is
//! B's forward-looking convergence time, Y axis its post-convergence
//! throughput stddev. PCC traces a trade-off curve by sweeping Tm
//! (4.8×RTT → 1×RTT at ε=0.01) and then ε (0.01 → 0.05 at Tm=1×RTT); six
//! TCP variants are single points; the RCT mechanism shifts the curve
//! toward the sweet spot (3% slower convergence for 35% lower variance at
//! Tm=1×RTT, ε=0.01). Paper result: PCC dominates — e.g. same convergence
//! time as CUBIC with 4.2× lower variance.
//!
//! The figure is literally a parameter sweep, so it rides the same spec
//! machinery as `pcc-experiments sweep`: every PCC point is a
//! [`crate::sweep::expand`]ed `pcc:tm=…,eps=…` template — the registry's
//! schema validates the whole sweep before any simulation runs.

use pcc_scenarios::dynamics::run_tradeoff;
use pcc_scenarios::Protocol;

use crate::{fmt, runner, scaled, sweep, Opts, Table};

/// The Tm sweep at ε = 0.01, as a spec template (4.8×RTT → 1×RTT).
pub const TM_TEMPLATE: &str = "pcc:tm=4.8|3|2|1.4|1,eps=0.01";
/// ε values swept at Tm = 1×RTT.
pub const EPS_SWEEP: &[f64] = &[0.01, 0.02, 0.03, 0.05];
/// The RCT ablation at the sweet spot.
pub const NORCT_SPEC: &str = "pcc:tm=1,eps=0.01,rct=false";

/// One ε-sweep point: each ε runs with its own escalation ceiling
/// `min(5ε, 0.1)` — a template can only fix one `eps_max` for the whole
/// list, which would silently double the ε = 0.01 sweet spot's ceiling.
fn eps_spec(eps: f64) -> String {
    format!("pcc:tm=1,eps={eps},eps_max={}", (eps * 5.0).min(0.1))
}
/// TCP points.
pub const TCPS: &[&str] = &["cubic", "newreno", "vegas", "bic", "hybla", "westwood"];

/// Every point of the figure, in table order: the PCC sweeps, the RCT
/// ablation, the TCPs. A point's label is its spec.
pub fn protocols() -> Vec<Protocol> {
    let mut specs = sweep::expand(TM_TEMPLATE, 0).expect("static template");
    specs.extend(EPS_SWEEP.iter().map(|&eps| eps_spec(eps)));
    specs.push(NORCT_SPEC.to_string());
    sweep::validate_specs(&specs).expect("every swept point is schema-valid");
    let pcc = specs.into_iter().map(Protocol::Named);
    pcc.chain(TCPS.iter().map(|&t| Protocol::Tcp(t))).collect()
}

/// Run the Fig. 16 sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let trials = scaled(opts, 3, 15);
    let stability_window = 60;
    let mut table = Table::new(
        "Fig. 16 — stability vs reactiveness (flow B joins at 20 s)",
        &["point", "convergence_s", "stddev_mbps", "converged"],
    );
    // Every point is `trials` independent runs, folded back per row. The ε
    // sweep's first row restates the row before it (`eps_max=0.05` is PCC's
    // default), so it prints that row's runs again.
    let rows = protocols();
    let twin = eps_spec(EPS_SWEEP[0]);
    let points: Vec<&Protocol> = rows.iter().filter(|p| p.label() != twin).collect();
    let trial_ids: Vec<u64> = (0..trials).collect();
    let mut grid = runner::run_grid(opts, "fig16", &points, &trial_ids, |proto, &t| {
        run_tradeoff((*proto).clone(), stability_window, opts.seed ^ (t * 7919))
    })
    .into_iter();
    let mut runs = Vec::new();
    for proto in &rows {
        if proto.label() != twin {
            runs = grid.next().expect("one run per distinct point");
        }
        let label = proto.label().to_string();
        let mut conv = 0.0;
        let mut dev = 0.0;
        let mut ok = 0u32;
        for p in &runs {
            if p.converged {
                conv += p.convergence_secs;
                dev += p.stddev_mbps;
                ok += 1;
            }
        }
        if ok > 0 {
            table.row(vec![
                label,
                fmt(conv / ok as f64),
                fmt(dev / ok as f64),
                format!("{ok}/{trials}"),
            ]);
        } else {
            table.row(vec![label, "inf".into(), "-".into(), format!("0/{trials}")]);
        }
    }
    table.emit(opts, "fig16_tradeoff");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_core::{controller_from_params, PCC_SCHEMA};
    use pcc_transport::registry::CcParams;
    use pcc_transport::spec::{validate, AlgoSpec};

    #[test]
    fn templates_expand_to_the_paper_sweep() {
        let tm = sweep::expand(TM_TEMPLATE, 0).expect("tm");
        assert_eq!(tm.len(), 5, "five Tm points: {tm:?}");
        assert_eq!(tm[0], "pcc:tm=4.8,eps=0.01");
        let eps: Vec<String> = EPS_SWEEP.iter().map(|&e| eps_spec(e)).collect();
        assert_eq!(eps.len(), 4, "four ε points: {eps:?}");
        // Each ε carries its own 5ε (capped 0.1) escalation ceiling.
        assert_eq!(eps[0], "pcc:tm=1,eps=0.01,eps_max=0.05");
        assert_eq!(eps[3], "pcc:tm=1,eps=0.05,eps_max=0.1");
        let mut all = tm;
        all.extend(eps);
        all.push(NORCT_SPEC.to_string());
        sweep::validate_specs(&all).expect("schema-valid");
    }

    #[test]
    fn one_controller_runs_once_and_prints_twice() {
        // The ε sweep's first row resolves to the PCC configuration of the
        // row before it, the Tm sweep's last, and no other two PCC rows
        // agree: 16 rows, 15 distinct points.
        let config = |spec: &str| {
            let parsed = AlgoSpec::parse(spec).expect("parses");
            let bag = validate(&parsed.name, PCC_SCHEMA, &parsed.params).expect("valid");
            let params = CcParams::default().with_spec(bag);
            format!("{:?}", controller_from_params(&params, "safe").config())
        };
        let rows = protocols();
        assert_eq!(rows.len(), 16);
        let pcc: Vec<&str> = rows[..10].iter().map(Protocol::label).collect();
        let twin = eps_spec(EPS_SWEEP[0]);
        let at = pcc.iter().position(|r| *r == twin).expect("twin row");
        assert_eq!(pcc[at - 1], "pcc:tm=1,eps=0.01", "the Tm sweep's last");
        for (i, a) in pcc.iter().enumerate() {
            for (j, b) in pcc.iter().enumerate().skip(i + 1) {
                let twins = (i, j) == (at - 1, at);
                assert_eq!(config(a) == config(b), twins, "{a} vs {b}");
            }
        }
    }
}
