//! # pcc-experiments — regenerate every table and figure of the paper
//!
//! One module per experiment; each produces [`table::Table`]s printing the
//! same rows/series the paper reports and writes CSV under
//! `target/experiments/`. The `pcc-experiments` binary dispatches by
//! experiment id (`fig05`, `table1`, ... or `all`).
//!
//! Durations are scaled down from the paper's (hours of testbed time) —
//! each module's `scaled(opts, quick, full)` calls record the scaling.
//! Pass `--full` for paper-scale durations.

pub mod chaos;
pub mod churn;
pub mod dc;
pub mod fig05_internet;
pub mod fig06_satellite;
pub mod fig07_loss;
pub mod fig08_rtt_fairness;
pub mod fig09_buffer;
pub mod fig10_incast;
pub mod fig11_rapid;
pub mod fig12_convergence;
pub mod fig13_jain;
pub mod fig14_friendliness;
pub mod fig15_fct;
pub mod fig16_tradeoff;
pub mod fig17_power;
pub mod runner;
pub mod sec442_highloss;
pub mod sweep;
pub mod table;
pub mod table1_interdc;
pub mod vary;

use std::path::PathBuf;

pub use table::{fmt, Table};

/// Options shared by all experiments.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Run at paper-scale durations instead of the scaled defaults.
    pub full: bool,
    /// Where CSV output lands.
    pub out_dir: PathBuf,
    /// Base seed for all randomized components.
    pub seed: u64,
    /// Worker threads for simulation jobs: `1` = serial, `0` = one per
    /// available core. Results are bit-identical at any setting (see
    /// [`runner`]).
    pub jobs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            full: false,
            out_dir: PathBuf::from("target/experiments"),
            seed: 0x9CC0,
            jobs: 1,
        }
    }
}

/// Pick the scaled or full-scale value.
pub fn scaled(opts: &Opts, quick: u64, full: u64) -> u64 {
    if opts.full {
        full
    } else {
        quick
    }
}

/// One experiment entry: `(id, description, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn(&Opts) -> Vec<Table>);

/// The experiment registry.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        (
            "fig05",
            "Figs. 4-5: Internet-path population, throughput ratio CDF vs CUBIC/SABUL/PCP",
            fig05_internet::run,
        ),
        (
            "table1",
            "Table 1: inter-data-center pairs (PCC vs SABUL vs CUBIC vs Illinois)",
            table1_interdc::run,
        ),
        (
            "fig06",
            "Fig. 6: satellite link, buffer sweep (PCC vs Hybla/Illinois/CUBIC/NewReno)",
            fig06_satellite::run,
        ),
        (
            "fig07",
            "Fig. 7: random loss sweep (PCC vs BBR/Illinois/CUBIC)",
            fig07_loss::run,
        ),
        (
            "fig08",
            "Fig. 8: RTT fairness (PCC vs BBR/CUBIC/NewReno)",
            fig08_rtt_fairness::run,
        ),
        (
            "fig09",
            "Fig. 9: shallow-buffer sweep (PCC vs TCP pacing vs CUBIC)",
            fig09_buffer::run,
        ),
        (
            "fig10",
            "Fig. 10: data-center incast (PCC vs TCP)",
            fig10_incast::run,
        ),
        (
            "fig11",
            "Fig. 11: rapidly changing network (PCC vs CUBIC/Illinois)",
            fig11_rapid::run,
        ),
        (
            "fig12",
            "Fig. 12: convergence dynamics of 4 staggered flows (PCC vs CUBIC)",
            fig12_convergence::run,
        ),
        (
            "fig13",
            "Fig. 13: Jain fairness index vs time scale (PCC vs CUBIC/NewReno)",
            fig13_jain::run,
        ),
        (
            "fig14",
            "Fig. 14: TCP friendliness vs 10-flow TCP bundles",
            fig14_friendliness::run,
        ),
        (
            "fig15",
            "Fig. 15: short-flow completion times vs load (PCC vs TCP)",
            fig15_fct::run,
        ),
        (
            "fig16",
            "Fig. 16: stability/reactiveness trade-off (PCC sweep + TCP points + RCT)",
            fig16_tradeoff::run,
        ),
        (
            "fig17",
            "Fig. 17: power under {CoDel, Bufferbloat} x {TCP, PCC} with FQ",
            fig17_power::run,
        ),
        (
            "sec442",
            "Sec. 4.4.2: extreme random loss with the loss-resilient utility under FQ",
            sec442_highloss::run,
        ),
        (
            "vary",
            "Trace-driven time-varying links: every algorithm over lte/wifi/satellite",
            vary::run,
        ),
        (
            "dc",
            "Datacenter fabrics: fat-tree rack incast, k=8 cross-pod permutation, oversubscribed leaf-spine mix",
            dc::run,
        ),
        (
            "chaos",
            "Fault-injection battery: every algorithm through link flap, ACK blackout, spine failure, corruption storm",
            chaos::run,
        ),
        (
            "churn",
            "Production-traffic churn: heavy-tailed flow sizes, Poisson arrivals, FCT percentiles by size bucket",
            churn::run,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique() {
        let reg = registry();
        assert_eq!(reg.len(), 19);
        let mut ids: Vec<_> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 19, "duplicate experiment ids");
    }

    #[test]
    fn every_protocol_a_table_names_is_a_spec_the_registry_builds() {
        use pcc_scenarios::power::{pcc_interactive, pcc_loss_resilient};
        use pcc_scenarios::Protocol;
        use pcc_simnet::time::SimDuration;
        use pcc_transport::registry::{self, CcParams};

        let mut all = vec![
            Protocol::pcc_default(SimDuration::from_millis(30)),
            pcc_interactive(),
            pcc_loss_resilient(),
        ];
        all.extend(fig05_internet::protocols());
        all.extend(table1_interdc::protocols());
        all.extend(fig06_satellite::protocols());
        all.extend(fig07_loss::protocols());
        all.extend(fig08_rtt_fairness::protocols());
        all.extend(fig09_buffer::protocols());
        all.extend(fig10_incast::protocols());
        all.extend(fig11_rapid::protocols());
        all.extend(fig12_convergence::protocols());
        all.extend(fig13_jain::protocols());
        all.extend(fig15_fct::protocols());
        all.extend(fig16_tradeoff::protocols());
        all.extend(fig17_power::protocols());
        all.extend(sec442_highloss::protocols());
        all.extend(dc::protocols());
        all.extend(churn::protocols());
        for p in all {
            let built =
                registry::by_name(pcc_scenarios::ALGORITHMS, p.label(), &CcParams::default());
            assert!(built.is_ok(), "`{}`: {:?}", p.label(), built.err());
        }
    }

    #[test]
    fn scaled_picks_by_flag() {
        let mut o = Opts::default();
        assert_eq!(scaled(&o, 10, 100), 10);
        o.full = true;
        assert_eq!(scaled(&o, 10, 100), 100);
    }
}
