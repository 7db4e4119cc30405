//! Command-line driver: regenerate any table or figure of the paper.
//!
//! ```text
//! pcc-experiments list            # show available experiments
//! pcc-experiments algos           # show every registered CC algorithm + its spec keys
//! pcc-experiments fig07           # run one (scaled durations)
//! pcc-experiments fig07 --full    # paper-scale durations
//! pcc-experiments all             # run everything
//! pcc-experiments all --seed 42 --out target/experiments
//! pcc-experiments all --jobs 8  # 8 simulation workers (0 = auto, default)
//! pcc-experiments sweep "pcc:eps=0.01..0.1" "pcc:eps_max=0.05|0.1" --points 3
//! pcc-experiments vary            # every algorithm over the bundled traces
//! pcc-experiments vary lte --secs 30 --jobs 4
//! ```
//!
//! Simulations run on a worker pool (`--jobs`, default one per core);
//! results are bit-identical at any worker count because every simulation
//! owns its seed — see `pcc_experiments::runner`.

use std::process::ExitCode;

use pcc_experiments::{registry, Opts};

/// The parsed command line.
struct Cli {
    /// Experiment id or subcommand (`None` = `list`).
    which: Option<String>,
    /// Positional arguments of `sweep` (spec templates) and `vary` (traces).
    extras: Vec<String>,
    points: usize,
    /// `--secs`, if given (`sweep` and `vary` have different defaults).
    secs: Option<u64>,
    opts: Opts,
}

/// The value following flag `usage` names, or a one-line usage error.
fn value<'a, T: std::str::FromStr>(
    args: &mut impl Iterator<Item = &'a String>,
    usage: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("usage: {usage}"))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        which: None,
        extras: Vec::new(),
        points: 3,
        secs: None,
        opts: Opts {
            jobs: 0, // auto: one worker per core (library default is serial)
            ..Opts::default()
        },
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => cli.opts.full = true,
            "--jobs" => cli.opts.jobs = value(&mut args, "--jobs <n> (0 = auto)")?,
            "--seed" => cli.opts.seed = value(&mut args, "--seed <u64>")?,
            "--out" => cli.opts.out_dir = value(&mut args, "--out <dir>")?,
            "--points" => cli.points = value(&mut args, "--points <n>")?,
            "--secs" => cli.secs = Some(value(&mut args, "--secs <n>")?),
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other if cli.which.is_none() => cli.which = Some(other.to_string()),
            other if matches!(cli.which.as_deref(), Some("sweep" | "vary")) => {
                cli.extras.push(other.to_string())
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let code = run();
    // Experiments return tables, not results: a CSV that could not be
    // written was reported on stderr where it happened.
    if pcc_experiments::table::csv_write_failed() {
        return ExitCode::FAILURE;
    }
    code
}

fn run() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        which,
        extras,
        points,
        secs,
        opts,
    } = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let which = which.unwrap_or_else(|| "list".into());
    // `vary` has its own scaled default duration; 0 lets the module pick
    // it (sweep keeps its historical 4 s default).
    let (sweep_secs, vary_secs) = (secs.unwrap_or(4), secs.unwrap_or(0));
    let reg = registry();
    match which.as_str() {
        "list" => {
            println!("available experiments (run with `pcc-experiments <id> [--full]`):");
            for (id, desc, _) in &reg {
                println!("  {id:<8} {desc}");
            }
            println!("  all      run every experiment");
            println!("  algos    list every registered congestion-control algorithm");
            println!(
                "  sweep    sweep spec templates, e.g. sweep \"pcc:eps=0.01..0.1\" --points 3"
            );
            println!("  (vary also takes trace names: vary lte --secs 30 --jobs 4)");
            ExitCode::SUCCESS
        }
        "algos" => {
            use pcc_scenarios::ALGORITHMS;
            use pcc_transport::registry::{names, schema_of};
            println!("registered congestion-control algorithms (datapath-agnostic);");
            println!("parameterize with name:key=val,... :");
            for name in names(ALGORITHMS) {
                println!("  {name}");
                for p in schema_of(ALGORITHMS, name).unwrap_or(&[]) {
                    println!("      {}=<{}>  {}", p.key, p.kind.describe(), p.doc);
                }
            }
            ExitCode::SUCCESS
        }
        "sweep" => match pcc_experiments::sweep::run_cli(&opts, &extras, points, sweep_secs) {
            Ok(_) => {
                println!("\nCSV output in {}", opts.out_dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "vary" => match pcc_experiments::vary::run_cli(&opts, &extras, vary_secs) {
            Ok(_) => {
                println!("\nCSV output in {}", opts.out_dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "all" => {
            for (id, desc, run) in &reg {
                println!("\n### {id}: {desc}\n");
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall clock only times the CLI's per-module progress report; results are computed by the deterministic runner"
                )]
                let t0 = std::time::Instant::now();
                let _ = run(&opts);
                println!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
            }
            println!("\nCSV output in {}", opts.out_dir.display());
            ExitCode::SUCCESS
        }
        id => match reg.iter().find(|(rid, _, _)| *rid == id) {
            Some((_, desc, run)) => {
                println!("### {id}: {desc}\n");
                let _ = run(&opts);
                println!("\nCSV output in {}", opts.out_dir.display());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment '{id}'; try `pcc-experiments list`");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_flag_values_are_usage_errors_not_panics() {
        for (args, flag) in [
            (&["fig07", "--jobs", "x"][..], "--jobs"),
            (&["fig07", "--seed", "x"], "--seed"),
            (&["sweep", "--points", "x"], "--points"),
            (&["vary", "--secs", "x"], "--secs"),
            (&["all", "--out"], "--out"),
        ] {
            let Err(e) = parse(args) else {
                panic!("{args:?} must not parse");
            };
            assert!(
                e.starts_with("usage: ") && e.contains(flag),
                "{args:?}: {e}"
            );
            assert!(!e.contains('\n'), "one line: {e:?}");
        }
        let e = parse(&["fig07", "stray"]).err().expect("stray positional");
        assert_eq!(e, "unexpected argument: stray");
        // A mistyped flag is never taken for the experiment id or a
        // `sweep` / `vary` positional, wherever it stands.
        for args in [&["--ful", "fig07"][..], &["--ful"], &["sweep", "--ful"]] {
            let e = parse(args).err().expect("unknown flag");
            assert_eq!(e, "unknown flag: --ful", "{args:?}");
        }
    }

    #[test]
    fn flags_land_in_their_fields() {
        let cli = parse(&[
            "sweep",
            "pcc:eps_max=0.05|0.1",
            "--jobs",
            "2",
            "--seed",
            "7",
            "--points",
            "5",
            "--secs",
            "9",
            "--out",
            "x/y",
            "--full",
        ])
        .expect("well-formed");
        assert_eq!(cli.which.as_deref(), Some("sweep"));
        assert_eq!(cli.extras, ["pcc:eps_max=0.05|0.1"]);
        assert_eq!((cli.opts.jobs, cli.opts.seed, cli.points), (2, 7, 5));
        assert_eq!(cli.secs, Some(9));
        assert_eq!(cli.opts.out_dir, std::path::PathBuf::from("x/y"));
        assert!(cli.opts.full);
        // No process-wide report switch: batched reports are chosen per
        // flow (`FlowPlan::reporting`, `Flow::report`).
        let e = parse(&["fig07", "--batched"]).err().expect("no --batched");
        assert_eq!(e, "unknown flag: --batched");
        let bare = parse(&[]).expect("empty is `list`");
        assert!(bare.which.is_none() && bare.secs.is_none() && bare.opts.jobs == 0);
    }
}
