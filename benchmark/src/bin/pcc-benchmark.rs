//! `pcc-benchmark` — run the repo benchmark.
//!
//! ```text
//! pcc-benchmark [--seed N] [--workload W] [--seconds S] [--trace 0|1 | --traced]
//! pcc-benchmark --compare A.json B.json
//! pcc-benchmark --manifest | --catalog
//! ```
//!
//! Without `--trace`, every chosen workload gets the full procedure (timed
//! run, then traced run), every metric is printed by name with its unit,
//! and `<target dir>/benchmark/result.json` is written. With `--trace` and
//! one `--workload` — the form the driver uses — only that run is made and
//! the last line of stdout is the driver's JSON object.

use std::process::ExitCode;

use pcc_benchmark::catalog::{catalog, manifest, Workload, RUN_SECONDS};
use pcc_benchmark::json::Json;
use pcc_benchmark::{compare, kernels, run};

struct Args {
    seed: u64,
    workload: Option<Workload>,
    seconds: f64,
    trace: Option<bool>,
    child: Option<String>,
    compare: Option<(String, String)>,
    manifest: bool,
    catalog: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: RUN_SECONDS as f64,
        trace: None,
        child: None,
        compare: None,
        manifest: false,
        catalog: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--workload" => {
                let v = value("a workload name")?;
                args.workload = Some(Workload::by_name(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; known: {}", names.join(", "))
                })?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                });
            }
            "--traced" => args.trace = Some(true),
            "--child" => args.child = Some(value("a mode")?),
            "--compare" => {
                args.compare = Some((value("two result files")?, value("two result files")?));
            }
            "--manifest" => args.manifest = true,
            "--catalog" => args.catalog = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.manifest {
        print!("{}", manifest().pretty());
        return Ok(true);
    }
    if args.catalog {
        print!("{}", catalog().pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let (text, pass) = compare::compare(&read_json(a)?, &read_json(b)?)?;
        print!("{text}");
        return Ok(pass);
    }
    if let Some(mode) = &args.child {
        let workload = args.workload.ok_or("--child needs --workload")?;
        match mode.as_str() {
            "setup" => run::child_setup(workload, args.seed),
            "rep" => run::child_rep(workload, args.seed, args.trace == Some(true)),
            other => return Err(format!("unknown child mode {other:?}")),
        }
        return Ok(true);
    }

    let chosen: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    let mut full = Vec::new();
    let mut last_line = None;
    for &workload in &chosen {
        let timed = match args.trace {
            Some(true) => None,
            _ => Some(run::timed_run(workload, args.seed, args.seconds)?),
        };
        let traced = match args.trace {
            Some(false) => None,
            _ => Some(run::traced_run(workload, args.seed, kernels::SAMPLE_SECS)?),
        };
        for r in timed.iter().chain(&traced) {
            ok &= r.tally.failed == 0;
        }
        if let Some(r) = &timed {
            run::print_timed(workload, r);
            last_line = Some(r.driver_line());
        }
        if let Some(r) = &traced {
            run::print_traced(workload, r);
            last_line = Some(r.driver_line());
        }
        if let (Some(timed), Some(traced)) = (timed, traced) {
            full.push(run::WorkloadResult {
                workload,
                timed,
                traced,
            });
        }
    }
    if !full.is_empty() {
        let dir = run::out_dir();
        let path = dir.join("result.json");
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    run::result_json(args.seed, args.seconds, &full).pretty(),
                )
            })
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    } else if let ([_], Some(line)) = (chosen.as_slice(), last_line) {
        // The driver's form: one workload, one kind of run; its object is
        // the last line of stdout and carries the verdict (`correct`), so
        // the exit code only says the measurement itself went through.
        println!("{line}");
        return Ok(true);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pcc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
