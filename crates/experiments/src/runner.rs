//! Parallel simulation job runner.
//!
//! Every figure/table of the paper is a grid of *independent* simulations
//! (scenario × protocol × seed); nothing couples two cells except the
//! table they end up in. This module fans a batch of such jobs out over a
//! fixed pool of `std::thread::scope` workers (no external dependencies —
//! the workspace is dependency-free by construction) and returns the
//! results **in submission order**, so a parallel run assembles tables
//! and CSV files byte-identical to the serial run: each job owns its
//! seed, and determinism is per-simulation, not cross-job.
//!
//! Usage pattern — a row × column figure hands [`run_grid`] its axes and
//! one cell function; anything else builds its own job list for
//! [`run_jobs`]:
//!
//! ```no_run
//! use pcc_experiments::{runner, Opts};
//! let opts = Opts::default();
//! let (losses, protocols) = ([0.0, 0.01], ["pcc", "cubic"]);
//! let grid = runner::run_grid(&opts, "demo", &losses, &protocols, |&loss, proto| {
//!     proto.len() as f64 * (1.0 - loss) // a simulation, really
//! });
//! assert_eq!((grid.len(), grid[0].len()), (2, 2));
//! ```
//!
//! A shared progress/ETA line is maintained on stderr while a batch runs
//! (only when stderr is a terminal, or when `PCC_PROGRESS=1` forces it),
//! so long sweeps are observable without polluting the table output on
//! stdout.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Opts;

/// One unit of work: owns everything it needs (notably its seed) and
/// returns its measurement when executed on some worker thread.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Box a closure into a [`Job`] (saves the `Box::new` noise at call
/// sites).
pub fn job<'a, T, F: FnOnce() -> T + Send + 'a>(f: F) -> Job<'a, T> {
    Box::new(f)
}

/// The number of workers `--jobs 0`/"auto" resolves to: one per available
/// core.
pub fn auto_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `jobs` on `opts.jobs` workers (`0` = auto, `1` = serial on the
/// calling thread) and return their results in submission order.
///
/// Workers pull jobs from a shared cursor, so a slow cell never blocks
/// the queue behind it; results land in per-slot cells, preserving
/// order regardless of completion order. Panics in a job propagate (the
/// scope joins all workers first), so a failing simulation fails the
/// experiment loudly instead of silently dropping a table row.
pub fn run_jobs<T: Send>(opts: &Opts, label: &str, jobs: Vec<Job<'_, T>>) -> Vec<T> {
    let total = jobs.len();
    let workers = match opts.jobs {
        0 => auto_jobs(),
        n => n,
    }
    .min(total.max(1));
    let progress = Progress::start(label, total);
    if workers <= 1 {
        let mut out = Vec::with_capacity(total);
        for j in jobs {
            out.push(j());
            progress.tick();
        }
        progress.finish();
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<Job<'_, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "propagation is the point: a poisoned slot means a sibling job panicked, and the runner's contract is to fail the whole experiment loudly, never emit a half-filled table"
                )]
                let job = jobs[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each slot is taken exactly once");
                let result = job();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "same panic-propagation contract as the job-slot lock above"
                )]
                {
                    *results[i].lock().expect("result slot poisoned") = Some(result);
                }
                progress.tick();
            });
        }
    });
    progress.finish();
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("scope joined every worker")
        })
        .collect()
}

/// Run `cell(row, col)` for every pair as one batch of independent jobs
/// (row-major submission order) and return `out[r][c]`.
pub fn run_grid<R: Sync, C: Sync, T: Send>(
    opts: &Opts,
    label: &str,
    rows: &[R],
    cols: &[C],
    cell: impl Fn(&R, &C) -> T + Sync,
) -> Vec<Vec<T>> {
    let cell = &cell;
    let jobs = rows
        .iter()
        .flat_map(|r| cols.iter().map(move |c| job(move || cell(r, c))))
        .collect();
    let mut flat = run_jobs(opts, label, jobs).into_iter();
    rows.iter()
        .map(|_| flat.by_ref().take(cols.len()).collect())
        .collect()
}

/// The shared progress/ETA line: `done/total` with elapsed time and a
/// remaining-time estimate, rewritten in place on stderr.
struct Progress {
    label: String,
    total: usize,
    done: AtomicUsize,
    started: Instant,
    enabled: bool,
}

impl Progress {
    fn start(label: &str, total: usize) -> Progress {
        let enabled = total > 1
            && (std::env::var_os("PCC_PROGRESS").is_some_and(|v| v != "0")
                || std::io::stderr().is_terminal());
        Progress {
            label: label.to_string(),
            total,
            done: AtomicUsize::new(0),
            #[expect(
                clippy::disallowed_methods,
                reason = "wall clock feeds the stderr progress/ETA line only; no simulated result ever reads it"
            )]
            started: Instant::now(),
            enabled,
        }
    }

    fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let eta = if done > 0 && done < self.total {
            elapsed / done as f64 * (self.total - done) as f64
        } else {
            0.0
        };
        // One atomic line per completion; concurrent writers may
        // interleave ticks, but each write is a single `\r`-anchored line
        // so the display self-heals on the next tick.
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[{}] {}/{} jobs  {:.1}s elapsed  ETA {:.1}s   ",
            self.label, done, self.total, elapsed, eta
        );
        let _ = err.flush();
    }

    fn finish(&self) {
        if !self.enabled {
            return;
        }
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{:76}\r", "");
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_with_jobs(jobs: usize) -> Opts {
        Opts {
            jobs,
            ..Opts::default()
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Job i sleeps inversely to its index, so completion order is the
        // reverse of submission order — results must still line up.
        let jobs: Vec<Job<'_, usize>> = (0..16)
            .map(|i| {
                job(move || {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
                    i
                })
            })
            .collect();
        let out = run_jobs(&opts_with_jobs(4), "test", jobs);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || -> Vec<Job<'_, u64>> {
            (0..10u64)
                .map(|i| job(move || i.wrapping_mul(0x9E37_79B9).rotate_left(7)))
                .collect()
        };
        let serial = run_jobs(&opts_with_jobs(1), "s", mk());
        let parallel = run_jobs(&opts_with_jobs(4), "p", mk());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_means_auto_and_empty_batch_is_fine() {
        assert!(auto_jobs() >= 1);
        let out = run_jobs(&opts_with_jobs(0), "empty", Vec::<Job<'_, u8>>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn grid_cells_land_at_their_row_and_column() {
        let (rows, cols) = ([1u32, 2, 3], [10u32, 20]);
        let grid = run_grid(&opts_with_jobs(3), "grid", &rows, &cols, |r, c| r * c);
        assert_eq!(grid, vec![vec![10, 20], vec![20, 40], vec![30, 60]]);
        let none = run_grid(&opts_with_jobs(1), "empty", &rows, &[], |r, c: &u32| r * c);
        assert_eq!(none, vec![Vec::<u32>::new(); 3]);
    }

    #[test]
    fn borrows_from_the_caller_are_allowed() {
        // Scoped threads: jobs may borrow locals (protocol tables, opts).
        let data = [10u32, 20, 30];
        let jobs: Vec<Job<'_, u32>> = data.iter().map(|v| job(move || v * 2)).collect();
        let out = run_jobs(&opts_with_jobs(2), "borrow", jobs);
        assert_eq!(out, vec![20, 40, 60]);
    }
}
