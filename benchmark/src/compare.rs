//! `--compare A.json B.json`: the regression gate between two result
//! files (A = parent, B = change), one verdict per workload × end-to-end
//! metric, using the bounds of the catalog (the ones `BENCHMARK.json`
//! carries).
//!
//! Run `k` of a metric is the same workload instance in both files, so
//! the verdict rests on the per-instance changes `(B_k - A_k) / A_k`:
//!
//! * `ok` — their median is not worse than the bound.
//! * `regressed` — it is.
//! * `unresolved` — their interquartile distance is wider than the bound
//!   and they disagree in sign (some instances better, some worse): the
//!   data cannot tell.
//!
//! Simulated results and exact counts are compared for equality whenever
//! both files processed the same number of events: a change meant only to
//! speed the simulator up must leave every simulated statistic identical.
//! Any regression, any inequality there, and any rise in `failed_ops_pct`
//! makes the comparison fail.

use crate::catalog::{Better, Kind, Metric, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::run::Summary;

/// Verdict on one workload × metric pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Spread wider than the bound, runs interleave.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs of one metric, as stored in a result file. Only `runs`
/// is read; median and quartiles are recomputed from it.
fn summary_from_json(j: &Json) -> Option<Summary> {
    let runs: Vec<f64> = j
        .get("runs")?
        .items()?
        .iter()
        .map(Json::num)
        .collect::<Option<_>>()?;
    (!runs.is_empty()).then(|| Summary::of(runs))
}

/// Judge one end-to-end metric. Run `k` of either file is the same
/// workload instance, so the two sides are compared pair by pair: what
/// decides is how much worse each instance got, not how far apart the
/// instances of one side are from each other.
pub fn judge(metric: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    // Positive = B is worse.
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse: Vec<f64> = a
        .runs
        .iter()
        .zip(&b.runs)
        .map(|(&a, &b)| sign * (b - a) / a.abs().max(f64::MIN_POSITIVE))
        .collect();
    let worse = Summary::of(worse);
    let mixed = worse.min < 0.0 && worse.runs.iter().any(|&d| d > 0.0);
    if worse.q3 - worse.q1 > bound && mixed {
        Verdict::Unresolved
    } else if worse.median > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compare two parsed result files. Returns the report text and whether
/// the comparison passed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    fn workloads(j: &Json) -> Result<&[(String, Json)], String> {
        j.get("workloads")
            .and_then(Json::fields)
            .ok_or_else(|| "not a benchmark result file: no `workloads` object".to_string())
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut text = String::new();
    let mut pass = true;
    let mut line = |s: String| {
        text.push_str(&s);
        text.push('\n');
    };
    for (name, ra) in wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            line(format!("{name}: missing from the second file"));
            pass = false;
            continue;
        };
        for m in END_TO_END {
            let side = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(summary_from_json)
            };
            let (Some(sa), Some(sb)) = (side(ra), side(rb)) else {
                line(format!("{name} {}: missing", m.name));
                pass = false;
                continue;
            };
            let verdict = judge(m, &sa, &sb);
            pass &= verdict == Verdict::Ok;
            line(format!(
                "{name:<12} {:<18} {:<10} {:>14.6} -> {:>14.6} {:<6} ({:+.2}%, bound {:.0}%, {} is better)",
                m.name,
                verdict.as_str(),
                sa.median,
                sb.median,
                m.unit,
                (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                m.better.as_str(),
            ));
        }
        let num =
            |r: &Json, path: &[&str]| path.iter().try_fold(r, |j, k| j.get(k)).and_then(Json::num);
        // Same event count: nothing simulated may differ.
        let events = |r: &Json| num(r, &["exact", "events"]);
        if events(ra).is_some() && events(ra) == events(rb) {
            let mut unequal = Vec::new();
            if ra.get("exact") != rb.get("exact") {
                unequal.push("exact fingerprint".to_string());
            }
            for m in PER_LAYER
                .iter()
                .filter(|m| matches!(m.kind, Kind::Sim | Kind::Count))
            {
                // `failed_ops_pct` has its own rule below; counts made at
                // the traced boundary are still exact.
                if m.name == "failed_ops_pct" {
                    continue;
                }
                let (va, vb) = (
                    num(ra, &["per_layer", m.name]),
                    num(rb, &["per_layer", m.name]),
                );
                if va != vb {
                    unequal.push(format!("{} {va:?} -> {vb:?}", m.name));
                }
            }
            // End-to-end simulated results are medians over instances, and
            // how many instances fit in a run depends on the box: compare
            // instance by instance, as far as both files go.
            for m in END_TO_END.iter().filter(|m| m.kind == Kind::Sim) {
                let runs = |r: &Json| {
                    r.get("end_to_end")
                        .and_then(|e| e.get(m.name))
                        .and_then(summary_from_json)
                        .map_or(Vec::new(), |s| s.runs)
                };
                if let Some((i, (va, vb))) = runs(ra)
                    .into_iter()
                    .zip(runs(rb))
                    .enumerate()
                    .find(|(_, (va, vb))| va != vb)
                {
                    unequal.push(format!("{} instance {i}: {va} -> {vb}", m.name));
                }
            }
            if unequal.is_empty() {
                line(format!(
                    "{name:<12} simulated results and exact counts: identical"
                ));
            } else {
                pass = false;
                for u in unequal {
                    line(format!("{name:<12} CHANGED with equal event count: {u}"));
                }
            }
        } else {
            line(format!(
                "{name:<12} event count changed ({:?} -> {:?}): simulated results not comparable exactly",
                events(ra),
                events(rb)
            ));
        }
        let failed = |r: &Json| num(r, &["failed_ops_pct"]).unwrap_or(f64::INFINITY);
        if failed(rb) > failed(ra) {
            pass = false;
            line(format!(
                "{name:<12} failed_ops_pct ROSE {} -> {}",
                failed(ra),
                failed(rb)
            ));
        }
    }
    for (name, _) in wb {
        if !wa.iter().any(|(n, _)| n == name) {
            line(format!("{name}: only in the second file (not compared)"));
        }
    }
    line(if pass {
        "PASS: every pairing ok".to_string()
    } else {
        "FAIL".to_string()
    });
    Ok((text, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(runs: &[f64]) -> Summary {
        Summary::of(runs.to_vec())
    }

    fn wall() -> &'static Metric {
        END_TO_END
            .iter()
            .find(|m| m.name == "wall_s")
            .expect("wall_s")
    }

    #[test]
    fn verdicts() {
        assert_eq!(wall().bound, Some(0.25), "the cases below assume it");
        let base = sample(&[4.00, 4.02, 4.05, 4.01]);
        assert_eq!(
            judge(wall(), &base, &sample(&[4.6, 4.62, 4.58, 4.7])),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall(), &base, &sample(&[5.2, 5.25, 5.15, 5.3])),
            Verdict::Regressed
        );
        // A faster change is never a regression.
        assert_eq!(
            judge(wall(), &base, &sample(&[2.0, 2.1, 2.05, 2.0])),
            Verdict::Ok
        );
        // Wide, overlapping runs: the data cannot tell.
        assert_eq!(
            judge(wall(), &base, &sample(&[3.9, 6.0, 4.0, 6.2])),
            Verdict::Unresolved
        );
        // Wide but disjoint and worse: still a regression.
        assert_eq!(
            judge(wall(), &base, &sample(&[6.0, 8.0, 6.1, 8.2])),
            Verdict::Regressed
        );
        // Direction: goodput falling is worse.
        let goodput = END_TO_END
            .iter()
            .find(|m| m.name == "sim_goodput_mbps")
            .expect("goodput");
        assert_eq!(
            judge(goodput, &sample(&[700.0; 3]), &sample(&[600.0; 3])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(goodput, &sample(&[700.0; 3]), &sample(&[800.0; 3])),
            Verdict::Ok
        );
    }
}
