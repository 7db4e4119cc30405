//! Production-traffic workload engine: flow churn at scale.
//!
//! Everything the paper's steady-state figures leave out: real traffic is
//! not four infinite flows, it is thousands of finite flows arriving,
//! transferring a heavy-tailed number of bytes, and leaving. This module
//! generates that workload deterministically and drives it through the
//! simulator's churn rails ([`pcc_simnet::sim::ChurnDriver`]):
//!
//! * [`SizeCdf`] — a flow-size distribution loaded from a plain-text
//!   `size_cdf` file (bundled `web-search` and `cache-follower` profiles,
//!   parsed by the same line reader as `LinkTrace`,
//!   [`pcc_simnet::text`]), sampled via
//!   inverse-CDF with linear interpolation on a derived [`SimRng`] stream.
//! * [`Arrival`] — the arrival process: open-loop Poisson (the classic
//!   M/G model) or deterministic intervals.
//! * [`run_churn`] — wires both into a shared-bottleneck dumbbell and runs
//!   an open-loop churn experiment: flows are admitted lazily one arrival
//!   ahead, recycled through the simulator's slot arena, and harvested
//!   into a [`ChurnReport`] of FCT percentiles by flow-size bucket.
//!
//! ## `size_cdf` file format
//!
//! Plain text, one CDF breakpoint per line:
//!
//! ```text
//! # pcc-scenarios flow-size CDF v1
//! # columns: bytes cum_prob
//! 1000     0.35
//! 10000    0.85
//! 1000000  1.0
//! ```
//!
//! `#` starts a comment; blank lines are ignored. Byte sizes must be
//! strictly increasing and positive; cumulative probabilities must be in
//! `(0, 1]`, non-decreasing, and end at exactly `1.0`. The first
//! breakpoint carries a point mass (`P(size ≤ b₀) = p₀` maps the whole
//! mass to `b₀`); between breakpoints the CDF is linearly interpolated.
//!
//! ## Determinism
//!
//! Arrival gaps and flow sizes are drawn from two streams derived off the
//! scenario seed (`derive` is consumption-independent), so the workload
//! sequence is a pure function of `(seed, arrival, cdf, flows)` — the
//! same flows arrive at the same instants with the same sizes regardless
//! of what the transport layer does, and the whole report is bit-identical
//! at any parallelism.

use std::cell::RefCell;
use std::rc::Rc;

use pcc_simnet::prelude::*;
use pcc_simnet::text::{self, lines};

use crate::protocol::Protocol;
use crate::scenario::{Arrivals, Churn, Flow, Scenario};
use crate::setup::LinkSetup;

/// RNG stream tag for arrival gaps ("WLAR"): disjoint from the engine's
/// per-slot, per-link, and per-churn-arrival derivations.
const ARRIVAL_STREAM: u64 = 0x574C_4152_0000_0000;
/// RNG stream tag for flow sizes ("WLSZ").
const SIZE_STREAM: u64 = 0x574C_535A_0000_0000;

const SIZE_CDF: &str = "size_cdf";

const BUILTIN: &[(&str, &str)] = &[
    (
        "web-search",
        include_str!("../workloads/web-search.size_cdf"),
    ),
    (
        "cache-follower",
        include_str!("../workloads/cache-follower.size_cdf"),
    ),
];

/// Names of the bundled flow-size distributions, in presentation order.
pub fn builtin_names() -> Vec<&'static str> {
    BUILTIN.iter().map(|(n, _)| *n).collect()
}

/// A named flow-size distribution: an empirical CDF over flow sizes in
/// bytes, sampled by inverse transform with linear interpolation.
#[derive(Clone, Debug, PartialEq)]
pub struct SizeCdf {
    name: String,
    points: Vec<(u64, f64)>,
}

impl SizeCdf {
    /// Parse the plain-text `size_cdf` format (see the module docs).
    /// Returns the first offending line on failure, never panics.
    pub fn parse(name: &str, text: &str) -> Result<SizeCdf, TextError> {
        let mut points: Vec<(u64, f64)> = Vec::new();
        let mut last_line = 0;
        for (n, cols) in lines(text) {
            let err = |reason: &str| Err(text::err(SIZE_CDF, n, reason));
            let [bytes_tok, prob_tok] = cols[..] else {
                return err(if cols.len() < 2 {
                    "expected two columns: `bytes cum_prob`"
                } else {
                    "too many columns (expected `bytes cum_prob`)"
                });
            };
            let Ok(bytes) = bytes_tok.parse::<u64>() else {
                return err(&format!("bad byte count `{bytes_tok}`"));
            };
            let prob = text::num(SIZE_CDF, n, prob_tok, "probability")?;
            if bytes == 0 {
                return err("flow sizes must be positive");
            }
            if prob <= 0.0 || prob > 1.0 {
                return err("cum_prob must be in (0, 1]");
            }
            if let Some(&(pb, pp)) = points.last() {
                if bytes <= pb {
                    return err("byte sizes must be strictly increasing");
                }
                if prob < pp {
                    return err("cum_prob must be non-decreasing");
                }
            }
            points.push((bytes, prob));
            last_line = n;
        }
        match points.last() {
            None => Err(text::err(SIZE_CDF, 0, "distribution has no breakpoints")),
            Some(&(_, p)) if p != 1.0 => Err(text::err(
                SIZE_CDF,
                last_line,
                "last cum_prob must be exactly 1.0",
            )),
            Some(_) => Ok(SizeCdf {
                name: name.to_string(),
                points,
            }),
        }
    }

    /// Load a bundled distribution by name (see [`builtin_names`]).
    pub fn builtin(name: &str) -> Option<SizeCdf> {
        let (_, text) = BUILTIN.iter().find(|(n, _)| *n == name)?;
        Some(SizeCdf::parse(name, text).expect("bundled size CDFs parse"))
    }

    /// The distribution's name (file stem or builtin id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The CDF breakpoints `(bytes, cum_prob)`, size-ordered.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Render back to the `size_cdf` text format (round-trips through
    /// [`SizeCdf::parse`] exactly: Rust's float `Display` is shortest
    /// round-trip).
    pub fn render(&self) -> String {
        let mut out = String::from("# pcc-scenarios flow-size CDF v1\n# columns: bytes cum_prob\n");
        for &(bytes, prob) in &self.points {
            out.push_str(&format!("{bytes} {prob}\n"));
        }
        out
    }

    /// The quantile function (inverse CDF) at `u ∈ [0, 1)`: the first
    /// breakpoint carries a point mass, segments between breakpoints are
    /// linearly interpolated, and zero-mass (flat) segments map to their
    /// right endpoint.
    pub fn quantile(&self, u: f64) -> u64 {
        let pts = &self.points;
        if u <= pts[0].1 {
            return pts[0].0;
        }
        for w in pts.windows(2) {
            let (b0, p0) = w[0];
            let (b1, p1) = w[1];
            if u <= p1 {
                if p1 <= p0 {
                    return b1;
                }
                let f = (u - p0) / (p1 - p0);
                return b0 + ((b1 - b0) as f64 * f).round() as u64;
            }
        }
        pts[pts.len() - 1].0
    }

    /// Draw one flow size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        self.quantile(rng.uniform())
    }

    /// Mean flow size implied by the interpolated CDF: the first
    /// breakpoint's point mass plus a trapezoid per segment.
    pub fn mean_bytes(&self) -> f64 {
        let mut mean = self.points[0].1 * self.points[0].0 as f64;
        for w in self.points.windows(2) {
            let (b0, p0) = w[0];
            let (b1, p1) = w[1];
            mean += (p1 - p0) * (b0 as f64 + b1 as f64) / 2.0;
        }
        mean
    }

    /// Smallest possible sampled size.
    pub fn min_bytes(&self) -> u64 {
        self.points[0].0
    }

    /// Largest possible sampled size.
    pub fn max_bytes(&self) -> u64 {
        self.points[self.points.len() - 1].0
    }
}

/// The flow arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Open-loop Poisson arrivals at `rate_hz` flows per second
    /// (exponential inter-arrival gaps).
    Poisson {
        /// Mean arrival rate, flows per second.
        rate_hz: f64,
    },
    /// One arrival every `interval`, exactly.
    Deterministic {
        /// The fixed inter-arrival gap.
        interval: SimDuration,
    },
}

impl Arrival {
    /// Poisson arrivals at `rate_hz` flows per second.
    pub fn poisson(rate_hz: f64) -> Arrival {
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        Arrival::Poisson { rate_hz }
    }

    /// Poisson arrivals sized to offer `load` (fraction of `rate_bps`)
    /// given a mean flow size: `λ = load·C / (8·mean_bytes)`.
    pub fn poisson_for_load(load: f64, rate_bps: f64, mean_flow_bytes: f64) -> Arrival {
        assert!(load > 0.0 && rate_bps > 0.0 && mean_flow_bytes > 0.0);
        Arrival::poisson(load * rate_bps / (8.0 * mean_flow_bytes))
    }

    /// Deterministic arrivals, one every `interval`.
    pub fn every(interval: SimDuration) -> Arrival {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        Arrival::Deterministic { interval }
    }

    /// Draw the next inter-arrival gap in seconds.
    pub fn gap_secs(&self, rng: &mut SimRng) -> f64 {
        match self {
            Arrival::Poisson { rate_hz } => rng.exponential(1.0 / rate_hz),
            Arrival::Deterministic { interval } => interval.as_secs_f64(),
        }
    }

    /// Mean inter-arrival gap in seconds.
    pub fn mean_gap_secs(&self) -> f64 {
        match self {
            Arrival::Poisson { rate_hz } => 1.0 / rate_hz,
            Arrival::Deterministic { interval } => interval.as_secs_f64(),
        }
    }
}

/// FCT distribution summary of a churn run (a Fig. 15 cell is one).
#[derive(Clone, Debug, Default)]
pub struct FctSummary {
    /// All completion times, seconds, in harvest order.
    pub fcts: Vec<f64>,
    /// Flows that did not complete: the harvested ones that stalled and,
    /// in [`ChurnReport::overall`] only, the flows still live at the
    /// horizon (a live flow's size is never harvested, so no bucket
    /// counts it).
    pub incomplete: usize,
}

impl FctSummary {
    /// Number of completed flows summarized.
    pub fn count(&self) -> usize {
        self.fcts.len()
    }

    /// Mean FCT in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        mean(&self.fcts) * 1000.0
    }

    /// Median (p50) FCT in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.fcts, 50.0) * 1000.0
    }

    /// 95th-percentile FCT in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        percentile(&self.fcts, 95.0) * 1000.0
    }

    /// 99th-percentile FCT in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        percentile(&self.fcts, 99.0) * 1000.0
    }

    /// 99.9th-percentile FCT in milliseconds.
    pub fn p999_ms(&self) -> f64 {
        percentile(&self.fcts, 99.9) * 1000.0
    }
}

/// Flow-size buckets the churn report groups FCTs by: `(label, max
/// bytes inclusive)`.
pub const SIZE_BUCKETS: &[(&str, u64)] = &[
    ("<=10KB", 10_000),
    ("<=100KB", 100_000),
    ("<=1MB", 1_000_000),
    (">1MB", u64::MAX),
];

/// One harvested churn flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSample {
    /// The flow's size in bytes (the driver's churn tag).
    pub bytes: u64,
    /// Completion time in seconds, `None` if the flow stalled out.
    pub fct: Option<f64>,
    /// Unique bytes the receiver accepted.
    pub goodput: u64,
}

/// Per-size-bucket FCT summary over harvested flows only: a flow still
/// live at the horizon is never harvested, so its size, and with it its
/// bucket, is unknown ([`ChurnReport::overall`] counts it as incomplete).
#[derive(Clone, Debug)]
pub struct ChurnBucket {
    /// Bucket label from [`SIZE_BUCKETS`].
    pub label: &'static str,
    /// Harvested flows whose size fell in this bucket.
    pub flows: usize,
    /// FCT summary over the bucket's completed flows.
    pub fct: FctSummary,
}

/// Everything a churn run produces.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Per-flow harvests, in retirement order.
    pub samples: Vec<ChurnSample>,
    /// Engine-level churn accounting (conservation, recycling, peaks).
    pub churn: ChurnStats,
    /// FCT summary over all completed flows.
    pub overall: FctSummary,
    /// FCT summaries grouped by [`SIZE_BUCKETS`].
    pub buckets: Vec<ChurnBucket>,
    /// Aggregate goodput over the run, Mbit/s.
    pub goodput_mbps: f64,
    /// Offered arrival rate realized by the generator, flows/sec.
    pub arrival_rate_hz: f64,
    /// Completion rate over the full horizon, flows/sec.
    pub completion_rate_hz: f64,
    /// Simulated horizon, seconds.
    pub horizon_secs: f64,
    /// Total simulator events processed.
    pub events_processed: u64,
}

impl ChurnReport {
    /// Order-sensitive fingerprint over every harvested flow and the
    /// engine counters — two runs are behaviorally identical iff their
    /// fingerprints match (FNV-1a over the sample stream).
    pub fn fingerprint(&self) -> u64 {
        [self.churn.stale_timers, self.events_processed]
            .into_iter()
            .fold(self.flows_fingerprint(), fnv1a)
    }

    /// [`ChurnReport::fingerprint`] without the two counts a change to the
    /// engine's timers alone moves: the dead timers of retired flows and
    /// the event count.
    pub fn flows_fingerprint(&self) -> u64 {
        let samples = self
            .samples
            .iter()
            .flat_map(|s| [s.bytes, s.fct.map_or(u64::MAX, f64::to_bits), s.goodput]);
        let counters = [
            self.churn.arrivals,
            self.churn.completions,
            self.churn.stalls,
            self.churn.live_at_end,
            self.churn.peak_live,
            self.churn.recycled,
            self.churn.stale_packets,
        ];
        samples.chain(counters).fold(0xcbf2_9ce4_8422_2325, fnv1a)
    }
}

/// One FNV-1a step.
fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Configuration for an open-loop churn run.
pub struct ChurnConfig {
    /// The protocol driving every flow's sender.
    pub protocol: Protocol,
    /// The shared bottleneck path.
    pub link: LinkSetup,
    /// Flow-size distribution.
    pub cdf: SizeCdf,
    /// Arrival process.
    pub arrival: Arrival,
    /// Total flows to admit.
    pub flows: u64,
    /// Scenario seed (drives arrivals, sizes, and the simulator).
    pub seed: u64,
    /// Optional fault script injected into the run — churn under failures.
    pub fault_script: Option<FaultScript>,
}

/// Extra horizon after the last arrival for in-flight flows to drain.
const DRAIN: SimDuration = SimDuration::from_secs(10);
/// Dead-time budget per sender: a flow making no progress for this long
/// aborts as a typed stall instead of wedging the run.
const DEAD_TIME_BUDGET: SimDuration = SimDuration::from_secs(10);
/// Stats sampling interval of a churn run.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);

impl ChurnConfig {
    /// A churn run with no faults. Every run drains 10 s past its last
    /// arrival, gives each sender a 10 s dead-time budget and samples
    /// every second.
    pub fn new(
        protocol: Protocol,
        link: LinkSetup,
        cdf: SizeCdf,
        arrival: Arrival,
        flows: u64,
        seed: u64,
    ) -> ChurnConfig {
        ChurnConfig {
            protocol,
            link,
            cdf,
            arrival,
            flows,
            seed,
            fault_script: None,
        }
    }

    /// Inject a fault script in the [`FaultScript::parse`] plain-text
    /// format (see [`crate::chaos`] for examples). Malformed text is a
    /// line-attributed [`TextError`] here, where it enters, not a panic
    /// when the run starts.
    pub fn with_fault_script(mut self, script: &str) -> Result<ChurnConfig, TextError> {
        self.fault_script = Some(FaultScript::parse(script)?);
        Ok(self)
    }
}

/// The benchmark churn regime: `flows` cache-follower flows at 80% load
/// on a 1 Gbps / 10 ms dumbbell under CUBIC. `flows = 100_000` is ~29 s of
/// simulated time: O(100k) flows through a handful of arena slots.
pub fn churn_benchmark_config(flows: u64, seed: u64) -> ChurnConfig {
    let cdf = SizeCdf::builtin("cache-follower").expect("bundled CDF");
    let rate_bps = 1e9;
    let arrival = Arrival::poisson_for_load(0.8, rate_bps, cdf.mean_bytes());
    let link = LinkSetup::new(rate_bps, SimDuration::from_millis(10), 1_250_000);
    ChurnConfig::new(Protocol::Tcp("cubic"), link, cdf, arrival, flows, seed)
}

/// The workload generator: lazy one-arrival look-ahead, sizes and gaps from
/// derived RNG streams, harvests into a shared collector.
struct WorkloadArrivals {
    arr_rng: SimRng,
    size_rng: SimRng,
    arrival: Arrival,
    cdf: SizeCdf,
    remaining: u64,
    clock_secs: f64,
    samples: Rc<RefCell<Vec<ChurnSample>>>,
}

impl Arrivals for WorkloadArrivals {
    fn next_arrival(&mut self) -> Option<(SimTime, u64)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock_secs += self.arrival.gap_secs(&mut self.arr_rng);
        let bytes = self.cdf.sample(&mut self.size_rng);
        Some((SimTime::from_secs_f64(self.clock_secs), bytes))
    }

    fn on_flow_complete(&mut self, bytes: u64, stats: &FlowStats) {
        self.samples.borrow_mut().push(ChurnSample {
            bytes,
            fct: stats.fct().map(|d| d.as_secs_f64()),
            goodput: stats.goodput_bytes,
        });
    }
}

/// Replay the arrival-gap stream to find when the last flow arrives —
/// `derive` is consumption-independent, so this probe stream is identical
/// to the one the driver will consume.
fn last_arrival_secs(cfg: &ChurnConfig) -> f64 {
    let mut probe = SimRng::new(cfg.seed).derive(ARRIVAL_STREAM);
    let mut t = 0.0;
    for _ in 0..cfg.flows {
        t += cfg.arrival.gap_secs(&mut probe);
    }
    t
}

/// Run an open-loop churn experiment: admit `cfg.flows` flows over a
/// shared dumbbell bottleneck through the simulator's recycling slot
/// arena, then summarize FCTs by size bucket.
pub fn run_churn(cfg: ChurnConfig) -> ChurnReport {
    let last_arrival = last_arrival_secs(&cfg);
    let horizon = SimTime::from_secs_f64(last_arrival) + DRAIN;

    // One shared path for every flow: the dumbbell with a single receiver
    // host, not one per flow.
    let setup = cfg.link;
    let mut db = Dumbbell::graph(setup.bottleneck());
    let recv = db.add_receiver(setup.rtt, setup.ack_loss);
    let samples: Rc<RefCell<Vec<ChurnSample>>> = Rc::new(RefCell::new(Vec::new()));
    let master = SimRng::new(cfg.seed);
    let churn = Churn {
        flow: Flow {
            dead_time_budget: Some(DEAD_TIME_BUDGET),
            ..Flow::new(db.source(), recv, cfg.protocol)
        },
        arrivals: Box::new(WorkloadArrivals {
            arr_rng: master.derive(ARRIVAL_STREAM),
            size_rng: master.derive(SIZE_STREAM),
            arrival: cfg.arrival,
            cdf: cfg.cdf,
            remaining: cfg.flows,
            clock_secs: 0.0,
            samples: Rc::clone(&samples),
        }),
    };
    let report = Scenario {
        faults: cfg.fault_script,
        churn: Some(churn),
        sample_interval: SAMPLE_INTERVAL,
        ..Scenario::new(db.into_topology(), cfg.seed)
    }
    .run(horizon)
    .report;

    let samples = Rc::try_unwrap(samples)
        .expect("driver dropped with the simulation")
        .into_inner();
    summarize(samples, &report, last_arrival, horizon)
}

fn summarize(
    samples: Vec<ChurnSample>,
    report: &SimReport,
    last_arrival: f64,
    horizon: SimTime,
) -> ChurnReport {
    let mut overall = FctSummary::default();
    let mut buckets: Vec<ChurnBucket> = SIZE_BUCKETS
        .iter()
        .map(|&(label, _)| ChurnBucket {
            label,
            flows: 0,
            fct: FctSummary::default(),
        })
        .collect();
    let mut goodput_bytes = 0u64;
    for s in &samples {
        goodput_bytes += s.goodput;
        let b = SIZE_BUCKETS
            .iter()
            .position(|&(_, max)| s.bytes <= max)
            .expect("buckets end at u64::MAX");
        buckets[b].flows += 1;
        match s.fct {
            Some(fct) => {
                overall.fcts.push(fct);
                buckets[b].fct.fcts.push(fct);
            }
            None => {
                overall.incomplete += 1;
                buckets[b].fct.incomplete += 1;
            }
        }
    }
    let churn = report.churn;
    overall.incomplete += churn.live_at_end as usize;
    let horizon_secs = horizon.as_secs_f64();
    ChurnReport {
        overall,
        buckets,
        goodput_mbps: goodput_bytes as f64 * 8.0 / horizon_secs / 1e6,
        arrival_rate_hz: if last_arrival > 0.0 {
            churn.arrivals as f64 / last_arrival
        } else {
            0.0
        },
        completion_rate_hz: churn.completions as f64 / horizon_secs,
        horizon_secs,
        events_processed: report.events_processed,
        churn,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_parse_and_report_sane_means() {
        for name in builtin_names() {
            let cdf = SizeCdf::builtin(name).expect("listed builtin loads");
            assert_eq!(cdf.name(), name);
            assert!(cdf.points().len() >= 3);
            let mean = cdf.mean_bytes();
            assert!(
                mean > cdf.min_bytes() as f64 && mean < cdf.max_bytes() as f64,
                "{name}: mean {mean} inside support"
            );
        }
        // The documented shapes: cache-follower ~24 KB, web-search ~1.7 MB.
        let cache = SizeCdf::builtin("cache-follower").unwrap().mean_bytes();
        assert!((20_000.0..30_000.0).contains(&cache), "{cache}");
        let web = SizeCdf::builtin("web-search").unwrap().mean_bytes();
        assert!((1.2e6..2.2e6).contains(&web), "{web}");
    }

    #[test]
    fn builtins_round_trip_through_render() {
        for name in builtin_names() {
            let cdf = SizeCdf::builtin(name).unwrap();
            let back = SizeCdf::parse(name, &cdf.render()).expect("rendered text parses");
            assert_eq!(cdf, back, "{name} round-trips");
        }
    }

    #[test]
    fn parse_errors_are_line_attributed() {
        let cases: &[(&str, usize)] = &[
            ("", 0),                            // empty file
            ("# only comments\n", 0),           // no breakpoints
            ("1000\n", 1),                      // missing column
            ("1000 0.5 extra\n", 1),            // too many columns
            ("abc 0.5\n", 1),                   // bad byte count
            ("1000 xyz\n", 1),                  // bad probability
            ("0 0.5\n", 1),                     // zero size
            ("1000 0.0\n", 1),                  // prob out of range
            ("1000 1.5\n", 1),                  // prob out of range
            ("1000 nan\n", 1),                  // non-finite prob
            ("1000 0.5\n500 1.0\n", 2),         // sizes not increasing
            ("1000 0.5\n2000 0.4\n", 2),        // probs decreasing
            ("1000 0.5\n2000 0.9\n", 2),        // does not end at 1.0
            ("# c\n1000 0.5\n\n2000 0.9\n", 4), // line numbers count raw lines
        ];
        for (text, line) in cases {
            let e = SizeCdf::parse("junk", text).expect_err("must fail");
            assert_eq!(e.line, *line, "input {text:?} → {e}");
        }
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let cdf = SizeCdf::builtin("web-search").unwrap();
        let mut last = 0;
        for i in 0..=1000 {
            let u = i as f64 / 1000.0 * 0.999_999;
            let q = cdf.quantile(u);
            assert!(q >= last, "quantile monotone at u={u}");
            assert!(q >= cdf.min_bytes() && q <= cdf.max_bytes());
            last = q;
        }
    }

    #[test]
    fn poisson_interarrival_mean_within_ci() {
        // 20k exponential gaps at λ = 250/s: the sample mean lands within
        // 3σ/√n ≈ 2.1% of 1/λ for a correct generator at this fixed seed.
        let arrival = Arrival::poisson(250.0);
        let mut rng = SimRng::new(7).derive(ARRIVAL_STREAM);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| arrival.gap_secs(&mut rng)).sum();
        let m = sum / n as f64;
        let want = arrival.mean_gap_secs();
        assert!(
            (m - want).abs() / want < 0.03,
            "sample mean {m} vs 1/λ {want}"
        );
    }

    #[test]
    fn sampled_sizes_reproduce_cdf_at_breakpoints() {
        // KS-style check: with interpolated inverse-CDF sampling the
        // empirical CDF at every breakpoint must match the spec within
        // sampling noise (20k draws → tolerance 0.02 ≫ 3·√(p(1−p)/n)).
        for name in builtin_names() {
            let cdf = SizeCdf::builtin(name).unwrap();
            let mut rng = SimRng::new(11).derive(SIZE_STREAM);
            let n = 20_000;
            let draws: Vec<u64> = (0..n).map(|_| cdf.sample(&mut rng)).collect();
            for &(bytes, prob) in cdf.points() {
                let emp = draws.iter().filter(|&&d| d <= bytes).count() as f64 / n as f64;
                assert!(
                    (emp - prob).abs() < 0.02,
                    "{name} @ {bytes}: empirical {emp} vs {prob}"
                );
            }
        }
    }

    #[test]
    fn deterministic_arrivals_are_exact() {
        let arrival = Arrival::every(SimDuration::from_millis(10));
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(arrival.gap_secs(&mut rng), 0.010);
        }
    }

    #[test]
    fn churn_run_conserves_and_recycles() {
        let cdf = SizeCdf::builtin("cache-follower").unwrap();
        let link = LinkSetup::new(100e6, SimDuration::from_millis(20), 250_000);
        let arrival = Arrival::poisson_for_load(0.5, 100e6, cdf.mean_bytes());
        let cfg = ChurnConfig::new(Protocol::Tcp("cubic"), link, cdf, arrival, 400, 42);
        let r = run_churn(cfg);
        let c = r.churn;
        assert_eq!(c.arrivals, 400);
        assert_eq!(
            c.arrivals,
            c.completions + c.stalls + c.live_at_end,
            "conservation: {c:?}"
        );
        assert_eq!(c.completions, 400, "all flows drain: {c:?}");
        // Allocation-free steady state: a few dozen live slots serve 400
        // flows, so the arena recycles heavily.
        assert!(c.peak_live < 100, "peak live slots {} ≪ 400", c.peak_live);
        assert!(c.recycled > 300, "slots recycled: {}", c.recycled);
        assert_eq!(r.samples.len(), 400);
        assert_eq!(r.overall.count(), 400);
        assert!(r.overall.p50_ms() > 0.0);
        assert!(r.overall.p999_ms() >= r.overall.p50_ms());
        // Every bucket flow count sums back to the total.
        let n: usize = r.buckets.iter().map(|b| b.flows).sum();
        assert_eq!(n, 400);
    }

    #[test]
    fn flows_live_at_the_horizon_count_as_incomplete() {
        // Half the flows are 10 kB and half 50 MB: a 10 Mbps bottleneck
        // drains none of the big ones in the 10 s after the last arrival.
        let cdf = SizeCdf::parse("bimodal", "10000 0.5\n50000000 0.5\n50000001 1\n").unwrap();
        let link = LinkSetup::new(10e6, SimDuration::from_millis(20), 25_000);
        let arrival = Arrival::every(SimDuration::from_millis(100));
        let cfg = ChurnConfig::new(Protocol::Tcp("cubic"), link, cdf, arrival, 20, 7);
        let r = run_churn(cfg);
        let c = r.churn;
        assert!(c.live_at_end > 0 && r.overall.count() > 0, "{c:?}");
        assert_eq!(
            r.overall.count() + r.overall.incomplete,
            c.arrivals as usize,
            "every arrival is a completion or incomplete: {c:?}"
        );
        // The buckets hold harvested flows only.
        let bucketed: usize = r.buckets.iter().map(|b| b.flows).sum();
        assert_eq!(bucketed as u64, c.completions + c.stalls, "{c:?}");
    }

    #[test]
    fn malformed_fault_script_is_a_line_attributed_error() {
        // Caller text is parsed where it enters the config: a bad script
        // is a typed error naming its line, never a panic inside the run.
        let cfg = churn_benchmark_config(10, 1);
        let Err(e) = cfg.with_fault_script("1 down 0 0.5\n2 explode 0") else {
            panic!("`explode` is not a fault event");
        };
        assert_eq!(e.line, 2);
        assert!(e.to_string().starts_with("fault script line 2:"), "{e}");
        let ok = churn_benchmark_config(10, 1).with_fault_script("1 down 0 0.5");
        assert_eq!(
            ok.ok().and_then(|c| c.fault_script).map(|s| s.len()),
            Some(2)
        );
    }

    #[test]
    fn churn_report_is_reproducible() {
        let mk = || {
            let cdf = SizeCdf::builtin("web-search").unwrap();
            let link = LinkSetup::new(200e6, SimDuration::from_millis(10), 250_000);
            let arrival = Arrival::poisson_for_load(0.4, 200e6, cdf.mean_bytes());
            ChurnConfig::new(Protocol::Tcp("cubic"), link, cdf, arrival, 60, 9)
        };
        let a = run_churn(mk());
        let b = run_churn(mk());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.events_processed, b.events_processed);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pcc_simnet::text::TextError;
    use proptest::prelude::*;

    /// Per-format column vocabularies, mixing legal values with ones the
    /// format rejects. Entry `c` lists what column `c + 1` draws from;
    /// column 0 is a running count (a time, or a byte count).
    const SHAPES: [&[&str]; 3] = [
        // trace: rate_mbps delay_ms loss
        &["1 10 0.5 24 nan", "0 5 30 12 -1", "0 0.01 0.5 0.1 1"],
        // fault script: event target duration probability
        &[
            "down up node_down node_up corrupt duplicate explode",
            "0 1 2 7 x",
            "0.5 1 3 0.1 -1",
            "0.2 1 0 0.5 1.5",
        ],
        // size_cdf: cum_prob
        &["0.5 0.9 1 1.0 1 0 -0.5 2"],
    ];

    /// The one input generator for every plain-text reader: raw byte junk,
    /// or lines in one format's shape. Short shaped inputs let each
    /// grammar accept often; long ones reach the ordering checks.
    fn plain_text() -> impl Strategy<Value = String> {
        let junk = collection::vec(0u8..128, 0..200)
            .prop_map(|bytes| bytes.into_iter().map(char::from).collect::<String>());
        prop_oneof![junk, shaped(3), shaped(13)]
    }

    /// Fewer than `max_rows` lines in one format's shape. The running count
    /// starts at 0, 1 or 2 and may fall. A pick past a column's vocabulary,
    /// or a column past the shape, is a random fraction in [0, 1).
    fn shaped(max_rows: usize) -> impl Strategy<Value = String> {
        // (step, width, column picks); steps 6 and 7 go back.
        let row = (
            0u64..8,
            0usize..8,
            collection::vec((0usize..12, 0.0f64..1.0), 5),
        );
        let rows = collection::vec(row, 0..max_rows);
        (0usize..3, 0u64..3, rows).prop_map(|(format, mut at, rows)| {
            let shape = SHAPES[format];
            let mut text = String::new();
            for (step, width, picks) in rows {
                // Width 0 is a `loop` directive, 1 one column too many.
                let width = match width {
                    0 => {
                        text += "loop ";
                        0
                    }
                    1 => shape.len() + 1,
                    w => 1 + w % shape.len(),
                };
                text += &at.to_string();
                for (c, (pick, x)) in picks.into_iter().take(width).enumerate() {
                    let vocab = shape.get(c).and_then(|v| v.split_whitespace().nth(pick));
                    text += " ";
                    text += &vocab.map_or_else(|| x.to_string(), str::to_string);
                }
                text += "\n";
                at = if step < 6 {
                    at + step
                } else {
                    at.saturating_sub(step - 4)
                };
            }
            text
        })
    }

    /// An error names its format and a line that exists (0: the whole
    /// input).
    fn check_error(e: &TextError, format: &str, text: &str) {
        prop_assert!(e.line <= text.lines().count(), "{e} in {text:?}");
        prop_assert!(!e.reason.is_empty());
        prop_assert!(e
            .to_string()
            .starts_with(&format!("{format} line {}: ", e.line)));
    }

    proptest! {
        /// No input panics a reader. Each either names a real line or
        /// yields a value that keeps its format's invariants.
        #[test]
        fn readers_never_panic(text in plain_text()) {
            match LinkTrace::parse("fuzz", &text) {
                Err(e) => check_error(&e, "trace", &text),
                Ok(tr) => {
                    let pts = tr.points();
                    prop_assert_eq!(pts[0].at, SimDuration::ZERO);
                    prop_assert!(pts.windows(2).all(|w| w[0].at < w[1].at));
                    prop_assert!(tr.period().is_none_or(|p| p > pts[pts.len() - 1].at));
                    prop_assert!(pts.iter().all(|p| p.rate_bps.is_finite() && p.rate_bps > 0.0));
                }
            }
            match FaultScript::parse(&text) {
                Err(e) => check_error(&e, "fault script", &text),
                Ok(script) => {
                    // Each line compiles into a start and at most one stop.
                    prop_assert!(script.len() <= 2 * text.lines().count());
                    for &(_, ev) in script.entries() {
                        if let FaultEvent::CorruptOn { prob, .. } | FaultEvent::DuplicateOn { prob, .. } = ev {
                            prop_assert!((0.0..=1.0).contains(&prob));
                        }
                    }
                }
            }
            match SizeCdf::parse("fuzz", &text) {
                Err(e) => check_error(&e, "size_cdf", &text),
                Ok(cdf) => {
                    let pts = cdf.points();
                    prop_assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
                    prop_assert_eq!(pts[pts.len() - 1].1, 1.0);
                    let mut rng = SimRng::new(3);
                    for _ in 0..32 {
                        let s = cdf.sample(&mut rng);
                        prop_assert!(s >= cdf.min_bytes() && s <= cdf.max_bytes());
                    }
                }
            }
        }
    }
}
