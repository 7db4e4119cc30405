//! Trace-driven time-varying links: a plain-text trace format, bundled
//! synthetic profiles, and conversion to a [`LinkSchedule`].
//!
//! A *link trace* is a piecewise-constant description of a bottleneck over
//! time — capacity, and optionally one-way delay and random loss. Traces
//! are the reusable face of the simulator's time-varying machinery: a
//! [`LinkSchedule`] is an anonymous list of parameter steps wired into one
//! link; a [`LinkTrace`] is a named, loadable, loopable artifact that any
//! scenario can replay ([`LinkTrace::to_schedule`] does the expansion).
//!
//! ## Trace file format
//!
//! Plain text, one parameter sample per line (no external dependencies —
//! the format is parsed by [`LinkTrace::parse`]):
//!
//! ```text
//! # pcc-simnet link trace v1
//! # columns: time_s rate_mbps [delay_ms [loss]]
//! loop 60
//! 0.0   24.0  35  0.002
//! 0.5   18.2  40  0.004
//! 1.0   3.1   60  0.010
//! ```
//!
//! * `#` starts a comment (whole-line or trailing); blank lines are
//!   ignored; errors name their line ([`crate::text`], the reader every
//!   plain-text input shares).
//! * An optional `loop <period_s>` directive makes the trace repeat with
//!   that period; the period must be strictly greater than the last
//!   sample's time. Without it, the final sample holds forever.
//! * Each sample line has 2–4 columns: time in seconds (strictly
//!   increasing, first sample at `0`), capacity in Mbit/s (> 0), optional
//!   one-way delay in milliseconds, optional loss probability in `[0, 1)`.
//!   Omitted columns keep the link's current value.
//!
//! ## Bundled profiles
//!
//! Three synthetic profiles ship in-repo (under `crates/simnet/traces/`,
//! compiled in via `include_str!`, so nothing is fetched at run time):
//! `lte` (cellular-style random-walk capacity with fades), `wifi`
//! (MCS-step plateaus with contention dips), and `satellite`
//! (LEO-style beam dwells with handoff degradations). Load them with
//! [`LinkTrace::builtin`]; enumerate them with [`builtin_names`].

use crate::link::{LinkSchedule, LinkStep};
use crate::text::{self, lines, TextError};
use crate::time::{SimDuration, SimTime};

/// One piecewise-constant sample of a [`LinkTrace`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Offset from the start of the trace (or of the current loop cycle).
    pub at: SimDuration,
    /// Capacity in bits/sec from this point on.
    pub rate_bps: f64,
    /// One-way propagation delay from this point on (`None` keeps the
    /// link's current delay).
    pub delay: Option<SimDuration>,
    /// Random loss probability from this point on (`None` keeps the
    /// link's current loss).
    pub loss: Option<f64>,
}

/// A named, loadable, loopable piecewise-constant link description.
#[derive(Clone, Debug)]
pub struct LinkTrace {
    name: String,
    points: Vec<TracePoint>,
    period: Option<SimDuration>,
}

const TRACE: &str = "trace";

const BUILTIN: &[(&str, &str)] = &[
    ("lte", include_str!("../traces/lte.trace")),
    ("wifi", include_str!("../traces/wifi.trace")),
    ("satellite", include_str!("../traces/satellite.trace")),
];

/// Names of the bundled trace profiles, in presentation order.
pub fn builtin_names() -> Vec<&'static str> {
    BUILTIN.iter().map(|(n, _)| *n).collect()
}

impl LinkTrace {
    /// Build a trace from parts (scenario generators use this; files go
    /// through [`LinkTrace::parse`]). Points must start at offset zero
    /// and be strictly time-ordered; a `period`, if given, must exceed
    /// the last point's offset. Errors name line 0: there is no text.
    pub fn from_points(
        name: &str,
        points: Vec<TracePoint>,
        period: Option<SimDuration>,
    ) -> Result<LinkTrace, TextError> {
        let err = |reason| Err(text::err(TRACE, 0, reason));
        let Some(last) = points.last() else {
            return err("trace has no samples");
        };
        if points[0].at != SimDuration::ZERO {
            return err("first sample must be at time 0");
        }
        if points.windows(2).any(|w| w[1].at <= w[0].at) {
            return err("sample times must be strictly increasing");
        }
        for p in &points {
            if !(p.rate_bps.is_finite() && p.rate_bps > 0.0) {
                return err("rate must be a positive finite number");
            }
            if p.loss.is_some_and(|l| !(0.0..1.0).contains(&l)) {
                return err("loss must be in [0, 1)");
            }
        }
        if period.is_some_and(|p| p <= last.at) {
            return err("loop period must exceed the last sample time");
        }
        Ok(LinkTrace {
            name: name.to_string(),
            points,
            period,
        })
    }

    /// Parse the plain-text trace format (see the module docs). Returns
    /// the first offending line on failure, never panics.
    pub fn parse(name: &str, text: &str) -> Result<LinkTrace, TextError> {
        let mut points: Vec<TracePoint> = Vec::new();
        let mut period = None;
        for (n, cols) in lines(text) {
            let err = |reason: &str| Err(text::err(TRACE, n, reason));
            if let Some(glued) = cols[0].strip_prefix("loop") {
                if period.is_some() {
                    return err("duplicate `loop` directive");
                }
                // `loop 60`, or the period glued on as `loop60`.
                let tok = match (glued, &cols[1..]) {
                    ("", &[tok]) | (tok, &[]) => tok,
                    _ => return err("expected `loop <period_s>`"),
                };
                let secs = text::num(TRACE, n, tok, "loop period")?;
                if secs <= 0.0 {
                    return err("loop period must be positive");
                }
                period = Some(SimDuration::from_secs_f64(secs));
                continue;
            }
            if !(2..=4).contains(&cols.len()) {
                let got = cols.len();
                return err(&format!(
                    "expected 2-4 columns (time_s rate_mbps [delay_ms [loss]]), got {got}"
                ));
            }
            let col = |i: usize, what| {
                cols.get(i)
                    .map(|tok| text::num(TRACE, n, tok, what))
                    .transpose()
            };
            let t = text::num(TRACE, n, cols[0], "time")?;
            if t < 0.0 {
                return err("time must be non-negative");
            }
            let rate_mbps = text::num(TRACE, n, cols[1], "rate")?;
            if rate_mbps <= 0.0 {
                return err("rate must be positive (model outages via loss)");
            }
            let delay_ms = col(2, "delay")?;
            if delay_ms.is_some_and(|ms| ms < 0.0) {
                return err("delay must be non-negative");
            }
            let loss = col(3, "loss")?;
            if loss.is_some_and(|l| !(0.0..1.0).contains(&l)) {
                return err("loss must be in [0, 1)");
            }
            let at = SimDuration::from_secs_f64(t);
            match points.last() {
                Some(last) if at <= last.at => {
                    return err("sample times must be strictly increasing")
                }
                None if at != SimDuration::ZERO => return err("first sample must be at time 0"),
                _ => {}
            }
            points.push(TracePoint {
                at,
                rate_bps: rate_mbps * 1e6,
                delay: delay_ms.map(|ms| SimDuration::from_secs_f64(ms / 1e3)),
                loss,
            });
        }
        LinkTrace::from_points(name, points, period).map_err(|e| TextError {
            // from_points re-checks structure it cannot attribute to a line.
            line: text.lines().count(),
            ..e
        })
    }

    /// Load one of the bundled profiles (`lte`, `wifi`, `satellite`).
    /// `None` for unknown names — see [`builtin_names`].
    pub fn builtin(name: &str) -> Option<LinkTrace> {
        let (_, text) = BUILTIN.iter().find(|(n, _)| *n == name)?;
        Some(LinkTrace::parse(name, text).expect("bundled traces parse"))
    }

    /// The trace's name (file stem or builtin id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace's samples, time-ordered from offset zero.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The loop period, if the trace repeats.
    pub fn period(&self) -> Option<SimDuration> {
        self.period
    }

    /// The initial sample (defines the link's conditions at `t = 0`).
    pub fn initial(&self) -> TracePoint {
        self.points[0]
    }

    /// The sample in effect at offset `t` from the trace start,
    /// accounting for looping (or holding the last sample, if not
    /// looped).
    pub fn at(&self, t: SimDuration) -> TracePoint {
        let off = match self.period {
            Some(p) if p > SimDuration::ZERO => {
                SimDuration::from_nanos(t.as_nanos() % p.as_nanos())
            }
            _ => t,
        };
        *self
            .points
            .iter()
            .rev()
            .find(|p| p.at <= off)
            .expect("first sample is at offset 0")
    }

    /// Time-average of the deliverable capacity `rate · (1 − loss)` over
    /// `[0, horizon]`, in Mbit/s — the "optimal line" a protocol on this
    /// trace is measured against.
    pub fn avg_capacity_mbps(&self, horizon: SimDuration) -> f64 {
        let h = horizon.as_nanos();
        if h == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut t = 0u64;
        let mut loss = self.points[0].loss.unwrap_or(0.0);
        // Walk the expanded step sequence; between steps the capacity is
        // constant. `self.at` gives the sample, but loss columns may be
        // omitted (hold semantics), so carry the running loss explicitly.
        let mut cur = self.points[0].rate_bps * (1.0 - loss);
        for (at, p) in self.steps_until(SimTime::ZERO + horizon) {
            let upto = at.as_nanos().min(h);
            acc += cur * (upto - t) as f64;
            t = upto;
            if let Some(l) = p.loss {
                loss = l;
            }
            cur = p.rate_bps * (1.0 - loss);
        }
        acc += cur * (h - t) as f64;
        acc / h as f64 / 1e6
    }

    /// Iterate the trace's parameter changes as absolute times in
    /// `(0, horizon]`, looping as configured. The initial sample is not
    /// emitted — it describes the link's starting conditions, which the
    /// caller applies at construction.
    fn steps_until(&self, horizon: SimTime) -> impl Iterator<Item = (SimTime, TracePoint)> + '_ {
        let period = self.period;
        let mut cycle_base = SimTime::ZERO;
        let mut idx = 1usize; // skip the initial sample in the first cycle
        std::iter::from_fn(move || loop {
            if idx >= self.points.len() {
                let p = period?;
                cycle_base += p;
                idx = 0; // loop cycles re-apply the t=0 sample
            }
            let p = self.points[idx];
            let at = cycle_base + p.at;
            if at > horizon {
                return None;
            }
            idx += 1;
            if at == SimTime::ZERO {
                continue; // degenerate: zero horizon
            }
            return Some((at, p));
        })
    }

    /// Expand into a [`LinkSchedule`] covering `(0, horizon]`, looping as
    /// configured. Initial conditions come from [`LinkTrace::initial`];
    /// apply them to the link at construction.
    pub fn to_schedule(&self, horizon: SimTime) -> LinkSchedule {
        let mut schedule = LinkSchedule::new();
        for (at, p) in self.steps_until(horizon) {
            schedule.push(LinkStep {
                at,
                rate_bps: Some(p.rate_bps),
                delay: p.delay,
                loss: p.loss,
            });
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "\
# demo trace
0.0  10.0
1.0  20.0  15
2.0  5.0   30  0.01
";

    #[test]
    fn parses_columns_and_holds_omitted_values() {
        let tr = LinkTrace::parse("demo", SIMPLE).expect("parses");
        assert_eq!(tr.name(), "demo");
        assert_eq!(tr.points().len(), 3);
        let p0 = tr.initial();
        assert_eq!(p0.rate_bps, 10e6);
        assert_eq!(p0.delay, None);
        assert_eq!(p0.loss, None);
        let p2 = tr.points()[2];
        assert_eq!(p2.delay, Some(SimDuration::from_millis(30)));
        assert_eq!(p2.loss, Some(0.01));
        assert_eq!(tr.period(), None);
        // Hold-last past the end.
        assert_eq!(tr.at(SimDuration::from_secs(99)).rate_bps, 5e6);
    }

    #[test]
    fn loop_directive_repeats_the_trace() {
        let tr = LinkTrace::parse("looped", &format!("loop 3\n{SIMPLE}")).expect("parses");
        assert_eq!(tr.period(), Some(SimDuration::from_secs(3)));
        // Offset 4 s = cycle 2 offset 1 s.
        assert_eq!(tr.at(SimDuration::from_secs(4)).rate_bps, 20e6);
        // The schedule re-applies the t=0 sample at each cycle boundary.
        let sched = tr.to_schedule(SimTime::from_secs(7));
        let times: Vec<u64> = (0..sched.len())
            .map(|i| sched.step(i).unwrap().at.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(sched.step(2).unwrap().rate_bps, Some(10e6), "cycle restart");
    }

    #[test]
    fn unlooped_schedule_stops_at_the_last_sample() {
        let tr = LinkTrace::parse("demo", SIMPLE).expect("parses");
        let sched = tr.to_schedule(SimTime::from_secs(100));
        assert_eq!(sched.len(), 2, "initial sample is construction state");
    }

    #[test]
    fn avg_capacity_weights_by_time_and_loss() {
        let tr = LinkTrace::parse("demo", SIMPLE).expect("parses");
        // [0,1): 10; [1,2): 20; [2,4): 5·0.99 — over 4 s.
        let expect = (10.0 + 20.0 + 2.0 * 5.0 * 0.99) / 4.0;
        let got = tr.avg_capacity_mbps(SimDuration::from_secs(4));
        assert!((got - expect).abs() < 1e-9, "got {got}, expect {expect}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, needle) in [
            ("0.0 10\nbogus", "columns"),
            ("0.0 10\n0.5 -2", "rate must be positive"),
            ("0.0 10\n0.5 1 5 1.5", "loss must be in"),
            ("1.0 10", "first sample must be at time 0"),
            ("0.0 10\n0.0 20", "strictly increasing"),
            ("loop 0\n0.0 10", "loop period must be positive"),
            ("loop 1\nloop 2\n0.0 10", "duplicate"),
            ("loop 2\n0.0 10\n2.5 20", "exceed the last sample"),
            ("", "no samples"),
            ("0.0 nan", "bad rate"),
        ] {
            let e = LinkTrace::parse("bad", text).expect_err(text);
            assert!(e.reason.contains(needle), "{text:?} → {e}");
            assert!(e.to_string().contains("line"), "{e}");
        }
    }

    #[test]
    fn builtins_load_and_are_sane() {
        assert_eq!(builtin_names(), vec!["lte", "wifi", "satellite"]);
        for name in builtin_names() {
            let tr = LinkTrace::builtin(name).expect(name);
            assert_eq!(tr.name(), name);
            assert!(tr.points().len() >= 10, "{name} has real content");
            assert!(tr.period().is_some(), "{name} loops");
            let avg = tr.avg_capacity_mbps(tr.period().unwrap());
            assert!(
                (1.0..100.0).contains(&avg),
                "{name} avg capacity sane: {avg}"
            );
            // Every bundled sample carries explicit delay + loss columns.
            assert!(tr.points().iter().all(|p| p.delay.is_some()));
            assert!(tr.points().iter().all(|p| p.loss.is_some()));
        }
        assert!(LinkTrace::builtin("dsl").is_none());
    }

    #[test]
    fn schedule_from_builtin_is_deterministic() {
        let a = LinkTrace::builtin("lte").unwrap();
        let b = LinkTrace::builtin("lte").unwrap();
        let (sa, sb) = (
            a.to_schedule(SimTime::from_secs(120)),
            b.to_schedule(SimTime::from_secs(120)),
        );
        assert!(sa.len() > 200, "60 s loop at 0.5 s grid, two cycles");
        assert_eq!(sa.len(), sb.len());
        for i in 0..sa.len() {
            let (x, y) = (sa.step(i).unwrap(), sb.step(i).unwrap());
            assert_eq!(x.at, y.at);
            assert_eq!(x.rate_bps.map(f64::to_bits), y.rate_bps.map(f64::to_bits));
        }
    }
}
