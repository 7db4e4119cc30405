//! Datapath-agnostic algorithm tables with parameterized specs.
//!
//! Every congestion-control algorithm in the workspace is an
//! [`Algorithm`]: a name, the spec keys it accepts, an optional cross-key
//! check and a constructor. Each algorithm crate exports its entries as
//! one `pub const ALGORITHMS: &[Algorithm]` (`pcc-core`, `pcc-tcp`,
//! `pcc-rate`, `pcc-bbr`); `pcc_scenarios::ALGORITHMS` (re-exported as
//! `pcc::ALGORITHMS`) lists those four tables and is the workspace's one
//! list. The tables are compile-time data: nothing is registered, locked
//! or installed at run time, and a lookup reads only the tables its
//! caller passes. The algorithm crates sit *above* this crate in the
//! dependency graph (they implement the trait defined here), so this
//! crate names none of them.
//!
//! Anything that needs a sender — the scenario builders, the experiments
//! binary, the real-UDP datapath — resolves a spec through [`by_name`]
//! and receives a `Box<dyn CongestionControl>` it can hand to any engine.
//! An unknown name is a typed [`UnknownAlgorithm`] error (never a panic)
//! that lists the names the tables hold.
//!
//! ## Parameterized specs
//!
//! [`by_name`] accepts *specs*, not just bare names (see [`crate::spec`]):
//!
//! ```text
//! name[:key=val[,key=val]*]      e.g.  pcc:eps=0.05,util=latency
//!                                      pcc:tm=1,rct=false
//!                                      cubic:paced=true
//! ```
//!
//! [`by_name`] validates the spec against the algorithm's schema, runs
//! its check, and hands `build` a typed [`SpecParams`] bag on
//! [`CcParams::spec`]. An unknown key or out-of-range value is a typed
//! [`InvalidParam`] that lists the valid keys — never a panic. `"name:"`
//! is equivalent to `"name"`. A TCP's pacing is a key of its schema
//! (`cubic:paced=true`), not a second name.
//!
//! `pcc-experiments algos` prints every name with its keys, types and
//! ranges from [`names`] and [`schema_of`], so the list cannot drift from
//! the tables that declare it.

use pcc_simnet::time::SimDuration;

use crate::cc::CongestionControl;
use crate::spec::{describe_schema, validate, AlgoSpec, InvalidParam, Schema, SpecParams};

/// Construction parameters handed to an [`Algorithm`]'s `build`.
#[derive(Clone, Debug)]
pub struct CcParams {
    /// Packet size on the wire, bytes.
    pub mss: u32,
    /// A-priori RTT estimate for algorithms that need one before the first
    /// sample (PCC's starting rate, a paced TCP's initial pacing rate).
    pub rtt_hint: SimDuration,
    /// Validated spec parameters (`name:key=val` — empty for plain-name
    /// construction). [`by_name`] fills this from the spec string after
    /// schema validation, so `build` can trust types and ranges.
    pub spec: SpecParams,
}

impl Default for CcParams {
    fn default() -> Self {
        CcParams {
            mss: 1500,
            rtt_hint: SimDuration::from_millis(100),
            spec: SpecParams::default(),
        }
    }
}

impl CcParams {
    /// Set the RTT hint.
    pub fn with_rtt_hint(mut self, rtt: SimDuration) -> Self {
        self.rtt_hint = rtt;
        self
    }

    /// Set the MSS.
    pub fn with_mss(mut self, mss: u32) -> Self {
        self.mss = mss;
        self
    }

    /// Set the validated spec-parameter bag (mostly for tests; [`by_name`]
    /// does this automatically).
    pub fn with_spec(mut self, spec: SpecParams) -> Self {
        self.spec = spec;
        self
    }
}

/// Lookup failure: the requested name is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm {
    /// The name that failed to resolve (the full spec string as the
    /// caller wrote it).
    pub name: String,
    /// The names the table holds, sorted.
    pub known: Vec<&'static str>,
}

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown congestion-control algorithm `{}`; registered: {}",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownAlgorithm {}

/// Why a spec failed to produce an algorithm: the base name is in no
/// table, or the parameter list does not validate against the
/// algorithm's schema. Both are typed values — spec resolution never
/// panics, whatever the input string.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec's base name is in no table.
    Unknown(UnknownAlgorithm),
    /// The base name exists, but a parameter is unknown, mistyped,
    /// out-of-range, duplicated, or syntactically malformed.
    InvalidParam(InvalidParam),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Unknown(e) => e.fmt(f),
            SpecError::InvalidParam(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<UnknownAlgorithm> for SpecError {
    fn from(e: UnknownAlgorithm) -> Self {
        SpecError::Unknown(e)
    }
}

impl From<InvalidParam> for SpecError {
    fn from(e: InvalidParam) -> Self {
        SpecError::InvalidParam(e)
    }
}

/// A cross-key check, run after every key has validated against the
/// schema, for constraints one key cannot express (an escalation ceiling
/// that cannot sit below its floor). It returns the offending key and the
/// reason; [`by_name`] wraps both into an [`InvalidParam`], so a parameter
/// that cannot take effect is rejected like an unknown one.
pub type Check = fn(&SpecParams) -> Result<(), (String, String)>;

/// One algorithm: what a table holds for a name.
#[derive(Clone, Copy)]
pub struct Algorithm {
    /// The base name specs use (`"cubic"` in `"cubic:paced=true"`).
    pub name: &'static str,
    /// The keys a spec may set; `&[]` means none, so any `name:key=val`
    /// key is an [`InvalidParam`].
    pub schema: Schema,
    /// A cross-key check, if the schema alone is not enough.
    pub check: Option<Check>,
    /// The constructor. It only ever sees a validated bag, so it is
    /// infallible.
    pub build: fn(&CcParams) -> Box<dyn CongestionControl>,
}

/// The entry named `name` (a base name, not a spec), searching the tables
/// in order.
fn find(tables: &[&[Algorithm]], name: &str) -> Option<Algorithm> {
    tables
        .iter()
        .flat_map(|t| t.iter())
        .find(|a| a.name == name)
        .copied()
}

/// Construct an algorithm from a spec — a bare name (`"cubic"`) or a
/// parameterized one (`"cubic:paced=true"`) — looked up in `tables`.
/// Unknown names are [`SpecError::Unknown`]; malformed, unknown, or
/// out-of-range parameters are [`SpecError::InvalidParam`]. Never a panic.
///
/// ```
/// use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent};
/// use pcc_transport::registry::{by_name, Algorithm, CcParams, SpecError};
/// use pcc_transport::spec::{ParamKind, ParamSpec};
///
/// // A minimal algorithm in a one-entry table with a one-key schema.
/// // (The workspace's algorithms are `pcc_scenarios::ALGORITHMS`.)
/// struct Fixed(f64);
/// impl CongestionControl for Fixed {
///     fn name(&self) -> &'static str { "fixed" }
///     fn on_start(&mut self, ctx: &mut Ctx) { ctx.set_rate(self.0); }
///     fn on_ack(&mut self, _: &AckEvent, _: &mut Ctx) {}
///     fn on_loss(&mut self, _: &LossEvent, _: &mut Ctx) {}
/// }
/// const TABLE: &[Algorithm] = &[Algorithm {
///     name: "doc-fixed",
///     schema: &[ParamSpec {
///         key: "rate",
///         kind: ParamKind::Float { min: 1.0, max: 1e9 },
///         doc: "fixed sending rate, bits/sec",
///     }],
///     check: None,
///     build: |p| Box::new(Fixed(p.spec.f64("rate").unwrap_or(1e6))),
/// }];
/// let params = CcParams::default();
///
/// // Valid: a bare name and a parameterized spec.
/// assert!(by_name(&[TABLE], "doc-fixed", &params).is_ok());
/// assert!(by_name(&[TABLE], "doc-fixed:rate=5e6", &params).is_ok());
///
/// // Invalid: unknown names and bad parameters are typed errors.
/// assert!(matches!(
///     by_name(&[TABLE], "frobnicate", &params),
///     Err(SpecError::Unknown(e)) if e.name == "frobnicate"
/// ));
/// assert!(matches!(
///     by_name(&[TABLE], "doc-fixed:rate=0.5", &params),   // out of range
///     Err(SpecError::InvalidParam(e)) if e.key == "rate"
/// ));
/// assert!(matches!(
///     by_name(&[TABLE], "doc-fixed:bogus=1", &params),    // unknown key
///     Err(SpecError::InvalidParam(_))
/// ));
/// ```
pub fn by_name(
    tables: &[&[Algorithm]],
    name: &str,
    params: &CcParams,
) -> Result<Box<dyn CongestionControl>, SpecError> {
    // The base name is extractable even from syntactically broken specs,
    // so "unknown algorithm" always wins over "bad parameter" reporting.
    let parsed = AlgoSpec::parse(name);
    let base = match &parsed {
        Ok(spec) => spec.name.clone(),
        Err(e) => e.name.clone(),
    };
    let Some(algo) = find(tables, &base) else {
        return Err(SpecError::Unknown(UnknownAlgorithm {
            name: name.to_string(),
            known: names(tables),
        }));
    };
    let spec = parsed.map_err(|e| InvalidParam {
        algo: base.clone(),
        key: e.fragment,
        reason: e.reason,
        valid: describe_schema(algo.schema),
    })?;
    let bag = validate(&spec.name, algo.schema, &spec.params)?;
    if let Some(check) = algo.check {
        check(&bag).map_err(|(key, reason)| InvalidParam {
            algo: base,
            key,
            reason,
            valid: describe_schema(algo.schema),
        })?;
    }
    let mut params = params.clone();
    params.spec = bag;
    Ok((algo.build)(&params))
}

/// The parameter schema of `name` in `tables`, if it is there. The empty
/// slice means the algorithm takes no parameters. Accepts bare names, not
/// specs.
pub fn schema_of(tables: &[&[Algorithm]], name: &str) -> Option<Schema> {
    find(tables, name).map(|a| a.schema)
}

/// Every name in `tables`, sorted.
pub fn names(tables: &[&[Algorithm]]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = tables
        .iter()
        .flat_map(|t| t.iter())
        .map(|a| a.name)
        .collect();
    names.sort_unstable();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{AckEvent, Ctx, LossEvent};
    use crate::spec::{ParamKind, ParamSpec};

    struct Dummy;
    impl CongestionControl for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(1e6);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
    }

    /// A controller that remembers the spec value it was built with.
    struct Tuned(f64);
    impl CongestionControl for Tuned {
        fn name(&self) -> &'static str {
            "tuned"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_rate(self.0);
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
    }

    const TUNED_SCHEMA: Schema = &[ParamSpec {
        key: "rate",
        kind: ParamKind::Float { min: 1.0, max: 1e9 },
        doc: "fixed rate, bits/sec",
    }];

    /// `rate` is only meaningful when `mode=fixed`: a constraint one key
    /// cannot express.
    const CHECKED_SCHEMA: Schema = &[
        ParamSpec {
            key: "rate",
            kind: ParamKind::Float { min: 1.0, max: 1e9 },
            doc: "fixed rate",
        },
        ParamSpec {
            key: "mode",
            kind: ParamKind::Choice(&["fixed", "auto"]),
            doc: "operating mode",
        },
    ];

    fn rate_needs_fixed_mode(bag: &SpecParams) -> Result<(), (String, String)> {
        if bag.choice("mode") == Some("auto") && bag.f64("rate").is_some() {
            return Err((
                "rate".to_string(),
                "has no effect with mode=auto".to_string(),
            ));
        }
        Ok(())
    }

    const TEST_ALGORITHMS: &[Algorithm] = &[
        Algorithm {
            name: "test-dummy",
            schema: &[],
            check: None,
            build: |_| Box::new(Dummy),
        },
        Algorithm {
            name: "test-tuned",
            schema: TUNED_SCHEMA,
            check: None,
            build: |p| Box::new(Tuned(p.spec.f64("rate").unwrap_or(1e6))),
        },
        Algorithm {
            name: "test-checked",
            schema: CHECKED_SCHEMA,
            check: Some(rate_needs_fixed_mode),
            build: |_| Box::new(Dummy),
        },
    ];

    /// A second table, to show lookups span every table passed.
    const MORE_ALGORITHMS: &[Algorithm] = &[Algorithm {
        name: "test-bare",
        schema: &[],
        check: None,
        build: |_| Box::new(Dummy),
    }];

    const TABLES: &[&[Algorithm]] = &[TEST_ALGORITHMS, MORE_ALGORITHMS];

    fn lookup(spec: &str) -> Result<Box<dyn CongestionControl>, SpecError> {
        by_name(TABLES, spec, &CcParams::default())
    }

    fn unwrap_unknown(e: SpecError) -> UnknownAlgorithm {
        match e {
            SpecError::Unknown(u) => u,
            SpecError::InvalidParam(p) => panic!("expected Unknown, got InvalidParam: {p}"),
        }
    }

    fn unwrap_invalid(e: SpecError) -> InvalidParam {
        match e {
            SpecError::InvalidParam(p) => p,
            SpecError::Unknown(u) => panic!("expected InvalidParam, got Unknown: {u}"),
        }
    }

    #[test]
    fn lookup_roundtrip_and_typed_error() {
        assert_eq!(lookup("test-dummy").expect("in the table").name(), "dummy");
        assert_eq!(lookup("test-bare").expect("second table").name(), "dummy");

        let err = match lookup("no-such-algo") {
            Ok(_) => panic!("lookup must fail"),
            Err(e) => unwrap_unknown(e),
        };
        assert_eq!(err.name, "no-such-algo");
        assert_eq!(
            err.known,
            ["test-bare", "test-checked", "test-dummy", "test-tuned"],
            "every table's names, sorted"
        );
        assert_eq!(names(TABLES), err.known);
        assert!(schema_of(TABLES, "no-such-algo").is_none());
        assert_eq!(schema_of(TABLES, "test-tuned").map(<[_]>::len), Some(1));
        let msg = err.to_string();
        assert!(msg.contains("no-such-algo"), "{msg}");
        assert!(msg.contains("test-tuned"), "{msg}");
        // A table not passed is not searched.
        assert!(by_name(&[MORE_ALGORITHMS], "test-dummy", &CcParams::default()).is_err());
    }

    #[test]
    fn schema_validates_and_reaches_the_constructor() {
        // Plain name: defaults.
        assert_eq!(lookup("test-tuned").expect("plain").name(), "tuned");
        // Spec value reaches `build` (observable via the rate effect).
        let mut cc = lookup("test-tuned:rate=42").expect("spec");
        let mut rng = pcc_simnet::rng::SimRng::new(1);
        let mut fx = crate::cc::Effects::default();
        cc.on_start(&mut Ctx::new(
            pcc_simnet::time::SimTime::ZERO,
            &mut rng,
            &mut fx,
        ));
        let rate = fx.drain().rate;
        assert_eq!(rate, Some(42.0), "spec value tuned the controller");
        // Empty pair list ≡ plain name.
        assert!(lookup("test-tuned:").is_ok());
    }

    #[test]
    fn invalid_params_are_typed_and_list_valid_keys() {
        for (spec, needle) in [
            ("test-tuned:bogus=1", "unknown key"),
            ("test-tuned:rate=0.5", "out of range"),
            ("test-tuned:rate=abc", "not a float"),
            ("test-tuned:rate", "expected `key=value`"),
            ("test-tuned:rate=1,rate=2", "duplicate"),
        ] {
            let err = match lookup(spec) {
                Ok(_) => panic!("{spec} must fail"),
                Err(e) => unwrap_invalid(e),
            };
            assert_eq!(err.algo, "test-tuned", "{spec}");
            assert!(err.reason.contains(needle), "{spec}: {}", err.reason);
            assert!(
                err.valid.iter().any(|d| d.contains("rate")),
                "{spec}: lists valid keys: {:?}",
                err.valid
            );
        }
        // A no-parameter algorithm says so.
        let err = match lookup("test-bare:x=1") {
            Ok(_) => panic!("must fail"),
            Err(e) => unwrap_invalid(e),
        };
        assert!(err.valid.is_empty());
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn cross_key_checks_reject_ineffective_params() {
        assert!(lookup("test-checked:mode=fixed,rate=5").is_ok());
        assert!(lookup("test-checked:rate=5").is_ok());
        let err = match lookup("test-checked:mode=auto,rate=5") {
            Ok(_) => panic!("ineffective key must fail"),
            Err(e) => unwrap_invalid(e),
        };
        assert_eq!(err.key, "rate");
        assert!(err.reason.contains("no effect"), "{err}");
        assert!(err.valid.iter().any(|k| k.contains("mode")), "{err}");
    }

    #[test]
    fn unknown_base_name_wins_over_bad_params() {
        // `nosuch:eps=banana` reports the unknown algorithm, not the
        // unparseable parameter — the caller's first mistake.
        let err = match lookup("nosuch-algo:eps=banana") {
            Ok(_) => panic!("must fail"),
            Err(e) => unwrap_unknown(e),
        };
        assert_eq!(err.name, "nosuch-algo:eps=banana");
    }
}
