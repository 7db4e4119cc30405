//! Datapath-agnostic algorithm registry with parameterized specs.
//!
//! Every congestion-control algorithm in the workspace registers a named
//! factory here; anything that needs a sender — the scenario builders, the
//! experiments binary, the real-UDP datapath — resolves algorithms through
//! [`by_name`] and receives a `Box<dyn CongestionControl>` it can hand to
//! any engine. Lookups of unknown names return a typed
//! [`UnknownAlgorithm`] error (never a panic), which lists the registered
//! names for discoverability.
//!
//! ## Parameterized specs
//!
//! [`by_name`] accepts *specs*, not just bare names (see [`crate::spec`]):
//!
//! ```text
//! name[:key=val[,key=val]*]      e.g.  pcc:eps=0.05,util=latency
//!                                      cubic:beta=0.7,iw=32
//!                                      bbr:probe_rtt_ms=5000
//! ```
//!
//! Algorithms registered via [`register`] declare which keys they accept
//! and with what types/ranges; [`by_name`] validates the spec against the
//! schema and hands the factory a typed [`SpecParams`] bag on
//! [`CcParams::spec`]. An unknown key or out-of-range value is a typed
//! [`InvalidParam`] that lists the valid keys — never a panic. `"name:"`
//! is equivalent to `"name"`.
//!
//! `pcc-experiments algos` prints every registered name with its keys,
//! types and ranges from [`schema_of`], so the list cannot drift from the
//! `register_algorithms()` that declare it.
//!
//! Registration is explicit because the algorithm crates sit *above* this
//! crate in the dependency graph (they implement the trait defined here):
//! each of `pcc-core`, `pcc-tcp`, `pcc-rate`, and `pcc-bbr` exposes a
//! `register_algorithms()` function, and `pcc_scenarios::install_registry`
//! (re-exported as `pcc::install_registry`) is the one function that calls
//! all four, once per process. Registering the same name twice is
//! idempotent by design (last registration wins), so multiple entry points
//! may install the defaults without coordination. The table holds
//! factories only; a TCP's pacing is a key of its schema
//! (`cubic:paced=true`), not a second name.
//!
//! The global table recovers from lock poisoning (a panicking test thread
//! mid-registration) by adopting the poisoned state: every write holds the
//! guard only across a single `BTreeMap::insert`, so the table is always
//! left consistent and the poison flag carries no information.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use pcc_simnet::sync;
use pcc_simnet::time::SimDuration;

use crate::cc::CongestionControl;
use crate::spec::{
    describe_schema, validate, AlgoSpec, InvalidParam, Schema, SchemaCheck, SpecParams,
};

/// Construction parameters handed to algorithm factories.
#[derive(Clone, Debug)]
pub struct CcParams {
    /// Packet size on the wire, bytes.
    pub mss: u32,
    /// A-priori RTT estimate for algorithms that need one before the first
    /// sample (PCC's starting rate, a paced TCP's initial pacing rate).
    pub rtt_hint: SimDuration,
    /// Validated spec parameters (`name:key=val` — empty for plain-name
    /// construction). [`by_name`] fills this from the spec string after
    /// schema validation, so factories can trust types and ranges.
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

/// A named algorithm constructor.
pub type CcFactory = Box<dyn Fn(&CcParams) -> Box<dyn CongestionControl> + Send + Sync>;

/// Lookup failure: the requested name is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm {
    /// The name that failed to resolve (the full spec string as the
    /// caller wrote it).
    pub name: String,
    /// The registered names, sorted (empty if nothing registered yet — a
    /// hint that no `register_algorithms()` ran).
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.known.is_empty() {
            write!(
                f,
                "unknown congestion-control algorithm `{}` (registry is empty — was \
                 install_registry()/register_algorithms() called?)",
                self.name
            )
        } else {
            write!(
                f,
                "unknown congestion-control algorithm `{}`; registered: {}",
                self.name,
                self.known.join(", ")
            )
        }
    }
}

impl std::error::Error for UnknownAlgorithm {}

/// Why a spec failed to produce an algorithm: the base name is not
/// registered, or the parameter list does not validate against the
/// algorithm's schema. Both are typed values — spec resolution never
/// panics, whatever the input string.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec's base name resolves to no registered factory.
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

/// A table entry: a constructor with its parameter schema.
struct Entry {
    f: Arc<CcFactory>,
    schema: Schema,
    check: Option<Arc<SchemaCheck>>,
}

fn table() -> &'static RwLock<BTreeMap<String, Entry>> {
    static TABLE: OnceLock<RwLock<BTreeMap<String, Entry>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Register (or replace) a named algorithm factory with its parameter
/// schema and an optional cross-key [`SchemaCheck`]. [`by_name`]
/// validates spec parameters against the schema (`&[]`: the algorithm
/// takes none, so any `name:key=val` key is an [`InvalidParam`]), then
/// runs the check — for constraints a single key cannot express (e.g. a
/// parameter that only takes effect under a particular `util` choice) —
/// and only then invokes the factory, which receives the typed bag on
/// [`CcParams::spec`]. A check failure is an [`InvalidParam`] too, so
/// factories never see an unknown key or an out-of-range value and stay
/// infallible.
pub fn register(name: &str, schema: Schema, check: Option<Box<SchemaCheck>>, factory: CcFactory) {
    sync::write(table()).insert(
        name.to_string(),
        Entry {
            f: Arc::new(factory),
            schema,
            check: check.map(Arc::from),
        },
    );
}

/// Construct an algorithm from a spec — a bare name (`"cubic"`) or a
/// parameterized one (`"cubic:beta=0.7,iw=32"`). Unknown names are
/// [`SpecError::Unknown`]; malformed, unknown, or out-of-range parameters
/// are [`SpecError::InvalidParam`]. Never a panic.
///
/// ```
/// use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent};
/// use pcc_transport::registry::{self, by_name, CcParams, SpecError};
/// use pcc_transport::spec::{ParamKind, ParamSpec};
///
/// // A minimal algorithm, registered with a one-key schema. (Real
/// // algorithms register via their crate's `register_algorithms()`,
/// // installed by `pcc_scenarios::install_registry()`.)
/// struct Fixed(f64);
/// impl CongestionControl for Fixed {
///     fn name(&self) -> &'static str { "fixed" }
///     fn on_start(&mut self, ctx: &mut Ctx) { ctx.set_rate(self.0); }
///     fn on_ack(&mut self, _: &AckEvent, _: &mut Ctx) {}
///     fn on_loss(&mut self, _: &LossEvent, _: &mut Ctx) {}
/// }
/// registry::register(
///     "doc-fixed",
///     &[ParamSpec {
///         key: "rate",
///         kind: ParamKind::Float { min: 1.0, max: 1e9 },
///         doc: "fixed sending rate, bits/sec",
///     }],
///     None,
///     Box::new(|p| Box::new(Fixed(p.spec.f64("rate").unwrap_or(1e6)))),
/// );
/// let params = CcParams::default();
///
/// // Valid: a bare name and a parameterized spec.
/// assert!(by_name("doc-fixed", &params).is_ok());
/// assert!(by_name("doc-fixed:rate=5e6", &params).is_ok());
///
/// // Invalid: unknown names and bad parameters are typed errors.
/// assert!(matches!(
///     by_name("frobnicate", &params),
///     Err(SpecError::Unknown(e)) if e.name == "frobnicate"
/// ));
/// assert!(matches!(
///     by_name("doc-fixed:rate=0.5", &params),   // out of range
///     Err(SpecError::InvalidParam(e)) if e.key == "rate"
/// ));
/// assert!(matches!(
///     by_name("doc-fixed:bogus=1", &params),    // unknown key
///     Err(SpecError::InvalidParam(_))
/// ));
/// ```
pub fn by_name(name: &str, params: &CcParams) -> Result<Box<dyn CongestionControl>, SpecError> {
    // The base name is extractable even from syntactically broken specs,
    // so "unknown algorithm" always wins over "bad parameter" reporting.
    let parsed = AlgoSpec::parse(name);
    let base = match &parsed {
        Ok(spec) => spec.name.clone(),
        Err(e) => e.name.clone(),
    };
    // Drop the read guard *before* invoking the factory so factories can
    // never deadlock std's RwLock against a queued writer.
    let (factory, schema, check) = {
        let table = sync::read(table());
        match table.get(&base) {
            Some(e) => (Arc::clone(&e.f), e.schema, e.check.clone()),
            None => {
                return Err(SpecError::Unknown(UnknownAlgorithm {
                    name: name.to_string(),
                    known: table.keys().cloned().collect(),
                }))
            }
        }
    };
    let spec = parsed.map_err(|e| InvalidParam {
        algo: base.clone(),
        key: e.fragment,
        reason: e.reason,
        valid: describe_schema(schema),
    })?;
    let bag = validate(&spec.name, schema, &spec.params)?;
    if let Some(check) = check {
        check(&bag).map_err(|(key, reason)| InvalidParam {
            algo: base,
            key,
            reason,
            valid: describe_schema(schema),
        })?;
    }
    let mut params = params.clone();
    params.spec = bag;
    Ok(factory(&params))
}

/// The parameter schema of a registered name, if there is one. The empty
/// slice means the algorithm takes no parameters. Accepts bare names, not
/// specs.
pub fn schema_of(name: &str) -> Option<Schema> {
    sync::read(table()).get(name).map(|e| e.schema)
}

/// All registered names, sorted.
pub fn names() -> Vec<String> {
    sync::read(table()).keys().cloned().collect()
}

/// True if `name` is registered (exact table key, not a spec).
pub fn contains(name: &str) -> bool {
    sync::read(table()).contains_key(name)
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
        register("test-dummy", &[], None, Box::new(|_| Box::new(Dummy)));
        let cc = by_name("test-dummy", &CcParams::default()).expect("registered");
        assert_eq!(cc.name(), "dummy");

        let err = match by_name("no-such-algo", &CcParams::default()) {
            Ok(_) => panic!("lookup must fail"),
            Err(e) => unwrap_unknown(e),
        };
        assert_eq!(err.name, "no-such-algo");
        assert!(err.known.contains(&"test-dummy".to_string()));
        assert!(schema_of("no-such-algo").is_none());
        let msg = err.to_string();
        assert!(msg.contains("no-such-algo"), "{msg}");
    }

    #[test]
    fn schema_validates_and_reaches_the_factory() {
        register(
            "test-tuned",
            TUNED_SCHEMA,
            None,
            Box::new(|p| Box::new(Tuned(p.spec.f64("rate").unwrap_or(1e6)))),
        );
        // Plain name: defaults.
        assert_eq!(
            by_name("test-tuned", &CcParams::default())
                .expect("plain")
                .name(),
            "tuned"
        );
        // Spec value reaches the factory (observable via the rate effect).
        let mut cc = by_name("test-tuned:rate=42", &CcParams::default()).expect("spec");
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
        assert!(by_name("test-tuned:", &CcParams::default()).is_ok());
    }

    #[test]
    fn invalid_params_are_typed_and_list_valid_keys() {
        register(
            "test-strict",
            TUNED_SCHEMA,
            None,
            Box::new(|_| Box::new(Dummy)),
        );
        for (spec, needle) in [
            ("test-strict:bogus=1", "unknown key"),
            ("test-strict:rate=0.5", "out of range"),
            ("test-strict:rate=abc", "not a float"),
            ("test-strict:rate", "expected `key=value`"),
            ("test-strict:rate=1,rate=2", "duplicate"),
        ] {
            let err = match by_name(spec, &CcParams::default()) {
                Ok(_) => panic!("{spec} must fail"),
                Err(e) => unwrap_invalid(e),
            };
            assert_eq!(err.algo, "test-strict", "{spec}");
            assert!(err.reason.contains(needle), "{spec}: {}", err.reason);
            assert!(
                err.valid.iter().any(|d| d.contains("rate")),
                "{spec}: lists valid keys: {:?}",
                err.valid
            );
        }
        // A no-parameter algorithm says so.
        register("test-bare", &[], None, Box::new(|_| Box::new(Dummy)));
        let err = match by_name("test-bare:x=1", &CcParams::default()) {
            Ok(_) => panic!("must fail"),
            Err(e) => unwrap_invalid(e),
        };
        assert!(err.valid.is_empty());
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn cross_key_checks_reject_ineffective_params() {
        // A SchemaCheck models constraints one key cannot express: here
        // `rate` is only meaningful when `mode=fixed`.
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
        register(
            "test-checked",
            CHECKED_SCHEMA,
            Some(Box::new(|bag| {
                if bag.choice("mode") == Some("auto") && bag.f64("rate").is_some() {
                    return Err((
                        "rate".to_string(),
                        "has no effect with mode=auto".to_string(),
                    ));
                }
                Ok(())
            })),
            Box::new(|_| Box::new(Dummy)),
        );
        assert!(by_name("test-checked:mode=fixed,rate=5", &CcParams::default()).is_ok());
        assert!(by_name("test-checked:rate=5", &CcParams::default()).is_ok());
        let err = match by_name("test-checked:mode=auto,rate=5", &CcParams::default()) {
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
        let err = match by_name("nosuch-algo:eps=banana", &CcParams::default()) {
            Ok(_) => panic!("must fail"),
            Err(e) => unwrap_unknown(e),
        };
        assert_eq!(err.name, "nosuch-algo:eps=banana");
    }

    #[test]
    fn poisoned_table_recovers_instead_of_cascading() {
        // A panic while holding the write guard poisons the lock; the
        // registry must keep serving (the table is always consistent —
        // every write is a single insert). Before the fix, this panicked
        // every subsequent test in the process.
        register("test-poison-pre", &[], None, Box::new(|_| Box::new(Dummy)));
        let _ = std::panic::catch_unwind(|| {
            let _guard = sync::write(table());
            panic!("poison the registry lock");
        });
        assert!(table().is_poisoned(), "lock is genuinely poisoned");
        // Reads, writes, and lookups all still work.
        assert!(contains("test-poison-pre"));
        register("test-poison-post", &[], None, Box::new(|_| Box::new(Dummy)));
        assert!(by_name("test-poison-post", &CcParams::default()).is_ok());
        assert!(!names().is_empty());
        assert!(schema_of("test-poison-post").is_some());
        // Clear the flag for any test that runs later in this process.
        table().clear_poison();
    }
}
