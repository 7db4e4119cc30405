//! Parameterized algorithm specs: `"name:key=val,key=val"` strings, the
//! per-algorithm parameter schemas they are validated against, and the
//! typed value bag validated specs produce.
//!
//! A *spec* is how callers ask the [`crate::registry`] for an algorithm at
//! a non-default operating point — `"pcc:eps=0.05,util=latency"`,
//! `"pcc:tm=1,rct=false"`, `"cubic:paced=true"`. The grammar:
//!
//! ```text
//! spec   := name [ ":" pairs ]
//! pairs  := "" | pair ("," pair)*
//! pair   := key "=" value
//! ```
//!
//! `"name:"` with an empty pair list is equivalent to plain `"name"`.
//! Parsing never panics on any input; syntactic garbage and semantic
//! violations (unknown key, out-of-range or mistyped value) both surface
//! as a typed [`InvalidParam`] that lists the algorithm's valid keys.
//!
//! Each registered algorithm carries a [`Schema`] (see
//! [`crate::registry::register`]) declaring its keys, their
//! types/ranges, and one-line docs. Validation happens inside
//! [`crate::registry::by_name`], so factories receive a pre-validated
//! [`SpecParams`] bag on [`crate::registry::CcParams`] and never need to
//! re-check or fail.

use std::collections::BTreeMap;

/// The type and admissible range of one spec parameter.
#[derive(Clone, Copy, Debug)]
pub enum ParamKind {
    /// A finite float in `[min, max]`.
    Float {
        /// Smallest admissible value.
        min: f64,
        /// Largest admissible value.
        max: f64,
    },
    /// `true` or `false`.
    Bool,
    /// One of a fixed set of identifiers.
    Choice(&'static [&'static str]),
}

impl ParamKind {
    /// Compact human-readable description (`float 0.001..=0.5`,
    /// `one of safe|simple|...`).
    pub fn describe(&self) -> String {
        match self {
            ParamKind::Float { min, max } => format!("float {min}..={max}"),
            ParamKind::Bool => "bool".to_string(),
            ParamKind::Choice(opts) => format!("one of {}", opts.join("|")),
        }
    }
}

/// One schema entry: a key an algorithm accepts.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// The key as written in spec strings.
    pub key: &'static str,
    /// Type and range.
    pub kind: ParamKind,
    /// One-line description for docs and error messages.
    pub doc: &'static str,
}

/// A per-algorithm parameter schema: the set of keys it accepts. The
/// empty schema means the algorithm takes no parameters.
pub type Schema = &'static [ParamSpec];

/// A cross-key validation hook, run by the registry after every key has
/// individually validated against the [`Schema`]. Use it for constraints
/// one key cannot express — e.g. "`eps_max` has no effect below `eps`".
/// Returns the offending key and the reason; the
/// registry wraps both into an [`InvalidParam`] that lists the valid
/// keys, so a parameter that cannot take effect is rejected exactly like
/// an unknown one.
pub type SchemaCheck = dyn Fn(&SpecParams) -> Result<(), (String, String)> + Send + Sync;

/// A validated, typed parameter value.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Validated [`ParamKind::Float`].
    Float(f64),
    /// Validated [`ParamKind::Bool`].
    Bool(bool),
    /// Validated [`ParamKind::Choice`] — the canonical option string.
    Choice(&'static str),
}

/// The typed key/value bag a validated spec produces, carried to the
/// algorithm factory on [`crate::registry::CcParams::spec`]. All lookups
/// are by key; values are pre-validated against the algorithm's
/// [`Schema`], so factories can trust types and ranges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpecParams {
    vals: BTreeMap<String, ParamValue>,
}

impl SpecParams {
    /// The float value of `key`, if present.
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.vals.get(key)? {
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value of `key`, if present.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.vals.get(key)? {
            ParamValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The choice value of `key`, if present.
    pub fn choice(&self, key: &str) -> Option<&'static str> {
        match self.vals.get(key)? {
            ParamValue::Choice(v) => Some(v),
            _ => None,
        }
    }

    /// True when the bag carries no parameters (plain-name construction).
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Number of parameters in the bag.
    pub fn len(&self) -> usize {
        self.vals.len()
    }
}

/// A parsed (but not yet validated) spec: the algorithm name plus raw
/// `key=value` pairs in source order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlgoSpec {
    /// The algorithm name before the `:`.
    pub name: String,
    /// Raw `key=value` pairs, unvalidated.
    pub params: Vec<(String, String)>,
}

/// Syntactic parse failure. Carries the name portion (everything before
/// the first `:`) so the caller can still attribute the error to an
/// algorithm and list its valid keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecSyntaxError {
    /// The name portion of the unparseable spec.
    pub name: String,
    /// The offending fragment (a pair without `=`, an empty key, ...).
    pub fragment: String,
    /// What went wrong.
    pub reason: String,
}

impl AlgoSpec {
    /// Parse a spec string. Never panics, whatever the input; the empty
    /// pair list (`"pcc:"`) is accepted and equivalent to the plain name.
    ///
    /// ```
    /// use pcc_transport::spec::AlgoSpec;
    ///
    /// // Valid spec strings: a bare name, and name:key=val pairs.
    /// let spec = AlgoSpec::parse("pcc:eps=0.05,util=latency").unwrap();
    /// assert_eq!(spec.name, "pcc");
    /// assert_eq!(spec.params.len(), 2);
    /// assert_eq!(spec.render(), "pcc:eps=0.05,util=latency");
    /// assert_eq!(AlgoSpec::parse("bbr").unwrap().params.len(), 0);
    /// assert_eq!(AlgoSpec::parse("pcc:").unwrap(), AlgoSpec::parse("pcc").unwrap());
    ///
    /// // Invalid spec strings are typed errors, never panics. (Note:
    /// // this is the *syntax* layer — semantic checks such as unknown
    /// // keys or out-of-range values happen against the algorithm's
    /// // schema in `registry::by_name`.)
    /// let err = AlgoSpec::parse("pcc:eps").unwrap_err();
    /// assert_eq!(err.name, "pcc");
    /// assert!(err.reason.contains("expected `key=value`"));
    /// assert!(AlgoSpec::parse("pcc:=1").is_err());      // empty key
    /// assert!(AlgoSpec::parse("pcc:eps=").is_err());    // empty value
    /// ```
    pub fn parse(s: &str) -> Result<AlgoSpec, SpecSyntaxError> {
        let Some((name, rest)) = s.split_once(':') else {
            return Ok(AlgoSpec {
                name: s.to_string(),
                params: Vec::new(),
            });
        };
        let mut params = Vec::new();
        if rest.is_empty() {
            return Ok(AlgoSpec {
                name: name.to_string(),
                params,
            });
        }
        for pair in rest.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(SpecSyntaxError {
                    name: name.to_string(),
                    fragment: pair.to_string(),
                    reason: "expected `key=value`".to_string(),
                });
            };
            if key.is_empty() {
                return Err(SpecSyntaxError {
                    name: name.to_string(),
                    fragment: pair.to_string(),
                    reason: "empty key".to_string(),
                });
            }
            if value.is_empty() {
                return Err(SpecSyntaxError {
                    name: name.to_string(),
                    fragment: pair.to_string(),
                    reason: "empty value".to_string(),
                });
            }
            params.push((key.to_string(), value.to_string()));
        }
        Ok(AlgoSpec {
            name: name.to_string(),
            params,
        })
    }

    /// Canonical string form: `name` when the pair list is empty, else
    /// `name:key=val,...` in the stored order.
    pub fn render(&self) -> String {
        if self.params.is_empty() {
            return self.name.clone();
        }
        let pairs: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}:{}", self.name, pairs.join(","))
    }
}

/// Semantic spec failure: an unknown key, or a value that fails its key's
/// type/range check. Lists the algorithm's valid keys so the error is
/// self-documenting (empty list = the algorithm takes no parameters).
#[derive(Clone, Debug, PartialEq)]
pub struct InvalidParam {
    /// The algorithm the spec addressed.
    pub algo: String,
    /// The offending key (or raw fragment for syntax errors).
    pub key: String,
    /// What was wrong with it.
    pub reason: String,
    /// The valid keys, rendered as `key=<type range>` (empty when the
    /// algorithm takes no parameters).
    pub valid: Vec<String>,
}

impl std::fmt::Display for InvalidParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid parameter `{}` for `{}`: {}",
            self.key, self.algo, self.reason
        )?;
        if self.valid.is_empty() {
            write!(f, " (`{}` takes no parameters)", self.algo)
        } else {
            write!(f, "; valid keys: {}", self.valid.join(", "))
        }
    }
}

impl std::error::Error for InvalidParam {}

/// Render a schema's keys for error messages and listings.
pub fn describe_schema(schema: Schema) -> Vec<String> {
    schema
        .iter()
        .map(|p| format!("{}=<{}>", p.key, p.kind.describe()))
        .collect()
}

/// Validate raw `key=value` pairs against `schema`, producing the typed
/// bag. Duplicate keys, unknown keys, and mistyped/out-of-range values
/// are an [`InvalidParam`].
pub fn validate(
    algo: &str,
    schema: Schema,
    raw: &[(String, String)],
) -> Result<SpecParams, InvalidParam> {
    let invalid = |key: &str, reason: String| InvalidParam {
        algo: algo.to_string(),
        key: key.to_string(),
        reason,
        valid: describe_schema(schema),
    };
    let mut vals = BTreeMap::new();
    for (key, value) in raw {
        let Some(spec) = schema.iter().find(|p| p.key == key.as_str()) else {
            return Err(invalid(key, "unknown key".to_string()));
        };
        let parsed = match spec.kind {
            ParamKind::Float { min, max } => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= min && v <= max => ParamValue::Float(v),
                Ok(v) => {
                    return Err(invalid(
                        key,
                        format!("value {v} out of range {min}..={max}"),
                    ))
                }
                Err(_) => return Err(invalid(key, format!("`{value}` is not a float"))),
            },
            ParamKind::Bool => match value.as_str() {
                "true" => ParamValue::Bool(true),
                "false" => ParamValue::Bool(false),
                _ => return Err(invalid(key, format!("`{value}` is not `true`/`false`"))),
            },
            ParamKind::Choice(opts) => match opts.iter().find(|o| **o == value.as_str()) {
                Some(canon) => ParamValue::Choice(canon),
                None => {
                    return Err(invalid(
                        key,
                        format!("`{value}` is not one of {}", opts.join("|")),
                    ))
                }
            },
        };
        if vals.insert(key.clone(), parsed).is_some() {
            return Err(invalid(key, "duplicate key".to_string()));
        }
    }
    Ok(SpecParams { vals })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: Schema = &[
        ParamSpec {
            key: "eps",
            kind: ParamKind::Float {
                min: 0.001,
                max: 0.5,
            },
            doc: "granularity",
        },
        ParamSpec {
            key: "rct",
            kind: ParamKind::Bool,
            doc: "randomized trials",
        },
        ParamSpec {
            key: "util",
            kind: ParamKind::Choice(&["safe", "latency"]),
            doc: "objective",
        },
    ];

    #[test]
    fn plain_name_parses_with_no_params() {
        let s = AlgoSpec::parse("pcc").expect("plain");
        assert_eq!(s.name, "pcc");
        assert!(s.params.is_empty());
        assert_eq!(s.render(), "pcc");
    }

    #[test]
    fn empty_pair_list_is_equivalent_to_plain_name() {
        let bare = AlgoSpec::parse("pcc").expect("plain");
        let colon = AlgoSpec::parse("pcc:").expect("trailing colon");
        assert_eq!(colon.name, bare.name);
        assert_eq!(colon.params, bare.params);
        // Renders back to the canonical (colon-free) form.
        assert_eq!(colon.render(), "pcc");
    }

    #[test]
    fn pairs_parse_in_order() {
        let s = AlgoSpec::parse("pcc:eps=0.05,util=latency").expect("pairs");
        assert_eq!(s.name, "pcc");
        assert_eq!(
            s.params,
            vec![
                ("eps".to_string(), "0.05".to_string()),
                ("util".to_string(), "latency".to_string()),
            ]
        );
        assert_eq!(s.render(), "pcc:eps=0.05,util=latency");
    }

    #[test]
    fn syntax_errors_are_typed() {
        for bad in ["pcc:eps", "pcc:=3", "pcc:eps=", "pcc:a=1,,b=2"] {
            let err = AlgoSpec::parse(bad).expect_err(bad);
            assert_eq!(err.name, "pcc", "{bad}");
        }
    }

    #[test]
    fn validation_types_and_ranges() {
        let raw = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let bag = validate(
            "x",
            SCHEMA,
            &raw(&[("eps", "0.05"), ("rct", "false"), ("util", "latency")]),
        )
        .expect("all valid");
        assert_eq!(bag.f64("eps"), Some(0.05));
        assert_eq!(bag.bool("rct"), Some(false));
        assert_eq!(bag.choice("util"), Some("latency"));
        assert_eq!(bag.len(), 3);

        for (pairs, needle) in [
            (raw(&[("nope", "1")]), "unknown key"),
            (raw(&[("eps", "0.9")]), "out of range"),
            (raw(&[("eps", "abc")]), "not a float"),
            (raw(&[("rct", "yes")]), "not `true`/`false`"),
            (raw(&[("util", "fast")]), "not one of"),
            (raw(&[("eps", "0.01"), ("eps", "0.02")]), "duplicate"),
        ] {
            let err = validate("x", SCHEMA, &pairs).expect_err(needle);
            assert!(err.reason.contains(needle), "{}: {}", needle, err.reason);
            assert_eq!(err.algo, "x");
            assert!(
                err.valid.iter().any(|d| d.contains("eps")),
                "valid keys listed: {:?}",
                err.valid
            );
        }
    }

    #[test]
    fn empty_schema_reports_no_parameters() {
        let err = validate("sab", &[], &[("k".to_string(), "1".to_string())]).expect_err("no keys");
        assert!(err.valid.is_empty());
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Identifier-ish strings free of the grammar's delimiters.
    fn ident(rng_byte: &[u8]) -> String {
        const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-.";
        rng_byte
            .iter()
            .map(|b| ALPHA[(*b as usize) % ALPHA.len()] as char)
            .collect()
    }

    proptest! {
        /// Arbitrary junk never panics the parser (and rendering whatever
        /// *does* parse re-parses to the same spec).
        #[test]
        fn junk_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            let s = String::from_utf8_lossy(&bytes).into_owned();
            if let Ok(spec) = AlgoSpec::parse(&s) {
                let rendered = spec.render();
                // Canonical forms are a fixed point of parse∘render.
                let again = AlgoSpec::parse(&rendered).expect("canonical re-parses");
                prop_assert_eq!(again, spec);
            }
        }

        /// parse(render(spec)) == spec for specs built from delimiter-free
        /// components.
        #[test]
        fn render_parse_round_trip(
            name_b in proptest::collection::vec(0u8..=255, 1..12),
            pairs_b in proptest::collection::vec(
                (proptest::collection::vec(0u8..=255, 1..8),
                 proptest::collection::vec(0u8..=255, 1..8)),
                0..6),
        ) {
            let spec = AlgoSpec {
                name: ident(&name_b),
                params: pairs_b
                    .iter()
                    .map(|(k, v)| (ident(k), ident(v)))
                    .collect(),
            };
            let parsed = AlgoSpec::parse(&spec.render()).expect("round-trip parses");
            prop_assert_eq!(parsed, spec);
        }

        /// A trailing colon with no pairs is always equivalent to the
        /// plain name.
        #[test]
        fn trailing_colon_equals_plain(name_b in proptest::collection::vec(0u8..=255, 1..12)) {
            let name = ident(&name_b);
            let plain = AlgoSpec::parse(&name).expect("plain");
            let colon = AlgoSpec::parse(&format!("{name}:")).expect("colon");
            prop_assert_eq!(plain, colon);
        }
    }
}
