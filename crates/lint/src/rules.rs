//! The lint catalog: repo-specific rules over the token stream.
//!
//! Each rule has a stable id (`L001`…), fires with a `file:line:col`
//! anchor, and suggests the canonical idiom. The cross-file `L005` check
//! lives in [`crate::parity`]; the manifest check `L006` in
//! [`crate::manifest`]; this module holds the per-file token rules.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// One catalog entry: id, short slug, what it enforces.
pub struct LintInfo {
    /// Stable id (`L001`…).
    pub id: &'static str,
    /// Kebab-case slug used in docs and `--list`.
    pub slug: &'static str,
    /// One-line rule statement.
    pub rule: &'static str,
}

/// The full catalog (including `L000`, the meta-lint for malformed
/// suppressions). Mirrored in ARCHITECTURE.md's "Determinism contract,
/// enforced" table.
pub const CATALOG: &[LintInfo] = &[
    LintInfo {
        id: "L000",
        slug: "bad-suppression",
        rule: "every `lint: allow(...)` must name known ids and carry a reason",
    },
    LintInfo {
        id: "L001",
        slug: "nondet-collection",
        rule: "no default-hasher HashMap/HashSet in deterministic crates",
    },
    LintInfo {
        id: "L002",
        slug: "wall-clock-in-sim",
        rule: "no Instant::now/SystemTime outside the real-time crates",
    },
    LintInfo {
        id: "L003",
        slug: "unseeded-randomness",
        rule: "every RNG derives from SimRng/seed plumbing, never ambient entropy",
    },
    LintInfo {
        id: "L004",
        slug: "lock-poison",
        rule: "lock()/read()/write() must recover poison via PoisonError::into_inner, not unwrap",
    },
    LintInfo {
        id: "L005",
        slug: "registry-parity",
        rule: "pcc_scenarios::install_registry and pcc_udp::install_registry register the same set",
    },
    LintInfo {
        id: "L006",
        slug: "dep-free",
        rule: "every Cargo.toml dependency is an in-workspace path dep (no-network build)",
    },
    LintInfo {
        id: "L007",
        slug: "float-total-order",
        rule: "no partial_cmp(..).unwrap()/expect() on floats; use total_cmp",
    },
];

/// Is `id` a catalog id (valid in an `allow(...)`)? `L000` itself is not
/// suppressible — a broken suppression cannot excuse itself.
pub fn is_known_id(id: &str) -> bool {
    id != "L000" && CATALOG.iter().any(|l| l.id == id)
}

/// All suppressible ids, for error messages.
pub fn known_ids() -> Vec<&'static str> {
    CATALOG
        .iter()
        .map(|l| l.id)
        .filter(|i| *i != "L000")
        .collect()
}

/// Per-file enforcement policy, derived from which crate a file belongs
/// to (see [`crate::REAL_TIME_CRATES`]).
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Crate the file belongs to (diagnostic messages name it).
    pub crate_name: String,
    /// Skip L001/L002: the crate's job is real sockets, so its outputs
    /// are outside the determinism contract.
    pub real_time: bool,
}

/// RNG constructors/types that pull ambient entropy. Any of these
/// appearing as a code identifier is an L003 hit — the workspace's only
/// sanctioned randomness is `SimRng` seeded through the scenario/seed
/// plumbing (and `SimRng::derive` for substreams).
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "from_rng",
    "OsRng",
    "getrandom",
    "RandomState",
];

/// Run every per-file token rule over `toks` (comments included; rules
/// skip them). Suppressions are applied by the caller.
pub fn run(path: &str, toks: &[Tok], policy: &Policy) -> Vec<Diagnostic> {
    // Comments out: rules see pure code tokens.
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut diags = Vec::new();
    let mut push = |id: &'static str, t: &Tok, message: String, help: Option<String>| {
        diags.push(Diagnostic {
            id,
            path: path.to_string(),
            line: t.line,
            col: t.col,
            message,
            help,
        });
    };

    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // L001 nondet-collection.
        if !policy.real_time && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                "L001",
                t,
                format!(
                    "default-hasher `{}` in deterministic crate `{}`: iteration order is \
                     per-process random and can leak into output",
                    t.text, policy.crate_name
                ),
                Some(format!(
                    "use `BTree{}` or an index-keyed Vec; if order provably never escapes, \
                     suppress with a written determinism argument",
                    &t.text[4..]
                )),
            );
        }
        // L002 wall-clock-in-sim.
        if !policy.real_time {
            if t.text == "Instant" && path_call(&code, i, "now") {
                push(
                    "L002",
                    t,
                    format!(
                        "`Instant::now()` in deterministic crate `{}`: simulated results \
                         must come from SimTime, never the wall clock",
                        policy.crate_name
                    ),
                    Some("thread `SimTime`/`ctx.now` through instead".to_string()),
                );
            }
            if t.text == "SystemTime" {
                push(
                    "L002",
                    t,
                    format!(
                        "`SystemTime` in deterministic crate `{}`: wall-clock reads make \
                         runs unreproducible",
                        policy.crate_name
                    ),
                    Some("thread `SimTime`/`ctx.now` through instead".to_string()),
                );
            }
        }
        // L003 unseeded-randomness.
        if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            push(
                "L003",
                t,
                format!(
                    "`{}` draws ambient entropy: every RNG must be constructed from \
                     `SimRng` / the seed plumbing so runs are per-seed reproducible",
                    t.text
                ),
                Some("derive a stream with `SimRng::new(seed)` / `rng.derive(tag)`".to_string()),
            );
        }
        // L004 lock-poison: `.lock().unwrap()` / `.read().expect(..)` etc.
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|p| p.is_punct('('))
            && code.get(i + 2).is_some_and(|p| p.is_punct(')'))
            && code.get(i + 3).is_some_and(|p| p.is_punct('.'))
            && code
                .get(i + 4)
                .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
        {
            push(
                "L004",
                t,
                format!(
                    "`.{}().{}(..)` panics forever after one poisoning panic elsewhere",
                    t.text,
                    code[i + 4].text
                ),
                Some(
                    "recover with `.unwrap_or_else(std::sync::PoisonError::into_inner)` \
                     (the registry.rs idiom)"
                        .to_string(),
                ),
            );
        }
        // L007 float-total-order: `.partial_cmp(...).unwrap()/.expect(...)`.
        if t.text == "partial_cmp"
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            if let Some(close) = matching_paren(&code, i + 1) {
                if code.get(close + 1).is_some_and(|p| p.is_punct('.'))
                    && code
                        .get(close + 2)
                        .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                {
                    push(
                        "L007",
                        t,
                        format!(
                            "`.partial_cmp(..).{}(..)` panics on NaN mid-sort",
                            code[close + 2].text
                        ),
                        Some("use `f64::total_cmp` in comparators".to_string()),
                    );
                }
            }
        }
    }
    diags
}

/// Does `code[i]` start a `X::name` path call, i.e. is it followed by
/// `::` and the identifier `name`?
fn path_call(code: &[&Tok], i: usize, name: &str) -> bool {
    code.get(i + 1).is_some_and(|p| p.is_punct(':'))
        && code.get(i + 2).is_some_and(|p| p.is_punct(':'))
        && code.get(i + 3).is_some_and(|n| n.is_ident(name))
}

/// Index of the `)` matching the `(` at `open` (None if unbalanced).
fn matching_paren(code: &[&Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn det_policy() -> Policy {
        Policy {
            crate_name: "pcc-test".to_string(),
            real_time: false,
        }
    }

    fn ids(src: &str, policy: &Policy) -> Vec<&'static str> {
        run("t.rs", &lex(src), policy)
            .into_iter()
            .map(|d| d.id)
            .collect()
    }

    #[test]
    fn l001_fires_on_idents_not_strings() {
        let p = det_policy();
        assert_eq!(ids("use std::collections::HashMap;", &p), vec!["L001"]);
        assert_eq!(
            ids("let s = \"HashMap\"; // HashSet", &p),
            Vec::<&str>::new()
        );
        assert!(ids(
            "x",
            &Policy {
                real_time: true,
                ..det_policy()
            }
        )
        .is_empty());
    }

    #[test]
    fn l002_needs_the_now_call_path() {
        let p = det_policy();
        assert_eq!(ids("let t = Instant::now();", &p), vec!["L002"]);
        // Storing/naming the type is fine; only the wall-clock read trips.
        assert!(ids("use std::time::Instant;", &p).is_empty());
        assert_eq!(ids("SystemTime::UNIX_EPOCH", &p), vec!["L002"]);
    }

    #[test]
    fn l004_matches_unwrap_and_expect_across_lines() {
        let p = det_policy();
        assert_eq!(ids("m.lock().unwrap();", &p), vec!["L004"]);
        assert_eq!(
            ids("t\n  .read()\n  .expect(\"poisoned\")", &p),
            vec!["L004"]
        );
        // The canonical idiom does not fire.
        assert!(ids("m.lock().unwrap_or_else(PoisonError::into_inner)", &p).is_empty());
        // A read with arguments is io::Read, not a lock.
        assert!(ids("f.read(&mut buf).unwrap()", &p).is_empty());
    }

    #[test]
    fn l007_spans_the_argument_list() {
        let p = det_policy();
        assert_eq!(
            ids("v.sort_by(|a, b| a.partial_cmp(b).unwrap());", &p),
            vec!["L007"]
        );
        assert_eq!(
            ids("a.partial_cmp(&f(x, y)).expect(\"no NaN\")", &p),
            vec!["L007"]
        );
        assert!(ids("a.partial_cmp(b)", &p).is_empty());
        // Defining PartialOrd is fine.
        assert!(ids(
            "fn partial_cmp(&self, o: &Self) -> Option<Ordering> { }",
            &p
        )
        .is_empty());
    }

    #[test]
    fn l003_entropy_sources() {
        let p = det_policy();
        assert_eq!(ids("let mut r = thread_rng();", &p), vec!["L003"]);
        assert_eq!(
            ids("HashMap::with_hasher(RandomState::new())", &p),
            vec!["L001", "L003"]
        );
        assert!(ids("let r = SimRng::new(seed).derive(7);", &p).is_empty());
    }
}
