//! Fixture tests: every lint id has a file under `fixtures/` that makes
//! it fire, and the expected diagnostics are pinned down to exact
//! `(id, line, col)` — so a lexer or rule regression that shifts an
//! anchor (or silently stops firing) fails loudly here.
//!
//! The `fixtures/` directory is excluded from the workspace walk (see
//! `walk::SKIP_DIRS`), so these deliberate violations never trip the
//! `--deny-all` CI gate.

use pcc_lint::lexer::lex;
use pcc_lint::rules::Policy;
use pcc_lint::{lint_source, manifest, parity};

fn det_policy() -> Policy {
    Policy {
        crate_name: "pcc-fixture".to_string(),
        real_time: false,
    }
}

/// Lint a fixture and reduce to sorted `(id, line, col)` triples.
fn triples(name: &str, src: &str) -> Vec<(&'static str, u32, u32)> {
    let mut out: Vec<(&'static str, u32, u32)> = lint_source(name, src, &det_policy())
        .into_iter()
        .map(|d| (d.id, d.line, d.col))
        .collect();
    out.sort();
    out
}

#[test]
fn l001_nondet_collection() {
    let got = triples("l001.rs", include_str!("../fixtures/l001.rs"));
    // The two bare imports fire; the reasoned allow covers the fn on the
    // next line; decoys in strings/comments are invisible.
    assert_eq!(got, vec![("L001", 2, 23), ("L001", 3, 23)]);
}

#[test]
fn l002_wall_clock() {
    let got = triples("l002.rs", include_str!("../fixtures/l002.rs"));
    // `use std::time::Instant` (naming the type) is NOT a hit; the
    // `::now()` call and any `SystemTime` mention are.
    assert_eq!(got, vec![("L002", 5, 14), ("L002", 6, 28)]);
}

#[test]
fn l003_unseeded_randomness() {
    let got = triples("l003.rs", include_str!("../fixtures/l003.rs"));
    assert_eq!(got, vec![("L003", 3, 19), ("L003", 4, 17), ("L003", 5, 14)]);
}

#[test]
fn l004_lock_poison() {
    let got = triples("l004.rs", include_str!("../fixtures/l004.rs"));
    // Anchored at the lock/read/write identifier, even when the chain
    // spans lines; `unwrap_or_else(PoisonError::into_inner)` and an
    // io::Read with arguments do not fire.
    assert_eq!(got, vec![("L004", 5, 16), ("L004", 6, 17), ("L004", 8, 10)]);
}

#[test]
fn l007_float_total_order() {
    let got = triples("l007.rs", include_str!("../fixtures/l007.rs"));
    assert_eq!(got, vec![("L007", 3, 24), ("L007", 4, 24)]);
}

#[test]
fn l000_accountable_suppressions() {
    let got = triples("l000.rs", include_str!("../fixtures/l000.rs"));
    // A reasonless allow is L000 *and* suppresses nothing, so the L001
    // underneath it still fires; an unknown-id allow is a second L000
    // that equally fails to shield the HashMap on the line below it.
    assert_eq!(
        got,
        vec![
            ("L000", 2, 1),
            ("L000", 4, 1),
            ("L001", 3, 23),
            ("L001", 5, 9)
        ]
    );
}

#[test]
fn l005_registry_parity() {
    let full = parity::extract(&lex(include_str!("../fixtures/l005_scenarios.rs")))
        .expect("side A defines install_registry");
    let partial = parity::extract(&lex(include_str!("../fixtures/l005_udp.rs")))
        .expect("side B defines install_registry");
    let diags = parity::check(("l005_scenarios.rs", &full), ("l005_udp.rs", &partial));
    // Side B is missing the tcp family call; the diagnostic anchors at
    // *its* install_registry.
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(
        (d.id, d.path.as_str(), d.line, d.col),
        ("L005", "l005_udp.rs", 2, 8)
    );
    assert!(d.message.contains("pcc_tcp::register_algorithms"));
}

#[test]
fn l006_dep_free() {
    let diags = manifest::lint_manifest(
        "l006_Cargo.toml",
        include_str!("../fixtures/l006_Cargo.toml"),
    );
    let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.id, d.line)).collect();
    // serde (registry), rand (inline table without path), and the
    // long-form `[dev-dependencies.fetched]` table; pcc-core is fine.
    assert_eq!(got, vec![("L006", 6), ("L006", 7), ("L006", 9)]);
}

#[test]
fn clean_fixture_is_clean() {
    let got = triples("clean.rs", include_str!("../fixtures/clean.rs"));
    assert_eq!(
        got,
        Vec::new(),
        "triggers hidden in literals/comments must not fire"
    );
}
