//! `pcc-lint`: the in-repo determinism & hygiene auditor.
//!
//! Every result this workspace reports rests on a determinism contract —
//! bit-identical tables at any `--jobs`, per-seed reproducible runs —
//! that a stray `HashMap` iteration, wall-clock read, or unseeded draw
//! silently breaks. This crate makes the contract *machine-checked*: a
//! dependency-free static analyzer with a hand-rolled Rust lexer
//! ([`lexer`]) that walks every workspace crate ([`walk`]) and enforces
//! the lint catalog ([`rules::CATALOG`]):
//!
//! | id | slug | rule |
//! |----|------|------|
//! | L001 | nondet-collection | no default-hasher `HashMap`/`HashSet` in deterministic crates |
//! | L002 | wall-clock-in-sim | no `Instant::now`/`SystemTime` outside the real-time crates |
//! | L003 | unseeded-randomness | every RNG derives from `SimRng`/seed plumbing |
//! | L004 | lock-poison | poison recovery via `PoisonError::into_inner`, not `unwrap` |
//! | L005 | registry-parity | both `install_registry` bodies register the same set |
//! | L006 | dep-free | every Cargo.toml dependency is an in-workspace path dep |
//! | L007 | float-total-order | `total_cmp`, never `partial_cmp(..).unwrap()` |
//!
//! Suppression is per-site and accountable: `// lint: allow(L00x) — <reason>`
//! on (or directly above) the offending line; a missing reason is itself
//! a diagnostic (`L000`, see [`suppress`]). `pcc-lint --deny-all` is the
//! CI gate: it exits non-zero on any diagnostic.

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod parity;
pub mod rules;
pub mod suppress;
pub mod walk;

use std::io;
use std::path::Path;

use diag::Diagnostic;
use rules::Policy;

/// Crates exempt from L001/L002: `pcc-udp`'s entire job is real sockets,
/// so its outputs are outside the determinism contract. (The repo
/// benchmark under `benchmark/` times wall clock too, but lives outside
/// the workspace this catalog walks.)
pub const REAL_TIME_CRATES: &[&str] = &["pcc-udp"];

/// The crates whose `install_registry` bodies L005 compares.
pub const PARITY_CRATES: [&str; 2] = ["pcc-scenarios", "pcc-udp"];

/// Result of a workspace lint run.
pub struct Report {
    /// Every unsuppressed finding, sorted by (path, line, col, id).
    pub diagnostics: Vec<Diagnostic>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Manifests scanned.
    pub manifests_scanned: usize,
}

/// Lint one source file: token rules filtered through its suppression
/// comments, plus `L000` for malformed suppressions. Exposed for the
/// fixture tests; [`lint_workspace`] is the real entry point.
pub fn lint_source(path: &str, src: &str, policy: &Policy) -> Vec<Diagnostic> {
    let toks = lexer::lex(src);
    let (allows, mut diags) = suppress::collect(path, &toks);
    diags.extend(
        rules::run(path, &toks, policy)
            .into_iter()
            .filter(|d| !suppress::is_suppressed(&allows, d.id, d.line)),
    );
    diags
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let ws = walk::load(root)?;
    let mut diagnostics = Vec::new();

    // Per-file token lints (L000–L004, L007).
    for f in &ws.sources {
        let policy = Policy {
            crate_name: f.crate_name.clone(),
            real_time: REAL_TIME_CRATES.contains(&f.crate_name.as_str()),
        };
        diagnostics.extend(lint_source(&f.rel_path, &f.src, &policy));
    }

    // L005 registry parity: find each side's `install_registry`.
    let mut sides: Vec<Option<(String, parity::Registrations)>> = vec![None, None];
    for f in &ws.sources {
        let Some(slot) = PARITY_CRATES.iter().position(|c| *c == f.crate_name) else {
            continue;
        };
        if let Some(regs) = parity::extract(&lexer::lex(&f.src)) {
            sides[slot] = Some((f.rel_path.clone(), regs));
        }
    }
    match (&sides[0], &sides[1]) {
        (Some(a), Some(b)) => {
            diagnostics.extend(parity::check((&a.0, &a.1), (&b.0, &b.1)));
        }
        _ => {
            for (slot, side) in sides.iter().enumerate() {
                if side.is_none() {
                    diagnostics.push(Diagnostic {
                        id: "L005",
                        path: "Cargo.toml".to_string(),
                        line: 1,
                        col: 1,
                        message: format!(
                            "registry-parity anchor lost: no `fn install_registry` found in \
                             crate `{}` — if it moved or was renamed, update pcc-lint's \
                             PARITY_CRATES so the cross-datapath check keeps running",
                            PARITY_CRATES[slot]
                        ),
                        help: None,
                    });
                }
            }
        }
    }

    // L006 dep-free on every manifest.
    for m in &ws.manifests {
        diagnostics.extend(manifest::lint_manifest(&m.rel_path, &m.src));
    }

    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.id).cmp(&(b.path.as_str(), b.line, b.col, b.id))
    });
    Ok(Report {
        diagnostics,
        files_scanned: ws.sources.len(),
        manifests_scanned: ws.manifests.len(),
    })
}
