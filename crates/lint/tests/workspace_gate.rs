//! The gate itself, as a test: linting the real workspace must produce
//! zero diagnostics. This is the same check CI runs via
//! `pcc-lint --deny-all`, kept here too so a plain `cargo test` catches
//! a determinism-contract violation without the extra CI step.

use std::path::Path;

use pcc_lint::lint_workspace;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let report = lint_workspace(root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "walker found only {} files — did the member list parse?",
        report.files_scanned
    );
    assert!(
        report.manifests_scanned >= 12,
        "walker found only {} manifests (root + 11 members)",
        report.manifests_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace must be lint-clean, got:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.render_human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
