//! L005 registry-parity: the cross-file semantic check.
//!
//! The simulator side (`pcc_scenarios::install_registry`) and the
//! real-socket side (`pcc_udp::install_registry`) must assemble the same
//! algorithm registry, or a name resolves in one datapath and not the
//! other — exactly the PR 2 `bbr` bug, where the algorithm existed for
//! scenarios but `udp_transfer -- bbr` failed. This check extracts every
//! `X::register_algorithms()` call from each `install_registry` body and
//! diagnoses any asymmetry.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// What one `install_registry` registers, with the fn's anchor position.
#[derive(Debug)]
pub struct Registrations {
    /// `X::register_algorithms` for every such call in the body.
    pub names: BTreeSet<String>,
    /// Line of the `install_registry` identifier.
    pub line: u32,
    /// Column of the `install_registry` identifier.
    pub col: u32,
}

/// Extract registrations from a lexed file, if it defines
/// `fn install_registry`.
pub fn extract(toks: &[Tok]) -> Option<Registrations> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let fn_ix = code
        .windows(2)
        .position(|w| w[0].is_ident("fn") && w[1].is_ident("install_registry"))?
        + 1;
    // Find the body braces.
    let open = (fn_ix..code.len()).find(|&j| code[j].is_punct('{'))?;
    let mut depth = 0i32;
    let mut close = code.len();
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                close = j;
                break;
            }
        }
    }
    let body = &code[open..close];
    let mut names = BTreeSet::new();
    for (j, t) in body.iter().enumerate() {
        // `X::register_algorithms()` — record the source crate path `X`.
        if t.is_ident("register_algorithms")
            && j >= 3
            && body[j - 1].is_punct(':')
            && body[j - 2].is_punct(':')
            && body[j - 3].kind == TokKind::Ident
        {
            names.insert(format!("{}::register_algorithms", body[j - 3].text));
        }
    }
    Some(Registrations {
        names,
        line: code[fn_ix].line,
        col: code[fn_ix].col,
    })
}

/// Compare the two sides; one diagnostic per missing entry, anchored at
/// the deficient side's `install_registry`.
pub fn check(a: (&str, &Registrations), b: (&str, &Registrations)) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for ((here_path, here), (there_path, there)) in [(a, b), (b, a)] {
        for missing in there.names.difference(&here.names) {
            diags.push(Diagnostic {
                id: "L005",
                path: here_path.to_string(),
                line: here.line,
                col: here.col,
                message: format!(
                    "registry parity broken: `{missing}` is registered in \
                     {there_path} but not here — the name would resolve on one \
                     datapath and fail on the other"
                ),
                help: Some("add the same registration to both install_registry bodies".to_string()),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const SIDE_A: &str = r#"
        pub fn install_registry() {
            ONCE.call_once(|| {
                pcc_core::register_algorithms();
                pcc_tcp::register_algorithms();
            });
        }
    "#;

    #[test]
    fn extracts_register_algorithms_calls() {
        let r = extract(&lex(SIDE_A)).expect("found fn");
        let names: Vec<&str> = r.names.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "pcc_core::register_algorithms",
                "pcc_tcp::register_algorithms"
            ]
        );
    }

    #[test]
    fn symmetric_sides_are_clean() {
        let a = extract(&lex(SIDE_A)).unwrap();
        let b = extract(&lex(SIDE_A)).unwrap();
        assert!(check(("a.rs", &a), ("b.rs", &b)).is_empty());
    }

    #[test]
    fn missing_registration_fires_on_the_deficient_side() {
        let a = extract(&lex(SIDE_A)).unwrap();
        let b = extract(&lex(
            "fn install_registry() { pcc_core::register_algorithms(); }",
        ))
        .unwrap();
        let diags = check(("full.rs", &a), ("partial.rs", &b));
        assert_eq!(diags.len(), 1, "{diags:?}"); // the tcp call
        assert!(diags[0].path == "partial.rs" && diags[0].id == "L005");
    }

    #[test]
    fn no_fn_no_extraction() {
        assert!(extract(&lex("fn other() {}")).is_none());
    }
}
