//! Property tests for the hand-rolled lexer: it must be *total* (never
//! panic, whatever bytes it is fed) and must never hallucinate a lint
//! trigger out of a string literal or comment — the two properties the
//! whole analyzer's trustworthiness rests on.

use pcc_lint::lexer::{lex, TokKind};
use pcc_lint::lint_source;
use pcc_lint::rules::Policy;
use proptest::{prop_assert, prop_assert_eq, proptest, Strategy};

fn det_policy() -> Policy {
    Policy {
        crate_name: "pcc-prop".to_string(),
        real_time: false,
    }
}

/// Every identifier the token rules key on.
const TRIGGERS: &[&str] = &[
    "HashMap",
    "HashSet",
    "SystemTime",
    "thread_rng",
    "OsRng",
    "RandomState",
    "getrandom",
    "from_entropy",
];

/// Characters that stress the lexer's literal/comment state machine.
const SPICE: &[&str] = &[
    "\"", "'", "\\", "//", "/*", "*/", "r#", "r\"", "b\"", "#", "\n", "'a", "0x", "::",
];

proptest! {
    #[test]
    fn lexer_never_panics_on_junk(bytes in proptest::collection::vec(0u8..=255, 0..200usize)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let toks = lex(&src);
        // Positions are 1-based and lines never go backwards.
        let mut last_line = 1;
        for t in &toks {
            prop_assert!(t.line >= 1 && t.col >= 1);
            prop_assert!(t.line >= last_line, "line went backwards at {:?}", t);
            last_line = t.line;
        }
    }

    #[test]
    fn lexer_never_panics_on_spiced_source(
        picks in proptest::collection::vec((0usize..SPICE.len(), 0usize..TRIGGERS.len()), 0..40usize)
    ) {
        // Interleave literal-delimiter shrapnel with trigger words: the
        // worst case for a state machine that tracks "am I in a string".
        let mut src = String::new();
        for (s, t) in picks {
            src.push_str(SPICE[s]);
            src.push_str(TRIGGERS[t]);
            src.push(' ');
        }
        let toks = lex(&src);
        prop_assert!(toks.len() <= src.len() + 1);
    }

    #[test]
    fn triggers_inside_literals_never_fire(t in (0usize..TRIGGERS.len()).prop_map(|i| TRIGGERS[i])) {
        for wrapped in [
            format!("let s = \"call {t}() here\";"),
            format!("let s = r#\"raw {t} text\"#;"),
            format!("// comment mentioning {t}\nlet x = 1;"),
            format!("/* block with {t}\n   spanning lines */ let x = 1;"),
            format!("let b = b\"{t}\";"),
        ] {
            let diags = lint_source("p.rs", &wrapped, &det_policy());
            prop_assert!(diags.is_empty(), "{t} fired from inside a literal: {diags:?}");
        }
        // The same trigger as a bare code identifier DOES fire — the
        // negative property above isn't vacuous.
        let bare = format!("let x = {t};");
        prop_assert_eq!(lint_source("p.rs", &bare, &det_policy()).len(), 1);
    }

    #[test]
    fn comment_tokens_carry_their_text(n in 1u32..50) {
        // A generated source of n comment lines lexes to exactly n
        // line-comment tokens at the right lines.
        let src: String = (0..n).map(|i| format!("// c{i}\n")).collect();
        let toks = lex(&src);
        let comments: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::LineComment).collect();
        prop_assert_eq!(comments.len() as u32, n);
        for (i, c) in comments.iter().enumerate() {
            prop_assert_eq!(c.line, i as u32 + 1);
            prop_assert!(c.text.contains(&format!("c{i}")));
        }
    }
}
