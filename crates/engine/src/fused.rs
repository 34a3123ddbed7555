//! The fused multi-pattern decision automaton behind cold-path dispatch.
//!
//! Deciding a *new* leaf signature used to walk the program's branches and
//! run one full `Pattern::split` match per branch until one fired —
//! up to k+1 matcher runs (target + k branches) per distinct leaf, the
//! exact cost profile adversarial all-new-leaf streams maximize (the dense
//! leaf-id tier makes *repeat* leaves free, but can do nothing for a leaf
//! it has never seen). Compilation builds, over the slots `[target,
//! branch 0, branch 1, …]` (an opaque pattern's slot left empty), **one**
//! bit-parallel shift-and automaton — the shared [`MultiPatternAutomaton`]
//! (also the substrate of `clx-analyze`'s language-level diagnostics) —
//! answering which patterns match, i.e. the Conforming / branch-index /
//! Flagged decision, in a single scan over the leaf signature. Branch `i`
//! is segment `i + 1`.
//!
//! [`MultiPatternAutomaton`]: clx_pattern::automaton::MultiPatternAutomaton
//!
//! # The abstract alphabet
//!
//! The automaton's classify entry point never inspects concrete
//! alphanumeric characters — only the tokenizer's *leaf alphabet*
//! ([`TokenClass::leaf_class_index`]): a digit run of length n is n
//! abstract `<D>` symbols (likewise `<L>` and `<U>`), and every other
//! character is its own concrete symbol. The patterns admitted into the
//! automaton are exactly the *transparent* ones (no ASCII alphanumerics
//! inside literal tokens — see the `dispatch` module docs), whose match
//! relation is provably a function of that abstract string; opaque
//! patterns keep their per-row `Check*` plan steps exactly as before. See
//! the [`clx_pattern::automaton`] module docs for the position-predicate
//! layout and the step simulation.
//!
//! [`TokenClass::leaf_class_index`]: clx_pattern::TokenClass::leaf_class_index
//!
//! Construction is per-program and falls back — recorded, never silently
//! wrong — to the per-branch loop when the program cannot be encoded
//! ([`FusedFallback`]): combined width beyond [`FUSED_MAX_WIDTH`]
//! positions, or nothing transparent to decide.

/// Maximum combined automaton width, in bit positions: the sum over the
/// target and every transparent branch of their character positions. A
/// program needing more (e.g. a `<D>300` branch) compiles with
/// [`FusedFallback::WidthExceeded`] and keeps the per-branch loop.
pub const FUSED_MAX_WIDTH: usize = clx_pattern::automaton::MAX_WIDTH;

/// Why a compiled program runs cold-path decisions on the per-branch
/// matching loop instead of the fused automaton. Recorded per program at
/// compile time ([`crate::CompiledProgram::fused_fallback`]) and counted
/// as `engine.fused.fallbacks` when compiled under a telemetry sink.
/// Behavior is identical either way — only the cold-path cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedFallback {
    /// The target plus transparent branches need more than
    /// [`FUSED_MAX_WIDTH`] bit positions.
    WidthExceeded {
        /// Positions the program would need.
        required: usize,
    },
    /// Neither the target nor any branch is transparent, so the automaton
    /// would decide nothing.
    NothingTransparent,
    /// Fused dispatch was explicitly turned off
    /// ([`crate::CompiledProgram::without_fused`]).
    Disabled,
}

impl std::fmt::Display for FusedFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusedFallback::WidthExceeded { required } => write!(
                f,
                "patterns need {required} automaton positions (limit {FUSED_MAX_WIDTH})"
            ),
            FusedFallback::NothingTransparent => write!(f, "no transparent pattern to fuse"),
            FusedFallback::Disabled => write!(f, "fused dispatch disabled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledProgram;
    use clx_pattern::automaton::MultiPatternAutomaton;
    use clx_pattern::{parse_pattern, tokenize, Pattern, Token};
    use clx_unifi::{Branch, Expr, Program, StringExpr};

    /// `pattern` rewritten whole by one branch, compiled against `target`.
    fn compile_one(pattern: &Pattern, target: &Pattern) -> CompiledProgram {
        let branch = Branch::new(pattern.clone(), Expr::concat(vec![StringExpr::extract(1)]));
        CompiledProgram::compile(&Program::new(vec![branch]), target).unwrap()
    }

    /// Single-pattern automaton acceptance must agree with the
    /// `Pattern::matches` on transparent patterns.
    fn assert_agrees(pattern_text: &str, values: &[&str]) {
        let pattern = parse_pattern(pattern_text).unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&pattern)]).unwrap();
        for value in values {
            let leaf = tokenize(value);
            let m = automaton.classify(&leaf).expect("leaves always classify");
            assert_eq!(
                automaton.matches(&m, 0),
                pattern.matches(value),
                "pattern {pattern_text} on {value:?}"
            );
        }
    }

    #[test]
    fn exact_counts_match_like_the_backtracker() {
        assert_agrees(
            "<D>3'-'<D>4",
            &[
                "123-4567",
                "123-456",
                "1234567",
                "123-45678",
                "",
                "abc-defg",
            ],
        );
    }

    #[test]
    fn plus_quantifiers_self_loop() {
        assert_agrees(
            "<U>+'-'<D>+",
            &["A-1", "ABC-123", "-1", "A-", "A-1-2", "ABC-123X", "a-1"],
        );
    }

    #[test]
    fn alpha_positions_accept_both_cases() {
        assert_agrees("<A>3", &["abc", "ABC", "aBc", "ab1", "abcd", "ab"]);
    }

    #[test]
    fn alphanumeric_positions_accept_dash_and_underscore() {
        assert_agrees(
            "<AN>+",
            &["a1-B_2", "a b", "a.b", "---", "___", "x", "", "€"],
        );
    }

    #[test]
    fn adjacent_same_class_tokens_keep_their_counts() {
        // The leaf of "12345" is <D>5; the pattern still splits it 2+3.
        assert_agrees("<D>2<D>3", &["12345", "1234", "123456"]);
    }

    #[test]
    fn non_ascii_literals_are_symbols() {
        let pattern = tokenize("€42"); // '€' literal + <D>2
        let automaton = MultiPatternAutomaton::build(&[Some(&pattern)]).unwrap();
        for (value, want) in [("€42", true), ("€4", false), ("$42", false), ("42", false)] {
            let m = automaton.classify(&tokenize(value)).unwrap();
            assert_eq!(automaton.matches(&m, 0), want, "on {value:?}");
        }
    }

    #[test]
    fn empty_pattern_matches_only_the_empty_value() {
        let empty = tokenize("");
        let automaton = MultiPatternAutomaton::build(&[Some(&empty)]).unwrap();
        let m = automaton.classify(&tokenize("")).unwrap();
        assert!(automaton.matches(&m, 0));
        let m = automaton.classify(&tokenize("x")).unwrap();
        assert!(!automaton.matches(&m, 0));
    }

    #[test]
    fn multi_word_automata_carry_across_word_boundaries() {
        // Two ~40-position patterns force the second segment to straddle
        // the first/second state words.
        let a = parse_pattern("<D>40'-'<D>2").unwrap();
        let b = parse_pattern("<L>38'.'<L>3").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&a), Some(&b)]).unwrap();
        assert!(automaton.words() >= 2);
        let a_val = format!("{}-12", "7".repeat(40));
        let b_val = format!("{}.abc", "x".repeat(38));
        let m = automaton.classify(&tokenize(&a_val)).unwrap();
        assert!(automaton.matches(&m, 0) && !automaton.matches(&m, 1));
        let m = automaton.classify(&tokenize(&b_val)).unwrap();
        assert!(!automaton.matches(&m, 0) && automaton.matches(&m, 1));
        // One digit short: neither.
        let short = format!("{}-12", "7".repeat(39));
        let m = automaton.classify(&tokenize(&short)).unwrap();
        assert!(!automaton.matches(&m, 0) && !automaton.matches(&m, 1));
    }

    #[test]
    fn segment_boundaries_do_not_leak_threads() {
        // Back-to-back segments where the first's accept feeds directly
        // into a position that would accept the next symbol if the
        // boundary leaked: '12' must not make branch '2' (pattern <D>)
        // match via the target's ('<D><D>') overflow.
        let target = parse_pattern("<D><D>").unwrap();
        let branch = parse_pattern("<D>").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&target), Some(&branch)]).unwrap();
        let m = automaton.classify(&tokenize("12")).unwrap();
        assert!(automaton.matches(&m, 0));
        assert!(!automaton.matches(&m, 1), "boundary leaked a thread");
        let m = automaton.classify(&tokenize("1")).unwrap();
        assert!(!automaton.matches(&m, 0));
        assert!(automaton.matches(&m, 1));
    }

    #[test]
    fn long_runs_hit_the_fixed_point_early() {
        // <D>+ saturates after one step; a 100k-digit leaf must classify
        // without 100k steps (this test is the regression guard: it runs
        // in microseconds on the fixed-point path, seconds without it).
        let pattern = parse_pattern("<D>+").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&pattern)]).unwrap();
        let long = "9".repeat(100_000);
        let m = automaton.classify(&tokenize(&long)).unwrap();
        assert!(automaton.matches(&m, 0));
    }

    #[test]
    fn non_leaf_patterns_decline_to_classify() {
        let automaton =
            MultiPatternAutomaton::build(&[Some(&parse_pattern("<D>3").unwrap())]).unwrap();
        assert!(automaton
            .classify(&parse_pattern("<D>+").unwrap())
            .is_none());
        assert!(automaton
            .classify(&parse_pattern("<AN>2").unwrap())
            .is_none());
        assert!(automaton.classify(&parse_pattern("<A>").unwrap()).is_none());
    }

    #[test]
    fn width_overflow_is_a_recorded_fallback() {
        let wide = parse_pattern("<D>300").unwrap();
        let err = MultiPatternAutomaton::build(&[Some(&wide)]).unwrap_err();
        assert_eq!(err.required, 300);
        // Also when the *sum* overflows.
        let half = parse_pattern("<D>200").unwrap();
        let err = MultiPatternAutomaton::build(&[Some(&half), Some(&half)]).unwrap_err();
        assert_eq!(err.required, 400);
        // A program over them records the overflow as its fallback.
        let fallback = compile_one(&half, &half).fused_fallback().unwrap();
        assert_eq!(fallback, FusedFallback::WidthExceeded { required: 400 });
        assert!(fallback.to_string().contains("400"));
    }

    #[test]
    fn nothing_transparent_is_a_recorded_fallback() {
        // An opaque target and an opaque branch leave every slot empty.
        let opaque = Pattern::new(vec![Token::literal("N/A")]);
        assert_eq!(
            compile_one(&opaque, &opaque).fused_fallback(),
            Some(FusedFallback::NothingTransparent)
        );
    }

    #[test]
    fn opaque_branches_never_match_through_the_automaton() {
        let target = parse_pattern("<D>2").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&target), None]).unwrap();
        let m = automaton.classify(&tokenize("42")).unwrap();
        assert!(automaton.matches(&m, 0));
        assert!(!automaton.matches(&m, 1));
    }
}
