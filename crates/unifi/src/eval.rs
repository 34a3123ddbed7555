//! Evaluation of UniFi programs against concrete strings.

use std::fmt;

use clx_pattern::{Pattern, PatternError};

use crate::ast::{Branch, Expr, Program, StringExpr};

/// Which well-formedness rule an `Extract { from, to }` range violated.
/// Token indices are one-based and inclusive, so a valid range satisfies
/// `1 <= from <= to <= pattern_len` — one variant per way to break that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractRule {
    /// `from == 0`: token indices are one-based.
    ZeroIndex,
    /// `from > to`: the range is inverted (empty ranges are not a thing in
    /// UniFi — dropping tokens is expressed by omitting them).
    InvertedRange,
    /// `to > pattern_len`: the range reaches past the source pattern's
    /// last token.
    PastEnd,
}

/// The first rule (checked in [`ExtractRule`] declaration order) that
/// `Extract { from, to }` violates against a source pattern of
/// `pattern_len` tokens, or `None` when the range is well-formed.
///
/// This is the single bounds check shared by [`eval_expr_on_slices`],
/// `Branch::validate` and the static analyzer's extract-safety pass, so a
/// range can never be "valid" to one consumer and out-of-bounds to
/// another.
pub fn extract_bounds_violation(from: usize, to: usize, pattern_len: usize) -> Option<ExtractRule> {
    if from == 0 {
        Some(ExtractRule::ZeroIndex)
    } else if from > to {
        Some(ExtractRule::InvertedRange)
    } else if to > pattern_len {
        Some(ExtractRule::PastEnd)
    } else {
        None
    }
}

/// Errors produced while evaluating a UniFi expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The input string does not match the branch's source pattern.
    PatternMismatch(PatternError),
    /// An `Extract` range is ill-formed for the source pattern.
    ExtractOutOfBounds {
        /// The range's one-based start index.
        from: usize,
        /// The range's one-based (inclusive) end index.
        to: usize,
        /// The number of tokens in the source pattern.
        pattern_len: usize,
        /// Which well-formedness rule the range broke.
        rule: ExtractRule,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::PatternMismatch(e) => write!(f, "pattern mismatch: {e}"),
            EvalError::ExtractOutOfBounds {
                from,
                to,
                pattern_len,
                rule,
            } => match rule {
                ExtractRule::ZeroIndex => write!(
                    f,
                    "Extract starts at token 0 but token indices are one-based"
                ),
                ExtractRule::InvertedRange => write!(
                    f,
                    "Extract range is inverted: it starts at token {from} but ends at token {to}"
                ),
                ExtractRule::PastEnd => write!(
                    f,
                    "Extract references token {to} but the source pattern has {pattern_len} tokens"
                ),
            },
        }
    }
}

impl std::error::Error for EvalError {}

impl From<PatternError> for EvalError {
    fn from(e: PatternError) -> Self {
        EvalError::PatternMismatch(e)
    }
}

/// The outcome of running a whole program on one input string (§6.1: any
/// input matching no candidate source pattern is left unchanged and flagged
/// for review).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformOutcome {
    /// A branch matched and produced this output.
    Transformed(String),
    /// No branch matched; the value is left unchanged and flagged.
    Flagged(String),
}

impl TransformOutcome {
    /// The output value, whether transformed or passed through.
    pub fn value(&self) -> &str {
        match self {
            TransformOutcome::Transformed(s) | TransformOutcome::Flagged(s) => s,
        }
    }

    /// `true` if a branch transformed the value.
    pub fn is_transformed(&self) -> bool {
        matches!(self, TransformOutcome::Transformed(_))
    }

    /// `true` if the value was flagged for review.
    pub fn is_flagged(&self) -> bool {
        matches!(self, TransformOutcome::Flagged(_))
    }
}

/// Evaluate an atomic transformation plan against a string known to match
/// `source_pattern`.
pub fn eval_expr(expr: &Expr, source_pattern: &Pattern, input: &str) -> Result<String, EvalError> {
    let slices = source_pattern.split(input)?;
    eval_expr_on_slices(expr, input, &slices)
}

/// Evaluate an atomic transformation plan against `input` already split
/// into per-token slices (for example the cached slices a `clx-column`
/// `Column` carries per distinct value, when the source pattern is the
/// value's leaf pattern). Skips the pattern split entirely.
pub fn eval_expr_on_slices(
    expr: &Expr,
    input: &str,
    slices: &[clx_pattern::TokenSlice],
) -> Result<String, EvalError> {
    let mut out = String::new();
    for part in &expr.parts {
        match part {
            StringExpr::ConstStr(s) => out.push_str(s),
            StringExpr::Extract { from, to } => {
                if let Some(rule) = extract_bounds_violation(*from, *to, slices.len()) {
                    return Err(EvalError::ExtractOutOfBounds {
                        from: *from,
                        to: *to,
                        pattern_len: slices.len(),
                        rule,
                    });
                }
                // Split slices are contiguous: the range is one substring.
                out.push_str(&input[slices[from - 1].start..slices[to - 1].end]);
            }
        }
    }
    Ok(out)
}

/// Evaluate one branch: returns `None` if the input does not match the
/// branch's pattern.
pub fn eval_branch(branch: &Branch, input: &str) -> Option<Result<String, EvalError>> {
    if !branch.pattern.matches(input) {
        return None;
    }
    Some(eval_expr(&branch.expr, &branch.pattern, input))
}

/// Run a whole program on one input string: the first branch whose pattern
/// matches transforms the value; otherwise it is flagged.
pub fn transform(program: &Program, input: &str) -> Result<TransformOutcome, EvalError> {
    for branch in &program.branches {
        if let Some(result) = eval_branch(branch, input) {
            return result.map(TransformOutcome::Transformed);
        }
    }
    Ok(TransformOutcome::Flagged(input.to_string()))
}

/// [`transform`] with the compiled engine's error semantics: a branch
/// whose pattern matches but whose plan fails to evaluate (an ill-formed
/// `Extract` — possible only for programs that never went through
/// [`crate::Program::validate`]) *falls through* to the next branch
/// instead of aborting, and the value is flagged when no branch fires.
///
/// This is exactly what `clx-engine`'s plan interpreter does per row, so
/// a sequential caller using this function and a compiled caller agree
/// row for row even on unvalidated programs. Use [`transform`] when an
/// eval error should surface as a hard error instead.
pub fn transform_lenient(program: &Program, input: &str) -> TransformOutcome {
    for branch in &program.branches {
        if let Some(Ok(out)) = eval_branch(branch, input) {
            return TransformOutcome::Transformed(out);
        }
    }
    TransformOutcome::Flagged(input.to_string())
}

/// Run a program over a column of values. Errors (which indicate an
/// ill-formed program rather than ill-formed data) abort the run.
pub fn transform_all<S: AsRef<str>>(
    program: &Program,
    inputs: &[S],
) -> Result<Vec<TransformOutcome>, EvalError> {
    inputs
        .iter()
        .map(|s| transform(program, s.as_ref()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::{parse_pattern, tokenize};

    /// The Example 5 program from the paper (medical billing codes).
    fn example_5_program() -> Program {
        Program::new(vec![
            Branch::new(
                // "[CPT-00350" -> [ '[', <U>3, '-', <D>5 ]
                tokenize("[CPT-00350"),
                Expr::concat(vec![
                    StringExpr::extract_range(1, 4),
                    StringExpr::const_str("]"),
                ]),
            ),
            Branch::new(
                // "CPT-00340" -> [ <U>3, '-', <D>5 ]
                tokenize("CPT-00340"),
                Expr::concat(vec![
                    StringExpr::const_str("["),
                    StringExpr::extract_range(1, 3),
                    StringExpr::const_str("]"),
                ]),
            ),
            Branch::new(
                // "CPT115" -> [ <U>3, <D>3 ]
                tokenize("CPT115"),
                Expr::concat(vec![
                    StringExpr::const_str("["),
                    StringExpr::extract(1),
                    StringExpr::const_str("-"),
                    StringExpr::extract(2),
                    StringExpr::const_str("]"),
                ]),
            ),
        ])
    }

    #[test]
    fn eval_expr_extract_and_const() {
        let p = tokenize("734-422-8073");
        let e = Expr::concat(vec![
            StringExpr::const_str("("),
            StringExpr::extract(1),
            StringExpr::const_str(") "),
            StringExpr::extract(3),
            StringExpr::const_str("-"),
            StringExpr::extract(5),
        ]);
        assert_eq!(eval_expr(&e, &p, "734-422-8073").unwrap(), "(734) 422-8073");
    }

    #[test]
    fn eval_expr_range_extract() {
        let p = tokenize("[CPT-00350");
        let e = Expr::concat(vec![
            StringExpr::extract_range(1, 4),
            StringExpr::const_str("]"),
        ]);
        assert_eq!(eval_expr(&e, &p, "[CPT-00350").unwrap(), "[CPT-00350]");
    }

    #[test]
    fn eval_expr_out_of_bounds() {
        let p = tokenize("abc");
        let e = Expr::concat(vec![StringExpr::extract(2)]);
        let err = eval_expr(&e, &p, "abc").unwrap_err();
        assert_eq!(
            err,
            EvalError::ExtractOutOfBounds {
                from: 2,
                to: 2,
                pattern_len: 1,
                rule: ExtractRule::PastEnd,
            }
        );
        assert!(err.to_string().contains("token 2"));
    }

    #[test]
    fn eval_expr_zero_index_names_the_one_based_rule() {
        // extract_range debug-asserts validity, so an ill-formed range is
        // built as the raw variant — exactly what a buggy caller would do.
        let p = tokenize("a-b");
        let e = Expr::concat(vec![StringExpr::Extract { from: 0, to: 1 }]);
        let err = eval_expr(&e, &p, "a-b").unwrap_err();
        assert_eq!(
            err,
            EvalError::ExtractOutOfBounds {
                from: 0,
                to: 1,
                pattern_len: 3,
                rule: ExtractRule::ZeroIndex,
            }
        );
        assert!(err.to_string().contains("one-based"));
    }

    #[test]
    fn eval_expr_inverted_range_names_both_bounds() {
        let p = tokenize("a-b");
        let e = Expr::concat(vec![StringExpr::Extract { from: 3, to: 1 }]);
        let err = eval_expr(&e, &p, "a-b").unwrap_err();
        assert_eq!(
            err,
            EvalError::ExtractOutOfBounds {
                from: 3,
                to: 1,
                pattern_len: 3,
                rule: ExtractRule::InvertedRange,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("token 3") && msg.contains("token 1"), "{msg}");
    }

    #[test]
    fn bounds_violation_rule_order_is_zero_then_inverted_then_past_end() {
        // A range can break several rules at once; the reported rule is
        // the first in declaration order, so messages stay deterministic.
        assert_eq!(
            extract_bounds_violation(0, 9, 1),
            Some(ExtractRule::ZeroIndex)
        );
        assert_eq!(
            extract_bounds_violation(9, 2, 1),
            Some(ExtractRule::InvertedRange)
        );
        assert_eq!(
            extract_bounds_violation(2, 2, 1),
            Some(ExtractRule::PastEnd)
        );
        assert_eq!(extract_bounds_violation(1, 1, 1), None);
    }

    #[test]
    fn eval_expr_mismatch() {
        let p = tokenize("123");
        let e = Expr::concat(vec![StringExpr::extract(1)]);
        let err = eval_expr(&e, &p, "abc").unwrap_err();
        assert!(matches!(err, EvalError::PatternMismatch(_)));
    }

    #[test]
    fn eval_branch_nonmatching_is_none() {
        let branch = Branch::new(tokenize("123"), Expr::concat(vec![StringExpr::extract(1)]));
        assert!(eval_branch(&branch, "abc").is_none());
        assert_eq!(eval_branch(&branch, "555").unwrap().unwrap(), "555");
    }

    #[test]
    fn example_5_medical_codes() {
        // Table 3 of the paper.
        let program = example_5_program();
        let cases = [
            ("CPT-00350", "[CPT-00350]"),
            ("[CPT-00340", "[CPT-00340]"),
            ("[CPT-11536]", "[CPT-11536]"),
            ("CPT115", "[CPT-115]"),
        ];
        for (input, expected) in cases {
            let out = transform(&program, input).unwrap();
            if input == "[CPT-11536]" {
                // Already in the target pattern: no branch matches it (the
                // program in the paper omits the identity branch), so it is
                // flagged but its value is already correct.
                assert_eq!(out.value(), expected);
            } else {
                assert_eq!(
                    out,
                    TransformOutcome::Transformed(expected.to_string()),
                    "input {input:?}"
                );
            }
        }
    }

    #[test]
    fn example_6_name_normalization() {
        // Table 4 of the paper: "Dr. Eran Yahav" -> "Yahav, E."
        // Source pattern: <U><L>'.'' '<U><L>3' '<U><L>4  (tokens 1..9)
        let p = tokenize("Dr. Eran Yahav");
        assert_eq!(p.len(), 9);
        let e = Expr::concat(vec![
            StringExpr::extract_range(8, 9),
            StringExpr::const_str(","),
            StringExpr::const_str(" "),
            StringExpr::extract(5),
            StringExpr::const_str("."),
        ]);
        assert_eq!(eval_expr(&e, &p, "Dr. Eran Yahav").unwrap(), "Yahav, E.");
    }

    #[test]
    fn flagged_values_pass_through() {
        let program = example_5_program();
        let out = transform(&program, "N/A").unwrap();
        assert_eq!(out, TransformOutcome::Flagged("N/A".to_string()));
        assert!(out.is_flagged());
        assert!(!out.is_transformed());
        assert_eq!(out.value(), "N/A");
    }

    #[test]
    fn transform_all_preserves_order() {
        let program = example_5_program();
        let outs = transform_all(&program, &["CPT-00350", "N/A", "CPT115"]).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].value(), "[CPT-00350]");
        assert!(outs[1].is_flagged());
        assert_eq!(outs[2].value(), "[CPT-115]");
    }

    #[test]
    fn first_matching_branch_wins() {
        let p_specific = tokenize("123");
        let p_general = parse_pattern("<D>+").unwrap();
        let program = Program::new(vec![
            Branch::new(
                p_specific,
                Expr::concat(vec![StringExpr::const_str("specific")]),
            ),
            Branch::new(
                p_general,
                Expr::concat(vec![StringExpr::const_str("general")]),
            ),
        ]);
        assert_eq!(transform(&program, "123").unwrap().value(), "specific");
        assert_eq!(transform(&program, "99999").unwrap().value(), "general");
    }

    #[test]
    fn empty_program_flags_everything() {
        let program = Program::empty();
        assert!(transform(&program, "anything").unwrap().is_flagged());
    }

    #[test]
    fn empty_expr_produces_empty_string() {
        let p = tokenize("abc");
        assert_eq!(eval_expr(&Expr::default(), &p, "abc").unwrap(), "");
    }

    #[test]
    fn lenient_transform_falls_through_an_ill_formed_branch() {
        let leaf = tokenize("abc");
        let program = Program::new(vec![
            // Matches "abc" but its plan is out of bounds — `transform`
            // aborts here; `transform_lenient` tries the next branch.
            Branch::new(leaf.clone(), Expr::concat(vec![StringExpr::extract(9)])),
            Branch::new(leaf, Expr::concat(vec![StringExpr::const_str("ok")])),
        ]);
        assert!(transform(&program, "abc").is_err());
        assert_eq!(transform_lenient(&program, "abc").value(), "ok");
        // No branch fires at all: flagged, not an error.
        assert!(transform_lenient(&program, "123").is_flagged());
    }
}
