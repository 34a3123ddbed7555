//! Program explanation: rendering a UniFi program as the set of regexp
//! `Replace` operations shown to the user (Section 5, "Program Explanation",
//! and Figure 4 of the paper).
//!
//! Each `(Match(p), E)` branch becomes one `Replace(regex, replacement)`:
//!
//! * the regex is the source pattern `p` rendered in the Wrangler-style
//!   natural-language-like syntax, with each extracted run of consecutive
//!   tokens wrapped in a capture group (consecutive extracted tokens are
//!   merged into a single group, as the paper specifies);
//! * the replacement string keeps `ConstStr` text verbatim and renders each
//!   `Extract` as the `$k` reference of its capture group.
//!
//! Crucially, the explained operation is *executable*: [`ReplaceOp::apply`]
//! runs the very same regex through the `clx-regex` engine, so tests can
//! assert that what the user reads is exactly what the system does.

use std::fmt;

use clx_pattern::wrangler;
use clx_pattern::Pattern;
use clx_regex::Regex;

use crate::ast::{Branch, Program, StringExpr};

/// Errors produced while explaining a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// Two `Extract` operations reference overlapping but non-identical
    /// token ranges, which cannot be expressed with non-overlapping capture
    /// groups.
    OverlappingExtracts {
        /// The first range (one-based, inclusive).
        first: (usize, usize),
        /// The second range (one-based, inclusive).
        second: (usize, usize),
    },
    /// An `Extract` references a token index outside the source pattern.
    ExtractOutOfBounds {
        /// The offending one-based index.
        index: usize,
        /// The number of tokens in the source pattern.
        pattern_len: usize,
    },
    /// The generated regex failed to compile (indicates a bug).
    Regex(String),
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::OverlappingExtracts { first, second } => write!(
                f,
                "extracts ({},{}) and ({},{}) overlap and cannot be explained as capture groups",
                first.0, first.1, second.0, second.1
            ),
            ExplainError::ExtractOutOfBounds { index, pattern_len } => write!(
                f,
                "extract references token {index} but the pattern has {pattern_len} tokens"
            ),
            ExplainError::Regex(e) => write!(f, "generated regex failed to compile: {e}"),
        }
    }
}

impl std::error::Error for ExplainError {}

/// One explained `Replace` operation.
#[derive(Debug, Clone)]
pub struct ReplaceOp {
    /// The Wrangler-style regular expression shown to the user, wrapped in
    /// `/^...$/` as in Figure 4.
    pub regex_display: String,
    /// The replacement string shown to the user, e.g. `($1) $2-$3`.
    pub replacement: String,
    /// The source pattern this operation applies to.
    pub source_pattern: Pattern,
    /// The compiled form of `regex_display`, used to execute the operation.
    regex: Regex,
}

impl ReplaceOp {
    /// Build a `Replace` operation directly from its user-facing parts: a
    /// `/^...$/`-wrapped Wrangler regex and a `$k`-style replacement string.
    ///
    /// CLX itself always goes through [`explain_branch`]; this constructor
    /// exists for the RegexReplace baseline, where a (simulated) user
    /// hand-writes operations that may capture at a finer granularity than
    /// whole pattern tokens (e.g. splitting a bare 10-digit run into
    /// `({digit}{3})({digit}{3})({digit}{4})`).
    pub fn from_parts(
        regex_display: &str,
        replacement: &str,
        source_pattern: Pattern,
    ) -> Result<Self, ExplainError> {
        let body = regex_display
            .strip_prefix('/')
            .and_then(|s| s.strip_suffix('/'))
            .unwrap_or(regex_display);
        let regex = Regex::new(body).map_err(|e| ExplainError::Regex(e.to_string()))?;
        Ok(ReplaceOp {
            regex_display: regex_display.to_string(),
            replacement: replacement.to_string(),
            source_pattern,
            regex,
        })
    }

    /// The sentence shown in the operation list (Figure 4):
    /// `Replace '<regex>' in column with '<replacement>'`.
    pub fn describe(&self, column: &str) -> String {
        format!(
            "Replace '{}' in {column} with '{}'",
            self.regex_display, self.replacement
        )
    }

    /// Apply the operation to one value. Returns `None` when the value does
    /// not match the operation's source pattern.
    pub fn apply(&self, value: &str) -> Option<String> {
        if !self.regex.is_match(value) {
            return None;
        }
        Some(self.regex.replace_all(value, &self.replacement))
    }

    /// The compiled regular expression backing this operation.
    pub fn regex(&self) -> &Regex {
        &self.regex
    }
}

/// The full explanation of a UniFi program: one [`ReplaceOp`] per branch.
#[derive(Debug, Clone, Default)]
pub struct Explanation {
    /// The operations, in branch order.
    pub operations: Vec<ReplaceOp>,
}

impl Explanation {
    /// Render the numbered operation list of Figure 4.
    pub fn render(&self, column: &str) -> String {
        self.operations
            .iter()
            .enumerate()
            .map(|(i, op)| format!("{} {}", i + 1, op.describe(column)))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Apply the explanation to a value: the first operation whose pattern
    /// matches transforms it; otherwise the value is returned unchanged.
    pub fn apply(&self, value: &str) -> String {
        for op in &self.operations {
            if let Some(out) = op.apply(value) {
                return out;
            }
        }
        value.to_string()
    }
}

/// Explain one branch as a [`ReplaceOp`].
pub fn explain_branch(branch: &Branch) -> Result<ReplaceOp, ExplainError> {
    let pattern = &branch.pattern;

    // Plans whose extract ranges overlap (e.g. Extract(1) and Extract(1,2))
    // cannot be rendered with flat, non-overlapping capture groups. They can
    // always be rendered after splitting every range extract into per-token
    // extracts, which only changes how the replacement string references
    // groups, not what the operation does.
    let expr_storage;
    let expr = if has_overlapping_extracts(&branch.expr) {
        expr_storage = split_range_extracts(&branch.expr);
        &expr_storage
    } else {
        &branch.expr
    };

    // Collect the distinct extract ranges, validate them, and order them by
    // source position to assign capture-group numbers.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &(from, to) in &expr.extracted_tokens() {
        if from == 0 || to > pattern.len() || from > to {
            return Err(ExplainError::ExtractOutOfBounds {
                index: to.max(from),
                pattern_len: pattern.len(),
            });
        }
        if !ranges.contains(&(from, to)) {
            ranges.push((from, to));
        }
    }
    ranges.sort_unstable();
    for pair in ranges.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b.0 <= a.1 {
            return Err(ExplainError::OverlappingExtracts {
                first: a,
                second: b,
            });
        }
    }

    // Build the regex: walk the tokens, opening a group at the start of each
    // extracted range and closing it at the end.
    let mut regex_body = String::new();
    for (idx0, token) in pattern.iter().enumerate() {
        let idx = idx0 + 1; // one-based
        if ranges.iter().any(|&(from, _)| from == idx) {
            regex_body.push('(');
        }
        regex_body.push_str(&wrangler::render_token(token, true));
        if ranges.iter().any(|&(_, to)| to == idx) {
            regex_body.push(')');
        }
    }
    let regex_display = format!("/^{regex_body}$/");

    // Build the replacement string.
    let group_of = |from: usize, to: usize| -> usize {
        ranges
            .iter()
            .position(|&r| r == (from, to))
            .expect("range registered above")
            + 1
    };
    let mut replacement = String::new();
    for part in &expr.parts {
        match part {
            StringExpr::ConstStr(s) => replacement.push_str(&s.replace('$', "$$")),
            StringExpr::Extract { from, to } => {
                replacement.push_str(&format!("${}", group_of(*from, *to)));
            }
        }
    }

    // The executed regex is parsed from the displayed text itself.
    ReplaceOp::from_parts(&regex_display, &replacement, pattern.clone())
}

/// Do any two extract ranges of the plan overlap without being identical?
fn has_overlapping_extracts(expr: &crate::ast::Expr) -> bool {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &(from, to) in &expr.extracted_tokens() {
        if !ranges.contains(&(from, to)) {
            ranges.push((from, to));
        }
    }
    ranges.sort_unstable();
    ranges.windows(2).any(|pair| pair[1].0 <= pair[0].1)
}

/// Split every `Extract(i, j)` into `Extract(i), ..., Extract(j)`; the
/// resulting plan is observationally identical.
fn split_range_extracts(expr: &crate::ast::Expr) -> crate::ast::Expr {
    let mut parts = Vec::new();
    for part in &expr.parts {
        match part {
            StringExpr::Extract { from, to } => {
                for i in *from..=*to {
                    parts.push(StringExpr::extract(i));
                }
            }
            StringExpr::ConstStr(s) => parts.push(StringExpr::const_str(s.clone())),
        }
    }
    crate::ast::Expr::concat(parts)
}

/// Explain a whole program.
pub fn explain_program(program: &Program) -> Result<Explanation, ExplainError> {
    let operations = program
        .branches
        .iter()
        .map(explain_branch)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Explanation { operations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::eval::eval_expr;
    use clx_pattern::tokenize;

    /// The phone-number branch of Figure 4, line 2:
    /// `Replace '/^({digit}{3})\-({digit}{3})\-({digit}{4})$/' with '($1) $2-$3'`.
    fn phone_branch() -> Branch {
        Branch::new(
            tokenize("734-422-8073"),
            Expr::concat(vec![
                StringExpr::const_str("("),
                StringExpr::extract(1),
                StringExpr::const_str(") "),
                StringExpr::extract(3),
                StringExpr::const_str("-"),
                StringExpr::extract(5),
            ]),
        )
    }

    #[test]
    fn figure_4_line_2_rendering() {
        let op = explain_branch(&phone_branch()).unwrap();
        assert_eq!(
            op.regex_display,
            "/^({digit}{3})\\-({digit}{3})\\-({digit}{4})$/"
        );
        assert_eq!(op.replacement, "($1) $2-$3");
        let described = op.describe("column1");
        assert!(described.starts_with("Replace '/^({digit}{3})"));
        assert!(described.contains("with '($1) $2-$3'"));
    }

    #[test]
    fn figure_4_line_1_rendering() {
        // "(734)586-7252" with extraction of the three digit runs.
        let branch = Branch::new(
            tokenize("(734)586-7252"),
            Expr::concat(vec![
                StringExpr::const_str("("),
                StringExpr::extract(2),
                StringExpr::const_str(") "),
                StringExpr::extract(4),
                StringExpr::const_str("-"),
                StringExpr::extract(6),
            ]),
        );
        let op = explain_branch(&branch).unwrap();
        assert_eq!(
            op.regex_display,
            "/^\\(({digit}{3})\\)({digit}{3})\\-({digit}{4})$/"
        );
        assert_eq!(op.replacement, "($1) $2-$3");
    }

    #[test]
    fn consecutive_extracts_merge_into_one_group() {
        // Extract(1,4) over "[CPT-00350" keeps one group.
        let branch = Branch::new(
            tokenize("[CPT-00350"),
            Expr::concat(vec![
                StringExpr::extract_range(1, 4),
                StringExpr::const_str("]"),
            ]),
        );
        let op = explain_branch(&branch).unwrap();
        assert_eq!(op.regex_display.matches('(').count(), 1);
        assert_eq!(op.replacement, "$1]");
    }

    #[test]
    fn explained_op_executes_identically_to_unifi_eval() {
        let branch = phone_branch();
        let op = explain_branch(&branch).unwrap();
        let inputs = ["734-422-8073", "555-936-2447", "800-555-0199"];
        for input in inputs {
            let via_unifi = eval_expr(&branch.expr, &branch.pattern, input).unwrap();
            let via_replace = op.apply(input).unwrap();
            assert_eq!(via_unifi, via_replace, "mismatch on {input:?}");
        }
    }

    #[test]
    fn apply_returns_none_for_non_matching_values() {
        let op = explain_branch(&phone_branch()).unwrap();
        assert_eq!(op.apply("(734) 645-8397"), None);
        assert_eq!(op.apply("N/A"), None);
    }

    #[test]
    fn explanation_applies_first_matching_operation() {
        let program = Program::new(vec![
            phone_branch(),
            Branch::new(
                tokenize("(734)586-7252"),
                Expr::concat(vec![
                    StringExpr::const_str("("),
                    StringExpr::extract(2),
                    StringExpr::const_str(") "),
                    StringExpr::extract(4),
                    StringExpr::const_str("-"),
                    StringExpr::extract(6),
                ]),
            ),
        ]);
        let explanation = explain_program(&program).unwrap();
        assert_eq!(explanation.operations.len(), 2);
        assert_eq!(explanation.apply("734-422-8073"), "(734) 422-8073");
        assert_eq!(explanation.apply("(734)586-7252"), "(734) 586-7252");
        // untouched when nothing matches
        assert_eq!(explanation.apply("hello"), "hello");
        let rendered = explanation.render("column1");
        assert!(rendered.starts_with("1 Replace"));
        assert!(rendered.contains("\n2 Replace"));
    }

    #[test]
    fn dollar_signs_in_constants_are_escaped() {
        let branch = Branch::new(
            tokenize("100"),
            Expr::concat(vec![StringExpr::const_str("$"), StringExpr::extract(1)]),
        );
        let op = explain_branch(&branch).unwrap();
        assert_eq!(op.replacement, "$$$1");
        assert_eq!(op.apply("100").unwrap(), "$100");
    }

    #[test]
    fn repeated_extract_of_same_range_shares_a_group() {
        let branch = Branch::new(
            tokenize("ab"),
            Expr::concat(vec![
                StringExpr::extract(1),
                StringExpr::const_str("-"),
                StringExpr::extract(1),
            ]),
        );
        let op = explain_branch(&branch).unwrap();
        assert_eq!(op.replacement, "$1-$1");
        assert_eq!(op.apply("ab").unwrap(), "ab-ab");
    }

    #[test]
    fn overlapping_extracts_fall_back_to_per_token_groups() {
        // Extract(1,2) and Extract(2,3) overlap on token 2; the explanation
        // splits them into per-token groups and still executes identically.
        let branch = Branch::new(
            tokenize("a-b"),
            Expr::concat(vec![
                StringExpr::extract_range(1, 2),
                StringExpr::extract_range(2, 3),
            ]),
        );
        let op = explain_branch(&branch).unwrap();
        assert_eq!(op.replacement, "$1$2$2$3");
        let via_unifi = eval_expr(&branch.expr, &branch.pattern, "a-b").unwrap();
        assert_eq!(op.apply("a-b").unwrap(), via_unifi);
        assert_eq!(via_unifi, "a--b");
    }

    #[test]
    fn out_of_bounds_extract_is_rejected() {
        let branch = Branch::new(tokenize("abc"), Expr::concat(vec![StringExpr::extract(5)]));
        assert!(matches!(
            explain_branch(&branch).unwrap_err(),
            ExplainError::ExtractOutOfBounds { .. }
        ));
    }

    #[test]
    fn literal_tokens_with_regex_metacharacters_are_escaped() {
        let branch = Branch::new(tokenize("(1)"), Expr::concat(vec![StringExpr::extract(2)]));
        let op = explain_branch(&branch).unwrap();
        assert!(op.regex_display.contains("\\("));
        assert!(op.regex_display.contains("\\)"));
        assert_eq!(op.apply("(1)").unwrap(), "1");
    }

    #[test]
    fn plus_quantified_source_pattern_round_trips() {
        let branch = Branch::new(
            clx_pattern::parse_pattern("<U>+'-'<D>+").unwrap(),
            Expr::concat(vec![
                StringExpr::const_str("["),
                StringExpr::extract(1),
                StringExpr::const_str("-"),
                StringExpr::extract(3),
                StringExpr::const_str("]"),
            ]),
        );
        let op = explain_branch(&branch).unwrap();
        assert_eq!(op.regex_display, "/^({upper}+)\\-({digit}+)$/");
        assert_eq!(op.apply("CPT-00350").unwrap(), "[CPT-00350]");
        let via_unifi = eval_expr(&branch.expr, &branch.pattern, "CPT-00350").unwrap();
        assert_eq!(via_unifi, "[CPT-00350]");
    }

    #[test]
    fn explanation_of_empty_program() {
        let explanation = explain_program(&Program::empty()).unwrap();
        assert!(explanation.operations.is_empty());
        assert_eq!(explanation.render("c"), "");
        assert_eq!(explanation.apply("x"), "x");
    }

    #[test]
    fn alphanumeric_literals_are_not_escaped() {
        let cases = [
            ("'Stanford'", "/^Stanford$/", "Stanford"),
            ("<D>3'd'", "/^{digit}{3}d$/", "123d"),
            ("'Dr'<U>", "/^Dr{upper}$/", "DrX"),
        ];
        for (notation, display, member) in cases {
            let pattern = clx_pattern::parse_pattern(notation).unwrap();
            let identity = (1..=pattern.len()).map(StringExpr::extract).collect();
            let op = explain_branch(&Branch::new(pattern, Expr::concat(identity))).unwrap();
            assert_eq!(op.regex_display.replace(['(', ')'], ""), display);
            assert_eq!(op.apply(member).as_deref(), Some(member), "{notation}");
        }
    }
}
