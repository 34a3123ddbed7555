//! The RegexReplace baseline of the paper's evaluation: the Trifacta
//! Wrangler feature that lets the user hand-author `Replace` operations with
//! natural-language-like regexes.
//!
//! The simulated user follows §7.4: write a `Replace` with the matching
//! regex and the replacement for the first ill-formatted record, re-check
//! the column, and keep adding `Replace` operations until everything is in
//! the desired format. Each authored operation costs two regexes' worth of
//! effort (2 Steps).

use clx_cluster::GeneralizationStrategy;
use clx_pattern::{tokenize, Pattern};
use clx_synth::align;
use clx_unifi::{eval_expr, explain_branch, Branch, ReplaceOp};

/// The trace of one simulated RegexReplace run.
#[derive(Debug, Clone)]
pub struct RegexReplaceTrace {
    /// Number of `Replace` operations the user authored.
    pub operations: usize,
    /// Rows whose final value still differs from the ground truth.
    pub failing_rows: usize,
    /// Number of rows in the task.
    pub rows: usize,
    /// Whether the final operation list reproduces the ground truth.
    pub perfect: bool,
    /// Rows scanned (from the top) to find the mistake that prompted each
    /// new operation.
    pub rows_scanned_per_interaction: Vec<usize>,
}

impl RegexReplaceTrace {
    /// The paper's Step metric: 2 steps per authored operation (two regexes
    /// to type) plus one punishment step per remaining failure.
    pub fn steps(&self) -> usize {
        2 * self.operations + self.failing_rows
    }

    /// Interactions: one per authored operation.
    pub fn interactions(&self) -> usize {
        self.operations
    }
}

/// Run the simulated RegexReplace user. Returns the trace and the authored
/// operations.
pub fn run_regex_replace_user(
    inputs: &[String],
    expected: &[String],
    target: &Pattern,
    max_operations: usize,
) -> (RegexReplaceTrace, Vec<ReplaceOp>) {
    assert_eq!(inputs.len(), expected.len());
    let rows = inputs.len();
    let mut ops: Vec<ReplaceOp> = Vec::new();
    let mut rows_scanned_per_interaction = Vec::new();

    loop {
        let outputs: Vec<String> = inputs.iter().map(|v| apply_ops(&ops, v)).collect();
        let first_failure = outputs
            .iter()
            .zip(expected)
            .position(|(got, want)| got != want);
        match first_failure {
            None => {
                rows_scanned_per_interaction.push(rows);
                return (
                    RegexReplaceTrace {
                        operations: ops.len(),
                        failing_rows: 0,
                        rows,
                        perfect: true,
                        rows_scanned_per_interaction,
                    },
                    ops,
                );
            }
            Some(row) => {
                if ops.len() >= max_operations {
                    let failing = outputs
                        .iter()
                        .zip(expected)
                        .filter(|(got, want)| got != want)
                        .count();
                    return (
                        RegexReplaceTrace {
                            operations: ops.len(),
                            failing_rows: failing,
                            rows,
                            perfect: false,
                            rows_scanned_per_interaction,
                        },
                        ops,
                    );
                }
                rows_scanned_per_interaction.push(row + 1);
                let op = author_replace_op(inputs, expected, row, target);
                ops.push(op);
            }
        }
    }
}

/// Apply the authored operations to one value: the first operation whose
/// regex matches rewrites the value.
fn apply_ops(ops: &[ReplaceOp], value: &str) -> String {
    for op in ops {
        if let Some(out) = op.apply(value) {
            return out;
        }
    }
    value.to_string()
}

/// Complete plans the plan search pops per pattern before it gives up.
const PLAN_BUDGET: usize = 2_000;

/// Author a `Replace` operation that fixes row `row` — and, when possible,
/// every other row sharing its leaf pattern (a skilled regex author writes
/// the general rule, not a one-off).
fn author_replace_op(
    inputs: &[String],
    expected: &[String],
    row: usize,
    _target: &Pattern,
) -> ReplaceOp {
    let leaf_pattern = tokenize(&inputs[row]);
    let target_pattern = tokenize(&expected[row]);
    // A skilled regex author writes the general rule (`+` quantifiers over
    // the leaf's exact counts) when it fixes every row it matches, and falls
    // back to more specific patterns otherwise.
    let general_pattern = GeneralizationStrategy::QuantifierToPlus.parent_of(&leaf_pattern);
    let candidate_patterns = if general_pattern == leaf_pattern {
        vec![leaf_pattern.clone()]
    } else {
        vec![general_pattern, leaf_pattern.clone()]
    };

    for source_pattern in &candidate_patterns {
        let cluster: Vec<usize> = inputs
            .iter()
            .enumerate()
            .filter(|(i, v)| source_pattern.matches(v) && inputs[*i] != expected[*i])
            .map(|(i, _)| i)
            .collect();
        if cluster.is_empty() {
            continue;
        }
        // Find an atomic transformation plan consistent with the whole cluster.
        let dag = align(source_pattern, &target_pattern);
        for ranked in dag.ranked_plans(source_pattern, PLAN_BUDGET) {
            let plan = &ranked.expr;
            let consistent = cluster.iter().all(|&i| {
                eval_expr(plan, source_pattern, &inputs[i])
                    .map(|out| out == expected[i])
                    .unwrap_or(false)
            });
            if consistent {
                let branch = Branch::new(source_pattern.clone(), plan.clone());
                if let Ok(op) = explain_branch(&branch) {
                    return op;
                }
            }
        }
    }
    // Fall back to a plan correct for this row only.
    let dag = align(&leaf_pattern, &target_pattern);
    for ranked in dag.ranked_plans(&leaf_pattern, PLAN_BUDGET) {
        let plan = &ranked.expr;
        if eval_expr(plan, &leaf_pattern, &inputs[row])
            .map(|out| out == expected[row])
            .unwrap_or(false)
        {
            let branch = Branch::new(leaf_pattern.clone(), plan.clone());
            if let Ok(op) = explain_branch(&branch) {
                return op;
            }
        }
    }
    // A regex author can also capture *within* a token run (e.g. split a
    // bare 10-digit number into three groups), which the token-level
    // alignment cannot express.
    if let Some(op) = author_splitting_op(&leaf_pattern, &target_pattern) {
        let check = |i: usize| op.apply(&inputs[i]).as_deref() == Some(expected[i].as_str());
        if check(row) {
            return op;
        }
    }
    // Last resort: replace this exact value with its exact expected output.
    let branch = Branch::new(
        tokenize(&inputs[row]),
        clx_unifi::Expr::concat(vec![clx_unifi::StringExpr::const_str(
            expected[row].clone(),
        )]),
    );
    explain_branch(&branch).expect("literal replace always explains")
}

/// Author a `Replace` that captures sub-runs of the source's base tokens in
/// left-to-right order, as a human regex writer would for
/// `7342363466 -> 734-236-3466`. Returns `None` when the target cannot be
/// built by an order-preserving split of the source.
fn author_splitting_op(source: &Pattern, target: &Pattern) -> Option<ReplaceOp> {
    use clx_pattern::wrangler::{class_wrangler_name, render_token};
    use clx_pattern::Quantifier;

    let src: Vec<_> = source.tokens().to_vec();
    let mut si = 0usize;
    let mut remaining = src.first().map(token_width).unwrap_or(0);
    let mut regex = String::from("/^");
    let mut replacement = String::new();
    let mut group = 0usize;

    for t in target.tokens() {
        match t.literal_value() {
            Some(lit) => replacement.push_str(&lit.replace('$', "$$")),
            None => {
                let Quantifier::Exact(n) = t.quantifier else {
                    return None;
                };
                // Skip source literals standing between us and the next base run.
                while si < src.len() && src[si].is_literal() {
                    regex.push_str(&render_token(&src[si], true));
                    si += 1;
                    remaining = src.get(si).map(token_width).unwrap_or(0);
                }
                if si >= src.len() || src[si].class != t.class || remaining < n {
                    return None;
                }
                let class = class_wrangler_name(&t.class)?;
                regex.push_str(&format!("({class}{{{n}}})"));
                group += 1;
                replacement.push_str(&format!("${group}"));
                remaining -= n;
                if remaining == 0 {
                    si += 1;
                    remaining = src.get(si).map(token_width).unwrap_or(0);
                }
            }
        }
    }
    // Whatever source content is left is matched but dropped.
    while si < src.len() {
        let tok = &src[si];
        if tok.is_literal() {
            regex.push_str(&render_token(tok, true));
        } else if remaining > 0 {
            let class = class_wrangler_name(&tok.class)?;
            regex.push_str(&format!("{class}{{{remaining}}}"));
        }
        si += 1;
        remaining = src.get(si).map(token_width).unwrap_or(0);
    }
    regex.push_str("$/");
    ReplaceOp::from_parts(&regex, &replacement, source.clone()).ok()
}

/// Width in characters of one token (exact quantifier or literal length).
fn token_width(tok: &clx_pattern::Token) -> usize {
    match tok.literal_value() {
        Some(s) => s.chars().count(),
        None => tok.quantifier.min_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitting_author_handles_bare_digit_runs() {
        let source = tokenize("7342363466");
        let target = tokenize("734-236-3466");
        let op = author_splitting_op(&source, &target).expect("splitting op");
        assert_eq!(op.regex_display, "/^({digit}{3})({digit}{3})({digit}{4})$/");
        assert_eq!(op.replacement, "$1-$2-$3");
        assert_eq!(op.apply("2315550199").unwrap(), "231-555-0199");
    }

    #[test]
    fn splitting_author_keeps_alphanumeric_source_literals() {
        // `\N\o` would read as "not a newline" and an unknown escape.
        let source = clx_pattern::parse_pattern("'No'<D>6").unwrap();
        let op = author_splitting_op(&source, &tokenize("123-456")).expect("splitting op");
        assert_eq!(op.regex_display, "/^No({digit}{3})({digit}{3})$/");
        assert_eq!(op.apply("No123456").unwrap(), "123-456");
    }

    #[test]
    fn bare_phone_numbers_get_one_splitting_op() {
        let inputs: Vec<String> = vec![
            "7346458397".into(),
            "2315550199".into(),
            "734-422-8073".into(),
        ];
        let expected: Vec<String> = vec![
            "734-645-8397".into(),
            "231-555-0199".into(),
            "734-422-8073".into(),
        ];
        let target = tokenize("734-422-8073");
        let (trace, ops) = run_regex_replace_user(&inputs, &expected, &target, 10);
        assert!(trace.perfect);
        assert_eq!(ops.len(), 1, "{ops:?}");
    }

    #[test]
    fn one_op_per_format() {
        let inputs: Vec<String> = vec![
            "(734) 645-8397".into(),
            "(231) 555-0199".into(),
            "734.236.3466".into(),
            "734-422-8073".into(),
        ];
        let expected: Vec<String> = vec![
            "734-645-8397".into(),
            "231-555-0199".into(),
            "734-236-3466".into(),
            "734-422-8073".into(),
        ];
        let target = tokenize("734-422-8073");
        let (trace, ops) = run_regex_replace_user(&inputs, &expected, &target, 10);
        assert!(trace.perfect);
        assert_eq!(trace.operations, 2, "{ops:?}");
        assert_eq!(trace.steps(), 4);
        assert_eq!(trace.interactions(), 2);
    }

    #[test]
    fn authored_ops_use_wrangler_regex_syntax() {
        let inputs: Vec<String> = vec!["(734) 645-8397".into()];
        let expected: Vec<String> = vec!["734-645-8397".into()];
        let target = tokenize("734-422-8073");
        let (_, ops) = run_regex_replace_user(&inputs, &expected, &target, 10);
        assert_eq!(ops.len(), 1);
        assert!(ops[0].regex_display.starts_with("/^"));
        assert!(ops[0].regex_display.contains("{digit}"));
    }

    #[test]
    fn impossible_rows_fall_back_to_literal_replaces() {
        let inputs: Vec<String> = vec!["N/A".into(), "??".into()];
        let expected: Vec<String> = vec!["000-000-0000".into(), "111-111-1111".into()];
        let target = tokenize("734-422-8073");
        let (trace, ops) = run_regex_replace_user(&inputs, &expected, &target, 10);
        // The user can always write literal replaces, so the column ends
        // correct — at the cost of one operation per odd row.
        assert!(trace.perfect);
        assert_eq!(ops.len(), 2);
        assert_eq!(trace.steps(), 4);
    }

    #[test]
    fn operation_budget_is_respected() {
        let inputs: Vec<String> = (0..6).map(|i| format!("row{i}")).collect();
        let expected: Vec<String> = (0..6).map(|i| format!("out{i}")).collect();
        let target = tokenize("out0");
        let (trace, ops) = run_regex_replace_user(&inputs, &expected, &target, 3);
        assert_eq!(ops.len(), 3);
        assert!(!trace.perfect);
        assert!(trace.failing_rows > 0);
    }

    #[test]
    fn already_clean_column_needs_no_ops() {
        let inputs: Vec<String> = vec!["734-422-8073".into()];
        let expected = inputs.clone();
        let target = tokenize("734-422-8073");
        let (trace, ops) = run_regex_replace_user(&inputs, &expected, &target, 10);
        assert!(trace.perfect);
        assert!(ops.is_empty());
        assert_eq!(trace.steps(), 0);
    }
}
