//! Token alignment (Section 6.2, Algorithm 3 of the paper).
//!
//! Given a candidate source pattern and the target pattern, token alignment
//! discovers, for every token of the target, all operations that can yield
//! it — `Extract` of syntactically-similar source tokens or `ConstStr` for
//! literal target tokens — and stores them as edges of a DAG whose nodes are
//! positions within the target pattern. Sequential extracts (runs of
//! consecutive source tokens producing runs of consecutive target tokens)
//! are then discovered by combining adjacent `Extract` edges.
//!
//! Any path through the DAG from node 0 to node `|T|` is an atomic
//! transformation plan; Appendix A proves the construction sound and
//! complete, and the tests here exercise both properties.

use std::collections::{HashMap, HashSet};

use clx_pattern::{Pattern, Quantifier, Token};
use clx_unifi::{Expr, StringExpr};

use crate::search::PlanSearch;

/// Are two tokens *syntactically similar* (Definition 6.1)?
///
/// * base tokens: same class, and quantifiers are identical natural numbers
///   or at least one of them is `+`;
/// * literal tokens: identical constant values (this is what allows a target
///   separator to be extracted from the source rather than re-created, which
///   in turn enables sequential extracts to span separators — see Example 9).
pub fn syntactically_similar(a: &Token, b: &Token) -> bool {
    match (a.literal_value(), b.literal_value()) {
        (Some(x), Some(y)) => x == y,
        (None, None) => {
            a.class == b.class
                && match (a.quantifier, b.quantifier) {
                    (Quantifier::Exact(x), Quantifier::Exact(y)) => x == y,
                    _ => true,
                }
        }
        _ => false,
    }
}

/// Can extracting the literal source token `source_tok` produce the base
/// target token `target_tok`?
///
/// This covers patterns refined by constant discovery: a folded constant
/// such as `'CPT'` still supplies three upper-case characters, so it can be
/// extracted wherever the target asks for `<U>3` or `<U>+`.
fn literal_supplies_base(source_tok: &Token, target_tok: &Token) -> bool {
    let (Some(value), None) = (source_tok.literal_value(), target_tok.literal_value()) else {
        return false;
    };
    if value.is_empty() || !value.chars().all(|c| target_tok.class.contains_char(c)) {
        return false;
    }
    match target_tok.quantifier {
        Quantifier::Exact(n) => value.chars().count() == n,
        Quantifier::OneOrMore => true,
    }
}

/// The token-alignment DAG `G(η̃, ηs, ηt, ξ)`.
///
/// Nodes are positions `0..=target_len` within the target pattern; an edge
/// from `i` to `j` (with `i < j`) carries the operations able to produce
/// target tokens `i+1..=j` (one-based).
#[derive(Debug, Clone)]
pub struct AlignmentDag {
    target_len: usize,
    edges: HashMap<(usize, usize), Vec<StringExpr>>,
}

impl AlignmentDag {
    /// Number of target tokens (the target node is `target_len`).
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// The operations on the edge from node `i` to node `j`.
    pub fn edge(&self, i: usize, j: usize) -> &[StringExpr] {
        self.edges.get(&(i, j)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All edges, as `((from, to), operations)` pairs sorted by position.
    pub fn edges(&self) -> Vec<((usize, usize), &[StringExpr])> {
        let mut out: Vec<_> = self.edges.iter().map(|(&k, v)| (k, v.as_slice())).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Total number of operations across all edges.
    pub fn operation_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// The plans of this DAG for `source` in exact rank order, found lazily
    /// by best-first search: the simplest plan first, as ranked by
    /// [`source_reuse_penalty`](crate::source_reuse_penalty), then
    /// [`description_length`](crate::description_length), then plan text.
    /// `budget` caps the complete plans the search pops before it gives up
    /// (see [`PlanSearch`]).
    pub fn ranked_plans<'a>(&'a self, source: &'a Pattern, budget: usize) -> PlanSearch<'a> {
        PlanSearch::new(self, source, budget)
    }

    /// Enumerate atomic transformation plans (paths from node 0 to the
    /// target node) in depth-first order, up to `limit` plans. The
    /// enumeration is exhaustive when the number of paths does not exceed
    /// the limit.
    ///
    /// Synthesis does not call this: [`AlignmentDag::ranked_plans`] finds
    /// the best plans without visiting every path. It stays as the test
    /// oracle for that search and for alignment soundness.
    pub fn enumerate_plans(&self, limit: usize) -> Vec<Expr> {
        let mut plans = Vec::new();
        let mut current = Vec::new();
        self.enumerate_from(0, &mut current, &mut plans, limit);
        plans
    }

    fn enumerate_from(
        &self,
        node: usize,
        current: &mut Vec<StringExpr>,
        plans: &mut Vec<Expr>,
        limit: usize,
    ) {
        if plans.len() >= limit {
            return;
        }
        if node == self.target_len {
            plans.push(Expr::concat(current.clone()));
            return;
        }
        for next in (node + 1)..=self.target_len {
            for op in self.edge(node, next) {
                if plans.len() >= limit {
                    return;
                }
                current.push(op.clone());
                self.enumerate_from(next, current, plans, limit);
                current.pop();
            }
        }
    }
}

/// Algorithm 3: build the token-alignment DAG between `source` (the
/// candidate source pattern) and `target`.
pub fn align(source: &Pattern, target: &Pattern) -> AlignmentDag {
    let mut edges: HashMap<(usize, usize), Vec<StringExpr>> = HashMap::new();
    let m = target.len();

    // Lines 2-9: individual token matches.
    for (ti_idx, ti) in target.iter().enumerate() {
        let i = ti_idx + 1; // one-based target index
        for (tj_idx, tj) in source.iter().enumerate() {
            let j = tj_idx + 1; // one-based source index
            if syntactically_similar(ti, tj) || literal_supplies_base(tj, ti) {
                edges
                    .entry((i - 1, i))
                    .or_default()
                    .push(StringExpr::extract(j));
            }
        }
        if let Some(value) = ti.literal_value() {
            edges
                .entry((i - 1, i))
                .or_default()
                .push(StringExpr::const_str(value));
        }
    }

    // Lines 10-17 (generalized as in the Appendix A proof): combine an
    // incoming Extract edge ending at node i with the single-token Extract
    // edge (i, i+1) whenever the source tokens are consecutive. Processing
    // nodes in increasing order lets longer runs build up incrementally.
    // Edge (i, i+1) holds single-token `Extract(j)`s only, so an incoming
    // `Extract(a..=b)` combines with at most one of them, `j = b + 1`,
    // looked up in the set of outgoing `j`s.
    for i in 1..m {
        let outgoing: HashSet<usize> = edges
            .get(&(i, i + 1))
            .into_iter()
            .flatten()
            .filter_map(|op| match op {
                StringExpr::Extract { from, .. } => Some(*from),
                StringExpr::ConstStr(_) => None,
            })
            .collect();
        if outgoing.is_empty() {
            continue;
        }
        for from_node in 0..i {
            let Some(incoming) = edges.get(&(from_node, i)) else {
                continue;
            };
            let combined: Vec<StringExpr> = incoming
                .iter()
                .filter_map(|op| match op {
                    StringExpr::Extract { from, to } if outgoing.contains(&(to + 1)) => {
                        Some(StringExpr::extract_range(*from, to + 1))
                    }
                    _ => None,
                })
                .collect();
            if !combined.is_empty() {
                edges
                    .entry((from_node, i + 1))
                    .or_default()
                    .extend(combined);
            }
        }
    }

    // Deduplicate operations on each edge, keeping first occurrences in
    // insertion order.
    for ops in edges.values_mut() {
        let mut seen = HashSet::with_capacity(ops.len());
        ops.retain(|op| seen.insert(op.clone()));
    }

    AlignmentDag {
        target_len: m,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::{parse_pattern, tokenize, TokenClass};
    use clx_unifi::eval_expr;

    /// The combination `align` used to run, kept as the oracle: every
    /// incoming Extract against every outgoing one, each edge deduplicated
    /// by linear scans. Quadratic in similar source tokens.
    fn align_by_scans(
        source: &Pattern,
        target: &Pattern,
    ) -> HashMap<(usize, usize), Vec<StringExpr>> {
        let mut edges = align_single_tokens(source, target);
        for i in 1..target.len() {
            let incoming: Vec<((usize, usize), StringExpr)> = edges
                .iter()
                .filter(|(&(_, to), _)| to == i)
                .flat_map(|(&k, ops)| {
                    ops.iter()
                        .filter(|op| op.is_extract())
                        .cloned()
                        .map(move |op| (k, op))
                })
                .collect();
            let outgoing: Vec<StringExpr> = edges
                .get(&(i, i + 1))
                .map(|ops| ops.iter().filter(|op| op.is_extract()).cloned().collect())
                .unwrap_or_default();
            for ((from_node, _), inc) in &incoming {
                let StringExpr::Extract {
                    from: src_from,
                    to: src_to,
                } = inc
                else {
                    continue;
                };
                for out in &outgoing {
                    let StringExpr::Extract {
                        from: out_from,
                        to: out_to,
                    } = out
                    else {
                        continue;
                    };
                    if src_to + 1 == *out_from {
                        let combined = StringExpr::extract_range(*src_from, *out_to);
                        let entry = edges.entry((*from_node, i + 1)).or_default();
                        if !entry.contains(&combined) {
                            entry.push(combined);
                        }
                    }
                }
            }
        }
        for ops in edges.values_mut() {
            let mut seen = Vec::new();
            ops.retain(|op| {
                if seen.contains(op) {
                    false
                } else {
                    seen.push(op.clone());
                    true
                }
            });
        }
        edges
    }

    /// `align`'s single-token edges alone (lines 2-9).
    fn align_single_tokens(
        source: &Pattern,
        target: &Pattern,
    ) -> HashMap<(usize, usize), Vec<StringExpr>> {
        let mut edges: HashMap<(usize, usize), Vec<StringExpr>> = HashMap::new();
        for (ti_idx, ti) in target.iter().enumerate() {
            for (tj_idx, tj) in source.iter().enumerate() {
                if syntactically_similar(ti, tj) || literal_supplies_base(tj, ti) {
                    edges
                        .entry((ti_idx, ti_idx + 1))
                        .or_default()
                        .push(StringExpr::extract(tj_idx + 1));
                }
            }
            if let Some(value) = ti.literal_value() {
                edges
                    .entry((ti_idx, ti_idx + 1))
                    .or_default()
                    .push(StringExpr::const_str(value));
            }
        }
        edges
    }

    #[test]
    fn align_agrees_with_the_scanning_oracle() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let classes = [
            TokenClass::Digit,
            TokenClass::Lower,
            TokenClass::Upper,
            TokenClass::Alpha,
            TokenClass::AlphaNumeric,
        ];
        let literals = ["-", "/", "ab", "CPT", "7"];
        let mut pattern = |len: usize| {
            let tokens = (0..len)
                .map(|_| match next(3) {
                    0 => Token::literal(literals[next(literals.len())]),
                    1 => Token::plus(classes[next(classes.len())].clone()),
                    _ => Token::base(classes[next(classes.len())].clone(), 1 + next(3)),
                })
                .collect();
            Pattern::new(tokens)
        };
        for case in 0..3_000 {
            let source = pattern(case % 13);
            let target = pattern(case % 7 + 1);
            assert_eq!(
                align(&source, &target).edges,
                align_by_scans(&source, &target),
                "{source} -> {target}"
            );
        }
        // Long runs of similar tokens, the shape the set lookup is for.
        let source = tokenize(&"ab1-".repeat(40));
        let target = tokenize("ab1-ab1-");
        assert_eq!(
            align(&source, &target).edges,
            align_by_scans(&source, &target)
        );
    }

    #[test]
    fn syntactic_similarity_rules() {
        let d3 = Token::base(TokenClass::Digit, 3);
        let d4 = Token::base(TokenClass::Digit, 4);
        let dplus = Token::plus(TokenClass::Digit);
        let l3 = Token::base(TokenClass::Lower, 3);
        assert!(syntactically_similar(&d3, &d3));
        assert!(!syntactically_similar(&d3, &d4));
        assert!(syntactically_similar(&d3, &dplus));
        assert!(syntactically_similar(&dplus, &d4));
        assert!(syntactically_similar(&dplus, &dplus));
        assert!(!syntactically_similar(&d3, &l3));
        assert!(syntactically_similar(
            &Token::literal("-"),
            &Token::literal("-")
        ));
        assert!(!syntactically_similar(
            &Token::literal("-"),
            &Token::literal(".")
        ));
        assert!(!syntactically_similar(&Token::literal("-"), &d3));
    }

    #[test]
    fn example_8_phone_alignment() {
        // Source [<D>3, '.', <D>3, '.', <D>4]; target
        // ['(', <D>3, ')', ' ', <D>3, '-', <D>4] — Figure 9 of the paper.
        let source = tokenize("734.236.3466");
        let target = tokenize("(734) 645-8397");
        let dag = align(&source, &target);

        // Target token 2 (<D>3) can be extracted from source tokens 1 and 3.
        let ops: Vec<String> = dag.edge(1, 2).iter().map(|o| o.to_string()).collect();
        assert!(ops.contains(&"Extract(1)".to_string()));
        assert!(ops.contains(&"Extract(3)".to_string()));
        // Target token 1 '(' must be a ConstStr (no '(' in the source).
        let ops: Vec<String> = dag.edge(0, 1).iter().map(|o| o.to_string()).collect();
        assert_eq!(ops, vec!["ConstStr('(')"]);
        // Target token 7 (<D>4) only from source token 5.
        let ops: Vec<String> = dag.edge(6, 7).iter().map(|o| o.to_string()).collect();
        assert_eq!(ops, vec!["Extract(5)"]);
        assert!(dag.ranked_plans(&source, 2_000).next().is_some());
    }

    #[test]
    fn figure_10_sequential_extract_combination() {
        // Source <U><D>+..., target <U><D>+ — Extract(1) and Extract(2)
        // combine into Extract(1,2).
        let source = parse_pattern("<U><D>+").unwrap();
        let target = parse_pattern("<U><D>+").unwrap();
        let dag = align(&source, &target);
        let combined: Vec<String> = dag.edge(0, 2).iter().map(|o| o.to_string()).collect();
        assert!(combined.contains(&"Extract(1,2)".to_string()));
    }

    #[test]
    fn example_9_extract_spanning_separator() {
        // Source <D>2'/'<D>2'/'<D>4, target <D>2'/'<D>2: the plan
        // Concat(Extract(1,3)) must be discoverable.
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let target = parse_pattern("<D>2'/'<D>2").unwrap();
        let dag = align(&source, &target);
        let spanning: Vec<String> = dag.edge(0, 3).iter().map(|o| o.to_string()).collect();
        assert!(
            spanning.contains(&"Extract(1,3)".to_string()),
            "expected Extract(1,3), got {spanning:?}"
        );
    }

    #[test]
    fn soundness_every_plan_produces_a_target_match() {
        // Appendix A soundness: every enumerated plan, evaluated on a string
        // of the source pattern, yields a string matching the target pattern.
        let cases = [
            ("734.236.3466", "(734) 645-8397"),
            ("CPT115", "[CPT-00350]"),
            ("12/11/2017", "11-12"),
        ];
        for (src_str, tgt_str) in cases {
            let source = tokenize(src_str);
            let target = tokenize(tgt_str);
            let dag = align(&source, &target);
            for plan in dag.enumerate_plans(500) {
                let out = eval_expr(&plan, &source, src_str).unwrap();
                assert!(
                    target.matches(&out),
                    "plan {plan} on {src_str:?} gave {out:?} which does not match {target}"
                );
            }
        }
    }

    #[test]
    fn completeness_medical_code_plans_exist() {
        // Example 5: each source pattern admits a plan reaching the target.
        // The target is the generalized pattern the user labels, as in the
        // paper's UniFi program for this task.
        let target = parse_pattern("'['<U>+'-'<D>+']'").unwrap();
        for src in ["CPT-00350", "[CPT-00340", "CPT115"] {
            let source = tokenize(src);
            let dag = align(&source, &target);
            assert!(
                dag.ranked_plans(&source, 2_000).next().is_some(),
                "no complete path for source {src:?}"
            );
            let plans = dag.enumerate_plans(1000);
            assert!(!plans.is_empty());
            // And at least one plan produces the *value-correct* output.
            let expected = match src {
                "CPT-00350" => "[CPT-00350]",
                "[CPT-00340" => "[CPT-00340]",
                "CPT115" => "[CPT-115]",
                _ => unreachable!(),
            };
            assert!(
                plans
                    .iter()
                    .any(|p| eval_expr(p, &source, src).unwrap() == expected),
                "no plan produces {expected:?} for {src:?}"
            );
        }
    }

    #[test]
    fn no_path_when_target_token_cannot_be_built() {
        // Target needs an uppercase token; the source has none and it is not
        // a literal, so the DAG has no complete path.
        let source = tokenize("1234");
        let target = tokenize("AB12");
        let dag = align(&source, &target);
        assert!(dag.ranked_plans(&source, 2_000).next().is_none());
        assert!(dag.enumerate_plans(10).is_empty());
    }

    #[test]
    fn literal_targets_always_have_conststr() {
        let source = tokenize("abc");
        let target = tokenize("a-b");
        let dag = align(&source, &target);
        // Every target position has at least one edge option... except the
        // base-token positions that cannot match (here <L> vs <L>3 differ),
        // so check the literal one explicitly.
        let ops: Vec<String> = dag.edge(1, 2).iter().map(|o| o.to_string()).collect();
        assert!(ops.contains(&"ConstStr('-')".to_string()));
    }

    #[test]
    fn plan_enumeration_respects_limit() {
        let source = tokenize("1.2.3.4.5.6");
        let target = tokenize("7.8");
        let dag = align(&source, &target);
        let plans = dag.enumerate_plans(5);
        assert_eq!(plans.len(), 5);
    }

    #[test]
    fn empty_target_has_single_empty_plan() {
        let source = tokenize("abc");
        let target = Pattern::empty();
        let dag = align(&source, &target);
        assert!(dag.ranked_plans(&source, 2_000).next().is_some());
        let plans = dag.enumerate_plans(10);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].is_empty());
    }

    #[test]
    fn dag_edge_accessors() {
        let source = tokenize("12-34");
        let target = tokenize("12");
        let dag = align(&source, &target);
        assert_eq!(dag.target_len(), 1);
        assert!(dag.operation_count() >= 1);
        assert!(!dag.edges().is_empty());
        assert!(dag.edge(5, 6).is_empty());
    }
}
