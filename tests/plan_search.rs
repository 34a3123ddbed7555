//! The best-first plan search against the chain it replaced: enumerate the
//! alignment DAG's paths (up to 2,000), rank them, deduplicate pairwise,
//! rank again and take `top_k`. Over random pattern pairs and over every
//! source/target pair the benchmark suite's hierarchies offer, both give
//! the same ranked classes, plan for plan and bit for bit.

use proptest::prelude::*;

use clx::cluster::PatternProfiler;
use clx::column::Column;
use clx::datagen::benchmark_suite;
use clx::pattern::{tokenize, Pattern, Token, TokenClass};
use clx::synth::{
    align, description_length, plans_equivalent, source_reuse_penalty, validate, RankedPlan,
    SynthesisOptions,
};
use clx::unifi::Expr;

/// The enumeration cap of the replaced chain and the search's budget.
const BUDGET: usize = 2_000;

/// The replaced chain's ranking: (penalty, description length, text).
fn rank(plans: Vec<Expr>, source: &Pattern) -> Vec<(Expr, f64)> {
    let mut scored: Vec<(Expr, f64, usize, String)> = plans
        .into_iter()
        .map(|e| {
            let dl = description_length(&e, source);
            let penalty = source_reuse_penalty(&e);
            let text = e.to_string();
            (e, dl, penalty, text)
        })
        .collect();
    scored.sort_by(|a, b| {
        a.2.cmp(&b.2)
            .then_with(|| a.1.partial_cmp(&b.1).unwrap())
            .then_with(|| a.3.cmp(&b.3))
    });
    scored.into_iter().map(|(e, dl, _, _)| (e, dl)).collect()
}

/// The replaced chain, or `None` when the DAG has more than [`BUDGET`]
/// paths (the chain then ranked only the first 2,000 in depth-first order).
fn chain(source: &Pattern, target: &Pattern, top_k: usize) -> Option<Vec<RankedPlan>> {
    let plans = align(source, target).enumerate_plans(BUDGET + 1);
    if plans.len() > BUDGET {
        return None;
    }
    let mut kept: Vec<Expr> = Vec::new();
    for (plan, _) in rank(plans, source) {
        match kept.iter_mut().find(|k| plans_equivalent(k, &plan, source)) {
            None => kept.push(plan),
            Some(existing) => {
                let key = |e: &Expr| (source_reuse_penalty(e), description_length(e, source));
                if key(&plan) < key(existing) {
                    *existing = plan;
                }
            }
        }
    }
    Some(
        rank(kept, source)
            .into_iter()
            .take(top_k)
            .map(|(expr, description_length)| RankedPlan {
                expr,
                description_length,
            })
            .collect(),
    )
}

fn searched(source: &Pattern, target: &Pattern, top_k: usize) -> Vec<RankedPlan> {
    align(source, target)
        .ranked_plans(source, BUDGET)
        .top_classes(top_k)
}

/// Tokens random patterns are drawn from: exact and `+` classes, and
/// literals, some of them members of a class.
fn token_table() -> Vec<Token> {
    vec![
        Token::base(TokenClass::Digit, 1),
        Token::base(TokenClass::Digit, 2),
        Token::base(TokenClass::Digit, 3),
        Token::plus(TokenClass::Digit),
        Token::base(TokenClass::Lower, 2),
        Token::plus(TokenClass::Lower),
        Token::plus(TokenClass::Upper),
        Token::plus(TokenClass::Alpha),
        Token::plus(TokenClass::AlphaNumeric),
        Token::literal("-"),
        Token::literal("."),
        Token::literal("/"),
        Token::literal(" "),
        Token::literal("ab"),
        Token::literal("1"),
    ]
}

fn pattern_of(indices: &[usize]) -> Pattern {
    let table = token_table();
    Pattern::new(indices.iter().map(|&i| table[i].clone()).collect())
}

fn token_indices() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..token_table().len(), 1..7)
}

fn short_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'c'),
            proptest::char::range('0', '3'),
            Just('-'),
            Just('.'),
            Just('/'),
        ],
        1..10,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random token patterns, with `+` quantifiers and class-member
    /// literals, on both sides.
    #[test]
    fn search_matches_the_chain_on_random_patterns(
        src in token_indices(),
        picks in proptest::collection::vec(0usize..24, 1..6),
        top_k in 1usize..8,
    ) {
        // Most target tokens repeat a source token, so most DAGs have paths.
        let tgt: Vec<usize> = picks
            .iter()
            .map(|&p| if p < 16 { src[p % src.len()] } else { p - 16 + 7 })
            .collect();
        let (source, target) = (pattern_of(&src), pattern_of(&tgt));
        if let Some(want) = chain(&source, &target, top_k) {
            prop_assert_eq!(searched(&source, &target, top_k), want);
        }
    }

    /// Leaf patterns of random strings, where source and target share
    /// literals and exact counts.
    #[test]
    fn search_matches_the_chain_on_random_leaves(
        src in short_string(),
        tgt in short_string(),
        top_k in 1usize..8,
    ) {
        let (source, target) = (tokenize(&src), tokenize(&tgt));
        if let Some(want) = chain(&source, &target, top_k) {
            prop_assert_eq!(searched(&source, &target, top_k), want);
        }
    }
}

/// Every hierarchy node synthesis could align, on the suite at seeds 0..5
/// (the tasks `session_suite` labels), with the default `top_k`.
#[test]
fn search_matches_the_chain_on_the_benchmark_suite() {
    let top_k = SynthesisOptions::default().top_k;
    let (mut compared, mut skipped) = (0, 0);
    for seed in 0..5 {
        for task in benchmark_suite(seed) {
            let column = Column::from_values(&task.inputs);
            let hierarchy = PatternProfiler::new().profile_column(&column);
            let target = task.target_pattern();
            for node in hierarchy.nodes() {
                if !validate(&node.pattern, &target) {
                    continue;
                }
                match chain(&node.pattern, &target, top_k) {
                    Some(want) => {
                        assert_eq!(
                            searched(&node.pattern, &target, top_k),
                            want,
                            "task {} seed {seed}: {} -> {target}",
                            task.name,
                            node.pattern
                        );
                        compared += 1;
                    }
                    None => skipped += 1,
                }
            }
        }
    }
    assert!(compared > 1_000, "{compared} compared, {skipped} skipped");
}
