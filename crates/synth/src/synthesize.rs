//! The program-synthesis framework (Section 6, Algorithm 2 of the paper).
//!
//! Given the pattern-cluster hierarchy and the user-labelled target pattern,
//! the synthesizer traverses the hierarchy top-down, validates candidate
//! source patterns with the token-frequency heuristic, aligns each accepted
//! candidate against the target, and searches the alignment DAG best-first
//! for its simplest atomic transformation plans by description length. The
//! best plan per source pattern forms the default UniFi program; the next
//! ranked plans, one per equivalence class, are kept as repair
//! alternatives (§6.4).

use clx_cluster::{ClusterNode, PatternHierarchy};
use clx_column::Column;
use clx_pattern::Pattern;
use clx_unifi::{eval_expr, eval_expr_on_slices, Branch, Expr, Program};

use crate::align::align;
use crate::prune::subsumed;
use crate::search::RankedPlan;
use crate::validate::validate;

/// Options controlling synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Search budget per source pattern: the plan search gives up after
    /// popping this many complete plans (or `2 × budget × (|T| + 1)`
    /// frontier entries in all) without finding `top_k` equivalence
    /// classes. It then keeps the classes among the plans it already
    /// ranked, and the give-up is counted in
    /// [`SynthesisCounts::budget_exhausted`]. A DAG with at most this many
    /// paths never reaches it.
    pub max_plans_per_source: usize,
    /// Number of ranked, deduplicated alternative plans kept per source
    /// pattern for the repair interaction.
    pub top_k: usize,
    /// Drop candidate source patterns whose whole language is already
    /// claimed by branches that precede them in the synthesized program
    /// (first-match semantics would starve such a branch, so skipping it —
    /// and its children, whose languages are subsets — changes no output;
    /// see [`Synthesis::pruned`]). On by default; turn off to see every
    /// candidate the hierarchy offered.
    pub prune_unreachable: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            max_plans_per_source: 2_000,
            top_k: 5,
            prune_unreachable: true,
        }
    }
}

/// The synthesis result for one candidate source pattern.
#[derive(Debug, Clone)]
pub struct SourceSynthesis {
    /// The source pattern (a node of the hierarchy accepted by `validate`).
    pub pattern: Pattern,
    /// Deduplicated plans, simplest first (at most `top_k`).
    pub plans: Vec<RankedPlan>,
    /// Index into `plans` of the currently selected plan (0 unless repaired).
    pub chosen: usize,
    /// Number of data rows covered by this source pattern's cluster.
    pub rows: usize,
}

impl SourceSynthesis {
    /// The currently selected plan.
    pub fn selected(&self) -> &Expr {
        &self.plans[self.chosen].expr
    }
}

/// The complete output of synthesis over a hierarchy.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The labelled target pattern.
    pub target: Pattern,
    /// Per-source synthesis results, ordered by descending cluster size.
    pub sources: Vec<SourceSynthesis>,
    /// Patterns whose rows already match the target (no transformation
    /// needed).
    pub already_correct: Vec<Pattern>,
    /// Leaf patterns for which no transformation could be synthesized; their
    /// rows are left unchanged and flagged for review (§6.1).
    pub rejected: Vec<Pattern>,
    /// Candidate source patterns dropped before MDL ranking because the
    /// branches ordered ahead of them already claim their whole language
    /// (the static dead/shadow verdict): such a branch could never fire,
    /// so its rows are transformed by the covering branches either way.
    /// Empty when [`SynthesisOptions::prune_unreachable`] is off.
    pub pruned: Vec<Pattern>,
    /// What the plan search and the reachability pruning did.
    pub counts: SynthesisCounts,
}

/// Work tallies of one synthesis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthesisCounts {
    /// Complete plans the searches popped and scored.
    pub plans_explored: usize,
    /// Plan prefixes the searches dropped unqueued because a cheaper
    /// prefix of the same class dominates them ([`PlanSearch::dominated`](crate::PlanSearch::dominated)).
    pub plans_dominated: usize,
    /// Plan classes the searches kept (at most `top_k` per aligned source,
    /// before the data check).
    pub plans_kept: usize,
    /// Searches that gave up on [`SynthesisOptions::max_plans_per_source`].
    pub budget_exhausted: usize,
    /// Subsumption checks a witness string settled ("not subsumed").
    pub prune_screened: usize,
    /// Subsumption checks the subsumption automaton settled.
    pub prune_automaton: usize,
}

impl Synthesis {
    /// Build the UniFi program from the currently selected plans.
    pub fn program(&self) -> Program {
        Program::new(
            self.sources
                .iter()
                .map(|s| Branch::new(s.pattern.clone(), s.selected().clone()))
                .collect(),
        )
    }

    /// The repair alternatives for a source pattern.
    pub fn alternatives(&self, pattern: &Pattern) -> Option<&[RankedPlan]> {
        self.sources
            .iter()
            .find(|s| &s.pattern == pattern)
            .map(|s| s.plans.as_slice())
    }

    /// Select a different ranked plan for `pattern` (the repair interaction
    /// of §6.4). Returns `false` if the pattern or index is unknown.
    pub fn repair(&mut self, pattern: &Pattern, choice: usize) -> bool {
        match self.sources.iter_mut().find(|s| &s.pattern == pattern) {
            Some(s) if choice < s.plans.len() => {
                s.chosen = choice;
                true
            }
            _ => false,
        }
    }

    /// Total number of source branches.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }
}

/// Algorithm 2: synthesize a UniFi program from a pattern hierarchy and a
/// target pattern.
pub fn synthesize(
    hierarchy: &PatternHierarchy,
    target: &Pattern,
    options: &SynthesisOptions,
) -> Synthesis {
    synthesize_impl(hierarchy, None, target, options)
}

/// [`synthesize`] over the shared column data plane: identical search, plus
/// a final *data check* of every ranked plan against the cluster's cached
/// distinct values.
///
/// Alignment proves a plan maps the source **pattern** into the target
/// pattern; the data check proves it maps the cluster's actual **values**
/// there too, evaluating each candidate plan on a few cached distinct
/// examples (through the column's cached token slices — nothing is
/// re-tokenized) and dropping plans whose output fails to match the target.
/// A source whose every plan fails the check is treated like a failed
/// validation: the search descends to more specific children.
pub fn synthesize_column(
    hierarchy: &PatternHierarchy,
    column: &Column,
    target: &Pattern,
    options: &SynthesisOptions,
) -> Synthesis {
    synthesize_impl(hierarchy, Some(column), target, options)
}

/// Number of cached distinct examples each candidate plan is checked
/// against when a column is available.
const DATA_CHECK_EXAMPLES: usize = 3;

/// Evaluate `expr` on one distinct value of `column`, reusing the value's
/// cached token slices when the source pattern *is* its leaf pattern (the
/// common case; constant-folded patterns fall back to a fresh split).
fn eval_on_distinct(
    expr: &Expr,
    pattern: &Pattern,
    value: clx_column::DistinctValue<'_>,
) -> Result<String, clx_unifi::EvalError> {
    if pattern == value.leaf() {
        eval_expr_on_slices(expr, value.text(), value.token_slices())
    } else {
        eval_expr(expr, pattern, value.text())
    }
}

/// The data check: keep only the plans that transform every sampled
/// distinct value of `node`'s cluster into a target-matching string.
fn data_checked_plans(
    plans: Vec<RankedPlan>,
    node: &ClusterNode,
    column: &Column,
    target: &Pattern,
) -> Vec<RankedPlan> {
    let mut sample: Vec<usize> = Vec::new();
    for &row in &node.rows {
        let v = column.distinct_index_of(row);
        if !sample.contains(&v) {
            sample.push(v);
            if sample.len() >= DATA_CHECK_EXAMPLES {
                break;
            }
        }
    }
    plans
        .into_iter()
        .filter(|plan| {
            sample.iter().all(|&v| {
                let value = column.distinct(v);
                matches!(
                    eval_on_distinct(&plan.expr, &node.pattern, value),
                    Ok(out) if target.matches(&out)
                )
            })
        })
        .collect()
}

fn synthesize_impl(
    hierarchy: &PatternHierarchy,
    column: Option<&Column>,
    target: &Pattern,
    options: &SynthesisOptions,
) -> Synthesis {
    let mut unsolved: Vec<usize> = hierarchy.roots().iter().map(|n| n.id).collect();
    let mut sources: Vec<SourceSynthesis> = Vec::new();
    let mut already_correct: Vec<Pattern> = Vec::new();
    let mut rejected: Vec<Pattern> = Vec::new();
    let mut pruned: Vec<Pattern> = Vec::new();
    let mut counts = SynthesisCounts::default();
    // `notations[i]` is `sources[i].pattern.notation()`, the order tie-break.
    let mut notations: Vec<String> = Vec::new();

    while let Some(id) = unsolved.pop() {
        let node = hierarchy.node(id);
        let pattern = &node.pattern;

        // Rows already in the desired form need no transformation.
        if target.covers(pattern) || pattern == target {
            already_correct.push(pattern.clone());
            continue;
        }

        // Static reachability pruning, before any alignment or MDL work:
        // if the already-accepted sources that will *definitely* sort
        // ahead of this candidate (more rows, or equal rows and an
        // earlier notation — the final presentation order) jointly cover
        // its whole language, the candidate's branch could never fire
        // under first-match semantics, and every one of its rows is
        // transformed by those covering branches instead. Its children
        // are language subsets, so the whole subtree is skipped. (Sources
        // accepted *later* can also end up ahead of a candidate; the
        // final sweep below catches those.)
        let mut notation = None;
        if options.prune_unreachable {
            let preceding: Vec<&Pattern> = sources
                .iter()
                .zip(&notations)
                .filter(|(s, other)| {
                    s.rows > node.size()
                        || (s.rows == node.size()
                            && *other < notation.get_or_insert_with(|| pattern.notation()))
                })
                .map(|(s, _)| &s.pattern)
                .collect();
            if subsumed(pattern, &preceding, &mut counts) {
                pruned.push(pattern.clone());
                continue;
            }
        }

        let mut accepted = false;
        if validate(pattern, target) {
            let dag = align(pattern, target);
            let mut search = dag.ranked_plans(pattern, options.max_plans_per_source);
            let mut plans = search.top_classes(options.top_k);
            counts.plans_explored += search.explored();
            counts.plans_dominated += search.dominated();
            counts.plans_kept += plans.len();
            counts.budget_exhausted += usize::from(search.exhausted());
            if let Some(column) = column {
                plans = data_checked_plans(plans, node, column, target);
            }
            if !plans.is_empty() {
                sources.push(SourceSynthesis {
                    pattern: pattern.clone(),
                    plans,
                    chosen: 0,
                    rows: node.size(),
                });
                notations.push(notation.unwrap_or_else(|| pattern.notation()));
                accepted = true;
            }
        }

        if !accepted {
            if node.is_leaf() {
                rejected.push(pattern.clone());
            } else {
                unsolved.extend(node.children.iter().copied());
            }
        }
    }

    // Present larger clusters first, like the pattern list shown to the user.
    let mut ordered: Vec<(SourceSynthesis, String)> = sources.into_iter().zip(notations).collect();
    ordered.sort_by(|(a, a_notation), (b, b_notation)| {
        b.rows.cmp(&a.rows).then_with(|| a_notation.cmp(b_notation))
    });
    let mut sources: Vec<SourceSynthesis> = ordered.into_iter().map(|(s, _)| s).collect();

    if options.prune_unreachable {
        prune_unreachable_sources(&mut sources, &mut pruned, &mut counts);
    }

    Synthesis {
        target: target.clone(),
        sources,
        already_correct,
        rejected,
        pruned,
        counts,
    }
}

/// The order-exact half of reachability pruning: with the final branch
/// order known, drop every source whose language the kept sources ahead
/// of it jointly cover. Such a branch can never fire (first-match), so
/// removing it is output-identical — the covering branches' plans were
/// handling its rows already. Sound on `Some(true)` only: an inconclusive
/// automaton verdict (width or search budget) keeps the source.
fn prune_unreachable_sources(
    sources: &mut Vec<SourceSynthesis>,
    pruned: &mut Vec<Pattern>,
    counts: &mut SynthesisCounts,
) {
    let mut kept: Vec<SourceSynthesis> = Vec::with_capacity(sources.len());
    for source in sources.drain(..) {
        let ahead: Vec<&Pattern> = kept.iter().map(|k| &k.pattern).collect();
        if subsumed(&source.pattern, &ahead, counts) {
            pruned.push(source.pattern);
        } else {
            kept.push(source);
        }
    }
    *sources = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_cluster::PatternProfiler;
    use clx_pattern::{parse_pattern, tokenize};
    use clx_unifi::{transform, TransformOutcome};

    fn options() -> SynthesisOptions {
        SynthesisOptions::default()
    }

    #[test]
    fn phone_numbers_end_to_end() {
        // The motivating example: normalize phones to <D>3-<D>3-<D>4.
        let data = vec![
            "(734) 645-8397",
            "(734) 763-1147",
            "(734)586-7252",
            "734-422-8073",
            "734.236.3466",
            "N/A",
        ];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("734-422-8073");
        let synthesis = synthesize(&hierarchy, &target, &options());

        // The target-format cluster is recognized as already correct.
        assert!(synthesis.already_correct.iter().any(|p| p == &target));
        // "N/A" can never reach the target.
        assert!(synthesis.rejected.iter().any(|p| p == &tokenize("N/A")));

        let program = synthesis.program();
        for (input, expected) in [
            ("(734) 645-8397", "734-645-8397"),
            ("(734)586-7252", "734-586-7252"),
            ("734.236.3466", "734-236-3466"),
        ] {
            let out = transform(&program, input).unwrap();
            assert_eq!(
                out,
                TransformOutcome::Transformed(expected.to_string()),
                "input {input:?}"
            );
        }
        // Rows already correct or noise are not matched by any branch.
        assert!(transform(&program, "734-422-8073").unwrap().is_flagged());
        assert!(transform(&program, "N/A").unwrap().is_flagged());
    }

    #[test]
    fn medical_codes_with_generalized_target() {
        // Example 5 of the paper, labelling the generalized target pattern.
        let data = vec!["CPT-00350", "[CPT-00340", "[CPT-11536]", "CPT115"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = parse_pattern("'['<U>+'-'<D>+']'").unwrap();
        let synthesis = synthesize(&hierarchy, &target, &options());
        let program = synthesis.program();
        for (input, expected) in [
            ("CPT-00350", "[CPT-00350]"),
            ("[CPT-00340", "[CPT-00340]"),
            ("CPT115", "[CPT-115]"),
        ] {
            let out = transform(&program, input).unwrap();
            assert_eq!(out.value(), expected, "input {input:?}");
            assert!(out.is_transformed());
        }
        // The already-correct row is covered by the target.
        let correct = transform(&program, "[CPT-11536]").unwrap();
        assert_eq!(correct.value(), "[CPT-11536]");
    }

    #[test]
    fn every_selected_plan_produces_target_matching_output() {
        let data = vec![
            "(734) 645-8397",
            "(734)586-7252",
            "734.236.3466",
            "7344228073",
        ];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("734-422-8073");
        let synthesis = synthesize(&hierarchy, &target, &options());
        for source in &synthesis.sources {
            // Evaluate the chosen plan on one of the cluster's example rows.
            let node = hierarchy.find_pattern(&source.pattern).unwrap();
            let example = &node.examples[0];
            let out = clx_unifi::eval_expr(source.selected(), &source.pattern, example).unwrap();
            assert!(
                target.matches(&out),
                "plan for {} produced {out:?}",
                source.pattern
            );
        }
    }

    #[test]
    fn plans_are_ranked_simplest_first_and_deduplicated() {
        let data = vec!["12/11/2017", "01/02/2018", "11-12-2017"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("11-12-2017");
        let synthesis = synthesize(&hierarchy, &target, &options());
        for source in &synthesis.sources {
            let dls: Vec<f64> = source.plans.iter().map(|p| p.description_length).collect();
            assert!(dls.windows(2).all(|w| w[0] <= w[1]), "not sorted: {dls:?}");
            // No two plans in the list are equivalent.
            for i in 0..source.plans.len() {
                for j in (i + 1)..source.plans.len() {
                    assert!(!crate::dedup::plans_equivalent(
                        &source.plans[i].expr,
                        &source.plans[j].expr,
                        &source.pattern
                    ));
                }
            }
        }
    }

    #[test]
    fn repair_switches_the_selected_plan() {
        // The date example: DD/MM/YYYY -> MM-DD-YYYY is ambiguous; repair
        // lets the user pick the swapped alternative.
        let data = vec!["12/11/2017", "03/04/2018", "11-12-2017"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("11-12-2017");
        let mut synthesis = synthesize(&hierarchy, &target, &options());
        let source_pattern = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let alts = synthesis.alternatives(&source_pattern).unwrap().to_vec();
        assert!(alts.len() >= 2, "expected repair alternatives");

        let before = synthesis.program();
        let out_before = transform(&before, "12/11/2017")
            .unwrap()
            .value()
            .to_string();

        // Pick the first alternative that gives a *different* output.
        let mut repaired_output = None;
        for (i, alt) in alts.iter().enumerate().skip(1) {
            let out = clx_unifi::eval_expr(&alt.expr, &source_pattern, "12/11/2017").unwrap();
            if out != out_before {
                assert!(synthesis.repair(&source_pattern, i));
                repaired_output = Some(out);
                break;
            }
        }
        let repaired_output = repaired_output.expect("an alternative with different output");
        let after = synthesis.program();
        assert_eq!(
            transform(&after, "12/11/2017").unwrap().value(),
            repaired_output
        );
        assert!(target.matches(&repaired_output));
    }

    #[test]
    fn repair_rejects_bad_indices_and_unknown_patterns() {
        let data = vec!["ab-1", "cd-2", "x1"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("x1");
        let mut synthesis = synthesize(&hierarchy, &target, &options());
        assert!(!synthesis.repair(&tokenize("zzzz"), 0));
        if let Some(first) = synthesis.sources.first() {
            let pattern = first.pattern.clone();
            let len = first.plans.len();
            assert!(!synthesis.repair(&pattern, len + 10));
        }
    }

    #[test]
    fn repair_choice_boundaries_are_exact() {
        let data = vec!["12/11/2017", "03/04/2018", "11-12-2017"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("11-12-2017");
        let mut synthesis = synthesize(&hierarchy, &target, &options());
        let pattern = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let len = synthesis.alternatives(&pattern).unwrap().len();
        assert!(len >= 2);

        // The last valid index is accepted...
        assert!(synthesis.repair(&pattern, len - 1));
        let chosen = |s: &Synthesis| {
            s.sources
                .iter()
                .find(|src| src.pattern == pattern)
                .unwrap()
                .chosen
        };
        assert_eq!(chosen(&synthesis), len - 1);

        // ...the one-past-the-end index is rejected and leaves the
        // selection untouched (off-by-one would panic in `selected()`).
        assert!(!synthesis.repair(&pattern, len));
        assert_eq!(chosen(&synthesis), len - 1);
        let _ = synthesis.program(); // `selected()` must not be out of range

        // Back to the boundary at the other end.
        assert!(synthesis.repair(&pattern, 0));
        assert_eq!(chosen(&synthesis), 0);
    }

    #[test]
    fn noise_only_data_rejects_everything() {
        let data = vec!["N/A", "??", "-"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("734-422-8073");
        let synthesis = synthesize(&hierarchy, &target, &options());
        assert!(synthesis.sources.is_empty());
        assert_eq!(synthesis.program().len(), 0);
        assert!(!synthesis.rejected.is_empty());
    }

    #[test]
    fn all_data_already_correct_produces_empty_program() {
        let data = vec!["734-422-8073", "555-936-2447"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("734-422-8073");
        let synthesis = synthesize(&hierarchy, &target, &options());
        assert!(synthesis.sources.is_empty());
        assert!(!synthesis.already_correct.is_empty());
        assert!(synthesis.rejected.is_empty());
    }

    #[test]
    fn sources_are_ordered_by_cluster_size() {
        let data = vec![
            "(734) 645-8397",
            "(734) 763-1147",
            "(734) 936-2447",
            "734.236.3466",
            "734-422-8073",
        ];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("734-422-8073");
        let synthesis = synthesize(&hierarchy, &target, &options());
        let rows: Vec<usize> = synthesis.sources.iter().map(|s| s.rows).collect();
        assert!(rows.windows(2).all(|w| w[0] >= w[1]), "{rows:?}");
    }

    #[test]
    fn synthesize_column_agrees_with_synthesize_on_distinct_data() {
        let data = vec![
            "(734) 645-8397",
            "(734)586-7252",
            "734.236.3466",
            "734-422-8073",
            "N/A",
        ];
        let column = clx_column::Column::from_values(&data);
        let hierarchy = PatternProfiler::new().profile_column(&column);
        let target = tokenize("734-422-8073");
        let plain = synthesize(&hierarchy, &target, &options());
        let checked = synthesize_column(&hierarchy, &column, &target, &options());
        // The data check can only drop plans, never add or reorder them;
        // on this workload every aligned plan survives.
        assert_eq!(plain.program(), checked.program());
        assert_eq!(plain.rejected, checked.rejected);
        assert_eq!(plain.already_correct, checked.already_correct);
    }

    #[test]
    fn duplicated_values_synthesize_a_working_program() {
        // Regression: a column holding one value many times used to
        // constant-fold into a single literal and synthesize an *empty*
        // program (every row flagged). With distinct-value statistics the
        // leaf keeps its base tokens and synthesis succeeds.
        let data = vec!["Dr. Eran Yahav"; 40];
        let column = clx_column::Column::from_values(&data);
        let hierarchy = PatternProfiler::new().profile_column(&column);
        let target = tokenize("Eran Yahav");
        let synthesis = synthesize_column(&hierarchy, &column, &target, &options());
        assert!(
            !synthesis.sources.is_empty(),
            "repeated values must still synthesize, got rejected={:?}",
            synthesis.rejected
        );
        let program = synthesis.program();
        let out = transform(&program, "Dr. Eran Yahav").unwrap();
        assert_eq!(out, TransformOutcome::Transformed("Eran Yahav".into()));
    }

    #[test]
    fn data_check_reads_cached_token_streams() {
        // The sampled plan evaluations run on the column's cached slices
        // when the source pattern is the leaf; outputs must be identical to
        // a fresh eval_expr on the raw text.
        let data = vec!["(734) 645-8397", "(735) 646-8398", "734-422-8073"];
        let column = clx_column::Column::from_values(&data);
        let hierarchy = PatternProfiler::new().profile_column(&column);
        let target = tokenize("734-422-8073");
        let synthesis = synthesize_column(&hierarchy, &column, &target, &options());
        for source in &synthesis.sources {
            for plan in &source.plans {
                for value in column.distinct_values() {
                    if value.leaf() != &source.pattern {
                        continue;
                    }
                    let cached =
                        eval_expr_on_slices(&plan.expr, value.text(), value.token_slices())
                            .unwrap();
                    let fresh = eval_expr(&plan.expr, &source.pattern, value.text()).unwrap();
                    assert_eq!(cached, fresh);
                }
            }
        }
    }

    #[test]
    fn prune_sweep_drops_sources_covered_by_branches_ahead() {
        let source = |p: &str, rows: usize| SourceSynthesis {
            pattern: parse_pattern(p).unwrap(),
            plans: vec![RankedPlan {
                expr: Expr::concat(vec![clx_unifi::StringExpr::const_str("0")]),
                description_length: 1.0,
            }],
            chosen: 0,
            rows,
        };
        // Presentation order: <AN>+ first. <D>+ and <L>2 are language
        // subsets of it (shadowed at runtime); <D>'.'<D> is not ('.' is
        // outside <AN>).
        let mut sources = vec![
            source("<AN>+", 5),
            source("<D>+", 3),
            source("<D>'.'<D>", 2),
            source("<L>2", 1),
        ];
        let mut pruned = Vec::new();
        let mut counts = SynthesisCounts::default();
        prune_unreachable_sources(&mut sources, &mut pruned, &mut counts);
        let kept: Vec<String> = sources.iter().map(|s| s.pattern.to_string()).collect();
        assert_eq!(kept, ["<AN>+", "<D>'.'<D>"]);
        let dropped: Vec<String> = pruned.iter().map(|p| p.to_string()).collect();
        assert_eq!(dropped, ["<D>+", "<L>2"]);
    }

    #[test]
    fn pruning_on_and_off_produce_identical_transformations() {
        // Pruning only removes branches that can never fire, so the two
        // programs must transform every input identically — on workloads
        // with and without actual subsumption.
        let workloads: [(&[&str], &str); 3] = [
            (
                &[
                    "(734) 645-8397",
                    "(734)586-7252",
                    "734.236.3466",
                    "734-422-8073",
                    "N/A",
                ],
                "734-422-8073",
            ),
            (
                &["CPT-00350", "[CPT-00340", "[CPT-11536]", "CPT115"],
                "[CPT-00350]",
            ),
            (&["1.2.3", "11.22.33", "111.222.333"], "1-2-3"),
        ];
        for (data, target_text) in workloads {
            let hierarchy = PatternProfiler::new().profile(data);
            let target = tokenize(target_text);
            let with_prune = synthesize(&hierarchy, &target, &options());
            let without_prune = synthesize(
                &hierarchy,
                &target,
                &SynthesisOptions {
                    prune_unreachable: false,
                    ..options()
                },
            );
            assert!(without_prune.pruned.is_empty());
            let a = with_prune.program();
            let b = without_prune.program();
            for input in data {
                assert_eq!(
                    transform(&a, input).unwrap(),
                    transform(&b, input).unwrap(),
                    "on {input:?} (target {target_text:?})"
                );
            }
            // Every pruned pattern really is covered by kept branches
            // ordered ahead of it — the runtime guarantee behind the
            // output identity above.
            for (i, p) in with_prune.pruned.iter().enumerate() {
                let ahead: Vec<&Pattern> = with_prune.sources.iter().map(|s| &s.pattern).collect();
                assert_eq!(
                    clx_pattern::automaton::patterns_subsumed(p, &ahead),
                    Some(true),
                    "pruned[{i}] = {p} not covered (target {target_text:?})"
                );
            }
        }
    }

    #[test]
    fn top_k_limits_alternatives() {
        let data = vec!["1.2.3.4.5.6.7.8", "9-9"];
        let hierarchy = PatternProfiler::new().profile(&data);
        let target = tokenize("9-9");
        let opts = SynthesisOptions {
            top_k: 2,
            ..options()
        };
        let synthesis = synthesize(&hierarchy, &target, &opts);
        for s in &synthesis.sources {
            assert!(s.plans.len() <= 2);
        }
    }
}
