//! The analysis passes: each check is one pass emitting one diagnostic
//! code, run in a fixed order over a shared automaton.
//!
//! # Pass order and soundness
//!
//! 1. **Extract safety** (`CLX005`) — pure arithmetic over the branch's
//!    own pattern via the shared
//!    [`clx_unifi::extract_bounds_violation`] rules. The check is *exact*:
//!    `Pattern::split` yields exactly one slice per token for every
//!    matching string, so "in bounds against `pattern.len()`" is "in
//!    bounds for every matching row", quantifiers included.
//! 2. **Reachability** (`CLX001`/`CLX002`/`CLX003`) — one automaton over
//!    `[target, branch 0, …, branch k-1]` answers, per branch: is its
//!    language empty; does a *single* earlier branch subsume it
//!    (shadowed); does the union of earlier branches subsume it (dead);
//!    and, for live pairs, a concrete overlap witness. Subsumption by an
//!    earlier branch is checked against *all* earlier branches, alive or
//!    not — first-match semantics consult dead branches too, so the
//!    verdicts stay runtime-true.
//! 3. **Redundancy** (`CLX004`) — language subsumption by the target for
//!    branches not already reported unreachable.
//! 4. **Conformance** (`CLX006`) — each reachable, extract-safe branch's
//!    plan is abstracted to an *output pattern*: `ConstStr(s)` contributes
//!    `tokenize(s)`'s tokens, `Extract(i, j)` contributes the source
//!    pattern's tokens `i..=j`. Every concrete output is a string of that
//!    pattern's language (each extracted slice is a string of its source
//!    token), so proving `L(output) ⊆ L(target)` proves every row
//!    conforms. The abstraction over-approximates (an extracted `<D>2`
//!    slice next to a constant digit re-tokenizes as one longer run —
//!    which the automaton handles — but constants are also *specific*
//!    strings abstracted to their whole token class), so a failed proof is
//!    a warning ("cannot prove"), never a claimed counterexample about
//!    concrete rows.
//!
//! Language verdicts come from the bounded automaton search; when the
//! automaton cannot be built (width overflow) or a search exceeds its
//! state budget, affected passes degrade to cheaper token-level checks
//! (`Pattern::covers`) and a `CLX000` info finding records the gap —
//! analysis never guesses.
//!
//! # Screens before searches
//!
//! Most reachability and redundancy queries have an answer one cheap proof
//! settles, so each is screened before any search (see
//! [`clx_pattern::automaton`]'s screens). One member string per branch
//! ([`member`]) settles "not empty", and "not covered" for the
//! single-shadow, union and redundancy queries whenever no cover matches
//! it. A token-level disjointness proof ([`DisjointFacts`], built once
//! per branch) settles the pairwise overlap query as "empty". A screen
//! only ever settles a query exactly, so the verdicts are the search's;
//! an overlap always reaches the search, which supplies the `CLX003`
//! witness. `CLX006` keeps its search too, because its evidence shows the
//! witness. Under a sink each query is tallied by what settled it, as
//! `engine.analyze.screened` and `engine.analyze.searched`.

use std::sync::Arc;

use clx_pattern::automaton::{member, DisjointFacts, MultiPatternAutomaton};
use clx_pattern::{tokenize, Pattern, Token};
use clx_telemetry::{MetricSink, Span};
use clx_unifi::{extract_bounds_violation, Program, StringExpr};

use crate::diagnostic::{BranchFacts, Diagnostic, DiagnosticCode, Evidence, ProgramDiagnostics};

/// Analyze `program` against the labelled `target` pattern, with no
/// telemetry.
pub fn analyze_program(program: &Program, target: &Pattern) -> ProgramDiagnostics {
    analyze_observed(program, target, None)
}

/// Analyze `program` against the labelled `target` pattern, recording
/// `engine.analyze.*` pass timings and per-code counters into `sink`.
pub fn analyze_observed(
    program: &Program,
    target: &Pattern,
    sink: Option<&Arc<dyn MetricSink>>,
) -> ProgramDiagnostics {
    let _total = Span::start(sink, "engine.analyze.total_ns");
    if let Some(s) = sink {
        s.counter("engine.analyze.runs", 1);
    }

    let mut diagnostics = Vec::new();
    let mut facts = vec![
        BranchFacts {
            reachable: true,
            extract_safe: true,
            proven_conforming: false,
        };
        program.branches.len()
    ];

    {
        let _span = Span::start(sink, "engine.analyze.extracts_ns");
        extract_safety_pass(program, &mut diagnostics, &mut facts);
    }

    // One automaton serves reachability and redundancy: segment 0 is the
    // target, segment i+1 is branch i.
    let automaton = {
        let _span = Span::start(sink, "engine.analyze.build_ns");
        let mut slots: Vec<Option<&Pattern>> = Vec::with_capacity(program.branches.len() + 1);
        slots.push(Some(target));
        slots.extend(program.branches.iter().map(|b| Some(&b.pattern)));
        MultiPatternAutomaton::build(&slots)
    };
    let automaton = match automaton {
        Ok(a) => Some(a),
        Err(overflow) => {
            diagnostics.push(Diagnostic {
                code: DiagnosticCode::AnalysisIncomplete,
                severity: DiagnosticCode::AnalysisIncomplete.severity(),
                branch: None,
                message: format!(
                    "language analysis skipped: {overflow}; falling back to token-level checks"
                ),
                evidence: Evidence::WidthExceeded {
                    required: overflow.required,
                },
            });
            None
        }
    };

    // One member string per branch screens its language queries.
    let members: Vec<Option<String>> = program
        .branches
        .iter()
        .map(|b| member(&b.pattern))
        .collect();
    let mut settled = Settled::default();
    {
        let _span = Span::start(sink, "engine.analyze.reachability_ns");
        reachability_pass(
            program,
            automaton.as_ref(),
            &members,
            &mut settled,
            &mut diagnostics,
            &mut facts,
        );
    }
    {
        let _span = Span::start(sink, "engine.analyze.redundancy_ns");
        redundancy_pass(
            program,
            target,
            automaton.as_ref(),
            &members,
            &mut settled,
            &mut diagnostics,
            &facts,
        );
    }
    {
        let _span = Span::start(sink, "engine.analyze.conformance_ns");
        conformance_pass(program, target, &mut diagnostics, &mut facts);
    }

    if let Some(s) = sink {
        s.counter("engine.analyze.screened", settled.screened);
        s.counter("engine.analyze.searched", settled.searched);
        for d in &diagnostics {
            s.counter(code_counter(d.code), 1);
        }
    }
    ProgramDiagnostics { diagnostics, facts }
}

/// What settled each reachability and redundancy query: a search-free
/// screen, or the automaton's search.
#[derive(Debug, Default)]
struct Settled {
    screened: u64,
    searched: u64,
}

/// The static counter name for one diagnostic code (metric sinks take
/// `&'static str` names, so these cannot be formatted on the fly).
fn code_counter(code: DiagnosticCode) -> &'static str {
    match code {
        DiagnosticCode::AnalysisIncomplete => "engine.analyze.diagnostics.clx000",
        DiagnosticCode::DeadBranch => "engine.analyze.diagnostics.clx001",
        DiagnosticCode::ShadowedBranch => "engine.analyze.diagnostics.clx002",
        DiagnosticCode::AmbiguousOverlap => "engine.analyze.diagnostics.clx003",
        DiagnosticCode::RedundantBranch => "engine.analyze.diagnostics.clx004",
        DiagnosticCode::UnsafeExtract => "engine.analyze.diagnostics.clx005",
        DiagnosticCode::UnprovenConformance => "engine.analyze.diagnostics.clx006",
    }
}

/// `CLX005`: every `Extract` of every branch, against its own pattern.
/// One diagnostic per offending plan part (a plan can break several).
fn extract_safety_pass(
    program: &Program,
    diagnostics: &mut Vec<Diagnostic>,
    facts: &mut [BranchFacts],
) {
    for (index, branch) in program.branches.iter().enumerate() {
        let pattern_len = branch.pattern.len();
        for (part, expr) in branch.expr.parts.iter().enumerate() {
            let StringExpr::Extract { from, to } = expr else {
                continue;
            };
            let Some(rule) = extract_bounds_violation(*from, *to, pattern_len) else {
                continue;
            };
            facts[index].extract_safe = false;
            diagnostics.push(Diagnostic {
                code: DiagnosticCode::UnsafeExtract,
                severity: DiagnosticCode::UnsafeExtract.severity(),
                branch: Some(index),
                message: format!(
                    "plan part {part} ({expr}) is out of bounds for the \
                     {pattern_len}-token source pattern: every matching row would \
                     raise an evaluation error"
                ),
                evidence: Evidence::ExtractBounds {
                    part,
                    from: *from,
                    to: *to,
                    pattern_len,
                    rule,
                },
            });
        }
    }
}

/// `CLX001`/`CLX002`/`CLX003`: per-branch emptiness, shadowing by a
/// single earlier branch, death under the union of earlier branches, and
/// pairwise overlap between live branches.
fn reachability_pass(
    program: &Program,
    automaton: Option<&MultiPatternAutomaton>,
    members: &[Option<String>],
    settled: &mut Settled,
    diagnostics: &mut Vec<Diagnostic>,
    facts: &mut [BranchFacts],
) {
    let Some(automaton) = automaton else {
        // Token-level fallback: `covers` proves shadowing for
        // generalization-shaped pairs; emptiness/union checks need the
        // automaton and are skipped (already recorded as CLX000).
        for (index, branch) in program.branches.iter().enumerate().skip(1) {
            let pattern = &branch.pattern;
            if let Some(earlier) = (0..index).find(|&j| {
                program.branches[j].pattern.covers(pattern)
                    || &program.branches[j].pattern == pattern
            }) {
                facts[index].reachable = false;
                diagnostics.push(shadowed(index, earlier));
            }
        }
        return;
    };

    let disjoint_facts: Vec<DisjointFacts> = program
        .branches
        .iter()
        .map(|b| DisjointFacts::new(&b.pattern))
        .collect();
    let mut incomplete = false;
    for (index, this_branch) in disjoint_facts.iter().enumerate() {
        let seg = index + 1;
        let member = members[index].as_deref();
        // Does the member prove `cover` misses part of this branch?
        let rejects = |cover: &Pattern| member.is_some_and(|m| !cover.matches(m));
        // Emptiness first: an empty language is dead regardless of order.
        let empty = if member.is_some() {
            settled.screened += 1;
            Some(false)
        } else {
            settled.searched += 1;
            automaton.language_empty(seg)
        };
        match empty {
            Some(true) => {
                facts[index].reachable = false;
                diagnostics.push(Diagnostic {
                    code: DiagnosticCode::DeadBranch,
                    severity: DiagnosticCode::DeadBranch.severity(),
                    branch: Some(index),
                    message: "no string matches the branch pattern".into(),
                    evidence: Evidence::EmptyLanguage,
                });
                continue;
            }
            Some(false) => {}
            None => incomplete = true,
        }
        if index == 0 {
            continue;
        }
        // One earlier branch covering everything: shadowed. Checked
        // against every earlier branch (not only live ones) because
        // first-match semantics consult them all.
        let mut single = None;
        let mut rejected_by_all = true;
        for (j, earlier) in program.branches[..index].iter().enumerate() {
            if rejects(&earlier.pattern) {
                settled.screened += 1;
                continue;
            }
            rejected_by_all = false;
            settled.searched += 1;
            if automaton.uncovered_witness(seg, &[j + 1]) == Some(None) {
                single = Some(j);
                break;
            }
        }
        if let Some(earlier) = single {
            facts[index].reachable = false;
            diagnostics.push(shadowed(index, earlier));
            continue;
        }
        // The union of earlier branches covering everything with no
        // single culprit: dead. A member every earlier branch rejects
        // proves it live.
        let covered = if rejected_by_all {
            settled.screened += 1;
            Some(false)
        } else {
            settled.searched += 1;
            let earlier_segs: Vec<usize> = (1..seg).collect();
            automaton
                .uncovered_witness(seg, &earlier_segs)
                .map(|witness| witness.is_none())
        };
        match covered {
            Some(true) => {
                facts[index].reachable = false;
                diagnostics.push(Diagnostic {
                    code: DiagnosticCode::DeadBranch,
                    severity: DiagnosticCode::DeadBranch.severity(),
                    branch: Some(index),
                    message: format!(
                        "every matching string is claimed by earlier branches \
                         0..={}: the branch can never fire",
                        index - 1
                    ),
                    evidence: Evidence::Unreachable {
                        earlier: (0..index).collect(),
                    },
                });
                continue;
            }
            Some(false) => {}
            None => incomplete = true,
        }
        // Overlap warnings only between *live* pairs: overlap with a dead
        // branch adds noise on top of the error already reported.
        for (other, other_facts) in facts.iter().enumerate().take(index) {
            if !other_facts.reachable {
                continue;
            }
            // A token-level disjointness proof settles "empty"; an overlap
            // always comes from the search, witness included.
            if disjoint_facts[other].disjoint(this_branch) {
                settled.screened += 1;
                continue;
            }
            settled.searched += 1;
            match automaton.intersection_witness(other + 1, seg) {
                Some(Some(witness)) => {
                    diagnostics.push(Diagnostic {
                        code: DiagnosticCode::AmbiguousOverlap,
                        severity: DiagnosticCode::AmbiguousOverlap.severity(),
                        branch: Some(index),
                        message: format!(
                            "shares inputs with branch {other} (e.g. {witness:?}): \
                             which branch fires depends on branch order"
                        ),
                        evidence: Evidence::Overlap { other, witness },
                    });
                }
                Some(None) => {}
                None => incomplete = true,
            }
        }
    }
    if incomplete {
        diagnostics.push(Diagnostic {
            code: DiagnosticCode::AnalysisIncomplete,
            severity: DiagnosticCode::AnalysisIncomplete.severity(),
            branch: None,
            message: format!(
                "some reachability searches exceeded the {}-state budget; \
                 affected verdicts default to \"no finding\"",
                clx_pattern::automaton::SEARCH_STATE_LIMIT
            ),
            evidence: Evidence::SearchBudgetExceeded,
        });
    }
}

fn shadowed(index: usize, earlier: usize) -> Diagnostic {
    Diagnostic {
        code: DiagnosticCode::ShadowedBranch,
        severity: DiagnosticCode::ShadowedBranch.severity(),
        branch: Some(index),
        message: format!(
            "branch {earlier} matches every string this branch matches: \
             first-match semantics starve it"
        ),
        evidence: Evidence::ShadowedBy { earlier },
    }
}

/// `CLX004`: branches whose whole language already conforms to the
/// target. Unreachable branches are skipped (they already carry an
/// error).
fn redundancy_pass(
    program: &Program,
    target: &Pattern,
    automaton: Option<&MultiPatternAutomaton>,
    members: &[Option<String>],
    settled: &mut Settled,
    diagnostics: &mut Vec<Diagnostic>,
    facts: &[BranchFacts],
) {
    for (index, branch) in program.branches.iter().enumerate() {
        if !facts[index].reachable {
            continue;
        }
        // A member the target rejects proves the branch is needed.
        let needed = members[index]
            .as_deref()
            .is_some_and(|m| !target.matches(m));
        let redundant = match automaton {
            Some(_) if needed => {
                settled.screened += 1;
                false
            }
            Some(a) => {
                settled.searched += 1;
                a.uncovered_witness(index + 1, &[0]) == Some(None)
            }
            // Token-level fallback when the automaton could not be built.
            None => target.covers(&branch.pattern) || target == &branch.pattern,
        };
        if redundant {
            diagnostics.push(Diagnostic {
                code: DiagnosticCode::RedundantBranch,
                severity: DiagnosticCode::RedundantBranch.severity(),
                branch: Some(index),
                message: "every matching string already conforms to the target: \
                          the transform should be the identity"
                    .into(),
                evidence: Evidence::CoveredByTarget,
            });
        }
    }
}

/// `CLX006`: abstract each plan to an output pattern and prove it covered
/// by the target. Skips unreachable branches (their outputs never
/// materialize) and extract-unsafe branches (they have no outputs, only
/// errors — already reported as CLX005).
fn conformance_pass(
    program: &Program,
    target: &Pattern,
    diagnostics: &mut Vec<Diagnostic>,
    facts: &mut [BranchFacts],
) {
    for (index, branch) in program.branches.iter().enumerate() {
        if !facts[index].reachable || !facts[index].extract_safe {
            continue;
        }
        let output = output_pattern(branch.pattern.tokens(), &branch.expr.parts);
        if output == *target || target.covers(&output) {
            facts[index].proven_conforming = true;
            continue;
        }
        // Token-level cover failed; ask the automaton at language level
        // (e.g. Extract splitting a digit run differently than the
        // target's token boundaries).
        match MultiPatternAutomaton::build(&[Some(target), Some(&output)]) {
            Ok(automaton) => match automaton.uncovered_witness(1, &[0]) {
                Some(None) => {
                    facts[index].proven_conforming = true;
                    continue;
                }
                Some(Some(witness)) => {
                    diagnostics.push(unproven(index, output, Some(witness)));
                    continue;
                }
                None => {}
            },
            Err(_) => {
                // Width overflow: merging adjacent same-class runs only
                // generalizes the output language, so a cover of the
                // merged pattern is still a proof.
                if target.covers(&output.merge_adjacent()) {
                    facts[index].proven_conforming = true;
                    continue;
                }
            }
        }
        diagnostics.push(unproven(index, output, None));
    }
}

fn unproven(index: usize, output: Pattern, witness: Option<String>) -> Diagnostic {
    let detail = match &witness {
        Some(w) => format!(" (it can produce {w:?}, which the target rejects)"),
        None => String::new(),
    };
    Diagnostic {
        code: DiagnosticCode::UnprovenConformance,
        severity: DiagnosticCode::UnprovenConformance.severity(),
        branch: Some(index),
        message: format!(
            "cannot prove outputs conform to the target: the plan's output \
             pattern is {output}{detail}"
        ),
        evidence: Evidence::OutputDiverges { output, witness },
    }
}

/// The abstract output pattern of one plan: constants tokenize through
/// the standard tokenizer, extracts contribute their source tokens
/// verbatim.
fn output_pattern(source: &[Token], parts: &[StringExpr]) -> Pattern {
    let mut tokens: Vec<Token> = Vec::new();
    for part in parts {
        match part {
            StringExpr::ConstStr(s) => tokens.extend(tokenize(s).tokens().iter().cloned()),
            StringExpr::Extract { from, to } => {
                tokens.extend(source[from - 1..*to].iter().cloned());
            }
        }
    }
    Pattern::new(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::parse_pattern;
    use clx_unifi::{Branch, Expr};

    fn extract(i: usize) -> StringExpr {
        StringExpr::extract(i)
    }

    fn konst(s: &str) -> StringExpr {
        StringExpr::const_str(s)
    }

    fn identity_branch(pattern: &str) -> Branch {
        let p = parse_pattern(pattern).unwrap();
        let parts = (1..=p.len()).map(extract).collect();
        Branch::new(p, Expr::concat(parts))
    }

    #[test]
    fn clean_program_has_no_findings() {
        let target = parse_pattern("<D>3'-'<D>4").unwrap();
        let program = Program::new(vec![Branch::new(
            parse_pattern("<D>3'.'<D>4").unwrap(),
            Expr::concat(vec![extract(1), konst("-"), extract(3)]),
        )]);
        let report = analyze_program(&program, &target);
        assert!(report.is_clean(), "{report}");
        assert!(report.facts[0].reachable);
        assert!(report.facts[0].extract_safe);
        assert!(report.facts[0].proven_conforming);
    }

    #[test]
    fn shadowing_names_the_single_culprit() {
        let target = parse_pattern("<D>3").unwrap();
        let program = Program::new(vec![identity_branch("<D>+"), identity_branch("<D>2")]);
        let report = analyze_program(&program, &target);
        let shadow: Vec<_> = report.by_code(DiagnosticCode::ShadowedBranch).collect();
        assert_eq!(shadow.len(), 1);
        assert_eq!(shadow[0].branch, Some(1));
        assert_eq!(shadow[0].evidence, Evidence::ShadowedBy { earlier: 0 });
        assert!(!report.facts[1].reachable);
        assert!(report.has_errors());
    }

    #[test]
    fn union_death_is_distinct_from_shadowing() {
        // <AN> ⊆ <D> ∪ <L> ∪ <U> ∪ '-' ∪ '_' but no single branch covers it.
        let target = parse_pattern("<D>8").unwrap();
        let mut branches: Vec<Branch> = ["<D>", "<L>", "<U>", "'-'", "'_'"]
            .iter()
            .map(|p| {
                Branch::new(
                    parse_pattern(p).unwrap(),
                    Expr::concat(vec![konst("12345678")]),
                )
            })
            .collect();
        branches.push(Branch::new(
            parse_pattern("<AN>").unwrap(),
            Expr::concat(vec![konst("12345678")]),
        ));
        let report = analyze_program(&Program::new(branches), &target);
        let dead: Vec<_> = report.by_code(DiagnosticCode::DeadBranch).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].branch, Some(5));
        assert_eq!(
            dead[0].evidence,
            Evidence::Unreachable {
                earlier: vec![0, 1, 2, 3, 4]
            }
        );
        assert!(report
            .by_code(DiagnosticCode::ShadowedBranch)
            .next()
            .is_none());
    }

    #[test]
    fn overlap_is_a_warning_with_a_real_witness() {
        let target = parse_pattern("<D>4").unwrap();
        let program = Program::new(vec![
            Branch::new(
                parse_pattern("<D><AN>").unwrap(),
                Expr::concat(vec![konst("1234")]),
            ),
            Branch::new(
                parse_pattern("<AN><D>").unwrap(),
                Expr::concat(vec![konst("1234")]),
            ),
        ]);
        let report = analyze_program(&program, &target);
        let overlaps: Vec<_> = report.by_code(DiagnosticCode::AmbiguousOverlap).collect();
        assert_eq!(overlaps.len(), 1);
        assert_eq!(overlaps[0].branch, Some(1));
        let Evidence::Overlap { other, witness } = &overlaps[0].evidence else {
            panic!("wrong evidence: {:?}", overlaps[0].evidence);
        };
        assert_eq!(*other, 0);
        assert!(program.branches[0].pattern.matches(witness));
        assert!(program.branches[1].pattern.matches(witness));
        assert!(!report.has_errors());
    }

    #[test]
    fn redundant_branch_is_covered_by_the_target() {
        let target = parse_pattern("<D>+").unwrap();
        let program = Program::new(vec![identity_branch("<D>3")]);
        let report = analyze_program(&program, &target);
        let redundant: Vec<_> = report.by_code(DiagnosticCode::RedundantBranch).collect();
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].evidence, Evidence::CoveredByTarget);
    }

    #[test]
    fn unsafe_extract_reports_part_and_rule() {
        use clx_unifi::ExtractRule;
        let target = parse_pattern("<D>").unwrap();
        let program = Program::new(vec![Branch::new(
            parse_pattern("<D>'-'<D>").unwrap(),
            Expr::concat(vec![konst("x"), StringExpr::Extract { from: 1, to: 9 }]),
        )]);
        let report = analyze_program(&program, &target);
        let unsafe_: Vec<_> = report.by_code(DiagnosticCode::UnsafeExtract).collect();
        assert_eq!(unsafe_.len(), 1);
        assert_eq!(
            unsafe_[0].evidence,
            Evidence::ExtractBounds {
                part: 1,
                from: 1,
                to: 9,
                pattern_len: 3,
                rule: ExtractRule::PastEnd,
            }
        );
        assert!(!report.facts[0].extract_safe);
        // Conformance is skipped for the unsafe branch: no CLX006 noise.
        assert!(report
            .by_code(DiagnosticCode::UnprovenConformance)
            .next()
            .is_none());
    }

    #[test]
    fn conformance_sees_through_token_boundaries() {
        // Output <D>2<D>3 vs target <D>5: token-level covers fails, the
        // language-level automaton proves it.
        let target = parse_pattern("<D>5").unwrap();
        let program = Program::new(vec![Branch::new(
            parse_pattern("<D>2'-'<D>3").unwrap(),
            Expr::concat(vec![extract(1), extract(3)]),
        )]);
        let report = analyze_program(&program, &target);
        assert!(report.is_clean(), "{report}");
        assert!(report.facts[0].proven_conforming);
    }

    #[test]
    fn diverging_output_carries_a_witness_the_target_rejects() {
        let target = parse_pattern("<D>3'-'<D>4").unwrap();
        let program = Program::new(vec![Branch::new(
            parse_pattern("<D>+'.'<D>+").unwrap(),
            Expr::concat(vec![extract(1), konst("-"), extract(3)]),
        )]);
        let report = analyze_program(&program, &target);
        let findings: Vec<_> = report
            .by_code(DiagnosticCode::UnprovenConformance)
            .collect();
        assert_eq!(findings.len(), 1);
        let Evidence::OutputDiverges { output, witness } = &findings[0].evidence else {
            panic!("wrong evidence: {:?}", findings[0].evidence);
        };
        assert_eq!(output.to_string(), "<D>+'-'<D>+");
        let witness = witness.as_ref().expect("automaton finds a counterexample");
        assert!(output.matches(witness), "{witness:?}");
        assert!(!target.matches(witness), "{witness:?}");
        assert!(!report.facts[0].proven_conforming);
    }

    #[test]
    fn width_overflow_degrades_to_token_level_checks() {
        let target = parse_pattern("<D>200").unwrap();
        let program = Program::new(vec![identity_branch("<D>100"), identity_branch("<D>100")]);
        let report = analyze_program(&program, &target);
        // CLX000 records the skipped language analysis ...
        let info: Vec<_> = report.by_code(DiagnosticCode::AnalysisIncomplete).collect();
        assert_eq!(info.len(), 1);
        assert!(matches!(
            info[0].evidence,
            Evidence::WidthExceeded { required: 400 }
        ));
        // ... while the token-level fallback still catches the duplicate.
        let shadow: Vec<_> = report.by_code(DiagnosticCode::ShadowedBranch).collect();
        assert_eq!(shadow.len(), 1);
        assert_eq!(shadow[0].branch, Some(1));
    }

    #[test]
    fn telemetry_records_pass_timings_and_code_counters() {
        use clx_telemetry::InMemorySink;
        let sink: Arc<InMemorySink> = Arc::new(InMemorySink::new());
        let dyn_sink: Arc<dyn MetricSink> = Arc::clone(&sink) as Arc<dyn MetricSink>;
        let target = parse_pattern("<D>3").unwrap();
        let program = Program::new(vec![identity_branch("<D>+"), identity_branch("<D>2")]);
        let report = analyze_observed(&program, &target, Some(&dyn_sink));
        assert!(report.has_errors());
        let snapshot = clx_telemetry::MetricSink::snapshot(sink.as_ref());
        assert_eq!(snapshot.counter("engine.analyze.runs"), Some(1));
        assert_eq!(
            snapshot.counter("engine.analyze.diagnostics.clx002"),
            Some(1)
        );
        for span in [
            "engine.analyze.total_ns",
            "engine.analyze.build_ns",
            "engine.analyze.extracts_ns",
            "engine.analyze.reachability_ns",
            "engine.analyze.redundancy_ns",
            "engine.analyze.conformance_ns",
        ] {
            assert!(snapshot.histogram(span).is_some(), "missing span {span}");
        }
    }

    #[test]
    fn screens_settle_every_query_but_the_overlap() {
        use clx_telemetry::InMemorySink;
        let sink: Arc<InMemorySink> = Arc::new(InMemorySink::new());
        let dyn_sink: Arc<dyn MetricSink> = Arc::clone(&sink) as Arc<dyn MetricSink>;
        let target = parse_pattern("<D>4").unwrap();
        let program = Program::new(vec![
            Branch::new(
                parse_pattern("<D><AN>").unwrap(),
                Expr::concat(vec![konst("1234")]),
            ),
            Branch::new(
                parse_pattern("<AN><D>").unwrap(),
                Expr::concat(vec![konst("1234")]),
            ),
        ]);
        let report = analyze_observed(&program, &target, Some(&dyn_sink));
        assert_eq!(report, analyze_program(&program, &target));
        let snapshot = clx_telemetry::MetricSink::snapshot(sink.as_ref());
        // Two emptiness, two redundancy, one shadow and one union query
        // are screened; only the overlap is searched, for its witness.
        assert_eq!(snapshot.counter("engine.analyze.screened"), Some(6));
        assert_eq!(snapshot.counter("engine.analyze.searched"), Some(1));
        assert_eq!(
            snapshot.counter("engine.analyze.diagnostics.clx003"),
            Some(1)
        );
    }
}
