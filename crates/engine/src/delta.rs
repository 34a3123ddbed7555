//! Change-impact analysis between two compiled programs.
//!
//! A [`ProgramDelta`] drives [`crate::ColumnStream::swap_program`]: after a
//! mid-stream program swap it answers, per cached dispatch plan, *"would
//! the new program build exactly this plan for this leaf?"* — without
//! re-running anything. The stream keeps the plans it proves and drops the
//! rest. Stored per-value decisions are never visited: each one replays
//! only while the plan that decided it is still its leaf's plan (see "Plan
//! serials" in the `dispatch` module docs), so the swap costs O(cached
//! plans) and the values under dropped plans re-decide lazily, on their
//! next sight.
//!
//! # How the diff works
//!
//! Branches of the old and new program are matched greedily in order on
//! `(pattern, expr)` equality (an order-preserving two-pointer scan).
//! Matched branches are *identical*; everything unmatched is a changed
//! branch — removed/modified on the old side, added/modified on the new.
//! The changed sets are then intersected with `clx-analyze`'s per-branch
//! [`BranchFacts`](clx_analyze::BranchFacts): a changed branch **proven
//! unreachable** on its own side can never (have) won a row, so it is
//! skipped entirely and widens no impact set.
//!
//! # Why `keeps_plan` is sound
//!
//! A [`LeafPlan`] is the prefix of the sequential decision sequence (target
//! first, then each branch) that the leaf alone cannot resolve, ended by
//! the first leaf-resolved outcome. With the target unchanged:
//!
//! * a `[Conforming]` plan never reaches a branch, so every program with
//!   this target builds it, whatever the branches;
//! * an empty plan (flagged: no branch matched, none opaque) stays empty
//!   unless a branch new to this program is opaque or matches the leaf;
//! * any other plan embeds branch *indices*, so it is kept only when every
//!   matched branch keeps its index (the `index_stable` field) and no
//!   changed branch on either side is opaque or matches the leaf. Opaque
//!   branches get `CheckBranch` steps in **every** plan, so any opaque
//!   change conservatively drops them. Transparent branches appear in a
//!   plan only when they match the leaf signature — and transparent
//!   matching is decided *by* the leaf signature — so a leaf that no
//!   changed transparent pattern matches (answered by one pass over a
//!   dedicated multi-pattern automaton over just the changed patterns)
//!   keeps a plan that is step-for-step the new program's.
//!
//! In each case the kept plan replays every value with the leaf exactly as
//! the new program decides it, so the decisions it made stay valid too.

use std::sync::Arc;

use clx_pattern::Pattern;
use clx_telemetry::MetricSink;

use crate::compiled::CompiledProgram;
use crate::dispatch::{LeafPlan, Step};
use crate::fused::FusedMatcher;

/// The compiled difference between an old and a new [`CompiledProgram`]:
/// which branch slots changed, and the machinery to test whether a cached
/// per-leaf plan survives the change.
///
/// Built by [`ProgramDelta::between`]; every query is read-only and costs
/// one classification pass over the leaf, at most.
#[derive(Debug)]
pub(crate) struct ProgramDelta {
    /// `true` when the labelled target pattern itself differs — every
    /// plan is affected.
    target_changed: bool,
    /// `true` when both programs have the same branch count and every
    /// matched (identical) branch keeps its index — the precondition for
    /// retaining plans that embed branch indices.
    index_stable: bool,
    /// Patterns of the branches present in the old program with no
    /// identical counterpart in the new one (removed or modified), minus
    /// proven-unreachable ones.
    changed_old: Vec<Pattern>,
    /// Patterns of the branches present in the new program with no
    /// identical counterpart in the old one (added or modified), minus
    /// proven-unreachable ones.
    changed_new: Vec<Pattern>,
    /// `true` when any changed branch (either side) is opaque: opaque
    /// branches are checked per value, so the leaf cannot answer for them.
    has_opaque_change: bool,
    /// One automaton over every changed pattern, old side then new side:
    /// classifies a leaf against all of them in a single pass. `None` when
    /// nothing changed, an opaque branch changed, or construction fell back
    /// — queries then answer conservatively.
    leaf_matcher: Option<FusedMatcher>,
}

impl ProgramDelta {
    /// Diff `old` against `new`, publishing the
    /// `engine.delta.branches_changed` counter to `sink`. Cost is
    /// `O(branches²)` worst case on the greedy matching (linear when branch
    /// order is preserved, the repair case) plus one `clx-analyze` run per
    /// program the first time it takes part in a swap (the result stays on
    /// the program) — all program-sized, never row- or distinct-sized.
    pub(crate) fn between(
        old: &CompiledProgram,
        new: &CompiledProgram,
        sink: Option<&Arc<dyn MetricSink>>,
    ) -> ProgramDelta {
        let target_changed = old.target() != new.target();

        // Greedy order-preserving matching on (pattern, expr) equality.
        let old_branches = old.branches();
        let new_branches = new.branches();
        let mut matched_new = vec![false; new_branches.len()];
        let mut identity = old_branches.len() == new_branches.len();
        let mut changed_old_idx = Vec::new();
        let mut next_new = 0;
        for (i, ob) in old_branches.iter().enumerate() {
            let hit = (next_new..new_branches.len()).find(|&j| {
                new_branches[j].pattern() == ob.pattern() && new_branches[j].expr() == ob.expr()
            });
            match hit {
                Some(j) => {
                    matched_new[j] = true;
                    next_new = j + 1;
                    identity &= i == j;
                }
                None => changed_old_idx.push(i),
            }
        }
        let changed_new_idx: Vec<usize> = (0..new_branches.len())
            .filter(|&j| !matched_new[j])
            .collect();
        let index_stable = identity;

        // Facts intersection: a changed branch proven unreachable on its
        // own side can never (have) decided a row — drop it so it widens
        // no impact set. Matched branches are identical by construction,
        // so their facts are identical too and they are skipped already.
        let changed_old_idx = filter_reachable(old, changed_old_idx);
        let changed_new_idx = filter_reachable(new, changed_new_idx);

        let has_opaque_change = changed_old_idx
            .iter()
            .any(|&i| !old_branches[i].is_transparent())
            || changed_new_idx
                .iter()
                .any(|&j| !new_branches[j].is_transparent());
        let snapshot = |branches: &[crate::CompiledBranch], idx: &[usize]| {
            idx.iter()
                .map(|&i| branches[i].pattern().clone())
                .collect::<Vec<_>>()
        };
        let changed_old = snapshot(old_branches, &changed_old_idx);
        let changed_new = snapshot(new_branches, &changed_new_idx);

        // One automaton over every changed pattern, so a leaf query is a
        // single classification pass however many branches changed.
        // Opaque changes are answered without it.
        let leaf_matcher = if has_opaque_change || changed_old.is_empty() && changed_new.is_empty()
        {
            None
        } else {
            let slots: Vec<Option<&Pattern>> =
                changed_old.iter().chain(&changed_new).map(Some).collect();
            FusedMatcher::build(None, &slots).ok()
        };

        let delta = ProgramDelta {
            target_changed,
            index_stable,
            changed_old,
            changed_new,
            has_opaque_change,
            leaf_matcher,
        };
        if let Some(sink) = sink {
            sink.counter(
                "engine.delta.branches_changed",
                delta.branches_changed() as u64,
            );
        }
        delta
    }

    /// Number of changed branch slots, counted on both sides: a removed or
    /// added branch counts once, a *modified* branch once per side (its old
    /// form and its new form are both live impact sources). Branches the
    /// facts intersection proved unreachable are not counted — they are
    /// skipped entirely.
    pub(crate) fn branches_changed(&self) -> usize {
        self.changed_old.len() + self.changed_new.len()
    }

    /// `true` when the labelled target pattern changed (which affects
    /// every plan).
    pub(crate) fn target_changed(&self) -> bool {
        self.target_changed
    }

    /// Would the new program build exactly `plan`, a plan the old program
    /// built for leaf signature `leaf`? `true` is a proof: the plan, and
    /// every decision it made, may be kept as-is (see "Why `keeps_plan` is
    /// sound" in the module docs). `false` means "rebuild to find out".
    pub(crate) fn keeps_plan(&self, plan: &LeafPlan, leaf: &Pattern) -> bool {
        if self.target_changed {
            return false;
        }
        match plan.steps.as_slice() {
            [Step::Conforming] => true,
            [] => self.screen(leaf).is_some_and(|(_, new_hit)| !new_hit),
            _ => self.index_stable && self.screen(leaf) == Some((false, false)),
        }
    }

    /// Which sides of the changed set match `leaf`: `(old side hit, new
    /// side hit)`. `None` means the screen cannot answer (an opaque branch
    /// changed, the matcher declined a pattern, or `leaf` is not a
    /// tokenizer-producible signature) — callers must then assume a hit.
    fn screen(&self, leaf: &Pattern) -> Option<(bool, bool)> {
        if self.has_opaque_change {
            return None;
        }
        if self.branches_changed() == 0 {
            return Some((false, false));
        }
        let matcher = self.leaf_matcher.as_ref()?;
        let run = matcher.classify(leaf)?;
        // Slot i is changed pattern i, old side first (the matcher was
        // built with no target segment; `FusedMatcher` offsets internally).
        let split = self.changed_old.len();
        let hit =
            |mut slots: std::ops::Range<usize>| slots.any(|i| matcher.branch_matches(&run, i));
        Some((hit(0..split), hit(split..self.branches_changed())))
    }
}

/// Drop the changed-branch indices whose branch the analyzer proves can
/// never fire in `program`.
fn filter_reachable(program: &CompiledProgram, changed: Vec<usize>) -> Vec<usize> {
    if changed.is_empty() {
        return changed;
    }
    let reachable = program.branch_reachable();
    changed.into_iter().filter(|&i| reachable[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::{parse_pattern, tokenize};
    use clx_unifi::{Branch, Expr, Program, StringExpr};

    fn compile(branches: Vec<Branch>, target: &str) -> CompiledProgram {
        CompiledProgram::compile(&Program::new(branches), &parse_pattern(target).unwrap())
            .expect("test programs compile")
    }

    /// Same target and no changed branch slot: every value decides alike.
    fn is_identity(delta: &ProgramDelta) -> bool {
        !delta.target_changed() && delta.branches_changed() == 0
    }

    fn extract_all(pattern: &Pattern) -> Expr {
        Expr::concat(vec![StringExpr::extract_range(1, pattern.len())])
    }

    fn constant(text: &str) -> Expr {
        Expr::concat(vec![StringExpr::const_str(text)])
    }

    fn branch(pattern: &str, expr: Expr) -> Branch {
        Branch::new(parse_pattern(pattern).unwrap(), expr)
    }

    /// `program`'s plan for `value`'s leaf.
    fn plan(program: &CompiledProgram, value: &str) -> LeafPlan {
        program.build_plan_observed(&tokenize(value), value, None)
    }

    /// Does `delta` keep the plan `old` built for `value`? Checks the
    /// answer against the plan `new` builds: a kept plan must be it.
    fn keeps(
        delta: &ProgramDelta,
        old: &CompiledProgram,
        new: &CompiledProgram,
        value: &str,
    ) -> bool {
        let (before, after) = (plan(old, value), plan(new, value));
        let kept = delta.keeps_plan(&before, &tokenize(value));
        if kept {
            assert_eq!(
                format!("{before:?}"),
                format!("{after:?}"),
                "kept a stale plan for {value}"
            );
        }
        kept
    }

    #[test]
    fn identical_programs_are_an_identity_delta() {
        let p = tokenize("12-34");
        let a = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+'-'<D>+");
        let b = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+'-'<D>+");
        let delta = ProgramDelta::between(&a, &b, None);
        assert!(is_identity(&delta));
        assert!(delta.index_stable);
        for value in ["12-34", "1-2", "xy"] {
            assert!(keeps(&delta, &a, &b, value), "{value}");
        }
    }

    #[test]
    fn target_change_affects_everything() {
        let p = tokenize("12-34");
        let a = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+'-'<D>+");
        let b = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+");
        let delta = ProgramDelta::between(&a, &b, None);
        assert!(delta.target_changed());
        for value in ["1-2", "12-34", "zz"] {
            assert!(!keeps(&delta, &a, &b, value), "{value}");
        }
    }

    #[test]
    fn repaired_branch_affects_only_values_it_matches() {
        let digits = parse_pattern("<D>2'-'<D>2").unwrap();
        let letters = parse_pattern("<L>+").unwrap();
        let a = compile(
            vec![
                Branch::new(digits.clone(), extract_all(&digits)),
                Branch::new(letters.clone(), extract_all(&letters)),
            ],
            "<U>+",
        );
        let b = compile(
            vec![
                Branch::new(
                    digits.clone(),
                    Expr::concat(vec![StringExpr::extract(1), StringExpr::extract(3)]),
                ),
                Branch::new(letters.clone(), extract_all(&letters)),
            ],
            "<U>+",
        );
        let delta = ProgramDelta::between(&a, &b, None);
        assert!(!is_identity(&delta));
        assert!(delta.index_stable, "unchanged branch keeps its index");
        // Modified branch counts on both sides.
        assert_eq!(delta.branches_changed(), 2);
        // The repaired branch's leaf rebuilds; the untouched branch's,
        // the conforming and the flagged leaves keep their plans.
        assert!(!keeps(&delta, &a, &b, "12-34"));
        assert!(keeps(&delta, &a, &b, "abc"));
        assert!(keeps(&delta, &a, &b, "ABC"));
        assert!(keeps(&delta, &a, &b, "!!"));
    }

    #[test]
    fn conforming_and_flagged_plans_survive_a_changed_generic_branch() {
        // `<AN>+` matches the conforming leaf `<D>4` too, but a conforming
        // plan never reaches a branch.
        let a = compile(vec![branch("<AN>+", constant("x"))], "<D>4");
        let b = compile(vec![branch("<AN>+", constant("y"))], "<D>4");
        let delta = ProgramDelta::between(&a, &b, None);
        assert!(keeps(&delta, &a, &b, "1234"));
        // A flagged leaf falls only when the new side matches it.
        assert!(keeps(&delta, &a, &b, "!!"));
        assert!(!keeps(&delta, &a, &b, "ab"));

        // An added branch picks up a flagged leaf: only that one falls.
        let c = compile(
            vec![
                branch("<AN>+", constant("x")),
                Branch::new(tokenize("!!"), constant("z")),
            ],
            "<D>4",
        );
        let delta = ProgramDelta::between(&a, &c, None);
        assert!(!keeps(&delta, &a, &c, "!!"));
        assert!(keeps(&delta, &a, &c, "??"));
        assert!(keeps(&delta, &a, &c, "1234"));
    }

    #[test]
    fn inserted_branch_breaks_index_stability() {
        let a = compile(vec![branch("<L>+", constant("l"))], "<U>+");
        let b = compile(
            vec![branch("<D>+", constant("d")), branch("<L>+", constant("l"))],
            "<U>+",
        );
        let delta = ProgramDelta::between(&a, &b, None);
        assert!(!delta.index_stable, "shared branch shifted from 0 to 1");
        assert_eq!(delta.branches_changed(), 1);
        // Index instability forfeits every plan that names a branch...
        assert!(!keeps(&delta, &a, &b, "abc"));
        // ...but not the conforming plan, nor a flagged leaf the new
        // branch does not match.
        assert!(keeps(&delta, &a, &b, "ABC"));
        assert!(keeps(&delta, &a, &b, "!!"));
        assert!(!keeps(&delta, &a, &b, "99"));
    }

    #[test]
    fn swapped_branch_order_is_conservatively_changed() {
        let a = compile(
            vec![
                branch("<D>2", constant("two")),
                branch("<D>+", constant("many")),
            ],
            "<L>+",
        );
        let b = compile(
            vec![
                branch("<D>+", constant("many")),
                branch("<D>2", constant("two")),
            ],
            "<L>+",
        );
        let delta = ProgramDelta::between(&a, &b, None);
        // "12" used to hit the <D>2 branch, now hits <D>+ first: the delta
        // must not keep its plan.
        assert!(!keeps(&delta, &a, &b, "12"));
    }

    #[test]
    fn unreachable_changed_branches_are_skipped_entirely() {
        // <D>2 is shadowed by <D>+ in both programs: the analyzer proves
        // it unreachable, so editing it changes no outcome and the facts
        // intersection drops it from the changed sets.
        let a = compile(
            vec![branch("<D>+", constant("n")), branch("<D>2", constant("a"))],
            "<L>+",
        );
        let b = compile(
            vec![branch("<D>+", constant("n")), branch("<D>2", constant("b"))],
            "<L>+",
        );
        let delta = ProgramDelta::between(&a, &b, None);
        assert!(is_identity(&delta), "only a dead branch differs");
        assert_eq!(delta.branches_changed(), 0);
        assert!(keeps(&delta, &a, &b, "12"));
    }
}
