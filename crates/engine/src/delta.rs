//! Change-impact analysis between two compiled programs.
//!
//! A [`ProgramDelta`] is the substrate of the incremental re-verification
//! loop (ROADMAP item 5): after a repair (or any program swap) it answers,
//! per already-decided outcome and per leaf pattern, *"can the new program
//! decide this differently?"* — without re-running anything. Consumers
//! then re-decide only what the delta cannot prove unchanged:
//!
//! * [`crate::BatchReport::patch`] rewrites only the affected outcomes of
//!   a finished report in place;
//! * [`crate::ColumnStream::swap_program`] invalidates only the affected
//!   entries of its decision cache and retains dense dispatch plans for
//!   unaffected leaf-ids.
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
//! # Why `affects_outcome` is sound
//!
//! Take a value `v` whose stored outcome the delta reports unaffected
//! (target unchanged, `v` full-matches no changed branch's regex, old and
//! new side). If the outcome was `Conforming`, the target still matches —
//! branches are never consulted. Otherwise `v`'s old winner (or, for
//! `Flagged`, the absence of one) involved only *unchanged* branches, the
//! greedy matching preserves their relative order, and every changed
//! branch ahead of the winner in the new order fails to match `v` — so
//! the new program picks the same winner with the same plan and produces
//! byte-for-byte the same outcome. A regex full-match is a superset of
//! "fires" (an opaque branch additionally needs its plan to evaluate), so
//! the test errs toward re-deciding, never toward staleness.
//!
//! # Why `affects_leaf` can retain whole dispatch plans
//!
//! A [`LeafPlan`](crate::dispatch) embeds branch *indices*, so plans are
//! only retainable at all when every matched branch keeps its index
//! ([`ProgramDelta::index_stable`]) and the target is unchanged. Opaque
//! branches get `CheckBranch` steps in **every** plan, so any opaque
//! change conservatively affects every leaf. Transparent branches appear
//! in a plan only when they match the leaf signature — and transparent
//! matching is decided *by* the leaf signature — so a leaf that no changed
//! transparent pattern matches (answered by one pass over a dedicated
//! multi-pattern automaton over just the changed patterns) keeps a plan
//! that is step-for-step valid under the new program.

use std::collections::HashMap;
use std::sync::Arc;

use clx_pattern::Pattern;
use clx_regex::Regex;
use clx_telemetry::MetricSink;
use clx_unifi::{Branch, Program};

use crate::compiled::CompiledProgram;
use crate::fused::FusedMatcher;
use crate::report::RowOutcome;

/// One changed branch slot: enough of the compiled branch to test values
/// and leaves against it without holding the whole program alive.
#[derive(Debug)]
struct ChangedBranch {
    /// The branch's source pattern (kept for the leaf-level matcher).
    pattern: Pattern,
    /// The branch's linear-time matcher, cloned from the compiled form.
    regex: Regex,
    /// Whether pattern matching is decided by the leaf signature alone.
    transparent: bool,
}

/// The compiled difference between an old and a new [`CompiledProgram`]:
/// which branch slots changed, and the machinery to test whether a stored
/// outcome or a cached per-leaf plan can be invalidated by the change.
///
/// Built by [`ProgramDelta::between`]; all queries are read-only and
/// `O(changed branches)` per call.
#[derive(Debug)]
pub struct ProgramDelta {
    /// Instance id of the program the delta diffs *to*.
    new_instance: u64,
    /// `true` when the labelled target pattern itself differs — every
    /// outcome and every leaf is affected.
    target_changed: bool,
    /// `true` when both programs have the same branch count and every
    /// matched (identical) branch keeps its index — the precondition for
    /// retaining dispatch plans, which embed branch indices.
    index_stable: bool,
    /// Branches present in the old program with no identical counterpart
    /// in the new one (removed or modified), minus proven-unreachable ones.
    changed_old: Vec<ChangedBranch>,
    /// Branches present in the new program with no identical counterpart
    /// in the old one (added or modified), minus proven-unreachable ones.
    changed_new: Vec<ChangedBranch>,
    /// `true` when any changed branch (either side) is opaque: opaque
    /// branches are checked per value in every plan, so leaf-level
    /// retention is off the table.
    has_opaque_change: bool,
    /// One automaton over all changed *transparent* patterns (old and new
    /// sides together): classifies a leaf against every changed pattern in
    /// a single pass. `None` when there is nothing transparent to fuse or
    /// construction fell back — queries then answer conservatively.
    leaf_matcher: Option<FusedMatcher>,
    /// Number of changed transparent patterns behind `leaf_matcher`.
    leaf_matcher_width: usize,
}

impl ProgramDelta {
    /// Diff `old` against `new`. Cost is `O(branches²)` worst case on the
    /// greedy matching (linear when branch order is preserved, the repair
    /// case) plus one `clx-analyze` run per program — all program-sized,
    /// never row- or distinct-sized.
    pub fn between(old: &CompiledProgram, new: &CompiledProgram) -> ProgramDelta {
        ProgramDelta::between_observed(old, new, None)
    }

    /// [`ProgramDelta::between`], additionally publishing the
    /// `engine.delta.branches_changed` counter to `sink`.
    pub fn between_observed(
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

        let snapshot = |branches: &[crate::CompiledBranch], idx: &[usize]| {
            idx.iter()
                .map(|&i| ChangedBranch {
                    pattern: branches[i].pattern().clone(),
                    regex: branches[i].regex().clone(),
                    transparent: branches[i].is_transparent(),
                })
                .collect::<Vec<_>>()
        };
        let changed_old = snapshot(old_branches, &changed_old_idx);
        let changed_new = snapshot(new_branches, &changed_new_idx);

        let has_opaque_change = changed_old
            .iter()
            .chain(&changed_new)
            .any(|b| !b.transparent);

        // One automaton over every changed transparent pattern, so
        // `affects_leaf` is a single classification pass regardless of how
        // many branches changed. Opaque changes make leaf-level retention
        // moot, so the matcher is only built in the all-transparent case.
        let transparent: Vec<&Pattern> = changed_old
            .iter()
            .chain(&changed_new)
            .filter(|b| b.transparent)
            .map(|b| &b.pattern)
            .collect();
        let (leaf_matcher, leaf_matcher_width) = if has_opaque_change || transparent.is_empty() {
            (None, 0)
        } else {
            let slots: Vec<Option<&Pattern>> = transparent.iter().copied().map(Some).collect();
            match FusedMatcher::build(None, &slots) {
                Ok(m) => (Some(m), transparent.len()),
                Err(_) => (None, 0),
            }
        };

        let delta = ProgramDelta {
            new_instance: new.instance(),
            target_changed,
            index_stable,
            changed_old,
            changed_new,
            has_opaque_change,
            leaf_matcher,
            leaf_matcher_width,
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
    pub fn branches_changed(&self) -> usize {
        self.changed_old.len() + self.changed_new.len()
    }

    /// `true` when the two programs decide every value identically — same
    /// target, no changed branch slots (identical programs recompiled, or
    /// differing only in proven-unreachable branches).
    pub fn is_identity(&self) -> bool {
        !self.target_changed && self.changed_old.is_empty() && self.changed_new.is_empty()
    }

    /// `true` when the labelled target pattern changed (which affects
    /// every outcome).
    pub fn target_changed(&self) -> bool {
        self.target_changed
    }

    /// `true` when every branch shared by the two programs keeps its
    /// index — the precondition for retaining compiled dispatch plans,
    /// which embed branch indices in their steps.
    pub fn index_stable(&self) -> bool {
        self.index_stable
    }

    /// Instance id of the program the delta diffs *to*.
    pub(crate) fn new_instance(&self) -> u64 {
        self.new_instance
    }

    /// Can the new program decide the row behind `outcome` differently?
    ///
    /// `false` is a proof of stability (the outcome may be kept verbatim);
    /// `true` means "re-decide to find out" — the test is conservative for
    /// opaque changed branches, whose firing needs a per-value evaluation.
    /// Cost: one regex full-match per changed branch, worst case.
    pub fn affects_outcome(&self, outcome: &RowOutcome) -> bool {
        if self.target_changed {
            return true;
        }
        match outcome {
            // Conforming short-circuits before any branch runs: only a
            // target change can disturb it.
            RowOutcome::Conforming { .. } => false,
            // A flagged value matched no old branch; only a branch new to
            // this program can pick it up.
            RowOutcome::Flagged { value } => Self::any_match(&self.changed_new, value),
            // A transformed value re-decides if its (potential) old winner
            // was removed/modified, or a changed new branch could now win.
            RowOutcome::Transformed { from, .. } => {
                Self::any_match(&self.changed_old, from) || Self::any_match(&self.changed_new, from)
            }
        }
    }

    fn any_match(changed: &[ChangedBranch], value: &str) -> bool {
        changed.iter().any(|b| b.regex.is_full_match(value))
    }

    /// [`ProgramDelta::affects_outcome`] for an interned value — one whose
    /// dense `leaf_id` and leaf pattern `leaf` (exactly `tokenize` of the
    /// outcome's input) are already known, as for a [`clx_column::Column`]'s
    /// distinct values or a [`clx_column::ColumnInterner`]'s live ids.
    ///
    /// A transparent pattern matches a value iff it matches the value's
    /// leaf signature, so when every changed branch is transparent the
    /// per-value regex checks collapse to one fused classification per
    /// **distinct leaf**: `memo` carries each leaf-id's
    /// [`ProgramDelta::screen_leaf`] answer across calls (callers keep one
    /// memo per id space). On distincts that share a handful of formats
    /// this turns the screening cost from O(distincts × changed-branch
    /// regex runs) into O(leaves × classify) plus an integer lookup per
    /// distinct, with no tokenization at all.
    ///
    /// Falls back to the exact per-value check when an opaque branch
    /// changed (opaque matching can distinguish values within one leaf) or
    /// the fused matcher declined a pattern. Answers are identical to
    /// [`ProgramDelta::affects_outcome`] either way.
    pub(crate) fn affects_interned(
        &self,
        outcome: &RowOutcome,
        leaf_id: u32,
        leaf: &Pattern,
        memo: &mut HashMap<u32, Option<(bool, bool)>>,
    ) -> bool {
        if self.target_changed || outcome.is_conforming() {
            return self.affects_outcome(outcome);
        }
        match *memo
            .entry(leaf_id)
            .or_insert_with(|| self.screen_leaf(leaf))
        {
            Some(hits) => self.hits_affect(outcome, hits),
            None => self.affects_outcome(outcome),
        }
    }

    /// Classify `leaf` against the changed-pattern matcher: `Some((old
    /// side hit, new side hit))` when every changed branch is transparent
    /// and the matcher accepted the leaf. `None` means the screen cannot
    /// answer (an opaque branch changed, the matcher declined a pattern,
    /// or `leaf` is not a tokenizer-producible signature) — callers fall
    /// back to the exact per-value [`ProgramDelta::affects_outcome`].
    fn screen_leaf(&self, leaf: &Pattern) -> Option<(bool, bool)> {
        let matcher = match (&self.leaf_matcher, self.has_opaque_change) {
            (Some(matcher), false) => matcher,
            _ => return None,
        };
        let run = matcher.classify(leaf)?;
        // All changed patterns are transparent here, so the matcher's
        // slots are `changed_old` followed by `changed_new`.
        let split = self.changed_old.len();
        Some((
            (0..split).any(|i| matcher.branch_matches(&run, i)),
            (split..self.leaf_matcher_width).any(|i| matcher.branch_matches(&run, i)),
        ))
    }

    /// Resolve a [`ProgramDelta::screen_leaf`] answer for `outcome`'s
    /// kind — the transparent-case equivalent of
    /// [`ProgramDelta::affects_outcome`] for an unchanged target.
    fn hits_affect(&self, outcome: &RowOutcome, (old_hit, new_hit): (bool, bool)) -> bool {
        match outcome {
            RowOutcome::Conforming { .. } => false,
            RowOutcome::Flagged { .. } => new_hit,
            RowOutcome::Transformed { .. } => old_hit || new_hit,
        }
    }

    /// Can the new program decide *any* value with leaf signature `leaf`
    /// differently than a plan compiled for the old program would replay
    /// it? `false` additionally guarantees the old plan's steps are valid
    /// under the new program (indices stable, embedded branches
    /// identical), so the plan may be retained as-is.
    pub fn affects_leaf(&self, leaf: &Pattern) -> bool {
        if self.target_changed || !self.index_stable {
            return true;
        }
        if self.changed_old.is_empty() && self.changed_new.is_empty() {
            return false;
        }
        // Opaque branches sit in every plan as per-value checks; their
        // change can flip any leaf's rows.
        if self.has_opaque_change {
            return true;
        }
        match &self.leaf_matcher {
            Some(matcher) => match matcher.classify(leaf) {
                // `branch_matches` slot i is pattern i of the changed set
                // (the matcher was built with no target segment occupying
                // slot 0 — `FusedMatcher` still offsets internally).
                Some(run) => (0..self.leaf_matcher_width).any(|i| matcher.branch_matches(&run, i)),
                // Not a tokenizer-producible leaf signature: answer
                // conservatively rather than guess.
                None => true,
            },
            // Changed transparent patterns but no matcher (construction
            // fell back): conservative.
            None => true,
        }
    }
}

/// Drop the changed-branch indices whose branch the analyzer proves can
/// never fire in `program`.
fn filter_reachable(program: &CompiledProgram, changed: Vec<usize>) -> Vec<usize> {
    if changed.is_empty() {
        return changed;
    }
    let source = Program::new(
        program
            .branches()
            .iter()
            .map(|b| Branch::new(b.pattern().clone(), b.expr().clone()))
            .collect(),
    );
    let diagnostics = clx_analyze::analyze_program(&source, program.target());
    changed
        .into_iter()
        .filter(|&i| diagnostics.branch_facts(i).reachable)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::{parse_pattern, tokenize};
    use clx_unifi::{Expr, StringExpr};

    fn compile(branches: Vec<Branch>, target: &str) -> CompiledProgram {
        CompiledProgram::compile(&Program::new(branches), &parse_pattern(target).unwrap())
            .expect("test programs compile")
    }

    fn extract_all(pattern: &Pattern) -> Expr {
        Expr::concat(vec![StringExpr::extract_range(1, pattern.len())])
    }

    #[test]
    fn identical_programs_are_an_identity_delta() {
        let p = tokenize("12-34");
        let a = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+'-'<D>+");
        let b = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+'-'<D>+");
        let delta = ProgramDelta::between(&a, &b);
        assert!(delta.is_identity());
        assert!(delta.index_stable());
        assert_eq!(delta.branches_changed(), 0);
        assert!(!delta.affects_outcome(&RowOutcome::Flagged { value: "xy".into() }));
        assert!(!delta.affects_leaf(&tokenize("12-34")));
    }

    #[test]
    fn target_change_affects_everything() {
        let p = tokenize("12-34");
        let a = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+'-'<D>+");
        let b = compile(vec![Branch::new(p.clone(), extract_all(&p))], "<D>+");
        let delta = ProgramDelta::between(&a, &b);
        assert!(delta.target_changed());
        assert!(delta.affects_outcome(&RowOutcome::Conforming { value: "1".into() }));
        assert!(delta.affects_leaf(&tokenize("zz")));
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
            "<AN>+",
        );
        let b = compile(
            vec![
                Branch::new(
                    digits.clone(),
                    Expr::concat(vec![StringExpr::extract(1), StringExpr::extract(3)]),
                ),
                Branch::new(letters.clone(), extract_all(&letters)),
            ],
            "<AN>+",
        );
        let delta = ProgramDelta::between(&a, &b);
        assert!(!delta.is_identity());
        assert!(delta.index_stable(), "unchanged branch keeps its index");
        // Modified branch counts on both sides.
        assert_eq!(delta.branches_changed(), 2);
        // A value the repaired branch matches must re-decide...
        assert!(delta.affects_outcome(&RowOutcome::Transformed {
            from: "12-34".into(),
            to: "1234".into(),
        }));
        // ...one decided by the untouched branch must not...
        assert!(!delta.affects_outcome(&RowOutcome::Transformed {
            from: "abc".into(),
            to: "abc".into(),
        }));
        // ...and flagged values stay flagged unless a *new* branch could
        // pick them up (the repaired branch's new form matches "56-78").
        assert!(!delta.affects_outcome(&RowOutcome::Flagged { value: "!!".into() }));
        assert!(delta.affects_outcome(&RowOutcome::Flagged {
            value: "56-78".into()
        }));
        // Leaf-level: the digits leaf is affected, the letters leaf not.
        assert!(delta.affects_leaf(&tokenize("12-34")));
        assert!(!delta.affects_leaf(&tokenize("abc")));
    }

    #[test]
    fn inserted_branch_breaks_index_stability() {
        let digits = parse_pattern("<D>+").unwrap();
        let letters = parse_pattern("<L>+").unwrap();
        let a = compile(
            vec![Branch::new(letters.clone(), extract_all(&letters))],
            "<AN>+",
        );
        let b = compile(
            vec![
                Branch::new(digits.clone(), extract_all(&digits)),
                Branch::new(letters.clone(), extract_all(&letters)),
            ],
            "<AN>+",
        );
        let delta = ProgramDelta::between(&a, &b);
        assert!(!delta.index_stable(), "shared branch shifted from 0 to 1");
        assert_eq!(delta.branches_changed(), 1);
        // Index instability forfeits every leaf's plan...
        assert!(delta.affects_leaf(&tokenize("abc")));
        // ...but outcome-level impact stays sharp: only values the new
        // branch matches re-decide.
        assert!(delta.affects_outcome(&RowOutcome::Flagged { value: "99".into() }));
        assert!(!delta.affects_outcome(&RowOutcome::Transformed {
            from: "abc".into(),
            to: "abc".into(),
        }));
    }

    #[test]
    fn swapped_branch_order_is_conservatively_changed() {
        let d2 = parse_pattern("<D>2").unwrap();
        let dplus = parse_pattern("<D>+").unwrap();
        let a = compile(
            vec![
                Branch::new(d2.clone(), Expr::concat(vec![StringExpr::const_str("two")])),
                Branch::new(
                    dplus.clone(),
                    Expr::concat(vec![StringExpr::const_str("many")]),
                ),
            ],
            "<L>+",
        );
        let b = compile(
            vec![
                Branch::new(
                    dplus.clone(),
                    Expr::concat(vec![StringExpr::const_str("many")]),
                ),
                Branch::new(d2.clone(), Expr::concat(vec![StringExpr::const_str("two")])),
            ],
            "<L>+",
        );
        let delta = ProgramDelta::between(&a, &b);
        // "12" used to hit the <D>2 branch, now hits <D>+ first: the delta
        // must not call it unaffected.
        assert!(delta.affects_outcome(&RowOutcome::Transformed {
            from: "12".into(),
            to: "two".into(),
        }));
    }

    #[test]
    fn unreachable_changed_branches_are_skipped_entirely() {
        let dplus = parse_pattern("<D>+").unwrap();
        let d2 = parse_pattern("<D>2").unwrap();
        // <D>2 is shadowed by <D>+ in both programs: the analyzer proves
        // it unreachable, so editing it changes no outcome and the facts
        // intersection drops it from the changed sets.
        let a = compile(
            vec![
                Branch::new(
                    dplus.clone(),
                    Expr::concat(vec![StringExpr::const_str("n")]),
                ),
                Branch::new(d2.clone(), Expr::concat(vec![StringExpr::const_str("a")])),
            ],
            "<L>+",
        );
        let b = compile(
            vec![
                Branch::new(
                    dplus.clone(),
                    Expr::concat(vec![StringExpr::const_str("n")]),
                ),
                Branch::new(d2.clone(), Expr::concat(vec![StringExpr::const_str("b")])),
            ],
            "<L>+",
        );
        let delta = ProgramDelta::between(&a, &b);
        assert!(delta.is_identity(), "only a dead branch differs");
        assert_eq!(delta.branches_changed(), 0);
        assert!(!delta.affects_outcome(&RowOutcome::Transformed {
            from: "12".into(),
            to: "n".into(),
        }));
    }
}
