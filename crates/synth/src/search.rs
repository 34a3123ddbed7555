//! Best-first search for the simplest atomic transformation plans
//! (Sections 6.3–6.4 of the paper).
//!
//! A plan is a path through the [`AlignmentDag`], and plans rank by
//! ([`source_reuse_penalty`], [`description_length`], plan text). Both
//! numeric parts only grow along a path: appending an operation can only
//! extract more source slots a second time, and every operation adds
//! positive description length (Eq. 3–5). [`PlanSearch`] therefore extends
//! plan prefixes best-first (A*), ordered by their penalty so far and their
//! length so far plus the least length any completion can add (a backward
//! pass over the DAG), and yields complete plans in exact rank order
//! without enumerating the rest of the DAG. A prefix is extended one step
//! at a time, cheapest first, so a node with thousands of operations costs
//! memory only for the extensions the search reaches.
//!
//! Sums of the same costs in a different order can round differently, so
//! the frontier only *bounds* the ranks still to come. A popped complete
//! plan is scored exactly with [`description_length`] and held until the
//! frontier's bound exceeds its key by [`RANK_EPSILON`]; held plans leave
//! in exact (penalty, length, text) order.
//!
//! Each prefix carries the id of its canonical key (Appendix B), interned
//! one unit at a time as `(parent key id, unit) → id`, so equal ids are
//! equal keys. [`PlanSearch::top_classes`] tells classes apart by the id
//! of each complete plan, and while it runs the search also drops a new
//! prefix `C` when an earlier prefix `A` *dominates* it: `A` ends at the
//! same DAG node with the same key id, `A`'s penalty is at most `C`'s,
//! `A`'s extracted slots are a subset of `C`'s, and `A`'s length plus
//! [`RANK_EPSILON`] is below `C`'s. This is exact. The same node gives
//! both the same completions `s`; the same key puts `A + s` and `C + s` in
//! one class; the subset and the penalties give `A + s` a penalty at most
//! that of `C + s`; the strictly smaller length then ranks `A + s` ahead.
//! So `C + s` is never the best member of its class, and no class's
//! representative changes. Prefixes within [`RANK_EPSILON`] of each other
//! are all kept, so the text tie-break still decides between them. The
//! plain [`Iterator`] yields every plan and never prunes.
//!
//! [`source_reuse_penalty`]: crate::source_reuse_penalty

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, HashSet};

use clx_pattern::Pattern;
use clx_unifi::{Expr, StringExpr};

use crate::align::AlignmentDag;
use crate::dedup::{key_units, KeyUnit};
use crate::mdl::{description_length, step_length};

/// A ranked atomic transformation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPlan {
    /// The plan.
    pub expr: Expr,
    /// Its description length (lower = simpler = preferred).
    pub description_length: f64,
}

/// How far the frontier's bound must pass a held plan's description length
/// before the plan is released: well above the rounding error of summing a
/// plan's step lengths in a different order, far below the gap between two
/// different sums of them.
const RANK_EPSILON: f64 = 1e-9;

/// One operation leaving a DAG node.
#[derive(Debug, Clone, Copy)]
struct Step<'a> {
    to: usize,
    op: &'a StringExpr,
    /// What the operation adds to a plan's description length.
    length: f64,
    /// The least description length of any plan suffix starting with it.
    bound: f64,
}

/// A plan prefix: the path from node 0 to `node` ending in `op`.
#[derive(Debug)]
struct Prefix<'a> {
    parent: usize,
    op: Option<&'a StringExpr>,
    node: usize,
    /// The interned id of the path's canonical key.
    key: usize,
    penalty: usize,
    length: f64,
}

/// A description length, ordered by `f64::total_cmp` (lengths are sums of
/// positive costs, never NaN).
#[derive(Debug, Clone, Copy)]
struct Length(f64);

impl Ord for Length {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Length {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Length {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Length {}

/// What a frontier entry stands for.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    /// The complete plan of prefix `.0`, to be scored.
    Plan(usize),
    /// The extensions of prefix `.0` by its node's steps `.1..`.
    Extensions(usize, usize),
}

/// A frontier entry, keyed by the least rank key of any plan it stands
/// for. On equal keys the newest entry pops first, so ties go deep.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Bound {
    penalty: usize,
    length: Length,
    newest: Reverse<usize>,
    entry: Entry,
}

/// A popped complete plan waiting for the frontier to pass it, ordered by
/// its exact rank key (distinct plans have distinct texts).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Held {
    penalty: usize,
    length: Length,
    text: String,
    expr: Expr,
    prefix: usize,
}

/// The plans of an [`AlignmentDag`] in exact rank order, found lazily by a
/// best-first search (see [`AlignmentDag::ranked_plans`]).
///
/// The order is the one a full sort of every path gives: fewest repeated
/// source slots first, then least description length, then plan text. Work
/// is proportional to the plans taken, not to the paths through the DAG.
///
/// [`PlanSearch::top_classes`] keeps only the best member of each class
/// and so skips every prefix a cheaper prefix of the same class dominates
/// (see the module docs); [`PlanSearch::dominated`] counts them. A dropped
/// prefix is never queued, so it costs no pop.
///
/// The search gives up after popping `budget` complete plans, or after
/// `2 × budget × (|T| + 1)` frontier pops in all (the most a DAG with at
/// most `budget` paths needs). It then yields the plans it already holds,
/// in rank order, and [`PlanSearch::exhausted`] turns `true`.
#[derive(Debug)]
pub struct PlanSearch<'a> {
    source: &'a Pattern,
    /// Each node's steps towards the target node, least bound first.
    steps: Vec<Vec<Step<'a>>>,
    prefixes: Vec<Prefix<'a>>,
    /// `covered[p * words..(p + 1) * words]`: the source slots prefix
    /// `p` extracts, one bit per slot.
    covered: Vec<u64>,
    words: usize,
    /// Canonical-key interner: `(parent key id, unit) → key id`; id 0 is
    /// the empty key.
    keys: HashMap<(usize, KeyUnit<'a>), usize>,
    /// While pruning: the prefixes kept at each (node, key id).
    reached: HashMap<(usize, usize), Vec<usize>>,
    prune: bool,
    dominated: usize,
    frontier: BinaryHeap<Reverse<Bound>>,
    held: BinaryHeap<Reverse<Held>>,
    pushed: usize,
    budget: usize,
    pop_budget: usize,
    pops: usize,
    popped_plans: usize,
    exhausted: bool,
}

impl<'a> PlanSearch<'a> {
    pub(crate) fn new(dag: &'a AlignmentDag, source: &'a Pattern, budget: usize) -> Self {
        let target_len = dag.target_len();
        let mut steps: Vec<Vec<Step<'a>>> = (0..target_len).map(|_| Vec::new()).collect();
        for ((from, to), ops) in dag.edges() {
            steps[from].extend(ops.iter().map(|op| Step {
                to,
                op,
                length: step_length(op, source),
                bound: f64::INFINITY,
            }));
        }
        // Backward pass: the least length from each node to the target.
        let mut rest = vec![f64::INFINITY; target_len + 1];
        rest[target_len] = 0.0;
        for node in (0..target_len).rev() {
            for step in &mut steps[node] {
                step.bound = step.length + rest[step.to];
            }
            steps[node].retain(|step| step.bound.is_finite());
            steps[node].sort_by(|a, b| a.bound.total_cmp(&b.bound));
            rest[node] = steps[node].first().map_or(f64::INFINITY, |step| step.bound);
        }
        let words = source.len().div_ceil(64);
        let mut search = PlanSearch {
            source,
            steps,
            prefixes: Vec::new(),
            covered: Vec::new(),
            words,
            keys: HashMap::new(),
            reached: HashMap::new(),
            prune: false,
            dominated: 0,
            frontier: BinaryHeap::new(),
            held: BinaryHeap::new(),
            pushed: 0,
            budget,
            pop_budget: budget.saturating_mul(2).saturating_mul(target_len + 1),
            pops: 0,
            popped_plans: 0,
            exhausted: false,
        };
        if rest[0].is_finite() {
            search.prefixes.push(Prefix {
                parent: usize::MAX,
                op: None,
                node: 0,
                key: 0,
                penalty: 0,
                length: 0.0,
            });
            search.covered.resize(words, 0);
            search.push_prefix(0);
        }
        search
    }

    /// Complete plans popped from the frontier so far (each is scored
    /// exactly; not all of them have been yielded yet).
    pub fn explored(&self) -> usize {
        self.popped_plans
    }

    /// Prefixes dropped because an earlier prefix dominates them (only
    /// [`PlanSearch::top_classes`] drops any).
    pub fn dominated(&self) -> usize {
        self.dominated
    }

    /// Did the search give up on its budget with plans left unexplored?
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The best-ranked member of each of the first `k` equivalence classes
    /// (Definition 6.2, Appendix B), in rank order. Classes are told apart
    /// by the interned canonical key id of each yielded plan, prefixes an
    /// earlier prefix dominates are dropped, and the search stops as soon
    /// as the `k`-th class appears.
    pub fn top_classes(&mut self, k: usize) -> Vec<RankedPlan> {
        self.prune = true;
        let mut seen = HashSet::new();
        let mut kept = Vec::new();
        while kept.len() < k {
            let Some(held) = self.next_held() else { break };
            if seen.insert(self.prefixes[held.prefix].key) {
                kept.push(RankedPlan {
                    expr: held.expr,
                    description_length: held.length.0,
                });
            }
        }
        kept
    }

    /// The operations of prefix `prefix`, first to last.
    fn ops(&self, mut prefix: usize) -> Vec<&'a StringExpr> {
        let mut ops = Vec::new();
        while let Some(op) = self.prefixes[prefix].op {
            ops.push(op);
            prefix = self.prefixes[prefix].parent;
        }
        ops.reverse();
        ops
    }

    /// The next plan in rank order.
    fn next_held(&mut self) -> Option<Held> {
        loop {
            if let Some(Reverse(held)) = self.held.peek() {
                let settled = self.exhausted
                    || self.frontier.peek().is_none_or(|Reverse(bound)| {
                        bound.penalty > held.penalty
                            || (bound.penalty == held.penalty
                                && bound.length.0 > held.length.0 + RANK_EPSILON)
                    });
                if settled {
                    return self.held.pop().map(|Reverse(held)| held);
                }
            }
            if self.exhausted {
                return None;
            }
            let Reverse(bound) = self.frontier.pop()?;
            if self.popped_plans >= self.budget || self.pops >= self.pop_budget {
                self.exhausted = true;
                continue;
            }
            self.pops += 1;
            match bound.entry {
                Entry::Plan(prefix) => self.hold(prefix),
                Entry::Extensions(prefix, step) => self.extend(prefix, step),
            }
        }
    }

    fn push(&mut self, penalty: usize, length: f64, entry: Entry) {
        self.pushed += 1;
        self.frontier.push(Reverse(Bound {
            penalty,
            length: Length(length),
            newest: Reverse(self.pushed),
            entry,
        }));
    }

    /// Queue a new prefix: its plan if it is complete, else its extensions.
    fn push_prefix(&mut self, id: usize) {
        let Prefix {
            node,
            penalty,
            length,
            ..
        } = self.prefixes[id];
        match self.steps.get(node).and_then(|steps| steps.first()) {
            Some(first) => self.push(penalty, length + first.bound, Entry::Extensions(id, 0)),
            None => self.push(penalty, length, Entry::Plan(id)),
        }
    }

    /// Score a complete prefix exactly and hold it.
    fn hold(&mut self, id: usize) {
        self.popped_plans += 1;
        let expr = Expr::concat(self.ops(id).into_iter().cloned().collect());
        self.held.push(Reverse(Held {
            penalty: self.prefixes[id].penalty,
            length: Length(description_length(&expr, self.source)),
            text: expr.to_string(),
            expr,
            prefix: id,
        }));
    }

    /// Build the extension of prefix `id` by its node's step `step`, and
    /// queue the steps after it. While pruning, an extension an earlier
    /// prefix dominates is dropped instead.
    fn extend(&mut self, id: usize, step: usize) {
        let Prefix {
            node,
            key,
            penalty,
            length,
            ..
        } = self.prefixes[id];
        let steps = &self.steps[node];
        let Step {
            to: next_node,
            op,
            length: step_len,
            ..
        } = steps[step];
        if let Some(next) = steps.get(step + 1) {
            let bound = length + next.bound;
            self.push(penalty, bound, Entry::Extensions(id, step + 1));
        }
        let child = self.prefixes.len();
        let words = self.words;
        self.covered
            .extend_from_within(id * words..(id + 1) * words);
        let mut child_penalty = penalty;
        if let StringExpr::Extract { from, to } = op {
            let bits = &mut self.covered[child * words..];
            for slot in *from - 1..*to {
                let (word, bit) = (slot / 64, 1u64 << (slot % 64));
                if bits[word] & bit != 0 {
                    child_penalty += 1;
                } else {
                    bits[word] |= bit;
                }
            }
        }
        let child_key = self.key_of(key, op);
        self.prefixes.push(Prefix {
            parent: id,
            op: Some(op),
            node: next_node,
            key: child_key,
            penalty: child_penalty,
            length: length + step_len,
        });
        if self.prune && self.is_dominated(child) {
            self.prefixes.pop();
            self.covered.truncate(child * words);
            self.dominated += 1;
            return;
        }
        self.push_prefix(child);
    }

    /// The key id of a prefix with key id `key` extended by `op`.
    fn key_of(&mut self, mut key: usize, op: &'a StringExpr) -> usize {
        for unit in key_units(op, self.source) {
            let next = self.keys.len() + 1;
            key = *self.keys.entry((key, unit)).or_insert(next);
        }
        key
    }

    /// Does an earlier prefix dominate the newest prefix `child`? If none
    /// does, `child` is recorded for the prefixes after it.
    fn is_dominated(&mut self, child: usize) -> bool {
        let Prefix { node, key, .. } = self.prefixes[child];
        let reached = self.reached.entry((node, key)).or_default();
        if reached
            .iter()
            .any(|&a| dominates(&self.prefixes, &self.covered, self.words, a, child))
        {
            return true;
        }
        reached.push(child);
        false
    }
}

/// Does prefix `a` dominate prefix `c`? It does when both end at the same
/// node with the same key id, `a`'s penalty is at most `c`'s, the slots
/// `a` extracts are a subset of `c`'s, and `a` is shorter by more than
/// [`RANK_EPSILON`]. Then no completion of `c` ranks ahead of the same
/// completion of `a`, which is in the same class.
fn dominates(prefixes: &[Prefix], covered: &[u64], words: usize, a: usize, c: usize) -> bool {
    let (pa, pc) = (&prefixes[a], &prefixes[c]);
    pa.node == pc.node
        && pa.key == pc.key
        && pa.penalty <= pc.penalty
        && pa.length + RANK_EPSILON < pc.length
        && covered[a * words..(a + 1) * words]
            .iter()
            .zip(&covered[c * words..(c + 1) * words])
            .all(|(x, y)| x & !y == 0)
}

impl Iterator for PlanSearch<'_> {
    type Item = RankedPlan;

    fn next(&mut self) -> Option<RankedPlan> {
        self.next_held().map(|held| RankedPlan {
            expr: held.expr,
            description_length: held.length.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::align;
    use crate::dedup::dedup_plans;
    use crate::mdl::rank_plans;
    use clx_pattern::{parse_pattern, tokenize};

    /// The chain the search replaced: enumerate up to `limit` paths, rank,
    /// deduplicate pairwise, rank again, take the first `k`.
    fn oracle(source: &Pattern, target: &Pattern, limit: usize, k: usize) -> Vec<RankedPlan> {
        let dag = align(source, target);
        let ranked = rank_plans(dag.enumerate_plans(limit), source);
        let deduped = dedup_plans(ranked.into_iter().map(|(e, _)| e).collect(), source);
        rank_plans(deduped, source)
            .into_iter()
            .take(k)
            .map(|(expr, description_length)| RankedPlan {
                expr,
                description_length,
            })
            .collect()
    }

    fn top(source: &Pattern, target: &Pattern, budget: usize, k: usize) -> Vec<RankedPlan> {
        align(source, target)
            .ranked_plans(source, budget)
            .top_classes(k)
    }

    const PAIRS: [(&str, &str); 6] = [
        ("(734) 645-8397", "734-422-8073"),
        ("734.236.3466", "(734) 645-8397"),
        ("12/11/2017", "11-12-2017"),
        ("CPT-00350", "[CPT-00350]"),
        ("Dr. Eran Yahav", "Eran Yahav"),
        ("1.2.3.4.5.6.7.8", "9-9"),
    ];

    #[test]
    fn top_classes_match_the_sort_everything_chain() {
        for (src, tgt) in PAIRS {
            let (source, target) = (tokenize(src), tokenize(tgt));
            for k in [1, 5, 40] {
                assert_eq!(
                    top(&source, &target, 2_000, k),
                    oracle(&source, &target, 2_000, k),
                    "{src:?} -> {tgt:?}, k = {k}"
                );
            }
        }
    }

    /// The first `k` class representatives of the full rank order, which
    /// the iterator yields without pruning.
    fn first_classes(source: &Pattern, target: &Pattern, k: usize) -> Vec<RankedPlan> {
        let mut kept: Vec<RankedPlan> = Vec::new();
        for plan in align(source, target).ranked_plans(source, usize::MAX) {
            if kept.len() == k {
                break;
            }
            if !kept
                .iter()
                .any(|p| crate::plans_equivalent(&p.expr, &plan.expr, source))
            {
                kept.push(plan);
            }
        }
        kept
    }

    /// The `prose-country-number` suite task: a country code to strip.
    const COUNTRY: (&str, &str) = ("+1 734-422-8073", "734-422-8073");

    #[test]
    fn pruned_top_classes_match_the_unpruned_order() {
        for (src, tgt) in PAIRS.into_iter().chain([COUNTRY]) {
            let (source, target) = (tokenize(src), tokenize(tgt));
            for k in [1, 5, 40] {
                assert_eq!(
                    top(&source, &target, 2_000, k),
                    first_classes(&source, &target, k),
                    "{src:?} -> {tgt:?}, k = {k}"
                );
            }
        }
    }

    /// The id of the prefix of `search` whose operations are `ops`.
    fn prefix_of(search: &PlanSearch, ops: &[StringExpr]) -> usize {
        (0..search.prefixes.len())
            .find(|&p| search.ops(p).into_iter().eq(ops))
            .unwrap_or_else(|| panic!("no prefix {ops:?}"))
    }

    fn dominated_by(search: &PlanSearch, a: usize, c: usize) -> bool {
        dominates(&search.prefixes, &search.covered, search.words, a, c)
    }

    #[test]
    fn equal_length_re_splits_both_survive() {
        // '+'<D>' '<D>3'-'<D>3'-'<D>4: slots 4..=8 are the phone number.
        let (source, target) = (tokenize(COUNTRY.0), tokenize(COUNTRY.1));
        let dag = align(&source, &target);
        let mut search = dag.ranked_plans(&source, usize::MAX);
        search.by_ref().count();
        let whole = prefix_of(&search, &[StringExpr::extract_range(4, 8)]);
        let a = prefix_of(
            &search,
            &[StringExpr::extract(4), StringExpr::extract_range(5, 8)],
        );
        let b = prefix_of(
            &search,
            &[
                StringExpr::extract_range(4, 5),
                StringExpr::extract_range(6, 8),
            ],
        );
        assert_eq!(search.prefixes[a].key, search.prefixes[b].key);
        // Neither re-split is shorter than the other by more than the
        // epsilon, so the text tie-break decides between them.
        assert!(!dominated_by(&search, a, b));
        assert!(!dominated_by(&search, b, a));
        // The single extract is shorter than both, and in the same class.
        assert!(dominated_by(&search, whole, a));
        assert!(dominated_by(&search, whole, b));
    }

    #[test]
    fn a_costlier_route_that_extracts_fewer_slots_is_kept() {
        // Re-creating the '-' (slot 5) costs more than extracting it, but
        // leaves slot 5 free for a later extract without a reuse penalty.
        let (source, target) = (tokenize(COUNTRY.0), tokenize(COUNTRY.1));
        let dag = align(&source, &target);
        let mut search = dag.ranked_plans(&source, 2_000);
        assert!(search.top_classes(40).len() < 40, "the search ran out");
        assert!(search.dominated() > 0);
        let extracted = prefix_of(&search, &[StringExpr::extract_range(4, 5)]);
        let recreated = prefix_of(
            &search,
            &[StringExpr::extract(4), StringExpr::const_str("-")],
        );
        let (e, r) = (&search.prefixes[extracted], &search.prefixes[recreated]);
        assert_eq!((e.node, e.key), (r.node, r.key));
        assert!(e.length + RANK_EPSILON < r.length);
        assert!(!dominated_by(&search, extracted, recreated));
        // Its completion through slot 5 keeps a penalty of 0.
        let plan = |ops: Vec<StringExpr>| crate::source_reuse_penalty(&Expr::concat(ops));
        let tail = || {
            [
                StringExpr::extract(6),
                StringExpr::extract(5),
                StringExpr::extract(8),
            ]
        };
        let via_const = [StringExpr::extract(4), StringExpr::const_str("-")];
        let via_extract = [StringExpr::extract_range(4, 5)];
        assert_eq!(plan(via_const.into_iter().chain(tail()).collect()), 0);
        assert_eq!(plan(via_extract.into_iter().chain(tail()).collect()), 1);
    }

    #[test]
    fn dominance_cuts_the_plans_explored() {
        let (source, target) = (tokenize(COUNTRY.0), tokenize(COUNTRY.1));
        let dag = align(&source, &target);
        // The same top 5 classes drawn from the unpruned iterator (the
        // pair has only 4, so both searches reach the end of the order).
        let mut unpruned = dag.ranked_plans(&source, 2_000);
        let mut classes: Vec<Expr> = Vec::new();
        while classes.len() < 5 {
            let Some(RankedPlan { expr: plan, .. }) = unpruned.next() else {
                break;
            };
            if !classes
                .iter()
                .any(|c| crate::plans_equivalent(c, &plan, &source))
            {
                classes.push(plan);
            }
        }
        let mut pruned = dag.ranked_plans(&source, 2_000);
        assert_eq!(pruned.top_classes(5).len(), classes.len());
        assert!(
            pruned.explored() * 2 < unpruned.explored(),
            "{} explored with pruning, {} without, {} classes",
            pruned.explored(),
            unpruned.explored(),
            classes.len()
        );
        assert_eq!(unpruned.dominated(), 0);
    }

    #[test]
    fn every_plan_comes_out_in_rank_order() {
        for (src, tgt) in PAIRS {
            let (source, target) = (tokenize(src), tokenize(tgt));
            let dag = align(&source, &target);
            let searched: Vec<(Expr, f64)> = dag
                .ranked_plans(&source, usize::MAX)
                .map(|p| (p.expr, p.description_length))
                .collect();
            let ranked = rank_plans(dag.enumerate_plans(usize::MAX), &source);
            assert_eq!(searched, ranked, "{src:?} -> {tgt:?}");
        }
    }

    #[test]
    fn top_classes_stop_early() {
        let (source, target) = (tokenize("1.2.3.4.5.6.7.8"), tokenize("9-9"));
        let dag = align(&source, &target);
        let total = dag.enumerate_plans(usize::MAX).len();
        let mut search = dag.ranked_plans(&source, 2_000);
        assert_eq!(search.top_classes(2).len(), 2);
        assert!(
            search.explored() < total,
            "{} of {total}",
            search.explored()
        );
        assert!(!search.exhausted());
    }

    #[test]
    fn more_paths_than_the_budget_still_yield_the_true_best() {
        // 7,776 paths through unit extracts alone: the old 2,000-plan
        // enumeration cut this DAG off in depth-first order.
        let (source, target) = (tokenize("1.2.3.4.5.6"), tokenize("9.9.9"));
        let dag = align(&source, &target);
        let all = dag.enumerate_plans(usize::MAX);
        assert!(all.len() > 2_000, "{} paths", all.len());
        let mut search = dag.ranked_plans(&source, 2_000);
        let got = search.top_classes(5);
        assert!(!search.exhausted());
        // The uncapped oracle, deduplicated against its first classes only.
        let mut want: Vec<RankedPlan> = Vec::new();
        for (expr, description_length) in rank_plans(all, &source) {
            if want.len() == 5 {
                break;
            }
            if !want
                .iter()
                .any(|kept| crate::plans_equivalent(&kept.expr, &expr, &source))
            {
                want.push(RankedPlan {
                    expr,
                    description_length,
                });
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn a_spent_budget_yields_what_was_ranked_and_says_so() {
        let (source, target) = (tokenize("1.2.3.4.5.6"), tokenize("9.9.9"));
        let dag = align(&source, &target);
        let mut search = dag.ranked_plans(&source, 3);
        let plans: Vec<RankedPlan> = search.by_ref().collect();
        assert!(search.exhausted());
        assert_eq!(search.explored(), 3);
        assert_eq!(plans.len(), 3);
        let keys: Vec<(usize, f64)> = plans
            .iter()
            .map(|p| (crate::source_reuse_penalty(&p.expr), p.description_length))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
    }

    #[test]
    fn a_wide_dag_builds_only_the_prefixes_it_reaches() {
        // Each DAG node has hundreds of operations, one per similar
        // source token; pushing every extension of every popped prefix
        // would build millions of prefixes.
        let source = tokenize(&"ab1-".repeat(600));
        let target = tokenize("ab1-ab1-");
        let dag = align(&source, &target);
        let mut search = dag.ranked_plans(&source, 2_000);
        assert_eq!(search.top_classes(5).len(), 5);
        // One prefix per pop at most, plus the root.
        assert!(search.prefixes.len() <= search.pops + 1);
        assert!(
            search.prefixes.len() < dag.operation_count(),
            "{} prefixes for {} operations",
            search.prefixes.len(),
            dag.operation_count()
        );
    }

    #[test]
    fn a_dag_without_a_path_yields_nothing() {
        let (source, target) = (tokenize("1234"), tokenize("AB12"));
        let dag = align(&source, &target);
        let mut search = dag.ranked_plans(&source, 2_000);
        assert!(search.next().is_none());
        assert_eq!(search.explored(), 0);
        assert!(!search.exhausted());
    }

    #[test]
    fn an_empty_target_has_one_empty_plan() {
        let source = parse_pattern("<L>3").unwrap();
        let plans: Vec<RankedPlan> = align(&source, &Pattern::empty())
            .ranked_plans(&source, 2_000)
            .collect();
        assert_eq!(plans.len(), 1);
        assert!(plans[0].expr.is_empty());
    }
}
