//! Leaf-signature dispatch: the per-worker cache that lets most rows skip
//! full pattern matching.
//!
//! # Why this is sound
//!
//! [`clx_pattern::tokenize`] maps every value to its *leaf pattern*: maximal
//! runs of digit/lower/upper characters become class tokens recording the
//! run length, and every other character is kept verbatim in a literal
//! token. Matching a value against a *transparent* pattern — one whose
//! literal tokens contain no ASCII-alphanumeric characters — only ever asks
//! two kinds of questions about the value:
//!
//! 1. *is the character at position `i` in base class `C`?* — determined by
//!    the leaf: class-run characters carry their most-specific class (`<D>`,
//!    `<L>`, `<U>`), which decides membership in every base class of the
//!    lattice, and literal-run characters are stored verbatim, which decides
//!    their (only) possible base membership, `<AN>` ∋ `-`/`_`;
//! 2. *is the character at position `i` exactly `c`?* (literal tokens) —
//!    `c` is non-alphanumeric, so position `i` can only hold a literal-run
//!    character, which the leaf stores verbatim.
//!
//! Two values with the same leaf therefore give the same answer to every
//! question, so they match the same transparent patterns *and* split at the
//! same character boundaries. The executor exploits this by deciding each
//! distinct leaf once — which branch fires (or that the row conforms or is
//! flagged), and where the winning branch's tokens begin and end — and
//! replaying that decision on every further row with the same leaf as a few
//! slice copies.
//!
//! Patterns that are *not* transparent (a literal such as `'CPT'` or `'N/A'`
//! can distinguish values with identical leaves) are never decided from the
//! leaf; the plan records a per-row check for them instead.
//!
//! ## Integer leaf-ids
//!
//! The argument above is a statement about leaves, not about *when* or
//! *where* the leaf was computed. A `clx-column` interner
//! ([`ColumnInterner`](clx_column::ColumnInterner), and the
//! [`Column`](clx_column::Column)s built on the same rules) tokenizes with
//! the very same [`clx_pattern::tokenize`] rules and assigns one dense
//! integer per distinct leaf pattern, so "two values share a leaf" becomes
//! "two values carry the same leaf-id" — an integer comparison.
//! [`DispatchCache`] is therefore a plain array indexed by leaf-id; every
//! executor looks plans up by array index and never hashes a `Pattern`.
//! The id is only meaningful within the interner that assigned it, so the
//! cache is bound to the interner's process-unique instance id and to its
//! [`leaf_generation`](clx_column::ColumnInterner::leaf_generation), and
//! resets when ids from a different id space appear or a freed leaf-id may
//! have been recycled. Value evictions that free no leaf-id keep every
//! plan.
//!
//! ## The full cascade
//!
//! Altogether a row's decision falls through three tiers, most-specific
//! first: the dense leaf-id array, then — on a genuine first sight of a
//! leaf — the fused decision automaton (see the `fused` module), which
//! classifies the new leaf against the target and every transparent branch
//! in one pass *and* derives the winning branch's split boundaries from
//! that pass's accepting path — single-pass first sight, no second
//! `Pattern::split` run over the tokens — and finally the per-branch
//! `Pattern::split` loop, the recorded per-program fallback, plus the
//! per-value check for opaque patterns. Tier 1 replays what tiers 2 and 3
//! decided.
//!
//! ## Plan serials
//!
//! Every plan the cache builds gets a fresh *serial*, never repeated within
//! the cache. A stream's per-value decision cache records the serial of the
//! plan that decided each value and replays the decision only while that
//! plan is still the leaf's current one: the plan decides the value, so the
//! decision is exactly as valid as the plan. Invalidating plans therefore
//! invalidates every decision they made, lazily, without visiting a value.
//! Should the serial counter run out, the cache drops every plan and moves
//! to a new serial epoch, and decision caches following it reset.
//!
//! ## Rebinding without a reset
//!
//! Handing the cache to a *different* program normally clears every plan
//! ([`DispatchCache::bind`]): plans embed branch indices and
//! split boundaries of the program that built them. But a program *swap*
//! mid-stream ([`crate::ColumnStream::swap_program`]) usually changes only
//! a few branches, and a diff of the two programs (the `delta` module's
//! `ProgramDelta`) can prove, per cached plan, that the plan is exactly the
//! one the new program would build for its leaf. For those leaves
//! [`DispatchCache::rebind_retaining`] re-binds the cache to the new
//! program instance while keeping the proven plans, and their serials, in
//! place: only the other leaf-ids lose their slot and rebuild (through the
//! new program's fused automaton, built once at compile time) on next
//! sight, and only the values those plans decided re-decide. The interner
//! binding (`source`) is untouched — the id space did not move, only the
//! program did.

use std::sync::Arc;

/// One decision step of a [`LeafPlan`], replayed per row in program order.
///
/// A plan is the prefix of the sequential decision sequence (target first,
/// then each branch) that could not be resolved from the leaf alone,
/// terminated by the first leaf-resolved outcome. Falling off the end of
/// the plan means no pattern matched: the row is flagged.
#[derive(Debug)]
pub(crate) enum Step {
    /// The target pattern matches every row with this leaf: conforming.
    Conforming,
    /// Branch `branch` matches every row with this leaf; rewrite the row
    /// using the precomputed token boundaries.
    Apply {
        /// Index of the winning branch.
        branch: usize,
        /// Token boundaries shared by every row with this leaf.
        split: Arc<SplitPlan>,
    },
    /// The target pattern is opaque; test it against the concrete row.
    CheckTarget,
    /// Branch `branch` is opaque; test it against the concrete row.
    CheckBranch {
        /// Index of the branch to test.
        branch: usize,
    },
}

/// The decision sequence for one leaf pattern.
#[derive(Debug)]
pub(crate) struct LeafPlan {
    pub(crate) steps: Vec<Step>,
}

/// Precomputed per-token character boundaries for a (leaf, branch) pair:
/// `ranges[i]` is the half-open character span of source token `i + 1`.
#[derive(Debug)]
pub(crate) struct SplitPlan {
    pub(crate) ranges: Vec<(usize, usize)>,
}

/// The per-worker dispatch cache mapping dense leaf-ids to their plans.
///
/// Each executor thread owns one cache; real columns have a handful of
/// distinct leaves, so the state stays tiny and never needs synchronization.
/// The cache is a plain `Vec` indexed by the integer *leaf-id* a
/// [`clx_column::ColumnInterner`] hands out per distinct leaf pattern, so a
/// plan lookup is an array index: no `Pattern` is ever hashed or compared.
///
/// Plans are only meaningful for the program that built them, so the cache
/// remembers that program's process-unique instance id and transparently
/// resets itself when it is handed to a different compiled program — a
/// stale plan can never be replayed against the wrong branch list. The
/// cache is additionally bound to the id space that handed out its
/// leaf-ids: the interner **instance**
/// ([`clx_column::Column::interner_id`]) *and* that interner's
/// [`leaf_generation`](clx_column::ColumnInterner::leaf_generation). A
/// bounded interner ([`clx_column::StreamBudget`]) recycles a leaf-id once
/// eviction frees it, bumping its leaf generation; the generation binding
/// guarantees a recycled leaf-id is never served the freed leaf's plan —
/// the cache resets instead of aliasing. Ids from a different interner
/// instance likewise clear the slots.
#[derive(Debug, Default)]
pub struct DispatchCache {
    program: Option<u64>,
    /// The id space binding: the interner instance whose leaf-ids index
    /// `dense`, plus that interner's leaf generation.
    source: Option<(u64, u64)>,
    /// Leaf-id -> plan.
    dense: Vec<Option<DensePlan>>,
    /// Number of `Some` slots in `dense`.
    dense_decided: usize,
    /// The serial the next built plan gets.
    next_serial: u32,
    /// Bumped each time the serial counter runs out and restarts.
    serial_epoch: u64,
    /// Lifetime hit/miss tallies; survives rebinds and resets.
    stats: DispatchStats,
    /// Reusable buffer a rewrite is assembled in before it is copied into
    /// its outcome, so a decision does not grow a fresh `String`.
    pub(crate) rewrite: String,
}

/// One dense slot: a plan and its serial (see "Plan serials" in the module
/// docs).
#[derive(Debug)]
struct DensePlan {
    serial: u32,
    plan: LeafPlan,
}

/// Lifetime hit/miss counters of a [`DispatchCache`].
///
/// Plain `u64` fields bumped inline (never atomics — each cache is
/// thread-owned), cumulative across program rebinds and id-space resets,
/// so stream-long ratios survive eviction generations. A *hit* replayed an
/// existing plan; a *miss* ran the plan builder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Leaf-id lookups served from the cache.
    pub dense_hits: u64,
    /// Leaf-id lookups that had to build a plan.
    pub dense_misses: u64,
}

impl DispatchCache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        DispatchCache::default()
    }

    /// Number of distinct leaf-ids with a decided plan.
    pub fn dense_len(&self) -> usize {
        self.dense_decided
    }

    /// `true` if no leaf has been decided yet.
    pub fn is_empty(&self) -> bool {
        self.dense_decided == 0
    }

    /// Lifetime hit/miss counters. Cumulative over the cache's whole life
    /// — rebinding to another program or resetting the id space clears
    /// the *plans*, never the tallies.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }

    /// Drop every plan.
    fn clear(&mut self) {
        self.dense.clear();
        self.dense_decided = 0;
    }

    /// Bind the cache to program `instance` and to the leaf-ids handed out
    /// by interner `source` at leaf generation `leaf_generation`, dropping
    /// every plan when either binding moved. Idempotent; callers that read
    /// [`DispatchCache::serial`] bind first.
    pub(crate) fn bind(&mut self, instance: u64, source: u64, leaf_generation: u64) {
        let binding = (Some(instance), Some((source, leaf_generation)));
        if (self.program, self.source) != binding {
            self.clear();
            (self.program, self.source) = binding;
        }
    }

    /// The serial of leaf-id `leaf_id`'s current plan, if it has one.
    pub(crate) fn serial(&self, leaf_id: u32) -> Option<u32> {
        self.dense.get(leaf_id as usize)?.as_ref().map(|d| d.serial)
    }

    /// The serial epoch: moves only when the serial counter restarts, so a
    /// serial recorded in one epoch must never be compared in another.
    pub(crate) fn serial_epoch(&self) -> u64 {
        self.serial_epoch
    }

    /// Re-bind the cache to program `new_instance` keeping every plan the
    /// caller can prove still valid — the mid-stream program-swap path
    /// (see "Rebinding without a reset" in the module docs).
    ///
    /// `retain` is asked once per decided slot, with its leaf-id and plan;
    /// answering `true` keeps the plan and its serial for the new program,
    /// `false` drops it so the next sight rebuilds it. The interner binding
    /// and the lifetime hit/miss tallies are preserved either way. Returns
    /// `(retained, dropped)`. Cost: O(cached plans).
    ///
    /// Soundness is the caller's obligation: retain a plan only when the
    /// new program would build exactly that plan for the leaf —
    /// `ProgramDelta::keeps_plan` answering `true` is that proof.
    pub(crate) fn rebind_retaining(
        &mut self,
        new_instance: u64,
        retain: impl Fn(u32, &LeafPlan) -> bool,
    ) -> (usize, usize) {
        if self.program == Some(new_instance) {
            return (self.dense_decided, 0);
        }
        self.program = Some(new_instance);
        let mut retained = 0;
        let mut dropped = 0;
        for (leaf_id, slot) in self.dense.iter_mut().enumerate() {
            let Some(dense) = slot else {
                continue;
            };
            if retain(leaf_id as u32, &dense.plan) {
                retained += 1;
            } else {
                *slot = None;
                self.dense_decided -= 1;
                dropped += 1;
            }
        }
        (retained, dropped)
    }

    /// A serial never handed out before in the current epoch. When the
    /// counter runs out, every plan goes and a new epoch starts.
    fn fresh_serial(&mut self) -> u32 {
        if self.next_serial == u32::MAX {
            self.clear();
            self.next_serial = 0;
            self.serial_epoch += 1;
        }
        self.next_serial += 1;
        self.next_serial - 1
    }

    /// Make the next plan built exhaust the serial counter.
    #[cfg(test)]
    pub(crate) fn exhaust_serials(&mut self) {
        self.next_serial = u32::MAX;
    }

    /// The plan for the leaf with dense id `leaf_id` (handed out by the
    /// interner instance `source` at leaf generation `leaf_generation`)
    /// under program `instance`, building it on first sight. Pure array
    /// indexing on the hit path — the leaf pattern itself is never hashed
    /// or compared, and the plan is lent, not reference-counted.
    ///
    /// A leaf generation change (the interner freed a leaf-id, which it may
    /// recycle) resets the cache, so a stale plan is never served under a
    /// reused id.
    pub(crate) fn plan_for_leaf_id(
        &mut self,
        instance: u64,
        source: u64,
        leaf_generation: u64,
        leaf_id: u32,
        build: impl FnOnce() -> LeafPlan,
    ) -> &LeafPlan {
        self.bind(instance, source, leaf_generation);
        let slot = leaf_id as usize;
        if self.dense.get(slot).is_some_and(Option::is_some) {
            self.stats.dense_hits += 1;
        } else {
            self.stats.dense_misses += 1;
            let plan = build();
            let serial = self.fresh_serial();
            if slot >= self.dense.len() {
                self.dense.resize_with(slot + 1, || None);
            }
            self.dense[slot] = Some(DensePlan { serial, plan });
            self.dense_decided += 1;
        }
        &self.dense[slot]
            .as_ref()
            .expect("the slot was decided above")
            .plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_column::{ColumnInterner, StreamBudget};

    /// A sentinel plan recognizable by its step shape: serving it after its
    /// id space moved would be the eviction-aliasing bug this module's
    /// generation binding exists to prevent.
    fn poisoned() -> LeafPlan {
        LeafPlan {
            steps: vec![Step::CheckTarget, Step::CheckTarget, Step::CheckTarget],
        }
    }

    fn benign() -> LeafPlan {
        LeafPlan {
            steps: vec![Step::Conforming],
        }
    }

    fn is_poisoned(plan: &LeafPlan) -> bool {
        plan.steps.len() == 3
    }

    #[test]
    fn generation_bump_invalidates_dense_entries() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
        let mut cache = DispatchCache::new();
        drop(interner.chunk(&["a-1", "b-2", "cc"]));
        let leaf = interner.leaf_id(0);
        let src = interner.instance();
        // Decide a-1's leaf with the sentinel.
        let plan = cache.plan_for_leaf_id(1, src, interner.leaf_generation(), leaf, poisoned);
        assert!(is_poisoned(plan));

        // A value-eviction batch that frees no leaf-id (b-2 keeps a-1's
        // leaf live) keeps every plan: served from the dense tier.
        drop(interner.chunk(&["cc"]));
        assert!(interner.stats().eviction_batches > 0 && !interner.is_live(0));
        let plan = cache.plan_for_leaf_id(1, src, interner.leaf_generation(), leaf, || {
            panic!("a value eviction that frees no leaf-id must keep the plan")
        });
        assert!(is_poisoned(plan));
        assert_eq!(cache.dense_len(), 1);

        // Evicting b-2 frees the leaf-id, and "1.2" recycles it for a
        // different leaf: the stale sentinel must never be served — the
        // tier resets and the builder runs again.
        drop(interner.chunk(&["dd", "ee"]));
        let chunk = interner.chunk(&["1.2"]);
        let id = chunk.distinct_ids()[0];
        drop(chunk);
        assert_eq!(interner.leaf_id(id), leaf, "the freed leaf-id was recycled");
        let plan = cache.plan_for_leaf_id(1, src, interner.leaf_generation(), leaf, benign);
        assert!(!is_poisoned(plan));
        assert_eq!(cache.dense_len(), 1);
        // The poisoned plan is gone for good, even if the old leaf
        // generation were ever replayed.
        let plan = cache.plan_for_leaf_id(1, src, 0, leaf, benign);
        assert!(!is_poisoned(plan));
    }

    #[test]
    fn interner_switch_still_resets_the_dense_tier() {
        let mut cache = DispatchCache::new();
        cache.plan_for_leaf_id(1, 7, 0, 0, poisoned);
        let plan = cache.plan_for_leaf_id(1, 8, 0, 0, benign);
        assert!(!is_poisoned(plan));
        assert_eq!(cache.dense_len(), 1);
    }

    #[test]
    fn stats_survive_rebinds_and_resets() {
        let mut cache = DispatchCache::new();
        assert_eq!(cache.stats(), DispatchStats::default());

        cache.plan_for_leaf_id(1, 7, 0, 0, benign); // miss
        cache.plan_for_leaf_id(1, 7, 0, 0, benign); // hit

        // A leaf-id recycle resets the *plans*, not the tallies; so does a
        // new program instance.
        cache.plan_for_leaf_id(1, 7, 1, 0, benign); // miss (reset)
        cache.plan_for_leaf_id(2, 7, 1, 0, benign); // miss (rebind)

        let stats = cache.stats();
        assert_eq!(stats.dense_hits, 1);
        assert_eq!(stats.dense_misses, 3);
    }

    #[test]
    fn serials_are_fresh_and_survive_retaining_rebinds() {
        let mut cache = DispatchCache::new();
        cache.plan_for_leaf_id(1, 7, 0, 0, benign);
        cache.plan_for_leaf_id(1, 7, 0, 1, poisoned);
        let (a, b) = (cache.serial(0).unwrap(), cache.serial(1).unwrap());
        assert_ne!(a, b);
        // A swap keeping leaf 0's plan keeps its serial; leaf 1 rebuilds
        // under a serial never seen before.
        let kept = cache.rebind_retaining(2, |leaf_id, _| leaf_id == 0);
        assert_eq!(kept, (1, 1));
        assert_eq!(cache.serial(0), Some(a));
        assert_eq!(cache.serial(1), None);
        cache.plan_for_leaf_id(2, 7, 0, 1, benign);
        let c = cache.serial(1).unwrap();
        assert!(c != a && c != b);
        // A full rebind or reset rebuilds under fresh serials too.
        cache.plan_for_leaf_id(3, 7, 0, 0, benign);
        assert!(![a, b, c].contains(&cache.serial(0).unwrap()));

        // Running out of serials drops every plan and moves the epoch.
        cache.exhaust_serials();
        let epoch = cache.serial_epoch();
        cache.plan_for_leaf_id(3, 7, 0, 1, benign);
        assert_eq!(cache.serial_epoch(), epoch + 1);
        assert_eq!(cache.dense_len(), 1);
        assert_eq!(cache.serial(0), None);
    }
}
