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
//! cache is bound to the interner's process-unique instance id and resets
//! when ids from a different id space appear.
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
//! Pike-VM loop, the recorded per-program fallback, plus the per-value
//! check for opaque patterns. Tier 1 replays what tiers 2 and 3 decided.
//!
//! ## Rebinding without a reset
//!
//! Handing the cache to a *different* program normally clears every plan
//! ([`DispatchCache::rebind`]): plans embed branch indices and
//! split boundaries of the program that built them. But a program *swap*
//! mid-stream ([`crate::ColumnStream::swap_program`]) usually changes only
//! a few branches, and a [`crate::ProgramDelta`] can prove, per leaf, that
//! the old plan's every step is still valid under the new program — same
//! target verdict, identical branches at identical indices, and no changed
//! branch able to match the leaf. For those leaves
//! [`DispatchCache::rebind_retaining`] re-binds the cache to the new
//! program instance while keeping the proven plans in place, dense tier
//! included: only affected leaf-ids lose their slot and rebuild (through
//! the new program's fused automaton, built once at compile time) on next
//! sight. The interner binding (`source`) is untouched — the id space did
//! not move, only the program did.

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
/// ([`clx_column::Column::interner_id`]) *and* that interner's eviction
/// [`generation`](clx_column::ColumnInterner::generation). A bounded
/// interner ([`clx_column::StreamBudget`]) recycles leaf-ids when it
/// evicts, bumping its generation; the generation binding guarantees a
/// recycled leaf-id is never served the evicted leaf's plan — the cache
/// resets instead of aliasing. Ids from a different interner instance
/// likewise clear the slots.
#[derive(Debug, Default)]
pub struct DispatchCache {
    program: Option<u64>,
    /// The id space binding: the interner instance whose leaf-ids index
    /// `dense`, plus that interner's eviction generation.
    source: Option<(u64, u64)>,
    /// Leaf-id -> plan.
    dense: Vec<Option<Arc<LeafPlan>>>,
    /// Number of `Some` slots in `dense`.
    dense_decided: usize,
    /// Lifetime hit/miss tallies; survives rebinds and resets.
    stats: DispatchStats,
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
    pub fn new() -> Self {
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

    /// Reset everything if the cache is handed to a different compiled
    /// program.
    fn rebind(&mut self, instance: u64) {
        if self.program != Some(instance) {
            self.clear();
            self.source = None;
            self.program = Some(instance);
        }
    }

    /// Re-bind the cache to program `new_instance` keeping every plan the
    /// caller can prove still valid — the mid-stream program-swap path
    /// (see "Rebinding without a reset" in the module docs).
    ///
    /// `retain` is asked once per decided slot (by leaf-id); answering
    /// `true` keeps the plan for the new program, `false` drops it so the
    /// next sight rebuilds it. The interner binding and the lifetime
    /// hit/miss tallies are preserved either way. Returns
    /// `(retained, dropped)`.
    ///
    /// Soundness is the caller's obligation: retain a plan only when every
    /// step in it replays identically under the new program —
    /// [`crate::ProgramDelta::affects_leaf`] answering `false` is exactly
    /// that proof.
    pub(crate) fn rebind_retaining(
        &mut self,
        new_instance: u64,
        retain: impl Fn(u32) -> bool,
    ) -> (usize, usize) {
        if self.program == Some(new_instance) {
            return (self.dense_decided, 0);
        }
        self.program = Some(new_instance);
        let mut retained = 0;
        let mut dropped = 0;
        for (leaf_id, slot) in self.dense.iter_mut().enumerate() {
            if slot.is_none() {
                continue;
            }
            if retain(leaf_id as u32) {
                retained += 1;
            } else {
                *slot = None;
                self.dense_decided -= 1;
                dropped += 1;
            }
        }
        (retained, dropped)
    }

    /// The plan for the leaf with dense id `leaf_id` (handed out by the
    /// interner instance `source` at eviction generation
    /// `source_generation`) under program `instance`, building it on first
    /// sight. Pure array indexing on the hit path — the leaf pattern
    /// itself is never hashed or compared.
    ///
    /// A generation change (the interner evicted, possibly recycling
    /// leaf-ids) resets the cache, so a stale plan is never served under a
    /// reused id.
    pub(crate) fn plan_for_leaf_id(
        &mut self,
        instance: u64,
        source: u64,
        source_generation: u64,
        leaf_id: u32,
        build: impl FnOnce() -> LeafPlan,
    ) -> Arc<LeafPlan> {
        self.rebind(instance);
        if self.source != Some((source, source_generation)) {
            self.clear();
            self.source = Some((source, source_generation));
        }
        let slot = leaf_id as usize;
        if slot >= self.dense.len() {
            self.dense.resize(slot + 1, None);
        }
        if let Some(plan) = &self.dense[slot] {
            self.stats.dense_hits += 1;
            return Arc::clone(plan);
        }
        self.stats.dense_misses += 1;
        let plan = Arc::new(build());
        self.dense[slot] = Some(Arc::clone(&plan));
        self.dense_decided += 1;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut cache = DispatchCache::new();
        // Decide leaf-id 0 under (source 7, generation 0) with the sentinel.
        let plan = cache.plan_for_leaf_id(1, 7, 0, 0, poisoned);
        assert!(is_poisoned(&plan));
        assert_eq!(cache.dense_len(), 1);
        // Same generation: served from the dense tier, builder not run.
        let plan = cache.plan_for_leaf_id(1, 7, 0, 0, || panic!("must be cached"));
        assert!(is_poisoned(&plan));
        // The interner evicted (generation bumped, leaf-id 0 possibly
        // recycled for a different leaf): the stale sentinel must never be
        // served — the tier resets and the builder runs again.
        let plan = cache.plan_for_leaf_id(1, 7, 1, 0, benign);
        assert!(!is_poisoned(&plan));
        assert_eq!(cache.dense_len(), 1);
        // The poisoned plan is gone for good, even if generation 0 ids
        // were ever replayed.
        let plan = cache.plan_for_leaf_id(1, 7, 0, 0, benign);
        assert!(!is_poisoned(&plan));
    }

    #[test]
    fn interner_switch_still_resets_the_dense_tier() {
        let mut cache = DispatchCache::new();
        cache.plan_for_leaf_id(1, 7, 0, 0, poisoned);
        let plan = cache.plan_for_leaf_id(1, 8, 0, 0, benign);
        assert!(!is_poisoned(&plan));
        assert_eq!(cache.dense_len(), 1);
    }

    #[test]
    fn stats_survive_rebinds_and_resets() {
        let mut cache = DispatchCache::new();
        assert_eq!(cache.stats(), DispatchStats::default());

        cache.plan_for_leaf_id(1, 7, 0, 0, benign); // miss
        cache.plan_for_leaf_id(1, 7, 0, 0, benign); // hit

        // A generation bump resets the *plans*, not the tallies; so does a
        // new program instance.
        cache.plan_for_leaf_id(1, 7, 1, 0, benign); // miss (reset)
        cache.plan_for_leaf_id(2, 7, 1, 0, benign); // miss (rebind)

        let stats = cache.stats();
        assert_eq!(stats.dense_hits, 1);
        assert_eq!(stats.dense_misses, 3);
    }
}
