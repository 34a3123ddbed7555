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
//! ## Cached leaves from the column data plane
//!
//! The argument above is a statement about leaves, not about *when* the
//! leaf was computed. `clx-column`'s [`Column`](clx_column::Column) caches
//! each distinct value's leaf at construction by calling the very same
//! [`clx_pattern::tokenize`] — `tokenize_detailed` is tested to agree with
//! `tokenize` token-for-token — so a cached leaf handed to
//! [`crate::CompiledProgram::transform_one_cached`] is exactly the leaf
//! `transform_one` would have derived itself, and every conclusion drawn
//! from it (which branch fires, where the splits fall) carries over
//! unchanged. If the tokenizer's class rules (`precise_class`, the
//! ASCII-only `contains_char`) ever change, the column cache and the
//! executor move together because both delegate to `clx-pattern`; what
//! would break the argument is caching leaves produced by *different*
//! rules, which is why `transform_one_cached` debug-asserts the leaf
//! against a fresh tokenization.
//!
//! ## Integer leaf-ids
//!
//! The same reasoning extends from cached leaves to cached leaf *ids*: a
//! `clx-column` interner assigns one dense integer per distinct leaf
//! pattern, so "two values share a leaf" becomes "two values carry the same
//! leaf-id" — an integer comparison. [`DispatchCache`] therefore keeps a
//! second, dense tier indexed by leaf-id; the column executors look plans
//! up by array index and never hash a `Pattern` at all. The id is only
//! meaningful within the interner that assigned it, so the dense tier is
//! bound to the interner's process-unique instance id and resets when ids
//! from a different id space appear.
//!
//! ## The full cascade
//!
//! Altogether a row's decision falls through four tiers, most-specific
//! first: the dense leaf-id array (columnar paths), this cache's hashed
//! leaf map (`&[String]` paths), and — on a genuine first sight — the
//! fused decision automaton (see the `fused` module), which classifies the
//! new leaf against the target and every transparent branch in one pass
//! *and* derives the winning branch's split boundaries from that pass's
//! accepting path — single-pass first sight, no second `Pattern::split`
//! run over the tokens — with the per-branch Pike-VM loop as the recorded
//! per-program fallback and the per-value check for opaque patterns.
//! Tiers 1 and 2 replay what tiers 3 and 4 decided.
//!
//! ## Rebinding without a reset
//!
//! Handing the cache to a *different* program normally clears both plan
//! tiers ([`DispatchCache::rebind`]): plans embed branch indices and
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

use std::collections::HashMap;
use std::sync::Arc;

use clx_pattern::Pattern;

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

/// The per-worker dispatch cache mapping leaf patterns to their plans.
///
/// Each executor thread owns one cache; real columns have a handful of
/// distinct leaves, so the state stays tiny and never needs synchronization.
/// The cache has two tiers:
///
/// * the **hashed path** — a `Pattern`-keyed map, used by the `&[String]`
///   executors that derive each row's leaf themselves; and
/// * the **dense path** — a plain `Vec` indexed by the integer *leaf-id* a
///   [`clx_column::ColumnInterner`] hands out per distinct leaf pattern.
///   The column executors ([`crate::CompiledProgram::execute_column`],
///   [`crate::ColumnStream::push_rows`]) dispatch through it, so a
///   plan lookup on the column path is an array index: no `Pattern` is ever
///   hashed or compared.
///
/// Plans are only meaningful for the program that built them, so the cache
/// remembers that program's process-unique instance id and transparently
/// resets itself when it is handed to a different compiled program — a
/// stale plan can never be replayed against the wrong branch list. The
/// dense tier is additionally bound to the id space that handed out its
/// leaf-ids: the interner **instance**
/// ([`clx_column::Column::interner_id`]) *and* that interner's eviction
/// [`generation`](clx_column::ColumnInterner::generation). A bounded
/// interner ([`clx_column::StreamBudget`]) recycles leaf-ids when it
/// evicts, bumping its generation; the generation binding guarantees a
/// recycled leaf-id is never served the evicted leaf's plan — the tier
/// resets instead of aliasing. Ids from a different interner instance
/// likewise clear the dense slots.
///
/// The hashed tier is capped (at 2^16 plans by default): an adversarial
/// `&[String]` stream in which every row carries a fresh leaf would
/// otherwise grow the map without bound. A miss on a full tier flushes and
/// restarts it — identical outcomes either way, and leaves arriving after
/// a junk burst are cached again within one flush cycle.
#[derive(Debug)]
pub struct DispatchCache {
    program: Option<u64>,
    plans: HashMap<Pattern, Arc<LeafPlan>>,
    /// Upper bound on `plans` entries (tests shrink it to exercise the cap).
    hashed_cap: usize,
    /// The id space binding of the dense tier: the interner instance whose
    /// leaf-ids index `dense`, plus that interner's eviction generation.
    source: Option<(u64, u64)>,
    /// Leaf-id -> plan; the column-path fast tier.
    dense: Vec<Option<Arc<LeafPlan>>>,
    /// Number of `Some` slots in `dense`.
    dense_decided: usize,
    /// Lifetime hit/miss tallies per tier; survives rebinds and resets.
    stats: DispatchStats,
}

/// Lifetime hit/miss counters for the two [`DispatchCache`] tiers.
///
/// Plain `u64` fields bumped inline (never atomics — each cache is
/// thread-owned), cumulative across program rebinds and dense-tier
/// resets, so stream-long ratios survive eviction generations. A *hit*
/// replayed an existing plan; a *miss* ran the plan builder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Dense-tier (leaf-id indexed) lookups served from the cache.
    pub dense_hits: u64,
    /// Dense-tier lookups that had to build a plan.
    pub dense_misses: u64,
    /// Hashed-tier (`Pattern`-keyed) lookups served from the cache.
    pub hashed_hits: u64,
    /// Hashed-tier lookups that had to build a plan.
    pub hashed_misses: u64,
}

impl DispatchStats {
    /// Total lookups across both tiers.
    pub fn lookups(&self) -> u64 {
        self.dense_hits + self.dense_misses + self.hashed_hits + self.hashed_misses
    }

    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.dense_hits + self.hashed_hits
    }
}

/// Default bound on the hashed (`Pattern`-keyed) tier: far above any real
/// column's leaf diversity, small enough that adversarial all-new-leaf
/// streams stay bounded.
const HASHED_PLAN_CAP: usize = 1 << 16;

impl Default for DispatchCache {
    fn default() -> Self {
        DispatchCache {
            program: None,
            plans: HashMap::new(),
            hashed_cap: HASHED_PLAN_CAP,
            source: None,
            dense: Vec::new(),
            dense_decided: 0,
            stats: DispatchStats::default(),
        }
    }
}

impl DispatchCache {
    /// An empty cache.
    pub fn new() -> Self {
        DispatchCache::default()
    }

    /// Number of distinct leaf patterns decided via the hashed
    /// (`Pattern`-keyed) path.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Number of distinct leaf-ids decided via the dense (integer-indexed)
    /// path.
    pub fn dense_len(&self) -> usize {
        self.dense_decided
    }

    /// `true` if no leaf has been decided yet on either path.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty() && self.dense_decided == 0
    }

    /// Lifetime per-tier hit/miss counters. Cumulative over the cache's
    /// whole life — rebinding to another program or resetting the dense
    /// tier clears the *plans*, never the tallies.
    pub fn stats(&self) -> DispatchStats {
        self.stats
    }

    /// Reset everything if the cache is handed to a different compiled
    /// program.
    fn rebind(&mut self, instance: u64) {
        if self.program != Some(instance) {
            self.plans.clear();
            self.dense.clear();
            self.dense_decided = 0;
            self.source = None;
            self.program = Some(instance);
        }
    }

    /// Re-bind the cache to program `new_instance` keeping every plan the
    /// caller can prove still valid — the mid-stream program-swap path
    /// (see "Rebinding without a reset" in the module docs).
    ///
    /// `retain_hashed` is asked once per hashed-tier leaf pattern and
    /// `retain_dense` once per decided dense slot (by leaf-id); answering
    /// `true` keeps the plan for the new program, `false` drops it so the
    /// next sight rebuilds it. The interner binding and the lifetime
    /// hit/miss tallies are preserved either way. Returns
    /// `(dense_retained, dense_dropped)`.
    ///
    /// Soundness is the caller's obligation: retain a plan only when every
    /// step in it replays identically under the new program —
    /// [`crate::ProgramDelta::affects_leaf`] answering `false` is exactly
    /// that proof.
    pub(crate) fn rebind_retaining(
        &mut self,
        new_instance: u64,
        retain_hashed: impl Fn(&Pattern) -> bool,
        retain_dense: impl Fn(u32) -> bool,
    ) -> (usize, usize) {
        if self.program == Some(new_instance) {
            return (self.dense_decided, 0);
        }
        self.program = Some(new_instance);
        self.plans.retain(|leaf, _| retain_hashed(leaf));
        let mut retained = 0;
        let mut dropped = 0;
        for (leaf_id, slot) in self.dense.iter_mut().enumerate() {
            if slot.is_none() {
                continue;
            }
            if retain_dense(leaf_id as u32) {
                retained += 1;
            } else {
                *slot = None;
                self.dense_decided -= 1;
                dropped += 1;
            }
        }
        (retained, dropped)
    }

    /// The plan for `leaf` under the program instance identified by
    /// `instance`, building it with `build` on first sight. The leaf is
    /// borrowed for the (common) hit path and only cloned into the map when
    /// a plan is decided for the first time.
    pub(crate) fn plan_for(
        &mut self,
        instance: u64,
        leaf: &Pattern,
        build: impl FnOnce(&Pattern) -> LeafPlan,
    ) -> Arc<LeafPlan> {
        self.rebind(instance);
        if let Some(plan) = self.plans.get(leaf) {
            self.stats.hashed_hits += 1;
            return Arc::clone(plan);
        }
        self.stats.hashed_misses += 1;
        let plan = Arc::new(build(leaf));
        // Bounded retention: a miss on a full map flushes the tier and
        // restarts it. Adversarial all-new-leaf streams stay bounded, and
        // — unlike a fill-once cap — legitimate leaves arriving *after* a
        // junk burst get cached again within one flush cycle.
        if self.plans.len() >= self.hashed_cap {
            self.plans.clear();
        }
        self.plans.insert(leaf.clone(), Arc::clone(&plan));
        plan
    }

    /// The plan for the leaf with dense id `leaf_id` (handed out by the
    /// interner instance `source` at eviction generation
    /// `source_generation`) under program `instance`, building it on first
    /// sight. Pure array indexing on the hit path — the leaf pattern
    /// itself is never hashed or compared.
    ///
    /// A generation change (the interner evicted, possibly recycling
    /// leaf-ids) resets the dense tier, so a stale plan is never served
    /// under a reused id.
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
            self.dense.clear();
            self.dense_decided = 0;
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
    use clx_pattern::tokenize;

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
    fn hashed_tier_is_capped_and_recovers_after_a_flush() {
        let mut cache = DispatchCache::new();
        cache.hashed_cap = 2;
        let leaves = [tokenize("a"), tokenize("ab"), tokenize("abc")];
        for leaf in &leaves {
            cache.plan_for(1, leaf, |_| benign());
        }
        // The third insert flushed the full tier and restarted it: the map
        // never exceeds the cap, and caching keeps working afterwards.
        assert_eq!(cache.len(), 1);
        cache.plan_for(1, &leaves[2], |_| panic!("must be cached post-flush"));
        // A pre-flush leaf was dropped and is simply rebuilt on next sight.
        let mut rebuilt = false;
        cache.plan_for(1, &leaves[0], |_| {
            rebuilt = true;
            benign()
        });
        assert!(rebuilt);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn stats_survive_rebinds_and_resets() {
        let mut cache = DispatchCache::new();
        assert_eq!(cache.stats(), DispatchStats::default());

        cache.plan_for_leaf_id(1, 7, 0, 0, benign); // dense miss
        cache.plan_for_leaf_id(1, 7, 0, 0, benign); // dense hit
        cache.plan_for(1, &tokenize("a"), |_| benign()); // hashed miss
        cache.plan_for(1, &tokenize("a"), |_| benign()); // hashed hit

        // Generation bump resets the dense *tier*, not the tallies; a new
        // program instance resets every plan, still not the tallies.
        cache.plan_for_leaf_id(1, 7, 1, 0, benign); // dense miss (reset)
        cache.plan_for(2, &tokenize("a"), |_| benign()); // hashed miss (rebind)

        let stats = cache.stats();
        assert_eq!(stats.dense_hits, 1);
        assert_eq!(stats.dense_misses, 2);
        assert_eq!(stats.hashed_hits, 1);
        assert_eq!(stats.hashed_misses, 2);
        assert_eq!(stats.lookups(), 6);
        assert_eq!(stats.hits(), 2);
    }
}
