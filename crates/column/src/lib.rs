//! # clx-column
//!
//! The shared column data plane of CLX: one representation of a column of
//! string data that every layer of the stack — profiling (`clx-cluster`),
//! synthesis (`clx-synth`), the interactive session (`clx-core`) and the
//! batch engine (`clx-engine`) — reads instead of re-deriving its own.
//!
//! The plane is built from three pieces:
//!
//! * [`ColumnInterner`] — the persistent heart of streaming: an arena and a
//!   dedup map that hand out **dense integer ids**. Every distinct value
//!   gets a *distinct-id* (its index in the interner) and every distinct
//!   leaf pattern gets a *leaf-id*; both id spaces are append-only, so ids
//!   stay stable as more data streams in. Per value it keeps only an arena
//!   span, its hash, a leaf-id and LRU links (kept only under a
//!   [`StreamBudget`], the one reader of the LRU list); each leaf pattern
//!   is stored once. A new value is scanned once and hashed once: eviction
//!   removes it from the dedup map under its stored hash.
//! * [`Column`] — a finished column, stored the way the interner stores a
//!   stream: per distinct value an arena span, a leaf-id and a range of one
//!   flat list of token slices (byte ranges), each leaf pattern once per
//!   leaf-id, and a row→distinct map. Construction deduplicates the rows
//!   and tokenizes only a leaf it has not seen yet, on the calling thread;
//!   [`ColumnBuilder`] runs the same build under a telemetry span.
//! * [`ColumnChunk`] — one streamed slice of a column, interned through a
//!   shared [`ColumnInterner`] so its distinct-ids are **stable across
//!   chunks**: a value seen in chunk 0 keeps its id in chunk 9, which is
//!   what lets a streaming executor decide every distinct value once per
//!   stream instead of once per chunk.
//!
//! Everything downstream then works in O(distinct) instead of O(rows):
//! the profiler clusters distinct values and fans counts back out to row
//! indices, synthesis validates plans against cached token slices, and the
//! engine dispatches on cached leaf signatures — by integer leaf-id, an
//! array index — without ever re-tokenizing.
//!
//! ```
//! use clx_column::Column;
//!
//! let column = Column::from_rows(vec![
//!     "734-422-8073".to_string(),
//!     "N/A".to_string(),
//!     "734-422-8073".to_string(),
//! ]);
//! assert_eq!(column.len(), 3);
//! assert_eq!(column.distinct_count(), 2);
//!
//! let first = column.distinct(0);
//! assert_eq!(first.text(), "734-422-8073");
//! assert_eq!(first.multiplicity(), 2);
//! assert_eq!(first.leaf().to_string(), "<D>3'-'<D>3'-'<D>4");
//! assert_eq!(column.row(2), "734-422-8073");
//! ```
//!
//! Streaming ingest through the persistent interner:
//!
//! ```
//! use clx_column::ColumnInterner;
//!
//! let mut interner = ColumnInterner::new();
//! let a = interner.chunk(&["x-1", "y-2", "x-1"]);
//! assert_eq!(a.distinct_count(), 2);
//! assert_eq!(a.distinct_ids(), &[0, 1]);
//! drop(a);
//! // The same value in a later chunk keeps its id — and "z-3" extends the
//! // id space instead of restarting it.
//! let b = interner.chunk(&["z-3", "x-1"]);
//! assert_eq!(b.distinct_ids(), &[2, 0]);
//! // All three values share one leaf pattern, so one leaf-id.
//! assert_eq!(interner.leaf_count(), 1);
//! ```
//!
//! # Bounded streams for untrusted input
//!
//! A persistent interner is O(distinct): an adversarial, high-cardinality
//! stream (every row a new value) grows it without bound. For untrusted
//! input, construct the interner with a [`StreamBudget`]:
//!
//! ```
//! use clx_column::{ColumnInterner, StreamBudget};
//!
//! let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
//! let a = interner.chunk(&["a-1", "b-2", "c-3"]); // over budget, but pinned
//! assert_eq!(a.distinct_count(), 3);
//! drop(a);
//! // The next chunk boundary evicts the coldest values down to the budget,
//! // and the chunk lists them.
//! let b = interner.chunk(&["d-4"]);
//! assert_eq!(b.evicted(), &[0]);
//! drop(b);
//! assert!(interner.live_distinct_count() <= 3);
//! assert!(interner.evictions() > 0);
//! ```
//!
//! Eviction recycles distinct-id slots, so two invariants the unbounded
//! interner offers ("ids are append-only" and "a leaf-id always names the
//! same leaf") are replaced by explicit **versioning**: every recycled slot
//! bumps its own [`distinct_generation`](ColumnInterner::distinct_generation),
//! and every freed leaf-id bumps the
//! [`leaf_generation`](ColumnInterner::leaf_generation). Consumers caching
//! per distinct-id key their entries on the slot generation, consumers
//! caching per leaf-id on the leaf generation, and neither can be served a
//! stale decision under a reused id. Each chunk also carries the
//! distinct-ids its boundary evicted ([`ColumnChunk::evicted`]), so a
//! per-id cache can release exactly those entries.
//!
//! Budgets are enforced only at **chunk boundaries**
//! ([`ColumnInterner::chunk`] evicts before interning, and a live
//! [`ColumnChunk`] borrow keeps the interner immutable), so a chunk's own
//! rows are always resolvable while its report is built: peak memory is
//! bounded by the budget plus one chunk's distinct values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clx_pattern::{leaf_key, leaf_key_and_slices, tokenize, Pattern, TokenSlice};
use clx_telemetry::{MetricSink, Span};

/// Source of process-unique [`ColumnInterner::instance`] ids (also used for
/// columns built without an explicit interner, which own a fresh id space).
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// An interner's process-unique id space. A clone draws a fresh one: see
/// the clone note on [`ColumnInterner`].
#[derive(Debug)]
struct Instance(u64);

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance(next_instance())
    }
}

/// A memory budget for streaming ingest over untrusted input.
///
/// The default budget is unbounded. A bounded interner enforces the budget
/// at chunk boundaries by evicting the coldest (least-recently-interned)
/// distinct values and recycling their id slots; evicted values are
/// transparently re-interned if they reappear (under a fresh slot
/// generation). See the crate-level *bounded streams* docs for the
/// versioning this implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamBudget {
    /// Maximum live distinct values retained between chunks.
    pub max_distinct: usize,
    /// Maximum bytes of live interned distinct-value text retained between
    /// chunks. The arena holds at most as much again of evicted text
    /// awaiting compaction.
    pub max_arena_bytes: usize,
}

impl Default for StreamBudget {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl StreamBudget {
    /// No limits: the interner never evicts and never reports over-budget.
    pub fn unbounded() -> Self {
        StreamBudget {
            max_distinct: usize::MAX,
            max_arena_bytes: usize::MAX,
        }
    }

    /// A budget capping the live distinct-value count (arena unbounded).
    pub fn max_distinct(max_distinct: usize) -> Self {
        StreamBudget {
            max_distinct,
            ..Self::unbounded()
        }
    }

    /// Additionally cap the live interned text bytes.
    pub fn with_max_arena_bytes(mut self, max_arena_bytes: usize) -> Self {
        self.max_arena_bytes = max_arena_bytes;
        self
    }

    /// `true` when neither limit can ever bind.
    pub fn is_unbounded(&self) -> bool {
        self.max_distinct == usize::MAX && self.max_arena_bytes == usize::MAX
    }
}

/// The "no id" sentinel of the LRU links and the dedup table.
const NIL: u32 = u32::MAX;

/// One interned distinct value: its arena span, its `seen` hash, the dense
/// id of its leaf pattern, and its place in the LRU list.
#[derive(Debug, Clone)]
struct InternedEntry {
    /// Half-open byte span of the value inside the arena.
    span: (usize, usize),
    /// The value's `seen` hash, kept so eviction removes it from the dedup
    /// map without hashing the text again. It fills what was padding, so a
    /// [`Slot`] stays 48 bytes.
    hash: u32,
    /// Dense id of this value's leaf pattern (shared by every distinct
    /// value with the same leaf; the pattern lives in its [`LeafSlot`]).
    leaf_id: u32,
    /// The next-colder live distinct-id, or [`NIL`] at the LRU head (and
    /// always [`NIL`] in an unbounded interner, which keeps no LRU list).
    prev: u32,
    /// The next-hotter live distinct-id, or [`NIL`] at the LRU tail (and
    /// always [`NIL`] in an unbounded interner).
    next: u32,
}

/// One distinct-id slot: its recycle generation plus its live entry, or
/// its link in the free list while evicted.
#[derive(Debug, Clone)]
struct Slot {
    /// Bumped every time the slot's entry is evicted, so a consumer cache
    /// keyed by `(id, generation)` can never alias two values.
    generation: u64,
    state: SlotState,
}

/// Whether a distinct-id slot holds a value.
#[derive(Debug, Clone)]
enum SlotState {
    Live(InternedEntry),
    /// Evicted: the next recycled slot to reuse after this one, or [`NIL`].
    Free(u32),
}

/// One leaf-id slot: the leaf pattern plus how many live distinct values
/// carry it (the id is recycled when the count reaches zero).
#[derive(Debug, Clone)]
struct LeafSlot {
    pattern: Pattern,
    refs: u32,
}

/// The interner's dedup map, keyed by arena span so a value's text is
/// stored once: linear probing over power-of-two buckets of (low 32 hash
/// bits, distinct-id), [`NIL`] when empty. Removal shifts the probe run
/// back instead of leaving tombstones, so eviction never slows lookups.
#[derive(Debug, Clone, Default)]
struct SpanTable {
    buckets: Vec<(u32, u32)>,
    len: usize,
}

impl SpanTable {
    /// The id under `hash` for which `is_value` holds, if any.
    fn find(&self, hash: u32, is_value: impl Fn(u32) -> bool) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.buckets[i];
            if id == NIL {
                return None;
            }
            if h == hash && is_value(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Add `id` (not yet present) under `hash`, growing at 3/4 load.
    fn insert(&mut self, hash: u32, id: u32) {
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            let capacity = (self.buckets.len() * 2).max(16);
            let old = std::mem::replace(&mut self.buckets, vec![(0, NIL); capacity]);
            self.len = 0;
            for (h, id) in old.into_iter().filter(|&(_, id)| id != NIL) {
                self.insert(h, id);
            }
        }
        let mask = self.buckets.len() - 1;
        let mut i = hash as usize & mask;
        while self.buckets[i].1 != NIL {
            i = (i + 1) & mask;
        }
        self.buckets[i] = (hash, id);
        self.len += 1;
    }

    /// Remove `id`, which must be present under `hash`.
    fn remove(&mut self, hash: u32, id: u32) {
        let mask = self.buckets.len() - 1;
        let mut hole = hash as usize & mask;
        while self.buckets[hole].1 != id {
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (h, next) = self.buckets[j];
            if next == NIL {
                break;
            }
            // The entry at `j` may fill the hole iff the hole lies on its
            // probe path, i.e. its home bucket is not in (hole, j].
            if j.wrapping_sub(h as usize) & mask >= j.wrapping_sub(hole) & mask {
                self.buckets[hole] = self.buckets[j];
                hole = j;
            }
        }
        self.buckets[hole] = (0, NIL);
        self.len -= 1;
    }
}

/// A persistent, reusable value interner for streams: an arena, a dedup
/// map keyed by arena span, and an LRU list over the live values.
///
/// A new value costs one scan (its leaf key) and one hash: the hash is
/// stored with the value, and eviction reuses it. Only budget enforcement
/// reads the LRU list, and a budget is fixed when the interner is built,
/// so an unbounded interner keeps no LRU list at all: a repeated value
/// costs its hash and one dedup probe, with no relinking.
///
/// The interner hands out two dense integer id spaces:
///
/// * **distinct-ids** — `intern` returns the index of the value in the
///   interner (a value seen before keeps its id), and
/// * **leaf-ids** — every distinct *leaf pattern* gets its own dense id;
///   distinct values sharing a leaf share a leaf-id, which is what lets an
///   executor's dispatch cache be a plain `Vec` indexed by leaf-id instead
///   of a `Pattern`-keyed hash map.
///
/// Both spaces are append-only: interning more values never renumbers
/// existing ids. [`ColumnInterner::chunk`] interns one streamed slice of
/// rows and returns a [`ColumnChunk`] whose ids are therefore stable across
/// every chunk of the stream. Each interner also carries a process-unique
/// [`instance`](ColumnInterner::instance) id so consumers caching by
/// distinct-id or leaf-id can detect when they are handed ids from a
/// different id space.
///
/// A clone owns a **fresh id space** (new instance id): the copy starts with
/// the same value→id mapping, but the two interners diverge independently
/// from then on, so sharing the original's instance id would let a consumer
/// cache (keyed by instance) alias one id to two different values. The
/// fresh id forces such consumers to re-decide, which is always sound.
#[derive(Debug, Clone)]
pub struct ColumnInterner {
    instance: Instance,
    /// Bumped each time a leaf-id is freed; consumers caching per
    /// *leaf-id* key their cache on `(instance, leaf_generation)`.
    leaf_generation: u64,
    /// The memory budget enforced at chunk boundaries.
    budget: StreamBudget,
    /// All interned values, concatenated; [`InternedEntry::span`] slices
    /// it. Evicted text stays until an eviction batch finds it at least as
    /// large as the live text, and then compacts it away.
    arena: String,
    /// Distinct-id slots, in first-intern order; a value's distinct-id is
    /// its slot index. Evicted slots are recycled via `free_head`.
    entries: Vec<Slot>,
    /// The most recently evicted slot, heading the list of slots awaiting
    /// reuse (threaded through [`SlotState::Free`]), or [`NIL`].
    free_head: u32,
    /// The coldest live distinct-id (next to evict), or [`NIL`]; always
    /// [`NIL`] while [`ColumnInterner::keeps_lru`] is false.
    lru_head: u32,
    /// The most recently interned live distinct-id, or [`NIL`].
    lru_tail: u32,
    /// Hashes value text for `seen`; per interner, so colliding inputs
    /// cannot be precomputed.
    hasher: RandomState,
    /// Dedup map: live value text -> distinct-id.
    seen: SpanTable,
    /// Distinct-id -> index into the current chunk's distinct ids; valid
    /// only where `distinct_ids[l] == id`, so it is never cleared.
    chunk_local: Vec<u32>,
    /// Dedup map: live leaf pattern, as its [`leaf_key`] -> leaf-id.
    leaves: HashMap<Box<[u8]>, u32>,
    /// Scratch buffer for [`leaf_key`], reused by every intern.
    key_buf: Vec<u8>,
    /// Leaf-id slots (pattern + live refcount); `None` when recycled.
    leaf_slots: Vec<Option<LeafSlot>>,
    /// Recycled leaf-id slots awaiting reuse.
    leaf_free: Vec<u32>,
    /// Live distinct values (slots minus tombstones).
    live: usize,
    /// Bytes of live interned text (`arena.len()` right after compaction).
    live_bytes: usize,
    /// Heap bytes of the live leaf patterns: each one's tokens in its
    /// [`LeafSlot`] plus its `leaves` key.
    leaf_bytes: usize,
    /// Lifetime intern/eviction tallies (plain `u64`s bumped inline — the
    /// hot path never touches a sink).
    stats: InternerStats,
    /// Optional metrics destination, published at chunk boundaries only.
    telemetry: Option<Arc<dyn MetricSink>>,
    /// The tallies already published to the sink (delta basis).
    published: InternerStats,
}

/// Lifetime counters of a [`ColumnInterner`], readable via
/// [`ColumnInterner::stats`] with or without a telemetry sink attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Interns that resolved to an already-live distinct value.
    pub intern_hits: u64,
    /// Interns that stored a new distinct value (tokenizing it).
    pub intern_misses: u64,
    /// Eviction batches run (chunk boundaries that evicted a value).
    pub eviction_batches: u64,
    /// Distinct values evicted across all batches.
    pub evicted_values: u64,
}

impl Default for ColumnInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnInterner {
    /// An empty interner with a fresh process-unique id space and no
    /// memory budget.
    pub fn new() -> Self {
        Self::with_budget(StreamBudget::unbounded())
    }

    /// An empty interner enforcing `budget` at every chunk boundary.
    pub fn with_budget(budget: StreamBudget) -> Self {
        ColumnInterner {
            instance: Instance(next_instance()),
            leaf_generation: 0,
            budget,
            arena: String::new(),
            entries: Vec::new(),
            free_head: NIL,
            lru_head: NIL,
            lru_tail: NIL,
            hasher: RandomState::new(),
            seen: SpanTable::default(),
            chunk_local: Vec::new(),
            leaves: HashMap::new(),
            key_buf: Vec::new(),
            leaf_slots: Vec::new(),
            leaf_free: Vec::new(),
            live: 0,
            live_bytes: 0,
            leaf_bytes: 0,
            stats: InternerStats::default(),
            telemetry: None,
            published: InternerStats::default(),
        }
    }

    /// Attach a telemetry sink. The hot intern path still only bumps plain
    /// `u64` tallies; the sink is touched once per
    /// [`ColumnInterner::chunk`] boundary, publishing the
    /// `column.interner.*` counter deltas and gauges.
    pub fn attach_telemetry(&mut self, sink: Arc<dyn MetricSink>) {
        self.telemetry = Some(sink);
    }

    /// Lifetime intern/eviction tallies — available with or without a
    /// telemetry sink attached.
    pub fn stats(&self) -> InternerStats {
        self.stats
    }

    /// The memory budget this interner enforces at chunk boundaries.
    pub fn budget(&self) -> &StreamBudget {
        &self.budget
    }

    /// The process-unique id of this interner's id space. Two interners
    /// never share an instance id, so a consumer caching per distinct-id or
    /// per leaf-id can key its cache validity on this value.
    pub fn instance(&self) -> u64 {
        self.instance.0
    }

    /// Size of the distinct-id space: live values plus recycled (evicted)
    /// slots. Equal to the number of distinct values interned so far for an
    /// unbounded interner; see [`ColumnInterner::live_distinct_count`] for
    /// the live count.
    pub fn distinct_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct values currently retained (excludes evicted
    /// slots). Never exceeds the budget's `max_distinct` at a chunk
    /// boundary, plus the current chunk's own distinct values while one is
    /// being interned.
    pub fn live_distinct_count(&self) -> usize {
        self.live
    }

    /// Number of live distinct leaf patterns (the leaf-id space size; never
    /// larger than [`ColumnInterner::live_distinct_count`]).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// `true` when no value is currently interned.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total bytes of live interned distinct-value text (the arena size
    /// right after a compaction).
    pub fn interned_bytes(&self) -> usize {
        self.live_bytes
    }

    /// The leaf-id recycle counter. Bumped each time an eviction frees a
    /// leaf-id (its last live value went), and never otherwise: a consumer
    /// caching per *leaf-id* keys its cache on
    /// `(instance, leaf_generation)`, so a recycled leaf-id is never served
    /// the freed leaf's entry, while eviction batches that leave every
    /// leaf live keep the cache. Always `0` for unbounded interners.
    pub fn leaf_generation(&self) -> u64 {
        self.leaf_generation
    }

    /// The recycle generation of distinct-id slot `id`. Bumped each time
    /// the slot's value is evicted, so a consumer caching per
    /// *distinct-id* can validate an entry with an integer comparison: a
    /// decision recorded at `(id, g)` is valid iff
    /// `distinct_generation(id) == g` — slot reuse can never replay it for
    /// a different value.
    pub fn distinct_generation(&self, id: u32) -> u64 {
        self.entries[id as usize].generation
    }

    /// `true` while distinct-id `id` holds a live (non-evicted) value.
    pub fn is_live(&self, id: u32) -> bool {
        self.entries
            .get(id as usize)
            .is_some_and(|s| matches!(s.state, SlotState::Live(_)))
    }

    /// Total distinct values evicted over the interner's lifetime.
    pub fn evictions(&self) -> u64 {
        self.stats.evicted_values
    }

    /// Estimated heap bytes retained by the interner: arena text, slot
    /// tables, the dedup maps and the live leaf patterns. An estimate —
    /// allocator overhead and map table capacity are approximated — but it
    /// is monotone under interning and decreases when an eviction batch
    /// compacts the arena, which is what budget monitoring needs.
    pub fn memory_used(&self) -> usize {
        self.arena.capacity()
            + self.entries.capacity() * size_of::<Slot>()
            + self.leaf_free.capacity() * size_of::<u32>()
            + self.leaf_slots.len() * size_of::<Option<LeafSlot>>()
            // `seen` keys are arena spans: the text is not duplicated.
            + self.seen.buckets.capacity() * size_of::<(u32, u32)>()
            + self.chunk_local.capacity() * size_of::<u32>()
            + self.leaves.len() * size_of::<(Box<[u8]>, u32)>()
            + self.key_buf.capacity()
            + self.leaf_bytes
    }

    /// `true` when the live state exceeds the budget; the next chunk
    /// boundary clears this.
    pub fn over_budget(&self) -> bool {
        self.live > self.budget.max_distinct || self.live_bytes > self.budget.max_arena_bytes
    }

    /// The text of distinct value `id` (a slice of the arena).
    ///
    /// # Panics
    /// If `id` was not handed out by this interner, or was evicted.
    pub fn value(&self, id: u32) -> &str {
        let (start, end) = self.live_entry(id).span;
        &self.arena[start..end]
    }

    /// The leaf pattern of distinct value `id`.
    pub fn leaf(&self, id: u32) -> &Pattern {
        self.leaf_pattern(self.leaf_id(id))
            .expect("a live value's leaf is live")
    }

    /// The dense leaf-id of distinct value `id`'s leaf pattern.
    pub fn leaf_id(&self, id: u32) -> u32 {
        self.live_entry(id).leaf_id
    }

    /// The leaf pattern behind live leaf-id `leaf_id`, or `None` when the
    /// id is out of range or currently recycled (all its distinct values
    /// were evicted). The inverse of [`ColumnInterner::leaf_id`]'s id
    /// space; consumers holding per-leaf-id state (e.g. a dense dispatch
    /// tier) use this to ask pattern-level questions about a slot without
    /// tracking any value of their own.
    pub fn leaf_pattern(&self, leaf_id: u32) -> Option<&Pattern> {
        self.leaf_slots
            .get(leaf_id as usize)?
            .as_ref()
            .map(|slot| &slot.pattern)
    }

    fn live_entry(&self, id: u32) -> &InternedEntry {
        match &self.entries[id as usize].state {
            SlotState::Live(entry) => entry,
            SlotState::Free(_) => panic!("distinct-id was evicted"),
        }
    }

    fn live_entry_mut(&mut self, id: u32) -> &mut InternedEntry {
        match &mut self.entries[id as usize].state {
            SlotState::Live(entry) => entry,
            SlotState::Free(_) => panic!("distinct-id was evicted"),
        }
    }

    /// The `seen` hash of a value's text.
    fn hash(&self, value: &str) -> u32 {
        #[cfg(test)]
        work::HASHES.with(|n| n.set(n.get() + 1));
        self.hasher.hash_one(value) as u32
    }

    /// `true` when the interner keeps its LRU list: only under a bounded
    /// budget, since budget enforcement is the list's one reader and an
    /// unbounded budget never evicts.
    fn keeps_lru(&self) -> bool {
        !self.budget.is_unbounded()
    }

    /// Intern one value, tokenizing it only on first sight. Returns the
    /// value's dense distinct-id, stable until (and unless) a budget
    /// eviction recycles it — see [`ColumnInterner::distinct_generation`].
    pub fn intern(&mut self, value: &str) -> u32 {
        let hash = self.hash(value);
        let found = self.seen.find(hash, |id| {
            let (start, end) = self.live_entry(id).span;
            &self.arena[start..end] == value
        });
        if let Some(id) = found {
            self.stats.intern_hits += 1;
            // An LRU touch: the value becomes the last to be evicted.
            if self.keeps_lru() && self.lru_tail != id {
                self.lru_unlink(id);
                self.lru_push_hot(id);
            }
            return id;
        }
        self.stats.intern_misses += 1;
        let leaf_id = self.intern_leaf(value);
        let start = self.arena.len();
        self.arena.push_str(value);
        self.live += 1;
        self.live_bytes += value.len();
        let entry = InternedEntry {
            span: (start, self.arena.len()),
            hash,
            leaf_id,
            prev: NIL,
            next: NIL,
        };
        let id = match self.free_head {
            NIL => {
                assert!(
                    self.entries.len() < NIL as usize,
                    "interner exceeds u32 distinct-value indexing"
                );
                self.entries.push(Slot {
                    generation: 0,
                    state: SlotState::Live(entry),
                });
                (self.entries.len() - 1) as u32
            }
            id => {
                let slot = &mut self.entries[id as usize];
                let SlotState::Free(next_free) = slot.state else {
                    unreachable!("the free list holds only evicted slots")
                };
                self.free_head = next_free;
                slot.state = SlotState::Live(entry);
                id
            }
        };
        if self.keeps_lru() {
            self.lru_push_hot(id);
        }
        self.seen.insert(hash, id);
        id
    }

    /// Append live `id` (not in the list) at the hot end of the LRU list.
    fn lru_push_hot(&mut self, id: u32) {
        #[cfg(test)]
        work::RELINKS.with(|n| n.set(n.get() + 1));
        let tail = self.lru_tail;
        let entry = self.live_entry_mut(id);
        entry.prev = tail;
        entry.next = NIL;
        match tail {
            NIL => self.lru_head = id,
            tail => self.live_entry_mut(tail).next = id,
        }
        self.lru_tail = id;
    }

    /// Take live `id` out of the LRU list.
    fn lru_unlink(&mut self, id: u32) {
        #[cfg(test)]
        work::RELINKS.with(|n| n.set(n.get() + 1));
        let InternedEntry { prev, next, .. } = *self.live_entry(id);
        match prev {
            NIL => self.lru_head = next,
            prev => self.live_entry_mut(prev).next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            next => self.live_entry_mut(next).prev = prev,
        }
    }

    /// Intern `value`'s leaf pattern (tokenizing only a leaf not yet live),
    /// recycling a freed leaf-id slot, and count one live reference to it.
    fn intern_leaf(&mut self, value: &str) -> u32 {
        leaf_key(value, &mut self.key_buf);
        if let Some(&l) = self.leaves.get(self.key_buf.as_slice()) {
            self.leaf_slots[l as usize]
                .as_mut()
                .expect("mapped leaf-id must be live")
                .refs += 1;
            return l;
        }
        let pattern = tokenize(value);
        self.leaf_bytes += size_of_val(pattern.tokens()) + self.key_buf.len();
        // No more leaf slots than live values, so the u32 bound on
        // distinct-ids covers leaf-ids too.
        let l = self.leaf_free.pop().unwrap_or_else(|| {
            self.leaf_slots.push(None);
            (self.leaf_slots.len() - 1) as u32
        });
        self.leaves.insert(self.key_buf.as_slice().into(), l);
        self.leaf_slots[l as usize] = Some(LeafSlot { pattern, refs: 1 });
        l
    }

    /// Evict cold distinct values until the live state fits the budget,
    /// returning the victims' distinct-ids, coldest first. A no-op for
    /// unbounded budgets and while within budget; [`ColumnInterner::chunk`]
    /// runs it at every boundary, the only place the interner evicts.
    ///
    /// Eviction order is coldest-first (least recently interned), and
    /// every victim's slot recycle generation is bumped. Once the evicted
    /// text in the arena reaches the live text, the batch compacts the
    /// arena so the freed bytes are actually released.
    fn enforce_budget(&mut self) -> Vec<u32> {
        // Victims come off the cold end of the LRU list: O(1) each, and no
        // walk over the live set.
        let mut victims: Vec<u32> = Vec::new();
        while self.over_budget() && self.lru_head != NIL {
            let id = self.lru_head;
            self.evict_slot(id);
            victims.push(id);
        }
        if !victims.is_empty() {
            self.stats.eviction_batches += 1;
            self.stats.evicted_values += victims.len() as u64;
            // Amortized O(evicted bytes) per batch rather than O(live); the
            // arena stays within twice the live text.
            if self.arena.len() - self.live_bytes >= self.live_bytes {
                self.compact_arena();
            }
        }
        victims
    }

    /// Evict one live slot: unlink it from the LRU list, drop its dedup key
    /// (under its stored hash) and leaf reference (recycling the leaf-id
    /// when it was the last), and free the slot for reuse under a bumped
    /// generation.
    fn evict_slot(&mut self, id: u32) {
        self.lru_unlink(id);
        let slot = &mut self.entries[id as usize];
        let SlotState::Live(entry) =
            std::mem::replace(&mut slot.state, SlotState::Free(self.free_head))
        else {
            unreachable!("evicting a live slot")
        };
        slot.generation += 1;
        self.free_head = id;
        let (start, end) = entry.span;
        self.seen.remove(entry.hash, id);
        self.live -= 1;
        self.live_bytes -= end - start;
        let leaf = self.leaf_slots[entry.leaf_id as usize]
            .as_mut()
            .expect("evicted value's leaf must be live");
        leaf.refs -= 1;
        if leaf.refs == 0 {
            let pattern = self.leaf_slots[entry.leaf_id as usize]
                .take()
                .expect("leaf slot present")
                .pattern;
            leaf_key(&self.arena[start..end], &mut self.key_buf);
            self.leaf_bytes -= size_of_val(pattern.tokens()) + self.key_buf.len();
            self.leaves.remove(self.key_buf.as_slice());
            self.leaf_free.push(entry.leaf_id);
            self.leaf_generation += 1;
        }
    }

    /// Rebuild the arena from the live entries, updating their spans, so
    /// evicted text is released rather than stranded.
    fn compact_arena(&mut self) {
        let old = std::mem::take(&mut self.arena);
        let mut arena = String::with_capacity(self.live_bytes);
        for slot in &mut self.entries {
            if let SlotState::Live(entry) = &mut slot.state {
                let start = arena.len();
                arena.push_str(&old[entry.span.0..entry.span.1]);
                entry.span = (start, arena.len());
            }
        }
        self.arena = arena;
    }

    /// Intern one streamed slice of rows and return it as a [`ColumnChunk`].
    ///
    /// The chunk's distinct-ids come from this interner, so they are stable
    /// across every chunk of the stream: a value first seen three chunks ago
    /// resolves to the same id here, letting a streaming consumer reuse any
    /// per-id decision it already made.
    ///
    /// A bounded interner enforces its budget here, *before* interning the
    /// chunk: cold values from earlier chunks may be evicted (the chunk
    /// lists them, [`ColumnChunk::evicted`]), but every id this chunk
    /// resolves to stays live while the returned [`ColumnChunk`] exists
    /// (the chunk borrows the interner, so no eviction can run under it).
    pub fn chunk<S: AsRef<str>>(&mut self, rows: &[S]) -> ColumnChunk<'_> {
        assert!(
            rows.len() < u32::MAX as usize,
            "chunk exceeds u32 row indexing"
        );
        let evicted = self.enforce_budget();
        let before = self.live_distinct_count();
        let mut distinct_ids: Vec<u32> = Vec::with_capacity(rows.len());
        let mut chunk_local = std::mem::take(&mut self.chunk_local);
        let mut rows_local: Vec<u32> = Vec::with_capacity(rows.len());
        for row in rows {
            let id = self.intern(row.as_ref());
            if chunk_local.len() <= id as usize {
                chunk_local.resize(self.entries.len(), 0);
            }
            let l = chunk_local[id as usize];
            let local = if distinct_ids.get(l as usize) == Some(&id) {
                l
            } else {
                let l = distinct_ids.len() as u32;
                distinct_ids.push(id);
                chunk_local[id as usize] = l;
                l
            };
            rows_local.push(local);
        }
        self.chunk_local = chunk_local;
        // No eviction can run while the chunk is being interned, so the
        // live count only grew: the delta is exactly the new interns.
        let newly_interned = self.live_distinct_count() - before;
        self.publish_metrics();
        ColumnChunk {
            interner: self,
            distinct_ids,
            rows_local,
            newly_interned,
            evicted,
        }
    }

    /// Publish the `column.interner.*` series: tally deltas since the last
    /// publication plus current-state gauges. One `Option` branch when no
    /// sink is attached.
    fn publish_metrics(&mut self) {
        let Some(sink) = &self.telemetry else {
            return;
        };
        let delta = InternerStats {
            intern_hits: self.stats.intern_hits - self.published.intern_hits,
            intern_misses: self.stats.intern_misses - self.published.intern_misses,
            eviction_batches: self.stats.eviction_batches - self.published.eviction_batches,
            evicted_values: self.stats.evicted_values - self.published.evicted_values,
        };
        self.published = self.stats;
        sink.counter("column.interner.intern_hits", delta.intern_hits);
        sink.counter("column.interner.intern_misses", delta.intern_misses);
        sink.counter("column.interner.eviction_batches", delta.eviction_batches);
        sink.counter("column.interner.evicted_values", delta.evicted_values);
        sink.gauge("column.interner.arena_bytes", self.live_bytes as u64);
        sink.gauge("column.interner.memory_bytes", self.memory_used() as u64);
        sink.gauge("column.interner.live_distinct", self.live as u64);
        sink.gauge("column.interner.leaf_count", self.leaves.len() as u64);
    }
}

/// One streamed slice of a column, interned through a shared
/// [`ColumnInterner`].
///
/// A chunk stores no strings of its own: every row is a dense distinct-id
/// into the interner, and the ids are stable across chunks of the same
/// stream. The chunk keeps two maps:
///
/// * [`distinct_ids`](ColumnChunk::distinct_ids) — the (global) ids
///   appearing in this chunk, in chunk-first-occurrence order, and
/// * [`row_map`](ColumnChunk::row_map) — row → index into `distinct_ids`,
///   which is exactly the shape a columnar chunk report needs.
#[derive(Debug)]
pub struct ColumnChunk<'a> {
    interner: &'a ColumnInterner,
    /// Interner distinct-ids appearing in this chunk, first-occurrence order.
    distinct_ids: Vec<u32>,
    /// Row index -> index into `distinct_ids`.
    rows_local: Vec<u32>,
    /// How many of `distinct_ids` were first interned by this chunk.
    newly_interned: usize,
    /// Distinct-ids evicted at this chunk's boundary, coldest first.
    evicted: Vec<u32>,
}

impl<'a> ColumnChunk<'a> {
    /// The interner this chunk's ids live in.
    pub fn interner(&self) -> &'a ColumnInterner {
        self.interner
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.rows_local.len()
    }

    /// `true` when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows_local.is_empty()
    }

    /// Number of distinct values appearing in the chunk.
    pub fn distinct_count(&self) -> usize {
        self.distinct_ids.len()
    }

    /// Number of the chunk's distinct values that had never been interned
    /// before this chunk (the per-chunk growth of the stream's id space).
    pub fn newly_interned(&self) -> usize {
        self.newly_interned
    }

    /// The interner distinct-ids appearing in this chunk, in
    /// chunk-first-occurrence order.
    pub fn distinct_ids(&self) -> &[u32] {
        &self.distinct_ids
    }

    /// The distinct-ids the interner evicted at this chunk's boundary,
    /// before interning its rows, coldest first; empty when the budget did
    /// not bind. A consumer caching per distinct-id drops exactly these
    /// entries to track the live set. A victim's slot may already hold one
    /// of this chunk's own values, under a bumped
    /// [`distinct_generation`](ColumnInterner::distinct_generation).
    pub fn evicted(&self) -> &[u32] {
        &self.evicted
    }

    /// Row index -> index into [`ColumnChunk::distinct_ids`] (a *local*
    /// index, not the global id — ready to serve as a columnar report's
    /// row→outcome map).
    pub fn row_map(&self) -> &[u32] {
        &self.rows_local
    }

    /// Consume the chunk, handing over its [`ColumnChunk::row_map`] by
    /// move — a report can keep it without copying.
    pub fn into_row_map(self) -> Vec<u32> {
        self.rows_local
    }

    /// The text of row `index`.
    pub fn row(&self, index: usize) -> &'a str {
        self.interner
            .value(self.distinct_ids[self.rows_local[index] as usize])
    }

    /// All rows of the chunk, in order (interned text).
    pub fn rows(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.rows_local
            .iter()
            .map(move |&l| self.interner.value(self.distinct_ids[l as usize]))
    }
}

/// Column construction under an optional telemetry sink.
///
/// [`ColumnBuilder::build`] is [`Column::from_rows`], timed as one
/// `column.builder.build_ns` histogram sample when a sink is attached.
/// Without a sink no clock is ever read.
///
/// ```
/// use clx_column::{Column, ColumnBuilder};
///
/// let rows: Vec<String> = (0..1000).map(|i| format!("{:03}", i % 7)).collect();
/// let built = ColumnBuilder::new().build(rows.clone());
/// assert_eq!(built.to_vec(), Column::from_rows(rows).to_vec());
/// assert_eq!(built.distinct_count(), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ColumnBuilder {
    /// Optional metrics destination for the build timing.
    telemetry: Option<Arc<dyn MetricSink>>,
}

impl ColumnBuilder {
    /// A builder without a telemetry sink.
    pub fn new() -> Self {
        ColumnBuilder::default()
    }

    /// Attach a telemetry sink: each [`ColumnBuilder::build`] records its
    /// latency as a `column.builder.build_ns` histogram sample.
    pub fn with_telemetry(mut self, sink: Arc<dyn MetricSink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Build a [`Column`] from owned rows: [`Column::from_rows`].
    pub fn build(&self, rows: Vec<String>) -> Column {
        let _build_span = Span::start(self.telemetry.as_ref(), "column.builder.build_ns");
        Column::from_rows(rows)
    }
}

/// One distinct value: its interned span, its leaf-id and where its token
/// slices start.
#[derive(Debug, Clone, Copy)]
struct DistinctEntry {
    /// Half-open byte span of the value inside the column arena.
    span: (usize, usize),
    /// Index of the value's first token slice in the column's flat slice
    /// list; it has one slice per token of its leaf pattern.
    first_slice: usize,
    /// Dense id of this value's leaf pattern within the column's id space.
    leaf_id: u32,
}

/// A column of string data with interned rows, deduplicated values and
/// per-distinct-value cached token slices.
///
/// It is stored the way [`ColumnInterner`] stores a stream: per distinct
/// value an arena span, a leaf-id and a range of one flat list of
/// [`TokenSlice`]s (byte ranges into the arena text); each leaf pattern
/// once per leaf-id ([`Column::leaf_pattern`]); and the rows of each
/// distinct value as one range of a single flat row list. Construction
/// tokenizes only a leaf it has not seen yet; every later consumer
/// (profiler, synthesizer, session, engine) reads the cached leaf and
/// slices instead of re-deriving them. The dense
/// [`leaf_id`](DistinctValue::leaf_id) lets executors dispatch by array
/// index (see [`Column::interner_id`] for the id-space guard).
#[derive(Debug, Clone)]
pub struct Column {
    /// All distinct values, concatenated; [`DistinctEntry::span`] slices it.
    arena: String,
    /// Distinct values in first-occurrence order.
    values: Vec<DistinctEntry>,
    /// Every distinct value's token slices, value after value.
    slices: Vec<TokenSlice>,
    /// Leaf-id -> leaf pattern.
    leaves: Vec<Pattern>,
    /// Distinct value `k` is held by rows
    /// `row_list[row_starts[k]..row_starts[k + 1]]`, ascending.
    row_starts: Vec<u32>,
    /// Every distinct value's rows, value after value.
    row_list: Vec<u32>,
    /// Row index -> index into `values`. Shared (`Arc`) so that columnar
    /// reports can reference the map without copying it per report.
    rows: Arc<[u32]>,
    /// The id space the distinct-ids / leaf-ids of this column belong to
    /// (a fresh instance id per column).
    source: u64,
}

impl Default for Column {
    fn default() -> Self {
        Column::from_distinct::<&str>(&[], Vec::new())
    }
}

impl Column {
    /// Build a column from owned rows, deduplicating them and tokenizing
    /// each new leaf once, on the calling thread.
    pub fn from_rows(rows: Vec<String>) -> Self {
        Column::from_values(&rows)
    }

    /// Build a column from already-distinct values plus the row→distinct
    /// map, skipping the dedup.
    ///
    /// `values[k]` is the `k`-th distinct value, and `row_map[r]` names the
    /// distinct value held by row `r`. This is how `result_patterns` builds
    /// the *output* column of a transformation in O(distinct outputs). The
    /// column owns a fresh id space: leaf-ids are assigned in order of each
    /// leaf's first value, and only a value with a leaf not seen yet is
    /// tokenized; the others cost one scan, which yields both the leaf key
    /// and the token slices.
    ///
    /// # Panics
    ///
    /// Panics if a `row_map` entry is out of bounds (so also if `row_map`
    /// is non-empty while `values` is empty), or if `row_map` does not fit
    /// `u32` row indexing.
    pub fn from_distinct<S: AsRef<str>>(values: &[S], row_map: Vec<u32>) -> Self {
        assert!(
            row_map.len() < u32::MAX as usize,
            "column exceeds u32 row indexing"
        );
        let mut arena = String::with_capacity(values.iter().map(|v| v.as_ref().len()).sum());
        let mut entries: Vec<DistinctEntry> = Vec::with_capacity(values.len());
        let mut slices: Vec<TokenSlice> = Vec::new();
        let mut leaves: Vec<Pattern> = Vec::new();
        let mut leaf_ids: HashMap<Box<[u8]>, u32> = HashMap::new();
        let mut key = Vec::new();
        for value in values {
            let text = value.as_ref();
            let first_slice = slices.len();
            leaf_key_and_slices(text, &mut key, &mut slices);
            let leaf_id = match leaf_ids.get(key.as_slice()) {
                Some(&l) => l,
                None => {
                    leaves.push(tokenize(text));
                    let l = leaves.len() as u32 - 1;
                    leaf_ids.insert(key.as_slice().into(), l);
                    l
                }
            };
            let start = arena.len();
            arena.push_str(text);
            entries.push(DistinctEntry {
                span: (start, arena.len()),
                first_slice,
                leaf_id,
            });
        }

        // The row lists as one counting sort: count each value's rows,
        // turn the counts into starts, then place the rows in order.
        let mut row_starts = vec![0u32; entries.len() + 1];
        for &value_index in &row_map {
            assert!(
                (value_index as usize) < entries.len(),
                "row map entry {value_index} out of bounds ({} distinct values)",
                entries.len()
            );
            row_starts[value_index as usize + 1] += 1;
        }
        for k in 1..row_starts.len() {
            row_starts[k] += row_starts[k - 1];
        }
        let mut next = row_starts.clone();
        let mut row_list = vec![0u32; row_map.len()];
        for (row_index, &value_index) in row_map.iter().enumerate() {
            let at = &mut next[value_index as usize];
            row_list[*at as usize] = row_index as u32;
            *at += 1;
        }
        Column {
            arena,
            values: entries,
            slices,
            leaves,
            row_starts,
            row_list,
            rows: Arc::from(row_map),
            source: next_instance(),
        }
    }

    /// Build a column from borrowed values.
    pub fn from_values<S: AsRef<str>>(values: &[S]) -> Self {
        let mut seen: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let row_map: Vec<u32> = values
            .iter()
            .map(|value| {
                let value = value.as_ref();
                *seen.entry(value).or_insert_with(|| {
                    distinct.push(value);
                    distinct.len() as u32 - 1
                })
            })
            .collect();
        Column::from_distinct(&distinct, row_map)
    }

    /// Number of rows (including duplicates).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of distinct values.
    pub fn distinct_count(&self) -> usize {
        self.values.len()
    }

    /// Number of distinct leaf patterns across the column's distinct values
    /// (the size of the column's leaf-id space).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The leaf pattern behind leaf-id `leaf_id`, or `None` when the id is
    /// out of range: [`ColumnInterner::leaf_pattern`] for a finished
    /// column, whose leaf-ids are never recycled.
    pub fn leaf_pattern(&self, leaf_id: u32) -> Option<&Pattern> {
        self.leaves.get(leaf_id as usize)
    }

    /// The process-unique id of the id space this column's distinct-ids and
    /// leaf-ids belong to: fresh per column (a clone shares it), drawn from
    /// the counter behind [`ColumnInterner::instance`]. A consumer caching
    /// per leaf-id (e.g. an executor's dense dispatch cache) keys cache
    /// validity on this value.
    pub fn interner_id(&self) -> u64 {
        self.source
    }

    /// The raw string of row `index` (a slice of the arena).
    pub fn row(&self, index: usize) -> &str {
        self.distinct(self.rows[index] as usize).text()
    }

    /// All rows, in original order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            column: self,
            inner: self.rows.iter(),
        }
    }

    /// Index (into the distinct-value table) of the value held by `row`.
    pub fn distinct_index_of(&self, row: usize) -> usize {
        self.rows[row] as usize
    }

    /// The shared row→distinct map: entry `r` is the index (into the
    /// distinct-value table) of the value held by row `r`.
    ///
    /// The map is reference-counted; cloning the returned `Arc` is O(1),
    /// which is how columnar transform reports reference a column's row
    /// structure without copying it.
    pub fn row_map(&self) -> &Arc<[u32]> {
        &self.rows
    }

    /// The distinct value at `index` (first-occurrence order).
    ///
    /// # Panics
    /// If `index >= self.distinct_count()`.
    pub fn distinct(&self, index: usize) -> DistinctValue<'_> {
        assert!(index < self.values.len(), "distinct index out of bounds");
        DistinctValue {
            column: self,
            index,
        }
    }

    /// All distinct values, in first-occurrence order.
    pub fn distinct_values(&self) -> impl Iterator<Item = DistinctValue<'_>> + '_ {
        (0..self.values.len()).map(|i| self.distinct(i))
    }

    /// The rows as owned strings, in original order (for interop with APIs
    /// that still take `&[String]`).
    pub fn to_vec(&self) -> Vec<String> {
        self.iter().map(str::to_string).collect()
    }

    /// Total bytes of interned distinct-value text (the arena size): the
    /// memory the dedup actually pays for string storage.
    pub fn interned_bytes(&self) -> usize {
        self.arena.len()
    }
}

/// Iterator over a column's rows (original order, interned text).
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    column: &'a Column,
    inner: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let &v = self.inner.next()?;
        Some(self.column.distinct(v as usize).text())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl<'a> IntoIterator for &'a Column {
    type Item = &'a str;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<String>> for Column {
    fn from(rows: Vec<String>) -> Self {
        Column::from_rows(rows)
    }
}

impl FromIterator<String> for Column {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Column::from_rows(iter.into_iter().collect())
    }
}

/// A handle to one distinct value of a [`Column`]: its interned text, the
/// original rows holding it, its leaf pattern and its cached token slices.
#[derive(Debug, Clone, Copy)]
pub struct DistinctValue<'a> {
    column: &'a Column,
    index: usize,
}

impl<'a> DistinctValue<'a> {
    fn entry(&self) -> &'a DistinctEntry {
        &self.column.values[self.index]
    }

    /// Index of this value in the column's distinct-value table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The value's text (a slice of the column arena).
    pub fn text(&self) -> &'a str {
        let (start, end) = self.entry().span;
        &self.column.arena[start..end]
    }

    /// The value's range of the column's flat row list.
    fn row_range(&self) -> std::ops::Range<usize> {
        let starts = &self.column.row_starts;
        starts[self.index] as usize..starts[self.index + 1] as usize
    }

    /// Number of rows holding this value.
    pub fn multiplicity(&self) -> usize {
        self.row_range().len()
    }

    /// Original row indices holding this value, ascending.
    pub fn rows(&self) -> impl Iterator<Item = usize> + 'a {
        self.column.row_list[self.row_range()]
            .iter()
            .map(|&r| r as usize)
    }

    /// The cached leaf pattern (the value's `tokenize` signature), stored
    /// once per leaf-id.
    pub fn leaf(&self) -> &'a Pattern {
        &self.column.leaves[self.entry().leaf_id as usize]
    }

    /// The dense leaf-id of this value's leaf pattern within the column's
    /// id space (see [`Column::interner_id`]). Distinct values sharing a
    /// leaf share a leaf-id.
    pub fn leaf_id(&self) -> u32 {
        self.entry().leaf_id
    }

    /// The cached per-token slices of the value: byte ranges into
    /// [`DistinctValue::text`], one per token of [`DistinctValue::leaf`].
    pub fn token_slices(&self) -> &'a [TokenSlice] {
        let first = self.entry().first_slice;
        &self.column.slices[first..first + self.leaf().len()]
    }
}

/// Per-thread work tallies for the unit tests' work gates.
#[cfg(test)]
mod work {
    use std::cell::Cell;

    thread_local! {
        /// Value texts hashed for the `seen` dedup map.
        pub static HASHES: Cell<u64> = const { Cell::new(0) };
        /// LRU list operations: unlinks plus pushes at the hot end.
        pub static RELINKS: Cell<u64> = const { Cell::new(0) };
    }

    /// Run `f` and return the (hashes, relinks) it made on this thread.
    pub fn count(f: impl FnOnce()) -> (u64, u64) {
        let before = (HASHES.with(Cell::get), RELINKS.with(Cell::get));
        f();
        (
            HASHES.with(Cell::get) - before.0,
            RELINKS.with(Cell::get) - before.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::{leaf_slices, tokenize_detailed};

    fn sample() -> Column {
        Column::from_rows(vec![
            "(734) 645-8397".into(),
            "N/A".into(),
            "(734) 645-8397".into(),
            "734-422-8073".into(),
            "N/A".into(),
            "(734) 645-8397".into(),
        ])
    }

    #[test]
    fn dedup_preserves_rows_and_order() {
        let c = sample();
        assert_eq!(c.len(), 6);
        assert_eq!(c.distinct_count(), 3);
        // Distinct values in first-occurrence order.
        let texts: Vec<&str> = c.distinct_values().map(|v| v.text()).collect();
        assert_eq!(texts, vec!["(734) 645-8397", "N/A", "734-422-8073"]);
        // Row access reconstructs the original column.
        let rows: Vec<&str> = c.iter().collect();
        assert_eq!(
            rows,
            vec![
                "(734) 645-8397",
                "N/A",
                "(734) 645-8397",
                "734-422-8073",
                "N/A",
                "(734) 645-8397"
            ]
        );
        assert_eq!(c.to_vec(), rows);
    }

    #[test]
    fn multiplicity_and_row_indices() {
        let c = sample();
        let phone = c.distinct(0);
        assert_eq!(phone.multiplicity(), 3);
        assert_eq!(phone.rows().collect::<Vec<_>>(), vec![0, 2, 5]);
        let na = c.distinct(1);
        assert_eq!(na.multiplicity(), 2);
        assert_eq!(na.rows().collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(c.distinct_index_of(3), 2);
        // Every row is owned by exactly one distinct value.
        let total: usize = c.distinct_values().map(|v| v.multiplicity()).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    fn cached_tokenization_matches_tokenize() {
        let c = sample();
        for value in c.distinct_values() {
            assert_eq!(value.leaf(), &tokenize(value.text()), "{}", value.text());
            let rebuilt: String = value
                .token_slices()
                .iter()
                .map(|s| s.text(value.text()))
                .collect();
            assert_eq!(rebuilt, value.text());
            assert_eq!(value.token_slices(), tokenize_detailed(value.text()).slices);
            assert_eq!(c.leaf_pattern(value.leaf_id()), Some(value.leaf()));
        }
    }

    #[test]
    fn interning_stores_each_distinct_value_once() {
        let c = sample();
        assert_eq!(
            c.interned_bytes(),
            "(734) 645-8397".len() + "N/A".len() + "734-422-8073".len()
        );
    }

    #[test]
    fn empty_column_and_empty_strings() {
        let c = Column::from_rows(Vec::new());
        assert!(c.is_empty());
        assert_eq!(c.distinct_count(), 0);
        assert_eq!(c.distinct_values().count(), 0);
        assert_eq!(c.leaf_count(), 0);

        let c = Column::from_rows(vec!["".into(), "".into()]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.distinct_count(), 1);
        assert_eq!(c.row(1), "");
        assert!(c.distinct(0).leaf().is_empty());
    }

    #[test]
    fn from_values_and_collect() {
        let c = Column::from_values(&["a1", "a1", "b2"]);
        assert_eq!(c.distinct_count(), 2);
        let c2: Column = vec!["a1".to_string(), "b2".to_string()]
            .into_iter()
            .collect();
        assert_eq!(c2.len(), 2);
        let c3: Column = vec!["x".to_string()].into();
        assert_eq!(c3.row(0), "x");
    }

    #[test]
    fn row_map_is_shared_not_copied() {
        let c = sample();
        let map = c.row_map().clone();
        assert_eq!(map.len(), c.len());
        for (row, &v) in map.iter().enumerate() {
            assert_eq!(v as usize, c.distinct_index_of(row));
        }
        // Cloning the Arc does not clone the map storage.
        assert!(Arc::ptr_eq(&map, c.row_map()));
    }

    #[test]
    fn from_distinct_skips_tokenization_but_matches_from_rows() {
        let rows = vec![
            "a-1".to_string(),
            "b-2".to_string(),
            "a-1".to_string(),
            "a-1".to_string(),
        ];
        let baseline = Column::from_rows(rows.clone());
        let rebuilt = Column::from_distinct(&["a-1", "b-2"], vec![0, 1, 0, 0]);
        assert_eq!(rebuilt.len(), baseline.len());
        assert_eq!(rebuilt.distinct_count(), baseline.distinct_count());
        assert_eq!(rebuilt.leaf_count(), baseline.leaf_count());
        assert_eq!(rebuilt.to_vec(), rows);
        for (a, b) in rebuilt.distinct_values().zip(baseline.distinct_values()) {
            assert_eq!(a.text(), b.text());
            assert_eq!(a.leaf(), b.leaf());
            assert_eq!(a.leaf_id(), b.leaf_id());
            assert_eq!(a.token_slices(), b.token_slices());
            assert_eq!(a.rows().collect::<Vec<_>>(), b.rows().collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_distinct_rejects_bad_row_map() {
        Column::from_distinct(&["x"], vec![0, 1]);
    }

    #[test]
    fn unicode_values_intern_cleanly() {
        let c = Column::from_values(&["a€b", "a€b", "π"]);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.row(1), "a€b");
        assert_eq!(c.distinct(1).text(), "π");
        assert_eq!(c.distinct(0).leaf().to_string(), "<L>'€'<L>");
    }

    // ---- interner ---------------------------------------------------------

    #[test]
    fn interner_hands_out_stable_distinct_ids() {
        let mut interner = ColumnInterner::new();
        let a = interner.intern("734-422-8073");
        let b = interner.intern("N/A");
        assert_eq!((a, b), (0, 1));
        // Re-interning returns the existing id.
        assert_eq!(interner.intern("734-422-8073"), 0);
        assert_eq!(interner.intern("N/A"), 1);
        assert_eq!(interner.distinct_count(), 2);
        assert_eq!(interner.value(0), "734-422-8073");
        assert_eq!(interner.value(1), "N/A");
        assert_eq!(interner.leaf(0), &tokenize("734-422-8073"));
        assert_eq!(interner.leaf(1), &tokenize("N/A"));
        assert_eq!(
            interner.interned_bytes(),
            "734-422-8073".len() + "N/A".len()
        );
    }

    #[test]
    fn interner_leaf_ids_are_dense_and_shared() {
        let mut interner = ColumnInterner::new();
        // Same leaf <D>3'-'<D>4 for the first two, a new leaf for the third.
        let a = interner.intern("111-2222");
        let b = interner.intern("999-8888");
        let c = interner.intern("N/A");
        assert_eq!(interner.leaf_id(a), interner.leaf_id(b));
        assert_ne!(interner.leaf_id(a), interner.leaf_id(c));
        assert_eq!(interner.leaf_count(), 2);
        // Leaf ids are dense: 0 and 1.
        assert_eq!(interner.leaf_id(a), 0);
        assert_eq!(interner.leaf_id(c), 1);
    }

    #[test]
    fn interner_instances_are_unique() {
        let a = ColumnInterner::new();
        let b = ColumnInterner::new();
        assert_ne!(a.instance(), b.instance());
    }

    #[test]
    fn interner_stats_track_hits_misses_and_evictions() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
        assert_eq!(interner.stats(), InternerStats::default());
        drop(interner.chunk(&["a-1", "b-2", "c-3", "a-1"])); // 3 misses, 1 hit
        drop(interner.chunk(&["d-4"])); // boundary evicts down to 2, 1 miss
        let stats = interner.stats();
        assert_eq!(stats.intern_hits, 1);
        assert_eq!(stats.intern_misses, 4);
        assert_eq!(stats.eviction_batches, 1);
        assert_eq!(stats.evicted_values, interner.evictions());
        assert!(stats.evicted_values > 0);
    }

    #[test]
    fn interner_publishes_metrics_at_chunk_boundaries() {
        let sink = clx_telemetry::InMemorySink::shared();
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
        interner.attach_telemetry(sink.clone());
        drop(interner.chunk(&["a-1", "b-2", "a-1", "c-3"]));
        drop(interner.chunk(&["d-4"]));
        let snap = MetricSink::snapshot(&*sink);
        let stats = interner.stats();
        assert_eq!(
            snap.counter("column.interner.intern_hits"),
            Some(stats.intern_hits)
        );
        assert_eq!(
            snap.counter("column.interner.intern_misses"),
            Some(stats.intern_misses)
        );
        assert_eq!(
            snap.counter("column.interner.evicted_values"),
            Some(stats.evicted_values)
        );
        assert_eq!(
            snap.gauge("column.interner.arena_bytes"),
            Some(interner.interned_bytes() as u64)
        );
        assert_eq!(
            snap.gauge("column.interner.live_distinct"),
            Some(interner.live_distinct_count() as u64)
        );
    }

    #[test]
    fn builder_with_telemetry_records_phase_timings() {
        let sink = clx_telemetry::InMemorySink::shared();
        let rows: Vec<String> = (0..200).map(|i| format!("{:03}", i % 17)).collect();
        let timed = ColumnBuilder::new()
            .with_telemetry(sink.clone())
            .build(rows.clone());
        // Telemetry never changes the built column.
        assert_columns_identical(&Column::from_rows(rows), &timed);
        let snap = MetricSink::snapshot(&*sink);
        let recorded: Vec<&str> = snap.histograms.keys().map(String::as_str).collect();
        assert_eq!(recorded, ["column.builder.build_ns"]);
        assert_eq!(snap.histograms["column.builder.build_ns"].count, 1);
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
    }

    #[test]
    fn cloned_interner_owns_a_fresh_id_space() {
        let mut a = ColumnInterner::new();
        a.intern("x-1");
        let mut b = a.clone();
        // The clone keeps the existing mapping but not the instance id:
        // after divergence the same new id names different values in each,
        // so instance-keyed caches must be forced to reset.
        assert_ne!(a.instance(), b.instance());
        assert_eq!(b.value(0), "x-1");
        let in_a = a.intern("qqq");
        let in_b = b.intern("zzz");
        assert_eq!(in_a, in_b, "diverged clones alias ids...");
        assert_ne!(a.value(in_a), b.value(in_b), "...naming different values");
    }

    #[test]
    fn chunks_share_the_interner_id_space() {
        let mut interner = ColumnInterner::new();
        let first = interner.chunk(&["a-1", "b-2", "a-1", "a-1"]);
        assert_eq!(first.len(), 4);
        assert_eq!(first.distinct_count(), 2);
        assert_eq!(first.newly_interned(), 2);
        assert_eq!(first.distinct_ids(), &[0, 1]);
        assert_eq!(first.row_map(), &[0, 1, 0, 0]);
        assert_eq!(first.row(1), "b-2");
        assert_eq!(
            first.rows().collect::<Vec<_>>(),
            vec!["a-1", "b-2", "a-1", "a-1"]
        );
        drop(first);

        // The second chunk repeats "a-1" (same id 0) and adds "c-3" (id 2).
        let second = interner.chunk(&["c-3", "a-1", "c-3"]);
        assert_eq!(second.distinct_ids(), &[2, 0]);
        assert_eq!(second.row_map(), &[0, 1, 0]);
        assert_eq!(second.newly_interned(), 1);
        assert_eq!(second.interner().distinct_count(), 3);
    }

    #[test]
    fn empty_chunk_is_fine() {
        let mut interner = ColumnInterner::new();
        let chunk = interner.chunk::<&str>(&[]);
        assert!(chunk.is_empty());
        assert_eq!(chunk.distinct_count(), 0);
        assert_eq!(chunk.newly_interned(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_distinct_rejects_foreign_ids() {
        // A row map naming any id over an empty distinct table.
        Column::from_distinct::<&str>(&[], vec![0]);
    }

    #[test]
    fn span_table_finds_every_id_through_colliding_removals() {
        // Seven hashes for 600 ids, all homed in the last buckets of any
        // table size: one long probe run that wraps around the bucket
        // array, so removals have to shift entries back across the wrap.
        let hash = |id: u32| u32::MAX - 6 + id % 7;
        let mut table = SpanTable::default();
        for id in 0..600 {
            table.insert(hash(id), id);
        }
        for id in (0..600).filter(|id| id % 3 != 0) {
            table.remove(hash(id), id);
        }
        for id in 0..600 {
            let expected = (id % 3 == 0).then_some(id);
            assert_eq!(table.find(hash(id), |found| found == id), expected, "{id}");
        }
        assert_eq!(table.len, 200);
    }

    #[test]
    fn an_interner_slot_stays_48_bytes() {
        // The stored hash fills padding: the slot table does not grow.
        assert_eq!(size_of::<Slot>(), 48);
    }

    #[test]
    fn a_new_value_is_hashed_once_even_when_evicted() {
        let rows: Vec<String> = (0..20_000).map(|i| format!("{i:05}-x")).collect();
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(1_000));
        let (hashes, _) = work::count(|| {
            for chunk in rows.chunks(1_000) {
                drop(interner.chunk(chunk));
            }
        });
        assert_eq!(interner.evictions(), 18_000);
        assert_eq!(hashes, 20_000, "an eviction must not hash its value again");
    }

    #[test]
    fn an_unbounded_interner_keeps_no_lru_list() {
        let rows: Vec<String> = (0..5_000).map(|i| format!("{:03}", i % 100)).collect();
        let mut interner = ColumnInterner::new();
        let (hashes, relinks) = work::count(|| {
            for chunk in rows.chunks(1_000) {
                drop(interner.chunk(chunk));
            }
        });
        assert_eq!((hashes, relinks), (5_000, 0));
        assert_eq!(interner.stats().intern_hits, 4_900);
        // A bounded interner does keep it: each repeat is a touch.
        let mut bounded = ColumnInterner::with_budget(StreamBudget::max_distinct(1_000));
        let (_, relinks) = work::count(|| drop(bounded.chunk(&rows)));
        assert!(relinks > 0);
    }

    #[test]
    fn single_scan_build_matches_the_two_scan_build() {
        let values = [
            "",
            "734-422-8073",
            "555-123-4567",
            "(734) 645-8397",
            "a€b",
            "Ünïcödé-7",
            "N/A",
            "z€q",
            "McMillan",
        ];
        let long = "9".repeat(200);
        let values: Vec<&str> = values.into_iter().chain([long.as_str()]).collect();
        let column = Column::from_distinct(&values, (0..values.len() as u32).collect());
        // The two-scan build: a leaf key, then the slices, per value.
        let mut leaf_ids: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut key = Vec::new();
        for (value, built) in values.iter().zip(column.distinct_values()) {
            leaf_key(value, &mut key);
            let next = leaf_ids.len() as u32;
            let leaf_id = *leaf_ids.entry(key.clone()).or_insert(next);
            let mut slices = Vec::new();
            leaf_slices(value, &mut slices);
            assert_eq!(built.leaf_id(), leaf_id, "{value:?}");
            assert_eq!(built.token_slices(), slices, "{value:?}");
        }
        assert_eq!(column.leaf_count(), leaf_ids.len());
    }

    // ---- budgets & eviction ------------------------------------------------

    #[test]
    fn bounded_interner_evicts_coldest_at_chunk_boundaries() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
        let a = interner.chunk(&["a-1", "b-2", "c-3"]);
        assert_eq!(a.distinct_count(), 3);
        drop(a);
        // The chunk's own values are pinned: nothing is evicted until the
        // next chunk boundary.
        assert_eq!(interner.live_distinct_count(), 3);
        assert!(interner.over_budget());

        let b = interner.chunk(&["c-3"]);
        assert_eq!(b.row(0), "c-3");
        drop(b);
        // Only the coldest value was evicted, in one batch, and its slot
        // generation moved.
        assert_eq!(interner.evictions(), 1);
        assert_eq!(interner.stats().eviction_batches, 1);
        assert!(!interner.is_live(0));
        assert!(interner.is_live(1) && interner.is_live(2));
        assert_eq!(interner.distinct_generation(0), 1);
        assert_eq!(interner.distinct_generation(1), 0);

        // The evicted value re-interns into the recycled slot.
        let c = interner.chunk(&["a-1"]);
        assert_eq!(c.distinct_ids(), &[0]);
        drop(c);
        assert_eq!(interner.value(0), "a-1");
        assert_eq!(interner.distinct_generation(0), 1);
    }

    #[test]
    fn leaf_generation_moves_only_when_a_leaf_id_is_freed() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
        drop(interner.chunk(&["a-1", "b-2", "cc"]));
        assert_eq!(interner.leaf_count(), 2);
        // Evicting a-1 leaves its leaf live through b-2: a batch runs, the
        // leaf generation does not move.
        drop(interner.chunk(&["cc"]));
        let batches = |interner: &ColumnInterner| interner.stats().eviction_batches;
        assert_eq!((interner.evictions(), batches(&interner)), (1, 1));
        assert_eq!(interner.leaf_generation(), 0);
        drop(interner.chunk(&["dd", "ee"]));
        // Evicting b-2 frees the `<L>'-'<D>` leaf-id; evicting cc in the
        // same batch frees nothing (dd and ee keep `<L>2` live).
        drop(interner.chunk(&["ff"]));
        assert_eq!((interner.evictions(), batches(&interner)), (3, 2));
        assert_eq!(interner.leaf_generation(), 1);
        assert_eq!(interner.leaf_count(), 1);
        // A batch that frees no leaf-id keeps the leaf generation, and the
        // freed leaf-id is recycled for a new leaf without moving it.
        drop(interner.chunk(&["1.2"]));
        assert_eq!((interner.evictions(), batches(&interner)), (4, 3));
        assert_eq!(interner.leaf_generation(), 1);
        assert_eq!(interner.leaf_count(), 2);
        // An unbounded interner never moves it.
        let mut unbounded = ColumnInterner::new();
        drop(unbounded.chunk(&["a-1", "b", "7"]));
        assert_eq!(unbounded.leaf_generation(), 0);
    }

    #[test]
    fn eviction_order_is_least_recently_interned() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(1));
        drop(interner.chunk(&["a-1", "b-2"]));
        // Touch a-1 again: b-2 becomes the coldest.
        drop(interner.chunk(&["a-1"]));
        drop(interner.chunk(&["x-9"]));
        assert_eq!(interner.value(0), "a-1");
        assert_eq!(interner.value(1), "x-9");
        assert_eq!(interner.distinct_generation(1), 1);
    }

    #[test]
    fn chunk_evicted_lists_exactly_the_boundary_victims() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
        let first = interner.chunk(&["a-1", "b-2", "c-3"]);
        // Nothing to evict before the first chunk's own rows.
        assert!(first.evicted().is_empty());
        drop(first);
        // The boundary evicts the coldest value (id 0), and the chunk
        // that crossed it says so; a chunk inside the budget lists none.
        assert_eq!(interner.chunk(&["c-3"]).evicted(), &[0]);
        assert!(interner.chunk(&["c-3"]).evicted().is_empty());

        // Each boundary's victims, coldest first, however large the batch:
        // 5,000 pinned values drop to the budget of one in one batch.
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(1));
        let huge: Vec<String> = (0..5_000).map(|i| format!("r-{i}")).collect();
        drop(interner.chunk(&huge));
        let after = interner.chunk(&["after"]);
        assert_eq!(after.evicted(), (0..4_999).collect::<Vec<u32>>());
        drop(after);
        // Later boundaries evict one value each, in their own batches.
        assert_eq!(interner.chunk(&["next"]).evicted(), &[4_999]);
        // The last boundary evicts "after", and "last" reuses its slot.
        let last = interner.chunk(&["last"]);
        assert_eq!(last.evicted().len(), 1);
        assert_eq!(last.evicted(), last.distinct_ids());
        drop(last);
        assert_eq!(interner.stats().eviction_batches, 3);
    }

    #[test]
    #[should_panic(expected = "evicted")]
    fn evicted_ids_are_not_served() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(1));
        drop(interner.chunk(&["a-1", "b-2"]));
        drop(interner.chunk(&["b-2"]));
        assert!(!interner.is_live(0));
        interner.value(0);
    }

    #[test]
    fn leaf_ids_are_recycled_with_their_last_value() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(1));
        drop(interner.chunk(&["abc"])); // leaf <L>3 -> leaf-id 0
        drop(interner.chunk(&["12345"])); // leaf <D>5 -> leaf-id 1
                                          // The next boundary evicts "abc"; its leaf had no other holder, so
                                          // leaf-id 0 is freed and handed to the next new leaf.
        let c = interner.chunk(&["zz"]);
        let id = c.distinct_ids()[0];
        assert_eq!(c.interner().leaf_id(id), 0);
        drop(c);
        assert_eq!(interner.leaf_count(), 2);
        assert!(interner.stats().eviction_batches > 0);
    }

    #[test]
    fn arena_byte_budget_binds_and_compacts() {
        let budget = StreamBudget::unbounded().with_max_arena_bytes(10);
        let mut interner = ColumnInterner::with_budget(budget);
        drop(interner.chunk(&["aaaa-1111", "bbbb-2222"])); // 18 live bytes
        assert!(interner.over_budget());
        drop(interner.chunk(&["c"]));
        // The coldest value was evicted and the arena compacted down.
        assert!(interner.interned_bytes() <= 10);
        assert_eq!(interner.evictions(), 1);
    }

    #[test]
    fn memory_used_is_monotone_under_pushes_and_drops_after_eviction() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(8));
        let mut last = interner.memory_used();
        for k in 0..8 {
            interner.intern(&format!("value-{k:03}"));
            let now = interner.memory_used();
            assert!(now >= last, "memory_used must be monotone under pushes");
            last = now;
        }
        for k in 8..64 {
            interner.intern(&format!("value-{k:03}"));
        }
        let peak = interner.memory_used();
        assert_eq!(interner.enforce_budget().len(), 56);
        assert!(interner.memory_used() < peak);
        assert!(interner.live_distinct_count() <= 8);
        assert_eq!(interner.interned_bytes(), 8 * "value-000".len());
    }

    #[test]
    fn unbounded_budget_is_the_default_and_never_binds() {
        let interner = ColumnInterner::new();
        assert!(interner.budget().is_unbounded());
        assert!(!interner.over_budget());
        assert_eq!(StreamBudget::default(), StreamBudget::unbounded());
    }

    // ---- builder ----------------------------------------------------------

    fn assert_columns_identical(a: &Column, b: &Column) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.distinct_count(), b.distinct_count());
        assert_eq!(a.leaf_count(), b.leaf_count());
        assert_eq!(a.interned_bytes(), b.interned_bytes());
        assert_eq!(a.row_map().as_ref(), b.row_map().as_ref());
        for (va, vb) in a.distinct_values().zip(b.distinct_values()) {
            assert_eq!(va.text(), vb.text());
            assert_eq!(va.leaf(), vb.leaf());
            assert_eq!(va.leaf_id(), vb.leaf_id());
            assert_eq!(va.token_slices(), vb.token_slices());
            assert_eq!(va.rows().collect::<Vec<_>>(), vb.rows().collect::<Vec<_>>());
        }
    }

    #[test]
    fn builder_handles_edge_sizes() {
        let empty = ColumnBuilder::new().build(Vec::new());
        assert!(empty.is_empty());
        let small = ColumnBuilder::new().build(vec!["a".into(), "b".into(), "a".into()]);
        assert_eq!((small.len(), small.distinct_count()), (3, 2));
    }

    #[test]
    fn columns_own_distinct_id_spaces() {
        let a = Column::from_values(&["x"]);
        let b = Column::from_values(&["x"]);
        assert_ne!(a.interner_id(), b.interner_id());
        // A clone shares the id space of its original.
        assert_eq!(a.clone().interner_id(), a.interner_id());
    }
}
