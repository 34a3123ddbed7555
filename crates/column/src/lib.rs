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
//!   span, a leaf-id and LRU links; each leaf pattern is stored once.
//! * [`Column`] — a finished column: its distinct values with their full
//!   token streams plus a row→distinct map. Construction deduplicates the
//!   rows and tokenizes each *distinct* value exactly once;
//!   [`ColumnBuilder`] shards that work across threads for multi-core
//!   construction of very large columns (row-for-row identical output).
//! * [`ColumnChunk`] — one streamed slice of a column, interned through a
//!   shared [`ColumnInterner`] so its distinct-ids are **stable across
//!   chunks**: a value seen in chunk 0 keeps its id in chunk 9, which is
//!   what lets a streaming executor decide every distinct value once per
//!   stream instead of once per chunk.
//!
//! Everything downstream then works in O(distinct) instead of O(rows):
//! the profiler clusters distinct values and fans counts back out to row
//! indices, synthesis validates plans against cached token streams, and the
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
//! // The next chunk boundary evicts the coldest values down to the budget.
//! let b = interner.chunk(&["d-4"]);
//! drop(b);
//! assert!(interner.live_distinct_count() <= 3);
//! assert!(interner.evictions() > 0);
//! ```
//!
//! Eviction recycles distinct-id slots, so two invariants the unbounded
//! interner offers ("ids are append-only" and "a leaf-id always names the
//! same leaf") are replaced by explicit **versioning**: every eviction
//! batch bumps the interner's [`generation`](ColumnInterner::generation),
//! and every recycled slot bumps its own
//! [`distinct_generation`](ColumnInterner::distinct_generation). Consumers
//! caching per distinct-id or per leaf-id key their entries on those
//! counters and can never be served a stale decision under a reused id.
//! Budgets are enforced at **chunk boundaries** ([`ColumnInterner::chunk`]
//! runs [`ColumnInterner::enforce_budget`] before interning, and a live
//! [`ColumnChunk`] borrow keeps the interner immutable), so a chunk's own
//! rows are always resolvable while its report is built: peak memory is
//! bounded by the budget plus one chunk's distinct values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::mem::{size_of, size_of_val};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clx_pattern::{leaf_key, tokenize, tokenize_detailed, Pattern, TokenSlice, TokenizedString};
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

/// One interned distinct value: its arena span, the dense id of its leaf
/// pattern, and its place in the LRU list.
#[derive(Debug, Clone)]
struct InternedEntry {
    /// Half-open byte span of the value inside the arena.
    span: (usize, usize),
    /// Dense id of this value's leaf pattern (shared by every distinct
    /// value with the same leaf; the pattern lives in its [`LeafSlot`]).
    leaf_id: u32,
    /// The next-colder live distinct-id, or [`NIL`] at the LRU head.
    prev: u32,
    /// The next-hotter live distinct-id, or [`NIL`] at the LRU tail.
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
    /// Bumped once per eviction batch; consumers caching per *leaf-id* key
    /// their cache on `(instance, generation)`.
    generation: u64,
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
    /// The coldest live distinct-id (next to evict), or [`NIL`].
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
    /// Recent eviction batches as `(generation after the batch, victim
    /// distinct-ids)`, bounded by [`EVICTION_LOG_BATCHES`] /
    /// [`EVICTION_LOG_IDS`]. The dirty list behind
    /// [`ColumnInterner::evicted_since`].
    eviction_log: VecDeque<(u64, Vec<u32>)>,
    /// The newest generation *not* covered by `eviction_log`: the log holds
    /// every batch with generation in `(log_floor, generation]`.
    log_floor: u64,
}

/// Max eviction batches retained in the dirty-list log.
const EVICTION_LOG_BATCHES: usize = 8;
/// Max total victim ids retained across all logged batches. A single batch
/// larger than this is not logged at all (the floor advances instead):
/// applying it incrementally would cost as much as a full cache walk anyway,
/// so consumers fall back without the log paying the memory.
const EVICTION_LOG_IDS: usize = 4096;

/// Lifetime counters of a [`ColumnInterner`], readable via
/// [`ColumnInterner::stats`] with or without a telemetry sink attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Interns that resolved to an already-live distinct value.
    pub intern_hits: u64,
    /// Interns that stored a new distinct value (tokenizing it).
    pub intern_misses: u64,
    /// Eviction batches run (boundaries at which the generation bumped).
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
            generation: 0,
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
            eviction_log: VecDeque::new(),
            log_floor: 0,
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

    /// The eviction-batch counter. Bumped once per batch; a consumer
    /// caching per *leaf-id* keys its cache on
    /// `(instance, generation)`, because an eviction batch may recycle
    /// leaf-ids. Always `0` for unbounded interners.
    pub fn generation(&self) -> u64 {
        self.generation
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
            + self
                .eviction_log
                .iter()
                .map(|(_, ids)| ids.capacity() * size_of::<u32>())
                .sum::<usize>()
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
        self.hasher.hash_one(value) as u32
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
            if self.lru_tail != id {
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
        self.lru_push_hot(id);
        self.seen.insert(hash, id);
        id
    }

    /// Append live `id` (not in the list) at the hot end of the LRU list.
    fn lru_push_hot(&mut self, id: u32) {
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
    /// returning how many were evicted. A no-op for unbounded budgets and
    /// while within budget. Runs automatically at every [`ColumnInterner::chunk`]
    /// boundary; callers driving [`ColumnInterner::intern`] directly can
    /// invoke it at their own batch boundaries.
    ///
    /// Eviction order is coldest-first (least recently interned). Each
    /// batch bumps the evicted slots' recycle generations and the
    /// interner-wide [`generation`](ColumnInterner::generation). Once the
    /// evicted text in the arena reaches the live text, the batch compacts
    /// the arena so the freed bytes are actually released.
    pub fn enforce_budget(&mut self) -> usize {
        if !self.over_budget() {
            return 0;
        }
        // Victims come off the cold end of the LRU list: O(1) each, and no
        // walk over the live set.
        let mut victims: Vec<u32> = Vec::new();
        while self.over_budget() && self.lru_head != NIL {
            let id = self.lru_head;
            self.evict_slot(id);
            victims.push(id);
        }
        let evicted = victims.len();
        if evicted > 0 {
            self.generation += 1;
            self.stats.eviction_batches += 1;
            self.stats.evicted_values += evicted as u64;
            // Amortized O(evicted bytes) per batch rather than O(live); the
            // arena stays within twice the live text.
            if self.arena.len() - self.live_bytes >= self.live_bytes {
                self.compact_arena();
            }
            self.record_eviction_batch(victims);
        }
        evicted
    }

    /// Append one eviction batch to the bounded dirty-list log, retiring
    /// old batches (and advancing `log_floor` past them) to stay within
    /// [`EVICTION_LOG_BATCHES`] / [`EVICTION_LOG_IDS`]. Must run after the
    /// batch's generation bump so the entry carries the post-batch
    /// generation.
    fn record_eviction_batch(&mut self, victims: Vec<u32>) {
        if victims.len() > EVICTION_LOG_IDS {
            self.eviction_log.clear();
            self.log_floor = self.generation;
            return;
        }
        self.eviction_log.push_back((self.generation, victims));
        let mut retained: usize = self.eviction_log.iter().map(|(_, v)| v.len()).sum();
        while self.eviction_log.len() > EVICTION_LOG_BATCHES || retained > EVICTION_LOG_IDS {
            let (generation, ids) = self
                .eviction_log
                .pop_front()
                .expect("log is non-empty while over its caps");
            retained -= ids.len();
            self.log_floor = generation;
        }
    }

    /// The distinct-ids evicted since `generation` (a value previously read
    /// from [`ColumnInterner::generation`]), oldest batch first. Repeats are
    /// possible — a recycled slot re-evicted later appears once per batch —
    /// so per-id invalidation must be idempotent. Returns `None` when the
    /// bounded log no longer reaches back that far (or `generation` is from
    /// the future, i.e. another interner); the consumer must then fall back
    /// to a full walk of its per-id cache. The contract: when this returns
    /// `Some`, every id whose slot was evicted or recycled after
    /// `generation` is yielded, so ids *not* yielded are guaranteed
    /// unchanged.
    pub fn evicted_since(&self, generation: u64) -> Option<impl Iterator<Item = u32> + '_> {
        if generation < self.log_floor || generation > self.generation {
            return None;
        }
        Some(
            self.eviction_log
                .iter()
                .filter(move |(batch, _)| *batch > generation)
                .flat_map(|(_, ids)| ids.iter().copied()),
        )
    }

    /// Evict one live slot: unlink it from the LRU list, drop its dedup key
    /// and leaf reference (recycling the leaf-id when it was the last), and
    /// free the slot for reuse under a bumped generation.
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
        self.seen.remove(self.hash(&self.arena[start..end]), id);
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
    /// chunk: cold values from earlier chunks may be evicted, but every id
    /// this chunk resolves to stays live while the returned [`ColumnChunk`]
    /// exists (the chunk borrows the interner, so no eviction can run under
    /// it).
    pub fn chunk<S: AsRef<str>>(&mut self, rows: &[S]) -> ColumnChunk<'_> {
        assert!(
            rows.len() < u32::MAX as usize,
            "chunk exceeds u32 row indexing"
        );
        self.enforce_budget();
        let before = self.live_distinct_count();
        let mut distinct_ids: Vec<u32> = Vec::new();
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

    /// Row index -> index into [`ColumnChunk::distinct_ids`] (a *local*
    /// index, not the global id — ready to serve as a columnar report's
    /// row→outcome map).
    pub fn row_map(&self) -> &[u32] {
        &self.rows_local
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

/// Minimum rows per block before automatic blocking bothers spawning
/// threads.
const AUTO_MIN_BLOCK: usize = 8_192;

/// The automatic block count for parallel work over `rows` rows: one block
/// below `2 * 8_192` rows, otherwise one per available CPU, capped so every
/// block keeps at least 8,192 rows. [`ColumnBuilder`] shards by this rule,
/// and the engine's batch executor cuts its input by it.
pub fn auto_block_count(rows: usize) -> usize {
    if rows < 2 * AUTO_MIN_BLOCK {
        return 1;
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cpus.min(rows / AUTO_MIN_BLOCK).max(1)
}

/// Sharded, multi-threaded column construction.
///
/// `Column::from_rows` is sequential; for very large columns (10M+ rows)
/// the builder runs construction in parallel phases: contiguous row blocks
/// are deduplicated on worker threads, a cheap sequential merge assigns
/// global distinct-ids and the row map, and per-distinct tokenization (the
/// expensive part) is sharded across workers again — each distinct value
/// tokenized exactly once, no matter how many blocks contained it. The
/// merge processes blocks in row order and each block's distinct values in
/// block-first-occurrence order, so the output is **row-for-row identical**
/// to the sequential path: same distinct order (global first occurrence),
/// same row map, same leaf signatures, same leaf-id assignment.
///
/// ```
/// use clx_column::{Column, ColumnBuilder};
///
/// let rows: Vec<String> = (0..1000).map(|i| format!("{:03}", i % 7)).collect();
/// let sequential = Column::from_rows(rows.clone());
/// let sharded = ColumnBuilder::new().shards(4).build(rows);
/// assert_eq!(sequential.to_vec(), sharded.to_vec());
/// assert_eq!(sequential.distinct_count(), sharded.distinct_count());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ColumnBuilder {
    shards: usize,
    /// Optional metrics destination for per-phase build timings.
    telemetry: Option<Arc<dyn MetricSink>>,
}

/// A sequence of values deduplicated in first-occurrence order.
struct Dedup<'a> {
    /// The distinct values, in first-occurrence order.
    entries: Vec<&'a str>,
    /// Position in the sequence -> index into `entries`.
    rows_local: Vec<u32>,
}

fn dedup<'a>(values: impl Iterator<Item = &'a str>) -> Dedup<'a> {
    let mut seen: HashMap<&str, u32> = HashMap::new();
    let mut entries: Vec<&str> = Vec::new();
    let mut rows_local: Vec<u32> = Vec::with_capacity(values.size_hint().0);
    for value in values {
        let local = *seen.entry(value).or_insert_with(|| {
            entries.push(value);
            entries.len() as u32 - 1
        });
        rows_local.push(local);
    }
    Dedup {
        entries,
        rows_local,
    }
}

impl ColumnBuilder {
    /// A builder with automatic shard selection (one shard per available
    /// CPU for large columns, sequential for small ones).
    pub fn new() -> Self {
        ColumnBuilder {
            shards: 0,
            telemetry: None,
        }
    }

    /// Set the number of shards explicitly; `0` restores automatic
    /// selection. Explicit shard counts are honored even for small inputs
    /// (clamped to the row count so every block is non-empty).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Attach a telemetry sink: each [`ColumnBuilder::build`] records the
    /// whole-build latency plus (on the sharded path) per-phase
    /// `column.builder.*_ns` histograms — dedup, merge, tokenize,
    /// assemble. Without a sink no clock is ever read.
    pub fn with_telemetry(mut self, sink: Arc<dyn MetricSink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    fn resolved_shards(&self, rows: usize) -> usize {
        if rows == 0 {
            return 1;
        }
        if self.shards > 0 {
            return self.shards.min(rows);
        }
        auto_block_count(rows)
    }

    /// Build a [`Column`] from owned rows, sharding the interning and
    /// per-distinct tokenization across worker threads.
    pub fn build(&self, rows: Vec<String>) -> Column {
        assert!(
            rows.len() < u32::MAX as usize,
            "column exceeds u32 row indexing"
        );
        let shards = self.resolved_shards(rows.len());
        let _build_span = Span::start(self.telemetry.as_ref(), "column.builder.build_ns");
        if shards <= 1 {
            return Column::from_rows(rows);
        }

        // Phase 1 (parallel): per-block dedup. No tokenization yet — a
        // value spanning several blocks must only be tokenized once, and
        // which values those are is not known until the merge.
        let dedup_span = Span::start(self.telemetry.as_ref(), "column.builder.dedup_ns");
        let block_size = rows.len().div_ceil(shards);
        let blocks: Vec<&[String]> = rows.chunks(block_size).collect();
        let deduped: Vec<Dedup<'_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .iter()
                .map(|&block| scope.spawn(move || dedup(block.iter().map(String::as_str))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("column shard worker panicked"))
                .collect()
        });
        drop(dedup_span);
        let merge_span = Span::start(self.telemetry.as_ref(), "column.builder.merge_ns");

        // Phase 2 (sequential, cheap — O(block distinct) hashing plus
        // O(rows) integer translation): merge blocks in row order. Each
        // block's entries are in block-first-occurrence order, so walking
        // them block by block reproduces the global first-occurrence order
        // exactly — and with it the sequential path's id assignment.
        let merged = dedup(deduped.iter().flat_map(|b| b.entries.iter().copied()));
        let mut row_map: Vec<u32> = Vec::with_capacity(rows.len());
        let mut offset = 0;
        for block in &deduped {
            let global = &merged.rows_local[offset..offset + block.entries.len()];
            row_map.extend(block.rows_local.iter().map(|&l| global[l as usize]));
            offset += block.entries.len();
        }
        let distinct = merged.entries;
        drop(merge_span);

        // Phase 3 (parallel): per-distinct tokenization — each worker takes
        // a slice of the global distinct list, so every distinct value is
        // tokenized exactly once no matter how many blocks contained it.
        let tokenize_span = Span::start(self.telemetry.as_ref(), "column.builder.tokenize_ns");
        let tokenize_block = distinct.len().div_ceil(shards).max(1);
        let tokenized: Vec<TokenizedString> = std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .chunks(tokenize_block)
                .map(|texts| {
                    scope.spawn(move || {
                        texts
                            .iter()
                            .map(|t| tokenize_detailed(t))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tokenize shard worker panicked"))
                .collect()
        });

        drop(tokenize_span);

        // Phase 4 (sequential, O(distinct)): assemble the column in global
        // first-occurrence order from the prepared tokenizations.
        let _assemble_span = Span::start(self.telemetry.as_ref(), "column.builder.assemble_ns");
        Column::from_distinct(tokenized, row_map)
    }
}

/// One distinct value's interned span, row list and cached analysis.
#[derive(Debug, Clone)]
struct DistinctEntry {
    /// Half-open byte span of the value inside the column arena.
    span: (usize, usize),
    /// Original row indices holding this value, in ascending order.
    rows: Vec<u32>,
    /// The cached token stream: leaf pattern plus per-token slices,
    /// computed exactly once per distinct value.
    tokenized: TokenizedString,
    /// Dense id of this value's leaf pattern within the column's id space.
    leaf_id: u32,
}

/// A column of string data with interned rows, deduplicated values and
/// per-distinct-value cached token streams.
///
/// Construction tokenizes each *distinct* value exactly once; every later
/// consumer (profiler, synthesizer, session, engine) reads the cached
/// [`TokenizedString`] instead of re-deriving it. Each distinct value also
/// carries the dense [`leaf_id`](DistinctValue::leaf_id) of its leaf
/// pattern, so executors can dispatch by array index
/// (see [`Column::interner_id`] for the id-space guard).
#[derive(Debug, Clone)]
pub struct Column {
    /// All distinct values, concatenated; [`DistinctEntry::span`] slices it.
    arena: String,
    /// Distinct values in first-occurrence order.
    values: Vec<DistinctEntry>,
    /// Row index -> index into `values`. Shared (`Arc`) so that columnar
    /// reports can reference the map without copying it per report.
    rows: Arc<[u32]>,
    /// The id space the distinct-ids / leaf-ids of this column belong to
    /// (a fresh instance id per column).
    source: u64,
    /// Number of distinct leaf patterns (the size of the leaf-id space).
    leaf_count: usize,
}

impl Default for Column {
    fn default() -> Self {
        Column {
            arena: String::new(),
            values: Vec::new(),
            rows: Arc::from(Vec::new()),
            source: next_instance(),
            leaf_count: 0,
        }
    }
}

impl Column {
    /// Build a column from owned rows, deduplicating them and tokenizing
    /// each distinct value once (sequentially; see [`ColumnBuilder`] for
    /// the sharded multi-core equivalent).
    pub fn from_rows(rows: Vec<String>) -> Self {
        assert!(
            rows.len() < u32::MAX as usize,
            "column exceeds u32 row indexing"
        );
        let deduped = dedup(rows.iter().map(String::as_str));
        let values = deduped
            .entries
            .iter()
            .map(|v| tokenize_detailed(v))
            .collect();
        Column::from_distinct(values, deduped.rows_local)
    }

    /// Build a column from already-distinct, already-tokenized values plus
    /// the row→distinct map, skipping tokenization entirely.
    ///
    /// `values[k]` is the `k`-th distinct value (with its precomputed
    /// [`TokenizedString`]), and `row_map[r]` names the distinct value held
    /// by row `r`. This is how `result_patterns` builds the *output* column
    /// of a transformation in O(distinct): transformed outputs derive their
    /// token streams from the labelled target's split, so nothing needs to
    /// be re-tokenized. The column owns a fresh id space (leaf-ids are
    /// assigned by deduplicating the given values' leaf patterns).
    ///
    /// # Panics
    ///
    /// Panics if a `row_map` entry is out of bounds, or if `row_map` is
    /// non-empty while `values` is empty.
    pub fn from_distinct(values: Vec<TokenizedString>, row_map: Vec<u32>) -> Self {
        let mut arena = String::new();
        let mut leaves: HashMap<Pattern, u32> = HashMap::new();
        let mut entries: Vec<DistinctEntry> = Vec::with_capacity(values.len());
        for tokenized in values {
            let leaf_id = match leaves.get(&tokenized.pattern) {
                Some(&l) => l,
                None => {
                    let l = leaves.len() as u32;
                    leaves.insert(tokenized.pattern.clone(), l);
                    l
                }
            };
            let start = arena.len();
            arena.push_str(&tokenized.raw);
            entries.push(DistinctEntry {
                span: (start, arena.len()),
                rows: Vec::new(),
                tokenized,
                leaf_id,
            });
        }
        for (row_index, &value_index) in row_map.iter().enumerate() {
            assert!(
                (value_index as usize) < entries.len(),
                "row map entry {value_index} out of bounds ({} distinct values)",
                entries.len()
            );
            entries[value_index as usize].rows.push(row_index as u32);
        }
        Column {
            arena,
            values: entries,
            rows: Arc::from(row_map),
            source: next_instance(),
            leaf_count: leaves.len(),
        }
    }

    /// Build a column from borrowed values.
    pub fn from_values<S: AsRef<str>>(values: &[S]) -> Self {
        Self::from_rows(values.iter().map(|v| v.as_ref().to_string()).collect())
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
        self.leaf_count
    }

    /// The process-unique id of the id space this column's distinct-ids and
    /// leaf-ids belong to: fresh per column (a clone shares it), drawn from
    /// the counter behind [`ColumnInterner::instance`]. A consumer caching
    /// per leaf-id (e.g. an executor's dense dispatch cache) keys cache
    /// validity on this value.
    pub fn interner_id(&self) -> u64 {
        self.source
    }

    /// The eviction [`generation`](ColumnInterner::generation) of this
    /// column's id space: always `0`, because a column never evicts.
    /// Paired with [`Column::interner_id`] by consumers whose leaf-id
    /// caches also serve *streaming* interners, where the generation moves
    /// on eviction.
    pub fn interner_generation(&self) -> u64 {
        0
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
/// original rows holding it, and its cached token stream.
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

    /// Number of rows holding this value.
    pub fn multiplicity(&self) -> usize {
        self.entry().rows.len()
    }

    /// Original row indices holding this value, ascending.
    pub fn rows(&self) -> impl Iterator<Item = usize> + 'a {
        self.entry().rows.iter().map(|&r| r as usize)
    }

    /// The cached leaf pattern (the value's `tokenize` signature).
    pub fn leaf(&self) -> &'a Pattern {
        &self.entry().tokenized.pattern
    }

    /// The dense leaf-id of this value's leaf pattern within the column's
    /// id space (see [`Column::interner_id`]). Distinct values sharing a
    /// leaf share a leaf-id.
    pub fn leaf_id(&self) -> u32 {
        self.entry().leaf_id
    }

    /// The cached per-token slices of the value.
    pub fn token_slices(&self) -> &'a [TokenSlice] {
        &self.entry().tokenized.slices
    }

    /// The full cached tokenization (raw text + leaf pattern + slices).
    pub fn tokenized(&self) -> &'a TokenizedString {
        &self.entry().tokenized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;

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
                .map(|s| s.text.as_str())
                .collect();
            assert_eq!(rebuilt, value.text());
            assert_eq!(value.tokenized().raw, value.text());
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
        let values = vec![tokenize_detailed("a-1"), tokenize_detailed("b-2")];
        let rebuilt = Column::from_distinct(values, vec![0, 1, 0, 0]);
        assert_eq!(rebuilt.len(), baseline.len());
        assert_eq!(rebuilt.distinct_count(), baseline.distinct_count());
        assert_eq!(rebuilt.leaf_count(), baseline.leaf_count());
        assert_eq!(rebuilt.to_vec(), rows);
        for (a, b) in rebuilt.distinct_values().zip(baseline.distinct_values()) {
            assert_eq!(a.text(), b.text());
            assert_eq!(a.leaf(), b.leaf());
            assert_eq!(a.leaf_id(), b.leaf_id());
            assert_eq!(a.rows().collect::<Vec<_>>(), b.rows().collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_distinct_rejects_bad_row_map() {
        Column::from_distinct(vec![tokenize_detailed("x")], vec![0, 1]);
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
        let plain = ColumnBuilder::new().shards(3).build(rows.clone());
        let timed = ColumnBuilder::new()
            .shards(3)
            .with_telemetry(sink.clone())
            .build(rows);
        // Telemetry never changes the built column.
        assert_eq!(plain.to_vec(), timed.to_vec());
        assert_eq!(plain.distinct_count(), timed.distinct_count());
        let snap = MetricSink::snapshot(&*sink);
        for phase in [
            "column.builder.build_ns",
            "column.builder.dedup_ns",
            "column.builder.merge_ns",
            "column.builder.tokenize_ns",
            "column.builder.assemble_ns",
        ] {
            assert_eq!(snap.histogram(phase).map(|h| h.count), Some(1), "{phase}");
        }
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
        Column::from_distinct(Vec::new(), vec![0]);
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
        // Only the coldest value was evicted; its slot generation and the
        // interner generation both moved.
        assert_eq!(interner.evictions(), 1);
        assert_eq!(interner.generation(), 1);
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
    fn evicted_since_reports_exactly_the_batch_victims() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(2));
        drop(interner.chunk(&["a-1", "b-2", "c-3"]));
        let synced = interner.generation();
        // Nothing evicted yet: the log answers for the synced generation
        // with an empty dirty list.
        assert_eq!(interner.evicted_since(synced).unwrap().count(), 0);

        // The boundary evicts the coldest value (id 0).
        drop(interner.chunk(&["c-3"]));
        let dirty: Vec<u32> = interner.evicted_since(synced).unwrap().collect();
        assert_eq!(dirty, vec![0]);
        // A consumer already at the current generation sees nothing dirty.
        assert_eq!(
            interner
                .evicted_since(interner.generation())
                .unwrap()
                .count(),
            0
        );
        // A generation this interner has not reached is a foreign sync
        // point: decline rather than under-report.
        assert!(interner.evicted_since(interner.generation() + 1).is_none());
    }

    #[test]
    fn evicted_since_accumulates_across_batches_and_forgets_old_ones() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(1));
        drop(interner.chunk(&["v-0"]));
        // Each boundary past the second evicts the coldest value: one
        // batch per chunk, ping-ponging between the two slots.
        for i in 1..=3u32 {
            drop(interner.chunk(&[format!("v-{i}")]));
        }
        let dirty: Vec<u32> = interner.evicted_since(0).unwrap().collect();
        assert_eq!(dirty, vec![0, 1]);

        // Push past the batch cap: the floor advances and a stale sync
        // point falls off the log.
        for i in 4..=20u32 {
            drop(interner.chunk(&[format!("v-{i}")]));
        }
        assert!(interner.evicted_since(0).is_none());
        let recent = interner.generation() - 1;
        assert_eq!(interner.evicted_since(recent).unwrap().count(), 1);
    }

    #[test]
    fn oversized_eviction_batches_clear_the_log_instead_of_storing_it() {
        let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(1));
        let huge: Vec<String> = (0..(EVICTION_LOG_IDS + 2))
            .map(|i| format!("r-{i}"))
            .collect();
        drop(interner.chunk(&huge));
        drop(interner.chunk(&["after"]));
        // The batch that evicted the huge chunk was too large to log:
        // pre-batch sync points must fall back to a full walk...
        assert!(interner.evicted_since(0).is_none());
        // ...but the log resumes cleanly from the post-batch generation.
        assert_eq!(
            interner
                .evicted_since(interner.generation())
                .unwrap()
                .count(),
            0
        );
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
        assert!(interner.generation() > 0);
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
        assert!(interner.enforce_budget() > 0);
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
            assert_eq!(va.tokenized().slices.len(), vb.tokenized().slices.len());
            assert_eq!(va.rows().collect::<Vec<_>>(), vb.rows().collect::<Vec<_>>());
        }
    }

    #[test]
    fn sharded_build_is_identical_to_sequential() {
        // Values deliberately straddle shard boundaries.
        let rows: Vec<String> = (0..4_000)
            .map(|i| match i % 5 {
                0 | 1 => format!("{:03}-{:03}-{:04}", i % 13, i % 7, i % 23),
                2 => format!("({:03}) {:03}-{:04}", i % 13, i % 7, i % 23),
                3 => "N/A".to_string(),
                _ => format!("{:02}", i % 9),
            })
            .collect();
        let sequential = Column::from_rows(rows.clone());
        for shards in [1, 2, 3, 4, 7, 16] {
            let sharded = ColumnBuilder::new().shards(shards).build(rows.clone());
            assert_columns_identical(&sequential, &sharded);
        }
    }

    #[test]
    fn builder_handles_edge_sizes() {
        // Empty column.
        let empty = ColumnBuilder::new().shards(4).build(Vec::new());
        assert!(empty.is_empty());
        // Fewer rows than shards.
        let tiny = ColumnBuilder::new()
            .shards(8)
            .build(vec!["a".into(), "a".into()]);
        assert_eq!(tiny.len(), 2);
        assert_eq!(tiny.distinct_count(), 1);
        // Auto selection on a small column stays sequential and correct.
        let auto = ColumnBuilder::new().build(vec!["a".into(), "b".into()]);
        assert_eq!(auto.distinct_count(), 2);
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
