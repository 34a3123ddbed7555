//! Streaming execution for columns larger than memory.
//!
//! [`ColumnStream`] interns each pushed chunk of raw strings through a
//! persistent [`ColumnInterner`](clx_column::ColumnInterner), so streaming
//! inherits the whole O(distinct) column path: a distinct value is
//! interned once per *stream* (tokenized only when its leaf pattern is new
//! to the interner), decided once per stream (the stream caches the
//! outcome per distinct-id), and dispatched by integer leaf-id (a dense
//! array index — no `Pattern` hashing).
//!
//! Each pushed chunk is transformed and *returned* to the caller — to be
//! written to a sink immediately — while the stream retains only mergeable
//! counters plus the O(distinct) interner and per-id decision cache, both
//! capped by an optional [`StreamBudget`].

use std::mem::size_of;
use std::sync::Arc;
use std::time::Instant;

use clx_column::{ColumnInterner, StreamBudget};
use clx_pattern::Pattern;
use clx_telemetry::MetricSink;

use crate::compiled::CompiledProgram;
use crate::delta::ProgramDelta;
use crate::dispatch::DispatchCache;
use crate::report::{ChunkStats, RowOutcome, TransformReport};

/// Estimated heap bytes retained by one stored outcome: its shared output
/// text plus the `Arc`'s two reference counts. Replays share that
/// allocation, so it is counted once, here in the decision cache.
fn outcome_footprint(outcome: &RowOutcome) -> usize {
    outcome.value().len() + 2 * size_of::<usize>()
}

/// The per-stream cache of distinct-value decisions, indexed by the
/// interner's dense distinct-ids.
///
/// A value repeated across chunks is transformed exactly once per stream;
/// every later chunk containing it replays the stored outcome. Validity is
/// versioned at three levels: the cache is bound to the interner *instance*
/// whose ids index it (a chunk from a different interner resets it); every
/// stored decision carries the distinct-id slot's recycle
/// [`generation`](clx_column::ColumnInterner::distinct_generation), so a
/// bounded interner that evicted and recycled a slot can never replay the
/// old value's outcome for the new value; and every stored decision carries
/// the serial of the dispatch plan that decided it, replaying only while
/// that plan is still its leaf's (see "Plan serials" in the `dispatch`
/// module docs). A program swap therefore invalidates decisions by dropping
/// plans, never by visiting values. The decisions of the values each
/// chunk's boundary evicted are dropped as that chunk is synced, so the
/// cache footprint tracks the interner's live set.
#[derive(Debug, Default)]
pub(crate) struct DistinctDecisions {
    source: Option<u64>,
    /// The dispatch cache's serial epoch the stored serials belong to.
    serial_epoch: u64,
    /// Slot -> (slot generation at decision time, serial of the deciding
    /// plan, outcome). The generation keeps only its low 32 bits so an
    /// entry stays 32 bytes: sync drops an evicted slot's decision before
    /// any replay, so the generation check is a second guard.
    decided: Vec<Option<(u32, u32, RowOutcome)>>,
    /// Number of `Some` entries in `decided`.
    count: usize,
    /// Estimated heap bytes of the stored outcomes' shared texts.
    bytes: usize,
    /// Lifetime replays of a stored decision (cumulative — survives
    /// interner switches and prunes).
    hits: u64,
    /// Lifetime decisions that had to run the program.
    misses: u64,
    /// Lifetime misses that found a stored decision whose plan had been
    /// rebuilt since (a program swap or a recycled leaf-id dropped it).
    redecided: u64,
}

impl DistinctDecisions {
    /// Decisions currently held (live distinct values decided this stream,
    /// including those whose plan has since been dropped).
    fn len(&self) -> usize {
        self.count
    }

    /// Estimated heap bytes retained by the decision cache.
    fn memory_used(&self) -> usize {
        self.decided.capacity() * size_of::<Option<(u32, u32, RowOutcome)>>() + self.bytes
    }

    fn clear(&mut self) {
        self.decided.clear();
        self.count = 0;
        self.bytes = 0;
    }

    /// Drop the decision stored for `id` if its slot was evicted or
    /// recycled since it was recorded, so an evicted value releases its
    /// outcome storage too.
    fn invalidate_if_stale(&mut self, id: u32, interner: &ColumnInterner) {
        let Some(slot) = self.decided.get_mut(id as usize) else {
            return;
        };
        let stale = slot.as_ref().is_some_and(|(gen, _, _)| {
            !interner.is_live(id) || *gen != interner.distinct_generation(id) as u32
        });
        if stale {
            let (_, _, outcome) = slot.take().expect("checked above");
            self.count -= 1;
            self.bytes -= outcome_footprint(&outcome);
        }
    }

    /// Bind the cache to `interner`'s id space and `cache`'s serial epoch
    /// ahead of deciding one of the interner's chunks: a chunk from a
    /// different interner, or a serial epoch the stored serials do not
    /// belong to, resets the cache; otherwise the outcomes of `evicted`,
    /// the chunk's [`evicted`](clx_column::ColumnChunk::evicted) ids, are
    /// released.
    pub(crate) fn sync(
        &mut self,
        interner: &ColumnInterner,
        evicted: &[u32],
        cache: &DispatchCache,
    ) {
        if self.source != Some(interner.instance()) || self.serial_epoch != cache.serial_epoch() {
            self.clear();
            self.source = Some(interner.instance());
            self.serial_epoch = cache.serial_epoch();
        } else {
            for &id in evicted {
                self.invalidate_if_stale(id, interner);
            }
        }
        if self.decided.len() < interner.distinct_count() {
            self.decided.resize(interner.distinct_count(), None);
        }
    }

    /// The stored outcome of `id` (whose leaf-id is `leaf_id`), when it
    /// was decided under the slot's current recycle generation by the
    /// leaf's current plan in `cache` (counted as a hit). The copy shares
    /// the stored output text: a reference-count bump, no string copy.
    /// `cache` must be bound to the chunk's program and id space.
    pub(crate) fn replay(
        &mut self,
        id: u32,
        leaf_id: u32,
        interner: &ColumnInterner,
        cache: &DispatchCache,
    ) -> Option<RowOutcome> {
        let (gen, serial, outcome) = self.decided[id as usize].as_ref()?;
        if *gen != interner.distinct_generation(id) as u32 {
            return None;
        }
        if cache.serial(leaf_id) != Some(*serial) {
            self.redecided += 1;
            return None;
        }
        self.hits += 1;
        Some(outcome.clone())
    }

    /// Store a fresh decision for `id` (counted as a miss), made by the
    /// plan `cache` now holds for `leaf_id`, sharing the outcome's output
    /// text with the chunk report that returns it.
    pub(crate) fn record(
        &mut self,
        id: u32,
        leaf_id: u32,
        interner: &ColumnInterner,
        cache: &DispatchCache,
        outcome: &RowOutcome,
    ) {
        self.misses += 1;
        if self.serial_epoch != cache.serial_epoch() {
            // The serial counter restarted while this chunk was decided:
            // no stored serial can be trusted any more, so this resets.
            self.sync(interner, &[], cache);
        }
        let Some(serial) = cache.serial(leaf_id) else {
            return;
        };
        self.bytes += outcome_footprint(outcome);
        let decision = (
            interner.distinct_generation(id) as u32,
            serial,
            outcome.clone(),
        );
        match self.decided[id as usize].replace(decision) {
            // Overwrote a decision whose plan was dropped since.
            Some((_, _, stale)) => self.bytes -= outcome_footprint(&stale),
            None => self.count += 1,
        }
    }
}

/// An owning columnar ingest stream: a persistent
/// [`ColumnInterner`](clx_column::ColumnInterner) plus the per-stream
/// execution state, bundled so callers can push raw string chunks and get
/// the full O(distinct) path without managing the interner themselves.
///
/// ```
/// use std::sync::Arc;
/// use clx_engine::{ColumnStream, CompiledProgram};
/// use clx_pattern::tokenize;
/// use clx_unifi::{Branch, Expr, Program, StringExpr};
///
/// let program = Program::new(vec![Branch::new(
///     tokenize("734.236.3466"),
///     Expr::concat(vec![
///         StringExpr::extract(1),
///         StringExpr::const_str("-"),
///         StringExpr::extract(3),
///         StringExpr::const_str("-"),
///         StringExpr::extract(5),
///     ]),
/// )]);
/// let compiled = CompiledProgram::compile(&program, &tokenize("734-422-8073")).unwrap();
///
/// let mut stream = ColumnStream::from_program(compiled);
/// let report = stream.push_rows(&["111.222.3333", "111.222.3333", "N/A"]);
/// assert_eq!(report.len(), 3);
/// assert_eq!(report.outcomes().len(), 2); // columnar: one per distinct
/// let summary = stream.finish();
/// assert_eq!(summary.rows(), 3);
/// ```
///
/// # Bounded streams for untrusted input
///
/// The interner and decision cache are O(distinct) — unbounded on
/// adversarial high-cardinality streams. [`ColumnStream::with_budget`]
/// caps them with a [`StreamBudget`]: each pushed chunk first evicts the
/// coldest interned values down to the budget. Evicted values are
/// re-interned (and re-decided) if they reappear, so outcomes are
/// row-for-row identical to the unbounded stream, at bounded memory.
///
/// [`ColumnStream::memory_used`] and [`ColumnStream::evictions`] expose the
/// bounded-stream state; the final [`StreamSummary`] records the eviction
/// count and peak memory.
pub struct ColumnStream {
    program: Arc<CompiledProgram>,
    interner: ColumnInterner,
    cache: DispatchCache,
    decisions: DistinctDecisions,
    stats: ChunkStats,
    chunks: usize,
    /// Peak of [`ColumnStream::memory_used`] across the stream.
    peak_memory: usize,
    /// Optional metrics destination. `None` (the default) keeps every push
    /// clock-free and sink-free: per-chunk publishing is gated on one
    /// `Option` branch.
    telemetry: Option<Arc<dyn MetricSink>>,
    /// Dispatch-tier tallies already published to the sink (delta basis).
    published_dispatch: crate::dispatch::DispatchStats,
    /// Decision-cache hit, miss and re-decision tallies already published
    /// to the sink (delta basis).
    published_decisions: (u64, u64, u64),
    /// Fused cold-path tallies already published to the sink (delta
    /// basis). The tallies live on the shared program, so a program
    /// driven by several streams attributes each delta to whichever
    /// stream publishes first — totals stay exact.
    published_fused: crate::compiled::FusedStats,
}

impl ColumnStream {
    /// Start a columnar stream over a shared compiled program, with no
    /// memory budget.
    pub fn new(program: Arc<CompiledProgram>) -> Self {
        Self::with_budget(program, StreamBudget::unbounded())
    }

    /// Start a columnar stream whose interned state is capped by `budget`
    /// (see the type-level *bounded streams* docs).
    pub fn with_budget(program: Arc<CompiledProgram>, budget: StreamBudget) -> Self {
        // Snapshot the shared program's tallies so this stream only
        // publishes decisions made after it was opened.
        let published_fused = program.fused_stats();
        ColumnStream {
            program,
            interner: ColumnInterner::with_budget(budget),
            cache: DispatchCache::new(),
            decisions: DistinctDecisions::default(),
            stats: ChunkStats::default(),
            chunks: 0,
            peak_memory: 0,
            telemetry: None,
            published_dispatch: crate::dispatch::DispatchStats::default(),
            published_decisions: (0, 0, 0),
            published_fused,
        }
    }

    /// [`ColumnStream::new`] taking ownership of the program.
    pub fn from_program(program: CompiledProgram) -> Self {
        Self::new(Arc::new(program))
    }

    /// Attach a telemetry sink: every pushed chunk publishes
    /// `engine.stream.*` latency/throughput histograms,
    /// `engine.dispatch.*` tier counters and memory gauges, and the
    /// stream's interner publishes its `column.interner.*` series at each
    /// chunk boundary. Without this call the stream never reads a clock or
    /// touches a sink.
    pub fn with_telemetry(mut self, sink: Arc<dyn MetricSink>) -> Self {
        self.interner.attach_telemetry(Arc::clone(&sink));
        self.telemetry = Some(sink);
        self
    }

    /// The compiled program this stream executes.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The stream's persistent interner (distinct values and leaf patterns
    /// seen so far, with their dense ids).
    pub fn interner(&self) -> &ColumnInterner {
        &self.interner
    }

    /// The stream's dispatch cache (exposes the dense leaf-id tier via
    /// [`DispatchCache::dense_len`]).
    pub fn dispatch_cache(&self) -> &DispatchCache {
        &self.cache
    }

    /// Hot-swap the stream's program mid-stream, keeping everything the
    /// program change cannot invalidate.
    ///
    /// A diff of the old and new program (branch by branch, intersected
    /// with the analyzer's reachability facts) decides, per cached dispatch
    /// plan, whether the new program would build exactly that plan. No row
    /// and no decided value is touched:
    ///
    /// * **dispatch plans** — the leaf-id dispatch cache re-binds to the new
    ///   program *without a full reset*: plans the diff proves are retained
    ///   as-is, serials included (see "Rebinding without a reset" in the
    ///   `dispatch` module docs); the others rebuild on next sight.
    /// * **decisions** — each stored decision replays only while the plan
    ///   that decided it is its leaf's plan, so the distincts under a
    ///   dropped plan re-decide *lazily*, through the new program, on the
    ///   next chunk that contains them; everything else keeps replaying its
    ///   stored outcome.
    /// * **fused automaton** — the new program already carries its own,
    ///   built once at compile time; first-sight decisions after the swap
    ///   classify through it with no per-distinct rebuild cost. The
    ///   stream's fused-tally baseline re-snapshots so telemetry deltas
    ///   stay attributed correctly.
    ///
    /// Swapping in the same program (same `Arc` or a recompilation of an
    /// identical program) is a no-op beyond the diff. Under a telemetry
    /// sink the swap publishes `engine.delta.branches_changed`; the pushes
    /// that follow publish `engine.delta.distincts_redecided`. Cost:
    /// O(cached plans) leaf checks plus the program-sized diff, independent
    /// of row and distinct count.
    pub fn swap_program(&mut self, new_program: Arc<CompiledProgram>) -> SwapSummary {
        if Arc::ptr_eq(&self.program, &new_program)
            || self.program.instance() == new_program.instance()
        {
            return SwapSummary::default();
        }
        let delta = ProgramDelta::between(&self.program, &new_program, self.telemetry.as_ref());
        let interner = &self.interner;
        let (dense_plans_retained, dense_plans_dropped) =
            self.cache
                .rebind_retaining(new_program.instance(), |leaf_id, plan| {
                    interner
                        .leaf_pattern(leaf_id)
                        .is_some_and(|leaf| delta.keeps_plan(plan, leaf))
                });
        // Re-baseline the fused tallies: they live on the program, and
        // this stream now publishes deltas of the new program's counters.
        self.published_fused = new_program.fused_stats();
        self.program = new_program;
        SwapSummary {
            branches_changed: delta.branches_changed(),
            target_changed: delta.target_changed(),
            dense_plans_retained,
            dense_plans_dropped,
        }
    }

    /// Intern the next chunk of rows into the stream's id space and
    /// transform it, returning the chunk's columnar [`TransformReport`]
    /// (one stored outcome per distinct value of the chunk). Distinct values
    /// seen in earlier chunks keep their ids, so they are neither
    /// re-tokenized nor re-transformed.
    ///
    /// On a budgeted stream the interner enforces the budget at this chunk
    /// boundary first; the report's rows are exactly the unbounded
    /// stream's.
    pub fn push_rows<S: AsRef<str>>(&mut self, rows: &[S]) -> TransformReport {
        // The only disabled-path cost of telemetry: this `is_some()`.
        let start = self.telemetry.is_some().then(Instant::now);
        // chunk() evicts down to the budget before interning a single row.
        let chunk = self.interner.chunk(rows);
        let outcomes = self.program.decide_chunk(
            &mut self.cache,
            &chunk,
            Some(&mut self.decisions),
            self.telemetry.as_ref(),
        );
        let report = TransformReport::of_chunk(
            self.program.target().clone(),
            outcomes,
            chunk.into_row_map(),
        );
        self.stats.absorb(&report.stats);
        self.chunks += 1;
        self.peak_memory = self.peak_memory.max(self.memory_used());
        self.publish_chunk_metrics(rows.len(), start);
        report
    }

    /// Publish the per-chunk telemetry series. `start` is `Some` exactly
    /// when a sink is attached, so the disabled path reduces to one failed
    /// pattern match — no clock read, no arithmetic.
    fn publish_chunk_metrics(&mut self, rows: usize, start: Option<Instant>) {
        let (Some(sink), Some(start)) = (&self.telemetry, start) else {
            return;
        };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        sink.observe("engine.stream.chunk_ns", nanos);
        if rows > 0 && nanos > 0 {
            let rps = (rows as u128 * 1_000_000_000) / u128::from(nanos);
            sink.observe(
                "engine.stream.rows_per_sec",
                u64::try_from(rps).unwrap_or(u64::MAX),
            );
        }
        sink.counter("engine.stream.chunks", 1);
        sink.counter("engine.stream.rows", rows as u64);

        // Hot loops tally plain u64s; only the since-last-chunk deltas
        // touch the sink here.
        let decisions = (
            self.decisions.hits,
            self.decisions.misses,
            self.decisions.redecided,
        );
        let (prev_hits, prev_misses, prev_redecided) = self.published_decisions;
        sink.counter("engine.stream.decision_hits", decisions.0 - prev_hits);
        sink.counter("engine.stream.decision_misses", decisions.1 - prev_misses);
        sink.counter(
            "engine.delta.distincts_redecided",
            decisions.2 - prev_redecided,
        );
        self.published_decisions = decisions;

        let dispatch = self.cache.stats();
        let prev = self.published_dispatch;
        sink.counter(
            "engine.dispatch.dense_hits",
            dispatch.dense_hits - prev.dense_hits,
        );
        sink.counter(
            "engine.dispatch.dense_misses",
            dispatch.dense_misses - prev.dense_misses,
        );
        self.published_dispatch = dispatch;

        let fused = self.program.fused_stats();
        let prev = self.published_fused;
        sink.counter(
            "engine.fused.decisions",
            fused.fused_decisions - prev.fused_decisions,
        );
        sink.counter(
            "engine.fused.per_branch_decisions",
            fused.per_branch_decisions - prev.per_branch_decisions,
        );
        sink.counter(
            "engine.fused.split_derived",
            fused.split_derived - prev.split_derived,
        );
        self.published_fused = fused;

        sink.gauge("engine.stream.memory_bytes", self.memory_used() as u64);
        sink.gauge("engine.stream.peak_memory_bytes", self.peak_memory as u64);
    }

    /// Distinct values decided and currently retained this stream. A
    /// decision whose plan a program swap dropped stays counted until its
    /// value is re-decided or evicted.
    pub fn distinct_decided(&self) -> usize {
        self.decisions.len()
    }

    /// The stream's memory budget (unbounded unless constructed with
    /// [`ColumnStream::with_budget`]).
    pub fn budget(&self) -> &StreamBudget {
        self.interner.budget()
    }

    /// Estimated heap bytes retained by the stream's interner and
    /// per-distinct-id decision cache — the two O(distinct) structures a
    /// [`StreamBudget`] bounds. Monotone under pushes between evictions;
    /// decreases when an eviction batch runs.
    pub fn memory_used(&self) -> usize {
        self.interner.memory_used() + self.decisions.memory_used()
    }

    /// Distinct values evicted by the interner so far (always `0` for
    /// unbounded streams).
    pub fn evictions(&self) -> u64 {
        self.interner.evictions()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ChunkStats {
        &self.stats
    }

    /// Chunks pushed so far.
    pub fn chunks_pushed(&self) -> usize {
        self.chunks
    }

    /// Finish the run, returning the whole-stream summary.
    pub fn finish(self) -> StreamSummary {
        StreamSummary {
            target: self.program.target().clone(),
            chunks: self.chunks,
            stats: self.stats,
            evictions: self.interner.evictions(),
            peak_memory_bytes: self.peak_memory,
            decision_cache_hits: self.decisions.hits,
            decision_cache_misses: self.decisions.misses,
        }
    }
}

/// What [`ColumnStream::swap_program`] kept and what it let go — the
/// incremental accounting of one mid-stream program hot-swap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapSummary {
    /// Changed branch slots in the old→new diff, counted on both sides (a
    /// modified branch counts twice); branches the analyzer proves
    /// unreachable are not counted.
    pub branches_changed: usize,
    /// `true` when the labelled target pattern changed (which invalidates
    /// every decision and plan).
    pub target_changed: bool,
    /// Dense dispatch plans proven still valid and retained as-is, with
    /// every decision they made.
    pub dense_plans_retained: usize,
    /// Dense dispatch plans dropped for rebuild on next sight. The
    /// decisions they made re-decide on their value's next sight, counted
    /// then in [`StreamSummary::decision_cache_misses`].
    pub dense_plans_dropped: usize,
}

/// The O(1)-sized result of a finished streaming run.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// The target pattern of the compiled program.
    pub target: Pattern,
    /// Number of chunks pushed.
    pub chunks: usize,
    /// Counters over every row pushed.
    pub stats: ChunkStats,
    /// Distinct values evicted under the stream's [`StreamBudget`] (`0`
    /// for unbounded streams).
    pub evictions: u64,
    /// Peak estimated bytes retained by the stream's O(distinct) state
    /// (interner + decision cache) across the run. The model counts each
    /// decided output once, in the decision cache: the chunk reports that
    /// replay it share that text by reference count. It leaves out
    /// allocator headers, growth slack, the in-flight chunk and the
    /// reports the caller still holds.
    pub peak_memory_bytes: usize,
    /// Decisions replayed from the per-distinct cache. A repeated value
    /// costs a replay, not a transform — this over
    /// [`decision_cache_misses`](StreamSummary::decision_cache_misses)
    /// is the stream's headline reuse ratio.
    pub decision_cache_hits: u64,
    /// Decisions that had to run the program: first sight of a distinct
    /// value, or re-decision after its slot was evicted or its leaf's plan
    /// was dropped (by a program swap or a recycled leaf-id).
    pub decision_cache_misses: u64,
}

impl StreamSummary {
    /// Total rows processed.
    pub fn rows(&self) -> usize {
        self.stats.rows()
    }

    /// Fraction of decisions served from the per-distinct cache, in
    /// `[0, 1]`; 0 before any decision.
    pub fn decision_cache_hit_rate(&self) -> f64 {
        let total = self.decision_cache_hits + self.decision_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.decision_cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;
    use clx_unifi::{Branch, Expr, Program, StringExpr};

    fn compiled() -> CompiledProgram {
        let program = Program::new(vec![Branch::new(
            tokenize("734.236.3466"),
            Expr::concat(vec![
                StringExpr::extract(1),
                StringExpr::const_str("-"),
                StringExpr::extract(3),
                StringExpr::const_str("-"),
                StringExpr::extract(5),
            ]),
        )]);
        CompiledProgram::compile(&program, &tokenize("734-422-8073")).unwrap()
    }

    #[test]
    fn chunks_stream_through_without_whole_column_state() {
        let mut stream = ColumnStream::from_program(compiled());
        let mut written: Vec<String> = Vec::new();
        for c in 0..10 {
            let chunk: Vec<String> = (0..100)
                .map(|i| match (c * 100 + i) % 3 {
                    0 => format!("{:03}.{:03}.{:04}", 100 + i, 200 + i, 4000 + i),
                    1 => format!("{:03}-{:03}-{:04}", 100 + i, 200 + i, 4000 + i),
                    _ => "???".to_string(),
                })
                .collect();
            let report = stream.push_rows(&chunk);
            assert_eq!(stream.chunks_pushed(), c + 1);
            assert_eq!(report.len(), 100);
            written.extend(report.iter_values().map(str::to_string));
        }
        assert_eq!(stream.chunks_pushed(), 10);
        let summary = stream.finish();
        assert_eq!(summary.chunks, 10);
        assert_eq!(summary.rows(), 1_000);
        assert_eq!(written.len(), 1_000);
        assert_eq!(
            summary.stats.transformed + summary.stats.conforming + summary.stats.flagged,
            1_000
        );
        assert!(summary.stats.flagged > 0 && summary.stats.transformed > 0);
    }

    #[test]
    fn streamed_outcomes_equal_one_shot_execution() {
        let program = compiled();
        let column: Vec<String> = (0..500)
            .map(|i| format!("{:03}.{:03}.{:04}", 100 + i % 800, 200 + i % 700, i))
            .collect();
        let one_shot = program.execute(&column);

        let mut stream = ColumnStream::from_program(program);
        let mut streamed = Vec::new();
        for chunk in column.chunks(77) {
            streamed.extend(stream.push_rows(chunk).into_row_outcomes());
        }
        let summary = stream.finish();
        assert_eq!(streamed, one_shot.clone().into_row_outcomes());
        assert_eq!(summary.stats, one_shot.stats);
    }

    #[test]
    fn worker_caches_persist_across_chunks() {
        let mut stream = ColumnStream::from_program(compiled());
        let rows: Vec<String> = (0..10).map(|i| format!("111.222.{:04}", i)).collect();
        stream.push_rows(&rows);
        let decided_after_first = stream.dispatch_cache().dense_len();
        assert!(decided_after_first > 0);
        // Fresh values with the same leaf: no new plans are built.
        let rows: Vec<String> = (10..20).map(|i| format!("111.222.{:04}", i)).collect();
        stream.push_rows(&rows);
        assert_eq!(stream.dispatch_cache().dense_len(), decided_after_first);
    }

    #[test]
    fn empty_stream() {
        let summary = ColumnStream::from_program(compiled()).finish();
        assert_eq!(summary.chunks, 0);
        assert_eq!(summary.rows(), 0);
    }

    // ---- column path ------------------------------------------------------

    #[test]
    fn cross_chunk_repeats_are_decided_once() {
        let program = compiled();
        let mut stream = ColumnStream::from_program(program);
        let first = stream.push_rows(&["111.222.3333", "444.555.6666", "111.222.3333"]);
        assert_eq!(first.outcomes().len(), 2);
        assert_eq!(stream.distinct_decided(), 2);
        assert_eq!(stream.interner().distinct_count(), 2);

        // The second chunk holds only repeats: no new decisions, no new
        // interned values — but the report still covers every row.
        let second = stream.push_rows(&["444.555.6666", "111.222.3333", "444.555.6666"]);
        assert_eq!(second.len(), 3);
        assert_eq!(second.outcomes().len(), 2);
        assert_eq!(stream.distinct_decided(), 2);
        assert_eq!(stream.interner().distinct_count(), 2);
        assert_eq!(
            second.iter_values().collect::<Vec<_>>(),
            vec!["444-555-6666", "111-222-3333", "444-555-6666"]
        );
    }

    #[test]
    fn replayed_outcomes_share_the_decided_text() {
        let mut stream = ColumnStream::from_program(compiled());
        let first = stream.push_rows(&["111.222.3333", "N/A"]);
        let second = stream.push_rows(&["N/A", "111.222.3333"]);
        // A repeat across chunks replays the stored decision: both chunks'
        // outcomes point at the same output bytes, transformed or not.
        for (a, b) in [(first.row(0), second.row(1)), (first.row(1), second.row(0))] {
            assert_eq!(a, b);
            assert!(std::ptr::eq(a.value().as_ptr(), b.value().as_ptr()));
        }
        assert_eq!(second.row(1).value(), "111-222-3333");
    }

    #[test]
    fn column_path_never_hashes_a_pattern() {
        let program = compiled();
        let mut stream = ColumnStream::from_program(program);
        stream.push_rows(&["111.222.3333", "N/A", "777-888-9999"]);
        stream.push_rows(&["111.222.3333", "000.111.2222"]);
        // Three distinct leaves decided, each once, by integer leaf-id.
        assert_eq!(stream.dispatch_cache().dense_len(), 3);
        assert_eq!(stream.dispatch_cache().stats().dense_misses, 3);
    }

    #[test]
    fn duplicates_within_and_across_chunks_share_one_decision() {
        let mut stream = ColumnStream::from_program(compiled());
        let report = stream.push_rows(&["111.222.3333", "111.222.3333"]);
        assert_eq!(report.len(), 2);
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(stream.distinct_decided(), 1);
        let report = stream.push_rows(&["111.222.3333", "N/A"]);
        assert_eq!(report.stats.flagged, 1);
        assert_eq!(stream.distinct_decided(), 2);
        assert_eq!(stream.interner().distinct_count(), 2);
        let summary = stream.finish();
        assert_eq!(summary.rows(), 4);
        assert_eq!(summary.chunks, 2);
    }

    // ---- bounded streams ---------------------------------------------------

    /// A workload with conforming, transformed and flagged rows, with
    /// enough cardinality to overflow small budgets and enough repetition
    /// to straddle chunk boundaries.
    fn mixed_rows(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| match i % 4 {
                0 => format!(
                    "{:03}.{:03}.{:04}",
                    100 + i % 23,
                    200 + i % 7,
                    3000 + i % 11
                ),
                1 => format!("{:03}-{:03}-{:04}", 100 + i % 5, 200 + i % 5, 4000 + i % 5),
                2 => "N/A".to_string(),
                _ => format!("{:03}.999.{:04}", i % 750, 9000 + i % 13),
            })
            .collect()
    }

    #[test]
    fn bounded_streams_match_unbounded_row_for_row() {
        let rows = mixed_rows(400);
        for budget in [
            StreamBudget::max_distinct(1),
            StreamBudget::max_distinct(7),
            StreamBudget::max_distinct(64).with_max_arena_bytes(256),
            StreamBudget::unbounded(),
        ] {
            let mut bounded = ColumnStream::with_budget(Arc::new(compiled()), budget);
            let mut unbounded = ColumnStream::from_program(compiled());
            for chunk in rows.chunks(37) {
                let b = bounded.push_rows(chunk);
                let u = unbounded.push_rows(chunk);
                assert_eq!(
                    b.iter_rows().collect::<Vec<_>>(),
                    u.iter_rows().collect::<Vec<_>>(),
                    "budget {budget:?} diverged"
                );
                assert_eq!(b.stats, u.stats);
            }
            let b = bounded.finish();
            let u = unbounded.finish();
            assert_eq!(b.stats, u.stats);
            assert_eq!(u.evictions, 0);
        }
    }

    #[test]
    fn evicting_stream_stays_within_budget_and_reports_stats() {
        let mut stream =
            ColumnStream::with_budget(Arc::new(compiled()), StreamBudget::max_distinct(8));
        for c in 0..20usize {
            let rows: Vec<String> = (0..32)
                .map(|i| format!("{:03}.{:03}.{:04}", c % 1000, i, (c * 32 + i) % 10_000))
                .collect();
            stream.push_rows(&rows);
            // Budget + the pinned chunk bound the live set at every boundary.
            assert!(stream.interner().live_distinct_count() <= 8 + 32);
            assert!(stream.distinct_decided() <= stream.interner().live_distinct_count());
        }
        assert!(stream.evictions() > 0);
        let summary = stream.finish();
        assert!(summary.evictions > 0);
        assert!(summary.peak_memory_bytes > 0);
    }

    #[test]
    fn column_stream_memory_is_monotone_and_drops_after_eviction() {
        let mut stream =
            ColumnStream::with_budget(Arc::new(compiled()), StreamBudget::max_distinct(16));
        let mut last = stream.memory_used();
        for c in 0..4 {
            let rows: Vec<String> = (0..4)
                .map(|i| format!("111.222.{:04}", c * 4 + i))
                .collect();
            stream.push_rows(&rows);
            let now = stream.memory_used();
            assert!(now >= last, "memory_used must be monotone under pushes");
            last = now;
        }
        // Blow past the budget, then push again: the boundary eviction
        // shrinks retained memory (interner *and* decision cache).
        let big: Vec<String> = (0..64).map(|i| format!("333.444.{:04}", i)).collect();
        stream.push_rows(&big);
        let peak = stream.memory_used();
        stream.push_rows(&["111.222.0000"]);
        assert!(stream.evictions() > 0);
        assert!(stream.memory_used() < peak);
    }

    #[test]
    fn session_tolerates_bounded_interner_evictions() {
        let mut stream =
            ColumnStream::with_budget(Arc::new(compiled()), StreamBudget::max_distinct(2));
        let report = stream.push_rows(&["111.222.3333", "444.555.6666", "777.888.9999"]);
        assert_eq!(report.stats.transformed, 3);
        assert_eq!(stream.distinct_decided(), 3);
        assert!(stream.memory_used() > 0);

        // The next boundary evicts the coldest value; the stream prunes
        // its decision and re-decides on reappearance, identically.
        let report = stream.push_rows(&["111.222.3333"]);
        assert_eq!(
            report.iter_values().collect::<Vec<_>>(),
            vec!["111-222-3333"]
        );
        assert!(stream.evictions() > 0);
        assert!(stream.distinct_decided() <= stream.interner().live_distinct_count());
        let summary = stream.finish();
        assert!(summary.evictions > 0);
        assert!(summary.peak_memory_bytes > 0);
    }

    #[test]
    fn summary_reports_decision_cache_hit_ratio() {
        let mut stream = ColumnStream::from_program(compiled());
        // Decisions are per distinct value per chunk (duplicates within a
        // chunk share one decision via the row map): both values are
        // misses in the first chunk, replays in the second and third.
        stream.push_rows(&["111.222.3333", "N/A", "111.222.3333"]);
        stream.push_rows(&["N/A", "111.222.3333", "N/A"]);
        stream.push_rows(&["N/A", "111.222.3333"]);
        let summary = stream.finish();
        assert_eq!(summary.decision_cache_misses, 2);
        assert_eq!(summary.decision_cache_hits, 4);
        assert!((summary.decision_cache_hit_rate() - 4.0 / 6.0).abs() < 1e-9);

        // Before any decision the rate is defined as 0.
        let summary = ColumnStream::from_program(compiled()).finish();
        assert_eq!(summary.decision_cache_hits, 0);
        assert_eq!(summary.decision_cache_misses, 0);
        assert_eq!(summary.decision_cache_hit_rate(), 0.0);
    }

    #[test]
    fn decision_counters_survive_eviction_prunes() {
        let mut stream =
            ColumnStream::with_budget(Arc::new(compiled()), StreamBudget::max_distinct(2));
        for c in 0..10usize {
            let rows: Vec<String> = (0..8).map(|i| format!("{:03}.222.{:04}", c, i)).collect();
            stream.push_rows(&rows);
        }
        assert!(stream.evictions() > 0);
        let summary = stream.finish();
        // 80 all-distinct rows: every decision was a first sight (or a
        // re-decision, still a miss); the tallies must not shrink when
        // the cache prunes evicted slots.
        assert_eq!(summary.decision_cache_misses, 80);
        assert_eq!(summary.decision_cache_hits, 0);
    }

    #[test]
    fn telemetry_sink_sees_per_chunk_series() {
        let sink = clx_telemetry::InMemorySink::shared();
        let mut stream =
            ColumnStream::with_budget(Arc::new(compiled()), StreamBudget::max_distinct(4))
                .with_telemetry(sink.clone());
        for c in 0..6usize {
            let rows: Vec<String> = (0..16)
                .map(|i| format!("{:03}.333.{:04}", c, i % 12))
                .collect();
            stream.push_rows(&rows);
        }
        let stream_dispatch = stream.dispatch_cache().stats();
        let summary = stream.finish();

        let snap = MetricSink::snapshot(&*sink);
        assert_eq!(snap.counter("engine.stream.chunks"), Some(6));
        assert_eq!(snap.counter("engine.stream.rows"), Some(96));
        assert_eq!(
            snap.counter("engine.stream.decision_hits"),
            Some(summary.decision_cache_hits)
        );
        assert_eq!(
            snap.counter("engine.stream.decision_misses"),
            Some(summary.decision_cache_misses)
        );
        // The sink's cumulative deltas must agree with the cache's tallies.
        let dispatch = stream_dispatch;
        assert_eq!(
            snap.counter("engine.dispatch.dense_misses"),
            Some(dispatch.dense_misses)
        );
        assert!(dispatch.dense_misses > 0);
        assert_eq!(snap.histogram("engine.stream.chunk_ns").unwrap().count, 6);
        assert_eq!(
            snap.histogram("engine.stream.rows_per_sec").unwrap().count,
            6
        );
        assert_eq!(
            snap.gauge("engine.stream.peak_memory_bytes"),
            Some(summary.peak_memory_bytes as u64)
        );
        // The interner published its own series at the chunk boundaries.
        assert_eq!(
            snap.counter("column.interner.evicted_values"),
            Some(summary.evictions)
        );
        assert!(snap.gauge("column.interner.arena_bytes").is_some());
        // Every dense-tier miss builds a plan — a cold decision — and this
        // program's leaves all fuse: the published fused tally must cover
        // exactly those builds, with the per-branch loop never consulted.
        assert_eq!(
            snap.counter("engine.fused.decisions"),
            snap.counter("engine.dispatch.dense_misses")
        );
        assert_eq!(snap.counter("engine.fused.per_branch_decisions"), Some(0));
        assert!(snap.histogram("engine.fused.decide_ns").unwrap().count > 0);
    }

    #[test]
    fn fused_streams_derive_every_split_from_the_accepting_path() {
        let sink = clx_telemetry::InMemorySink::shared();
        let mut stream =
            ColumnStream::with_budget(Arc::new(compiled()), StreamBudget::max_distinct(4))
                .with_telemetry(sink.clone());
        // Every row matches the branch, and evictions force re-decisions,
        // so each cold decision builds an Apply plan through the fused
        // automaton.
        for c in 0..6usize {
            let rows: Vec<String> = (0..16)
                .map(|i| format!("{:03}.333.{:04}", c, i % 12))
                .collect();
            stream.push_rows(&rows);
        }
        stream.finish();

        let snap = MetricSink::snapshot(&*sink);
        // Single-pass first sight: every cold branch decision derived its
        // split boundaries from the automaton's accepting path — zero
        // `Pattern::split` runs anywhere on the fused path.
        let decisions = snap.counter("engine.fused.decisions").unwrap();
        assert!(decisions > 0);
        assert_eq!(snap.counter("engine.fused.split_derived"), Some(decisions));
        assert_eq!(
            snap.histogram("engine.fused.split_ns").unwrap().count,
            decisions
        );
    }

    #[test]
    fn streams_with_and_without_telemetry_are_byte_identical() {
        let rows = mixed_rows(300);
        let sink = clx_telemetry::InMemorySink::shared();
        let budget = StreamBudget::max_distinct(8);
        let mut plain = ColumnStream::with_budget(Arc::new(compiled()), budget);
        let mut noop = ColumnStream::with_budget(Arc::new(compiled()), budget)
            .with_telemetry(Arc::new(clx_telemetry::NoopSink::new()));
        let mut live = ColumnStream::with_budget(Arc::new(compiled()), budget).with_telemetry(sink);
        for chunk in rows.chunks(50) {
            let p = plain.push_rows(chunk);
            let n = noop.push_rows(chunk);
            let l = live.push_rows(chunk);
            assert_eq!(
                p.iter_rows().collect::<Vec<_>>(),
                n.iter_rows().collect::<Vec<_>>()
            );
            assert_eq!(
                p.iter_rows().collect::<Vec<_>>(),
                l.iter_rows().collect::<Vec<_>>()
            );
        }
        let p = plain.finish();
        let n = noop.finish();
        let l = live.finish();
        assert_eq!(p.stats, n.stats);
        assert_eq!(p.stats, l.stats);
        assert_eq!(p.evictions, n.evictions);
        assert_eq!(p.evictions, l.evictions);
    }

    #[test]
    fn switching_interners_resets_the_decision_cache() {
        let program = compiled();
        let mut cache = DispatchCache::new();
        let mut decisions = DistinctDecisions::default();
        let mut a = ColumnInterner::new();
        let chunk = a.chunk(&["111.222.3333"]);
        program.decide_chunk(&mut cache, &chunk, Some(&mut decisions), None);
        assert_eq!(decisions.len(), 1);

        // A chunk from a different interner carries ids from a different id
        // space; the per-id decision cache must not alias them.
        let mut b = ColumnInterner::new();
        let chunk = b.chunk(&["N/A", "N/A"]);
        let outcomes = program.decide_chunk(&mut cache, &chunk, Some(&mut decisions), None);
        assert_eq!(
            outcomes,
            vec![RowOutcome::Flagged {
                value: "N/A".into()
            }]
        );
        assert_eq!(decisions.len(), 1);
    }

    /// Two transparent branches over disjoint leaves, so a repair to one
    /// provably leaves the other branch's distincts and plans alone.
    fn two_branch_program(digit_suffix: &str) -> CompiledProgram {
        let digits = clx_pattern::parse_pattern("<D>2'-'<D>2").unwrap();
        let letters = clx_pattern::parse_pattern("<L>+'.'<L>+").unwrap();
        let program = Program::new(vec![
            Branch::new(
                digits,
                Expr::concat(vec![
                    StringExpr::extract(1),
                    StringExpr::extract(3),
                    StringExpr::const_str(digit_suffix),
                ]),
            ),
            Branch::new(
                letters,
                Expr::concat(vec![StringExpr::extract(1), StringExpr::extract(3)]),
            ),
        ]);
        // `<AN>4` conforms to the branch *outputs* ("1234", "abcd") but not
        // to the inputs ("-" and "." keep them off-target), so both
        // branches genuinely fire.
        CompiledProgram::compile(&program, &clx_pattern::parse_pattern("<AN>4").unwrap()).unwrap()
    }

    #[test]
    fn swap_program_keeps_unaffected_decisions_and_dense_plans() {
        let mut stream = ColumnStream::new(Arc::new(two_branch_program("")));
        let rows = ["12-34", "56-78", "ab.cd", "ef.gh"];
        stream.push_rows(&rows);
        assert_eq!(stream.distinct_decided(), 4);
        let dense_before = stream.dispatch_cache().dense_len();
        assert_eq!(dense_before, 2, "one dense plan per leaf");

        let swap = stream.swap_program(Arc::new(two_branch_program("#")));
        assert_eq!(swap.branches_changed, 2, "old + new form of one branch");
        assert!(!swap.target_changed);
        assert_eq!(swap.dense_plans_retained, 1, "letters leaf plan survives");
        assert_eq!(swap.dense_plans_dropped, 1);

        // Replaying the same rows re-decides exactly the digit distincts,
        // through the new program — and matches a fresh stream of it.
        let patched = stream.push_rows(&rows);
        let mut fresh = ColumnStream::new(Arc::new(two_branch_program("#")));
        let expected = fresh.push_rows(&rows);
        assert_eq!(
            patched.iter_rows().collect::<Vec<_>>(),
            expected.iter_rows().collect::<Vec<_>>()
        );
        assert!(
            patched.iter_values().any(|v| v == "1234#"),
            "new plan's output visible post-swap"
        );
        assert_eq!(stream.distinct_decided(), 4);
        assert_eq!(
            stream.finish().decision_cache_misses,
            4 + 2,
            "only the digit distincts re-decide"
        );
    }

    #[test]
    fn swap_program_with_identical_program_is_a_no_op() {
        let mut stream = ColumnStream::new(Arc::new(two_branch_program("")));
        stream.push_rows(&["12-34", "ab.cd"]);
        let decided = stream.distinct_decided();
        // A recompilation of the same source program: new instance, no
        // semantic change — the delta proves everything stable.
        let swap = stream.swap_program(Arc::new(two_branch_program("")));
        assert_eq!(swap.branches_changed, 0);
        assert_eq!(swap.dense_plans_dropped, 0);
        assert_eq!(swap.dense_plans_retained, 2);
        assert_eq!(stream.distinct_decided(), decided);
        assert_eq!(stream.dispatch_cache().dense_len(), 2);
        stream.push_rows(&["12-34", "ab.cd"]);
        let summary = stream.finish();
        assert_eq!(summary.decision_cache_misses, 2, "nothing re-decided");
        assert_eq!(summary.decision_cache_hits, 2);
    }

    #[test]
    fn swap_program_target_change_invalidates_everything() {
        let mut stream = ColumnStream::new(Arc::new(two_branch_program("")));
        stream.push_rows(&["12-34", "ab.cd"]);
        let digits = clx_pattern::parse_pattern("<D>2'-'<D>2").unwrap();
        let retarget = CompiledProgram::compile(
            &Program::new(vec![Branch::new(
                digits,
                Expr::concat(vec![StringExpr::extract(1), StringExpr::extract(3)]),
            )]),
            &clx_pattern::parse_pattern("<D>+").unwrap(),
        )
        .unwrap();
        let swap = stream.swap_program(Arc::new(retarget));
        assert!(swap.target_changed);
        assert_eq!(swap.dense_plans_retained, 0);
        assert_eq!(stream.dispatch_cache().dense_len(), 0);
        // Post-swap pushes equal a fresh stream of the new program, and
        // every decided distinct re-decides.
        let report = stream.push_rows(&["12-34", "ab.cd"]);
        assert_eq!(report.stats.transformed, 1);
        assert_eq!(report.stats.flagged, 1);
        let summary = stream.finish();
        assert_eq!(summary.decision_cache_misses, 2 + 2);
        assert_eq!(summary.decision_cache_hits, 0);
    }

    #[test]
    fn conforming_ids_replay_across_a_changed_generic_branch() {
        // `<AN>+` also matches the conforming leaf `<D>4`; repairing it
        // must neither drop the conforming plan nor re-decide its ids.
        let program = |to: &str| {
            let generic = clx_pattern::parse_pattern("<AN>+").unwrap();
            let branch = Branch::new(generic, Expr::concat(vec![StringExpr::const_str(to)]));
            let target = clx_pattern::parse_pattern("<D>4").unwrap();
            Arc::new(CompiledProgram::compile(&Program::new(vec![branch]), &target).unwrap())
        };
        let sink = clx_telemetry::InMemorySink::shared();
        let mut stream = ColumnStream::new(program("x")).with_telemetry(sink.clone());
        let rows = ["1234", "5678", "ab", "!!"];
        stream.push_rows(&rows);
        let swap = stream.swap_program(program("y"));
        // Conforming `<D>4` and flagged `'!!'` plans stay; `<L>2` goes.
        assert_eq!(
            (swap.dense_plans_retained, swap.dense_plans_dropped),
            (2, 1)
        );
        let report = stream.push_rows(&rows);
        assert_eq!(
            report.iter_values().collect::<Vec<_>>(),
            vec!["1234", "5678", "y", "!!"]
        );
        let summary = stream.finish();
        assert_eq!(
            summary.decision_cache_misses,
            4 + 1,
            "only \"ab\" re-decides"
        );
        let snap = MetricSink::snapshot(&*sink);
        assert_eq!(snap.counter("engine.delta.distincts_redecided"), Some(1));
    }

    #[test]
    fn serial_restart_resets_the_decision_cache() {
        let mut stream = ColumnStream::new(Arc::new(two_branch_program("")));
        let rows = ["12-34", "ab.cd"];
        stream.push_rows(&rows);
        // The next plan built exhausts the serials: every plan, and with
        // them every stored decision, must go.
        stream.swap_program(Arc::new(two_branch_program("#")));
        stream.cache.exhaust_serials();
        let report = stream.push_rows(&rows);
        assert_eq!(
            report.iter_values().collect::<Vec<_>>(),
            vec!["1234#", "abcd"]
        );
        // Both re-decided: "ab.cd"'s kept plan went with the restart.
        assert_eq!(stream.distinct_decided(), 2);
        let report = stream.push_rows(&rows);
        assert_eq!(
            report.iter_values().collect::<Vec<_>>(),
            vec!["1234#", "abcd"]
        );
        let summary = stream.finish();
        assert_eq!(summary.decision_cache_misses, 2 + 2);
        assert_eq!(summary.decision_cache_hits, 2);
    }

    #[test]
    fn a_stored_decision_stays_32_bytes() {
        assert_eq!(size_of::<Option<(u32, u32, RowOutcome)>>(), 32);
    }

    #[test]
    fn swap_program_under_eviction_stays_row_for_row_correct() {
        let budget = StreamBudget::max_distinct(2);
        let mut stream = ColumnStream::with_budget(Arc::new(two_branch_program("")), budget);
        let rows: Vec<String> = (0..40)
            .map(|i| match i % 4 {
                0 => format!("{:02}-{:02}", 10 + (i % 50), 10 + (i % 50)),
                1 => "ab.cd".to_string(),
                2 => "ef.gh".to_string(),
                _ => "???".to_string(),
            })
            .collect();
        stream.push_rows(&rows[..20]);
        stream.swap_program(Arc::new(two_branch_program("#")));
        let patched = stream.push_rows(&rows[20..]);
        let mut fresh = ColumnStream::new(Arc::new(two_branch_program("#")));
        let expected = fresh.push_rows(&rows[20..]);
        assert_eq!(
            patched.iter_rows().collect::<Vec<_>>(),
            expected.iter_rows().collect::<Vec<_>>()
        );
    }
}
