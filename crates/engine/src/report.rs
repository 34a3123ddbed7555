//! Mergeable, columnar execution reports.
//!
//! The parallel executor produces one [`ChunkReport`] per chunk; chunk
//! reports merge (in chunk order) into a column-level [`BatchReport`]. Both
//! carry [`ChunkStats`], a small commutative summary that also powers the
//! streaming API, where whole-column row storage is exactly what must be
//! avoided.
//!
//! A [`BatchReport`] stores its outcomes *columnar*: a list of stored
//! [`RowOutcome`]s plus a row→outcome map. The chunked path stores one
//! outcome per row (an identity map, costing nothing extra); the column
//! path ([`crate::CompiledProgram::execute_column`]) stores one outcome per
//! **distinct** value and shares the column's row map by reference count,
//! so a duplicate-heavy report costs O(distinct) — no outcome is ever
//! cloned per duplicate row. Row-oriented access ([`BatchReport::iter_rows`],
//! [`BatchReport::row`], [`BatchReport::values`]) is identical for both
//! representations.

use std::sync::Arc;

use clx_column::Column;
use clx_pattern::Pattern;
use clx_telemetry::MetricSink;

use crate::compiled::CompiledProgram;
use crate::delta::ProgramDelta;
use crate::dispatch::DispatchCache;

/// What [`BatchReport::patch`] did: how much of the report the
/// [`ProgramDelta`] let it keep, and how much it had to re-decide.
///
/// Published (by the `_observed` variant) as the
/// `engine.delta.{distincts_redecided,outcomes_patched}` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Changed branch slots in the delta (after the facts intersection).
    pub branches_changed: usize,
    /// Stored outcomes the delta could not prove stable, hence re-decided.
    pub distincts_redecided: usize,
    /// Re-decided outcomes that actually changed and were rewritten.
    pub outcomes_patched: usize,
}

/// The outcome of the batch executor for one input row.
///
/// Mirrors the sequential session semantics exactly: rows already in the
/// target pattern are left untouched, rows matching a branch are rewritten,
/// and rows matching nothing are left unchanged and flagged for review
/// (§6.1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOutcome {
    /// The row already matched the target pattern.
    Conforming {
        /// The (unchanged) value.
        value: String,
    },
    /// A branch of the compiled program transformed the row.
    Transformed {
        /// The original value.
        from: String,
        /// The transformed value.
        to: String,
    },
    /// No branch matched; the row is left unchanged and flagged.
    Flagged {
        /// The (unchanged) value.
        value: String,
    },
}

impl RowOutcome {
    /// The output value of the row.
    pub fn value(&self) -> &str {
        match self {
            RowOutcome::Conforming { value } | RowOutcome::Flagged { value } => value,
            RowOutcome::Transformed { to, .. } => to,
        }
    }

    /// `true` if a branch rewrote the row.
    pub fn is_transformed(&self) -> bool {
        matches!(self, RowOutcome::Transformed { .. })
    }

    /// `true` if the row was flagged for manual review.
    pub fn is_flagged(&self) -> bool {
        matches!(self, RowOutcome::Flagged { .. })
    }

    /// `true` if the row already matched the target pattern.
    pub fn is_conforming(&self) -> bool {
        matches!(self, RowOutcome::Conforming { .. })
    }
}

/// Commutative per-chunk counters; merging chunks sums them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkStats {
    /// Rows rewritten by a branch.
    pub transformed: usize,
    /// Rows that already matched the target.
    pub conforming: usize,
    /// Rows flagged for review.
    pub flagged: usize,
}

impl ChunkStats {
    /// Total rows covered by these counters.
    pub fn rows(&self) -> usize {
        self.transformed + self.conforming + self.flagged
    }

    /// Count one outcome.
    pub(crate) fn record(&mut self, outcome: &RowOutcome) {
        self.record_weighted(outcome, 1);
    }

    /// Count one outcome standing for `weight` rows (the multiplicity of a
    /// distinct value in a columnar report).
    pub(crate) fn record_weighted(&mut self, outcome: &RowOutcome, weight: usize) {
        match outcome {
            RowOutcome::Conforming { .. } => self.conforming += weight,
            RowOutcome::Transformed { .. } => self.transformed += weight,
            RowOutcome::Flagged { .. } => self.flagged += weight,
        }
    }

    /// Un-count one outcome standing for `weight` rows — the inverse of
    /// [`ChunkStats::record_weighted`], used when a patched report rewrites
    /// a stored outcome in place.
    pub(crate) fn discount_weighted(&mut self, outcome: &RowOutcome, weight: usize) {
        match outcome {
            RowOutcome::Conforming { .. } => self.conforming -= weight,
            RowOutcome::Transformed { .. } => self.transformed -= weight,
            RowOutcome::Flagged { .. } => self.flagged -= weight,
        }
    }

    /// Fold another chunk's counters into this one.
    pub fn absorb(&mut self, other: &ChunkStats) {
        self.transformed += other.transformed;
        self.conforming += other.conforming;
        self.flagged += other.flagged;
    }
}

/// The outcome of executing a compiled program over one chunk of rows.
///
/// Like [`BatchReport`], a chunk report stores its outcomes *columnar*: the
/// per-row paths store one outcome per row (an identity map), while the
/// streaming path ([`crate::ColumnStream::push_rows`]) stores
/// one outcome per distinct value appearing in the chunk plus the chunk's
/// row→distinct map — O(distinct-in-chunk), no per-duplicate clones.
/// Row-oriented access ([`ChunkReport::iter_rows`], [`ChunkReport::row`],
/// [`ChunkReport::into_row_outcomes`]) is identical for both.
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Zero-based position of the chunk within the column (or stream).
    pub index: usize,
    /// Stored outcomes: per row (identity map) or per distinct-in-chunk.
    outcomes: Vec<RowOutcome>,
    /// Row index -> stored outcome index, for columnar chunks.
    map: Option<Vec<u32>>,
    /// Counters over the chunk's rows (multiplicity-weighted when columnar).
    pub stats: ChunkStats,
}

impl ChunkReport {
    /// Build a per-row report from one outcome per row, computing the
    /// counters.
    pub fn new(index: usize, rows: Vec<RowOutcome>) -> Self {
        let mut stats = ChunkStats::default();
        for row in &rows {
            stats.record(row);
        }
        ChunkReport {
            index,
            outcomes: rows,
            map: None,
            stats,
        }
    }

    /// Build a columnar report: `outcomes[k]` is the decision for the
    /// `k`-th distinct value appearing in the chunk, and `row_map[r]` names
    /// the outcome of row `r`. Stats are multiplicity-weighted, so
    /// construction is O(rows) integer work plus O(distinct-in-chunk)
    /// outcomes — never a per-duplicate outcome clone.
    ///
    /// # Panics
    ///
    /// Panics if a `row_map` entry does not index `outcomes`.
    pub fn columnar(index: usize, outcomes: Vec<RowOutcome>, row_map: Vec<u32>) -> Self {
        let mut multiplicity = vec![0usize; outcomes.len()];
        for &stored in &row_map {
            assert!(
                (stored as usize) < outcomes.len(),
                "row map entry {stored} out of bounds ({} outcomes)",
                outcomes.len()
            );
            multiplicity[stored as usize] += 1;
        }
        let mut stats = ChunkStats::default();
        for (outcome, &weight) in outcomes.iter().zip(&multiplicity) {
            stats.record_weighted(outcome, weight);
        }
        ChunkReport {
            index,
            outcomes,
            map: Some(row_map),
            stats,
        }
    }

    /// Number of rows covered by this chunk.
    pub fn len(&self) -> usize {
        match &self.map {
            None => self.outcomes.len(),
            Some(map) => map.len(),
        }
    }

    /// `true` when the chunk covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when outcomes are stored per distinct value rather than per
    /// row.
    pub fn is_columnar(&self) -> bool {
        self.map.is_some()
    }

    /// The stored outcomes: one per distinct-in-chunk value for columnar
    /// chunks, one per row otherwise.
    pub fn outcomes(&self) -> &[RowOutcome] {
        &self.outcomes
    }

    /// The outcome of row `index` within the chunk.
    pub fn row(&self, index: usize) -> &RowOutcome {
        match &self.map {
            None => &self.outcomes[index],
            Some(map) => &self.outcomes[map[index] as usize],
        }
    }

    /// Every row's outcome, in chunk row order (duplicate rows yield the
    /// same `&RowOutcome` in a columnar chunk).
    pub fn iter_rows(&self) -> RowOutcomes<'_> {
        RowOutcomes {
            outcomes: &self.outcomes,
            map: self.map.as_deref(),
            next: 0,
            len: self.len(),
        }
    }

    /// Borrowing iterator over every row's *output value*, in chunk row
    /// order — the allocation-free way to hand streamed rows to a sink.
    pub fn iter_values(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.iter_rows().map(RowOutcome::value)
    }

    /// Materialize one owned outcome per row, in chunk row order (cloning
    /// per duplicate row for columnar chunks — the row-oriented escape
    /// hatch).
    pub fn into_row_outcomes(self) -> Vec<RowOutcome> {
        match self.map {
            None => self.outcomes,
            Some(map) => map
                .iter()
                .map(|&i| self.outcomes[i as usize].clone())
                .collect(),
        }
    }
}

/// The row→outcome map of a [`BatchReport`].
#[derive(Debug, Clone)]
enum RowMap {
    /// Stored outcome `i` *is* row `i` (the chunked per-row paths).
    Identity,
    /// Row `r` holds stored outcome `map[r]` (the columnar path); the map
    /// is the column's own row→distinct map, shared by reference count.
    Shared(Arc<[u32]>),
}

/// A column-level report: every row's outcome, stored columnar.
///
/// Reports from the chunked paths ([`crate::CompiledProgram::execute`],
/// [`BatchReport::from_chunks`]) store one outcome per row. Reports from
/// [`crate::CompiledProgram::execute_column`] store one outcome per
/// *distinct* value plus the column's shared row map — O(distinct) space,
/// no per-duplicate clones. Both answer row-oriented queries identically.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The target pattern the program was compiled against.
    pub target: Pattern,
    /// Stored outcomes: per row (identity map) or per distinct value.
    outcomes: Vec<RowOutcome>,
    /// Row index -> stored outcome index.
    row_map: RowMap,
    /// Counters over all rows (multiplicity-weighted for columnar reports).
    pub stats: ChunkStats,
    /// Number of chunks merged into this report (1 for a non-empty columnar
    /// report, which is built whole).
    pub chunk_count: usize,
    /// Per-stored-outcome row multiplicities for columnar reports (`None`
    /// for identity-mapped reports, whose weight is always 1). Kept so
    /// [`BatchReport::patch`] can adjust `stats` in O(1) per rewritten
    /// outcome instead of re-scanning the row map.
    multiplicities: Option<Arc<[u32]>>,
}

impl BatchReport {
    /// An empty report for `target`.
    pub fn empty(target: Pattern) -> Self {
        BatchReport {
            target,
            outcomes: Vec::new(),
            row_map: RowMap::Identity,
            stats: ChunkStats::default(),
            chunk_count: 0,
            multiplicities: None,
        }
    }

    /// Merge chunk reports (sorted by `index`) into a column-level report.
    ///
    /// # Panics
    ///
    /// Panics if the chunks are not in ascending `index` order — that would
    /// silently permute the output column.
    pub fn from_chunks(target: Pattern, chunks: Vec<ChunkReport>) -> Self {
        let mut report = BatchReport::empty(target);
        for chunk in chunks {
            report.push_chunk(chunk);
        }
        report
    }

    /// Build a columnar report: `outcomes[k]` is the decision for the
    /// `k`-th distinct value of `column`, fanned out to every duplicate row
    /// through the column's shared row map. Construction is O(distinct):
    /// the row map is reference-counted, not copied, and the stats are
    /// multiplicity-weighted instead of being counted row by row.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` does not have exactly one entry per distinct
    /// value of `column`.
    pub fn columnar(target: Pattern, outcomes: Vec<RowOutcome>, column: &Column) -> Self {
        assert_eq!(
            outcomes.len(),
            column.distinct_count(),
            "one outcome per distinct value"
        );
        let mut stats = ChunkStats::default();
        let mut multiplicities = Vec::with_capacity(outcomes.len());
        for (outcome, value) in outcomes.iter().zip(column.distinct_values()) {
            stats.record_weighted(outcome, value.multiplicity());
            multiplicities.push(value.multiplicity() as u32);
        }
        BatchReport {
            target,
            outcomes,
            row_map: RowMap::Shared(column.row_map().clone()),
            stats,
            chunk_count: usize::from(!column.is_empty()),
            multiplicities: Some(multiplicities.into()),
        }
    }

    /// Append one chunk to this report, enforcing chunk order.
    ///
    /// # Panics
    ///
    /// Panics on out-of-order chunks, or if the report is columnar (those
    /// are built whole by [`BatchReport::columnar`]).
    pub fn push_chunk(&mut self, chunk: ChunkReport) {
        assert!(
            matches!(self.row_map, RowMap::Identity),
            "cannot append chunks to a columnar report"
        );
        assert_eq!(
            chunk.index, self.chunk_count,
            "chunk reports must merge in index order"
        );
        self.stats.absorb(&chunk.stats);
        self.outcomes.extend(chunk.into_row_outcomes());
        self.chunk_count += 1;
    }

    /// Re-verify this report against `new_program`, rewriting in place
    /// only the stored outcomes `delta` cannot prove stable.
    ///
    /// Every stored outcome keeps the original input recoverable
    /// (`Conforming`/`Flagged` carry the value, `Transformed` carries
    /// `from`), so an affected outcome is re-decided by running the new
    /// program on that input; unaffected outcomes — and the shared row
    /// map — are untouched. Cost is O(stored outcomes) cheap delta checks
    /// plus a full decide for the affected ones only; the multiplicity
    /// weights captured at construction make each stats adjustment O(1).
    ///
    /// `delta` must have been built with [`ProgramDelta::between`] from
    /// the program that produced this report to `new_program`; when the
    /// delta reports a target change the report's `target` follows the new
    /// program's.
    pub fn patch(&mut self, delta: &ProgramDelta, new_program: &CompiledProgram) -> PatchStats {
        self.patch_observed(delta, new_program, None)
    }

    /// [`BatchReport::patch`], additionally publishing the
    /// `engine.delta.{distincts_redecided,outcomes_patched}` counters.
    pub fn patch_observed(
        &mut self,
        delta: &ProgramDelta,
        new_program: &CompiledProgram,
        sink: Option<&Arc<dyn MetricSink>>,
    ) -> PatchStats {
        self.patch_inner(delta, new_program, sink, None)
    }

    /// [`BatchReport::patch`] for a columnar report still paired with the
    /// [`Column`] it was built over — the session's re-verification path.
    ///
    /// The column's per-distinct *cached leaf signatures* replace the
    /// patch's per-value tokenization: the affected-screen memoizes by
    /// dense leaf-id (one fused classification per distinct *leaf*, an
    /// integer map lookup per distinct value) and each re-decide
    /// dispatches through [`CompiledProgram::transform_one_by_leaf_id`]
    /// without re-tokenizing the input. Falls back to the self-contained
    /// [`BatchReport::patch_observed`] when `column` is not the report's
    /// own (different row map or distinct count) — answers are identical
    /// either way.
    pub fn patch_columnar(
        &mut self,
        delta: &ProgramDelta,
        new_program: &CompiledProgram,
        column: &Column,
    ) -> PatchStats {
        self.patch_columnar_observed(delta, new_program, column, None)
    }

    /// [`BatchReport::patch_columnar`], additionally publishing the
    /// `engine.delta.{distincts_redecided,outcomes_patched}` counters.
    pub fn patch_columnar_observed(
        &mut self,
        delta: &ProgramDelta,
        new_program: &CompiledProgram,
        column: &Column,
        sink: Option<&Arc<dyn MetricSink>>,
    ) -> PatchStats {
        let aligned = self.outcomes.len() == column.distinct_count()
            && matches!(&self.row_map, RowMap::Shared(map) if Arc::ptr_eq(map, column.row_map()));
        self.patch_inner(delta, new_program, sink, aligned.then_some(column))
    }

    fn patch_inner(
        &mut self,
        delta: &ProgramDelta,
        new_program: &CompiledProgram,
        sink: Option<&Arc<dyn MetricSink>>,
        column: Option<&Column>,
    ) -> PatchStats {
        debug_assert_eq!(
            new_program.instance(),
            delta.new_instance(),
            "patch must re-decide with the program the delta diffs to"
        );
        let mut patch = PatchStats {
            branches_changed: delta.branches_changed(),
            ..PatchStats::default()
        };
        if !delta.is_identity() {
            let mut cache = DispatchCache::new();
            // Screening memos: distincts sharing a leaf signature answer
            // the affected-check once, not once per value. With a column
            // the memo keys on the cached dense leaf-id; without one it
            // keys on the leaf pattern `affects_outcome_memo` tokenizes.
            let mut leaf_memo = std::collections::HashMap::new();
            let mut id_memo: std::collections::HashMap<u32, Option<(bool, bool)>> =
                std::collections::HashMap::new();
            for (index, outcome) in self.outcomes.iter_mut().enumerate() {
                let affected = match column {
                    Some(col) if !outcome.is_conforming() && !delta.target_changed() => {
                        let distinct = col.distinct(index);
                        debug_assert_eq!(
                            distinct.text(),
                            match &*outcome {
                                RowOutcome::Conforming { value }
                                | RowOutcome::Flagged { value } => value.as_str(),
                                RowOutcome::Transformed { from, .. } => from.as_str(),
                            },
                            "columnar outcome k must belong to distinct k"
                        );
                        let screen = *id_memo
                            .entry(distinct.leaf_id())
                            .or_insert_with(|| delta.screen_leaf(distinct.leaf()));
                        match screen {
                            Some(hits) => delta.hits_affect(outcome, hits),
                            None => delta.affects_outcome(outcome),
                        }
                    }
                    Some(_) => delta.affects_outcome(outcome),
                    None => delta.affects_outcome_memo(outcome, &mut leaf_memo),
                };
                if !affected {
                    continue;
                }
                patch.distincts_redecided += 1;
                let redecided = match column {
                    Some(col) => {
                        let distinct = col.distinct(index);
                        new_program.transform_one_by_leaf_id(
                            &mut cache,
                            col.interner_id(),
                            col.interner_generation(),
                            distinct.leaf_id(),
                            distinct.text(),
                            distinct.leaf(),
                        )
                    }
                    None => {
                        let input = match &*outcome {
                            RowOutcome::Conforming { value } | RowOutcome::Flagged { value } => {
                                value.clone()
                            }
                            RowOutcome::Transformed { from, .. } => from.clone(),
                        };
                        new_program.transform_one(&mut cache, &input)
                    }
                };
                if redecided != *outcome {
                    let weight = self
                        .multiplicities
                        .as_ref()
                        .map_or(1, |m| m[index] as usize);
                    self.stats.discount_weighted(outcome, weight);
                    self.stats.record_weighted(&redecided, weight);
                    *outcome = redecided;
                    patch.outcomes_patched += 1;
                }
            }
            if delta.target_changed() {
                self.target = new_program.target().clone();
            }
        }
        if let Some(sink) = sink {
            sink.counter(
                "engine.delta.distincts_redecided",
                patch.distincts_redecided as u64,
            );
            sink.counter(
                "engine.delta.outcomes_patched",
                patch.outcomes_patched as u64,
            );
        }
        patch
    }

    /// Number of rows covered by this report.
    pub fn len(&self) -> usize {
        match &self.row_map {
            RowMap::Identity => self.outcomes.len(),
            RowMap::Shared(map) => map.len(),
        }
    }

    /// `true` when the report covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when outcomes are stored per distinct value (one entry shared
    /// by all duplicate rows) rather than per row.
    pub fn is_columnar(&self) -> bool {
        matches!(self.row_map, RowMap::Shared(_))
    }

    /// The stored outcomes: one per *distinct* value for columnar reports,
    /// one per row otherwise.
    pub fn outcomes(&self) -> &[RowOutcome] {
        &self.outcomes
    }

    /// The outcome of row `index`.
    pub fn row(&self, index: usize) -> &RowOutcome {
        match &self.row_map {
            RowMap::Identity => &self.outcomes[index],
            RowMap::Shared(map) => &self.outcomes[map[index] as usize],
        }
    }

    /// Every row's outcome, in input order (duplicate rows yield the same
    /// `&RowOutcome` in a columnar report).
    pub fn iter_rows(&self) -> RowOutcomes<'_> {
        RowOutcomes {
            outcomes: &self.outcomes,
            map: match &self.row_map {
                RowMap::Identity => None,
                RowMap::Shared(map) => Some(map),
            },
            next: 0,
            len: self.len(),
        }
    }

    /// Materialize one owned outcome per row, in input order (cloning per
    /// duplicate row — the explicitly row-oriented escape hatch).
    pub fn into_row_outcomes(self) -> Vec<RowOutcome> {
        match self.row_map {
            RowMap::Identity => self.outcomes,
            RowMap::Shared(map) => map
                .iter()
                .map(|&i| self.outcomes[i as usize].clone())
                .collect(),
        }
    }

    /// The output column (one value per row, in input order).
    pub fn values(&self) -> Vec<String> {
        self.iter_rows().map(|r| r.value().to_string()).collect()
    }

    /// Borrowing iterator over every row's *output value*, in input order.
    /// Unlike [`BatchReport::values`] this materializes nothing: serving
    /// paths can stream the output column without one `String` per row.
    pub fn iter_values(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.iter_rows().map(RowOutcome::value)
    }

    /// Rows rewritten by a branch.
    pub fn transformed_count(&self) -> usize {
        self.stats.transformed
    }

    /// Rows that already matched the target.
    pub fn conforming_count(&self) -> usize {
        self.stats.conforming
    }

    /// Rows flagged for review.
    pub fn flagged_count(&self) -> usize {
        self.stats.flagged
    }

    /// The flagged values, in input order (one entry per flagged row).
    pub fn flagged_values(&self) -> Vec<&str> {
        self.iter_rows()
            .filter(|r| r.is_flagged())
            .map(|r| r.value())
            .collect()
    }

    /// `true` when every row's output matches the target pattern. Checked
    /// once per *stored* outcome, so O(distinct) on a columnar report.
    pub fn is_perfect(&self) -> bool {
        self.outcomes.iter().all(|o| self.target.matches(o.value()))
    }

    /// Fraction of rows whose output matches the target pattern. Pattern
    /// matching runs once per stored outcome; only the row-weighting pass
    /// touches every row.
    pub fn conformance_ratio(&self) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        let ok: Vec<bool> = self
            .outcomes
            .iter()
            .map(|o| self.target.matches(o.value()))
            .collect();
        let matching = match &self.row_map {
            RowMap::Identity => ok.iter().filter(|&&b| b).count(),
            RowMap::Shared(map) => map.iter().filter(|&&i| ok[i as usize]).count(),
        };
        matching as f64 / self.len() as f64
    }
}

/// Iterator over every row's outcome of a [`BatchReport`], in input order.
#[derive(Debug, Clone)]
pub struct RowOutcomes<'a> {
    outcomes: &'a [RowOutcome],
    map: Option<&'a [u32]>,
    next: usize,
    len: usize,
}

impl<'a> Iterator for RowOutcomes<'a> {
    type Item = &'a RowOutcome;

    fn next(&mut self) -> Option<&'a RowOutcome> {
        if self.next >= self.len {
            return None;
        }
        let stored = match self.map {
            Some(map) => map[self.next] as usize,
            None => self.next,
        };
        self.next += 1;
        Some(&self.outcomes[stored])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RowOutcomes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;

    fn chunk(index: usize, values: &[&str]) -> ChunkReport {
        ChunkReport::new(
            index,
            values
                .iter()
                .map(|v| RowOutcome::Flagged {
                    value: v.to_string(),
                })
                .collect(),
        )
    }

    #[test]
    fn chunk_report_counts() {
        let report = ChunkReport::new(
            0,
            vec![
                RowOutcome::Conforming { value: "a".into() },
                RowOutcome::Transformed {
                    from: "b".into(),
                    to: "c".into(),
                },
                RowOutcome::Flagged { value: "d".into() },
            ],
        );
        assert_eq!(report.stats.conforming, 1);
        assert_eq!(report.stats.transformed, 1);
        assert_eq!(report.stats.flagged, 1);
        assert_eq!(report.stats.rows(), 3);
    }

    #[test]
    fn merge_preserves_chunk_order() {
        let merged = BatchReport::from_chunks(
            tokenize("1"),
            vec![chunk(0, &["a", "b"]), chunk(1, &["c"]), chunk(2, &["d"])],
        );
        assert_eq!(merged.values(), vec!["a", "b", "c", "d"]);
        assert_eq!(merged.chunk_count, 3);
        assert_eq!(merged.len(), 4);
        assert!(!merged.is_columnar());
        assert_eq!(merged.flagged_count(), 4);
        assert_eq!(merged.flagged_values(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "index order")]
    fn out_of_order_chunks_are_rejected() {
        BatchReport::from_chunks(tokenize("1"), vec![chunk(1, &["a"])]);
    }

    #[test]
    fn columnar_report_stores_one_outcome_per_distinct_value() {
        let column = Column::from_values(&["a", "b", "a", "a", "b"]);
        let outcomes = vec![
            RowOutcome::Transformed {
                from: "a".into(),
                to: "A".into(),
            },
            RowOutcome::Flagged { value: "b".into() },
        ];
        let report = BatchReport::columnar(tokenize("X"), outcomes, &column);
        assert!(report.is_columnar());
        assert_eq!(report.outcomes().len(), 2);
        assert_eq!(report.len(), 5);
        // Stats are multiplicity-weighted.
        assert_eq!(report.transformed_count(), 3);
        assert_eq!(report.flagged_count(), 2);
        // Row-oriented access fans the decisions back out in input order.
        assert_eq!(report.values(), vec!["A", "b", "A", "A", "b"]);
        assert_eq!(report.row(3).value(), "A");
        assert_eq!(report.flagged_values(), vec!["b", "b"]);
        // Materializing rows clones per duplicate.
        assert_eq!(report.clone().into_row_outcomes().len(), 5);
        // The row map is shared with the column, not copied.
        let shared = match &report.row_map {
            RowMap::Shared(map) => map,
            RowMap::Identity => panic!("columnar report must share the map"),
        };
        assert!(Arc::ptr_eq(shared, column.row_map()));
    }

    #[test]
    fn columnar_report_of_empty_column_is_empty() {
        let report = BatchReport::columnar(tokenize("X"), Vec::new(), &Column::default());
        assert!(report.is_empty());
        assert_eq!(report.chunk_count, 0);
        assert_eq!(report.iter_rows().count(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot append chunks")]
    fn columnar_reports_reject_chunks() {
        let column = Column::from_values(&["a"]);
        let outcomes = vec![RowOutcome::Flagged { value: "a".into() }];
        let mut report = BatchReport::columnar(tokenize("X"), outcomes, &column);
        report.push_chunk(chunk(1, &["b"]));
    }

    #[test]
    fn iter_rows_is_exact_size() {
        let column = Column::from_values(&["a", "a", "b"]);
        let outcomes = vec![
            RowOutcome::Conforming { value: "a".into() },
            RowOutcome::Conforming { value: "b".into() },
        ];
        let report = BatchReport::columnar(tokenize("X"), outcomes, &column);
        let mut iter = report.iter_rows();
        assert_eq!(iter.len(), 3);
        iter.next();
        assert_eq!(iter.len(), 2);
    }

    #[test]
    fn row_outcome_accessors() {
        let t = RowOutcome::Transformed {
            from: "a".into(),
            to: "b".into(),
        };
        assert_eq!(t.value(), "b");
        assert!(t.is_transformed() && !t.is_flagged() && !t.is_conforming());
        assert_eq!(RowOutcome::Conforming { value: "x".into() }.value(), "x");
        assert_eq!(RowOutcome::Flagged { value: "y".into() }.value(), "y");
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = ChunkStats {
            transformed: 1,
            conforming: 2,
            flagged: 3,
        };
        a.absorb(&ChunkStats {
            transformed: 10,
            conforming: 20,
            flagged: 30,
        });
        assert_eq!(
            a,
            ChunkStats {
                transformed: 11,
                conforming: 22,
                flagged: 33,
            }
        );
    }

    mod patch {
        use super::*;
        use crate::delta::ProgramDelta;
        use crate::CompiledProgram;
        use clx_pattern::parse_pattern;
        use clx_unifi::{Branch, Expr, Program, StringExpr};

        /// digits → join; letters → join. `suffix` repairs the digit plan.
        fn program(suffix: &str) -> CompiledProgram {
            let digits = parse_pattern("<D>2'-'<D>2").unwrap();
            let letters = parse_pattern("<L>+'.'<L>+").unwrap();
            CompiledProgram::compile(
                &Program::new(vec![
                    Branch::new(
                        digits,
                        Expr::concat(vec![
                            StringExpr::extract(1),
                            StringExpr::extract(3),
                            StringExpr::const_str(suffix),
                        ]),
                    ),
                    Branch::new(
                        letters,
                        Expr::concat(vec![StringExpr::extract(1), StringExpr::extract(3)]),
                    ),
                ]),
                &parse_pattern("<AN>4").unwrap(),
            )
            .unwrap()
        }

        fn full_recompute(program: &CompiledProgram, column: &Column) -> BatchReport {
            let mut cache = crate::DispatchCache::new();
            let outcomes: Vec<RowOutcome> = column
                .distinct_values()
                .map(|v| program.transform_one(&mut cache, v.text()))
                .collect();
            BatchReport::columnar(program.target().clone(), outcomes, column)
        }

        #[test]
        fn patch_rewrites_only_affected_outcomes_and_matches_full_recompute() {
            // "cafe" conforms to <AN>4, "!!" is flagged either way.
            let column = Column::from_values(&["12-34", "ab.cd", "12-34", "cafe", "!!"]);
            let old = program("");
            let new = program("#");
            let mut report = full_recompute(&old, &column);
            let before: Vec<RowOutcome> = report.outcomes().to_vec();

            let delta = ProgramDelta::between(&old, &new);
            let stats = report.patch(&delta, &new);
            assert_eq!(stats.branches_changed, 2);
            assert_eq!(
                stats.distincts_redecided, 1,
                "only the digit distinct re-decides"
            );
            assert_eq!(stats.outcomes_patched, 1);

            let expected = full_recompute(&new, &column);
            assert_eq!(
                report.iter_rows().collect::<Vec<_>>(),
                expected.iter_rows().collect::<Vec<_>>()
            );
            assert_eq!(report.stats, expected.stats, "weighted stats re-balanced");
            // Everything the delta proved stable is byte-identical.
            for (i, outcome) in report.outcomes().iter().enumerate() {
                if before[i].value() != "1234" {
                    assert_eq!(outcome, &before[i]);
                }
            }
        }

        #[test]
        fn identity_patch_changes_nothing() {
            let column = Column::from_values(&["12-34", "ab.cd"]);
            let old = program("");
            let new = program("");
            let mut report = full_recompute(&old, &column);
            let before = report.clone();
            let delta = ProgramDelta::between(&old, &new);
            let stats = report.patch(&delta, &new);
            assert_eq!(stats, PatchStats::default());
            assert_eq!(
                report.iter_rows().collect::<Vec<_>>(),
                before.iter_rows().collect::<Vec<_>>()
            );
        }

        #[test]
        fn target_change_patch_re_decides_everything_and_retargets() {
            let column = Column::from_values(&["12-34", "cafe"]);
            let old = program("");
            let digits = parse_pattern("<D>2'-'<D>2").unwrap();
            let new = CompiledProgram::compile(
                &Program::new(vec![Branch::new(
                    digits,
                    Expr::concat(vec![StringExpr::extract(1), StringExpr::extract(3)]),
                )]),
                &parse_pattern("<D>+").unwrap(),
            )
            .unwrap();
            let mut report = full_recompute(&old, &column);
            let delta = ProgramDelta::between(&old, &new);
            let stats = report.patch(&delta, &new);
            assert_eq!(stats.distincts_redecided, 2, "target change affects all");
            assert_eq!(report.target, *new.target());
            let expected = full_recompute(&new, &column);
            assert_eq!(
                report.iter_rows().collect::<Vec<_>>(),
                expected.iter_rows().collect::<Vec<_>>()
            );
            assert_eq!(report.stats, expected.stats);
        }

        #[test]
        fn patch_columnar_equals_self_contained_patch() {
            let column = Column::from_values(&["12-34", "ab.cd", "12-34", "cafe", "!!"]);
            let old = program("");
            let new = program("#");
            let delta = ProgramDelta::between(&old, &new);
            let baseline = full_recompute(&old, &column);

            let mut self_contained = baseline.clone();
            let generic_stats = self_contained.patch(&delta, &new);
            let mut columnar = baseline.clone();
            let columnar_stats = columnar.patch_columnar(&delta, &new, &column);
            assert_eq!(columnar_stats, generic_stats, "same screen, same counts");
            assert_eq!(
                columnar.iter_rows().collect::<Vec<_>>(),
                self_contained.iter_rows().collect::<Vec<_>>()
            );
            assert_eq!(columnar.stats, self_contained.stats);

            // A column that is not the report's own (same values, different
            // row-map Arc) silently falls back to the self-contained path.
            let stranger = Column::from_values(&["12-34", "ab.cd", "12-34", "cafe", "!!"]);
            let mut fallback = baseline.clone();
            let fallback_stats = fallback.patch_columnar(&delta, &new, &stranger);
            assert_eq!(fallback_stats, generic_stats);
            assert_eq!(
                fallback.iter_rows().collect::<Vec<_>>(),
                self_contained.iter_rows().collect::<Vec<_>>()
            );
        }
    }
}
