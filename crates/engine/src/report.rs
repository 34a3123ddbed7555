//! Mergeable, columnar execution reports.
//!
//! Every executor stores its outcomes *columnar*: a list of stored
//! [`RowOutcome`]s — one per distinct value — plus a row→outcome map. A
//! [`ChunkReport`] covers one chunk (a streamed chunk, or one block of
//! [`crate::CompiledProgram::execute`]); chunk reports merge, in chunk
//! order, into a column-level [`BatchReport`] by moving their outcomes and
//! offsetting their row maps. A report built over a [`Column`]
//! ([`crate::CompiledProgram::execute_column`]) shares the column's row
//! map by reference count. Either way a duplicate-heavy report costs
//! O(distinct) outcomes — none is ever cloned per duplicate row. Both
//! carry [`ChunkStats`], a small commutative summary that also powers the
//! streaming API.

use std::collections::HashMap;
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
/// Published (by [`BatchReport::patch_observed`]) as the
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

    /// The input value the outcome was decided for.
    pub(crate) fn input(&self) -> &str {
        match self {
            RowOutcome::Conforming { value } | RowOutcome::Flagged { value } => value,
            RowOutcome::Transformed { from, .. } => from,
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
/// Like [`BatchReport`], a chunk report stores its outcomes *columnar*: one
/// outcome per distinct value appearing in the chunk plus the chunk's
/// row→distinct map — O(distinct-in-chunk), no per-duplicate clones.
/// Row-oriented access ([`ChunkReport::iter_rows`], [`ChunkReport::row`],
/// [`ChunkReport::into_row_outcomes`]) fans the decisions back out.
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Zero-based position of the chunk within the column (or stream).
    pub index: usize,
    /// Stored outcomes, one per distinct-in-chunk value.
    outcomes: Vec<RowOutcome>,
    /// Row index -> stored outcome index.
    map: Vec<u32>,
    /// Counters over the chunk's rows (multiplicity-weighted).
    pub stats: ChunkStats,
}

impl ChunkReport {
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
            map: row_map,
            stats,
        }
    }

    /// Number of rows covered by this chunk.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the chunk covers no rows.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The stored outcomes, one per distinct-in-chunk value.
    pub fn outcomes(&self) -> &[RowOutcome] {
        &self.outcomes
    }

    /// The outcome of row `index` within the chunk.
    pub fn row(&self, index: usize) -> &RowOutcome {
        &self.outcomes[self.map[index] as usize]
    }

    /// Every row's outcome, in chunk row order (duplicate rows yield the
    /// same `&RowOutcome`).
    pub fn iter_rows(&self) -> RowOutcomes<'_> {
        RowOutcomes::new(&self.outcomes, &self.map)
    }

    /// Borrowing iterator over every row's *output value*, in chunk row
    /// order — the allocation-free way to hand streamed rows to a sink.
    pub fn iter_values(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.iter_rows().map(RowOutcome::value)
    }

    /// Materialize one owned outcome per row, in chunk row order (cloning
    /// per duplicate row — the row-oriented escape hatch).
    pub fn into_row_outcomes(self) -> Vec<RowOutcome> {
        self.iter_rows().cloned().collect()
    }
}

/// A column-level report: every row's outcome, stored columnar — one
/// outcome per distinct value plus a row→outcome map.
///
/// Reports from [`crate::CompiledProgram::execute_column`] store one
/// outcome per distinct value of the column and share the column's row
/// map; reports merged from chunks ([`crate::CompiledProgram::execute`],
/// [`BatchReport::from_chunks`]) store one outcome per distinct value of
/// each chunk. Both answer row-oriented queries identically.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The target pattern the program was compiled against.
    pub target: Pattern,
    /// Stored outcomes, one per distinct value (per chunk, for merged
    /// reports).
    outcomes: Vec<RowOutcome>,
    /// Row index -> stored outcome index; a column report shares its
    /// column's map by reference count.
    row_map: Arc<[u32]>,
    /// Counters over all rows (multiplicity-weighted).
    pub stats: ChunkStats,
    /// Number of chunks merged into this report (1 for a non-empty column
    /// report, which is built whole).
    pub chunk_count: usize,
}

impl BatchReport {
    /// An empty report for `target`.
    pub fn empty(target: Pattern) -> Self {
        BatchReport {
            target,
            outcomes: Vec::new(),
            row_map: Arc::from(Vec::new()),
            stats: ChunkStats::default(),
            chunk_count: 0,
        }
    }

    /// Merge chunk reports (sorted by `index`) into a column-level report.
    /// The chunks' outcomes are moved, not cloned: the merged report
    /// concatenates them and offsets each chunk's row map.
    ///
    /// # Panics
    ///
    /// Panics if the chunks are not in ascending `index` order — that would
    /// silently permute the output column.
    pub fn from_chunks(target: Pattern, chunks: Vec<ChunkReport>) -> Self {
        let rows = chunks.iter().map(ChunkReport::len).sum();
        let mut outcomes = Vec::with_capacity(chunks.iter().map(|c| c.outcomes.len()).sum());
        let mut row_map = Vec::with_capacity(rows);
        let mut stats = ChunkStats::default();
        let chunk_count = chunks.len();
        for (position, chunk) in chunks.into_iter().enumerate() {
            assert_eq!(
                chunk.index, position,
                "chunk reports must merge in index order"
            );
            let offset =
                u32::try_from(outcomes.len()).expect("report exceeds u32 outcome indexing");
            row_map.extend(chunk.map.iter().map(|&stored| stored + offset));
            outcomes.extend(chunk.outcomes);
            stats.absorb(&chunk.stats);
        }
        BatchReport {
            target,
            outcomes,
            row_map: row_map.into(),
            stats,
            chunk_count,
        }
    }

    /// Build a column report: `outcomes[k]` is the decision for the `k`-th
    /// distinct value of `column`, fanned out to every duplicate row
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
        for (outcome, value) in outcomes.iter().zip(column.distinct_values()) {
            stats.record_weighted(outcome, value.multiplicity());
        }
        BatchReport {
            target,
            outcomes,
            row_map: column.row_map().clone(),
            stats,
            chunk_count: usize::from(!column.is_empty()),
        }
    }

    /// Re-verify this report against `new_program`, rewriting in place
    /// only the stored outcomes `delta` cannot prove stable.
    ///
    /// `column` must be the [`Column`] this report was built over (by
    /// [`crate::CompiledProgram::execute_column`] or
    /// [`BatchReport::columnar`]): its per-distinct *cached leaf
    /// signatures* drive the patch. The affected-screen memoizes by dense
    /// leaf-id (one fused classification per distinct *leaf*, an integer
    /// map lookup per distinct value), and each re-decide dispatches
    /// through [`CompiledProgram::transform_one_by_leaf_id`] without
    /// re-tokenizing the input. Unaffected outcomes — and the shared row
    /// map — are untouched; each stats adjustment is O(1) through the
    /// column's multiplicities.
    ///
    /// Returns `None` — the refusal — when `column` is not the report's
    /// own (a different row map or distinct count); the report is then
    /// left untouched.
    ///
    /// `delta` must have been built with [`ProgramDelta::between`] from
    /// the program that produced this report to `new_program`; when the
    /// delta reports a target change the report's `target` follows the new
    /// program's.
    #[must_use = "a `None` result means the patch was refused"]
    pub fn patch(
        &mut self,
        delta: &ProgramDelta,
        new_program: &CompiledProgram,
        column: &Column,
    ) -> Option<PatchStats> {
        self.patch_observed(delta, new_program, column, None)
    }

    /// [`BatchReport::patch`], additionally publishing the
    /// `engine.delta.{distincts_redecided,outcomes_patched}` counters
    /// (nothing is published on a refusal).
    #[must_use = "a `None` result means the patch was refused"]
    pub fn patch_observed(
        &mut self,
        delta: &ProgramDelta,
        new_program: &CompiledProgram,
        column: &Column,
        sink: Option<&Arc<dyn MetricSink>>,
    ) -> Option<PatchStats> {
        debug_assert_eq!(
            new_program.instance(),
            delta.new_instance(),
            "patch must re-decide with the program the delta diffs to"
        );
        if self.outcomes.len() != column.distinct_count()
            || !Arc::ptr_eq(&self.row_map, column.row_map())
        {
            return None;
        }
        let mut patch = PatchStats {
            branches_changed: delta.branches_changed(),
            ..PatchStats::default()
        };
        if !delta.is_identity() {
            let mut cache = DispatchCache::new();
            // Distincts sharing a leaf signature answer the affected-check
            // once, not once per value.
            let mut screen = HashMap::new();
            for (index, outcome) in self.outcomes.iter_mut().enumerate() {
                let distinct = column.distinct(index);
                debug_assert_eq!(
                    distinct.text(),
                    outcome.input(),
                    "columnar outcome k must belong to distinct k"
                );
                if !delta.affects_interned(
                    outcome,
                    distinct.leaf_id(),
                    distinct.leaf(),
                    &mut screen,
                ) {
                    continue;
                }
                patch.distincts_redecided += 1;
                let redecided = new_program.transform_one_by_leaf_id(
                    &mut cache,
                    column.interner_id(),
                    column.interner_generation(),
                    distinct.leaf_id(),
                    distinct.text(),
                    distinct.leaf(),
                );
                if redecided != *outcome {
                    let weight = distinct.multiplicity();
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
        Some(patch)
    }

    /// Number of rows covered by this report.
    pub fn len(&self) -> usize {
        self.row_map.len()
    }

    /// `true` when the report covers no rows.
    pub fn is_empty(&self) -> bool {
        self.row_map.is_empty()
    }

    /// The stored outcomes: one per *distinct* value (of the column, or of
    /// each merged chunk).
    pub fn outcomes(&self) -> &[RowOutcome] {
        &self.outcomes
    }

    /// The outcome of row `index`.
    pub fn row(&self, index: usize) -> &RowOutcome {
        &self.outcomes[self.row_map[index] as usize]
    }

    /// Every row's outcome, in input order (duplicate rows yield the same
    /// `&RowOutcome`).
    pub fn iter_rows(&self) -> RowOutcomes<'_> {
        RowOutcomes::new(&self.outcomes, &self.row_map)
    }

    /// Materialize one owned outcome per row, in input order (cloning per
    /// duplicate row — the explicitly row-oriented escape hatch).
    pub fn into_row_outcomes(self) -> Vec<RowOutcome> {
        self.iter_rows().cloned().collect()
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
    /// once per *stored* outcome, so O(distinct).
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
        let matching = self.row_map.iter().filter(|&&i| ok[i as usize]).count();
        matching as f64 / self.len() as f64
    }
}

/// Iterator over every row's outcome of a report, in input order.
#[derive(Debug, Clone)]
pub struct RowOutcomes<'a> {
    outcomes: &'a [RowOutcome],
    map: std::slice::Iter<'a, u32>,
}

impl<'a> RowOutcomes<'a> {
    fn new(outcomes: &'a [RowOutcome], map: &'a [u32]) -> Self {
        RowOutcomes {
            outcomes,
            map: map.iter(),
        }
    }
}

impl<'a> Iterator for RowOutcomes<'a> {
    type Item = &'a RowOutcome;

    fn next(&mut self) -> Option<&'a RowOutcome> {
        self.map
            .next()
            .map(|&stored| &self.outcomes[stored as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.map.size_hint()
    }
}

impl ExactSizeIterator for RowOutcomes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;

    /// A chunk flagging every value, one stored outcome per distinct value.
    fn chunk(index: usize, values: &[&str]) -> ChunkReport {
        let column = Column::from_values(values);
        let outcomes = column
            .distinct_values()
            .map(|v| RowOutcome::Flagged {
                value: v.text().to_string(),
            })
            .collect();
        ChunkReport::columnar(index, outcomes, column.row_map().to_vec())
    }

    #[test]
    fn chunk_report_counts() {
        let report = ChunkReport::columnar(
            0,
            vec![
                RowOutcome::Conforming { value: "a".into() },
                RowOutcome::Transformed {
                    from: "b".into(),
                    to: "c".into(),
                },
                RowOutcome::Flagged { value: "d".into() },
            ],
            vec![0, 1, 2, 1],
        );
        assert_eq!(report.stats.conforming, 1);
        assert_eq!(report.stats.transformed, 2);
        assert_eq!(report.stats.flagged, 1);
        assert_eq!(report.stats.rows(), 4);
        assert_eq!(report.len(), 4);
        assert_eq!(report.row(3).value(), "c");
    }

    #[test]
    fn merge_preserves_chunk_order() {
        let merged = BatchReport::from_chunks(
            tokenize("1"),
            vec![
                chunk(0, &["a", "b", "a"]),
                chunk(1, &["c"]),
                chunk(2, &["d", "a"]),
            ],
        );
        assert_eq!(merged.values(), vec!["a", "b", "a", "c", "d", "a"]);
        assert_eq!(merged.chunk_count, 3);
        assert_eq!(merged.len(), 6);
        // Outcomes moved in per chunk, row maps offset.
        assert_eq!(merged.outcomes().len(), 5);
        assert_eq!(merged.row(5).value(), "a");
        assert_eq!(merged.flagged_count(), 6);
        assert_eq!(merged.flagged_values(), vec!["a", "b", "a", "c", "d", "a"]);
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
        assert!(Arc::ptr_eq(&report.row_map, column.row_map()));
    }

    #[test]
    fn columnar_report_of_empty_column_is_empty() {
        let report = BatchReport::columnar(tokenize("X"), Vec::new(), &Column::default());
        assert!(report.is_empty());
        assert_eq!(report.chunk_count, 0);
        assert_eq!(report.iter_rows().count(), 0);
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
            program.execute_column(column)
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
            let stats = report.patch(&delta, &new, &column).unwrap();
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
            let stats = report.patch(&delta, &new, &column).unwrap();
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
            let stats = report.patch(&delta, &new, &column).unwrap();
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
        fn patch_refuses_a_column_that_is_not_the_reports_own() {
            let values = ["12-34", "ab.cd", "12-34", "cafe", "!!"];
            let column = Column::from_values(&values);
            let old = program("");
            let new = program("#");
            let delta = ProgramDelta::between(&old, &new);
            let baseline = full_recompute(&old, &column);

            // Same values, separately built: a different row map, so the
            // report's outcome k is not known to belong to its distinct k.
            let stranger = Column::from_values(&values);
            let mut refused = baseline.clone();
            assert_eq!(refused.patch(&delta, &new, &stranger), None);
            assert!(refused.iter_rows().eq(baseline.iter_rows()));
            assert_eq!(refused.stats, baseline.stats);

            // A report merged from chunks shares no column's row map.
            let mut merged = new.execute(&values);
            let before = merged.clone();
            assert_eq!(merged.patch(&delta, &new, &column), None);
            assert!(merged.iter_rows().eq(before.iter_rows()));

            // The report's own column is accepted.
            let mut own = baseline.clone();
            assert!(own.patch(&delta, &new, &column).is_some());
            assert!(own
                .iter_rows()
                .eq(full_recompute(&new, &column).iter_rows()));
        }
    }
}
