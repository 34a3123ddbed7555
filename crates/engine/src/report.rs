//! The one columnar execution report.
//!
//! Every executor stores its outcomes *columnar*: a list of stored
//! [`RowOutcome`]s — one per distinct value — plus a row→outcome map, in a
//! [`TransformReport`]. A report built over a [`Column`]
//! ([`crate::CompiledProgram::execute_column`]) shares the column's row
//! map by reference count; a report of one chunk (a streamed chunk, or one
//! block of [`crate::CompiledProgram::execute`]) owns its chunk's row map,
//! and chunk reports merge, in order, into one report
//! ([`TransformReport::from_chunks`]) by moving their outcomes and
//! offsetting their row maps. Either way a duplicate-heavy report costs
//! O(distinct) outcomes. An outcome holds its output as a shared
//! `Arc<str>`, so even a copied outcome — a stream replaying a stored
//! decision into a later chunk, or a row-oriented copy — is a
//! reference-count bump, never a string copy. Every report carries
//! [`ChunkStats`], a small commutative summary that also powers the
//! streaming API.

use std::sync::Arc;

use clx_column::Column;
use clx_pattern::Pattern;

/// The outcome of the batch executor for one input row.
///
/// Mirrors the sequential session semantics exactly: rows already in the
/// target pattern are left untouched, rows matching a branch are rewritten,
/// and rows matching nothing are left unchanged and flagged for review
/// (§6.1 of the paper).
///
/// An outcome carries only the row's *output*, as shared immutable text:
/// cloning an outcome bumps a reference count. The input is the row
/// itself, which the caller's column or interner already holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOutcome {
    /// The row already matched the target pattern.
    Conforming {
        /// The (unchanged) value.
        value: Arc<str>,
    },
    /// A branch of the compiled program transformed the row.
    Transformed {
        /// The transformed value.
        to: Arc<str>,
    },
    /// No branch matched; the row is left unchanged and flagged.
    Flagged {
        /// The (unchanged) value.
        value: Arc<str>,
    },
}

impl RowOutcome {
    /// The output value of the row.
    pub fn value(&self) -> &str {
        match self {
            RowOutcome::Conforming { value } | RowOutcome::Flagged { value } => value,
            RowOutcome::Transformed { to } => to,
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

    /// Fold another chunk's counters into this one.
    pub fn absorb(&mut self, other: &ChunkStats) {
        self.transformed += other.transformed;
        self.conforming += other.conforming;
        self.flagged += other.flagged;
    }
}

/// A column-level report — the one report every entry point returns, and
/// what the user verifies: every row's outcome, stored columnar — one
/// outcome per distinct value plus a row→outcome map.
///
/// Reports from [`crate::CompiledProgram::execute_column`] store one
/// outcome per distinct value of the column and share the column's row
/// map; a pushed chunk ([`crate::ColumnStream::push_rows`]) stores one
/// outcome per distinct value of the chunk, and reports merged from chunks
/// ([`crate::CompiledProgram::execute`], [`TransformReport::from_chunks`])
/// one per distinct value of each chunk. All answer row-oriented queries
/// identically, and compare equal when they say the same about every row.
#[derive(Debug, Clone)]
pub struct TransformReport {
    /// The target pattern the program was compiled against, shared with
    /// the program and with every other report it built.
    pub target: Arc<Pattern>,
    /// Stored outcomes, one per distinct value (per chunk, for merged
    /// reports).
    outcomes: Vec<RowOutcome>,
    /// Row index -> stored outcome index; a column report shares its
    /// column's map by reference count.
    row_map: Arc<[u32]>,
    /// Counters over all rows (multiplicity-weighted).
    pub stats: ChunkStats,
    /// Number of chunks merged into this report (1 for a chunk's report
    /// and for a non-empty column report, which is built whole).
    pub chunk_count: usize,
}

impl TransformReport {
    /// An empty report for `target`.
    pub fn empty(target: Arc<Pattern>) -> Self {
        TransformReport {
            target,
            outcomes: Vec::new(),
            row_map: Arc::from(Vec::new()),
            stats: ChunkStats::default(),
            chunk_count: 0,
        }
    }

    /// The report of one chunk: `outcomes[k]` is the decision for the
    /// `k`-th distinct value appearing in the chunk, and `row_map[r]` names
    /// the outcome of row `r`. Stats are multiplicity-weighted, so
    /// construction is O(rows) integer work plus O(distinct-in-chunk)
    /// outcomes — never a per-duplicate outcome clone.
    ///
    /// # Panics
    ///
    /// Panics if a `row_map` entry does not index `outcomes`.
    pub(crate) fn of_chunk(
        target: Arc<Pattern>,
        outcomes: Vec<RowOutcome>,
        row_map: Vec<u32>,
    ) -> Self {
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
        TransformReport {
            target,
            outcomes,
            row_map: row_map.into(),
            stats,
            chunk_count: 1,
        }
    }

    /// Merge reports, in vector order, into one report over `target`. The
    /// chunks' outcomes are moved, not cloned: the merged report
    /// concatenates them and offsets each chunk's row map.
    pub fn from_chunks(target: Arc<Pattern>, chunks: Vec<TransformReport>) -> Self {
        let rows = chunks.iter().map(TransformReport::len).sum();
        let mut outcomes = Vec::with_capacity(chunks.iter().map(|c| c.outcomes.len()).sum());
        let mut row_map = Vec::with_capacity(rows);
        let mut stats = ChunkStats::default();
        let mut chunk_count = 0;
        for chunk in chunks {
            let offset =
                u32::try_from(outcomes.len()).expect("report exceeds u32 outcome indexing");
            row_map.extend(chunk.row_map.iter().map(|&stored| stored + offset));
            outcomes.extend(chunk.outcomes);
            stats.absorb(&chunk.stats);
            chunk_count += chunk.chunk_count;
        }
        TransformReport {
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
    pub fn columnar(target: Arc<Pattern>, outcomes: Vec<RowOutcome>, column: &Column) -> Self {
        assert_eq!(
            outcomes.len(),
            column.distinct_count(),
            "one outcome per distinct value"
        );
        let mut stats = ChunkStats::default();
        for (outcome, value) in outcomes.iter().zip(column.distinct_values()) {
            stats.record_weighted(outcome, value.multiplicity());
        }
        TransformReport {
            target,
            outcomes,
            row_map: column.row_map().clone(),
            stats,
            chunk_count: usize::from(!column.is_empty()),
        }
    }

    /// `true` when this report was built over `column` (by
    /// [`crate::CompiledProgram::execute_column`] or
    /// [`TransformReport::columnar`]): it stores one outcome per distinct value
    /// of `column` and shares the column's row map. A report over another
    /// column — even one with equal values — or one merged from chunks is
    /// not.
    pub fn is_built_over(&self, column: &Column) -> bool {
        self.outcomes.len() == column.distinct_count()
            && Arc::ptr_eq(&self.row_map, column.row_map())
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

    /// Materialize one outcome per row, in input order (the explicitly
    /// row-oriented escape hatch: duplicate rows share their output text,
    /// so each extra row costs a reference-count bump).
    pub fn into_row_outcomes(self) -> Vec<RowOutcome> {
        self.iter_rows().cloned().collect()
    }

    /// The output column (one value per row, in input order).
    pub fn values(&self) -> Vec<String> {
        self.iter_rows().map(|r| r.value().to_string()).collect()
    }

    /// Borrowing iterator over every row's *output value*, in input order.
    /// Unlike [`TransformReport::values`] this materializes nothing:
    /// serving paths can stream the output column without one `String` per
    /// row.
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

/// Reports compare by what they say about every row: same target, same
/// per-row outcomes in order — regardless of how the outcomes are stored
/// (per distinct value of a column, or of each merged chunk).
impl PartialEq for TransformReport {
    fn eq(&self, other: &Self) -> bool {
        self.target == other.target
            && self.len() == other.len()
            && self.iter_rows().eq(other.iter_rows())
    }
}

impl Eq for TransformReport {}

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
    fn chunk(values: &[&str]) -> TransformReport {
        let column = Column::from_values(values);
        let outcomes = column
            .distinct_values()
            .map(|v| RowOutcome::Flagged {
                value: v.text().into(),
            })
            .collect();
        TransformReport::of_chunk(tokenize("1").into(), outcomes, column.row_map().to_vec())
    }

    #[test]
    fn chunk_report_counts() {
        let report = TransformReport::of_chunk(
            tokenize("1").into(),
            vec![
                RowOutcome::Conforming { value: "a".into() },
                RowOutcome::Transformed { to: "c".into() },
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
        assert_eq!(report.chunk_count, 1);
    }

    #[test]
    fn merge_preserves_chunk_order() {
        let merged = TransformReport::from_chunks(
            tokenize("1").into(),
            vec![chunk(&["a", "b", "a"]), chunk(&["c"]), chunk(&["d", "a"])],
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
    fn columnar_report_stores_one_outcome_per_distinct_value() {
        let column = Column::from_values(&["a", "b", "a", "a", "b"]);
        let outcomes = vec![
            RowOutcome::Transformed { to: "A".into() },
            RowOutcome::Flagged { value: "b".into() },
        ];
        let report = TransformReport::columnar(tokenize("X").into(), outcomes, &column);
        assert_eq!(report.outcomes().len(), 2);
        assert_eq!(report.len(), 5);
        // Stats are multiplicity-weighted.
        assert_eq!(report.transformed_count(), 3);
        assert_eq!(report.flagged_count(), 2);
        // Row-oriented access fans the decisions back out in input order.
        assert_eq!(report.values(), vec!["A", "b", "A", "A", "b"]);
        assert_eq!(report.row(3).value(), "A");
        assert_eq!(report.flagged_values(), vec!["b", "b"]);
        // Materializing rows shares each distinct output, never copies it.
        let rows = report.clone().into_row_outcomes();
        assert_eq!(rows.len(), 5);
        assert!(std::ptr::eq(
            rows[0].value().as_ptr(),
            rows[3].value().as_ptr()
        ));
        // The row map is shared with the column, not copied.
        assert!(Arc::ptr_eq(&report.row_map, column.row_map()));
    }

    #[test]
    fn columnar_report_of_empty_column_is_empty() {
        let report =
            TransformReport::columnar(tokenize("X").into(), Vec::new(), &Column::default());
        assert!(report.is_empty());
        assert_eq!(report.chunk_count, 0);
        assert_eq!(report.iter_rows().count(), 0);
    }

    #[test]
    fn perfection_and_conformance() {
        let column = Column::from_values(&["734-422-8073", "(734) 645-8397", "N/A"]);
        let outcomes = vec![
            RowOutcome::Conforming {
                value: "734-422-8073".into(),
            },
            RowOutcome::Transformed {
                to: "734-645-8397".into(),
            },
            RowOutcome::Flagged {
                value: "N/A".into(),
            },
        ];
        let report = TransformReport::columnar(tokenize("734-422-8073").into(), outcomes, &column);
        assert!(!report.is_perfect());
        assert!((report.conformance_ratio() - 2.0 / 3.0).abs() < 1e-9);

        let perfect = TransformReport::columnar(
            tokenize("734-422-8073").into(),
            vec![RowOutcome::Transformed {
                to: "555-111-2222".into(),
            }],
            &Column::from_values(&["x"]),
        );
        assert!(perfect.is_perfect());
        assert_eq!(perfect.conformance_ratio(), 1.0);
    }

    #[test]
    fn empty_report_is_perfect() {
        let report = TransformReport::empty(tokenize("1").into());
        assert!(report.is_perfect());
        assert!(report.is_empty());
        assert_eq!(report.conformance_ratio(), 1.0);
    }

    #[test]
    fn columnar_and_row_reports_compare_equal() {
        // Same logical rows, different storage: equality is by row.
        let column = Column::from_values(&["a-1", "N/A", "a-1"]);
        let conforming = RowOutcome::Conforming {
            value: "a-1".into(),
        };
        let flagged = RowOutcome::Flagged {
            value: "N/A".into(),
        };
        let by_column = TransformReport::columnar(
            tokenize("a-1").into(),
            vec![conforming.clone(), flagged.clone()],
            &column,
        );
        let by_chunk = TransformReport::from_chunks(
            tokenize("a-1").into(),
            vec![TransformReport::of_chunk(
                tokenize("a-1").into(),
                vec![conforming.clone(), flagged, conforming],
                vec![0, 1, 2],
            )],
        );
        assert_eq!(by_column, by_chunk);
        assert_eq!(by_column.outcomes().len(), 2);
        assert_eq!(by_chunk.outcomes().len(), 3);
        // The same rows under another target are another report.
        let retargeted = TransformReport {
            target: tokenize("X").into(),
            ..by_column.clone()
        };
        assert_ne!(retargeted, by_chunk);
    }

    #[test]
    fn iter_rows_is_exact_size() {
        let column = Column::from_values(&["a", "a", "b"]);
        let outcomes = vec![
            RowOutcome::Conforming { value: "a".into() },
            RowOutcome::Conforming { value: "b".into() },
        ];
        let report = TransformReport::columnar(tokenize("X").into(), outcomes, &column);
        let mut iter = report.iter_rows();
        assert_eq!(iter.len(), 3);
        iter.next();
        assert_eq!(iter.len(), 2);
    }

    #[test]
    fn row_outcome_accessors() {
        let t = RowOutcome::Transformed { to: "b".into() };
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

    #[test]
    fn is_built_over_only_its_own_column() {
        let values = ["12-34", "ab.cd", "12-34", "!!"];
        let column = Column::from_values(&values);
        let outcomes = column
            .distinct_values()
            .map(|v| RowOutcome::Flagged {
                value: v.text().into(),
            })
            .collect();
        let report = TransformReport::columnar(tokenize("X").into(), outcomes, &column);
        assert!(report.is_built_over(&column));
        // Same values, separately built: a different row map, so the
        // report's outcome k is not known to belong to its distinct k.
        assert!(!report.is_built_over(&Column::from_values(&values)));
        // A report merged from chunks shares no column's row map.
        let merged = TransformReport::from_chunks(tokenize("X").into(), vec![chunk(&values)]);
        assert!(!merged.is_built_over(&column));
    }
}
