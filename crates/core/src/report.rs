//! The result of applying a synthesized program to a whole column.
//!
//! A [`TransformReport`] is *columnar*: it wraps the engine's
//! [`BatchReport`], which stores one [`RowOutcome`] per **distinct** value
//! plus a reference-counted clone of the column's row→distinct map. On a
//! duplicate-heavy column the report therefore costs O(distinct) to build
//! and hold — no outcome is ever cloned per duplicate row — while the
//! row-oriented accessors ([`TransformReport::iter_rows`],
//! [`TransformReport::row`], [`TransformReport::values`]) remain
//! row-for-row identical to the old one-outcome-per-row report.

use std::sync::Arc;

use clx_engine::{BatchReport, CompiledProgram, RowOutcomes};
use clx_pattern::Pattern;

pub use clx_engine::RowOutcome;

/// A column-level transformation report: every row's outcome (stored once
/// per distinct value), plus the target pattern the run was labelled with.
#[derive(Debug, Clone)]
pub struct TransformReport {
    batch: BatchReport,
    /// The compiled program that produced the outcomes, shared with the
    /// session that ran it. [`ClxSession::reverify`] refuses a report
    /// without one. `None` for reports assembled outside a session.
    ///
    /// [`ClxSession::reverify`]: crate::ClxSession::reverify
    provenance: Option<Arc<CompiledProgram>>,
}

impl TransformReport {
    /// Wrap a `clx-engine` batch report. This is **zero-copy**: the engine
    /// and the session share one outcome representation, so the stored
    /// outcomes and the row map move in unchanged.
    pub fn from_batch(batch: BatchReport) -> Self {
        TransformReport {
            batch,
            provenance: None,
        }
    }

    /// The compiled program that produced this report, when it was
    /// produced by [`ClxSession::apply`](crate::ClxSession::apply) or
    /// [`ClxSession::reverify`](crate::ClxSession::reverify); `None` for
    /// hand-assembled reports, which `reverify` refuses.
    pub fn provenance(&self) -> Option<&CompiledProgram> {
        self.provenance.as_deref()
    }

    /// Record the compiled program that produced this report.
    pub(crate) fn set_provenance(&mut self, program: Arc<CompiledProgram>) {
        self.provenance = Some(program);
    }

    /// The wrapped engine report (for `reverify`'s foreign-report check).
    pub(crate) fn batch(&self) -> &BatchReport {
        &self.batch
    }

    /// The labelled target pattern.
    pub fn target(&self) -> &Pattern {
        &self.batch.target
    }

    /// Number of rows covered by this report.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// `true` when the report covers no rows.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The stored outcomes, one per *distinct* value. For a session report
    /// `distinct_outcomes()[k]` is the decision for the `k`-th distinct
    /// value of the session's column, in first-occurrence order (a report
    /// merged from chunks stores one per distinct value of each chunk).
    pub fn distinct_outcomes(&self) -> &[RowOutcome] {
        self.batch.outcomes()
    }

    /// The outcome of row `index`.
    pub fn row(&self, index: usize) -> &RowOutcome {
        self.batch.row(index)
    }

    /// Every row's outcome, in input order (duplicate rows yield the same
    /// `&RowOutcome`).
    pub fn iter_rows(&self) -> RowOutcomes<'_> {
        self.batch.iter_rows()
    }

    /// The output column (one value per row, in input order).
    pub fn values(&self) -> Vec<String> {
        self.batch.values()
    }

    /// Borrowing iterator over every row's *output value*, in input order.
    ///
    /// Unlike [`TransformReport::values`] this materializes no `String`s:
    /// duplicate rows yield the same `&str` out of the stored outcome, so a
    /// serving path can write the whole output column through without one
    /// allocation per row.
    pub fn iter_values(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.batch.iter_values()
    }

    /// Number of rows actively transformed.
    pub fn transformed_count(&self) -> usize {
        self.batch.transformed_count()
    }

    /// Number of rows that already matched the target.
    pub fn conforming_count(&self) -> usize {
        self.batch.conforming_count()
    }

    /// Number of rows flagged for review.
    pub fn flagged_count(&self) -> usize {
        self.batch.flagged_count()
    }

    /// The flagged values, in input order (one entry per flagged row — the
    /// review step the paper describes).
    pub fn flagged_values(&self) -> Vec<&str> {
        self.batch.flagged_values()
    }

    /// `true` when every row now matches the target pattern (the paper's
    /// definition of a "perfect" program, §7.4). Checked once per stored
    /// outcome, so O(distinct) on a columnar report.
    pub fn is_perfect(&self) -> bool {
        self.batch.is_perfect()
    }

    /// Fraction of rows whose output matches the target pattern.
    pub fn conformance_ratio(&self) -> f64 {
        self.batch.conformance_ratio()
    }
}

/// Reports compare by what they say about every row: same target, same
/// per-row outcomes in order — regardless of how the outcomes are stored
/// (per distinct value of a column, or of each merged chunk). Provenance
/// does not participate: two runs of equal programs compare equal even
/// though they record different compilations.
impl PartialEq for TransformReport {
    fn eq(&self, other: &Self) -> bool {
        self.target() == other.target()
            && self.len() == other.len()
            && self.iter_rows().eq(other.iter_rows())
    }
}

impl Eq for TransformReport {}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_column::Column;
    use clx_pattern::tokenize;

    /// A columnar report: `outcomes[k]` decides `column`'s `k`-th distinct.
    fn columnar(target: Pattern, outcomes: Vec<RowOutcome>, column: &Column) -> TransformReport {
        TransformReport::from_batch(BatchReport::columnar(target, outcomes, column))
    }

    /// One conforming, one transformed and one flagged row.
    fn outcomes() -> Vec<RowOutcome> {
        vec![
            RowOutcome::Conforming {
                value: "734-422-8073".into(),
            },
            RowOutcome::Transformed {
                to: "734-645-8397".into(),
            },
            RowOutcome::Flagged {
                value: "N/A".into(),
            },
        ]
    }

    fn report() -> TransformReport {
        let column = Column::from_values(&["734-422-8073", "(734) 645-8397", "N/A"]);
        columnar(tokenize("734-422-8073"), outcomes(), &column)
    }

    #[test]
    fn counts() {
        let r = report();
        assert_eq!(r.transformed_count(), 1);
        assert_eq!(r.conforming_count(), 1);
        assert_eq!(r.flagged_count(), 1);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn values_preserve_order() {
        assert_eq!(
            report().values(),
            vec!["734-422-8073", "734-645-8397", "N/A"]
        );
    }

    #[test]
    fn flagged_values() {
        assert_eq!(report().flagged_values(), vec!["N/A"]);
    }

    #[test]
    fn perfection_and_conformance() {
        let r = report();
        assert!(!r.is_perfect());
        assert!((r.conformance_ratio() - 2.0 / 3.0).abs() < 1e-9);

        let perfect = columnar(
            tokenize("734-422-8073"),
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
        let r = TransformReport::from_batch(BatchReport::empty(tokenize("1")));
        assert!(r.is_perfect());
        assert!(r.is_empty());
        assert_eq!(r.conformance_ratio(), 1.0);
    }

    #[test]
    fn from_batch_is_row_identical() {
        let batch = BatchReport::from_chunks(
            tokenize("734-422-8073"),
            vec![clx_engine::ChunkReport::columnar(
                0,
                outcomes(),
                vec![0, 1, 2],
            )],
        );
        let report = TransformReport::from_batch(batch);
        assert_eq!(report, self::report());
    }

    #[test]
    fn columnar_and_row_reports_compare_equal() {
        // Same logical rows, different storage: equality is by row.
        let column = Column::from_values(&["a-1", "N/A", "a-1"]);
        let by_column = columnar(
            tokenize("a-1"),
            vec![
                RowOutcome::Conforming {
                    value: "a-1".into(),
                },
                RowOutcome::Flagged {
                    value: "N/A".into(),
                },
            ],
            &column,
        );
        let per_row = TransformReport::from_batch(BatchReport::from_chunks(
            tokenize("a-1"),
            vec![clx_engine::ChunkReport::columnar(
                0,
                vec![
                    RowOutcome::Conforming {
                        value: "a-1".into(),
                    },
                    RowOutcome::Flagged {
                        value: "N/A".into(),
                    },
                    RowOutcome::Conforming {
                        value: "a-1".into(),
                    },
                ],
                vec![0, 1, 2],
            )],
        ));
        assert_eq!(by_column, per_row);
        assert_eq!(by_column.distinct_outcomes().len(), 2);
        assert_eq!(per_row.distinct_outcomes().len(), 3);
        assert_eq!(by_column.row(2), per_row.row(2));
        assert_eq!(by_column.conforming_count(), 2);
        assert_eq!(by_column.flagged_count(), 1);
    }

    #[test]
    fn row_outcome_accessors() {
        let t = RowOutcome::Transformed { to: "b".into() };
        assert_eq!(t.value(), "b");
        assert!(t.is_transformed() && !t.is_flagged() && !t.is_conforming());
        let c = RowOutcome::Conforming { value: "x".into() };
        assert!(c.is_conforming());
        assert_eq!(c.value(), "x");
        let f = RowOutcome::Flagged { value: "y".into() };
        assert!(f.is_flagged());
        assert_eq!(f.value(), "y");
    }
}
