//! Batch execution over the shared column data plane.
//!
//! Every executor decides each *distinct* value once, dispatching by the
//! dense leaf-id an interner assigned to its leaf signature — never
//! re-tokenizing, never hashing a `Pattern`. A [`Column`] already carries
//! each distinct value's leaf and leaf-id, and its shared row map says
//! where every duplicate lives, so executing a column is one decision per
//! distinct value and the resulting [`BatchReport`] keeps the distinct
//! decisions plus a reference-counted clone of the column's row map.
//! Raw rows ([`CompiledProgram::execute`], [`crate::ColumnStream`]) are
//! first interned into a [`ColumnChunk`], whose distinct ids
//! [`CompiledProgram::decide_chunk`] decides the same way.
//!
//! On duplicate-heavy columns (the common real-world case) this makes the
//! whole batch run — pattern matching *and* reporting — O(distinct).

use std::sync::Arc;

use clx_column::{Column, ColumnChunk};
use clx_telemetry::MetricSink;

use crate::compiled::CompiledProgram;
use crate::dispatch::DispatchCache;
use crate::report::{BatchReport, RowOutcome};
use crate::stream::DistinctDecisions;

impl CompiledProgram {
    /// Execute the program over a [`Column`], transforming each *distinct*
    /// value exactly once via its cached leaf signature, dispatched by its
    /// dense [`leaf_id`](clx_column::DistinctValue::leaf_id). The report
    /// shares the column's row map instead of fanning outcomes out per
    /// row.
    ///
    /// The report is row-for-row identical to
    /// [`CompiledProgram::execute`] over the same rows: a program is a pure
    /// function of the row value, so duplicates share one outcome.
    pub fn execute_column(&self, column: &Column) -> BatchReport {
        let mut cache = DispatchCache::new();
        let decided: Vec<RowOutcome> = column
            .distinct_values()
            .map(|v| {
                self.transform_one_by_leaf_id(
                    &mut cache,
                    column.interner_id(),
                    column.interner_generation(),
                    v.leaf_id(),
                    v.text(),
                    v.leaf(),
                )
            })
            .collect();
        BatchReport::columnar(self.target().clone(), decided, column)
    }

    /// Decide the distinct ids of an interned chunk, in chunk order, each
    /// through `cache`'s leaf-id dispatch. `decisions` is a stream's
    /// cross-chunk decision cache: when given, ids it already holds replay
    /// their stored outcome and every fresh decision is recorded in it.
    /// `telemetry` (if any) times each first-sight fused classification as
    /// `engine.fused.decide_ns`.
    pub(crate) fn decide_chunk(
        &self,
        cache: &mut DispatchCache,
        chunk: &ColumnChunk<'_>,
        mut decisions: Option<&mut DistinctDecisions>,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> Vec<RowOutcome> {
        let interner = chunk.interner();
        if let Some(decisions) = decisions.as_deref_mut() {
            decisions.sync(interner);
        }
        chunk
            .distinct_ids()
            .iter()
            .map(|&id| {
                if let Some(decisions) = decisions.as_deref_mut() {
                    if let Some(outcome) = decisions.replay(id, interner) {
                        return outcome;
                    }
                }
                let outcome = self.transform_one_by_leaf_id_observed(
                    cache,
                    interner.instance(),
                    interner.generation(),
                    interner.leaf_id(id),
                    interner.value(id),
                    interner.leaf(id),
                    telemetry,
                );
                if let Some(decisions) = decisions.as_deref_mut() {
                    decisions.record(id, interner, &outcome);
                }
                outcome
            })
            .collect()
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

    fn duplicate_heavy_rows(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| match i % 4 {
                0 | 1 => format!("{:03}.{:03}.{:04}", 100 + i % 5, 200 + i % 5, 3000 + i % 5),
                2 => format!("{:03}-{:03}-{:04}", 100 + i % 5, 200 + i % 5, 3000 + i % 5),
                _ => "N/A".to_string(),
            })
            .collect()
    }

    #[test]
    fn column_execution_equals_row_execution() {
        let program = compiled();
        let rows = duplicate_heavy_rows(1_000);
        let column = Column::from_rows(rows.clone());
        assert!(column.distinct_count() < rows.len() / 10);

        let by_rows = program.execute(&rows);
        let by_column = program.execute_column(&column);
        assert_eq!(
            by_rows.iter_rows().collect::<Vec<_>>(),
            by_column.iter_rows().collect::<Vec<_>>()
        );
        assert_eq!(by_rows.stats, by_column.stats);
        // Both reports store only the distinct decisions.
        assert_eq!(by_column.outcomes().len(), column.distinct_count());
        assert_eq!(by_rows.outcomes().len(), column.distinct_count());
    }

    #[test]
    fn empty_column_reports_empty() {
        let report = compiled().execute_column(&Column::default());
        assert!(report.is_empty());
        assert_eq!(report.chunk_count, 0);
    }

    #[test]
    fn column_dispatch_is_dense_only() {
        // Every plan of the column path is decided once per distinct leaf
        // and replayed through the dense leaf-id index: one cold decision
        // per leaf, however many distinct values share it.
        let program = compiled();
        let column = Column::from_rows(duplicate_heavy_rows(500));
        let report = program.execute_column(&column);
        assert_eq!(report.len(), 500);
        let cold = program.fused_stats().fused_decisions;
        assert_eq!(cold, column.leaf_count() as u64);
        assert!(column.distinct_count() > column.leaf_count());

        // A second column has its own id space and decides its own leaves.
        let other = Column::from_values(&["N/A"]);
        assert_ne!(other.interner_id(), column.interner_id());
        program.execute_column(&other);
        assert_eq!(program.fused_stats().fused_decisions, cold + 1);
    }

    #[test]
    fn outcomes_fan_out_to_duplicate_rows() {
        let program = compiled();
        let column = Column::from_values(&["111.222.3333", "N/A", "111.222.3333", "111.222.3333"]);
        let report = program.execute_column(&column);
        assert_eq!(report.transformed_count(), 3);
        assert_eq!(report.flagged_count(), 1);
        assert_eq!(
            report.values(),
            vec!["111-222-3333", "N/A", "111-222-3333", "111-222-3333"]
        );
    }
}
