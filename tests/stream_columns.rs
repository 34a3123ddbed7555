//! Cross-chunk dedup equivalence: pushing a column split into K chunks
//! through the persistent interner must yield reports row-for-row identical
//! to one-shot `execute_column` — including `Flagged` rows and repeated
//! values straddling chunk boundaries — while deciding each distinct value
//! once per stream and dispatching on the dense leaf-id index.

use std::sync::Arc;

use clx::{ClxSession, Column, ColumnStream, RowOutcome};
use clx_datagen::duplicate_heavy_case;

/// A duplicate-heavy column with all study phone formats plus `N/A` noise
/// (so conforming, transformed *and* flagged rows all occur), and a
/// compiled program for it.
fn workload(rows: usize, distinct: usize) -> (Vec<String>, clx::CompiledProgram) {
    let case = duplicate_heavy_case(rows, distinct, 11);
    let session = ClxSession::new(case.data.clone())
        .label_by_example(&case.target_example)
        .expect("label");
    let compiled = session.compile().expect("compile");
    (case.data, compiled)
}

#[test]
fn k_chunk_column_stream_equals_one_shot_execute_column() {
    let (data, compiled) = workload(20_000, 200);
    let one_shot = compiled.execute_column(&Column::from_rows(data.clone()));
    assert!(one_shot.stats.flagged > 0, "workload must exercise Flagged");
    assert!(one_shot.stats.transformed > 0);

    // Chunk sizes chosen so repeated values straddle every boundary (the
    // column has ~200 distinct values, so a 777-row chunk shares almost all
    // of them with its neighbours).
    for chunk_size in [777usize, 1_000, 19_999] {
        let mut stream = ColumnStream::from_program(
            ClxSession::new(data.clone())
                .label_by_example("734-422-8073")
                .expect("label")
                .compile()
                .expect("compile"),
        );
        let mut streamed: Vec<RowOutcome> = Vec::new();
        for chunk in data.chunks(chunk_size) {
            let report = stream.push_rows(chunk);
            assert!(report.is_columnar());
            // Columnar chunk reports store one outcome per distinct value
            // in the chunk, never one per row.
            assert!(report.outcomes().len() <= report.len());
            streamed.extend(report.iter_rows().cloned());
        }
        // Each distinct value was decided exactly once for the whole
        // stream, not once per chunk.
        assert_eq!(
            stream.distinct_decided(),
            stream.interner().distinct_count()
        );
        assert_eq!(
            stream.interner().distinct_count(),
            Column::from_rows(data.clone()).distinct_count()
        );
        // Dispatch ran exclusively on the dense leaf-id tier.
        assert_eq!(stream.dispatch_cache().len(), 0);
        assert_eq!(
            stream.dispatch_cache().dense_len(),
            stream.interner().leaf_count()
        );

        let summary = stream.finish();
        assert_eq!(summary.stats, one_shot.stats);
        assert_eq!(summary.rows(), data.len());
        assert_eq!(streamed.len(), one_shot.len());
        for (row, (got, want)) in streamed.iter().zip(one_shot.iter_rows()).enumerate() {
            assert_eq!(got, want, "row {row} (chunk size {chunk_size})");
        }
    }
}

#[test]
fn shared_program_stream_equals_one_shot_execution() {
    let (data, compiled) = workload(6_000, 120);
    let one_shot = compiled.execute_column(&Column::from_rows(data.clone()));

    // Stream through the very program that produced the one-shot report,
    // shared rather than recompiled.
    let compiled = Arc::new(compiled);
    let mut stream = ColumnStream::new(Arc::clone(&compiled));
    let mut streamed: Vec<RowOutcome> = Vec::new();
    for rows in data.chunks(499) {
        let report = stream.push_rows(rows);
        assert_eq!(report.len(), rows.len());
        streamed.extend(report.iter_rows().cloned());
    }
    let summary = stream.finish();
    assert_eq!(summary.stats, one_shot.stats);
    assert_eq!(streamed, one_shot.into_row_outcomes());
}

#[test]
fn repeats_straddling_chunk_boundaries_share_one_outcome() {
    let session = ClxSession::new(vec![
        "111.222.3333".to_string(),
        "N/A".to_string(),
        "444.555.6666".to_string(),
    ])
    .label_by_example("111-222-3333")
    .expect("label");
    let mut stream = session.stream_columns().expect("stream");

    // Chunk 1 introduces both values; chunk 2 is nothing but repeats.
    let first = stream.push_rows(&["111.222.3333", "N/A", "111.222.3333"]);
    assert_eq!(first.outcomes().len(), 2);
    assert_eq!(first.stats.flagged, 1);
    let decided_after_first = stream.distinct_decided();

    let second = stream.push_rows(&["N/A", "111.222.3333", "N/A", "N/A"]);
    assert_eq!(second.len(), 4);
    assert_eq!(second.outcomes().len(), 2);
    assert_eq!(second.stats.flagged, 3, "flagged repeats keep flagging");
    assert_eq!(
        stream.distinct_decided(),
        decided_after_first,
        "no value was re-decided for the repeat-only chunk"
    );
    assert_eq!(
        second.iter_values().collect::<Vec<_>>(),
        vec!["N/A", "111-222-3333", "N/A", "N/A"]
    );

    let summary = stream.finish();
    assert_eq!(summary.rows(), 7);
    assert_eq!(summary.stats.flagged, 4);
    assert_eq!(summary.stats.transformed, 3);
}
