//! Direct coverage of the streaming [`ColumnStream`] `push_rows`/`finish`
//! path.

use clx_engine::{ColumnStream, CompiledProgram};
use clx_pattern::tokenize;
use clx_unifi::{Branch, Expr, Program, StringExpr};

fn dotted_to_dashed() -> CompiledProgram {
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
fn stream_counters_match_pushed_chunks() {
    let mut stream = ColumnStream::from_program(dotted_to_dashed());
    assert_eq!(stream.chunks_pushed(), 0);

    let transformed: Vec<String> = (0..40).map(|i| format!("111.222.{:04}", i)).collect();
    let conforming: Vec<String> = (0..25).map(|i| format!("111-222-{:04}", i)).collect();
    let flagged: Vec<String> = (0..10).map(|_| "???".to_string()).collect();

    let r1 = stream.push_rows(&transformed);
    assert_eq!(stream.chunks_pushed(), 1);
    assert_eq!(r1.stats.transformed, 40);
    let r2 = stream.push_rows(&conforming);
    assert_eq!(stream.chunks_pushed(), 2);
    assert_eq!(r2.stats.conforming, 25);
    let r3 = stream.push_rows(&flagged);
    assert_eq!(stream.chunks_pushed(), 3);
    assert_eq!(r3.stats.flagged, 10);

    // Running totals absorb every chunk.
    assert_eq!(stream.chunks_pushed(), 3);
    assert_eq!(stream.stats().rows(), 75);

    let summary = stream.finish();
    assert_eq!(summary.chunks, 3);
    assert_eq!(summary.rows(), 75);
    assert_eq!(summary.stats.transformed, 40);
    assert_eq!(summary.stats.conforming, 25);
    assert_eq!(summary.stats.flagged, 10);
    assert_eq!(*summary.target, tokenize("734-422-8073"));
}

#[test]
fn stream_handles_empty_chunks_and_empty_runs() {
    let mut stream = ColumnStream::from_program(dotted_to_dashed());
    let report = stream.push_rows::<&str>(&[]);
    assert_eq!(report.len(), 0);
    assert_eq!(stream.chunks_pushed(), 1);
    let summary = stream.finish();
    assert_eq!(summary.rows(), 0);

    // A run with no chunks at all.
    let summary = ColumnStream::from_program(dotted_to_dashed()).finish();
    assert_eq!(summary.chunks, 0);
    assert_eq!(summary.rows(), 0);
}

#[test]
fn streamed_rows_equal_one_shot_and_column_execution() {
    let program = dotted_to_dashed();
    let rows: Vec<String> = (0..600)
        .map(|i| match i % 3 {
            0 => format!("{:03}.{:03}.{:04}", 100 + i % 9, 200 + i % 9, i % 9),
            1 => format!("{:03}-{:03}-{:04}", 100 + i % 9, 200 + i % 9, i % 9),
            _ => "N/A".to_string(),
        })
        .collect();

    let one_shot = program.execute(&rows);
    let by_column = program.execute_column(&clx_column::Column::from_values(&rows));
    assert_eq!(
        one_shot.iter_rows().collect::<Vec<_>>(),
        by_column.iter_rows().collect::<Vec<_>>()
    );

    let mut stream = ColumnStream::from_program(program);
    let mut streamed = Vec::new();
    for chunk in rows.chunks(128) {
        streamed.extend(stream.push_rows(chunk).into_row_outcomes());
    }
    let summary = stream.finish();
    let one_shot_stats = one_shot.stats;
    assert_eq!(streamed, one_shot.into_row_outcomes());
    assert_eq!(summary.stats, one_shot_stats);
}
