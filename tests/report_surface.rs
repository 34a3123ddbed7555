//! The columnar `TransformReport` surface: `iter_rows()` must be
//! row-for-row identical to the compiled engine over the raw rows, while
//! both reports store only O(distinct) outcomes.

use clx::datagen::duplicate_heavy_case;
use clx::{tokenize, ClxSession, Labelled, TransformReport};

fn duplicate_heavy_session(rows: usize, distinct: usize, seed: u64) -> ClxSession<Labelled> {
    let case = duplicate_heavy_case(rows, distinct, seed);
    ClxSession::new(case.data)
        .label(tokenize(&case.target_example))
        .unwrap()
}

/// The session's program run through the compiled engine over its column.
fn compiled_report(session: &ClxSession<Labelled>) -> TransformReport {
    TransformReport::from_batch(session.compile().unwrap().execute_column(session.data()))
}

#[test]
fn iter_rows_is_row_identical_to_the_per_row_path() {
    // The duplicate-heavy datagen workload: 20k rows, ≤200 distinct values.
    let session = duplicate_heavy_session(20_000, 200, 11);
    let columnar = session.apply().unwrap();

    // The compiled engine over the raw rows, which interns them in blocks
    // and stores one outcome per distinct value of each block.
    let rows = session.data().to_vec();
    let by_rows = TransformReport::from_batch(session.compile().unwrap().execute(&rows));

    // Row-for-row identity, in order — variants and values both.
    assert_eq!(columnar.len(), by_rows.len());
    for (i, (c, r)) in columnar.iter_rows().zip(by_rows.iter_rows()).enumerate() {
        assert_eq!(c, r, "row {i} diverged");
        assert_eq!(columnar.row(i), by_rows.row(i), "row {i} accessor diverged");
    }
    assert_eq!(columnar, by_rows);
    assert_eq!(columnar.values(), by_rows.values());
    assert_eq!(columnar.flagged_values(), by_rows.flagged_values());
    assert_eq!(columnar.transformed_count(), by_rows.transformed_count());
    assert_eq!(columnar.conforming_count(), by_rows.conforming_count());
    assert_eq!(columnar.flagged_count(), by_rows.flagged_count());
    assert!((columnar.conformance_ratio() - by_rows.conformance_ratio()).abs() < 1e-12);

    // And the storage claim behind the redesign: O(distinct) outcomes on
    // both sides — per column, and per block of at least 8,192 rows.
    assert_eq!(
        columnar.distinct_outcomes().len(),
        session.data().distinct_count()
    );
    assert!(columnar.distinct_outcomes().len() <= 200);
    assert!(by_rows.distinct_outcomes().len() <= 200 * (20_000 / 8_192));
}

#[test]
fn empty_column_report() {
    let session = ClxSession::new(Vec::new()).label(tokenize("123")).unwrap();
    let report = session.apply().unwrap();
    assert!(report.is_empty());
    assert_eq!(report.len(), 0);
    assert_eq!(report.iter_rows().count(), 0);
    assert_eq!(report.values(), Vec::<String>::new());
    assert_eq!(report.distinct_outcomes().len(), 0);
    assert_eq!(report.transformed_count(), 0);
    assert_eq!(report.conforming_count(), 0);
    assert_eq!(report.flagged_count(), 0);
    assert!(report.flagged_values().is_empty());
    assert!(report.is_perfect());
    assert_eq!(report.conformance_ratio(), 1.0);
    // The compiled path agrees on the degenerate case.
    assert_eq!(report, compiled_report(&session));
}

#[test]
fn all_flagged_report() {
    // Pure noise: nothing can reach a phone-number target, so every row is
    // flagged and left unchanged (§6.1).
    let data: Vec<String> = (0..60)
        .map(|i| match i % 3 {
            0 => "N/A".to_string(),
            1 => "??".to_string(),
            _ => "-".to_string(),
        })
        .collect();
    let session = ClxSession::new(data.clone())
        .label(tokenize("734-422-8073"))
        .unwrap();
    let report = session.apply().unwrap();
    assert_eq!(report.flagged_count(), 60);
    assert_eq!(report.transformed_count(), 0);
    assert_eq!(report.conforming_count(), 0);
    assert!(report.iter_rows().all(|r| r.is_flagged()));
    // Flagged rows are untouched, in input order — one entry per row even
    // though only 3 distinct outcomes are stored.
    assert_eq!(report.values(), data);
    assert_eq!(report.flagged_values(), data.iter().collect::<Vec<_>>());
    assert_eq!(report.distinct_outcomes().len(), 3);
    assert!(!report.is_perfect());
    assert_eq!(report.conformance_ratio(), 0.0);
    assert_eq!(report, compiled_report(&session));
}

#[test]
fn result_patterns_on_the_duplicate_heavy_workload() {
    // The derived-tokenization path of `result_patterns` must agree with a
    // fresh profile of the raw output strings, at scale.
    let session = duplicate_heavy_session(5_000, 100, 23);
    let derived = session.result_patterns().unwrap();
    let fresh = clx::cluster::PatternProfiler::with_options(session.options().profiler.clone())
        .profile_column(&clx::Column::from_rows(session.apply().unwrap().values()));
    assert_eq!(derived, fresh.pattern_summary());
    // Output rows total the input rows.
    assert_eq!(derived.iter().map(|(_, n)| n).sum::<usize>(), 5_000);
}
