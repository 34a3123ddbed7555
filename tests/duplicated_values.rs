//! Regression tests for the duplicated-values synthesis quirk.
//!
//! Columns holding repeated values used to synthesize an *empty* program:
//! constant discovery counted rows, so a value repeated N times "agreed" at
//! every token position, froze into one giant literal, and failed
//! synthesis — every row came back flagged. The shared column data plane
//! weights constant discovery by *distinct* value, so repeats are no longer
//! evidence of constancy and the normal program comes back.

use clx::{tokenize, ClxSession, Column};

#[test]
fn repeated_value_column_synthesizes_a_working_program() {
    // One value, many rows: the degenerate case that used to flag everything.
    let session = ClxSession::new(vec!["Dr. Eran Yahav".to_string(); 100])
        .label(tokenize("Eran Yahav"))
        .unwrap();

    let report = session.apply().unwrap();
    assert_eq!(report.flagged_count(), 0, "no row may be flagged");
    assert_eq!(report.transformed_count(), 100);
    assert!(report.iter_rows().all(|r| r.value() == "Eran Yahav"));
    // Columnar reporting: 100 rows, one stored outcome.
    assert_eq!(report.outcomes().len(), 1);
}

#[test]
fn duplicate_heavy_phone_column_transforms_every_repeat() {
    // A handful of distinct phone formats, each heavily repeated.
    let mut data = Vec::new();
    for i in 0..300 {
        data.push(match i % 3 {
            0 => "(734) 645-8397".to_string(),
            1 => "(734)586-7252".to_string(),
            _ => "734.236.3466".to_string(),
        });
    }
    let session = ClxSession::new(data)
        .label(tokenize("734-422-8073"))
        .unwrap();
    let report = session.apply().unwrap();
    assert!(
        report.is_perfect(),
        "flagged: {:?}",
        report.flagged_values()
    );
    assert_eq!(report.transformed_count(), 300);
    // Duplicates share one outcome: the distinct output set is tiny.
    let outputs: std::collections::HashSet<String> = report.values().into_iter().collect();
    assert_eq!(outputs.len(), 3);
}

#[test]
fn engine_and_sequential_agree_on_duplicated_columns() {
    let data: Vec<String> = (0..1_000)
        .map(|i| match i % 5 {
            0..=2 => "(555) 123-4567".to_string(),
            3 => "N/A".to_string(),
            _ => "555.123.4567".to_string(),
        })
        .collect();
    let session = ClxSession::new(data.clone())
        .label(tokenize("734-422-8073"))
        .unwrap();

    let sequential = session.apply().unwrap();
    let compiled = session.compile().unwrap();
    let via_column = compiled.execute_column(session.data());
    let via_rows = compiled.execute(&data);

    assert_eq!(sequential, via_column);
    assert_eq!(sequential, via_rows);
    assert_eq!(sequential.flagged_count(), 200); // the N/A rows
}

#[test]
fn session_column_dedups_and_caches_leaves() {
    let session = ClxSession::new(vec![
        "a-1".to_string(),
        "a-1".to_string(),
        "b-2".to_string(),
    ]);
    let column: &Column = session.data();
    assert_eq!(column.len(), 3);
    assert_eq!(column.distinct_count(), 2);
    for value in column.distinct_values() {
        assert_eq!(value.leaf(), &tokenize(value.text()));
    }
    // The hierarchy rows fan back out to all duplicates.
    assert_eq!(session.hierarchy().total_rows(), 3);
}
