//! Sequential/parallel equivalence: the compiled `clx-engine` path must
//! produce *exactly* the rows of `ClxSession::apply` — same transformed
//! values, and identical `Flagged` rows (§6.1 "leave unchanged and flag") —
//! on the phone-number workload of `crates/datagen`.

use clx::datagen::{DataGenerator, PhoneFormat};
use clx::{tokenize, ClxSession, ColumnStream, Labelled};

/// The §7.2 study formats plus the paper's noise formats (`N/A`, `+1 ...`),
/// so the column exercises conforming, transformed and flagged rows.
fn noisy_phone_column(rows: usize, seed: u64) -> Vec<String> {
    let mut generator = DataGenerator::new(seed);
    let mut formats = PhoneFormat::STUDY_FORMATS.to_vec();
    formats.push(PhoneFormat::CountryCode);
    formats.push(PhoneFormat::Missing);
    let weights = [40usize, 25, 12, 8, 4, 3, 4, 4];
    generator.phone_column(rows, &formats, &weights)
}

fn labelled_session(data: Vec<String>) -> ClxSession<Labelled> {
    ClxSession::new(data)
        .label(tokenize("734-422-8073"))
        .unwrap()
}

#[test]
fn parallel_report_is_identical_to_sequential_apply() {
    let data = noisy_phone_column(3_000, 20_19);
    let session = labelled_session(data);

    let sequential = session.apply().unwrap();
    let parallel = session.compile().unwrap().execute_column(session.data());

    // Row-for-row identity: same variants, same values, same order.
    assert_eq!(sequential, parallel);
}

#[test]
fn flagged_rows_match_exactly() {
    let data = noisy_phone_column(1_500, 7);
    let session = labelled_session(data.clone());

    let sequential = session.apply().unwrap();
    let compiled = session.compile().unwrap();
    let parallel = compiled.execute(&data);

    // The workload really produces flagged rows: "N/A" never reaches the
    // target pattern, and bare 10-digit rows (`<D>10`) cannot be split at
    // token granularity by UniFi's `Extract`. Both paths must flag the same
    // rows with unchanged values.
    let flagged: Vec<&str> = sequential.flagged_values();
    assert!(flagged.contains(&"N/A"), "workload must exercise flagging");
    assert!(flagged
        .iter()
        .all(|v| *v == "N/A" || v.chars().all(|c| c.is_ascii_digit())));
    assert_eq!(flagged, parallel.flagged_values());
    assert_eq!(sequential.flagged_count(), parallel.flagged_count());
    for (s, p) in sequential.iter_rows().zip(parallel.iter_rows()) {
        assert_eq!(s.is_flagged(), p.is_flagged());
        assert_eq!(s.value(), p.value());
    }
}

#[test]
fn streaming_path_matches_sequential_apply() {
    let data = noisy_phone_column(2_048, 3);
    let session = labelled_session(data.clone());
    let compiled = session.compile().unwrap();
    let sequential = session.apply().unwrap();

    let mut stream = ColumnStream::from_program(compiled);
    let mut streamed_values = Vec::new();
    for chunk in data.chunks(500) {
        let report = stream.push_rows(chunk);
        streamed_values.extend(report.iter_values().map(str::to_string));
    }
    let summary = stream.finish();

    assert_eq!(streamed_values, sequential.values());
    assert_eq!(summary.rows(), data.len());
    assert_eq!(summary.stats.flagged, sequential.flagged_count());
    assert_eq!(summary.stats.transformed, sequential.transformed_count());
    assert_eq!(summary.stats.conforming, sequential.conforming_count());
}

#[test]
fn column_execution_is_identical_to_row_execution() {
    // The column path dispatches on cached leaf signatures and decides each
    // distinct value once; the report must still be row-for-row identical
    // to the engine over the raw rows and to sequential apply — flagged
    // rows included.
    let data = noisy_phone_column(2_500, 11);
    let session = labelled_session(data.clone());
    let compiled = session.compile().unwrap();

    let sequential = session.apply().unwrap();
    let per_row = compiled.execute(&data);
    let per_column = compiled.execute_column(session.data());

    assert_eq!(sequential, per_row);
    assert_eq!(sequential, per_column);
    assert_eq!(per_row.flagged_values(), per_column.flagged_values());
}

#[test]
fn program_cache_serves_repeat_sessions() {
    // One compilation shared behind an `Arc` serves every later session
    // over the same program; each handle still agrees with apply().
    let session = labelled_session(noisy_phone_column(200, 1));
    let shared = std::sync::Arc::new(session.compile().unwrap());
    let first = std::sync::Arc::clone(&shared);
    let second = std::sync::Arc::clone(&shared);
    assert!(std::sync::Arc::ptr_eq(&first, &second));

    let data = session.data().to_vec();
    let a = first.execute(&data);
    let b = second.execute(&data);
    let sequential = session.apply().unwrap();
    assert_eq!(a, sequential);
    assert_eq!(b, sequential);

    // A later session over the same data and target needs no new
    // compilation: the shared program reproduces its apply() as well.
    let repeat = labelled_session(noisy_phone_column(200, 1));
    assert_eq!(repeat.program(), session.program());
    assert_eq!(
        shared.execute_column(repeat.data()),
        repeat.apply().unwrap()
    );
}
