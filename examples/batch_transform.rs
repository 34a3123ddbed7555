//! Batch execution: compile a session's program once, then serve it.
//!
//! The interactive session (see `quickstart.rs`) is for the human in the
//! loop; this example shows the serving side: `ClxSession::compile()` hands
//! the synthesized program to the `clx-engine` subsystem, which executes it
//! over large columns in parallel interned blocks (each distinct value of a
//! block decided once), streams columns that do not fit in memory through
//! a bounded `ColumnStream`, and serves one compiled program to many
//! requests.
//!
//! Run with: `cargo run --release --example batch_transform`

use std::sync::Arc;

use clx::datagen::large_case;
use clx::{tokenize, ClxSession, ColumnStream, StreamBudget};

fn main() {
    // ---- Interactive phase: one labelled session ------------------------
    let case = large_case(50_000, 7);
    let session = ClxSession::new(case.data.clone())
        .label(tokenize("734-422-8073"))
        .expect("label");
    println!(
        "session over {} rows, {} pattern clusters",
        case.data.len(),
        session.patterns().len()
    );

    // ---- Compile once --------------------------------------------------
    let compiled = session.compile().expect("program compiles");
    println!(
        "compiled {} branches (fully signature-dispatched: {})",
        compiled.branches().len(),
        compiled.is_fully_transparent()
    );

    // ---- Execute in parallel blocks -------------------------------------
    let report = compiled.execute(&case.data);
    println!(
        "parallel apply: {} transformed, {} conforming, {} flagged",
        report.transformed_count(),
        report.conforming_count(),
        report.flagged_count()
    );

    // ---- Stream a column larger than we want in memory ------------------
    // The budget caps the stream's interned state; evicted values are
    // re-decided if they reappear, so outcomes match the unbounded stream.
    let compiled = Arc::new(compiled);
    let mut stream =
        ColumnStream::with_budget(Arc::clone(&compiled), StreamBudget::max_distinct(10_000));
    for chunk in case.data.chunks(8_192) {
        // In a real pipeline each returned chunk goes straight to a sink.
        let chunk_report = stream.push_rows(chunk);
        drop(chunk_report);
    }
    let summary = stream.finish();
    assert_eq!(summary.stats.flagged, report.flagged_count());
    assert_eq!(summary.stats.transformed, report.transformed_count());
    println!(
        "streamed {} rows in {} chunks ({} flagged, {} evictions, peak {} KiB)",
        summary.rows(),
        summary.chunks,
        summary.stats.flagged,
        summary.evictions,
        summary.peak_memory_bytes / 1024
    );

    // ---- Serve several requests from one compilation ---------------------
    // A `CompiledProgram` is immutable and `Send + Sync`: every request
    // handler holds a clone of the same `Arc`, so nothing is recompiled.
    let flagged: usize = std::thread::scope(|scope| {
        let handlers: Vec<_> = case
            .data
            .chunks(1_000)
            .take(3)
            .map(|request| {
                let program = Arc::clone(&compiled);
                scope.spawn(move || program.execute(request).flagged_count())
            })
            .collect();
        handlers
            .into_iter()
            .map(|handler| handler.join().expect("request handler"))
            .sum()
    });
    println!("served 3 requests of 1,000 rows from one compilation ({flagged} rows flagged)");
}
