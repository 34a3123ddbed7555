//! The interactive repair loop, incrementally re-verified.
//!
//! The CLX loop the paper describes is *iterative*: the user applies the
//! synthesized program, spots a wrong cluster in the verification view,
//! repairs that one cluster's plan, and looks again. Re-running the whole
//! column after every repair would make the loop O(rows) per click; this
//! example shows the engine's incremental path instead:
//!
//! 1. `apply()` once — the report records the compiled program that
//!    produced it (provenance);
//! 2. `repair()` one source cluster's plan choice, which recompiles;
//! 3. `reverify(&report)` — the session diffs the two compiled programs
//!    into a `ProgramDelta`, compiling nothing, and patches the existing report in place,
//!    re-deciding **only the distincts the changed branch can affect**.
//!
//! The attached `InMemorySink` proves the claim with live counters:
//! `engine.delta.branches_changed` (how many branches the diff found
//! changed), `engine.delta.distincts_redecided` (how many stored outcomes
//! were actually re-run — the slash-date third of the column, not all of
//! it) and `engine.delta.outcomes_patched` (how many rewrites landed).
//!
//! Run with: `cargo run --release --example repair_loop`

use std::sync::Arc;

use clx::{ClxOptions, ClxSession, InMemorySink, MetricSink, Pattern};

/// A messy date column: `per_format` distinct dates in each of three
/// formats — slash (`12/11/2017`), dot (`12.11.2017`) and the dashed
/// target format itself.
fn date_column(per_format: usize) -> Vec<String> {
    let mut rows = Vec::with_capacity(per_format * 3);
    for i in 0..per_format {
        let month = 1 + (i % 12);
        let day = 1 + (i % 28);
        let year = 1990 + (i % 30);
        rows.push(format!("{month:02}/{day:02}/{year:04}"));
        rows.push(format!("{month:02}.{day:02}.{year:04}"));
        rows.push(format!("{month:02}-{day:02}-{year:04}"));
    }
    rows
}

fn main() {
    let per_format = 300;
    let rows = date_column(per_format);
    let total_rows = rows.len();
    let sink = InMemorySink::shared();

    // ---- Cluster, label, synthesize, apply --------------------------------
    let mut session = ClxSession::with_telemetry(
        rows,
        ClxOptions::default(),
        Arc::clone(&sink) as Arc<dyn MetricSink>,
    )
    .label_by_example("12-11-2017")
    .expect("label");
    let report = session.apply().expect("apply");
    println!(
        "applied to {total_rows} rows ({} distinct): {} transformed, {} conforming, {} flagged",
        report.distinct_outcomes().len(),
        report.transformed_count(),
        report.conforming_count(),
        report.flagged_count(),
    );

    // ---- Repair one cluster -----------------------------------------------
    // The user decides the slash cluster's selected plan is wrong and picks
    // the next ranked alternative for *that cluster only*.
    let slash: Pattern = clx::parse_pattern("<D>2'/'<D>2'/'<D>4").expect("pattern");
    let alternatives = session
        .alternatives(&slash)
        .expect("slash is a source")
        .len();
    assert!(alternatives >= 2, "need a real alternative to repair to");
    assert!(session.repair(&slash, 1), "repair accepted");

    // ---- Re-verify incrementally ------------------------------------------
    let patched = session.reverify(&report).expect("reverify");
    let snapshot = sink.snapshot();
    let redecided = snapshot
        .counter("engine.delta.distincts_redecided")
        .unwrap_or(0);
    println!(
        "repaired slash cluster and re-verified: {redecided} of {} distincts re-decided \
         ({} branches changed, {} outcomes rewritten)",
        patched.distinct_outcomes().len(),
        snapshot
            .counter("engine.delta.branches_changed")
            .unwrap_or(0),
        snapshot
            .counter("engine.delta.outcomes_patched")
            .unwrap_or(0),
    );

    // ---- The patched report is the ground truth ---------------------------
    let fresh = session.apply().expect("fresh apply");
    assert_eq!(patched, fresh, "patched report == full recompute");
    println!("patched report verified equal to a fresh full apply");

    // The point of the exercise: only the repaired cluster's distincts were
    // re-decided — a third of the column, not all of it.
    assert_eq!(redecided as usize, per_format);
    assert!(snapshot.histogram("core.phase.reverify_ns").is_some());
}
