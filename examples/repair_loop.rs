//! The interactive repair loop: apply, repair one cluster, re-verify.
//!
//! The CLX loop the paper describes is *iterative*: the user applies the
//! synthesized program, spots a wrong cluster in the verification view,
//! repairs that one cluster's plan, and looks again. This example walks
//! one turn of that loop:
//!
//! 1. `apply()` once — a report built over the session's column;
//! 2. `repair()` one source cluster's plan choice, which recompiles;
//! 3. `reverify(&report)` — the session checks that the report was built
//!    over its column and re-runs the held compiled program over it,
//!    compiling nothing: the result is row for row a fresh `apply()`.
//!
//! What the user re-verifies is the difference between the two reports:
//! the example counts the rows whose output changed and checks that every
//! one of them belongs to the repaired (slash-format) cluster.
//!
//! Run with: `cargo run --release --example repair_loop`

use clx::{ClxSession, Pattern};

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
    let rows = date_column(300);
    let total_rows = rows.len();

    // ---- Cluster, label, synthesize, apply --------------------------------
    let mut session = ClxSession::new(rows)
        .label_by_example("12-11-2017")
        .expect("label");
    let report = session.apply().expect("apply");
    println!(
        "applied to {total_rows} rows ({} distinct): {} transformed, {} conforming, {} flagged",
        report.outcomes().len(),
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

    // ---- Re-verify --------------------------------------------------------
    let reverified = session.reverify(&report).expect("reverify");
    assert_eq!(
        reverified,
        session.apply().expect("fresh apply"),
        "reverify == a fresh apply"
    );

    // ---- What the user looks at again --------------------------------------
    let changed: Vec<(usize, &str)> = session
        .data()
        .iter()
        .enumerate()
        .filter(|&(row, _)| report.row(row).value() != reverified.row(row).value())
        .collect();
    for (_, input) in &changed {
        assert!(
            slash.matches(input),
            "{input:?} changed outside the repaired cluster"
        );
    }
    println!(
        "repaired the slash cluster: {} of {total_rows} rows changed output, all slash-format",
        changed.len()
    );
    if let Some(&(row, input)) = changed.first() {
        println!(
            "  e.g. {input:?}: {:?} -> {:?}",
            report.row(row).value(),
            reverified.row(row).value()
        );
    }
}
