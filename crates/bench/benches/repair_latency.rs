//! Repair latency: what one repair costs to re-verify, patched vs full.
//!
//! The interactive loop's worst moment is the click after a repair: the
//! user changed *one* cluster's plan and wants the verification view
//! back. Without incremental re-verification the session re-runs
//! `apply()` — one interpreted branch-by-branch decision per distinct
//! value, every distinct, every click. `reverify(&report)` instead diffs
//! old vs new program (`ProgramDelta`), and patches the previous report
//! in place, re-deciding **only the distincts the changed branch can
//! affect**.
//!
//! The workload is the issue's shape: a 1M-row column with 10,000
//! distinct values spread over 16 source formats (date-like
//! `dd SEP dd SEP yyyy` with 16 different separators, 625 distincts per
//! format), labelled to the dashed target. The "repair" re-plans the
//! slash-format cluster only, so exactly 625 of 10,000 distincts are
//! affected.
//!
//! Session-level (the user-facing loop, and the ≥10x claim):
//!
//! * **session_full_apply** — `ClxSession::apply()` under the repaired
//!   program: interpreted evaluation of all 10,000 distincts;
//! * **session_reverify** — `ClxSession::reverify(&baseline)`: compile
//!   both programs, diff, clone the baseline report, patch 625 outcomes.
//!
//! Engine-level (secondary: how the patch — which screens by the column's
//! cached leaf-ids and re-decides only affected distincts — compares to the
//! engine's compiled columnar re-run, which is already O(distinct) over
//! cached tokens and dense dispatch plans — the `cold_dispatch` story):
//!
//! * **engine_full_recompute** — `execute_column` under the new program;
//! * **engine_patch** — `ProgramDelta::between` + clone + `patch` over
//!   the report's own column;
//! * **engine_delta_only** — just the program diff (greedy branch
//!   matching + the `clx-analyze` reachability intersection).
//!
//! This bench records no numbers in its source. The repository benchmark
//! (`perfbench/`, see its README) measures the stream, the interner and
//! the repair loop end to end and per layer, with repeated runs; compare
//! variants of this bench within one run of `cargo bench --bench repair_latency`.
//!
//! The sanity block (outside timing) asserts the claims the bench exists
//! to make: the re-verified report equals a fresh full apply row-for-row,
//! and `engine.delta.distincts_redecided` is exactly the affected
//! format's distinct count — no silent over-re-deciding.
//!
//! `CLX_BENCH_SMOKE=1` shrinks the workload (~20k rows, ~1k distincts) so
//! CI can execute the binary end to end; smoke numbers are not comparable
//! to a full-size run, and the ≥10x ratio assertion is skipped (too noisy
//! at that size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clx_column::Column;
use clx_core::{ClxOptions, ClxSession};
use clx_engine::{CompiledProgram, ProgramDelta};
use clx_pattern::{parse_pattern, Pattern};
use clx_telemetry::{InMemorySink, MetricSink};
use clx_unifi::{Branch, Expr, Program, StringExpr};

/// One separator per source format; the repaired branch is `SEPARATORS[0]`.
const SEPARATORS: [char; 16] = [
    '/', '.', ':', '_', ',', ';', '|', '~', '!', '@', '#', '%', '&', '*', '+', '=',
];

fn smoke() -> bool {
    std::env::var_os("CLX_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn source_pattern(sep: char) -> Pattern {
    parse_pattern(&format!("<D>2'{sep}'<D>2'{sep}'<D>4")).expect("source pattern")
}

/// `dd SEP dd SEP yyyy` → `dd-dd-yyyy` for every format; the engine-level
/// "repair" swaps branch 0's field order to `yyyy-dd-dd`.
fn programs() -> (Program, Program) {
    let reorder = |fields: [u8; 3]| {
        Expr::concat(vec![
            StringExpr::extract(fields[0] as usize),
            StringExpr::const_str("-"),
            StringExpr::extract(fields[1] as usize),
            StringExpr::const_str("-"),
            StringExpr::extract(fields[2] as usize),
        ])
    };
    let old = Program::new(
        SEPARATORS
            .iter()
            .map(|&sep| Branch::new(source_pattern(sep), reorder([1, 3, 5])))
            .collect(),
    );
    let mut new = old.clone();
    new.branches[0].expr = reorder([5, 1, 3]);
    (old, new)
}

/// `per_format` distinct dates in each of the 16 formats, tiled out to
/// `rows` total rows (so the column is duplicate-heavy, like real data).
fn rows(rows: usize, per_format: usize) -> Vec<String> {
    let mut distinct = Vec::with_capacity(per_format * SEPARATORS.len());
    for i in 0..per_format {
        let (m, d, y) = (1 + i % 12, 1 + i % 28, 1900 + i % 120);
        for &sep in &SEPARATORS {
            distinct.push(format!("{m:02}{sep}{d:02}{sep}{y:04}"));
        }
    }
    (0..rows)
        .map(|j| distinct[j % distinct.len()].clone())
        .collect()
}

/// Best-of-3 wall time, outside criterion: the ratio assertion needs raw
/// durations, not criterion's report.
fn best_of_3(mut f: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("three runs")
}

fn bench_repair_latency(c: &mut Criterion) {
    let (total_rows, per_format) = if smoke() {
        (20_000, 63)
    } else {
        (1_000_000, 625)
    };
    let data = rows(total_rows, per_format);

    // ---- Session level: the user-facing loop ------------------------------
    let sink = InMemorySink::shared();
    let mut session = ClxSession::with_telemetry(
        data.clone(),
        ClxOptions::default(),
        Arc::clone(&sink) as Arc<dyn MetricSink>,
    )
    .label(parse_pattern("<D>2'-'<D>2'-'<D>4").expect("target"))
    .expect("label");
    let baseline = session.apply().expect("apply");
    let slash = source_pattern('/');
    assert!(
        session
            .alternatives(&slash)
            .expect("slash is a source")
            .len()
            >= 2,
        "need a real alternative to repair to"
    );
    assert!(session.repair(&slash, 1), "repair accepted");

    // Sanity outside timing: the patch is exact and minimal.
    {
        let reverified = session.reverify(&baseline).expect("reverify");
        let fresh = session.apply().expect("fresh apply");
        assert!(
            reverified == fresh,
            "re-verified report must equal a fresh full apply row-for-row"
        );
        let redecided = sink
            .snapshot()
            .counter("engine.delta.distincts_redecided")
            .unwrap_or(0);
        assert_eq!(
            redecided, per_format as u64,
            "exactly the repaired format's distincts are re-decided"
        );
        println!(
            "repair sanity: {total_rows} rows, {} distincts, {redecided} re-decided",
            baseline.distinct_outcomes().len(),
        );

        // The structural claim, measured: reverify beats the full apply the
        // user would otherwise re-run by >=10x (best of 3 each; skipped in
        // smoke mode where the workload is too small to time reliably).
        if !smoke() {
            let apply_time = best_of_3(|| {
                black_box(session.apply().expect("apply"));
            });
            let reverify_time = best_of_3(|| {
                black_box(session.reverify(&baseline).expect("reverify"));
            });
            println!(
                "repair ratio: full apply {apply_time:?} vs reverify {reverify_time:?} ({:.1}x)",
                apply_time.as_secs_f64() / reverify_time.as_secs_f64()
            );
            assert!(
                apply_time >= 10 * reverify_time,
                "reverify must be >=10x faster than a full apply \
                 (apply {apply_time:?}, reverify {reverify_time:?})"
            );
        }
    }

    // ---- Engine level: patch vs the compiled columnar re-run --------------
    let (old_program, new_program) = programs();
    let target = parse_pattern("<D>2'-'<D>2'-'<D>4").expect("target");
    let old = Arc::new(CompiledProgram::compile(&old_program, &target).expect("compile old"));
    let new = Arc::new(CompiledProgram::compile(&new_program, &target).expect("compile new"));
    let column = Column::from_rows(data);
    let engine_baseline = old.execute_column(&column);
    {
        let delta = ProgramDelta::between(&old, &new);
        let mut patched = engine_baseline.clone();
        let stats = patched
            .patch(&delta, &new, &column)
            .expect("the baseline was built over this column");
        let full = new.execute_column(&column);
        assert!(
            patched.iter_rows().eq(full.iter_rows()),
            "patched report must equal the full recompute row-for-row"
        );
        assert_eq!(stats.distincts_redecided, per_format);
    }

    let mut group = c.benchmark_group("repair_latency");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_rows as u64));

    group.bench_with_input(
        BenchmarkId::new("session_full_apply", total_rows),
        &(),
        |b, ()| b.iter(|| black_box(session.apply().expect("apply"))),
    );
    group.bench_with_input(
        BenchmarkId::new("session_reverify", total_rows),
        &(),
        |b, ()| b.iter(|| black_box(session.reverify(&baseline).expect("reverify"))),
    );
    group.bench_with_input(
        BenchmarkId::new("engine_full_recompute", total_rows),
        &column,
        |b, col| b.iter(|| black_box(new.execute_column(col))),
    );
    group.bench_with_input(
        BenchmarkId::new("engine_patch", total_rows),
        &column,
        |b, col| {
            b.iter(|| {
                let delta = ProgramDelta::between(&old, &new);
                let mut report = engine_baseline.clone();
                black_box(report.patch(&delta, &new, col))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("engine_delta_only", total_rows),
        &column,
        |b, _| b.iter(|| black_box(ProgramDelta::between(&old, &new))),
    );
    group.finish();
}

criterion_group!(benches, bench_repair_latency);
criterion_main!(benches);
