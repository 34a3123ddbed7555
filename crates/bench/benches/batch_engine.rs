//! Throughput of the `clx-engine` batch subsystem: rows/sec of the
//! compiled, block-parallel `execute` vs. the sequential session `apply`
//! on a 100k-row generated phone column.
//!
//! `CLX_BENCH_SMOKE=1` shrinks the column to 10k rows so CI can execute
//! the binary end to end, `apply == execute` assertion included; smoke
//! numbers are not comparable to a full-size run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use clx_core::{ClxSession, TransformReport};
use clx_datagen::large_case;
use clx_pattern::tokenize;

/// `CLX_BENCH_SMOKE=1`: a tiny workload so CI can execute (not just
/// compile) this binary on every change.
fn smoke() -> bool {
    std::env::var_os("CLX_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn bench_batch_engine(c: &mut Criterion) {
    let rows = if smoke() { 10_000 } else { 100_000 };
    let case = large_case(rows, 7);
    let session = ClxSession::new(case.data.clone())
        .label(tokenize("734-422-8073"))
        .expect("label");
    let compiled = session.compile().expect("compile");

    // Sanity: the two paths agree on this workload (a benchmark of a wrong
    // answer would be worthless).
    let sequential = session.apply().expect("apply");
    let executed = TransformReport::from_batch(compiled.execute(&case.data));
    assert_eq!(sequential, executed);

    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_with_input(
        BenchmarkId::new("sequential_apply", rows),
        &session,
        |b, session| {
            b.iter(|| {
                let report = session.apply().expect("apply");
                black_box(report.transformed_count())
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("execute", rows), &case.data, |b, data| {
        b.iter(|| {
            let report = compiled.execute(black_box(data));
            black_box(report.transformed_count())
        })
    });

    // The one-time cost the compiled paths pay up front.
    group.bench_function("compile_program", |b| {
        b.iter(|| black_box(session.compile().expect("compile")))
    });

    group.finish();
}

criterion_group!(benches, bench_batch_engine);
criterion_main!(benches);
