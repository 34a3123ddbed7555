//! Streaming ingest throughput: one-shot `execute` over the whole column
//! vs the chunked `push_rows` path through a persistent interner, plus
//! `Column` construction from the same rows.
//!
//! Workload: 100k rows / ≤1k distinct values (datagen `duplicate_heavy_case`),
//! streamed in 8,192-row chunks. Each iteration runs a whole stream
//! (fresh interner and caches), so the streaming numbers *include* the
//! interning cost. `execute` interns the same rows per block (one block per
//! CPU above 16,384 rows) and decides each distinct value once per block;
//! the stream decides it once per stream and reports chunk by chunk.
//!
//! Run with: `cargo bench --bench stream_ingest`.
//! `CLX_BENCH_SMOKE=1` shrinks the workload to 10k rows, so CI can execute
//! the binary end to end on every change; smoke numbers are not comparable
//! to a full-size run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use clx_column::Column;
use clx_core::ClxSession;
use clx_datagen::duplicate_heavy_case;
use clx_engine::{ColumnStream, CompiledProgram};

const DISTINCT: usize = 1_000;
const CHUNK: usize = 8_192;

/// `CLX_BENCH_SMOKE=1`: a tiny workload so CI can execute (not just
/// compile) this binary on every change.
fn smoke() -> bool {
    std::env::var_os("CLX_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Rows per stream.
fn rows() -> usize {
    if smoke() {
        10_000
    } else {
        100_000
    }
}

fn compile_for(case_data: &[String], target_example: &str) -> CompiledProgram {
    let sample: Vec<String> = case_data.iter().take(2_000).cloned().collect();
    ClxSession::new(sample)
        .label_by_example(target_example)
        .expect("label")
        .compile()
        .expect("compile")
}

/// One whole stream over the columnar path: chunks intern into a persistent
/// id space; distinct values tokenize and decide once per stream.
fn stream_columns(program: &Arc<CompiledProgram>, data: &[String]) -> usize {
    let mut stream = ColumnStream::new(Arc::clone(program));
    for chunk in data.chunks(CHUNK) {
        black_box(stream.push_rows(chunk));
    }
    stream.finish().rows()
}

fn bench_stream_ingest(c: &mut Criterion) {
    let rows = rows();
    let case = duplicate_heavy_case(rows, DISTINCT, 7);
    let program = Arc::new(compile_for(&case.data, &case.target_example));

    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));

    group.bench_with_input(BenchmarkId::new("execute", rows), &case.data, |b, data| {
        b.iter(|| black_box(program.execute(black_box(data)).len()))
    });

    group.bench_with_input(
        BenchmarkId::new("push_rows", rows),
        &case.data,
        |b, data| b.iter(|| black_box(stream_columns(&program, black_box(data)))),
    );

    group.finish();

    let mut group = c.benchmark_group("from_rows");
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));

    group.bench_with_input(
        BenchmarkId::new("sequential", rows),
        &case.data,
        |b, data| b.iter(|| black_box(Column::from_rows(black_box(data).clone()))),
    );

    group.finish();
}

criterion_group!(benches, bench_stream_ingest);
criterion_main!(benches);
