//! Streaming ingest throughput: one-shot `execute` over the whole column
//! vs the chunked `push_rows` path through a persistent interner, plus
//! sharded vs single-threaded `Column` construction.
//!
//! Workload: 100k rows / ≤1k distinct values (datagen `duplicate_heavy_case`),
//! streamed in 8,192-row chunks. Each iteration runs a whole stream
//! (fresh interner and caches), so the streaming numbers *include* the
//! interning cost. `execute` interns the same rows per block (one block per
//! CPU above 16,384 rows) and decides each distinct value once per block;
//! the stream decides it once per stream and reports chunk by chunk.
//!
//! The sharded builder only beats sequential construction once the
//! per-shard work outweighs its constant merge and row-translation cost,
//! which depends on the host's core count; the 1-vs-N byte-identity is
//! locked by `tests/column_builder.rs` either way.
//!
//! Run with: `cargo bench --bench stream_ingest`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use clx_column::{Column, ColumnBuilder};
use clx_core::ClxSession;
use clx_datagen::duplicate_heavy_case;
use clx_engine::{ColumnStream, CompiledProgram};

const ROWS: usize = 100_000;
const DISTINCT: usize = 1_000;
const CHUNK: usize = 8_192;

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
    let case = duplicate_heavy_case(ROWS, DISTINCT, 7);
    let program = Arc::new(compile_for(&case.data, &case.target_example));

    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_with_input(BenchmarkId::new("execute", ROWS), &case.data, |b, data| {
        b.iter(|| black_box(program.execute(black_box(data)).len()))
    });

    group.bench_with_input(
        BenchmarkId::new("push_rows", ROWS),
        &case.data,
        |b, data| b.iter(|| black_box(stream_columns(&program, black_box(data)))),
    );

    group.finish();

    let mut group = c.benchmark_group("from_rows");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_with_input(
        BenchmarkId::new("sequential", ROWS),
        &case.data,
        |b, data| b.iter(|| black_box(Column::from_rows(black_box(data).clone()))),
    );
    for shards in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("builder_{shards}_shards"), ROWS),
            &case.data,
            |b, data| {
                let builder = ColumnBuilder::new().shards(shards);
                b.iter(|| black_box(builder.build(black_box(data).clone())))
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_stream_ingest);
criterion_main!(benches);
