//! Telemetry overhead: what does observing the stream cost?
//!
//! The same 100k-row / 1k-distinct duplicate-heavy workload is streamed in
//! 8,192-row chunks through `ColumnStream` three ways:
//!
//! * **none** — no sink attached: the disabled path the library guarantees
//!   is one `Option` branch per chunk (no clock reads, no atomic traffic);
//! * **noop** — a `NoopSink` attached: the chunk path now reads the clock
//!   twice per chunk and calls the sink's empty methods; this bounds the
//!   cost of the instrumentation *plumbing*;
//! * **in_memory** — an `InMemorySink` attached: the real thing, with
//!   atomic counter/gauge/histogram updates behind a read-locked map.
//!
//! All sink work happens at chunk boundaries (per-chunk deltas of plain
//! `u64` tallies), never per row, so overhead amortizes over the chunk
//! size. Target from the issue: `<3%` with `InMemorySink`, unmeasurable
//! with no sink.
//!
//! This bench records no numbers in its source. The repository benchmark
//! (`perfbench/`, see its README) measures the stream, the interner and
//! the repair loop end to end and per layer, with repeated runs; compare
//! variants of this bench within one run of `cargo bench --bench telemetry_overhead`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use clx_core::ClxSession;
use clx_datagen::duplicate_heavy_case;
use clx_engine::{ColumnStream, CompiledProgram};
use clx_telemetry::{InMemorySink, MetricSink, NoopSink};

const ROWS: usize = 100_000;
const DISTINCT: usize = 1_000;
const CHUNK: usize = 8_192;

fn workload() -> (Arc<CompiledProgram>, Vec<String>) {
    let case = duplicate_heavy_case(ROWS, DISTINCT, 42);
    let sample: Vec<String> = case.data.iter().take(2_000).cloned().collect();
    let program = Arc::new(
        ClxSession::new(sample)
            .label_by_example(&case.target_example)
            .expect("label")
            .compile()
            .expect("compile"),
    );
    (program, case.data)
}

/// One whole stream over the data; returns rows processed.
fn run_stream(
    program: &Arc<CompiledProgram>,
    data: &[String],
    sink: Option<Arc<dyn MetricSink>>,
) -> usize {
    let mut stream = ColumnStream::new(Arc::clone(program));
    if let Some(sink) = sink {
        stream = stream.with_telemetry(sink);
    }
    for chunk in data.chunks(CHUNK) {
        black_box(stream.push_rows(chunk));
    }
    stream.finish().rows()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let (program, data) = workload();

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_with_input(BenchmarkId::new("none", ROWS), &data, |b, data| {
        b.iter(|| run_stream(&program, data, None))
    });
    group.bench_with_input(BenchmarkId::new("noop", ROWS), &data, |b, data| {
        b.iter(|| run_stream(&program, data, Some(Arc::new(NoopSink))))
    });
    group.bench_with_input(BenchmarkId::new("in_memory", ROWS), &data, |b, data| {
        b.iter(|| {
            let sink = InMemorySink::shared();
            run_stream(&program, data, Some(sink as Arc<dyn MetricSink>))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
