//! Bounded streaming: flat memory on adversarial input, near-zero overhead
//! on well-behaved input.
//!
//! Three workloads, streamed through `ColumnStream`:
//!
//! * **zipf** — 100k rows over 1k distinct values with a Zipf-ish (harmonic)
//!   frequency skew in 8,192-row chunks, the well-behaved shape real columns
//!   have. A `max_distinct: 10_000` budget never binds here, so the bounded
//!   stream must run within ~5% of the unbounded one (the budget costs one
//!   over-budget check per chunk plus memory accounting per intern).
//! * **adversarial** — 1M rows, every one a brand-new distinct value, in
//!   8,192-row chunks: the shape that grows an unbounded interner without
//!   bound. Under `max_distinct: 10_000` the stream completes with flat
//!   memory (peak = budget + one chunk, reported below), trading throughput
//!   for the per-boundary evict + re-intern work.
//! * **churn_small_chunks** — the first 100k of those all-distinct rows in
//!   64-row chunks under the same 10k budget: ~1.5k chunk boundaries, each
//!   evicting a ~64-victim batch out of a ~10k-slot decision table. This is
//!   the shape that isolates the decision-cache prune: each chunk carries
//!   the victims of its own boundary (`ColumnChunk::evicted`), and the
//!   stream drops exactly those ~64 decisions instead of walking every
//!   slot.
//!
//! `CLX_BENCH_SMOKE=1` shrinks the workloads (10k zipf and churn rows, 50k
//! adversarial rows) and the budget to 1k, so CI can execute the binary
//! end to end and drive eviction churn on every change; smoke numbers are
//! not comparable to a full-size run.
//!
//! This bench records no numbers in its source. The repository benchmark
//! (`perfbench/`, see its README) measures the stream, the interner and
//! the repair loop end to end and per layer, with repeated runs; compare
//! variants of this bench within one run of `cargo bench --bench bounded_stream`.
//!
//! The acceptance criterion — bounded memory on the adversarial stream,
//! asserted via `memory_used()` — is locked by
//! `tests/stream_properties.rs`; this bench records the throughput price.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use clx_column::StreamBudget;
use clx_core::ClxSession;
use clx_datagen::duplicate_heavy_case;
use clx_engine::{ColumnStream, CompiledProgram};

const DISTINCT: usize = 1_000;
const CHUNK: usize = 8_192;
/// Chunk size for the eviction-churn variant: small enough that the
/// stream crosses ~1.5k chunk boundaries, every one of which evicts a
/// small batch from a ~10k-slot table.
const CHURN_CHUNK: usize = 64;

/// `CLX_BENCH_SMOKE=1`: tiny workloads so CI can execute (not just
/// compile) this binary on every change.
fn smoke() -> bool {
    std::env::var_os("CLX_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Zipf and churn rows, adversarial rows, and the `max_distinct` budget.
fn sizes() -> (usize, usize, usize) {
    if smoke() {
        (10_000, 50_000, 1_000)
    } else {
        (100_000, 1_000_000, 10_000)
    }
}

fn compile() -> Arc<CompiledProgram> {
    let case = duplicate_heavy_case(2_000, 200, 11);
    Arc::new(
        ClxSession::new(case.data)
            .label_by_example(&case.target_example)
            .expect("label")
            .compile()
            .expect("compile"),
    )
}

/// A Zipf-ish column: rank r appears with frequency ~1/(r+1), assigned by
/// a deterministic low-discrepancy sequence (no RNG, stable across runs).
fn zipf_rows(rows: usize, distinct: usize) -> Vec<String> {
    let mut cumulative: Vec<f64> = Vec::with_capacity(distinct);
    let mut total = 0.0;
    for rank in 0..distinct {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    (0..rows)
        .map(|i| {
            let u = (i as f64 * GOLDEN).fract() * total;
            let rank = cumulative.partition_point(|&c| c < u).min(distinct - 1);
            format!("{:03}.{:03}.{:04}", rank % 1000, (rank / 7) % 1000, rank)
        })
        .collect()
}

/// Every row a brand-new distinct value; mostly transformable, every 7th
/// junk, so decisions and flags both stream through.
fn adversarial_rows(rows: usize) -> Vec<String> {
    (0..rows)
        .map(|n| {
            if n % 7 == 3 {
                format!("junk!{n:08}")
            } else {
                format!("{:03}.{:03}.{:04}", n % 1000, (n / 1000) % 1000, n % 10_000)
            }
        })
        .collect()
}

/// One whole stream over the data; returns rows processed.
fn run_stream(program: &Arc<CompiledProgram>, data: &[String], budget: StreamBudget) -> usize {
    run_stream_chunked(program, data, budget, CHUNK)
}

fn run_stream_chunked(
    program: &Arc<CompiledProgram>,
    data: &[String],
    budget: StreamBudget,
    chunk_rows: usize,
) -> usize {
    let mut stream = ColumnStream::with_budget(Arc::clone(program), budget);
    for chunk in data.chunks(chunk_rows) {
        black_box(stream.push_rows(chunk));
    }
    stream.finish().rows()
}

fn bench_bounded_stream(c: &mut Criterion) {
    let (rows, adversarial_len, budget) = sizes();
    let program = compile();
    let zipf = zipf_rows(rows, DISTINCT);
    let adversarial = adversarial_rows(adversarial_len);
    let churn: Vec<String> = adversarial[..rows].to_vec();

    // Report the adversarial stream's memory profile once, outside timing.
    {
        let mut stream =
            ColumnStream::with_budget(Arc::clone(&program), StreamBudget::max_distinct(budget));
        for chunk in adversarial.chunks(CHUNK) {
            stream.push_rows(chunk);
        }
        let evictions = stream.evictions();
        let live = stream.interner().live_distinct_count();
        let summary = stream.finish();
        println!(
            "adversarial bounded stream: peak memory {} KB, evictions {}, live {} (rows {})",
            summary.peak_memory_bytes / 1024,
            evictions,
            live,
            summary.rows()
        );

        // The O(distinct) growth the budget removes, measured on a prefix
        // of the same stream (the whole stream would retain
        // proportionally more).
        let mut unbounded = ColumnStream::new(Arc::clone(&program));
        for chunk in adversarial[..rows].chunks(CHUNK) {
            unbounded.push_rows(chunk);
        }
        println!(
            "unbounded stream at {} adversarial rows: {} KB retained (grows linearly)",
            rows,
            unbounded.memory_used() / 1024
        );
    }

    let mut group = c.benchmark_group("bounded_stream");
    group.sample_size(10);

    group.throughput(Throughput::Elements(rows as u64));
    group.bench_with_input(
        BenchmarkId::new("zipf_unbounded", rows),
        &zipf,
        |b, data| b.iter(|| run_stream(&program, data, StreamBudget::unbounded())),
    );
    group.bench_with_input(
        BenchmarkId::new(format!("zipf_bounded_{budget}"), rows),
        &zipf,
        |b, data| b.iter(|| run_stream(&program, data, StreamBudget::max_distinct(budget))),
    );
    // A budget tighter than the distinct count: evicts at every boundary,
    // the worst case for a well-behaved stream.
    group.bench_with_input(
        BenchmarkId::new("zipf_bounded_500", rows),
        &zipf,
        |b, data| b.iter(|| run_stream(&program, data, StreamBudget::max_distinct(500))),
    );
    // Eviction *churn*: all-distinct rows in tiny chunks over a large
    // budget, so every one of ~1.5k boundaries evicts a ~chunk-sized batch
    // from a ~10k-slot table. The stream drops the decisions of exactly
    // the victims each chunk carries: O(evicted)=64 per boundary, never an
    // O(slots) walk.
    group.bench_with_input(
        BenchmarkId::new("churn_small_chunks", rows),
        &churn,
        |b, data| {
            b.iter(|| {
                run_stream_chunked(
                    &program,
                    data,
                    StreamBudget::max_distinct(budget),
                    CHURN_CHUNK,
                )
            })
        },
    );

    group.throughput(Throughput::Elements(adversarial_len as u64));
    group.bench_with_input(
        BenchmarkId::new("adversarial_bounded", adversarial_len),
        &adversarial,
        |b, data| b.iter(|| run_stream(&program, data, StreamBudget::max_distinct(budget))),
    );
    group.finish();
}

criterion_group!(benches, bench_bounded_stream);
criterion_main!(benches);
