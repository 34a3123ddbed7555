//! Cold dispatch: what a *new* leaf signature costs to decide, fused
//! automaton vs the per-branch `Pattern::split` loop.
//!
//! Steady-state execution is leaf-id array indexing and never re-decides,
//! so this bench manufactures the worst case for the decision path itself:
//! a program with k = 4 transparent branches where rows match the *last*
//! branch, so the per-branch loop burns a failed target match plus three
//! failed branch matches before the winner — while the fused automaton
//! decides all five patterns in one pass over the leaf's tokens.
//!
//! Two workloads, streamed in 8,192-row chunks through `ColumnStream`:
//!
//! * **all_new_leaf** — 1M rows, every row a brand-new *leaf signature*
//!   (four token-run lengths varied base-40: 2.56M combinations), under a
//!   `max_distinct: 10_000` budget. Every row is a decision-cache miss, so
//!   throughput ≈ cold-decision rate. This is the adversarial shape from
//!   the issue: the existing `bounded_stream` adversarial workload is
//!   value-distinct but leaf-repetitive, so it never exercised this path.
//! * **zipf** — 100k rows over 1k distinct leaves with harmonic skew: the
//!   well-behaved shape where cold decisions happen only ~1k times and the
//!   warm leaf-id path (identical in both variants) dominates.
//!
//! Each workload runs two ways: `fused` (default compilation — the
//! winner's split boundaries are *derived from the accepting path*, so a
//! cold decision is one pass over the tokens) and `per_branch`
//! (`CompiledProgram::without_fused()`, the pre-fused per-branch loop).
//!
//! This bench records no numbers in its source. The repository benchmark
//! (`perfbench/`, see its README) measures the stream, the interner and
//! the repair loop end to end and per layer, with repeated runs; compare
//! variants of this bench within one run of `cargo bench --bench cold_dispatch`.
//!
//! `CLX_BENCH_SMOKE=1` shrinks both workloads (~20k/10k rows) so CI can
//! execute the bench binary end to end on every PR without paying the
//! multi-minute full run; the printed numbers are then *not* comparable to
//! a full-size run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use clx_column::StreamBudget;
use clx_engine::{ColumnStream, CompiledProgram};
use clx_pattern::parse_pattern;
use clx_unifi::{Branch, Expr, Program, StringExpr};

const ZIPF_ROWS: usize = 100_000;
const ZIPF_DISTINCT: usize = 1_000;
const CHUNK: usize = 8_192;
const COLD_ROWS: usize = 1_000_000;
const BUDGET: usize = 10_000;

/// `CLX_BENCH_SMOKE=1`: tiny workloads so CI can execute (not just
/// compile) this binary on every PR. Numbers from a smoke run are not
/// comparable to the doc table.
fn smoke() -> bool {
    std::env::var_os("CLX_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Four transparent branches; the generated rows all match the last one,
/// maximizing the per-branch loop's wasted attempts.
fn program() -> Program {
    let rewrite_first = |pattern: &str| {
        Branch::new(
            parse_pattern(pattern).expect("pattern"),
            Expr::concat(vec![
                StringExpr::const_str("["),
                StringExpr::extract(1),
                StringExpr::const_str("]"),
            ]),
        )
    };
    Program::new(vec![
        rewrite_first("<D>+'/'<D>+'/'<D>+"),
        rewrite_first("'('<D>+')'<D>+'-'<D>+"),
        rewrite_first("<U>+'_'<D>+"),
        // The winner: digits-lower-upper-digits, any run lengths.
        rewrite_first("<D>+'-'<L>+'-'<U>+'-'<D>+"),
    ])
}

/// The two decision-path variants under test.
enum Variant {
    /// Default compilation: fused classify + splits derived from the
    /// accepting path (single-pass first sight).
    FusedDerived,
    /// The pre-fused per-branch `Pattern::split` loop.
    PerBranch,
}

fn compile(variant: Variant) -> Arc<CompiledProgram> {
    let target = parse_pattern("'['<D>+']'").expect("target");
    let compiled = CompiledProgram::compile(&program(), &target).expect("compile");
    Arc::new(match variant {
        Variant::FusedDerived => {
            assert!(compiled.fused_active(), "program must fuse");
            compiled
        }
        Variant::PerBranch => compiled.without_fused(),
    })
}

/// The row for leaf index `n`: four runs whose lengths are `n`'s base-40
/// digits, so consecutive indices give distinct leaf signatures (2.56M
/// combinations — every row of a 1M-row stream is a fresh leaf).
fn leaf_row(n: usize) -> String {
    let len = |i: u32| n / 40usize.pow(i) % 40 + 1;
    format!(
        "{}-{}-{}-{}",
        "9".repeat(len(0)),
        "a".repeat(len(1)),
        "Z".repeat(len(2)),
        "8".repeat(len(3)),
    )
}

fn all_new_leaf_rows(rows: usize) -> Vec<String> {
    (0..rows).map(leaf_row).collect()
}

/// Zipf-ish leaf reuse: rank r appears with frequency ~1/(r+1), assigned by
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
            leaf_row(rank)
        })
        .collect()
}

/// One whole stream over the data; returns rows processed.
fn run_stream(program: &Arc<CompiledProgram>, data: &[String]) -> usize {
    let mut stream =
        ColumnStream::with_budget(Arc::clone(program), StreamBudget::max_distinct(BUDGET));
    for chunk in data.chunks(CHUNK) {
        black_box(stream.push_rows(chunk));
    }
    stream.finish().rows()
}

fn bench_cold_dispatch(c: &mut Criterion) {
    let (cold_rows, zipf_total) = if smoke() {
        (20_000, 10_000)
    } else {
        (COLD_ROWS, ZIPF_ROWS)
    };
    let fused = compile(Variant::FusedDerived);
    let per_branch = compile(Variant::PerBranch);
    let cold = all_new_leaf_rows(cold_rows);
    let zipf = zipf_rows(zipf_total, ZIPF_DISTINCT);

    // Sanity outside timing: the two variants agree row-for-row, every
    // cold row really is a fresh leaf, the cold path is the one measured —
    // and on the derived variant *every* cold decision got its split from
    // the accepting path, with `Pattern::split` structurally absent.
    {
        let sample = &cold[..CHUNK.min(cold.len())];
        let mut a = ColumnStream::with_budget(Arc::clone(&fused), StreamBudget::unbounded());
        let mut b = ColumnStream::with_budget(Arc::clone(&per_branch), StreamBudget::unbounded());
        assert!(
            a.push_rows(sample) == b.push_rows(sample),
            "fused and per-branch streams must agree row-for-row"
        );
        let stats = fused.fused_stats();
        assert!(
            stats.fused_decisions >= sample.len() as u64,
            "all-new-leaf rows must be cold decisions (got {stats:?})"
        );
        assert_eq!(
            stats.split_derived, stats.fused_decisions,
            "every cold decision must derive its split from the path"
        );
        assert_eq!(stats.per_branch_decisions, 0, "no fallback on this program");
        println!(
            "cold sample: {} rows, fused decided {} (splits derived {}), per_branch decided {}",
            sample.len(),
            stats.fused_decisions,
            stats.split_derived,
            per_branch.fused_stats().per_branch_decisions
        );
    }

    let mut group = c.benchmark_group("cold_dispatch");
    group.sample_size(10);

    group.throughput(Throughput::Elements(cold_rows as u64));
    group.bench_with_input(
        BenchmarkId::new("all_new_leaf_per_branch", cold_rows),
        &cold,
        |b, data| b.iter(|| run_stream(&per_branch, data)),
    );
    group.bench_with_input(
        BenchmarkId::new("all_new_leaf_fused", cold_rows),
        &cold,
        |b, data| b.iter(|| run_stream(&fused, data)),
    );

    group.throughput(Throughput::Elements(zipf_total as u64));
    group.bench_with_input(
        BenchmarkId::new("zipf_per_branch", zipf_total),
        &zipf,
        |b, data| b.iter(|| run_stream(&per_branch, data)),
    );
    group.bench_with_input(
        BenchmarkId::new("zipf_fused", zipf_total),
        &zipf,
        |b, data| b.iter(|| run_stream(&fused, data)),
    );
    group.finish();
}

criterion_group!(benches, bench_cold_dispatch);
criterion_main!(benches);
