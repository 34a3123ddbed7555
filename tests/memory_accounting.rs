//! Cross-check of the stream's *estimated* memory accounting against the
//! *actual* allocator: `StreamSummary::peak_memory_bytes` is a model
//! (interned bytes + table/cache estimates), and this binary installs a
//! counting `#[global_allocator]` to measure how honest that model is.
//!
//! The whole binary holds exactly one test so the counters see only the
//! stream under test; chunks are generated on the fly and dropped after
//! each push so the input data never dominates the measurement. Three
//! more phases of the same test count allocation calls instead of bytes:
//!
//! * the interner's write path must make at most one allocation per newly
//!   interned value;
//! * a warm stream replaying stored decisions (the `ingest_repeat` shape)
//!   must make at most 0.05 allocations per pushed row — a replay shares
//!   the stored outcome's text instead of copying it;
//! * a bounded stream deciding fresh values (the `ingest_distinct` shape)
//!   must make at most two allocations per newly decided value: one to
//!   intern it, one for its outcome's shared text (release builds only:
//!   debug assertions re-tokenize each decided value).
//!
//! The estimate deliberately under-counts the process truth — it models
//! retained columnar state (arena bytes, intern tables, decision cache,
//! dispatch plans) and not allocator headers, `Vec` growth slack, the
//! in-flight chunk being interned, or the per-chunk report — so the
//! interesting direction is a *lower* bound: the estimate must be a
//! substantial fraction of the allocator-observed peak, not off by an
//! order of magnitude.
//!
//! Measured on a 2-vCPU Linux x86-64 host (adversarial all-distinct
//! stream, budget `max_distinct(10_000)`, 10k-row chunks):
//!
//! * release, 1M rows:  estimate 3.7 MB vs allocator peak delta 4.5 MB
//!   — ratio (actual/estimate) 1.23;
//! * debug, 200k rows:  identical peaks, ratio 1.23 (memory is flat once
//!   the budget binds, so stream length does not move either number).
//!
//! The allocation phases measured, on the same host: interner 0.01
//! allocations per new value; warm repeat 0.008 per pushed row (8 per
//! 1k-row chunk, all bookkeeping: the chunk's id buffer, reserved once,
//! its row map and the report's shared copy of it, the outcome `Vec`, the
//! multiplicity `Vec`, and the report's clone of the target pattern, three
//! allocations for `<D>3'-'<D>3'-'<D>4`); distinct 1.02 per newly decided
//! value (release).
//!
//! The test asserts the ratio stays in `[1.0, 3.0]`: the model may never
//! *over*-state what the allocator saw (it skips real overheads, so
//! actual ≥ estimate), and it must stay within 3x of the truth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use clx::pattern::tokenize;
use clx::unifi::{Branch, Expr, Program, StringExpr};
use clx::{ClxSession, ColumnInterner, ColumnStream, CompiledProgram, StreamBudget};
use std::sync::Arc;

/// `System`, with live/peak byte counters and an allocation-call counter
/// on the side.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// `alloc` and `realloc` calls, the unit of the allocation gate.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The workspace's standard phone-rewrite program (see
/// `tests/stream_properties.rs`).
fn program() -> Arc<CompiledProgram> {
    let program = Program::new(vec![Branch::new(
        tokenize("734.236.3466"),
        Expr::concat(vec![
            StringExpr::extract(1),
            StringExpr::const_str("-"),
            StringExpr::extract(3),
            StringExpr::const_str("-"),
            StringExpr::extract(5),
        ]),
    )]);
    Arc::new(CompiledProgram::compile(&program, &tokenize("734-422-8073")).unwrap())
}

/// The program the paper's loop synthesizes for a phone-study column,
/// labelled and compiled from its first 20,000 rows (as the ingest
/// benchmarks do): it rewrites every study format, so most rows are
/// transformed.
fn synthesized(case: &clx::datagen::PhoneStudyCase) -> Arc<CompiledProgram> {
    let sample = case.data[..case.data.len().min(20_000)].to_vec();
    let session = ClxSession::new(sample)
        .label_by_example(&case.target_example)
        .expect("label");
    Arc::new(session.compile().expect("compile"))
}

#[test]
fn peak_memory_estimate_tracks_the_allocator() {
    // The full 1M-row adversarial stream in release; a 200k prefix in
    // debug so `cargo test` stays fast. The ratio is shape-, not
    // length-dependent: memory is flat after the budget binds.
    const ROWS: usize = if cfg!(debug_assertions) {
        200_000
    } else {
        1_000_000
    };
    const CHUNK: usize = 10_000;
    const BUDGET: usize = 10_000;

    let program = program();

    // Baseline after the program is built: everything allocated from here
    // on is the stream's doing (plus transient chunks and reports).
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);

    let mut stream = ColumnStream::with_budget(program, StreamBudget::max_distinct(BUDGET));
    for c in 0..(ROWS / CHUNK) {
        // Every row a brand-new distinct value (the shape that maximizes
        // retained state per row); every 7th junk so flags stream too.
        let rows: Vec<String> = (0..CHUNK)
            .map(|i| {
                let n = c * CHUNK + i;
                if n % 7 == 3 {
                    format!("junk!{n:08}")
                } else {
                    format!("{:03}.{:03}.{:04}", n % 1000, (n / 1000) % 1000, n % 10_000)
                }
            })
            .collect();
        stream.push_rows(&rows);
    }

    let summary = stream.finish();
    let actual_peak = PEAK.load(Ordering::Relaxed) - live_before;
    let estimate = summary.peak_memory_bytes;
    let ratio = actual_peak as f64 / estimate as f64;
    println!(
        "rows {ROWS}: estimated peak {estimate} B, allocator peak delta {actual_peak} B, \
         ratio (actual/estimate) {ratio:.2}"
    );

    assert_eq!(summary.rows(), ROWS);
    assert!(summary.evictions > 0, "budget never bound — bad workload");
    // The model never claims more than the allocator saw…
    assert!(
        ratio >= 1.0,
        "estimate {estimate} B exceeds allocator-observed peak {actual_peak} B"
    );
    // …and stays within 3x of it (measured 1.23 here; 3x leaves room
    // for allocator/platform variance without letting the model drift
    // into fiction).
    assert!(
        ratio <= 3.0,
        "estimate {estimate} B is less than a third of the allocator-observed \
         peak {actual_peak} B"
    );

    // Phase 2, the allocation gate: the interner's write path on the
    // `ingest_distinct` shape (nearly all-distinct phones through a
    // 20k-distinct budget in 1k-row chunks). After a warm-up that fills the
    // budget, every chunk interns ~1k new values and evicts as many, and the
    // allocations it makes must stay a small constant per new value
    // (measured: 0.02).
    let rows = clx::datagen::large_case(
        if cfg!(debug_assertions) {
            60_000
        } else {
            200_000
        },
        7,
    )
    .data;
    let (warm_up, measured) = rows.split_at(40_000);
    let mut interner = ColumnInterner::with_budget(StreamBudget::max_distinct(20_000));
    for chunk in warm_up.chunks(1_000) {
        drop(interner.chunk(chunk));
    }
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let mut newly_interned = 0;
    for chunk in measured.chunks(1_000) {
        newly_interned += interner.chunk(chunk).newly_interned();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let per_value = allocs as f64 / newly_interned as f64;
    println!("interner: {allocs} allocations for {newly_interned} new values, {per_value:.2} each");
    assert!(
        interner.evictions() > 0,
        "budget never bound — bad workload"
    );
    assert!(
        per_value <= 1.0,
        "{per_value:.2} allocations per newly interned value (gate: 1)"
    );
    drop(interner);

    // Phase 3, the warm repeat gate: a duplicate-heavy column (10k
    // distinct values) through an unbounded stream in 1k-row chunks. After
    // one warm-up pass every value is interned and decided, so a second
    // pass only looks values up and replays stored outcomes; what it
    // allocates is per-chunk bookkeeping, never per row.
    let case = clx::datagen::duplicate_heavy_case(
        if cfg!(debug_assertions) {
            100_000
        } else {
            1_000_000
        },
        10_000,
        7,
    );
    let mut stream = ColumnStream::new(synthesized(&case));
    for chunk in case.data.chunks(1_000) {
        drop(stream.push_rows(chunk));
    }
    let decided = stream.distinct_decided();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let mut transformed = 0;
    for chunk in case.data.chunks(1_000) {
        transformed += stream.push_rows(chunk).stats.transformed;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let per_row = allocs as f64 / case.data.len() as f64;
    println!(
        "warm repeat: {allocs} allocations for {} pushed rows, {per_row:.4} each",
        case.data.len()
    );
    assert_eq!(stream.distinct_decided(), decided, "warm pass decided anew");
    assert!(transformed > case.data.len() / 2, "bad workload");
    assert!(
        per_row <= 0.05,
        "{per_row:.4} allocations per pushed warm row (gate: 0.05)"
    );
    drop(stream);

    // Phase 4, the distinct gate: nearly all-distinct phones through a
    // 20k-distinct budget in 1k-row chunks. After a warm-up that fills the
    // budget, every chunk interns and decides ~1k new values and evicts as
    // many. Each newly interned value is newly decided (an evicted value's
    // decision is released with it), which the stream's tallies confirm.
    let case = clx::datagen::large_case(
        if cfg!(debug_assertions) {
            60_000
        } else {
            200_000
        },
        7,
    );
    let mut stream =
        ColumnStream::with_budget(synthesized(&case), StreamBudget::max_distinct(20_000));
    let (warm_up, measured) = case.data.split_at(40_000);
    for chunk in warm_up.chunks(1_000) {
        drop(stream.push_rows(chunk));
    }
    let interned_before = stream.interner().stats().intern_misses;
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    for chunk in measured.chunks(1_000) {
        drop(stream.push_rows(chunk));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let interned = stream.interner().stats().intern_misses;
    let newly_decided = interned - interned_before;
    let per_value = allocs as f64 / newly_decided as f64;
    println!(
        "distinct: {allocs} allocations for {newly_decided} new decisions, {per_value:.2} each"
    );
    let summary = stream.finish();
    assert_eq!(
        summary.decision_cache_misses, interned,
        "every newly interned value is newly decided"
    );
    assert!(summary.evictions > 0, "budget never bound — bad workload");
    assert!(summary.stats.transformed > 0, "bad workload");
    // A debug build re-tokenizes every first-sight value inside a
    // `debug_assert` (the dispatched leaf must be the value's own), about
    // five allocations more per decision; the gate holds the release
    // build, which CI runs at full row counts.
    assert!(
        cfg!(debug_assertions) || per_value <= 2.0,
        "{per_value:.2} allocations per newly decided value (gate: 2)"
    );
}
