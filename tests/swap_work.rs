//! Work gate for `ColumnStream::swap_program`: a program swap costs
//! O(cached dispatch plans), never O(decided distinct values), and bounded
//! streams keep their plans across value evictions.
//!
//! The binary installs a counting `#[global_allocator]` and holds exactly
//! one test, so the counters see only the work under test. Two phases:
//!
//! * **swap work** — the allocation plus free calls made inside one
//!   `swap_program` (the paper's repair: one source pattern switched to its
//!   second-ranked plan) are the same for a stream holding 20k decided
//!   distinct values as for one holding 1k over the same leaves. A swap
//!   that visited decided values would free the outcome texts it
//!   invalidates, thousands of calls at 20k. Both programs are warmed
//!   first, since each analyzes its reachability once, on its first swap;
//! * **plan work** — over a bounded all-distinct stream of 200 chunks
//!   (the `ingest_distinct` shape, with a swap every 25 chunks), the
//!   dispatch cache builds at most `leaves × (swaps + 1)` plans: value
//!   evictions that free no leaf-id keep every plan.
//!
//! Release builds run the `ingest_distinct` sizes (1k-row chunks, a
//! 20k-distinct budget); debug builds shrink the chunks and the budget by
//! 4x so `cargo test` stays fast.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use clx::pattern::tokenize;
use clx::{ClxSession, ColumnStream, CompiledProgram, StreamBudget};

/// `System`, counting every `alloc`, `realloc` and `dealloc` call.
struct CountingAlloc;

static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SCALE: usize = if cfg!(debug_assertions) { 4 } else { 1 };
const CHUNK: usize = 1_000 / SCALE;
const BUDGET: usize = 20_000 / SCALE;
const SWAP_EVERY: usize = 25;

/// The program the paper's loop synthesizes for a phone-study column
/// (labelled from its first 20,000 rows, as the ingest benchmarks do), and
/// the same program after repairing the first source pattern that has a
/// second-ranked plan to that plan.
fn programs(case: &clx::datagen::PhoneStudyCase) -> [Arc<CompiledProgram>; 2] {
    let sample = case.data[..case.data.len().min(20_000)].to_vec();
    let mut session = ClxSession::new(sample)
        .label_by_example(&case.target_example)
        .expect("label");
    let program = Arc::new(session.compile().expect("compile"));
    let source = session
        .synthesis()
        .sources
        .iter()
        .find(|source| source.plans.len() >= 2)
        .map(|source| source.pattern.clone())
        .expect("a source pattern with a second plan");
    assert!(session.repair(&source, 1), "plan 1 is accepted");
    let repaired = Arc::new(session.compile().expect("compile"));
    [program, repaired]
}

/// Allocator calls made by one swap of a stream that decided `rows`, with
/// the decided values and cached plans the swap found.
fn swap_calls(programs: &[Arc<CompiledProgram>; 2], rows: &[String]) -> (usize, usize, usize) {
    let mut stream = ColumnStream::new(Arc::clone(&programs[0]));
    for chunk in rows.chunks(CHUNK) {
        drop(stream.push_rows(chunk));
    }
    let decided = stream.distinct_decided();
    let plans = stream.dispatch_cache().dense_len();
    let next = Arc::clone(&programs[1]);
    let before = CALLS.load(Ordering::Relaxed);
    let summary = stream.swap_program(next);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(summary.branches_changed > 0, "the repair changed nothing");
    assert!(
        summary.dense_plans_dropped > 0,
        "the repair dropped no plan"
    );
    (calls, decided, plans)
}

#[test]
fn swap_work_is_independent_of_decided_distincts() {
    let case = clx::datagen::large_case(200_000 / SCALE, 7);
    let programs = programs(&case);

    // Phase 1: 1k versus 20k decided values over the same leaves (the
    // small set takes one row per leaf of the large one, then fills up).
    let large = &case.data[..20_000];
    let mut leaves = HashSet::new();
    let mut small: Vec<String> = large
        .iter()
        .filter(|row| leaves.insert(tokenize(row)))
        .cloned()
        .collect();
    small.extend(large[..1_000 - small.len()].iter().cloned());
    // A program analyzes its branches' reachability on its first swap and
    // keeps the result: warm both on an empty stream, so the two measured
    // swaps do the same work.
    ColumnStream::new(Arc::clone(&programs[0])).swap_program(Arc::clone(&programs[1]));
    let (small_calls, small_decided, small_plans) = swap_calls(&programs, &small);
    let (large_calls, large_decided, large_plans) = swap_calls(&programs, large);
    println!(
        "swap: {small_calls} allocator calls at {small_decided} decided values, \
         {large_calls} at {large_decided} ({small_plans} plans)"
    );
    assert!(
        small_decided <= 1_000 && large_decided >= 19_000,
        "bad workload"
    );
    assert_eq!(
        small_plans, large_plans,
        "the two streams hold different leaves"
    );
    assert_eq!(
        small_calls, large_calls,
        "swap_program's allocator calls grew with the decided values"
    );

    // Phase 2: the `ingest_distinct` shape. Every chunk evicts as many
    // values as it interns; plans are rebuilt only for the swaps' dropped
    // plans and for the (rare) freed leaf-ids.
    let mut stream =
        ColumnStream::with_budget(Arc::clone(&programs[0]), StreamBudget::max_distinct(BUDGET));
    let mut active = 0;
    let mut swaps = 0;
    let chunks: Vec<&[String]> = case.data.chunks(CHUNK).collect();
    for (index, chunk) in chunks.iter().enumerate() {
        if index > 0 && index % SWAP_EVERY == 0 {
            active ^= 1;
            stream.swap_program(Arc::clone(&programs[active]));
            swaps += 1;
        }
        drop(stream.push_rows(chunk));
    }
    let leaves = case
        .data
        .iter()
        .map(|row| tokenize(row))
        .collect::<HashSet<_>>()
        .len();
    let misses = stream.dispatch_cache().stats().dense_misses;
    println!(
        "plans: {misses} built over {} chunks, {leaves} leaves, {swaps} swaps, {} evictions",
        chunks.len(),
        stream.evictions()
    );
    assert_eq!(chunks.len(), 200);
    assert!(stream.evictions() > 0, "budget never bound — bad workload");
    assert!(
        misses <= (leaves * (swaps + 1)) as u64,
        "{misses} plans built; gate: {leaves} leaves x {} program epochs",
        swaps + 1
    );
}
