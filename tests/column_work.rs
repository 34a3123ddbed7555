//! Work gate for column construction: building a `Column` makes a number
//! of allocator calls that does not grow with its distinct values.
//!
//! The binary installs a counting `#[global_allocator]` and holds exactly
//! one test, so the counters see only the work under test. The input rows
//! are cloned before the count starts.
//!
//! `Column::from_rows`, over 1,000 and over 20,000 distinct `large_case`
//! phone values, stays under [`BUILD_CALLS`] allocation plus reallocation
//! calls. The column keeps per distinct value an arena span, a leaf-id and
//! a range of one flat token-slice list, each leaf pattern once, and the
//! rows as one flat list, so what is left is the doubling growth of a few
//! flat vectors and hash tables: `from_rows` makes 74 calls at 1,000
//! distinct values and 87 at 20,000. When each distinct value owned its
//! own tokenization (a copy of its text, its leaf pattern with a `String`
//! per literal, a `String` per token slice and its own row `Vec`), the
//! same build made about 19.9 calls per distinct value: 19,891 at 1,000.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use clx::Column;

/// `System`, counting every `alloc` and `realloc` call.
struct CountingAlloc;

static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls made while `f` runs.
fn calls_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

/// Allocation plus reallocation calls one column build may make, at any
/// distinct count.
const BUILD_CALLS: usize = 200;

#[test]
fn column_build_calls_do_not_grow_with_distinct_values() {
    let case = clx::datagen::large_case(25_000, 11);
    let mut seen = HashSet::new();
    let distinct: Vec<String> = case
        .data
        .into_iter()
        .filter(|row| seen.insert(row.clone()))
        .take(20_000)
        .collect();
    assert_eq!(distinct.len(), 20_000, "bad workload");

    for n in [1_000, 20_000] {
        let rows = distinct[..n].to_vec();
        let (column, from_rows) = calls_during(|| Column::from_rows(rows));
        println!("{n} distinct: from_rows {from_rows} calls");
        assert_eq!(column.distinct_count(), n);
        assert!(
            from_rows <= BUILD_CALLS,
            "from_rows: {from_rows} calls at {n} distinct"
        );
    }
}
