//! Work gate for the language-query kernel: the pattern matcher and the
//! automaton searches behind synthesis pruning and static analysis.
//!
//! The binary installs a counting `#[global_allocator]` and holds exactly
//! one test, so the counters see only the work under test. Two phases:
//!
//! * **matcher** — once its per-thread buffers are warm, `Pattern::matches`
//!   on an ASCII value makes no allocator call, whether the value matches
//!   or not;
//! * **label and analyze** — the allocation plus reallocation calls made
//!   by `label` and `analyze` over `benchmark_suite` seeds 7..12 (235 task
//!   instances) stay under a bound. This kernel makes 326,361 such calls;
//!   the bound adds about 10%. Before it, `matches` made three
//!   allocations per call and each search rebuilt its atom table: the
//!   same phase made 555,147 calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use clx::datagen::benchmark_suite;
use clx::pattern::{parse_pattern, tokenize};
use clx::ClxSession;

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

/// The suite seeds the second phase labels and analyzes.
const SEEDS: std::ops::Range<u64> = 7..12;

/// Allocation plus reallocation calls `label` and `analyze` may make over
/// [`SEEDS`].
const LABEL_ANALYZE_CALLS: usize = 359_000;

#[test]
fn matching_allocates_nothing_and_label_analyze_work_is_bounded() {
    let cases = [
        ("<AN>+'-'<AN>+", "a-b-c"),
        ("<D>3'-'<D>3'-'<D>4", "734-422-8073"),
        ("<D>3'-'<D>3'-'<D>4", "734-422-807"),
        ("'('<D>3')'' '<D>3'-'<D>4", "734-422-8073"),
        ("<U>+'.'<L>+", "Dr.smith"),
    ];
    let patterns: Vec<_> = cases
        .iter()
        .map(|(p, v)| (parse_pattern(p).unwrap(), *v))
        .collect();
    let long = "7".repeat(2_000);
    let digits = tokenize(&long);
    // Warm the buffers: the first calls size them for these inputs.
    for (p, v) in &patterns {
        p.matches(v);
    }
    digits.matches(&long);
    for (p, v) in &patterns {
        let (matched, calls) = calls_during(|| p.matches(v));
        assert_eq!(calls, 0, "{p} on {v:?} (matched: {matched})");
    }
    let (matched, calls) = calls_during(|| digits.matches(&long));
    assert!(matched);
    assert_eq!(calls, 0, "a 2,000-character value");

    let mut total = 0;
    for seed in SEEDS {
        for task in benchmark_suite(seed) {
            let session = ClxSession::new(task.inputs.clone());
            let target = task.target.clone();
            let (labelled, calls) = calls_during(|| {
                let labelled = session.label(target).ok()?;
                labelled.analyze();
                Some(labelled)
            });
            total += calls;
            drop(labelled);
        }
    }
    assert!(total <= LABEL_ANALYZE_CALLS, "{total} allocator calls");
}
