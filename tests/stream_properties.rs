//! Property tests locking down the streaming data plane — in particular
//! the bounded-memory paths added for untrusted input.
//!
//! The core equivalence: for *random* row sets, *random* chunk splits and
//! *random* [`StreamBudget`]s (including `max_distinct: 1`, arena-byte
//! caps and unbounded), pushing the rows through a [`ColumnStream`] chunk
//! by chunk is row-for-row identical to one-shot
//! [`CompiledProgram::execute_column`] over the whole column. Eviction may
//! only change *retained memory*, never an outcome.
//!
//! The differential oracle: on *random* programs (transparent, opaque,
//! `+`-quantified, fallback-forcing wide) every execution path — `execute`,
//! `execute_column`, chunked and budgeted streams with the fused automaton
//! on and off — equals the interpreter (`clx_unifi::transform_lenient`
//! behind the target check), row for row.
//!
//! The re-verification properties live here too: a stream whose program is
//! hot-swapped mid-flight equals a fresh stream of the new program on the
//! remaining chunks (under every budget, including eviction; an identical
//! program re-decides nothing), and session-level `reverify` after
//! arbitrary repair sequences equals a fresh `apply`.
//!
//! Also here: the interner's eviction order against a reference model,
//! and the adversarial 1M-row bounded-memory acceptance test.
//!
//! Run with `PROPTEST_CASES=256` (CI does, in release) for real coverage;
//! the default is 64 cases per property.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use clx::engine::Decision;
use clx::pattern::automaton::MultiPatternAutomaton;
use clx::pattern::{tokenize, Quantifier, TokenSlice};
use clx::unifi::{transform_lenient, Branch, Expr, Program, StringExpr, TransformOutcome};
use clx::{
    Column, ColumnInterner, ColumnStream, CompiledProgram, InMemorySink, MetricSink, NoopSink,
    Pattern, RowOutcome, StreamBudget, Token, TokenClass,
};

/// The phone-rewrite program every streaming test in the workspace uses:
/// `ddd.ddd.dddd` rewrites to `ddd-ddd-dddd`, dashed rows conform,
/// everything else is flagged — so random rows exercise all three
/// [`RowOutcome`] variants.
fn program() -> Arc<CompiledProgram> {
    static PROGRAM: OnceLock<Arc<CompiledProgram>> = OnceLock::new();
    Arc::clone(PROGRAM.get_or_init(|| {
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
    }))
}

/// Strings over the characters CLX columns contain, plus multi-byte
/// Unicode; may be empty.
fn data_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just('-'),
            Just('.'),
            Just(' '),
            Just('/'),
            Just('€'),
            Just('π'),
        ],
        0..14,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A phone-shaped string: frequently transformed or conforming, so the
/// interesting outcome variants are well represented.
fn phone_string() -> impl Strategy<Value = String> {
    (0..2usize).prop_map(|sep| {
        if sep == 0 {
            "734.236.3466".to_string()
        } else {
            "734-422-8073".to_string()
        }
    })
}

/// Random row sets of every shape the bounded paths must survive: mixed
/// random text, phone-heavy duplicates, a single distinct value repeated,
/// and all-distinct (the adversarial shape that forces eviction).
fn workload() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        proptest::collection::vec(data_string(), 0..60),
        proptest::collection::vec(prop_oneof![phone_string(), data_string()], 1..60),
        // Single distinct value, many rows.
        (data_string(), 1..40usize).prop_map(|(s, n)| vec![s; n]),
        // All-distinct: suffix every generated string with its row index.
        proptest::collection::vec(data_string(), 1..40).prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, s)| format!("{s}#{i:03}"))
                .collect()
        }),
    ]
}

/// Random chunk lengths; the stream consumes them in order, with one final
/// chunk for whatever remains (possibly empty splits included).
fn chunk_splits() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..9usize, 0..12)
}

/// Random budgets, including the degenerate `max_distinct: 1`, byte caps,
/// and fully unbounded.
fn budgets() -> impl Strategy<Value = StreamBudget> {
    prop_oneof![
        Just(StreamBudget::unbounded()),
        Just(StreamBudget::max_distinct(1)),
        Just(StreamBudget::max_distinct(2)),
        Just(StreamBudget::max_distinct(5)),
        Just(StreamBudget::max_distinct(8).with_max_arena_bytes(64)),
        Just(StreamBudget::unbounded().with_max_arena_bytes(24)),
    ]
}

/// Split `rows` into chunks of the generated lengths (remainder last) and
/// push them through a stream with `budget`, returning every row outcome
/// in order.
fn stream_in_chunks(
    rows: &[String],
    splits: &[usize],
    budget: StreamBudget,
) -> (Vec<RowOutcome>, clx::StreamSummary) {
    stream_in_chunks_observed(rows, splits, budget, None)
}

/// [`stream_in_chunks`] with an optional metric sink attached, for the
/// telemetry-identity property.
fn stream_in_chunks_observed(
    rows: &[String],
    splits: &[usize],
    budget: StreamBudget,
    sink: Option<Arc<dyn MetricSink>>,
) -> (Vec<RowOutcome>, clx::StreamSummary) {
    let mut stream = ColumnStream::with_budget(program(), budget);
    if let Some(sink) = sink {
        stream = stream.with_telemetry(sink);
    }
    let mut streamed: Vec<RowOutcome> = Vec::new();
    let mut rest = rows;
    for &len in splits {
        let take = len.min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        rest = tail;
        streamed.extend(stream.push_rows(chunk).iter_rows().cloned());
        // The bounded invariant: at every chunk boundary the live set is
        // capped by the budget plus the chunk's own (pinned) values.
        assert!(
            stream.interner().live_distinct_count()
                <= budget.max_distinct.saturating_add(chunk.len()),
            "live set exceeded budget + pinned chunk"
        );
    }
    streamed.extend(stream.push_rows(rest).iter_rows().cloned());
    (streamed, stream.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// K-chunk bounded streaming == one-shot column execution, for every
    /// budget. The columnar one-shot report is the reference the paper's
    /// verifiability story rests on; a budget may only change memory.
    #[test]
    fn chunked_budgeted_stream_equals_one_shot(
        rows in workload(),
        splits in chunk_splits(),
        budget in budgets(),
    ) {
        let one_shot = program().execute_column(&Column::from_rows(rows.clone()));
        let reference: Vec<RowOutcome> = one_shot.iter_rows().cloned().collect();
        let (streamed, summary) = stream_in_chunks(&rows, &splits, budget);
        prop_assert!(streamed == reference, "budget {:?} diverged", budget);
        prop_assert_eq!(summary.stats, one_shot.stats);
        prop_assert_eq!(summary.rows(), rows.len());
        if budget.is_unbounded() {
            prop_assert_eq!(summary.evictions, 0);
        }
    }

    /// Bounded and unbounded streams are row-for-row identical over the
    /// *same* chunking — the direct statement that eviction never
    /// changes an outcome, independent of the one-shot reference.
    #[test]
    fn bounded_stream_equals_unbounded_stream(
        rows in workload(),
        splits in chunk_splits(),
        budget in budgets(),
    ) {
        let (bounded, bounded_summary) = stream_in_chunks(&rows, &splits, budget);
        let (unbounded, unbounded_summary) =
            stream_in_chunks(&rows, &splits, StreamBudget::unbounded());
        prop_assert_eq!(bounded, unbounded);
        prop_assert_eq!(bounded_summary.stats, unbounded_summary.stats);
    }

    /// Attaching telemetry never changes an outcome: over the same random
    /// rows, chunking and budget, the bare stream, a `NoopSink` stream and
    /// an `InMemorySink` stream are row-for-row identical — sinks observe,
    /// they do not participate. The sink's own row counter must agree with
    /// the summary it observed.
    #[test]
    fn telemetry_never_changes_outcomes(
        rows in workload(),
        splits in chunk_splits(),
        budget in budgets(),
    ) {
        let (bare, bare_summary) = stream_in_chunks(&rows, &splits, budget);
        let (noop, noop_summary) = stream_in_chunks_observed(
            &rows, &splits, budget, Some(Arc::new(NoopSink)),
        );
        let observer = InMemorySink::shared();
        let (observed, observed_summary) = stream_in_chunks_observed(
            &rows, &splits, budget, Some(Arc::clone(&observer) as Arc<dyn MetricSink>),
        );
        prop_assert_eq!(&bare, &noop);
        prop_assert_eq!(&bare, &observed);
        prop_assert_eq!(bare_summary.stats, noop_summary.stats);
        prop_assert_eq!(bare_summary.stats, observed_summary.stats);
        prop_assert_eq!(bare_summary.evictions, observed_summary.evictions);
        prop_assert_eq!(
            bare_summary.decision_cache_hits,
            observed_summary.decision_cache_hits
        );

        let snap = observer.snapshot();
        prop_assert_eq!(
            snap.counter("engine.stream.rows").unwrap_or(0),
            rows.len() as u64
        );
        prop_assert_eq!(
            snap.counter("engine.stream.decision_misses").unwrap_or(0),
            observed_summary.decision_cache_misses
        );
    }
}

// ---------------------------------------------------------------------------
// Interner eviction: the O(1) LRU list against a reference model.
// ---------------------------------------------------------------------------

/// Short values over a small alphabet, so chunks repeat values (LRU
/// touches) and values share leaves (leaf-slot refcounts above one).
fn small_alphabet_value() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('7'), Just('-'), Just('€')],
        0..4,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Random `max_distinct` and `max_arena_bytes` caps, each possibly absent.
fn small_budgets() -> impl Strategy<Value = StreamBudget> {
    (
        prop_oneof![Just(usize::MAX), 1..8usize],
        prop_oneof![Just(usize::MAX), 1..24usize],
    )
        .prop_map(|(max_distinct, max_arena_bytes)| {
            StreamBudget::max_distinct(max_distinct).with_max_arena_bytes(max_arena_bytes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The interner evicts exactly what a least-recently-interned model
    /// evicts, in the same order, and keeps every live value's leaf and
    /// the live leaf count right while leaf slots are shared and recycled.
    ///
    /// The model is a list of live values, coldest first: interning a
    /// value moves it to the hot end, and each chunk boundary drops
    /// values from the cold end while the live count or live text bytes
    /// exceed the budget.
    #[test]
    fn interner_evicts_least_recently_interned_first(
        chunks in proptest::collection::vec(
            proptest::collection::vec(small_alphabet_value(), 0..8),
            1..24,
        ),
        budget in small_budgets(),
    ) {
        let mut interner = ColumnInterner::with_budget(budget);
        // Live (value, distinct-id) pairs, coldest first.
        let mut model: Vec<(String, u32)> = Vec::new();
        for rows in &chunks {
            let mut expected_victims = Vec::new();
            let live_bytes = |model: &Vec<(String, u32)>| -> usize {
                model.iter().map(|(v, _)| v.len()).sum()
            };
            while model.len() > budget.max_distinct
                || live_bytes(&model) > budget.max_arena_bytes
            {
                expected_victims.push(model.remove(0).1);
            }

            let chunk = interner.chunk(rows);
            prop_assert_eq!(chunk.evicted(), expected_victims.as_slice());
            for (row, value) in rows.iter().enumerate() {
                let id = chunk.distinct_ids()[chunk.row_map()[row] as usize];
                match model.iter().position(|(v, _)| v == value) {
                    Some(at) => {
                        let touched = model.remove(at);
                        prop_assert!(touched.1 == id, "a live value kept its id");
                        model.push(touched);
                    }
                    None => model.push((value.clone(), id)),
                }
            }
            drop(chunk);

            prop_assert_eq!(interner.live_distinct_count(), model.len());
            prop_assert_eq!(interner.interned_bytes(), live_bytes(&model));
            let mut leaves: Vec<Pattern> = Vec::new();
            for (value, id) in &model {
                prop_assert_eq!(interner.value(*id), value.as_str());
                let leaf = tokenize(value);
                prop_assert_eq!(interner.leaf(*id), &leaf);
                prop_assert_eq!(interner.leaf_pattern(interner.leaf_id(*id)), Some(&leaf));
                if !leaves.contains(&leaf) {
                    leaves.push(leaf);
                }
            }
            prop_assert_eq!(interner.leaf_count(), leaves.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Fused-dispatch identity: for random programs and values, the fused
// decision automaton and the per-branch split loop are the same function.
// ---------------------------------------------------------------------------

/// A random pattern token: base classes (including the `<A>`/`<AN>` parent
/// classes and `+` quantifiers the refinement produces) and literals —
/// transparent separators as well as alphanumeric literals like `CPT`,
/// which make the pattern opaque and exercise the per-value check steps.
fn any_token() -> impl Strategy<Value = Token> {
    let class = || {
        prop_oneof![
            Just(TokenClass::Digit),
            Just(TokenClass::Lower),
            Just(TokenClass::Upper),
            Just(TokenClass::Alpha),
            Just(TokenClass::AlphaNumeric),
        ]
    };
    prop_oneof![
        (class(), 1..4usize).prop_map(|(c, n)| Token::base(c, n)),
        class().prop_map(Token::plus),
        prop_oneof![
            Just("-"),
            Just("."),
            Just("/"),
            Just(" "),
            Just("€"),
            Just("CPT"),
            Just("x"),
        ]
        .prop_map(Token::literal),
    ]
}

/// Random patterns, occasionally too wide for the automaton's bit budget
/// (`<D>300`), so the recorded width fallback is part of the tested space
/// (the shim's `prop_oneof!` is unweighted; repeating the random arm keeps
/// the wide pattern at ~1 in 6).
fn any_pattern() -> impl Strategy<Value = Pattern> {
    let tokens = || proptest::collection::vec(any_token(), 0..5).prop_map(Pattern::new);
    prop_oneof![
        tokens(),
        tokens(),
        tokens(),
        tokens(),
        tokens(),
        Just(Pattern::new(vec![Token::base(TokenClass::Digit, 300)])),
    ]
}

/// A random `(program, target)` pair that always compiles: every branch
/// rewrite is either a constant or `extract(1)` (valid for any non-empty
/// source pattern).
fn any_program() -> impl Strategy<Value = (Program, Pattern)> {
    let branch = (any_pattern(), 0..2usize).prop_map(|(pattern, extract)| {
        let expr = if extract == 1 && !pattern.is_empty() {
            Expr::concat(vec![StringExpr::extract(1), StringExpr::const_str("!")])
        } else {
            Expr::concat(vec![StringExpr::const_str("X")])
        };
        Branch::new(pattern, expr)
    });
    (proptest::collection::vec(branch, 1..4), any_pattern())
        .prop_map(|(branches, target)| (Program::new(branches), target))
}

/// A string matching `pattern` (runs of `reps` characters for `+` tokens),
/// so generated values hit Conforming/Branch decisions, not just Flagged.
fn sample_value(pattern: &Pattern, reps: usize) -> String {
    let mut out = String::new();
    for token in pattern.tokens() {
        if let Some(lit) = token.literal_value() {
            out.push_str(lit);
            continue;
        }
        let n = match token.quantifier {
            Quantifier::Exact(n) => n,
            Quantifier::OneOrMore => reps,
        };
        let c = match token.class {
            TokenClass::Digit => '7',
            TokenClass::Lower => 'k',
            TokenClass::Upper => 'Q',
            TokenClass::Alpha => 'm',
            TokenClass::AlphaNumeric => '5',
            TokenClass::Literal(_) => continue,
        };
        out.extend(std::iter::repeat_n(c, n));
    }
    out
}

/// A random *fused-eligible* (transparent) pattern token: any class —
/// including the `<A>`/`<AN>` parents and `+` quantifiers — but only
/// non-alphanumeric literals, since opaque patterns are kept out of the
/// fused automaton. The wide arm (runs of 30–45) pushes segments across
/// 64-bit word boundaries so reconstruction must follow cross-word
/// carries.
fn transparent_token() -> impl Strategy<Value = Token> {
    let class = || {
        prop_oneof![
            Just(TokenClass::Digit),
            Just(TokenClass::Lower),
            Just(TokenClass::Upper),
            Just(TokenClass::Alpha),
            Just(TokenClass::AlphaNumeric),
        ]
    };
    prop_oneof![
        // Short exact runs, often adjacent and same-class.
        (class(), 1..5usize).prop_map(|(c, n)| Token::base(c, n)),
        (class(), 1..5usize).prop_map(|(c, n)| Token::base(c, n)),
        (class(), 1..5usize).prop_map(|(c, n)| Token::base(c, n)),
        // Wide exact runs: multi-word carry coverage.
        (class(), 30..45usize).prop_map(|(c, n)| Token::base(c, n)),
        class().prop_map(Token::plus),
        class().prop_map(Token::plus),
        prop_oneof![Just("-"), Just("."), Just("/"), Just(" "), Just("€")].prop_map(Token::literal),
        prop_oneof![Just("-"), Just("."), Just("/"), Just(" "), Just("€")].prop_map(Token::literal),
    ]
}

/// Random fused-eligible patterns (non-empty; width may still overflow the
/// automaton when several are combined — callers skip that draw).
fn transparent_pattern() -> impl Strategy<Value = Pattern> {
    proptest::collection::vec(transparent_token(), 1..6).prop_map(Pattern::new)
}

/// Convert `Pattern::split` byte-offset slices to the char-index ranges
/// [`MultiPatternAutomaton::split_boundaries`] reports.
fn split_char_ranges(value: &str, slices: &[TokenSlice]) -> Vec<(usize, usize)> {
    let to_char = |byte: usize| value[..byte].chars().count();
    slices
        .iter()
        .map(|s| (to_char(s.start), to_char(s.end)))
        .collect()
}

/// [`stream_in_chunks`] over an explicit program instead of the shared
/// phone program.
fn stream_program_in_chunks(
    program: &Arc<CompiledProgram>,
    rows: &[String],
    splits: &[usize],
    budget: StreamBudget,
) -> (Vec<RowOutcome>, clx::StreamSummary) {
    let mut stream = ColumnStream::with_budget(Arc::clone(program), budget);
    let mut streamed: Vec<RowOutcome> = Vec::new();
    let mut rest = rows;
    for &len in splits {
        let take = len.min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        rest = tail;
        streamed.extend(stream.push_rows(chunk).iter_rows().cloned());
    }
    streamed.extend(stream.push_rows(rest).iter_rows().cloned());
    (streamed, stream.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused automaton and the per-branch loop are the same decision
    /// function: for random programs (transparent, opaque, `+`-quantified,
    /// fallback-forcing wide) and random values — pattern-derived matches
    /// and arbitrary junk — `decide` and `execute` agree exactly.
    #[test]
    fn fused_decisions_equal_per_branch_decisions(
        program_and_target in any_program(),
        extra in proptest::collection::vec(data_string(), 0..12),
        reps in 1..3usize,
    ) {
        let (program, target) = program_and_target;
        let fused = CompiledProgram::compile(&program, &target).unwrap();
        let plain = CompiledProgram::compile(&program, &target)
            .unwrap()
            .without_fused();
        prop_assert!(!plain.fused_active());

        let mut values: Vec<String> = program
            .branches
            .iter()
            .map(|b| sample_value(&b.pattern, reps))
            .collect();
        values.push(sample_value(&target, reps));
        values.push(String::new());
        values.extend(extra);

        for value in &values {
            let fd = fused.decide(value);
            let pd = plain.decide(value);
            prop_assert!(fd == pd, "decide diverged on {:?}: {:?} vs {:?}", value, fd, pd);
            if fused.fused_active() {
                // Transparent branches decide identically for every value
                // sharing a leaf, so a fused Branch/Conforming decision on
                // a transparent program is exactly the automaton's word.
                prop_assert!(matches!(fd, Decision::Conforming | Decision::Branch(_) | Decision::Flagged));
            }
        }
        let ft = fused.execute(&values);
        let pt = plain.execute(&values);
        prop_assert!(ft.iter_rows().eq(pt.iter_rows()), "execute diverged on {:?}", values);
    }

    /// Fused-on and fused-off streams are row-for-row identical over the
    /// same rows, chunking and budget — the automaton is an optimization
    /// of the cold path, never a behavior change, end to end through
    /// interning, eviction and decision caching.
    #[test]
    fn fused_stream_equals_per_branch_stream(
        program_and_target in any_program(),
        rows in workload(),
        splits in chunk_splits(),
        budget in budgets(),
        reps in 1..3usize,
    ) {
        let (program, target) = program_and_target;
        let fused =
            Arc::new(CompiledProgram::compile(&program, &target).unwrap());
        let plain = Arc::new(
            CompiledProgram::compile(&program, &target)
                .unwrap()
                .without_fused(),
        );

        // Mix pattern-derived matching values into the random rows so the
        // streams exercise Branch/Conforming decisions too.
        let mut rows = rows;
        for branch in &program.branches {
            rows.push(sample_value(&branch.pattern, reps));
        }
        rows.push(sample_value(&target, reps));

        let (a, a_summary) = stream_program_in_chunks(&fused, &rows, &splits, budget);
        let (b, b_summary) = stream_program_in_chunks(&plain, &rows, &splits, budget);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a_summary.stats, b_summary.stats);
        prop_assert_eq!(a_summary.rows(), rows.len());
    }

    /// The tentpole lock: boundaries reconstructed from the automaton's
    /// accepting path equal `Pattern::split` token for token — over random
    /// fused-eligible multi-segment programs (adjacent same-class tokens,
    /// plus-runs, wide multi-word segments, segment-boundary offsets) and
    /// both pattern-derived and junk values. And the reconstruction never
    /// declines on an accepted transparent segment: `Some` exactly when the
    /// segment accepts, `None` exactly when `Pattern::split` fails.
    #[test]
    fn derived_split_boundaries_equal_pattern_split(
        patterns in proptest::collection::vec(transparent_pattern(), 1..4),
        junk in proptest::collection::vec(data_string(), 0..6),
        reps in 1..5usize,
    ) {
        let slots: Vec<Option<&Pattern>> = patterns.iter().map(Some).collect();
        let Ok(automaton) = MultiPatternAutomaton::build(&slots) else {
            // Combined width overflow: the engine would not fuse this
            // program at all, so there is no derived path to test.
            return Ok(());
        };
        let mut values: Vec<String> =
            patterns.iter().map(|p| sample_value(p, reps)).collect();
        values.extend(junk);
        values.push(String::new());
        for value in &values {
            let leaf = tokenize(value);
            let Some(run) = automaton.classify_recorded(&leaf) else {
                continue;
            };
            for (index, pattern) in patterns.iter().enumerate() {
                let derived = automaton.split_boundaries(&run, index);
                let reference = pattern
                    .split(value)
                    .ok()
                    .map(|slices| split_char_ranges(value, &slices));
                prop_assert!(
                    derived == reference,
                    "segment {} of {:?} on {:?}: derived {:?} vs split {:?}",
                    index, pattern, value, derived, reference
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Re-verification: a hot-swapped stream is indistinguishable from a fresh
// stream of the new program, and `reverify` from a fresh `apply`.
// ---------------------------------------------------------------------------

/// A "new" program derived from `old`: an unrelated random program (the
/// worst case for the delta — target and every branch may change), the
/// same program recompiled (the identity delta), or a one-branch repair
/// (the sharp case the whole machinery exists for).
fn derive_new_program(
    old: &(Program, Pattern),
    other: (Program, Pattern),
    mutate: usize,
    which: usize,
) -> (Program, Pattern) {
    match mutate {
        0 => other,
        1 => old.clone(),
        _ => {
            let mut program = old.0.clone();
            let index = which % program.branches.len();
            program.branches[index].expr = Expr::concat(vec![StringExpr::const_str("Z")]);
            (program, old.1.clone())
        }
    }
}

/// The interpreter's answer for every row, the oracle every engine path is
/// held to (§6.1): a row matching the target conforms; otherwise the first
/// branch whose rewrite evaluates transforms it; otherwise it is flagged.
fn interpret(program: &Program, target: &Pattern, rows: &[String]) -> Vec<RowOutcome> {
    rows.iter()
        .map(|row| {
            if target.matches(row) {
                return RowOutcome::Conforming {
                    value: row.as_str().into(),
                };
            }
            match transform_lenient(program, row) {
                TransformOutcome::Transformed(to) => RowOutcome::Transformed { to: to.into() },
                TransformOutcome::Flagged(value) => RowOutcome::Flagged {
                    value: value.into(),
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every execution path equals the interpreter on random programs:
    /// `execute`, `execute_column`, and a chunked and budgeted
    /// `ColumnStream` with the fused automaton on and off.
    #[test]
    fn every_execution_path_equals_the_interpreter(
        program_target in any_program(),
        rows in workload(),
        splits in chunk_splits(),
        budget in budgets(),
        reps in 1..3usize,
    ) {
        let (program, target) = program_target;
        let mut rows = rows;
        for branch in &program.branches {
            rows.push(sample_value(&branch.pattern, reps));
        }
        rows.push(sample_value(&target, reps));
        let oracle = interpret(&program, &target, &rows);

        let compiled = Arc::new(CompiledProgram::compile(&program, &target).unwrap());
        prop_assert!(compiled.execute(&rows).iter_rows().eq(oracle.iter()), "execute");
        let column = Column::from_rows(rows.clone());
        let report = compiled.execute_column(&column);
        prop_assert!(report.iter_rows().eq(oracle.iter()), "execute_column");
        let plain = Arc::new(CompiledProgram::compile(&program, &target).unwrap().without_fused());
        for stream_program in [&compiled, &plain] {
            let (streamed, summary) =
                stream_program_in_chunks(stream_program, &rows, &splits, budget);
            prop_assert!(streamed == oracle, "stream (fused {})", stream_program.fused_active());
            prop_assert_eq!(summary.rows(), rows.len());
        }
    }

    /// Decisions a stream already holds for a whole column, patched by a
    /// program swap, equal a fresh full recompute under the new program —
    /// row for row and in the multiplicity-weighted stats — for identity,
    /// repair-shaped and arbitrary program changes.
    #[test]
    fn patched_report_equals_full_recompute(
        old_pt in any_program(),
        other in any_program(),
        mutate in 0..3usize,
        which in 0..4usize,
        rows in workload(),
        reps in 1..3usize,
    ) {
        let (new_program, new_target) = derive_new_program(&old_pt, other, mutate, which);
        let (old_program, old_target) = old_pt;
        let old = Arc::new(CompiledProgram::compile(&old_program, &old_target).unwrap());
        let new = Arc::new(CompiledProgram::compile(&new_program, &new_target).unwrap());

        // Mix in values the branches and targets actually match, so the
        // delta's affected sets are non-trivial.
        let mut rows = rows;
        for branch in old_program.branches.iter().chain(new_program.branches.iter()) {
            rows.push(sample_value(&branch.pattern, reps));
        }
        rows.push(sample_value(&old_target, reps));
        rows.push(sample_value(&new_target, reps));
        let column = Column::from_rows(rows.clone());

        let mut stream = ColumnStream::new(Arc::clone(&old));
        stream.push_rows(&rows);
        stream.swap_program(Arc::clone(&new));
        let patched = stream.push_rows(&rows);
        let expected = new.execute_column(&column);
        prop_assert!(
            patched.iter_rows().eq(expected.iter_rows()),
            "patched decisions diverged from full recompute (mutate {})",
            mutate
        );
        prop_assert_eq!(patched.stats, expected.stats);
        // The first push decided every distinct value once; the push after
        // the swap re-decided the ones the swap invalidated.
        let redecided = stream.finish().decision_cache_misses - column.distinct_count() as u64;
        prop_assert!(redecided <= column.distinct_count() as u64);
        if mutate == 1 {
            // Identity delta: nothing may be re-decided.
            prop_assert_eq!(redecided, 0);
        }
    }

    /// Hot-swapping a stream's program mid-flight equals restarting a
    /// fresh stream of the new program on the remaining chunks — under
    /// every budget, including eviction. Swapping in a recompilation of
    /// the same program re-decides nothing, unless the stream evicted (an
    /// evicted slot's decision is dropped, not re-decided): a stream that
    /// never swapped makes exactly as many decisions.
    #[test]
    fn swapped_stream_equals_fresh_stream_of_new_program(
        old_pt in any_program(),
        other in any_program(),
        mutate in 0..3usize,
        which in 0..4usize,
        rows in workload(),
        splits in chunk_splits(),
        budget in budgets(),
        switch_at in 0..8usize,
        reps in 1..3usize,
    ) {
        let (new_program, new_target) = derive_new_program(&old_pt, other, mutate, which);
        let (old_program, old_target) = old_pt;
        let old = Arc::new(CompiledProgram::compile(&old_program, &old_target).unwrap());
        let new = Arc::new(CompiledProgram::compile(&new_program, &new_target).unwrap());

        let mut rows = rows;
        for branch in old_program.branches.iter().chain(new_program.branches.iter()) {
            rows.push(sample_value(&branch.pattern, reps));
        }
        rows.push(sample_value(&old_target, reps));
        rows.push(sample_value(&new_target, reps));

        // Materialize the chunk list (remainder last, like the streams).
        let mut chunks: Vec<&[String]> = Vec::new();
        let mut rest = rows.as_slice();
        for &len in &splits {
            let take = len.min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            chunks.push(chunk);
        }
        chunks.push(rest);
        let boundary = switch_at % (chunks.len() + 1);

        let mut swapped = ColumnStream::with_budget(Arc::clone(&old), budget);
        let mut fresh = ColumnStream::with_budget(Arc::clone(&new), budget);
        let mut unswapped = ColumnStream::with_budget(Arc::clone(&old), budget);
        let mut post_swap: Vec<RowOutcome> = Vec::new();
        let mut reference: Vec<RowOutcome> = Vec::new();
        // Evictions before the swap, which drop decisions either way.
        let mut evicted_at_swap = 0;
        for (index, chunk) in chunks.iter().enumerate() {
            if index == boundary {
                evicted_at_swap = swapped.evictions();
                swapped.swap_program(Arc::clone(&new));
            }
            let report = swapped.push_rows(chunk);
            unswapped.push_rows(chunk);
            if index >= boundary {
                post_swap.extend(report.iter_rows().cloned());
                reference.extend(fresh.push_rows(chunk).iter_rows().cloned());
            }
        }
        if boundary == chunks.len() {
            evicted_at_swap = swapped.evictions();
            swapped.swap_program(Arc::clone(&new));
        }
        prop_assert_eq!(post_swap, reference);
        // Re-decisions show on the push after a swap: give the last swap
        // one, on both streams.
        swapped.push_rows(&rows);
        unswapped.push_rows(&rows);
        if mutate == 1 && evicted_at_swap == 0 {
            prop_assert!(
                swapped.finish().decision_cache_misses == unswapped.finish().decision_cache_misses,
                "identity swap re-decided"
            );
        }
    }

    /// The full interactive loop: after *any* sequence of repairs
    /// (including rejected ones), [`ClxSession::reverify`] of the
    /// pre-repair report equals a fresh [`ClxSession::apply`] under the
    /// repaired program.
    ///
    /// [`ClxSession::reverify`]: clx::ClxSession::reverify
    /// [`ClxSession::apply`]: clx::ClxSession::apply
    #[test]
    fn reverified_report_equals_fresh_apply(
        rows in workload(),
        choices in proptest::collection::vec((0..8usize, 0..8usize), 0..4),
    ) {
        let mut rows = rows;
        rows.push("734-422-8073".to_string());
        let mut session = clx::ClxSession::new(rows)
            .label_by_example("734-422-8073")
            .unwrap();
        let baseline = session.apply().unwrap();
        let patterns: Vec<Pattern> = session.patterns().into_iter().map(|(p, _)| p).collect();
        for (which, choice) in choices {
            // Rejected repairs (pattern not a source, choice out of range)
            // are part of the property: they must not corrupt reverify.
            let _ = session.repair(&patterns[which % patterns.len()], choice);
        }
        let patched = session.reverify(&baseline).unwrap();
        let fresh = session.apply().unwrap();
        prop_assert_eq!(patched, fresh);
    }
}

/// The acceptance lock for the tentpole: an adversarial all-distinct
/// 1M-row stream under `StreamBudget { max_distinct: 10_000, .. }`
/// completes with flat, bounded interner + decision-cache memory, while
/// producing exactly the outcomes the unbounded semantics dictate.
#[test]
fn adversarial_all_distinct_million_row_stream_is_memory_bounded() {
    const ROWS: usize = 1_000_000;
    const CHUNK: usize = 10_000;
    const BUDGET: usize = 10_000;

    let mut stream = ColumnStream::with_budget(program(), StreamBudget::max_distinct(BUDGET));
    let mut peak = 0usize;
    let mut early_peak = 0usize; // peak over the first 10% of the stream
    let mut transformed = 0usize;
    for c in 0..(ROWS / CHUNK) {
        // Every row is a brand-new distinct value; most are phone-shaped
        // (transformed), every 7th is junk (flagged).
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
        let report = stream.push_rows(&rows);
        transformed += report.stats.transformed;
        peak = peak.max(stream.memory_used());
        if c == ROWS / CHUNK / 10 - 1 {
            early_peak = peak;
        }
        assert!(
            stream.interner().live_distinct_count() <= BUDGET + CHUNK,
            "live set exceeded budget + pinned chunk at chunk {c}"
        );
    }

    // Flat memory: the peak over the whole stream is within 1.5x of the
    // peak after the first 10% — O(budget + chunk), not O(distinct).
    assert!(
        peak <= early_peak + early_peak / 2,
        "memory grew with stream length: early {early_peak}B, final {peak}B"
    );
    // Absolute sanity bound: ~20k live values of ~13 bytes plus caches
    // must stay in the single-digit-MB range, nowhere near the ~100s of
    // MB the unbounded interner would retain for 1M distinct values.
    assert!(peak < 32 << 20, "peak {peak}B not bounded");

    assert!(stream.evictions() >= (ROWS - BUDGET - CHUNK) as u64);
    let summary = stream.finish();
    assert_eq!(summary.rows(), ROWS);
    assert_eq!(summary.stats.transformed, transformed);
    assert!(summary.stats.flagged >= ROWS / 7);
    assert_eq!(summary.peak_memory_bytes, peak);
}
