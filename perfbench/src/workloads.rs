//! The three workloads and the metrics they report.
//!
//! A run repeats one workload until `--seconds` have passed (at least
//! [`MIN_REPS`] times). Every repetition rebuilds all program state — the
//! column, the session, the synthesized and compiled programs, the
//! stream — so the repetitions are identical and each operation's
//! latency is its fastest repetition (see [`crate::measure`]).
//!
//! Untraced runs (`--trace 0`) measure the end-to-end operations only.
//! Traced runs alternate a traced repetition (telemetry sinks attached,
//! allocations counted) with an untraced one that runs the same per-layer
//! probes; layer times come from the untraced ones, counters from the
//! traced ones, and the ratio of their operation medians is the tracing
//! overhead.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clx_bench::phone_ground_truth;
use clx_column::StreamBudget;
use clx_datagen::{benchmark_suite, duplicate_heavy_case, large_case, BenchmarkTask};
use clx_engine::{ChunkReport, CompiledProgram};
use clx_pattern::Pattern;
use clx_telemetry::{MetricSink, TelemetrySnapshot};

use crate::alloc;
use crate::measure::{peak_rss_mb, ratio, Metric, Ops, Recorder};
use crate::passes::{
    intern_pass, open_stream, oracle, session_pass, stream_pass, tokenize_pass, Mode, Rep,
    SessionRun, Steps,
};

/// Rows per `push_rows` chunk on the ingest workloads.
pub const CHUNK_ROWS: usize = 1_000;
/// `swap_program` runs before every chunk whose index is a positive
/// multiple of this.
pub const SWAP_EVERY: usize = 25;
/// Rows of the column the ingest program is labelled and compiled from.
pub const SAMPLE_ROWS: usize = 20_000;
/// `max_distinct` of the bounded stream of `ingest_distinct`.
pub const DISTINCT_BUDGET: usize = 20_000;
/// `session_suite` runs the 47-task suite at this many consecutive seeds.
pub const SUITE_SEEDS: u64 = 5;
/// Fewest repetitions a run makes, however long they take.
pub const MIN_REPS: usize = 5;

/// The per-repetition work counters that must not change between
/// repetitions: anything cached across repetitions would move them.
const IDENTITY_COUNTERS: [&str; 5] = [
    "column.interner.intern_misses",
    "engine.stream.decision_misses",
    "engine.fused.decisions",
    "column.interner.evicted_values",
    "engine.delta.distincts_redecided",
];

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub ops: Ops,
    pub metrics: Vec<Metric>,
}

/// What one traced repetition counted.
struct Traced {
    session: TelemetrySnapshot,
    stream: TelemetrySnapshot,
    allocs: u64,
    alloc_bytes: u64,
    rows: u64,
    repaired_distinct: u64,
}

impl Traced {
    fn identity(&self) -> Vec<u64> {
        [&self.session, &self.stream]
            .iter()
            .flat_map(|snap| IDENTITY_COUNTERS.map(|name| snap.counter(name).unwrap_or(0)))
            .collect()
    }
}

/// Everything the repetitions of one run recorded.
#[derive(Default)]
struct Runs {
    /// Untraced repetitions: all end-to-end and layer times.
    main: Recorder,
    /// Traced repetitions: only for the tracing overhead.
    traced: Recorder,
    ops: Ops,
    counts: Vec<Traced>,
}

/// Repeat `one` until `cfg.seconds` have passed and at least
/// [`MIN_REPS`] repetitions (pairs, when tracing) ran.
fn repeat(
    cfg: Config,
    mut one: impl FnMut(&mut Rep) -> Result<(), String>,
) -> Result<Runs, String> {
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut runs = Runs::default();
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        if cfg.trace {
            alloc::take();
            let mut rep = Rep::new(Mode::Traced, &mut runs.traced, &mut runs.ops);
            one(&mut rep)?;
            let sinks = rep.sinks.take().expect("a traced repetition has sinks");
            let (allocs, alloc_bytes) = alloc::take();
            runs.counts.push(Traced {
                session: sinks.session.snapshot(),
                stream: sinks.stream.snapshot(),
                allocs,
                alloc_bytes,
                rows: rep.counted_rows,
                repaired_distinct: rep.repaired_distinct,
            });
            one(&mut Rep::new(Mode::Probe, &mut runs.main, &mut runs.ops))?;
        } else {
            one(&mut Rep::new(Mode::Plain, &mut runs.main, &mut runs.ops))?;
        }
        reps += 1;
    }
    eprintln!("{reps} repetitions");
    Ok(runs)
}

/// How one workload names its operations and set-up.
struct Shape {
    /// Layers whose summed best times are the set-up.
    setup: &'static [&'static str],
    /// The operation timed for `op_ms_*` and `rows_per_s`.
    op: &'static str,
    /// The repair operation timed for `repair_ms_p50`.
    repair: &'static str,
    /// Rows the operations process in one repetition.
    rows: usize,
    /// Rows `tokenize_pass` tokenizes in one repetition.
    tokenized_rows: usize,
}

/// The result of the untimed output check.
struct Checked {
    mismatches: usize,
    correct_rows: usize,
    rows: usize,
}

fn outcome(cfg: Config, shape: &Shape, runs: Runs, rss: f64, checked: Checked) -> Outcome {
    if checked.mismatches > 0 {
        eprintln!(
            "output check: {} outputs differ from the interpreter",
            checked.mismatches
        );
    }
    let mut correct = checked.mismatches == 0;
    let metrics = if cfg.trace {
        let first = runs.counts[0].identity();
        if let Some(other) = runs.counts.iter().find(|c| c.identity() != first) {
            eprintln!(
                "repetition identity guard: counters {IDENTITY_COUNTERS:?} (session, stream) \
                 were {first:?} in the first traced repetition but {:?} in another",
                other.identity()
            );
            correct = false;
        }
        layer_metrics(shape, &runs)
    } else {
        let main = &runs.main;
        vec![
            Metric::new("setup_s", main.sum_of(shape.setup), "s"),
            Metric::new("op_ms_p50", main.percentile(shape.op, 50.0) * 1e3, "ms"),
            Metric::new("op_ms_p90", main.percentile(shape.op, 90.0) * 1e3, "ms"),
            Metric::new(
                "rows_per_s",
                shape.rows as f64 / main.sum(shape.op),
                "rows/s",
            ),
            Metric::new(
                "repair_ms_p50",
                main.percentile(shape.repair, 50.0) * 1e3,
                "ms",
            ),
            Metric::new("peak_rss_mb", rss, "MB"),
            Metric::new(
                "correct_ratio",
                ratio(checked.correct_rows as u64, checked.rows as u64),
                "ratio",
            ),
            Metric::new(
                "success_ratio",
                1.0 - ratio(runs.ops.failed, runs.ops.attempted),
                "ratio",
            ),
        ]
    };
    Outcome {
        correct,
        ops: runs.ops,
        metrics,
    }
}

fn layer_metrics(shape: &Shape, runs: &Runs) -> Vec<Metric> {
    let main = &runs.main;
    let first = &runs.counts[0];
    let stream = |name| first.stream.counter(name).unwrap_or(0);
    let rows = first.rows as f64;
    let ms = |layer| main.sum(layer) * 1e3;
    let push_ns = main.sum("stream.push") / rows * 1e9;
    let intern_ns = main.sum("column.intern") / rows * 1e9;
    let decision_hits = stream("engine.stream.decision_hits");
    let dense_hits = stream("engine.dispatch.dense_hits");
    vec![
        Metric::new("column.build_ms", ms("column.build"), "ms"),
        Metric::new("cluster.profile_ms", ms("cluster.profile"), "ms"),
        Metric::new("synth.label_ms", ms("synth.label"), "ms"),
        Metric::new("analyze.analyze_ms", ms("analyze.analyze"), "ms"),
        Metric::new("unifi.apply_ms", ms("unifi.apply"), "ms"),
        Metric::new(
            "cluster.result_patterns_ms",
            ms("cluster.result_patterns"),
            "ms",
        ),
        Metric::new("unifi.explain_ms", ms("unifi.explain"), "ms"),
        Metric::new("engine.compile_ms", ms("engine.compile"), "ms"),
        Metric::new("engine.reverify_ms", ms("engine.reverify"), "ms"),
        Metric::new(
            "engine.delta.redecided_ratio",
            ratio(
                first
                    .session
                    .counter("engine.delta.distincts_redecided")
                    .unwrap_or(0),
                first.repaired_distinct,
            ),
            "ratio",
        ),
        Metric::new("engine.push_ns_per_row", push_ns, "ns"),
        Metric::new("column.intern_ns_per_row", intern_ns, "ns"),
        Metric::new("engine.decide_ns_per_row", push_ns - intern_ns, "ns"),
        Metric::new(
            "pattern.tokenize_ns",
            main.sum("pattern.tokenize") / shape.tokenized_rows as f64 * 1e9,
            "ns",
        ),
        Metric::new(
            "column.tokenize_per_row",
            stream("column.interner.intern_misses") as f64 / rows,
            "count",
        ),
        Metric::new(
            "column.evicted_per_row",
            stream("column.interner.evicted_values") as f64 / rows,
            "count",
        ),
        Metric::new("alloc.allocs_per_row", first.allocs as f64 / rows, "count"),
        Metric::new("alloc.bytes_per_row", first.alloc_bytes as f64 / rows, "B"),
        Metric::new(
            "engine.decision_hit_ratio",
            ratio(
                decision_hits,
                decision_hits + stream("engine.stream.decision_misses"),
            ),
            "ratio",
        ),
        Metric::new(
            "engine.dense_hit_ratio",
            ratio(
                dense_hits,
                dense_hits + stream("engine.dispatch.dense_misses"),
            ),
            "ratio",
        ),
        Metric::new(
            "engine.fused_decisions",
            stream("engine.fused.decisions") as f64,
            "count",
        ),
        Metric::new(
            "engine.split_fallbacks",
            stream("engine.fused.split_fallbacks") as f64,
            "count",
        ),
        Metric::new(
            "engine.swap_ms",
            main.percentile("stream.swap", 50.0) * 1e3,
            "ms",
        ),
        Metric::new(
            "trace.overhead_ratio",
            runs.traced.percentile(shape.op, 50.0) / main.percentile(shape.op, 50.0),
            "ratio",
        ),
    ]
}

/// The unrepaired and repaired compiled programs of a compile pass.
fn compiled_pair(run: SessionRun) -> Result<(Arc<CompiledProgram>, Arc<CompiledProgram>), String> {
    match run.compiled {
        Some((program, Some(repaired))) => Ok((Arc::new(program), Arc::new(repaired))),
        _ => Err("the sample's program has no source with a second plan to repair to".into()),
    }
}

// ---------------------------------------------------------------------------
// session_suite
// ---------------------------------------------------------------------------

/// The paper's interactive loop over the reconstructed 47-task suite at
/// [`SUITE_SEEDS`] consecutive seeds from `seed`: more task instances make
/// the click percentiles depend less on the seed.
pub fn session_suite(cfg: Config) -> Result<Outcome, String> {
    let tasks: Vec<BenchmarkTask> = (0..SUITE_SEEDS)
        .flat_map(|k| benchmark_suite(cfg.seed.wrapping_add(k)))
        .collect();
    let rows = tasks.iter().map(|task| task.inputs.len()).sum();
    let runs = repeat(cfg, |rep| {
        for (item, task) in tasks.iter().enumerate() {
            let steps = Steps {
                click: true,
                compile: rep.probing(),
            };
            // A failed operation is already counted; the task's later
            // operations are skipped.
            let Ok(run) = session_pass(&task.inputs, &task.target, item, steps, rep) else {
                continue;
            };
            if rep.probing() {
                suite_stream_probe(task, item, run, rep);
            }
        }
        Ok(())
    })?;
    let rss = peak_rss_mb();
    let checked = check_suite(&tasks);
    let shape = Shape {
        setup: &["column.build", "cluster.profile"],
        op: "session.click",
        repair: "session.repair",
        rows,
        tokenized_rows: rows,
    };
    Ok(outcome(cfg, &shape, runs, rss, checked))
}

/// The stream layers on one suite column: the rows pushed twice through a
/// stream of the compiled program, swapping to the repaired program
/// between the two pushes.
fn suite_stream_probe(task: &BenchmarkTask, item: usize, run: SessionRun, rep: &mut Rep) {
    let Some((program, repaired)) = run.compiled else {
        return;
    };
    let program = Arc::new(program);
    let repaired = repaired.map_or_else(|| Arc::clone(&program), Arc::new);
    let chunks = [&task.inputs[..], &task.inputs[..]];
    let mut stream = open_stream(Arc::clone(&program), StreamBudget::unbounded(), item, rep);
    stream_pass(
        &mut stream,
        [&program, &repaired],
        &chunks,
        1,
        2 * item,
        rep,
        None,
    );
    intern_pass(&chunks, StreamBudget::unbounded(), 2 * item, rep.rec);
    tokenize_pass(&task.inputs, task.inputs.len().max(1), item, rep.rec);
}

/// Every `apply` output against the interpreter under the unrepaired
/// program, every `reverify` output against it under the repaired one;
/// `apply`'s outputs against the task's expected values.
fn check_suite(tasks: &[BenchmarkTask]) -> Checked {
    let (mut rec, mut ops) = (Recorder::default(), Ops::default());
    let mut rep = Rep::new(Mode::Plain, &mut rec, &mut ops);
    let mut checked = Checked {
        mismatches: 0,
        correct_rows: 0,
        rows: 0,
    };
    let steps = Steps {
        click: true,
        compile: false,
    };
    for (item, task) in tasks.iter().enumerate() {
        checked.rows += task.inputs.len();
        let Ok(run) = session_pass(&task.inputs, &task.target, item, steps, &mut rep) else {
            continue;
        };
        let target = &task.target;
        let report = run.report.as_ref().expect("a click pass applies");
        checked.mismatches += mismatches(&run.program, target, &task.inputs, report.iter_values());
        checked.correct_rows += report
            .iter_values()
            .zip(&task.expected)
            .filter(|(out, expected)| out == expected)
            .count();
        if let (Some(repaired), Some(report)) = (&run.repaired, &run.reverified) {
            checked.mismatches += mismatches(repaired, target, &task.inputs, report.iter_values());
        }
    }
    checked
}

fn mismatches<'a>(
    program: &clx_unifi::Program,
    target: &Pattern,
    rows: &[String],
    outputs: impl ExactSizeIterator<Item = &'a str>,
) -> usize {
    let length = rows.len().abs_diff(outputs.len());
    length
        + rows
            .iter()
            .zip(outputs)
            .filter(|(row, out)| *out != oracle(program, target, row))
            .count()
}

// ---------------------------------------------------------------------------
// ingest_distinct / ingest_repeat
// ---------------------------------------------------------------------------

/// `large_case(200_000, seed)`: ~all distinct phone numbers through a
/// stream bounded to [`DISTINCT_BUDGET`] distinct values.
pub fn ingest_distinct(cfg: Config) -> Result<Outcome, String> {
    let case = large_case(200_000, cfg.seed);
    let target = case.target_pattern();
    ingest(
        cfg,
        case.data,
        target,
        StreamBudget::max_distinct(DISTINCT_BUDGET),
    )
}

/// `duplicate_heavy_case(1_000_000, 10_000, seed)` through an unbounded
/// stream.
pub fn ingest_repeat(cfg: Config) -> Result<Outcome, String> {
    let case = duplicate_heavy_case(1_000_000, 10_000, cfg.seed);
    let target = case.target_pattern();
    ingest(cfg, case.data, target, StreamBudget::unbounded())
}

/// Label and compile from the first [`SAMPLE_ROWS`] rows, then stream all
/// rows in [`CHUNK_ROWS`] chunks.
fn ingest(
    cfg: Config,
    data: Vec<String>,
    target: Pattern,
    budget: StreamBudget,
) -> Result<Outcome, String> {
    let sample = &data[..SAMPLE_ROWS.min(data.len())];
    let chunks: Vec<&[String]> = data.chunks(CHUNK_ROWS).collect();
    let runs = repeat(cfg, |rep| {
        let steps = Steps {
            click: rep.probing(),
            compile: true,
        };
        let (program, repaired) = compiled_pair(session_pass(sample, &target, 0, steps, rep)?)?;
        let mut stream = open_stream(Arc::clone(&program), budget, 0, rep);
        stream_pass(
            &mut stream,
            [&program, &repaired],
            &chunks,
            SWAP_EVERY,
            0,
            rep,
            None,
        );
        if rep.probing() {
            intern_pass(&chunks, budget, 0, rep.rec);
            tokenize_pass(sample, CHUNK_ROWS, 0, rep.rec);
        }
        Ok(())
    })?;
    let rss = peak_rss_mb();
    let checked = check_ingest(&data, sample, &chunks, &target, budget)?;
    let shape = Shape {
        setup: &[
            "column.build",
            "cluster.profile",
            "synth.label",
            "engine.compile",
            "stream.new",
        ],
        op: "stream.push",
        repair: "stream.repair",
        rows: data.len(),
        tokenized_rows: sample.len(),
    };
    Ok(outcome(cfg, &shape, runs, rss, checked))
}

/// One more repetition with every pushed output compared with the
/// interpreter under the program active for its chunk; the unrepaired
/// program's outputs compared with `phone_ground_truth`.
fn check_ingest<'d>(
    data: &'d [String],
    sample: &[String],
    chunks: &[&'d [String]],
    target: &Pattern,
    budget: StreamBudget,
) -> Result<Checked, String> {
    let (mut rec, mut ops) = (Recorder::default(), Ops::default());
    let mut rep = Rep::new(Mode::Plain, &mut rec, &mut ops);
    let steps = Steps {
        click: false,
        compile: true,
    };
    let run = session_pass(sample, target, 0, steps, &mut rep)?;
    let programs = [
        run.program.clone(),
        run.repaired.clone().ok_or("no repaired program")?,
    ];
    let (program, repaired) = compiled_pair(run)?;
    let mut expected: [HashMap<&str, String>; 2] = Default::default();
    let mut mismatches = 0;
    let mut check = |active: usize, chunk: &'d [String], report: &ChunkReport| {
        mismatches += chunk.len().abs_diff(report.len());
        for (row, out) in chunk.iter().zip(report.iter_values()) {
            let want = expected[active]
                .entry(row.as_str())
                .or_insert_with(|| oracle(&programs[active], target, row));
            mismatches += usize::from(out != want.as_str());
        }
    };
    let mut stream = open_stream(Arc::clone(&program), budget, 0, &mut rep);
    stream_pass(
        &mut stream,
        [&program, &repaired],
        chunks,
        SWAP_EVERY,
        0,
        &mut rep,
        Some(&mut check),
    );
    let truth = phone_ground_truth(data);
    let unrepaired = &mut expected[0];
    let correct_rows = data
        .iter()
        .zip(&truth)
        .filter(|(row, truth)| {
            let out = unrepaired
                .entry(row.as_str())
                .or_insert_with(|| oracle(&programs[0], target, row));
            out == *truth
        })
        .count();
    Ok(Checked {
        mismatches,
        correct_rows,
        rows: data.len(),
    })
}
