//! The timed passes every workload is built from, each a sequence of
//! public calls into one crate, timed from outside:
//!
//! * [`session_pass`] — the interactive loop over one column:
//!   `ColumnBuilder::build` → `ClxSession::from_column` → `label` →
//!   `analyze` → `apply` → `result_patterns` → `explanation`, then
//!   `repair` to plan 1 → `reverify`, and `compile` of both programs;
//! * [`stream_pass`] — `ColumnStream::push_rows` over fixed chunks with
//!   `swap_program` between the two programs at fixed chunk indices;
//! * [`intern_pass`] and [`tokenize_pass`] — the interner and the
//!   tokenizer alone over the same rows, for the per-layer split.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clx_column::{ColumnBuilder, ColumnInterner, StreamBudget};
use clx_core::{ClxOptions, ClxSession, Labelled, TransformReport};
use clx_engine::{ChunkReport, ColumnStream, CompiledProgram};
use clx_pattern::{tokenize_detailed, Pattern};
use clx_telemetry::{InMemorySink, MetricSink};
use clx_unifi::{transform_lenient, Program};

use crate::alloc;
use crate::measure::{Ops, Recorder};

/// What a repetition measures besides the end-to-end operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end operations only.
    Plain,
    /// Also the per-layer probes, without telemetry.
    Probe,
    /// The probes with `InMemorySink`s attached and allocations counted.
    Traced,
}

/// One sink for the session calls and one for the stream calls, fresh per
/// traced repetition, so their counters can be told apart.
pub struct Sinks {
    pub session: Arc<InMemorySink>,
    pub stream: Arc<InMemorySink>,
}

/// The state one repetition writes into.
pub struct Rep<'a> {
    pub mode: Mode,
    pub rec: &'a mut Recorder,
    pub ops: &'a mut Ops,
    pub sinks: Option<Sinks>,
    /// Rows pushed while allocations were counted.
    pub counted_rows: u64,
    /// Distinct values of the columns whose repair was re-verified.
    pub repaired_distinct: u64,
}

impl<'a> Rep<'a> {
    pub fn new(mode: Mode, rec: &'a mut Recorder, ops: &'a mut Ops) -> Self {
        let sinks = (mode == Mode::Traced).then(|| Sinks {
            session: InMemorySink::shared(),
            stream: InMemorySink::shared(),
        });
        Rep {
            mode,
            rec,
            ops,
            sinks,
            counted_rows: 0,
            repaired_distinct: 0,
        }
    }

    pub fn probing(&self) -> bool {
        self.mode != Mode::Plain
    }

    fn session_sink(&self) -> Option<Arc<dyn MetricSink>> {
        self.sinks
            .as_ref()
            .map(|s| Arc::clone(&s.session) as Arc<dyn MetricSink>)
    }

    fn stream_sink(&self) -> Option<Arc<dyn MetricSink>> {
        self.sinks
            .as_ref()
            .map(|s| Arc::clone(&s.stream) as Arc<dyn MetricSink>)
    }

    /// Time `f` as one call, counting its allocations on traced passes.
    fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Duration) {
        let counting = self.mode == Mode::Traced;
        let start = Instant::now();
        let out = if counting { alloc::counted(f) } else { f() };
        (out, start.elapsed())
    }
}

/// Which parts of the interactive loop a [`session_pass`] runs.
#[derive(Debug, Clone, Copy)]
pub struct Steps {
    /// `analyze` → `apply` → `result_patterns` → `explanation` after the
    /// label, and `reverify` after the repair.
    pub click: bool,
    /// `compile` of the unrepaired and the repaired program.
    pub compile: bool,
}

/// What a [`session_pass`] leaves behind for the stream pass and the
/// output check.
pub struct SessionRun {
    /// The unrepaired program.
    pub program: Program,
    /// `apply`'s report under the unrepaired program (click passes).
    pub report: Option<TransformReport>,
    /// The program after `repair` to plan 1, when some source has a
    /// second plan.
    pub repaired: Option<Program>,
    /// `reverify`'s report under the repaired program (click passes).
    pub reverified: Option<TransformReport>,
    /// The compiled unrepaired and repaired programs (compile passes).
    pub compiled: Option<(CompiledProgram, Option<CompiledProgram>)>,
}

/// The interactive loop over one column; `item` names the column in the
/// recorder. Counts the click and the repair as operations on click
/// passes; any `Err` fails the operation it occurred in and ends the pass.
pub fn session_pass(
    rows: &[String],
    target: &Pattern,
    item: usize,
    steps: Steps,
    rep: &mut Rep,
) -> Result<SessionRun, String> {
    let sink = rep.session_sink();
    let data = rows.to_vec();
    let mut builder = ColumnBuilder::new();
    if let Some(sink) = &sink {
        builder = builder.with_telemetry(Arc::clone(sink));
    }
    let start = Instant::now();
    let column = builder.build(data);
    rep.rec.add("column.build", item, start.elapsed());
    let start = Instant::now();
    let mut session = ClxSession::from_column(column, ClxOptions::default());
    rep.rec.add("cluster.profile", item, start.elapsed());
    if let Some(sink) = sink {
        session = session.attach_telemetry(sink);
    }

    if steps.click {
        rep.ops.attempted += 1;
    }
    let clicked = click(session, target, item, steps.click, rep.rec);
    if steps.click && clicked.is_err() {
        rep.ops.failed += 1;
    }
    let (mut labelled, report) = clicked?;
    let program = labelled.program();

    let compiled = if steps.compile {
        let start = Instant::now();
        let compiled = labelled.compile().map_err(|e| e.to_string())?;
        rep.rec.add("engine.compile", 2 * item, start.elapsed());
        Some(compiled)
    } else {
        None
    };

    let source = labelled
        .synthesis()
        .sources
        .iter()
        .find(|source| source.plans.len() >= 2)
        .map(|source| source.pattern.clone());
    let mut repaired = None;
    let mut reverified = None;
    let mut compiled_repaired = None;
    if let Some(source) = source {
        if steps.click {
            rep.ops.attempted += 1;
        }
        let start = Instant::now();
        let accepted = labelled.repair(&source, 1);
        let repair = start.elapsed();
        assert!(accepted, "a source with a second plan accepts plan 1");
        if let Some(report) = &report {
            let start = Instant::now();
            let patched = labelled.reverify(report);
            let elapsed = start.elapsed();
            let patched = patched.map_err(|e| {
                rep.ops.failed += 1;
                e.to_string()
            })?;
            rep.rec.add("engine.reverify", item, elapsed);
            rep.rec.add("session.repair", item, repair + elapsed);
            rep.repaired_distinct += labelled.data().distinct_count() as u64;
            reverified = Some(patched);
        }
        repaired = Some(labelled.program());
        if steps.compile {
            let start = Instant::now();
            let compiled = labelled.compile().map_err(|e| e.to_string())?;
            rep.rec.add("engine.compile", 2 * item + 1, start.elapsed());
            compiled_repaired = Some(compiled);
        }
    }

    Ok(SessionRun {
        program,
        report,
        repaired,
        reverified,
        compiled: compiled.map(|c| (c, compiled_repaired)),
    })
}

/// `label`, then on click passes `analyze` → `apply` → `result_patterns`
/// → `explanation`; the click's time is the sum of the five calls.
fn click(
    session: ClxSession,
    target: &Pattern,
    item: usize,
    full: bool,
    rec: &mut Recorder,
) -> Result<(ClxSession<Labelled>, Option<TransformReport>), String> {
    let target = target.clone();
    let start = Instant::now();
    let labelled = session.label(target);
    let label = start.elapsed();
    let labelled = labelled.map_err(|e| e.to_string())?;
    rec.add("synth.label", item, label);
    if !full {
        return Ok((labelled, None));
    }

    let start = Instant::now();
    black_box(labelled.analyze());
    let analyze = start.elapsed();
    let start = Instant::now();
    let report = labelled.apply();
    let apply = start.elapsed();
    let report = report.map_err(|e| e.to_string())?;
    let start = Instant::now();
    let patterns = labelled.result_patterns();
    let result_patterns = start.elapsed();
    black_box(patterns.map_err(|e| e.to_string())?);
    let start = Instant::now();
    let explanation = labelled.explanation();
    let explain = start.elapsed();
    black_box(explanation.map_err(|e| e.to_string())?);

    rec.add("analyze.analyze", item, analyze);
    rec.add("unifi.apply", item, apply);
    rec.add("cluster.result_patterns", item, result_patterns);
    rec.add("unifi.explain", item, explain);
    rec.add(
        "session.click",
        item,
        label + analyze + apply + result_patterns + explain,
    );
    Ok((labelled, Some(report)))
}

/// Open a stream over `program` (timed as `stream.new`).
pub fn open_stream(
    program: Arc<CompiledProgram>,
    budget: StreamBudget,
    item: usize,
    rep: &mut Rep,
) -> ColumnStream {
    let sink = rep.stream_sink();
    let start = Instant::now();
    let mut stream = ColumnStream::with_budget(program, budget);
    if let Some(sink) = sink {
        stream = stream.with_telemetry(sink);
    }
    rep.rec.add("stream.new", item, start.elapsed());
    stream
}

/// Sees each pushed chunk's report with the index of the program that
/// produced it.
pub type Check<'c, 'd> = &'c mut dyn FnMut(usize, &'d [String], &ChunkReport);

/// Push `chunks` through `stream`, swapping to the other of `programs`
/// before every chunk whose index is a positive multiple of `swap_every`.
/// The stream starts on `programs[0]`. `base` offsets the chunk items in
/// the recorder.
pub fn stream_pass<'d>(
    stream: &mut ColumnStream,
    programs: [&Arc<CompiledProgram>; 2],
    chunks: &[&'d [String]],
    swap_every: usize,
    base: usize,
    rep: &mut Rep,
    mut check: Option<Check<'_, 'd>>,
) {
    let mut active = 0;
    for (index, &chunk) in chunks.iter().enumerate() {
        let item = base + index;
        rep.ops.attempted += 1;
        let mut swap = None;
        if index > 0 && index % swap_every == 0 {
            active ^= 1;
            let next = Arc::clone(programs[active]);
            rep.ops.attempted += 1;
            let (summary, elapsed) = rep.time(|| stream.swap_program(next));
            black_box(summary);
            rep.rec.add("stream.swap", item, elapsed);
            swap = Some(elapsed);
        }
        let (report, elapsed) = rep.time(|| stream.push_rows(chunk));
        rep.rec.add("stream.push", item, elapsed);
        if let Some(swap) = swap {
            rep.rec.add("stream.repair", item, swap + elapsed);
        }
        if rep.mode == Mode::Traced {
            rep.counted_rows += chunk.len() as u64;
        }
        if let Some(check) = check.as_deref_mut() {
            check(active, chunk, &report);
        }
    }
}

/// `ColumnInterner::chunk` alone over the same chunks and budget as the
/// stream: the intern share of a push.
pub fn intern_pass(chunks: &[&[String]], budget: StreamBudget, base: usize, rec: &mut Recorder) {
    let mut interner = ColumnInterner::with_budget(budget);
    for (index, &chunk) in chunks.iter().enumerate() {
        let start = Instant::now();
        let interned = interner.chunk(chunk);
        black_box(interned.distinct_count());
        drop(interned);
        rec.add("column.intern", base + index, start.elapsed());
    }
}

/// `tokenize_detailed` of every row, per chunk of `chunk_rows`.
pub fn tokenize_pass(rows: &[String], chunk_rows: usize, base: usize, rec: &mut Recorder) {
    for (index, chunk) in rows.chunks(chunk_rows).enumerate() {
        let start = Instant::now();
        let tokenized: Vec<_> = chunk.iter().map(|row| tokenize_detailed(row)).collect();
        rec.add("pattern.tokenize", base + index, start.elapsed());
        black_box(tokenized);
    }
}

/// The reference output of `program` under `target`, by the UniFi
/// interpreter: values already in the target are kept, every other value
/// goes through `transform_lenient`.
pub fn oracle(program: &Program, target: &Pattern, value: &str) -> String {
    if target.matches(value) {
        value.to_string()
    } else {
        transform_lenient(program, value).value().to_string()
    }
}
