//! The CLX interaction session (Figure 5 of the paper), with the
//! Cluster–Label–Transform protocol encoded in the type system.
//!
//! A session is parameterized by its *phase*: [`ClxSession<Clustered>`]
//! exposes only the clustering surface (pattern list, hierarchy, data);
//! labelling **consumes** it and returns a [`ClxSession<Labelled>`], which
//! is the only type that has the transform-phase methods ([`apply`],
//! [`compile`], [`explanation`], [`repair`], …). Calling a transform method
//! before labelling is a *compile error*, not a runtime `Err` — the
//! protocol the paper's verifiability argument rests on is checked by
//! `rustc`, and the old `ClxError::NotLabelled` no longer exists.
//!
//! [`apply`]: ClxSession::apply
//! [`compile`]: ClxSession::compile
//! [`explanation`]: ClxSession::explanation
//! [`repair`]: ClxSession::repair

use std::collections::HashMap;
use std::fmt;

use std::sync::{Arc, OnceLock};

use clx_cluster::{PatternHierarchy, PatternProfiler, ProfilerOptions};
use clx_column::{Column, ColumnBuilder, StreamBudget};
use clx_engine::{ColumnStream, CompiledProgram, TransformReport};
use clx_pattern::{tokenize, Pattern};
use clx_synth::{synthesize_column, RankedPlan, Synthesis, SynthesisOptions};
use clx_telemetry::{MetricSink, Span};
use clx_unifi::{explain_program, transform_lenient, Explanation, Program};

/// Errors produced by the session API.
///
/// Note there is no "not labelled" variant: phase ordering is enforced by
/// the session types, so it cannot fail at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClxError {
    /// The label supplied by example does not correspond to any pattern in
    /// the profiled data and could not be tokenized into a usable pattern.
    EmptyTargetPattern,
    /// Explaining the program failed (see `clx-unifi` for details).
    Explain(String),
    /// Evaluating the program failed; this indicates a synthesizer bug, not
    /// bad input data.
    Eval(String),
    /// Compiling the program failed (at label time or through
    /// [`ClxSession::compile`]); this indicates an ill-formed program (see
    /// `clx-engine`), not bad input data.
    Compile(String),
    /// Strict compilation rejected the program: the static analyzer
    /// ([`clx_analyze`]) proved an `Error`-severity defect (dead branch,
    /// shadowed branch, or unsafe `Extract`) before any row ran.
    Analysis(String),
    /// [`ClxSession::reverify`] was handed a report not built over this
    /// session's column (another session's, or one merged from blocks):
    /// its outcomes cannot be matched to this session's distinct values.
    ForeignReport,
}

impl fmt::Display for ClxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClxError::EmptyTargetPattern => write!(f, "the target pattern is empty"),
            ClxError::Explain(e) => write!(f, "failed to explain program: {e}"),
            ClxError::Eval(e) => write!(f, "failed to evaluate program: {e}"),
            ClxError::Compile(e) => write!(f, "failed to compile program: {e}"),
            ClxError::Analysis(e) => write!(f, "program rejected by static analysis: {e}"),
            ClxError::ForeignReport => {
                write!(f, "the report was not produced over this session's column")
            }
        }
    }
}

impl std::error::Error for ClxError {}

/// A failed phase transition: labelling rejected the target pattern.
///
/// Labelling consumes the clustered session, so the error hands it back —
/// the (potentially expensive) profiling work is not lost. The session is
/// boxed to keep the `Err` variant a pointer wide on the happy path.
#[derive(Debug, Clone)]
pub struct LabelError {
    /// The clustered session, returned unchanged.
    pub session: Box<ClxSession<Clustered>>,
    /// Why labelling failed.
    pub error: ClxError,
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "labelling failed: {}", self.error)
    }
}

impl std::error::Error for LabelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Options for a CLX session: profiling options for the clustering phase and
/// synthesis options for the transform phase.
#[derive(Debug, Clone, Default)]
pub struct ClxOptions {
    /// Pattern-profiling (clustering) options.
    pub profiler: ProfilerOptions,
    /// Program-synthesis options.
    pub synthesis: SynthesisOptions,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Clustered {}
    impl Sealed for super::Labelled {}
}

/// A session phase (sealed: exactly [`Clustered`] and [`Labelled`]).
///
/// Each phase type carries exactly the state that phase has earned:
/// [`Clustered`] is zero-sized, [`Labelled`] holds the target pattern, the
/// synthesis result and its compiled program. A `ClxSession<P>` therefore
/// cannot even *represent* "transform state without a label".
pub trait Phase: sealed::Sealed + fmt::Debug + Clone {}

/// The cluster phase: the column is profiled, no target is labelled yet.
/// Zero-sized — a `ClxSession<Clustered>` is just data + hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Clustered;

impl Phase for Clustered {}

/// The transform phase: a target pattern is labelled and a program has been
/// synthesized and compiled for it.
#[derive(Debug, Clone)]
pub struct Labelled {
    target: Pattern,
    synthesis: Synthesis,
    /// The selected program, compiled: what [`ClxSession::apply`] and
    /// [`ClxSession::reverify`] run. Replaced on every accepted
    /// [`ClxSession::repair`].
    compiled: Arc<CompiledProgram>,
    /// `compiled` over the session's column, run on first use by
    /// [`ClxSession::apply`] or [`ClxSession::result_patterns`] and reset
    /// whenever `compiled` is replaced.
    report: OnceLock<TransformReport>,
}

impl Phase for Labelled {}

/// A CLX session over one column of data.
///
/// The session walks the user through the Cluster–Label–Transform loop and
/// owns all intermediate state: the shared [`Column`] (interned rows with
/// per-distinct-value cached leaves and token slices, which profiling,
/// synthesis and execution all read), the pattern hierarchy, and — once
/// labelled — the target pattern, the synthesized program and its repair
/// alternatives.
///
/// The phase parameter makes illegal orderings unrepresentable: transform
/// methods exist only on `ClxSession<Labelled>`, which only
/// [`ClxSession::label`] / [`ClxSession::label_by_example`] can produce.
///
/// ```compile_fail
/// use clx_core::ClxSession;
///
/// let session = ClxSession::new(vec!["734-422-8073".to_string()]);
/// // ERROR: `apply` exists only on `ClxSession<Labelled>`; an unlabelled
/// // session cannot even name the transform phase.
/// let _ = session.apply();
/// ```
///
/// The same protocol, followed correctly:
///
/// ```
/// use clx_core::ClxSession;
///
/// let session = ClxSession::new(vec![
///     "(734) 645-8397".to_string(),
///     "734-422-8073".to_string(),
/// ]);
/// let session = session.label_by_example("734-422-8073").unwrap();
/// let report = session.apply().unwrap();
/// assert_eq!(report.values(), vec!["734-645-8397", "734-422-8073"]);
/// ```
#[derive(Debug, Clone)]
pub struct ClxSession<P: Phase = Clustered> {
    data: Column,
    options: ClxOptions,
    hierarchy: PatternHierarchy,
    phase: P,
    telemetry: Option<Arc<dyn MetricSink>>,
}

// ---------------------------------------------------------------------------
// Every phase: the clustering surface.
// ---------------------------------------------------------------------------

impl<P: Phase> ClxSession<P> {
    /// The session's column: the raw rows plus the interned distinct
    /// values and their cached leaves and token slices.
    pub fn data(&self) -> &Column {
        &self.data
    }

    /// The options the session was created with.
    pub fn options(&self) -> &ClxOptions {
        &self.options
    }

    /// The pattern-cluster hierarchy produced by the clustering phase.
    pub fn hierarchy(&self) -> &PatternHierarchy {
        &self.hierarchy
    }

    /// The pattern list shown to the user for labelling: distinct leaf
    /// patterns with cluster sizes, largest first (Figure 3 of the paper).
    pub fn patterns(&self) -> Vec<(Pattern, usize)> {
        self.hierarchy.pattern_summary()
    }

    /// The metric sink observing this session, if one is attached.
    pub fn telemetry(&self) -> Option<&Arc<dyn MetricSink>> {
        self.telemetry.as_ref()
    }

    /// Attach a metric sink to an existing session (builder style).
    ///
    /// Phases that ran before the sink was attached are not retroactively
    /// recorded; prefer [`ClxSession::with_telemetry`] to observe the
    /// cluster phase too. The sink survives every phase transition
    /// ([`label`](ClxSession::label), [`unlabel`](ClxSession::unlabel),
    /// [`relabel`](ClxSession::relabel)) and is propagated into streams
    /// opened by [`stream_columns`](ClxSession::stream_columns).
    pub fn attach_telemetry(mut self, sink: Arc<dyn MetricSink>) -> Self {
        self.telemetry = Some(sink);
        self
    }
}

// ---------------------------------------------------------------------------
// Cluster phase: construction and the Label transition.
// ---------------------------------------------------------------------------

impl ClxSession<Clustered> {
    /// Start a session: profiles (clusters) the data immediately.
    pub fn new(data: Vec<String>) -> Self {
        Self::with_options(data, ClxOptions::default())
    }

    /// Start a session with custom options, building the column with
    /// [`Column::from_rows`].
    pub fn with_options(data: Vec<String>, options: ClxOptions) -> Self {
        Self::from_column(Column::from_rows(data), options)
    }

    /// Start an *observed* session: every phase of the CLX loop reports to
    /// `sink` as `core.phase.*` latency histograms (`cluster_ns`,
    /// `label_ns`, `synthesize_ns`, `compile_ns`, `apply_ns`), the column
    /// build reports its `column.builder.build_ns` latency, and streams
    /// opened by [`ClxSession::stream_columns`] /
    /// [`ClxSession::stream_columns_with_budget`] inherit the sink for
    /// their per-chunk `engine.stream.*` / `column.interner.*` series.
    ///
    /// Sessions without a sink pay no telemetry cost at all — no clock
    /// reads, no atomic traffic, just one `Option` branch per phase.
    pub fn with_telemetry(
        data: Vec<String>,
        options: ClxOptions,
        sink: Arc<dyn MetricSink>,
    ) -> Self {
        let column = ColumnBuilder::new()
            .with_telemetry(Arc::clone(&sink))
            .build(data);
        Self::build(column, options, Some(sink))
    }

    /// Start a session over an already-built [`Column`] (reusing its
    /// interned values and cached leaves and token slices).
    pub fn from_column(data: Column, options: ClxOptions) -> Self {
        Self::build(data, options, None)
    }

    fn build(data: Column, options: ClxOptions, telemetry: Option<Arc<dyn MetricSink>>) -> Self {
        let hierarchy = {
            let _cluster = Span::start(telemetry.as_ref(), "core.phase.cluster_ns");
            PatternProfiler::with_options(options.profiler.clone()).profile_column(&data)
        };
        ClxSession {
            data,
            options,
            hierarchy,
            phase: Clustered,
            telemetry,
        }
    }

    /// **Label** phase transition: record the desired target pattern,
    /// synthesize the transformation program, compile it, and return the
    /// labelled session — the only type carrying the transform-phase
    /// methods. Under a session sink the compilation is timed as
    /// `core.phase.compile_ns`, and synthesis adds its
    /// [`SynthesisCounts`](clx_synth::SynthesisCounts) to the counters
    /// `synth.plans_explored`, `synth.plans_dominated`, `synth.plans_kept`,
    /// `synth.budget_exhausted`, `synth.prune.screened` and
    /// `synth.prune.automaton`.
    ///
    /// On failure ([`ClxError::EmptyTargetPattern`], or
    /// [`ClxError::Compile`] for a program the engine rejects) the
    /// clustered session is handed back inside the [`LabelError`], so
    /// profiling work is never lost.
    pub fn label(self, target: Pattern) -> Result<ClxSession<Labelled>, LabelError> {
        if target.is_empty() {
            return Err(LabelError {
                session: Box::new(self),
                error: ClxError::EmptyTargetPattern,
            });
        }
        let _label = Span::start(self.telemetry.as_ref(), "core.phase.label_ns");
        let synthesis = {
            let _synth = Span::start(self.telemetry.as_ref(), "core.phase.synthesize_ns");
            synthesize_column(
                &self.hierarchy,
                &self.data,
                &target,
                &self.options.synthesis,
            )
        };
        if let Some(sink) = &self.telemetry {
            let counts = &synthesis.counts;
            for (name, value) in [
                ("synth.plans_explored", counts.plans_explored),
                ("synth.plans_dominated", counts.plans_dominated),
                ("synth.plans_kept", counts.plans_kept),
                ("synth.budget_exhausted", counts.budget_exhausted),
                ("synth.prune.screened", counts.prune_screened),
                ("synth.prune.automaton", counts.prune_automaton),
            ] {
                sink.counter(name, value as u64);
            }
        }
        let compiled = match compile(&synthesis.program(), &target, self.telemetry.as_ref()) {
            Ok(compiled) => Arc::new(compiled),
            Err(error) => {
                return Err(LabelError {
                    session: Box::new(self),
                    error,
                })
            }
        };
        Ok(ClxSession {
            data: self.data,
            options: self.options,
            hierarchy: self.hierarchy,
            phase: Labelled {
                target,
                synthesis,
                compiled,
                report: OnceLock::new(),
            },
            telemetry: self.telemetry,
        })
    }

    /// Label the target by giving one example value in the desired format
    /// (the "alternatively specify the target data form manually" path of
    /// §3.2). The example is tokenized into its leaf pattern.
    pub fn label_by_example(self, example: &str) -> Result<ClxSession<Labelled>, LabelError> {
        self.label(tokenize(example))
    }
}

// ---------------------------------------------------------------------------
// Transform phase: everything that needs a labelled target.
// ---------------------------------------------------------------------------

impl ClxSession<Labelled> {
    /// The labelled target pattern.
    pub fn target(&self) -> &Pattern {
        &self.phase.target
    }

    /// The synthesis result of the label transition, including the ranked
    /// alternatives used by [`ClxSession::repair`].
    pub fn synthesis(&self) -> &Synthesis {
        &self.phase.synthesis
    }

    /// Drop the label (and its synthesized program), returning to the
    /// cluster phase. Together with [`ClxSession::label`] this lets a
    /// caller re-label without re-profiling.
    pub fn unlabel(self) -> ClxSession<Clustered> {
        ClxSession {
            data: self.data,
            options: self.options,
            hierarchy: self.hierarchy,
            phase: Clustered,
            telemetry: self.telemetry,
        }
    }

    /// Re-label with a different target (an [`ClxSession::unlabel`]
    /// followed by [`ClxSession::label`]).
    pub fn relabel(self, target: Pattern) -> Result<ClxSession<Labelled>, LabelError> {
        self.unlabel().label(target)
    }

    /// The currently selected UniFi program.
    pub fn program(&self) -> Program {
        self.phase.synthesis.program()
    }

    /// The program explained as regexp `Replace` operations (Figure 4).
    pub fn explanation(&self) -> Result<Explanation, ClxError> {
        explain_program(&self.program()).map_err(|e| ClxError::Explain(e.to_string()))
    }

    /// The numbered operation list shown to the user, e.g.
    /// `1 Replace '/^.../' in column1 with '($1) $2-$3'`.
    pub fn suggested_operations(&self, column: &str) -> Result<String, ClxError> {
        Ok(self.explanation()?.render(column))
    }

    /// Repair alternatives for one source pattern (§6.4), or `None` when
    /// the pattern names no synthesized source.
    pub fn alternatives(&self, pattern: &Pattern) -> Option<&[RankedPlan]> {
        self.phase.synthesis.alternatives(pattern)
    }

    /// Repair: replace the selected plan of `pattern` with the `choice`-th
    /// ranked alternative and recompile the program (timed as
    /// `core.phase.compile_ns` under a session sink). Returns `false`, with
    /// the program unchanged, when the pattern or index is unknown or the
    /// repaired program does not compile.
    pub fn repair(&mut self, pattern: &Pattern, choice: usize) -> bool {
        let synthesis = &mut self.phase.synthesis;
        let previous = synthesis.sources.iter().find(|s| &s.pattern == pattern);
        let previous = previous.map_or(0, |s| s.chosen);
        if !synthesis.repair(pattern, choice) {
            return false;
        }
        let Ok(compiled) = compile(&self.program(), &self.phase.target, self.telemetry.as_ref())
        else {
            self.phase.synthesis.repair(pattern, previous);
            return false;
        };
        self.phase.compiled = Arc::new(compiled);
        self.phase.report = OnceLock::new();
        true
    }

    /// Re-verify a previously produced report against the session's
    /// *current* (possibly repaired) program: the report
    /// [`ClxSession::apply`] returns now. By construction it is row for row
    /// a fresh `apply` — the held compiled program runs once over the
    /// session's column, so the step is O(distinct) and compiles nothing.
    /// It runs the program afresh every call and neither reads nor fills
    /// the report the session holds for `apply`.
    ///
    /// `report` must have been built over this session's column — by
    /// [`ClxSession::apply`], `reverify`, or
    /// [`CompiledProgram::execute_column`] on [`ClxSession::data`]. Any
    /// other report (over another session's column, or merged from
    /// [`CompiledProgram::execute`]'s blocks) is refused with
    /// [`ClxError::ForeignReport`].
    ///
    /// Under a session sink the step is timed as `core.phase.reverify_ns`.
    pub fn reverify(&self, report: &TransformReport) -> Result<TransformReport, ClxError> {
        let _reverify = Span::start(self.telemetry.as_ref(), "core.phase.reverify_ns");
        if !report.is_built_over(&self.data) {
            return Err(ClxError::ForeignReport);
        }
        Ok(self.phase.compiled.execute_column(&self.data))
    }

    /// [`ClxSession::repair`] immediately followed by
    /// [`ClxSession::reverify`] of `report`: the one-call interactive
    /// repair loop. A rejected repair (unknown pattern or out-of-range
    /// choice) leaves the program unchanged, so the returned report then
    /// equals `report` row for row.
    pub fn repair_and_reverify(
        &mut self,
        pattern: &Pattern,
        choice: usize,
        report: &TransformReport,
    ) -> Result<TransformReport, ClxError> {
        self.repair(pattern, choice);
        self.reverify(report)
    }

    /// **Transform** phase: apply the current program to the whole column.
    ///
    /// Runs the session's compiled program through
    /// [`CompiledProgram::execute_column`]: each *distinct* value is
    /// decided once, and the report is columnar (it shares the column's row
    /// map), so the step is O(distinct) in time and memory.
    /// [`ClxSession::label`] and [`ClxSession::repair`] refuse a program
    /// that does not compile, so no value can abort the column; a value no
    /// branch rewrites is flagged.
    ///
    /// The session holds one report per program: the first `apply` (or
    /// [`ClxSession::result_patterns`]) runs the program, timed as
    /// `core.phase.apply_ns` under a session sink, and every later call
    /// returns a clone of that report, which copies no output string (each
    /// outcome is a reference-count bump). An accepted
    /// [`ClxSession::repair`] drops it.
    pub fn apply(&self) -> Result<TransformReport, ClxError> {
        Ok(self.held_report().clone())
    }

    /// The report of the held program over the session's column, run on
    /// first use.
    fn held_report(&self) -> &TransformReport {
        self.phase.report.get_or_init(|| {
            let _apply = Span::start(self.telemetry.as_ref(), "core.phase.apply_ns");
            self.phase.compiled.execute_column(&self.data)
        })
    }

    /// Compile the current program for high-throughput batch execution:
    /// a fresh compilation of the program [`ClxSession::apply`] runs.
    ///
    /// The returned [`CompiledProgram`] is immutable and `Send + Sync`: it
    /// can be shared across threads behind an `Arc`, executed over other
    /// columns in parallel blocks ([`CompiledProgram::execute`]), executed
    /// over this session's column ([`CompiledProgram::execute_column`] on
    /// [`ClxSession::data`]), or streamed over columns larger than memory
    /// through a [`ColumnStream`] (see [`ClxSession::stream_columns`]). Its
    /// semantics on any column are exactly those of [`ClxSession::apply`].
    pub fn compile(&self) -> Result<CompiledProgram, ClxError> {
        compile(&self.program(), &self.phase.target, self.telemetry.as_ref())
    }

    /// Statically analyze the current program against the labelled target
    /// (see [`clx_analyze`]): six language-level passes proving per-branch
    /// properties — reachability, extract safety, output conformance —
    /// before any row runs. `Error`-severity findings are proofs of a
    /// defect; `Warning` findings are properties the analyzer could not
    /// prove. Purely observational: the session and program are unchanged.
    ///
    /// Under a session sink the pass timings and per-code finding counts
    /// are reported as `engine.analyze.*` metrics.
    pub fn analyze(&self) -> clx_analyze::ProgramDiagnostics {
        let _analyze = Span::start(self.telemetry.as_ref(), "core.phase.analyze_ns");
        clx_analyze::analyze_observed(&self.program(), &self.phase.target, self.telemetry.as_ref())
    }

    /// [`ClxSession::compile`] with the static analyzer in the loop:
    /// compilation fails with [`ClxError::Analysis`] when [`analyze`]
    /// (run as part of compilation) proves an `Error`-severity defect.
    /// The default [`compile`] only *records* diagnostics via telemetry;
    /// strict mode is the opt-in gate for callers that want provably
    /// defect-free programs before execution.
    ///
    /// [`analyze`]: ClxSession::analyze
    /// [`compile`]: ClxSession::compile
    pub fn compile_strict(&self) -> Result<CompiledProgram, ClxError> {
        let _compile = Span::start(self.telemetry.as_ref(), "core.phase.compile_ns");
        CompiledProgram::compile_strict(
            &self.program(),
            &self.phase.target,
            self.telemetry.as_ref(),
        )
        .map_err(|e| match e {
            clx_engine::CompileError::RejectedByAnalysis { .. } => {
                ClxError::Analysis(e.to_string())
            }
            other => ClxError::Compile(other.to_string()),
        })
    }

    /// Open a columnar ingest stream executing this session's program:
    /// chunks pushed through the returned [`ColumnStream`] are interned
    /// into a persistent, cross-chunk id space, so streaming inherits the
    /// O(distinct) execute path — a distinct value is tokenized and decided
    /// once per stream, no matter how many chunks repeat it — and each
    /// pushed chunk comes back as a columnar [`TransformReport`], the
    /// report type [`ClxSession::apply`] returns.
    ///
    /// The stream owns its compiled program, so it is independent of the
    /// session's lifetime and can ingest columns the session never saw
    /// (the semantics on any rows are exactly [`ClxSession::apply`]'s).
    ///
    /// The returned stream retains O(distinct) state (interner + decision
    /// cache) and is meant for *trusted* input; for untrusted,
    /// possibly-adversarial streams use
    /// [`ClxSession::stream_columns_with_budget`].
    pub fn stream_columns(&self) -> Result<ColumnStream, ClxError> {
        self.stream_columns_with_budget(StreamBudget::unbounded())
    }

    /// [`ClxSession::stream_columns`] with a memory budget, for untrusted
    /// high-cardinality streams whose distinct values would otherwise grow
    /// the stream's interned state without bound.
    ///
    /// The stream evicts its coldest interned values at each chunk
    /// boundary (re-interning them if they reappear), so every pushed
    /// row's outcome is row-for-row identical to the unbounded stream —
    /// only the retained memory changes, observable via
    /// [`ColumnStream::memory_used`], [`ColumnStream::evictions`] and the
    /// final [`StreamSummary`](clx_engine::StreamSummary)'s
    /// memory/eviction fields.
    ///
    /// ```
    /// use clx_column::StreamBudget;
    /// # use clx_core::ClxSession;
    /// # let session = ClxSession::new(vec!["734-422-8073".to_string()])
    /// #     .label_by_example("734-422-8073").unwrap();
    /// let mut stream = session
    ///     .stream_columns_with_budget(StreamBudget::max_distinct(10_000))
    ///     .unwrap();
    /// stream.push_rows(&["734.236.3466"]);
    /// assert!(stream.memory_used() > 0);
    /// let summary = stream.finish();
    /// assert_eq!(summary.evictions, 0); // budget never bound
    /// ```
    pub fn stream_columns_with_budget(
        &self,
        budget: StreamBudget,
    ) -> Result<ColumnStream, ClxError> {
        let mut stream = ColumnStream::with_budget(Arc::new(self.compile()?), budget);
        if let Some(sink) = &self.telemetry {
            stream = stream.with_telemetry(Arc::clone(sink));
        }
        Ok(stream)
    }

    /// The post-transformation pattern summary (Figure 2 of the paper): the
    /// distinct patterns of the output column with their row counts, which
    /// is what the user verifies after the transformation.
    ///
    /// It reads the report the session holds for [`ClxSession::apply`], so
    /// a click that calls both runs the program once; called first, it
    /// runs and holds that report itself.
    ///
    /// The output column is built from the distinct output texts (a
    /// distinct input costs a lookup, a distinct output its leaf key and
    /// token slices), and only its leaf clusters are computed: no
    /// refinement levels, which the summary does not read.
    pub fn result_patterns(&self) -> Result<Vec<(Pattern, usize)>, ClxError> {
        let report = self.held_report();
        // The positional indexing below relies on `execute_column`
        // returning a report aligned with this session's column: stored
        // outcome `k` is the decision for `self.data.distinct(k)`.
        debug_assert_eq!(
            report.outcomes().len(),
            self.data.distinct_count(),
            "the held report must be columnar over the session column"
        );

        // Distinct inputs may collide on their output: dedup by text.
        let mut dedup: HashMap<&str, u32> = HashMap::new();
        let mut out_values: Vec<&str> = Vec::new();
        let input_to_output: Vec<u32> = report
            .outcomes()
            .iter()
            .map(|outcome| {
                let text = outcome.value();
                *dedup.entry(text).or_insert_with(|| {
                    out_values.push(text);
                    out_values.len() as u32 - 1
                })
            })
            .collect();

        // Compose the row map: row -> input distinct -> output distinct.
        let row_map: Vec<u32> = self
            .data
            .row_map()
            .iter()
            .map(|&d| input_to_output[d as usize])
            .collect();
        let output = Column::from_distinct(&out_values, row_map);
        Ok(PatternProfiler::with_options(self.options.profiler.clone()).leaf_summary(&output))
    }

    /// Cross-check that the explained `Replace` operations behave exactly
    /// like the UniFi program on this session's data. Returns the number of
    /// rows checked. This is the "what you read is what runs" guarantee the
    /// paper's verifiability argument rests on.
    pub fn verify_explanation(&self) -> Result<usize, ClxError> {
        let target = &self.phase.target;
        let program = self.program();
        let explanation = self.explanation()?;
        let mut checked = 0;
        // Both sides are pure functions of the value: checking each distinct
        // value once covers all of its duplicate rows.
        for value in self.data.distinct_values() {
            let text = value.text();
            if target.matches(text) {
                continue;
            }
            // The interpreter: the oracle the compiled `apply` agrees with
            // row for row.
            let via_dsl = transform_lenient(&program, text).value().to_string();
            let via_replace = explanation.apply(text);
            if via_dsl != via_replace {
                return Err(ClxError::Eval(format!(
                    "explanation mismatch on {text:?}: DSL produced {via_dsl:?}, Replace produced {via_replace:?}"
                )));
            }
            checked += value.multiplicity();
        }
        Ok(checked)
    }
}

/// Compile `program` against `target`, timed as `core.phase.compile_ns`;
/// under a sink the fused-automaton construction also reports
/// `engine.fused.build_ns` / `engine.fused.fallbacks`.
fn compile(
    program: &Program,
    target: &Pattern,
    telemetry: Option<&Arc<dyn MetricSink>>,
) -> Result<CompiledProgram, ClxError> {
    let _compile = Span::start(telemetry, "core.phase.compile_ns");
    CompiledProgram::compile_observed(program, target, telemetry)
        .map_err(|e| ClxError::Compile(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::parse_pattern;

    fn phone_data() -> Vec<String> {
        vec![
            "(734) 645-8397".into(),
            "(734) 763-1147".into(),
            "(734)586-7252".into(),
            "734-422-8073".into(),
            "734-936-2447".into(),
            "734.236.3466".into(),
            "N/A".into(),
        ]
    }

    fn labelled(data: Vec<String>, target: Pattern) -> ClxSession<Labelled> {
        ClxSession::new(data).label(target).expect("valid target")
    }

    #[test]
    fn full_cluster_label_transform_loop() {
        let session = ClxSession::new(phone_data());
        // Cluster: the pattern list is available immediately.
        let patterns = session.patterns();
        assert_eq!(patterns.len(), 5);

        // Label by picking the target pattern from the list; the clustered
        // session is consumed and a labelled one comes back.
        let target = tokenize("734-422-8073");
        let session = session.label(target.clone()).unwrap();
        assert_eq!(session.target(), &target);

        // Transform.
        let report = session.apply().unwrap();
        assert!(report.is_perfect() || report.flagged_count() > 0);
        assert_eq!(report.conforming_count(), 2);
        assert_eq!(report.transformed_count(), 4);
        assert_eq!(report.flagged_count(), 1);
        assert_eq!(report.flagged_values(), vec!["N/A"]);
        // Every non-flagged output matches the target.
        for row in report.iter_rows() {
            if !row.is_flagged() {
                assert!(target.matches(row.value()), "{row:?}");
            }
        }
    }

    #[test]
    fn label_by_example() {
        let session = ClxSession::new(phone_data())
            .label_by_example("555-123-4567")
            .unwrap();
        let report = session.apply().unwrap();
        assert_eq!(report.transformed_count(), 4);
    }

    #[test]
    fn analyze_reports_a_clean_synthesized_program() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let report = session.analyze();
        assert!(
            !report.has_errors(),
            "synthesized program has error findings: {report}"
        );
        // Every branch of the synthesized program is reachable and its
        // extracts are in bounds — the analyzer proves what synthesis
        // guaranteed by construction.
        for (index, _) in session.program().branches.iter().enumerate() {
            let facts = report.branch_facts(index);
            assert!(facts.reachable, "branch {index} unreachable");
            assert!(facts.extract_safe, "branch {index} extract-unsafe");
        }
        // And a clean program passes the strict compile gate.
        let compiled = session.compile_strict().expect("strict compile");
        assert_eq!(
            compiled.execute_column(session.data()),
            session.apply().unwrap()
        );
    }

    #[test]
    fn analyze_is_observed_under_a_session_sink() {
        let sink = Arc::new(clx_telemetry::InMemorySink::new());
        let session = ClxSession::with_telemetry(
            phone_data(),
            ClxOptions::default(),
            Arc::clone(&sink) as Arc<dyn MetricSink>,
        )
        .label_by_example("734-422-8073")
        .unwrap();
        session.analyze();
        let snapshot = clx_telemetry::MetricSink::snapshot(sink.as_ref());
        assert!(snapshot.histogram("core.phase.analyze_ns").is_some());
        assert!(snapshot.histogram("engine.analyze.total_ns").is_some());
        assert_eq!(snapshot.counter("engine.analyze.runs"), Some(1));
    }

    #[test]
    fn empty_target_rejected_and_session_returned() {
        let session = ClxSession::new(phone_data());
        let err = session.label(Pattern::empty()).unwrap_err();
        assert_eq!(err.error, ClxError::EmptyTargetPattern);
        // The clustered session comes back intact and can be re-labelled.
        let recovered = err.session;
        assert_eq!(recovered.patterns().len(), 5);
        assert!(recovered.label(tokenize("734-422-8073")).is_ok());
    }

    #[test]
    fn unlabel_and_relabel_reuse_profiling() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let report_dash = session.apply().unwrap();
        let session = session.relabel(tokenize("(734) 645-8397")).unwrap();
        assert_eq!(session.target(), &tokenize("(734) 645-8397"));
        let report_paren = session.apply().unwrap();
        assert_ne!(report_dash.values(), report_paren.values());
        // And back to the cluster phase explicitly.
        let clustered = session.unlabel();
        assert_eq!(clustered.patterns().len(), 5);
    }

    #[test]
    fn report_is_columnar_over_session_column() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let report = session.apply().unwrap();
        assert_eq!(report.outcomes().len(), session.data().distinct_count());
        assert_eq!(report.len(), session.data().len());
    }

    #[test]
    fn explanation_lists_one_replace_per_branch() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let explanation = session.explanation().unwrap();
        let program = session.program();
        assert_eq!(explanation.operations.len(), program.len());
        let listing = session.suggested_operations("column1").unwrap();
        assert!(listing.contains("Replace '/^"));
        assert!(listing.contains("column1"));
    }

    #[test]
    fn explained_operations_match_dsl_on_all_rows() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let checked = session.verify_explanation().unwrap();
        assert_eq!(checked, 5); // 7 rows minus 2 already conforming
    }

    #[test]
    fn result_patterns_collapse_after_transformation() {
        let session = ClxSession::new(phone_data());
        let before = session.patterns().len();
        let session = session.label(tokenize("734-422-8073")).unwrap();
        let after = session.result_patterns().unwrap();
        assert!(after.len() < before);
        // The dominant output pattern is the target.
        assert_eq!(after[0].0, tokenize("734-422-8073"));
        assert_eq!(after[0].1, 6);
    }

    #[test]
    fn result_patterns_match_a_freshly_profiled_output_column() {
        // The derived-tokenization path must agree with profiling the raw
        // output strings (which re-tokenizes everything).
        for target in [tokenize("734-422-8073"), tokenize("(734) 645-8397")] {
            let session = labelled(phone_data(), target);
            let derived = session.result_patterns().unwrap();
            let report = session.apply().unwrap();
            let fresh = PatternProfiler::with_options(session.options().profiler.clone())
                .profile_column(&Column::from_rows(report.values()));
            assert_eq!(derived, fresh.pattern_summary());
        }
    }

    #[test]
    fn repair_changes_the_applied_program() {
        let data = vec![
            "12/11/2017".to_string(),
            "03/04/2018".to_string(),
            "11-12-2017".to_string(),
        ];
        let mut session = labelled(data, tokenize("11-12-2017"));
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let alternatives = session.alternatives(&source).unwrap().to_vec();
        assert!(alternatives.len() >= 2);
        let before = session.apply().unwrap().values();
        // Find an alternative that changes the output and select it.
        let mut changed = false;
        for i in 1..alternatives.len() {
            assert!(session.repair(&source, i));
            let after = session.apply().unwrap().values();
            if after != before {
                changed = true;
                break;
            }
        }
        assert!(changed, "at least one alternative changes the output");
    }

    #[test]
    fn repair_of_unknown_pattern_returns_false() {
        let mut session = labelled(phone_data(), tokenize("734-422-8073"));
        assert!(!session.repair(&tokenize("zzz"), 0));
    }

    /// A repair alternative whose plan (`Extract(99)`) the engine rejects
    /// is refused: the previous plan stays selected and compiled.
    #[test]
    fn repair_refuses_a_plan_that_does_not_compile() {
        use clx_unifi::{Expr, StringExpr};

        let data = vec![
            "12/11/2017".to_string(),
            "03/04/2018".to_string(),
            "11-12-2017".to_string(),
        ];
        let mut session = labelled(data, tokenize("11-12-2017"));
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let slot = session
            .phase
            .synthesis
            .sources
            .iter_mut()
            .find(|s| s.pattern == source)
            .unwrap();
        slot.plans.push(RankedPlan {
            expr: Expr::concat(vec![StringExpr::extract(99)]),
            description_length: 0.0,
        });
        let bad = slot.plans.len() - 1;
        let program = session.program();
        let report = session.apply().unwrap();

        assert!(!session.repair(&source, bad));
        assert_eq!(session.program(), program);
        assert_eq!(session.apply().unwrap(), report);
        assert_eq!(report.values()[0], "12-11-2017");
        // A compiling alternative is still accepted afterwards.
        assert!(session.repair(&source, 1));
    }

    #[test]
    fn reverify_equals_a_fresh_apply_for_every_repair_alternative() {
        let data = vec![
            "12/11/2017".to_string(),
            "03/04/2018".to_string(),
            "11-12-2017".to_string(),
        ];
        let mut session = labelled(data, tokenize("11-12-2017"));
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let baseline = session.apply().unwrap();
        let alternatives = session.alternatives(&source).unwrap().len();
        assert!(alternatives >= 2);
        // `baseline` came from the original program; each iteration
        // re-verifies it under the current alternative, back to choice 0.
        for choice in (0..alternatives).rev() {
            assert!(session.repair(&source, choice));
            let patched = session.reverify(&baseline).unwrap();
            let fresh = session.apply().unwrap();
            assert_eq!(patched, fresh, "choice {choice}");
            // The patched report can itself seed the next reverify.
            assert_eq!(session.reverify(&patched).unwrap(), fresh);
        }
    }

    #[test]
    fn reverify_accepts_only_reports_over_the_session_column() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let hand_built = TransformReport::empty(tokenize("734-422-8073").into());
        assert_eq!(
            session.reverify(&hand_built).unwrap_err(),
            ClxError::ForeignReport
        );
        // A report over the session's own column needs no session origin.
        let compiled = session.compile().unwrap();
        let by_engine = compiled.execute_column(session.data());
        assert_eq!(
            session.reverify(&by_engine).unwrap(),
            session.apply().unwrap()
        );
        // One merged from `execute`'s blocks over the same rows is refused.
        let merged = compiled.execute(&session.data().to_vec());
        assert_eq!(merged, by_engine);
        assert_eq!(
            session.reverify(&merged).unwrap_err(),
            ClxError::ForeignReport
        );
    }

    #[test]
    fn repair_and_reverify_is_the_one_call_loop() {
        let data = vec![
            "12/11/2017".to_string(),
            "03/04/2018".to_string(),
            "11-12-2017".to_string(),
        ];
        let mut session = labelled(data, tokenize("11-12-2017"));
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let baseline = session.apply().unwrap();
        let patched = session.repair_and_reverify(&source, 1, &baseline).unwrap();
        assert_eq!(patched, session.apply().unwrap());
        // A rejected repair leaves the program, hence the report, as it was.
        let unchanged = session
            .repair_and_reverify(&tokenize("zzz"), 0, &patched)
            .unwrap();
        assert_eq!(unchanged, patched);
    }

    #[test]
    fn reverify_refuses_another_sessions_report() {
        let data = vec![
            "12/11/2017".to_string(),
            "03/04/2018".to_string(),
            "11-12-2017".to_string(),
        ];
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let a = labelled(data.clone(), tokenize("11-12-2017"));
        let mut b = labelled(data, tokenize("11-12-2017"));
        let report_a = a.apply().unwrap();
        assert!(b.repair(&source, 1));
        // Same rows, but B's column is not the one A's report was built
        // over: a typed refusal, and A's report is left as it was.
        let before = report_a.clone();
        assert_eq!(b.reverify(&report_a).unwrap_err(), ClxError::ForeignReport);
        assert_eq!(report_a, before);
        // B's own report re-verifies as usual.
        let report_b = b.apply().unwrap();
        assert_eq!(b.reverify(&report_b).unwrap(), report_b);
    }

    #[test]
    fn medical_codes_example_5() {
        let data = vec![
            "CPT-00350".to_string(),
            "[CPT-00340".to_string(),
            "[CPT-11536]".to_string(),
            "CPT115".to_string(),
        ];
        let session = labelled(data, parse_pattern("'['<U>+'-'<D>+']'").unwrap());
        let report = session.apply().unwrap();
        assert_eq!(
            report.values(),
            vec!["[CPT-00350]", "[CPT-00340]", "[CPT-11536]", "[CPT-115]"]
        );
        assert!(report.is_perfect());
    }

    #[test]
    fn apply_equals_the_interpreter_oracle() {
        let data = phone_data()
            .into_iter()
            .chain(["734/422/8073".to_string(), String::new()])
            .collect();
        let session = labelled(data, tokenize("734-422-8073"));
        let program = session.program();
        let target = session.target();
        let report = session.apply().unwrap();
        for (row, value) in session.data().iter().enumerate() {
            let want = if target.matches(value) {
                value.to_string()
            } else {
                transform_lenient(&program, value).value().to_string()
            };
            assert_eq!(report.row(row).value(), want, "row {row}: {value:?}");
        }
        assert!(report.flagged_values().contains(&"N/A"));
    }

    #[test]
    fn reverify_compiles_nothing() {
        let sink = clx_telemetry::InMemorySink::shared();
        let data = vec![
            "12/11/2017".to_string(),
            "03/04/2018".to_string(),
            "11-12-2017".to_string(),
        ];
        let mut session = ClxSession::with_telemetry(
            data,
            ClxOptions::default(),
            Arc::clone(&sink) as Arc<dyn MetricSink>,
        )
        .label(tokenize("11-12-2017"))
        .unwrap();
        let builds = || {
            sink.snapshot()
                .histogram("engine.fused.build_ns")
                .map_or(0, |h| h.count)
        };
        let baseline = session.apply().unwrap();
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        assert!(session.repair(&source, 1));
        let before = builds();
        assert!(before >= 2, "label and repair each compile once");
        let patched = session.reverify(&baseline).unwrap();
        session.reverify(&patched).unwrap();
        assert_eq!(builds(), before);
    }

    #[test]
    fn stream_columns_matches_apply_chunk_by_chunk() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let report = session.apply().unwrap();

        let mut stream = session.stream_columns().unwrap();
        let data = session.data().to_vec();
        let mut streamed: Vec<String> = Vec::new();
        for chunk in data.chunks(3) {
            let chunk_report = stream.push_rows(chunk);
            assert!(chunk_report.outcomes().len() <= chunk_report.len());
            streamed.extend(chunk_report.iter_values().map(str::to_string));
        }
        assert_eq!(streamed, report.values());
        let summary = stream.finish();
        assert_eq!(summary.rows(), report.len());
        assert_eq!(summary.stats.flagged, report.flagged_count());
        assert_eq!(summary.stats.transformed, report.transformed_count());
    }

    #[test]
    fn budgeted_stream_matches_apply_and_bounds_state() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let report = session.apply().unwrap();

        let mut stream = session
            .stream_columns_with_budget(StreamBudget::max_distinct(1))
            .unwrap();
        let data = session.data().to_vec();
        let mut streamed: Vec<String> = Vec::new();
        for chunk in data.chunks(2) {
            streamed.extend(stream.push_rows(chunk).iter_values().map(str::to_string));
        }
        // Row-for-row identical to the in-memory apply, at bounded state.
        assert_eq!(streamed, report.values());
        assert!(stream.evictions() > 0);
        assert!(stream.interner().live_distinct_count() <= 1 + 2);
        let summary = stream.finish();
        assert!(summary.evictions > 0);
        assert!(summary.peak_memory_bytes > 0);
        assert_eq!(summary.stats.flagged, report.flagged_count());
    }

    #[test]
    fn iter_values_borrows_the_report() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let report = session.apply().unwrap();
        let borrowed: Vec<&str> = report.iter_values().collect();
        assert_eq!(report.iter_values().len(), report.len());
        assert_eq!(
            borrowed,
            report
                .values()
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn compiled_program_reuses_across_columns() {
        let session = labelled(phone_data(), tokenize("734-422-8073"));
        let compiled = session.compile().unwrap();
        assert_eq!(compiled.target(), &tokenize("734-422-8073"));
        // The compiled program serves a column the session never saw.
        let other = vec!["555.867.5309".to_string(), "not a phone".to_string()];
        let report = compiled.execute(&other);
        assert_eq!(report.values(), vec!["555-867-5309", "not a phone"]);
        assert_eq!(report.flagged_count(), 1);
    }

    #[test]
    fn data_accessor_and_hierarchy() {
        let session = ClxSession::new(phone_data());
        assert_eq!(session.data().len(), 7);
        assert_eq!(session.hierarchy().total_rows(), 7);
    }

    #[test]
    fn empty_data_session() {
        let session = ClxSession::new(Vec::new());
        assert!(session.patterns().is_empty());
        let session = session.label(tokenize("123")).unwrap();
        let report = session.apply().unwrap();
        assert!(report.is_empty());
        assert!(report.is_perfect());
    }

    #[test]
    fn options_are_respected() {
        let mut options = ClxOptions::default();
        options.profiler.discover_constants = false;
        options.synthesis.top_k = 1;
        let session = ClxSession::with_options(phone_data(), options)
            .label(tokenize("734-422-8073"))
            .unwrap();
        for source in &session.synthesis().sources {
            assert_eq!(source.plans.len(), 1);
        }
    }

    #[test]
    fn observed_session_records_every_phase() {
        let sink = clx_telemetry::InMemorySink::shared();
        let session = ClxSession::with_telemetry(
            phone_data(),
            ClxOptions::default(),
            Arc::clone(&sink) as Arc<dyn MetricSink>,
        );
        assert!(session.telemetry().is_some());
        let session = session.label(tokenize("734-422-8073")).unwrap();
        let report = session.apply().unwrap();
        session.reverify(&report).unwrap();
        let mut stream = session.stream_columns().unwrap();
        stream.push_rows(&["(111) 222-3333", "(111) 222-3333"]);
        stream.finish();

        let snap = sink.snapshot();
        for phase in [
            "core.phase.cluster_ns",
            "core.phase.label_ns",
            "core.phase.synthesize_ns",
            "core.phase.compile_ns",
            "core.phase.apply_ns",
            "core.phase.reverify_ns",
        ] {
            let h = snap
                .histogram(phase)
                .unwrap_or_else(|| panic!("missing phase histogram {phase}; snapshot: {snap:?}"));
            assert!(h.count >= 1, "{phase} recorded no samples");
        }
        // One apply call, one apply-phase sample: `reverify` times itself
        // only as `core.phase.reverify_ns`.
        assert_eq!(snap.histogram("core.phase.apply_ns").unwrap().count, 1);
        // The column build and the stream reported through the same sink.
        assert!(snap.histogram("column.builder.build_ns").is_some());
        assert_eq!(snap.counter("engine.stream.rows"), Some(2));
    }

    #[test]
    fn label_records_what_synthesis_did() {
        let sink = clx_telemetry::InMemorySink::shared();
        let session = ClxSession::new(phone_data())
            .attach_telemetry(Arc::clone(&sink) as Arc<dyn MetricSink>)
            .label(tokenize("734-422-8073"))
            .unwrap();
        let counts = session.synthesis().counts;
        assert!(counts.plans_explored >= counts.plans_kept);
        assert!(counts.plans_kept >= session.synthesis().sources.len());
        assert!(counts.plans_kept > 0);
        // The phone formats re-split their digit runs many ways; dominance
        // drops those prefixes before they are popped.
        assert!(counts.plans_dominated > 0);
        let snap = sink.snapshot();
        for (name, value) in [
            ("synth.plans_explored", counts.plans_explored),
            ("synth.plans_dominated", counts.plans_dominated),
            ("synth.plans_kept", counts.plans_kept),
            ("synth.budget_exhausted", counts.budget_exhausted),
            ("synth.prune.screened", counts.prune_screened),
            ("synth.prune.automaton", counts.prune_automaton),
        ] {
            assert_eq!(snap.counter(name), Some(value as u64), "{name}");
        }
        // A relabel adds its own counts to the same counters.
        let relabelled = session.relabel(tokenize("(734) 645-8397")).unwrap();
        let second = relabelled.synthesis().counts;
        let snap = sink.snapshot();
        assert_eq!(
            snap.counter("synth.plans_explored"),
            Some((counts.plans_explored + second.plans_explored) as u64)
        );
        assert_eq!(
            snap.counter("synth.plans_dominated"),
            Some((counts.plans_dominated + second.plans_dominated) as u64)
        );
    }

    #[test]
    fn telemetry_survives_phase_transitions() {
        let sink = clx_telemetry::InMemorySink::shared();
        let session = ClxSession::new(phone_data())
            .attach_telemetry(Arc::clone(&sink) as Arc<dyn MetricSink>);
        // No cluster span: the sink was attached after profiling.
        assert!(sink.snapshot().histogram("core.phase.cluster_ns").is_none());
        let session = session.label(tokenize("734-422-8073")).unwrap();
        let session = session.relabel(tokenize("(734) 645-8397")).unwrap();
        let session = session.unlabel();
        assert!(session.telemetry().is_some());
        // label ran twice (label + relabel), each with a nested synthesis.
        let snap = sink.snapshot();
        assert_eq!(snap.histogram("core.phase.label_ns").unwrap().count, 2);
        assert_eq!(snap.histogram("core.phase.synthesize_ns").unwrap().count, 2);
    }

    #[test]
    fn a_click_runs_the_program_once() {
        let sink = clx_telemetry::InMemorySink::shared();
        let session = ClxSession::new(phone_data())
            .attach_telemetry(Arc::clone(&sink) as Arc<dyn MetricSink>)
            .label(tokenize("734-422-8073"))
            .unwrap();
        let report = session.apply().unwrap();
        session.result_patterns().unwrap();
        let snap = sink.snapshot();
        assert_eq!(snap.histogram("core.phase.apply_ns").unwrap().count, 1);
        // `reverify` runs afresh and leaves the held report alone.
        let reverified = session.reverify(&report).unwrap();
        assert_eq!(reverified.values(), report.values());
        session.apply().unwrap();
        let snap = sink.snapshot();
        assert_eq!(snap.histogram("core.phase.apply_ns").unwrap().count, 1);
    }

    #[test]
    fn result_patterns_do_not_depend_on_call_order() {
        let target = tokenize("734-422-8073");
        let first = labelled(phone_data(), target.clone());
        let patterns_first = first.result_patterns().unwrap();
        let report_after = first.apply().unwrap();
        let second = labelled(phone_data(), target);
        let report_first = second.apply().unwrap();
        assert_eq!(second.result_patterns().unwrap(), patterns_first);
        assert_eq!(report_after.values(), report_first.values());
    }

    #[test]
    fn repair_never_serves_a_stale_report() {
        let data = vec![
            "12/11/2017".to_string(),
            "03/04/2018".to_string(),
            "11-12-2017".to_string(),
        ];
        let target = tokenize("11-12-2017");
        let source = parse_pattern("<D>2'/'<D>2'/'<D>4").unwrap();
        let mut held = labelled(data.clone(), target.clone());
        let alternatives = held.alternatives(&source).unwrap().len();
        assert!(alternatives >= 2);
        // Fill the held report, then repair through every alternative.
        held.result_patterns().unwrap();
        held.apply().unwrap();
        for choice in 1..alternatives {
            assert!(held.repair(&source, choice));
            let mut fresh = labelled(data.clone(), target.clone());
            assert!(fresh.repair(&source, choice));
            assert_eq!(held.result_patterns(), fresh.result_patterns());
            assert_eq!(
                held.apply().unwrap().values(),
                fresh.apply().unwrap().values(),
                "choice {choice}"
            );
        }
    }
}
