//! Compilation of a UniFi [`Program`] into an immutable, thread-safe
//! executable form.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use clx_pattern::automaton::{ClassifyRun, MultiPatternAutomaton};
use clx_pattern::{tokenize, Pattern};
use clx_telemetry::{MetricSink, Span};
use clx_unifi::{eval_expr, Branch, Expr, Program, StringExpr};

use crate::dispatch::{DispatchCache, LeafPlan, SplitPlan, Step};
use crate::error::CompileError;
use crate::fused::FusedFallback;
use crate::report::RowOutcome;

/// One compiled branch: the source pattern, its plan, and whether its
/// match is decided by a row's leaf signature alone.
#[derive(Debug)]
pub struct CompiledBranch {
    pattern: Pattern,
    expr: Expr,
    transparent: bool,
}

impl CompiledBranch {
    /// The branch's source pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The branch's atomic transformation plan.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// `true` when matching this branch is decidable from a row's leaf
    /// pattern alone (see the `dispatch` module docs).
    pub fn is_transparent(&self) -> bool {
        self.transparent
    }
}

/// A labelled UniFi program compiled for high-throughput batch execution.
///
/// Compilation performs, once:
///
/// * static validation of every branch's `Extract` bounds (an ill-formed
///   program is rejected before any data is touched, instead of erroring
///   midway through row N of the sequential path);
/// * the transparency analysis enabling leaf-signature dispatch;
/// * the fused decision automaton over the transparent patterns.
///
/// Opaque patterns are matched per row by [`Pattern::split`], the same
/// iterative matcher the interpreter runs.
///
/// The result is immutable and `Send + Sync`: one `CompiledProgram` serves
/// any number of executor threads (and callers) concurrently. Execution
/// semantics are exactly those of the sequential session path: rows already
/// matching the target are conforming, otherwise the first matching branch
/// rewrites the row, otherwise the row is flagged unchanged (§6.1).
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) target: Pattern,
    target_transparent: bool,
    branches: Vec<CompiledBranch>,
    /// Process-unique id of this compilation; [`crate::DispatchCache`]s
    /// bind to it, so a cached plan can never be replayed against another
    /// program.
    instance: u64,
    /// The fused multi-pattern decision automaton (see the `fused` module
    /// docs) over the slots `[target, branch 0, branch 1, …]`, an opaque
    /// pattern's slot left empty: one pass over a new leaf signature
    /// decides every transparent pattern at once, instead of up to k+1
    /// per-branch matcher runs. Branch `i` is segment `i + 1`. `None` when
    /// construction fell back ([`CompiledProgram::fused_fallback`]).
    fused: Option<MultiPatternAutomaton>,
    /// Why `fused` is `None`, when it is.
    fused_fallback: Option<FusedFallback>,
    /// Cold-path decision tallies (relaxed atomics: the program is shared
    /// across executor threads; plan builds are per distinct leaf, so the
    /// increment never sits on the per-row path).
    tallies: FusedTallies,
    /// Per branch, whether the static analyzer finds it reachable; filled
    /// by the first [`CompiledProgram::branch_reachable`] (a program swap),
    /// so compiling never runs the analyzer.
    reachable: OnceLock<Vec<bool>>,
}

/// The decision class of one value under a [`CompiledProgram`] — the §6.1
/// outcome without the rewritten string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The value already matches the target pattern.
    Conforming,
    /// The branch at this index rewrites the value (first match wins).
    Branch(usize),
    /// No branch applies: the value is left unchanged and flagged.
    Flagged,
}

/// Lifetime tallies of cold-path (plan-building) decisions, split by which
/// machinery answered. Read via [`CompiledProgram::fused_stats`];
/// [`crate::ColumnStream`] publishes the deltas as `engine.fused.*`
/// counters at chunk boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Cold decisions answered by the fused automaton in one leaf pass.
    pub fused_decisions: u64,
    /// Cold decisions that ran the per-branch matching loop — every
    /// decision of a fallback program, a non-leaf signature handed to a
    /// fused one, or a leaf whose winning branch's boundaries the
    /// automaton could not reconstruct (a defensive arm, never reached for
    /// tokenizer leaves).
    pub per_branch_decisions: u64,
    /// Fused branch decisions whose split boundaries were derived from the
    /// automaton's accepting path — first sight stayed single-pass, no
    /// `Pattern::split` ran.
    pub split_derived: u64,
}

#[derive(Debug, Default)]
struct FusedTallies {
    fused: AtomicU64,
    per_branch: AtomicU64,
    split_derived: AtomicU64,
}

/// Source of [`CompiledProgram::instance`] ids.
static NEXT_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// One compiled program is shared by every worker thread of the executor;
// keep that guarantee compiler-checked.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledProgram>();
};

impl CompiledProgram {
    /// Compile `program` for execution against `target`.
    pub fn compile(program: &Program, target: &Pattern) -> Result<Self, CompileError> {
        Self::compile_observed(program, target, None)
    }

    /// [`CompiledProgram::compile`] under an optional telemetry sink: the
    /// fused-automaton construction is timed as `engine.fused.build_ns`
    /// and a per-program fallback is counted as `engine.fused.fallbacks`.
    /// With `None` this never reads a clock.
    pub fn compile_observed(
        program: &Program,
        target: &Pattern,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> Result<Self, CompileError> {
        let mut branches = Vec::with_capacity(program.len());
        for (index, branch) in program.branches.iter().enumerate() {
            branch
                .validate()
                .map_err(|source| CompileError::InvalidBranch { index, source })?;
            branches.push(CompiledBranch {
                pattern: branch.pattern.clone(),
                expr: branch.expr.clone(),
                transparent: is_transparent(&branch.pattern),
            });
        }
        let target_transparent = is_transparent(target);
        let fused = {
            let _span = Span::start(telemetry, "engine.fused.build_ns");
            let slots: Vec<Option<&Pattern>> =
                std::iter::once(target_transparent.then_some(target))
                    .chain(branches.iter().map(|b| b.transparent.then_some(&b.pattern)))
                    .collect();
            if slots.iter().all(Option::is_none) {
                Err(FusedFallback::NothingTransparent)
            } else {
                MultiPatternAutomaton::build(&slots).map_err(|overflow| {
                    FusedFallback::WidthExceeded {
                        required: overflow.required,
                    }
                })
            }
        };
        let fused_fallback = fused.as_ref().err().copied();
        if fused_fallback.is_some() {
            if let Some(sink) = telemetry {
                sink.counter("engine.fused.fallbacks", 1);
            }
        }
        Ok(CompiledProgram {
            target: target.clone(),
            target_transparent,
            branches,
            instance: NEXT_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            fused: fused.ok(),
            fused_fallback,
            tallies: FusedTallies::default(),
            reachable: OnceLock::new(),
        })
    }

    /// [`CompiledProgram::compile_observed`] plus a strict static-analysis
    /// gate: the program is analyzed (`clx-analyze`) and rejected with
    /// [`CompileError::RejectedByAnalysis`] when any `Error`-severity
    /// diagnostic is found (a proven-dead or shadowed branch, or an
    /// `Extract` that errors on every matching row). Warnings never
    /// reject. The default entry points only *record* diagnostics — this
    /// is the opt-in described in the README's "Static program
    /// diagnostics" section.
    pub fn compile_strict(
        program: &Program,
        target: &Pattern,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> Result<Self, CompileError> {
        let report = clx_analyze::analyze_observed(program, target, telemetry);
        if report.has_errors() {
            return Err(CompileError::RejectedByAnalysis {
                findings: report.errors().map(|d| d.to_string()).collect(),
            });
        }
        Self::compile_observed(program, target, telemetry)
    }

    /// This compilation with fused dispatch turned off: every cold-path
    /// decision runs the per-branch matching loop, with behavior
    /// guaranteed identical (the property suite locks this). For
    /// benchmarking and differential testing of the two cold paths.
    pub fn without_fused(mut self) -> Self {
        if self.fused.take().is_some() {
            self.fused_fallback = Some(FusedFallback::Disabled);
        }
        self
    }

    /// `true` when cold-path decisions go through the fused automaton.
    pub fn fused_active(&self) -> bool {
        self.fused.is_some()
    }

    /// Why this program has no fused automaton (`None` when it has one).
    pub fn fused_fallback(&self) -> Option<FusedFallback> {
        self.fused_fallback
    }

    /// One consistent read of the cold-path decision tallies.
    pub fn fused_stats(&self) -> FusedStats {
        FusedStats {
            fused_decisions: self.tallies.fused.load(Ordering::Relaxed),
            per_branch_decisions: self.tallies.per_branch.load(Ordering::Relaxed),
            split_derived: self.tallies.split_derived.load(Ordering::Relaxed),
        }
    }

    /// The decision class of `value` — conforming, which branch rewrites
    /// it, or flagged.
    ///
    /// Consults the fused automaton first: one pass over the value's leaf
    /// signature decides every transparent pattern at once. Opaque
    /// patterns are checked per value exactly as in execution, and a
    /// fallback program ([`CompiledProgram::fused_fallback`]) walks the
    /// per-branch loop — the decision is identical either way, and
    /// consistent with the outcome [`CompiledProgram::execute`] reports.
    pub fn decide(&self, value: &str) -> Decision {
        let plan = self.build_plan_observed(&tokenize(value), value, None);
        self.run_plan(&plan, value, &mut String::new())
    }

    /// The target pattern this program was compiled against.
    pub fn target(&self) -> &Pattern {
        &self.target
    }

    /// The compiled branches, in dispatch order.
    pub fn branches(&self) -> &[CompiledBranch] {
        &self.branches
    }

    /// Per branch, whether `clx-analyze` finds it reachable (not proven
    /// dead or shadowed). Analyzed on the first call, then read from the
    /// program: a stream swapping between the same programs analyzes each
    /// once.
    pub(crate) fn branch_reachable(&self) -> &[bool] {
        self.reachable.get_or_init(|| {
            let source = Program::new(
                self.branches
                    .iter()
                    .map(|b| Branch::new(b.pattern.clone(), b.expr.clone()))
                    .collect(),
            );
            let diagnostics = clx_analyze::analyze_program(&source, &self.target);
            (0..self.branches.len())
                .map(|i| diagnostics.branch_facts(i).reachable)
                .collect()
        })
    }

    /// The process-unique instance id of this compilation (distinct even
    /// for equal programs recompiled — it keys per-instance caches).
    pub(crate) fn instance(&self) -> u64 {
        self.instance
    }

    /// `true` when the target and every branch admit leaf-signature
    /// dispatch, i.e. steady-state execution never runs a full pattern
    /// match.
    pub fn is_fully_transparent(&self) -> bool {
        self.target_transparent && self.branches.iter().all(|b| b.transparent)
    }

    /// Transform one row, dispatching by the dense integer `leaf_id` a
    /// [`clx_column::ColumnInterner`] assigned to its leaf pattern `leaf`:
    /// the plan lookup in `cache` is an array index, no `Pattern` is
    /// hashed or compared on the hit path, and the leaf is only read when
    /// a plan is decided for the first time.
    ///
    /// `source` names the id space `leaf_id` belongs to (the interner's
    /// instance id — [`clx_column::Column::interner_id`] for columns) and
    /// `source_generation` that interner's
    /// [`leaf_generation`](clx_column::ColumnInterner::leaf_generation)
    /// (`0` for columns, which never free a leaf-id). The cache resets
    /// when handed ids from a different space *or* a different generation
    /// — a bounded interner recycles a leaf-id once eviction frees it — so
    /// a stale plan can never be replayed under an aliased id. `leaf` must
    /// be exactly `tokenize(value)`: the leaf-signature dispatch (see the
    /// `dispatch` module docs) is only sound for leaves produced by the
    /// same tokenizer rules.
    ///
    /// Under a telemetry sink a first-sight decision times its fused
    /// classify as `engine.fused.decide_ns`. With `None` (and on every plan
    /// replay) no clock is read.
    ///
    /// Every executor builds its outcomes here, with one allocation per
    /// decided value: a rewrite is assembled in the cache's reusable
    /// buffer and copied once into the outcome's shared text.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transform_one_by_leaf_id_observed(
        &self,
        cache: &mut DispatchCache,
        source: u64,
        source_generation: u64,
        leaf_id: u32,
        value: &str,
        leaf: &Pattern,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> RowOutcome {
        debug_assert_eq!(leaf, &tokenize(value), "leaf must be the value's own");
        let plan =
            cache.plan_for_leaf_id(self.instance, source, source_generation, leaf_id, || {
                self.build_plan_observed(leaf, value, telemetry)
            });
        let rewrite = &mut cache.rewrite;
        match self.run_plan(&plan, value, rewrite) {
            Decision::Branch(_) => RowOutcome::Transformed {
                to: Arc::from(rewrite.as_str()),
            },
            Decision::Conforming => RowOutcome::Conforming {
                value: Arc::from(value),
            },
            Decision::Flagged => RowOutcome::Flagged {
                value: Arc::from(value),
            },
        }
    }

    /// Replay one leaf's decision sequence against a concrete row. When a
    /// branch fires, the rewritten row is left in `out` (cleared first).
    fn run_plan(&self, plan: &LeafPlan, value: &str, out: &mut String) -> Decision {
        out.clear();
        for step in &plan.steps {
            match step {
                Step::Conforming => return Decision::Conforming,
                Step::Apply { branch, split } => {
                    apply_split(&self.branches[*branch].expr, split, value, out);
                    return Decision::Branch(*branch);
                }
                Step::CheckTarget => {
                    if self.target.matches(value) {
                        return Decision::Conforming;
                    }
                }
                Step::CheckBranch { branch } => {
                    // The interpreter's own evaluator: one split decides
                    // the match and yields the slices, so the two paths
                    // cannot drift.
                    let b = &self.branches[*branch];
                    if let Ok(rewritten) = eval_expr(&b.expr, &b.pattern, value) {
                        out.push_str(&rewritten);
                        return Decision::Branch(*branch);
                    }
                }
            }
        }
        Decision::Flagged
    }

    /// Build the decision plan for one leaf; `value` is a representative
    /// row with that leaf (used to precompute split boundaries). Routes
    /// through the fused automaton when the program has one: a single pass
    /// over the leaf's tokens decides every transparent pattern *and*
    /// records the frontier journal from which the winning branch's split
    /// boundaries are reconstructed — first sight never re-runs
    /// `Pattern::split` on the fused path. Falls back to the per-branch
    /// loop, for the whole leaf, for fallback programs, for non-leaf
    /// signatures and if a reconstruction ever declined.
    pub(crate) fn build_plan_observed(
        &self,
        leaf: &Pattern,
        value: &str,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> LeafPlan {
        if let Some(fused) = &self.fused {
            let run = {
                let _span = Span::start(telemetry, "engine.fused.decide_ns");
                fused.classify_recorded(leaf)
            };
            if let Some(plan) = run.and_then(|run| self.build_plan_fused(fused, &run, telemetry)) {
                self.tallies.fused.fetch_add(1, Ordering::Relaxed);
                #[cfg(debug_assertions)]
                if let Some(Step::Apply { branch, split }) = plan.steps.last() {
                    let slices = self.branches[*branch]
                        .pattern
                        .split(value)
                        .expect("fused automaton proved the branch matches");
                    debug_assert_eq!(
                        split.ranges,
                        char_ranges(value, &slices),
                        "derived boundaries diverge from Pattern::split on {value:?}"
                    );
                }
                return plan;
            }
        }
        self.tallies.per_branch.fetch_add(1, Ordering::Relaxed);
        self.build_plan_per_branch(leaf, value)
    }

    /// Turn one fused classification into a plan, preserving the §6.1
    /// step order exactly: transparent target match → `Conforming`; opaque
    /// patterns keep per-row `Check*` steps in dispatch order; the first
    /// matching transparent branch becomes the `Apply` step. `None` when
    /// the winning branch's boundaries cannot be reconstructed from the
    /// accepting path — unreachable for tokenizer leaves (see
    /// [`MultiPatternAutomaton::split_boundaries`]); the caller then
    /// decides the whole leaf on the per-branch loop.
    fn build_plan_fused(
        &self,
        fused: &MultiPatternAutomaton,
        run: &ClassifyRun,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> Option<LeafPlan> {
        let mut steps = Vec::new();
        if self.target_transparent {
            if fused.matches(run.matches(), 0) {
                steps.push(Step::Conforming);
                return Some(LeafPlan { steps });
            }
        } else {
            steps.push(Step::CheckTarget);
        }
        for (index, branch) in self.branches.iter().enumerate() {
            if !branch.transparent {
                steps.push(Step::CheckBranch { branch: index });
                continue;
            }
            if !fused.matches(run.matches(), index + 1) {
                continue;
            }
            // The winning branch's token boundaries come straight from the
            // accepting path — the classification pass the automaton just
            // ran — so first sight is one pass over the tokens, no second
            // `Pattern::split` match.
            let ranges = {
                let _span = Span::start(telemetry, "engine.fused.split_ns");
                fused.split_boundaries(run, index + 1)?
            };
            self.tallies.split_derived.fetch_add(1, Ordering::Relaxed);
            steps.push(Step::Apply {
                branch: index,
                split: Arc::new(SplitPlan { ranges }),
            });
            return Some(LeafPlan { steps });
        }
        Some(LeafPlan { steps })
    }

    /// The pre-fused cold path: walk the branches, one `Pattern::split`
    /// each until one fires. Kept as the recorded per-program
    /// fallback ([`CompiledProgram::fused_fallback`]) and as the per-leaf
    /// fallback of a fused program.
    fn build_plan_per_branch(&self, leaf: &Pattern, value: &str) -> LeafPlan {
        let mut steps = Vec::new();
        if self.target_transparent {
            if self.target.matches(value) {
                steps.push(Step::Conforming);
                return LeafPlan { steps };
            }
        } else {
            steps.push(Step::CheckTarget);
        }
        for (index, branch) in self.branches.iter().enumerate() {
            if !branch.transparent {
                steps.push(Step::CheckBranch { branch: index });
                continue;
            }
            // Cheap structural pre-filter before the split.
            if leaf.min_string_len() < branch.pattern.min_string_len() {
                continue;
            }
            if let Ok(slices) = branch.pattern.split(value) {
                steps.push(Step::Apply {
                    branch: index,
                    split: Arc::new(SplitPlan {
                        ranges: char_ranges(value, &slices),
                    }),
                });
                return LeafPlan { steps };
            }
        }
        LeafPlan { steps }
    }
}

/// A pattern is transparent when its literal tokens contain no ASCII
/// alphanumerics, making its match relation a function of the leaf pattern
/// (see the `dispatch` module docs for the argument).
fn is_transparent(pattern: &Pattern) -> bool {
    pattern.iter().all(|t| match t.literal_value() {
        Some(s) => s.chars().all(|c| !c.is_ascii_alphanumeric()),
        None => true,
    })
}

/// Convert the byte-offset slices of `Pattern::split` into character ranges
/// reusable across every value with the same leaf.
fn char_ranges(value: &str, slices: &[clx_pattern::TokenSlice]) -> Vec<(usize, usize)> {
    // byte offset -> char index, built in one pass.
    let mut char_of_byte = vec![0usize; value.len() + 1];
    for (chars, (byte, _)) in value.char_indices().enumerate() {
        char_of_byte[byte] = chars;
    }
    char_of_byte[value.len()] = value.chars().count();
    slices
        .iter()
        .map(|s| (char_of_byte[s.start], char_of_byte[s.end]))
        .collect()
}

/// Rewrite `value` through `expr` using precomputed token boundaries,
/// appending the result to `out`.
fn apply_split(expr: &Expr, split: &SplitPlan, value: &str, out: &mut String) {
    if value.is_ascii() {
        // Char ranges are byte ranges: pure slice copies.
        for part in &expr.parts {
            match part {
                StringExpr::ConstStr(s) => out.push_str(s),
                StringExpr::Extract { from, to } => {
                    let start = split.ranges[from - 1].0;
                    let end = split.ranges[to - 1].1;
                    out.push_str(&value[start..end]);
                }
            }
        }
        return;
    }
    let byte_offsets: Vec<usize> = value
        .char_indices()
        .map(|(b, _)| b)
        .chain(std::iter::once(value.len()))
        .collect();
    for part in &expr.parts {
        match part {
            StringExpr::ConstStr(s) => out.push_str(s),
            StringExpr::Extract { from, to } => {
                let start = byte_offsets[split.ranges[from - 1].0];
                let end = byte_offsets[split.ranges[to - 1].1];
                out.push_str(&value[start..end]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::FUSED_MAX_WIDTH;
    use clx_column::ColumnInterner;
    use clx_pattern::{parse_pattern, Token};
    use clx_unifi::{transform, Branch};

    /// A dispatch cache plus the interner whose leaf-ids index it: runs
    /// single values through the engine's leaf-id dispatch.
    struct Dispatch {
        cache: DispatchCache,
        interner: ColumnInterner,
    }

    impl Dispatch {
        fn new() -> Self {
            Dispatch {
                cache: DispatchCache::new(),
                interner: ColumnInterner::new(),
            }
        }

        fn run(&mut self, compiled: &CompiledProgram, value: &str) -> RowOutcome {
            let id = self.interner.intern(value);
            let interner = &self.interner;
            compiled.transform_one_by_leaf_id_observed(
                &mut self.cache,
                interner.instance(),
                interner.leaf_generation(),
                interner.leaf_id(id),
                interner.value(id),
                interner.leaf(id),
                None,
            )
        }

        /// Leaves with a decided plan.
        fn plans(&self) -> usize {
            self.cache.dense_len()
        }
    }

    /// The Figure 4 phone program: three source formats normalized to
    /// `(ddd) ddd-dddd`.
    fn phone_program() -> Program {
        Program::new(vec![
            Branch::new(
                tokenize("734-422-8073"),
                Expr::concat(vec![
                    StringExpr::const_str("("),
                    StringExpr::extract(1),
                    StringExpr::const_str(") "),
                    StringExpr::extract(3),
                    StringExpr::const_str("-"),
                    StringExpr::extract(5),
                ]),
            ),
            Branch::new(
                tokenize("(734)586-7252"),
                Expr::concat(vec![
                    StringExpr::const_str("("),
                    StringExpr::extract(2),
                    StringExpr::const_str(") "),
                    StringExpr::extract(4),
                    StringExpr::const_str("-"),
                    StringExpr::extract(6),
                ]),
            ),
        ])
    }

    fn phone_target() -> Pattern {
        tokenize("(734) 645-8397")
    }

    #[test]
    fn compiled_matches_sequential_transform() {
        let program = phone_program();
        let compiled = CompiledProgram::compile(&program, &phone_target()).unwrap();
        let mut cache = Dispatch::new();
        let inputs = [
            "734-422-8073",
            "(734)586-7252",
            "555-111-2222",
            "(734) 645-8397",
            "N/A",
            "",
        ];
        for input in inputs {
            let got = cache.run(&compiled, input);
            if phone_target().matches(input) {
                assert!(got.is_conforming(), "{input:?} -> {got:?}");
            } else {
                let want = transform(&program, input).unwrap();
                assert_eq!(got.value(), want.value(), "on {input:?}");
                assert_eq!(got.is_flagged(), want.is_flagged(), "on {input:?}");
            }
        }
    }

    #[test]
    fn dispatch_cache_replays_decisions() {
        let compiled = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        let mut cache = Dispatch::new();
        for n in 0..50 {
            let row = format!("{:03}-{:03}-{:04}", 100 + n, 200 + n, 3000 + n);
            let out = cache.run(&compiled, &row);
            assert!(out.is_transformed(), "{row} -> {out:?}");
        }
        // 50 rows, one leaf: one plan.
        assert_eq!(cache.plans(), 1);
    }

    #[test]
    fn dispatch_cache_rebinds_across_programs() {
        // Program A has two branches, program B one; a cache populated by A
        // must not replay A's plans (branch indices!) when handed to B.
        let a = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        let b_program = Program::new(vec![Branch::new(
            tokenize("734-422-8073"),
            Expr::concat(vec![StringExpr::extract(5)]),
        )]);
        let b = CompiledProgram::compile(&b_program, &tokenize("9999")).unwrap();

        let mut cache = Dispatch::new();
        assert_eq!(cache.plans(), 0);
        let via_a = cache.run(&a, "555-111-2222");
        assert_eq!(via_a.value(), "(555) 111-2222");
        // Same leaf, different program: the cache resets and re-decides.
        let via_b = cache.run(&b, "555-111-2222");
        assert_eq!(via_b.value(), "2222");
        // And back again.
        let via_a = cache.run(&a, "555-111-2222");
        assert_eq!(via_a.value(), "(555) 111-2222");
    }

    #[test]
    fn strict_compile_rejects_error_diagnostics_default_records_only() {
        // Branch 1 (<D>2) is shadowed by branch 0 (<D>+): an
        // Error-severity CLX002 finding.
        let program = Program::new(vec![
            Branch::new(
                clx_pattern::parse_pattern("<D>+").unwrap(),
                Expr::concat(vec![StringExpr::const_str("000")]),
            ),
            Branch::new(
                clx_pattern::parse_pattern("<D>2").unwrap(),
                Expr::concat(vec![StringExpr::const_str("000")]),
            ),
        ]);
        let target = tokenize("123");

        // Default compilation only records diagnostics; it still accepts.
        assert!(CompiledProgram::compile(&program, &target).is_ok());

        // Strict compilation rejects, naming the finding.
        let err = CompiledProgram::compile_strict(&program, &target, None).unwrap_err();
        let CompileError::RejectedByAnalysis { findings } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("CLX002"), "{findings:?}");
        assert!(err.to_string().contains("static analysis rejected"));

        // A warnings-only program passes strict compilation.
        let warn_only = Program::new(vec![Branch::new(
            clx_pattern::parse_pattern("<D>3").unwrap(),
            Expr::concat(vec![StringExpr::extract(1)]),
        )]);
        let strict = CompiledProgram::compile_strict(
            &warn_only,
            &clx_pattern::parse_pattern("<D>+").unwrap(),
            None,
        );
        assert!(strict.is_ok());
    }

    #[test]
    fn transparency_analysis() {
        let compiled = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        assert!(compiled.is_fully_transparent());
        assert!(compiled.branches().iter().all(|b| b.is_transparent()));

        // 'CPT' carries alphanumerics: matching it cannot be decided from
        // the leaf.
        let opaque_pattern = Pattern::new(vec![
            Token::literal("CPT"),
            Token::base(clx_pattern::TokenClass::Digit, 3),
        ]);
        let program = Program::new(vec![Branch::new(
            opaque_pattern,
            Expr::concat(vec![StringExpr::extract(2)]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("123")).unwrap();
        assert!(!compiled.is_fully_transparent());
    }

    #[test]
    fn opaque_branches_distinguish_identical_leaves() {
        // "CPT123" and "XYZ123" share the leaf <U>3<D>3; only the former
        // matches the literal-'CPT' branch. The dispatch cache must not
        // conflate them.
        let opaque_pattern = Pattern::new(vec![
            Token::literal("CPT"),
            Token::base(clx_pattern::TokenClass::Digit, 3),
        ]);
        let program = Program::new(vec![Branch::new(
            opaque_pattern,
            Expr::concat(vec![
                StringExpr::const_str("["),
                StringExpr::extract(2),
                StringExpr::const_str("]"),
            ]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("[111]")).unwrap();
        let mut cache = Dispatch::new();
        let cpt = cache.run(&compiled, "CPT123");
        assert_eq!(cpt, RowOutcome::Transformed { to: "[123]".into() });
        let xyz = cache.run(&compiled, "XYZ123");
        assert_eq!(
            xyz,
            RowOutcome::Flagged {
                value: "XYZ123".into(),
            }
        );
        assert_eq!(cache.plans(), 1, "one shared leaf, decided per row");
    }

    #[test]
    fn opaque_target_checked_per_row() {
        // A literal-'N/A' target is opaque; conforming detection must not
        // leak to other values with the same leaf (<U>'/'<U>).
        let target = Pattern::new(vec![Token::literal("N/A")]);
        let compiled = CompiledProgram::compile(&Program::empty(), &target).unwrap();
        assert!(!compiled.is_fully_transparent());
        let mut cache = Dispatch::new();
        assert!(cache.run(&compiled, "N/A").is_conforming());
        assert!(cache.run(&compiled, "X/Y").is_flagged());
    }

    #[test]
    fn non_ascii_rows_transform_correctly() {
        // 'é' lives in a literal token; extraction must respect UTF-8
        // boundaries.
        let source = tokenize("é42");
        let program = Program::new(vec![Branch::new(
            source,
            Expr::concat(vec![StringExpr::extract(2), StringExpr::const_str("!")]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("9!")).unwrap();
        let mut cache = Dispatch::new();
        let out = cache.run(&compiled, "é42");
        assert_eq!(out.value(), "42!");
        let again = cache.run(&compiled, "é77");
        assert_eq!(again.value(), "77!");
    }

    #[test]
    fn invalid_extract_rejected_at_compile_time() {
        let program = Program::new(vec![Branch::new(
            tokenize("abc"),
            Expr::concat(vec![StringExpr::extract(9)]),
        )]);
        let err = CompiledProgram::compile(&program, &tokenize("x")).unwrap_err();
        assert!(matches!(err, CompileError::InvalidBranch { index: 0, .. }));
        assert!(err.to_string().contains("branch 0"));
    }

    #[test]
    fn plus_quantified_sources_use_fast_path() {
        let source = parse_pattern("<U>+'-'<D>+").unwrap();
        let program = Program::new(vec![Branch::new(
            source,
            Expr::concat(vec![
                StringExpr::const_str("["),
                StringExpr::extract_range(1, 3),
                StringExpr::const_str("]"),
            ]),
        )]);
        let compiled =
            CompiledProgram::compile(&program, &parse_pattern("'['<U>+'-'<D>+']'").unwrap())
                .unwrap();
        assert!(compiled.is_fully_transparent());
        let mut cache = Dispatch::new();
        assert_eq!(cache.run(&compiled, "CPT-00350").value(), "[CPT-00350]");
        assert_eq!(cache.run(&compiled, "AB-1").value(), "[AB-1]");
        assert!(cache.run(&compiled, "[CPT-00350]").is_conforming());
    }

    #[test]
    fn decide_agrees_with_and_without_fused() {
        let fused = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        assert!(fused.fused_active());
        assert!(fused.fused_fallback().is_none());
        let plain = CompiledProgram::compile(&phone_program(), &phone_target())
            .unwrap()
            .without_fused();
        assert!(!plain.fused_active());
        assert_eq!(plain.fused_fallback(), Some(FusedFallback::Disabled));

        let cases = [
            ("734-422-8073", Decision::Branch(0)),
            ("(734)586-7252", Decision::Branch(1)),
            ("(734) 645-8397", Decision::Conforming),
            ("N/A", Decision::Flagged),
            ("", Decision::Flagged),
        ];
        for (value, want) in cases {
            assert_eq!(fused.decide(value), want, "fused on {value:?}");
            assert_eq!(plain.decide(value), want, "per-branch on {value:?}");
        }
    }

    #[test]
    fn wide_program_falls_back_with_recorded_reason() {
        // A 300-position pattern cannot be encoded in the automaton's bit
        // budget; the per-branch path must take over with the reason kept.
        let wide = parse_pattern("<D>300").unwrap();
        let program = Program::new(vec![Branch::new(
            wide,
            Expr::concat(vec![StringExpr::extract(1)]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("123")).unwrap();
        assert!(!compiled.fused_active());
        assert!(matches!(
            compiled.fused_fallback(),
            Some(FusedFallback::WidthExceeded { required }) if required > FUSED_MAX_WIDTH
        ));
        // The fallback path still transforms correctly.
        let row = "7".repeat(300);
        let mut cache = Dispatch::new();
        assert_eq!(cache.run(&compiled, &row).value(), row);
        assert_eq!(compiled.decide(&row), Decision::Branch(0));
        let stats = compiled.fused_stats();
        assert_eq!(stats.fused_decisions, 0);
        assert!(stats.per_branch_decisions > 0);
    }

    #[test]
    fn opaque_only_program_falls_back_with_recorded_reason() {
        // Opaque target, no branches: nothing for the automaton to encode.
        let target = Pattern::new(vec![Token::literal("N/A")]);
        let compiled = CompiledProgram::compile(&Program::empty(), &target).unwrap();
        assert!(!compiled.fused_active());
        assert_eq!(
            compiled.fused_fallback(),
            Some(FusedFallback::NothingTransparent)
        );
        assert_eq!(compiled.decide("N/A"), Decision::Conforming);
        assert_eq!(compiled.decide("X/Y"), Decision::Flagged);
    }

    #[test]
    fn fused_stats_tally_cold_decisions() {
        let compiled = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        let mut cache = Dispatch::new();
        // Two distinct leaves, three rows: only first sight of each leaf
        // builds a plan, and the phone program's leaves are all fusable.
        for row in ["734-422-8073", "555-111-2222", "(734)586-7252"] {
            cache.run(&compiled, row);
        }
        let stats = compiled.fused_stats();
        assert_eq!(stats.fused_decisions, 2);
        assert_eq!(stats.per_branch_decisions, 0);

        let plain = CompiledProgram::compile(&phone_program(), &phone_target())
            .unwrap()
            .without_fused();
        let mut cache = Dispatch::new();
        cache.run(&plain, "734-422-8073");
        let stats = plain.fused_stats();
        assert_eq!(stats.fused_decisions, 0);
        assert_eq!(stats.per_branch_decisions, 1);
    }

    #[test]
    fn branch_decisions_derive_splits_from_the_accepting_path() {
        let derived = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        let per_branch = CompiledProgram::compile(&phone_program(), &phone_target())
            .unwrap()
            .without_fused();
        let mut derived_cache = Dispatch::new();
        let mut per_branch_cache = Dispatch::new();
        let rows = [
            "734-422-8073",
            "555-111-2222",
            "(734)586-7252",
            "(734) 645-8397",
            "N/A",
        ];
        for row in rows {
            assert_eq!(
                derived_cache.run(&derived, row),
                per_branch_cache.run(&per_branch, row),
                "derived and split boundaries must agree on {row:?}"
            );
        }
        // Three distinct branch-winning leaves were decided once each
        // ("734-..." and "555-..." share one); the conforming and flagged
        // leaves derive nothing.
        let stats = derived.fused_stats();
        assert_eq!(stats.split_derived, 2);
        assert_eq!(stats.per_branch_decisions, 0);
    }
}
