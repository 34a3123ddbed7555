//! # clx
//!
//! A from-scratch, open-source implementation of **CLX** — the
//! *Cluster–Label–Transform* paradigm for verifiable programming-by-example
//! data transformation (Jin et al., *CLX: Towards verifiable PBE data
//! transformation*).
//!
//! This facade crate re-exports the whole workspace so a downstream user can
//! depend on `clx` alone:
//!
//! * [`ClxSession`] — the end-to-end engine, with the protocol in its
//!   types: a [`ClxSession<Clustered>`](ClxSession) clusters a messy column
//!   into pattern clusters; labelling *consumes* it and returns a
//!   [`ClxSession<Labelled>`](ClxSession), the only type carrying the
//!   transform-phase methods (synthesize, explain as `Replace` operations,
//!   repair, apply). Phase misuse is a compile error, not a runtime check
//!   ([`core`]).
//! * [`engine`] — the compiled batch-execution subsystem:
//!   [`ClxSession::compile`](clx_core::ClxSession::compile) turns the
//!   synthesized program into a thread-safe [`CompiledProgram`] for
//!   parallel block execution; [`ColumnStream`] streams columns larger
//!   than memory through it, optionally within a [`StreamBudget`]. One
//!   report type serves every entry point — the session's `apply` and
//!   `reverify`, and the engine's `execute` and `execute_column` all return
//!   a columnar [`TransformReport`]: one outcome per *distinct* value plus
//!   a shared row map — O(distinct), never per-duplicate clones. After a
//!   repair,
//!   [`ClxSession::reverify`](clx_core::ClxSession::reverify) re-runs the
//!   session's held program over the column, row for row a fresh `apply`;
//!   [`ColumnStream::swap_program`](clx_engine::ColumnStream::swap_program)
//!   swaps a live stream's program, re-deciding only the distincts whose
//!   leaf's dispatch plan the change can affect;
//! * [`column`](mod@column) — the shared column data plane: interned,
//!   deduplicated rows with cached leaves and token slices ([`Column`])
//!   that profiler, synthesizer, session and engine all read instead of
//!   re-tokenizing;
//! * [`pattern`] — the token/pattern language and tokenizer;
//! * [`regex`] — the Pike-VM regular-expression engine that executes the
//!   explained `Replace` operations;
//! * [`cluster`] — pattern profiling and the cluster hierarchy;
//! * [`unifi`] — the UniFi DSL, its evaluator and the program explainer;
//! * [`analyze`] — static program diagnostics:
//!   [`ClxSession::analyze`](clx_core::ClxSession::analyze) proves
//!   language-level properties of the synthesized program (dead/shadowed
//!   branches, unsafe extracts, output conformance) before any row runs,
//!   returning a [`ProgramDiagnostics`] report with stable `CLX00x` codes;
//!   [`ClxSession::compile_strict`](clx_core::ClxSession::compile_strict)
//!   turns `Error` findings into compile rejections;
//! * [`synth`] — source validation, token alignment, MDL ranking and the
//!   Algorithm-2 synthesizer;
//! * [`flashfill`] — the FlashFill-style PBE baseline of the evaluation;
//! * [`baselines`] — simulated users, the Step metric and the user studies;
//! * [`datagen`] — seeded workload generators and the 47-task benchmark;
//! * [`telemetry`] — the zero-overhead-when-off metrics plane:
//!   [`MetricSink`] counters/gauges/latency histograms, [`InMemorySink`],
//!   [`Span`] guards and the [`TelemetrySnapshot`] JSON/Prometheus export.
//!   Attach with [`ClxSession::with_telemetry`](clx_core::ClxSession::with_telemetry)
//!   or [`ColumnStream::with_telemetry`](clx_engine::ColumnStream::with_telemetry).
//!
//! # Quickstart
//!
//! ```
//! use clx::ClxSession;
//!
//! let column = vec![
//!     "(734) 645-8397".to_string(),
//!     "(734)586-7252".to_string(),
//!     "734-422-8073".to_string(),
//!     "734.236.3466".to_string(),
//! ];
//!
//! // 1. Cluster: review the pattern list instead of the raw rows.
//! let session = ClxSession::new(column);
//! assert_eq!(session.patterns().len(), 4);
//!
//! // 2. Label: pick the desired pattern (here, by example). Labelling
//! //    consumes the clustered session and returns the labelled one — the
//! //    only type with `apply`, `explanation`, `repair`, `compile`, …
//! let session = session.label_by_example("734-422-8073").unwrap();
//!
//! // 3. Transform: the program is explained as Replace operations and
//! //    applied to the whole column (one decision per distinct value).
//! println!("{}", session.suggested_operations("column1").unwrap());
//! let report = session.apply().unwrap();
//! assert!(report.is_perfect());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use clx_analyze as analyze;
pub use clx_baselines as baselines;
pub use clx_cluster as cluster;
pub use clx_column as column;
pub use clx_core as core;
pub use clx_datagen as datagen;
pub use clx_engine as engine;
pub use clx_flashfill as flashfill;
pub use clx_pattern as pattern;
pub use clx_regex as regex;
pub use clx_synth as synth;
pub use clx_telemetry as telemetry;
pub use clx_unifi as unifi;

pub use clx_analyze::{
    analyze_program, BranchFacts, Diagnostic, DiagnosticCode, Evidence, ProgramDiagnostics,
    Severity,
};
pub use clx_column::{
    Column, ColumnBuilder, ColumnChunk, ColumnInterner, InternerStats, StreamBudget,
};
pub use clx_core::{
    Clustered, ClxError, ClxOptions, ClxSession, LabelError, Labelled, RowOutcome, TransformReport,
};
pub use clx_engine::{ColumnStream, CompiledProgram, DispatchStats, StreamSummary, SwapSummary};
pub use clx_pattern::{parse_pattern, tokenize, Pattern, Token, TokenClass};
pub use clx_synth::{validate_report, ValidationReport};
pub use clx_telemetry::{InMemorySink, MetricSink, NoopSink, Span, TelemetrySnapshot};
pub use clx_unifi::{Explanation, Program, ReplaceOp};
