//! # clx-engine
//!
//! A compiled, parallel batch-transformation subsystem for CLX.
//!
//! The interactive `ClxSession` (in `clx-core`) drives the paper's
//! Cluster–Label–Transform loop; every transform it runs — its own
//! `apply`, its re-verification, and the bulk and streaming entry points
//! below — goes through this crate's one execution path into this
//! crate's one column report, [`TransformReport`], with the UniFi
//! interpreter kept as the test oracle:
//!
//! * [`CompiledProgram::compile`] turns a UniFi [`Program`](clx_unifi::Program)
//!   plus its labelled target pattern into an immutable, `Send + Sync`
//!   executable: branch `Extract` bounds are validated up front, and a
//!   transparency analysis marks the patterns whose match relation is a
//!   function of a row's token-class signature; the remaining (opaque)
//!   patterns are matched per row with [`Pattern::split`](clx_pattern::Pattern::split),
//!   the interpreter's own matcher;
//! * execution dispatches rows by that signature — each distinct leaf
//!   pattern is decided once (which branch fires and where its tokens sit)
//!   and every further row with the same signature is rewritten with a few
//!   slice copies, skipping full pattern matching entirely;
//! * first-sight decisions themselves are fused: compilation builds one
//!   bit-parallel decision automaton over the target plus every
//!   transparent branch pattern (see the `fused` module), so classifying a
//!   *new* leaf is a single pass over its tokens instead of up to k+1
//!   per-branch matcher runs — with a recorded, behavior-identical
//!   fallback ([`CompiledProgram::fused_fallback`]) when a program cannot
//!   be encoded, and [`CompiledProgram::decide`] exposing the decision
//!   directly.
//!
//! Every entry point funnels through one execution path: values are
//! interned through a [`ColumnInterner`](clx_column::ColumnInterner) (or
//! come pre-interned in a [`Column`](clx_column::Column)), each *distinct*
//! value is decided once, and dispatch is an integer leaf-id array index:
//!
//! * [`CompiledProgram::execute`] runs raw `&[S]` rows in contiguous
//!   blocks over `std::thread::scope` workers, each block interned and
//!   decided on its own into a report of its own, and merges the block
//!   reports in row order ([`TransformReport::from_chunks`]);
//! * [`ColumnStream`] (then [`ColumnStream::push_rows`] /
//!   [`ColumnStream::finish`]) processes columns larger than memory:
//!   chunks are interned through one persistent interner, so a distinct
//!   value is tokenized and decided once per *stream*, each pushed chunk
//!   returns its rows as a [`TransformReport`], and an optional
//!   [`StreamBudget`](clx_column::StreamBudget) bounds the retained state;
//! * [`CompiledProgram::execute_column`] executes a `clx-column`
//!   [`Column`](clx_column::Column) through its cached leaf signatures —
//!   no row of a session column is ever tokenized twice;
//! * [`ColumnStream::swap_program`] keeps, after a program change, every
//!   cached dispatch plan a diff of the two programs proves, in O(cached
//!   plans); only the values decided by the other plans re-decide, lazily.
//!
//! The executor's semantics are exactly those of the sequential path: rows
//! already matching the target conform, the first matching branch rewrites,
//! everything else is left unchanged and flagged (§6.1 of the paper).
//!
//! ```
//! use clx_engine::CompiledProgram;
//! use clx_pattern::tokenize;
//! use clx_unifi::{Branch, Expr, Program, StringExpr};
//!
//! // dd/dd/dddd -> dd-dd-dddd
//! let program = Program::new(vec![Branch::new(
//!     tokenize("12/11/2017"),
//!     Expr::concat(vec![
//!         StringExpr::extract(1),
//!         StringExpr::const_str("-"),
//!         StringExpr::extract(3),
//!         StringExpr::const_str("-"),
//!         StringExpr::extract(5),
//!     ]),
//! )]);
//! let compiled = CompiledProgram::compile(&program, &tokenize("12-11-2017")).unwrap();
//!
//! let column: Vec<String> = vec![
//!     "12/11/2017".into(),
//!     "03-04-2018".into(),
//!     "unknown".into(),
//! ];
//! let report = compiled.execute(&column);
//! assert_eq!(report.values(), vec!["12-11-2017", "03-04-2018", "unknown"]);
//! assert_eq!(report.transformed_count(), 1);
//! assert_eq!(report.conforming_count(), 1);
//! assert_eq!(report.flagged_values(), vec!["unknown"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod column_exec;
mod compiled;
mod delta;
mod dispatch;
mod error;
mod fused;
mod parallel;
mod report;
mod stream;

pub use compiled::{CompiledBranch, CompiledProgram, Decision, FusedStats};
pub use dispatch::{DispatchCache, DispatchStats};
pub use error::CompileError;
pub use fused::{FusedFallback, FUSED_MAX_WIDTH};
pub use report::{ChunkStats, RowOutcome, RowOutcomes, TransformReport};
pub use stream::{ColumnStream, StreamSummary, SwapSummary};

/// The former name of a pushed chunk's report, now a [`TransformReport`].
/// Kept only for the repository benchmark (`perfbench/`), which names it,
/// until the next change to the benchmark; new code names
/// [`TransformReport`].
pub type ChunkReport = TransformReport;
