//! # clx-core
//!
//! The CLX engine: the *Cluster–Label–Transform* interaction paradigm of
//! *CLX: Towards verifiable PBE data transformation* (Jin et al.),
//! assembled from the lower-level crates — with the protocol itself encoded
//! in the session types:
//!
//! * **Cluster** — [`ClxSession::new`] profiles the raw column into a
//!   pattern-cluster hierarchy (`clx-cluster`), which is what the user
//!   reviews instead of raw rows (Figure 3 of the paper). The session is a
//!   [`ClxSession<Clustered>`]: only the clustering surface exists on it.
//! * **Label** — [`ClxSession::label`] (or
//!   [`ClxSession::label_by_example`]) *consumes* the clustered session and
//!   returns a [`ClxSession<Labelled>`] carrying the target pattern and the
//!   synthesized UniFi program (`clx-synth`).
//! * **Transform** — every transform-phase method ([`ClxSession::apply`],
//!   [`ClxSession::explanation`], [`ClxSession::repair`],
//!   [`ClxSession::compile`], …) exists **only** on the labelled session.
//!   Calling one before labelling is a compile error, not a runtime `Err` —
//!   the strongest form of the paper's verifiability protocol.
//!
//! Labelling (and every repair) compiles the selected program once, and
//! [`ClxSession::apply`] runs that [`CompiledProgram`] over the session's
//! column, producing a **columnar** [`TransformReport`]: one
//! [`RowOutcome`] per *distinct* value plus the column's shared row map, so
//! reporting is O(distinct) end to end on duplicate-heavy columns. The
//! report is `clx-engine`'s own: `apply`, [`ClxSession::reverify`],
//! [`CompiledProgram::execute`] and [`CompiledProgram::execute_column`] all
//! return the same type. For bulk execution beyond the interactive loop,
//! [`ClxSession::compile`] hands a fresh compilation to the `clx-engine`
//! batch subsystem (parallel block execution);
//! [`ClxSession::stream_columns`] opens a [`ColumnStream`] over it. After a
//! repair, [`ClxSession::reverify`] re-runs the held program over the
//! column, so what the user re-verifies is exactly what `apply` returns.
//!
//! ```
//! use clx_core::ClxSession;
//!
//! let data = vec![
//!     "(734) 645-8397".to_string(),
//!     "(734)586-7252".to_string(),
//!     "734-422-8073".to_string(),
//!     "734.236.3466".to_string(),
//!     "N/A".to_string(),
//! ];
//! let session = ClxSession::new(data);
//!
//! // The user reviews the pattern list and labels the desired pattern;
//! // labelling moves the session into the transform phase.
//! let session = session.label_by_example("734-422-8073").unwrap();
//!
//! // The inferred program is shown as Replace operations...
//! let ops = session.explanation().unwrap();
//! assert!(!ops.operations.is_empty());
//!
//! // ...and applied to the whole column.
//! let report = session.apply().unwrap();
//! assert_eq!(report.transformed_count(), 3);
//! assert_eq!(report.flagged_count(), 1); // "N/A"
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod preview;
mod session;

pub use preview::{PreviewRow, PreviewTable};
pub use session::{Clustered, ClxError, ClxOptions, ClxSession, LabelError, Labelled, Phase};

// Re-export the key types a downstream user needs so that `clx-core` (or the
// `clx` facade) is a one-stop dependency.
pub use clx_cluster::{ClusterNode, PatternHierarchy, PatternProfiler, ProfilerOptions};
pub use clx_column::{Column, ColumnBuilder, ColumnChunk, ColumnInterner, DistinctValue};
pub use clx_engine::{ColumnStream, CompiledProgram, RowOutcome, RowOutcomes, TransformReport};
pub use clx_pattern::{parse_pattern, tokenize, Pattern, Token, TokenClass};
pub use clx_synth::{RankedPlan, Synthesis, SynthesisOptions};
pub use clx_unifi::{Explanation, Program, ReplaceOp, TransformOutcome};
