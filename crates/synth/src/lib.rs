//! # clx-synth
//!
//! Program synthesis for CLX (Section 6 of *CLX: Towards verifiable PBE
//! data transformation*): given the pattern-cluster hierarchy produced by
//! `clx-cluster` and a user-labelled target pattern, synthesize a UniFi
//! program that transforms every transformable source pattern into the
//! target.
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. [`validate`] — token-frequency screening of candidate source patterns
//!    (Eq. 1–2);
//! 2. [`align`] — token alignment into a DAG of `Extract`/`ConstStr`
//!    operations (Algorithm 3), including sequential-extract combination;
//! 3. [`AlignmentDag::ranked_plans`] — one best-first search over that DAG
//!    that yields plans in Minimum-Description-Length rank order (Eq. 3–6)
//!    and keeps the first `top_k` equivalence classes (§6.4, Appendix B)
//!    ([`PlanSearch::top_classes`]). Each plan prefix carries an interned
//!    canonical-key id, so a class is one id; a prefix is dropped unqueued
//!    when an earlier one at the same node with the same key, no larger
//!    penalty, a subset of its extracted slots and a strictly smaller
//!    length dominates it, which never changes a class's best member. The
//!    search never enumerates the DAG's other paths;
//! 4. [`synthesize_column`] — the top-down hierarchy traversal of
//!    Algorithm 2 that puts it all together, checks every plan against the
//!    column's own values and supports the *program repair* interaction.
//!
//! ```
//! use clx_cluster::PatternProfiler;
//! use clx_column::Column;
//! use clx_pattern::tokenize;
//! use clx_synth::{synthesize_column, SynthesisOptions};
//! use clx_unifi::transform;
//!
//! let column = Column::from_values(&["(734) 645-8397", "734.236.3466", "734-422-8073"]);
//! let hierarchy = PatternProfiler::new().profile_column(&column);
//! let target = tokenize("734-422-8073");
//! let synthesis =
//!     synthesize_column(&hierarchy, &column, &target, &SynthesisOptions::default());
//! let program = synthesis.program();
//! assert_eq!(
//!     transform(&program, "(734) 645-8397").unwrap().value(),
//!     "734-645-8397",
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod align;
mod dedup;
mod mdl;
mod prune;
mod search;
mod synthesize;
mod validate;

pub use align::{align, syntactically_similar, AlignmentDag};
pub use dedup::plans_equivalent;
pub use mdl::{data_length, description_length, model_length, source_reuse_penalty};
pub use search::{PlanSearch, RankedPlan};
pub use synthesize::{
    synthesize_column, SourceSynthesis, Synthesis, SynthesisCounts, SynthesisOptions,
};
pub use validate::{class_frequency, validate, validate_report, ValidationReport};
