//! # clx-cluster
//!
//! Pattern profiling for CLX: clustering raw string data into pattern
//! clusters and arranging those clusters into the hierarchical structure of
//! Section 4 of *CLX: Towards verifiable PBE data transformation*.
//!
//! The profiling is a two-phase process:
//!
//! 1. **Initial clustering through tokenization** (§4.1): every string is
//!    tokenized into its most-specific leaf pattern and strings sharing a
//!    pattern form one cluster. Constant-valued base tokens are then
//!    discovered statistically and folded into literal tokens ("Dr.",
//!    country codes, unit suffixes, ...), which improves the programs the
//!    synthesizer can produce.
//! 2. **Agglomerative refinement** (§4.2, Algorithm 1): the leaf clusters
//!    are repeatedly generalized — quantifiers to `+`, `<L>/<U>` to `<A>`,
//!    `<A>/<D>/'-'/'_'` to `<AN>` — building a [`PatternHierarchy`] whose
//!    upper levels give the user a compact overview and give the
//!    synthesizer fewer, simpler source patterns to transform.
//!
//! # Example
//!
//! ```
//! use clx_cluster::PatternProfiler;
//!
//! let data = vec![
//!     "(734) 645-8397", "(734) 763-1147", "734-422-8073", "734.236.3466",
//! ];
//! let hierarchy = PatternProfiler::new().profile(&data);
//! // Three distinct phone formats -> three leaf clusters.
//! assert_eq!(hierarchy.leaves().len(), 3);
//! // Every row is covered by exactly one leaf.
//! assert_eq!(hierarchy.total_rows(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod constants;
mod hierarchy;
mod profiler;
mod refine;

pub use constants::{discover_constants, discover_constants_cached, ConstantDiscoveryOptions};
pub use hierarchy::{ClusterNode, NodeId, PatternHierarchy};
pub use profiler::{PatternProfiler, ProfilerOptions};
pub use refine::{refine_level, GeneralizationStrategy, STANDARD_STRATEGIES};
