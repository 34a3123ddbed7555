//! # clx-analyze
//!
//! Static diagnostics over synthesized UniFi programs: language-level
//! proofs about a program **before any row runs**, the static half of
//! CLX's "verifiable PBE" claim.
//!
//! Given a [`Program`](clx_unifi::Program) and the labelled target
//! [`Pattern`](clx_pattern::Pattern), [`analyze_program`] runs six passes
//! — each with its own stable diagnostic code — over one shared
//! bit-parallel automaton ([`clx_pattern::automaton`], the same
//! implementation behind `clx-engine`'s fused dispatch):
//!
//! | Code | Check | Severity |
//! |------|-------|----------|
//! | `CLX000` | analysis incomplete (width/search budget) | info |
//! | `CLX001` | dead branch (empty or union-unreachable language) | error |
//! | `CLX002` | shadowed branch (single earlier branch subsumes it) | error |
//! | `CLX003` | ambiguous overlap between live branches | warning |
//! | `CLX004` | redundant branch (target already covers it) | warning |
//! | `CLX005` | unsafe `Extract` (out of bounds for every matching row) | error |
//! | `CLX006` | output conformance not provable | warning |
//!
//! Most language queries are settled before any search: one member string
//! per branch answers "not empty" and, when no cover matches it, "not
//! covered" (shadowing, union death, redundancy), and a token-level
//! disjointness proof answers "no overlap". A screen settles a query only
//! exactly, so every verdict is the search's; an overlap always reaches
//! the automaton, which supplies the `CLX003` witness.
//!
//! `Error` findings are proofs of a defect; `Warning` findings are
//! properties the (over-approximating) analyzer could not prove. The
//! report also carries per-branch [`BranchFacts`] (reachable /
//! extract-safe / proven-conforming), the change-impact substrate for
//! incremental re-verification.
//!
//! ```
//! use clx_analyze::{analyze_program, DiagnosticCode};
//! use clx_pattern::parse_pattern;
//! use clx_unifi::{Branch, Expr, Program, StringExpr};
//!
//! let target = parse_pattern("<D>3").unwrap();
//! let program = Program::new(vec![
//!     Branch::new(parse_pattern("<D>+").unwrap(),
//!                 Expr::concat(vec![StringExpr::const_str("000")])),
//!     Branch::new(parse_pattern("<D>2").unwrap(), // shadowed by <D>+
//!                 Expr::concat(vec![StringExpr::const_str("000")])),
//! ]);
//! let report = analyze_program(&program, &target);
//! assert!(report.has_errors());
//! let finding = report.by_code(DiagnosticCode::ShadowedBranch).next().unwrap();
//! assert_eq!(finding.branch, Some(1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diagnostic;
mod passes;

pub use diagnostic::{
    BranchFacts, Diagnostic, DiagnosticCode, Evidence, ProgramDiagnostics, Severity,
};
pub use passes::{analyze_observed, analyze_program};
