//! Compilation errors.

use std::fmt;

use clx_unifi::EvalError;

/// Why a UniFi program could not be compiled for batch execution.
///
/// Everything here indicates an ill-formed *program* (a synthesizer bug or a
/// hand-built program), never ill-formed data: data problems surface as
/// flagged rows, exactly as in the sequential path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A branch references source tokens outside its own pattern. The
    /// sequential evaluator would report the same defect lazily, on the
    /// first row reaching that branch; compilation rejects it up front.
    InvalidBranch {
        /// Index of the offending branch.
        index: usize,
        /// The underlying bounds violation.
        source: EvalError,
    },
    /// Strict-mode compilation
    /// ([`compile_strict`](crate::CompiledProgram::compile_strict)) found
    /// `Error`-severity static diagnostics. The default compile entry
    /// points only *record* diagnostics; this variant exists solely for
    /// callers that opted into rejection.
    RejectedByAnalysis {
        /// One rendered line per `Error`-severity diagnostic.
        findings: Vec<String>,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidBranch { index, source } => {
                write!(f, "branch {index} is ill-formed: {source}")
            }
            CompileError::RejectedByAnalysis { findings } => {
                write!(
                    f,
                    "static analysis rejected the program ({} error finding{}): {}",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                    findings.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_culprit() {
        let e = CompileError::InvalidBranch {
            index: 3,
            source: EvalError::ExtractOutOfBounds {
                from: 7,
                to: 7,
                pattern_len: 2,
                rule: clx_unifi::ExtractRule::PastEnd,
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("branch 3"));
        assert!(msg.contains("token 7"));
    }
}
