//! The UniFi abstract syntax tree (Figure 7 of the paper).
//!
//! ```text
//! Program L           := Switch((b1, E1), ..., (bn, En))
//! Predicate b         := Match(s, p)
//! Expression E        := Concat(f1, ..., fn)
//! String Expression f := ConstStr(s̃) | Extract(t̃i, t̃j)
//! ```

use std::fmt;

use clx_pattern::Pattern;

/// A string expression: one step of an atomic transformation plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StringExpr {
    /// Emit the constant string.
    ConstStr(String),
    /// Extract the source tokens from one-based index `from` to `to`
    /// (inclusive). `Extract(i)` in the paper is `Extract { from: i, to: i }`.
    Extract {
        /// One-based index of the first extracted token.
        from: usize,
        /// One-based index of the last extracted token (inclusive).
        to: usize,
    },
}

impl StringExpr {
    /// `ConstStr(s)`.
    pub fn const_str(s: impl Into<String>) -> Self {
        StringExpr::ConstStr(s.into())
    }

    /// `Extract(i)` — a single token.
    pub fn extract(i: usize) -> Self {
        StringExpr::Extract { from: i, to: i }
    }

    /// `Extract(i, j)` — a run of consecutive tokens.
    pub fn extract_range(from: usize, to: usize) -> Self {
        debug_assert!(
            from >= 1 && to >= from,
            "extract range must be 1-based and ordered"
        );
        StringExpr::Extract { from, to }
    }

    /// `true` for `Extract` expressions.
    pub fn is_extract(&self) -> bool {
        matches!(self, StringExpr::Extract { .. })
    }

    /// `true` for `ConstStr` expressions.
    pub fn is_const(&self) -> bool {
        matches!(self, StringExpr::ConstStr(_))
    }

    /// The number of source tokens an `Extract` covers (0 for `ConstStr`).
    pub fn extract_width(&self) -> usize {
        match self {
            StringExpr::Extract { from, to } => to - from + 1,
            StringExpr::ConstStr(_) => 0,
        }
    }
}

impl fmt::Display for StringExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StringExpr::ConstStr(s) => write!(f, "ConstStr('{s}')"),
            StringExpr::Extract { from, to } if from == to => write!(f, "Extract({from})"),
            StringExpr::Extract { from, to } => write!(f, "Extract({from},{to})"),
        }
    }
}

/// An atomic transformation plan (Definition 5.1): a concatenation of string
/// expressions that converts a given source pattern into the target pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Expr {
    /// The concatenated string expressions.
    pub parts: Vec<StringExpr>,
}

impl Expr {
    /// `Concat(parts...)`.
    pub fn concat(parts: Vec<StringExpr>) -> Self {
        Expr { parts }
    }

    /// Number of string expressions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// `true` if the plan has no parts (produces the empty string).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// One-based source-token indices referenced by `Extract` parts, in plan
    /// order (duplicates preserved).
    pub fn extracted_tokens(&self) -> Vec<(usize, usize)> {
        self.parts
            .iter()
            .filter_map(|p| match p {
                StringExpr::Extract { from, to } => Some((*from, *to)),
                StringExpr::ConstStr(_) => None,
            })
            .collect()
    }

    /// The largest source-token index referenced, if any.
    pub fn max_source_token(&self) -> Option<usize> {
        self.extracted_tokens().iter().map(|&(_, to)| to).max()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Concat(")?;
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

/// One `(Match(p), E)` pair of a `Switch`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Branch {
    /// The source pattern guarding this branch.
    pub pattern: Pattern,
    /// The atomic transformation plan applied to matching strings.
    pub expr: Expr,
}

impl Branch {
    /// Create a branch.
    pub fn new(pattern: Pattern, expr: Expr) -> Self {
        Branch { pattern, expr }
    }

    /// Statically check that every `Extract` of the plan stays within the
    /// source pattern (one-based, ordered, `to <= pattern.len()`), via the
    /// shared [`crate::eval::extract_bounds_violation`] rules — the same
    /// check the evaluator applies lazily, row by row; batch compilers
    /// (`clx-engine`) call this up front so an ill-formed program is
    /// rejected before any data is touched.
    ///
    /// This static check is *complete* for every quantifier: for any
    /// string a pattern matches, `Pattern::split` yields exactly one slice
    /// per token (a `+` token yields one slice covering its whole run), so
    /// the per-row slice count always equals `pattern.len()` and a branch
    /// passing this check can never raise
    /// [`ExtractOutOfBounds`](crate::eval::EvalError::ExtractOutOfBounds)
    /// on a matching input.
    pub fn validate(&self) -> Result<(), crate::eval::EvalError> {
        for &(from, to) in &self.expr.extracted_tokens() {
            if let Some(rule) = crate::eval::extract_bounds_violation(from, to, self.pattern.len())
            {
                return Err(crate::eval::EvalError::ExtractOutOfBounds {
                    from,
                    to,
                    pattern_len: self.pattern.len(),
                    rule,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Branch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(Match(\"{}\"), {})", self.pattern, self.expr)
    }
}

/// A UniFi program: a `Switch` over pattern-guarded atomic transformation
/// plans. Strings matching no branch are left unchanged and flagged (§6.1).
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Program {
    /// The branches, tried in order.
    pub branches: Vec<Branch>,
}

impl Program {
    /// A program with the given branches.
    pub fn new(branches: Vec<Branch>) -> Self {
        Program { branches }
    }

    /// An empty program (leaves every input unchanged).
    pub fn empty() -> Self {
        Program::default()
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// `true` if there are no branches.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// The branch guarded by `pattern`, if present.
    pub fn branch_for(&self, pattern: &Pattern) -> Option<&Branch> {
        self.branches.iter().find(|b| &b.pattern == pattern)
    }

    /// Replace the expression of **every** branch guarded by `pattern`;
    /// returns `true` if at least one such branch existed. This is the
    /// "program repair" interaction of §6.4.
    ///
    /// Duplicate-pattern branches (which a merged or hand-built program
    /// can legally contain — only the first can ever fire, but later
    /// copies survive round-trips) are all repaired together, so a repair
    /// can never leave a stale copy behind that becomes live when an
    /// earlier branch is later removed. When `pattern` guards no branch
    /// the program is unchanged and `false` is returned.
    pub fn repair(&mut self, pattern: &Pattern, expr: Expr) -> bool {
        let mut repaired = false;
        for branch in self.branches.iter_mut().filter(|b| &b.pattern == pattern) {
            branch.expr = expr.clone();
            repaired = true;
        }
        repaired
    }

    /// Statically [`Branch::validate`] every branch of the program.
    pub fn validate(&self) -> Result<(), crate::eval::EvalError> {
        self.branches.iter().try_for_each(Branch::validate)
    }

    /// Pretty-print in the paper's `Switch((Match(...), ...), ...)` form.
    pub fn pretty(&self) -> String {
        let mut out = String::from("Switch(");
        for (i, b) in self.branches.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n       ");
            }
            out.push_str(&b.to_string());
        }
        out.push(')');
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;

    #[test]
    fn string_expr_constructors() {
        assert_eq!(
            StringExpr::extract(3),
            StringExpr::Extract { from: 3, to: 3 }
        );
        assert_eq!(
            StringExpr::extract_range(1, 4),
            StringExpr::Extract { from: 1, to: 4 }
        );
        assert!(StringExpr::extract(1).is_extract());
        assert!(StringExpr::const_str("x").is_const());
        assert_eq!(StringExpr::extract_range(2, 5).extract_width(), 4);
        assert_eq!(StringExpr::const_str("x").extract_width(), 0);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(StringExpr::extract(2).to_string(), "Extract(2)");
        assert_eq!(StringExpr::extract_range(1, 4).to_string(), "Extract(1,4)");
        assert_eq!(StringExpr::const_str("]").to_string(), "ConstStr(']')");
        let e = Expr::concat(vec![
            StringExpr::extract_range(1, 4),
            StringExpr::const_str("]"),
        ]);
        assert_eq!(e.to_string(), "Concat(Extract(1,4),ConstStr(']'))");
    }

    #[test]
    fn expr_token_accounting() {
        let e = Expr::concat(vec![
            StringExpr::const_str("["),
            StringExpr::extract(1),
            StringExpr::const_str("-"),
            StringExpr::extract_range(2, 3),
        ]);
        assert_eq!(e.extracted_tokens(), vec![(1, 1), (2, 3)]);
        assert_eq!(e.max_source_token(), Some(3));
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn empty_expr() {
        let e = Expr::default();
        assert!(e.is_empty());
        assert_eq!(e.max_source_token(), None);
    }

    #[test]
    fn program_branch_lookup_and_repair() {
        let p1 = tokenize("734-422-8073");
        let p2 = tokenize("(734) 645-8397");
        let mut program = Program::new(vec![
            Branch::new(p1.clone(), Expr::concat(vec![StringExpr::extract(1)])),
            Branch::new(p2.clone(), Expr::concat(vec![StringExpr::extract(2)])),
        ]);
        assert_eq!(program.len(), 2);
        assert!(program.branch_for(&p1).is_some());
        assert!(program.branch_for(&tokenize("zzz")).is_none());

        let new_expr = Expr::concat(vec![StringExpr::const_str("fixed")]);
        assert!(program.repair(&p1, new_expr.clone()));
        assert_eq!(program.branch_for(&p1).unwrap().expr, new_expr);
        assert!(!program.repair(&tokenize("zzz"), new_expr));
    }

    #[test]
    fn pretty_print_contains_all_branches() {
        let program = Program::new(vec![Branch::new(
            tokenize("CPT115"),
            Expr::concat(vec![
                StringExpr::const_str("["),
                StringExpr::extract(1),
                StringExpr::const_str("-"),
                StringExpr::extract(2),
                StringExpr::const_str("]"),
            ]),
        )]);
        let s = program.pretty();
        assert!(s.starts_with("Switch("));
        assert!(s.contains("Match(\"<U>3<D>3\")"));
        assert!(s.contains("ConstStr('[')"));
        assert!(s.contains("Extract(1)"));
    }

    #[test]
    fn empty_program() {
        let p = Program::empty();
        assert!(p.is_empty());
        assert_eq!(p.pretty(), "Switch()");
    }

    #[test]
    fn branch_validation_catches_bad_extracts() {
        let good = Branch::new(
            tokenize("734-422-8073"),
            Expr::concat(vec![
                StringExpr::extract(1),
                StringExpr::extract_range(3, 5),
            ]),
        );
        assert!(good.validate().is_ok());

        use crate::eval::{EvalError, ExtractRule};

        // Each violation names its offending bounds and the broken rule,
        // not a synthesized (possibly in-bounds) index.
        let past_end = Branch::new(tokenize("abc"), Expr::concat(vec![StringExpr::extract(2)]));
        assert_eq!(
            past_end.validate().unwrap_err(),
            EvalError::ExtractOutOfBounds {
                from: 2,
                to: 2,
                pattern_len: 1,
                rule: ExtractRule::PastEnd,
            }
        );

        let inverted = Branch::new(
            tokenize("a-b"),
            Expr::concat(vec![StringExpr::Extract { from: 3, to: 1 }]),
        );
        assert_eq!(
            inverted.validate().unwrap_err(),
            EvalError::ExtractOutOfBounds {
                from: 3,
                to: 1,
                pattern_len: 3,
                rule: ExtractRule::InvertedRange,
            }
        );

        let zero = Branch::new(
            tokenize("a-b"),
            Expr::concat(vec![StringExpr::Extract { from: 0, to: 1 }]),
        );
        assert_eq!(
            zero.validate().unwrap_err(),
            EvalError::ExtractOutOfBounds {
                from: 0,
                to: 1,
                pattern_len: 3,
                rule: ExtractRule::ZeroIndex,
            }
        );
    }

    #[test]
    fn program_validation_checks_every_branch() {
        let mut program = Program::new(vec![Branch::new(
            tokenize("abc"),
            Expr::concat(vec![StringExpr::extract(1)]),
        )]);
        assert!(program.validate().is_ok());
        program.branches.push(Branch::new(
            tokenize("abc"),
            Expr::concat(vec![StringExpr::extract(9)]),
        ));
        assert!(program.validate().is_err());
    }

    #[test]
    fn repair_rewrites_every_duplicate_pattern_branch() {
        let pattern = tokenize("abc");
        let other = tokenize("123");
        let old = Expr::concat(vec![StringExpr::extract(1)]);
        let new = Expr::concat(vec![StringExpr::const_str("x")]);
        let mut program = Program::new(vec![
            Branch::new(pattern.clone(), old.clone()),
            Branch::new(other.clone(), old.clone()),
            Branch::new(pattern.clone(), old.clone()),
        ]);
        assert!(program.repair(&pattern, new.clone()));
        assert_eq!(program.branches[0].expr, new);
        assert_eq!(
            program.branches[2].expr, new,
            "later duplicate repaired too"
        );
        assert_eq!(program.branches[1].expr, old, "other branch untouched");
    }

    #[test]
    fn repair_of_unknown_pattern_changes_nothing() {
        let old = Expr::concat(vec![StringExpr::extract(1)]);
        let mut program = Program::new(vec![Branch::new(tokenize("abc"), old.clone())]);
        let before = program.clone();
        assert!(!program.repair(
            &tokenize("12"),
            Expr::concat(vec![StringExpr::const_str("x")])
        ));
        assert_eq!(program, before);
    }
}
