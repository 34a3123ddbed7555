//! Equivalent-plan detection and deduplication (Section 6.4 and Appendix B
//! of the paper).
//!
//! Two atomic transformation plans are *equivalent* when, for the same
//! source pattern, they always yield the same result on any matching string
//! (Definition 6.2) — e.g. extracting a `'/'` literal token versus
//! re-creating it with `ConstStr('/')`. Presenting both to the user during
//! program repair is pure noise, so CLX keeps only the simplest member of
//! each equivalence class.

use clx_pattern::Pattern;
use clx_unifi::{Expr, StringExpr};

#[cfg(test)]
use crate::mdl::{description_length, source_reuse_penalty};

/// One operation of a plan's canonical form: a unit extract of a base
/// source token, or the text a literal extract or a `ConstStr` yields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyUnit<'a> {
    /// `Extract(i)` of a non-literal source token (one-based).
    Extract(usize),
    /// A literal source token's value, or a `ConstStr`'s content.
    Text(&'a str),
}

/// The units one operation contributes to a plan's canonical form
/// (Appendix B): `Extract(m, n)` split into the unit extracts `Extract(m),
/// ..., Extract(n)`, then every unit extract of a literal source token and
/// every `ConstStr` replaced by the text it yields. Two plans are
/// equivalent exactly when their sequences of units are equal.
pub(crate) fn key_units<'a>(
    part: &'a StringExpr,
    source: &'a Pattern,
) -> impl Iterator<Item = KeyUnit<'a>> {
    let (slots, text) = match part {
        StringExpr::Extract { from, to } => (Some(*from..=*to), None),
        StringExpr::ConstStr(s) => (None, Some(KeyUnit::Text(s.as_str()))),
    };
    slots
        .into_iter()
        .flatten()
        .map(|i| {
            match source
                .token_one_based(i)
                .ok()
                .and_then(|t| t.literal_value())
            {
                Some(text) => KeyUnit::Text(text),
                None => KeyUnit::Extract(i),
            }
        })
        .chain(text)
}

/// Are two plans equivalent for the given source pattern (Definition 6.2,
/// decided with the Appendix B procedure)? They are when their canonical
/// forms are equal: the same sequence of unit operations, where extracting
/// a literal source token and re-creating its text with `ConstStr` count as
/// the same operation.
pub fn plans_equivalent(a: &Expr, b: &Expr, source: &Pattern) -> bool {
    a.parts
        .iter()
        .flat_map(|part| key_units(part, source))
        .eq(b.parts.iter().flat_map(|part| key_units(part, source)))
}

/// Deduplicate a ranked list of plans, keeping only the simplest (lowest
/// description length — the list order for ties) member of each equivalence
/// class. The input order is preserved for the survivors.
///
/// The pairwise deduplication the plan search's interned keys replaced, kept
/// as the test oracle.
#[cfg(test)]
pub(crate) fn dedup_plans(plans: Vec<Expr>, source: &Pattern) -> Vec<Expr> {
    let mut kept: Vec<Expr> = Vec::new();
    for plan in plans {
        match kept.iter_mut().find(|k| plans_equivalent(k, &plan, source)) {
            None => kept.push(plan),
            Some(existing) => {
                // Keep the simpler representative, using the same ordering
                // as plan ranking (no source reuse first, then MDL).
                let key = |e: &Expr| (source_reuse_penalty(e), description_length(e, source));
                if key(&plan) < key(existing) {
                    *existing = plan;
                }
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::parse_pattern;

    fn source() -> Pattern {
        // [<D>2, '/', <D>2]
        parse_pattern("<D>2'/'<D>2").unwrap()
    }

    #[test]
    fn paper_appendix_b_example() {
        // E1 = [Extract(3), ConstStr('/'), Extract(1)]
        // E2 = [Extract(3), Extract(2), Extract(1)]
        let e1 = Expr::concat(vec![
            StringExpr::extract(3),
            StringExpr::const_str("/"),
            StringExpr::extract(1),
        ]);
        let e2 = Expr::concat(vec![
            StringExpr::extract(3),
            StringExpr::extract(2),
            StringExpr::extract(1),
        ]);
        assert!(plans_equivalent(&e1, &e2, &source()));
    }

    #[test]
    fn range_extract_normalization() {
        // Extract(1,3) is equivalent to Extract(1),Extract(2),Extract(3)
        // and to Extract(1),ConstStr('/'),Extract(3).
        let a = Expr::concat(vec![StringExpr::extract_range(1, 3)]);
        let b = Expr::concat(vec![
            StringExpr::extract(1),
            StringExpr::extract(2),
            StringExpr::extract(3),
        ]);
        let c = Expr::concat(vec![
            StringExpr::extract(1),
            StringExpr::const_str("/"),
            StringExpr::extract(3),
        ]);
        assert!(plans_equivalent(&a, &b, &source()));
        assert!(plans_equivalent(&a, &c, &source()));
        assert!(plans_equivalent(&b, &c, &source()));
    }

    #[test]
    fn different_extract_targets_are_not_equivalent() {
        let a = Expr::concat(vec![StringExpr::extract(1)]);
        let b = Expr::concat(vec![StringExpr::extract(3)]);
        assert!(!plans_equivalent(&a, &b, &source()));
    }

    #[test]
    fn const_differs_from_base_token_extract() {
        // Extract(1) pulls a digit token, not a literal, so it is not
        // interchangeable with any ConstStr.
        let a = Expr::concat(vec![StringExpr::extract(1)]);
        let b = Expr::concat(vec![StringExpr::const_str("12")]);
        assert!(!plans_equivalent(&a, &b, &source()));
    }

    #[test]
    fn const_with_different_content_is_not_equivalent() {
        let a = Expr::concat(vec![StringExpr::extract(2)]);
        let b = Expr::concat(vec![StringExpr::const_str("-")]);
        assert!(!plans_equivalent(&a, &b, &source()));
    }

    #[test]
    fn different_lengths_are_not_equivalent() {
        let a = Expr::concat(vec![StringExpr::extract(1)]);
        let b = Expr::concat(vec![StringExpr::extract(1), StringExpr::extract(2)]);
        assert!(!plans_equivalent(&a, &b, &source()));
    }

    #[test]
    fn dedup_keeps_one_representative_per_class() {
        let plans = vec![
            Expr::concat(vec![StringExpr::extract_range(1, 3)]),
            Expr::concat(vec![
                StringExpr::extract(1),
                StringExpr::const_str("/"),
                StringExpr::extract(3),
            ]),
            Expr::concat(vec![
                StringExpr::extract(1),
                StringExpr::extract(2),
                StringExpr::extract(3),
            ]),
            Expr::concat(vec![StringExpr::extract(1)]),
        ];
        let deduped = dedup_plans(plans, &source());
        assert_eq!(deduped.len(), 2);
        // The surviving representative of the big class is the simplest one.
        assert_eq!(
            deduped[0],
            Expr::concat(vec![StringExpr::extract_range(1, 3)])
        );
    }

    #[test]
    fn dedup_preserves_distinct_plans() {
        let plans = vec![
            Expr::concat(vec![StringExpr::extract(1)]),
            Expr::concat(vec![StringExpr::extract(3)]),
        ];
        let deduped = dedup_plans(plans.clone(), &source());
        assert_eq!(deduped, plans);
    }

    #[test]
    fn dedup_empty_input() {
        assert!(dedup_plans(Vec::new(), &source()).is_empty());
    }

    #[test]
    fn equivalence_is_reflexive_and_symmetric() {
        let plans = vec![
            Expr::concat(vec![StringExpr::extract_range(1, 3)]),
            Expr::concat(vec![
                StringExpr::extract(1),
                StringExpr::const_str("/"),
                StringExpr::extract(3),
            ]),
            Expr::concat(vec![StringExpr::extract(1)]),
        ];
        let s = source();
        for a in &plans {
            assert!(plans_equivalent(a, a, &s));
            for b in &plans {
                assert_eq!(plans_equivalent(a, b, &s), plans_equivalent(b, a, &s));
            }
        }
    }
}
