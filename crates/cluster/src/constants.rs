//! Constant-token discovery (Section 4.1, "Find Constant Tokens").
//!
//! Some base tokens in a cluster always carry the same concrete value
//! ("Dr.", a fixed area code, a unit suffix). Representing them as literal
//! tokens instead of base tokens both improves user comprehension and lets
//! the synthesizer reproduce them with `ConstStr` operations. Following the
//! paper (which adopts the statistics-over-tokenized-strings approach of
//! LearnPADS), a token position is converted to a constant when the share
//! of values agreeing on one concrete string reaches a threshold.
//!
//! The statistics are computed over the *distinct* values of a cluster, not
//! its raw rows: a value repeated a thousand times contributes one
//! observation, exactly like a value occurring once. Row-weighted counting
//! would let duplicates manufacture "constants" — a cluster holding one
//! value N times agrees at every position, freezes into a single giant
//! literal, and becomes unsynthesizable (every row flagged). The
//! distinct-value weighting keeps the intent of the guard for single-row
//! clusters: support below
//! [`ConstantDiscoveryOptions::min_distinct_values`] distinct values is no
//! evidence of constancy at all.

use std::collections::HashMap;

use clx_pattern::{tokenize_detailed, Pattern, Token, TokenSlice, TokenizedString};

/// Options controlling constant discovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantDiscoveryOptions {
    /// Minimum fraction of a cluster's *distinct* values that must share
    /// the same concrete string at a token position for that position to
    /// become a literal token.
    ///
    /// The default of `1.0` only folds positions where *every* value
    /// agrees, which never changes which rows a cluster matches. Lower
    /// values are useful on noisy data but cause the non-conforming rows to
    /// be split into their own cluster by the profiler.
    pub dominance_threshold: f64,
    /// Do not fold base tokens longer than this many characters (guards
    /// against turning an entire free-text column into one huge literal).
    pub max_constant_len: usize,
    /// Minimum number of *distinct* values a cluster needs before constant
    /// discovery is attempted. With a single distinct value every position
    /// is trivially "constant" — no matter how many rows repeat it — which
    /// would freeze the whole value into one literal and defeat the
    /// synthesizer, so the default requires at least 2 distinct values.
    pub min_distinct_values: usize,
    /// Whether digit tokens may be folded into constants. Digits almost
    /// always carry the semantic payload of a value (phone numbers, ids,
    /// quantities), and freezing them into literals can make otherwise
    /// transformable patterns untransformable, so the default is `false`;
    /// alphabetic prefixes such as `"Dr."` or `"CPT"` are still folded.
    pub fold_digit_tokens: bool,
}

impl Default for ConstantDiscoveryOptions {
    fn default() -> Self {
        ConstantDiscoveryOptions {
            dominance_threshold: 1.0,
            max_constant_len: 16,
            min_distinct_values: 2,
            fold_digit_tokens: false,
        }
    }
}

/// Discover constant tokens within one cluster, reading raw strings.
///
/// `pattern` is the cluster's leaf pattern and `values` the **distinct**
/// values of the cluster (all matching `pattern`). Returns the refined
/// pattern (with constant positions folded to literal tokens and adjacent
/// literals merged) and the indices into `values` of the values that
/// conform to it. With the default threshold of 1.0 all values conform.
///
/// This entry point tokenizes each value; the profiler's column path calls
/// [`discover_constants_cached`] with the token slices the
/// [`clx_column::Column`] already carries, so nothing is tokenized twice.
pub fn discover_constants(
    pattern: &Pattern,
    values: &[&str],
    options: &ConstantDiscoveryOptions,
) -> (Pattern, Vec<usize>) {
    let tokenized: Vec<TokenizedString> = values.iter().map(|v| tokenize_detailed(v)).collect();
    let streams: Vec<(&str, &[TokenSlice])> = tokenized
        .iter()
        .map(|t| (t.raw.as_str(), t.slices.as_slice()))
        .collect();
    discover_constants_cached(pattern, &streams, options)
}

/// [`discover_constants`] over pre-split values: each value's text with
/// its leaf token slices (the cached per-distinct-value slices of a
/// [`clx_column::Column`]).
pub fn discover_constants_cached(
    pattern: &Pattern,
    values: &[(&str, &[TokenSlice])],
    options: &ConstantDiscoveryOptions,
) -> (Pattern, Vec<usize>) {
    // Repeats of one value are never evidence of constancy (see module
    // docs), so support is counted in distinct values.
    if values.len() < options.min_distinct_values.max(1) || pattern.is_empty() {
        return (pattern.clone(), (0..values.len()).collect());
    }

    // Collect, per token position, the slice-text frequencies across the
    // values, each value counted once.
    let mut position_values: Vec<HashMap<&str, usize>> = vec![HashMap::new(); pattern.len()];
    for &(text, slices) in values {
        debug_assert_eq!(
            slices.len(),
            pattern.len(),
            "all values of a cluster share its leaf pattern"
        );
        for slice in slices {
            *position_values[slice.token_index]
                .entry(slice.text(text))
                .or_insert(0) += 1;
        }
    }

    // Decide which base-token positions become constants.
    let n = values.len() as f64;
    let mut constant_value: Vec<Option<&str>> = vec![None; pattern.len()];
    for (i, token) in pattern.iter().enumerate() {
        if !token.is_base() {
            continue;
        }
        if token.class == clx_pattern::TokenClass::Digit && !options.fold_digit_tokens {
            continue;
        }
        let Some((value, count)) = position_values[i]
            .iter()
            .max_by_key(|&(v, c)| (*c, std::cmp::Reverse(*v)))
        else {
            continue;
        };
        if value.chars().count() <= options.max_constant_len
            && (*count as f64) / n >= options.dominance_threshold
        {
            constant_value[i] = Some(*value);
        }
    }

    if constant_value.iter().all(Option::is_none) {
        return (pattern.clone(), (0..values.len()).collect());
    }

    // Build the refined pattern.
    let tokens: Vec<Token> = pattern
        .iter()
        .enumerate()
        .map(|(i, t)| match &constant_value[i] {
            Some(v) => Token::literal(v.to_string()),
            None => t.clone(),
        })
        .collect();
    let refined = merge_adjacent_literals(&Pattern::new(tokens));

    // Values conform when they carry the constant at every folded position.
    let conforming: Vec<usize> = values
        .iter()
        .enumerate()
        .filter(|(_, &(text, slices))| {
            slices.iter().all(|slice| {
                constant_value[slice.token_index]
                    .map(|v| slice.text(text) == v)
                    .unwrap_or(true)
            })
        })
        .map(|(i, _)| i)
        .collect();

    (refined, conforming)
}

/// Merge runs of adjacent literal tokens into a single literal token, so that
/// e.g. `'D' 'r' '.'` becomes `'Dr.'`.
fn merge_adjacent_literals(pattern: &Pattern) -> Pattern {
    let mut out: Vec<Token> = Vec::with_capacity(pattern.len());
    for tok in pattern.iter() {
        if let (Some(last), Some(v)) = (out.last_mut(), tok.literal_value()) {
            if let Some(prev) = last.literal_value() {
                *last = Token::literal(format!("{prev}{v}"));
                continue;
            }
        }
        out.push(tok.clone());
    }
    Pattern::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;

    fn opts() -> ConstantDiscoveryOptions {
        ConstantDiscoveryOptions::default()
    }

    #[test]
    fn all_agreeing_position_becomes_literal() {
        // Faculty names all prefixed with "Dr." (the paper's example).
        let rows = vec!["Dr. Eran Yahav", "Dr. Bill Gates", "Dr. Kurt Mehls"];
        let pattern = tokenize(rows[0]);
        assert_eq!(pattern, tokenize(rows[1]));
        let (refined, conforming) = discover_constants(&pattern, &rows, &opts());
        assert!(refined.to_string().starts_with("'Dr. '"));
        assert_eq!(conforming, vec![0, 1, 2]);
        // The name parts stay as base tokens.
        assert!(refined.to_string().contains("<U>"));
        assert!(refined.to_string().contains("<L>"));
    }

    #[test]
    fn differing_positions_stay_base_tokens() {
        let rows = vec!["734-422", "555-123"];
        let pattern = tokenize(rows[0]);
        let (refined, conforming) = discover_constants(&pattern, &rows, &opts());
        assert_eq!(refined, pattern);
        assert_eq!(conforming.len(), 2);
    }

    #[test]
    fn digit_tokens_are_not_folded_by_default() {
        // Even though every row shares the same area code, digit tokens keep
        // their base class so the values stay extractable.
        let rows = vec!["734-422-8073", "734-763-1147", "734-936-2447"];
        let pattern = tokenize(rows[0]);
        let (refined, _) = discover_constants(&pattern, &rows, &opts());
        assert_eq!(refined, pattern);
    }

    #[test]
    fn digit_folding_can_be_opted_into() {
        let rows = vec!["734-422-8073", "734-763-1147", "734-936-2447"];
        let pattern = tokenize(rows[0]);
        let options = ConstantDiscoveryOptions {
            fold_digit_tokens: true,
            ..opts()
        };
        let (refined, _) = discover_constants(&pattern, &rows, &options);
        assert_eq!(refined.to_string(), "'734-'<D>3'-'<D>4");
    }

    #[test]
    fn threshold_below_one_splits_nonconforming_rows() {
        let rows = vec!["CPT115", "CPT200", "CPT301", "XYZ999"];
        let pattern = tokenize(rows[0]);
        let options = ConstantDiscoveryOptions {
            dominance_threshold: 0.7,
            ..opts()
        };
        let (refined, conforming) = discover_constants(&pattern, &rows, &options);
        assert!(refined.to_string().starts_with("'CPT'"));
        assert_eq!(conforming, vec![0, 1, 2]);
    }

    #[test]
    fn default_threshold_never_splits() {
        let rows = vec!["CPT115", "CPT200", "XYZ999"];
        let pattern = tokenize(rows[0]);
        let (refined, conforming) = discover_constants(&pattern, &rows, &opts());
        assert_eq!(refined, pattern);
        assert_eq!(conforming.len(), 3);
    }

    #[test]
    fn long_values_are_not_folded() {
        let rows = vec!["abcdefghijklmnopqrstuvwxyz1", "abcdefghijklmnopqrstuvwxyz2"];
        let pattern = tokenize(rows[0]);
        let (refined, _) = discover_constants(&pattern, &rows, &opts());
        // The 26-character lowercase run exceeds max_constant_len (16).
        assert!(refined.to_string().contains("<L>26"));
    }

    #[test]
    fn single_row_cluster_is_left_untouched() {
        let rows = vec!["USD 100"];
        let pattern = tokenize(rows[0]);
        let (refined, conforming) = discover_constants(&pattern, &rows, &opts());
        // Below min_distinct_values: no folding, otherwise the whole value would freeze
        // into one literal.
        assert_eq!(refined, pattern);
        assert_eq!(conforming, vec![0]);
    }

    #[test]
    fn min_distinct_values_of_one_allows_single_value_folding() {
        let rows = vec!["USD 100"];
        let pattern = tokenize(rows[0]);
        let options = ConstantDiscoveryOptions {
            min_distinct_values: 1,
            ..opts()
        };
        let (refined, conforming) = discover_constants(&pattern, &rows, &options);
        // The alphabetic prefix folds; the digits stay extractable.
        assert_eq!(refined.to_string(), "'USD '<D>3");
        assert_eq!(conforming, vec![0]);
    }

    #[test]
    fn empty_rows_are_handled() {
        let pattern = tokenize("abc");
        let (refined, conforming) = discover_constants(&pattern, &[], &opts());
        assert_eq!(refined, pattern);
        assert!(conforming.is_empty());
    }

    #[test]
    fn refined_pattern_still_matches_conforming_rows() {
        let rows = vec!["[CPT-00350", "[CPT-00340", "[CPT-11536"];
        let pattern = tokenize(rows[0]);
        let (refined, conforming) = discover_constants(&pattern, &rows, &opts());
        for &i in &conforming {
            assert!(
                refined.matches(rows[i]),
                "refined pattern {refined} must match {}",
                rows[i]
            );
        }
    }
}
