//! Cross-crate property-based tests of the core invariants the paper's
//! correctness argument rests on (tokenization, hierarchy coverage,
//! alignment soundness, explanation equivalence, regex engine consistency).

use proptest::prelude::*;

use clx::cluster::PatternProfiler;
use clx::column::Column;
use clx::pattern::{
    leaf_slices, parse_pattern, tokenize, tokenize_detailed, Pattern, Quantifier, Token, TokenClass,
};
use clx::regex::Regex;
use clx::synth::{align, validate};
use clx::unifi::{eval_expr, eval_expr_on_slices, explain_branch, Branch};

/// Strategy: strings drawn from the kind of characters CLX columns contain.
fn data_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just('-'),
            Just('.'),
            Just(' '),
            Just('('),
            Just(')'),
            Just('/'),
            Just('@'),
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Strategy: shorter strings for the quadratic alignment-enumeration tests.
fn short_data_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just('-'),
            Just('.'),
            Just(' '),
            Just('/'),
        ],
        1..9,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Strategy: a small column of such strings.
fn data_column() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(data_string(), 1..20)
}

const MATCHER_CLASSES: [TokenClass; 5] = [
    TokenClass::Digit,
    TokenClass::Lower,
    TokenClass::Upper,
    TokenClass::Alpha,
    TokenClass::AlphaNumeric,
];
const MATCHER_LITERALS: [&str; 9] = [",", " ", "-", "_", "€", ", ", "ab", "-7", "x€"];
/// Characters values are drawn and mutated from: members of every class,
/// the `-`/`_` only `<AN>` holds, and literal characters.
const ASCII_CHARS: [char; 10] = ['0', '7', 'a', 'z', 'A', 'Q', '-', '_', ',', ' '];
const OTHER_CHARS: [char; 2] = ['€', 'é'];

/// Strategy: a pattern of up to six tokens, each a literal, an exact
/// class token (1 to 3) or a `+` class token, with `<A>` and `<AN>`
/// among the classes.
fn matcher_pattern() -> impl Strategy<Value = Pattern> {
    proptest::collection::vec(0usize..3 * 5 * 9 * 3, 0..7).prop_map(|specs| {
        specs
            .into_iter()
            .map(|spec| {
                let (kind, class, literal, count) =
                    (spec % 3, spec / 3 % 5, spec / 15 % 9, spec / 135);
                let class = MATCHER_CLASSES[class].clone();
                match kind {
                    0 => Token::literal(MATCHER_LITERALS[literal]),
                    1 => Token::plus(class),
                    _ => Token::base(class, 1 + count),
                }
            })
            .collect()
    })
}

/// A string of `pattern`'s language, its choices read from `picks`.
fn draw(pattern: &Pattern, picks: &[usize]) -> String {
    let mut picks = picks.iter().copied().cycle();
    let mut out = String::new();
    for token in pattern {
        match (&token.class, token.quantifier) {
            (TokenClass::Literal(text), _) => out.push_str(text),
            (class, quantifier) => {
                let members: Vec<char> = ASCII_CHARS
                    .into_iter()
                    .filter(|&c| class.contains_char(c))
                    .collect();
                let count = match quantifier {
                    Quantifier::Exact(n) => n,
                    Quantifier::OneOrMore => 1 + picks.next().unwrap_or(0) % 4,
                };
                for _ in 0..count {
                    out.push(members[picks.next().unwrap_or(0) % members.len()]);
                }
            }
        }
    }
    out
}

/// Insert, replace or delete one character at a picked position, the new
/// character taken from `alphabet`.
fn mutate(value: &str, alphabet: &[char], pick: usize) -> String {
    let mut chars: Vec<char> = value.chars().collect();
    let at = pick / 3 % (chars.len() + 1);
    let c = alphabet[pick / 7 % alphabet.len()];
    match pick % 3 {
        0 => chars.insert(at, c),
        1 if at < chars.len() => chars[at] = c,
        _ if at < chars.len() => {
            chars.remove(at);
        }
        _ => chars.push(c),
    }
    chars.into_iter().collect()
}

/// The matcher before it read ASCII input as bytes, kept as the oracle:
/// a forward pass over the value's `Vec<char>` recording each token's
/// reachable starts, then a backward walk picking each token's largest
/// feasible start. Returns each token's `(start, end, text)` in bytes.
fn char_matcher_split(pattern: &Pattern, s: &str) -> Option<Vec<(usize, usize, String)>> {
    let tokens = pattern.tokens();
    let chars: Vec<char> = s.chars().collect();
    let mut starts = vec![0];
    let mut bounds = vec![0, 1];
    for (i, tok) in tokens.iter().enumerate() {
        let (lo, hi) = (bounds[i], starts.len());
        match (&tok.class, tok.quantifier) {
            (TokenClass::Literal(lit), _) => {
                let width = lit.chars().count();
                for k in lo..hi {
                    let p = starts[k];
                    if chars
                        .get(p..p + width)
                        .is_some_and(|w| lit.chars().eq(w.iter().copied()))
                    {
                        starts.push(p + width);
                    }
                }
            }
            (class, quantifier) => {
                let mut run_end = 0;
                for k in lo..hi {
                    let p = starts[k];
                    let limit = match quantifier {
                        Quantifier::Exact(n) => p.saturating_add(n).min(chars.len()),
                        Quantifier::OneOrMore => chars.len(),
                    };
                    run_end = run_end.max(p);
                    while run_end < limit && class.contains_char(chars[run_end]) {
                        run_end += 1;
                    }
                    match quantifier {
                        Quantifier::Exact(n) => {
                            if run_end - p >= n {
                                starts.push(p + n);
                            }
                        }
                        Quantifier::OneOrMore => {
                            let from = starts[hi..].last().map_or(p, |&last| last.max(p));
                            starts.extend(from + 1..=run_end);
                        }
                    }
                }
            }
        }
        if starts.len() == hi {
            return None;
        }
        bounds.push(starts.len());
    }
    if starts.last() != Some(&chars.len()) {
        return None;
    }
    let mut cuts = vec![0; tokens.len() + 1];
    cuts[tokens.len()] = chars.len();
    for (i, tok) in tokens.iter().enumerate().rev() {
        let end = cuts[i + 1];
        cuts[i] = match (&tok.class, tok.quantifier) {
            (TokenClass::Literal(lit), _) => end - lit.chars().count(),
            (_, Quantifier::Exact(n)) => end - n,
            (_, Quantifier::OneOrMore) => {
                let set = &starts[bounds[i]..bounds[i + 1]];
                set[set.partition_point(|&p| p < end) - 1]
            }
        };
    }
    let bytes: Vec<usize> = s.char_indices().map(|(b, _)| b).chain([s.len()]).collect();
    Some(
        cuts.windows(2)
            .map(|w| (bytes[w[0]], bytes[w[1]], chars[w[0]..w[1]].iter().collect()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tokenizer always produces a pattern that matches its own input,
    /// and the notation round-trips through the parser.
    #[test]
    fn tokenize_roundtrip(s in data_string()) {
        let pattern = tokenize(&s);
        prop_assert!(pattern.matches(&s));
        let reparsed = parse_pattern(&pattern.notation()).unwrap();
        prop_assert_eq!(&pattern, &reparsed);
        // The split slices reconstruct the original string.
        let rebuilt: String = pattern.split(&s).unwrap().iter().map(|t| t.text(&s)).collect();
        prop_assert_eq!(rebuilt, s);
    }

    /// The matcher agrees with itself and with the `Vec<char>` matcher it
    /// replaced, on strings of the pattern's language and on ASCII and
    /// non-ASCII mutations of them: `matches` is `split(..).is_ok()`, and
    /// the slices are the oracle's.
    #[test]
    fn matcher_agrees_with_the_char_matcher(
        pattern in matcher_pattern(),
        picks in proptest::collection::vec(0usize..1_000, 1..12),
    ) {
        let drawn = draw(&pattern, &picks);
        prop_assert!(pattern.matches(&drawn), "{} on {:?}", pattern, drawn);
        let ascii = mutate(&drawn, &ASCII_CHARS, picks[0]);
        let other = mutate(&drawn, &OTHER_CHARS, picks[picks.len() - 1]);
        for value in [drawn, ascii, other] {
            let split = pattern.split(&value).ok().map(|slices| {
                slices
                    .into_iter()
                    .map(|slice| (slice.start, slice.end, slice.text(&value).to_string()))
                    .collect::<Vec<_>>()
            });
            let want = char_matcher_split(&pattern, &value);
            prop_assert!(
                pattern.matches(&value) == split.is_some() && split == want,
                "{} on {:?}: split {:?}, oracle {:?}",
                pattern,
                value,
                split,
                want
            );
        }
    }

    /// The flat leaf slices a column caches are `tokenize_detailed`'s (on
    /// each value and on a non-ASCII mutation of it), cover the value
    /// contiguously, and evaluate a plan exactly like a fresh split.
    #[test]
    fn leaf_slices_equal_detailed_tokenization(column in data_column(), tgt in short_data_string()) {
        let values: Vec<String> = column
            .iter()
            .flat_map(|s| [s.clone(), mutate(s, &OTHER_CHARS, 3 * s.len())])
            .collect();
        for s in &values {
            let mut slices = Vec::new();
            leaf_slices(s, &mut slices);
            let detailed = tokenize_detailed(s);
            prop_assert!(slices == detailed.slices, "{:?}: {:?} vs {:?}", s, slices, detailed.slices);
            let mut at = 0;
            for (i, slice) in slices.iter().enumerate() {
                prop_assert!(slice.token_index == i && slice.start == at, "{:?}: {:?}", s, slices);
                at = slice.end;
            }
            prop_assert!(at == s.len(), "{:?}: {:?}", s, slices);
        }
        let column = Column::from_values(&values);
        let target = tokenize(&tgt);
        for value in column.distinct_values().take(4) {
            for plan in align(value.leaf(), &target).enumerate_plans(8) {
                let cached = eval_expr_on_slices(&plan, value.text(), value.token_slices());
                let fresh = eval_expr(&plan, value.leaf(), value.text());
                prop_assert!(cached == fresh, "{} on {:?}: {:?} vs {:?}", plan, value.text(), cached, fresh);
            }
        }
    }

    /// Profiling covers every row exactly once, every row matches its leaf
    /// pattern, and every root covers every leaf below it.
    #[test]
    fn hierarchy_invariants(column in data_column()) {
        let hierarchy = PatternProfiler::new().profile(&column);
        prop_assert!(hierarchy.check_invariants().is_ok());
        for (i, value) in column.iter().enumerate() {
            let leaf = hierarchy.leaf_of_row(i).expect("row in a leaf");
            prop_assert!(leaf.pattern.matches(value));
        }
    }

    /// Alignment soundness (Appendix A): every plan enumerated from the DAG,
    /// evaluated on a string of the source pattern, produces a string that
    /// matches the target pattern.
    #[test]
    fn alignment_soundness(src in short_data_string(), tgt in short_data_string()) {
        let source = tokenize(&src);
        let target = tokenize(&tgt);
        let dag = align(&source, &target);
        for plan in dag.enumerate_plans(64) {
            let out = eval_expr(&plan, &source, &src).unwrap();
            prop_assert!(target.matches(&out), "plan {} gave {:?}", plan, out);
        }
    }

    /// If validation rejects a source pattern for having fewer digits than
    /// the target requires, then no alignment path exists that avoids
    /// inventing digit content — i.e. validate never rejects something the
    /// aligner could fully solve with extraction of digit runs only.
    #[test]
    fn validate_is_consistent_with_q(src in data_string(), tgt in data_string()) {
        let source = tokenize(&src);
        let target = tokenize(&tgt);
        // Q-validation passing is implied whenever the patterns are equal.
        if source == target {
            prop_assert!(validate(&source, &target));
        }
    }

    /// Explanation equivalence: for any branch built from an enumerated
    /// plan, executing the explained Replace operation gives exactly the
    /// same output as evaluating the UniFi expression.
    #[test]
    fn explanation_matches_dsl(src in short_data_string(), tgt in short_data_string()) {
        let source = tokenize(&src);
        let target = tokenize(&tgt);
        let dag = align(&source, &target);
        for plan in dag.enumerate_plans(16) {
            let branch = Branch::new(source.clone(), plan.clone());
            let op = explain_branch(&branch).unwrap();
            let via_dsl = eval_expr(&plan, &source, &src).unwrap();
            let via_replace = op.apply(&src).expect("source string matches its own pattern");
            prop_assert_eq!(via_dsl, via_replace);
        }
    }

    /// The pattern-derived anchored regex accepts exactly the strings the
    /// pattern matches (checked on the generating string and mutations).
    #[test]
    fn pattern_regex_agrees_with_pattern_matching(s in data_string(), probe in data_string()) {
        let pattern = tokenize(&s);
        let regex = Regex::new(&pattern.to_regex()).unwrap();
        prop_assert!(regex.is_full_match(&s) || s.is_empty());
        prop_assert_eq!(regex.is_full_match(&probe), pattern.matches(&probe));
    }

    /// replace_all never panics and leaves non-matching strings untouched
    /// for anchored pattern regexes.
    #[test]
    fn replace_all_total(s in data_string(), probe in data_string()) {
        prop_assume!(!s.is_empty());
        let pattern = tokenize(&s);
        let regex = Regex::new(&pattern.to_regex()).unwrap();
        let out = regex.replace_all(&probe, "X");
        if !pattern.matches(&probe) {
            prop_assert_eq!(out, probe);
        } else {
            prop_assert_eq!(out, "X");
        }
    }
}
