use crate::pattern::{Pattern, TokenSlice};
use crate::token::{Token, TokenClass};

/// The result of tokenizing a raw string: the derived leaf [`Pattern`]
/// together with the per-token slices of the original string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenizedString {
    /// The original string.
    pub raw: String,
    /// The most-specific pattern describing it.
    pub pattern: Pattern,
    /// One slice per token of `pattern`.
    pub slices: Vec<TokenSlice>,
}

/// Tokenize a raw string into its most-specific leaf pattern, following the
/// rules of Section 4.1 of the paper:
///
/// * every non-alphanumeric character becomes an individual **literal**
///   token (so `"(734) 645"` yields `'('`, `<D>3`, `')'`, `' '`, `<D>3`);
/// * maximal runs of characters of the most precise base class (`digit`,
///   `lower`, `upper`) become a single base token with a natural-number
///   quantifier;
/// * quantifiers are always natural numbers at this stage — the `+` form
///   only appears after agglomerative refinement.
///
/// # Example
///
/// ```
/// use clx_pattern::tokenize;
/// assert_eq!(tokenize("Bob123@gmail.com").to_string(),
///            "<U><L>2<D>3'@'<L>5'.'<L>3");
/// ```
pub fn tokenize(s: &str) -> Pattern {
    // No intermediate buffers: this is the hottest function of the whole
    // system (clustering profiles every row with it, and the batch engine
    // derives its dispatch signature from it).
    let mut tokens: Vec<Token> = Vec::new();
    scan_leaf(s, |token| {
        tokens.push(match token {
            LeafToken::Run(class, len) => Token::base(class, len),
            LeafToken::Literal(c) => Token::literal(c.to_string()),
        })
    });
    Pattern::new(tokens)
}

/// Write a compact byte key of `s`'s leaf pattern to `key`, replacing its
/// contents: two strings get equal keys exactly when [`tokenize`] gives
/// them equal patterns. Unlike `tokenize` it allocates nothing once `key`
/// has grown, so a table of leaves keyed by it needs `tokenize` only for a
/// leaf it has not seen yet.
///
/// ```
/// use clx_pattern::leaf_key;
///
/// let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
/// leaf_key("734-422-8073", &mut a);
/// leaf_key("555-123-4567", &mut b);
/// leaf_key("555.123.4567", &mut c);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn leaf_key(s: &str, key: &mut Vec<u8>) {
    key.clear();
    // A literal is its UTF-8 bytes; a run is a tag byte that starts no
    // UTF-8 sequence, then its length in LEB128. Both are self-delimiting,
    // so distinct token sequences never share a key.
    scan_leaf(s, |token| match token {
        LeafToken::Literal(c) => key.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
        LeafToken::Run(class, mut len) => {
            key.push(match class {
                TokenClass::Digit => 0xF8,
                TokenClass::Lower => 0xF9,
                TokenClass::Upper => 0xFA,
                other => unreachable!("leaf runs are digit, lower or upper, not {other:?}"),
            });
            while len >= 0x80 {
                key.push(len as u8 | 0x80);
                len >>= 7;
            }
            key.push(len as u8);
        }
    });
}

/// One token of a string's leaf pattern: a maximal run of one base class,
/// or a single literal character.
enum LeafToken {
    Run(TokenClass, usize),
    Literal(char),
}

/// Scan `s` into its leaf tokens, in order, following the rules documented
/// on [`tokenize`]. The one definition behind [`tokenize`] and
/// [`leaf_key`], so the two can never disagree.
fn scan_leaf(s: &str, mut emit: impl FnMut(LeafToken)) {
    let mut run: Option<(TokenClass, usize)> = None;
    for c in s.chars() {
        match precise_class(c) {
            Some(class) => match &mut run {
                Some((current, len)) if *current == class => *len += 1,
                _ => {
                    if let Some((class, len)) = run.take() {
                        emit(LeafToken::Run(class, len));
                    }
                    run = Some((class, 1));
                }
            },
            None => {
                if let Some((class, len)) = run.take() {
                    emit(LeafToken::Run(class, len));
                }
                emit(LeafToken::Literal(c));
            }
        }
    }
    if let Some((class, len)) = run {
        emit(LeafToken::Run(class, len));
    }
}

/// Like [`tokenize`] but also returns the character slices each token covers.
pub fn tokenize_detailed(s: &str) -> TokenizedString {
    let chars: Vec<char> = s.chars().collect();
    let mut byte_offsets = Vec::with_capacity(chars.len() + 1);
    let mut off = 0usize;
    for c in &chars {
        byte_offsets.push(off);
        off += c.len_utf8();
    }
    byte_offsets.push(off);

    let mut tokens = Vec::new();
    let mut slices = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if let Some(class) = precise_class(c) {
            let start = i;
            while i < chars.len() && precise_class(chars[i]) == Some(class.clone()) {
                i += 1;
            }
            let run_len = i - start;
            slices.push((tokens.len(), start, i));
            tokens.push(Token::base(class, run_len));
        } else {
            // Non-alphanumeric characters each become an individual literal
            // token carrying the character itself.
            slices.push((tokens.len(), i, i + 1));
            tokens.push(Token::literal(c.to_string()));
            i += 1;
        }
    }

    let pattern = Pattern::new(tokens);
    let slices = slices
        .into_iter()
        .map(|(token_index, cs, ce)| TokenSlice {
            token_index,
            start: byte_offsets[cs],
            end: byte_offsets[ce],
            text: chars[cs..ce].iter().collect(),
        })
        .collect();
    TokenizedString {
        raw: s.to_string(),
        pattern,
        slices,
    }
}

/// Tokenization driven by a [`Pattern::split`] instead of a character scan.
///
/// When a string is already known to match some pattern — the way every
/// transformed output of a CLX run matches the labelled target — its leaf
/// tokenization can be *derived* from the pattern's split instead of
/// re-scanned character by character:
///
/// * a slice of a precise base token (`<D>`, `<L>`, `<U>`) is one leaf
///   token of that class whose count is the slice length;
/// * a literal token contributes the same constant text to every string, so
///   its internal tokenization is computed **once** (at construction) and
///   spliced in;
/// * only slices of generalized classes (`<A>`, `<AN>`), whose precise
///   structure genuinely varies per string, are scanned.
///
/// Adjacent same-class runs merge at fragment boundaries, so the result is
/// exactly [`tokenize_detailed`] of the string.
///
/// ```
/// use clx_pattern::{parse_pattern, tokenize_detailed, SplitTokenizer};
///
/// let target = parse_pattern("'['<U>+'-'<D>+']'").unwrap();
/// let tokenizer = SplitTokenizer::new(&target);
/// let derived = tokenizer.tokenize("[CPT-00350]").unwrap();
/// assert_eq!(derived, tokenize_detailed("[CPT-00350]"));
/// assert!(tokenizer.tokenize("no match").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SplitTokenizer {
    pattern: Pattern,
    /// Per pattern token: the precomputed tokenization of its constant
    /// text, for literal tokens.
    literal_fragments: Vec<Option<TokenizedString>>,
}

impl SplitTokenizer {
    /// Build a tokenizer for strings matching `pattern`, tokenizing each
    /// literal token's constant text once up front.
    pub fn new(pattern: &Pattern) -> Self {
        let literal_fragments = pattern
            .iter()
            .map(|t| t.literal_value().map(tokenize_detailed))
            .collect();
        SplitTokenizer {
            pattern: pattern.clone(),
            literal_fragments,
        }
    }

    /// The pattern this tokenizer splits against.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Tokenize `text` by splitting it against the pattern; equals
    /// [`tokenize_detailed`]`(text)`. Returns `None` when `text` does not
    /// match the pattern.
    pub fn tokenize(&self, text: &str) -> Option<TokenizedString> {
        let slices = self.pattern.split(text).ok()?;
        let mut tokens: Vec<Token> = Vec::new();
        let mut texts: Vec<String> = Vec::new();
        for slice in &slices {
            let token = self
                .pattern
                .token(slice.token_index)
                .expect("split yields in-range token indices");
            match &token.class {
                TokenClass::Literal(_) => {
                    let fragment = self.literal_fragments[slice.token_index]
                        .as_ref()
                        .expect("literal tokens have precomputed fragments");
                    splice_fragment(&mut tokens, &mut texts, fragment);
                }
                TokenClass::Digit | TokenClass::Lower | TokenClass::Upper => push_fragment(
                    &mut tokens,
                    &mut texts,
                    Token::base(token.class.clone(), slice.text.chars().count()),
                    &slice.text,
                ),
                TokenClass::Alpha | TokenClass::AlphaNumeric => {
                    // The precise run structure of a generalized slice is
                    // not determined by the pattern: scan just the slice.
                    splice_fragment(&mut tokens, &mut texts, &tokenize_detailed(&slice.text));
                }
            }
        }

        let mut out_slices = Vec::with_capacity(tokens.len());
        let mut offset = 0usize;
        for (token_index, text) in texts.into_iter().enumerate() {
            let start = offset;
            offset += text.len();
            out_slices.push(TokenSlice {
                token_index,
                start,
                end: offset,
                text,
            });
        }
        Some(TokenizedString {
            raw: text.to_string(),
            pattern: Pattern::new(tokens),
            slices: out_slices,
        })
    }
}

/// Append every token of a pre-tokenized fragment, merging at the boundary.
fn splice_fragment(tokens: &mut Vec<Token>, texts: &mut Vec<String>, fragment: &TokenizedString) {
    for slice in &fragment.slices {
        let token = fragment
            .pattern
            .token(slice.token_index)
            .expect("fragment slices index their own pattern");
        push_fragment(tokens, texts, token.clone(), &slice.text);
    }
}

/// Append one `(token, covered text)` fragment, merging it into the
/// previous fragment when both are base tokens of the same class — exactly
/// the maximal-run rule of [`tokenize`]. (Literal tokens never merge:
/// `tokenize` emits one literal token per non-alphanumeric character, and
/// every literal fragment arriving here is already in that form.)
fn push_fragment(tokens: &mut Vec<Token>, texts: &mut Vec<String>, token: Token, text: &str) {
    if text.is_empty() {
        return;
    }
    if let (Some(last_token), Some(last_text)) = (tokens.last_mut(), texts.last_mut()) {
        if last_token.is_base() && token.is_base() && last_token.class == token.class {
            last_text.push_str(text);
            *last_token = Token::base(token.class, last_text.chars().count());
            return;
        }
    }
    tokens.push(token);
    texts.push(text.to_string());
}

/// The most precise base class of a single character (`digit`, `lower`,
/// `upper`), or `None` for characters that become literal tokens.
fn precise_class(c: char) -> Option<TokenClass> {
    if c.is_ascii_digit() {
        Some(TokenClass::Digit)
    } else if c.is_ascii_lowercase() {
        Some(TokenClass::Lower)
    } else if c.is_ascii_uppercase() {
        Some(TokenClass::Upper)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Quantifier;

    #[test]
    fn example_3_from_paper() {
        // "Bob123@gmail.com" -> [<U>, <L>2, <D>3, '@', <L>5, '.', <L>3]
        let p = tokenize("Bob123@gmail.com");
        assert_eq!(p.to_string(), "<U><L>2<D>3'@'<L>5'.'<L>3");
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn phone_formats_from_figure_3() {
        assert_eq!(
            tokenize("(734) 645-8397").to_string(),
            "'('<D>3')'' '<D>3'-'<D>4"
        );
        assert_eq!(
            tokenize("(734)586-7252").to_string(),
            "'('<D>3')'<D>3'-'<D>4"
        );
        assert_eq!(tokenize("734-422-8073").to_string(), "<D>3'-'<D>3'-'<D>4");
        assert_eq!(tokenize("734.236.3466").to_string(), "<D>3'.'<D>3'.'<D>4");
    }

    #[test]
    fn leaf_keys_are_equal_exactly_when_leaves_are() {
        let long_run = "7".repeat(300);
        let values = [
            "",
            "734-422-8073",
            "555-123-4567",
            "555.123.4567",
            "(734) 645-8397",
            "Bob123@gmail.com",
            "Tim456@yahoo.org",
            "a€b",
            "z€q",
            "a\u{1}b",
            "\u{f8}",
            "abc",
            "abcd",
            "ABC",
            long_run.as_str(),
            "7",
        ];
        let mut keys = vec![Vec::new(); values.len()];
        for (value, key) in values.iter().zip(&mut keys) {
            leaf_key(value, key);
        }
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                assert_eq!(
                    keys[i] == keys[j],
                    tokenize(a) == tokenize(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn empty_string() {
        let p = tokenize("");
        assert!(p.is_empty());
    }

    #[test]
    fn single_classes() {
        assert_eq!(tokenize("12345").to_string(), "<D>5");
        assert_eq!(tokenize("abc").to_string(), "<L>3");
        assert_eq!(tokenize("ABC").to_string(), "<U>3");
        assert_eq!(tokenize("@").to_string(), "'@'");
    }

    #[test]
    fn case_transitions_split_tokens() {
        // Most precise classes: upper run then lower run are distinct tokens.
        assert_eq!(tokenize("McMillan").to_string(), "<U><L><U><L>5");
        assert_eq!(tokenize("IBMCorp").to_string(), "<U>4<L>3");
    }

    #[test]
    fn each_symbol_is_its_own_literal() {
        assert_eq!(tokenize("--").to_string(), "'-''-'");
        assert_eq!(tokenize("a  b").to_string(), "<L>' '' '<L>");
    }

    #[test]
    fn underscores_and_hyphens_are_literals_at_leaf_level() {
        assert_eq!(tokenize("a_b-c").to_string(), "<L>'_'<L>'-'<L>");
    }

    #[test]
    fn quantifiers_are_natural_numbers() {
        let p = tokenize("aaaa1111BBBB");
        assert!(p
            .tokens()
            .iter()
            .all(|t| matches!(t.quantifier, Quantifier::Exact(_))));
    }

    #[test]
    fn detailed_slices_cover_string() {
        let t = tokenize_detailed("(734) 645-8397");
        let rebuilt: String = t.slices.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(rebuilt, "(734) 645-8397");
        assert_eq!(t.slices.len(), t.pattern.len());
        // slices are contiguous
        for w in t.slices.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn pattern_derived_by_tokenizer_matches_its_source() {
        for s in [
            "Bob123@gmail.com",
            "(734) 645-8397",
            "734.236.3466",
            "[CPT-00350",
            "Dr. Eran Yahav",
            "+1 724-285-5210",
            "N/A",
        ] {
            let p = tokenize(s);
            assert!(p.matches(s), "pattern {p} should match {s:?}");
        }
    }

    #[test]
    fn unicode_symbols_become_literals() {
        let p = tokenize("a€b");
        assert_eq!(p.to_string(), "<L>'€'<L>");
        assert!(p.matches("a€b"));
    }

    #[test]
    fn split_agrees_with_tokenizer_slices() {
        let t = tokenize_detailed("CPT115");
        let split = t.pattern.split("CPT115").unwrap();
        assert_eq!(split, t.slices);
    }

    #[test]
    fn fast_tokenize_agrees_with_detailed() {
        for s in [
            "",
            "Bob123@gmail.com",
            "(734) 645-8397",
            "+1 724-285-5210",
            "a€b",
            "N/A",
            "--",
            "McMillan",
            "aaaa1111BBBB",
            "   ",
        ] {
            assert_eq!(tokenize(s), tokenize_detailed(s).pattern, "on {s:?}");
        }
    }

    #[test]
    fn split_tokenizer_equals_detailed_tokenization() {
        use crate::parse::parse_pattern;
        // (pattern, matching outputs) pairs covering precise classes,
        // plus-quantifiers, symbol literals, letter literals (constant
        // folding), generalized classes and merge-at-boundary cases.
        let cases: Vec<(&str, Vec<&str>)> = vec![
            ("<D>3'-'<D>3'-'<D>4", vec!["734-422-8073", "555-111-2222"]),
            (
                "'['<U>+'-'<D>+']'",
                vec!["[CPT-00350]", "[X-1]", "[ABCDE-99999]"],
            ),
            ("'Dr. '<U><L>+", vec!["Dr. Smith", "Dr. Yahav"]),
            (
                "<AN>+'@'<AN>+'.'<AN>+",
                vec!["Bob123@gmail.com", "alice99@yahoo.org", "Zed5@x.io"],
            ),
            // Boundary merges: base run adjacent to a literal of the same
            // class, and literal runs splicing into base runs.
            ("<L>+'x'", vec!["abx", "zx"]),
            ("'x'<L>+", vec!["xab"]),
            ("<D>+'5'<D>2", vec!["12511", "9578"]),
            ("<A>+' '<A>+", vec!["Eran Yahav", "bill GATES"]),
            ("<U><L>+", vec!["Smith"]),
        ];
        for (pattern_str, outputs) in cases {
            let pattern = parse_pattern(pattern_str).unwrap();
            let tokenizer = SplitTokenizer::new(&pattern);
            for output in outputs {
                let derived = tokenizer
                    .tokenize(output)
                    .unwrap_or_else(|| panic!("{output:?} must match {pattern_str}"));
                assert_eq!(
                    derived,
                    tokenize_detailed(output),
                    "pattern {pattern_str}, output {output:?}"
                );
            }
        }
    }

    #[test]
    fn split_tokenizer_equals_detailed_on_leaf_patterns() {
        // The leaf pattern of any string trivially matches it: derived
        // tokenization must round-trip.
        for s in ["(734) 645-8397", "N/A", "Bob123@gmail.com", "--", ""] {
            let tokenizer = SplitTokenizer::new(&tokenize(s));
            assert_eq!(tokenizer.tokenize(s).unwrap(), tokenize_detailed(s));
        }
    }

    #[test]
    fn split_tokenizer_rejects_non_matching_text() {
        let tokenizer = SplitTokenizer::new(&tokenize("734-422-8073"));
        assert!(tokenizer.tokenize("N/A").is_none());
        assert!(tokenizer.tokenize("").is_none());
    }
}
