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
    scan_leaf(s, |token, _| tokens.push(token.into_token()));
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
    scan_leaf(s, |token, _| match token {
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

/// Append to `slices` the byte range of each token of `s`'s leaf pattern,
/// token indices counting from 0: the slices of [`tokenize_detailed`]
/// without building the pattern, so a table of many values can keep all
/// its slices in one flat `Vec`.
///
/// ```
/// use clx_pattern::{leaf_slices, tokenize_detailed};
///
/// let mut slices = Vec::new();
/// leaf_slices("(734) 645", &mut slices);
/// assert_eq!(slices, tokenize_detailed("(734) 645").slices);
/// assert_eq!(slices[1].text("(734) 645"), "734");
/// ```
pub fn leaf_slices(s: &str, slices: &mut Vec<TokenSlice>) {
    let mut token_index = 0;
    scan_leaf(s, |_, (start, end)| {
        slices.push(TokenSlice {
            token_index,
            start,
            end,
        });
        token_index += 1;
    });
}

/// One token of a string's leaf pattern: a maximal run of one base class,
/// or a single literal character.
enum LeafToken {
    Run(TokenClass, usize),
    Literal(char),
}

impl LeafToken {
    fn into_token(self) -> Token {
        match self {
            LeafToken::Run(class, len) => Token::base(class, len),
            LeafToken::Literal(c) => Token::literal(c.to_string()),
        }
    }
}

/// Scan `s` into its leaf tokens, in order, each with the byte range it
/// covers, following the rules documented on [`tokenize`]. The one
/// definition behind [`tokenize`], [`leaf_key`], [`leaf_slices`] and
/// [`tokenize_detailed`], so they can never disagree.
fn scan_leaf(s: &str, mut emit: impl FnMut(LeafToken, (usize, usize))) {
    // The open run: its class and its first byte. Run characters are
    // ASCII, so its length is its byte count.
    let mut run: Option<(TokenClass, usize)> = None;
    for (at, c) in s.char_indices() {
        match precise_class(c) {
            Some(class) => match &run {
                Some((current, _)) if *current == class => {}
                _ => {
                    if let Some((class, start)) = run.take() {
                        emit(LeafToken::Run(class, at - start), (start, at));
                    }
                    run = Some((class, at));
                }
            },
            None => {
                if let Some((class, start)) = run.take() {
                    emit(LeafToken::Run(class, at - start), (start, at));
                }
                emit(LeafToken::Literal(c), (at, at + c.len_utf8()));
            }
        }
    }
    if let Some((class, start)) = run {
        emit(LeafToken::Run(class, s.len() - start), (start, s.len()));
    }
}

/// Like [`tokenize`] but also returns the byte slices each token covers.
pub fn tokenize_detailed(s: &str) -> TokenizedString {
    let mut tokens = Vec::new();
    let mut slices = Vec::new();
    scan_leaf(s, |token, (start, end)| {
        slices.push(TokenSlice {
            token_index: tokens.len(),
            start,
            end,
        });
        tokens.push(token.into_token());
    });
    TokenizedString {
        raw: s.to_string(),
        pattern: Pattern::new(tokens),
        slices,
    }
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
        let rebuilt: String = t.slices.iter().map(|s| s.text("(734) 645-8397")).collect();
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
}
