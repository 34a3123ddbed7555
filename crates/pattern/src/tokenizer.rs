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
    scan_leaf(s, |token| tokens.push(token.into_token(s)));
    Pattern::new(tokens)
}

/// Write a compact byte key of `s`'s leaf pattern to `key`, replacing its
/// contents: two strings get equal keys exactly when [`tokenize`] gives
/// them equal patterns. Unlike `tokenize` it allocates nothing once `key`
/// has grown, so a table of leaves keyed by it needs `tokenize` only for a
/// leaf it has not seen yet. It reads `s` byte by byte and writes one key
/// entry per token: an ASCII literal is one byte, a class run a tag byte
/// and its length.
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
    scan_leaf(s, |token| push_key(key, s, token));
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
    scan_leaf(s, |token| {
        slices.push(token.slice(token_index));
        token_index += 1;
    });
}

/// [`leaf_key`] and [`leaf_slices`] in one scan of `s`: `key` is replaced
/// by the leaf key, and the token slices are appended to `slices`.
///
/// ```
/// use clx_pattern::{leaf_key, leaf_key_and_slices, leaf_slices};
///
/// let (mut key, mut slices) = (Vec::new(), Vec::new());
/// leaf_key_and_slices("(734) 645", &mut key, &mut slices);
/// let (mut one_key, mut one_slices) = (Vec::new(), Vec::new());
/// leaf_key("(734) 645", &mut one_key);
/// leaf_slices("(734) 645", &mut one_slices);
/// assert_eq!((key, slices), (one_key, one_slices));
/// ```
pub fn leaf_key_and_slices(s: &str, key: &mut Vec<u8>, slices: &mut Vec<TokenSlice>) {
    key.clear();
    let mut token_index = 0;
    scan_leaf(s, |token| {
        push_key(key, s, token);
        slices.push(token.slice(token_index));
        token_index += 1;
    });
}

/// Append one token of `s` to a [`leaf_key`]. A literal is its UTF-8
/// bytes (one `push` for an ASCII literal); a run is a tag byte that
/// starts no UTF-8 sequence, then its length in LEB128. Both are
/// self-delimiting, so distinct token sequences never share a key.
#[inline(always)]
fn push_key(key: &mut Vec<u8>, s: &str, token: LeafToken) {
    let LeafToken { class, start, end } = token;
    if class < SYMBOL {
        key.push(0xF8 + class);
        let mut len = end - start;
        while len >= 0x80 {
            key.push(len as u8 | 0x80);
            len >>= 7;
        }
        key.push(len as u8);
    } else if class == SYMBOL {
        key.push(s.as_bytes()[start]);
    } else {
        key.extend_from_slice(&s.as_bytes()[start..end]);
    }
}

/// One token of a string's leaf pattern, as [`scan_leaf`] reports it: its
/// scanner class and the half-open byte range it covers. A `DIGIT`,
/// `LOWER` or `UPPER` token is a maximal run of that class (ASCII, so its
/// length is its byte count); a `SYMBOL` or `WIDE` token is one literal
/// character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeafToken {
    class: u8,
    start: usize,
    end: usize,
}

impl LeafToken {
    /// The pattern token, reading a literal's text from `s`.
    fn into_token(self, s: &str) -> Token {
        let class = match self.class {
            DIGIT => TokenClass::Digit,
            LOWER => TokenClass::Lower,
            UPPER => TokenClass::Upper,
            _ => return Token::literal(&s[self.start..self.end]),
        };
        Token::base(class, self.end - self.start)
    }

    /// The token's slice, as token `token_index` of its string.
    fn slice(self, token_index: usize) -> TokenSlice {
        TokenSlice {
            token_index,
            start: self.start,
            end: self.end,
        }
    }
}

/// The scanner's byte classes. The three run classes are numbered by
/// [`TokenClass::leaf_class_index`].
const DIGIT: u8 = 0;
const LOWER: u8 = 1;
const UPPER: u8 = 2;
/// An ASCII byte that is a literal token on its own.
const SYMBOL: u8 = 3;
/// A byte of a multi-byte UTF-8 sequence: its character is a literal.
const WIDE: u8 = 4;

/// The scanner class of every byte.
const BYTE_CLASS: [u8; 256] = {
    let mut table = [WIDE; 256];
    let mut b = 0;
    while b < 0x80 {
        table[b] = match b as u8 {
            b'0'..=b'9' => DIGIT,
            b'a'..=b'z' => LOWER,
            b'A'..=b'Z' => UPPER,
            _ => SYMBOL,
        };
        b += 1;
    }
    table
};

/// Scan `s` into its leaf tokens, in order, following the rules documented
/// on [`tokenize`]. The one definition behind [`tokenize`], [`leaf_key`],
/// [`leaf_slices`] and [`tokenize_detailed`], so they can never disagree.
///
/// It reads bytes, not `char`s, and calls `emit` once per token: an inner
/// loop consumes a whole class run, and an ASCII literal is its one byte.
/// Only at the first byte of a multi-byte UTF-8 sequence does it decode a
/// `char`, which becomes a literal.
#[inline(always)]
fn scan_leaf(s: &str, mut emit: impl FnMut(LeafToken)) {
    let bytes = s.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        let class = BYTE_CLASS[bytes[at] as usize];
        let start = at;
        at += 1;
        if class < SYMBOL {
            while at < bytes.len() && BYTE_CLASS[bytes[at] as usize] == class {
                at += 1;
            }
        } else if class == WIDE {
            let c = s[start..]
                .chars()
                .next()
                .expect("`start` is a char boundary");
            at = start + c.len_utf8();
        }
        emit(LeafToken {
            class,
            start,
            end: at,
        });
    }
}

/// Like [`tokenize`] but also returns the byte slices each token covers.
pub fn tokenize_detailed(s: &str) -> TokenizedString {
    let mut tokens = Vec::new();
    let mut slices = Vec::new();
    scan_leaf(s, |token| {
        slices.push(token.slice(tokens.len()));
        tokens.push(token.into_token(s));
    });
    TokenizedString {
        raw: s.to_string(),
        pattern: Pattern::new(tokens),
        slices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Quantifier;

    /// One token as the char-at-a-time scanner reported it.
    #[derive(Debug, Clone)]
    enum ReferenceToken {
        Run(TokenClass, usize),
        Literal(char),
    }

    /// The char-at-a-time scanner the byte scanner replaced, kept as the
    /// oracle it is checked against: it walks `char_indices`, classifies
    /// every character and closes a run when the class changes.
    fn scan_leaf_reference(s: &str) -> Vec<(ReferenceToken, (usize, usize))> {
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
        let mut out = Vec::new();
        let mut run: Option<(TokenClass, usize)> = None;
        for (at, c) in s.char_indices() {
            match precise_class(c) {
                Some(class) => match &run {
                    Some((current, _)) if *current == class => {}
                    _ => {
                        if let Some((class, start)) = run.take() {
                            out.push((ReferenceToken::Run(class, at - start), (start, at)));
                        }
                        run = Some((class, at));
                    }
                },
                None => {
                    if let Some((class, start)) = run.take() {
                        out.push((ReferenceToken::Run(class, at - start), (start, at)));
                    }
                    out.push((ReferenceToken::Literal(c), (at, at + c.len_utf8())));
                }
            }
        }
        if let Some((class, start)) = run {
            out.push((
                ReferenceToken::Run(class, s.len() - start),
                (start, s.len()),
            ));
        }
        out
    }

    /// The leaf key as the char scanner wrote it: UTF-8 bytes per literal,
    /// a class tag and a LEB128 length per run.
    fn leaf_key_reference(tokens: &[(ReferenceToken, (usize, usize))]) -> Vec<u8> {
        let mut key = Vec::new();
        for (token, _) in tokens {
            match token {
                ReferenceToken::Literal(c) => {
                    key.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes())
                }
                ReferenceToken::Run(class, len) => {
                    key.push(match class {
                        TokenClass::Digit => 0xF8,
                        TokenClass::Lower => 0xF9,
                        _ => 0xFA,
                    });
                    let mut len = *len;
                    while len >= 0x80 {
                        key.push(len as u8 | 0x80);
                        len >>= 7;
                    }
                    key.push(len as u8);
                }
            }
        }
        key
    }

    /// The scanner's report of a reference token.
    fn as_leaf_token((token, (start, end)): &(ReferenceToken, (usize, usize))) -> LeafToken {
        let class = match token {
            ReferenceToken::Run(class, _) => class.leaf_class_index().unwrap() as u8,
            ReferenceToken::Literal(c) if c.is_ascii() => SYMBOL,
            ReferenceToken::Literal(_) => WIDE,
        };
        LeafToken {
            class,
            start: *start,
            end: *end,
        }
    }

    /// A splitmix64 stream: seeded inputs without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random ASCII string: runs of one class (some of 128 or more
    /// characters, so their key length takes two LEB128 bytes) mixed with
    /// single characters of every class, punctuation and control bytes.
    fn random_ascii(rng: &mut Rng) -> String {
        const POOLS: [&str; 5] = [
            "0123456789",
            "abcdefghijklmnopqrstuvwxyz",
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
            " !\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~",
            "\u{0}\u{1}\t\n\r\u{1f}\u{7f}",
        ];
        let mut s = String::new();
        for _ in 0..rng.below(12) {
            let pool = POOLS[rng.below(POOLS.len())].as_bytes();
            let len = match rng.below(8) {
                0 => 128 + rng.below(300),
                1 => 2 + rng.below(20),
                _ => 1,
            };
            let c = pool[rng.below(pool.len())] as char;
            for _ in 0..len {
                if rng.below(4) == 0 {
                    s.push(pool[rng.below(pool.len())] as char);
                } else {
                    s.push(c);
                }
            }
        }
        s
    }

    /// `s` with a few of its characters replaced by, or followed by,
    /// characters outside ASCII (two-, three- and four-byte UTF-8).
    fn non_ascii_mutation(rng: &mut Rng, s: &str) -> String {
        const WIDE_CHARS: [char; 8] = ['é', 'ß', '€', 'π', '中', '\u{80}', '\u{ffff}', '😀'];
        let mut out = String::new();
        for c in s.chars() {
            match rng.below(6) {
                0 => out.push(WIDE_CHARS[rng.below(WIDE_CHARS.len())]),
                1 => {
                    out.push(c);
                    out.push(WIDE_CHARS[rng.below(WIDE_CHARS.len())]);
                }
                _ => out.push(c),
            }
        }
        if out == s {
            out.push(WIDE_CHARS[rng.below(WIDE_CHARS.len())]);
        }
        out
    }

    #[test]
    fn byte_scanner_agrees_with_the_char_oracle() {
        let mut rng = Rng(0x00C1_A7E5);
        let mut inputs: Vec<String> = vec![
            String::new(),
            "7".repeat(127),
            "7".repeat(128),
            "a".repeat(16_384),
            "Bob123@gmail.com".into(),
            "(734) 645-8397".into(),
            "a€b".into(),
        ];
        for _ in 0..400 {
            let ascii = random_ascii(&mut rng);
            let mutated = non_ascii_mutation(&mut rng, &ascii);
            inputs.push(ascii);
            inputs.push(mutated);
        }
        let (mut key, mut slices, mut joint_key, mut joint_slices) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for s in &inputs {
            let expected = scan_leaf_reference(s);
            let mut scanned = Vec::new();
            scan_leaf(s, |token| scanned.push(token));
            let expected_scan: Vec<LeafToken> = expected.iter().map(as_leaf_token).collect();
            assert_eq!(scanned, expected_scan, "{s:?}");

            let expected_key = leaf_key_reference(&expected);
            let expected_slices: Vec<TokenSlice> = expected
                .iter()
                .enumerate()
                .map(|(token_index, &(_, (start, end)))| TokenSlice {
                    token_index,
                    start,
                    end,
                })
                .collect();
            let expected_pattern = Pattern::new(
                expected
                    .iter()
                    .map(|(token, _)| match token {
                        ReferenceToken::Run(class, len) => Token::base(class.clone(), *len),
                        ReferenceToken::Literal(c) => Token::literal(c.to_string()),
                    })
                    .collect(),
            );

            leaf_key(s, &mut key);
            assert_eq!(key, expected_key, "{s:?}");
            slices.clear();
            leaf_slices(s, &mut slices);
            assert_eq!(slices, expected_slices, "{s:?}");
            joint_slices.clear();
            leaf_key_and_slices(s, &mut joint_key, &mut joint_slices);
            assert_eq!((&joint_key, &joint_slices), (&key, &slices), "{s:?}");
            assert_eq!(tokenize(s), expected_pattern, "{s:?}");
            let detailed = tokenize_detailed(s);
            assert_eq!(detailed.pattern, expected_pattern, "{s:?}");
            assert_eq!(detailed.slices, expected_slices, "{s:?}");
            assert_eq!(detailed.raw, *s);
        }
        // The inputs reach every scanner class and both LEB128 widths.
        let all: String = inputs.concat();
        for class in [DIGIT, LOWER, UPPER, SYMBOL, WIDE] {
            assert!(all.bytes().any(|b| BYTE_CLASS[b as usize] == class));
        }
    }

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
