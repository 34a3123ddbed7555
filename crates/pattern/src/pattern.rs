use std::cell::RefCell;
use std::fmt;

use crate::error::PatternError;
use crate::token::{Quantifier, Token, TokenClass};

/// A data pattern: a sequence of [`Token`]s describing the structure of a
/// string (Section 3.1 of the paper).
///
/// Patterns are the unit at which CLX users *verify* transformations: they
/// are shown to the user in the paper's notation (`<D>3'-'<D>3'-'<D>4`) and
/// as Wrangler-style regular expressions, and they are the objects the
/// clustering and synthesis layers operate on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    tokens: Vec<Token>,
}

/// The slice of a concrete string covered by one token of a pattern, as
/// produced by [`Pattern::split`]: a byte range into that string, read
/// back with [`TokenSlice::text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenSlice {
    /// Zero-based index of the token within the pattern.
    pub token_index: usize,
    /// Byte offset (inclusive) where the slice starts.
    pub start: usize,
    /// Byte offset (exclusive) where the slice ends.
    pub end: usize,
}

impl TokenSlice {
    /// The text this slice covers in `s`, the string it was cut from.
    pub fn text<'s>(&self, s: &'s str) -> &'s str {
        &s[self.start..self.end]
    }
}

impl Pattern {
    /// Build a pattern from a vector of tokens.
    pub fn new(tokens: Vec<Token>) -> Self {
        Pattern { tokens }
    }

    /// The empty pattern (matches only the empty string).
    pub fn empty() -> Self {
        Pattern { tokens: Vec::new() }
    }

    /// The tokens of this pattern.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` if the pattern has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The token at zero-based index `i`.
    pub fn token(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    /// The token at **one-based** index `i`, the convention used by the
    /// paper's `Extract(i, j)` operator.
    pub fn token_one_based(&self, i: usize) -> Result<&Token, PatternError> {
        if i == 0 || i > self.tokens.len() {
            return Err(PatternError::TokenIndexOutOfBounds {
                index: i,
                len: self.tokens.len(),
            });
        }
        Ok(&self.tokens[i - 1])
    }

    /// Iterate over the tokens.
    pub fn iter(&self) -> std::slice::Iter<'_, Token> {
        self.tokens.iter()
    }

    /// Append a token.
    pub fn push(&mut self, t: Token) {
        self.tokens.push(t);
    }

    /// Token frequency `Q(<t>, p)` of a base token class (Eq. 1 of the
    /// paper): the sum of quantifiers of all tokens of class `class`, with
    /// `+` counted as 1. Literal tokens contribute 0.
    pub fn token_frequency(&self, class: TokenClass) -> usize {
        self.tokens
            .iter()
            .filter(|t| t.class == class)
            .map(Token::frequency_weight)
            .sum()
    }

    /// Does the whole string `s` match this pattern?
    ///
    /// Runs [`Pattern::split`]'s forward pass only. On ASCII input it does
    /// not allocate: the pass reads the bytes in place and fills per-thread
    /// buffers that are reused from call to call. (A pass needing more than
    /// 256 reachable positions, such as a `+` token over a long run, grows
    /// them for that call.) Other input is decoded to characters first.
    pub fn matches(&self, s: &str) -> bool {
        with_reach(|reach| {
            if s.is_ascii() {
                self.reach(s.as_bytes(), reach)
            } else {
                self.reach(&s.chars().collect::<Vec<_>>(), reach)
            }
        })
    }

    /// Split `s` into the per-token slices described by this pattern, or
    /// fail if `s` does not match.
    ///
    /// Matching is anchored at both ends. Exact quantifiers consume exactly
    /// their count of characters; each `+` takes the longest run that lets
    /// the rest match, so overlapping classes (`<AN>+'-'<AN>+`) work.
    ///
    /// The matcher is iterative: a forward pass records each token's
    /// reachable start positions, and a backward walk from the end picks
    /// each token's largest feasible start. Valid splits are closed under
    /// pointwise maximum, so this is the greedy longest-first split. Cost
    /// is O(tokens × chars), O(tokens + chars) when every token has one
    /// reachable start; no input recurses.
    pub fn split(&self, s: &str) -> Result<Vec<TokenSlice>, PatternError> {
        let cuts = if s.is_ascii() {
            self.cuts(s.as_bytes())
        } else {
            let chars: Vec<char> = s.chars().collect();
            self.cuts(&chars).map(|mut cuts| {
                let bytes: Vec<usize> = s.char_indices().map(|(b, _)| b).chain([s.len()]).collect();
                cuts.iter_mut().for_each(|cut| *cut = bytes[*cut]);
                cuts
            })
        };
        let Some(cuts) = cuts else {
            return Err(PatternError::NoMatch {
                pattern: self.to_string(),
                value: s.to_string(),
            });
        };
        Ok(cuts
            .windows(2)
            .enumerate()
            .map(|(token_index, w)| TokenSlice {
                token_index,
                start: w[0],
                end: w[1],
            })
            .collect())
    }

    /// Where each token starts in `units` (plus `units.len()` last), or
    /// `None` on no match: the forward pass, then a backward walk that
    /// picks each token's largest feasible start.
    fn cuts<U: Copy + Into<char>>(&self, units: &[U]) -> Option<Vec<usize>> {
        with_reach(|reach| {
            if !self.reach(units, reach) {
                return None;
            }
            let Reach { starts, bounds } = reach;
            let mut cuts = vec![0; self.tokens.len() + 1];
            cuts[self.tokens.len()] = units.len();
            for (i, tok) in self.tokens.iter().enumerate().rev() {
                let end = cuts[i + 1];
                cuts[i] = match (&tok.class, tok.quantifier) {
                    (TokenClass::Literal(lit), _) => end - lit.chars().count(),
                    (_, Quantifier::Exact(n)) => end - n,
                    // Every reachable start below `end` lies inside the class
                    // run ending at `end`, or `end` would not be reachable.
                    (_, Quantifier::OneOrMore) => {
                        let set = &starts[bounds[i]..bounds[i + 1]];
                        set[set.partition_point(|&p| p < end) - 1]
                    }
                };
            }
            Some(cuts)
        })
    }

    /// The matcher's forward pass over `units` (the bytes of an ASCII
    /// string, or the characters of any string): fills
    /// `reach.starts[reach.bounds[i]..reach.bounds[i + 1]]` with the
    /// ascending positions `p` where the tokens before `i` match
    /// `units[..p]`. `false` once a set is empty or `units.len()` is not
    /// reachable.
    fn reach<U: Copy + Into<char>>(&self, units: &[U], reach: &mut Reach) -> bool {
        let Reach { starts, bounds } = reach;
        starts.clear();
        starts.push(0);
        bounds.clear();
        bounds.extend([0, 1]);
        for (i, tok) in self.tokens.iter().enumerate() {
            let (lo, hi) = (bounds[i], starts.len());
            match (&tok.class, tok.quantifier) {
                (TokenClass::Literal(lit), _) => {
                    let width = lit.chars().count();
                    for k in lo..hi {
                        let p = starts[k];
                        if units
                            .get(p..p + width)
                            .is_some_and(|w| lit.chars().eq(w.iter().map(|&u| u.into())))
                        {
                            starts.push(p + width);
                        }
                    }
                }
                (class, quantifier) => {
                    // `units[p..run_end]` is in the class for the current
                    // start `p`; starts ascend, so the scan is O(units).
                    let mut run_end = 0;
                    for k in lo..hi {
                        let p = starts[k];
                        let limit = match quantifier {
                            Quantifier::Exact(n) => p.saturating_add(n).min(units.len()),
                            Quantifier::OneOrMore => units.len(),
                        };
                        run_end = run_end.max(p);
                        while run_end < limit && class.contains_char(units[run_end].into()) {
                            run_end += 1;
                        }
                        match quantifier {
                            Quantifier::Exact(n) => {
                                if run_end - p >= n {
                                    starts.push(p + n);
                                }
                            }
                            // Every end in `(p, run_end]` not already added
                            // by an earlier start inside the same run.
                            Quantifier::OneOrMore => {
                                let from = starts[hi..].last().map_or(p, |&last| last.max(p));
                                starts.extend(from + 1..=run_end);
                            }
                        }
                    }
                }
            }
            if starts.len() == hi {
                return false;
            }
            bounds.push(starts.len());
        }
        starts.last() == Some(&units.len())
    }

    /// Is `self` equal to or a generalization of `child`?
    ///
    /// Each token of `self` must *cover* one or more consecutive tokens of
    /// `child`:
    ///
    /// * a literal token covers exactly an identical literal token;
    /// * a base token with an exact quantifier covers a single child token
    ///   of a class it generalizes and with the same exact quantifier;
    /// * a base token with the `+` quantifier covers a non-empty run of
    ///   consecutive child tokens whose classes it generalizes (this is what
    ///   lets `<AN>+` cover `<A>2 <D>3 '-'` after the strategy-3 refinement
    ///   of §4.2).
    ///
    /// The check is one forward pass, like [`Pattern::split`]'s: after each
    /// token of `self` it keeps the ascending child positions that token
    /// can end at. Cost is O(tokens × child tokens); no input recurses.
    pub fn covers(&self, child: &Pattern) -> bool {
        let children = &child.tokens;
        let mut reach = vec![0];
        let mut next = Vec::new();
        for ptok in &self.tokens {
            next.clear();
            match (&ptok.class, ptok.quantifier) {
                (TokenClass::Literal(a), _) => next.extend(
                    reach
                        .iter()
                        .filter(|&&ci| {
                            children.get(ci).and_then(Token::literal_value) == Some(a.as_str())
                        })
                        .map(|ci| ci + 1),
                ),
                (_, Quantifier::Exact(_)) => next.extend(
                    reach
                        .iter()
                        .filter(|&&ci| children.get(ci).is_some_and(|c| ptok.generalizes(c)))
                        .map(|ci| ci + 1),
                ),
                // A `+` covers any non-empty run of generalizable child
                // tokens; `children[ci..run_end]` is such a run for the
                // current start, and starts ascend, so the scan is linear.
                (class, Quantifier::OneOrMore) => {
                    let mut run_end = 0;
                    for &ci in &reach {
                        run_end = run_end.max(ci);
                        while children
                            .get(run_end)
                            .is_some_and(|c| class.generalizes(&c.class))
                        {
                            run_end += 1;
                        }
                        let from = next.last().map_or(ci, |&last: &usize| last.max(ci));
                        next.extend(from + 1..=run_end);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            std::mem::swap(&mut reach, &mut next);
        }
        reach.last() == Some(&children.len())
    }

    /// Merge adjacent tokens of the same base class into a single token.
    ///
    /// Exact quantifiers are summed; if either side is `+` the result is
    /// `+`. This is used after applying a generalization strategy so that
    /// e.g. `<A>+<A>+` collapses to `<A>+` as in Figure 6 of the paper.
    pub fn merge_adjacent(&self) -> Pattern {
        let mut out: Vec<Token> = Vec::with_capacity(self.tokens.len());
        for tok in &self.tokens {
            if let Some(last) = out.last_mut() {
                if last.is_base() && tok.is_base() && last.class == tok.class {
                    last.quantifier = match (last.quantifier, tok.quantifier) {
                        (Quantifier::Exact(a), Quantifier::Exact(b)) => Quantifier::Exact(a + b),
                        _ => Quantifier::OneOrMore,
                    };
                    continue;
                }
            }
            out.push(tok.clone());
        }
        Pattern::new(out)
    }

    /// Render the pattern as an anchored `clx-regex` regular expression
    /// matching exactly the strings of this pattern.
    pub fn to_regex(&self) -> String {
        let mut out = String::from("^");
        for t in &self.tokens {
            out.push_str(&t.to_regex());
        }
        out.push('$');
        out
    }

    /// A compact notation string, e.g. `<U><L>2<D>3'@'<L>5'.'<L>3`.
    pub fn notation(&self) -> String {
        self.tokens.iter().map(Token::notation).collect()
    }

    /// The minimum length (in characters) of any string matching this
    /// pattern.
    pub fn min_string_len(&self) -> usize {
        self.tokens
            .iter()
            .map(|t| match &t.class {
                TokenClass::Literal(s) => s.chars().count(),
                _ => t.quantifier.min_count(),
            })
            .sum()
    }

    /// `true` if every token has an exact (natural-number) quantifier, i.e.
    /// this is a *leaf* pattern as produced by the tokenizer.
    pub fn is_leaf(&self) -> bool {
        self.tokens
            .iter()
            .all(|t| matches!(t.quantifier, Quantifier::Exact(_)))
    }

    /// Indices (zero-based) of the base tokens of this pattern.
    pub fn base_token_indices(&self) -> Vec<usize> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_base())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of base (non-literal) tokens.
    pub fn base_token_count(&self) -> usize {
        self.tokens.iter().filter(|t| t.is_base()).count()
    }
}

/// The matcher's forward-pass buffers (see [`Pattern::split`]):
/// `starts[bounds[i]..bounds[i + 1]]` are the positions token `i` can
/// start at.
struct Reach {
    starts: Vec<usize>,
    bounds: Vec<usize>,
}

impl Reach {
    /// Buffers for [`REACH_CAPACITY`] positions and tokens.
    fn new() -> Reach {
        Reach {
            starts: Vec::with_capacity(REACH_CAPACITY),
            bounds: Vec::with_capacity(REACH_CAPACITY),
        }
    }
}

/// The capacity a thread's buffers hold between calls. A call that
/// outgrows it gets fresh buffers of this size afterwards, so a long value
/// does not pin its buffers for the thread's life, and whether a call
/// allocates depends only on its own input.
const REACH_CAPACITY: usize = 256;

thread_local! {
    static REACH: RefCell<Reach> = RefCell::new(Reach::new());
}

/// Run `f` on this thread's reusable matcher buffers.
fn with_reach<R>(f: impl FnOnce(&mut Reach) -> R) -> R {
    REACH.with(|cell| {
        let mut reach = cell.borrow_mut();
        let out = f(&mut reach);
        if reach.starts.capacity() > REACH_CAPACITY || reach.bounds.capacity() > REACH_CAPACITY {
            *reach = Reach::new();
        }
        out
    })
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.notation())
    }
}

impl FromIterator<Token> for Pattern {
    fn from_iter<I: IntoIterator<Item = Token>>(iter: I) -> Self {
        Pattern::new(iter.into_iter().collect())
    }
}

impl From<Vec<Token>> for Pattern {
    fn from(tokens: Vec<Token>) -> Self {
        Pattern::new(tokens)
    }
}

impl<'a> IntoIterator for &'a Pattern {
    type Item = &'a Token;
    type IntoIter = std::slice::Iter<'a, Token>;
    fn into_iter(self) -> Self::IntoIter {
        self.tokens.iter()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tokenize;

    fn d(n: usize) -> Token {
        Token::base(TokenClass::Digit, n)
    }
    fn lit(s: &str) -> Token {
        Token::literal(s)
    }

    /// The recursive backtracking matcher `split` replaced, kept as the
    /// oracle: greedy, longest-first on `+`, over (token index, char
    /// position). Records `(token_index, char_start, char_end)`.
    fn match_from(
        p: &Pattern,
        chars: &[char],
        ti: usize,
        pos: usize,
        slices: &mut Vec<(usize, usize, usize)>,
    ) -> bool {
        if ti == p.tokens.len() {
            return pos == chars.len();
        }
        let tok = &p.tokens[ti];
        match &tok.class {
            TokenClass::Literal(lit) => {
                let lit_chars: Vec<char> = lit.chars().collect();
                if pos + lit_chars.len() <= chars.len()
                    && chars[pos..pos + lit_chars.len()] == lit_chars[..]
                {
                    slices.push((ti, pos, pos + lit_chars.len()));
                    if match_from(p, chars, ti + 1, pos + lit_chars.len(), slices) {
                        return true;
                    }
                    slices.pop();
                }
                false
            }
            class => {
                let mut max_run = 0;
                while pos + max_run < chars.len() && class.contains_char(chars[pos + max_run]) {
                    max_run += 1;
                }
                let takes: Vec<usize> = match tok.quantifier {
                    Quantifier::Exact(n) if max_run >= n => vec![n],
                    Quantifier::Exact(_) => Vec::new(),
                    Quantifier::OneOrMore => (1..=max_run).rev().collect(),
                };
                for take in takes {
                    slices.push((ti, pos, pos + take));
                    if match_from(p, chars, ti + 1, pos + take, slices) {
                        return true;
                    }
                    slices.pop();
                }
                false
            }
        }
    }

    /// The oracle's split of `s`, as `(token_index, text)` pairs.
    fn oracle_split(p: &Pattern, s: &str) -> Option<Vec<(usize, String)>> {
        let chars: Vec<char> = s.chars().collect();
        let mut slices = Vec::new();
        match_from(p, &chars, 0, 0, &mut slices).then(|| {
            slices
                .iter()
                .map(|&(i, a, b)| (i, chars[a..b].iter().collect()))
                .collect()
        })
    }

    /// A seeded xorshift stream for the randomized oracle properties.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    const CLASSES: [TokenClass; 5] = [
        TokenClass::Digit,
        TokenClass::Lower,
        TokenClass::Upper,
        TokenClass::Alpha,
        TokenClass::AlphaNumeric,
    ];
    /// Characters the values are drawn from: members of every class, the
    /// `-`/`_` that only `<AN>` holds, other punctuation and a non-ASCII
    /// letter.
    const ALPHABET: [char; 12] = ['0', '7', 'a', 'z', 'A', 'Q', '-', '_', '.', '/', ' ', 'é'];
    const LITERALS: [&str; 8] = ["-", "_", ".", "/", "a", "7", "ab", "-é"];

    pub(crate) fn random_pattern(rng: &mut Rng) -> Pattern {
        (0..1 + rng.below(5))
            .map(|_| {
                if rng.below(3) == 0 {
                    Token::literal(rng.pick(&LITERALS))
                } else {
                    let class = CLASSES[rng.below(CLASSES.len())].clone();
                    if rng.below(2) == 0 {
                        Token::plus(class)
                    } else {
                        Token::base(class, 1 + rng.below(3))
                    }
                }
            })
            .collect()
    }

    /// A value drawn from `p`: each token's slice built from its class.
    fn draw_value(p: &Pattern, rng: &mut Rng) -> String {
        let mut out = String::new();
        for tok in p {
            match &tok.class {
                TokenClass::Literal(lit) => out.push_str(lit),
                class => {
                    let members: Vec<char> = ALPHABET
                        .iter()
                        .copied()
                        .filter(|&c| class.contains_char(c))
                        .collect();
                    let count = match tok.quantifier {
                        Quantifier::Exact(n) => n,
                        Quantifier::OneOrMore => 1 + rng.below(4),
                    };
                    out.extend((0..count).map(|_| rng.pick(&members)));
                }
            }
        }
        out
    }

    /// Insert, delete or replace one character.
    fn mutate(value: &str, rng: &mut Rng) -> String {
        let mut chars: Vec<char> = value.chars().collect();
        let at = rng.below(chars.len() + 1);
        match rng.below(3) {
            0 => chars.insert(at, rng.pick(&ALPHABET)),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = rng.pick(&ALPHABET),
            _ => chars.push(rng.pick(&ALPHABET)),
        }
        chars.into_iter().collect()
    }

    #[test]
    fn split_agrees_with_the_backtracking_oracle() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut cases, mut matched) = (0, 0);
        for _ in 0..4_000 {
            let p = random_pattern(&mut rng);
            let mut value = draw_value(&p, &mut rng);
            for _ in 0..4 {
                let got = p.split(&value).ok().map(|slices| {
                    slices
                        .into_iter()
                        .map(|s| (s.token_index, s.text(&value).to_string()))
                        .collect::<Vec<_>>()
                });
                assert_eq!(got, oracle_split(&p, &value), "{p} on {value:?}");
                assert_eq!(p.matches(&value), got.is_some(), "{p} on {value:?}");
                cases += 1;
                matched += usize::from(got.is_some());
                value = mutate(&value, &mut rng);
            }
        }
        // Both outcomes are exercised in earnest.
        assert!(
            matched > cases / 5 && matched < cases * 4 / 5,
            "{matched}/{cases}"
        );
    }

    /// The recursive backtracking `covers` the forward pass replaced, kept
    /// as the oracle: each `+` tries its longest run of child tokens first.
    fn covers_oracle(p: &Pattern, child: &Pattern, pi: usize, ci: usize) -> bool {
        if pi == p.tokens.len() {
            return ci == child.tokens.len();
        }
        if ci == child.tokens.len() {
            return false;
        }
        let ptok = &p.tokens[pi];
        match (&ptok.class, ptok.quantifier) {
            (TokenClass::Literal(a), _) => match &child.tokens[ci].class {
                TokenClass::Literal(b) if a == b => covers_oracle(p, child, pi + 1, ci + 1),
                _ => false,
            },
            (_, Quantifier::Exact(_)) => {
                ptok.generalizes(&child.tokens[ci]) && covers_oracle(p, child, pi + 1, ci + 1)
            }
            (class, Quantifier::OneOrMore) => {
                let mut max_take = 0;
                while ci + max_take < child.tokens.len()
                    && class.generalizes(&child.tokens[ci + max_take].class)
                {
                    max_take += 1;
                }
                (1..=max_take)
                    .rev()
                    .any(|take| covers_oracle(p, child, pi + 1, ci + take))
            }
        }
    }

    /// A child `parent` is likely to cover: each token replaced by one
    /// token (`+`: one to three tokens) of a class it generalizes.
    fn refine(parent: &Pattern, rng: &mut Rng) -> Pattern {
        let mut out = Vec::new();
        for tok in parent {
            let candidates: Vec<TokenClass> = CLASSES
                .iter()
                .chain(&[TokenClass::literal("-"), TokenClass::literal("_")])
                .filter(|c| tok.class.is_base() && tok.class.generalizes(c))
                .cloned()
                .collect();
            match (tok.quantifier, candidates.is_empty()) {
                (_, true) => out.push(tok.clone()),
                (Quantifier::Exact(n), false) => {
                    out.push(match candidates[rng.below(candidates.len())].clone() {
                        TokenClass::Literal(s) if n == 1 => Token::literal(s),
                        TokenClass::Literal(_) => tok.clone(),
                        class => Token::base(class, n),
                    });
                }
                (Quantifier::OneOrMore, false) => {
                    for _ in 0..1 + rng.below(3) {
                        let class = candidates[rng.below(candidates.len())].clone();
                        out.push(match class {
                            TokenClass::Literal(s) => Token::literal(s),
                            class if rng.below(2) == 0 => Token::plus(class),
                            class => Token::base(class, 1 + rng.below(3)),
                        });
                    }
                }
            }
        }
        Pattern::new(out)
    }

    #[test]
    fn covers_agrees_with_the_backtracking_oracle() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let (mut cases, mut covered) = (0, 0);
        for _ in 0..6_000 {
            let parent = random_pattern(&mut rng);
            let child = match rng.below(4) {
                0 => random_pattern(&mut rng),
                _ => refine(&parent, &mut rng),
            };
            let got = parent.covers(&child);
            assert_eq!(
                got,
                covers_oracle(&parent, &child, 0, 0),
                "{parent} covers {child}"
            );
            cases += 1;
            covered += usize::from(got);
        }
        assert!(
            covered > cases / 5 && covered < cases * 4 / 5,
            "{covered}/{cases}"
        );
    }

    #[test]
    fn notation_roundtrip_phone() {
        let p = Pattern::new(vec![d(3), lit("-"), d(3), lit("-"), d(4)]);
        assert_eq!(p.to_string(), "<D>3'-'<D>3'-'<D>4");
    }

    #[test]
    fn token_frequency_eq1() {
        // Example 7 of the paper: pattern from "[CPT-00350".
        let p = Pattern::new(vec![
            lit("["),
            Token::base(TokenClass::Upper, 3),
            lit("-"),
            d(5),
        ]);
        assert_eq!(p.token_frequency(TokenClass::Digit), 5);
        assert_eq!(p.token_frequency(TokenClass::Upper), 3);
        assert_eq!(p.token_frequency(TokenClass::Lower), 0);

        // Target [ '[', <U>+, '-', <D>+, ']' ]: '+' counts as 1.
        let t = Pattern::new(vec![
            lit("["),
            Token::plus(TokenClass::Upper),
            lit("-"),
            Token::plus(TokenClass::Digit),
            lit("]"),
        ]);
        assert_eq!(t.token_frequency(TokenClass::Digit), 1);
        assert_eq!(t.token_frequency(TokenClass::Upper), 1);
    }

    #[test]
    fn matches_exact_quantifiers() {
        let p = Pattern::new(vec![d(3), lit("-"), d(3), lit("-"), d(4)]);
        assert!(p.matches("734-422-8073"));
        assert!(!p.matches("734-422-807"));
        assert!(!p.matches("734-422-80733"));
        assert!(!p.matches("abc-422-8073"));
        assert!(!p.matches(""));
    }

    #[test]
    fn matches_plus_quantifiers_with_backtracking() {
        // <AN>+'-'<AN>+ : '-' is also in <AN>, so greedy matching must
        // backtrack to leave a '-' for the literal.
        let p = Pattern::new(vec![
            Token::plus(TokenClass::AlphaNumeric),
            lit("-"),
            Token::plus(TokenClass::AlphaNumeric),
        ]);
        assert!(p.matches("abc-def"));
        assert!(p.matches("a-b-c"));
        // The leading `+` takes the longest run that leaves a match.
        let texts: Vec<&str> = p
            .split("a-b-c")
            .unwrap()
            .into_iter()
            .map(|s| s.text("a-b-c"))
            .collect();
        assert_eq!(texts, ["a-b", "-", "c"]);
        assert!(!p.matches("abc"));
        assert!(!p.matches("-abc"));
    }

    #[test]
    fn split_produces_slices() {
        let p = Pattern::new(vec![d(3), lit("-"), d(4)]);
        let slices = p.split("555-1234").unwrap();
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].text("555-1234"), "555");
        assert_eq!(slices[1].text("555-1234"), "-");
        assert_eq!(slices[2].text("555-1234"), "1234");
        assert_eq!(slices[2].start, 4);
        assert_eq!(slices[2].end, 8);
    }

    #[test]
    fn split_fails_cleanly() {
        let p = Pattern::new(vec![d(3)]);
        let err = p.split("12a").unwrap_err();
        assert!(matches!(err, PatternError::NoMatch { .. }));
    }

    #[test]
    fn split_unicode_offsets_are_bytes() {
        let p = Pattern::new(vec![lit("é"), d(2)]);
        let slices = p.split("é42").unwrap();
        assert_eq!(slices[0].end, 2); // 'é' is two bytes
        assert_eq!(slices[1].start, 2);
        assert_eq!(slices[1].text("é42"), "42");
    }

    #[test]
    fn empty_pattern_matches_empty_string_only() {
        let p = Pattern::empty();
        assert!(p.matches(""));
        assert!(!p.matches("x"));
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn covers_identical() {
        let p = tokenize("734-422-8073");
        assert!(p.covers(&p));
    }

    #[test]
    fn covers_quantifier_generalization() {
        let leaf = tokenize("Bob123@gmail.com");
        // strategy 1: numbers -> '+'
        let parent = Pattern::new(vec![
            Token::plus(TokenClass::Upper),
            Token::plus(TokenClass::Lower),
            Token::plus(TokenClass::Digit),
            lit("@"),
            Token::plus(TokenClass::Lower),
            lit("."),
            Token::plus(TokenClass::Lower),
        ]);
        assert!(parent.covers(&leaf));
        assert!(!leaf.covers(&parent));
    }

    #[test]
    fn covers_merging_generalization() {
        let leaf = tokenize("Bob123@gmail.com");
        // Figure 6 level P3: <AN>+'@'<AN>+'.'<AN>+ — each <AN>+ covers a run
        // of child tokens.
        let p3 = Pattern::new(vec![
            Token::plus(TokenClass::AlphaNumeric),
            lit("@"),
            Token::plus(TokenClass::AlphaNumeric),
            lit("."),
            Token::plus(TokenClass::AlphaNumeric),
        ]);
        assert!(p3.covers(&leaf));
    }

    #[test]
    fn covers_rejects_structural_mismatch() {
        let a = tokenize("734-422-8073");
        let b = tokenize("(734) 422-8073");
        assert!(!a.covers(&b));
        assert!(!b.covers(&a));
    }

    #[test]
    fn merge_adjacent_sums_exact() {
        let p = Pattern::new(vec![d(2), d(3), lit("-"), d(1)]);
        let merged = p.merge_adjacent();
        assert_eq!(merged.to_string(), "<D>5'-'<D>");
    }

    #[test]
    fn merge_adjacent_plus_dominates() {
        let p = Pattern::new(vec![Token::plus(TokenClass::Digit), d(3)]);
        assert_eq!(p.merge_adjacent().to_string(), "<D>+");
    }

    #[test]
    fn merge_adjacent_does_not_merge_literals() {
        let p = Pattern::new(vec![lit("-"), lit("-")]);
        assert_eq!(p.merge_adjacent().len(), 2);
    }

    #[test]
    fn regex_rendering() {
        let p = Pattern::new(vec![d(3), lit("-"), d(4)]);
        assert_eq!(p.to_regex(), "^[0-9]{3}-[0-9]{4}$");
    }

    #[test]
    fn one_based_token_access() {
        let p = Pattern::new(vec![d(3), lit("-"), d(4)]);
        assert_eq!(p.token_one_based(1).unwrap(), &d(3));
        assert_eq!(p.token_one_based(3).unwrap(), &d(4));
        assert!(p.token_one_based(0).is_err());
        assert!(p.token_one_based(4).is_err());
    }

    #[test]
    fn min_string_len() {
        let p = Pattern::new(vec![d(3), lit("--"), Token::plus(TokenClass::Lower)]);
        assert_eq!(p.min_string_len(), 6);
    }

    #[test]
    fn leaf_detection() {
        assert!(tokenize("abc-123").is_leaf());
        let parent = Pattern::new(vec![Token::plus(TokenClass::Lower)]);
        assert!(!parent.is_leaf());
    }

    #[test]
    fn base_token_accounting() {
        let p = Pattern::new(vec![d(3), lit("-"), d(4)]);
        assert_eq!(p.base_token_count(), 2);
        assert_eq!(p.base_token_indices(), vec![0, 2]);
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let p: Pattern = vec![d(1), lit(":")].into_iter().collect();
        assert_eq!(p.len(), 2);
        let classes: Vec<_> = (&p).into_iter().map(|t| t.class.clone()).collect();
        assert_eq!(classes[0], TokenClass::Digit);
    }
}
