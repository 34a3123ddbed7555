//! Soundness of the search-free screens in front of the automaton's
//! language queries (`clx_pattern::automaton::{member, DisjointFacts}`):
//! on seeded random patterns, a screen that settles a query must agree with
//! the bounded search it skips. Literals include `,`, space, `-`, `_` and a
//! non-ASCII character, and `<AN>` tokens appear, so the fixed-character
//! rule's `-`/`_` exception is exercised.

use proptest::prelude::*;

use clx::pattern::automaton::{member, patterns_subsumed, DisjointFacts, MultiPatternAutomaton};
use clx::pattern::{Pattern, Token, TokenClass};

const CLASSES: [TokenClass; 5] = [
    TokenClass::Digit,
    TokenClass::Lower,
    TokenClass::Upper,
    TokenClass::Alpha,
    TokenClass::AlphaNumeric,
];
const LITERALS: [&str; 9] = [",", " ", "-", "_", ".", "a", "7", ", ", "€"];

/// One token spec, `kind + 3 * (class + 5 * (literal + 9 * count))`.
type TokenSpec = usize;

const SPECS: usize = 3 * 5 * 9 * 3;

/// The token a spec names: a literal, a `+` class token or an exact class
/// token.
fn token(spec: TokenSpec) -> Token {
    let (kind, class, literal, count) = (spec % 3, spec / 3 % 5, spec / 15 % 9, spec / 135);
    let class = CLASSES[class].clone();
    match kind {
        0 => Token::literal(LITERALS[literal]),
        1 => Token::plus(class),
        _ => Token::base(class, 1 + count),
    }
}

fn token_specs() -> impl Strategy<Value = Vec<TokenSpec>> {
    proptest::collection::vec(0..SPECS, 0..5)
}

fn pattern(specs: &[TokenSpec]) -> Pattern {
    Pattern::new(specs.iter().copied().map(token).collect())
}

/// A pattern near `p`, so pairs overlap often enough to matter: some class
/// tokens widened to `+` or to `<AN>`, some literals swapped.
fn near(p: &Pattern, edits: &[usize]) -> Pattern {
    let tokens = p
        .iter()
        .zip(edits.iter().chain(std::iter::repeat(&0)))
        .map(|(t, &edit)| match edit % 4 {
            1 if t.is_base() => Token::plus(t.class.clone()),
            2 if t.is_base() => Token {
                class: TokenClass::AlphaNumeric,
                quantifier: t.quantifier,
            },
            3 if t.is_literal() => Token::literal(LITERALS[edit % LITERALS.len()]),
            _ => t.clone(),
        })
        .collect();
    Pattern::new(tokens)
}

fn pair() -> impl Strategy<Value = (Pattern, Pattern)> {
    (
        (token_specs(), token_specs()),
        proptest::collection::vec(0usize..9, 0..5),
        0usize..2,
    )
        .prop_map(|((a, b), edits, related)| {
            let a = pattern(&a);
            let b = if related == 0 {
                near(&a, &edits)
            } else {
                pattern(&b)
            };
            (a, b)
        })
}

/// The disjointness screen on one pair, each side's facts built once.
fn provably_disjoint(a: &Pattern, b: &Pattern) -> bool {
    DisjointFacts::new(a).disjoint(&DisjointFacts::new(b))
}

fn automaton(patterns: &[&Pattern]) -> MultiPatternAutomaton {
    let slots: Vec<Option<&Pattern>> = patterns.iter().map(|p| Some(*p)).collect();
    MultiPatternAutomaton::build(&slots).expect("small patterns fit")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `member(p)` is a string of `p`'s language.
    #[test]
    fn members_match_their_pattern(specs in token_specs()) {
        let p = pattern(&specs);
        let m = member(&p);
        prop_assert!(m.as_ref().is_some_and(|m| p.matches(m)), "{p}: {m:?}");
    }

    /// A disjointness proof is never contradicted by the search.
    #[test]
    fn disjoint_pairs_have_no_intersection(pair in pair()) {
        let (a, b) = pair;
        if provably_disjoint(&a, &b) {
            let verdict = automaton(&[&a, &b]).intersection_witness(0, 1);
            prop_assert!(verdict == Some(None), "{a} vs {b}: {verdict:?}");
        }
    }

    /// A member no cover matches proves the covers leave part of the
    /// language out.
    #[test]
    fn a_rejected_member_is_never_covered(first in pair(), second in pair()) {
        let ((sub, cover), (other, _)) = (first, second);
        let covers = [&cover, &other];
        let Some(m) = member(&sub) else { return Ok(()) };
        if covers.iter().any(|c| c.matches(&m)) {
            return Ok(());
        }
        let verdict = automaton(&[&sub, &cover, &other]).uncovered_witness(0, &[1, 2]);
        prop_assert!(verdict != Some(None), "{sub} under {cover}, {other}: {m:?}");
    }
}

/// A seeded xorshift stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pattern(&mut self) -> Pattern {
        let specs: Vec<TokenSpec> = (0..1 + self.below(4)).map(|_| self.below(SPECS)).collect();
        pattern(&specs)
    }
}

/// The member screen never contradicts the subsumption automaton, and
/// both of its verdicts, and the disjointness screen, are exercised in
/// earnest.
#[test]
fn the_screen_never_contradicts_the_automaton() {
    let mut rng = Rng(0x51_7CC1_B727_220A);
    let (mut screened, mut proven, mut disjoint) = (0, 0, 0);
    for _ in 0..3_000 {
        let sub = rng.pattern();
        let covers: Vec<Pattern> = (0..1 + rng.below(3))
            .map(|_| match rng.below(2) {
                0 => {
                    let edits: Vec<usize> = (0..sub.len()).map(|_| rng.below(9)).collect();
                    near(&sub, &edits)
                }
                _ => rng.pattern(),
            })
            .collect();
        let refs: Vec<&Pattern> = covers.iter().collect();
        let exact = patterns_subsumed(&sub, &refs);
        let m = member(&sub).expect("every pattern has a member");
        if !refs.iter().any(|cover| cover.matches(&m)) {
            assert_ne!(exact, Some(true), "screened {sub} under {covers:?}");
            screened += 1;
        }
        proven += usize::from(exact == Some(true));
        if provably_disjoint(&sub, &covers[0]) {
            let verdict = automaton(&[&sub, &covers[0]]).intersection_witness(0, 1);
            assert_eq!(verdict, Some(None), "{sub} vs {}", covers[0]);
            disjoint += 1;
        }
    }
    assert!(
        screened > 500 && proven > 300 && disjoint > 500,
        "{screened} {proven} {disjoint}"
    );
}
