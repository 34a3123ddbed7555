//! The subsumption check behind reachability pruning: do the branches
//! ahead of a candidate source pattern jointly claim its whole language?
//!
//! Most checks answer "no", and one concrete string proves it. Before the
//! subsumption automaton runs, a witness screen builds one string of the
//! candidate's language; if no cover matches it, the candidate is not
//! subsumed and the automaton is skipped.

use clx_pattern::automaton::patterns_subsumed;
use clx_pattern::{Pattern, Quantifier, TokenClass};

use crate::synthesize::SynthesisCounts;

/// One string of `sub`'s language: literals verbatim, and each class token
/// as one representative member, repeated `n` times for an exact
/// quantifier and once for `+`. `None` when that string does not match
/// `sub`, so it proves nothing.
fn witness(sub: &Pattern) -> Option<String> {
    let mut w = String::new();
    for token in sub {
        let member = match &token.class {
            TokenClass::Literal(text) => {
                w.push_str(text);
                continue;
            }
            TokenClass::Digit => '0',
            TokenClass::Lower | TokenClass::Alpha => 'a',
            TokenClass::Upper => 'A',
            // The member fewest other classes hold.
            TokenClass::AlphaNumeric => '_',
        };
        let count = match token.quantifier {
            Quantifier::Exact(n) => n,
            Quantifier::OneOrMore => 1,
        };
        w.extend(std::iter::repeat_n(member, count));
    }
    sub.matches(&w).then_some(w)
}

/// Do `covers` jointly claim `sub`'s whole language? `true` only on the
/// automaton's proof (`Some(true)`); an inconclusive automaton answer keeps
/// the candidate. A witness no cover matches settles "no" without the
/// automaton. Each call with covers is tallied in `counts` by what settled
/// it.
pub(crate) fn subsumed(sub: &Pattern, covers: &[&Pattern], counts: &mut SynthesisCounts) -> bool {
    if covers.is_empty() {
        return false;
    }
    if witness(sub).is_some_and(|w| !covers.iter().any(|cover| cover.matches(&w))) {
        counts.prune_screened += 1;
        return false;
    }
    counts.prune_automaton += 1;
    patterns_subsumed(sub, covers) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::{parse_pattern, Token};

    /// A seeded xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    const CLASSES: [TokenClass; 5] = [
        TokenClass::Digit,
        TokenClass::Lower,
        TokenClass::Upper,
        TokenClass::Alpha,
        TokenClass::AlphaNumeric,
    ];
    const LITERALS: [&str; 5] = ["-", "_", ".", "a", "7"];

    fn random_token(rng: &mut Rng) -> Token {
        if rng.below(3) == 0 {
            Token::literal(LITERALS[rng.below(LITERALS.len())])
        } else if rng.below(2) == 0 {
            Token::plus(CLASSES[rng.below(CLASSES.len())].clone())
        } else {
            Token::base(CLASSES[rng.below(CLASSES.len())].clone(), 1 + rng.below(3))
        }
    }

    fn random_pattern(rng: &mut Rng) -> Pattern {
        Pattern::new((0..1 + rng.below(4)).map(|_| random_token(rng)).collect())
    }

    /// A likely cover of `sub`: some class tokens widened to `+` or to
    /// `<AN>+`.
    fn widen(sub: &Pattern, rng: &mut Rng) -> Pattern {
        Pattern::new(
            sub.iter()
                .map(|t| match rng.below(3) {
                    0 if t.class.is_base() => Token::plus(t.class.clone()),
                    1 if t.class.is_base() => Token::plus(TokenClass::AlphaNumeric),
                    _ => t.clone(),
                })
                .collect(),
        )
    }

    #[test]
    fn the_screen_never_contradicts_the_automaton() {
        let mut rng = Rng(0x51_7CC1_B727_220A);
        let (mut screened, mut proven) = (0, 0);
        for _ in 0..3_000 {
            let sub = random_pattern(&mut rng);
            let covers: Vec<Pattern> = (0..1 + rng.below(3))
                .map(|_| match rng.below(2) {
                    0 => widen(&sub, &mut rng),
                    _ => random_pattern(&mut rng),
                })
                .collect();
            let refs: Vec<&Pattern> = covers.iter().collect();
            let exact = patterns_subsumed(&sub, &refs);
            let mut counts = SynthesisCounts::default();
            let got = subsumed(&sub, &refs, &mut counts);
            assert_eq!(got, exact == Some(true), "{sub} under {covers:?}");
            if counts.prune_screened == 1 {
                assert_ne!(exact, Some(true), "screened {sub} under {covers:?}");
                screened += 1;
            }
            proven += usize::from(exact == Some(true));
        }
        // Both verdicts are exercised in earnest.
        assert!(screened > 500 && proven > 300, "{screened} {proven}");
    }

    #[test]
    fn witnesses_are_members_of_their_pattern() {
        for notation in ["<D>3'-'<D>4", "<AN>+'-'<AN>+", "<A>2<U>+'.'", "<D>+'7'"] {
            let sub = parse_pattern(notation).unwrap();
            let w = witness(&sub).unwrap();
            assert!(sub.matches(&w), "{notation}: {w:?}");
        }
    }

    #[test]
    fn counts_tally_what_settled_each_check() {
        let sub = parse_pattern("<D>3").unwrap();
        let letters = parse_pattern("<L>+").unwrap();
        let digits = parse_pattern("<D>+").unwrap();
        let mut counts = SynthesisCounts::default();
        assert!(!subsumed(&sub, &[], &mut counts));
        assert!(!subsumed(&sub, &[&letters], &mut counts));
        assert!(subsumed(&sub, &[&letters, &digits], &mut counts));
        assert_eq!((counts.prune_screened, counts.prune_automaton), (1, 1));
    }
}
