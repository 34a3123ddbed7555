//! The subsumption check behind reachability pruning: do the branches
//! ahead of a candidate source pattern jointly claim its whole language?
//!
//! Most checks answer "no", and one concrete string proves it. Before the
//! subsumption automaton runs, the shared witness screen
//! ([`clx_pattern::automaton::member`]) builds one string of the
//! candidate's language; if no cover matches it, the candidate is not
//! subsumed and the automaton is skipped.

use clx_pattern::automaton::{member, patterns_subsumed};
use clx_pattern::Pattern;

use crate::synthesize::SynthesisCounts;

/// Do `covers` jointly claim `sub`'s whole language? `true` only on the
/// automaton's proof (`Some(true)`); an inconclusive automaton answer keeps
/// the candidate. A witness no cover matches settles "no" without the
/// automaton. Each call with covers is tallied in `counts` by what settled
/// it.
pub(crate) fn subsumed(sub: &Pattern, covers: &[&Pattern], counts: &mut SynthesisCounts) -> bool {
    if covers.is_empty() {
        return false;
    }
    if member(sub).is_some_and(|w| !covers.iter().any(|cover| cover.matches(&w))) {
        counts.prune_screened += 1;
        return false;
    }
    counts.prune_automaton += 1;
    patterns_subsumed(sub, covers) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::parse_pattern;

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
