//! A bit-parallel multi-pattern automaton over patterns, with bounded
//! language analysis.
//!
//! One [`MultiPatternAutomaton`] compiles a list of [`Pattern`] *segments*
//! into a single shift-and automaton (Baeza-Yates–Gonnet; the
//! compiled-pattern-buffer + single-pass-scan design of the classic DECUS
//! grep): each pattern becomes a contiguous run of bit positions, each
//! position a character predicate, and one pass over an input simulates
//! every pattern simultaneously with a handful of word-wide shift/AND/OR
//! operations per consumed character.
//!
//! The automaton serves two consumers with **one** implementation:
//!
//! * `clx-engine`'s fused cold-path dispatch ([`classify`]): deciding which
//!   of a program's patterns match a new leaf signature in one scan instead
//!   of one `Pattern::split` run per pattern;
//! * `clx-analyze`'s static program diagnostics: *language-level* facts —
//!   emptiness, pairwise intersection, and subsumption of one segment by a
//!   union of others — computed by a bounded breadth-first exploration of
//!   the automaton's reachable bit-states ([`language_empty`],
//!   [`intersection_witness`], [`uncovered_witness`]).
//!
//! [`classify`]: MultiPatternAutomaton::classify
//! [`language_empty`]: MultiPatternAutomaton::language_empty
//! [`intersection_witness`]: MultiPatternAutomaton::intersection_witness
//! [`uncovered_witness`]: MultiPatternAutomaton::uncovered_witness
//!
//! # Position predicates
//!
//! Bit positions map onto pattern tokens as one position per literal
//! character, `n` positions for an `Exact(n)` class token, and one
//! self-looping position for a `+`-quantified class token. A position's
//! predicate is exactly [`TokenClass::contains_char`]:
//!
//! * a `<D>`/`<L>`/`<U>` position accepts its class's characters;
//! * an `<A>` position accepts both letter classes;
//! * an `<AN>` position accepts `<D>`, `<L>`, `<U>` and the concrete
//!   characters `-` and `_`;
//! * a literal position accepts exactly its concrete character.
//!
//! Because [`Pattern`]'s matcher recognizes precisely the
//! anchored concatenation of these per-position predicates (an `Exact(n)`
//! class token consumes exactly `n` class characters, a `+` token any
//! non-empty run, a literal its characters verbatim), the automaton's
//! language over concrete strings **equals** `Pattern::matches` — for
//! *every* pattern, including "opaque" ones whose literals contain
//! alphanumerics. The engine's leaf-classification entry point
//! ([`classify`]) additionally restricts itself to the tokenizer's leaf
//! alphabet, where a digit run of length n is n abstract `<D>` symbols;
//! that abstraction is only sound for transparent patterns, which is why
//! [`classify`] is a separate, narrower API than the language operations.
//!
//! # Simulation
//!
//! Bit i of the state word(s) means "some prefix of the input ends a match
//! of positions `start(segment)..=i`". A step shifts the state left by one
//! (advancing every thread), re-seeds segment start bits only on the first
//! consumed character (the automaton is anchored — bits carried across a
//! segment boundary are masked off), ANDs with the symbol's transition
//! mask, and ORs back the self-loop threads of `+`-quantified positions. A
//! pattern matches iff its last position's bit is set after the final
//! symbol (an empty pattern matches iff the value is empty).
//!
//! # Language analysis
//!
//! Segments never interact: the only cross-bit flow is the shift by one,
//! and a bit shifted onto another segment's first position is masked off
//! (every non-empty segment's first position is a start bit, seeded only
//! before the first character). The whole-automaton bit-state is therefore
//! the product of the per-segment NFA subset-states, and breadth-first
//! search over the reachable bit-states *is* exact simultaneous language
//! exploration of all segments. The search alphabet is finite because
//! concrete characters fall into finitely many equivalence classes
//! ("atoms") under the position predicates: each character interned by
//! some literal (or by `<AN>`'s `-`/`_`) is its own atom, and all
//! remaining characters of one leaf class are indistinguishable, so one
//! representative per class suffices ([`TokenClass::contains_char`] is
//! ASCII-exact, making the residue classes finite and non-empty checks
//! trivial). Characters accepted by no position can never contribute to
//! any match and are ignored. The search is bounded by
//! [`SEARCH_STATE_LIMIT`] reachable states; overflow is reported as
//! "inconclusive" (`None`), never as a wrong verdict.
//!
//! The atom table is built once, by [`build`]. A query involves only some
//! segments, and a step reads only the atom mask's bits at their
//! positions, so each search first restricts every atom's mask to those
//! bits. It keeps an atom only when the restricted mask is non-zero and
//! differs from every earlier atom's: a skipped atom could only lead to
//! the dead state or to a state an earlier atom already reached, so the
//! breadth-first order and the witness are those of stepping every atom.
//! Visited states are kept in a hash set with a multiply-rotate hasher.
//!
//! [`build`]: MultiPatternAutomaton::build
//!
//! # Screens
//!
//! Most language queries a caller asks have an answer one cheap proof
//! settles, so two search-free screens sit in front of the searches:
//! [`member`] builds one string of a pattern's language (a member no cover
//! matches settles "not covered", and any member settles "not empty"), and
//! [`DisjointFacts`] proves two languages disjoint from their tokens. A
//! caller builds one `DisjointFacts` per pattern (its length range,
//! fixed-character counts and head and tail character sets) and compares
//! pairs of them. Both screens only ever settle a query exactly; when they
//! prove nothing, the caller falls through to the search. `clx-synth`'s
//! reachability pruning and `clx-analyze`'s passes share them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::{Pattern, Quantifier, TokenClass, LEAF_CLASS_COUNT};

/// Bit-state word count of the automaton. Four words cover every realistic
/// synthesized program (one bit position per pattern character) while the
/// whole state still fits in two cache lines.
const WORDS: usize = 4;

/// Maximum combined automaton width, in bit positions: the sum over all
/// segments of their character positions. Pattern lists needing more fail
/// to build with [`WidthOverflow`].
pub const MAX_WIDTH: usize = WORDS * 64;

/// Cap on the number of distinct bit-states a language-analysis search may
/// visit before reporting "inconclusive". Reachable state counts are tiny
/// for synthesized programs (segments are short concatenations); the cap
/// exists so adversarial pattern lists degrade to an honest `None` instead
/// of an exponential walk.
pub const SEARCH_STATE_LIMIT: usize = 4096;

type BitRow = [u64; WORDS];

const ZERO: BitRow = [0; WORDS];

/// Sentinel for "character outside the automaton's alphabet"; its
/// transition mask is all-zero, so one step kills every thread.
const NO_SYMBOL: u16 = u16::MAX;

/// The pattern list needs more than [`MAX_WIDTH`] bit positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthOverflow {
    /// Positions the pattern list would need.
    pub required: usize,
}

impl std::fmt::Display for WidthOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "patterns need {} automaton positions (limit {MAX_WIDTH})",
            self.required
        )
    }
}

impl std::error::Error for WidthOverflow {}

/// Where one segment's pattern lives in the bit-state.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// No pattern was supplied for this slot (`None` at build time); it
    /// matches nothing and has the empty language.
    Absent,
    /// A zero-width pattern (no positions), which matches exactly the
    /// empty string.
    Empty,
    /// A non-empty pattern occupying bits `first..=last`.
    Span {
        /// The segment's first bit position (a start bit).
        first: u32,
        /// The segment's final (accept) bit position.
        last: u32,
    },
}

/// The state of one classification pass: which automaton threads survived
/// the whole input. Produced by [`MultiPatternAutomaton::classify`],
/// consumed by [`MultiPatternAutomaton::matches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMatches {
    state: BitRow,
    /// `false` iff the input was empty (no character consumed), which is
    /// what zero-width segments accept.
    consumed: bool,
}

/// One consumed unit of a recorded classification pass: a whole class run
/// (all `n` characters of an `Exact(n)` leaf token) or a single literal
/// character, plus the frontier after consuming it.
#[derive(Debug, Clone, Copy)]
struct JournalStep {
    /// The symbol consumed: a leaf-class id for a class run, a concrete
    /// symbol id for a literal character.
    sym: u16,
    /// Characters the unit consumed (the class run length; 1 for a
    /// literal character).
    len: u32,
    /// Automaton state after the whole unit. Exact even when the run
    /// exited early on a fixed point: past the fixed point further steps
    /// cannot change the state, so this equals the state after all `len`
    /// characters.
    state: BitRow,
}

/// A classification pass that kept its per-unit frontier journal, produced
/// by [`MultiPatternAutomaton::classify_recorded`]. Besides answering
/// [`matches`] like a plain [`SegmentMatches`], it can reconstruct the
/// split boundaries of any accepting segment via
/// [`split_boundaries`] — the same slices `Pattern::split` produces,
/// recovered from the accepting path without a second matcher run.
///
/// [`matches`]: MultiPatternAutomaton::matches
/// [`split_boundaries`]: MultiPatternAutomaton::split_boundaries
#[derive(Debug, Clone)]
pub struct ClassifyRun {
    matches: SegmentMatches,
    journal: Vec<JournalStep>,
}

impl ClassifyRun {
    /// The thread-survival state of the pass, for
    /// [`MultiPatternAutomaton::matches`].
    pub fn matches(&self) -> &SegmentMatches {
        &self.matches
    }
}

/// One equivalence class of concrete characters under the automaton's
/// position predicates, with a representative character used to build
/// witness strings.
#[derive(Debug)]
struct Atom {
    rep: char,
    mask: BitRow,
}

/// One shift-and automaton over a list of pattern segments. Immutable
/// after construction; safe to share across threads.
#[derive(Debug)]
pub struct MultiPatternAutomaton {
    /// Live state words (`ceil(width / 64)`, at least 1).
    words: usize,
    /// Bit set at every non-empty segment's first position.
    starts: BitRow,
    /// Bit set at every `+`-quantified (self-looping) position.
    plus: BitRow,
    /// Per-symbol transition masks: bit i set iff position i's predicate
    /// accepts the symbol. Ids `0..LEAF_CLASS_COUNT` are the abstract
    /// class symbols; the rest are concrete characters.
    masks: Vec<BitRow>,
    /// ASCII character -> symbol id (`NO_SYMBOL` when absent).
    ascii_symbol: [u16; 128],
    /// Non-ASCII character -> symbol id.
    other_symbol: HashMap<char, u16>,
    /// Interned concrete characters, in id order (`id - LEAF_CLASS_COUNT`
    /// indexes this).
    interned: Vec<char>,
    /// The language-analysis atom alphabet, built once from `interned` and
    /// the class masks when the automaton is built.
    atoms: Vec<Atom>,
    /// Per-slot segment layout, in build order.
    segments: Vec<Segment>,
    /// Per bit position, the zero-based token index (within its segment's
    /// pattern) the position belongs to. Split-boundary reconstruction
    /// turns accepting-path positions into per-token character counts
    /// through this map.
    token_of: Vec<u16>,
    /// Per segment, the token count of its pattern (0 for absent slots).
    /// Zero-width tokens own no bit position, so this cannot be recovered
    /// from `token_of`.
    token_counts: Vec<u32>,
}

impl MultiPatternAutomaton {
    /// Compile the automaton for a list of pattern segments. A `None` slot
    /// is kept (so slot indices line up with the caller's numbering) but
    /// matches nothing. Errors when the combined width exceeds
    /// [`MAX_WIDTH`].
    pub fn build(patterns: &[Option<&Pattern>]) -> Result<MultiPatternAutomaton, WidthOverflow> {
        // Width check first — O(tokens), before any O(width) allocation.
        let required: usize = patterns.iter().flatten().map(|p| pattern_width(p)).sum();
        if required > MAX_WIDTH {
            return Err(WidthOverflow { required });
        }

        let mut automaton = MultiPatternAutomaton {
            words: required.div_ceil(64).max(1),
            starts: ZERO,
            plus: ZERO,
            masks: vec![ZERO; LEAF_CLASS_COUNT],
            ascii_symbol: [NO_SYMBOL; 128],
            other_symbol: HashMap::new(),
            interned: Vec::new(),
            atoms: Vec::new(),
            segments: Vec::with_capacity(patterns.len()),
            token_of: Vec::with_capacity(required),
            token_counts: Vec::with_capacity(patterns.len()),
        };
        let mut next_bit = 0u32;
        for pattern in patterns {
            let segment = match pattern {
                None => Segment::Absent,
                Some(p) => layout_segment(&mut automaton, p, &mut next_bit),
            };
            automaton.segments.push(segment);
            automaton
                .token_counts
                .push(pattern.map_or(0, |p| p.len() as u32));
        }
        debug_assert_eq!(next_bit as usize, required);
        automaton.atoms = automaton.build_atoms();
        Ok(automaton)
    }

    /// Number of live state words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of segments (pattern slots, including absent ones).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Which segments match `leaf`, in one pass over its tokens.
    ///
    /// `leaf` is interpreted over the tokenizer's *leaf alphabet*: a digit
    /// run of length n is n abstract `<D>` symbols (likewise `<L>` and
    /// `<U>`), every other character its own concrete symbol. That
    /// abstraction is only exact for transparent segment patterns (no
    /// ASCII alphanumerics inside literals) — `clx-engine` guarantees it
    /// by keeping opaque patterns out of the fused automaton.
    ///
    /// Returns `None` when `leaf` is not a leaf signature the tokenizer
    /// can produce (a `+` quantifier or an `<A>`/`<AN>` class) — callers
    /// fall back to per-pattern matching for that value.
    ///
    /// Class runs apply the same step `n` times but exit early on a fixed
    /// point, so a `<D>4000` leaf token costs O(automaton width) steps,
    /// not 4000.
    pub fn classify(&self, leaf: &Pattern) -> Option<SegmentMatches> {
        self.classify_inner(leaf, None)
    }

    /// [`classify`], but keeping a per-unit frontier journal so that
    /// [`split_boundaries`] can afterwards reconstruct any accepting
    /// segment's token slices from the accepting path. One extra
    /// journal step (40 bytes) per leaf token character-run; the step
    /// loop itself is identical to the plain pass.
    ///
    /// [`classify`]: MultiPatternAutomaton::classify
    /// [`split_boundaries`]: MultiPatternAutomaton::split_boundaries
    pub fn classify_recorded(&self, leaf: &Pattern) -> Option<ClassifyRun> {
        let mut journal = Vec::with_capacity(leaf.len());
        let matches = self.classify_inner(leaf, Some(&mut journal))?;
        Some(ClassifyRun { matches, journal })
    }

    /// The shared classification loop. `journal`, when present, receives
    /// one entry per consumed unit (a whole class run, or one literal
    /// character) holding the frontier after that unit.
    fn classify_inner(
        &self,
        leaf: &Pattern,
        mut journal: Option<&mut Vec<JournalStep>>,
    ) -> Option<SegmentMatches> {
        let mut state = ZERO;
        let mut consumed = false;
        for token in leaf.iter() {
            match token.literal_value() {
                Some(s) => {
                    for c in s.chars() {
                        let sym = self.symbol(c);
                        self.step(&mut state, sym, !consumed);
                        consumed = true;
                        if let Some(j) = journal.as_deref_mut() {
                            j.push(JournalStep { sym, len: 1, state });
                        }
                        if state == ZERO {
                            return Some(SegmentMatches { state, consumed });
                        }
                    }
                }
                None => {
                    let class = token.class.leaf_class_index()? as u16;
                    let Quantifier::Exact(n) = token.quantifier else {
                        return None;
                    };
                    self.step(&mut state, class, !consumed);
                    consumed = true;
                    if state != ZERO {
                        let mut prev = state;
                        for _ in 1..n {
                            self.step(&mut state, class, false);
                            if state == prev || state == ZERO {
                                // Fixed point: repeating the same symbol
                                // can no longer change the state (steps
                                // are a pure function of it), so a long
                                // run costs O(width), not O(run length).
                                break;
                            }
                            prev = state;
                        }
                    }
                    if let Some(j) = journal.as_deref_mut() {
                        j.push(JournalStep {
                            sym: class,
                            len: n as u32,
                            state,
                        });
                    }
                    if state == ZERO {
                        return Some(SegmentMatches { state, consumed });
                    }
                }
            }
        }
        Some(SegmentMatches { state, consumed })
    }

    /// Reconstruct segment `index`'s token slices — the same split
    /// `Pattern::split` computes — from a recorded classification pass.
    ///
    /// Returns one half-open **character** range per pattern token
    /// (zero-width tokens get empty ranges), or `None` when the segment
    /// did not match or the walk cannot pin a boundary down. For matching
    /// fused-eligible segments the walk never declines — valid paths of a
    /// shift/stay thread are closed under pointwise minimum, so the
    /// minimal-predecessor walk below always reconstructs the pointwise
    /// lowest accepting path, which assigns every character to the
    /// earliest token able to take it: exactly `Pattern::split`'s
    /// greedy longest-first result. The `None` arm is
    /// defensive; callers surface it as an explicit fallback, never a
    /// wrong answer.
    pub fn split_boundaries(&self, run: &ClassifyRun, index: usize) -> Option<Vec<(usize, usize)>> {
        let tokens = self.token_counts[index] as usize;
        let (first, last) = match self.segments[index] {
            Segment::Absent => return None,
            Segment::Empty => {
                // A zero-width pattern matches only the empty input; every
                // token (all zero-width) covers the empty range.
                return (!run.matches.consumed).then(|| vec![(0, 0); tokens]);
            }
            Segment::Span { first, last } => (first, last),
        };
        if !bit_set(&run.matches.state, last) {
            return None;
        }

        // Walk the journal backward from the accept bit, choosing at each
        // unit the minimal position in the previous frontier that can reach
        // the current one. `counts[t]` accumulates how many characters the
        // reconstructed path spends on token `t`.
        let mut counts = vec![0usize; tokens];
        let mut q = last;
        for (j, unit) in run.journal.iter().enumerate().rev() {
            if unit.sym == NO_SYMBOL || unit.len == 0 {
                return None;
            }
            let mask = &self.masks[unit.sym as usize];
            let n = unit.len;
            if j == 0 {
                // First unit: injection seeds the segment start, so the
                // path's first character lands exactly on `first`.
                if !bit_set(mask, first) || q < first || q - first > n - 1 {
                    return None;
                }
                if !self.run_contiguous(mask, first, q) {
                    return None;
                }
                for pos in first..=q {
                    counts[self.token_of[pos as usize] as usize] += 1;
                }
                let stays = (n - 1) - (q - first);
                if stays > 0 {
                    let r = self.lowest_loop(mask, first, q)?;
                    counts[self.token_of[r as usize] as usize] += stays as usize;
                }
            } else {
                let frontier = &run.journal[j - 1].state;
                if n == 1 {
                    // Shift from q-1 beats staying at q: smaller
                    // predecessor, hence the pointwise-minimal path.
                    counts[self.token_of[q as usize] as usize] += 1;
                    if q > first && bit_set(frontier, q - 1) {
                        q -= 1;
                    } else if !(bit_set(&self.plus, q) && bit_set(frontier, q)) {
                        return None;
                    }
                } else {
                    // A class run of n characters: the thread moved from
                    // some predecessor p up to q, shifting through
                    // class-accepting positions p+1..=q and spending the
                    // remaining n-(q-p) characters looping on a
                    // `+` position in p..=q. Scan candidate predecessors
                    // from the lowest.
                    let lo = first.max(q.saturating_sub(n));
                    let mut p = None;
                    for cand in lo..=q {
                        if !bit_set(frontier, cand) {
                            continue;
                        }
                        if !self.run_contiguous(mask, cand + 1, q) {
                            continue;
                        }
                        if q - cand == n || self.lowest_loop(mask, cand, q).is_some() {
                            p = Some(cand);
                            break;
                        }
                    }
                    let p = p?;
                    for pos in (p + 1)..=q {
                        counts[self.token_of[pos as usize] as usize] += 1;
                    }
                    let stays = n - (q - p);
                    if stays > 0 {
                        let r = self.lowest_loop(mask, p, q)?;
                        counts[self.token_of[r as usize] as usize] += stays as usize;
                    }
                    q = p;
                }
            }
        }
        debug_assert_eq!(
            counts.iter().sum::<usize>(),
            run.journal.iter().map(|u| u.len as usize).sum::<usize>(),
            "reconstructed path must spend every consumed character"
        );

        let mut ranges = Vec::with_capacity(tokens);
        let mut at = 0usize;
        for &count in &counts {
            ranges.push((at, at + count));
            at += count;
        }
        Some(ranges)
    }

    /// Do positions `lo..=hi` all accept `mask`'s symbol? (Trivially true
    /// for an empty range, i.e. `lo > hi`.)
    fn run_contiguous(&self, mask: &BitRow, lo: u32, hi: u32) -> bool {
        (lo..=hi).all(|pos| bit_set(mask, pos))
    }

    /// The lowest `+`-looping position in `lo..=hi` accepting `mask`'s
    /// symbol — where the pointwise-minimal path parks its stay steps.
    fn lowest_loop(&self, mask: &BitRow, lo: u32, hi: u32) -> Option<u32> {
        (lo..=hi).find(|&pos| bit_set(&self.plus, pos) && bit_set(mask, pos))
    }

    /// Did segment `index` match? Always `false` for absent segments.
    pub fn matches(&self, m: &SegmentMatches, index: usize) -> bool {
        match self.segments[index] {
            Segment::Absent => false,
            Segment::Empty => !m.consumed,
            Segment::Span { last, .. } => bit_set(&m.state, last),
        }
    }

    /// Is segment `index`'s language empty (no string at all matches)?
    ///
    /// `None` means inconclusive: the segment is absent, or the bounded
    /// state search overflowed. (For well-formed patterns the language is
    /// never empty — every position predicate is satisfiable — so this
    /// check exists for completeness of the algebra, not because the
    /// answer is ever expected to be `true`.)
    pub fn language_empty(&self, index: usize) -> Option<bool> {
        match self.segments[index] {
            Segment::Absent => None,
            Segment::Empty => Some(false),
            Segment::Span { last, .. } => {
                let rel = self.segment_bits(index);
                match self.search(&rel, |state| bit_set(state, last)) {
                    Ok(witness) => Some(witness.is_none()),
                    Err(SearchOverflow) => None,
                }
            }
        }
    }

    /// A string in the intersection of segments `a` and `b`'s languages.
    ///
    /// Returns `Some(Some(witness))` with a concrete string both patterns
    /// match, `Some(None)` when the languages are provably disjoint, and
    /// `None` when inconclusive (an absent segment, or the bounded state
    /// search overflowed).
    pub fn intersection_witness(&self, a: usize, b: usize) -> Option<Option<String>> {
        let (sa, sb) = (self.segments[a], self.segments[b]);
        match (sa, sb) {
            (Segment::Absent, _) | (_, Segment::Absent) => None,
            // A zero-width pattern matches only the empty string.
            (Segment::Empty, Segment::Empty) => Some(Some(String::new())),
            (Segment::Empty, Segment::Span { .. }) | (Segment::Span { .. }, Segment::Empty) => {
                Some(None)
            }
            (Segment::Span { last: la, .. }, Segment::Span { last: lb, .. }) => {
                let mut rel = self.segment_bits(a);
                or_rows(&mut rel, &self.segment_bits(b));
                self.search(&rel, |state| bit_set(state, la) && bit_set(state, lb))
                    .ok()
            }
        }
    }

    /// A string in segment `sub`'s language that **no** segment of
    /// `covers` matches — a counterexample to `L(sub) ⊆ ∪ L(covers)`.
    ///
    /// Returns `Some(Some(witness))` with such a string, `Some(None)` when
    /// `sub`'s language is provably covered by the union, and `None` when
    /// inconclusive (`sub` absent, or the bounded state search
    /// overflowed). Absent segments in `covers` contribute the empty
    /// language.
    pub fn uncovered_witness(&self, sub: usize, covers: &[usize]) -> Option<Option<String>> {
        match self.segments[sub] {
            Segment::Absent => None,
            // L(sub) = {""}: covered iff some cover also matches "".
            Segment::Empty => {
                let covered = covers
                    .iter()
                    .any(|&i| matches!(self.segments[i], Segment::Empty));
                Some(if covered { None } else { Some(String::new()) })
            }
            Segment::Span { last, .. } => {
                let mut rel = self.segment_bits(sub);
                // Zero-width covers match only "", never a searched
                // (non-empty) string, so only Span covers get accept bits.
                let mut cover_accepts = ZERO;
                for &i in covers {
                    or_rows(&mut rel, &self.segment_bits(i));
                    if let Segment::Span { last, .. } = self.segments[i] {
                        set_bit(&mut cover_accepts, last);
                    }
                }
                self.search(&rel, |state| {
                    bit_set(state, last) && (0..WORDS).all(|w| state[w] & cover_accepts[w] == 0)
                })
                .ok()
            }
        }
    }

    /// Bounded breadth-first search over the reachable bit-states,
    /// restricted to the bits in `rel` (the involved segments' positions —
    /// sound because segments never interact; see the module docs).
    /// Returns the witness string of the first state satisfying `hit`,
    /// `Ok(None)` when the reachable states are exhausted without a hit,
    /// or `Err` when more than [`SEARCH_STATE_LIMIT`] states were visited.
    ///
    /// The empty string is never tested: callers handle zero-width
    /// segments (the only ε-acceptors) before searching.
    fn search(
        &self,
        rel: &BitRow,
        hit: impl Fn(&BitRow) -> bool,
    ) -> Result<Option<String>, SearchOverflow> {
        #[cfg(test)]
        if tests::REFERENCE_SEARCH.get() {
            return self.search_reference(rel, hit);
        }
        // A step reads only an atom's mask restricted to `rel`. An atom
        // whose restricted mask is zero leads only to the dead state; one
        // whose restricted mask repeats an earlier atom's leads only to
        // states that earlier atom pushed first. Skipping both leaves the
        // search order, and so the witness, unchanged.
        let mut atoms: Vec<(char, BitRow)> = Vec::with_capacity(self.atoms.len());
        for atom in &self.atoms {
            let mut mask = atom.mask;
            and_rows(&mut mask, rel);
            if mask != ZERO && atoms.iter().all(|(_, m)| *m != mask) {
                atoms.push((atom.rep, mask));
            }
        }
        // (state, parent index or usize::MAX, consumed character).
        let mut nodes: Vec<(BitRow, usize, char)> = Vec::new();
        let mut seen = StateSet::default();
        let mut visit = |nodes: &mut Vec<(BitRow, usize, char)>,
                         from: &BitRow,
                         parent: usize|
         -> Result<Option<String>, SearchOverflow> {
            for &(rep, mask) in &atoms {
                let mut state = *from;
                self.step_mask(&mut state, &mask, parent == usize::MAX);
                if state == ZERO || seen.contains(&state) {
                    continue;
                }
                if nodes.len() >= SEARCH_STATE_LIMIT {
                    return Err(SearchOverflow);
                }
                seen.insert(state);
                nodes.push((state, parent, rep));
                if hit(&state) {
                    return Ok(Some(reconstruct(nodes, nodes.len() - 1)));
                }
            }
            Ok(None)
        };

        // Seed: every atom applied to the pre-input state (start bits
        // injected, exactly like the first consumed character).
        if let Some(witness) = visit(&mut nodes, &ZERO, usize::MAX)? {
            return Ok(Some(witness));
        }
        let mut head = 0usize;
        while head < nodes.len() {
            let from = nodes[head].0;
            if let Some(witness) = visit(&mut nodes, &from, head)? {
                return Ok(Some(witness));
            }
            head += 1;
        }
        Ok(None)
    }

    /// The atom alphabet: every interned concrete character is its own
    /// atom (an alphanumeric one additionally triggers its class's
    /// positions), plus one representative per leaf class for the
    /// characters of that class no literal mentions. Characters accepted
    /// by no position are omitted — they kill every thread and can never
    /// contribute to a match.
    fn build_atoms(&self) -> Vec<Atom> {
        let mut atoms = Vec::with_capacity(self.interned.len() + LEAF_CLASS_COUNT);
        for (k, &c) in self.interned.iter().enumerate() {
            let mut mask = self.masks[LEAF_CLASS_COUNT + k];
            if let Some(class) = char_leaf_class(c) {
                or_rows(&mut mask, &self.masks[class]);
            }
            if mask != ZERO {
                atoms.push(Atom { rep: c, mask });
            }
        }
        let residues: [(usize, std::ops::RangeInclusive<char>); LEAF_CLASS_COUNT] =
            [(0, '0'..='9'), (1, 'a'..='z'), (2, 'A'..='Z')];
        for (class, range) in residues {
            if self.masks[class] == ZERO {
                continue;
            }
            // contains_char is ASCII-exact, so the class residue is
            // non-empty iff some canonical character is un-interned; all
            // residue characters behave identically (class positions only).
            if let Some(rep) = range.into_iter().find(|&c| self.symbol(c) == NO_SYMBOL) {
                atoms.push(Atom {
                    rep,
                    mask: self.masks[class],
                });
            }
        }
        atoms
    }

    /// Bit mask of the positions belonging to segment `index`.
    fn segment_bits(&self, index: usize) -> BitRow {
        let mut row = ZERO;
        if let Segment::Span { first, last } = self.segments[index] {
            for bit in first..=last {
                set_bit(&mut row, bit);
            }
        }
        row
    }

    /// Advance every thread by one abstract character.
    #[inline]
    fn step(&self, state: &mut BitRow, sym: u16, inject: bool) {
        let mask = if sym == NO_SYMBOL {
            ZERO
        } else {
            self.masks[sym as usize]
        };
        self.step_mask(state, &mask, inject);
    }

    /// Advance every thread by one character whose transition mask is
    /// `mask` (a single symbol's mask, or the union mask of an atom).
    #[inline]
    fn step_mask(&self, state: &mut BitRow, mask: &BitRow, inject: bool) {
        let mut carry = 0u64;
        for w in 0..self.words {
            let shifted = (state[w] << 1) | carry;
            carry = state[w] >> 63;
            // A bit shifted onto a start position crossed a segment
            // boundary from the previous pattern's accept position; mask
            // it off. Starts are seeded only on the first character: the
            // automaton is anchored at both ends.
            let mut entering = shifted & !self.starts[w];
            if inject {
                entering |= self.starts[w];
            }
            state[w] = (entering & mask[w]) | (state[w] & mask[w] & self.plus[w]);
        }
    }

    /// The symbol id of one concrete character.
    #[inline]
    fn symbol(&self, c: char) -> u16 {
        if (c as u32) < 128 {
            self.ascii_symbol[c as usize]
        } else {
            self.other_symbol.get(&c).copied().unwrap_or(NO_SYMBOL)
        }
    }

    /// The symbol id of `c`, interning it on first sight.
    fn intern_symbol(&mut self, c: char) -> u16 {
        let next = self.masks.len() as u16;
        let id = if (c as u32) < 128 {
            let slot = &mut self.ascii_symbol[c as usize];
            if *slot == NO_SYMBOL {
                *slot = next;
            }
            *slot
        } else {
            *self.other_symbol.entry(c).or_insert(next)
        };
        if id == next {
            self.masks.push(ZERO);
            self.interned.push(c);
        }
        id
    }

    /// Set transition bit `bit` for every symbol `pred` accepts.
    fn set_position(&mut self, bit: u32, pred: &TokenClass) {
        match pred {
            TokenClass::Literal(_) => unreachable!("literals are laid out per character"),
            class => {
                if matches!(class, TokenClass::Digit | TokenClass::AlphaNumeric) {
                    set_bit(&mut self.masks[0], bit);
                }
                if matches!(
                    class,
                    TokenClass::Lower | TokenClass::Alpha | TokenClass::AlphaNumeric
                ) {
                    set_bit(&mut self.masks[1], bit);
                }
                if matches!(
                    class,
                    TokenClass::Upper | TokenClass::Alpha | TokenClass::AlphaNumeric
                ) {
                    set_bit(&mut self.masks[2], bit);
                }
                if matches!(class, TokenClass::AlphaNumeric) {
                    // <AN> also consumes the concrete '-' and '_' symbols
                    // (TokenClass::contains_char).
                    for c in ['-', '_'] {
                        let sym = self.intern_symbol(c);
                        set_bit(&mut self.masks[sym as usize], bit);
                    }
                }
            }
        }
    }
}

/// Marker for "the bounded state search overflowed".
struct SearchOverflow;

/// The search's visited bit-states.
type StateSet = HashSet<BitRow, BuildHasherDefault<StateHasher>>;

/// A multiply-rotate hasher for bit-states (the FxHash step, one word at a
/// time). The states are not attacker-chosen keys and a search stops at
/// [`SEARCH_STATE_LIMIT`], so SipHash's flooding resistance buys nothing.
#[derive(Default)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Is `L(sub) ⊆ L(covers[0]) ∪ … ∪ L(covers[n-1])`, as a one-shot
/// convenience over a freshly built automaton?
///
/// `None` means inconclusive (combined width beyond [`MAX_WIDTH`], or the
/// bounded state search overflowed) — callers must not conclude anything.
/// Used by `clx-synth` to prune candidate source patterns that earlier
/// branches already cover, and by `clx-analyze` tests.
pub fn patterns_subsumed(sub: &Pattern, covers: &[&Pattern]) -> Option<bool> {
    let mut slots: Vec<Option<&Pattern>> = Vec::with_capacity(covers.len() + 1);
    slots.push(Some(sub));
    slots.extend(covers.iter().map(|p| Some(*p)));
    let automaton = MultiPatternAutomaton::build(&slots).ok()?;
    let cover_indices: Vec<usize> = (1..slots.len()).collect();
    automaton
        .uncovered_witness(0, &cover_indices)
        .map(|witness| witness.is_none())
}

/// One string of `pattern`'s language, built without a search: literals
/// verbatim, and each class token as one representative member, repeated
/// `n` times for an exact quantifier and once for `+`. `None` when that
/// string does not match `pattern`, so it proves nothing.
///
/// This is the screen in front of the subsumption queries: a member no
/// cover matches proves `L(pattern) ⊄ ∪ L(covers)` (what
/// [`MultiPatternAutomaton::uncovered_witness`] would answer with
/// `Some(Some(_))`), and any member proves the language non-empty.
pub fn member(pattern: &Pattern) -> Option<String> {
    let mut w = String::new();
    for token in pattern {
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
        w.extend(std::iter::repeat_n(member, token.quantifier.min_count()));
    }
    pattern.matches(&w).then_some(w)
}

/// The token-level facts of one pattern that can prove two languages
/// disjoint without a search, computed once per pattern.
///
/// [`DisjointFacts::disjoint`] answers `true` only when one of three sound
/// checks proves it, so `true` means
/// [`MultiPatternAutomaton::intersection_witness`] would answer
/// `Some(None)`; `false` proves nothing. Each check rests on
/// [`TokenClass::contains_char`] being ASCII-exact:
///
/// * **Lengths.** The ranges of string lengths do not intersect.
/// * **Fixed characters.** A character that is not ASCII-alphanumeric
///   comes only from literals (`-` and `_` excepted when either pattern
///   has an `<AN>` token), so every string of a language holds it exactly
///   as often as the pattern's literals do. Different counts are
///   disjoint languages.
/// * **Fixed positions.** Up to and including the first character of the
///   first `+` token, each character position of a string is one token's
///   predicate; the same holds from the end. Two such positions whose
///   character sets do not meet are disjoint languages.
#[derive(Debug, Clone)]
pub struct DisjointFacts {
    /// The shortest and longest string lengths (`usize::MAX` when a `+`
    /// token makes them unbounded).
    lengths: (usize, usize),
    /// Does an `<AN>` token make `-` and `_` non-fixed?
    alphanumeric: bool,
    /// How often each non-alphanumeric literal character occurs, sorted
    /// by character.
    counts: Vec<(char, usize)>,
    /// The fixed positions' character sets from the start, as
    /// `(set, positions)` runs.
    head: Vec<(CharSet, usize)>,
    /// The same, read from the end.
    tail: Vec<(CharSet, usize)>,
}

impl DisjointFacts {
    /// The facts of `pattern`.
    pub fn new(pattern: &Pattern) -> DisjointFacts {
        let min = pattern.min_string_len();
        let unbounded = pattern
            .iter()
            .any(|t| !t.is_literal() && t.quantifier.is_plus());
        let mut counts: Vec<(char, usize)> = Vec::new();
        for c in pattern
            .iter()
            .filter_map(|t| t.literal_value())
            .flat_map(str::chars)
            .filter(|c| !c.is_ascii_alphanumeric())
        {
            match counts.iter_mut().find(|(d, _)| *d == c) {
                Some((_, n)) => *n += 1,
                None => counts.push((c, 1)),
            }
        }
        counts.sort_unstable();
        DisjointFacts {
            lengths: (min, if unbounded { usize::MAX } else { min }),
            alphanumeric: pattern.iter().any(|t| t.class == TokenClass::AlphaNumeric),
            counts,
            head: fixed_runs(pattern, false),
            tail: fixed_runs(pattern, true),
        }
    }

    /// Are the two patterns' languages disjoint, by a token-level proof?
    pub fn disjoint(&self, other: &DisjointFacts) -> bool {
        let ((min_a, max_a), (min_b, max_b)) = (self.lengths, other.lengths);
        if max_a < min_b || max_b < min_a {
            return true;
        }
        let any_an = self.alphanumeric || other.alphanumeric;
        let fixed = |&&(c, _): &&(char, usize)| !(any_an && (c == '-' || c == '_'));
        if !self
            .counts
            .iter()
            .filter(fixed)
            .eq(other.counts.iter().filter(fixed))
        {
            return true;
        }
        runs_disjoint(&self.head, &other.head) || runs_disjoint(&self.tail, &other.tail)
    }
}

/// The character set one string position is drawn from.
#[derive(Debug, Clone, Copy)]
enum CharSet {
    /// A set of ASCII characters, bit `c` for character `c`.
    Ascii(u128),
    /// One non-ASCII character (only a literal holds one).
    Other(char),
}

impl CharSet {
    fn of_char(c: char) -> CharSet {
        if c.is_ascii() {
            CharSet::Ascii(1 << c as u32)
        } else {
            CharSet::Other(c)
        }
    }

    /// A class token's characters; all ASCII, since `contains_char` is.
    fn of_class(class: &TokenClass) -> CharSet {
        const DIGITS: u128 = 0x3ff << b'0';
        const LOWER: u128 = 0x3ff_ffff << b'a';
        const UPPER: u128 = 0x3ff_ffff << b'A';
        CharSet::Ascii(match class {
            TokenClass::Digit => DIGITS,
            TokenClass::Lower => LOWER,
            TokenClass::Upper => UPPER,
            TokenClass::Alpha => LOWER | UPPER,
            TokenClass::AlphaNumeric => DIGITS | LOWER | UPPER | 1 << b'-' | 1 << b'_',
            TokenClass::Literal(_) => 0,
        })
    }

    fn disjoint(self, other: CharSet) -> bool {
        match (self, other) {
            (CharSet::Ascii(x), CharSet::Ascii(y)) => x & y == 0,
            (CharSet::Other(c), CharSet::Other(d)) => c != d,
            _ => true,
        }
    }
}

/// The character sets of `pattern`'s fixed positions, read from the start
/// (or from the end): every position up to and including the first
/// character of the first `+` token met, as runs of one set (one run per
/// class token, so a long exact token costs one entry).
fn fixed_runs(pattern: &Pattern, from_end: bool) -> Vec<(CharSet, usize)> {
    let tokens = pattern.tokens();
    let mut runs = Vec::new();
    for i in 0..tokens.len() {
        let token = &tokens[if from_end { tokens.len() - 1 - i } else { i }];
        match token.literal_value() {
            Some(text) if from_end => {
                runs.extend(text.chars().rev().map(|c| (CharSet::of_char(c), 1)))
            }
            Some(text) => runs.extend(text.chars().map(|c| (CharSet::of_char(c), 1))),
            None => {
                let n = token.quantifier.min_count();
                if n > 0 {
                    runs.push((CharSet::of_class(&token.class), n));
                }
                if token.quantifier.is_plus() {
                    break;
                }
            }
        }
    }
    runs
}

/// Do two position-aligned run lists hold some position whose character
/// sets do not meet?
fn runs_disjoint(x: &[(CharSet, usize)], y: &[(CharSet, usize)]) -> bool {
    let (mut xs, mut ys) = (x.iter().copied(), y.iter().copied());
    let (mut a, mut b) = (xs.next(), ys.next());
    while let (Some((set_a, n_a)), Some((set_b, n_b))) = (a, b) {
        if set_a.disjoint(set_b) {
            return true;
        }
        let step = n_a.min(n_b);
        a = if n_a > step {
            Some((set_a, n_a - step))
        } else {
            xs.next()
        };
        b = if n_b > step {
            Some((set_b, n_b - step))
        } else {
            ys.next()
        };
    }
    false
}

/// Lay out one pattern as the next contiguous run of bit positions.
fn layout_segment(
    automaton: &mut MultiPatternAutomaton,
    pattern: &Pattern,
    next_bit: &mut u32,
) -> Segment {
    let offset = *next_bit;
    for (ti, token) in pattern.iter().enumerate() {
        match token.literal_value() {
            Some(s) => {
                for c in s.chars() {
                    let sym = automaton.intern_symbol(c);
                    set_bit(&mut automaton.masks[sym as usize], *next_bit);
                    automaton.token_of.push(ti as u16);
                    *next_bit += 1;
                }
            }
            None => {
                let positions = match token.quantifier {
                    Quantifier::Exact(n) => n,
                    Quantifier::OneOrMore => {
                        set_bit(&mut automaton.plus, *next_bit);
                        1
                    }
                };
                for _ in 0..positions {
                    automaton.set_position(*next_bit, &token.class);
                    automaton.token_of.push(ti as u16);
                    *next_bit += 1;
                }
            }
        }
    }
    if *next_bit > offset {
        set_bit(&mut automaton.starts, offset);
        Segment::Span {
            first: offset,
            last: *next_bit - 1,
        }
    } else {
        Segment::Empty
    }
}

/// Automaton positions a pattern needs: one per literal character, n per
/// `Exact(n)` class token, one (self-looping) per `+` class token.
fn pattern_width(pattern: &Pattern) -> usize {
    pattern
        .iter()
        .map(|t| match t.literal_value() {
            Some(s) => s.chars().count(),
            None => match t.quantifier {
                Quantifier::Exact(n) => n,
                Quantifier::OneOrMore => 1,
            },
        })
        .sum()
}

/// The leaf-class index of a concrete character, mirroring
/// [`TokenClass::leaf_class_index`]'s `<D>`=0, `<L>`=1, `<U>`=2 order.
fn char_leaf_class(c: char) -> Option<usize> {
    if c.is_ascii_digit() {
        Some(0)
    } else if c.is_ascii_lowercase() {
        Some(1)
    } else if c.is_ascii_uppercase() {
        Some(2)
    } else {
        None
    }
}

/// Rebuild the witness string of BFS node `index` from the parent chain.
fn reconstruct(nodes: &[(BitRow, usize, char)], index: usize) -> String {
    let mut chars = Vec::new();
    let mut at = index;
    loop {
        let (_, parent, rep) = nodes[at];
        chars.push(rep);
        if parent == usize::MAX {
            break;
        }
        at = parent;
    }
    chars.into_iter().rev().collect()
}

#[inline]
fn bit_set(row: &BitRow, bit: u32) -> bool {
    (row[(bit / 64) as usize] >> (bit % 64)) & 1 == 1
}

#[inline]
fn set_bit(row: &mut BitRow, bit: u32) {
    row[(bit / 64) as usize] |= 1 << (bit % 64);
}

#[inline]
fn or_rows(into: &mut BitRow, from: &BitRow) {
    for w in 0..WORDS {
        into[w] |= from[w];
    }
}

#[inline]
fn and_rows(into: &mut BitRow, with: &BitRow) {
    for w in 0..WORDS {
        into[w] &= with[w];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::tests::{random_pattern, Rng};
    use crate::{parse_pattern, tokenize};
    use std::cell::Cell;

    thread_local! {
        /// Route this thread's searches through [`search_reference`].
        ///
        /// [`search_reference`]: MultiPatternAutomaton::search_reference
        pub(super) static REFERENCE_SEARCH: Cell<bool> = const { Cell::new(false) };
    }

    impl MultiPatternAutomaton {
        /// The search before per-query atom restriction, kept as the
        /// oracle: it builds the atom table afresh, steps every atom from
        /// every state, and keeps `seen` in a SipHash map.
        pub(super) fn search_reference(
            &self,
            rel: &BitRow,
            hit: impl Fn(&BitRow) -> bool,
        ) -> Result<Option<String>, SearchOverflow> {
            let atoms = self.build_atoms();
            let mut nodes: Vec<(BitRow, usize, char)> = Vec::new();
            let mut seen: HashMap<BitRow, ()> = HashMap::new();
            let mut head = 0usize;
            let push = |nodes: &mut Vec<(BitRow, usize, char)>,
                        seen: &mut HashMap<BitRow, ()>,
                        state: BitRow,
                        parent: usize,
                        rep: char|
             -> Result<Option<usize>, SearchOverflow> {
                if state == ZERO || seen.contains_key(&state) {
                    return Ok(None);
                }
                if nodes.len() >= SEARCH_STATE_LIMIT {
                    return Err(SearchOverflow);
                }
                seen.insert(state, ());
                nodes.push((state, parent, rep));
                Ok(Some(nodes.len() - 1))
            };
            for atom in &atoms {
                let mut state = ZERO;
                self.step_mask(&mut state, &atom.mask, true);
                and_rows(&mut state, rel);
                if let Some(i) = push(&mut nodes, &mut seen, state, usize::MAX, atom.rep)? {
                    if hit(&nodes[i].0) {
                        return Ok(Some(reconstruct(&nodes, i)));
                    }
                }
            }
            while head < nodes.len() {
                let from = nodes[head].0;
                for atom in &atoms {
                    let mut state = from;
                    self.step_mask(&mut state, &atom.mask, false);
                    and_rows(&mut state, rel);
                    if let Some(i) = push(&mut nodes, &mut seen, state, head, atom.rep)? {
                        if hit(&nodes[i].0) {
                            return Ok(Some(reconstruct(&nodes, i)));
                        }
                    }
                }
                head += 1;
            }
            Ok(None)
        }
    }

    /// The pairwise disjointness proof [`DisjointFacts`] replaced, kept as
    /// the oracle: every fact recomputed for every pair.
    fn provably_disjoint(a: &Pattern, b: &Pattern) -> bool {
        let length_range = |p: &Pattern| {
            let min = p.min_string_len();
            let unbounded = p.iter().any(|t| !t.is_literal() && t.quantifier.is_plus());
            (min, if unbounded { usize::MAX } else { min })
        };
        let (min_a, max_a) = length_range(a);
        let (min_b, max_b) = length_range(b);
        if max_a < min_b || max_b < min_a {
            return true;
        }
        let any_an = [a, b]
            .iter()
            .any(|p| p.iter().any(|t| t.class == TokenClass::AlphaNumeric));
        let fixed_char_counts = |p: &Pattern| {
            let mut counts: Vec<(char, usize)> = Vec::new();
            let fixed = |c: char| !c.is_ascii_alphanumeric() && !(any_an && (c == '-' || c == '_'));
            for c in p
                .iter()
                .filter_map(|t| t.literal_value())
                .flat_map(str::chars)
            {
                if !fixed(c) {
                    continue;
                }
                match counts.iter_mut().find(|(d, _)| *d == c) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((c, 1)),
                }
            }
            counts.sort_unstable();
            counts
        };
        if fixed_char_counts(a) != fixed_char_counts(b) {
            return true;
        }
        let fixed_positions = |p: &Pattern, from_end: bool| {
            let tokens = p.tokens();
            let mut positions = Vec::new();
            for i in 0..tokens.len() {
                let token = &tokens[if from_end { tokens.len() - 1 - i } else { i }];
                match token.literal_value() {
                    Some(text) if from_end => {
                        positions.extend(text.chars().rev().map(CharSet::of_char))
                    }
                    Some(text) => positions.extend(text.chars().map(CharSet::of_char)),
                    None => {
                        let mask = (0..128u8)
                            .filter(|&b| token.class.contains_char(b as char))
                            .fold(0u128, |mask, b| mask | 1 << b);
                        let set = CharSet::Ascii(mask);
                        positions.extend(std::iter::repeat_n(set, token.quantifier.min_count()));
                        if token.quantifier.is_plus() {
                            break;
                        }
                    }
                }
            }
            positions
        };
        [false, true].into_iter().any(|from_end| {
            let (x, y) = (fixed_positions(a, from_end), fixed_positions(b, from_end));
            x.iter().zip(&y).any(|(x, y)| x.disjoint(*y))
        })
    }

    fn provably_disjoint_by_facts(a: &Pattern, b: &Pattern) -> bool {
        DisjointFacts::new(a).disjoint(&DisjointFacts::new(b))
    }

    fn auto(patterns: &[&str]) -> MultiPatternAutomaton {
        let parsed: Vec<Pattern> = patterns.iter().map(|p| parse_pattern(p).unwrap()).collect();
        let slots: Vec<Option<&Pattern>> = parsed.iter().map(Some).collect();
        MultiPatternAutomaton::build(&slots).unwrap()
    }

    fn subsumed(sub: &str, covers: &[&str]) -> Option<bool> {
        let sub = parse_pattern(sub).unwrap();
        let covers: Vec<Pattern> = covers.iter().map(|p| parse_pattern(p).unwrap()).collect();
        let refs: Vec<&Pattern> = covers.iter().collect();
        patterns_subsumed(&sub, &refs)
    }

    /// `Pattern::split`'s slices as half-open character ranges, the
    /// reference for split-boundary reconstruction.
    fn reference_ranges(pattern: &Pattern, value: &str) -> Vec<(usize, usize)> {
        let mut char_of_byte = HashMap::new();
        let mut count = 0usize;
        for (i, (byte, _)) in value.char_indices().enumerate() {
            char_of_byte.insert(byte, i);
            count = i + 1;
        }
        char_of_byte.insert(value.len(), count);
        pattern
            .split(value)
            .unwrap()
            .iter()
            .map(|s| (char_of_byte[&s.start], char_of_byte[&s.end]))
            .collect()
    }

    #[test]
    fn split_boundaries_match_pattern_split() {
        let patterns = [
            "<D>3'-'<D>4",
            "<U>+'-'<D>+",
            "<AN>+'-'<AN>+",
            "<D>+<D>+",
            "<D>2<D>3",
            "<D>5",
            "<AN>+",
            "'('<U>2')'",
            "<L><AN>+<D>2",
            "<D>+'.'<D>+'.'<D>+",
        ];
        let values = [
            "123-4567", "AB-99", "a-b-c", "12345", "123", "---", "a_b-c_d", "(AB)", "x-_-12",
            "1.2.3", "10.20.30", "Z-1", "_", "",
        ];
        let parsed: Vec<Pattern> = patterns.iter().map(|p| parse_pattern(p).unwrap()).collect();
        let slots: Vec<Option<&Pattern>> = parsed.iter().map(Some).collect();
        let automaton = MultiPatternAutomaton::build(&slots).unwrap();
        for value in values {
            let run = automaton.classify_recorded(&tokenize(value)).unwrap();
            for (i, pattern) in parsed.iter().enumerate() {
                if !automaton.matches(run.matches(), i) {
                    continue;
                }
                assert_eq!(
                    automaton.split_boundaries(&run, i),
                    Some(reference_ranges(pattern, value)),
                    "pattern {pattern} on {value:?}"
                );
            }
        }
    }

    #[test]
    fn split_boundaries_cross_word_carries() {
        // A 71-position segment: boundaries span the first two state words.
        let pattern = parse_pattern("<D>40'-'<D>30").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&pattern)]).unwrap();
        let value = format!("{}-{}", "4".repeat(40), "3".repeat(30));
        let run = automaton.classify_recorded(&tokenize(&value)).unwrap();
        assert!(automaton.matches(run.matches(), 0));
        assert_eq!(
            automaton.split_boundaries(&run, 0),
            Some(reference_ranges(&pattern, &value))
        );
    }

    #[test]
    fn split_boundaries_of_zero_width_patterns_and_absent_slots() {
        let empty = Pattern::empty();
        let digit = parse_pattern("<D>").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&empty), None, Some(&digit)]).unwrap();
        let run = automaton.classify_recorded(&tokenize("")).unwrap();
        assert_eq!(automaton.split_boundaries(&run, 0), Some(Vec::new()));
        assert_eq!(automaton.split_boundaries(&run, 1), None);
        assert_eq!(automaton.split_boundaries(&run, 2), None);
        let run = automaton.classify_recorded(&tokenize("7")).unwrap();
        assert_eq!(automaton.split_boundaries(&run, 0), None);
        assert_eq!(automaton.split_boundaries(&run, 2), Some(vec![(0, 1)]));
    }

    #[test]
    fn recorded_classification_agrees_with_plain() {
        let a = parse_pattern("<D>3'-'<D>4").unwrap();
        let b = parse_pattern("<U>+'-'<D>+").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&a), Some(&b)]).unwrap();
        for value in ["123-4567", "AB-99", "123-456", "-1", "", "abc"] {
            let leaf = tokenize(value);
            let plain = automaton.classify(&leaf).unwrap();
            let recorded = automaton.classify_recorded(&leaf).unwrap();
            assert_eq!(&plain, recorded.matches(), "on {value:?}");
        }
    }

    #[test]
    fn classification_agrees_with_the_backtracker() {
        let a = parse_pattern("<D>3'-'<D>4").unwrap();
        let b = parse_pattern("<U>+'-'<D>+").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&a), Some(&b)]).unwrap();
        for value in ["123-4567", "AB-99", "123-456", "-1", "", "abc"] {
            let m = automaton.classify(&tokenize(value)).unwrap();
            assert_eq!(automaton.matches(&m, 0), a.matches(value), "a on {value:?}");
            assert_eq!(automaton.matches(&m, 1), b.matches(value), "b on {value:?}");
        }
    }

    #[test]
    fn absent_segments_match_nothing_and_answer_nothing() {
        let p = parse_pattern("<D>2").unwrap();
        let automaton = MultiPatternAutomaton::build(&[None, Some(&p)]).unwrap();
        let m = automaton.classify(&tokenize("42")).unwrap();
        assert!(!automaton.matches(&m, 0));
        assert!(automaton.matches(&m, 1));
        assert_eq!(automaton.language_empty(0), None);
        assert_eq!(automaton.intersection_witness(0, 1), None);
        assert_eq!(automaton.uncovered_witness(0, &[1]), None);
        // An absent *cover* contributes the empty language.
        assert_eq!(
            automaton.uncovered_witness(1, &[0]),
            Some(Some("00".into()))
        );
    }

    #[test]
    fn languages_of_well_formed_patterns_are_never_empty() {
        let automaton = auto(&["<D>3'-'<D>4", "<AN>+", "'('<U>2')'", ""]);
        for i in 0..4 {
            assert_eq!(automaton.language_empty(i), Some(false), "segment {i}");
        }
    }

    #[test]
    fn quantifier_splits_are_language_equal() {
        // "12345" splits as 2+3: the languages of <D>2<D>3 and <D>5 are
        // equal even though Pattern::covers cannot see it.
        assert_eq!(subsumed("<D>2<D>3", &["<D>5"]), Some(true));
        assert_eq!(subsumed("<D>5", &["<D>2<D>3"]), Some(true));
        assert_eq!(subsumed("<D>5", &["<D>2<D>4"]), Some(false));
    }

    #[test]
    fn plus_quantifiers_subsume_exact_counts() {
        assert_eq!(subsumed("<D>3", &["<D>+"]), Some(true));
        assert_eq!(subsumed("<D>+", &["<D>3"]), Some(false));
        assert_eq!(subsumed("<D>2'-'<D>2", &["<D>+'-'<D>+"]), Some(true));
        assert_eq!(subsumed("<D>+'-'<D>+", &["<D>2'-'<D>2"]), Some(false));
    }

    #[test]
    fn alphanumeric_covers_classes_and_dash_underscore() {
        assert_eq!(subsumed("<D>3", &["<AN>+"]), Some(true));
        assert_eq!(subsumed("'-''_'", &["<AN>+"]), Some(true));
        assert_eq!(subsumed("<AN>+", &["<D>+"]), Some(false));
        // <AN> is exactly the union of the leaf classes plus '-' and '_':
        // covered by the union, but by no single member.
        assert_eq!(
            subsumed("<AN>", &["<D>", "<L>", "<U>", "'-'", "'_'"]),
            Some(true)
        );
        for single in ["<D>", "<L>", "<U>", "'-'", "'_'"] {
            assert_eq!(subsumed("<AN>", &[single]), Some(false), "vs {single}");
        }
    }

    #[test]
    fn opaque_literals_participate_in_language_analysis() {
        // 'abc' (an opaque literal) is one string of <L>3's language.
        assert_eq!(subsumed("'abc'", &["<L>3"]), Some(true));
        assert_eq!(subsumed("<L>3", &["'abc'"]), Some(false));
        // The counterexample must be a real <L>3 string other than "abc".
        let a = parse_pattern("<L>3").unwrap();
        let b = parse_pattern("'abc'").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&a), Some(&b)]).unwrap();
        let witness = automaton.uncovered_witness(0, &[1]).unwrap().unwrap();
        assert!(a.matches(&witness), "witness {witness:?}");
        assert!(!b.matches(&witness), "witness {witness:?}");
    }

    #[test]
    fn intersection_witnesses_match_both_patterns() {
        let a = parse_pattern("<D>+").unwrap();
        let b = parse_pattern("<D>2").unwrap();
        let automaton = MultiPatternAutomaton::build(&[Some(&a), Some(&b)]).unwrap();
        let witness = automaton.intersection_witness(0, 1).unwrap().unwrap();
        assert!(a.matches(&witness) && b.matches(&witness), "{witness:?}");

        let disjoint = auto(&["<D>", "<L>"]);
        assert_eq!(disjoint.intersection_witness(0, 1), Some(None));
    }

    #[test]
    fn partial_overlap_is_neither_subsumption() {
        let automaton = auto(&["<D><AN>", "<AN><D>"]);
        let witness = automaton.intersection_witness(0, 1).unwrap();
        assert!(witness.is_some());
        assert_eq!(
            automaton.uncovered_witness(0, &[1]),
            Some(Some("0-".into()))
        );
        assert_eq!(
            automaton.uncovered_witness(1, &[0]),
            Some(Some("-0".into()))
        );
    }

    #[test]
    fn zero_width_patterns_accept_exactly_the_empty_string() {
        let empty = tokenize("");
        let digit = parse_pattern("<D>").unwrap();
        let automaton =
            MultiPatternAutomaton::build(&[Some(&empty), Some(&digit), Some(&empty)]).unwrap();
        let m = automaton.classify(&tokenize("")).unwrap();
        assert!(automaton.matches(&m, 0));
        assert!(!automaton.matches(&m, 1));
        assert_eq!(
            automaton.intersection_witness(0, 2),
            Some(Some(String::new()))
        );
        assert_eq!(automaton.intersection_witness(0, 1), Some(None));
        assert_eq!(automaton.uncovered_witness(0, &[2]), Some(None));
        assert_eq!(
            automaton.uncovered_witness(0, &[1]),
            Some(Some(String::new()))
        );
        assert_eq!(automaton.uncovered_witness(1, &[0]), Some(Some("0".into())));
    }

    #[test]
    fn width_overflow_is_an_error_not_a_verdict() {
        let wide = parse_pattern("<D>300").unwrap();
        let err = MultiPatternAutomaton::build(&[Some(&wide)]).unwrap_err();
        assert_eq!(err, WidthOverflow { required: 300 });
        assert!(err.to_string().contains("300"));
        let sub = parse_pattern("<D>200").unwrap();
        assert_eq!(patterns_subsumed(&sub, &[&wide]), None);
    }

    #[test]
    fn multi_word_language_analysis_carries_across_words() {
        // Force the second segment past the first 64-bit word.
        assert_eq!(subsumed("<D>40'-'<D>30", &["<D>+'-'<D>+"]), Some(true));
        assert_eq!(subsumed("<D>+'-'<D>+", &["<D>40'-'<D>30"]), Some(false));
    }

    #[test]
    fn non_ascii_literals_are_their_own_atoms() {
        assert_eq!(subsumed("'€'<D>2", &["'€'<D>+"]), Some(true));
        assert_eq!(subsumed("'€'<D>+", &["'€'<D>2"]), Some(false));
        assert_eq!(subsumed("'€'", &["'$'"]), Some(false));
    }

    #[test]
    fn witnesses_always_match_their_own_segment() {
        // The uncovered witness is a concrete string: it must really match
        // sub and really not match any cover, per the backtracker.
        let cases = [
            ("<D>+'-'<D>+", vec!["<D>3'-'<D>4"]),
            ("<AN>+", vec!["<D>+", "<L>+"]),
            ("<U>2<D>2", vec!["<U>+<D>3"]),
        ];
        for (sub, covers) in cases {
            let sub = parse_pattern(sub).unwrap();
            let covers: Vec<Pattern> = covers.iter().map(|p| parse_pattern(p).unwrap()).collect();
            let mut slots = vec![Some(&sub)];
            slots.extend(covers.iter().map(Some));
            let automaton = MultiPatternAutomaton::build(&slots).unwrap();
            let indices: Vec<usize> = (1..slots.len()).collect();
            let witness = automaton.uncovered_witness(0, &indices).unwrap().unwrap();
            assert!(sub.matches(&witness), "{witness:?} vs {sub}");
            for cover in &covers {
                assert!(!cover.matches(&witness), "{witness:?} vs {cover}");
            }
        }
    }

    #[test]
    fn witnesses_are_members_of_their_pattern() {
        for notation in ["<D>3'-'<D>4", "<AN>+'-'<AN>+", "<A>2<U>+'.'", "<D>+'7'", ""] {
            let sub = parse_pattern(notation).unwrap();
            let w = member(&sub).unwrap();
            assert!(sub.matches(&w), "{notation}: {w:?}");
        }
    }

    #[test]
    fn each_disjointness_check_settles_its_own_case() {
        let disjoint = |a: &str, b: &str| {
            let (a, b) = (parse_pattern(a).unwrap(), parse_pattern(b).unwrap());
            provably_disjoint_by_facts(&a, &b)
        };
        // Lengths: 3 characters against at least 4.
        assert!(disjoint("<D>3", "<AN>3<D>+"));
        // Fixed characters: one '.' against two, with a `+` hiding both
        // position frames.
        assert!(disjoint("<AN>+'.'<AN>+", "<AN>+'.'<D>+'.'<L>+"));
        // Fixed positions: a letter against a digit after a shared prefix,
        // and a '€' against a digit at the end.
        assert!(disjoint("'('<U><D>+", "'('<D>+"));
        assert!(disjoint("<D>+'€'", "<D>+<D>"));
        // '-' is fixed only while no `<AN>` can produce one.
        assert!(disjoint("<D>'-'<D>", "<D>2<D>"));
        assert!(!disjoint("<AN>'-'<D>", "<AN>2<D>"));
        // Overlapping languages are never called disjoint.
        assert!(!disjoint("<D><AN>", "<AN><D>"));
        assert!(!disjoint("<D>+'-'<D>+", "<D>3'-'<D>4"));
        assert!(!disjoint("", ""));
    }

    #[test]
    fn class_char_sets_equal_contains_char() {
        for class in crate::BASE_TOKEN_CLASSES {
            let scanned = (0..128u8)
                .filter(|&b| class.contains_char(b as char))
                .fold(0u128, |mask, b| mask | 1 << b);
            let CharSet::Ascii(mask) = CharSet::of_class(&class) else {
                panic!("{class:?} is not an ASCII set");
            };
            assert_eq!(mask, scanned, "{class:?}");
        }
    }

    #[test]
    fn disjoint_facts_agree_with_the_pairwise_proof() {
        let mut rng = Rng(0x853C_49E6_748F_EA9B);
        let mut proved = 0;
        for round in 0..6_000 {
            let a = random_pattern(&mut rng);
            // Every third pair is a pattern against itself with one token
            // widened, so overlapping pairs are common.
            let b = if round % 3 == 0 {
                let mut tokens = a.tokens().to_vec();
                let at = rng.below(tokens.len());
                if tokens[at].is_base() {
                    tokens[at] = crate::Token::plus(TokenClass::AlphaNumeric);
                }
                Pattern::new(tokens)
            } else {
                random_pattern(&mut rng)
            };
            let want = provably_disjoint(&a, &b);
            assert_eq!(provably_disjoint_by_facts(&a, &b), want, "{a} vs {b}");
            proved += usize::from(want);
        }
        assert!(proved > 1_000 && proved < 5_000, "{proved}");
    }

    #[test]
    fn searches_agree_with_the_reference_search() {
        let mut rng = Rng(0x2F1C_8E65_D3A7_B409);
        let (mut witnesses, mut disjoint) = (0, 0);
        for round in 0..1_500 {
            let mut patterns: Vec<Pattern> = (0..2 + rng.below(4))
                .map(|_| random_pattern(&mut rng))
                .collect();
            // Every other list leads with a wide pattern, so the others
            // sit in later state words or straddle a word boundary.
            if round % 2 == 0 {
                let wide = crate::Token::base(TokenClass::Digit, 40 + rng.below(120));
                patterns.insert(0, Pattern::new(vec![wide]));
            }
            let slots: Vec<Option<&Pattern>> = patterns.iter().map(Some).collect();
            let automaton = MultiPatternAutomaton::build(&slots).unwrap();
            let n = patterns.len();
            let (a, b) = (rng.below(n), rng.below(n));
            let covers: Vec<usize> = (0..n).filter(|&i| i != a && rng.below(2) == 0).collect();
            let answers = |reference: bool| {
                REFERENCE_SEARCH.set(reference);
                let out = (
                    automaton.language_empty(a),
                    automaton.intersection_witness(a, b),
                    automaton.uncovered_witness(a, &covers),
                );
                REFERENCE_SEARCH.set(false);
                out
            };
            let got = answers(false);
            assert_eq!(
                got,
                answers(true),
                "{patterns:?} a={a} b={b} covers={covers:?}"
            );
            witnesses += usize::from(matches!(got.1, Some(Some(_))))
                + usize::from(matches!(got.2, Some(Some(_))));
            disjoint += usize::from(got.1 == Some(None));
        }
        // Witnesses and proofs both occur in earnest.
        assert!(witnesses > 500 && disjoint > 300, "{witnesses} {disjoint}");
    }
}
