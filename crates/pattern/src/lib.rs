//! # clx-pattern
//!
//! The pattern language underlying CLX ("Cluster–Label–Transform") data
//! transformation, as defined in Section 3.1 and Section 4.1 of
//! *CLX: Towards verifiable PBE data transformation* (Jin et al.).
//!
//! A **data pattern** is a high-level description of a string value: a sequence
//! of [`Token`]s, each a [`TokenClass`] (digit, lower, upper, alpha,
//! alpha-numeric, or a literal) paired with a [`Quantifier`] giving the number
//! of occurrences (a natural number, or `+` for "at least one").
//!
//! This crate provides:
//!
//! * the token and pattern data model ([`TokenClass`], [`Quantifier`],
//!   [`Token`], [`Pattern`]);
//! * the [`tokenize`] function that derives the most-specific pattern of a raw
//!   string (the *initial clustering* step of the paper);
//! * a [`parser`](parse_pattern) for the textual pattern syntax used throughout
//!   the paper (e.g. `<U><L>2<D>3'@'<L>5'.'<L>3`);
//! * pattern-level operations used by the clustering and synthesis layers:
//!   token frequency `Q` (Eq. 1), generalization (`is_generalization_of`),
//!   matching raw strings against patterns, and splitting a string into the
//!   per-token slices a pattern describes;
//! * rendering into the "natural-language-like" regular expression syntax of
//!   Wrangler/Trifacta ([`wrangler`]) and into the concrete regex syntax
//!   consumed by the `clx-regex` engine;
//! * a bit-parallel multi-pattern [`automaton`] (shift-and) shared by the
//!   engine's fused cold-path dispatch and the static analyzer's
//!   language-level checks (emptiness, intersection, subsumption).
//!
//! # Example
//!
//! ```
//! use clx_pattern::{tokenize, Pattern, TokenClass};
//!
//! let p = tokenize("Bob123@gmail.com");
//! assert_eq!(p.to_string(), "<U><L>2<D>3'@'<L>5'.'<L>3");
//! assert_eq!(p.token_frequency(TokenClass::Digit), 3);
//!
//! // Patterns match exactly the strings they were derived from ...
//! assert!(p.matches("Bob123@gmail.com"));
//! // ... and any other string with the same structure.
//! assert!(p.matches("Tim456@yahoo.org"));
//! assert!(!p.matches("bob@gmail.com"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod automaton;
mod error;
mod parse;
mod pattern;
mod token;
mod tokenizer;
pub mod wrangler;

pub use error::PatternError;
pub use parse::parse_pattern;
pub use pattern::{Pattern, TokenSlice};
pub use token::{Quantifier, Token, TokenClass};
pub use tokenizer::{
    leaf_key, leaf_key_and_slices, leaf_slices, tokenize, tokenize_detailed, TokenizedString,
};

/// All base token classes, in the fixed order used by the paper
/// (`T = [<D>, <L>, <U>, <A>, <AN>]`, Section 6.1).
pub const BASE_TOKEN_CLASSES: [TokenClass; 5] = [
    TokenClass::Digit,
    TokenClass::Lower,
    TokenClass::Upper,
    TokenClass::Alpha,
    TokenClass::AlphaNumeric,
];

/// Size of the tokenizer's leaf class alphabet: the number of base classes
/// a leaf pattern can carry (`<D>`, `<L>`, `<U>` — see
/// [`TokenClass::leaf_class_index`]). `<A>` and `<AN>` only appear in
/// generalized (parent) patterns.
pub const LEAF_CLASS_COUNT: usize = 3;
