//! Recursive-descent parser for the `clx-regex` dialect.
//!
//! The dialect supports the constructs CLX needs to render and execute its
//! explained `Replace` programs, plus enough general syntax for the
//! RegexReplace baseline:
//!
//! * literals and escapes (`\.` `\\` `\d` `\w` `\s`)
//! * `.` (any character)
//! * character classes `[a-z0-9_-]`, negated classes `[^...]`
//! * Wrangler-style named classes `{digit}`, `{lower}`, `{upper}`,
//!   `{alpha}`, `{alnum}` — CLX presents patterns to users in this syntax,
//!   and supporting it here means the program the user *sees* is the program
//!   that is *executed*
//! * grouping `(...)` (capturing) and `(?:...)` (non-capturing)
//! * alternation `|`
//! * quantifiers `*`, `+`, `?`, `{n}`, `{n,}`, `{n,m}`, each with an optional
//!   lazy `?` suffix
//! * anchors `^` and `$`
//!
//! Groups nest at most [`MAX_NESTING_DEPTH`] deep. The parser recurses once
//! per group level, so without the limit a hostile pattern of a few hundred
//! thousand `(` would overflow the stack and abort the process; with it,
//! the pattern is rejected with a [`RegexError::Syntax`] at the first group
//! past the limit.

use crate::ast::{Ast, CharClass};
use crate::error::RegexError;

/// Deepest group nesting a pattern may use.
const MAX_NESTING_DEPTH: usize = 250;

/// Parse a pattern string into an [`Ast`], also returning the number of
/// capture groups it defines.
pub fn parse(pattern: &str) -> Result<(Ast, usize), RegexError> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut parser = Parser {
        chars,
        pos: 0,
        group_count: 0,
        depth: 0,
        input: pattern,
    };
    let ast = parser.parse_alternation()?;
    if parser.pos != parser.chars.len() {
        return Err(parser.err("unexpected character (unbalanced ')'?)"));
    }
    Ok((ast, parser.group_count))
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    group_count: usize,
    /// Groups currently open around `pos`.
    depth: usize,
    input: &'a str,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> RegexError {
        RegexError::Syntax {
            position: self.byte_pos(),
            message: message.to_string(),
        }
    }

    fn byte_pos(&self) -> usize {
        self.input
            .char_indices()
            .nth(self.pos)
            .map(|(b, _)| b)
            .unwrap_or(self.input.len())
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alternation := concat ('|' concat)*
    fn parse_alternation(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat('|') {
            branches.push(self.parse_concat()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().expect("one branch"))
        } else {
            Ok(Ast::Alternate(branches))
        }
    }

    /// concat := repeat*
    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        match items.len() {
            0 => Ok(Ast::Empty),
            1 => Ok(items.pop().expect("one item")),
            _ => Ok(Ast::Concat(items)),
        }
    }

    /// repeat := atom quantifier?
    fn parse_repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.parse_atom()?;
        let start = self.pos;
        let rep = match self.peek() {
            Some('*') => {
                self.bump();
                Some((0, None))
            }
            Some('+') => {
                self.bump();
                Some((1, None))
            }
            Some('?') => {
                self.bump();
                Some((0, Some(1)))
            }
            Some('{') if self.looks_like_counted_repetition() => {
                Some(self.parse_counted_repetition()?)
            }
            _ => None,
        };
        match rep {
            None => Ok(atom),
            Some((min, max)) => {
                if matches!(atom, Ast::StartAnchor | Ast::EndAnchor | Ast::Empty) {
                    self.pos = start;
                    return Err(self.err("quantifier applied to an anchor or empty expression"));
                }
                let greedy = !self.eat('?');
                Ok(Ast::Repeat {
                    ast: Box::new(atom),
                    min,
                    max,
                    greedy,
                })
            }
        }
    }

    /// `{3}`, `{1,}`, `{2,5}` are counted repetitions; `{digit}` is a named
    /// class and must not be treated as a repetition.
    fn looks_like_counted_repetition(&self) -> bool {
        let mut i = self.pos + 1;
        matches!(self.chars.get(i), Some(c) if c.is_ascii_digit()) && {
            while matches!(self.chars.get(i), Some(c) if c.is_ascii_digit()) {
                i += 1;
            }
            if self.chars.get(i) == Some(&',') {
                i += 1;
                while matches!(self.chars.get(i), Some(c) if c.is_ascii_digit()) {
                    i += 1;
                }
            }
            self.chars.get(i) == Some(&'}')
        }
    }

    fn parse_counted_repetition(&mut self) -> Result<(u32, Option<u32>), RegexError> {
        let open_pos = self.byte_pos();
        self.bump(); // '{'
        let min = self.parse_number()?;
        let max = if self.eat(',') {
            if self.peek() == Some('}') {
                None
            } else {
                Some(self.parse_number()?)
            }
        } else {
            Some(min)
        };
        if !self.eat('}') {
            return Err(self.err("expected '}' to close repetition"));
        }
        if let Some(max) = max {
            if max < min {
                return Err(RegexError::InvalidRepetition {
                    position: open_pos,
                    message: format!("min {min} greater than max {max}"),
                });
            }
        }
        if min > 1000 || max.map(|m| m > 1000).unwrap_or(false) {
            return Err(RegexError::InvalidRepetition {
                position: open_pos,
                message: "repetition bound larger than 1000".into(),
            });
        }
        Ok((min, max))
    }

    fn parse_number(&mut self) -> Result<u32, RegexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        let s: String = self.chars[start..self.pos].iter().collect();
        s.parse().map_err(|_| self.err("number too large"))
    }

    /// atom := '(' ... ')' | '[' ... ']' | '{name}' | '.' | '^' | '$'
    ///       | escape | literal
    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        match self.peek() {
            None => Ok(Ast::Empty),
            Some('(') => {
                if self.depth == MAX_NESTING_DEPTH {
                    return Err(self.err(&format!(
                        "groups nested deeper than {MAX_NESTING_DEPTH} levels"
                    )));
                }
                self.bump();
                let non_capturing = if self.peek() == Some('?') {
                    if self.chars.get(self.pos + 1) == Some(&':') {
                        self.bump();
                        self.bump();
                        true
                    } else {
                        return Err(self.err("only (?: non-capturing groups are supported"));
                    }
                } else {
                    false
                };
                let index = if non_capturing {
                    0
                } else {
                    self.group_count += 1;
                    self.group_count
                };
                self.depth += 1;
                let inner = self.parse_alternation()?;
                self.depth -= 1;
                if !self.eat(')') {
                    return Err(self.err("expected ')'"));
                }
                if non_capturing {
                    Ok(Ast::NonCapturingGroup(Box::new(inner)))
                } else {
                    Ok(Ast::Group(Box::new(inner), index))
                }
            }
            Some('[') => self.parse_class(),
            Some('{') => self.parse_named_class(),
            Some('.') => {
                self.bump();
                Ok(Ast::AnyChar)
            }
            Some('^') => {
                self.bump();
                Ok(Ast::StartAnchor)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::EndAnchor)
            }
            Some('\\') => {
                self.bump();
                match self.bump() {
                    None => Err(self.err("dangling backslash")),
                    Some('d') => Ok(Ast::Class(CharClass::digit())),
                    Some('w') => Ok(Ast::Class(CharClass::alnum())),
                    Some('s') => Ok(Ast::Class(CharClass::whitespace())),
                    Some('D') => {
                        let mut c = CharClass::digit();
                        c.negated = true;
                        Ok(Ast::Class(c))
                    }
                    Some('S') => {
                        let mut c = CharClass::whitespace();
                        c.negated = true;
                        Ok(Ast::Class(c))
                    }
                    Some('n') => Ok(Ast::Literal('\n')),
                    Some('t') => Ok(Ast::Literal('\t')),
                    Some('r') => Ok(Ast::Literal('\r')),
                    Some(c) => Ok(Ast::Literal(c)),
                }
            }
            Some(')') => Err(self.err("unexpected ')'")),
            Some('*') | Some('+') | Some('?') => Err(self.err("quantifier with nothing to repeat")),
            Some(c) => {
                self.bump();
                Ok(Ast::Literal(c))
            }
        }
    }

    /// Named classes in the Wrangler presentation syntax: `{digit}`,
    /// `{lower}`, `{upper}`, `{alpha}`, `{alnum}` (and `{any}` for `.`).
    fn parse_named_class(&mut self) -> Result<Ast, RegexError> {
        let start = self.pos;
        self.bump(); // '{'
        let name_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphabetic()) {
            self.bump();
        }
        let name: String = self.chars[name_start..self.pos].iter().collect();
        if !self.eat('}') {
            self.pos = start;
            return Err(self.err("expected '}' to close named class"));
        }
        match name.as_str() {
            "digit" => Ok(Ast::Class(CharClass::digit())),
            "lower" => Ok(Ast::Class(CharClass::lower())),
            "upper" => Ok(Ast::Class(CharClass::upper())),
            "alpha" => Ok(Ast::Class(CharClass::alpha())),
            "alnum" => Ok(Ast::Class(CharClass::alnum())),
            "any" => Ok(Ast::AnyChar),
            other => {
                self.pos = start;
                Err(self.err(&format!("unknown named class {{{other}}}")))
            }
        }
    }

    /// `[...]` character class.
    fn parse_class(&mut self) -> Result<Ast, RegexError> {
        self.bump(); // '['
        let mut class = CharClass::new();
        if self.eat('^') {
            class.negated = true;
        }
        // A ']' immediately after the opening bracket is a literal ']'.
        if self.eat(']') {
            class.push_char(']');
        }
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated character class")),
                Some(']') => {
                    self.bump();
                    break;
                }
                Some('\\') => {
                    self.bump();
                    match self.bump() {
                        None => return Err(self.err("dangling backslash in class")),
                        Some('d') => {
                            for r in CharClass::digit().ranges {
                                class.ranges.push(r);
                            }
                        }
                        Some('w') => {
                            for r in CharClass::alnum().ranges {
                                class.ranges.push(r);
                            }
                        }
                        Some('s') => {
                            for r in CharClass::whitespace().ranges {
                                class.ranges.push(r);
                            }
                        }
                        Some('n') => class.push_char('\n'),
                        Some('t') => class.push_char('\t'),
                        Some(c) => class.push_char(c),
                    }
                }
                Some(c) => {
                    self.bump();
                    // Range `a-z` unless '-' is the last character before ']'.
                    if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                        self.bump(); // '-'
                        match self.bump() {
                            None => return Err(self.err("unterminated character class")),
                            Some('\\') => {
                                let esc = self
                                    .bump()
                                    .ok_or_else(|| self.err("dangling backslash in class"))?;
                                class.push_range(c, esc);
                            }
                            Some(hi) => {
                                if hi < c {
                                    return Err(self.err("invalid character range"));
                                }
                                class.push_range(c, hi);
                            }
                        }
                    } else {
                        class.push_char(c);
                    }
                }
            }
        }
        class.normalize();
        Ok(Ast::Class(class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(p: &str) -> (Ast, usize) {
        parse(p).unwrap_or_else(|e| panic!("parse {p:?} failed: {e}"))
    }

    #[test]
    fn literal_concat() {
        let (ast, n) = ok("abc");
        assert_eq!(n, 0);
        assert_eq!(
            ast,
            Ast::Concat(vec![
                Ast::Literal('a'),
                Ast::Literal('b'),
                Ast::Literal('c')
            ])
        );
    }

    #[test]
    fn single_char() {
        assert_eq!(ok("a").0, Ast::Literal('a'));
        assert_eq!(ok("").0, Ast::Empty);
    }

    #[test]
    fn escapes() {
        assert_eq!(ok("\\.").0, Ast::Literal('.'));
        assert_eq!(ok("\\(").0, Ast::Literal('('));
        assert_eq!(ok("\\\\").0, Ast::Literal('\\'));
        assert_eq!(ok("\\d").0, Ast::Class(CharClass::digit()));
        assert_eq!(ok("\\n").0, Ast::Literal('\n'));
    }

    #[test]
    fn classes() {
        let (ast, _) = ok("[a-z0-9_-]");
        match ast {
            Ast::Class(c) => {
                assert!(c.contains('q'));
                assert!(c.contains('7'));
                assert!(c.contains('_'));
                assert!(c.contains('-'));
                assert!(!c.contains('A'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn negated_class() {
        let (ast, _) = ok("[^0-9]");
        match ast {
            Ast::Class(c) => {
                assert!(c.negated);
                assert!(!c.contains('3'));
                assert!(c.contains('x'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn class_with_leading_bracket_and_trailing_dash() {
        let (ast, _) = ok("[]a-]");
        match ast {
            Ast::Class(c) => {
                assert!(c.contains(']'));
                assert!(c.contains('a'));
                assert!(c.contains('-'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn named_classes() {
        assert_eq!(ok("{digit}").0, Ast::Class(CharClass::digit()));
        assert_eq!(ok("{alnum}").0, Ast::Class(CharClass::alnum()));
        assert_eq!(ok("{any}").0, Ast::AnyChar);
        assert!(parse("{bogus}").is_err());
    }

    #[test]
    fn named_class_vs_counted_repetition() {
        // {digit}{3} : named class followed by a counted repetition.
        let (ast, _) = ok("{digit}{3}");
        match ast {
            Ast::Repeat { min, max, .. } => {
                assert_eq!(min, 3);
                assert_eq!(max, Some(3));
            }
            other => panic!("expected repeat, got {other:?}"),
        }
    }

    #[test]
    fn quantifiers() {
        match ok("a+").0 {
            Ast::Repeat {
                min, max, greedy, ..
            } => {
                assert_eq!((min, max, greedy), (1, None, true));
            }
            other => panic!("{other:?}"),
        }
        match ok("a*?").0 {
            Ast::Repeat {
                min, max, greedy, ..
            } => {
                assert_eq!((min, max, greedy), (0, None, false));
            }
            other => panic!("{other:?}"),
        }
        match ok("a?").0 {
            Ast::Repeat { min, max, .. } => assert_eq!((min, max), (0, Some(1))),
            other => panic!("{other:?}"),
        }
        match ok("a{2,5}").0 {
            Ast::Repeat { min, max, .. } => assert_eq!((min, max), (2, Some(5))),
            other => panic!("{other:?}"),
        }
        match ok("a{3,}").0 {
            Ast::Repeat { min, max, .. } => assert_eq!((min, max), (3, None)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn groups_are_numbered_left_to_right() {
        let (ast, n) = ok("(a)((b)c)");
        assert_eq!(n, 3);
        match ast {
            Ast::Concat(items) => {
                assert!(matches!(&items[0], Ast::Group(_, 1)));
                assert!(matches!(&items[1], Ast::Group(_, 2)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_capturing_group() {
        let (ast, n) = ok("(?:ab)+");
        assert_eq!(n, 0);
        assert!(matches!(ast, Ast::Repeat { .. }));
    }

    #[test]
    fn alternation_and_anchors() {
        let (ast, _) = ok("^a|b$");
        assert!(matches!(ast, Ast::Alternate(ref v) if v.len() == 2));
    }

    #[test]
    fn paper_figure_4_regex_parses() {
        let (_, groups) = ok("^\\(({digit}{3})\\)({digit}{3})\\-({digit}{4})$");
        assert_eq!(groups, 3);
    }

    #[test]
    fn errors() {
        assert!(parse("(").is_err());
        assert!(parse(")").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("[a").is_err());
        assert!(parse("*a").is_err());
        assert!(parse("a{5,2}").is_err());
        assert!(parse("a{2000}").is_err());
        assert!(parse("\\").is_err());
        assert!(parse("(?=x)").is_err());
        assert!(parse("^+").is_err());
        assert!(parse("[z-a]").is_err());
    }

    #[test]
    fn nesting_is_limited_at_the_first_group_past_the_limit() {
        let nested = |depth: usize| "(".repeat(depth) + "a" + &")".repeat(depth);
        let (_, groups) = ok(&nested(MAX_NESTING_DEPTH));
        assert_eq!(groups, MAX_NESTING_DEPTH);
        // Siblings do not add depth.
        ok(&nested(MAX_NESTING_DEPTH).repeat(3));
        match parse(&nested(MAX_NESTING_DEPTH + 1)) {
            Err(RegexError::Syntax { position, message }) => {
                assert_eq!(position, MAX_NESTING_DEPTH);
                assert!(message.contains("nested deeper"), "{message}");
            }
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }

    #[test]
    fn curly_brace_without_repetition_or_name_is_error() {
        // `{` that is neither a counted repetition nor a known named class.
        assert!(parse("a{,3}").is_err() || parse("a{,3}").is_ok());
        assert!(parse("{3digit}").is_err());
    }
}
