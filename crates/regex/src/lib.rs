//! # clx-regex
//!
//! A small, self-contained regular-expression engine used by CLX to
//! *execute* the regexp `Replace` operations it presents to users (Figure 4
//! of the paper) and to power the RegexReplace baseline of the evaluation.
//!
//! The engine is a Thompson-NFA ("Pike VM") simulation: matching is linear
//! in pattern-size × input-length, never backtracks, and supports capture
//! groups — exactly what is needed to run `Replace(regex, "$1-$2")`-style
//! transformations safely over large messy columns.
//!
//! Supported syntax is documented on the (private) `parser` module; it notably
//! includes the Wrangler-style named classes (`{digit}`, `{alnum}`, ...) so
//! the regex the CLX user *reads* is the regex that is *run*.
//!
//! # Example
//!
//! ```
//! use clx_regex::Regex;
//!
//! let re = Regex::new(r"^({digit}{3})\-({digit}{3})\-({digit}{4})$").unwrap();
//! assert!(re.is_match("734-422-8073"));
//! assert_eq!(
//!     re.replace_all("734-422-8073", "($1) $2-$3"),
//!     "(734) 422-8073",
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
mod error;
mod parser;
mod program;
mod replace;
mod vm;

pub use error::RegexError;
pub use replace::{ReplacementTemplate, TemplatePart};

use program::Program;

/// A compiled regular expression.
///
/// Compilation happens once in [`Regex::new`]; matching never mutates the
/// compiled Pike-VM program, so a `Regex` is immutable, `Send + Sync`, and
/// can be shared freely across the worker threads of a batch executor such
/// as `clx-engine` (compile once, match everywhere).
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

// The batch-execution layer shares compiled regexes across threads; keep the
// thread-safety guarantee compiler-checked rather than incidental.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Regex>();
    assert_send_sync::<Match>();
    assert_send_sync::<Captures>();
    assert_send_sync::<ReplacementTemplate>();
};

/// A single match: its byte span within the haystack and the matched text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Byte offset of the start of the match.
    pub start: usize,
    /// Byte offset one past the end of the match.
    pub end: usize,
    /// The matched text.
    pub text: String,
}

/// The capture groups of a match. Index 0 is the whole match; groups that
/// did not participate are `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures {
    groups: Vec<Option<Match>>,
}

impl Captures {
    /// The capture group at `index` (0 = whole match).
    pub fn get(&self, index: usize) -> Option<&Match> {
        self.groups.get(index).and_then(|g| g.as_ref())
    }

    /// The number of groups (including the whole match).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` if there are no groups (never the case for a real match).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Group texts as `Option<&str>` slices suitable for
    /// [`ReplacementTemplate::expand`].
    pub fn group_texts(&self) -> Vec<Option<&str>> {
        self.groups
            .iter()
            .map(|g| g.as_ref().map(|m| m.text.as_str()))
            .collect()
    }
}

impl Regex {
    /// Compile a regular expression.
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        let (ast, group_count) = parser::parse(pattern)?;
        let program = program::compile(&ast, group_count)?;
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
        })
    }

    /// The source pattern this regex was compiled from.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// The number of capture groups (excluding the implicit whole match).
    pub fn group_count(&self) -> usize {
        self.program.group_count
    }

    /// Does the regex match anywhere in `text`?
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Does the regex match the *entire* `text`?
    ///
    /// Equivalent to anchoring with `^...$`, which is how CLX uses patterns
    /// as `Match(s, p)` predicates.
    pub fn is_full_match(&self, text: &str) -> bool {
        match self.captures(text) {
            Some(c) => {
                let whole = c.get(0).expect("whole match present");
                whole.start == 0 && whole.end == text.len()
            }
            None => false,
        }
    }

    /// Find the leftmost match in `text`.
    pub fn find(&self, text: &str) -> Option<Match> {
        self.find_at_char(text, 0).map(|(m, _)| m)
    }

    /// Find the leftmost match and return all capture groups.
    pub fn captures(&self, text: &str) -> Option<Captures> {
        let chars: Vec<char> = text.chars().collect();
        let byte_offsets = byte_offsets(text, &chars);
        for start in 0..=chars.len() {
            if let Some(slots) = vm::exec_at(&self.program, &chars, start) {
                return Some(slots_to_captures(&slots, &chars, &byte_offsets));
            }
        }
        None
    }

    /// Iterate over all non-overlapping matches, leftmost-first.
    pub fn find_iter<'t>(&'t self, text: &'t str) -> FindIter<'t> {
        FindIter {
            regex: self,
            text,
            next_char: 0,
            done: false,
        }
    }

    /// Replace every non-overlapping match of the regex in `text` with the
    /// expansion of `template` (see [`ReplacementTemplate`]).
    pub fn replace_all(&self, text: &str, template: &str) -> String {
        let template = ReplacementTemplate::parse(template);
        self.replace_all_template(text, &template)
    }

    /// [`Regex::replace_all`] with a pre-parsed template.
    pub fn replace_all_template(&self, text: &str, template: &ReplacementTemplate) -> String {
        let chars: Vec<char> = text.chars().collect();
        let byte_offsets = byte_offsets(text, &chars);
        let mut out = String::with_capacity(text.len());
        let mut pos = 0usize; // character position
        while pos <= chars.len() {
            let mut found = None;
            for start in pos..=chars.len() {
                if let Some(slots) = vm::exec_at(&self.program, &chars, start) {
                    found = Some(slots_to_captures(&slots, &chars, &byte_offsets));
                    break;
                }
            }
            match found {
                None => break,
                Some(caps) => {
                    let whole = caps.get(0).expect("whole match present").clone();
                    // Copy the text between the previous position and the match.
                    let prefix_start = byte_offsets[pos];
                    out.push_str(&text[prefix_start..whole.start]);
                    out.push_str(&template.expand(&caps.group_texts()));
                    // Advance; for empty matches step one character to avoid
                    // looping forever.
                    let match_end_char = char_pos_of_byte(&byte_offsets, whole.end);
                    if whole.start == whole.end {
                        if match_end_char < chars.len() {
                            out.push(chars[match_end_char]);
                        }
                        pos = match_end_char + 1;
                    } else {
                        pos = match_end_char;
                    }
                }
            }
        }
        if pos <= chars.len() {
            out.push_str(&text[byte_offsets[pos.min(chars.len())]..]);
        }
        out
    }

    /// Internal: find the leftmost match starting at or after character
    /// position `from`; returns the match and the character position of its
    /// end.
    fn find_at_char(&self, text: &str, from: usize) -> Option<(Match, usize)> {
        let chars: Vec<char> = text.chars().collect();
        let byte_offsets = byte_offsets(text, &chars);
        for start in from..=chars.len() {
            if let Some(slots) = vm::exec_at(&self.program, &chars, start) {
                let s = slots[0].expect("slot 0 set on match");
                let e = slots[1].expect("slot 1 set on match");
                let m = Match {
                    start: byte_offsets[s],
                    end: byte_offsets[e],
                    text: chars[s..e].iter().collect(),
                };
                return Some((m, e));
            }
        }
        None
    }
}

/// Iterator over non-overlapping matches; see [`Regex::find_iter`].
pub struct FindIter<'t> {
    regex: &'t Regex,
    text: &'t str,
    next_char: usize,
    done: bool,
}

impl Iterator for FindIter<'_> {
    type Item = Match;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let (m, end_char) = self.regex.find_at_char(self.text, self.next_char)?;
        if m.start == m.end {
            // empty match: advance by one character to guarantee progress
            self.next_char = end_char + 1;
        } else {
            self.next_char = end_char;
        }
        if self.next_char > self.text.chars().count() {
            self.done = true;
        }
        Some(m)
    }
}

fn byte_offsets(text: &str, chars: &[char]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(chars.len() + 1);
    let mut off = 0;
    for c in chars {
        offsets.push(off);
        off += c.len_utf8();
    }
    offsets.push(text.len());
    offsets
}

fn char_pos_of_byte(byte_offsets: &[usize], byte: usize) -> usize {
    byte_offsets
        .iter()
        .position(|&b| b == byte)
        .expect("byte offset on a character boundary")
}

fn slots_to_captures(slots: &[Option<usize>], chars: &[char], byte_offsets: &[usize]) -> Captures {
    let groups = slots
        .chunks(2)
        .map(|pair| match (pair[0], pair[1]) {
            (Some(s), Some(e)) => Some(Match {
                start: byte_offsets[s],
                end: byte_offsets[e],
                text: chars[s..e].iter().collect(),
            }),
            _ => None,
        })
        .collect();
    Captures { groups }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The child half of [`deep_nesting_is_an_error_not_an_abort`]: run on
    /// its own, a stack overflow here would take the whole test binary
    /// down, so it is ignored and only ever run in a child process.
    #[test]
    #[ignore = "run in a child process by deep_nesting_is_an_error_not_an_abort"]
    fn deep_nesting_child() {
        let pattern = "(".repeat(200_000) + &")".repeat(200_000);
        let start = std::time::Instant::now();
        let result = Regex::new(&pattern);
        let elapsed = start.elapsed();
        assert!(
            matches!(result, Err(RegexError::Syntax { .. })),
            "{result:?}"
        );
        assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        // A stack overflow aborts the process and cannot be caught, so the
        // 200k-deep pattern is parsed in a child running this test binary.
        let output = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::deep_nesting_child", "--ignored"])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "child exited with {:?}\n{stdout}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(stdout.contains("1 passed"), "child ran no test:\n{stdout}");
    }

    #[test]
    fn is_match_and_full_match() {
        let re = Regex::new("[0-9]{3}").unwrap();
        assert!(re.is_match("abc123def"));
        assert!(!re.is_match("abcdef"));
        assert!(re.is_full_match("123"));
        assert!(!re.is_full_match("1234"));
        assert!(!re.is_full_match("a123"));
    }

    #[test]
    fn find_reports_byte_spans() {
        let re = Regex::new("[0-9]+").unwrap();
        let m = re.find("ab 123 cd").unwrap();
        assert_eq!((m.start, m.end), (3, 6));
        assert_eq!(m.text, "123");
    }

    #[test]
    fn find_leftmost_not_longest_overall() {
        let re = Regex::new("[0-9]+").unwrap();
        let m = re.find("a1b22222").unwrap();
        assert_eq!(m.text, "1");
    }

    #[test]
    fn captures_groups() {
        let re = Regex::new(r"^\(([0-9]{3})\) ([0-9]{3})-([0-9]{4})$").unwrap();
        let caps = re.captures("(734) 645-8397").unwrap();
        assert_eq!(caps.get(1).unwrap().text, "734");
        assert_eq!(caps.get(2).unwrap().text, "645");
        assert_eq!(caps.get(3).unwrap().text, "8397");
        assert_eq!(caps.len(), 4);
    }

    #[test]
    fn replace_all_phone_example_from_figure_4() {
        let re = Regex::new(r"^([0-9]{3})\-([0-9]{3})\-([0-9]{4})$").unwrap();
        assert_eq!(
            re.replace_all("734-422-8073", "($1) $2-$3"),
            "(734) 422-8073"
        );
        // Non-matching strings are untouched.
        assert_eq!(re.replace_all("N/A", "($1) $2-$3"), "N/A");
    }

    #[test]
    fn replace_all_with_wrangler_named_classes() {
        let re = Regex::new(r"^\(({digit}{3})\)({digit}{3})\-({digit}{4})$").unwrap();
        assert_eq!(
            re.replace_all("(734)586-7252", "($1) $2-$3"),
            "(734) 586-7252"
        );
    }

    #[test]
    fn replace_all_multiple_occurrences() {
        let re = Regex::new("[0-9]+").unwrap();
        assert_eq!(re.replace_all("a1b22c333", "<$0>"), "a<1>b<22>c<333>");
    }

    #[test]
    fn replace_all_empty_match_progresses() {
        let re = Regex::new("x*").unwrap();
        // Every position matches the empty string; must terminate and keep
        // the original characters.
        let out = re.replace_all("ab", "-");
        assert!(out.contains('a') && out.contains('b'));
    }

    #[test]
    fn find_iter_collects_all() {
        let re = Regex::new("[0-9]+").unwrap();
        let all: Vec<String> = re.find_iter("1 22 333").map(|m| m.text).collect();
        assert_eq!(all, vec!["1", "22", "333"]);
    }

    #[test]
    fn find_iter_on_no_match_is_empty() {
        let re = Regex::new("[0-9]+").unwrap();
        assert_eq!(re.find_iter("abc").count(), 0);
    }

    #[test]
    fn unicode_text() {
        let re = Regex::new("[0-9]+").unwrap();
        let m = re.find("héllo 42").unwrap();
        assert_eq!(m.text, "42");
        assert_eq!(&"héllo 42"[m.start..m.end], "42");
    }

    #[test]
    fn group_count() {
        assert_eq!(Regex::new("(a)(b)").unwrap().group_count(), 2);
        assert_eq!(Regex::new("ab").unwrap().group_count(), 0);
    }

    #[test]
    fn as_str_roundtrip() {
        let re = Regex::new("a+b").unwrap();
        assert_eq!(re.as_str(), "a+b");
    }

    #[test]
    fn invalid_pattern_errors() {
        assert!(Regex::new("(").is_err());
        assert!(Regex::new("[").is_err());
    }

    #[test]
    fn alternation_in_replace() {
        let re = Regex::new("(cat|dog)").unwrap();
        assert_eq!(re.replace_all("cat dog cow", "pet"), "pet pet cow");
    }
}
