//! Rendering patterns in the "natural-language-like" regular expression
//! syntax popularized by Wrangler / Trifacta, which is how CLX presents
//! patterns and Replace operations to end users (Figures 2–4 of the paper).
//!
//! [`render_token`] is the one token renderer. [`pattern_to_wrangler`]
//! joins its compact form into the cluster label shown in the pattern
//! list, e.g. `\({digit}3\)\ {digit}3\-{digit}4`; the program explainer
//! joins its braced form (`{digit}{3}`) into the `/^...$/` regex of a
//! suggested `Replace` operation (Figure 4).

use crate::token::{Quantifier, Token, TokenClass};
use crate::Pattern;

/// The Wrangler-style name of a base token class (`{digit}`, `{lower}`,
/// `{upper}`, `{alpha}`, `{alnum}`).
pub fn class_wrangler_name(class: &TokenClass) -> Option<&'static str> {
    match class {
        TokenClass::Digit => Some("{digit}"),
        TokenClass::Lower => Some("{lower}"),
        TokenClass::Upper => Some("{upper}"),
        TokenClass::Alpha => Some("{alpha}"),
        TokenClass::AlphaNumeric => Some("{alnum}"),
        TokenClass::Literal(_) => None,
    }
}

/// Escape a literal for the Wrangler syntax: every character that is not
/// an ASCII letter or digit is preceded by a backslash, as in `\(` or `\ `
/// (Figure 2 of the paper). A letter or digit stays bare: `\` before it
/// reads as a class or a control character (`\d`, `\r`, ...).
fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for c in s.chars() {
        if !c.is_ascii_alphanumeric() {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Render one token in the Wrangler syntax: a literal with each character
/// that is not an ASCII letter or digit escaped, a base token as its class
/// name with its quantifier — `{digit}3` compact, or `{digit}{3}` with
/// `braced_quantifier` (the form used inside a full regex, Figure 4).
pub fn render_token(token: &Token, braced_quantifier: bool) -> String {
    match &token.class {
        TokenClass::Literal(s) => escape_literal(s),
        base => {
            let name = class_wrangler_name(base).expect("base class has a wrangler name");
            match token.quantifier {
                Quantifier::Exact(1) => name.to_string(),
                Quantifier::Exact(n) if braced_quantifier => format!("{name}{{{n}}}"),
                Quantifier::Exact(n) => format!("{name}{n}"),
                Quantifier::OneOrMore => format!("{name}+"),
            }
        }
    }
}

/// Render a pattern as the compact Wrangler-style label shown in the pattern
/// cluster list, e.g. `\({digit}3\)\ {digit}3\-{digit}4`.
pub fn pattern_to_wrangler(pattern: &Pattern) -> String {
    pattern.iter().map(|t| render_token(t, false)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize;

    #[test]
    fn figure_2_pattern_label() {
        let p = tokenize("(734) 645-8397");
        assert_eq!(
            pattern_to_wrangler(&p),
            "\\({digit}3\\)\\ {digit}3\\-{digit}4"
        );
    }

    #[test]
    fn figure_3_pattern_labels() {
        assert_eq!(
            pattern_to_wrangler(&tokenize("(734)586-7252")),
            "\\({digit}3\\){digit}3\\-{digit}4"
        );
        assert_eq!(
            pattern_to_wrangler(&tokenize("734-422-8073")),
            "{digit}3\\-{digit}3\\-{digit}4"
        );
        assert_eq!(
            pattern_to_wrangler(&tokenize("734.236.3466")),
            "{digit}3\\.{digit}3\\.{digit}4"
        );
    }

    #[test]
    fn figure_4_replace_regex() {
        // tokens: '(' <D>3 ')' <D>3 '-' <D>4 — the regex of Figure 4,
        // line 1, without its capture groups.
        let p = tokenize("(734)586-7252");
        let body: String = p.iter().map(|t| render_token(t, true)).collect();
        assert_eq!(body, "\\({digit}{3}\\){digit}{3}\\-{digit}{4}");
    }

    #[test]
    fn alphanumeric_literals_render_bare() {
        let p = crate::parse_pattern("'Dr'<U>").unwrap();
        assert_eq!(pattern_to_wrangler(&p), "Dr{upper}");
        let p = crate::parse_pattern("'Dr. '<U>").unwrap();
        assert_eq!(pattern_to_wrangler(&p), "Dr\\.\\ {upper}");
    }

    #[test]
    fn plus_and_single_quantifiers() {
        let p = crate::parse_pattern("<U><L>+'@'<AN>+").unwrap();
        assert_eq!(pattern_to_wrangler(&p), "{upper}{lower}+\\@{alnum}+");
        let braced: String = p.iter().map(|t| render_token(t, true)).collect();
        assert_eq!(braced, "{upper}{lower}+\\@{alnum}+");
    }

    #[test]
    fn class_names() {
        assert_eq!(class_wrangler_name(&TokenClass::Digit), Some("{digit}"));
        assert_eq!(class_wrangler_name(&TokenClass::Alpha), Some("{alpha}"));
        assert_eq!(class_wrangler_name(&TokenClass::literal("-")), None);
    }

    #[test]
    fn empty_pattern_renders_empty() {
        assert_eq!(pattern_to_wrangler(&Pattern::empty()), "");
    }
}
