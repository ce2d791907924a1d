//! Token definitions shared by the lexer and parser.

use crate::error::Span;
use std::fmt;

/// The kind of a lexical token.
///
/// Keywords are not distinguished at the lexer level: MSQL (like SQL) treats
/// keywords case-insensitively and most of them are contextual (`VITAL`,
/// `COMP`, `SERVICE`, ...), so the lexer emits [`TokenKind::Ident`] and the
/// parser matches keywords by spelling.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword. May contain `%` wildcard characters, which mark
    /// an MSQL *multiple identifier* (e.g. `flight%`, `%code`).
    Ident(String),
    /// A single-quoted string literal, with quotes removed and `''` unescaped.
    StringLit(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `~` — MSQL optional-column designator.
    Tilde,
    /// `||` — string concatenation.
    Concat,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// True if the token is an identifier spelled like `kw` (ASCII
    /// case-insensitive). Used for keyword matching.
    pub fn is_kw(&self, kw: &str) -> bool {
        match self {
            TokenKind::Ident(s) => s.eq_ignore_ascii_case(kw),
            _ => false,
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::StringLit(s) => write!(f, "'{s}'"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::NotEq => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::LtEq => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::GtEq => write!(f, ">="),
            TokenKind::Tilde => write!(f, "~"),
            TokenKind::Concat => write!(f, "||"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexical token with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Source location of the token.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_match_is_case_insensitive() {
        let t = TokenKind::Ident("SeLeCt".into());
        assert!(t.is_kw("select"));
        assert!(t.is_kw("SELECT"));
        assert!(!t.is_kw("from"));
    }

    #[test]
    fn non_ident_never_matches_keyword() {
        assert!(!TokenKind::Comma.is_kw("select"));
        assert!(!TokenKind::StringLit("select".into()).is_kw("select"));
    }

    #[test]
    fn display_roundtrips_punctuation() {
        assert_eq!(TokenKind::NotEq.to_string(), "<>");
        assert_eq!(TokenKind::Concat.to_string(), "||");
        assert_eq!(TokenKind::Tilde.to_string(), "~");
    }
}
