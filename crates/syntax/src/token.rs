//! Tokens produced by the lexer and consumed by the preprocessor and parser.
//!
//! A [`Token`] is a `Copy` value of at most 32 bytes: every piece of token
//! text (identifiers, string literals, header names, annotation words) is
//! interned once by the lexer, so the preprocessor and parser move tokens
//! around without allocating or hashing their text again.

use crate::intern::Symbol;
use crate::span::Span;
use std::fmt;

/// C keywords recognized by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the keywords themselves
pub enum Keyword {
    Auto,
    Break,
    Case,
    Char,
    Const,
    Continue,
    Default,
    Do,
    Double,
    Else,
    Enum,
    Extern,
    Float,
    For,
    Goto,
    If,
    Int,
    Long,
    Register,
    Return,
    Short,
    Signed,
    Sizeof,
    Static,
    Struct,
    Switch,
    Typedef,
    Union,
    Unsigned,
    Void,
    Volatile,
    While,
}

impl Keyword {
    /// Maps an identifier to a keyword, if it is one.
    #[allow(clippy::should_implement_trait)] // fallible lookup, not a parse
    pub fn from_str(s: &str) -> Option<Keyword> {
        Keyword::from_bytes(s.as_bytes())
    }

    /// Keyword lookup on raw identifier bytes: a perfect-match fast path for
    /// the lexer's hot loop. Dispatches on `(length, first byte)` — at most
    /// one exact comparison runs per candidate identifier, and the common
    /// case (user identifiers, which dominate real sources) falls out on the
    /// first-byte mismatch without comparing full strings.
    pub fn from_bytes(s: &[u8]) -> Option<Keyword> {
        use Keyword::*;
        let &first = s.first()?;
        // Buckets with a single candidate fall through to one exact compare;
        // the few ambiguous buckets disambiguate on a second byte first.
        let (kw, text): (Keyword, &[u8]) = match (s.len(), first) {
            (2, b'd') => (Do, b"do"),
            (2, b'i') => (If, b"if"),
            (3, b'f') => (For, b"for"),
            (3, b'i') => (Int, b"int"),
            (4, b'a') => (Auto, b"auto"),
            (4, b'c') => {
                if s[1] == b'a' {
                    (Case, b"case")
                } else {
                    (Char, b"char")
                }
            }
            (4, b'e') => {
                if s[1] == b'l' {
                    (Else, b"else")
                } else {
                    (Enum, b"enum")
                }
            }
            (4, b'g') => (Goto, b"goto"),
            (4, b'l') => (Long, b"long"),
            (4, b'v') => (Void, b"void"),
            (5, b'b') => (Break, b"break"),
            (5, b'c') => (Const, b"const"),
            (5, b'f') => (Float, b"float"),
            (5, b's') => (Short, b"short"),
            (5, b'u') => (Union, b"union"),
            (5, b'w') => (While, b"while"),
            (6, b'd') => (Double, b"double"),
            (6, b'e') => (Extern, b"extern"),
            (6, b'r') => (Return, b"return"),
            (6, b's') => match (s[1], s[2]) {
                (b'i', b'g') => (Signed, b"signed"),
                (b'i', _) => (Sizeof, b"sizeof"),
                (b't', b'a') => (Static, b"static"),
                (b't', _) => (Struct, b"struct"),
                _ => (Switch, b"switch"),
            },
            (7, b'd') => (Default, b"default"),
            (7, b't') => (Typedef, b"typedef"),
            (8, b'c') => (Continue, b"continue"),
            (8, b'r') => (Register, b"register"),
            (8, b'u') => (Unsigned, b"unsigned"),
            (8, b'v') => (Volatile, b"volatile"),
            _ => return None,
        };
        if s == text {
            Some(kw)
        } else {
            None
        }
    }

    /// The keyword's spelling.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Auto => "auto",
            Break => "break",
            Case => "case",
            Char => "char",
            Const => "const",
            Continue => "continue",
            Default => "default",
            Do => "do",
            Double => "double",
            Else => "else",
            Enum => "enum",
            Extern => "extern",
            Float => "float",
            For => "for",
            Goto => "goto",
            If => "if",
            Int => "int",
            Long => "long",
            Register => "register",
            Return => "return",
            Short => "short",
            Signed => "signed",
            Sizeof => "sizeof",
            Static => "static",
            Struct => "struct",
            Switch => "switch",
            Typedef => "typedef",
            Union => "union",
            Unsigned => "unsigned",
            Void => "void",
            Volatile => "volatile",
            While => "while",
        }
    }
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants name their punctuators
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Ellipsis,
    PlusPlus,
    MinusMinus,
    Amp,
    Star,
    Plus,
    Minus,
    Tilde,
    Bang,
    Slash,
    Percent,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Caret,
    Pipe,
    AmpAmp,
    PipePipe,
    Question,
    Colon,
    Eq,
    StarEq,
    SlashEq,
    PercentEq,
    PlusEq,
    MinusEq,
    ShlEq,
    ShrEq,
    AmpEq,
    CaretEq,
    PipeEq,
    Hash,
    HashHash,
}

impl Punct {
    /// The punctuator's spelling.
    pub fn as_str(&self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            Ellipsis => "...",
            PlusPlus => "++",
            MinusMinus => "--",
            Amp => "&",
            Star => "*",
            Plus => "+",
            Minus => "-",
            Tilde => "~",
            Bang => "!",
            Slash => "/",
            Percent => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            Caret => "^",
            Pipe => "|",
            AmpAmp => "&&",
            PipePipe => "||",
            Question => "?",
            Colon => ":",
            Eq => "=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            PlusEq => "+=",
            MinusEq => "-=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            AmpEq => "&=",
            CaretEq => "^=",
            PipeEq => "|=",
            Hash => "#",
            HashHash => "##",
        }
    }
}

/// The payload of a token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// An identifier (not a keyword).
    Ident(Symbol),
    /// A C keyword.
    Kw(Keyword),
    /// Integer literal with its parsed value.
    Int(i64),
    /// Floating literal with its parsed value.
    Float(f64),
    /// Character literal (value of the character).
    Char(i64),
    /// String literal (unescaped contents).
    Str(Symbol),
    /// Punctuation or operator.
    Punct(Punct),
    /// A stylized annotation comment `/*@ ... @*/`.
    ///
    /// The payload is the comment's whitespace-separated words joined by
    /// single spaces, e.g. `"null out only"`; split it with
    /// `as_str().split(' ')`.
    Annot(Symbol),
    /// Header name from an `#include <...>` directive (angle form only;
    /// quoted includes lex as [`TokenKind::Str`]).
    HeaderName(Symbol),
    /// End of input.
    Eof,
}

impl TokenKind {
    /// True for the given punctuator.
    pub fn is_punct(&self, p: Punct) -> bool {
        matches!(self, TokenKind::Punct(q) if *q == p)
    }

    /// True for the given keyword.
    pub fn is_kw(&self, k: Keyword) -> bool {
        matches!(self, TokenKind::Kw(q) if *q == k)
    }

    /// The identifier, if this is one.
    pub fn ident(&self) -> Option<Symbol> {
        match *self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Kw(k) => write!(f, "{}", k.as_str()),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::Char(c) => {
                if let Some(ch) = char::from_u32(*c as u32) {
                    write!(f, "'{}'", ch.escape_default())
                } else {
                    write!(f, "'\\x{c:x}'")
                }
            }
            TokenKind::Str(s) => write!(f, "\"{}\"", s.as_str().escape_default()),
            TokenKind::Punct(p) => write!(f, "{}", p.as_str()),
            TokenKind::Annot(words) => write!(f, "/*@{words}@*/"),
            TokenKind::HeaderName(h) => write!(f, "<{h}>"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexed token: payload, source span, and layout facts used by the
/// preprocessor (directive recognition needs to know about line starts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// The token payload.
    pub kind: TokenKind,
    /// Where the token came from.
    pub span: Span,
    /// True when this token is the first on its source line.
    pub first_on_line: bool,
    /// True when whitespace precedes this token.
    pub leading_space: bool,
}

// Tokens are copied freely through the preprocessor and parser; keep them
// within half a cache line.
const _: () = assert!(std::mem::size_of::<Token>() <= 32);

impl Token {
    /// Creates a token with default layout flags.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span, first_on_line: false, leading_space: true }
    }

    /// The synthetic end-of-file token.
    pub fn eof(span: Span) -> Self {
        Token { kind: TokenKind::Eof, span, first_on_line: true, leading_space: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for s in ["if", "while", "struct", "typedef", "sizeof", "volatile"] {
            let k = Keyword::from_str(s).unwrap();
            assert_eq!(k.as_str(), s);
        }
        assert!(Keyword::from_str("foo").is_none());
    }

    #[test]
    fn display_tokens() {
        assert_eq!(TokenKind::Punct(Punct::Arrow).to_string(), "->");
        assert_eq!(TokenKind::Ident("x".into()).to_string(), "x");
        assert_eq!(TokenKind::Str("a\nb".into()).to_string(), "\"a\\nb\"");
        assert_eq!(TokenKind::Annot("null only".into()).to_string(), "/*@null only@*/");
        assert_eq!(TokenKind::HeaderName("stdio.h".into()).to_string(), "<stdio.h>");
    }

    #[test]
    fn predicates() {
        assert!(TokenKind::Punct(Punct::Semi).is_punct(Punct::Semi));
        assert!(!TokenKind::Punct(Punct::Semi).is_punct(Punct::Comma));
        assert!(TokenKind::Kw(Keyword::If).is_kw(Keyword::If));
        assert_eq!(TokenKind::Ident("ab".into()).ident(), Some(Symbol::intern("ab")));
        assert_eq!(TokenKind::Int(3).ident(), None);
    }
}
