//! Lexer for Mini-M3.
//!
//! Keywords are upper-case as in Modula-3; identifiers are case-sensitive.
//! Comments are `(* ... *)` and nest.
//!
//! Tokens borrow the source: an identifier is a slice of it, and a text
//! literal is the raw slice between its quotes (the lexer validates its
//! escapes, [`unescape`] decodes them once). Identifiers, keywords,
//! numbers and punctuation are ASCII, so the lexer scans bytes; non-ASCII
//! text can only appear in comments and literals, where columns still
//! count characters. The token vector is the only allocation.

use crate::error::{Diagnostic, Phase, Pos};

/// A lexical token, borrowing the source it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'src> {
    // Literals and identifiers.
    /// Integer literal.
    Int(i64),
    /// Character literal (code point).
    Char(i64),
    /// Identifier.
    Ident(&'src str),
    /// Text (string) literal, as written between the quotes.
    Text(&'src str),

    // Keywords.
    Module,
    Type,
    Const,
    Var,
    Procedure,
    Begin,
    End,
    If,
    Then,
    Elsif,
    Else,
    While,
    Do,
    Repeat,
    Until,
    For,
    To,
    By,
    Loop,
    Exit,
    Return,
    With,
    Record,
    Array,
    Of,
    Ref,
    Div,
    Mod,
    And,
    Or,
    Not,
    Nil,
    True,
    False,
    Integer,
    Boolean,
    CharKw,

    // Punctuation and operators.
    Semi,
    Colon,
    Comma,
    Dot,
    DotDot,
    Assign,
    Eq,
    Hash,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Caret,
    /// End of input.
    Eof,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Char(c) => write!(f, "character literal {c}"),
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Text(_) => write!(f, "text literal"),
            Tok::Eof => write!(f, "end of input"),
            other => write!(f, "`{}`", keyword_or_symbol(*other)),
        }
    }
}

fn keyword_or_symbol(t: Tok<'_>) -> &'static str {
    match t {
        Tok::Module => "MODULE",
        Tok::Type => "TYPE",
        Tok::Const => "CONST",
        Tok::Var => "VAR",
        Tok::Procedure => "PROCEDURE",
        Tok::Begin => "BEGIN",
        Tok::End => "END",
        Tok::If => "IF",
        Tok::Then => "THEN",
        Tok::Elsif => "ELSIF",
        Tok::Else => "ELSE",
        Tok::While => "WHILE",
        Tok::Do => "DO",
        Tok::Repeat => "REPEAT",
        Tok::Until => "UNTIL",
        Tok::For => "FOR",
        Tok::To => "TO",
        Tok::By => "BY",
        Tok::Loop => "LOOP",
        Tok::Exit => "EXIT",
        Tok::Return => "RETURN",
        Tok::With => "WITH",
        Tok::Record => "RECORD",
        Tok::Array => "ARRAY",
        Tok::Of => "OF",
        Tok::Ref => "REF",
        Tok::Div => "DIV",
        Tok::Mod => "MOD",
        Tok::And => "AND",
        Tok::Or => "OR",
        Tok::Not => "NOT",
        Tok::Nil => "NIL",
        Tok::True => "TRUE",
        Tok::False => "FALSE",
        Tok::Integer => "INTEGER",
        Tok::Boolean => "BOOLEAN",
        Tok::CharKw => "CHAR",
        Tok::Semi => ";",
        Tok::Colon => ":",
        Tok::Comma => ",",
        Tok::Dot => ".",
        Tok::DotDot => "..",
        Tok::Assign => ":=",
        Tok::Eq => "=",
        Tok::Hash => "#",
        Tok::Lt => "<",
        Tok::Le => "<=",
        Tok::Gt => ">",
        Tok::Ge => ">=",
        Tok::Plus => "+",
        Tok::Minus => "-",
        Tok::Star => "*",
        Tok::LParen => "(",
        Tok::RParen => ")",
        Tok::LBracket => "[",
        Tok::RBracket => "]",
        Tok::Caret => "^",
        _ => "?",
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// Where it starts.
    pub pos: Pos,
}

fn keyword(s: &str) -> Option<Tok<'static>> {
    Some(match s {
        "MODULE" => Tok::Module,
        "TYPE" => Tok::Type,
        "CONST" => Tok::Const,
        "VAR" => Tok::Var,
        "PROCEDURE" => Tok::Procedure,
        "BEGIN" => Tok::Begin,
        "END" => Tok::End,
        "IF" => Tok::If,
        "THEN" => Tok::Then,
        "ELSIF" => Tok::Elsif,
        "ELSE" => Tok::Else,
        "WHILE" => Tok::While,
        "DO" => Tok::Do,
        "REPEAT" => Tok::Repeat,
        "UNTIL" => Tok::Until,
        "FOR" => Tok::For,
        "TO" => Tok::To,
        "BY" => Tok::By,
        "LOOP" => Tok::Loop,
        "EXIT" => Tok::Exit,
        "RETURN" => Tok::Return,
        "WITH" => Tok::With,
        "RECORD" => Tok::Record,
        "ARRAY" => Tok::Array,
        "OF" => Tok::Of,
        "REF" => Tok::Ref,
        "DIV" => Tok::Div,
        "MOD" => Tok::Mod,
        "AND" => Tok::And,
        "OR" => Tok::Or,
        "NOT" => Tok::Not,
        "NIL" => Tok::Nil,
        "TRUE" => Tok::True,
        "FALSE" => Tok::False,
        "INTEGER" => Tok::Integer,
        "BOOLEAN" => Tok::Boolean,
        "CHAR" => Tok::CharKw,
        _ => return None,
    })
}

struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next character.
    at: usize,
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
    /// Bytes of the current line that continue a multi-byte character: a
    /// column counts characters, so it is `at - line_start - extra + 1`.
    extra: usize,
}

impl<'src> Lexer<'src> {
    fn pos(&self) -> Pos {
        Pos::new(self.line, (self.at - self.line_start - self.extra + 1) as u32)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    /// Consumes the newline at `at`.
    fn newline(&mut self) {
        self.at += 1;
        self.line += 1;
        self.line_start = self.at;
        self.extra = 0;
    }

    /// Consumes one character, whatever its encoding.
    fn bump(&mut self) -> Option<char> {
        let b = *self.src.as_bytes().get(self.at)?;
        if b == b'\n' {
            self.newline();
            return Some('\n');
        }
        let c = if b.is_ascii() {
            char::from(b)
        } else {
            self.src[self.at..].chars().next().expect("the lexer stops on character boundaries")
        };
        self.at += c.len_utf8();
        self.extra += c.len_utf8() - 1;
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Phase::Lex, self.pos(), msg)
    }

    /// Skips white space, Unicode white space included.
    fn skip_space(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b'\n' => self.newline(),
                b' ' | b'\t' | b'\r' | 0x0B | 0x0C => self.at += 1,
                0x80.. if self.src[self.at..].starts_with(char::is_whitespace) => {
                    self.bump();
                }
                _ => return,
            }
        }
    }

    /// Skips the rest of a comment whose `(*` is consumed; comments nest.
    fn skip_comment(&mut self) -> Result<(), Diagnostic> {
        let mut depth = 1;
        loop {
            let Some(b) = self.peek() else { return Err(self.err("unterminated comment")) };
            match b {
                b'\n' => {
                    self.newline();
                    continue;
                }
                b'*' if self.src.as_bytes().get(self.at + 1) == Some(&b')') => {
                    self.at += 2;
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                    continue;
                }
                b'(' if self.src.as_bytes().get(self.at + 1) == Some(&b'*') => {
                    self.at += 2;
                    depth += 1;
                    continue;
                }
                // Counted in `extra`: the byte continues a character.
                0x80..=0xBF => self.extra += 1,
                _ => {}
            }
            self.at += 1;
        }
    }

    /// A character literal after its opening quote.
    fn char_literal(&mut self) -> Result<i64, Diagnostic> {
        let ch = match self.bump() {
            Some('\\') => match self.bump() {
                Some('n') => '\n' as i64,
                Some('t') => '\t' as i64,
                Some('\\') => '\\' as i64,
                Some('\'') => '\'' as i64,
                Some('0') => 0,
                _ => return Err(self.err("bad escape in character literal")),
            },
            Some(c) => c as i64,
            None => return Err(self.err("unterminated character literal")),
        };
        if self.bump() != Some('\'') {
            return Err(self.err("unterminated character literal"));
        }
        Ok(ch)
    }

    /// A text literal after its opening quote: the raw text up to the
    /// closing quote, escapes checked but not decoded.
    fn text_literal(&mut self) -> Result<&'src str, Diagnostic> {
        let start = self.at;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated text literal")),
                Some('"') => return Ok(&self.src[start..self.at - 1]),
                Some('\\') => {
                    if !matches!(self.bump(), Some('n' | 't' | '\\' | '"')) {
                        return Err(self.err("bad escape in text literal"));
                    }
                }
                Some(_) => {}
            }
        }
    }
}

/// Decodes the escapes of a text literal's raw source ([`Tok::Text`]).
#[must_use]
pub fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                // `\\` and `\"`: the lexer admits no other escape.
                Some(other) => other,
                None => break,
            },
            c => c,
        });
    }
    out
}

/// Tokenizes `source`.
///
/// # Errors
///
/// Returns a [`Diagnostic`] on malformed input (bad character, unterminated
/// comment or literal, overflowing number).
pub fn lex(source: &str) -> Result<Vec<Spanned<'_>>, Diagnostic> {
    let mut lx = Lexer { src: source, at: 0, line: 1, line_start: 0, extra: 0 };
    // About one token per two bytes of source, so rarely a reallocation.
    let mut out = Vec::with_capacity(source.len() / 2);
    loop {
        lx.skip_space();
        let pos = lx.pos();
        let start = lx.at;
        let Some(b) = lx.peek() else {
            out.push(Spanned { tok: Tok::Eof, pos });
            return Ok(out);
        };
        let tok = match b {
            b'(' => {
                lx.at += 1;
                if lx.peek() == Some(b'*') {
                    lx.at += 1;
                    lx.skip_comment()?;
                    continue;
                }
                Tok::LParen
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while matches!(lx.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
                    lx.at += 1;
                }
                let s = &source[start..lx.at];
                let kw = if b.is_ascii_uppercase() { keyword(s) } else { None };
                kw.unwrap_or(Tok::Ident(s))
            }
            b'0'..=b'9' => {
                let mut v: i64 = 0;
                while let Some(d @ b'0'..=b'9') = lx.peek() {
                    lx.at += 1;
                    v = v
                        .checked_mul(10)
                        .and_then(|x| x.checked_add(i64::from(d - b'0')))
                        .ok_or_else(|| {
                            Diagnostic::new(Phase::Lex, pos, "integer literal overflows")
                        })?;
                }
                Tok::Int(v)
            }
            b'\'' => {
                lx.at += 1;
                Tok::Char(lx.char_literal()?)
            }
            b'"' => {
                lx.at += 1;
                Tok::Text(lx.text_literal()?)
            }
            _ => {
                let c = lx.bump().expect("peeked");
                let two =
                    |lx: &mut Lexer<'_>, next: u8, long: Tok<'static>, short: Tok<'static>| {
                        if lx.peek() == Some(next) {
                            lx.at += 1;
                            long
                        } else {
                            short
                        }
                    };
                match c {
                    ';' => Tok::Semi,
                    ',' => Tok::Comma,
                    ')' => Tok::RParen,
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    '^' => Tok::Caret,
                    '+' => Tok::Plus,
                    '-' => Tok::Minus,
                    '*' => Tok::Star,
                    '=' => Tok::Eq,
                    '#' => Tok::Hash,
                    '.' => two(&mut lx, b'.', Tok::DotDot, Tok::Dot),
                    ':' => two(&mut lx, b'=', Tok::Assign, Tok::Colon),
                    '<' => two(&mut lx, b'=', Tok::Le, Tok::Lt),
                    '>' => two(&mut lx, b'=', Tok::Ge, Tok::Gt),
                    other => {
                        return Err(Diagnostic::new(
                            Phase::Lex,
                            pos,
                            format!("unexpected character `{other}`"),
                        ))
                    }
                }
            }
        };
        out.push(Spanned { tok, pos });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(toks("MODULE Foo;"), vec![Tok::Module, Tok::Ident("Foo"), Tok::Semi, Tok::Eof]);
    }

    #[test]
    fn numbers_and_operators() {
        assert_eq!(
            toks("x := 1 + 23 * 4"),
            vec![
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Int(1),
                Tok::Plus,
                Tok::Int(23),
                Tok::Star,
                Tok::Int(4),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn ranges_vs_dots() {
        assert_eq!(
            toks("[1..10]"),
            vec![Tok::LBracket, Tok::Int(1), Tok::DotDot, Tok::Int(10), Tok::RBracket, Tok::Eof]
        );
        assert_eq!(toks("a.b"), vec![Tok::Ident("a"), Tok::Dot, Tok::Ident("b"), Tok::Eof]);
    }

    #[test]
    fn comments_nest() {
        assert_eq!(toks("a (* x (* y *) z *) b"), vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]);
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn char_and_text_literals() {
        assert_eq!(toks("'a'"), vec![Tok::Char('a' as i64), Tok::Eof]);
        assert_eq!(toks("'\\n'"), vec![Tok::Char('\n' as i64), Tok::Eof]);
        assert_eq!(toks("\"hi\\n\""), vec![Tok::Text("hi\\n"), Tok::Eof]);
        assert_eq!(unescape("hi\\n\\t\\\\\\\"é"), "hi\n\t\\\"é");
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= = #"),
            vec![Tok::Lt, Tok::Le, Tok::Gt, Tok::Ge, Tok::Eq, Tok::Hash, Tok::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos::new(1, 1));
        assert_eq!(ts[1].pos, Pos::new(2, 3));
    }

    #[test]
    fn columns_count_characters_in_comments_and_literals() {
        let ts = lex("(* é→ *) x \"ü\" 'ß' y\n  z").unwrap();
        let cols: Vec<_> = ts.iter().map(|t| (t.pos.line, t.pos.col)).collect();
        assert_eq!(cols, vec![(1, 10), (1, 12), (1, 16), (1, 20), (2, 3), (2, 4)]);
    }

    #[test]
    fn unicode_white_space_separates_tokens() {
        assert_eq!(toks("a\u{a0}b"), vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]);
    }

    #[test]
    fn overflowing_literal_is_error() {
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn bad_character_is_error() {
        let e = lex("a ? b").unwrap_err();
        assert!(e.message.contains("unexpected character"));
    }
}
