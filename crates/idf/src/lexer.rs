//! Lexer for the IDF surface syntax.
//!
//! Tokens borrow their identifier text from the source ([`Tok::Ident`]
//! holds a `&str`), so lexing allocates only the token and offset
//! vectors; the parser copies an identifier into a `String` once, when
//! it builds the AST node that owns it.

use std::fmt;

/// Tokens of the IDF language, borrowing identifiers from the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tok<'s> {
    /// Identifier.
    Ident(&'s str),
    /// Integer literal.
    Int(i64),
    /// Keyword.
    Kw(Kw),
    /// Symbol.
    Sym(Sy),
}

/// Keywords.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Kw {
    Field,
    Method,
    Returns,
    Requires,
    Ensures,
    Var,
    New,
    Inhale,
    Exhale,
    Assert,
    If,
    Else,
    While,
    Invariant,
    Call,
    Old,
    Perm,
    Acc,
    True,
    False,
    Null,
    TyInt,
    TyBool,
    TyRef,
    Write,
}

/// Symbols.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Sy {
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Semi,
    Dot,
    Assign, // :=
    EqEq,   // ==
    Ne,     // !=
    Le,
    Ge,
    Lt,
    Gt,
    Plus,
    Minus,
    Star,
    Slash,
    AndAnd,
    OrOr,
    Implies, // ==>
    Bang,
    Question,
}

/// Every keyword with its spelling: the lexer's keyword lookup and
/// [`Kw`]'s `Display` both read this one table.
const KEYWORDS: [(&str, Kw); 25] = [
    ("field", Kw::Field),
    ("method", Kw::Method),
    ("returns", Kw::Returns),
    ("requires", Kw::Requires),
    ("ensures", Kw::Ensures),
    ("var", Kw::Var),
    ("new", Kw::New),
    ("inhale", Kw::Inhale),
    ("exhale", Kw::Exhale),
    ("assert", Kw::Assert),
    ("if", Kw::If),
    ("else", Kw::Else),
    ("while", Kw::While),
    ("invariant", Kw::Invariant),
    ("call", Kw::Call),
    ("old", Kw::Old),
    ("perm", Kw::Perm),
    ("acc", Kw::Acc),
    ("true", Kw::True),
    ("false", Kw::False),
    ("null", Kw::Null),
    ("Int", Kw::TyInt),
    ("Bool", Kw::TyBool),
    ("Ref", Kw::TyRef),
    ("write", Kw::Write),
];

/// Every symbol with its spelling, each before any symbol that is a
/// prefix of it (`==>` before `==`), so the first match is the longest:
/// the lexer and [`Sy`]'s `Display` both read this one table.
const SYMBOLS: [(&str, Sy); 24] = [
    ("==>", Sy::Implies),
    (":=", Sy::Assign),
    ("==", Sy::EqEq),
    ("!=", Sy::Ne),
    ("<=", Sy::Le),
    (">=", Sy::Ge),
    ("&&", Sy::AndAnd),
    ("||", Sy::OrOr),
    ("(", Sy::LParen),
    (")", Sy::RParen),
    ("{", Sy::LBrace),
    ("}", Sy::RBrace),
    (",", Sy::Comma),
    (":", Sy::Colon),
    (";", Sy::Semi),
    (".", Sy::Dot),
    ("<", Sy::Lt),
    (">", Sy::Gt),
    ("+", Sy::Plus),
    ("-", Sy::Minus),
    ("*", Sy::Star),
    ("/", Sy::Slash),
    ("!", Sy::Bang),
    ("?", Sy::Question),
];

impl fmt::Display for Kw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (text, _) = KEYWORDS
            .iter()
            .find(|(_, k)| k == self)
            .expect("every keyword is spelled");
        f.write_str(text)
    }
}

impl fmt::Display for Sy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (text, _) = SYMBOLS
            .iter()
            .find(|(_, s)| s == self)
            .expect("every symbol is spelled");
        f.write_str(text)
    }
}

/// A token as the source writes it.
impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{}", s),
            Tok::Int(n) => write!(f, "{}", n),
            Tok::Kw(k) => write!(f, "{}", k),
            Tok::Sym(s) => write!(f, "{}", s),
        }
    }
}

/// A lexing error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Byte position.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

fn keyword(s: &str) -> Option<Kw> {
    KEYWORDS
        .iter()
        .find(|(text, _)| *text == s)
        .map(|&(_, k)| k)
}

/// Tokenizes IDF source. `//` line comments and `/* */` block comments
/// are skipped.
///
/// # Errors
///
/// Returns [`LexError`] on unknown characters or malformed literals.
pub fn lex(src: &str) -> Result<Vec<Tok<'_>>, LexError> {
    Ok(lex_spanned(src)?.0)
}

/// Tokenizes IDF source into the tokens and, in a parallel vector,
/// each token's starting byte offset — the spans that let the parser
/// report source positions (line and column) in its diagnostics.
///
/// # Errors
///
/// Returns [`LexError`] on unknown characters or malformed literals.
pub fn lex_spanned(src: &str) -> Result<(Vec<Tok<'_>>, Vec<usize>), LexError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut toks = Vec::new();
    let mut starts = Vec::new();
    // Every arm advances over ASCII bytes only (comments stop at an
    // ASCII delimiter), so `i` is always on a character boundary.
    while i < b.len() {
        let c = b[i] as char;
        let tok_start = i;
        let mut push = |t| {
            toks.push(t);
            starts.push(tok_start);
        };
        match c {
            c if c.is_ascii() && c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= b.len() {
                        return Err(LexError {
                            pos: start,
                            message: "unterminated comment".into(),
                        });
                    }
                    if b[i] == b'*' && b[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n = src[start..i].parse::<i64>().map_err(|_| LexError {
                    pos: start,
                    message: "integer literal out of range".into(),
                })?;
                push(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() {
                    let c = b[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                match keyword(text) {
                    Some(k) => push(Tok::Kw(k)),
                    None => push(Tok::Ident(text)),
                }
            }
            _ => {
                let rest = &b[i..];
                let Some(&(text, sy)) =
                    SYMBOLS.iter().find(|(t, _)| rest.starts_with(t.as_bytes()))
                else {
                    // Decode the whole character, so a non-ASCII one is
                    // reported as itself rather than as its first byte.
                    let other = src[i..].chars().next().expect("i is inside src");
                    return Err(LexError {
                        pos: i,
                        message: format!("unexpected character {:?}", other),
                    });
                };
                push(Tok::Sym(sy));
                i += text.len();
            }
        }
    }
    Ok((toks, starts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_method_header() {
        let toks = lex("method m(a: Ref) returns (r: Int) requires acc(a.val)").unwrap();
        assert_eq!(toks[0], Tok::Kw(Kw::Method));
        assert!(toks.contains(&Tok::Kw(Kw::Acc)));
        assert!(toks.contains(&Tok::Sym(Sy::Dot)));
    }

    #[test]
    fn compound_symbols() {
        let toks = lex(":= == ==> != <= < && ||").unwrap();
        use Sy::*;
        assert_eq!(
            toks,
            vec![
                Tok::Sym(Assign),
                Tok::Sym(EqEq),
                Tok::Sym(Implies),
                Tok::Sym(Ne),
                Tok::Sym(Le),
                Tok::Sym(Lt),
                Tok::Sym(AndAnd),
                Tok::Sym(OrOr),
            ]
        );
    }

    #[test]
    fn every_spelling_lexes_to_its_token_and_displays_back() {
        for (text, k) in KEYWORDS {
            assert_eq!(lex(text).unwrap(), vec![Tok::Kw(k)], "{text}");
            assert_eq!(Tok::Kw(k).to_string(), text);
        }
        for (text, s) in SYMBOLS {
            assert_eq!(lex(text).unwrap(), vec![Tok::Sym(s)], "{text}");
            assert_eq!(Tok::Sym(s).to_string(), text);
        }
    }

    #[test]
    fn comments() {
        let toks = lex("1 // x\n 2 /* y */ 3").unwrap();
        assert_eq!(toks, vec![Tok::Int(1), Tok::Int(2), Tok::Int(3)]);
    }

    #[test]
    fn errors() {
        assert!(lex("#").is_err());
        assert!(lex("/* open").is_err());
    }

    #[test]
    fn identifiers_borrow_the_source() {
        let src = "method m(a: Ref)";
        let (toks, starts) = lex_spanned(src).unwrap();
        assert_eq!(toks[1], Tok::Ident("m"));
        assert_eq!(starts[1], 7);
        match toks[3] {
            Tok::Ident(a) => assert!(std::ptr::eq(a.as_ptr(), src[9..].as_ptr())),
            other => panic!("expected an identifier, found {:?}", other),
        }
        assert_eq!(toks.len(), starts.len());
        assert_eq!(format!("{:?}", toks[1]), "Ident(\"m\")");
    }

    #[test]
    fn non_ascii_characters_are_reported_whole() {
        for (src, pos, shown) in [
            ("method é()", 7, "'é'"),
            ("x → y", 2, "'→'"),
            ("x\u{a0}y", 1, "'\\u{a0}'"),
        ] {
            let e = lex(src).unwrap_err();
            assert_eq!(e.pos, pos, "{:?}", src);
            assert_eq!(
                e.message,
                format!("unexpected character {}", shown),
                "{:?}",
                src
            );
        }
    }
}
