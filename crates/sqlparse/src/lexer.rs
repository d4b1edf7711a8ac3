//! SQL tokenizer.
//!
//! Produces a flat token stream with byte positions so the parser can report
//! precise error locations. Keywords are recognized case-insensitively; the
//! lexer keeps identifiers in their original spelling because the narrative
//! layer prefers to echo the user's capitalization.

use crate::error::ParseError;
use std::borrow::Cow;

/// SQL keywords the parser understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Keyword {
    Select,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Asc,
    Desc,
    Limit,
    Distinct,
    And,
    Or,
    Not,
    In,
    Exists,
    Between,
    Like,
    Is,
    Null,
    True,
    False,
    As,
    All,
    Any,
    Some,
    Insert,
    Into,
    Values,
    Update,
    Set,
    Delete,
    Create,
    View,
    Index,
    On,
    Using,
    Hash,
    Drop,
    Union,
    Explain,
    Analyze,
    Show,
    Metrics,
    Query,
    Log,
    Profile,
    Misestimates,
    Workload,
    Advise,
    Checkup,
    Journal,
    Capacity,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Keyword {
    /// Recognize a keyword from an identifier, case-insensitively. The word
    /// is folded on the stack: the longest keyword is twelve letters, so a
    /// longer word is no keyword.
    // Not the std `FromStr` trait: that returns `Result`, and every caller
    // here wants an `Option` without an error type.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(word: &str) -> Option<Keyword> {
        let mut folded = [0u8; 12];
        let upper = folded.get_mut(..word.len())?;
        upper.copy_from_slice(word.as_bytes());
        upper.make_ascii_uppercase();
        Some(match &*upper {
            b"SELECT" => Keyword::Select,
            b"FROM" => Keyword::From,
            b"WHERE" => Keyword::Where,
            b"GROUP" => Keyword::Group,
            b"BY" => Keyword::By,
            b"HAVING" => Keyword::Having,
            b"ORDER" => Keyword::Order,
            b"ASC" => Keyword::Asc,
            b"DESC" => Keyword::Desc,
            b"LIMIT" => Keyword::Limit,
            b"DISTINCT" => Keyword::Distinct,
            b"AND" => Keyword::And,
            b"OR" => Keyword::Or,
            b"NOT" => Keyword::Not,
            b"IN" => Keyword::In,
            b"EXISTS" => Keyword::Exists,
            b"BETWEEN" => Keyword::Between,
            b"LIKE" => Keyword::Like,
            b"IS" => Keyword::Is,
            b"NULL" => Keyword::Null,
            b"TRUE" => Keyword::True,
            b"FALSE" => Keyword::False,
            b"AS" => Keyword::As,
            b"ALL" => Keyword::All,
            b"ANY" => Keyword::Any,
            b"SOME" => Keyword::Some,
            b"INSERT" => Keyword::Insert,
            b"INTO" => Keyword::Into,
            b"VALUES" => Keyword::Values,
            b"UPDATE" => Keyword::Update,
            b"SET" => Keyword::Set,
            b"DELETE" => Keyword::Delete,
            b"CREATE" => Keyword::Create,
            b"VIEW" => Keyword::View,
            b"INDEX" => Keyword::Index,
            b"ON" => Keyword::On,
            b"USING" => Keyword::Using,
            b"HASH" => Keyword::Hash,
            b"DROP" => Keyword::Drop,
            b"UNION" => Keyword::Union,
            b"EXPLAIN" => Keyword::Explain,
            b"ANALYZE" => Keyword::Analyze,
            b"SHOW" => Keyword::Show,
            b"METRICS" => Keyword::Metrics,
            b"QUERY" => Keyword::Query,
            b"LOG" => Keyword::Log,
            b"PROFILE" => Keyword::Profile,
            b"MISESTIMATES" => Keyword::Misestimates,
            b"WORKLOAD" => Keyword::Workload,
            b"ADVISE" => Keyword::Advise,
            b"CHECKUP" => Keyword::Checkup,
            b"JOURNAL" => Keyword::Journal,
            b"CAPACITY" => Keyword::Capacity,
            b"COUNT" => Keyword::Count,
            b"SUM" => Keyword::Sum,
            b"AVG" => Keyword::Avg,
            b"MIN" => Keyword::Min,
            b"MAX" => Keyword::Max,
            _ => return None,
        })
    }
}

/// A lexed token. Words, numbers and quoted identifiers are slices of the
/// input; a string literal is one too unless it had a `''` to resolve.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Keyword with its original spelling.
    Keyword(Keyword, &'a str),
    /// Identifier (table, column, alias).
    Identifier(&'a str),
    /// Numeric literal (kept as text; the parser decides int vs float).
    Number(&'a str),
    /// String literal with quotes removed and escapes resolved.
    String(Cow<'a, str>),
    /// Punctuation and operators.
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
}

/// A token plus its position in the input, counted in characters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken<'a> {
    pub token: Token<'a>,
    pub position: usize,
}

/// Where the lexer is: a byte offset into the input for slicing, and the
/// same place counted in characters for error positions.
struct Cursor<'a> {
    input: &'a str,
    byte: usize,
    char: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.input[self.byte..].chars().next()
    }

    fn peek_second(&self) -> Option<char> {
        self.input[self.byte..].chars().nth(1)
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.byte += c.len_utf8();
            self.char += 1;
        }
    }

    /// Step over characters while `keep` holds; the input from `from` (a
    /// byte offset) to where it stopped.
    fn take_while(&mut self, from: usize, mut keep: impl FnMut(char) -> bool) -> &'a str {
        while self.peek().is_some_and(&mut keep) {
            self.bump();
        }
        &self.input[from..self.byte]
    }
}

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> Result<Vec<SpannedToken<'_>>, ParseError> {
    let mut tokens = Vec::new();
    let mut at = Cursor {
        input,
        byte: 0,
        char: 0,
    };
    while let Some(c) = at.peek() {
        let (start, from) = (at.char, at.byte);
        let token = match c {
            c if c.is_whitespace() => {
                at.bump();
                continue;
            }
            '-' if at.peek_second() == Some('-') => {
                // Line comment.
                at.take_while(from, |c| c != '\n');
                continue;
            }
            '\'' => {
                // String literal with '' escaping: a slice of the input
                // unless an escape has to be resolved.
                at.bump();
                let body = at.byte;
                loop {
                    at.take_while(at.byte, |c| c != '\'');
                    if at.peek().is_none() {
                        return Err(ParseError::new("unterminated string literal", start));
                    }
                    at.bump();
                    if at.peek() != Some('\'') {
                        break;
                    }
                    at.bump();
                }
                let text = &input[body..at.byte - 1];
                Token::String(if text.contains("''") {
                    Cow::Owned(text.replace("''", "'"))
                } else {
                    Cow::Borrowed(text)
                })
            }
            '"' => {
                // Quoted identifier.
                at.bump();
                let name = at.take_while(at.byte, |c| c != '"');
                if at.peek().is_none() {
                    return Err(ParseError::new("unterminated quoted identifier", start));
                }
                at.bump();
                Token::Identifier(name)
            }
            c if c.is_ascii_digit() => {
                // A dot not followed by a digit still belongs to the number
                // (e.g. `1.` is unusual; treat as float anyway).
                let mut seen_dot = false;
                Token::Number(at.take_while(from, |c| {
                    let dot = c == '.' && !seen_dot;
                    seen_dot |= dot;
                    c.is_ascii_digit() || dot
                }))
            }
            c if c.is_alphabetic() || c == '_' => {
                let word = at.take_while(from, |c| c.is_alphanumeric() || c == '_');
                match Keyword::from_str(word) {
                    Some(kw) => Token::Keyword(kw, word),
                    None => Token::Identifier(word),
                }
            }
            _ => {
                at.bump();
                let next = at.peek();
                let (token, two) = match (c, next) {
                    ('=', _) => (Token::Eq, false),
                    ('!', Some('=')) | ('<', Some('>')) => (Token::NotEq, true),
                    ('<', Some('=')) => (Token::LtEq, true),
                    ('<', _) => (Token::Lt, false),
                    ('>', Some('=')) => (Token::GtEq, true),
                    ('>', _) => (Token::Gt, false),
                    ('+', _) => (Token::Plus, false),
                    ('-', _) => (Token::Minus, false),
                    ('*', _) => (Token::Star, false),
                    ('/', _) => (Token::Slash, false),
                    ('(', _) => (Token::LParen, false),
                    (')', _) => (Token::RParen, false),
                    (',', _) => (Token::Comma, false),
                    ('.', _) => (Token::Dot, false),
                    (';', _) => (Token::Semicolon, false),
                    (other, _) => {
                        return Err(ParseError::new(
                            format!("unexpected character '{other}'"),
                            start,
                        ))
                    }
                };
                if two {
                    at.bump();
                }
                token
            }
        };
        tokens.push(SpannedToken {
            token,
            position: start,
        });
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_select() {
        let toks = tokenize("select m.title from MOVIES m where m.year >= 2000").unwrap();
        assert!(matches!(toks[0].token, Token::Keyword(Keyword::Select, _)));
        assert_eq!(toks[1].token, Token::Identifier("m"));
        assert_eq!(toks[2].token, Token::Dot);
        assert!(toks.iter().any(|t| t.token == Token::GtEq));
        assert!(toks.iter().any(|t| t.token == Token::Number("2000")));
    }

    #[test]
    fn string_literals_support_escaped_quotes() {
        let toks = tokenize("'Brad Pitt' 'O''Brien'").unwrap();
        assert_eq!(toks[0].token, Token::String("Brad Pitt".into()));
        assert_eq!(toks[1].token, Token::String("O'Brien".into()));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = tokenize("select 'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("select -- a comment\n 1").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn both_not_equal_spellings() {
        let toks = tokenize("a != b <> c").unwrap();
        assert_eq!(toks.iter().filter(|t| t.token == Token::NotEq).count(), 2);
    }

    #[test]
    fn keywords_are_case_insensitive_and_preserve_spelling() {
        let toks = tokenize("SeLeCt").unwrap();
        match &toks[0].token {
            Token::Keyword(Keyword::Select, spelling) => assert_eq!(*spelling, "SeLeCt"),
            other => panic!("unexpected token {other:?}"),
        }
    }

    #[test]
    fn numbers_with_decimals() {
        let toks = tokenize("12 3.5").unwrap();
        assert_eq!(toks[0].token, Token::Number("12"));
        assert_eq!(toks[1].token, Token::Number("3.5"));
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("\"Weird Table\"").unwrap();
        assert_eq!(toks[0].token, Token::Identifier("Weird Table"));
    }

    #[test]
    fn unexpected_character_reports_position() {
        let err = tokenize("select #").unwrap_err();
        assert_eq!(err.position, 7);
        // Positions count characters, not bytes.
        let err = tokenize("select 'é' #").unwrap_err();
        assert_eq!(err.position, 11);
    }

    #[test]
    fn words_and_unescaped_strings_are_slices_of_the_input() {
        let toks = tokenize("select x from Été where y = 'Brad Pitt' or y = 'O''Brien'").unwrap();
        assert_eq!(toks[3].token, Token::Identifier("Été"));
        assert!(matches!(
            &toks[7].token,
            Token::String(Cow::Borrowed("Brad Pitt"))
        ));
        assert!(matches!(&toks[11].token, Token::String(Cow::Owned(s)) if s == "O'Brien"));
        // No keyword is longer than twelve letters.
        assert_eq!(
            Keyword::from_str("misestimates"),
            Some(Keyword::Misestimates)
        );
        assert_eq!(Keyword::from_str("misestimatess"), None);
    }
}
