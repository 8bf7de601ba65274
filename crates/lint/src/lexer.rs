//! Minimal Rust lexer: just enough to tell code apart from comments,
//! strings, char literals and lifetimes, and to hand the passes a
//! line-numbered token stream.
//!
//! This is deliberately not a full grammar. Comment nesting, raw strings,
//! byte strings and the char-vs-lifetime ambiguity are handled exactly,
//! because getting those wrong would make every downstream pattern match
//! dishonest; everything else (operator gluing, keyword tables) is left to
//! the scanner.

/// One lexical token. String/char contents are dropped — no pass needs
/// them, and dropping them means a `".lock()"` inside a string literal can
/// never masquerade as a lock acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword. Raw identifiers keep their `r#` prefix so
    /// `r#fn`/`r#match` can never collide with the keyword tables the
    /// scanner and passes match on (a stripped `r#fn` would conjure a
    /// phantom function definition out of a field name).
    Ident(String),
    /// Numeric literal, verbatim (`0u8`, `0x1f`, `1_000`, `2.5`).
    Number(String),
    /// Any string literal: plain, raw, byte, raw byte.
    Str,
    /// Any char or byte-char literal.
    Char,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A path separator `::`, lexed as one token so path-qualified calls
    /// (`wire::codec::decode_seq`, `Type::method`) can be matched without
    /// every downstream pass re-implementing `:`-adjacency logic.
    PathSep,
    /// A single punctuation character.
    Punct(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Lexes `src` into a token stream. Comments are discarded, except that
/// each `//` comment's line and text (after the opener) is returned
/// beside the tokens: allow markers live there and nowhere else.
pub fn lex(src: &str) -> (Vec<Token>, Vec<(u32, String)>) {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
        comments: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
    comments: Vec<(u32, String)>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        if c == '\n' {
            self.line += 1;
        }
        self.pos += 1;
        Some(c)
    }

    fn emit(&mut self, tok: Tok, line: u32) {
        self.out.push(Token { tok, line });
    }

    fn run(mut self) -> (Vec<Token>, Vec<(u32, String)>) {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                let from = self.pos + 2;
                while self.peek(0).is_some_and(|c| c != '\n') {
                    self.bump();
                }
                let text = self.chars[from..self.pos].iter().collect();
                self.comments.push((line, text));
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.plain_string();
                self.emit(Tok::Str, line);
            } else if c == 'r' && matches!(self.peek(1), Some('"') | Some('#')) {
                self.raw_prefixed(line);
            } else if c == 'b' && matches!(self.peek(1), Some('"') | Some('\'') | Some('r')) {
                self.byte_prefixed(line);
            } else if c == '\'' {
                self.quote(line);
            } else if c.is_ascii_digit() {
                self.number(line);
            } else if c == '_' || c.is_alphabetic() {
                self.ident(line);
            } else if c == ':' && self.peek(1) == Some(':') {
                self.bump();
                self.bump();
                self.emit(Tok::PathSep, line);
            } else {
                self.bump();
                self.emit(Tok::Punct(c), line);
            }
        }
        (self.out, self.comments)
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return,
            }
        }
    }

    fn plain_string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => return,
                _ => {}
            }
        }
    }

    /// `r"…"`, `r#"…"#`, or a raw identifier `r#name`.
    fn raw_prefixed(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(1 + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(1 + hashes) == Some('"') {
            self.bump(); // r
            for _ in 0..hashes {
                self.bump();
            }
            self.raw_string_body(hashes);
            self.emit(Tok::Str, line);
        } else if hashes == 1 && self.peek(2).is_some_and(|c| c == '_' || c.is_alphabetic()) {
            // Raw identifier: keep the `r#` prefix so the name can never
            // be mistaken for the bare keyword downstream.
            self.bump(); // r
            self.bump(); // #
            let mut text = String::from("r#");
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.emit(Tok::Ident(text), line);
        } else {
            // `r` followed by `#` that opens no raw string and no raw
            // identifier (`r##x`, attribute-adjacent `r#[...]`): plain
            // ident `r`, the `#` re-lexed as punctuation.
            self.ident(line);
        }
    }

    fn raw_string_body(&mut self, hashes: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0usize;
                while matched < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    matched += 1;
                }
                if matched == hashes {
                    return;
                }
            }
        }
    }

    /// `b"…"`, `b'…'`, `br"…"`, `br#"…"#`.
    fn byte_prefixed(&mut self, line: u32) {
        match self.peek(1) {
            Some('"') => {
                self.bump();
                self.plain_string();
                self.emit(Tok::Str, line);
            }
            Some('\'') => {
                self.bump();
                self.bump();
                self.char_body();
                self.emit(Tok::Char, line);
            }
            Some('r') => {
                let mut hashes = 0usize;
                while self.peek(2 + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(2 + hashes) == Some('"') {
                    self.bump();
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    self.raw_string_body(hashes);
                    self.emit(Tok::Str, line);
                } else {
                    self.ident(line);
                }
            }
            _ => self.ident(line),
        }
    }

    /// Consumes the rest of a char literal after its opening quote.
    fn char_body(&mut self) {
        if self.peek(0) == Some('\\') {
            self.bump();
            self.bump();
        } else {
            self.bump();
        }
        // Escapes like \x41 and \u{…} leave extra chars before the close.
        while let Some(c) = self.peek(0) {
            self.bump();
            if c == '\'' {
                return;
            }
        }
    }

    /// Disambiguates `'a'` (char) from `'a` / `'static` (lifetime).
    fn quote(&mut self, line: u32) {
        let next = self.peek(1);
        if next == Some('\\') {
            self.bump();
            self.char_body();
            self.emit(Tok::Char, line);
            return;
        }
        if next.is_some_and(|c| c == '_' || c.is_alphanumeric()) {
            // Scan the identifier run; a closing quote right after means a
            // single-char literal, otherwise it is a lifetime.
            let mut len = 1usize;
            while self
                .peek(1 + len)
                .is_some_and(|c| c == '_' || c.is_alphanumeric())
            {
                len += 1;
            }
            if self.peek(1 + len) == Some('\'') {
                for _ in 0..len + 2 {
                    self.bump();
                }
                self.emit(Tok::Char, line);
            } else {
                for _ in 0..len + 1 {
                    self.bump();
                }
                self.emit(Tok::Lifetime, line);
            }
            return;
        }
        if self.peek(2) == Some('\'') {
            // A punctuation char literal like '(' or ' '.
            self.bump();
            self.bump();
            self.bump();
            self.emit(Tok::Char, line);
            return;
        }
        self.bump();
        self.emit(Tok::Punct('\''), line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let in_number = c.is_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if in_number {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.emit(Tok::Number(text), line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.emit(Tok::Ident(text), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).0.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let toks = kinds("a // x.lock()\n/* y.lock() /* nested */ */ \".lock()\" b");
        assert_eq!(
            toks,
            vec![Tok::Ident("a".into()), Tok::Str, Tok::Ident("b".into())]
        );
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = kinds(r##"r#"no.lock()"# r#match br"x" b"y""##);
        assert_eq!(
            toks,
            vec![Tok::Str, Tok::Ident("r#match".into()), Tok::Str, Tok::Str]
        );
    }

    #[test]
    fn raw_idents_keep_their_prefix_and_never_read_as_keywords() {
        let toks = kinds("let r#fn = 1; r#type r#struct");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("r#fn".into()),
                Tok::Punct('='),
                Tok::Number("1".into()),
                Tok::Punct(';'),
                Tok::Ident("r#type".into()),
                Tok::Ident("r#struct".into()),
            ]
        );
    }

    #[test]
    fn raw_idents_adjacent_to_raw_strings_do_not_merge() {
        // A raw ident directly before a raw string must not consume the
        // string opener as part of its own `r#` scan, and a raw string
        // directly before a raw ident must terminate exactly at its `"#`.
        let toks = kinds(r##"r#type r#"body"# r#fn"##);
        assert_eq!(
            toks,
            vec![
                Tok::Ident("r#type".into()),
                Tok::Str,
                Tok::Ident("r#fn".into()),
            ]
        );
    }

    #[test]
    fn lone_r_before_hash_is_not_a_raw_prefix() {
        // `r ## x` (macro-ish token soup) must not be swallowed as one
        // ident; the lexer falls back to `r` + punctuation.
        let toks = kinds("r##x");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("r".into()),
                Tok::Punct('#'),
                Tok::Punct('#'),
                Tok::Ident("x".into()),
            ]
        );
    }

    #[test]
    fn chars_versus_lifetimes() {
        let toks = kinds("'a' 'static '_ '\\n' b'z'");
        assert_eq!(
            toks,
            vec![
                Tok::Char,
                Tok::Lifetime,
                Tok::Lifetime,
                Tok::Char,
                Tok::Char
            ]
        );
    }

    #[test]
    fn path_separators_are_one_token() {
        let toks = kinds("a::b x: T y");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("a".into()),
                Tok::PathSep,
                Tok::Ident("b".into()),
                Tok::Ident("x".into()),
                Tok::Punct(':'),
                Tok::Ident("T".into()),
                Tok::Ident("y".into()),
            ]
        );
    }

    #[test]
    fn numbers_keep_suffixes() {
        let toks = kinds("0u8 0x1f 1_000 2.5");
        assert_eq!(
            toks,
            vec![
                Tok::Number("0u8".into()),
                Tok::Number("0x1f".into()),
                Tok::Number("1_000".into()),
                Tok::Number("2.5".into()),
            ]
        );
    }

    #[test]
    fn lines_track_through_multiline_constructs() {
        let (toks, _) = lex("a\n/* c\nc */\nb \"s\ns\" d");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 4); // b
        assert_eq!(toks[2].line, 4); // the string starts on line 4
        assert_eq!(toks[3].line, 5); // d, after the embedded newline
    }
}
