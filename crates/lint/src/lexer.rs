//! A small zero-dependency Rust lexer.
//!
//! The old `skv-lint` stripped comments and strings with a per-line
//! heuristic that could not see raw strings, nested block comments that
//! open and close on the same line as code, or byte/char literals. This
//! module replaces it with a character-level state machine that walks the
//! whole file once and produces, per source line:
//!
//! * the code with every comment and literal *body* blanked to spaces
//!   (byte offsets preserved, so diagnostics still point at the token);
//! * the text and offset of a genuine `//` line comment, for directive
//!   parsing (`// skv-lint: allow(...)`);
//! * the contents of string literals that start on the line, for the
//!   drift rules that read names from literals (`cmd-drift`'s table rows);
//! * whether the line sits inside a `#[cfg(test)]` item, determined by
//!   token-level brace tracking on the blanked code (braces inside
//!   strings or comments can no longer desynchronise the tracker).
//!
//! Handled literal forms: `"..."` with escapes, `b"..."`, raw strings
//! `r"..."` / `r#"..."#` (any number of hashes, also `br#"..."#`),
//! char and byte-char literals (`'x'`, `b'\n'`), and lifetimes (`'a`),
//! which are *not* literals. Block comments nest, as in Rust.

/// One lexed source line.
#[derive(Debug, Clone, Default)]
pub struct LexedLine {
    /// The line's code with comments and literal bodies blanked to
    /// spaces. Same byte length as the raw line.
    pub code: String,
    /// Byte offset and raw text (including the `//`) of a line comment
    /// appearing on this line outside any string or block comment.
    pub comment: Option<(usize, String)>,
    /// Contents of string literals (escapes left verbatim) that *start*
    /// on this line.
    pub strings: Vec<String>,
    /// True when the line belongs to a `#[cfg(test)]` item (including
    /// the attribute line itself).
    pub in_test: bool,
}

/// Lexer state that survives across lines.
enum State {
    /// Ordinary code.
    Code,
    /// Inside `/* ... */`, at the given nesting depth (>= 1).
    Block(usize),
    /// Inside a `"..."` or `b"..."` string (escapes active).
    Str,
    /// Inside a raw string closed by `"` followed by `hashes` hashes.
    RawStr { hashes: usize },
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does a raw string literal start at `bytes[i]` (which is `r`)? The `r`
/// must not continue an identifier — except an immediately preceding `b`
/// that itself starts one (`br#"..."#`).
fn raw_string_at(bytes: &[u8], i: usize) -> Option<usize> {
    let prev = i.checked_sub(1).map(|p| bytes[p]);
    let prev_ok = match prev {
        None => true,
        Some(b'b') => i < 2 || !is_ident_byte(bytes[i - 2]),
        Some(p) => !is_ident_byte(p),
    };
    if !prev_ok {
        return None;
    }
    let mut j = i + 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

/// Lex `source` into per-line records. Never fails: unterminated
/// literals simply blank the remainder of the file, which is the safe
/// direction for a checker (it can only miss findings in code that does
/// not compile anyway).
pub fn lex(source: &str) -> Vec<LexedLine> {
    let mut lines = Vec::new();
    let mut state = State::Code;
    for raw in source.lines() {
        let bytes = raw.as_bytes();
        let mut out = vec![b' '; bytes.len()];
        let mut comment = None;
        let mut strings = Vec::new();
        // The string literal currently being captured (may span lines;
        // continuation lines append to the *starting* line's capture
        // only if it closes there — cross-line bodies are rare and the
        // drift rules only need single-line names).
        let mut capture = String::new();
        let mut i = 0;
        while i < bytes.len() {
            match state {
                State::Block(depth) => {
                    if bytes[i..].starts_with(b"*/") {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if bytes[i..].starts_with(b"/*") {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                State::Str => match bytes[i] {
                    b'\\' if i + 1 < bytes.len() => {
                        capture.push('\\');
                        let esc_len = raw[i + 1..].chars().next().map_or(1, char::len_utf8);
                        capture.push_str(&raw[i + 1..i + 1 + esc_len]);
                        i += 1 + esc_len;
                    }
                    b'\\' => i += 1, // escaped newline: continues next line
                    b'"' => {
                        strings.push(std::mem::take(&mut capture));
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        let ch_len = raw[i..].chars().next().map_or(1, char::len_utf8);
                        capture.push_str(&raw[i..i + ch_len]);
                        i += ch_len;
                    }
                },
                State::RawStr { hashes } => {
                    if bytes[i] == b'"'
                        && bytes[i + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes
                    {
                        strings.push(std::mem::take(&mut capture));
                        state = State::Code;
                        i += 1 + hashes;
                    } else {
                        let ch_len = raw[i..].chars().next().map_or(1, char::len_utf8);
                        capture.push_str(&raw[i..i + ch_len]);
                        i += ch_len;
                    }
                }
                State::Code => match bytes[i] {
                    b'/' if bytes.get(i + 1) == Some(&b'/') => {
                        comment = Some((i, raw[i..].to_string()));
                        i = bytes.len();
                    }
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        state = State::Block(1);
                        i += 2;
                    }
                    b'"' => {
                        state = State::Str;
                        capture.clear();
                        i += 1;
                    }
                    b'r' if raw_string_at(bytes, i).is_some() => {
                        let hashes = raw_string_at(bytes, i).unwrap_or(0);
                        state = State::RawStr { hashes };
                        capture.clear();
                        i += 2 + hashes; // r, hashes, opening quote
                    }
                    b'\'' => {
                        // Lifetime (`'a`, `'static`) vs char literal
                        // (`'x'`, `'\n'`, `'√'`). A lifetime is `'`
                        // followed by an identifier NOT closed by `'`.
                        let next = bytes.get(i + 1).copied();
                        let is_lifetime = next.is_some_and(|n| {
                            (n.is_ascii_alphabetic() || n == b'_')
                                && bytes.get(i + 2) != Some(&b'\'')
                        });
                        if is_lifetime {
                            out[i] = b'\'';
                            i += 1;
                        } else if next == Some(b'\\') {
                            // Escaped char literal: skip to the closing
                            // quote after the escape.
                            let mut j = i + 3; // past ' \ x
                            while j < bytes.len() && bytes[j] != b'\'' {
                                j += 1;
                            }
                            i = (j + 1).min(bytes.len());
                        } else {
                            // Unescaped char literal: the close quote is
                            // within the next few bytes (one UTF-8 char).
                            let close = bytes[i + 1..].iter().take(5).position(|&b| b == b'\'');
                            match close {
                                Some(off) => i += off + 2,
                                None => {
                                    // Stray quote; keep it visible.
                                    out[i] = b'\'';
                                    i += 1;
                                }
                            }
                        }
                    }
                    b => {
                        out[i] = b;
                        i += 1;
                    }
                },
            }
        }
        lines.push(LexedLine {
            code: String::from_utf8_lossy(&out).into_owned(),
            comment,
            strings,
            in_test: false,
        });
    }
    mark_test_lines(&mut lines);
    lines
}

/// Mark every line belonging to a `#[cfg(test)]` item by brace tracking
/// over the blanked code. Runs after lexing, so braces inside strings,
/// chars or comments can no longer desynchronise the depth count.
fn mark_test_lines(lines: &mut [LexedLine]) {
    let mut skip_depth: Option<usize> = None;
    let mut awaiting_open = false;
    // Parentheses open since the attribute: a `,` inside them separates
    // parameters, it does not end the item.
    let mut awaiting_parens = 0usize;
    for line in lines.iter_mut() {
        let code = line.code.as_str();
        if let Some(depth) = &mut skip_depth {
            line.in_test = true;
            *depth += code.matches('{').count();
            *depth = depth.saturating_sub(code.matches('}').count());
            if *depth == 0 {
                skip_depth = None;
            }
            continue;
        }
        if awaiting_open {
            line.in_test = true;
            let opens = code.matches('{').count();
            if opens > 0 {
                awaiting_open = false;
                let depth = opens.saturating_sub(code.matches('}').count());
                if depth > 0 {
                    skip_depth = Some(depth);
                }
            } else {
                awaiting_parens += code.matches('(').count();
                awaiting_parens = awaiting_parens.saturating_sub(code.matches(')').count());
                // Single-item attribute (`#[cfg(test)] use ...;`), or a
                // field or variant (`#[cfg(test)] cap: usize,`).
                let ends_field = awaiting_parens == 0 && code.trim_end().ends_with(',');
                if code.contains(';') || ends_field {
                    awaiting_open = false;
                }
            }
            continue;
        }
        if code.trim_start().starts_with("#[cfg(test)]") {
            line.in_test = true;
            // The item may open its brace on the attribute's own line
            // (`#[cfg(test)] mod t { ... }`).
            let rest_at = code.find("#[cfg(test)]").map_or(0, |p| p + 12);
            let rest = &code[rest_at..];
            let opens = rest.matches('{').count();
            if opens > 0 {
                let depth = opens.saturating_sub(rest.matches('}').count());
                if depth > 0 {
                    skip_depth = Some(depth);
                }
            } else if !rest.contains(';') {
                awaiting_open = true;
                awaiting_parens = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_blanked_and_captured() {
        let l = lex("let x = 1; // trailing note\n");
        assert_eq!(l[0].code, "let x = 1;                 ");
        let (at, text) = l[0].comment.clone().expect("comment");
        assert_eq!(at, 11);
        assert_eq!(text, "// trailing note");
    }

    #[test]
    fn nested_block_comments_close_properly() {
        let c = codes("a /* outer /* inner */ still */ b\n/* open\nmore */ c\n");
        assert_eq!(c[0].trim(), "a                               b".trim());
        assert!(c[0].contains('b'));
        assert!(!c[1].contains("open"));
        assert_eq!(c[2].trim(), "c");
    }

    #[test]
    fn strings_are_blanked_and_contents_captured() {
        let l = lex("let s = \"HashMap { } \\\" quote\";\n");
        assert!(!l[0].code.contains("HashMap"));
        assert!(!l[0].code.contains('{'));
        assert_eq!(l[0].strings, vec!["HashMap { } \\\" quote".to_string()]);
    }

    #[test]
    fn raw_strings_are_opaque() {
        let l = lex("let s = r#\"no \\ escape \"inner\" } \"#; let t = 1;\n");
        assert!(!l[0].code.contains("inner"));
        assert!(l[0].code.contains("let t = 1;"));
        assert_eq!(l[0].strings, vec!["no \\ escape \"inner\" } ".to_string()]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let l = lex("let a = b\"bytes{\"; let b = br#\"raw\"bytes\"#;\n");
        assert!(!l[0].code.contains("bytes{"));
        assert_eq!(l[0].strings.len(), 2);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) { let c = '{'; let q = '\\''; let u = '√'; }\n");
        // Braces inside char literals are blanked; the fn's braces stay.
        assert_eq!(l[0].code.matches('{').count(), 1);
        assert_eq!(l[0].code.matches('}').count(), 1);
        assert!(l[0].code.contains("fn f<'a>"));
    }

    #[test]
    fn multi_line_strings_keep_state() {
        let c = codes("let s = \"first\nsecond { } */ line\";\nlet x = 1;\n");
        assert!(!c[1].contains("second"));
        assert!(!c[1].contains('{'));
        assert!(c[2].contains("let x = 1;"));
    }

    #[test]
    fn cfg_test_marking_by_braces() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap; // inside
    fn t() { let s = \"}\"; }
}
fn after() {}
";
        let l = lex(src);
        assert!(!l[0].in_test);
        assert!(l[1].in_test && l[2].in_test && l[3].in_test && l[4].in_test && l[5].in_test);
        assert!(
            !l[6].in_test,
            "brace in string must not end the region early"
        );
    }

    #[test]
    fn cfg_test_single_item_and_same_line() {
        let l = lex("#[cfg(test)]\nuse foo::bar;\nlet x = 1;\n");
        assert!(l[0].in_test && l[1].in_test);
        assert!(!l[2].in_test);
        let l = lex("#[cfg(test)] mod t { fn f() {} }\nlet y = 2;\n");
        assert!(l[0].in_test);
        assert!(!l[1].in_test);
    }

    #[test]
    fn cfg_test_field_ends_at_its_comma() {
        let l = lex("struct S {\n    #[cfg(test)]\n    cap: Option<usize>,\n    len: usize,\n}\n");
        assert!(l[1].in_test && l[2].in_test);
        assert!(!l[3].in_test && !l[4].in_test);
        // A parameter list's commas do not end a test-only function.
        let l = lex("#[cfg(test)]\nfn f(\n    a: u32,\n    b: u32,\n) {\n}\nfn g() {}\n");
        assert!(l[1..6].iter().all(|line| line.in_test));
        assert!(!l[6].in_test);
    }

    #[test]
    fn comment_inside_string_is_not_a_comment() {
        let l = lex("let u = \"http://example.com\"; let v = 1;\n");
        assert!(l[0].comment.is_none());
        assert!(l[0].code.contains("let v = 1;"));
    }

    #[test]
    fn division_is_not_a_comment() {
        let l = lex("let x = a / b / c;\n");
        assert!(l[0].comment.is_none());
        assert_eq!(l[0].code, "let x = a / b / c;");
    }
}
