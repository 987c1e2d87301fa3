//! Source masking: turns Rust source into "code-only" lines.
//!
//! The engine's extractor ([`crate::engine`]) is token-level, so before
//! matching we blank out (replace with spaces) everything that is not
//! executable library code:
//!
//! * line comments (`//`, `///`, `//!`) and (nested) block comments,
//! * string literals (plain, raw `r"…"`/`r#"…"#`) and char literals,
//! * regions gated behind `#[cfg(test)]` / `#[test]` attributes — the
//!   repo-wide convention for unit-test modules, which the passes
//!   deliberately exempt.
//!
//! Masking preserves line structure byte-for-byte (each masked character
//! becomes a space), so reported line numbers match the original file.

/// Masks comments, strings, and char literals with spaces.
pub fn mask_non_code(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;

    // Emits `b` if it is a newline (preserving layout), else a space.
    fn blank(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Rust block comments nest.
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        blank(&mut out, bytes[i]);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        blank(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            b'"' => {
                blank(&mut out, b);
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            blank(&mut out, bytes[i]);
                            if i + 1 < bytes.len() {
                                blank(&mut out, bytes[i + 1]);
                            }
                            i += 2;
                        }
                        b'"' => {
                            blank(&mut out, bytes[i]);
                            i += 1;
                            break;
                        }
                        c => {
                            blank(&mut out, c);
                            i += 1;
                        }
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                // r"…", r#"…"#, r##"…"##, …
                let mut j = i + 1;
                let mut hashes = 0usize;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                // Opening quote.
                blank(&mut out, bytes[i]);
                for &bk in &bytes[i + 1..=j] {
                    blank(&mut out, bk);
                }
                i = j + 1;
                'raw: while i < bytes.len() {
                    if bytes[i] == b'"' {
                        let mut close = 0usize;
                        while close < hashes && bytes.get(i + 1 + close) == Some(&b'#') {
                            close += 1;
                        }
                        if close == hashes {
                            for &bk in &bytes[i..=i + hashes] {
                                blank(&mut out, bk);
                            }
                            i += hashes + 1;
                            break 'raw;
                        }
                    }
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            b'\'' => {
                // Distinguish char literals from lifetimes: a char literal
                // closes with ' within a few bytes; a lifetime does not.
                if let Some(len) = char_literal_len(bytes, i) {
                    for &bk in &bytes[i..i + len] {
                        blank(&mut out, bk);
                    }
                    i += len;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }

    // Masking only replaces bytes with spaces/newlines, so this cannot
    // split a UTF-8 sequence mid-way for ASCII-significant tokens; any
    // multibyte character outside strings/comments passes through intact.
    String::from_utf8(out).unwrap_or_default()
}

/// True when `bytes[i..]` starts a raw string (`r"` / `r#…"`), and `r` is
/// not part of a longer identifier like `for` or `r2`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Length of a char literal starting at `i`, or `None` for lifetimes.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: scan to the closing quote (bounded).
        let end = (i + 12).min(bytes.len());
        bytes[i + 2..end]
            .iter()
            .position(|&b| b == b'\'')
            .map(|off| off + 3)
    } else if bytes.get(i + 2) == Some(&b'\'') {
        Some(3)
    } else {
        // Multibyte char literal ('→') or lifetime. Look for a closing
        // quote within one UTF-8 character's worth of bytes.
        let len = match next {
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            0xf0..=0xf7 => 4,
            _ => return None, // ASCII not followed by ' ⇒ lifetime
        };
        (bytes.get(i + 1 + len) == Some(&b'\'')).then_some(len + 2)
    }
}

/// Blanks every region gated behind `#[cfg(test)]` or `#[test]` in
/// already-masked source, so the passes only see non-test library code.
///
/// The scanner tracks brace depth: after a test attribute, everything up to
/// the end of the next item (its matching `}` — or `;` for brace-less
/// items) is blanked.
pub fn strip_test_regions(masked: &str) -> String {
    let bytes = masked.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;

    while i < bytes.len() {
        if starts_with_test_attr(&bytes[i..]) {
            // Blank from the attribute through the gated item.
            let mut depth = 0usize;
            let mut entered = false;
            while i < bytes.len() {
                let b = bytes[i];
                match b {
                    b'{' => {
                        depth += 1;
                        entered = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                    }
                    _ => {}
                }
                out.push(if b == b'\n' { b'\n' } else { b' ' });
                i += 1;
                if entered && depth == 0 {
                    break;
                }
                if !entered && b == b';' {
                    break; // attribute gated a brace-less item
                }
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Does `rest` begin with `#[cfg(test)]`, `#[cfg(all(test, …))]`, or
/// `#[test]` (whitespace-insensitive)?
fn starts_with_test_attr(rest: &[u8]) -> bool {
    let compact: Vec<u8> = rest
        .iter()
        .take(48)
        .filter(|b| !b.is_ascii_whitespace())
        .copied()
        .collect();
    compact.starts_with(b"#[cfg(test)]")
        || compact.starts_with(b"#[cfg(all(test")
        || compact.starts_with(b"#[test]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_block_comments() {
        let src = "let a = 1; // unwrap()\n/* panic! */ let b = 2;\n";
        let m = mask_non_code(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic"));
        assert!(m.contains("let a = 1;"));
        assert!(m.contains("let b = 2;"));
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn masks_nested_block_comments() {
        let src = "/* outer /* inner unwrap() */ still */ code()";
        let m = mask_non_code(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("still"));
        assert!(m.contains("code()"));
    }

    #[test]
    fn masks_strings_and_chars_but_not_lifetimes() {
        let src = r#"let s = "panic!(x)"; let c = '"'; fn f<'a>(x: &'a str) {} let e = '\n';"#;
        let m = mask_non_code(src);
        assert!(!m.contains("panic"));
        assert!(m.contains("fn f<'a>(x: &'a str)"));
        assert!(!m.contains("\\n"));
    }

    #[test]
    fn masks_raw_strings() {
        let src = r###"let s = r#"has "quotes" and unwrap()"#; after()"###;
        let m = mask_non_code(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("after()"));
        // `r` as identifier prefix must not trigger raw-string mode.
        let src2 = "for x in 0..r\"lit\".len() {}";
        assert!(mask_non_code(src2).contains("for x in 0.."));
    }

    #[test]
    fn strips_cfg_test_modules() {
        let src = "fn lib() { x.unwrap_or(0); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let joined = strip_test_regions(&mask_non_code(src));
        assert!(!joined.contains(".unwrap()"));
        assert!(joined.contains("unwrap_or"));
        assert!(joined.contains("fn tail()"));
    }

    #[test]
    fn strips_test_fns_and_braceless_items() {
        let src = "#[test]\nfn t() { panic!(); }\nfn real() {}\n#[cfg(test)]\nuse foo::bar;\nfn also_real() {}\n";
        let joined = strip_test_regions(&mask_non_code(src));
        assert!(!joined.contains("panic!"));
        assert!(!joined.contains("foo::bar"));
        assert!(joined.contains("fn real()"));
        assert!(joined.contains("fn also_real()"));
    }

    #[test]
    fn line_numbers_are_preserved() {
        let src = "a\n\"two\nlines? no: strings stay on one line in rust\"\nb\n";
        // Even with multi-line strings the newline bytes inside are kept.
        assert_eq!(mask_non_code(src).lines().count(), src.lines().count());
    }
}
