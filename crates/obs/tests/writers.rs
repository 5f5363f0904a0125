//! `json::write_str` appends the text between escapes in runs; its bytes
//! are those of the writer that appended one `char` at a time, kept here
//! as the reference. (`json::write_u64`'s digits are checked against
//! `to_string` beside it, in `json.rs`.)

use obs::json;
use propcheck::check;

/// The per-`char` writer every export was written with before runs.
fn write_str_by_char(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn both(s: &str) -> (String, String) {
    let (mut runs, mut by_char) = (String::from("x"), String::from("x"));
    json::write_str(&mut runs, s);
    write_str_by_char(&mut by_char, s);
    (runs, by_char)
}

#[test]
fn every_ascii_character_is_written_as_before() {
    for b in 0..0x80u8 {
        let c = char::from(b);
        for s in [
            c.to_string(),
            format!("a{c}"),
            format!("{c}b"),
            format!("é{c}{c}誤"),
        ] {
            let (runs, by_char) = both(&s);
            assert_eq!(runs, by_char, "{s:?}");
        }
    }
}

#[test]
fn write_str_writes_the_bytes_the_per_char_writer_wrote() {
    // Every byte below 0x20, the two escaped printables, DEL, the line
    // separator JSON leaves alone and multi-byte characters of each width.
    let mut alphabet: String = (0..0x20u8).map(char::from).collect();
    alphabet.push_str("\"\\\u{7f}\u{2028}ab /é誤😀");
    check(20_000, |g| {
        let s = g.string(&alphabet, 0..40);
        let (runs, by_char) = both(&s);
        assert_eq!(runs, by_char, "{s:?}");
        assert_eq!(json::parse(&runs[1..]).unwrap(), json::Json::Str(s));
    });
}
