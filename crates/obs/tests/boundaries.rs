//! `json::parse`, the reader every file from another machine goes through,
//! on 10^5 seeded inputs: arbitrary text, and generated documents damaged
//! (a bit flipped, the tail lost, a span cut, repeated or overwritten).
//! Every input ends in `Ok` or an error that says where; none panics or
//! asks the allocator for more than a fixed multiple of its length.
//! (`Collector::parse_jsonl` gets the same treatment beside its consumer,
//! in `obs-analyze/tests/boundaries.rs`.)

use obs::json;
use propcheck::counting::{allocated, Counting};
use propcheck::{check, Gen};

#[global_allocator]
static GLOBAL: Counting = Counting;

const CHARS: &str = "ab \"\\/\n\t\0{}[]:,-+.eE0123456789tfn\u{7f}é誤😀\u{2028}";

/// A JSON document at most `depth` containers deep, as text.
fn any_json(g: &mut Gen, depth: u32) -> String {
    let quoted = |g: &mut Gen| {
        let mut out = String::new();
        json::write_str(&mut out, &g.string(CHARS, 0..12));
        out
    };
    match g.below(if depth == 0 { 5 } else { 7 }) {
        0 => g.pick(&["null", "true", "false"]).to_string(),
        1 => g.int(i64::MIN..=i64::MAX).to_string(),
        2 => g.int(0..=u64::MAX).to_string(),
        3 => format!("{:e}", g.f64(-1e9..1e9)),
        4 => quoted(g),
        5 => format!("[{}]", g.vec(0..4, |g| any_json(g, depth - 1)).join(" , ")),
        _ => {
            let member = |g: &mut Gen| format!("{}: {}", quoted(g), any_json(g, depth - 1));
            format!("{{{}}}", g.vec(0..4, member).join(","))
        }
    }
}

/// 10^5 inputs: one in four arbitrary text, the rest one of 500 generated
/// documents (each first checked to parse) damaged.
#[test]
fn json_parse_is_total_and_allocates_in_proportion_to_its_input() {
    let mut corpus = Gen::new(0);
    let corpus: Vec<String> = (0..500).map(|_| any_json(&mut corpus, 4)).collect();
    for doc in &corpus {
        assert!(json::parse(doc).is_ok(), "{doc}");
    }
    check(100_000, |g| {
        let valid = g.pick(&corpus);
        let input = match g.below(4) {
            0 => g.string(CHARS, 0..200),
            _ => String::from_utf8_lossy(&g.mutated(valid.as_bytes())).into_owned(),
        };
        let (out, _, requested) = allocated(|| json::parse(&input));
        if let Err(e) = &out {
            assert!(e.at <= input.len() && !e.message.is_empty());
        }
        // The costliest byte is the `:` of a one-member object: a B-tree
        // leaf with room for eleven members (94 bytes a byte is the most
        // these inputs reach). Nothing is sized by a number the input
        // merely states.
        let budget = 256 * input.len() as u64 + 256;
        assert!(requested <= budget, "{requested} bytes for {input:?}");
    });
}
