//! The two readers of exported event streams — `Collector::parse_jsonl`
//! and `Stream::parse` — on the same 10^5 seeded inputs: arbitrary text,
//! and generated exports damaged (a bit flipped, the tail lost, a span
//! cut, repeated or overwritten). Neither panics; each ends in `Ok` or an
//! error that names the line or the reason, and they agree.

use obs::{Collector, Event, SpanAction};
use obs_analyze::Stream;
use propcheck::{check, Gen};

const CHARS: &str = "ab \"\\/\n\t\0{}[]:,-+.eE0123456789tfn\u{7f}é誤😀\u{2028}";

/// A small export with its header and lines of several kinds, strings
/// generated; the ring may be smaller than the run, so some are truncated.
fn any_export(g: &mut Gen) -> String {
    let mut c = Collector::with_capacity(g.int(4..12));
    for at in 0..g.int(0..8u64) {
        let (job, machine, text) = (g.int(0..=u64::MAX), at, g.string(CHARS, 0..12));
        let event = match g.below(4) {
            0 => Event::Dispatch { job, machine },
            1 => Event::Reschedule {
                job,
                machine,
                reason: text,
            },
            2 => Event::SpanHop {
                span: job,
                layer: "wrapper".into(),
                action: SpanAction::Widened { from: text },
                scope: "process".into(),
            },
            _ => Event::NetFaultApplied {
                kind: text,
                link: "1-5".into(),
                active: g.bool(),
            },
        };
        c.record(at * 1_000, "schedd", event);
    }
    c.to_jsonl_with_meta()
}

#[test]
fn exported_streams_parse_or_are_refused_with_a_reason() {
    let mut corpus = Gen::new(0);
    let corpus: Vec<String> = (0..500).map(|_| any_export(&mut corpus)).collect();
    for export in &corpus {
        let records = Collector::parse_jsonl(export).expect("own export");
        assert_eq!(records.len(), export.lines().count() - 1);
    }
    check(100_000, |g| {
        let valid = g.pick(&corpus);
        let input = match g.below(4) {
            0 => g.string(CHARS, 0..200),
            _ => String::from_utf8_lossy(&g.mutated(valid.as_bytes())).into_owned(),
        };
        match (Stream::parse(&input), Collector::parse_jsonl(&input)) {
            (Ok(stream), Ok(records)) => assert_eq!(stream.records, records),
            (Err(refused), Ok(_)) => {
                assert!(refused.starts_with("refusing truncated"), "{refused}")
            }
            (Err(a), Err(b)) => assert!(a == b && a.starts_with("line "), "{a} / {b}"),
            (Ok(_), Err(e)) => panic!("Stream::parse accepted what parse_jsonl refused: {e}"),
        }
    });
}
