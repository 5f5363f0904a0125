//! The readers of exported event streams on the same 10^5 seeded inputs:
//! arbitrary text, and generated exports respelled (members permuted,
//! whitespace everywhere, unknown and repeated members, needless escapes,
//! integers written other ways) and damaged (a bit flipped, the tail lost,
//! a span cut, repeated or overwritten).
//!
//! `Collector::parse_jsonl_with_meta` and `Stream::parse` never panic and
//! agree; each ends in `Ok` or an error that names the line or the reason
//! (a stream with no header, or a truncated one, is refused). And the
//! field-by-field reader behind them reads exactly what a JSON tree reads:
//! [`tree`] at the bottom of this file is that reference — `json::parse`,
//! then member lookups on the tree.

use obs::json::{self, Json};
use obs::{ClaimOutcome, Collector, Event, EventRecord, IoOutcome, SpanAction, StreamMeta};
use obs_analyze::Stream;
use propcheck::counting::{allocated, Counting};
use propcheck::{check, Gen};

#[global_allocator]
static GLOBAL: Counting = Counting;

const CHARS: &str = "ab \"\\/\n\t\0{}[]:,-+.eE0123456789tfn\u{7f}é誤😀\u{2028}";

/// An event of any of the 18 kinds, strings generated.
fn any_event(g: &mut Gen, machine: u64) -> Event {
    let text = |g: &mut Gen| g.string(CHARS, 0..12);
    let job = g.int(0..=u64::MAX);
    match g.below(18) {
        0 => Event::Claim {
            job,
            machine,
            outcome: match g.below(4) {
                0 => ClaimOutcome::Requested,
                1 => ClaimOutcome::Accepted,
                2 => ClaimOutcome::Rejected { reason: text(g) },
                _ => ClaimOutcome::TimedOut,
            },
        },
        1 => Event::Dispatch { job, machine },
        2 => Event::Match { job, machine },
        3 => Event::Escape {
            span: job,
            layer: text(g),
            code: text(g),
            scope: text(g),
        },
        4 => Event::Reschedule {
            job,
            machine,
            reason: text(g),
        },
        5 => Event::Disposition {
            job,
            disposition: text(g),
            scope: text(g),
            span: g.int(0..=u64::MAX),
        },
        6 => Event::IoOp {
            op: text(g),
            outcome: match g.below(3) {
                0 => IoOutcome::Ok,
                1 => IoOutcome::Error { code: text(g) },
                _ => IoOutcome::Escaped { code: text(g) },
            },
        },
        7 => Event::Violation {
            principle: g.int(0..=u8::MAX),
            machine,
            detail: text(g),
        },
        8 => Event::CheckpointTaken {
            job,
            machine,
            bytes: g.int(0..=u64::MAX),
            banked_us: g.int(0..=u64::MAX),
        },
        9 => Event::CheckpointRestored {
            job,
            machine,
            saved_us: g.int(0..=u64::MAX),
        },
        10 => Event::CheckpointDiscarded {
            job,
            machine,
            reason: text(g),
        },
        11 => Event::LeaseExpired {
            job,
            machine,
            side: text(g),
        },
        12 => Event::StaleEpochDropped {
            job,
            kind: text(g),
            got: g.int(0..=u64::MAX),
            current: g.int(0..=u64::MAX),
        },
        13 => Event::BreakerStateChange {
            machine,
            from: text(g),
            to: text(g),
        },
        14 => Event::NetFaultApplied {
            kind: text(g),
            link: text(g),
            active: g.bool(),
        },
        15 => Event::MemFlip {
            job,
            machine,
            target: text(g),
            bit: g.int(0..=u64::MAX),
        },
        16 => Event::FlockFault {
            job,
            pool: g.int(0..=u64::MAX),
            kind: text(g),
        },
        _ => Event::SpanHop {
            span: job,
            layer: text(g),
            action: match g.below(7) {
                0 => SpanAction::Raised,
                1 => SpanAction::Forwarded,
                2 => SpanAction::Widened { from: text(g) },
                3 => SpanAction::Escaped,
                4 => SpanAction::Reexpressed,
                5 => SpanAction::Handled,
                _ => SpanAction::Swallowed,
            },
            scope: text(g),
        },
    }
}

/// A small export with its header; the ring may be smaller than the run,
/// so some are truncated.
fn any_export(g: &mut Gen) -> String {
    let mut c = Collector::with_capacity(g.int(4..12));
    for at in 0..g.int(0..8u64) {
        let event = any_event(g, at);
        c.record(at * 1_000, "schedd", event);
    }
    c.to_jsonl_with_meta()
}

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

/// Whitespace a writer may put between two tokens of a line.
fn ws(g: &mut Gen) -> &'static str {
    const WS: [&str; 7] = ["", "", "", " ", "\t", "\r", "  "];
    WS[g.below(WS.len())]
}

/// `s` as a string literal, some of its ASCII characters needlessly
/// escaped.
fn quote(g: &mut Gen, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let mut one = String::new();
        json::write_str(&mut one, c.encode_utf8(&mut [0; 4]));
        let plain = &one[1..one.len() - 1];
        match g.below(16) {
            0 if c.is_ascii() && plain.len() == 1 => out += &format!("\\u{:04x}", u32::from(c)),
            1 if c == '/' => out += "\\/",
            _ => out += plain,
        }
    }
    out + "\""
}

/// `v` as another writer might spell it: see the module doc.
fn respell(g: &mut Gen, v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        // Mostly as written; otherwise a leading zero (read as today: the
        // same number) or a fraction, an exponent or a minus zero (read
        // as today: not a `u64`).
        Json::UInt(n) => match g.below(40) {
            0..=2 => format!("0{n}"),
            3 => format!("{n}.0"),
            4 => format!("{n}e0"),
            5 if *n == 0 => "-0".into(),
            _ => n.to_string(),
        },
        Json::Int(n) => n.to_string(),
        Json::Num(x) => format!("{x:e}"),
        Json::Str(s) => quote(g, s),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(|v| respell(g, v)).collect();
            format!(
                "[{}{}{}]",
                ws(g),
                items.join(&format!("{},{}", ws(g), ws(g))),
                ws(g)
            )
        }
        Json::Obj(members) => {
            let mut out: Vec<(String, String)> = Vec::new();
            for (k, v) in members {
                out.push((k.clone(), respell(g, v)));
                // Sometimes the same key again, spelled again or holding
                // something else: whichever comes last after the shuffle
                // is the value.
                match g.below(40) {
                    0 => out.push((k.clone(), respell(g, v))),
                    1 => out.push((k.clone(), any_json(g, 2))),
                    _ => {}
                }
            }
            if g.below(4) == 0 {
                let unknown = match g.below(50) {
                    0 => format!("{}{}", "[".repeat(130), "]".repeat(130)),
                    _ => any_json(g, 3),
                };
                out.push((
                    g.pick(&["x", "note", "events", "Type"]).to_string(),
                    unknown,
                ));
            }
            if g.below(3) > 0 {
                for i in (1..out.len()).rev() {
                    out.swap(i, g.below(i + 1));
                }
            }
            let members: Vec<String> = out
                .iter()
                .map(|(k, v)| format!("{}{}:{}{}", quote(g, k), ws(g), ws(g), v))
                .collect();
            format!(
                "{{{}{}{}}}",
                ws(g),
                members.join(&format!("{},{}", ws(g), ws(g))),
                ws(g)
            )
        }
    }
}

/// `export` respelled line by line. A header keeps its `{"stream":`
/// prefix, which is how the parser tells it from a record.
fn respelled(g: &mut Gen, export: &str) -> String {
    let mut out = String::new();
    for line in export.lines() {
        let doc = json::parse(line).expect("own export");
        match doc.get("stream") {
            Some(stream) => out += &format!("{{\"stream\":{}}}", respell(g, stream)),
            None => out += &format!("{}{}{}", ws(g), respell(g, &doc), ws(g)),
        }
        out.push('\n');
    }
    out
}

type Parsed = Result<(Vec<StreamMeta>, Vec<EventRecord>), String>;

/// `got`, what the field reader made of `input`, is what the tree makes
/// of it; an error names its line.
fn assert_tree_agrees(input: &str, got: &Parsed) {
    assert_eq!(got, &tree::parse_jsonl_with_meta(input), "for {input:?}");
    if let Err(e) = got {
        assert!(e.starts_with("line "), "{e}");
    }
}

/// What the field reader makes of `input`, checked against the tree.
fn agree(input: &str) -> Parsed {
    let got = Collector::parse_jsonl_with_meta(input);
    assert_tree_agrees(input, &got);
    got
}

#[test]
fn exported_streams_parse_or_are_refused_with_a_reason() {
    let mut corpus = Gen::new(0);
    let corpus: Vec<String> = (0..500).map(|_| any_export(&mut corpus)).collect();
    for export in &corpus {
        let (meta, records) = Collector::parse_jsonl_with_meta(export).expect("own export");
        assert_eq!((meta.len(), records.len()), (1, export.lines().count() - 1));
    }
    check(100_000, |g| {
        let valid = g.pick(&corpus);
        let input = match g.below(4) {
            0 => g.string(CHARS, 0..200),
            _ => String::from_utf8_lossy(&g.mutated(valid.as_bytes())).into_owned(),
        };
        match (
            Stream::parse(&input),
            Collector::parse_jsonl_with_meta(&input),
        ) {
            (Ok(stream), Ok((meta, records))) => {
                assert_eq!((stream.meta, stream.records), (meta, records))
            }
            (Err(refused), Ok((meta, _))) if meta.is_empty() => {
                assert!(refused.starts_with("refusing headerless"), "{refused}")
            }
            (Err(refused), Ok(_)) => {
                assert!(refused.starts_with("refusing truncated"), "{refused}")
            }
            (Err(a), Err(b)) => assert!(a == b && a.starts_with("line "), "{a} / {b}"),
            (Ok(_), Err(e)) => {
                panic!("Stream::parse accepted what parse_jsonl_with_meta refused: {e}")
            }
        }
    });
}

/// 10^5 inputs: one in four arbitrary text, the rest one of 500 exports,
/// respelled, damaged, or both. The field reader and the tree reference
/// return the same records, or the same error naming the same line; and
/// the field reader asks the allocator for at most a fixed multiple of
/// its input.
#[test]
fn the_field_reader_reads_what_the_tree_reads() {
    let mut corpus = Gen::new(1);
    let corpus: Vec<String> = (0..500).map(|_| any_export(&mut corpus)).collect();
    let (mut accepted, mut respelled_accepted) = (0, 0);
    check(100_000, |g| {
        let valid = g.pick(&corpus);
        let kind = g.below(4);
        let input = match kind {
            0 => g.string(CHARS, 0..200),
            1 => String::from_utf8_lossy(&g.mutated(valid.as_bytes())).into_owned(),
            2 => respelled(g, valid),
            _ => {
                let text = respelled(g, valid);
                String::from_utf8_lossy(&g.mutated(text.as_bytes())).into_owned()
            }
        };
        let (got, _, requested) = allocated(|| Collector::parse_jsonl_with_meta(&input));
        // The records' strings are copies of the input's; the rest is the
        // record vector, sized from the input, and an error message (these
        // inputs reach 4.3 bytes a byte; `json::parse` alone reaches 94).
        let budget = 8 * input.len() as u64 + 512;
        assert!(requested <= budget, "{requested} bytes for {input:?}");
        accepted += u32::from(got.is_ok());
        respelled_accepted += u32::from(got.is_ok() && kind == 2);
        assert_tree_agrees(&input, &got);
    });
    // Both sides of the comparison are well exercised.
    assert!(
        accepted > 10_000 && respelled_accepted > 5_000,
        "{accepted} {respelled_accepted}"
    );
}

/// A canonical record line for the hand cases, `event` spliced in.
fn line(event: &str) -> String {
    format!(r#"{{"at_us":7,"actor":"schedd","event":{event}}}"#)
}

fn record(input: &str) -> EventRecord {
    let (_, mut records) = agree(input).expect("accepted");
    assert_eq!(records.len(), 1);
    records.remove(0)
}

fn refusal(input: &str) -> String {
    agree(input).expect_err("refused")
}

#[test]
fn members_come_in_any_order_with_whitespace_anywhere() {
    let canonical = line(r#"{"type":"claim","job":1,"machine":2,"outcome":"requested"}"#);
    let shuffled = " { \"event\" :\t{ \"outcome\":\"requested\" , \"machine\" : 2,\r\"job\":1 ,\"type\" : \"claim\" } ,\"actor\":\"schedd\",  \"at_us\" : 7 }\t";
    assert_eq!(record(shuffled), record(&canonical));
    assert_eq!(
        record(shuffled).event,
        Event::Claim {
            job: 1,
            machine: 2,
            outcome: ClaimOutcome::Requested
        }
    );
}

#[test]
fn unknown_members_are_read_past_at_any_depth() {
    let nested = r#"{"a":[1,{"b":[[],{}],"c":"}"}],"d":{"e":{"f":null}}}"#;
    let with_unknowns = format!(
        r#"{{"x":{nested},"at_us":7,"actor":"schedd","event":{{"y":{nested},"type":"match","job":1,"z":[{nested}],"machine":2}},"w":"{{"}}"#
    );
    assert_eq!(
        record(&with_unknowns),
        record(&line(r#"{"type":"match","job":1,"machine":2}"#))
    );
    // The header reads past them too.
    let header = format!(
        r#"{{"stream":{{"x":{nested},"events":1,"dropped":0,"capacity":4}},"y":{nested}}}"#
    );
    let (meta, _) = agree(&header).expect("accepted");
    assert_eq!(
        meta,
        [StreamMeta {
            events: 1,
            dropped: 0,
            capacity: 4
        }]
    );
}

#[test]
fn an_unknown_member_nested_past_max_depth_is_refused() {
    let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    // The record and its event are two levels: what fits under them is
    // read past, one level more is refused where it starts.
    let event = |levels: usize| {
        format!(
            r#"{{"type":"match","job":1,"machine":2,"x":{}}}"#,
            deep(levels)
        )
    };
    record(&line(&event(json::MAX_DEPTH - 2)));
    let err = refusal(&line(&event(json::MAX_DEPTH - 1)));
    assert!(
        err.starts_with("line 1: ") && err.contains("nested too deeply"),
        "{err}"
    );
    let err = refusal(&line(&event(100_000)));
    assert!(err.contains("nested too deeply"), "{err}");
}

#[test]
fn the_last_of_a_repeated_key_wins() {
    let twice = line(r#"{"type":"dispatch","job":1,"type":"match","machine":2,"job":3}"#);
    assert_eq!(record(&twice).event, Event::Match { job: 3, machine: 2 });
    // A later value of the wrong type wins too: the member is then missing.
    let err = refusal(&line(r#"{"type":"match","job":1,"machine":2,"job":"1"}"#));
    assert_eq!(err, "line 1: match event missing integer \"job\"");
    // So does a whole repeated event.
    let events = r#"{"at_us":7,"actor":"a","event":{"type":"match","job":1,"machine":2},"event":{"type":"dispatch","job":4,"machine":5}}"#;
    assert_eq!(record(events).event, Event::Dispatch { job: 4, machine: 5 });
}

#[test]
fn escaped_keys_and_values_decode() {
    let escaped = r#"{"at_us":7,"actor":"schedd\n\"q\"","event":{"type":"escape","span":9,"layer":"io\/lib","code":"é\t","scope":"local-resource"}}"#;
    let r = record(escaped);
    assert_eq!(r.actor, "schedd\n\"q\"");
    assert_eq!(
        r.event,
        Event::Escape {
            span: 9,
            layer: "io/lib".into(),
            code: "é\t".into(),
            scope: "local-resource".into(),
        }
    );
}

#[test]
fn integers_are_read_as_the_tree_reads_them() {
    let with_job = |job: &str| line(&format!(r#"{{"type":"match","job":{job},"machine":2}}"#));
    for refused in [
        "1.0",
        "-0",
        "1e2",
        "-1",
        "18446744073709551616",
        "\"1\"",
        "null",
    ] {
        let err = refusal(&with_job(refused));
        assert_eq!(
            err, "line 1: match event missing integer \"job\"",
            "{refused}"
        );
    }
    for (written, job) in [("01", 1), ("007", 7), ("18446744073709551615", u64::MAX)] {
        assert_eq!(
            record(&with_job(written)).event,
            Event::Match { job, machine: 2 },
            "{written}"
        );
    }
}

#[test]
fn a_masked_span_action_is_refused() {
    let masked = line(
        r#"{"type":"span-hop","span":1,"layer":"rpc","action":"masked","technique":"retry","scope":"process"}"#,
    );
    assert_eq!(refusal(&masked), "line 1: unknown span action \"masked\"");
}

/// The reference: each line parsed into a `Json` tree, then read by member
/// lookups on it — the stream's reader before it read fields directly.
mod tree {
    use super::*;

    pub fn parse_jsonl_with_meta(input: &str) -> Parsed {
        let mut meta = Vec::new();
        let mut out = Vec::new();
        for (i, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fail = |e: String| format!("line {}: {e}", i + 1);
            if line.starts_with("{\"stream\":") {
                if let Some(m) = stream_meta(line).map_err(fail)? {
                    meta.push(m);
                    continue;
                }
            }
            out.push(record(line).map_err(fail)?);
        }
        Ok((meta, out))
    }

    fn stream_meta(line: &str) -> Result<Option<StreamMeta>, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let Some(stream) = v.get("stream") else {
            return Ok(None);
        };
        let u = |k: &str| -> Result<u64, String> {
            stream
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stream header missing integer \"{k}\""))
        };
        Ok(Some(StreamMeta {
            events: u("events")?,
            dropped: u("dropped")?,
            capacity: u("capacity")?,
        }))
    }

    fn record(line: &str) -> Result<EventRecord, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let at_us = v
            .get("at_us")
            .and_then(Json::as_u64)
            .ok_or("record missing \"at_us\"")?;
        let actor = v
            .get("actor")
            .and_then(Json::as_str)
            .ok_or("record missing \"actor\"")?
            .to_string();
        let event = event(v.get("event").ok_or("record missing \"event\"")?)?;
        Ok(EventRecord {
            at_us,
            actor,
            event,
        })
    }

    fn event(v: &Json) -> Result<Event, String> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("event missing \"type\"")?;
        let u = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} event missing integer \"{k}\""))
        };
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} event missing string \"{k}\""))
        };
        match kind {
            "claim" => {
                let outcome = match s("outcome")?.as_str() {
                    "requested" => ClaimOutcome::Requested,
                    "accepted" => ClaimOutcome::Accepted,
                    "rejected" => ClaimOutcome::Rejected {
                        reason: s("reason")?,
                    },
                    "timed-out" => ClaimOutcome::TimedOut,
                    other => return Err(format!("unknown claim outcome {other:?}")),
                };
                Ok(Event::Claim {
                    job: u("job")?,
                    machine: u("machine")?,
                    outcome,
                })
            }
            "dispatch" => Ok(Event::Dispatch {
                job: u("job")?,
                machine: u("machine")?,
            }),
            "match" => Ok(Event::Match {
                job: u("job")?,
                machine: u("machine")?,
            }),
            "escape" => Ok(Event::Escape {
                span: u("span")?,
                layer: s("layer")?,
                code: s("code")?,
                scope: s("scope")?,
            }),
            "reschedule" => Ok(Event::Reschedule {
                job: u("job")?,
                machine: u("machine")?,
                reason: s("reason")?,
            }),
            "disposition" => Ok(Event::Disposition {
                job: u("job")?,
                disposition: s("disposition")?,
                scope: s("scope")?,
                span: u("span")?,
            }),
            "io-op" => {
                let outcome = match s("outcome")?.as_str() {
                    "ok" => IoOutcome::Ok,
                    "error" => IoOutcome::Error { code: s("code")? },
                    "escaped" => IoOutcome::Escaped { code: s("code")? },
                    other => return Err(format!("unknown io outcome {other:?}")),
                };
                Ok(Event::IoOp {
                    op: s("op")?,
                    outcome,
                })
            }
            "violation" => {
                let p = u("principle")?;
                Ok(Event::Violation {
                    principle: u8::try_from(p)
                        .map_err(|_| format!("principle {p} out of range"))?,
                    machine: u("machine").unwrap_or(0),
                    detail: s("detail")?,
                })
            }
            "ckpt-taken" => Ok(Event::CheckpointTaken {
                job: u("job")?,
                machine: u("machine")?,
                bytes: u("bytes")?,
                banked_us: u("banked_us")?,
            }),
            "ckpt-restored" => Ok(Event::CheckpointRestored {
                job: u("job")?,
                machine: u("machine")?,
                saved_us: u("saved_us")?,
            }),
            "ckpt-discarded" => Ok(Event::CheckpointDiscarded {
                job: u("job")?,
                machine: u("machine")?,
                reason: s("reason")?,
            }),
            "lease-expired" => Ok(Event::LeaseExpired {
                job: u("job")?,
                machine: u("machine")?,
                side: s("side")?,
            }),
            "stale-epoch-dropped" => Ok(Event::StaleEpochDropped {
                job: u("job")?,
                kind: s("kind")?,
                got: u("got")?,
                current: u("current")?,
            }),
            "breaker-state-change" => Ok(Event::BreakerStateChange {
                machine: u("machine")?,
                from: s("from")?,
                to: s("to")?,
            }),
            "net-fault-applied" => Ok(Event::NetFaultApplied {
                kind: s("kind")?,
                link: s("link")?,
                active: v
                    .get("active")
                    .and_then(Json::as_bool)
                    .ok_or("net-fault-applied event missing boolean \"active\"")?,
            }),
            "mem-flip" => Ok(Event::MemFlip {
                job: u("job")?,
                machine: u("machine")?,
                target: s("target")?,
                bit: u("bit")?,
            }),
            "flock-fault" => Ok(Event::FlockFault {
                job: u("job")?,
                pool: u("pool")?,
                kind: s("kind")?,
            }),
            "span-hop" => {
                let action = match s("action")?.as_str() {
                    "raised" => SpanAction::Raised,
                    "forwarded" => SpanAction::Forwarded,
                    "widened" => SpanAction::Widened { from: s("from")? },
                    "escaped" => SpanAction::Escaped,
                    "reexpressed" => SpanAction::Reexpressed,
                    "handled" => SpanAction::Handled,
                    "swallowed" => SpanAction::Swallowed,
                    other => return Err(format!("unknown span action {other:?}")),
                };
                Ok(Event::SpanHop {
                    span: u("span")?,
                    layer: s("layer")?,
                    action,
                    scope: s("scope")?,
                })
            }
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}
