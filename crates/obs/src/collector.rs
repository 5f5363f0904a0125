//! The bounded event collector and its JSONL exporter.
//!
//! Recording is a hot path — every `Context::emit` in the simulator lands
//! here. Every record carries an actor name, so the collector stores it as
//! a symbol in its own private interner: after an actor's first event, the
//! name costs no allocation. The event itself is kept exactly as it was
//! handed in, and [`EventRef`] views lend it back by reference.
//!
//! There is one export, [`Collector::to_jsonl_with_meta`]: its first line
//! is the [`StreamMeta`] header, so every stream says whether it is the
//! whole run or a ring-truncated suffix of it.

use crate::event::{Event, EventFields};
use crate::intern::{Interner, Sym};
use crate::json;
use crate::ring::RingBuffer;
use std::collections::BTreeMap;
use std::fmt;

/// One recorded event: what, when, and which actor saw it. This is the
/// owned form the JSONL parser returns; the collector keeps the same event
/// with only the actor name interned, lent out as an [`EventRef`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Simulation time, microseconds.
    pub at_us: u64,
    /// The recording actor's name.
    pub actor: String,
    /// The event.
    pub event: Event,
}

/// The in-ring representation: the actor name is a symbol in the
/// collector's interner, the event is the one recorded.
#[derive(Debug, Clone, PartialEq)]
struct StoredRecord {
    at_us: u64,
    actor: Sym,
    event: Event,
}

/// A borrowed view of one recorded event, with the actor name resolved.
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    /// Simulation time, microseconds.
    pub at_us: u64,
    /// The recording actor's name.
    pub actor: &'a str,
    /// The event, as recorded.
    pub event: &'a Event,
}

impl EventRef<'_> {
    /// An owned copy of this record.
    pub fn to_record(&self) -> EventRecord {
        EventRecord {
            at_us: self.at_us,
            actor: self.actor.to_string(),
            event: self.event.clone(),
        }
    }
}

/// The one writer of a record's line (no trailing newline), for a live
/// [`EventRef`] and an owned [`EventRecord`] alike.
fn write_record(out: &mut String, at_us: u64, actor: &str, event: &Event) {
    out.push_str("{\"at_us\":");
    json::write_u64(out, at_us);
    out.push_str(",\"actor\":");
    json::write_str(out, actor);
    out.push_str(",\"event\":");
    event.write_json(out);
    out.push('}');
}

impl fmt::Display for EventRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6}s] {:<12} {}",
            self.at_us as f64 / 1e6,
            self.actor,
            self.event
        )
    }
}

/// Stream-level accounting emitted as the first line of a
/// [`Collector::to_jsonl_with_meta`] export. Without it a truncated
/// stream — one whose ring evicted old events to stay within capacity —
/// is indistinguishable from a complete one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMeta {
    /// Events retained in (and exported from) the stream.
    pub events: u64,
    /// Events evicted before export: non-zero means the stream is a
    /// *suffix* of the run, not the whole run.
    pub dropped: u64,
    /// The ring capacity the collector ran with.
    pub capacity: u64,
}

impl StreamMeta {
    /// Serialise as the one-line stream header.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"stream\":{\"events\":");
        json::write_u64(out, self.events);
        out.push_str(",\"dropped\":");
        json::write_u64(out, self.dropped);
        out.push_str(",\"capacity\":");
        json::write_u64(out, self.capacity);
        out.push_str("}}");
    }

    /// Parse a line previously produced by [`StreamMeta::to_json`].
    /// Returns `Ok(None)` when the line is not a stream header at all.
    pub fn from_json(line: &str) -> Result<Option<StreamMeta>, String> {
        // The last `stream` member's counts, in header order.
        let mut stream = None;
        json::read_all(line, |r| {
            r.object(|r, key| {
                if key != "stream" {
                    return r.skip();
                }
                let mut counts = [None; 3];
                r.object(|r, key| {
                    let slot = match key {
                        "events" => 0,
                        "dropped" => 1,
                        "capacity" => 2,
                        _ => return r.skip(),
                    };
                    counts[slot] = r.u64()?;
                    Ok(())
                })?;
                stream = Some(counts);
                Ok(())
            })
        })
        .map_err(|e| e.to_string())?;
        let Some([events, dropped, capacity]) = stream else {
            return Ok(None);
        };
        let u = |v: Option<u64>, k: &str| {
            v.ok_or_else(|| format!("stream header missing integer \"{k}\""))
        };
        Ok(Some(StreamMeta {
            events: u(events, "events")?,
            dropped: u(dropped, "dropped")?,
            capacity: u(capacity, "capacity")?,
        }))
    }
}

impl EventRecord {
    /// Serialise to a single JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        write_record(&mut out, self.at_us, &self.actor, &self.event);
        out
    }

    /// Parse one JSON line produced by [`EventRecord::to_json`]: members
    /// in any order, unknown ones read past, the last of a repeated key
    /// taken — as a JSON object is read — each straight into its field.
    pub fn from_json(line: &str) -> Result<EventRecord, String> {
        let (mut at_us, mut actor, mut event) = (None, None, None);
        json::read_all(line, |r| {
            r.object(|r, key| {
                match key {
                    "at_us" => at_us = r.u64()?,
                    "actor" => actor = r.str()?,
                    "event" => event.insert(EventFields::default()).read(r)?,
                    _ => r.skip()?,
                }
                Ok(())
            })
        })
        .map_err(|e| e.to_string())?;
        let at_us = at_us.ok_or("record missing \"at_us\"")?;
        let actor = actor.ok_or("record missing \"actor\"")?.into_owned();
        let event = event.ok_or("record missing \"event\"")?.into_event()?;
        Ok(EventRecord {
            at_us,
            actor,
            event,
        })
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6}s] {:<12} {}",
            self.at_us as f64 / 1e6,
            self.actor,
            self.event
        )
    }
}

/// A bounded, append-only store of typed events — the primary record of a
/// simulation run. Replaces grepping the free-form trace text.
#[derive(Debug, Clone)]
pub struct Collector {
    ring: RingBuffer<StoredRecord>,
    actors: Interner,
    enabled: bool,
}

impl Collector {
    /// Default capacity: plenty for every experiment in the repo while
    /// bounding a pathological run to tens of megabytes.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A collector with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A collector retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Collector {
            ring: RingBuffer::new(capacity),
            actors: Interner::new(),
            enabled: true,
        }
    }

    /// A collector that drops everything (for memory-sensitive sweeps).
    pub fn disabled() -> Self {
        Collector {
            ring: RingBuffer::new(1),
            actors: Interner::new(),
            enabled: false,
        }
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record `event` as seen by `actor` at simulation time `at_us`.
    /// After `actor`'s first event, the name costs one hash lookup and no
    /// allocation; the event is kept as it is.
    #[inline]
    pub fn record(&mut self, at_us: u64, actor: &str, event: Event) {
        if !self.enabled {
            return;
        }
        let actor = self.actors.intern(actor);
        self.ring.push(StoredRecord {
            at_us,
            actor,
            event,
        });
    }

    /// Recorded events, oldest first, with actor names resolved.
    pub fn iter(&self) -> impl Iterator<Item = EventRef<'_>> + '_ {
        self.ring.iter().map(|r| EventRef {
            at_us: r.at_us,
            actor: self.actors.resolve(r.actor),
            event: &r.event,
        })
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.ring.evicted()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Event counts by wire name, for quick summaries.
    pub fn counts_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for r in self.iter() {
            *out.entry(r.event.kind()).or_insert(0) += 1;
        }
        out
    }

    /// Stream-level accounting for this collector: how many events are
    /// retained, how many were dropped to stay within capacity, and the
    /// capacity itself.
    pub fn stream_meta(&self) -> StreamMeta {
        StreamMeta {
            events: self.len() as u64,
            dropped: self.evicted(),
            capacity: self.capacity() as u64,
        }
    }

    /// Export the stream as JSON Lines: the [`StreamMeta`] header line,
    /// then one object per retained event, each line ending in a newline.
    /// Consumers use the header to tell a complete stream from a truncated
    /// one; [`Collector::parse_jsonl_with_meta`] reads both back. Header
    /// and records are written in place into one buffer preallocated from
    /// the record count — no per-record intermediate `String`.
    pub fn to_jsonl_with_meta(&self) -> String {
        // ~96 bytes is the observed median line; headroom avoids the
        // first few doublings without over-reserving pathological streams.
        let mut out = String::with_capacity(64 + self.len() * 112);
        self.stream_meta().write_json(&mut out);
        out.push('\n');
        for r in self.iter() {
            write_record(&mut out, r.at_us, r.actor, r.event);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL export, returning every stream header encountered
    /// (one per concatenated export, in order) alongside the records.
    /// Blank lines are skipped; any malformed line is an error naming it.
    /// Whether a stream without a header is acceptable is the caller's
    /// call: `obs_analyze::Stream::parse` refuses one.
    pub fn parse_jsonl_with_meta(
        input: &str,
    ) -> Result<(Vec<StreamMeta>, Vec<EventRecord>), String> {
        let mut meta = Vec::new();
        // No record's line is shorter than 64 bytes: room for them all.
        let mut out = Vec::with_capacity(input.len() / 64);
        for (i, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fail = |e: String| format!("line {}: {e}", i + 1);
            // Headers are recognised by the exact prefix the writer emits,
            // so record lines are never parsed twice.
            if line.starts_with("{\"stream\":") {
                if let Some(m) = StreamMeta::from_json(line).map_err(fail)? {
                    meta.push(m);
                    continue;
                }
            }
            out.push(EventRecord::from_json(line).map_err(fail)?);
        }
        Ok((meta, out))
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::one_of_each_kind;
    use crate::event::{ClaimOutcome, IoOutcome};
    use crate::span::SpanAction;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Claim {
                job: 1,
                machine: 2,
                outcome: ClaimOutcome::Accepted,
            },
            Event::Dispatch { job: 1, machine: 2 },
            Event::SpanHop {
                span: 11,
                layer: "io-library".into(),
                action: SpanAction::Raised,
                scope: "local-resource".into(),
            },
            Event::SpanHop {
                span: 11,
                layer: "wrapper".into(),
                action: SpanAction::Reexpressed,
                scope: "local-resource".into(),
            },
            Event::IoOp {
                op: "read".into(),
                outcome: IoOutcome::Ok,
            },
            Event::Disposition {
                job: 1,
                disposition: "log-and-reschedule".into(),
                scope: "local-resource".into(),
                span: 11,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let mut c = Collector::new();
        for (i, e) in sample_events().into_iter().enumerate() {
            c.record(i as u64 * 1_000_000, "schedd", e);
        }
        let jsonl = c.to_jsonl_with_meta();
        let (meta, parsed) = Collector::parse_jsonl_with_meta(&jsonl).unwrap();
        assert_eq!(meta, vec![c.stream_meta()]);
        assert_eq!(parsed, c.iter().map(|r| r.to_record()).collect::<Vec<_>>());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let err = Collector::parse_jsonl_with_meta("{\"at_us\":1}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(Collector::parse_jsonl_with_meta("not json\n").is_err());
        // Blank lines are fine.
        assert_eq!(
            Collector::parse_jsonl_with_meta("\n\n").unwrap(),
            (vec![], vec![])
        );
    }

    #[test]
    fn capacity_bounds_growth_and_counts_evictions() {
        let mut c = Collector::with_capacity(3);
        for i in 0..8u64 {
            c.record(i, "a", Event::Dispatch { job: i, machine: 0 });
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.evicted(), 5);
        let jobs: Vec<u64> = c
            .iter()
            .map(|r| match r.event {
                Event::Dispatch { job, .. } => *job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![5, 6, 7]);
    }

    #[test]
    fn meta_header_round_trips_and_is_skipped() {
        let mut c = Collector::with_capacity(3);
        for i in 0..8u64 {
            c.record(i, "a", Event::Dispatch { job: i, machine: 0 });
        }
        let meta = c.stream_meta();
        assert_eq!(
            meta,
            StreamMeta {
                events: 3,
                dropped: 5,
                capacity: 3
            }
        );
        let jsonl = c.to_jsonl_with_meta();
        assert!(jsonl.starts_with("{\"stream\":{\"events\":3,\"dropped\":5,\"capacity\":3}}\n"));
        // The header is not a record, and each of concatenated exports
        // keeps its own.
        let twice = format!("{jsonl}{jsonl}");
        let (metas, records) = Collector::parse_jsonl_with_meta(&twice).unwrap();
        assert_eq!(metas, vec![meta, meta]);
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn every_kind_is_kept_as_recorded_and_exported_as_its_record() {
        let events = one_of_each_kind();
        let mut c = Collector::new();
        for (i, e) in events.iter().enumerate() {
            let actor = if i % 2 == 0 { "schedd" } else { "startd:m1" };
            c.record(i as u64, actor, e.clone());
        }
        // The ring lends back exactly what was recorded…
        let kept: Vec<&Event> = c.iter().map(|r| r.event).collect();
        assert_eq!(kept, events.iter().collect::<Vec<_>>());
        // …and the export is the header, then each record's own line, in
        // order.
        let mut lines = c.stream_meta().to_json();
        lines.push('\n');
        for r in c.iter() {
            lines.push_str(&r.to_record().to_json());
            lines.push('\n');
        }
        assert_eq!(c.to_jsonl_with_meta(), lines);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = Collector::disabled();
        c.record(0, "a", Event::Dispatch { job: 1, machine: 1 });
        assert!(c.is_empty());
        assert!(!c.is_enabled());
    }

    #[test]
    fn display_matches_trace_shape() {
        let r = EventRecord {
            at_us: 1_500_000,
            actor: "schedd".to_string(),
            event: Event::Dispatch { job: 1, machine: 2 },
        };
        assert_eq!(
            format!("{r}"),
            "[    1.500000s] schedd       dispatch job=1 machine=2"
        );
    }
}
