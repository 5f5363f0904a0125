//! Stream ingestion: parse an exported `.events.jsonl`, check it is
//! complete, and refuse to analyze a record that cannot show it is.
//!
//! Completeness is read from the export's `StreamMeta` header. A stream
//! without one cannot say whether the collector's ring dropped events, and
//! an analysis that silently starts mid-run would blame the wrong actor, so
//! a missing header is an explicit error, not a warning.

use obs::{Collector, EventRecord, StreamMeta};
use std::collections::BTreeSet;

/// A parsed, completeness-checked event stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Stream headers found in the export (one per concatenated export;
    /// never empty).
    pub meta: Vec<StreamMeta>,
    /// The records, in recorded order.
    pub records: Vec<EventRecord>,
}

impl Stream {
    /// Parse a JSONL export. Returns an error for malformed lines, for a
    /// stream with no header — its completeness cannot be checked — and
    /// for a *truncated* stream, one with any header reporting
    /// `dropped > 0`.
    pub fn parse(input: &str) -> Result<Stream, String> {
        let (meta, records) = Collector::parse_jsonl_with_meta(input)?;
        if meta.is_empty() {
            return Err(
                "refusing headerless stream: it has no {\"stream\":…} header, so \
                 whether the collector ring dropped events cannot be checked (export it \
                 with to_jsonl_with_meta)"
                    .to_string(),
            );
        }
        let dropped: u64 = meta.iter().map(|m| m.dropped).sum();
        if dropped > 0 {
            return Err(format!(
                "refusing truncated stream: {dropped} events were dropped by the \
                 collector ring; the exported stream is a suffix of the run, not \
                 the run (re-run with a larger capacity)"
            ));
        }
        Ok(Stream { meta, records })
    }

    /// Build a stream straight from a live collector (the in-process
    /// path experiments use). Refuses truncated collectors for the same
    /// reason [`Stream::parse`] refuses truncated exports.
    pub fn from_collector(c: &Collector) -> Result<Stream, String> {
        if c.evicted() > 0 {
            return Err(format!(
                "refusing truncated stream: the collector evicted {} events \
                 (capacity {}); raise the capacity before analyzing",
                c.evicted(),
                c.capacity()
            ));
        }
        Ok(Stream {
            meta: vec![c.stream_meta()],
            records: c.iter().map(|r| r.to_record()).collect(),
        })
    }

    /// Every actor name that recorded at least one event.
    pub fn actors(&self) -> BTreeSet<&str> {
        self.records.iter().map(|r| r.actor.as_str()).collect()
    }

    /// Total events dropped according to the stream headers (always zero
    /// for streams this crate accepted; useful when reporting).
    pub fn dropped(&self) -> u64 {
        self.meta.iter().map(|m| m.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Event;

    fn collector_with(n: u64, capacity: usize) -> Collector {
        let mut c = Collector::with_capacity(capacity);
        for i in 0..n {
            c.record(i, "schedd", Event::Dispatch { job: i, machine: 2 });
        }
        c
    }

    #[test]
    fn complete_streams_parse() {
        let c = collector_with(5, 64);
        let s = Stream::parse(&c.to_jsonl_with_meta()).unwrap();
        assert_eq!(s.records.len(), 5);
        assert_eq!(s.meta.len(), 1);
        assert_eq!(s.dropped(), 0);
        assert!(s.actors().contains("schedd"));
    }

    #[test]
    fn truncated_streams_are_refused() {
        let c = collector_with(10, 4);
        assert!(c.evicted() > 0);
        let err = Stream::parse(&c.to_jsonl_with_meta()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        let err = Stream::from_collector(&c).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn headerless_streams_are_refused() {
        let c = collector_with(3, 64);
        let export = c.to_jsonl_with_meta();
        let (header, records) = export.split_once('\n').unwrap();
        assert!(header.starts_with("{\"stream\":"));
        // The records alone parse, but cannot show they are the whole run.
        assert_eq!(
            Collector::parse_jsonl_with_meta(records).unwrap().1.len(),
            3
        );
        let err = Stream::parse(records).unwrap_err();
        assert!(err.starts_with("refusing headerless stream"), "{err}");
        // So is an empty input: no header, nothing to vouch for.
        let err = Stream::parse("").unwrap_err();
        assert!(err.starts_with("refusing headerless stream"), "{err}");
    }
}
