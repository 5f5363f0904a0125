//! Unified telemetry for the simulated grid.
//!
//! The paper's argument is about *where errors travel*; this crate records
//! that journey as data instead of prose. It provides:
//!
//! * [`RingBuffer`] — the bounded storage shared by the event collector and
//!   `chirp`'s client event log, so long simulations cannot grow memory
//!   without bound.
//! * [`Event`] / [`EventRecord`] / [`Collector`] — typed protocol events
//!   (claim, dispatch, escape, reschedule, disposition, I/O op, violation)
//!   plus **error-journey spans**: every `ScopedError` hop becomes a
//!   timestamped [`Event::SpanHop`] keyed by the span id the error received
//!   at birth.
//! * [`Registry`] / [`Histogram`] — named counters, gauges, and log-scale
//!   histograms with per-scope and per-machine labels, kept in key order.
//! * Exporters — a JSONL event stream whose first line is its
//!   [`StreamMeta`] header ([`Collector::to_jsonl_with_meta`]), so a reader
//!   can tell a complete stream from a truncated one, and a JSON metrics
//!   snapshot ([`Registry::snapshot_json`]) — with a hand-rolled parser
//!   ([`json`]) so exports can be round-tripped and validated without any
//!   external dependency.
//!
//! The collector interns actor names (a private table with an
//! address-keyed cache), so an actor's name allocates only the first time
//! it records; an event's own strings are owned by the event, which the
//! collector keeps as it was handed.
//!
//! `obs` sits *below* every other crate in the workspace (including
//! `desim`), so it is deliberately dependency-free. Timestamps are plain
//! `u64` microseconds; the simulator's `SimTime` converts trivially.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod event;
mod intern;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod span;

pub use collector::{Collector, EventRecord, EventRef, StreamMeta};
pub use event::{ClaimOutcome, Event, IoOutcome};
pub use metrics::{Histogram, Registry};
pub use ring::RingBuffer;
pub use span::{next_span_id, peek_span_id, reset_span_ids, SpanAction, SpanId, NO_SPAN};
