//! Error-journey spans.
//!
//! Every `ScopedError` is given a [`SpanId`] at birth; each hop the error
//! makes (wrapper → proxy → startd → schedd → user) is recorded as a
//! timestamped [`Event::SpanHop`](crate::Event::SpanHop) carrying that id.
//! Grouping the event stream by span id recovers the complete journey of a
//! single error instance, which is what span-aware auditing consumes.

use std::cell::Cell;
use std::fmt;

/// A span identifier.
pub type SpanId = u64;

/// The id of "no span": paths (the naive discipline) where scope
/// information is destroyed before a span could be born.
pub const NO_SPAN: SpanId = 0;

thread_local! {
    /// Span ids are allocated per thread from an uncontended counter.
    /// Within a thread the sequence is strictly increasing, which is all
    /// single-run grouping needs; the parallel sweep harness calls
    /// [`reset_span_ids`] before each seed's run so a seed's span ids
    /// depend only on the seed's own execution, never on which worker
    /// thread ran it or what ran there before.
    static NEXT_SPAN: Cell<SpanId> = const { Cell::new(1) };
}

/// Allocate a fresh thread-unique span id (never [`NO_SPAN`]).
pub fn next_span_id() -> SpanId {
    NEXT_SPAN.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// The next span id this thread would allocate, without allocating it.
///
/// Lets a harness *bracket* span allocation: save the counter, run work
/// that pins its own bases via [`reset_span_ids`], then restore — so a
/// worker thread that executes many unrelated tasks (seeds, shards)
/// never leaks one task's counter position into the next.
pub fn peek_span_id() -> SpanId {
    NEXT_SPAN.with(|c| c.get())
}

/// Reset this thread's span counter to `base` (clamped to 1 so
/// [`NO_SPAN`] is never handed out).
///
/// Call at the start of an isolated run — e.g. one seed of a multi-seed
/// sweep — to make its span ids a pure function of the run itself. Two
/// runs that reset to the same base and perform the same work record
/// bit-identical span ids, regardless of thread placement.
pub fn reset_span_ids(base: SpanId) {
    NEXT_SPAN.with(|c| c.set(base.max(1)));
}

/// What happened to an error at one hop of its journey. This mirrors the
/// provenance-trail actions of `errorscope::error::HopAction`, with scopes
/// flattened to their string names so the record is self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanAction {
    /// The error came into being at this layer.
    Raised,
    /// Delivered upward unchanged (explicitly, within the vocabulary).
    Forwarded,
    /// Reinterpreted into a wider scope in transit (§3.3).
    Widened {
        /// The scope before widening.
        from: String,
    },
    /// Converted to the escaping mode: outside this interface's vocabulary.
    Escaped,
    /// Re-expressed explicitly in a richer vocabulary (e.g. the wrapper's
    /// result file).
    Reexpressed,
    /// Consumed by the manager of its scope.
    Handled,
    /// Converted to an implicit error — a Principle 1 violation.
    Swallowed,
}

impl SpanAction {
    /// The action's wire name (the `action` field of a span-hop event).
    pub fn name(&self) -> &'static str {
        match self {
            SpanAction::Raised => "raised",
            SpanAction::Forwarded => "forwarded",
            SpanAction::Widened { .. } => "widened",
            SpanAction::Escaped => "escaped",
            SpanAction::Reexpressed => "reexpressed",
            SpanAction::Handled => "handled",
            SpanAction::Swallowed => "swallowed",
        }
    }
}

impl fmt::Display for SpanAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanAction::Widened { from } => write!(f, "widened(from {from})"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, NO_SPAN);
        assert_ne!(b, NO_SPAN);
        assert_ne!(a, b);
    }

    #[test]
    fn reset_pins_the_sequence() {
        reset_span_ids(100);
        assert_eq!(next_span_id(), 100);
        assert_eq!(next_span_id(), 101);
        // A zero base is clamped: NO_SPAN is never allocated.
        reset_span_ids(0);
        assert_eq!(next_span_id(), 1);
        // Leave the counter far from other tests' expectations.
        reset_span_ids(1_000_000);
    }

    #[test]
    fn action_names_are_stable() {
        assert_eq!(SpanAction::Raised.name(), "raised");
        let widened = SpanAction::Widened {
            from: "network".into(),
        };
        assert_eq!(widened.name(), "widened");
        assert_eq!(format!("{widened}"), "widened(from network)");
        assert_eq!(format!("{}", SpanAction::Handled), "handled");
    }
}
