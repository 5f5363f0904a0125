//! Outside-in spans: the harness wraps each call into a layer's public
//! API in a span (kind, start, end, parent), kept in memory and written
//! out when the run ends.
//!
//! Two views are kept. The **aggregate** (count, total, self time per
//! kind) is always complete. The **span list** behind the Chrome trace
//! file is capped at [`SPAN_CAP`] entries — `vm_short_jobs` alone opens
//! millions of spans — and the number dropped is reported, so a truncated
//! file never reads as a complete one.
//!
//! A span's self time is its duration minus the part its child spans
//! cover. Spans nest strictly (the harness is single-threaded; the
//! parallel engine is timed from the calling thread), so a stack is
//! enough to know the parent.

use std::cell::RefCell;
use std::time::Instant;

/// At most this many individual spans are kept for the trace file.
pub const SPAN_CAP: usize = 100_000;

macro_rules! kinds {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// Every place the harness opens a span: one per public entry
        /// point (or family of entry points) of a layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Kind {
            $(#[doc = $name] $variant),+
        }

        impl Kind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [Kind] = &[$(Kind::$variant),+];

            /// The span's name in trace files, `layer.call`. The layer
            /// metric carrying its self time is this name plus `_s`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Kind::$variant => $name),+
                }
            }
        }
    };
}

kinds! {
    CondorBuild => "condor.build",
    CondorReport => "condor.report",
    DesimRun => "desim.run",
    DesimTeardown => "desim.teardown",
    DesimParConvert => "desim.par.convert",
    DesimParFinish => "desim.par.finish",
    ObsExport => "obs.export",
    ObsRegistry => "obs.registry",
    AnalyzeIngest => "obs-analyze.ingest",
    AnalyzeLocalize => "obs-analyze.localize",
    CampaignGen => "campaign.gen",
    CampaignOracle => "campaign.oracle",
    CampaignSdc => "campaign.sdc",
    GridvmImage => "gridvm.image",
    GridvmVerify => "gridvm.verify",
    GridvmExec => "gridvm.exec",
    GridvmWrapper => "gridvm.wrapper",
    ChirpCall => "chirp.call",
    ChirpIo => "chirp.io",
    ChirpSession => "chirp.session",
    CkptEncode => "ckpt.encode",
    CkptDecode => "ckpt.decode",
    LedgerDigest => "ledger.digest",
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span in the span list, if it was kept.
    pub parent: Option<usize>,
    /// Which workload run (rep) the span belongs to.
    pub run: u32,
}

/// Totals for every span of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child spans).
    pub self_ns: u64,
    /// Sum of the durations of those that had no parent.
    pub top_level_ns: u64,
}

/// The aggregate of one phase: an [`Agg`] per [`Kind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate([Agg; Kind::ALL.len()]);

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate([Agg::default(); Kind::ALL.len()])
    }
}

impl Aggregate {
    /// The totals for `kind` (all zero if it never closed).
    pub fn get(&self, kind: Kind) -> Agg {
        self.0[kind as usize]
    }

    /// Seconds spent in top-level spans of any kind.
    pub fn top_level_s(&self) -> f64 {
        self.0.iter().map(|a| a.top_level_ns).sum::<u64>() as f64 / 1e9
    }
}

struct Open {
    kind: Kind,
    start_ns: u64,
    children_ns: u64,
    /// Slot reserved in the span list (so parents precede children).
    slot: Option<usize>,
}

#[derive(Default)]
struct Inner {
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    agg: Aggregate,
    run: u32,
}

/// The span recorder. Disabled tracers cost one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or is inert.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `kind`. The clock is read after the
    /// opening bookkeeping and before the closing bookkeeping, so the
    /// recorder's own cost lands outside the span it is recording.
    pub fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.enter_with(kind, || self.now_ns());
        let out = f();
        self.exit_at(self.now_ns());
        out
    }

    /// Open a span; `clock` is read last, after the bookkeeping.
    fn enter_with(&self, kind: Kind, clock: impl FnOnce() -> u64) {
        let mut g = self.inner.borrow_mut();
        let parent = g.stack.last().and_then(|o| o.slot);
        let slot = (g.spans.len() < SPAN_CAP).then_some(g.spans.len());
        if slot.is_none() {
            g.dropped += 1;
        }
        let start_ns = clock();
        if slot.is_some() {
            let run = g.run;
            g.spans.push(Span {
                kind,
                start_ns,
                dur_ns: 0,
                parent,
                run,
            });
        }
        g.stack.push(Open {
            kind,
            start_ns,
            children_ns: 0,
            slot,
        });
    }

    /// Open a span at an explicit clock reading (tests drive the clock).
    pub fn enter_at(&self, kind: Kind, now_ns: u64) {
        self.enter_with(kind, || now_ns);
    }

    /// Close the innermost open span at an explicit clock reading.
    pub fn exit_at(&self, now_ns: u64) {
        let mut g = self.inner.borrow_mut();
        let open = g.stack.pop().expect("exit without a matching enter");
        let dur = now_ns.saturating_sub(open.start_ns);
        if let Some(slot) = open.slot {
            g.spans[slot].dur_ns = dur;
        }
        let top_level = match g.stack.last_mut() {
            Some(parent) => {
                parent.children_ns += dur;
                false
            }
            None => true,
        };
        let a = &mut g.agg.0[open.kind as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.children_ns);
        if top_level {
            a.top_level_ns += dur;
        }
    }

    /// Start a new workload run: later spans carry the new run id.
    pub fn next_run(&self) {
        self.inner.borrow_mut().run += 1;
    }

    /// Take the aggregate accumulated since the last call, leaving it
    /// empty (the span list keeps growing). Called once per phase.
    pub fn take_aggregate(&self) -> Aggregate {
        let mut g = self.inner.borrow_mut();
        assert!(g.stack.is_empty(), "aggregate taken inside an open span");
        std::mem::take(&mut g.agg)
    }

    /// Spans kept for the trace file, and how many were dropped at the cap.
    pub fn spans(&self) -> (Vec<Span>, u64) {
        let g = self.inner.borrow();
        (g.spans.clone(), g.dropped)
    }

    /// The kept spans as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps). `id`/`parent` in `args` carry the
    /// span tree; `run` is the workload-run id.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let g = self.inner.borrow();
        let (spans, dropped) = (&g.spans, g.dropped);
        let mut out = String::with_capacity(64 + spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":");
        obs::json::write_str(&mut out, workload);
        out.push_str(&format!(
            ",\"spans_kept\":{},\"spans_dropped\":{dropped}}},\"traceEvents\":[",
            spans.len()
        ));
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"run\":{}",
                s.kind.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.run
            ));
            if let Some(p) = s.parent {
                out.push_str(&format!(",\"parent\":{p}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}
