//! The scoped error value and its provenance chain.
//!
//! A [`ScopedError`] carries an error *code* (the detail), a [`Scope`] (the
//! portion of the system it invalidates), the [`Comm`] by which it is
//! currently travelling, and a provenance trail of [`Hop`]s recording every
//! layer it crossed and what that layer did to it. The provenance trail is
//! what lets [`crate::audit`] verify the paper's four principles after the
//! fact.
//!
//! Every error is also given a telemetry **span id** at birth
//! ([`obs::next_span_id`]): components that move the error between
//! processes record each hop as a timestamped `obs::Event::SpanHop`, so the
//! journey the trail describes structurally can be replayed from the
//! recorded event stream ([`ScopedError::trail_events`]).

use crate::comm::Comm;
use crate::scope::Scope;
use obs::span::{next_span_id, SpanId};
use std::borrow::Cow;
use std::fmt;

/// A short machine-readable identifier for an error condition, e.g.
/// `"FileNotFound"`, `"DiskFull"`, `"ConnectionTimedOut"`.
///
/// Codes are deliberately *not* an enum: the whole point of the paper is
/// that a grid is composed of autonomous components that invent error
/// conditions the others have never heard of. The structure comes from
/// scopes and vocabularies, not from a closed code set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ErrorCode(pub Cow<'static, str>);

impl ErrorCode {
    /// A code from a static string, without allocation.
    pub const fn new(s: &'static str) -> Self {
        ErrorCode(Cow::Borrowed(s))
    }

    /// A code from a runtime string.
    pub fn owned(s: impl Into<String>) -> Self {
        ErrorCode(Cow::Owned(s.into()))
    }

    /// The textual form of the code.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&'static str> for ErrorCode {
    fn from(s: &'static str) -> Self {
        ErrorCode::new(s)
    }
}

impl From<String> for ErrorCode {
    fn from(s: String) -> Self {
        ErrorCode::owned(s)
    }
}

/// Well-known error codes used throughout the workspace. Any component may
/// define more; these are the ones the paper names.
pub mod codes {
    use super::ErrorCode;

    /// The named file cannot be found (file scope).
    pub const FILE_NOT_FOUND: ErrorCode = ErrorCode::new("FileNotFound");
    /// Permission denied while navigating a namespace.
    pub const ACCESS_DENIED: ErrorCode = ErrorCode::new("AccessDenied");
    /// The paper's §3.4 example of an error a finite `write` vocabulary
    /// *should* declare.
    pub const DISK_FULL: ErrorCode = ErrorCode::new("DiskFull");
    /// End of file on read.
    pub const END_OF_FILE: ErrorCode = ErrorCode::new("EndOfFile");
    /// §4: "connection timed out" — must escape, not masquerade as an
    /// I/O result.
    pub const CONNECTION_TIMED_OUT: ErrorCode = ErrorCode::new("ConnectionTimedOut");
    /// §4: "credentials expired" — likewise.
    pub const CREDENTIALS_EXPIRED: ErrorCode = ErrorCode::new("CredentialsExpired");
    /// A connection was refused — the paper's example of indeterminate
    /// scope (§5).
    pub const CONNECTION_REFUSED: ErrorCode = ErrorCode::new("ConnectionRefused");
    /// The JVM ran out of memory for the program (virtual-machine scope).
    pub const OUT_OF_MEMORY: ErrorCode = ErrorCode::new("OutOfMemoryError");
    /// The JVM itself failed (virtual-machine scope).
    pub const VIRTUAL_MACHINE_ERROR: ErrorCode = ErrorCode::new("VirtualMachineError");
    /// The Java installation is misconfigured (remote-resource scope).
    pub const MISCONFIGURED_INSTALLATION: ErrorCode = ErrorCode::new("MisconfiguredInstallation");
    /// The submitter's file system is offline (local-resource scope).
    pub const FILESYSTEM_OFFLINE: ErrorCode = ErrorCode::new("FilesystemOffline");
    /// The program image is corrupt (job scope).
    pub const CORRUPT_IMAGE: ErrorCode = ErrorCode::new("CorruptImage");
    /// An input file named by the job does not exist (job scope).
    pub const MISSING_INPUT: ErrorCode = ErrorCode::new("MissingInput");
    /// A program-scope exception: null dereference.
    pub const NULL_POINTER: ErrorCode = ErrorCode::new("NullPointerException");
    /// A program-scope exception: array index out of bounds.
    pub const INDEX_OUT_OF_BOUNDS: ErrorCode = ErrorCode::new("ArrayIndexOutOfBoundsException");
    /// A program-scope exception: integer division by zero.
    pub const DIVIDE_BY_ZERO: ErrorCode = ErrorCode::new("ArithmeticException");
    /// The avian-carrier joke from §3.2: any interface may be susceptible to
    /// a `PigeonLost` if given an RFC-1149 implementation.
    pub const PIGEON_LOST: ErrorCode = ErrorCode::new("PigeonLost");
}

/// What a layer did to an error as it passed through. Recorded in the
/// provenance trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopAction {
    /// The error came into existence at this layer.
    Raised,
    /// The layer forwarded the error unchanged to the next layer up.
    Forwarded,
    /// The layer reinterpreted the error, widening its scope — e.g. a lost
    /// connection (network scope) becomes process scope in the context of
    /// RPC (§3.3).
    Widened {
        /// Scope before reinterpretation.
        from: Scope,
        /// Scope after reinterpretation.
        to: Scope,
    },
    /// The layer could not represent the error in its interface and
    /// converted it to an escaping error (Principle 2).
    Escaped,
    /// The escaping error arrived at a layer that *can* represent it, and
    /// was converted back to an explicit error at this higher level of
    /// abstraction (the second half of Principle 2).
    Reexpressed,
    /// The error reached the program that manages its scope and was
    /// consumed there (Principle 3 satisfied).
    Handled,
    /// The layer swallowed the error and fabricated a valid-looking result —
    /// a deliberate implicit error, the cardinal sin of Principle 1.
    SwallowedIntoImplicit,
}

/// One step of an error's journey: which layer, and what it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The name of the software layer (e.g. `"io-library"`, `"starter"`,
    /// `"shadow"`, `"schedd"`).
    pub layer: Cow<'static, str>,
    /// What the layer did.
    pub action: HopAction,
}

/// An error with a scope, a communication mode, and a provenance trail.
///
/// Equality deliberately ignores [`span`](ScopedError::span): two errors
/// describing the same condition compare equal even though each instance
/// has its own telemetry identity.
#[derive(Debug, Clone)]
pub struct ScopedError {
    /// Machine-readable condition.
    pub code: ErrorCode,
    /// The portion of the system this error invalidates.
    pub scope: Scope,
    /// How the error is currently being communicated.
    pub comm: Comm,
    /// Human-readable detail.
    pub message: String,
    /// Every layer the error has crossed, oldest first.
    pub trail: Vec<Hop>,
    /// Telemetry span id, assigned at birth.
    pub span: SpanId,
}

impl PartialEq for ScopedError {
    fn eq(&self, other: &Self) -> bool {
        self.code == other.code
            && self.scope == other.scope
            && self.comm == other.comm
            && self.message == other.message
            && self.trail == other.trail
    }
}

impl Eq for ScopedError {}

impl ScopedError {
    /// Raise a new explicit error at `layer`.
    pub fn explicit(
        code: impl Into<ErrorCode>,
        scope: Scope,
        layer: impl Into<Cow<'static, str>>,
        message: impl Into<String>,
    ) -> Self {
        ScopedError {
            code: code.into(),
            scope,
            comm: Comm::Explicit,
            message: message.into(),
            trail: vec![Hop {
                layer: layer.into(),
                action: HopAction::Raised,
            }],
            span: next_span_id(),
        }
    }

    /// Raise a new escaping error at `layer` — used when the failure cannot
    /// be represented in the layer's interface at all.
    pub fn escaping(
        code: impl Into<ErrorCode>,
        scope: Scope,
        layer: impl Into<Cow<'static, str>>,
        message: impl Into<String>,
    ) -> Self {
        ScopedError {
            code: code.into(),
            scope,
            comm: Comm::Escaping,
            message: message.into(),
            trail: vec![Hop {
                layer: layer.into(),
                action: HopAction::Raised,
            }],
            span: next_span_id(),
        }
    }

    /// Record that `layer` forwarded the error unchanged.
    pub fn forwarded(mut self, layer: impl Into<Cow<'static, str>>) -> Self {
        self.trail.push(Hop {
            layer: layer.into(),
            action: HopAction::Forwarded,
        });
        self
    }

    /// Reinterpret the error at a wider scope (§3.3). Panics in debug builds
    /// if `to` does not contain the current scope — scopes only ever expand
    /// as errors travel upward.
    pub fn widen(mut self, to: Scope, layer: impl Into<Cow<'static, str>>) -> Self {
        debug_assert!(
            to.contains(self.scope),
            "widen must not shrink scope: {} -> {}",
            self.scope,
            to
        );
        let from = self.scope;
        self.scope = to;
        self.trail.push(Hop {
            layer: layer.into(),
            action: HopAction::Widened { from, to },
        });
        self
    }

    /// Convert to an escaping error at `layer` (Principle 2, first half).
    pub fn escape(mut self, layer: impl Into<Cow<'static, str>>) -> Self {
        self.comm = Comm::Escaping;
        self.trail.push(Hop {
            layer: layer.into(),
            action: HopAction::Escaped,
        });
        self
    }

    /// Convert an escaping error back to an explicit error at a higher
    /// level of abstraction (Principle 2, second half).
    pub fn reexpress(mut self, layer: impl Into<Cow<'static, str>>) -> Self {
        self.comm = Comm::Explicit;
        self.trail.push(Hop {
            layer: layer.into(),
            action: HopAction::Reexpressed,
        });
        self
    }

    /// Record that the error reached its scope manager and was consumed.
    pub fn handle(mut self, layer: impl Into<Cow<'static, str>>) -> Self {
        self.trail.push(Hop {
            layer: layer.into(),
            action: HopAction::Handled,
        });
        self
    }

    /// Record the Principle-1 violation: the layer swallowed the error and
    /// presented a fabricated value as valid. The error object survives only
    /// for auditing; the caller of the offending layer never sees it.
    pub fn swallow(mut self, layer: impl Into<Cow<'static, str>>) -> Self {
        self.comm = Comm::Implicit;
        self.trail.push(Hop {
            layer: layer.into(),
            action: HopAction::SwallowedIntoImplicit,
        });
        self
    }

    /// The layer where the error was born, if the trail is intact.
    pub fn origin(&self) -> Option<&str> {
        self.trail.first().map(|h| h.layer.as_ref())
    }

    /// True once a `Handled` hop has been recorded.
    pub fn is_handled(&self) -> bool {
        self.trail
            .iter()
            .any(|h| matches!(h.action, HopAction::Handled))
    }

    /// Number of layers crossed (hops beyond the raising layer).
    pub fn hops(&self) -> usize {
        self.trail.len().saturating_sub(1)
    }

    /// Project the whole provenance trail onto telemetry span events.
    pub fn trail_events(&self) -> Vec<obs::Event> {
        self.trail_events_from(0)
    }

    /// Project `trail[start..]` onto telemetry span events — used by an
    /// actor that received the error with `start` hops already recorded and
    /// must emit only the hops it added itself.
    ///
    /// The scope recorded with each hop is the error's scope *after* that
    /// hop, reconstructed from the `Widened` transitions in the trail.
    pub fn trail_events_from(&self, start: usize) -> Vec<obs::Event> {
        // Scope after hop i: start from the scope before the first widening
        // (or the final scope if none) and replay transitions forward.
        let mut scope = self
            .trail
            .iter()
            .find_map(|h| match h.action {
                HopAction::Widened { from, .. } => Some(from),
                _ => None,
            })
            .unwrap_or(self.scope);
        let mut events = Vec::new();
        for (i, hop) in self.trail.iter().enumerate() {
            if let HopAction::Widened { to, .. } = hop.action {
                scope = to;
            }
            if i < start {
                continue;
            }
            events.push(obs::Event::SpanHop {
                span: self.span,
                layer: hop.layer.to_string(),
                action: span_action(&hop.action),
                scope: scope.name().to_string(),
            });
        }
        events
    }
}

/// The telemetry rendering of a provenance-trail action.
pub fn span_action(action: &HopAction) -> obs::SpanAction {
    match action {
        HopAction::Raised => obs::SpanAction::Raised,
        HopAction::Forwarded => obs::SpanAction::Forwarded,
        HopAction::Widened { from, .. } => obs::SpanAction::Widened {
            from: from.name().to_string(),
        },
        HopAction::Escaped => obs::SpanAction::Escaped,
        HopAction::Reexpressed => obs::SpanAction::Reexpressed,
        HopAction::Handled => obs::SpanAction::Handled,
        HopAction::SwallowedIntoImplicit => obs::SpanAction::Swallowed,
    }
}

impl fmt::Display for ScopedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} scope, {}]: {}",
            self.code, self.scope, self.comm, self.message
        )
    }
}

impl std::error::Error for ScopedError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScopedError {
        ScopedError::explicit(
            codes::FILE_NOT_FOUND,
            Scope::File,
            "io-library",
            "no such file: data.in",
        )
    }

    #[test]
    fn raise_records_origin() {
        let e = sample();
        assert_eq!(e.origin(), Some("io-library"));
        assert_eq!(e.comm, Comm::Explicit);
        assert_eq!(e.hops(), 0);
    }

    #[test]
    fn widen_expands_scope_and_logs() {
        let e = sample().widen(Scope::Function, "caller");
        assert_eq!(e.scope, Scope::Function);
        assert!(matches!(
            e.trail.last().unwrap().action,
            HopAction::Widened {
                from: Scope::File,
                to: Scope::Function
            }
        ));
    }

    // The guard is a `debug_assert!`: there is nothing to observe in the
    // release profile the experiments are built with.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn widen_refuses_to_shrink() {
        // Process -> File would shrink; forbidden.
        let e = ScopedError::explicit("RpcFailure", Scope::Process, "rpc", "lost");
        let _ = e.widen(Scope::File, "caller");
    }

    #[test]
    fn escape_then_reexpress_round_trip() {
        let e = sample().escape("io-library").reexpress("wrapper");
        assert_eq!(e.comm, Comm::Explicit);
        let kinds: Vec<_> = e.trail.iter().map(|h| &h.action).collect();
        assert!(matches!(kinds[1], HopAction::Escaped));
        assert!(matches!(kinds[2], HopAction::Reexpressed));
    }

    #[test]
    fn swallow_marks_implicit() {
        let e = sample().swallow("lazy-layer");
        assert_eq!(e.comm, Comm::Implicit);
        assert!(!e.comm.is_detectable());
    }

    #[test]
    fn handled_flag() {
        let e = sample();
        assert!(!e.is_handled());
        let e = e.forwarded("starter").handle("shadow");
        assert!(e.is_handled());
        assert_eq!(e.hops(), 2);
    }

    #[test]
    fn display_mentions_scope_and_comm() {
        let s = sample().to_string();
        assert!(s.contains("FileNotFound"));
        assert!(s.contains("file scope"));
        assert!(s.contains("explicit"));
    }

    #[test]
    fn error_code_from_string_and_static() {
        let a: ErrorCode = "DiskFull".into();
        let b: ErrorCode = String::from("DiskFull").into();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "DiskFull");
    }

    #[test]
    fn spans_are_assigned_at_birth_and_ignored_by_eq() {
        let a = sample();
        let b = sample();
        assert_ne!(a.span, obs::NO_SPAN);
        assert_ne!(a.span, b.span, "each instance gets its own span");
        assert_eq!(a, b, "equality ignores the span id");
    }

    #[test]
    fn trail_events_cover_every_hop_with_running_scope() {
        let e = sample()
            .widen(Scope::Function, "caller")
            .escape("caller")
            .reexpress("wrapper");
        let events = e.trail_events();
        assert_eq!(events.len(), e.trail.len());
        let scopes: Vec<&str> = events
            .iter()
            .map(|ev| match ev {
                obs::Event::SpanHop { scope, .. } => scope.as_str(),
                _ => panic!("trail events are span hops"),
            })
            .collect();
        // Raised at file scope, widened to function, then unchanged.
        assert_eq!(scopes, vec!["file", "function", "function", "function"]);
        assert!(events.iter().all(|ev| ev.span() == Some(e.span)));
        let actions: Vec<&obs::SpanAction> = events
            .iter()
            .map(|ev| match ev {
                obs::Event::SpanHop { action, .. } => action,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(actions[0], &obs::SpanAction::Raised);
        assert_eq!(
            actions[1],
            &obs::SpanAction::Widened {
                from: "file".into()
            }
        );
        assert_eq!(actions[3], &obs::SpanAction::Reexpressed);
    }

    #[test]
    fn trail_events_from_skips_already_emitted_hops() {
        let e = sample().forwarded("starter");
        let baseline = e.trail.len();
        let e = e.forwarded("shadow").handle("schedd");
        let new = e.trail_events_from(baseline);
        assert_eq!(new.len(), 2);
        assert!(matches!(
            &new[1],
            obs::Event::SpanHop {
                action: obs::SpanAction::Handled,
                ..
            }
        ));
    }
}
