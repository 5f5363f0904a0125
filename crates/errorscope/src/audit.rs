//! Auditing error journeys against the paper's four principles.
//!
//! An error's [`trail`](crate::error::ScopedError::trail) records every
//! layer it crossed and what each did. [`audit_error`] replays the trail and
//! reports [`Violation`]s:
//!
//! * **P1** — "A program must not generate an implicit error as a result of
//!   receiving an explicit error": any `SwallowedIntoImplicit` hop.
//! * **P2** — "An escaping error must be used to convert a potential
//!   implicit error into an explicit error at a higher level": an error that
//!   was out-of-vocabulary for an interface it crossed yet was delivered
//!   explicitly (checked by [`audit_crossing`]).
//! * **P3** — "An error must be propagated to the program that manages its
//!   scope": a delivery whose final handler is not the manager of the
//!   error's scope (checked by [`audit_delivery`] against a
//!   [`LayerStack`]).
//! * **P4** — "Error interfaces must be concise and finite": a declared
//!   interface with a generic vocabulary (checked by [`audit_interface`]).
//!
//! The auditor is used by the tests, the figure harnesses, and the naive-vs-
//! scoped experiment (E1) to *count* principle violations in the baseline
//! system.

use crate::comm::Comm;
use crate::error::{HopAction, ScopedError};
use crate::interface::{Conformance, InterfaceDecl};
use crate::propagate::{Delivery, LayerStack};
use std::fmt;

/// Which principle was violated, with diagnostic detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// P1: a layer swallowed a detectable error and fabricated a value.
    P1ImplicitFromExplicit {
        /// The offending layer.
        layer: String,
    },
    /// P2: an error that the interface cannot express was delivered as an
    /// explicit result instead of escaping.
    P2MissingEscape {
        /// The interface crossed.
        interface: String,
        /// The operation whose vocabulary was violated.
        op: String,
        /// The error code that should have escaped.
        code: String,
    },
    /// P3: the error was consumed by a program that does not manage its
    /// scope (or was never consumed at all).
    P3WrongManager {
        /// Scope of the error at delivery.
        scope: String,
        /// Who consumed it (`None`: fell off the top).
        handled_by: Option<String>,
        /// Who should have.
        expected: Option<String>,
    },
    /// P4: an interface declares a generic (unbounded) error vocabulary.
    P4GenericInterface {
        /// The interface name.
        interface: String,
        /// The offending operation.
        op: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::P1ImplicitFromExplicit { layer } => {
                write!(f, "P1: layer '{layer}' converted an explicit error into an implicit one")
            }
            Violation::P2MissingEscape { interface, op, code } => write!(
                f,
                "P2: '{code}' crossed {interface}::{op} explicitly but is outside its vocabulary and should have escaped"
            ),
            Violation::P3WrongManager { scope, handled_by, expected } => write!(
                f,
                "P3: error of {scope} scope handled by {:?}, expected {:?}",
                handled_by, expected
            ),
            Violation::P4GenericInterface { interface, op } => {
                write!(f, "P4: {interface}::{op} declares a generic error vocabulary")
            }
        }
    }
}

impl Violation {
    /// The principle number (1-4).
    pub fn principle(&self) -> u8 {
        match self {
            Violation::P1ImplicitFromExplicit { .. } => 1,
            Violation::P2MissingEscape { .. } => 2,
            Violation::P3WrongManager { .. } => 3,
            Violation::P4GenericInterface { .. } => 4,
        }
    }
}

/// Audit a single error's trail for P1 violations (the only principle
/// checkable from the trail alone).
pub fn audit_error(err: &ScopedError) -> Vec<Violation> {
    let mut v = Vec::new();
    for hop in &err.trail {
        if matches!(hop.action, HopAction::SwallowedIntoImplicit) {
            v.push(Violation::P1ImplicitFromExplicit {
                layer: hop.layer.to_string(),
            });
        }
    }
    v
}

/// Audit one interface crossing: `err` was delivered across
/// `interface`::`op` with its current [`Comm`]. Reports a P2 violation when
/// an out-of-vocabulary error crossed explicitly.
pub fn audit_crossing(interface: &InterfaceDecl, op: &str, err: &ScopedError) -> Vec<Violation> {
    let mut v = Vec::new();
    if err.comm == Comm::Explicit && interface.conformance(op, &err.code) == Conformance::MustEscape
    {
        v.push(Violation::P2MissingEscape {
            interface: interface.name.clone(),
            op: op.to_string(),
            code: err.code.as_str().to_string(),
        });
    }
    v
}

/// Audit a completed delivery against the stack that produced it (P3).
pub fn audit_delivery(stack: &LayerStack, delivery: &Delivery) -> Vec<Violation> {
    let mut v = Vec::new();
    let expected = stack.manager_of(delivery.error.scope);
    if delivery.handled_by != expected {
        v.push(Violation::P3WrongManager {
            scope: delivery.error.scope.name().to_string(),
            handled_by: delivery.handled_by.map(str::to_string),
            expected: expected.map(str::to_string),
        });
    }
    v.extend(audit_error(&delivery.error));
    v
}

/// Audit one error journey recorded as telemetry span hops (P1 and P3).
///
/// `hops` is the ordered sequence of [`obs::Event::SpanHop`]s for a single
/// span, as emitted by the actors the error crossed (non-hop events are
/// ignored). P1 is reported for every `Swallowed` hop; P3 is checked when
/// the journey terminates in a `Handled` hop, by comparing the handling
/// layer against `stack.manager_of` for the scope recorded on that hop.
/// Journeys still in flight (no terminal hop) yield no P3 verdict.
pub fn audit_span_hops<'a, S: 'a, I>(stack: &LayerStack, hops: I) -> Vec<Violation>
where
    I: IntoIterator<Item = &'a obs::Event<S>>,
{
    use crate::scope::Scope;
    use obs::SpanAction;

    let mut v = Vec::new();
    let mut terminal: Option<(&str, &str)> = None; // (layer, scope) of last Handled
    for ev in hops {
        let obs::Event::SpanHop {
            layer,
            action,
            scope,
            ..
        } = ev
        else {
            continue;
        };
        match action {
            SpanAction::Swallowed => {
                v.push(Violation::P1ImplicitFromExplicit {
                    layer: layer.clone(),
                });
                terminal = None;
            }
            SpanAction::Handled => terminal = Some((layer.as_str(), scope.as_str())),
            _ => terminal = None,
        }
    }
    if let Some((layer, scope_name)) = terminal {
        let expected = Scope::from_name(scope_name).and_then(|s| stack.manager_of(s));
        if expected != Some(layer) {
            v.push(Violation::P3WrongManager {
                scope: scope_name.to_string(),
                handled_by: Some(layer.to_string()),
                expected: expected.map(str::to_string),
            });
        }
    }
    v
}

/// Audit every completed journey in a recorded telemetry stream.
///
/// Groups the collector's span-hop events by span id and applies
/// [`audit_span_hops`] to each journey, tallying the result. This is the
/// span-native counterpart of auditing [`Delivery`] trails: in a correctly
/// instrumented system the two agree on P1 and P3 counts.
pub fn audit_recorded_spans(stack: &LayerStack, collector: &obs::Collector) -> ViolationCounts {
    let mut counts = ViolationCounts::default();
    for (_, records) in collector.spans() {
        let events: Vec<&obs::Event<obs::Sym>> = records.iter().map(|r| r.event).collect();
        counts.add_all(&audit_span_hops(stack, events));
    }
    counts
}

/// Audit an interface declaration for P4 (generic vocabularies).
pub fn audit_interface(interface: &InterfaceDecl) -> Vec<Violation> {
    interface
        .operations()
        .filter(|(_, vocab)| !vocab.is_finite())
        .map(|(op, _)| Violation::P4GenericInterface {
            interface: interface.name.clone(),
            op: op.to_string(),
        })
        .collect()
}

/// A running tally of violations, used by the experiments to compare the
/// naive and scope-aware systems.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViolationCounts {
    /// P1 count.
    pub p1: usize,
    /// P2 count.
    pub p2: usize,
    /// P3 count.
    pub p3: usize,
    /// P4 count.
    pub p4: usize,
}

impl ViolationCounts {
    /// Tally a batch of violations.
    pub fn add_all(&mut self, violations: &[Violation]) {
        for v in violations {
            match v.principle() {
                1 => self.p1 += 1,
                2 => self.p2 += 1,
                3 => self.p3 += 1,
                _ => self.p4 += 1,
            }
        }
    }

    /// Total across all principles.
    pub fn total(&self) -> usize {
        self.p1 + self.p2 + self.p3 + self.p4
    }

    /// True when no violations were recorded.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

impl fmt::Display for ViolationCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P1={} P2={} P3={} P4={} (total {})",
            self.p1,
            self.p2,
            self.p3,
            self.p4,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::codes::*;
    use crate::interface::{file_writer_generic, file_writer_revised};
    use crate::propagate::java_universe_stack;
    use crate::scope::Scope;

    #[test]
    fn clean_trail_has_no_p1() {
        let e = ScopedError::explicit(DISK_FULL, Scope::File, "proxy", "full")
            .forwarded("io-library")
            .handle("program");
        assert!(audit_error(&e).is_empty());
    }

    #[test]
    fn swallow_is_a_p1_violation() {
        let e =
            ScopedError::explicit(DISK_FULL, Scope::File, "proxy", "full").swallow("io-library");
        let v = audit_error(&e);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].principle(), 1);
        assert!(v[0].to_string().contains("io-library"));
    }

    #[test]
    fn out_of_vocabulary_explicit_crossing_is_p2() {
        let i = file_writer_revised();
        let e = ScopedError::explicit(CONNECTION_TIMED_OUT, Scope::Network, "proxy", "t/o");
        let v = audit_crossing(&i, "write", &e);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].principle(), 2);
    }

    #[test]
    fn escaping_crossing_is_not_p2() {
        let i = file_writer_revised();
        let e = ScopedError::escaping(CONNECTION_TIMED_OUT, Scope::Network, "proxy", "t/o");
        assert!(audit_crossing(&i, "write", &e).is_empty());
    }

    #[test]
    fn in_vocabulary_explicit_crossing_is_clean() {
        let i = file_writer_revised();
        let e = ScopedError::explicit(DISK_FULL, Scope::File, "proxy", "full");
        assert!(audit_crossing(&i, "write", &e).is_empty());
    }

    #[test]
    fn correct_delivery_passes_p3() {
        let stack = java_universe_stack();
        let e = ScopedError::escaping(FILESYSTEM_OFFLINE, Scope::LocalResource, "wrapper", "nfs");
        let d = stack.propagate(e, "wrapper");
        assert!(audit_delivery(&stack, &d).is_empty());
    }

    #[test]
    fn delivery_to_wrong_manager_is_p3() {
        use crate::propagate::{Delivery, Disposition};
        let stack = java_universe_stack();
        // Fabricate a delivery in which the starter consumed a local-
        // resource error (the shadow's responsibility).
        let e = ScopedError::escaping(FILESYSTEM_OFFLINE, Scope::LocalResource, "wrapper", "nfs");
        let d = Delivery {
            error: e,
            handled_by: Some("starter"),
            disposition: Disposition::LogAndReschedule,
        };
        let v = audit_delivery(&stack, &d);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].principle(), 3);
    }

    #[test]
    fn generic_interface_is_p4() {
        let v = audit_interface(&file_writer_generic());
        assert_eq!(v.len(), 2); // open and write both generic
        assert!(v.iter().all(|x| x.principle() == 4));
        assert!(audit_interface(&file_writer_revised()).is_empty());
    }

    #[test]
    fn span_audit_agrees_with_trail_audit() {
        let stack = java_universe_stack();
        // A correct journey: local-resource error handled by the shadow.
        let e = ScopedError::escaping(FILESYSTEM_OFFLINE, Scope::LocalResource, "wrapper", "nfs");
        let d = stack.propagate(e, "wrapper");
        let trail_verdict = audit_delivery(&stack, &d);
        let events = d.error.trail_events();
        let span_verdict = audit_span_hops(&stack, events.iter());
        assert!(trail_verdict.is_empty());
        assert_eq!(span_verdict, trail_verdict);

        // A swallowed journey: both audits report the same P1.
        let e =
            ScopedError::explicit(DISK_FULL, Scope::File, "proxy", "full").swallow("io-library");
        let events = e.trail_events();
        let span_verdict = audit_span_hops(&stack, events.iter());
        assert_eq!(span_verdict, audit_error(&e));
    }

    #[test]
    fn span_audit_flags_wrong_manager() {
        let stack = java_universe_stack();
        // Fabricated journey: a local-resource error handled by the starter.
        let e = ScopedError::escaping(FILESYSTEM_OFFLINE, Scope::LocalResource, "wrapper", "nfs")
            .forwarded("starter")
            .handle("starter");
        let events = e.trail_events();
        let v = audit_span_hops(&stack, events.iter());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].principle(), 3);
        assert!(v[0].to_string().contains("starter"));
    }

    #[test]
    fn span_audit_skips_journeys_still_in_flight() {
        let stack = java_universe_stack();
        let e = ScopedError::escaping(FILESYSTEM_OFFLINE, Scope::LocalResource, "wrapper", "nfs")
            .forwarded("starter");
        let events = e.trail_events();
        assert!(audit_span_hops(&stack, events.iter()).is_empty());
    }

    #[test]
    fn recorded_spans_tally_across_collector() {
        let stack = java_universe_stack();
        let mut col = obs::Collector::new();
        // Journey 1: clean (shadow handles local-resource).
        let d = stack.propagate(
            ScopedError::escaping(FILESYSTEM_OFFLINE, Scope::LocalResource, "wrapper", "nfs"),
            "wrapper",
        );
        for ev in d.error.trail_events() {
            col.record(0, "shadow", ev);
        }
        // Journey 2: a swallow (P1).
        let e =
            ScopedError::explicit(DISK_FULL, Scope::File, "proxy", "full").swallow("io-library");
        for ev in e.trail_events() {
            col.record(1, "io-library", ev);
        }
        let counts = audit_recorded_spans(&stack, &col);
        assert_eq!(counts.p1, 1);
        assert_eq!(counts.p3, 0);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    fn counts_tally_and_display() {
        let mut c = ViolationCounts::default();
        assert!(c.is_clean());
        c.add_all(&audit_interface(&file_writer_generic()));
        let e = ScopedError::explicit(DISK_FULL, Scope::File, "p", "").swallow("l");
        c.add_all(&audit_error(&e));
        assert_eq!(c.p4, 2);
        assert_eq!(c.p1, 1);
        assert_eq!(c.total(), 3);
        assert!(!c.is_clean());
        assert!(c.to_string().contains("total 3"));
    }
}
