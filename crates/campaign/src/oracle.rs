//! The error-scope oracle: the paper's four principles as machine-checked
//! invariants over an exported event stream.
//!
//! The oracle re-derives every expectation from the theory crate itself
//! ([`errorscope::propagate::java_universe_stack`] names each scope's
//! manager, [`Disposition::for_scope`] names each scope's ruling), so it
//! shares no code path with the schedd's decision logic it is judging: a
//! kernel that routed an error to the wrong layer, ruled the wrong
//! disposition, narrowed a scope, or let a job evaporate is caught here
//! no matter which fault schedule provoked it. The naive-mode negative
//! control in `gen::negative_control_pool` proves the teeth are real.

use condor::prelude::{JobState, RunReport};
use errorscope::propagate::{java_universe_stack, Disposition};
use errorscope::Scope;
use obs::{Event, SpanAction};
use obs_analyze::{journeys, Stream};
use std::fmt;

/// One invariant breach, pinned to a principle and (when the evidence is
/// a single event) a stream timestamp.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which paper principle (1–4) the breach falls under.
    pub principle: u8,
    /// Short invariant name, stable for reports.
    pub invariant: &'static str,
    /// Stream time of the offending event, when there is one.
    pub at_us: Option<u64>,
    /// What happened.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at_us {
            Some(t) => write!(
                f,
                "P{} {} at {:.3}s: {}",
                self.principle,
                self.invariant,
                t as f64 / 1e6,
                self.detail
            ),
            None => write!(f, "P{} {}: {}", self.principle, self.invariant, self.detail),
        }
    }
}

/// The liveness facts the stream alone cannot carry: whether the run
/// drained, and which jobs (if any) never reached a terminal state the
/// user can act on.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Did the simulator go quiescent before the deadline?
    pub quiescent: bool,
    /// Jobs that ended anywhere other than `Completed`/`Unexecutable`.
    pub unfinished: Vec<String>,
}

impl RunSummary {
    /// Summarize a run, of one pool or a federation. `Held` and
    /// `AwaitingPostmortem` count as unfinished: the work is lost to the
    /// queue even though the schedd considers them settled.
    pub fn of(report: &RunReport) -> RunSummary {
        let mut unfinished = Vec::new();
        for (id, rec) in &report.jobs {
            match &rec.state {
                JobState::Completed { .. } | JobState::Unexecutable { .. } => {}
                other => unfinished.push(format!("job {id} ended {other:?}")),
            }
        }
        RunSummary {
            quiescent: report.quiescent,
            unfinished,
        }
    }
}

/// Check every invariant over `stream` and `summary`; an empty result is
/// a verdict, not an absence of opinion.
pub fn check(stream: &Stream, summary: &RunSummary) -> Vec<Violation> {
    let mut out = Vec::new();
    let stack = java_universe_stack();

    for r in &stream.records {
        match &r.event {
            // P1: an explicit error must never be converted back to an
            // implicit one. The kernel's own audit layer also reports
            // principle breaches as first-class events; surface those
            // under their own numbering.
            Event::SpanHop {
                action: SpanAction::Swallowed,
                layer,
                scope,
                ..
            } => out.push(Violation {
                principle: 1,
                invariant: "explicit-stays-explicit",
                at_us: Some(r.at_us),
                detail: format!("{layer} swallowed an explicit {scope}-scope error"),
            }),
            Event::Violation {
                principle, detail, ..
            } => out.push(Violation {
                principle: *principle,
                invariant: "kernel-self-report",
                at_us: Some(r.at_us),
                detail: detail.clone(),
            }),
            // P2: scope changes in transit may only widen — the scope
            // after the hop must strictly contain the scope before it.
            Event::SpanHop {
                action: SpanAction::Widened { from },
                scope,
                layer,
                ..
            } => match (Scope::from_name(from), Scope::from_name(scope)) {
                (Some(a), Some(b)) if a < b => {}
                _ => out.push(Violation {
                    principle: 2,
                    invariant: "widen-only-outward",
                    at_us: Some(r.at_us),
                    detail: format!("{layer} moved a {from}-scope error to {scope}"),
                }),
            },
            // P3, half one: the ruling must be the one §3.4 assigns to
            // the error's scope.
            Event::Disposition {
                job,
                disposition,
                scope,
                ..
            } => match Scope::from_name(scope) {
                Some(s) if Disposition::for_scope(s).to_string() == *disposition => {}
                Some(s) => out.push(Violation {
                    principle: 3,
                    invariant: "disposition-matches-scope",
                    at_us: Some(r.at_us),
                    detail: format!(
                        "job {job}: {scope}-scope error ruled {disposition}, expected {}",
                        Disposition::for_scope(s)
                    ),
                }),
                None => out.push(Violation {
                    principle: 3,
                    invariant: "disposition-matches-scope",
                    at_us: Some(r.at_us),
                    detail: format!("job {job}: disposition on unknown scope {scope:?}"),
                }),
            },
            _ => {}
        }
    }

    // P3, half two: every journey that terminated must have terminated at
    // exactly the Figure 3 layer managing its final scope. Journeys still
    // in flight have no terminal hop to judge; if their job never
    // finished either, P4 below catches it.
    for j in journeys(stream) {
        let Some((layer, scope_name)) = &j.managed_by else {
            continue;
        };
        let expected = Scope::from_name(scope_name).and_then(|s| stack.manager_of(s));
        if expected != Some(layer.as_str()) {
            out.push(Violation {
                principle: 3,
                invariant: "delivered-to-scope-manager",
                at_us: None,
                detail: format!(
                    "span {}: {scope_name}-scope error consumed by {layer}, manager is {}",
                    j.span,
                    expected.unwrap_or("unknown")
                ),
            });
        }
    }

    // P4: no lost work. Every job ends Completed or Unexecutable, and the
    // simulator actually drains.
    if !summary.quiescent {
        out.push(Violation {
            principle: 4,
            invariant: "no-lost-work",
            at_us: None,
            detail: "run hit the deadline without going quiescent".to_string(),
        });
    }
    for u in &summary.unfinished {
        out.push(Violation {
            principle: 4,
            invariant: "no-lost-work",
            at_us: None,
            detail: u.clone(),
        });
    }
    out
}

/// Annotate an oracle failure: diff the violating stream against its
/// same-seed fault-free reference and render the localizer's verdict, so
/// a red campaign arrives with a named culprit.
pub fn postmortem(faulty: &Stream, reference: &Stream) -> String {
    let loc = obs_analyze::localize(faulty, reference);
    obs_analyze::render_report(faulty, &loc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use errorscope::error::codes::{DISK_FULL, FILESYSTEM_OFFLINE};
    use errorscope::ScopedError;
    use obs::Collector;

    fn stream(events: Vec<Event>) -> Stream {
        let mut c = Collector::new();
        for (i, e) in events.into_iter().enumerate() {
            c.record(i as u64 * 1_000_000, "test", e);
        }
        Stream::from_collector(&c).unwrap()
    }

    fn quiescent() -> RunSummary {
        RunSummary {
            quiescent: true,
            unfinished: Vec::new(),
        }
    }

    fn hop(span: u64, layer: &str, action: SpanAction, scope: &str) -> Event {
        Event::SpanHop {
            span,
            layer: layer.to_string(),
            action,
            scope: scope.to_string(),
        }
    }

    /// The journeys of `errors` as the kernel renders them
    /// ([`ScopedError::trail_events`]), one hop of each in turn, so the
    /// oracle has to tell them apart by span.
    fn trail_stream(errors: &[&ScopedError]) -> Stream {
        let trails: Vec<Vec<Event>> = errors.iter().map(|e| e.trail_events()).collect();
        let longest = trails.iter().map(Vec::len).max().unwrap_or(0);
        stream(
            (0..longest)
                .flat_map(|i| trails.iter().filter_map(move |t| t.get(i).cloned()))
                .collect(),
        )
    }

    fn principles(v: &[Violation]) -> Vec<u8> {
        v.iter().map(|v| v.principle).collect()
    }

    fn offline_home_fs() -> ScopedError {
        ScopedError::escaping(FILESYSTEM_OFFLINE, Scope::LocalResource, "wrapper", "nfs")
    }

    fn swallowed_disk_full() -> ScopedError {
        ScopedError::explicit(DISK_FULL, Scope::File, "proxy", "full").swallow("io-library")
    }

    #[test]
    fn a_propagated_delivery_agrees_with_the_trail_audit() {
        use errorscope::audit::{audit_delivery, audit_error};
        // The theory stack routes a local-resource error to the shadow:
        // clean by the trail audit and by the oracle over its hops.
        let stack = java_universe_stack();
        let d = stack.propagate(offline_home_fs(), "wrapper");
        assert!(audit_delivery(&stack, &d).is_empty());
        let v = check(&trail_stream(&[&d.error]), &quiescent());
        assert!(v.is_empty(), "{v:?}");

        // A swallow: one P1 from each judge.
        let e = swallowed_disk_full();
        let trail: Vec<u8> = audit_error(&e).iter().map(|v| v.principle()).collect();
        assert_eq!(trail, vec![1]);
        assert_eq!(
            principles(&check(&trail_stream(&[&e]), &quiescent())),
            trail
        );
    }

    #[test]
    fn a_trail_consumed_by_the_wrong_layer_is_p3() {
        let e = offline_home_fs().forwarded("starter").handle("starter");
        let v = check(&trail_stream(&[&e]), &quiescent());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "delivered-to-scope-manager");
        assert!(
            v[0].detail
                .contains("consumed by starter, manager is shadow"),
            "{}",
            v[0]
        );
    }

    #[test]
    fn a_journey_still_in_flight_gets_no_p3_verdict() {
        let e = offline_home_fs().forwarded("starter");
        let v = check(&trail_stream(&[&e]), &quiescent());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn interleaved_trail_journeys_are_judged_per_span() {
        // A clean delivery, a misrouted one and a swallow, hop by hop in
        // one stream: one P1, and one P3 naming the misrouted span only.
        let clean = java_universe_stack()
            .propagate(offline_home_fs(), "wrapper")
            .error;
        let misrouted = offline_home_fs().forwarded("starter").handle("starter");
        let swallowed = swallowed_disk_full();
        let v = check(
            &trail_stream(&[&clean, &misrouted, &swallowed]),
            &quiescent(),
        );
        assert_eq!(principles(&v), vec![1, 3], "{v:?}");
        assert!(
            v[1].detail
                .starts_with(&format!("span {}:", misrouted.span)),
            "{}",
            v[1]
        );
    }

    #[test]
    fn a_lawful_pool_journey_passes() {
        // The flocking journey: a network-scope error raised in the
        // shadow, widened to pool scope by the schedd (lawful: network ⊂
        // pool), handled there (the schedd manages pool scope), with the
        // scope-correct escalate-to-human ruling.
        let s = stream(vec![
            hop(9, "shadow", SpanAction::Raised, "network"),
            hop(
                9,
                "schedd",
                SpanAction::Widened {
                    from: "network".to_string(),
                },
                "pool",
            ),
            hop(9, "schedd", SpanAction::Handled, "pool"),
            Event::Disposition {
                job: 1,
                disposition: "escalate-to-human".to_string(),
                scope: "pool".to_string(),
                span: 9,
            },
        ]);
        let v = check(&s, &quiescent());
        assert!(v.is_empty(), "lawful pool journey flagged: {v:?}");
    }

    #[test]
    fn a_swallowed_pool_escape_is_a_p1_violation() {
        // The mutation seed's signature: the schedd converts the remote
        // pool's explicit escape into an implicit error instead of
        // widening it. P1 must fire.
        let s = stream(vec![
            hop(9, "shadow", SpanAction::Raised, "network"),
            hop(9, "schedd", SpanAction::Swallowed, "network"),
        ]);
        let v = check(&s, &quiescent());
        assert!(
            v.iter().any(|v| v.principle == 1),
            "swallowed pool escape must trip P1: {v:?}"
        );
    }

    #[test]
    fn the_buggy_flocking_schedd_is_flagged_by_the_oracle() {
        // End to end: a federation whose schedd carries the deliberate
        // escape-swallowing mutation (test-only flag), driven into a
        // saturation denial. The machine-checked oracle must flag the
        // swallow as a P1 breach; the same world without the mutation
        // must pass clean — the differential that proves the oracle can
        // tell the two kernels apart.
        use condor::prelude::*;
        use desim::{SimDuration, SimTime};
        let run = |buggy: bool| {
            let mut b = PoolBuilder::new(71)
                .pool([])
                .pool([MachineSpec::healthy("r2", 256)])
                .job(
                    condor::JobSpec::java(
                        1,
                        "ada",
                        gridvm::programs::completes_main(),
                        condor::JavaMode::Scoped,
                    )
                    .with_exec_time(SimDuration::from_secs(30)),
                );
            if buggy {
                b = b.swallow_escapes();
            }
            let report = b.run(SimTime::from_secs(3600));
            let stream = Stream::from_collector(&report.telemetry).unwrap();
            let summary = RunSummary::of(&report);
            check(&stream, &summary)
        };
        let violations = run(true);
        assert!(
            violations
                .iter()
                .any(|v| v.principle == 1 && v.detail.contains("swallow")),
            "mutated schedd must trip P1: {violations:?}"
        );
        let clean = run(false);
        assert!(clean.is_empty(), "correct schedd flagged: {clean:?}");
    }

    #[test]
    fn a_lawful_journey_passes() {
        // A virtual-machine-scope error raised in the jvm, handled by the
        // jvm (its Figure 3 manager), with the scope-correct ruling.
        let s = stream(vec![
            hop(7, "jvm", SpanAction::Raised, "virtual-machine"),
            hop(7, "jvm", SpanAction::Handled, "virtual-machine"),
            Event::Disposition {
                job: 1,
                disposition: "log-and-reschedule".to_string(),
                scope: "virtual-machine".to_string(),
                span: 7,
            },
        ]);
        assert!(check(&s, &quiescent()).is_empty());
    }

    #[test]
    fn swallowed_hops_are_p1() {
        let s = stream(vec![
            hop(7, "jvm", SpanAction::Raised, "virtual-machine"),
            hop(7, "wrapper", SpanAction::Swallowed, "virtual-machine"),
        ]);
        let v = check(&s, &quiescent());
        assert!(v.iter().any(|v| v.principle == 1), "{v:?}");
    }

    #[test]
    fn kernel_self_reports_are_surfaced() {
        let s = stream(vec![Event::Violation {
            principle: 3,
            machine: 2,
            detail: "pool-scope error delivered to user as a result".to_string(),
        }]);
        let v = check(&s, &quiescent());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].principle, 3);
        assert_eq!(v[0].invariant, "kernel-self-report");
    }

    #[test]
    fn narrowing_and_sideways_widening_are_p2() {
        // pool -> virtual-machine narrows; job -> remote-resource is
        // incomparable. Both are illegal moves.
        let s = stream(vec![
            hop(
                1,
                "schedd",
                SpanAction::Widened {
                    from: "pool".to_string(),
                },
                "virtual-machine",
            ),
            hop(
                2,
                "shadow",
                SpanAction::Widened {
                    from: "job".to_string(),
                },
                "remote-resource",
            ),
        ]);
        let v = check(&s, &quiescent());
        assert_eq!(v.iter().filter(|v| v.principle == 2).count(), 2, "{v:?}");
    }

    #[test]
    fn lawful_widening_is_not_flagged() {
        let s = stream(vec![hop(
            1,
            "starter",
            SpanAction::Widened {
                from: "virtual-machine".to_string(),
            },
            "remote-resource",
        )]);
        assert!(check(&s, &quiescent()).is_empty());
    }

    #[test]
    fn wrong_manager_is_p3() {
        // remote-resource is managed by the starter; the shadow consuming
        // it means the error crossed to the submission side unhandled.
        let s = stream(vec![
            hop(9, "starter", SpanAction::Raised, "remote-resource"),
            hop(9, "shadow", SpanAction::Handled, "remote-resource"),
        ]);
        let v = check(&s, &quiescent());
        assert!(
            v.iter()
                .any(|v| v.principle == 3 && v.invariant == "delivered-to-scope-manager"),
            "{v:?}"
        );
    }

    #[test]
    fn wrong_disposition_is_p3() {
        let s = stream(vec![Event::Disposition {
            job: 4,
            disposition: "log-and-reschedule".to_string(),
            scope: "program".to_string(),
            span: obs::NO_SPAN,
        }]);
        let v = check(&s, &quiescent());
        assert!(
            v.iter()
                .any(|v| v.principle == 3 && v.detail.contains("expected return-completed")),
            "{v:?}"
        );
    }

    #[test]
    fn lost_work_is_p4() {
        let empty = stream(vec![]);
        let summary = RunSummary {
            quiescent: false,
            unfinished: vec!["job 2 ended Held".to_string()],
        };
        let v = check(&empty, &summary);
        assert_eq!(v.iter().filter(|v| v.principle == 4).count(), 2, "{v:?}");
    }
}
