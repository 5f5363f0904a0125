//! The four principles, audited over whole-system runs.
//!
//! The paper's conclusion lists four principles; this test replays entire
//! pool executions and checks them globally: the scoped system never
//! violates any principle, while the naive baseline's behaviour is exactly
//! the violation catalogue of §2.3.

use condor::prelude::*;
use condor::PoolBuilder;
use desim::{SimDuration, SimTime};
use errorscope::audit::{audit_delivery, audit_interface, ViolationCounts};
use errorscope::prelude::*;
use gridvm::programs;

/// Drive every environmental failure the pool can produce through the
/// paper's layer stack and audit each delivery.
#[test]
fn every_scoped_delivery_is_violation_free() {
    let stack = java_universe_stack();
    let mut counts = ViolationCounts::default();

    let report = PoolBuilder::new(97)
        .machine(MachineSpec::misconfigured("dead", 512))
        .machine(MachineSpec::partially_misconfigured("half", 512))
        .machine(MachineSpec::healthy("ok", 256))
        .schedd_policy(ScheddPolicy {
            avoid_chronic_hosts: true,
            ..ScheddPolicy::default()
        })
        .jobs(vec![
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped),
            JobSpec::java(2, "ada", programs::uses_stdlib(), JavaMode::Scoped),
            JobSpec::java(3, "ada", programs::corrupt_image(), JavaMode::Scoped),
            JobSpec::java(4, "ada", programs::index_out_of_bounds(), JavaMode::Scoped),
        ])
        .run(SimTime::from_secs(24 * 3600));

    // Replay each attempt's scope as a delivery through the theory stack.
    let mut deliveries = 0;
    for rec in report.jobs.values() {
        for attempt in &rec.attempts {
            let Some(scope) = attempt.scope else { continue };
            let err = ScopedError::escaping(
                ErrorCode::owned(format!("Attempt:{}", attempt.note)),
                scope,
                "wrapper",
                attempt.note.clone(),
            );
            let delivery = stack.propagate(err, "wrapper");
            counts.add_all(&audit_delivery(&stack, &delivery));
            deliveries += 1;
        }
    }
    assert!(
        deliveries >= 4,
        "expected several deliveries, saw {deliveries}"
    );
    assert!(
        counts.is_clean(),
        "scoped system must satisfy all four principles: {counts}"
    );
    // And the real pool agreed with the theory on user outcomes.
    assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);
}

/// The same audit, span-native: the telemetry stream recorded during the
/// run carries every journey, and auditing it finds the same thing the
/// trail replay does — nothing.
#[test]
fn recorded_spans_audit_clean_in_scoped_mode() {
    let report = PoolBuilder::new(97)
        .machine(MachineSpec::misconfigured("dead", 512))
        .machine(MachineSpec::partially_misconfigured("half", 512))
        .machine(MachineSpec::healthy("ok", 256))
        .jobs((1..=6).map(|i| {
            JobSpec::java(i, "ada", programs::uses_stdlib(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(30))
        }))
        .run(SimTime::from_secs(24 * 3600));

    let stack = java_universe_stack();
    let counts = errorscope::audit::audit_recorded_spans(&stack, &report.telemetry);
    assert!(counts.is_clean(), "recorded journeys violate: {counts}");
    // With no self-test and two broken machines, journeys definitely flowed.
    assert!(
        !report.telemetry.spans().is_empty(),
        "expected recorded journeys"
    );
    assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);
}

/// The naive baseline's signature failure is *recorded* as telemetry: one
/// P3 violation event per incidental error delivered to a user, so the
/// damage is countable from the event stream alone.
#[test]
fn naive_violations_are_recorded_as_events() {
    let report = PoolBuilder::new(98)
        .machine(MachineSpec::misconfigured("dead", 256))
        .machine(MachineSpec::healthy("ok", 256))
        .schedd_policy(ScheddPolicy {
            postmortem_delay: SimDuration::from_secs(60),
            max_attempts: 10,
            ..ScheddPolicy::default()
        })
        .jobs((1..=4).map(|i| {
            JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Naive)
                .with_exec_time(SimDuration::from_secs(20))
        }))
        .run(SimTime::from_secs(24 * 3600));

    assert!(report.metrics.incidental_errors_shown_to_user > 0);
    let by_kind = report.telemetry.counts_by_kind();
    assert_eq!(
        by_kind.get("violation").copied().unwrap_or(0),
        report.metrics.incidental_errors_shown_to_user,
        "one violation event per incidental error shown"
    );
    // The naive discipline records no journeys — it throws the scope
    // information away, which is the point.
    assert!(report.telemetry.spans().is_empty());
}

/// Principle 4 at the protocol level: the Chirp contract is concise and
/// finite; the Java-style generic interface is not.
#[test]
fn interface_contracts_audit_as_the_paper_says() {
    assert!(audit_interface(&chirp::proto::chirp_interface()).is_empty());
    let generic = errorscope::interface::file_writer_generic();
    assert_eq!(audit_interface(&generic).len(), 2);
    let revised = errorscope::interface::file_writer_revised();
    assert!(audit_interface(&revised).is_empty());
}

/// The naive baseline, measured: its signature behaviour — environmental
/// errors delivered to users as program results — is present whenever
/// faulty machines are, and absent from the scoped runs. (The naive system
/// cannot be audited through trails — it throws the scope information
/// away, which is the point.)
#[test]
fn naive_baseline_exhibits_the_section_2_3_failures() {
    let build = |mode| {
        PoolBuilder::new(98)
            .machine(MachineSpec::misconfigured("dead", 256))
            .machine(MachineSpec::healthy("ok", 256))
            .schedd_policy(ScheddPolicy {
                postmortem_delay: SimDuration::from_secs(60),
                max_attempts: 10,
                ..ScheddPolicy::default()
            })
            .jobs((1..=4).map(move |i| {
                JobSpec::java(i, "ada", programs::completes_main(), mode)
                    .with_exec_time(SimDuration::from_secs(20))
            }))
            .run(SimTime::from_secs(24 * 3600))
    };
    let naive = build(JavaMode::Naive);
    let scoped = build(JavaMode::Scoped);
    assert!(naive.metrics.incidental_errors_shown_to_user > 0);
    assert_eq!(scoped.metrics.incidental_errors_shown_to_user, 0);
    // In the naive run, some user event text contains an exit code that
    // was actually an environmental failure — true information, wrong
    // scope, postmortem required (§2.3: "correct in the sense that users
    // received true information ... undesirable").
    assert!(naive.metrics.postmortems > 0);
}
