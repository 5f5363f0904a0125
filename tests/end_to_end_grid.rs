//! Integration tests: whole-pool scenarios spanning every crate.

use chirp::backend::EnvFault;
use condor::prelude::*;
use condor::PoolBuilder as PB;
use desim::{SimDuration, SimTime};
use errorscope::Scope;
use gridvm::config::SelfTestDepth;
use gridvm::programs;

fn day() -> SimTime {
    SimTime::from_secs(24 * 3600)
}

/// A mixed workload on a mixed pool completes fully under the scoped
/// discipline with §5's defenses on, and no incidental error ever reaches
/// a user.
#[test]
fn mixed_workload_full_recovery() {
    let jobs = vec![
        JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped),
        JobSpec::java(2, "ada", programs::calls_exit(3), JavaMode::Scoped),
        JobSpec::java(3, "bob", programs::index_out_of_bounds(), JavaMode::Scoped),
        JobSpec::java(4, "bob", programs::uses_stdlib(), JavaMode::Scoped),
        JobSpec::java(
            5,
            "carol",
            programs::throws_user_exception(),
            JavaMode::Scoped,
        ),
        JobSpec::java(6, "carol", programs::reads_and_writes(), JavaMode::Scoped)
            .with_inputs(&["input.txt"])
            .with_remote_io(),
    ];
    let report = PB::new(7)
        .machine(MachineSpec::healthy("a", 256))
        .machine(MachineSpec::healthy("b", 256))
        .machine(MachineSpec::misconfigured("dead", 512))
        .machine(MachineSpec::partially_misconfigured("half", 512))
        .home_file("input.txt", b"hello grid")
        .startd_policy(StartdPolicy {
            self_test: SelfTestDepth::Thorough,
            learn_from_failures: false,
            ..StartdPolicy::default()
        })
        .schedd_policy(ScheddPolicy {
            avoid_chronic_hosts: true,
            ..ScheddPolicy::default()
        })
        .jobs(jobs)
        .run(day());

    assert!(report.quiescent, "queue must drain");
    assert_eq!(report.metrics.jobs_completed, 6);
    assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);
    assert_eq!(report.metrics.postmortems, 0);
    // The thorough self-test kept both broken machines out entirely.
    assert_eq!(report.metrics.reschedules, 0);
    for rec in report.jobs.values() {
        assert_eq!(rec.attempts.len(), 1, "every job ran exactly once");
    }
}

/// The same workload in the naive discipline: jobs still finish eventually
/// (humans resubmit), but users see incidental errors and pay postmortem
/// time — the paper's §2.3 experience.
#[test]
fn naive_discipline_costs_postmortems() {
    let mk = |mode| {
        (1..=8)
            .map(move |i| {
                JobSpec::java(i, "ada", programs::completes_main(), mode)
                    .with_exec_time(SimDuration::from_secs(30))
            })
            .collect::<Vec<_>>()
    };
    let build = |mode| {
        PB::new(11)
            .machine(MachineSpec::healthy("a", 256))
            .machine(MachineSpec::healthy("b", 256))
            .machine(MachineSpec::healthy("c", 256))
            .machine(MachineSpec::misconfigured("dead", 256))
            .schedd_policy(ScheddPolicy {
                postmortem_delay: SimDuration::from_secs(300),
                ..ScheddPolicy::default()
            })
            .jobs(mk(mode))
            .run(day())
    };
    let naive = build(JavaMode::Naive);
    let scoped = build(JavaMode::Scoped);

    // Both finish the work eventually…
    assert_eq!(naive.metrics.jobs_finished(), 8);
    assert_eq!(scoped.metrics.jobs_completed, 8);
    // …but only the naive one bothers humans.
    assert!(naive.metrics.incidental_errors_shown_to_user > 0);
    assert!(naive.metrics.postmortems > 0);
    assert_eq!(scoped.metrics.incidental_errors_shown_to_user, 0);
    assert_eq!(scoped.metrics.postmortems, 0);
    // And the paper's payoff: turnaround suffers when a human is in the
    // loop ("a human is the slowest part of any computing system").
    let naive_makespan = naive.makespan().unwrap();
    let scoped_makespan = scoped.makespan().unwrap();
    assert!(
        naive_makespan > scoped_makespan,
        "naive {naive_makespan} should exceed scoped {scoped_makespan}"
    );
}

/// An offline home file system during execution escapes with local-resource
/// scope, the shadow delays, and the job succeeds once the outage ends —
/// without burning execution attempts elsewhere.
#[test]
fn transient_fs_outage_is_waited_out() {
    let report = PB::new(13)
        .machine(MachineSpec::healthy("a", 256))
        .machine(MachineSpec::healthy("b", 256))
        .home_file("input.txt", b"payload")
        .faults(FaultPlan::new(vec![Fault::FsFault {
            schedd: PB::SCHEDD_ID,
            window: Window::new(SimTime::from_secs(0), SimTime::from_secs(400)),
            fault: EnvFault::FilesystemOffline,
        }]))
        .job(
            JobSpec::java(1, "ada", programs::reads_and_writes(), JavaMode::Scoped)
                .with_inputs(&["input.txt"])
                .with_remote_io()
                .with_exec_time(SimDuration::from_secs(60)),
        )
        .run(day());

    assert_eq!(report.metrics.jobs_completed, 1);
    let rec = &report.jobs[&1];
    assert!(rec.finished.unwrap() >= SimTime::from_secs(400));
    // The job was never marked unexecutable or shown an error.
    assert_eq!(report.metrics.jobs_unexecutable, 0);
    assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);
}

/// A machine crash mid-run produces no report at all; the shadow's timeout
/// gives the silence a scope and the job recovers elsewhere.
#[test]
fn crash_recovery_via_timeout() {
    let report = PB::new(17)
        .machine(MachineSpec::healthy("doomed", 1024))
        .machine(MachineSpec::healthy("ok", 128))
        .faults(FaultPlan::new(vec![Fault::Crash {
            actor: PB::FIRST_MACHINE_ID,
            window: Window::new(SimTime::from_secs(30), SimTime::from_secs(900)),
        }]))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(120)),
        )
        .run(day());

    assert_eq!(report.metrics.jobs_completed, 1);
    assert_eq!(report.metrics.vanished_attempts, 1);
    let rec = &report.jobs[&1];
    assert_eq!(rec.attempts[0].scope, None, "first attempt vanished");
    assert_eq!(rec.attempts.last().unwrap().scope, Some(Scope::Program));
}

/// Corrupt images and missing inputs are job scope: one attempt, returned
/// unexecutable, never retried across the pool.
#[test]
fn job_scope_errors_never_bounce() {
    let report = PB::new(19)
        .machine(MachineSpec::healthy("a", 256))
        .machine(MachineSpec::healthy("b", 256))
        .machine(MachineSpec::healthy("c", 256))
        .job(JobSpec::java(
            1,
            "ada",
            programs::corrupt_image(),
            JavaMode::Scoped,
        ))
        .job(
            JobSpec::java(2, "bob", programs::completes_main(), JavaMode::Scoped)
                .with_inputs(&["nonexistent.dat"]),
        )
        .run(day());

    assert_eq!(report.metrics.jobs_unexecutable, 2);
    for rec in report.jobs.values() {
        assert_eq!(
            rec.attempts.len(),
            1,
            "job-scope failures must not be retried"
        );
        assert!(matches!(rec.state, JobState::Unexecutable { .. }));
    }
}

/// Determinism across the whole stack: identical seeds give identical
/// reports, different seeds may differ.
#[test]
fn whole_pool_determinism() {
    let run = |seed| {
        PB::new(seed)
            .machine(MachineSpec::healthy("a", 256))
            .machine(MachineSpec::misconfigured("x", 512))
            .schedd_policy(ScheddPolicy {
                avoid_chronic_hosts: true,
                ..ScheddPolicy::default()
            })
            .jobs(
                (1..=5)
                    .map(|i| JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)),
            )
            .run(day())
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a.events, b.events);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.metrics.reschedules, b.metrics.reschedules);
}

/// A network partition between the schedd and a machine makes claims time
/// out silently; healing the partition lets the job through. The paper's
/// "escaping error communicated by breaking the connection", at pool scale.
#[test]
fn partition_heals_and_job_completes() {
    let (mut world, schedd_id, machines) = PB::new(23)
        .machine(MachineSpec::healthy("remote", 256))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(30)),
        )
        .build();
    let m = machines[0];
    // Sever schedd <-> machine; matchmaking still works (matchmaker link
    // is fine) but the claim handshake cannot complete.
    world.net_mut().partition(schedd_id, m);
    world.run_until(SimTime::from_secs(300));
    {
        let s = world.get::<condor::Schedd>(schedd_id).unwrap();
        assert!(!s.all_done(), "job cannot run across the partition");
        assert!(s.metrics.failed_claims > 0, "claims must have timed out");
    }
    // Heal and let it finish.
    world.net_mut().heal(schedd_id, m);
    world.run_until(SimTime::from_secs(900));
    let s = world.get::<condor::Schedd>(schedd_id).unwrap();
    assert!(s.all_done(), "job completes after the partition heals");
    assert_eq!(s.metrics.jobs_completed, 1);
}

/// Build a pool that produces a rich mix of error journeys: virtual-machine
/// scope (dead and half-broken installations), job scope (missing input),
/// and clean completions, under the scoped discipline with no self-test so
/// the failures actually happen.
fn journey_rich_report() -> RunReport {
    PB::new(41)
        .machine(MachineSpec::healthy("ok", 256))
        .machine(MachineSpec::misconfigured("dead", 512))
        .machine(MachineSpec::partially_misconfigured("half", 512))
        .home_file("input.txt", b"payload")
        .jobs(vec![
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped),
            JobSpec::java(2, "ada", programs::uses_stdlib(), JavaMode::Scoped),
            JobSpec::java(3, "bob", programs::reads_and_writes(), JavaMode::Scoped)
                .with_inputs(&["input.txt"])
                .with_remote_io(),
            JobSpec::java(4, "bob", programs::completes_main(), JavaMode::Scoped)
                .with_inputs(&["missing.dat"]),
        ])
        .run(day())
}

/// Tentpole acceptance: every environment failure's journey is recorded as
/// a complete span — born with `Raised`, one hop per layer crossed, ending
/// in `Handled` at the Figure 3 manager of its final scope — with the hops
/// ordered in virtual time across the two daemons that emitted them.
#[test]
fn error_journey_spans_are_complete() {
    use errorscope::propagate::java_universe_stack;

    let report = journey_rich_report();
    assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);

    let stack = java_universe_stack();
    let stream = obs_analyze::Stream::from_collector(&report.telemetry).unwrap();
    let mut completed = 0usize;
    // Every record that carries a span id is a hop of its span's journey.
    for journey in obs_analyze::journeys(&stream) {
        let (span, records) = (journey.span, &journey.hops);
        // Virtual time never runs backwards within a span, even though the
        // startd and the schedd emit from different actors.
        for pair in records.windows(2) {
            assert!(
                pair[0].at_us <= pair[1].at_us,
                "span {span}: events out of order"
            );
        }
        // Execute-side hops (machine actors) strictly precede submit-side
        // hops (the schedd): the journey rides the execution report home.
        let first_schedd = records.iter().position(|r| r.actor == "schedd");
        if let Some(i) = first_schedd {
            assert!(
                records[i..].iter().all(|r| r.actor == "schedd"),
                "span {span}: machine-side hop after the schedd took over"
            );
        }

        // The `span-hop` records, as opposed to escapes and dispositions.
        let hops: Vec<_> = records
            .iter()
            .filter(|h| h.action != "escape" && h.action != "disposition")
            .collect();
        assert!(!hops.is_empty(), "span {span} recorded no journey hops");
        assert_eq!(
            hops[0].action, "raised",
            "span {span} must begin at the error's birth"
        );
        let last = hops[hops.len() - 1];
        if last.action == "handled" {
            completed += 1;
            // P3, per journey: consumed exactly by the manager of its scope.
            let s = errorscope::Scope::from_name(&last.scope).unwrap();
            assert_eq!(
                stack.manager_of(s),
                Some(last.layer.as_str()),
                "span {span} handled at the wrong layer"
            );
            // A completed journey reaches exactly one disposition.
            let dispositions = records.iter().filter(|h| h.action == "disposition").count();
            assert_eq!(dispositions, 1, "span {span} dispositions");
        }
    }
    assert!(
        completed >= 3,
        "expected several completed journeys, saw {completed}"
    );
}

/// Tentpole acceptance: the P1–P4 oracle, judging the recorded stream,
/// finds what replaying each environment-failure attempt's trail through
/// the theory stack finds — no breach of P1–P3 in the scoped system.
#[test]
fn span_audit_matches_trail_audit() {
    use campaign::oracle::{check, RunSummary};
    use errorscope::audit::{audit_delivery, ViolationCounts};
    use errorscope::propagate::java_universe_stack;
    use errorscope::{ErrorCode, ScopedError};

    let report = journey_rich_report();
    let stack = java_universe_stack();

    // P4 (no lost work) is not asserted: this world runs without
    // chronic-host avoidance, so job 2 is held after 20 failed attempts on
    // the broken machines. That is lost work, not a misrouted journey.
    let stream = obs_analyze::Stream::from_collector(&report.telemetry).unwrap();
    let span_violations: Vec<_> = check(&stream, &RunSummary::of(&report))
        .into_iter()
        .filter(|v| v.principle <= 3)
        .collect();

    // The trail-based counterpart: replay every environment-failure attempt
    // as a delivery through the same stack (program results carry no
    // journey, so they are out of scope on both sides).
    let mut trail_counts = ViolationCounts::default();
    let mut deliveries = 0usize;
    for rec in report.jobs.values() {
        for attempt in &rec.attempts {
            let Some(scope) = attempt.scope else { continue };
            if scope == Scope::Program {
                continue;
            }
            let err = ScopedError::escaping(
                ErrorCode::owned(format!("Attempt:{}", attempt.note)),
                scope,
                "wrapper",
                attempt.note.clone(),
            );
            let delivery = stack.propagate(err, "wrapper");
            trail_counts.add_all(&audit_delivery(&stack, &delivery));
            deliveries += 1;
        }
    }

    assert!(
        deliveries >= 3,
        "expected several env deliveries, saw {deliveries}"
    );
    assert!(
        trail_counts.is_clean(),
        "scoped system violates: {trail_counts}"
    );
    assert!(
        span_violations.is_empty(),
        "recorded journeys violate: {span_violations:?}"
    );

    // And the journeys the spans describe are the same population the
    // attempts describe: one completed journey per environment failure.
    let completed_spans = obs_analyze::journeys(&stream)
        .iter()
        .filter(|j| j.managed_by.is_some())
        .count();
    assert_eq!(completed_spans, deliveries);
}

/// The exported telemetry round-trips: JSONL event stream and JSON metrics
/// snapshot both re-parse cleanly, with CPU counters in integer
/// microseconds.
#[test]
fn telemetry_exports_parse_cleanly() {
    let report = journey_rich_report();

    let jsonl = report.telemetry.to_jsonl_with_meta();
    let (meta, parsed) =
        obs::Collector::parse_jsonl_with_meta(&jsonl).expect("JSONL must round-trip");
    assert_eq!(meta, vec![report.telemetry.stream_meta()]);
    assert_eq!(parsed.len(), report.telemetry.len());

    let snapshot = report.registry().snapshot_json();
    let doc = obs::json::parse(&snapshot).expect("metrics snapshot must be valid JSON");
    let counters = doc.get("counters").and_then(|c| c.as_arr()).unwrap();
    let useful = counters
        .iter()
        .find(|c| c.get("name").and_then(|n| n.as_str()) == Some("useful_cpu_us"))
        .expect("useful_cpu_us counter present");
    assert_eq!(
        useful.get("value").and_then(|v| v.as_u64()),
        Some(report.metrics.useful_cpu.as_micros()),
        "CPU must be exported as integer microseconds"
    );
}

/// A partition that opens *mid-run* swallows the starter's report; the
/// shadow's timeout classifies the silence and the job retries.
#[test]
fn mid_run_partition_costs_one_attempt() {
    let (mut world, schedd_id, machines) = PB::new(29)
        .machine(MachineSpec::healthy("flaky-net", 256))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(120)),
        )
        .build();
    let m = machines[0];
    // Let the claim+activation complete, then cut the link while the job
    // runs, and restore it after the report would have been sent.
    world.run_until(SimTime::from_secs(60));
    world.net_mut().partition(schedd_id, m);
    world.run_until(SimTime::from_secs(200)); // report lost here
    world.net_mut().heal(schedd_id, m);
    world.run_until(SimTime::from_secs(3600));
    let s = world.get::<condor::Schedd>(schedd_id).unwrap();
    assert!(s.all_done());
    assert_eq!(s.metrics.jobs_completed, 1);
    assert_eq!(
        s.metrics.vanished_attempts, 1,
        "the lost report was noticed"
    );
    assert!(s.jobs[&1].attempts.len() >= 2);
}
