//! Robustness tests: stale, duplicate, and malicious protocol messages
//! must never corrupt daemon state. Soft-state protocols survive nonsense.

use condor::prelude::*;
use condor::{Msg, PoolBuilder, Schedd, Startd};
use desim::{SimDuration, SimTime};
use gridvm::programs;
use std::sync::Arc;

fn one_job_pool(seed: u64) -> (desim::World<Msg>, usize, Vec<usize>) {
    PoolBuilder::new(seed)
        .machine(MachineSpec::healthy("m1", 256))
        .machine(MachineSpec::healthy("m2", 256))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(60)),
        )
        .build()
}

#[test]
fn duplicate_match_notifications_are_idempotent() {
    let (mut world, schedd_id, machines) = one_job_pool(51);
    // Flood the schedd with duplicate / bogus match notifications.
    for _ in 0..10 {
        world.inject(
            schedd_id,
            Msg::MatchNotify {
                job: 1,
                machine: machines[0],
                pool: 0,
            },
        );
        world.inject(
            schedd_id,
            Msg::MatchNotify {
                job: 99, // nonexistent job
                machine: machines[1],
                pool: 0,
            },
        );
    }
    world.run_until(SimTime::from_secs(600));
    let s = world.get::<Schedd>(schedd_id).unwrap();
    assert!(s.all_done());
    assert_eq!(s.metrics.jobs_completed, 1);
    assert_eq!(s.jobs[&1].attempts.len(), 1, "one execution despite spam");
}

#[test]
fn stale_claim_messages_are_ignored() {
    let (mut world, schedd_id, machines) = one_job_pool(52);
    // Bogus accepts/rejects for jobs that were never claimed.
    world.inject(schedd_id, Msg::ClaimAccept { job: 1, epoch: 0 });
    world.inject(schedd_id, Msg::ClaimAccept { job: 77, epoch: 0 });
    world.inject(
        schedd_id,
        Msg::ClaimReject {
            job: 1,
            reason: "spoofed".into(),
            epoch: 0,
        },
    );
    // Bogus reports before anything ran.
    world.inject(
        schedd_id,
        Msg::StarterReport {
            job: 1,
            report: Box::new(condor::ExecutionReport::NaiveExit {
                code: 0,
                stdout: String::new(),
                truth_scope: errorscope::Scope::Program,
                truth_note: "forged".into(),
            }),
            cpu: SimDuration::from_secs(1),
            started: SimTime::ZERO,
            ckpt: condor::CkptAttempt::None,
            epoch: 0,
        },
    );
    world.run_until(SimTime::from_secs(600));
    let s = world.get::<Schedd>(schedd_id).unwrap();
    assert_eq!(s.metrics.jobs_completed, 1);
    // The forged report did not complete the job early: the real attempt
    // has a believable start time.
    assert!(s.jobs[&1].attempts[0].started > SimTime::ZERO);
    let _ = machines;
}

#[test]
fn stale_activations_do_not_run_jobs() {
    let (mut world, _schedd_id, machines) = one_job_pool(53);
    // Activate a claim that was never granted.
    world.inject(
        machines[1],
        Msg::ActivateClaim(Box::new(condor::Activation {
            job: 42,
            image: programs::completes_main(),
            universe: Universe::Java(JavaMode::Scoped),
            snapshot: condor::FsSnapshot::default(),
            exec_time: SimDuration::from_secs(10),
            does_remote_io: false,
            schedd: 1,
            attempt: 0,
            resume: None,
            epoch: 0,
            lease: None,
            pool: 0,
        })),
    );
    world.run_until(SimTime::from_secs(300));
    let st = world.get::<Startd>(machines[1]).unwrap();
    // The startd executed only the legitimately claimed job (if it got it)
    // — never the forged activation for job 42.
    assert!(st.stats.executions <= 1);
}

#[test]
fn unknown_timer_messages_are_harmless() {
    let (mut world, schedd_id, machines) = one_job_pool(54);
    for m in &machines {
        world.inject(*m, Msg::ExecutionComplete { job: 999 });
        world.inject(*m, Msg::ReleaseClaim { job: 999 });
    }
    world.inject(schedd_id, Msg::RetryJob { job: 999 });
    world.inject(schedd_id, Msg::PostmortemDone { job: 999 });
    world.inject(
        schedd_id,
        Msg::ReportTimeout {
            job: 1,
            machine: machines[0],
            attempt: 7,
        },
    );
    world.run_until(SimTime::from_secs(600));
    let s = world.get::<Schedd>(schedd_id).unwrap();
    assert_eq!(s.metrics.jobs_completed, 1);
    assert_eq!(s.metrics.vanished_attempts, 0, "stale timeout ignored");
}

#[test]
fn busy_machine_rejects_second_claim() {
    let (mut world, schedd_id, _machines) = one_job_pool(55);
    // Let the real claim land first.
    world.run_until(SimTime::from_secs(15));
    // Find which machine is claimed and hit it with another request.
    let job_machine = {
        let s = world.get::<Schedd>(schedd_id).unwrap();
        match s.jobs[&1].state {
            JobState::Claiming { machine } | JobState::Running { machine } => Some(machine),
            _ => None,
        }
    };
    if let Some(m) = job_machine {
        let ad = JobSpec::java(2, "eve", programs::completes_main(), JavaMode::Scoped).ad();
        world.inject(
            m,
            Msg::ClaimRequest {
                job: 2,
                ad: Arc::new(ad),
                epoch: 0,
                pool: 0,
            },
        );
        world.run_until(SimTime::from_secs(20));
        let st = world.get::<Startd>(m).unwrap();
        assert!(st.stats.claims_rejected >= 1, "busy machine must reject");
    }
    world.run_until(SimTime::from_secs(600));
    assert_eq!(
        world
            .get::<Schedd>(schedd_id)
            .unwrap()
            .metrics
            .jobs_completed,
        1
    );
}
