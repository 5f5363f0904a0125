//! Robustness tests: stale, duplicate, and malicious protocol messages
//! must never corrupt daemon state. Soft-state protocols survive nonsense.

mod common;

use common::Wiretap;
use condor::prelude::*;
use condor::{Msg, PoolBuilder, Schedd, Site, Startd};
use desim::{SimDuration, SimTime, World};
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

/// `(second, actor, message)`: what is injected into a [`deadline_world`].
type Script = [(u64, usize, Msg)];

/// Actor ids in [`deadline_world`].
const TAP: usize = 0;
const SCHEDD: usize = 1;
const STARTD: usize = 2;

/// A leasing, flocking schedd with one idle job and an idle startd, both
/// talking to a wiretap that stands for every matchmaker and the
/// checkpoint server, so nothing answers them but the `script`: each
/// `(second, actor, message)` arrives as if the actor had sent it itself.
/// What is returned is what a stale deadline must not change: the
/// schedd's counters and queue, the startd's counters, the recorded
/// events, and the deliveries other than the script's own.
fn deadline_world(script: &Script) -> (String, String, Vec<obs::EventRecord>, u64) {
    obs::reset_span_ids(1);
    let mut world: World<Msg> = World::new(9);
    assert_eq!(world.add_actor(Box::new(Wiretap::default())), TAP);
    let policy = ScheddPolicy {
        lease: Some(LeaseInfo {
            interval: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(30),
        }),
        ..ScheddPolicy::default()
    };
    let flock = FlockConfig {
        pools: vec![FlockTarget {
            pool: 1,
            matchmaker: TAP,
        }],
        ..FlockConfig::default()
    };
    let mut schedd = Schedd::new(TAP, policy, FaultPlan::none().build()).with_flock(flock);
    schedd.submit(job(Universe::Standard));
    assert_eq!(world.add_actor(Box::new(schedd)), SCHEDD);
    let startd = Startd::new(
        MachineSpec::healthy("m", 256),
        StartdPolicy::default(),
        TAP,
        FaultPlan::none().build(),
    )
    .with_ckpt_server(TAP, chirp::cookie::Cookie::generate(1));
    assert_eq!(world.add_actor(Box::new(startd)), STARTD);
    for (at, to, msg) in script {
        world.inject_after(SimDuration::from_secs(*at), *to, msg.clone());
    }
    world.run_until(SimTime::from_secs(120));
    let s = world.get::<Schedd>(SCHEDD).unwrap();
    let st = world.get::<Startd>(STARTD).unwrap();
    let events = world.telemetry().iter().map(|r| r.to_record()).collect();
    let deliveries = world.events_processed() - script.len() as u64;
    (
        format!("{:?} {:?}", s.metrics, s.jobs),
        format!("{:?}", st.stats),
        events,
        deliveries,
    )
}

fn job(universe: Universe) -> JobSpec {
    JobSpec {
        universe,
        ..JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
            .with_exec_time(SimDuration::from_secs(60))
    }
}

/// One stale-deadline table over every site. Each row's script puts the
/// record a site guards in the state its deadline acts on; then a deadline
/// at that site with a stale epoch, and one naming an id nobody holds,
/// must change nothing against the same script without them. With the one
/// epoch comparison an actor makes taken out, every row's stale deadline
/// would act. The live case of each site is covered elsewhere, as named.
#[test]
fn unknown_timer_messages_are_harmless() {
    let claimed = |machine| Msg::MatchNotify {
        job: 1,
        machine,
        pool: 0,
    };
    let running = [
        (3, SCHEDD, claimed(SCHEDD)),
        (4, SCHEDD, Msg::ClaimAccept { job: 1, epoch: 1 }),
    ];
    let claim_request = Msg::ClaimRequest {
        job: 1,
        ad: Arc::new(job(Universe::Standard).ad()),
        epoch: 1,
        pool: 0,
    };
    let resume = Msg::ActivateClaim(Box::new(condor::Activation {
        job: 1,
        image: programs::completes_main(),
        universe: Universe::Standard,
        snapshot: condor::FsSnapshot::default(),
        exec_time: SimDuration::from_secs(10),
        does_remote_io: false,
        schedd: SCHEDD,
        attempt: 1,
        resume: Some(condor::ResumeInfo {
            key: "ckpt/job1/0".into(),
            banked: SimDuration::from_secs(5),
        }),
        epoch: 1,
        lease: None,
        pool: 0,
    }));
    // (site, script, the actor its deadlines go to, the instant they come)
    let rows: Vec<(Site, Vec<_>, usize, u64)> = vec![
        // Claiming from 3 s until its own deadline at 23. Live: soft_state.rs
        // `a_claim_deadline_ends_only_its_own_claim`.
        (Site::Claim, vec![(3, SCHEDD, claimed(SCHEDD))], SCHEDD, 7),
        // Running from 4 s; nothing reports. Live: pool.rs
        // `machine_crash_vanishes_report_and_job_recovers`.
        (Site::Report, running.to_vec(), SCHEDD, 7),
        // Running from 4 s; nothing heartbeats, and the lease expires at
        // 34 — a stale check would re-arm a second chain. Live: pool.rs
        // `lease_converts_partition_into_explicit_error_on_both_sides`.
        (Site::Lease, running.to_vec(), SCHEDD, 7),
        // Claimed from 3 s, never activated, until 63. Live: soft_state.rs
        // `a_machine_says_so_the_instant_it_frees_itself`, its first row.
        (
            Site::Activation,
            vec![(3, STARTD, claim_request.clone())],
            STARTD,
            7,
        ),
        // Fetching a checkpoint from 4 s that never comes, until 14. Live:
        // pool.rs `unreachable_checkpoint_server_is_discarded_one_fetch_
        // timeout_after_the_request`.
        (
            Site::CkptFetch,
            vec![(3, STARTD, claim_request), (4, STARTD, resume)],
            STARTD,
            7,
        ),
        // The job starves past 30 s and pool 1 is probed at 30, its first
        // probe, unanswered until 40. Live: flock_breaker.rs
        // `pool_breaker_reopens_on_probe_timeout_and_closes_on_negotiation`.
        (Site::FlockProbe, Vec::new(), SCHEDD, 31),
    ];
    // Every record a row guards is job 1's first claim, or pool 1's first
    // probe: epoch 1. Epoch 0 is stale, and nothing is numbered 99.
    for (site, script, to, at) in rows {
        let quiet = deadline_world(&script);
        for stale in [Msg::deadline(site, 1u32, 0), Msg::deadline(site, 99u32, 1)] {
            let mut noisy = script.clone();
            noisy.push((at, to, stale.clone()));
            assert!(deadline_world(&noisy) == quiet, "{stale:?} changed the run");
        }
    }
    // And the other timers, for a job nobody has.
    let quiet = deadline_world(&[]);
    let noise = [
        (5, STARTD, Msg::ExecutionComplete { job: 999 }),
        (5, STARTD, Msg::ReleaseClaim { job: 999 }),
        (5, SCHEDD, Msg::RetryJob { job: 999 }),
        (5, SCHEDD, Msg::PostmortemDone { job: 999 }),
    ];
    assert!(deadline_world(&noise) == quiet);
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
