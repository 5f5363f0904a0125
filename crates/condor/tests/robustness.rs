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

/// `(second, actor, message)`: what is injected into a [`scripted_world`].
type Script = [(u64, usize, Msg)];

/// Actor ids in [`scripted_world`].
const TAP: usize = 0;
const SCHEDD: usize = 1;
const STARTD: usize = 2;
const RELAY: usize = 3;

/// Passes what is injected into it on to the schedd as its own: a message
/// from a machine the schedd never claimed.
struct Relay;

impl desim::Actor<Msg> for Relay {
    fn name(&self) -> String {
        "relay".into()
    }
    fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut desim::Context<'_, Msg>) {
        if from == ctx.self_id {
            ctx.send(SCHEDD, msg);
        }
    }
}

/// A leasing, flocking schedd with one idle job and an idle startd, both
/// talking to a wiretap that stands for every matchmaker and the
/// checkpoint server, so nothing answers them but the `script`: each
/// `(second, actor, message)` arrives as if the actor had sent it itself
/// (what goes to the [`Relay`] reaches the schedd from the relay).
fn scripted_world(script: &Script) -> World<Msg> {
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
    assert_eq!(world.add_actor(Box::new(Relay)), RELAY);
    for (at, to, msg) in script {
        world.inject_after(SimDuration::from_secs(*at), *to, msg.clone());
    }
    world.run_until(SimTime::from_secs(120));
    world
}

/// What a stale deadline must not change in a [`scripted_world`]: the
/// schedd's counters and queue, the startd's counters, the recorded
/// events, and the deliveries other than the script's own.
fn deadline_world(script: &Script) -> (String, String, Vec<obs::EventRecord>, u64) {
    let world = scripted_world(script);
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

/// What a claim message must not change in a [`scripted_world`] unless it
/// speaks for the live claim: the schedd's counters and queue and the
/// recorded events — less the stale drops, returned apart.
fn claim_world(script: &Script) -> (String, Vec<obs::EventRecord>, u64) {
    let world = scripted_world(script);
    let s = world.get::<Schedd>(SCHEDD).unwrap();
    let mut metrics = s.metrics.clone();
    let dropped = std::mem::take(&mut metrics.stale_epochs_dropped);
    let events = (world.telemetry().iter())
        .map(|r| r.to_record())
        .filter(|r| !matches!(r.event, obs::Event::StaleEpochDropped { .. }))
        .collect();
    (format!("{metrics:?} {:?}", s.jobs), events, dropped)
}

/// One guard table over the five messages that speak for a claim. Each
/// row's message, injected at 7 s into the phase it acts in, is ignored
/// for a job nobody holds, dropped as stale (one `StaleEpochDropped`) with
/// an older epoch, and ignored from a machine other than the claim's and
/// in a phase it does not act in: each leaves the run as the same script
/// without it. The live message — right job, epoch, sender and phase —
/// does change the run, so no row passes by accident. With the guard's
/// sender comparison taken out, every wrong-sender case would act. The
/// live case of each message is covered elsewhere, as named.
#[test]
fn stale_claim_messages_are_ignored() {
    let claimed = Msg::MatchNotify {
        job: 1,
        machine: SCHEDD,
        pool: 0,
    };
    // A phase: the script that puts job 1 there, and its live epoch.
    // Claiming from 3 s until the claim's deadline at 23, and running from
    // 4 s until the lease expires at 34, both under epoch 1; idle
    // throughout under epoch 0.
    type Phase<'a> = (&'a Script, u64);
    let claiming_script = [(3, SCHEDD, claimed.clone())];
    let running_script = [
        (3, SCHEDD, claimed),
        (4, SCHEDD, Msg::ClaimAccept { job: 1, epoch: 1 }),
    ];
    let claiming: Phase = (&claiming_script, 1);
    let running: Phase = (&running_script, 1);
    let idle: Phase = (&[], 0);
    let report = |job, epoch| Msg::StarterReport {
        job,
        report: Box::new(condor::ExecutionReport::NaiveExit {
            code: 0,
            stdout: String::new(),
            truth_scope: errorscope::Scope::Program,
            truth_note: "forged".into(),
        }),
        cpu: SimDuration::from_secs(1),
        started: SimTime::ZERO,
        ckpt: condor::CkptAttempt::None,
        epoch,
    };
    // (the message for a job and epoch, the phase it acts in, a phase it
    // ignores)
    type Make = fn(u32, u64) -> Msg;
    let rows: [(Make, Phase, Phase); 5] = [
        // Live: robustness.rs `duplicate_match_notifications_are_idempotent`
        // (every claim a pool runs is accepted).
        (
            |job, epoch| Msg::ClaimAccept { job, epoch },
            claiming,
            running,
        ),
        // Live: soft_state.rs `a_claim_deadline_ends_only_its_own_claim`.
        (
            |job, epoch| Msg::ClaimReject {
                job,
                reason: "spoofed".into(),
                epoch,
            },
            claiming,
            running,
        ),
        // Live: pool.rs
        // `lease_converts_partition_into_explicit_error_on_both_sides`.
        (
            |job, epoch| Msg::Heartbeat { job, epoch },
            running,
            claiming,
        ),
        // Live: this table's own live case; E12's campaigns revoke flocked
        // claims under the oracle.
        (|job, epoch| Msg::ClaimRevoked { job, epoch }, running, idle),
        // Live: every pool that completes a job, e.g. the first test here.
        (report, running, claiming),
    ];
    let with = |script: &Script, to, msg: Msg| {
        let mut script = script.to_vec();
        script.push((7, to, msg));
        claim_world(&script)
    };
    for (make, (phase, live), (other, other_live)) in rows {
        let (schedd, events, dropped) = claim_world(phase);
        // (recipient, message, the stale drops it adds)
        let cases = [
            (SCHEDD, make(99, live), 0),    // a job nobody holds
            (SCHEDD, make(1, live - 1), 1), // an older epoch
            (RELAY, make(1, live), 0),      // a machine the claim is not on
        ];
        for (to, msg, stale) in cases {
            let quiet = (schedd.clone(), events.clone(), dropped + stale);
            assert!(
                with(phase, to, msg.clone()) == quiet,
                "{msg:?} to {to} changed the run"
            );
        }
        let msg = make(1, other_live);
        let acted = with(other, SCHEDD, msg.clone()) != claim_world(other);
        assert!(!acted, "{msg:?} acted in a phase it must ignore");
        let msg = make(1, live);
        let acted = with(phase, SCHEDD, msg.clone()) != (schedd, events, dropped);
        assert!(acted, "the live {msg:?} changed nothing");
    }
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
