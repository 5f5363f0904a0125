//! Soft state by lease: what a startd says to the matchmaker, when, and
//! what the matchmaker makes of it.
//!
//! A free startd advertises the instant something changes and renews its
//! ad's lease every `KEEPALIVE_PERIOD` (half of `AD_LIFETIME`) in between;
//! the matchmaker expires what is not renewed, and fences what crosses a
//! match. All times below are on the default 1 ms network.

mod common;

use classads::ClassAd;
use common::Wiretap;
use condor::matchmaker::{AD_LIFETIME, NEGOTIATE_PERIOD};
use condor::prelude::*;
use condor::startd::KEEPALIVE_PERIOD;
use condor::{Activation, FsSnapshot, MatchEngine, Matchmaker, Msg, Schedd, Startd};
use desim::prelude::*;
use gridvm::programs;
use std::sync::Arc;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// One network hop, in milliseconds since the start of the run.
fn ms(t: SimTime) -> u64 {
    t.as_micros() / 1000
}

fn idle_startd(name: &str, matchmaker: ActorId, plan: FaultPlan) -> Box<Startd> {
    Box::new(Startd::new(
        MachineSpec::healthy(name, 256),
        StartdPolicy::default(),
        matchmaker,
        plan.build(),
    ))
}

/// Machine + job ads the matchmaker held when its last cycle started.
fn ads_active(world: &World<Msg>, mm: ActorId) -> u64 {
    world.get::<Matchmaker>(mm).unwrap().stats().ads_active
}

// ---------------------------------------------------------------------
// (a) Cadence
// ---------------------------------------------------------------------

/// N idle startds over T seconds send `1 + ⌊T / 15⌋` ads each — start-up,
/// then the keep-alives — every one the same allocation, and the
/// matchmaker holds all N at every cycle for the price of N admissions.
#[test]
fn idle_startds_keep_alive_at_half_the_ad_lifetime() {
    const N: usize = 40;
    const T: u64 = 100;
    assert_eq!(KEEPALIVE_PERIOD.as_micros() * 2, AD_LIFETIME.as_micros());
    let keepalives = T / KEEPALIVE_PERIOD.as_secs_f64() as u64;

    let mut world: World<Msg> = World::new(1);
    let tap = world.add_actor(Box::new(Wiretap::default()));
    let startds: Vec<ActorId> = (0..N)
        .map(|i| world.add_actor(idle_startd(&format!("m{i}"), tap, FaultPlan::none())))
        .collect();
    world.run_until(secs(T));
    let tap = world.get::<Wiretap>(tap).unwrap();
    for &id in &startds {
        let mine: Vec<_> = tap.machine_ads.iter().filter(|a| a.from == id).collect();
        let at: Vec<u64> = mine.iter().map(|a| ms(a.at)).collect();
        let expected: Vec<u64> = (0..=keepalives).map(|k| k * 15_000 + 1).collect();
        assert_eq!(at, expected, "startd {id}");
        assert!(mine.iter().all(|a| Arc::ptr_eq(&a.ad, &mine[0].ad)));
        assert!(mine.iter().all(|a| a.claims == 0));
        assert_eq!(
            world.get::<Startd>(id).unwrap().stats.ads_sent,
            1 + keepalives
        );
    }

    let mut world: World<Msg> = World::new(1);
    let mm = world.add_actor(Box::new(Matchmaker::new()));
    for i in 0..N {
        world.add_actor(idle_startd(&format!("m{i}"), mm, FaultPlan::none()));
    }
    for cycle in 1..=T / 10 {
        world.run_until(secs(cycle * 10 + 1));
        assert_eq!(ads_active(&world, mm), N as u64, "cycle at {}", cycle * 10);
    }
    let s = world.get::<Matchmaker>(mm).unwrap().stats();
    assert_eq!(
        (s.ads_admitted, s.ads_refreshed, s.ads_expired, s.ads_fenced),
        (N as u64, N as u64 * keepalives, 0, 0)
    );
}

// ---------------------------------------------------------------------
// (b) On change
// ---------------------------------------------------------------------

/// A startd wired to a tap (actor 0) that stands in for matchmaker and
/// checkpoint server, driven by messages injected at whole seconds (an
/// injected message arrives as if from the startd itself, which is all its
/// checks need). Returns when each machine ad reached the tap, in ms, and
/// the claim count it carried.
fn ads_of(plan: FaultPlan, script: Vec<(u64, Msg)>, until: u64) -> Vec<(u64, u64)> {
    let mut world: World<Msg> = World::new(7);
    let tap = world.add_actor(Box::new(Wiretap::default()));
    let startd = Startd::new(
        MachineSpec::healthy("m", 256),
        StartdPolicy::default(),
        tap,
        plan.build(),
    )
    .with_ckpt_server(tap, chirp::cookie::Cookie::generate(1));
    let startd = world.add_actor(Box::new(startd));
    for (at, msg) in script {
        world.inject_after(SimDuration::from_secs(at), startd, msg);
    }
    world.run_until(secs(until));
    let tap = world.get::<Wiretap>(tap).unwrap();
    let ads = tap.machine_ads.iter();
    ads.map(|a| (ms(a.at), a.claims)).collect()
}

fn job(universe: Universe) -> JobSpec {
    JobSpec {
        universe,
        ..JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
    }
}

fn claim(universe: Universe) -> Msg {
    Msg::ClaimRequest {
        job: 1,
        ad: Arc::new(job(universe).ad()),
        epoch: 1,
        pool: 0,
    }
}

fn activation(universe: Universe, exec_s: u64) -> Activation {
    Activation {
        job: 1,
        image: job(universe).image,
        universe,
        snapshot: FsSnapshot::default(),
        exec_time: SimDuration::from_secs(exec_s),
        does_remote_io: false,
        schedd: 1,
        attempt: 0,
        resume: None,
        epoch: 1,
        lease: None,
        pool: 0,
    }
}

/// The eight ways a machine frees itself, each through `Startd::release`:
/// the ad leaves in the same instant — stamped with the claim accepted
/// since, so it clears the fence its own match left behind — unless the
/// machine is crashed or its owner is at the keyboard, in which case the
/// first keep-alive after the window speaks for it. Every row's machine
/// advertises at start-up and keeps alive at 15 before the story starts;
/// a machine that is claimed, running or fetching is silent.
#[test]
fn a_machine_says_so_the_instant_it_frees_itself() {
    let java = Universe::Java(JavaMode::Scoped);
    let window = |from, to| Window::new(secs(from), secs(to));
    let crash = |from, to| FaultPlan::none().crash(1, window(from, to));
    let activate = |act: Activation| Msg::ActivateClaim(Box::new(act));
    // (way, faults, script, run until, ads after the first two as (ms, claims))
    type Row = (
        &'static str,
        FaultPlan,
        Vec<(u64, Msg)>,
        u64,
        Vec<(u64, u64)>,
    );
    let rows: Vec<Row> = vec![
        (
            "the claim is never activated and expires after 60 s",
            FaultPlan::none(),
            vec![(20, claim(java))],
            100,
            vec![(80_001, 1), (90_001, 1)],
        ),
        (
            "the schedd releases the claim",
            FaultPlan::none(),
            vec![(20, claim(java)), (22, Msg::ReleaseClaim { job: 1 })],
            40,
            vec![(22_001, 1), (30_001, 1)],
        ),
        (
            "the activation is fenced to another pool and revoked",
            FaultPlan::none(),
            vec![
                (20, claim(java)),
                (
                    21,
                    activate(Activation {
                        pool: 7,
                        ..activation(java, 10)
                    }),
                ),
            ],
            40,
            vec![(21_001, 1), (30_001, 1)],
        ),
        (
            "the run ends and the report is sent",
            FaultPlan::none(),
            vec![(20, claim(java)), (21, activate(activation(java, 10)))],
            50,
            vec![(31_001, 1), (45_001, 1)],
        ),
        (
            "the schedd's acks stop and the startd's side of the lease expires",
            FaultPlan::none(),
            vec![
                (20, claim(java)),
                (
                    21,
                    activate(Activation {
                        lease: Some(LeaseInfo {
                            interval: SimDuration::from_secs(10),
                            timeout: SimDuration::from_secs(30),
                        }),
                        ..activation(java, 100)
                    }),
                ),
            ],
            70,
            vec![(51_001, 1), (60_001, 1)],
        ),
        (
            // Freed by the tick at 30, or it would sit claimed (and silent)
            // until the claim expired at 80.
            "a tick finds the machine crashed: freed, but silent while down",
            crash(25, 50),
            vec![(20, claim(java))],
            79,
            vec![(60_001, 1), (75_001, 1)],
        ),
        (
            // No tick falls in the window; the end of the run notices.
            "the machine crashed during the run: no report, but back at once",
            crash(20, 25),
            vec![(16, claim(java)), (17, activate(activation(java, 12)))],
            40,
            vec![(29_001, 1), (30_001, 1)],
        ),
        (
            "the checkpoint arrives at a crashed machine: freed, silent while down",
            crash(20, 29),
            vec![
                (16, claim(Universe::Standard)),
                (
                    17,
                    activate(Activation {
                        resume: Some(condor::ResumeInfo {
                            key: "ckpt/job1/0".into(),
                            banked: SimDuration::from_secs(5),
                        }),
                        ..activation(Universe::Standard, 10)
                    }),
                ),
                (22, Msg::CkptResponse { frames: Vec::new() }),
            ],
            50,
            vec![(30_001, 1), (45_001, 1)],
        ),
        (
            // Evicted at the window's onset: the report goes, the ad waits.
            "the owner comes back mid-run: reported, but silent while in use",
            FaultPlan::none().owner_activity(1, window(25, 50)),
            vec![(20, claim(java)), (21, activate(activation(java, 10)))],
            80,
            vec![(60_001, 1), (75_001, 1)],
        ),
    ];
    for (way, plan, script, until, after) in rows {
        let mut expected = vec![(1, 0), (15_001, 0)];
        expected.extend(after);
        assert_eq!(ads_of(plan, script, until), expected, "{way}");
    }
}

// ---------------------------------------------------------------------
// (c) Expiry
// ---------------------------------------------------------------------

/// Detection is as fast as under the drumbeat: a startd that falls silent
/// (crashed, or cut off from the matchmaker) is in the pool at every cycle
/// up to `AD_LIFETIME` after its last ad, gone at the first cycle later
/// than that — at most a negotiation period more — and back with its
/// first ad after the window.
#[test]
fn a_silent_startd_leaves_within_a_lifetime_and_a_cycle() {
    for onset in [1, 7, 14, 16, 22, 29, 31, 44, 58] {
        for partitioned in [false, true] {
            let end = onset + 100;
            let plan = if partitioned {
                FaultPlan::none()
            } else {
                FaultPlan::none().crash(1, Window::new(secs(onset), secs(end)))
            };
            let mut world: World<Msg> = World::new(3);
            let mm = world.add_actor(Box::new(Matchmaker::new()));
            let startd = world.add_actor(idle_startd("m", mm, plan));
            world.run_until(secs(onset));
            if partitioned {
                world.net_mut().partition(mm, startd);
            }
            // The last ad left at the last tick before the onset.
            let last_ad = secs(onset / 15 * 15) + SimDuration::from_millis(1);
            let deadline = last_ad + AD_LIFETIME;
            let mut cycle = secs(onset.div_ceil(10) * 10);
            loop {
                world.run_until(cycle + SimDuration::from_secs(1));
                let held = ads_active(&world, mm);
                assert_eq!(
                    held,
                    u64::from(cycle <= deadline),
                    "onset {onset}, partitioned {partitioned}, cycle at {cycle}"
                );
                if held == 0 {
                    break;
                }
                cycle += NEGOTIATE_PERIOD;
            }
            assert!(cycle <= deadline + NEGOTIATE_PERIOD);

            world.run_until(secs(end));
            world.net_mut().heal(mm, startd);
            // The first keep-alive after the window, and the cycle after it.
            let back = end.div_ceil(15) * 15;
            world.run_until(secs(back.div_ceil(10) * 10 + 11));
            assert_eq!(ads_active(&world, mm), 1, "onset {onset}");
            let s = world.get::<Matchmaker>(mm).unwrap().stats();
            assert_eq!((s.ads_admitted, s.ads_expired), (2, 1));
        }
    }
}

/// The lease arithmetic: with keep-alives at half the lifetime, one lost
/// keep-alive is survived, two in a row expire the ad, and the next one
/// brings the machine back.
#[test]
fn one_lost_keepalive_is_survived_two_are_not() {
    let mut world: World<Msg> = World::new(4);
    let mm = world.add_actor(Box::new(Matchmaker::new()));
    let startd = world.add_actor(idle_startd("m", mm, FaultPlan::none()));
    let cut = |world: &mut World<Msg>, from: u64, to: u64| {
        world.run_until(secs(from));
        world.net_mut().partition(mm, startd);
        world.run_until(secs(to));
        world.net_mut().heal(mm, startd);
    };
    // The keep-alive at 15 is lost; the one at 30 arrives a hop after the
    // cycle at 30 has looked at a 29.999-s-old ad and kept it.
    cut(&mut world, 14, 16);
    for cycle in [20, 30, 40] {
        world.run_until(secs(cycle + 1));
        assert_eq!(ads_active(&world, mm), 1, "cycle at {cycle}");
    }
    // Those at 45 and 60 are lost: the ad renewed at 30 is kept at 60 and
    // gone at 70.
    cut(&mut world, 44, 61);
    assert_eq!(ads_active(&world, mm), 1);
    world.run_until(secs(71));
    assert_eq!(ads_active(&world, mm), 0);
    // The keep-alive at 75 re-admits it.
    world.run_until(secs(81));
    assert_eq!(ads_active(&world, mm), 1);
    let s = world.get::<Matchmaker>(mm).unwrap().stats();
    assert_eq!(
        (s.ads_admitted, s.ads_refreshed, s.ads_expired, s.ads_fenced),
        (2, 1, 1, 0)
    );
    assert_eq!(world.get::<Startd>(startd).unwrap().stats.ads_sent, 6);
    assert_eq!(world.net().stats().dropped_total(), 3);
}

// ---------------------------------------------------------------------
// (d) Fences
// ---------------------------------------------------------------------

/// With both fences up, a match is a claim. Every notification crosses a
/// job ad and a keep-alive sent the same instant; unfenced, each would be
/// matched again. Fenced, 450 jobs over 300 machines are matched 450 times,
/// each match is claimed and no claim finds its machine busy. And the ad
/// census balances: on a
/// fault-free network, at an instant with nothing in flight, every ad a
/// startd sent was admitted, renewed a lease, or met a fence.
#[test]
fn a_drain_matches_each_job_once_and_the_census_balances() {
    let (mut world, schedd, machines) = common::drain_pool().build();
    // Drained at 420 s; the last keep-alives left at 600.
    world.run_until(secs(601));
    assert!(world.get::<Schedd>(schedd).unwrap().all_done());
    let total = |world: &World<Msg>, of: fn(&condor::MachineStats) -> u64| -> u64 {
        let startds = machines.iter().map(|&id| world.get::<Startd>(id).unwrap());
        startds.map(|s| of(&s.stats)).sum()
    };
    let requested = world
        .telemetry()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                obs::Event::Claim {
                    outcome: obs::ClaimOutcome::Requested,
                    ..
                }
            )
        })
        .count() as u64;
    let mm = world
        .get::<Matchmaker>(PoolBuilder::MATCHMAKER_ID)
        .unwrap()
        .stats()
        .clone();
    assert_eq!((mm.matches_made, requested), (450, 450));
    assert_eq!(total(&world, |m| m.claims_accepted), 450);
    assert_eq!(total(&world, |m| m.claims_rejected), 0);

    let sent = total(&world, |m| m.ads_sent);
    assert_eq!(
        sent,
        mm.ads_refreshed + mm.ads_admitted + mm.ads_fenced,
        "{mm:?}"
    );
    // One admission per machine at start-up and one per job it then ran.
    assert_eq!((mm.ads_admitted, mm.ads_expired), (300 + 450, 0));

    // What an idle machine costs from here on: a keep-alive every 15 s,
    // 4 ads a minute (12 under the 5-s drumbeat).
    world.run_until(secs(901));
    assert_eq!(total(&world, |m| m.ads_sent) - sent, 300 * 5 * 4);
}

/// A `MatchNotify` lost on the wire costs the job two cycles, not one: the
/// ads its schedd sends meanwhile still carry the consumed ad's epoch and
/// wait behind the fence until the next cycle starts.
#[test]
fn a_lost_notification_is_rematched_within_two_cycles() {
    let (mut world, schedd, machines) = PoolBuilder::new(5)
        .machine(MachineSpec::healthy("first", 1024))
        .machine(MachineSpec::healthy("second", 256))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(20)),
        )
        .build();
    // The cycle at 10 matches the job to the bigger machine; the
    // notification (and the schedd's tick-10 ad) are lost.
    world.run_until(SimTime::from_millis(9_500));
    world
        .net_mut()
        .partition(PoolBuilder::MATCHMAKER_ID, schedd);
    world.run_until(SimTime::from_millis(10_500));
    world.net_mut().heal(PoolBuilder::MATCHMAKER_ID, schedd);
    world.run_until(secs(100));

    let matches: Vec<(u64, u64)> = world
        .telemetry()
        .iter()
        .filter_map(|r| match r.event {
            obs::Event::Match { machine, .. } => Some((r.at_us / 1_000_000, *machine)),
            _ => None,
        })
        .collect();
    // Nothing at 20: the tick-15 job ad was fenced, the tick-20 one arrives
    // a hop after the cycle. The first machine's own keep-alive at 15 was
    // fenced too, so the job goes to the second.
    assert_eq!(
        matches,
        [(10, machines[0] as u64), (30, machines[1] as u64)]
    );
    let s = world.get::<Schedd>(schedd).unwrap();
    assert_eq!(s.metrics.jobs_completed, 1);
    assert_eq!(s.jobs[&1].attempts.len(), 1);
    let mm = world
        .get::<Matchmaker>(PoolBuilder::MATCHMAKER_ID)
        .unwrap()
        .stats();
    // The first machine's keep-alive at 15, and the second's at 30 — sent
    // the instant the cycle matched it.
    assert_eq!(mm.ads_fenced, 2);
    // The unclaimed first machine was back with its keep-alive at 30, the
    // second the moment the job was done.
    assert_eq!(mm.ads_active, 2);
}

/// A notification the schedd declines (the host crossed the avoidance
/// threshold after the ad that matched it was sent) bumps the job's epoch,
/// so its very next ad clears the fence the match left behind: the job is
/// back in the queue at the schedd's next tick, not a cycle later.
#[test]
fn a_declined_notification_reenters_the_queue_at_the_next_tick() {
    let (mut world, schedd, machines) = PoolBuilder::new(6)
        .machine(MachineSpec::healthy("shunned", 256))
        .schedd_policy(ScheddPolicy {
            avoid_chronic_hosts: true,
            avoid_threshold: 2,
            ..ScheddPolicy::default()
        })
        .job(JobSpec::java(
            1,
            "ada",
            programs::completes_main(),
            JavaMode::Scoped,
        ))
        .build();
    // The tick-5 ad names no host to avoid; then the host turns chronic.
    world.run_until(secs(7));
    world
        .get_mut::<Schedd>(schedd)
        .unwrap()
        .chronic
        .insert(machines[0], 2);
    // The cycle at 10 matches on the old ad; the schedd declines.
    world.run_until(secs(11));
    let s = world.get::<Schedd>(schedd).unwrap();
    assert!(matches!(s.jobs[&1].state, JobState::Idle));
    assert_eq!(
        s.jobs[&1].epoch, 1,
        "declining opened no claim, but says so"
    );
    let mm = |world: &World<Msg>| {
        let mm = world.get::<Matchmaker>(PoolBuilder::MATCHMAKER_ID).unwrap();
        (mm.stats().matches_made, mm.stats().ads_active)
    };
    assert_eq!(mm(&world), (1, 2));
    // At the cycle at 20 the machine is still behind its fence (its
    // keep-alive at 15 carried no new claim) — what the matchmaker holds is
    // the job, re-admitted from the tick at 15. It now excludes the host.
    world.run_until(secs(21));
    assert_eq!(mm(&world), (1, 1));
    world.run_until(secs(61));
    assert_eq!(mm(&world), (1, 2), "queued beside the machine it avoids");
}

/// The machine fence at the engine: an ad that does not postdate the one a
/// match consumed — late on the wire, or a duplicate — is dropped; the ad
/// the machine sends after accepting the claim (here: having failed fast
/// 2 s later) is not; and the fence is gone when the next cycle starts.
#[test]
fn an_ad_that_crosses_its_own_match_is_fenced() {
    let at = SimTime::from_millis;
    let machine = Arc::new(MachineSpec::healthy("m", 256).ad(true));
    let job: Arc<ClassAd> =
        Arc::new(JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped).ad());
    let mut rng = SimRng::seed_from_u64(1);
    let mut engine = MatchEngine::new();
    engine.machine_ad(7, Arc::clone(&machine), 0, at(1));
    engine.job_ad(1, 1, Arc::clone(&job), 0);
    assert_eq!(engine.negotiate(at(10_000), &mut rng), [(1, 1, 7)]);

    // 400 ms late, and once more for the duplicate.
    engine.machine_ad(7, Arc::clone(&machine), 0, at(10_400));
    engine.machine_ad(7, Arc::clone(&machine), 0, at(10_400));
    assert_eq!((engine.machine_count(), engine.stats.ads_fenced), (0, 2));
    // So is the job ad its schedd sent before it heard.
    engine.job_ad(1, 1, Arc::clone(&job), 0);
    assert_eq!(engine.job_count(), 0);
    // One claim later the machine is back for more: admitted.
    engine.machine_ad(7, Arc::clone(&machine), 1, at(12_400));
    assert_eq!((engine.machine_count(), engine.stats.ads_fenced), (1, 2));
    // The claim fell through at the schedd, which says so.
    engine.job_ad(1, 1, Arc::clone(&job), 2);
    assert_eq!(engine.job_count(), 1);
    assert_eq!(engine.negotiate(at(20_000), &mut rng), [(1, 1, 7)]);

    // A fence lasts one cycle: whatever arrives after the next one has
    // started is taken at its word (the claim protocol is what catches a
    // machine that is busy after all).
    assert_eq!(engine.negotiate(at(30_000), &mut rng), []);
    engine.machine_ad(7, Arc::clone(&machine), 1, at(30_400));
    engine.job_ad(1, 1, job, 2);
    assert_eq!((engine.machine_count(), engine.job_count()), (1, 1));
    assert_eq!(engine.stats.ads_fenced, 2);
    assert_eq!(
        (engine.stats.ads_admitted, engine.stats.ads_refreshed),
        (3, 0)
    );
}
