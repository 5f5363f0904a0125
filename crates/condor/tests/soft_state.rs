//! Soft state by lease: what a startd and a schedd say to the matchmaker,
//! when, and what the matchmaker makes of it.
//!
//! A free startd advertises the instant something changes and renews its
//! ad's lease every `KEEPALIVE_PERIOD` (half of `AD_LIFETIME`) in between;
//! a schedd does the same for its idle jobs, all of them in one message;
//! the matchmaker expires what is not renewed, and fences what crosses a
//! match. It runs a cycle only while it holds a job ad, so the worlds that
//! watch machine ads cycle by cycle queue one job no machine fits
//! (`common::stuck_schedd`). All times below are on the default 1 ms
//! network.

mod common;

use classads::ClassAd;
use common::Wiretap;
use condor::matchmaker::{AD_LIFETIME, NEGOTIATE_PERIOD};
use condor::prelude::*;
use condor::startd::KEEPALIVE_PERIOD;
use condor::{
    Activation, FederationBuilder, FsSnapshot, MatchEngine, Matchmaker, Msg, Schedd, Startd,
};
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

/// Machine ads the matchmaker held when its last cycle started, in a world
/// with a [`common::stuck_schedd`].
fn machines_held(world: &World<Msg>, mm: ActorId) -> u64 {
    ads_active(world, mm) - 1
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
    world.add_actor(common::stuck_schedd(mm));
    for cycle in 1..=T / 10 {
        world.run_until(secs(cycle * 10 + 1));
        assert_eq!(
            machines_held(&world, mm),
            N as u64,
            "cycle at {}",
            cycle * 10
        );
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
            world.add_actor(common::stuck_schedd(mm));
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
                let held = machines_held(&world, mm);
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
            assert_eq!(machines_held(&world, mm), 1, "onset {onset}");
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
    world.add_actor(common::stuck_schedd(mm));
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
        assert_eq!(machines_held(&world, mm), 1, "cycle at {cycle}");
    }
    // Those at 45 and 60 are lost: the ad renewed at 30 is kept at 60 and
    // gone at 70.
    cut(&mut world, 44, 61);
    assert_eq!(machines_held(&world, mm), 1);
    world.run_until(secs(71));
    assert_eq!(machines_held(&world, mm), 0);
    // The keep-alive at 75 re-admits it.
    world.run_until(secs(81));
    assert_eq!(machines_held(&world, mm), 1);
    let s = world.get::<Matchmaker>(mm).unwrap().stats();
    assert_eq!(
        (s.ads_admitted, s.ads_refreshed, s.ads_expired, s.ads_fenced),
        (2, 1, 1, 0)
    );
    assert_eq!(world.get::<Startd>(startd).unwrap().stats.ads_sent, 6);
    assert_eq!(world.net().stats().dropped_total(), 3);
}

// ---------------------------------------------------------------------
// (d) The schedd's half
// ---------------------------------------------------------------------

fn idle_job(id: u32, image_size: i64) -> JobSpec {
    JobSpec {
        image_size,
        ..JobSpec::java(id, "ada", programs::completes_main(), JavaMode::Scoped)
    }
}

/// Every way a job's ad changes is exactly one advertisement, of that job
/// alone, in that instant — submission, a rejected claim, the end of a
/// retry delay, a declined notification (with the new epoch that clears
/// the match's fence) — and a new avoided set reissues the idle queue at
/// the tick that notices it; a pool that grants hears of the queue at
/// once. In between, the renewal at every multiple of 15 s while something
/// is idle, and nothing while nothing is. The schedd (actor 2) talks to
/// two taps: its home matchmaker (0) and a remote pool's (1). Injected
/// messages arrive as if from the schedd itself, so the machine it is
/// matched to is its own id.
#[test]
fn the_schedd_says_what_changed_the_instant_it_changes() {
    let mut world: World<Msg> = World::new(8);
    let home = world.add_actor(Box::new(Wiretap::default()));
    let remote = world.add_actor(Box::new(Wiretap::default()));
    let policy = ScheddPolicy {
        retry: RetryPolicy::Fixed(SimDuration::from_secs(7)),
        avoid_chronic_hosts: true,
        avoid_threshold: 2,
        ..ScheddPolicy::default()
    };
    let flock = FlockConfig {
        pools: vec![FlockTarget {
            pool: 1,
            matchmaker: remote,
        }],
        ..FlockConfig::default()
    };
    let mut schedd = Schedd::new(home, policy, FaultPlan::none().build()).with_flock(flock);
    schedd.submit(idle_job(1, 64));
    let schedd = world.add_actor(Box::new(schedd));
    let (machine, shunned) = (schedd, 9);
    let matched = |machine| Msg::MatchNotify {
        job: 1,
        machine,
        pool: 0,
    };
    let rejected = Msg::ClaimReject {
        job: 1,
        reason: "busy".into(),
        epoch: 1,
    };
    for (at, msg) in [
        (3, matched(machine)),
        (4, rejected),
        (6, matched(machine)),
        // Silence: the job waits out its 7-s retry delay, to 14.
        (7, Msg::ClaimTimeout { job: 1, machine }),
        // By now (the chronic count moves at 16) the host is avoided.
        (22, matched(shunned)),
        // The answer to the probe the tick at 45 sent: idle since 14,
        // starved past the 30-s patience.
        (46, Msg::FlockGrant { pool: 1, free: 5 }),
    ] {
        world.inject_after(SimDuration::from_secs(at), schedd, msg);
    }
    world.run_until(secs(16));
    let s = world.get_mut::<Schedd>(schedd).unwrap();
    s.chronic.insert(shunned, 2);
    world.run_until(secs(61));

    // (arrival in ms, epoch, why), one message of one entry each.
    let expected = [
        (1, 0, "submitted"),
        (4_001, 2, "the claim was rejected"),
        (14_001, 4, "the retry delay ended"),
        (15_001, 4, "renewal"),
        (20_001, 4, "reissued: the tick found a host to avoid"),
        (22_001, 5, "declined the avoided host"),
        (30_001, 5, "renewal"),
        (45_001, 5, "renewal"),
        (60_001, 5, "renewal"),
    ];
    let tap = world.get::<Wiretap>(home).unwrap();
    let seen: Vec<(u64, u64)> = (tap.job_ads.iter())
        .map(|(at, _, epoch, _)| (ms(*at), *epoch))
        .collect();
    let wanted: Vec<(u64, u64)> = expected.iter().map(|&(at, epoch, _)| (at, epoch)).collect();
    assert_eq!(seen, wanted, "{expected:?}");
    assert!(tap.job_ad_msgs.iter().all(|&(_, entries)| entries == 1));
    assert_eq!(tap.job_ad_msgs.len(), expected.len());
    // One allocation while nothing is avoided, another from then on.
    let ad = |i: usize| &tap.job_ads[i].3;
    assert!((1..4).all(|i| Arc::ptr_eq(ad(i), ad(0))));
    assert!((5..9).all(|i| Arc::ptr_eq(ad(i), ad(4))));
    assert!(!Arc::ptr_eq(ad(4), ad(0)));
    let requirements = |ad: &ClassAd| ad.get("Requirements").unwrap().to_string();
    assert!(!requirements(ad(0)).contains("MachineId"));
    assert!(requirements(ad(4)).contains("TARGET.MachineId =!= 9"));

    // The remote pool: the queue the instant it granted, then renewals.
    let tap = world.get::<Wiretap>(remote).unwrap();
    let seen: Vec<(u64, u64)> = (tap.job_ads.iter())
        .map(|(at, _, epoch, _)| (ms(*at), *epoch))
        .collect();
    assert_eq!(seen, [(46_001, 5), (60_001, 5)]);
}

/// N idle jobs over T seconds cost the submission and `⌊T / 15⌋` renewal
/// messages of N entries — not the `N · T / 5` ads of the 5-s drumbeat —
/// every entry the allocation sent before, each a `ClusterId` chained to
/// the one base its shape shares. An empty queue sends and arms nothing.
#[test]
fn idle_jobs_are_renewed_in_one_message_at_half_the_ad_lifetime() {
    const N: usize = 40;
    const T: u64 = 100;
    let renewals = T / KEEPALIVE_PERIOD.as_secs_f64() as u64;

    let mut world: World<Msg> = World::new(1);
    let tap = world.add_actor(Box::new(Wiretap::default()));
    let mut schedd = Schedd::new(tap, ScheddPolicy::default(), FaultPlan::none().build());
    // One job of another shape among them.
    let image_size = |id: u32| if id == 7 { 128 } else { 64 };
    for id in 1..=N as u32 {
        schedd.submit(idle_job(id, image_size(id)));
    }
    world.add_actor(Box::new(schedd));
    world.run_until(secs(T));
    let tap = world.get::<Wiretap>(tap).unwrap();
    let at: Vec<(u64, usize)> = (tap.job_ad_msgs.iter())
        .map(|&(at, entries)| (ms(at), entries))
        .collect();
    let expected: Vec<(u64, usize)> = (0..=renewals).map(|k| (k * 15_000 + 1, N)).collect();
    assert_eq!(at, expected);
    let first = &tap.job_ads[..N];
    for (i, (_, job, epoch, ad)) in tap.job_ads.iter().enumerate() {
        let (_, first_job, _, first_ad) = &first[i % N];
        assert_eq!((job, *epoch), (first_job, 0));
        assert!(Arc::ptr_eq(ad, first_ad), "job {job}, message {}", i / N);
    }
    for (_, job, _, ad) in first {
        assert_eq!(**ad, idle_job(*job, image_size(*job)).ad(), "job {job}");
        let own: Vec<&str> = ad.own().map(|(name, _)| name).collect();
        assert_eq!(own, ["clusterid"]);
        let same_base = Arc::ptr_eq(ad.parent().unwrap(), first[0].3.parent().unwrap());
        assert_eq!(same_base, *job != 7, "job {job}");
    }

    let mut world: World<Msg> = World::new(1);
    let tap = world.add_actor(Box::new(Wiretap::default()));
    let empty = Schedd::new(tap, ScheddPolicy::default(), FaultPlan::none().build());
    world.add_actor(Box::new(empty));
    assert_eq!((world.run_until(secs(T)), world.pending()), (0, 0));
}

/// The lease is symmetric: with renewals at half the lifetime, one lost
/// renewal is survived, two in a row expire every job ad, and the third
/// re-establishes them all — waking a matchmaker that, holding no job, had
/// stopped running cycles.
#[test]
fn one_lost_renewal_is_survived_two_are_not() {
    const N: u32 = 5;
    let mut world: World<Msg> = World::new(4);
    let mm = world.add_actor(Box::new(Matchmaker::new()));
    let mut schedd = Schedd::new(mm, ScheddPolicy::default(), FaultPlan::none().build());
    for id in 1..=N {
        schedd.submit(idle_job(id, 1 << 20));
    }
    let schedd = world.add_actor(Box::new(schedd));
    let cut = |world: &mut World<Msg>, from: u64, to: u64| {
        world.run_until(secs(from));
        world.net_mut().partition(mm, schedd);
        world.run_until(secs(to));
        world.net_mut().heal(mm, schedd);
    };
    // The renewal at 15 is lost; the one at 30 arrives a hop after the
    // cycle at 30 has looked at 29.999-s-old ads and kept them.
    cut(&mut world, 14, 16);
    for cycle in [20, 30, 40] {
        world.run_until(secs(cycle + 1));
        assert_eq!(ads_active(&world, mm), u64::from(N), "cycle at {cycle}");
    }
    // Those at 45 and 60 are lost: the ads renewed at 30 are kept at 60
    // and gone at 70 — the last cycle there is a reason to run.
    cut(&mut world, 44, 61);
    assert_eq!(ads_active(&world, mm), u64::from(N));
    world.run_until(secs(79));
    let cycles = |world: &World<Msg>| world.get::<Matchmaker>(mm).unwrap().stats().cycles;
    assert_eq!((ads_active(&world, mm), cycles(&world)), (0, 7));
    // The renewal at 75 re-admits them, and arms the cycle at 80.
    world.run_until(secs(81));
    assert_eq!((ads_active(&world, mm), cycles(&world)), (u64::from(N), 8));
    assert_eq!(world.net().stats().dropped_total(), 3);
}

/// An ad its schedd stopped renewing leaves by itself. A starved job flocks
/// to a pool whose one machine is too small for it; then its home pool's
/// machine comes back and takes it. The copy at the remote pool — nobody
/// withdraws an ad — is held at every cycle up to `AD_LIFETIME` after its
/// last renewal and gone at the first cycle later than that, where it
/// used to sit until a machine matched it and the schedd looked away.
#[test]
fn an_ad_its_schedd_stopped_renewing_leaves_within_a_lifetime_and_a_cycle() {
    let builder = FederationBuilder::new(9)
        .pool([MachineSpec::healthy("home", 256)])
        .pool([MachineSpec::healthy("tiny", 32)])
        .job(idle_job(1, 64).with_exec_time(SimDuration::from_secs(200)));
    let home_machine = builder.machine_ids(0)[0];
    let crash = Window::new(secs(0), secs(40));
    let (mut world, schedd, _) = builder
        .faults(FaultPlan::none().crash(home_machine, crash))
        .build();
    let remote = FederationBuilder::matchmaker_id(1);
    let held = |world: &World<Msg>| {
        let s = world.get::<Matchmaker>(remote).unwrap().stats();
        (s.ads_active, s.cycles)
    };
    // Starved for 30 s, the job flocks: the remote pool grants at 30.002
    // and hears of it at 30.003; its cycles start at 40.
    world.run_until(secs(39));
    assert_eq!(held(&world), (0, 0));
    // Renewed at 45 — and matched at home at 50, to the machine whose
    // first keep-alive after the crash left at 45 too.
    world.run_until(secs(51));
    let running = |world: &World<Msg>| {
        let s = world.get::<Schedd>(schedd).unwrap();
        matches!(s.jobs[&1].state, JobState::Running { machine } if machine == home_machine)
    };
    assert!(running(&world));
    let last_renewal = SimTime::from_millis(45_001);
    let deadline = last_renewal + AD_LIFETIME;
    let mut cycle = secs(50);
    loop {
        world.run_until(cycle + SimDuration::from_secs(1));
        let (ads, cycles) = held(&world);
        // The tiny machine, and the job while its lease lasts.
        assert_eq!(ads, 1 + u64::from(cycle <= deadline), "cycle at {cycle}");
        assert_eq!(cycles, cycle.as_micros() / 10_000_000 - 3);
        if ads == 1 {
            break;
        }
        cycle += NEGOTIATE_PERIOD;
    }
    assert!(deadline < cycle && cycle <= deadline + NEGOTIATE_PERIOD);
    // With no job left the remote matchmaker runs no further cycle, and
    // never matched anything.
    world.run_until(secs(200));
    assert!(running(&world));
    let s = world.get::<Matchmaker>(remote).unwrap().stats();
    assert_eq!((s.cycles, s.matches_made), (5, 0));
}

/// A guard on the square. A queue four times as deep is four times the
/// work, not sixteen: 200 machines drain 400 jobs and then 1,600, and an
/// event per job costs the same within a fifth. Under the 5-s drumbeat
/// every idle job was an event every tick it stayed idle, and the same two
/// runs read 40,665 and 298,967 events — 101.7 and 186.9 a job, 1.84×
/// (568.9 a job at 6,400).
#[test]
fn events_per_job_do_not_grow_with_the_depth_of_the_queue() {
    let drain = |jobs: u32| {
        let report = common::pool_of(200, jobs).run(secs(48 * 3600));
        assert!(report.quiescent);
        report.events
    };
    let (shallow, deep) = (drain(400), drain(1_600));
    assert_eq!((shallow, deep), (33_771, 119_738));
    // 84.4 and 74.8 events a job: the deeper queue amortises its cycles.
    let per_job = [shallow as f64 / 400.0, deep as f64 / 1_600.0];
    assert!(per_job[1] <= 1.2 * per_job[0] && per_job[0] <= 1.2 * per_job[1]);
}

// ---------------------------------------------------------------------
// (e) Fences
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

/// A `MatchNotify` lost on the wire costs the job three cycles (two under
/// the 5-s job-ad drumbeat, one before the fences): the renewal its schedd
/// sends at 15 still carries the consumed ad's epoch and meets the fence;
/// the one at 30 arrives a hop after the cycle at 30 would have run; the
/// cycle at 40 matches it. The bound is `2 × KEEPALIVE_PERIOD` rounded up
/// to a cycle, `NEGOTIATE_PERIOD` after the match that was lost — and the
/// matchmaker runs exactly the cycles that have something to do: the match
/// at 10, the one at 20 that lowers its fences, the match at 40, and the
/// one at 50 that lowers those.
#[test]
fn a_lost_notification_is_rematched_within_three_cycles() {
    let (mut world, schedd, machines) = PoolBuilder::new(5)
        .machine(MachineSpec::healthy("first", 1024))
        .machine(MachineSpec::healthy("second", 256))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(20)),
        )
        .build();
    // The cycle at 10 matches the job to the bigger machine; the
    // notification is lost.
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
    // The first machine's own keep-alive at 15 was fenced too; the one at
    // 30 was not, so at 40 it is the bigger machine on offer again.
    let lost_at = 10;
    let rematched_at = lost_at + 3 * NEGOTIATE_PERIOD.as_micros() / 1_000_000;
    assert_eq!(
        matches,
        [
            (lost_at, machines[0] as u64),
            (rematched_at, machines[0] as u64)
        ]
    );
    let s = world.get::<Schedd>(schedd).unwrap();
    assert_eq!(s.metrics.jobs_completed, 1);
    assert_eq!(s.jobs[&1].attempts.len(), 1);
    let mm = world
        .get::<Matchmaker>(PoolBuilder::MATCHMAKER_ID)
        .unwrap()
        .stats();
    assert_eq!((mm.ads_fenced, mm.cycles), (1, 4));
    // What the cycle at 50 found: the second machine, and no job.
    assert_eq!(mm.ads_active, 1);
}

/// A notification the schedd declines (the host crossed the avoidance
/// threshold after the ad that matched it was sent) bumps the job's epoch
/// and re-advertises it in the same instant, so that ad clears the fence
/// the match left behind: the job is back in the queue two hops after the
/// cycle that matched it (at the schedd's next 5-s tick, before), not a
/// cycle later. (`the_schedd_says_what_changed_the_instant_it_changes`
/// pins the instant on the wire; this is the matchmaker's view.)
#[test]
fn a_declined_notification_reenters_the_queue_at_once() {
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
    // The ad sent at submission names no host to avoid; then the host
    // turns chronic.
    world.run_until(secs(7));
    world
        .get_mut::<Schedd>(schedd)
        .unwrap()
        .chronic
        .insert(machines[0], 2);
    // The cycle at 10 matches on the old ad; the schedd declines. (Its tick
    // at 10 saw the avoided set move and reissued the ad, epoch unchanged:
    // that one met the fence.)
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
    // the job, re-admitted at 10.002 s. It now excludes the host.
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
    engine.job_ad(1, 1, Arc::clone(&job), 0, at(1));
    assert_eq!(engine.negotiate(at(10_000), &mut rng), [(1, 1, 7)]);

    // 400 ms late, and once more for the duplicate.
    engine.machine_ad(7, Arc::clone(&machine), 0, at(10_400));
    engine.machine_ad(7, Arc::clone(&machine), 0, at(10_400));
    assert_eq!((engine.machine_count(), engine.stats.ads_fenced), (0, 2));
    // So is the job ad its schedd sent before it heard.
    engine.job_ad(1, 1, Arc::clone(&job), 0, at(10_400));
    assert_eq!(engine.job_count(), 0);
    // One claim later the machine is back for more: admitted.
    engine.machine_ad(7, Arc::clone(&machine), 1, at(12_400));
    assert_eq!((engine.machine_count(), engine.stats.ads_fenced), (1, 2));
    // The claim fell through at the schedd, which says so.
    engine.job_ad(1, 1, Arc::clone(&job), 2, at(12_400));
    assert_eq!(engine.job_count(), 1);
    assert_eq!(engine.negotiate(at(20_000), &mut rng), [(1, 1, 7)]);

    // A fence lasts one cycle: whatever arrives after the next one has
    // started is taken at its word (the claim protocol is what catches a
    // machine that is busy after all).
    assert_eq!(engine.negotiate(at(30_000), &mut rng), []);
    engine.machine_ad(7, Arc::clone(&machine), 1, at(30_400));
    engine.job_ad(1, 1, job, 2, at(30_400));
    assert_eq!((engine.machine_count(), engine.job_count()), (1, 1));
    assert_eq!(engine.stats.ads_fenced, 2);
    assert_eq!(
        (engine.stats.ads_admitted, engine.stats.ads_refreshed),
        (3, 0)
    );
}
