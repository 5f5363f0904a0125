//! Ads travel by reference: a daemon builds its ad once and re-sends the
//! same allocation every time it advertises. These tests tap the wire to
//! pin both halves of that bargain — the ad *is* shared while its inputs
//! hold still, and it is rebuilt the moment one of them changes.

mod common;

use classads::ClassAd;
use common::Wiretap;
use condor::prelude::*;
use condor::{
    Activation, BreakerState, CircuitBreaker, FsSnapshot, MatchEngine, Matchmaker, Msg, Schedd,
    Startd,
};
use desim::prelude::*;
use gridvm::config::SelfTestDepth;
use gridvm::programs;
use std::sync::Arc;

fn java_job(id: u32) -> JobSpec {
    JobSpec::java(id, "ada", programs::uses_stdlib(), JavaMode::Scoped)
        .with_exec_time(SimDuration::from_secs(10))
}

fn requirements(ad: &ClassAd) -> String {
    ad.get("Requirements").expect("Requirements").to_string()
}

/// (a) A learning startd that meets a remote-resource failure drops its
/// cached ad: the instant it is free again it advertises a fresh one
/// without `HasJava` — a new child of the same base — and the matchmaker
/// stops offering the machine to java jobs.
#[test]
fn learning_startd_rebuilds_its_ad_without_java() {
    let mut world: World<Msg> = World::new(3);
    let tap = world.add_actor(Box::new(Wiretap::default()));
    let policy = StartdPolicy {
        self_test: SelfTestDepth::None, // the broken stdlib goes unnoticed…
        learn_from_failures: true,      // …until a job trips over it
        ..StartdPolicy::default()
    };
    let spec = MachineSpec::partially_misconfigured("half", 256);
    let startd = world.add_actor(Box::new(Startd::new(
        spec,
        policy,
        tap,
        FaultPlan::none().build(),
    )));

    // Start-up and the keep-alive at 15.
    world.run_until(SimTime::from_secs(16));
    let sent = |world: &World<Msg>, from: usize| -> Vec<(u64, Arc<ClassAd>)> {
        let tap = world.get::<Wiretap>(tap).unwrap();
        let ads = tap.machine_ads[from..].iter();
        ads.map(|seen| (seen.claims, Arc::clone(&seen.ad)))
            .collect()
    };
    let before = sent(&world, 0);
    assert_eq!(before.len(), 2);
    assert!(
        Arc::ptr_eq(&before[0].1, &before[1].1),
        "one ad, sent twice"
    );
    assert!(before.iter().all(|(claims, _)| *claims == 0));
    let before = Arc::clone(&before[0].1);
    assert!(before.has("HasJava") && before.has("MachineId"));

    // Claim and activate the machine "from outside" (injected messages
    // arrive as if from the startd itself, which is all its checks need).
    let job = java_job(1);
    world.inject(
        startd,
        Msg::ClaimRequest {
            job: 1,
            ad: Arc::new(job.ad()),
            epoch: 1,
            pool: 0,
        },
    );
    world.run_until(SimTime::from_secs(17));
    world.inject(
        startd,
        Msg::ActivateClaim(Box::new(Activation {
            job: 1,
            image: job.image.clone(),
            universe: job.universe,
            snapshot: FsSnapshot::default(),
            exec_time: job.exec_time,
            does_remote_io: false,
            schedd: startd,
            attempt: 0,
            resume: None,
            epoch: 1,
            lease: None,
            pool: 0,
        })),
    );
    // The run fails and the machine frees itself: the new ad leaves at
    // once, stamped with the claim it has accepted since, and the
    // keep-alives at 30 and 45 re-send it.
    world.run_until(SimTime::from_secs(29));
    let st = world.get::<Startd>(startd).unwrap();
    assert_eq!(st.stats.claims_accepted, 1);
    assert_eq!(st.stats.remote_resource_failures, 1);
    assert!(!st.advertising_java());
    let after = sent(&world, 2);
    assert_eq!(after.len(), 1, "advertised on change, not at the next tick");
    world.run_until(SimTime::from_secs(46));
    let after = sent(&world, 2);
    assert_eq!(after.len(), 3);
    assert!(after.iter().all(|(claims, _)| *claims == 1));
    assert!(after.iter().all(|(_, ad)| Arc::ptr_eq(ad, &after[0].1)));
    let after = Arc::clone(&after[0].1);
    assert!(!after.has("HasJava"), "the capability is revoked");
    assert!(!Arc::ptr_eq(&after, &before));
    // Only the child was rebuilt: what the owner configured is the same
    // allocation, and the capability was never part of it.
    let own = |ad: &ClassAd| {
        ad.own()
            .map(|(name, _)| name.to_owned())
            .collect::<Vec<_>>()
    };
    assert!(Arc::ptr_eq(
        before.parent().expect("chained"),
        after.parent().expect("chained")
    ));
    assert_eq!(own(&before), ["hasjava", "machineid", "name"]);
    assert_eq!(own(&after), ["machineid", "name"]);

    // Claims are checked against the same ad: a java claim is now refused.
    world.inject(
        startd,
        Msg::ClaimRequest {
            job: 2,
            ad: Arc::new(java_job(2).ad()),
            epoch: 1,
            pool: 0,
        },
    );
    world.run_until(SimTime::from_secs(47));
    assert_eq!(
        world.get::<Startd>(startd).unwrap().stats.claims_rejected,
        1
    );

    // And what the matchmaker makes of the two ads.
    let mut engine = MatchEngine::new();
    let mut rng = SimRng::seed_from_u64(1);
    let now = SimTime::from_secs(10);
    engine.insert_machine(startd, before, now);
    engine.insert_job(9, 1, job.ad());
    assert_eq!(engine.negotiate(now, &mut rng), vec![(9, 1, startd)]);
    engine.insert_machine(startd, after, now);
    engine.insert_job(9, 1, job.ad());
    assert_eq!(engine.negotiate(now, &mut rng), vec![]);
}

/// (b) Every idle job's advertised ad follows the avoided-machine list:
/// the same allocation from renewal to renewal while the list holds,
/// rebuilt with a `TARGET.MachineId =!= id` clause — and reissued at the
/// 5-s tick that notices — when a machine crosses `avoid_threshold` or its
/// breaker opens, and rebuilt without it when the breaker goes half-open.
/// The claim-time ad never carries exclusions.
#[test]
fn job_ads_follow_the_avoided_list() {
    let breaker = BreakerPolicy {
        threshold: 1,
        open_for: SimDuration::from_secs(20),
        max_open: SimDuration::from_secs(20),
    };
    let policy = ScheddPolicy {
        avoid_chronic_hosts: true,
        avoid_threshold: 2,
        breaker: Some(breaker),
        ..ScheddPolicy::default()
    };
    let mut world: World<Msg> = World::new(4);
    let tap = world.add_actor(Box::new(Wiretap::default()));
    let mut schedd = Schedd::new(tap, policy, FaultPlan::none().build());
    schedd.submit(java_job(1));
    schedd.submit(java_job(2));
    let schedd = world.add_actor(Box::new(schedd));
    let (chronic, tripped) = (7usize, 9usize);

    // Submission: nothing avoided, and the ticks at 5 and 10 find nothing
    // to say.
    world.run_until(SimTime::from_secs(11));
    // Machine 7 crosses the chronic threshold: the tick at 15 excludes it.
    let s = world.get_mut::<Schedd>(schedd).unwrap();
    s.chronic.insert(chronic, 2);
    world.run_until(SimTime::from_secs(21));
    // Machine 9's breaker opens until t=41: the tick at 25 excludes both,
    // and the renewal at 30 says so again.
    let mut b = CircuitBreaker::new(breaker);
    let opened = b
        .on_failure(world.now())
        .expect("threshold 1 opens at once");
    assert!(matches!(opened.to, BreakerState::Open { .. }));
    let s = world.get_mut::<Schedd>(schedd).unwrap();
    s.breakers.insert(tripped, b);
    // While both are excluded, a match arrives: the claim goes out with the
    // job's plain ad (the tap stands in for the machine, too).
    world.run_until(SimTime::from_secs(31));
    world.inject(
        schedd,
        Msg::MatchNotify {
            job: 2,
            machine: tap,
            pool: 0,
        },
    );
    // From t=41 the breaker is half-open: the probe readmits machine 9,
    // at the tick at 45.
    world.run_until(SimTime::from_secs(51));

    let tap = world.get::<Wiretap>(tap).unwrap();
    let sent_at: Vec<u64> = (tap.job_ad_msgs.iter())
        .map(|(at, _)| at.as_micros() / 1_000_000)
        .collect();
    assert_eq!(sent_at, [0, 15, 25, 30, 45], "one message each");
    // Job 1's ad as sent in the second after `secs`.
    let ad_at = |secs: u64| -> &Arc<ClassAd> {
        let mut sent = tap
            .job_ads
            .iter()
            .filter(|(at, job, ..)| at.as_secs_f64().floor() as u64 == secs && *job == 1);
        let (.., ad) = sent.next().expect("advertised in this second");
        assert!(sent.next().is_none(), "advertised once (t={secs})");
        ad
    };
    let excludes =
        |ad: &ClassAd, id: usize| requirements(ad).contains(&format!("TARGET.MachineId =!= {id}"));
    // (sent at, excludes 7, excludes 9, same allocation as the time before)
    let expected = [
        (0, false, false, false),
        (15, true, false, false),
        (25, true, true, false),
        (30, true, true, true),
        (45, true, false, false),
    ];
    let mut previous: Option<&Arc<ClassAd>> = None;
    for (tick, no_7, no_9, shared) in expected {
        let ad = ad_at(tick);
        assert_eq!(
            excludes(ad, chronic),
            no_7,
            "t={tick}: {}",
            requirements(ad)
        );
        assert_eq!(
            excludes(ad, tripped),
            no_9,
            "t={tick}: {}",
            requirements(ad)
        );
        assert_eq!(
            previous.is_some_and(|p| Arc::ptr_eq(p, ad)),
            shared,
            "t={tick}"
        );
        previous = Some(ad);
    }
    // Job 2 left the idle queue at t=31 and is no longer advertised.
    assert!(tap
        .job_ads
        .iter()
        .all(|(at, job, ..)| *job != 2 || *at < SimTime::from_secs(32)));
    assert_eq!(tap.claim_ads.len(), 1);
    assert_eq!(*tap.claim_ads[0], java_job(2).ad());
}

/// (d) A startd verifies a claim against the ad it advertised — `MachineId`
/// and all. An owner policy that reads `MY.MachineId` used to be matched on
/// the advertised ad and refused on a second one built without it, every
/// cycle, for ever: an implicit error nobody converted.
#[test]
fn an_owner_policy_may_read_the_machine_id() {
    let spec = MachineSpec {
        owner_requirements: "TARGET.ImageSize <= MY.Memory && MY.MachineId >= 0".into(),
        ..MachineSpec::healthy("m0", 256)
    };
    let job = JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
        .with_exec_time(SimDuration::from_secs(60));
    let report = PoolBuilder::new(1)
        .machine(spec)
        .job(job)
        .run(SimTime::from_secs(3600));
    let machine = report.machines.values().next().expect("one machine");
    assert!(report.quiescent);
    assert_eq!(report.metrics.jobs_completed, 1);
    assert_eq!(
        (
            report.matchmaker.matches_made,
            machine.claims_accepted,
            machine.claims_rejected
        ),
        (1, 1, 0)
    );
}

/// (c) A crash window silences a startd past `AD_LIFETIME`: its ad expires,
/// and when it comes back it re-advertises the very same allocation — which
/// the matchmaker re-admits into a shape that died with its last member (an
/// evaluation, not a reused verdict).
#[test]
fn silenced_startd_expires_and_is_readmitted_with_the_same_ad() {
    // Start-up and the keep-alive at 15 advertise; those at 30 and 45 fall
    // in the crash window; the ad last renewed at t≈15 outlives the t=40
    // cycle and is gone at t=50.
    let crash = Window::new(SimTime::from_secs(20), SimTime::from_secs(58));
    let spec = || MachineSpec::healthy("m", 256);

    // On the wire: the ad survives the crash.
    let mut world: World<Msg> = World::new(5);
    let tap = world.add_actor(Box::new(Wiretap::default()));
    let plan = FaultPlan::none().crash(tap + 1, crash).build();
    world.add_actor(Box::new(Startd::new(
        spec(),
        StartdPolicy::default(),
        tap,
        plan,
    )));
    world.run_until(SimTime::from_secs(76));
    let ads = &world.get::<Wiretap>(tap).unwrap().machine_ads;
    let at: Vec<u64> = ads.iter().map(|seen| seen.at.as_micros() / 1000).collect();
    assert_eq!(at, [1, 15_001, 60_001, 75_001], "ms; one network hop each");
    assert!(ads.iter().all(|seen| Arc::ptr_eq(&seen.ad, &ads[0].ad)));

    // At the matchmaker: expiry, then re-admission into a new shape.
    let mut world: World<Msg> = World::new(5);
    let mm = world.add_actor(Box::new(Matchmaker::new()));
    let plan = FaultPlan::none().crash(mm + 1, crash).build();
    world.add_actor(Box::new(Startd::new(
        spec(),
        StartdPolicy::default(),
        mm,
        plan,
    )));
    // A job that never matches: the machine's shape is probed (and the
    // pair's verdict reused) every cycle.
    world.add_actor(common::stuck_schedd(mm));
    let stats = |world: &World<Msg>| {
        let s = world.get::<Matchmaker>(mm).unwrap().stats();
        (s.pairs_evaluated, s.cache_hits, s.ads_active)
    };
    // Cycles at 10..=40: the machine's shape ranked and the pair evaluated
    // once, then reuse, while the ad lives.
    world.run_until(SimTime::from_secs(45));
    assert_eq!(stats(&world), (2, 3, 2));
    // Cycles at 50 and 60: the ad expired; only the job is left.
    world.run_until(SimTime::from_secs(65));
    assert_eq!(stats(&world), (2, 3, 1));
    // Cycle at 70: the same ad is back, its old shape long gone — ranked
    // and evaluated again.
    world.run_until(SimTime::from_secs(75));
    assert_eq!(stats(&world), (4, 3, 2));
    // Cycle at 80: and from then on the verdict is reused again.
    world.run_until(SimTime::from_secs(85));
    assert_eq!(stats(&world), (4, 4, 2));
    // The same story in the ad census: admitted twice, renewed at 15 and
    // 75, expired once.
    let s = world.get::<Matchmaker>(mm).unwrap().stats();
    assert_eq!(
        (s.ads_admitted, s.ads_refreshed, s.ads_expired, s.ads_fenced),
        (2, 2, 1, 0)
    );
}
