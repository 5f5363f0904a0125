//! What an advertisement allocates, held by counts.
//!
//! A machine's ad is a child of two or three attributes chained to a base
//! its pool shares, and a matchmaker that has placed children of that base
//! files the next one by comparing literals. Both are per-machine costs of
//! every world's start-up (20,000 of each in the ledger's `fed_scale`), so
//! both are pinned — as is what the builder spends on a machine before
//! either. A job's ad is the same thing on the other side — a `ClusterId`
//! chained to a base its schedd shares — and is pinned the same way: what
//! a submitted job costs its schedd to advertise, what one more child of a
//! known base costs the matchmaker, and what a renewal of the whole idle
//! queue costs, which is the same for forty jobs and for eighty. Once a
//! pool is warm, its steady state — idle machines renewing their ads in
//! same-instant batches — allocates nothing at all. To count: a counting
//! global allocator (`propcheck::counting`, in a test crate so the library
//! keeps `forbid(unsafe_code)`) counts what the calling thread requests.
//! The counts are a function of the code, not of the host.

use classads::ClassAd;
use condor::prelude::*;
use condor::{MatchEngine, Msg, Schedd};
use desim::prelude::*;
use propcheck::counting::{allocated, Counting};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: Counting = Counting;

const MACHINES: usize = 64;

/// The ad a startd builds at start-up, as `Startd` builds it.
fn startup_ad(spec: &MachineSpec, base: Arc<ClassAd>, id: usize) -> Arc<ClassAd> {
    Arc::new(spec.ad_over(base, true).with_int("MachineId", id as i64))
}

/// What `PoolBuilder::build` allocates for a pool of `machines` machines
/// of one owner configuration, the specs made beforehand.
fn build_allocates(machines: usize) -> u64 {
    let healthy = |i| MachineSpec::healthy(&format!("p0m{i}"), 256);
    let builder = PoolBuilder::new(1).machines((0..machines).map(healthy));
    allocated(|| builder.build()).1
}

#[test]
fn an_advertisement_allocates_for_the_machine_not_for_the_pool() {
    let specs: Vec<MachineSpec> = (0..MACHINES)
        .map(|i| MachineSpec::healthy(&format!("p0m{i}"), 256))
        .collect();
    let base = Arc::new(specs[0].base_ad());

    // The builder: a machine costs its boxed startd and the name the world
    // knows the actor by — its statistics keep the spec's own name, and
    // the step that finds it the pool's shared configuration costs nothing
    // (the integer division forgives the world's tables growing).
    let per_machine = (build_allocates(2 * MACHINES) - build_allocates(MACHINES)) / MACHINES as u64;
    assert_eq!(per_machine, BUILD_PER_MACHINE);

    // A start-up advertisement: three attributes (one string each, holding
    // the name as written and as looked up, and one for `Name`'s value),
    // the vector that holds them — grown to size once per attribute — and
    // the `Arc`. Built base and all — what every startd did before the
    // base was shared — it is four and a half times that.
    let (ads, per_ad, _) = allocated(|| {
        let ad = |(i, spec)| startup_ad(spec, Arc::clone(&base), 100 + i);
        specs.iter().enumerate().map(ad).collect::<Vec<_>>()
    });
    assert_eq!(
        (per_ad - 1) / MACHINES as u64,
        STARTUP_AD,
        "{per_ad} for {MACHINES}"
    );
    let (_, flat, _) = allocated(|| specs[0].ad(true).with_int("MachineId", 100));
    assert_eq!(flat, FLAT_AD);

    // Ingest: the first two children are compiled (the second to learn
    // that the shape is met twice); every one after joins by its literals.
    let mut engine = MatchEngine::new();
    let now = SimTime::ZERO;
    engine.insert_job(1, 1, JobSpec::java(1, "ada", vec![], JavaMode::Scoped).ad());
    engine.insert_machine(100, Arc::clone(&ads[0]), now);
    engine.insert_machine(101, Arc::clone(&ads[1]), now);
    let (_, ingest, _) = allocated(|| {
        for (i, ad) in ads.iter().enumerate().skip(2) {
            engine.insert_machine(100 + i, Arc::clone(ad), now);
        }
    });
    // The two ordered collections a machine is filed in take a node per
    // handful of entries; nothing is allocated per ad.
    assert_eq!(ingest, KNOWN_PARENT_INGEST, "for {} ads", MACHINES - 2);
    assert_eq!(engine.machine_count(), MACHINES);
}

/// Swallows what a schedd sends.
struct Sink;

impl Actor<Msg> for Sink {
    fn name(&self) -> String {
        "sink".into()
    }
    fn on_message(&mut self, _: ActorId, _: Msg, _: &mut Context<'_, Msg>) {}
}

/// A schedd with `jobs` idle jobs of one shape, beside a sink that stands
/// where its matchmaker would.
fn queue_of(jobs: u32) -> World<Msg> {
    let mut world: World<Msg> = World::new(1);
    let sink = world.add_actor(Box::new(Sink));
    let mut schedd = Schedd::new(sink, ScheddPolicy::default(), FaultPlan::none().build());
    for id in 1..=jobs {
        schedd.submit(JobSpec::java(id, "ada", Vec::new(), JavaMode::Scoped));
    }
    world.add_actor(Box::new(schedd));
    world
}

#[test]
fn a_job_ad_allocates_for_the_job_and_a_renewal_for_the_message() {
    const JOBS: u32 = 40;
    // The first advertisement: start-up, and the message's delivery.
    let first = |jobs: u32| {
        let mut world = queue_of(jobs);
        allocated(|| world.run_until(SimTime::from_millis(1))).1
    };
    // The job's own ad — `ClusterId`, both spellings in one string, the
    // vector that holds it, the `Arc` — and the schedd's record of it; the base
    // is built once, and the message is one allocation however long.
    assert_eq!(
        (first(2 * JOBS) - first(JOBS)) / u64::from(JOBS),
        SUBMITTED_JOB
    );

    // A renewal: the tick at 30 s and the message's delivery, the world
    // warm from the renewal at 15. The list of who is idle, the list that
    // is sent, whom it is sent to: no more for eighty jobs than for forty.
    let renewal = |jobs: u32| {
        let mut world = queue_of(jobs);
        world.run_until(SimTime::from_secs(29));
        allocated(|| world.run_until(SimTime::from_secs(31))).1
    };
    assert_eq!((renewal(JOBS), renewal(2 * JOBS)), (RENEWAL, RENEWAL));

    // Ingest: the first two children of a base are compiled (the second
    // to learn that the shape is met twice); every one after joins by its
    // literals, and a renewal of all of them allocates nothing at all.
    let flat = JobSpec::java(0, "ada", Vec::new(), JavaMode::Scoped).ad();
    let base = Arc::clone(flat.parent().expect("a job ad is chained"));
    let ads: Vec<Arc<ClassAd>> = (0..MACHINES as i64)
        .map(|id| Arc::new(ClassAd::chained(Arc::clone(&base)).with_int("ClusterId", id)))
        .collect();
    let mut engine = MatchEngine::new();
    let now = SimTime::ZERO;
    engine.insert_machine(100, MachineSpec::healthy("m", 256).ad(true), now);
    let ingest = |engine: &mut MatchEngine, from: usize| {
        for (id, ad) in ads.iter().enumerate().skip(from) {
            engine.job_ad(1, id as u32, Arc::clone(ad), 0, now);
        }
    };
    ingest(&mut engine, 0);
    let compiled = engine.stats.ads_compiled;
    engine.remove_job(1, 0);
    engine.remove_job(1, 1);
    // Jobs 2.. once more into an engine that holds them: nothing. Then
    // into one that does not: the ordered collection they are filed in
    // takes a node per handful of entries, and that is all.
    let (_, renewed, _) = allocated(|| ingest(&mut engine, 2));
    for id in 2..MACHINES as u32 {
        engine.remove_job(1, id);
    }
    let (_, ingested, _) = allocated(|| ingest(&mut engine, 2));
    assert_eq!(
        (renewed, ingested, engine.stats.ads_compiled),
        (0, KNOWN_PARENT_JOB_INGEST, compiled),
        "for {} ads",
        MACHINES - 2
    );
    assert_eq!(engine.job_count(), MACHINES - 2);
}

/// An idle pool of `machines` machines with its collector off, run to
/// 60 s: what dispatching its next nine minutes allocates. Every startd
/// renews its ad every 15 s, so each renewal is one same-instant batch of
/// `machines` deliveries.
fn idle_pool_allocates(machines: usize) -> u64 {
    let healthy = |i| MachineSpec::healthy(&format!("p0m{i}"), 256);
    let (mut world, _, _) = PoolBuilder::new(1)
        .machines((0..machines).map(healthy))
        .build();
    *world.telemetry_mut() = obs::Collector::disabled();
    world.run_until(SimTime::from_secs(60));
    allocated(|| world.run_until(SimTime::from_secs(600))).1
}

#[test]
fn steady_state_dispatch_allocates_nothing() {
    // The largest pool's batches outgrow any small buffer the engine
    // might keep and free above a size.
    for machines in [500, 2_000, 8_000] {
        assert_eq!(idle_pool_allocates(machines), 0, "{machines} machines");
    }
}

/// Allocations per submitted job at its first advertisement.
const SUBMITTED_JOB: u64 = 3;
/// Allocations per renewal of the idle queue, whatever its length.
const RENEWAL: u64 = 3;
/// Allocations for 62 ingests of job ads that are children of a known
/// parent.
const KNOWN_PARENT_JOB_INGEST: u64 = 9;
/// Allocations per machine in `PoolBuilder::build`.
const BUILD_PER_MACHINE: u64 = 2;
/// Allocations per start-up advertisement over a shared base.
const STARTUP_AD: u64 = 8;
/// The same ad built over a base of its own (`MachineSpec::ad`).
const FLAT_AD: u64 = 36;
/// Allocations for 62 ingests of children of a known parent.
const KNOWN_PARENT_INGEST: u64 = 18;
