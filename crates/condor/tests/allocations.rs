//! What an advertisement allocates, held by counts.
//!
//! A machine's ad is a child of two or three attributes chained to a base
//! its pool shares, and a matchmaker that has placed children of that base
//! files the next one by comparing literals. Both are per-machine costs of
//! every world's start-up (20,000 of each in the ledger's `fed_scale`), so
//! both are pinned — as is what the builder spends on a machine before
//! either: a counting global allocator (`propcheck::counting`, in
//! a test crate so the library keeps `forbid(unsafe_code)`) counts what
//! the calling thread requests. The counts are a function of the code, not
//! of the host.

use classads::ClassAd;
use condor::prelude::*;
use condor::MatchEngine;
use desim::SimTime;
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

    // The builder: a machine costs its boxed startd, the name its
    // statistics go by and the one the world knows the actor by — and the
    // step that finds it the pool's shared base nothing (the integer
    // division forgives the world's tables growing).
    let per_machine = (build_allocates(2 * MACHINES) - build_allocates(MACHINES)) / MACHINES as u64;
    assert_eq!(per_machine, BUILD_PER_MACHINE);

    // A start-up advertisement: three attributes (two strings each, for the
    // name as written and as looked up, and one for `Name`'s value), the
    // map node that holds them, the `Arc`. Built base and all — what every
    // startd did before the base was shared — it is four times that.
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

/// Allocations per machine in `PoolBuilder::build`.
const BUILD_PER_MACHINE: u64 = 3;
/// Allocations per start-up advertisement over a shared base.
const STARTUP_AD: u64 = 9;
/// The same ad built over a base of its own (`MachineSpec::ad`).
const FLAT_AD: u64 = 38;
/// Allocations for 62 ingests of children of a known parent.
const KNOWN_PARENT_INGEST: u64 = 18;
