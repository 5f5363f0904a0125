//! `fed_scale` and `fed_scale_par` — E13's scaling world, downscaled,
//! through the sequential and the parallel engine.
//!
//! Five pools of four thousand machines idle around eight hundred jobs:
//! periodic ads and heartbeats from twenty thousand startds, a deep
//! event queue, actor state that misses cache, telemetry bypassed. Both
//! workloads build the identical world so a change that helps one
//! engine and costs the other shows. A failed operation is a broken
//! harness invariant (no events processed, or a message dropped on a
//! fault-free network).

use super::pool::{condor_counts, desim_counts, digest_job, java_job, policy, terminal_jobs};
use super::{Outcome, Sizes};
use crate::stats::Fnv;
use crate::tracer::{Kind, Tracer};
use condor::prelude::*;
use condor::{MachineStats, Matchmaker, MatchmakerStats, Msg, Schedd, Startd};
use desim::{ParConfig, SimDuration, SimTime, World};
use std::collections::BTreeMap;

/// Shards of the parallel run. Part of the output, so fixed.
pub const SHARDS: usize = 8;

/// Worker threads for the parallel engine: `min(2, nproc)`.
pub fn par_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The built federation: the world, the flocking schedd, the machines.
pub struct Built {
    world: World<Msg>,
    schedd: usize,
    machines: Vec<usize>,
}

/// `setup`: specs from the seed, `FederationBuilder::build`, then E13's
/// two adjustments (50 ms lookahead, collector disabled).
pub fn setup(seed: u64, sizes: &Sizes, t: &Tracer) -> Built {
    let mut b = FederationBuilder::new(seed);
    for p in 0..sizes.fed_pools {
        b = b.pool(
            (0..sizes.fed_machines_per_pool)
                .map(|i| MachineSpec::healthy(&format!("p{p}m{i}"), 256)),
        );
    }
    let b = b
        .jobs((1..=sizes.fed_jobs).map(java_job))
        .schedd_policy(policy())
        .without_trace();
    let (mut world, schedd, pool_of_machine) = t.span(Kind::CondorBuild, || b.build());
    world
        .net_mut()
        .set_default_latency(SimDuration::from_millis(50));
    *world.telemetry_mut() = obs::Collector::disabled();
    Built {
        world,
        schedd,
        machines: pool_of_machine.into_keys().collect(),
    }
}

/// What either engine leaves behind, read through the same accessors.
struct Finished<'a> {
    events: u64,
    now: SimTime,
    horizon: SimTime,
    pending: usize,
    net: &'a desim::NetStats,
    telemetry: &'a obs::Collector,
    schedd: &'a Schedd,
    machines: Vec<&'a MachineStats>,
    matchmakers: Vec<&'a MatchmakerStats>,
}

fn outcome(f: Finished<'_>, t: &Tracer) -> Outcome {
    let digest = t.span(Kind::LedgerDigest, || {
        let mut h = Fnv::default();
        h.u64(f.events);
        h.u64(f.now.as_micros());
        h.u64(f.net.dropped_total());
        for rec in f.schedd.jobs.values() {
            digest_job(&mut h, rec);
        }
        h.finish()
    });
    let mut counts = BTreeMap::new();
    condor_counts(
        &mut counts,
        &f.schedd.metrics,
        f.machines.iter().copied(),
        &f.matchmakers,
    );
    desim_counts(&mut counts, f.events, f.pending, f.net, f.telemetry);
    let dropped = f.net.dropped_total();
    let mut agreed = Fnv::default();
    // `now_us` is clamped to the horizon: `World::run_until` stops the
    // clock at the horizon, `ParWorld::run_until` at the end of its last
    // conservative window (up to one 50 ms lookahead later).
    for v in [
        f.events,
        f.now.min(f.horizon).as_micros(),
        dropped,
        f.pending as u64,
    ] {
        agreed.u64(v);
    }
    Outcome {
        digest,
        engine_digest: agreed.finish(),
        events: f.events,
        jobs: terminal_jobs(f.schedd.jobs.values()),
        attempted: 1,
        failed: u64::from(f.events == 0 || dropped != 0),
        counts,
        ..Outcome::default()
    }
}

/// `fed_scale`: sequential `World::run_until(horizon)`.
pub fn run_seq(built: Built, sizes: &Sizes, t: &Tracer) -> Outcome {
    obs::reset_span_ids(0);
    let Built {
        mut world,
        schedd,
        machines,
    } = built;
    let horizon = SimTime::from_secs(sizes.fed_horizon_s);
    t.span(Kind::DesimRun, || world.run_until(horizon));
    let finished = t.span(Kind::CondorReport, || Finished {
        events: world.events_processed(),
        now: world.now(),
        horizon,
        pending: world.pending(),
        net: world.net().stats(),
        telemetry: world.telemetry(),
        schedd: world.get::<Schedd>(schedd).expect("schedd"),
        machines: machines
            .iter()
            .map(|&id| &world.get::<Startd>(id).expect("startd").stats)
            .collect(),
        matchmakers: (0..sizes.fed_pools as usize)
            .map(|p| world.get::<Matchmaker>(p).expect("matchmaker").stats())
            .collect(),
    });
    let out = outcome(finished, t);
    t.span(Kind::DesimTeardown, || drop(world));
    out
}

/// `fed_scale_par`: the identical world through `into_parallel` →
/// `run_until(horizon)` → `finish`.
pub fn run_par(built: Built, sizes: &Sizes, t: &Tracer) -> Outcome {
    obs::reset_span_ids(0);
    let Built {
        world,
        schedd,
        machines,
    } = built;
    let horizon = SimTime::from_secs(sizes.fed_horizon_s);
    let cfg = ParConfig::new(SHARDS, par_threads());
    let mut pw = t.span(Kind::DesimParConvert, || world.into_parallel(cfg));
    t.span(Kind::DesimRun, || pw.run_until(horizon));
    let pending = pw.pending();
    let fin = t.span(Kind::DesimParFinish, || pw.finish());
    let finished = t.span(Kind::CondorReport, || Finished {
        events: fin.events_processed,
        now: fin.now,
        horizon,
        pending,
        net: &fin.net_stats,
        telemetry: &fin.telemetry,
        schedd: fin.get::<Schedd>(schedd).expect("schedd"),
        machines: machines
            .iter()
            .map(|&id| &fin.get::<Startd>(id).expect("startd").stats)
            .collect(),
        matchmakers: (0..sizes.fed_pools as usize)
            .map(|p| fin.get::<Matchmaker>(p).expect("matchmaker").stats())
            .collect(),
    });
    let out = outcome(finished, t);
    t.span(Kind::DesimTeardown, || drop(fin));
    out
}
