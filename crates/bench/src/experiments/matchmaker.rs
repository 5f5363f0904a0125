//! Experiment E9 — negotiation at pool scale: compiled ClassAds
//! negotiated shape × shape.
//!
//! The paper's matchmaker "collects information about all participants,
//! and notifies schedds and startds of compatible partners" (§2.1). The
//! naive kernel does that with a full O(jobs × machines) interpreted scan
//! per negotiation cycle — fine for a dozen workstations, hopeless for the
//! flocked pools of §6. This experiment grows a synthetic pool from 100 to
//! 10,000 machines and drives the [`condor::MatchEngine`] and the frozen
//! naive kernel (`condor::matchmaker::naive_negotiate`) over the same ad
//! churn: wave job arrivals, per-cycle re-advertisement, a sliver of
//! crashed startds whose ads silently expire, and a minority of quirky ads
//! (memory behind an expression, a rank that is not the machine's memory,
//! disjunctive requirements) that no pattern recognises — shapes are told
//! apart by evaluation, so there is no slow path for them to take.
//!
//! Claims measured:
//!
//! 1. **Bit-identical assignments.** At every checked scale the engine
//!    produces exactly the naive kernel's `(schedd, job, machine)`
//!    notifications, same-seed RNG tie-breaks included, cycle by cycle —
//!    with the machines held flat, and again held chained to a shared
//!    base ad, at equal work counters.
//! 2. **Asymptotic work reduction.** At the largest point the engine
//!    evaluates at least 10x fewer pairs than the naive scan. The engine's
//!    count is of shape pairs — a machine shape ranked for a ranking of
//!    jobs, or matched against a job shape — the naive one of (job,
//!    machine) pairs (exact: it only depends on pool sizes and the greedy
//!    match sequence, which gate 1 pins).
//! 3. **Determinism.** The whole study re-run on the same seeds produces a
//!    byte-identical metrics document, and two same-seed `PoolBuilder`
//!    runs produce bit-identical registry snapshots (now carrying `mm_*`
//!    negotiation counters) and event streams.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e9`
//! (pass `--smoke` for the CI-sized pools).

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{negotiate_cycles, Negotiation, IMAGE_SIZES, MEM_TIERS, OVERSIZE};
use crate::{f, render_table};
use classads::{ClassAd, Value};
use condor::prelude::*;
use desim::{SimRng, SimTime};
use gridvm::programs;

const CYCLES: usize = 6;

// ---------------------------------------------------------------------
// Synthetic ad population
// ---------------------------------------------------------------------

fn machine_ad(rng: &mut SimRng) -> ClassAd {
    // A tier plus per-machine spread: real pools don't ship in seven
    // identical configurations, and diverse memories keep rank-tie groups
    // (and with them machine shapes: 224 memories, with and without java)
    // realistically small.
    let mem = MEM_TIERS[rng.index(MEM_TIERS.len())] + 4 * rng.index(32) as i64;
    let mut ad = ClassAd::new()
        .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
        .with_expr("Rank", "0");
    if rng.chance(0.01) {
        // Memory behind an expression: only evaluation tells its value.
        ad = ad
            .with_int("BaseMemory", mem)
            .with_expr("Memory", "MY.BaseMemory + 0");
    } else {
        ad = ad.with_int("Memory", mem);
    }
    if rng.chance(0.8) {
        ad.insert("HasJava", Value::Bool(true));
    }
    ad
}

fn job_ad(rng: &mut SimRng) -> ClassAd {
    let oversize = rng.chance(0.05);
    let image = if oversize {
        OVERSIZE
    } else {
        IMAGE_SIZES[rng.index(IMAGE_SIZES.len())]
    };
    let mut ad = ClassAd::new().with_int("ImageSize", image);
    let java = rng.chance(0.6);
    let req = if !oversize && rng.chance(0.05) {
        // Disjunctive requirements: no conjunct alone rules a machine out.
        "TARGET.Memory >= MY.ImageSize || TARGET.HasJava =?= true"
    } else if java {
        "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true"
    } else {
        "TARGET.Memory >= MY.ImageSize"
    };
    ad = ad.with_expr("Requirements", req);
    if rng.chance(0.02) {
        // A rank that is not the machine's memory itself.
        ad = ad.with_expr("Rank", "TARGET.Memory / 2 + 1")
    } else {
        ad = ad.with_expr("Rank", "TARGET.Memory")
    };
    ad
}

// ---------------------------------------------------------------------
// The scale study
// ---------------------------------------------------------------------

struct ScaleResult {
    machines: usize,
    jobs: usize,
    checked: bool,
    n: Negotiation,
    wall_ms: f64,
}

impl ScaleResult {
    fn reduction(&self) -> f64 {
        self.n.naive_pairs as f64 / (self.n.engine_pairs.max(1)) as f64
    }
}

/// Negotiate [`CYCLES`] cycles over a synthetic pool of `n_machines`
/// machines and `n_jobs` jobs through the shared driver, with a sliver of
/// crashed startds: machines in a crash slot go silent after cycle 1 and
/// age out of the pool.
fn run_scale(n_machines: usize, n_jobs: usize, seed: u64, check_naive: bool) -> ScaleResult {
    let mut gen_rng = SimRng::seed_from_u64(seed ^ 0xe9);
    let machine_ads: Vec<ClassAd> = (0..n_machines).map(|_| machine_ad(&mut gen_rng)).collect();
    let job_ads: Vec<ClassAd> = (0..n_jobs).map(|_| job_ad(&mut gen_rng)).collect();
    let t0 = std::time::Instant::now();
    let n = negotiate_cycles(
        &format!("machines={n_machines} seed={seed}"),
        &machine_ads,
        &job_ads,
        CYCLES,
        seed.wrapping_mul(31) + 7,
        |i, cycle| i % 97 == 0 && cycle >= 1,
        check_naive,
    );
    ScaleResult {
        machines: n_machines,
        jobs: n_jobs,
        checked: check_naive,
        n,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// The deterministic study document: every field is seed-derived (no wall
/// clock), so same-seed re-runs must serialize byte-identically.
fn study_json(results: &[ScaleResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"machines\":{},\"jobs\":{},\"cycles\":{},\"matches\":{},\
                 \"mm_pairs_evaluated\":{},\"mm_cache_hits\":{},\
                 \"naive_pairs\":{},\"reduction\":{}}}",
                r.machines,
                r.jobs,
                CYCLES,
                r.n.matches,
                r.n.engine_pairs,
                r.n.cache_hits,
                r.n.naive_pairs,
                f(r.reduction(), 1),
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

// ---------------------------------------------------------------------
// The real-pool section (metrics + event stream)
// ---------------------------------------------------------------------

fn pool_run(seed: u64) -> RunReport {
    PoolBuilder::new(seed)
        .machines((0..12).map(|i| MachineSpec::healthy(&format!("ws{i}"), 128 << (i % 4))))
        .jobs(
            (1..=8).map(|i| JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)),
        )
        .run(SimTime::from_secs(3600))
}

/// One pass: the scale study (every field seed-derived, wall-clock kept
/// out of the document) and a real pool whose registry snapshot carries the
/// `mm_*` negotiation counters and whose stream carries every match.
fn pass(size: Size) -> ((Vec<ScaleResult>, usize), Vec<Artifact>) {
    // (machines, jobs, run the naive kernel for real)
    let scales: &[(usize, usize, bool)] = size.pick(
        &[(100, 20, true), (600, 120, true)],
        &[(100, 20, true), (1000, 200, true), (10_000, 2000, false)],
    );
    let results: Vec<ScaleResult> = scales
        .iter()
        .map(|&(m, j, check)| run_scale(m, j, 41, check))
        .collect();

    let pool = pool_run(41);
    assert!(pool.quiescent, "pool must drain");
    let snapshot = pool.registry().snapshot_json();
    for key in [
        "mm_pairs_evaluated",
        "mm_cache_hits",
        "mm_matches_made",
        "mm_cycles",
        "mm_ads_active",
    ] {
        assert!(snapshot.contains(key), "registry must carry {key}");
    }
    let events = pool.telemetry.to_jsonl_with_meta();
    let match_events = events
        .lines()
        .filter(|l| l.contains("\"type\":\"match\""))
        .count();
    assert!(
        match_events >= 8,
        "every job match must appear in the event stream (saw {match_events})"
    );

    let doc = format!("{{\"study\":{},\"pool\":{snapshot}}}", study_json(&results));
    let files = vec![
        artifact("BENCH_matchmaker.json", doc),
        artifact("BENCH_matchmaker.events.jsonl", events),
    ];
    ((results, match_events), files)
}

pub fn run(size: Size, _: &[String]) {
    println!(
        "E9: pool-scale negotiation — compiled ads negotiated shape x shape\n\
         vs the frozen naive O(jobs x machines) interpreted scan; {CYCLES} cycles,\n\
         wave arrivals, crashed-startd expiry, quirky ads among the plain\n"
    );
    drive(size, pass, |(results, match_events), _| {
        report(&results);
        println!("pool: registry carries mm_* counters; {match_events} match events in the stream");
    });
}

fn report(results: &[ScaleResult]) {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.machines.to_string(),
                r.jobs.to_string(),
                r.n.matches.to_string(),
                r.n.naive_pairs.to_string(),
                r.n.engine_pairs.to_string(),
                r.n.cache_hits.to_string(),
                format!("{}x", f(r.reduction(), 1)),
                if r.checked {
                    "yes".into()
                } else {
                    "analytic".into()
                },
                f(r.wall_ms, 1),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "machines",
                "jobs",
                "matches",
                "naive pairs",
                "shape pairs",
                "verdicts reused",
                "reduction",
                "naive checked",
                "wall (ms)",
            ],
            &rows,
        )
    );
    println!(
        "Shape: the naive scan grows with jobs x machines while the engine\n\
         ranks each machine shape once per ranking of jobs, matches a job\n\
         shape against machine shapes from the best-ranked down until one\n\
         takes it, and reuses a verdict while both shapes live; assignments\n\
         stay bit-identical either way. (\"reduction\" compares naive\n\
         job-machine pairs with shape pairs: ranks and verdicts.)\n"
    );

    // Gate 2: asymptotic work reduction at the largest scale.
    let top = results.last().unwrap();
    assert!(
        top.n.engine_pairs * 10 <= top.n.naive_pairs,
        "at {} machines the engine must evaluate >=10x fewer pairs \
         (naive={}, shape pairs={})",
        top.machines,
        top.n.naive_pairs,
        top.n.engine_pairs
    );
    assert!(
        top.n.cache_hits > 0,
        "queued jobs re-negotiated over unchanged ads must reuse shape-pair verdicts"
    );
    println!(
        "work reduction: {} machines, naive {} job-machine pairs -> {} shape \
         pairs ({}x, {} verdicts reused)\n",
        top.machines,
        top.n.naive_pairs,
        top.n.engine_pairs,
        f(top.reduction(), 1),
        top.n.cache_hits
    );
}
