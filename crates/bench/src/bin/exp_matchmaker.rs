//! Experiment E9 — negotiation at pool scale: compiled ClassAds, the
//! incremental match index, and the generation-keyed verdict cache.
//!
//! The paper's matchmaker "collects information about all participants,
//! and notifies schedds and startds of compatible partners" (§2.1). The
//! naive kernel does that with a full O(jobs × machines) interpreted scan
//! per negotiation cycle — fine for a dozen workstations, hopeless for the
//! flocked pools of §6. This experiment grows a synthetic pool from 100 to
//! 10,000 machines and drives the indexed [`condor::MatchEngine`] and the
//! frozen naive kernel (`bench::legacy::naive_negotiate`) over the same ad
//! churn: wave job arrivals, per-cycle re-advertisement, a sliver of
//! crashed startds whose ads silently expire, and a minority of quirky ads
//! (opaque memory expressions, generic rank, disjunctive requirements)
//! that the index must route through the slow path unharmed.
//!
//! Claims measured:
//!
//! 1. **Bit-identical assignments.** At every checked scale the indexed
//!    engine produces exactly the naive kernel's `(schedd, job, machine)`
//!    notifications, same-seed RNG tie-breaks included, cycle by cycle.
//! 2. **Asymptotic work reduction.** At the 10,000-machine point the
//!    engine evaluates at least 10x fewer ad pairs than the naive scan
//!    (the naive count is exact: it only depends on pool sizes and the
//!    greedy match sequence, which gate 1 pins).
//! 3. **Determinism.** The whole study re-run on the same seeds produces a
//!    byte-identical metrics document, and two same-seed `PoolBuilder`
//!    runs produce bit-identical registry snapshots (now carrying `mm_*`
//!    negotiation counters) and event streams.
//!
//! Run with: `cargo run --release -p bench --bin exp_matchmaker`
//! (pass `--smoke` for the CI-sized pools).

use bench::legacy::naive_negotiate;
use bench::{f, render_table};
use classads::{ClassAd, Value};
use condor::prelude::*;
use condor::MatchEngine;
use desim::{SimRng, SimTime};
use gridvm::programs;
use std::collections::BTreeMap;

const SCHEDD: usize = 1;
const FIRST_MACHINE: usize = 1000;
const CYCLES: usize = 6;
/// Matches the matchmaker actor's cadence.
const PERIOD_SECS: u64 = 10;

// ---------------------------------------------------------------------
// Synthetic ad population
// ---------------------------------------------------------------------

const MEM_TIERS: [i64; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];
const IMAGE_SIZES: [i64; 6] = [100, 200, 400, 800, 1600, 3200];
/// Larger than any machine's memory: jobs asking for this can never match
/// and sit in the queue all study long — the naive kernel rescans the
/// whole pool for them every cycle, the index prunes them to the opaque
/// bucket and serves the repeats from the verdict cache.
const OVERSIZE: i64 = 9000;

fn machine_ad(rng: &mut SimRng) -> ClassAd {
    // A tier plus per-machine spread: real pools don't ship in seven
    // identical configurations, and diverse memories keep rank-tie groups
    // (which the engine must evaluate in full for the tie-break draw)
    // realistically small.
    let mem = MEM_TIERS[rng.index(MEM_TIERS.len())] + 4 * rng.index(32) as i64;
    let mut ad = ClassAd::new()
        .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
        .with_expr("Rank", "0");
    if rng.chance(0.01) {
        // Opaque memory: a non-literal expression the index cannot key.
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
        // Disjunctive requirements: extraction must refuse to prune.
        "TARGET.Memory >= MY.ImageSize || TARGET.HasJava =?= true"
    } else if java {
        "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true"
    } else {
        "TARGET.Memory >= MY.ImageSize"
    };
    ad = ad.with_expr("Requirements", req);
    if rng.chance(0.02) {
        // Generic rank: forces the full-probe path instead of the
        // memory-tier descent.
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
    matches: u64,
    indexed_pairs: u64,
    cache_hits: u64,
    naive_pairs: u64,
    wall_ms: f64,
}

impl ScaleResult {
    fn reduction(&self) -> f64 {
        self.naive_pairs as f64 / (self.indexed_pairs.max(1)) as f64
    }
}

/// Drive `CYCLES` negotiation cycles over a pool of `n_machines` machines
/// and `n_jobs` jobs arriving in per-cycle waves. When `check_naive` is
/// set, the frozen naive kernel runs beside the engine on mirrored ad maps
/// with a same-seed RNG, and every cycle's notifications must be
/// bit-identical.
///
/// The naive pair count is always computed exactly: the naive scan's work
/// per cycle is (machines in map) − (matches made so far this cycle),
/// summed per queued job — it depends only on pool sizes and the match
/// sequence, which the equivalence gate pins to the engine's. When the
/// naive kernel actually runs, its measured count must equal the analytic
/// one.
fn run_scale(n_machines: usize, n_jobs: usize, seed: u64, check_naive: bool) -> ScaleResult {
    let mut gen_rng = SimRng::seed_from_u64(seed ^ 0xe9);
    let machine_ads: Vec<ClassAd> = (0..n_machines).map(|_| machine_ad(&mut gen_rng)).collect();
    let job_ads: Vec<ClassAd> = (0..n_jobs).map(|_| job_ad(&mut gen_rng)).collect();

    let mut engine = MatchEngine::new();
    let mut engine_rng = SimRng::seed_from_u64(seed.wrapping_mul(31) + 7);
    let mut naive_rng = SimRng::seed_from_u64(seed.wrapping_mul(31) + 7);

    // The naive mirror: plain ad maps plus advertisement freshness, so the
    // mirror ages ads out exactly when the engine does.
    let mut naive_machines: BTreeMap<usize, ClassAd> = BTreeMap::new();
    let mut naive_fresh: BTreeMap<usize, SimTime> = BTreeMap::new();
    let mut naive_jobs: BTreeMap<(usize, u32), ClassAd> = BTreeMap::new();

    let mut consumed: Vec<bool> = vec![false; n_machines];
    let mut matches = 0u64;
    let mut naive_pairs_analytic = 0u64;
    let mut naive_pairs_measured = 0u64;
    let mut queued: Vec<u32> = Vec::new();
    let mut next_job = 0usize;
    let wave = n_jobs.div_ceil(CYCLES);
    let t0 = std::time::Instant::now();

    for cycle in 0..CYCLES {
        let now = SimTime::from_secs(PERIOD_SECS * (cycle as u64 + 1));

        // Live startds re-advertise the same ad every cycle (generation —
        // and the verdict cache — must survive); machines ending in a
        // crash slot go silent after cycle 1 and age out of the pool.
        for (i, ad) in machine_ads.iter().enumerate() {
            let crashed = i % 97 == 0 && cycle >= 1;
            if consumed[i] || crashed {
                continue;
            }
            engine.insert_machine(FIRST_MACHINE + i, ad.clone(), now);
            naive_machines.insert(FIRST_MACHINE + i, ad.clone());
            naive_fresh.insert(FIRST_MACHINE + i, now);
        }
        // This cycle's job wave arrives.
        for _ in 0..wave {
            if next_job >= n_jobs {
                break;
            }
            engine.insert_job(SCHEDD, next_job as u32, job_ads[next_job].clone());
            naive_jobs.insert((SCHEDD, next_job as u32), job_ads[next_job].clone());
            queued.push(next_job as u32);
            next_job += 1;
        }

        // Mirror the engine's expiry rule on the naive maps.
        naive_machines.retain(|id, _| now - naive_fresh[id] <= condor::matchmaker::AD_LIFETIME);

        let notifications = engine.negotiate(now, &mut engine_rng);

        // Exact naive work for this cycle: each queued job scans every
        // machine not yet taken by an earlier job of the same cycle.
        let mm = naive_machines.len() as u64;
        let mut taken = 0u64;
        let matched: std::collections::BTreeSet<u32> =
            notifications.iter().map(|&(_, j, _)| j).collect();
        for &j in &queued {
            naive_pairs_analytic += mm - taken;
            if matched.contains(&j) {
                taken += 1;
            }
        }

        if check_naive {
            let (slow, pairs) = naive_negotiate(&naive_jobs, &naive_machines, &mut naive_rng);
            assert_eq!(
                notifications, slow,
                "indexed assignments must be bit-identical to the naive kernel \
                 (machines={n_machines} seed={seed} cycle={cycle})"
            );
            naive_pairs_measured += pairs;
        }

        // Consume matched ads on both sides.
        matches += notifications.len() as u64;
        for &(s, j, m) in &notifications {
            naive_jobs.remove(&(s, j));
            naive_machines.remove(&m);
            naive_fresh.remove(&m);
            consumed[m - FIRST_MACHINE] = true;
            queued.retain(|&q| q != j);
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    if check_naive {
        assert_eq!(
            naive_pairs_measured, naive_pairs_analytic,
            "analytic naive pair count must match the measured scan"
        );
    }

    ScaleResult {
        machines: n_machines,
        jobs: n_jobs,
        matches,
        indexed_pairs: engine.stats.pairs_evaluated,
        cache_hits: engine.stats.cache_hits,
        naive_pairs: naive_pairs_analytic,
        wall_ms,
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
                r.matches,
                r.indexed_pairs,
                r.cache_hits,
                r.naive_pairs,
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[(usize, usize, bool)] = if smoke {
        // (machines, jobs, run the naive kernel for real)
        &[(100, 20, true), (600, 120, true)]
    } else {
        &[(100, 20, true), (1000, 200, true), (10_000, 2000, false)]
    };

    println!(
        "E9: pool-scale negotiation — compiled ads + match index + verdict cache\n\
         vs the frozen naive O(jobs x machines) interpreted scan; {CYCLES} cycles,\n\
         wave arrivals, crashed-startd expiry, quirky ads on the slow path\n"
    );

    let seed = 41u64;
    let mut results = Vec::new();
    for &(m, j, check) in scales {
        results.push(run_scale(m, j, seed, check));
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .zip(scales)
        .map(|(r, &(_, _, checked))| {
            vec![
                r.machines.to_string(),
                r.jobs.to_string(),
                r.matches.to_string(),
                r.naive_pairs.to_string(),
                r.indexed_pairs.to_string(),
                r.cache_hits.to_string(),
                format!("{}x", f(r.reduction(), 1)),
                if checked {
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
                "indexed pairs",
                "cache hits",
                "reduction",
                "naive checked",
                "wall (ms)",
            ],
            &rows,
        )
    );
    println!(
        "Shape: the naive scan grows with jobs x machines while the indexed\n\
         engine touches plausible tiers once and serves repeats from the\n\
         verdict cache; assignments stay bit-identical either way.\n"
    );

    // Gate 2: asymptotic work reduction at the largest scale.
    let top = results.last().unwrap();
    assert!(
        top.indexed_pairs * 10 <= top.naive_pairs,
        "at {} machines the index must evaluate >=10x fewer pairs \
         (naive={}, indexed={})",
        top.machines,
        top.naive_pairs,
        top.indexed_pairs
    );
    assert!(
        top.cache_hits > 0,
        "queued jobs re-negotiated over unchanged ads must hit the verdict cache"
    );
    println!(
        "work reduction: {} machines, naive {} pairs -> indexed {} \
         ({}x, cache served {})\n",
        top.machines,
        top.naive_pairs,
        top.indexed_pairs,
        f(top.reduction(), 1),
        top.cache_hits
    );

    // Gate 3a: the whole study, re-run on the same seeds, serializes
    // byte-identically.
    let doc_a = study_json(&results);
    let rerun: Vec<ScaleResult> = scales
        .iter()
        .map(|&(m, j, check)| run_scale(m, j, seed, check))
        .collect();
    let doc_b = study_json(&rerun);
    assert_eq!(doc_a, doc_b, "same-seed study must be byte-identical");
    println!(
        "determinism: same-seed study re-run byte-identical ({} bytes)",
        doc_a.len()
    );

    // Gate 3b: a real pool run is bit-identical same-seed, and its
    // registry snapshot now carries the mm_* negotiation counters.
    let a = pool_run(41);
    let b = pool_run(41);
    let snapshot = a.registry().snapshot_json();
    assert_eq!(
        snapshot,
        b.registry().snapshot_json(),
        "same-seed pool registry snapshots must be bit-identical"
    );
    assert_eq!(a.telemetry.to_jsonl(), b.telemetry.to_jsonl());
    assert!(a.quiescent, "pool must drain");
    for key in [
        "mm_pairs_evaluated",
        "mm_cache_hits",
        "mm_matches_made",
        "mm_cycles",
        "mm_ads_active",
    ] {
        assert!(snapshot.contains(key), "registry must carry {key}");
    }
    let events = a.telemetry.to_jsonl();
    let match_events = events
        .lines()
        .filter(|l| l.contains("\"type\":\"match\""))
        .count();
    assert!(
        match_events >= 8,
        "every job match must appear in the event stream (saw {match_events})"
    );
    println!(
        "pool: seed-41 runs bit-identical; registry carries mm_* counters; \
         {match_events} match events in the stream\n"
    );

    // Artifacts: the study document plus the pool's registry snapshot, and
    // the pool's event stream (match notifications included).
    let doc = format!("{{\"study\":{doc_a},\"pool\":{snapshot}}}");
    std::fs::write("BENCH_matchmaker.json", &doc).expect("write metrics document");
    std::fs::write("BENCH_matchmaker.events.jsonl", &events).expect("write event stream");
    obs::json::parse(&doc).expect("metrics document is valid JSON");
    let parsed = obs::Collector::parse_jsonl(&events).expect("event stream is valid JSONL");
    println!(
        "Telemetry: BENCH_matchmaker.json (study + pool snapshot) and\n\
         BENCH_matchmaker.events.jsonl ({} events) written and re-parsed cleanly.",
        parsed.len()
    );
}
