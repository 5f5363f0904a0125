//! The parallel sweep harness must be a pure function of its seed list:
//! fanning 32 seeds of a full condor-pool scenario across 1, 2, and 8
//! worker threads has to produce byte-identical merged telemetry and
//! metric snapshots. This is the determinism contract the throughput
//! experiment (E8) and every statistical study in the repo lean on.

use condor::prelude::*;
use desim::sweep::{SeedRun, Sweep};
use desim::{SimDuration, SimTime};
use gridvm::programs;

const SEEDS: u64 = 32;

/// A small but complete pool: matchmaking, claiming, a java job per
/// machine, telemetry, and enough randomness (jittered backoff) that a
/// scheduling bug would show up as a diff.
fn run_seed(seed: u64) -> SeedRun {
    let report = PoolBuilder::new(seed)
        .machines((0..2).map(|i| MachineSpec::healthy(&format!("ws{i}"), 256)))
        .schedd_policy(ScheddPolicy {
            retry: RetryPolicy::Backoff {
                base: SimDuration::from_secs(5),
                max: SimDuration::from_secs(30),
                jitter: 0.2,
            },
            ..ScheddPolicy::default()
        })
        .jobs((1..=3).map(|i| {
            JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(30))
        }))
        .run(SimTime::from_secs(3600));
    assert!(report.quiescent, "seed {seed}: pool must drain");
    SeedRun {
        seed,
        registry: report.registry(),
        telemetry: report.telemetry,
    }
}

#[test]
fn sweep_of_32_pool_seeds_is_bit_identical_across_thread_counts() {
    let seeds: Vec<u64> = (1..=SEEDS).collect();
    let single = Sweep::run(&seeds, 1, run_seed);
    let merged_jsonl = single.merged_jsonl();
    let merged_snapshot = single.merged_registry().snapshot_json();

    assert!(
        !merged_jsonl.is_empty(),
        "the scenario must actually record telemetry"
    );
    // Every seed contributed events, in seed order.
    assert_eq!(single.runs.len(), seeds.len());
    for run in &single.runs {
        assert!(
            !run.telemetry.is_empty(),
            "seed {} recorded no events",
            run.seed
        );
    }

    for threads in [2usize, 8] {
        let parallel = Sweep::run(&seeds, threads, run_seed);
        assert_eq!(
            merged_jsonl,
            parallel.merged_jsonl(),
            "{threads}-thread sweep diverged from the single-thread event stream"
        );
        assert_eq!(
            merged_snapshot,
            parallel.merged_registry().snapshot_json(),
            "{threads}-thread sweep diverged from the single-thread snapshot"
        );
    }
}

#[test]
fn sweep_results_arrive_in_seed_order_with_disjoint_spans() {
    let seeds: Vec<u64> = (1..=4).collect();
    let sweep = Sweep::run(&seeds, 4, run_seed);
    let order: Vec<u64> = sweep.runs.iter().map(|r| r.seed).collect();
    assert_eq!(order, seeds);
    for (i, run) in sweep.runs.iter().enumerate() {
        let base = desim::sweep::span_base(i);
        for rec in run.telemetry.iter() {
            if let Some(span) = rec.event.span() {
                assert!(
                    span >= base && span < base + desim::sweep::SPAN_STRIDE,
                    "seed {} span {span} escaped its [{}-based) range",
                    run.seed,
                    base
                );
            }
        }
    }
}
