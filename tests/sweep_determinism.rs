//! A parallel sweep must be a pure function of its seed list: fanning 32
//! seeds of a full condor-pool scenario across 1, 2, and 8 worker threads
//! with `desim::run_sweep` has to produce byte-identical telemetry and
//! metric snapshots, seed by seed. Every statistical study in the repo
//! leans on this contract.

use condor::prelude::*;
use desim::run_sweep;
use desim::sweep::{span_base, SPAN_STRIDE};
use desim::{SimDuration, SimTime};
use gridvm::programs;

const SEEDS: u64 = 32;

/// A small but complete pool: matchmaking, claiming, a java job per
/// machine, telemetry, and enough randomness (jittered backoff) that a
/// scheduling bug would show up as a diff.
fn run_pool(seed: u64) -> RunReport {
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
    report
}

/// One seed's exports: its headered event stream and its registry
/// snapshot.
fn exports(_: usize, seed: u64) -> (String, String) {
    let report = run_pool(seed);
    (
        report.telemetry.to_jsonl_with_meta(),
        report.registry().snapshot_json(),
    )
}

#[test]
fn sweep_of_32_pool_seeds_is_bit_identical_across_thread_counts() {
    let seeds: Vec<u64> = (1..=SEEDS).collect();
    let single = run_sweep(&seeds, 1, exports);

    // Every seed contributed events, in seed order.
    assert_eq!(single.len(), seeds.len());
    for (seed, (stream, _)) in seeds.iter().zip(&single) {
        let (meta, records) = obs::Collector::parse_jsonl_with_meta(stream).unwrap();
        assert_eq!(meta.len(), 1, "seed {seed}: one stream header");
        assert!(!records.is_empty(), "seed {seed} recorded no events");
    }

    for threads in [2usize, 8] {
        let parallel = run_sweep(&seeds, threads, exports);
        for (i, (a, b)) in single.iter().zip(&parallel).enumerate() {
            assert_eq!(
                a.0, b.0,
                "{threads}-thread sweep diverged from the single-thread event stream \
                 at seed index {i}"
            );
            assert_eq!(
                a.1, b.1,
                "{threads}-thread sweep diverged from the single-thread snapshot \
                 at seed index {i}"
            );
        }
    }
}

#[test]
fn sweep_results_arrive_in_seed_order_with_disjoint_spans() {
    let seeds: Vec<u64> = (1..=4).collect();
    let runs = run_sweep(&seeds, 4, |_, seed| (seed, run_pool(seed).telemetry));
    let order: Vec<u64> = runs.iter().map(|r| r.0).collect();
    assert_eq!(order, seeds);
    for (i, (seed, telemetry)) in runs.iter().enumerate() {
        let base = span_base(i);
        for rec in telemetry.iter() {
            if let Some(span) = rec.event.span() {
                assert!(
                    span >= base && span < base + SPAN_STRIDE,
                    "seed {seed} span {span} escaped its [{base}-based) range"
                );
            }
        }
    }
}
