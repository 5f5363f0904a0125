//! Determinism properties of the campaign generator over arbitrary seeds.
//!
//! The sweep harness's byte-identity gate rests on two facts checked
//! here: generation is a pure function of the seed, and
//! `desim::sweep::run_sweep` reassembles per-seed results in seed order
//! regardless of how many worker threads claimed them.

use campaign::generate;
use condor::FaultPlan;
use desim::sweep::run_sweep;
use propcheck::check;

#[test]
fn same_seed_describes_identically() {
    check(256, |g| {
        let seed = g.int(0..=u64::MAX);
        assert_eq!(generate(seed).describe(), generate(seed).describe());
    });
}

#[test]
fn every_sampled_plan_validates() {
    check(1024, |g| {
        let seed = g.int(0..=u64::MAX);
        assert!(
            FaultPlan::new(generate(seed).faults).try_build().is_ok(),
            "seed {seed}"
        );
    });
}

#[test]
fn sweep_width_never_changes_the_plans() {
    check(32, |g| {
        let seeds = g.vec(1..12, |g| g.int(0..=u64::MAX));
        let describe = |_i: usize, s: u64| generate(s).describe();
        let one = run_sweep(&seeds, 1, describe);
        assert_eq!(one, run_sweep(&seeds, 2, describe));
        assert_eq!(one, run_sweep(&seeds, 8, describe));
    });
}
