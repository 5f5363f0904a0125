//! Experiment E2 — §5's black-hole machines and their remedies.
//!
//! "A small number of misconfigured machines in our Condor pool attracted a
//! continuous stream of jobs that would attempt to execute, fail, and be
//! returned to the schedd … continuous waste of CPU and network capacity.
//! To rectify this, we borrowed a lesson from the Autoconf tool [startd
//! self-test]. A complementary approach would be to enhance the schedd with
//! logic to detect and avoid hosts with chronic failures."
//!
//! Sweep the number of black holes and the remedy, reporting wasted CPU,
//! failed placements, and makespan. Also shows the self-test *depth*
//! ablation: a trivial self-test misses partially-broken installations
//! (missing stdlib), which only a thorough test or schedd avoidance
//! catches.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e2`

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{makespan_secs, mean_over_seeds};
use crate::{f, render_table};
use condor::prelude::*;
use desim::{SimDuration, SimTime};
use gridvm::config::SelfTestDepth;
use gridvm::programs;

const HEALTHY: usize = 12;
const JOBS: u32 = 24;

#[derive(Clone, Copy)]
struct Policy {
    name: &'static str,
    self_test: SelfTestDepth,
    avoid: bool,
}

fn pool(seed: u64, holes: usize, partial: bool, p: Policy) -> RunReport {
    let mut machines = Vec::new();
    for i in 0..HEALTHY {
        machines.push(MachineSpec::healthy(&format!("ok{i}"), 256));
    }
    for i in 0..holes {
        // Black holes look better than they are: more memory, higher rank.
        machines.push(if partial {
            MachineSpec::partially_misconfigured(&format!("hole{i}"), 1024)
        } else {
            MachineSpec::misconfigured(&format!("hole{i}"), 1024)
        });
    }
    // Jobs that exercise the stdlib, so partial breaks actually bite.
    let jobs = (1..=JOBS).map(|i| {
        JobSpec::java(i, "ada", programs::uses_stdlib(), JavaMode::Scoped)
            .with_exec_time(SimDuration::from_secs(90))
    });
    PoolBuilder::new(seed)
        .machines(machines)
        .jobs(jobs)
        .startd_policy(StartdPolicy {
            self_test: p.self_test,
            learn_from_failures: false,
            ..StartdPolicy::default()
        })
        .schedd_policy(ScheddPolicy {
            avoid_chronic_hosts: p.avoid,
            avoid_threshold: 2,
            max_attempts: 60,
            ..ScheddPolicy::default()
        })
        .run(SimTime::from_secs(7 * 24 * 3600))
}

fn sweep(partial: bool) {
    let policies = [
        Policy {
            name: "blind trust",
            self_test: SelfTestDepth::None,
            avoid: false,
        },
        Policy {
            name: "schedd avoidance",
            self_test: SelfTestDepth::None,
            avoid: true,
        },
        Policy {
            name: "trivial self-test",
            self_test: SelfTestDepth::Trivial,
            avoid: false,
        },
        Policy {
            name: "thorough self-test",
            self_test: SelfTestDepth::Thorough,
            avoid: false,
        },
    ];
    let mut rows = Vec::new();
    for holes in [1usize, 3, 6] {
        for p in policies {
            let [done, waste, resched, makespan] = mean_over_seeds(
                &[5, 15, 25],
                |s| pool(s, holes, partial, p),
                |r| {
                    [
                        r.metrics.jobs_completed as f64,
                        r.metrics.wasted_cpu.as_secs_f64(),
                        r.metrics.reschedules as f64,
                        makespan_secs(r),
                    ]
                },
            );
            rows.push(vec![
                holes.to_string(),
                p.name.to_string(),
                f(done, 1),
                f(waste, 0),
                f(resched, 1),
                f(makespan, 0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "holes",
                "policy",
                "completed",
                "wasted cpu (s)",
                "reschedules",
                "makespan (s)",
            ],
            &rows,
        )
    );
}

pub fn run(size: Size, _: &[String]) {
    println!(
        "E2: black-hole machines (§5)\n\
         pool: {HEALTHY} healthy + N black holes (higher-ranked), {JOBS} stdlib jobs x 90s\n"
    );

    println!("--- fully broken installations (dead VM path: fail at startup) ---\n");
    sweep(false);
    println!(
        "Shape: blind trust wastes CPU proportional to the number of holes;\n\
         either remedy eliminates nearly all waste. The trivial self-test\n\
         suffices here because the VM cannot even start.\n"
    );

    println!("--- partially broken installations (missing stdlib) ---\n");
    sweep(true);
    println!(
        "Shape: the trivial self-test is fooled — the VM starts fine and only\n\
         dies at the first stdlib call — so waste persists. Only the thorough\n\
         self-test or schedd avoidance restores the pool. This is why the paper\n\
         tests the installation rather than trusting assertions, and why depth\n\
         of testing matters."
    );

    drive(size, export, |(), _| ());
}

/// A representative blind-trust run against partially broken holes — the
/// configuration with the richest error traffic — exported to stable paths:
/// a JSON metrics snapshot and the JSONL event stream (claims, dispatches,
/// escapes, journey hops, reschedules, dispositions).
fn export(_: Size) -> ((), Vec<Artifact>) {
    let p = Policy {
        name: "blind trust",
        self_test: SelfTestDepth::None,
        avoid: false,
    };
    let r = pool(5, 3, true, p);
    let files = vec![
        artifact("BENCH_blackhole.json", r.registry().snapshot_json()),
        artifact("BENCH_blackhole.events.jsonl", r.telemetry.to_jsonl()),
    ];
    ((), files)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Time to detect, pinned: with avoidance on, every hole crosses the
    /// two-failure threshold — its second reschedule — at the recorded
    /// instant, on every seed and hole count: matched at 10, failed at 12,
    /// back at 12, matched again at 20 (µs; the same under the schedd's
    /// 5-s job-ad drumbeat, 1512bf3).
    #[test]
    fn holes_are_detected_at_the_recorded_instant() {
        let avoidance = Policy {
            name: "schedd avoidance",
            self_test: SelfTestDepth::None,
            avoid: true,
        };
        for (seed, holes) in [(5, 1), (15, 3), (25, 6)] {
            let report = pool(seed, holes, false, avoidance);
            let hole = |m: u64| m as usize >= PoolBuilder::FIRST_MACHINE_ID + HEALTHY;
            let mut failures: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
            for r in report.telemetry.iter() {
                if let obs::Event::Reschedule { machine, .. } = r.event {
                    if hole(*machine) {
                        failures.entry(*machine).or_default().push(r.at_us);
                    }
                }
            }
            assert_eq!(failures.len(), holes, "seed {seed}");
            for (machine, at) in failures {
                assert_eq!(
                    at,
                    [12_005_000, 22_005_000],
                    "seed {seed}, machine {machine}"
                );
            }
        }
    }
}
