//! The §5 black-hole experiment, interactively.
//!
//! Run with: `cargo run --example blackhole_pool`
//!
//! "A small number of misconfigured machines in our Condor pool attracted a
//! continuous stream of jobs that would attempt to execute, fail, and be
//! returned to the schedd. Although the situation was handled correctly,
//! there was continuous waste of CPU and network capacity."
//!
//! This example builds a 12-machine pool with 3 black holes and runs the
//! same 20-job workload under four policies, printing the waste each one
//! leaves behind.

use condor::prelude::*;
use desim::{SimDuration, SimTime};
use gridvm::config::SelfTestDepth;
use gridvm::programs;

fn run(policy_name: &str, self_test: SelfTestDepth, avoid: bool) -> (String, RunReport) {
    let mut machines = Vec::new();
    for i in 0..9 {
        machines.push(MachineSpec::healthy(&format!("ok{i}"), 256));
    }
    for i in 0..3 {
        // Black holes advertise more memory: they look *better* than the
        // healthy machines and fail fast — maximal attraction.
        machines.push(MachineSpec::misconfigured(&format!("hole{i}"), 1024));
    }
    let jobs = (1..=20).map(|i| {
        JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
            .with_exec_time(SimDuration::from_secs(60))
    });
    let report = PoolBuilder::new(5)
        .machines(machines)
        .jobs(jobs)
        .startd_policy(StartdPolicy {
            self_test,
            learn_from_failures: false,
            ..StartdPolicy::default()
        })
        .schedd_policy(ScheddPolicy {
            avoid_chronic_hosts: avoid,
            avoid_threshold: 2,
            ..ScheddPolicy::default()
        })
        .run(SimTime::from_secs(24 * 3600));
    (policy_name.to_string(), report)
}

fn main() {
    println!("pool: 9 healthy + 3 black holes (higher-ranked!), 20 jobs x 60s\n");
    println!(
        "{:<28} {:>9} {:>6} {:>10} {:>12} {:>12}",
        "policy", "completed", "held", "wasted-cpu", "reschedules", "makespan"
    );
    for (name, report) in [
        run("none (blind trust)", SelfTestDepth::None, false),
        run("schedd avoidance", SelfTestDepth::None, true),
        run("startd self-test", SelfTestDepth::Trivial, false),
        run("self-test + avoidance", SelfTestDepth::Trivial, true),
    ] {
        println!(
            "{:<28} {:>9} {:>6} {:>9.0}s {:>12} {:>11.0}s",
            name,
            report.metrics.jobs_completed,
            report.metrics.jobs_held,
            report.metrics.wasted_cpu.as_secs_f64(),
            report.metrics.reschedules,
            report
                .makespan()
                .map(|t| t.as_secs_f64())
                .unwrap_or(f64::NAN),
        );
    }
    println!(
        "\nThe paper's fix — test the installation at startup rather than\n\
         trust the owner's assertion — eliminates the waste entirely."
    );
}
