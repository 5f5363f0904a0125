//! Experiment E1 — the §2.3 "initial experience" vs the §4 redesign.
//!
//! "Nearly any failure in a component of the system would cause the job to
//! be returned to the user with an error message … it required frequent
//! postmortem analysis." After the redesign, "the hailstorm of error
//! messages abated, and the system settled into a production mode."
//!
//! Sweep the fraction of faulty machines in a pool and compare the naive
//! and scoped Java Universes on: incidental errors shown to users, human
//! postmortems, jobs finished, makespan, and CPU efficiency.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e1`

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{makespan_secs, mean_over_seeds};
use crate::{f, render_table};
use condor::prelude::*;
use desim::{SimDuration, SimTime};
use gridvm::programs;

const MACHINES: usize = 16;
const JOBS: u32 = 32;

fn pool(seed: u64, faulty: usize, mode: JavaMode) -> RunReport {
    let mut machines = Vec::new();
    for i in 0..MACHINES {
        // Faulty machines alternate between the two misconfiguration kinds.
        if i < faulty {
            if i % 2 == 0 {
                machines.push(MachineSpec::misconfigured(&format!("bad{i}"), 256));
            } else {
                machines.push(MachineSpec::partially_misconfigured(
                    &format!("half{i}"),
                    256,
                ));
            }
        } else {
            machines.push(MachineSpec::healthy(&format!("ok{i}"), 256));
        }
    }
    // A mixed workload: plain compute, stdlib users, remote I/O.
    let jobs = (1..=JOBS).map(|i| {
        let image = match i % 3 {
            0 => programs::uses_stdlib(),
            1 => programs::completes_main(),
            _ => programs::reads_and_writes(),
        };
        let mut spec =
            JobSpec::java(i, "ada", image, mode).with_exec_time(SimDuration::from_secs(120));
        if i % 3 == 2 {
            spec = spec.with_inputs(&["input.txt"]).with_remote_io();
        }
        spec
    });
    PoolBuilder::new(seed)
        .machines(machines)
        .home_file("input.txt", b"experiment data")
        .jobs(jobs)
        .schedd_policy(ScheddPolicy {
            postmortem_delay: SimDuration::from_secs(600),
            max_attempts: 40,
            ..ScheddPolicy::default()
        })
        .run(SimTime::from_secs(7 * 24 * 3600))
}

pub fn run(size: Size, _: &[String]) {
    println!(
        "E1: naive (§2.3) vs scoped (§4) Java Universe\n\
         pool: {MACHINES} machines, {JOBS} jobs x 120s, postmortem cost 600s\n"
    );

    let mut rows = Vec::new();
    for faulty in [0usize, 2, 4, 8] {
        for (label, mode) in [("naive", JavaMode::Naive), ("scoped", JavaMode::Scoped)] {
            let [incidental, postmortems, completed, makespan, eff] = mean_over_seeds(
                &[11, 22, 33],
                |s| pool(s, faulty, mode),
                |r| {
                    [
                        r.metrics.incidental_errors_shown_to_user as f64,
                        r.metrics.postmortems as f64,
                        r.metrics.jobs_completed as f64,
                        makespan_secs(r),
                        r.metrics.cpu_efficiency(),
                    ]
                },
            );
            rows.push(vec![
                format!("{faulty}/{MACHINES}"),
                label.to_string(),
                f(incidental, 1),
                f(postmortems, 1),
                f(completed, 1),
                f(makespan, 0),
                f(eff * 100.0, 1),
            ]);
        }
    }

    println!(
        "{}",
        render_table(
            &[
                "faulty",
                "discipline",
                "incidental errors shown",
                "postmortems",
                "jobs completed",
                "makespan (s)",
                "cpu eff (%)",
            ],
            &rows,
        )
    );
    println!(
        "Paper's shape: with any faulty machines, the naive system exposes users to\n\
         incidental errors and burns human postmortem time; the scoped system shows\n\
         users only program results and recovers automatically — 'the hailstorm of\n\
         error messages abated.'"
    );

    drive(size, export, |(), _| ());
}

/// One representative run per discipline, exported to stable paths for
/// downstream tooling: a JSON metrics snapshot (CPU in integer
/// microseconds) and the scoped run's JSONL event stream.
fn export(_: Size) -> ((), Vec<Artifact>) {
    let naive = pool(11, 4, JavaMode::Naive);
    let scoped = pool(11, 4, JavaMode::Scoped);
    let snapshot = format!(
        "{{\"naive\":{},\"scoped\":{}}}",
        naive.registry().snapshot_json(),
        scoped.registry().snapshot_json()
    );
    let files = vec![
        artifact("BENCH_naive_vs_scoped.json", snapshot),
        artifact(
            "BENCH_naive_vs_scoped.events.jsonl",
            scoped.telemetry.to_jsonl_with_meta(),
        ),
    ];
    ((), files)
}
