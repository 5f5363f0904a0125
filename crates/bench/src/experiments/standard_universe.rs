//! Extension experiment — the Standard Universe's checkpointing under
//! opportunistic (owner-interrupted) machines.
//!
//! §2.1: "The Standard Universe provides transparent checkpointing …";
//! Condor "was originally designed to manage jobs on idle cycles culled
//! from a collection of personal workstations", using "process migration
//! and transparent remote I/O" to survive owners reclaiming their
//! machines. This harness measures what checkpointing is worth: the same
//! long job on machines whose owners come back periodically, in the
//! Vanilla universe (restart from scratch) versus the Standard universe
//! (resume from checkpoint).
//!
//! Run with: `cargo run --release -p bench --bin exp -- ext`

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{makespan_secs, mean_over_seeds, owner_interrupted, OWNER_HORIZON};
use crate::{f, render_table};
use condor::prelude::*;

fn pool(universe: Universe, period: u64, busy: u64, seed: u64) -> RunReport {
    owner_interrupted(universe, period, busy, seed, false).run(OWNER_HORIZON)
}

pub fn run(size: Size, _: &[String]) {
    println!(
        "Standard vs Vanilla universe on owner-interrupted workstations\n\
         4 machines, 4 jobs x 1800s; owners return every <period>s for <busy>s\n"
    );
    let mut rows = Vec::new();
    for (period, busy) in [(3600u64, 600u64), (1200, 600), (600, 600)] {
        for (name, universe) in [
            ("vanilla (restart)", Universe::Vanilla),
            ("standard (checkpoint)", Universe::Standard),
        ] {
            let [makespan, evictions, banked, lost, done, held] = mean_over_seeds(
                &[31, 32, 33],
                |s| pool(universe, period, busy, s),
                |r| {
                    [
                        makespan_secs(r),
                        r.metrics.evictions as f64,
                        r.metrics.checkpointed_work.as_secs_f64(),
                        r.metrics.work_lost_to_eviction.as_secs_f64(),
                        r.metrics.jobs_completed as f64,
                        r.metrics.jobs_held as f64,
                    ]
                },
            );
            rows.push(vec![
                format!("{period}/{busy}"),
                name.to_string(),
                f(done, 1),
                f(held, 1),
                f(evictions, 1),
                f(banked, 0),
                f(lost, 0),
                f(makespan, 0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "period/busy (s)",
                "universe",
                "completed",
                "held",
                "evictions",
                "work banked (s)",
                "work lost (s)",
                "makespan (s)",
            ],
            &rows,
        )
    );
    println!(
        "Shape: with owners returning less often than the job length, Vanilla\n\
         still finishes (slowly, redoing work); as interruptions approach the\n\
         job length, Vanilla can redo the same prefix forever while Standard\n\
         banks every slice and converges — the reason Condor's Standard\n\
         Universe checkpoints at all."
    );

    drive(size, export, |(), _| ());
}

/// One representative run per universe at the harshest interruption cycle
/// (600s/600s), exported to stable paths: a JSON metrics snapshot pair and
/// the Standard run's JSONL event stream (claims, dispatches, evictions).
fn export(_: Size) -> ((), Vec<Artifact>) {
    let vanilla = pool(Universe::Vanilla, 600, 600, 31);
    let standard = pool(Universe::Standard, 600, 600, 31);
    let snapshot = format!(
        "{{\"vanilla\":{},\"standard\":{}}}",
        vanilla.registry().snapshot_json(),
        standard.registry().snapshot_json()
    );
    let files = vec![
        artifact("BENCH_standard_universe.json", snapshot),
        artifact(
            "BENCH_standard_universe.events.jsonl",
            standard.telemetry.to_jsonl(),
        ),
    ];
    ((), files)
}
