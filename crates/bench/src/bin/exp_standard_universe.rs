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
//! Run with: `cargo run --release -p bench --bin exp_standard_universe`

use bench::{f, render_table};
use condor::prelude::*;
use condor::PoolBuilder;
use desim::{SimDuration, SimTime};
use gridvm::programs;

/// Build an N-machine pool whose owners all come back on a staggered
/// cycle: busy for `busy` seconds every `period` seconds.
fn pool(universe: Universe, period: u64, busy: u64, seed: u64) -> RunReport {
    const MACHINES: usize = 4;
    const JOB_SECS: u64 = 1800; // a 30-minute job
    let mut plan = FaultPlan::none();
    for m in 0..MACHINES {
        let phase = (period / MACHINES as u64) * m as u64;
        let mut start = phase + period;
        while start < 7 * 24 * 3600 {
            plan = plan.owner_activity(
                PoolBuilder::FIRST_MACHINE_ID + m,
                condor::Window::new(SimTime::from_secs(start), SimTime::from_secs(start + busy)),
            );
            start += period + busy;
        }
    }
    PoolBuilder::new(seed)
        .machines((0..MACHINES).map(|i| MachineSpec::healthy(&format!("ws{i}"), 256)))
        .faults(plan)
        .jobs((1..=4).map(|i| {
            JobSpec {
                universe,
                ..JobSpec::java(i, "ada", programs::calls_exit(0), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(JOB_SECS))
            }
        }))
        .run(SimTime::from_secs(14 * 24 * 3600))
}

fn main() {
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
            let seeds = [31u64, 32, 33];
            let (mut makespan, mut evictions, mut banked, mut lost, mut done, mut held) =
                (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
            for s in seeds {
                let r = pool(universe, period, busy, s);
                makespan += r.makespan().map(|t| t.as_secs_f64()).unwrap_or(f64::NAN);
                evictions += r.metrics.evictions as f64;
                banked += r.metrics.checkpointed_work.as_secs_f64();
                lost += r.metrics.work_lost_to_eviction.as_secs_f64();
                done += r.metrics.jobs_completed as f64;
                held += r.metrics.jobs_held as f64;
            }
            let n = seeds.len() as f64;
            rows.push(vec![
                format!("{period}/{busy}"),
                name.to_string(),
                f(done / n, 1),
                f(held / n, 1),
                f(evictions / n, 1),
                f(banked / n, 0),
                f(lost / n, 0),
                f(makespan / n, 0),
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

    export_telemetry();
}

/// One representative run per universe at the harshest interruption cycle
/// (600s/600s), exported to stable paths: a JSON metrics snapshot pair and
/// the Standard run's JSONL event stream (claims, dispatches, evictions).
fn export_telemetry() {
    let vanilla = pool(Universe::Vanilla, 600, 600, 31);
    let standard = pool(Universe::Standard, 600, 600, 31);
    let snapshot = format!(
        "{{\"vanilla\":{},\"standard\":{}}}",
        vanilla.registry().snapshot_json(),
        standard.registry().snapshot_json()
    );
    std::fs::write("BENCH_standard_universe.json", &snapshot).expect("write metrics snapshot");
    let events = standard.telemetry.to_jsonl();
    std::fs::write("BENCH_standard_universe.events.jsonl", &events).expect("write event stream");

    // Prove both artifacts parse cleanly before anything downstream tries.
    obs::json::parse(&snapshot).expect("metrics snapshot is valid JSON");
    let parsed = obs::Collector::parse_jsonl(&events).expect("event stream is valid JSONL");
    println!(
        "\nTelemetry: BENCH_standard_universe.json (metrics snapshot) and\n\
         BENCH_standard_universe.events.jsonl ({} events) written and re-parsed cleanly.",
        parsed.len()
    );
}
