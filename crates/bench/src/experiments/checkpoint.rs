//! Experiment E6 — checkpoint scope: what the checkpoint server saves,
//! and what a corrupt checkpoint must NOT do.
//!
//! The paper's scope rule says an in-between-scope error means "the job is
//! not ruined — try another site" (§4), but a bare reschedule restarts the
//! job from instruction zero and `work_lost_to_eviction` measures exactly
//! how much CPU that throws away. Condor's real answer is the checkpoint
//! server: the starter periodically snapshots the gridvm state, ships it
//! over chirp (PUT_CKPT), and the next attempt resumes from it (GET_CKPT).
//!
//! Two claims are measured here:
//!
//! 1. **Work-lost reduction.** Under the same eviction-heavy fault plan
//!    and seed, `work_lost_to_eviction_us` is strictly lower with
//!    checkpointing enabled than disabled.
//! 2. **Checkpoint scope.** A corrupt checkpoint image is an *explicit*
//!    error of the checkpoint layer: the starter discards it (an observable
//!    `ckpt-discarded` event), cold-restarts, and the job still completes.
//!    No implicit error ever surfaces to the user (P1/P2).
//!
//! Run with: `cargo run --release -p bench --bin exp -- e6`

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{
    makespan_secs, mean_over_seeds, owner_interrupted, OWNER_HORIZON, OWNER_JOBS as JOBS,
    OWNER_JOB_SECS as JOB_SECS, OWNER_MACHINES as MACHINES,
};
use crate::{f, render_table};
use condor::prelude::*;
use desim::SimDuration;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No checkpointing at all: every eviction restarts from zero.
    Off,
    /// Checkpoint server, exact image at the eviction instant.
    On,
    /// Checkpoint server with a periodic-checkpoint interval: the tail
    /// past the last checkpoint is honestly lost.
    Periodic(u64),
}

/// The owner-interrupted pool under a checkpointing `mode`. With `corrupt`
/// set, every stored checkpoint for every job is corrupted on the server,
/// and each owner interrupts only once: banked progress is always
/// discarded on resume, but a cold restart can still finish — the
/// configuration that isolates the discard-then-complete path.
fn pool(mode: Mode, period: u64, busy: u64, seed: u64, corrupt: bool) -> RunReport {
    let universe = match mode {
        Mode::Off => Universe::Vanilla,
        _ => Universe::Standard,
    };
    let mut b = owner_interrupted(universe, period, busy, seed, corrupt);
    if mode != Mode::Off {
        b = b.with_checkpoint_server();
    }
    if let Mode::Periodic(secs) = mode {
        b = b.startd_policy(StartdPolicy {
            ckpt_period: Some(SimDuration::from_secs(secs)),
            ..StartdPolicy::default()
        });
    }
    if corrupt {
        for j in 1..=JOBS {
            b = b.corrupt_checkpoints_for(j);
        }
    }
    b.run(OWNER_HORIZON)
}

pub fn run(size: Size, _: &[String]) {
    println!(
        "E6: checkpoint server vs restart-from-zero under owner evictions\n\
         {MACHINES} machines, {JOBS} jobs x {JOB_SECS}s; owners return every <period>s for <busy>s\n"
    );

    let modes: [(&str, Mode); 3] = [
        ("off (restart)", Mode::Off),
        ("ckpt server (exact)", Mode::On),
        ("ckpt server (300s period)", Mode::Periodic(300)),
    ];
    let mut rows = Vec::new();
    for (period, busy) in [(3600u64, 600u64), (1200, 600), (600, 600)] {
        for (name, mode) in modes {
            let [lost, saved, taken, restored, makespan, done] = mean_over_seeds(
                &[41, 42, 43],
                |s| pool(mode, period, busy, s, false),
                |r| {
                    [
                        r.metrics.work_lost_to_eviction.as_secs_f64(),
                        r.metrics.work_saved_by_checkpoint.as_secs_f64(),
                        r.metrics.checkpoints_taken as f64,
                        r.metrics.checkpoints_restored as f64,
                        makespan_secs(r),
                        r.metrics.jobs_completed as f64,
                    ]
                },
            );
            rows.push(vec![
                format!("{period}/{busy}"),
                name.to_string(),
                f(done, 1),
                f(taken, 1),
                f(restored, 1),
                f(lost, 0),
                f(saved, 0),
                f(makespan, 0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "period/busy (s)",
                "checkpointing",
                "completed",
                "ckpts taken",
                "resumed",
                "work lost (s)",
                "work saved (s)",
                "makespan (s)",
            ],
            &rows,
        )
    );
    println!(
        "Shape: without checkpointing every eviction re-runs the lost prefix;\n\
         with the server the loss collapses to (at most) the tail past the\n\
         last periodic checkpoint, and resumed attempts bank the rest.\n"
    );

    verify_work_lost_reduction();
    verify_checkpoint_scope();
    drive(size, export, |(), _| ());
}

/// Acceptance gate: same fault plan, same seed — work lost to eviction is
/// strictly lower with checkpointing on than off, for every seed tried.
fn verify_work_lost_reduction() {
    for seed in [41u64, 42, 43] {
        let off = pool(Mode::Off, 1200, 600, seed, false);
        let on = pool(Mode::On, 1200, 600, seed, false);
        let (lost_off, lost_on) = (
            off.metrics.work_lost_to_eviction.as_micros(),
            on.metrics.work_lost_to_eviction.as_micros(),
        );
        assert!(
            lost_on < lost_off,
            "seed {seed}: work_lost_to_eviction_us must drop with checkpointing \
             (off={lost_off}us, on={lost_on}us)"
        );
        println!(
            "seed {seed}: work_lost_to_eviction_us {lost_off} -> {lost_on} \
             ({:.0}% reduction)",
            100.0 * (1.0 - lost_on as f64 / lost_off as f64)
        );
    }
}

/// Acceptance gate: a corrupt checkpoint is an explicit, recoverable error
/// of the checkpoint layer — a `ckpt-discarded` event followed by a
/// successful cold-restart completion, never an implicit crash.
fn verify_checkpoint_scope() {
    let r = pool(Mode::On, 1200, 600, 41, true);
    let counts = r.telemetry.counts_by_kind();
    let discarded = counts.get("ckpt-discarded").copied().unwrap_or(0);
    assert!(
        r.metrics.checkpoints_discarded >= 1 && discarded >= 1,
        "corrupt injection must surface as explicit discard events"
    );
    assert_eq!(r.metrics.checkpoints_restored, 0, "nothing corrupt resumes");
    assert_eq!(
        r.metrics.jobs_completed,
        u64::from(JOBS),
        "every job still completes from a cold restart"
    );
    assert_eq!(
        r.metrics.incidental_errors_shown_to_user, 0,
        "no implicit error may reach the user"
    );
    println!(
        "corrupt injection: {} checkpoints stored, {} explicit discards, \
         {} jobs completed via cold restart, 0 errors shown to users\n",
        r.metrics.checkpoints_taken, r.metrics.checkpoints_discarded, r.metrics.jobs_completed
    );
}

/// Representative runs exported to stable paths: metrics snapshots for
/// off/on/corrupt under the same plan and seed, the checkpointing run's
/// event stream (the `ckpt-taken` -> `ckpt-restored` journey), and the
/// corrupt run's stream (the `ckpt-taken` -> `ckpt-discarded` path).
fn export(_: Size) -> ((), Vec<Artifact>) {
    let off = pool(Mode::Off, 1200, 600, 41, false);
    let on = pool(Mode::On, 1200, 600, 41, false);
    let corrupt = pool(Mode::On, 1200, 600, 41, true);
    let snapshot = format!(
        "{{\"off\":{},\"on\":{},\"corrupt\":{}}}",
        off.registry().snapshot_json(),
        on.registry().snapshot_json(),
        corrupt.registry().snapshot_json()
    );
    let files = vec![
        artifact("BENCH_checkpoint.json", snapshot),
        artifact("BENCH_checkpoint.events.jsonl", on.telemetry.to_jsonl()),
        artifact(
            "BENCH_checkpoint_corrupt.events.jsonl",
            corrupt.telemetry.to_jsonl(),
        ),
    ];
    ((), files)
}
