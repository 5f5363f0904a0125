//! Experiment E7 — the network as an error scope: timed partitions,
//! leased claims with epoch fencing, and adaptive retry.
//!
//! The paper's grid has no reliable failure detector: a partition between
//! the schedd and a startd is *silence*, and silence is an implicit error
//! (§3). This experiment injects a mixed network fault plan — a partition
//! window cutting the schedd off from the whole pool, a lossy link, and a
//! link that duplicates every frame — and compares two transport kernels:
//!
//! * **naive** — fixed retry delay, no lease, no circuit breaker. The
//!   schedd hammers dead links at a constant rate and only learns a claim
//!   died when the (long) report timeout fires.
//! * **adaptive** — leased claims (heartbeats, both sides expire the claim
//!   on missed leases), exponential backoff with deterministic jitter, and
//!   a per-machine circuit breaker that stops matching to machines that
//!   keep timing out.
//!
//! Claims measured:
//!
//! 1. **Exactly-once under duplication.** Every job completes exactly once
//!    despite duplicated frames: stale-epoch messages are counted, never
//!    acted on.
//! 2. **Quieter outages.** During the partition window the adaptive kernel
//!    sends strictly fewer claim requests than the fixed-delay kernel.
//! 3. **Determinism.** Two runs with the same seed produce bit-identical
//!    metrics snapshots and event streams.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e7`

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{adaptive_schedd_policy, makespan_secs};
use crate::{f, render_table};
use condor::prelude::*;
use desim::{SimDuration, SimTime};
use gridvm::programs;

const MACHINES: usize = 4;
const JOBS: u32 = 6;
const JOB_SECS: u64 = 120;
/// The partition window: the schedd loses the first two machines.
const OUTAGE: (u64, u64) = (60, 900);
const DEADLINE_SECS: u64 = 7200;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Fixed 10s retry delay, no lease, no breaker.
    Naive,
    /// Lease + exponential backoff with jitter + per-machine breaker.
    Adaptive,
}

/// The mixed fault plan every run shares: a partition cutting the schedd
/// off from the whole pool (the matchmaker stays reachable, so matches
/// keep arriving — only claims die), a post-heal loss window on machine
/// 2's link, and a link to machine 3 that duplicates every frame.
fn plan() -> FaultPlan {
    let m = |i: usize| PoolBuilder::FIRST_MACHINE_ID + i;
    let s = PoolBuilder::SCHEDD_ID;
    FaultPlan::new(vec![
        Fault::Net {
            window: Window::new(SimTime::from_secs(OUTAGE.0), SimTime::from_secs(OUTAGE.1)),
            fault: NetFault::Partition {
                a: vec![s],
                b: vec![m(0), m(1), m(2), m(3)],
            },
        },
        Fault::Net {
            window: Window::new(
                SimTime::from_secs(OUTAGE.1),
                SimTime::from_secs(OUTAGE.1 + 300),
            ),
            fault: NetFault::Loss {
                a: s,
                b: m(2),
                prob: 0.3,
            },
        },
        Fault::Net {
            window: Window::from(SimTime::ZERO),
            fault: NetFault::Duplication {
                a: s,
                b: m(3),
                prob: 1.0,
            },
        },
    ])
}

fn pool(mode: Mode, seed: u64) -> RunReport {
    pool_with_plan(mode, seed, plan())
}

fn pool_with_plan(mode: Mode, seed: u64, plan: FaultPlan) -> RunReport {
    let policy = match mode {
        Mode::Naive => ScheddPolicy {
            retry: RetryPolicy::Fixed(SimDuration::from_secs(10)),
            lease: None,
            breaker: None,
            ..ScheddPolicy::default()
        },
        Mode::Adaptive => adaptive_schedd_policy(),
    };
    PoolBuilder::new(seed)
        .machines((0..MACHINES).map(|i| MachineSpec::healthy(&format!("ws{i}"), 256)))
        .schedd_policy(policy)
        .faults(plan)
        .jobs((1..=JOBS).map(|i| {
            JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(JOB_SECS))
        }))
        .run(SimTime::from_secs(DEADLINE_SECS))
}

/// Claim requests the schedd put on the wire while the partition was up —
/// every machine is unreachable then, so each one is a wasted retry send
/// that a well-behaved kernel thins out.
fn requests_during_outage(r: &RunReport) -> usize {
    let (from, to) = (
        SimTime::from_secs(OUTAGE.0).as_micros(),
        SimTime::from_secs(OUTAGE.1).as_micros(),
    );
    r.telemetry
        .iter()
        .filter(|rec| {
            matches!(
                rec.event,
                obs::Event::Claim {
                    outcome: obs::ClaimOutcome::Requested,
                    ..
                }
            ) && rec.at_us >= from
                && rec.at_us < to
        })
        .count()
}

pub fn run(size: Size, operands: &[String]) {
    match operands {
        [] => {}
        [flag] if flag == "--localize" => return verify_localization(),
        other => panic!("e7 takes only --localize, got {other:?}"),
    }
    println!(
        "E7: partition-tolerant scheduling — naive vs lease+backoff+breaker\n\
         {MACHINES} machines, {JOBS} jobs x {JOB_SECS}s; partition cuts the schedd off\n\
         from every machine during [{}s, {}s); one lossy link, one duplicating link\n",
        OUTAGE.0, OUTAGE.1
    );

    // Every (seed, kernel) pair runs once; the table and the first two
    // gates read the same reports.
    let runs: Vec<(u64, &str, RunReport)> = [41u64, 42, 43]
        .into_iter()
        .flat_map(|seed| {
            [("naive", Mode::Naive), ("adaptive", Mode::Adaptive)]
                .map(|(name, mode)| (seed, name, pool(mode, seed)))
        })
        .collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(seed, name, r)| {
            vec![
                seed.to_string(),
                name.to_string(),
                r.metrics.jobs_completed.to_string(),
                requests_during_outage(r).to_string(),
                r.metrics.failed_claims.to_string(),
                r.metrics.leases_expired.to_string(),
                r.metrics.stale_epochs_dropped.to_string(),
                r.metrics.breaker_opens.to_string(),
                r.net.dropped_total().to_string(),
                r.net.duplicated_total().to_string(),
                f(makespan_secs(r), 0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "seed",
                "kernel",
                "completed",
                "claims in outage",
                "failed claims",
                "leases expired",
                "stale dropped",
                "breaker opens",
                "msgs dropped",
                "msgs dup'd",
                "makespan (s)",
            ],
            &rows,
        )
    );
    println!(
        "Shape: both kernels finish every job once the partition heals, but\n\
         the naive one hammers the dead links at a fixed rate all outage\n\
         long, while the adaptive one backs off, trips breakers, and\n\
         converts the silent partition into explicit lease-expired errors.\n"
    );

    verify_exactly_once(&runs);
    verify_quieter_outage(&runs);
    verify_determinism();
    drive(size, export, |(), _| ());
}

/// Acceptance gate: under the mixed partition/loss/duplication plan every
/// job completes exactly once, and every stale-epoch frame was counted but
/// never acted upon.
fn verify_exactly_once(runs: &[(u64, &str, RunReport)]) {
    for (seed, _, r) in runs {
        assert!(r.quiescent, "seed {seed}: pool must drain");
        assert_eq!(
            r.metrics.jobs_completed,
            u64::from(JOBS),
            "seed {seed}: every job completes"
        );
        for (job, rec) in &r.jobs {
            assert!(
                matches!(rec.state, JobState::Completed { .. }),
                "job {job} must finish Completed: {:?}",
                rec.state
            );
            let delivered = rec
                .attempts
                .iter()
                .filter(|a| a.scope == Some(errorscope::Scope::Program))
                .count();
            assert_eq!(delivered, 1, "seed {seed} job {job}: exactly one result");
        }
        // The duplicating link guarantees stale frames existed; the
        // epoch fence guarantees they were only ever counted.
        assert!(
            r.metrics.stale_epochs_dropped
                + r.machines
                    .values()
                    .map(|m| m.stale_epochs_dropped)
                    .sum::<u64>()
                >= 1,
            "seed {seed}: duplicated frames must be fenced and counted"
        );
        assert_eq!(
            r.metrics.incidental_errors_shown_to_user, 0,
            "seed {seed}: no implicit error reaches the user"
        );
    }
    println!("exactly-once: all {JOBS} jobs, both kernels, seeds 41-43; stale frames fenced\n");
}

/// Acceptance gate: during the outage the adaptive kernel sends strictly
/// fewer claim requests than the fixed-delay kernel, for every seed tried.
fn verify_quieter_outage(runs: &[(u64, &str, RunReport)]) {
    for pair in runs.chunks(2) {
        let [(seed, _, naive), (_, _, adaptive)] = pair else {
            unreachable!("runs come in naive/adaptive pairs")
        };
        let (naive, adaptive) = (
            requests_during_outage(naive),
            requests_during_outage(adaptive),
        );
        assert!(
            adaptive < naive,
            "seed {seed}: backoff+breaker must send fewer claims during the \
             outage (naive={naive}, adaptive={adaptive})"
        );
        println!(
            "seed {seed}: claim requests during outage {naive} -> {adaptive} \
             ({:.0}% reduction)",
            100.0 * (1.0 - adaptive as f64 / naive as f64)
        );
    }
    println!();
}

/// Acceptance gate: two same-seed runs are bit-identical — same metrics
/// snapshot, same event stream, same finish time, same per-link counters.
fn verify_determinism() {
    let a = pool(Mode::Adaptive, 41);
    let b = pool(Mode::Adaptive, 41);
    assert_eq!(
        a.registry().snapshot_json(),
        b.registry().snapshot_json(),
        "same-seed metrics snapshots must be bit-identical"
    );
    assert_eq!(
        a.telemetry.to_jsonl_with_meta(),
        b.telemetry.to_jsonl_with_meta()
    );
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.net, b.net);
    println!(
        "determinism: two seed-41 adaptive runs bit-identical \
         ({} events, finished at {}us)\n",
        a.events,
        a.finished_at.as_micros()
    );
}

/// `--localize`: cross-check with the post-mortem analyzer. A seed-41
/// adaptive run under the fault plan is diffed against a same-seed run
/// with no faults at all; the analyzer must name one of the partitioned
/// link's endpoints from the event streams alone (the plan's own labels
/// are the ground truth, and `NetFaultApplied` events are filtered from
/// the analyzer's view).
fn verify_localization() {
    let faulty = pool(Mode::Adaptive, 41);
    let reference = pool_with_plan(Mode::Adaptive, 41, FaultPlan::none());
    let fs = obs_analyze::Stream::from_collector(&faulty.telemetry).expect("complete stream");
    let rs = obs_analyze::Stream::from_collector(&reference.telemetry).expect("complete stream");
    let loc = obs_analyze::localize(&fs, &rs);
    let accepted = plan().accepted_culprits();
    let culprit = loc.culprit.as_deref().expect("a culprit must be named");
    assert!(
        accepted.contains(&culprit.to_string()),
        "analyzer named {culprit} ({}), accepted: {accepted:?}",
        loc.fault_class
    );
    println!(
        "localization: analyzer named {culprit} ({}) — in the plan's \
         ground-truth set {accepted:?}",
        loc.fault_class
    );
}

/// Representative seed-41 runs exported to stable paths: a combined
/// naive/adaptive metrics snapshot (with per-link `net_msgs_dropped` /
/// `net_msgs_duplicated` counters) and the adaptive run's event stream
/// (the lease-expired / stale-epoch / breaker journey).
fn export(_: Size) -> ((), Vec<Artifact>) {
    let naive = pool(Mode::Naive, 41);
    let adaptive = pool(Mode::Adaptive, 41);
    let snapshot = format!(
        "{{\"naive\":{},\"adaptive\":{}}}",
        naive.registry().snapshot_json(),
        adaptive.registry().snapshot_json()
    );
    assert!(
        snapshot.contains("net_msgs_dropped") && snapshot.contains("net_msgs_duplicated"),
        "per-link counters must be in the snapshot"
    );
    let files = vec![
        artifact("BENCH_partition.json", snapshot),
        artifact(
            "BENCH_partition.events.jsonl",
            adaptive.telemetry.to_jsonl_with_meta(),
        ),
    ];
    ((), files)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Time to detect, pinned: what a change to a periodic message may
    /// retime only by saying so. The partition falls at 60 s; in both
    /// kernels' worlds the four running claims expire on the schedd's side
    /// and on the startds' at the recorded instants, and the adaptive
    /// kernel's first breaker opens at the recorded one (µs; the same
    /// under the schedd's 5-s job-ad drumbeat, 1512bf3).
    #[test]
    fn detection_instants_are_the_recorded_ones() {
        let report = pool(Mode::Adaptive, 41);
        let first = |wanted: &dyn Fn(&obs::Event) -> bool| {
            let mut records = report.telemetry.iter().map(|r| r.to_record());
            records.find(|r| wanted(&r.event)).map(|r| r.at_us)
        };
        let expired = |on: &'static str| move |e: &obs::Event| matches!(e, obs::Event::LeaseExpired { side, .. } if side == on);
        let opened =
            |e: &obs::Event| matches!(e, obs::Event::BreakerStateChange { to, .. } if to == "open");
        assert_eq!(
            (
                first(&expired("schedd")),
                first(&expired("startd")),
                first(&opened)
            ),
            (Some(80_005_000), Some(90_004_000), Some(150_001_000))
        );
    }
}
