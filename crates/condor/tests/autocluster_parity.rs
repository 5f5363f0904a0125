//! The schedule sentinel, and what a schedule-moving change may not move.
//!
//! Both tests run the ledger's `pool_drain` world at a size a test can
//! afford (`common::drain_pool`: 300 machines, 450 java jobs, the ledger's
//! lease policy).
//!
//! `only_the_work_counter_moves` pins the whole run — event count, finish
//! time, the exported event stream, the metrics registry — to constants
//! recorded from the binary of the last change that was *meant* to move
//! them (the schedd's half of soft state by lease: jobs are advertised the
//! instant they become idle and renewed, all in one message, at half the
//! ad lifetime; the matchmaker runs a cycle only while it holds a job ad).
//! That change moved two of the five, and in the registry two lines and
//! added a third — see the constants. It is the sentinel the next
//! digest-preserving change is held to: a refactor or an optimisation that
//! claims to leave behaviour alone must leave every one of them alone, and
//! a change that moves the schedule on purpose re-records them from its
//! own binary and says so.
//!
//! `a_moved_schedule_delivers_the_same_work` is the other direction: its
//! first block of constants was recorded by running the same body on the
//! commit *before* that change (4c839c9, the 5-s advertisement drumbeat),
//! and is what no protocol change may move — which jobs complete, in how
//! many attempts, with which result-file bytes, on how much CPU.

mod common;

use ckpt::fnv1a;
use desim::SimTime;

/// 43,578 before the schedd's lease (1512bf3), by `World::census` on both
/// sides: 4,134 fewer `JobAd` deliveries — the 4,146 ads of the 5-s
/// drumbeat, one per idle job per tick, became 12 messages: the submission
/// and the renewals at 15, 30, … 165 s, while a job was idle — 49 fewer
/// schedd ticks (84 → 35: none after the last match, at 170 s) and 24
/// fewer cycles.
const EVENTS: u64 = 39_371;
/// Unmoved: the same jobs go to the same machines at the same cycles, so
/// the finish time and every byte of the exported stream stand.
const FINISHED_AT_S: u64 = 420;
const STREAM_BYTES: usize = 280_772;
const STREAM_FNV: u64 = 16_531_300_256_365_913_880;
/// The registry snapshot with `mm_pairs_evaluated` masked. Two lines moved
/// with the schedd's lease: `mm_cycles` 42 → 18 (the 17 cycles from 10 to
/// 170 s, which held a job ad — the six that matched among them — and the
/// one at 180 that lowered the last fences; none after) and the gauge
/// `mm_ads_active` 300 → 40 (what that last cycle found, not the one at
/// 420 s) — and one is new: `mm_ads_compiled` 16, the two jobs that stand
/// for 450, compiled again when the first machine asks `ImageSize` of
/// them, and two machines at start-up and at each of the five times their
/// shape had died with its last free member. Every other line — admitted,
/// refreshed, fenced, matches — is as it was.
const REGISTRY_FNV: u64 = 9_692_668_085_242_234_074;
/// What the per-job engine before shapes evaluated for this queue (bab636b,
/// one evaluation per job per machine), and what shape by shape needs: the
/// pool is one shape a side, and each of the six cycles that finds a
/// machine free ranks the machine shape and evaluates the pair anew (the
/// cycle before consumed the machine shape's last member). One evaluation
/// per (job shape, machine) needed 477 (19eac4f) — 1,123 under the 5-s
/// drumbeat, when every job was matched twice.
const PAIRS_PER_JOB: u64 = 98_090;
const PAIRS_PER_SHAPE: u64 = 12;

/// `snapshot` with the value of counter `name` replaced by `*`, and that
/// value.
fn mask_counter(snapshot: &str, name: &str) -> (String, u64) {
    const VALUE: &str = "\"value\":";
    let at = snapshot
        .find(&format!("\"{name}\""))
        .expect("counter is exported");
    let value = at + snapshot[at..].find(VALUE).expect("counter has a value") + VALUE.len();
    let end = value + snapshot[value..].find('}').expect("counter object closes");
    let n = snapshot[value..end].parse().expect("counter value");
    (format!("{}*{}", &snapshot[..value], &snapshot[end..]), n)
}

#[test]
fn only_the_work_counter_moves() {
    obs::reset_span_ids(0);
    let report = common::drain_pool().run(SimTime::from_secs(48 * 3600));
    assert!(report.quiescent);

    let stream = report.telemetry.to_jsonl_with_meta();
    let (registry, pairs) = mask_counter(&report.registry().snapshot_json(), "mm_pairs_evaluated");
    assert_eq!(
        (
            report.events,
            report.finished_at,
            stream.len(),
            fnv1a(stream.as_bytes()),
            fnv1a(registry.as_bytes()),
        ),
        (
            EVENTS,
            SimTime::from_secs(FINISHED_AT_S),
            STREAM_BYTES,
            STREAM_FNV,
            REGISTRY_FNV,
        ),
        "the schedule, the stream or a registry line other than mm_pairs_evaluated moved"
    );
    assert_eq!(pairs, report.matchmaker.pairs_evaluated);
    assert_eq!(
        pairs, PAIRS_PER_SHAPE,
        "the per-job engine evaluated {PAIRS_PER_JOB}"
    );
}

/// Recorded from the parent (4c839c9): what the work was.
const JOBS_FNV: u64 = 16_863_989_854_916_197_005;
const TOTAL_CPU_S: u64 = 67_410;
/// How it was scheduled: `EVENTS`, `FINISHED_AT_S` and this, recorded from
/// the last change meant to move them. Under the 5-s machine-ad drumbeat
/// (4c839c9) they read 67,950 events, 420 s and 910 matches (every job
/// matched twice, the second time onto a machine another job then had to
/// do without); 43,578, 420 s and 450 from there to the schedd's lease.
const MATCHES_MADE: u64 = 450;

#[test]
fn a_moved_schedule_delivers_the_same_work() {
    obs::reset_span_ids(0);
    let report = common::drain_pool().run(SimTime::from_secs(48 * 3600));
    assert!(report.quiescent);

    // Every job completed on its first attempt; the digest is over each
    // job's id and the bytes of the result file it came back with.
    let mut results = Vec::new();
    for (id, rec) in &report.jobs {
        let condor::JobState::Completed { result } = &rec.state else {
            panic!("job {id}: {:?}", rec.state);
        };
        assert_eq!(rec.attempts.len(), 1, "job {id}");
        results.extend_from_slice(&id.to_le_bytes());
        results.extend_from_slice(result.to_json().as_bytes());
    }
    let machines = report.machines.values();
    let work = (
        report.jobs.len(),
        fnv1a(&results),
        machines.clone().map(|m| m.executions).sum::<u64>(),
        machines.map(|m| m.claims_accepted).sum::<u64>(),
        report.metrics.incidental_errors_shown_to_user,
        (report.metrics.useful_cpu + report.metrics.wasted_cpu).as_micros(),
    );
    assert_eq!(
        work,
        (450, JOBS_FNV, 450, 450, 0, TOTAL_CPU_S * 1_000_000),
        "the work itself moved: that is a regression, not a schedule"
    );

    assert_eq!(
        (
            report.events,
            report.finished_at,
            report.matchmaker.matches_made
        ),
        (EVENTS, SimTime::from_secs(FINISHED_AT_S), MATCHES_MADE),
        "the schedule moved: re-record it if the change is a protocol change"
    );
}
