//! Negotiating per job shape moves one number and nothing else.
//!
//! The body below is the ledger's `pool_drain` world at a size a test can
//! afford (300 machines, 450 java jobs, the ledger's lease policy). Every
//! constant was recorded by running this same body on the commit before
//! shapes existed (bab636b, one evaluation per job per machine): the
//! schedule, the exported event stream and the whole metrics registry must
//! still be those, except for the one counter that says how many ad pairs
//! were evaluated to get there.

use ckpt::fnv1a;
use condor::prelude::*;
use desim::{SimDuration, SimTime};

const EVENTS: u64 = 67_950;
const FINISHED_AT_S: u64 = 420;
const STREAM_BYTES: usize = 323_891;
const STREAM_FNV: u64 = 16_267_423_933_880_727_041;
/// The registry snapshot with `mm_pairs_evaluated` masked.
const REGISTRY_FNV: u64 = 11_261_921_893_057_757_632;
/// What the per-job engine evaluated, and what one evaluation per
/// (shape, machine) needs.
const PAIRS_PER_JOB: u64 = 98_090;
const PAIRS_PER_SHAPE: u64 = 1_123;

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
    let report = PoolBuilder::new(1)
        .machines((0..300).map(|i| MachineSpec::healthy(&format!("m{i}"), 256)))
        .jobs((1..=450).map(|i| {
            JobSpec::java(
                i,
                "ada",
                gridvm::programs::completes_main(),
                JavaMode::Scoped,
            )
            .with_exec_time(SimDuration::from_secs(60 + u64::from(i % 7) * 30))
        }))
        .schedd_policy(ScheddPolicy {
            lease: Some(LeaseInfo {
                interval: SimDuration::from_secs(10),
                timeout: SimDuration::from_secs(30),
            }),
            max_attempts: 60,
            ..ScheddPolicy::default()
        })
        .run(SimTime::from_secs(48 * 3600));
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
