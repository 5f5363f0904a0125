//! Ten campaigns that said why the matchmaker's fences were not optional.
//!
//! Each pairs a black-hole rogue with a Standard-universe `heap_sum` job
//! behind a Java job. With machines advertising on change and by lease, the
//! schedd still on its 5-s job-ad drumbeat, and no fences, the Java job's
//! *phantom* second match (its schedd's ad crossed the notification of the
//! first) consumed the rogue's ad, so the Java job landed on a healthy
//! machine instead of failing twice on the rogue, chronic-host avoidance
//! never tripped, and when the owner evicted the Standard job — bare
//! exit-code semantics by design — it resumed on the black hole and the
//! kernel self-reported P3 every 610 s until the deadline. Fenced, every
//! match is a claim, the rogue is met, counted and avoided, and all ten
//! run clean.
//!
//! Since the schedd advertises on change too, the ten no longer tell the
//! fences apart: an idle job's ad crosses a match only where a renewal
//! meets a cycle (every 30 s) or an ad changes in the very instant of one,
//! these campaigns have no such crossing, and with both fences off all ten
//! — and all 8,000 gate-size campaigns of ledger seeds 1–8 — pass. What
//! the fences still buy is counted instead: on seed 1 `matches_made` reads
//! 5,597 without them against 4,637 with, for 4,482 and 4,480 claims
//! accepted (`pool_drain`: 1,521 against 1,500 for 1,500). The seeds stay
//! as cover for the world that found the bug.

use campaign::{check, generate, RunSummary};
use obs_analyze::Stream;

#[test]
fn black_hole_with_a_standard_job_runs_clean_behind_the_fences() {
    for seed in [
        1000078u64, 1000161, 1000183, 1000318, 1000386, 1000442, 1000456, 1000533, 1000841, 1000864,
    ] {
        let campaign = generate(seed);
        obs::reset_span_ids(0);
        let report = campaign.run(true);
        let stream = Stream::from_collector(&report.telemetry).expect("stream");
        let violations = check(&stream, &RunSummary::of(&report));
        assert!(
            violations.is_empty(),
            "seed {seed}: {violations:?}\n{}",
            campaign.describe()
        );
        // No phantoms: what the matchmaker notified, the schedd claimed.
        let requested = report.telemetry.iter().filter(|r| {
            matches!(
                r.event,
                obs::Event::Claim {
                    outcome: obs::ClaimOutcome::Requested,
                    ..
                }
            )
        });
        assert_eq!(
            report.matchmaker.matches_made,
            requested.count() as u64,
            "seed {seed}"
        );
    }
}
