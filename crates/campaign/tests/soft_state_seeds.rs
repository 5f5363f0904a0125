//! Ten campaigns that say why the matchmaker's fences are not optional.
//!
//! Each pairs a black-hole rogue with a Standard-universe `heap_sum` job
//! behind a Java job. With advertise-on-change and the lease but no
//! fences, the Java job's *phantom* second match (its schedd's ad crossed
//! the notification of the first) consumed the rogue's ad, so the Java job
//! landed on a healthy machine instead of failing twice on the rogue,
//! chronic-host avoidance never tripped, and when the owner evicted the
//! Standard job — bare exit-code semantics by design — it resumed on the
//! black hole and the kernel self-reported P3 every 610 s until the
//! deadline. (Under the 5-s drumbeat the consumed ad was back before the
//! next cycle, which hid the phantom.) Fenced, every match is a claim, the
//! rogue is met, counted and avoided, and all ten run clean.

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
