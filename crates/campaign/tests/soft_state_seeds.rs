//! Campaigns that pair a black-hole rogue with a Standard-universe
//! `heap_sum` job behind a Java job.
//!
//! The first ten said why the matchmaker's fences were not optional:
//! unfenced, the Java job's *phantom* second match consumed the rogue's
//! ad, the Java job landed on a healthy machine instead of failing twice on
//! the rogue, and the Standard job, evicted by its owner, resumed on the
//! black hole and reported P3 every 610 s until the deadline. Fenced, every
//! match is a claim and each ran clean; since the schedd advertises on
//! change as well, they pass with the fences off too.
//!
//! What kept the Standard job off the rogue was chronic-host avoidance,
//! which needs the Java job to fail there twice — a schedule accident, not
//! a property. Under push-order ties seed 1,000,078's Java job failed on
//! `m5` twice, so the Standard job's rematch at 480 s drew `m4`; under the
//! canonical order `(time, sender, sender's send count)` it fails there
//! once and the rematch draws `m5`. There the startd ran the image under
//! the machine's dead JVM install, and the bare exit code handed
//! `MisconfiguredInstallation` — a remote-resource-scope error — to the
//! user. The kernel now runs Vanilla and Standard images with the
//! installation's Java health ignored (`Startd::direct_install`): they
//! never start a JVM, so the rogue cannot fail them, and every seed here
//! runs clean whichever machine it draws. Without that fix the canonical
//! order fails 32 of the 1,000 gate-size campaigns of ledger seed 1, all
//! of this family; 1,000,078 and 1,000,161 among the first ten, 1,000,067,
//! 1,000,074 and 1,000,099 added from the rest.

use campaign::{check, generate, RunSummary};
use obs_analyze::Stream;

#[test]
fn black_hole_with_a_standard_job_runs_clean_behind_the_fences() {
    for seed in [
        1000078u64, 1000161, 1000183, 1000318, 1000386, 1000442, 1000456, 1000533, 1000841,
        1000864, 1000067, 1000074, 1000099,
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
