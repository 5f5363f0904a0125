//! Plans no generator draws, written by hand as `Fault` lists over a
//! generated campaign's topology and queue.
//!
//! `generate` crashes at most one machine and never the matchmaker or the
//! schedd. A plan is just a list, so a test can replace a campaign's: here
//! two machines go down with overlapping windows while the matchmaker
//! itself is down, and the oracle must still find every error delivered to
//! its scope's manager and every job finished on the machines left
//! standing; and the schedd goes down, which the engine alone makes so.

use campaign::{check, generate, RunSummary};
use condor::{Fault, PoolBuilder as PB, Window};
use desim::SimTime;
use obs_analyze::Stream;

fn window(from_s: u64, to_s: u64) -> Window {
    Window::new(SimTime::from_secs(from_s), SimTime::from_secs(to_s))
}

#[test]
fn two_machine_crashes_and_a_matchmaker_crash_run_clean() {
    let mut campaign = (0..)
        .map(generate)
        .find(|c| c.machines == 3)
        .expect("some seed samples three machines");
    // The anchor (the last healthy machine) stays up. The other two go
    // down with overlapping windows while they run jobs, and the
    // matchmaker is down from just after the first crash: the victims'
    // rematches wait for it.
    let mm_down = window(90, 400);
    campaign.faults = vec![
        Fault::Crash {
            actor: PB::FIRST_MACHINE_ID,
            window: window(100, 1300),
        },
        Fault::Crash {
            actor: PB::FIRST_MACHINE_ID + 1,
            window: window(80, 900),
        },
        Fault::Crash {
            actor: PB::MATCHMAKER_ID,
            window: mm_down,
        },
    ];
    obs::reset_span_ids(0);
    let report = campaign.run(true);
    assert!(report.quiescent, "not quiescent:\n{}", campaign.describe());
    assert!(
        report.metrics.vanished_attempts >= 2,
        "{:?}",
        report.metrics
    );
    let matched_while_down = report.telemetry.iter().any(|r| {
        matches!(r.event, obs::Event::Match { .. })
            && mm_down.contains(SimTime::from_micros(r.at_us))
    });
    assert!(!matched_while_down, "a crashed matchmaker made a match");
    let stream = Stream::from_collector(&report.telemetry).expect("stream");
    let violations = check(&stream, &RunSummary::of(&report));
    assert!(
        violations.is_empty(),
        "oracle fired: {violations:?}\n{}",
        campaign.describe()
    );
}

/// The schedd crashes mid-run, with no schedd code: the engine takes it
/// down and drops what is sent to it. It comes back holding every job and
/// claim it had, but the crash forgot its lease and report deadlines, so
/// what it was running stays running: the oracle reports `no-lost-work`
/// three times (the run is not quiescent; jobs 1 and 2 end `Running`).
/// That finding is ROADMAP item 17's case (a crash forgets, and the schedd
/// replays its log); this test holds only the engine's half.
#[test]
fn a_schedd_crash_drops_what_is_sent_to_it() {
    let mut campaign = (0..)
        .map(generate)
        .find(|c| c.machines == 3)
        .expect("some seed samples three machines");
    campaign.faults = vec![Fault::Crash {
        actor: PB::SCHEDD_ID,
        window: window(100, 400),
    }];
    let builder = campaign.build_pool(true);
    let layout = builder.layout();
    let (mut world, _, _) = builder.build();
    layout.drain(&mut world, campaign::gen::deadline());
    assert!(world.dropped_down() > 0, "{}", campaign.describe());
}
