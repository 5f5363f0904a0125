//! One fact, one number: where an actor keeps a counter and records an
//! event at the same step ([`counter_of`]'s pairs), the two agree on every
//! fuzzed run. No startd drops a stale epoch over these seeds, so that
//! pair holds at zero only. Counters that are *not* one fact with an
//! event (`reschedules`, `checkpoints_*`) say why in their docs.

use campaign::gen::{deadline, negative_control_pool};
use campaign::{generate, generate_flock};
use condor::RunReport;
use obs::{ClaimOutcome, Event};
use std::collections::BTreeMap;

/// The counter an event recorded by `actor` is one fact with, if any.
fn counter_of(actor: &str, event: &Event) -> Option<&'static str> {
    Some(match event {
        Event::StaleEpochDropped { .. } => "stale_epochs_dropped",
        // `side` is the recording actor's kind: "schedd" or "startd".
        Event::LeaseExpired { side, .. } if actor.starts_with(side.as_str()) => "leases_expired",
        Event::BreakerStateChange { to, .. } if to == "open" => "breaker_opens",
        Event::FlockFault { .. } => "flock_faults",
        Event::Violation { principle: 3, .. } => "incidental_errors_shown_to_user",
        Event::Claim { outcome, .. } => match outcome {
            ClaimOutcome::Accepted => "claims_accepted",
            ClaimOutcome::Rejected { .. } => "claims_rejected",
            _ => return None,
        },
        _ => return None,
    })
}

/// Assert every pair on one run; `what` names the run in a failure.
fn assert_one_fact(report: &RunReport, what: &str) {
    assert_eq!(report.telemetry.evicted(), 0, "{what}: the stream is whole");
    let m = &report.metrics;
    let mut kept: BTreeMap<(String, &str), u64> = BTreeMap::new();
    for (counter, n) in [
        ("stale_epochs_dropped", m.stale_epochs_dropped),
        ("leases_expired", m.leases_expired),
        ("breaker_opens", m.breaker_opens),
        ("flock_faults", m.flock_faults),
        (
            "incidental_errors_shown_to_user",
            m.incidental_errors_shown_to_user,
        ),
    ] {
        kept.insert(("schedd".into(), counter), n);
    }
    for s in report.machines.values() {
        for (counter, n) in [
            ("claims_accepted", s.claims_accepted),
            ("claims_rejected", s.claims_rejected),
            ("stale_epochs_dropped", s.stale_epochs_dropped),
            ("leases_expired", s.leases_expired),
        ] {
            kept.insert((format!("startd:{}", s.name), counter), n);
        }
    }
    let mut recorded: BTreeMap<(String, &str), u64> = kept.keys().map(|k| (k.clone(), 0)).collect();
    for r in report.telemetry.iter() {
        let key = counter_of(r.actor, r.event).map(|c| (r.actor.to_string(), c));
        if let Some(n) = key.and_then(|k| recorded.get_mut(&k)) {
            *n += 1;
        }
    }
    for (key, n) in &kept {
        assert_eq!(*n, recorded[key], "{what}: {} {}", key.0, key.1);
    }
}

#[test]
fn the_counters_of_a_fuzzed_pool_are_the_events_it_recorded() {
    for seed in 0..200 {
        assert_one_fact(&generate(seed).run(true), &format!("campaign seed {seed}"));
    }
    // The sweep's kernels are all scoped; the naive negative control shows
    // its user incidental errors, so that pair is held to a non-zero count.
    let naive = negative_control_pool(11, true).run(deadline());
    assert!(naive.metrics.incidental_errors_shown_to_user > 0);
    assert_one_fact(&naive, "negative control");
}

#[test]
fn the_counters_of_a_fuzzed_federation_are_the_events_it_recorded() {
    for seed in 0..50 {
        let report = generate_flock(seed).run(true);
        assert_one_fact(&report, &format!("flock campaign seed {seed}"));
    }
}
