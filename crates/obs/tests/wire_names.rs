//! The docs spell the event stream's wire names as the writer does:
//! EXPERIMENTS.md's schema row lists every `Event::kind()`, and neither it
//! nor the README uses the `_` spelling of a hyphenated one (grepping an
//! export for `span_hop` finds nothing).

use obs::{ClaimOutcome, Event, IoOutcome, SpanAction};
use std::collections::BTreeSet;
use std::path::Path;

/// One event of every variant.
fn one_of_each() -> Vec<Event> {
    let s = String::new;
    let events = vec![
        Event::Claim {
            job: 1,
            machine: 2,
            outcome: ClaimOutcome::Requested,
        },
        Event::Dispatch { job: 1, machine: 2 },
        Event::Match { job: 1, machine: 2 },
        Event::Escape {
            span: 1,
            layer: s(),
            code: s(),
            scope: s(),
        },
        Event::Reschedule {
            job: 1,
            machine: 2,
            reason: s(),
        },
        Event::Disposition {
            job: 1,
            disposition: s(),
            scope: s(),
            span: 1,
        },
        Event::IoOp {
            op: s(),
            outcome: IoOutcome::Ok,
        },
        Event::Violation {
            principle: 1,
            machine: 2,
            detail: s(),
        },
        Event::CheckpointTaken {
            job: 1,
            machine: 2,
            bytes: 3,
            banked_us: 4,
        },
        Event::CheckpointRestored {
            job: 1,
            machine: 2,
            saved_us: 3,
        },
        Event::CheckpointDiscarded {
            job: 1,
            machine: 2,
            reason: s(),
        },
        Event::LeaseExpired {
            job: 1,
            machine: 2,
            side: s(),
        },
        Event::StaleEpochDropped {
            job: 1,
            kind: s(),
            got: 2,
            current: 3,
        },
        Event::BreakerStateChange {
            machine: 2,
            from: s(),
            to: s(),
        },
        Event::NetFaultApplied {
            kind: s(),
            link: s(),
            active: true,
        },
        Event::MemFlip {
            job: 1,
            machine: 2,
            target: s(),
            bit: 3,
        },
        Event::FlockFault {
            job: 1,
            pool: 2,
            kind: s(),
        },
        Event::SpanHop {
            span: 1,
            layer: s(),
            action: SpanAction::Raised,
            scope: s(),
        },
    ];
    // A new variant stops this match compiling until it is listed above.
    for e in &events {
        match e {
            Event::Claim { .. }
            | Event::Dispatch { .. }
            | Event::Match { .. }
            | Event::Escape { .. }
            | Event::Reschedule { .. }
            | Event::Disposition { .. }
            | Event::IoOp { .. }
            | Event::Violation { .. }
            | Event::CheckpointTaken { .. }
            | Event::CheckpointRestored { .. }
            | Event::CheckpointDiscarded { .. }
            | Event::LeaseExpired { .. }
            | Event::StaleEpochDropped { .. }
            | Event::BreakerStateChange { .. }
            | Event::NetFaultApplied { .. }
            | Event::MemFlip { .. }
            | Event::FlockFault { .. }
            | Event::SpanHop { .. } => {}
        }
    }
    events
}

fn doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn experiments_md_lists_every_wire_name_as_written() {
    let kinds: BTreeSet<&str> = one_of_each().iter().map(Event::kind).collect();
    assert_eq!(kinds.len(), 18, "every variant has its own wire name");
    let experiments = doc("EXPERIMENTS.md");
    let row = experiments
        .lines()
        .find(|l| l.starts_with("| `BENCH_naive_vs_scoped.events.jsonl` |"))
        .expect("the event stream's row in the artifact table");
    for kind in &kinds {
        assert!(
            row.contains(&format!("\"{kind}\"")),
            "{kind} missing: {row}"
        );
    }
    for (name, text) in [
        ("EXPERIMENTS.md", &experiments),
        ("README.md", &doc("README.md")),
    ] {
        for kind in kinds.iter().filter(|k| k.contains('-')) {
            let wrong = kind.replace('-', "_");
            assert!(
                !text.contains(&wrong),
                "{name} spells `{kind}` as `{wrong}`"
            );
        }
    }
}
