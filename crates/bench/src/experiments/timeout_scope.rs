//! Experiment E3 — indeterminate scope and the NFS hard/soft-mount dilemma
//! (§5).
//!
//! "A failure to communicate for one second may be of network scope, but a
//! failure to communicate for a year likely has larger scope … NFS offers
//! 'hard mounted' to hide all network errors or 'soft mounted' to expose
//! them after a certain retry period … both of these choices are unsavory,
//! as they offer no mechanism for a single program to choose its own
//! failure criteria."
//!
//! We model a remote I/O operation against a store that suffers outages of
//! varying duration, retried under three criteria: hard (retry forever),
//! soft (admin-fixed 30s timeout), and per-job deadlines chosen by each
//! job. We report completion latency and misclassification: a *transient*
//! outage surfaced to the caller is a false alarm; a *permanent* outage
//! hidden forever is a hang.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e3`

use crate::harness::Size;
use crate::render_table;
use errorscope::escalate::{EscalationPolicy, RetryCriteria, RetryDecision};
use errorscope::Scope;
use std::time::Duration;

/// Outcome of driving one retry loop against an outage of length
/// `outage` (None = permanent), with retries every `retry_every`.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Operation eventually succeeded, after this long.
    Succeeded(Duration),
    /// The criteria gave up after this long; the error surfaced with the
    /// scope the escalation policy assigned at that moment.
    GaveUp(Duration, Scope),
    /// Never finished within the observation horizon (a hang).
    Hung,
}

fn drive(criteria: RetryCriteria, outage: Option<Duration>, horizon: Duration) -> Outcome {
    let retry_every = Duration::from_secs(5);
    let escalation = EscalationPolicy::network_default();
    let mut elapsed = Duration::ZERO;
    loop {
        // Does the operation succeed at this instant?
        let up = match outage {
            Some(len) => elapsed >= len,
            None => false,
        };
        if up {
            return Outcome::Succeeded(elapsed);
        }
        match criteria.decide(elapsed) {
            RetryDecision::GiveUp => {
                return Outcome::GaveUp(elapsed, escalation.scope_at(elapsed));
            }
            RetryDecision::Retry => {
                elapsed += retry_every;
                if elapsed > horizon {
                    return Outcome::Hung;
                }
            }
        }
    }
}

pub fn run(_: Size, _: &[String]) {
    println!("E3: indeterminate scope — hard vs soft mounts vs per-job criteria (§5)\n");

    let horizon = Duration::from_secs(24 * 3600);
    let outages: [(&str, Option<Duration>); 4] = [
        ("blip (10s)", Some(Duration::from_secs(10))),
        ("outage (5min)", Some(Duration::from_secs(300))),
        ("long outage (2h)", Some(Duration::from_secs(7200))),
        ("permanent", None),
    ];
    let criteria: [(&str, RetryCriteria); 4] = [
        ("hard mount", RetryCriteria::Hard),
        (
            "soft mount (30s)",
            RetryCriteria::Soft {
                timeout: Duration::from_secs(30),
            },
        ),
        (
            "per-job: patient (4h)",
            RetryCriteria::PerJob {
                deadline: Duration::from_secs(4 * 3600),
            },
        ),
        (
            "per-job: hasty (60s)",
            RetryCriteria::PerJob {
                deadline: Duration::from_secs(60),
            },
        ),
    ];

    let mut rows = Vec::new();
    for (oname, outage) in &outages {
        for (cname, c) in &criteria {
            let out = drive(*c, *outage, horizon);
            let (result, verdict) = match out {
                Outcome::Succeeded(t) => (
                    format!("succeeded after {}s", t.as_secs()),
                    "ok".to_string(),
                ),
                Outcome::GaveUp(t, scope) => {
                    let verdict = if outage.is_none() {
                        "ok: real failure surfaced".to_string()
                    } else if matches!(c, RetryCriteria::Soft { .. }) {
                        "FALSE ALARM (admin's timeout, not the job's)".to_string()
                    } else {
                        "gave up (job's own choice)".to_string()
                    };
                    (
                        format!("error after {}s ({} scope)", t.as_secs(), scope),
                        verdict,
                    )
                }
                Outcome::Hung => (
                    "still retrying after 24h".to_string(),
                    "HANG on permanent failure".to_string(),
                ),
            };
            rows.push(vec![oname.to_string(), cname.to_string(), result, verdict]);
        }
    }
    println!(
        "{}",
        render_table(&["outage", "criteria", "result", "verdict"], &rows)
    );

    println!(
        "Paper's shape: the hard mount hangs on permanent failures; the soft\n\
         mount false-alarms on anything longer than the admin's 30s; only\n\
         per-job criteria let a patient job survive a 2h outage while a hasty\n\
         job bails in a minute — each choosing its own failure semantics.\n"
    );

    // The escalation policy in isolation: time widens scope.
    println!("Scope assigned to a persisting communication failure over time:\n");
    let policy = EscalationPolicy::network_default();
    let mut rows = Vec::new();
    for secs in [1u64, 30, 60, 600, 3600, 86_400] {
        rows.push(vec![
            format!("{secs}s"),
            policy.scope_at(Duration::from_secs(secs)).to_string(),
        ]);
    }
    println!("{}", render_table(&["persisted for", "scope"], &rows));
}
