//! Reference-diff fault localization: name the actor that broke.
//!
//! The simulator is deterministic — two runs from the same seed produce
//! byte-identical event streams. So when one run carries an injected
//! fault and the other does not, the *first record where the streams
//! disagree* marks the instant the fault became observable, and every
//! error-scope event after it is evidence. Walking that evidence forward
//! classifies the fault and names the culprit in the shared vocabulary
//! `condor::FaultPlan::ground_truth` speaks: `"machine:{id}"` for a host
//! that accepts work and breaks it, `"link:{id}"` for the path to a host
//! that cannot be reached, `"ckpt-server"` for a corrupt checkpoint
//! store.
//!
//! The evidence classes, in decision priority:
//!
//! 0. **heap-flip / ckpt-flip** — a `MemFlip` record: the (simulated)
//!    hardware scrubber logged a bit-flip into live heap or stored
//!    checkpoint bytes. Direct physical evidence outranks every protocol
//!    inference, and without it a silent heap flip would fall through to
//!    the weaker reschedule heuristic (or to no verdict at all — that is
//!    what "silent" means). The earliest flip names the culprit:
//!    `machine:{id}` for a heap flip, `ckpt-server` for an image flip.
//!    0b. **principle-violation** — the kernel's own audit reported an
//!    error-scope principle breach (naive-mode delivery to the user,
//!    the campaign oracle's negative control). The machine whose
//!    reports tripped the most violations is named `machine:{id}`.
//! 1. **corrupt-checkpoint** — any `CheckpointDiscarded`: the store
//!    handed back an image that failed validation. Highest *protocol*
//!    priority because discards never happen for network or host faults.
//!    1b. **remote-pool** — any `FlockFault`: the schedd's flocking layer
//!    already ran its own diagnosis and scoped the failure to a remote
//!    pool (saturation, unreachable matchmaker, revoked or silent flocked
//!    claim). This out-ranks the machine-level silence and reschedule
//!    heuristics below, because when the silence is on an inter-pool
//!    link the same outage also produces lease/claim evidence against
//!    every remotely-matched machine — blaming one `machine:{id}` would
//!    name a symptom. The culprit is `pool:{id}` (most faults, ties to
//!    the lower pool id).
//! 2. **unreachable** — `LeaseExpired` and timed-out `Claim`s name a
//!    machine nobody can talk to; the fault is the *path*, so the
//!    culprit is `link:{id}`.
//! 3. **faulty-machine** — `Reschedule`s against a machine with *zero*
//!    unreachable evidence: the host is perfectly reachable and keeps
//!    breaking jobs (black hole, bad installation).
//! 4. **degraded-link** — stale-epoch drops without lease loss: frames
//!    arrive late or duplicated but the link still works.
//!
//! `NetFaultApplied` events are the injector's own answer key, so the
//! diff and the evidence walk both ignore them — the localizer must earn
//! its verdict from the protocol's behavior alone. `MemFlip` is the one
//! exception, deliberately: machine-check and ECC-scrubber logs exist on
//! real hardware, so reading them is post-mortem practice, not cheating.

use crate::chain::causal_chains;
use crate::journey::journeys;
use crate::stream::Stream;
use obs::{ClaimOutcome, Event, EventRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The first record where a faulty stream leaves its reference.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the filtered (injector-event-free) record sequence.
    pub index: usize,
    /// Simulation time of the divergence.
    pub at_us: u64,
    /// The actor whose record diverged.
    pub actor: String,
    /// The faulty stream's record at the divergence point, if it has one
    /// (`None` when the faulty stream is a strict prefix).
    pub faulty: Option<EventRecord>,
    /// The reference stream's record at the same point.
    pub reference: Option<EventRecord>,
}

/// A localization verdict.
#[derive(Debug, Clone)]
pub struct Localization {
    /// The named culprit — `"machine:{id}"`, `"link:{id}"`,
    /// `"ckpt-server"` — or `None` when inconclusive.
    pub culprit: Option<String>,
    /// The fault class the evidence supports (`"heap-flip"`,
    /// `"ckpt-flip"`, `"principle-violation"`, `"corrupt-checkpoint"`,
    /// `"remote-pool"`, `"unreachable"`, `"faulty-machine"`,
    /// `"degraded-link"`, `"no-fault"`, `"inconclusive"`).
    pub fault_class: String,
    /// Where the faulty stream left the reference, if anywhere.
    pub divergence: Option<Divergence>,
    /// Human-readable evidence lines supporting the verdict.
    pub evidence: Vec<String>,
    /// How many evidence events support the verdict.
    pub score: u64,
}

/// Events the diff and evidence walk must not see: the fault injector's
/// own bookkeeping would hand the localizer the answer.
fn is_injector_event(e: &Event) -> bool {
    matches!(e, Event::NetFaultApplied { .. })
}

fn filtered(stream: &Stream) -> Vec<&EventRecord> {
    stream
        .records
        .iter()
        .filter(|r| !is_injector_event(&r.event))
        .collect()
}

/// Find the first record where `faulty` disagrees with `reference`,
/// comparing record-by-record after dropping injector events from both.
/// Returns `None` when the streams are identical.
pub fn first_divergence(faulty: &Stream, reference: &Stream) -> Option<Divergence> {
    let f = filtered(faulty);
    let r = filtered(reference);
    let n = f.len().max(r.len());
    for i in 0..n {
        let fr = f.get(i).copied();
        let rr = r.get(i).copied();
        if fr != rr {
            let probe = fr.or(rr).expect("at least one stream has a record here");
            return Some(Divergence {
                index: i,
                at_us: probe.at_us,
                actor: probe.actor.clone(),
                faulty: fr.cloned(),
                reference: rr.cloned(),
            });
        }
    }
    None
}

/// Per-machine evidence tallies over the post-divergence window.
#[derive(Default)]
struct MachineEvidence {
    lease_expiries: u64,
    claim_timeouts: u64,
    reschedules: u64,
    first_at_us: u64,
}

impl MachineEvidence {
    fn unreachable(&self) -> u64 {
        self.lease_expiries + self.claim_timeouts
    }
}

/// Diff `faulty` against `reference`, walk the evidence forward from the
/// divergence point, and name the culpable actor.
pub fn localize(faulty: &Stream, reference: &Stream) -> Localization {
    let divergence = first_divergence(faulty, reference);
    let Some(div) = &divergence else {
        return Localization {
            culprit: None,
            fault_class: "no-fault".to_string(),
            divergence: None,
            evidence: vec!["streams are identical after filtering injector events".to_string()],
            score: 0,
        };
    };

    // Evidence window: everything from the divergence onward. The chains
    // give stale-epoch drops (which carry only a job id) a machine.
    let chains = causal_chains(faulty);
    let mut machines: BTreeMap<u64, MachineEvidence> = BTreeMap::new();
    let mut ckpt_discards: u64 = 0;
    let mut ckpt_first: Option<&EventRecord> = None;
    let mut stale: BTreeMap<u64, u64> = BTreeMap::new();
    let mut flips: u64 = 0;
    let mut flip_first: Option<&EventRecord> = None;
    let mut violations: u64 = 0;
    let mut violation_first: Option<&EventRecord> = None;
    let mut violation_machines: BTreeMap<u64, u64> = BTreeMap::new();
    let mut flock_faults: u64 = 0;
    let mut flock_first: Option<&EventRecord> = None;
    let mut flock_pools: BTreeMap<u64, u64> = BTreeMap::new();

    fn touch(
        machines: &mut BTreeMap<u64, MachineEvidence>,
        m: u64,
        at: u64,
    ) -> &mut MachineEvidence {
        machines.entry(m).or_insert_with(|| MachineEvidence {
            first_at_us: at,
            ..Default::default()
        })
    }

    for r in faulty.records.iter().filter(|r| r.at_us >= div.at_us) {
        match &r.event {
            Event::MemFlip { .. } => {
                flips += 1;
                flip_first.get_or_insert(r);
            }
            Event::Violation { machine, .. } => {
                violations += 1;
                violation_first.get_or_insert(r);
                if *machine != 0 {
                    *violation_machines.entry(*machine).or_insert(0) += 1;
                }
            }
            Event::CheckpointDiscarded { .. } => {
                ckpt_discards += 1;
                ckpt_first.get_or_insert(r);
            }
            Event::FlockFault { pool, .. } => {
                flock_faults += 1;
                flock_first.get_or_insert(r);
                *flock_pools.entry(*pool).or_insert(0) += 1;
            }
            Event::LeaseExpired { machine, .. } => {
                touch(&mut machines, *machine, r.at_us).lease_expiries += 1;
            }
            Event::Claim {
                machine,
                outcome: ClaimOutcome::TimedOut,
                ..
            } => {
                touch(&mut machines, *machine, r.at_us).claim_timeouts += 1;
            }
            Event::Reschedule { machine, .. } => {
                touch(&mut machines, *machine, r.at_us).reschedules += 1;
            }
            Event::StaleEpochDropped { job, .. } => {
                if let Some(m) = chains.get(job).and_then(|c| c.machine_at(r.at_us)) {
                    *stale.entry(m).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }

    // 0. Logged bit-flips are physical evidence and trump every protocol
    //    inference. The earliest flip names the culprit: a heap flip
    //    happened on the restoring machine, an image flip in the store.
    if let Some(first) = flip_first {
        if let Event::MemFlip {
            job,
            machine,
            target,
            bit,
        } = &first.event
        {
            let (class, culprit) = if target == "ckpt-image" {
                ("ckpt-flip", "ckpt-server".to_string())
            } else {
                ("heap-flip", format!("machine:{machine}"))
            };
            return Localization {
                culprit: Some(culprit),
                fault_class: class.to_string(),
                divergence,
                evidence: vec![format!(
                    "{flips} logged bit-flip(s); first: job {job} on machine {machine}, \
                     {target} bit {bit} at {:.3}s",
                    first.at_us as f64 / 1e6
                )],
                score: flips,
            };
        }
    }

    // 0b. Kernel-reported principle violations: the schedd's own audit
    //     logged that an error reached the wrong party (the naive mode's
    //     signature, and the campaign oracle's negative control). The
    //     machine whose reports tripped the most violations is named;
    //     ties break toward the lower actor id for determinism.
    if violations > 0 {
        let culprit = violation_machines
            .iter()
            .max_by_key(|(m, n)| (**n, std::cmp::Reverse(**m)))
            .map(|(m, _)| format!("machine:{m}"));
        let mut evidence = vec![format!(
            "{violations} kernel-reported principle violation(s)"
        )];
        if let Some(first) = violation_first {
            if let Event::Violation {
                principle, detail, ..
            } = &first.event
            {
                evidence.push(format!(
                    "first: P{principle} at {:.3}s: {detail}",
                    first.at_us as f64 / 1e6
                ));
            }
        }
        return Localization {
            culprit,
            fault_class: "principle-violation".to_string(),
            divergence,
            evidence,
            score: violations,
        };
    }

    // 1. Corrupt checkpoints trump everything else: no other fault class
    //    produces a validation failure at restore time.
    if ckpt_discards > 0 {
        let mut evidence = vec![format!(
            "{ckpt_discards} checkpoint image(s) failed validation and were discarded"
        )];
        if let Some(first) = ckpt_first {
            if let Event::CheckpointDiscarded {
                job,
                machine,
                reason,
            } = &first.event
            {
                evidence.push(format!(
                    "first discard: job {job} on machine {machine} at {:.3}s ({reason})",
                    first.at_us as f64 / 1e6
                ));
            }
        }
        return Localization {
            culprit: Some("ckpt-server".to_string()),
            fault_class: "corrupt-checkpoint".to_string(),
            divergence,
            evidence,
            score: ckpt_discards,
        };
    }

    // 1b. Remote-pool faults: the flocking layer already diagnosed the
    //     failure and scoped it to a pool. This must out-rank the
    //     machine-level silence evidence below — when an inter-pool link
    //     partitions, every remotely-matched machine also goes silent,
    //     and blaming one of them would mistake a symptom for the cause.
    //     Most faults win; ties break toward the lower pool id.
    if flock_faults > 0 {
        let culprit = flock_pools
            .iter()
            .max_by_key(|(p, n)| (**n, std::cmp::Reverse(**p)))
            .map(|(p, _)| format!("pool:{p}"));
        let mut evidence = vec![format!(
            "{flock_faults} remote-pool flock fault(s) — the silence is on an \
             inter-pool link, so machine-level evidence is a symptom"
        )];
        if let Some(first) = flock_first {
            if let Event::FlockFault { job, pool, kind } = &first.event {
                evidence.push(format!(
                    "first: job {job}, pool {pool} ({kind}) at {:.3}s",
                    first.at_us as f64 / 1e6
                ));
            }
        }
        return Localization {
            culprit,
            fault_class: "remote-pool".to_string(),
            divergence,
            evidence,
            score: flock_faults,
        };
    }

    // 2. Unreachable: pick the machine with the most lease/claim silence.
    //    Ties break to the earliest first evidence, then the lowest id.
    let best_unreachable = machines
        .iter()
        .filter(|(_, ev)| ev.unreachable() > 0)
        .max_by(|(am, a), (bm, b)| {
            a.unreachable()
                .cmp(&b.unreachable())
                .then(b.first_at_us.cmp(&a.first_at_us))
                .then(bm.cmp(am))
        });
    if let Some((&m, ev)) = best_unreachable {
        return Localization {
            culprit: Some(format!("link:{m}")),
            fault_class: "unreachable".to_string(),
            divergence,
            evidence: vec![format!(
                "machine {m}: {} lease expiries, {} timed-out claims \
                 (first at {:.3}s) — the host went silent, so the path is at fault",
                ev.lease_expiries,
                ev.claim_timeouts,
                ev.first_at_us as f64 / 1e6
            )],
            score: ev.unreachable(),
        };
    }

    // 3. Faulty machine: reachable (zero silence evidence) but jobs keep
    //    bouncing off it.
    let best_faulty = machines
        .iter()
        .filter(|(_, ev)| ev.reschedules > 0 && ev.unreachable() == 0)
        .max_by(|(am, a), (bm, b)| {
            a.reschedules
                .cmp(&b.reschedules)
                .then(b.first_at_us.cmp(&a.first_at_us))
                .then(bm.cmp(am))
        });
    if let Some((&m, ev)) = best_faulty {
        return Localization {
            culprit: Some(format!("machine:{m}")),
            fault_class: "faulty-machine".to_string(),
            divergence,
            evidence: vec![format!(
                "machine {m}: {} reschedules with zero unreachability evidence \
                 (first at {:.3}s) — the host answers but breaks the jobs it runs",
                ev.reschedules,
                ev.first_at_us as f64 / 1e6
            )],
            score: ev.reschedules,
        };
    }

    // 4. Degraded link: traffic arrives, but late or duplicated.
    if let Some((&m, &n)) = stale
        .iter()
        .max_by(|(am, a), (bm, b)| a.cmp(b).then(bm.cmp(am)))
    {
        return Localization {
            culprit: Some(format!("link:{m}")),
            fault_class: "degraded-link".to_string(),
            divergence,
            evidence: vec![format!(
                "{n} stale-epoch drop(s) attributed to machine {m} — frames \
                 arrive late or duplicated, but the link still carries traffic"
            )],
            score: n,
        };
    }

    Localization {
        culprit: None,
        fault_class: "inconclusive".to_string(),
        divergence,
        evidence: vec![
            "streams diverge but no error-scope evidence follows the divergence".to_string(),
        ],
        score: 0,
    }
}

/// Render a full post-mortem report: the verdict, the divergence, the
/// evidence, and the scope-annotated error journeys behind it.
pub fn render_report(faulty: &Stream, loc: &Localization) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== post-mortem fault localization ==");
    let _ = writeln!(
        out,
        "stream: {} events, {} actors, {} dropped",
        faulty.records.len(),
        faulty.actors().len(),
        faulty.dropped()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "verdict: {} (culprit: {})",
        loc.fault_class,
        loc.culprit.as_deref().unwrap_or("none")
    );
    for e in &loc.evidence {
        let _ = writeln!(out, "  evidence: {e}");
    }
    match &loc.divergence {
        Some(d) => {
            let _ = writeln!(
                out,
                "\ndivergence at record #{} ({:.3}s, actor {}):",
                d.index,
                d.at_us as f64 / 1e6,
                d.actor
            );
            let describe = |r: &Option<EventRecord>| match r {
                Some(r) => format!("{} {:?}", r.event.kind(), r.event.span()),
                None => "(stream ended)".to_string(),
            };
            let _ = writeln!(out, "  faulty:    {}", describe(&d.faulty));
            let _ = writeln!(out, "  reference: {}", describe(&d.reference));
        }
        None => {
            let _ = writeln!(out, "\nno divergence: the streams agree");
        }
    }

    let chains = causal_chains(faulty);
    let _ = writeln!(out, "\ncausal chains: {} job(s)", chains.len());
    for (job, chain) in chains.iter().take(8) {
        let _ = writeln!(
            out,
            "  job {job}: {} step(s), spans {:?}",
            chain.steps.len(),
            chain.spans
        );
    }
    if chains.len() > 8 {
        let _ = writeln!(out, "  … and {} more", chains.len() - 8);
    }

    let js = journeys(faulty);
    let _ = writeln!(out, "\nerror journeys: {}", js.len());
    for j in js.iter().take(8) {
        out.push_str(&j.render());
    }
    if js.len() > 8 {
        let _ = writeln!(out, "… and {} more", js.len() - 8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Collector;

    fn stream(events: Vec<(u64, &str, Event)>) -> Stream {
        let mut c = Collector::new();
        for (at, actor, e) in events {
            c.record(at, actor, e);
        }
        Stream::from_collector(&c).unwrap()
    }

    fn base() -> Vec<(u64, &'static str, Event)> {
        vec![
            (1_000_000, "matchmaker", Event::Match { job: 1, machine: 2 }),
            (
                2_000_000,
                "schedd",
                Event::Claim {
                    job: 1,
                    machine: 2,
                    outcome: ClaimOutcome::Accepted,
                },
            ),
            (3_000_000, "schedd", Event::Dispatch { job: 1, machine: 2 }),
        ]
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let a = stream(base());
        let b = stream(base());
        assert!(first_divergence(&a, &b).is_none());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "no-fault");
        assert!(loc.culprit.is_none());
    }

    #[test]
    fn injector_events_are_invisible_to_the_diff() {
        let mut faulty = base();
        faulty.insert(
            0,
            (
                500_000,
                "netdriver",
                Event::NetFaultApplied {
                    kind: "partition".into(),
                    link: "1-2".into(),
                    active: true,
                },
            ),
        );
        let a = stream(faulty);
        let b = stream(base());
        assert!(first_divergence(&a, &b).is_none());
    }

    #[test]
    fn lease_silence_names_the_link() {
        let mut faulty = base();
        faulty.push((
            10_000_000,
            "schedd",
            Event::LeaseExpired {
                job: 1,
                machine: 2,
                side: "schedd".into(),
            },
        ));
        faulty.push((
            10_500_000,
            "schedd",
            Event::Reschedule {
                job: 1,
                machine: 2,
                reason: "lease expired".into(),
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "unreachable");
        assert_eq!(loc.culprit.as_deref(), Some("link:2"));
        let report = render_report(&a, &loc);
        assert!(report.contains("verdict: unreachable (culprit: link:2)"));
    }

    #[test]
    fn reschedules_without_silence_name_the_machine() {
        let mut faulty = base();
        for i in 0..3u64 {
            faulty.push((
                10_000_000 + i * 1_000_000,
                "schedd",
                Event::Reschedule {
                    job: 1,
                    machine: 2,
                    reason: "program exited abnormally".into(),
                },
            ));
        }
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "faulty-machine");
        assert_eq!(loc.culprit.as_deref(), Some("machine:2"));
        assert_eq!(loc.score, 3);
    }

    #[test]
    fn checkpoint_discards_trump_other_evidence() {
        let mut faulty = base();
        faulty.push((
            9_000_000,
            "startd:m0",
            Event::CheckpointDiscarded {
                job: 1,
                machine: 2,
                reason: "digest mismatch".into(),
            },
        ));
        faulty.push((
            10_000_000,
            "schedd",
            Event::LeaseExpired {
                job: 1,
                machine: 2,
                side: "schedd".into(),
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "corrupt-checkpoint");
        assert_eq!(loc.culprit.as_deref(), Some("ckpt-server"));
    }

    #[test]
    fn heap_flip_log_names_the_machine_not_the_reschedule_heuristic() {
        // Without the scrubber log, three reschedules would blame the
        // machine via the weak heuristic; with it the verdict is exact.
        let mut faulty = base();
        faulty.push((
            9_000_000,
            "startd:m0",
            Event::MemFlip {
                job: 1,
                machine: 2,
                target: "heap-word".into(),
                bit: 257,
            },
        ));
        faulty.push((
            10_000_000,
            "schedd",
            Event::Reschedule {
                job: 1,
                machine: 2,
                reason: "program exited abnormally".into(),
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "heap-flip");
        assert_eq!(loc.culprit.as_deref(), Some("machine:2"));
        assert_eq!(loc.score, 1);
        let report = render_report(&a, &loc);
        assert!(report.contains("verdict: heap-flip (culprit: machine:2)"));
        assert!(report.contains("heap-word bit 257"));
    }

    #[test]
    fn ckpt_flip_log_trumps_the_discard_it_caused() {
        // The flipped image fails validation on restore; without the log
        // this is "corrupt-checkpoint", with it the exact class. Culprit
        // is the store either way.
        let mut faulty = base();
        faulty.push((
            8_000_000,
            "ckpt-server",
            Event::MemFlip {
                job: 1,
                machine: 9,
                target: "ckpt-image".into(),
                bit: 40,
            },
        ));
        faulty.push((
            9_000_000,
            "startd:m0",
            Event::CheckpointDiscarded {
                job: 1,
                machine: 2,
                reason: "checkpoint image checksum mismatch".into(),
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "ckpt-flip");
        assert_eq!(loc.culprit.as_deref(), Some("ckpt-server"));
    }

    #[test]
    fn kernel_violations_name_the_machine_behind_them() {
        // Naive-mode streams carry no journeys or lease evidence at all;
        // the schedd's own P3 self-reports are the only signal, and each
        // names the machine whose report it was processing.
        let mut faulty = base();
        for t in [9, 10] {
            faulty.push((
                t * 1_000_000,
                "schedd",
                Event::Violation {
                    principle: 3,
                    machine: 2,
                    detail: "pool-scope error delivered to user as a result".into(),
                },
            ));
        }
        faulty.push((
            11_000_000,
            "schedd",
            Event::Violation {
                principle: 3,
                machine: 3,
                detail: "pool-scope error delivered to user as a result".into(),
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "principle-violation");
        assert_eq!(loc.culprit.as_deref(), Some("machine:2"));
        assert_eq!(loc.score, 3);
        let report = render_report(&a, &loc);
        assert!(report.contains("verdict: principle-violation (culprit: machine:2)"));
    }

    #[test]
    fn flock_faults_outrank_machine_silence_evidence() {
        // A partition on the inter-pool link silences the remotely-matched
        // machine too: lease expiry and reschedule evidence against
        // machine 2 would normally yield "unreachable (link:2)". The
        // flocking layer's own diagnosis scopes the fault to pool 1, and
        // that verdict must win — the machine silence is a symptom.
        let mut faulty = base();
        faulty.push((
            9_000_000,
            "schedd",
            Event::FlockFault {
                job: 1,
                pool: 1,
                kind: "unreachable".into(),
            },
        ));
        faulty.push((
            10_000_000,
            "schedd",
            Event::LeaseExpired {
                job: 1,
                machine: 2,
                side: "schedd".into(),
            },
        ));
        faulty.push((
            10_500_000,
            "schedd",
            Event::Reschedule {
                job: 1,
                machine: 2,
                reason: "lease expired".into(),
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "remote-pool");
        assert_eq!(loc.culprit.as_deref(), Some("pool:1"));
        assert_eq!(loc.score, 1);
        let report = render_report(&a, &loc);
        assert!(report.contains("verdict: remote-pool (culprit: pool:1)"));
    }

    #[test]
    fn busiest_pool_wins_and_ties_break_low() {
        let mut faulty = base();
        for (t, pool) in [(9u64, 2u64), (10, 2), (11, 1), (12, 1)] {
            faulty.push((
                t * 1_000_000,
                "schedd",
                Event::FlockFault {
                    job: 1,
                    pool,
                    kind: "saturated".into(),
                },
            ));
        }
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "remote-pool");
        // Two faults each: the tie breaks to the lower pool id.
        assert_eq!(loc.culprit.as_deref(), Some("pool:1"));
        assert_eq!(loc.score, 4);
    }

    #[test]
    fn checkpoint_discards_still_trump_flock_faults() {
        let mut faulty = base();
        faulty.push((
            8_000_000,
            "startd:m0",
            Event::CheckpointDiscarded {
                job: 1,
                machine: 2,
                reason: "digest mismatch".into(),
            },
        ));
        faulty.push((
            9_000_000,
            "schedd",
            Event::FlockFault {
                job: 1,
                pool: 1,
                kind: "revoked".into(),
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "corrupt-checkpoint");
        assert_eq!(loc.culprit.as_deref(), Some("ckpt-server"));
    }

    #[test]
    fn stale_epochs_alone_name_a_degraded_link() {
        let mut faulty = base();
        faulty.push((
            10_000_000,
            "schedd",
            Event::StaleEpochDropped {
                job: 1,
                kind: "report".into(),
                got: 1,
                current: 2,
            },
        ));
        let a = stream(faulty);
        let b = stream(base());
        let loc = localize(&a, &b);
        assert_eq!(loc.fault_class, "degraded-link");
        assert_eq!(loc.culprit.as_deref(), Some("link:2"));
    }

    #[test]
    fn prefix_truncation_is_a_divergence() {
        let mut longer = base();
        longer.push((10_000_000, "schedd", Event::Dispatch { job: 2, machine: 3 }));
        let a = stream(base());
        let b = stream(longer);
        let d = first_divergence(&a, &b).expect("length mismatch diverges");
        assert_eq!(d.index, 3);
        assert!(d.faulty.is_none());
        assert!(d.reference.is_some());
    }
}
