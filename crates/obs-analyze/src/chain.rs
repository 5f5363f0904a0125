//! Per-job causal chains: everything that happened to one job, in order.
//!
//! Most protocol events carry their job id outright. Escapes and span
//! hops carry only a span id; the schedd's `Disposition` events carry
//! both, which is the stitch point — a first pass over the stream builds
//! the span → job map from dispositions, and the second pass files every
//! record under its job. I/O operations carry neither, so they are
//! attributed through the recording actor: an actor that just recorded a
//! job-bearing event (a dispatch it executes, an escape from the program
//! it hosts) is working on that job, and its chirp traffic belongs to the
//! same chain.

use crate::stream::Stream;
use obs::{Event, EventRecord, SpanId};
use std::collections::BTreeMap;

/// The job id an event names directly, if any.
pub fn job_of(event: &Event) -> Option<u64> {
    match event {
        Event::Claim { job, .. }
        | Event::Dispatch { job, .. }
        | Event::Match { job, .. }
        | Event::Reschedule { job, .. }
        | Event::Disposition { job, .. }
        | Event::CheckpointTaken { job, .. }
        | Event::CheckpointRestored { job, .. }
        | Event::CheckpointDiscarded { job, .. }
        | Event::LeaseExpired { job, .. }
        | Event::StaleEpochDropped { job, .. }
        | Event::MemFlip { job, .. } => Some(*job),
        _ => None,
    }
}

/// One job's causal chain.
#[derive(Debug, Clone)]
pub struct JobChain {
    /// The job id.
    pub job: u64,
    /// Every record attributed to the job, in stream order.
    pub steps: Vec<EventRecord>,
    /// The error-journey spans that touched the job, in first-seen order.
    pub spans: Vec<SpanId>,
}

impl JobChain {
    /// The machine of the last dispatch at or before `at_us` — where the
    /// job was running at that instant, if anywhere.
    pub fn machine_at(&self, at_us: u64) -> Option<u64> {
        self.steps
            .iter()
            .take_while(|s| s.at_us <= at_us)
            .filter_map(|s| match &s.event {
                Event::Dispatch { machine, .. } => Some(*machine),
                _ => None,
            })
            .last()
    }
}

/// The span → job stitch map: every disposition that closed a journey
/// names both.
pub fn span_jobs(records: &[EventRecord]) -> BTreeMap<SpanId, u64> {
    let mut map = BTreeMap::new();
    for r in records {
        if let Event::Disposition { job, span, .. } = &r.event {
            if *span != obs::NO_SPAN {
                map.insert(*span, *job);
            }
        }
    }
    map
}

/// Reconstruct every job's causal chain from a stream.
pub fn causal_chains(stream: &Stream) -> BTreeMap<u64, JobChain> {
    let spans = span_jobs(&stream.records);
    let mut chains: BTreeMap<u64, JobChain> = BTreeMap::new();
    // The job each actor most recently touched, for attributing IoOps.
    let mut actor_job: BTreeMap<&str, u64> = BTreeMap::new();

    let file = |job: u64, r: &EventRecord, chains: &mut BTreeMap<u64, JobChain>| {
        let chain = chains.entry(job).or_insert_with(|| JobChain {
            job,
            steps: Vec::new(),
            spans: Vec::new(),
        });
        if let Some(id) = r.event.span() {
            if !chain.spans.contains(&id) {
                chain.spans.push(id);
            }
        }
        chain.steps.push(r.clone());
    };

    for r in &stream.records {
        let job =
            job_of(&r.event).or_else(|| r.event.span().and_then(|id| spans.get(&id).copied()));
        match job {
            Some(job) => {
                actor_job.insert(r.actor.as_str(), job);
                file(job, r, &mut chains);
            }
            None => {
                // IoOps (and any other anonymous event) ride with the
                // actor's current job, when one is known.
                if matches!(r.event, Event::IoOp { .. }) {
                    if let Some(&job) = actor_job.get(r.actor.as_str()) {
                        file(job, r, &mut chains);
                    }
                }
            }
        }
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{ClaimOutcome, Collector, IoOutcome};

    fn stream(events: Vec<(&str, Event)>) -> Stream {
        let mut c = Collector::new();
        for (i, (actor, e)) in events.into_iter().enumerate() {
            c.record(i as u64 * 1_000_000, actor, e);
        }
        Stream::from_collector(&c).unwrap()
    }

    #[test]
    fn chains_stitch_spans_and_ioops() {
        let s = stream(vec![
            ("matchmaker", Event::Match { job: 1, machine: 2 }),
            (
                "schedd",
                Event::Claim {
                    job: 1,
                    machine: 2,
                    outcome: ClaimOutcome::Accepted,
                },
            ),
            ("schedd", Event::Dispatch { job: 1, machine: 2 }),
            (
                "startd:m1",
                Event::Escape {
                    span: 7,
                    layer: "io-library".into(),
                    code: "FilesystemOffline".into(),
                    scope: "local-resource".into(),
                },
            ),
            (
                "startd:m1",
                Event::IoOp {
                    op: "read".into(),
                    outcome: IoOutcome::Ok,
                },
            ),
            (
                "schedd",
                Event::Disposition {
                    job: 1,
                    disposition: "log-and-reschedule".into(),
                    scope: "local-resource".into(),
                    span: 7,
                },
            ),
        ]);
        let chains = causal_chains(&s);
        assert_eq!(chains.len(), 1);
        let chain = &chains[&1];
        // Escape (via span 7 → job 1) and the IoOp (via actor binding)
        // both landed in the chain.
        assert_eq!(chain.steps.len(), 6);
        assert_eq!(chain.spans, vec![7]);
        assert_eq!(chain.machine_at(2_000_000), Some(2));
        assert_eq!(chain.machine_at(0), None);
    }

    #[test]
    fn anonymous_ioops_without_binding_are_skipped() {
        let s = stream(vec![(
            "proxy",
            Event::IoOp {
                op: "open".into(),
                outcome: IoOutcome::Ok,
            },
        )]);
        assert!(causal_chains(&s).is_empty());
    }
}
