//! `campaign_sweep` — thousands of small fuzzed worlds, built, run,
//! exported, re-parsed and judged, on one thread.
//!
//! Build-heavy where `fed_scale` is steady-state-heavy: world
//! construction, fault plans, the network driver, leases and breakers,
//! checkpoints, generated gridvm programs, telemetry export and the whole
//! judge pipeline. Every 64th seed also runs its fault-free reference
//! arm and the post-mortem localizer. A failed operation is a campaign
//! with an oracle violation, a non-quiescent run, or a stream the parser
//! refuses.

use super::pool::{build, condor_counts, desim_counts, digest_job, drain, terminal_jobs};
use super::{derived_seed, Outcome, Sizes};
use crate::stats::Fnv;
use crate::tracer::{Kind, Tracer};
use campaign::gen::deadline;
use campaign::{check, flip_stats, generate, RunSummary};
use condor::prelude::*;
use obs_analyze::Stream;
use std::collections::{BTreeMap, BTreeSet};

/// Every `LOCALIZE_EVERY`-th campaign also runs the reference arm and
/// the localizer.
pub const LOCALIZE_EVERY: u64 = 64;

/// One generated campaign, ready to build.
pub struct Item {
    faulty: PoolBuilder,
    reference: Option<PoolBuilder>,
}

/// `setup`: sample each campaign and assemble its pool builders.
pub fn setup(seed: u64, sizes: &Sizes, t: &Tracer) -> Vec<Item> {
    (0..sizes.campaigns)
        .map(|i| {
            t.span(Kind::CampaignGen, || {
                let c = generate(derived_seed(seed, i));
                Item {
                    faulty: c.build_pool(true),
                    reference: (i % LOCALIZE_EVERY == 0).then(|| c.build_pool(false)),
                }
            })
        })
        .collect()
}

/// Build, run and export one arm; `None` if the parser refuses the stream.
fn run_arm(
    builder: PoolBuilder,
    counts: &mut BTreeMap<&'static str, f64>,
    t: &Tracer,
) -> (RunReport, String, Option<Stream>) {
    obs::reset_span_ids(0);
    let (report, pending) = drain(build(builder, t), deadline(), t, None);
    let jsonl = t.span(Kind::ObsExport, || report.telemetry.to_jsonl_with_meta());
    let stream = t.span(Kind::AnalyzeIngest, || Stream::parse(&jsonl).ok());
    condor_counts(
        counts,
        &report.metrics,
        report.machines.values(),
        &[&report.matchmaker],
    );
    desim_counts(
        counts,
        report.events,
        pending,
        &report.net,
        &report.telemetry,
    );
    *counts.entry("obs.export_bytes").or_insert(0.0) += jsonl.len() as f64;
    (report, jsonl, stream)
}

/// Run and judge every campaign.
pub fn run(items: Vec<Item>, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut h = Fnv::default();
    let mut violations = 0u64;
    for item in items {
        out.attempted += 1;
        out.campaigns += 1;
        let (report, jsonl, stream) = run_arm(item.faulty, &mut out.counts, t);
        out.events += report.events;
        out.jobs += terminal_jobs(report.jobs.values());
        let mut ok = report.quiescent;
        t.span(Kind::LedgerDigest, || {
            h.u64(report.events);
            h.u64(report.finished_at.as_micros());
            for rec in report.jobs.values() {
                digest_job(&mut h, rec);
            }
            h.bytes(jsonl.as_bytes());
        });
        let Some(stream) = stream else {
            out.failed += 1;
            continue;
        };
        let summary = RunSummary::of(&report);
        let found = t.span(Kind::CampaignOracle, || check(&stream, &summary));
        violations += found.len() as u64;
        ok &= found.is_empty();
        let completed: BTreeSet<u64> = report
            .jobs
            .iter()
            .filter(|(_, r)| matches!(r.state, JobState::Completed { .. }))
            .map(|(id, _)| u64::from(*id))
            .collect();
        let flips = t.span(Kind::CampaignSdc, || flip_stats(&stream, &completed));
        for v in &found {
            h.bytes(v.to_string().as_bytes());
        }
        for n in [
            flips.ckpt_injected,
            flips.ckpt_detected,
            flips.ckpt_escaped,
            flips.heap_injected,
            flips.heap_escaped,
        ] {
            h.u64(n);
        }
        if let Some(reference) = item.reference {
            let (ref_report, _, ref_stream) = run_arm(reference, &mut out.counts, t);
            out.events += ref_report.events;
            match ref_stream {
                Some(rs) => {
                    let loc = t.span(Kind::AnalyzeLocalize, || {
                        obs_analyze::localize::localize(&stream, &rs)
                    });
                    h.bytes(loc.fault_class.as_bytes());
                    h.bytes(loc.culprit.as_deref().unwrap_or("-").as_bytes());
                }
                None => ok = false,
            }
        }
        out.failed += u64::from(!ok);
    }
    out.counts.insert("campaign.violations", violations as f64);
    out.digest = h.finish();
    out
}
