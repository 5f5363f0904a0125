//! Experiment E12 — fault-campaign fuzzing with the error-scope oracle.
//!
//! E1–E11 each pin one fault class and assert a hand-written expectation.
//! This harness removes the hand: `campaign::generate` samples thousands
//! of randomized fault schedules — crashes, partitions, loss,
//! duplication, latency spikes, black holes, bad installations, corrupt
//! checkpoints, and memory bit-flips — and every run is judged only by
//! the machine-checked oracle: the paper's four principles as invariants
//! over the exported event stream (`campaign::check`). Any violation
//! re-runs the seed fault-free and prints the post-mortem localizer's
//! verdict, so a red campaign arrives with a named culprit.
//!
//! The silent-data-corruption arm is *measured*, not asserted per-case:
//! checkpoint-image flips must all be caught by the restore digest
//! (ORNL "detection"), while heap flips timed past the digest check
//! complete with a wrong answer (the escapes no checksum can see).
//!
//! Gates:
//!
//! * zero oracle violations across every campaign;
//! * the sweep actually exercised both flip arms (image flips injected
//!   and 100% detected; heap flips injected, some escaping);
//! * the negative control — a naive-mode pool around a black hole — IS
//!   flagged by the oracle and localized to the rogue machine;
//! * two full passes serialize `BENCH_campaign.json` byte-identically.
//!
//! Artifacts: `BENCH_campaign.json` (per-campaign rows + ORNL-phase
//! totals) and `BENCH_campaign.violations.txt` (expected to hold only
//! the header).
//!
//! Run with: `cargo run --release -p bench --bin exp -- e12`
//! (pass `--smoke` for the CI-sized campaign set).

use crate::harness::{artifact, drive, Artifact, Size};
use crate::render_table;
use campaign::{check, flip_stats, generate, postmortem, FlipStats, RunSummary};
use condor::prelude::JobState;
use desim::sweep::run_sweep;
use desim::SimTime;
use obs_analyze::Stream;
use std::collections::BTreeSet;

const FULL_CAMPAIGNS: u64 = 5000;
const SMOKE_CAMPAIGNS: u64 = 64;

/// One campaign's verdict, ready for the snapshot.
struct CampaignResult {
    seed: u64,
    jobs: usize,
    completed: usize,
    unexecutable: usize,
    events: usize,
    stats: FlipStats,
    violations: Vec<String>,
    /// Localizer verdict for a violating seed (fault-free re-run diff).
    post: Option<String>,
}

fn run_campaign(seed: u64) -> CampaignResult {
    let c = generate(seed);
    let report = c.run(true);
    let stream = Stream::from_collector(&report.telemetry)
        .unwrap_or_else(|e| panic!("campaign seed {seed}: {e}"));
    let summary = RunSummary::of(&report);
    let violations: Vec<String> = check(&stream, &summary)
        .iter()
        .map(|v| v.to_string())
        .collect();
    let completed: BTreeSet<u64> = report
        .jobs
        .iter()
        .filter(|(_, r)| matches!(r.state, JobState::Completed { .. }))
        .map(|(id, _)| u64::from(*id))
        .collect();
    let unexecutable = report
        .jobs
        .values()
        .filter(|r| matches!(r.state, JobState::Unexecutable { .. }))
        .count();
    // The post-mortem costs a second pool run, so it is produced only
    // for the seeds that actually failed the oracle.
    let post = (!violations.is_empty()).then(|| {
        let reference = c.run(false);
        let rs = Stream::from_collector(&reference.telemetry)
            .unwrap_or_else(|e| panic!("reference seed {seed}: {e}"));
        postmortem(&stream, &rs)
    });
    CampaignResult {
        seed,
        jobs: report.jobs.len(),
        completed: completed.len(),
        unexecutable,
        events: stream.records.len(),
        stats: flip_stats(&stream, &completed),
        violations,
        post,
    }
}

/// Deterministic by construction: fixed iteration order, no timestamps.
fn snapshot(results: &[CampaignResult], totals: &FlipStats) -> String {
    let mut rows = Vec::new();
    for r in results {
        rows.push(format!(
            "{{\"seed\":{},\"jobs\":{},\"completed\":{},\"unexecutable\":{},\
             \"events\":{},\"ckpt_flips\":{},\"ckpt_detected\":{},\
             \"heap_flips\":{},\"heap_escaped\":{},\"violations\":{}}}",
            r.seed,
            r.jobs,
            r.completed,
            r.unexecutable,
            r.events,
            r.stats.ckpt_injected,
            r.stats.ckpt_detected,
            r.stats.heap_injected,
            r.stats.heap_escaped,
            r.violations.len()
        ));
    }
    let violations: usize = results.iter().map(|r| r.violations.len()).sum();
    format!(
        "{{\"campaigns\":{},\"violations\":{},\
         \"ornl\":{{\"detection\":{{\"ckpt_flips_injected\":{},\"caught_by_digest\":{},\
         \"rate\":{:.4}}},\
         \"containment\":{{\"flipped_images_discarded\":{},\"reached_a_program\":{}}},\
         \"recovery\":{{\"cold_restarts_completed\":true}},\
         \"escapes\":{{\"heap_flips_injected\":{},\"silent_wrong_answers\":{},\
         \"rate\":{:.4}}}}},\
         \"results\":[{}]}}",
        results.len(),
        violations,
        totals.ckpt_injected,
        totals.ckpt_detected,
        totals.detection_rate(),
        totals.ckpt_detected,
        totals.ckpt_escaped,
        totals.heap_injected,
        totals.heap_escaped,
        totals.escape_rate(),
        rows.join(",")
    )
}

/// The violations document: its header alone when the oracle stayed silent.
fn violations_doc(results: &[CampaignResult]) -> String {
    let mut doc =
        String::from("E12 oracle violations (this file is expected to contain only this header)\n");
    for r in results.iter().filter(|r| !r.violations.is_empty()) {
        doc.push_str(&format!("\ncampaign seed {}:\n", r.seed));
        for v in &r.violations {
            doc.push_str(&format!("  {v}\n"));
        }
        if let Some(post) = &r.post {
            doc.push_str(post);
        }
    }
    doc
}

/// One pass: every campaign run and judged (same thread count on both
/// passes covers scheduling nondeterminism; the property tests cover
/// widths).
fn pass(size: Size) -> ((Vec<CampaignResult>, FlipStats), Vec<Artifact>) {
    let n = size.pick(SMOKE_CAMPAIGNS, FULL_CAMPAIGNS);
    let seeds: Vec<u64> = (1000..1000 + n).collect();
    let results = run_sweep(&seeds, desim::sweep::default_width(), |_, seed| {
        run_campaign(seed)
    });
    let mut totals = FlipStats::default();
    for r in &results {
        totals.add(r.stats);
    }
    let files = vec![
        artifact("BENCH_campaign.json", snapshot(&results, &totals)),
        artifact("BENCH_campaign.violations.txt", violations_doc(&results)),
    ];
    ((results, totals), files)
}

pub fn run(size: Size, _: &[String]) {
    println!(
        "E12: fault-campaign fuzzing — {} randomized campaigns, {} worker thread(s)\n\
         every run judged by the P1-P4 oracle over its exported event stream\n",
        size.pick(SMOKE_CAMPAIGNS, FULL_CAMPAIGNS),
        desim::sweep::default_width()
    );
    drive(size, pass, |(results, totals), files| {
        report(&results, &totals, &files[1].body)
    });
}

fn report(results: &[CampaignResult], totals: &FlipStats, violations_doc: &str) {
    let total_jobs: usize = results.iter().map(|r| r.jobs).sum();
    let total_completed: usize = results.iter().map(|r| r.completed).sum();
    let total_unex: usize = results.iter().map(|r| r.unexecutable).sum();
    println!(
        "{}",
        render_table(
            &["campaigns", "jobs", "completed", "unexecutable", "events"],
            &[vec![
                results.len().to_string(),
                total_jobs.to_string(),
                total_completed.to_string(),
                total_unex.to_string(),
                results.iter().map(|r| r.events).sum::<usize>().to_string(),
            ]],
        )
    );
    println!(
        "{}",
        render_table(
            &[
                "flip arm",
                "injected",
                "caught by digest",
                "escaped to a result",
            ],
            &[
                vec![
                    "ckpt-image".to_string(),
                    totals.ckpt_injected.to_string(),
                    format!(
                        "{} of {} refetched ({:.0}%)",
                        totals.ckpt_detected,
                        totals.ckpt_detected + totals.ckpt_escaped,
                        100.0 * totals.detection_rate()
                    ),
                    totals.ckpt_escaped.to_string(),
                ],
                vec![
                    "heap-word".to_string(),
                    totals.heap_injected.to_string(),
                    "0 (lands after validation)".to_string(),
                    format!(
                        "{} ({:.0}%)",
                        totals.heap_escaped,
                        100.0 * totals.escape_rate()
                    ),
                ],
            ],
        )
    );

    // Gate 1: the oracle stayed silent on every campaign. Violating
    // seeds print their schedule and full post-mortem, and the violations
    // file is on disk, before the gate trips.
    let total_violations: usize = results.iter().map(|r| r.violations.len()).sum();
    if total_violations > 0 {
        for r in results.iter().filter(|r| !r.violations.is_empty()) {
            println!(
                "\ncampaign seed {}:\n{}",
                r.seed,
                generate(r.seed).describe()
            );
        }
        println!("\n{violations_doc}");
        std::fs::write("BENCH_campaign.violations.txt", violations_doc)
            .expect("write BENCH_campaign.violations.txt");
    }
    assert_eq!(
        total_violations, 0,
        "the oracle found {total_violations} principle violation(s); \
         see BENCH_campaign.violations.txt"
    );
    println!("\noracle: 0 violations across {} campaigns", results.len());

    // Gate 2: both SDC arms actually fired, and behaved as the theory
    // says they must: digests catch every image flip, heap flips escape.
    assert!(
        totals.ckpt_injected > 0,
        "no ckpt-image flips were injected"
    );
    assert!(totals.heap_injected > 0, "no heap flips were injected");
    assert!(
        totals.ckpt_detected > 0,
        "no flipped checkpoint image was ever presented to the digest"
    );
    assert_eq!(
        totals.ckpt_escaped, 0,
        "a flipped checkpoint image escaped the restore digest"
    );
    assert!(
        totals.heap_escaped > 0,
        "no heap flip escaped — the SDC arm is not landing past validation"
    );
    println!(
        "sdc: {}/{} image flips refetched, all caught; {}/{} heap flips escaped silently",
        totals.ckpt_detected, totals.ckpt_injected, totals.heap_escaped, totals.heap_injected
    );

    // Gate 3: the negative control. A deliberately broken kernel (naive
    // mode around a black hole) must trip the oracle and localize to the
    // rogue machine — proof the zero above is a verdict, not blindness.
    let seed = results[0].seed;
    let broken =
        campaign::gen::negative_control_pool(seed, true).run(SimTime::from_secs(24 * 3600));
    let bs = Stream::from_collector(&broken.telemetry).expect("negative control stream");
    let bv = check(&bs, &RunSummary::of(&broken));
    assert!(
        bv.iter().any(|v| v.principle == 3),
        "negative control: the oracle failed to flag a naive-mode kernel"
    );
    let healthy =
        campaign::gen::negative_control_pool(seed, false).run(SimTime::from_secs(24 * 3600));
    let hs = Stream::from_collector(&healthy.telemetry).expect("reference stream");
    let post = postmortem(&bs, &hs);
    assert!(
        post.contains("machine:2"),
        "negative control: post-mortem failed to name the rogue machine\n{post}"
    );
    println!(
        "negative control: naive kernel flagged ({} violation(s)) and localized to machine:2",
        bv.len()
    );
}
