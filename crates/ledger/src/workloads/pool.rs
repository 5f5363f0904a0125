//! `pool_drain` — the busy pool — and the harness-driven pool driver the
//! campaign workload shares.
//!
//! One thousand healthy machines drain ten thousand java jobs with the
//! default collector on: matchmaking, the claim protocol, startd
//! execution and telemetry recording are all on the critical path.
//! A failed operation is a job that is not `Completed` at the deadline.

use super::{Outcome, Sizes};
use crate::stats::{median, Fnv};
use crate::tracer::{Kind, Tracer};
use condor::prelude::*;
use condor::{CkptServer, MachineStats, Matchmaker, MatchmakerStats, Metrics, Msg, Schedd, Startd};
use desim::{SimDuration, SimTime, World};
use std::collections::BTreeMap;
use std::time::Instant;

/// The lease policy of E13's worlds (`exp_parworld::policy()`).
pub fn policy() -> ScheddPolicy {
    ScheddPolicy {
        lease: Some(LeaseInfo {
            interval: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(30),
        }),
        max_attempts: 60,
        ..ScheddPolicy::default()
    }
}

/// Job `i` of the sim workloads: `completes_main`, 60 + (i % 7)·30 s.
pub fn java_job(i: u32) -> JobSpec {
    JobSpec::java(
        i,
        "ada",
        gridvm::programs::completes_main(),
        JavaMode::Scoped,
    )
    .with_exec_time(SimDuration::from_secs(60 + u64::from(i % 7) * 30))
}

/// A built single-pool world, ready to run.
pub struct Built {
    world: World<Msg>,
    schedd: usize,
    machines: Vec<usize>,
}

/// `PoolBuilder::build` under a `condor.build` span.
pub fn build(builder: PoolBuilder, t: &Tracer) -> Built {
    let (world, schedd, machines) = t.span(Kind::CondorBuild, || builder.build());
    Built {
        world,
        schedd,
        machines,
    }
}

/// What [`PoolBuilder::run`] does, driven from outside so each phase gets
/// its own span: `run_until` in 30 s slices until the schedd's queue is
/// quiescent or `deadline` passes (`desim.run`), the statistics
/// extraction (`condor.report`), and dropping the world with its actors
/// and queue (`desim.teardown`). With `slice_ms`, every slice's
/// wall-clock is appended to it. Pools with extra schedds are not
/// supported (no ledger workload builds one).
pub fn drain(
    built: Built,
    deadline: SimTime,
    t: &Tracer,
    mut slice_ms: Option<&mut Vec<f64>>,
) -> (RunReport, usize) {
    let Built {
        mut world,
        schedd,
        machines,
    } = built;
    let after_machines = PoolBuilder::FIRST_MACHINE_ID + machines.len();
    assert!(
        world.get::<Schedd>(after_machines).is_none(),
        "the ledger's pool driver does not handle extra schedds"
    );
    let all_done = |w: &World<Msg>| w.get::<Schedd>(schedd).expect("schedd").all_done();
    let slice = SimDuration::from_secs(30);
    let mut now = SimTime::ZERO;
    loop {
        now = SimTime::from_micros((now + slice).as_micros().min(deadline.as_micros()));
        let started = Instant::now();
        t.span(Kind::DesimRun, || world.run_until(now));
        if let Some(v) = slice_ms.as_deref_mut() {
            v.push(started.elapsed().as_secs_f64() * 1e3);
        }
        if all_done(&world) || now >= deadline {
            break;
        }
    }
    let pending = world.pending();
    let report = t.span(Kind::CondorReport, || {
        let s = world.get::<Schedd>(schedd).expect("schedd");
        RunReport {
            metrics: s.metrics.clone(),
            user_log: s.user_log.clone(),
            jobs: s.jobs.clone(),
            extra_schedds: Vec::new(),
            machines: machines
                .iter()
                .map(|&id| {
                    let sd = world.get::<Startd>(id).expect("startd present");
                    (id, sd.stats.clone())
                })
                .collect(),
            ckpt_server: world
                .get::<CkptServer>(after_machines)
                .map(|c| c.stats.clone()),
            matchmaker: world
                .get::<Matchmaker>(PoolBuilder::MATCHMAKER_ID)
                .map(|m| m.stats().clone())
                .unwrap_or_default(),
            telemetry: world.telemetry().clone(),
            net: world.net().stats().clone(),
            finished_at: world.now(),
            quiescent: all_done(&world),
            events: world.events_processed(),
        }
    });
    t.span(Kind::DesimTeardown, || drop(world));
    (report, pending)
}

/// Fold one job's history into a digest: every attempt (where, when,
/// which scope came back) and the final state.
pub fn digest_job(h: &mut Fnv, rec: &condor::JobRecord) {
    h.u64(u64::from(rec.spec.id));
    h.u64(rec.attempts.len() as u64);
    for a in &rec.attempts {
        h.u64(a.machine as u64);
        h.u64(a.started.as_micros());
        h.u64(a.ended.as_micros());
        h.bytes(a.scope.map_or("vanished", |s| s.name()).as_bytes());
    }
    match &rec.state {
        JobState::Completed { result } => {
            h.u64(1);
            h.bytes(result.to_json().as_bytes());
        }
        JobState::Unexecutable { reason } => {
            h.u64(2);
            h.bytes(reason.as_bytes());
        }
        JobState::Held { reason } => {
            h.u64(3);
            h.bytes(reason.as_bytes());
        }
        JobState::AwaitingPostmortem { shown } => {
            h.u64(4);
            h.bytes(shown.as_bytes());
        }
        JobState::Idle => h.u64(5),
        JobState::Claiming { machine } => {
            h.u64(6);
            h.u64(*machine as u64);
        }
        JobState::Running { machine } => {
            h.u64(7);
            h.u64(*machine as u64);
        }
        JobState::Waiting => h.u64(8),
    }
}

/// Jobs in a terminal state the user can act on.
pub fn terminal_jobs<'a>(jobs: impl IntoIterator<Item = &'a condor::JobRecord>) -> u64 {
    jobs.into_iter()
        .filter(|r| {
            matches!(
                r.state,
                JobState::Completed { .. } | JobState::Unexecutable { .. }
            )
        })
        .count() as u64
}

/// Approximate quantile of a log-bucket histogram: the upper bound of
/// the bucket the quantile falls in (exact to within a factor of two).
fn hist_quantile(h: &obs::Histogram, q: f64) -> f64 {
    let want = (h.count() as f64 * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, n) in h.nonzero_buckets() {
        seen += n;
        if seen >= want {
            let (_, hi) = obs::Histogram::bucket_bounds(i);
            return hi.min(h.max().unwrap_or(hi)) as f64;
        }
    }
    0.0
}

/// Fold the counters the condor layer already exports into `counts`.
pub fn condor_counts<'a>(
    counts: &mut BTreeMap<&'static str, f64>,
    metrics: &Metrics,
    machines: impl IntoIterator<Item = &'a MachineStats>,
    matchmakers: &[&MatchmakerStats],
) {
    let mut add = |k: &'static str, v: f64| *counts.entry(k).or_insert(0.0) += v;
    add("condor.schedd.reschedules", metrics.reschedules as f64);
    add("condor.schedd.failed_claims", metrics.failed_claims as f64);
    add(
        "condor.schedd.leases_expired",
        metrics.leases_expired as f64,
    );
    let mut startds = [0u64; 6];
    for m in machines {
        let fields = [
            m.executions,
            m.claims_accepted,
            m.claims_rejected,
            m.vm_compiled_instructions,
            m.vm_traces_compiled,
            m.vm_guard_exits,
        ];
        for (sum, v) in startds.iter_mut().zip(fields) {
            *sum += v;
        }
    }
    let names = [
        "condor.startd.executions",
        "condor.startd.claims_accepted",
        "condor.startd.claims_rejected",
        "gridvm.compiled_instructions",
        "gridvm.traces_compiled",
        "gridvm.guard_exits",
    ];
    for (k, v) in names.into_iter().zip(startds) {
        add(k, v as f64);
    }
    let mut cycle_us = obs::Histogram::new();
    for mm in matchmakers {
        add("condor.matchmaker.cycles", mm.cycles as f64);
        add(
            "condor.matchmaker.pairs_evaluated",
            mm.pairs_evaluated as f64,
        );
        add("condor.matchmaker.cache_hits", mm.cache_hits as f64);
        add("condor.matchmaker.matches_made", mm.matches_made as f64);
        cycle_us.merge(&mm.cycle_us);
    }
    add("condor.matchmaker.cycle_s", cycle_us.sum() as f64 / 1e6);
    // Quantiles do not add: a sweep of many pools keeps the largest.
    let mut keep_max = |k: &'static str, v: f64| {
        let e = counts.entry(k).or_insert(0.0);
        *e = e.max(v);
    };
    keep_max(
        "condor.matchmaker.cycle_us_p50",
        hist_quantile(&cycle_us, 0.5),
    );
    keep_max(
        "condor.matchmaker.cycle_us_max",
        cycle_us.max().unwrap_or(0) as f64,
    );
}

/// Fold what the simulator kernel and the collector export.
pub fn desim_counts(
    counts: &mut BTreeMap<&'static str, f64>,
    events: u64,
    pending: usize,
    net: &desim::NetStats,
    telemetry: &obs::Collector,
) {
    let mut add = |k: &'static str, v: f64| *counts.entry(k).or_insert(0.0) += v;
    add("desim.events", events as f64);
    add("desim.pending_at_end", pending as f64);
    add("desim.net.dropped", net.dropped_total() as f64);
    add("desim.net.duplicated", net.duplicated_total() as f64);
    add(
        "obs.events_recorded",
        telemetry.len() as f64 + telemetry.evicted() as f64,
    );
    add("obs.events_evicted", telemetry.evicted() as f64);
}

/// `setup`: specs from the seed, then `PoolBuilder::build`.
pub fn setup(seed: u64, sizes: &Sizes, t: &Tracer) -> Built {
    let builder = PoolBuilder::new(seed)
        .machines((0..sizes.pool_machines).map(|i| MachineSpec::healthy(&format!("m{i}"), 256)))
        .jobs((1..=sizes.pool_jobs).map(java_job))
        .schedd_policy(policy())
        .without_trace();
    build(builder, t)
}

/// Drain the pool, export what a user would keep, digest it.
pub fn run(built: Built, t: &Tracer) -> Outcome {
    obs::reset_span_ids(0);
    let mut slices = Vec::new();
    let deadline = SimTime::from_secs(48 * 3600);
    let (report, pending) = drain(built, deadline, t, Some(&mut slices));
    let stream = t.span(Kind::ObsExport, || report.telemetry.to_jsonl_with_meta());
    let registry = t.span(Kind::ObsRegistry, || report.registry().snapshot_json());

    let digest = t.span(Kind::LedgerDigest, || {
        let mut h = Fnv::default();
        h.u64(report.events);
        h.u64(report.finished_at.as_micros());
        h.u64(u64::from(report.quiescent));
        for rec in report.jobs.values() {
            digest_job(&mut h, rec);
        }
        h.bytes(stream.as_bytes());
        h.bytes(registry.as_bytes());
        h.finish()
    });

    let completed = report
        .jobs
        .values()
        .filter(|r| matches!(r.state, JobState::Completed { .. }))
        .count() as u64;
    let mut counts = BTreeMap::new();
    condor_counts(
        &mut counts,
        &report.metrics,
        report.machines.values(),
        &[&report.matchmaker],
    );
    desim_counts(
        &mut counts,
        report.events,
        pending,
        &report.net,
        &report.telemetry,
    );
    counts.insert("obs.export_bytes", stream.len() as f64);
    counts.insert("desim.run_slice_ms_p50", median(&slices));
    counts.insert(
        "desim.run_slice_ms_max",
        slices.iter().copied().fold(0.0, f64::max),
    );
    let attempted = report.jobs.len() as u64;
    Outcome {
        digest,
        events: report.events,
        jobs: terminal_jobs(report.jobs.values()),
        attempted,
        failed: attempted - completed,
        counts,
        ..Outcome::default()
    }
}
