//! Experiment E11 — flocking: federated pools where every remote-pool
//! failure is an explicit scoped error, never a hang.
//!
//! §6 of the paper reaches past a single pool: schedds *flock* — when the
//! home pool is saturated or its matchmaker unreachable, they negotiate
//! with remote pools in configured order. Every new trust boundary is a
//! new place for silence, so the whole remote interaction rides the
//! robustness stack: probes time out into explicit `unreachable` pool
//! faults, saturated pools answer with explicit denials, per-remote-pool
//! circuit breakers park failing pools, flocked claims are epoch- and
//! pool-fenced, and every cross-boundary fault widens to a pool-scope
//! error delivered to the schedd (its Figure 3 manager) — never a hang.
//!
//! Four sections, each gated:
//!
//! 1. **Federation** — a five-pool world with a starved home pool: every
//!    job completes, flocking actually fired, remote pools served
//!    grants, and the P1–P4 oracle stays silent.
//! 2. **Partition during flock** — the inter-pool link to the serving
//!    pool drops mid-claim: the fault surfaces as an explicit pool-scope
//!    `FlockFault` + escalate-to-human disposition, the job falls back
//!    and completes elsewhere **exactly once** (one Program-scope
//!    attempt), and the oracle stays silent.
//! 3. **Fault campaigns** — `campaign::generate_flock` samples federated
//!    worlds with matchmaker crashes, inter-pool partitions, and
//!    flock-claim revocations; every run is judged by the oracle. Zero
//!    violations, and all three fault kinds were exercised.
//! 4. **Scale** — per-pool negotiation over a 5-pool federation
//!    (5 × 20,000 machines, 1,000,000 jobs in the full study) driven
//!    through `desim::sweep`, with a downscaled differential proving the
//!    engine's assignments bit-identical to the frozen naive
//!    kernel pool by pool, and a ≥100x (≥10x in smoke) pair-reduction
//!    figure at the largest scale.
//!
//! Artifacts: `BENCH_flock.json` (federation + partition + campaign +
//! scale rows; two passes must serialize byte-identically) and
//! `BENCH_flock.events.jsonl` (the partition scenario's event stream,
//! also byte-identical across passes).
//!
//! Run with: `cargo run --release -p bench --bin exp -- e11`
//! (pass `--smoke` for the CI-sized study).

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{
    federation, negotiate_cycles, partition_during_flock, Negotiation, FEDERATION_HORIZON,
    FEDERATION_JOBS, FEDERATION_POOLS, IMAGE_SIZES, MEM_TIERS, OVERSIZE, PARTITION_HORIZON,
};
use crate::{f, render_table};
use campaign::{check, generate_flock, RunSummary};
use classads::ClassAd;
use condor::prelude::*;
use condor::Matchmaker;
use desim::sweep::run_sweep;
use desim::SimRng;
use errorscope::Scope;
use obs_analyze::Stream;
use std::ops::Range;

// ---------------------------------------------------------------------
// Sections 1 and 2 run `scenarios::federation` and
// `scenarios::partition_during_flock`.
// ---------------------------------------------------------------------

/// The partition scenario's gates, asserted on both determinism passes.
fn check_partition(report: &RunReport) -> (usize, usize, usize) {
    let summary = RunSummary::of(report);
    assert!(
        report.quiescent,
        "partition run must drain: {:?}",
        summary.unfinished
    );
    assert_eq!(report.metrics.jobs_completed, 1);
    // Exactly once: however many claims the partition burned, exactly
    // one attempt ran the program to a Program-scope conclusion.
    let program_attempts = report.jobs[&1]
        .attempts
        .iter()
        .filter(|a| a.scope == Some(Scope::Program))
        .count();
    assert_eq!(
        program_attempts, 1,
        "partition-during-flock must execute exactly once: {:?}",
        report.jobs[&1].attempts
    );
    // The cross-pool fault surfaced explicitly, scoped to pool 1, and
    // was ruled on at pool scope — not silence, not a hang.
    let stream = Stream::from_collector(&report.telemetry).expect("partition stream");
    let flock_faults = stream
        .records
        .iter()
        .filter(|r| matches!(&r.event, obs::Event::FlockFault { pool, .. } if *pool == 1))
        .count();
    assert!(
        flock_faults >= 1,
        "the partition must surface as a pool fault"
    );
    let pool_rulings = stream
        .records
        .iter()
        .filter(|r| {
            matches!(&r.event,
                obs::Event::Disposition { scope, disposition, .. }
                    if scope == "pool" && disposition == "escalate-to-human")
        })
        .count();
    assert!(
        pool_rulings >= 1,
        "pool faults must carry pool-scope rulings"
    );
    let violations = check(&stream, &summary);
    assert!(
        violations.is_empty(),
        "oracle fired on the partition run: {violations:?}"
    );
    (flock_faults, pool_rulings, stream.records.len())
}

// ---------------------------------------------------------------------
// Section 3: randomized flock campaigns under the oracle
// ---------------------------------------------------------------------

const FULL_CAMPAIGNS: u64 = 600;
const SMOKE_CAMPAIGNS: u64 = 48;

struct CampaignRow {
    seed: u64,
    jobs: usize,
    completed: usize,
    flock_faults: u64,
    escalations: u64,
    events: usize,
    violations: Vec<String>,
}

fn campaign_rows(seeds: &[u64], threads: usize) -> Vec<CampaignRow> {
    run_sweep(seeds, threads, |_, seed| {
        let c = generate_flock(seed);
        let report = c.run(true);
        let stream = Stream::from_collector(&report.telemetry)
            .unwrap_or_else(|e| panic!("flock campaign seed {seed}: {e}"));
        let violations: Vec<String> = check(&stream, &RunSummary::of(&report))
            .iter()
            .map(|v| v.to_string())
            .collect();
        let completed = report
            .jobs
            .values()
            .filter(|r| matches!(r.state, JobState::Completed { .. }))
            .count();
        CampaignRow {
            seed,
            jobs: report.jobs.len(),
            completed,
            flock_faults: report.metrics.flock_faults,
            escalations: report.metrics.flock_escalations,
            events: stream.records.len(),
            violations,
        }
    })
}

// ---------------------------------------------------------------------
// Section 4: per-pool negotiation at federation scale
// ---------------------------------------------------------------------

const CYCLES: usize = 4;

struct PoolScale {
    pool: u64,
    machines: usize,
    jobs: usize,
    n: Negotiation,
}

/// Negotiate [`CYCLES`] cycles for one pool of the federation through the
/// shared driver; no startd crashes here, only consumption.
fn negotiate_pool(pool: u64, n_machines: usize, n_jobs: usize, check_naive: bool) -> PoolScale {
    let seed = 0xF10C_u64 ^ (pool << 8);
    let mut gen_rng = SimRng::seed_from_u64(seed ^ 0xe11);
    let machine_ads: Vec<ClassAd> = (0..n_machines)
        .map(|_| {
            let mem = MEM_TIERS[gen_rng.index(MEM_TIERS.len())] + 4 * gen_rng.index(32) as i64;
            ClassAd::new()
                .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
                .with_expr("Rank", "0")
                .with_int("Memory", mem)
        })
        .collect();
    let job_ads: Vec<ClassAd> = (0..n_jobs)
        .map(|_| {
            let image = if gen_rng.chance(0.05) {
                OVERSIZE
            } else {
                IMAGE_SIZES[gen_rng.index(IMAGE_SIZES.len())]
            };
            ClassAd::new()
                .with_int("ImageSize", image)
                .with_expr("Requirements", "TARGET.Memory >= MY.ImageSize")
                .with_expr("Rank", "TARGET.Memory")
        })
        .collect();
    let n = negotiate_cycles(
        &format!("pool={pool} machines={n_machines}"),
        &machine_ads,
        &job_ads,
        CYCLES,
        seed.wrapping_mul(31) + 7,
        |_, _| false,
        check_naive,
    );
    PoolScale {
        pool,
        machines: n_machines,
        jobs: n_jobs,
        n,
    }
}

fn scale_study(
    pools: u64,
    machines_per: usize,
    jobs_per: usize,
    check_naive: bool,
    threads: usize,
) -> Vec<PoolScale> {
    let idx: Vec<u64> = (0..pools).collect();
    run_sweep(&idx, threads, move |_, p| {
        negotiate_pool(p, machines_per, jobs_per, check_naive)
    })
}

// ---------------------------------------------------------------------
// The deterministic snapshot
// ---------------------------------------------------------------------

struct Pass {
    federation: RunReport,
    /// Flock grants each of the federation's pools served, by pool id.
    flock_grants: Vec<u64>,
    /// The federation's home-pool machines.
    home_machines: Range<usize>,
    partition: RunReport,
    partition_gates: (usize, usize, usize),
    campaigns: Vec<CampaignRow>,
    scale: Vec<PoolScale>,
}

/// (campaign seeds, (pools, machines per pool, jobs per pool)) of the study.
fn shape(size: Size) -> (Vec<u64>, (u64, usize, usize)) {
    let n = size.pick(SMOKE_CAMPAIGNS, FULL_CAMPAIGNS);
    let big = size.pick((5, 600, 120), (5, 20_000, 200_000));
    ((2000..2000 + n).collect(), big)
}

/// Deterministic by construction: fixed iteration order, no timestamps,
/// no span-dependent fields.
fn snapshot(p: &Pass) -> String {
    let fed = &p.federation;
    let grants: Vec<String> = p.flock_grants.iter().map(u64::to_string).collect();
    let campaign_rows: Vec<String> = p
        .campaigns
        .iter()
        .map(|r| {
            format!(
                "{{\"seed\":{},\"jobs\":{},\"completed\":{},\"flock_faults\":{},\
                 \"escalations\":{},\"events\":{},\"violations\":{}}}",
                r.seed,
                r.jobs,
                r.completed,
                r.flock_faults,
                r.escalations,
                r.events,
                r.violations.len()
            )
        })
        .collect();
    let scale_rows: Vec<String> = p
        .scale
        .iter()
        .map(|r| {
            format!(
                "{{\"pool\":{},\"machines\":{},\"jobs\":{},\"matches\":{},\
                 \"indexed_pairs\":{},\"naive_pairs\":{}}}",
                r.pool, r.machines, r.jobs, r.n.matches, r.n.engine_pairs, r.n.naive_pairs
            )
        })
        .collect();
    let (pfaults, prulings, pevents) = p.partition_gates;
    format!(
        "{{\"federation\":{{\"jobs\":{},\"completed\":{},\"flock_escalations\":{},\
         \"flock_faults\":{},\"flock_grants\":[{}],\"events\":{}}},\
         \"partition\":{{\"completed\":{},\"flock_faults\":{},\"pool_rulings\":{},\
         \"events\":{}}},\
         \"campaigns\":[{}],\"scale\":[{}]}}",
        fed.jobs.len(),
        fed.metrics.jobs_completed,
        fed.metrics.flock_escalations,
        fed.metrics.flock_faults,
        grants.join(","),
        fed.telemetry.len(),
        p.partition.metrics.jobs_completed,
        pfaults,
        prulings,
        pevents,
        campaign_rows.join(","),
        scale_rows.join(",")
    )
}

/// One pass over all four sections. The partition stream deliberately
/// numbers its spans from 1,000,000 so it can be told from the
/// federation's in a merged view.
fn pass(size: Size) -> (Pass, Vec<Artifact>) {
    let (seeds, big) = shape(size);
    let threads = desim::sweep::default_width();
    let grid = federation();
    let (layout, home_machines) = (grid.layout(), grid.machine_ids(0));
    let (mut world, _, _) = grid.build();
    layout.drain(&mut world, FEDERATION_HORIZON);
    let federation = layout.report(&world);
    let flock_grants = (0..FEDERATION_POOLS)
        .map(|p| world.get::<Matchmaker>(PoolBuilder::matchmaker_id(p)))
        .map(|mm| mm.expect("matchmaker").flock_grants)
        .collect();
    obs::reset_span_ids(1_000_000);
    let partition = partition_during_flock().run(PARTITION_HORIZON);
    let partition_gates = check_partition(&partition);
    let campaigns = campaign_rows(&seeds, threads);
    // The downscaled differential always runs the naive kernel for real;
    // the big study's naive pair count is analytic (gate 1 of the small
    // study pins the match sequence the analytic count depends on).
    let mut scale = scale_study(3, 200, 60, true, threads);
    scale.extend(scale_study(big.0, big.1, big.2, false, threads));
    let pass = Pass {
        federation,
        flock_grants,
        home_machines,
        partition,
        partition_gates,
        campaigns,
        scale,
    };
    let files = vec![
        artifact("BENCH_flock.json", snapshot(&pass)),
        artifact(
            "BENCH_flock.events.jsonl",
            pass.partition.telemetry.to_jsonl_with_meta(),
        ),
    ];
    (pass, files)
}

pub fn run(size: Size, _: &[String]) {
    let (seeds, big) = shape(size);
    println!(
        "E11: flocking — federated pools, every remote-pool failure an explicit\n\
         scoped error; {} flock campaigns, {}x{} machine scale study, {} thread(s)\n",
        seeds.len(),
        big.0,
        big.1,
        desim::sweep::default_width()
    );
    drive(size, pass, |pass, _| report(size, &pass));
}

fn report(size: Size, pass: &Pass) {
    let (seeds, big) = shape(size);

    // Gate 1: the federation drains through flocking, and remote pools
    // actually served.
    let fed = &pass.federation;
    let summary = RunSummary::of(fed);
    assert!(
        fed.quiescent,
        "federation must drain: {:?}",
        summary.unfinished
    );
    assert_eq!(fed.metrics.jobs_completed, u64::from(FEDERATION_JOBS));
    assert!(summary.unfinished.is_empty(), "{:?}", summary.unfinished);
    assert!(
        fed.metrics.flock_escalations >= 1,
        "a starved home pool must escalate to flocking"
    );
    let remote_grants: u64 = pass.flock_grants.iter().skip(1).sum();
    assert!(remote_grants >= 1, "remote pools must serve flock grants");
    let remote_execs = fed
        .jobs
        .values()
        .flat_map(|r| &r.attempts)
        .filter(|a| !pass.home_machines.contains(&a.machine))
        .count();
    assert!(remote_execs >= 1, "some attempts must run on remote pools");
    let fstream = Stream::from_collector(&fed.telemetry).expect("federation stream");
    let fv = check(&fstream, &summary);
    assert!(fv.is_empty(), "oracle fired on the federation: {fv:?}");
    println!(
        "{}",
        render_table(
            &[
                "jobs",
                "completed",
                "flock escalations",
                "remote grants",
                "remote execs"
            ],
            &[vec![
                fed.jobs.len().to_string(),
                fed.metrics.jobs_completed.to_string(),
                fed.metrics.flock_escalations.to_string(),
                remote_grants.to_string(),
                remote_execs.to_string(),
            ]],
        )
    );
    println!("federation: 5 pools drain a starved home queue; oracle clean\n");

    // Gate 2 ran inside the pass (check_partition); report it.
    let (pfaults, prulings, _) = pass.partition_gates;
    println!(
        "partition-during-flock: exactly-once execution, {pfaults} explicit pool \
         fault(s), {prulings} pool-scope ruling(s), oracle clean\n"
    );

    // Gate 3: zero oracle violations across the randomized federations,
    // and the sweep exercised every remote-pool fault kind.
    let total_violations: usize = pass.campaigns.iter().map(|r| r.violations.len()).sum();
    for r in pass.campaigns.iter().filter(|r| !r.violations.is_empty()) {
        println!("\nVIOLATIONS in flock campaign seed {}:", r.seed);
        println!("{}", generate_flock(r.seed).describe());
        for v in &r.violations {
            println!("  {v}");
        }
    }
    assert_eq!(
        total_violations, 0,
        "the oracle found {total_violations} violation(s) across the flock campaigns"
    );
    let total_faults: u64 = pass.campaigns.iter().map(|r| r.flock_faults).sum();
    assert!(
        total_faults > 0,
        "the campaigns must actually surface remote-pool faults"
    );
    let sampled: Vec<&str> = seeds
        .iter()
        .flat_map(|&s| generate_flock(s).faults)
        .map(|f| match f {
            Fault::Crash { .. } => "matchmaker crash",
            Fault::Net { .. } => "partition",
            Fault::FlockRevocation { .. } => "revocation",
            _ => "other",
        })
        .collect();
    for kind in ["matchmaker crash", "partition", "revocation"] {
        assert!(
            sampled.contains(&kind),
            "the campaign set never sampled a {kind}"
        );
    }
    let total_jobs: usize = pass.campaigns.iter().map(|r| r.jobs).sum();
    let total_completed: usize = pass.campaigns.iter().map(|r| r.completed).sum();
    println!(
        "{}",
        render_table(
            &[
                "campaigns",
                "jobs",
                "completed",
                "pool faults",
                "violations"
            ],
            &[vec![
                pass.campaigns.len().to_string(),
                total_jobs.to_string(),
                total_completed.to_string(),
                total_faults.to_string(),
                "0".to_string(),
            ]],
        )
    );
    println!(
        "campaigns: 0 violations across {} federations; all three fault kinds sampled\n",
        pass.campaigns.len()
    );

    // Gate 4: bit-identical downscaled differential (asserted inside
    // the negotiation driver) plus the pair-reduction figure at
    // federation scale.
    let reduction = |naive: u64, engine: u64| f(naive as f64 / engine.max(1) as f64, 1);
    let rows: Vec<Vec<String>> = pass
        .scale
        .iter()
        .map(|r| {
            vec![
                r.pool.to_string(),
                r.machines.to_string(),
                r.jobs.to_string(),
                r.n.matches.to_string(),
                r.n.naive_pairs.to_string(),
                r.n.engine_pairs.to_string(),
                format!("{}x", reduction(r.n.naive_pairs, r.n.engine_pairs)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pool",
                "machines",
                "jobs",
                "matches",
                "naive pairs",
                "shape pairs",
                "reduction"
            ],
            &rows,
        )
    );
    let big_rows: Vec<&PoolScale> = pass.scale.iter().filter(|r| r.machines == big.1).collect();
    let naive_total: u64 = big_rows.iter().map(|r| r.n.naive_pairs).sum();
    let engine_total: u64 = big_rows.iter().map(|r| r.n.engine_pairs).sum();
    let floor = size.pick(10, 100);
    assert!(
        engine_total * floor <= naive_total,
        "at {}x{} machines the federation must evaluate >={floor}x fewer pairs \
         (naive={naive_total}, shape pairs={engine_total})",
        big.0,
        big.1
    );
    println!(
        "scale: {} pools x {} machines, naive {} pairs -> {} shape pairs ({}x)",
        big.0,
        big.1,
        naive_total,
        engine_total,
        reduction(naive_total, engine_total)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::PARTITION_HORIZON;

    /// A federation's registry records what the network dropped: here the
    /// inter-pool link to pool 1 while the job's flocked claim ran there.
    #[test]
    fn the_registry_counts_what_the_inter_pool_partition_dropped() {
        let grid = partition_during_flock();
        let (schedd, far) = (grid.schedd_id(), grid.machine_ids(1));
        let report = grid.run(PARTITION_HORIZON);
        let reg = report.registry();
        let dropped: u64 = std::iter::once(PoolBuilder::matchmaker_id(1))
            .chain(far)
            .map(|id| format!("{}-{}", id.min(schedd), id.max(schedd)))
            .map(|link| reg.counter("net_msgs_dropped", &[("link", &link)]))
            .sum();
        assert!(dropped > 0);
        assert_eq!(dropped, report.net.dropped_total());
    }

    /// Time to detect, pinned: in the partition-during-flock scenario the
    /// inter-pool link drops at 80 s, and the lease expiry, the flock
    /// fault and the pool-scope ruling all land at the recorded instant
    /// (µs; the same under the schedd's 5-s job-ad drumbeat, 1512bf3).
    #[test]
    fn the_partition_ruling_lands_at_the_recorded_instant() {
        obs::reset_span_ids(0);
        let report = partition_during_flock().run(PARTITION_HORIZON);
        let at = |wanted: &dyn Fn(&obs::Event) -> bool| -> Vec<u64> {
            let records = report.telemetry.iter().map(|r| r.to_record());
            let wanted = records.filter(|r| wanted(&r.event));
            wanted.map(|r| r.at_us).collect()
        };
        let expired =
            |e: &obs::Event| matches!(e, obs::Event::LeaseExpired { side, .. } if side == "schedd");
        let fault = |e: &obs::Event| matches!(e, obs::Event::FlockFault { .. });
        let ruling =
            |e: &obs::Event| matches!(e, obs::Event::Disposition { scope, .. } if scope == "pool");
        assert_eq!(
            (at(&expired), at(&fault), at(&ruling)),
            (vec![100_005_000], vec![100_005_000], vec![100_005_000])
        );
    }
}
