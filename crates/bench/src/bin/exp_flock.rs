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
//!    indexed engine's assignments bit-identical to the frozen naive
//!    kernel pool by pool, and a ≥100x (≥10x in smoke) pair-reduction
//!    figure at the largest scale.
//!
//! Artifacts: `BENCH_flock.json` (federation + partition + campaign +
//! scale rows; two passes must serialize byte-identically) and
//! `BENCH_flock.events.jsonl` (the partition scenario's event stream,
//! also byte-identical across passes).
//!
//! Run with: `cargo run --release -p bench --bin exp_flock`
//! (pass `--smoke` for the CI-sized study).

use bench::legacy::naive_negotiate;
use bench::{f, render_table};
use campaign::{check, generate_flock, FlockFaultKind, RunSummary};
use classads::ClassAd;
use condor::prelude::*;
use condor::MatchEngine;
use desim::sweep::run_sweep;
use desim::{SimDuration, SimRng, SimTime};
use errorscope::Scope;
use gridvm::programs;
use obs_analyze::Stream;
use std::collections::BTreeMap;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn job(id: u32, exec_s: u64) -> JobSpec {
    JobSpec::java(id, "ada", programs::completes_main(), JavaMode::Scoped)
        .with_exec_time(SimDuration::from_secs(exec_s))
}

fn policy() -> ScheddPolicy {
    ScheddPolicy {
        lease: Some(LeaseInfo {
            interval: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(30),
        }),
        max_attempts: 60,
        ..ScheddPolicy::default()
    }
}

// ---------------------------------------------------------------------
// Section 1: the five-pool federation
// ---------------------------------------------------------------------

const FEDERATION_JOBS: u32 = 30;

fn federation_run() -> FlockReport {
    let mut b = FederationBuilder::new(47)
        .pool((0..2).map(|i| MachineSpec::healthy(&format!("home{i}"), 256)));
    for p in 1..5 {
        b = b.pool((0..3).map(|i| MachineSpec::healthy(&format!("p{p}m{i}"), 256)));
    }
    b.jobs((1..=FEDERATION_JOBS).map(|i| job(i, 60 + u64::from(i % 5) * 30)))
        .schedd_policy(policy())
        .run(t(8 * 3600))
}

// ---------------------------------------------------------------------
// Section 2: partition during flock
// ---------------------------------------------------------------------

fn partition_run() -> FlockReport {
    let b = FederationBuilder::new(48)
        .pool([])
        .pool([MachineSpec::healthy("r1", 256)])
        .pool([MachineSpec::healthy("r2", 256)]);
    // The inter-pool link to pool 1 — its matchmaker and its machines at
    // once — goes down after the flocked claim lands and stays down long
    // past the lease, then heals.
    let mut far = vec![FederationBuilder::matchmaker_id(1)];
    far.extend(b.machine_ids(1));
    let schedd = b.schedd_id();
    b.schedd_policy(policy())
        .faults(FaultPlan::none().net_partition([schedd], far, Window::new(t(80), t(900))))
        .job(job(1, 120))
        .run(t(4 * 3600))
}

/// The partition scenario's gates, shared by both determinism passes.
fn check_partition(report: &FlockReport) -> (usize, usize, usize) {
    assert!(
        report.quiescent,
        "partition run must drain: {:?}",
        report.unfinished()
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
    let violations = check(&stream, &RunSummary::of_flock(report));
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
        let violations: Vec<String> = check(&stream, &RunSummary::of_flock(&report))
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
const SCHEDD: usize = 1;
const FIRST_MACHINE: usize = 1000;
const MEM_TIERS: [i64; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];
const IMAGE_SIZES: [i64; 6] = [100, 200, 400, 800, 1600, 3200];
/// Never fits: keeps queue pressure across cycles.
const OVERSIZE: i64 = 9000;

struct PoolScale {
    pool: u64,
    machines: usize,
    jobs: usize,
    matches: u64,
    indexed_pairs: u64,
    naive_pairs: u64,
}

/// Drive `CYCLES` negotiation cycles for one pool of the federation:
/// wave job arrivals, per-cycle re-advertisement, matched ads consumed.
/// With `check_naive`, the frozen naive kernel runs beside the engine on
/// mirrored maps with a same-seed RNG and every cycle's assignments must
/// be bit-identical; the analytic naive pair count (which only depends
/// on pool sizes and the pinned match sequence) is computed either way.
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

    let mut engine = MatchEngine::new();
    let mut engine_rng = SimRng::seed_from_u64(seed.wrapping_mul(31) + 7);
    let mut naive_rng = SimRng::seed_from_u64(seed.wrapping_mul(31) + 7);
    let mut naive_machines: BTreeMap<usize, ClassAd> = BTreeMap::new();
    let mut naive_jobs: BTreeMap<(usize, u32), ClassAd> = BTreeMap::new();

    let mut consumed = vec![false; n_machines];
    let mut matches = 0u64;
    let mut naive_pairs = 0u64;
    let mut naive_pairs_measured = 0u64;
    let mut queued: Vec<u32> = Vec::new();
    let mut next_job = 0usize;
    let wave = n_jobs.div_ceil(CYCLES);

    for cycle in 0..CYCLES {
        let now = SimTime::from_secs(10 * (cycle as u64 + 1));
        for (i, ad) in machine_ads.iter().enumerate() {
            if consumed[i] {
                continue;
            }
            engine.insert_machine(FIRST_MACHINE + i, ad.clone(), now);
            if check_naive {
                naive_machines.insert(FIRST_MACHINE + i, ad.clone());
            }
        }
        for _ in 0..wave {
            if next_job >= n_jobs {
                break;
            }
            engine.insert_job(SCHEDD, next_job as u32, job_ads[next_job].clone());
            if check_naive {
                naive_jobs.insert((SCHEDD, next_job as u32), job_ads[next_job].clone());
            }
            queued.push(next_job as u32);
            next_job += 1;
        }

        let notifications = engine.negotiate(now, &mut engine_rng);

        // Exact naive work: each queued job scans every machine not yet
        // taken by an earlier job of the same cycle.
        let live = consumed.iter().filter(|&&c| !c).count() as u64;
        let matched: std::collections::BTreeSet<u32> =
            notifications.iter().map(|&(_, j, _)| j).collect();
        let mut taken = 0u64;
        for &j in &queued {
            naive_pairs += live - taken;
            if matched.contains(&j) {
                taken += 1;
            }
        }

        if check_naive {
            let (slow, pairs) = naive_negotiate(&naive_jobs, &naive_machines, &mut naive_rng);
            assert_eq!(
                notifications, slow,
                "flocked assignments must be bit-identical to the naive kernel \
                 (pool={pool} machines={n_machines} cycle={cycle})"
            );
            naive_pairs_measured += pairs;
        }

        matches += notifications.len() as u64;
        for &(s, j, m) in &notifications {
            if check_naive {
                naive_jobs.remove(&(s, j));
                naive_machines.remove(&m);
            }
            consumed[m - FIRST_MACHINE] = true;
            queued.retain(|&q| q != j);
        }
    }

    if check_naive {
        assert_eq!(
            naive_pairs_measured, naive_pairs,
            "analytic naive pair count must match the measured scan (pool {pool})"
        );
    }

    PoolScale {
        pool,
        machines: n_machines,
        jobs: n_jobs,
        matches,
        indexed_pairs: engine.stats.pairs_evaluated,
        naive_pairs,
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

struct Snapshot<'a> {
    federation: &'a FlockReport,
    partition: (usize, usize, usize),
    partition_report: &'a FlockReport,
    campaigns: &'a [CampaignRow],
    scale: &'a [PoolScale],
}

/// Deterministic by construction: fixed iteration order, no timestamps,
/// no span-dependent fields.
fn snapshot(s: &Snapshot<'_>) -> String {
    let fed = s.federation;
    let grants: Vec<String> = fed.flock_grants.iter().map(u64::to_string).collect();
    let campaign_rows: Vec<String> = s
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
    let scale_rows: Vec<String> = s
        .scale
        .iter()
        .map(|r| {
            format!(
                "{{\"pool\":{},\"machines\":{},\"jobs\":{},\"matches\":{},\
                 \"indexed_pairs\":{},\"naive_pairs\":{}}}",
                r.pool, r.machines, r.jobs, r.matches, r.indexed_pairs, r.naive_pairs
            )
        })
        .collect();
    let (pfaults, prulings, pevents) = s.partition;
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
        s.partition_report.metrics.jobs_completed,
        pfaults,
        prulings,
        pevents,
        campaign_rows.join(","),
        scale_rows.join(",")
    )
}

struct Pass {
    federation: FlockReport,
    partition: FlockReport,
    partition_gates: (usize, usize, usize),
    campaigns: Vec<CampaignRow>,
    scale: Vec<PoolScale>,
    events: String,
}

fn run_pass(
    seeds: &[u64],
    threads: usize,
    big: (u64, usize, usize),
    small: (u64, usize, usize),
) -> Pass {
    obs::reset_span_ids(0);
    let federation = federation_run();
    obs::reset_span_ids(1_000_000);
    let partition = partition_run();
    let partition_gates = check_partition(&partition);
    let events = partition.telemetry.to_jsonl();
    let campaigns = campaign_rows(seeds, threads);
    // The downscaled differential always runs the naive kernel for real;
    // the big study's naive pair count is analytic (gate 1 of the small
    // study pins the match sequence the analytic count depends on).
    let mut scale = scale_study(small.0, small.1, small.2, true, threads);
    scale.extend(scale_study(big.0, big.1, big.2, false, threads));
    Pass {
        federation,
        partition,
        partition_gates,
        campaigns,
        scale,
        events,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke {
        SMOKE_CAMPAIGNS
    } else {
        FULL_CAMPAIGNS
    };
    let seeds: Vec<u64> = (2000..2000 + n).collect();
    let threads = desim::sweep::default_width();
    // (pools, machines per pool, jobs per pool)
    let big = if smoke {
        (5, 600, 120)
    } else {
        (5, 20_000, 200_000)
    };
    let small = (3, 200, 60);

    println!(
        "E11: flocking — federated pools, every remote-pool failure an explicit\n\
         scoped error; {} flock campaigns, {}x{} machine scale study, {} thread(s)\n",
        seeds.len(),
        big.0,
        big.1,
        threads
    );

    let pass = run_pass(&seeds, threads, big, small);

    // Gate 1: the federation drains through flocking, and remote pools
    // actually served.
    let fed = &pass.federation;
    assert!(
        fed.quiescent,
        "federation must drain: {:?}",
        fed.unfinished()
    );
    assert_eq!(fed.metrics.jobs_completed, u64::from(FEDERATION_JOBS));
    assert!(fed.unfinished().is_empty(), "{:?}", fed.unfinished());
    assert!(
        fed.metrics.flock_escalations >= 1,
        "a starved home pool must escalate to flocking"
    );
    let remote_grants: u64 = fed.flock_grants.iter().skip(1).sum();
    assert!(remote_grants >= 1, "remote pools must serve flock grants");
    let remote_execs = fed
        .jobs
        .values()
        .flat_map(|r| &r.attempts)
        .filter(|a| fed.pool_of_machine.get(&a.machine).copied().unwrap_or(0) != 0)
        .count();
    assert!(remote_execs >= 1, "some attempts must run on remote pools");
    let fstream = Stream::from_collector(&fed.telemetry).expect("federation stream");
    let fv = check(&fstream, &RunSummary::of_flock(fed));
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

    // Gate 2 ran inside run_pass (check_partition); report it.
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
    for kind in [
        FlockFaultKind::MatchmakerCrash,
        FlockFaultKind::Partition,
        FlockFaultKind::Revocation,
    ] {
        assert!(
            seeds
                .iter()
                .any(|&s| generate_flock(s).faults.iter().any(|fp| fp.kind == kind)),
            "the campaign set never sampled {kind:?}"
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
    // negotiate_pool) plus the pair-reduction figure at federation scale.
    let rows: Vec<Vec<String>> = pass
        .scale
        .iter()
        .map(|r| {
            vec![
                r.pool.to_string(),
                r.machines.to_string(),
                r.jobs.to_string(),
                r.matches.to_string(),
                r.naive_pairs.to_string(),
                r.indexed_pairs.to_string(),
                format!(
                    "{}x",
                    f(r.naive_pairs as f64 / r.indexed_pairs.max(1) as f64, 1)
                ),
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
                "indexed pairs",
                "reduction"
            ],
            &rows,
        )
    );
    let big_rows: Vec<&PoolScale> = pass.scale.iter().filter(|r| r.machines == big.1).collect();
    let naive_total: u64 = big_rows.iter().map(|r| r.naive_pairs).sum();
    let indexed_total: u64 = big_rows.iter().map(|r| r.indexed_pairs).sum();
    let floor = if smoke { 10 } else { 100 };
    assert!(
        indexed_total * floor <= naive_total,
        "at {}x{} machines the federation must evaluate >={floor}x fewer pairs \
         (naive={naive_total}, indexed={indexed_total})",
        big.0,
        big.1
    );
    println!(
        "scale: {} pools x {} machines, naive {} pairs -> indexed {} ({}x)\n",
        big.0,
        big.1,
        naive_total,
        indexed_total,
        f(naive_total as f64 / indexed_total.max(1) as f64, 1)
    );

    // Gate 5: determinism — a second full pass serializes byte-identical
    // artifacts (same thread count covers sweep scheduling).
    let snap = snapshot(&Snapshot {
        federation: &pass.federation,
        partition: pass.partition_gates,
        partition_report: &pass.partition,
        campaigns: &pass.campaigns,
        scale: &pass.scale,
    });
    let second = run_pass(&seeds, threads, big, small);
    let again = snapshot(&Snapshot {
        federation: &second.federation,
        partition: second.partition_gates,
        partition_report: &second.partition,
        campaigns: &second.campaigns,
        scale: &second.scale,
    });
    assert_eq!(snap, again, "two passes must serialize byte-identically");
    assert_eq!(
        pass.events, second.events,
        "the partition event stream must be byte-identical across passes"
    );
    println!(
        "determinism: two full passes byte-identical ({} bytes, {} event bytes)",
        snap.len(),
        pass.events.len()
    );

    std::fs::write("BENCH_flock.json", &snap).expect("write BENCH_flock.json");
    std::fs::write("BENCH_flock.events.jsonl", &pass.events).expect("write event stream");
    obs::json::parse(&snap).expect("snapshot is valid JSON");
    let parsed = obs::Collector::parse_jsonl(&pass.events).expect("event stream is valid JSONL");
    println!(
        "\nTelemetry: BENCH_flock.json ({} campaigns, {} scale rows) and\n\
         BENCH_flock.events.jsonl ({} events) written and re-parsed cleanly.",
        pass.campaigns.len(),
        pass.scale.len(),
        parsed.len()
    );
}
