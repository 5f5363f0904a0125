//! Worlds and loops more than one experiment needs, each defined once.

use classads::ClassAd;
use condor::matchmaker::{naive_negotiate, AD_LIFETIME};
use condor::prelude::*;
use condor::MatchEngine;
use desim::{SimDuration, SimRng, SimTime};
use gridvm::programs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A run's makespan in seconds (NaN when nothing finished).
pub fn makespan_secs(r: &RunReport) -> f64 {
    r.makespan().map(|t| t.as_secs_f64()).unwrap_or(f64::NAN)
}

/// Run `run` once per seed and average each of `metrics`' columns — the
/// table rows of E1, E2, EXT and E6 smooth their random tie-breaks this way.
pub fn mean_over_seeds<const N: usize>(
    seeds: &[u64],
    run: impl Fn(u64) -> RunReport,
    metrics: impl Fn(&RunReport) -> [f64; N],
) -> [f64; N] {
    let mut sums = [0.0; N];
    for &seed in seeds {
        let m = metrics(&run(seed));
        for (sum, x) in sums.iter_mut().zip(m) {
            *sum += x;
        }
    }
    sums.map(|s| s / seeds.len() as f64)
}

// ---------------------------------------------------------------------
// Owner-interrupted workstations (EXT, E6)
// ---------------------------------------------------------------------

pub const OWNER_MACHINES: usize = 4;
pub const OWNER_JOBS: u32 = 4;
/// A 30-minute job.
pub const OWNER_JOB_SECS: u64 = 1800;

/// The owners of the four workstations all come back on a staggered
/// cycle — busy for `busy` seconds every `period` seconds. With `once`,
/// each owner interrupts a single time and then stays away.
pub fn owner_returns(period: u64, busy: u64, once: bool) -> Vec<Fault> {
    let mut faults = Vec::new();
    for m in 0..OWNER_MACHINES {
        let phase = (period / OWNER_MACHINES as u64) * m as u64;
        let mut start = phase + period;
        while start < 7 * 24 * 3600 {
            faults.push(Fault::OwnerActivity {
                machine: PoolBuilder::FIRST_MACHINE_ID + m,
                window: Window::new(secs(start), secs(start + busy)),
            });
            start += period + busy;
            if once {
                break;
            }
        }
    }
    faults
}

/// Four workstations under `faults` (the [`owner_returns`] schedule, and
/// whatever else a caller injects) running four 30-minute jobs of
/// `universe`. Callers add what they vary (a checkpoint server, a startd
/// policy) and run to [`OWNER_HORIZON`].
pub fn owner_interrupted(universe: Universe, faults: Vec<Fault>, seed: u64) -> PoolBuilder {
    PoolBuilder::new(seed)
        .machines((0..OWNER_MACHINES).map(|i| MachineSpec::healthy(&format!("ws{i}"), 256)))
        .faults(FaultPlan::new(faults))
        .jobs((1..=OWNER_JOBS).map(|i| {
            JobSpec {
                universe,
                ..JobSpec::java(i, "ada", programs::calls_exit(0), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(OWNER_JOB_SECS))
            }
        }))
}

pub const OWNER_HORIZON: SimTime = SimTime::from_secs(14 * 24 * 3600);

// ---------------------------------------------------------------------
// The adaptive transport kernel (E7, E10)
// ---------------------------------------------------------------------

/// A lease-and-backoff schedd with per-machine breakers: silence becomes
/// explicit lease-expired errors, retries thin out exponentially with
/// deterministic jitter, and machines that keep timing out stop being
/// matched.
pub fn adaptive_schedd_policy() -> ScheddPolicy {
    ScheddPolicy {
        retry: RetryPolicy::Backoff {
            base: SimDuration::from_secs(10),
            max: SimDuration::from_secs(60),
            jitter: 0.1,
        },
        lease: Some(LeaseInfo {
            interval: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(30),
        }),
        breaker: Some(BreakerPolicy::default()),
        ..ScheddPolicy::default()
    }
}

// ---------------------------------------------------------------------
// E11's federations (E11 runs them, E13 shards them)
// ---------------------------------------------------------------------

pub fn flock_job(id: u32, exec_s: u64) -> JobSpec {
    JobSpec::java(id, "ada", programs::completes_main(), JavaMode::Scoped)
        .with_exec_time(SimDuration::from_secs(exec_s))
}

/// Leased claims and a long retry budget: what every flocking world runs.
pub fn flock_policy() -> ScheddPolicy {
    ScheddPolicy {
        lease: Some(LeaseInfo {
            interval: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(30),
        }),
        max_attempts: 60,
        ..ScheddPolicy::default()
    }
}

pub const FEDERATION_JOBS: u32 = 30;
pub const FEDERATION_POOLS: u64 = 5;

/// Five pools, a starved two-machine home pool, thirty jobs; run or
/// shard it to [`FEDERATION_HORIZON`].
pub fn federation() -> PoolBuilder {
    let mut b = PoolBuilder::new(47)
        .machines((0..2).map(|i| MachineSpec::healthy(&format!("home{i}"), 256)));
    for p in 1..FEDERATION_POOLS {
        b = b.pool((0..3).map(|i| MachineSpec::healthy(&format!("p{p}m{i}"), 256)));
    }
    b.jobs((1..=FEDERATION_JOBS).map(|i| flock_job(i, 60 + u64::from(i % 5) * 30)))
        .schedd_policy(flock_policy())
}

pub const FEDERATION_HORIZON: SimTime = SimTime::from_secs(8 * 3600);

/// Job `i` of the scaling worlds: `completes_main`, 60 + (i % 7)·30 s.
pub fn scale_job(i: u32) -> JobSpec {
    flock_job(i, 60 + u64::from(i % 7) * 30)
}

/// Conservative-window lookahead for the scaling federation: 50ms default
/// latency instead of 1ms, so each window batches ~50x more work per
/// barrier. A build-time choice — the workload's own protocol timeouts
/// are all ≥ seconds, so behavior is unaffected in kind.
const SCALE_LATENCY: SimDuration = SimDuration::from_millis(50);

/// E13's scaling world (and the ledger's `fed_scale`): `pools` pools of
/// `machines_per` idle machines around `jobs` jobs submitted at home, on a
/// 50 ms network, telemetry off — the stream at this scale would be
/// hundreds of MB, so what is compared is counts and stats.
pub fn scaling_federation(
    seed: u64,
    pools: u64,
    machines_per: usize,
    jobs: u32,
) -> desim::World<condor::Msg> {
    let machines =
        |p: u64| (0..machines_per).map(move |i| MachineSpec::healthy(&format!("p{p}m{i}"), 256));
    let b = (1..pools).fold(PoolBuilder::new(seed).machines(machines(0)), |b, p| {
        b.pool(machines(p))
    });
    let (mut world, _, _) = b
        .jobs((1..=jobs).map(scale_job))
        .schedd_policy(flock_policy())
        .build();
    world.net_mut().set_default_latency(SCALE_LATENCY);
    *world.telemetry_mut() = obs::Collector::disabled();
    world
}

/// Partition during flock: the inter-pool link to pool 1 — its matchmaker
/// and its machines at once — goes down after the flocked claim lands and
/// stays down long past the lease, then heals. Fault windows ride the
/// deferred net-op path when the world is sharded.
pub fn partition_during_flock() -> PoolBuilder {
    let b = PoolBuilder::new(48)
        .pool([MachineSpec::healthy("r1", 256)])
        .pool([MachineSpec::healthy("r2", 256)]);
    let mut far = vec![PoolBuilder::matchmaker_id(1)];
    far.extend(b.machine_ids(1));
    let schedd = b.schedd_id();
    b.schedd_policy(flock_policy())
        .faults(FaultPlan::new(vec![Fault::Net {
            window: Window::new(secs(80), secs(900)),
            fault: NetFault::Partition {
                a: vec![schedd],
                b: far,
            },
        }]))
        .job(flock_job(1, 120))
}

pub const PARTITION_HORIZON: SimTime = SimTime::from_secs(4 * 3600);

// ---------------------------------------------------------------------
// The negotiation cycle driver (E9, E11)
// ---------------------------------------------------------------------

/// The synthetic ad population E9 and E11 draw from (each with its own
/// generator and quirks).
pub const MEM_TIERS: [i64; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];
pub const IMAGE_SIZES: [i64; 6] = [100, 200, 400, 800, 1600, 3200];
/// Larger than any machine's memory: jobs asking for this can never match
/// and sit in the queue all study long — the naive kernel rescans the
/// whole pool for them every cycle, the engine keeps one verdict per
/// machine shape and reuses it.
pub const OVERSIZE: i64 = 9000;

const SCHEDD: usize = 1;
const FIRST_MACHINE: usize = 1000;
/// Matches the matchmaker actor's cadence.
const PERIOD_SECS: u64 = 10;

/// What a negotiation study measured. Every field is seed-derived.
pub struct Negotiation {
    pub matches: u64,
    pub engine_pairs: u64,
    pub cache_hits: u64,
    pub naive_pairs: u64,
}

/// `ads` as machines of one pool would send them: what every one of them
/// holds identically in a shared base, the rest in a child chained to it.
fn chained(ads: &[ClassAd]) -> Vec<ClassAd> {
    let mut base = ads.first().cloned().unwrap_or_default();
    for ad in ads {
        let differs =
            |(name, expr): (&str, &_)| (ad.get(name) != Some(expr)).then(|| name.to_owned());
        for name in base.iter().filter_map(differs).collect::<Vec<_>>() {
            base.remove(&name);
        }
    }
    let base = Arc::new(base);
    let chain = |ad: &ClassAd| {
        let mut child = ClassAd::chained(Arc::clone(&base));
        for (name, expr) in ad.iter().filter(|(name, _)| !base.has(name)) {
            child.insert_expr(name, expr.clone());
        }
        assert_eq!(&child, ad);
        child
    };
    ads.iter().map(chain).collect()
}

/// `ads` as a schedd would send them: one base for the jobs alike in
/// everything, and for each a child chained to it that holds its number —
/// which nothing reads.
fn clustered(ads: &[ClassAd]) -> Vec<ClassAd> {
    let mut bases: BTreeMap<String, Arc<ClassAd>> = BTreeMap::new();
    let cluster = |(j, ad): (usize, &ClassAd)| {
        let base = bases.entry(ad.to_string());
        let base = base.or_insert_with(|| Arc::new(ad.clone()));
        ClassAd::chained(Arc::clone(base)).with_int("ClusterId", j as i64)
    };
    ads.iter().enumerate().map(cluster).collect()
}

/// Drive `cycles` negotiation cycles of a [`MatchEngine`] over pre-generated
/// ads: jobs arrive in per-cycle waves, every live startd re-advertises the
/// same ad each cycle (its shape — and the shape's verdicts — must survive),
/// machines for which `crashed(index, cycle)` holds go silent and age out
/// after [`AD_LIFETIME`], and matched ads are consumed.
///
/// With `check_naive`, the frozen [`naive_negotiate`] runs beside the
/// engine on mirrored ad maps with a same-seed RNG, and every cycle's
/// notifications must be bit-identical — as must those, and the work
/// counters, of a second engine the same ads reach as their senders would
/// send them: the machines [`chained`], the jobs [`clustered`].
///
/// The naive pair count is always computed exactly: the naive scan's work
/// per cycle is (live machines) − (matches made so far this cycle), summed
/// per queued job — it depends only on pool sizes and the match sequence,
/// which the equivalence gate pins to the engine's. When the naive kernel
/// actually runs, its measured count must equal the analytic one.
pub fn negotiate_cycles(
    label: &str,
    machine_ads: &[ClassAd],
    job_ads: &[ClassAd],
    cycles: usize,
    rng_seed: u64,
    crashed: impl Fn(usize, usize) -> bool,
    check_naive: bool,
) -> Negotiation {
    let mut engine = MatchEngine::new();
    let mut engine_rng = SimRng::seed_from_u64(rng_seed);
    let mut naive_rng = SimRng::seed_from_u64(rng_seed);
    let mut twin = check_naive.then(|| {
        let rng = SimRng::seed_from_u64(rng_seed);
        let as_sent = (chained(machine_ads), clustered(job_ads));
        (MatchEngine::new(), rng, as_sent)
    });
    let mut naive_machines: BTreeMap<usize, ClassAd> = BTreeMap::new();
    let mut naive_jobs: BTreeMap<(usize, u32), ClassAd> = BTreeMap::new();

    let mut consumed = vec![false; machine_ads.len()];
    let mut advertised: Vec<Option<SimTime>> = vec![None; machine_ads.len()];
    let mut matches = 0u64;
    let mut naive_pairs = 0u64;
    let mut naive_pairs_measured = 0u64;
    let mut queued: Vec<u32> = Vec::new();
    let mut next_job = 0usize;
    let wave = job_ads.len().div_ceil(cycles);

    for cycle in 0..cycles {
        let now = secs(PERIOD_SECS * (cycle as u64 + 1));
        for (i, ad) in machine_ads.iter().enumerate() {
            if consumed[i] || crashed(i, cycle) {
                continue;
            }
            advertised[i] = Some(now);
            engine.insert_machine(FIRST_MACHINE + i, ad.clone(), now);
            if let Some((twin, _, (chained, _))) = &mut twin {
                twin.insert_machine(FIRST_MACHINE + i, chained[i].clone(), now);
                naive_machines.insert(FIRST_MACHINE + i, ad.clone());
            }
        }
        for _ in 0..wave {
            if next_job >= job_ads.len() {
                break;
            }
            engine.insert_job(SCHEDD, next_job as u32, job_ads[next_job].clone());
            if let Some((twin, _, (_, clustered))) = &mut twin {
                twin.insert_job(SCHEDD, next_job as u32, clustered[next_job].clone());
                naive_jobs.insert((SCHEDD, next_job as u32), job_ads[next_job].clone());
            }
            queued.push(next_job as u32);
            next_job += 1;
        }

        // The engine's expiry rule, applied to the mirror and the count.
        let live = |i: usize| !consumed[i] && advertised[i].is_some_and(|t| now - t <= AD_LIFETIME);
        naive_machines.retain(|id, _| live(id - FIRST_MACHINE));
        let live_machines = (0..machine_ads.len()).filter(|&i| live(i)).count() as u64;

        let notifications = engine.negotiate(now, &mut engine_rng);

        let matched: BTreeSet<u32> = notifications.iter().map(|&(_, j, _)| j).collect();
        let mut taken = 0u64;
        for &j in &queued {
            naive_pairs += live_machines - taken;
            if matched.contains(&j) {
                taken += 1;
            }
        }

        if let Some((twin, twin_rng, _)) = &mut twin {
            let (slow, pairs) = naive_negotiate(&naive_jobs, &naive_machines, &mut naive_rng);
            assert_eq!(
                notifications, slow,
                "the engine's assignments must be bit-identical to the naive kernel \
                 ({label} cycle={cycle})"
            );
            naive_pairs_measured += pairs;
            assert_eq!(
                (twin.negotiate(now, twin_rng), &twin.stats.pairs_evaluated),
                (slow, &engine.stats.pairs_evaluated),
                "ads held chained must negotiate as the same ads held flat \
                 ({label} cycle={cycle})"
            );
        }

        matches += notifications.len() as u64;
        for &(s, j, m) in &notifications {
            naive_jobs.remove(&(s, j));
            naive_machines.remove(&m);
            consumed[m - FIRST_MACHINE] = true;
            queued.retain(|&q| q != j);
        }
    }

    if check_naive {
        assert_eq!(
            naive_pairs_measured, naive_pairs,
            "analytic naive pair count must match the measured scan ({label})"
        );
    }

    Negotiation {
        matches,
        engine_pairs: engine.stats.pairs_evaluated,
        cache_hits: engine.stats.cache_hits,
        naive_pairs,
    }
}
