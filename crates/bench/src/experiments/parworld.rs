//! Experiment E13 — intra-world parallel simulation: sharded actors,
//! conservative time windows, bit-identical multi-core single-world runs.
//!
//! E8 already scales *across* seeds (independent worlds fanned over a
//! pool). This experiment gates the other axis: one world, its actors
//! sharded, simulated time advanced in conservative windows no wider
//! than the network's minimum latency, cross-shard deliveries merged at
//! the window barrier in canonical `(time, source, seq)` order
//! ([`desim::ParWorld`]). The contract under test: **thread count is
//! invisible in the output** — only in the wall-clock.
//!
//! Three sections, each gated:
//!
//! 1. **E12 campaign differential.** Three fault campaigns (rogue
//!    machines, partitions, latency spikes, bit-flips) and one fault-free
//!    reference, each run as a sharded world at 1, 2, and 8 threads.
//!    Every arm's merged telemetry stream must be **byte-identical**
//!    across the three thread counts, and so must its census of
//!    deliveries by message kind, which sums to the arm's event count.
//! 2. **E11 federation differential.** The five-pool flocking federation
//!    with a starved home pool, and the partition-during-flock scenario,
//!    both sharded and run at 1, 2, and 8 threads. Byte-identical
//!    streams and censuses again — flock probes, breaker trips, and fault
//!    windows included.
//! 3. **100k-machine scaling.** Five pools of 20,000 machines each
//!    (600 in smoke), default latency raised to 50ms so the conservative
//!    window carries real work, telemetry off. Wall-clock at 1, 2, and 8
//!    threads; every arm must agree on event count, final virtual time,
//!    and delivery statistics. The ≥2x-at-8-threads gate applies when
//!    the host actually has ≥8 cores (on smaller hosts the gate is
//!    determinism, not speedup — same discipline as E8's sweep section).
//!    The process's peak resident set (`VmHWM`) is read after the three
//!    arms: the scaling world is the largest thing it builds.
//!
//! Artifacts: `BENCH_parworld.json` — a `deterministic` core (stream
//! digests and counts; two passes must serialize byte-identically) plus
//! a `scaling` section (wall-clocks and peak resident set, excluded from
//! the two-pass gate; `peak_rss_mb` is `null` off Linux).
//!
//! Run with: `cargo run --release -p bench --bin exp -- e13`
//! (pass `--smoke` for the CI-sized study).
//!
//! `exp e13 --phases` runs none of that: it takes the scaling world at the
//! ledger's `fed_scale` size through the sequential engine and prints
//! where the wall-clock goes — build, `on_start`, the first wave of
//! deliveries, steady state, drop — so that the table perf work on this
//! world is sized from is a command, not a scratch copy.

use crate::harness::{artifact, drive, peak_rss_mb, Artifact, Size};
use crate::scenarios::{
    federation, partition_during_flock, scaling_federation, secs, FEDERATION_HORIZON,
    PARTITION_HORIZON,
};
use crate::{f, render_table};
use campaign::gen::deadline;
use campaign::generate;
use ckpt::fnv1a;
use condor::Msg;
use desim::{NetStats, ParConfig, ParStats, SimTime, World};
use std::collections::BTreeMap;

const SHARDS: usize = 4;
const THREADS: [usize; 3] = [1, 2, 8];
const CAMPAIGN_SEEDS: [u64; 3] = [1042, 1207, 1333];

/// Everything observable from one sharded run, reduced to comparable
/// form. `stream` is the full merged JSONL (byte-compared across thread
/// counts); the rest pins the run shape.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    stream: String,
    events: u64,
    now_us: u64,
    net: NetStats,
    census: BTreeMap<&'static str, u64>,
}

/// Run a built world as a `ParWorld` and fingerprint the outcome.
fn par_fingerprint(
    world: World<Msg>,
    shards: usize,
    threads: usize,
    until: SimTime,
) -> Fingerprint {
    let mut pw = world.into_parallel(ParConfig::new(shards, threads));
    pw.run_until(until);
    let fin = pw.finish();
    Fingerprint {
        stream: fin.telemetry.to_jsonl_with_meta(),
        events: fin.events_processed,
        now_us: fin.now.as_micros(),
        net: fin.net_stats,
        census: fin.census,
    }
}

/// Run `build`'s world at every thread count, deliveries counted by
/// kind, and assert the streams and censuses are identical; returns the
/// reference fingerprint.
fn differential(label: &str, until: SimTime, build: impl Fn() -> World<Msg>) -> Fingerprint {
    let mut reference: Option<Fingerprint> = None;
    for threads in THREADS {
        let mut world = build();
        world.count_deliveries_by(Msg::kind);
        let fp = par_fingerprint(world, SHARDS, threads, until);
        assert_eq!(
            fp.census.values().sum::<u64>(),
            fp.events,
            "{label}: the census must count every delivery"
        );
        match &reference {
            None => reference = Some(fp),
            Some(r) => {
                assert_eq!(
                    r.stream, fp.stream,
                    "{label}: merged event stream diverged at {threads} threads"
                );
                assert_eq!(
                    (r.events, r.now_us, &r.net, &r.census),
                    (fp.events, fp.now_us, &fp.net, &fp.census),
                    "{label}: run shape diverged at {threads} threads"
                );
            }
        }
    }
    reference.expect("at least one arm ran")
}

// ---------------------------------------------------------------------
// Section 1: E12 campaign workloads
// ---------------------------------------------------------------------

/// One campaign differential row: the faulty arm and its fault-free
/// reference, both thread-invariant.
struct CampaignRow {
    seed: u64,
    faulty: Fingerprint,
    reference: Fingerprint,
}

fn campaign_differentials() -> Vec<CampaignRow> {
    CAMPAIGN_SEEDS
        .iter()
        .map(|&seed| {
            let faulty = differential(&format!("campaign {seed} (faulty)"), deadline(), || {
                generate(seed).build_pool(true).build().0
            });
            let reference =
                differential(&format!("campaign {seed} (reference)"), deadline(), || {
                    generate(seed).build_pool(false).build().0
                });
            assert!(
                faulty.events > 0 && reference.events > 0,
                "campaign {seed}: both arms must do work"
            );
            CampaignRow {
                seed,
                faulty,
                reference,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Section 3: the 100k-machine scaling world
// ---------------------------------------------------------------------

struct ScaleShape {
    pools: u64,
    machines_per: usize,
    jobs: u32,
    horizon: SimTime,
}

fn scale_world(shape: &ScaleShape) -> World<condor::Msg> {
    scaling_federation(51, shape.pools, shape.machines_per, shape.jobs)
}

struct ScaleRow {
    threads: usize,
    secs: f64,
    events: u64,
}

fn scale_study(shape: &ScaleShape) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    let mut reference: Option<(u64, u64, u64)> = None;
    for threads in THREADS {
        let world = scale_world(shape);
        let wall = std::time::Instant::now();
        let fp = par_fingerprint(world, 8, threads, shape.horizon);
        let secs = wall.elapsed().as_secs_f64();
        assert!(fp.events > 0, "the scaling world must do work");
        let shape_key = (fp.events, fp.now_us, fp.net.dropped_total());
        match &reference {
            None => reference = Some(shape_key),
            Some(r) => assert_eq!(*r, shape_key, "scaling world diverged at {threads} threads"),
        }
        rows.push(ScaleRow {
            threads,
            secs,
            events: fp.events,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// The deterministic core and its export
// ---------------------------------------------------------------------

struct Pass {
    campaigns: Vec<CampaignRow>,
    federation: Fingerprint,
    partition: Fingerprint,
}

/// Sections 1 + 2: the determinism differentials, each workload's spans
/// numbered from 1, reduced to the deterministic core.
fn pass(_: Size) -> (Pass, Vec<Artifact>) {
    let campaigns = campaign_differentials();
    obs::reset_span_ids(0);
    let federation = differential("federation", FEDERATION_HORIZON, || federation().build().0);
    obs::reset_span_ids(0);
    let partition = differential("partition-during-flock", PARTITION_HORIZON, || {
        partition_during_flock().build().0
    });
    let pass = Pass {
        campaigns,
        federation,
        partition,
    };
    let core = deterministic_core(&pass);
    (pass, vec![artifact("BENCH_parworld.json", core)])
}

/// The deterministic core: digests and counts only, no wall-clock. Two
/// passes must serialize byte-identically.
fn deterministic_core(pass: &Pass) -> String {
    let fp_json = |fp: &Fingerprint| {
        format!(
            "{{\"digest\":\"{:016x}\",\"bytes\":{},\"events\":{},\"now_us\":{},\"dropped\":{}}}",
            fnv1a(fp.stream.as_bytes()),
            fp.stream.len(),
            fp.events,
            fp.now_us,
            fp.net.dropped_total()
        )
    };
    let rows: Vec<String> = pass
        .campaigns
        .iter()
        .map(|r| {
            format!(
                "{{\"seed\":{},\"faulty\":{},\"reference\":{}}}",
                r.seed,
                fp_json(&r.faulty),
                fp_json(&r.reference)
            )
        })
        .collect();
    format!(
        "{{\"shards\":{SHARDS},\"threads\":[1,2,8],\"campaigns\":[{}],\
         \"federation\":{},\"partition\":{}}}",
        rows.join(","),
        fp_json(&pass.federation),
        fp_json(&pass.partition)
    )
}

/// What `phase` returns, and the milliseconds it took.
fn timed<T>(phase: impl FnOnce() -> T) -> (f64, T) {
    let t = std::time::Instant::now();
    let out = phase();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// The median of `ms`.
fn median(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// Threads of `--phases`' and `--crossover`'s sharded runs: the ledger's
/// `fed_scale_par` runs `min(2, nproc)`.
const PAR_THREADS: usize = 2;

/// `--phases`: the scaling world at the ledger's `fed_scale` size (5 x
/// 4,000 machines, 200 jobs, 100 s; a tenth of the machines in smoke),
/// run once per repetition on the sequential engine and once on the
/// sharded one (8 shards, 2 threads, as `fed_scale_par`), timed phase by
/// phase, and then where the sharded run's time went: each thread's
/// draining, the driving thread's wait for the helper, the serial barrier,
/// and the keys each engine's queues sorted when an instant opened out of
/// order. Milliseconds, median of five.
fn phases(size: Size) {
    const REPS: usize = 5;
    /// The first advertisements land one 50 ms hop after start-up.
    const FIRST_WAVE: SimTime = SimTime::from_millis(60);
    let shape = ScaleShape {
        pools: 5,
        machines_per: size.pick(400, 4_000),
        jobs: size.pick(20, 200),
        horizon: secs(100),
    };
    // Per repetition: (milliseconds, events) of each phase, both engines.
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let mut stats: Vec<ParStats> = Vec::new();
    let mut seq_sorted = 0;
    for _ in 0..REPS {
        let (build, mut world) = timed(|| scale_world(&shape));
        let on_start = timed(|| world.run_until(SimTime::ZERO));
        let first_wave = timed(|| world.run_until(FIRST_WAVE));
        let steady = timed(|| world.run_until(shape.horizon));
        assert!(first_wave.1 > 0 && steady.1 > 0, "the world must do work");
        seq_sorted = world.sorted_keys();
        let (dropped, ()) = timed(|| drop(world));
        seq.push(vec![(build, 0), on_start, first_wave, steady, (dropped, 0)]);

        let (build, world) = timed(|| scale_world(&shape));
        let (convert, mut pw) = timed(|| world.into_parallel(ParConfig::new(8, PAR_THREADS)));
        let on_start = timed(|| pw.run_until(SimTime::ZERO));
        let first_wave = timed(|| pw.run_until(FIRST_WAVE));
        let steady = timed(|| pw.run_until(shape.horizon));
        stats.push(pw.stats());
        let (finish, fin) = timed(|| pw.finish());
        let (dropped, ()) = timed(|| drop(fin));
        par.push(vec![
            (build, 0),
            (convert, 0),
            on_start,
            first_wave,
            steady,
            (finish, 0),
            (dropped, 0),
        ]);
    }
    let events = |rep: &[(f64, u64)]| rep.iter().map(|p| p.1).collect::<Vec<_>>();
    let same_run = |reps: &[Vec<(f64, u64)>]| reps.iter().all(|r| events(r) == events(&reps[0]));
    assert!(
        same_run(&seq) && same_run(&par),
        "every repetition is the same run"
    );
    assert_eq!(
        events(&seq[0]).iter().sum::<u64>(),
        events(&par[0]).iter().sum::<u64>(),
        "both engines run the same events"
    );
    let phase_rows = |names: &[&str], reps: &[Vec<(f64, u64)>]| -> Vec<Vec<String>> {
        (names.iter().enumerate())
            .map(|(phase, name)| {
                let ms = reps.iter().map(|r| r[phase].0).collect();
                vec![
                    name.to_string(),
                    f(median(ms), 2),
                    reps[0][phase].1.to_string(),
                ]
            })
            .collect()
    };
    println!(
        "E13 --phases: {} pools x {} machines, {} jobs, {} s horizon, 50ms latency; \
         median of {REPS}\n",
        shape.pools,
        shape.machines_per,
        shape.jobs,
        shape.horizon.as_micros() / 1_000_000
    );
    println!("sequential engine:");
    let names = [
        "build",
        "on_start",
        "first wave (to 60 ms)",
        "steady state",
        "drop",
    ];
    let rows = phase_rows(&names, &seq);
    println!("{}", render_table(&["phase", "ms", "events"], &rows));
    println!("sharded engine, 8 shards, {PAR_THREADS} threads:");
    let names = [
        "build",
        "into_parallel",
        "on_start",
        "first wave (to 60 ms)",
        "steady state",
        "finish",
        "drop",
    ];
    let rows = phase_rows(&names, &par);
    println!("{}", render_table(&["phase", "ms", "events"], &rows));

    let ms = |d: fn(&ParStats) -> std::time::Duration| {
        f(
            median(stats.iter().map(|s| d(s).as_secs_f64() * 1e3).collect()),
            2,
        )
    };
    let first = &stats[0];
    println!(
        "where the sharded run's time went ({} windows, {} deliveries crossed shards):",
        first.windows, first.crossings
    );
    let rows = vec![
        vec!["drain, driving thread".into(), ms(|s| s.drain_driver)],
        vec!["drain, helper".into(), ms(|s| s.drain_helpers)],
        vec!["wait for the helper".into(), ms(|s| s.wait)],
        vec!["barrier".into(), ms(|s| s.barrier)],
    ];
    println!("{}", render_table(&["where", "ms"], &rows));
    let mut rows: Vec<Vec<String>> = (first.events.iter().zip(&first.sorted_keys))
        .enumerate()
        .map(|(s, (events, sorted))| vec![s.to_string(), events.to_string(), sorted.to_string()])
        .collect();
    rows.push(vec![
        "all".into(),
        first.events.iter().sum::<u64>().to_string(),
        first.sorted_keys.iter().sum::<u64>().to_string(),
    ]);
    rows.push(vec![
        "sequential".into(),
        events(&seq[0]).iter().sum::<u64>().to_string(),
        seq_sorted.to_string(),
    ]);
    println!(
        "{}",
        render_table(&["shard", "events", "keys sorted at batch opening"], &rows)
    );
}

/// `--crossover`: where the sharded engine starts to pay. E13's scaling
/// world (5 pools, a job per ten machines, 300 s) at 4,000, 8,000 and
/// 20,000 machines a pool (400 and 800 in smoke), each run on the
/// sequential engine and on 8 shards at 2 threads, alternately; the run
/// alone is timed (`run_until`, and for the sharded engine
/// `into_parallel` and `finish` too). Seconds, median of three.
fn crossover(size: Size) {
    const REPS: usize = 3;
    println!(
        "E13 --crossover: sequential against 8 shards at {PAR_THREADS} threads, \
         5 pools, 300 s, 50ms latency; run seconds, median of {REPS}\n"
    );
    let mut rows = Vec::new();
    for machines_per in size.pick([400, 800, 2_000], [4_000, 8_000, 20_000]) {
        let shape = ScaleShape {
            pools: 5,
            machines_per,
            jobs: machines_per as u32 / 10,
            horizon: secs(300),
        };
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        let mut events = (0, 0);
        for _ in 0..REPS {
            let mut world = scale_world(&shape);
            let (ms, n) = timed(|| world.run_until(shape.horizon));
            seq.push(ms / 1e3);
            events.0 = n;
            drop(world);
            let world = scale_world(&shape);
            let (ms, fin) = timed(|| {
                let mut pw = world.into_parallel(ParConfig::new(8, PAR_THREADS));
                pw.run_until(shape.horizon);
                pw.finish()
            });
            par.push(ms / 1e3);
            events.1 = fin.events_processed;
        }
        assert_eq!(events.0, events.1, "both engines run the same events");
        let (seq, par) = (median(seq), median(par));
        rows.push(vec![
            machines_per.to_string(),
            events.0.to_string(),
            f(seq, 3),
            f(par, 3),
            format!("{:.2}x", seq / par),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "machines a pool",
                "events",
                "sequential (s)",
                "sharded (s)",
                "speed-up"
            ],
            &rows
        )
    );
}

pub fn run(size: Size, operands: &[String]) {
    match operands {
        [] => {}
        [flag] if flag == "--phases" => return phases(size),
        [flag] if flag == "--crossover" => return crossover(size),
        other => panic!("e13 takes only --phases or --crossover, got {other:?}"),
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shape = size.pick(
        ScaleShape {
            pools: 5,
            machines_per: 600,
            jobs: 120,
            horizon: secs(300),
        },
        ScaleShape {
            pools: 5,
            machines_per: 20_000,
            jobs: 2_000,
            horizon: secs(600),
        },
    );

    println!(
        "E13: intra-world parallel simulation — {SHARDS}-shard worlds at 1/2/8\n\
         threads must be bit-identical; {}x{} machine scaling world ({} core(s))\n",
        shape.pools, shape.machines_per, cores
    );

    drive(size, pass, |pass, files| {
        report(&pass);
        // Section 3, wall-clock: run once, after the two-pass comparison,
        // and spliced in beside the deterministic core.
        let scaling = scaling_section(size, &shape, cores);
        files[0].body = format!(
            "{{\"deterministic\":{},\"cores_available\":{cores},\"scaling\":{scaling}}}",
            files[0].body
        );
    });
}

fn report(pass: &Pass) {
    let row = |label: String, fp: &Fingerprint| {
        vec![
            label,
            fp.events.to_string(),
            fp.stream.len().to_string(),
            fp.net.dropped_total().to_string(),
        ]
    };
    println!(
        "{}",
        render_table(
            &["workload", "events", "stream bytes", "dropped"],
            &pass
                .campaigns
                .iter()
                .flat_map(|r| {
                    [
                        row(format!("campaign {} faulty", r.seed), &r.faulty),
                        row(format!("campaign {} reference", r.seed), &r.reference),
                    ]
                })
                .chain([
                    row("federation".to_string(), &pass.federation),
                    row("partition-during-flock".to_string(), &pass.partition),
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "differentials: every workload byte-identical at 1/2/8 threads \
         ({} campaign arms + 2 federation scenarios)\n",
        pass.campaigns.len() * 2
    );
}

/// Run the scaling world, print and gate it, and return its JSON section.
fn scaling_section(size: Size, shape: &ScaleShape, cores: usize) -> String {
    let rows = scale_study(shape);
    let base = rows[0].secs;
    println!(
        "scaling: {} pools x {} machines, {} jobs, {}s horizon, 8 shards, \
         50ms lookahead",
        shape.pools,
        shape.machines_per,
        shape.jobs,
        shape.horizon.as_micros() / 1_000_000
    );
    println!(
        "{}",
        render_table(
            &["threads", "events", "wall-clock (s)", "speedup"],
            &rows
                .iter()
                .map(|r| vec![
                    r.threads.to_string(),
                    r.events.to_string(),
                    f(r.secs, 3),
                    format!("{:.2}x", base / r.secs),
                ])
                .collect::<Vec<_>>(),
        )
    );
    // The scaling world is the biggest thing this process builds, so the
    // process's high-water mark is its footprint.
    let peak_rss = peak_rss_mb();
    match peak_rss {
        Some(mb) => println!("peak resident set (VmHWM, whole process): {mb:.1} MB"),
        None => println!("peak resident set: not available on this platform"),
    }
    let at8 = rows.iter().find(|r| r.threads == 8).expect("8-thread arm");
    let speedup = base / at8.secs;
    if cores >= 8 && size == Size::Full {
        assert!(
            speedup >= 2.0,
            "with {cores} cores the 8-thread arm must be >=2x the 1-thread arm \
             (got {speedup:.2}x)"
        );
        println!("scaling gate: {speedup:.2}x at 8 threads (>=2x required)");
    } else {
        println!(
            "(host has {cores} core(s){}: wall-clock parity across thread counts \
             is the expected result here; the gate is determinism, not speedup)",
            size.pick(", smoke mode", "")
        );
    }

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"threads\":{},\"events\":{},\"wall_clock_secs\":{:.6},\"speedup\":{:.3}}}",
                r.threads,
                r.events,
                r.secs,
                base / r.secs
            )
        })
        .collect();
    format!(
        "{{\"pools\":{},\"machines_per_pool\":{},\"jobs\":{},\"horizon_secs\":{},\
         \"shards\":8,\"rows\":[{}],\"peak_rss_mb\":{}}}",
        shape.pools,
        shape.machines_per,
        shape.jobs,
        shape.horizon.as_micros() / 1_000_000,
        row_json.join(","),
        peak_rss.map_or("null".to_string(), |mb| format!("{mb:.1}"))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An E12 campaign whose faults spike one machine's latency and then
    /// partition it: the fault driver mutates the network mid-run.
    const NETWORK_FAULT_CAMPAIGN: u64 = 1092;

    /// `World::run_until` and a one-shard `ParWorld` at one and two threads
    /// are one run: stream, events, clock, delivery statistics and census.
    /// Returns the messages the network dropped.
    fn assert_one_shard_case(until: SimTime, build: impl Fn() -> World<Msg>) -> u64 {
        let counted = || {
            obs::reset_span_ids(0);
            let mut world = build();
            world.count_deliveries_by(Msg::kind);
            world
        };
        let mut world = counted();
        world.run_until(until);
        let want = Fingerprint {
            stream: world.telemetry().to_jsonl_with_meta(),
            events: world.events_processed(),
            now_us: world.now().as_micros(),
            net: world.net().stats().clone(),
            census: world.census(),
        };
        for threads in [1, 2] {
            let got = par_fingerprint(counted(), 1, threads, until);
            assert_eq!(got, want, "{threads} thread(s)");
        }
        want.net.dropped_total()
    }

    #[test]
    fn world_is_the_one_shard_case() {
        assert_one_shard_case(FEDERATION_HORIZON, || federation().build().0);
        let campaign = generate(NETWORK_FAULT_CAMPAIGN);
        assert!(campaign.describe().contains("net partition"));
        let dropped = assert_one_shard_case(deadline(), || campaign.build_pool(true).build().0);
        assert!(dropped > 0, "the partition must cut something");
    }

    /// E13's four-shard differentials count deliveries by kind alike at 1,
    /// 2 and 8 threads, and count every event: `differential` asserts both.
    #[test]
    fn the_census_counts_the_sharded_engine_at_every_thread_count() {
        differential("federation", FEDERATION_HORIZON, || federation().build().0);
        differential("partition-during-flock", PARTITION_HORIZON, || {
            partition_during_flock().build().0
        });
    }
}
