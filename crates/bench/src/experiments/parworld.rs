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
//!    across the three thread counts.
//! 2. **E11 federation differential.** The five-pool flocking federation
//!    with a starved home pool, and the partition-during-flock scenario,
//!    both sharded and run at 1, 2, and 8 threads. Byte-identical
//!    streams again — flock probes, breaker trips, and fault windows
//!    included.
//! 3. **100k-machine scaling.** Five pools of 20,000 machines each
//!    (600 in smoke), default latency raised to 50ms so the conservative
//!    window carries real work, telemetry off. Wall-clock at 1, 2, and 8
//!    threads; every arm must agree on event count, final virtual time,
//!    and delivery statistics. The ≥2x-at-8-threads gate applies when
//!    the host actually has ≥8 cores (on smaller hosts the gate is
//!    determinism, not speedup — same discipline as E8's sweep section).
//!
//! Artifacts: `BENCH_parworld.json` — a `deterministic` core (stream
//! digests and counts; two passes must serialize byte-identically) plus
//! a `scaling` section (wall-clocks, excluded from the two-pass gate).
//!
//! Run with: `cargo run --release -p bench --bin exp -- e13`
//! (pass `--smoke` for the CI-sized study).
//!
//! `exp e13 --phases` runs none of that: it takes the scaling world at the
//! ledger's `fed_scale` size through the sequential engine and prints
//! where the wall-clock goes — build, `on_start`, the first wave of
//! deliveries, steady state, drop — so that the table perf work on this
//! world is sized from is a command, not a scratch copy.

use crate::harness::{artifact, drive, Artifact, Size};
use crate::scenarios::{
    federation, partition_during_flock, scaling_federation, secs, FEDERATION_HORIZON,
    PARTITION_HORIZON,
};
use crate::{f, render_table};
use campaign::gen::deadline;
use campaign::generate;
use ckpt::fnv1a;
use desim::{ParConfig, SimTime, World};

const SHARDS: usize = 4;
const THREADS: [usize; 3] = [1, 2, 8];
const CAMPAIGN_SEEDS: [u64; 3] = [1042, 1207, 1333];

/// Everything observable from one sharded run, reduced to comparable
/// form. `stream` is the full merged JSONL (byte-compared across thread
/// counts); the rest pins the run shape.
struct Fingerprint {
    stream: String,
    events: u64,
    now_us: u64,
    dropped: u64,
}

/// Run a built world as a `ParWorld` and fingerprint the outcome.
fn par_fingerprint<M: Send + 'static>(
    world: World<M>,
    shards: usize,
    threads: usize,
    until: SimTime,
) -> Fingerprint {
    let mut pw = world.into_parallel(ParConfig::new(shards, threads));
    pw.run_until(until);
    let fin = pw.finish();
    Fingerprint {
        stream: fin.telemetry.to_jsonl(),
        events: fin.events_processed,
        now_us: fin.now.as_micros(),
        dropped: fin.net_stats.dropped_total(),
    }
}

/// Run `build`'s world at every thread count and assert the streams are
/// byte-identical; returns the reference fingerprint.
fn differential<M: Send + 'static>(
    label: &str,
    until: SimTime,
    build: impl Fn() -> World<M>,
) -> Fingerprint {
    let mut reference: Option<Fingerprint> = None;
    for threads in THREADS {
        let fp = par_fingerprint(build(), SHARDS, threads, until);
        match &reference {
            None => reference = Some(fp),
            Some(r) => {
                assert_eq!(
                    r.stream, fp.stream,
                    "{label}: merged event stream diverged at {threads} threads"
                );
                assert_eq!(
                    (r.events, r.now_us, r.dropped),
                    (fp.events, fp.now_us, fp.dropped),
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
        let shape_key = (fp.events, fp.now_us, fp.dropped);
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
            fp.dropped
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

/// `--phases`: the scaling world at the ledger's `fed_scale` size (5 x
/// 4,000 machines, 200 jobs, 100 s; a tenth of the machines in smoke),
/// run once per repetition on the sequential engine and timed phase by
/// phase. Milliseconds, median of five.
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
    // What `phase` returns, and the milliseconds it took.
    fn timed<T>(phase: impl FnOnce() -> T) -> (f64, T) {
        let t = std::time::Instant::now();
        let out = phase();
        (t.elapsed().as_secs_f64() * 1e3, out)
    }
    // Per repetition: (milliseconds, events) of each phase.
    let mut reps: Vec<[(f64, u64); 5]> = Vec::new();
    for _ in 0..REPS {
        let (build, mut world) = timed(|| scale_world(&shape));
        let on_start = timed(|| world.run_until(SimTime::ZERO));
        let first_wave = timed(|| world.run_until(FIRST_WAVE));
        let steady = timed(|| world.run_until(shape.horizon));
        assert!(first_wave.1 > 0 && steady.1 > 0, "the world must do work");
        let (dropped, ()) = timed(|| drop(world));
        reps.push([(build, 0), on_start, first_wave, steady, (dropped, 0)]);
    }
    assert!(
        reps.iter().all(|r| r.map(|p| p.1) == reps[0].map(|p| p.1)),
        "every repetition is the same run"
    );
    let names = [
        "build",
        "on_start",
        "first wave (to 60 ms)",
        "steady state",
        "drop",
    ];
    let rows: Vec<Vec<String>> = (names.iter().enumerate())
        .map(|(phase, name)| {
            let mut ms: Vec<f64> = reps.iter().map(|r| r[phase].0).collect();
            ms.sort_by(f64::total_cmp);
            let events = reps[0][phase].1;
            vec![name.to_string(), f(ms[REPS / 2], 2), events.to_string()]
        })
        .collect();
    println!(
        "E13 --phases: {} pools x {} machines, {} jobs, {} s horizon, sequential \
         engine, 50ms latency; median of {REPS}\n",
        shape.pools,
        shape.machines_per,
        shape.jobs,
        shape.horizon.as_micros() / 1_000_000
    );
    println!("{}", render_table(&["phase", "ms", "events"], &rows));
}

pub fn run(size: Size, operands: &[String]) {
    match operands {
        [] => {}
        [flag] if flag == "--phases" => return phases(size),
        other => panic!("e13 takes only --phases, got {other:?}"),
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
            fp.dropped.to_string(),
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
         \"shards\":8,\"rows\":[{}]}}",
        shape.pools,
        shape.machines_per,
        shape.jobs,
        shape.horizon.as_micros() / 1_000_000,
        row_json.join(",")
    )
}
