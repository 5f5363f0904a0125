//! The six canonical workloads.
//!
//! Each workload is a pair of functions over a seed: `setup` turns the
//! seed into a ready-to-run input (specs generated, worlds built,
//! programs assembled) and `run` drives that input through the system
//! under test and folds every deterministic output into a digest. The
//! program under test sees only the generated inputs, never the seed's
//! provenance or the workload's name.

pub mod campaign;
pub mod fed;
pub mod pool;
pub mod vm;

use crate::tracer::Tracer;
use std::collections::BTreeMap;

/// Workload names, in the order `run --all` executes them.
pub const NAMES: [&str; 6] = [
    "pool_drain",
    "fed_scale",
    "fed_scale_par",
    "campaign_sweep",
    "vm_short_jobs",
    "vm_hot_loops",
];

/// Every size constant of every workload, in one place.
///
/// Three classes exist. [`Sizes::FULL`] is the reference size: one timed
/// run takes 6–14 s on the 2-core reference host, and `ledger run` /
/// `ledger trace` report it. [`Sizes::GATE`] keeps every *shape*
/// parameter of the full size (machine counts, pool counts, program mix,
/// checkpoint cadence) and cuts the *duration* parameters (jobs,
/// horizon, campaign and program counts) so that a rep takes a second or
/// so (three for the federation, whose first negotiation cycle is a
/// fixed cost) and many fit in one of the acceptance driver's time-boxed
/// runs. [`Sizes::SMOKE`] exists for the
/// test suite only and is never reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Class name, recorded in result files.
    pub class: &'static str,
    /// `pool_drain`: healthy machines in the pool.
    pub pool_machines: usize,
    /// `pool_drain`: java jobs submitted.
    pub pool_jobs: u32,
    /// `fed_scale*`: pools in the federation.
    pub fed_pools: u64,
    /// `fed_scale*`: machines per pool.
    pub fed_machines_per_pool: usize,
    /// `fed_scale*`: jobs submitted to the home pool.
    pub fed_jobs: u32,
    /// `fed_scale*`: simulated seconds run.
    pub fed_horizon_s: u64,
    /// `campaign_sweep`: fuzzed campaigns judged.
    pub campaigns: u64,
    /// `vm_short_jobs`: generated programs run.
    pub vm_programs: u64,
    /// `vm_hot_loops`: `cpu_bound` runs and their loop bound.
    pub hot_cpu: (u32, i64),
    /// `vm_hot_loops`: `heap_sum` runs and their array length.
    pub hot_heap: (u32, i64),
    /// `vm_hot_loops`: instructions between checkpoint cuts.
    pub hot_cut_every: u64,
}

impl Sizes {
    /// The reference sizes (`ledger run`, `ledger trace`, the baseline).
    pub const FULL: Sizes = Sizes {
        class: "full",
        pool_machines: 1000,
        pool_jobs: 10_000,
        fed_pools: 5,
        fed_machines_per_pool: 4000,
        fed_jobs: 800,
        fed_horizon_s: 300,
        campaigns: 8000,
        vm_programs: 600_000,
        hot_cpu: (100, 2_000_000),
        hot_heap: (60, 200_000),
        hot_cut_every: 1_000_000,
    };

    /// The acceptance driver's sizes (`ledger gate`).
    pub const GATE: Sizes = Sizes {
        class: "gate",
        pool_jobs: 1500,
        fed_jobs: 200,
        fed_horizon_s: 100,
        campaigns: 1000,
        vm_programs: 100_000,
        hot_cpu: (14, 2_000_000),
        hot_heap: (8, 200_000),
        ..Sizes::FULL
    };

    /// Test-suite sizes. Never reported.
    pub const SMOKE: Sizes = Sizes {
        class: "smoke",
        pool_machines: 40,
        pool_jobs: 120,
        fed_pools: 3,
        fed_machines_per_pool: 60,
        fed_jobs: 30,
        fed_horizon_s: 300,
        campaigns: 24,
        vm_programs: 1500,
        hot_cpu: (2, 30_000),
        hot_heap: (2, 4_000),
        hot_cut_every: 50_000,
    };

    /// Look a size class up by name.
    pub fn by_name(name: &str) -> Option<Sizes> {
        [Sizes::FULL, Sizes::GATE, Sizes::SMOKE]
            .into_iter()
            .find(|s| s.class == name)
    }
}

/// The stride between the seed ranges of consecutive `--seed` values:
/// item `i` of a run seeded `S` uses `S * SEED_STRIDE + i`, so two runs
/// never share a generated campaign or program.
pub const SEED_STRIDE: u64 = 1_000_003;

/// The `i`-th derived seed of a run seeded `seed`.
pub fn derived_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(SEED_STRIDE).wrapping_add(i)
}

/// What one run of a workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the run's deterministic outputs.
    pub digest: u64,
    /// FNV-1a over the outputs every engine must agree on — events
    /// processed, final time (clamped to the horizon), messages dropped,
    /// events still pending — so the sequential and the parallel run of
    /// one world can be checked against each other even though per-shard
    /// random streams place jobs differently. Zero for workloads with a
    /// single engine.
    pub engine_digest: u64,
    /// Simulator events processed (0 for the VM workloads).
    pub events: u64,
    /// Jobs that reached a terminal state, or programs run.
    pub jobs: u64,
    /// Campaigns judged (`campaign_sweep` only).
    pub campaigns: u64,
    /// Bytecode instructions retired (VM workloads only).
    pub instructions: u64,
    /// Operations attempted, in the workload's own unit.
    pub attempted: u64,
    /// Operations that failed (expected scoped outcomes are not failures).
    pub failed: u64,
    /// Per-layer counters read at layer boundaries. Wall-clock derived
    /// entries (the matchmaker's cycle histogram) live here too; they
    /// stay out of the digest.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Dispatch: build the input for `name` and hand back a closure that
/// runs it. Splitting the two lets the caller time set-up and run apart.
pub fn prepare<'a>(
    name: &str,
    seed: u64,
    sizes: &'a Sizes,
    t: &'a Tracer,
) -> Option<Box<dyn FnOnce() -> Outcome + 'a>> {
    Some(match name {
        "pool_drain" => {
            let input = pool::setup(seed, sizes, t);
            Box::new(move || pool::run(input, t))
        }
        "fed_scale" => {
            let input = fed::setup(seed, sizes, t);
            Box::new(move || fed::run_seq(input, sizes, t))
        }
        "fed_scale_par" => {
            let input = fed::setup(seed, sizes, t);
            Box::new(move || fed::run_par(input, sizes, t))
        }
        "campaign_sweep" => {
            let input = campaign::setup(seed, sizes, t);
            Box::new(move || campaign::run(input, t))
        }
        "vm_short_jobs" => {
            let input = vm::setup_short(seed, sizes);
            Box::new(move || vm::run_short(&input, t))
        }
        "vm_hot_loops" => {
            let input = vm::setup_hot(seed, sizes);
            Box::new(move || vm::run_hot(&input, sizes, t))
        }
        _ => return None,
    })
}

/// The workload whose engine `name` must agree with on the same built
/// world (see [`Outcome::engine_digest`]): the parallel engine answers to
/// the sequential one.
pub fn companion(name: &str) -> Option<&'static str> {
    (name == "fed_scale_par").then_some("fed_scale")
}

/// Worker threads a workload uses: one everywhere except the parallel
/// engine, which gets `min(2, nproc)`.
pub fn threads(name: &str) -> usize {
    if name == "fed_scale_par" {
        fed::par_threads()
    } else {
        1
    }
}
