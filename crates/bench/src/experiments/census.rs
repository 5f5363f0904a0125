//! `exp census` — what a run's events were: deliveries per message kind.
//!
//! The three simulated worlds of the performance ledger, rebuilt here at
//! its gate size and seed 1 (its smoke size under `--smoke`) and driven as
//! it drives them, with [`desim::World::count_deliveries_by`] switched on:
//! `pool_drain`'s busy pool, `fed_scale`'s idle federation, and
//! `campaign_sweep`'s fuzzed campaigns (every 64th with its fault-free
//! reference arm). Each column sums to the workload's `desim.events`.
//! Under the sums, the deliveries the engine dropped unhandled because
//! their recipient was down, or were timers its crash forgot
//! ([`desim::World::dropped_down`]), and the traffic the event queue is
//! shaped for: how many
//! instants each workload drained — the queue opens each as one batch —
//! and the largest batch. This is the table every change to a periodic
//! message is sized from; it writes nothing.
//!
//! `exp census --cost` adds where the handlers' time went: every 64th
//! delivery's handler is timed ([`desim::World::census_cost`]), by kind,
//! in milliseconds and as a share of the runs' wall-clock. One more row
//! holds the rest of that wall-clock, "outside handlers": the engine's own
//! queue, dispatch and network, and the estimate's sampling error. Every
//! column then sums to its run. Beside them: the wall-clock itself and, for
//! `pool_drain`, the time to snapshot its registry (the ledger's
//! `obs.registry_s`). The timing reads the clock only, so the runs are the
//! uncounted ones.

use crate::harness::Size;
use crate::render_table;
use crate::scenarios::{flock_policy, scale_job, scaling_federation, secs};
use campaign::gen::deadline;
use condor::prelude::*;
use condor::Msg;
use desim::{SimTime, World};
use std::collections::BTreeMap;
use std::time::Instant;

type Census = BTreeMap<&'static str, u64>;

/// One workload's column.
#[derive(Default)]
struct Column {
    /// Deliveries by kind.
    census: Census,
    /// Estimated handler nanoseconds by kind ([`World::census_cost`]).
    cost: Census,
    /// Deliveries dropped while down, as [`World::dropped_down`].
    dropped_down: u64,
    /// Instants drained, and the largest batch, as [`World::batches`].
    instants: u64,
    largest: usize,
    /// Wall-clock milliseconds of the runs themselves.
    run_ms: f64,
    /// `pool_drain` only: milliseconds to snapshot its registry, the
    /// ledger's `obs.registry_s`.
    registry_ms: Option<f64>,
}

impl Column {
    /// Fold one drained world into the column.
    fn add(&mut self, world: &World<Msg>, run_ms: f64) {
        assert_eq!(
            world.census().values().sum::<u64>(),
            world.events_processed()
        );
        for (kind, n) in world.census() {
            *self.census.entry(kind).or_default() += n;
        }
        for (kind, ns) in world.census_cost() {
            *self.cost.entry(kind).or_default() += ns;
        }
        self.dropped_down += world.dropped_down();
        let (instants, largest) = world.batches();
        self.instants += instants;
        self.largest = self.largest.max(largest);
        self.run_ms += run_ms;
    }
}

/// The ledger's seed, and the stride between the campaigns it derives.
const SEED: u64 = 1;
const SEED_STRIDE: u64 = 1_000_003;
/// Every 64th campaign also runs its reference arm, as in the ledger.
const REFERENCE_EVERY: u64 = 64;

/// Build and drain a pool the way `PoolBuilder::run` and the ledger do —
/// in 30-s slices until every job is terminal or `deadline` passes —
/// counting its deliveries into `column`; returns the drained world.
fn drain_counting(builder: PoolBuilder, deadline: SimTime, column: &mut Column) -> World<Msg> {
    let layout = builder.layout();
    let (mut world, _, _) = builder.build();
    world.count_deliveries_by(Msg::kind);
    let clock = Instant::now();
    layout.drain(&mut world, deadline);
    column.add(&world, clock.elapsed().as_secs_f64() * 1e3);
    world
}

fn pool_drain(machines: usize, jobs: u32) -> Column {
    let builder = PoolBuilder::new(SEED)
        .machines((0..machines).map(|i| MachineSpec::healthy(&format!("m{i}"), 256)))
        .jobs((1..=jobs).map(scale_job))
        .schedd_policy(flock_policy());
    let layout = builder.layout();
    let mut column = Column::default();
    let world = drain_counting(builder, secs(48 * 3600), &mut column);
    let report = layout.report(&world);
    let clock = Instant::now();
    let snapshot = report.registry().snapshot_json();
    column.registry_ms = Some(clock.elapsed().as_secs_f64() * 1e3);
    assert!(!snapshot.is_empty());
    column
}

fn fed_scale(pools: u64, machines_per: usize, jobs: u32, horizon: SimTime) -> Column {
    let mut world = scaling_federation(SEED, pools, machines_per, jobs);
    world.count_deliveries_by(Msg::kind);
    let clock = Instant::now();
    world.run_until(horizon);
    let mut column = Column::default();
    column.add(&world, clock.elapsed().as_secs_f64() * 1e3);
    column
}

fn campaign_sweep(campaigns: u64) -> Column {
    let mut column = Column::default();
    for i in 0..campaigns {
        let campaign = campaign::generate(SEED * SEED_STRIDE + i);
        let arms: &[bool] = if i % REFERENCE_EVERY == 0 {
            &[true, false]
        } else {
            &[true]
        };
        for &faulty in arms {
            drain_counting(campaign.build_pool(faulty), deadline(), &mut column);
        }
    }
    column
}

/// `exp census [--cost]`: the deliveries table, and with `--cost` the
/// handler time by kind beside it.
pub fn run(size: Size, cost: bool) {
    let columns = [
        (
            "pool_drain",
            pool_drain(size.pick(40, 1000), size.pick(120, 1500)),
        ),
        (
            "fed_scale",
            fed_scale(
                size.pick(3, 5),
                size.pick(60, 4000),
                size.pick(30, 200),
                secs(size.pick(300, 100)),
            ),
        ),
        ("campaign_sweep", campaign_sweep(size.pick(24, 1000))),
    ];
    let kinds: std::collections::BTreeSet<&str> = (columns.iter())
        .flat_map(|(_, c)| c.census.keys().copied())
        .collect();
    let cell = |census: &Census, kind: &str| census.get(kind).map_or("-".into(), u64::to_string);
    let mut rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|kind| {
            let mut row = vec![kind.to_string()];
            row.extend(columns.iter().map(|(_, c)| cell(&c.census, kind)));
            row
        })
        .collect();
    let sums = ["all", "dropped while down", "instants", "largest batch"];
    for (i, name) in sums.into_iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(columns.iter().map(|(_, c)| {
            let all = c.census.values().sum();
            [all, c.dropped_down, c.instants, c.largest as u64][i].to_string()
        }));
        rows.push(row);
    }
    let mut header = vec!["deliveries"];
    header.extend(columns.iter().map(|(name, _)| *name));
    println!(
        "Deliveries by message kind, seed {SEED}, the ledger's {} size:\n",
        size.pick("smoke", "gate")
    );
    print!("{}", render_table(&header, &rows));
    if cost {
        print_cost(&columns, &kinds);
    }
}

/// The cost table: estimated handler milliseconds by kind, per workload,
/// and the rest of the run outside them, each with its share of the
/// wall-clock of the runs themselves.
fn print_cost(columns: &[(&str, Column)], kinds: &std::collections::BTreeSet<&str>) {
    let handlers_ms = |c: &Column| c.cost.values().sum::<u64>() as f64 / 1e6;
    let share = |c: &Column, ms: f64| format!("{ms:.1} ({:.0} %)", 100.0 * ms / c.run_ms);
    let cell = |c: &Column, kind: &str| match c.cost.get(kind) {
        Some(&ns) if c.run_ms > 0.0 => share(c, ns as f64 / 1e6),
        _ => "-".into(),
    };
    let mut rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|kind| {
            let mut row = vec![kind.to_string()];
            row.extend(columns.iter().map(|(_, c)| cell(c, kind)));
            row
        })
        .collect();
    let mut outside = vec!["outside handlers".to_string()];
    outside.extend((columns.iter()).map(|(_, c)| share(c, c.run_ms - handlers_ms(c))));
    let mut total = vec!["all handlers".to_string()];
    total.extend((columns.iter()).map(|(_, c)| format!("{:.1}", handlers_ms(c))));
    let mut run = vec!["run (wall-clock)".to_string()];
    run.extend(columns.iter().map(|(_, c)| format!("{:.1}", c.run_ms)));
    let mut registry = vec!["registry snapshot".to_string()];
    registry.extend(
        (columns.iter()).map(|(_, c)| c.registry_ms.map_or("-".into(), |ms| format!("{ms:.1}"))),
    );
    rows.extend([outside, total, run, registry]);
    let mut header = vec!["handler ms (share)"];
    header.extend(columns.iter().map(|(name, _)| *name));
    println!(
        "\nHandler time by message kind, ms (share of the run): every 64th delivery \
         timed, counted 64 times (a job's VM runs inside its handler); one run, so \
         milliseconds are noisy:\n"
    );
    print!("{}", render_table(&header, &rows));
}
