//! `exp census` — what a run's events were: deliveries per message kind.
//!
//! The three simulated worlds of the performance ledger, rebuilt here at
//! its gate size and seed 1 (its smoke size under `--smoke`) and driven as
//! it drives them, with [`desim::World::count_deliveries_by`] switched on:
//! `pool_drain`'s busy pool, `fed_scale`'s idle federation, and
//! `campaign_sweep`'s fuzzed campaigns (every 64th with its fault-free
//! reference arm). Each column sums to the workload's `desim.events`.
//! Under the sums, the traffic the event queue is shaped for: how many
//! instants each workload drained — the queue opens each as one batch —
//! and the largest batch. This is the table every change to a periodic
//! message is sized from; it writes nothing.

use crate::harness::Size;
use crate::render_table;
use crate::scenarios::{flock_policy, scale_job, scaling_federation, secs};
use campaign::gen::deadline;
use condor::prelude::*;
use condor::Msg;
use desim::SimTime;
use std::collections::BTreeMap;

type Census = BTreeMap<&'static str, u64>;

/// Instants drained and the largest batch, as [`desim::World::batches`].
type Batches = (u64, usize);

/// One workload's column: its deliveries by kind, and its batches.
type Column = (Census, Batches);

/// The ledger's seed, and the stride between the campaigns it derives.
const SEED: u64 = 1;
const SEED_STRIDE: u64 = 1_000_003;
/// Every 64th campaign also runs its reference arm, as in the ledger.
const REFERENCE_EVERY: u64 = 64;

/// Build and drain a pool the way `PoolBuilder::run` and the ledger do —
/// in 30-s slices until every job is terminal or `deadline` passes — and
/// return its census.
fn drain_counting(builder: PoolBuilder, deadline: SimTime) -> Column {
    let layout = builder.layout();
    let (mut world, _, _) = builder.build();
    world.count_deliveries_by(Msg::kind);
    layout.drain(&mut world, deadline);
    assert_eq!(
        world.census().values().sum::<u64>(),
        world.events_processed()
    );
    (world.census(), world.batches())
}

fn pool_drain(machines: usize, jobs: u32) -> Column {
    let builder = PoolBuilder::new(SEED)
        .machines((0..machines).map(|i| MachineSpec::healthy(&format!("m{i}"), 256)))
        .jobs((1..=jobs).map(scale_job))
        .schedd_policy(flock_policy());
    drain_counting(builder, secs(48 * 3600))
}

fn fed_scale(pools: u64, machines_per: usize, jobs: u32, horizon: SimTime) -> Column {
    let mut world = scaling_federation(SEED, pools, machines_per, jobs);
    world.count_deliveries_by(Msg::kind);
    world.run_until(horizon);
    (world.census(), world.batches())
}

fn campaign_sweep(campaigns: u64) -> Column {
    let (mut total, mut batches) = (Census::new(), (0, 0));
    for i in 0..campaigns {
        let campaign = campaign::generate(SEED * SEED_STRIDE + i);
        let arms: &[bool] = if i % REFERENCE_EVERY == 0 {
            &[true, false]
        } else {
            &[true]
        };
        for &faulty in arms {
            let (census, run) = drain_counting(campaign.build_pool(faulty), deadline());
            for (kind, n) in census {
                *total.entry(kind).or_default() += n;
            }
            batches = (batches.0 + run.0, batches.1.max(run.1));
        }
    }
    (total, batches)
}

pub fn run(size: Size) {
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
        .flat_map(|(_, (c, _))| c.keys().copied())
        .collect();
    let cell = |census: &Census, kind: &str| census.get(kind).map_or("-".into(), u64::to_string);
    let mut rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|kind| {
            let mut row = vec![kind.to_string()];
            row.extend(columns.iter().map(|(_, (census, _))| cell(census, kind)));
            row
        })
        .collect();
    for (i, name) in ["all", "instants", "largest batch"].into_iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(columns.iter().map(|(_, (census, (instants, largest)))| {
            [census.values().sum(), *instants, *largest as u64][i].to_string()
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
}
