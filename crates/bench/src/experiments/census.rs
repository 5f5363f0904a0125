//! `exp census` — what a run's events were: deliveries per message kind.
//!
//! The three simulated worlds of the performance ledger, rebuilt here at
//! its gate size and seed 1 (its smoke size under `--smoke`) and driven as
//! it drives them, with [`desim::World::count_deliveries_by`] switched on:
//! `pool_drain`'s busy pool, `fed_scale`'s idle federation, and
//! `campaign_sweep`'s fuzzed campaigns (every 64th with its fault-free
//! reference arm). Each column sums to the workload's `desim.events`. This
//! is the table every change to a periodic message is sized from; it
//! writes nothing.

use crate::harness::Size;
use crate::render_table;
use crate::scenarios::{flock_policy, scale_job, scaling_federation, secs};
use campaign::gen::deadline;
use condor::prelude::*;
use condor::{Msg, Schedd};
use desim::{SimDuration, SimTime, World};
use std::collections::BTreeMap;

type Census = BTreeMap<&'static str, u64>;

/// The ledger's seed, and the stride between the campaigns it derives.
const SEED: u64 = 1;
const SEED_STRIDE: u64 = 1_000_003;
/// Every 64th campaign also runs its reference arm, as in the ledger.
const REFERENCE_EVERY: u64 = 64;

/// Run a built pool the way `PoolBuilder::run` and the ledger do — in
/// 30-s slices until every job is terminal or `deadline` passes — and
/// return its census.
fn drain(built: (World<Msg>, usize, Vec<usize>), deadline: SimTime) -> Census {
    let (mut world, schedd, _) = built;
    world.count_deliveries_by(Msg::kind);
    let mut now = SimTime::ZERO;
    loop {
        now = (now + SimDuration::from_secs(30)).min(deadline);
        world.run_until(now);
        if world.get::<Schedd>(schedd).expect("schedd").all_done() || now >= deadline {
            break;
        }
    }
    assert_eq!(
        world.census().values().sum::<u64>(),
        world.events_processed()
    );
    world.census()
}

fn pool_drain(machines: usize, jobs: u32) -> Census {
    let builder = PoolBuilder::new(SEED)
        .machines((0..machines).map(|i| MachineSpec::healthy(&format!("m{i}"), 256)))
        .jobs((1..=jobs).map(scale_job))
        .schedd_policy(flock_policy());
    drain(builder.build(), secs(48 * 3600))
}

fn fed_scale(pools: u64, machines_per: usize, jobs: u32, horizon: SimTime) -> Census {
    let mut world = scaling_federation(SEED, pools, machines_per, jobs);
    world.count_deliveries_by(Msg::kind);
    world.run_until(horizon);
    world.census()
}

fn campaign_sweep(campaigns: u64) -> Census {
    let mut total = Census::new();
    for i in 0..campaigns {
        let campaign = campaign::generate(SEED * SEED_STRIDE + i);
        let arms: &[bool] = if i % REFERENCE_EVERY == 0 {
            &[true, false]
        } else {
            &[true]
        };
        for &faulty in arms {
            for (kind, n) in drain(campaign.build_pool(faulty).build(), deadline()) {
                *total.entry(kind).or_default() += n;
            }
        }
    }
    total
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
        .flat_map(|(_, c)| c.keys().copied())
        .collect();
    let cell = |census: &Census, kind: &str| census.get(kind).map_or("-".into(), u64::to_string);
    let mut rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|kind| {
            let mut row = vec![kind.to_string()];
            row.extend(columns.iter().map(|(_, census)| cell(census, kind)));
            row
        })
        .collect();
    let mut totals = vec!["all".to_string()];
    totals.extend(
        columns
            .iter()
            .map(|(_, c)| c.values().sum::<u64>().to_string()),
    );
    rows.push(totals);
    let mut header = vec!["deliveries"];
    header.extend(columns.iter().map(|(name, _)| *name));
    println!(
        "Deliveries by message kind, seed {SEED}, the ledger's {} size:\n",
        size.pick("smoke", "gate")
    );
    print!("{}", render_table(&header, &rows));
}
