//! What a machine costs the process that simulates it, held by counts.
//!
//! A pool is thousands of machines (20,000 in the ledger's `fed_scale`),
//! so what one machine keeps on the heap — its startd, the child ad it
//! advertises, the matchmaker's record of that ad, the world's slot for
//! its actor — is what the simulator's memory is made of. A counting
//! global allocator (`propcheck::counting`) measures a started one-pool
//! world per machine: the bytes it holds once every child ad exists, and
//! the allocations it took to get there. Both are a function of the code,
//! not of the host.

use condor::prelude::*;
use desim::prelude::*;
use propcheck::counting::{allocated, retained, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

const MACHINES: usize = 2_000;

#[test]
fn a_started_machine_stays_within_its_footprint() {
    // Specs are made inside the measurement, so what the world keeps of
    // them counts and what it drops does not flatter it.
    let ((_world, live), allocations, _) = allocated(|| {
        retained(|| {
            let healthy = |i| MachineSpec::healthy(&format!("p0m{i}"), 256);
            let (mut world, _, _) = PoolBuilder::new(1)
                .machines((0..MACHINES).map(healthy))
                .build();
            world.run_until(SimTime::from_secs(1));
            world
        })
    });
    let machines = MACHINES as f64;
    let (bytes, allocations) = (live as f64 / machines, allocations as f64 / machines);
    println!("{bytes:.1} live bytes and {allocations:.2} allocations per machine");
    assert!(
        bytes <= 1.15 * BYTES_PER_MACHINE,
        "{bytes:.0} live bytes per machine"
    );
    assert!(
        allocations <= 1.15 * ALLOCATIONS_PER_MACHINE,
        "{allocations:.1} allocations per machine"
    );
}

/// Live heap bytes per started machine, as measured.
const BYTES_PER_MACHINE: f64 = 1084.2;
/// Allocations per started machine, as measured.
const ALLOCATIONS_PER_MACHINE: f64 = 16.91;
