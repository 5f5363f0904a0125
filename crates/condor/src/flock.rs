//! The frozen ledger's name for a federation.
//!
//! A federation is a [`PoolBuilder`] with more pools; this facade keeps
//! only the six calls `crates/ledger` makes, each forwarded to it. Its
//! first [`FederationBuilder::pool`] fills the home pool, every later one
//! adds a remote pool. New code builds through [`PoolBuilder`].

use crate::job::JobSpec;
use crate::machine::MachineSpec;
use crate::msg::Msg;
use crate::pool::PoolBuilder;
use crate::schedd::ScheddPolicy;
use desim::World;
use std::collections::BTreeMap;

/// A [`PoolBuilder`] named by its pools, as the frozen ledger builds one,
/// and the number of pools added so far.
pub struct FederationBuilder(PoolBuilder, u64);

impl FederationBuilder {
    /// A new federation with the given random seed and no pools yet.
    pub fn new(seed: u64) -> FederationBuilder {
        FederationBuilder(PoolBuilder::new(seed), 0)
    }

    /// Add one pool with the given machines; the first is the home pool.
    pub fn pool(self, machines: impl IntoIterator<Item = MachineSpec>) -> FederationBuilder {
        let FederationBuilder(grid, pools) = self;
        match pools {
            0 => FederationBuilder(grid.machines(machines), 1),
            _ => FederationBuilder(grid.pool(machines), pools + 1),
        }
    }

    /// Submit several jobs.
    pub fn jobs(self, specs: impl IntoIterator<Item = JobSpec>) -> FederationBuilder {
        FederationBuilder(self.0.jobs(specs), self.1)
    }

    /// Set the schedd policy.
    pub fn schedd_policy(self, p: ScheddPolicy) -> FederationBuilder {
        FederationBuilder(self.0.schedd_policy(p), self.1)
    }

    /// Does nothing, as [`PoolBuilder::without_trace`].
    pub fn without_trace(self) -> FederationBuilder {
        self
    }

    /// [`PoolBuilder::build`], with the machines keyed by their pool
    /// (actor id → pool id) in place of listed.
    pub fn build(self) -> (World<Msg>, usize, BTreeMap<usize, u64>) {
        let FederationBuilder(grid, pools) = self;
        let pool_by_machine = (0..pools)
            .flat_map(|p| grid.machine_ids(p).map(move |id| (id, p)))
            .collect();
        let (world, schedd, _) = grid.build();
        (world, schedd, pool_by_machine)
    }
}
