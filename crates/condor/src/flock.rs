//! Federated pools: flocking assembly and run reports.
//!
//! [`FederationBuilder`] wires several pools — each with its own
//! matchmaker and startds — plus one flocking schedd into a single
//! [`desim::World`]. Pool 0 is the home pool; when the home pool cannot
//! place a job (saturated, or its matchmaker unreachable), the schedd
//! negotiates with the remaining pools in order, with every remote
//! interaction wrapped in the robustness stack: probes time out, grants
//! can be explicit denials, per-pool circuit breakers withhold failing
//! pools, claims are epoch- and pool-fenced, and every cross-boundary
//! fault becomes an explicit pool-scope error instead of a hang.
//!
//! Actor-id layout is deterministic: matchmaker of pool `p` is actor
//! `p`, the flocking schedd follows the matchmakers, machines follow the
//! schedd grouped by pool in declaration order, and the network-fault
//! driver (when the plan has network faults) registers last.

use crate::faults::FaultPlan;
use crate::job::{JobRecord, JobSpec};
use crate::machine::{BaseAds, MachineSpec};
use crate::matchmaker::{Matchmaker, MatchmakerStats};
use crate::metrics::{MachineStats, Metrics};
use crate::msg::Msg;
use crate::schedd::{FlockConfig, FlockTarget, Schedd, ScheddPolicy, UserEvent};
use crate::startd::{Startd, StartdPolicy};
use desim::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a finished federation run yields.
#[derive(Debug)]
pub struct FlockReport {
    /// The flocking schedd's counters.
    pub metrics: Metrics,
    /// The users' view of the queue.
    pub user_log: Vec<UserEvent>,
    /// Final job records, attempt histories included.
    pub jobs: BTreeMap<u32, JobRecord>,
    /// Per-machine statistics, keyed by actor id.
    pub machines: BTreeMap<usize, MachineStats>,
    /// Which pool each machine belongs to (actor id → pool id).
    pub pool_of_machine: BTreeMap<usize, u64>,
    /// Per-pool matchmaker negotiation counters, indexed by pool id.
    pub matchmakers: Vec<MatchmakerStats>,
    /// Per-pool count of flock grants served, indexed by pool id.
    pub flock_grants: Vec<u64>,
    /// The run's typed event stream (pool faults, spans, dispositions…).
    pub telemetry: obs::Collector,
    /// What the simulated fabric did to messages.
    pub net: desim::NetStats,
    /// Virtual time when the run stopped.
    pub finished_at: SimTime,
    /// Did every job reach a terminal state?
    pub quiescent: bool,
    /// Events processed by the simulator.
    pub events: u64,
}

impl FlockReport {
    /// Project the run's counters into a metrics registry: schedd metrics,
    /// per-machine statistics, pooled matchmaker counters, and per-pool
    /// flock-grant counts — deterministic, ready for
    /// [`obs::Registry::snapshot_json`].
    pub fn registry(&self) -> obs::Registry {
        let mut reg = self.metrics.registry();
        for stats in self.machines.values() {
            stats.register_into(&mut reg);
        }
        for mm in &self.matchmakers {
            mm.register_into(&mut reg);
        }
        for (pool, grants) in self.flock_grants.iter().enumerate() {
            let label = pool.to_string();
            reg.counter_add("flock_grants_served", &[("pool", &label)], *grants);
        }
        reg.counter_add("events_dropped", &[], self.telemetry.evicted());
        reg.counter_add(
            "events_recorded",
            &[],
            self.telemetry.len() as u64 + self.telemetry.evicted(),
        );
        reg
    }

    /// Jobs that ended anywhere other than completed/unexecutable, one
    /// line each — the federation's no-lost-work ledger.
    pub fn unfinished(&self) -> Vec<String> {
        use crate::job::JobState;
        self.jobs
            .values()
            .filter(|rec| {
                !matches!(
                    rec.state,
                    JobState::Completed { .. } | JobState::Unexecutable { .. }
                )
            })
            .map(|rec| format!("job {} ended {:?}", rec.spec.id, rec.state))
            .collect()
    }
}

/// Builder for a federation of pools with one flocking schedd.
pub struct FederationBuilder {
    seed: u64,
    pools: Vec<Vec<MachineSpec>>,
    jobs: Vec<JobSpec>,
    home_files: Vec<(String, Vec<u8>)>,
    schedd_policy: ScheddPolicy,
    startd_policy: StartdPolicy,
    plan: FaultPlan,
    patience: SimDuration,
    probe_timeout: SimDuration,
    denial_delay: SimDuration,
    pool_breaker: crate::health::BreakerPolicy,
    swallow_escapes: bool,
}

impl FederationBuilder {
    /// A new federation with the given random seed and no pools yet.
    pub fn new(seed: u64) -> FederationBuilder {
        let defaults = FlockConfig::default();
        FederationBuilder {
            seed,
            pools: Vec::new(),
            jobs: Vec::new(),
            home_files: Vec::new(),
            schedd_policy: ScheddPolicy::default(),
            startd_policy: StartdPolicy::default(),
            plan: FaultPlan::none(),
            patience: defaults.patience,
            probe_timeout: defaults.probe_timeout,
            denial_delay: defaults.denial_delay,
            pool_breaker: defaults.breaker,
            swallow_escapes: false,
        }
    }

    /// Add one pool with the given machines (possibly none: an empty pool
    /// answers flock probes with an explicit saturation denial). The first
    /// pool added is the home pool.
    pub fn pool(mut self, machines: impl IntoIterator<Item = MachineSpec>) -> FederationBuilder {
        self.pools.push(machines.into_iter().collect());
        self
    }

    /// Submit one job to the flocking schedd.
    pub fn job(mut self, spec: JobSpec) -> FederationBuilder {
        self.jobs.push(spec);
        self
    }

    /// Submit several jobs.
    pub fn jobs(mut self, specs: impl IntoIterator<Item = JobSpec>) -> FederationBuilder {
        self.jobs.extend(specs);
        self
    }

    /// Place a file in the submitter's home file system.
    pub fn home_file(mut self, path: &str, data: &[u8]) -> FederationBuilder {
        self.home_files.push((path.to_string(), data.to_vec()));
        self
    }

    /// Set the schedd policy.
    pub fn schedd_policy(mut self, p: ScheddPolicy) -> FederationBuilder {
        self.schedd_policy = p;
        self
    }

    /// Set the startd policy (applies to every machine in every pool).
    pub fn startd_policy(mut self, p: StartdPolicy) -> FederationBuilder {
        self.startd_policy = p;
        self
    }

    /// Install a fault plan (matchmaker crashes, inter-pool partitions,
    /// flock-claim revocations, and everything single-pool plans carry).
    pub fn faults(mut self, plan: FaultPlan) -> FederationBuilder {
        self.plan = plan;
        self
    }

    /// Does nothing: the trace log it used to disable is gone. Kept only
    /// for the frozen `crates/ledger` call site.
    pub fn without_trace(self) -> FederationBuilder {
        self
    }

    /// How long a job may starve before the schedd flocks.
    pub fn patience(mut self, d: SimDuration) -> FederationBuilder {
        self.patience = d;
        self
    }

    /// How long a flock probe waits before declaring the remote
    /// matchmaker unreachable.
    pub fn probe_timeout(mut self, d: SimDuration) -> FederationBuilder {
        self.probe_timeout = d;
        self
    }

    /// How long a denial or failure parks a remote pool.
    pub fn denial_delay(mut self, d: SimDuration) -> FederationBuilder {
        self.denial_delay = d;
        self
    }

    /// The per-remote-pool circuit breaker policy.
    pub fn pool_breaker(mut self, p: crate::health::BreakerPolicy) -> FederationBuilder {
        self.pool_breaker = p;
        self
    }

    /// **Test-only.** Build the deliberately buggy schedd that swallows
    /// remote-pool escapes instead of widening them — the mutation seed
    /// the campaign oracle must flag as a Principle-1 breach.
    pub fn swallow_escapes(mut self) -> FederationBuilder {
        self.swallow_escapes = true;
        self
    }

    /// The matchmaker actor id of `pool` (the layout puts matchmaker `p`
    /// at actor id `p`).
    pub fn matchmaker_id(pool: u64) -> usize {
        pool as usize
    }

    /// The flocking schedd's actor id: right after the matchmakers.
    pub fn schedd_id(&self) -> usize {
        self.pools.len()
    }

    /// The machine actor ids of `pool`, in declaration order.
    pub fn machine_ids(&self, pool: u64) -> Vec<usize> {
        let mut next = self.pools.len() + 1;
        for (p, machines) in self.pools.iter().enumerate() {
            if p as u64 == pool {
                return (next..next + machines.len()).collect();
            }
            next += machines.len();
        }
        Vec::new()
    }

    /// Build the world without running it. Returns the world, the
    /// flocking schedd's actor id, and the machine→pool map.
    pub fn build(self) -> (World<Msg>, usize, BTreeMap<usize, u64>) {
        assert!(
            !self.pools.is_empty(),
            "a federation needs at least one pool"
        );
        let mut world: World<Msg> = World::new(self.seed);
        let plan = self.plan.build();
        let n_pools = self.pools.len();

        for p in 0..n_pools {
            let id = world.add_actor(Box::new(
                Matchmaker::new()
                    .with_pool(p as u64)
                    .with_faults(Arc::clone(&plan)),
            ));
            assert_eq!(id, p, "matchmaker {p} must land at actor id {p}");
        }

        let cfg = FlockConfig {
            home_pool: 0,
            pools: (1..n_pools)
                .map(|p| FlockTarget {
                    pool: p as u64,
                    matchmaker: p,
                })
                .collect(),
            patience: self.patience,
            probe_timeout: self.probe_timeout,
            denial_delay: self.denial_delay,
            breaker: self.pool_breaker,
            swallow_escapes: self.swallow_escapes,
        };
        let mut schedd = Schedd::new(
            Self::matchmaker_id(0),
            self.schedd_policy,
            Arc::clone(&plan),
        )
        .with_flock(cfg);
        for (path, data) in &self.home_files {
            schedd.put_home_file(path, data);
        }
        for job in self.jobs {
            schedd.submit(job);
        }
        let schedd_id = world.add_actor(Box::new(schedd));
        assert_eq!(schedd_id, n_pools, "schedd must follow the matchmakers");

        let mut pool_of_machine = BTreeMap::new();
        let mut bases = BaseAds::default();
        for (p, machines) in self.pools.into_iter().enumerate() {
            for spec in machines {
                let startd = Startd::sharing(
                    bases.base_for(&spec),
                    spec,
                    self.startd_policy,
                    Self::matchmaker_id(p as u64),
                    Arc::clone(&plan),
                )
                .with_pool(p as u64);
                let id = world.add_actor(Box::new(startd));
                pool_of_machine.insert(id, p as u64);
            }
        }
        // The network-fault driver registers last: nothing addresses it,
        // so its id never perturbs the ids the fault plan aims at.
        if !plan.net_faults().is_empty() {
            world.add_actor(Box::new(crate::netdriver::NetFaultDriver::new(Arc::clone(
                &plan,
            ))));
        }
        (world, schedd_id, pool_of_machine)
    }

    /// Build the world and run until every job is terminal or `deadline`
    /// passes.
    pub fn run(self, deadline: SimTime) -> FlockReport {
        let n_pools = self.pools.len();
        let (mut world, schedd_id, pool_of_machine) = self.build();
        let all_done =
            |world: &World<Msg>| world.get::<Schedd>(schedd_id).expect("schedd").all_done();
        let slice = SimDuration::from_secs(30);
        let mut now = SimTime::ZERO;
        loop {
            now = SimTime::from_micros((now + slice).as_micros().min(deadline.as_micros()));
            world.run_until(now);
            if all_done(&world) || now >= deadline {
                break;
            }
        }
        let quiescent = all_done(&world);
        let schedd = world.get::<Schedd>(schedd_id).unwrap();
        let mut machines = BTreeMap::new();
        for &id in pool_of_machine.keys() {
            let s = world.get::<Startd>(id).expect("startd present");
            machines.insert(id, s.stats.clone());
        }
        let mut matchmakers = Vec::new();
        let mut flock_grants = Vec::new();
        for p in 0..n_pools {
            let mm = world
                .get::<Matchmaker>(Self::matchmaker_id(p as u64))
                .expect("matchmaker present");
            matchmakers.push(mm.stats().clone());
            flock_grants.push(mm.flock_grants);
        }
        FlockReport {
            metrics: schedd.metrics.clone(),
            user_log: schedd.user_log.clone(),
            jobs: schedd.jobs.clone(),
            machines,
            pool_of_machine,
            matchmakers,
            flock_grants,
            telemetry: world.telemetry().clone(),
            net: world.net().stats().clone(),
            finished_at: world.now(),
            quiescent,
            events: world.events_processed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Window;
    use crate::job::JavaMode;
    use gridvm::programs;

    fn job(id: u32) -> JobSpec {
        JobSpec::java(id, "ada", programs::completes_main(), JavaMode::Scoped)
            .with_exec_time(SimDuration::from_secs(30))
    }

    fn deadline() -> SimTime {
        SimTime::from_secs(3600)
    }

    #[test]
    fn starved_job_flocks_to_a_remote_pool_and_completes() {
        // Home pool has no machines at all: the job starves past the
        // patience window, the schedd probes pool 1, and the job runs
        // remotely — a flocked claim end to end.
        let report = FederationBuilder::new(41)
            .pool([])
            .pool([MachineSpec::healthy("r1", 256)])
            .job(job(1))
            .run(deadline());
        assert!(report.quiescent, "{:?}", report.jobs);
        assert_eq!(report.metrics.jobs_completed, 1);
        assert!(report.metrics.flock_escalations >= 1);
        assert_eq!(report.flock_grants[1], 1, "pool 1 served the probe");
        // The one attempt ran on pool 1's machine.
        let rec = &report.jobs[&1];
        let machine = rec.attempts.last().unwrap().machine;
        assert_eq!(report.pool_of_machine[&machine], 1);
    }

    #[test]
    fn saturated_pool_is_an_explicit_denial_not_silence() {
        // Pool 1 is empty (saturated); pool 2 has the machine. The denial
        // from pool 1 must surface as an explicit pool-scope FlockFault,
        // and the job must still complete via pool 2.
        let report = FederationBuilder::new(42)
            .pool([])
            .pool([])
            .pool([MachineSpec::healthy("r2", 256)])
            .job(job(1))
            .run(deadline());
        assert!(report.quiescent);
        assert_eq!(report.metrics.jobs_completed, 1);
        assert!(report.metrics.flock_faults >= 1, "{:?}", report.metrics);
        let saturated: Vec<u64> = report
            .telemetry
            .iter()
            .filter_map(|r| match &r.event {
                obs::Event::FlockFault { pool, kind, .. } if kind == "saturated" => Some(*pool),
                _ => None,
            })
            .collect();
        assert_eq!(saturated, vec![1], "pool 1 denied; only pool 1");
    }

    #[test]
    fn crashed_remote_matchmaker_times_out_and_the_next_pool_serves() {
        // Pool 1's matchmaker is down the whole run: the probe times out
        // (unreachable — never a hang), its breaker records the failure,
        // and pool 2 takes the job.
        let report = FederationBuilder::new(43)
            .pool([])
            .pool([MachineSpec::healthy("r1", 256)])
            .pool([MachineSpec::healthy("r2", 256)])
            .faults(FaultPlan::none().crash(
                FederationBuilder::matchmaker_id(1),
                Window::from(SimTime::ZERO),
            ))
            .job(job(1))
            .run(deadline());
        assert!(report.quiescent);
        assert_eq!(report.metrics.jobs_completed, 1);
        let unreachable = report
            .telemetry
            .iter()
            .filter(|r| {
                matches!(&r.event,
                    obs::Event::FlockFault { pool, kind, .. } if *pool == 1 && kind == "unreachable")
            })
            .count();
        assert!(
            unreachable >= 1,
            "probe of the dead matchmaker must time out"
        );
        let rec = &report.jobs[&1];
        let machine = rec.attempts.last().unwrap().machine;
        assert_eq!(report.pool_of_machine[&machine], 2);
    }

    #[test]
    fn same_seed_same_federation_report() {
        let run = || {
            FederationBuilder::new(44)
                .pool([MachineSpec::healthy("h1", 128)])
                .pool([MachineSpec::healthy("r1", 256)])
                .jobs((1..=4).map(job))
                .run(deadline())
        };
        let a = run();
        let b = run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.metrics.jobs_completed, b.metrics.jobs_completed);
        assert_eq!(a.metrics.flock_escalations, b.metrics.flock_escalations);
        assert_eq!(
            a.registry().snapshot_json(),
            b.registry().snapshot_json(),
            "registry snapshots must be byte-identical"
        );
    }
}
