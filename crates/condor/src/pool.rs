//! Grid assembly: build a whole simulated grid in a few lines.
//!
//! [`PoolBuilder`] is the one assembler, for one pool or a federation. In
//! the paper's lattice a pool is one more ring around the cluster (§3.3):
//! each [`PoolBuilder::pool`] adds a remote pool with its own matchmaker
//! and startds, and the schedd flocks to them, in order, when the home
//! pool cannot place a job. [`PoolBuilder::run`] is build, then
//! [`Layout::drain`], then [`Layout::report`]: one [`RunReport`] — the
//! schedd's metrics, the user log, each job's attempt history, and
//! per-machine statistics — for any number of pools.

use crate::ckptserver::{CkptServer, CkptServerStats};
use crate::faults::FaultPlan;
use crate::health::BreakerPolicy;
use crate::job::{JobRecord, JobSpec};
use crate::machine::{MachineSpec, SharedConfigs};
use crate::matchmaker::{Matchmaker, MatchmakerStats};
use crate::metrics::{MachineStats, Metrics};
use crate::msg::Msg;
use crate::schedd::{FlockConfig, FlockTarget, Schedd, ScheddPolicy, UserEvent};
use crate::startd::{Startd, StartdPolicy};
use chirp::cookie::Cookie;
use desim::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// One schedd's share of a finished run (for pools with extra schedds).
#[derive(Debug)]
pub struct ScheddSummary {
    /// The actor id of this schedd.
    pub id: usize,
    /// Its counters.
    pub metrics: Metrics,
    /// Its users' view.
    pub user_log: Vec<UserEvent>,
    /// Its job records.
    pub jobs: BTreeMap<u32, JobRecord>,
}

/// Everything a finished run yields.
#[derive(Debug)]
pub struct RunReport {
    /// The primary schedd's counters.
    pub metrics: Metrics,
    /// The primary schedd users' view of the queue.
    pub user_log: Vec<UserEvent>,
    /// The primary schedd's final job records (attempt histories included).
    pub jobs: BTreeMap<u32, JobRecord>,
    /// Additional schedds (submitters), in registration order.
    pub extra_schedds: Vec<ScheddSummary>,
    /// Per-machine statistics, keyed by actor id.
    pub machines: BTreeMap<usize, MachineStats>,
    /// The checkpoint server's traffic counters, when the pool ran one.
    pub ckpt_server: Option<CkptServerStats>,
    /// The home pool's matchmaker's negotiation counters (pairs evaluated,
    /// cache hits, cycles, …).
    pub matchmaker: MatchmakerStats,
    /// The run's typed event stream: protocol events, remote I/O
    /// operations, and error-journey spans.
    pub telemetry: obs::Collector,
    /// What the simulated fabric did to messages: per-link drop and
    /// duplication counts.
    pub net: desim::NetStats,
    /// Virtual time when the run stopped.
    pub finished_at: SimTime,
    /// Did every job reach a terminal state?
    pub quiescent: bool,
    /// Events processed by the simulator.
    pub events: u64,
}

impl RunReport {
    /// Project the run's counters into a metrics registry: the primary
    /// schedd's metrics plus per-machine statistics, ready for
    /// [`obs::Registry::snapshot_json`].
    pub fn registry(&self) -> obs::Registry {
        let mut reg = self.metrics.registry();
        for stats in self.machines.values() {
            stats.register_into(&mut reg);
        }
        // Deterministic matchmaker counters only: the wall-clock cycle
        // histogram stays out so same-seed snapshots remain byte-identical.
        self.matchmaker.register_into(&mut reg);
        // Stream completeness: a non-zero drop count means the event ring
        // evicted old records and the exported stream is only a suffix.
        reg.counter_add("events_dropped", &[], self.telemetry.evicted());
        reg.counter_add(
            "events_recorded",
            &[],
            self.telemetry.len() as u64 + self.telemetry.evicted(),
        );
        for (&(a, b), &n) in &self.net.dropped {
            let link = format!("{a}-{b}");
            reg.counter_add("net_msgs_dropped", &[("link", &link)], n);
        }
        for (&(a, b), &n) in &self.net.duplicated {
            let link = format!("{a}-{b}");
            reg.counter_add("net_msgs_duplicated", &[("link", &link)], n);
        }
        reg
    }

    /// Wall-clock (virtual) completion time of the latest-finishing job.
    pub fn makespan(&self) -> Option<SimTime> {
        self.jobs.values().filter_map(|j| j.finished).max()
    }

    /// Render the queue the way `condor_q` would: one line per job with
    /// owner, state, attempts, and turnaround.
    pub fn render_queue(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:<10} {:<22} {:>8} {:>12}",
            "ID", "OWNER", "STATE", "ATTEMPTS", "TURNAROUND"
        );
        for rec in self.jobs.values() {
            let state = match &rec.state {
                crate::job::JobState::Idle => "idle".to_string(),
                crate::job::JobState::Claiming { machine } => format!("claiming m{machine}"),
                crate::job::JobState::Running { machine } => format!("running on m{machine}"),
                crate::job::JobState::Waiting => "waiting (retry)".to_string(),
                crate::job::JobState::Completed { result } => format!("done: {result}"),
                crate::job::JobState::Unexecutable { .. } => "unexecutable".to_string(),
                crate::job::JobState::AwaitingPostmortem { .. } => {
                    "awaiting postmortem".to_string()
                }
                crate::job::JobState::Held { .. } => "held".to_string(),
            };
            let turnaround = rec
                .turnaround()
                .map(|d| format!("{:.0}s", d.as_secs_f64()))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:>4}  {:<10} {:<22} {:>8} {:>12}",
                rec.spec.id,
                rec.spec.owner,
                state,
                rec.attempts.len(),
                turnaround
            );
        }
        out
    }

    /// Render one job's attempt history — Figure 3's "Summary of All
    /// Execution Attempts + Program Result (If Any)".
    pub fn render_history(&self, job: u32) -> String {
        use std::fmt::Write;
        let Some(rec) = self.jobs.get(&job) else {
            return format!("no such job {job}\n");
        };
        let mut out = String::new();
        let _ = writeln!(out, "job {} ({}):", rec.spec.id, rec.spec.owner);
        for (i, a) in rec.attempts.iter().enumerate() {
            let _ = writeln!(
                out,
                "  attempt {}: machine {} [{} .. {}] -> {} ({})",
                i + 1,
                a.machine,
                a.started,
                a.ended,
                a.scope.map(|s| s.name()).unwrap_or("vanished"),
                a.note
            );
        }
        let _ = writeln!(out, "  state: {:?}", rec.state);
        out
    }
}

/// Builder for a simulated grid: one pool, or a federation of pools
/// around one flocking schedd.
pub struct PoolBuilder {
    seed: u64,
    /// Machines by pool; pool 0, the home pool, is always there.
    pools: Vec<Vec<MachineSpec>>,
    jobs: Vec<JobSpec>,
    home_files: Vec<(String, Vec<u8>)>,
    extra_schedd_jobs: Vec<Vec<JobSpec>>,
    schedd_policy: ScheddPolicy,
    startd_policy: StartdPolicy,
    plan: FaultPlan,
    ckpt_server: bool,
    pool_breaker: BreakerPolicy,
    swallow_escapes: bool,
}

impl PoolBuilder {
    /// A new grid with the given random seed: an empty home pool.
    pub fn new(seed: u64) -> PoolBuilder {
        PoolBuilder {
            seed,
            pools: vec![Vec::new()],
            jobs: Vec::new(),
            home_files: Vec::new(),
            extra_schedd_jobs: Vec::new(),
            schedd_policy: ScheddPolicy::default(),
            startd_policy: StartdPolicy::default(),
            plan: FaultPlan::none(),
            ckpt_server: false,
            pool_breaker: BreakerPolicy::default(),
            swallow_escapes: false,
        }
    }

    /// Add one machine to the home pool.
    pub fn machine(mut self, spec: MachineSpec) -> PoolBuilder {
        self.pools[0].push(spec);
        self
    }

    /// Add several machines to the home pool.
    pub fn machines(mut self, specs: impl IntoIterator<Item = MachineSpec>) -> PoolBuilder {
        self.pools[0].extend(specs);
        self
    }

    /// Add a remote pool — 1, 2, … in the order added — with its own
    /// matchmaker and these machines (possibly none: an empty pool answers
    /// flock probes with an explicit saturation denial). A grid of more
    /// than one pool flocks: a job the home pool cannot place is offered
    /// to the remote pools in order.
    pub fn pool(mut self, machines: impl IntoIterator<Item = MachineSpec>) -> PoolBuilder {
        self.pools.push(machines.into_iter().collect());
        self
    }

    /// Submit one job.
    pub fn job(mut self, spec: JobSpec) -> PoolBuilder {
        self.jobs.push(spec);
        self
    }

    /// Submit several jobs.
    pub fn jobs(mut self, specs: impl IntoIterator<Item = JobSpec>) -> PoolBuilder {
        self.jobs.extend(specs);
        self
    }

    /// Place a file in the submitter's home file system.
    pub fn home_file(mut self, path: &str, data: &[u8]) -> PoolBuilder {
        self.home_files.push((path.to_string(), data.to_vec()));
        self
    }

    /// Add another submitter: a second (third, …) schedd with its own job
    /// queue, competing for the home pool through its matchmaker —
    /// "each participant of the system is represented by a daemon process
    /// that represents its interests" (§2.1). Extra schedds are registered
    /// *after* the machines, so machine actor ids are unaffected.
    pub fn extra_schedd(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> PoolBuilder {
        self.extra_schedd_jobs.push(jobs.into_iter().collect());
        self
    }

    /// Set the schedd policy.
    pub fn schedd_policy(mut self, p: ScheddPolicy) -> PoolBuilder {
        self.schedd_policy = p;
        self
    }

    /// Set the startd policy (applies to every machine in every pool).
    pub fn startd_policy(mut self, p: StartdPolicy) -> PoolBuilder {
        self.startd_policy = p;
        self
    }

    /// Install a fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> PoolBuilder {
        self.plan = plan;
        self
    }

    /// Run a checkpoint server: Standard-universe evictions ship a real
    /// checkpoint image there, and later attempts resume from it instead
    /// of merely trusting the schedd's progress ledger.
    pub fn with_checkpoint_server(mut self) -> PoolBuilder {
        self.ckpt_server = true;
        self
    }

    /// The per-remote-pool circuit breaker policy.
    pub fn pool_breaker(mut self, p: BreakerPolicy) -> PoolBuilder {
        self.pool_breaker = p;
        self
    }

    /// **Test-only.** Build the deliberately buggy schedd that swallows
    /// remote-pool escapes instead of widening them — the mutation seed
    /// the campaign oracle must flag as a Principle-1 breach.
    pub fn swallow_escapes(mut self) -> PoolBuilder {
        self.swallow_escapes = true;
        self
    }

    /// Does nothing: the trace log it used to disable is gone. Kept only
    /// for the frozen `crates/ledger` call site.
    pub fn without_trace(self) -> PoolBuilder {
        self
    }

    /// The matchmaker of a one-pool grid: [`PoolBuilder::matchmaker_id`]`(0)`.
    pub const MATCHMAKER_ID: usize = 0;
    /// The schedd of a one-pool grid: [`PoolBuilder::schedd_id`].
    pub const SCHEDD_ID: usize = 1;
    /// The first machine of a one-pool grid: the start of
    /// [`PoolBuilder::machine_ids`]`(0)`.
    pub const FIRST_MACHINE_ID: usize = 2;

    // The actor layout, the one encoding of it: matchmakers `0..P`, the
    // schedd at `P`, the machines grouped by pool in declaration order,
    // the extra schedds, the checkpoint server, and last the network-fault
    // driver — nothing addresses it, so its id never perturbs the ids a
    // fault plan aims at.

    /// The matchmaker actor id of `pool`.
    pub fn matchmaker_id(pool: u64) -> usize {
        pool as usize
    }

    /// The schedd's actor id: right after the matchmakers.
    pub fn schedd_id(&self) -> usize {
        self.pools.len()
    }

    /// The machine actor ids of `pool`, in declaration order.
    pub fn machine_ids(&self, pool: u64) -> Range<usize> {
        let pool = pool as usize;
        let first = self.schedd_id() + 1 + self.pools[..pool].iter().map(Vec::len).sum::<usize>();
        first..first + self.pools[pool].len()
    }

    /// The ids [`Layout::drain`] watches and [`Layout::report`] reads,
    /// taken before [`PoolBuilder::build`] consumes the builder.
    pub fn layout(&self) -> Layout {
        let last = self.pools.len() as u64 - 1;
        let machines = self.machine_ids(0).start..self.machine_ids(last).end;
        let extras = machines.end..machines.end + self.extra_schedd_jobs.len();
        Layout {
            schedds: std::iter::once(self.schedd_id())
                .chain(extras.clone())
                .collect(),
            ckpt_server: self.ckpt_server.then_some(extras.end),
            machines,
        }
    }

    /// Build the world and run until every job is terminal or `deadline`
    /// passes.
    pub fn run(self, deadline: SimTime) -> RunReport {
        let layout = self.layout();
        let (mut world, _, _) = self.build();
        layout.drain(&mut world, deadline);
        layout.report(&world)
    }

    /// Build the world without running it (for tests that need to poke at
    /// the network or inspect mid-flight state). Returns the world, the
    /// schedd's actor id and every machine's, pool by pool.
    pub fn build(self) -> (World<Msg>, usize, Vec<usize>) {
        // The checkpoint server's id is known before the startds that must
        // talk to it are built.
        let ckpt = (self.layout().ckpt_server).map(|id| (id, Cookie::generate(self.seed ^ 0xCB0B)));
        let mut world: World<Msg> = World::new(self.seed);
        let plan = self.plan.build();
        let n_pools = self.pools.len();

        for p in 0..n_pools as u64 {
            let mm = Matchmaker::new().with_pool(p);
            assert_eq!(world.add_actor(Box::new(mm)), Self::matchmaker_id(p));
        }

        let home = Self::matchmaker_id(0);
        let mut schedd = Schedd::new(home, self.schedd_policy, Arc::clone(&plan));
        if n_pools > 1 {
            schedd = schedd.with_flock(FlockConfig {
                pools: (1..n_pools as u64)
                    .map(|pool| FlockTarget {
                        pool,
                        matchmaker: Self::matchmaker_id(pool),
                    })
                    .collect(),
                breaker: self.pool_breaker,
                swallow_escapes: self.swallow_escapes,
            });
        }
        for (path, data) in &self.home_files {
            schedd.put_home_file(path, data);
        }
        for job in self.jobs {
            schedd.submit(job);
        }
        let schedd_id = world.add_actor(Box::new(schedd));
        assert_eq!(schedd_id, n_pools, "the schedd follows the matchmakers");

        let mut machine_ids = Vec::new();
        let mut configs = SharedConfigs::default();
        for (p, machines) in self.pools.into_iter().enumerate() {
            let (pool, mm) = (p as u64, Self::matchmaker_id(p as u64));
            for spec in machines {
                let config = configs.for_spec(&spec);
                let policy = self.startd_policy;
                let mut startd = Startd::sharing(config, spec.name, policy, mm, Arc::clone(&plan))
                    .with_pool(pool);
                if let Some((id, cookie)) = &ckpt {
                    startd = startd.with_ckpt_server(*id, cookie.clone());
                }
                machine_ids.push(world.add_actor(Box::new(startd)));
            }
        }
        for jobs in self.extra_schedd_jobs {
            let mut extra = Schedd::new(home, self.schedd_policy, Arc::clone(&plan));
            for job in jobs {
                extra.submit(job);
            }
            world.add_actor(Box::new(extra));
        }
        if let Some((id, cookie)) = ckpt {
            let server = CkptServer::new(cookie, Arc::clone(&plan));
            let got = world.add_actor(Box::new(server));
            assert_eq!(got, id, "checkpoint server id precomputed wrong");
        }
        if plan.net_faults().next().is_some() {
            world.add_actor(Box::new(crate::netdriver::NetFaultDriver::new(Arc::clone(
                &plan,
            ))));
        }
        crate::netdriver::install_crashes(&plan, &mut world);
        (world, schedd_id, machine_ids)
    }
}

/// Where a built grid's schedds, machines and checkpoint server sit: what
/// [`Layout::drain`] watches and [`Layout::report`] reads. From
/// [`PoolBuilder::layout`].
#[derive(Debug, Clone)]
pub struct Layout {
    /// The schedd first, then the extra schedds.
    schedds: Vec<usize>,
    /// Every pool's machines.
    machines: Range<usize>,
    ckpt_server: Option<usize>,
}

impl Layout {
    /// Has every schedd's queue reached a terminal state?
    fn all_done(&self, world: &World<Msg>) -> bool {
        (self.schedds.iter()).all(|&id| world.get::<Schedd>(id).expect("schedd").all_done())
    }

    /// Run a built world in 30-s slices until every job is terminal or
    /// `deadline` passes.
    pub fn drain(&self, world: &mut World<Msg>, deadline: SimTime) {
        let mut now = SimTime::ZERO;
        loop {
            now = (now + SimDuration::from_secs(30)).min(deadline);
            world.run_until(now);
            if self.all_done(world) || now >= deadline {
                break;
            }
        }
    }

    /// What the world's schedds, machines, home matchmaker and checkpoint
    /// server hold now.
    pub fn report(&self, world: &World<Msg>) -> RunReport {
        let summary = |id: usize| {
            let s = world.get::<Schedd>(id).expect("schedd");
            ScheddSummary {
                id,
                metrics: s.metrics.clone(),
                user_log: s.user_log.clone(),
                jobs: s.jobs.clone(),
            }
        };
        let schedd = summary(self.schedds[0]);
        let machine = |id: usize| {
            let s = world.get::<Startd>(id).expect("startd present");
            (id, s.stats.clone())
        };
        let matchmaker = world
            .get::<Matchmaker>(PoolBuilder::matchmaker_id(0))
            .expect("home matchmaker");
        RunReport {
            metrics: schedd.metrics,
            user_log: schedd.user_log,
            jobs: schedd.jobs,
            extra_schedds: self.schedds[1..].iter().map(|&id| summary(id)).collect(),
            machines: self.machines.clone().map(machine).collect(),
            ckpt_server: (self.ckpt_server)
                .map(|id| world.get::<CkptServer>(id).expect("checkpoint server"))
                .map(|s| s.stats.clone()),
            matchmaker: matchmaker.stats().clone(),
            telemetry: world.telemetry().clone(),
            net: world.net().stats().clone(),
            finished_at: world.now(),
            quiescent: self.all_done(world),
            events: world.events_processed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, Window};
    use crate::job::{JavaMode, JobState, Universe};
    use chirp::backend::EnvFault;
    use errorscope::resultfile::Outcome;
    use errorscope::Scope;
    use gridvm::config::SelfTestDepth;
    use gridvm::programs;

    fn deadline() -> SimTime {
        SimTime::from_secs(3600)
    }

    #[test]
    fn healthy_pool_completes_a_job() {
        let report = PoolBuilder::new(1)
            .machine(MachineSpec::healthy("m1", 256))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(30)),
            )
            .run(deadline());
        assert!(report.quiescent);
        assert_eq!(report.metrics.jobs_completed, 1);
        let rec = &report.jobs[&1];
        let JobState::Completed { result } = &rec.state else {
            panic!("{:?}", rec.state)
        };
        assert_eq!(result.outcome, Outcome::Completed { exit_code: 0 });
        assert_eq!(rec.attempts.len(), 1);
        assert_eq!(rec.attempts[0].scope, Some(Scope::Program));
        // User saw exactly one line, the completion.
        assert_eq!(report.user_log.len(), 1);
        assert!(report.user_log[0].text.contains("exit code 0"));
    }

    #[test]
    fn healthy_job_stream_walks_the_figure_1_phases_in_order() {
        let report = PoolBuilder::new(1)
            .machine(MachineSpec::healthy("m1", 256))
            .job(JobSpec::java(
                1,
                "ada",
                programs::completes_main(),
                JavaMode::Scoped,
            ))
            .run(deadline());
        let lines: Vec<String> = report.telemetry.iter().map(|r| r.to_string()).collect();
        // `any` consumes through its match, so each phase must appear
        // strictly after the one before it.
        let mut rest = lines.iter();
        for phase in [
            "match job=1 machine=2",
            "claim job=1 machine=2 requested",
            "claim job=1 machine=2 accepted",
            "dispatch job=1 machine=2",
            "io auth ok",
            "disposition job=1 return-completed",
        ] {
            assert!(rest.any(|l| l.contains(phase)), "{phase:?} missing or late");
        }
    }

    #[test]
    fn program_exception_reaches_user_in_scoped_mode() {
        let report = PoolBuilder::new(2)
            .machine(MachineSpec::healthy("m1", 256))
            .job(
                JobSpec::java(1, "ada", programs::index_out_of_bounds(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(10)),
            )
            .run(deadline());
        assert_eq!(report.metrics.jobs_completed, 1);
        assert!(report.user_log[0]
            .text
            .contains("ArrayIndexOutOfBoundsException"));
        // Program-scope: NOT an incidental error.
        assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);
    }

    #[test]
    fn corrupt_image_is_unexecutable_in_scoped_mode() {
        // Damaged in transit — the sum catches it — and one the sum does
        // not: a well-summed 27-byte image whose one function claims
        // u32::MAX instructions. The loader must refuse it, not size a
        // vector by it and take the starter's process down.
        let mut oversized = b"GVM2\0\0\x01\0\0\0\0\0\x01\0\0\xff\xff\xff\xff".to_vec();
        let sum = ckpt::body_sum(&oversized);
        oversized.extend_from_slice(&sum.to_le_bytes());
        for image in [programs::corrupt_image(), oversized] {
            let report = PoolBuilder::new(3)
                .machine(MachineSpec::healthy("m1", 256))
                .job(JobSpec::java(1, "ada", image, JavaMode::Scoped))
                .run(deadline());
            assert_eq!(report.metrics.jobs_unexecutable, 1);
            let JobState::Unexecutable { reason } = &report.jobs[&1].state else {
                panic!()
            };
            assert!(reason.contains("CorruptImage"), "{reason}");
            // Crucially: ONE attempt, no futile retries elsewhere.
            assert_eq!(report.jobs[&1].attempts.len(), 1);
        }
    }

    #[test]
    fn misconfigured_machine_triggers_reschedule_in_scoped_mode() {
        // Two machines: the broken one has more memory, so the job ranks it
        // first. Scoped routing reschedules; with chronic-host avoidance on
        // (§5's complementary approach) the healthy machine finishes the
        // job. Without avoidance the black hole would attract the job
        // forever — exactly the waste §5 describes.
        let report = PoolBuilder::new(4)
            .machine(MachineSpec::misconfigured("broken", 1024))
            .machine(MachineSpec::healthy("ok", 128))
            .schedd_policy(ScheddPolicy {
                avoid_chronic_hosts: true,
                avoid_threshold: 2,
                ..ScheddPolicy::default()
            })
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(10)),
            )
            .run(deadline());
        assert_eq!(report.metrics.jobs_completed, 1);
        assert!(report.metrics.reschedules >= 1);
        let rec = &report.jobs[&1];
        assert!(rec.attempts.len() >= 2);
        assert_eq!(
            rec.attempts[0].scope,
            Some(Scope::RemoteResource),
            "first attempt hits the misconfigured host"
        );
        assert_eq!(rec.attempts.last().unwrap().scope, Some(Scope::Program));
        // The user never saw the environmental error.
        assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);
        assert_eq!(report.user_log.len(), 1);
    }

    #[test]
    fn a_dead_java_install_does_not_fail_jobs_that_never_start_a_jvm() {
        // The only machine asserts Java over a dead VM path. Vanilla and
        // Standard images run directly, so both jobs complete there on the
        // first attempt: the broken JVM is not their error, and nothing
        // reaches the user dressed as a result.
        let job = |id, universe, image| {
            let mut spec = JobSpec::java(id, "ada", image, JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(10));
            spec.universe = universe;
            spec
        };
        let report = PoolBuilder::new(6)
            .machine(MachineSpec::misconfigured("broken", 1024))
            .job(job(1, Universe::Standard, programs::heap_sum(8)))
            .job(job(2, Universe::Vanilla, programs::uses_stdlib()))
            .run(deadline());
        for id in [1, 2] {
            let rec = &report.jobs[&id];
            assert!(matches!(rec.state, JobState::Completed { .. }), "{rec:?}");
            assert_eq!(rec.attempts.len(), 1, "job {id}");
        }
        assert_eq!(report.metrics.incidental_errors_shown_to_user, 0);
        assert!(report
            .telemetry
            .iter()
            .all(|r| r.event.kind() != "violation"));
    }

    #[test]
    fn naive_mode_shows_environment_errors_to_user() {
        // Equal-memory machines so the tie-break gives both a chance; the
        // job first lands on the broken one often enough (seeded) to show
        // the incidental error to the user.
        let report = PoolBuilder::new(5)
            .machine(MachineSpec::misconfigured("broken", 256))
            .machine(MachineSpec::healthy("ok", 256))
            .schedd_policy(ScheddPolicy {
                postmortem_delay: SimDuration::from_secs(60),
                ..ScheddPolicy::default()
            })
            .jobs((1..=4).map(|i| {
                JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Naive)
                    .with_exec_time(SimDuration::from_secs(10))
            }))
            .run(deadline());
        // Jobs eventually complete (after human postmortems + resubmits)…
        assert!(report.metrics.jobs_completed >= 3);
        // …but the user was shown incidental errors and paid for them.
        assert!(report.metrics.incidental_errors_shown_to_user >= 1);
        assert!(report.metrics.postmortems >= 1);
    }

    #[test]
    fn self_test_prevents_matches_to_broken_machines() {
        let report = PoolBuilder::new(6)
            .machine(MachineSpec::misconfigured("broken", 1024))
            .machine(MachineSpec::healthy("ok", 128))
            .startd_policy(StartdPolicy {
                self_test: SelfTestDepth::Trivial,
                learn_from_failures: false,
                ..StartdPolicy::default()
            })
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(10)),
            )
            .run(deadline());
        assert_eq!(report.metrics.jobs_completed, 1);
        // The broken machine never advertised Java, so the single attempt
        // went straight to the healthy machine.
        assert_eq!(report.jobs[&1].attempts.len(), 1);
        assert_eq!(report.metrics.reschedules, 0);
        let broken = &report.machines[&PoolBuilder::FIRST_MACHINE_ID];
        assert!(!broken.advertising_java);
        assert_eq!(broken.executions, 0);
    }

    #[test]
    fn fs_offline_window_delays_but_does_not_kill_job() {
        // Home FS offline for the first 200s; the job needs an input file.
        let report = PoolBuilder::new(7)
            .machine(MachineSpec::healthy("m1", 256))
            .home_file("input.txt", b"hello")
            .faults(FaultPlan::new(vec![Fault::FsFault {
                schedd: PoolBuilder::SCHEDD_ID,
                window: Window::new(SimTime::ZERO, SimTime::from_secs(200)),
                fault: EnvFault::FilesystemOffline,
            }]))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_inputs(&["input.txt"])
                    .with_exec_time(SimDuration::from_secs(10)),
            )
            .run(deadline());
        assert_eq!(report.metrics.jobs_completed, 1);
        // Completion had to wait out the outage.
        let done = report.jobs[&1].finished.unwrap();
        assert!(done >= SimTime::from_secs(200), "finished at {done}");
        // Every staging failure left a record the oracle can see.
        let logged = report
            .telemetry
            .iter()
            .filter(|r| matches!(r.event, obs::Event::Reschedule { .. }))
            .count();
        assert!(report.metrics.reschedules > 0);
        assert_eq!(logged as u64, report.metrics.reschedules);
    }

    #[test]
    fn missing_input_is_job_scope_unexecutable() {
        let report = PoolBuilder::new(8)
            .machine(MachineSpec::healthy("m1", 256))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_inputs(&["never-created.dat"]),
            )
            .run(deadline());
        assert_eq!(report.metrics.jobs_unexecutable, 1);
        let JobState::Unexecutable { reason } = &report.jobs[&1].state else {
            panic!()
        };
        assert!(reason.contains("MissingInput"), "{reason}");
    }

    #[test]
    fn machine_crash_vanishes_report_and_job_recovers() {
        let report = PoolBuilder::new(9)
            .machine(MachineSpec::healthy("doomed", 1024))
            .machine(MachineSpec::healthy("ok", 128))
            .faults(FaultPlan::new(vec![Fault::Crash {
                actor: PoolBuilder::FIRST_MACHINE_ID,
                window: Window::from(SimTime::from_secs(20)),
            }]))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(60)),
            )
            .run(deadline());
        assert_eq!(report.metrics.jobs_completed, 1);
        assert_eq!(report.metrics.vanished_attempts, 1);
        let rec = &report.jobs[&1];
        assert!(rec.attempts.iter().any(|a| a.scope.is_none()));
        assert_eq!(rec.attempts.last().unwrap().scope, Some(Scope::Program));
    }

    #[test]
    fn crashed_matchmaker_makes_no_match_until_it_recovers() {
        // A crash window aimed at the matchmaker's actor id silences it:
        // ads sent during the window are dropped, so the first match comes
        // from an ad re-sent after the window closes.
        let down = SimTime::from_secs(300);
        let report = PoolBuilder::new(9)
            .machine(MachineSpec::healthy("m1", 256))
            .faults(FaultPlan::new(vec![Fault::Crash {
                actor: PoolBuilder::MATCHMAKER_ID,
                window: Window::new(SimTime::ZERO, down),
            }]))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(30)),
            )
            .run(deadline());
        let first_match = report
            .telemetry
            .iter()
            .find_map(|r| matches!(r.event, obs::Event::Match { job: 1, .. }).then_some(r.at_us))
            .expect("the job was matched once the matchmaker came back");
        assert!(
            first_match >= down.as_micros(),
            "matched at {first_match} us, inside the crash window"
        );
        assert_eq!(report.metrics.jobs_completed, 1);
    }

    #[test]
    fn vanilla_universe_runs_without_java() {
        let report = PoolBuilder::new(10)
            .machine(MachineSpec {
                asserts_java: false,
                ..MachineSpec::healthy("plain", 256)
            })
            .job(JobSpec {
                universe: Universe::Vanilla,
                ..JobSpec::java(1, "ada", programs::calls_exit(3), JavaMode::Scoped)
            })
            .run(deadline());
        assert_eq!(report.metrics.jobs_completed, 1);
        let JobState::Completed { result } = &report.jobs[&1].state else {
            panic!()
        };
        assert_eq!(result.outcome, Outcome::Completed { exit_code: 3 });
    }

    #[test]
    fn all_machines_broken_eventually_holds_job() {
        let report = PoolBuilder::new(11)
            .machine(MachineSpec::misconfigured("b1", 256))
            .machine(MachineSpec::misconfigured("b2", 256))
            .schedd_policy(ScheddPolicy {
                max_attempts: 4,
                ..ScheddPolicy::default()
            })
            .job(JobSpec::java(
                1,
                "ada",
                programs::completes_main(),
                JavaMode::Scoped,
            ))
            .run(deadline());
        assert_eq!(report.metrics.jobs_held, 1);
        assert!(matches!(report.jobs[&1].state, JobState::Held { .. }));
        assert_eq!(report.jobs[&1].attempts.len(), 4);
    }

    #[test]
    fn job_parks_exactly_at_the_attempt_budget() {
        // The reschedule_or_hold boundary: with a budget of N, the job runs
        // exactly N attempts — not N-1 (parked early) and not N+1 (budget
        // overrun) — and the hold reason states the count.
        for max_attempts in [1u32, 3] {
            let report = PoolBuilder::new(13)
                .machine(MachineSpec::misconfigured("b1", 256))
                .schedd_policy(ScheddPolicy {
                    max_attempts,
                    ..ScheddPolicy::default()
                })
                .job(JobSpec::java(
                    1,
                    "ada",
                    programs::completes_main(),
                    JavaMode::Scoped,
                ))
                .run(deadline());
            let rec = &report.jobs[&1];
            assert_eq!(
                rec.attempts.len(),
                max_attempts as usize,
                "budget {max_attempts}: attempts must equal the budget"
            );
            let JobState::Held { reason } = &rec.state else {
                panic!("budget {max_attempts}: job must be held, got {rec:?}");
            };
            assert!(reason.contains(&format!("{max_attempts} failed attempts")));
        }
    }

    #[test]
    fn chronic_host_avoidance_reduces_repeat_failures() {
        // One black hole and one healthy machine, many jobs. With
        // avoidance on, the black hole is consulted at most `threshold`
        // times overall.
        let mk_jobs = |mode| {
            (1..=6)
                .map(move |i| {
                    JobSpec::java(i, "ada", programs::completes_main(), mode)
                        .with_exec_time(SimDuration::from_secs(20))
                })
                .collect::<Vec<_>>()
        };
        let base = |avoid: bool| {
            PoolBuilder::new(12)
                .machine(MachineSpec::misconfigured("hole", 4096))
                .machine(MachineSpec::healthy("ok", 128))
                .schedd_policy(ScheddPolicy {
                    avoid_chronic_hosts: avoid,
                    avoid_threshold: 2,
                    ..ScheddPolicy::default()
                })
                .jobs(mk_jobs(JavaMode::Scoped))
                .run(deadline())
        };
        let with_avoid = base(true);
        let without = base(false);
        // With avoidance every job completes; without it the black hole
        // (which outranks the healthy machine) keeps attracting work and
        // some jobs may exhaust their attempt budget.
        assert_eq!(with_avoid.metrics.jobs_completed, 6);
        assert_eq!(without.metrics.jobs_finished(), 6);
        let hole_execs_with = with_avoid.machines[&PoolBuilder::FIRST_MACHINE_ID].executions;
        let hole_execs_without = without.machines[&PoolBuilder::FIRST_MACHINE_ID].executions;
        assert!(
            hole_execs_with < hole_execs_without,
            "avoidance should cut black-hole executions: {hole_execs_with} vs {hole_execs_without}"
        );
        assert!(with_avoid.metrics.wasted_cpu < without.metrics.wasted_cpu);
    }

    #[test]
    fn learning_startd_stops_advertising_after_failure() {
        let report = PoolBuilder::new(13)
            .machine(MachineSpec::partially_misconfigured("half", 4096))
            .machine(MachineSpec::healthy("ok", 128))
            .startd_policy(StartdPolicy {
                // Trivial self-test passes on the partial break…
                self_test: SelfTestDepth::Trivial,
                // …but the starter learns from the remote-resource failure.
                learn_from_failures: true,
                ..StartdPolicy::default()
            })
            .jobs((1..=3).map(|i| {
                JobSpec::java(i, "ada", programs::uses_stdlib(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(10))
            }))
            .run(deadline());
        assert_eq!(report.metrics.jobs_completed, 3);
        let half = &report.machines[&PoolBuilder::FIRST_MACHINE_ID];
        // It failed at most once with remote-resource scope, then revoked
        // its own capability.
        assert!(half.remote_resource_failures >= 1);
        assert!(!half.advertising_java);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run =
            || {
                PoolBuilder::new(99)
                    .machine(MachineSpec::misconfigured("b", 512))
                    .machine(MachineSpec::healthy("ok", 256))
                    .jobs((1..=4).map(|i| {
                        JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
                    }))
                    .run(deadline())
            };
        let a = run();
        let b = run();
        assert_eq!(a.metrics.jobs_completed, b.metrics.jobs_completed);
        assert_eq!(a.metrics.reschedules, b.metrics.reschedules);
        assert_eq!(a.events, b.events);
        assert_eq!(a.finished_at, b.finished_at);
    }
}

#[cfg(test)]
mod eviction_tests {
    use super::*;
    use crate::faults::{Fault, Window};
    use crate::job::{JavaMode, JobSpec, JobState, Universe};
    use gridvm::programs;

    fn long_job(universe: Universe) -> JobSpec {
        JobSpec {
            universe,
            ..JobSpec::java(1, "ada", programs::calls_exit(0), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(600))
        }
    }

    /// One machine with a mid-run owner-activity window plus a backup
    /// machine: the job is evicted and finishes elsewhere.
    fn evicting_pool(universe: Universe, seed: u64) -> RunReport {
        PoolBuilder::new(seed)
            .machine(MachineSpec::healthy("interrupted", 1024))
            .machine(MachineSpec::healthy("backup", 128))
            .faults(FaultPlan::new(vec![Fault::OwnerActivity {
                machine: PoolBuilder::FIRST_MACHINE_ID,
                window: Window::new(SimTime::from_secs(300), SimTime::from_secs(4000)),
            }]))
            .job(long_job(universe))
            .run(SimTime::from_secs(24 * 3600))
    }

    #[test]
    fn vanilla_eviction_loses_progress() {
        let report = evicting_pool(Universe::Vanilla, 21);
        assert_eq!(report.metrics.jobs_completed, 1);
        assert!(report.metrics.evictions >= 1);
        assert!(report.metrics.work_lost_to_eviction > SimDuration::ZERO);
        assert_eq!(report.metrics.checkpointed_work, SimDuration::ZERO);
        // The restarted run had to do the full 600s again.
        let rec = &report.jobs[&1];
        assert!(rec.attempts.len() >= 2);
        assert!(matches!(rec.state, JobState::Completed { .. }));
    }

    #[test]
    fn standard_eviction_checkpoints_progress() {
        let report = evicting_pool(Universe::Standard, 21);
        assert_eq!(report.metrics.jobs_completed, 1);
        assert!(report.metrics.evictions >= 1);
        assert!(report.metrics.checkpointed_work > SimDuration::ZERO);
        assert_eq!(report.metrics.work_lost_to_eviction, SimDuration::ZERO);
        let rec = &report.jobs[&1];
        assert!(rec.attempts[0].note.contains("checkpointed"));
    }

    #[test]
    fn checkpointing_beats_restarting() {
        let vanilla = evicting_pool(Universe::Vanilla, 21);
        let standard = evicting_pool(Universe::Standard, 21);
        let tv = vanilla.jobs[&1].finished.unwrap();
        let ts = standard.jobs[&1].finished.unwrap();
        assert!(
            ts < tv,
            "standard ({ts}) should finish before vanilla ({tv})"
        );
    }

    #[test]
    fn owner_busy_machine_does_not_advertise() {
        // The machine is owner-busy from the start: the job must land on
        // the backup machine immediately.
        let report = PoolBuilder::new(22)
            .machine(MachineSpec::healthy("busy", 1024))
            .machine(MachineSpec::healthy("backup", 128))
            .faults(FaultPlan::new(vec![Fault::OwnerActivity {
                machine: PoolBuilder::FIRST_MACHINE_ID,
                window: Window::from(SimTime::ZERO),
            }]))
            .job(long_job(Universe::Vanilla))
            .run(SimTime::from_secs(24 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1);
        assert_eq!(report.metrics.evictions, 0);
        assert_eq!(
            report.machines[&PoolBuilder::FIRST_MACHINE_ID].executions,
            0
        );
        assert_eq!(
            report.jobs[&1].attempts[0].machine,
            PoolBuilder::FIRST_MACHINE_ID + 1
        );
    }

    #[test]
    fn repeated_evictions_still_converge_with_checkpoints() {
        // Owner activity every 200s on the only fast machine; a 500s
        // Standard job needs three slices but gets there.
        let owner = (0..20).map(|k| {
            let start = 200 + k * 400;
            Fault::OwnerActivity {
                machine: PoolBuilder::FIRST_MACHINE_ID,
                window: Window::new(SimTime::from_secs(start), SimTime::from_secs(start + 200)),
            }
        });
        let report = PoolBuilder::new(23)
            .machine(MachineSpec::healthy("flaky-owner", 1024))
            .faults(FaultPlan::new(owner.collect()))
            .job(JobSpec {
                universe: Universe::Standard,
                ..JobSpec::java(1, "ada", programs::calls_exit(0), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(500))
            })
            .run(SimTime::from_secs(48 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1, "{:?}", report.jobs[&1]);
        assert!(report.metrics.evictions >= 2);
        assert!(report.metrics.checkpointed_work >= SimDuration::from_secs(300));
    }
}

#[cfg(test)]
mod ckpt_server_tests {
    use super::*;
    use crate::faults::{Fault, NetFault, Window};
    use crate::job::{Attempt, JavaMode, JobSpec, JobState, Universe};
    use gridvm::programs;

    fn standard_job(secs: u64) -> JobSpec {
        JobSpec {
            universe: Universe::Standard,
            ..JobSpec::java(1, "ada", programs::calls_exit(0), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(secs))
        }
    }

    /// The owner of the first machine is at the desk over `[300s, 4000s)`.
    fn owner_returns() -> Fault {
        Fault::OwnerActivity {
            machine: PoolBuilder::FIRST_MACHINE_ID,
            window: Window::new(SimTime::from_secs(300), SimTime::from_secs(4000)),
        }
    }

    /// One machine with a mid-run owner-activity window plus a backup
    /// machine, and a real checkpoint server in the pool.
    fn server_pool(seed: u64) -> PoolBuilder {
        PoolBuilder::new(seed)
            .machine(MachineSpec::healthy("interrupted", 1024))
            .machine(MachineSpec::healthy("backup", 128))
            .with_checkpoint_server()
            .faults(FaultPlan::new(vec![owner_returns()]))
            .job(standard_job(600))
    }

    #[test]
    fn server_eviction_stores_and_resumes_checkpoint() {
        let report = server_pool(31).run(SimTime::from_secs(24 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1, "{:?}", report.jobs[&1]);
        assert!(report.metrics.evictions >= 1);
        // A real image went over the wire and came back.
        assert!(report.metrics.checkpoints_taken >= 1);
        assert!(report.metrics.checkpoints_restored >= 1);
        assert!(report.metrics.checkpoint_bytes > 0);
        assert!(report.metrics.work_saved_by_checkpoint > SimDuration::ZERO);
        // Exact checkpointing (no period) banks everything at eviction.
        assert_eq!(report.metrics.work_lost_to_eviction, SimDuration::ZERO);
        let stats = report.ckpt_server.as_ref().expect("server stats");
        assert!(stats.puts >= 1 && stats.gets >= 1);
        assert!(stats.bytes_stored > 0);
        assert_eq!(stats.rejected_frames, 0);
        // The typed event stream saw the whole journey.
        let counts = report.telemetry.counts_by_kind();
        assert!(counts.get("ckpt-taken").copied().unwrap_or(0) >= 1);
        assert!(counts.get("ckpt-restored").copied().unwrap_or(0) >= 1);
        assert!(!counts.contains_key("ckpt-discarded"));
    }

    #[test]
    fn corrupt_checkpoint_is_discarded_and_job_cold_restarts() {
        // The server flips bits in every image stored for job 1: the resume
        // must fail as an *explicit* checkpoint-scope error (discard event),
        // never an implicit crash, and the job must still complete from a
        // cold restart.
        let report = server_pool(32)
            .faults(FaultPlan::new(vec![
                owner_returns(),
                Fault::CkptCorrupt { job: 1 },
            ]))
            .run(SimTime::from_secs(48 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1, "{:?}", report.jobs[&1]);
        assert!(report.metrics.checkpoints_taken >= 1);
        assert!(report.metrics.checkpoints_discarded >= 1);
        assert_eq!(report.metrics.checkpoints_restored, 0);
        // The banked progress evaporated with the discarded image.
        assert!(report.metrics.work_lost_to_eviction > SimDuration::ZERO);
        let counts = report.telemetry.counts_by_kind();
        assert!(counts.get("ckpt-discarded").copied().unwrap_or(0) >= 1);
        // The discard is recorded in the job history, and the job finished.
        let rec = &report.jobs[&1];
        assert!(matches!(rec.state, JobState::Completed { .. }));
        assert!(rec.attempts.iter().any(|a| a.note.contains("discarded")));
    }

    #[test]
    fn unreachable_checkpoint_server_is_discarded_one_fetch_timeout_after_the_request() {
        // The backup machine is cut off from the checkpoint server across
        // the resume: the fetch is lost, and exactly one fetch timeout
        // after it left — by the startd's own timer, whatever its
        // keep-alive tick is doing — the checkpoint is explicitly
        // discarded as unreachable and the attempt restarts cold.
        use crate::startd::CKPT_FETCH_TIMEOUT;
        let backup = PoolBuilder::FIRST_MACHINE_ID + 1;
        let server = PoolBuilder::FIRST_MACHINE_ID + 2;
        let at = SimTime::from_secs;
        let report = server_pool(38)
            .faults(FaultPlan::new(vec![
                owner_returns(),
                // Up in time for the eviction's PUT, down for the GET.
                Fault::Net {
                    window: Window::new(at(305), at(2000)),
                    fault: NetFault::Partition {
                        a: vec![backup],
                        b: vec![server],
                    },
                },
            ]))
            .run(at(24 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1, "{:?}", report.jobs[&1]);
        assert_eq!(report.metrics.checkpoints_taken, 1);
        assert_eq!(report.metrics.checkpoints_discarded, 1);
        assert_eq!(report.metrics.checkpoints_restored, 0);
        let stats = report.ckpt_server.as_ref().expect("server stats");
        assert_eq!((stats.puts, stats.gets), (1, 0), "the fetch never arrived");

        let events: Vec<obs::EventRecord> =
            report.telemetry.iter().map(|r| r.to_record()).collect();
        let resumed_at = events
            .iter()
            .find_map(|r| match r.event {
                obs::Event::Dispatch { machine, .. } if machine == backup as u64 => Some(r.at_us),
                _ => None,
            })
            .expect("the second attempt was dispatched to the backup");
        let discards: Vec<(u64, u64, &str)> = events
            .iter()
            .filter_map(|r| match &r.event {
                obs::Event::CheckpointDiscarded {
                    machine, reason, ..
                } => Some((r.at_us, *machine, reason.as_str())),
                _ => None,
            })
            .collect();
        // The activation reaches the startd one network hop after the
        // dispatch; the request leaves, and the timer starts, right then.
        let hop = SimDuration::from_millis(1);
        let discarded_at = resumed_at + (hop + CKPT_FETCH_TIMEOUT).as_micros();
        assert_eq!(
            discards,
            [(discarded_at, backup as u64, "checkpoint server unreachable")]
        );

        // Cold restart: the full 600 s again, and the program ran to its
        // result exactly once.
        let rec = &report.jobs[&1];
        let finished = rec.finished.expect("completed").as_micros();
        assert!(finished >= discarded_at + at(600).as_micros());
        let results: Vec<&Attempt> = rec
            .attempts
            .iter()
            .filter(|a| a.scope == Some(errorscope::Scope::Program))
            .collect();
        assert_eq!(results.len(), 1, "{:?}", rec.attempts);
        assert!(
            results[0]
                .note
                .contains("checkpoint discarded (checkpoint server unreachable)"),
            "{}",
            results[0].note
        );
    }

    #[test]
    fn scheduled_ckpt_flip_is_logged_and_detected_on_restore() {
        // The plan's CkptFlip entry arms the server: every stored image for
        // job 1 gets one flipped bit plus a mem-flip scrubber record. The
        // FNV-1a trailer must catch the damage at restore — an explicit
        // discard, a cold restart, and still a completed job.
        let report = PoolBuilder::new(36)
            .machine(MachineSpec::healthy("interrupted", 1024))
            .machine(MachineSpec::healthy("backup", 128))
            .with_checkpoint_server()
            .faults(FaultPlan::new(vec![
                owner_returns(),
                Fault::CkptFlip { job: 1 },
            ]))
            .job(standard_job(600))
            .run(SimTime::from_secs(48 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1, "{:?}", report.jobs[&1]);
        assert!(report.metrics.checkpoints_taken >= 1);
        assert!(report.metrics.checkpoints_discarded >= 1);
        assert_eq!(report.metrics.checkpoints_restored, 0);
        let counts = report.telemetry.counts_by_kind();
        assert!(counts.get("mem-flip").copied().unwrap_or(0) >= 1);
        assert!(counts.get("ckpt-discarded").copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn scheduled_heap_flip_escapes_detection() {
        // The heap flip lands *after* digest validation: the restore
        // succeeds, nothing is discarded, and the job runs to normal
        // completion with silently corrupted state — an escape, visible
        // only in the scrubber's mem-flip record.
        let report = PoolBuilder::new(37)
            .machine(MachineSpec::healthy("interrupted", 1024))
            .machine(MachineSpec::healthy("backup", 128))
            .with_checkpoint_server()
            .faults(FaultPlan::new(vec![
                owner_returns(),
                Fault::HeapFlip {
                    job: 1,
                    bit: 0x1234_5678,
                },
            ]))
            .job(JobSpec {
                universe: Universe::Standard,
                ..JobSpec::java(1, "ada", programs::heap_sum(64), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(600))
            })
            .run(SimTime::from_secs(48 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1, "{:?}", report.jobs[&1]);
        assert!(report.metrics.checkpoints_restored >= 1);
        assert_eq!(report.metrics.checkpoints_discarded, 0);
        let counts = report.telemetry.counts_by_kind();
        assert!(counts.get("mem-flip").copied().unwrap_or(0) >= 1);
        // Completed normally: the corruption produced no error at all.
        assert!(matches!(report.jobs[&1].state, JobState::Completed { .. }));
    }

    #[test]
    fn periodic_checkpointing_loses_only_the_tail() {
        // With a 240s checkpoint period and eviction at 300s, only the
        // floored 240s is in the image; the 60s tail is honestly lost.
        let report = server_pool(33)
            .startd_policy(StartdPolicy {
                ckpt_period: Some(SimDuration::from_secs(240)),
                ..StartdPolicy::default()
            })
            .run(SimTime::from_secs(24 * 3600));
        assert_eq!(report.metrics.jobs_completed, 1, "{:?}", report.jobs[&1]);
        assert!(report.metrics.checkpoints_taken >= 1);
        assert!(report.metrics.checkpoints_restored >= 1);
        assert!(
            report.metrics.work_lost_to_eviction > SimDuration::ZERO,
            "period flooring must lose the tail past the last checkpoint"
        );
        assert_eq!(
            report.metrics.checkpointed_work.as_micros() % SimDuration::from_secs(240).as_micros(),
            0,
            "banked progress is a multiple of the checkpoint period"
        );
    }

    #[test]
    fn checkpoint_resumes_count_toward_the_attempt_budget() {
        // Resuming from a checkpoint is still a fresh attempt against the
        // budget: a job that keeps getting evicted parks at max_attempts
        // even though later attempts resumed banked progress.
        let owner = (0..30).map(|k| {
            let start = 200 + k * 400;
            Fault::OwnerActivity {
                machine: PoolBuilder::FIRST_MACHINE_ID,
                window: Window::new(SimTime::from_secs(start), SimTime::from_secs(start + 200)),
            }
        });
        let report = PoolBuilder::new(35)
            .machine(MachineSpec::healthy("flaky-owner", 1024))
            .with_checkpoint_server()
            .schedd_policy(ScheddPolicy {
                max_attempts: 3,
                ..ScheddPolicy::default()
            })
            .faults(FaultPlan::new(owner.collect()))
            .job(standard_job(5000))
            .run(SimTime::from_secs(48 * 3600));
        let rec = &report.jobs[&1];
        assert!(
            matches!(rec.state, JobState::Held { .. }),
            "a 5000s job cannot fit in 3 eviction-bounded attempts: {rec:?}"
        );
        assert_eq!(rec.attempts.len(), 3, "parks exactly at the budget");
        assert!(
            report.metrics.checkpoints_restored >= 1,
            "later attempts resumed from checkpoints yet still counted"
        );
        assert!(report.metrics.work_saved_by_checkpoint > SimDuration::ZERO);
    }

    #[test]
    fn server_mode_is_deterministic() {
        let run = || server_pool(34).run(SimTime::from_secs(24 * 3600));
        let a = run();
        let b = run();
        assert_eq!(a.metrics.checkpoints_taken, b.metrics.checkpoints_taken);
        assert_eq!(a.metrics.checkpoint_bytes, b.metrics.checkpoint_bytes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.finished_at, b.finished_at);
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use crate::faults::{Fault, NetFault, Window};
    use crate::health::{BreakerPolicy, RetryPolicy};
    use crate::job::{JavaMode, JobSpec};
    use crate::msg::LeaseInfo;
    use gridvm::programs;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn lease() -> Option<LeaseInfo> {
        Some(LeaseInfo {
            interval: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(30),
        })
    }

    /// The schedd is cut off from `machines` during `window`.
    fn schedd_cut_from(machines: &[usize], window: Window) -> Fault {
        Fault::Net {
            window,
            fault: NetFault::Partition {
                a: vec![PoolBuilder::SCHEDD_ID],
                b: machines.to_vec(),
            },
        }
    }

    /// A mid-run partition between the schedd and the only machine, with
    /// leasing on: both sides turn the silence into an explicit error, the
    /// startd frees itself, and the job completes exactly once after the
    /// partition heals.
    #[test]
    fn lease_converts_partition_into_explicit_error_on_both_sides() {
        let report = PoolBuilder::new(81)
            .machine(MachineSpec::healthy("m1", 256))
            .schedd_policy(ScheddPolicy {
                lease: lease(),
                ..ScheddPolicy::default()
            })
            .faults(FaultPlan::new(vec![schedd_cut_from(
                &[PoolBuilder::FIRST_MACHINE_ID],
                Window::new(t(30), t(600)),
            )]))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(120)),
            )
            .run(SimTime::from_secs(3600));
        assert!(report.quiescent);
        assert_eq!(report.metrics.jobs_completed, 1);
        // The schedd expired the lease instead of waiting out the (much
        // longer) report timeout…
        assert!(report.metrics.leases_expired >= 1, "{:?}", report.metrics);
        assert!(report.metrics.vanished_attempts >= 1);
        // …and the startd abandoned the orphaned claim from its side.
        let m = &report.machines[&PoolBuilder::FIRST_MACHINE_ID];
        assert!(m.leases_expired >= 1, "{m:?}");
        // Both sides' expirations are in the event stream.
        let sides: Vec<String> = report
            .telemetry
            .iter()
            .filter_map(|r| match &r.event {
                obs::Event::LeaseExpired { side, .. } => Some(side.clone()),
                _ => None,
            })
            .collect();
        assert!(sides.iter().any(|s| s == "schedd"), "{sides:?}");
        assert!(sides.iter().any(|s| s == "startd"), "{sides:?}");
        // Exactly one attempt actually produced the program result.
        let rec = &report.jobs[&1];
        let programs_run = rec
            .attempts
            .iter()
            .filter(|a| a.scope == Some(errorscope::Scope::Program))
            .count();
        assert_eq!(programs_run, 1, "{:?}", rec.attempts);
        assert!(rec.finished.unwrap() >= t(600), "completes after the heal");
    }

    /// A run's completion belongs to its claim. One machine, a 600-s job
    /// and the 10-s / 30-s lease: the machine loses the first attempt's
    /// claim — crashed over 100–130 s, or cut off from the schedd over
    /// 100–150 s — and is claimed for the second attempt, which runs its
    /// full 600 s. Without the epoch (and, for the crash, the engine's
    /// timer fence) the first attempt's timer, due at about 600 s, ends
    /// the second one there: at 610.005 s, 470 s after it started at
    /// 140.004 s, after the crash; 420 s in, after the cut.
    #[test]
    fn a_stale_completion_never_ends_a_later_attempt() {
        let machine = PoolBuilder::FIRST_MACHINE_ID;
        let crash = Fault::Crash {
            actor: machine,
            window: Window::new(t(100), t(130)),
        };
        let cut = schedd_cut_from(&[machine], Window::new(t(100), t(150)));
        for (name, fault) in [("crash", crash), ("partition", cut)] {
            let report = PoolBuilder::new(81)
                .machine(MachineSpec::healthy("m1", 256))
                .schedd_policy(ScheddPolicy {
                    lease: lease(),
                    ..ScheddPolicy::default()
                })
                .faults(FaultPlan::new(vec![fault]))
                .job(
                    JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(600)),
                )
                .run(SimTime::from_secs(3600));
            assert!(report.quiescent, "{name}");
            let attempts = &report.jobs[&1].attempts;
            let last = attempts.last().expect("attempts");
            assert!(attempts.len() >= 2, "{name}: {attempts:?}");
            assert_eq!(last.scope, Some(errorscope::Scope::Program), "{name}");
            let ran = last.ended.since(last.started).as_micros();
            let full = SimDuration::from_secs(600).as_micros();
            assert!((full..full + 10_000).contains(&ran), "{name}: {attempts:?}");
        }
    }

    /// The same partition without leasing recovers only via the report
    /// timeout: the lease strictly tightens detection.
    #[test]
    fn lease_detects_partition_before_report_timeout_would() {
        let run = |lease: Option<LeaseInfo>| {
            PoolBuilder::new(82)
                .machine(MachineSpec::healthy("m1", 256))
                .machine(MachineSpec::healthy("m2", 256))
                .schedd_policy(ScheddPolicy {
                    lease,
                    ..ScheddPolicy::default()
                })
                .faults(FaultPlan::new(vec![schedd_cut_from(
                    &[
                        PoolBuilder::FIRST_MACHINE_ID,
                        PoolBuilder::FIRST_MACHINE_ID + 1,
                    ],
                    Window::new(t(30), t(700)),
                )]))
                .job(
                    JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(120)),
                )
                .run(SimTime::from_secs(7200))
        };
        let leased = run(lease());
        let unleased = run(None);
        assert_eq!(leased.metrics.jobs_completed, 1);
        assert_eq!(unleased.metrics.jobs_completed, 1);
        assert!(leased.metrics.leases_expired >= 1);
        assert_eq!(unleased.metrics.leases_expired, 0);
        // The leased schedd learned of the dead claim while the partition
        // was still up; the unleased one needed the report timeout.
        let first_detect = |r: &RunReport| {
            r.telemetry
                .iter()
                .filter_map(|rec| match &rec.event {
                    obs::Event::Reschedule { .. } => Some(rec.at_us),
                    _ => None,
                })
                .next()
        };
        let (a, b) = (first_detect(&leased), first_detect(&unleased));
        assert!(
            a.unwrap() < b.unwrap(),
            "lease must detect first: {a:?} vs {b:?}"
        );
    }

    /// Total duplication on the schedd↔machine link: every frame arrives
    /// twice, yet epoch fencing keeps execution exactly-once — duplicates
    /// are counted, never acted on.
    #[test]
    fn duplicated_frames_are_fenced_not_replayed() {
        let report = PoolBuilder::new(83)
            .machine(MachineSpec::healthy("m1", 256))
            .schedd_policy(ScheddPolicy {
                lease: lease(),
                ..ScheddPolicy::default()
            })
            .faults(FaultPlan::new(vec![Fault::Net {
                window: Window::from(SimTime::ZERO),
                fault: NetFault::Duplication {
                    a: PoolBuilder::SCHEDD_ID,
                    b: PoolBuilder::FIRST_MACHINE_ID,
                    prob: 1.0,
                },
            }]))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(60)),
            )
            .run(SimTime::from_secs(3600));
        assert!(report.quiescent);
        assert_eq!(report.metrics.jobs_completed, 1);
        let rec = &report.jobs[&1];
        assert_eq!(rec.attempts.len(), 1, "exactly one execution: {rec:?}");
        assert_eq!(
            report.machines[&PoolBuilder::FIRST_MACHINE_ID].executions,
            1
        );
        // The duplicate report (and any duplicate heartbeats racing the
        // close) were fenced and counted.
        assert!(
            report.metrics.stale_epochs_dropped >= 1,
            "{:?}",
            report.metrics
        );
        assert!(report.net.duplicated_total() >= 1);
        // The per-link counter is projected into the registry.
        let reg = report.registry();
        let link = format!(
            "{}-{}",
            PoolBuilder::SCHEDD_ID,
            PoolBuilder::FIRST_MACHINE_ID
        );
        assert!(reg.counter("net_msgs_duplicated", &[("link", &link)]) >= 1);
    }

    /// During an outage, exponential backoff plus a circuit breaker sends
    /// strictly fewer claim requests than the fixed-delay kernel — the
    /// retry traffic thins out instead of hammering the dead link.
    #[test]
    fn backoff_and_breaker_quiet_the_outage() {
        let outage = (t(20), t(800));
        let run = |retry: RetryPolicy, breaker: Option<BreakerPolicy>| {
            PoolBuilder::new(84)
                .machine(MachineSpec::healthy("m1", 256))
                .schedd_policy(ScheddPolicy {
                    retry,
                    breaker,
                    ..ScheddPolicy::default()
                })
                .faults(FaultPlan::new(vec![schedd_cut_from(
                    &[PoolBuilder::FIRST_MACHINE_ID],
                    Window::new(outage.0, outage.1),
                )]))
                .job(
                    JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(60)),
                )
                .run(SimTime::from_secs(7200))
        };
        let requests_during_outage = |r: &RunReport| {
            r.telemetry
                .iter()
                .filter(|rec| {
                    matches!(
                        rec.event,
                        obs::Event::Claim {
                            outcome: obs::ClaimOutcome::Requested,
                            ..
                        }
                    ) && rec.at_us >= outage.0.as_micros()
                        && rec.at_us < outage.1.as_micros()
                })
                .count()
        };
        let fixed = run(RetryPolicy::Fixed(SimDuration::from_secs(10)), None);
        let adaptive = run(
            RetryPolicy::Backoff {
                base: SimDuration::from_secs(10),
                max: SimDuration::from_secs(60),
                jitter: 0.1,
            },
            Some(BreakerPolicy::default()),
        );
        // Both recover once the partition heals.
        assert_eq!(fixed.metrics.jobs_completed, 1);
        assert_eq!(adaptive.metrics.jobs_completed, 1);
        let (n_fixed, n_adaptive) = (
            requests_during_outage(&fixed),
            requests_during_outage(&adaptive),
        );
        assert!(
            n_adaptive < n_fixed,
            "backoff+breaker must send fewer claims during the outage: \
             {n_adaptive} vs {n_fixed}"
        );
        assert!(adaptive.metrics.breaker_opens >= 1);
        assert!(adaptive.telemetry.iter().any(
            |rec| matches!(&rec.event, obs::Event::BreakerStateChange { to, .. } if to == "open")
        ));
    }

    /// A mixed plan — partition, loss, and duplication windows — is fully
    /// deterministic: two same-seed runs yield bit-identical snapshots.
    #[test]
    fn mixed_net_fault_plan_is_deterministic() {
        let run = || {
            PoolBuilder::new(85)
                .machine(MachineSpec::healthy("m1", 256))
                .machine(MachineSpec::healthy("m2", 256))
                .schedd_policy(ScheddPolicy {
                    lease: lease(),
                    breaker: Some(BreakerPolicy::default()),
                    ..ScheddPolicy::default()
                })
                .faults(FaultPlan::new(vec![
                    schedd_cut_from(&[PoolBuilder::FIRST_MACHINE_ID], Window::new(t(40), t(300))),
                    Fault::Net {
                        window: Window::new(t(10), t(200)),
                        fault: NetFault::Loss {
                            a: PoolBuilder::SCHEDD_ID,
                            b: PoolBuilder::FIRST_MACHINE_ID + 1,
                            prob: 0.5,
                        },
                    },
                    Fault::Net {
                        window: Window::new(t(200), t(500)),
                        fault: NetFault::Duplication {
                            a: PoolBuilder::SCHEDD_ID,
                            b: PoolBuilder::FIRST_MACHINE_ID + 1,
                            prob: 1.0,
                        },
                    },
                ]))
                .jobs((1..=3).map(|i| {
                    JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(60))
                }))
                .run(SimTime::from_secs(7200))
        };
        let a = run();
        let b = run();
        assert_eq!(a.registry().snapshot_json(), b.registry().snapshot_json());
        assert_eq!(a.events, b.events);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.net, b.net);
        assert_eq!(a.metrics.jobs_completed, 3);
        // The loss window actually ate something, and the drop counter is
        // projected per-link.
        assert!(a.net.dropped_total() >= 1);
        let reg = a.registry();
        let link = format!(
            "{}-{}",
            PoolBuilder::SCHEDD_ID,
            PoolBuilder::FIRST_MACHINE_ID + 1
        );
        assert!(reg.counter("net_msgs_dropped", &[("link", &link)]) >= 1);
    }
}

#[cfg(test)]
mod multi_schedd_tests {
    use super::*;
    use crate::job::{JavaMode, JobSpec};
    use gridvm::programs;

    #[test]
    fn two_submitters_share_the_pool() {
        let report = PoolBuilder::new(41)
            .machine(MachineSpec::healthy("a", 256))
            .machine(MachineSpec::healthy("b", 256))
            .jobs((1..=3).map(|i| {
                JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(30))
            }))
            .extra_schedd((1..=3).map(|i| {
                JobSpec::java(i, "bob", programs::calls_exit(1), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(30))
            }))
            .run(SimTime::from_secs(3600));
        assert!(report.quiescent);
        assert_eq!(report.metrics.jobs_completed, 3, "ada's jobs all finish");
        assert_eq!(report.extra_schedds.len(), 1);
        let bob = &report.extra_schedds[0];
        assert_eq!(bob.metrics.jobs_completed, 3, "bob's jobs all finish");
        // Job ids are per-schedd namespaces: both queues have ids 1..=3.
        assert!(bob.jobs.contains_key(&1));
        // Both submitters actually used the machines.
        let total_execs: u64 = report.machines.values().map(|m| m.executions).sum();
        assert_eq!(total_execs, 6);
    }

    #[test]
    fn submitters_compete_for_one_machine() {
        // One machine, two schedds with one job each: they serialise.
        let report = PoolBuilder::new(42)
            .machine(MachineSpec::healthy("only", 256))
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(100)),
            )
            .extra_schedd(vec![JobSpec::java(
                1,
                "bob",
                programs::completes_main(),
                JavaMode::Scoped,
            )
            .with_exec_time(SimDuration::from_secs(100))])
            .run(SimTime::from_secs(3600));
        assert!(report.quiescent);
        assert_eq!(report.metrics.jobs_completed, 1);
        assert_eq!(report.extra_schedds[0].metrics.jobs_completed, 1);
        // Serialised: the second job finished at least ~100s after the
        // first.
        let t1 = report.jobs[&1].finished.unwrap();
        let t2 = report.extra_schedds[0].jobs[&1].finished.unwrap();
        let gap = if t2 > t1 { t2 - t1 } else { t1 - t2 };
        assert!(gap >= SimDuration::from_secs(90), "gap {gap}");
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::job::{JavaMode, JobSpec, JobState};
    use gridvm::programs;

    /// Machine owners express admission policy in ClassAds: a machine that
    /// only accepts jobs from one owner rejects everyone else at both the
    /// matchmaking and the claim-verification layers.
    #[test]
    fn owner_policy_gates_by_submitter() {
        let mut exclusive = MachineSpec::healthy("adas-box", 1024);
        exclusive.owner_requirements =
            "TARGET.ImageSize <= MY.Memory && TARGET.Owner == \"ada\"".into();
        let report = PoolBuilder::new(61)
            .machine(exclusive)
            .machine(MachineSpec::healthy("shared", 128))
            .jobs(vec![
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(30)),
                JobSpec::java(2, "bob", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(30)),
            ])
            .run(SimTime::from_secs(3600));
        assert_eq!(report.metrics.jobs_completed, 2);
        // Ada's job ranks the big exclusive machine highest and gets it;
        // Bob's job can only ever run on the shared machine.
        assert_eq!(
            report.jobs[&1].attempts[0].machine,
            PoolBuilder::FIRST_MACHINE_ID
        );
        assert_eq!(
            report.jobs[&2].attempts[0].machine,
            PoolBuilder::FIRST_MACHINE_ID + 1
        );
    }

    /// A machine too small for every job leaves the queue idle forever —
    /// no match, no error, exactly Condor's semantics for unsatisfiable
    /// requirements.
    #[test]
    fn unsatisfiable_requirements_idle_forever() {
        let mut big_job = JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped);
        big_job.image_size = 4096;
        let report = PoolBuilder::new(62)
            .machine(MachineSpec::healthy("small", 128))
            .job(big_job)
            .run(SimTime::from_secs(600));
        assert!(!report.quiescent);
        assert_eq!(report.jobs[&1].state, JobState::Idle);
        assert!(report.jobs[&1].attempts.is_empty());
        assert_eq!(report.metrics.jobs_finished(), 0);
    }

    /// Attempt histories carry machine, scope, and timing for every try —
    /// Figure 3's "Summary of All Execution Attempts".
    #[test]
    fn attempt_summary_is_complete() {
        let report = PoolBuilder::new(63)
            .machine(MachineSpec::misconfigured("bad", 1024))
            .machine(MachineSpec::healthy("good", 128))
            .schedd_policy(ScheddPolicy {
                avoid_chronic_hosts: true,
                avoid_threshold: 1,
                ..ScheddPolicy::default()
            })
            .job(
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(30)),
            )
            .run(SimTime::from_secs(3600));
        let rec = &report.jobs[&1];
        assert!(rec.attempts.len() >= 2);
        for (i, a) in rec.attempts.iter().enumerate() {
            assert!(a.ended >= a.started, "attempt {i} times ordered");
            assert!(!a.note.is_empty(), "attempt {i} has a note");
        }
        // Ends with the program result; earlier entries are environmental.
        assert_eq!(
            rec.attempts.last().unwrap().scope,
            Some(errorscope::Scope::Program)
        );
        assert!(rec
            .attempts
            .iter()
            .take(rec.attempts.len() - 1)
            .all(|a| a.scope != Some(errorscope::Scope::Program)));
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use crate::job::{JavaMode, JobSpec};
    use gridvm::programs;

    #[test]
    fn queue_and_history_render() {
        let report = PoolBuilder::new(71)
            .machine(MachineSpec::healthy("m", 256))
            .jobs(vec![
                JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                    .with_exec_time(SimDuration::from_secs(10)),
                JobSpec::java(2, "bob", programs::corrupt_image(), JavaMode::Scoped),
            ])
            .run(SimTime::from_secs(3600));
        let q = report.render_queue();
        assert!(q.contains("OWNER"), "{q}");
        assert!(q.contains("ada"));
        assert!(q.contains("done: completed(exit=0)"), "{q}");
        assert!(q.contains("unexecutable"), "{q}");

        let h = report.render_history(1);
        assert!(h.contains("attempt 1"), "{h}");
        assert!(h.contains("program"), "{h}");
        assert!(report.render_history(99).contains("no such job"));
    }
}

#[cfg(test)]
mod flock_tests {
    use super::*;
    use crate::faults::{Fault, Window};
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
        let grid = PoolBuilder::new(41)
            .pool([MachineSpec::healthy("r1", 256)])
            .job(job(1));
        let (layout, remote) = (grid.layout(), grid.machine_ids(1));
        let (mut world, _, _) = grid.build();
        layout.drain(&mut world, deadline());
        let report = layout.report(&world);
        assert!(report.quiescent, "{:?}", report.jobs);
        assert_eq!(report.metrics.jobs_completed, 1);
        assert!(report.metrics.flock_escalations >= 1);
        let pool1 = world.get::<Matchmaker>(PoolBuilder::matchmaker_id(1));
        assert_eq!(pool1.unwrap().flock_grants, 1, "pool 1 served the probe");
        // The one attempt ran on pool 1's machine.
        let rec = &report.jobs[&1];
        let machine = rec.attempts.last().unwrap().machine;
        assert!(remote.contains(&machine));
    }

    #[test]
    fn saturated_pool_is_an_explicit_denial_not_silence() {
        // Pool 1 is empty (saturated); pool 2 has the machine. The denial
        // from pool 1 must surface as an explicit pool-scope FlockFault,
        // and the job must still complete via pool 2.
        let report = PoolBuilder::new(42)
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
        let grid = PoolBuilder::new(43)
            .pool([MachineSpec::healthy("r1", 256)])
            .pool([MachineSpec::healthy("r2", 256)])
            .faults(FaultPlan::new(vec![Fault::Crash {
                actor: PoolBuilder::matchmaker_id(1),
                window: Window::from(SimTime::ZERO),
            }]))
            .job(job(1));
        let pool2 = grid.machine_ids(2);
        let report = grid.run(deadline());
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
        assert!(pool2.contains(&machine));
    }

    #[test]
    fn same_seed_same_federation_report() {
        let run = || {
            PoolBuilder::new(44)
                .machine(MachineSpec::healthy("h1", 128))
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

#[cfg(test)]
mod layout_tests {
    use super::*;

    fn healthy(name: &str) -> MachineSpec {
        MachineSpec::healthy(name, 256)
    }

    /// Build `grid` and check that its schedd, each of its `pools`'
    /// matchmakers and every machine sit at the ids it names, in the pool
    /// it names.
    fn assert_layout_hosts(grid: PoolBuilder, pools: u64) -> World<Msg> {
        let ids: Vec<Range<usize>> = (0..pools).map(|p| grid.machine_ids(p)).collect();
        let schedd = grid.schedd_id();
        let (world, built, machines) = grid.build();
        assert_eq!(
            (built, machines),
            (schedd, ids.iter().cloned().flatten().collect())
        );
        assert!(world.get::<Schedd>(schedd).is_some());
        for (p, ids) in (0..).zip(ids) {
            let mm = world.get::<Matchmaker>(PoolBuilder::matchmaker_id(p));
            assert_eq!(mm.expect("matchmaker").pool_id, p);
            for id in ids {
                assert_eq!(world.get::<Startd>(id).expect("startd").pool_id, p);
            }
        }
        world
    }

    #[test]
    fn every_id_of_the_layout_hosts_its_actor() {
        // Three pools around an empty home pool, as partition-during-flock.
        let fed = PoolBuilder::new(1)
            .pool([healthy("r1")])
            .pool([healthy("r2"), healthy("r3")]);
        let ids = (0..3).map(|p| fed.machine_ids(p)).collect::<Vec<_>>();
        assert_eq!((fed.schedd_id(), ids), (3, vec![4..4, 4..5, 5..7]));
        assert_layout_hosts(fed, 3);

        // One pool, with an extra schedd and a checkpoint server after the
        // machines: the one-pool ids.
        let one = PoolBuilder::new(1)
            .machines([healthy("m1"), healthy("m2")])
            .extra_schedd([])
            .with_checkpoint_server();
        let first = PoolBuilder::FIRST_MACHINE_ID;
        assert_eq!(PoolBuilder::matchmaker_id(0), PoolBuilder::MATCHMAKER_ID);
        assert_eq!(one.schedd_id(), PoolBuilder::SCHEDD_ID);
        assert_eq!(one.machine_ids(0), first..first + 2);
        let layout = one.layout();
        assert_eq!(layout.schedds, [PoolBuilder::SCHEDD_ID, first + 2]);
        assert_eq!(layout.ckpt_server, Some(first + 3));
        let world = assert_layout_hosts(one, 1);
        assert!(world.get::<Schedd>(first + 2).is_some());
        assert!(world.get::<CkptServer>(first + 3).is_some());
    }
}
