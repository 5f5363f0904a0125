//! The campaign generator: a pure function from a seed to a fault
//! schedule and the pool that runs it.
//!
//! Every draw flows through an in-crate SplitMix64, so a [`Campaign`] is
//! a deterministic function of its seed — the same seed yields a
//! byte-identical [`Campaign::describe`] on any thread of any sweep, which
//! is what lets `exp e12` gate on artifact byte-identity and lets a
//! red seed be replayed in isolation.
//!
//! The sampled schedules are adversarial but *survivable by design*: the
//! oracle's P4 (no lost work) only means something if a correct kernel can
//! actually drain every queue, so the generator enforces liveness
//! invariants structurally rather than hoping:
//!
//! * the last healthy machine is an anchor — never crashed, never the
//!   owner's desk, and never a net-fault endpoint, so one reachable
//!   execution site always remains (the full campaign sweep found each
//!   of those three clauses the hard way: chronic-host avoidance is
//!   permanent, so even a *bounded* loss window on the anchor's link
//!   can blacklist the last machine and strand the queue);
//! * crashes may land on any machine *except* the anchor — the rail is
//!   "a healthy anchor always remains", not "only the first machine may
//!   die" — and every other fault window is bounded well inside the
//!   48-hour deadline;
//! * chronic-host avoidance and claim leases are always on, so black
//!   holes and partitions become explicit, routable errors instead of
//!   infinite retry loops.
//!
//! Within those rails everything else composes freely: a checkpoint
//! campaign can lose its first machine to the owner, its image to a
//! stored-bit flip, and its link to a partition in the same run.

use condor::prelude::*;
use condor::PoolBuilder as PB;
use desim::{SimDuration, SimTime};
use gridvm::config::SelfTestDepth;
use gridvm::programs;
use std::fmt::Write as _;

/// SplitMix64 (Steele et al.), the whole PRNG in eight lines: no external
/// crate, stable across platforms, and trivially auditable — exactly what
/// a replayable fuzzer wants from its entropy source.
pub struct Rng(u64);

impl Rng {
    /// Seed the stream.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A machine that is present but wrong, in one of the paper's two ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RogueKind {
    /// §5's black hole: a well-resourced machine that accepts every job
    /// and breaks every one.
    BlackHole,
    /// A partial Java installation: passes the trivial self-test, fails
    /// any job that touches the standard library.
    PartialInstall,
}

/// Which program image a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Completes normally.
    CompletesMain,
    /// Long arithmetic loop.
    CpuBound,
    /// Calls `exit(0)` explicitly.
    CallsExit,
    /// Touches the standard library (the bad-install victim).
    UsesStdlib,
    /// Allocates and sums a heap array — the bit-flip victim, whose
    /// output makes silent corruption visible as a wrong sum.
    HeapSum,
    /// A seeded program from the shared [`programs::generate_with`]
    /// generator (the same one behind the gridvm unit corpus and the E14
    /// differential harness): hot loops with fault-armed bodies, so the
    /// campaign also exercises the trace tier and mid-loop program
    /// exceptions. I/O is disabled — these jobs don't declare remote
    /// files — and the payload seed keeps the image a pure function of
    /// the campaign seed.
    Generated(u64),
}

impl Program {
    fn name(self) -> String {
        match self {
            Program::CompletesMain => "completes-main".into(),
            Program::CpuBound => "cpu-bound".into(),
            Program::CallsExit => "calls-exit".into(),
            Program::UsesStdlib => "uses-stdlib".into(),
            Program::HeapSum => "heap-sum".into(),
            Program::Generated(seed) => format!("generated-{seed}"),
        }
    }

    fn image(self) -> Vec<u8> {
        match self {
            Program::CompletesMain => programs::completes_main(),
            Program::CpuBound => programs::cpu_bound(2000),
            Program::CallsExit => programs::calls_exit(0),
            Program::UsesStdlib => programs::uses_stdlib(),
            Program::HeapSum => programs::heap_sum(64),
            Program::Generated(seed) => programs::generate_with(
                seed,
                &programs::GenOptions {
                    include_io: false,
                    include_faults: true,
                },
            ),
        }
    }
}

/// One job in the campaign's queue.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// Queue id.
    pub id: u32,
    /// Program image.
    pub program: Program,
    /// Nominal execution time, seconds.
    pub exec_secs: u64,
    /// Standard universe (checkpointing) instead of Java.
    pub standard: bool,
}

/// A fully-sampled fault campaign: topology, queue, and schedule.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The generator seed (also the pool seed).
    pub seed: u64,
    /// Healthy machine count (the last one is the liveness anchor).
    pub machines: usize,
    /// An additional broken machine, if any.
    pub rogue: Option<RogueKind>,
    /// Whether the schedd runs per-machine circuit breakers.
    pub breaker: bool,
    /// The queue.
    pub jobs: Vec<JobPlan>,
    /// The fault schedule, in draw order: owner activity on the first
    /// machine (evicting the standard job mid-run, forcing the checkpoint
    /// round-trip), the bit-flip arm, network faults on schedd–machine
    /// links, and a machine crash — each only if sampled.
    pub faults: Vec<Fault>,
}

/// The campaign deadline: generous enough that any run the kernel *can*
/// finish, it does — so a non-quiescent run is a real liveness bug, not a
/// tight budget.
pub fn deadline() -> SimTime {
    SimTime::from_secs(48 * 3600)
}

/// Sample the campaign for `seed`. Pure: same seed, same campaign.
pub fn generate(seed: u64) -> Campaign {
    let mut rng = Rng::new(seed);
    let machines = 2 + rng.below(2) as usize;
    let rogue = match rng.below(10) {
        0..=2 => Some(RogueKind::BlackHole),
        3..=4 => Some(RogueKind::PartialInstall),
        _ => None,
    };
    let breaker = rng.chance(40);

    let mut jobs = Vec::new();
    let standard = rng.chance(65);
    if standard {
        jobs.push(JobPlan {
            id: 1,
            program: Program::HeapSum,
            exec_secs: 600,
            standard: true,
        });
    }
    let extra = 1 + rng.below(3);
    for _ in 0..extra {
        let program = match rng.below(4) {
            0 => Program::CompletesMain,
            1 => Program::CpuBound,
            2 => Program::CallsExit,
            _ => Program::UsesStdlib,
        };
        jobs.push(JobPlan {
            id: jobs.len() as u32 + 1,
            program,
            exec_secs: 30 + rng.below(120),
            standard: false,
        });
    }

    // The eviction window and the flip arm exist only when there is a
    // checkpointing job for them to act on.
    let mut faults = Vec::new();
    if standard {
        let from = 240 + rng.below(240);
        faults.push(Fault::OwnerActivity {
            machine: PB::FIRST_MACHINE_ID,
            window: Window::new(secs(from), secs(3600 + rng.below(1800))),
        });
        match rng.below(10) {
            0..=3 => faults.push(Fault::HeapFlip {
                job: 1,
                bit: rng.next_u64(),
            }),
            4..=6 => faults.push(Fault::CkptFlip { job: 1 }),
            _ => {}
        }
    }

    // Bounded network trouble on schedd-machine links. The anchor is
    // never an endpoint: chronic-host avoidance is permanent, so a lossy
    // anchor link could blacklist the last machine (two lease expiries
    // suffice) and strand the queue with every fault long over.
    let mut eligible: Vec<usize> = (0..machines - 1)
        .map(|i| PB::FIRST_MACHINE_ID + i)
        .collect();
    if rogue.is_some() {
        eligible.push(PB::FIRST_MACHINE_ID + machines);
    }
    let s = PB::SCHEDD_ID;
    for _ in 0..rng.below(3) {
        // Loss and duplication probabilities and latencies are drawn in
        // steps of 50 (permille or milliseconds).
        let kind = rng.below(4);
        let step = match kind {
            0 => 0,
            2 => 50 + rng.below(8) * 50,
            _ => 50 + rng.below(10) * 50,
        };
        let m = eligible[rng.below(eligible.len() as u64) as usize];
        let from = 60 + rng.below(900);
        let window = Window::new(secs(from), secs(from + 120 + rng.below(1500)));
        let prob = step as f64 / 1000.0;
        let fault = match kind {
            0 => NetFault::Partition {
                a: vec![s],
                b: vec![m],
            },
            1 => NetFault::Loss { a: s, b: m, prob },
            2 => NetFault::LatencySpike {
                a: s,
                b: m,
                latency: SimDuration::from_millis(step),
            },
            _ => NetFault::Duplication { a: s, b: m, prob },
        };
        faults.push(Fault::Net { window, fault });
    }

    // Crashes may hit any non-anchor machine (the same eligibility set
    // as the net faults): the liveness rail is that *some* healthy
    // anchor survives, not that only the first machine may die. An
    // unbounded crash stays legal anywhere in the set for the same
    // reason — the anchor outlives it.
    if rng.chance(35) {
        let actor = eligible[rng.below(eligible.len() as u64) as usize];
        let from = 200 + rng.below(1800);
        let window = if rng.chance(30) {
            Window::from(secs(from))
        } else {
            Window::new(secs(from), secs(from + 600 + rng.below(1800)))
        };
        faults.push(Fault::Crash { actor, window });
    }

    // A job from the shared random-program generator joins some queues.
    // Sampled last, from fresh draws, so every decision above is identical
    // to what the same seed produced before this arm existed — replayed
    // red seeds stay red.
    if rng.chance(40) {
        jobs.push(JobPlan {
            id: jobs.len() as u32 + 1,
            program: Program::Generated(rng.below(1 << 32)),
            exec_secs: 30 + rng.below(120),
            standard: false,
        });
    }

    Campaign {
        seed,
        machines,
        rogue,
        breaker,
        jobs,
        faults,
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

impl Campaign {
    /// The pool for this campaign. `faulty = false` builds the identical
    /// topology with every injected fault removed (the rogue machine
    /// becomes a healthy twin of the same size), giving the byte-identical
    /// reference stream the post-mortem localizer diffs against.
    pub fn build_pool(&self, faulty: bool) -> PoolBuilder {
        let mut builder = PoolBuilder::new(self.seed);
        for i in 0..self.machines {
            // The first machine is the checkpoint campaign's favorite
            // (most memory, so the standard job lands there first); the
            // rest are small.
            let mem = if i == 0 { 2048 } else { 256 };
            builder = builder.machine(MachineSpec::healthy(&format!("site{i}"), mem));
        }
        if let Some(kind) = self.rogue {
            builder = builder.machine(match (kind, faulty) {
                (RogueKind::BlackHole, true) => MachineSpec::misconfigured("rogue", 512),
                (RogueKind::PartialInstall, true) => {
                    MachineSpec::partially_misconfigured("rogue", 512)
                }
                (_, false) => MachineSpec::healthy("rogue", 512),
            });
        }
        if self.rogue == Some(RogueKind::PartialInstall) {
            // A deep self-test would catch the partial install at claim
            // time; the paper's incident was only visible at job time.
            builder = builder.startd_policy(StartdPolicy {
                self_test: SelfTestDepth::Trivial,
                learn_from_failures: true,
                ..StartdPolicy::default()
            });
        }
        builder = builder.schedd_policy(ScheddPolicy {
            lease: Some(LeaseInfo {
                interval: SimDuration::from_secs(10),
                timeout: SimDuration::from_secs(30),
            }),
            avoid_chronic_hosts: true,
            avoid_threshold: 2,
            max_attempts: 60,
            breaker: self.breaker.then(BreakerPolicy::default),
            ..ScheddPolicy::default()
        });
        for j in &self.jobs {
            let mut spec = JobSpec::java(j.id, "ada", j.program.image(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(j.exec_secs));
            if j.standard {
                spec.universe = Universe::Standard;
            }
            builder = builder.job(spec);
        }
        // `PoolBuilder::build` validates the plan through
        // `FaultPlan::try_build`, so a generator bug that produces an
        // inverted window fails fast with the entry named.
        let plan = if faulty {
            FaultPlan::new(self.faults.clone())
        } else {
            FaultPlan::none()
        };
        builder.with_checkpoint_server().faults(plan)
    }

    /// Run the campaign (or its fault-free reference) to the deadline.
    pub fn run(&self, faulty: bool) -> RunReport {
        self.build_pool(faulty).run(deadline())
    }

    /// A stable, line-oriented rendering of everything the generator
    /// decided. Two `Campaign`s describe identically iff they would build
    /// identical pools, so this string is the determinism witness the
    /// property tests and the sweep harness compare.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign seed={} machines={} rogue={} breaker={}",
            self.seed,
            self.machines,
            match self.rogue {
                Some(RogueKind::BlackHole) => "black-hole",
                Some(RogueKind::PartialInstall) => "partial-install",
                None => "none",
            },
            self.breaker
        );
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "  job {} {} exec={}s universe={}",
                j.id,
                j.program.name(),
                j.exec_secs,
                if j.standard { "standard" } else { "java" }
            );
        }
        for f in &self.faults {
            let _ = writeln!(out, "  {f}");
        }
        out
    }
}

/// The deliberately broken kernel for the oracle's negative control: a
/// naive-mode pool around a black hole, where environment errors reach
/// the user dressed as results (the pre-error-scope Condor of §2). A
/// correct oracle must flag it; a correct localizer must name the rogue
/// machine. `faulty = false` is the same-seed healthy reference for the
/// post-mortem.
pub fn negative_control_pool(seed: u64, faulty: bool) -> PoolBuilder {
    let rogue = if faulty {
        MachineSpec::misconfigured("rogue", 4096)
    } else {
        MachineSpec::healthy("rogue", 4096)
    };
    PoolBuilder::new(seed)
        .machine(rogue)
        .machine(MachineSpec::healthy("ok", 256))
        .jobs((1..=3).map(|i| {
            JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Naive)
                .with_exec_time(SimDuration::from_secs(60))
        }))
}

/// A fully-sampled federation campaign: pool topology, queue, and the
/// remote-pool fault schedule. The liveness rail generalizes the
/// single-pool anchor: the *last* pool is the anchor pool — never a
/// fault target — so some pool always retains healthy, reachable
/// machines and P4 stays meaningful.
#[derive(Debug, Clone)]
pub struct FlockCampaign {
    /// The generator seed (also the federation seed).
    pub seed: u64,
    /// Machines per pool; index 0 is the home pool (kept small or empty
    /// so flocking actually happens), the last pool is the anchor.
    pub pools: Vec<usize>,
    /// Nominal execution time of each job, seconds (queue ids are
    /// `1..=jobs.len()`).
    pub jobs: Vec<u64>,
    /// The remote-pool fault schedule, in draw order: a remote
    /// matchmaker crash, a partition between the schedd and a remote pool
    /// (its matchmaker and machines), or a flock revocation on each of a
    /// remote pool's machines.
    pub faults: Vec<Fault>,
}

/// Sample the federation campaign for `seed`. Pure: same seed, same
/// campaign.
pub fn generate_flock(seed: u64) -> FlockCampaign {
    let mut rng = Rng::new(seed);
    let n_pools = 3 + rng.below(3) as usize;
    let mut pools = Vec::with_capacity(n_pools);
    // A starved home pool: zero or one machine, so most of the queue
    // must flock.
    pools.push(rng.below(2) as usize);
    for _ in 1..n_pools {
        pools.push(1 + rng.below(2) as usize);
    }
    let jobs = (0..2 + rng.below(4)).map(|_| 30 + rng.below(90)).collect();
    // Fault targets exclude pool 0 (home: faults there are just the
    // saturation flocking already exercises) and the anchor pool.
    let targets = (n_pools - 2) as u64;
    let grid = federation(seed, &pools);
    let mut faults = Vec::new();
    for _ in 0..1 + rng.below(2) {
        let kind = rng.below(3);
        let pool = 1 + rng.below(targets);
        let from = rng.below(300);
        let window = Window::new(secs(from), secs(from + 300 + rng.below(1200)));
        match kind {
            0 => faults.push(Fault::Crash {
                actor: PB::matchmaker_id(pool),
                window,
            }),
            1 => faults.push(Fault::Net {
                window,
                fault: NetFault::Partition {
                    a: vec![grid.schedd_id()],
                    b: std::iter::once(PB::matchmaker_id(pool))
                        .chain(grid.machine_ids(pool))
                        .collect(),
                },
            }),
            _ => faults.extend(
                (grid.machine_ids(pool)).map(|machine| Fault::FlockRevocation { machine, window }),
            ),
        }
    }
    FlockCampaign {
        seed,
        pools,
        jobs,
        faults,
    }
}

/// The federation's pools: `pools[p]` healthy machines in pool `p`.
fn federation(seed: u64, pools: &[usize]) -> PB {
    let machines =
        |p: usize| (0..pools[p]).map(move |i| MachineSpec::healthy(&format!("p{p}m{i}"), 256));
    (1..pools.len()).fold(PB::new(seed).machines(machines(0)), |b, p| {
        b.pool(machines(p))
    })
}

impl FlockCampaign {
    /// The federation for this campaign. `faulty = false` builds the
    /// identical topology with the fault schedule removed — the
    /// reference stream for the post-mortem localizer.
    pub fn build(&self, faulty: bool) -> PB {
        let plan = if faulty {
            FaultPlan::new(self.faults.clone())
        } else {
            FaultPlan::none()
        };
        let jobs = self.jobs.iter().enumerate().map(|(i, &exec)| {
            JobSpec::java(
                i as u32 + 1,
                "ada",
                programs::completes_main(),
                JavaMode::Scoped,
            )
            .with_exec_time(SimDuration::from_secs(exec))
        });
        federation(self.seed, &self.pools)
            .jobs(jobs)
            .schedd_policy(ScheddPolicy {
                max_attempts: 60,
                ..ScheddPolicy::default()
            })
            .faults(plan)
    }

    /// Run the campaign (or its fault-free reference) to the deadline.
    pub fn run(&self, faulty: bool) -> RunReport {
        self.build(faulty).run(deadline())
    }

    /// Stable, line-oriented determinism witness (same contract as
    /// [`Campaign::describe`]).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flock-campaign seed={} pools={:?} jobs={:?}",
            self.seed, self.pools, self.jobs
        );
        for f in &self.faults {
            let _ = writeln!(out, "  {f}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check, RunSummary};
    use condor::culprit_link;
    use obs_analyze::Stream;

    /// Does `plan` take actor `id` down at any time?
    fn crashes(plan: &FaultPlan, id: usize) -> bool {
        (plan.faults().iter()).any(|f| matches!(f, Fault::Crash { actor, .. } if *actor == id))
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(generate(seed).describe(), generate(seed).describe());
        }
    }

    #[test]
    fn seeds_differ() {
        // Not a tautology: a generator that ignored its seed would pass
        // every determinism gate while fuzzing nothing.
        let a = generate(100).describe();
        assert!((101..140).any(|s| generate(s).describe() != a));
    }

    #[test]
    fn every_generated_plan_validates() {
        for seed in 0..200 {
            let c = generate(seed);
            let plan = FaultPlan::new(c.faults.clone())
                .try_build()
                .unwrap_or_else(|e| panic!("seed {seed}: generator built a bad plan: {e}"));
            assert!(!c.jobs.is_empty(), "seed {seed}: empty queue");
            // The liveness rails: neither a crash window nor a net fault
            // ever touches the anchor — a healthy anchor always remains.
            // Every net entry labels each of its endpoints.
            let anchor = PB::FIRST_MACHINE_ID + c.machines - 1;
            assert!(!crashes(&plan, anchor), "seed {seed}: crash on the anchor");
            assert!(
                !plan.accepted_culprits().contains(&culprit_link(anchor)),
                "seed {seed}: net fault on the anchor"
            );
        }
    }

    #[test]
    fn a_sampled_campaign_runs_clean_through_the_oracle() {
        // One full end-to-end spin of a seed known to compose an owner
        // eviction with a flip arm; the sweep harness does thousands.
        let c = generate(3);
        assert!(
            c.faults
                .iter()
                .any(|f| matches!(f, Fault::HeapFlip { .. } | Fault::CkptFlip { .. })),
            "seed 3 should arm the flip for this test"
        );
        let report = c.run(true);
        let stream = Stream::from_collector(&report.telemetry).unwrap();
        let summary = RunSummary::of(&report);
        let violations = check(&stream, &summary);
        assert!(
            violations.is_empty(),
            "oracle fired on a correct kernel: {violations:?}"
        );
    }

    #[test]
    fn a_campaign_with_a_generated_program_runs_clean_through_the_oracle() {
        // The shared-generator arm must compose with the oracle like any
        // canned program: its mid-loop faults are program-scope results,
        // not environment errors, and the kernel stays quiescent.
        let c = (0..50u64)
            .map(generate)
            .find(|c| {
                c.jobs
                    .iter()
                    .any(|j| matches!(j.program, Program::Generated(_)))
            })
            .expect("some seed in 0..50 samples the generated arm");
        let report = c.run(true);
        let stream = Stream::from_collector(&report.telemetry).unwrap();
        let summary = RunSummary::of(&report);
        let violations = check(&stream, &summary);
        assert!(
            violations.is_empty(),
            "oracle fired on a correct kernel: {violations:?}\n{}",
            c.describe()
        );
    }

    #[test]
    fn flock_generation_is_deterministic() {
        for seed in [0, 1, 9, 0xFEED_FACE, u64::MAX] {
            assert_eq!(
                generate_flock(seed).describe(),
                generate_flock(seed).describe()
            );
        }
        let a = generate_flock(300).describe();
        assert!((301..340).any(|s| generate_flock(s).describe() != a));
    }

    #[test]
    fn every_flock_plan_validates_and_spares_the_anchor_pool() {
        for seed in 0..100 {
            let c = generate_flock(seed);
            let plan = FaultPlan::new(c.faults.clone())
                .try_build()
                .unwrap_or_else(|e| panic!("seed {seed}: generator built a bad plan: {e}"));
            assert!(!c.jobs.is_empty(), "seed {seed}: empty queue");
            assert!(!c.faults.is_empty(), "seed {seed}: nothing injected");
            // The federated liveness rail: the last pool is the anchor —
            // it has machines and no fault window ever targets its
            // matchmaker or machines (or the home pool's, whose
            // starvation is the point).
            let anchor = c.pools.len() - 1;
            assert!(c.pools[anchor] >= 1, "seed {seed}: empty anchor");
            let revoked = |id| {
                c.faults
                    .iter()
                    .any(|f| matches!(f, Fault::FlockRevocation { machine, .. } if *machine == id))
            };
            let grid = c.build(false);
            for p in [0, anchor as u64] {
                for id in std::iter::once(PB::matchmaker_id(p)).chain(grid.machine_ids(p)) {
                    assert!(
                        !crashes(&plan, id)
                            && !plan.accepted_culprits().contains(&culprit_link(id))
                            && !revoked(id),
                        "seed {seed}: a fault touches actor {id} of pool {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_sampled_flock_campaign_runs_clean_through_the_oracle() {
        let c = generate_flock(5);
        let report = c.run(true);
        let summary = RunSummary::of(&report);
        assert!(report.quiescent, "unfinished: {:?}", summary.unfinished);
        let stream = Stream::from_collector(&report.telemetry).unwrap();
        let violations = check(&stream, &summary);
        assert!(
            violations.is_empty(),
            "oracle fired on a correct federation: {violations:?}\n{}",
            c.describe()
        );
    }

    #[test]
    fn negative_control_is_flagged_and_localized() {
        let report = negative_control_pool(11, true).run(SimTime::from_secs(24 * 3600));
        let stream = Stream::from_collector(&report.telemetry).unwrap();
        let summary = RunSummary::of(&report);
        let violations = check(&stream, &summary);
        assert!(
            violations.iter().any(|v| v.principle == 3),
            "naive kernel must trip the delivery invariant: {violations:?}"
        );
        let reference = negative_control_pool(11, false).run(SimTime::from_secs(24 * 3600));
        let rs = Stream::from_collector(&reference.telemetry).unwrap();
        let post = crate::oracle::postmortem(&stream, &rs);
        assert!(
            post.contains("machine:2"),
            "post-mortem must name the rogue machine:\n{post}"
        );
    }
}
