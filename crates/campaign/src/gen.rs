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

/// A scheduled machine crash.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// Victim actor id.
    pub machine: usize,
    /// Crash time, seconds.
    pub from_s: u64,
    /// Repair delay in seconds; `None` means the machine never returns.
    pub len_s: Option<u64>,
}

/// Which network misbehavior a [`NetPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// Both directions severed.
    Partition,
    /// Probabilistic message drop.
    Loss,
    /// Fixed delivery delay.
    Latency,
    /// Probabilistic message duplication.
    Duplication,
}

impl NetKind {
    fn name(self) -> &'static str {
        match self {
            NetKind::Partition => "partition",
            NetKind::Loss => "loss",
            NetKind::Latency => "latency",
            NetKind::Duplication => "duplication",
        }
    }
}

/// One timed fault on the schedd–machine link.
#[derive(Debug, Clone)]
pub struct NetPlan {
    /// What goes wrong.
    pub kind: NetKind,
    /// The machine end of the link.
    pub machine: usize,
    /// Onset, seconds.
    pub from_s: u64,
    /// Duration, seconds (always bounded).
    pub len_s: u64,
    /// Loss/duplication probability in permille, or latency in
    /// milliseconds — an integer so `describe()` never formats a float.
    pub permille: u64,
}

/// The campaign's silent-data-corruption arm.
#[derive(Debug, Clone)]
pub enum FlipPlan {
    /// Flip one bit of the job's live heap immediately after a checkpoint
    /// restore passes its digest check: undetectable by construction.
    Heap {
        /// Victim job.
        job: u32,
        /// Placement seed (reduced modulo the heap size when it lands).
        seed_bit: u64,
    },
    /// Flip one bit of every stored checkpoint image: the restore digest
    /// must catch it.
    Ckpt {
        /// Victim job.
        job: u32,
    },
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
    /// Owner activity on the first machine `(from_s, to_s)` — evicts the
    /// standard job mid-run, forcing the checkpoint round-trip.
    pub owner_window: Option<(u64, u64)>,
    /// A machine crash, if scheduled.
    pub crash: Option<CrashPlan>,
    /// Network faults, if scheduled.
    pub net: Vec<NetPlan>,
    /// The bit-flip arm, if armed.
    pub flip: Option<FlipPlan>,
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
    let owner_window = standard.then(|| (240 + rng.below(240), 3600 + rng.below(1800)));
    let flip = if standard {
        match rng.below(10) {
            0..=3 => Some(FlipPlan::Heap {
                job: 1,
                seed_bit: rng.next_u64(),
            }),
            4..=6 => Some(FlipPlan::Ckpt { job: 1 }),
            _ => None,
        }
    } else {
        None
    };

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
    let mut net = Vec::new();
    for _ in 0..rng.below(3) {
        let kind = match rng.below(4) {
            0 => NetKind::Partition,
            1 => NetKind::Loss,
            2 => NetKind::Latency,
            _ => NetKind::Duplication,
        };
        let permille = match kind {
            NetKind::Partition => 0,
            NetKind::Loss | NetKind::Duplication => 50 + rng.below(10) * 50,
            NetKind::Latency => 50 + rng.below(8) * 50,
        };
        net.push(NetPlan {
            kind,
            machine: eligible[rng.below(eligible.len() as u64) as usize],
            from_s: 60 + rng.below(900),
            len_s: 120 + rng.below(1500),
            permille,
        });
    }

    // Crashes may hit any non-anchor machine (the same eligibility set
    // as the net faults): the liveness rail is that *some* healthy
    // anchor survives, not that only the first machine may die. An
    // unbounded crash stays legal anywhere in the set for the same
    // reason — the anchor outlives it.
    let crash = rng.chance(35).then(|| CrashPlan {
        machine: eligible[rng.below(eligible.len() as u64) as usize],
        from_s: 200 + rng.below(1800),
        len_s: (!rng.chance(30)).then(|| 600 + rng.below(1800)),
    });

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
        owner_window,
        crash,
        net,
        flip,
    }
}

impl Campaign {
    /// The campaign's fault schedule as an (unbuilt) [`FaultPlan`].
    /// `Campaign::build_pool` validates it through
    /// [`FaultPlan::try_build`]-backed `build()`, so a generator bug that
    /// produces an inverted window fails fast with a named window, not a
    /// silent no-op fault.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if let Some((from, to)) = self.owner_window {
            plan = plan.owner_activity(
                PB::FIRST_MACHINE_ID,
                Window::new(SimTime::from_secs(from), SimTime::from_secs(to)),
            );
        }
        if let Some(c) = &self.crash {
            let from = SimTime::from_secs(c.from_s);
            let window = match c.len_s {
                Some(len) => Window::new(from, SimTime::from_secs(c.from_s + len)),
                None => Window::from(from),
            };
            plan = plan.crash(c.machine, window);
        }
        for n in &self.net {
            let window = Window::new(
                SimTime::from_secs(n.from_s),
                SimTime::from_secs(n.from_s + n.len_s),
            );
            let s = PB::SCHEDD_ID;
            plan = match n.kind {
                NetKind::Partition => plan.net_partition([s], [n.machine], window),
                NetKind::Loss => plan.net_loss(s, n.machine, n.permille as f64 / 1000.0, window),
                NetKind::Latency => plan.net_latency_spike(
                    s,
                    n.machine,
                    SimDuration::from_millis(n.permille),
                    window,
                ),
                NetKind::Duplication => {
                    plan.net_duplication(s, n.machine, n.permille as f64 / 1000.0, window)
                }
            };
        }
        match &self.flip {
            Some(FlipPlan::Heap { job, seed_bit }) => plan = plan.heap_flip(*job, *seed_bit),
            Some(FlipPlan::Ckpt { job }) => plan = plan.ckpt_flip(*job),
            None => {}
        }
        plan
    }

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
        let plan = if faulty {
            self.fault_plan()
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
        if let Some((from, to)) = self.owner_window {
            let _ = writeln!(out, "  owner-activity machine=2 [{from}s, {to}s)");
        }
        if let Some(c) = &self.crash {
            match c.len_s {
                Some(len) => {
                    let _ = writeln!(
                        out,
                        "  crash machine={} [{}s, {}s)",
                        c.machine,
                        c.from_s,
                        c.from_s + len
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  crash machine={} [{}s, forever)",
                        c.machine, c.from_s
                    );
                }
            }
        }
        for n in &self.net {
            let _ = writeln!(
                out,
                "  net {} machine={} [{}s, {}s) permille={}",
                n.kind.name(),
                n.machine,
                n.from_s,
                n.from_s + n.len_s,
                n.permille
            );
        }
        match &self.flip {
            Some(FlipPlan::Heap { job, seed_bit }) => {
                let _ = writeln!(out, "  flip heap job={job} seed-bit={seed_bit}");
            }
            Some(FlipPlan::Ckpt { job }) => {
                let _ = writeln!(out, "  flip ckpt job={job}");
            }
            None => {}
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

/// Which remote-pool fault a [`FlockCampaign`] window injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlockFaultKind {
    /// The remote pool's matchmaker crashes: flock probes must time out
    /// into explicit `unreachable` pool faults, never hang.
    MatchmakerCrash,
    /// The inter-pool link partitions — the schedd loses the remote
    /// matchmaker *and* its machines at once, mid-flock.
    Partition,
    /// The remote pool's machines revoke flocked claims at activation:
    /// the visiting job is bounced back with an explicit revocation.
    Revocation,
}

impl FlockFaultKind {
    fn name(self) -> &'static str {
        match self {
            FlockFaultKind::MatchmakerCrash => "matchmaker-crash",
            FlockFaultKind::Partition => "partition",
            FlockFaultKind::Revocation => "revocation",
        }
    }
}

/// One timed fault against a remote pool in a [`FlockCampaign`].
#[derive(Debug, Clone)]
pub struct FlockFaultPlan {
    /// What goes wrong.
    pub kind: FlockFaultKind,
    /// The victim pool (never the home pool, never the anchor pool).
    pub pool: u64,
    /// Onset, seconds.
    pub from_s: u64,
    /// Duration, seconds (always bounded).
    pub len_s: u64,
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
    /// The remote-pool fault schedule.
    pub faults: Vec<FlockFaultPlan>,
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
    let faults = (0..1 + rng.below(2))
        .map(|_| {
            let kind = match rng.below(3) {
                0 => FlockFaultKind::MatchmakerCrash,
                1 => FlockFaultKind::Partition,
                _ => FlockFaultKind::Revocation,
            };
            FlockFaultPlan {
                kind,
                pool: 1 + rng.below(targets),
                from_s: rng.below(300),
                len_s: 300 + rng.below(1200),
            }
        })
        .collect();
    FlockCampaign {
        seed,
        pools,
        jobs,
        faults,
    }
}

impl FlockCampaign {
    /// The machine actor ids of `pool`, mirroring
    /// [`FederationBuilder`]'s deterministic layout (matchmaker `p` at
    /// actor `p`, schedd after the matchmakers, machines after the
    /// schedd grouped by pool).
    fn machine_ids(&self, pool: u64) -> Vec<usize> {
        let mut next = self.pools.len() + 1;
        for (p, &n) in self.pools.iter().enumerate() {
            if p as u64 == pool {
                return (next..next + n).collect();
            }
            next += n;
        }
        Vec::new()
    }

    /// The campaign's fault schedule as an (unbuilt) [`FaultPlan`].
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        let schedd = self.pools.len();
        for f in &self.faults {
            let window = Window::new(
                SimTime::from_secs(f.from_s),
                SimTime::from_secs(f.from_s + f.len_s),
            );
            match f.kind {
                FlockFaultKind::MatchmakerCrash => {
                    plan = plan.crash(f.pool as usize, window);
                }
                FlockFaultKind::Partition => {
                    let mut far = vec![f.pool as usize];
                    far.extend(self.machine_ids(f.pool));
                    plan = plan.net_partition([schedd], far, window);
                }
                FlockFaultKind::Revocation => {
                    for m in self.machine_ids(f.pool) {
                        plan = plan.flock_revocation(m, window);
                    }
                }
            }
        }
        plan
    }

    /// The federation for this campaign. `faulty = false` builds the
    /// identical topology with the fault schedule removed — the
    /// reference stream for the post-mortem localizer.
    pub fn build(&self, faulty: bool) -> FederationBuilder {
        let mut b = FederationBuilder::new(self.seed);
        for (p, &n) in self.pools.iter().enumerate() {
            b = b.pool((0..n).map(|i| MachineSpec::healthy(&format!("p{p}m{i}"), 256)));
        }
        let plan = if faulty {
            self.fault_plan()
        } else {
            FaultPlan::none()
        };
        b.jobs(self.jobs.iter().enumerate().map(|(i, &exec)| {
            JobSpec::java(
                i as u32 + 1,
                "ada",
                programs::completes_main(),
                JavaMode::Scoped,
            )
            .with_exec_time(SimDuration::from_secs(exec))
        }))
        .schedd_policy(ScheddPolicy {
            max_attempts: 60,
            ..ScheddPolicy::default()
        })
        .patience(SimDuration::from_secs(30))
        .faults(plan)
    }

    /// Run the campaign (or its fault-free reference) to the deadline.
    pub fn run(&self, faulty: bool) -> FlockReport {
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
            let _ = writeln!(
                out,
                "  fault {} pool={} [{}s, {}s)",
                f.kind.name(),
                f.pool,
                f.from_s,
                f.from_s + f.len_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check, RunSummary};
    use obs_analyze::Stream;

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
            c.fault_plan()
                .try_build()
                .unwrap_or_else(|e| panic!("seed {seed}: generator built a bad plan: {e}"));
            assert!(!c.jobs.is_empty(), "seed {seed}: empty queue");
            // The liveness rails: neither a crash window nor a net fault
            // ever touches the anchor — a healthy anchor always remains.
            let anchor = PB::FIRST_MACHINE_ID + c.machines - 1;
            if let Some(crash) = &c.crash {
                assert_ne!(crash.machine, anchor, "seed {seed}: crash on the anchor");
            }
            for n in &c.net {
                assert_ne!(n.machine, anchor, "seed {seed}: net fault on the anchor");
            }
        }
    }

    #[test]
    fn a_sampled_campaign_runs_clean_through_the_oracle() {
        // One full end-to-end spin of a seed known to compose an owner
        // eviction with a flip arm; the sweep harness does thousands.
        let c = generate(3);
        assert!(c.flip.is_some(), "seed 3 should arm the flip for this test");
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
            c.fault_plan()
                .try_build()
                .unwrap_or_else(|e| panic!("seed {seed}: generator built a bad plan: {e}"));
            assert!(!c.jobs.is_empty(), "seed {seed}: empty queue");
            assert!(!c.faults.is_empty(), "seed {seed}: nothing injected");
            // The federated liveness rail: the last pool is the anchor —
            // it has machines and no fault window ever targets it (or
            // the home pool, whose starvation is the point).
            let anchor = c.pools.len() as u64 - 1;
            assert!(c.pools[anchor as usize] >= 1, "seed {seed}: empty anchor");
            for f in &c.faults {
                assert!(
                    f.pool >= 1 && f.pool < anchor,
                    "seed {seed}: fault on pool {} (anchor {anchor})",
                    f.pool
                );
            }
        }
    }

    #[test]
    fn a_sampled_flock_campaign_runs_clean_through_the_oracle() {
        let c = generate_flock(5);
        let report = c.run(true);
        assert!(report.quiescent, "unfinished: {:?}", report.unfinished());
        let stream = Stream::from_collector(&report.telemetry).unwrap();
        let summary = RunSummary::of_flock(&report);
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
