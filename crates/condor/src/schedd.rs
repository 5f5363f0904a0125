//! The schedd and its shadows.
//!
//! "A user submits jobs to a schedd, which keeps the job state in
//! persistent storage, and works to find places where the job may be
//! executed … The schedd starts a shadow, which is responsible for
//! providing the details of the job to be run" (§2.1).
//!
//! The schedd is "the last line of defense" (§4): an error of program scope
//! completes the job; an error of job scope marks it unexecutable; anything
//! in between is logged and the job tries another site. In the **naive**
//! discipline, every exit is delivered to the user as a result — and the
//! *user* pays for the missing scope information with postmortem time.
//!
//! # One writer of a job's state
//!
//! After submission a job's state changes only in [`Schedd::transition`]:
//! it checks the edge against one table, moves the claim epoch when a claim
//! opens or closes, keeps the idle set, and stamps and counts a terminal
//! state. What a change tells anyone — events, messages, timers, the user's
//! log — stays at the call site, in its order. The five messages that speak
//! for a claim pass one guard, [`Schedd::live_claim`].
//!
//! # What the matchmaker hears, and when
//!
//! The schedd's half of the soft-state bargain is the startd's. A job is
//! advertised the instant it becomes idle or its ad moves — at submission,
//! when a retry delay ends, when a claim is rejected, when a notification
//! is declined (the new epoch is what clears the match's fence), under a
//! new set of avoided machines, to a remote pool the moment it grants —
//! and everything still idle is renewed every [`KEEPALIVE_PERIOD`], half
//! the ad's lifetime at the matchmaker, in one message per matchmaker.
//! The idle set is kept as jobs enter and leave it; a 5-s tick, armed only
//! while something is idle, looks at the avoided set and the flocking
//! ladder, and on every third sends the renewal. A tick on which nothing
//! changed and nothing is due does constant work, and an empty queue
//! sends and arms nothing.

use crate::faults::FaultPlan;
use crate::health::{BreakerPolicy, BreakerState, CircuitBreaker, RetryPolicy};
use crate::job::{Attempt, JobId, JobRecord, JobSpec, JobState};
use crate::matchmaker::{until_next, KEEPALIVE_PERIOD};
use crate::metrics::Metrics;
use crate::msg::{
    Activation, CkptAttempt, ExecutionReport, FsSnapshot, JobAdvert, LeaseInfo, Msg, ResumeInfo,
    Site,
};
use classads::ClassAd;
use desim::prelude::*;
use errorscope::propagate::Disposition;
use errorscope::resultfile::{Outcome, ResultFile};
use errorscope::Scope;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How often a schedd with idle jobs looks for a changed avoided set, a
/// starved job to flock or a pool to probe; every third tick (each
/// [`KEEPALIVE_PERIOD`]) renews the idle jobs' ads.
pub const ADVERTISE_PERIOD: SimDuration = SimDuration::from_secs(5);

/// How long a job may sit idle before a flocking schedd escalates to a
/// remote pool.
pub const FLOCK_PATIENCE: SimDuration = SimDuration::from_secs(30);

/// How long a flocking schedd waits for a [`Msg::FlockGrant`] before
/// declaring the remote matchmaker unreachable.
pub const FLOCK_PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// How long a denial (or failure) parks a remote pool before re-probing.
pub const FLOCK_DENIAL_DELAY: SimDuration = SimDuration::from_secs(30);

/// The home pool's id; machines without a recorded pool belong here.
const HOME_POOL: u64 = 0;

/// How long the schedd waits for a startd to answer a claim request.
pub const CLAIM_TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// Delay before retrying after a *local-resource* failure — the home file
/// system needs time to come back; trying another execution site would
/// not help.
pub const LOCAL_RESOURCE_DELAY: SimDuration = SimDuration::from_secs(120);

/// Extra slack on top of the job's own execution time before the shadow
/// declares the attempt vanished.
pub const REPORT_SLACK: SimDuration = SimDuration::from_secs(120);

/// The schedd's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScheddPolicy {
    /// How long to wait before re-advertising after an environmental
    /// failure. The default backs off exponentially with deterministic
    /// jitter; [`RetryPolicy::Fixed`] restores the original constant-delay
    /// kernel.
    pub retry: RetryPolicy,
    /// How long the human takes to postmortem a wrongly-returned job
    /// (naive mode). "A human is the slowest part of any computing system."
    pub postmortem_delay: SimDuration,
    /// Attempts before the job is parked.
    pub max_attempts: u32,
    /// §5's complementary approach: "enhance the schedd with logic to
    /// detect and avoid hosts with chronic failures."
    pub avoid_chronic_hosts: bool,
    /// Environmental failures on one host before it is avoided.
    pub avoid_threshold: u32,
    /// Claim leasing: when set, activations carry these lease terms, the
    /// startd heartbeats, and a missed lease converts a silent partition
    /// into an explicit scope-of-the-claim error on both sides. `None`
    /// falls back to the report timeout alone.
    pub lease: Option<LeaseInfo>,
    /// Per-machine circuit breakers over scope-of-the-machine failures —
    /// the self-healing generalisation of chronic-host avoidance. `None`
    /// disables them.
    pub breaker: Option<BreakerPolicy>,
}

impl Default for ScheddPolicy {
    fn default() -> Self {
        ScheddPolicy {
            retry: RetryPolicy::Backoff {
                base: SimDuration::from_secs(10),
                max: SimDuration::from_secs(60),
                jitter: 0.1,
            },
            postmortem_delay: SimDuration::from_secs(600),
            max_attempts: 20,
            avoid_chronic_hosts: false,
            avoid_threshold: 2,
            lease: None,
            breaker: None,
        }
    }
}

/// One remote pool a flocking schedd may negotiate with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlockTarget {
    /// The remote pool's id.
    pub pool: u64,
    /// The remote pool's matchmaker (actor id).
    pub matchmaker: usize,
}

/// Flocking (§6): when the home pool cannot place a job, the schedd
/// negotiates with remote pools in the configured order. Every remote
/// interaction is wrapped in the robustness stack — a saturated pool, an
/// unreachable matchmaker, or a partition mid-flock becomes an explicit
/// pool-scope error, never a hang, and the job falls back to the home
/// queue still schedulable.
#[derive(Debug, Clone, Default)]
pub struct FlockConfig {
    /// Remote pools, tried in preference order.
    pub pools: Vec<FlockTarget>,
    /// Per-remote-pool circuit breaker policy.
    pub breaker: BreakerPolicy,
    /// **Test-only mutation seed.** A schedd built with this flag is
    /// deliberately buggy: it swallows remote-pool escapes instead of
    /// widening them to pool scope, exactly the Principle-1 breach the
    /// campaign oracle must flag. Never set outside tests.
    pub swallow_escapes: bool,
}

/// Where the schedd stands with one remote pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlockState {
    /// Never probed (or demoted after a failure and due for a re-probe).
    Unprobed,
    /// A [`Msg::FlockRequest`] driven by `job`'s starvation is in flight;
    /// its deadline carries `probe`, the schedd's escalation count when it
    /// left, so no two probes share one.
    Probing { job: JobId, probe: u64 },
    /// The pool accepted flocked ads; job ads flow there as they do home.
    Granted,
    /// Denied or failed at `at`; re-probe after the denial delay.
    Denied {
        /// When the denial/failure was recorded.
        at: SimTime,
    },
}

/// One line of the user's view of the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserEvent {
    /// When.
    pub at: SimTime,
    /// Which job.
    pub job: JobId,
    /// What the user was told.
    pub text: String,
}

/// The schedd actor.
pub struct Schedd {
    matchmaker: ActorId,
    policy: ScheddPolicy,
    plan: Arc<FaultPlan>,
    /// The job queue ("persistent storage").
    pub jobs: BTreeMap<JobId, JobRecord>,
    /// The submitter's home file system contents.
    pub home_fs: BTreeMap<String, Vec<u8>>,
    /// Hosts with chronic environmental failures (machine → count).
    pub chronic: BTreeMap<usize, u32>,
    /// Per-machine circuit breakers (populated only when the policy
    /// enables them).
    pub breakers: BTreeMap<usize, CircuitBreaker>,
    /// Accounting.
    pub metrics: Metrics,
    /// What the user saw, in order.
    pub user_log: Vec<UserEvent>,
    /// Flocking configuration; `None` keeps the schedd home-pool only.
    flock: Option<FlockConfig>,
    /// Per-remote-pool circuit breakers (pool id → breaker).
    pub pool_breakers: BTreeMap<u64, CircuitBreaker>,
    /// Where the schedd stands with each remote pool.
    flock_states: BTreeMap<u64, FlockState>,
    /// The idle jobs, each with the instant it went idle — kept as jobs
    /// enter and leave the state, never by scanning `jobs`.
    idle: BTreeMap<JobId, SimTime>,
    /// Whether an [`Msg::AdvertiseTick`] is on its way: armed only while
    /// something is idle.
    ticking: bool,
    /// Which pool each matched machine belongs to, learned from
    /// [`Msg::MatchNotify`]. Claims and activations are stamped with it.
    pub machine_pool: BTreeMap<usize, u64>,
    /// The part of an ad that jobs alike in owner, universe and image size
    /// share (`JobSpec::base_ad`), by owner and then the other two.
    bases: BTreeMap<String, BTreeMap<(&'static str, i64), Arc<ClassAd>>>,
    /// Each job's plain ad — its `ClusterId` chained to its base; what a
    /// claim request carries, and what is advertised while nothing is
    /// avoided — built once, at the job's first advertisement.
    plain_ads: BTreeMap<JobId, Arc<ClassAd>>,
    /// While `advertised_for` names a machine, each job's advertised ad:
    /// its plain ad plus one exclusion clause per machine named. Re-sent by
    /// reference, and rebuilt only when that list changes.
    advertised: BTreeMap<JobId, Arc<ClassAd>>,
    /// The avoided-machine list the ads in `advertised` were built for.
    advertised_for: Vec<usize>,
    self_id: usize,
}

impl Schedd {
    /// A schedd with an empty queue.
    pub fn new(matchmaker: ActorId, policy: ScheddPolicy, plan: Arc<FaultPlan>) -> Schedd {
        Schedd {
            matchmaker,
            policy,
            plan,
            jobs: BTreeMap::new(),
            home_fs: BTreeMap::new(),
            chronic: BTreeMap::new(),
            breakers: BTreeMap::new(),
            metrics: Metrics::default(),
            user_log: Vec::new(),
            flock: None,
            pool_breakers: BTreeMap::new(),
            flock_states: BTreeMap::new(),
            idle: BTreeMap::new(),
            ticking: false,
            machine_pool: BTreeMap::new(),
            bases: BTreeMap::new(),
            plain_ads: BTreeMap::new(),
            advertised: BTreeMap::new(),
            advertised_for: Vec::new(),
            self_id: usize::MAX,
        }
    }

    /// Enable flocking to the remote pools named in `cfg`.
    pub fn with_flock(mut self, cfg: FlockConfig) -> Schedd {
        self.flock = Some(cfg);
        self
    }

    /// Submit a job before the world starts.
    pub fn submit(&mut self, spec: JobSpec) {
        let id = spec.id;
        self.jobs.insert(id, JobRecord::new(spec, SimTime::ZERO));
    }

    /// Place a file in the submitter's home file system.
    pub fn put_home_file(&mut self, path: &str, data: &[u8]) {
        self.home_fs.insert(path.to_string(), data.to_vec());
    }

    /// Are all jobs in terminal states?
    pub fn all_done(&self) -> bool {
        self.jobs.values().all(|j| j.state.is_terminal())
    }

    fn user_sees(&mut self, at: SimTime, job: JobId, text: impl Into<String>) {
        self.user_log.push(UserEvent {
            at,
            job,
            text: text.into(),
        });
    }

    fn is_avoided(&self, machine: usize) -> bool {
        self.policy.avoid_chronic_hosts
            && self
                .chronic
                .get(&machine)
                .is_some_and(|c| *c >= self.policy.avoid_threshold)
    }

    /// The job's plain ad, built on first use over the base it shares.
    fn plain_ad(&mut self, job: JobId) -> Arc<ClassAd> {
        if let Some(ad) = self.plain_ads.get(&job) {
            return Arc::clone(ad);
        }
        let spec = &self.jobs[&job].spec;
        let (owner, universe, image_size) = spec.base_key();
        if !self.bases.contains_key(owner) {
            self.bases.insert(owner.to_owned(), BTreeMap::new());
        }
        let alike = self.bases.get_mut(owner).expect("just looked");
        let base = alike
            .entry((universe, image_size))
            .or_insert_with(|| Arc::new(spec.base_ad()));
        let ad = Arc::new(spec.ad_over(Arc::clone(base)));
        self.plain_ads.insert(job, Arc::clone(&ad));
        ad
    }

    /// The job's ad as advertised under the current `advertised_for` list,
    /// built on first use.
    fn advertised_ad(&mut self, job: JobId) -> Arc<ClassAd> {
        let plain = self.plain_ad(job);
        if self.advertised_for.is_empty() {
            return plain;
        }
        let excluding = self.advertised.entry(job);
        Arc::clone(excluding.or_insert_with(|| Self::ad_excluding(&plain, &self.advertised_for)))
    }

    /// `plain` with `TARGET.MachineId =!= id` clauses appended for every
    /// avoided host — how the schedd "avoids hosts with chronic failures"
    /// (§5) without the matchmaker needing to know why. Still a child of
    /// the job's base, now with a `Requirements` of its own.
    fn ad_excluding(plain: &ClassAd, avoided: &[usize]) -> Arc<ClassAd> {
        use classads::ast::{BinOp, Expr};
        let mut ad = plain.clone();
        let mut req = ad
            .get("Requirements")
            .cloned()
            .unwrap_or(Expr::boolean(true));
        for id in avoided {
            req = req.and(Expr::target("MachineId").bin(BinOp::MetaNe, Expr::int(*id as i64)));
        }
        ad.insert_expr("Requirements", req);
        Arc::new(ad)
    }

    fn snapshot_for(&self, spec: &JobSpec) -> FsSnapshot {
        let mut snap = FsSnapshot::default();
        for input in &spec.inputs {
            match self.home_fs.get(input) {
                Some(data) => {
                    snap.files.insert(input.clone(), data.clone());
                }
                None => snap.missing.push(input.clone()),
            }
        }
        snap
    }

    /// Machines whose breaker is open right now (withheld from matching).
    fn breaker_blocked(&mut self, now: SimTime) -> Vec<usize> {
        self.breakers
            .iter_mut()
            .filter_map(|(m, b)| b.is_blocked(now).then_some(*m))
            .collect()
    }

    /// Feed a scope-of-the-machine failure to `machine`'s breaker.
    fn machine_failure(&mut self, machine: usize, ctx: &mut Context<'_, Msg>) {
        let Some(policy) = self.policy.breaker else {
            return;
        };
        let breaker = self
            .breakers
            .entry(machine)
            .or_insert_with(|| CircuitBreaker::new(policy));
        if let Some(tr) = breaker.on_failure(ctx.now) {
            if matches!(tr.to, BreakerState::Open { .. }) {
                self.metrics.breaker_opens += 1;
            }
            ctx.emit(obs::Event::BreakerStateChange {
                machine: machine as u64,
                from: tr.from.name().to_string(),
                to: tr.to.name().to_string(),
            });
        }
    }

    /// Feed a proof of machine health to `machine`'s breaker.
    fn machine_success(&mut self, machine: usize, ctx: &mut Context<'_, Msg>) {
        if self.policy.breaker.is_none() {
            return;
        }
        if let Some(breaker) = self.breakers.get_mut(&machine) {
            if let Some(tr) = breaker.on_success(ctx.now) {
                ctx.emit(obs::Event::BreakerStateChange {
                    machine: machine as u64,
                    from: tr.from.name().to_string(),
                    to: tr.to.name().to_string(),
                });
            }
        }
    }

    /// Count and log a message fenced for carrying a stale claim epoch.
    fn drop_stale(
        &mut self,
        job: JobId,
        kind: &str,
        got: u64,
        current: u64,
        ctx: &mut Context<'_, Msg>,
    ) {
        self.metrics.stale_epochs_dropped += 1;
        ctx.emit(obs::Event::StaleEpochDropped {
            job: u64::from(job),
            kind: kind.to_string(),
            got,
            current,
        });
    }

    /// The claim an inbound claim message speaks for, if it is the live
    /// one. A message for a job this queue does not hold is ignored; one
    /// stamped with another epoch is counted and dropped as `kind`; one for
    /// a job with no claim open, or from a machine other than the claim's,
    /// is ignored. What comes back is the claim's phase — `Claiming` or
    /// `Running`, on `from` — for the caller to match on.
    fn live_claim(
        &mut self,
        job: JobId,
        epoch: u64,
        from: ActorId,
        kind: &str,
        ctx: &mut Context<'_, Msg>,
    ) -> Option<JobState> {
        let rec = self.jobs.get(&job)?;
        if epoch != rec.epoch {
            let current = rec.epoch;
            self.drop_stale(job, kind, epoch, current, ctx);
            return None;
        }
        match rec.state {
            JobState::Claiming { machine } | JobState::Running { machine } if machine == from => {
                Some(rec.state.clone())
            }
            _ => None,
        }
    }

    /// The retry delay for `job`'s *next* environmental retry, advancing
    /// its consecutive-failure level.
    fn backoff_delay(&mut self, job: JobId, ctx: &mut Context<'_, Msg>) -> SimDuration {
        let retry = self.policy.retry;
        let rec = self.jobs.get_mut(&job).expect("job exists");
        let delay = retry.delay(rec.backoff_level, ctx.rng);
        rec.backoff_level += 1;
        delay
    }
}

impl Actor<Msg> for Schedd {
    fn name(&self) -> String {
        "schedd".into()
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.self_id = ctx.self_id;
        // What was submitted before the world started goes idle, and is
        // advertised, now.
        self.idle = self.jobs.keys().map(|&job| (job, ctx.now)).collect();
        self.refresh_avoided(ctx.now);
        self.advertise_all(ctx);
        self.keep_ticking(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.self_id = ctx.self_id;
        match msg {
            Msg::AdvertiseTick => {
                self.ticking = false;
                if self.idle.is_empty() {
                    return;
                }
                // A machine crossing the chronic threshold moves the
                // avoided set as it happens; a breaker closing its open
                // window moves it with the clock.
                let moved = self.refresh_avoided(ctx.now);
                let renewal = (ctx.now.as_micros()).is_multiple_of(KEEPALIVE_PERIOD.as_micros());
                if moved || renewal {
                    self.advertise_all(ctx);
                }
                self.maybe_flock(ctx);
                self.keep_ticking(ctx);
            }

            Msg::MatchNotify { job, machine, pool } => {
                self.machine_pool.insert(machine, pool);
                let avoided = self.is_avoided(machine);
                let breaker_open = self
                    .breakers
                    .get_mut(&machine)
                    .is_some_and(|b| b.is_blocked(ctx.now));
                let Some(rec) = self.jobs.get_mut(&job) else {
                    return;
                };
                if !matches!(rec.state, JobState::Idle) {
                    return;
                }
                if avoided || breaker_open {
                    // Stays idle. The matchmaker consumed the job's ad and
                    // holds every copy of it behind the match's fence; the
                    // new epoch is what tells it the next ad — sent now —
                    // postdates a notification this schedd saw and
                    // declined.
                    rec.epoch += 1;
                    self.advertise(job, ctx);
                    return;
                }
                // Opening a claim starts a new epoch: every message about
                // this claim carries it, and older epochs are fenced.
                self.transition(job, JobState::Claiming { machine }, ctx);
                let epoch = self.jobs[&job].epoch;
                let ad = self.plain_ad(job);
                ctx.emit(obs::Event::Claim {
                    job: u64::from(job),
                    machine: machine as u64,
                    outcome: obs::ClaimOutcome::Requested,
                });
                ctx.send_net(
                    machine,
                    Msg::ClaimRequest {
                        job,
                        ad,
                        epoch,
                        pool,
                    },
                );
                ctx.send_self_after(CLAIM_TIMEOUT, Msg::deadline(Site::Claim, job, epoch));
            }

            Msg::ClaimAccept { job, epoch } => {
                let Some(JobState::Claiming { machine }) =
                    self.live_claim(job, epoch, from, "claim-accept", ctx)
                else {
                    return;
                };
                // The shadow stages the job. If the home file system is
                // down right now, staging itself fails: a local-resource
                // error the shadow reports to the schedd ("the job cannot
                // run right now").
                if let Some(fault) = self
                    .plan
                    .fs_fault_at(ctx.self_id, ctx.now)
                    .filter(|_| !self.jobs[&job].spec.inputs.is_empty())
                {
                    ctx.send_net(machine, Msg::ReleaseClaim { job });
                    ctx.emit(obs::Event::Reschedule {
                        job: u64::from(job),
                        machine: machine as u64,
                        reason: format!("{}-scope error: {fault} while staging", fault.scope()),
                    });
                    self.metrics.reschedules += 1;
                    self.transition(job, JobState::Waiting, ctx);
                    ctx.send_self_after(LOCAL_RESOURCE_DELAY, Msg::RetryJob { job });
                    return;
                }
                self.transition(job, JobState::Running { machine }, ctx);
                let rec = self.jobs.get_mut(&job).unwrap();
                let spec = rec.spec.clone();
                // Standard-universe jobs resume from their checkpoint: only
                // the remaining execution time is needed.
                let remaining = if matches!(spec.universe, crate::job::Universe::Standard) {
                    let left = spec
                        .exec_time
                        .as_micros()
                        .saturating_sub(rec.progress.as_micros());
                    SimDuration::from_micros(left.max(1))
                } else {
                    spec.exec_time
                };
                let attempt_no = rec.attempts.len();
                // A stored checkpoint from an earlier attempt: ask the
                // starter to resume from it.
                let resume = rec.ckpt_key.clone().map(|key| ResumeInfo {
                    key,
                    banked: rec.progress,
                });
                let resuming = resume.is_some();
                let epoch = rec.epoch;
                let snapshot = self.snapshot_for(&spec);
                let pool = self.machine_pool.get(&machine).copied().unwrap_or(0);
                ctx.emit(obs::Event::Dispatch {
                    job: u64::from(job),
                    machine: machine as u64,
                });
                ctx.send_net(
                    machine,
                    Msg::ActivateClaim(Box::new(Activation {
                        job,
                        image: spec.image.clone(),
                        universe: spec.universe,
                        snapshot,
                        exec_time: remaining,
                        does_remote_io: spec.does_remote_io,
                        schedd: ctx.self_id,
                        attempt: attempt_no,
                        resume,
                        epoch,
                        lease: self.policy.lease,
                        pool,
                    })),
                );
                // The lease: the shadow expects heartbeats from the
                // activation on; silence past the timeout expires the
                // claim long before the report timeout would.
                if let Some(lease) = self.policy.lease {
                    let rec = self.jobs.get_mut(&job).unwrap();
                    rec.last_heartbeat = ctx.now;
                    ctx.send_self_after(lease.timeout, Msg::deadline(Site::Lease, job, epoch));
                }
                // A resumed attempt may discard its checkpoint and cold-
                // restart, owing the full execution time again — give the
                // shadow timeout room for that before declaring the
                // attempt vanished.
                let budget = if resuming { spec.exec_time } else { remaining };
                let deadline = budget + budget + REPORT_SLACK;
                ctx.send_self_after(deadline, Msg::deadline(Site::Report, job, epoch));
            }

            Msg::ClaimReject { job, epoch, .. } => {
                let Some(JobState::Claiming { .. }) =
                    self.live_claim(job, epoch, from, "claim-reject", ctx)
                else {
                    return;
                };
                self.metrics.failed_claims += 1;
                self.went_idle(job, ctx);
            }

            Msg::Deadline { site, id, epoch } => {
                // The one stale test: every end of a claim (or of a probe)
                // moves the epoch its deadlines were armed with.
                if self.live_epoch(site, id) != Some(epoch) {
                    return;
                }
                if site == Site::FlockProbe {
                    return self.probe_unanswered(id, ctx);
                }
                let job = JobId::try_from(id).expect("a live deadline names a job");
                match (site, &self.jobs[&job].state) {
                    // A claim request went unanswered.
                    (Site::Claim, &JobState::Claiming { machine }) => {
                        ctx.emit(obs::Event::Claim {
                            job: u64::from(job),
                            machine: machine as u64,
                            outcome: obs::ClaimOutcome::TimedOut,
                        });
                        self.metrics.failed_claims += 1;
                        // A late accept is now stale.
                        self.transition(job, JobState::Waiting, ctx);
                        // A silent claim is a machine-scope signal: feed
                        // the breaker and back off instead of hammering
                        // the link.
                        self.machine_failure(machine, ctx);
                        // On a flocked machine the silence sits on an
                        // inter-pool link: surface it at pool scope too.
                        self.note_remote_fault(
                            job,
                            machine,
                            "claim",
                            "FlockClaimSilent",
                            format!("flocked claim for job {job} timed out on machine {machine}"),
                            ctx,
                        );
                        let delay = self.backoff_delay(job, ctx);
                        ctx.send_self_after(delay, Msg::RetryJob { job });
                    }
                    (Site::Report, &JobState::Running { machine }) => {
                        self.claim_vanished(job, machine, site, ctx)
                    }
                    (Site::Lease, &JobState::Running { machine }) => {
                        self.check_lease(job, machine, epoch, ctx)
                    }
                    _ => {}
                }
            }

            Msg::Heartbeat { job, epoch } => {
                let Some(JobState::Running { .. }) =
                    self.live_claim(job, epoch, from, "heartbeat", ctx)
                else {
                    return;
                };
                let rec = self.jobs.get_mut(&job).expect("a live claim's job");
                rec.last_heartbeat = ctx.now;
                ctx.send_net(from, Msg::HeartbeatAck { job, epoch });
            }

            Msg::StarterReport {
                job,
                report,
                cpu,
                started,
                ckpt,
                epoch,
            } => {
                self.handle_report(job, from, *report, cpu, started, ckpt, epoch, ctx);
            }

            Msg::RetryJob { job } => {
                let waiting = |rec: &JobRecord| matches!(rec.state, JobState::Waiting);
                if self.jobs.get(&job).is_some_and(waiting) {
                    self.went_idle(job, ctx);
                }
            }

            Msg::FlockGrant { pool, free } => {
                let Some(cfg) = self.flock.clone() else {
                    return;
                };
                let Some(target) = cfg.pools.iter().find(|t| t.pool == pool).copied() else {
                    return;
                };
                let Some(&FlockState::Probing { job, .. }) = self.flock_states.get(&pool) else {
                    return; // the probe already timed out; stale grant
                };
                // Either way the matchmaker answered: the link is healthy.
                self.pool_breaker_success(pool, target.matchmaker, ctx);
                if free == 0 {
                    // An explicit pool-scope denial — saturation, not
                    // silence. Park the pool and fall back to the home
                    // queue; the job stays schedulable.
                    self.flock_states
                        .insert(pool, FlockState::Denied { at: ctx.now });
                    self.pool_fault(
                        job,
                        pool,
                        "saturated",
                        "PoolSaturated",
                        format!("pool {pool} denied flocking: saturated"),
                        ctx,
                    );
                } else {
                    self.flock_states.insert(pool, FlockState::Granted);
                    // The pool hears of every idle job now, not at the
                    // next renewal.
                    self.send_ads(
                        self.idle.keys().copied().collect(),
                        &[target.matchmaker],
                        ctx,
                    );
                }
            }

            Msg::ClaimRevoked { job, epoch } => {
                let Some(JobState::Running { machine } | JobState::Claiming { machine }) =
                    self.live_claim(job, epoch, from, "claim-revoked", ctx)
                else {
                    return;
                };
                ctx.emit(obs::Event::Reschedule {
                    job: u64::from(job),
                    machine: machine as u64,
                    reason: "flocked claim revoked by remote pool".into(),
                });
                let rec = self.jobs.get_mut(&job).expect("a live claim's job");
                rec.attempts.push(Attempt {
                    machine,
                    started: ctx.now,
                    ended: ctx.now,
                    scope: None,
                    note: "flocked claim revoked by remote pool".into(),
                });
                self.metrics.failed_claims += 1;
                let pool = self.machine_pool.get(&machine).copied().unwrap_or(0);
                self.pool_fault(
                    job,
                    pool,
                    "revoked",
                    "FlockClaimRevoked",
                    format!("remote pool {pool} revoked the claim for job {job}"),
                    ctx,
                );
                if let Some(cfg) = self.flock.clone() {
                    if let Some(t) = cfg.pools.iter().find(|t| t.pool == pool) {
                        self.pool_breaker_failure(pool, t.matchmaker, ctx);
                    }
                }
                // Graceful degradation: back to the home queue, still
                // schedulable.
                let delay = self.backoff_delay(job, ctx);
                self.reschedule_or_hold(job, delay, ctx);
            }

            Msg::PostmortemDone { job } => {
                let Some(rec) = self.jobs.get_mut(&job) else {
                    return;
                };
                if !matches!(rec.state, JobState::AwaitingPostmortem { .. }) {
                    return;
                }
                self.metrics.postmortems += 1;
                self.reschedule_or_hold(job, SimDuration::from_micros(1), ctx);
            }

            _ => {}
        }
    }
}

/// The edges of a job's life, by the state it leaves. Submission, the one
/// edge into `Idle` from nowhere, is [`JobRecord::new`]'s.
fn legal_edge(from: &JobState, to: &JobState) -> bool {
    use JobState::*;
    match from {
        Idle => matches!(to, Claiming { .. }),
        Claiming { .. } => matches!(to, Running { .. } | Idle | Waiting | Held { .. }),
        Running { .. } => matches!(
            to,
            Waiting
                | Held { .. }
                | Completed { .. }
                | Unexecutable { .. }
                | AwaitingPostmortem { .. }
        ),
        AwaitingPostmortem { .. } => matches!(to, Waiting | Held { .. }),
        Waiting => matches!(to, Idle),
        Completed { .. } | Unexecutable { .. } | Held { .. } => false,
    }
}

impl Schedd {
    /// The one writer of a job's state after submission. An edge outside
    /// [`legal_edge`] is a kernel bug: reported as a principle-3
    /// [`obs::Event::Violation`], and still taken. A claim opens on entering
    /// `Claiming` and closes on leaving `Claiming` or `Running` for anything
    /// but `Running`; either moves the epoch, fencing every message stamped
    /// with the old one.
    fn transition(&mut self, job: JobId, to: JobState, ctx: &mut Context<'_, Msg>) {
        let rec = self.jobs.get_mut(&job).expect("job exists");
        if !legal_edge(&rec.state, &to) {
            ctx.emit(obs::Event::Violation {
                principle: 3,
                machine: 0,
                detail: format!("job {job} moved {:?} -> {to:?}, an illegal edge", rec.state),
            });
        }
        let claimed =
            |s: &JobState| matches!(s, JobState::Claiming { .. } | JobState::Running { .. });
        if matches!(to, JobState::Claiming { .. }) || (claimed(&rec.state) && !claimed(&to)) {
            rec.epoch += 1;
        }
        if to == JobState::Idle {
            self.idle.insert(job, ctx.now);
        } else if rec.state == JobState::Idle {
            self.idle.remove(&job);
        }
        if to.is_terminal() {
            rec.finished = Some(ctx.now);
        }
        match to {
            JobState::Completed { .. } => self.metrics.jobs_completed += 1,
            JobState::Unexecutable { .. } => self.metrics.jobs_unexecutable += 1,
            JobState::Held { .. } => self.metrics.jobs_held += 1,
            _ => {}
        }
        rec.state = to;
    }

    /// `job` enters the idle state: stamped, and advertised at once.
    fn went_idle(&mut self, job: JobId, ctx: &mut Context<'_, Msg>) {
        self.transition(job, JobState::Idle, ctx);
        self.advertise(job, ctx);
        self.keep_ticking(ctx);
    }

    /// Arm the tick at the next instant of the 5-s grid, unless it is
    /// armed or nothing is idle: renewals stay on multiples of
    /// [`KEEPALIVE_PERIOD`] whenever the queue last ran empty.
    fn keep_ticking(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.ticking || self.idle.is_empty() {
            return;
        }
        self.ticking = true;
        let wait = until_next(ADVERTISE_PERIOD, ctx.now);
        ctx.send_self_after(wait, Msg::AdvertiseTick);
    }

    /// Bring `advertised_for` up to date with the machines withheld from
    /// matching right now — hosts past the chronic threshold, and those
    /// whose breaker is open (a half-open breaker admits the machine: the
    /// probe). True if the set moved: the ads built for the old one are
    /// dropped, and every idle job is due a new one.
    fn refresh_avoided(&mut self, now: SimTime) -> bool {
        let mut avoided: Vec<usize> = if self.policy.avoid_chronic_hosts {
            self.chronic
                .iter()
                .filter(|(_, c)| **c >= self.policy.avoid_threshold)
                .map(|(m, _)| *m)
                .collect()
        } else {
            Vec::new()
        };
        for m in self.breaker_blocked(now) {
            if !avoided.contains(&m) {
                avoided.push(m);
            }
        }
        avoided.sort_unstable();
        let moved = avoided != self.advertised_for;
        if moved {
            self.advertised.clear();
            self.advertised_for = avoided;
        }
        moved
    }

    /// Advertise `job`, whose ad or epoch just changed — and with it every
    /// other idle job, if the avoided set has moved since they were.
    fn advertise(&mut self, job: JobId, ctx: &mut Context<'_, Msg>) {
        if self.refresh_avoided(ctx.now) {
            self.advertise_all(ctx);
        } else {
            let to = self.matchmakers(ctx.now);
            self.send_ads(vec![job], &to, ctx);
        }
    }

    /// Advertise every idle job: a renewal, or a reissue under a new
    /// avoided set.
    fn advertise_all(&mut self, ctx: &mut Context<'_, Msg>) {
        let to = self.matchmakers(ctx.now);
        self.send_ads(self.idle.keys().copied().collect(), &to, ctx);
    }

    /// One message to each of `to`, carrying the current ad and epoch of
    /// each of `jobs`; none if there are no jobs.
    fn send_ads(&mut self, jobs: Vec<JobId>, to: &[ActorId], ctx: &mut Context<'_, Msg>) {
        if jobs.is_empty() {
            return;
        }
        let advert = |job: JobId| JobAdvert {
            job,
            ad: self.advertised_ad(job),
            epoch: self.jobs[&job].epoch,
        };
        let adverts: Arc<[JobAdvert]> = jobs.into_iter().map(advert).collect();
        for &matchmaker in to {
            ctx.send_net(matchmaker, Msg::JobAd(Arc::clone(&adverts)));
        }
    }

    /// Where job ads go: the matchmakers of remote pools currently granting
    /// flocked ads (breaker-blocked pools withheld), then the home pool's.
    fn matchmakers(&mut self, now: SimTime) -> Vec<ActorId> {
        let mut out = Vec::new();
        for t in self.flock.iter().flat_map(|cfg| &cfg.pools) {
            if !matches!(self.flock_states.get(&t.pool), Some(FlockState::Granted)) {
                continue;
            }
            let blocked = self
                .pool_breakers
                .get_mut(&t.pool)
                .is_some_and(|b| b.is_blocked(now));
            if !blocked {
                out.push(t.matchmaker);
            }
        }
        out.push(self.matchmaker);
        out
    }

    /// The flocking ladder: when some job has starved past
    /// [`FLOCK_PATIENCE`], probe the first remote pool (in configured
    /// order) that is neither already granting, mid-probe, freshly denied,
    /// nor breaker-blocked. One probe per tick; the probe doubles as a
    /// half-open breaker's trial request.
    fn maybe_flock(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(cfg) = self.flock.clone() else {
            return;
        };
        let starving = self
            .idle
            .iter()
            .filter(|(_, t)| ctx.now.since(**t) >= FLOCK_PATIENCE)
            .map(|(j, _)| *j)
            .next();
        let Some(job) = starving else {
            return;
        };
        for target in &cfg.pools {
            match self
                .flock_states
                .get(&target.pool)
                .copied()
                .unwrap_or(FlockState::Unprobed)
            {
                FlockState::Granted => continue,
                FlockState::Probing { .. } => return, // one probe in flight
                FlockState::Denied { at } if ctx.now.since(at) < FLOCK_DENIAL_DELAY => continue,
                FlockState::Unprobed | FlockState::Denied { .. } => {}
            }
            let blocked = self
                .pool_breakers
                .get_mut(&target.pool)
                .is_some_and(|b| b.is_blocked(ctx.now));
            if blocked {
                continue;
            }
            self.metrics.flock_escalations += 1;
            let probe = self.metrics.flock_escalations;
            self.flock_states
                .insert(target.pool, FlockState::Probing { job, probe });
            ctx.send_net(target.matchmaker, Msg::FlockRequest { pool: target.pool });
            let deadline = Msg::deadline(Site::FlockProbe, target.pool, probe);
            ctx.send_self_after(FLOCK_PROBE_TIMEOUT, deadline);
            return;
        }
    }

    /// Convert a remote-pool failure into an explicit pool-scope error:
    /// emit the [`obs::Event::FlockFault`] marker, walk a lawful journey
    /// (a network-scope escape at the shadow, widened to pool scope at the
    /// schedd — the pool scope's Figure 3 manager — and handled there),
    /// and rule the scope-correct disposition. Under the test-only
    /// `swallow_escapes` mutation the schedd instead swallows the escape,
    /// exactly the Principle-1 breach the oracle must flag.
    fn pool_fault(
        &mut self,
        job: JobId,
        pool: u64,
        kind: &str,
        code: &'static str,
        note: String,
        ctx: &mut Context<'_, Msg>,
    ) {
        self.metrics.flock_faults += 1;
        ctx.emit(obs::Event::FlockFault {
            job: u64::from(job),
            pool,
            kind: kind.to_string(),
        });
        let err = errorscope::ScopedError::escaping(code, Scope::Network, "shadow", note);
        if self.flock.as_ref().is_some_and(|f| f.swallow_escapes) {
            // The deliberate bug: the escape dies here, unwidened and
            // invisible to the user. P1 ("explicit stays explicit") fires.
            let err = err.swallow("schedd");
            for ev in err.trail_events() {
                ctx.emit(ev);
            }
            return;
        }
        let err = err.widen(Scope::Pool, "schedd").handle("schedd");
        for ev in err.trail_events() {
            ctx.emit(ev);
        }
        ctx.emit(obs::Event::Disposition {
            job: u64::from(job),
            disposition: Disposition::for_scope(Scope::Pool).to_string(),
            scope: Scope::Pool.name().to_string(),
            span: err.span,
        });
    }

    /// Feed a failure to `pool`'s breaker and demote the pool: a failing
    /// pool must re-earn its grant through a fresh probe.
    fn pool_breaker_failure(&mut self, pool: u64, matchmaker: usize, ctx: &mut Context<'_, Msg>) {
        let Some(cfg) = &self.flock else {
            return;
        };
        let policy = cfg.breaker;
        let breaker = self
            .pool_breakers
            .entry(pool)
            .or_insert_with(|| CircuitBreaker::new(policy));
        if let Some(tr) = breaker.on_failure(ctx.now) {
            if matches!(tr.to, BreakerState::Open { .. }) {
                self.metrics.breaker_opens += 1;
            }
            ctx.emit(obs::Event::BreakerStateChange {
                machine: matchmaker as u64,
                from: tr.from.name().to_string(),
                to: tr.to.name().to_string(),
            });
        }
        self.flock_states
            .insert(pool, FlockState::Denied { at: ctx.now });
    }

    /// Feed a proof of health to `pool`'s breaker.
    fn pool_breaker_success(&mut self, pool: u64, matchmaker: usize, ctx: &mut Context<'_, Msg>) {
        if let Some(breaker) = self.pool_breakers.get_mut(&pool) {
            if let Some(tr) = breaker.on_success(ctx.now) {
                ctx.emit(obs::Event::BreakerStateChange {
                    machine: matchmaker as u64,
                    from: tr.from.name().to_string(),
                    to: tr.to.name().to_string(),
                });
            }
        }
    }

    /// If `machine` is a flocked (remote-pool) machine, its failure also
    /// sits on an inter-pool link: surface it at pool scope and charge the
    /// pool's breaker. Home-pool machines are untouched.
    fn note_remote_fault(
        &mut self,
        job: JobId,
        machine: usize,
        kind: &str,
        code: &'static str,
        note: String,
        ctx: &mut Context<'_, Msg>,
    ) {
        let Some(cfg) = self.flock.clone() else {
            return;
        };
        let pool = self
            .machine_pool
            .get(&machine)
            .copied()
            .unwrap_or(HOME_POOL);
        if pool == HOME_POOL {
            return;
        }
        self.pool_fault(job, pool, kind, code, note, ctx);
        if let Some(t) = cfg.pools.iter().find(|t| t.pool == pool) {
            self.pool_breaker_failure(pool, t.matchmaker, ctx);
        }
    }

    /// Reschedule after `delay`, or hold the job if its attempt budget is
    /// exhausted.
    fn reschedule_or_hold(&mut self, job: JobId, delay: SimDuration, ctx: &mut Context<'_, Msg>) {
        let attempts = self.jobs[&job].attempts.len();
        if attempts as u32 >= self.policy.max_attempts {
            let reason = format!("{attempts} failed attempts");
            self.transition(job, JobState::Held { reason }, ctx);
            self.user_sees(ctx.now, job, "job held: too many failed attempts");
            return;
        }
        self.transition(job, JobState::Waiting, ctx);
        ctx.send_self_after(delay, Msg::RetryJob { job });
    }

    /// The epoch a deadline at `site` for `id` must carry to be live: the
    /// job's claim epoch, or the number of the pool's outstanding probe.
    fn live_epoch(&self, site: Site, id: u64) -> Option<u64> {
        match site {
            Site::FlockProbe => match self.flock_states.get(&id)? {
                FlockState::Probing { probe, .. } => Some(*probe),
                _ => None,
            },
            _ => Some(self.jobs.get(&JobId::try_from(id).ok()?)?.epoch),
        }
    }

    /// The submit-side half of the lease: has the running claim been heard
    /// from within the lease timeout? If not, the silent partition becomes
    /// an explicit scope-of-the-claim error *now*, instead of waiting for
    /// the much longer report timeout.
    fn check_lease(&mut self, job: JobId, machine: usize, epoch: u64, ctx: &mut Context<'_, Msg>) {
        let Some(lease) = self.policy.lease else {
            return;
        };
        let silent = ctx.now.since(self.jobs[&job].last_heartbeat);
        if silent < lease.timeout {
            // Heard from within the window: re-arm for the remainder.
            let remaining =
                SimDuration::from_micros(lease.timeout.as_micros() - silent.as_micros());
            ctx.send_self_after(remaining, Msg::deadline(Site::Lease, job, epoch));
            return;
        }
        self.claim_vanished(job, machine, Site::Lease, ctx);
    }

    /// A running claim went silent: no report by its deadline
    /// ([`Site::Report`]: machine crash or partition), or its lease
    /// unrenewed ([`Site::Lease`]). An escaping error whose only
    /// representation is silence — time gives it scope (§5): the attempt
    /// ends, charged to the machine, and the job tries again.
    fn claim_vanished(
        &mut self,
        job: JobId,
        machine: usize,
        cause: Site,
        ctx: &mut Context<'_, Msg>,
    ) {
        let lease = cause == Site::Lease;
        if lease {
            ctx.emit(obs::Event::LeaseExpired {
                job: u64::from(job),
                machine: machine as u64,
                side: "schedd".to_string(),
            });
            self.metrics.leases_expired += 1;
        }
        let (reason, kind, code) = if lease {
            (
                "lease expired: claim unreachable",
                "lease",
                "FlockLeaseExpired",
            )
        } else {
            (
                "no report: machine crashed or unreachable",
                "claim",
                "FlockClaimVanished",
            )
        };
        ctx.emit(obs::Event::Reschedule {
            job: u64::from(job),
            machine: machine as u64,
            reason: reason.into(),
        });
        let rec = self.jobs.get_mut(&job).expect("a live deadline's job");
        let exec_time = rec.spec.exec_time;
        rec.attempts.push(Attempt {
            machine,
            started: ctx.now,
            ended: ctx.now,
            scope: None,
            note: reason.into(),
        });
        self.metrics.vanished_attempts += 1;
        self.metrics.wasted_cpu += exec_time;
        *self.chronic.entry(machine).or_insert(0) += 1;
        self.machine_failure(machine, ctx);
        let note = if lease {
            format!("lease on flocked machine {machine} expired for job {job}")
        } else {
            format!("flocked job {job} vanished on remote machine {machine}")
        };
        self.note_remote_fault(job, machine, kind, code, note, ctx);
        let delay = self.backoff_delay(job, ctx);
        self.reschedule_or_hold(job, delay, ctx);
    }

    /// No [`Msg::FlockGrant`] answered the probe of `pool` in time.
    fn probe_unanswered(&mut self, pool: u64, ctx: &mut Context<'_, Msg>) {
        let Some(&FlockState::Probing { job, .. }) = self.flock_states.get(&pool) else {
            return;
        };
        let mut pools = self.flock.iter().flat_map(|cfg| &cfg.pools);
        let Some(target) = pools.find(|t| t.pool == pool).copied() else {
            return;
        };
        // Silence from the remote matchmaker: an unreachable pool, made
        // explicit by time (§5) instead of hanging the probe.
        self.flock_states
            .insert(pool, FlockState::Denied { at: ctx.now });
        self.pool_fault(
            job,
            pool,
            "unreachable",
            "PoolUnreachable",
            format!("pool {pool} matchmaker silent for {FLOCK_PROBE_TIMEOUT}: unreachable"),
            ctx,
        );
        self.pool_breaker_failure(pool, target.matchmaker, ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_report(
        &mut self,
        job: JobId,
        from: ActorId,
        report: ExecutionReport,
        cpu: SimDuration,
        started: SimTime,
        ckpt: CkptAttempt,
        epoch: u64,
        ctx: &mut Context<'_, Msg>,
    ) {
        // A report from a closed claim — a duplicated frame, a late
        // delivery from a healed partition, or a claim the lease check
        // already expired — is counted, never acted on. The report closes
        // the claim: every arm below ends in the transition that moves the
        // epoch, so anything stamped with this one from then on is stale.
        let Some(JobState::Running { machine }) = self.live_claim(job, epoch, from, "report", ctx)
        else {
            return;
        };

        // Settle the attempt's checkpoint-resume outcome first: it adjusts
        // the banked progress the report's own accounting builds on.
        let ckpt_note = match ckpt {
            CkptAttempt::None => None,
            CkptAttempt::Resumed { saved } => {
                self.metrics.checkpoints_restored += 1;
                self.metrics.work_saved_by_checkpoint += saved;
                Some(format!("resumed from checkpoint ({saved} saved)"))
            }
            CkptAttempt::Discarded { reason } => {
                // An explicit checkpoint-scope error: the image (and the
                // progress it banked) is gone, and the attempt cold-
                // restarted from zero.
                self.metrics.checkpoints_discarded += 1;
                let rec = self.jobs.get_mut(&job).unwrap();
                self.metrics.work_lost_to_eviction += rec.progress;
                rec.progress = SimDuration::ZERO;
                rec.ckpt_key = None;
                Some(format!("checkpoint discarded ({reason}); cold-restarted"))
            }
        };
        let attempts_before = self.jobs[&job].attempts.len();

        match report {
            // ---- owner reclaimed the machine: not an error at all ----
            ExecutionReport::Evicted {
                completed,
                checkpointed,
                stored,
            } => {
                self.metrics.evictions += 1;
                let rec = self.jobs.get_mut(&job).unwrap();
                let note = if let Some(s) = stored {
                    // Checkpoint-server mode: bank exactly what the stored
                    // image preserves; the tail past the last periodic
                    // checkpoint is lost.
                    rec.progress += s.banked;
                    rec.ckpt_key = Some(s.key);
                    self.metrics.checkpointed_work += s.banked;
                    let lost = SimDuration::from_micros(
                        completed.as_micros().saturating_sub(s.banked.as_micros()),
                    );
                    self.metrics.work_lost_to_eviction += lost;
                    self.metrics.checkpoints_taken += 1;
                    self.metrics.checkpoint_bytes += s.bytes;
                    format!(
                        "evicted by owner; checkpointed {} of work ({lost} lost)",
                        s.banked
                    )
                } else if checkpointed {
                    rec.progress += completed;
                    self.metrics.checkpointed_work += completed;
                    format!("evicted by owner; checkpointed {completed} of work")
                } else {
                    self.metrics.work_lost_to_eviction += completed;
                    format!("evicted by owner; {completed} of work lost")
                };
                let rec = self.jobs.get_mut(&job).unwrap();
                rec.attempts.push(Attempt {
                    machine,
                    started,
                    ended: ctx.now,
                    scope: None,
                    note,
                });
                // Owner policy, not a chronic failure: reschedule without
                // blaming the host, reset the backoff, and tell the breaker
                // the machine is demonstrably alive.
                self.machine_success(machine, ctx);
                let rec = self.jobs.get_mut(&job).unwrap();
                rec.backoff_level = 0;
                self.reschedule_or_hold(job, self.policy.retry.base_delay(), ctx);
                let _ = cpu;
            }

            // ---- the naive discipline: the exit code is the result ----
            ExecutionReport::NaiveExit {
                code,
                stdout: _,
                truth_scope,
                truth_note,
            } => {
                let rec = self.jobs.get_mut(&job).expect("a live claim's job");
                rec.attempts.push(Attempt {
                    machine,
                    started,
                    ended: ctx.now,
                    scope: Some(truth_scope),
                    note: truth_note.clone(),
                });
                self.metrics.record_outcome(truth_scope, cpu);
                // The naive schedd believes every exit is a result, so the
                // machine looks healthy regardless of the hidden truth — it
                // has no scope information to feed the breaker.
                self.machine_success(machine, ctx);
                if truth_scope == Scope::Program {
                    let result = ResultFile::completed(code);
                    self.transition(job, JobState::Completed { result }, ctx);
                    self.user_sees(ctx.now, job, format!("job exited with code {code}"));
                } else {
                    // The environmental error reaches the user dressed as a
                    // result. "It required frequent postmortem analysis to
                    // determine whether the job had exited of its own
                    // account or because of accidental properties of the
                    // execution site."
                    self.metrics.incidental_errors_shown_to_user += 1;
                    ctx.emit(obs::Event::Violation {
                        principle: 3,
                        machine: machine as u64,
                        detail: format!(
                            "{truth_scope}-scope error delivered to user as a result: {truth_note}"
                        ),
                    });
                    let shown = format!("job exited with code {code}");
                    self.user_sees(ctx.now, job, shown.clone());
                    self.transition(job, JobState::AwaitingPostmortem { shown }, ctx);
                    ctx.send_self_after(self.policy.postmortem_delay, Msg::PostmortemDone { job });
                }
            }

            // ---- the scoped discipline: route by error scope ----
            ExecutionReport::Scoped { result, journey } => {
                let scope = result.scope();
                let note = result.to_string();
                let rec = self.jobs.get_mut(&job).expect("a live claim's job");
                rec.attempts.push(Attempt {
                    machine,
                    started,
                    ended: ctx.now,
                    scope: Some(scope),
                    note: note.clone(),
                });
                self.metrics.record_outcome(scope, cpu);
                // Advance the error's journey through the submission side:
                // the startd emitted every hop up to here; the schedd emits
                // only the hops it appends.
                let journey = journey.map(|j| {
                    let before = j.trail.len();
                    let stack = errorscope::propagate::java_universe_stack();
                    let (j, _done) = crate::telemetry::advance_journey(
                        &stack,
                        j,
                        crate::telemetry::SUBMIT_SIDE_LAYERS,
                    );
                    crate::telemetry::emit_journey_hops(ctx, &j, before);
                    j
                });
                let disposition = Disposition::for_scope(scope);
                ctx.emit(obs::Event::Disposition {
                    job: u64::from(job),
                    disposition: disposition.to_string(),
                    scope: scope.name().to_string(),
                    span: journey.as_ref().map_or(obs::NO_SPAN, |j| j.span),
                });
                match disposition {
                    Disposition::ReturnCompleted => {
                        self.machine_success(machine, ctx);
                        let text = match &result.outcome {
                            Outcome::Completed { exit_code } => {
                                format!("job completed with exit code {exit_code}")
                            }
                            Outcome::ProgramException { exception, message } => {
                                format!("job threw {exception}: {message}")
                            }
                            Outcome::EnvironmentFailure { .. } => unreachable!(),
                        };
                        self.transition(job, JobState::Completed { result }, ctx);
                        self.user_sees(ctx.now, job, text);
                    }
                    Disposition::ReturnUnexecutable => {
                        // The machine faithfully ran the job far enough to
                        // prove the *job* is at fault: a healthy host.
                        self.machine_success(machine, ctx);
                        let reason = note.clone();
                        self.transition(job, JobState::Unexecutable { reason }, ctx);
                        self.user_sees(ctx.now, job, format!("job is unexecutable: {note}"));
                    }
                    Disposition::LogAndReschedule | Disposition::EscalateToHuman => {
                        // "Anything in between causes it to log the error
                        // and then attempt to execute the program at a new
                        // site."
                        ctx.emit(obs::Event::Reschedule {
                            job: u64::from(job),
                            machine: machine as u64,
                            reason: format!("{scope}-scope error: {note}"),
                        });
                        self.metrics.reschedules += 1;
                        let delay = if scope == Scope::LocalResource {
                            // Our own file system's fault, not the host's:
                            // no blame, no backoff escalation.
                            LOCAL_RESOURCE_DELAY
                        } else {
                            *self.chronic.entry(machine).or_insert(0) += 1;
                            self.machine_failure(machine, ctx);
                            self.backoff_delay(job, ctx)
                        };
                        self.reschedule_or_hold(job, delay, ctx);
                    }
                }
            }
        }

        // Fold the checkpoint-resume outcome into the attempt record so the
        // job history shows "resumed" / "discarded" alongside the verdict.
        if let Some(prefix) = ckpt_note {
            let rec = self.jobs.get_mut(&job).unwrap();
            if let Some(att) = rec.attempts.get_mut(attempts_before) {
                att.note = format!("{prefix}; {}", att.note);
            }
        }
    }
}
