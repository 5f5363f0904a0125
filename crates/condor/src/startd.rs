//! The startd and its starter.
//!
//! "Each execution site is managed by a startd that enforces the machine
//! owner's policy … The startd creates a starter, which is responsible for
//! the execution environment, such as creating a scratch directory, loading
//! the executable, and moving input and output files" (§2.1). Here the
//! starter is the startd's execution arm: it builds the scratch sandbox,
//! hosts the Chirp proxy, invokes the VM (bare in the naive mode, wrapped
//! in the scoped mode), and reports to the shadow.
//!
//! Two §5 mechanisms live here:
//! * the **startup self-test** ("rather than blindly accept each owner's
//!   assertion regarding the Java installation, we modified the startd to
//!   test the installation at startup"), and
//! * optional **learning from failures**: a remote-resource-scope failure
//!   is the starter's to handle (Figure 3), and the startd reacts by
//!   ceasing to advertise the capability.

use crate::faults::FaultPlan;
use crate::job::Universe;
use crate::machine::{child_ad, MachineSpec, SharedConfig};
use crate::metrics::MachineStats;
use crate::msg::{Activation, CkptAttempt, ExecutionReport, Msg, Site, StoredCkpt};
use chirp::backend::MemFs;
use chirp::client::{ChirpClient, ClientDiscipline};
use chirp::cookie::Cookie;
use chirp::server::{ChirpServer, ErrorDiscipline};
use chirp::transport::DirectTransport;
use chirp::wire;
use chirp::{Request, Response};
use classads::matchmaking::requirements_met;
use classads::ClassAd;
use desim::prelude::*;
use errorscope::error::codes;
use errorscope::resultfile::ResultFile;
use errorscope::Scope;
use gridvm::config::{InstallHealth, Installation, SelfTestDepth};
use gridvm::jvmio::{ChirpJobIo, NoIo};
use gridvm::wrapper::{run_naive, run_wrapped};
use gridvm::{self_test, Termination};
use std::borrow::Cow;
use std::sync::Arc;

pub use crate::matchmaker::KEEPALIVE_PERIOD;

/// How long a resuming starter waits for the checkpoint server before it
/// declares the checkpoint unreachable and restarts cold.
pub const CKPT_FETCH_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// How long a failed startup (misconfiguration, corrupt image) occupies the
/// machine before the error surfaces — fast, but not free. This is what
/// makes §5's black holes attractive: they "fail fast" and come right back
/// for more jobs.
pub const FAIL_FAST_TIME: SimDuration = SimDuration::from_secs(2);
/// How long an accepted claim may sit unactivated before the startd frees
/// itself. Without this, a partition between acceptance and activation
/// wedges the machine forever — the claim itself needs a scope in time.
pub const CLAIM_ACTIVATION_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// The startd's configuration knobs.
#[derive(Debug, Clone, Copy)]
pub struct StartdPolicy {
    /// Depth of the startup installation test (§5).
    pub self_test: SelfTestDepth,
    /// Whether a remote-resource-scope failure revokes the advertised
    /// capability (the "complementary approach" applied at the execution
    /// side).
    pub learn_from_failures: bool,
    /// Periodic-checkpoint interval for Standard-universe jobs when a
    /// checkpoint server is configured: banked progress is floored to the
    /// last period boundary (the work since the last periodic checkpoint
    /// is lost at eviction). `None` checkpoints exactly at the eviction
    /// instant.
    pub ckpt_period: Option<SimDuration>,
}

impl Default for StartdPolicy {
    fn default() -> Self {
        StartdPolicy {
            self_test: SelfTestDepth::None,
            learn_from_failures: false,
            ckpt_period: None,
        }
    }
}

/// A checkpoint image built at eviction time, awaiting shipment to the
/// checkpoint server when the starter winds down.
struct PendingPut {
    key: String,
    image: Vec<u8>,
    banked: SimDuration,
}

enum State {
    Free,
    Claimed {
        schedd: ActorId,
        job: u32,
        epoch: u64,
    },
    /// Fetching a stored checkpoint from the checkpoint server before
    /// starting a resumed activation.
    AwaitCkpt {
        schedd: ActorId,
        act: Box<Activation>,
    },
    Running {
        schedd: ActorId,
        job: u32,
        epoch: u64,
        lease: Option<crate::msg::LeaseInfo>,
        /// When the schedd last acknowledged a heartbeat (or the claim was
        /// activated) — the execute-side half of the lease.
        last_ack: SimTime,
        started: SimTime,
        report: Box<ExecutionReport>,
        cpu: SimDuration,
        ckpt: CkptAttempt,
        pending_put: Option<PendingPut>,
    },
}

/// The startd actor.
pub struct Startd {
    /// What the owner configured, shared with every machine configured
    /// alike; the machine's name is `stats.name`.
    config: Arc<SharedConfig>,
    policy: StartdPolicy,
    matchmaker: ActorId,
    plan: Arc<FaultPlan>,
    state: State,
    advertising_java: bool,
    /// This machine's ad — `Name`, `MachineId` and `HasJava` chained to
    /// the configuration's base ad — built at first use, re-sent by
    /// reference on every advertisement and checked against every claim;
    /// dropped when `advertising_java` changes.
    ad: Option<Arc<ClassAd>>,
    /// The pool this machine belongs to. Claims stamped with a different
    /// pool are rejected; activations are revoked. Defaults to 0.
    pub(crate) pool_id: u64,
    /// The checkpoint server to migrate Standard-universe jobs through,
    /// if the pool runs one.
    ckpt_server: Option<(ActorId, Cookie)>,
    /// This actor's id, learned from the context (used as the fault-plan
    /// key).
    stats_id: usize,
    /// Accumulated statistics.
    pub stats: MachineStats,
}

impl Startd {
    /// A startd for `spec`, reporting to `matchmaker`, under `plan`.
    pub fn new(
        spec: MachineSpec,
        policy: StartdPolicy,
        matchmaker: ActorId,
        plan: Arc<FaultPlan>,
    ) -> Startd {
        let config = Arc::new(SharedConfig::of(&spec));
        Startd::sharing(config, spec.name, policy, matchmaker, plan)
    }

    /// [`Startd::new`] for the machine called `name`, over a `config`
    /// shared with other machines, as the pool builder's `SharedConfigs`
    /// hands it out.
    pub(crate) fn sharing(
        config: Arc<SharedConfig>,
        name: String,
        policy: StartdPolicy,
        matchmaker: ActorId,
        plan: Arc<FaultPlan>,
    ) -> Startd {
        let stats = MachineStats {
            name,
            ..MachineStats::default()
        };
        Startd {
            config,
            policy,
            matchmaker,
            plan,
            state: State::Free,
            advertising_java: false,
            ad: None,
            pool_id: 0,
            ckpt_server: None,
            stats_id: usize::MAX,
            stats,
        }
    }

    /// Point this startd at the pool's checkpoint server (builder style).
    pub fn with_ckpt_server(mut self, server: ActorId, cookie: Cookie) -> Startd {
        self.ckpt_server = Some((server, cookie));
        self
    }

    /// Place this machine in pool `pool_id` (builder style).
    pub fn with_pool(mut self, pool_id: u64) -> Startd {
        self.pool_id = pool_id;
        self
    }

    /// Is the machine currently advertising Java capability?
    pub fn advertising_java(&self) -> bool {
        self.advertising_java
    }

    fn crashed(&self, now: SimTime) -> bool {
        self.plan.crashed_at(self.stats_id, now)
    }

    /// The machine's ad as it stands, `id` being this actor's.
    fn ad(&mut self, id: ActorId) -> &Arc<ClassAd> {
        self.ad.get_or_insert_with(|| {
            let base = Arc::clone(&self.config.base);
            let mut ad = child_ad(base, &self.stats.name, self.advertising_java);
            ad.insert("MachineId", classads::Value::Int(id as i64));
            Arc::new(ad)
        })
    }

    /// Refuse `from`'s claim request: counted, recorded and answered.
    fn reject_claim(
        &mut self,
        from: ActorId,
        job: u32,
        epoch: u64,
        reason: &str,
        ctx: &mut Context<'_, Msg>,
    ) {
        self.stats.claims_rejected += 1;
        let outcome = obs::ClaimOutcome::Rejected {
            reason: reason.into(),
        };
        self.emit_claim(ctx, job, outcome);
        let reason = reason.into();
        ctx.send_net(from, Msg::ClaimReject { job, reason, epoch });
    }

    /// Tell the matchmaker this machine is on offer — if it is: free, up,
    /// and its owner away (an owner at the keyboard withdraws the machine
    /// from the pool; a job running at the window onset was evicted by
    /// the `ExecutionComplete` path).
    fn advertise(&mut self, ctx: &mut Context<'_, Msg>) {
        if !matches!(self.state, State::Free)
            || self.crashed(ctx.now)
            || self.plan.owner_busy_at(ctx.self_id, ctx.now)
        {
            return;
        }
        let ad = Arc::clone(self.ad(ctx.self_id));
        self.stats.ads_sent += 1;
        ctx.send_net(
            self.matchmaker,
            Msg::MachineAd {
                ad,
                claims: self.stats.claims_accepted,
            },
        );
    }

    /// The claim this startd holds, as `(job, epoch)`: what a deadline it
    /// armed must still name to be live.
    fn claim_held(&self) -> Option<(u64, u64)> {
        let (job, epoch) = match &self.state {
            State::Free => return None,
            State::Claimed { job, epoch, .. } | State::Running { job, epoch, .. } => (*job, *epoch),
            State::AwaitCkpt { act, .. } => (act.job, act.epoch),
        };
        Some((job.into(), epoch))
    }

    /// Every way a claim ends comes through here: the machine is free, and
    /// says so at once instead of at the next tick — so a black hole that
    /// "fails fast" is back in the pool the instant it fails (§5).
    fn release(&mut self, ctx: &mut Context<'_, Msg>) {
        self.state = State::Free;
        self.advertise(ctx);
    }
}

impl Actor<Msg> for Startd {
    fn name(&self) -> String {
        format!("startd:{}", self.stats.name)
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.stats_id = ctx.self_id;
        // §5: test the installation before advertising the capability.
        self.advertising_java =
            self.config.asserts_java && self_test(&self.config.installation, self.policy.self_test);
        self.stats.advertising_java = self.advertising_java;
        self.release(ctx);
        ctx.send_self_after(KEEPALIVE_PERIOD, Msg::AdvertiseTick);
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.stats_id = ctx.self_id;
        match msg {
            Msg::AdvertiseTick => {
                if self.crashed(ctx.now) {
                    // Crash wipes any in-flight work; the shadow's timeout
                    // is what notices.
                    self.release(ctx);
                } else {
                    // The keep-alive: the same ad again, if still on offer.
                    self.advertise(ctx);
                }
                ctx.send_self_after(KEEPALIVE_PERIOD, Msg::AdvertiseTick);
            }
            Msg::ClaimRequest {
                job,
                ad,
                epoch,
                pool,
            } => {
                if self.crashed(ctx.now) {
                    return; // silence; the schedd's claim timeout fires
                }
                // A claim fenced to the wrong pool (a stale flock target, or
                // a schedd with an outdated map) is refused explicitly, never
                // activated across pools; and "matched processes are
                // individually responsible for … verifying that their needs
                // are met", against the very ad the match was made on.
                let refusal = if pool != self.pool_id {
                    Some("pool mismatch")
                } else if !matches!(self.state, State::Free) {
                    Some("busy")
                } else {
                    let my_ad = self.ad(ctx.self_id);
                    let met = requirements_met(my_ad, &ad) && requirements_met(&ad, my_ad);
                    (!met).then_some("requirements no longer met")
                };
                if let Some(reason) = refusal {
                    return self.reject_claim(from, job, epoch, reason, ctx);
                }
                self.stats.claims_accepted += 1;
                self.emit_claim(ctx, job, obs::ClaimOutcome::Accepted);
                self.state = State::Claimed {
                    schedd: from,
                    job,
                    epoch,
                };
                ctx.send_net(from, Msg::ClaimAccept { job, epoch });
                // If the activation never arrives (lost, or the schedd gave
                // up), free the machine instead of wedging on a dead claim.
                let deadline = Msg::deadline(Site::Activation, job, epoch);
                ctx.send_self_after(CLAIM_ACTIVATION_TIMEOUT, deadline);
            }
            Msg::ActivateClaim(act) => {
                let State::Claimed { schedd, job, epoch } = self.state else {
                    return; // stale activation
                };
                if schedd != from || act.job != job || self.crashed(ctx.now) {
                    return;
                }
                if act.epoch != epoch {
                    // An activation from a claim this startd no longer
                    // holds (a late frame from a healed partition).
                    self.stats.stale_epochs_dropped += 1;
                    ctx.emit(obs::Event::StaleEpochDropped {
                        job: u64::from(job),
                        kind: "activation".to_string(),
                        got: act.epoch,
                        current: epoch,
                    });
                    return;
                }
                if act.pool != self.pool_id || self.plan.flock_revoked_at(ctx.self_id, ctx.now) {
                    // The remote administrator reclaims the machine at the
                    // worst moment (or the activation is fenced to the
                    // wrong pool): revoke explicitly — the visiting schedd
                    // hears a claim-scope error, never silence.
                    ctx.send_net(from, Msg::ClaimRevoked { job, epoch });
                    self.release(ctx);
                    return;
                }
                if let (Universe::Standard, Some(resume), Some((server, cookie))) =
                    (&act.universe, &act.resume, &self.ckpt_server)
                {
                    // A previous attempt left a checkpoint: fetch it
                    // before deciding how the run starts.
                    let server = *server;
                    let mut frames = wire::frame(&wire::encode_request(&Request::Auth {
                        cookie: cookie.as_bytes().to_vec(),
                    }));
                    frames.extend_from_slice(&wire::frame(&wire::encode_request(
                        &Request::GetCkpt {
                            key: resume.key.clone(),
                        },
                    )));
                    self.state = State::AwaitCkpt { schedd, act };
                    ctx.send_net(server, Msg::CkptRequest { frames });
                    let deadline = Msg::deadline(Site::CkptFetch, job, epoch);
                    ctx.send_self_after(CKPT_FETCH_TIMEOUT, deadline);
                    return;
                }
                self.activate(schedd, act, None, CkptAttempt::None, SimDuration::ZERO, ctx);
            }
            Msg::CkptResponse { frames } => {
                if !matches!(self.state, State::AwaitCkpt { .. }) {
                    return; // stale response (e.g. the ack of a PUT)
                }
                if self.crashed(ctx.now) {
                    self.release(ctx);
                    return;
                }
                let State::AwaitCkpt { schedd, act } =
                    std::mem::replace(&mut self.state, State::Free)
                else {
                    unreachable!()
                };
                let banked = act
                    .resume
                    .as_ref()
                    .map(|r| r.banked)
                    .unwrap_or(SimDuration::ZERO);
                match self.validate_ckpt(&frames, &act) {
                    Ok(mut machine) => {
                        // SDC injection window: the image digest has just
                        // been validated, the machine is about to run. A
                        // bit flipped into the live heap *here* is exactly
                        // the damage no checksum can see — the scrubber
                        // logs it, and the run completes with a silently
                        // wrong answer (an escape, not a crash).
                        if let Some(seed) = self.plan.heap_flip_for(act.job) {
                            if let Some(bit) = machine.flip_heap_bit(seed) {
                                ctx.emit(obs::Event::MemFlip {
                                    job: u64::from(act.job),
                                    machine: ctx.self_id as u64,
                                    target: "heap-word".to_string(),
                                    bit,
                                });
                            }
                        }
                        ctx.emit(obs::Event::CheckpointRestored {
                            job: u64::from(act.job),
                            machine: ctx.self_id as u64,
                            saved_us: banked.as_micros(),
                        });
                        self.activate(
                            schedd,
                            act,
                            Some(machine),
                            CkptAttempt::Resumed { saved: banked },
                            banked,
                            ctx,
                        );
                    }
                    Err(reason) => self.discard_and_restart(schedd, act, reason, ctx),
                }
            }
            Msg::Deadline { site, id, epoch } => {
                // The one stale test: live only while this startd still
                // holds the claim the deadline was armed for.
                if self.claim_held() != Some((id, epoch)) {
                    return;
                }
                match site {
                    Site::Activation if matches!(self.state, State::Claimed { .. }) => {
                        self.release(ctx)
                    }
                    Site::CkptFetch if matches!(self.state, State::AwaitCkpt { .. }) => {
                        if self.crashed(ctx.now) {
                            self.release(ctx);
                            return;
                        }
                        // The fetch never answered (lost on the network, or
                        // the server is gone). An unreachable checkpoint is
                        // the same explicit error as a corrupt one: discard
                        // and cold-restart.
                        let State::AwaitCkpt { schedd, act } =
                            std::mem::replace(&mut self.state, State::Free)
                        else {
                            unreachable!()
                        };
                        let reason = "checkpoint server unreachable".to_string();
                        self.discard_and_restart(schedd, act, reason, ctx);
                    }
                    _ => {}
                }
            }
            Msg::ExecutionComplete { job } => {
                let State::Running {
                    job: running,
                    started,
                    ..
                } = self.state
                else {
                    return;
                };
                if running != job {
                    return;
                }
                if self.plan.crashes_during(ctx.self_id, started, ctx.now) {
                    // The machine died mid-run: no report, ever. The claim
                    // evaporates; the shadow's timeout is the escaping
                    // error's only witness.
                    self.release(ctx);
                    return;
                }
                let State::Running {
                    schedd,
                    epoch,
                    report,
                    cpu,
                    started,
                    ckpt,
                    pending_put,
                    ..
                } = std::mem::replace(&mut self.state, State::Free)
                else {
                    unreachable!()
                };
                if let Some(put) = pending_put {
                    if let Some((server, cookie)) = self.ckpt_server.clone() {
                        ctx.emit(obs::Event::CheckpointTaken {
                            job: u64::from(job),
                            machine: ctx.self_id as u64,
                            bytes: put.image.len() as u64,
                            banked_us: put.banked.as_micros(),
                        });
                        let mut frames = wire::frame(&wire::encode_request(&Request::Auth {
                            cookie: cookie.as_bytes().to_vec(),
                        }));
                        frames.extend_from_slice(&wire::frame(&wire::encode_request(
                            &Request::PutCkpt {
                                key: put.key,
                                data: put.image,
                            },
                        )));
                        ctx.send_net(server, Msg::CkptRequest { frames });
                    }
                }
                ctx.send_net(
                    schedd,
                    Msg::StarterReport {
                        job,
                        report,
                        cpu,
                        started,
                        ckpt,
                        epoch,
                    },
                );
                self.release(ctx);
            }
            Msg::HeartbeatTick { job, epoch } => {
                let State::Running {
                    schedd,
                    job: running,
                    epoch: current,
                    lease: Some(lease),
                    last_ack,
                    ..
                } = self.state
                else {
                    return; // claim gone (or unleased); the loop dies with it
                };
                if running != job || current != epoch || self.crashed(ctx.now) {
                    return;
                }
                if ctx.now.since(last_ack) >= lease.timeout {
                    // The schedd has gone silent past the lease: this side
                    // abandons the claim too, so both sides agree the claim
                    // is dead — no half-orphaned execution.
                    self.stats.leases_expired += 1;
                    ctx.emit(obs::Event::LeaseExpired {
                        job: u64::from(job),
                        machine: ctx.self_id as u64,
                        side: "startd".to_string(),
                    });
                    self.release(ctx);
                    return;
                }
                ctx.send_net(schedd, Msg::Heartbeat { job, epoch });
                ctx.send_self_after(lease.interval, Msg::HeartbeatTick { job, epoch });
            }
            Msg::HeartbeatAck { job, epoch } => {
                if let State::Running {
                    job: running,
                    epoch: current,
                    last_ack,
                    ..
                } = &mut self.state
                {
                    if *running != job {
                        return;
                    }
                    if *current != epoch {
                        let current = *current;
                        self.stats.stale_epochs_dropped += 1;
                        ctx.emit(obs::Event::StaleEpochDropped {
                            job: u64::from(job),
                            kind: "heartbeat-ack".to_string(),
                            got: epoch,
                            current,
                        });
                        return;
                    }
                    *last_ack = ctx.now;
                }
            }
            Msg::ReleaseClaim { job } => {
                if let State::Claimed { job: claimed, .. } = self.state {
                    if claimed == job {
                        self.release(ctx);
                    }
                }
            }
            _ => {}
        }
    }
}

impl Startd {
    /// Start (or resume) an activated claim: run the starter, precompute
    /// an owner eviction — building the checkpoint image to ship if a
    /// checkpoint server is configured — and settle into `Running`.
    ///
    /// `banked_prev` is the execution time a successful resume recovered
    /// (zero for cold starts); `act.exec_time` is the time still owed.
    fn activate(
        &mut self,
        schedd: ActorId,
        act: Box<Activation>,
        resumed: Option<gridvm::Machine>,
        ckpt: CkptAttempt,
        banked_prev: SimDuration,
        ctx: &mut Context<'_, Msg>,
    ) {
        let job = act.job;
        let (mut report, mut cpu) = match resumed {
            Some(mut m) => {
                // Run the restored interpreter to completion for the true
                // result — the resumed program picks up mid-execution and
                // never observes that it migrated.
                self.stats.executions += 1;
                let image = gridvm::ProgramImage::from_bytes(&act.image)
                    .expect("image validated during checkpoint restore");
                let out = m
                    .run(&image, &self.direct_install(), &mut NoIo, None)
                    .expect("unbudgeted run always terminates");
                self.stats.absorb_vm(&out.vm);
                self.finish(out.termination, out.stdout, out.instructions, &act)
            }
            None => self.execute(&act, ctx),
        };
        // Owner reclamation: if the owner returns before the run finishes,
        // the job is evicted at that instant. Standard-universe jobs are
        // checkpointed first (§2.1); everyone else loses the partial work.
        let mut pending_put = None;
        let t_done = ctx.now + cpu;
        if let Some(evict_at) = self.plan.owner_returns_during(ctx.self_id, ctx.now, t_done) {
            let elapsed = evict_at - ctx.now;
            let mut checkpointed = matches!(act.universe, Universe::Standard);
            let mut stored = None;
            if checkpointed && self.ckpt_server.is_some() {
                // Server mode: "checkpointed" means an image actually gets
                // shipped, and the banked progress is floored to the
                // periodic-checkpoint boundary — the work since the last
                // periodic checkpoint is lost.
                let full = act.exec_time + banked_prev;
                let cumulative = banked_prev + elapsed;
                let banked_cum = match self.policy.ckpt_period {
                    Some(p) if p.as_micros() > 0 => SimDuration::from_micros(
                        cumulative.as_micros() / p.as_micros() * p.as_micros(),
                    ),
                    _ => cumulative,
                };
                let banked_new = SimDuration::from_micros(
                    banked_cum
                        .as_micros()
                        .saturating_sub(banked_prev.as_micros()),
                );
                if banked_cum > SimDuration::ZERO {
                    if let Some(image) = self.build_ckpt(&act, full, banked_cum) {
                        let key = ckpt::key(u64::from(job), act.attempt as u32);
                        stored = Some(StoredCkpt {
                            key: key.clone(),
                            bytes: image.len() as u64,
                            banked: banked_new,
                        });
                        pending_put = Some(PendingPut {
                            key,
                            image,
                            banked: banked_cum,
                        });
                    }
                }
                checkpointed = stored.is_some();
            }
            report = ExecutionReport::Evicted {
                completed: elapsed,
                checkpointed,
                stored,
            };
            cpu = elapsed;
        }
        self.state = State::Running {
            schedd,
            job,
            epoch: act.epoch,
            lease: act.lease,
            last_ack: ctx.now,
            started: ctx.now,
            report: Box::new(report),
            cpu,
            ckpt,
            pending_put,
        };
        // The execute-side half of the lease: heartbeat until the claim
        // closes (the tick dies with the Running state) or the schedd's
        // acks stop coming.
        if let Some(lease) = act.lease {
            let epoch = act.epoch;
            ctx.send_self_after(lease.interval, Msg::HeartbeatTick { job, epoch });
        }
        ctx.send_self_after(cpu, Msg::ExecutionComplete { job });
    }

    /// The resume failed: the checkpoint is explicitly discarded and the
    /// activation falls back to a cold restart, owing the full execution
    /// time again. This is checkpoint scope in action (P1/P2): the bad
    /// image is caught at the checkpoint layer and never reaches the
    /// program.
    fn discard_and_restart(
        &mut self,
        schedd: ActorId,
        mut act: Box<Activation>,
        reason: String,
        ctx: &mut Context<'_, Msg>,
    ) {
        let banked = act
            .resume
            .as_ref()
            .map(|r| r.banked)
            .unwrap_or(SimDuration::ZERO);
        ctx.emit(obs::Event::CheckpointDiscarded {
            job: u64::from(act.job),
            machine: ctx.self_id as u64,
            reason: reason.clone(),
        });
        // The banked work is gone: the cold restart redoes it.
        act.exec_time += banked;
        act.resume = None;
        self.activate(
            schedd,
            act,
            None,
            CkptAttempt::Discarded { reason },
            SimDuration::ZERO,
            ctx,
        );
    }

    /// Decode the checkpoint server's response frames and rebuild the
    /// suspended machine. Every failure mode — transport, protocol, image
    /// integrity, state validation — comes back as a reason string; none
    /// of them can reach the resumed program.
    fn validate_ckpt(&self, frames: &[u8], act: &Activation) -> Result<gridvm::Machine, String> {
        let mut rest = frames;
        let mut last = None;
        loop {
            match wire::deframe(rest) {
                Ok(Some((payload, consumed))) => {
                    rest = &rest[consumed..];
                    match wire::decode_response(&payload) {
                        Ok(r) => last = Some(r),
                        Err(e) => return Err(format!("undecodable server response: {e}")),
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(format!("bad response frame: {e}")),
            }
        }
        // The last response answers the GET (the first is the auth ack).
        let data = match last {
            Some(Response::Data { data }) => data,
            Some(Response::Error(e)) => return Err(format!("server error: {e}")),
            Some(other) => return Err(format!("unexpected server response: {other:?}")),
            None => return Err("empty response from checkpoint server".to_string()),
        };
        let state = ckpt::MachineState::from_bytes(&data).map_err(|e| e.to_string())?;
        let image = gridvm::ProgramImage::from_bytes(&act.image)
            .map_err(|e| format!("program image: {e:?}"))?;
        gridvm::Machine::restore(state, &image, ckpt::fnv1a(&act.image)).map_err(|e| e.to_string())
    }

    /// Build the checkpoint image for an eviction: run a fresh machine for
    /// the banked fraction of the program's total instructions and
    /// serialize the suspended state. `None` means nothing worth storing
    /// (no progress, an undecodable image, or a program that finished
    /// within the budget).
    fn build_ckpt(
        &self,
        act: &Activation,
        full: SimDuration,
        banked: SimDuration,
    ) -> Option<Vec<u8>> {
        if banked.as_micros() == 0 || full.as_micros() == 0 {
            return None;
        }
        let image = gridvm::ProgramImage::from_bytes(&act.image).ok()?;
        let install = self.direct_install();
        let (_exit, out) = run_naive(&act.image, &install, &mut NoIo);
        if out.instructions == 0 {
            return None;
        }
        let budget = (u128::from(out.instructions) * u128::from(banked.as_micros())
            / u128::from(full.as_micros())) as u64;
        let mut m = gridvm::Machine::new(&image);
        if m.run(&image, &install, &mut NoIo, Some(budget)).is_some() {
            return None; // finished inside the budget: nothing to resume
        }
        Some(m.snapshot(ckpt::fnv1a(&act.image)).to_bytes())
    }

    /// The installation a Vanilla or Standard image runs under (fresh,
    /// resumed, or replayed for a checkpoint): the machine's limits with
    /// its Java health ignored. These universes run the image directly
    /// (`job.rs`), so a dead JVM path or a missing standard library is a
    /// fault of the Java universe alone: handed to a job that never starts
    /// a JVM, the bare exit code would show its user a
    /// remote-resource-scope error.
    fn direct_install(&self) -> Cow<'_, Installation> {
        let install = &self.config.installation;
        match install.health {
            InstallHealth::Healthy => Cow::Borrowed(install),
            InstallHealth::BadPath | InstallHealth::MissingStdlib => Cow::Owned(Installation {
                health: InstallHealth::Healthy,
                ..install.clone()
            }),
        }
    }

    fn emit_claim(&self, ctx: &mut Context<'_, Msg>, job: u32, outcome: obs::ClaimOutcome) {
        ctx.emit(obs::Event::Claim {
            job: u64::from(job),
            machine: ctx.self_id as u64,
            outcome,
        });
    }

    /// Finish an environment-failure journey's execute-side leg: advance it
    /// through the layers this daemon hosts and emit every hop accumulated
    /// in-process so far (birth, wrapper re-expression, and the new hops).
    fn advance_and_emit(
        &self,
        journey: errorscope::ScopedError,
        ctx: &mut Context<'_, Msg>,
    ) -> errorscope::ScopedError {
        let stack = errorscope::propagate::java_universe_stack();
        let (journey, _done) = crate::telemetry::advance_journey(
            &stack,
            journey,
            crate::telemetry::EXECUTE_SIDE_LAYERS,
        );
        crate::telemetry::emit_journey_hops(ctx, &journey, 0);
        journey
    }

    /// The starter: set up the sandbox and proxy, run the VM, classify.
    /// Returns the report and the CPU time the attempt will consume.
    fn execute(
        &mut self,
        act: &Activation,
        ctx: &mut Context<'_, Msg>,
    ) -> (ExecutionReport, SimDuration) {
        self.stats.executions += 1;
        let t0 = ctx.now;
        let t_end = t0 + act.exec_time;

        // Missing inputs are a job-scope error: the job as submitted can
        // never run anywhere.
        if !act.snapshot.missing.is_empty() {
            let note = format!("missing input files: {:?}", act.snapshot.missing);
            if let Universe::Java(crate::job::JavaMode::Scoped) = act.universe {
                self.react_to_scope(Scope::Job);
                // The journey is born here, in the starter; the schedd's
                // side appends the rest of its hops.
                let journey = errorscope::ScopedError::escaping(
                    codes::MISSING_INPUT,
                    Scope::Job,
                    "starter",
                    note.clone(),
                );
                crate::telemetry::emit_journey_hops(ctx, &journey, 0);
                return (
                    ExecutionReport::Scoped {
                        result: ResultFile::environment_failure(
                            Scope::Job,
                            codes::MISSING_INPUT,
                            note,
                        ),
                        journey: Some(journey),
                    },
                    FAIL_FAST_TIME,
                );
            }
            return self.finish(
                Termination::EnvFailure {
                    scope: Scope::Job,
                    code: codes::MISSING_INPUT,
                    message: note,
                },
                String::new(),
                0,
                act,
            );
        }

        match act.universe {
            Universe::Vanilla | Universe::Standard => {
                // No wrapper, no remote I/O: bare exit code semantics.
                // (Standard additionally checkpoints on eviction, handled
                // by the caller.)
                let (_exit, out) = run_naive(&act.image, &self.direct_install(), &mut NoIo);
                self.stats.absorb_vm(&out.vm);
                self.finish(out.termination, out.stdout, out.instructions, act)
            }
            Universe::Java(mode) => {
                // The starter's scratch sandbox, pre-loaded with the
                // transferred inputs, behind the Chirp proxy.
                let mut fs = MemFs::default();
                for (path, data) in &act.snapshot.files {
                    fs.put(path, data);
                }
                // The remote channel to the shadow: if the submitter's file
                // system fails during the execution window, remote I/O
                // escapes.
                if act.does_remote_io {
                    if let Some(fault) = self.plan.fs_fault_during(act.schedd, t0, t_end) {
                        fs.set_env_fault(Some(fault));
                    }
                }
                let (server_disc, client_disc) = match mode {
                    crate::job::JavaMode::Naive => (
                        ErrorDiscipline::NaiveGeneric,
                        ClientDiscipline::NaiveGeneric,
                    ),
                    crate::job::JavaMode::Scoped => {
                        (ErrorDiscipline::Scoped, ClientDiscipline::Scoped)
                    }
                };
                let cookie = Cookie::generate(u64::from(act.job) ^ 0xC0FFEE);
                let server = ChirpServer::new(fs, cookie.clone()).with_discipline(server_disc);
                let mut client =
                    ChirpClient::new(DirectTransport::new(server)).with_discipline(client_disc);
                let _ = client.auth(cookie.as_bytes());
                let mut io = ChirpJobIo::new(client);

                let out = match mode {
                    crate::job::JavaMode::Naive => {
                        let (_exit, out) =
                            run_naive(&act.image, &self.config.installation, &mut io);
                        self.stats.absorb_vm(&out.vm);
                        self.finish(out.termination, out.stdout, out.instructions, act)
                    }
                    crate::job::JavaMode::Scoped => {
                        let w = run_wrapped(&act.image, &self.config.installation, &mut io);
                        self.stats.absorb_vm(&w.vm);
                        // The starter examines the result file and ignores
                        // the JVM result entirely (§4).
                        let result = ResultFile::from_json(&w.result_file_bytes)
                            .expect("wrapper wrote the file it just serialised");
                        let scope = result.scope();
                        self.react_to_scope(scope);
                        let cpu = if w.instructions == 0 && scope != Scope::Program {
                            FAIL_FAST_TIME
                        } else {
                            act.exec_time
                        };
                        let journey = w.journey.map(|j| {
                            // The error crossed the I/O interface as an
                            // escaping error: record the escape itself.
                            if j.origin() == Some("io-library") {
                                ctx.emit(obs::Event::Escape {
                                    span: j.span,
                                    layer: "io-library".to_string(),
                                    code: j.code.as_str().to_string(),
                                    scope: j.scope.name().to_string(),
                                });
                            }
                            self.advance_and_emit(j, ctx)
                        });
                        (ExecutionReport::Scoped { result, journey }, cpu)
                    }
                };
                // Surface the proxy's per-operation telemetry.
                for ev in io.client_mut().take_events() {
                    ctx.emit(ev);
                }
                out
            }
        }
    }

    /// Package a bare termination (naive universes) into a report.
    fn finish(
        &mut self,
        termination: Termination,
        stdout: String,
        instructions: u64,
        act: &Activation,
    ) -> (ExecutionReport, SimDuration) {
        let scope = termination.scope();
        self.react_to_scope(scope);
        let cpu = if instructions == 0 && scope != Scope::Program {
            FAIL_FAST_TIME
        } else {
            act.exec_time
        };
        let (code, note) = match &termination {
            Termination::Completed { exit_code } => (*exit_code, "completed".to_string()),
            Termination::Exception { name, message } => (1, format!("{name}: {message}")),
            Termination::EnvFailure { code, message, .. } => (1, format!("{code}: {message}")),
        };
        (
            ExecutionReport::NaiveExit {
                code,
                stdout,
                truth_scope: scope,
                truth_note: note,
            },
            cpu,
        )
    }

    /// The starter is the handler for remote-resource scope (Figure 3): if
    /// configured to learn, it stops advertising the broken capability.
    fn react_to_scope(&mut self, scope: Scope) {
        if scope == Scope::RemoteResource {
            self.stats.remote_resource_failures += 1;
            if self.policy.learn_from_failures && self.advertising_java {
                self.advertising_java = false;
                self.stats.advertising_java = false;
                // The ad carries `HasJava`: rebuild it (not its base) at
                // next use.
                self.ad = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolBuilder;

    /// A builder hands machines of one owner configuration one base ad:
    /// their startds advertise children of a single parent allocation,
    /// across the pools of a federation too; a machine whose owner wrote a
    /// different policy gets a base of its own. Either way the ad reads as
    /// the flat one.
    #[test]
    fn builders_share_one_base_per_owner_configuration() {
        let odd = || MachineSpec {
            owner_requirements: "TARGET.ImageSize <= MY.Memory && TARGET.Owner =!= \"eve\"".into(),
            ..MachineSpec::healthy("odd", 256)
        };
        let specs = || {
            [
                MachineSpec::healthy("a", 256),
                odd(),
                MachineSpec::healthy("b", 256),
            ]
        };
        let (mut pool, _, ids) = PoolBuilder::new(1).machines(specs()).build();
        let (mut fed, _, fed_ids) = PoolBuilder::new(1)
            .machines(specs())
            .pool([MachineSpec::healthy("c", 256)])
            .build();
        for (world, ids) in [(&mut pool, &ids), (&mut fed, &fed_ids)] {
            world.run_until(SimTime::from_secs(1));
            let ad = |i: usize| {
                let startd = world.get::<Startd>(ids[i]).expect("startd");
                Arc::clone(startd.ad.as_ref().expect("advertised at start-up"))
            };
            let base = |i: usize| Arc::clone(ad(i).parent().expect("chained"));
            assert!((2..ids.len()).all(|i| Arc::ptr_eq(&base(0), &base(i))));
            assert!(!Arc::ptr_eq(&base(0), &base(1)));
            assert_eq!(
                base(1).get("Requirements"),
                odd().ad(true).get("Requirements")
            );
            for (i, spec) in specs().iter().enumerate() {
                let flat = spec.ad(true).with_int("MachineId", ids[i] as i64);
                assert_eq!(*ad(i), flat, "{}", spec.name);
                assert_eq!(ad(i).to_string(), flat.to_string());
            }
        }
    }
}
