//! The message alphabet of the simulated Condor kernel.
//!
//! These are the arrows of Figure 1 (matchmaking, claiming) and Figure 2
//! (activation, execution reports), plus the self-addressed timers each
//! daemon uses: ticks for periodic work, and one [`Msg::Deadline`] for
//! every timeout. A deadline names its [`Site`] and the epoch it was armed
//! for; the actor acts on it only while that epoch is still current, so
//! one comparison per actor decides whether any of its deadlines is stale.

use crate::job::{JobId, Universe};
use classads::ClassAd;
use desim::{SimDuration, SimTime};
use errorscope::resultfile::ResultFile;
use errorscope::Scope;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A snapshot of the submitter's home file system, shipped with a claim
/// activation (the shadow "providing the details of the job to be run,
/// such as the executable, the input files, and the arguments").
#[derive(Debug, Clone, Default)]
pub struct FsSnapshot {
    /// Input files and contents.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Inputs the schedd could not provide (named by the job but missing).
    pub missing: Vec<String>,
}

/// Where a previous attempt left a checkpoint, shipped with the
/// activation so the starter can try to resume instead of restarting.
#[derive(Debug, Clone)]
pub struct ResumeInfo {
    /// Checkpoint-server key of the stored image.
    pub key: String,
    /// Execution time the checkpoint is believed to bank.
    pub banked: SimDuration,
}

/// The lease terms a claim runs under: the startd heartbeats every
/// `interval`; either side that goes `timeout` without hearing from the
/// other declares the lease expired — an explicit scope-of-the-claim error
/// in place of a silent partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseInfo {
    /// How often the startd heartbeats while the claim is active.
    pub interval: SimDuration,
    /// Silence longer than this expires the lease.
    pub timeout: SimDuration,
}

/// Everything the starter needs to run one job.
#[derive(Debug, Clone)]
pub struct Activation {
    /// Which job.
    pub job: JobId,
    /// The program image.
    pub image: Vec<u8>,
    /// Universe (and Java error discipline).
    pub universe: Universe,
    /// Input snapshot.
    pub snapshot: FsSnapshot,
    /// Nominal execution time.
    pub exec_time: SimDuration,
    /// Whether the job performs remote I/O against the shadow.
    pub does_remote_io: bool,
    /// The schedd (shadow host) this claim belongs to.
    pub schedd: usize,
    /// Which attempt this activation is (0-based).
    pub attempt: usize,
    /// A checkpoint from an earlier attempt to resume from, if any.
    pub resume: Option<ResumeInfo>,
    /// The claim epoch this activation belongs to. Reports and heartbeats
    /// echo it back; anything stamped with an older epoch is fenced.
    pub epoch: u64,
    /// The lease terms, when leasing is enabled.
    pub lease: Option<LeaseInfo>,
    /// The pool the schedd believes the claimed machine belongs to. A
    /// startd in a different pool refuses the activation — a stale flock
    /// claim can never activate across pool boundaries.
    pub pool: u64,
}

/// A checkpoint the starter stored on the checkpoint server during this
/// attempt.
#[derive(Debug, Clone)]
pub struct StoredCkpt {
    /// The key it was stored under.
    pub key: String,
    /// Size of the serialized image.
    pub bytes: u64,
    /// New execution time this checkpoint banks beyond what the attempt
    /// started with (period-floored; the tail past the last periodic
    /// checkpoint is not in the image and is lost).
    pub banked: SimDuration,
}

/// What became of the checkpoint the activation asked the starter to
/// resume from. Distinguishing "resumed" from "discarded" is the heart of
/// checkpoint scope: a bad checkpoint is an explicit, recoverable error of
/// the checkpoint layer, never an implicit crash inside the program.
#[derive(Debug, Clone, Default)]
pub enum CkptAttempt {
    /// No resume was attempted (first attempt, or no server configured).
    #[default]
    None,
    /// The checkpoint validated and the job resumed from it.
    Resumed {
        /// Execution time the resume saved (the banked progress).
        saved: SimDuration,
    },
    /// The checkpoint was rejected (missing, corrupt, or mismatched) and
    /// the starter fell back to a cold restart.
    Discarded {
        /// Why it was rejected.
        reason: String,
    },
}

/// What the starter tells the shadow when execution concludes.
#[derive(Debug, Clone)]
pub enum ExecutionReport {
    /// The naive Java Universe (and the Vanilla universe): the process
    /// exit code is all the schedd gets.
    NaiveExit {
        /// The VM process exit code.
        code: i32,
        /// Captured stdout.
        stdout: String,
        /// What the user would have to discover by postmortem: the true
        /// scope of the outcome. Carried for *accounting only* — the naive
        /// schedd logic never reads it.
        truth_scope: Scope,
        /// Human-readable truth, for the event log.
        truth_note: String,
    },
    /// The scope-aware Java Universe: the wrapper's result file.
    Scoped {
        /// The result file read back by the starter.
        result: ResultFile,
        /// The error's telemetry journey so far (environment failures
        /// only): span id and trail from birth through the layers already
        /// crossed on the execute side. The schedd appends its own hops.
        journey: Option<errorscope::ScopedError>,
    },
    /// The machine owner reclaimed the machine; the starter evicted the
    /// job. Not an error — owner policy. For Standard-universe jobs the
    /// starter took a checkpoint first.
    Evicted {
        /// Execution time completed before eviction (banked for Standard
        /// jobs, lost for others).
        completed: SimDuration,
        /// Whether a checkpoint was taken (Standard universe only).
        checkpointed: bool,
        /// The checkpoint stored on the checkpoint server, when one is
        /// configured. `checkpointed` without `stored` is the legacy
        /// exact-banking model.
        stored: Option<StoredCkpt>,
    },
}

/// One idle job as its schedd advertises it: an entry of [`Msg::JobAd`].
#[derive(Debug, Clone)]
pub struct JobAdvert {
    /// Which job.
    pub job: JobId,
    /// The job's ClassAd, shared as a machine's is: the schedd builds it
    /// once and every renewal sends the same allocation.
    pub ad: Arc<ClassAd>,
    /// The job's claim epoch when the schedd sent this ad — its sequence
    /// number, fenced as a machine ad's is: the epoch moves when the
    /// schedd acts on a match notification, or declines one.
    pub epoch: u64,
}

/// Where a [`Msg::Deadline`] was armed: each site is one silence the
/// kernel turns into an explicit error when its time runs out (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Schedd: a claim request went unanswered for `CLAIM_TIMEOUT`.
    Claim,
    /// Schedd: an activated claim sent no execution report in time.
    Report,
    /// Schedd: a running claim's lease went unrenewed.
    Lease,
    /// Startd: an accepted claim was never activated.
    Activation,
    /// Startd: the checkpoint server never answered a resume's fetch.
    CkptFetch,
    /// Schedd: a remote pool's matchmaker never answered a flock probe.
    FlockProbe,
}

impl Site {
    /// What a census of deliveries files a deadline at this site under.
    pub fn kind(self) -> &'static str {
        match self {
            Site::Claim => "Deadline:Claim",
            Site::Report => "Deadline:Report",
            Site::Lease => "Deadline:Lease",
            Site::Activation => "Deadline:Activation",
            Site::CkptFetch => "Deadline:CkptFetch",
            Site::FlockProbe => "Deadline:FlockProbe",
        }
    }
}

/// One message.
#[derive(Debug, Clone)]
pub enum Msg {
    // ---- timers (self-addressed) ----
    /// Periodic: a free startd renews its ad's lease at the matchmaker
    /// (the keep-alive); a schedd with idle jobs looks at what it avoids
    /// and whom it flocks to, and on every third renews theirs.
    AdvertiseTick,
    /// Periodic while the matchmaker holds a job ad: run a negotiation
    /// cycle.
    NegotiateTick,
    /// A deadline armed by this actor has come: the site's silence is due
    /// to become an explicit error. Live only while `epoch` is still the
    /// current epoch of the record `id` names; otherwise it is stale and
    /// changes nothing.
    Deadline {
        /// Which silence this deadline gives a scope.
        site: Site,
        /// The job, or for [`Site::FlockProbe`] the pool.
        id: u64,
        /// The claim epoch (or probe number) the deadline was armed for.
        epoch: u64,
    },
    /// The human finished postmortem analysis of a wrongly-returned job
    /// (naive mode only) and resubmits it.
    PostmortemDone {
        /// Which job.
        job: JobId,
    },
    /// A delayed retry: put the job back in the idle queue.
    RetryJob {
        /// Which job.
        job: JobId,
    },
    /// The starter's execution of `job` finished (startd self-timer).
    ExecutionComplete {
        /// Which job.
        job: JobId,
        /// The claim epoch of the run it was armed for: a stale timer
        /// never completes a later attempt on the same machine.
        epoch: u64,
    },
    /// Periodic (startd): send the next heartbeat for an active claim.
    HeartbeatTick {
        /// Which job.
        job: JobId,
        /// The claim epoch the tick was armed for (stale ticks are ignored).
        epoch: u64,
    },
    /// The network-fault driver reached a window edge and must reconfigure
    /// the fabric (self-timer).
    NetFaultTick,

    // ---- matchmaking (Figure 1: "Matchmaking Protocol") ----
    /// A startd advertises its machine.
    MachineAd {
        /// The machine's ClassAd (with `HasJava` per the self-test). Shared:
        /// the startd builds it once and every re-advertisement sends the
        /// same allocation, which the matchmaker recognises by pointer.
        ad: Arc<ClassAd>,
        /// How many claims the startd had accepted when it sent this ad —
        /// the ad's sequence number. An ad that crosses a match of this
        /// machine carries the count the consumed ad did, and is fenced.
        claims: u64,
    },
    /// A schedd advertises idle jobs: the one whose ad just changed, or —
    /// at a renewal — every job still idle, in one message.
    JobAd(Arc<[JobAdvert]>),
    /// The matchmaker notifies the schedd of a compatible partner
    /// ("notifies schedds and startds of compatible partners").
    MatchNotify {
        /// Which job.
        job: JobId,
        /// The matched machine (startd actor id).
        machine: usize,
        /// The pool the notifying matchmaker serves. The schedd stamps
        /// the claim (and its `pool:{id}` attribution) with this.
        pool: u64,
    },

    // ---- flocking (federated pools, §6) ----
    /// A schedd asks a remote pool's matchmaker whether it will accept
    /// flocked job ads. Doubles as the circuit breaker's half-open probe.
    FlockRequest {
        /// The pool id the schedd believes it is addressing.
        pool: u64,
    },
    /// A matchmaker grants (or effectively denies, with `free == 0`) a
    /// flock request.
    FlockGrant {
        /// The granting matchmaker's pool id.
        pool: u64,
        /// How many machine ads it currently holds. Zero means the pool
        /// is saturated — an explicit pool-scope denial, not silence.
        free: u64,
    },

    // ---- claiming (Figure 1: "Claiming Protocol") ----
    /// The schedd asks to claim the machine for a job.
    ClaimRequest {
        /// Which job.
        job: JobId,
        /// The job ad, for the startd's own verification ("matched
        /// processes are individually responsible for … verifying that
        /// their needs are met").
        ad: Arc<ClassAd>,
        /// The claim epoch this request opens. Every later message about
        /// the claim carries it; stale epochs are fenced.
        epoch: u64,
        /// The pool the schedd believes the machine belongs to; the
        /// startd rejects a mismatch.
        pool: u64,
    },
    /// The startd accepts the claim.
    ClaimAccept {
        /// Which job.
        job: JobId,
        /// The epoch of the claim being accepted.
        epoch: u64,
    },
    /// The startd declines.
    ClaimReject {
        /// Which job.
        job: JobId,
        /// Why.
        reason: String,
        /// The epoch of the claim being declined.
        epoch: u64,
    },
    /// The schedd releases a claim it cannot activate (e.g. its home file
    /// system is offline at staging time).
    ReleaseClaim {
        /// Which job.
        job: JobId,
    },
    /// A remote pool's startd revoked a flocked claim at activation time
    /// (the remote administrator reclaimed the machine). The schedd
    /// converts this into an explicit pool-scope error and falls back to
    /// the home queue.
    ClaimRevoked {
        /// Which job.
        job: JobId,
        /// The epoch of the revoked claim.
        epoch: u64,
    },

    // ---- shadow/starter (Figure 1: "Control Protocol") ----
    /// The shadow activates the claim with the job details.
    ActivateClaim(Box<Activation>),
    /// The starter reports the outcome to the shadow.
    StarterReport {
        /// Which job.
        job: JobId,
        /// The outcome, boxed as the startd already holds it: inline it
        /// would set the size of every message in the event queue.
        report: Box<ExecutionReport>,
        /// CPU time consumed at the execution site.
        cpu: SimDuration,
        /// When execution started (for the attempt record).
        started: SimTime,
        /// What became of the checkpoint resume, if one was attempted.
        ckpt: CkptAttempt,
        /// The claim epoch of the activation this report answers. A report
        /// from an older epoch (late, duplicated, or resurrected) is
        /// rejected and counted, never acted on.
        epoch: u64,
    },
    /// The startd renews the claim lease ("still here, still running").
    Heartbeat {
        /// Which job.
        job: JobId,
        /// The claim epoch being renewed.
        epoch: u64,
    },
    /// The schedd acknowledges a heartbeat, renewing the lease on the
    /// startd's side too.
    HeartbeatAck {
        /// Which job.
        job: JobId,
        /// The claim epoch being renewed.
        epoch: u64,
    },

    // ---- checkpoint server (chirp over the simulated network) ----
    /// A batch of chirp frames addressed to the checkpoint server
    /// (an AUTHENTICATE frame followed by PUT_CKPT / GET_CKPT frames).
    CkptRequest {
        /// The framed request bytes.
        frames: Vec<u8>,
    },
    /// The checkpoint server's framed responses, one per request frame
    /// (fewer if the server disconnected the session mid-batch).
    CkptResponse {
        /// The framed response bytes.
        frames: Vec<u8>,
    },
}

impl Msg {
    /// A deadline at `site` for `id` (a job, or a pool), armed for `epoch`.
    pub fn deadline(site: Site, id: impl Into<u64>, epoch: u64) -> Msg {
        let id = id.into();
        Msg::Deadline { site, id, epoch }
    }

    /// The variant's name: what a per-kind census of deliveries
    /// ([`desim::World::count_deliveries_by`]) files this message under.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::AdvertiseTick => "AdvertiseTick",
            Msg::NegotiateTick => "NegotiateTick",
            Msg::Deadline { site, .. } => site.kind(),
            Msg::PostmortemDone { .. } => "PostmortemDone",
            Msg::RetryJob { .. } => "RetryJob",
            Msg::ExecutionComplete { .. } => "ExecutionComplete",
            Msg::HeartbeatTick { .. } => "HeartbeatTick",
            Msg::NetFaultTick => "NetFaultTick",
            Msg::MachineAd { .. } => "MachineAd",
            Msg::JobAd(_) => "JobAd",
            Msg::MatchNotify { .. } => "MatchNotify",
            Msg::FlockRequest { .. } => "FlockRequest",
            Msg::FlockGrant { .. } => "FlockGrant",
            Msg::ClaimRequest { .. } => "ClaimRequest",
            Msg::ClaimAccept { .. } => "ClaimAccept",
            Msg::ClaimReject { .. } => "ClaimReject",
            Msg::ReleaseClaim { .. } => "ReleaseClaim",
            Msg::ClaimRevoked { .. } => "ClaimRevoked",
            Msg::ActivateClaim(_) => "ActivateClaim",
            Msg::StarterReport { .. } => "StarterReport",
            Msg::Heartbeat { .. } => "Heartbeat",
            Msg::HeartbeatAck { .. } => "HeartbeatAck",
            Msg::CkptRequest { .. } => "CkptRequest",
            Msg::CkptResponse { .. } => "CkptResponse",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued event carries a `Msg` by value, so its size is what a
    /// 40k-deep heap moves per sift: the big payloads stay boxed.
    #[test]
    fn msg_fits_one_cache_line() {
        assert!(
            std::mem::size_of::<Msg>() <= 64,
            "size_of::<Msg>() = {}",
            std::mem::size_of::<Msg>()
        );
    }
}
