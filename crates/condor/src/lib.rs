//! # condor — the Condor kernel on a discrete-event simulator
//!
//! A faithful control-plane reproduction of the system of Thain & Livny's
//! Figures 1 and 2: matchmaker, schedd (with shadows), startd (with
//! starters), the claiming protocol, the Java Universe with its Chirp proxy
//! and wrapper — plus the fault injection and accounting the paper's
//! experiments need.
//!
//! * [`job`], [`machine`] — what users submit and owners contribute.
//! * [`msg`] — the protocol messages (the arrows of Figure 1).
//! * [`matchmaker`], [`schedd`], [`startd`] — the daemons.
//! * [`ckptserver`] — the checkpoint server Standard-universe jobs
//!   migrate through.
//! * [`faults`] — the timed fault plan (crashes, file-system outages,
//!   network partitions/loss/latency/duplication windows).
//! * [`netdriver`] — the plan's crash windows handed to the engine, and
//!   the actor that applies its network faults to the simulated fabric at
//!   window edges.
//! * [`health`] — adaptive retry (exponential backoff with deterministic
//!   jitter) and per-machine circuit breakers.
//! * [`pool`] — one-stop assembly and run reports for one pool or a
//!   federation: one schedd flocking to remote matchmakers, with every
//!   cross-pool failure an explicit pool-scope error.
//! * [`flock`] — the frozen ledger's name for a federation, forwarding to
//!   [`pool`].
//! * [`metrics`] — the quantities the experiments report.
//! * [`telemetry`] — error-journey span plumbing over the `obs` layer.
//!
//! The Java Universe runs in either of the paper's two disciplines
//! ([`job::JavaMode`]): **naive** (§2.3 — exit codes and generic
//! exceptions; environmental errors reach the user) and **scoped** (§4 —
//! the wrapper's result file routes every error to the manager of its
//! scope).
//!
//! ```
//! use condor::prelude::*;
//! use desim::{SimDuration, SimTime};
//!
//! let report = PoolBuilder::new(42)
//!     .machine(MachineSpec::healthy("node1", 256))
//!     .job(JobSpec::java(1, "ada", gridvm::programs::completes_main(), JavaMode::Scoped)
//!         .with_exec_time(SimDuration::from_secs(30)))
//!     .run(SimTime::from_secs(600));
//! assert_eq!(report.metrics.jobs_completed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ckptserver;
pub mod faults;
pub mod flock;
pub mod health;
pub mod job;
pub mod machine;
pub mod matchmaker;
pub mod metrics;
pub mod msg;
pub mod netdriver;
pub mod pool;
pub mod schedd;
pub mod startd;
pub mod telemetry;

pub use ckptserver::{CkptServer, CkptServerStats};
pub use faults::{
    culprit_link, culprit_machine, Fault, FaultLabel, FaultPlan, NetFault, PlanError, Window,
    CULPRIT_CKPT_SERVER, OVERLAP_WARNING,
};
pub use health::{BreakerPolicy, BreakerState, CircuitBreaker, RetryPolicy};
pub use job::{Attempt, JavaMode, JobId, JobRecord, JobSpec, JobState, Universe};
pub use machine::MachineSpec;
pub use matchmaker::{MatchEngine, Matchmaker, MatchmakerStats};
pub use metrics::{MachineStats, Metrics};
pub use msg::{
    Activation, CkptAttempt, ExecutionReport, FsSnapshot, JobAdvert, LeaseInfo, Msg, ResumeInfo,
    Site, StoredCkpt,
};
pub use netdriver::{install_crashes, NetFaultDriver};
pub use pool::{Layout, PoolBuilder, RunReport};
pub use schedd::{FlockConfig, FlockTarget, Schedd, ScheddPolicy, UserEvent};
pub use startd::{Startd, StartdPolicy};

/// Convenient glob import.
pub mod prelude {
    pub use crate::faults::{Fault, FaultLabel, FaultPlan, NetFault, Window};
    // The ledger's federation facade.
    pub use crate::flock::*;
    pub use crate::health::{BreakerPolicy, RetryPolicy};
    pub use crate::job::{JavaMode, JobSpec, JobState, Universe};
    pub use crate::machine::MachineSpec;
    pub use crate::msg::LeaseInfo;
    pub use crate::pool::{PoolBuilder, RunReport};
    pub use crate::schedd::{FlockConfig, FlockTarget, ScheddPolicy, UserEvent};
    pub use crate::startd::StartdPolicy;
}
