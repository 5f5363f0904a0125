//! Fault-campaign fuzzing with a machine-checked error-scope oracle.
//!
//! The runtime experiments (E1–E11) each pin one fault class in isolation
//! and assert a hand-written expectation. This crate closes the loop the
//! other way: it *generates* randomized fault schedules — crashes,
//! partitions, loss, duplication, latency spikes, black holes, bad
//! installations, corrupt checkpoints, and memory bit-flips — runs each
//! through the full Condor pool, and checks the run's exported event
//! stream against the paper's four principles mechanically, with no
//! per-scenario expectations at all:
//!
//! * **P1** — errors stay explicit: no journey hop ever converts an
//!   explicit error into an implicit one (no `Swallowed` hops), and the
//!   kernel's own self-reported violations are surfaced.
//! * **P2** — scope changes only widen: every `Widened` hop moves the
//!   error to a scope that strictly contains the one it left.
//! * **P3** — delivery to the scope's manager: every journey terminates
//!   at exactly the Figure 3 layer that manages its final scope, and
//!   every disposition is the one §3.4 assigns to that scope.
//! * **P4** — no lost work: every submitted job ends `Completed` or
//!   `Unexecutable` before the deadline; `Held`, `AwaitingPostmortem`,
//!   or a non-quiescent run is a liveness violation.
//!
//! When the oracle does fire, the violating run is re-executed fault-free
//! from the same seed and both streams go to the post-mortem localizer
//! ([`obs_analyze::localize`]) so the failure arrives pre-annotated with
//! a named culprit, not just a red assertion.
//!
//! The [`sdc`] module accounts for the silent-data-corruption arm of each
//! campaign: checkpoint-image flips must be *detected* (caught by the
//! FNV-1a digest at restore and discarded), while heap flips timed past
//! the digest check must *escape* (the job completes, exit 0, wrong
//! answer) — the ORNL detection/containment/recovery vocabulary, measured
//! rather than asserted.

pub mod gen;
pub mod oracle;
pub mod sdc;

pub use gen::{generate, generate_flock, Campaign, FlockCampaign, JobPlan, Program, RogueKind};
pub use oracle::{check, postmortem, RunSummary, Violation};
pub use sdc::{flip_stats, FlipStats};
