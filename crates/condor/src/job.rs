//! Jobs: what users submit to the schedd.
//!
//! A job's ad, like a machine's, is a shape and a name: what its owner,
//! universe and image size determine — `Requirements` and `Rank` among it —
//! is the *base*, one per distinct shape and shared by every job of it,
//! and what a job adds is a child [chained](ClassAd::chained) to that base
//! holding its `ClusterId` (HTCondor chains a cluster's procs to the
//! cluster ad the same way).

use classads::ast::{BinOp, Expr};
use classads::ClassAd;
use desim::{SimDuration, SimTime};
use errorscope::resultfile::ResultFile;
use errorscope::Scope;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies a job within one schedd's queue.
pub type JobId = u32;

/// Which error discipline the Java Universe applies to this job — the
/// paper's before/after systems, selectable per run for the E1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JavaMode {
    /// §2.3: trust the JVM exit code; convert every proxy failure into a
    /// program-visible exception.
    Naive,
    /// §4: the wrapper + result file + scope routing.
    Scoped,
}

/// The execution universe of a job. Only the Java Universe carries the
/// error-discipline distinction; the Vanilla Universe runs the image
/// directly with no remote I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Universe {
    /// Unmodified program, no remote I/O, no wrapper. Eviction loses all
    /// progress.
    Vanilla,
    /// Re-linked with the Condor library: transparent checkpointing (§2.1).
    /// Eviction checkpoints the job; it resumes elsewhere with its progress
    /// intact.
    Standard,
    /// The Java Universe of Figure 2.
    Java(JavaMode),
}

/// A job as submitted.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Queue id.
    pub id: JobId,
    /// Owner (user) name.
    pub owner: String,
    /// Universe.
    pub universe: Universe,
    /// The serialised program image.
    pub image: Vec<u8>,
    /// Input files the job needs transferred (paths in the submitter's
    /// home file system).
    pub inputs: Vec<String>,
    /// Nominal execution time on a healthy machine.
    pub exec_time: SimDuration,
    /// Memory the job claims to need (drives matchmaking).
    pub image_size: i64,
    /// Whether the program performs remote I/O during execution.
    pub does_remote_io: bool,
}

impl JobSpec {
    /// A reasonable default Java-universe job around an image.
    pub fn java(id: JobId, owner: &str, image: Vec<u8>, mode: JavaMode) -> JobSpec {
        JobSpec {
            id,
            owner: owner.to_string(),
            universe: Universe::Java(mode),
            image,
            inputs: Vec::new(),
            exec_time: SimDuration::from_secs(60),
            image_size: 64,
            does_remote_io: false,
        }
    }

    /// Declare input files (builder style).
    pub fn with_inputs(mut self, inputs: &[&str]) -> JobSpec {
        self.inputs = inputs.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the nominal execution time (builder style).
    pub fn with_exec_time(mut self, t: SimDuration) -> JobSpec {
        self.exec_time = t;
        self
    }

    /// Mark the job as doing remote I/O (builder style).
    pub fn with_remote_io(mut self) -> JobSpec {
        self.does_remote_io = true;
        self
    }

    fn universe_name(&self) -> &'static str {
        match self.universe {
            Universe::Vanilla => "vanilla",
            Universe::Standard => "standard",
            Universe::Java(_) => "java",
        }
    }

    // What the [base ad](JobSpec::base_ad) is made from.
    pub(crate) fn base_key(&self) -> (&str, &'static str, i64) {
        (&self.owner, self.universe_name(), self.image_size)
    }

    /// The part of the ad a cluster's jobs share: `Owner`, `Universe`,
    /// `ImageSize` and the `Requirements` and `Rank` that follow from them
    /// — everything but the job's name.
    pub(crate) fn base_ad(&self) -> ClassAd {
        let mut ad = ClassAd::new()
            .with_str("Owner", &self.owner)
            .with_str("Universe", self.universe_name())
            .with_int("ImageSize", self.image_size);
        // The expressions are fixed, so they are built directly rather
        // than parsed from text (a test pins the two forms equal).
        let mut requirements = Expr::target("Memory").ge(Expr::my("ImageSize"));
        if let Universe::Java(_) = self.universe {
            requirements =
                requirements.and(Expr::target("HasJava").bin(BinOp::MetaEq, Expr::boolean(true)));
        }
        ad.insert_expr("Requirements", requirements);
        ad.insert_expr("Rank", Expr::target("Memory"));
        ad
    }

    /// The job's own part of the ad — its `ClusterId` — chained to `base`
    /// (which must be this spec's [`base_ad`](JobSpec::base_ad)).
    pub(crate) fn ad_over(&self, base: Arc<ClassAd>) -> ClassAd {
        ClassAd::chained(base).with_int("ClusterId", i64::from(self.id))
    }

    /// The job's ClassAd, over a base of its own. The schedd advertises
    /// the same ad over a base it shares among jobs alike in owner,
    /// universe and image size.
    pub fn ad(&self) -> ClassAd {
        self.ad_over(Arc::new(self.base_ad()))
    }
}

/// One execution attempt, for the "Summary of All Execution Attempts"
/// returned to the owner in Figure 3.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Which machine (startd actor id).
    pub machine: usize,
    /// When the claim was activated.
    pub started: SimTime,
    /// When the schedd learned the outcome.
    pub ended: SimTime,
    /// The outcome scope the schedd observed (program, job, or an
    /// environmental scope), or `None` when the attempt vanished (machine
    /// crash — the report timeout fired).
    pub scope: Option<Scope>,
    /// Human-readable note.
    pub note: String,
}

/// Where a job stands in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting to be matched.
    Idle,
    /// The matchmaker produced a partner; claiming is in flight.
    Claiming {
        /// The machine being claimed.
        machine: usize,
    },
    /// Executing under a shadow/starter pair.
    Running {
        /// The machine executing it.
        machine: usize,
    },
    /// Waiting out a retry delay before returning to the idle queue (the
    /// schedd logged an environmental error and will try another site).
    Waiting,
    /// Finished with a program result, returned to the user.
    Completed {
        /// The program's result file.
        result: ResultFile,
    },
    /// The schedd determined the job can never run (job scope).
    Unexecutable {
        /// Why.
        reason: String,
    },
    /// In the naive system only: an incidental (environment) error was
    /// returned to the user as if it were a result; a human must perform a
    /// postmortem before resubmitting.
    AwaitingPostmortem {
        /// What the user was shown.
        shown: String,
    },
    /// Too many failed attempts; parked for the administrator.
    Held {
        /// Why.
        reason: String,
    },
}

impl JobState {
    /// Has the job left the queue for good (from the schedd's view)?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed { .. } | JobState::Unexecutable { .. } | JobState::Held { .. }
        )
    }
}

/// The schedd's full record of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The submission.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Every execution attempt so far.
    pub attempts: Vec<Attempt>,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time (entering a terminal state).
    pub finished: Option<SimTime>,
    /// Machines this job should avoid (chronic-failure policy).
    pub avoid: BTreeMap<usize, u32>,
    /// Checkpointed work (Standard universe): execution time already
    /// banked from evicted attempts. Vanilla/Java evictions reset to the
    /// full execution time.
    pub progress: SimDuration,
    /// Key of the checkpoint image stored on the checkpoint server by the
    /// most recent evicted attempt, if one exists. `None` when no server is
    /// configured or when the last checkpoint was discarded.
    pub ckpt_key: Option<String>,
    /// The current claim epoch: bumped every time the schedd opens a new
    /// claim for this job. Messages stamped with an older epoch (late
    /// reports, duplicated frames, resurrected partitions) are fenced.
    pub epoch: u64,
    /// Consecutive environmental failures since the last success — the
    /// exponent of the retry backoff. Evictions (owner policy) do not
    /// count.
    pub backoff_level: u32,
    /// When the schedd last heard from the running claim (activation or
    /// heartbeat); drives the lease check.
    pub last_heartbeat: SimTime,
}

impl JobRecord {
    /// A fresh record for a submission at `now`.
    pub fn new(spec: JobSpec, now: SimTime) -> JobRecord {
        JobRecord {
            spec,
            state: JobState::Idle,
            attempts: Vec::new(),
            submitted: now,
            finished: None,
            avoid: BTreeMap::new(),
            progress: SimDuration::ZERO,
            ckpt_key: None,
            epoch: 0,
            backoff_level: 0,
            last_heartbeat: SimTime::ZERO,
        }
    }

    /// Total time the job spent in the queue, if finished.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.finished.map(|f| f - self.submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classads::prelude::*;

    #[test]
    fn java_job_ad_requires_java() {
        let spec = JobSpec::java(1, "ada", vec![], JavaMode::Scoped);
        let jad = spec.ad();
        let machine_no_java = ClassAd::new()
            .with_int("Memory", 512)
            .with_expr("Requirements", "true");
        let machine_java = ClassAd::new()
            .with_int("Memory", 512)
            .with_bool("HasJava", true)
            .with_expr("Requirements", "true");
        assert!(!requirements_met(&jad, &machine_no_java));
        assert!(requirements_met(&jad, &machine_java));
    }

    /// `ad()` builds its constant expressions with the `Expr` constructors;
    /// they must equal what the parser makes of the text form, or compiled
    /// programs — and every digest downstream — would move.
    #[test]
    fn constructed_ad_equals_its_parsed_text_form() {
        for (universe, name, requirements) in [
            (
                Universe::Java(JavaMode::Scoped),
                "java",
                "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true",
            ),
            (
                Universe::Vanilla,
                "vanilla",
                "TARGET.Memory >= MY.ImageSize",
            ),
            (
                Universe::Standard,
                "standard",
                "TARGET.Memory >= MY.ImageSize",
            ),
        ] {
            let mut spec = JobSpec::java(7, "ada", vec![], JavaMode::Scoped);
            spec.universe = universe;
            let parsed = ClassAd::new()
                .with_str("Owner", "ada")
                .with_int("ClusterId", 7)
                .with_str("Universe", name)
                .with_int("ImageSize", 64)
                .with_expr("Requirements", requirements)
                .with_expr("Rank", "TARGET.Memory");
            assert_eq!(spec.ad(), parsed, "{name}");
            assert_eq!(spec.ad().to_string(), parsed.to_string(), "{name}");
        }
    }

    #[test]
    fn vanilla_job_ad_ignores_java() {
        let mut spec = JobSpec::java(1, "ada", vec![], JavaMode::Scoped);
        spec.universe = Universe::Vanilla;
        let jad = spec.ad();
        let machine = ClassAd::new()
            .with_int("Memory", 512)
            .with_expr("Requirements", "true");
        assert!(requirements_met(&jad, &machine));
    }

    #[test]
    fn memory_requirement_enforced() {
        let mut spec = JobSpec::java(1, "ada", vec![], JavaMode::Scoped);
        spec.image_size = 256;
        let jad = spec.ad();
        let small = ClassAd::new()
            .with_int("Memory", 128)
            .with_bool("HasJava", true)
            .with_expr("Requirements", "true");
        assert!(!requirements_met(&jad, &small));
    }

    #[test]
    fn terminal_states() {
        assert!(!JobState::Idle.is_terminal());
        assert!(!JobState::Running { machine: 0 }.is_terminal());
        assert!(!JobState::AwaitingPostmortem { shown: "x".into() }.is_terminal());
        assert!(JobState::Completed {
            result: ResultFile::completed(0)
        }
        .is_terminal());
        assert!(JobState::Unexecutable {
            reason: "corrupt".into()
        }
        .is_terminal());
        assert!(JobState::Held { reason: "".into() }.is_terminal());
    }

    #[test]
    fn turnaround_needs_finish() {
        let spec = JobSpec::java(1, "a", vec![], JavaMode::Scoped);
        let mut rec = JobRecord::new(spec, SimTime::from_secs(10));
        assert_eq!(rec.turnaround(), None);
        rec.finished = Some(SimTime::from_secs(70));
        assert_eq!(rec.turnaround(), Some(SimDuration::from_secs(60)));
    }

    #[test]
    fn builders() {
        let spec = JobSpec::java(1, "a", vec![], JavaMode::Naive)
            .with_inputs(&["in.txt"])
            .with_exec_time(SimDuration::from_secs(5))
            .with_remote_io();
        assert_eq!(spec.inputs, vec!["in.txt"]);
        assert_eq!(spec.exec_time, SimDuration::from_secs(5));
        assert!(spec.does_remote_io);
    }
}
