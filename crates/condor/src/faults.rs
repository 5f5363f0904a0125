//! The fault plan: scheduled environmental failures.
//!
//! Experiments describe faults declaratively — "the submitter's file system
//! is offline from t=100s to t=300s", "machine 7 crashes at t=200s" — as a
//! list of [`Fault`] entries, and every daemon consults the shared plan
//! deterministically — except for crashes, which are the engine's
//! ([`crate::netdriver::install_crashes`]). Static misconfiguration lives in
//! [`crate::machine::MachineSpec`]; the plan holds the *timed* faults and
//! the damage done to stored or restored checkpoint images.

use crate::job::JobId;
use chirp::backend::EnvFault;
use desim::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// A half-open window of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Start (inclusive).
    pub from: SimTime,
    /// End (exclusive); `SimTime::MAX` for "forever".
    pub to: SimTime,
}

impl Window {
    /// A window covering `[from, to)`.
    pub fn new(from: SimTime, to: SimTime) -> Window {
        assert!(from < to, "empty fault window");
        Window { from, to }
    }

    /// From `from` onward, forever.
    pub fn from(from: SimTime) -> Window {
        Window {
            from,
            to: SimTime::MAX,
        }
    }

    /// Does the window contain instant `t`?
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.to
    }

    /// Does the window intersect `[a, b]`?
    pub fn overlaps(&self, a: SimTime, b: SimTime) -> bool {
        self.from <= b && a < self.to
    }
}

/// `[240s, 3600s)`, `[200s, forever)`; an edge off the whole second is
/// printed in microseconds.
impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let edge = |t: SimTime| match t.as_micros() {
            _ if t == SimTime::MAX => "forever".to_string(),
            us if us % 1_000_000 == 0 => format!("{}s", us / 1_000_000),
            us => format!("{us}us"),
        };
        write!(f, "[{}, {})", edge(self.from), edge(self.to))
    }
}

/// What a timed network fault does to the fabric while its window is open.
/// Hosts are named by actor id ([`desim::net::HostId`]).
#[derive(Debug, Clone, PartialEq)]
pub enum NetFault {
    /// Every link between a host in `a` and a host in `b` is severed.
    Partition {
        /// One side of the cut.
        a: Vec<usize>,
        /// The other side.
        b: Vec<usize>,
    },
    /// The link `a`–`b` loses each message independently with probability
    /// `prob`.
    Loss {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// Per-message loss probability in `[0, 1]`.
        prob: f64,
    },
    /// The link `a`–`b` delivers with `latency` instead of its usual one.
    LatencySpike {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// The spiked base latency.
        latency: SimDuration,
    },
    /// The link `a`–`b` duplicates each delivered message independently
    /// with probability `prob`.
    Duplication {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// Per-message duplication probability in `[0, 1]`.
        prob: f64,
    },
}

impl NetFault {
    /// The fault's kind name, as used in `net-fault-applied` events.
    pub fn kind(&self) -> &'static str {
        match self {
            NetFault::Partition { .. } => "partition",
            NetFault::Loss { .. } => "loss",
            NetFault::LatencySpike { .. } => "latency",
            NetFault::Duplication { .. } => "duplication",
        }
    }

    /// The links the fault touches, as used in `net-fault-applied` events:
    /// `a1,a2|b1,b2` for a partition, `low-high` for one link.
    pub fn link(&self) -> String {
        match self {
            NetFault::Partition { a, b } => {
                let fmt = |v: &[usize]| {
                    v.iter()
                        .map(|h| h.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!("{}|{}", fmt(a), fmt(b))
            }
            NetFault::Loss { a, b, .. }
            | NetFault::LatencySpike { a, b, .. }
            | NetFault::Duplication { a, b, .. } => format!("{}-{}", a.min(b), a.max(b)),
        }
    }

    /// The undirected links the fault touches, as normalized `(low, high)`
    /// host pairs.
    fn links(&self) -> Vec<(usize, usize)> {
        let norm = |a: usize, b: usize| (a.min(b), a.max(b));
        match self {
            NetFault::Partition { a, b } => a
                .iter()
                .flat_map(|&x| b.iter().map(move |&y| norm(x, y)))
                .collect(),
            NetFault::Loss { a, b, .. }
            | NetFault::LatencySpike { a, b, .. }
            | NetFault::Duplication { a, b, .. } => vec![norm(*a, *b)],
        }
    }
}

/// One entry of a [`FaultPlan`]: a fault the kernel honours, and where and
/// when it strikes. A plan is a list of these, so a hand-written plan is a
/// `vec![Fault::…]` literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The submitter file system served by `schedd` suffers `fault` during
    /// `window`.
    FsFault {
        /// The schedd whose home file system fails (actor id).
        schedd: usize,
        /// When.
        window: Window,
        /// What the file system does.
        fault: EnvFault,
    },
    /// `actor` is crashed (silent, unreachable) during `window`. No daemon
    /// reads this entry: [`crate::netdriver::install_crashes`] hands it to
    /// the engine, which drops every delivery to the actor inside the
    /// window and brings it back through `Actor::on_restart` at its end.
    Crash {
        /// The victim (actor id).
        actor: usize,
        /// When.
        window: Window,
    },
    /// The owner of `machine` uses it during `window`: visiting jobs are
    /// evicted at the window's start and the machine is withdrawn from the
    /// pool until it ends. Not a fault at all — owner policy — but it
    /// flows through the same schedule. This is the condition Condor's
    /// checkpointing (§2.1, Standard Universe) exists to survive.
    OwnerActivity {
        /// The owner's machine (actor id).
        machine: usize,
        /// When the owner is at the desk.
        window: Window,
    },
    /// During `window`, `machine` (a remote pool's startd) revokes any
    /// flocked claim at activation time — the remote administrator
    /// reclaims the machine just as the visiting job arrives. The schedd
    /// must convert the revocation into an explicit pool-scope error and
    /// fall back to its home queue.
    FlockRevocation {
        /// The remote machine (actor id).
        machine: usize,
        /// When.
        window: Window,
    },
    /// `fault` is in force on the fabric during `window` — "schedd↔machines
    /// 3–5 partitioned from t=100s to t=250s", declaratively.
    Net {
        /// When.
        window: Window,
        /// What it does to the fabric.
        fault: NetFault,
    },
    /// A memory bit-flip lands in `job`'s live heap the next time the job
    /// is restored from a checkpoint — *after* the image digest has been
    /// validated, so no checksum can see it. `bit` seeds the flip's
    /// placement (it is reduced modulo the heap's size when it lands).
    /// This is the silent-data-corruption class the FNV-1a digests cannot
    /// catch: the run completes and the answer is wrong.
    ///
    /// The entry carries no ground-truth label: which machine performs the
    /// restore is not known at plan time, and the injector's own
    /// `mem-flip` event records the culprit at the instant of the flip.
    HeapFlip {
        /// The victim job.
        job: JobId,
        /// Placement seed.
        bit: u64,
    },
    /// The checkpoint server flips one bit of every image stored for
    /// `job` and logs the flip — damage in storage, *before* the digest
    /// is rechecked, which the FNV-1a trailer must therefore catch on
    /// restore.
    CkptFlip {
        /// The victim job.
        job: JobId,
    },
    /// The checkpoint server corrupts a byte of every image stored for
    /// `job`, unlogged. The corruption surfaces as an explicit discard at
    /// resume time, never as a crash in the program.
    CkptCorrupt {
        /// The victim job.
        job: JobId,
    },
}

impl Fault {
    /// When the entry is in force, for the kinds that have a window.
    fn window(&self) -> Option<Window> {
        match self {
            Fault::FsFault { window, .. }
            | Fault::Crash { window, .. }
            | Fault::OwnerActivity { window, .. }
            | Fault::FlockRevocation { window, .. }
            | Fault::Net { window, .. } => Some(*window),
            Fault::HeapFlip { .. } | Fault::CkptFlip { .. } | Fault::CkptCorrupt { .. } => None,
        }
    }

    /// The ground truth the entry labels itself with: every endpoint of a
    /// network fault's links, or the checkpoint server for stored-image
    /// damage.
    fn label(&self) -> Option<FaultLabel> {
        let server = |kind: &str| FaultLabel {
            kind: kind.to_string(),
            culprits: vec![CULPRIT_CKPT_SERVER.to_string()],
        };
        match self {
            Fault::Net { fault, .. } => {
                let mut culprits: Vec<String> = match fault {
                    NetFault::Partition { a, b } => a.iter().chain(b).copied().collect(),
                    NetFault::Loss { a, b, .. }
                    | NetFault::LatencySpike { a, b, .. }
                    | NetFault::Duplication { a, b, .. } => vec![*a, *b],
                }
                .into_iter()
                .map(culprit_link)
                .collect();
                culprits.sort();
                culprits.dedup();
                Some(FaultLabel {
                    kind: fault.kind().to_string(),
                    culprits,
                })
            }
            Fault::CkptFlip { .. } => Some(server("ckpt-flip")),
            Fault::CkptCorrupt { .. } => Some(server("corrupt-checkpoint")),
            _ => None,
        }
    }
}

/// One line per entry: `crash actor=3 [200s, 800s)`,
/// `net loss 1-3 [60s, 400s) prob=0.25`, `ckpt-flip job=1`.
impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::FsFault {
                schedd,
                window,
                fault,
            } => write!(f, "fs-fault schedd={schedd} {window} {fault}"),
            Fault::Crash { actor, window } => write!(f, "crash actor={actor} {window}"),
            Fault::OwnerActivity { machine, window } => {
                write!(f, "owner-activity machine={machine} {window}")
            }
            Fault::FlockRevocation { machine, window } => {
                write!(f, "flock-revocation machine={machine} {window}")
            }
            Fault::Net { window, fault } => {
                write!(f, "net {} {} {window}", fault.kind(), fault.link())?;
                match fault {
                    NetFault::Partition { .. } => Ok(()),
                    NetFault::Loss { prob, .. } | NetFault::Duplication { prob, .. } => {
                        write!(f, " prob={prob}")
                    }
                    NetFault::LatencySpike { latency, .. } => match latency.as_micros() {
                        us if us % 1000 == 0 => write!(f, " latency={}ms", us / 1000),
                        us => write!(f, " latency={us}us"),
                    },
                }
            }
            Fault::HeapFlip { job, bit } => write!(f, "heap-flip job={job} bit={bit}"),
            Fault::CkptFlip { job } => write!(f, "ckpt-flip job={job}"),
            Fault::CkptCorrupt { job } => write!(f, "ckpt-corrupt job={job}"),
        }
    }
}

/// Ground truth for one injected fault: what kind of failure it is, and
/// which culprit names a correct post-mortem localization may produce.
///
/// Culprit strings use the vocabulary the `obs-analyze` localizer emits —
/// `"machine:<actor id>"` for a faulty host, `"link:<actor id>"` for a
/// broken path to that host, and `"ckpt-server"` for corrupted checkpoint
/// storage. Network faults label every endpoint of the severed links, so
/// naming any one of them counts as correct: a partition has two ends and
/// the symptoms do not say which side moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultLabel {
    /// The fault's kind (`"partition"`, `"loss"`, `"black-hole"`,
    /// `"corrupt-checkpoint"`…).
    pub kind: String,
    /// Every culprit name an exact localization may report.
    pub culprits: Vec<String>,
}

/// The culprit name for a faulty machine (by actor id).
pub fn culprit_machine(id: usize) -> String {
    format!("machine:{id}")
}

/// The culprit name for a broken network path to host `id`.
pub fn culprit_link(id: usize) -> String {
    format!("link:{id}")
}

/// The culprit name for corrupted checkpoint storage.
pub const CULPRIT_CKPT_SERVER: &str = "ckpt-server";

/// Why a fault plan was rejected at build time.
///
/// [`Fault`] and [`Window`] are plain data, so an inverted window or an
/// out-of-range probability is constructible by literal even though
/// [`Window::new`] asserts. [`FaultPlan::try_build`] is the last line of
/// defense: a campaign generator mass-producing plans fails fast here
/// instead of silently scheduling a fault that can never fire.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The entry's window is empty or inverted (`from >= to`).
    BadWindow(Fault),
    /// The entry's loss or duplication probability is outside `[0, 1]`
    /// (NaN included).
    BadProbability(Fault),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadWindow(entry) => {
                write!(f, "bad fault window on `{entry}`: empty or inverted")
            }
            PlanError::BadProbability(entry) => {
                write!(f, "bad probability on `{entry}`: outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The label kind used for same-link overlap warnings. Warning labels are
/// advisory — they never widen [`FaultPlan::accepted_culprits`].
pub const OVERLAP_WARNING: &str = "overlap-warning";

/// The complete fault schedule for one run: the list of [`Fault`]s plus
/// its ground-truth labels.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    labels: Vec<FaultLabel>,
}

impl FaultPlan {
    /// An empty plan: nothing ever breaks.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// The plan that schedules `faults`. Network faults and both
    /// checkpoint-damage kinds label themselves, in list order.
    pub fn new(faults: Vec<Fault>) -> FaultPlan {
        let labels = faults.iter().filter_map(Fault::label).collect();
        FaultPlan { faults, labels }
    }

    /// The scheduled entries, in declaration order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Declare ground truth for a fault that belongs to the topology, not
    /// the plan — a statically misconfigured machine — so a campaign
    /// built from this plan is self-describing: the localizer's verdict
    /// can be checked against [`FaultPlan::ground_truth`] without the
    /// harness keeping a side table.
    pub fn expect(mut self, kind: &str, culprits: impl IntoIterator<Item = String>) -> FaultPlan {
        self.labels.push(FaultLabel {
            kind: kind.to_string(),
            culprits: culprits.into_iter().collect(),
        });
        self
    }

    /// Ground-truth labels for every declared fault: the entries' own
    /// labels (any endpoint of a severed link is an acceptable culprit),
    /// then those added via [`FaultPlan::expect`].
    pub fn ground_truth(&self) -> &[FaultLabel] {
        &self.labels
    }

    /// Every culprit name any declared fault accepts — the union of
    /// [`FaultPlan::ground_truth`]'s label sets. Advisory
    /// [`OVERLAP_WARNING`] labels are excluded: a warning is not a fault.
    pub fn accepted_culprits(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .labels
            .iter()
            .filter(|l| l.kind != OVERLAP_WARNING)
            .flat_map(|l| l.culprits.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Validate and freeze into a shareable handle.
    ///
    /// Rejects any entry whose window is empty or inverted, and any loss
    /// or duplication probability outside `[0, 1]`. Two network faults
    /// whose windows overlap on the same link are legal (the later
    /// declaration wins while both are open) but usually a generator bug,
    /// so each such pair gets an advisory [`OVERLAP_WARNING`] label naming
    /// the shared link.
    pub fn try_build(mut self) -> Result<Arc<FaultPlan>, PlanError> {
        for entry in &self.faults {
            if entry.window().is_some_and(|w| w.from >= w.to) {
                return Err(PlanError::BadWindow(entry.clone()));
            }
            if let Fault::Net {
                fault: NetFault::Loss { prob, .. } | NetFault::Duplication { prob, .. },
                ..
            } = entry
            {
                if !(0.0..=1.0).contains(prob) {
                    return Err(PlanError::BadProbability(entry.clone()));
                }
            }
        }
        let nets: Vec<(Window, &NetFault)> = self.net_faults().collect();
        let mut warned: Vec<(usize, usize)> = Vec::new();
        for (i, (wa, a)) in nets.iter().enumerate() {
            for (wb, b) in &nets[i + 1..] {
                // Half-open windows intersect iff each starts before the
                // other ends.
                if !(wa.from < wb.to && wb.from < wa.to) {
                    continue;
                }
                for link in a.links() {
                    if b.links().contains(&link) && !warned.contains(&link) {
                        warned.push(link);
                    }
                }
            }
        }
        self.labels
            .extend(warned.into_iter().map(|(a, b)| FaultLabel {
                kind: OVERLAP_WARNING.to_string(),
                culprits: vec![culprit_link(a), culprit_link(b)],
            }));
        Ok(Arc::new(self))
    }

    /// Freeze into a shareable handle, panicking on a malformed plan.
    /// Hand-written plans use this; generators should prefer
    /// [`FaultPlan::try_build`].
    pub fn build(self) -> Arc<FaultPlan> {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"))
    }

    /// The scheduled network faults with their windows, in declaration
    /// order.
    pub fn net_faults(&self) -> impl Iterator<Item = (Window, &NetFault)> {
        self.faults.iter().filter_map(|f| match f {
            Fault::Net { window, fault } => Some((*window, fault)),
            _ => None,
        })
    }

    /// Every instant at which some network fault's window opens or closes —
    /// the moments the fabric must be reconfigured. Sorted, deduplicated,
    /// `SimTime::MAX` ("forever") excluded.
    pub fn net_fault_edges(&self) -> Vec<SimTime> {
        let mut edges: Vec<SimTime> = self
            .net_faults()
            .flat_map(|(w, _)| [w.from, w.to])
            .filter(|t| *t != SimTime::MAX)
            .collect();
        edges.sort();
        edges.dedup();
        edges
    }

    /// The file-system fault (if any) affecting `schedd`'s home file system
    /// at any point in `[start, end]`. The earliest-declared overlapping
    /// fault wins.
    pub fn fs_fault_during(&self, schedd: usize, start: SimTime, end: SimTime) -> Option<EnvFault> {
        self.faults.iter().find_map(|f| match f {
            Fault::FsFault {
                schedd: s,
                window,
                fault,
            } if *s == schedd && window.overlaps(start, end) => Some(*fault),
            _ => None,
        })
    }

    /// Is the file system faulty at exactly `t`?
    pub fn fs_fault_at(&self, schedd: usize, t: SimTime) -> Option<EnvFault> {
        self.faults.iter().find_map(|f| match f {
            Fault::FsFault {
                schedd: s,
                window,
                fault,
            } if *s == schedd && window.contains(t) => Some(*fault),
            _ => None,
        })
    }

    /// Does `machine` revoke flocked claims at instant `t`?
    pub fn flock_revoked_at(&self, machine: usize, t: SimTime) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::FlockRevocation { machine: m, window }
                if *m == machine && window.contains(t))
        })
    }

    /// Is the owner using `machine` at instant `t`?
    pub fn owner_busy_at(&self, machine: usize, t: SimTime) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::OwnerActivity { machine: m, window }
                if *m == machine && window.contains(t))
        })
    }

    /// The first instant strictly after `start` and at or before `end` at
    /// which the owner reclaims `machine`, if any — the eviction moment
    /// for a job running over `[start, end]`.
    pub fn owner_returns_during(
        &self,
        machine: usize,
        start: SimTime,
        end: SimTime,
    ) -> Option<SimTime> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::OwnerActivity { machine: m, window }
                    if *m == machine && window.from > start && window.from <= end =>
                {
                    Some(window.from)
                }
                _ => None,
            })
            .min()
    }

    /// The heap-flip bit seed scheduled for `job`, if any.
    pub fn heap_flip_for(&self, job: JobId) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::HeapFlip { job: j, bit } if *j == job => Some(*bit),
            _ => None,
        })
    }

    /// Does the checkpoint server flip a bit of `job`'s stored images?
    pub fn ckpt_flipped(&self, job: JobId) -> bool {
        self.faults.contains(&Fault::CkptFlip { job })
    }

    /// Does the checkpoint server corrupt `job`'s stored images?
    pub fn ckpt_corrupted(&self, job: JobId) -> bool {
        self.faults.contains(&Fault::CkptCorrupt { job })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn w(from: u64, to: u64) -> Window {
        Window::new(t(from), t(to))
    }

    /// `[20s, 10s)`: `Window`'s fields are pub, so an inverted window is
    /// constructible by literal even though `Window::new` asserts.
    fn inverted() -> Window {
        Window {
            from: t(20),
            to: t(10),
        }
    }

    fn crash(actor: usize, window: Window) -> Fault {
        Fault::Crash { actor, window }
    }

    fn owner(machine: usize, window: Window) -> Fault {
        Fault::OwnerActivity { machine, window }
    }

    fn net(window: Window, fault: NetFault) -> Fault {
        Fault::Net { window, fault }
    }

    fn loss(a: usize, b: usize, prob: f64, window: Window) -> Fault {
        net(window, NetFault::Loss { a, b, prob })
    }

    fn partition(a: &[usize], b: &[usize], window: Window) -> Fault {
        let (a, b) = (a.to_vec(), b.to_vec());
        net(window, NetFault::Partition { a, b })
    }

    #[test]
    fn window_membership() {
        let w = w(10, 20);
        assert!(!w.contains(t(9)));
        assert!(w.contains(t(10)));
        assert!(w.contains(t(19)));
        assert!(!w.contains(t(20)));
        assert!(Window::from(t(5)).contains(t(1_000_000)));
    }

    #[test]
    fn window_overlap() {
        let w = w(10, 20);
        assert!(w.overlaps(t(0), t(10)));
        assert!(w.overlaps(t(15), t(16)));
        assert!(w.overlaps(t(19), t(30)));
        assert!(!w.overlaps(t(20), t(30)));
        assert!(!w.overlaps(t(0), t(9)));
    }

    #[test]
    #[should_panic]
    fn empty_window_rejected() {
        let _ = Window::new(t(5), t(5));
    }

    #[test]
    fn window_boundary_cases() {
        // Adjacent windows share an edge but no instant: [10,20) ends
        // exactly where [20,30) begins.
        let first = w(10, 20);
        let second = w(20, 30);
        assert!(!first.contains(t(20)));
        assert!(second.contains(t(20)));
        // A zero-length query interval [20,20] touches only the second.
        assert!(!first.overlaps(t(20), t(20)));
        assert!(second.overlaps(t(20), t(20)));
        // ...and [19,19] only the first.
        assert!(first.overlaps(t(19), t(19)));
        assert!(!second.overlaps(t(19), t(19)));

        // "Forever" windows: SimTime::MAX is *exclusive*, so even a
        // forever window does not contain the end of time itself, nor
        // overlap the zero-length query sitting exactly there...
        let forever = Window::from(t(5));
        assert!(!forever.contains(SimTime::MAX));
        assert!(!forever.overlaps(SimTime::MAX, SimTime::MAX));
        // ...but it overlaps any interval that starts before it.
        assert!(forever.overlaps(t(0), SimTime::MAX));
        assert!(forever.overlaps(t(5), t(5)));
        // A bounded window never overlaps a query starting at its end.
        assert!(!first.overlaps(t(20), SimTime::MAX));
        // A window reaching MAX contains every representable instant
        // before it.
        let to_max = Window::new(t(10), SimTime::MAX);
        assert!(to_max.contains(SimTime::from_micros(SimTime::MAX.as_micros() - 1)));
    }

    #[test]
    fn net_fault_plan_and_edges() {
        let latency = SimDuration::from_millis(80);
        let plan = FaultPlan::new(vec![
            partition(&[1], &[4, 5], w(100, 250)),
            loss(1, 3, 0.2, w(300, 400)),
            net(
                w(100, 300),
                NetFault::LatencySpike {
                    a: 1,
                    b: 2,
                    latency,
                },
            ),
            net(
                Window::from(t(50)),
                NetFault::Duplication {
                    a: 1,
                    b: 2,
                    prob: 0.3,
                },
            ),
        ])
        .build();
        let kinds: Vec<_> = plan.net_faults().map(|(_, f)| f.kind()).collect();
        assert_eq!(kinds, vec!["partition", "loss", "latency", "duplication"]);
        // Edges: sorted, deduplicated (100 appears twice), MAX excluded.
        assert_eq!(
            plan.net_fault_edges(),
            vec![t(50), t(100), t(250), t(300), t(400)]
        );
        assert!(FaultPlan::none().net_fault_edges().is_empty());
        // One printer: every entry is one line.
        let lines: Vec<String> = plan.faults().iter().map(Fault::to_string).collect();
        assert_eq!(
            lines,
            vec![
                "net partition 1|4,5 [100s, 250s)",
                "net loss 1-3 [300s, 400s) prob=0.2",
                "net latency 1-2 [100s, 300s) latency=80ms",
                "net duplication 1-2 [50s, forever) prob=0.3",
            ]
        );
    }

    #[test]
    fn plans_are_self_describing() {
        let plan = FaultPlan::new(vec![
            partition(&[1], &[4, 5], w(100, 250)),
            loss(1, 3, 0.2, w(300, 400)),
            Fault::CkptCorrupt { job: 1 },
        ])
        .expect("black-hole", [culprit_machine(2)])
        .build();
        let labels = plan.ground_truth();
        assert_eq!(labels.len(), 4);
        assert_eq!(labels[0].kind, "partition");
        assert_eq!(labels[0].culprits, vec!["link:1", "link:4", "link:5"]);
        assert_eq!(labels[1].culprits, vec!["link:1", "link:3"]);
        assert_eq!(labels[2].kind, "corrupt-checkpoint");
        assert_eq!(labels[2].culprits, vec!["ckpt-server"]);
        assert_eq!(labels[3].culprits, vec!["machine:2"]);
        assert_eq!(
            plan.accepted_culprits(),
            vec![
                "ckpt-server",
                "link:1",
                "link:3",
                "link:4",
                "link:5",
                "machine:2"
            ]
        );
        // An unlabeled plan accepts nothing.
        assert!(FaultPlan::none().accepted_culprits().is_empty());
    }

    #[test]
    fn fs_faults_are_per_schedd() {
        let offline = EnvFault::FilesystemOffline;
        let plan = FaultPlan::new(vec![Fault::FsFault {
            schedd: 1,
            window: w(100, 200),
            fault: offline,
        }])
        .build();
        assert_eq!(plan.fs_fault_at(1, t(150)), Some(offline));
        assert_eq!(plan.fs_fault_at(2, t(150)), None);
        assert_eq!(plan.fs_fault_at(1, t(250)), None);
        assert_eq!(plan.fs_fault_during(1, t(0), t(100)), Some(offline));
        assert_eq!(plan.fs_fault_during(1, t(0), t(99)), None);
    }

    /// A crash silences its machine and no other: installed in a world,
    /// the window from 50 s on stops machine 3's ads after the keep-alive
    /// at 45 s, and machine 4 keeps going.
    #[test]
    fn crashes_are_per_machine() {
        use crate::machine::MachineSpec;
        use crate::startd::{Startd, StartdPolicy};
        use crate::{Matchmaker, Msg};
        let plan = FaultPlan::new(vec![crash(3, Window::from(t(50)))]).build();
        let mut world: desim::World<Msg> = desim::World::new(1);
        world.add_actor(Box::new(Matchmaker::new()));
        for i in 1..=4 {
            let spec = MachineSpec::healthy(&format!("m{i}"), 256);
            let startd = Startd::new(spec, StartdPolicy::default(), 0, Arc::clone(&plan));
            world.add_actor(Box::new(startd));
        }
        crate::netdriver::install_crashes(&plan, &mut world);
        world.run_until(t(100));
        let ads = |id| world.get::<Startd>(id).unwrap().stats.ads_sent;
        assert_eq!((ads(2), ads(3), ads(4)), (7, 4, 7));
        assert_eq!(world.dropped_down(), 1, "the keep-alive at 60 s");
    }

    #[test]
    fn empty_plan_is_quiet() {
        let plan = FaultPlan::none().build();
        assert_eq!(plan.fs_fault_at(0, t(100)), None);
        assert!(!plan.owner_busy_at(0, t(100)));
        assert_eq!(plan.owner_returns_during(0, t(0), t(100)), None);
    }

    #[test]
    fn try_build_rejects_inverted_windows() {
        let err = FaultPlan::new(vec![crash(3, inverted())])
            .try_build()
            .unwrap_err();
        assert_eq!(err, PlanError::BadWindow(crash(3, inverted())));
        assert_eq!(
            err.to_string(),
            "bad fault window on `crash actor=3 [20s, 10s)`: empty or inverted"
        );
        let zero = Window {
            from: t(5),
            to: t(5),
        };
        for entry in [
            owner(1, zero),
            loss(1, 2, 0.1, inverted()),
            Fault::FsFault {
                schedd: 0,
                window: inverted(),
                fault: EnvFault::FilesystemOffline,
            },
        ] {
            assert!(FaultPlan::new(vec![entry]).try_build().is_err());
        }
    }

    #[test]
    fn try_build_rejects_probabilities_outside_the_unit_interval() {
        for prob in [-0.1, 1.5, f64::NAN] {
            let lossy = loss(1, 2, prob, w(10, 20));
            let err = FaultPlan::new(vec![lossy]).try_build().unwrap_err();
            assert!(matches!(err, PlanError::BadProbability(_)), "{err}");
            assert!(err.to_string().contains("`net loss 1-2 [10s, 20s) prob="));

            let duplicating = net(w(10, 20), NetFault::Duplication { a: 1, b: 2, prob });
            let err = FaultPlan::new(vec![duplicating]).try_build().unwrap_err();
            assert!(matches!(err, PlanError::BadProbability(_)), "{err}");
            assert!(err.to_string().contains("`net duplication 1-2"), "{err}");
        }
        // Both ends of the interval are legal.
        let edges = vec![loss(1, 2, 0.0, w(10, 20)), loss(1, 3, 1.0, w(10, 20))];
        assert!(FaultPlan::new(edges).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn build_panics_on_inverted_window() {
        let _ = FaultPlan::new(vec![crash(3, inverted())]).build();
    }

    #[test]
    fn overlapping_same_link_faults_get_warning_labels() {
        let warnings = |faults: Vec<Fault>| -> Vec<Vec<String>> {
            let plan = FaultPlan::new(faults).build();
            let labels = plan.ground_truth().iter();
            let warned = labels.filter(|l| l.kind == OVERLAP_WARNING);
            warned.map(|l| l.culprits.clone()).collect()
        };
        // Loss and a partition covering link 1–4 at once: warn-labeled.
        let both = vec![
            loss(1, 4, 0.2, w(100, 300)),
            partition(&[1], &[4, 5], w(200, 400)),
        ];
        assert_eq!(warnings(both.clone()), vec![vec!["link:1", "link:4"]]);
        // Advisory only: the warning never widens the accepted culprits.
        let accepted = FaultPlan::new(both).build().accepted_culprits();
        assert_eq!(accepted, vec!["link:1", "link:4", "link:5"]);

        // Disjoint windows on the same link: no warning.
        let quiet = vec![loss(1, 4, 0.2, w(100, 200)), loss(4, 1, 0.5, w(200, 300))];
        assert!(warnings(quiet).is_empty());
        // Overlapping windows on *different* links: no warning either.
        let other = vec![loss(1, 4, 0.2, w(100, 300)), loss(1, 5, 0.2, w(100, 300))];
        assert!(warnings(other).is_empty());
    }

    #[test]
    fn flip_schedules_are_queryable() {
        let plan = FaultPlan::new(vec![
            Fault::HeapFlip {
                job: 7,
                bit: 0xDEAD_BEEF,
            },
            Fault::CkptFlip { job: 3 },
            Fault::CkptFlip { job: 9 },
            Fault::CkptCorrupt { job: 4 },
        ])
        .build();
        assert_eq!(plan.heap_flip_for(7), Some(0xDEAD_BEEF));
        assert_eq!(plan.heap_flip_for(8), None);
        assert!(plan.ckpt_flipped(3) && plan.ckpt_flipped(9) && !plan.ckpt_flipped(7));
        assert!(plan.ckpt_corrupted(4) && !plan.ckpt_corrupted(3));
        // Stored-image damage is self-describing (the server is the
        // culprit); heap flips are not labeled — the mem-flip event names
        // the machine at the instant of injection.
        let kinds: Vec<_> = plan.ground_truth().iter().map(|l| &l.kind).collect();
        assert_eq!(kinds, ["ckpt-flip", "ckpt-flip", "corrupt-checkpoint"]);
        assert_eq!(plan.accepted_culprits(), vec![CULPRIT_CKPT_SERVER]);
    }

    #[test]
    fn flock_revocation_windows() {
        let revoke = |window| Fault::FlockRevocation { machine: 7, window };
        let plan = FaultPlan::new(vec![revoke(w(100, 200))]).build();
        assert!(!plan.flock_revoked_at(7, t(99)));
        assert!(plan.flock_revoked_at(7, t(100)));
        assert!(plan.flock_revoked_at(7, t(199)));
        assert!(!plan.flock_revoked_at(7, t(200)));
        assert!(!plan.flock_revoked_at(8, t(150)));
        // Revocation windows are validated like every other entry.
        assert!(FaultPlan::new(vec![revoke(inverted())])
            .try_build()
            .is_err());
    }

    #[test]
    fn owner_activity_windows() {
        let plan = FaultPlan::new(vec![owner(2, w(100, 200)), owner(2, w(500, 600))]).build();
        assert!(!plan.owner_busy_at(2, t(99)));
        assert!(plan.owner_busy_at(2, t(150)));
        assert!(!plan.owner_busy_at(2, t(200)));
        assert!(!plan.owner_busy_at(3, t(150)));
        // A job running [50, 300] is evicted at 100.
        assert_eq!(plan.owner_returns_during(2, t(50), t(300)), Some(t(100)));
        // A job running [300, 550] is evicted at 500 (earliest onset).
        assert_eq!(plan.owner_returns_during(2, t(300), t(550)), Some(t(500)));
        // A job starting exactly at an onset is not "interrupted" by it.
        assert_eq!(plan.owner_returns_during(2, t(100), t(150)), None);
        // A job elsewhere is untouched.
        assert_eq!(plan.owner_returns_during(1, t(0), t(1000)), None);
    }
}
