//! The matchmaker daemon.
//!
//! "This process collects information about all participants, and notifies
//! schedds and startds of compatible partners. Matched processes are
//! individually responsible for communicating with each other and verifying
//! that their needs are met" (§2.1). The matchmaker holds soft state only,
//! kept by lease: an ad lives [`AD_LIFETIME`], its sender renews it at half
//! that, and says at once when something changes. A match consumes both
//! ads, and until the next cycle starts an ad its sender put on the wire
//! before it could have heard of the match is *fenced* — dropped instead of
//! matched a second time. A lost notification therefore delays a job by two
//! negotiation cycles: one behind the fence, one to be matched again.
//!
//! # Negotiation at scale
//!
//! The naive kernel is O(jobs × machines) AST walks per cycle. The
//! [`MatchEngine`] keeps the same greedy, RNG-tie-broken semantics
//! bit-identical (gated against the frozen [`naive_negotiate`] by this
//! module's differential tests and in-process by `exp e9` / `exp e11`)
//! while doing asymptotically less work:
//!
//! * ads are [compiled](classads::compile) once per *content change*, not
//!   re-walked per pair;
//! * the unit of negotiation is the job *shape* (HTCondor's autocluster),
//!   not the job: ads equal in everything a match evaluation can read —
//!   their own `Requirements` and `Rank`, every attribute any machine ad
//!   has ever asked for, and whatever those reach through the ad's own
//!   references — share one compiled projection, one verdict per machine
//!   and, within a cycle, one candidate list, which later jobs of the
//!   shape draw from minus the machines picked since;
//! * machine ads are indexed by their discrete gating attributes (literal
//!   `HasJava`) and sorted literal `Memory`, so a shape only probes machines
//!   that could possibly satisfy its extracted `Requirements` conjuncts —
//!   pruning is conservative: any conjunct we cannot prove False (or
//!   never-True) for a machine keeps that machine in the probe set;
//! * shapes whose `Rank` is recognizably `TARGET.Memory` descend the sorted
//!   index from the top — walked in place, tier by tier, never copied or
//!   re-sorted — and stop as soon as no lower memory tier can beat the
//!   best candidate found;
//! * per-(shape, machine) verdicts are cached against the machine ad's
//!   *generation* counter, so unchanged pairs are never re-evaluated
//!   across cycles. Only an evaluation that ends with *no candidate* has
//!   its verdicts admitted: a shape that found a machine consumes it, and
//!   usually leaves with its jobs.
//!
//! Ads arrive as `Arc<ClassAd>`: a daemon builds its ad once and
//! re-advertises the same allocation, so the common refresh is a pointer
//! comparison (deep equality is the fallback for a same-content ad in a
//! different allocation).
//!
//! The index holds the paper's soft-state bargain: expired ads are removed
//! from every bucket, and a consumed ad leaves the index the moment it is
//! picked, so later jobs in the same cycle never touch it.

use crate::faults::FaultPlan;
use crate::msg::Msg;
use classads::ast::{AttrScope, BinOp, Expr};
use classads::compile::{symmetric_match_compiled, CompiledAd, MatchKey, Scratch};
use classads::ClassAd;
use classads::Value;
use desim::prelude::*;
use std::collections::btree_set::Range;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// How often the matchmaker runs a negotiation cycle.
pub const NEGOTIATE_PERIOD: SimDuration = SimDuration::from_secs(10);
/// The lease on a machine ad: one not renewed for longer than this is
/// discarded at the next cycle (a live startd renews it every
/// [`crate::startd::KEEPALIVE_PERIOD`], half of this).
pub const AD_LIFETIME: SimDuration = SimDuration::from_secs(30);

/// Counters the matchmaker accumulates, projected into registries as
/// `mm_*` metrics.
#[derive(Debug, Clone, Default)]
pub struct MatchmakerStats {
    /// Ad pairs actually evaluated (cache misses).
    pub pairs_evaluated: u64,
    /// Pair verdicts served from the generation-keyed cache.
    pub cache_hits: u64,
    /// Matches produced.
    pub matches_made: u64,
    /// Negotiation cycles run.
    pub cycles: u64,
    /// Machine + job ads live at the start of the last cycle.
    pub ads_active: u64,
    /// Machine ads that renewed the lease of the entry already held (the
    /// same `Arc`, or equal content): the clock moves, nothing else.
    pub ads_refreshed: u64,
    /// Machine ads admitted under a new generation: first sight, changed
    /// content, or back after being consumed or expired.
    pub ads_admitted: u64,
    /// Machine ads whose lease ran out.
    pub ads_expired: u64,
    /// Machine ads dropped at the fence: sent before their machine could
    /// have heard of the match that consumed its previous ad.
    pub ads_fenced: u64,
    /// Wall-clock microseconds per negotiation cycle. **Nondeterministic**:
    /// kept out of [`MatchmakerStats::register_into`] so registry snapshots
    /// stay bit-identical across same-seed runs; export it explicitly via
    /// [`MatchmakerStats::register_timing_into`] when wall-clock data is
    /// wanted.
    pub cycle_us: obs::Histogram,
}

impl MatchmakerStats {
    /// Project the deterministic counters into a registry.
    pub fn register_into(&self, reg: &mut obs::Registry) {
        reg.counter_add("mm_pairs_evaluated", &[], self.pairs_evaluated);
        reg.counter_add("mm_cache_hits", &[], self.cache_hits);
        reg.counter_add("mm_matches_made", &[], self.matches_made);
        reg.counter_add("mm_cycles", &[], self.cycles);
        reg.gauge_set("mm_ads_active", &[], self.ads_active as f64);
        reg.counter_add("mm_ads_refreshed", &[], self.ads_refreshed);
        reg.counter_add("mm_ads_admitted", &[], self.ads_admitted);
        reg.counter_add("mm_ads_expired", &[], self.ads_expired);
        reg.counter_add("mm_ads_fenced", &[], self.ads_fenced);
    }

    /// Merge the wall-clock cycle histogram into a registry. Separate from
    /// [`MatchmakerStats::register_into`] because wall-clock durations are
    /// not reproducible and would break byte-identical snapshot gates.
    pub fn register_timing_into(&self, reg: &mut obs::Registry) {
        reg.histogram_merge("mm_cycle_us", &[], &self.cycle_us);
    }
}

// ---------------------------------------------------------------------
// Conservative constraint extraction
// ---------------------------------------------------------------------

/// Discrete java-capability gate of a machine ad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JavaClass {
    /// `HasJava` is the literal `true`: satisfies `TARGET.HasJava =?= true`.
    Yes,
    /// `HasJava` is absent or a non-`true` literal: that conjunct can never
    /// be True, so java-requiring jobs can skip this machine.
    No,
    /// `HasJava` is a non-literal expression: unknown until evaluated, so
    /// the machine is always probed.
    Unknown,
}

impl JavaClass {
    fn idx(self) -> usize {
        match self {
            JavaClass::Yes => 0,
            JavaClass::No => 1,
            JavaClass::Unknown => 2,
        }
    }
}

/// What the index knows about a machine's `Memory`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MemClass {
    /// A literal integer: the machine sorts into the memory index.
    Known(i64),
    /// The attribute is absent. A job conjunct comparing `TARGET.Memory`
    /// then evaluates Undefined, which can never make `Requirements` True —
    /// so memory-bounded jobs skip these machines entirely.
    Missing,
    /// Present but not a literal integer: value unknown until evaluation,
    /// always probed.
    Opaque,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct MachineGate {
    java: JavaClass,
    mem: MemClass,
}

fn machine_gate(ad: &ClassAd) -> MachineGate {
    let java = match ad.get("HasJava") {
        Some(Expr::Lit(Value::Bool(true))) => JavaClass::Yes,
        Some(Expr::Lit(_)) | None => JavaClass::No,
        Some(_) => JavaClass::Unknown,
    };
    let mem = match ad.get("Memory") {
        Some(Expr::Lit(Value::Int(m))) => MemClass::Known(*m),
        None => MemClass::Missing,
        Some(_) => MemClass::Opaque,
    };
    MachineGate { java, mem }
}

/// Constraints extracted from the top-level `&&` conjuncts of a job's
/// `Requirements`. Extraction is *conservative*: a conjunct is only used
/// for pruning when its failure provably prevents `Requirements` from
/// evaluating to exactly True (False dominates `&&`, and an Undefined or
/// Error conjunct can never conjoin to True either).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct JobNeeds {
    /// The job carries a `TARGET.HasJava =?= true` conjunct.
    requires_java: bool,
    /// Minimum literal machine memory implied by a
    /// `TARGET.Memory >= <job-constant>` (or flipped/strict) conjunct.
    min_memory: Option<i64>,
}

fn job_needs(ad: &ClassAd) -> JobNeeds {
    let mut needs = JobNeeds::default();
    if let Some(req) = ad.get("Requirements") {
        collect_conjuncts(ad, req, &mut needs);
    }
    needs
}

fn collect_conjuncts(ad: &ClassAd, e: &Expr, needs: &mut JobNeeds) {
    match e {
        Expr::Binary(BinOp::And, a, b) => {
            collect_conjuncts(ad, a, needs);
            collect_conjuncts(ad, b, needs);
        }
        Expr::Binary(BinOp::MetaEq, a, b) => {
            let lit_true = |x: &Expr| matches!(x, Expr::Lit(Value::Bool(true)));
            if (refers_to_target(ad, a, "hasjava") && lit_true(b))
                || (refers_to_target(ad, b, "hasjava") && lit_true(a))
            {
                needs.requires_java = true;
            }
        }
        // TARGET.Memory >= c  /  c <= TARGET.Memory: inclusive bound.
        Expr::Binary(BinOp::Ge, a, b) if refers_to_target(ad, a, "memory") => {
            if let Some(c) = job_constant(ad, b) {
                raise_min(needs, c.ceil());
            }
        }
        Expr::Binary(BinOp::Le, a, b) if refers_to_target(ad, b, "memory") => {
            if let Some(c) = job_constant(ad, a) {
                raise_min(needs, c.ceil());
            }
        }
        // TARGET.Memory > c  /  c < TARGET.Memory: exclusive bound.
        Expr::Binary(BinOp::Gt, a, b) if refers_to_target(ad, a, "memory") => {
            if let Some(c) = job_constant(ad, b) {
                raise_min(needs, c.floor() + 1.0);
            }
        }
        Expr::Binary(BinOp::Lt, a, b) if refers_to_target(ad, b, "memory") => {
            if let Some(c) = job_constant(ad, a) {
                raise_min(needs, c.floor() + 1.0);
            }
        }
        _ => {}
    }
}

fn raise_min(needs: &mut JobNeeds, bound: f64) {
    if !bound.is_finite() || bound > i64::MAX as f64 {
        return; // don't prune on a bound we can't represent
    }
    let b = bound as i64;
    needs.min_memory = Some(needs.min_memory.map_or(b, |cur| cur.max(b)));
}

/// Does `e` reference `attr` *of the machine ad* when evaluated in the job
/// ad's frame? True for `TARGET.attr`, and for a bare `attr` the job ad
/// itself does not define (bare references try the evaluating frame first).
fn refers_to_target(ad: &ClassAd, e: &Expr, attr: &str) -> bool {
    match e {
        Expr::Attr {
            scope: AttrScope::Target,
            name,
            ..
        } => name == attr,
        Expr::Attr {
            scope: AttrScope::Either,
            name,
            ..
        } => name == attr && ad.get(name).is_none(),
        _ => false,
    }
}

/// A value that is constant from the job's side of the evaluation: a
/// numeric literal, or a job attribute holding a numeric literal.
fn job_constant(ad: &ClassAd, e: &Expr) -> Option<f64> {
    let lit_num = |x: &Expr| match x {
        Expr::Lit(Value::Int(i)) => Some(*i as f64),
        Expr::Lit(Value::Real(r)) if r.is_finite() => Some(*r),
        _ => None,
    };
    match e {
        Expr::Lit(_) => lit_num(e),
        Expr::Attr {
            scope: AttrScope::My | AttrScope::Either,
            name,
            ..
        } => ad.get(name).and_then(lit_num),
        _ => None,
    }
}

/// Is the job's `Rank` expression recognizably "the machine's memory"?
/// When it is — and the machine's `Memory` is a literal integer — the rank
/// a match would produce equals the index key, and negotiation can walk
/// memory tiers top-down instead of evaluating every candidate.
fn rank_is_target_memory(ad: &ClassAd) -> bool {
    match ad.get("Rank") {
        Some(Expr::Attr {
            scope: AttrScope::Target,
            name,
            ..
        }) => name == "memory",
        Some(Expr::Attr {
            scope: AttrScope::Either,
            name,
            ..
        }) => name == "memory" && ad.get("memory").is_none(),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// The incremental index
// ---------------------------------------------------------------------

/// Machine ads bucketed by java class, with literal memories sorted for
/// range probes. Sets are `BTreeSet` so insert/remove are O(log n) and
/// iteration order is deterministic.
#[derive(Debug, Default)]
struct MatchIndex {
    /// Literal-memory machines per java class, keyed `(memory, id)`.
    by_mem: [BTreeSet<(i64, ActorId)>; 3],
    /// Machines with no `Memory` attribute per java class — skipped
    /// whenever a job carries a memory bound.
    no_mem: [BTreeSet<ActorId>; 3],
    /// Machines whose `Memory` is a non-literal expression — always probed.
    opaque_mem: [BTreeSet<ActorId>; 3],
}

impl MatchIndex {
    fn insert(&mut self, id: ActorId, gate: MachineGate) {
        let j = gate.java.idx();
        match gate.mem {
            MemClass::Known(m) => {
                self.by_mem[j].insert((m, id));
            }
            MemClass::Missing => {
                self.no_mem[j].insert(id);
            }
            MemClass::Opaque => {
                self.opaque_mem[j].insert(id);
            }
        }
    }

    fn remove(&mut self, id: ActorId, gate: MachineGate) {
        let j = gate.java.idx();
        match gate.mem {
            MemClass::Known(m) => {
                self.by_mem[j].remove(&(m, id));
            }
            MemClass::Missing => {
                self.no_mem[j].remove(&id);
            }
            MemClass::Opaque => {
                self.opaque_mem[j].remove(&id);
            }
        }
    }

    fn classes(requires_java: bool) -> &'static [usize] {
        if requires_java {
            &[0, 2] // Yes + Unknown; No can never satisfy =?= true
        } else {
            &[0, 1, 2]
        }
    }

    /// Plausible literal-memory machines of one java class, in ascending
    /// `(memory, id)` order: everything at or above the job's memory bound,
    /// or nothing when the class cannot satisfy the job's java conjunct.
    fn known(&self, class: usize, needs: JobNeeds) -> Range<'_, (i64, ActorId)> {
        static NO_MACHINES: BTreeSet<(i64, ActorId)> = BTreeSet::new();
        if !Self::classes(needs.requires_java).contains(&class) {
            return NO_MACHINES.range(..);
        }
        self.by_mem[class].range((needs.min_memory.unwrap_or(i64::MIN), 0)..)
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

struct MachineEntry {
    ad: Arc<ClassAd>,
    compiled: CompiledAd,
    fresh_at: SimTime,
    generation: u64,
    gate: MachineGate,
    /// The sequence number the ad last arrived with.
    seq: u64,
}

/// A queued job: its ad, the shape it negotiates as, and the sequence
/// number the ad last arrived with.
struct JobEntry {
    ad: Arc<ClassAd>,
    shape: u64,
    seq: u64,
}

/// Everything negotiation needs of a job ad, kept once per *shape*
/// (HTCondor's autocluster): the jobs whose ads are equal in every
/// attribute a match evaluation can read. A shape's id is the generation
/// drawn when it was first seen, and never reused.
struct Shape {
    /// The projection all the shape's jobs share. Evaluating it is
    /// value-identical to evaluating any of their ads, so a verdict is a
    /// function of (shape, machine) and nothing else.
    compiled: CompiledAd,
    /// Extracted from the first member's source ad. Pruning only drops
    /// machines that cannot match that member — hence none of them.
    needs: JobNeeds,
    rank_is_memory: bool,
}

/// Is `new` the ad already stored as `old`? The usual re-advertisement is
/// the same allocation; a same-content ad in another one still counts.
fn same_ad(old: &Arc<ClassAd>, new: &Arc<ClassAd>) -> bool {
    Arc::ptr_eq(old, new) || old == new
}

/// A cached pair verdict: everything the greedy cycle needs from a
/// `symmetric_match`.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    matched: bool,
    left_rank: f64,
}

/// The negotiation engine: ad storage, job shapes, the incremental match
/// index and the generation-keyed verdict cache. Drivable directly (as
/// the scale benchmarks do) or through the [`Matchmaker`] actor.
///
/// Matching semantics — including which machine wins each job, and the
/// single RNG tie-break draw per matched job — are bit-identical to the
/// naive O(jobs × machines) kernel preserved as [`naive_negotiate`].
pub struct MatchEngine {
    machines: BTreeMap<ActorId, MachineEntry>,
    // Keyed by (schedd, job) so several schedds can coexist.
    jobs: BTreeMap<(ActorId, u32), JobEntry>,
    index: MatchIndex,
    // Every (lower-cased) name a machine ad has ever read of its match
    // partner: what a job ad can be told apart by, beyond its own
    // `Requirements` and `Rank`. Grow-only — a name stays asked after the
    // machine that asked it is gone, which can only keep shapes finer
    // than they need to be.
    asked: BTreeSet<String>,
    // Live shapes by id, and the id of each live key. Both lookup-only
    // (never iterated for effect), like the cache.
    shapes: HashMap<u64, Shape>,
    shape_ids: HashMap<MatchKey, u64>,
    // (shape, machine) -> (machine generation, verdict). Lookup-only, so
    // a HashMap cannot leak nondeterminism.
    cache: HashMap<(u64, ActorId), (u64, Verdict)>,
    // The fences: the sequence number of every ad the last cycle consumed,
    // forgotten when the next one starts. Only [`MatchEngine::machine_ad`]
    // and [`MatchEngine::job_ad`] consult them.
    fenced_machines: BTreeMap<ActorId, u64>,
    fenced_jobs: BTreeMap<(ActorId, u32), u64>,
    next_generation: u64,
    scratch: Scratch,
    /// Counters.
    pub stats: MatchmakerStats,
}

impl Default for MatchEngine {
    fn default() -> Self {
        MatchEngine::new()
    }
}

impl MatchEngine {
    /// An empty engine.
    pub fn new() -> MatchEngine {
        MatchEngine {
            machines: BTreeMap::new(),
            jobs: BTreeMap::new(),
            index: MatchIndex::default(),
            asked: BTreeSet::new(),
            shapes: HashMap::new(),
            shape_ids: HashMap::new(),
            cache: HashMap::new(),
            fenced_machines: BTreeMap::new(),
            fenced_jobs: BTreeMap::new(),
            next_generation: 0,
            scratch: Scratch::new(),
            stats: MatchmakerStats::default(),
        }
    }

    /// Insert or refresh a machine ad. An ad identical to the stored one
    /// only refreshes the expiry clock — generation (and therefore every
    /// cached verdict involving this machine) is preserved.
    pub fn insert_machine(&mut self, id: ActorId, ad: impl Into<Arc<ClassAd>>, now: SimTime) {
        self.store_machine(id, ad.into(), 0, now);
    }

    /// A machine ad off the wire, stamped by its startd with `seq` (its
    /// count of claims accepted). If this cycle consumed the machine's ad,
    /// only one that postdates it gets in: a startd that has accepted no
    /// claim since cannot have seen the match, and its ad would be matched
    /// again while the first match's claim is still on its way.
    pub fn machine_ad(&mut self, id: ActorId, ad: Arc<ClassAd>, seq: u64, now: SimTime) {
        if matches!(self.fenced_machines.get(&id), Some(&consumed) if seq <= consumed) {
            self.stats.ads_fenced += 1;
            return;
        }
        self.store_machine(id, ad, seq, now);
    }

    fn store_machine(&mut self, id: ActorId, ad: Arc<ClassAd>, seq: u64, now: SimTime) {
        if let Some(existing) = self.machines.get_mut(&id) {
            if same_ad(&existing.ad, &ad) {
                existing.fresh_at = now;
                existing.seq = seq;
                self.stats.ads_refreshed += 1;
                return;
            }
        }
        self.stats.ads_admitted += 1;
        self.remove_machine(id);
        self.next_generation += 1;
        let gate = machine_gate(&ad);
        let compiled = CompiledAd::compile(&ad);
        self.ask(&compiled);
        self.index.insert(id, gate);
        self.machines.insert(
            id,
            MachineEntry {
                compiled,
                ad,
                fresh_at: now,
                generation: self.next_generation,
                gate,
                seq,
            },
        );
    }

    // Record what `machine` reads of a job. A name no machine has asked
    // for before can tell apart jobs that shared a shape, so every job is
    // keyed again; shapes only ever split.
    fn ask(&mut self, machine: &CompiledAd) {
        let known = self.asked.len();
        for name in machine.partner_reads() {
            if !self.asked.contains(name) {
                self.asked.insert(name.to_owned());
            }
        }
        if self.asked.len() > known {
            let mut jobs = std::mem::take(&mut self.jobs);
            for entry in jobs.values_mut() {
                entry.shape = self.shape_of(&entry.ad);
            }
            self.jobs = jobs;
        }
    }

    /// Insert or replace a job ad. An identical resubmission changes
    /// nothing; a changed ad keeps its shape (and the shape's cached
    /// verdicts) unless the change is one a machine could read.
    pub fn insert_job(&mut self, schedd: ActorId, job: u32, ad: impl Into<Arc<ClassAd>>) {
        self.store_job(schedd, job, ad.into(), 0);
    }

    /// A job ad off the wire, stamped by its schedd with `seq` (the job's
    /// claim epoch) and fenced like [`MatchEngine::machine_ad`]: the epoch
    /// moves when the schedd acts on the notification or declines it, so
    /// an ad that still carries the consumed one's epoch crossed the match.
    pub fn job_ad(&mut self, schedd: ActorId, job: u32, ad: Arc<ClassAd>, seq: u64) {
        if matches!(self.fenced_jobs.get(&(schedd, job)), Some(&consumed) if seq <= consumed) {
            return;
        }
        self.store_job(schedd, job, ad, seq);
    }

    fn store_job(&mut self, schedd: ActorId, job: u32, ad: Arc<ClassAd>, seq: u64) {
        if let Some(existing) = self.jobs.get_mut(&(schedd, job)) {
            if same_ad(&existing.ad, &ad) {
                existing.seq = seq;
                return;
            }
        }
        let shape = self.shape_of(&ad);
        self.jobs.insert((schedd, job), JobEntry { ad, shape, seq });
    }

    // The shape `ad` negotiates as, created on first sight.
    fn shape_of(&mut self, ad: &ClassAd) -> u64 {
        let key = CompiledAd::compile(ad).match_key(&self.asked);
        if let Some(&id) = self.shape_ids.get(&key) {
            return id;
        }
        self.next_generation += 1;
        self.shapes.insert(
            self.next_generation,
            Shape {
                compiled: key.ad().clone(),
                needs: job_needs(ad),
                rank_is_memory: rank_is_target_memory(ad),
            },
        );
        self.shape_ids.insert(key, self.next_generation);
        self.next_generation
    }

    /// Drop a machine ad (consumed or expired): it leaves every index
    /// bucket immediately — the index holds no state the pool has not
    /// recently asserted.
    pub fn remove_machine(&mut self, id: ActorId) {
        if let Some(e) = self.machines.remove(&id) {
            self.index.remove(id, e.gate);
        }
    }

    /// Drop a job ad.
    pub fn remove_job(&mut self, schedd: ActorId, job: u32) {
        self.jobs.remove(&(schedd, job));
    }

    /// Live machine ads.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Live job ads.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Run one negotiation cycle: expire stale machine ads, then greedily
    /// match jobs in (schedd, id) order, each taking its best-ranked
    /// compatible machine, rank ties broken by one uniform RNG draw per
    /// matched job. Returns `(schedd, job, machine)` notifications;
    /// consumed ads are already removed when this returns.
    pub fn negotiate(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<(ActorId, u32, ActorId)> {
        // Whatever the last cycle matched has had a whole period to say so.
        self.fenced_machines.clear();
        self.fenced_jobs.clear();

        // Expire stale machine ads — a crashed startd stops renewing its
        // lease and silently falls out of the pool.
        let expired: Vec<ActorId> = self
            .machines
            .iter()
            .filter(|(_, m)| now - m.fresh_at > AD_LIFETIME)
            .map(|(id, _)| *id)
            .collect();
        self.stats.ads_expired += expired.len() as u64;
        for id in expired {
            self.remove_machine(id);
        }

        self.stats.ads_active = (self.machines.len() + self.jobs.len()) as u64;

        let mut notifications: Vec<(ActorId, u32, ActorId)> = Vec::new();
        // This cycle's match list per shape: the machines the naive kernel
        // would draw the shape's next job from. The first job of a shape
        // evaluates it; a pick removes the machine from every list; a list
        // *emptied by picks* is dropped and evaluated again on demand (the
        // next rank tier), while a list *evaluated empty* stays — within a
        // cycle the machine set only shrinks.
        let mut lists: HashMap<u64, Vec<ActorId>> = HashMap::new();
        // Jobs of each shape not matched so far. When a job draws from
        // its shape's list every earlier job of the shape has too, so this
        // counts the jobs still to come: a list nobody is left to draw
        // from is dropped rather than kept up to date, and a queue of
        // one-job shapes costs what it did job by job.
        let mut queued: HashMap<u64, usize> = HashMap::new();
        for entry in self.jobs.values() {
            *queued.entry(entry.shape).or_default() += 1;
        }

        // Matched ads are consumed on the spot (the schedd re-advertises if
        // the claim falls through, the startd when it is free again), each
        // leaving its sequence number behind as a fence: a machine serves
        // at most one match per cycle, and later evaluations walk an index
        // it has already left.
        let mut jobs = std::mem::take(&mut self.jobs);
        jobs.retain(|&(schedd, job), entry| {
            let list = match lists.entry(entry.shape) {
                Entry::Occupied(live) => live.into_mut(),
                Entry::Vacant(unseen) => unseen.insert(self.match_list(entry.shape)),
            };
            if list.is_empty() {
                return true; // still queued
            }
            // "Ties must not always favour the same host, or a free
            // fast-failing machine becomes a deterministic magnet."
            let mid = list[rng.index(list.len())];
            self.fenced_machines.insert(mid, self.machines[&mid].seq);
            self.fenced_jobs.insert((schedd, job), entry.seq);
            self.remove_machine(mid);
            notifications.push((schedd, job, mid));
            let left = queued.get_mut(&entry.shape).expect("counted above");
            *left -= 1;
            if *left == 0 {
                lists.remove(&entry.shape);
            }
            lists.retain(|_, list| match list.binary_search(&mid) {
                Ok(at) => {
                    list.remove(at);
                    !list.is_empty()
                }
                Err(_) => true,
            });
            false
        });
        self.jobs = jobs;
        self.stats.matches_made += notifications.len() as u64;

        // A shape outlives the cycle iff one of its jobs stayed queued.
        // Cache entries go with their shape, or when their machine died or
        // changed generation, so the cache tracks the live pair set
        // instead of growing monotonically.
        self.shapes
            .retain(|id, _| queued.get(id).is_some_and(|&jobs| jobs > 0));
        let (shapes, machines) = (&self.shapes, &self.machines);
        self.shape_ids.retain(|_, id| shapes.contains_key(id));
        self.cache.retain(|&(shape, m), &mut (mg, _)| {
            shapes.contains_key(&shape) && machines.get(&m).is_some_and(|e| e.generation == mg)
        });

        notifications
    }

    // A shape's match list: all compatible machines at the highest rank
    // the shape assigns, ascending.
    //
    // Equivalence contract with the naive kernel: this list must equal the
    // naive scan's candidate list for any job of the shape, and the caller
    // makes exactly one `rng.index` draw iff it is non-empty.
    fn match_list(&mut self, shape_id: u64) -> Vec<ActorId> {
        let shape = &self.shapes[&shape_id];
        let (index, needs) = (&self.index, shape.needs);
        let mut candidates: Vec<ActorId> = Vec::new();
        let mut best_rank = f64::NEG_INFINITY;
        // Newly evaluated verdicts, as `(machine, machine generation,
        // verdict)`: admitted to the cache only if the list comes out
        // empty. A shape that found a machine is about to lose it (and,
        // usually, its jobs), so nothing cached for it would hit.
        let mut fresh: Vec<(ActorId, u64, Verdict)> = Vec::new();

        // The naive accumulation step, shared by every probe order: the
        // final candidate set is the argmax by rank regardless of the
        // order machines are considered in.
        let mut consider = |mid: ActorId, best_rank: &mut f64| {
            let m = &self.machines[&mid];
            let v = match self.cache.get(&(shape_id, mid)) {
                Some(&(mg, v)) if mg == m.generation => {
                    self.stats.cache_hits += 1;
                    v
                }
                _ => {
                    self.stats.pairs_evaluated += 1;
                    let r =
                        symmetric_match_compiled(&shape.compiled, &m.compiled, &mut self.scratch);
                    let v = Verdict {
                        matched: r.matched,
                        left_rank: r.left_rank,
                    };
                    fresh.push((mid, m.generation, v));
                    v
                }
            };
            if v.matched {
                if v.left_rank > *best_rank {
                    *best_rank = v.left_rank;
                    candidates.clear();
                }
                if v.left_rank == *best_rank {
                    candidates.push(mid);
                }
            }
        };

        // Machines whose rank contribution is unknowable from the index
        // are always evaluated.
        for &j in MatchIndex::classes(needs.requires_java) {
            for &mid in &index.opaque_mem[j] {
                consider(mid, &mut best_rank);
            }
            if needs.min_memory.is_none() {
                for &mid in &index.no_mem[j] {
                    consider(mid, &mut best_rank);
                }
            }
        }

        if shape.rank_is_memory {
            // Rank == TARGET.Memory and these machines carry literal
            // memory: a matched candidate's rank *is* its index key. Walk
            // memory tiers top-down, merging the java classes, and stop
            // once no remaining tier can reach the best rank already
            // found.
            let mut classes = [0, 1, 2].map(|j| index.known(j, needs).rev().peekable());
            while let Some(tier) = classes
                .iter_mut()
                .filter_map(|c| c.peek().map(|&&(mem, _)| mem))
                .max()
            {
                if (tier as f64) < best_rank {
                    break; // every remaining tier ranks strictly lower
                }
                for class in &mut classes {
                    while let Some(&(_, mid)) = class.next_if(|&&(mem, _)| mem == tier) {
                        consider(mid, &mut best_rank);
                    }
                }
            }
        } else {
            // Generic rank: evaluate every plausible machine.
            for j in 0..3 {
                for &(_, mid) in index.known(j, needs) {
                    consider(mid, &mut best_rank);
                }
            }
        }

        // The naive kernel builds its candidate list in ascending machine
        // order; restore that order so the caller's tie-break index
        // selects the same machine.
        candidates.sort_unstable();
        if candidates.is_empty() {
            self.cache.extend(
                fresh
                    .into_iter()
                    .map(|(mid, generation, v)| ((shape_id, mid), (generation, v))),
            );
        }
        candidates
    }
}

// ---------------------------------------------------------------------
// The actor
// ---------------------------------------------------------------------

/// The matchmaker actor: wraps a [`MatchEngine`] behind the pool's message
/// protocol.
pub struct Matchmaker {
    engine: MatchEngine,
    /// The pool this matchmaker serves; stamped on every match
    /// notification and flock grant. Defaults to 0 (the home pool).
    pool_id: u64,
    /// The fault plan, consulted for matchmaker-down windows (the
    /// matchmaker is an actor; [`FaultPlan::crash`] on its id silences
    /// it). `None` means never down.
    plan: Option<Arc<FaultPlan>>,
    /// Total matches produced.
    pub matches_made: u64,
    /// Negotiation cycles run.
    pub cycles: u64,
    /// Flock requests granted.
    pub flock_grants: u64,
}

impl Matchmaker {
    /// A new matchmaker.
    pub fn new() -> Matchmaker {
        Matchmaker {
            engine: MatchEngine::new(),
            pool_id: 0,
            plan: None,
            matches_made: 0,
            cycles: 0,
            flock_grants: 0,
        }
    }

    /// Serve pool `pool_id` instead of the default pool 0.
    pub fn with_pool(mut self, pool_id: u64) -> Matchmaker {
        self.pool_id = pool_id;
        self
    }

    /// Consult `plan` for crash windows scheduled against this
    /// matchmaker's actor id: while crashed, every inbound ad and flock
    /// request is dropped silently.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Matchmaker {
        self.plan = Some(plan);
        self
    }

    /// The engine's counters.
    pub fn stats(&self) -> &MatchmakerStats {
        &self.engine.stats
    }

    fn down(&self, self_id: ActorId, now: SimTime) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|p| p.crashed_at(self_id, now))
    }
}

impl Default for Matchmaker {
    fn default() -> Self {
        Matchmaker::new()
    }
}

impl Actor<Msg> for Matchmaker {
    fn name(&self) -> String {
        "matchmaker".into()
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.send_self_after(NEGOTIATE_PERIOD, Msg::NegotiateTick);
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        // A crashed matchmaker is silent: ads and flock requests vanish
        // into it, and negotiation halts until the window closes. The
        // timer keeps re-arming so it wakes up when the crash ends.
        if self.down(ctx.self_id, ctx.now) {
            if let Msg::NegotiateTick = msg {
                ctx.send_self_after(NEGOTIATE_PERIOD, Msg::NegotiateTick);
            }
            return;
        }
        match msg {
            Msg::MachineAd { ad, claims } => {
                self.engine.machine_ad(from, ad, claims, ctx.now);
            }
            Msg::JobAd { job, ad, epoch } => {
                self.engine.job_ad(from, job, ad, epoch);
            }
            Msg::FlockRequest { .. } => {
                // Grant with the current machine-ad count: zero is an
                // explicit saturation denial, never silence.
                self.flock_grants += 1;
                ctx.send_net(
                    from,
                    Msg::FlockGrant {
                        pool: self.pool_id,
                        free: self.engine.machine_count() as u64,
                    },
                );
            }
            Msg::NegotiateTick => {
                self.cycles += 1;
                self.engine.stats.cycles += 1;
                let t0 = std::time::Instant::now();
                let notifications = self.engine.negotiate(ctx.now, ctx.rng);
                self.engine
                    .stats
                    .cycle_us
                    .record(t0.elapsed().as_micros() as u64);
                for (schedd, job, machine) in notifications {
                    self.matches_made += 1;
                    ctx.emit(obs::Event::Match {
                        job: u64::from(job),
                        machine: machine as u64,
                    });
                    ctx.send_net(
                        schedd,
                        Msg::MatchNotify {
                            job,
                            machine,
                            pool: self.pool_id,
                        },
                    );
                }
                ctx.send_self_after(NEGOTIATE_PERIOD, Msg::NegotiateTick);
            }
            _ => {}
        }
    }
}

/// The reference negotiation kernel: a full O(jobs × machines) interpreted
/// scan per cycle, exactly as the matchmaker actor ran it before the
/// [`MatchEngine`] landed. Greedy in `(schedd, job)` order; each job
/// evaluates `symmetric_match` against every not-yet-taken machine, keeps
/// the argmax-by-rank candidates, and breaks ties with one uniform RNG
/// draw. The engine's differential tests and the `exp e9` / `exp e11`
/// gates hold [`MatchEngine::negotiate`] to bit-identical assignments
/// against this kernel on the same seed.
///
/// It is deliberately frozen: do not "optimize" it, it exists to stay
/// slow in exactly the way the old code was.
///
/// Returns the `(schedd, job, machine)` notifications plus the number of
/// ad pairs evaluated. Consumption (removing matched ads) is left to the
/// caller, as the actor's notification loop did it.
pub fn naive_negotiate(
    jobs: &BTreeMap<(ActorId, u32), ClassAd>,
    machines: &BTreeMap<ActorId, ClassAd>,
    rng: &mut SimRng,
) -> (Vec<(ActorId, u32, ActorId)>, u64) {
    use classads::matchmaking::symmetric_match;
    let mut pairs = 0u64;
    let mut taken: Vec<ActorId> = Vec::new();
    let mut notifications: Vec<(ActorId, u32, ActorId)> = Vec::new();
    for ((schedd, job), ad) in jobs {
        let mut best_rank = f64::NEG_INFINITY;
        let mut candidates: Vec<ActorId> = Vec::new();
        for (mid, m) in machines {
            if taken.contains(mid) {
                continue;
            }
            pairs += 1;
            let r = symmetric_match(ad, m);
            if !r.matched {
                continue;
            }
            if r.left_rank > best_rank {
                best_rank = r.left_rank;
                candidates.clear();
            }
            if r.left_rank == best_rank {
                candidates.push(*mid);
            }
        }
        if !candidates.is_empty() {
            let mid = candidates[rng.index(candidates.len())];
            taken.push(mid);
            notifications.push((*schedd, *job, mid));
        }
    }
    (notifications, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JavaMode, JobSpec};
    use crate::machine::MachineSpec;

    /// An actor that sends a fixed ad once at startup (so `from` is its own
    /// id, as with a real startd or schedd), optionally delayed.
    struct AdSender {
        mm: ActorId,
        ad: ClassAd,
        as_job: Option<u32>,
        delay: SimDuration,
        notified: Vec<(u32, usize)>,
    }

    impl AdSender {
        fn machine(mm: ActorId, ad: ClassAd) -> AdSender {
            AdSender {
                mm,
                ad,
                as_job: None,
                delay: SimDuration::ZERO,
                notified: vec![],
            }
        }
        fn job(mm: ActorId, job: u32, ad: ClassAd) -> AdSender {
            AdSender {
                mm,
                ad,
                as_job: Some(job),
                delay: SimDuration::ZERO,
                notified: vec![],
            }
        }
    }

    impl Actor<Msg> for AdSender {
        fn name(&self) -> String {
            "adsender".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let msg = match self.as_job {
                Some(job) => Msg::JobAd {
                    job,
                    ad: Arc::new(self.ad.clone()),
                    epoch: 0,
                },
                None => Msg::MachineAd {
                    ad: Arc::new(self.ad.clone()),
                    claims: 0,
                },
            };
            ctx.send_after(self.delay, self.mm, msg);
        }
        fn on_message(&mut self, _f: ActorId, msg: Msg, _c: &mut Context<'_, Msg>) {
            if let Msg::MatchNotify { job, machine, .. } = msg {
                self.notified.push((job, machine));
            }
        }
    }

    #[test]
    fn two_way_match_prefers_highest_rank() {
        let mut w: World<Msg> = World::new(2);
        let mm = w.add_actor(Box::new(Matchmaker::new()));
        let job = JobSpec::java(1, "ada", vec![], JavaMode::Scoped);
        let schedd = w.add_actor(Box::new(AdSender::job(mm, 1, job.ad())));
        let _small = w.add_actor(Box::new(AdSender::machine(
            mm,
            MachineSpec::healthy("small", 128).ad(true),
        )));
        let big = w.add_actor(Box::new(AdSender::machine(
            mm,
            MachineSpec::healthy("big", 512).ad(true),
        )));
        let _nojava = w.add_actor(Box::new(AdSender::machine(
            mm,
            MachineSpec::healthy("nojava", 1024).ad(false),
        )));
        w.run_until(SimTime::from_secs(15));
        assert_eq!(w.get::<Matchmaker>(mm).unwrap().matches_made, 1);
        // The big Java machine wins (ranked by memory); the bigger
        // machine without Java fails the job's requirements.
        assert_eq!(w.get::<AdSender>(schedd).unwrap().notified, vec![(1, big)]);
    }

    #[test]
    fn consumed_ads_are_not_rematched() {
        let mut w: World<Msg> = World::new(4);
        let mm = w.add_actor(Box::new(Matchmaker::new()));
        let j1 = JobSpec::java(1, "ada", vec![], JavaMode::Scoped);
        let j2 = JobSpec::java(2, "bob", vec![], JavaMode::Scoped);
        let s1 = w.add_actor(Box::new(AdSender::job(mm, 1, j1.ad())));
        let s2 = w.add_actor(Box::new(AdSender::job(mm, 2, j2.ad())));
        let m = w.add_actor(Box::new(AdSender::machine(
            mm,
            MachineSpec::healthy("only", 512).ad(true),
        )));
        w.run_until(SimTime::from_secs(60));
        // One machine, two jobs, ads never refreshed: exactly one match.
        assert_eq!(w.get::<Matchmaker>(mm).unwrap().matches_made, 1);
        let total = w.get::<AdSender>(s1).unwrap().notified.len()
            + w.get::<AdSender>(s2).unwrap().notified.len();
        assert_eq!(total, 1);
        let _ = m;
    }

    #[test]
    fn stale_machine_ads_expire() {
        let mut w: World<Msg> = World::new(3);
        let mm = w.add_actor(Box::new(Matchmaker::new()));
        let _m = w.add_actor(Box::new(AdSender::machine(
            mm,
            MachineSpec::healthy("m", 512).ad(true),
        )));
        // The job ad arrives long after the machine ad has gone stale.
        let mut late = AdSender::job(
            mm,
            1,
            JobSpec::java(1, "ada", vec![], JavaMode::Scoped).ad(),
        );
        late.delay = SimDuration::from_secs(60);
        let _s = w.add_actor(Box::new(late));
        w.run_until(SimTime::from_secs(120));
        assert_eq!(w.get::<Matchmaker>(mm).unwrap().matches_made, 0);
    }

    // -----------------------------------------------------------------
    // Engine-level tests
    // -----------------------------------------------------------------

    fn pool_machine(rng: &mut SimRng, quirky: bool) -> ClassAd {
        let mems = [64, 128, 128, 256, 512, 1024, 2048];
        let mut ad = ClassAd::new()
            .with_int("Memory", mems[rng.index(mems.len())])
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
            .with_expr("Rank", "0");
        if rng.chance(0.6) {
            ad.insert("HasJava", Value::Bool(true));
        }
        if quirky && rng.chance(0.3) {
            // Non-literal memory: lands in the opaque bucket.
            ad = ad.with_expr("Memory", "256 + Slack").with_int("Slack", 64);
        }
        if quirky && rng.chance(0.2) {
            ad.remove("Memory");
        }
        ad
    }

    fn pool_job(rng: &mut SimRng, quirky: bool) -> ClassAd {
        let sizes = [32, 96, 200, 400, 900];
        let mut ad = ClassAd::new()
            .with_int("ImageSize", sizes[rng.index(sizes.len())])
            .with_expr("Rank", "TARGET.Memory");
        let req = if rng.chance(0.5) {
            "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true"
        } else {
            "TARGET.Memory >= MY.ImageSize"
        };
        let ad2 = ad.with_expr("Requirements", req);
        ad = ad2;
        if quirky && rng.chance(0.3) {
            // Generic rank: forces the full-scan path.
            ad = ad.with_expr("Rank", "TARGET.Memory / 2 + 1");
        }
        if quirky && rng.chance(0.2) {
            // Unindexable requirements clause: pruning must stay sound.
            ad = ad.with_expr(
                "Requirements",
                "TARGET.Memory >= MY.ImageSize || TARGET.HasJava =?= true",
            );
        }
        ad
    }

    /// `(pairs_evaluated, cache_hits, matches_made)`.
    type Counters = (u64, u64, u64);

    /// Cumulative [`Counters`] after each of the six cycles of
    /// [`engine_is_bit_identical_to_naive_kernel`], per `(seed, quirky)`
    /// arm, recorded when negotiation moved from jobs to shapes. Against
    /// the per-job engine before it (commit bab636b) `matches_made` is
    /// the same in every cell and `pairs_evaluated` lower in every cell
    /// (arm totals 363 → 267, 1616 → 1535, 344 → 277, 801 → 659,
    /// 386 → 271, 996 → 905): 25 jobs drawn from a handful of templates
    /// share evaluations and match lists.
    const RECORDED_COUNTERS: [(u64, bool, [Counters; 6]); 6] = [
        (
            1,
            false,
            [
                (47, 0, 18),
                (97, 0, 37),
                (142, 0, 55),
                (185, 0, 73),
                (229, 0, 91),
                (267, 0, 109),
            ],
        ),
        (
            1,
            true,
            [
                (277, 0, 19),
                (519, 33, 37),
                (739, 69, 56),
                (1015, 103, 75),
                (1281, 146, 94),
                (1535, 189, 113),
            ],
        ),
        (
            7,
            false,
            [
                (45, 0, 21),
                (89, 0, 42),
                (137, 0, 63),
                (186, 0, 84),
                (226, 0, 105),
                (277, 0, 126),
            ],
        ),
        (
            7,
            true,
            [
                (118, 0, 17),
                (231, 21, 34),
                (343, 47, 50),
                (444, 73, 66),
                (555, 96, 83),
                (659, 120, 100),
            ],
        ),
        (
            42,
            false,
            [
                (50, 0, 18),
                (96, 0, 36),
                (141, 0, 54),
                (187, 0, 72),
                (225, 0, 90),
                (271, 0, 108),
            ],
        ),
        (
            42,
            true,
            [
                (159, 0, 16),
                (305, 27, 33),
                (455, 54, 50),
                (601, 82, 66),
                (766, 114, 83),
                (905, 147, 100),
            ],
        ),
    ];

    /// Multi-cycle differential test against the naive kernel: same ads,
    /// same seed, expiry + consumption + re-advertisement churn, indexable
    /// and quirky (opaque/generic/disjunctive) ads alike — and, cycle by
    /// cycle, the recorded work counters.
    #[test]
    fn engine_is_bit_identical_to_naive_kernel() {
        for (seed, quirky, recorded) in RECORDED_COUNTERS {
            let mut gen_rng = SimRng::seed_from_u64(seed);
            let mut rng_a = SimRng::seed_from_u64(seed ^ 0xabcd);
            let mut rng_b = SimRng::seed_from_u64(seed ^ 0xabcd);

            let mut engine = MatchEngine::new();
            let mut naive_jobs: BTreeMap<(ActorId, u32), ClassAd> = BTreeMap::new();
            let mut naive_machines: BTreeMap<ActorId, ClassAd> = BTreeMap::new();

            let machine_ads: Vec<ClassAd> = (0..40)
                .map(|_| pool_machine(&mut gen_rng, quirky))
                .collect();
            let job_ads: Vec<ClassAd> = (0..25).map(|_| pool_job(&mut gen_rng, quirky)).collect();

            let mut now = SimTime::ZERO;
            for (cycle, counters) in recorded.into_iter().enumerate() {
                now += NEGOTIATE_PERIOD;
                // Re-advertise everything still unmatched, plus
                // machines consumed earlier (startds re-advertise).
                for (i, ad) in machine_ads.iter().enumerate() {
                    // A rotating subset goes silent to exercise expiry.
                    if (i + cycle) % 9 == 0 {
                        continue;
                    }
                    engine.insert_machine(100 + i, ad.clone(), now);
                    naive_machines.insert(100 + i, ad.clone());
                }
                for (j, ad) in job_ads.iter().enumerate() {
                    engine.insert_job(1, j as u32, ad.clone());
                    naive_jobs.insert((1, j as u32), ad.clone());
                }

                let fast = engine.negotiate(now, &mut rng_a);
                // Naive expiry: the driver re-inserts every cycle, so
                // only the skipped machines can be stale; mirror the
                // engine by dropping machines absent for 3+ cycles.
                // (With re-insertion every cycle nothing ever expires;
                // consumption is the real churn.)
                let slow = naive_negotiate(&naive_jobs, &naive_machines, &mut rng_b).0;
                assert_eq!(fast, slow, "seed {seed} quirky {quirky} cycle {cycle}");
                let st = &engine.stats;
                assert_eq!(
                    (st.pairs_evaluated, st.cache_hits, st.matches_made),
                    counters,
                    "seed {seed} quirky {quirky} cycle {cycle}"
                );
                for &(s, j, m) in &slow {
                    naive_jobs.remove(&(s, j));
                    naive_machines.remove(&m);
                }
            }
        }
    }

    /// Shapes split on what a match can read, and on nothing else. Jobs
    /// differ in attributes nothing reads (`ClusterId`, `Owner`), in one
    /// only a *machine* reads (`ImageSize`), and in one reached only
    /// through the job's own references (`Requirements` → `MY.Need` →
    /// `MY.Base`). Mid-run a machine ad arrives that reads
    /// `TARGET.ClusterId`: the queued jobs must re-key into one shape each,
    /// and the naive kernel must agree before, at and after the split.
    #[test]
    fn shapes_split_on_what_a_match_can_read() {
        let mut gen_rng = SimRng::seed_from_u64(23);
        let mut rng_a = SimRng::seed_from_u64(23 ^ 0xabcd);
        let mut rng_b = SimRng::seed_from_u64(23 ^ 0xabcd);
        let machine_ads: Vec<ClassAd> =
            (0..10).map(|_| pool_machine(&mut gen_rng, false)).collect();
        let job_ads: Vec<ClassAd> = (0..40)
            .map(|j| {
                ClassAd::new()
                    .with_int("ClusterId", j)
                    .with_str("Owner", ["ada", "bob", "eve"][gen_rng.index(3)])
                    .with_int("ImageSize", [32, 200][gen_rng.index(2)])
                    .with_int("Base", [48, 300][gen_rng.index(2)])
                    .with_expr("Need", "MY.Base * 2")
                    .with_expr("Requirements", "TARGET.Memory >= MY.Need")
                    .with_expr("Rank", "TARGET.Memory")
            })
            .collect();
        let picky = ClassAd::new()
            .with_int("Memory", 4096)
            .with_expr(
                "Requirements",
                "TARGET.ClusterId % 3 == 0 && TARGET.ImageSize <= MY.Memory",
            )
            .with_expr("Rank", "0");

        let mut engine = MatchEngine::new();
        let mut naive_jobs: BTreeMap<(ActorId, u32), ClassAd> = job_ads
            .iter()
            .enumerate()
            .map(|(j, ad)| ((1, j as u32), ad.clone()))
            .collect();
        let mut naive_machines: BTreeMap<ActorId, ClassAd> = BTreeMap::new();
        let shapes_in_use = |engine: &MatchEngine| {
            let ids: BTreeSet<u64> = engine.jobs.values().map(|j| j.shape).collect();
            ids.len()
        };

        let mut now = SimTime::ZERO;
        for cycle in 0..4 {
            now += NEGOTIATE_PERIOD;
            for (i, ad) in machine_ads.iter().enumerate() {
                engine.insert_machine(100 + i, ad.clone(), now);
                naive_machines.insert(100 + i, ad.clone());
            }
            for (&(s, j), ad) in &naive_jobs {
                engine.insert_job(s, j, ad.clone());
            }
            if cycle == 0 {
                // 40 jobs, but only ImageSize x Base tells them apart.
                assert_eq!(shapes_in_use(&engine), 4);
            }
            if cycle >= 2 {
                let queued = engine.job_count();
                if cycle == 2 {
                    assert!(queued > 4 && shapes_in_use(&engine) <= 4);
                }
                engine.insert_machine(99, picky.clone(), now);
                naive_machines.insert(99, picky.clone());
                // `ClusterId` is readable now: no two queued jobs are alike.
                assert_eq!(shapes_in_use(&engine), queued);
            }

            let fast = engine.negotiate(now, &mut rng_a);
            let slow = naive_negotiate(&naive_jobs, &naive_machines, &mut rng_b).0;
            assert_eq!(fast, slow, "cycle {cycle}");
            assert!(!slow.is_empty(), "cycle {cycle} exercises nothing");
            if cycle >= 2 {
                // The picky machine took a job only it could tell apart.
                let taken = slow.iter().find(|&&(_, _, m)| m == 99).expect("99 matched");
                assert_eq!(taken.1 % 3, 0);
            }
            for &(s, j, m) in &slow {
                naive_jobs.remove(&(s, j));
                naive_machines.remove(&m);
            }
        }
        // Far fewer evaluations than the 40-job queue would need alone.
        assert!(
            engine.stats.pairs_evaluated < 40 * 10,
            "{} pairs",
            engine.stats.pairs_evaluated
        );
    }

    /// The cache's whole clientele: a cohort of jobs that can never match,
    /// probed every cycle while the machines under them churn.
    #[test]
    fn unmatched_cohort_keeps_its_verdicts_under_machine_churn() {
        let mut engine = MatchEngine::new();
        let mut rng = SimRng::seed_from_u64(11);
        let machine = |mem: i64| {
            Arc::new(
                ClassAd::new()
                    .with_int("Memory", mem)
                    .with_bool("HasJava", true)
                    .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
                    .with_expr("Rank", "0"),
            )
        };
        let mut machines: Vec<Arc<ClassAd>> = (0..4).map(|_| machine(256)).collect();
        // The `+ 0` defeats constraint extraction, so every pair is probed.
        let cohort: Vec<Arc<ClassAd>> = (1..=3)
            .map(|id| {
                Arc::new(
                    ClassAd::new()
                        .with_int("ClusterId", id)
                        .with_int("ImageSize", 4096)
                        .with_expr("Requirements", "TARGET.Memory + 0 >= MY.ImageSize")
                        .with_expr("Rank", "TARGET.Memory"),
                )
            })
            .collect();
        let mut now = SimTime::ZERO;
        // One cycle: every machine and cohort job re-advertises, then
        // negotiation; returns (pairs_evaluated, cache_hits) so far.
        let mut cycle = |engine: &mut MatchEngine, machines: &[Arc<ClassAd>]| {
            now += NEGOTIATE_PERIOD;
            for (i, ad) in machines.iter().enumerate() {
                engine.insert_machine(100 + i, Arc::clone(ad), now);
            }
            for (j, ad) in cohort.iter().enumerate() {
                engine.insert_job(1, 1 + j as u32, Arc::clone(ad));
            }
            let out = engine.negotiate(now, &mut rng);
            (out, engine.stats.pairs_evaluated, engine.stats.cache_hits)
        };

        // Cold: the three jobs differ only in `ClusterId`, which nothing
        // reads, so they are one shape and each machine is evaluated once.
        // Then the same allocations again: refreshed by pointer, every
        // pair a hit.
        assert_eq!(cycle(&mut engine, &machines), (vec![], 4, 0));
        assert_eq!(engine.shapes.len(), 1);
        assert_eq!(cycle(&mut engine, &machines), (vec![], 4, 4));

        // Same content in fresh allocations (deep-equal, not `ptr_eq`):
        // the generations — and the cached verdicts — survive.
        for ad in &mut machines {
            *ad = Arc::new(ClassAd::clone(ad));
        }
        assert_eq!(cycle(&mut engine, &machines), (vec![], 4, 8));

        // One machine changes its ad: exactly its pair is re-evaluated.
        machines[0] = machine(512);
        assert_eq!(cycle(&mut engine, &machines), (vec![], 5, 11));

        // A matchable job sorts ahead of the cohort and consumes the big
        // machine on the spot: its shape evaluates the top tier only, finds
        // a candidate and so is never admitted, and the cohort no longer
        // sees that machine.
        let taker = ClassAd::new()
            .with_int("ImageSize", 64)
            .with_expr("Requirements", "TARGET.Memory >= MY.ImageSize")
            .with_expr("Rank", "TARGET.Memory");
        engine.insert_job(1, 0, taker);
        assert_eq!(cycle(&mut engine, &machines), (vec![(1, 0, 100)], 6, 14));
        let cohort_shape = engine.jobs[&(1, 1)].shape;
        assert_eq!(engine.shapes.len(), 1);
        assert_eq!(engine.cache.len(), 3);
        assert!(engine
            .cache
            .keys()
            .all(|&(shape, mid)| shape == cohort_shape && mid != 100));

        // The consumed machine re-advertises the very same allocation, but
        // under a new generation: the cohort's pair with it misses.
        assert_eq!(cycle(&mut engine, &machines), (vec![], 7, 17));
        assert_eq!(engine.stats.matches_made, 1);
        assert_eq!(engine.cache.len(), 4);
    }

    #[test]
    fn identical_readvertisements_hit_the_cache() {
        let mut engine = MatchEngine::new();
        let mut rng = SimRng::seed_from_u64(5);
        let m_ad = ClassAd::new()
            .with_int("Memory", 256)
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
            .with_expr("Rank", "0");
        // The `+ 0` defeats constraint extraction, so the pair is probed —
        // and evaluated, then cached — every cycle despite never matching.
        let j_ad = ClassAd::new()
            .with_int("ImageSize", 4096) // never matches: stays queued
            .with_expr("Requirements", "TARGET.Memory + 0 >= MY.ImageSize")
            .with_expr("Rank", "TARGET.Memory");
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            now += NEGOTIATE_PERIOD;
            engine.insert_machine(10, m_ad.clone(), now);
            engine.insert_job(1, 1, j_ad.clone());
            let out = engine.negotiate(now, &mut rng);
            assert!(out.is_empty());
        }
        // First cycle evaluates the pair; the rest are cache hits.
        assert_eq!(engine.stats.pairs_evaluated, 1);
        assert_eq!(engine.stats.cache_hits, 3);

        // A changed ad bumps the generation and forces re-evaluation.
        engine.insert_machine(10, m_ad.clone().with_int("Memory", 8192), now);
        let out = engine.negotiate(now, &mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(engine.stats.pairs_evaluated, 2);
    }

    #[test]
    fn index_prunes_without_changing_results() {
        // A memory-bounded java job probes only plausible machines: the
        // pairs-evaluated counter must reflect real pruning.
        let mut engine = MatchEngine::new();
        let mut rng = SimRng::seed_from_u64(9);
        let now = SimTime::from_secs(10);
        for i in 0..20 {
            let mem = 64 * (1 + (i as i64 % 8));
            let mut ad = ClassAd::new()
                .with_int("Memory", mem)
                .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
                .with_expr("Rank", "0");
            if i % 2 == 0 {
                ad.insert("HasJava", Value::Bool(true));
            }
            engine.insert_machine(100 + i, ad, now);
        }
        let job = ClassAd::new()
            .with_int("ImageSize", 300)
            .with_expr(
                "Requirements",
                "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true",
            )
            .with_expr("Rank", "TARGET.Memory");
        engine.insert_job(1, 1, job);
        let out = engine.negotiate(now, &mut rng);
        assert_eq!(out.len(), 1);
        // 20 machines, but only java ones with Memory >= 300 are plausible,
        // and the rank descent stops at the top tier.
        assert!(
            engine.stats.pairs_evaluated < 6,
            "evaluated {} pairs",
            engine.stats.pairs_evaluated
        );
    }

    #[test]
    fn needs_extraction_is_conservative() {
        let java_job = ClassAd::new().with_int("ImageSize", 64).with_expr(
            "Requirements",
            "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true",
        );
        let needs = job_needs(&java_job);
        assert!(needs.requires_java);
        assert_eq!(needs.min_memory, Some(64));

        // Disjunctions must not prune: the || can rescue a failed branch.
        let either = ClassAd::new().with_expr(
            "Requirements",
            "TARGET.Memory >= 100 || TARGET.HasJava =?= true",
        );
        assert_eq!(job_needs(&either), JobNeeds::default());

        // A bare Memory reference counts as a target bound only when the
        // job ad itself does not define Memory.
        let bare = ClassAd::new().with_expr("Requirements", "Memory >= 128");
        assert_eq!(job_needs(&bare).min_memory, Some(128));
        let shadowed = ClassAd::new()
            .with_int("Memory", 999)
            .with_expr("Requirements", "Memory >= 128");
        assert_eq!(job_needs(&shadowed).min_memory, None);

        // Strict and flipped comparisons.
        let strict = ClassAd::new().with_expr("Requirements", "TARGET.Memory > 100");
        assert_eq!(job_needs(&strict).min_memory, Some(101));
        let flipped = ClassAd::new().with_expr("Requirements", "100 <= TARGET.Memory");
        assert_eq!(job_needs(&flipped).min_memory, Some(100));
        // Real-valued bounds round safely.
        let real = ClassAd::new().with_expr("Requirements", "TARGET.Memory >= 99.5");
        assert_eq!(job_needs(&real).min_memory, Some(100));
    }

    #[test]
    fn machine_gates_classify_literals_only() {
        let yes = ClassAd::new()
            .with_bool("HasJava", true)
            .with_int("Memory", 64);
        assert_eq!(
            machine_gate(&yes),
            MachineGate {
                java: JavaClass::Yes,
                mem: MemClass::Known(64)
            }
        );
        let none = ClassAd::new();
        assert_eq!(
            machine_gate(&none),
            MachineGate {
                java: JavaClass::No,
                mem: MemClass::Missing
            }
        );
        let weird = ClassAd::new()
            .with_expr("HasJava", "1 == 1 && SelfTest")
            .with_bool("SelfTest", true)
            .with_expr("Memory", "Base * 2")
            .with_int("Base", 128);
        let g = machine_gate(&weird);
        assert_eq!(g.java, JavaClass::Unknown);
        assert_eq!(g.mem, MemClass::Opaque);
    }
}
