//! The matchmaker daemon.
//!
//! "This process collects information about all participants, and notifies
//! schedds and startds of compatible partners. Matched processes are
//! individually responsible for communicating with each other and verifying
//! that their needs are met" (§2.1). The matchmaker holds soft state only,
//! kept by lease, and the lease is the same for both sides: an ad — a
//! machine's, or a job's — lives [`AD_LIFETIME`], its sender renews it
//! every [`KEEPALIVE_PERIOD`], half of that, and says at once when
//! something changes; one not renewed is gone at the first cycle (or
//! flock request) later than its lifetime. A match consumes both ads, and
//! until the next cycle starts an ad its sender put on the wire before it
//! could have heard of the match is *fenced* — dropped instead of matched
//! a second time. A lost notification therefore delays a job by up to
//! three negotiation cycles: at worst its renewal at the next 15-s instant
//! meets the fence, the one after arrives a hop past a cycle, and the
//! cycle after that matches it.
//!
//! Cycles run on a 10-s grid, but only while there is something for one to
//! do: the first job ad to arrive arms the grid's next instant, and the
//! timer stops after a cycle that leaves no job ad and no fence behind. A
//! pool of idle machines and no work costs its matchmaker nothing.
//!
//! # Negotiation at scale
//!
//! The naive kernel is O(jobs × machines) AST walks per cycle. The
//! [`MatchEngine`] keeps the same greedy, RNG-tie-broken semantics
//! bit-identical (gated against the frozen [`naive_negotiate`] by this
//! module's differential tests and in-process by `exp e9` / `exp e11`)
//! while negotiating *shape × shape*:
//!
//! * the unit of negotiation, on both sides, is the *shape* (HTCondor's
//!   autocluster): ads equal in everything a match evaluation can read —
//!   their own `Requirements` and `Rank`, every attribute any ad of the
//!   other side has ever asked for, and whatever those reach through the
//!   ad's own references ([`CompiledAd::match_key`]) — are evaluated as
//!   one, through the first of them. A newly asked name re-keys the side
//!   it is asked of, and shapes only ever split;
//! * a verdict is per (job shape, machine shape), evaluated once and kept
//!   while both shapes live: a job shape while one of its jobs is queued,
//!   a machine shape while it has a member;
//! * jobs alike in everything their `Rank` can read of them
//!   ([`CompiledAd::rank_key`]) — whatever their `Requirements` — are one
//!   *ranking*: it ranks each machine shape once and keeps them in that
//!   order, best first;
//! * a job shape's match list is the union of the member sets of the
//!   best-ranked machine shapes that match it, in ascending machine order
//!   — the list the naive kernel draws from. It is found by walking the
//!   shape's ranking from the top and stopping at the first rank that
//!   holds a match: what ranks lower is never evaluated against the job
//!   shape at all. Later jobs of the shape draw from the list minus the
//!   machines picked since;
//! * an ad [chained](ClassAd::chained) to a parent whose children the
//!   engine has already placed joins its shape by comparing the few
//!   attributes of its own that an evaluation can read, compiling
//!   nothing: a pool of machines configured alike, or a cluster of jobs
//!   alike in all but `ClusterId`, costs two compilations (the second
//!   learns that the shape is met twice), not one each. A job ad with a
//!   `Requirements` of its own — what a schedd sends while it avoids a
//!   machine — holds an expression within reach, and is compiled.
//!
//! Shapes by evaluation subsume what stood here before. The match index
//! bucketed machines by literal `HasJava` and sorted literal `Memory`
//! behind three pattern lists that recognised `TARGET.HasJava =?= true`
//! and `TARGET.Memory >= k` in a job's `Requirements`: machines differing
//! in either are now different shapes, for any `Requirements`. The tier
//! descent walked that index top-down for jobs whose `Rank` was
//! recognisably `TARGET.Memory`: the walk down a ranking is that descent
//! for any `Rank`, over shapes instead of machines. The generation-keyed
//! (shape, machine) verdict cache, admitted only when a list came out
//! empty, served the cohort that never matches: one verdict per shape
//! pair does that and the rest.
//!
//! Ads arrive as `Arc<ClassAd>`: a daemon builds its ad once and
//! re-advertises the same allocation, so the common refresh is a pointer
//! comparison (equality by content is the fallback for a same-content ad
//! in a different allocation).
//!
//! Machines are filed by actor id in a slot table, not an ordered map: the
//! renewal each machine sends every [`KEEPALIVE_PERIOD`] is nearly every
//! event of an idle federation, and a pool's machines are a contiguous
//! range of ids, so a slot per id from the lowest to the highest is dense
//! and a renewal is one indexed load instead of a search over thousands of
//! machines. A machine's fence lives in its slot, stamped with the cycle
//! that raised it: the next cycle lowers every fence by moving the cycle
//! counter on. Expiry walks the slots in id order.
//!
//! Shape membership holds the paper's soft-state bargain: an expired ad
//! leaves its shape, and a consumed ad leaves it the moment it is picked,
//! so later jobs in the same cycle never see it.

use crate::msg::{JobAdvert, Msg};
use classads::ast::{AttrScope, Expr};
use classads::compile::{CompiledAd, MatchKey, Scratch};
use classads::ClassAd;
use classads::Value;
use desim::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// How often the matchmaker runs a negotiation cycle.
pub const NEGOTIATE_PERIOD: SimDuration = SimDuration::from_secs(10);
/// The lease on an ad, a machine's or a job's: one not renewed for longer
/// than this is discarded at the next cycle (its sender renews it every
/// [`KEEPALIVE_PERIOD`], half of this).
pub const AD_LIFETIME: SimDuration = SimDuration::from_secs(30);
/// How often a free startd, or a schedd with idle jobs, renews its ads'
/// lease: half the ad's lifetime, so one lost keep-alive is survived and a
/// second expires the ad. Everything else the matchmaker hears is a change
/// — a machine advertises the instant it becomes free, a job the instant
/// it becomes idle.
pub const KEEPALIVE_PERIOD: SimDuration = SimDuration::from_micros(AD_LIFETIME.as_micros() / 2);

/// How long from `now` to the next multiple of `period`, strictly later:
/// a timer that is armed only while there is work keeps to the grid it
/// would have ticked on had it never stopped.
pub(crate) fn until_next(period: SimDuration, now: SimTime) -> SimDuration {
    let into = now.as_micros() % period.as_micros();
    SimDuration::from_micros(period.as_micros() - into)
}

/// Counters the matchmaker accumulates, projected into registries as
/// `mm_*` metrics.
#[derive(Debug, Clone, Default)]
pub struct MatchmakerStats {
    /// Shape pairs evaluated: a machine shape ranked for a ranking of
    /// jobs, or matched against a job shape.
    pub pairs_evaluated: u64,
    /// (Job shape, machine shape) verdicts reused from an earlier
    /// evaluation.
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
    /// Machine ads admitted as new entries: first sight, changed content,
    /// or back after being consumed or expired.
    pub ads_admitted: u64,
    /// Machine ads whose lease ran out.
    pub ads_expired: u64,
    /// Machine ads dropped at the fence: sent before their machine could
    /// have heard of the match that consumed its previous ad.
    pub ads_fenced: u64,
    /// Ads compiled and keyed, a machine's or a job's: every ad that is
    /// not the child of a parent whose children of its kind are known —
    /// on arrival, and again whenever its side is asked a new name.
    pub ads_compiled: u64,
    /// Wall-clock microseconds per negotiation cycle. **Nondeterministic**:
    /// kept out of [`MatchmakerStats::register_into`] so registry snapshots
    /// stay bit-identical across same-seed runs.
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
        reg.counter_add("mm_ads_compiled", &[], self.ads_compiled);
    }
}

// ---------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------

/// One side of the negotiation — the jobs or the machines — as the shapes
/// its ads fall into. A shape's id is drawn when it is first seen and
/// never reused.
#[derive(Default)]
struct Side {
    // Every (lower-cased) name an ad of the *other* side has ever read of
    // its match partner: what an ad of this side can be told apart by,
    // beyond its own `Requirements` and `Rank`. Grow-only — a name stays
    // asked after the ad that asked it is gone, which can only keep
    // shapes finer than they need to be.
    asked: BTreeSet<String>,
    // The id of each live key. Lookup-only, so a HashMap cannot leak
    // nondeterminism.
    ids: HashMap<Arc<MatchKey>, u64>,
    // Live shapes by id: the key all the shape's ads share. Evaluating
    // its ad is value-identical to evaluating any of them, so a verdict
    // is a function of the two shapes and nothing else. (Let go of after
    // `ids`, here and below: the keys are then freed in the order they
    // were cut, not in hash order.)
    shapes: BTreeMap<u64, Arc<MatchKey>>,
    // The parents whose children have been placed, by the parent's
    // address. Lookup-only.
    families: HashMap<usize, Family>,
}

impl Side {
    // Record `names`, which an ad of the other side reads of this one.
    // True if one of them is a name nobody had asked: ads that shared a
    // shape may now be told apart, and a key cut under fewer names may
    // hold, unkept, the very attribute now asked for — so the shapes are
    // forgotten, and this side must be keyed again.
    fn ask<'a>(&mut self, names: impl Iterator<Item = &'a str>) -> bool {
        let known = self.asked.len();
        for name in names {
            if !self.asked.contains(name) {
                self.asked.insert(name.to_owned());
            }
        }
        let grew = self.asked.len() > known;
        if grew {
            self.forget();
        }
        grew
    }

    // What the families remember was learnt under the names asked then.
    fn forget(&mut self) {
        self.ids.clear();
        self.shapes.clear();
        self.families.clear();
    }

    // The shape of the ads `key` was cut from — created, under the next
    // id, on first sight — and whether it was there already.
    fn shape_of(&mut self, key: MatchKey, next_id: &mut u64) -> (u64, bool) {
        match self.ids.entry(Arc::new(key)) {
            Entry::Occupied(met) => (*met.get(), true),
            Entry::Vacant(new) => {
                *next_id += 1;
                self.shapes.insert(*next_id, Arc::clone(new.key()));
                (*new.insert(*next_id), false)
            }
        }
    }

    // A family lives while it leads to a live shape.
    fn retain(&mut self, live: impl Fn(u64) -> bool) {
        self.ids.retain(|_, id| live(*id));
        self.shapes.retain(|&id, _| live(id));
        let shapes = &self.shapes;
        self.families.retain(|_, family| {
            family.kinds.retain(|(_, id)| shapes.contains_key(id));
            !family.kinds.is_empty()
        });
    }

    // The shape `ad` negotiates as, where its family knows the way: by
    // comparing literals, with nothing compiled, keyed or allocated.
    fn known_shape(&self, ad: &ClassAd) -> Option<u64> {
        let family = self.families.get(&address(ad.parent()?))?;
        family.shape_of(ad, &self.asked)
    }

    // `ad`, just compiled and keyed, turned out to be of a `shape` met
    // before: if it is a child all of whose attributes within reach are
    // plain literals, the next one like it need not be compiled. Only a
    // shape met twice is worth the shortcut: where every ad is its own
    // shape (a partner reads `MachineId`, or `ClusterId`), nothing is
    // remembered and nothing is scanned.
    fn remember(&mut self, ad: &Arc<ClassAd>, shape: u64) {
        let Some(parent) = ad.parent() else {
            return;
        };
        let family = self.families.entry(address(parent));
        let family = family.or_insert_with(|| Family::of(parent));
        if family
            .within_reach(ad, &self.asked)
            .all(|(_, v)| v.is_some())
        {
            family.kinds.push((Arc::clone(ad), shape));
        }
    }
}

/// The children of one parent ad that the engine has placed: how a
/// [chained](ClassAd::chained) ad — a machine's, or a job's — finds its
/// shape without being compiled. Two children of one parent can differ, to a match evaluation,
/// only in attributes of their own that the evaluation can reach; when
/// those are all plain literals, equal literals mean equal shapes.
struct Family {
    // Never read: held so that the allocation, and with it the address the
    // family is known by, cannot be reused while the family lives.
    _parent: Arc<ClassAd>,
    // The names by which a child's own attribute can enter an evaluation
    // without a partner asking for it: as a root (`Requirements`, `Rank`),
    // by shadowing one of the parent's, or through a reference in one of
    // the parent's expressions.
    reads: BTreeSet<String>,
    // A child of each kind met so far — all it holds within reach is plain
    // literals — with the shape it, and any child like it, negotiates as.
    kinds: Vec<(Arc<ClassAd>, u64)>,
}

impl Family {
    fn of(parent: &Arc<ClassAd>) -> Family {
        let mut reads = BTreeSet::from(["requirements".to_owned(), "rank".to_owned()]);
        for (name, expr) in parent.own() {
            reads.insert(name.to_owned());
            expr.for_each_reference(&mut |scope, name| {
                if scope != AttrScope::Target {
                    reads.insert(name.to_owned());
                }
            });
        }
        Family {
            _parent: Arc::clone(parent),
            reads,
            kinds: Vec::new(),
        }
    }

    // The attributes of its own that an evaluation can reach in `child`,
    // which partners ask `asked` of: `None` for one that is not a plain
    // literal (it may refer on, so the child must be compiled to tell).
    // Reals are not plain: `0.0` and `-0.0` are equal and divide apart.
    fn within_reach<'a>(
        &'a self,
        child: &'a ClassAd,
        asked: &'a BTreeSet<String>,
    ) -> impl Iterator<Item = (&'a str, Option<&'a Value>)> {
        let reached =
            move |(name, _): &(&str, &Expr)| self.reads.contains(*name) || asked.contains(*name);
        child.own().filter(reached).map(|(name, expr)| match expr {
            Expr::Lit(v) if !matches!(v, Value::Real(_)) => (name, Some(v)),
            _ => (name, None),
        })
    }

    // The shape `child` negotiates as, if one of its kind was met before.
    fn shape_of(&self, child: &ClassAd, asked: &BTreeSet<String>) -> Option<u64> {
        let alike = |kin| {
            self.within_reach(child, asked)
                .eq(self.within_reach(kin, asked))
        };
        let known = self.kinds.iter().find(|(kin, _)| alike(kin));
        known.map(|&(_, shape)| shape)
    }
}

// The address a family is known by.
fn address(parent: &Arc<ClassAd>) -> usize {
    Arc::as_ptr(parent) as usize
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// The machines as the jobs of one ranking see them.
#[derive(Default)]
struct Ranked {
    // Every machine shape up to this id (ids are drawn in ascending
    // order) is in `order`.
    upto: u64,
    // (the rank the ranking's jobs give it, machine shape), best first.
    order: Vec<(f64, u64)>,
}

/// A machine on offer: its ad, the shape it negotiates as, when its lease
/// was last renewed, and the sequence number the ad last arrived with.
struct MachineEntry {
    ad: Arc<ClassAd>,
    shape: u64,
    fresh_at: SimTime,
    seq: u64,
}

/// A machine's place in the [`MachineTable`]: its entry while it has an ad
/// on offer, and the fence its last consumed ad left behind — up while the
/// cycle that raised it is the engine's current one.
#[derive(Default)]
struct Slot {
    entry: Option<MachineEntry>,
    fenced_in: u64,
    fence_seq: u64,
}

/// The machines, filed by actor id: one slot per id from `base` to the
/// highest id seen. A pool's machines are a contiguous range of ids, so
/// the table is dense, and a renewal, a fence check and an admission are
/// each one indexed load. It grows upward as a vector does, and downward
/// by at least its own length (never below id 0), so ids arriving in
/// descending order cost amortized constant time too. Walked in id order.
#[derive(Default)]
struct MachineTable {
    base: ActorId,
    slots: Vec<Slot>,
    // Slots holding an entry.
    len: usize,
}

impl MachineTable {
    fn slot(&self, id: ActorId) -> Option<&Slot> {
        self.slots.get(id.checked_sub(self.base)?)
    }

    fn slot_mut(&mut self, id: ActorId) -> Option<&mut Slot> {
        self.slots.get_mut(id.checked_sub(self.base)?)
    }

    #[cfg(test)]
    fn get(&self, id: ActorId) -> Option<&MachineEntry> {
        self.slot(id)?.entry.as_ref()
    }

    fn get_mut(&mut self, id: ActorId) -> Option<&mut MachineEntry> {
        self.slot_mut(id)?.entry.as_mut()
    }

    // The slot of `id`, the table grown to hold it.
    fn grow_to(&mut self, id: ActorId) -> &mut Slot {
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            let below = (self.base - id).max(self.slots.len()).min(self.base);
            let mut slots = Vec::with_capacity(below + self.slots.len());
            slots.resize_with(below, Slot::default);
            slots.append(&mut self.slots);
            self.slots = slots;
            self.base -= below;
        }
        let at = id - self.base;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, Slot::default);
        }
        &mut self.slots[at]
    }

    fn insert(&mut self, id: ActorId, entry: MachineEntry) {
        if self.grow_to(id).entry.replace(entry).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, id: ActorId) -> Option<MachineEntry> {
        let entry = self.slot_mut(id)?.entry.take()?;
        self.len -= 1;
        Some(entry)
    }

    // Take `id`'s entry out, fencing its slot in `cycle` against the
    // entry's sequence number.
    fn consume(&mut self, id: ActorId, cycle: u64) -> Option<MachineEntry> {
        let slot = self.slot_mut(id)?;
        let entry = slot.entry.take()?;
        (slot.fenced_in, slot.fence_seq) = (cycle, entry.seq);
        self.len -= 1;
        Some(entry)
    }

    // Take out, in id order, every entry `lapsed` holds for, handing each
    // to `gone`.
    fn remove_where(
        &mut self,
        lapsed: impl Fn(&MachineEntry) -> bool,
        mut gone: impl FnMut(ActorId, MachineEntry),
    ) {
        for (at, slot) in self.slots.iter_mut().enumerate() {
            if let Some(entry) = slot.entry.take_if(|entry| lapsed(entry)) {
                self.len -= 1;
                gone(self.base + at, entry);
            }
        }
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (ActorId, &MachineEntry)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(at, slot)| Some((self.base + at, slot.entry.as_ref()?)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (ActorId, &mut MachineEntry)> {
        let (base, slots) = (self.base, self.slots.iter_mut().enumerate());
        slots.filter_map(move |(at, slot)| Some((base + at, slot.entry.as_mut()?)))
    }
}

/// A queued job: the same of its ad. One stored by
/// [`MatchEngine::insert_job`], which knows no clock, carries no lease
/// (`fresh_at` is [`SimTime::MAX`]).
struct JobEntry {
    ad: Arc<ClassAd>,
    shape: u64,
    fresh_at: SimTime,
    seq: u64,
}

/// Is `new` the ad already stored as `old`? The usual re-advertisement is
/// the same allocation; a same-content ad in another one still counts.
fn same_ad(old: &Arc<ClassAd>, new: &Arc<ClassAd>) -> bool {
    Arc::ptr_eq(old, new) || old == new
}

/// The negotiation engine: ad storage, the shapes of both sides and the
/// verdicts between them. Drivable directly (as the scale benchmarks do)
/// or through the [`Matchmaker`] actor.
///
/// Matching semantics — including which machine wins each job, and the
/// single RNG tie-break draw per matched job — are bit-identical to the
/// naive O(jobs × machines) kernel preserved as [`naive_negotiate`].
#[derive(Default)]
pub struct MatchEngine {
    machines: MachineTable,
    // Keyed by (schedd, job) so several schedds can coexist.
    jobs: BTreeMap<(ActorId, u32), JobEntry>,
    job_shapes: Side,
    machine_shapes: Side,
    // The jobs once more, by what their `Rank` alone can read of them
    // ([`CompiledAd::rank_key`]): jobs of one *ranking* give every machine
    // shape the same rank, whatever their `Requirements`. Asked of it are
    // the names a machine's attributes — not its policy — read of a job.
    rankings: Side,
    // The ranking of each live job shape. Lookup-only.
    ranking_of: HashMap<u64, u64>,
    // The machines on offer, by machine shape.
    members: BTreeSet<(u64, ActorId)>,
    // By ranking. Lookup-only.
    ranked: HashMap<u64, Ranked>,
    // (job shape, machine shape) -> whether they match. Lookup-only.
    verdicts: HashMap<(u64, u64), bool>,
    // A side was asked a new name and is due to be keyed again.
    jobs_stale: bool,
    machines_stale: bool,
    // The fences: the sequence number of every ad the last cycle consumed,
    // forgotten when the next one starts. Only [`MatchEngine::machine_ad`]
    // and [`MatchEngine::job_ad`] consult them. A machine's is in its slot,
    // stamped with `cycle`, which the next cycle moves on, lowering them
    // all; `fences_up` counts those the current cycle raised.
    cycle: u64,
    fences_up: usize,
    fenced_jobs: BTreeMap<(ActorId, u32), u64>,
    next_shape: u64,
    scratch: Scratch,
    /// Counters.
    pub stats: MatchmakerStats,
}

impl MatchEngine {
    /// An empty engine.
    pub fn new() -> MatchEngine {
        MatchEngine::default()
    }

    /// Insert or refresh a machine ad. An ad identical to the stored one
    /// only refreshes the expiry clock.
    pub fn insert_machine(&mut self, id: ActorId, ad: impl Into<Arc<ClassAd>>, now: SimTime) {
        self.store_machine(id, ad.into(), 0, now);
    }

    /// A machine ad off the wire, stamped by its startd with `seq` (its
    /// count of claims accepted). If this cycle consumed the machine's ad,
    /// only one that postdates it gets in: a startd that has accepted no
    /// claim since cannot have seen the match, and its ad would be matched
    /// again while the first match's claim is still on its way.
    pub fn machine_ad(&mut self, id: ActorId, ad: Arc<ClassAd>, seq: u64, now: SimTime) {
        // With no fence up there is nothing to look up (and a slot never
        // fenced reads cycle 0, the engine's own before its first cycle).
        let fenced = |slot: &Slot| slot.fenced_in == self.cycle && seq <= slot.fence_seq;
        if self.fences_up > 0 && self.machines.slot(id).is_some_and(fenced) {
            self.stats.ads_fenced += 1;
            return;
        }
        self.store_machine(id, ad, seq, now);
    }

    fn store_machine(&mut self, id: ActorId, ad: Arc<ClassAd>, seq: u64, now: SimTime) {
        if let Some(existing) = self.machines.get_mut(id) {
            if same_ad(&existing.ad, &ad) {
                existing.fresh_at = now;
                existing.seq = seq;
                self.stats.ads_refreshed += 1;
                return;
            }
        }
        self.stats.ads_admitted += 1;
        self.remove_machine(id);
        let (shape, fresh_at) = (self.machine_shape_of(&ad), now);
        self.members.insert((shape, id));
        let entry = MachineEntry {
            ad,
            shape,
            fresh_at,
            seq,
        };
        self.machines.insert(id, entry);
        self.settle();
    }

    /// Insert or replace a job ad, to stay until it is matched or
    /// removed. An identical resubmission changes nothing; a changed ad
    /// keeps its shape (and the shape's verdicts) unless the change is one
    /// a machine could read.
    pub fn insert_job(&mut self, schedd: ActorId, job: u32, ad: impl Into<Arc<ClassAd>>) {
        self.store_job(schedd, job, ad.into(), 0, SimTime::MAX);
    }

    /// A job ad off the wire, stamped by its schedd with `seq` (the job's
    /// claim epoch) and fenced like [`MatchEngine::machine_ad`]: the epoch
    /// moves when the schedd acts on the notification or declines it, so
    /// an ad that still carries the consumed one's epoch crossed the match.
    /// One that gets in holds its lease from `now`, as a machine ad does.
    pub fn job_ad(&mut self, schedd: ActorId, job: u32, ad: Arc<ClassAd>, seq: u64, now: SimTime) {
        if matches!(self.fenced_jobs.get(&(schedd, job)), Some(&consumed) if seq <= consumed) {
            return;
        }
        self.store_job(schedd, job, ad, seq, now);
    }

    fn store_job(
        &mut self,
        schedd: ActorId,
        job: u32,
        ad: Arc<ClassAd>,
        seq: u64,
        fresh_at: SimTime,
    ) {
        if let Some(existing) = self.jobs.get_mut(&(schedd, job)) {
            if same_ad(&existing.ad, &ad) {
                existing.fresh_at = fresh_at;
                existing.seq = seq;
                return;
            }
        }
        let shape = self.job_shape_of(&ad);
        let entry = JobEntry {
            ad,
            shape,
            fresh_at,
            seq,
        };
        self.jobs.insert((schedd, job), entry);
        self.settle();
    }

    // The shape a job ad negotiates as: where its family knows the way,
    // by comparing literals; otherwise compiled and keyed, what it reads
    // of a machine asked of the machines.
    fn job_shape_of(&mut self, ad: &Arc<ClassAd>) -> u64 {
        if let Some(shape) = self.job_shapes.known_shape(ad) {
            return shape;
        }
        self.stats.ads_compiled += 1;
        let compiled = Arc::new(CompiledAd::compile(ad));
        self.machines_stale |= self.machine_shapes.ask(compiled.partner_reads());
        let key = compiled.match_key(&self.job_shapes.asked);
        let (shape, met) = self.job_shapes.shape_of(key, &mut self.next_shape);
        if met {
            self.job_shapes.remember(ad, shape);
        } else {
            let key = compiled.rank_key(&self.rankings.asked);
            let (ranking, _) = self.rankings.shape_of(key, &mut self.next_shape);
            self.ranking_of.insert(shape, ranking);
        }
        shape
    }

    // The shape a machine ad negotiates as, found as a job's is, what it
    // reads of a job asked of the jobs.
    fn machine_shape_of(&mut self, ad: &Arc<ClassAd>) -> u64 {
        if let Some(shape) = self.machine_shapes.known_shape(ad) {
            return shape;
        }
        self.stats.ads_compiled += 1;
        let compiled = Arc::new(CompiledAd::compile(ad));
        self.jobs_stale |= self.job_shapes.ask(compiled.partner_reads());
        let back = compiled.reads_back(&self.machine_shapes.asked);
        if self.rankings.ask(back) {
            // A job shape is known with its ranking, so is due one again.
            self.job_shapes.forget();
            self.jobs_stale = true;
        }
        let key = compiled.match_key(&self.machine_shapes.asked);
        let (shape, met) = self.machine_shapes.shape_of(key, &mut self.next_shape);
        if met {
            self.machine_shapes.remember(ad, shape);
        }
        shape
    }

    // Key a side again after it was asked a new name, until neither side
    // asks the other anything new (the asked sets only grow, and only by
    // names the stored ads hold).
    fn settle(&mut self) {
        while self.jobs_stale || self.machines_stale {
            if std::mem::take(&mut self.jobs_stale) {
                let mut jobs = std::mem::take(&mut self.jobs);
                for entry in jobs.values_mut() {
                    entry.shape = self.job_shape_of(&entry.ad);
                }
                self.jobs = jobs;
            }
            if std::mem::take(&mut self.machines_stale) {
                self.members.clear();
                let mut machines = std::mem::take(&mut self.machines);
                for (id, entry) in machines.iter_mut() {
                    entry.shape = self.machine_shape_of(&entry.ad);
                    self.members.insert((entry.shape, id));
                }
                self.machines = machines;
            }
        }
    }

    /// Drop a machine ad (consumed or expired): it leaves its shape
    /// immediately — the engine holds no state the pool has not recently
    /// asserted.
    pub fn remove_machine(&mut self, id: ActorId) {
        if let Some(e) = self.machines.remove(id) {
            self.members.remove(&(e.shape, id));
        }
    }

    /// Drop a job ad.
    pub fn remove_job(&mut self, schedd: ActorId, job: u32) {
        self.jobs.remove(&(schedd, job));
    }

    /// Live machine ads.
    pub fn machine_count(&self) -> usize {
        self.machines.len
    }

    /// Live job ads.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Let go of every ad whose lease has run out: a crashed startd stops
    /// renewing its ad and silently falls out of the pool, and so does the
    /// ad of a job its schedd no longer offers here.
    pub fn expire(&mut self, now: SimTime) {
        let lapsed = |fresh_at: SimTime| now - fresh_at > AD_LIFETIME;
        let (members, expired) = (&mut self.members, &mut self.stats.ads_expired);
        let gone = |id, m: MachineEntry| {
            members.remove(&(m.shape, id));
            *expired += 1;
        };
        self.machines.remove_where(|m| lapsed(m.fresh_at), gone);
        self.jobs.retain(|_, job| !lapsed(job.fresh_at));
    }

    /// Has the engine nothing to negotiate and no fence up: would a cycle
    /// change nothing?
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty() && self.fenced_jobs.is_empty() && self.fences_up == 0
    }

    /// Run one negotiation cycle: expire stale ads, then greedily
    /// match jobs in (schedd, id) order, each taking its best-ranked
    /// compatible machine, rank ties broken by one uniform RNG draw per
    /// matched job. Returns `(schedd, job, machine)` notifications;
    /// consumed ads are already removed when this returns.
    pub fn negotiate(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<(ActorId, u32, ActorId)> {
        // Whatever the last cycle matched has had a whole period to say so.
        self.cycle += 1;
        self.fences_up = 0;
        self.fenced_jobs.clear();

        self.expire(now);
        self.stats.ads_active = (self.machines.len + self.jobs.len()) as u64;

        let mut notifications: Vec<(ActorId, u32, ActorId)> = Vec::new();
        // This cycle's match list per job shape: the machines the naive
        // kernel would draw the shape's next job from. The first job of a
        // shape evaluates it; a pick removes the machine from every list;
        // a list *emptied by picks* is dropped and evaluated again on
        // demand (the next rank tier), while a list *evaluated empty*
        // stays — within a cycle the machine set only shrinks.
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
        // at most one match per cycle, and later evaluations find its
        // shape without it.
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
            let consumed = self
                .machines
                .consume(mid, self.cycle)
                .expect("a listed machine");
            self.members.remove(&(consumed.shape, mid));
            self.fences_up += 1;
            self.fenced_jobs.insert((schedd, job), entry.seq);
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

        // A job shape outlives the cycle iff one of its jobs stayed
        // queued, a ranking while a job shape has it, a machine shape iff
        // it still has a member, and a rank or a verdict while both its
        // shapes live — so none of them grows monotonically.
        self.job_shapes
            .retain(|id| queued.get(&id).is_some_and(|&jobs| jobs > 0));
        let jobs = &self.job_shapes.shapes;
        self.ranking_of.retain(|job, _| jobs.contains_key(job));
        let rankings: BTreeSet<u64> = self.ranking_of.values().copied().collect();
        self.rankings.retain(|id| rankings.contains(&id));
        let members = &self.members;
        self.machine_shapes
            .retain(|id| members_of(members, id).next().is_some());
        let machines = &self.machine_shapes.shapes;
        self.ranked.retain(|ranking, ranked| {
            ranked.order.retain(|(_, id)| machines.contains_key(id));
            rankings.contains(ranking)
        });
        self.verdicts
            .retain(|(job, machine), _| jobs.contains_key(job) && machines.contains_key(machine));

        notifications
    }

    // A job shape's match list: the members of every machine shape that
    // matches it at the highest rank it assigns, ascending. The shape's
    // ranking orders the machine shapes, best first; the walk down stops
    // at the first rank that holds a match, so what ranks lower is never
    // matched against this job shape at all.
    //
    // Equivalence contract with the naive kernel: this list must equal the
    // naive scan's candidate list for any job of the shape, and the caller
    // makes exactly one `rng.index` draw iff it is non-empty.
    fn match_list(&mut self, job_shape: u64) -> Vec<ActorId> {
        let ranking = self.ranking_of[&job_shape];
        let ranker = self.rankings.shapes[&ranking].ad();
        let job = self.job_shapes.shapes[&job_shape].ad();
        let machines = &self.machine_shapes.shapes;
        // Rank the machine shapes that have arrived since the ranking was
        // last consulted.
        let ranked = self.ranked.entry(ranking).or_default();
        let known = ranked.order.len();
        for (&shape, key) in machines.range(ranked.upto + 1..) {
            self.stats.pairs_evaluated += 1;
            let rank = ranker.rank(key.ad(), &mut self.scratch);
            ranked.order.push((rank, shape));
            ranked.upto = shape;
        }
        if ranked.order.len() > known {
            ranked.order.sort_by(|a, b| b.0.total_cmp(&a.0));
        }
        let mut list: Vec<ActorId> = Vec::new();
        // Ranks are finite ([`CompiledAd::rank`]): equal ones are adjacent.
        for tier in ranked.order.chunk_by(|a, b| a.0 == b.0) {
            for &(_, shape) in tier {
                if members_of(&self.members, shape).next().is_none() {
                    continue; // all picked earlier in the cycle
                }
                let matched = match self.verdicts.entry((job_shape, shape)) {
                    Entry::Occupied(kept) => {
                        self.stats.cache_hits += 1;
                        *kept.get()
                    }
                    Entry::Vacant(unseen) => {
                        self.stats.pairs_evaluated += 1;
                        let (machine, scratch) = (machines[&shape].ad(), &mut self.scratch);
                        *unseen.insert(
                            job.requirements_met(machine, scratch)
                                && machine.requirements_met(job, scratch),
                        )
                    }
                };
                if matched {
                    list.extend(members_of(&self.members, shape));
                }
            }
            if !list.is_empty() {
                break;
            }
        }
        // The naive kernel builds its candidate list in ascending machine
        // order; restore that order so the caller's tie-break index
        // selects the same machine.
        list.sort_unstable();
        list
    }
}

// The machines on offer of one shape.
fn members_of(
    members: &BTreeSet<(u64, ActorId)>,
    shape: u64,
) -> impl Iterator<Item = ActorId> + '_ {
    let of = members.range((shape, 0)..=(shape, ActorId::MAX));
    of.map(|&(_, id)| id)
}

// ---------------------------------------------------------------------
// The actor
// ---------------------------------------------------------------------

/// The matchmaker actor: wraps a [`MatchEngine`] behind the pool's message
/// protocol.
#[derive(Default)]
pub struct Matchmaker {
    engine: MatchEngine,
    /// The pool this matchmaker serves; stamped on every match
    /// notification and flock grant. Defaults to 0 (the home pool).
    pub(crate) pool_id: u64,
    /// Total matches produced.
    pub matches_made: u64,
    /// Negotiation cycles run.
    pub cycles: u64,
    /// Flock requests granted.
    pub flock_grants: u64,
    /// Whether a [`Msg::NegotiateTick`] is on its way.
    ticking: bool,
}

impl Matchmaker {
    /// A new matchmaker.
    pub fn new() -> Matchmaker {
        Matchmaker::default()
    }

    /// Serve pool `pool_id` instead of the default pool 0.
    pub fn with_pool(mut self, pool_id: u64) -> Matchmaker {
        self.pool_id = pool_id;
        self
    }

    /// The engine's counters.
    pub fn stats(&self) -> &MatchmakerStats {
        &self.engine.stats
    }

    /// Run cycles on the 10-s grid while there is a job to place (or a
    /// fence to lower): arm the grid's next instant unless a tick is on
    /// its way.
    fn arm_cycles(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.ticking && !self.engine.is_idle() {
            self.ticking = true;
            let wait = until_next(NEGOTIATE_PERIOD, ctx.now);
            ctx.send_self_after(wait, Msg::NegotiateTick);
        }
    }
}

impl Actor<Msg> for Matchmaker {
    fn name(&self) -> String {
        "matchmaker".into()
    }

    /// Back from a crash (the engine dropped everything sent here in the
    /// window, and the tick it had armed): the cycles resume on the grid if
    /// something is still held. Ads and fences are kept (ROADMAP item 17).
    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.ticking = false;
        self.arm_cycles(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::MachineAd { ad, claims } => {
                self.engine.machine_ad(from, ad, claims, ctx.now);
            }
            Msg::JobAd(adverts) => {
                for JobAdvert { job, ad, epoch } in adverts.iter() {
                    self.engine
                        .job_ad(from, *job, Arc::clone(ad), *epoch, ctx.now);
                }
                // The first job ad to arrive arms the grid.
                self.arm_cycles(ctx);
            }
            Msg::FlockRequest { .. } => {
                // Grant with the current machine-ad count: zero is an
                // explicit saturation denial, never silence. Counted after
                // expiry, which otherwise waits for a cycle — and no cycle
                // runs while no job is queued.
                self.engine.expire(ctx.now);
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
                // A cycle that matched leaves fences up, and only the next
                // cycle lowers them: an ad kept out by a fence that nothing
                // lowers would be kept out for good.
                self.ticking = !self.engine.is_idle();
                if self.ticking {
                    ctx.send_self_after(NEGOTIATE_PERIOD, Msg::NegotiateTick);
                }
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
                Some(job) => Msg::JobAd(Arc::new([JobAdvert {
                    job,
                    ad: Arc::new(self.ad.clone()),
                    epoch: 0,
                }])),
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
            // Non-literal memory: nothing tells its value but evaluation.
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
            // A rank that is not the machine's memory itself.
            ad = ad.with_expr("Rank", "TARGET.Memory / 2 + 1");
        }
        if quirky && rng.chance(0.2) {
            // A disjunction: no conjunct alone rules a machine out.
            ad = ad.with_expr(
                "Requirements",
                "TARGET.Memory >= MY.ImageSize || TARGET.HasJava =?= true",
            );
        }
        ad
    }

    /// `flat` as a machine would send it: what the pool's owners all
    /// configured (`Requirements`, `Rank`) in the shared `base`, the rest
    /// in a child chained to it.
    fn chain(flat: &ClassAd, base: &Arc<ClassAd>) -> ClassAd {
        let mut child = ClassAd::chained(Arc::clone(base));
        for (name, expr) in flat.iter().filter(|(name, _)| !base.has(name)) {
            child.insert_expr(name, expr.clone());
        }
        assert_eq!(child, *flat);
        child
    }

    fn pool_base() -> Arc<ClassAd> {
        let base = ClassAd::new()
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
            .with_expr("Rank", "0");
        Arc::new(base)
    }

    /// `flat` as a schedd would send them: one base for the jobs alike in
    /// everything but `ClusterId`, which each holds in a child chained to
    /// it.
    fn cluster(flat: &[ClassAd]) -> Vec<ClassAd> {
        let mut bases: BTreeMap<String, Arc<ClassAd>> = BTreeMap::new();
        let chained = flat.iter().map(|ad| {
            let mut base = ad.clone();
            assert!(base.remove("ClusterId"));
            let base = bases.entry(base.to_string()).or_insert(Arc::new(base));
            let child = chain(ad, base);
            assert_eq!(child.own().count(), 1);
            child
        });
        chained.collect()
    }

    /// `(pairs_evaluated, cache_hits, matches_made)`.
    type Counters = (u64, u64, u64);

    /// Cumulative [`Counters`] after each of the six cycles of
    /// [`engine_is_bit_identical_to_naive_kernel`], per `(seed, quirky)`
    /// arm, recorded when negotiation moved from (job shape, machine) to
    /// (job shape, machine shape) under a ranking. Against the engine
    /// before it (commit 19eac4f) `matches_made` is the same in every cell;
    /// the arm totals of `pairs_evaluated` read 267, 1535, 277, 659, 271
    /// and 905 there. Forty machines drawn from seven memories, with and
    /// without java, are a dozen shapes, and twenty-five jobs two or three
    /// rankings: each ranks the dozen once, and a job shape is matched
    /// against machine shapes from the best-ranked down until one takes it
    /// — for any `Rank`, where the old tier descent knew `TARGET.Memory`
    /// and nothing else (the quirky arms, where it probed every machine).
    const RECORDED_COUNTERS: [(u64, bool, [Counters; 6]); 6] = [
        (
            1,
            false,
            [
                (51, 1, 18),
                (80, 23, 37),
                (107, 44, 55),
                (134, 64, 73),
                (161, 85, 91),
                (190, 104, 109),
            ],
        ),
        (
            1,
            true,
            [
                (89, 0, 19),
                (148, 28, 37),
                (197, 56, 56),
                (252, 84, 75),
                (296, 120, 94),
                (344, 152, 113),
            ],
        ),
        (
            7,
            false,
            [
                (53, 1, 21),
                (91, 10, 42),
                (134, 22, 63),
                (172, 35, 84),
                (213, 45, 105),
                (253, 55, 126),
            ],
        ),
        (
            7,
            true,
            [
                (112, 5, 17),
                (153, 68, 34),
                (189, 129, 50),
                (228, 190, 66),
                (269, 253, 83),
                (308, 317, 100),
            ],
        ),
        (
            42,
            false,
            [
                (51, 4, 18),
                (81, 23, 36),
                (111, 45, 54),
                (141, 67, 72),
                (166, 88, 90),
                (197, 106, 108),
            ],
        ),
        (
            42,
            true,
            [
                (104, 3, 16),
                (150, 39, 33),
                (191, 75, 50),
                (228, 116, 66),
                (264, 157, 83),
                (303, 198, 100),
            ],
        ),
    ];

    /// Multi-cycle differential test against the naive kernel: same ads,
    /// same seed, expiry + consumption + re-advertisement churn, plain
    /// and quirky (unevaluable-memory/generic-rank/disjunctive) ads alike,
    /// machines and jobs arriving flat and chained to shared bases — and,
    /// cycle by cycle, the recorded work counters, which how an ad is
    /// held may not move.
    #[test]
    fn engine_is_bit_identical_to_naive_kernel() {
        for (chained, (seed, quirky, recorded)) in [false, true]
            .into_iter()
            .flat_map(|chained| RECORDED_COUNTERS.map(|arm| (chained, arm)))
        {
            let mut gen_rng = SimRng::seed_from_u64(seed);
            let mut rng_a = SimRng::seed_from_u64(seed ^ 0xabcd);
            let mut rng_b = SimRng::seed_from_u64(seed ^ 0xabcd);

            let mut engine = MatchEngine::new();
            let mut naive_jobs: BTreeMap<(ActorId, u32), ClassAd> = BTreeMap::new();
            let mut naive_machines: BTreeMap<ActorId, ClassAd> = BTreeMap::new();

            let base = pool_base();
            let machine_ads: Vec<ClassAd> = (0..40)
                .map(|_| pool_machine(&mut gen_rng, quirky))
                .map(|flat| if chained { chain(&flat, &base) } else { flat })
                .collect();
            // `ClusterId` is what tells a job from the others of its
            // cluster, and nothing reads it.
            let job_ads: Vec<ClassAd> = (0..25)
                .map(|j| pool_job(&mut gen_rng, quirky).with_int("ClusterId", j))
                .collect();
            let job_ads = if chained { cluster(&job_ads) } else { job_ads };

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
                let arm = format!("seed {seed} quirky {quirky} chained {chained} cycle {cycle}");
                assert_eq!(fast, slow, "{arm}");
                let st = &engine.stats;
                assert_eq!(
                    (st.pairs_evaluated, st.cache_hits, st.matches_made),
                    counters,
                    "{arm}"
                );
                for &(s, j, m) in &slow {
                    naive_jobs.remove(&(s, j));
                    naive_machines.remove(&m);
                }
            }
            // Chained, every plain machine found its shape by its literals,
            // and every job but the first two of its cluster.
            assert_eq!(engine.machine_shapes.families.is_empty(), !chained);
            assert_eq!(engine.job_shapes.families.is_empty(), !chained);
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

    /// Rankings split on what a `Rank` can read, and on nothing else. Six
    /// jobs rank machines by one expression, `TARGET.Fit`, and differ in
    /// `ImageSize` (which only a machine's *policy* reads: no rank can
    /// depend on it) and in `Sign`, which nothing reads — until machines
    /// arrive whose `Fit` is `TARGET.Sign * MY.Memory`: an attribute a
    /// rank enters, reading the job back. From then on the jobs that like
    /// their machines big and those that like them small rank apart, and
    /// each is matched against the machine shape it likes best and no
    /// other.
    #[test]
    fn rankings_split_on_what_a_rank_can_read() {
        let job = |sign: i64, image: i64| {
            ClassAd::new()
                .with_int("Sign", sign)
                .with_int("ImageSize", image)
                .with_expr("Requirements", "TARGET.Memory >= MY.ImageSize")
                .with_expr("Rank", "TARGET.Fit")
        };
        let machine = |memory: i64, fit: &str| {
            ClassAd::new()
                .with_int("Memory", memory)
                .with_expr("Fit", fit)
                .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
                .with_expr("Rank", "0")
        };
        let mut naive_jobs: BTreeMap<(ActorId, u32), ClassAd> = [-1, 1, -1, 1, -1, 1]
            .into_iter()
            .enumerate()
            .map(|(j, sign)| ((1, j as u32), job(sign, [16, 32][j / 3])))
            .collect();
        let mut naive_machines: BTreeMap<ActorId, ClassAd> = BTreeMap::new();
        let mut engine = MatchEngine::new();
        let mut rngs = [SimRng::seed_from_u64(9), SimRng::seed_from_u64(9)];
        let now = SimTime::from_secs(10);
        let mut cycle = |engine: &mut MatchEngine,
                         jobs: &mut BTreeMap<(ActorId, u32), ClassAd>,
                         machines: &mut BTreeMap<ActorId, ClassAd>| {
            for (&(s, j), ad) in jobs.iter() {
                engine.insert_job(s, j, ad.clone());
            }
            for (&id, ad) in machines.iter() {
                engine.insert_machine(id, ad.clone(), now);
            }
            let rankings = engine.rankings.ids.len();
            let fast = engine.negotiate(now, &mut rngs[0]);
            assert_eq!(fast, naive_negotiate(jobs, machines, &mut rngs[1]).0);
            for (s, j, m) in &fast {
                jobs.remove(&(*s, *j));
                machines.remove(m);
            }
            (rankings, fast)
        };

        // A `Fit` that reads nothing of the job: two job shapes (machines
        // read `ImageSize`), one ranking. The job first in line takes the
        // one machine.
        naive_machines.insert(100, machine(64, "MY.Memory"));
        let (rankings, matched) = cycle(&mut engine, &mut naive_jobs, &mut naive_machines);
        assert_eq!((rankings, matched), (1, vec![(1, 0, 100)]));
        assert!(engine.rankings.asked.is_empty());

        // Machines whose `Fit` reads the job's `Sign` back: the queued
        // jobs are keyed again, into a ranking a sign. Each job takes the
        // machine its own sign likes best among those left, and is matched
        // against no other shape: five jobs, five verdicts. (Kept on one
        // ranking, job 1 would follow job 2 down the small end.)
        let sized = [64, 128, 256, 512, 1024];
        for (i, memory) in sized.into_iter().enumerate() {
            naive_machines.insert(101 + i, machine(memory, "TARGET.Sign * MY.Memory"));
        }
        let verdicts = engine.stats.pairs_evaluated;
        let (rankings, matched) = cycle(&mut engine, &mut naive_jobs, &mut naive_machines);
        assert_eq!(rankings, 2);
        assert!(engine.rankings.asked.contains("sign"));
        let taken: Vec<ActorId> = matched.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(taken, [105, 101, 104, 102, 103]);
        let ranks = 2 * sized.len() as u64;
        assert_eq!(engine.stats.pairs_evaluated - verdicts, ranks + 5);

        // The same machines, stored before any job has asked for `Fit`:
        // the first job that does has them keyed again, their `Fit` is
        // then seen to read `Sign`, and that job — keyed a moment ago,
        // under a ranking that knew nothing of signs — is keyed once more.
        let mut late = MatchEngine::new();
        for (i, memory) in sized.into_iter().enumerate() {
            let ad = machine(memory, "TARGET.Sign * MY.Memory");
            late.insert_machine(101 + i, ad.clone(), now);
            naive_machines.insert(101 + i, ad);
        }
        assert!(late.rankings.asked.is_empty());
        naive_jobs = BTreeMap::from([((1, 0), job(-1, 16)), ((1, 1), job(1, 16))]);
        let (rankings, matched) = cycle(&mut late, &mut naive_jobs, &mut naive_machines);
        assert_eq!((rankings, matched), (2, vec![(1, 0, 101), (1, 1, 105)]));
    }

    /// The machine side of [`shapes_split_on_what_a_match_can_read`].
    /// Eight machines of one owner configuration, chained to one base and
    /// differing in `Name`, `MachineId` and `HasJava`, split on `HasJava`
    /// (a job reads it) and on nothing else — until something can read
    /// what else tells them apart: the owner's own policy (a base whose
    /// `Requirements` names `MY.Name`), or a job (`TARGET.MachineId`, asked
    /// mid-run of machines already stored). The naive kernel must agree
    /// throughout, and a machine that joins a shape by its literals is
    /// never compiled.
    #[test]
    fn machine_shapes_split_on_what_a_match_can_read() {
        let names = ["twin", "m1", "twin", "m3", "m4", "m5", "twin", "m7"];
        let machine = |base: &Arc<ClassAd>, i: usize| {
            let mut ad = ClassAd::chained(Arc::clone(base))
                .with_str("Name", names[i])
                .with_int("MachineId", 100 + i as i64);
            if i.is_multiple_of(2) {
                ad.insert("HasJava", Value::Bool(true));
            }
            Arc::new(ad)
        };
        let policy = |requirements: &str| {
            let base = ClassAd::new()
                .with_int("Memory", 256)
                .with_expr("Requirements", requirements)
                .with_int("Rank", 0);
            Arc::new(base)
        };
        let job = |requirements: &str| {
            ClassAd::new()
                .with_int("ImageSize", 64)
                .with_expr("Requirements", requirements)
                .with_expr("Rank", "TARGET.Memory")
        };
        // Two machines share a shape iff `class` gives them one label.
        fn assert_split<L: Ord>(engine: &MatchEngine, class: impl Fn(usize) -> L) {
            let mut of_shape: BTreeMap<u64, BTreeSet<L>> = BTreeMap::new();
            for (id, m) in engine.machines.iter() {
                assert!(engine.members.contains(&(m.shape, id)));
                of_shape.entry(m.shape).or_default().insert(class(id - 100));
            }
            assert!(of_shape.values().all(|labels| labels.len() == 1), "merged");
            let labels: BTreeSet<&L> = of_shape.values().flatten().collect();
            assert_eq!(labels.len(), of_shape.len(), "split needlessly");
        }
        // One cycle of the engine and of the naive kernel over the same ads.
        let agree = |engine: &mut MatchEngine, base: &Arc<ClassAd>, jobs: &[ClassAd]| {
            let mut rngs = [SimRng::seed_from_u64(3), SimRng::seed_from_u64(3)];
            let (naive_jobs, naive_machines): (BTreeMap<_, _>, BTreeMap<_, _>) = (
                (jobs.iter().enumerate())
                    .map(|(j, ad)| ((1, j as u32), ad.clone()))
                    .collect(),
                (0..8)
                    .map(|i| (100 + i, ClassAd::clone(&machine(base, i))))
                    .collect(),
            );
            let fast = engine.negotiate(SimTime::from_secs(10), &mut rngs[0]);
            let slow = naive_negotiate(&naive_jobs, &naive_machines, &mut rngs[1]).0;
            assert_eq!(fast, slow);
            fast
        };
        let now = SimTime::from_secs(10);
        let java = job("TARGET.HasJava =?= true");
        let any = job("TARGET.Memory >= MY.ImageSize");

        // (1) Nothing reads `Name` or `MachineId`; a job reads `HasJava`.
        let plain = policy("TARGET.ImageSize <= MY.Memory");
        let mut engine = MatchEngine::new();
        engine.insert_job(1, 0, java.clone());
        for i in 0..8 {
            engine.insert_machine(100 + i, machine(&plain, i), now);
        }
        assert_split(&engine, |i| i % 2);
        // Four compilations for eight machines: each shape's first member,
        // and the second, whose kind the family then remembers. (The job
        // was keyed twice, before and after a machine asked it for
        // `ImageSize`, into one ranking: its `Rank` reads nothing of it.)
        assert_eq!(engine.next_shape, 2 + 1 + 2);
        assert_eq!(
            engine.machine_shapes.families[&address(&plain)].kinds.len(),
            2
        );

        // (2) The owner's policy reads the machine's own name: children
        // of *that* base merge only where the name is the same too.
        let named = policy("TARGET.ImageSize <= MY.Memory && MY.Name != \"m3\"");
        let mut picky = MatchEngine::new();
        picky.insert_job(1, 0, java.clone());
        for i in 0..8 {
            picky.insert_machine(100 + i, machine(&named, i), now);
        }
        assert_split(&picky, |i| (names[i], i % 2));
        assert_eq!(
            picky.machine_shapes.families[&address(&named)].kinds.len(),
            1,
            "the twins"
        );
        picky.insert_job(1, 1, any.clone());
        picky.insert_job(1, 2, any.clone());
        let matched = agree(
            &mut picky,
            &named,
            &[java.clone(), any.clone(), any.clone()],
        );
        assert_eq!(matched.len(), 3);
        assert!(matched.iter().all(|&(_, _, m)| m != 103));

        // (3) A job asks `TARGET.MachineId` of machines already stored:
        // every machine is keyed again, into a shape of its own; a later
        // job asking yet another name (`Name`) keys them once more.
        let avoider = job("TARGET.HasJava =?= true && TARGET.MachineId =!= 102");
        engine.insert_job(1, 1, avoider.clone());
        assert_split(&engine, |i| i);
        assert!(
            engine.machine_shapes.families.is_empty(),
            "no shape met twice"
        );
        let before = engine.next_shape;
        let namer = job("TARGET.Name == \"m5\"");
        engine.insert_job(1, 2, namer.clone());
        assert_split(&engine, |i| i);
        assert_eq!(engine.next_shape, before + 1 + 8, "a job shape, eight keys");
        let matched = agree(&mut engine, &plain, &[java, avoider, namer]);
        assert_eq!(matched.len(), 3);
        assert!(matched.contains(&(1, 2, 105)) && !matched.contains(&(1, 1, 102)));
    }

    /// The job side of the same. A cluster's jobs — a `ClusterId` each,
    /// chained to the base their schedd shares among them — are one shape
    /// and two compilations (the first, and the second to learn the shape
    /// is met twice) until a machine asks `TARGET.ClusterId`: then the
    /// family is forgotten and every job is compiled into a shape of its
    /// own, and only jobs with one `ClusterId` (two schedds' job 5) are
    /// still alike. A child with a `Requirements` of its own — what a
    /// schedd sends while it avoids a machine — is compiled every time,
    /// and two that avoid different machines are never taken for each
    /// other. The naive kernel must agree throughout.
    #[test]
    fn job_shapes_split_on_what_a_match_can_read() {
        let base = Arc::new(JobSpec::java(0, "ada", vec![], JavaMode::Scoped).base_ad());
        let job = |id: i64| Arc::new(ClassAd::chained(Arc::clone(&base)).with_int("ClusterId", id));
        let avoiding = |id: i64, machine: i64| {
            let requirements = format!(
                "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true \
                 && TARGET.MachineId =!= {machine}"
            );
            Arc::new(ClassAd::clone(&job(id)).with_expr("Requirements", &requirements))
        };
        let machine = |id: usize, requirements: &str| {
            ClassAd::new()
                .with_int("Memory", 256)
                .with_bool("HasJava", true)
                .with_int("MachineId", id as i64)
                .with_expr("Requirements", requirements)
                .with_int("Rank", 0)
        };
        let plain = "TARGET.ImageSize <= MY.Memory";
        let shape = |engine: &MatchEngine, schedd, job| engine.jobs[&(schedd, job)].shape;
        let shapes_in_use = |engine: &MatchEngine| {
            let ids: BTreeSet<u64> = engine.jobs.values().map(|j| j.shape).collect();
            ids.len()
        };
        // One cycle of the engine, and of the naive kernel over flat
        // copies of what the engine holds.
        let agree = |engine: &mut MatchEngine| {
            let mut rngs = [SimRng::seed_from_u64(3), SimRng::seed_from_u64(3)];
            let flat = |ad: &ClassAd| {
                ad.iter().fold(ClassAd::new(), |mut flat, (name, e)| {
                    flat.insert_expr(name, e.clone());
                    flat
                })
            };
            let jobs: BTreeMap<_, _> = (engine.jobs.iter())
                .map(|(&key, entry)| (key, flat(&entry.ad)))
                .collect();
            let machines: BTreeMap<_, _> = (engine.machines.iter())
                .map(|(id, entry)| (id, flat(&entry.ad)))
                .collect();
            let fast = engine.negotiate(SimTime::from_secs(10), &mut rngs[0]);
            assert_eq!(fast, naive_negotiate(&jobs, &machines, &mut rngs[1]).0);
            fast
        };
        let now = SimTime::from_secs(10);

        // (1) Nothing reads `ClusterId`: one shape. Six compilations — two
        // machines, the first job (which has the machines keyed again for
        // what it reads of them) and the second.
        let mut engine = MatchEngine::new();
        for id in [100, 101] {
            engine.insert_machine(id, machine(id, plain), now);
        }
        for id in 1..=2 {
            engine.insert_job(1, id, job(i64::from(id)));
        }
        assert_eq!(engine.stats.ads_compiled, 2 + (1 + 2) + 1);
        for id in 3..=8 {
            engine.insert_job(1, id, job(i64::from(id)));
        }
        assert_eq!((shapes_in_use(&engine), engine.stats.ads_compiled), (1, 6));
        assert_eq!(engine.job_shapes.families[&address(&base)].kinds.len(), 1);

        // (2) A child with a `Requirements` of its own is compiled, and so
        // is the next one like it (and the machines, keyed again now that
        // `MachineId` is asked of them); one avoiding another machine is a
        // third shape, whatever the family makes of the first two.
        engine.insert_job(1, 9, avoiding(9, 100));
        assert_eq!(engine.stats.ads_compiled, 6 + 1 + 2);
        engine.insert_job(1, 10, avoiding(10, 100));
        engine.insert_job(1, 11, avoiding(11, 101));
        assert_eq!(engine.stats.ads_compiled, 9 + 2);
        assert_eq!(shape(&engine, 1, 9), shape(&engine, 1, 10));
        assert_ne!(shape(&engine, 1, 9), shape(&engine, 1, 11));
        assert_eq!(shapes_in_use(&engine), 3);
        assert_eq!(engine.job_shapes.families[&address(&base)].kinds.len(), 1);
        // The first two jobs take the two machines: the avoiders stay.
        assert_eq!(agree(&mut engine).len(), 2);
        assert_eq!(engine.job_count(), 9);

        // (3) A machine asks `TARGET.ClusterId`: every job is keyed again,
        // into a shape of its own; no shape is met twice, so the family
        // has nothing to remember — until another schedd's job 5 arrives,
        // which the next job 6 must not be taken for.
        let picky = "TARGET.ClusterId % 3 == 0 && TARGET.ImageSize <= MY.Memory";
        let before = engine.stats.ads_compiled;
        engine.insert_machine(102, machine(102, picky), now);
        assert_eq!(shapes_in_use(&engine), 9);
        assert_eq!(engine.stats.ads_compiled, before + 1 + 9);
        assert!(engine.job_shapes.families.is_empty(), "no shape met twice");
        engine.insert_job(2, 5, job(5));
        engine.insert_job(2, 6, job(6));
        assert_eq!(shape(&engine, 2, 5), shape(&engine, 1, 5));
        assert_eq!(shape(&engine, 2, 6), shape(&engine, 1, 6));
        assert_eq!(shapes_in_use(&engine), 9);
        // The picky machine takes the first job it can tell is its own.
        assert_eq!(agree(&mut engine), [(1, 3, 102)]);
    }

    /// Membership of a machine shape through everything that happens to
    /// an ad: refresh, fence, consumption, re-advertisement and expiry —
    /// and the shape pair's one verdict through all of it.
    #[test]
    fn shape_membership_follows_the_ads() {
        let base = pool_base();
        let ads: Vec<Arc<ClassAd>> = (0..4)
            .map(|i| {
                let ad = ClassAd::chained(Arc::clone(&base))
                    .with_int("Memory", 256)
                    .with_int("MachineId", 100 + i);
                Arc::new(ad)
            })
            .collect();
        let job = |image: i64| {
            ClassAd::new()
                .with_int("ImageSize", image)
                .with_expr("Requirements", "TARGET.Memory >= MY.ImageSize")
                .with_expr("Rank", "TARGET.Memory")
        };
        let mut engine = MatchEngine::new();
        let mut rng = SimRng::seed_from_u64(7);
        let mut now = SimTime::from_secs(10);
        // A job that never matches keeps its shape, and the pair, alive.
        engine.insert_job(1, 9, job(4096));
        for (i, ad) in ads.iter().enumerate() {
            engine.machine_ad(100 + i, Arc::clone(ad), 0, now);
        }
        let members = |engine: &MatchEngine| -> Vec<ActorId> {
            assert_eq!(engine.machine_shapes.shapes.len(), 1, "one shape");
            engine.members.iter().map(|&(_, id)| id).collect()
        };
        let work = |engine: &MatchEngine| (engine.stats.pairs_evaluated, engine.stats.cache_hits);
        assert_eq!(members(&engine), [100, 101, 102, 103]);
        assert_eq!(engine.negotiate(now, &mut rng), vec![]);
        // The machine shape ranked, and the shape pair evaluated.
        assert_eq!(work(&engine), (2, 0));

        // Refresh: same allocations, same members, the verdict reused.
        now += NEGOTIATE_PERIOD;
        for (i, ad) in ads.iter().enumerate() {
            engine.machine_ad(100 + i, Arc::clone(ad), 0, now);
        }
        assert_eq!(engine.stats.ads_refreshed, 4);
        // Consumption: two jobs of one new shape — and the old ranking:
        // they rank machines alike — take two members, one evaluation
        // between them; each leaves the shape — and the other's list — on
        // the spot.
        engine.insert_job(1, 1, job(64));
        engine.insert_job(1, 2, job(64));
        let matched = engine.negotiate(now, &mut rng);
        assert_eq!(matched.len(), 2);
        assert_ne!(matched[0].2, matched[1].2);
        let taken: Vec<ActorId> = matched.iter().map(|&(_, _, m)| m).collect();
        assert!(members(&engine).iter().all(|m| !taken.contains(m)));
        assert_eq!(members(&engine).len(), 2);
        assert_eq!(work(&engine), (3, 1));

        // Fence: a consumed machine's ad from before the match stays out;
        // one sent after it (a claim accepted since) rejoins the shape —
        // by its literals, with no compilation and no evaluation.
        let shapes = engine.next_shape;
        engine.machine_ad(taken[0], Arc::clone(&ads[taken[0] - 100]), 0, now);
        assert_eq!((engine.stats.ads_fenced, members(&engine).len()), (1, 2));
        engine.machine_ad(taken[0], Arc::clone(&ads[taken[0] - 100]), 1, now);
        assert_eq!(members(&engine).len(), 3);
        assert_eq!((engine.next_shape, work(&engine)), (shapes, (3, 1)));

        // Expiry: only the rejoined machine keeps renewing; the others
        // age out of the shape, which lives on with its verdict.
        for _ in 0..4 {
            now += NEGOTIATE_PERIOD;
            engine.machine_ad(taken[0], Arc::clone(&ads[taken[0] - 100]), 1, now);
            assert_eq!(engine.negotiate(now, &mut rng), vec![]);
        }
        assert_eq!(members(&engine), [taken[0]]);
        assert_eq!(engine.stats.ads_expired, 2);
        assert_eq!(work(&engine), (3, 5));
        // The last member gone, the shape, its family, its rank and its
        // verdicts go.
        engine.remove_machine(taken[0]);
        engine.negotiate(now, &mut rng);
        assert!(engine.members.is_empty() && engine.machine_shapes.shapes.is_empty());
        assert!(engine.machine_shapes.families.is_empty() && engine.verdicts.is_empty());
        assert!(engine.ranked.values().all(|ranked| ranked.order.is_empty()));
    }

    /// A cohort of jobs that can never match, probed every cycle while
    /// the machines under them churn: one verdict per shape pair, kept
    /// while both shapes live.
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
        // reads, and the four machines in nothing at all: one shape a
        // side, ranked and evaluated. Then the same allocations again:
        // refreshed by pointer, the pair's verdict reused.
        assert_eq!(cycle(&mut engine, &machines), (vec![], 2, 0));
        assert_eq!(engine.job_shapes.shapes.len(), 1);
        assert_eq!(engine.machine_shapes.shapes.len(), 1);
        assert_eq!(cycle(&mut engine, &machines), (vec![], 2, 1));

        // Same content in fresh allocations (equal, not `ptr_eq`): the
        // entries — and the verdict — survive.
        for ad in &mut machines {
            *ad = Arc::new(ClassAd::clone(ad));
        }
        assert_eq!(cycle(&mut engine, &machines), (vec![], 2, 2));
        assert_eq!(engine.stats.ads_admitted, 4);

        // One machine changes its ad: a second shape, ranked above the
        // first and refused before it.
        machines[0] = machine(512);
        assert_eq!(cycle(&mut engine, &machines), (vec![], 4, 3));

        // A matchable job sorts ahead of the cohort and consumes the big
        // machine on the spot. It ranks machines as the cohort does, so
        // goes to the big shape first, matches it, and never meets the
        // small one; the cohort — one verdict reused — no longer sees the
        // big one, whose shape dies with its last member.
        let taker = ClassAd::new()
            .with_int("ImageSize", 64)
            .with_expr("Requirements", "TARGET.Memory >= MY.ImageSize")
            .with_expr("Rank", "TARGET.Memory");
        engine.insert_job(1, 0, taker);
        assert_eq!(cycle(&mut engine, &machines), (vec![(1, 0, 100)], 5, 4));
        let cohort_shape = engine.jobs[&(1, 1)].shape;
        let small = engine.machines.get(101).expect("on offer").shape;
        assert_eq!(engine.job_shapes.shapes.len(), 1);
        assert_eq!(engine.rankings.shapes.len(), 1);
        assert_eq!(
            engine.verdicts.keys().collect::<Vec<_>>(),
            [&(cohort_shape, small)]
        );

        // The consumed machine re-advertises the very same allocation: a
        // shape nobody holds any more, keyed, ranked and evaluated afresh.
        assert_eq!(cycle(&mut engine, &machines), (vec![], 7, 5));
        assert_eq!(engine.stats.matches_made, 1);
        assert_eq!(engine.verdicts.len(), 2);
    }

    #[test]
    fn identical_readvertisements_hit_the_cache() {
        let mut engine = MatchEngine::new();
        let mut rng = SimRng::seed_from_u64(5);
        let m_ad = ClassAd::new()
            .with_int("Memory", 256)
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
            .with_expr("Rank", "0");
        let j_ad = ClassAd::new()
            .with_int("ImageSize", 4096) // never matches: stays queued
            .with_expr("Requirements", "TARGET.Memory >= MY.ImageSize")
            .with_expr("Rank", "TARGET.Memory");
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            now += NEGOTIATE_PERIOD;
            engine.insert_machine(10, m_ad.clone(), now);
            engine.insert_job(1, 1, j_ad.clone());
            let out = engine.negotiate(now, &mut rng);
            assert!(out.is_empty());
        }
        // The first cycle ranks the machine shape and evaluates the shape
        // pair; the rest reuse the verdict.
        assert_eq!(engine.stats.pairs_evaluated, 2);
        assert_eq!(engine.stats.cache_hits, 3);

        // A changed ad is another shape, to be ranked and evaluated.
        engine.insert_machine(10, m_ad.clone().with_int("Memory", 8192), now);
        let out = engine.negotiate(now, &mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(engine.stats.pairs_evaluated, 4);
    }

    // -----------------------------------------------------------------
    // The machine table against the B-tree it replaced
    // -----------------------------------------------------------------

    /// The machine side of the engine as it was held before the slot
    /// table — a `BTreeMap` of entries, one of fences, one of fenced jobs
    /// — negotiated by the frozen kernel.
    #[derive(Default)]
    struct BTreeModel {
        // Ad, lease renewed at, sequence number.
        machines: BTreeMap<ActorId, (Arc<ClassAd>, SimTime, u64)>,
        fenced: BTreeMap<ActorId, u64>,
        fenced_jobs: BTreeSet<(ActorId, u32)>,
        jobs: BTreeMap<(ActorId, u32), ClassAd>,
        // Admitted, refreshed, fenced, expired.
        counts: (u64, u64, u64, u64),
    }

    impl BTreeModel {
        fn machine_ad(&mut self, id: ActorId, ad: &Arc<ClassAd>, seq: u64, now: SimTime) {
            if matches!(self.fenced.get(&id), Some(&consumed) if seq <= consumed) {
                self.counts.2 += 1;
                return;
            }
            self.insert_machine(id, ad, seq, now);
        }

        fn insert_machine(&mut self, id: ActorId, ad: &Arc<ClassAd>, seq: u64, now: SimTime) {
            if let Some(held) = self.machines.get_mut(&id) {
                if same_ad(&held.0, ad) {
                    (held.1, held.2) = (now, seq);
                    self.counts.1 += 1;
                    return;
                }
            }
            self.counts.0 += 1;
            self.machines.insert(id, (Arc::clone(ad), now, seq));
        }

        // The ids expired, in the order they went.
        fn expire(&mut self, now: SimTime) -> Vec<ActorId> {
            let expired: Vec<ActorId> = (self.machines.iter())
                .filter(|(_, m)| now - m.1 > AD_LIFETIME)
                .map(|(&id, _)| id)
                .collect();
            for id in &expired {
                self.machines.remove(id);
            }
            self.counts.3 += expired.len() as u64;
            expired
        }

        fn negotiate(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<(ActorId, u32, ActorId)> {
            self.fenced.clear();
            self.fenced_jobs.clear();
            self.expire(now);
            let machines: BTreeMap<ActorId, ClassAd> = (self.machines.iter())
                .map(|(&id, m)| (id, (*m.0).clone()))
                .collect();
            let (matched, _) = naive_negotiate(&self.jobs, &machines, rng);
            for &(schedd, job, machine) in &matched {
                let (_, _, seq) = self.machines.remove(&machine).expect("matched");
                self.fenced.insert(machine, seq);
                self.fenced_jobs.insert((schedd, job));
                self.jobs.remove(&(schedd, job));
            }
            matched
        }

        fn is_idle(&self) -> bool {
            self.jobs.is_empty() && self.fenced.is_empty() && self.fenced_jobs.is_empty()
        }
    }

    /// What the engine and the model must agree on after every step: the
    /// ad census, the count, idleness, and every entry in walk order.
    type Held = (
        (u64, u64, u64, u64),
        usize,
        bool,
        Vec<(ActorId, *const ClassAd, SimTime, u64)>,
    );

    fn held_by_engine(engine: &MatchEngine) -> Held {
        for (id, m) in engine.machines.iter() {
            assert!(engine.members.contains(&(m.shape, id)), "{id} unfiled");
        }
        assert_eq!(engine.members.len(), engine.machine_count());
        let st = &engine.stats;
        let entries = (engine.machines.iter())
            .map(|(id, m)| (id, Arc::as_ptr(&m.ad), m.fresh_at, m.seq))
            .collect();
        (
            (
                st.ads_admitted,
                st.ads_refreshed,
                st.ads_fenced,
                st.ads_expired,
            ),
            engine.machine_count(),
            engine.is_idle(),
            entries,
        )
    }

    fn held_by_model(model: &BTreeModel) -> Held {
        let entries = (model.machines.iter())
            .map(|(&id, m)| (id, Arc::as_ptr(&m.0), m.1, m.2))
            .collect();
        (model.counts, model.machines.len(), model.is_idle(), entries)
    }

    /// The ids a case draws its machines from, in the order they first
    /// advertise: sparse, high first and then ever lower (the table grows
    /// downward), or a federation's five contiguous ranges.
    fn machine_ids(g: &mut propcheck::Gen) -> Vec<ActorId> {
        match g.below(3) {
            0 => g.vec(1..=12, |g| g.int(0..4_000usize)),
            1 => {
                let top = g.int(0..4_000usize);
                let mut ids = g.vec(1..=12, |g| g.int(0..=top));
                ids.sort_unstable_by(|a, b| b.cmp(a));
                ids
            }
            _ => {
                let mut next = g.int(0..50usize);
                let mut pools: Vec<Vec<ActorId>> = Vec::new();
                for _ in 0..5 {
                    let len = g.int(1..=6usize);
                    pools.push((next..next + len).collect());
                    next += len + g.int(0..20usize);
                }
                pools.rotate_left(g.below(5));
                pools.concat()
            }
        }
    }

    /// Random runs of admissions, renewals (the same allocation, or equal
    /// content in another), fenced and unfenced re-advertisements,
    /// removals, expiries and cycles, through the engine and through the
    /// B-tree model of the table it had before: the same census, count,
    /// entries, walk and expiry order, and notifications.
    #[test]
    fn the_machine_table_agrees_with_the_btree_it_replaced() {
        propcheck::check(300, |g| {
            let ids = machine_ids(g);
            let mut ad_rng = SimRng::seed_from_u64(g.u64());
            let base = pool_base();
            let machine_ads: Vec<Arc<ClassAd>> = (0..4)
                .map(|i| {
                    let flat = pool_machine(&mut ad_rng, false);
                    Arc::new(if i % 2 == 1 {
                        chain(&flat, &base)
                    } else {
                        flat
                    })
                })
                .collect();
            let job_ads: Vec<ClassAd> = (0..3).map(|_| pool_job(&mut ad_rng, false)).collect();
            let seed = g.u64();
            let mut rngs = [SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed)];
            let (mut engine, mut model) = (MatchEngine::new(), BTreeModel::default());
            let (mut now, mut seen) = (SimTime::ZERO, 0);
            for step in 0..60 {
                now += SimDuration::from_secs(g.int(0..=12u64));
                let at = g.below((seen + 1).min(ids.len()));
                seen = seen.max(at + 1);
                let id = ids[at];
                let sent = Arc::clone(g.pick(&machine_ads));
                let ad = if g.below(4) == 0 {
                    Arc::new((*sent).clone())
                } else {
                    sent
                };
                match g.below(10) {
                    0..=3 => {
                        let seq = g.int(0..=3u64);
                        engine.machine_ad(id, Arc::clone(&ad), seq, now);
                        model.machine_ad(id, &ad, seq, now);
                    }
                    4 => {
                        engine.insert_machine(id, Arc::clone(&ad), now);
                        model.insert_machine(id, &ad, 0, now);
                    }
                    5 => {
                        engine.remove_machine(id);
                        model.machines.remove(&id);
                    }
                    6 => {
                        let before: Vec<ActorId> =
                            engine.machines.iter().map(|(id, _)| id).collect();
                        engine.expire(now);
                        let after: BTreeSet<ActorId> =
                            engine.machines.iter().map(|(id, _)| id).collect();
                        let gone: Vec<ActorId> = before
                            .into_iter()
                            .filter(|id| !after.contains(id))
                            .collect();
                        assert_eq!(gone, model.expire(now), "step {step}: expiry");
                    }
                    7 => {
                        let job = g.int(0..6u32);
                        if g.bool() {
                            let ad = g.pick(&job_ads).clone();
                            engine.insert_job(1, job, ad.clone());
                            model.jobs.insert((1, job), ad);
                        } else {
                            engine.remove_job(1, job);
                            model.jobs.remove(&(1, job));
                        }
                    }
                    _ => {
                        let fast = engine.negotiate(now, &mut rngs[0]);
                        let slow = model.negotiate(now, &mut rngs[1]);
                        assert_eq!(fast, slow, "step {step}: notifications");
                    }
                }
                assert_eq!(
                    held_by_engine(&engine),
                    held_by_model(&model),
                    "step {step}"
                );
            }
        });
    }
}
