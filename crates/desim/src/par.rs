//! Deterministic intra-world parallelism: a world's shard split in n,
//! conservative time windows, bit-identical output at any thread count.
//!
//! A [`World`] is one `Shard`. [`World::into_parallel`] splits a *built*
//! (not yet started) world into `shards` of them, each with its own keyed
//! queue, random stream (shard 0 keeps the world's; shard `s > 0` forks
//! `par-shard-{s}` from it), network replica, telemetry staging and span
//! range. Where an actor lives is one function, [`Placement`]: the first
//! `shards` ids are dealt one a shard — in a condor world these are the
//! servers, matchmakers `0..P` and then the schedd — and the rest are cut
//! into `shards` contiguous ranges within one actor of equal size, so a
//! shard's actors are neighbours in memory. The shards run the world's own
//! start-up routine, dispatch step and keying function; this module only
//! drives them. Simulated time advances in **conservative windows** no
//! wider than the network's minimum latency (the lookahead): inside a
//! window every shard drains only its own events; a message to another
//! shard is buffered and routed at the **window barrier**, source shard
//! by source shard, so what a shard receives from higher ranges arrives
//! in key order behind its own range's sends. Every cross-shard message is a network send with
//! latency ≥ the lookahead, so it lands in a *later* window.
//!
//! ## Why the output is bit-identical at any thread count
//!
//! Thread count decides only *who* drains a shard, never *what* it drains:
//!
//! * Events are ordered by the canonical key `(time, source, per-source
//!   seq)` ([`crate::queue::EventKey`]) — the only tie-break there is, a
//!   pure function of the senders' execution, not of push order.
//! * Each shard's RNG is fixed by the world seed and the shard index; its
//!   span ids come from a private range re-pinned around every drain; its
//!   telemetry is staged locally and merged at the end in
//!   `(time, shard, record)` order.
//! * With more than one replica, network mutations made by actors (fault
//!   drivers) are *deferred*: recorded as [`crate::net::NetOp`]s and
//!   applied to every replica — the originator's included — at the
//!   barrier, in shard order. Replicas are therefore identical within a
//!   window, which keeps its width a sound lookahead bound even when a
//!   mutation lowers a link's latency. One replica applies them at once,
//!   as a world does.
//! * A `stop_world()` takes effect at the window barrier.
//!
//! The output is therefore a pure function of `(world, shards)`, and at
//! one shard it is the world's own run: windows batch, they never reorder.
//! Windows fan shard claims out to the process-wide [`crate::pool`] and
//! the driving thread claims inline, so a saturated pool degrades to
//! sequential draining instead of deadlocking.

use crate::actor::{Actor, ActorId};
use crate::net::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::world::{Shard, World};
use obs::Collector;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Span-id stride between shards of one parallel run: shard `s` allocates
/// span ids in `[base + s * SHARD_SPAN_STRIDE, …)` where `base` is the
/// thread-local counter at conversion time. 2^32 ids per shard keeps every
/// shard inside the per-seed range [`crate::sweep::SPAN_STRIDE`] (2^40)
/// for up to 256 shards.
pub const SHARD_SPAN_STRIDE: u64 = 1 << 32;

/// How a world is sharded and driven.
#[derive(Debug, Clone)]
pub struct ParConfig {
    /// Number of shards actors are split across. **Part of the output**:
    /// two runs compare bit-identically only at equal shard counts.
    /// Thread count, by contrast, never affects output.
    pub shards: usize,
    /// Worker threads draining shards (including the driving thread).
    pub threads: usize,
    /// Conservative window width. `None` (the default) recomputes the
    /// network's minimum latency at every barrier — always safe. An
    /// override must not exceed the minimum cross-shard latency; the
    /// barrier asserts the lookahead invariant either way.
    pub window: Option<SimDuration>,
}

impl ParConfig {
    /// A config with `shards` shards and `threads` threads.
    pub fn new(shards: usize, threads: usize) -> Self {
        ParConfig {
            shards: shards.max(1),
            threads: threads.max(1),
            window: None,
        }
    }
}

/// Where each actor of a world lives when it is split into shards: the
/// one placement the start-up routine, the send path, the barrier and
/// [`ParWorld::with_actor`] all read.
///
/// For `n` actors and `s` shards (at most `n`, at least one): actor
/// `i < s` is shard `i`'s *head*, and the other `n - s` ids are cut into
/// `s` contiguous ranges, shard by shard, whose sizes differ by at most
/// one (the larger ones first). Ids past the world — a send to an actor
/// never registered — fall to the last shard, which swallows them as a
/// world does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    shards: usize,
    /// Every range holds `base` actors, and the first `extra` one more.
    base: usize,
    extra: usize,
}

impl Placement {
    /// The placement of `actors` actors over `shards` shards (clamped to
    /// `1..=actors`).
    pub fn new(actors: usize, shards: usize) -> Placement {
        let shards = shards.min(actors).max(1);
        let rest = actors - actors.min(shards);
        Placement {
            shards,
            base: rest / shards,
            extra: rest % shards,
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard actor `id` lives on.
    pub fn shard_of(&self, id: ActorId) -> usize {
        let Some(r) = id.checked_sub(self.shards) else {
            return id;
        };
        let wide = self.extra * (self.base + 1);
        if r < wide {
            return r / (self.base + 1);
        }
        // With empty ranges (`base` 0) every id from here on is past the
        // world.
        let narrow = (r - wide).checked_div(self.base).unwrap_or(usize::MAX);
        self.extra.saturating_add(narrow).min(self.shards - 1)
    }

    /// Shard `shard`'s range: the actors it holds besides its head
    /// `shard`, in id order. The last shard's range is open-ended.
    pub fn range(&self, shard: usize) -> Range<ActorId> {
        let start = |s: usize| self.shards + s * self.base + s.min(self.extra);
        let end = if shard + 1 == self.shards {
            usize::MAX
        } else {
            start(shard + 1)
        };
        start(shard)..end
    }
}

/// What a sharded run has done so far. The counts are a function of the
/// world and the shard count; the durations are wall-clock.
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Windows run, the start-up window included.
    pub windows: u64,
    /// Deliveries handed from one shard to another at a barrier (the
    /// world's injections, handed out at start-up, included).
    pub crossings: u64,
    /// Events each shard processed.
    pub events: Vec<u64>,
    /// Keys each shard's queue sorted because an instant opened out of
    /// key order.
    pub sorted_keys: Vec<u64>,
    /// The driving thread's time working shards.
    pub drain_driver: Duration,
    /// The pool helpers' time working shards, summed over helpers.
    pub drain_helpers: Duration,
    /// The driving thread's time waiting for helpers to finish a window.
    pub wait: Duration,
    /// The serial barrier: handing over crossboxes, network mutations
    /// and stops.
    pub barrier: Duration,
}

/// One window's work, shared between the driver and the pool helpers.
struct WindowJob<M, F> {
    shards: Arc<Vec<Mutex<Shard<M>>>>,
    names: Arc<Vec<String>>,
    work: F,
    next: AtomicUsize,
    done: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Nanoseconds the helpers spent working shards.
    helper_ns: AtomicU64,
}

impl<M: 'static, F: Fn(&mut Shard<M>, &[String])> WindowJob<M, F> {
    /// The claim loop: grab unclaimed shards and run the work on each,
    /// span ids pinned to the shard's own range. Run by the driver inline
    /// and by any pool helpers that arrive in time; every shard is worked
    /// exactly once regardless of who shows up. A helper times its
    /// claims into `helper_ns`.
    fn drain_claims(&self, helper: bool) {
        loop {
            let s = self.next.fetch_add(1, Ordering::SeqCst);
            if s >= self.shards.len() {
                return;
            }
            let clock = helper.then(Instant::now);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut shard = self.shards[s].lock().expect("shard mutex");
                let saved = obs::peek_span_id();
                obs::reset_span_ids(shard.span_next);
                (self.work)(&mut shard, &self.names);
                shard.span_next = obs::peek_span_id();
                obs::reset_span_ids(saved);
            }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().expect("panic slot");
                slot.get_or_insert(payload);
            }
            if let Some(clock) = clock {
                let ns = clock.elapsed().as_nanos() as u64;
                self.helper_ns.fetch_add(ns, Ordering::Relaxed);
            }
            let mut d = self.done.lock().expect("done counter");
            *d += 1;
            self.done_cv.notify_all();
        }
    }

    /// Block until every shard of this window is worked, then surface
    /// any panic from a drain on the caller.
    fn wait_all_done(&self) {
        let mut d = self.done.lock().expect("done counter");
        while *d < self.shards.len() {
            d = self.done_cv.wait(d).expect("done counter");
        }
        drop(d);
        if let Some(payload) = self.panic.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
    }
}

/// A sharded, window-synchronized run of one world. Built with
/// [`World::into_parallel`]; driven with [`ParWorld::run_until`];
/// dismantled with [`ParWorld::finish`].
pub struct ParWorld<M> {
    shards: Arc<Vec<Mutex<Shard<M>>>>,
    names: Arc<Vec<String>>,
    placement: Placement,
    threads: usize,
    window: Option<SimDuration>,
    now: SimTime,
    started: bool,
    stopped: bool,
    stats: ParStats,
    /// The world's original collector: pre-run records stay, shard staging
    /// is merged in behind them by [`ParWorld::finish`].
    master_collector: Collector,
}

impl<M: Send + 'static> World<M> {
    /// Split a built world into `cfg.shards` shards for a windowed run.
    /// Must be called before the world starts (no events dispatched yet);
    /// injected messages carry over.
    pub fn into_parallel(self, cfg: ParConfig) -> ParWorld<M> {
        assert!(!self.started, "a world is split before it starts");
        let (mut first, names) = (self.shard, self.names);
        let n = names.len();
        let placement = Placement::new(n, cfg.shards);
        let count = placement.shards();
        let staging = |c: &Collector| {
            if c.is_enabled() {
                Collector::with_capacity(c.capacity())
            } else {
                Collector::disabled()
            }
        };
        let staged = staging(&first.collector);
        let master_collector = std::mem::replace(&mut first.collector, staged);
        first.net.set_op_recording(count > 1);
        first.place(0, placement);
        // Injections so far reach their shards at the start-up barrier.
        while let Some(injected) = first.queue.pop() {
            first.crossbox.push(injected);
        }
        let mut shards = Vec::with_capacity(count);
        for s in 1..count {
            let rng = first.rng.fork(&format!("par-shard-{s}"));
            let mut shard = Shard::new(rng, first.net.clone(), staging(&first.collector));
            shard.place(s, placement);
            let mine = |id: usize| first.actors[id].take_if(|_| placement.shard_of(id) == s);
            shard.actors = (0..n).map(mine).collect();
            shard.sent = vec![0; n];
            shard.lives = first.lives.clone();
            shard.census_kind = first.census_kind;
            shards.push(shard);
        }
        shards.insert(0, first);
        let span_base = obs::peek_span_id();
        for (s, shard) in shards.iter_mut().enumerate() {
            shard.span_next = span_base + (s as u64) * SHARD_SPAN_STRIDE;
        }
        ParWorld {
            now: shards[0].now,
            shards: Arc::new(shards.into_iter().map(Mutex::new).collect()),
            names: Arc::new(names),
            placement,
            threads: cfg.threads.max(1),
            window: cfg.window,
            started: false,
            stopped: false,
            stats: ParStats::default(),
            master_collector,
        }
    }
}

impl<M: Send + 'static> ParWorld<M> {
    /// Current virtual time: the deadline of the last
    /// [`ParWorld::run_until`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard mutex").events)
            .sum()
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard mutex").queue.len())
            .sum()
    }

    /// Did some actor request a stop?
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// What the run has done so far: windows, crossings, events and
    /// sorted keys per shard, and where the driving thread's time went.
    pub fn stats(&self) -> ParStats {
        let mut stats = self.stats.clone();
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("shard mutex");
            stats.events.push(shard.events);
            stats.sorted_keys.push(shard.queue.sorted_keys());
        }
        stats
    }

    /// Inspect a concrete actor between runs (e.g. "is the schedd done?"
    /// from a slice-driving harness).
    pub fn with_actor<T: Actor<M>, R>(&self, id: ActorId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let shard = self.shards[self.placement.shard_of(id)]
            .lock()
            .expect("shard mutex");
        let actor = shard.actors.get(id)?.as_deref()?;
        actor.downcast_ref::<T>().map(f)
    }

    /// Run every actor's `on_start` — each shard's actors in id order
    /// against that shard — as one window, on this thread: start-up is
    /// where the actors allocate, and on `fed_scale_par` spreading it over
    /// two threads bought no measurable time for ~10 MB of peak RSS (a
    /// second allocator arena's worth).
    fn start_if_needed(&mut self) {
        if !self.started {
            self.started = true;
            self.window(self.now, 1, |shard, names| shard.start(names));
        }
    }

    /// Run `work` on every shard over up to `threads` threads, then merge
    /// at the barrier: deliveries that crossed shards (each after `last`,
    /// the lookahead contract) into their shards' queues, source shard by
    /// source shard, deferred network mutations into every replica in
    /// shard order, and any stop into the run.
    fn window(
        &mut self,
        last: SimTime,
        threads: usize,
        work: impl Fn(&mut Shard<M>, &[String]) + Send + Sync + 'static,
    ) {
        let clock = Instant::now();
        let job = Arc::new(WindowJob {
            shards: Arc::clone(&self.shards),
            names: Arc::clone(&self.names),
            work,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            helper_ns: AtomicU64::new(0),
        });
        // Helpers are *optional* claimers: if the pool is saturated, the
        // inline loop below works every shard by itself.
        let helpers = threads.min(self.shards.len()) - 1;
        for _ in 0..helpers {
            let job = Arc::clone(&job);
            crate::pool::spawn(move || job.drain_claims(true));
        }
        job.drain_claims(false);
        let drained = Instant::now();
        job.wait_all_done();
        let waited = Instant::now();

        // Every shard at once: the barrier takes no lock per delivery.
        let mut shards: Vec<_> = (self.shards.iter())
            .map(|s| s.lock().expect("shard mutex"))
            .collect();
        let mut ops = Vec::new();
        for s in 0..shards.len() {
            ops.append(&mut shards[s].net.take_pending_ops());
            self.stopped |= shards[s].stop;
            let mut crossed = std::mem::take(&mut shards[s].crossbox);
            self.stats.crossings += crossed.len() as u64;
            for (key, delivery) in crossed.drain(..) {
                assert!(
                    key.at > last,
                    "lookahead violation: a cross-shard delivery at {} lands inside the \
                     window that ends at {} — some message bypassed the network's minimum \
                     latency (reliable send_after across shards?); widen the latency floor \
                     or run with one shard",
                    key.at,
                    last,
                );
                let target = self.placement.shard_of(delivery.0);
                shards[target].queue.push(key, delivery);
            }
            shards[s].crossbox = crossed;
        }
        for shard in shards.iter_mut().filter(|_| !ops.is_empty()) {
            ops.iter().for_each(|op| shard.net.apply_op(op));
        }
        drop(shards);
        self.stats.windows += 1;
        self.stats.drain_driver += drained - clock;
        self.stats.wait += waited - drained;
        self.stats.barrier += waited.elapsed();
        self.stats.drain_helpers += Duration::from_nanos(job.helper_ns.load(Ordering::Relaxed));
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed), the queues drain, or an actor stops the
    /// world; the clock then reads at least `deadline`, as a world's does.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let before = self.events_processed();
        while !self.stopped {
            // Jump the window to the global next event or restart — quiet
            // stretches of simulated time cost nothing.
            let Some(t) = self
                .shards
                .iter()
                .filter_map(|s| s.lock().expect("shard mutex").next_time())
                .min()
            else {
                break;
            };
            if t > deadline {
                break;
            }
            // The window: the override, or the network's minimum latency
            // now (fault drivers may have lowered it), cut at the deadline.
            let lookahead = self.shards[0]
                .lock()
                .expect("shard mutex")
                .net
                .min_latency();
            let width = self.window.unwrap_or(lookahead).as_micros().max(1);
            let last = (t + SimDuration::from_micros(width - 1)).min(deadline);
            self.window(last, self.threads, move |shard, names| {
                shard.deliver_through(last, names)
            });
        }
        self.now = self.now.max(deadline);
        self.events_processed() - before
    }

    /// Dismantle the run: merge every shard's telemetry, network
    /// statistics and census into one deterministic account (telemetry
    /// ordered by `(time, shard, record)`) and hand back the actors for
    /// inspection.
    pub fn finish(self) -> ParFinished<M> {
        let mut actors: Vec<Option<Box<dyn Actor<M> + Send>>> =
            (0..self.names.len()).map(|_| None).collect();
        let mut telemetry = self.master_collector;
        let mut net_stats = NetStats::default();
        let mut census = BTreeMap::new();
        let mut events_processed = 0;
        let mut dropped_down = 0;

        // Each shard's stream is already time-sorted, so a stable sort on
        // time alone yields `(at, shard, in-shard order)`. Records
        // re-record through the master collector so interning and ring
        // eviction happen once, deterministically.
        let mut staged: Vec<obs::EventRecord> = Vec::new();
        for shard in self.shards.iter() {
            let mut shard = shard.lock().expect("shard mutex");
            events_processed += shard.events;
            dropped_down += shard.dropped_down;
            net_stats.merge(shard.net.stats());
            for (kind, count) in &shard.census {
                *census.entry(*kind).or_default() += count;
            }
            staged.extend(shard.collector.iter().map(|r| r.to_record()));
            for (id, slot) in shard.actors.iter_mut().enumerate() {
                if let Some(actor) = slot.take() {
                    actors[id] = Some(actor);
                }
            }
        }
        staged.sort_by_key(|rec| rec.at_us);
        for rec in staged {
            telemetry.record(rec.at_us, &rec.actor, rec.event);
        }

        ParFinished {
            actors,
            names: Arc::try_unwrap(self.names).unwrap_or_else(|a| (*a).clone()),
            telemetry,
            net_stats,
            census,
            events_processed,
            dropped_down,
            now: self.now,
        }
    }
}

/// What a finished parallel run leaves behind: merged streams and the
/// actors, inspectable exactly like a classic [`World`].
pub struct ParFinished<M> {
    actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
    names: Vec<String>,
    /// The merged typed event stream.
    pub telemetry: Collector,
    /// Per-link delivery statistics summed across shard replicas.
    pub net_stats: NetStats,
    /// Deliveries per kind summed across shards, as
    /// [`World::census`] would read (empty unless the world was told to
    /// [`World::count_deliveries_by`]).
    pub census: BTreeMap<&'static str, u64>,
    /// Total events processed across all shards.
    pub events_processed: u64,
    /// Deliveries dropped because their recipient was down, summed across
    /// shards, as [`World::dropped_down`] would read.
    pub dropped_down: u64,
    /// Virtual time when the run ended.
    pub now: SimTime,
}

impl<M: 'static> ParFinished<M> {
    /// Inspect a concrete actor by id.
    pub fn get<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        self.actors.get(id)?.as_deref()?.downcast_ref::<T>()
    }

    /// The registered display name of an actor.
    pub fn name_of(&self, id: ActorId) -> &str {
        &self.names[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use obs::Event;

    #[derive(Debug, Clone)]
    enum Msg {
        Hop(u32),
        Probe,
        Kick,
    }

    /// Gossips over the network ring: every hop emits telemetry, consumes
    /// randomness, and forwards — so cross-shard traffic, RNG streams,
    /// span ids, and the merged output stream are all exercised.
    struct Gossip {
        peers: usize,
        received: u32,
    }
    impl Actor<Msg> for Gossip {
        fn name(&self) -> String {
            "gossip".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let next = (ctx.self_id + 1) % self.peers;
            ctx.send_net(next, Msg::Hop(24));
        }
        fn on_message(&mut self, _f: ActorId, m: Msg, ctx: &mut Context<'_, Msg>) {
            let Msg::Hop(left) = m else { return };
            self.received += 1;
            let span = obs::next_span_id();
            ctx.emit(Event::SpanHop {
                span,
                layer: "gossip".into(),
                action: obs::SpanAction::Raised,
                scope: format!("hop {left}"),
            });
            let _ = ctx.rng.range_u64(1, 100);
            if left > 0 {
                let next = (ctx.self_id + 1) % self.peers;
                ctx.send_net(next, Msg::Hop(left - 1));
            }
        }
    }

    fn gossip_world(seed: u64, peers: usize) -> World<Msg> {
        let mut w: World<Msg> = World::new(seed);
        for _ in 0..peers {
            w.add_actor(Box::new(Gossip { peers, received: 0 }));
        }
        w
    }

    /// One full sharded run, reduced to its observable outputs.
    fn run_sharded(
        shards: usize,
        threads: usize,
        window: Option<SimDuration>,
    ) -> (String, u64, SimTime) {
        let mut cfg = ParConfig::new(shards, threads);
        cfg.window = window;
        let mut pw = gossip_world(7, 12).into_parallel(cfg);
        pw.run_until(SimTime::from_millis(500));
        let fin = pw.finish();
        (
            fin.telemetry.to_jsonl_with_meta(),
            fin.events_processed,
            fin.now,
        )
    }

    #[test]
    fn output_is_bit_identical_across_thread_counts() {
        let base = run_sharded(4, 1, None);
        for threads in [2, 3, 8] {
            let other = run_sharded(4, threads, None);
            assert_eq!(base.0, other.0, "telemetry must match at {threads} threads");
            assert_eq!(
                base.1, other.1,
                "event count must match at {threads} threads"
            );
            assert_eq!(
                base.2, other.2,
                "final time must match at {threads} threads"
            );
        }
    }

    #[test]
    fn output_is_independent_of_window_width() {
        // Any sound window width only re-batches the drain; it never
        // reorders keys. 200µs is well under the 1ms default latency.
        let auto = run_sharded(4, 8, None);
        let narrow = run_sharded(4, 8, Some(SimDuration::from_micros(200)));
        assert_eq!(auto.0, narrow.0);
        assert_eq!(auto.1, narrow.1);
    }

    #[test]
    fn cross_shard_rings_complete_and_actors_are_inspectable() {
        let peers = 12;
        let mut pw = gossip_world(7, peers).into_parallel(ParConfig::new(4, 2));
        // Drive in two slices; inspect between them like a harness would.
        pw.run_until(SimTime::from_millis(5));
        let early: u32 = (0..peers)
            .map(|id| pw.with_actor::<Gossip, _>(id, |g| g.received).unwrap())
            .sum();
        pw.run_until(SimTime::from_millis(500));
        let fin = pw.finish();
        let total: u32 = (0..peers)
            .map(|id| fin.get::<Gossip>(id).unwrap().received)
            .sum();
        // 12 rings of 25 hops each, default network never loses.
        assert_eq!(total, 12 * 25);
        assert!(early < total, "mid-run inspection saw a finished world");
        assert_eq!(fin.name_of(0), "gossip");
    }

    /// Stops the world after receiving a fixed number of probes.
    struct Stopper {
        seen: u32,
        cap: u32,
    }
    impl Actor<Msg> for Stopper {
        fn name(&self) -> String {
            "stopper".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send_self_after(SimDuration::from_millis(1), Msg::Probe);
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, ctx: &mut Context<'_, Msg>) {
            self.seen += 1;
            if self.seen >= self.cap {
                ctx.stop_world();
            } else {
                ctx.send_self_after(SimDuration::from_millis(1), Msg::Probe);
            }
        }
    }

    #[test]
    fn stop_world_takes_effect_at_the_barrier_deterministically() {
        let run = |threads: usize| {
            let mut w: World<Msg> = World::new(3);
            w.add_actor(Box::new(Stopper { seen: 0, cap: 5 }));
            for _ in 0..7 {
                w.add_actor(Box::new(Gossip {
                    peers: 8,
                    received: 0,
                }));
            }
            let mut pw = w.into_parallel(ParConfig::new(4, threads));
            pw.run_until(SimTime::from_secs(10));
            assert!(pw.stopped());
            let fin = pw.finish();
            (
                fin.telemetry.to_jsonl_with_meta(),
                fin.events_processed,
                fin.now,
            )
        };
        let base = run(1);
        assert_eq!(base, run(2));
        assert_eq!(base, run(8));
    }

    /// Records payload order, to pin external-injection FIFO.
    struct Recorder {
        got: Vec<u32>,
    }
    impl Actor<Msg> for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }
        fn on_message(&mut self, _f: ActorId, m: Msg, _ctx: &mut Context<'_, Msg>) {
            if let Msg::Hop(v) = m {
                self.got.push(v);
            }
        }
    }

    #[test]
    fn same_time_injections_arrive_in_injection_order() {
        let mut w: World<Msg> = World::new(1);
        let target = w.add_actor(Box::new(Recorder { got: Vec::new() }));
        for _ in 0..5 {
            w.add_actor(Box::new(Recorder { got: Vec::new() }));
        }
        for v in 0..8 {
            w.inject(target, Msg::Hop(v));
        }
        let mut pw = w.into_parallel(ParConfig::new(3, 8));
        pw.run_until(SimTime::from_millis(1));
        let fin = pw.finish();
        assert_eq!(
            fin.get::<Recorder>(target).unwrap().got,
            (0..8).collect::<Vec<_>>()
        );
    }

    /// Records who each `Hop` came from.
    struct Senders {
        got: Vec<(ActorId, u32)>,
    }
    impl Actor<Msg> for Senders {
        fn name(&self) -> String {
            "senders".into()
        }
        fn on_message(&mut self, from: ActorId, m: Msg, _ctx: &mut Context<'_, Msg>) {
            if let Msg::Hop(v) = m {
                self.got.push((from, v));
            }
        }
    }

    /// Greets one peer over the network at start-up, with its own id.
    struct Greeter {
        to: ActorId,
    }
    impl Actor<Msg> for Greeter {
        fn name(&self) -> String {
            "greeter".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send_net(self.to, Msg::Hop(ctx.self_id as u32));
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, _ctx: &mut Context<'_, Msg>) {}
    }

    /// The queue keeps no sender: a delivery's `from` is its key's source,
    /// and an injection, keyed `EXTERNAL`, comes from its recipient — on a
    /// world, and on its sharded runs, whose start-up barrier re-routes the
    /// queued injections.
    #[test]
    fn a_handler_sees_its_sender_and_an_injection_comes_from_its_recipient() {
        let build = || {
            let mut w: World<Msg> = World::new(1);
            let r = 2;
            for id in 0..5 {
                if id == r {
                    w.add_actor(Box::new(Senders { got: Vec::new() }));
                } else {
                    w.add_actor(Box::new(Greeter { to: r }));
                }
            }
            w.inject(r, Msg::Hop(99));
            w.inject_after(SimDuration::from_millis(3), r, Msg::Hop(98));
            w
        };
        let want = vec![(2, 99), (0, 0), (1, 1), (3, 3), (4, 4), (2, 98)];
        let horizon = SimTime::from_millis(10);
        let mut world = build();
        world.run_until(horizon);
        assert_eq!(world.get::<Senders>(2).unwrap().got, want);
        for shards in [1, 2, 3] {
            let mut pw = build().into_parallel(ParConfig::new(shards, 2));
            pw.run_until(horizon);
            let got = pw.with_actor(2, |s: &Senders| s.got.clone());
            assert_eq!(got.as_ref(), Some(&want), "{shards} shards");
        }
    }

    /// A fault driver: severs one link mid-run through the deferred-op
    /// path.
    struct Cutter {
        link: (ActorId, ActorId),
    }
    impl Actor<Msg> for Cutter {
        fn name(&self) -> String {
            "cutter".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send_self_after(SimDuration::from_millis(10), Msg::Kick);
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, ctx: &mut Context<'_, Msg>) {
            ctx.net.partition(self.link.0, self.link.1);
        }
    }

    /// Sends a probe to a fixed peer every 2ms, forever.
    struct Beacon {
        to: ActorId,
        sent: u32,
    }
    impl Actor<Msg> for Beacon {
        fn name(&self) -> String {
            "beacon".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send_self_after(SimDuration::from_millis(2), Msg::Kick);
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, ctx: &mut Context<'_, Msg>) {
            self.sent += 1;
            ctx.send_net(self.to, Msg::Probe);
            ctx.send_self_after(SimDuration::from_millis(2), Msg::Kick);
        }
    }

    /// Counts probes received (distinct type from Beacon so both can be
    /// downcast unambiguously).
    struct Sink {
        got: u32,
    }
    impl Actor<Msg> for Sink {
        fn name(&self) -> String {
            "sink".into()
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, _ctx: &mut Context<'_, Msg>) {
            self.got += 1;
        }
    }

    #[test]
    fn deferred_net_ops_hit_every_replica_and_stay_deterministic() {
        let run = |threads: usize| {
            let mut w: World<Msg> = World::new(5);
            let driver = w.add_actor(Box::new(Cutter { link: (1, 2) }));
            let beacon = w.add_actor(Box::new(Beacon { to: 2, sent: 0 }));
            let sink = w.add_actor(Box::new(Sink { got: 0 }));
            assert_eq!((driver, beacon, sink), (0, 1, 2));
            // Three actors, three shards: the driver's partition must
            // cross two shard boundaries to stop the beacon's deliveries.
            let mut pw = w.into_parallel(ParConfig::new(3, threads));
            pw.run_until(SimTime::from_millis(40));
            let fin = pw.finish();
            let b = fin.get::<Beacon>(beacon).unwrap().sent;
            let s = fin.get::<Sink>(sink).unwrap().got;
            (b, s, fin.net_stats.dropped_total())
        };
        let (sent, got, dropped) = run(1);
        assert!(sent >= 15, "beacon kept ticking: {sent}");
        assert!(
            got < sent,
            "the partition never took effect ({got} of {sent} arrived)"
        );
        assert!(got >= 4, "probes before the fault must arrive: {got}");
        assert_eq!(dropped, u64::from(sent - got));
        assert_eq!((sent, got, dropped), run(2));
        assert_eq!((sent, got, dropped), run(8));
    }

    /// Reliable zero-latency sends must stay inside a shard; crossing a
    /// boundary with one is exactly the bug the barrier assertion exists
    /// to catch.
    struct IllegalSender;
    impl Actor<Msg> for IllegalSender {
        fn name(&self) -> String {
            "illegal".into()
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, ctx: &mut Context<'_, Msg>) {
            ctx.send(1, Msg::Probe);
        }
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn cross_shard_reliable_send_trips_the_lookahead_assertion() {
        let mut w: World<Msg> = World::new(9);
        let a = w.add_actor(Box::new(IllegalSender));
        w.add_actor(Box::new(Sink { got: 0 }));
        w.inject(a, Msg::Kick);
        let mut pw = w.into_parallel(ParConfig::new(2, 1));
        pw.run_until(SimTime::from_millis(5));
    }

    /// The clock stops at the deadline on every shard count: an event at
    /// exactly `h` runs, one at `h` + 1 µs waits for the next call.
    #[test]
    fn run_until_stops_the_clock_at_the_deadline() {
        let h = SimTime::from_millis(5);
        let after = h + SimDuration::from_micros(1);
        for shards in [1, 2, 4] {
            let mut w: World<Msg> = World::new(1);
            w.add_actor(Box::new(Sink { got: 0 }));
            let r = w.add_actor(Box::new(Recorder { got: Vec::new() }));
            w.inject_after(SimDuration::from_millis(5), r, Msg::Hop(0));
            w.inject_after(SimDuration::from_micros(5_001), r, Msg::Hop(1));
            let mut pw = w.into_parallel(ParConfig::new(shards, 2));
            let got = |pw: &ParWorld<Msg>| pw.with_actor(r, |x: &Recorder| x.got.clone());
            assert_eq!(pw.run_until(h), 1, "{shards} shards");
            assert_eq!((pw.now(), got(&pw)), (h, Some(vec![0])), "{shards} shards");
            assert_eq!(pw.run_until(after), 1, "{shards} shards");
            assert_eq!((pw.now(), got(&pw)), (after, Some(vec![0, 1])));
        }
    }

    #[test]
    fn two_successive_runs_are_one_long_one() {
        let run = |deadlines: &[u64]| {
            let mut pw = gossip_world(7, 12).into_parallel(ParConfig::new(2, 2));
            for &us in deadlines {
                pw.run_until(SimTime::from_micros(us));
            }
            let fin = pw.finish();
            (
                fin.telemetry.to_jsonl_with_meta(),
                fin.events_processed,
                fin.now,
            )
        };
        let whole = run(&[40_000]);
        assert_eq!(whole.2, SimTime::from_millis(40));
        // Cut on an instant that holds events, just after one, and twice.
        for cuts in [
            &[7_000, 40_000][..],
            &[7_001, 40_000],
            &[999, 12_000, 40_000],
        ] {
            assert_eq!(run(cuts), whole, "cut at {cuts:?}");
        }
    }

    /// The first ids one a shard, then contiguous ranges, the larger
    /// ones first; a condor world's servers are its heads.
    #[test]
    fn placement_deals_heads_then_cuts_ranges() {
        let p = Placement::new(20, 8);
        let ranges: Vec<_> = (0..8).map(|s| p.range(s)).collect();
        assert_eq!(
            ranges,
            [
                8..10,
                10..12,
                12..14,
                14..16,
                16..17,
                17..18,
                18..19,
                19..usize::MAX
            ]
        );
        let shards: Vec<usize> = (0..22).map(|id| p.shard_of(id)).collect();
        let want = [
            0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 7, 7,
        ];
        assert_eq!(shards, want);
        // Five matchmakers and a schedd over 8 shards: one server a shard.
        let fed = Placement::new(5 + 1 + 20_000, 8);
        assert_eq!(
            (0..6).map(|id| fed.shard_of(id)).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5]
        );
        assert_eq!(Placement::new(3, 8).shards(), 3);
        assert_eq!(Placement::new(0, 8).range(0), 1..usize::MAX);
    }

    /// Greets every actor over the network when kicked, and every actor
    /// the placement puts on its own shard reliably too: a reliable send
    /// the router took off the shard trips the lookahead assertion, and a
    /// greeting routed to the wrong shard is swallowed there.
    struct Roll {
        placement: Placement,
        actors: usize,
        started: u32,
        net_from: Vec<ActorId>,
        local_from: Vec<ActorId>,
    }
    impl Actor<Msg> for Roll {
        fn name(&self) -> String {
            "roll".into()
        }
        fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.started += 1;
        }
        fn on_message(&mut self, from: ActorId, m: Msg, ctx: &mut Context<'_, Msg>) {
            match m {
                Msg::Kick => {
                    let home = self.placement.shard_of(ctx.self_id);
                    for to in 0..self.actors {
                        ctx.send_net(to, Msg::Hop(0));
                        if self.placement.shard_of(to) == home {
                            ctx.send(to, Msg::Probe);
                        }
                    }
                }
                Msg::Hop(_) => self.net_from.push(from),
                Msg::Probe => self.local_from.push(from),
            }
        }
    }

    /// Start-up, the send path, the barrier and `with_actor` all place
    /// actors where [`Placement`] says.
    #[test]
    fn every_router_follows_the_placement() {
        let n = 11;
        for shards in [1, 2, 3] {
            let placement = Placement::new(n, shards);
            let mut w: World<Msg> = World::new(4);
            for id in 0..n {
                w.add_actor(Box::new(Roll {
                    placement,
                    actors: n,
                    started: 0,
                    net_from: Vec::new(),
                    local_from: Vec::new(),
                }));
                w.inject(id, Msg::Kick);
            }
            let mut pw = w.into_parallel(ParConfig::new(shards, 2));
            pw.run_until(SimTime::from_millis(10));
            let crossed = (0..n)
                .flat_map(|a| (0..n).map(move |b| (a, b)))
                .filter(|&(a, b)| placement.shard_of(a) != placement.shard_of(b))
                .count();
            // Each of the n injections is handed out at the start-up barrier.
            let stats = pw.stats();
            assert_eq!(stats.crossings as usize, crossed + n, "{shards} shards");
            assert_eq!(stats.events.len(), shards);
            for id in 0..n {
                let seen = pw.with_actor(id, |r: &Roll| {
                    (r.started, r.net_from.clone(), r.local_from.clone())
                });
                let (started, mut net_from, mut local_from) =
                    seen.expect("with_actor reaches every id");
                net_from.sort_unstable();
                local_from.sort_unstable();
                assert_eq!(started, 1, "actor {id} starts once, {shards} shards");
                assert_eq!(net_from, (0..n).collect::<Vec<_>>(), "actor {id}");
                let home = placement.shard_of(id);
                let locals: Vec<ActorId> =
                    (0..n).filter(|&a| placement.shard_of(a) == home).collect();
                assert_eq!(local_from, locals, "actor {id}, {shards} shards");
            }
        }
    }

    /// Ticks every `period`, recording each tick and probing the next
    /// actor over the network; arms its tick at start and at restart, and
    /// counts what it hears.
    struct Pulse {
        period: SimDuration,
        peers: usize,
        life: (u32, u32, u32),
    }
    impl Actor<Msg> for Pulse {
        fn name(&self) -> String {
            "pulse".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.life.0 += 1;
            ctx.send_self_after(self.period, Msg::Kick);
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
            self.life.1 += 1;
            ctx.send_self_after(self.period, Msg::Kick);
        }
        fn on_message(&mut self, _f: ActorId, m: Msg, ctx: &mut Context<'_, Msg>) {
            match m {
                Msg::Kick => {
                    ctx.emit(Event::IoOp {
                        op: format!("tick {}", ctx.self_id),
                        outcome: obs::IoOutcome::Ok,
                    });
                    ctx.send_net((ctx.self_id + 1) % self.peers, Msg::Probe);
                    ctx.send_self_after(self.period, Msg::Kick);
                }
                _ => self.life.2 += 1,
            }
        }
    }

    /// The crash rule is the engine's, on every shard: a world and its
    /// runs at one and three shards agree on the stream, the events, the
    /// clock, the deliveries dropped while down, the census and each
    /// actor's starts, restarts and probes heard, with windows on actors
    /// of all three shards — one down from the start, one down twice.
    #[test]
    fn a_crash_is_the_same_run_on_every_shard_count() {
        // Prime periods around 1 ms: no two ticks share an instant, so the
        // sharded merge orders the stream as the world does.
        let periods = [997, 1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049];
        let ms = |us: u64| SimTime::from_micros(us);
        let windows = [
            (2, ms(0)..ms(12_345)),
            (4, ms(10_000)..ms(23_500)),
            (6, ms(5_000)..ms(40_000)),
            (7, ms(3_000)..ms(4_000)),
            (7, ms(30_000)..ms(31_500)),
        ];
        let build = || {
            let mut w: World<Msg> = World::new(11);
            for us in periods {
                w.add_actor(Box::new(Pulse {
                    period: SimDuration::from_micros(us),
                    peers: periods.len(),
                    life: (0, 0, 0),
                }));
            }
            for (id, window) in windows.clone() {
                w.take_down(id, window);
            }
            w.count_deliveries_by(kind);
            w
        };
        let placement = Placement::new(periods.len(), 3);
        let homes: Vec<usize> = windows
            .iter()
            .map(|(id, _)| placement.shard_of(*id))
            .collect();
        assert_eq!(homes, [2, 0, 1, 2, 2]);
        let horizon = SimTime::from_millis(60);
        let mut world = build();
        world.run_until(horizon);
        let lives = |get: &dyn Fn(ActorId) -> (u32, u32, u32)| -> Vec<(u32, u32, u32)> {
            (0..periods.len()).map(get).collect()
        };
        let want = (
            world.telemetry().to_jsonl_with_meta(),
            world.events_processed(),
            world.now(),
            world.dropped_down(),
            world.census(),
            lives(&|id| world.get::<Pulse>(id).unwrap().life),
        );
        assert!(want.3 > 0, "the windows must drop something");
        assert_eq!(want.5[2], (1, 0, want.5[2].2), "down from the start");
        assert_eq!((want.5[7].0, want.5[7].1), (1, 2), "down twice");
        for shards in [1, 3] {
            let mut pw = build().into_parallel(ParConfig::new(shards, 2));
            pw.run_until(horizon);
            let fin = pw.finish();
            let got = (
                fin.telemetry.to_jsonl_with_meta(),
                fin.events_processed,
                fin.now,
                fin.dropped_down,
                fin.census.clone(),
                lives(&|id| fin.get::<Pulse>(id).unwrap().life),
            );
            assert_eq!(got, want, "{shards} shard(s)");
        }
    }

    fn kind(m: &Msg) -> &'static str {
        match m {
            Msg::Hop(_) => "hop",
            Msg::Probe => "probe",
            Msg::Kick => "kick",
        }
    }

    /// A world and its one-shard parallel run are one run, bit for bit —
    /// a fault driver included: at 10 ms it severs the sink's link to the
    /// beacon in the instant the beacon, a later sender, probes it, so the
    /// probe is lost only if the mutation applies at once, as a world
    /// applies it.
    #[test]
    fn a_world_is_its_own_one_shard_run() {
        let build = || {
            let mut w = gossip_world(5, 8);
            w.add_actor(Box::new(Cutter { link: (9, 10) }));
            w.add_actor(Box::new(Beacon { to: 10, sent: 0 }));
            w.add_actor(Box::new(Sink { got: 0 }));
            w.count_deliveries_by(kind);
            w
        };
        let horizon = SimTime::from_millis(40);
        obs::reset_span_ids(0);
        let mut world = build();
        world.run_until(horizon);
        let net = world.net().stats().clone();
        assert!(net.dropped_total() > 0, "the fault must bite");
        let want = (
            world.telemetry().to_jsonl_with_meta(),
            world.events_processed(),
            world.now(),
            net,
            world.census(),
        );
        for threads in [1, 2] {
            obs::reset_span_ids(0);
            let mut pw = build().into_parallel(ParConfig::new(1, threads));
            pw.run_until(horizon);
            let fin = pw.finish();
            let got = (
                fin.telemetry.to_jsonl_with_meta(),
                fin.events_processed,
                fin.now,
                fin.net_stats,
                fin.census,
            );
            assert_eq!(got, want, "{threads} thread(s)");
        }
    }
}
