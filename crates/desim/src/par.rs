//! Deterministic intra-world parallelism: sharded actors, conservative
//! time windows, bit-identical output at any thread count.
//!
//! A single [`World`] dispatches on one core. [`ParWorld`] converts a
//! *built* (not yet started) world into a sharded run: actors are
//! assigned round-robin to `shards` shards, each shard owning its own
//! event queue, RNG stream, network replica, telemetry staging, and span
//! range. Simulated time advances in **conservative windows** no wider
//! than the network's minimum latency (the lookahead): inside a window,
//! every shard drains only its own events, so shards never contend; any
//! message to another shard is buffered and routed at the **window
//! barrier**. Because every cross-shard message is a network send with
//! latency ≥ the lookahead, it always lands in a *later* window — no
//! shard can ever receive an event "from the past".
//!
//! ## Why the output is bit-identical at any thread count
//!
//! Thread count decides only *who* drains a shard, never *what* the
//! shard drains:
//!
//! * Events are ordered by a canonical key `(time, source, per-source
//!   seq)` ([`crate::queue::EventKey`]) that is a pure function of the
//!   sending actor's execution — not of push order, not of which worker
//!   delivered it to the queue. Same-time deliveries drain in source-id
//!   order, FIFO per source.
//! * Each shard's RNG is forked from the world seed by shard index;
//!   each shard's span ids come from a private range re-pinned around
//!   every drain; each shard's telemetry is staged locally and merged at
//!   the end in `(time, shard, record)` order.
//! * Network topology mutations made by actors (fault drivers) are
//!   *deferred*: recorded as [`crate::net::NetOp`]s and applied to every
//!   shard's replica — including the originator's — at the window
//!   barrier, in shard order. All replicas are therefore identical
//!   within any window, which keeps the window width a sound lookahead
//!   bound even when a mutation lowers a link's latency.
//! * A `stop_world()` takes effect at the window barrier: every shard
//!   finishes the window, then the run stops.
//!
//! The output is therefore a pure function of `(world, shards, window)`.
//! "Sequential" is simply `threads = 1` of the same configuration —
//! which is what the determinism gates compare against. (The classic
//! [`World::run`] loop keeps its own global-FIFO tie-break and its
//! single RNG stream, so its histories are *not* comparable to a sharded
//! run; all its pinned artifacts are untouched by this module.)
//!
//! Worker scheduling rides the process-wide [`crate::pool`]: each window
//! fans shard-drain claims out to the pool, and the driving thread
//! claims work inline, so a saturated pool degrades to sequential
//! draining instead of deadlocking — even when whole parallel worlds run
//! inside a parallel sweep.

use crate::actor::{Actor, ActorId, Context, Envelope};
use crate::net::{NetOp, NetStats, Network};
use crate::queue::{EventKey, KeyedEventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::World;
use obs::Collector;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            shards: 8,
            threads: crate::sweep::default_width(),
            window: None,
        }
    }
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

/// One shard: a disjoint slice of the world with everything it needs to
/// drain a window without touching any other shard.
struct Shard<M> {
    /// This shard's index (fixed at conversion).
    index: usize,
    /// Full-length slot table; only this shard's actors are `Some`.
    actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
    queue: KeyedEventQueue<Envelope<M>>,
    rng: SimRng,
    net: Network,
    collector: Collector,
    /// Reused handler outbox (same discipline as [`World`]).
    outbox: Vec<(SimTime, Envelope<M>)>,
    /// Cross-shard sends buffered for the window barrier. Reused: drained
    /// by the barrier, capacity kept.
    crossbox: Vec<(EventKey, Envelope<M>)>,
    /// Per-sender send counters (indexed by global actor id; only this
    /// shard's actors advance theirs).
    send_seq: Vec<u64>,
    /// Next span id this shard allocates; bracketed around every drain.
    span_next: u64,
    stop: bool,
    events: u64,
}

impl<M: 'static> Shard<M> {
    /// Route one outgoing envelope: same shard → own queue, other shard →
    /// crossbox (merged at the barrier). The canonical key is assigned
    /// here, from the *sender's* counter, so it is identical no matter
    /// which thread runs this shard.
    #[inline]
    fn route(&mut self, at: SimTime, env: Envelope<M>, assignment: &[usize]) {
        let src = env.from;
        let seq = self.send_seq[src];
        self.send_seq[src] = seq + 1;
        let key = EventKey {
            at,
            src: src as u64,
            seq,
        };
        if assignment[env.to] == self.index {
            self.queue.push(key, env);
        } else {
            self.crossbox.push((key, env));
        }
    }

    /// Drain every event strictly before `end` (and not after `limit`).
    fn drain_window(
        &mut self,
        end: SimTime,
        limit: SimTime,
        assignment: &[usize],
        names: &[String],
    ) {
        let saved = obs::peek_span_id();
        obs::reset_span_ids(self.span_next);
        while !self.stop {
            let Some(t) = self.queue.peek_time() else {
                break;
            };
            if t >= end || t > limit {
                break;
            }
            let (key, env) = self.queue.pop().expect("peeked");
            self.events += 1;
            let Some(slot) = self.actors.get_mut(env.to) else {
                continue; // message to a never-registered actor: dropped
            };
            let Some(mut actor) = slot.take() else {
                continue;
            };
            {
                let mut ctx = Context {
                    now: key.at,
                    self_id: env.to,
                    outbox: &mut self.outbox,
                    rng: &mut self.rng,
                    net: &mut self.net,
                    collector: &mut self.collector,
                    actor_name: &names[env.to],
                    stop_requested: &mut self.stop,
                };
                actor.on_message(env.from, env.msg, &mut ctx);
            }
            self.actors[env.to] = Some(actor);
            // drain(..) preserves send order (per-sender seq depends on
            // it) and keeps the buffer's capacity, same as `World::step`.
            let mut outbox = std::mem::take(&mut self.outbox);
            for (at, env) in outbox.drain(..) {
                self.route(at, env, assignment);
            }
            self.outbox = outbox;
        }
        self.span_next = obs::peek_span_id();
        obs::reset_span_ids(saved);
    }
}

/// State shared between the driver and the pool helpers of one window.
struct WindowJob<M> {
    shards: Arc<Vec<Mutex<Shard<M>>>>,
    assignment: Arc<Vec<usize>>,
    names: Arc<Vec<String>>,
    next: AtomicUsize,
    done: Mutex<usize>,
    done_cv: Condvar,
    end: SimTime,
    limit: SimTime,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<M: 'static> WindowJob<M> {
    /// The claim loop: grab unclaimed shards and drain them. Run by the
    /// driver inline and by any pool helpers that arrive in time; every
    /// shard is drained exactly once regardless of who shows up.
    fn drain_claims(&self) {
        loop {
            let s = self.next.fetch_add(1, Ordering::SeqCst);
            if s >= self.shards.len() {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut shard = self.shards[s].lock().expect("shard mutex");
                shard.drain_window(self.end, self.limit, &self.assignment, &self.names);
            }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().expect("panic slot");
                slot.get_or_insert(payload);
            }
            let mut d = self.done.lock().expect("done counter");
            *d += 1;
            self.done_cv.notify_all();
        }
    }

    /// Block until every shard of this window is drained, then surface
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
    assignment: Arc<Vec<usize>>,
    names: Arc<Vec<String>>,
    threads: usize,
    window: Option<SimDuration>,
    now: SimTime,
    started: bool,
    stopped: bool,
    /// The world's original collector: pre-run records stay, shard staging
    /// is merged in behind them by [`ParWorld::finish`].
    master_collector: Collector,
}

impl<M: Send + 'static> World<M> {
    /// Convert a built world into a sharded parallel run. Must be called
    /// before the world starts (no events dispatched yet); injected
    /// messages carry over.
    pub fn into_parallel(self, cfg: ParConfig) -> ParWorld<M> {
        ParWorld::from_world(self, cfg)
    }
}

impl<M: Send + 'static> ParWorld<M> {
    fn from_world(mut world: World<M>, cfg: ParConfig) -> ParWorld<M> {
        assert!(
            !world.started,
            "a world must be converted to a ParWorld before it starts"
        );
        let n = world.actors.len();
        let shards_n = cfg.shards.max(1).min(n.max(1));
        let assignment: Vec<usize> = (0..n).map(|id| id % shards_n).collect();
        let span_base = obs::peek_span_id();

        let mut shards: Vec<Shard<M>> = (0..shards_n)
            .map(|s| Shard {
                index: s,
                actors: (0..n).map(|_| None).collect(),
                queue: KeyedEventQueue::new(),
                rng: world.rng.fork(&format!("par-shard-{s}")),
                net: {
                    let mut replica = world.net.clone();
                    replica.set_op_recording(true);
                    replica
                },
                collector: if world.collector.is_enabled() {
                    Collector::with_capacity(world.collector.capacity())
                } else {
                    Collector::disabled()
                },
                outbox: Vec::new(),
                crossbox: Vec::new(),
                send_seq: vec![0; n],
                span_next: span_base + (s as u64) * SHARD_SPAN_STRIDE,
                stop: false,
                events: 0,
            })
            .collect();

        for (id, slot) in world.actors.iter_mut().enumerate() {
            let actor = slot.take().expect("actor present before start");
            shards[assignment[id]].actors[id] = Some(actor);
        }

        // Injections made before conversion: external sources order after
        // every actor at the same instant, in injection order.
        let mut inject_seq = 0u64;
        while let Some((at, env)) = world.queue.pop() {
            let key = EventKey {
                at,
                src: EventKey::EXTERNAL,
                seq: inject_seq,
            };
            inject_seq += 1;
            shards[assignment[env.to]].queue.push(key, env);
        }

        ParWorld {
            shards: Arc::new(shards.into_iter().map(Mutex::new).collect()),
            assignment: Arc::new(assignment),
            names: Arc::new(std::mem::take(&mut world.names)),
            threads: cfg.threads.max(1),
            window: cfg.window,
            now: world.now,
            started: false,
            stopped: false,
            master_collector: std::mem::replace(&mut world.collector, Collector::disabled()),
        }
    }

    /// Current virtual time (the window frontier).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Inspect a concrete actor between runs (e.g. "is the schedd done?"
    /// from a slice-driving harness).
    pub fn with_actor<T: Actor<M>, R>(&self, id: ActorId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let shard = self
            .shards
            .get(*self.assignment.get(id)?)?
            .lock()
            .expect("shard mutex");
        let actor = shard.actors.get(id)?.as_deref()?;
        actor.downcast_ref::<T>().map(f)
    }

    /// The registered display name of an actor.
    pub fn name_of(&self, id: ActorId) -> &str {
        &self.names[id]
    }

    /// Run every actor's `on_start`, sequentially in actor-id order, each
    /// against its own shard's context — so startup is a pure function of
    /// the world, independent of threads.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let mut routed: Vec<(usize, EventKey, Envelope<M>)> = Vec::new();
        for id in 0..self.assignment.len() {
            let s = self.assignment[id];
            let mut guard = self.shards[s].lock().expect("shard mutex");
            let shard = &mut *guard;
            let Some(mut actor) = shard.actors[id].take() else {
                continue;
            };
            let saved = obs::peek_span_id();
            obs::reset_span_ids(shard.span_next);
            {
                let mut ctx = Context {
                    now: self.now,
                    self_id: id,
                    outbox: &mut shard.outbox,
                    rng: &mut shard.rng,
                    net: &mut shard.net,
                    collector: &mut shard.collector,
                    actor_name: &self.names[id],
                    stop_requested: &mut shard.stop,
                };
                actor.on_start(&mut ctx);
            }
            shard.span_next = obs::peek_span_id();
            obs::reset_span_ids(saved);
            shard.actors[id] = Some(actor);
            // Assign canonical keys now (sender's counters live here);
            // push after the lock drops — targets may be other shards.
            let mut outbox = std::mem::take(&mut shard.outbox);
            for (at, env) in outbox.drain(..) {
                let src = env.from;
                let seq = shard.send_seq[src];
                shard.send_seq[src] = seq + 1;
                let key = EventKey {
                    at,
                    src: src as u64,
                    seq,
                };
                routed.push((self.assignment[env.to], key, env));
            }
            shard.outbox = outbox;
            drop(guard);
            for (target, key, env) in routed.drain(..) {
                self.shards[target]
                    .lock()
                    .expect("shard mutex")
                    .queue
                    .push(key, env);
            }
        }
        // Startup topology mutations replicate before the first window.
        self.replicate_net_ops();
        self.collect_stop();
    }

    /// Gather deferred net ops from every shard (in shard order) and
    /// apply them to every replica — the single point where topology
    /// changes take effect.
    fn replicate_net_ops(&self) {
        let mut ops: Vec<NetOp> = Vec::new();
        for s in self.shards.iter() {
            ops.append(&mut s.lock().expect("shard mutex").net.take_pending_ops());
        }
        if ops.is_empty() {
            return;
        }
        for s in self.shards.iter() {
            let mut shard = s.lock().expect("shard mutex");
            for op in &ops {
                shard.net.apply_op(op);
            }
        }
    }

    fn collect_stop(&mut self) {
        for s in self.shards.iter() {
            if s.lock().expect("shard mutex").stop {
                self.stopped = true;
            }
        }
    }

    /// The earliest pending event time across all shards.
    fn next_event_time(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().expect("shard mutex").queue.peek_time())
            .min()
    }

    /// The current window width: the configured override, or the
    /// network's minimum latency (recomputed every barrier, so fault
    /// drivers lowering a link's latency shrink the lookahead with it).
    fn window_width(&self) -> SimDuration {
        match self.window {
            Some(w) => SimDuration::from_micros(w.as_micros().max(1)),
            None => self.shards[0]
                .lock()
                .expect("shard mutex")
                .net
                .min_latency(),
        }
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed), the queues drain, or an actor stops the
    /// world. Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let before: u64 = self.events_processed();
        while !self.stopped {
            // Jump the window to the global next event — quiet stretches
            // of simulated time cost nothing.
            let Some(t) = self.next_event_time() else {
                break;
            };
            if t > deadline {
                break;
            }
            let end = t + self.window_width();
            let job = Arc::new(WindowJob {
                shards: Arc::clone(&self.shards),
                assignment: Arc::clone(&self.assignment),
                names: Arc::clone(&self.names),
                next: AtomicUsize::new(0),
                done: Mutex::new(0),
                done_cv: Condvar::new(),
                end,
                limit: deadline,
                panic: Mutex::new(None),
            });
            // Helpers are *optional* claimers: if the pool is saturated,
            // the inline loop below drains everything by itself.
            let helpers = self
                .threads
                .saturating_sub(1)
                .min(self.shards.len().saturating_sub(1));
            for _ in 0..helpers {
                let job = Arc::clone(&job);
                crate::pool::spawn(move || job.drain_claims());
            }
            job.drain_claims();
            job.wait_all_done();
            self.barrier_merge(end);
            self.now = end;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed() - before
    }

    /// The window barrier: route buffered cross-shard deliveries into
    /// their target shards' queues (asserting the lookahead invariant)
    /// and replicate topology mutations. Runs on the driving thread only.
    fn barrier_merge(&mut self, window_end: SimTime) {
        let mut crossed: Vec<(EventKey, Envelope<M>)> = Vec::new();
        for s in self.shards.iter() {
            crossed.append(&mut s.lock().expect("shard mutex").crossbox);
        }
        for (key, env) in crossed {
            assert!(
                key.at >= window_end,
                "lookahead violation: a cross-shard delivery at {} lands inside the window \
                 ending at {} — some message bypassed the network's minimum latency \
                 (reliable send_after across shards?); widen the latency floor or run \
                 with one shard",
                key.at,
                window_end,
            );
            self.shards[self.assignment[env.to]]
                .lock()
                .expect("shard mutex")
                .queue
                .push(key, env);
        }
        self.replicate_net_ops();
        self.collect_stop();
    }

    /// Dismantle the run: merge every shard's telemetry and network
    /// statistics into one deterministic stream (ordered by `(time, shard,
    /// record)`) and hand back the actors for inspection.
    pub fn finish(self) -> ParFinished<M> {
        let mut actors: Vec<Option<Box<dyn Actor<M> + Send>>> =
            (0..self.assignment.len()).map(|_| None).collect();
        let mut collector = self.master_collector;
        let mut net_stats = NetStats::default();
        let mut events_processed = 0;

        // (at, shard, in-shard order) — each shard's stream is already
        // time-sorted, so a stable sort on time alone yields exactly that
        // order. Records re-record through the master collector so
        // interning and ring eviction happen once, deterministically.
        let mut staged: Vec<(u64, obs::EventRecord)> = Vec::new();
        for shard in self.shards.iter() {
            let mut shard = shard.lock().expect("shard mutex");
            events_processed += shard.events;
            net_stats.merge(shard.net.stats());
            for r in shard.collector.iter() {
                let rec = r.to_record();
                staged.push((rec.at_us, rec));
            }
            for (id, slot) in shard.actors.iter_mut().enumerate() {
                if let Some(actor) = slot.take() {
                    actors[id] = Some(actor);
                }
            }
        }
        staged.sort_by_key(|(at, _)| *at);
        for (_, rec) in staged {
            collector.record(rec.at_us, &rec.actor, rec.event);
        }

        ParFinished {
            actors,
            names: Arc::try_unwrap(self.names).unwrap_or_else(|a| (*a).clone()),
            telemetry: collector,
            net_stats,
            events_processed,
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
    /// Total events processed across all shards.
    pub events_processed: u64,
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
        (fin.telemetry.to_jsonl(), fin.events_processed, fin.now)
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
            (fin.telemetry.to_jsonl(), fin.events_processed, fin.now)
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

    /// A fault driver: downs a host mid-run through the deferred-op path.
    struct Downer {
        victim: ActorId,
    }
    impl Actor<Msg> for Downer {
        fn name(&self) -> String {
            "downer".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send_self_after(SimDuration::from_millis(10), Msg::Kick);
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, ctx: &mut Context<'_, Msg>) {
            ctx.net.set_host_down(self.victim);
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
            let driver = w.add_actor(Box::new(Downer { victim: 2 }));
            let beacon = w.add_actor(Box::new(Beacon { to: 2, sent: 0 }));
            let sink = w.add_actor(Box::new(Sink { got: 0 }));
            assert_eq!((driver, beacon, sink), (0, 1, 2));
            // Three actors, three shards: the driver's host_down must
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
            "host_down never took effect ({got} of {sent} arrived)"
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
}
