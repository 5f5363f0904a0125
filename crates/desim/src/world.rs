//! The simulation engine: actors, clock, event loop — one shard of them.
//!
//! A [`World`] is the one-shard case of the windowed engine
//! ([`crate::par`]): a `Shard` (actors, the keyed queue, the random
//! stream, the network, the collector) plus the actors' names. Everything
//! that runs an actor lives on the shard and serves both drivers — one
//! start-up routine (`Shard::start`), one dispatch step
//! (`Shard::dispatch`) and one keying function (`EventKey::next`):
//! every send is keyed `(time, sender, sender's send count)` and every
//! injection `(time, EXTERNAL, injection count)`, so same-instant
//! deliveries drain in sender-id order, FIFO per sender, however the
//! world is driven. A world and [`World::into_parallel`] with one shard
//! are therefore the same run, bit for bit; with more shards the actors
//! split by [`crate::par::Placement`] — the first ids one a shard, the
//! rest in contiguous ranges — and shard 0 keeps the world's random
//! stream. A shard knows its own actors as its head id and its range, so
//! routing a send is two comparisons; only a send that leaves the shard
//! asks the placement where it goes.
//!
//! An actor's liveness is the engine's too: [`World::take_down`] gives it
//! down windows before the world starts, and the shard's one delivery
//! site drops what reaches it inside one, and every timer it armed
//! before, then brings it back with [`Actor::on_restart`] at the
//! window's end (DESIGN §5l).

use crate::actor::{Actor, ActorId, Context};
use crate::net::Network;
use crate::par::Placement;
use crate::queue::{EventKey, KeyedEventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use obs::Collector;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// While the census is on, every this-many-th dispatch has its handler
/// timed ([`World::census_cost`]).
const COST_EVERY: u64 = 64;

/// A complete simulated system: a set of actors, a pending-event queue, a
/// virtual clock, a network fabric, a random stream, and a typed event
/// collector — one `Shard` holding all of them, and the actors' names.
pub struct World<M> {
    pub(crate) shard: Shard<M>,
    pub(crate) names: Vec<String>,
    /// Injections so far: the sequence of the next [`EventKey::EXTERNAL`] key.
    injected: u64,
    pub(crate) started: bool,
}

/// What one shard of a world owns: enough to run its actors' handlers
/// without touching any other shard. Actor `index` (its head) and the
/// actors of `range` live here; a send to an actor elsewhere waits in
/// `crossbox` for the window barrier ([`crate::par`]). A [`World`] is one
/// shard, whose range is every id but its head 0.
pub(crate) struct Shard<M> {
    pub(crate) index: usize,
    /// The rest of this shard's actors: its range in the [`Placement`].
    range: Range<ActorId>,
    /// Full-length slot table; only this shard's actors are `Some`.
    pub(crate) actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
    /// Pending deliveries as `(recipient, msg)`: the sender is the key's
    /// `src` (see `Shard::dispatch`).
    pub(crate) queue: KeyedEventQueue<(ActorId, M)>,
    pub(crate) rng: SimRng,
    pub(crate) net: Network,
    pub(crate) collector: Collector,
    // Reused across dispatches: drained after each handler, keeping its
    // capacity so steady-state dispatch allocates nothing.
    outbox: Vec<(SimTime, ActorId, M)>,
    pub(crate) crossbox: Vec<(EventKey, (ActorId, M))>,
    /// Sends so far, per sender (indexed by actor id; only this shard's
    /// actors advance theirs).
    pub(crate) sent: Vec<u64>,
    /// The next span id this shard allocates when sharded (the window
    /// driver brackets the thread's counter around each of its drains).
    pub(crate) span_next: u64,
    pub(crate) stop: bool,
    pub(crate) now: SimTime,
    pub(crate) events: u64,
    /// How [`World::count_deliveries_by`] files a message, and the counts.
    pub(crate) census_kind: Option<fn(&M) -> &'static str>,
    pub(crate) census: BTreeMap<&'static str, u64>,
    /// Nanoseconds in the sampled handlers, by kind, while the census is on.
    pub(crate) cost: BTreeMap<&'static str, u64>,
    /// Per actor id, its down windows ([`World::take_down`]); empty in a
    /// world none is taken down in, so the delivery check is one bound.
    pub(crate) lives: Vec<Life>,
    /// This shard's window ends still ahead, as `(end, actor)`, latest
    /// first: the last is the next restart.
    restarts: Vec<(SimTime, ActorId)>,
    /// Deliveries dropped by the crash rule.
    pub(crate) dropped_down: u64,
}

/// How the engine keeps one actor's liveness.
#[derive(Clone, Default)]
pub(crate) struct Life {
    /// Down windows `[from, to)` not yet over, disjoint and latest first:
    /// the last is the current or the next one.
    windows: Vec<(SimTime, SimTime)>,
    /// The actor's send count at its last restart: a self-send numbered
    /// below it was armed before the crash, and the crash forgot it.
    fence: u64,
    /// Whether `on_start` has run: an actor down at start-up runs it at
    /// its window's end instead of `on_restart`.
    started: bool,
}

impl Life {
    /// Does the crash rule drop this delivery to actor `id`: inside a
    /// window, or a timer armed before the last one? Every window that
    /// ended by `key.at` is gone already: its restart ran first.
    #[inline]
    fn drops(&self, key: EventKey, id: ActorId) -> bool {
        self.windows.last().is_some_and(|&(from, _)| from <= key.at)
            || (key.src == id as u64 && key.seq < self.fence)
    }
}

impl<M: 'static> Shard<M> {
    pub(crate) fn new(rng: SimRng, net: Network, collector: Collector) -> Self {
        Shard {
            index: 0,
            range: Placement::new(0, 1).range(0),
            actors: Vec::new(),
            queue: KeyedEventQueue::new(),
            rng,
            net,
            collector,
            outbox: Vec::new(),
            crossbox: Vec::new(),
            sent: Vec::new(),
            span_next: 0,
            stop: false,
            now: SimTime::ZERO,
            events: 0,
            census_kind: None,
            census: BTreeMap::new(),
            cost: BTreeMap::new(),
            lives: Vec::new(),
            restarts: Vec::new(),
            dropped_down: 0,
        }
    }

    /// Make this shard `index` of `placement`.
    pub(crate) fn place(&mut self, index: usize, placement: Placement) {
        (self.index, self.range) = (index, placement.range(index));
    }

    /// Run `handler` on actor `id` with a context over this shard, then
    /// key what it sent and route it: to this shard's queue, or to the
    /// crossbox if the recipient lives on another shard. An actor this
    /// shard does not hold (never registered) swallows the call.
    #[inline]
    fn invoke(
        &mut self,
        id: ActorId,
        names: &[String],
        handler: impl FnOnce(&mut (dyn Actor<M> + Send), &mut Context<'_, M>),
    ) {
        let Some(mut actor) = self.actors.get_mut(id).and_then(Option::take) else {
            return;
        };
        handler(
            &mut *actor,
            &mut Context {
                now: self.now,
                self_id: id,
                outbox: &mut self.outbox,
                rng: &mut self.rng,
                net: &mut self.net,
                collector: &mut self.collector,
                actor_name: &names[id],
                stop_requested: &mut self.stop,
            },
        );
        self.actors[id] = Some(actor);
        // In send order: each sender's sequence numbers follow it. The
        // recipient is here if it is the head or in the range: no
        // division, no table.
        for (at, to, msg) in self.outbox.drain(..) {
            let key = EventKey::next(at, id as u64, &mut self.sent[id]);
            if to == self.index || self.range.contains(&to) {
                self.queue.push(key, (to, msg));
            } else {
                self.crossbox.push((key, (to, msg)));
            }
        }
    }

    /// Run `on_start` for each of this shard's actors, in id order: its
    /// head, then its range. An actor down at start-up starts at its
    /// window's end instead.
    pub(crate) fn start(&mut self, names: &[String]) {
        let range = self.range.start..self.range.end.min(self.actors.len());
        for id in std::iter::once(self.index).chain(range) {
            let Some(life) = self.lives.get_mut(id) else {
                self.invoke(id, names, |actor, ctx| actor.on_start(ctx));
                continue;
            };
            let ends = life.windows.iter().map(|&(_, to)| (to, id));
            self.restarts.extend(ends);
            life.started = life.windows.last().is_none_or(|&(from, _)| from > self.now);
            if life.started {
                self.invoke(id, names, |actor, ctx| actor.on_start(ctx));
            }
        }
        self.restarts.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Bring actor `id` back at `at`, the end of its current window: its
    /// older timers are fenced off, and it runs `on_restart` (`on_start`
    /// if it was down from the start).
    fn restart(&mut self, at: SimTime, id: ActorId, names: &[String]) {
        self.now = at;
        let life = &mut self.lives[id];
        life.windows.pop();
        life.fence = self.sent[id];
        if std::mem::replace(&mut life.started, true) {
            self.invoke(id, names, |actor, ctx| actor.on_restart(ctx));
        } else {
            self.invoke(id, names, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// When the next thing on this shard is due: a delivery, or a restart.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        let restart = self.restarts.last().map(|&(at, _)| at);
        self.queue.peek_time().into_iter().chain(restart).min()
    }

    /// Run the next thing due at or before `last` — a restart before a
    /// delivery of the same instant. Returns `false` if nothing is.
    #[inline]
    fn step(&mut self, last: SimTime, names: &[String]) -> bool {
        let next = self.queue.peek_time().filter(|&t| t <= last);
        match self.restarts.last() {
            Some(&(at, id)) if at <= last && next.is_none_or(|t| at <= t) => {
                self.restarts.pop();
                self.restart(at, id, names);
                true
            }
            _ => next.is_some() && self.dispatch(names),
        }
    }

    /// Deliver the earliest pending event. Returns `false` if none is
    /// pending. The sender is the key's source; an injection, keyed
    /// [`EventKey::EXTERNAL`], comes from its recipient. A delivery the
    /// crash rule drops is counted and goes no further: no census, no
    /// handler.
    #[inline]
    fn dispatch(&mut self, names: &[String]) -> bool {
        let Some((key, (to, msg))) = self.queue.pop() else {
            return false;
        };
        let from = match key.src {
            EventKey::EXTERNAL => to,
            src => src as ActorId,
        };
        debug_assert!(key.at >= self.now, "time must not run backwards");
        self.now = key.at;
        if self.lives.get(to).is_some_and(|life| life.drops(key, to)) {
            self.dropped_down += 1;
            return true;
        }
        self.events += 1;
        // Counted, and every 64th counted delivery timed: a clock read on
        // each side of the one handler call.
        let timed = self.census_kind.and_then(|kind| {
            let kind = kind(&msg);
            *self.census.entry(kind).or_default() += 1;
            (self.events.is_multiple_of(COST_EVERY)).then(|| (kind, Instant::now()))
        });
        self.invoke(to, names, |actor, ctx| actor.on_message(from, msg, ctx));
        if let Some((kind, start)) = timed {
            *self.cost.entry(kind).or_default() += start.elapsed().as_nanos() as u64;
        }
        true
    }

    /// Deliver every pending event up to and including `last`, and run
    /// every restart due by then, until a handler stops the world.
    pub(crate) fn deliver_through(&mut self, last: SimTime, names: &[String]) {
        while !self.stop && self.step(last, names) {}
    }
}

impl<M: 'static> World<M> {
    /// A new world with the given random seed, a default 1 ms network, and
    /// a default-capacity collector.
    pub fn new(seed: u64) -> Self {
        let rng = SimRng::seed_from_u64(seed);
        World {
            shard: Shard::new(rng, Network::default(), Collector::new()),
            names: Vec::new(),
            injected: 0,
            started: false,
        }
    }

    /// Does nothing: the free-text trace log this used to disable is gone
    /// (the typed collector is the only record of a run; size or disable
    /// it through [`World::telemetry_mut`]). Kept only because the frozen
    /// `crates/ledger` still calls it; goes when those calls do.
    pub fn without_trace(self) -> Self {
        self
    }

    /// Register an actor; returns its id (also its [`crate::net::HostId`]).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        assert!(!self.started, "actors join before the world starts");
        let id = self.names.len();
        assert!((id as u64) < EventKey::EXTERNAL, "2^24 - 1 actors at most");
        self.names.push(actor.name());
        self.shard.actors.push(Some(actor));
        self.shard.sent.push(0);
        id
    }

    /// Take `actor` down over `window` — a crash, declared before the
    /// world starts. Inside it every delivery to the actor is dropped
    /// unhandled; at its end the actor runs [`Actor::on_restart`] (or
    /// `on_start`, if it was down from the start), and every timer it armed
    /// before is dropped whenever it comes due. Overlapping and touching
    /// windows merge; an empty one is ignored.
    pub fn take_down(&mut self, actor: ActorId, window: Range<SimTime>) {
        assert!(
            !self.started,
            "an actor is taken down before the world starts"
        );
        assert!(
            actor < self.names.len(),
            "actor {actor} is not in the world"
        );
        if window.is_empty() {
            return;
        }
        self.shard
            .lives
            .resize_with(self.names.len(), Life::default);
        let windows = &mut self.shard.lives[actor].windows;
        windows.push((window.start, window.end));
        windows.sort_unstable_by(|a, b| b.cmp(a));
        windows.dedup_by(|earlier, kept| {
            let touches = earlier.1 >= kept.0;
            if touches {
                *kept = (earlier.0, kept.1.max(earlier.1));
            }
            touches
        });
    }

    /// Deliveries dropped so far because their recipient was down, or was
    /// a timer its crash forgot ([`World::take_down`]).
    pub fn dropped_down(&self) -> u64 {
        self.shard.dropped_down
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shard.now
    }

    /// The typed event collector.
    pub fn telemetry(&self) -> &Collector {
        &self.shard.collector
    }

    /// Mutable access to the collector (e.g. to record events from outside
    /// any actor, to drain it between phases, or to replace it with one of
    /// another capacity or a disabled one).
    pub fn telemetry_mut(&mut self) -> &mut Collector {
        &mut self.shard.collector
    }

    /// The network fabric (e.g. for inspecting delivery statistics).
    pub fn net(&self) -> &Network {
        &self.shard.net
    }

    /// The network fabric (e.g. for injecting partitions between steps, or
    /// replacing the model before the world starts).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.shard.net
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.shard.events
    }

    /// From here on, count every delivery under the name `kind` gives its
    /// message: the census that says what a run's events were.
    pub fn count_deliveries_by(&mut self, kind: fn(&M) -> &'static str) {
        self.shard.census_kind = Some(kind);
        self.shard.census.clear();
        self.shard.cost.clear();
    }

    /// Deliveries per kind since [`World::count_deliveries_by`]; empty if
    /// it was never called.
    pub fn census(&self) -> BTreeMap<&'static str, u64> {
        self.shard.census.clone()
    }

    /// Estimated nanoseconds in handlers per kind since
    /// [`World::count_deliveries_by`]: every 64th delivery's handler is
    /// timed — anything it runs, a job's VM included — and counts 64
    /// times. Timing reads the clock only, so the run is the one an
    /// uncounted world makes.
    pub fn census_cost(&self) -> BTreeMap<&'static str, u64> {
        let cost = self.shard.cost.iter();
        cost.map(|(&kind, &ns)| (kind, ns * COST_EVERY)).collect()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.shard.queue.len()
    }

    /// The instants drained so far — the queue opens each as one batch —
    /// and the most events one of them held.
    pub fn batches(&self) -> (u64, usize) {
        let queue = &self.shard.queue;
        (queue.instants(), queue.largest_batch())
    }

    /// Keys the queue has sorted because an instant opened out of key
    /// order.
    pub fn sorted_keys(&self) -> u64 {
        self.shard.queue.sorted_keys()
    }

    /// Inspect a concrete actor by id.
    pub fn get<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        self.shard.actors.get(id)?.as_deref()?.downcast_ref::<T>()
    }

    /// Mutably inspect a concrete actor by id.
    pub fn get_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T> {
        let actor = self.shard.actors.get_mut(id)?.as_deref_mut()?;
        actor.downcast_mut::<T>()
    }

    /// The registered display name of an actor.
    pub fn name_of(&self, id: ActorId) -> &str {
        &self.names[id]
    }

    /// Inject a message from "outside" (e.g. a user submitting a job),
    /// arriving after `delay`. Same-instant injections arrive after every
    /// actor's sends, in injection order.
    pub fn inject_after(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        let at = self.shard.now + SimDuration::from_micros(delay.as_micros().max(1));
        let key = EventKey::next(at, EventKey::EXTERNAL, &mut self.injected);
        self.shard.queue.push(key, (to, msg));
    }

    /// Inject a message arriving as soon as possible.
    pub fn inject(&mut self, to: ActorId, msg: M) {
        self.inject_after(SimDuration::ZERO, to, msg);
    }

    fn start_if_needed(&mut self) {
        if !self.started {
            self.started = true;
            self.shard.start(&self.names);
        }
    }

    /// Process the single earliest event, or the restart due before it.
    /// Returns `false` when nothing is pending or a stop was requested.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        !self.shard.stop && self.shard.step(SimTime::MAX, &self.names)
    }

    /// Run until the queue drains, a stop is requested, or `max_events`
    /// have been processed (a runaway guard). Returns the number of events
    /// processed by this call.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let before = self.shard.events;
        let mut budget = max_events;
        while budget > 0 && self.step() {
            budget -= 1;
        }
        self.shard.events - before
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed), the queue drains, or stop is requested;
    /// the clock then reads at least `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let before = self.shard.events;
        self.shard.deliver_through(deadline, &self.names);
        self.shard.now = self.shard.now.max(deadline);
        self.shard.events - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, ActorId, Context};

    #[derive(Debug, Clone)]
    enum Msg {
        Tick,
        Net(#[allow(dead_code)] u32),
    }

    struct Counter {
        ticks: u32,
        period: SimDuration,
    }
    impl Actor<Msg> for Counter {
        fn name(&self) -> String {
            "counter".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send_self_after(self.period, Msg::Tick);
        }
        fn on_message(&mut self, _f: ActorId, m: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Tick = m {
                self.ticks += 1;
                ctx.send_self_after(self.period, Msg::Tick);
            }
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut w: World<Msg> = World::new(1);
        let c = w.add_actor(Box::new(Counter {
            ticks: 0,
            period: SimDuration::from_secs(10),
        }));
        w.run_until(SimTime::from_secs(60));
        assert_eq!(w.get::<Counter>(c).unwrap().ticks, 6);
        assert_eq!(w.now(), SimTime::from_secs(60));
    }

    #[test]
    fn run_with_budget_stops() {
        let mut w: World<Msg> = World::new(1);
        w.add_actor(Box::new(Counter {
            ticks: 0,
            period: SimDuration::from_micros(1),
        }));
        let n = w.run(1000);
        assert_eq!(n, 1000);
        assert_eq!(w.events_processed(), 1000);
        assert!(w.pending() > 0);
    }

    struct NetSender {
        peer: ActorId,
        attempts: u32,
        delivered: u32,
    }
    impl Actor<Msg> for NetSender {
        fn name(&self) -> String {
            "sender".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for i in 0..self.attempts {
                if ctx.send_net(self.peer, Msg::Net(i)) {
                    self.delivered += 1;
                }
            }
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, _c: &mut Context<'_, Msg>) {}
    }

    struct NetReceiver {
        got: u32,
    }
    impl Actor<Msg> for NetReceiver {
        fn name(&self) -> String {
            "receiver".into()
        }
        fn on_message(&mut self, _f: ActorId, m: Msg, _c: &mut Context<'_, Msg>) {
            if let Msg::Net(_) = m {
                self.got += 1;
            }
        }
    }

    #[test]
    fn partitioned_network_drops_messages() {
        let mut w: World<Msg> = World::new(7);
        let r = w.add_actor(Box::new(NetReceiver { got: 0 }));
        let s = w.add_actor(Box::new(NetSender {
            peer: r,
            attempts: 5,
            delivered: 0,
        }));
        w.net_mut().partition(r, s);
        w.run(1000);
        assert_eq!(w.get::<NetReceiver>(r).unwrap().got, 0);
        assert_eq!(w.get::<NetSender>(s).unwrap().delivered, 0);
    }

    #[test]
    fn healthy_network_delivers_all() {
        let mut w: World<Msg> = World::new(7);
        let r = w.add_actor(Box::new(NetReceiver { got: 0 }));
        let s = w.add_actor(Box::new(NetSender {
            peer: r,
            attempts: 5,
            delivered: 0,
        }));
        w.run(1000);
        assert_eq!(w.get::<NetReceiver>(r).unwrap().got, 5);
        assert_eq!(w.get::<NetSender>(s).unwrap().delivered, 5);
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed: u64| -> (u64, SimTime) {
            let mut w: World<Msg> = World::new(seed);
            w.add_actor(Box::new(Counter {
                ticks: 0,
                period: SimDuration::from_millis(3),
            }));
            w.run(500);
            (w.events_processed(), w.now())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn lossy_jittery_network_is_deterministic_across_runs() {
        // Satellite of the partition-tolerance work: identical seeds and
        // identical per-link latency/loss/duplication settings must yield
        // identical delivery traces (arrival times included) across two
        // runs.
        struct Recorder {
            arrivals: Vec<SimTime>,
        }
        impl Actor<Msg> for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }
            fn on_message(&mut self, _f: ActorId, m: Msg, ctx: &mut Context<'_, Msg>) {
                if let Msg::Net(_) = m {
                    self.arrivals.push(ctx.now);
                }
            }
        }
        let run = |seed: u64| {
            let mut w: World<Msg> = World::new(seed);
            let r = w.add_actor(Box::new(Recorder { arrivals: vec![] }));
            let s = w.add_actor(Box::new(NetSender {
                peer: r,
                attempts: 200,
                delivered: 0,
            }));
            let net = w.net_mut();
            net.set_link_latency(s, r, SimDuration::from_millis(3));
            net.set_link_loss(s, r, 0.3);
            net.set_link_duplication(s, r, 0.2);
            w.run(10_000);
            (
                w.get::<Recorder>(r).unwrap().arrivals.clone(),
                w.get::<NetSender>(s).unwrap().delivered,
                w.net().stats().clone(),
            )
        };
        let (a1, d1, s1) = run(5);
        let (a2, d2, s2) = run(5);
        assert_eq!(a1, a2, "arrival traces must be bit-identical");
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert!(s1.dropped_total() > 0, "the lossy net should eat something");
        assert!(s1.duplicated_total() > 0, "and duplicate something");
        assert_eq!(
            a1.len() as u64,
            u64::from(d1) - s1.duplicated_total() + 2 * s1.duplicated_total(),
            "every duplicate adds exactly one extra arrival"
        );
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut w: World<Msg> = World::new(0);
        let r = w.add_actor(Box::new(NetReceiver { got: 0 }));
        w.inject(r, Msg::Net(1));
        w.inject_after(SimDuration::from_secs(1), r, Msg::Net(2));
        w.run(100);
        assert_eq!(w.get::<NetReceiver>(r).unwrap().got, 2);
    }

    /// Greets every actor, one id past the world included, over the
    /// network and reliably.
    struct Greeter {
        actors: usize,
    }
    impl Actor<Msg> for Greeter {
        fn name(&self) -> String {
            "greeter".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for to in 0..=self.actors {
                ctx.send_net(to, Msg::Net(0));
                ctx.send(to, Msg::Tick);
            }
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, _c: &mut Context<'_, Msg>) {}
    }

    /// A world is one shard: every send stays on it — nothing waits for
    /// a barrier that never comes.
    #[test]
    fn a_world_keeps_every_send_local() {
        let n = 9;
        let mut w: World<Msg> = World::new(2);
        for _ in 0..n {
            w.add_actor(Box::new(Greeter { actors: n }));
        }
        w.run_until(SimTime::from_millis(1));
        assert!(w.shard.crossbox.is_empty());
        assert_eq!(w.events_processed(), 2 * (n * (n + 1)) as u64);
        assert_eq!(w.pending(), 0);
    }

    /// Records its life: when it started, restarted, ticked (every
    /// `period`, if it has one, re-armed at start and restart) and heard
    /// from the network.
    #[derive(Default)]
    struct Phoenix {
        period: Option<SimDuration>,
        starts: Vec<SimTime>,
        restarts: Vec<SimTime>,
        ticks: Vec<SimTime>,
        got: Vec<SimTime>,
    }
    impl Phoenix {
        fn every(secs: u64) -> Phoenix {
            Phoenix {
                period: Some(SimDuration::from_secs(secs)),
                ..Phoenix::default()
            }
        }
        fn arm(&self, ctx: &mut Context<'_, Msg>) {
            if let Some(period) = self.period {
                ctx.send_self_after(period, Msg::Tick);
            }
        }
    }
    impl Actor<Msg> for Phoenix {
        fn name(&self) -> String {
            "phoenix".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.starts.push(ctx.now);
            self.arm(ctx);
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
            self.restarts.push(ctx.now);
            self.arm(ctx);
        }
        fn on_message(&mut self, _f: ActorId, m: Msg, ctx: &mut Context<'_, Msg>) {
            match m {
                Msg::Tick => {
                    self.ticks.push(ctx.now);
                    self.arm(ctx);
                }
                Msg::Net(_) => self.got.push(ctx.now),
            }
        }
    }

    fn window(from: u64, to: u64) -> Range<SimTime> {
        SimTime::from_secs(from)..SimTime::from_secs(to)
    }

    /// A world of one [`Phoenix`] taken down over `windows`, and one
    /// message injected at each whole second of `0..sends`, run to `until`.
    fn phoenix(
        actor: Phoenix,
        windows: &[Range<SimTime>],
        sends: u64,
        until: u64,
    ) -> (Phoenix, u64, u64) {
        let mut w: World<Msg> = World::new(3);
        let id = w.add_actor(Box::new(actor));
        for window in windows {
            w.take_down(id, window.clone());
        }
        for s in 0..sends {
            w.inject_after(SimDuration::from_secs(s), id, Msg::Net(0));
        }
        w.run_until(SimTime::from_secs(until));
        let life = std::mem::take(w.get_mut::<Phoenix>(id).unwrap());
        (life, w.events_processed(), w.dropped_down())
    }

    fn at(secs: &[u64]) -> Vec<SimTime> {
        secs.iter().map(|&s| SimTime::from_secs(s)).collect()
    }

    /// Inside its window an actor handles nothing, and every delivery to
    /// it is dropped and counted; the rest are handled.
    #[test]
    fn a_down_actor_handles_nothing_and_each_drop_is_counted() {
        // Injections at 1 µs, 1 s, … 29 s: those at 10 s … 19 s fall in
        // `[10 s, 20 s)`, and the one at 20 s arrives after the restart.
        let (life, events, dropped) = phoenix(Phoenix::default(), &[window(10, 20)], 30, 60);
        let arrivals = (0..30).filter(|s| !(10..20).contains(s));
        let arrivals: Vec<SimTime> = arrivals
            .map(|s| SimTime::from_secs(s).max(SimTime::from_micros(1)))
            .collect();
        assert_eq!(life.got, arrivals);
        assert_eq!((events, dropped), (20, 10));
        assert_eq!((life.starts, life.restarts), (at(&[0]), at(&[20])));
    }

    /// A crash forgets its timers: one armed before the window and due
    /// after it is dropped when it comes due, and `on_restart`, which arms
    /// none here, leaves the actor quiet.
    #[test]
    fn a_timer_armed_before_the_window_is_dropped_after_it() {
        struct Alarm(Vec<SimTime>);
        impl Actor<Msg> for Alarm {
            fn name(&self) -> String {
                "alarm".into()
            }
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send_self_after(SimDuration::from_secs(30), Msg::Tick);
            }
            fn on_message(&mut self, _f: ActorId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                self.0.push(ctx.now);
            }
        }
        let mut w: World<Msg> = World::new(1);
        let id = w.add_actor(Box::new(Alarm(Vec::new())));
        w.take_down(id, window(10, 20));
        w.run_until(SimTime::from_secs(60));
        assert!(w.get::<Alarm>(id).unwrap().0.is_empty());
        assert_eq!(
            (w.events_processed(), w.dropped_down(), w.pending()),
            (0, 1, 0)
        );
    }

    /// A window shorter than a periodic timer's period, holding no tick of
    /// it, leaves one chain: the one `on_restart` arms. Without the fence
    /// the chain armed before the crash would tick on beside it.
    #[test]
    fn a_window_between_two_ticks_leaves_one_timer_chain() {
        let (life, _, dropped) = phoenix(Phoenix::every(15), &[window(20, 25)], 0, 90);
        assert_eq!(life.ticks, at(&[15, 40, 55, 70, 85]));
        // The forgotten tick at 30 s.
        assert_eq!(dropped, 1);
    }

    /// `on_restart` runs once per window, at its end, whatever the window
    /// held; overlapping and touching windows are one.
    #[test]
    fn on_restart_runs_once_per_window_at_its_end() {
        let windows = [
            window(10, 20),
            window(35, 45),
            window(30, 40),
            window(60, 70),
            window(50, 60),
        ];
        let (life, _, _) = phoenix(Phoenix::every(4), &windows, 0, 100);
        assert_eq!(life.starts, at(&[0]));
        assert_eq!(life.restarts, at(&[20, 45, 70]));
        let ticks = [4, 8, 24, 28, 49, 74, 78, 82, 86, 90, 94, 98];
        assert_eq!(life.ticks, at(&ticks));
    }

    /// An actor down from the start runs `on_start` at its window's end,
    /// and no `on_restart`.
    #[test]
    fn an_actor_down_from_the_start_starts_at_the_window_end() {
        let (life, events, dropped) = phoenix(Phoenix::every(10), &[window(0, 25)], 5, 50);
        assert_eq!((life.starts, life.restarts), (at(&[25]), vec![]));
        assert_eq!(life.ticks, at(&[35, 45]));
        assert!(life.got.is_empty());
        assert_eq!((events, dropped), (2, 5));
    }

    #[test]
    fn name_of_reports_registration_name() {
        let mut w: World<Msg> = World::new(0);
        let r = w.add_actor(Box::new(NetReceiver { got: 0 }));
        assert_eq!(w.name_of(r), "receiver");
    }
}
