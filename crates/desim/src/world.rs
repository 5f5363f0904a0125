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
//! split round-robin and shard 0 keeps the world's random stream.

use crate::actor::{Actor, ActorId, Context};
use crate::net::Network;
use crate::queue::{EventKey, KeyedEventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use obs::Collector;
use std::collections::BTreeMap;

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
/// without touching any other shard. Actors `index`, `index + shards`, …
/// live here; a send to an actor elsewhere waits in `crossbox` for the
/// window barrier ([`crate::par`]). A [`World`] is one shard.
pub(crate) struct Shard<M> {
    pub(crate) index: usize,
    pub(crate) shards: usize,
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
}

impl<M: 'static> Shard<M> {
    pub(crate) fn new(rng: SimRng, net: Network, collector: Collector) -> Self {
        Shard {
            index: 0,
            shards: 1,
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
        }
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
        // In send order: each sender's sequence numbers follow it.
        for (at, to, msg) in self.outbox.drain(..) {
            let key = EventKey::next(at, id as u64, &mut self.sent[id]);
            if to % self.shards == self.index {
                self.queue.push(key, (to, msg));
            } else {
                self.crossbox.push((key, (to, msg)));
            }
        }
    }

    /// Run `on_start` for each of this shard's actors, in id order.
    pub(crate) fn start(&mut self, names: &[String]) {
        for id in (self.index..self.actors.len()).step_by(self.shards) {
            self.invoke(id, names, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Deliver the earliest pending event. Returns `false` if none is
    /// pending. The sender is the key's source; an injection, keyed
    /// [`EventKey::EXTERNAL`], comes from its recipient.
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
        self.events += 1;
        if let Some(kind) = self.census_kind {
            *self.census.entry(kind(&msg)).or_default() += 1;
        }
        self.invoke(to, names, |actor, ctx| actor.on_message(from, msg, ctx));
        true
    }

    /// Deliver every pending event up to and including `last`, until a
    /// handler stops the world.
    pub(crate) fn deliver_through(&mut self, last: SimTime, names: &[String]) {
        while !self.stop && self.queue.peek_time().is_some_and(|t| t <= last) {
            self.dispatch(names);
        }
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
    }

    /// Deliveries per kind since [`World::count_deliveries_by`]; empty if
    /// it was never called.
    pub fn census(&self) -> BTreeMap<&'static str, u64> {
        self.shard.census.clone()
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

    /// Process the single earliest event. Returns `false` when the queue is
    /// empty or a stop was requested.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        !self.shard.stop && self.shard.dispatch(&self.names)
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

    #[test]
    fn name_of_reports_registration_name() {
        let mut w: World<Msg> = World::new(0);
        let r = w.add_actor(Box::new(NetReceiver { got: 0 }));
        assert_eq!(w.name_of(r), "receiver");
    }
}
