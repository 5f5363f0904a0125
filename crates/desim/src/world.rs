//! The simulation world: actors, clock, event loop.

use crate::actor::{Actor, ActorId, Context, Envelope};
use crate::net::Network;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use obs::Collector;
use std::collections::BTreeMap;

/// A complete simulated system: a set of actors, a pending-event queue, a
/// virtual clock, a network fabric, a random stream, and a typed event
/// collector.
pub struct World<M> {
    // Actors are stored `+ Send` so a built world can be converted into a
    // sharded parallel run ([`crate::par::ParWorld`]); the classic
    // single-threaded loop below is unchanged by the bound.
    pub(crate) actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
    pub(crate) names: Vec<String>,
    pub(crate) queue: EventQueue<Envelope<M>>,
    pub(crate) now: SimTime,
    pub(crate) rng: SimRng,
    pub(crate) net: Network,
    pub(crate) collector: Collector,
    // Reused across dispatches: drained into the queue after each handler,
    // keeping its capacity so steady-state dispatch allocates nothing.
    pub(crate) outbox: Vec<(SimTime, Envelope<M>)>,
    pub(crate) started: bool,
    pub(crate) stop_requested: bool,
    pub(crate) events_processed: u64,
    // `None` until [`World::count_deliveries_by`] asks.
    census: Option<Census<M>>,
}

/// Deliveries by message kind: how a message is filed, and the counts.
struct Census<M> {
    kind: fn(&M) -> &'static str,
    counts: BTreeMap<&'static str, u64>,
}

impl<M: 'static> World<M> {
    /// A new world with the given random seed, a default 1 ms network, and
    /// a default-capacity collector.
    pub fn new(seed: u64) -> Self {
        World {
            actors: Vec::new(),
            names: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed),
            net: Network::default(),
            collector: Collector::new(),
            outbox: Vec::new(),
            started: false,
            stop_requested: false,
            events_processed: 0,
            census: None,
        }
    }

    /// Replace the network model (builder style).
    pub fn with_network(mut self, net: Network) -> Self {
        self.net = net;
        self
    }

    /// Does nothing: the free-text trace log this used to disable is gone
    /// (the typed collector is the only record of a run; size or disable
    /// it with [`World::with_collector`]). Kept only because the frozen
    /// `crates/ledger` still calls it; goes when those calls do.
    pub fn without_trace(self) -> Self {
        self
    }

    /// Replace the event collector (builder style) — e.g.
    /// `Collector::with_capacity(n)` or `Collector::disabled()`.
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Register an actor; returns its id (also its [`crate::net::HostId`]).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        assert!(
            !self.started,
            "actors must be added before the world starts"
        );
        let id = self.actors.len();
        self.names.push(actor.name());
        self.actors.push(Some(actor));
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The typed event collector.
    pub fn telemetry(&self) -> &Collector {
        &self.collector
    }

    /// Mutable access to the collector (e.g. to record events from outside
    /// any actor, or to drain it between phases).
    pub fn telemetry_mut(&mut self) -> &mut Collector {
        &mut self.collector
    }

    /// The network fabric (e.g. for inspecting delivery statistics).
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The network fabric (e.g. for injecting partitions between steps).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The world's random stream (e.g. for building randomized workloads
    /// from the same seed).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// From here on, count every delivery under the name `kind` gives its
    /// message: the census that says what a run's events were.
    pub fn count_deliveries_by(&mut self, kind: fn(&M) -> &'static str) {
        let counts = BTreeMap::new();
        self.census = Some(Census { kind, counts });
    }

    /// Deliveries per kind since [`World::count_deliveries_by`]; empty if
    /// it was never called.
    pub fn census(&self) -> BTreeMap<&'static str, u64> {
        let counts = self.census.as_ref().map(|census| census.counts.clone());
        counts.unwrap_or_default()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Inspect a concrete actor by id.
    pub fn get<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        self.actors.get(id)?.as_deref()?.downcast_ref::<T>()
    }

    /// Mutably inspect a concrete actor by id.
    pub fn get_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors.get_mut(id)?.as_deref_mut()?.downcast_mut::<T>()
    }

    /// The registered display name of an actor.
    pub fn name_of(&self, id: ActorId) -> &str {
        &self.names[id]
    }

    /// Inject a message from "outside" (e.g. a user submitting a job),
    /// arriving after `delay`.
    pub fn inject_after(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        let at = self.now + SimDuration::from_micros(delay.as_micros().max(1));
        self.queue.push(at, Envelope { from: to, to, msg });
    }

    /// Inject a message arriving as soon as possible.
    pub fn inject(&mut self, to: ActorId, msg: M) {
        self.inject_after(SimDuration::ZERO, to, msg);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.actors.len() {
            let mut actor = self.actors[id].take().expect("actor present at start");
            let mut ctx = Context {
                now: self.now,
                self_id: id,
                outbox: &mut self.outbox,
                rng: &mut self.rng,
                net: &mut self.net,
                collector: &mut self.collector,
                actor_name: &self.names[id],
                stop_requested: &mut self.stop_requested,
            };
            actor.on_start(&mut ctx);
            self.actors[id] = Some(actor);
        }
        // In send order (the queue's FIFO tie-break depends on it). Every
        // actor's first timers and messages at once is the largest the
        // outbox ever gets — megabytes for 20,000 startds that each arm a
        // tick and send an ad — so this buffer is handed back, not kept
        // for handlers that send a handful.
        for (at, env) in std::mem::take(&mut self.outbox) {
            self.queue.push(at, env);
        }
    }

    /// Process the single earliest event. Returns `false` when the queue is
    /// empty or a stop was requested.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        if self.stop_requested {
            return false;
        }
        let Some((at, env)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time must not run backwards");
        self.now = at;
        self.events_processed += 1;
        if let Some(census) = &mut self.census {
            *census.counts.entry((census.kind)(&env.msg)).or_default() += 1;
        }

        let Some(slot) = self.actors.get_mut(env.to) else {
            return true; // message to a never-registered actor: dropped
        };
        let Some(mut actor) = slot.take() else {
            return true; // actor is mid-dispatch (impossible single-threaded) or removed
        };
        {
            let mut ctx = Context {
                now: self.now,
                self_id: env.to,
                outbox: &mut self.outbox,
                rng: &mut self.rng,
                net: &mut self.net,
                collector: &mut self.collector,
                actor_name: &self.names[env.to],
                stop_requested: &mut self.stop_requested,
            };
            actor.on_message(env.from, env.msg, &mut ctx);
        }
        self.actors[env.to] = Some(actor);
        for (when, e) in self.outbox.drain(..) {
            self.queue.push(when, e);
        }
        true
    }

    /// Run until the queue drains, a stop is requested, or `max_events`
    /// have been processed (a runaway guard). Returns the number of events
    /// processed by this call.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let before = self.events_processed;
        let mut budget = max_events;
        while budget > 0 && self.step() {
            budget -= 1;
        }
        self.events_processed - before
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed), the queue drains, or stop is requested.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let before = self.events_processed;
        while !self.stop_requested {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed - before
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
        // identical drop/jitter/duplication settings must yield identical
        // delivery traces (arrival times included) across two runs.
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
            let net = Network::new(SimDuration::from_millis(2))
                .with_jitter(0.4)
                .with_drop_probability(0.3)
                .with_duplication_probability(0.2);
            let mut w: World<Msg> = World::new(seed).with_network(net);
            let r = w.add_actor(Box::new(Recorder { arrivals: vec![] }));
            let s = w.add_actor(Box::new(NetSender {
                peer: r,
                attempts: 200,
                delivered: 0,
            }));
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
