//! The actor abstraction: simulated daemons exchanging timed messages.
//!
//! Each daemon in the simulated grid (schedd, startd, matchmaker, shadow,
//! starter…) is an [`Actor`]. Actors never call each other directly — all
//! interaction is messages scheduled through a [`Context`], which is how the
//! simulator guarantees deterministic, time-ordered execution.

use crate::net::Network;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use obs::Collector;
use std::any::Any;

/// Identifies an actor within a [`crate::world::World`].
pub type ActorId = usize;

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: ActorId,
    /// Recipient.
    pub to: ActorId,
    /// Payload.
    pub msg: M,
}

/// A simulated process.
///
/// `M` is the message alphabet shared by all actors in one world.
pub trait Actor<M>: Any {
    /// Stable display name used in telemetry records.
    fn name(&self) -> String;

    /// Called once when the world starts, before any messages flow.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Deliver one message.
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut Context<'_, M>);
}

impl<M: 'static> dyn Actor<M> {
    /// Downcast to a concrete actor type (for post-run inspection).
    pub fn downcast_ref<T: Actor<M>>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable downcast.
    pub fn downcast_mut<T: Actor<M>>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut::<T>()
    }
}

impl<M: 'static> dyn Actor<M> + Send {
    /// Downcast to a concrete actor type (for post-run inspection).
    pub fn downcast_ref<T: Actor<M>>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable downcast.
    pub fn downcast_mut<T: Actor<M>>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut::<T>()
    }
}

/// The capabilities an actor has while handling a message: learn the time,
/// send messages (reliably or over the simulated network), draw randomness,
/// record telemetry events, and stop the world.
///
/// A `Context` is assembled from disjoint borrows of the [`crate::World`]
/// for exactly one handler invocation: the actor's name is a borrowed
/// `&str` and the outbox is the world's reusable buffer, so building one
/// allocates nothing.
pub struct Context<'a, M> {
    /// Current virtual time.
    pub now: SimTime,
    /// The id of the actor being invoked.
    pub self_id: ActorId,
    pub(crate) outbox: &'a mut Vec<(SimTime, Envelope<M>)>,
    /// The world's random stream.
    pub rng: &'a mut SimRng,
    /// The simulated network fabric (mutable: actors may inject faults).
    pub net: &'a mut Network,
    pub(crate) collector: &'a mut Collector,
    pub(crate) actor_name: &'a str,
    pub(crate) stop_requested: &'a mut bool,
}

impl<'a, M> Context<'a, M> {
    /// Send `msg` to `to` reliably, arriving after `delay`. Use for
    /// intra-host communication (fork/exec, pipes, local files) that the
    /// network cannot lose.
    pub fn send_after(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        let at = self.now + SimDuration::from_micros(delay.as_micros().max(1));
        self.outbox.push((
            at,
            Envelope {
                from: self.self_id,
                to,
                msg,
            },
        ));
    }

    /// Send reliably with minimal (1µs) delay.
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Schedule a message to oneself — the standard way to implement
    /// timeouts and periodic work.
    pub fn send_self_after(&mut self, delay: SimDuration, msg: M) {
        let id = self.self_id;
        self.send_after(delay, id, msg);
    }

    /// Record a typed telemetry event attributed to this actor, timestamped
    /// with the current virtual time. The typed stream is the only record
    /// of a run.
    pub fn emit(&mut self, event: obs::Event) {
        self.collector
            .record(self.now.as_micros(), self.actor_name, event);
    }

    /// Ask the world to stop after this handler returns.
    pub fn stop_world(&mut self) {
        *self.stop_requested = true;
    }
}

impl<'a, M: Clone> Context<'a, M> {
    /// Send over the simulated network. The message may be silently lost
    /// (partition, down host, random drop) or *duplicated* (delivered twice,
    /// each copy with its own latency); returns whether at least one copy was
    /// dispatched, but a *correct* distributed actor should rely on its own
    /// timeout rather than this return value — real senders don't get one.
    pub fn send_net(&mut self, to: ActorId, msg: M) -> bool {
        match self.net.fate(self.rng, self.self_id, to) {
            crate::net::Fate::Deliver(lat) => {
                self.send_after(lat, to, msg);
                true
            }
            crate::net::Fate::Duplicate(lat, lat2) => {
                // Clone only for the first copy; the final copy moves.
                self.send_after(lat, to, msg.clone());
                self.send_after(lat2, to, msg);
                true
            }
            crate::net::Fate::Lost => false,
        }
    }

    /// Broadcast `msg` over the simulated network to every recipient.
    /// Clones for all but the last recipient and moves the message into
    /// the last send, so an N-way broadcast costs N-1 clones instead of N.
    /// Returns how many recipients had at least one copy dispatched.
    pub fn send_net_all(&mut self, recipients: &[ActorId], msg: M) -> usize {
        let mut delivered = 0;
        if let Some((&last, rest)) = recipients.split_last() {
            for &to in rest {
                if self.send_net(to, msg.clone()) {
                    delivered += 1;
                }
            }
            if self.send_net(last, msg) {
                delivered += 1;
            }
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: ActorId,
        got: Vec<u32>,
    }

    impl Actor<Msg> for Pinger {
        fn name(&self) -> String {
            "pinger".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping(1));
        }
        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Pong(n) = msg {
                self.got.push(n);
                if n < 3 {
                    ctx.send(self.peer, Msg::Ping(n + 1));
                } else {
                    ctx.stop_world();
                }
            }
        }
    }

    struct Ponger;

    impl Actor<Msg> for Ponger {
        fn name(&self) -> String {
            "ponger".into()
        }
        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                ctx.emit(obs::Event::IoOp {
                    op: format!("ping {n}"),
                    outcome: obs::IoOutcome::Ok,
                });
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w: World<Msg> = World::new(42);
        let ponger = w.add_actor(Box::new(Ponger));
        let pinger = w.add_actor(Box::new(Pinger {
            peer: ponger,
            got: vec![],
        }));
        w.run(10_000);
        let p: &Pinger = w.get(pinger).unwrap();
        assert_eq!(p.got, vec![1, 2, 3]);
        let pings = w.telemetry().iter().map(|r| r.to_string());
        assert_eq!(pings.filter(|line| line.contains("ponger")).count(), 3);
    }

    #[test]
    fn self_message_implements_timeout() {
        struct Timer {
            fired_at: Option<SimTime>,
        }
        impl Actor<()> for Timer {
            fn name(&self) -> String {
                "timer".into()
            }
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.send_self_after(SimDuration::from_secs(30), ());
            }
            fn on_message(&mut self, _f: ActorId, _m: (), ctx: &mut Context<'_, ()>) {
                self.fired_at = Some(ctx.now);
            }
        }
        let mut w: World<()> = World::new(0);
        let t = w.add_actor(Box::new(Timer { fired_at: None }));
        w.run(100);
        assert_eq!(
            w.get::<Timer>(t).unwrap().fired_at,
            Some(SimTime::from_secs(30))
        );
    }
}
