//! # desim — a deterministic discrete-event simulation engine
//!
//! The substrate the simulated Condor pool runs on: virtual time, a
//! deterministic event queue, message-passing actors, a fault-injectable
//! network model, seeded randomness, and a typed telemetry collector —
//! the one record of a run (see the `obs` crate; actors record events
//! with [`Context::emit`]).
//!
//! Each world is reproducible: the same seed and the same actor set
//! always produce the same history, which is what lets the test suite
//! assert exact error-routing tables and lets every experiment in the
//! paper reproduction be replayed bit-for-bit. There is one engine and
//! one tie-break: every event is keyed `(time, sender, sender's send
//! count)` ([`EventKey`]), so same-instant deliveries — a *set* the
//! protocol may not rely on the order of — drain in one canonical order
//! however the world is driven. A [`World`] is the engine's one-shard
//! case. Parallelism never changes output, only wall-clock, along two
//! independent axes sharing one process-wide worker pool ([`pool`]):
//!
//! * **Across seeds** — multi-seed studies fan independent worlds across
//!   threads with [`sweep`]; results come back in seed order, bit-identical
//!   regardless of thread count.
//! * **Within one world** — [`World::into_parallel`] splits a world's
//!   shard in n, drained by workers that advance simulated time in
//!   conservative windows ([`par`]); output depends on the shard count,
//!   never on the thread count, and at one shard it is the world's own.
//!
//! ```
//! use desim::prelude::*;
//!
//! struct Echo;
//! impl Actor<String> for Echo {
//!     fn name(&self) -> String { "echo".into() }
//!     fn on_message(&mut self, from: ActorId, msg: String, ctx: &mut Context<'_, String>) {
//!         let op = format!("got {msg}");
//!         ctx.emit(obs::Event::IoOp { op, outcome: obs::IoOutcome::Ok });
//!         if from != ctx.self_id { ctx.send(from, msg); }
//!     }
//! }
//!
//! let mut world: World<String> = World::new(42);
//! let echo = world.add_actor(Box::new(Echo));
//! world.inject(echo, "hello".to_string());
//! world.run(100);
//! assert!(world.telemetry().iter().any(|r| r.to_string().contains("got hello")));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod net;
pub mod par;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod sweep;
pub mod time;
pub mod world;

pub use actor::{Actor, ActorId, Context};
pub use net::{Fate, NetOp, NetStats, Network};
pub use par::{ParConfig, ParFinished, ParStats, ParWorld, Placement};
pub use queue::{EventKey, EventQueue, KeyedEventQueue};
pub use rng::SimRng;
pub use sweep::{default_width, run_sweep};
pub use time::{SimDuration, SimTime};
pub use world::World;

/// Convenient glob import.
pub mod prelude {
    pub use crate::actor::{Actor, ActorId, Context};
    pub use crate::net::Network;
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::world::World;
}
