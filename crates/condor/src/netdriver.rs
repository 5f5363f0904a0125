//! The plan's world-level faults: crash windows handed to the engine, and
//! the network-fault driver that applies the plan's timed network faults
//! to the simulated fabric as the clock crosses window edges.
//!
//! Filesystem faults are *consulted* by the affected daemons. A crash is
//! the engine's: [`install_crashes`] hands every window to
//! [`World::take_down`] before the world starts, and no daemon reads one.
//! Network faults must reconfigure the shared fabric itself — so one
//! dedicated actor walks [`crate::faults::FaultPlan::net_fault_edges`],
//! wakes at every edge, and applies or clears each fault whose window
//! opened or closed. Everything is scheduled up front from the declarative
//! plan, so a run with the same seed and plan reconfigures the fabric at
//! identical instants: chaos, deterministically.

use crate::faults::{Fault, FaultPlan, NetFault};
use crate::msg::Msg;
use desim::prelude::*;
use std::sync::Arc;

/// Hand every [`Fault::Crash`] of `plan` to `world`, which takes the actor
/// down over its window and brings it back at the end
/// ([`World::take_down`]): the one place a crash is read. Call it on a
/// built world before it starts; [`crate::PoolBuilder::build`] does.
pub fn install_crashes(plan: &FaultPlan, world: &mut World<Msg>) {
    for fault in plan.faults() {
        if let Fault::Crash { actor, window } = fault {
            world.take_down(*actor, window.from..window.to);
        }
    }
}

/// The actor. Registered by the pool builder when the plan schedules any
/// network faults; harmless (and never woken) otherwise.
pub struct NetFaultDriver {
    plan: Arc<FaultPlan>,
    /// Which faults are currently applied (parallel to `plan.net_faults()`).
    active: Vec<bool>,
}

impl NetFaultDriver {
    /// A driver for `plan`.
    pub fn new(plan: Arc<FaultPlan>) -> NetFaultDriver {
        let n = plan.net_faults().count();
        NetFaultDriver {
            plan,
            active: vec![false; n],
        }
    }

    fn apply(fault: &NetFault, net: &mut Network) {
        match fault {
            NetFault::Partition { a, b } => {
                for &x in a {
                    for &y in b {
                        net.partition(x, y);
                    }
                }
            }
            NetFault::Loss { a, b, prob } => net.set_link_loss(*a, *b, *prob),
            NetFault::LatencySpike { a, b, latency } => net.set_link_latency(*a, *b, *latency),
            NetFault::Duplication { a, b, prob } => net.set_link_duplication(*a, *b, *prob),
        }
    }

    fn clear(fault: &NetFault, net: &mut Network) {
        match fault {
            NetFault::Partition { a, b } => {
                for &x in a {
                    for &y in b {
                        net.heal(x, y);
                    }
                }
            }
            NetFault::Loss { a, b, .. } => net.clear_link_loss(*a, *b),
            NetFault::LatencySpike { a, b, .. } => net.clear_link_latency(*a, *b),
            NetFault::Duplication { a, b, .. } => net.clear_link_duplication(*a, *b),
        }
    }

    /// Bring the fabric in line with the plan at `ctx.now`, emitting one
    /// `net-fault-applied` event per fault whose state flipped.
    fn reconcile(&mut self, ctx: &mut Context<'_, Msg>) {
        let plan = Arc::clone(&self.plan);
        for (i, (window, fault)) in plan.net_faults().enumerate() {
            let should = window.contains(ctx.now);
            if should == self.active[i] {
                continue;
            }
            if should {
                Self::apply(fault, ctx.net);
            } else {
                Self::clear(fault, ctx.net);
            }
            self.active[i] = should;
            ctx.emit(obs::Event::NetFaultApplied {
                kind: fault.kind().to_string(),
                link: fault.link(),
                active: should,
            });
        }
    }
}

impl Actor<Msg> for NetFaultDriver {
    fn name(&self) -> String {
        "netfaults".into()
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // Wake at every window edge. Edges at t=0 still get a tick (1µs in,
        // before any network message can be in flight past it).
        let plan = Arc::clone(&self.plan);
        for edge in plan.net_fault_edges() {
            ctx.send_self_after(edge.since(ctx.now), Msg::NetFaultTick);
        }
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Msg::NetFaultTick = msg {
            self.reconcile(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, Window};
    use desim::{SimDuration, SimTime, World};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn driver_applies_and_clears_at_window_edges() {
        let plan = FaultPlan::new(vec![
            Fault::Net {
                window: Window::new(t(100), t(200)),
                fault: NetFault::Partition {
                    a: vec![1],
                    b: vec![2],
                },
            },
            Fault::Net {
                window: Window::new(t(150), t(250)),
                fault: NetFault::Loss {
                    a: 1,
                    b: 3,
                    prob: 1.0,
                },
            },
        ])
        .build();
        let mut w: World<Msg> = World::new(1);
        // Actors 0..3 exist only as host ids.
        let d = w.add_actor(Box::new(NetFaultDriver::new(Arc::clone(&plan))));
        assert_eq!(d, 0);
        let mut rng = desim::SimRng::seed_from_u64(9);

        w.run_until(t(50));
        assert!(!w.net_mut().is_partitioned(1, 2));
        w.run_until(t(100));
        assert!(w.net_mut().is_partitioned(1, 2), "partition applied at 100");
        assert!(
            w.net_mut().transit(&mut rng, 1, 3).is_some(),
            "loss not yet active"
        );
        w.run_until(t(150));
        assert!(
            w.net_mut().transit(&mut rng, 1, 3).is_none(),
            "total loss active from 150"
        );
        w.run_until(t(200));
        assert!(!w.net_mut().is_partitioned(1, 2), "healed at 200");
        assert!(
            w.net_mut().transit(&mut rng, 1, 3).is_none(),
            "loss still on"
        );
        w.run_until(t(250));
        assert!(
            w.net_mut().transit(&mut rng, 1, 3).is_some(),
            "loss cleared"
        );

        // Four transitions → four events, in time order.
        let kinds: Vec<(u64, String, bool)> = w
            .telemetry()
            .iter()
            .filter_map(|r| match &r.event {
                obs::Event::NetFaultApplied { kind, active, .. } => {
                    Some((r.at_us, kind.clone(), *active))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                (t(100).as_micros(), "partition".into(), true),
                (t(150).as_micros(), "loss".into(), true),
                (t(200).as_micros(), "partition".into(), false),
                (t(250).as_micros(), "loss".into(), false),
            ]
        );
    }

    #[test]
    fn latency_spike_and_duplication_windows() {
        let window = Window::new(t(10), t(20));
        let plan = FaultPlan::new(vec![
            Fault::Net {
                window,
                fault: NetFault::LatencySpike {
                    a: 0,
                    b: 2,
                    latency: SimDuration::from_millis(500),
                },
            },
            Fault::Net {
                window,
                fault: NetFault::Duplication {
                    a: 0,
                    b: 2,
                    prob: 1.0,
                },
            },
        ])
        .build();
        let mut w: World<Msg> = World::new(1);
        w.add_actor(Box::new(NetFaultDriver::new(plan)));
        let mut rng = desim::SimRng::seed_from_u64(9);
        w.run_until(t(15));
        assert_eq!(
            w.net_mut().transit(&mut rng, 0, 2),
            Some(SimDuration::from_millis(500))
        );
        assert!(matches!(
            w.net_mut().fate(&mut rng, 0, 2),
            desim::Fate::Duplicate(_)
        ));
        w.run_until(t(25));
        assert_eq!(
            w.net_mut().transit(&mut rng, 0, 2),
            Some(SimDuration::from_millis(1)),
            "spike cleared, default restored"
        );
        assert!(matches!(
            w.net_mut().fate(&mut rng, 0, 2),
            desim::Fate::Deliver(_)
        ));
    }
}
