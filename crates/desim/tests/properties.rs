//! Properties of the simulation engine, run on seeded generated cases.

use desim::prelude::*;
use desim::{EventKey, EventQueue, KeyedEventQueue};
use propcheck::{check, Gen};

const CASES: u64 = 256;

/// The event queue is a stable priority queue: pops are sorted by
/// time, and equal-time events keep insertion order.
#[test]
fn queue_pops_stable_sorted() {
    check(CASES, |g| {
        let times = g.vec(0..200, |g| g.int(0u64..1000));
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(*t), i);
        }
        let mut out: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert_eq!(out.len(), times.len());
        for w in out.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
    });
}

/// Network transit: latency is always >= 1µs when delivered; loopback
/// always delivers; partitions always block.
#[test]
fn network_invariants() {
    check(CASES, |g| {
        let (base_ms, jitter) = (g.int(0u64..50), g.f64(0.0..1.0));
        let (a, b) = (g.int(0usize..8), g.int(0usize..8));
        let partitioned = g.bool();
        let mut net = Network::new(SimDuration::from_millis(base_ms)).with_jitter(jitter);
        if partitioned {
            net.partition(a, b);
        }
        let mut rng = SimRng::seed_from_u64(g.u64());
        let r = net.transit(&mut rng, a, b);
        if a == b {
            assert_eq!(r, Some(SimDuration::from_micros(1)));
        } else if partitioned {
            assert_eq!(r, None);
        } else {
            let lat = r.expect("healthy link delivers");
            assert!(lat.as_micros() >= 1);
            let upper = SimDuration::from_millis(base_ms).mul_f64(1.0 + jitter)
                + SimDuration::from_micros(2);
            assert!(lat <= upper, "latency {lat} above bound {upper}");
        }
    });
}

/// Seeded RNG streams are reproducible and forks are independent of
/// consumption order.
#[test]
fn rng_reproducibility() {
    check(CASES, |g| {
        let (seed, label) = (
            g.int(0..=u64::MAX),
            g.string("abcdefghijklmnopqrstuvwxyz", 1..=8),
        );
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        // Fork before consuming on one, after consuming on the other: the
        // child streams must match because forking is order-independent.
        let mut child_a = a.fork(&label);
        let _ = a.f64();
        let _ = b.f64();
        let mut child_b = b.fork(&label);
        for _ in 0..8 {
            assert_eq!(child_a.range_u64(0, 1000), child_b.range_u64(0, 1000));
        }
    });
}

/// Virtual-time arithmetic: addition is monotone and saturating
/// subtraction never underflows.
#[test]
fn time_arithmetic() {
    check(CASES, |g| {
        let (a, b) = (g.int(0..=u64::MAX), g.int(0..=u64::MAX));
        let t = SimTime::from_micros(a);
        let d = SimDuration::from_micros(b);
        assert!(t + d >= t);
        let diff = t.since(SimTime::from_micros(b));
        assert_eq!(diff.as_micros(), a.saturating_sub(b));
    });
}

/// Window-barrier merge discipline: when several sources deliver at
/// the *same* timestamp into one shard queue — in any arrival order,
/// as happens when barriers from different shards interleave — the
/// pops come back in `(src, seq)` order: source-id major, FIFO per
/// source. This is what makes a barrier's merge independent of the
/// order the crossboxes were collected in.
#[test]
fn same_time_cross_shard_deliveries_pop_in_canonical_order() {
    check(CASES, |g| {
        // counts[s] events from source s, all at t=500µs.
        let counts = g.vec(1..6, |g| g.int(1u64..6));
        let at = SimTime::from_micros(500);
        let mut events: Vec<EventKey> = Vec::new();
        for (src, n) in counts.iter().enumerate() {
            for seq in 0..*n {
                let src = src as u64;
                events.push(EventKey { at, src, seq });
            }
        }
        // Shuffle the arrival order by random ranks.
        let mut arrival: Vec<(u64, EventKey)> = events.iter().map(|k| (g.u64(), *k)).collect();
        arrival.sort();
        assert_pops_in_canonical_order(arrival.into_iter().map(|(_, k)| k));
    });
}

/// Push `arrival` into one keyed queue; the pops are the keys sorted.
fn assert_pops_in_canonical_order(arrival: impl Iterator<Item = EventKey>) {
    let mut q: KeyedEventQueue<EventKey> = KeyedEventQueue::new();
    let mut expect = Vec::new();
    for k in arrival {
        q.push(k, k);
        expect.push(k);
    }
    let mut popped = Vec::new();
    while let Some((k, _)) = q.pop() {
        popped.push(k);
    }
    expect.sort();
    assert_eq!(popped, expect);
}

/// Sharding differential: route a random event workload through 1
/// shard and through N shards with conservative-window barrier
/// delivery — every *target's* received stream must be identical.
/// (This is the queue-level core of the ParWorld determinism gate:
/// windows and barriers batch delivery, they never reorder a
/// receiver's history.)
#[test]
fn window_barrier_drain_matches_single_queue_per_target() {
    check(CASES, |g| {
        let raw = g.vec(1..120, |g| {
            (g.int(0u64..2000), g.int(0usize..6), g.int(0usize..6))
        });
        assert_drain_is_canonical_at_any_width(&keyed_events(&raw), g.int(1u64..400));
    });
}

/// One shard delivers each target its events in canonical key order, and
/// 2, 3 and 5 shards deliver what one does.
fn assert_drain_is_canonical_at_any_width(events: &[(EventKey, usize)], window: u64) {
    let single = window_drain(events, 1, window);
    for (target, stream) in single.iter().enumerate() {
        assert_eq!(stream, &canonical_target_stream(events, target));
    }
    for shards_n in [2, 3, 5] {
        assert_eq!(
            single,
            window_drain(events, shards_n, window),
            "diverged at {shards_n} shards, window {window}µs"
        );
    }
}

/// Canonical keys for a raw `(time_µs, src, target)` workload: per-source
/// seq counters advance in generation (send) order.
fn keyed_events(raw: &[(u64, usize, usize)]) -> Vec<(EventKey, usize)> {
    let mut seqs = [0u64; 6];
    raw.iter()
        .map(|&(t, src, target)| {
            let seq = seqs[src];
            seqs[src] += 1;
            (
                EventKey {
                    at: SimTime::from_micros(t),
                    src: src as u64,
                    seq,
                },
                target,
            )
        })
        .collect()
}

/// A target's reference history: its events in canonical key order.
fn canonical_target_stream(events: &[(EventKey, usize)], target: usize) -> Vec<EventKey> {
    let mut expect: Vec<EventKey> = events
        .iter()
        .filter(|(_, tgt)| *tgt == target)
        .map(|(k, _)| *k)
        .collect();
    expect.sort();
    expect
}

/// The conservative-window drain, modeled at the queue level: targets are
/// assigned round-robin to `shards_n` keyed queues; deliveries are held
/// in a crossbox and merged at the barrier opening the window containing
/// them; each shard then drains only its own window. Returns each
/// target's received stream.
fn window_drain(events: &[(EventKey, usize)], shards_n: usize, window: u64) -> Vec<Vec<EventKey>> {
    let mut queues: Vec<KeyedEventQueue<usize>> =
        (0..shards_n).map(|_| KeyedEventQueue::new()).collect();
    let mut held: Vec<(EventKey, usize)> = events.to_vec();
    held.sort();
    held.reverse(); // Vec::pop() yields earliest first
    let mut streams: Vec<Vec<EventKey>> = vec![Vec::new(); 6];
    loop {
        let next_held = held.last().map(|(k, _)| k.at);
        let next_queued = queues.iter().filter_map(|q| q.peek_time()).min();
        let Some(t) = [next_held, next_queued].into_iter().flatten().min() else {
            break;
        };
        let end = t + SimDuration::from_micros(window);
        // Barrier: deliver everything landing inside this window.
        while held.last().is_some_and(|(k, _)| k.at < end) {
            let (k, target) = held.pop().unwrap();
            queues[target % shards_n].push(k, target);
        }
        // Each shard drains its own window, in shard order.
        for q in queues.iter_mut() {
            while q.peek_time().is_some_and(|at| at < end) {
                let (k, target) = q.pop().unwrap();
                streams[target].push(k);
            }
        }
    }
    streams
}

/// One fixed workload beside the window-barrier property above: 150
/// events at window widths up to 1 ms, both wider than the property draws.
#[test]
fn window_barrier_drain_differential_fixed_workload() {
    let event = |g: &mut Gen| (g.int(0u64..2000), g.int(0usize..6), g.int(0usize..6));
    let events = keyed_events(&Gen::new(0x2545_f491_4f6c_dd1d).vec(150..=150, event));
    for window in [1, 37, 250, 1000] {
        assert_drain_is_canonical_at_any_width(&events, window);
    }
}

/// One fixed arrival order beside the same-time canonical-order property.
#[test]
fn same_time_deliveries_pop_in_canonical_order_fixed() {
    let at = SimTime::from_micros(500);
    let mut events: Vec<EventKey> = Vec::new();
    for src in 0..5u64 {
        for seq in 0..(1 + src % 3) {
            events.push(EventKey { at, src, seq });
        }
    }
    // Arrival order scrambled: reversed then rotated.
    events.reverse();
    events.rotate_left(3);
    assert_pops_in_canonical_order(events.into_iter());
}

/// A deterministic world of relaying actors: each actor forwards a token
/// to the next with a pseudo-random delay; the full event history must be
/// identical across runs with the same seed.
#[test]
fn relay_world_is_deterministic() {
    #[derive(Clone, Debug)]
    struct Token(u32);

    struct Relay {
        next: ActorId,
        seen: u32,
    }
    impl Actor<Token> for Relay {
        fn name(&self) -> String {
            "relay".into()
        }
        fn on_message(&mut self, _f: ActorId, t: Token, ctx: &mut Context<'_, Token>) {
            self.seen += 1;
            if t.0 > 0 {
                let delay = SimDuration::from_micros(ctx.rng.range_u64(1, 1000));
                ctx.send_after(delay, self.next, Token(t.0 - 1));
            }
        }
    }

    let run = |seed: u64| {
        let mut w: World<Token> = World::new(seed);
        let ids: Vec<ActorId> = (0..5)
            .map(|_| w.add_actor(Box::new(Relay { next: 0, seen: 0 })))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % ids.len()];
            w.get_mut::<Relay>(*id).unwrap().next = next;
        }
        w.inject(ids[0], Token(200));
        w.run(10_000);
        (
            w.now(),
            w.events_processed(),
            ids.iter()
                .map(|id| w.get::<Relay>(*id).unwrap().seen)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(42), run(42));
    // Different seed: different delays, same token count.
    let (_, _, seen_a) = run(42);
    let (_, _, seen_b) = run(43);
    assert_eq!(seen_a.iter().sum::<u32>(), seen_b.iter().sum::<u32>());
}
