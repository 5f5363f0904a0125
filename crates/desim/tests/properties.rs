//! Properties of the simulation engine, run on seeded generated cases.

use desim::prelude::*;
use desim::{EventKey, EventQueue, KeyedEventQueue, ParConfig};
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

/// The keyed queue against a sorted-`Vec` model, pops interleaved with
/// pushes, in the three traffic shapes it serves: the engine's own
/// (time only advances and every push lands later, in large same-instant
/// batches that several senders fill out of order), arbitrary pushes at
/// and before the instant being drained, and one event set merged at a
/// barrier in permuted orders.
#[test]
fn keyed_queue_matches_the_sorted_model() {
    check(10_000, |g| match g.below(3) {
        0 => des_shaped(g),
        1 => arbitrary_order(g),
        _ => barrier_merge(g),
    });
}

/// A keyed queue and the model it must agree with: every pending key,
/// sorted in descending order so that the earliest is last.
#[derive(Default)]
struct Model {
    queue: KeyedEventQueue<EventKey>,
    pending: Vec<EventKey>,
    /// Sends so far per source; the last source is `EXTERNAL`.
    sent: Vec<u64>,
}

impl Model {
    fn new(sources: usize) -> Model {
        Model {
            sent: vec![0; sources + 1],
            ..Model::default()
        }
    }

    /// Push source `src`'s next event at `at_us`.
    fn push(&mut self, at_us: u64, src: usize) {
        let mut key = key(at_us, src, &mut self.sent);
        if src + 1 == self.sent.len() {
            key.src = EventKey::EXTERNAL;
        }
        self.insert(key);
    }

    fn insert(&mut self, key: EventKey) {
        self.queue.push(key, key);
        let i = self.pending.partition_point(|k| *k > key);
        self.pending.insert(i, key);
    }

    /// Pop one event from both and check they agree.
    fn pop(&mut self) -> Option<EventKey> {
        let want = self.pending.pop();
        let got = self.queue.pop();
        assert_eq!(got.map(|(k, _)| k), want, "pop order");
        assert!(got.is_none_or(|(k, e)| k == e), "a key keeps its event");
        assert_eq!(self.queue.len(), self.pending.len());
        assert_eq!(self.queue.peek_time(), self.pending.last().map(|k| k.at));
        want
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.queue.is_empty());
    }
}

/// The engine's traffic: each pop is a dispatch at its instant, which
/// sends a few events at delays on one period's lattice — so instants
/// collect large batches, and more of them are pending than the queue's
/// instant cache has lines. The sender is any source, not the one popped,
/// so a batch's runs arrive out of order and meet at activation.
fn des_shaped(g: &mut Gen) {
    let sources = g.int(1usize..=64);
    let period = g.int(1u64..=1_000);
    let delays = g.vec(1..=40, |g| period * g.int(1u64..=48));
    let mut model = Model::new(sources);
    for src in 0..=sources {
        for _ in 0..g.int(0..3) {
            model.push(*g.pick(&delays), src);
        }
    }
    for _ in 0..g.int(0..=400) {
        let Some(now) = model.pop() else { break };
        for _ in 0..g.int(0..=3) {
            model.push(now.at.as_micros() + *g.pick(&delays), g.int(0..=sources));
        }
    }
    model.drain();
}

/// Pushes anywhere near the last pop: at its instant (into the rest of
/// the batch being drained), before it, or a little after.
fn arbitrary_order(g: &mut Gen) {
    let sources = g.int(1usize..=8);
    let mut model = Model::new(sources);
    let mut now = 0u64;
    for _ in 0..g.int(0..=300) {
        if g.below(3) == 0 {
            if let Some(key) = model.pop() {
                now = key.at.as_micros();
            }
            continue;
        }
        let at = match g.below(4) {
            0 => now,
            1 => now.saturating_sub(g.int(1u64..=3)),
            _ => now + g.int(0u64..=5),
        };
        model.push(at, g.int(0..=sources));
    }
    model.drain();
}

/// One event set delivered at a barrier while a batch is open: in any
/// arrival order the queue drains it the same way, and as the model does.
fn barrier_merge(g: &mut Gen) {
    let set = g.vec(0..=200, |g| (g.int(1u64..=20), g.int(0usize..6)));
    let (open, drained) = (g.int(0usize..=6), g.int(0usize..=6));
    let mut drains = Vec::new();
    for _ in 0..3 {
        // The open batch at 0, from a source of its own, partly drained.
        let mut model = Model::new(7);
        for _ in 0..open {
            model.push(0, 6);
        }
        for _ in 0..drained {
            model.pop();
        }
        let mut arrival: Vec<(u64, EventKey)> = (set.iter())
            .map(|&(at, src)| (g.u64(), key(at, src, &mut model.sent)))
            .collect();
        arrival.sort();
        for (_, key) in arrival {
            model.insert(key);
        }
        drains.push(std::iter::from_fn(|| model.pop()).collect::<Vec<_>>());
    }
    assert!(drains.windows(2).all(|w| w[0] == w[1]));
}

/// Source `src`'s next key at `at_us`: its sequence numbers follow the
/// order keys are made in, not the order they are pushed in.
fn key(at_us: u64, src: usize, sent: &mut [u64]) -> EventKey {
    sent[src] += 1;
    EventKey {
        at: SimTime::from_micros(at_us),
        src: src as u64,
        seq: sent[src] - 1,
    }
}

/// Network transit: a delivered message takes exactly the base latency,
/// and never less than 1µs; loopback always delivers; partitions always
/// block.
#[test]
fn network_invariants() {
    check(CASES, |g| {
        let base_ms = g.int(0u64..50);
        let (a, b) = (g.int(0usize..8), g.int(0usize..8));
        let partitioned = g.bool();
        let mut net = Network::new(SimDuration::from_millis(base_ms));
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
            assert_eq!(lat, SimDuration::from_micros((base_ms * 1_000).max(1)));
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

/// A sender's message: who sent it, and where it stood in that sender's
/// sends.
type Said = (ActorId, u32);

/// Sends its plan at start-up — `(how, to, delay_ms)`: to itself, reliably,
/// or over the network — and records every delivery.
struct Chatter {
    plan: Vec<(u8, ActorId, u64)>,
    got: Vec<(SimTime, Said)>,
}

impl Actor<Said> for Chatter {
    fn name(&self) -> String {
        "chatter".into()
    }
    fn on_start(&mut self, ctx: &mut Context<'_, Said>) {
        for (k, &(how, to, ms)) in self.plan.iter().enumerate() {
            let said = (ctx.self_id, k as u32);
            let delay = SimDuration::from_millis(ms);
            match how {
                0 => ctx.send_self_after(delay, said),
                1 => ctx.send_after(delay, to, said),
                _ => assert!(ctx.send_net(to, said), "a fault-free network delivers"),
            }
        }
    }
    fn on_message(&mut self, _from: ActorId, said: Said, ctx: &mut Context<'_, Said>) {
        self.got.push((ctx.now, said));
    }
}

/// The engine's one tie-break, end to end: actors send same-instant
/// messages to themselves, reliably and over the network (1 ms, as the
/// reliable sends' 1 or 2 ms), and every receiver gets each instant's
/// deliveries ordered by sender id, then by that sender's send order — a
/// world and its sharded run alike.
#[test]
fn same_instant_deliveries_arrive_by_sender_then_send_order() {
    check(CASES, |g| {
        let n = g.int(2usize..7);
        let plans: Vec<Vec<(u8, ActorId, u64)>> = (0..n)
            .map(|_| g.vec(0..12, |g| (g.int(0u8..3), g.below(n), g.int(1u64..=2))))
            .collect();
        let seed = g.u64();
        let received = |shards: usize| {
            let mut w: World<Said> = World::new(seed);
            for plan in &plans {
                let plan = plan.clone();
                w.add_actor(Box::new(Chatter {
                    plan,
                    got: Vec::new(),
                }));
            }
            let mut pw = w.into_parallel(ParConfig::new(shards, 2));
            pw.run_until(SimTime::from_millis(5));
            let fin = pw.finish();
            (0..n)
                .map(|id| fin.get::<Chatter>(id).unwrap().got.clone())
                .collect::<Vec<_>>()
        };
        let one = received(1);
        for got in &one {
            let mut canonical = got.clone();
            canonical.sort();
            canonical.dedup();
            assert_eq!(got, &canonical, "not (time, sender, send order)");
        }
        let sent: usize = plans.iter().map(Vec::len).sum();
        assert_eq!(one.iter().map(Vec::len).sum::<usize>(), sent);
        assert_eq!(received(3), one, "three shards deliver what one does");
    });
}
