//! The pending-event set: one heap, one key.
//!
//! Every event is ordered by its [`EventKey`] `(time, source, per-source
//! seq)`: the caller supplies the key, so the pop order is a pure function
//! of the key *set*, independent of the order events were pushed. That is
//! the engine's only tie-break — same-instant deliveries drain in
//! source-id order, FIFO per source — and its push-order independence is
//! what lets cross-shard deliveries merge at a window barrier in any
//! arrival order and still drain identically.
//!
//! The backing store is a hand-rolled **4-ary min-heap** rather than
//! `std::collections::BinaryHeap`. The simulator's pop-one/push-a-few
//! cadence spends most of its queue time sifting; a 4-ary layout halves
//! the tree depth (fewer key comparisons resolve to fewer cache lines
//! touched per sift) and keys compare directly with no `Ord`-inversion
//! wrapper. A stored key is one 16-byte integer: the time in the high
//! word, the source and sequence packed into the low one (source in its
//! top 24 bits), so a comparison is one wide compare.

use crate::time::SimTime;

const ARITY: usize = 4;
const SEQ_BITS: u32 = 40;

/// The canonical ordering key of one event: `(time, source, per-source
/// sequence)`.
///
/// `source` is the sender's actor id (or [`EventKey::EXTERNAL`] for
/// injections from outside the world) and `seq` counts that sender's sends
/// from the start of the run — so the key is unique, per-sender FIFO is
/// preserved at equal times, and the total order does not depend on which
/// shard pushed the event first. Sources are below 2²⁴ and sequences below
/// 2⁴⁰ (the world asserts the first at `add_actor`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Delivery time.
    pub at: SimTime,
    /// Sender's actor id, or [`EventKey::EXTERNAL`].
    pub src: u64,
    /// The sender's send counter at the moment of sending.
    pub seq: u64,
}

impl EventKey {
    /// The `src` of events injected from outside any actor: the largest
    /// source, so it orders after every real sender at the same instant.
    pub const EXTERNAL: u64 = (1 << 24) - 1;

    /// The keying function: `src`'s next send at `at`, advancing `sent`,
    /// the count of `src`'s sends so far.
    #[inline]
    pub(crate) fn next(at: SimTime, src: u64, sent: &mut u64) -> EventKey {
        let seq = *sent;
        *sent += 1;
        EventKey { at, src, seq }
    }

    #[inline]
    fn packed(self) -> u128 {
        debug_assert!(self.src <= Self::EXTERNAL && self.seq >> SEQ_BITS == 0);
        (u128::from(self.at.as_micros()) << 64) | u128::from(self.src << SEQ_BITS | self.seq)
    }

    #[inline]
    fn unpacked(packed: u128) -> EventKey {
        let (at, word) = ((packed >> 64) as u64, packed as u64);
        let seq = word & ((1 << SEQ_BITS) - 1);
        EventKey {
            at: SimTime::from_micros(at),
            src: word >> SEQ_BITS,
            seq,
        }
    }
}

/// A deterministic time-ordered event queue whose tie-break is the
/// caller-supplied [`EventKey`] — see the module docs.
pub struct KeyedEventQueue<E> {
    items: Vec<(u128, E)>,
}

impl<E> Default for KeyedEventQueue<E> {
    fn default() -> Self {
        KeyedEventQueue::new()
    }
}

impl<E> KeyedEventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedEventQueue { items: Vec::new() }
    }

    /// Schedule `event` under `key`. Keys must be unique across the run
    /// (guaranteed when `seq` is a per-`src` counter).
    pub fn push(&mut self, key: EventKey, event: E) {
        self.items.push((key.packed(), event));
        self.sift_up(self.items.len() - 1);
    }

    /// Remove and return the earliest event with its key.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let (packed, event) = self.items.pop().expect("non-empty");
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        Some((EventKey::unpacked(packed), event))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.items.first().map(|e| EventKey::unpacked(e.0).at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.items[i].0 >= self.items[parent].0 {
                break;
            }
            self.items.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.items.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            // Smallest of up to ARITY children.
            let mut min = first_child;
            let last_child = (first_child + ARITY).min(len);
            for c in first_child + 1..last_child {
                if self.items[c].0 < self.items[min].0 {
                    min = c;
                }
            }
            if self.items[min].0 >= self.items[i].0 {
                break;
            }
            self.items.swap(i, min);
            i = min;
        }
    }
}

/// Push-order ties over the one heap (each push is one source's next send,
/// so equal times pop first in, first out). The engine does not use it: it
/// is kept only for the frozen ledger's `probe.desim.queue_mops_per_s`
/// until ROADMAP 1(e–f), as `World::without_trace` is for its callers.
#[derive(Default)]
pub struct EventQueue<E>(KeyedEventQueue<E>, u64);

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue(KeyedEventQueue::new(), 0)
    }

    /// Schedule `event` at `at`, behind everything already pushed for `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.0.push(EventKey::next(at, 0, &mut self.1), event);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.0.pop().map(|(key, event)| (key.at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(SimTime::from_secs(2), 100);
        for i in 0..100 {
            q.push(t, i);
        }
        assert_eq!(q.len(), 101);
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 100)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = KeyedEventQueue::new();
        q.push(key(5_000_000, 0, 0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "late");
        q.push(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_secs(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    fn key(at_us: u64, src: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_micros(at_us),
            src,
            seq,
        }
    }

    #[test]
    fn keyed_queue_orders_by_time_then_source_then_seq() {
        let mut q = KeyedEventQueue::new();
        q.push(key(5, 1, 0), "t5-s1");
        q.push(key(3, 9, 2), "t3-s9");
        q.push(key(3, 2, 7), "t3-s2");
        q.push(key(3, 2, 4), "t3-s2-earlier");
        let popped: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, vec!["t3-s2-earlier", "t3-s2", "t3-s9", "t5-s1"]);
    }

    #[test]
    fn keyed_queue_order_is_push_order_independent() {
        // The defining property: any permutation of pushes drains the same.
        let keys: Vec<EventKey> = (0..24u64).map(|i| key(i % 4, (i * 7) % 5, i)).collect();
        let drain = |order: &[usize]| -> Vec<EventKey> {
            let mut q = KeyedEventQueue::new();
            for &i in order {
                q.push(keys[i], i);
            }
            std::iter::from_fn(|| q.pop()).map(|(k, _)| k).collect()
        };
        let forward: Vec<usize> = (0..keys.len()).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        // A deterministic shuffle.
        let mut shuffled = forward.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (i * 2_654_435_761) % (i + 1));
        }
        let want = drain(&forward);
        assert_eq!(drain(&reversed), want);
        assert_eq!(drain(&shuffled), want);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(want, sorted);
    }

    #[test]
    fn external_key_orders_after_every_sender() {
        let mut q = KeyedEventQueue::new();
        q.push(key(1, EventKey::EXTERNAL, 0), "injected");
        q.push(key(1, 3, 99), "sent");
        assert_eq!(q.pop().unwrap().1, "sent");
        assert_eq!(q.pop().unwrap().1, "injected");
    }

    #[test]
    fn packing_keeps_the_widest_source_and_sequence() {
        let widest = key(u64::MAX, EventKey::EXTERNAL, (1 << SEQ_BITS) - 1);
        let mut q = KeyedEventQueue::new();
        q.push(widest, ());
        q.push(
            key(u64::MAX, EventKey::EXTERNAL - 1, (1 << SEQ_BITS) - 1),
            (),
        );
        q.push(key(u64::MAX, EventKey::EXTERNAL, 0), ());
        let popped: Vec<EventKey> = std::iter::from_fn(|| q.pop()).map(|(k, _)| k).collect();
        assert_eq!(popped[2], widest);
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn matches_reference_model_under_random_interleaving() {
        // Differential test: a sorted-Vec model must agree with the heap
        // on every pop across a deterministic pseudo-random push/pop mix.
        let mut q = KeyedEventQueue::new();
        let mut model: Vec<EventKey> = Vec::new();
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut sent = [0u64; 7];
        for _ in 0..2000u64 {
            let src = next() % 7;
            let k = EventKey::next(
                SimTime::from_micros(next() % 50),
                src,
                &mut sent[src as usize],
            );
            q.push(k, k);
            model.push(k);
            if next() % 3 == 0 {
                model.sort();
                let want = (!model.is_empty()).then(|| model.remove(0));
                assert_eq!(q.pop().map(|(k, _)| k), want);
            }
        }
        model.sort();
        for k in model {
            assert_eq!(q.pop(), Some((k, k)));
        }
        assert_eq!(q.pop(), None);
    }
}
