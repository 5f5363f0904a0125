//! The pending-event set: one key, drained an instant at a time.
//!
//! Every event is ordered by its [`EventKey`] `(time, source, per-source
//! seq)`: the caller supplies the key, so the pop order is a pure function
//! of the key *set*, independent of the order events were pushed. That is
//! the engine's only tie-break — same-instant deliveries drain in
//! source-id order, FIFO per source — and its push-order independence is
//! what lets cross-shard deliveries merge at a window barrier in any
//! arrival order and still drain identically.
//!
//! ## Why batches
//!
//! A simulated pool is soft state: every startd re-advertises on one
//! period and every claim is kept alive on another, so its events arrive
//! in large same-instant sets (`exp census` prints how many instants a
//! workload drains and its largest batch: thousands of events an instant
//! in `fed_scale`). The queue's unit of work is therefore the *instant*,
//! not the event. Its 4-ary min-heap holds one 16-byte `(instant, run)`
//! entry per pending run, where a run is a chain of events pushed at one
//! instant; a 16-line direct-mapped cache finds an instant's open run, so
//! consecutive pushes to one instant append to one run, and each run notes
//! at push time whether it is still in key order. The first pop of an
//! instant chains all of its runs into the batch and sorts the batch by
//! `(source, seq)` only if a run was out of order or several runs met;
//! every later pop of that instant is a cursor step.
//!
//! Payloads stay put in a slot arena with a free list, and runs and the
//! batch are chains through one link per slot rather than buffers of
//! their own: buffers handed from run to run would leave a long-lived
//! run of one timer holding the capacity of the last big instant, and
//! freeing them above some size would allocate on every big instant. So
//! a steady-state run allocates nothing, and joining two runs touches
//! only their ends.
//!
//! ## Why an instant is complete when it opens
//!
//! The engine never pushes into the instant it is draining:
//! `Context::send_after` and `World::inject_after` floor every delay at
//! 1 µs, and a cross-shard delivery lands after the window it was sent in
//! (the barrier asserts it). The queue is still correct for any push
//! order: a push at the instant being drained is a sorted insert into the
//! rest of the batch, and a push before it puts the rest of the batch back
//! as a run.

use crate::time::SimTime;

const ARITY: usize = 4;
const SEQ_BITS: u32 = 40;
/// The instant → open-run cache has `1 << CACHE_BITS` lines.
const CACHE_BITS: u32 = 4;
const CACHE_LINES: usize = 1 << CACHE_BITS;
/// The end of a chain of slots, or no run.
const NIL: u32 = u32::MAX;

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

    /// Source and sequence in one word, the source in its top 24 bits:
    /// within an instant, keys compare as their words.
    #[inline]
    fn word(self) -> u64 {
        debug_assert!(self.src <= Self::EXTERNAL && self.seq >> SEQ_BITS == 0);
        self.src << SEQ_BITS | self.seq
    }

    #[inline]
    fn from_word(at: u64, word: u64) -> EventKey {
        EventKey {
            at: SimTime::from_micros(at),
            src: word >> SEQ_BITS,
            seq: word & ((1 << SEQ_BITS) - 1),
        }
    }
}

/// Some of one pending instant's events: a chain of arena slots in push
/// order.
#[derive(Clone, Copy)]
struct Run {
    head: u32,
    tail: u32,
    len: u32,
    /// Whether the chain is in key order, kept up to date at push time.
    sorted: bool,
    /// The word of `tail`.
    last: u64,
}

/// A deterministic time-ordered event queue whose tie-break is the
/// caller-supplied [`EventKey`] — see the module docs.
pub struct KeyedEventQueue<E> {
    /// Every event's key word and payload; a vacant slot holds `None`.
    slots: Vec<(u64, Option<E>)>,
    /// Per slot: the next slot of its run or batch, or for a vacant slot
    /// the next vacant one.
    links: Vec<u32>,
    free_slot: u32,
    /// Runs by index; those not pending are listed in `free_runs`.
    runs: Vec<Run>,
    free_runs: Vec<u32>,
    /// A 4-ary min-heap of pending runs by instant.
    heap: Vec<(u64, u32)>,
    /// Instant → its open run, direct-mapped.
    cache: [(u64, u32); CACHE_LINES],
    /// The instant being drained: its undrained events in key order, a
    /// chain from `cursor`.
    cursor: u32,
    batch_at: u64,
    /// Where an unsorted batch is put in order.
    sorting: Vec<u32>,
    len: usize,
    instants: u64,
    largest_batch: usize,
    sorted_keys: u64,
}

impl<E> Default for KeyedEventQueue<E> {
    fn default() -> Self {
        KeyedEventQueue::new()
    }
}

/// The cache line of instant `at`: the top bits of a Fibonacci hash, as
/// instants are round multiples of a period more often than not.
#[inline]
fn line_of(at: u64) -> usize {
    (at.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - CACHE_BITS)) as usize
}

impl<E> KeyedEventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            slots: Vec::new(),
            links: Vec::new(),
            free_slot: NIL,
            runs: Vec::new(),
            free_runs: Vec::new(),
            heap: Vec::new(),
            cache: [(0, NIL); CACHE_LINES],
            cursor: NIL,
            batch_at: 0,
            sorting: Vec::new(),
            len: 0,
            instants: 0,
            largest_batch: 0,
            sorted_keys: 0,
        }
    }

    /// Schedule `event` under `key`. Keys must be unique across the run
    /// (guaranteed when `seq` is a per-`src` counter).
    pub fn push(&mut self, key: EventKey, event: E) {
        let (at, word) = (key.at.as_micros(), key.word());
        let slot = match self.free_slot {
            NIL => {
                let slot = u32::try_from(self.slots.len()).ok().filter(|&s| s != NIL);
                self.slots.push((word, Some(event)));
                self.links.push(NIL);
                slot.expect("fewer than 2^32 - 1 pending events")
            }
            slot => {
                self.free_slot = self.links[slot as usize];
                self.slots[slot as usize] = (word, Some(event));
                slot
            }
        };
        self.len += 1;
        if self.cursor != NIL {
            if at == self.batch_at {
                self.insert_in_batch(slot, word);
                return;
            }
            if at < self.batch_at {
                self.shelve();
            }
        }
        let line = line_of(at);
        let r = match self.cache[line] {
            (cached, r) if r != NIL && cached == at => r,
            _ => {
                let r = self.open_run(at);
                self.cache[line] = (at, r);
                r
            }
        };
        let run = &mut self.runs[r as usize];
        self.links[slot as usize] = NIL;
        if run.len == 0 {
            run.head = slot;
        } else {
            self.links[run.tail as usize] = slot;
            run.sorted &= run.last < word;
        }
        run.tail = slot;
        run.last = word;
        run.len += 1;
    }

    /// Remove and return the earliest event with its key.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        if self.cursor == NIL && !self.activate() {
            return None;
        }
        let slot = self.cursor as usize;
        self.cursor = self.links[slot];
        self.links[slot] = self.free_slot;
        self.free_slot = slot as u32;
        self.len -= 1;
        let (word, event) = &mut self.slots[slot];
        let event = event.take().expect("a batched slot holds its event");
        Some((EventKey::from_word(self.batch_at, *word), event))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let at = if self.cursor != NIL {
            self.batch_at
        } else {
            self.heap.first()?.0
        };
        Some(SimTime::from_micros(at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Instants opened for draining so far: the number of batches.
    pub fn instants(&self) -> u64 {
        self.instants
    }

    /// The most events one batch has held.
    pub fn largest_batch(&self) -> usize {
        self.largest_batch
    }

    /// Keys sorted so far because an instant opened out of key order.
    pub fn sorted_keys(&self) -> u64 {
        self.sorted_keys
    }

    #[inline]
    fn word_of(&self, slot: u32) -> u64 {
        self.slots[slot as usize].0
    }

    /// An empty pending run for `at`, filed in the heap.
    fn open_run(&mut self, at: u64) -> u32 {
        let empty = Run {
            head: NIL,
            tail: NIL,
            len: 0,
            sorted: true,
            last: 0,
        };
        let r = match self.free_runs.pop() {
            Some(r) => {
                self.runs[r as usize] = empty;
                r
            }
            None => {
                let r = u32::try_from(self.runs.len()).ok().filter(|&r| r != NIL);
                self.runs.push(empty);
                r.expect("fewer than 2^32 - 1 pending runs")
            }
        };
        self.heap.push((at, r));
        self.sift_up(self.heap.len() - 1);
        r
    }

    /// Link `slot` into the undrained batch at its place in key order.
    fn insert_in_batch(&mut self, slot: u32, word: u64) {
        if word < self.word_of(self.cursor) {
            self.links[slot as usize] = self.cursor;
            self.cursor = slot;
            return;
        }
        let mut prev = self.cursor;
        loop {
            let next = self.links[prev as usize];
            if next == NIL || self.word_of(next) > word {
                break;
            }
            prev = next;
        }
        self.links[slot as usize] = self.links[prev as usize];
        self.links[prev as usize] = slot;
    }

    /// Put the undrained rest of the batch back as a run of its instant.
    fn shelve(&mut self) {
        let (mut tail, mut len) = (self.cursor, 1);
        while self.links[tail as usize] != NIL {
            tail = self.links[tail as usize];
            len += 1;
        }
        let at = self.batch_at;
        let r = self.open_run(at);
        self.runs[r as usize] = Run {
            head: self.cursor,
            tail,
            len,
            sorted: true,
            last: self.word_of(tail),
        };
        self.cache[line_of(at)] = (at, r);
        self.cursor = NIL;
    }

    /// Open the earliest pending instant: chain its runs into the batch,
    /// in key order. Returns `false` if nothing is pending.
    fn activate(&mut self) -> bool {
        let Some(&(at, first)) = self.heap.first() else {
            return false;
        };
        self.pop_heap();
        self.free_runs.push(first);
        let Run {
            head,
            mut tail,
            mut len,
            mut sorted,
            ..
        } = self.runs[first as usize];
        while let Some(&(next_at, r)) = self.heap.first() {
            if next_at != at {
                break;
            }
            self.pop_heap();
            self.free_runs.push(r);
            let run = self.runs[r as usize];
            self.links[tail as usize] = run.head;
            (tail, len, sorted) = (run.tail, len + run.len, false);
        }
        self.cursor = head;
        if !sorted {
            self.sorting.clear();
            let mut slot = head;
            while slot != NIL {
                self.sorting.push(slot);
                slot = self.links[slot as usize];
            }
            let slots = &self.slots;
            self.sorting.sort_unstable_by_key(|&s| slots[s as usize].0);
            self.sorted_keys += self.sorting.len() as u64;
            for pair in self.sorting.windows(2) {
                self.links[pair[0] as usize] = pair[1];
            }
            self.links[self.sorting[self.sorting.len() - 1] as usize] = NIL;
            self.cursor = self.sorting[0];
        }
        self.batch_at = at;
        let line = &mut self.cache[line_of(at)];
        if line.0 == at {
            line.1 = NIL;
        }
        self.instants += 1;
        self.largest_batch = self.largest_batch.max(len as usize);
        true
    }

    fn pop_heap(&mut self) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[i].0 >= self.heap[parent].0 {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            // Smallest of up to ARITY children.
            let mut min = first_child;
            let last_child = (first_child + ARITY).min(len);
            for c in first_child + 1..last_child {
                if self.heap[c].0 < self.heap[min].0 {
                    min = c;
                }
            }
            if self.heap[min].0 >= self.heap[i].0 {
                break;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }
}

/// Push-order ties over the one queue (each push is one source's next
/// send, so equal times pop first in, first out). The engine does not use
/// it: it is kept only for the frozen ledger's
/// `probe.desim.queue_mops_per_s` until ROADMAP 1(e–f), as
/// `World::without_trace` is for its callers.
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
