//! A bounded FIFO ring buffer.
//!
//! Both the typed event [`Collector`](crate::Collector) and `desim`'s text
//! trace log store their records here, so a long-running simulation holds a
//! window of the most recent records rather than the whole history. The
//! number of evicted records is kept so consumers can tell a complete
//! record from a truncated one.

use std::collections::VecDeque;

/// A bounded FIFO buffer: pushing past capacity evicts the oldest entry.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    evicted: u64,
}

impl<T> RingBuffer<T> {
    /// A buffer holding at most `capacity` entries. A capacity of zero is
    /// promoted to one so `push` always retains the newest entry.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer {
            buf: VecDeque::new(),
            capacity,
            evicted: 0,
        }
    }

    /// Append an entry, evicting the oldest if the buffer is full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(item);
    }

    /// Entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.buf.iter()
    }

    /// The entry at position `i` (0 = oldest retained).
    pub fn get(&self, i: usize) -> Option<&T> {
        self.buf.get(i)
    }

    /// The most recent entry.
    pub fn last(&self) -> Option<&T> {
        self.buf.back()
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries have been evicted to make room.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Drop all retained entries (the eviction count is unchanged).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl<'a, T> IntoIterator for &'a RingBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_within_capacity_keeps_everything() {
        let mut r = RingBuffer::new(4);
        for i in 0..4 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.evicted(), 0);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn eviction_preserves_fifo_order() {
        let mut r = RingBuffer::new(3);
        for i in 0..10 {
            r.push(i);
        }
        // The three newest survive, oldest first.
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 7);
        assert_eq!(r.get(0), Some(&7));
        assert_eq!(r.last(), Some(&9));
    }

    #[test]
    fn zero_capacity_is_promoted_to_one() {
        let mut r = RingBuffer::new(0);
        r.push("a");
        r.push("b");
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!["b"]);
        assert_eq!(r.evicted(), 1);
    }

    #[test]
    fn clear_keeps_the_eviction_count() {
        let mut r = RingBuffer::new(2);
        for i in 0..5 {
            r.push(i);
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.evicted(), 3);
    }
}
