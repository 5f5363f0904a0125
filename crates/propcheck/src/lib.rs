//! A seeded property runner for the workspace's test suites.
//!
//! A property is a closure over a [`Gen`]: it draws whatever inputs it
//! wants and asserts. [`check`] runs it on `cases` generators seeded
//! `0..cases`; when a case panics, the seed is printed before the panic
//! carries on to fail the test, and [`replay`] with that seed runs the
//! very same case again — which is how a found failure becomes a
//! committed regression test. A generator is an ordinary
//! `fn(&mut Gen) -> T`; a choice between shapes is a `match g.below(n)`.
//! There is no shrinking, no configuration and no macro: a failing case
//! is debugged at the size it was found.
//!
//! [`counting`] is the other thing several suites share: an allocator
//! that counts, for tests that bound what a decoder may allocate.

#![warn(missing_docs)]

pub mod counting;

use std::ops::{Bound, Range, RangeBounds};

/// A stream of generated values: SplitMix64 under a few typed draws.
pub struct Gen {
    state: u64,
}

impl Gen {
    /// The generator of case `seed`.
    pub fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    /// 64 uniform bits.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the arm selector of a generator's `match`.
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.u64()) * n as u128) >> 64) as usize
    }

    /// An integer of any primitive type from `lo..hi` or `lo..=hi`. One
    /// draw in eight is one of the two ends, where the bugs live; the rest
    /// are uniform. Panics on an empty or unbounded range.
    pub fn int<T>(&mut self, range: impl RangeBounds<T>) -> T
    where
        T: Copy + TryInto<i128> + TryFrom<i128>,
    {
        let wide = |v: T| v.try_into().ok().expect("primitive integers fit i128");
        let end = |bound: Bound<&T>, inward: i128| match bound {
            Bound::Included(&v) => wide(v),
            Bound::Excluded(&v) => wide(v) + inward,
            Bound::Unbounded => panic!("int() needs both ends of its range"),
        };
        let (lo, hi) = (end(range.start_bound(), 1), end(range.end_bound(), -1));
        assert!(lo <= hi, "int() over an empty range");
        let v = match self.below(16) {
            0 => lo,
            1 => hi,
            _ => lo + ((u128::from(self.u64()) * ((hi - lo) as u128 + 1)) >> 64) as i128,
        };
        T::try_from(v).ok().expect("drawn inside the range")
    }

    /// Uniform in `[range.start, range.end)`.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// One of `items`, uniformly. Panics if there are none.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// `item`s, their number drawn from `len`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        (0..self.int(len)).map(|_| item(self)).collect()
    }

    /// Uniform bytes, their number drawn from `len`.
    pub fn bytes(&mut self, len: impl RangeBounds<usize>) -> Vec<u8> {
        let mut out = vec![0; self.int(len)];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.u64().to_le_bytes()[..chunk.len()]);
        }
        out
    }

    /// A string of characters picked from `alphabet`, their number drawn
    /// from `len`.
    pub fn string(&mut self, alphabet: &str, len: impl RangeBounds<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| *g.pick(&alphabet)).into_iter().collect()
    }

    /// `valid` damaged in one to three places, the way a decoder's input
    /// goes wrong: a bit flipped, the tail lost, a span cut out, a span
    /// repeated somewhere else, or a span overwritten with noise.
    pub fn mutated(&mut self, valid: &[u8]) -> Vec<u8> {
        let mut out = valid.to_vec();
        for _ in 0..self.int(1..=3) {
            if out.is_empty() {
                return self.bytes(0..=8);
            }
            let at = self.below(out.len());
            let span = at..at + self.int(1..=(out.len() - at).min(16));
            match self.below(5) {
                0 => out[at] ^= 1 << self.below(8),
                1 => out.truncate(at),
                2 => drop(out.drain(span)),
                3 => {
                    let (copy, to) = (out[span].to_vec(), self.below(out.len() + 1));
                    out.splice(to..to, copy);
                }
                _ => drop(out.splice(span, self.bytes(0..=8))),
            }
        }
        out
    }
}

/// Run `property` on the one case `seed` names; if it panics, name the
/// seed and let the panic go on to fail the test.
pub fn replay(seed: u64, mut property: impl FnMut(&mut Gen)) {
    let case = std::panic::AssertUnwindSafe(|| property(&mut Gen::new(seed)));
    if let Err(panic) = std::panic::catch_unwind(case) {
        eprintln!(
            "propcheck: failed on seed {seed}; `propcheck::replay({seed}, ..)` re-runs that case"
        );
        std::panic::resume_unwind(panic);
    }
}

/// Run `property` on cases `0..cases`.
pub fn check(cases: u64, mut property: impl FnMut(&mut Gen)) {
    for seed in 0..cases {
        replay(seed, &mut property);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_stays_inside_and_reaches_both_ends_of_every_kind_of_range() {
        let mut g = Gen::new(1);
        let (mut lows, mut highs) = (0, 0);
        for _ in 0..2_000 {
            let v: i8 = g.int(-3..4);
            assert!((-3..4).contains(&v));
            lows += u32::from(v == -3);
            highs += u32::from(v == 3);
            assert!((5..=6).contains(&g.int(5..=6usize)));
        }
        assert!(lows > 100 && highs > 100, "{lows} {highs}");
        let wide: Vec<u64> = (0..400).map(|_| g.int(0..=u64::MAX)).collect();
        assert!(wide.contains(&0) && wide.contains(&u64::MAX));
        assert!(wide.iter().any(|v| (1 << 62..u64::MAX).contains(v)));
        assert_eq!(g.int(i64::MIN..=i64::MIN), i64::MIN);
    }

    #[test]
    fn collections_draw_their_lengths_and_elements_from_what_they_are_given() {
        let mut g = Gen::new(2);
        for _ in 0..500 {
            let s = g.string("ab\u{e9}", 2..5);
            assert!((2..5).contains(&s.chars().count()), "{s}");
            assert!(s.chars().all(|c| "ab\u{e9}".contains(c)), "{s}");
            assert!(g.bytes(0..=3).len() <= 3 && (0.5..2.0).contains(&g.f64(0.5..2.0)));
            assert!(g.mutated(s.as_bytes()).len() <= s.len() + 3 * 16);
        }
        assert_eq!(g.vec(3..=3, |g| *g.pick(&[7])), [7, 7, 7]);
    }

    #[test]
    fn check_visits_every_seed_once_and_replay_repeats_a_case() {
        let draw = |g: &mut Gen| (g.u64(), g.int(0..1000u32), g.bool());
        let mut seen = Vec::new();
        check(50, |g| seen.push(draw(g)));
        replay(17, |g| assert_eq!(draw(g), seen[17]));
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 50);
    }

    #[test]
    #[should_panic(expected = "case 3")]
    fn a_failing_case_still_fails_the_test() {
        let mut case = 0;
        check(10, |_| {
            assert!(case != 3, "case {case}");
            case += 1;
        });
    }
}
