//! Seeded randomness for reproducible experiments.
//!
//! Every stochastic choice in an experiment draws from a [`SimRng`] seeded
//! from the experiment definition, so that runs are bit-for-bit
//! reproducible. Streams can be forked per component so adding a new
//! consumer does not perturb the draws seen by existing ones.
//!
//! The stream is this module's own and depends on no other crate, but it is
//! not a new one: the words are those of `rand_chacha` 0.3's `ChaCha8Rng`
//! (djb ChaCha, 8 rounds, `rand_core::block::BlockRng`'s four-block buffer)
//! seeded by `rand_core` 0.6's `seed_from_u64`, and each draw is the one
//! `rand` 0.8.5 makes of them, so a seed means what it meant when those
//! crates sat underneath. The unit tests hold that: published keystream
//! vectors, `BlockRng`'s refill cases, and a fold over several thousand
//! mixed draws recorded before the crates went.

/// `b"expand 32-byte k"` as little-endian words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Words buffered per refill: four ChaCha blocks, as `BlockRng` holds.
const BUF_WORDS: usize = 64;

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One 16-word ChaCha block of `ROUNDS` rounds: 64-bit block counter in
/// words 12..13, stream id 0 in words 14..15. `SimRng` runs 8 rounds; the
/// published vectors the tests quote also cover 20.
fn chacha_block<const ROUNDS: usize>(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut st = [0u32; 16];
    st[..4].copy_from_slice(&SIGMA);
    st[4..12].copy_from_slice(key);
    st[12] = counter as u32;
    st[13] = (counter >> 32) as u32;
    let mut w = st;
    for _ in 0..ROUNDS / 2 {
        quarter(&mut w, 0, 4, 8, 12);
        quarter(&mut w, 1, 5, 9, 13);
        quarter(&mut w, 2, 6, 10, 14);
        quarter(&mut w, 3, 7, 11, 15);
        quarter(&mut w, 0, 5, 10, 15);
        quarter(&mut w, 1, 6, 11, 12);
        quarter(&mut w, 2, 7, 8, 13);
        quarter(&mut w, 3, 4, 9, 14);
    }
    for (out, add) in w.iter_mut().zip(st) {
        *out = out.wrapping_add(add);
    }
    w
}

/// A deterministic random stream.
pub struct SimRng {
    key: [u32; 8],
    /// The next block to generate.
    counter: u64,
    buf: [u32; BUF_WORDS],
    /// Next unconsumed word in `buf`; `BUF_WORDS` means empty.
    index: usize,
}

impl SimRng {
    fn from_key(key: [u32; 8]) -> Self {
        SimRng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// A stream from a 64-bit seed: the key is eight successive PCG32
    /// outputs, as `rand_core`'s `seed_from_u64` expands it.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        SimRng::from_key(std::array::from_fn(|_| {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            xorshifted.rotate_right((state >> 59) as u32)
        }))
    }

    /// Fork an independent stream for a named component. The same
    /// `(parent seed, label)` pair always yields the same child stream.
    pub fn fork(&self, label: &str) -> SimRng {
        // Mix the label into the child's key with FNV-1a; the parent's own
        // stream is not advanced, so forking is order-independent.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut key = self.key;
        key[0] ^= h as u32;
        key[1] ^= (h >> 32) as u32;
        SimRng::from_key(key)
    }

    /// Refill the buffer with the next four blocks and continue at `index`.
    fn refill(&mut self, index: usize) {
        for block in self.buf.chunks_exact_mut(16) {
            block.copy_from_slice(&chacha_block::<8>(&self.key, self.counter));
            self.counter = self.counter.wrapping_add(1);
        }
        self.index = index;
    }

    #[cfg(test)]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill(0);
        }
        self.index += 1;
        self.buf[self.index - 1]
    }

    /// Two words, low half first — `BlockRng`'s, with its one index check
    /// on the common path, which is all that is inlined into a caller.
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            u64::from(self.buf[index + 1]) << 32 | u64::from(self.buf[index])
        } else {
            self.next_u64_across_refill()
        }
    }

    /// One draw in 32: the buffer is spent. (Or has one word left, which
    /// becomes the low half — every public draw takes whole `u64`s, so the
    /// index stays even and only the tests reach that case.)
    #[cold]
    #[inline(never)]
    fn next_u64_across_refill(&mut self) -> u64 {
        if self.index >= BUF_WORDS {
            self.refill(2);
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill(1);
            u64::from(self.buf[0]) << 32 | lo
        }
    }

    /// Uniform in `[0, range)` for `range > 0`: the high half of a widening
    /// multiply, redrawn while the low half falls past the largest multiple
    /// of `range` below 2^64 (approximated by a shift, as `rand` does).
    fn below(&mut self, range: u64) -> u64 {
        let zone = (range << range.leading_zeros()) - 1;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(range);
            if wide as u64 <= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform in `[0, 1)`: 53 random bits over 2^53.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform in `[0, n)`, as a usize index.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty range");
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed value with the given mean — the classic
    /// inter-arrival model.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        // Uniform in `[EPSILON, 1)` the way `rand` draws a float range: 52
        // mantissa bits under exponent 0 give a value in [1, 2), scaled
        // and shifted; if rounding lands on 1.0, shrink the scale one ulp
        // and redraw.
        let mut scale = 1.0 - f64::EPSILON;
        let u = loop {
            let value1_2 = f64::from_bits((self.next_u64() >> 12) | (1023 << 52));
            let u = value1_2 * scale - scale + f64::EPSILON;
            if u < 1.0 {
                break u;
            }
            scale = f64::from_bits(scale.to_bits() - 1);
        };
        -mean * u.ln()
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `stream_is_the_one_recorded_at_the_parent`'s fold, taken at `a329d7e`
    /// with `rand` 0.8.5's and `rand_chacha` 0.3's stand-ins underneath.
    const RECORDED_AT_PARENT: u64 = 0xba26_24b9_18bf_24d9;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork("matchmaker");
        let mut c2 = parent.fork("matchmaker");
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut c3 = parent.fork("schedd");
        let mut c1b = parent.fork("matchmaker");
        c1b.next_u64();
        assert_ne!(c1b.next_u64(), c3.next_u64());
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        let _ = a.fork("x");
        let _ = a.fork("y");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Rough frequency sanity for p=0.5.
        let hits = (0..10_000).filter(|_| r.chance(0.5)).count();
        assert!((4000..6000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seed_from_u64(3);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(10.0)).sum();
        let mean = total / n as f64;
        assert!((9.0..11.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(5);
        let p = r.permutation(100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn index_in_range() {
        let mut r = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    // The published vectors `rand_chacha` tests itself against, and
    // `rand_core::block::BlockRng`'s word-consumption cases.

    /// ChaCha8, all-zero key, block 0: draft-strombergson TC1 (8 rounds),
    /// keystream bytes 3e 00 ef 2f 89 5f 40 d6 ... as little-endian words.
    const ZERO8: [u32; 16] = [
        0x2fef003e, 0xd6405f89, 0xe8b85b7f, 0xa1a5091f, 0xc30e842c, 0x3b7f9ace, 0x88e11b18,
        0x1e1a71ef, 0x72e14c98, 0x416f21b9, 0x6753449f, 0x19566d45, 0xa3424a31, 0x01b086da,
        0xb8fd7b38, 0x42fe0c0e,
    ];

    /// ChaCha8, all-zero key, block 1 (counter = 1), first 8 words.
    const ZERO8_BLOCK1: [u32; 8] = [
        0x0dfaaed2, 0x51c1a5ea, 0x6cdb0abf, 0xada5f201, 0x1258fdc0, 0xaaa2f959, 0x8f0ff2dc,
        0x6ba266d5,
    ];

    fn words(rng: &mut SimRng, n: usize) -> Vec<u32> {
        (0..n).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn chacha8_zero_key_matches_published_vector() {
        let mut rng = SimRng::from_key([0; 8]);
        assert_eq!(words(&mut rng, 16), ZERO8);
        assert_eq!(words(&mut rng, 8), ZERO8_BLOCK1);
    }

    /// ChaCha20, all-zero key, block 0: keystream 76 b8 e0 ad ... (RFC 7539 /
    /// draft-nir; also rand_chacha's own `test_chacha_true_values`).
    #[test]
    fn chacha20_zero_key_matches_published_vector() {
        assert_eq!(
            chacha_block::<20>(&[0; 8], 0)[..8],
            [
                0xade0b876, 0x903df1a0, 0xe56a5d40, 0x28bd8653, 0xb819d2bd, 0x1aed8da0, 0xccef36a8,
                0xc70d778b
            ]
        );
    }

    /// ChaCha8 after `seed_from_u64(42)` (rand_core 0.6 PCG32 seed expansion).
    #[test]
    fn chacha8_seed_from_u64_matches_rand_core_expansion() {
        assert_eq!(
            words(&mut SimRng::seed_from_u64(42), 8),
            [
                0x395d5ba1, 0xae90bfb5, 0x25799188, 0xf3453fc6, 0xc5b6538c, 0x6d71b708, 0x58166752,
                0xa09ab2f9
            ]
        );
    }

    /// ChaCha8 with the incrementing seed bytes 0, 1, ..., 31.
    #[test]
    fn chacha8_incrementing_seed_vector() {
        let key = std::array::from_fn(|i| {
            let b = 4 * i as u8;
            u32::from_le_bytes([b, b + 1, b + 2, b + 3])
        });
        assert_eq!(
            words(&mut SimRng::from_key(key), 8),
            [
                0x8fb21540, 0x6aab126e, 0x7b66e8d9, 0x3312c531, 0x27178ff7, 0x4fd9b290, 0xd72e6b32,
                0xcbbebcff
            ]
        );
    }

    /// `BlockRng` refills four blocks (64 words) at a time; a `next_u64`
    /// issued with one word left must take that word as the low half and the
    /// first word of the next refill as the high half, leaving the refill's
    /// second word as the next `next_u32` result.
    #[test]
    fn next_u64_split_across_buffer_refill() {
        let mut rng = SimRng::from_key([0; 8]);
        words(&mut rng, 63);
        assert_eq!(rng.next_u64(), 0x475ff7e801bf7962);
        assert_eq!(rng.next_u32(), 0x59d1b08c);
    }

    /// The draft prints TC1's keystream as bytes, 3e 00 ef 2f 89 5f 40 ...:
    /// each word is four of them, low byte first. (`fill_bytes`, which drew
    /// them that way, went with its last caller; the byte order stays held.)
    #[test]
    fn keystream_bytes_are_the_words_little_endian() {
        let drawn = words(&mut SimRng::from_key([0; 8]), 2);
        let bytes: Vec<u8> = drawn.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(bytes[..7], [0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40]);
    }

    /// A refill is four whole blocks, counters `c..c+4`, and the 65th word
    /// is block 4's first — nothing is skipped or repeated at the seam.
    #[test]
    fn refill_is_four_consecutive_blocks() {
        let mut rng = SimRng::from_key([0; 8]);
        let drawn = words(&mut rng, 2 * BUF_WORDS);
        for (counter, block) in drawn.chunks_exact(16).enumerate() {
            assert_eq!(block, chacha_block::<8>(&[0; 8], counter as u64));
        }
    }

    /// Interleaved u32/u64 draws stay aligned with the pure-u32 stream.
    #[test]
    fn mixed_draws_follow_block_rng_semantics() {
        let mut a = SimRng::from_key([0; 8]);
        let lo = u64::from(ZERO8[0]);
        let hi = u64::from(ZERO8[1]);
        assert_eq!(a.next_u64(), (hi << 32) | lo);
        assert_eq!(a.next_u32(), ZERO8[2]);
    }

    /// FNV-1a-style fold of one drawn value into the running hash.
    fn fold(h: &mut u64, v: u64) {
        *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Every public draw, over seeds that include 0 and `u64::MAX`, with a
    /// forked child and grandchild drawn in step: 5 x 1,500 rounds of 16+
    /// draws each, so refills (every 32 words) land inside every kind of
    /// draw, and the `2^63 + 1`-wide and 1-wide ranges reject about every
    /// other word.
    #[test]
    fn stream_is_the_one_recorded_at_the_parent() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in [0, 1, 42, 0x5eed_cafe_f00d, u64::MAX] {
            let mut r = SimRng::seed_from_u64(seed);
            let mut child = r.fork("startd-17");
            for round in 0..1_500u64 {
                fold(&mut h, r.f64().to_bits());
                fold(&mut h, r.range_u64(round, round + 1));
                fold(&mut h, r.range_u64(10, 1_000_000));
                fold(&mut h, r.range_u64(3, (1 << 63) + 4));
                fold(&mut h, r.range_u64(0, u64::MAX));
                fold(&mut h, r.index(7) as u64);
                fold(&mut h, r.index((1 << 63) - 25) as u64);
                fold(&mut h, r.index(usize::MAX) as u64);
                fold(&mut h, u64::from(r.chance(0.3)));
                fold(&mut h, u64::from(r.chance(0.0)));
                fold(&mut h, u64::from(r.chance(1.0)));
                fold(&mut h, r.exponential(30.0).to_bits());
                for i in r.permutation(round as usize % 9) {
                    fold(&mut h, i as u64);
                }
                fold(&mut h, child.range_u64(0, 1000));
                fold(&mut h, child.f64().to_bits());
                if round % 100 == 99 {
                    child = child.fork("grandchild");
                }
            }
        }
        assert_eq!(h, RECORDED_AT_PARENT, "{h:#018x}");
    }

    /// `index` and `range_u64` against the definition, on a twin stream: of
    /// the words drawn, the first whose 128-bit product with the width has
    /// its low 64 bits inside the zone is taken, and the draw is that
    /// product over 2^64. Widths around 2^63 reject about every other word,
    /// and so does width 1 (`hi - lo = 1`), whose only value is `lo`.
    #[test]
    fn bounded_draws_match_a_128_bit_reference() {
        let widths = [1, 2, 7, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX];
        let mut rng = SimRng::seed_from_u64(99);
        let mut twin = SimRng::seed_from_u64(99);
        for round in 0..4_000u64 {
            let width = widths[round as usize % widths.len()];
            let zone = (u128::from(width) << width.leading_zeros()) - 1;
            let want = loop {
                let wide = u128::from(twin.next_u64()) * u128::from(width);
                if wide % (1 << 64) <= zone {
                    break (wide / (1 << 64)) as u64;
                }
            };
            assert!(want < width);
            if round % 2 == 0 {
                assert_eq!(rng.index(width as usize) as u64, want, "index({width})");
            } else {
                let lo = round.min(u64::MAX - width);
                assert_eq!(rng.range_u64(lo, lo + width), lo + want, "width {width}");
            }
        }
        assert_eq!(rng.next_u64(), twin.next_u64(), "streams consumed alike");
    }
}
