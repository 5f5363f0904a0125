//! Order statistics for timing samples, and the FNV-1a digest every
//! workload folds its deterministic outputs into.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// spreads printed here match the ones the acceptance driver computes.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// bounds are compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One SplitMix64 step: advance `state`, return the next value. Used
/// where the harness needs numbers derived from a seed without touching
/// the generators under test (arm choices, probe inputs).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental 64-bit FNV-1a, folding eight input bytes per step (then
/// the length and any tail bytes). The digest runs inside every timed
/// rep over hundreds of megabytes of exported telemetry; byte-at-a-time
/// FNV would cost `campaign_sweep` several percent of its wall-clock.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one integer in.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a byte string in (length-prefixed, so `"ab","c"` and
    /// `"a","bc"` digest differently).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.u64(u64::from(b));
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn fnv_sees_every_byte_and_every_boundary() {
        let of = |parts: &[&[u8]]| {
            let mut h = Fnv::default();
            for p in parts {
                h.bytes(p);
            }
            h.finish()
        };
        let base = of(&[b"error scope on a grid"]);
        assert_eq!(base, of(&[b"error scope on a grid"]));
        for i in 0..21 {
            let mut flipped = b"error scope on a grid".to_vec();
            flipped[i] ^= 1;
            assert_ne!(base, of(&[&flipped]), "byte {i} is not covered");
        }
        assert_ne!(of(&[b"ab", b"c"]), of(&[b"a", b"bc"]));
    }
}
