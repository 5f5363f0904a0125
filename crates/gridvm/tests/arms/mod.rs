//! The ledger's five installation arms, shared by the test crates that
//! run E14's corpus under them.

use gridvm::Installation;

/// The arms for the job of `seed`: only the tight-fuel arm depends on it.
pub fn arms(seed: u64) -> [(&'static str, Installation); 5] {
    [
        ("healthy", Installation::healthy()),
        ("missing-stdlib", Installation::missing_stdlib()),
        (
            "small-heap",
            Installation::healthy().with_heap_limit(1 << 12),
        ),
        (
            "tight-fuel",
            Installation::healthy().with_fuel(500 + seed * 7919 % 4000),
        ),
        ("bad-path", Installation::bad_path()),
    ]
}
