//! Reference implementations the experiments compare against.

use std::collections::BTreeMap;

/// The pre-index negotiation kernel: a full O(jobs × machines) interpreted
/// scan per cycle, exactly as the matchmaker actor ran it before the
/// [`condor::MatchEngine`] landed. Greedy in `(schedd, job)` order; each
/// job evaluates `symmetric_match` against every not-yet-taken machine,
/// keeps the argmax-by-rank candidates, and breaks ties with one uniform
/// RNG draw. `exp_matchmaker` gates the indexed engine against this kernel
/// for bit-identical assignments on the same seed.
///
/// It is deliberately frozen: do not "optimize" it, it exists to stay
/// slow in exactly the way the old code was.
///
/// Returns the `(schedd, job, machine)` notifications plus the number of
/// ad pairs evaluated. Consumption (removing matched ads) is left to the
/// caller, as the actor's notification loop did it.
pub fn naive_negotiate(
    jobs: &BTreeMap<(usize, u32), classads::ClassAd>,
    machines: &BTreeMap<usize, classads::ClassAd>,
    rng: &mut desim::SimRng,
) -> (Vec<(usize, u32, usize)>, u64) {
    use classads::matchmaking::symmetric_match;
    let mut pairs = 0u64;
    let mut taken: Vec<usize> = Vec::new();
    let mut notifications: Vec<(usize, u32, usize)> = Vec::new();
    for ((schedd, job), ad) in jobs {
        let mut best_rank = f64::NEG_INFINITY;
        let mut candidates: Vec<usize> = Vec::new();
        for (mid, m) in machines {
            if taken.contains(mid) {
                continue;
            }
            pairs += 1;
            let r = symmetric_match(ad, m);
            if !r.matched {
                continue;
            }
            if r.left_rank > best_rank {
                best_rank = r.left_rank;
                candidates.clear();
            }
            if r.left_rank == best_rank {
                candidates.push(*mid);
            }
        }
        if !candidates.is_empty() {
            let mid = candidates[rng.index(candidates.len())];
            taken.push(mid);
            notifications.push((*schedd, *job, mid));
        }
    }
    (notifications, pairs)
}
