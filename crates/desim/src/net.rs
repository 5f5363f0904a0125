//! A simulated network.
//!
//! Models the connectivity between simulated processes: a default latency,
//! and per-link latency, loss, duplication and partitions. Senders consult
//! the network to learn the delivery latency of a message — or that it will
//! never arrive, in which case the *sender's own timeout machinery* is what
//! eventually notices, exactly as in a real distributed system. The paper's
//! escaping error "communicated by breaking the connection" appears here as a
//! link that stops delivering.
//!
//! The network also keeps per-link delivery statistics (messages dropped and
//! duplicated), so silent loss is observable to the experimenter even though
//! it stays invisible to the simulated actors.

use crate::rng::SimRng;
use crate::time::SimDuration;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Identifies a simulated host (by the actor id of its daemon).
pub type HostId = usize;

fn link_key(a: HostId, b: HostId) -> (HostId, HostId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The fate of one message offered to the network: delivered after a
/// latency, delivered *twice* (original plus a duplicate), or silently
/// lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Lost: partition or link loss. The sender learns only via its own
    /// timeout.
    Lost,
    /// Delivered once, this much later.
    Deliver(SimDuration),
    /// Delivered twice, both copies this much later: the original and a
    /// duplicate frame. Duplication models retransmission at a lower layer
    /// — the receiver must be idempotent or fence the copy.
    Duplicate(SimDuration),
}

/// Per-link delivery statistics: what the network ate or multiplied.
/// Keys are undirected `(low, high)` host pairs; `BTreeMap` keeps the
/// projection order deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages silently lost, per link (partition or loss).
    pub dropped: BTreeMap<(HostId, HostId), u64>,
    /// Messages delivered twice, per link.
    pub duplicated: BTreeMap<(HostId, HostId), u64>,
}

impl NetStats {
    /// Total messages lost across all links.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// Total messages duplicated across all links.
    pub fn duplicated_total(&self) -> u64 {
        self.duplicated.values().sum()
    }

    /// Fold another stats table into this one, link by link. The sharded
    /// engine gives each shard its own network replica and sums the
    /// replicas' tables at the end of a run; `BTreeMap` keys keep the
    /// result independent of merge order.
    pub fn merge(&mut self, other: &NetStats) {
        for (k, v) in &other.dropped {
            *self.dropped.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.duplicated {
            *self.duplicated.entry(*k).or_insert(0) += v;
        }
    }
}

/// One topology/configuration mutation, reified so the sharded engine can
/// defer it: with op recording on (the sharded engine's mode), an actor's
/// `ctx.net` mutation is *recorded instead of applied*, then applied to
/// every shard's replica — including the originator's — at the next
/// window barrier. Deferring keeps all replicas identical within a
/// window, which is what makes the window width a sound lookahead bound:
/// a latency *decrease* can only take effect at a barrier, where the next
/// window's width is recomputed from the new minimum.
#[derive(Debug, Clone, PartialEq)]
pub enum NetOp {
    /// [`Network::set_link_latency`].
    SetLinkLatency(HostId, HostId, SimDuration),
    /// [`Network::clear_link_latency`].
    ClearLinkLatency(HostId, HostId),
    /// [`Network::set_link_loss`].
    SetLinkLoss(HostId, HostId, f64),
    /// [`Network::clear_link_loss`].
    ClearLinkLoss(HostId, HostId),
    /// [`Network::set_link_duplication`].
    SetLinkDuplication(HostId, HostId, f64),
    /// [`Network::clear_link_duplication`].
    ClearLinkDuplication(HostId, HostId),
    /// [`Network::partition`].
    Partition(HostId, HostId),
    /// [`Network::heal`].
    Heal(HostId, HostId),
}

/// The simulated network fabric.
#[derive(Debug, Clone)]
pub struct Network {
    default_latency: SimDuration,
    link_latency: HashMap<(HostId, HostId), SimDuration>,
    partitioned: HashSet<(HostId, HostId)>,
    link_loss: HashMap<(HostId, HostId), f64>,
    link_dup: HashMap<(HostId, HostId), f64>,
    stats: NetStats,
    /// When true, every mutation is also recorded in `pending` for
    /// replication to sibling replicas (the sharded engine's mode).
    record_ops: bool,
    pending: Vec<NetOp>,
}

impl Default for Network {
    fn default() -> Self {
        Network::new(SimDuration::from_millis(1))
    }
}

impl Network {
    /// A fully connected, lossless network with the given base latency.
    pub fn new(default_latency: SimDuration) -> Self {
        Network {
            default_latency,
            link_latency: HashMap::new(),
            partitioned: HashSet::new(),
            link_loss: HashMap::new(),
            link_dup: HashMap::new(),
            stats: NetStats::default(),
            record_ops: false,
            pending: Vec::new(),
        }
    }

    /// Change the default (no-override) link latency. A *build-time*
    /// knob — raise it before converting a world with
    /// [`crate::World::into_parallel`] to widen the conservative window;
    /// it is deliberately not a [`NetOp`], so actors cannot change it
    /// mid-run.
    pub fn set_default_latency(&mut self, latency: SimDuration) {
        self.default_latency = latency;
    }

    /// True when the mutation was recorded for barrier application
    /// instead of applied (deferred mode).
    #[inline]
    fn deferred(&mut self, op: NetOp) -> bool {
        if self.record_ops {
            self.pending.push(op);
        }
        self.record_ops
    }

    /// Override the latency of one (undirected) link.
    pub fn set_link_latency(&mut self, a: HostId, b: HostId, latency: SimDuration) {
        if self.deferred(NetOp::SetLinkLatency(a, b, latency)) {
            return;
        }
        self.link_latency.insert(link_key(a, b), latency);
    }

    /// Remove a per-link latency override, reverting to the default.
    pub fn clear_link_latency(&mut self, a: HostId, b: HostId) {
        if self.deferred(NetOp::ClearLinkLatency(a, b)) {
            return;
        }
        self.link_latency.remove(&link_key(a, b));
    }

    /// Set a loss probability for one (undirected) link.
    pub fn set_link_loss(&mut self, a: HostId, b: HostId, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        if self.deferred(NetOp::SetLinkLoss(a, b, p)) {
            return;
        }
        self.link_loss.insert(link_key(a, b), p);
    }

    /// Make a link lossless again.
    pub fn clear_link_loss(&mut self, a: HostId, b: HostId) {
        if self.deferred(NetOp::ClearLinkLoss(a, b)) {
            return;
        }
        self.link_loss.remove(&link_key(a, b));
    }

    /// Set a duplication probability for one (undirected) link.
    pub fn set_link_duplication(&mut self, a: HostId, b: HostId, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        if self.deferred(NetOp::SetLinkDuplication(a, b, p)) {
            return;
        }
        self.link_dup.insert(link_key(a, b), p);
    }

    /// Stop a link duplicating.
    pub fn clear_link_duplication(&mut self, a: HostId, b: HostId) {
        if self.deferred(NetOp::ClearLinkDuplication(a, b)) {
            return;
        }
        self.link_dup.remove(&link_key(a, b));
    }

    /// Sever one link in both directions.
    pub fn partition(&mut self, a: HostId, b: HostId) {
        if self.deferred(NetOp::Partition(a, b)) {
            return;
        }
        self.partitioned.insert(link_key(a, b));
    }

    /// Restore a severed link.
    pub fn heal(&mut self, a: HostId, b: HostId) {
        if self.deferred(NetOp::Heal(a, b)) {
            return;
        }
        self.partitioned.remove(&link_key(a, b));
    }

    /// Is the link between `a` and `b` currently severed?
    pub fn is_partitioned(&self, a: HostId, b: HostId) -> bool {
        self.partitioned.contains(&link_key(a, b))
    }

    /// Turn deferred-op recording on or off (see [`NetOp`]). While on,
    /// mutators record instead of applying. Recording starts empty;
    /// turning it off discards anything pending.
    pub fn set_op_recording(&mut self, on: bool) {
        self.record_ops = on;
        if !on {
            self.pending.clear();
        }
    }

    /// Drain the mutations recorded since the last take.
    pub fn take_pending_ops(&mut self) -> Vec<NetOp> {
        std::mem::take(&mut self.pending)
    }

    /// Apply one recorded mutation to this replica *without* re-recording
    /// it (replication path; ops are idempotent).
    pub fn apply_op(&mut self, op: &NetOp) {
        match *op {
            NetOp::SetLinkLatency(a, b, lat) => {
                self.link_latency.insert(link_key(a, b), lat);
            }
            NetOp::ClearLinkLatency(a, b) => {
                self.link_latency.remove(&link_key(a, b));
            }
            NetOp::SetLinkLoss(a, b, p) => {
                self.link_loss.insert(link_key(a, b), p);
            }
            NetOp::ClearLinkLoss(a, b) => {
                self.link_loss.remove(&link_key(a, b));
            }
            NetOp::SetLinkDuplication(a, b, p) => {
                self.link_dup.insert(link_key(a, b), p);
            }
            NetOp::ClearLinkDuplication(a, b) => {
                self.link_dup.remove(&link_key(a, b));
            }
            NetOp::Partition(a, b) => {
                self.partitioned.insert(link_key(a, b));
            }
            NetOp::Heal(a, b) => {
                self.partitioned.remove(&link_key(a, b));
            }
        }
    }

    /// The smallest latency any non-loopback message can currently have:
    /// the minimum of the default and every per-link override, clamped to
    /// the 1µs floor. A message takes exactly its link's latency, so this
    /// is a safe lookahead bound — a conservative window no wider than
    /// this value guarantees every cross-shard delivery lands in a later
    /// window.
    pub fn min_latency(&self) -> SimDuration {
        let mut min = self.default_latency;
        for lat in self.link_latency.values() {
            if *lat < min {
                min = *lat;
            }
        }
        SimDuration::from_micros(min.as_micros().max(1))
    }

    /// Per-link delivery statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn latency(&self, from: HostId, to: HostId) -> SimDuration {
        let lat = self
            .link_latency
            .get(&link_key(from, to))
            .copied()
            .unwrap_or(self.default_latency);
        // Clamp to at least 1µs so delivery is strictly after sending.
        SimDuration::from_micros(lat.as_micros().max(1))
    }

    /// Decide the full fate of one message from `from` to `to`: lost,
    /// delivered once, or delivered twice. Loss is *silent* to the sending
    /// actor, but the network records it in [`Network::stats`]. This is the
    /// primitive [`crate::actor::Context::send_net`] consults. `rng` is
    /// drawn only on a link with a loss or duplication probability.
    pub fn fate(&mut self, rng: &mut SimRng, from: HostId, to: HostId) -> Fate {
        if from == to {
            // Loopback never fails and is effectively instant; one
            // microsecond preserves causal ordering.
            return Fate::Deliver(SimDuration::from_micros(1));
        }
        let key = link_key(from, to);
        if self.is_partitioned(from, to) {
            *self.stats.dropped.entry(key).or_insert(0) += 1;
            return Fate::Lost;
        }
        let loss = self.link_loss.get(&key).copied().unwrap_or(0.0);
        if loss > 0.0 && rng.chance(loss) {
            *self.stats.dropped.entry(key).or_insert(0) += 1;
            return Fate::Lost;
        }
        let lat = self.latency(from, to);
        let dup = self.link_dup.get(&key).copied().unwrap_or(0.0);
        if dup > 0.0 && rng.chance(dup) {
            *self.stats.duplicated.entry(key).or_insert(0) += 1;
            return Fate::Duplicate(lat);
        }
        Fate::Deliver(lat)
    }

    /// Decide the fate of one message from `from` to `to`: `Some(latency)`
    /// if it will be delivered that much later, `None` if it is lost
    /// (partition or link loss). Duplication collapses to a single
    /// delivery here; use [`Network::fate`] to observe the copy.
    pub fn transit(&mut self, rng: &mut SimRng, from: HostId, to: HostId) -> Option<SimDuration> {
        match self.fate(rng, from, to) {
            Fate::Lost => None,
            Fate::Deliver(lat) | Fate::Duplicate(lat) => Some(lat),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    #[test]
    fn default_latency_applies() {
        let mut net = Network::new(SimDuration::from_millis(5));
        let mut r = rng();
        assert_eq!(net.transit(&mut r, 1, 2), Some(SimDuration::from_millis(5)));
    }

    #[test]
    fn loopback_is_instant_and_reliable() {
        let mut net = Network::default();
        net.set_link_loss(3, 3, 1.0);
        net.partition(3, 3);
        let mut r = rng();
        // Even a host whose self-link is marked lossy and severed talks to
        // itself over loopback: the paper's chirp connection is "from one
        // process to another on the loopback network interface" and is as
        // reliable as the local machine.
        assert_eq!(net.transit(&mut r, 3, 3), Some(SimDuration::from_micros(1)));
    }

    #[test]
    fn link_override_beats_default() {
        let mut net = Network::new(SimDuration::from_millis(1));
        net.set_link_latency(1, 2, SimDuration::from_millis(50));
        let mut r = rng();
        assert_eq!(
            net.transit(&mut r, 2, 1),
            Some(SimDuration::from_millis(50)),
            "links are undirected"
        );
        assert_eq!(net.transit(&mut r, 1, 3), Some(SimDuration::from_millis(1)));
        net.clear_link_latency(2, 1);
        assert_eq!(net.transit(&mut r, 1, 2), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut net = Network::default();
        net.partition(1, 2);
        let mut r = rng();
        assert!(net.is_partitioned(2, 1));
        assert_eq!(net.transit(&mut r, 1, 2), None);
        assert_eq!(net.transit(&mut r, 2, 1), None);
        net.heal(2, 1);
        assert!(net.transit(&mut r, 1, 2).is_some());
        assert_eq!(net.stats().dropped_total(), 2);
        assert_eq!(net.stats().dropped.get(&(1, 2)), Some(&2));
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut net = Network::default();
        net.set_link_loss(1, 2, 0.5);
        let mut r = rng();
        let delivered = (0..10_000)
            .filter(|_| net.transit(&mut r, 1, 2).is_some())
            .count();
        assert!((4000..6000).contains(&delivered), "delivered={delivered}");
        assert_eq!(net.stats().dropped_total() as usize, 10_000 - delivered);
    }

    #[test]
    fn link_loss_overrides_global_drop_probability() {
        let mut net = Network::default();
        net.set_link_loss(1, 2, 1.0);
        let mut r = rng();
        assert_eq!(net.transit(&mut r, 2, 1), None, "lossy link is undirected");
        assert!(
            net.transit(&mut r, 1, 3).is_some(),
            "other links unaffected"
        );
        net.clear_link_loss(1, 2);
        assert!(net.transit(&mut r, 1, 2).is_some());
        assert_eq!(net.stats().dropped.get(&(1, 2)), Some(&1));
    }

    #[test]
    fn duplication_delivers_twice_and_is_counted() {
        let mut net = Network::default();
        net.set_link_duplication(1, 2, 1.0);
        let mut r = rng();
        assert_eq!(
            net.fate(&mut r, 1, 2),
            Fate::Duplicate(SimDuration::from_millis(1))
        );
        assert_eq!(net.stats().duplicated_total(), 1);
        // transit() collapses the duplicate to one delivery.
        assert!(net.transit(&mut r, 1, 2).is_some());
        assert_eq!(net.stats().duplicated_total(), 2);
    }

    #[test]
    fn link_duplication_overrides_global() {
        let mut net = Network::default();
        net.set_link_duplication(4, 5, 1.0);
        let mut r = rng();
        assert!(matches!(net.fate(&mut r, 5, 4), Fate::Duplicate(_)));
        assert!(matches!(net.fate(&mut r, 1, 2), Fate::Deliver(_)));
        net.clear_link_duplication(4, 5);
        assert!(matches!(net.fate(&mut r, 4, 5), Fate::Deliver(_)));
    }

    #[test]
    fn loopback_never_duplicates() {
        let mut net = Network::default();
        net.set_link_duplication(6, 6, 1.0);
        let mut r = rng();
        assert_eq!(
            net.fate(&mut r, 6, 6),
            Fate::Deliver(SimDuration::from_micros(1))
        );
    }

    #[test]
    fn latency_is_never_zero() {
        let mut net = Network::new(SimDuration::ZERO);
        let mut r = rng();
        assert_eq!(net.transit(&mut r, 1, 2), Some(SimDuration::from_micros(1)));
    }

    #[test]
    fn identical_seeds_yield_identical_fates() {
        // Determinism: two networks with the same configuration, driven by
        // identically seeded RNGs, decide the same fate for every message.
        let mk = || {
            let mut net = Network::new(SimDuration::from_millis(2));
            for to in 2..5 {
                net.set_link_loss(1, to, 0.2);
                net.set_link_duplication(1, to, 0.1);
            }
            net
        };
        let (mut a, mut b) = (mk(), mk());
        let mut ra = SimRng::seed_from_u64(99);
        let mut rb = SimRng::seed_from_u64(99);
        let fa: Vec<Fate> = (0..5000).map(|i| a.fate(&mut ra, 1, 2 + i % 3)).collect();
        let fb: Vec<Fate> = (0..5000).map(|i| b.fate(&mut rb, 1, 2 + i % 3)).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped_total() > 0);
        assert!(a.stats().duplicated_total() > 0);
    }
}
