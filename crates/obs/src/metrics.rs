//! Named counters, gauges, and log-scale histograms.
//!
//! The [`Registry`] is a flat map from `(name, labels)` to a value, in the
//! style of a Prometheus exposition: `condor::Metrics` projects itself onto
//! one of these, with per-scope (`scope=...`) and per-machine
//! (`machine=...`) labels, and the experiment binaries write the snapshot
//! as JSON next to their event streams.
//!
//! Internally the registry is keyed on interned symbols ([`crate::Sym`]):
//! a metric touch interns its name and label strings (hash lookups, no
//! allocation after first sighting) and indexes a hash map by a small
//! integer key. Strings are resolved — and entries sorted into the
//! historical `(name, labels)` order — only when a snapshot is exported,
//! so [`Registry::snapshot_json`] output is byte-identical to the old
//! string-keyed implementation.
//!
//! [`Histogram`] uses power-of-two buckets over `u64` values (we feed it
//! microsecond durations): bucket 0 holds exactly the value 0, bucket
//! `i >= 1` holds values of bit length `i`, i.e. the range
//! `[2^(i-1), 2^i - 1]`. Bucket 64 therefore ends at `u64::MAX`.

use crate::intern::{FastMap, Interner, Sym};
use crate::json;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Number of histogram buckets: one for zero plus one per bit length.
pub const BUCKETS: usize = 65;

/// A log-scale histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a value falls into: 0 for 0, else the value's bit length.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `[lo, hi]` range of bucket `i`.
    ///
    /// # Panics
    /// If `i >= BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < BUCKETS, "bucket {i} out of range");
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (u128: immune to overflow even at `u64::MAX`
    /// samples).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Non-empty buckets as `(index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        out.push_str(&self.count.to_string());
        out.push_str(",\"sum\":");
        out.push_str(&self.sum.to_string());
        if self.count > 0 {
            out.push_str(",\"min\":");
            out.push_str(&self.min.to_string());
            out.push_str(",\"max\":");
            out.push_str(&self.max.to_string());
        }
        out.push_str(",\"buckets\":[");
        for (n, (i, c)) in self.nonzero_buckets().into_iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let (lo, hi) = Self::bucket_bounds(i);
            out.push_str(&format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}"));
        }
        out.push_str("]}");
    }
}

/// A metric identity: a name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// The metric name, e.g. `jobs_completed`.
    pub name: String,
    /// Label pairs, kept sorted so equal label sets compare equal.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A key with no labels.
    pub fn plain(name: &str) -> Self {
        MetricKey {
            name: name.to_string(),
            labels: Vec::new(),
        }
    }

    /// A key with labels (sorted internally).
    pub fn labeled(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// The `"name":…,"labels":{…}` fields of one snapshot entry.
fn write_key_fields(out: &mut String, name: &str, labels: &[(&str, &str)]) {
    json::write_key(out, "name");
    json::write_str(out, name);
    if !labels.is_empty() {
        out.push(',');
        json::write_key(out, "labels");
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_key(out, k);
            json::write_str(out, v);
        }
        out.push('}');
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v:?}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// How many label pairs a key holds inline before spilling to the heap.
/// Every metric in the repo today uses 0 or 1 labels; 4 leaves headroom.
const INLINE_LABELS: usize = 4;

/// The label set of an interned key. `Inline` covers the common case with
/// zero allocation; label sets wider than [`INLINE_LABELS`] spill to a
/// `Vec`. Construction always canonicalises (pairs sorted by symbol, spill
/// only when the inline array cannot hold them), so derived `Eq`/`Hash`
/// agree with label-set equality.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LabelSyms {
    Inline(u8, [(Sym, Sym); INLINE_LABELS]),
    Spilled(Vec<(Sym, Sym)>),
}

/// An interned metric identity: symbols only, cheap to hash and compare.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SymKey {
    name: Sym,
    labels: LabelSyms,
}

impl SymKey {
    fn label_pairs(&self) -> &[(Sym, Sym)] {
        match &self.labels {
            LabelSyms::Inline(n, pairs) => &pairs[..usize::from(*n)],
            LabelSyms::Spilled(v) => v,
        }
    }
}

/// Hand-rolled to keep key hashing at one word per label pair plus one for
/// the name: the derived impl feeds the hasher ~11 separate integer writes
/// (discriminant, padding slots, each `u32` alone), and with a
/// multiply-based hasher those writes form a serial dependency chain that
/// dominated `counter_add`. Consistent with the derived `Eq`: the hash is
/// a pure function of `(name, live label pairs, label count)`, and equal
/// keys always carry identical zero padding.
impl std::hash::Hash for SymKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let pairs = self.label_pairs();
        state.write_u64(((self.name.index() as u64) << 8) | pairs.len() as u64);
        for &(k, v) in pairs {
            state.write_u64(((k.index() as u64) << 32) | v.index() as u64);
        }
    }
}

/// Canonicalise freshly interned label pairs: sorted by `(Sym, Sym)`.
/// Symbols are bijective with strings, so symbol order is a total order on
/// label pairs — any insertion order of the same label set produces the
/// same key. (Export re-sorts by *string* order separately.)
fn canonical_labels(pairs: &mut [(Sym, Sym)]) -> LabelSyms {
    pairs.sort_unstable();
    if pairs.len() <= INLINE_LABELS {
        let mut inline = [(Sym::from_raw(0), Sym::from_raw(0)); INLINE_LABELS];
        inline[..pairs.len()].copy_from_slice(pairs);
        LabelSyms::Inline(pairs.len() as u8, inline)
    } else {
        LabelSyms::Spilled(pairs.to_vec())
    }
}

/// The entries of one of a registry's maps in key order ([`Registry::sorted`]).
struct Sorted<'a, V> {
    // Every entry's labels, each entry's in string order.
    labels: Vec<(&'a str, &'a str)>,
    // (name, where in `labels`, value).
    entries: Vec<(&'a str, Range<usize>, &'a V)>,
}

impl<'a, V> Sorted<'a, V> {
    /// `(name, labels, value)` in key order.
    fn iter(&self) -> impl Iterator<Item = (&'a str, &[(&'a str, &'a str)], &'a V)> + '_ {
        let entry = |(name, at, value): &(&'a str, Range<usize>, &'a V)| {
            (*name, &self.labels[at.clone()], *value)
        };
        self.entries.iter().map(entry)
    }
}

impl<V: PartialEq> PartialEq for Sorted<'_, V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// A registry of named metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    interner: Interner,
    counters: FastMap<SymKey, u64>,
    gauges: FastMap<SymKey, f64>,
    histograms: FastMap<SymKey, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Intern a key for a write: allocation-free after each string's first
    /// sighting (label sets wider than [`INLINE_LABELS`] pairs excepted).
    #[inline]
    fn make_key(&mut self, name: &str, labels: &[(&str, &str)]) -> SymKey {
        let name = self.interner.intern(name);
        if labels.is_empty() {
            return SymKey {
                name,
                labels: LabelSyms::Inline(0, [(Sym::from_raw(0), Sym::from_raw(0)); INLINE_LABELS]),
            };
        }
        if labels.len() <= INLINE_LABELS {
            let mut pairs = [(Sym::from_raw(0), Sym::from_raw(0)); INLINE_LABELS];
            for (slot, (k, v)) in pairs.iter_mut().zip(labels) {
                *slot = (self.interner.intern(k), self.interner.intern(v));
            }
            SymKey {
                name,
                labels: canonical_labels(&mut pairs[..labels.len()]),
            }
        } else {
            let mut pairs: Vec<(Sym, Sym)> = labels
                .iter()
                .map(|(k, v)| (self.interner.intern(k), self.interner.intern(v)))
                .collect();
            SymKey {
                name,
                labels: canonical_labels(&mut pairs),
            }
        }
    }

    /// Look up a key without interning (for reads): `None` means some part
    /// of the key has never been seen, so the metric cannot exist.
    fn find_key(&self, name: &str, labels: &[(&str, &str)]) -> Option<SymKey> {
        let name = self.interner.get(name)?;
        if labels.len() <= INLINE_LABELS {
            let mut pairs = [(Sym::from_raw(0), Sym::from_raw(0)); INLINE_LABELS];
            for (slot, (k, v)) in pairs.iter_mut().zip(labels) {
                *slot = (self.interner.get(k)?, self.interner.get(v)?);
            }
            Some(SymKey {
                name,
                labels: canonical_labels(&mut pairs[..labels.len()]),
            })
        } else {
            let mut pairs = labels
                .iter()
                .map(|(k, v)| Some((self.interner.get(k)?, self.interner.get(v)?)))
                .collect::<Option<Vec<_>>>()?;
            Some(SymKey {
                name,
                labels: canonical_labels(&mut pairs),
            })
        }
    }

    /// Resolve an interned key back to owned strings, in the historical
    /// `(name, sorted labels)` form — export-path only.
    fn resolve_key(&self, key: &SymKey) -> MetricKey {
        let mut labels: Vec<(String, String)> = key
            .label_pairs()
            .iter()
            .map(|&(k, v)| {
                (
                    self.interner.resolve(k).to_string(),
                    self.interner.resolve(v).to_string(),
                )
            })
            .collect();
        labels.sort();
        MetricKey {
            name: self.interner.resolve(key.name).to_string(),
            labels,
        }
    }

    /// Add `delta` to a counter, creating it at zero first if needed.
    #[inline]
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = self.make_key(name, labels);
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = self.make_key(name, labels);
        self.gauges.insert(key, value);
    }

    /// Record a sample into a histogram, creating it if needed.
    #[inline]
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let key = self.make_key(name, labels);
        self.histograms.entry(key).or_default().record(value);
    }

    /// Merge a whole histogram into a named histogram, creating it if
    /// needed — for folding externally-kept histograms into a snapshot.
    pub fn histogram_merge(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        let key = self.make_key(name, labels);
        self.histograms.entry(key).or_default().merge(h);
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.find_key(name, labels)
            .and_then(|k| self.counters.get(&k))
            .copied()
            .unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&self.find_key(name, labels)?).copied()
    }

    /// A histogram, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&self.find_key(name, labels)?)
    }

    /// All counters as resolved `(key, value)` pairs in key order.
    pub fn counters(&self) -> Vec<(MetricKey, u64)> {
        let mut out: Vec<(MetricKey, u64)> = self
            .counters
            .iter()
            .map(|(k, &v)| (self.resolve_key(k), v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other's value, histograms merge. Symbols are resolved through the
    /// other registry's interner and re-interned here, so registries built
    /// in different threads (or different seed runs) merge correctly.
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            let key = self.reintern_key(other, k);
            *self.counters.entry(key).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let key = self.reintern_key(other, k);
            self.gauges.insert(key, v);
        }
        for (k, h) in &other.histograms {
            let key = self.reintern_key(other, k);
            self.histograms.entry(key).or_default().merge(h);
        }
    }

    /// Translate a key from `other`'s symbol space into ours.
    fn reintern_key(&mut self, other: &Registry, key: &SymKey) -> SymKey {
        let name = self.interner.intern(other.interner.resolve(key.name));
        let mut pairs: Vec<(Sym, Sym)> = key
            .label_pairs()
            .iter()
            .map(|&(k, v)| {
                (
                    self.interner.intern(other.interner.resolve(k)),
                    self.interner.intern(other.interner.resolve(v)),
                )
            })
            .collect();
        SymKey {
            name,
            labels: canonical_labels(&mut pairs),
        }
    }

    /// The entries of `map` under their resolved keys, in [`MetricKey`]'s
    /// order — the canonical form used for sorted export and
    /// cross-interner equality. The strings stay the interner's: a
    /// snapshot of ten thousand entries allocates two vectors, not four
    /// strings and a tree node each.
    fn sorted<'a, V>(&'a self, map: &'a FastMap<SymKey, V>) -> Sorted<'a, V> {
        let mut labels: Vec<(&str, &str)> = Vec::new();
        let mut entries: Vec<(&str, Range<usize>, &V)> = Vec::with_capacity(map.len());
        for (key, value) in map {
            let from = labels.len();
            let resolve = |&(k, v)| (self.interner.resolve(k), self.interner.resolve(v));
            labels.extend(key.label_pairs().iter().map(resolve));
            // The key holds them in symbol order.
            labels[from..].sort_unstable();
            let name = self.interner.resolve(key.name);
            entries.push((name, from..labels.len(), value));
        }
        // Small entries, so that sorting moves little; most comparisons
        // are between entries of one name, the interner's one allocation.
        entries.sort_unstable_by(|a, b| {
            let by_name = if std::ptr::eq(a.0, b.0) {
                Ordering::Equal
            } else {
                a.0.cmp(b.0)
            };
            by_name.then_with(|| labels[a.1.clone()].cmp(&labels[b.1.clone()]))
        });
        Sorted { labels, entries }
    }

    /// The whole registry as one JSON document:
    /// `{"counters":[...],"gauges":[...],"histograms":[...]}` with entries
    /// in sorted key order (deterministic output, byte-identical to the
    /// pre-interning string-keyed registry).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        for (i, (name, labels, v)) in self.sorted(&self.counters).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            write_key_fields(&mut out, name, labels);
            out.push(',');
            json::write_key(&mut out, "value");
            let _ = write!(out, "{v}");
            out.push('}');
        }
        out.push_str("],\"gauges\":[");
        for (i, (name, labels, v)) in self.sorted(&self.gauges).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            write_key_fields(&mut out, name, labels);
            out.push(',');
            json::write_key(&mut out, "value");
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
            out.push('}');
        }
        out.push_str("],\"histograms\":[");
        for (i, (name, labels, h)) in self.sorted(&self.histograms).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            write_key_fields(&mut out, name, labels);
            out.push(',');
            json::write_key(&mut out, "histogram");
            h.write_json(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Equality over *resolved* content: two registries are equal when they
/// hold the same metrics with the same values, regardless of the order
/// their interners learned the strings in.
impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        self.sorted(&self.counters) == other.sorted(&other.counters)
            && self.sorted(&self.gauges) == other.sorted(&other.gauges)
            && self.sorted(&self.histograms) == other.sorted(&other.histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Zero gets its own bucket.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        // Powers of two start new buckets; their predecessors end them.
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_bounds(11), (1024, 2047));
        // The top bucket ends exactly at u64::MAX.
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1_000_000, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_handles_zero_and_max_samples() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u128::from(u64::MAX));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(64), 1);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (64, 1)]);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(0);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 105);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(100));
        // Merging an empty histogram changes nothing.
        let snapshot = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, snapshot);
    }

    #[test]
    fn registry_counters_and_labels() {
        let mut r = Registry::new();
        r.counter_add("jobs_completed", &[], 3);
        r.counter_add("jobs_completed", &[], 1);
        r.counter_add("outcomes_total", &[("scope", "program")], 2);
        r.counter_add("outcomes_total", &[("scope", "job")], 1);
        assert_eq!(r.counter("jobs_completed", &[]), 4);
        assert_eq!(r.counter("outcomes_total", &[("scope", "program")]), 2);
        assert_eq!(r.counter("outcomes_total", &[("scope", "pool")]), 0);
        // Label order does not matter.
        r.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(r.counter("x", &[("b", "2"), ("a", "1")]), 1);
    }

    #[test]
    fn snapshot_parses_and_is_deterministic() {
        let mut r = Registry::new();
        r.counter_add("jobs_completed", &[], 7);
        r.counter_add("outcomes_total", &[("scope", "local-resource")], 2);
        r.gauge_set("cpu_efficiency", &[], 0.875);
        r.observe("attempt_cpu_us", &[("scope", "program")], 0);
        r.observe("attempt_cpu_us", &[("scope", "program")], 120_000_000);
        let doc = r.snapshot_json();
        let v = crate::json::parse(&doc).expect("snapshot parses");
        let counters = v.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 2);
        let hists = v.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(
            hists[0]
                .get("histogram")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(doc, r.snapshot_json());
    }

    #[test]
    fn wide_label_sets_spill_and_still_canonicalise() {
        let mut r = Registry::new();
        let labels: Vec<(&str, &str)> = vec![
            ("e", "5"),
            ("a", "1"),
            ("c", "3"),
            ("b", "2"),
            ("d", "4"),
            ("f", "6"),
        ];
        r.counter_add("wide", &labels, 2);
        let mut reversed = labels.clone();
        reversed.reverse();
        r.counter_add("wide", &reversed, 3);
        assert_eq!(r.counter("wide", &labels), 5);
        assert_eq!(r.counter("wide", &reversed), 5);
        // Export sorts by string order and parses cleanly.
        let doc = r.snapshot_json();
        assert!(crate::json::parse(&doc).is_ok());
        assert!(doc.contains("\"a\":\"1\",\"b\":\"2\",\"c\":\"3\""));
    }

    #[test]
    fn equality_and_merge_cross_interner_order() {
        // Same content, interned in opposite orders: must be equal, and
        // snapshots must be byte-identical.
        let mut a = Registry::new();
        a.counter_add("x", &[], 1);
        a.counter_add("y", &[("scope", "job")], 2);
        let mut b = Registry::new();
        b.counter_add("y", &[("scope", "job")], 2);
        b.counter_add("x", &[], 1);
        assert_eq!(a, b);
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        // Merging re-interns through the source registry's table.
        let mut m = Registry::new();
        m.counter_add("z", &[], 10);
        m.merge(&a);
        assert_eq!(m.counter("x", &[]), 1);
        assert_eq!(m.counter("y", &[("scope", "job")]), 2);
        assert_eq!(m.counter("z", &[]), 10);
    }

    #[test]
    fn counters_iterate_resolved_and_sorted() {
        let mut r = Registry::new();
        r.counter_add("zeta", &[], 1);
        r.counter_add("alpha", &[("m", "1")], 2);
        let counters = r.counters();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].0.name, "alpha");
        assert_eq!(counters[1].0.name, "zeta");
        assert_eq!(counters[0].1, 2);
    }

    #[test]
    fn registry_merge_folds_all_three_kinds() {
        let mut a = Registry::new();
        a.counter_add("c", &[], 1);
        a.observe("h", &[], 10);
        let mut b = Registry::new();
        b.counter_add("c", &[], 2);
        b.gauge_set("g", &[], 1.5);
        b.observe("h", &[], 20);
        a.merge(&b);
        assert_eq!(a.counter("c", &[]), 3);
        assert_eq!(a.gauge("g", &[]), Some(1.5));
        assert_eq!(a.histogram("h", &[]).unwrap().count(), 2);
    }
}
