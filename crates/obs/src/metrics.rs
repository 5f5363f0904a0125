//! Named counters, gauges, and log-scale histograms.
//!
//! The [`Registry`] is a flat map from `(name, labels)` to a value, in the
//! style of a Prometheus exposition: `condor::Metrics` projects itself onto
//! one of these, with per-scope (`scope=...`) and per-machine
//! (`machine=...`) labels, and the experiment binaries write the snapshot
//! as JSON next to their event streams.
//!
//! Every metric is filled in after a run, by a `register_into`
//! projection, so nothing here is on a simulation's hot path. The
//! registry is three `BTreeMap`s keyed by `(name, labels sorted by key)`,
//! and [`Registry::snapshot_json`] writes each in iteration order, which is
//! that key order. Names and label keys are `&'static str` — every caller
//! passes literals — and only label values are owned.
//!
//! [`Histogram`] uses power-of-two buckets over `u64` values (we feed it
//! microsecond durations): bucket 0 holds exactly the value 0, bucket
//! `i >= 1` holds values of bit length `i`, i.e. the range
//! `[2^(i-1), 2^i - 1]`. Bucket 64 therefore ends at `u64::MAX`.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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
        json::write_u64(out, self.count);
        let _ = write!(out, ",\"sum\":{}", self.sum);
        if self.count > 0 {
            out.push_str(",\"min\":");
            json::write_u64(out, self.min);
            out.push_str(",\"max\":");
            json::write_u64(out, self.max);
        }
        out.push_str(",\"buckets\":[");
        for (n, (i, c)) in self.nonzero_buckets().into_iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let (lo, hi) = Self::bucket_bounds(i);
            out.push_str("{\"lo\":");
            json::write_u64(out, lo);
            out.push_str(",\"hi\":");
            json::write_u64(out, hi);
            out.push_str(",\"count\":");
            json::write_u64(out, c);
            out.push('}');
        }
        out.push_str("]}");
    }
}

/// A metric identity: its name and its labels sorted by key, so equal
/// label sets are equal keys and map order is export order.
type Key = (&'static str, Vec<(&'static str, String)>);

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
    let mut labels: Vec<(&'static str, String)> =
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    labels.sort_unstable();
    (name, labels)
}

/// One map of a snapshot as a JSON array: each entry's `name`, its
/// `labels` when it has any, then `field` written by `value`.
fn write_entries<V>(
    out: &mut String,
    map: &BTreeMap<Key, V>,
    field: &str,
    value: impl Fn(&mut String, &V),
) {
    out.push('[');
    for (i, ((name, labels), v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        json::write_key(out, "name");
        json::write_str(out, name);
        if !labels.is_empty() {
            out.push(',');
            json::write_key(out, "labels");
            out.push('{');
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_key(out, k);
                json::write_str(out, v);
            }
            out.push('}');
        }
        out.push(',');
        json::write_key(out, field);
        value(out, v);
        out.push('}');
    }
    out.push(']');
}

/// A registry of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to a counter, creating it at zero first if needed.
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        *self.counters.entry(key(name, labels)).or_insert(0) += delta;
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        self.gauges.insert(key(name, labels), value);
    }

    /// Merge a whole histogram into a named histogram, creating it if
    /// needed — for folding externally-kept histograms into a snapshot.
    pub fn histogram_merge(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        h: &Histogram,
    ) {
        self.histograms
            .entry(key(name, labels))
            .or_default()
            .merge(h);
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        self.counters.get(&key(name, labels)).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Option<f64> {
        self.gauges.get(&key(name, labels)).copied()
    }

    /// A histogram, if it exists.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Option<&Histogram> {
        self.histograms.get(&key(name, labels))
    }

    /// The whole registry as one JSON document:
    /// `{"counters":[...],"gauges":[...],"histograms":[...]}` with entries
    /// in `(name, labels)` order, so equal registries write equal bytes.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":");
        write_entries(&mut out, &self.counters, "value", |out, &v| {
            json::write_u64(out, v)
        });
        out.push_str(",\"gauges\":");
        write_entries(&mut out, &self.gauges, "value", |out, v| {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        });
        out.push_str(",\"histograms\":");
        write_entries(&mut out, &self.histograms, "histogram", |out, h| {
            h.write_json(out)
        });
        out.push('}');
        out
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
        let mut h = Histogram::new();
        h.record(0);
        h.record(120_000_000);
        r.histogram_merge("attempt_cpu_us", &[("scope", "program")], &h);
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
        // Export writes the labels sorted and parses cleanly.
        let doc = r.snapshot_json();
        assert!(crate::json::parse(&doc).is_ok());
        assert!(doc.contains("\"a\":\"1\",\"b\":\"2\",\"c\":\"3\""));
    }

    #[test]
    fn insertion_order_is_invisible() {
        // Same content, inserted in opposite orders: equal registries,
        // byte-identical snapshots, entries in name order.
        let mut a = Registry::new();
        a.counter_add("zeta", &[], 1);
        a.counter_add("alpha", &[("scope", "job")], 2);
        let mut b = Registry::new();
        b.counter_add("alpha", &[("scope", "job")], 2);
        b.counter_add("zeta", &[], 1);
        assert_eq!(a, b);
        let doc = a.snapshot_json();
        assert_eq!(doc, b.snapshot_json());
        assert!(doc.find("alpha").unwrap() < doc.find("zeta").unwrap());
    }

    #[test]
    fn registry_merge_folds_all_three_kinds() {
        // Counters add, a gauge takes the last value, histograms merge.
        let mut r = Registry::new();
        let mut h = Histogram::new();
        h.record(10);
        r.counter_add("c", &[], 1);
        r.gauge_set("g", &[], 0.5);
        r.histogram_merge("h", &[], &h);
        h.record(20);
        r.counter_add("c", &[], 2);
        r.gauge_set("g", &[], 1.5);
        r.histogram_merge("h", &[], &h);
        assert_eq!(r.counter("c", &[]), 3);
        assert_eq!(r.gauge("g", &[]), Some(1.5));
        assert_eq!(r.histogram("h", &[]).unwrap().count(), 3);
        assert_eq!(r.histogram("absent", &[]), None);
    }
}
