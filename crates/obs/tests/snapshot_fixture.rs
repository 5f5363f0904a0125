//! Regression guard for the metrics snapshot wire format.
//!
//! The fixture in `tests/fixtures/registry_snapshot.json` pins what
//! `snapshot_json` writes: entry order (sorted by name, then labels), label
//! order, escaping and number formatting. The registry has produced these
//! bytes in every form it has taken. Regenerate with
//! `REGEN_FIXTURES=1 cargo test -p obs`.

use obs::{Histogram, Registry};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/registry_snapshot.json"
);

/// A registry touching every serialization path: plain and labeled
/// counters (inserted out of label order), multi-label keys, gauges
/// (finite and non-finite), histograms (zero, huge, and mid-range
/// samples), and strings that need JSON escaping.
fn sample_registry() -> Registry {
    let mut r = Registry::new();
    r.counter_add("jobs_completed", &[], 7);
    r.counter_add("outcomes", &[("scope", "program")], 3);
    r.counter_add("outcomes", &[("scope", "local-resource")], 2);
    r.counter_add("net_msgs_dropped", &[("link", "1-5")], 11);
    // Labels given unsorted; the snapshot must sort them.
    r.counter_add("x", &[("b", "2"), ("a", "1")], 1);
    r.counter_add("escape\"me", &[("k\\ey", "v\"al")], 9);
    r.gauge_set("cpu_efficiency", &[], 0.875);
    r.gauge_set("advertising_java", &[("machine", "ws0")], 1.0);
    r.gauge_set("broken", &[], f64::NAN);
    let hist = |samples: &[u64]| {
        let mut h = Histogram::new();
        samples.iter().for_each(|&s| h.record(s));
        h
    };
    r.histogram_merge("attempt_cpu_us", &[("scope", "program")], &hist(&[0]));
    r.histogram_merge(
        "attempt_cpu_us",
        &[("scope", "program")],
        &hist(&[120_000_000]),
    );
    r.histogram_merge(
        "attempt_cpu_us",
        &[("scope", "network")],
        &hist(&[1023, 1024]),
    );
    r.histogram_merge("huge", &[], &hist(&[u64::MAX]));
    r
}

#[test]
fn snapshot_json_matches_committed_fixture() {
    let got = sample_registry().snapshot_json();
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("fixture present");
    assert_eq!(
        got, want,
        "Registry::snapshot_json drifted from the committed wire format"
    );
}

#[test]
fn snapshot_fixture_parses_as_json() {
    let doc = sample_registry().snapshot_json();
    let v = obs::json::parse(&doc).expect("snapshot parses");
    assert_eq!(v.get("counters").unwrap().as_arr().unwrap().len(), 6);
    assert_eq!(v.get("gauges").unwrap().as_arr().unwrap().len(), 3);
    assert_eq!(v.get("histograms").unwrap().as_arr().unwrap().len(), 3);
}
