//! The interpreter's allocation diet, held by counts: a lookup copies no
//! name, and evaluating an ad's `Requirements` against another allocates
//! only the string values the evaluation produces.
//!
//! A counting global allocator (`propcheck::counting`: in a test crate, so
//! the library keeps `forbid(unsafe_code)`) counts what the calling thread
//! requests; the counts are a function of the code and the inputs.

use classads::prelude::*;
use propcheck::counting::{allocated, Counting};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A machine the way a pool advertises one: a child holding its name and
/// Java capability, chained to the base its owner's configuration built.
fn machine(policy: &str) -> ClassAd {
    let base = ClassAd::new()
        .with_int("Memory", 512)
        .with_str("Arch", "INTEL")
        .with_str("OpSys", "LINUX")
        .with_expr("Requirements", policy)
        .with_int("Rank", 0);
    ClassAd::chained(Arc::new(base))
        .with_str("Name", "node1")
        .with_bool("HasJava", true)
}

/// A Java job the way a schedd advertises one: a child holding its
/// cluster id, chained to its owner's base.
fn job() -> ClassAd {
    let base = ClassAd::new()
        .with_str("Owner", "ada")
        .with_str("Universe", "java")
        .with_int("ImageSize", 48)
        .with_expr(
            "Requirements",
            "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true",
        )
        .with_expr("Rank", "TARGET.Memory");
    ClassAd::chained(Arc::new(base)).with_int("ClusterId", 7)
}

#[test]
fn a_lookup_in_any_case_copies_nothing() {
    let m = machine("TARGET.ImageSize <= MY.Memory");
    let (found, allocations, _) = allocated(|| {
        [
            m.get("REQUIREMENTS").is_some(),
            m.get("requirements").is_some(),
            m.has("hasjava"),
            m.has("NAME"),
            !m.has("NoSuchAttribute"),
        ]
    });
    assert_eq!(found, [true; 5]);
    assert_eq!(allocations, 0);
}

#[test]
fn requirements_allocate_only_the_string_values_they_produce() {
    let j = job();
    // Numbers and booleans only: nothing allocated either way round.
    let numeric = machine("TARGET.ImageSize <= MY.Memory");
    let (met, allocations, _) =
        allocated(|| requirements_met(&numeric, &j) && requirements_met(&j, &numeric));
    assert!(met);
    assert_eq!(allocations, 0);

    // A policy that compares strings produces two: the job's `Owner`
    // and the literal it is compared with, one allocation each.
    let picky = machine("TARGET.ImageSize <= MY.Memory && TARGET.Owner != \"mallory\"");
    let (met, allocations, bytes) =
        allocated(|| requirements_met(&picky, &j) && requirements_met(&j, &picky));
    assert!(met);
    assert_eq!(
        (allocations, bytes),
        (2, ("ada".len() + "mallory".len()) as u64)
    );
}

#[test]
fn chasing_references_and_catching_cycles_allocates_nothing() {
    let ad = ClassAd::new()
        .with_expr("Top", "MIDDLE * 2")
        .with_expr("Middle", "bottom + 1")
        .with_int("Bottom", 20)
        .with_expr("Alpha", "BETA + 1")
        .with_expr("Beta", "alpha + 1");
    let (values, allocations, _) = allocated(|| [ad.value_of("top"), ad.value_of("ALPHA")]);
    assert_eq!(values, [Value::Int(42), Value::Error]);
    assert_eq!(allocations, 0);
}
