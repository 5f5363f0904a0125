//! Properties of the error-scope theory, run on seeded generated cases.

use errorscope::escalate::EscalationPolicy;
use errorscope::prelude::*;
use errorscope::resultfile::{ResultFile, ResultFileError};
use propcheck::{check, Gen};
use std::collections::BTreeSet;
use std::time::Duration;

const CASES: u64 = 512;

fn any_scope(g: &mut Gen) -> Scope {
    *g.pick(&Scope::ALL)
}

/// An error born explicit or escaping, as a coin falls.
fn any_error(g: &mut Gen, code: &'static str, origin: &'static str) -> ScopedError {
    let scope = any_scope(g);
    if g.bool() {
        ScopedError::escaping(code, scope, origin, "m")
    } else {
        ScopedError::explicit(code, scope, origin, "m")
    }
}

/// Containment is a partial order: reflexive, antisymmetric,
/// transitive — over every triple (12^3 of them: no need to sample).
#[test]
fn scope_partial_order_laws() {
    for a in Scope::ALL {
        assert!(a.contains(a));
        for b in Scope::ALL {
            if a.contains(b) && b.contains(a) {
                assert_eq!(a, b);
            }
            for c in Scope::ALL {
                if a.contains(b) && b.contains(c) {
                    assert!(a.contains(c));
                }
            }
        }
    }
}

/// join is the least upper bound: an upper bound, commutative,
/// idempotent, associative — over every triple.
#[test]
fn scope_join_is_lub() {
    for a in Scope::ALL {
        assert_eq!(a.join(a), a);
        for b in Scope::ALL {
            let j = a.join(b);
            assert!(j.contains(a) && j.contains(b));
            assert_eq!(j, b.join(a));
            // Minimality: every scope containing both contains the join.
            for s in Scope::ALL {
                if s.contains(a) && s.contains(b) {
                    assert!(s.contains(j), "{s} contains both but not join {j}");
                }
                assert_eq!(a.join(b).join(s), a.join(b.join(s)));
            }
        }
    }
}

/// Widening never shrinks and eventually reaches System.
#[test]
fn widening_terminates_at_system() {
    for s in Scope::ALL {
        let mut cur = s;
        let mut steps = 0;
        while let Some(w) = cur.widened() {
            assert!(w.strictly_contains(cur));
            cur = w;
            steps += 1;
            assert!(steps <= Scope::ALL.len());
        }
        assert_eq!(cur, Scope::System);
    }
}

/// ScopedError trails only ever grow; widening in transit never
/// shrinks scope; the comm mode is whatever the last conversion set.
#[test]
fn error_trail_monotone() {
    check(CASES, |g| {
        let mut e = any_error(g, "X", "origin");
        let mut len = e.trail.len();
        let mut prev_scope = e.scope;
        for _ in 0..g.int(0..8) {
            e = match g.below(4) {
                0 => e.forwarded("layer"),
                1 => {
                    let wider = e.scope.widened().unwrap_or(Scope::System);
                    e.widen(wider, "layer")
                }
                2 => e.escape("layer"),
                _ => e.reexpress("layer"),
            };
            assert_eq!(e.trail.len(), len + 1);
            len = e.trail.len();
            assert!(e.scope.contains(prev_scope));
            prev_scope = e.scope;
        }
    });
}

/// Escalation policies are monotone in time regardless of step layout.
#[test]
fn escalation_is_monotone() {
    check(CASES, |g| {
        let (step1, gap) = (g.int(1u64..1000), g.int(1u64..1000));
        let p = EscalationPolicy::new(Scope::Network)
            .after(Duration::from_secs(step1), Scope::Process)
            .after(Duration::from_secs(step1 + gap), Scope::Cluster);
        let mut probes = g.vec(1..20, |g| g.int(0u64..5000));
        probes.sort_unstable();
        let mut prev = p.scope_at(Duration::ZERO);
        for t in probes {
            let s = p.scope_at(Duration::from_secs(t));
            assert!(s.contains(prev));
            prev = s;
        }
    });
}

/// Result files survive serialisation for arbitrary content.
#[test]
fn resultfile_roundtrip() {
    const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let any_char = format!("{ALNUM} \"\\/\t\r\0\u{1f}\u{7f}é誤😀\u{2028}\u{ffff}{{}}[]:,");
    check(CASES, |g| {
        let name = g.string(&ALNUM[..52], 1..=1) + &g.string(ALNUM, 0..=30);
        let msg = g.string(&any_char, 0..=80);
        let rf = match g.below(3) {
            0 => ResultFile::completed(g.int(i32::MIN..=i32::MAX)),
            1 => ResultFile::program_exception(ErrorCode::owned(name), msg),
            _ => ResultFile::environment_failure(any_scope(g), ErrorCode::owned(name), msg),
        };
        assert_eq!(ResultFile::from_json(&rf.to_json()), Ok(rf));
    });
}

/// Spliced, duplicated, cut and overwritten spans of a valid result file
/// read back as a result file or fail with a named error — never a panic —
/// and what reads back writes the same file it was read from, or a
/// canonical one that reads back as itself.
#[test]
fn mutated_result_files_read_or_fail_by_name() {
    let (mut read, mut malformed, mut unknown) = (0u32, 0u32, 0u32);
    check(100_000, |g| {
        let code = ErrorCode::owned(g.string("abcXYZ_", 1..=8));
        let msg = g.string("ab \"\\/\n\u{e9}\u{1f}{}[]:,0", 0..=24);
        let valid = match g.below(3) {
            0 => ResultFile::completed(g.int(i32::MIN..=i32::MAX)),
            1 => ResultFile::program_exception(code, msg),
            _ => ResultFile::environment_failure(any_scope(g), code, msg),
        };
        let text = String::from_utf8_lossy(&g.mutated(valid.to_json().as_bytes())).into_owned();
        match ResultFile::from_json(&text) {
            Ok(rf) => {
                read += 1;
                assert_eq!(ResultFile::from_json(&rf.to_json()), Ok(rf));
            }
            Err(ResultFileError::Malformed(what)) => {
                malformed += 1;
                assert!(!what.is_empty());
            }
            Err(ResultFileError::UnknownVersion(_)) => unknown += 1,
        }
    });
    assert!(
        read > 1_000 && malformed > 50_000 && unknown > 10,
        "{read} {malformed} {unknown}"
    );
}

/// Propagation through the Java Universe stack always terminates with
/// a handler whose managed scope contains the error's final scope — or
/// no handler, only when nothing in the stack manages a containing
/// scope (P3 as an invariant).
#[test]
fn propagation_satisfies_p3() {
    check(CASES, |g| {
        let stack = java_universe_stack();
        let d = stack.propagate(any_error(g, "Y", "wrapper"), "wrapper");
        match d.handled_by {
            Some(h) => {
                let layer = stack
                    .layers()
                    .iter()
                    .find(|l| l.name == h)
                    .expect("handler is a layer");
                assert!(layer.can_absorb(d.error.scope));
                assert!(errorscope::audit::audit_delivery(&stack, &d).is_empty());
            }
            None => assert!(stack.manager_of(d.error.scope).is_none()),
        }
    });
}

/// A finite vocabulary admits exactly its members; the generic one
/// admits everything (P4 duality).
#[test]
fn vocabulary_membership() {
    check(CASES, |g| {
        // Two-letter names over a small alphabet, so probes hit members.
        let name = |g: &mut Gen| g.string("AB", 1..=1) + &g.string("abc", 1..=2);
        let declared: BTreeSet<String> = g.vec(0..6, name).into_iter().collect();
        let probe = name(g);
        let v = ErrorVocabulary::finite(declared.iter().cloned().map(ErrorCode::owned));
        let code = ErrorCode::owned(probe.clone());
        assert_eq!(v.admits(&code), declared.contains(&probe));
        assert!(ErrorVocabulary::generic().admits(&code));
    });
}
