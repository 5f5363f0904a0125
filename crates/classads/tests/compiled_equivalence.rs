//! Differential tests: compiled ClassAd evaluation must be value-identical
//! to the tree-walking interpreter on every expression.
//!
//! The generator is a hand-rolled deterministic xorshift PRNG with a fixed
//! seed, so the cases are the same on every `cargo test`.

use classads::compile::{symmetric_match_compiled, CompiledAd, Scratch};
use classads::prelude::*;
use classads::{BinOp, Expr, UnOp};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const NAMES: &[&str] = &[
    "Memory",
    "ImageSize",
    "HasJava",
    "OpSys",
    "Tier",
    "Alpha",
    "Beta",
    "Gamma",
    "Requirements",
    "Rank",
];

const STRINGS: &[&str] = &["LINUX", "INTEL", "ada, bob, carol", ""];

const BIN_OPS: &[BinOp] = &[
    BinOp::Or,
    BinOp::And,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::MetaEq,
    BinOp::MetaNe,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
];

const CALLS: &[&str] = &[
    "isundefined",
    "iserror",
    "isinteger",
    "int",
    "real",
    "floor",
    "ceiling",
    "min",
    "max",
    "strcat",
    "ifthenelse",
    "strlen",
    "toupper",
    "substr",
    "stringlistmember",
    "nosuchfn",
];

fn gen_value(rng: &mut XorShift) -> Value {
    match rng.below(6) {
        0 => Value::Int(rng.below(200) as i64 - 50),
        1 => Value::Real([0.5, 2.25, -1.5, 64.0][rng.below(4)]),
        2 => Value::Bool(rng.below(2) == 0),
        3 => Value::str(STRINGS[rng.below(STRINGS.len())]),
        4 => Value::Undefined,
        _ => Value::Int(rng.below(8) as i64),
    }
}

fn gen_expr(rng: &mut XorShift, depth: usize) -> Expr {
    // Leaves only at the depth limit; otherwise mostly operators, so the
    // trees actually exercise propagation rules.
    let choice = if depth == 0 {
        rng.below(2)
    } else {
        rng.below(8)
    };
    match choice {
        0 => Expr::Lit(gen_value(rng)),
        1 => {
            let name = NAMES[rng.below(NAMES.len())];
            match rng.below(3) {
                0 => Expr::attr(name),
                1 => Expr::my(name),
                _ => Expr::target(name),
            }
        }
        2 => {
            let op = if rng.below(2) == 0 {
                UnOp::Not
            } else {
                UnOp::Neg
            };
            Expr::Unary(op, Box::new(gen_expr(rng, depth - 1)))
        }
        3..=6 => {
            let op = BIN_OPS[rng.below(BIN_OPS.len())];
            gen_expr(rng, depth - 1).bin(op, gen_expr(rng, depth - 1))
        }
        _ => {
            let name = CALLS[rng.below(CALLS.len())];
            let argc = 1 + rng.below(3);
            Expr::Call {
                name: name.to_string(),
                args: (0..argc).map(|_| gen_expr(rng, depth - 1)).collect(),
            }
        }
    }
}

fn gen_ad(rng: &mut XorShift) -> ClassAd {
    let mut ad = ClassAd::new();
    let n = 2 + rng.below(NAMES.len() - 2);
    for _ in 0..n {
        let name = NAMES[rng.below(NAMES.len())];
        let depth = 1 + rng.below(3);
        let expr = gen_expr(rng, depth);
        ad.insert_expr(name, expr);
    }
    ad
}

/// `flat` held the other way: every other attribute in a shared parent,
/// the rest — and a shadow over one the parent holds differently — in a
/// child chained to it. Same content, so every reader must agree.
fn chain(flat: &ClassAd) -> ClassAd {
    let mut parent = ClassAd::new();
    let mut child = Vec::new();
    for (i, (name, expr)) in flat.iter().enumerate() {
        if i % 2 == 0 {
            parent.insert_expr(name, expr.clone());
        } else {
            parent.insert_expr(name.to_ascii_uppercase(), Expr::attr("Shadowed"));
            child.push((name, expr.clone()));
        }
    }
    let mut chained = ClassAd::chained(Arc::new(parent));
    for (name, expr) in child {
        chained.insert_expr(name, expr);
    }
    assert_eq!(&chained, flat);
    chained
}

// Value equality that also equates NaN reals: both paths must take the
// same branch, and NaN != NaN would mask that agreement.
fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

// ---------------------------------------------------------------------
// The differential property
// ---------------------------------------------------------------------

#[test]
fn compiled_evaluation_is_value_identical_to_interpreter() {
    let mut rng = XorShift::new(0x5eed_c1a5_5ad5_u64);
    let mut scratch = Scratch::new();
    for case in 0..500 {
        // Two cases in three hold the left ad chained, one of them both.
        let (mut left, mut right) = (gen_ad(&mut rng), gen_ad(&mut rng));
        if case % 3 != 0 {
            left = chain(&left);
        }
        if case % 3 == 2 {
            right = chain(&right);
        }
        let (cl, cr) = (CompiledAd::compile(&left), CompiledAd::compile(&right));

        // Every attribute name, evaluated from the left frame with and
        // without a target, and from the right frame.
        for name in NAMES {
            let contexts: [(&ClassAd, Option<&ClassAd>, &CompiledAd, Option<&CompiledAd>); 3] = [
                (&left, Some(&right), &cl, Some(&cr)),
                (&left, None, &cl, None),
                (&right, Some(&left), &cr, Some(&cl)),
            ];
            for (me, target, cme, ctarget) in contexts {
                let interp = eval_attr(me, target, name);
                let compiled = cme.eval_attr_with(ctarget, name, &mut scratch);
                assert!(
                    values_agree(&interp, &compiled),
                    "case {case}, attr {name}: interpreter {interp:?} != compiled {compiled:?}\n\
                     left = {left}\nright = {right}"
                );
            }
        }

        // The full matchmaking entry point, both orientations.
        let im = symmetric_match(&left, &right);
        let cm = symmetric_match_compiled(&cl, &cr, &mut scratch);
        assert_eq!(im.matched, cm.matched, "case {case}: matched diverged");
        assert_eq!(
            im.left_rank.to_bits(),
            cm.left_rank.to_bits(),
            "case {case}: left_rank diverged"
        );
        assert_eq!(
            im.right_rank.to_bits(),
            cm.right_rank.to_bits(),
            "case {case}: right_rank diverged"
        );
    }
}

#[test]
fn compiled_evaluation_handles_adversarial_scopes() {
    // Ads where the same names exist on both sides with different types,
    // plus cross-ad reference chains — the frame-flip stress case.
    let left = ClassAd::new()
        .with_int("Depth", 1)
        .with_expr("Chain", "TARGET.Chain2 + MY.Depth")
        .with_expr("Chain3", "Depth * 10");
    let right = ClassAd::new()
        .with_int("Depth", 100)
        .with_expr("Chain2", "TARGET.Chain3 + MY.Depth")
        .with_str("Chain3", "wrong-frame-if-seen");
    let (cl, cr) = (CompiledAd::compile(&left), CompiledAd::compile(&right));
    let mut s = Scratch::new();
    for name in ["Chain", "Chain2", "Chain3", "Depth"] {
        assert_eq!(
            eval_attr(&left, Some(&right), name),
            cl.eval_attr_with(Some(&cr), name, &mut s),
            "attr {name}"
        );
    }
    // Chain: left.Chain -> right.Chain2 (frame flips to right) ->
    // left.Chain3 (flips back) = 10, + right.Depth 100 = 110, + left.Depth
    // 1 = 111.
    assert_eq!(
        cl.eval_attr_with(Some(&cr), "Chain", &mut s),
        Value::Int(111)
    );
}

// ---------------------------------------------------------------------
// Pinned edge cases the compilation pass must preserve (satellite)
// ---------------------------------------------------------------------

/// Evaluate `src` as an attribute of an ad, via both paths, asserting they
/// agree, and return the shared value.
fn both_paths(me: &ClassAd, target: Option<&ClassAd>, name: &str) -> Value {
    let interp = eval_attr(me, target, name);
    let cme = CompiledAd::compile(me);
    let ctarget = target.map(CompiledAd::compile);
    let compiled = cme.eval_attr(ctarget.as_ref(), name);
    assert!(
        values_agree(&interp, &compiled),
        "paths diverged for {name}: {interp:?} vs {compiled:?}"
    );
    interp
}

#[test]
fn undefined_propagation_through_and_or() {
    let m = ClassAd::new().with_int("Memory", 128);
    // TARGET.Kflops is undefined in the machine ad.
    let probe = |src: &str| {
        let j = ClassAd::new().with_expr("P", src);
        both_paths(&j, Some(&m), "P")
    };
    // Undefined poisons && unless the other side is False.
    assert_eq!(probe("TARGET.Kflops > 1000 && true"), Value::Undefined);
    assert_eq!(probe("TARGET.Kflops > 1000 && false"), Value::FALSE);
    // True rescues ||; False does not.
    assert_eq!(probe("TARGET.Kflops > 1000 || true"), Value::TRUE);
    assert_eq!(probe("TARGET.Kflops > 1000 || false"), Value::Undefined);
    // Meta-operators never yield Undefined.
    assert_eq!(probe("TARGET.Kflops =?= undefined"), Value::TRUE);
    assert_eq!(probe("TARGET.Kflops =!= undefined"), Value::FALSE);
}

#[test]
fn missing_rank_defaults_to_zero_on_both_paths() {
    let no_rank = ClassAd::new().with_expr("Requirements", "true");
    let m = ClassAd::new().with_int("Memory", 64);
    assert_eq!(rank(&no_rank, &m), 0.0);
    let (c, cm) = (CompiledAd::compile(&no_rank), CompiledAd::compile(&m));
    let mut s = Scratch::new();
    assert_eq!(c.rank(&cm, &mut s), 0.0);
    // Non-numeric rank also scores 0; Bool(true) scores 1.
    let bad = ClassAd::new().with_expr("Rank", "\"fast\"");
    let cb = CompiledAd::compile(&bad);
    assert_eq!(rank(&bad, &m), 0.0);
    assert_eq!(cb.rank(&cm, &mut s), 0.0);
    let yes = ClassAd::new().with_expr("Rank", "TARGET.Memory > 0");
    let cy = CompiledAd::compile(&yes);
    assert_eq!(rank(&yes, &m), 1.0);
    assert_eq!(cy.rank(&cm, &mut s), 1.0);
}

#[test]
fn self_referential_lookups_are_error_on_both_paths() {
    let direct = ClassAd::new().with_expr("x", "x");
    assert_eq!(both_paths(&direct, None, "x"), Value::Error);

    let mutual = ClassAd::new()
        .with_expr("a", "b + 1")
        .with_expr("b", "a + 1");
    assert_eq!(both_paths(&mutual, None, "a"), Value::Error);
    assert_eq!(both_paths(&mutual, None, "b"), Value::Error);

    // Cross-ad ping-pong cycles.
    let m = ClassAd::new().with_expr("p", "TARGET.q");
    let j = ClassAd::new().with_expr("q", "TARGET.p");
    assert_eq!(both_paths(&m, Some(&j), "p"), Value::Error);

    // A Requirements that references itself must reject, not loop.
    let narcissist = ClassAd::new().with_expr("Requirements", "Requirements");
    let target = ClassAd::new().with_expr("Requirements", "true");
    assert!(!requirements_met(&narcissist, &target));
    let (cn, ct) = (
        CompiledAd::compile(&narcissist),
        CompiledAd::compile(&target),
    );
    let mut s = Scratch::new();
    assert!(!cn.requirements_met(&ct, &mut s));
}

#[test]
fn deep_reference_chains_hit_the_same_depth_limit() {
    // A linear chain a0 -> a1 -> ... -> a70 crosses MAX_DEPTH (64): the
    // interpreter reports Error, and the compiled path must agree even
    // though the tail attributes are folded constants.
    let mut ad = ClassAd::new().with_int("a70", 7);
    for i in (0..70).rev() {
        ad.insert_expr(format!("a{i}"), Expr::attr(&format!("a{}", i + 1)));
    }
    assert_eq!(both_paths(&ad, None, "a0"), Value::Error);
    // A chain comfortably inside the limit resolves on both paths.
    let mut short = ClassAd::new().with_int("b10", 3);
    for i in (0..10).rev() {
        short.insert_expr(format!("b{i}"), Expr::attr(&format!("b{}", i + 1)));
    }
    assert_eq!(both_paths(&short, None, "b0"), Value::Int(3));
}
