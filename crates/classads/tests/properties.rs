//! Properties of the ClassAd language, run on seeded generated cases.

use classads::ast::{BinOp, Expr};
use classads::compile::{symmetric_match_compiled, CompiledAd, Scratch};
use classads::parser::parse_ad_pairs;
use classads::prelude::*;
use classads::value::ArithOp;
use propcheck::{check, Gen};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const CASES: u64 = 512;

/// `[a-z]` is the first 26 of these, `[a-z0-9]` the first 36.
const ALNUM: &str = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// An arbitrary ClassAd value.
fn any_value(g: &mut Gen) -> Value {
    match g.below(6) {
        0 => Value::Undefined,
        1 => Value::Error,
        2 => Value::Bool(g.bool()),
        3 => Value::Int(g.int(-1_000_000i64..1_000_000)),
        4 => Value::Real(g.f64(-1e6..1e6)),
        _ => Value::Str(g.string(&format!("{ALNUM} _"), 0..=12)),
    }
}

/// A small expression tree, at most `depth` operators deep, over a fixed
/// attribute alphabet.
fn any_expr(g: &mut Gen, depth: u32) -> Expr {
    use BinOp::*;
    const OPS: [BinOp; 15] = [
        Or, And, Eq, Ne, MetaEq, MetaNe, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Mod,
    ];
    match g.below(if depth == 0 { 2 } else { 4 }) {
        0 => Expr::Lit(any_value(g)),
        1 => Expr::attr(g.pick::<&str>(&["a", "b", "c", "memory"])),
        _ => Expr::Binary(
            *g.pick(&OPS),
            Box::new(any_expr(g, depth - 1)),
            Box::new(any_expr(g, depth - 1)),
        ),
    }
}

/// Evaluation is total: no expression panics, whatever the ads hold.
#[test]
fn eval_never_panics() {
    check(CASES, |g| {
        let (e, mem) = (any_expr(g, 3), g.int(-100i64..100));
        let me = ClassAd::new().with_int("a", mem).with_bool("b", mem > 0);
        let target = ClassAd::new().with_int("memory", mem * 2);
        let _ = eval(&me, Some(&target), &e);
    });
}

/// Display → parse round trip: printing an expression and re-parsing
/// it yields a semantically identical expression (same value against
/// random ads).
#[test]
fn display_parse_roundtrip() {
    check(CASES, |g| {
        let (e, mem) = (any_expr(g, 3), g.int(-100i64..100));
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("failed to reparse {printed:?}: {err}"));
        let me = ClassAd::new().with_int("a", mem);
        let target = ClassAd::new()
            .with_int("memory", mem + 1)
            .with_bool("b", true);
        assert_eq!(
            eval(&me, Some(&target), &e),
            eval(&me, Some(&target), &reparsed),
            "printed form: {printed}"
        );
    });
}

/// AND/OR are commutative and AND distributes FALSE, OR distributes
/// TRUE, for all value pairs (the tri-state truth tables).
#[test]
fn logic_laws() {
    check(CASES, |g| {
        let (a, b) = (any_value(g), any_value(g));
        assert_eq!(a.and(&b), b.and(&a));
        assert_eq!(a.or(&b), b.or(&a));
        assert_eq!(Value::FALSE.and(&a), Value::FALSE);
        assert_eq!(Value::TRUE.or(&a), Value::TRUE);
        // De Morgan holds in the three-valued logic.
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    });
}

/// =?= is total (never Undefined/Error), reflexive, and symmetric.
#[test]
fn meta_eq_laws() {
    check(CASES, |g| {
        let (a, b) = (any_value(g), any_value(g));
        let ab = a.is_identical(&b);
        assert!(matches!(ab, Value::Bool(_)));
        assert_eq!(ab, b.is_identical(&a));
        // Reflexivity (`any_value` draws no NaN, the one exception).
        assert_eq!(a.is_identical(&a), Value::Bool(true));
    });
}

/// Int arithmetic agrees with wrapping i64 arithmetic away from the
/// division-by-zero edge.
#[test]
fn int_arith_matches_i64() {
    check(CASES, |g| {
        let edge = |g: &mut Gen| match g.below(4) {
            0 => *g.pick(&[0, 1, -1, i64::MIN, i64::MAX]),
            _ => g.int(i64::MIN..=i64::MAX),
        };
        let (x, y) = (edge(g), edge(g));
        let arith = |op| Value::Int(x).arith(op, &Value::Int(y));
        assert_eq!(arith(ArithOp::Add), Value::Int(x.wrapping_add(y)));
        assert_eq!(arith(ArithOp::Mul), Value::Int(x.wrapping_mul(y)));
        if y != 0 {
            assert_eq!(arith(ArithOp::Div), Value::Int(x.wrapping_div(y)));
        } else {
            assert_eq!(arith(ArithOp::Div), Value::Error);
        }
    });
}

/// Whole-ad print/parse round trip preserves every attribute's value.
#[test]
fn ad_roundtrip() {
    check(CASES, |g| {
        let name = |g: &mut Gen| g.string(&ALNUM[..26], 1..=1) + &g.string(&ALNUM[..36], 0..=6);
        let ints: BTreeMap<String, i64> = g
            .vec(0..6, |g| (name(g), g.int(-1000i64..1000)))
            .into_iter()
            .collect();
        let mut ad = ClassAd::new();
        for (k, v) in &ints {
            ad.insert(k.clone(), Value::Int(*v));
        }
        let printed = ad.to_string();
        let back = ClassAd::parse(&printed).unwrap();
        // Structural equality can differ (e.g. -1 prints as a literal but
        // reparses as unary negation), so compare semantically.
        assert_eq!(back.len(), ad.len());
        for (k, v) in &ints {
            assert_eq!(back.value_of(k), Value::Int(*v));
        }
    });
}

/// A chained ad is indistinguishable from its flattened copy: parent and
/// child drawn over names that overlap and differ in case, every
/// expression free to refer — bare, `MY.` or `TARGET.` — to a name only
/// the child defines (`kid`), one only the partner defines (`theirs`) and
/// one nobody does (`nobody`). Lookup, iteration, printing, equality,
/// removal, the interpreter, the compiler and the match key all agree with
/// the flat ad built from the same insertions. One case in eight is the
/// pair a schedd sends — what a cluster's jobs share, and a job's
/// `ClusterId` chained to it — against a machine.
#[test]
fn chained_ad_is_its_flattened_copy() {
    const NAMES: [&str; 9] = [
        "a",
        "A",
        "b",
        "Memory",
        "memory",
        "Requirements",
        "requirements",
        "Rank",
        "kid",
    ];
    fn scoped_expr(g: &mut Gen, depth: u32) -> Expr {
        const OPS: [BinOp; 6] = [
            BinOp::And,
            BinOp::Or,
            BinOp::MetaEq,
            BinOp::Ge,
            BinOp::Add,
            BinOp::Div,
        ];
        match g.below(if depth == 0 { 2 } else { 4 }) {
            0 => Expr::Lit(any_value(g)),
            1 => {
                let name = *g.pick(&["a", "b", "Memory", "kid", "theirs", "nobody", "Rank"]);
                (*g.pick(&[Expr::attr, Expr::my, Expr::target]))(name)
            }
            _ => scoped_expr(g, depth - 1).bin(*g.pick(&OPS), scoped_expr(g, depth - 1)),
        }
    }
    // NaN-proof comparison of what a match yields.
    let bits = |m: MatchResult| (m.matched, m.left_rank.to_bits(), m.right_rank.to_bits());
    check(CASES, |g| {
        let attrs = |g: &mut Gen, names: &[&'static str]| {
            g.vec(0..6, |g| (*g.pick(names), scoped_expr(g, 2)))
        };
        let (inherited, own, partner) = if g.below(8) == 0 {
            let image_size = Expr::int(g.int(1i64..512));
            let requirements = Expr::target("Memory")
                .ge(Expr::my("ImageSize"))
                .and(Expr::target("HasJava").bin(BinOp::MetaEq, Expr::boolean(true)));
            let owner_policy = Expr::my("Memory").ge(Expr::target("ImageSize"));
            (
                vec![
                    ("Owner", Expr::Lit(Value::str("ada"))),
                    ("ImageSize", image_size),
                    ("Requirements", requirements),
                    ("Rank", Expr::target("Memory")),
                ],
                vec![("ClusterId", Expr::int(g.int(0i64..10_000)))],
                vec![
                    ("Memory", Expr::int(g.int(1i64..512))),
                    ("HasJava", Expr::boolean(g.bool())),
                    ("Requirements", owner_policy),
                ],
            )
        } else {
            let (inherited, own) = (attrs(g, &NAMES[..8]), attrs(g, &NAMES));
            let partner = attrs(g, &["a", "Memory", "Requirements", "Rank", "theirs"]);
            (inherited, own, partner)
        };
        let build = |mut ad: ClassAd, attrs: &[(&str, Expr)]| {
            for (name, expr) in attrs {
                ad.insert_expr(*name, expr.clone());
            }
            ad
        };
        let parent = Arc::new(build(ClassAd::new(), &inherited));
        let child = build(ClassAd::chained(Arc::clone(&parent)), &own);
        let flat = build(build(ClassAd::new(), &inherited), &own);
        let partner = build(ClassAd::new(), &partner);

        // Lookup, size, order, print.
        for name in NAMES
            .iter()
            .chain(&["theirs", "KID", "ClusterId", "imagesize"])
        {
            assert_eq!(child.get(name), flat.get(name), "{name}");
            assert_eq!(child.has(name), flat.has(name), "{name}");
        }
        assert_eq!(
            (child.len(), child.is_empty()),
            (flat.len(), flat.is_empty())
        );
        assert!(child.iter().eq(flat.iter()));
        let printed = child.to_string();
        assert_eq!(printed, flat.to_string());
        assert_eq!(
            ClassAd::parse(&printed).expect("prints what parses").len(),
            flat.len()
        );
        // Equality, by content and (two children of one parent) by pointer.
        assert_eq!(child, flat);
        assert_eq!(flat, child);
        assert_eq!(child, build(ClassAd::chained(Arc::clone(&parent)), &own));
        assert_eq!(child == *parent, flat == *parent);
        // The interpreter: a bare name the ad lacks goes to the partner.
        for name in NAMES {
            let (c, f) = (
                eval_attr(&child, Some(&partner), name),
                eval_attr(&flat, Some(&partner), name),
            );
            assert!(c == f || (c != c && f != f), "{name}: {c:?} vs {f:?}");
        }
        assert_eq!(
            bits(symmetric_match(&child, &partner)),
            bits(symmetric_match(&flat, &partner))
        );
        assert_eq!(
            bits(symmetric_match(&partner, &child)),
            bits(symmetric_match(&partner, &flat))
        );
        // The compiler, and what a partner can tell the ad apart by.
        let (cc, cf, cp) = (
            Arc::new(CompiledAd::compile(&child)),
            Arc::new(CompiledAd::compile(&flat)),
            CompiledAd::compile(&partner),
        );
        let mut scratch = Scratch::new();
        assert_eq!(
            bits(symmetric_match_compiled(&cc, &cp, &mut scratch)),
            bits(symmetric_match(&flat, &partner))
        );
        let asked: BTreeSet<String> = g
            .vec(0..4, |g| g.pick(&NAMES).to_ascii_lowercase())
            .into_iter()
            .collect();
        assert!(cc.partner_reads().eq(cf.partner_reads()));
        assert!(cc.reads_back(&asked).eq(cf.reads_back(&asked)));
        assert!(cc.match_key(&asked) == cf.match_key(&asked));
        assert!(cc.rank_key(&asked) == cf.rank_key(&asked));
        // Removal: an inherited name does not show through afterwards.
        let doomed = *g.pick(&NAMES);
        let (mut c, mut f) = (child.clone(), flat.clone());
        assert_eq!(c.remove(doomed), f.remove(doomed));
        assert!(!c.has(doomed) && c == f, "after removing {doomed}");
        assert_eq!(parent.len(), build(ClassAd::new(), &inherited).len());
    });
}

/// The language's own tokens, space-separated: the first 28 make
/// expressions, the rest are ad punctuation, a stray quote, and 2^63.
const TOKENS: &str = "a MY. TARGET. 1 2.5 \"s\" true undefined error ( ) && || == != =?= =!= < <= \
    + - * / % ! , min strcat [ ] = ; \" 9223372036854775808";

/// The parsers are total — input parses or is a `ParseError`, never a
/// panic — on 10^5 inputs each: arbitrary characters, token soup, and
/// printed expressions and ads damaged (flipped, truncated, spliced,
/// duplicated). Whatever parses also evaluates without panicking.
#[test]
fn parser_is_total() {
    let chars = format!("{ALNUM} \t\n\"'\\.()[]{{}}=?!<>&|+-*/%,;:#@$^~`_\0\u{7f}é誤😀\u{2028}");
    let tokens: Vec<&str> = TOKENS.split(' ').collect();
    let ad = ClassAd::new().with_int("a", 1);
    check(100_000, |g| {
        let text = match g.below(4) {
            0 => g.string(&chars, 0..=120),
            1 => g.vec(0..25, |g| *g.pick(&tokens)).join(" "),
            2 => any_expr(g, 3).to_string(),
            _ => {
                let mut ad = ClassAd::new();
                for name in g.vec(0..4, |g| *g.pick(&["a", "Memory", "Requirements", "x_1"])) {
                    ad.insert_expr(name, any_expr(g, 2));
                }
                ad.to_string()
            }
        };
        let src = match g.below(4) {
            0 => text,
            _ => String::from_utf8_lossy(&g.mutated(text.as_bytes())).into_owned(),
        };
        if let Ok(e) = parse_expr(&src) {
            let _ = eval(&ad, None, &e);
        }
        if let Ok(pairs) = parse_ad_pairs(&src) {
            for (_, e) in &pairs {
                let _ = eval(&ad, None, e);
            }
        }
    });
}

/// Token soup from the language's own alphabet never panics and, when it
/// parses, prints to something that parses again.
#[test]
fn token_soup_is_survivable() {
    let tokens: Vec<&str> = TOKENS.split(' ').take(28).collect();
    check(20 * CASES, |g| {
        let src = g.vec(0..25, |g| *g.pick(&tokens)).join(" ");
        if let Ok(e) = parse_expr(&src) {
            let _ = eval(&ClassAd::new().with_int("a", 1), None, &e);
            let printed = e.to_string();
            assert!(parse_expr(&printed).is_ok(), "{src} printed as {printed}");
        }
    });
}

/// Matching is symmetric in `matched` (two-way by construction).
#[test]
fn match_symmetry() {
    check(CASES, |g| {
        let (mem, img) = (g.int(1i64..1024), g.int(1i64..1024));
        let job = ClassAd::new()
            .with_int("ImageSize", img)
            .with_expr("Requirements", "TARGET.Memory >= MY.ImageSize");
        let machine = ClassAd::new()
            .with_int("Memory", mem)
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory");
        let ab = symmetric_match(&job, &machine);
        let ba = symmetric_match(&machine, &job);
        assert_eq!(ab.matched, ba.matched);
        assert_eq!(ab.matched, mem >= img);
    });
}
