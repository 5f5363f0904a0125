//! Expression evaluation against an ad pair.
//!
//! Evaluation happens in the context of a *self* ad (`MY.`) and optionally
//! a *target* ad (`TARGET.`). Bare attribute references try the self ad
//! first, then the target ad, yielding `Undefined` if neither defines the
//! name — the language's mechanism for surviving attributes invented by
//! autonomous parties. Reference cycles evaluate to `Error`.

use crate::ad::ClassAd;
use crate::ast::{AttrScope, BinOp, Expr, UnOp};
use crate::value::{ArithOp, Value};
use std::cmp::Ordering;

/// Maximum attribute-reference chain depth before declaring a cycle.
pub(crate) const MAX_DEPTH: usize = 64;

struct Env<'a> {
    me: &'a ClassAd,
    target: Option<&'a ClassAd>,
}

/// An attribute being resolved, for cycle detection: which ad's
/// (false = me, true = target), its expression — one per attribute of an
/// ad, whatever case a reference spells its name in — how many are being
/// resolved counting it, and the one whose evaluation asked for it. One
/// link lives in each `resolve` frame, so chasing references allocates
/// nothing.
struct Chasing<'a, 'up> {
    which: bool,
    expr: &'a Expr,
    depth: usize,
    up: Option<&'up Chasing<'a, 'up>>,
}

/// Evaluate `expr` with `me` as the self ad and `target` as the candidate.
pub fn eval(me: &ClassAd, target: Option<&ClassAd>, expr: &Expr) -> Value {
    eval_in(&Env { me, target }, None, false, expr)
}

/// Evaluate the named attribute of `me` (used for `Rank`, `Requirements`,
/// and plain value lookups).
pub fn eval_attr(me: &ClassAd, target: Option<&ClassAd>, name: &str) -> Value {
    match me.get(name) {
        Some(expr) => eval(me, target, expr),
        None => Value::Undefined,
    }
}

/// `current_is_target`: which ad unqualified/MY references resolve against
/// right now. When we chase a reference into the target ad, MY flips —
/// the expression is evaluated *in that ad's frame*, as in real ClassAds.
/// `chain`: the attributes being resolved, innermost first.
fn eval_in<'a>(
    env: &Env<'a>,
    chain: Option<&Chasing<'a, '_>>,
    current_is_target: bool,
    expr: &'a Expr,
) -> Value {
    match expr {
        Expr::Lit(v) => v.clone(),
        Expr::Attr { scope, name, .. } => resolve(env, chain, current_is_target, *scope, name),
        Expr::Unary(op, e) => {
            let v = eval_in(env, chain, current_is_target, e);
            match op {
                UnOp::Not => v.not(),
                UnOp::Neg => v.neg(),
            }
        }
        Expr::Binary(op, a, b) => {
            let va = eval_in(env, chain, current_is_target, a);
            // && and || could short-circuit, but ClassAd semantics require
            // inspecting both sides in general (False && Error == False
            // works either way; we evaluate both for simplicity and
            // determinism).
            let vb = eval_in(env, chain, current_is_target, b);
            apply_bin(*op, &va, &vb)
        }
        Expr::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_in(env, chain, current_is_target, a))
                .collect();
            call_builtin(name, &vals)
        }
    }
}

// Shared with the compiled evaluator (`crate::compile`), which must apply
// bit-identical operator semantics.
pub(crate) fn apply_bin(op: BinOp, a: &Value, b: &Value) -> Value {
    match op {
        BinOp::Or => a.or(b),
        BinOp::And => a.and(b),
        BinOp::Eq => a.compare_with(b, |o| o == Ordering::Equal),
        BinOp::Ne => a.compare_with(b, |o| o != Ordering::Equal),
        BinOp::MetaEq => a.is_identical(b),
        BinOp::MetaNe => a.is_identical(b).not(),
        BinOp::Lt => a.compare_with(b, |o| o == Ordering::Less),
        BinOp::Le => a.compare_with(b, |o| o != Ordering::Greater),
        BinOp::Gt => a.compare_with(b, |o| o == Ordering::Greater),
        BinOp::Ge => a.compare_with(b, |o| o != Ordering::Less),
        BinOp::Add => a.arith(ArithOp::Add, b),
        BinOp::Sub => a.arith(ArithOp::Sub, b),
        BinOp::Mul => a.arith(ArithOp::Mul, b),
        BinOp::Div => a.arith(ArithOp::Div, b),
        BinOp::Mod => a.arith(ArithOp::Mod, b),
    }
}

fn resolve<'a>(
    env: &Env<'a>,
    chain: Option<&Chasing<'a, '_>>,
    current_is_target: bool,
    scope: AttrScope,
    name: &str,
) -> Value {
    // Decide which ad(s) to search, in order.
    let candidates: [Option<bool>; 2] = match scope {
        AttrScope::My => [Some(current_is_target), None],
        AttrScope::Target => [Some(!current_is_target), None],
        AttrScope::Either => [Some(current_is_target), Some(!current_is_target)],
    };

    for which in candidates.into_iter().flatten() {
        let ad: Option<&ClassAd> = if which { env.target } else { Some(env.me) };
        let Some(ad) = ad else { continue };
        if let Some(expr) = ad.get(name) {
            let depth = chain.map_or(0, |link| link.depth);
            let mut links = std::iter::successors(chain, |link| link.up);
            if depth >= MAX_DEPTH
                || links.any(|link| link.which == which && std::ptr::eq(link.expr, expr))
            {
                return Value::Error; // cycle or pathological depth
            }
            let link = Chasing {
                which,
                expr,
                depth: depth + 1,
                up: chain,
            };
            return eval_in(env, Some(&link), which, expr);
        }
    }
    Value::Undefined
}

/// Builtin functions. Unknown functions evaluate to `Error`. Shared with
/// the compiled evaluator.
pub(crate) fn call_builtin(name: &str, args: &[Value]) -> Value {
    match (name, args.len()) {
        ("isundefined", 1) => Value::Bool(args[0].is_undefined()),
        ("iserror", 1) => Value::Bool(args[0].is_error()),
        ("isinteger", 1) => Value::Bool(matches!(args[0], Value::Int(_))),
        ("isreal", 1) => Value::Bool(matches!(args[0], Value::Real(_))),
        ("isstring", 1) => Value::Bool(matches!(args[0], Value::Str(_))),
        ("isboolean", 1) => Value::Bool(matches!(args[0], Value::Bool(_))),
        ("int", 1) => match &args[0] {
            Value::Int(i) => Value::Int(*i),
            Value::Real(r) => Value::Int(*r as i64),
            Value::Bool(b) => Value::Int(i64::from(*b)),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Error),
            Value::Undefined => Value::Undefined,
            Value::Error => Value::Error,
        },
        ("real", 1) => match &args[0] {
            Value::Int(i) => Value::Real(*i as f64),
            Value::Real(r) => Value::Real(*r),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Real)
                .unwrap_or(Value::Error),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        ("floor", 1) => match args[0].as_number() {
            Some(x) => Value::Int(x.floor() as i64),
            None => nonnum(&args[0]),
        },
        ("ceiling", 1) => match args[0].as_number() {
            Some(x) => Value::Int(x.ceil() as i64),
            None => nonnum(&args[0]),
        },
        ("min", n) if n >= 1 => fold_numeric(args, |a, b| if b < a { b } else { a }),
        ("max", n) if n >= 1 => fold_numeric(args, |a, b| if b > a { b } else { a }),
        ("strcat", _) => {
            let mut s = String::new();
            for a in args {
                match a {
                    Value::Str(x) => s.push_str(x),
                    Value::Int(i) => s.push_str(&i.to_string()),
                    Value::Real(r) => s.push_str(&format!("{r:?}")),
                    Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
                    Value::Undefined => return Value::Undefined,
                    Value::Error => return Value::Error,
                }
            }
            Value::Str(s)
        }
        ("ifthenelse", 3) => match &args[0] {
            Value::Bool(true) => args[1].clone(),
            Value::Bool(false) => args[2].clone(),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        ("strlen", 1) => match &args[0] {
            Value::Str(s) => Value::Int(s.len() as i64),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        ("toupper", 1) => match &args[0] {
            Value::Str(s) => Value::Str(s.to_ascii_uppercase()),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        ("tolower", 1) => match &args[0] {
            Value::Str(s) => Value::Str(s.to_ascii_lowercase()),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        ("substr", 2 | 3) => match (&args[0], &args[1]) {
            (Value::Str(s), Value::Int(start)) => {
                // Negative start counts from the end, as in HTCondor.
                let len = s.len() as i64;
                let begin = if *start < 0 {
                    (len + start).max(0)
                } else {
                    (*start).min(len)
                } as usize;
                let take = match args.get(2) {
                    None => usize::MAX,
                    Some(Value::Int(n)) if *n >= 0 => *n as usize,
                    Some(Value::Undefined) => return Value::Undefined,
                    Some(_) => return Value::Error,
                };
                Value::Str(s.chars().skip(begin).take(take).collect())
            }
            (Value::Undefined, _) | (_, Value::Undefined) => Value::Undefined,
            _ => Value::Error,
        },
        ("stringlistmember", 2) => match (&args[0], &args[1]) {
            // HTCondor-style comma-separated string lists, compared
            // case-insensitively.
            (Value::Str(needle), Value::Str(list)) => Value::Bool(
                list.split(',')
                    .any(|item| item.trim().eq_ignore_ascii_case(needle)),
            ),
            (Value::Undefined, _) | (_, Value::Undefined) => Value::Undefined,
            _ => Value::Error,
        },
        _ => Value::Error,
    }
}

fn nonnum(v: &Value) -> Value {
    match v {
        Value::Undefined => Value::Undefined,
        _ => Value::Error,
    }
}

fn fold_numeric(args: &[Value], pick: impl Fn(f64, f64) -> f64) -> Value {
    let mut all_int = true;
    let mut acc: Option<f64> = None;
    for a in args {
        match a {
            Value::Int(_) => {}
            Value::Real(_) => all_int = false,
            Value::Undefined => return Value::Undefined,
            _ => return Value::Error,
        }
        let x = a.as_number().unwrap();
        acc = Some(match acc {
            None => x,
            Some(cur) => pick(cur, x),
        });
    }
    let out = acc.unwrap();
    if all_int {
        Value::Int(out as i64)
    } else {
        Value::Real(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn ev(me: &ClassAd, target: Option<&ClassAd>, src: &str) -> Value {
        eval(me, target, &parse_expr(src).unwrap())
    }

    fn machine() -> ClassAd {
        ClassAd::new()
            .with_int("Memory", 128)
            .with_str("OpSys", "LINUX")
            .with_str("Arch", "INTEL")
            .with_bool("HasJava", true)
            .with_expr("Tier", "Memory / 64")
    }

    fn job() -> ClassAd {
        ClassAd::new()
            .with_int("ImageSize", 64)
            .with_str("Owner", "thain")
            .with_str("Universe", "java")
    }

    #[test]
    fn bare_attr_falls_through_to_target() {
        let m = machine();
        let j = job();
        // Owner is only in the job ad; evaluated from the machine's frame a
        // bare reference still finds it.
        assert_eq!(ev(&m, Some(&j), "Owner"), Value::str("thain"));
        // Memory is in the machine (self) ad.
        assert_eq!(ev(&m, Some(&j), "Memory"), Value::Int(128));
        assert_eq!(ev(&m, Some(&j), "NoSuch"), Value::Undefined);
    }

    #[test]
    fn my_and_target_are_strict() {
        let m = machine();
        let j = job();
        assert_eq!(ev(&m, Some(&j), "MY.Memory"), Value::Int(128));
        assert_eq!(ev(&m, Some(&j), "MY.Owner"), Value::Undefined);
        assert_eq!(ev(&m, Some(&j), "TARGET.Owner"), Value::str("thain"));
        assert_eq!(ev(&m, Some(&j), "TARGET.Memory"), Value::Undefined);
    }

    #[test]
    fn requirements_style_expression() {
        let m = machine();
        let j = job();
        assert_eq!(
            ev(&m, Some(&j), "TARGET.ImageSize <= MY.Memory && MY.HasJava"),
            Value::TRUE
        );
        assert_eq!(
            ev(
                &j,
                Some(&m),
                "TARGET.Memory >= MY.ImageSize && TARGET.OpSys == \"linux\""
            ),
            Value::TRUE
        );
    }

    #[test]
    fn undefined_attribute_in_comparison_is_undefined_not_error() {
        let m = machine();
        let j = job();
        // The machine has no "Kflops" attribute: the comparison is
        // Undefined, and Requirements does NOT match — but an || clause can
        // still rescue it.
        assert_eq!(ev(&j, Some(&m), "TARGET.Kflops > 1000"), Value::Undefined);
        assert!(!ev(&j, Some(&m), "TARGET.Kflops > 1000").is_true());
        assert_eq!(
            ev(&j, Some(&m), "TARGET.Kflops > 1000 || true"),
            Value::TRUE
        );
    }

    #[test]
    fn meta_eq_resolves_undefined() {
        let m = machine();
        let j = job();
        assert_eq!(ev(&j, Some(&m), "TARGET.HasJava =?= true"), Value::TRUE);
        assert_eq!(ev(&j, Some(&m), "TARGET.HasPvm =?= undefined"), Value::TRUE);
        assert_eq!(
            ev(&j, Some(&m), "TARGET.HasPvm =!= undefined"),
            Value::FALSE
        );
    }

    #[test]
    fn attr_chasing_into_sibling_expression() {
        let m = machine();
        assert_eq!(ev(&m, None, "Tier"), Value::Int(2));
        assert_eq!(ev(&m, None, "Tier * 10"), Value::Int(20));
    }

    #[test]
    fn target_frame_flips_my() {
        // In real ClassAds, evaluating TARGET.X evaluates X *in the target
        // ad's frame*: its bare/MY references resolve against the target.
        let m = ClassAd::new().with_int("Base", 1);
        let j = ClassAd::new()
            .with_int("Base", 100)
            .with_expr("Derived", "MY.Base + 1");
        assert_eq!(ev(&m, Some(&j), "TARGET.Derived"), Value::Int(101));
    }

    #[test]
    fn cycles_are_error() {
        let ad = ClassAd::new()
            .with_expr("a", "b + 1")
            .with_expr("b", "a + 1");
        assert_eq!(ad.value_of("a"), Value::Error);
        let selfref = ClassAd::new().with_expr("x", "x");
        assert_eq!(selfref.value_of("x"), Value::Error);
    }

    #[test]
    fn cycles_are_error_whatever_case_names_them() {
        // `Alpha` reached as `ALPHA` is the attribute being resolved, not
        // a new one: a cycle however its references spell the names.
        let ad = ClassAd::new()
            .with_expr("Alpha", "BETA + 1")
            .with_expr("beta", "ALPHA + 1");
        assert_eq!(ad.value_of("alpha"), Value::Error);
        assert_eq!(ad.value_of("BeTa"), Value::Error);
        let selfref = ClassAd::new().with_expr("Loop", "MY.lOOP");
        assert_eq!(selfref.value_of("LOOP"), Value::Error);
        // A chain of distinct names that only differ from each other in
        // case is still one attribute each: no false cycle.
        let chain = ClassAd::new()
            .with_expr("Top", "MIDDLE * 2")
            .with_expr("middle", "bottom + 1")
            .with_int("BOTTOM", 20);
        assert_eq!(chain.value_of("top"), Value::Int(42));
    }

    #[test]
    fn cross_ad_cycles_are_error() {
        let m = ClassAd::new().with_expr("p", "TARGET.q");
        let j = ClassAd::new().with_expr("q", "TARGET.p");
        assert_eq!(ev(&m, Some(&j), "p"), Value::Error);
    }

    #[test]
    fn builtins() {
        let ad = ClassAd::new().with_int("x", 5);
        assert_eq!(ad.value_of("x"), Value::Int(5));
        let e = |s: &str| ev(&ad, None, s);
        assert_eq!(e("isUndefined(nope)"), Value::TRUE);
        assert_eq!(e("isUndefined(x)"), Value::FALSE);
        assert_eq!(e("isError(1/0)"), Value::TRUE);
        assert_eq!(e("isInteger(x)"), Value::TRUE);
        assert_eq!(e("isString(\"s\")"), Value::TRUE);
        assert_eq!(e("isBoolean(true)"), Value::TRUE);
        assert_eq!(e("int(3.9)"), Value::Int(3));
        assert_eq!(e("int(\"17\")"), Value::Int(17));
        assert_eq!(e("real(3)"), Value::Real(3.0));
        assert_eq!(e("floor(2.7)"), Value::Int(2));
        assert_eq!(e("ceiling(2.1)"), Value::Int(3));
        assert_eq!(e("min(3, 1, 2)"), Value::Int(1));
        assert_eq!(e("max(3, 1.5)"), Value::Real(3.0));
        assert_eq!(e("strcat(\"a\", 1, true)"), Value::str("a1true"));
        assert_eq!(
            e("ifThenElse(x > 3, \"big\", \"small\")"),
            Value::str("big")
        );
        assert_eq!(e("noSuchFn(1)"), Value::Error);
        assert_eq!(e("min(undefined, 1)"), Value::Undefined);
    }

    #[test]
    fn string_builtins() {
        let ad = ClassAd::new().with_str("OpSys", "LINUX");
        let e = |s: &str| ev(&ad, None, s);
        assert_eq!(e("strlen(\"hello\")"), Value::Int(5));
        assert_eq!(e("strlen(OpSys)"), Value::Int(5));
        assert_eq!(e("strlen(nope)"), Value::Undefined);
        assert_eq!(e("strlen(3)"), Value::Error);
        assert_eq!(e("toUpper(\"aBc\")"), Value::str("ABC"));
        assert_eq!(e("toLower(OpSys)"), Value::str("linux"));
        assert_eq!(e("substr(\"abcdef\", 2)"), Value::str("cdef"));
        assert_eq!(e("substr(\"abcdef\", 2, 3)"), Value::str("cde"));
        assert_eq!(e("substr(\"abcdef\", -2)"), Value::str("ef"));
        assert_eq!(e("substr(\"abcdef\", 100)"), Value::str(""));
        assert_eq!(e("substr(3, 1)"), Value::Error);
    }

    #[test]
    fn string_list_member() {
        let ad = ClassAd::new().with_str("AllowedUsers", "ada, bob, carol");
        let e = |s: &str| ev(&ad, None, s);
        assert_eq!(e("stringListMember(\"BOB\", AllowedUsers)"), Value::TRUE);
        assert_eq!(
            e("stringListMember(\"mallory\", AllowedUsers)"),
            Value::FALSE
        );
        assert_eq!(e("stringListMember(\"ada\", nope)"), Value::Undefined);
    }

    #[test]
    fn missing_target_makes_target_refs_undefined() {
        let m = machine();
        assert_eq!(ev(&m, None, "TARGET.Owner"), Value::Undefined);
        assert_eq!(ev(&m, None, "TARGET.Owner == \"x\""), Value::Undefined);
    }
}
