//! Compiled ClassAds: a lowering pass from the expression AST to flat
//! instruction sequences.
//!
//! The tree-walking interpreter in [`crate::eval`] clones every attribute
//! expression it chases and re-resolves names through the `BTreeMap` on
//! every reference — fine for a handful of ads, ruinous for a matchmaker
//! probing tens of thousands of pairs per negotiation cycle. [`compile`]
//! lowers each attribute of an ad once into a postfix [`Program`]:
//!
//! * attribute references that resolve in the *owning* ad (`MY.X`, or a
//!   bare `X` the ad defines) become slot indices into a dense attribute
//!   table, resolved at compile time;
//! * references into the *other* ad of a match pair (`TARGET.X`, or a bare
//!   `X` the owning ad lacks) stay name-based, because the partner is
//!   unknown until match time;
//! * subtrees built entirely from literals are constant-folded using the
//!   interpreter's own operator and builtin implementations, so folding
//!   cannot drift from runtime semantics.
//!
//! Evaluation is required to be **value-identical** to the interpreter on
//! every expression, including `Undefined`/`Error` propagation, frame
//! flips (`TARGET.X` evaluates X in the target's frame), cycle detection,
//! and the depth limit. `tests/compiled_equivalence.rs` enforces this
//! differentially on generated ads.

use crate::ad::ClassAd;
use crate::ast::{AttrScope, BinOp, Expr, UnOp};
use crate::eval::{apply_bin, call_builtin, MAX_DEPTH};
use crate::matchmaking::{MatchResult, RANK, REQUIREMENTS};
use crate::value::Value;

/// One instruction of a compiled expression. Programs are postfix: operand
/// instructions push onto the value stack, operators pop and push.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Push a literal (or constant-folded) value.
    Push(Value),
    /// Pop one value, apply a unary operator, push the result.
    Unary(UnOp),
    /// Pop two values (right on top), apply a binary operator, push.
    Binary(BinOp),
    /// Pop `argc` arguments (first argument deepest), call a builtin, push.
    Call {
        /// Lower-cased builtin name.
        name: String,
        /// Number of stack operands.
        argc: usize,
    },
    /// Push the value of a slot of the program's *owning* ad — a `MY.X` or
    /// bare `X` reference resolved at compile time.
    OwnSlot(u32),
    /// Push the value of a named attribute of the *other* ad of the pair —
    /// a `TARGET.X` reference, or a bare `X` the owning ad does not define.
    /// The name is lower-cased. Pushes `Undefined` when absent.
    OtherAttr(String),
}

/// A compiled expression: a flat postfix instruction sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    code: Vec<Inst>,
}

impl Program {
    /// The instruction sequence (exposed for tests and diagnostics).
    pub fn code(&self) -> &[Inst] {
        &self.code
    }
}

/// Storage for one attribute of a [`CompiledAd`]: either a value known at
/// compile time or a program to run at match time.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Const(Value),
    Code(Program),
}

/// The compiled form of a [`ClassAd`]: a dense, lexically sorted attribute
/// table whose entries are constant values or [`Program`]s. It holds no
/// copy of the source ad — a caller that needs it keeps (or shares) its
/// own.
#[derive(Debug, Clone)]
pub struct CompiledAd {
    /// Lower-cased attribute names, sorted (mirrors the ad's `BTreeMap`
    /// iteration order), parallel to `slots`.
    names: Vec<String>,
    slots: Vec<Slot>,
    requirements: Option<u32>,
    rank: Option<u32>,
}

/// Reusable evaluation scratch space: the value stack and the
/// cycle-detection chain. Callers evaluating many pairs should keep one
/// `Scratch` alive to avoid per-evaluation allocation.
#[derive(Debug, Default)]
pub struct Scratch {
    stack: Vec<Value>,
    // (which ad: false=left/"me", true=right/"target", slot index)
    // currently being resolved — the compiled analogue of the
    // interpreter's `in_progress` name chain.
    chasing: Vec<(bool, u32)>,
}

impl Scratch {
    /// Fresh scratch space.
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

impl CompiledAd {
    /// Compile every attribute of `ad`.
    pub fn compile(ad: &ClassAd) -> CompiledAd {
        let names: Vec<String> = ad
            .iter()
            .map(|(display, _)| display.to_ascii_lowercase())
            .collect();
        let slots: Vec<Slot> = ad
            .iter()
            .map(|(_, expr)| match fold(expr) {
                Some(v) => Slot::Const(v),
                None => {
                    let mut code = Vec::new();
                    emit(expr, &names, &mut code);
                    Slot::Code(Program { code })
                }
            })
            .collect();
        let slot_of = |name: &str| names.binary_search_by(|n| n.as_str().cmp(name)).ok();
        let requirements = slot_of(&REQUIREMENTS.to_ascii_lowercase()).map(|i| i as u32);
        let rank = slot_of(&RANK.to_ascii_lowercase()).map(|i| i as u32);
        CompiledAd {
            names,
            slots,
            requirements,
            rank,
        }
    }

    /// Slot index of a lower-cased attribute name.
    fn slot_of(&self, lc_name: &str) -> Option<u32> {
        self.names
            .binary_search_by(|n| n.as_str().cmp(lc_name))
            .ok()
            .map(|i| i as u32)
    }

    /// The constant-folded value of an attribute, when its whole expression
    /// folded at compile time (exposed for tests and index construction).
    pub fn const_value(&self, name: &str) -> Option<&Value> {
        let slot = self.slot_of(&name.to_ascii_lowercase())?;
        match &self.slots[slot as usize] {
            Slot::Const(v) => Some(v),
            Slot::Code(_) => None,
        }
    }

    /// Evaluate the named attribute against an optional candidate, using
    /// caller-provided scratch space. Equivalent to
    /// [`crate::eval::eval_attr`] on the source ads.
    pub fn eval_attr_with(
        &self,
        target: Option<&CompiledAd>,
        name: &str,
        scratch: &mut Scratch,
    ) -> Value {
        match self.slot_of(&name.to_ascii_lowercase()) {
            Some(slot) => self.eval_slot(slot, target, scratch),
            None => Value::Undefined,
        }
    }

    /// Evaluate the named attribute with fresh scratch space.
    pub fn eval_attr(&self, target: Option<&CompiledAd>, name: &str) -> Value {
        self.eval_attr_with(target, name, &mut Scratch::new())
    }

    // Top-level slot evaluation: like the interpreter's `eval_attr`, the
    // attribute's own expression is *not* pushed onto the cycle chain (only
    // references chased from inside it are).
    fn eval_slot(&self, slot: u32, target: Option<&CompiledAd>, scratch: &mut Scratch) -> Value {
        match &self.slots[slot as usize] {
            Slot::Const(v) => v.clone(),
            Slot::Code(p) => {
                let pair = Pair { me: self, target };
                run(&pair, p, false, scratch)
            }
        }
    }

    /// Does this ad's `Requirements` accept `candidate`? Value-identical to
    /// [`crate::matchmaking::requirements_met`].
    pub fn requirements_met(&self, candidate: &CompiledAd, scratch: &mut Scratch) -> bool {
        match self.requirements {
            Some(slot) => self.eval_slot(slot, Some(candidate), scratch).is_true(),
            None => false,
        }
    }

    /// The rank this ad assigns `candidate`. Value-identical to
    /// [`crate::matchmaking::rank`].
    pub fn rank(&self, candidate: &CompiledAd, scratch: &mut Scratch) -> f64 {
        let v = match self.rank {
            Some(slot) => self.eval_slot(slot, Some(candidate), scratch),
            None => Value::Undefined,
        };
        match v {
            Value::Int(i) => i as f64,
            Value::Real(r) if r.is_finite() => r,
            Value::Bool(true) => 1.0,
            _ => 0.0,
        }
    }
}

/// Symmetric two-way match on compiled ads, value-identical to
/// [`crate::matchmaking::symmetric_match`] on the source ads.
pub fn symmetric_match_compiled(
    left: &CompiledAd,
    right: &CompiledAd,
    scratch: &mut Scratch,
) -> MatchResult {
    let l_accepts = left.requirements_met(right, scratch);
    let r_accepts = right.requirements_met(left, scratch);
    MatchResult {
        matched: l_accepts && r_accepts,
        left_rank: left.rank(right, scratch),
        right_rank: right.rank(left, scratch),
    }
}

/// Constant-fold an expression: `Some(value)` when the whole subtree is
/// built from literals. Uses the interpreter's operator and builtin
/// implementations, so a folded `1/0` yields the same `Error` the
/// interpreter would produce at match time.
fn fold(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Lit(v) => Some(v.clone()),
        Expr::Attr { .. } => None,
        Expr::Unary(op, e) => {
            let v = fold(e)?;
            Some(match op {
                UnOp::Not => v.not(),
                UnOp::Neg => v.neg(),
            })
        }
        Expr::Binary(op, a, b) => {
            let (va, vb) = (fold(a)?, fold(b)?);
            Some(apply_bin(*op, &va, &vb))
        }
        Expr::Call { name, args } => {
            let vals: Vec<Value> = args.iter().map(fold).collect::<Option<_>>()?;
            Some(call_builtin(name, &vals))
        }
    }
}

// Postorder emission. `names` is the owning ad's sorted attribute table.
fn emit(expr: &Expr, names: &[String], code: &mut Vec<Inst>) {
    if let Some(v) = fold(expr) {
        code.push(Inst::Push(v));
        return;
    }
    match expr {
        Expr::Lit(v) => code.push(Inst::Push(v.clone())),
        Expr::Attr { scope, name, .. } => {
            let own = names.binary_search_by(|n| n.as_str().cmp(name)).ok();
            match (scope, own) {
                // MY.X / bare X defined by the owning ad: slot-resolved;
                // like the interpreter, a hit never falls through.
                (AttrScope::My | AttrScope::Either, Some(i)) => {
                    code.push(Inst::OwnSlot(i as u32));
                }
                // MY.X the owning ad lacks is Undefined forever.
                (AttrScope::My, None) => code.push(Inst::Push(Value::Undefined)),
                // TARGET.X, or bare X the owning ad lacks: the other ad.
                (AttrScope::Target, _) | (AttrScope::Either, None) => {
                    code.push(Inst::OtherAttr(name.clone()));
                }
            }
        }
        Expr::Unary(op, e) => {
            emit(e, names, code);
            code.push(Inst::Unary(*op));
        }
        Expr::Binary(op, a, b) => {
            emit(a, names, code);
            emit(b, names, code);
            code.push(Inst::Binary(*op));
        }
        Expr::Call { name, args } => {
            for a in args {
                emit(a, names, code);
            }
            code.push(Inst::Call {
                name: name.clone(),
                argc: args.len(),
            });
        }
    }
}

// The match pair under evaluation. `false` designates `me` in the chasing
// chain, `true` the target — the same convention as the interpreter's
// `Env`.
struct Pair<'a> {
    me: &'a CompiledAd,
    target: Option<&'a CompiledAd>,
}

impl<'a> Pair<'a> {
    fn side(&self, which: bool) -> Option<&'a CompiledAd> {
        if which {
            self.target
        } else {
            Some(self.me)
        }
    }
}

// Execute a program owned by the `owner_is_target` side of the pair.
// Instructions keep the stack balanced: exactly one value remains on top
// of the caller's stack frame.
fn run(pair: &Pair<'_>, prog: &Program, owner_is_target: bool, scratch: &mut Scratch) -> Value {
    for inst in &prog.code {
        match inst {
            Inst::Push(v) => scratch.stack.push(v.clone()),
            Inst::Unary(op) => {
                let v = scratch.stack.pop().expect("unary operand");
                scratch.stack.push(match op {
                    UnOp::Not => v.not(),
                    UnOp::Neg => v.neg(),
                });
            }
            Inst::Binary(op) => {
                let b = scratch.stack.pop().expect("binary rhs");
                let a = scratch.stack.pop().expect("binary lhs");
                scratch.stack.push(apply_bin(*op, &a, &b));
            }
            Inst::Call { name, argc } => {
                let base = scratch.stack.len() - argc;
                let v = call_builtin(name, &scratch.stack[base..]);
                scratch.stack.truncate(base);
                scratch.stack.push(v);
            }
            Inst::OwnSlot(slot) => {
                let v = load(pair, owner_is_target, *slot, scratch);
                scratch.stack.push(v);
            }
            Inst::OtherAttr(name) => {
                let which = !owner_is_target;
                let v = match pair.side(which).and_then(|ad| ad.slot_of(name)) {
                    Some(slot) => load(pair, which, slot, scratch),
                    None => Value::Undefined,
                };
                scratch.stack.push(v);
            }
        }
    }
    scratch.stack.pop().expect("program result")
}

// Chase an attribute reference into `which` side's slot, replicating the
// interpreter's cycle/depth policy exactly: the check applies to every
// *found* attribute — even one whose slot is a folded constant, because
// the interpreter charges resolution depth for literal expressions too.
fn load(pair: &Pair<'_>, which: bool, slot: u32, scratch: &mut Scratch) -> Value {
    let ad = pair.side(which).expect("resolved side exists");
    let key = (which, slot);
    if scratch.chasing.contains(&key) || scratch.chasing.len() >= MAX_DEPTH {
        return Value::Error; // cycle or pathological depth
    }
    match &ad.slots[slot as usize] {
        Slot::Const(v) => v.clone(),
        Slot::Code(p) => {
            scratch.chasing.push(key);
            // Frame flip: the chased expression runs in its own ad's frame.
            let v = run(pair, p, which, scratch);
            scratch.chasing.pop();
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchmaking::symmetric_match;
    use crate::parser::parse_expr;

    fn job() -> ClassAd {
        ClassAd::new()
            .with_str("Owner", "ada")
            .with_int("ImageSize", 48)
            .with_expr(
                "Requirements",
                "TARGET.Memory >= MY.ImageSize && TARGET.HasJava =?= true",
            )
            .with_expr("Rank", "TARGET.Memory")
    }

    fn machine(mem: i64, java: bool) -> ClassAd {
        let mut ad = ClassAd::new()
            .with_int("Memory", mem)
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory");
        if java {
            ad.insert("HasJava", Value::Bool(true));
        }
        ad
    }

    #[test]
    fn compiled_matches_interpreter_on_standard_pair() {
        let j = job();
        let m = machine(128, true);
        let (cj, cm) = (CompiledAd::compile(&j), CompiledAd::compile(&m));
        let mut s = Scratch::new();
        assert_eq!(
            symmetric_match_compiled(&cj, &cm, &mut s),
            symmetric_match(&j, &m)
        );
        let nojava = machine(512, false);
        let cn = CompiledAd::compile(&nojava);
        assert_eq!(
            symmetric_match_compiled(&cj, &cn, &mut s),
            symmetric_match(&j, &nojava)
        );
    }

    #[test]
    fn constant_subtrees_fold() {
        let ad = ClassAd::new().with_expr("x", "1 + 2 * 3");
        let c = CompiledAd::compile(&ad);
        assert_eq!(c.const_value("x"), Some(&Value::Int(7)));
        // Folding preserves runtime error semantics.
        let bad = ClassAd::new().with_expr("boom", "1 / 0");
        let cb = CompiledAd::compile(&bad);
        assert_eq!(cb.const_value("boom"), Some(&Value::Error));
    }

    #[test]
    fn partial_folding_inside_programs() {
        let ad = ClassAd::new()
            .with_int("Memory", 64)
            .with_expr("Padded", "Memory + (2 * 8)");
        let c = CompiledAd::compile(&ad);
        assert!(c.const_value("Padded").is_none());
        assert_eq!(c.eval_attr(None, "Padded"), Value::Int(80));
    }

    #[test]
    fn frame_flip_matches_interpreter() {
        let m = ClassAd::new().with_int("Base", 1);
        let j = ClassAd::new()
            .with_int("Base", 100)
            .with_expr("Derived", "MY.Base + 1");
        let (cm, cj) = (CompiledAd::compile(&m), CompiledAd::compile(&j));
        let e = parse_expr("TARGET.Derived").unwrap();
        assert_eq!(
            cm.eval_attr(Some(&cj), "nothing"),
            Value::Undefined // sanity: absent attr
        );
        // Route through an attribute so the compiled path is exercised.
        let m2 = ClassAd::new()
            .with_int("Base", 1)
            .with_expr("Probe", "TARGET.Derived");
        let cm2 = CompiledAd::compile(&m2);
        assert_eq!(cm2.eval_attr(Some(&cj), "Probe"), Value::Int(101));
        assert_eq!(crate::eval::eval(&m, Some(&j), &e), Value::Int(101));
    }

    #[test]
    fn cycles_are_error_in_compiled_path() {
        let ad = ClassAd::new()
            .with_expr("a", "b + 1")
            .with_expr("b", "a + 1");
        let c = CompiledAd::compile(&ad);
        assert_eq!(c.eval_attr(None, "a"), Value::Error);
        let selfref = ClassAd::new().with_expr("x", "x");
        let cs = CompiledAd::compile(&selfref);
        assert_eq!(cs.eval_attr(None, "x"), Value::Error);
        // Cross-ad cycle.
        let m = ClassAd::new().with_expr("p", "TARGET.q");
        let j = ClassAd::new().with_expr("q", "TARGET.p");
        let (cm, cj) = (CompiledAd::compile(&m), CompiledAd::compile(&j));
        assert_eq!(cm.eval_attr(Some(&cj), "p"), Value::Error);
    }

    #[test]
    fn missing_requirements_rejects_and_missing_rank_is_zero() {
        let bare = CompiledAd::compile(&ClassAd::new().with_int("Memory", 512));
        let j = CompiledAd::compile(&job());
        let mut s = Scratch::new();
        assert!(!bare.requirements_met(&j, &mut s));
        assert_eq!(bare.rank(&j, &mut s), 0.0);
    }

    #[test]
    fn scratch_reuse_is_clean_across_evaluations() {
        let j = CompiledAd::compile(&job());
        let m = CompiledAd::compile(&machine(128, true));
        let mut s = Scratch::new();
        for _ in 0..3 {
            let r = symmetric_match_compiled(&j, &m, &mut s);
            assert!(r.matched);
            assert_eq!(r.left_rank, 128.0);
            assert!(s.stack.is_empty());
            assert!(s.chasing.is_empty());
        }
    }
}
