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
//!
//! A compiled ad also knows what a match partner can *see* of it:
//! [`CompiledAd::partner_reads`] lists the names its programs ask of the
//! other side ([`CompiledAd::reads_back`]: those of them a partner's own
//! question can lead to), and [`CompiledAd::match_key`] marks the slots an
//! evaluation can reach. Two ads with equal [`MatchKey`]s are
//! indistinguishable to every partner asking at most those names; two
//! with equal [`CompiledAd::rank_key`]s rank every such partner alike.

use crate::ad::ClassAd;
use crate::ast::{AttrScope, BinOp, Expr, UnOp};
use crate::eval::{apply_bin, call_builtin, MAX_DEPTH};
use crate::matchmaking::{MatchResult, RANK, REQUIREMENTS};
use crate::value::Value;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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
        // Sized by the upper bound: a chained ad's iterator cannot say how
        // many of its parent's names it shadows.
        let attributes = ad.keyed().size_hint().1.unwrap_or(0);
        let mut names: Vec<String> = Vec::with_capacity(attributes);
        names.extend(ad.keyed().map(|(key, _)| key.to_owned()));
        let mut slots: Vec<Slot> = Vec::with_capacity(names.len());
        slots.extend(ad.keyed().map(|(_, expr)| match fold(expr) {
            Some(v) => Slot::Const(v),
            None => {
                let mut code = Vec::new();
                emit(expr, &names, &mut code);
                Slot::Code(Program { code })
            }
        }));
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

    /// The (lower-cased) names this ad's programs read of a match partner:
    /// every [`Inst::OtherAttr`] of every slot, reachable or not.
    pub fn partner_reads(&self) -> impl Iterator<Item = &str> {
        let programs = self.slots.iter().filter_map(|s| match s {
            Slot::Code(p) => Some(&p.code),
            Slot::Const(_) => None,
        });
        programs.flatten().filter_map(|inst| match inst {
            Inst::OtherAttr(name) => Some(name.as_str()),
            _ => None,
        })
    }

    /// The names the attributes a partner enters this ad at — the `asked`
    /// ones, not its own `Requirements` and `Rank` — read of that partner
    /// in turn: what an evaluation that started in the partner can come
    /// back for.
    pub fn reads_back<'a>(&'a self, asked: &'a BTreeSet<String>) -> impl Iterator<Item = &'a str> {
        // A constant leads nowhere: most ads are entered at nothing else.
        let programs = |&slot: &u32| matches!(self.slots[slot as usize], Slot::Code(_));
        let reached = self.reach(self.slots_named(asked).filter(programs));
        let programs = reached
            .into_iter()
            .filter_map(|slot| match &self.slots[slot as usize] {
                Slot::Code(p) => Some(&p.code),
                Slot::Const(_) => None,
            });
        programs.flatten().filter_map(|inst| match inst {
            Inst::OtherAttr(name) => Some(name.as_str()),
            _ => None,
        })
    }

    fn slots_named<'a>(&'a self, names: &'a BTreeSet<String>) -> impl Iterator<Item = u32> + 'a {
        names.iter().filter_map(|name| self.slot_of(name))
    }

    // The slots an evaluation entering this ad at `roots` can read, in
    // the order it can first read them: from a slot it only follows
    // [`Inst::OwnSlot`] references (an `OtherAttr` leaves for the partner
    // again), so the roots closed under `OwnSlot`.
    fn reach(&self, roots: impl Iterator<Item = u32>) -> Vec<u32> {
        let mut roots = roots.peekable();
        if roots.peek().is_none() {
            return Vec::new();
        }
        let mut seen = vec![false; self.slots.len()];
        let mut reached: Vec<u32> = Vec::new();
        let mut enter = |slot: u32, reached: &mut Vec<u32>| {
            if !std::mem::replace(&mut seen[slot as usize], true) {
                reached.push(slot);
            }
        };
        roots.for_each(|root| enter(root, &mut reached));
        let mut next = 0;
        while let Some(&slot) = reached.get(next) {
            if let Slot::Code(p) = &self.slots[slot as usize] {
                for inst in &p.code {
                    if let Inst::OwnSlot(own) = inst {
                        enter(*own, &mut reached);
                    }
                }
            }
            next += 1;
        }
        reached
    }

    /// This ad as a match partner asking at most the names in `asked`
    /// (lower-cased) can read it. A [`symmetric_match_compiled`] enters an
    /// ad at `Requirements` and `Rank`, and the partner's programs enter it
    /// at the names they ask for: the slots those reach are the ones that
    /// count. An asked name the ad lacks needs no marker: it is missing
    /// from the key exactly when it is missing from the ad.
    pub fn match_key(self: &Arc<Self>, asked: &BTreeSet<String>) -> MatchKey {
        let own = self.requirements.into_iter().chain(self.rank);
        self.key(own.chain(self.slots_named(asked)))
    }

    /// This ad as [`CompiledAd::rank`] reads it: entered at `Rank`, and by
    /// the partner at most at the names in `asked`. Ads with equal rank
    /// keys give every such partner the same rank.
    pub fn rank_key(self: &Arc<Self>, asked: &BTreeSet<String>) -> MatchKey {
        self.key(self.rank.into_iter().chain(self.slots_named(asked)))
    }

    fn key(self: &Arc<Self>, roots: impl Iterator<Item = u32>) -> MatchKey {
        let mut kept = self.reach(roots);
        // Ascending slot order is name order.
        kept.sort_unstable();
        let mut key = MatchKey {
            ad: Arc::clone(self),
            kept,
            digest: 0,
        };
        key.digest = key.fnv1a();
        key
    }
}

/// A [`CompiledAd`] with the slots an evaluation can read of it, as
/// [`CompiledAd::match_key`] or [`CompiledAd::rank_key`] finds them —
/// comparable and hashable over those slots alone and *by value*: names,
/// constants and instructions one by one (own-slot references by their
/// rank among the kept slots), floats by bit pattern (so `0.0` and `-0.0`,
/// which divide differently, never share a key, and a NaN equals itself).
/// Against a partner asking at most the names the keys were cut under,
/// matching (or ranking by) the [`MatchKey::ad`] of one key is
/// value-identical to doing so with the ad of any equal key: the
/// evaluation never leaves the slots compared. (The ad still *holds* the
/// others: a partner asking more needs keys cut again.)
#[derive(Debug, Clone)]
pub struct MatchKey {
    ad: Arc<CompiledAd>,
    kept: Vec<u32>,
    // Of the words the key compares equal by.
    digest: u64,
}

impl MatchKey {
    /// The ad the key was cut from, ready to evaluate.
    pub fn ad(&self) -> &CompiledAd {
        &self.ad
    }

    // FNV-1a over the words, taken once when the key is cut: a key is
    // hashed when it is looked up, and again whenever the table holding it
    // grows.
    fn fnv1a(&self) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut mix = |x: u64| digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
        for (tag, number, text) in self.words() {
            mix(u64::from(tag));
            mix(number);
            text.bytes().for_each(|b| mix(u64::from(b)));
        }
        digest
    }

    // The key as a sequence of comparable words: per kept slot its name
    // and program length, then its constant or its instructions.
    fn words(&self) -> impl Iterator<Item = (u8, u64, &str)> {
        fn value(v: &Value) -> (u8, u64, &str) {
            match v {
                Value::Undefined => (0, 0, ""),
                Value::Error => (1, 0, ""),
                Value::Bool(b) => (2, u64::from(*b), ""),
                Value::Int(i) => (3, *i as u64, ""),
                Value::Real(r) => (4, r.to_bits(), ""),
                Value::Str(s) => (5, 0, s),
            }
        }
        fn inst<'a>(i: &'a Inst, kept: &[u32]) -> (u8, u64, &'a str) {
            match i {
                Inst::Push(v) => value(v),
                Inst::Unary(op) => (6, *op as u64, ""),
                Inst::Binary(op) => (7, *op as u64, ""),
                Inst::Call { name, argc } => (8, *argc as u64, name),
                Inst::OwnSlot(slot) => {
                    let rank = kept.binary_search(slot).expect("closed under OwnSlot");
                    (9, rank as u64, "")
                }
                Inst::OtherAttr(name) => (10, 0, name),
            }
        }
        self.kept.iter().flat_map(move |&s| {
            let (name, slot) = (&self.ad.names[s as usize], &self.ad.slots[s as usize]);
            let (constant, code) = match slot {
                Slot::Const(v) => (Some(v), &[][..]),
                Slot::Code(p) => (None, &p.code[..]),
            };
            std::iter::once((11, code.len() as u64, name.as_str()))
                .chain(constant.map(value))
                .chain(code.iter().map(|i| inst(i, &self.kept)))
        })
    }
}

impl PartialEq for MatchKey {
    fn eq(&self, other: &MatchKey) -> bool {
        self.digest == other.digest && self.words().eq(other.words())
    }
}

impl Eq for MatchKey {}

impl Hash for MatchKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
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

    #[test]
    fn partner_reads_lists_every_other_attr() {
        let m = machine(128, true).with_expr("Spare", "Memory - TARGET.DiskUsage");
        let c = CompiledAd::compile(&m);
        let asked: BTreeSet<&str> = c.partner_reads().collect();
        assert_eq!(asked, BTreeSet::from(["diskusage", "imagesize"]));
        // A bare name the ad lacks is the partner's; one it defines is not.
        let bare = CompiledAd::compile(&ClassAd::new().with_expr("x", "y + z").with_int("z", 1));
        assert_eq!(bare.partner_reads().collect::<Vec<_>>(), ["y"]);
    }

    fn asked(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn match_key_keeps_what_a_partner_can_reach_and_nothing_else() {
        let base = job()
            .with_int("ClusterId", 1)
            .with_expr("Requirements", "TARGET.Memory >= MY.Need")
            .with_expr("Need", "MY.Base * 2")
            .with_int("Base", 24);
        let key = |ad: &ClassAd, names: &[&str]| {
            Arc::new(CompiledAd::compile(ad)).match_key(&asked(names))
        };

        // Unread attributes do not tell two ads apart...
        let other_owner = base
            .clone()
            .with_str("Owner", "bob")
            .with_int("ClusterId", 2);
        assert_eq!(
            key(&base, &["imagesize"]),
            key(&other_owner, &["imagesize"])
        );
        // ...an asked one does, present against present or against absent...
        assert_ne!(
            key(&base, &["clusterid"]),
            key(&other_owner, &["clusterid"])
        );
        let mut anonymous = base.clone();
        anonymous.remove("ClusterId");
        assert_eq!(key(&base, &[]), key(&anonymous, &[]));
        assert_ne!(key(&base, &["clusterid"]), key(&anonymous, &["clusterid"]));
        // ...and so does one reached only through the ad's own references.
        let hungrier = base.clone().with_int("Base", 48);
        assert_ne!(key(&base, &[]), key(&hungrier, &[]));
        // `ImageSize` is no longer read by this ad's own Requirements.
        let bigger = base.clone().with_int("ImageSize", 96);
        assert_eq!(key(&base, &[]), key(&bigger, &[]));
        assert_ne!(key(&base, &["imagesize"]), key(&bigger, &["imagesize"]));

        // The key compares fewer slots than the ad has, and its ad matches
        // identically.
        let k = key(&base, &["imagesize"]);
        let kept = k
            .kept
            .iter()
            .map(|&slot| k.ad.names[slot as usize].as_str());
        assert!(kept.eq(["base", "imagesize", "need", "rank", "requirements"]));
        let mut s = Scratch::new();
        for m in [machine(128, true), machine(32, true), machine(64, false)] {
            let cm = CompiledAd::compile(&m);
            assert_eq!(
                symmetric_match_compiled(k.ad(), &cm, &mut s),
                symmetric_match(&base, &m)
            );
        }
    }

    #[test]
    fn rank_key_keeps_what_a_rank_can_reach_and_nothing_else() {
        let base = job()
            .with_expr("Rank", "TARGET.Memory * MY.Weight")
            .with_int("Weight", 2);
        let key = |ad: &ClassAd, names: &[&str]| {
            Arc::new(CompiledAd::compile(ad)).rank_key(&asked(names))
        };
        // What only `Requirements` reads does not tell two rankings apart...
        let other = base
            .clone()
            .with_int("ImageSize", 96)
            .with_expr("Requirements", "TARGET.HasJava =?= true");
        assert_eq!(key(&base, &[]), key(&other, &[]));
        // ...unless the partner can come back for it...
        assert_ne!(key(&base, &["imagesize"]), key(&other, &["imagesize"]));
        // ...and what `Rank` reaches through the ad's own references does.
        assert_ne!(
            key(&base, &[]),
            key(&base.clone().with_int("Weight", 3), &[])
        );
        let k = key(&base, &[]);
        let kept = k
            .kept
            .iter()
            .map(|&slot| k.ad.names[slot as usize].as_str());
        assert!(kept.eq(["rank", "weight"]));
        let m = machine(128, true);
        let ranked = k.ad().rank(&CompiledAd::compile(&m), &mut Scratch::new());
        assert_eq!(ranked, symmetric_match(&base, &m).left_rank);
    }

    #[test]
    fn reads_back_follows_what_the_partner_enters_and_nothing_else() {
        let m = machine(128, true)
            .with_expr("Fit", "TARGET.Sign * MY.Scaled")
            .with_expr("Scaled", "MY.Memory + TARGET.Bias");
        let c = CompiledAd::compile(&m);
        let back = |names: &[&str]| -> BTreeSet<String> {
            let asked = asked(names);
            c.reads_back(&asked).map(str::to_owned).collect()
        };
        // A constant leads nowhere, nor does a name the ad lacks; the
        // policy is read back only if the partner asks for *it*.
        assert_eq!(back(&["memory", "hasjava", "nothing"]), asked(&[]));
        assert_eq!(back(&["requirements"]), asked(&["imagesize"]));
        // An attribute is followed through the ad's own references.
        assert_eq!(back(&["fit", "memory"]), asked(&["bias", "sign"]));
        assert_eq!(back(&["scaled"]), asked(&["bias"]));
    }

    #[test]
    fn match_key_compares_floats_by_bit_pattern() {
        let with = |r: f64| {
            let ad = job()
                .with_real("Scale", r)
                .with_expr("Rank", "1.0 / MY.Scale");
            Arc::new(CompiledAd::compile(&ad)).match_key(&BTreeSet::new())
        };
        // 0.0 == -0.0 as values, but they rank a machine +inf and -inf.
        assert_ne!(with(0.0), with(-0.0));
        // NaN != NaN as values, but the same ad must find its own shape.
        assert_eq!(with(f64::NAN), with(f64::NAN));
        assert_eq!(with(1.5), with(1.5));
        use std::collections::hash_map::DefaultHasher;
        let hash = |k: &MatchKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&with(f64::NAN)), hash(&with(f64::NAN)));
    }
}
