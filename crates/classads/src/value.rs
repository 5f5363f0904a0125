//! ClassAd values and the tri-state logic.
//!
//! ClassAd expressions evaluate to values that include two non-values:
//! `UNDEFINED` (an attribute reference could not be resolved) and `ERROR`
//! (the expression is ill-formed, e.g. `"abc" * 3`). These propagate
//! through operators under well-defined rules, which is what lets two
//! *autonomous* parties advertise ads with attributes the other has never
//! heard of — the language-level mirror of the paper's point about errors
//! crossing autonomous components.
//!
//! Logic follows the classic ClassAd definition:
//! * `&&`: `False` dominates, then `Error`, then `Undefined`, else `True`.
//! * `||`: `True` dominates, then `Error`, then `Undefined`, else `False`.
//! * Ordinary comparisons on `Undefined` yield `Undefined`; on mismatched
//!   types yield `Error`.
//! * The meta-operators `=?=` ("is identical to") and `=!=` never yield
//!   `Undefined`: they compare type-and-value, treating `Undefined` as a
//!   first-class comparand.
//! * String equality is case-insensitive, as in classic ClassAds.

use std::fmt;

/// A ClassAd value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unresolvable attribute reference.
    Undefined,
    /// An ill-formed computation.
    Error,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A double-precision real.
    Real(f64),
    /// A string.
    Str(String),
}

impl Value {
    /// The canonical TRUE.
    pub const TRUE: Value = Value::Bool(true);
    /// The canonical FALSE.
    pub const FALSE: Value = Value::Bool(false);

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Is this exactly `Bool(true)`? Matchmaking requires `Requirements`
    /// to evaluate to exactly TRUE; `Undefined` does *not* match.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Is this `Undefined`?
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// Is this `Error`?
    pub fn is_error(&self) -> bool {
        matches!(self, Value::Error)
    }

    /// Numeric view: integers and reals as `f64`; everything else `None`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Logical AND under ClassAd semantics.
    pub fn and(&self, other: &Value) -> Value {
        use Value::*;
        let a = self.as_logical();
        let b = other.as_logical();
        match (a, b) {
            (Logical::False, _) | (_, Logical::False) => Bool(false),
            (Logical::Err, _) | (_, Logical::Err) => Error,
            (Logical::Undef, _) | (_, Logical::Undef) => Undefined,
            (Logical::True, Logical::True) => Bool(true),
        }
    }

    /// Logical OR under ClassAd semantics.
    pub fn or(&self, other: &Value) -> Value {
        use Value::*;
        let a = self.as_logical();
        let b = other.as_logical();
        match (a, b) {
            (Logical::True, _) | (_, Logical::True) => Bool(true),
            (Logical::Err, _) | (_, Logical::Err) => Error,
            (Logical::Undef, _) | (_, Logical::Undef) => Undefined,
            (Logical::False, Logical::False) => Bool(false),
        }
    }

    /// Logical NOT: `!Undefined = Undefined`, `!Error = Error`,
    /// non-boolean = Error.
    pub fn not(&self) -> Value {
        match self.as_logical() {
            Logical::True => Value::Bool(false),
            Logical::False => Value::Bool(true),
            Logical::Undef => Value::Undefined,
            Logical::Err => Value::Error,
        }
    }

    fn as_logical(&self) -> Logical {
        match self {
            Value::Bool(true) => Logical::True,
            Value::Bool(false) => Logical::False,
            Value::Undefined => Logical::Undef,
            _ => Logical::Err,
        }
    }

    /// The meta-operator `=?=`: TRUE iff same type and same value
    /// (`Undefined =?= Undefined` is TRUE; `1 =?= 1.0` is FALSE). Never
    /// yields `Undefined` or `Error`.
    pub fn is_identical(&self, other: &Value) -> Value {
        let same = match (self, other) {
            (Value::Undefined, Value::Undefined) => true,
            (Value::Error, Value::Error) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a.eq_ignore_ascii_case(b),
            _ => false,
        };
        Value::Bool(same)
    }

    /// Ordinary comparison under ClassAd semantics: `Undefined` if either
    /// side is `Undefined`; `Error` on `Error`, type mismatch, or an
    /// unordered pair (NaN); otherwise `Bool(pred(ordering))`. Numbers
    /// compare numerically across Int/Real; strings compare
    /// case-insensitively.
    pub fn compare_with(&self, other: &Value, pred: impl Fn(std::cmp::Ordering) -> bool) -> Value {
        match self.partial_order(other) {
            CmpOut::Undef => Value::Undefined,
            CmpOut::Err | CmpOut::Unordered => Value::Error,
            CmpOut::Ord(o) => Value::Bool(pred(o)),
        }
    }

    fn partial_order(&self, other: &Value) -> CmpOut {
        match (self, other) {
            (Value::Undefined, _) | (_, Value::Undefined) => CmpOut::Undef,
            (Value::Error, _) | (_, Value::Error) => CmpOut::Err,
            (Value::Bool(a), Value::Bool(b)) => CmpOut::Ord(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => {
                // The order of the lower-cased copies, taken a byte at a
                // time without making them.
                let (a, b) = (a.bytes(), b.bytes());
                let lower = |c: u8| c.to_ascii_lowercase();
                CmpOut::Ord(a.map(lower).cmp(b.map(lower)))
            }
            (x, y) => match (x.as_number(), y.as_number()) {
                (Some(a), Some(b)) => a
                    .partial_cmp(&b)
                    .map(CmpOut::Ord)
                    .unwrap_or(CmpOut::Unordered),
                _ => CmpOut::Err,
            },
        }
    }

    /// Arithmetic. Int op Int stays Int (except `/` by a non-divisor which
    /// is still Int division, truncating, as in C); any Real operand
    /// promotes to Real; division/modulo by zero is `Error`; `Undefined`
    /// propagates; non-numbers are `Error` (with `+` additionally
    /// concatenating strings).
    pub fn arith(&self, op: ArithOp, other: &Value) -> Value {
        use Value::*;
        // String concatenation for `+`.
        if op == ArithOp::Add {
            if let (Str(a), Str(b)) = (self, other) {
                return Str(format!("{a}{b}"));
            }
        }
        match (self, other) {
            (Undefined, Error) | (Error, Undefined) => Error,
            (Undefined, _) | (_, Undefined) => Undefined,
            (Error, _) | (_, Error) => Error,
            (Int(a), Int(b)) => match op {
                ArithOp::Add => Int(a.wrapping_add(*b)),
                ArithOp::Sub => Int(a.wrapping_sub(*b)),
                ArithOp::Mul => Int(a.wrapping_mul(*b)),
                ArithOp::Div => {
                    if *b == 0 {
                        Error
                    } else {
                        Int(a.wrapping_div(*b))
                    }
                }
                ArithOp::Mod => {
                    if *b == 0 {
                        Error
                    } else {
                        Int(a.wrapping_rem(*b))
                    }
                }
            },
            (x, y) => match (x.as_number(), y.as_number()) {
                (Some(a), Some(b)) => match op {
                    ArithOp::Add => Real(a + b),
                    ArithOp::Sub => Real(a - b),
                    ArithOp::Mul => Real(a * b),
                    ArithOp::Div => {
                        if b == 0.0 {
                            Error
                        } else {
                            Real(a / b)
                        }
                    }
                    ArithOp::Mod => {
                        if b == 0.0 {
                            Error
                        } else {
                            Real(a % b)
                        }
                    }
                },
                _ => Error,
            },
        }
    }

    /// Unary minus.
    pub fn neg(&self) -> Value {
        match self {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Real(r) => Value::Real(-r),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        }
    }
}

enum Logical {
    True,
    False,
    Undef,
    Err,
}

enum CmpOut {
    Ord(std::cmp::Ordering),
    Undef,
    Err,
    Unordered,
}

/// Arithmetic operator selector for [`Value::arith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+` (also string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => f.write_str("undefined"),
            Value::Error => f.write_str("error"),
            Value::Bool(true) => f.write_str("true"),
            Value::Bool(false) => f.write_str("false"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn and_truth_table() {
        use Value::*;
        let t = Value::TRUE;
        let f = Value::FALSE;
        // False dominates even Error — a machine whose ad has a broken
        // attribute can still be ruled out by another clause.
        assert_eq!(f.and(&Error), Bool(false));
        assert_eq!(Error.and(&f), Bool(false));
        assert_eq!(f.and(&Undefined), Bool(false));
        assert_eq!(t.and(&Error), Error);
        assert_eq!(t.and(&Undefined), Undefined);
        assert_eq!(Undefined.and(&Undefined), Undefined);
        assert_eq!(t.and(&t), Bool(true));
        // Non-boolean operands are Error.
        assert_eq!(t.and(&Int(3)), Error);
    }

    #[test]
    fn or_truth_table() {
        use Value::*;
        let t = Value::TRUE;
        let f = Value::FALSE;
        assert_eq!(t.or(&Error), Bool(true));
        assert_eq!(Undefined.or(&t), Bool(true));
        assert_eq!(f.or(&Error), Error);
        assert_eq!(f.or(&Undefined), Undefined);
        assert_eq!(f.or(&f), Bool(false));
    }

    #[test]
    fn not_propagates_nonvalues() {
        assert_eq!(Value::TRUE.not(), Value::FALSE);
        assert_eq!(Value::Undefined.not(), Value::Undefined);
        assert_eq!(Value::Error.not(), Value::Error);
        assert_eq!(Value::Int(1).not(), Value::Error);
    }

    #[test]
    fn identical_meta_operator() {
        use Value::*;
        assert_eq!(Undefined.is_identical(&Undefined), Bool(true));
        assert_eq!(Undefined.is_identical(&Int(1)), Bool(false));
        assert_eq!(Int(1).is_identical(&Int(1)), Bool(true));
        // Type must match: 1 =?= 1.0 is FALSE.
        assert_eq!(Int(1).is_identical(&Real(1.0)), Bool(false));
        assert_eq!(
            Value::str("LINUX").is_identical(&Value::str("linux")),
            Bool(true)
        );
    }

    #[test]
    fn comparisons_numeric_cross_type() {
        use Value::*;
        assert_eq!(
            Int(2).compare_with(&Real(2.0), |o| o == Ordering::Equal),
            Bool(true)
        );
        assert_eq!(
            Int(1).compare_with(&Int(2), |o| o == Ordering::Less),
            Bool(true)
        );
        assert_eq!(
            Undefined.compare_with(&Int(1), |o| o == Ordering::Less),
            Undefined
        );
        assert_eq!(
            Value::str("x").compare_with(&Int(1), |o| o == Ordering::Less),
            Error
        );
        // NaN comparisons are Error (unordered).
        assert_eq!(
            Real(f64::NAN).compare_with(&Real(1.0), |o| o == Ordering::Less),
            Error
        );
    }

    #[test]
    fn string_equality_is_case_insensitive() {
        let a = Value::str("INTEL");
        let b = Value::str("intel");
        assert_eq!(
            a.compare_with(&b, |o| o == Ordering::Equal),
            Value::Bool(true)
        );
    }

    #[test]
    fn arithmetic_int_and_real() {
        use Value::*;
        assert_eq!(Int(2).arith(ArithOp::Add, &Int(3)), Int(5));
        assert_eq!(Int(7).arith(ArithOp::Div, &Int(2)), Int(3));
        assert_eq!(Int(7).arith(ArithOp::Mod, &Int(4)), Int(3));
        assert_eq!(Int(2).arith(ArithOp::Mul, &Real(1.5)), Real(3.0));
        assert_eq!(Real(1.0).arith(ArithOp::Div, &Int(4)), Real(0.25));
    }

    #[test]
    fn division_by_zero_is_error() {
        use Value::*;
        assert_eq!(Int(1).arith(ArithOp::Div, &Int(0)), Error);
        assert_eq!(Int(1).arith(ArithOp::Mod, &Int(0)), Error);
        assert_eq!(Real(1.0).arith(ArithOp::Div, &Real(0.0)), Error);
    }

    #[test]
    fn arithmetic_nonvalue_propagation() {
        use Value::*;
        assert_eq!(Undefined.arith(ArithOp::Add, &Int(1)), Undefined);
        assert_eq!(Error.arith(ArithOp::Add, &Int(1)), Error);
        // Error beats Undefined.
        assert_eq!(Undefined.arith(ArithOp::Add, &Error), Error);
        assert_eq!(Value::str("a").arith(ArithOp::Mul, &Int(2)), Error);
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(
            Value::str("foo").arith(ArithOp::Add, &Value::str("bar")),
            Value::str("foobar")
        );
    }

    #[test]
    fn negation() {
        assert_eq!(Value::Int(5).neg(), Value::Int(-5));
        assert_eq!(Value::Real(2.5).neg(), Value::Real(-2.5));
        assert_eq!(Value::str("x").neg(), Value::Error);
        assert_eq!(Value::Undefined.neg(), Value::Undefined);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Undefined.to_string(), "undefined");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Real(1.5).to_string(), "1.5");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::TRUE.to_string(), "true");
    }

    #[test]
    fn requirements_truth_needs_exact_true() {
        assert!(Value::TRUE.is_true());
        assert!(!Value::Undefined.is_true());
        assert!(!Value::Int(1).is_true());
    }
}
