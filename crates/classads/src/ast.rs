//! The ClassAd expression tree.

use crate::value::Value;
use std::fmt;

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `=?=` — is-identical meta-operator (never yields undefined)
    MetaEq,
    /// `=!=` — is-not-identical meta-operator
    MetaNe,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
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

impl BinOp {
    /// Source form.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::MetaEq => "=?=",
            BinOp::MetaNe => "=!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// Binding strength, higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::MetaEq | BinOp::MetaNe => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `!`
    Not,
    /// unary `-`
    Neg,
}

/// Which ad an attribute reference resolves against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrScope {
    /// Bare `Attr`: the evaluating ad first, then the candidate ad.
    Either,
    /// `MY.Attr`: only the evaluating ad.
    My,
    /// `TARGET.Attr`: only the candidate ad.
    Target,
}

/// A ClassAd expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// An attribute reference. Names are stored lower-cased (ClassAd names
    /// are case-insensitive); the `display` field preserves the source
    /// spelling for printing.
    Attr {
        /// Resolution scope.
        scope: AttrScope,
        /// Lower-cased name used for lookup.
        name: String,
        /// Original spelling.
        display: String,
    },
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A call to a builtin function (e.g. `isUndefined(x)`).
    Call {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// A literal integer.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Value::Int(i))
    }

    /// A literal real.
    pub fn real(r: f64) -> Expr {
        Expr::Lit(Value::Real(r))
    }

    /// A literal string.
    pub fn string(s: impl Into<String>) -> Expr {
        Expr::Lit(Value::Str(s.into()))
    }

    /// A literal boolean.
    pub fn boolean(b: bool) -> Expr {
        Expr::Lit(Value::Bool(b))
    }

    /// A bare attribute reference.
    pub fn attr(name: &str) -> Expr {
        Expr::Attr {
            scope: AttrScope::Either,
            name: name.to_ascii_lowercase(),
            display: name.to_string(),
        }
    }

    /// A `MY.`-scoped attribute reference.
    pub fn my(name: &str) -> Expr {
        Expr::Attr {
            scope: AttrScope::My,
            name: name.to_ascii_lowercase(),
            display: name.to_string(),
        }
    }

    /// A `TARGET.`-scoped attribute reference.
    pub fn target(name: &str) -> Expr {
        Expr::Attr {
            scope: AttrScope::Target,
            name: name.to_ascii_lowercase(),
            display: name.to_string(),
        }
    }

    /// Apply a binary operator.
    pub fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// `self && rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }

    /// `self || rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }

    /// `self == rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }

    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }

    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }

    /// Call `f` with the scope and lower-cased name of every attribute
    /// reference in the expression.
    pub fn for_each_reference(&self, f: &mut impl FnMut(AttrScope, &str)) {
        match self {
            Expr::Lit(_) => {}
            Expr::Attr { scope, name, .. } => f(*scope, name),
            Expr::Unary(_, e) => e.for_each_reference(f),
            Expr::Binary(_, a, b) => {
                a.for_each_reference(f);
                b.for_each_reference(f);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| a.for_each_reference(f)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Attr { scope, display, .. } => match scope {
                AttrScope::Either => write!(f, "{display}"),
                AttrScope::My => write!(f, "MY.{display}"),
                AttrScope::Target => write!(f, "TARGET.{display}"),
            },
            Expr::Unary(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = Expr::attr("Memory")
            .ge(Expr::int(64))
            .and(Expr::attr("Arch").eq(Expr::string("INTEL")));
        let s = e.to_string();
        assert_eq!(s, "((Memory >= 64) && (Arch == \"INTEL\"))");
    }

    #[test]
    fn attr_names_are_lowercased_for_lookup() {
        if let Expr::Attr { name, display, .. } = Expr::attr("HasJava") {
            assert_eq!(name, "hasjava");
            assert_eq!(display, "HasJava");
        } else {
            panic!("not an attr");
        }
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn references_are_listed_with_their_scope() {
        let e = crate::parser::parse_expr("min(MY.A, b) > -TARGET.C && b").unwrap();
        let mut seen = Vec::new();
        e.for_each_reference(&mut |scope, name| seen.push((scope, name.to_owned())));
        let expected = [
            (AttrScope::My, "a"),
            (AttrScope::Either, "b"),
            (AttrScope::Target, "c"),
            (AttrScope::Either, "b"),
        ];
        assert!(seen.iter().map(|(s, n)| (*s, n.as_str())).eq(expected));
    }

    #[test]
    fn scoped_display() {
        assert_eq!(Expr::my("Rank").to_string(), "MY.Rank");
        assert_eq!(Expr::target("Memory").to_string(), "TARGET.Memory");
    }
}
