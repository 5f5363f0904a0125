//! The three ways an error may be communicated (§3.1 of the paper).
//!
//! * An **implicit** error is a result presented as valid but otherwise
//!   determined to be false (√3 evaluating to 2).
//! * An **explicit** error is a result that describes an inability to carry
//!   out the requested action (`malloc` returning null).
//! * An **escaping** error is a result accompanied by a change in control
//!   flow, delivered not to the immediate caller but to a higher level of
//!   software. It is necessary when a routine can neither perform its action
//!   nor represent the failure in the range of its results.

use std::fmt;

/// How an error is communicated across an interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comm {
    /// A result presented as valid that is in fact false. Implicit errors
    /// are expensive to detect — typically requiring duplication of all or
    /// part of a computation — and the paper's Principle 1 forbids ever
    /// *creating* one deliberately.
    Implicit,
    /// A result that declares an inability to carry out the requested
    /// action, within the contract of the interface ("these explicit errors
    /// are ordinary results in the sense that they conform to the function's
    /// interface").
    Explicit,
    /// A result accompanied by a change in control flow, bypassing the
    /// immediate caller. On a network connection an escaping error is
    /// communicated by breaking the connection; within a running program, by
    /// stopping the program with a unique exit code. It is "a disciplined
    /// exit resulting in an explicit error at a higher level of abstraction"
    /// (Principle 2).
    Escaping,
}

impl Comm {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Comm::Implicit => "implicit",
            Comm::Explicit => "explicit",
            Comm::Escaping => "escaping",
        }
    }

    /// Whether a receiver can recognise this communication as an error
    /// without extra work. Implicit errors are, by definition, not
    /// detectable from the result alone.
    pub fn is_detectable(self) -> bool {
        !matches!(self, Comm::Implicit)
    }
}

impl fmt::Display for Comm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_is_undetectable() {
        assert!(!Comm::Implicit.is_detectable());
        assert!(Comm::Explicit.is_detectable());
        assert!(Comm::Escaping.is_detectable());
    }

    #[test]
    fn names() {
        assert_eq!(Comm::Implicit.name(), "implicit");
        assert_eq!(Comm::Explicit.name(), "explicit");
        assert_eq!(Comm::Escaping.name(), "escaping");
    }
}
