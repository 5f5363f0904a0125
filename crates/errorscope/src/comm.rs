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

/// The Avizienis/Laprie chain the paper paraphrases in §3.1: a *fault* is a
/// violation of underlying assumptions, an *error* is an internal data state
/// reflecting a fault, and a *failure* is an externally visible deviation
/// from specification. The voting-machine example: the cosmic ray is the
/// fault, corrupted in-use data is the error, an altered victor is the
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependabilityStage {
    /// A violation of a system's underlying assumptions.
    Fault,
    /// An internal data state that reflects a fault.
    Error,
    /// An externally-visible deviation from specifications.
    Failure,
}

impl DependabilityStage {
    /// The next stage a problem may (but need not) progress to: a fault need
    /// not result in an error, nor an error in a failure.
    pub fn next(self) -> Option<DependabilityStage> {
        match self {
            DependabilityStage::Fault => Some(DependabilityStage::Error),
            DependabilityStage::Error => Some(DependabilityStage::Failure),
            DependabilityStage::Failure => None,
        }
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

    #[test]
    fn dependability_chain() {
        assert_eq!(
            DependabilityStage::Fault.next(),
            Some(DependabilityStage::Error)
        );
        assert_eq!(
            DependabilityStage::Error.next(),
            Some(DependabilityStage::Failure)
        );
        assert_eq!(DependabilityStage::Failure.next(), None);
    }
}
