//! Finite error vocabularies — Principle 4.
//!
//! "Error interfaces must be concise and finite." An [`ErrorVocabulary`]
//! declares exactly which explicit error codes one operation may return; an
//! [`InterfaceDecl`] groups the vocabularies of all operations of one
//! interface (the paper's revised `FileWriter`: the constructor may raise
//! `FileNotFound` or `AccessDenied`, `write` may raise only `DiskFull`).
//!
//! The anti-pattern the paper criticises — Java's generic `IOException`,
//! "an indication that a routine may return any member of an expandable set
//! of related errors" — is modelled too, as [`ErrorVocabulary::generic`],
//! because the naive baseline system needs it and the auditor flags it.

use crate::comm::Comm;
use crate::error::{ErrorCode, ScopedError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The set of explicit error codes one operation is contractually allowed
/// to return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorVocabulary {
    /// A concise, finite list (Principle 4). An error outside the list is
    /// not an ordinary result of the operation and must escape.
    Finite(BTreeSet<ErrorCode>),
    /// "Any member of an expandable set of related errors" — the
    /// `IOException` pattern. Every code is accepted as explicit. This makes
    /// a very weak statement and is flagged by the auditor as a Principle 4
    /// violation.
    Generic,
}

impl ErrorVocabulary {
    /// An empty finite vocabulary: the operation declares no explicit
    /// errors at all, so *every* failure escapes.
    pub fn none() -> Self {
        ErrorVocabulary::Finite(BTreeSet::new())
    }

    /// A finite vocabulary from a list of codes.
    pub fn finite<I, C>(codes: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: Into<ErrorCode>,
    {
        ErrorVocabulary::Finite(codes.into_iter().map(Into::into).collect())
    }

    /// The generic (unbounded) vocabulary.
    pub fn generic() -> Self {
        ErrorVocabulary::Generic
    }

    /// Does the contract admit `code` as an ordinary explicit result?
    pub fn admits(&self, code: &ErrorCode) -> bool {
        match self {
            ErrorVocabulary::Finite(set) => set.contains(code),
            ErrorVocabulary::Generic => true,
        }
    }

    /// Is this a concise, finite statement (Principle 4 satisfied)?
    pub fn is_finite(&self) -> bool {
        matches!(self, ErrorVocabulary::Finite(_))
    }

    /// Number of declared codes; `None` for the generic vocabulary.
    pub fn len(&self) -> Option<usize> {
        match self {
            ErrorVocabulary::Finite(set) => Some(set.len()),
            ErrorVocabulary::Generic => None,
        }
    }

    /// True if finite and empty.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }
}

/// What the conversion layer should do with a failure, given the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conformance {
    /// The code is in the vocabulary: deliver it as an ordinary explicit
    /// result.
    DeliverExplicit,
    /// The code is outside the vocabulary: it "violates the reasonable
    /// expectations" of the interface and must be converted to an escaping
    /// error (Principles 2 and 4 together).
    MustEscape,
}

/// The declared error contract of a whole interface: one vocabulary per
/// operation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceDecl {
    /// Interface name, e.g. `"FileWriter"` or `"chirp"`.
    pub name: String,
    ops: BTreeMap<String, ErrorVocabulary>,
}

impl InterfaceDecl {
    /// A new, empty interface declaration.
    pub fn new(name: impl Into<String>) -> Self {
        InterfaceDecl {
            name: name.into(),
            ops: BTreeMap::new(),
        }
    }

    /// Declare (or replace) the vocabulary of one operation.
    pub fn op(mut self, op: impl Into<String>, vocab: ErrorVocabulary) -> Self {
        self.ops.insert(op.into(), vocab);
        self
    }

    /// The vocabulary of `op`. An undeclared operation has the empty
    /// vocabulary: everything escapes — the safest reading of a contract
    /// that says nothing.
    pub fn vocabulary(&self, op: &str) -> ErrorVocabulary {
        self.ops
            .get(op)
            .cloned()
            .unwrap_or_else(ErrorVocabulary::none)
    }

    /// All declared operations.
    pub fn operations(&self) -> impl Iterator<Item = (&str, &ErrorVocabulary)> {
        self.ops.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Decide whether an error code may cross this interface explicitly.
    pub fn conformance(&self, op: &str, code: &ErrorCode) -> Conformance {
        if self.vocabulary(op).admits(code) {
            Conformance::DeliverExplicit
        } else {
            Conformance::MustEscape
        }
    }

    /// Apply the contract to an error crossing the interface at `layer`:
    /// in-vocabulary errors stay explicit; out-of-vocabulary errors are
    /// converted to escaping errors (Principle 2). An error already
    /// escaping stays escaping — contracts only constrain explicit results.
    pub fn filter(&self, op: &str, err: ScopedError, layer: &'static str) -> ScopedError {
        if err.comm == Comm::Escaping {
            return err.forwarded(layer);
        }
        match self.conformance(op, &err.code) {
            Conformance::DeliverExplicit => err.forwarded(layer),
            Conformance::MustEscape => err.escape(layer),
        }
    }

    /// True when every operation declares a finite vocabulary — the
    /// interface as a whole satisfies Principle 4.
    pub fn is_concise_and_finite(&self) -> bool {
        self.ops.values().all(ErrorVocabulary::is_finite)
    }
}

impl fmt::Display for InterfaceDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "interface {} {{", self.name)?;
        for (op, vocab) in &self.ops {
            match vocab {
                ErrorVocabulary::Finite(set) => {
                    let list: Vec<&str> = set.iter().map(|c| c.as_str()).collect();
                    writeln!(f, "    {op} throws {};", list.join(", "))?;
                }
                ErrorVocabulary::Generic => writeln!(f, "    {op} throws <generic>;")?,
            }
        }
        write!(f, "}}")
    }
}

/// The paper's revised `FileWriter` interface (§3.4), used in tests and
/// examples: `open` throws `FileNotFound` or `AccessDenied`; `write` throws
/// only `DiskFull`.
pub fn file_writer_revised() -> InterfaceDecl {
    use crate::error::codes::*;
    InterfaceDecl::new("FileWriter")
        .op(
            "open",
            ErrorVocabulary::finite([FILE_NOT_FOUND, ACCESS_DENIED]),
        )
        .op("write", ErrorVocabulary::finite([DISK_FULL]))
}

/// The paper's criticised original `FileWriter`: both operations throw the
/// generic `IOException`.
pub fn file_writer_generic() -> InterfaceDecl {
    InterfaceDecl::new("FileWriter")
        .op("open", ErrorVocabulary::generic())
        .op("write", ErrorVocabulary::generic())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::codes::*;
    use crate::scope::Scope;

    #[test]
    fn finite_vocabulary_admits_only_listed() {
        let v = ErrorVocabulary::finite([DISK_FULL]);
        assert!(v.admits(&DISK_FULL));
        assert!(!v.admits(&FILE_NOT_FOUND));
        assert!(v.is_finite());
        assert_eq!(v.len(), Some(1));
    }

    #[test]
    fn generic_vocabulary_admits_everything() {
        let v = ErrorVocabulary::generic();
        assert!(v.admits(&DISK_FULL));
        assert!(v.admits(&PIGEON_LOST));
        assert!(!v.is_finite());
        assert_eq!(v.len(), None);
    }

    #[test]
    fn empty_vocabulary_escapes_all() {
        let v = ErrorVocabulary::none();
        assert!(v.is_empty());
        assert!(!v.admits(&DISK_FULL));
    }

    #[test]
    fn revised_file_writer_matches_paper() {
        let i = file_writer_revised();
        assert_eq!(
            i.conformance("open", &FILE_NOT_FOUND),
            Conformance::DeliverExplicit
        );
        assert_eq!(
            i.conformance("open", &ACCESS_DENIED),
            Conformance::DeliverExplicit
        );
        // "Would it be reasonable for write to throw FileNotFound? Of
        // course not!"
        assert_eq!(
            i.conformance("write", &FILE_NOT_FOUND),
            Conformance::MustEscape
        );
        assert_eq!(
            i.conformance("write", &DISK_FULL),
            Conformance::DeliverExplicit
        );
        // ConnectionLost was never declared: it must escape per the paper.
        assert_eq!(
            i.conformance("write", &ErrorCode::new("ConnectionLost")),
            Conformance::MustEscape
        );
        assert!(i.is_concise_and_finite());
    }

    #[test]
    fn generic_file_writer_fails_p4() {
        let i = file_writer_generic();
        assert!(!i.is_concise_and_finite());
        // The generic interface lets FileNotFound pass as an ordinary
        // result of write — precisely the confusion §3.4 describes.
        assert_eq!(
            i.conformance("write", &FILE_NOT_FOUND),
            Conformance::DeliverExplicit
        );
    }

    #[test]
    fn undeclared_operation_has_empty_vocabulary() {
        let i = file_writer_revised();
        assert_eq!(i.conformance("seek", &DISK_FULL), Conformance::MustEscape);
    }

    #[test]
    fn filter_escapes_out_of_vocabulary_errors() {
        let i = file_writer_revised();
        let e = ScopedError::explicit(
            CONNECTION_TIMED_OUT,
            Scope::Network,
            "proxy",
            "timed out after 30s",
        );
        let out = i.filter("write", e, "io-library");
        assert_eq!(out.comm, Comm::Escaping);
    }

    #[test]
    fn filter_passes_in_vocabulary_errors() {
        let i = file_writer_revised();
        let e = ScopedError::explicit(DISK_FULL, Scope::File, "proxy", "0 bytes free");
        let out = i.filter("write", e, "io-library");
        assert_eq!(out.comm, Comm::Explicit);
    }

    #[test]
    fn filter_leaves_escaping_errors_escaping() {
        let i = file_writer_revised();
        let e = ScopedError::escaping(DISK_FULL, Scope::File, "proxy", "whatever");
        let out = i.filter("write", e, "io-library");
        assert_eq!(out.comm, Comm::Escaping);
    }

    #[test]
    fn display_renders_contract() {
        let s = file_writer_revised().to_string();
        assert!(s.contains("interface FileWriter"));
        assert!(s.contains("write throws DiskFull;"));
        let g = file_writer_generic().to_string();
        assert!(g.contains("<generic>"));
    }
}
