//! # errorscope — a theory of error propagation for computational grids
//!
//! This crate is the core contribution of *Error Scope on a Computational
//! Grid: Theory and Practice* (Thain & Livny, HPDC 2002), implemented as a
//! reusable Rust library:
//!
//! * [`comm`] — the three ways an error is communicated: **implicit**,
//!   **explicit**, and **escaping** (§3.1).
//! * [`scope`] — the **error scope** lattice: the portion of a system an
//!   error invalidates, ordered by containment (§3.3).
//! * [`error`] — [`ScopedError`]: an error value carrying its code, scope,
//!   communication mode, and a provenance trail of every layer crossed.
//! * [`interface`] — finite error vocabularies and interface contracts
//!   (Principle 4: "error interfaces must be concise and finite", §3.4).
//! * [`propagate`] — layer stacks that route errors to the program that
//!   manages their scope (Principle 3), converting out-of-contract errors
//!   into escaping errors along the way (Principle 2), and the schedd's
//!   last-line-of-defense [`propagate::Disposition`]s (§4).
//! * [`escalate`] — time-based scope escalation for indeterminate errors,
//!   the NFS hard/soft-mount dilemma (§5).
//! * [`resultfile`] — the wrapper's result file: the indirect channel that
//!   replaces the JVM's ambiguous exit code (§4, Figure 4).
//! * [`audit`] — after-the-fact verification of the four principles from an
//!   error's trail.
//!
//! ## The four principles
//!
//! 1. A program must not generate an implicit error as a result of
//!    receiving an explicit error.
//! 2. An escaping error must be used to convert a potential implicit error
//!    into an explicit error at a higher level.
//! 3. An error must be propagated to the program that manages its scope.
//! 4. Error interfaces must be concise and finite.
//!
//! ## Quick example
//!
//! ```
//! use errorscope::prelude::*;
//!
//! // The Java Universe chain of Figure 3.
//! let stack = java_universe_stack();
//!
//! // The home file system goes offline during remote I/O. This is not a
//! // program result: it must escape to the shadow, which manages
//! // local-resource scope.
//! let err = ScopedError::escaping(
//!     codes::FILESYSTEM_OFFLINE,
//!     Scope::LocalResource,
//!     "wrapper",
//!     "home file system offline",
//! );
//! let delivery = stack.propagate(err, "wrapper");
//! assert_eq!(delivery.handled_by, Some("shadow"));
//! assert_eq!(delivery.disposition, Disposition::LogAndReschedule);
//!
//! // The delivery satisfies the principles.
//! assert!(errorscope::audit::audit_delivery(&stack, &delivery).is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod comm;
pub mod error;
pub mod escalate;
pub mod interface;
pub mod propagate;
pub mod resultfile;
pub mod scope;

pub use comm::Comm;
pub use error::{ErrorCode, ScopedError};
pub use interface::{Conformance, ErrorVocabulary, InterfaceDecl};
pub use propagate::{Delivery, Disposition, Layer, LayerStack};
pub use resultfile::{Outcome, ResultFile};
pub use scope::Scope;

/// Convenient glob import for the common types.
pub mod prelude {
    pub use crate::comm::Comm;
    pub use crate::error::{codes, ErrorCode, ScopedError};
    pub use crate::escalate::{EscalationPolicy, RetryCriteria, RetryDecision};
    pub use crate::interface::{Conformance, ErrorVocabulary, InterfaceDecl};
    pub use crate::propagate::{java_universe_stack, Delivery, Disposition, Layer, LayerStack};
    pub use crate::resultfile::{Outcome, ResultFile};
    pub use crate::scope::Scope;
}
