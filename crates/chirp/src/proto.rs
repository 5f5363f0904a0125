//! The Chirp protocol vocabulary.
//!
//! Chirp is the simple protocol the Java I/O library speaks to the proxy in
//! the starter (§2.2 of the paper): "This library does not communicate
//! directly with any storage resource, but instead calls a proxy in the
//! starter via a simple protocol called Chirp."
//!
//! The vocabulary is the eight operations the grid issues: the job's
//! `auth`, `open`, `read`, `write`, `close` and `stat`, and the starter's
//! `put_ckpt`/`get_ckpt`. Following Principle 4, every operation declares
//! a **concise and finite** set of explicit error codes
//! ([`explicit_errors_of`]), drawn from six [`ChirpError`] codes. A failure
//! outside an operation's vocabulary is *never* returned as a response; the
//! server instead breaks the connection — the network form of an escaping
//! error ("On a network connection, an escaping error is communicated by
//! breaking the connection", §3.1).

use errorscope::interface::{ErrorVocabulary, InterfaceDecl};
use std::fmt;

/// A file descriptor in the proxy's table.
pub type Fd = u32;

/// Open mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only; the file must exist.
    Read,
    /// Write-only; created if missing, truncated if present.
    Write,
    /// Write-only, appending; created if missing.
    Append,
}

impl OpenMode {
    /// Stable wire encoding.
    pub fn to_byte(self) -> u8 {
        match self {
            OpenMode::Read => 0,
            OpenMode::Write => 1,
            OpenMode::Append => 2,
        }
    }

    /// Decode the wire byte.
    pub fn from_byte(b: u8) -> Option<OpenMode> {
        match b {
            0 => Some(OpenMode::Read),
            1 => Some(OpenMode::Write),
            2 => Some(OpenMode::Append),
            _ => None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Authenticate with the shared-secret cookie. Must be the first
    /// request on a connection.
    Auth {
        /// The cookie revealed to the job through the local file system.
        cookie: Vec<u8>,
    },
    /// Open a file.
    Open {
        /// Path within the backend namespace.
        path: String,
        /// Access mode.
        mode: OpenMode,
    },
    /// Read up to `len` bytes from an open file.
    Read {
        /// Descriptor from a prior `Open`.
        fd: Fd,
        /// Maximum bytes to return.
        len: u32,
    },
    /// Write bytes to an open file.
    Write {
        /// Descriptor from a prior `Open`.
        fd: Fd,
        /// The data.
        data: Vec<u8>,
    },
    /// Close a descriptor.
    Close {
        /// Descriptor to release.
        fd: Fd,
    },
    /// Stat a path.
    Stat {
        /// Path to inspect.
        path: String,
    },
    /// Store a checkpoint image under an opaque key, in one round trip.
    /// The starter frames it; the checkpoint server enforces its own
    /// vocabulary and limits.
    PutCkpt {
        /// Checkpoint key, e.g. `ckpt/job3/attempt1`.
        key: String,
        /// The serialized checkpoint image bytes (opaque to the protocol).
        data: Vec<u8>,
    },
    /// Fetch a previously stored checkpoint image by key.
    GetCkpt {
        /// Checkpoint key to fetch.
        key: String,
    },
}

impl Request {
    /// The operation name, as used in vocabulary declarations.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Auth { .. } => "auth",
            Request::Open { .. } => "open",
            Request::Read { .. } => "read",
            Request::Write { .. } => "write",
            Request::Close { .. } => "close",
            Request::Stat { .. } => "stat",
            Request::PutCkpt { .. } => "put_ckpt",
            Request::GetCkpt { .. } => "get_ckpt",
        }
    }
}

/// File metadata returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileInfo {
    /// Size in bytes.
    pub size: u64,
}

/// The explicit error codes of the Chirp protocol. This enum is the
/// protocol's whole explicit-error world: anything else that goes wrong is
/// an escaping error, delivered by disconnection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChirpError {
    /// The named file does not exist.
    NotFound,
    /// Permission denied.
    AccessDenied,
    /// No space for the write.
    DiskFull,
    /// The descriptor is not open (or wrong mode for the operation).
    BadFd,
    /// Too many open descriptors.
    TooManyOpen,
    /// The cookie presented at `auth` was wrong.
    NotAuthenticated,
}

impl ChirpError {
    /// Stable wire encoding.
    pub fn to_byte(self) -> u8 {
        match self {
            ChirpError::NotFound => 1,
            ChirpError::AccessDenied => 2,
            ChirpError::DiskFull => 3,
            ChirpError::BadFd => 4,
            ChirpError::TooManyOpen => 5,
            ChirpError::NotAuthenticated => 6,
        }
    }

    /// Decode the wire byte.
    pub fn from_byte(b: u8) -> Option<ChirpError> {
        match b {
            1 => Some(ChirpError::NotFound),
            2 => Some(ChirpError::AccessDenied),
            3 => Some(ChirpError::DiskFull),
            4 => Some(ChirpError::BadFd),
            5 => Some(ChirpError::TooManyOpen),
            6 => Some(ChirpError::NotAuthenticated),
            _ => None,
        }
    }

    /// The [`errorscope`] error-code name for this condition.
    pub fn code_name(self) -> &'static str {
        match self {
            ChirpError::NotFound => "FileNotFound",
            ChirpError::AccessDenied => "AccessDenied",
            ChirpError::DiskFull => "DiskFull",
            ChirpError::BadFd => "BadFileDescriptor",
            ChirpError::TooManyOpen => "TooManyOpenFiles",
            ChirpError::NotAuthenticated => "NotAuthenticated",
        }
    }
}

impl fmt::Display for ChirpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code_name())
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Generic success (auth, close).
    Ok,
    /// Successful open.
    Opened {
        /// The new descriptor.
        fd: Fd,
    },
    /// Successful read; an empty payload means end of file.
    Data {
        /// Bytes read.
        data: Vec<u8>,
    },
    /// Successful write.
    Written {
        /// Bytes accepted (always all of them — short writes are not part
        /// of the contract).
        len: u32,
    },
    /// Successful stat.
    Info(FileInfo),
    /// An explicit, in-vocabulary error.
    Error(ChirpError),
}

/// The per-operation explicit-error vocabularies (Principle 4). Mirrors the
/// paper's revised `FileWriter`: opening is subject to namespace errors;
/// reads and writes only to the errors that can strike a locked-open file.
pub fn explicit_errors_of(op: &str) -> Vec<ChirpError> {
    use ChirpError::*;
    match op {
        "auth" => vec![NotAuthenticated],
        "open" => vec![NotFound, AccessDenied, TooManyOpen],
        "read" => vec![BadFd],
        "write" => vec![DiskFull, BadFd],
        "close" => vec![BadFd],
        "stat" => vec![NotFound, AccessDenied],
        // Checkpoint traffic. A missing checkpoint is an ordinary explicit
        // answer to `get_ckpt` (first attempt of a job has none); storage
        // refusals are explicit on `put_ckpt` so the starter can fall back
        // to non-checkpointed execution rather than treating a full disk as
        // an environmental catastrophe.
        "put_ckpt" => vec![AccessDenied, DiskFull],
        "get_ckpt" => vec![NotFound, AccessDenied],
        _ => vec![],
    }
}

/// The whole protocol contract as an [`errorscope`] interface declaration,
/// suitable for auditing.
pub fn chirp_interface() -> InterfaceDecl {
    let ops = [
        "auth", "open", "read", "write", "close", "stat", "put_ckpt", "get_ckpt",
    ];
    let mut decl = InterfaceDecl::new("chirp");
    for op in ops {
        decl = decl.op(
            op,
            ErrorVocabulary::finite(
                explicit_errors_of(op)
                    .into_iter()
                    .map(|e| errorscope::ErrorCode::new(e.code_name())),
            ),
        );
    }
    decl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bytes_round_trip() {
        for b in 1..=6u8 {
            let e = ChirpError::from_byte(b).unwrap();
            assert_eq!(e.to_byte(), b);
        }
        assert_eq!(ChirpError::from_byte(0), None);
        assert_eq!(ChirpError::from_byte(7), None);
        assert_eq!(ChirpError::from_byte(99), None);
    }

    #[test]
    fn mode_bytes_round_trip() {
        for m in [OpenMode::Read, OpenMode::Write, OpenMode::Append] {
            assert_eq!(OpenMode::from_byte(m.to_byte()), Some(m));
        }
        assert_eq!(OpenMode::from_byte(9), None);
    }

    #[test]
    fn write_vocabulary_matches_paper() {
        // "write throws DiskFull" — and emphatically NOT FileNotFound.
        let v = explicit_errors_of("write");
        assert!(v.contains(&ChirpError::DiskFull));
        assert!(!v.contains(&ChirpError::NotFound));
        // open IS subject to namespace errors.
        let v = explicit_errors_of("open");
        assert!(v.contains(&ChirpError::NotFound));
        assert!(v.contains(&ChirpError::AccessDenied));
    }

    #[test]
    fn interface_is_concise_and_finite() {
        let decl = chirp_interface();
        assert!(decl.is_concise_and_finite());
        assert!(errorscope::audit::audit_interface(&decl).is_empty());
    }

    #[test]
    fn interface_escapes_out_of_vocabulary() {
        use errorscope::interface::Conformance;
        let decl = chirp_interface();
        let timeout = errorscope::ErrorCode::new("ConnectionTimedOut");
        for op in ["open", "read", "write", "close"] {
            assert_eq!(decl.conformance(op, &timeout), Conformance::MustEscape);
        }
        let disk_full = errorscope::ErrorCode::new("DiskFull");
        assert_eq!(
            decl.conformance("write", &disk_full),
            Conformance::DeliverExplicit
        );
        assert_eq!(
            decl.conformance("read", &disk_full),
            Conformance::MustEscape
        );
    }

    #[test]
    fn request_op_names() {
        assert_eq!(
            Request::Open {
                path: "x".into(),
                mode: OpenMode::Read
            }
            .op(),
            "open"
        );
        assert_eq!(Request::Auth { cookie: vec![] }.op(), "auth");
        assert_eq!(
            Request::PutCkpt {
                key: "ckpt/job1/attempt0".into(),
                data: vec![]
            }
            .op(),
            "put_ckpt"
        );
        assert_eq!(
            Request::GetCkpt {
                key: "ckpt/job1/attempt0".into()
            }
            .op(),
            "get_ckpt"
        );
    }

    #[test]
    fn checkpoint_vocabularies() {
        // A first-attempt job has no checkpoint: NotFound is an ordinary
        // explicit answer to get_ckpt, never a disconnect.
        let v = explicit_errors_of("get_ckpt");
        assert!(v.contains(&ChirpError::NotFound));
        // Storing may legitimately hit a full disk.
        let v = explicit_errors_of("put_ckpt");
        assert!(v.contains(&ChirpError::DiskFull));
        assert!(!v.contains(&ChirpError::NotFound));
    }
}
