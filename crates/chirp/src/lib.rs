//! # chirp — the I/O proxy protocol of the Condor Java Universe
//!
//! "This library does not communicate directly with any storage resource,
//! but instead calls a proxy in the starter via a simple protocol called
//! Chirp" (Thain & Livny §2.2). This crate implements that protocol as a
//! disciplined example of the paper's Principle 4: every operation declares
//! a concise, finite explicit-error vocabulary, and any failure outside it
//! escapes by breaking the connection.
//!
//! * [`proto`] — requests, responses, the finite [`proto::ChirpError`]
//!   vocabulary, and the auditable interface declaration.
//! * [`wire`] — length-prefixed binary framing.
//! * [`cookie`] — the shared-secret authentication of §2.2.
//! * [`backend`] — storage behind the proxy, with injectable environmental
//!   faults (offline file system, expired credentials, timeouts).
//! * [`server`] — the proxy, in both the paper's redesigned (scoped) and
//!   original (naive generic) disciplines.
//! * [`transport`] — the [`Transport`] trait and the in-process
//!   [`DirectTransport`] the simulated grid uses; a broken transport is the
//!   escaping error.
//! * [`tcp`] — the one out-of-process transport: the same protocol over a
//!   real `127.0.0.1` socket, where the client experiences escaping errors
//!   exactly as a real program does: the connection just closes.
//! * [`client`] — the job-side I/O library in both disciplines.
//!
//! ```
//! use chirp::prelude::*;
//!
//! let mut fs = MemFs::default();
//! fs.put("input.txt", b"hello");
//! let cookie = Cookie::generate(7);
//! let server = ChirpServer::new(fs, cookie.clone());
//! let mut client = ChirpClient::new(DirectTransport::new(server));
//!
//! client.auth(cookie.as_bytes()).unwrap();
//! let fd = client.open("input.txt", OpenMode::Read).unwrap();
//! assert_eq!(client.read_all(fd).unwrap(), b"hello");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod client;
pub mod cookie;
pub mod proto;
pub mod server;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use backend::{BackendFailure, EnvFault, FileBackend, MemFs};
pub use client::{ChirpClient, ClientDiscipline, IoError, IoResult};
pub use cookie::Cookie;
pub use proto::{ChirpError, Fd, FileInfo, OpenMode, Request, Response};
pub use server::{ChirpServer, DisconnectReason, ErrorDiscipline, ServerOutcome};
pub use tcp::{serve_once, TcpSession, TcpTransport};
pub use transport::{Broken, DirectTransport, Transport};

/// Convenient glob import.
pub mod prelude {
    pub use crate::backend::{EnvFault, FileBackend, MemFs};
    pub use crate::client::{ChirpClient, ClientDiscipline, IoError};
    pub use crate::cookie::Cookie;
    pub use crate::proto::{ChirpError, OpenMode, Request, Response};
    pub use crate::server::{ChirpServer, DisconnectReason, ErrorDiscipline, ServerOutcome};
    pub use crate::transport::{DirectTransport, Transport};
}
