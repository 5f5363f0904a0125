//! The proxy server that lives in the starter.
//!
//! The server applies the Chirp contract of [`crate::proto`]: a backend
//! failure that is *in* the operation's vocabulary is returned as an
//! explicit [`Response::Error`]; anything else — an environmental fault, or
//! a backend condition the operation's contract does not admit (the
//! paper's "file system subject to losing a file in the middle of a
//! write") — causes a [`ServerOutcome::Disconnect`]: the network form of an
//! escaping error. A session holds at most [`MAX_OPEN`] descriptors.
//!
//! The server can also run in the **naive generic** discipline the paper's
//! first implementation used ("we blindly converted all possible explicit
//! errors from the proxy directly into corresponding Java exceptions … we
//! simply extended the basic IOException"): every failure is squeezed into
//! an explicit response, violating Principles 2 and 4. The E4 experiment
//! measures the difference.

use crate::backend::{BackendFailure, EnvFault, FileBackend};
use crate::cookie::Cookie;
use crate::proto::{explicit_errors_of, ChirpError, Fd, FileInfo, OpenMode, Request, Response};
use std::collections::BTreeMap;

/// How the server treats failures outside an operation's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorDiscipline {
    /// The paper's redesign: out-of-vocabulary failures escape by breaking
    /// the connection (Principles 2 and 4).
    Scoped,
    /// The paper's first, flawed implementation: everything becomes an
    /// explicit error, using the catch-all [`ChirpError::BadFd`]-like
    /// generic code. Kept as the experimental baseline.
    NaiveGeneric,
}

/// Why the server hung up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisconnectReason {
    /// An environmental fault from the backend.
    Env(EnvFault),
    /// The backend produced a condition the operation's contract does not
    /// admit (e.g. `NotFound` during `write`).
    ContractViolation {
        /// The operation whose contract was violated.
        op: &'static str,
        /// The out-of-contract condition.
        code: &'static str,
    },
    /// The client broke protocol (e.g. skipped authentication).
    ProtocolViolation(String),
}

/// The outcome of handling one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerOutcome {
    /// Send this response and continue.
    Reply(Response),
    /// Break the connection — an escaping error. The reason is available to
    /// the *starter* (the proxy's host program), never to the client.
    Disconnect(DisconnectReason),
}

/// Cap on simultaneously open descriptors: an `open` past it is answered
/// with the explicit [`ChirpError::TooManyOpen`].
pub const MAX_OPEN: usize = 64;

struct OpenFile {
    path: String,
    mode: OpenMode,
    read_offset: u64,
}

/// A Chirp proxy server bound to one backend and one job cookie.
pub struct ChirpServer<B: FileBackend> {
    backend: B,
    cookie: Cookie,
    discipline: ErrorDiscipline,
    authenticated: bool,
    fds: BTreeMap<Fd, OpenFile>,
    next_fd: Fd,
    /// Count of requests handled, for metrics.
    pub requests_handled: u64,
}

impl<B: FileBackend> ChirpServer<B> {
    /// A server in the scoped (redesigned) discipline.
    pub fn new(backend: B, cookie: Cookie) -> Self {
        ChirpServer {
            backend,
            cookie,
            discipline: ErrorDiscipline::Scoped,
            authenticated: false,
            fds: BTreeMap::new(),
            next_fd: 3,
            requests_handled: 0,
        }
    }

    /// Switch discipline (builder style).
    pub fn with_discipline(mut self, d: ErrorDiscipline) -> Self {
        self.discipline = d;
        self
    }

    /// Access the backend (e.g. to inject faults mid-session in tests).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Read-only backend access (post-session inspection).
    pub fn backend_ref(&self) -> &B {
        &self.backend
    }

    /// Number of currently open descriptors.
    pub fn open_count(&self) -> usize {
        self.fds.len()
    }

    /// Handle one request.
    pub fn handle(&mut self, req: &Request) -> ServerOutcome {
        self.requests_handled += 1;
        if !self.authenticated {
            return match req {
                Request::Auth { cookie } => {
                    if self.cookie.verify(cookie) {
                        self.authenticated = true;
                        ServerOutcome::Reply(Response::Ok)
                    } else {
                        ServerOutcome::Reply(Response::Error(ChirpError::NotAuthenticated))
                    }
                }
                other => ServerOutcome::Disconnect(DisconnectReason::ProtocolViolation(format!(
                    "'{}' before authentication",
                    other.op()
                ))),
            };
        }
        match req {
            Request::Auth { .. } => ServerOutcome::Reply(Response::Ok), // idempotent re-auth
            Request::Open { path, mode } => self.do_open(path, *mode),
            Request::Read { fd, len } => self.do_read(*fd, *len),
            Request::Write { fd, data } => self.do_write(*fd, data),
            Request::Close { fd } => self.do_close(*fd),
            Request::Stat { path } => self.do_stat(path),
            Request::PutCkpt { key, data } => self.do_put_ckpt(key, data),
            Request::GetCkpt { key } => self.do_get_ckpt(key),
        }
    }

    fn do_open(&mut self, path: &str, mode: OpenMode) -> ServerOutcome {
        if self.fds.len() >= MAX_OPEN {
            return self.explicit("open", ChirpError::TooManyOpen);
        }
        let prep = match mode {
            OpenMode::Read => match self.backend.exists(path) {
                Ok(true) => Ok(()),
                Ok(false) => Err(BackendFailure::NotFound),
                Err(e) => Err(e),
            },
            OpenMode::Write => self.backend.create(path),
            OpenMode::Append => match self.backend.exists(path) {
                Ok(true) => Ok(()),
                Ok(false) => self.backend.create(path),
                Err(e) => Err(e),
            },
        };
        if let Err(e) = prep {
            return self.map_failure("open", e);
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            OpenFile {
                path: path.to_string(),
                mode,
                read_offset: 0,
            },
        );
        ServerOutcome::Reply(Response::Opened { fd })
    }

    fn do_read(&mut self, fd: Fd, len: u32) -> ServerOutcome {
        let Some(of) = self.fds.get(&fd) else {
            return self.explicit("read", ChirpError::BadFd);
        };
        if of.mode != OpenMode::Read {
            return self.explicit("read", ChirpError::BadFd);
        }
        let (path, offset) = (of.path.clone(), of.read_offset);
        match self.backend.read_at(&path, offset, len) {
            Ok(data) => {
                self.fds.get_mut(&fd).unwrap().read_offset += data.len() as u64;
                ServerOutcome::Reply(Response::Data { data })
            }
            Err(e) => self.map_failure("read", e),
        }
    }

    fn do_write(&mut self, fd: Fd, data: &[u8]) -> ServerOutcome {
        let Some(of) = self.fds.get(&fd) else {
            return self.explicit("write", ChirpError::BadFd);
        };
        if of.mode == OpenMode::Read {
            return self.explicit("write", ChirpError::BadFd);
        }
        let path = of.path.clone();
        match self.backend.append(&path, data) {
            Ok(()) => ServerOutcome::Reply(Response::Written {
                len: data.len() as u32,
            }),
            Err(e) => self.map_failure("write", e),
        }
    }

    fn do_close(&mut self, fd: Fd) -> ServerOutcome {
        if self.fds.remove(&fd).is_some() {
            ServerOutcome::Reply(Response::Ok)
        } else {
            self.explicit("close", ChirpError::BadFd)
        }
    }

    fn do_stat(&mut self, path: &str) -> ServerOutcome {
        match self.backend.size(path) {
            Ok(size) => ServerOutcome::Reply(Response::Info(FileInfo { size })),
            Err(e) => self.map_failure("stat", e),
        }
    }

    fn do_put_ckpt(&mut self, key: &str, data: &[u8]) -> ServerOutcome {
        // A checkpoint store is a truncating whole-file write under the key.
        // The image bytes are opaque here: integrity is the *restorer's*
        // concern (the starter validates the CRC and version before resuming),
        // the server only promises durable bytes-in, bytes-out.
        if let Err(e) = self.backend.create(key) {
            return self.map_failure("put_ckpt", e);
        }
        match self.backend.append(key, data) {
            Ok(()) => ServerOutcome::Reply(Response::Written {
                len: data.len() as u32,
            }),
            Err(e) => self.map_failure("put_ckpt", e),
        }
    }

    fn do_get_ckpt(&mut self, key: &str) -> ServerOutcome {
        let size = match self.backend.size(key) {
            Ok(n) => n,
            Err(e) => return self.map_failure("get_ckpt", e),
        };
        match self
            .backend
            .read_at(key, 0, size.min(u64::from(u32::MAX)) as u32)
        {
            Ok(data) => ServerOutcome::Reply(Response::Data { data }),
            Err(e) => self.map_failure("get_ckpt", e),
        }
    }

    /// Return an explicit error, which is always legitimate because callers
    /// only pass codes from the operation's own vocabulary.
    fn explicit(&self, op: &'static str, code: ChirpError) -> ServerOutcome {
        debug_assert!(
            explicit_errors_of(op).contains(&code),
            "{code} is not in {op}'s vocabulary"
        );
        ServerOutcome::Reply(Response::Error(code))
    }

    /// Map a backend failure through the operation's contract.
    fn map_failure(&self, op: &'static str, failure: BackendFailure) -> ServerOutcome {
        let candidate = match failure {
            BackendFailure::NotFound => Some(ChirpError::NotFound),
            BackendFailure::AccessDenied => Some(ChirpError::AccessDenied),
            BackendFailure::DiskFull => Some(ChirpError::DiskFull),
            BackendFailure::Env(_) => None,
        };
        match (candidate, self.discipline) {
            // In-vocabulary: explicit, in either discipline.
            (Some(code), _) if explicit_errors_of(op).contains(&code) => {
                ServerOutcome::Reply(Response::Error(code))
            }
            // Out-of-vocabulary protocol-level condition.
            (Some(code), ErrorDiscipline::Scoped) => {
                ServerOutcome::Disconnect(DisconnectReason::ContractViolation {
                    op,
                    code: code.code_name(),
                })
            }
            (Some(code), ErrorDiscipline::NaiveGeneric) => {
                // The generic interface happily delivers it.
                ServerOutcome::Reply(Response::Error(code))
            }
            // Environmental fault.
            (None, ErrorDiscipline::Scoped) => {
                let BackendFailure::Env(f) = failure else {
                    unreachable!()
                };
                ServerOutcome::Disconnect(DisconnectReason::Env(f))
            }
            (None, ErrorDiscipline::NaiveGeneric) => {
                // "Although this was easy, it was incorrect": squeeze the
                // environmental fault into the nearest explicit code.
                ServerOutcome::Reply(Response::Error(ChirpError::AccessDenied))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemFs;

    fn server() -> ChirpServer<MemFs> {
        let mut fs = MemFs::new(1_000);
        fs.put("input.txt", b"hello world");
        let mut s = ChirpServer::new(fs, Cookie::generate(1));
        let out = s.handle(&Request::Auth {
            cookie: Cookie::generate(1).as_bytes().to_vec(),
        });
        assert_eq!(out, ServerOutcome::Reply(Response::Ok));
        s
    }

    fn open(s: &mut ChirpServer<MemFs>, path: &str, mode: OpenMode) -> Fd {
        match s.handle(&Request::Open {
            path: path.into(),
            mode,
        }) {
            ServerOutcome::Reply(Response::Opened { fd }) => fd,
            other => panic!("open failed: {other:?}"),
        }
    }

    #[test]
    fn auth_gate() {
        let fs = MemFs::default();
        let mut s = ChirpServer::new(fs, Cookie::generate(5));
        // Request before auth: protocol violation, disconnect.
        let out = s.handle(&Request::Stat { path: "x".into() });
        assert!(matches!(
            out,
            ServerOutcome::Disconnect(DisconnectReason::ProtocolViolation(_))
        ));
        // Wrong cookie: explicit NotAuthenticated (in auth's vocabulary).
        let mut s = ChirpServer::new(MemFs::default(), Cookie::generate(5));
        let out = s.handle(&Request::Auth {
            cookie: vec![0; 32],
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Error(ChirpError::NotAuthenticated))
        );
    }

    #[test]
    fn read_a_file_end_to_end() {
        let mut s = server();
        let fd = open(&mut s, "input.txt", OpenMode::Read);
        let out = s.handle(&Request::Read { fd, len: 5 });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Data {
                data: b"hello".to_vec()
            })
        );
        let out = s.handle(&Request::Read { fd, len: 100 });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Data {
                data: b" world".to_vec()
            })
        );
        // EOF: empty data.
        let out = s.handle(&Request::Read { fd, len: 100 });
        assert_eq!(out, ServerOutcome::Reply(Response::Data { data: vec![] }));
        assert_eq!(
            s.handle(&Request::Close { fd }),
            ServerOutcome::Reply(Response::Ok)
        );
        assert_eq!(s.open_count(), 0);
    }

    #[test]
    fn write_and_stat() {
        let mut s = server();
        let fd = open(&mut s, "out.txt", OpenMode::Write);
        let out = s.handle(&Request::Write {
            fd,
            data: b"result".to_vec(),
        });
        assert_eq!(out, ServerOutcome::Reply(Response::Written { len: 6 }));
        let out = s.handle(&Request::Stat {
            path: "out.txt".into(),
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Info(FileInfo { size: 6 }))
        );
    }

    #[test]
    fn open_missing_file_is_explicit_not_found() {
        let mut s = server();
        let out = s.handle(&Request::Open {
            path: "no-such".into(),
            mode: OpenMode::Read,
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Error(ChirpError::NotFound))
        );
    }

    #[test]
    fn disk_full_is_explicit_on_write() {
        let mut fs = MemFs::new(4);
        fs.put("f", b"");
        let mut s = ChirpServer::new(fs, Cookie::generate(1));
        s.handle(&Request::Auth {
            cookie: Cookie::generate(1).as_bytes().to_vec(),
        });
        let fd = open(&mut s, "f", OpenMode::Append);
        let out = s.handle(&Request::Write {
            fd,
            data: b"too much data".to_vec(),
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Error(ChirpError::DiskFull))
        );
    }

    #[test]
    fn bad_fd_is_explicit() {
        let mut s = server();
        assert_eq!(
            s.handle(&Request::Read { fd: 99, len: 1 }),
            ServerOutcome::Reply(Response::Error(ChirpError::BadFd))
        );
        assert_eq!(
            s.handle(&Request::Close { fd: 99 }),
            ServerOutcome::Reply(Response::Error(ChirpError::BadFd))
        );
        // Writing a read-only fd is BadFd too.
        let fd = open(&mut s, "input.txt", OpenMode::Read);
        assert_eq!(
            s.handle(&Request::Write {
                fd,
                data: b"x".to_vec()
            }),
            ServerOutcome::Reply(Response::Error(ChirpError::BadFd))
        );
    }

    #[test]
    fn env_fault_disconnects_in_scoped_discipline() {
        let mut s = server();
        let fd = open(&mut s, "input.txt", OpenMode::Read);
        s.backend_mut()
            .set_env_fault(Some(EnvFault::FilesystemOffline));
        let out = s.handle(&Request::Read { fd, len: 1 });
        assert_eq!(
            out,
            ServerOutcome::Disconnect(DisconnectReason::Env(EnvFault::FilesystemOffline))
        );
    }

    #[test]
    fn env_fault_masquerades_in_naive_discipline() {
        let mut fs = MemFs::default();
        fs.put("input.txt", b"data");
        let mut s = ChirpServer::new(fs, Cookie::generate(1))
            .with_discipline(ErrorDiscipline::NaiveGeneric);
        s.handle(&Request::Auth {
            cookie: Cookie::generate(1).as_bytes().to_vec(),
        });
        let fd = open(&mut s, "input.txt", OpenMode::Read);
        s.backend_mut()
            .set_env_fault(Some(EnvFault::CredentialsExpired));
        // The naive proxy delivers an explicit error — exactly the bug the
        // paper describes.
        let out = s.handle(&Request::Read { fd, len: 1 });
        assert!(matches!(out, ServerOutcome::Reply(Response::Error(_))));
    }

    #[test]
    fn mid_write_vanishing_file_escapes() {
        // "Even if we could manage to build a bizarre distributed file
        // system subject to losing a file in the middle of a write, we
        // would expect to receive an escaping error, not an explicit
        // error."
        let mut s = server();
        let fd = open(&mut s, "victim", OpenMode::Write);
        // Remove the file behind the proxy's back.
        s.backend_mut().remove("victim");
        let out = s.handle(&Request::Write {
            fd,
            data: b"x".to_vec(),
        });
        assert_eq!(
            out,
            ServerOutcome::Disconnect(DisconnectReason::ContractViolation {
                op: "write",
                code: "FileNotFound",
            })
        );
    }

    #[test]
    fn too_many_open_is_explicit() {
        let mut fs = MemFs::default();
        fs.put("f", b"x");
        let mut s = ChirpServer::new(fs, Cookie::generate(1));
        s.handle(&Request::Auth {
            cookie: Cookie::generate(1).as_bytes().to_vec(),
        });
        for _ in 0..MAX_OPEN {
            open(&mut s, "f", OpenMode::Read);
        }
        let out = s.handle(&Request::Open {
            path: "f".into(),
            mode: OpenMode::Read,
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Error(ChirpError::TooManyOpen))
        );
    }

    #[test]
    fn checkpoint_store_and_fetch() {
        let mut s = server();
        let image = vec![0xC4u8; 128];
        let out = s.handle(&Request::PutCkpt {
            key: "ckpt/job7/attempt0".into(),
            data: image.clone(),
        });
        assert_eq!(out, ServerOutcome::Reply(Response::Written { len: 128 }));
        let out = s.handle(&Request::GetCkpt {
            key: "ckpt/job7/attempt0".into(),
        });
        assert_eq!(out, ServerOutcome::Reply(Response::Data { data: image }));
        // Re-put truncates: a fresh checkpoint fully replaces the old one.
        let out = s.handle(&Request::PutCkpt {
            key: "ckpt/job7/attempt0".into(),
            data: vec![1; 4],
        });
        assert_eq!(out, ServerOutcome::Reply(Response::Written { len: 4 }));
        let out = s.handle(&Request::GetCkpt {
            key: "ckpt/job7/attempt0".into(),
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Data { data: vec![1; 4] })
        );
    }

    #[test]
    fn missing_checkpoint_is_explicit_not_found() {
        // First attempt of a job: no checkpoint exists. The answer must be
        // an in-vocabulary explicit error, never a disconnect.
        let mut s = server();
        let out = s.handle(&Request::GetCkpt {
            key: "ckpt/job99/attempt0".into(),
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Error(ChirpError::NotFound))
        );
    }

    #[test]
    fn put_ckpt_disk_full_is_explicit() {
        let fs = MemFs::new(16);
        let mut s = ChirpServer::new(fs, Cookie::generate(1));
        s.handle(&Request::Auth {
            cookie: Cookie::generate(1).as_bytes().to_vec(),
        });
        let out = s.handle(&Request::PutCkpt {
            key: "ckpt/job1/attempt0".into(),
            data: vec![0; 1024],
        });
        assert_eq!(
            out,
            ServerOutcome::Reply(Response::Error(ChirpError::DiskFull))
        );
    }
}
