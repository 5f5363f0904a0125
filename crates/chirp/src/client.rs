//! The job-side I/O library.
//!
//! "For such programs, we provide a simple I/O library. This library
//! presents files using standard Java abstractions" (§2.2). Here the
//! abstraction is a typed Rust API over a [`Transport`], one method per
//! operation a job issues: `auth`, `open`, `read`, `write`, `close` and
//! `stat`. Checkpoint images are not the job's traffic: the starter frames
//! `put_ckpt`/`get_ckpt` itself.
//!
//! The library exists in the paper's two incarnations:
//!
//! * [`ClientDiscipline::Scoped`] — the redesign: in-vocabulary protocol
//!   errors surface as [`IoError::Explicit`]; a broken connection becomes
//!   an [`IoError::Escape`] carrying a [`ScopedError`] destined for the
//!   wrapper (Principle 2).
//! * [`ClientDiscipline::NaiveGeneric`] — the first implementation: every
//!   failure, environmental or not, is delivered to the program as a
//!   generic exception ([`IoError::GenericException`]) — "although this was
//!   easy, it was incorrect."

use crate::proto::{ChirpError, Fd, FileInfo, OpenMode, Request, Response};
use crate::server::DisconnectReason;
use crate::transport::{Broken, Transport};
use errorscope::error::codes;
use errorscope::{ErrorCode, Scope, ScopedError};

/// Which error discipline the library applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientDiscipline {
    /// The paper's redesign (Principles 2–4 respected).
    Scoped,
    /// The paper's flawed first cut: everything is an explicit generic
    /// exception.
    NaiveGeneric,
}

/// A failure surfaced by the I/O library.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// An explicit error within the operation's contract: a legitimate
    /// program-visible result (file scope).
    Explicit(ChirpError),
    /// The naive library's catch-all "IOException subtype". Only produced
    /// under [`ClientDiscipline::NaiveGeneric`]; its presence in a run is a
    /// Principle 2/4 violation by construction.
    GenericException(ErrorCode),
    /// An escaping error: the condition cannot be expressed in the I/O
    /// interface and must travel to the wrapper, which will classify its
    /// scope and record it in the result file.
    Escape(ScopedError),
}

impl IoError {
    /// True for escaping errors.
    pub fn is_escape(&self) -> bool {
        matches!(self, IoError::Escape(_))
    }
}

/// Result alias for library calls.
pub type IoResult<T> = Result<T, IoError>;

/// The I/O library bound to one transport.
pub struct ChirpClient<T: Transport> {
    transport: T,
    discipline: ClientDiscipline,
    /// Requests issued, for metrics.
    pub calls: u64,
    /// Typed per-operation telemetry, drained by the host (the starter)
    /// into the simulation's event collector.
    events: obs::RingBuffer<obs::Event>,
}

const LAYER: &str = "io-library";

/// How many I/O op events the client retains before evicting the oldest.
const EVENT_CAPACITY: usize = 4096;

impl<T: Transport> ChirpClient<T> {
    /// A scoped-discipline client.
    pub fn new(transport: T) -> Self {
        ChirpClient {
            transport,
            discipline: ClientDiscipline::Scoped,
            calls: 0,
            events: obs::RingBuffer::new(EVENT_CAPACITY),
        }
    }

    /// Select a discipline (builder style).
    pub fn with_discipline(mut self, d: ClientDiscipline) -> Self {
        self.discipline = d;
        self
    }

    /// The underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Authenticate with the cookie read from the scratch directory.
    pub fn auth(&mut self, cookie: &[u8]) -> IoResult<()> {
        let r = match self.call(&Request::Auth {
            cookie: cookie.to_vec(),
        }) {
            Ok(Response::Ok) => Ok(()),
            Ok(Response::Error(e)) => Err(self.explicit(e)),
            Ok(other) => Err(self.protocol_surprise("auth", &other)),
            Err(broke) => Err(broke),
        };
        self.finish("auth", r)
    }

    /// Open a file.
    pub fn open(&mut self, path: &str, mode: OpenMode) -> IoResult<Fd> {
        let r = match self.call(&Request::Open {
            path: path.to_string(),
            mode,
        }) {
            Ok(Response::Opened { fd }) => Ok(fd),
            Ok(Response::Error(e)) => Err(self.explicit(e)),
            Ok(other) => Err(self.protocol_surprise("open", &other)),
            Err(broke) => Err(broke),
        };
        self.finish("open", r)
    }

    /// Read up to `len` bytes. An empty vector means end of file.
    pub fn read(&mut self, fd: Fd, len: u32) -> IoResult<Vec<u8>> {
        let r = match self.call(&Request::Read { fd, len }) {
            Ok(Response::Data { data }) => Ok(data),
            Ok(Response::Error(e)) => Err(self.explicit(e)),
            Ok(other) => Err(self.protocol_surprise("read", &other)),
            Err(broke) => Err(broke),
        };
        self.finish("read", r)
    }

    /// Read the whole remainder of a file.
    pub fn read_all(&mut self, fd: Fd) -> IoResult<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let chunk = self.read(fd, 64 * 1024)?;
            if chunk.is_empty() {
                return Ok(out);
            }
            out.extend_from_slice(&chunk);
        }
    }

    /// Write all of `data`.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> IoResult<u32> {
        let r = match self.call(&Request::Write {
            fd,
            data: data.to_vec(),
        }) {
            Ok(Response::Written { len }) => Ok(len),
            Ok(Response::Error(e)) => Err(self.explicit(e)),
            Ok(other) => Err(self.protocol_surprise("write", &other)),
            Err(broke) => Err(broke),
        };
        self.finish("write", r)
    }

    /// Close a descriptor.
    pub fn close(&mut self, fd: Fd) -> IoResult<()> {
        let r = match self.call(&Request::Close { fd }) {
            Ok(Response::Ok) => Ok(()),
            Ok(Response::Error(e)) => Err(self.explicit(e)),
            Ok(other) => Err(self.protocol_surprise("close", &other)),
            Err(broke) => Err(broke),
        };
        self.finish("close", r)
    }

    /// Stat a path.
    pub fn stat(&mut self, path: &str) -> IoResult<FileInfo> {
        let r = match self.call(&Request::Stat {
            path: path.to_string(),
        }) {
            Ok(Response::Info(i)) => Ok(i),
            Ok(Response::Error(e)) => Err(self.explicit(e)),
            Ok(other) => Err(self.protocol_surprise("stat", &other)),
            Err(broke) => Err(broke),
        };
        self.finish("stat", r)
    }

    /// Recorded I/O op events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &obs::Event> {
        self.events.iter()
    }

    /// Drain the recorded op events (oldest first), leaving the log empty.
    pub fn take_events(&mut self) -> Vec<obs::Event> {
        let out: Vec<obs::Event> = self.events.iter().cloned().collect();
        self.events.clear();
        out
    }

    fn call(&mut self, req: &Request) -> Result<Response, IoError> {
        self.calls += 1;
        self.transport.call(req).map_err(|b| self.broken(b))
    }

    /// Record the op's outcome as a typed event and pass the result through.
    fn finish<V>(&mut self, op: &'static str, r: IoResult<V>) -> IoResult<V> {
        let outcome = match &r {
            Ok(_) => obs::IoOutcome::Ok,
            Err(IoError::Explicit(e)) => obs::IoOutcome::Error {
                code: e.to_string(),
            },
            Err(IoError::GenericException(c)) => obs::IoOutcome::Error {
                code: c.as_str().to_string(),
            },
            Err(IoError::Escape(se)) => obs::IoOutcome::Escaped {
                code: se.code.as_str().to_string(),
            },
        };
        self.events.push(obs::Event::IoOp {
            op: op.to_string(),
            outcome,
        });
        r
    }

    /// An in-vocabulary protocol error. Both disciplines deliver it
    /// explicitly; the naive one wraps it in its generic type, losing the
    /// contract information.
    fn explicit(&self, e: ChirpError) -> IoError {
        match self.discipline {
            ClientDiscipline::Scoped => IoError::Explicit(e),
            ClientDiscipline::NaiveGeneric => {
                IoError::GenericException(ErrorCode::owned(format!("IOException:{e}")))
            }
        }
    }

    /// The connection broke.
    fn broken(&self, b: Broken) -> IoError {
        // Recover the richest description available. In-process (the real
        // deployment: the proxy lives in the starter on the same host) the
        // disconnect reason is observable; over a raw socket it may not be.
        let (code, scope, detail): (ErrorCode, Scope, String) = match &b.reason {
            Some(DisconnectReason::Env(f)) => (f.code(), f.scope(), f.to_string()),
            Some(DisconnectReason::ContractViolation { op, code }) => (
                ErrorCode::owned(format!("ContractViolation:{code}")),
                Scope::Process,
                format!("backend produced {code} during {op}"),
            ),
            Some(DisconnectReason::ProtocolViolation(d)) => (
                ErrorCode::new("ProtocolViolation"),
                Scope::Process,
                d.clone(),
            ),
            None => (
                codes::CONNECTION_TIMED_OUT,
                Scope::Network,
                b.detail.clone(),
            ),
        };
        match self.discipline {
            ClientDiscipline::Scoped => {
                IoError::Escape(ScopedError::escaping(code, scope, LAYER, detail))
            }
            ClientDiscipline::NaiveGeneric => {
                // The flawed library extends IOException yet again.
                IoError::GenericException(ErrorCode::owned(format!("IOException:{code}")))
            }
        }
    }

    /// The server answered with a response shape that does not belong to
    /// this operation — a protocol violation, hence an escape (never a
    /// fabricated value: Principle 1).
    fn protocol_surprise(&self, op: &str, resp: &Response) -> IoError {
        let detail = format!("unexpected response to {op}: {resp:?}");
        match self.discipline {
            ClientDiscipline::Scoped => IoError::Escape(ScopedError::escaping(
                "ProtocolViolation",
                Scope::Process,
                LAYER,
                detail,
            )),
            ClientDiscipline::NaiveGeneric => {
                IoError::GenericException(ErrorCode::new("IOException:Protocol"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EnvFault, MemFs};
    use crate::cookie::Cookie;
    use crate::server::ChirpServer;
    use crate::transport::DirectTransport;

    fn client(
        discipline: ClientDiscipline,
        server_discipline: crate::server::ErrorDiscipline,
        prep: impl FnOnce(&mut MemFs),
    ) -> ChirpClient<DirectTransport<MemFs>> {
        let mut fs = MemFs::default();
        prep(&mut fs);
        let server = ChirpServer::new(fs, Cookie::generate(1)).with_discipline(server_discipline);
        let mut c = ChirpClient::new(DirectTransport::new(server)).with_discipline(discipline);
        c.auth(Cookie::generate(1).as_bytes()).unwrap();
        c
    }

    fn scoped(prep: impl FnOnce(&mut MemFs)) -> ChirpClient<DirectTransport<MemFs>> {
        client(
            ClientDiscipline::Scoped,
            crate::server::ErrorDiscipline::Scoped,
            prep,
        )
    }

    #[test]
    fn full_file_round_trip() {
        let mut c = scoped(|fs| {
            fs.put("in.dat", b"the quick brown fox");
        });
        let fd = c.open("in.dat", OpenMode::Read).unwrap();
        assert_eq!(c.read_all(fd).unwrap(), b"the quick brown fox");
        c.close(fd).unwrap();

        let out = c.open("out.dat", OpenMode::Write).unwrap();
        assert_eq!(c.write(out, b"results").unwrap(), 7);
        c.close(out).unwrap();
        assert_eq!(c.stat("out.dat").unwrap().size, 7);
    }

    #[test]
    fn missing_file_is_explicit_file_scope() {
        let mut c = scoped(|_| {});
        let err = c.open("ghost", OpenMode::Read).unwrap_err();
        assert_eq!(err, IoError::Explicit(ChirpError::NotFound));
        assert!(!err.is_escape());
    }

    #[test]
    fn offline_filesystem_escapes_with_local_resource_scope() {
        let mut c = scoped(|fs| {
            fs.put("f", b"x");
        });
        let fd = c.open("f", OpenMode::Read).unwrap();
        c.transport_mut()
            .server_mut()
            .unwrap()
            .backend_mut()
            .set_env_fault(Some(EnvFault::FilesystemOffline));
        let err = c.read(fd, 1).unwrap_err();
        let IoError::Escape(se) = err else {
            panic!("expected escape, got {err:?}")
        };
        assert_eq!(se.scope, Scope::LocalResource);
        assert_eq!(se.code, codes::FILESYSTEM_OFFLINE);
        assert_eq!(se.comm, errorscope::Comm::Escaping);
        assert_eq!(se.origin(), Some(LAYER));
    }

    #[test]
    fn naive_library_delivers_generic_exceptions() {
        let mut c = client(
            ClientDiscipline::NaiveGeneric,
            crate::server::ErrorDiscipline::NaiveGeneric,
            |fs| {
                fs.put("f", b"x");
            },
        );
        let fd = c.open("f", OpenMode::Read).unwrap();
        c.transport_mut()
            .server_mut()
            .unwrap()
            .backend_mut()
            .set_env_fault(Some(EnvFault::CredentialsExpired));
        let err = c.read(fd, 1).unwrap_err();
        // The environmental fault reaches the program as an "IOException".
        assert!(matches!(err, IoError::GenericException(_)));
    }

    #[test]
    fn escape_persists_after_disconnect() {
        let mut c = scoped(|fs| {
            fs.put("f", b"x");
        });
        let fd = c.open("f", OpenMode::Read).unwrap();
        c.transport_mut()
            .server_mut()
            .unwrap()
            .backend_mut()
            .set_env_fault(Some(EnvFault::ConnectionTimedOut));
        assert!(c.read(fd, 1).unwrap_err().is_escape());
        // Every subsequent operation also escapes — the connection is gone.
        assert!(c.stat("f").unwrap_err().is_escape());
        assert!(c.open("f", OpenMode::Read).unwrap_err().is_escape());
    }

    #[test]
    fn timeout_has_network_scope() {
        let mut c = scoped(|fs| {
            fs.put("f", b"x");
        });
        let fd = c.open("f", OpenMode::Read).unwrap();
        c.transport_mut()
            .server_mut()
            .unwrap()
            .backend_mut()
            .set_env_fault(Some(EnvFault::ConnectionTimedOut));
        let IoError::Escape(se) = c.read(fd, 1).unwrap_err() else {
            panic!()
        };
        assert_eq!(se.scope, Scope::Network);
    }

    #[test]
    fn bad_cookie_is_explicit() {
        let fs = MemFs::default();
        let server = ChirpServer::new(fs, Cookie::generate(1));
        let mut c = ChirpClient::new(DirectTransport::new(server));
        let err = c.auth(&[0; 32]).unwrap_err();
        assert_eq!(err, IoError::Explicit(ChirpError::NotAuthenticated));
    }

    #[test]
    fn op_events_record_outcomes_in_order() {
        let mut c = scoped(|fs| {
            fs.put("f", b"x");
        });
        let fd = c.open("f", OpenMode::Read).unwrap();
        let _ = c.open("ghost", OpenMode::Read); // explicit NotFound
        c.transport_mut()
            .server_mut()
            .unwrap()
            .backend_mut()
            .set_env_fault(Some(EnvFault::FilesystemOffline));
        let _ = c.read(fd, 1); // escapes
        let events = c.take_events();
        // auth (from the helper), open, open, read.
        assert_eq!(events.len(), 4);
        assert!(matches!(
            &events[1],
            obs::Event::IoOp { op, outcome: obs::IoOutcome::Ok } if op == "open"
        ));
        assert!(matches!(
            &events[2],
            obs::Event::IoOp {
                outcome: obs::IoOutcome::Error { .. },
                ..
            }
        ));
        assert!(matches!(
            &events[3],
            obs::Event::IoOp { op, outcome: obs::IoOutcome::Escaped { .. } } if op == "read"
        ));
        // Draining empties the log.
        assert!(c.take_events().is_empty());
        assert_eq!(c.events().count(), 0);
    }

    #[test]
    fn call_counter_advances() {
        let mut c = scoped(|fs| {
            fs.put("f", b"xy");
        });
        let before = c.calls;
        let fd = c.open("f", OpenMode::Read).unwrap();
        let _ = c.read_all(fd);
        assert!(c.calls > before + 1);
    }
}
