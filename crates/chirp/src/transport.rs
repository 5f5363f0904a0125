//! Transports carrying Chirp frames between the I/O library and the proxy.
//!
//! [`Transport`] is the I/O library's one view of a connection: send a
//! request, get the reply or [`Broken`]. Two implementations:
//!
//! * [`DirectTransport`] — the client and server in one process, every
//!   message still passing through the real wire encoding. This is what the
//!   simulated grid uses: deterministic, and the bytes on the "wire" are
//!   real bytes — exactly `frame(&encode_request(..))` and
//!   `frame(&encode_response(..))` — but the wire is two buffers the
//!   transport keeps, so a message is written once, in place behind its
//!   length prefix, and read back as a slice: one copy, no allocation
//!   but the decoded message's own fields.
//! * [`TcpTransport`](crate::tcp::TcpTransport) — the proxy on a real
//!   `127.0.0.1` socket, the connection established "from one process to
//!   another on the loopback network interface" (§2.2); see [`crate::tcp`].
//!
//! A transport failure *is* the escaping error: "On a network connection,
//! an escaping error is communicated by breaking the connection" (§3.1).
//! [`Broken`] carries the disconnect reason when the local end can know
//! it: in process it always can, since the starter hosts the proxy. Over
//! TCP the job sees only the closed socket, and the reason stays with the
//! starter.

use crate::backend::FileBackend;
use crate::proto::{Request, Response};
use crate::server::{ChirpServer, DisconnectReason, ServerOutcome};
use crate::wire::{
    decode_request, decode_response, frame_request_in, frame_response_in, peel_frame, WireError,
    MAX_FRAME,
};

/// The connection is gone. Whatever the client was doing cannot be
/// expressed as a response — this is the network-level escaping error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Broken {
    /// Human-readable detail.
    pub detail: String,
    /// The server's reason, when observable from this side.
    pub reason: Option<DisconnectReason>,
}

impl std::fmt::Display for Broken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connection broken: {}", self.detail)
    }
}

impl std::error::Error for Broken {}

/// A request/reply channel to a Chirp proxy.
pub trait Transport {
    /// Send one request and await the reply. `Err` means the connection
    /// broke — before, during, or instead of the reply.
    fn call(&mut self, req: &Request) -> Result<Response, Broken>;
}

/// Client and server in one process, through the full wire encoding.
pub struct DirectTransport<B: FileBackend> {
    server: Option<ChirpServer<B>>,
    /// The reason the connection broke, observable by the hosting starter.
    pub last_disconnect: Option<DisconnectReason>,
    /// The wire, one buffer per direction: the last frame each end sent.
    request: Vec<u8>,
    reply: Vec<u8>,
}

impl<B: FileBackend> DirectTransport<B> {
    /// Wrap a server.
    pub fn new(server: ChirpServer<B>) -> Self {
        DirectTransport {
            server: Some(server),
            last_disconnect: None,
            request: Vec::new(),
            reply: Vec::new(),
        }
    }

    /// Access the server (e.g. for fault injection), if still connected.
    pub fn server_mut(&mut self) -> Option<&mut ChirpServer<B>> {
        self.server.as_mut()
    }
}

/// What the far end reads out of a wire buffer holding the one frame it
/// was just sent. Round-trip through the real encoding: any encoding bug
/// is a test failure, not a silent shortcut.
fn receive<M>(
    wire: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<M, WireError>,
    what: &str,
) -> Result<M, Broken> {
    let (payload, _) = peel_frame(wire, MAX_FRAME)
        .expect("self-framed message")
        .expect("complete frame");
    decode(payload).map_err(|e| Broken {
        detail: format!("{what} failed to decode: {e}"),
        reason: None,
    })
}

/// `req` as the server receives it over `wire`.
fn carry_request(wire: &mut Vec<u8>, req: &Request) -> Result<Request, Broken> {
    frame_request_in(wire, req);
    receive(wire, decode_request, "request")
}

/// `resp` as the client receives it over `wire`.
fn carry_response(wire: &mut Vec<u8>, resp: &Response) -> Result<Response, Broken> {
    frame_response_in(wire, resp);
    receive(wire, decode_response, "response")
}

impl<B: FileBackend> Transport for DirectTransport<B> {
    fn call(&mut self, req: &Request) -> Result<Response, Broken> {
        let Some(server) = self.server.as_mut() else {
            return Err(Broken {
                detail: "connection already closed".into(),
                reason: self.last_disconnect.clone(),
            });
        };
        let received = carry_request(&mut self.request, req)?;
        match server.handle(&received) {
            ServerOutcome::Reply(resp) => carry_response(&mut self.reply, &resp),
            ServerOutcome::Disconnect(reason) => {
                self.last_disconnect = Some(reason.clone());
                self.server = None;
                Err(Broken {
                    detail: format!("server disconnected: {reason:?}"),
                    reason: Some(reason),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EnvFault, MemFs};
    use crate::cookie::Cookie;
    use crate::proto::OpenMode;
    use crate::wire::{encode_request, encode_response, frame};

    fn authed_direct() -> DirectTransport<MemFs> {
        let mut fs = MemFs::default();
        fs.put("in", b"abc");
        let server = ChirpServer::new(fs, Cookie::generate(1));
        let mut t = DirectTransport::new(server);
        let r = t
            .call(&Request::Auth {
                cookie: Cookie::generate(1).as_bytes().to_vec(),
            })
            .unwrap();
        assert_eq!(r, Response::Ok);
        t
    }

    #[test]
    fn direct_round_trip() {
        let mut t = authed_direct();
        let r = t
            .call(&Request::Open {
                path: "in".into(),
                mode: OpenMode::Read,
            })
            .unwrap();
        let Response::Opened { fd } = r else {
            panic!("{r:?}")
        };
        let r = t.call(&Request::Read { fd, len: 10 }).unwrap();
        assert_eq!(
            r,
            Response::Data {
                data: b"abc".to_vec()
            }
        );
    }

    #[test]
    fn the_direct_wire_carries_the_bytes_the_encoders_produce() {
        use crate::wire::tests::{all_requests, all_responses};
        // One transport throughout: a short frame after a long one must
        // leave nothing of the long one behind.
        let mut t = authed_direct();
        for req in all_requests() {
            assert_eq!(carry_request(&mut t.request, &req), Ok(req.clone()));
            assert_eq!(t.request, frame(&encode_request(&req)), "{req:?}");
        }
        for resp in all_responses() {
            assert_eq!(carry_response(&mut t.reply, &resp), Ok(resp.clone()));
            assert_eq!(t.reply, frame(&encode_response(&resp)), "{resp:?}");
        }
        // And through `call`: what the server was sent, what it answered.
        for req in all_requests() {
            let mut t = authed_direct();
            let answered = t.call(&req).expect("no request here hangs the server up");
            assert_eq!(t.request, frame(&encode_request(&req)), "{req:?}");
            assert_eq!(t.reply, frame(&encode_response(&answered)), "{req:?}");
        }
    }

    #[test]
    fn direct_disconnect_breaks_connection_permanently() {
        let mut t = authed_direct();
        let Response::Opened { fd } = t
            .call(&Request::Open {
                path: "in".into(),
                mode: OpenMode::Read,
            })
            .unwrap()
        else {
            panic!()
        };
        t.server_mut()
            .unwrap()
            .backend_mut()
            .set_env_fault(Some(EnvFault::FilesystemOffline));
        let err = t.call(&Request::Read { fd, len: 1 }).unwrap_err();
        assert_eq!(
            err.reason,
            Some(DisconnectReason::Env(EnvFault::FilesystemOffline))
        );
        // The connection stays broken.
        let err = t.call(&Request::Stat { path: "in".into() }).unwrap_err();
        assert!(err.detail.contains("closed"));
        assert_eq!(
            t.last_disconnect,
            Some(DisconnectReason::Env(EnvFault::FilesystemOffline))
        );
    }
}
