//! Transports carrying Chirp frames between the I/O library and the proxy.
//!
//! Two implementations:
//!
//! * [`DirectTransport`] — the client and server in one process, every
//!   message still passing through the real wire encoding. This is what the
//!   simulated grid uses: deterministic, and the bytes on the "wire" are
//!   real bytes — exactly `frame(&encode_request(..))` and
//!   `frame(&encode_response(..))` — but the wire is two buffers the
//!   transport keeps, so a message is written once, in place behind its
//!   length prefix, and read back as a slice: one copy, no allocation
//!   but the decoded message's own fields.
//! * [`ChannelTransport`] — the server on its own thread behind bounded
//!   channels, demonstrating the protocol is not simulation-only. The
//!   connection established "from one process to another on the loopback
//!   network interface" (§2.2).
//!
//! A transport failure *is* the escaping error: "On a network connection,
//! an escaping error is communicated by breaking the connection" (§3.1).
//! [`Broken`] carries the disconnect reason when the local end can know it
//! (the starter hosts the proxy, so in-process it always can).

use crate::backend::FileBackend;
use crate::proto::{Request, Response};
use crate::server::{ChirpServer, DisconnectReason, ServerOutcome};
use crate::wire::{
    decode_request, decode_response, deframe, encode_request, encode_response, frame,
    frame_request_in, frame_response_in, peel_frame, WireError, MAX_FRAME,
};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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

/// The threaded loopback transport.
pub struct ChannelTransport {
    tx: SyncSender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Disconnect reason recorded by the server thread (the starter's view).
    pub server_side_reason: Arc<Mutex<Option<DisconnectReason>>>,
    closed: bool,
}

impl ChannelTransport {
    /// Spawn `server` on its own thread and return a connected transport
    /// plus the server thread's handle.
    pub fn spawn<B: FileBackend + 'static>(
        mut server: ChirpServer<B>,
    ) -> (ChannelTransport, JoinHandle<ChirpServer<B>>) {
        let (req_tx, req_rx) = sync_channel::<Vec<u8>>(16);
        let (resp_tx, resp_rx) = sync_channel::<Vec<u8>>(16);
        let reason: Arc<Mutex<Option<DisconnectReason>>> = Arc::new(Mutex::new(None));
        let reason_server = Arc::clone(&reason);
        let record = move |r: DisconnectReason| {
            *reason_server
                .lock()
                .expect("reason lock is never held across a panic") = Some(r);
        };

        let handle = std::thread::spawn(move || {
            let mut buf: Vec<u8> = Vec::new();
            while let Ok(chunk) = req_rx.recv() {
                buf.extend_from_slice(&chunk);
                loop {
                    match deframe(&buf) {
                        Ok(Some((payload, used))) => {
                            buf.drain(..used);
                            let req = match decode_request(&payload) {
                                Ok(r) => r,
                                Err(e) => {
                                    record(DisconnectReason::ProtocolViolation(e.to_string()));
                                    return server; // drop channels: connection breaks
                                }
                            };
                            match server.handle(&req) {
                                ServerOutcome::Reply(resp) => {
                                    let bytes = frame(&encode_response(&resp));
                                    if resp_tx.send(bytes).is_err() {
                                        return server; // client went away
                                    }
                                }
                                ServerOutcome::Disconnect(r) => {
                                    record(r);
                                    return server;
                                }
                            }
                        }
                        Ok(None) => break, // need more bytes
                        Err(e) => {
                            record(DisconnectReason::ProtocolViolation(e.to_string()));
                            return server;
                        }
                    }
                }
            }
            server
        });

        (
            ChannelTransport {
                tx: req_tx,
                rx: resp_rx,
                server_side_reason: reason,
                closed: false,
            },
            handle,
        )
    }

    fn server_reason(&self) -> Option<DisconnectReason> {
        self.server_side_reason
            .lock()
            .expect("reason lock is never held across a panic")
            .clone()
    }
}

impl Transport for ChannelTransport {
    fn call(&mut self, req: &Request) -> Result<Response, Broken> {
        if self.closed {
            return Err(Broken {
                detail: "connection already closed".into(),
                reason: self.server_reason(),
            });
        }
        let bytes = frame(&encode_request(req));
        if self.tx.send(bytes).is_err() {
            self.closed = true;
            return Err(Broken {
                detail: "send failed: server hung up".into(),
                reason: self.server_reason(),
            });
        }
        match self.rx.recv() {
            Ok(chunk) => {
                let (payload, _) = deframe(&chunk)
                    .map_err(|e| Broken {
                        detail: e.to_string(),
                        reason: None,
                    })?
                    .ok_or_else(|| Broken {
                        detail: "short frame from server".into(),
                        reason: None,
                    })?;
                decode_response(&payload).map_err(|e| Broken {
                    detail: e.to_string(),
                    reason: None,
                })
            }
            Err(_) => {
                self.closed = true;
                Err(Broken {
                    detail: "recv failed: server hung up".into(),
                    reason: self.server_reason(),
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
    use crate::proto::{ChirpError, OpenMode};

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

    #[test]
    fn channel_transport_serves_requests() {
        let mut fs = MemFs::default();
        fs.put("data", b"threaded");
        let server = ChirpServer::new(fs, Cookie::generate(2));
        let (mut t, handle) = ChannelTransport::spawn(server);

        let r = t
            .call(&Request::Auth {
                cookie: Cookie::generate(2).as_bytes().to_vec(),
            })
            .unwrap();
        assert_eq!(r, Response::Ok);
        let Response::Opened { fd } = t
            .call(&Request::Open {
                path: "data".into(),
                mode: OpenMode::Read,
            })
            .unwrap()
        else {
            panic!()
        };
        let r = t.call(&Request::Read { fd, len: 100 }).unwrap();
        assert_eq!(
            r,
            Response::Data {
                data: b"threaded".to_vec()
            }
        );
        drop(t);
        let server = handle.join().unwrap();
        assert!(server.requests_handled >= 3);
    }

    #[test]
    fn channel_transport_surfaces_disconnect_reason() {
        let mut fs = MemFs::default();
        fs.put("data", b"x");
        fs.set_fault_after(2, EnvFault::CredentialsExpired);
        let server = ChirpServer::new(fs, Cookie::generate(3));
        let (mut t, handle) = ChannelTransport::spawn(server);

        t.call(&Request::Auth {
            cookie: Cookie::generate(3).as_bytes().to_vec(),
        })
        .unwrap();
        let Response::Opened { fd } = t
            .call(&Request::Open {
                path: "data".into(),
                mode: OpenMode::Read,
            })
            .unwrap()
        else {
            panic!()
        };
        // exists() consumed one op; read consumes the rest until the fault.
        let mut broke = None;
        for _ in 0..5 {
            match t.call(&Request::Read { fd, len: 1 }) {
                Ok(_) => continue,
                Err(b) => {
                    broke = Some(b);
                    break;
                }
            }
        }
        let b = broke.expect("connection should break");
        // The starter-side reason is recorded even if the client only saw a
        // hangup.
        let reason = b.reason.clone().or_else(|| t.server_reason());
        assert_eq!(
            reason,
            Some(DisconnectReason::Env(EnvFault::CredentialsExpired))
        );
        handle.join().unwrap();
    }

    #[test]
    fn wrong_cookie_over_channel() {
        let server = ChirpServer::new(MemFs::default(), Cookie::generate(4));
        let (mut t, handle) = ChannelTransport::spawn(server);
        let r = t
            .call(&Request::Auth {
                cookie: vec![9; 32],
            })
            .unwrap();
        assert_eq!(r, Response::Error(ChirpError::NotAuthenticated));
        drop(t);
        handle.join().unwrap();
    }
}
