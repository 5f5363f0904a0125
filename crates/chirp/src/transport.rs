//! Transports carrying Chirp frames between the I/O library and the proxy.
//!
//! Two implementations:
//!
//! * [`DirectTransport`] — the client and server in one process, every
//!   message still passing through the real wire encoding. This is what the
//!   simulated grid uses: deterministic, allocation-cheap, but bytes on the
//!   "wire" are real bytes.
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
}

impl<B: FileBackend> DirectTransport<B> {
    /// Wrap a server.
    pub fn new(server: ChirpServer<B>) -> Self {
        DirectTransport {
            server: Some(server),
            last_disconnect: None,
        }
    }

    /// Access the server (e.g. for fault injection), if still connected.
    pub fn server_mut(&mut self) -> Option<&mut ChirpServer<B>> {
        self.server.as_mut()
    }
}

impl<B: FileBackend> Transport for DirectTransport<B> {
    fn call(&mut self, req: &Request) -> Result<Response, Broken> {
        let Some(server) = self.server.as_mut() else {
            return Err(Broken {
                detail: "connection already closed".into(),
                reason: self.last_disconnect.clone(),
            });
        };
        // Round-trip through the real encoding: any encoding bug is a test
        // failure, not a silent shortcut.
        let framed = frame(&encode_request(req));
        let (payload, _) = deframe(&framed)
            .expect("self-framed request")
            .expect("complete frame");
        let decoded = decode_request(&payload).map_err(|e| Broken {
            detail: format!("request failed to decode: {e}"),
            reason: None,
        })?;
        match server.handle(&decoded) {
            ServerOutcome::Reply(resp) => {
                let framed = frame(&encode_response(&resp));
                let (payload, _) = deframe(&framed)
                    .expect("self-framed response")
                    .expect("complete frame");
                decode_response(&payload).map_err(|e| Broken {
                    detail: format!("response failed to decode: {e}"),
                    reason: None,
                })
            }
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
