//! Properties of the Chirp protocol, run on seeded generated cases.

use chirp::backend::{BackendFailure, EnvFault, FileBackend, MemFs};
use chirp::cookie::Cookie;
use chirp::proto::{explicit_errors_of, ChirpError, FileInfo, OpenMode, Request, Response};
use chirp::server::{ChirpServer, ServerOutcome};
use chirp::wire::{
    decode_request, decode_response, deframe, deframe_with_limit, encode_request, encode_response,
    frame,
};
use propcheck::counting::{allocated, Counting};
use propcheck::{check, Gen};

#[global_allocator]
static GLOBAL: Counting = Counting;

const CASES: u64 = 256;

/// Printable ASCII, `[ -~]`.
fn path(g: &mut Gen) -> String {
    let printable: String = (' '..='~').collect();
    g.string(&printable, 0..=40)
}

/// A request of any of the twelve kinds.
fn any_request(g: &mut Gen) -> Request {
    let (fd, len) = (g.int(0..=u32::MAX), g.int(0..=u32::MAX));
    let (path, to, data) = (path(g), path(g), g.bytes(0..256));
    match g.below(12) {
        0 => Request::Auth { cookie: data },
        1 => {
            let mode = *g.pick(&[OpenMode::Read, OpenMode::Write, OpenMode::Append]);
            Request::Open { path, mode }
        }
        2 => Request::Read { fd, len },
        3 => Request::Write { fd, data },
        4 => Request::Close { fd },
        5 => Request::Stat { path },
        6 => Request::Unlink { path },
        7 => Request::Rename { from: path, to },
        8 => Request::GetFile { path },
        9 => Request::PutFile { path, data },
        10 => Request::PutCkpt { key: path, data },
        _ => Request::GetCkpt { key: path },
    }
}

fn any_response(g: &mut Gen) -> Response {
    let (fd, size, data) = (g.int(0..=u32::MAX), g.int(0..=u64::MAX), g.bytes(0..256));
    match g.below(6) {
        0 => Response::Ok,
        1 => Response::Opened { fd },
        2 => Response::Data { data },
        3 => Response::Written { len: fd },
        4 => Response::Info(FileInfo { size }),
        _ => Response::Error(ChirpError::from_byte(g.int(1u8..8)).unwrap()),
    }
}

/// Every request survives the wire.
#[test]
fn request_roundtrip() {
    check(4 * CASES, |g| {
        let req = any_request(g);
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    });
}

/// Every response survives the wire.
#[test]
fn response_roundtrip() {
    check(4 * CASES, |g| {
        let resp = any_response(g);
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    });
}

/// Decoding never panics — it parses or reports a protocol violation —
/// on 10^5 inputs per decoder: arbitrary bytes, and valid encodings
/// damaged (flipped, truncated, spliced, duplicated), which get past the
/// first tag byte far more often. `deframe_with_limit` also requests no
/// more of the allocator than the input's own length (plus an error
/// message), whatever length the prefix claims.
#[test]
fn decode_is_total() {
    check(100_000, |g| {
        let (request, response) = match g.below(3) {
            0 => (g.bytes(0..512), g.bytes(0..512)),
            _ => {
                let request = encode_request(&any_request(g));
                let response = encode_response(&any_response(g));
                (g.mutated(&request), g.mutated(&response))
            }
        };
        let _ = decode_request(&request);
        let _ = decode_response(&response);
        let stream = match g.below(2) {
            0 => request,
            _ => g.mutated(&frame(&request)),
        };
        let limit = *g.pick(&[0, 64, 1 << 16, u32::MAX]);
        let (out, _, requested) = allocated(|| deframe_with_limit(&stream, limit));
        // The payload's copy, or an error message: never the claimed length.
        assert!(requested <= stream.len() as u64 + 128, "{requested} bytes");
        if let Ok(Some((payload, used))) = out {
            assert_eq!(payload, stream[4..used]);
            assert!(payload.len() <= limit as usize);
        }
    });
}

/// A concatenated stream of frames deframes back into the original
/// payloads regardless of chunk boundaries.
#[test]
fn deframe_stream() {
    check(CASES, |g| {
        let payloads: Vec<Vec<u8>> = (0u8..g.int(1..8)).map(|i| vec![i; g.int(0..200)]).collect();
        let stream: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < stream.len() {
            let (payload, used) = deframe(&stream[pos..]).unwrap().unwrap();
            out.push(payload);
            pos += used;
        }
        assert_eq!(out, payloads);
    });
}

/// Truncating a frame anywhere yields "need more bytes", never garbage.
#[test]
fn truncated_frames_wait() {
    check(CASES, |g| {
        let data = g.bytes(0..100);
        let full = frame(&data);
        for cut in 0..full.len() {
            let r = deframe(&full[..cut]).unwrap();
            assert!(r.is_none(), "cut={cut} should be incomplete");
        }
        assert_eq!(deframe(&full).unwrap().unwrap(), (data, full.len()));
    });
}

/// The server never panics on any request sequence, and in the scoped
/// discipline never emits an out-of-vocabulary explicit error.
#[test]
fn server_is_total_and_contract_clean() {
    check(4 * CASES, |g| {
        let mut fs = MemFs::new(4096);
        fs.put("seed.txt", b"hello");
        let cookie = Cookie::generate(7);
        let mut server = ChirpServer::new(fs, cookie.clone());
        if g.bool() {
            let out = server.handle(&Request::Auth {
                cookie: cookie.as_bytes().to_vec(),
            });
            assert_eq!(out, ServerOutcome::Reply(Response::Ok));
        }
        for req in g.vec(0..40, any_request) {
            match server.handle(&req) {
                // Principle 4: any explicit error must be in the
                // operation's declared vocabulary.
                ServerOutcome::Reply(Response::Error(e)) => assert!(
                    explicit_errors_of(req.op()).contains(&e),
                    "{e} outside vocabulary of {}",
                    req.op()
                ),
                ServerOutcome::Reply(_) => {}
                ServerOutcome::Disconnect(_) => break, // connection over
            }
        }
    });
}

/// MemFs quota accounting never goes negative and never exceeds quota.
#[test]
fn memfs_quota_invariant() {
    check(CASES, |g| {
        let quota = 500u64;
        let mut fs = MemFs::new(quota);
        for _ in 0..g.int(0..60) {
            let (path, n) = (*g.pick(&["a", "b", "c"]), g.int(0usize..200));
            match g.below(4) {
                0 => drop(fs.create(path)),
                1 => drop(fs.append(path, &vec![0u8; n])),
                2 => drop(fs.unlink(path)),
                _ => drop(fs.read_at(path, 0, n as u32)),
            }
            assert!(fs.used() <= quota, "used {} > quota {quota}", fs.used());
        }
    });
}

/// Cookies only verify against themselves.
#[test]
fn cookie_verification() {
    check(CASES, |g| {
        let (seed_a, other) = (g.int(0..=u64::MAX), g.int(0..=u64::MAX));
        let seed_b = *g.pick(&[seed_a, other]);
        let a = Cookie::generate(seed_a);
        let b = Cookie::generate(seed_b);
        assert!(a.verify(a.as_bytes()));
        assert_eq!(a.verify(b.as_bytes()), seed_a == seed_b);
    });
}

/// Env faults always map to the same scope/code — the mapping is pure.
#[test]
fn env_fault_mapping_is_stable() {
    for f in [
        EnvFault::FilesystemOffline,
        EnvFault::CredentialsExpired,
        EnvFault::ConnectionTimedOut,
    ] {
        assert_eq!(f.code(), f.code());
        assert_eq!(f.scope(), f.scope());
        // And a faulted backend refuses everything with exactly that fault.
        let mut fs = MemFs::default();
        fs.put("x", b"1");
        fs.set_env_fault(Some(f));
        assert_eq!(fs.exists("x"), Err(BackendFailure::Env(f)));
        assert_eq!(fs.size("x"), Err(BackendFailure::Env(f)));
    }
}
