//! Wire encoding: length-prefixed binary frames.
//!
//! Every request and response travels as one frame: a `u32` little-endian
//! payload length followed by the payload. Within a payload, integers are
//! little-endian and byte strings are `u32` length + bytes. A frame that
//! fails to decode is a protocol violation — the receiving end treats it as
//! a broken connection, not as any in-vocabulary error.

use crate::proto::{ChirpError, FileInfo, OpenMode, Request, Response};

/// Maximum payload we will accept, to bound memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A decoding failure — always a protocol violation, never an application
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol violation: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A borrowed cursor over one payload: every read is bounds-checked and
/// a short payload is a [`WireError`], never a panic.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(WireError(format!("truncated {what}")));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("took 4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }
    /// A `u32`-length-prefixed byte string; the declared length is checked
    /// against the bytes present before anything is allocated.
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.take(4, "length")?;
        let n = u32::from_le_bytes(n.try_into().expect("took 4 bytes")) as usize;
        Ok(self.take(n, "bytes")?.to_vec())
    }
    fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError("invalid utf-8".into()))
    }
    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError(format!("trailing bytes in {what}")))
        }
    }
}

/// Encode a request payload (without the outer frame length).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut b = Vec::new();
    write_request(&mut b, req);
    b
}

/// Append a request payload to `b`.
fn write_request(b: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Auth { cookie } => {
            b.push(0);
            put_bytes(b, cookie);
        }
        Request::Open { path, mode } => {
            b.push(1);
            put_str(b, path);
            b.push(mode.to_byte());
        }
        Request::Read { fd, len } => {
            b.push(2);
            put_u32(b, *fd);
            put_u32(b, *len);
        }
        Request::Write { fd, data } => {
            b.push(3);
            put_u32(b, *fd);
            put_bytes(b, data);
        }
        Request::Close { fd } => {
            b.push(4);
            put_u32(b, *fd);
        }
        Request::Stat { path } => {
            b.push(5);
            put_str(b, path);
        }
        Request::PutCkpt { key, data } => {
            b.push(10);
            put_str(b, key);
            put_bytes(b, data);
        }
        Request::GetCkpt { key } => {
            b.push(11);
            put_str(b, key);
        }
    }
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut buf = Reader { rest: payload };
    let tag = buf.u8()?;
    let req = match tag {
        0 => Request::Auth {
            cookie: buf.bytes()?,
        },
        1 => {
            let path = buf.str()?;
            let mode =
                OpenMode::from_byte(buf.u8()?).ok_or_else(|| WireError("bad open mode".into()))?;
            Request::Open { path, mode }
        }
        2 => Request::Read {
            fd: buf.u32()?,
            len: buf.u32()?,
        },
        3 => Request::Write {
            fd: buf.u32()?,
            data: buf.bytes()?,
        },
        4 => Request::Close { fd: buf.u32()? },
        5 => Request::Stat { path: buf.str()? },
        10 => {
            let key = buf.str()?;
            let data = buf.bytes()?;
            Request::PutCkpt { key, data }
        }
        11 => Request::GetCkpt { key: buf.str()? },
        t => return Err(WireError(format!("unknown request tag {t}"))),
    };
    buf.finish("request")?;
    Ok(req)
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut b = Vec::new();
    write_response(&mut b, resp);
    b
}

/// Append a response payload to `b`.
fn write_response(b: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Ok => b.push(0),
        Response::Opened { fd } => {
            b.push(1);
            put_u32(b, *fd);
        }
        Response::Data { data } => {
            b.push(2);
            put_bytes(b, data);
        }
        Response::Written { len } => {
            b.push(3);
            put_u32(b, *len);
        }
        Response::Info(info) => {
            b.push(4);
            b.extend_from_slice(&info.size.to_le_bytes());
        }
        Response::Error(e) => {
            b.push(255);
            b.push(e.to_byte());
        }
    }
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut buf = Reader { rest: payload };
    let tag = buf.u8()?;
    let resp = match tag {
        0 => Response::Ok,
        1 => Response::Opened { fd: buf.u32()? },
        2 => Response::Data { data: buf.bytes()? },
        3 => Response::Written { len: buf.u32()? },
        4 => Response::Info(FileInfo { size: buf.u64()? }),
        255 => Response::Error(
            ChirpError::from_byte(buf.u8()?)
                .ok_or_else(|| WireError("unknown error code".into()))?,
        ),
        t => return Err(WireError(format!("unknown response tag {t}"))),
    };
    buf.finish("response")?;
    Ok(resp)
}

/// Add the outer frame (u32 LE length prefix) to a payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Make `buf` hold exactly one frame: room for the length prefix, the
/// payload `write` appends, then the prefix filled in where it stands.
fn frame_in(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    write(buf);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
}

/// Make `buf` hold `frame(&encode_request(req))`, byte for byte, written
/// in place: a sender that keeps `buf` between messages copies each one
/// once and allocates nothing once the buffer has grown.
pub(crate) fn frame_request_in(buf: &mut Vec<u8>, req: &Request) {
    frame_in(buf, |b| write_request(b, req));
}

/// Make `buf` hold `frame(&encode_response(resp))`; see
/// [`frame_request_in`].
pub(crate) fn frame_response_in(buf: &mut Vec<u8>, resp: &Response) {
    frame_in(buf, |b| write_response(b, resp));
}

/// Strip one frame from the front of `stream`, if complete. Returns the
/// payload and the number of bytes consumed. Applies the default
/// [`MAX_FRAME`] cap; receivers with tighter memory budgets use
/// [`deframe_with_limit`].
pub fn deframe(stream: &[u8]) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    deframe_with_limit(stream, MAX_FRAME)
}

/// [`deframe`] with a caller-chosen frame cap. The length prefix is checked
/// against `limit` *before* any payload allocation, so an oversized
/// (checkpoint-scale) frame is an explicit protocol error — the receiver
/// hangs up — rather than an unbounded allocation.
pub fn deframe_with_limit(
    stream: &[u8],
    limit: u32,
) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    Ok(peel_frame(stream, limit)?.map(|(payload, used)| (payload.to_vec(), used)))
}

/// [`deframe_with_limit`] without the copy: the payload is a slice of
/// `stream`.
pub(crate) fn peel_frame(stream: &[u8], limit: u32) -> Result<Option<(&[u8], usize)>, WireError> {
    let Some(prefix) = stream.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > limit {
        return Err(WireError(format!(
            "frame of {len} bytes exceeds limit of {limit}"
        )));
    }
    let total = 4 + len as usize;
    Ok(stream.get(4..total).map(|payload| (payload, total)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One request of every kind (the transport's tests use these too).
    pub(crate) fn all_requests() -> Vec<Request> {
        vec![
            Request::Auth {
                cookie: vec![1, 2, 3],
            },
            Request::Open {
                path: "data/in.txt".into(),
                mode: OpenMode::Read,
            },
            Request::Open {
                path: "out".into(),
                mode: OpenMode::Append,
            },
            Request::Read { fd: 7, len: 4096 },
            Request::Write {
                fd: 7,
                data: b"hello".to_vec(),
            },
            Request::Close { fd: 7 },
            Request::Stat { path: "x/y".into() },
            Request::PutCkpt {
                key: "ckpt/job42/attempt1".into(),
                data: vec![0xC4; 512],
            },
            Request::GetCkpt {
                key: "ckpt/job42/attempt1".into(),
            },
        ]
    }

    /// One response of every kind.
    pub(crate) fn all_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Opened { fd: 3 },
            Response::Data {
                data: b"payload".to_vec(),
            },
            Response::Data { data: vec![] },
            Response::Written { len: 5 },
            Response::Info(FileInfo { size: 1 << 40 }),
            Response::Error(ChirpError::DiskFull),
            Response::Error(ChirpError::NotFound),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let enc = encode_request(&req);
            assert_eq!(decode_request(&enc).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in all_responses() {
            let enc = encode_response(&resp);
            assert_eq!(decode_response(&enc).unwrap(), resp);
        }
    }

    #[test]
    fn corrupt_frames_are_violations_not_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[255, 0]).is_err()); // error code 0 invalid
        assert!(decode_response(&[250]).is_err());
        // Truncated string.
        let mut enc = encode_request(&Request::Stat {
            path: "abcdef".into(),
        });
        enc.truncate(enc.len() - 3);
        assert!(decode_request(&enc).is_err());
        // Trailing garbage.
        let mut enc = encode_response(&Response::Ok);
        enc.push(0);
        assert!(decode_response(&enc).is_err());
        // Tags 6-9 (once `unlink`, `rename`, `getfile`, `putfile`) and
        // error byte 7 (once rename's name collision) are not part of the
        // protocol: a peer that sends them is refused like any foreign byte.
        let mut path = Vec::new();
        put_str(&mut path, "x");
        for tag in 6..=9u8 {
            let mut b = vec![tag];
            b.extend_from_slice(&path);
            assert_eq!(
                decode_request(&b),
                Err(WireError(format!("unknown request tag {tag}")))
            );
        }
        assert_eq!(
            decode_response(&[255, 7]),
            Err(WireError("unknown error code".into()))
        );
    }

    /// A connection can die after any byte. Every proper prefix of every
    /// encoded variant must come back as an explicit [`WireError`] — and
    /// every proper prefix of its frame as "incomplete" — never a panic
    /// and never a shorter message mistaken for a whole one.
    #[test]
    fn every_proper_prefix_is_an_explicit_error() {
        let requests = all_requests();
        let responses = all_responses();
        let payloads =
            (requests.iter().map(encode_request)).chain(responses.iter().map(encode_response));
        for (i, enc) in payloads.enumerate() {
            for cut in 0..enc.len() {
                let prefix = &enc[..cut];
                if i < requests.len() {
                    assert!(decode_request(prefix).is_err(), "request {i} cut at {cut}");
                } else {
                    assert!(
                        decode_response(prefix).is_err(),
                        "response {i} cut at {cut}"
                    );
                }
            }
            let framed = frame(&enc);
            for cut in 0..framed.len() {
                assert_eq!(deframe(&framed[..cut]), Ok(None), "frame {i} cut at {cut}");
            }
        }
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Hand-build an Open with invalid UTF-8 in the path.
        let mut b = vec![1u8];
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(&[0xFF, 0xFE]);
        b.push(0);
        assert!(decode_request(&b).is_err());
    }

    #[test]
    fn framing_in_place_writes_the_same_bytes_and_peels_without_copying() {
        let mut buf = Vec::new();
        for req in all_requests() {
            frame_request_in(&mut buf, &req);
            let payload = encode_request(&req);
            assert_eq!(buf, frame(&payload));
            assert_eq!(
                peel_frame(&buf, MAX_FRAME),
                Ok(Some((&payload[..], buf.len())))
            );
        }
        for resp in all_responses() {
            frame_response_in(&mut buf, &resp);
            assert_eq!(buf, frame(&encode_response(&resp)));
        }
        // Incomplete, and over the limit: what `deframe_with_limit` says.
        assert_eq!(peel_frame(&buf[..buf.len() - 1], MAX_FRAME), Ok(None));
        assert_eq!(peel_frame(&buf[..3], MAX_FRAME), Ok(None));
        assert!(peel_frame(&(MAX_FRAME + 1).to_le_bytes(), MAX_FRAME).is_err());
    }

    #[test]
    fn framing_round_trip() {
        let payload = encode_request(&Request::Close { fd: 1 });
        let framed = frame(&payload);
        let (got, used) = deframe(&framed).unwrap().unwrap();
        assert_eq!(got, payload);
        assert_eq!(used, framed.len());
    }

    #[test]
    fn deframe_handles_partial_and_concatenated() {
        let p1 = encode_request(&Request::Close { fd: 1 });
        let p2 = encode_request(&Request::Close { fd: 2 });
        let mut stream = frame(&p1);
        stream.extend_from_slice(&frame(&p2));

        // Partial: only 2 bytes of the length.
        assert_eq!(deframe(&stream[..2]).unwrap(), None);
        // Partial: length present, payload incomplete.
        assert_eq!(deframe(&stream[..5]).unwrap(), None);
        // First frame complete.
        let (got1, used1) = deframe(&stream).unwrap().unwrap();
        assert_eq!(got1, p1);
        let (got2, used2) = deframe(&stream[used1..]).unwrap().unwrap();
        assert_eq!(got2, p2);
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn oversized_frame_rejected() {
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(deframe(&huge).is_err());
    }

    #[test]
    fn configurable_frame_limit() {
        let payload = encode_request(&Request::PutCkpt {
            key: "k".into(),
            data: vec![0; 200],
        });
        let framed = frame(&payload);
        // Fits under the default cap.
        assert!(deframe(&framed).unwrap().is_some());
        // A tighter receiver rejects the same frame explicitly, without
        // waiting for (or allocating) the payload.
        let err = deframe_with_limit(&framed[..4], 64).unwrap_err();
        assert!(err.0.contains("exceeds limit of 64"));
        // At exactly the limit it is accepted.
        assert!(deframe_with_limit(&framed, payload.len() as u32)
            .unwrap()
            .is_some());
    }

    #[test]
    fn empty_write_and_large_write() {
        let req = Request::Write {
            fd: 0,
            data: vec![],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let req = Request::Write {
            fd: 0,
            data: vec![0xAB; 100_000],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }
}
