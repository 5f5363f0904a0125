//! The checkpoint server: a pool-level actor that stores checkpoint
//! images for evicted Standard-universe jobs.
//!
//! The paper's Standard universe checkpoints a job on eviction and resumes
//! it elsewhere "with its progress intact". This actor makes that concrete:
//! starters ship serialized [`ckpt::MachineState`] images here over the
//! Chirp protocol (`PUT_CKPT` / `GET_CKPT`), batched into
//! [`Msg::CkptRequest`] frames on the simulated network.
//!
//! The server stores bytes; it never inspects them. Integrity is the
//! *restorer's* concern: a corrupt or mismatched image is detected by the
//! starter at resume time and handled as an explicit checkpoint-scope
//! error (discard and cold-restart), never an implicit crash inside the
//! resumed program. To exercise exactly that path, tests can arm
//! [`CkptServer::corrupt_key_prefix`], which flips a byte in matching
//! images as they are stored.

use crate::msg::Msg;
use chirp::backend::MemFs;
use chirp::cookie::Cookie;
use chirp::server::{ChirpServer, ServerOutcome};
use chirp::wire;
use chirp::Request;
use desim::{Actor, ActorId, Context};

/// Traffic counters, inspectable after a run.
#[derive(Debug, Clone, Default)]
pub struct CkptServerStats {
    /// Checkpoint images stored.
    pub puts: u64,
    /// Checkpoint fetches served (including explicit `NotFound` answers).
    pub gets: u64,
    /// Frames rejected before dispatch (oversized or malformed).
    pub rejected_frames: u64,
    /// Total image bytes accepted by `PUT_CKPT`.
    pub bytes_stored: u64,
}

/// The checkpoint-server daemon.
pub struct CkptServer {
    server: ChirpServer<MemFs>,
    corrupt_prefixes: Vec<String>,
    flip_prefixes: Vec<(String, u64)>,
    /// Traffic counters.
    pub stats: CkptServerStats,
}

impl CkptServer {
    /// A fresh server trusting `cookie`. Frames are capped at
    /// [`wire::MAX_FRAME`].
    pub fn new(cookie: Cookie) -> CkptServer {
        CkptServer {
            server: ChirpServer::new(MemFs::default(), cookie),
            corrupt_prefixes: Vec::new(),
            flip_prefixes: Vec::new(),
            stats: CkptServerStats::default(),
        }
    }

    /// Fault injection: corrupt every image stored under a key starting
    /// with `prefix` (builder style). Use [`ckpt::key`] prefixes like
    /// `"ckpt/job3/"` to target one job.
    pub fn corrupt_key_prefix(mut self, prefix: &str) -> CkptServer {
        self.corrupt_prefixes.push(prefix.to_string());
        self
    }

    /// Fault injection for the SDC campaign: flip exactly one bit of
    /// every image stored under a key starting with `prefix` (builder
    /// style), and log the flip as an [`obs::Event::MemFlip`] attributed
    /// to `job` — bit rot in storage that the restorer's digest check
    /// must catch. Unlike [`CkptServer::corrupt_key_prefix`], the damage
    /// is on the scrubber's record, so a post-mortem can name it.
    pub fn flip_bit_key_prefix(mut self, prefix: &str, job: u64) -> CkptServer {
        self.flip_prefixes.push((prefix.to_string(), job));
        self
    }

    fn account(&mut self, req: &mut Request, ctx: &mut Context<'_, Msg>) {
        match req {
            Request::PutCkpt { key, data } => {
                self.stats.puts += 1;
                self.stats.bytes_stored += data.len() as u64;
                if self.corrupt_prefixes.iter().any(|p| key.starts_with(p)) {
                    *data = ckpt::corrupt_bytes(data, data.len() / 2);
                }
                if let Some((_, job)) = self
                    .flip_prefixes
                    .iter()
                    .find(|(p, _)| key.starts_with(p.as_str()))
                {
                    // The bit is a deterministic function of the key, so
                    // same-seed runs flip the same bit of the same image.
                    let (flipped, bit) = ckpt::flip_bit(data, ckpt::fnv1a(key.as_bytes()));
                    *data = flipped;
                    ctx.emit(obs::Event::MemFlip {
                        job: *job,
                        machine: ctx.self_id as u64,
                        target: "ckpt-image".to_string(),
                        bit,
                    });
                }
            }
            Request::GetCkpt { .. } => self.stats.gets += 1,
            _ => {}
        }
    }
}

impl Actor<Msg> for CkptServer {
    fn name(&self) -> String {
        "ckptserver".into()
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Msg::CkptRequest { frames } = msg else {
            return;
        };
        let mut out = Vec::new();
        let mut rest = &frames[..];
        loop {
            let (payload, consumed) = match wire::deframe(rest) {
                Ok(Some(hit)) => hit,
                Ok(None) => break,
                Err(_) => {
                    self.stats.rejected_frames += 1;
                    break;
                }
            };
            rest = &rest[consumed..];
            let mut req = match wire::decode_request(&payload) {
                Ok(req) => req,
                Err(_) => {
                    self.stats.rejected_frames += 1;
                    break;
                }
            };
            self.account(&mut req, ctx);
            match self.server.handle(&req) {
                ServerOutcome::Reply(resp) => {
                    out.extend_from_slice(&wire::frame(&wire::encode_response(&resp)));
                }
                ServerOutcome::Disconnect(_) => break,
            }
        }
        ctx.send_net(from, Msg::CkptResponse { frames: out });
    }
}
