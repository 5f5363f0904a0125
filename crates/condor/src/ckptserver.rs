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
//! resumed program. To exercise exactly that path the server reads the
//! pool's fault plan: a `CkptCorrupt` entry ([`crate::faults::Fault`])
//! corrupts a byte of every image stored for its job, unlogged, and a
//! `CkptFlip` entry flips one bit of each and logs the flip as a
//! `mem-flip` event the post-mortem can name.

use crate::faults::FaultPlan;
use crate::job::JobId;
use crate::msg::Msg;
use chirp::backend::MemFs;
use chirp::cookie::Cookie;
use chirp::server::{ChirpServer, ServerOutcome};
use chirp::wire;
use chirp::Request;
use desim::{Actor, ActorId, Context};
use std::sync::Arc;

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
    plan: Arc<FaultPlan>,
    /// Traffic counters.
    pub stats: CkptServerStats,
}

impl CkptServer {
    /// A fresh server trusting `cookie` and damaging stored images as
    /// `plan` schedules. Frames are capped at [`wire::MAX_FRAME`].
    pub fn new(cookie: Cookie, plan: Arc<FaultPlan>) -> CkptServer {
        CkptServer {
            server: ChirpServer::new(MemFs::default(), cookie),
            plan,
            stats: CkptServerStats::default(),
        }
    }

    fn account(&mut self, req: &mut Request, ctx: &mut Context<'_, Msg>) {
        match req {
            Request::PutCkpt { key, data } => {
                self.stats.puts += 1;
                self.stats.bytes_stored += data.len() as u64;
                let Some(job) = ckpt::key_job(key).and_then(|j| JobId::try_from(j).ok()) else {
                    return;
                };
                if self.plan.ckpt_corrupted(job) {
                    *data = ckpt::corrupt_bytes(data, data.len() / 2);
                }
                if self.plan.ckpt_flipped(job) {
                    // The bit is a deterministic function of the key, so
                    // same-seed runs flip the same bit of the same image.
                    let (flipped, bit) = ckpt::flip_bit(data, ckpt::fnv1a(key.as_bytes()));
                    *data = flipped;
                    ctx.emit(obs::Event::MemFlip {
                        job: u64::from(job),
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
