//! # ckpt — the checkpoint image format
//!
//! Condor's answer to "an in-between scope means the job is not ruined —
//! try another site" is checkpointing: capture the process state, move it,
//! resume it elsewhere. This crate is the *format* half of that subsystem:
//! a versioned, checksum-guarded serialisation of a suspended `gridvm`
//! machine (frames, operand stack, heap, instruction and I/O cursors,
//! buffered stdout), bound to the program image it was taken from.
//!
//! The format is deliberately paranoid, because a checkpoint is the one
//! artifact whose corruption would otherwise surface as an *implicit*
//! error inside the resumed program — wrong answers, not error messages.
//! Per principle P2, every way a stored image can be unusable is a typed,
//! **explicit** [`CkptError`] detected *before* resumption:
//!
//! * [`CkptError::BadMagic`] / [`CkptError::Truncated`] — not a checkpoint
//!   at all, or cut short in storage or transit.
//! * [`CkptError::ChecksumMismatch`] — bit rot; the trailing body sum
//!   does not match.
//! * [`CkptError::VersionMismatch`] — written by a different format
//!   revision; resuming would misinterpret the state.
//! * [`CkptError::ImageMismatch`] — a valid checkpoint for a *different*
//!   program image; resuming would run the wrong program from the middle.
//! * [`CkptError::Malformed`] — the bytes are intact but cannot be a
//!   machine (non-UTF-8 stdout here; structural checks in `gridvm`).
//!
//! The recovery decision (discard and cold-restart) belongs to the caller;
//! this crate only guarantees the error is explicit and early.
//!
//! ## The body sum (format version 2)
//!
//! A checkpoint is cut on every eviction and verified on every resume, so
//! the integrity check runs over megabytes of heap per job hop. Version 1
//! summed the body with byte-wise FNV-1a: one dependent multiply per byte,
//! about 0.7 GB/s. Version 2 keeps the 8-byte trailing field and changes
//! what it holds: the body is read as little-endian 8-byte words dealt
//! round-robin to **four independent lanes**, each stepping
//! `h = (h ^ w) * P; h ^= h >> 32`; after the last whole 32-byte block
//! the lanes are folded, in order, into one accumulator by the same step,
//! then the sub-32-byte tail goes in through byte-wise [`fnv1a`], then
//! the body length. Four multiply chains in flight hide the multiplier's
//! latency, so the sum runs at several GB/s in safe Rust.
//!
//! Why any single-word (hence any single-bit) change is caught: the step
//! is a bijection of `h` for a fixed word (xor, multiply by an odd
//! constant and xor-shift each are) and, for a fixed `h`, injective in the
//! word. A changed word therefore changes its lane right there, every
//! later step of that lane preserves the difference, and so does each fold
//! step, the tail step and the length step. A changed tail byte changes
//! `fnv1a(tail)` by the same argument one level down.
//!
//! Version 1 images are not read. One whose version field says 1 and
//! whose byte-wise FNV-1a sum verifies is recognised as a genuine old
//! image and reported as [`CkptError::VersionMismatch`]; everything else
//! that fails the version-2 sum is [`CkptError::ChecksumMismatch`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Leading magic bytes of every checkpoint image.
pub const MAGIC: &[u8; 4] = b"CKP1";

/// Current format version. Bump on any layout change; images written by
/// other versions are rejected with [`CkptError::VersionMismatch`].
pub const VERSION: u16 = 2;

/// FNV-1a over a byte slice — the same integrity primitive the program
/// image format uses, duplicated here so the format crate stays
/// dependency-free. Callers use it as the image-binding digest; the body
/// sum uses it for the sub-block tail.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = OFFSET_BASIS;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One step of the word hash: a bijection of `h` for a fixed `w`, and
/// injective in `w` for a fixed `h`.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(PRIME);
    h ^ (h >> 32)
}

/// The version-2 body sum (see the module docs): four FNV-style lanes
/// over little-endian 8-byte words, folded in order, then the tail
/// through [`fnv1a`], then the length.
fn body_sum(body: &[u8]) -> u64 {
    let mut lanes = [OFFSET_BASIS; 4];
    let mut blocks = body.chunks_exact(32);
    for block in &mut blocks {
        let word = |at: usize| u64::from_le_bytes(block[at..at + 8].try_into().unwrap());
        lanes = [
            mix(lanes[0], word(0)),
            mix(lanes[1], word(8)),
            mix(lanes[2], word(16)),
            mix(lanes[3], word(24)),
        ];
    }
    let mut h = lanes.into_iter().fold(0, mix);
    h = mix(h, fnv1a(blocks.remainder()));
    mix(h, body.len() as u64)
}

/// One suspended call frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameState {
    /// Index of the function being executed.
    pub func: u32,
    /// Program counter within that function.
    pub pc: u32,
    /// Local variable slots.
    pub locals: Vec<i64>,
}

/// A complete suspended machine: everything the interpreter needs to
/// continue exactly where it stopped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineState {
    /// FNV-1a digest of the program image bytes this state belongs to.
    /// Restoring against a different image is [`CkptError::ImageMismatch`].
    pub image_digest: u64,
    /// Instructions executed so far (the fuel cursor).
    pub instructions: u64,
    /// I/O operations performed so far (the I/O cursor, so a resumed run
    /// knows how much of the I/O script has already happened).
    pub io_ops: u64,
    /// Heap words currently allocated.
    pub heap_words: u64,
    /// Standard output buffered so far.
    pub stdout: String,
    /// The call stack, outermost first.
    pub frames: Vec<FrameState>,
    /// The operand stack.
    pub stack: Vec<i64>,
    /// The heap: arrays addressed by handle = index + 1.
    pub heap: Vec<Vec<i64>>,
}

/// Every way a stored checkpoint can be unusable. All of these are
/// *explicit* errors discovered before resumption (P2): none of them may
/// surface as a crash or wrong answer inside the resumed program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The bytes do not begin with the checkpoint magic.
    BadMagic,
    /// The image ends before its declared content does.
    Truncated,
    /// The trailing checksum does not match the body.
    ChecksumMismatch,
    /// Written by a different format version.
    VersionMismatch {
        /// Version found in the image.
        found: u16,
        /// Version this code understands.
        expected: u16,
    },
    /// A valid checkpoint, but for a different program image.
    ImageMismatch {
        /// Digest recorded in the checkpoint.
        found: u64,
        /// Digest of the image being resumed.
        expected: u64,
    },
    /// The state decodes but is structurally impossible for the image it
    /// claims (dangling function index, wrong local count, …). Resuming
    /// it would crash the interpreter — an implicit error — so it is
    /// rejected explicitly instead.
    Malformed(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint image (bad magic)"),
            CkptError::Truncated => write!(f, "checkpoint image truncated"),
            CkptError::ChecksumMismatch => write!(f, "checkpoint image checksum mismatch"),
            CkptError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} (this system reads version {expected})"
            ),
            CkptError::ImageMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to image {found:#018x}, not {expected:#018x}"
            ),
            CkptError::Malformed(what) => write!(f, "checkpoint state malformed: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// The storage key for a checkpoint: one per (job, attempt), so a retry
/// never silently clobbers the image an earlier resume may still need.
pub fn key(job: u64, attempt: u32) -> String {
    format!("ckpt/job{job}/attempt{attempt}")
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if n > self.b.len() - self.pos {
            return Err(CkptError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A length-prefixed array, moved whole: the declared length is
    /// checked against the bytes present before anything is allocated.
    fn i64s(&mut self) -> Result<Vec<i64>, CkptError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(8).ok_or(CkptError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| i64::from_le_bytes(w.try_into().unwrap()))
            .collect())
    }
    fn str(&mut self) -> Result<String, CkptError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Malformed("stdout is not UTF-8".into()))
    }
}

/// Words per block of the bulk array writer.
const PUT_CHUNK: usize = 512;

/// A length-prefixed array, moved a block at a time: words are laid into
/// a stack buffer (a plain copy on little-endian hosts) and appended with
/// one `extend_from_slice` per block rather than one per word.
fn put_i64s(out: &mut Vec<u8>, v: &[i64]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    let mut buf = [0u8; PUT_CHUNK * 8];
    for block in v.chunks(PUT_CHUNK) {
        for (slot, x) in buf.chunks_exact_mut(8).zip(block) {
            slot.copy_from_slice(&x.to_le_bytes());
        }
        out.extend_from_slice(&buf[..block.len() * 8]);
    }
}

impl MachineState {
    /// Exact length of [`MachineState::to_bytes`]'s output, so a
    /// megabyte heap is written into one allocation.
    fn encoded_len(&self) -> usize {
        let arrays = self.frames.iter().map(|f| &f.locals);
        let arrays = arrays.chain([&self.stack]).chain(&self.heap);
        let words: usize = arrays.map(|a| 4 + 8 * a.len()).sum();
        MAGIC.len() + 2 + 4 * 8 + 4 + self.stdout.len() + 4 + 8 * self.frames.len() + 4 + words + 8
    }

    /// Serialise: magic, version, state, trailing body sum over
    /// everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.image_digest.to_le_bytes());
        out.extend_from_slice(&self.instructions.to_le_bytes());
        out.extend_from_slice(&self.io_ops.to_le_bytes());
        out.extend_from_slice(&self.heap_words.to_le_bytes());
        out.extend_from_slice(&(self.stdout.len() as u32).to_le_bytes());
        out.extend_from_slice(self.stdout.as_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for fr in &self.frames {
            out.extend_from_slice(&fr.func.to_le_bytes());
            out.extend_from_slice(&fr.pc.to_le_bytes());
            put_i64s(&mut out, &fr.locals);
        }
        put_i64s(&mut out, &self.stack);
        out.extend_from_slice(&(self.heap.len() as u32).to_le_bytes());
        for a in &self.heap {
            put_i64s(&mut out, a);
        }
        let sum = body_sum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and integrity-check a checkpoint image. Order of checks:
    /// magic, length, checksum, version — so a flipped bit is reported as
    /// corruption, not misread as another version. The one image that
    /// fails the sum and is still a version error is a genuine version-1
    /// image: its version field reads 1 *and* its byte-wise FNV-1a sum
    /// verifies.
    pub fn from_bytes(bytes: &[u8]) -> Result<MachineState, CkptError> {
        if bytes.len() < MAGIC.len() + 2 + 8 {
            if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] != MAGIC {
                return Err(CkptError::BadMagic);
            }
            return Err(CkptError::Truncated);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if body_sum(body) != declared {
            let v1 = body[MAGIC.len()..MAGIC.len() + 2] == 1u16.to_le_bytes();
            if v1 && fnv1a(body) == declared {
                return Err(CkptError::VersionMismatch {
                    found: 1,
                    expected: VERSION,
                });
            }
            return Err(CkptError::ChecksumMismatch);
        }
        let mut r = Reader {
            b: body,
            pos: MAGIC.len(),
        };
        let version = r.u16()?;
        if version != VERSION {
            return Err(CkptError::VersionMismatch {
                found: version,
                expected: VERSION,
            });
        }
        let image_digest = r.u64()?;
        let instructions = r.u64()?;
        let io_ops = r.u64()?;
        let heap_words = r.u64()?;
        let stdout = r.str()?;
        let nframes = r.u32()? as usize;
        let mut frames = Vec::with_capacity(nframes.min(1 << 12));
        for _ in 0..nframes {
            let func = r.u32()?;
            let pc = r.u32()?;
            let locals = r.i64s()?;
            frames.push(FrameState { func, pc, locals });
        }
        let stack = r.i64s()?;
        let nheap = r.u32()? as usize;
        let mut heap = Vec::with_capacity(nheap.min(1 << 12));
        for _ in 0..nheap {
            heap.push(r.i64s()?);
        }
        if r.pos != body.len() {
            return Err(CkptError::Truncated);
        }
        Ok(MachineState {
            image_digest,
            instructions,
            io_ops,
            heap_words,
            stdout,
            frames,
            stack,
            heap,
        })
    }

    /// Validate this state against the digest of the image about to be
    /// resumed.
    pub fn check_image(&self, expected_digest: u64) -> Result<(), CkptError> {
        if self.image_digest != expected_digest {
            return Err(CkptError::ImageMismatch {
                found: self.image_digest,
                expected: expected_digest,
            });
        }
        Ok(())
    }
}

/// Flip one bit of a serialised checkpoint — the fault-injection helper
/// the corruption experiments use. Skips the magic so the damage lands in
/// the body (and is therefore a checksum error, not a magic error).
pub fn corrupt_bytes(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.len() > MAGIC.len() {
        let span = out.len() - MAGIC.len();
        let idx = MAGIC.len() + at % span;
        out[idx] ^= 0x10;
    }
    out
}

/// Flip exactly the bit addressed by `bit` (reduced modulo the body's bit
/// count), skipping the magic like [`corrupt_bytes`]. Returns the flipped
/// copy and the absolute bit index that changed — the SDC campaign's
/// injector records that index so the post-mortem can name the damage.
/// Images too short to have a body are returned unchanged (with index 0).
pub fn flip_bit(bytes: &[u8], bit: u64) -> (Vec<u8>, u64) {
    let mut out = bytes.to_vec();
    if out.len() <= MAGIC.len() {
        return (out, 0);
    }
    let span_bits = ((out.len() - MAGIC.len()) * 8) as u64;
    let b = bit % span_bits;
    let idx = MAGIC.len() + (b / 8) as usize;
    out[idx] ^= 1 << (b % 8);
    (out, idx as u64 * 8 + b % 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MachineState {
        MachineState {
            image_digest: 0xdead_beef_cafe_f00d,
            instructions: 4242,
            io_ops: 3,
            heap_words: 7,
            stdout: "17\n".into(),
            frames: vec![
                FrameState {
                    func: 0,
                    pc: 9,
                    locals: vec![1, -2, 3],
                },
                FrameState {
                    func: 2,
                    pc: 0,
                    locals: vec![],
                },
            ],
            stack: vec![5, -6],
            heap: vec![vec![0, 1, 2], vec![], vec![9, 9]],
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let bytes = s.to_bytes();
        assert_eq!(MachineState::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn empty_state_round_trips() {
        let s = MachineState::default();
        assert_eq!(MachineState::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn bad_magic_is_explicit() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            MachineState::from_bytes(&bytes).unwrap_err(),
            CkptError::BadMagic
        );
        assert_eq!(
            MachineState::from_bytes(b"XYZQ").unwrap_err(),
            CkptError::BadMagic
        );
    }

    #[test]
    fn truncation_is_explicit() {
        let bytes = sample().to_bytes();
        assert_eq!(
            MachineState::from_bytes(&bytes[..3]).unwrap_err(),
            CkptError::Truncated
        );
        // Cutting the tail invalidates the checksum before anything else.
        assert_eq!(
            MachineState::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err(),
            CkptError::ChecksumMismatch
        );
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let bytes = sample().to_bytes();
        for at in 0..(bytes.len() - MAGIC.len()) {
            let bad = corrupt_bytes(&bytes, at);
            assert!(
                MachineState::from_bytes(&bad).is_err(),
                "flip at {at} went undetected"
            );
        }
    }

    #[test]
    fn every_flip_bit_is_caught_and_reported() {
        let bytes = sample().to_bytes();
        let body_bits = (bytes.len() - MAGIC.len()) as u64 * 8;
        for bit in 0..body_bits {
            let (bad, landed) = flip_bit(&bytes, bit);
            assert!(
                MachineState::from_bytes(&bad).is_err(),
                "bit flip {bit} went undetected"
            );
            // The reported index names the one byte that differs.
            let idx = (landed / 8) as usize;
            assert_eq!(bad[idx] ^ bytes[idx], 1 << (landed % 8));
            assert!(bad.iter().zip(&bytes).filter(|(a, b)| a != b).count() == 1);
            // Reduction is modulo the body: a huge seed lands too.
            let (worse, _) = flip_bit(&bytes, bit + body_bits * 7);
            assert_eq!(worse, bad);
        }
        // Degenerate images pass through unchanged.
        assert_eq!(flip_bit(b"CKP1", 3), (b"CKP1".to_vec(), 0));
    }

    #[test]
    fn version_mismatch_is_explicit() {
        // Hand-craft a v3 image with a correct body sum.
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&3u16.to_le_bytes());
        let sum = body_sum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            MachineState::from_bytes(&body).unwrap_err(),
            CkptError::VersionMismatch {
                found: 3,
                expected: VERSION
            }
        );
    }

    /// `s` in the version-1 layout: same fields, version field 1,
    /// byte-wise FNV-1a as the trailing sum.
    fn v1_image(s: &MachineState) -> Vec<u8> {
        let mut bytes = s.to_bytes();
        bytes.truncate(bytes.len() - 8);
        bytes[MAGIC.len()..MAGIC.len() + 2].copy_from_slice(&1u16.to_le_bytes());
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn genuine_v1_image_is_a_version_mismatch_not_corruption() {
        let old = v1_image(&sample());
        assert_eq!(
            MachineState::from_bytes(&old).unwrap_err(),
            CkptError::VersionMismatch {
                found: 1,
                expected: 2
            }
        );
        // A damaged v1 image verifies under neither sum: corruption.
        let (bad, _) = flip_bit(&old, 200);
        assert_eq!(
            MachineState::from_bytes(&bad).unwrap_err(),
            CkptError::ChecksumMismatch
        );
        // A v2 image whose version field is knocked to 1 is corruption
        // too: its sum is not the byte-wise one.
        let mut bytes = sample().to_bytes();
        bytes[MAGIC.len()] = 1;
        assert_eq!(
            MachineState::from_bytes(&bytes).unwrap_err(),
            CkptError::ChecksumMismatch
        );
    }

    #[test]
    fn non_utf8_stdout_is_malformed_not_truncated() {
        let mut s = sample();
        s.stdout = "ab".into();
        let mut bytes = s.to_bytes();
        let at = MAGIC.len() + 2 + 4 * 8 + 4;
        assert_eq!(&bytes[at..at + 2], b"ab");
        bytes[at] = 0xff;
        let sum_at = bytes.len() - 8;
        let sum = body_sum(&bytes[..sum_at]);
        bytes[sum_at..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            MachineState::from_bytes(&bytes).unwrap_err(),
            CkptError::Malformed("stdout is not UTF-8".into())
        );
    }

    /// A state whose image body is exactly `body_len` bytes long.
    fn state_with_body_len(body_len: usize) -> MachineState {
        let empty = MachineState::default().to_bytes().len() - 8;
        let s = MachineState {
            image_digest: 0x0123_4567_89ab_cdef,
            stdout: "x".repeat(body_len - empty),
            ..MachineState::default()
        };
        assert_eq!(s.to_bytes().len() - 8, body_len);
        s
    }

    #[test]
    fn every_bit_flip_is_explicit_at_every_lane_and_tail_boundary() {
        // Body lengths covering every residue mod 32: 0..=31 tail bytes
        // after one and after two whole four-lane blocks.
        let mut residues = [false; 32];
        for body_len in 64..128 {
            residues[body_len % 32] = true;
            let s = state_with_body_len(body_len);
            let bytes = s.to_bytes();
            assert_eq!(MachineState::from_bytes(&bytes).unwrap(), s);
            // Every bit after the magic, the trailing sum included.
            for bit in 0..(bytes.len() - MAGIC.len()) as u64 * 8 {
                let (bad, _) = flip_bit(&bytes, bit);
                assert!(
                    MachineState::from_bytes(&bad).is_err(),
                    "body {body_len}: flip of bit {bit} went undetected"
                );
            }
        }
        assert!(residues.iter().all(|r| *r));
    }

    #[test]
    fn sampled_flips_over_a_megabyte_heap_image_are_all_caught() {
        // The shape `heap_sum(200k)` checkpoints at: one 1.6 MB array.
        let s = MachineState {
            image_digest: 7,
            instructions: 1_000_000,
            heap_words: 200_000,
            frames: vec![FrameState {
                func: 0,
                pc: 24,
                locals: vec![1, 66_000, 0],
            }],
            heap: vec![(1..=200_000).collect()],
            ..MachineState::default()
        };
        let bytes = s.to_bytes();
        assert_eq!(MachineState::from_bytes(&bytes).unwrap(), s);
        let mut bad = bytes.clone();
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = (z >> 20) % ((bytes.len() - MAGIC.len()) as u64 * 8);
            let at = MAGIC.len() + (bit / 8) as usize;
            bad[at] ^= 1 << (bit % 8);
            assert!(
                MachineState::from_bytes(&bad).is_err(),
                "flip of bit {bit} went undetected"
            );
            bad[at] = bytes[at];
        }
    }

    #[test]
    fn truncation_at_every_length_is_explicit() {
        let bytes = state_with_body_len(100).to_bytes();
        for len in 0..bytes.len() {
            let err = MachineState::from_bytes(&bytes[..len]).unwrap_err();
            if len < MAGIC.len() + 2 + 8 {
                assert_eq!(err, CkptError::Truncated, "cut at {len}");
            } else {
                assert_eq!(err, CkptError::ChecksumMismatch, "cut at {len}");
            }
        }
    }

    #[test]
    fn arrays_round_trip_across_the_bulk_writers_chunk_edges() {
        for n in [0usize, 1, PUT_CHUNK - 1, PUT_CHUNK, PUT_CHUNK + 1] {
            let words: Vec<i64> = (0..n as i64)
                .map(|i| i.wrapping_mul(-0x0123_4567_89ab))
                .collect();
            let s = MachineState {
                heap_words: n as u64,
                frames: vec![FrameState {
                    func: 0,
                    pc: 0,
                    locals: words.clone(),
                }],
                stack: words.clone(),
                heap: vec![words.clone(), vec![], words],
                ..MachineState::default()
            };
            let bytes = s.to_bytes();
            assert_eq!(bytes.len(), s.encoded_len());
            assert_eq!(MachineState::from_bytes(&bytes).unwrap(), s, "n = {n}");
        }
    }

    #[test]
    fn an_array_length_beyond_the_image_is_truncation_before_allocation() {
        // An empty state whose stack claims u32::MAX words, re-summed.
        let mut bytes = MachineState::default().to_bytes();
        let sum_at = bytes.len() - 8;
        let stack_len_at = sum_at - 8;
        bytes[stack_len_at..stack_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = body_sum(&bytes[..sum_at]);
        bytes[sum_at..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            MachineState::from_bytes(&bytes).unwrap_err(),
            CkptError::Truncated
        );
    }

    #[test]
    fn image_binding_is_checked() {
        let s = sample();
        assert!(s.check_image(0xdead_beef_cafe_f00d).is_ok());
        assert_eq!(
            s.check_image(1).unwrap_err(),
            CkptError::ImageMismatch {
                found: 0xdead_beef_cafe_f00d,
                expected: 1
            }
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let s = sample();
        let mut bytes = s.to_bytes();
        // Splice extra bytes before the checksum and re-checksum, so only
        // the length discipline can catch it.
        let sum_at = bytes.len() - 8;
        bytes.truncate(sum_at);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let sum = body_sum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            MachineState::from_bytes(&bytes).unwrap_err(),
            CkptError::Truncated
        );
    }

    /// Spliced, duplicated, cut and overwritten spans of a valid image —
    /// three times in four with the body sum made good again, so the
    /// damage reaches the structural decoder instead of stopping at the
    /// sum — decode or fail with a named error, never a panic; what
    /// decodes encodes back to the bytes it came from.
    #[test]
    fn mutated_valid_images_decode_or_fail_by_name() {
        let mut outcomes = std::collections::BTreeMap::new();
        propcheck::check(100_000, |g| {
            let words = |g: &mut propcheck::Gen| g.vec(0..6, |g| g.int(i64::MIN..=i64::MAX));
            let state = MachineState {
                image_digest: g.u64(),
                instructions: g.u64(),
                io_ops: g.int(0..9u64),
                heap_words: g.int(0..99u64),
                stdout: g.string("ab1\n\u{e9}", 0..=6),
                frames: g.vec(1..3, |g| FrameState {
                    func: g.int(0..3u32),
                    pc: g.int(0..40u32),
                    locals: words(g),
                }),
                stack: words(g),
                heap: g.vec(0..3, words),
            };
            let valid = state.to_bytes();
            let bytes = if g.below(4) == 0 {
                g.mutated(&valid)
            } else {
                let mut body = g.mutated(&valid[..valid.len() - 8]);
                body.extend_from_slice(&body_sum(&body).to_le_bytes());
                body
            };
            let outcome = match MachineState::from_bytes(&bytes) {
                Ok(decoded) => {
                    assert_eq!(decoded.to_bytes(), bytes);
                    "ok".to_string()
                }
                Err(e) => e
                    .to_string()
                    .split([' ', ':'])
                    .take(3)
                    .collect::<Vec<_>>()
                    .join(" "),
            };
            *outcomes.entry(outcome).or_insert(0u32) += 1;
        });
        // Every error `from_bytes` can name is reached, and so is a damaged
        // image that decodes.
        let seen: Vec<&str> = outcomes.keys().map(String::as_str).collect();
        let expected = [
            "checkpoint format version",
            "checkpoint image checksum",
            "checkpoint image truncated",
            "checkpoint state malformed",
            "not a checkpoint",
            "ok",
        ];
        assert_eq!(seen, expected, "{outcomes:?}");
    }

    #[test]
    fn keys_are_per_job_and_attempt() {
        assert_eq!(key(3, 0), "ckpt/job3/attempt0");
        assert_ne!(key(3, 1), key(3, 0));
        assert_ne!(key(4, 0), key(3, 0));
    }

    #[test]
    fn errors_display() {
        for e in [
            CkptError::BadMagic,
            CkptError::Truncated,
            CkptError::ChecksumMismatch,
            CkptError::VersionMismatch {
                found: 9,
                expected: 1,
            },
            CkptError::ImageMismatch {
                found: 1,
                expected: 2,
            },
            CkptError::Malformed("frame 0 references function 9".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
