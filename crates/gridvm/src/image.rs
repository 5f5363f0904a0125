//! Program images: the executable artifact the schedd ships to execution
//! sites.
//!
//! An image holds functions of bytecode, a string table (for I/O paths),
//! and an integrity checksum. A corrupted image — damaged in transfer or on
//! disk — fails the checksum and is a **job-scope** error: "Exception: the
//! program image was corrupt → Job" (Figure 4). The schedd must mark such a
//! job unexecutable rather than retry it elsewhere.
//!
//! ## Format version 2 (`GVM2`)
//!
//! Magic, entry index, functions (name, arity bytes, code), string table,
//! then eight bytes of [`ckpt::body_sum`] over everything before them:
//! the checkpoint format's word-wise four-lane sum, whose argument that
//! any single-word — hence any single-bit — change is caught covers the
//! image too (`ckpt`'s module docs, DESIGN §5b). Version 1 (`GVM1`) laid
//! out the same fields under a byte-wise FNV-1a sum; no decoder for it is
//! kept, so such an image is refused at the magic check, job scope like
//! any other image that cannot be loaded.

use crate::isa::{Instr, IoMode};
use crate::machine::SPARE_BYTES;
use ckpt::body_sum;
use std::cell::Cell;
use std::fmt;

/// Magic bytes at the front of every image: format version 2.
pub const MAGIC: &[u8; 4] = b"GVM2";

/// One function's code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Display name (diagnostics only).
    pub name: String,
    /// Number of local-variable slots.
    pub max_locals: u8,
    /// Number of operand-stack values this function consumes from its
    /// caller (its arguments, by the shared-stack calling convention).
    pub args: u8,
    /// Number of operand-stack values this function leaves for its caller.
    pub rets: u8,
    /// The code.
    pub code: Vec<Instr>,
}

/// A complete program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramImage {
    /// Index of the entry function.
    pub entry: u16,
    /// The functions.
    pub functions: Vec<Function>,
    /// String table, referenced by I/O instructions.
    pub strings: Vec<String>,
}

/// Why an image failed to load. All variants are **job scope**: the job as
/// submitted can never run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// Wrong magic bytes: not an image at all.
    BadMagic,
    /// The checksum did not match the contents.
    ChecksumMismatch,
    /// Structurally truncated or malformed.
    Truncated,
    /// An unknown opcode or operand.
    BadOpcode(u8),
    /// Entry index out of range.
    BadEntry,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadMagic => f.write_str("bad magic: not a GridVM image"),
            ImageError::ChecksumMismatch => f.write_str("checksum mismatch: corrupt image"),
            ImageError::Truncated => f.write_str("truncated image"),
            ImageError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            ImageError::BadEntry => f.write_str("entry function out of range"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Functions and strings an image decoded over another did not use,
/// kept for their buffers.
#[derive(Debug, Default)]
struct Leftovers {
    functions: Vec<Function>,
    strings: Vec<String>,
}

/// Cut `v` to `len` entries, the cut ones kept in `leftovers`, with room
/// for `len`.
fn fit<T>(v: &mut Vec<T>, len: usize, leftovers: &mut Vec<T>) {
    if v.len() > len {
        leftovers.extend(v.drain(len..));
    }
    v.reserve_exact(len - v.len());
}

/// The image `load_and_run` last decoded on this thread, and its
/// leftovers: the next one is decoded over them, so a job's image costs
/// no allocation its predecessor's buffers could hold. Only capacity
/// travels; every field is read afresh.
struct Spare {
    image: ProgramImage,
    leftovers: Leftovers,
}

impl Spare {
    /// Heap bytes the spare holds, near enough to bound it.
    fn bytes(&self) -> usize {
        let (image, left) = (&self.image, &self.leftovers);
        let functions = image.functions.iter().chain(&left.functions);
        let strings = image.strings.iter().chain(&left.strings);
        size_of::<Function>() * (image.functions.capacity() + left.functions.capacity())
            + size_of::<String>() * (image.strings.capacity() + left.strings.capacity())
            + functions
                .map(|f| f.name.capacity() + size_of::<Instr>() * f.code.capacity())
                .sum::<usize>()
            + strings.map(String::capacity).sum::<usize>()
    }
}

thread_local! {
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

/// `f` on `bytes` decoded as [`ProgramImage::from_bytes`] would, into the
/// buffers of this thread's last decoded image. The spare is kept while
/// it holds no more than [`SPARE_BYTES`].
pub(crate) fn with_decoded<T>(
    bytes: &[u8],
    f: impl FnOnce(Result<&ProgramImage, ImageError>) -> T,
) -> T {
    let mut spare = SPARE.try_with(Cell::take).ok().flatten().unwrap_or(Spare {
        image: ProgramImage::empty(),
        leftovers: Leftovers::default(),
    });
    let decoded = spare.image.decode(bytes, &mut spare.leftovers);
    let out = f(decoded.map(|()| &spare.image));
    if spare.bytes() <= SPARE_BYTES {
        let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
    }
    out
}

/// Bytes [`encode_instr`] writes for `i`: its opcode and its operands.
fn instr_len(i: &Instr) -> usize {
    1 + match i {
        Instr::Push(_) => 8,
        Instr::Jump(_) | Instr::JumpIfZero(_) | Instr::JumpIfNonZero(_) => 4,
        Instr::IoOpen { .. } => 3,
        Instr::Call(_) | Instr::Throw(_) => 2,
        Instr::Load(_) | Instr::Store(_) | Instr::StdCall(_) => 1,
        _ => 0,
    }
}

fn encode_instr(out: &mut Vec<u8>, i: &Instr) {
    match i {
        Instr::Push(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Instr::PushNull => out.push(1),
        Instr::Pop => out.push(2),
        Instr::Dup => out.push(3),
        Instr::Swap => out.push(4),
        Instr::Add => out.push(5),
        Instr::Sub => out.push(6),
        Instr::Mul => out.push(7),
        Instr::Div => out.push(8),
        Instr::Mod => out.push(9),
        Instr::Neg => out.push(10),
        Instr::CmpEq => out.push(11),
        Instr::CmpLt => out.push(12),
        Instr::CmpGt => out.push(13),
        Instr::Jump(t) => {
            out.push(14);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Instr::JumpIfZero(t) => {
            out.push(15);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Instr::JumpIfNonZero(t) => {
            out.push(16);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Instr::Load(n) => {
            out.push(17);
            out.push(*n);
        }
        Instr::Store(n) => {
            out.push(18);
            out.push(*n);
        }
        Instr::NewArray => out.push(19),
        Instr::ALen => out.push(20),
        Instr::ALoad => out.push(21),
        Instr::AStore => out.push(22),
        Instr::Call(f) => {
            out.push(23);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Instr::Ret => out.push(24),
        Instr::Exit => out.push(25),
        Instr::Halt => out.push(26),
        Instr::Throw(n) => {
            out.push(27);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Instr::Print => out.push(28),
        Instr::StdCall(n) => {
            out.push(29);
            out.push(*n);
        }
        Instr::IoOpen { path, mode } => {
            out.push(30);
            out.extend_from_slice(&path.to_le_bytes());
            out.push(mode.to_byte());
        }
        Instr::IoReadSum => out.push(31),
        Instr::IoWriteNum => out.push(32),
        Instr::IoClose => out.push(33),
    }
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, ImageError> {
        let v = *self.b.get(self.pos).ok_or(ImageError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }
    fn u16(&mut self) -> Result<u16, ImageError> {
        let s = self
            .b
            .get(self.pos..self.pos + 2)
            .ok_or(ImageError::Truncated)?;
        self.pos += 2;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Result<u32, ImageError> {
        let s = self
            .b
            .get(self.pos..self.pos + 4)
            .ok_or(ImageError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn i64(&mut self) -> Result<i64, ImageError> {
        let s = self
            .b
            .get(self.pos..self.pos + 8)
            .ok_or(ImageError::Truncated)?;
        self.pos += 8;
        Ok(i64::from_le_bytes(s.try_into().unwrap()))
    }
    /// A string, read over `out`.
    fn str(&mut self, out: &mut String) -> Result<(), ImageError> {
        let n = self.u32()? as usize;
        let s = self
            .b
            .get(self.pos..self.pos + n)
            .ok_or(ImageError::Truncated)?;
        self.pos += n;
        let s = std::str::from_utf8(s).map_err(|_| ImageError::Truncated)?;
        out.clear();
        out.push_str(s);
        Ok(())
    }
    /// A count of things that each take at least `min_size` bytes: more
    /// of them than the bytes that remain could hold is a truncated
    /// image, refused before a vector is sized by the count. (The sum is
    /// a checksum, not a MAC: a well-summed image can claim anything.)
    fn count(&self, n: usize, min_size: usize) -> Result<usize, ImageError> {
        if n > (self.b.len() - self.pos) / min_size {
            return Err(ImageError::Truncated);
        }
        Ok(n)
    }
}

fn decode_instr(r: &mut Reader<'_>) -> Result<Instr, ImageError> {
    let op = r.u8()?;
    Ok(match op {
        0 => Instr::Push(r.i64()?),
        1 => Instr::PushNull,
        2 => Instr::Pop,
        3 => Instr::Dup,
        4 => Instr::Swap,
        5 => Instr::Add,
        6 => Instr::Sub,
        7 => Instr::Mul,
        8 => Instr::Div,
        9 => Instr::Mod,
        10 => Instr::Neg,
        11 => Instr::CmpEq,
        12 => Instr::CmpLt,
        13 => Instr::CmpGt,
        14 => Instr::Jump(r.u32()?),
        15 => Instr::JumpIfZero(r.u32()?),
        16 => Instr::JumpIfNonZero(r.u32()?),
        17 => Instr::Load(r.u8()?),
        18 => Instr::Store(r.u8()?),
        19 => Instr::NewArray,
        20 => Instr::ALen,
        21 => Instr::ALoad,
        22 => Instr::AStore,
        23 => Instr::Call(r.u16()?),
        24 => Instr::Ret,
        25 => Instr::Exit,
        26 => Instr::Halt,
        27 => Instr::Throw(r.u16()?),
        28 => Instr::Print,
        29 => Instr::StdCall(r.u8()?),
        30 => {
            let path = r.u16()?;
            let mode = IoMode::from_byte(r.u8()?).ok_or(ImageError::Truncated)?;
            Instr::IoOpen { path, mode }
        }
        31 => Instr::IoReadSum,
        32 => Instr::IoWriteNum,
        33 => Instr::IoClose,
        other => return Err(ImageError::BadOpcode(other)),
    })
}

impl ProgramImage {
    /// A single-function image with an empty string table.
    pub fn single(name: &str, max_locals: u8, code: Vec<Instr>) -> ProgramImage {
        ProgramImage {
            entry: 0,
            functions: vec![Function {
                name: name.to_string(),
                max_locals,
                args: 0,
                rets: 0,
                code,
            }],
            strings: Vec::new(),
        }
    }

    /// Exact length of [`ProgramImage::to_bytes`]'s output, so an image
    /// is written into one allocation of its own size.
    fn encoded_len(&self) -> usize {
        let functions: usize = self
            .functions
            .iter()
            .map(|f| 4 + f.name.len() + 3 + 4 + f.code.iter().map(instr_len).sum::<usize>())
            .sum();
        let strings: usize = self.strings.iter().map(|s| 4 + s.len()).sum();
        MAGIC.len() + 2 + 2 + functions + 2 + strings + 8
    }

    /// Serialise to the on-disk/wire format, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&self.entry.to_le_bytes());
        body.extend_from_slice(&(self.functions.len() as u16).to_le_bytes());
        for f in &self.functions {
            body.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
            body.extend_from_slice(f.name.as_bytes());
            body.push(f.max_locals);
            body.push(f.args);
            body.push(f.rets);
            body.extend_from_slice(&(f.code.len() as u32).to_le_bytes());
            for i in &f.code {
                encode_instr(&mut body, i);
            }
        }
        body.extend_from_slice(&(self.strings.len() as u16).to_le_bytes());
        for s in &self.strings {
            body.extend_from_slice(&(s.len() as u32).to_le_bytes());
            body.extend_from_slice(s.as_bytes());
        }
        let sum = body_sum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(body.len(), len, "encoded_len disagrees with to_bytes");
        body
    }

    /// Load and integrity-check an image.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProgramImage, ImageError> {
        let mut image = ProgramImage::empty();
        image.decode(bytes, &mut Leftovers::default())?;
        Ok(image)
    }

    /// No functions and no strings: what an image is decoded over.
    fn empty() -> ProgramImage {
        ProgramImage {
            entry: 0,
            functions: Vec::new(),
            strings: Vec::new(),
        }
    }

    /// [`ProgramImage::from_bytes`] over this image: its functions and
    /// strings, and those in `leftovers`, lend their buffers to the ones
    /// decoded, and those the decoded image has no place for are left in
    /// `leftovers`. On an error the image is partly decoded.
    fn decode(&mut self, bytes: &[u8], leftovers: &mut Leftovers) -> Result<(), ImageError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(ImageError::Truncated);
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if body.len() < 4 || &body[..4] != MAGIC {
            return Err(ImageError::BadMagic);
        }
        if body_sum(body) != stored {
            return Err(ImageError::ChecksumMismatch);
        }
        let mut r = Reader { b: body, pos: 4 };
        self.entry = r.u16()?;
        // A function is at least its name length, three bytes of arity
        // and its code length; an instruction at least its opcode; a
        // string at least its length.
        let nfuncs = r.u16()?;
        let nfuncs = r.count(nfuncs.into(), 11)?;
        fit(&mut self.functions, nfuncs, &mut leftovers.functions);
        for at in 0..nfuncs {
            if at == self.functions.len() {
                let f = leftovers.functions.pop().unwrap_or_else(|| Function {
                    name: String::new(),
                    max_locals: 0,
                    args: 0,
                    rets: 0,
                    code: Vec::new(),
                });
                self.functions.push(f);
            }
            let f = &mut self.functions[at];
            r.str(&mut f.name)?;
            f.max_locals = r.u8()?;
            f.args = r.u8()?;
            f.rets = r.u8()?;
            let n = r.u32()? as usize;
            f.code.clear();
            f.code.reserve_exact(r.count(n, 1)?);
            for _ in 0..n {
                f.code.push(decode_instr(&mut r)?);
            }
        }
        let nstrings = r.u16()?;
        let nstrings = r.count(nstrings.into(), 4)?;
        fit(&mut self.strings, nstrings, &mut leftovers.strings);
        for at in 0..nstrings {
            if at == self.strings.len() {
                self.strings
                    .push(leftovers.strings.pop().unwrap_or_default());
            }
            r.str(&mut self.strings[at])?;
        }
        if self.entry as usize >= self.functions.len() {
            return Err(ImageError::BadEntry);
        }
        Ok(())
    }

    /// Deliberately corrupt a serialised image by flipping one payload bit
    /// — the transfer damage Figure 4's last row describes.
    pub fn corrupt_bytes(bytes: &[u8], at: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        // Stay inside the checksummed body, past the magic.
        let idx = 4 + at % out.len().saturating_sub(12).max(1);
        out[idx] ^= 0x01;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProgramImage {
        ProgramImage {
            entry: 0,
            functions: vec![
                Function {
                    name: "main".into(),
                    max_locals: 2,
                    args: 0,
                    rets: 0,
                    code: vec![
                        Instr::Push(21),
                        Instr::Push(2),
                        Instr::Mul,
                        Instr::Print,
                        Instr::Push(0),
                        Instr::Exit,
                    ],
                },
                Function {
                    name: "helper".into(),
                    max_locals: 0,
                    args: 0,
                    rets: 1,
                    code: vec![
                        Instr::IoOpen {
                            path: 0,
                            mode: IoMode::Read,
                        },
                        Instr::IoReadSum,
                        Instr::Ret,
                    ],
                },
            ],
            strings: vec!["input.txt".into()],
        }
    }

    #[test]
    fn round_trip() {
        let img = sample();
        let bytes = img.to_bytes();
        let back = ProgramImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn every_opcode_round_trips() {
        let code = vec![
            Instr::Push(-1),
            Instr::PushNull,
            Instr::Pop,
            Instr::Dup,
            Instr::Swap,
            Instr::Add,
            Instr::Sub,
            Instr::Mul,
            Instr::Div,
            Instr::Mod,
            Instr::Neg,
            Instr::CmpEq,
            Instr::CmpLt,
            Instr::CmpGt,
            Instr::Jump(1),
            Instr::JumpIfZero(2),
            Instr::JumpIfNonZero(3),
            Instr::Load(4),
            Instr::Store(5),
            Instr::NewArray,
            Instr::ALen,
            Instr::ALoad,
            Instr::AStore,
            Instr::Call(1),
            Instr::Ret,
            Instr::Exit,
            Instr::Halt,
            Instr::Throw(9),
            Instr::Print,
            Instr::StdCall(2),
            Instr::IoOpen {
                path: 0,
                mode: IoMode::Append,
            },
            Instr::IoReadSum,
            Instr::IoWriteNum,
            Instr::IoClose,
        ];
        let n = code.len();
        let mut img = ProgramImage::single("all", 8, code);
        img.strings.push("p".into());
        let back = ProgramImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(back.functions[0].code.len(), n);
        assert_eq!(back, img);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().to_bytes();
        for at in [0, 7, 13, 50] {
            let bad = ProgramImage::corrupt_bytes(&bytes, at);
            assert_eq!(
                ProgramImage::from_bytes(&bad),
                Err(ImageError::ChecksumMismatch),
                "flip at {at} must be caught"
            );
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        // Magic is checked before the checksum.
        assert_eq!(ProgramImage::from_bytes(&bytes), Err(ImageError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        assert_eq!(
            ProgramImage::from_bytes(&bytes[..3]),
            Err(ImageError::Truncated)
        );
        // Cutting the tail invalidates the checksum.
        assert!(ProgramImage::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn bad_entry_rejected() {
        let mut img = sample();
        img.entry = 9;
        let bytes = img.to_bytes();
        assert_eq!(ProgramImage::from_bytes(&bytes), Err(ImageError::BadEntry));
    }
}
