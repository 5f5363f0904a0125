//! Program images: the executable artifact the schedd ships to execution
//! sites.
//!
//! An image holds functions of bytecode, a string table (for I/O paths),
//! and an integrity checksum. A corrupted image — damaged in transfer or on
//! disk — fails the checksum and is a **job-scope** error: "Exception: the
//! program image was corrupt → Job" (Figure 4). The schedd must mark such a
//! job unexecutable rather than retry it elsewhere.

use crate::isa::{Instr, IoMode};
use std::fmt;

/// Magic bytes at the front of every image.
pub const MAGIC: &[u8; 4] = b"GVM1";

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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    fn str(&mut self) -> Result<String, ImageError> {
        let n = self.u32()? as usize;
        let s = self
            .b
            .get(self.pos..self.pos + n)
            .ok_or(ImageError::Truncated)?;
        self.pos += n;
        String::from_utf8(s.to_vec()).map_err(|_| ImageError::Truncated)
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

    /// Serialise to the on-disk/wire format, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
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
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// Load and integrity-check an image.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProgramImage, ImageError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(ImageError::Truncated);
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if body.len() < 4 || &body[..4] != MAGIC {
            return Err(ImageError::BadMagic);
        }
        if fnv1a(body) != stored {
            return Err(ImageError::ChecksumMismatch);
        }
        let mut r = Reader { b: body, pos: 4 };
        let entry = r.u16()?;
        // A function is at least its name length, three bytes of arity
        // and its code length; an instruction at least its opcode; a
        // string at least its length.
        let nfuncs = r.u16()?;
        let mut functions = Vec::with_capacity(r.count(nfuncs.into(), 11)?);
        for _ in 0..nfuncs {
            let name = r.str()?;
            let max_locals = r.u8()?;
            let args = r.u8()?;
            let rets = r.u8()?;
            let n = r.u32()? as usize;
            let mut code = Vec::with_capacity(r.count(n, 1)?);
            for _ in 0..n {
                code.push(decode_instr(&mut r)?);
            }
            functions.push(Function {
                name,
                max_locals,
                args,
                rets,
                code,
            });
        }
        let nstrings = r.u16()?;
        let mut strings = Vec::with_capacity(r.count(nstrings.into(), 4)?);
        for _ in 0..nstrings {
            strings.push(r.str()?);
        }
        if entry as usize >= functions.len() {
            return Err(ImageError::BadEntry);
        }
        Ok(ProgramImage {
            entry,
            functions,
            strings,
        })
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
