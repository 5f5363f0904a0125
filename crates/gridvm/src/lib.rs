//! # gridvm — the virtual machine of the Java Universe, in miniature
//!
//! A bounded stack bytecode VM standing in for the JVM in the paper's Java
//! Universe (Thain & Livny §2.2). It reproduces every failure mode of
//! Figure 4 as a *distinct, scope-carrying* [`machine::Termination`]:
//!
//! | Execution detail                    | Error scope      | VM exit code |
//! |-------------------------------------|------------------|--------------|
//! | program completed `main`            | program          | 0            |
//! | program called `System.exit(x)`     | program          | x            |
//! | program dereferenced a null pointer | program          | 1            |
//! | not enough memory for the program   | virtual machine  | 1            |
//! | installation misconfigured          | remote resource  | 1            |
//! | home file system offline            | local resource   | 1            |
//! | program image corrupt               | job              | 1            |
//!
//! The bare exit code collapses five scopes into `1`; the
//! [`wrapper`] preserves them through the result file.
//!
//! * [`isa`] — the instruction set.
//! * [`image`] — program images with integrity checksums.
//! * [`mod@verify`] — the bytecode verifier.
//! * [`config`] — installations, their health, and the startd self-test.
//! * [`machine`] — the interpreter.
//! * [`jvmio`] — the job I/O interface (Chirp-backed in production).
//! * [`programs`] — canned jobs, one per Figure 4 row, plus the seeded
//!   random-program generator shared by tests, the differential corpus,
//!   and the campaign fuzzer.
//! * [`wrapper`] — the §4 wrapper and the naive exit-code baseline.
//! * [`asm`] — a small text assembler for writing jobs by hand.
//! * [`disasm`] — the matching disassembler.
//! * [`trace`] / [`mod@compile`] — the trace tier: hot loops are recorded
//!   and lowered to three-address programs over a register file whose
//!   guard exits bail back to the interpreter on every scope-relevant
//!   condition, so compiled execution is bit-identical to interpreted
//!   execution.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod compile;
pub mod config;
pub mod disasm;
pub mod image;
pub mod isa;
pub mod jvmio;
pub mod machine;
pub mod programs;
pub mod trace;
pub mod verify;
pub mod wrapper;

pub use compile::{CompiledTrace, OpKind, TraceOp};
pub use config::{self_test, InstallHealth, Installation, SelfTestDepth, TraceConfig};
pub use image::{Function, ImageError, ProgramImage};
pub use isa::{Instr, IoMode};
pub use jvmio::{ChirpJobIo, IoOutcome, JobIo, NoIo};
pub use machine::{execute, load_and_run, Machine, RunOutput, Termination};
pub use trace::VmStats;
pub use verify::{verify, VerifyError};
pub use wrapper::{classify, run_naive, run_wrapped, NaiveExit, WrappedRun};

/// Convenient glob import.
pub mod prelude {
    pub use crate::config::{self_test, InstallHealth, Installation, SelfTestDepth};
    pub use crate::image::ProgramImage;
    pub use crate::isa::{Instr, IoMode};
    pub use crate::jvmio::{ChirpJobIo, JobIo, NoIo};
    pub use crate::machine::{load_and_run, RunOutput, Termination};
    pub use crate::wrapper::{run_naive, run_wrapped, NaiveExit, WrappedRun};
}
