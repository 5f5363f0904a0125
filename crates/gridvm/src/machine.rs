//! The interpreter.
//!
//! [`load_and_run`] is the whole "invoke the JVM" path: check the
//! installation, load and integrity-check the image, verify the bytecode,
//! then interpret. Every way it can end is a [`Termination`] that knows its
//! scope — this is the information the JVM's bare exit code destroys
//! (Figure 4) and the wrapper preserves.

use crate::compile::MAX_REGS;
use crate::config::Installation;
use crate::image::{ProgramImage, MAGIC};
use crate::isa::Instr;
use crate::jvmio::{IoOutcome, JobIo};
use crate::trace::{Plan, Recorded, TraceState, VmStats};
use crate::verify::verify;
use errorscope::error::codes;
use errorscope::{ErrorCode, Scope, ScopedError};

/// How an execution attempt concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum Termination {
    /// The program exited by completing `main` (code 0) or by calling
    /// `System.exit(code)`. **Program scope** — the result is the user's.
    Completed {
        /// The program's exit code.
        exit_code: i32,
    },
    /// The program terminated with a program-generated exception. Still
    /// **program scope**: "users wanted to see program generated errors".
    Exception {
        /// Exception type name, e.g. `"NullPointerException"`.
        name: String,
        /// Detail message.
        message: String,
    },
    /// The environment failed: the program's fate says nothing about the
    /// program. The scope tells the surrounding system who must act.
    EnvFailure {
        /// The invalidated scope.
        scope: Scope,
        /// Machine-readable condition.
        code: ErrorCode,
        /// Detail message.
        message: String,
    },
}

impl Termination {
    /// The scope of this outcome.
    pub fn scope(&self) -> Scope {
        match self {
            Termination::Completed { .. } | Termination::Exception { .. } => Scope::Program,
            Termination::EnvFailure { scope, .. } => *scope,
        }
    }

    /// Is this a result the user should receive (program scope)?
    pub fn is_program_result(&self) -> bool {
        self.scope() == Scope::Program
    }
}

/// Everything an execution attempt produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// How it ended.
    pub termination: Termination,
    /// Collected standard output.
    pub stdout: String,
    /// Instructions executed.
    pub instructions: u64,
    /// When the environment failure arrived as an *escaping* error from the
    /// I/O layer, the original [`ScopedError`] — span id and trail intact —
    /// so the telemetry journey survives the `Termination` flattening.
    pub env_error: Option<ScopedError>,
    /// Trace-tier counters for this machine (how it ran, not what it
    /// computed — excluded from equality, see below).
    pub vm: VmStats,
}

/// Equality covers what the program *computed* — termination, stdout,
/// instruction count, any escaping error — and deliberately excludes the
/// [`VmStats`] describing *how* it ran, so a compiled execution compares
/// equal to the interpreted execution it must be bit-identical to.
impl PartialEq for RunOutput {
    fn eq(&self, other: &Self) -> bool {
        self.termination == other.termination
            && self.stdout == other.stdout
            && self.instructions == other.instructions
            && self.env_error == other.env_error
    }
}

/// Run a serialised image through the full startup-and-execute path.
pub fn load_and_run(image_bytes: &[u8], install: &Installation, io: &mut dyn JobIo) -> RunOutput {
    // Misconfigured binary path: the VM cannot start at all.
    if !install.can_start() {
        return RunOutput {
            termination: Termination::EnvFailure {
                scope: Scope::RemoteResource,
                code: codes::MISCONFIGURED_INSTALLATION,
                message: format!("no such VM binary: {}", install.path),
            },
            stdout: String::new(),
            instructions: 0,
            env_error: None,
            vm: VmStats::default(),
        };
    }
    // Corrupt image: job scope.
    let image = match ProgramImage::from_bytes(image_bytes) {
        Ok(img) => img,
        Err(e) => {
            return RunOutput {
                termination: Termination::EnvFailure {
                    scope: Scope::Job,
                    code: codes::CORRUPT_IMAGE,
                    message: e.to_string(),
                },
                stdout: String::new(),
                instructions: 0,
                env_error: None,
                vm: VmStats::default(),
            }
        }
    };
    if let Err(e) = verify(&image) {
        return RunOutput {
            termination: Termination::EnvFailure {
                scope: Scope::Job,
                code: codes::CORRUPT_IMAGE,
                message: e.to_string(),
            },
            stdout: String::new(),
            instructions: 0,
            env_error: None,
            vm: VmStats::default(),
        };
    }
    execute(&image, install, io)
}

#[derive(Debug)]
struct Frame {
    func: usize,
    pc: usize,
    locals: Vec<i64>,
}

/// Execute a loaded, verified image from the beginning to termination.
pub fn execute(image: &ProgramImage, install: &Installation, io: &mut dyn JobIo) -> RunOutput {
    Machine::new(image)
        .run(image, install, io, None)
        .expect("unbudgeted run always terminates")
}

/// A suspended or running interpreter: every piece of state the execution
/// loop used to keep in locals, lifted into a value so it can be paused,
/// serialised into a checkpoint ([`Machine::snapshot`]) and later resumed
/// on another machine ([`Machine::restore`]).
#[derive(Debug)]
pub struct Machine {
    frames: Vec<Frame>,
    stack: Vec<i64>,
    heap: Vec<Vec<i64>>,
    heap_words: u64,
    instructions: u64,
    io_ops: u64,
    stdout: String,
    /// Trace-tier state: hotness counts, compiled traces, the active
    /// recording, register scratch, counters. Never checkpointed —
    /// [`Machine::snapshot`] captures pure interpreter state, so a
    /// restored machine starts cold.
    trace: TraceState,
}

impl Machine {
    /// A fresh machine poised at the entry point of `image`.
    pub fn new(image: &ProgramImage) -> Machine {
        Machine {
            frames: vec![Frame {
                func: image.entry as usize,
                pc: 0,
                locals: vec![0; image.functions[image.entry as usize].max_locals as usize],
            }],
            stack: Vec::with_capacity(64),
            heap: Vec::new(),
            heap_words: 0,
            instructions: 0,
            io_ops: 0,
            stdout: String::new(),
            trace: TraceState::default(),
        }
    }

    /// Instructions executed so far (across all runs of this machine).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// I/O operations performed so far.
    pub fn io_ops(&self) -> u64 {
        self.io_ops
    }

    /// Trace-tier counters accumulated by this machine.
    pub fn vm_stats(&self) -> VmStats {
        self.trace.stats
    }

    /// Trace-tier state (read-only: for the disassembler and tests).
    pub fn trace_state(&self) -> &TraceState {
        &self.trace
    }

    /// Capture this machine's complete state as a checkpoint, bound to the
    /// digest of the image it is executing (see [`ckpt::fnv1a`]).
    pub fn snapshot(&self, image_digest: u64) -> ckpt::MachineState {
        ckpt::MachineState {
            image_digest,
            instructions: self.instructions,
            io_ops: self.io_ops,
            heap_words: self.heap_words,
            stdout: self.stdout.clone(),
            frames: self
                .frames
                .iter()
                .map(|f| ckpt::FrameState {
                    func: f.func as u32,
                    pc: f.pc as u32,
                    locals: f.locals.clone(),
                })
                .collect(),
            stack: self.stack.clone(),
            heap: self.heap.clone(),
        }
    }

    /// Rebuild a machine from checkpointed state, validating it against
    /// the image it will resume on. Every rejection is an explicit
    /// [`ckpt::CkptError`]; nothing that passes can make the interpreter
    /// panic, so a corrupt checkpoint can never become an implicit error
    /// inside the resumed program (P1/P2).
    pub fn restore(
        state: ckpt::MachineState,
        image: &ProgramImage,
        image_digest: u64,
    ) -> Result<Machine, ckpt::CkptError> {
        state.check_image(image_digest)?;
        if state.frames.is_empty() {
            return Err(ckpt::CkptError::Malformed("no call frames".into()));
        }
        for (i, f) in state.frames.iter().enumerate() {
            let Some(func) = image.functions.get(f.func as usize) else {
                return Err(ckpt::CkptError::Malformed(format!(
                    "frame {i} references function {}",
                    f.func
                )));
            };
            if f.locals.len() != func.max_locals as usize {
                return Err(ckpt::CkptError::Malformed(format!(
                    "frame {i} carries {} locals, function declares {}",
                    f.locals.len(),
                    func.max_locals
                )));
            }
        }
        let words: u64 = state.heap.iter().map(|a| a.len() as u64).sum();
        if words != state.heap_words {
            return Err(ckpt::CkptError::Malformed(format!(
                "heap holds {words} words, header claims {}",
                state.heap_words
            )));
        }
        Ok(Machine {
            frames: state
                .frames
                .into_iter()
                .map(|f| Frame {
                    func: f.func as usize,
                    pc: f.pc as usize,
                    locals: f.locals,
                })
                .collect(),
            stack: state.stack,
            heap: state.heap,
            heap_words: state.heap_words,
            instructions: state.instructions,
            io_ops: state.io_ops,
            stdout: state.stdout,
            trace: TraceState::default(),
        })
    }

    /// Fault injection: flip one bit of the live heap — the DRAM-fault /
    /// cosmic-ray model of silent data corruption. `bit` addresses the
    /// heap's words flattened in allocation order, reduced modulo the
    /// allocated size, so any seed lands somewhere. Returns the absolute
    /// flat bit index `word * 64 + bit` actually flipped, or `None` when
    /// the heap is empty (nothing to hit). The word count is unchanged, so
    /// a flipped machine still passes every structural check — exactly the
    /// damage no digest recomputed *before* the flip can see.
    pub fn flip_heap_bit(&mut self, bit: u64) -> Option<u64> {
        let total: u64 = self.heap.iter().map(|a| a.len() as u64).sum();
        if total == 0 {
            return None;
        }
        let mut word = (bit / 64) % total;
        let b = bit % 64;
        let landed = word * 64 + b;
        for arr in &mut self.heap {
            if word < arr.len() as u64 {
                arr[word as usize] ^= 1i64 << b;
                return Some(landed);
            }
            word -= arr.len() as u64;
        }
        unreachable!("flat heap index within total word count")
    }

    /// Run until termination or until `budget` further instructions have
    /// executed. Returns `None` when the budget ran out first — the
    /// machine is suspended mid-program and may be snapshotted or run
    /// again. `budget: None` runs to termination (the installation's fuel
    /// limit still applies and charges all instructions ever executed,
    /// including those before a checkpoint).
    pub fn run(
        &mut self,
        image: &ProgramImage,
        install: &Installation,
        io: &mut dyn JobIo,
        budget: Option<u64>,
    ) -> Option<RunOutput> {
        macro_rules! done {
            ($t:expr) => {
                return Some(RunOutput {
                    termination: $t,
                    stdout: self.stdout.clone(),
                    instructions: self.instructions,
                    env_error: None,
                    vm: self.trace.stats,
                })
            };
        }
        macro_rules! exception {
            ($name:expr, $msg:expr) => {
                done!(Termination::Exception {
                    name: $name.to_string(),
                    message: $msg.to_string(),
                })
            };
        }
        macro_rules! vm_failure {
            ($code:expr, $msg:expr) => {
                done!(Termination::EnvFailure {
                    scope: Scope::VirtualMachine,
                    code: $code,
                    message: $msg.to_string(),
                })
            };
        }
        // An escaping error from the I/O layer: flatten it into the usual
        // EnvFailure *and* keep the original so its journey can continue.
        macro_rules! escape {
            ($se:expr) => {{
                let se: ScopedError = $se;
                return Some(RunOutput {
                    termination: Termination::EnvFailure {
                        scope: se.scope,
                        code: se.code.clone(),
                        message: se.message.clone(),
                    },
                    stdout: self.stdout.clone(),
                    instructions: self.instructions,
                    env_error: Some(se),
                    vm: self.trace.stats,
                });
            }};
        }
        macro_rules! pop {
            () => {
                match self.stack.pop() {
                    Some(v) => v,
                    None => vm_failure!(
                        codes::VIRTUAL_MACHINE_ERROR,
                        "operand stack underflow past the verifier"
                    ),
                }
            };
        }

        let mut used: u64 = 0;
        loop {
            if let Some(b) = budget {
                if used >= b {
                    return None; // suspended, not terminated
                }
            }
            if self.instructions >= install.fuel {
                vm_failure!(
                    ErrorCode::new("CpuLimitExceeded"),
                    "instruction budget exhausted; machine reclaiming CPU"
                );
            }
            self.instructions += 1;
            used += 1;

            let (func, pc) = {
                let f = self.frames.last().expect("at least one frame");
                (f.func, f.pc)
            };
            let code = &image.functions[func].code;
            if pc >= code.len() {
                // Fell off the end of a function: implicit return. A
                // recording ends here with a terminal bail — the frame
                // change is the interpreter's business.
                if self.trace.recorder.is_some() {
                    self.trace.finish_recording(Some(pc as u32));
                }
                self.frames.pop();
                if self.frames.is_empty() {
                    done!(Termination::Completed { exit_code: 0 });
                }
                continue;
            }
            self.frames.last_mut().unwrap().pc += 1;
            let ins = code[pc];

            // Trace recording observes the interpreter doing exactly what
            // it always does; it never changes execution.
            if self.trace.recorder.is_some() {
                self.observe(func, pc, ins, install.trace.max_trace_len);
            }

            // Taken branch target, noted for the trace tier below.
            let mut taken_branch: Option<u32> = None;

            match ins {
                Instr::Push(v) => self.stack.push(v),
                Instr::PushNull => self.stack.push(0),
                Instr::Pop => {
                    let _ = pop!();
                }
                Instr::Dup => {
                    let v = pop!();
                    self.stack.push(v);
                    self.stack.push(v);
                }
                Instr::Swap => {
                    let b = pop!();
                    let a = pop!();
                    self.stack.push(b);
                    self.stack.push(a);
                }
                Instr::Add => {
                    let b = pop!();
                    let a = pop!();
                    self.stack.push(a.wrapping_add(b));
                }
                Instr::Sub => {
                    let b = pop!();
                    let a = pop!();
                    self.stack.push(a.wrapping_sub(b));
                }
                Instr::Mul => {
                    let b = pop!();
                    let a = pop!();
                    self.stack.push(a.wrapping_mul(b));
                }
                Instr::Div => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        exception!("ArithmeticException", "/ by zero");
                    }
                    self.stack.push(a.wrapping_div(b));
                }
                Instr::Mod => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        exception!("ArithmeticException", "% by zero");
                    }
                    self.stack.push(a.wrapping_rem(b));
                }
                Instr::Neg => {
                    let v = pop!();
                    self.stack.push(v.wrapping_neg());
                }
                Instr::CmpEq => {
                    let b = pop!();
                    let a = pop!();
                    self.stack.push(i64::from(a == b));
                }
                Instr::CmpLt => {
                    let b = pop!();
                    let a = pop!();
                    self.stack.push(i64::from(a < b));
                }
                Instr::CmpGt => {
                    let b = pop!();
                    let a = pop!();
                    self.stack.push(i64::from(a > b));
                }
                Instr::Jump(t) => {
                    self.frames.last_mut().unwrap().pc = t as usize;
                    taken_branch = Some(t);
                }
                Instr::JumpIfZero(t) => {
                    if pop!() == 0 {
                        self.frames.last_mut().unwrap().pc = t as usize;
                        taken_branch = Some(t);
                    }
                }
                Instr::JumpIfNonZero(t) => {
                    if pop!() != 0 {
                        self.frames.last_mut().unwrap().pc = t as usize;
                        taken_branch = Some(t);
                    }
                }
                Instr::Load(i) => {
                    let v = self.frames.last().unwrap().locals[i as usize];
                    self.stack.push(v);
                }
                Instr::Store(i) => {
                    let v = pop!();
                    self.frames.last_mut().unwrap().locals[i as usize] = v;
                }
                Instr::NewArray => {
                    let size = pop!();
                    if size < 0 {
                        exception!("NegativeArraySizeException", format!("size {size}"));
                    }
                    let words = size as u64;
                    if self.heap_words + words > install.heap_limit {
                        done!(Termination::EnvFailure {
                            scope: Scope::VirtualMachine,
                            code: codes::OUT_OF_MEMORY,
                            message: format!(
                                "requested {words} words with {}/{} used",
                                self.heap_words, install.heap_limit
                            ),
                        });
                    }
                    self.heap_words += words;
                    self.heap.push(vec![0; size as usize]);
                    self.stack.push(self.heap.len() as i64); // handle = index + 1
                }
                Instr::ALen => {
                    let r = pop!();
                    match array(&self.heap, r) {
                        Ok(a) => {
                            let n = a.len() as i64;
                            self.stack.push(n);
                        }
                        Err(e) => exception!("NullPointerException", e),
                    }
                }
                Instr::ALoad => {
                    let idx = pop!();
                    let r = pop!();
                    let a = match array(&self.heap, r) {
                        Ok(a) => a,
                        Err(e) => exception!("NullPointerException", e),
                    };
                    if idx < 0 || idx as usize >= a.len() {
                        exception!(
                            "ArrayIndexOutOfBoundsException",
                            format!("index {idx} out of bounds for length {}", a.len())
                        );
                    }
                    let v = a[idx as usize];
                    self.stack.push(v);
                }
                Instr::AStore => {
                    let val = pop!();
                    let idx = pop!();
                    let r = pop!();
                    if r <= 0 || r as usize > self.heap.len() {
                        exception!("NullPointerException", "store through null reference");
                    }
                    let a = &mut self.heap[r as usize - 1];
                    if idx < 0 || idx as usize >= a.len() {
                        exception!(
                            "ArrayIndexOutOfBoundsException",
                            format!("index {idx} out of bounds for length {}", a.len())
                        );
                    }
                    a[idx as usize] = val;
                }
                Instr::Call(target) => {
                    if self.frames.len() >= install.max_call_depth {
                        vm_failure!(
                            ErrorCode::new("StackOverflowError"),
                            format!("call depth limit {} reached", install.max_call_depth)
                        );
                    }
                    let t = target as usize;
                    self.frames.push(Frame {
                        func: t,
                        pc: 0,
                        locals: vec![0; image.functions[t].max_locals as usize],
                    });
                }
                Instr::Ret => {
                    self.frames.pop();
                    if self.frames.is_empty() {
                        done!(Termination::Completed { exit_code: 0 });
                    }
                }
                Instr::Exit => {
                    let code = pop!();
                    done!(Termination::Completed {
                        exit_code: code as i32
                    });
                }
                Instr::Halt => done!(Termination::Completed { exit_code: 0 }),
                Instr::Throw(n) => {
                    exception!(format!("UserException{n}"), "thrown by program");
                }
                Instr::Print => {
                    let v = pop!();
                    self.stdout.push_str(&v.to_string());
                    self.stdout.push('\n');
                }
                Instr::StdCall(n) => {
                    if !install.has_stdlib() {
                        done!(Termination::EnvFailure {
                            scope: Scope::RemoteResource,
                            code: codes::MISCONFIGURED_INSTALLATION,
                            message: format!(
                                "standard library missing from installation at {}",
                                install.path
                            ),
                        });
                    }
                    let v = pop!();
                    let out = match n {
                        0 => v.wrapping_abs(),
                        1 => v.signum(),
                        2 => {
                            if v < 0 {
                                exception!("ArithmeticException", "isqrt of negative");
                            }
                            (v as f64).sqrt() as i64
                        }
                        other => {
                            exception!("NoSuchMethodError", format!("stdlib routine {other}"))
                        }
                    };
                    self.stack.push(out);
                }
                Instr::IoOpen { path, mode } => {
                    self.io_ops += 1;
                    let p = &image.strings[path as usize];
                    match io.open(p, mode) {
                        IoOutcome::Ok(fd) => self.stack.push(i64::from(fd)),
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
                Instr::IoReadSum => {
                    self.io_ops += 1;
                    let fd = pop!();
                    match io.read_all(fd as u32) {
                        IoOutcome::Ok(data) => {
                            self.stack.push(data.iter().map(|b| i64::from(*b)).sum());
                        }
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
                Instr::IoWriteNum => {
                    self.io_ops += 1;
                    let v = pop!();
                    let fd = pop!();
                    match io.write(fd as u32, v.to_string().as_bytes()) {
                        IoOutcome::Ok(()) => {}
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
                Instr::IoClose => {
                    self.io_ops += 1;
                    let fd = pop!();
                    match io.close(fd as u32) {
                        IoOutcome::Ok(()) => {}
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
            }

            // Trace tier: a taken backward branch is the only place a loop
            // can close, so it carries all the bookkeeping — hotness
            // counting, recording kick-off, and compiled-trace entry. The
            // straight-line interpreter path above pays nothing.
            if let Some(target) = taken_branch {
                if install.trace.enabled && target as usize <= pc && self.trace.recorder.is_none() {
                    match self
                        .trace
                        .plan(func as u32, target, install.trace.hot_threshold)
                    {
                        Plan::Enter(tr) => {
                            // Headroom: the runner never commits past the
                            // fuel limit or the run budget, so those stops
                            // always land on pure interpreter state.
                            let fuel_left = install.fuel.saturating_sub(self.instructions);
                            let remaining = match budget {
                                Some(b) => fuel_left.min(b.saturating_sub(used)),
                                None => fuel_left,
                            };
                            let frame = self.frames.last_mut().unwrap();
                            let exit = crate::compile::run_trace(
                                &tr,
                                self.trace
                                    .regs
                                    .get_or_insert_with(|| Box::new([0; MAX_REGS])),
                                &mut self.stack,
                                &mut frame.locals,
                                &mut self.heap,
                                &mut self.heap_words,
                                &mut self.stdout,
                                install,
                                remaining,
                            );
                            frame.pc = exit.pc as usize;
                            self.instructions += exit.committed;
                            used += exit.committed;
                            self.trace.stats.compiled_instructions += exit.committed;
                            if exit.guard {
                                self.trace.stats.guard_exits += 1;
                            }
                        }
                        Plan::Record => self.trace.start_recording(func as u32, target),
                        Plan::Nothing => {}
                    }
                }
            }
        }
    }

    /// Feed one fetched instruction to the active recording. Unsupported
    /// instructions (frame changes, terminators, I/O) close the trace with
    /// a terminal bail at their pc; a taken jump landing on the head
    /// closes the loop; an over-long recording (usually an unrolled inner
    /// loop) is abandoned and its head blacklisted.
    fn observe(&mut self, func: usize, pc: usize, ins: Instr, max_trace_len: usize) {
        match ins {
            Instr::Call(_)
            | Instr::Ret
            | Instr::Exit
            | Instr::Halt
            | Instr::Throw(_)
            | Instr::IoOpen { .. }
            | Instr::IoReadSum
            | Instr::IoWriteNum
            | Instr::IoClose => {
                self.trace.finish_recording(Some(pc as u32));
                return;
            }
            _ => {}
        }
        // Peek the branch outcome the interpreter is about to take. (A
        // conditional jump over an empty stack terminates the run with the
        // interpreter's underflow error; the recording dies with it.)
        let taken = match ins {
            Instr::Jump(_) => true,
            Instr::JumpIfZero(_) => self.stack.last() == Some(&0),
            Instr::JumpIfNonZero(_) => self.stack.last().is_some_and(|v| *v != 0),
            _ => false,
        };
        let rec = self.trace.recorder.as_mut().expect("recording active");
        rec.steps.push(Recorded {
            pc: pc as u32,
            ins,
            taken,
        });
        if rec.steps.len() > max_trace_len {
            self.trace.abort_recording();
            return;
        }
        if taken {
            if let Some(t) = ins.branch_target() {
                let rec = self.trace.recorder.as_ref().expect("recording active");
                if rec.func == func as u32 && t == rec.head {
                    self.trace.finish_recording(None);
                }
            }
        }
    }
}

fn array(heap: &[Vec<i64>], r: i64) -> Result<&Vec<i64>, String> {
    if r <= 0 || r as usize > heap.len() {
        Err("dereference of null or dangling reference".into())
    } else {
        Ok(&heap[r as usize - 1])
    }
}

/// A convenience: is this byte slice even plausibly an image? (Used by the
/// starter for cheap pre-checks without full validation.)
pub fn looks_like_image(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && &bytes[..4] == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ProgramImage;
    use crate::jvmio::NoIo;

    fn run(code: Vec<Instr>) -> RunOutput {
        run_with(code, Installation::healthy())
    }

    fn run_with(code: Vec<Instr>, install: Installation) -> RunOutput {
        let img = ProgramImage::single("main", 8, code);
        load_and_run(&img.to_bytes(), &install, &mut NoIo)
    }

    #[test]
    fn completes_main_with_exit_zero() {
        let out = run(vec![
            Instr::Push(2),
            Instr::Push(3),
            Instr::Add,
            Instr::Print,
            Instr::Halt,
        ]);
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
        assert_eq!(out.stdout, "5\n");
        assert!(out.termination.is_program_result());
    }

    #[test]
    fn falling_off_the_end_completes() {
        let out = run(vec![Instr::Push(1), Instr::Pop]);
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
    }

    #[test]
    fn system_exit_with_code() {
        let out = run(vec![Instr::Push(42), Instr::Exit]);
        assert_eq!(out.termination, Termination::Completed { exit_code: 42 });
    }

    #[test]
    fn null_dereference_is_program_scope() {
        let out = run(vec![
            Instr::PushNull,
            Instr::Push(0),
            Instr::ALoad,
            Instr::Halt,
        ]);
        let Termination::Exception { name, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(name, "NullPointerException");
        assert_eq!(out.termination.scope(), Scope::Program);
    }

    #[test]
    fn array_bounds_is_program_scope() {
        let out = run(vec![
            Instr::Push(3),
            Instr::NewArray,
            Instr::Push(7),
            Instr::ALoad,
            Instr::Halt,
        ]);
        let Termination::Exception { name, message } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(name, "ArrayIndexOutOfBoundsException");
        assert!(message.contains("index 7"));
    }

    #[test]
    fn divide_by_zero_is_program_scope() {
        let out = run(vec![
            Instr::Push(1),
            Instr::Push(0),
            Instr::Div,
            Instr::Halt,
        ]);
        let Termination::Exception { name, .. } = &out.termination else {
            panic!()
        };
        assert_eq!(name, "ArithmeticException");
    }

    #[test]
    fn user_throw_is_program_scope() {
        let out = run(vec![Instr::Throw(3)]);
        let Termination::Exception { name, .. } = &out.termination else {
            panic!()
        };
        assert_eq!(name, "UserException3");
    }

    #[test]
    fn heap_exhaustion_is_vm_scope() {
        let out = run_with(
            vec![Instr::Push(1000), Instr::NewArray, Instr::Halt],
            Installation::healthy().with_heap_limit(100),
        );
        let Termination::EnvFailure { scope, code, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::VirtualMachine);
        assert_eq!(*code, codes::OUT_OF_MEMORY);
        assert!(!out.termination.is_program_result());
    }

    #[test]
    fn call_depth_limit_is_vm_scope() {
        // main calls itself forever.
        let out = run_with(
            vec![Instr::Call(0), Instr::Halt],
            Installation::healthy().with_max_call_depth(16),
        );
        let Termination::EnvFailure { scope, code, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::VirtualMachine);
        assert_eq!(code.as_str(), "StackOverflowError");
    }

    #[test]
    fn fuel_exhaustion_is_vm_scope() {
        let out = run_with(
            vec![Instr::Jump(0)],
            Installation::healthy().with_fuel(1000),
        );
        let Termination::EnvFailure { scope, code, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::VirtualMachine);
        assert_eq!(code.as_str(), "CpuLimitExceeded");
        assert_eq!(out.instructions, 1000);
    }

    #[test]
    fn bad_path_installation_is_remote_resource_scope() {
        let out = run_with(vec![Instr::Halt], Installation::bad_path());
        let Termination::EnvFailure { scope, code, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::RemoteResource);
        assert_eq!(*code, codes::MISCONFIGURED_INSTALLATION);
        assert_eq!(out.instructions, 0);
    }

    #[test]
    fn missing_stdlib_fails_only_on_stdcall() {
        // Trivial program: fine.
        let out = run_with(vec![Instr::Halt], Installation::missing_stdlib());
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
        // Program using the stdlib: remote-resource failure.
        let out = run_with(
            vec![
                Instr::Push(-5),
                Instr::StdCall(0),
                Instr::Print,
                Instr::Halt,
            ],
            Installation::missing_stdlib(),
        );
        let Termination::EnvFailure { scope, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::RemoteResource);
    }

    #[test]
    fn corrupt_image_is_job_scope() {
        let img = ProgramImage::single("main", 0, vec![Instr::Halt]);
        let bytes = ProgramImage::corrupt_bytes(&img.to_bytes(), 5);
        let out = load_and_run(&bytes, &Installation::healthy(), &mut NoIo);
        let Termination::EnvFailure { scope, code, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::Job);
        assert_eq!(*code, codes::CORRUPT_IMAGE);
    }

    #[test]
    fn unverifiable_image_is_job_scope() {
        let img = ProgramImage::single("main", 0, vec![Instr::Add, Instr::Halt]);
        let out = load_and_run(&img.to_bytes(), &Installation::healthy(), &mut NoIo);
        let Termination::EnvFailure { scope, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::Job);
    }

    #[test]
    fn stdlib_functions_work_when_healthy() {
        let out = run(vec![
            Instr::Push(-9),
            Instr::StdCall(0), // abs -> 9
            Instr::Print,
            Instr::Push(-3),
            Instr::StdCall(1), // sgn -> -1
            Instr::Print,
            Instr::Push(16),
            Instr::StdCall(2), // isqrt -> 4
            Instr::Print,
            Instr::Halt,
        ]);
        assert_eq!(out.stdout, "9\n-1\n4\n");
    }

    #[test]
    fn functions_and_loops() {
        // main: acc = 0; for i in 1..=5 { acc += i }; print acc
        let code = vec![
            Instr::Push(0),           // 0
            Instr::Store(0),          // 1
            Instr::Push(1),           // 2
            Instr::Store(1),          // 3
            Instr::Load(1),           // 4 loop:
            Instr::Push(5),           // 5
            Instr::CmpGt,             // 6
            Instr::JumpIfNonZero(17), // 7
            Instr::Load(0),           // 8
            Instr::Load(1),           // 9
            Instr::Add,               // 10
            Instr::Store(0),          // 11
            Instr::Load(1),           // 12
            Instr::Push(1),           // 13
            Instr::Add,               // 14
            Instr::Store(1),          // 15
            Instr::Jump(4),           // 16
            Instr::Load(0),           // 17
            Instr::Print,             // 18
            Instr::Halt,              // 19
        ];
        let out = run(code);
        assert_eq!(out.stdout, "15\n");
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
    }

    #[test]
    fn call_and_return() {
        // f1 doubles top of stack; main pushes 21, calls, prints.
        let img = ProgramImage {
            entry: 0,
            functions: vec![
                crate::image::Function {
                    name: "main".into(),
                    max_locals: 0,
                    args: 0,
                    rets: 0,
                    code: vec![Instr::Push(21), Instr::Call(1), Instr::Print, Instr::Halt],
                },
                crate::image::Function {
                    name: "double".into(),
                    max_locals: 0,
                    args: 1,
                    rets: 1,
                    code: vec![Instr::Push(2), Instr::Mul, Instr::Ret],
                },
            ],
            strings: vec![],
        };
        let out = load_and_run(&img.to_bytes(), &Installation::healthy(), &mut NoIo);
        assert_eq!(out.stdout, "42\n");
    }

    #[test]
    fn negative_array_size_is_program_exception() {
        let out = run(vec![Instr::Push(-1), Instr::NewArray, Instr::Halt]);
        let Termination::Exception { name, .. } = &out.termination else {
            panic!()
        };
        assert_eq!(name, "NegativeArraySizeException");
    }

    #[test]
    fn array_store_and_load() {
        let out = run(vec![
            Instr::Push(4),
            Instr::NewArray,
            Instr::Store(0), // arr
            Instr::Load(0),
            Instr::Push(2),
            Instr::Push(99),
            Instr::AStore, // arr[2] = 99
            Instr::Load(0),
            Instr::Push(2),
            Instr::ALoad,
            Instr::Print, // 99
            Instr::Load(0),
            Instr::ALen,
            Instr::Print, // 4
            Instr::Halt,
        ]);
        assert_eq!(out.stdout, "99\n4\n");
    }

    #[test]
    fn looks_like_image_check() {
        let img = ProgramImage::single("m", 0, vec![Instr::Halt]);
        assert!(looks_like_image(&img.to_bytes()));
        assert!(!looks_like_image(b"#!/bin/sh"));
        assert!(!looks_like_image(b""));
    }

    // A looping program big enough to interrupt anywhere: sum 1..=100,
    // storing partial sums into an array as it goes, then print.
    fn long_program() -> ProgramImage {
        let code = vec![
            Instr::Push(100),         // 0
            Instr::NewArray,          // 1
            Instr::Store(2),          // 2: locals[2] = arr
            Instr::Push(0),           // 3
            Instr::Store(0),          // 4: acc = 0
            Instr::Push(1),           // 5
            Instr::Store(1),          // 6: i = 1
            Instr::Load(1),           // 7 loop:
            Instr::Push(100),         // 8
            Instr::CmpGt,             // 9
            Instr::JumpIfNonZero(26), // 10
            Instr::Load(0),           // 11
            Instr::Load(1),           // 12
            Instr::Add,               // 13
            Instr::Store(0),          // 14: acc += i
            Instr::Load(2),           // 15
            Instr::Load(1),           // 16
            Instr::Push(1),           // 17
            Instr::Sub,               // 18
            Instr::Load(0),           // 19
            Instr::AStore,            // 20: arr[i-1] = acc
            Instr::Load(1),           // 21
            Instr::Push(1),           // 22
            Instr::Add,               // 23
            Instr::Store(1),          // 24: i += 1
            Instr::Jump(7),           // 25
            Instr::Load(0),           // 26
            Instr::Print,             // 27
            Instr::Halt,              // 28
        ];
        ProgramImage::single("main", 8, code)
    }

    #[test]
    fn budgeted_run_suspends_and_resumes_to_identical_result() {
        let img = long_program();
        let install = Installation::healthy();
        let straight = execute(&img, &install, &mut NoIo);

        let mut m = Machine::new(&img);
        assert!(m.run(&img, &install, &mut NoIo, Some(137)).is_none());
        assert_eq!(m.instructions(), 137);
        let resumed = m
            .run(&img, &install, &mut NoIo, None)
            .expect("second leg terminates");
        assert_eq!(resumed, straight);
    }

    #[test]
    fn snapshot_restore_round_trip_resumes_exactly() {
        let img = long_program();
        let install = Installation::healthy();
        let digest = ckpt::fnv1a(&img.to_bytes());
        let straight = execute(&img, &install, &mut NoIo);

        for cut in [1u64, 50, 137, 300, 500] {
            let mut m = Machine::new(&img);
            assert!(m.run(&img, &install, &mut NoIo, Some(cut)).is_none());
            let bytes = m.snapshot(digest).to_bytes();
            // ... the checkpoint travels to another machine ...
            let state = ckpt::MachineState::from_bytes(&bytes).unwrap();
            let mut back = Machine::restore(state, &img, digest).unwrap();
            let out = back.run(&img, &install, &mut NoIo, None).unwrap();
            assert_eq!(out, straight, "cut at {cut}");
        }
    }

    #[test]
    fn restore_rejects_wrong_image_explicitly() {
        let img = long_program();
        let other = ProgramImage::single("other", 0, vec![Instr::Halt]);
        let digest = ckpt::fnv1a(&img.to_bytes());
        let other_digest = ckpt::fnv1a(&other.to_bytes());
        let mut m = Machine::new(&img);
        m.run(&img, &Installation::healthy(), &mut NoIo, Some(10));
        let state = m.snapshot(digest);
        assert!(matches!(
            Machine::restore(state, &other, other_digest).unwrap_err(),
            ckpt::CkptError::ImageMismatch { .. }
        ));
    }

    #[test]
    fn restore_rejects_structurally_impossible_state() {
        let img = long_program();
        let digest = ckpt::fnv1a(&img.to_bytes());
        let mut m = Machine::new(&img);
        m.run(&img, &Installation::healthy(), &mut NoIo, Some(10));

        // Dangling function index.
        let mut bad = m.snapshot(digest);
        bad.frames[0].func = 99;
        assert!(matches!(
            Machine::restore(bad, &img, digest).unwrap_err(),
            ckpt::CkptError::Malformed(_)
        ));

        // Wrong local count.
        let mut bad = m.snapshot(digest);
        bad.frames[0].locals.push(0);
        assert!(matches!(
            Machine::restore(bad, &img, digest).unwrap_err(),
            ckpt::CkptError::Malformed(_)
        ));

        // Heap accounting lies.
        let mut bad = m.snapshot(digest);
        bad.heap_words += 1;
        assert!(matches!(
            Machine::restore(bad, &img, digest).unwrap_err(),
            ckpt::CkptError::Malformed(_)
        ));

        // No frames at all.
        let mut bad = m.snapshot(digest);
        bad.frames.clear();
        assert!(matches!(
            Machine::restore(bad, &img, digest).unwrap_err(),
            ckpt::CkptError::Malformed(_)
        ));
    }

    #[test]
    fn corrupt_checkpoint_bytes_never_restore() {
        let img = long_program();
        let digest = ckpt::fnv1a(&img.to_bytes());
        let mut m = Machine::new(&img);
        m.run(&img, &Installation::healthy(), &mut NoIo, Some(42));
        let bytes = m.snapshot(digest).to_bytes();
        for at in [0usize, 7, 23, 101] {
            let bad = ckpt::corrupt_bytes(&bytes, at);
            assert!(ckpt::MachineState::from_bytes(&bad).is_err());
        }
    }

    #[test]
    fn fuel_accounting_spans_checkpoints() {
        // 1000 fuel total: burn 600 before the checkpoint, so only 400
        // remain after resume — a restored machine cannot launder CPU.
        let img = ProgramImage::single("main", 0, vec![Instr::Jump(0)]);
        let digest = ckpt::fnv1a(&img.to_bytes());
        let install = Installation::healthy().with_fuel(1000);
        let mut m = Machine::new(&img);
        assert!(m.run(&img, &install, &mut NoIo, Some(600)).is_none());
        let state = m.snapshot(digest);
        let mut back = Machine::restore(state, &img, digest).unwrap();
        let out = back.run(&img, &install, &mut NoIo, None).unwrap();
        assert_eq!(out.instructions, 1000);
        let Termination::EnvFailure { code, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(code.as_str(), "CpuLimitExceeded");
    }

    #[test]
    fn hot_loop_compiles_and_matches_the_interpreter_exactly() {
        use crate::config::TraceConfig;
        let bytes = crate::programs::cpu_bound(500);
        let img = ProgramImage::from_bytes(&bytes).unwrap();
        let interp = Installation::healthy().with_trace(TraceConfig::off());
        let compiled = Installation::healthy().with_trace(TraceConfig::eager());
        let a = execute(&img, &interp, &mut NoIo);
        let b = execute(&img, &compiled, &mut NoIo);
        assert_eq!(a, b);
        assert_eq!(a.vm, crate::trace::VmStats::default());
        assert!(b.vm.traces_compiled >= 1, "{:?}", b.vm);
        assert!(
            b.vm.compiled_instructions > a.instructions / 2,
            "{:?}",
            b.vm
        );
    }

    #[test]
    fn guard_exits_reproduce_the_interpreters_scoped_errors() {
        use crate::config::TraceConfig;
        // Each program gets hot, compiles, then trips a different guard
        // mid-trace. The compiled run must terminate identically.
        let div0_mid_loop = ProgramImage::single(
            "div0",
            2,
            vec![
                Instr::Push(40),         // 0: i = 40
                Instr::Store(0),         // 1
                Instr::Push(100),        // 2: loop: acc = 100 / (i - 8)
                Instr::Load(0),          // 3
                Instr::Push(8),          // 4
                Instr::Sub,              // 5
                Instr::Div,              // 6  <- faults when i reaches 8
                Instr::Store(1),         // 7
                Instr::Load(0),          // 8: i -= 1
                Instr::Push(1),          // 9
                Instr::Sub,              // 10
                Instr::Store(0),         // 11
                Instr::Load(0),          // 12
                Instr::JumpIfNonZero(2), // 13
                Instr::Halt,             // 14
            ],
        );
        let oob_last_iteration = ProgramImage::single(
            "oob",
            2,
            vec![
                Instr::Push(32),         // 0: arr = new[32]
                Instr::NewArray,         // 1
                Instr::Store(1),         // 2
                Instr::Push(0),          // 3: i = 0
                Instr::Store(0),         // 4
                Instr::Load(1),          // 5: loop: arr[i] = i  (faults at i == 32)
                Instr::Load(0),          // 6
                Instr::Load(0),          // 7
                Instr::AStore,           // 8
                Instr::Load(0),          // 9: i += 1
                Instr::Push(1),          // 10
                Instr::Add,              // 11
                Instr::Store(0),         // 12
                Instr::Load(0),          // 13: while i < 40
                Instr::Push(40),         // 14
                Instr::CmpLt,            // 15
                Instr::JumpIfNonZero(5), // 16
                Instr::Halt,             // 17
            ],
        );
        let oom_mid_loop = ProgramImage::from_bytes(&crate::programs::exhausts_memory()).unwrap();
        let stdlib_loop = ProgramImage::single(
            "stdlib-loop",
            1,
            vec![
                Instr::Push(0),          // 0: i = 0
                Instr::Store(0),         // 1
                Instr::Load(0),          // 2: loop: isqrt(i)
                Instr::StdCall(2),       // 3
                Instr::Pop,              // 4
                Instr::Load(0),          // 5: i += 1
                Instr::Push(1),          // 6
                Instr::Add,              // 7
                Instr::Store(0),         // 8
                Instr::Load(0),          // 9: while i < 50
                Instr::Push(50),         // 10
                Instr::CmpLt,            // 11
                Instr::JumpIfNonZero(2), // 12
                Instr::Halt,             // 13
            ],
        );
        let cases: Vec<(ProgramImage, Installation)> = vec![
            (div0_mid_loop, Installation::healthy()),
            (oob_last_iteration, Installation::healthy()),
            (
                oom_mid_loop,
                Installation::healthy().with_heap_limit(1 << 14),
            ),
            // The loop warms up healthy... and a separate machine with a
            // missing stdlib guard-bails on its very first StdCall.
            (stdlib_loop.clone(), Installation::healthy()),
            (stdlib_loop, Installation::missing_stdlib()),
        ];
        for (img, install) in cases {
            let a = execute(
                &img,
                &install.clone().with_trace(TraceConfig::off()),
                &mut NoIo,
            );
            let b = execute(&img, &install.with_trace(TraceConfig::eager()), &mut NoIo);
            assert_eq!(a, b, "{}", img.functions[0].name);
        }
    }

    #[test]
    fn mid_trace_checkpoint_is_pure_interpreter_state() {
        use crate::config::TraceConfig;
        // A snapshot taken while a compiled trace is hot must be the exact
        // bytes an interpreter-only machine would produce at the same cut,
        // and must resume bit-identically whether the resuming host has
        // compilation on or off.
        let img = long_program();
        let bytes = img.to_bytes();
        let digest = ckpt::fnv1a(&bytes);
        let off = Installation::healthy().with_trace(TraceConfig::off());
        let eager = Installation::healthy().with_trace(TraceConfig::eager());
        let straight = execute(&img, &off, &mut NoIo);

        for cut in [40u64, 137, 300, 700, 1100] {
            let mut interp = Machine::new(&img);
            assert!(interp.run(&img, &off, &mut NoIo, Some(cut)).is_none());
            let mut traced = Machine::new(&img);
            assert!(traced.run(&img, &eager, &mut NoIo, Some(cut)).is_none());
            // The mid-trace snapshot materializes interpreter state:
            // byte-identical to the interpreter-only machine's snapshot.
            let a = interp.snapshot(digest).to_bytes();
            let b = traced.snapshot(digest).to_bytes();
            assert_eq!(a, b, "cut at {cut}");
            // Resume the traced snapshot on both kinds of host.
            for resume_install in [&off, &eager] {
                let state = ckpt::MachineState::from_bytes(&b).unwrap();
                let mut back = Machine::restore(state, &img, digest).unwrap();
                let out = back.run(&img, resume_install, &mut NoIo, None).unwrap();
                assert_eq!(out, straight, "cut at {cut}");
            }
        }
        // Sanity: the traced machine really was running compiled code.
        let mut traced = Machine::new(&img);
        traced.run(&img, &eager, &mut NoIo, None);
        assert!(traced.vm_stats().traces_compiled >= 1);
    }

    #[test]
    fn budget_suspension_lands_exactly_even_inside_a_trace() {
        use crate::config::TraceConfig;
        let img = long_program();
        let eager = Installation::healthy().with_trace(TraceConfig::eager());
        for cut in [100u64, 101, 102, 103, 104, 105] {
            let mut m = Machine::new(&img);
            assert!(m.run(&img, &eager, &mut NoIo, Some(cut)).is_none());
            assert_eq!(m.instructions(), cut);
        }
    }

    #[test]
    fn io_cursor_is_checkpointed() {
        use crate::isa::IoMode;
        let img = ProgramImage {
            entry: 0,
            functions: vec![crate::image::Function {
                name: "main".into(),
                max_locals: 1,
                args: 0,
                rets: 0,
                code: vec![
                    Instr::IoOpen {
                        path: 0,
                        mode: IoMode::Write,
                    },
                    Instr::Store(0),
                    Instr::Load(0),
                    Instr::Push(7),
                    Instr::IoWriteNum,
                    Instr::Load(0),
                    Instr::IoClose,
                    Instr::Halt,
                ],
            }],
            strings: vec!["out.dat".into()],
        };
        let digest = ckpt::fnv1a(&img.to_bytes());
        let mut m = Machine::new(&img);
        // NoIo treats every op as a program exception, so run just far
        // enough to perform the open.
        let out = m.run(&img, &Installation::healthy(), &mut NoIo, Some(1));
        assert!(out.is_some() || m.io_ops() == 1);
        let state = m.snapshot(digest);
        assert_eq!(state.io_ops, 1);
    }
}
