//! The interpreter.
//!
//! [`load_and_run`] is the whole "invoke the JVM" path: check the
//! installation, load and integrity-check the image, verify the bytecode,
//! then interpret. Every way it can end is a [`Termination`] that knows its
//! scope — this is the information the JVM's bare exit code destroys
//! (Figure 4) and the wrapper preserves.

use crate::config::Installation;
use crate::image::{ProgramImage, MAGIC};
use crate::isa::Instr;
use crate::jvmio::{IoOutcome, JobIo};
use crate::trace::{Plan, TraceState, VmStats};
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

/// One activation: which function, where in it, and where its locals
/// start in the machine's arena.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    pc: usize,
    base: usize,
}

/// Execute a loaded, verified image from the beginning to termination.
pub fn execute(image: &ProgramImage, install: &Installation, io: &mut dyn JobIo) -> RunOutput {
    // The machine is this call's own, so what it collected moves out.
    let mut machine = Machine::new(image);
    let (termination, env_error) = machine
        .interpret(image, install, io, None)
        .expect("unbudgeted run always terminates");
    RunOutput {
        termination,
        stdout: machine.stdout,
        instructions: machine.instructions,
        env_error,
        vm: machine.trace.stats,
    }
}

/// `v` in decimal — the text of `v.to_string()`, written from the back of
/// a caller's buffer instead of into a `String` of its own.
pub(crate) fn decimal(v: i64, buf: &mut [u8; 20]) -> &str {
    let mut magnitude = v.unsigned_abs();
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits and sign")
}

/// The operand stack is a buffer at least this long with the depth kept
/// beside it, so the common push never grows anything.
const MIN_STACK: usize = 64;

/// A suspended or running interpreter: every piece of state the execution
/// loop keeps in locals while it runs, written back to a value at every
/// way out so it can be paused, serialised into a checkpoint
/// ([`Machine::snapshot`]) and later resumed on another machine
/// ([`Machine::restore`]).
#[derive(Debug)]
pub struct Machine {
    /// The innermost frame; its callers wait in `callers`, outermost
    /// first.
    frame: Frame,
    callers: Vec<Frame>,
    /// Every frame's locals, outermost first: frame `f` owns
    /// `locals[f.base..]` up to the next frame's base. A call extends the
    /// arena, a return truncates it.
    locals: Vec<i64>,
    /// The operand stack. Between runs its length is the depth; while
    /// [`Machine::run`] executes it is a longer zero-padded buffer and the
    /// depth lives in a local.
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

/// What the first `Print` reserves for stdout.
const FIRST_PRINT: usize = 128;

/// Double the operand-stack buffer.
#[cold]
fn grow(stack: &mut Vec<i64>) {
    stack.resize(stack.len().max(MIN_STACK / 2) * 2, 0);
}

impl Machine {
    /// A fresh machine poised at the entry point of `image`.
    pub fn new(image: &ProgramImage) -> Machine {
        let entry = image.entry as usize;
        Machine {
            frame: Frame {
                func: entry,
                pc: 0,
                base: 0,
            },
            callers: Vec::new(),
            locals: vec![0; image.functions[entry].max_locals as usize],
            stack: Vec::with_capacity(MIN_STACK),
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
        let frames = || self.callers.iter().chain([&self.frame]);
        // A frame's locals end where the next frame's begin.
        let ends = frames().skip(1).map(|f| f.base).chain([self.locals.len()]);
        ckpt::MachineState {
            image_digest,
            instructions: self.instructions,
            io_ops: self.io_ops,
            heap_words: self.heap_words,
            stdout: self.stdout.clone(),
            frames: frames()
                .zip(ends)
                .map(|(f, end)| ckpt::FrameState {
                    func: f.func as u32,
                    pc: f.pc as u32,
                    locals: self.locals[f.base..end].to_vec(),
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
        let mut locals = Vec::new();
        let mut frames: Vec<Frame> = state
            .frames
            .into_iter()
            .map(|f| {
                let base = locals.len();
                locals.extend(f.locals);
                Frame {
                    func: f.func as usize,
                    pc: f.pc as usize,
                    base,
                }
            })
            .collect();
        Ok(Machine {
            frame: frames.pop().expect("at least one frame, checked above"),
            callers: frames,
            locals,
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
        let (termination, env_error) = self.interpret(image, install, io, budget)?;
        Some(RunOutput {
            termination,
            stdout: self.stdout.clone(),
            instructions: self.instructions,
            env_error,
            vm: self.trace.stats,
        })
    }

    /// The interpreter behind [`Machine::run`]: how the program ended and,
    /// for an escaping I/O error, the original error.
    ///
    /// Two levels. [`frame_loop`] runs the instructions that touch only
    /// the frame — operand stack, locals, array elements, branches — with
    /// the pc, the stack depth and the instruction countdown in its own
    /// locals. It hands back here for everything else: an instruction
    /// that allocates, prints, does I/O, changes frames or ends the
    /// program; a fault to diagnose; a taken backward branch the trace
    /// tier wants to see; a full stack buffer; a spent countdown.
    ///
    /// Here the innermost frame (`func`, `pc`, its code and its slice of
    /// the locals arena), the depth and the countdown are locals too.
    /// `sync!` writes them back on every way out, and a trace is entered
    /// with the operand stack cut to its depth, so between runs — and
    /// for the trace tier — the machine is exactly what its fields say.
    fn interpret(
        &mut self,
        image: &ProgramImage,
        install: &Installation,
        io: &mut dyn JobIo,
        budget: Option<u64>,
    ) -> Option<(Termination, Option<ScopedError>)> {
        let Machine {
            frame,
            callers,
            locals,
            stack,
            heap,
            heap_words,
            instructions,
            io_ops,
            stdout,
            trace,
        } = self;
        let Frame {
            mut func,
            mut pc,
            mut base,
        } = *frame;
        let mut code: &[Instr] = &image.functions[func].code;
        let mut lv: &mut [i64] = &mut locals[base..];
        let mut sp = stack.len();
        stack.resize(stack.capacity().max(MIN_STACK), 0);
        let mut stk: &mut [i64] = &mut stack[..];
        let mut recording = trace.recorder.is_some();
        let mut quiet = Quiet { target: 0, left: 0 };
        // One countdown for fuel and budget: `limit - left` instructions
        // have run since entry, whoever executed them.
        let entered_at = *instructions;
        let fuel_left = install.fuel.saturating_sub(entered_at);
        let limit = budget.map_or(fuel_left, |b| b.min(fuel_left));
        let mut left = limit;

        macro_rules! sync {
            () => {{
                *frame = Frame { func, pc, base };
                stack.truncate(sp);
                *instructions = entered_at + (limit - left);
            }};
        }
        macro_rules! done {
            ($t:expr) => {{
                let termination = $t;
                sync!();
                return Some((termination, None));
            }};
        }
        macro_rules! exception {
            ($name:expr, $msg:expr) => {
                done!(Termination::Exception {
                    name: $name.to_string(),
                    message: $msg.to_string(),
                })
            };
        }
        // An escaping error from the I/O layer: flatten it into the usual
        // EnvFailure *and* keep the original so its journey can continue.
        macro_rules! escape {
            ($se:expr) => {{
                let se: ScopedError = $se;
                sync!();
                return Some((
                    Termination::EnvFailure {
                        scope: se.scope,
                        code: se.code.clone(),
                        message: se.message.clone(),
                    },
                    Some(se),
                ));
            }};
        }
        // An operand the underflow check ahead of the driver's `match`
        // has counted.
        macro_rules! pop {
            () => {{
                sp -= 1;
                stk[sp]
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                if sp == stk.len() {
                    grow(stack);
                    stk = &mut stack[..];
                }
                stk[sp] = v;
                sp += 1;
            }};
        }
        // Back to the caller, or out of the program.
        macro_rules! ret {
            () => {
                match callers.pop() {
                    Some(caller) => {
                        locals.truncate(base);
                        Frame { func, pc, base } = caller;
                        code = &image.functions[func].code;
                        lv = &mut locals[base..];
                        quiet.left = 0;
                    }
                    None => done!(Termination::Completed { exit_code: 0 }),
                }
            };
        }

        loop {
            if left == 0 {
                sync!();
                if budget.is_some_and(|b| b <= fuel_left) {
                    return None; // suspended, not terminated
                }
                return Some((
                    Termination::EnvFailure {
                        scope: Scope::VirtualMachine,
                        code: ErrorCode::new("CpuLimitExceeded"),
                        message: "instruction budget exhausted; machine reclaiming CPU".into(),
                    },
                    None,
                ));
            }
            // Trace recording observes the interpreter doing exactly what
            // it always does and never changes execution: the frame loop
            // stops at every taken jump, and what it ran in between is a
            // straight line of `code`.
            let tier = &install.trace;
            let (mut quota, watch) = if recording {
                (left.min(trace.room(tier.max_trace_len)), Watch::Every)
            } else if tier.enabled {
                (left, Watch::Backward)
            } else {
                (left, Watch::Never)
            };
            let (start, granted, unasked) = (pc, quota, quiet.left);
            let handback = frame_loop(
                code, stk, lv, heap, &mut pc, &mut sp, &mut quota, watch, &mut quiet,
            );
            let ran = granted - quota;
            left -= ran;
            if quiet.left < unasked {
                trace.tally(func as u32, quiet.target, unasked - quiet.left);
            }
            if recording {
                let jumped = matches!(handback, Handback::Jumped { .. });
                let (func, ran) = (func as u32, ran as usize);
                recording = trace.observe_run(func, code, start, ran, jumped, tier.max_trace_len);
            }

            let ins = match handback {
                Handback::Spent => continue,
                Handback::Full => {
                    grow(stack);
                    stk = &mut stack[..];
                    continue;
                }
                Handback::End => {
                    // Fell off the end of a function: implicit return. A
                    // recording ends here with a terminal bail — the frame
                    // change is the interpreter's business.
                    left -= 1;
                    if recording {
                        trace.finish_recording(Some(pc as u32));
                        recording = false;
                    }
                    ret!();
                    continue;
                }
                // A taken backward branch is the only place a loop can
                // close, so it carries all the trace tier's bookkeeping —
                // hotness counting, recording kick-off, compiled-trace
                // entry; the straight-line path pays nothing.
                Handback::Jumped { from, target } => {
                    if recording || !tier.enabled || target > from {
                        continue;
                    }
                    match trace.plan(func as u32, target, tier.hot_threshold) {
                        Plan::Enter(compiled) => {
                            // Headroom: the runner never commits past the
                            // fuel limit or the run budget, so those stops
                            // always land on pure interpreter state.
                            stack.truncate(sp);
                            let exit = trace.enter(
                                compiled, stack, lv, heap, heap_words, stdout, install, left,
                            );
                            sp = stack.len();
                            stack.resize(stack.capacity(), 0);
                            stk = &mut stack[..];
                            pc = exit.pc as usize;
                            left -= exit.committed;
                        }
                        Plan::Record => {
                            trace.start_recording(func as u32, target);
                            recording = true;
                        }
                        Plan::Nothing { quiet: edges } => {
                            quiet = Quiet {
                                target,
                                left: edges,
                            };
                        }
                    }
                    continue;
                }
                Handback::Other(ins) => ins,
            };

            if recording {
                recording = trace.observe(pc as u32, ins, tier.max_trace_len);
            }
            // The instruction counts whether or not it completes.
            left -= 1;
            pc += 1;
            let operands = ins.stack_effect().0 as usize;
            if sp < operands {
                done!(Termination::EnvFailure {
                    scope: Scope::VirtualMachine,
                    code: codes::VIRTUAL_MACHINE_ERROR,
                    message: "operand stack underflow past the verifier".into(),
                });
            }
            match ins {
                Instr::NewArray => {
                    let size = pop!();
                    if size < 0 {
                        exception!("NegativeArraySizeException", format!("size {size}"));
                    }
                    let words = size as u64;
                    if *heap_words + words > install.heap_limit {
                        done!(Termination::EnvFailure {
                            scope: Scope::VirtualMachine,
                            code: codes::OUT_OF_MEMORY,
                            message: format!(
                                "requested {words} words with {}/{} used",
                                heap_words, install.heap_limit
                            ),
                        });
                    }
                    *heap_words += words;
                    heap.push(vec![0; size as usize]);
                    push!(heap.len() as i64); // handle = index + 1
                }
                Instr::Call(target) => {
                    if callers.len() + 1 >= install.max_call_depth {
                        done!(Termination::EnvFailure {
                            scope: Scope::VirtualMachine,
                            code: ErrorCode::new("StackOverflowError"),
                            message: format!("call depth limit {} reached", install.max_call_depth),
                        });
                    }
                    callers.push(Frame { func, pc, base });
                    func = target as usize;
                    pc = 0;
                    base = locals.len();
                    let callee = &image.functions[func];
                    code = &callee.code;
                    locals.resize(base + callee.max_locals as usize, 0);
                    lv = &mut locals[base..];
                    quiet.left = 0;
                }
                Instr::Ret => ret!(),
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
                    if stdout.capacity() == 0 {
                        // A program that prints usually prints in a loop:
                        // skip the 8-16-32-64 doublings of an empty string.
                        stdout.reserve(FIRST_PRINT);
                    }
                    stdout.push_str(decimal(v, &mut [0; 20]));
                    stdout.push('\n');
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
                    push!(out);
                }
                Instr::IoOpen { path, mode } => {
                    *io_ops += 1;
                    let p = &image.strings[path as usize];
                    match io.open(p, mode) {
                        IoOutcome::Ok(fd) => push!(i64::from(fd)),
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
                Instr::IoReadSum => {
                    *io_ops += 1;
                    let fd = pop!();
                    match io.read_all(fd as u32) {
                        IoOutcome::Ok(data) => {
                            push!(data.iter().map(|b| i64::from(*b)).sum());
                        }
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
                Instr::IoWriteNum => {
                    *io_ops += 1;
                    let v = pop!();
                    let fd = pop!();
                    match io.write(fd as u32, decimal(v, &mut [0; 20]).as_bytes()) {
                        IoOutcome::Ok(()) => {}
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
                Instr::IoClose => {
                    *io_ops += 1;
                    let fd = pop!();
                    match io.close(fd as u32) {
                        IoOutcome::Ok(()) => {}
                        IoOutcome::Exception(m) => exception!("IOException", m),
                        IoOutcome::Escape(se) => escape!(se),
                    }
                }
                // One of `frame_loop`'s own, handed over because it
                // cannot complete.
                faulting => done!(fault(faulting, &stk[sp - operands..sp], heap)),
            }
        }
    }
}

/// Why [`frame_loop`] handed back.
enum Handback {
    /// The countdown ran out.
    Spent,
    /// The pc ran off the end of the function.
    End,
    /// The operand-stack buffer is full; nothing of the pushing
    /// instruction has happened.
    Full,
    /// A jump was just taken, of a kind the caller asked to see.
    Jumped {
        /// The jump's own pc.
        from: u32,
        /// Where it landed.
        target: u32,
    },
    /// The instruction at the pc is not the frame loop's, or is and cannot
    /// complete; nothing of it has happened.
    Other(Instr),
}

/// Taken backward branches to `target` the trace tier has said it need
/// not see one by one: [`frame_loop`] takes up to `left` of them without
/// handing back. Pcs are per function, so a frame change ends it.
struct Quiet {
    target: u32,
    left: u32,
}

/// Which taken jumps [`frame_loop`] hands back after.
#[derive(Clone, Copy)]
enum Watch {
    Never,
    Backward,
    Every,
}

/// The inner interpreter loop: the instructions that touch nothing but
/// the frame. `at`, `depth` and `left` are the pc, the operand-stack depth
/// over the buffer `stk` and the instruction countdown; they live in
/// locals here and are written back on the way out. An instruction either
/// completes or — operands missing, a zero divisor, a null or dangling
/// reference, an index out of bounds, no room to push — is left untouched
/// for the caller. Kept out of line so the caller's many live values do
/// not compete with these for registers.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn frame_loop(
    code: &[Instr],
    stk: &mut [i64],
    lv: &mut [i64],
    heap: &mut [Vec<i64>],
    at: &mut usize,
    depth: &mut usize,
    left: &mut u64,
    watch: Watch,
    quiet: &mut Quiet,
) -> Handback {
    let (mut pc, mut sp, mut n) = (*at, *depth, *left);
    let mut unasked = quiet.left;
    let handback = loop {
        if n == 0 {
            break Handback::Spent;
        }
        let Some(&ins) = code.get(pc) else {
            break Handback::End;
        };
        // The top `$n` operands, or hand the instruction back.
        macro_rules! top {
            ($n:literal) => {{
                let operands = sp.checked_sub($n).and_then(|lo| stk.get_mut(lo..sp));
                match operands.and_then(|o| <&mut [i64; $n]>::try_from(o).ok()) {
                    Some(operands) => operands,
                    None => break Handback::Other(ins),
                }
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                match stk.get_mut(sp) {
                    Some(slot) => *slot = v,
                    None => break Handback::Full,
                }
                sp += 1;
            }};
        }
        // Two operands in, one result out, in place.
        macro_rules! binary {
            (|$a:ident, $b:ident| $r:expr) => {{
                let [a, b] = top!(2);
                let ($a, $b) = (*a, *b);
                *a = $r;
                sp -= 1;
            }};
        }
        macro_rules! jump {
            ($t:expr) => {{
                let from = pc;
                pc = $t as usize;
                n -= 1;
                let seen = match watch {
                    Watch::Backward if pc > from => false,
                    Watch::Backward if $t == quiet.target && unasked > 0 => {
                        unasked -= 1;
                        false
                    }
                    Watch::Backward | Watch::Every => true,
                    Watch::Never => false,
                };
                if seen {
                    break Handback::Jumped {
                        from: from as u32,
                        target: $t,
                    };
                }
                continue;
            }};
        }
        // The array behind a handle (index + 1), or hand back.
        macro_rules! array {
            ($r:expr) => {
                match usize::try_from($r)
                    .ok()
                    .and_then(|h| h.checked_sub(1))
                    .and_then(|h| heap.get_mut(h))
                {
                    Some(a) => a,
                    None => break Handback::Other(ins),
                }
            };
        }
        match ins {
            Instr::Push(v) => push!(v),
            Instr::PushNull => push!(0),
            Instr::Pop => {
                top!(1);
                sp -= 1;
            }
            Instr::Dup => {
                let [v] = *top!(1);
                push!(v);
            }
            Instr::Swap => top!(2).swap(0, 1),
            Instr::Add => binary!(|a, b| a.wrapping_add(b)),
            Instr::Sub => binary!(|a, b| a.wrapping_sub(b)),
            Instr::Mul => binary!(|a, b| a.wrapping_mul(b)),
            Instr::Div => binary!(|a, b| {
                if b == 0 {
                    break Handback::Other(ins);
                }
                a.wrapping_div(b)
            }),
            Instr::Mod => binary!(|a, b| {
                if b == 0 {
                    break Handback::Other(ins);
                }
                a.wrapping_rem(b)
            }),
            Instr::Neg => {
                let [v] = top!(1);
                *v = v.wrapping_neg();
            }
            Instr::CmpEq => binary!(|a, b| i64::from(a == b)),
            Instr::CmpLt => binary!(|a, b| i64::from(a < b)),
            Instr::CmpGt => binary!(|a, b| i64::from(a > b)),
            Instr::Jump(t) => jump!(t),
            Instr::JumpIfZero(t) => {
                let [v] = *top!(1);
                sp -= 1;
                if v == 0 {
                    jump!(t);
                }
            }
            Instr::JumpIfNonZero(t) => {
                let [v] = *top!(1);
                sp -= 1;
                if v != 0 {
                    jump!(t);
                }
            }
            Instr::Load(i) => match lv.get(usize::from(i)) {
                Some(&v) => push!(v),
                None => break Handback::Other(ins),
            },
            Instr::Store(i) => {
                let [v] = *top!(1);
                match lv.get_mut(usize::from(i)) {
                    Some(slot) => *slot = v,
                    None => break Handback::Other(ins),
                }
                sp -= 1;
            }
            Instr::ALen => {
                let [r] = top!(1);
                *r = array!(*r).len() as i64;
            }
            Instr::ALoad => {
                let [r, idx] = top!(2);
                let a = array!(*r);
                match usize::try_from(*idx).ok().and_then(|at| a.get(at)) {
                    Some(&v) => *r = v,
                    None => break Handback::Other(ins),
                }
                sp -= 1;
            }
            Instr::AStore => {
                let [r, idx, val] = *top!(3);
                let a = array!(r);
                match usize::try_from(idx).ok().and_then(|at| a.get_mut(at)) {
                    Some(slot) => *slot = val,
                    None => break Handback::Other(ins),
                }
                sp -= 3;
            }
            _ => break Handback::Other(ins),
        }
        pc += 1;
        n -= 1;
    };
    (*at, *depth, *left, quiet.left) = (pc, sp, n, unasked);
    handback
}

/// What a frame-loop instruction that could not complete raises; its
/// operands are present in `operands`, bottom first.
#[cold]
fn fault(ins: Instr, operands: &[i64], heap: &[Vec<i64>]) -> Termination {
    let exception = |name: &str, message: String| Termination::Exception {
        name: name.to_string(),
        message,
    };
    let array = |r: i64| {
        usize::try_from(r)
            .ok()
            .and_then(|h| h.checked_sub(1))
            .and_then(|h| heap.get(h))
    };
    let out_of_bounds = |idx: i64, a: &Vec<i64>| {
        exception(
            "ArrayIndexOutOfBoundsException",
            format!("index {idx} out of bounds for length {}", a.len()),
        )
    };
    let null = || "dereference of null or dangling reference".to_string();
    match (ins, operands) {
        (Instr::Div, _) => exception("ArithmeticException", "/ by zero".into()),
        (Instr::Mod, _) => exception("ArithmeticException", "% by zero".into()),
        (Instr::ALen, _) => exception("NullPointerException", null()),
        (Instr::ALoad, &[r, idx]) => match array(r) {
            Some(a) => out_of_bounds(idx, a),
            None => exception("NullPointerException", null()),
        },
        (Instr::AStore, &[r, idx, _]) => match array(r) {
            Some(a) => out_of_bounds(idx, a),
            None => exception(
                "NullPointerException",
                "store through null reference".into(),
            ),
        },
        // A local the verifier never saw.
        _ => Termination::EnvFailure {
            scope: Scope::VirtualMachine,
            code: codes::VIRTUAL_MACHINE_ERROR,
            message: format!("{ins:?} cannot execute past the verifier"),
        },
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
    fn decimal_is_the_text_to_string_writes() {
        let mut values = vec![0, 1, -1, 9, 10, -10, 42, i64::MAX, i64::MIN, i64::MIN + 1];
        values.extend((0..63).flat_map(|bit| [1i64 << bit, -(1i64 << bit), (1i64 << bit) - 1]));
        for v in values {
            assert_eq!(decimal(v, &mut [0; 20]), v.to_string());
        }
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
