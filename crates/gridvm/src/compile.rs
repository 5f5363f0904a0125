//! Trace lowering and compiled execution — the back half of the trace tier.
//!
//! A recorded linear trace (one observed iteration of a hot loop, see
//! [`crate::trace`]) is lowered here, by **abstract interpretation of the
//! operand stack**, into three-address [`TraceOp`]s over one register
//! file of [`MAX_REGS`] words laid out `locals ‖ constants ‖ temps`:
//!
//! * `Push`, `Load`, `Dup`, `Swap`, `Pop` and in-trace `Jump`s emit
//!   nothing. They only move *symbols* — register names — on a
//!   compile-time model of the operand stack.
//! * Arithmetic, compares, array and library instructions pop their
//!   operand symbols and emit one op reading those registers and writing
//!   a temp (or, when a `Store` follows at once, the local itself). A
//!   compare consumed at once by a conditional jump becomes one
//!   compare-and-branch.
//! * Instructions that emit nothing ride with the next op that does: an
//!   op covers a *group* of base instructions, remembers where the group
//!   began, and carries its length as `cost`, charged against fuel and
//!   any run budget exactly as the interpreter would charge them.
//!
//!
//! So `cpu_bound`'s 15-instruction circuit is five ops, none of which
//! touches the operand stack.
//!
//! **Snapshots.** A symbol is only a name; the interpreter's operand
//! stack does not hold the value while the trace runs. Every way out of
//! the trace is therefore a [`Snapshot`]: the pc to resume at, how much
//! of the circuit counts as executed, and the registers to push back, in
//! order, to rebuild the operand stack as the interpreter would have it
//! there. Every op has one for the first instruction of its group, taken
//! when fuel or budget cannot cover the group. A guarded op has a second
//! for its own instruction — the group's pushes and loads count as
//! executed and sit on the rebuilt stack, so the interpreter re-runs the
//! faulting instruction alone. Ops that leave after committing (a
//! diverging branch, the terminal bail) or restart the trace (the
//! loop-back) have a second for the stack after the group. Locals live in
//! their registers for the whole execution and are copied back on every
//! exit.
//!
//! Three hazards the model handles:
//!
//! * *Underflow* — the body pops a value pushed before the trace head (a
//!   stack-resident accumulator). The symbolic stack is empty, so the
//!   lowering emits [`OpKind::PopReal`] to fetch the value from the real
//!   stack into a temp, and prepends that temp to the snapshots still
//!   being built.
//! * *Overwrite* — `Load n … Store n` with the loaded value still
//!   pending. A symbol naming local `n` must mean the value `n` has
//!   *now*, so pending uses are first copied to a temp.
//! * *Register pressure* — a temp is recycled once the group that popped
//!   its last use has closed (never earlier: the group's snapshot may
//!   still name it), so pressure is the number of values alive at once,
//!   not the length of the trace. A recording that still does not fit
//!   the file is rejected whole (its head blacklisted), never truncated.
//!
//! The containment rule, after Hukerikar & Engelmann's resilience-pattern
//! vocabulary: the compiled tier never *raises* an error. When a guard
//! trips — null or dangling reference, array bounds, division by zero,
//! heap exhaustion, a broken installation under `StdCall`, fuel or budget
//! running dry, or a terminal bail at an instruction the tier does not
//! execute (I/O, calls, terminators) — the trace exits *before* the
//! faulting instruction with the machine in exactly the interpreter's
//! state at that pc. The interpreter then re-executes the instruction and
//! produces the identical scoped [`crate::machine::Termination`] it always
//! would. Branch divergence (the loop condition finally failing) is the
//! one *committed* exit: the branch instruction counts, and control
//! resumes at the divergent target.

use crate::config::Installation;
use crate::isa::Instr;
use crate::machine::decimal;
use crate::trace::{Recorded, Recorder};

/// Index into a trace's register file. A byte, so that indexing the
/// [`MAX_REGS`]-word file needs no bounds check.
pub type Reg = u8;

/// Size of the register file (`locals ‖ constants ‖ temps`). A recording
/// that needs more registers is not compiled.
pub const MAX_REGS: usize = 1 << Reg::BITS;

/// One three-address trace operation, covering a group of base
/// instructions: those that emitted nothing since the previous op, its
/// own, and a `Store` or conditional jump folded into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Number of base instructions in the group; charged against fuel and
    /// any run budget exactly as the interpreter would charge them.
    pub cost: u32,
    /// The exit before the group: its first pc, and how far into the
    /// circuit that is. Guarded ops own `snap + 1` too, the exit at their
    /// own instruction; branches, [`OpKind::Bail`] and
    /// [`OpKind::LoopBack`] own `snap + 1` as the state after the group.
    pub snap: u32,
    /// What the op does.
    pub kind: OpKind,
}

/// The operation set. Operands are registers, the destination first;
/// guarded ops check before they write anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `dst = src` — a `Store` of a value no op just produced, or a
    /// pending local saved ahead of an overwrite.
    Mov(Reg, Reg),
    /// `dst = pop` — fetch a value pushed before the trace head from the
    /// real operand stack; guards an empty stack.
    PopReal(Reg),
    /// `dst = a + b`, wrapping.
    Add(Reg, Reg, Reg),
    /// `dst = a - b`, wrapping.
    Sub(Reg, Reg, Reg),
    /// `dst = a * b`, wrapping.
    Mul(Reg, Reg, Reg),
    /// `dst = a / b`; guards `b == 0`.
    Div(Reg, Reg, Reg),
    /// `dst = a % b`; guards `b == 0`.
    Mod(Reg, Reg, Reg),
    /// `dst = -a`, wrapping.
    Neg(Reg, Reg),
    /// `dst = (a == b) as i64`.
    CmpEq(Reg, Reg, Reg),
    /// `dst = (a < b) as i64`.
    CmpLt(Reg, Reg, Reg),
    /// `dst = (a > b) as i64`.
    CmpGt(Reg, Reg, Reg),
    /// Compare-and-branch `(a, b, stay)`: stay in the trace while
    /// `(a == b) == stay` — the outcome the recording saw — else commit
    /// and side-exit to the other target.
    BrEq(Reg, Reg, bool),
    /// Compare-and-branch on `a < b` — the counted-loop condition.
    BrLt(Reg, Reg, bool),
    /// Compare-and-branch on `a > b`.
    BrGt(Reg, Reg, bool),
    /// A conditional jump `(a, stay)` on a value no compare just
    /// produced: stay while `(a != 0) == stay`, else commit and side-exit.
    Br(Reg, bool),
    /// Append `a` in decimal and a newline to stdout.
    Print(Reg),
    /// `dst = new array of size words`; guards a negative size and the
    /// heap limit.
    NewArray(Reg, Reg),
    /// `dst = length of arr`; guards null.
    ALen(Reg, Reg),
    /// `dst = arr[idx]`; guards null and bounds.
    ALoad(Reg, Reg, Reg),
    /// `arr[idx] = val` as `(arr, idx, val)`; guards null and bounds.
    AStore(Reg, Reg, Reg),
    /// `dst = stdlib[routine](a)` as `(dst, a, routine)`, routine 0 = abs,
    /// 1 = sgn, 2 = isqrt; guards a broken installation, unknown routines,
    /// and `isqrt` of a negative.
    StdCall(Reg, Reg, u8),
    /// End of the loop body: charge the closing group (the `Jump` back
    /// to the head and whatever rides with it), push the second snapshot
    /// (values the body left on the stack) and continue from op 0.
    LoopBack,
    /// Terminal guard exit: the recording ended at an instruction the tier
    /// leaves to the interpreter (I/O, `Call`, `Ret`, terminators) —
    /// commit the closing group and resume the interpreter there.
    Bail,
}

impl OpKind {
    /// The register a value-producing op writes.
    fn dst_mut(&mut self) -> Option<&mut Reg> {
        match self {
            OpKind::Add(dst, ..)
            | OpKind::Sub(dst, ..)
            | OpKind::Mul(dst, ..)
            | OpKind::Div(dst, ..)
            | OpKind::Mod(dst, ..)
            | OpKind::Neg(dst, _)
            | OpKind::CmpEq(dst, ..)
            | OpKind::CmpLt(dst, ..)
            | OpKind::CmpGt(dst, ..)
            | OpKind::NewArray(dst, _)
            | OpKind::ALen(dst, _)
            | OpKind::ALoad(dst, ..)
            | OpKind::StdCall(dst, ..) => Some(dst),
            _ => None,
        }
    }

    /// Can this op refuse to run (and so needs the exit at its own
    /// instruction)?
    fn guarded(&self) -> bool {
        matches!(
            self,
            OpKind::PopReal(_)
                | OpKind::Div(..)
                | OpKind::Mod(..)
                | OpKind::NewArray(..)
                | OpKind::ALen(..)
                | OpKind::ALoad(..)
                | OpKind::AStore(..)
                | OpKind::StdCall(..)
        )
    }
}

/// One way out of a trace: where the interpreter resumes and in what
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot<'a> {
    /// The interpreter pc to resume at.
    pub pc: u32,
    /// Base instructions of the current circuit that count as executed.
    pub committed: u32,
    /// Registers to push onto the operand stack, bottom first.
    pub regs: &'a [Reg],
}

/// A compiled trace: a register program for one hot loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// Function the trace lives in.
    pub func: u32,
    /// The loop-head pc the trace starts at.
    pub head: u32,
    /// The program: linear, ending in its only [`OpKind::LoopBack`] or
    /// [`OpKind::Bail`].
    pub ops: Vec<TraceOp>,
    /// Base instructions per full circuit (the sum of op costs).
    pub base_len: u32,
    /// Registers `0..nlocals` mirror the frame's locals of the same index
    /// (only as many as the trace names).
    pub nlocals: usize,
    /// Registers `nlocals..nlocals + consts.len()` hold these values; the
    /// rest of the file is temps.
    pub consts: Vec<i64>,
    /// Snapshot `i` is `(pc, committed, start, len)` with its registers
    /// at `snap_regs[start..][..len]`.
    snaps: Vec<[u32; 4]>,
    snap_regs: Vec<Reg>,
}

impl CompiledTrace {
    /// Snapshot `i` (see [`TraceOp::snap`]).
    pub fn snapshot(&self, i: u32) -> Snapshot<'_> {
        let [pc, committed, start, len] = self.snaps[i as usize];
        Snapshot {
            pc,
            committed,
            regs: &self.snap_regs[start as usize..][..len as usize],
        }
    }
}

/// Lower a closed recording. `bail_pc` is `Some(pc)` when the recording
/// ended at an unsupported instruction (terminal bail there) and `None`
/// when it closed by jumping back to its head (loop back). Returns `None`
/// for recordings not worth compiling (empty: the head itself was
/// unsupported) or too big for the register file.
pub fn compile(r: &Recorder, bail_pc: Option<u32>) -> Option<CompiledTrace> {
    Lowering::default().lower(r, bail_pc)
}

/// The abstract interpreter: the operand stack as register names, and the
/// group of base instructions the next emitted op will cover. Every
/// vector is scratch that [`Lowering::lower`] empties before use, so one
/// value serves any number of recordings and grows only to the largest.
#[derive(Debug, Default)]
pub(crate) struct Lowering {
    nlocals: usize,
    /// Sorted and distinct; constant `consts[i]` is register `nlocals + i`.
    consts: Vec<i64>,
    /// The first temp never handed out.
    next_temp: usize,
    /// Temps handed out before and dead since a closed group.
    free: Vec<Reg>,
    /// Temps the open group popped: recycled when it closes, if nothing
    /// on the stack names them any more.
    popped: Vec<Reg>,
    /// Symbolic operand stack: what sits *above* the real one.
    stack: Vec<Reg>,
    ops: Vec<TraceOp>,
    snaps: Vec<[u32; 4]>,
    snap_regs: Vec<Reg>,
    /// Base instructions covered by the closed groups.
    circuit: u32,
    /// First pc of the open group.
    group_pc: u32,
    /// Base instructions in the open group; 0 when none is open.
    group_cost: u32,
    /// `stack` as of the open group's first instruction, with values the
    /// group fetched from the real stack prepended.
    group_stack: Vec<Reg>,
    /// pc of the instruction being lowered, and what it has popped so
    /// far, top first: those, back on top of `stack`, are the stack
    /// before it.
    here_pc: u32,
    here_popped: Vec<Reg>,
    /// The temp `ops.last()` wrote, while nothing else has been lowered
    /// since — what lets a `Store` or conditional jump fold into it.
    fresh: Option<Reg>,
}

impl Lowering {
    /// [`compile`] on this scratch: the trace comes out in vectors of
    /// exactly its size, the scratch keeps its capacity.
    pub(crate) fn lower(&mut self, r: &Recorder, bail_pc: Option<u32>) -> Option<CompiledTrace> {
        if r.steps.is_empty() {
            return None;
        }
        for scratch in [
            &mut self.free,
            &mut self.popped,
            &mut self.stack,
            &mut self.snap_regs,
            &mut self.group_stack,
            &mut self.here_popped,
        ] {
            scratch.clear();
        }
        self.ops.clear();
        self.snaps.clear();
        self.consts.clear();
        self.nlocals = 0;
        for s in &r.steps {
            match s.ins {
                Instr::Load(n) | Instr::Store(n) => {
                    self.nlocals = self.nlocals.max(usize::from(n) + 1);
                }
                Instr::Push(v) => self.consts.push(v),
                Instr::PushNull => self.consts.push(0),
                _ => {}
            }
        }
        self.consts.sort_unstable();
        self.consts.dedup();
        self.next_temp = self.nlocals + self.consts.len();
        if self.next_temp > MAX_REGS {
            return None;
        }
        (self.circuit, self.group_cost, self.fresh) = (0, 0, None);
        (self.group_pc, self.here_pc) = (r.head, r.head);
        for s in &r.steps {
            self.step(s)?;
        }
        // Instructions still riding (the closing `Jump`, trailing pushes)
        // belong to the closer.
        let end = bail_pc.unwrap_or(r.head);
        self.open_group(end);
        self.emit(match bail_pc {
            Some(_) => OpKind::Bail,
            None => OpKind::LoopBack,
        });
        self.snapshot_after(end);
        Some(CompiledTrace {
            func: r.func,
            head: r.head,
            ops: self.ops.clone(),
            base_len: self.circuit,
            nlocals: self.nlocals,
            consts: self.consts.clone(),
            snaps: self.snaps.clone(),
            snap_regs: self.snap_regs.clone(),
        })
    }

    fn open_group(&mut self, pc: u32) {
        if self.group_cost == 0 {
            self.group_pc = pc;
            self.group_stack.clone_from(&self.stack);
        }
        self.here_pc = pc;
        self.here_popped.clear();
    }

    /// The open group's op is out (or the group folded into the previous
    /// one): its instructions are part of the circuit, and whatever it
    /// popped for the last time may be written again.
    fn close_group(&mut self) {
        self.circuit += self.group_cost;
        self.group_cost = 0;
        while let Some(r) = self.popped.pop() {
            if !self.stack.contains(&r) {
                self.free.push(r);
            }
        }
    }

    fn temp(&mut self) -> Option<Reg> {
        if let Some(r) = self.free.pop() {
            return Some(r);
        }
        let r = Reg::try_from(self.next_temp).ok()?;
        self.next_temp += 1;
        Some(r)
    }

    fn constant(&self, v: i64) -> Reg {
        let i = self.consts.binary_search(&v).expect("constant pre-scanned");
        (self.nlocals + i) as Reg
    }

    /// Record that the registers appended to `snap_regs` since `start`
    /// rebuild the stack at `pc`, `committed` instructions into the
    /// circuit.
    fn snapshot(&mut self, pc: u32, committed: u32, start: usize) {
        let len = self.snap_regs.len() - start;
        self.snaps.push([pc, committed, start as u32, len as u32]);
    }

    /// The second snapshot of the op just emitted or folded into: every
    /// closed group executed, the stack as it is now, resuming at `pc`.
    fn snapshot_after(&mut self, pc: u32) {
        let start = self.snap_regs.len();
        self.snap_regs.extend_from_slice(&self.stack);
        self.snapshot(pc, self.circuit, start);
    }

    /// Emit an op charged `cost`, with the exit before the open group
    /// and, if it is guarded, the exit at the instruction being lowered.
    fn push_op(&mut self, cost: u32, kind: OpKind) {
        let snap = self.snaps.len() as u32;
        let start = self.snap_regs.len();
        self.snap_regs.extend_from_slice(&self.group_stack);
        self.snapshot(self.group_pc, self.circuit, start);
        if kind.guarded() {
            let start = self.snap_regs.len();
            self.snap_regs.extend_from_slice(&self.stack);
            self.snap_regs.extend(self.here_popped.iter().rev());
            self.snapshot(self.here_pc, self.circuit + self.group_cost - 1, start);
        }
        self.ops.push(TraceOp { cost, snap, kind });
    }

    /// The op that closes the open group and carries its cost.
    fn emit(&mut self, kind: OpKind) {
        self.push_op(self.group_cost, kind);
        self.close_group();
    }

    /// Pop an operand symbol. Below the symbolic stack lies the real one:
    /// a value pushed before the trace head is fetched into a temp by a
    /// helper op charged nothing.
    fn pop(&mut self) -> Option<Reg> {
        let r = match self.stack.pop() {
            Some(r) => r,
            None => {
                let dst = self.temp()?;
                self.push_op(0, OpKind::PopReal(dst));
                self.group_stack.insert(0, dst);
                dst
            }
        };
        self.here_popped.push(r);
        let temp = usize::from(r) >= self.nlocals + self.consts.len();
        if temp && !self.popped.contains(&r) {
            self.popped.push(r);
        }
        Some(r)
    }

    /// Emit a value-producing op and push its result.
    fn produce(&mut self, op: impl FnOnce(Reg) -> OpKind) -> Option<()> {
        let dst = self.temp()?;
        self.emit(op(dst));
        self.stack.push(dst);
        self.fresh = Some(dst);
        Some(())
    }

    fn step(&mut self, s: &Recorded) -> Option<()> {
        use Instr as I;
        self.open_group(s.pc);
        self.group_cost += 1;
        let fresh = self.fresh.take();
        match s.ins {
            I::Push(v) => self.stack.push(self.constant(v)),
            I::PushNull => self.stack.push(self.constant(0)),
            I::Load(n) => self.stack.push(n),
            I::Pop => {
                self.pop()?;
            }
            I::Dup => {
                let v = self.pop()?;
                self.stack.extend([v, v]);
            }
            I::Swap => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.extend([b, a]);
            }
            // Control flow is already linear: the jump only costs.
            I::Jump(_) => {}
            I::Add | I::Sub | I::Mul | I::Div | I::Mod | I::CmpEq | I::CmpLt | I::CmpGt => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.produce(|dst| match s.ins {
                    I::Add => OpKind::Add(dst, a, b),
                    I::Sub => OpKind::Sub(dst, a, b),
                    I::Mul => OpKind::Mul(dst, a, b),
                    I::Div => OpKind::Div(dst, a, b),
                    I::Mod => OpKind::Mod(dst, a, b),
                    I::CmpEq => OpKind::CmpEq(dst, a, b),
                    I::CmpLt => OpKind::CmpLt(dst, a, b),
                    _ => OpKind::CmpGt(dst, a, b),
                })?;
            }
            I::Neg => {
                let a = self.pop()?;
                self.produce(|dst| OpKind::Neg(dst, a))?;
            }
            I::NewArray => {
                let size = self.pop()?;
                self.produce(|dst| OpKind::NewArray(dst, size))?;
            }
            I::ALen => {
                let arr = self.pop()?;
                self.produce(|dst| OpKind::ALen(dst, arr))?;
            }
            I::ALoad => {
                let idx = self.pop()?;
                let arr = self.pop()?;
                self.produce(|dst| OpKind::ALoad(dst, arr, idx))?;
            }
            I::StdCall(routine) => {
                let a = self.pop()?;
                self.produce(|dst| OpKind::StdCall(dst, a, routine))?;
            }
            I::AStore => {
                let val = self.pop()?;
                let idx = self.pop()?;
                let arr = self.pop()?;
                self.emit(OpKind::AStore(arr, idx, val));
            }
            I::Print => {
                let a = self.pop()?;
                self.emit(OpKind::Print(a));
            }
            I::Store(local) => {
                let src = self.pop()?;
                let pending = self.stack.contains(&local);
                if fresh == Some(src) && !pending {
                    // The previous op made this value for nothing else:
                    // let it write the local, and absorb the `Store`.
                    let producer = self.ops.last_mut().expect("fresh names the last op");
                    *producer.kind.dst_mut().expect("fresh ops write a register") = local;
                    producer.cost += 1;
                    self.close_group();
                } else {
                    if pending {
                        // A symbol naming a local means its value *now*:
                        // park the old value before it is overwritten.
                        let saved = self.temp()?;
                        self.push_op(0, OpKind::Mov(saved, local));
                        for sym in self.stack.iter_mut().filter(|sym| **sym == local) {
                            *sym = saved;
                        }
                    }
                    self.emit(OpKind::Mov(local, src));
                }
            }
            I::JumpIfZero(t) | I::JumpIfNonZero(t) => {
                // The trace continues the way the recording went.
                let on_nonzero = matches!(s.ins, I::JumpIfNonZero(_));
                let stay = s.taken == on_nonzero;
                let diverge = if s.taken { s.pc + 1 } else { t };
                let cond = self.pop()?;
                let compare = self.ops.last().map(|op| op.kind);
                let fused = match compare {
                    _ if fresh != Some(cond) => None,
                    Some(OpKind::CmpEq(_, a, b)) => Some(OpKind::BrEq(a, b, stay)),
                    Some(OpKind::CmpLt(_, a, b)) => Some(OpKind::BrLt(a, b, stay)),
                    Some(OpKind::CmpGt(_, a, b)) => Some(OpKind::BrGt(a, b, stay)),
                    _ => None,
                };
                match fused {
                    Some(kind) => {
                        // A compare is not guarded, so its one snapshot
                        // is the newest and the branch's second lands
                        // right behind it.
                        let compare = self.ops.last_mut().expect("fresh names the last op");
                        debug_assert_eq!(compare.snap as usize + 1, self.snaps.len());
                        compare.kind = kind;
                        compare.cost += 1;
                        self.close_group();
                    }
                    None => self.emit(OpKind::Br(cond, stay)),
                }
                self.snapshot_after(diverge);
            }
            // Unsupported instructions end recording before they are recorded.
            other => unreachable!("unsupported instruction {other:?} in a recorded trace"),
        }
        Some(())
    }
}

/// How a compiled execution handed control back to the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceExit {
    /// The interpreter pc to resume at.
    pub pc: u32,
    /// Base instructions committed by this execution (already reflected in
    /// the machine state; the caller adds them to its counters).
    pub committed: u64,
    /// True for guard exits (bail *before* the instruction at `pc`: fault
    /// guards, fuel/budget boundaries, terminal bails); false for committed
    /// branch side-exits (the loop condition diverged).
    pub guard: bool,
}

/// Execute a compiled trace against borrowed machine state. `r` is
/// scratch the caller keeps between executions. `remaining` is the
/// instruction headroom (the lesser of fuel and any run budget): the
/// runner never commits past it, so fuel exhaustion and budget suspension
/// always land on pure interpreter state, and the interpreter burns the
/// last few instructions one at a time to the exact boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_trace(
    t: &CompiledTrace,
    r: &mut [i64; MAX_REGS],
    stack: &mut Vec<i64>,
    locals: &mut [i64],
    heap: &mut Vec<Vec<i64>>,
    heap_words: &mut u64,
    stdout: &mut String,
    install: &Installation,
    remaining: u64,
) -> TraceExit {
    // Temps are written before they are read; whatever an earlier
    // execution left in them is never seen.
    let n = t.nlocals;
    r[..n].copy_from_slice(&locals[..n]);
    r[n..n + t.consts.len()].copy_from_slice(&t.consts);
    // A circuit is linear, so every op's place in it is known: while a
    // whole circuit fits the headroom, no op in it needs to ask. Only the
    // last, partial circuit is run with the fuel/budget guard on.
    let circuit = u64::from(t.base_len);
    let (mut circuits, mut exit) = (0, None);
    if remaining >= circuit {
        (circuits, exit) =
            run_ops::<false>(t, r, stack, heap, heap_words, stdout, install, remaining);
    }
    let (snap, guard) = exit.unwrap_or_else(|| {
        let left = remaining - circuits * circuit;
        run_ops::<true>(t, r, stack, heap, heap_words, stdout, install, left)
            .1
            .expect("a circuit that does not fit cannot close")
    });
    let out = t.snapshot(snap);
    stack.extend(out.regs.iter().map(|&s| r[usize::from(s)]));
    locals[..n].copy_from_slice(&r[..n]);
    TraceExit {
        pc: out.pc,
        committed: circuits * circuit + u64::from(out.committed),
        guard,
    }
}

/// The dispatch loop, from op 0 with `left` instructions of headroom.
/// Returns the whole circuits completed and the way out: the snapshot to
/// leave by and whether that is a guard exit. With `TIGHT` off, `left`
/// must cover a circuit, no op checks it, and the loop hands back
/// (`None`) at op 0 once the next circuit no longer fits; with it on,
/// every op checks. Kept out of line so its registers are not shared
/// with the interpreter loop's.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn run_ops<const TIGHT: bool>(
    t: &CompiledTrace,
    r: &mut [i64; MAX_REGS],
    stack: &mut Vec<i64>,
    heap: &mut Vec<Vec<i64>>,
    heap_words: &mut u64,
    stdout: &mut String,
    install: &Installation,
    mut left: u64,
) -> (u64, Option<(u32, bool)>) {
    let circuit = u64::from(t.base_len);
    let mut circuits: u64 = 0;
    let mut ops = t.ops.iter();
    loop {
        let Some(op) = ops.next() else {
            unreachable!("a trace ends in LoopBack or Bail")
        };
        // Fuel/budget guard: never start a group that would overrun.
        if TIGHT && u64::from(t.snapshot(op.snap).committed + op.cost) > left {
            return (circuits, Some((op.snap, true)));
        }
        // Guard exit at the op's own instruction: nothing of it has
        // happened, and the snapshot puts its operands back.
        macro_rules! bail {
            () => {
                return (circuits, Some((op.snap + 1, true)))
            };
        }
        macro_rules! reg {
            ($r:expr) => {
                r[usize::from($r)]
            };
        }
        macro_rules! binop {
            ($dst:expr, $a:expr, $b:expr, $f:ident) => {
                reg!($dst) = reg!($a).$f(reg!($b))
            };
        }
        // Committed side exit: the group ran, the branch went the other
        // way.
        macro_rules! branch {
            ($holds:expr, $stay:expr) => {
                if ($holds) != $stay {
                    return (circuits, Some((op.snap + 1, false)));
                }
            };
        }
        // The array behind a handle; `None` for null or dangling.
        macro_rules! array {
            ($h:expr) => {
                usize::try_from($h)
                    .ok()
                    .and_then(|h| h.checked_sub(1))
                    .and_then(|h| heap.get_mut(h))
            };
        }
        match op.kind {
            OpKind::Mov(dst, src) => reg!(dst) = reg!(src),
            OpKind::PopReal(dst) => match stack.pop() {
                Some(v) => reg!(dst) = v,
                // The verifier rules this out; the interpreter survives
                // it with an explicit VM-scope error, so it gets to.
                None => bail!(),
            },
            OpKind::Add(dst, a, b) => binop!(dst, a, b, wrapping_add),
            OpKind::Sub(dst, a, b) => binop!(dst, a, b, wrapping_sub),
            OpKind::Mul(dst, a, b) => binop!(dst, a, b, wrapping_mul),
            OpKind::Div(dst, a, b) => {
                if reg!(b) == 0 {
                    bail!(); // ArithmeticException, raised by the interpreter
                }
                binop!(dst, a, b, wrapping_div);
            }
            OpKind::Mod(dst, a, b) => {
                if reg!(b) == 0 {
                    bail!();
                }
                binop!(dst, a, b, wrapping_rem);
            }
            OpKind::Neg(dst, a) => reg!(dst) = reg!(a).wrapping_neg(),
            OpKind::CmpEq(dst, a, b) => reg!(dst) = i64::from(reg!(a) == reg!(b)),
            OpKind::CmpLt(dst, a, b) => reg!(dst) = i64::from(reg!(a) < reg!(b)),
            OpKind::CmpGt(dst, a, b) => reg!(dst) = i64::from(reg!(a) > reg!(b)),
            OpKind::BrEq(a, b, stay) => branch!(reg!(a) == reg!(b), stay),
            OpKind::BrLt(a, b, stay) => branch!(reg!(a) < reg!(b), stay),
            OpKind::BrGt(a, b, stay) => branch!(reg!(a) > reg!(b), stay),
            OpKind::Br(a, stay) => branch!(reg!(a) != 0, stay),
            OpKind::Print(a) => {
                stdout.push_str(decimal(reg!(a), &mut [0; 20]));
                stdout.push('\n');
            }
            OpKind::NewArray(dst, size) => {
                let size = reg!(size);
                if size < 0 {
                    bail!(); // NegativeArraySizeException
                }
                let words = size as u64;
                if *heap_words + words > install.heap_limit {
                    bail!(); // OutOfMemoryError, VM scope
                }
                *heap_words += words;
                heap.push(vec![0; size as usize]);
                reg!(dst) = heap.len() as i64;
            }
            OpKind::ALen(dst, arr) => match array!(reg!(arr)) {
                Some(a) => reg!(dst) = a.len() as i64,
                None => bail!(), // NullPointerException
            },
            OpKind::ALoad(dst, arr, idx) => {
                let Some(a) = array!(reg!(arr)) else {
                    bail!(); // NullPointerException
                };
                let Some(v) = usize::try_from(reg!(idx)).ok().and_then(|at| a.get(at)) else {
                    bail!(); // ArrayIndexOutOfBoundsException
                };
                reg!(dst) = *v;
            }
            OpKind::AStore(arr, idx, val) => {
                let Some(a) = array!(reg!(arr)) else {
                    bail!();
                };
                let Some(slot) = usize::try_from(reg!(idx)).ok().and_then(|at| a.get_mut(at))
                else {
                    bail!();
                };
                *slot = reg!(val);
            }
            OpKind::StdCall(dst, a, routine) => {
                if !install.has_stdlib() {
                    bail!(); // MisconfiguredInstallation, remote-resource scope
                }
                let v = reg!(a);
                reg!(dst) = match routine {
                    0 => v.wrapping_abs(),
                    1 => v.signum(),
                    2 if v >= 0 => (v as f64).sqrt() as i64,
                    // isqrt of a negative: ArithmeticException; an unknown
                    // routine: NoSuchMethodError.
                    _ => bail!(),
                };
            }
            OpKind::LoopBack => {
                let kept = t.snapshot(op.snap + 1).regs;
                stack.extend(kept.iter().map(|&s| reg!(s)));
                circuits += 1;
                left -= circuit;
                if left < circuit {
                    return (circuits, None);
                }
                ops = t.ops.iter();
            }
            OpKind::Bail => bail!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Recorded;

    fn rec(steps: Vec<(u32, Instr, bool)>) -> Recorder {
        Recorder {
            func: 0,
            head: steps.first().map_or(0, |s| s.0),
            steps: steps
                .into_iter()
                .map(|(pc, ins, taken)| Recorded { pc, ins, taken })
                .collect(),
        }
    }

    /// Run `t` on a bare machine: returns the exit, the operand stack and
    /// the locals afterwards.
    fn run(
        t: &CompiledTrace,
        stack: &[i64],
        locals: &[i64],
        remaining: u64,
    ) -> (TraceExit, Vec<i64>, Vec<i64>) {
        let (mut stack, mut locals) = (stack.to_vec(), locals.to_vec());
        let exit = run_trace(
            t,
            &mut [0; MAX_REGS],
            &mut stack,
            &mut locals,
            &mut Vec::new(),
            &mut 0,
            &mut String::new(),
            &Installation::healthy(),
            remaining,
        );
        (exit, stack, locals)
    }

    #[test]
    fn empty_recording_is_rejected() {
        assert!(compile(&rec(vec![]), Some(0)).is_none());
    }

    #[test]
    fn cpu_bound_loop_body_fuses() {
        // The cpu_bound(n) loop, pcs 4..=18 closing back to 4 (see
        // programs::cpu_bound): condition, acc += i*i, i += 1, jump.
        let n = 1000;
        let r = rec(vec![
            (4, Instr::Load(1), false),
            (5, Instr::Push(n), false),
            (6, Instr::CmpLt, false),
            (7, Instr::JumpIfZero(19), false), // not taken: loop continues
            (8, Instr::Load(0), false),
            (9, Instr::Load(1), false),
            (10, Instr::Load(1), false),
            (11, Instr::Mul, false),
            (12, Instr::Add, false),
            (13, Instr::Store(0), false),
            (14, Instr::Load(1), false),
            (15, Instr::Push(1), false),
            (16, Instr::Add, false),
            (17, Instr::Store(1), false),
            (18, Instr::Jump(4), true),
        ]);
        let t = compile(&r, None).unwrap();
        assert_eq!(t.base_len, 15);
        // Registers: l0 l1 | #1 #1000 | temps.
        assert_eq!((t.nlocals, &t.consts[..]), (2, &[1, n][..]));
        let group = |o: &TraceOp| t.snapshot(o.snap);
        let ops: Vec<_> = t
            .ops
            .iter()
            .map(|o| (group(o).pc, o.cost, o.kind))
            .collect();
        assert_eq!(
            ops,
            vec![
                (4, 4, OpKind::BrLt(1, 3, true)),
                (8, 4, OpKind::Mul(4, 1, 1)),
                (12, 2, OpKind::Add(0, 0, 4)),
                (14, 4, OpKind::Add(1, 1, 2)),
                (18, 1, OpKind::LoopBack),
            ]
        );
        let before: Vec<_> = t.ops.iter().map(|o| group(o).committed).collect();
        assert_eq!(before, [0, 4, 8, 10, 14]);
        // The branch leaves to 19 with its four instructions counted.
        let leave = t.snapshot(t.ops[0].snap + 1);
        assert_eq!((leave.pc, leave.committed, leave.regs.len()), (19, 4, 0));
        // `Load 0` is pending while the multiply runs.
        let no_regs: &[Reg] = &[];
        assert_eq!(t.snapshot(t.ops[1].snap).regs, no_regs);
        assert_eq!(t.snapshot(t.ops[2].snap).regs, &[0, 4]);
        // Three circuits and the diverging fourth condition.
        let (exit, stack, locals) = run(&t, &[], &[0, n - 3], u64::MAX);
        assert_eq!((exit.pc, exit.committed, exit.guard), (19, 49, false));
        assert!(stack.is_empty());
        let sq = |i: i64| i * i;
        assert_eq!(locals, [sq(n - 3) + sq(n - 2) + sq(n - 1), n]);
        // Headroom that ends inside the multiply's group stops before it.
        let (exit, stack, locals) = run(&t, &[], &[0, 5], 21);
        assert_eq!((exit.pc, exit.committed, exit.guard), (8, 19, true));
        assert_eq!((stack, locals), (vec![], vec![25, 6]));
    }

    #[test]
    fn div_by_constant_zero_is_not_fused() {
        let r = rec(vec![
            (0, Instr::Push(0), false),
            (1, Instr::Div, false),
            (2, Instr::Jump(0), true),
        ]);
        let t = compile(&r, None).unwrap();
        // The dividend was pushed before the head; the zero divisor is an
        // ordinary register, so the Div guard still fires.
        assert_eq!(t.ops[0].kind, OpKind::PopReal(1));
        assert_eq!(t.ops[1].kind, OpKind::Div(2, 1, 0));
        // It fires at the `Div`: the push counts, and both operands are
        // back on the stack.
        let (exit, stack, _) = run(&t, &[9, 7], &[], u64::MAX);
        assert_eq!((exit.pc, exit.committed, exit.guard), (1, 1, true));
        assert_eq!(stack, [9, 7, 0]);
        // An empty stack stops the fetch at the same place.
        let (exit, stack, _) = run(&t, &[], &[], u64::MAX);
        assert_eq!((exit.pc, exit.committed, exit.guard), (1, 1, true));
        assert_eq!(stack, [0]);
    }

    #[test]
    fn terminal_bail_is_appended_for_unsupported_tails() {
        let r = rec(vec![(3, Instr::Load(0), false)]);
        let t = compile(&r, Some(4)).unwrap();
        let bail = t.ops.last().unwrap();
        assert_eq!(t.snapshot(bail.snap).pc, 3);
        assert_eq!((bail.cost, bail.kind), (1, OpKind::Bail));
        // Room for the load: it commits and its value is on the stack.
        let (exit, stack, _) = run(&t, &[], &[42], 1);
        assert_eq!((exit.pc, exit.committed, exit.guard), (4, 1, true));
        assert_eq!(stack, [42]);
        // No room: nothing happened.
        let (exit, stack, _) = run(&t, &[], &[42], 0);
        assert_eq!((exit.pc, exit.committed, exit.guard), (3, 0, true));
        assert!(stack.is_empty());
    }

    #[test]
    fn sub_of_i64_min_into_its_own_local_is_exact() {
        let r = rec(vec![
            (0, Instr::Load(2), false),
            (1, Instr::Push(i64::MIN), false),
            (2, Instr::Sub, false),
            (3, Instr::Store(2), false),
            (4, Instr::Jump(0), true),
        ]);
        let t = compile(&r, None).unwrap();
        assert_eq!(t.ops[0].kind, OpKind::Sub(2, 2, 3));
        let (exit, _, locals) = run(&t, &[], &[0, 0, 7], 5); // exactly one circuit
        assert_eq!(locals[2], 7i64.wrapping_sub(i64::MIN));
        assert_eq!(exit.committed, 5);
        assert!(exit.guard); // stopped by the headroom limit at the head
        assert_eq!(exit.pc, 0);
    }

    #[test]
    fn a_guard_counts_the_groups_pushes_and_leaves_them_on_the_stack() {
        // acc = acc + i / (i - 3), with acc pending under the division.
        let r = rec(vec![
            (0, Instr::Load(0), false),
            (1, Instr::Load(1), false),
            (2, Instr::Load(1), false),
            (3, Instr::Push(3), false),
            (4, Instr::Sub, false),
            (5, Instr::Div, false),
            (6, Instr::Add, false),
            (7, Instr::Store(0), false),
            (8, Instr::Load(1), false),
            (9, Instr::Push(1), false),
            (10, Instr::Add, false),
            (11, Instr::Store(1), false),
            (12, Instr::Jump(0), true),
        ]);
        let t = compile(&r, None).unwrap();
        // i = 2: one clean circuit, then the divisor is zero at pc 5.
        let (exit, stack, locals) = run(&t, &[], &[10, 2], u64::MAX);
        assert_eq!((exit.pc, exit.committed, exit.guard), (5, 13 + 5, true));
        assert_eq!((stack, locals), (vec![8, 3, 0], vec![8, 3]));
    }

    #[test]
    fn a_pending_load_is_parked_before_its_local_is_overwritten() {
        // x, y = y, x: `Load 0` is still on the stack when local 0 is
        // stored to.
        let r = rec(vec![
            (0, Instr::Load(0), false),
            (1, Instr::Load(1), false),
            (2, Instr::Store(0), false),
            (3, Instr::Store(1), false),
            (4, Instr::Jump(0), true),
        ]);
        let t = compile(&r, None).unwrap();
        let kinds: Vec<_> = t.ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Mov(2, 0), // park old x
                OpKind::Mov(0, 1),
                OpKind::Mov(1, 2),
                OpKind::LoopBack,
            ]
        );
        let (_, _, locals) = run(&t, &[], &[3, 4], 5);
        assert_eq!(locals, [4, 3]);
        // Out of headroom between the stores: x's old value goes back on
        // the stack, from the temp it was parked in.
        let (exit, stack, locals) = run(&t, &[], &[3, 4], 3);
        assert_eq!((exit.pc, exit.committed), (3, 3));
        assert_eq!((stack, locals), (vec![3], vec![4, 4]));
    }

    #[test]
    fn values_left_on_the_stack_are_pushed_at_the_loop_back() {
        // Each circuit leaves one more value behind.
        let r = rec(vec![
            (0, Instr::Load(0), false),
            (1, Instr::Push(5), false),
            (2, Instr::Jump(0), true),
        ]);
        let t = compile(&r, None).unwrap();
        assert_eq!(t.ops.len(), 1);
        let (exit, stack, _) = run(&t, &[1], &[8], 7);
        assert_eq!((exit.pc, exit.committed), (0, 6));
        assert_eq!(stack, [1, 8, 5, 8, 5]);
    }

    #[test]
    fn temps_are_recycled_once_their_group_has_closed() {
        // `Load 0; Neg; Pop` a thousand times over: one value alive at a
        // time, so two temps serve the whole trace.
        let mut steps = Vec::new();
        for i in 0..1000 {
            steps.push((3 * i, Instr::Load(0), false));
            steps.push((3 * i + 1, Instr::Neg, false));
            steps.push((3 * i + 2, Instr::Pop, false));
        }
        steps.push((3000, Instr::Jump(0), true));
        let t = compile(&rec(steps), None).unwrap();
        let written = t.ops.iter().filter_map(|o| match o.kind {
            OpKind::Neg(dst, _) => Some(dst),
            _ => None,
        });
        assert_eq!(written.max(), Some(2));
    }

    #[test]
    fn a_recording_too_big_for_the_register_file_is_rejected_whole() {
        // `Load 0; Neg` leaves one more value alive per round.
        let body = |rounds: u32| {
            let mut steps = Vec::new();
            for i in 0..rounds {
                steps.push((2 * i, Instr::Load(0), false));
                steps.push((2 * i + 1, Instr::Neg, false));
            }
            steps.push((2 * rounds, Instr::Jump(0), true));
            rec(steps)
        };
        let fits = MAX_REGS as u32 - 1; // one register is local 0
        let t = compile(&body(fits), None).unwrap();
        assert_eq!(t.snapshot(t.ops.last().unwrap().snap + 1).regs.len(), 255);
        assert!(compile(&body(fits + 1), None).is_none());
    }
}
