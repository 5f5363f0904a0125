//! Hot-trace detection and recording — the front half of the trace tier.
//!
//! The interpreter calls into [`TraceState`] on *taken backward branches*
//! (the only place a loop can close), so the straight-line interpreter
//! path pays nothing for the tier — and not on every one: an answer of
//! [`Plan::Nothing`] says how many further edges to the same target
//! would get the same answer, the interpreter's inner loop takes those
//! without asking, and they arrive in one `TraceState::tally`. A
//! backward-branch target that reaches
//! [`crate::config::TraceConfig::hot_threshold`] taken edges becomes a
//! trace head: the next iteration through it is recorded as a linear
//! instruction sequence (the [`Recorder`]; the interpreter reports the
//! straight runs of code it executed between taken jumps) and handed to
//! [`crate::compile`] to be lowered into a register program. Recording
//! never changes execution — it observes the interpreter doing exactly
//! what it always does.
//!
//! None of this state is checkpointed: [`crate::machine::Machine::snapshot`]
//! captures pure interpreter state, so a restored machine starts with a
//! cold trace cache and re-warms on its own — which is what makes
//! mid-trace checkpoints bit-identical whether the snapshot host had
//! compilation on or off.

use crate::compile::{run_trace, CompiledTrace, Lowering, TraceExit, MAX_REGS};
use crate::config::Installation;
use crate::isa::Instr;
use crate::machine::Arrays;
use std::cell::Cell;

/// Deterministic counters for the trace tier. These are a pure function of
/// the instruction stream the machine executed (no wall clock, no
/// addresses), so they can be exported through registries whose snapshots
/// must be byte-identical across same-seed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Recordings that closed into a complete linear trace.
    pub traces_recorded: u64,
    /// Traces lowered and installed as compiled programs.
    pub traces_compiled: u64,
    /// Compiled executions that ended in a guard exit — a bail back to the
    /// interpreter at the exact faulting pc (fault guards, fuel/budget
    /// boundaries, terminal bails at I/O or call instructions). Ordinary
    /// loop-condition side exits are not guard exits.
    pub guard_exits: u64,
    /// Base instructions executed via compiled traces (these are also
    /// counted in the machine's ordinary instruction counter; this tracks
    /// how many of those went through the fast tier).
    pub compiled_instructions: u64,
}

impl VmStats {
    /// Accumulate another machine's counters into this one.
    pub fn absorb(&mut self, other: &VmStats) {
        self.traces_recorded += other.traces_recorded;
        self.traces_compiled += other.traces_compiled;
        self.guard_exits += other.guard_exits;
        self.compiled_instructions += other.compiled_instructions;
    }
}

/// One interpreter step observed while recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorded {
    /// The instruction's pc within the trace's function.
    pub pc: u32,
    /// The instruction itself.
    pub ins: Instr,
    /// For conditional jumps: whether the branch was taken. Meaningless
    /// (false) for everything else.
    pub taken: bool,
}

/// An in-progress linear recording of one loop iteration.
#[derive(Debug)]
pub struct Recorder {
    /// Function the trace lives in (traces never cross frames).
    pub func: u32,
    /// The backward-branch target the trace starts at.
    pub head: u32,
    /// Steps observed so far.
    pub steps: Vec<Recorded>,
}

/// What the interpreter should do after a taken backward branch.
#[derive(Debug)]
pub enum Plan {
    /// The landing pc heads a compiled trace: run it (`TraceState::enter`).
    Enter(TraceId),
    /// The landing pc just crossed the hot threshold: start recording.
    Record,
    /// Keep interpreting. The next `quiet` taken edges to the same target
    /// would be told the same, so the interpreter may take them without
    /// asking and report them in one `TraceState::tally`.
    Nothing {
        /// Edges that need no planning.
        quiet: u32,
    },
}

/// Names one of a machine's compiled traces.
#[derive(Debug, Clone, Copy)]
pub struct TraceId(usize);

/// What the tier knows about one backward-branch target.
#[derive(Debug)]
enum Head {
    /// Taken edges seen so far, short of the hot threshold.
    Counting(u32),
    /// Compiled: entered on every taken edge.
    Compiled(CompiledTrace),
    /// Recording aborted or lowered to nothing (e.g. an unrolled inner
    /// loop blew the length cap): interpreted for good.
    Blacklisted,
}

/// The tier's growable storage. A short job's machine records one loop
/// iteration, lowers it once and is dropped, so buffers that lived and
/// died with the machine would be allocated per trace; instead a retiring
/// [`TraceState`] leaves its buffers, emptied, with its thread, and the
/// thread's next one starts with them. Only capacity travels — never a
/// count, a trace or a recording. The machine's own working memory — its
/// heap arrays, frame buffers and heap spine — the image `load_and_run`
/// decodes and the verifier's depth array pass from job to job the same
/// way, each kind held to `SPARE_BYTES` (`crate::machine`), so a
/// megabyte array is freed, never kept. (The traces themselves are not
/// kept: their vectors live as long as a machine does, and blocks of that
/// age handed from machine to machine sat between `heap_sum`'s megabyte
/// checkpoints on the allocator's heap — `vm_hot_loops` peak RSS 8.8 →
/// 10.5 MB for 0.1 µs a trace.)
#[derive(Debug, Default)]
struct Buffers {
    /// One entry per backward-branch target seen, keyed `(func, pc)`. A
    /// program has a handful of loop heads, so the taken-back-edge path
    /// searches this linearly and hashes nothing.
    heads: Vec<((u32, u32), Head)>,
    /// The step buffer between recordings.
    steps: Vec<Recorded>,
    /// The lowering's scratch.
    lowering: Lowering,
    /// The register file compiled executions run in, made at the first.
    regs: Option<Box<[i64; MAX_REGS]>>,
}

thread_local! {
    static SPARE: Cell<Option<Buffers>> = const { Cell::new(None) };
}

/// All per-machine trace-tier state. Lives on the [`crate::machine::Machine`]
/// but outside its checkpointable state.
#[derive(Debug)]
pub struct TraceState {
    buffers: Buffers,
    /// The active recording, if any.
    pub recorder: Option<Recorder>,
    /// Deterministic tier counters.
    pub stats: VmStats,
}

impl Drop for TraceState {
    fn drop(&mut self) {
        let mut buffers = std::mem::take(&mut self.buffers);
        buffers.heads.clear();
        if let Some(r) = self.recorder.take() {
            buffers.steps = r.steps;
        }
        buffers.steps.clear();
        // A thread that is itself going away has nowhere to leave them.
        let _ = SPARE.try_with(|spare| spare.set(Some(buffers)));
    }
}

impl Default for TraceState {
    /// A cold tier: no heads, no traces, counters at zero — on whatever
    /// buffers this thread's last one left behind.
    fn default() -> TraceState {
        TraceState {
            buffers: SPARE
                .try_with(Cell::take)
                .ok()
                .flatten()
                .unwrap_or_default(),
            recorder: None,
            stats: VmStats::default(),
        }
    }
}

impl TraceState {
    /// Bookkeeping for a taken backward branch landing at `(func, target)`
    /// while no recording is active.
    pub fn plan(&mut self, func: u32, target: u32, hot_threshold: u32) -> Plan {
        let heads = &mut self.buffers.heads;
        let key = (func, target);
        let at = match heads.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                heads.push((key, Head::Counting(0)));
                heads.len() - 1
            }
        };
        match &mut heads[at].1 {
            Head::Compiled(_) => Plan::Enter(TraceId(at)),
            Head::Blacklisted => Plan::Nothing { quiet: u32::MAX },
            Head::Counting(count) => {
                *count += 1;
                if *count >= hot_threshold {
                    // A compile or blacklist follows; until then the
                    // target counts again from zero.
                    *count = 0;
                    Plan::Record
                } else {
                    Plan::Nothing {
                        quiet: hot_threshold - *count - 1,
                    }
                }
            }
        }
    }

    /// Count `edges` taken backward branches to `(func, target)` that
    /// [`Plan::Nothing`] said need no planning.
    pub(crate) fn tally(&mut self, func: u32, target: u32, edges: u32) {
        let key = (func, target);
        let head = self.buffers.heads.iter_mut().find(|(k, _)| *k == key);
        if let Some((_, Head::Counting(count))) = head {
            *count += edges;
        }
    }

    /// Run the compiled trace [`TraceState::plan`] named against borrowed
    /// machine state (see [`crate::compile::run_trace`]) and count what
    /// it did.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enter(
        &mut self,
        TraceId(at): TraceId,
        stack: &mut Vec<i64>,
        locals: &mut [i64],
        heap: &mut Vec<Vec<i64>>,
        heap_words: &mut u64,
        arrays: &mut Arrays,
        stdout: &mut String,
        install: &Installation,
        remaining: u64,
    ) -> TraceExit {
        let Buffers { heads, regs, .. } = &mut self.buffers;
        let Some((_, Head::Compiled(t))) = heads.get(at) else {
            unreachable!("a TraceId names a compiled head")
        };
        let r = regs.get_or_insert_with(|| Box::new([0; MAX_REGS]));
        let exit = run_trace(
            t, r, stack, locals, heap, heap_words, arrays, stdout, install, remaining,
        );
        self.stats.compiled_instructions += exit.committed;
        if exit.guard {
            self.stats.guard_exits += 1;
        }
        exit
    }

    /// Begin recording a trace headed at `(func, head)`.
    pub fn start_recording(&mut self, func: u32, head: u32) {
        self.recorder = Some(Recorder {
            func,
            head,
            steps: std::mem::take(&mut self.buffers.steps),
        });
    }

    /// Feed the active recording an instruction the interpreter is about
    /// to execute outside its frame loop. Unsupported instructions (frame
    /// changes, terminators, I/O) close the trace with a terminal bail at
    /// their pc. Returns whether the recording is still open.
    pub(crate) fn observe(&mut self, pc: u32, ins: Instr, max_trace_len: usize) -> bool {
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
                self.finish_recording(Some(pc));
                false
            }
            _ => self.record(pc, ins, false, max_trace_len),
        }
    }

    /// Feed the active recording the `ran` instructions the frame loop
    /// just executed in `func`, from `code[start]` on: a straight line,
    /// except that the last was a taken jump when `jumped`. Returns
    /// whether the recording is still open.
    pub(crate) fn observe_run(
        &mut self,
        func: u32,
        code: &[Instr],
        start: usize,
        ran: usize,
        jumped: bool,
        max_trace_len: usize,
    ) -> bool {
        for (at, &ins) in code[start..start + ran].iter().enumerate() {
            let taken = jumped && at + 1 == ran;
            if !self.record((start + at) as u32, ins, taken, max_trace_len) {
                return false;
            }
            // A taken jump landing on the head closes the loop.
            let rec = self.recorder.as_ref().expect("recording active");
            if taken && rec.func == func && ins.branch_target() == Some(rec.head) {
                self.finish_recording(None);
                return false;
            }
        }
        true
    }

    /// One more step; an over-long recording (usually an unrolled inner
    /// loop) is abandoned and its head blacklisted.
    fn record(&mut self, pc: u32, ins: Instr, taken: bool, max_trace_len: usize) -> bool {
        let rec = self.recorder.as_mut().expect("recording active");
        rec.steps.push(Recorded { pc, ins, taken });
        if rec.steps.len() > max_trace_len {
            self.abort_recording();
            return false;
        }
        true
    }

    /// How many more steps the active recording takes before it is
    /// abandoned as over-long.
    pub(crate) fn room(&self, max_trace_len: usize) -> u64 {
        let steps = self.recorder.as_ref().map_or(0, |r| r.steps.len());
        (max_trace_len + 1).saturating_sub(steps) as u64
    }

    /// Give a closed recording's head its verdict and shelve the step
    /// buffer for the next recording.
    fn retire(&mut self, mut r: Recorder, verdict: Head) {
        let heads = &mut self.buffers.heads;
        let key = (r.func, r.head);
        match heads.iter_mut().find(|(k, _)| *k == key) {
            Some((_, head)) => *head = verdict,
            None => heads.push((key, verdict)),
        }
        r.steps.clear();
        self.buffers.steps = r.steps;
    }

    /// Abandon the active recording and blacklist its head so the
    /// interpreter stops re-trying it.
    pub fn abort_recording(&mut self) {
        if let Some(r) = self.recorder.take() {
            self.retire(r, Head::Blacklisted);
        }
    }

    /// Close the active recording and install the compiled result. A
    /// recording that lowers to nothing useful blacklists its head
    /// instead. `bail_pc` is `Some` when the trace ends at an instruction
    /// the tier does not execute (I/O, calls, terminators): the compiled
    /// program gets a terminal guard exit at that pc.
    pub fn finish_recording(&mut self, bail_pc: Option<u32>) {
        let Some(r) = self.recorder.take() else {
            return;
        };
        self.stats.traces_recorded += 1;
        let verdict = match self.buffers.lowering.lower(&r, bail_pc) {
            Some(t) => {
                self.stats.traces_compiled += 1;
                Head::Compiled(t)
            }
            None => Head::Blacklisted,
        };
        self.retire(r, verdict);
    }

    /// Every compiled trace, in deterministic (func, head) order.
    pub fn compiled_traces(&self) -> Vec<&CompiledTrace> {
        let heads = self.buffers.heads.iter();
        let mut traces: Vec<_> = heads
            .filter_map(|(_, head)| match head {
                Head::Compiled(t) => Some(t),
                _ => None,
            })
            .collect();
        traces.sort_by_key(|t| (t.func, t.head));
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotness_crosses_threshold_once() {
        let mut s = TraceState::default();
        for quiet in [2, 1, 0] {
            assert!(matches!(s.plan(0, 4, 4), Plan::Nothing { quiet: q } if q == quiet));
        }
        assert!(matches!(s.plan(0, 4, 4), Plan::Record));
        // The counter was consumed; a blacklist or compile must follow, but
        // until then the target counts again from zero.
        assert!(matches!(s.plan(0, 4, 4), Plan::Nothing { quiet: 2 }));
        // Edges taken on the quiet are tallied afterwards, and the edge
        // after them is the one that crosses.
        s.tally(0, 4, 2);
        assert!(matches!(s.plan(0, 4, 4), Plan::Record));
    }

    #[test]
    fn aborted_recording_blacklists_the_head() {
        let mut s = TraceState::default();
        s.start_recording(0, 4);
        s.abort_recording();
        for _ in 0..100 {
            assert!(matches!(s.plan(0, 4, 2), Plan::Nothing { quiet: u32::MAX }));
        }
        assert_eq!(s.stats.traces_recorded, 0);
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = VmStats {
            traces_recorded: 1,
            traces_compiled: 2,
            guard_exits: 3,
            compiled_instructions: 4,
        };
        a.absorb(&VmStats {
            traces_recorded: 10,
            traces_compiled: 20,
            guard_exits: 30,
            compiled_instructions: 40,
        });
        assert_eq!(a.traces_recorded, 11);
        assert_eq!(a.traces_compiled, 22);
        assert_eq!(a.guard_exits, 33);
        assert_eq!(a.compiled_instructions, 44);
    }
}
