//! Hot-trace detection and recording — the front half of the trace tier.
//!
//! The interpreter calls into [`TraceState`] on every *taken backward
//! branch* (the only place a loop can close), so the straight-line
//! interpreter path pays nothing for the tier. A backward-branch target
//! that reaches [`crate::config::TraceConfig::hot_threshold`] taken edges
//! becomes a trace head: the next iteration through it is recorded as a
//! linear instruction sequence (the [`Recorder`]) and handed to
//! [`crate::compile`] to be lowered into a register program. Recording
//! never changes execution — it observes the interpreter doing exactly
//! what it always does.
//!
//! None of this state is checkpointed: [`crate::machine::Machine::snapshot`]
//! captures pure interpreter state, so a restored machine starts with a
//! cold trace cache and re-warms on its own — which is what makes
//! mid-trace checkpoints bit-identical whether the snapshot host had
//! compilation on or off.

use crate::compile::{CompiledTrace, MAX_REGS};
use crate::isa::Instr;
use std::rc::Rc;

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
    /// The landing pc heads a compiled trace: run it.
    Enter(Rc<CompiledTrace>),
    /// The landing pc just crossed the hot threshold: start recording.
    Record,
    /// Keep interpreting.
    Nothing,
}

/// What the tier knows about one backward-branch target.
#[derive(Debug)]
enum Head {
    /// Taken edges seen so far, short of the hot threshold.
    Counting(u32),
    /// Compiled: entered on every taken edge.
    Compiled(Rc<CompiledTrace>),
    /// Recording aborted or lowered to nothing (e.g. an unrolled inner
    /// loop blew the length cap): interpreted for good.
    Blacklisted,
}

/// All per-machine trace-tier state. Lives on the [`crate::machine::Machine`]
/// but outside its checkpointable state.
#[derive(Debug, Default)]
pub struct TraceState {
    /// One entry per backward-branch target seen, keyed `(func, pc)`. A
    /// program has a handful of loop heads, so the taken-back-edge path
    /// searches this linearly and hashes nothing; a machine that never
    /// loops allocates nothing.
    heads: Vec<((u32, u32), Head)>,
    /// The active recording, if any.
    pub recorder: Option<Recorder>,
    /// The last recording's step buffer, kept for the next one.
    spare_steps: Vec<Recorded>,
    /// Register-file scratch for compiled executions, made at the first.
    pub(crate) regs: Option<Box<[i64; MAX_REGS]>>,
    /// Deterministic tier counters.
    pub stats: VmStats,
}

impl TraceState {
    /// Bookkeeping for a taken backward branch landing at `(func, target)`
    /// while no recording is active.
    pub fn plan(&mut self, func: u32, target: u32, hot_threshold: u32) -> Plan {
        let key = (func, target);
        let at = match self.heads.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                self.heads.push((key, Head::Counting(0)));
                self.heads.len() - 1
            }
        };
        match &mut self.heads[at].1 {
            Head::Compiled(t) => Plan::Enter(Rc::clone(t)),
            Head::Blacklisted => Plan::Nothing,
            Head::Counting(count) => {
                *count += 1;
                if *count >= hot_threshold {
                    // A compile or blacklist follows; until then the
                    // target counts again from zero.
                    *count = 0;
                    Plan::Record
                } else {
                    Plan::Nothing
                }
            }
        }
    }

    /// Begin recording a trace headed at `(func, head)`.
    pub fn start_recording(&mut self, func: u32, head: u32) {
        self.recorder = Some(Recorder {
            func,
            head,
            steps: std::mem::take(&mut self.spare_steps),
        });
    }

    /// Give a closed recording's head its verdict and shelve the step
    /// buffer for the next recording.
    fn retire(&mut self, mut r: Recorder, verdict: Head) {
        let key = (r.func, r.head);
        match self.heads.iter_mut().find(|(k, _)| *k == key) {
            Some((_, head)) => *head = verdict,
            None => self.heads.push((key, verdict)),
        }
        r.steps.clear();
        self.spare_steps = r.steps;
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
        let verdict = match crate::compile::compile(&r, bail_pc) {
            Some(t) => {
                self.stats.traces_compiled += 1;
                Head::Compiled(Rc::new(t))
            }
            None => Head::Blacklisted,
        };
        self.retire(r, verdict);
    }

    /// Every compiled trace, in deterministic (func, head) order.
    pub fn compiled_traces(&self) -> Vec<Rc<CompiledTrace>> {
        let mut traces: Vec<_> = self
            .heads
            .iter()
            .filter_map(|(_, head)| match head {
                Head::Compiled(t) => Some(Rc::clone(t)),
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
        for _ in 0..3 {
            assert!(matches!(s.plan(0, 4, 4), Plan::Nothing));
        }
        assert!(matches!(s.plan(0, 4, 4), Plan::Record));
        // The counter was consumed; a blacklist or compile must follow, but
        // until then the target counts again from zero.
        assert!(matches!(s.plan(0, 4, 4), Plan::Nothing));
    }

    #[test]
    fn aborted_recording_blacklists_the_head() {
        let mut s = TraceState::default();
        s.start_recording(0, 4);
        s.abort_recording();
        for _ in 0..100 {
            assert!(matches!(s.plan(0, 4, 2), Plan::Nothing));
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
