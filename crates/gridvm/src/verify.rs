//! The bytecode verifier.
//!
//! Static checks run before execution: jump targets in range, local and
//! string indices valid, call targets present, and a conservative abstract
//! stack-depth simulation that rejects code which could underflow its
//! operand stack. A program that fails verification can never run anywhere
//! — a **job-scope** error, like a corrupt image.

use crate::image::{Function, ProgramImage};
use crate::isa::Instr;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function index.
    pub function: usize,
    /// Instruction index within the function (or `usize::MAX` for
    /// function-level problems).
    pub at: usize,
    /// What is wrong.
    pub reason: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verify error in function {} at {}: {}",
            self.function, self.at, self.reason
        )
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole image. Returns the first problem found: function by
/// function, structural problems (jump targets, local, call and string
/// indices) at any pc before stack-depth problems, and the entry
/// function's arity last.
pub fn verify(img: &ProgramImage) -> Result<(), VerifyError> {
    if img.entry as usize >= img.functions.len() {
        return Err(VerifyError {
            function: img.entry as usize,
            at: usize::MAX,
            reason: "entry function out of range".into(),
        });
    }
    // One depth array serves every function, sized for the longest.
    let longest = img.functions.iter().map(|f| f.code.len()).max();
    let mut depth = vec![0; longest.unwrap_or(0)];
    for (fi, f) in img.functions.iter().enumerate() {
        if f.code.is_empty() {
            return Err(VerifyError {
                function: fi,
                at: usize::MAX,
                reason: "empty function body".into(),
            });
        }
        check_function(fi, f, img, &mut depth[..f.code.len()])?;
    }
    let entry = &img.functions[img.entry as usize];
    if entry.args != 0 {
        return Err(VerifyError {
            function: img.entry as usize,
            at: usize::MAX,
            reason: format!("entry function declares {} args; must be 0", entry.args),
        });
    }
    Ok(())
}

/// The operand-stack effect `(pops, pushes)` of the instruction at `pc`,
/// once its operand is known to name something: a jump target inside the
/// function, a local the function declares, a function or a string the
/// image has.
fn check_operand(
    fi: usize,
    f: &Function,
    img: &ProgramImage,
    pc: usize,
) -> Result<(u32, u32), VerifyError> {
    let refuse = |reason: String| {
        Err(VerifyError {
            function: fi,
            at: pc,
            reason,
        })
    };
    let n = f.code.len();
    match f.code[pc] {
        Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNonZero(t) if t as usize >= n => {
            refuse(format!("jump target {t} out of range (len {n})"))
        }
        Instr::Load(i) | Instr::Store(i) if i >= f.max_locals => {
            refuse(format!("local {i} >= max_locals {}", f.max_locals))
        }
        Instr::IoOpen { path, .. } if path as usize >= img.strings.len() => {
            refuse(format!("string index {path} out of range"))
        }
        Instr::Call(t) => match img.functions.get(t as usize) {
            Some(callee) => Ok((u32::from(callee.args), u32::from(callee.rets))),
            None => refuse(format!("call target {t} out of range")),
        },
        other => Ok(other.stack_effect()),
    }
}

/// A pc no path has reached.
const UNREACHED: i64 = i64::MAX;

/// One function: operands, then abstract interpretation of operand-stack
/// depth — every instruction must have enough operands on every path.
/// Each function declares its stack arity: it starts with `args` operands
/// available, a `Call` consumes the callee's `args` and produces its
/// `rets`, and every `Ret` must leave exactly `rets` operands.
///
/// `depth[pc]` is the least depth any path found so far enters `pc`
/// with, stored as its complement (so negative) while `pc` still has to
/// be looked at with it. Depths merge by minimum. Code runs forward, so
/// one forward pass settles everything a back-edge does not lower; each
/// later sweep looks only at the pcs an earlier one lowered, in pc order,
/// and there are at most as many sweeps as instructions — the fixpoint
/// iteration this replaces, without the sweeps that found nothing to do.
fn check_function(
    fi: usize,
    f: &Function,
    img: &ProgramImage,
    depth: &mut [i64],
) -> Result<(), VerifyError> {
    let n = f.code.len();
    depth.fill(UNREACHED);
    depth[0] = !i64::from(f.args);
    let mut pending = Some(0);
    for sweep in 0..=n {
        let Some(from) = pending.take() else {
            break;
        };
        for pc in from..n {
            // Operands are checked on the first sweep, reached or not.
            if sweep > 0 && depth[pc] >= 0 {
                continue;
            }
            let (pops, pushes) = check_operand(fi, f, img, pc)?;
            if depth[pc] >= 0 {
                continue;
            }
            let d = !depth[pc];
            depth[pc] = d;
            let ins = f.code[pc];
            let problem = if matches!(ins, Instr::Ret) && d != i64::from(f.rets) {
                Some(format!(
                    "ret with operand depth {d}, function declares rets={}",
                    f.rets
                ))
            } else if d < i64::from(pops) {
                Some(format!(
                    "operand stack underflow: depth {d}, instruction pops {pops}"
                ))
            } else {
                None
            };
            if let Some(reason) = problem {
                // A bad operand anywhere in the function comes first.
                if sweep == 0 {
                    for later in pc + 1..n {
                        check_operand(fi, f, img, later)?;
                    }
                }
                return Err(VerifyError {
                    function: fi,
                    at: pc,
                    reason,
                });
            }
            let out = d - i64::from(pops) + i64::from(pushes);
            let mut feed = |target: usize| {
                let known = depth[target];
                if out < if known < 0 { !known } else { known } {
                    depth[target] = !out;
                    // What lies ahead is reached by this sweep.
                    if target <= pc {
                        pending = Some(pending.map_or(target, |p: usize| p.min(target)));
                    }
                }
            };
            match ins {
                Instr::Jump(t) => feed(t as usize),
                Instr::JumpIfZero(t) | Instr::JumpIfNonZero(t) => {
                    feed(t as usize);
                    if pc + 1 < n {
                        feed(pc + 1);
                    }
                }
                Instr::Ret | Instr::Exit | Instr::Halt | Instr::Throw(_) => {}
                _ => {
                    if pc + 1 < n {
                        feed(pc + 1);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{Function, ProgramImage};
    use crate::isa::IoMode;

    fn img(code: Vec<Instr>) -> ProgramImage {
        ProgramImage::single("main", 4, code)
    }

    #[test]
    fn valid_program_passes() {
        let p = img(vec![
            Instr::Push(1),
            Instr::Push(2),
            Instr::Add,
            Instr::Store(0),
            Instr::Load(0),
            Instr::Print,
            Instr::Halt,
        ]);
        assert!(verify(&p).is_ok());
    }

    #[test]
    fn jump_out_of_range_rejected() {
        let p = img(vec![Instr::Jump(99), Instr::Halt]);
        let e = verify(&p).unwrap_err();
        assert!(e.reason.contains("jump target"));
    }

    #[test]
    fn bad_local_rejected() {
        let p = img(vec![Instr::Load(200), Instr::Halt]);
        assert!(verify(&p).unwrap_err().reason.contains("local"));
        let p = img(vec![Instr::Push(1), Instr::Store(200), Instr::Halt]);
        assert!(verify(&p).unwrap_err().reason.contains("local"));
    }

    #[test]
    fn bad_call_target_rejected() {
        let p = img(vec![Instr::Call(7), Instr::Halt]);
        assert!(verify(&p).unwrap_err().reason.contains("call target"));
    }

    #[test]
    fn bad_string_index_rejected() {
        let p = img(vec![
            Instr::IoOpen {
                path: 3,
                mode: IoMode::Read,
            },
            Instr::Halt,
        ]);
        assert!(verify(&p).unwrap_err().reason.contains("string index"));
    }

    #[test]
    fn stack_underflow_rejected() {
        let p = img(vec![Instr::Add, Instr::Halt]);
        assert!(verify(&p).unwrap_err().reason.contains("underflow"));
        let p = img(vec![Instr::Push(1), Instr::Add, Instr::Halt]);
        assert!(verify(&p).unwrap_err().reason.contains("underflow"));
    }

    #[test]
    fn underflow_via_branch_merge_rejected() {
        // Path A pushes two values, path B pushes one; the merge point
        // must assume the worse (one) and reject the Add… wait, Add pops
        // two, so with minimum depth 1 it underflows.
        let p = img(vec![
            Instr::Push(0),       // 0: cond
            Instr::JumpIfZero(4), // 1: if 0 goto 4 (leaves depth 0)
            Instr::Push(1),       // 2
            Instr::Push(2),       // 3: depth 2 falls to 5? no: falls to 4
            Instr::Push(3),       // 4: merge of depth 0 (from 1) and 2 (from 3)
            Instr::Add,           // 5: needs 2; min is 1 -> underflow
            Instr::Halt,
        ]);
        assert!(verify(&p).unwrap_err().reason.contains("underflow"));
    }

    #[test]
    fn empty_function_rejected() {
        let p = ProgramImage {
            entry: 0,
            functions: vec![Function {
                name: "main".into(),
                max_locals: 0,
                args: 0,
                rets: 0,
                code: vec![],
            }],
            strings: vec![],
        };
        assert!(verify(&p).unwrap_err().reason.contains("empty"));
    }

    #[test]
    fn loop_with_balanced_stack_passes() {
        // for (i = 10; i != 0; i--) {}
        let p = img(vec![
            Instr::Push(10),      // 0
            Instr::Store(0),      // 1
            Instr::Load(0),       // 2: loop head
            Instr::JumpIfZero(9), // 3
            Instr::Load(0),       // 4
            Instr::Push(1),       // 5
            Instr::Sub,           // 6
            Instr::Store(0),      // 7
            Instr::Jump(2),       // 8
            Instr::Halt,          // 9
        ]);
        assert!(verify(&p).is_ok());
    }

    /// SplitMix64.
    fn mix(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Damage `img` somewhere a verifier has an opinion about: swap an
    /// instruction for one that moves the stack, the control flow or an
    /// index, cut the body short, or change a declared arity.
    fn mutate(img: &mut ProgramImage, z: &mut u64) {
        let nfuncs = img.functions.len() as u64;
        let f = &mut img.functions[(mix(z) % nfuncs) as usize];
        let n = f.code.len() as u64;
        let target = |z: &mut u64| (mix(z) % (n + 2)) as u32;
        let small = |z: &mut u64| (mix(z) % 10) as u8;
        let ins = match mix(z) % 24 {
            0 => Instr::Jump(target(z)),
            1 => Instr::JumpIfZero(target(z)),
            2 => Instr::JumpIfNonZero(target(z)),
            3 => Instr::Pop,
            4 => Instr::Dup,
            5 => Instr::Swap,
            6 => Instr::Add,
            7 => Instr::Push(1),
            8 => Instr::Load(small(z)),
            9 => Instr::Store(small(z)),
            10 => Instr::Ret,
            11 => Instr::Halt,
            12 => Instr::Call((mix(z) % (nfuncs + 1)) as u16),
            13 => Instr::IoOpen {
                path: (mix(z) % 3) as u16,
                mode: IoMode::Read,
            },
            14 => Instr::Print,
            15 => Instr::ALoad,
            16 => Instr::AStore,
            17 => Instr::Exit,
            18 => Instr::Throw(1),
            19 => {
                f.code.truncate((mix(z) % (n + 1)) as usize);
                return;
            }
            20 => {
                f.rets = (mix(z) % 3) as u8;
                return;
            }
            21 => {
                f.args = (mix(z) % 3) as u8;
                return;
            }
            22 => {
                f.max_locals = small(z);
                return;
            }
            _ => Instr::Neg,
        };
        if n > 0 {
            f.code[(mix(z) % n) as usize] = ins;
        }
    }

    /// The verdict on every image of a mutated corpus — `Ok`, or the
    /// function, pc and reason of the first problem — recorded by running
    /// this test body against the two-sweep fixpoint verifier this one
    /// replaced. Same inputs, same `VerifyError`s.
    #[test]
    fn verdicts_on_a_mutated_corpus_equal_the_recorded_ones() {
        const RECORDED: (u64, usize) = (0x15f4_67ff_efd6_ff05, 11124);
        let helper = |args: u8, rets: u8| Function {
            name: "helper".into(),
            max_locals: 1,
            args,
            rets,
            code: (0..args)
                .map(|_| Instr::Pop)
                .chain((0..rets).map(|_| Instr::Push(7)))
                .chain([Instr::Ret])
                .collect(),
        };
        let (mut digest, mut refused) = (0u64, 0);
        for seed in 0..2000u64 {
            let base = ProgramImage::from_bytes(&crate::programs::generate(seed)).unwrap();
            for round in 0..8u64 {
                let mut z = seed * 8 + round;
                let mut img = base.clone();
                if round % 2 == 1 {
                    img.functions
                        .push(helper((mix(&mut z) % 3) as u8, (mix(&mut z) % 3) as u8));
                }
                for _ in 0..1 + mix(&mut z) % 3 {
                    mutate(&mut img, &mut z);
                }
                let verdict = match verify(&img) {
                    Ok(()) => "ok".to_string(),
                    Err(e) => e.to_string(),
                };
                refused += usize::from(verdict != "ok");
                let mut bytes = digest.to_le_bytes().to_vec();
                bytes.extend_from_slice(verdict.as_bytes());
                digest = ckpt::fnv1a(&bytes);
            }
        }
        assert_eq!(
            (digest, refused),
            RECORDED,
            "got ({digest:#018x}, {refused})"
        );
    }
}
