//! Canned programs: one per row of Figure 4, plus realistic workloads.
//!
//! These are the user jobs the experiments submit. Each returns a
//! serialised [`ProgramImage`] ready to hand to the starter.

use crate::image::{Function, ProgramImage};
use crate::isa::{Instr, IoMode};

/// "The program exited by completing `main`." Computes a little and
/// finishes. Expected: exit 0, program scope.
pub fn completes_main() -> Vec<u8> {
    ProgramImage::single(
        "completes-main",
        2,
        vec![
            Instr::Push(6),
            Instr::Push(7),
            Instr::Mul,
            Instr::Print,
            Instr::Halt,
        ],
    )
    .to_bytes()
}

/// "The program exited by calling `System.exit(x)`."
pub fn calls_exit(x: i64) -> Vec<u8> {
    ProgramImage::single("calls-exit", 0, vec![Instr::Push(x), Instr::Exit]).to_bytes()
}

/// "Exception: the program de-referenced a null pointer."
pub fn null_dereference() -> Vec<u8> {
    ProgramImage::single(
        "null-dereference",
        0,
        vec![Instr::PushNull, Instr::Push(0), Instr::ALoad, Instr::Halt],
    )
    .to_bytes()
}

/// An `ArrayIndexOutOfBoundsException` — the program error the paper says
/// users *want* to see.
pub fn index_out_of_bounds() -> Vec<u8> {
    ProgramImage::single(
        "index-out-of-bounds",
        1,
        vec![
            Instr::Push(3),
            Instr::NewArray,
            Instr::Push(7),
            Instr::ALoad,
            Instr::Halt,
        ],
    )
    .to_bytes()
}

/// "Exception: there was not enough memory for the program." Allocates an
/// enormous array; with any realistic heap limit this is an
/// `OutOfMemoryError` (virtual-machine scope).
pub fn exhausts_memory() -> Vec<u8> {
    ProgramImage::single(
        "exhausts-memory",
        1,
        vec![
            // Keep doubling allocations until the heap gives out.
            Instr::Push(1024), // 0: size
            Instr::Store(0),   // 1
            Instr::Load(0),    // 2: loop
            Instr::NewArray,   // 3
            Instr::Pop,        // 4
            Instr::Load(0),    // 5
            Instr::Push(2),    // 6
            Instr::Mul,        // 7
            Instr::Store(0),   // 8
            Instr::Jump(2),    // 9
        ],
    )
    .to_bytes()
}

/// A program that needs the standard library — the victim of a partially
/// misconfigured installation.
pub fn uses_stdlib() -> Vec<u8> {
    ProgramImage::single(
        "uses-stdlib",
        0,
        vec![
            Instr::Push(1764),
            Instr::StdCall(2), // isqrt -> 42
            Instr::Print,
            Instr::Halt,
        ],
    )
    .to_bytes()
}

/// A program that reads `input.txt` and writes a summary to `output.txt`
/// through the remote I/O channel — the victim of an offline home file
/// system.
pub fn reads_and_writes() -> Vec<u8> {
    let mut img = ProgramImage {
        entry: 0,
        functions: vec![Function {
            name: "reads-and-writes".into(),
            max_locals: 1,
            args: 0,
            rets: 0,
            code: vec![
                Instr::IoOpen {
                    path: 0,
                    mode: IoMode::Read,
                }, // fd
                Instr::Dup,       // fd fd
                Instr::IoReadSum, // fd sum
                Instr::Store(0),  // fd        (sum -> local 0)
                Instr::IoClose,   //
                Instr::IoOpen {
                    path: 1,
                    mode: IoMode::Write,
                }, // fd
                Instr::Dup,       // fd fd
                Instr::Load(0),   // fd fd sum
                Instr::IoWriteNum, // fd
                Instr::IoClose,   //
                Instr::Load(0),
                Instr::Print,
                Instr::Halt,
            ],
        }],
        strings: vec![],
    };
    img.strings = vec!["input.txt".into(), "output.txt".into()];
    img.to_bytes()
}

/// "Exception: the program image was corrupt." A valid program, damaged in
/// transit.
pub fn corrupt_image() -> Vec<u8> {
    ProgramImage::corrupt_bytes(&completes_main(), 9)
}

/// A CPU-bound workload: sum of `i*i` for `i` in `0..n`, printed. Useful
/// for goodput measurements.
pub fn cpu_bound(n: i64) -> Vec<u8> {
    ProgramImage::single(
        "cpu-bound",
        2,
        vec![
            Instr::Push(0),        // 0  acc = 0
            Instr::Store(0),       // 1
            Instr::Push(0),        // 2  i = 0
            Instr::Store(1),       // 3
            Instr::Load(1),        // 4  loop:
            Instr::Push(n),        // 5
            Instr::CmpLt,          // 6  i < n ?
            Instr::JumpIfZero(19), // 7
            Instr::Load(0),        // 8
            Instr::Load(1),        // 9
            Instr::Load(1),        // 10
            Instr::Mul,            // 11
            Instr::Add,            // 12
            Instr::Store(0),       // 13 acc += i*i
            Instr::Load(1),        // 14
            Instr::Push(1),        // 15
            Instr::Add,            // 16
            Instr::Store(1),       // 17 i += 1
            Instr::Jump(4),        // 18
            Instr::Load(0),        // 19
            Instr::Print,          // 20
            Instr::Halt,           // 21
        ],
    )
    .to_bytes()
}

/// A heap-resident workload: fills an `n`-element array with `1..=n`, then
/// sums it by re-reading every element and prints `n*(n+1)/2`. The answer
/// lives in the *heap* between the two loops, which makes this the SDC
/// campaign's victim of choice: a bit flipped into a checkpointed heap word
/// changes the printed sum without ever faulting — indices come from
/// locals, so no flip can turn into a bounds error or a crash.
pub fn heap_sum(n: i64) -> Vec<u8> {
    ProgramImage::single(
        "heap-sum",
        3,
        vec![
            Instr::Push(n),        // 0
            Instr::NewArray,       // 1
            Instr::Store(0),       // 2  arr = new[n]
            Instr::Push(0),        // 3
            Instr::Store(1),       // 4  i = 0
            Instr::Load(1),        // 5  fill:
            Instr::Push(n),        // 6
            Instr::CmpLt,          // 7  i < n ?
            Instr::JumpIfZero(20), // 8
            Instr::Load(0),        // 9
            Instr::Load(1),        // 10
            Instr::Load(1),        // 11
            Instr::Push(1),        // 12
            Instr::Add,            // 13
            Instr::AStore,         // 14 arr[i] = i+1
            Instr::Load(1),        // 15
            Instr::Push(1),        // 16
            Instr::Add,            // 17
            Instr::Store(1),       // 18 i += 1
            Instr::Jump(5),        // 19
            Instr::Push(0),        // 20
            Instr::Store(2),       // 21 acc = 0
            Instr::Push(0),        // 22
            Instr::Store(1),       // 23 i = 0
            Instr::Load(1),        // 24 sum:
            Instr::Push(n),        // 25
            Instr::CmpLt,          // 26 i < n ?
            Instr::JumpIfZero(39), // 27
            Instr::Load(2),        // 28
            Instr::Load(0),        // 29
            Instr::Load(1),        // 30
            Instr::ALoad,          // 31
            Instr::Add,            // 32
            Instr::Store(2),       // 33 acc += arr[i]
            Instr::Load(1),        // 34
            Instr::Push(1),        // 35
            Instr::Add,            // 36
            Instr::Store(1),       // 37 i += 1
            Instr::Jump(24),       // 38
            Instr::Load(2),        // 39
            Instr::Print,          // 40
            Instr::Halt,           // 41
        ],
    )
    .to_bytes()
}

/// A value a [`counted_loop`]'s header reads: a constant or a local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// `Push(v)`.
    Const(i64),
    /// `Load(n)`.
    Local(u8),
}

impl Operand {
    fn instr(self) -> Instr {
        match self {
            Operand::Const(v) => Instr::Push(v),
            Operand::Local(n) => Instr::Load(n),
        }
    }
}

/// The header of a [`counted_loop`]: `for (i = start; i < bound; i += step)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    /// The counter's first value.
    pub start: Operand,
    /// The loop runs while the counter is below this.
    pub bound: Operand,
    /// Added to the counter after each pass through the body.
    pub step: Operand,
}

impl Counted {
    /// `for (i = 0; i < bound; i += 1)`.
    pub fn upto(bound: i64) -> Counted {
        Counted {
            start: Operand::Const(0),
            bound: Operand::Const(bound),
            step: Operand::Const(1),
        }
    }
}

/// `prologue`, then `acc = 0` and the loop `head` over locals 0 = acc and
/// 1 = i, with `body` inside it, then `print acc; halt` — the shape
/// [`generate`] emits and the trace tier's circuit plan is built for.
/// Jump targets inside `body` are relative to its first instruction
/// (shifted here); one equal to `body.len()` lands on the counter's
/// increment. The function has eight locals and no strings.
pub fn counted_loop(prologue: Vec<Instr>, head: Counted, body: Vec<Instr>) -> ProgramImage {
    let mut code = prologue;
    code.extend([
        Instr::Push(0),
        Instr::Store(0),
        head.start.instr(),
        Instr::Store(1),
    ]);
    let top = code.len() as u32;
    let shift = top + 4;
    let exit = shift + body.len() as u32 + 5;
    code.extend([
        Instr::Load(1),
        head.bound.instr(),
        Instr::CmpLt,
        Instr::JumpIfZero(exit),
    ]);
    code.extend(body.into_iter().map(|i| match i {
        Instr::Jump(t) => Instr::Jump(t + shift),
        Instr::JumpIfZero(t) => Instr::JumpIfZero(t + shift),
        Instr::JumpIfNonZero(t) => Instr::JumpIfNonZero(t + shift),
        other => other,
    }));
    code.extend([
        Instr::Load(1),
        head.step.instr(),
        Instr::Add,
        Instr::Store(1),
        Instr::Jump(top),
        Instr::Load(0),
        Instr::Print,
        Instr::Halt,
    ]);
    ProgramImage::single("counted-loop", 8, code)
}

/// A program that throws a user exception — "program generated errors such
/// as an ArrayIndexOutOfBoundsException" that must reach the user.
pub fn throws_user_exception() -> Vec<u8> {
    ProgramImage::single("throws", 0, vec![Instr::Throw(1)]).to_bytes()
}

/// Options steering the seeded random-program generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOptions {
    /// Emit remote-I/O sequences (sometimes inside a hot loop, where the
    /// trace tier must end the trace with a terminal bail).
    pub include_io: bool,
    /// Arm mid-loop fault sites: divisions that reach zero partway
    /// through, array indices that walk out of bounds on a late iteration,
    /// conditional null dereferences and throws, per-iteration allocations
    /// that exhaust a small heap.
    pub include_faults: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            include_io: true,
            include_faults: true,
        }
    }
}

/// Generate a seeded random program with the default [`GenOptions`].
///
/// This is the **one** generator shared by the gridvm unit tests, the E14
/// compiled-vs-interpreted differential corpus, and the campaign fuzzer.
/// Every program it emits passes the verifier by construction (statements
/// are net-stack-zero segments over locals), and the same seed produces
/// the same bytes on every platform.
pub fn generate(seed: u64) -> Vec<u8> {
    generate_with(seed, &GenOptions::default())
}

/// Generate a seeded random program.
pub fn generate_with(seed: u64, opts: &GenOptions) -> Vec<u8> {
    Gen::new(seed, *opts).build()
}

/// SplitMix64 — tiny, dependency-free, stable across platforms.
struct Sm64(u64);

impl Sm64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (modulo bias is irrelevant here).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `num`/`den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Locals layout used by every generated program.
const ACC: u8 = 0; // running accumulator, printed at the end
const CTR: u8 = 1; // loop counter
const ARR: u8 = 2; // array handle (0 = none allocated)
const TMP: u8 = 3; // scratch (I/O sums, etc.)

struct Gen {
    rng: Sm64,
    opts: GenOptions,
    code: Vec<Instr>,
    arr_len: Option<i64>,
    uses_io: bool,
}

impl Gen {
    fn new(seed: u64, opts: GenOptions) -> Gen {
        Gen {
            rng: Sm64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x6a09_e667_f3bc_c908),
            opts,
            code: Vec::new(),
            arr_len: None,
            uses_io: false,
        }
    }

    fn build(mut self) -> Vec<u8> {
        // Prologue: seed the accumulator, maybe allocate an array.
        let init = self.rng.below(1000) as i64 - 200;
        self.code.push(Instr::Push(init));
        self.code.push(Instr::Store(ACC));
        if self.rng.chance(7, 10) {
            let len = 1 + self.rng.below(24) as i64;
            self.code.push(Instr::Push(len));
            self.code.push(Instr::NewArray);
            self.code.push(Instr::Store(ARR));
            self.arr_len = Some(len);
        }
        if self.opts.include_io && self.rng.chance(1, 6) {
            self.emit_io_read();
        }
        let loops = 1 + self.rng.below(3);
        for _ in 0..loops {
            self.emit_loop();
        }
        if self.opts.include_io && self.rng.chance(1, 6) {
            self.emit_io_write();
        }
        // Epilogue: print the answer, then one of the program-scope ends.
        self.code.push(Instr::Load(ACC));
        self.code.push(Instr::Print);
        match self.rng.below(4) {
            0 => {
                let c = self.rng.below(200) as i64;
                self.code.push(Instr::Push(c));
                self.code.push(Instr::Exit);
            }
            1 => {} // fall off the end: implicit completion
            _ => self.code.push(Instr::Halt),
        }
        let strings = if self.uses_io {
            vec!["input.txt".into(), "output.txt".into()]
        } else {
            vec![]
        };
        let mut img = ProgramImage::single("generated", 8, std::mem::take(&mut self.code));
        img.strings = strings;
        img.to_bytes()
    }

    /// One counted loop in the canonical shape the trace tier fuses:
    /// `for (i = 0; i < bound; i += 1) { body }`.
    fn emit_loop(&mut self) {
        let bound = 8 + self.rng.below(33) as i64;
        self.code.push(Instr::Push(0));
        self.code.push(Instr::Store(CTR));
        let head = self.code.len() as u32;
        self.code.push(Instr::Load(CTR));
        self.code.push(Instr::Push(bound));
        self.code.push(Instr::CmpLt);
        let exit_patch = self.code.len();
        self.code.push(Instr::JumpIfZero(u32::MAX)); // patched below
        let stmts = 1 + self.rng.below(4);
        for _ in 0..stmts {
            self.emit_statement(bound);
        }
        // i += 1; loop.
        self.code.push(Instr::Load(CTR));
        self.code.push(Instr::Push(1));
        self.code.push(Instr::Add);
        self.code.push(Instr::Store(CTR));
        self.code.push(Instr::Jump(head));
        let exit = self.code.len() as u32;
        self.code[exit_patch] = Instr::JumpIfZero(exit);
    }

    /// One net-stack-zero loop-body statement.
    fn emit_statement(&mut self, bound: i64) {
        let faults = self.opts.include_faults;
        match self.rng.below(10) {
            // acc = acc <op> <operand>
            0..=2 => {
                self.code.push(Instr::Load(ACC));
                match self.rng.below(3) {
                    0 => self.code.push(Instr::Push(1 + self.rng.below(50) as i64)),
                    1 => self.code.push(Instr::Load(CTR)),
                    _ => self.code.push(Instr::Load(ACC)),
                }
                let op = match self.rng.below(3) {
                    0 => Instr::Add,
                    1 => Instr::Sub,
                    _ => Instr::Mul,
                };
                self.code.push(op);
                self.code.push(Instr::Store(ACC));
            }
            // acc = acc / divisor (or %): the divisor is either a safe
            // constant or `i - f`, which reaches zero mid-trace.
            3 => {
                self.code.push(Instr::Load(ACC));
                if faults && self.rng.chance(1, 3) {
                    let f = self.rng.below(bound as u64 + 4) as i64;
                    self.code.push(Instr::Load(CTR));
                    self.code.push(Instr::Push(f));
                    self.code.push(Instr::Sub);
                } else {
                    self.code.push(Instr::Push(2 + self.rng.below(9) as i64));
                }
                let op = if self.rng.chance(1, 2) {
                    Instr::Div
                } else {
                    Instr::Mod
                };
                self.code.push(op);
                self.code.push(Instr::Store(ACC));
            }
            // arr[idx] = acc — idx is `i % len` (safe) or raw `i`, which
            // walks out of bounds when the loop outlives the array.
            4 => {
                let Some(len) = self.arr_len else { return };
                self.code.push(Instr::Load(ARR));
                self.code.push(Instr::Load(CTR));
                if !(faults && bound > len && self.rng.chance(1, 2)) {
                    self.code.push(Instr::Push(len));
                    self.code.push(Instr::Mod);
                }
                self.code.push(Instr::Load(ACC));
                self.code.push(Instr::AStore);
            }
            // acc += arr[i % len]
            5 => {
                let Some(len) = self.arr_len else { return };
                self.code.push(Instr::Load(ACC));
                self.code.push(Instr::Load(ARR));
                self.code.push(Instr::Load(CTR));
                self.code.push(Instr::Push(len));
                self.code.push(Instr::Mod);
                self.code.push(Instr::ALoad);
                self.code.push(Instr::Add);
                self.code.push(Instr::Store(ACC));
            }
            // acc = stdlib(acc): abs/sgn always safe; isqrt is taken
            // through abs first unless we are deliberately arming the
            // isqrt-of-negative fault.
            6 => {
                self.code.push(Instr::Load(ACC));
                match self.rng.below(3) {
                    0 => self.code.push(Instr::StdCall(0)),
                    1 => self.code.push(Instr::StdCall(1)),
                    _ => {
                        if !faults || self.rng.chance(2, 3) {
                            self.code.push(Instr::StdCall(0));
                        }
                        self.code.push(Instr::StdCall(2));
                    }
                }
                self.code.push(Instr::Store(ACC));
            }
            // print the accumulator (stdout must match bit-for-bit)
            7 => {
                self.code.push(Instr::Load(ACC));
                self.code.push(Instr::Print);
            }
            // allocate i+1 words per iteration — exhausts a small heap
            // partway through the loop
            8 => {
                if !faults {
                    return;
                }
                self.code.push(Instr::Load(CTR));
                self.code.push(Instr::Push(1));
                self.code.push(Instr::Add);
                self.code.push(Instr::NewArray);
                self.code.push(Instr::Pop);
            }
            // a conditional fault site: when i == f, dereference null or
            // throw — the guard must trip on exactly that iteration
            _ => {
                if !faults {
                    return;
                }
                let f = self.rng.below(bound as u64) as i64;
                self.code.push(Instr::Load(CTR));
                self.code.push(Instr::Push(f));
                self.code.push(Instr::CmpEq);
                let skip_patch = self.code.len();
                self.code.push(Instr::JumpIfZero(u32::MAX)); // patched below
                if self.rng.chance(1, 2) {
                    self.code.push(Instr::PushNull);
                    self.code.push(Instr::Push(0));
                    self.code.push(Instr::ALoad);
                    self.code.push(Instr::Pop);
                } else {
                    let n = self.rng.below(8) as u16;
                    self.code.push(Instr::Throw(n));
                }
                let skip = self.code.len() as u32;
                self.code[skip_patch] = Instr::JumpIfZero(skip);
            }
        }
    }

    fn emit_io_read(&mut self) {
        self.uses_io = true;
        self.code.push(Instr::IoOpen {
            path: 0,
            mode: IoMode::Read,
        });
        self.code.push(Instr::Dup);
        self.code.push(Instr::IoReadSum);
        self.code.push(Instr::Store(TMP));
        self.code.push(Instr::IoClose);
        self.code.push(Instr::Load(ACC));
        self.code.push(Instr::Load(TMP));
        self.code.push(Instr::Add);
        self.code.push(Instr::Store(ACC));
    }

    fn emit_io_write(&mut self) {
        self.uses_io = true;
        self.code.push(Instr::IoOpen {
            path: 1,
            mode: IoMode::Write,
        });
        self.code.push(Instr::Dup);
        self.code.push(Instr::Load(ACC));
        self.code.push(Instr::IoWriteNum);
        self.code.push(Instr::IoClose);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Installation;
    use crate::jvmio::NoIo;
    use crate::machine::{load_and_run, Termination};
    use errorscope::Scope;

    #[test]
    fn completes_main_runs_clean() {
        let out = load_and_run(&completes_main(), &Installation::healthy(), &mut NoIo);
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
        assert_eq!(out.stdout, "42\n");
    }

    #[test]
    fn calls_exit_returns_its_code() {
        let out = load_and_run(&calls_exit(7), &Installation::healthy(), &mut NoIo);
        assert_eq!(out.termination, Termination::Completed { exit_code: 7 });
    }

    #[test]
    fn null_dereference_raises_npe() {
        let out = load_and_run(&null_dereference(), &Installation::healthy(), &mut NoIo);
        assert!(
            matches!(&out.termination, Termination::Exception { name, .. } if name == "NullPointerException")
        );
    }

    #[test]
    fn bounds_program_raises_aioobe() {
        let out = load_and_run(&index_out_of_bounds(), &Installation::healthy(), &mut NoIo);
        assert!(matches!(
            &out.termination,
            Termination::Exception { name, .. } if name == "ArrayIndexOutOfBoundsException"
        ));
    }

    #[test]
    fn memory_hog_hits_oom() {
        let out = load_and_run(
            &exhausts_memory(),
            &Installation::healthy().with_heap_limit(1 << 16),
            &mut NoIo,
        );
        let Termination::EnvFailure { scope, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::VirtualMachine);
    }

    #[test]
    fn stdlib_program_fine_on_healthy_install() {
        let out = load_and_run(&uses_stdlib(), &Installation::healthy(), &mut NoIo);
        assert_eq!(out.stdout, "42\n");
    }

    #[test]
    fn stdlib_program_dies_on_partial_install() {
        let out = load_and_run(&uses_stdlib(), &Installation::missing_stdlib(), &mut NoIo);
        let Termination::EnvFailure { scope, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::RemoteResource);
    }

    #[test]
    fn corrupt_image_is_job_scope() {
        let out = load_and_run(&corrupt_image(), &Installation::healthy(), &mut NoIo);
        let Termination::EnvFailure { scope, .. } = &out.termination else {
            panic!("{out:?}")
        };
        assert_eq!(*scope, Scope::Job);
    }

    #[test]
    fn user_exception_is_program_scope() {
        let out = load_and_run(
            &throws_user_exception(),
            &Installation::healthy(),
            &mut NoIo,
        );
        assert_eq!(out.termination.scope(), Scope::Program);
    }

    #[test]
    fn heap_sum_runs_clean() {
        let out = load_and_run(&heap_sum(8), &Installation::healthy(), &mut NoIo);
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
        assert_eq!(out.stdout, "36\n");
    }

    #[test]
    fn heap_flip_after_restore_escapes_and_changes_the_answer() {
        // The SDC escape window, end to end: checkpoint mid-run, restore
        // (digest passes — the image is pristine), flip one live heap bit
        // *after* validation, and run on. The program terminates normally
        // with a wrong sum: an escape, not a crash.
        use crate::jvmio::NoIo;
        use crate::machine::Machine;
        let bytes = heap_sum(8);
        let img = ProgramImage::from_bytes(&bytes).unwrap();
        let install = Installation::healthy();
        let digest = ckpt::fnv1a(&bytes);

        let mut m = Machine::new(&img);
        // Past the fill loop (≈ 5 + 8*15 instructions), before the sum.
        assert!(m.run(&img, &install, &mut NoIo, Some(130)).is_none());
        let state = m.snapshot(digest);

        let mut resumed = Machine::restore(state, &img, digest).expect("digest still valid");
        assert!(resumed.flip_heap_bit(4 * 64 + 1).is_some()); // arr[4]: 5 -> 7
        let out = resumed
            .run(&img, &install, &mut NoIo, None)
            .expect("runs to termination");
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
        assert_eq!(out.stdout, "38\n"); // silently wrong: 36 + 2

        // An empty heap gives the flip nothing to hit.
        assert_eq!(Machine::new(&img).flip_heap_bit(3), None);
    }

    #[test]
    fn all_programs_verify_or_fail_loading_as_intended() {
        // Every canned program (except the deliberately corrupt one) must
        // load and verify.
        use crate::image::ProgramImage;
        use crate::verify::verify;
        for bytes in [
            completes_main(),
            calls_exit(1),
            null_dereference(),
            index_out_of_bounds(),
            exhausts_memory(),
            uses_stdlib(),
            reads_and_writes(),
            heap_sum(5),
            throws_user_exception(),
        ] {
            let img = ProgramImage::from_bytes(&bytes).expect("loads");
            verify(&img).expect("verifies");
        }
        assert!(ProgramImage::from_bytes(&corrupt_image()).is_err());
    }

    #[test]
    fn generated_programs_always_load_and_verify() {
        use crate::image::ProgramImage;
        use crate::verify::verify;
        for seed in 0..400u64 {
            let bytes = generate(seed);
            let img = ProgramImage::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("seed {seed}: load failed: {e:?}"));
            verify(&img).unwrap_or_else(|e| panic!("seed {seed}: verify failed: {e:?}"));
        }
        // Options variants stay verifier-clean too.
        for seed in 0..100u64 {
            for opts in [
                GenOptions {
                    include_io: false,
                    include_faults: false,
                },
                GenOptions {
                    include_io: false,
                    include_faults: true,
                },
                GenOptions {
                    include_io: true,
                    include_faults: false,
                },
            ] {
                let bytes = generate_with(seed, &opts);
                let img = ProgramImage::from_bytes(&bytes).expect("loads");
                verify(&img).expect("verifies");
            }
        }
    }

    #[test]
    fn generated_programs_are_deterministic_and_seed_sensitive() {
        assert_eq!(generate(42), generate(42));
        // Not every pair of seeds differs, but these do — and a collision
        // across the board would mean the rng is not wired in at all.
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_corpus_exercises_faults_and_hot_loops() {
        use crate::config::{Installation, TraceConfig};
        use crate::machine::{load_and_run, Termination};
        let install = Installation::healthy().with_trace(TraceConfig::eager());
        let mut errors = 0usize;
        let mut compiled = 0usize;
        for seed in 0..150u64 {
            let bytes = generate(seed);
            let out = load_and_run(&bytes, &install, &mut crate::jvmio::NoIo);
            match out.termination {
                Termination::Completed { .. } => {}
                _ => errors += 1,
            }
            if out.vm.traces_compiled > 0 {
                compiled += 1;
            }
        }
        // The corpus must contain both clean runs and scoped faults, and
        // most programs must get hot enough to hit the compiled tier.
        assert!(errors > 20, "only {errors} faulting programs in 150");
        assert!(errors < 140, "almost everything faults ({errors}/150)");
        assert!(compiled > 75, "only {compiled} programs compiled a trace");
    }
}
