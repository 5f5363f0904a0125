//! Properties of the GridVM, run on seeded generated cases: total
//! decoding, verifier soundness, crash-free execution of arbitrary
//! verified programs, and runs that do not depend on what the thread ran
//! before.

use gridvm::image::{Function, ProgramImage};
use gridvm::isa::{Instr, IoMode};
use gridvm::jvmio::NoIo;
use gridvm::machine::{load_and_run, Termination};
use gridvm::prelude::*;
use gridvm::verify::verify;
use gridvm::{programs, Machine, TraceConfig, VmStats};
use propcheck::{check, Gen};

mod arms;
use arms::arms;

const CASES: u64 = 512;

/// An arbitrary (mostly invalid) instruction for a program of `n_instrs`
/// instructions per function, `n_funcs` functions, `n_strings` strings
/// and four locals.
fn any_instr(g: &mut Gen, n_instrs: u32, n_funcs: u16, n_strings: u16) -> Instr {
    use Instr::*;
    const PLAIN: [Instr; 24] = [
        PushNull, Pop, Dup, Swap, Add, Sub, Mul, Div, Mod, Neg, CmpEq, CmpLt, CmpGt, NewArray,
        ALen, ALoad, AStore, Ret, Exit, Halt, Print, IoReadSum, IoWriteNum, IoClose,
    ];
    match g.below(34) {
        0 => Push(g.int(-100i64..100)),
        1 => Jump(g.int(0..n_instrs)),
        2 => JumpIfZero(g.int(0..n_instrs)),
        3 => JumpIfNonZero(g.int(0..n_instrs)),
        4 => Load(g.int(0u8..4)),
        5 => Store(g.int(0u8..4)),
        6 => Call(g.int(0..n_funcs)),
        7 => Throw(g.int(0u16..4)),
        8 => StdCall(g.int(0u8..4)),
        9 => IoOpen {
            path: g.int(0..n_strings.max(1)),
            mode: IoMode::from_byte(g.int(0u8..3)).unwrap(),
        },
        plain => PLAIN[plain - 10],
    }
}

fn any_image(g: &mut Gen) -> ProgramImage {
    let (nf, ni, ns) = (g.int(1u16..3), g.int(1u32..24), g.int(0u16..2));
    ProgramImage {
        entry: 0,
        functions: (0..nf)
            .map(|i| Function {
                name: format!("f{i}"),
                max_locals: 4,
                args: 0,
                rets: 0,
                code: g.vec(1..=ni as usize, |g| any_instr(g, ni, nf, ns)),
            })
            .collect(),
        strings: (0..ns).map(|i| format!("s{i}")).collect(),
    }
}

/// Image serialisation round-trips for arbitrary programs.
#[test]
fn image_roundtrip() {
    check(CASES, |g| {
        let img = any_image(g);
        assert_eq!(ProgramImage::from_bytes(&img.to_bytes()).unwrap(), img);
    });
}

/// Loading arbitrary byte soup never panics; it loads or errors.
#[test]
fn loading_is_total() {
    check(8 * CASES, |g| {
        let _ = ProgramImage::from_bytes(&g.bytes(0..600));
    });
}

/// Spliced, duplicated, cut and overwritten spans of a valid image — three
/// times in four with the checksum made good again, so the damage reaches
/// the structural decoder instead of stopping at the sum — load or fail
/// with a named error, never a panic; what loads survives the verifier
/// and loads again from its own bytes.
#[test]
fn loading_mutated_images_is_total() {
    let mut outcomes = std::collections::BTreeMap::new();
    check(100_000, |g| {
        let valid = any_image(g).to_bytes();
        let bytes = if g.below(4) == 0 {
            g.mutated(&valid)
        } else {
            let mut body = g.mutated(&valid[..valid.len() - 8]);
            body.extend_from_slice(&ckpt::body_sum(&body).to_le_bytes());
            body
        };
        let outcome = match ProgramImage::from_bytes(&bytes) {
            Ok(img) => {
                let _ = verify(&img);
                assert_eq!(ProgramImage::from_bytes(&img.to_bytes()).as_ref(), Ok(&img));
                "ok".to_string()
            }
            Err(e) => e
                .to_string()
                .split(' ')
                .take(2)
                .collect::<Vec<_>>()
                .join(" "),
        };
        *outcomes.entry(outcome).or_insert(0u32) += 1;
    });
    // Every named error is reached, and so is a damaged image that loads.
    let seen: Vec<&str> = outcomes.keys().map(String::as_str).collect();
    let expected = [
        "bad magic:",
        "checksum mismatch:",
        "entry function",
        "ok",
        "truncated image",
        "unknown opcode",
    ];
    assert_eq!(seen, expected, "{outcomes:?}");
}

/// Flipping any single bit of a serialised image — an arbitrary one, or
/// one of the generated corpus the short-job workloads run — is refused:
/// corrupt images can never load, let alone as a *different* valid
/// program. The format-2 sum catches every single-word change, so this is
/// certain, not a 2^-64 bet: a flip in the magic is `BadMagic`, one
/// anywhere else (the sum's own field included) a checksum mismatch.
#[test]
fn single_bitflip_never_silently_accepted() {
    check(CASES, |g| {
        for mut bad in [any_image(g).to_bytes(), programs::generate(g.u64())] {
            let bit = g.below(bad.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(ProgramImage::from_bytes(&bad).is_err(), "bit {bit}");
        }
    });
}

/// The verifier never panics on arbitrary structurally-valid images.
#[test]
fn verifier_is_total() {
    check(CASES, |g| {
        let _ = verify(&any_image(g));
    });
}

/// Soundness: any program the verifier accepts executes without
/// tripping the machine's dynamic underflow guard, and always
/// terminates (fuel-bounded) in a classified state.
#[test]
fn verified_programs_execute_safely() {
    let mut accepted = 0;
    check(8 * CASES, |g| {
        let img = any_image(g);
        if verify(&img).is_err() {
            return; // rejected: nothing to check
        }
        accepted += 1;
        let install = Installation::healthy()
            .with_fuel(20_000)
            .with_heap_limit(1 << 12)
            .with_max_call_depth(32);
        let out = load_and_run(&img.to_bytes(), &install, &mut NoIo);
        // The dynamic guard reports VIRTUAL_MACHINE_ERROR on underflow
        // past the verifier; a sound verifier makes that unreachable.
        if let Termination::EnvFailure { code, .. } = &out.termination {
            assert_ne!(
                code.as_str(),
                "VirtualMachineError",
                "verifier missed an underflow"
            );
        }
    });
    assert!(accepted >= 100, "only {accepted} images verified");
}

/// Execution is deterministic: same image, same installation, same
/// result.
#[test]
fn execution_is_deterministic() {
    check(CASES, |g| {
        let install = Installation::healthy().with_fuel(10_000);
        let bytes = any_image(g).to_bytes();
        let a = load_and_run(&bytes, &install, &mut NoIo);
        let b = load_and_run(&bytes, &install, &mut NoIo);
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.instructions, b.instructions);
    });
}

/// The assembler and disassembling printer agree: assembling a
/// generated listing reproduces the instruction count.
#[test]
fn asm_accepts_simple_generated_listings() {
    check(CASES, |g| {
        let pushes = g.vec(1..20, |g| g.int(-50i64..50));
        let mut src = String::from(".func main locals=1\n");
        for p in &pushes {
            src.push_str(&format!("  push {p}\n  pop\n"));
        }
        src.push_str("  halt\n");
        let img = gridvm::asm::assemble(&src).unwrap();
        assert_eq!(img.functions[0].code.len(), pushes.len() * 2 + 1);
        assert!(verify(&img).is_ok());
        let out = load_and_run(&img.to_bytes(), &Installation::healthy(), &mut NoIo);
        assert_eq!(out.termination, Termination::Completed { exit_code: 0 });
    });
}

// ---------------------------------------------------------------------
// A thread's working memory carries capacity, never a value
// ---------------------------------------------------------------------

/// A program that leaves every buffer a retiring machine and its loader
/// hand to the thread dirty: forty arrays of lengths 40 down to 1, every
/// element -1; a helper frame's eight locals at -1; seventy values on the
/// operand stack, past its first buffer; two functions and three strings,
/// more than a generated image has.
fn dirty() -> Vec<u8> {
    use Instr::*;
    let mut main = vec![
        Push(40),
        Store(0), // n = 40
        Load(0),  // 2: while n != 0
        JumpIfZero(27),
        Load(0),
        NewArray,
        Store(1), // a = new[n]
        Push(0),
        Store(2), // i = 0
        Load(2),  // 9: while i < n
        Load(0),
        CmpLt,
        JumpIfZero(22),
        Load(1),
        Load(2),
        Push(-1),
        AStore, // a[i] = -1
        Load(2),
        Push(1),
        Add,
        Store(2),
        Jump(9),
        Load(0), // 22: n -= 1
        Push(1),
        Sub,
        Store(0),
        Jump(2),
        Push(-9), // 27
        Store(3),
        Call(1),
    ];
    main.extend([Push(-3); 70]);
    main.push(Halt);
    let helper = (0..8).flat_map(|i| [Push(-1), Store(i)]).chain([Ret]);
    let strings = ["dirty-a.txt", "dirty-b.txt", "dirty-c.txt"];
    let img = ProgramImage {
        entry: 0,
        functions: vec![
            Function {
                name: "dirty".into(),
                max_locals: 4,
                args: 0,
                rets: 0,
                code: main,
            },
            Function {
                name: "dirty-helper".into(),
                max_locals: 8,
                args: 0,
                rets: 0,
                code: helper.collect(),
            },
        ],
        strings: strings.map(String::from).to_vec(),
    };
    verify(&img).expect("the dirty program verifies");
    img.to_bytes()
}

/// Everything a run of `bytes` under `install` shows: the wrapped run's
/// exit code, result-file bytes, stdout, instructions and trace counters;
/// then, on a machine of its own, the checkpoint bytes every 97
/// instructions and, restored from each, what the rest of the run gives.
type Observed = (
    i32,
    String,
    String,
    u64,
    VmStats,
    Vec<Vec<u8>>,
    Vec<RunOutput>,
);

fn observe(bytes: &[u8], install: &Installation) -> Observed {
    let w = run_wrapped(bytes, install, &mut NoIo);
    let img = ProgramImage::from_bytes(bytes).expect("generated images load");
    let digest = ckpt::fnv1a(bytes);
    let mut m = Machine::new(&img);
    let mut cuts = Vec::new();
    while m.run(&img, install, &mut NoIo, Some(97)).is_none() {
        cuts.push(m.snapshot(digest).to_bytes());
    }
    let finished = cuts
        .iter()
        .map(|cut| {
            let state = ckpt::MachineState::from_bytes(cut).expect("decodes");
            let mut m = Machine::restore(state, &img, digest).expect("restores");
            let out = m.run(&img, install, &mut NoIo, None);
            out.expect("unbudgeted run terminates")
        })
        .collect();
    let exit = w.jvm_exit.0;
    (
        exit,
        w.result_file_bytes,
        w.stdout,
        w.instructions,
        w.vm,
        cuts,
        finished,
    )
}

/// E14's generated corpus under the ledger's five installation arms runs
/// alike on a cold thread and on a warm one that has just run a larger,
/// different program: nothing a thread keeps between machines — arrays,
/// frame buffers, the decoded image, the verifier's depths, the trace
/// tier's buffers — reaches a result, a counter or a checkpoint.
#[test]
fn a_warm_thread_runs_a_job_as_a_cold_one_does() {
    let dirty = dirty();
    check(CASES / 2, |g| {
        let seed = g.u64() % 100_000;
        let bytes = programs::generate(seed);
        for (arm, install) in arms(seed) {
            let cold = std::thread::scope(|s| {
                s.spawn(|| observe(&bytes, &install))
                    .join()
                    .expect("cold run")
            });
            run_wrapped(&dirty, &Installation::healthy(), &mut NoIo);
            let warm = observe(&bytes, &install);
            assert_eq!(cold, warm, "seed {seed}, {arm}");
        }
    });
}

/// A fresh array reads zero on a warm thread, whichever tier allocates
/// it: each of 30 iterations reads an element of a new array before
/// writing it.
#[test]
fn a_recycled_array_reads_zero() {
    use Instr::*;
    let code = vec![
        Push(0),
        Store(0), // acc = 0
        Push(0),
        Store(1), // i = 0
        Load(1),  // 4: while i < 30
        Push(30),
        CmpLt,
        JumpIfZero(30),
        Push(8),
        NewArray,
        Store(2), // a = new[8]
        Load(0),
        Load(2),
        Load(1),
        Push(8),
        Mod,
        ALoad,
        Add,
        Store(0), // acc += a[i % 8]
        Load(2),
        Load(1),
        Push(8),
        Mod,
        Push(99),
        AStore, // a[i % 8] = 99
        Load(1),
        Push(1),
        Add,
        Store(1), // i += 1
        Jump(4),
        Load(0), // 30
        Print,
        Halt,
    ];
    let bytes = ProgramImage::single("read-before-write", 3, code).to_bytes();
    let dirty = dirty();
    for trace in [TraceConfig::default(), TraceConfig::off()] {
        let install = Installation::healthy().with_trace(trace);
        run_wrapped(&dirty, &Installation::healthy(), &mut NoIo);
        let w = run_wrapped(&bytes, &install, &mut NoIo);
        assert_eq!(w.stdout, "0\n", "{:?}", w.result_file);
        // The compiled tier allocated most of the arrays when it was on.
        let compiled = w.vm.compiled_instructions > 0;
        assert_eq!(compiled, install.trace.enabled);
    }
}
