//! Properties of the GridVM, run on seeded generated cases: total
//! decoding, verifier soundness, and crash-free execution of arbitrary
//! verified programs.

use gridvm::image::{Function, ProgramImage};
use gridvm::isa::{Instr, IoMode};
use gridvm::jvmio::NoIo;
use gridvm::machine::{load_and_run, Termination};
use gridvm::prelude::*;
use gridvm::verify::verify;
use propcheck::{check, Gen};

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
            body.extend_from_slice(&ckpt::fnv1a(&body).to_le_bytes());
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

/// Flipping any single bit of a serialised image is detected (either
/// checksum mismatch or another load error) — corrupt images can never
/// load as a *different* valid program silently.
#[test]
fn single_bitflip_never_silently_accepted() {
    check(CASES, |g| {
        let img = any_image(g);
        let mut bad = img.to_bytes();
        let bit = g.below(bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        // Flips inside the checksum field itself still cause a
        // mismatch; flips in the body are caught by the checksum. The
        // only acceptance would be a 2^-64 collision.
        if let Ok(loaded) = ProgramImage::from_bytes(&bad) {
            assert_ne!(loaded, img);
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
