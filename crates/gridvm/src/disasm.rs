//! Disassembler: render a [`ProgramImage`] back to assembler source.
//!
//! The output is accepted by [`crate::asm::assemble`], so
//! `assemble(disassemble(img))` reproduces the image (up to label naming).
//! Used for debugging job images and in tests as an inverse of the
//! assembler.

use crate::compile::{CompiledTrace, OpKind, Reg, TraceOp};
use crate::image::ProgramImage;
use crate::isa::{Instr, IoMode};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Render an image as assembler source.
pub fn disassemble(img: &ProgramImage) -> String {
    let mut out = String::new();
    for s in &img.strings {
        let _ = writeln!(out, ".str \"{s}\"");
    }
    for (fi, f) in img.functions.iter().enumerate() {
        let _ = writeln!(
            out,
            ".func {} locals={} args={} rets={}{}",
            sanitize(&f.name, fi),
            f.max_locals,
            f.args,
            f.rets,
            if fi == img.entry as usize {
                " ; entry"
            } else {
                ""
            }
        );
        // Collect branch targets for labels.
        let targets: BTreeSet<u32> = f.code.iter().filter_map(|i| i.branch_target()).collect();
        for (pc, ins) in f.code.iter().enumerate() {
            if targets.contains(&(pc as u32)) {
                let _ = writeln!(out, "L{pc}:");
            }
            let _ = writeln!(out, "    {}", render(ins));
        }
    }
    out
}

/// Render a compiled trace as a listing: one register op per line with
/// the first pc and instruction count of the group it covers, and the
/// operand-stack snapshot where one is not empty. Registers print as
/// `l<n>` (a local), `#<value>` (a constant) or `t<n>` (a temp). Not
/// assembler input — traces are an execution artifact, not a program
/// representation — but the format mirrors [`disassemble`] so the two
/// read side by side.
pub fn disassemble_trace(t: &CompiledTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ".trace func={} head=L{} ops={} base_len={}",
        t.func,
        t.head,
        t.ops.len(),
        t.base_len
    );
    for op in &t.ops {
        let group = t.snapshot(op.snap);
        let _ = write!(
            out,
            "    [pc {:>4} cost {}] {}",
            group.pc,
            op.cost,
            render_op(t, op)
        );
        if !group.regs.is_empty() {
            let regs: Vec<String> = group.regs.iter().map(|&r| reg(t, r)).collect();
            let _ = write!(out, " ; stack [{}]", regs.join(" "));
        }
        out.push('\n');
    }
    out
}

fn reg(t: &CompiledTrace, r: Reg) -> String {
    let r = usize::from(r);
    let temps = t.nlocals + t.consts.len();
    if r < t.nlocals {
        format!("l{r}")
    } else if r < temps {
        format!("#{}", t.consts[r - t.nlocals])
    } else {
        format!("t{}", r - temps)
    }
}

fn render_op(t: &CompiledTrace, op: &TraceOp) -> String {
    let r = |r: &Reg| reg(t, *r);
    // Where a branch or the terminal bail hands over to the interpreter.
    let leaves_to = || t.snapshot(op.snap + 1).pc;
    let way = |stay: &bool| {
        let truth = if *stay { "true" } else { "false" };
        format!("stay-if-{truth} else L{}", leaves_to())
    };
    match &op.kind {
        OpKind::Mov(dst, src) => format!("{} = {}", r(dst), r(src)),
        OpKind::PopReal(dst) => format!("{} = pop ; guards underflow", r(dst)),
        OpKind::Add(dst, a, b) => format!("{} = {} + {}", r(dst), r(a), r(b)),
        OpKind::Sub(dst, a, b) => format!("{} = {} - {}", r(dst), r(a), r(b)),
        OpKind::Mul(dst, a, b) => format!("{} = {} * {}", r(dst), r(a), r(b)),
        OpKind::Div(dst, a, b) => format!("{} = {} / {} ; guards /0", r(dst), r(a), r(b)),
        OpKind::Mod(dst, a, b) => format!("{} = {} % {} ; guards %0", r(dst), r(a), r(b)),
        OpKind::Neg(dst, a) => format!("{} = -{}", r(dst), r(a)),
        OpKind::CmpEq(dst, a, b) => format!("{} = {} == {}", r(dst), r(a), r(b)),
        OpKind::CmpLt(dst, a, b) => format!("{} = {} < {}", r(dst), r(a), r(b)),
        OpKind::CmpGt(dst, a, b) => format!("{} = {} > {}", r(dst), r(a), r(b)),
        OpKind::BrEq(a, b, stay) => format!("br {} == {} {}", r(a), r(b), way(stay)),
        OpKind::BrLt(a, b, stay) => format!("br {} < {} {}", r(a), r(b), way(stay)),
        OpKind::BrGt(a, b, stay) => format!("br {} > {} {}", r(a), r(b), way(stay)),
        OpKind::Br(a, stay) => format!("br {} != 0 {}", r(a), way(stay)),
        OpKind::Print(a) => format!("print {}", r(a)),
        OpKind::NewArray(dst, size) => {
            format!("{} = newarray {} ; guards size/heap", r(dst), r(size))
        }
        OpKind::ALen(dst, arr) => format!("{} = alen {} ; guards null", r(dst), r(arr)),
        OpKind::ALoad(dst, arr, idx) => {
            format!("{} = {}[{}] ; guards null/bounds", r(dst), r(arr), r(idx))
        }
        OpKind::AStore(arr, idx, val) => {
            format!("{}[{}] = {} ; guards null/bounds", r(arr), r(idx), r(val))
        }
        OpKind::StdCall(dst, a, routine) => {
            format!("{} = stdcall {routine} {} ; guards install", r(dst), r(a))
        }
        OpKind::LoopBack => "loopback".into(),
        OpKind::Bail => format!("bail L{} ; terminal guard exit", leaves_to()),
    }
}

fn sanitize(name: &str, index: usize) -> String {
    let clean: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if clean.is_empty() || !clean.chars().next().unwrap().is_alphabetic() {
        format!("fn{index}")
    } else {
        clean
    }
}

fn render(ins: &Instr) -> String {
    match ins {
        Instr::Push(v) => format!("push {v}"),
        Instr::PushNull => "pushnull".into(),
        Instr::Pop => "pop".into(),
        Instr::Dup => "dup".into(),
        Instr::Swap => "swap".into(),
        Instr::Add => "add".into(),
        Instr::Sub => "sub".into(),
        Instr::Mul => "mul".into(),
        Instr::Div => "div".into(),
        Instr::Mod => "mod".into(),
        Instr::Neg => "neg".into(),
        Instr::CmpEq => "cmpeq".into(),
        Instr::CmpLt => "cmplt".into(),
        Instr::CmpGt => "cmpgt".into(),
        Instr::Jump(t) => format!("jump L{t}"),
        Instr::JumpIfZero(t) => format!("jz L{t}"),
        Instr::JumpIfNonZero(t) => format!("jnz L{t}"),
        Instr::Load(n) => format!("load {n}"),
        Instr::Store(n) => format!("store {n}"),
        Instr::NewArray => "newarray".into(),
        Instr::ALen => "alen".into(),
        Instr::ALoad => "aload".into(),
        Instr::AStore => "astore".into(),
        // Numeric call targets are unambiguous and always reassemble,
        // regardless of declaration order (the assembler accepts both
        // names and indices).
        Instr::Call(t) => format!("call {t}"),
        Instr::Ret => "ret".into(),
        Instr::Exit => "exit".into(),
        Instr::Halt => "halt".into(),
        Instr::Throw(n) => format!("throw {n}"),
        Instr::Print => "print".into(),
        Instr::StdCall(n) => format!("stdcall {n}"),
        Instr::IoOpen { path, mode } => {
            let m = match mode {
                IoMode::Read => "read",
                IoMode::Write => "write",
                IoMode::Append => "append",
            };
            format!("ioopen {path} {m}")
        }
        Instr::IoReadSum => "ioreadsum".into(),
        Instr::IoWriteNum => "iowritenum".into(),
        Instr::IoClose => "ioclose".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::programs;

    fn roundtrip(bytes: &[u8]) {
        let img = ProgramImage::from_bytes(bytes).unwrap();
        let src = disassemble(&img);
        let back = assemble(&src).unwrap_or_else(|e| panic!("reassembly failed: {e}\n{src}"));
        // Entry index and string table survive; code must be identical
        // instruction-for-instruction.
        assert_eq!(back.strings, img.strings, "\n{src}");
        assert_eq!(back.functions.len(), img.functions.len());
        for (a, b) in back.functions.iter().zip(&img.functions) {
            assert_eq!(a.code, b.code, "\n{src}");
            assert_eq!(a.max_locals, b.max_locals);
            assert_eq!(a.args, b.args);
            assert_eq!(a.rets, b.rets);
        }
    }

    #[test]
    fn canned_programs_roundtrip() {
        for bytes in [
            programs::completes_main(),
            programs::calls_exit(7),
            programs::null_dereference(),
            programs::index_out_of_bounds(),
            programs::exhausts_memory(),
            programs::uses_stdlib(),
            programs::reads_and_writes(),
            programs::cpu_bound(100),
            programs::throws_user_exception(),
        ] {
            roundtrip(&bytes);
        }
    }

    #[test]
    fn listing_is_readable() {
        let img = ProgramImage::from_bytes(&programs::reads_and_writes()).unwrap();
        let src = disassemble(&img);
        assert!(src.contains(".str \"input.txt\""));
        assert!(src.contains("ioopen 0 read"));
        assert!(src.contains("iowritenum"));
        assert!(src.contains(".func reads_and_writes"));
    }

    #[test]
    fn labels_appear_at_branch_targets() {
        let img = ProgramImage::from_bytes(&programs::cpu_bound(5)).unwrap();
        let src = disassemble(&img);
        assert!(src.contains("L4:"), "{src}");
        assert!(src.contains("jump L4"), "{src}");
    }

    #[test]
    fn compiled_traces_disassemble_with_fusion_visible() {
        use crate::config::{Installation, TraceConfig};
        use crate::machine::Machine;
        let img = ProgramImage::from_bytes(&programs::cpu_bound(100)).unwrap();
        let install = Installation::healthy().with_trace(TraceConfig::eager());
        let mut m = Machine::new(&img);
        m.run(&img, &install, &mut crate::jvmio::NoIo, None);
        let traces = m.trace_state().compiled_traces();
        assert_eq!(traces.len(), 1);
        let src = disassemble_trace(traces[0]);
        assert!(src.starts_with(".trace func=0 head=L4"), "{src}");
        assert!(src.contains("base_len=15"), "{src}");
        // The fused loop condition and induction step both render.
        assert!(src.contains("br l1 < #100 stay-if-true else L19"), "{src}");
        assert!(src.contains("l1 = l1 + #1"), "{src}");
        assert!(src.contains("loopback"), "{src}");
        // One line per op plus the header.
        assert_eq!(src.lines().count(), traces[0].ops.len() + 1, "{src}");
    }

    #[test]
    fn hostile_names_are_sanitised() {
        let mut img = ProgramImage::from_bytes(&programs::completes_main()).unwrap();
        img.functions[0].name = "weird name!{}".into();
        let src = disassemble(&img);
        assert!(src.contains(".func weird_name___"), "{src}");
        assert!(assemble(&src).is_ok());
        let mut img2 = img.clone();
        img2.functions[0].name = "123".into();
        let src = disassemble(&img2);
        assert!(src.contains(".func fn0"), "{src}");
    }
}
