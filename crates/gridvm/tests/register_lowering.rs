//! The register lowering against its specification, the interpreter.
//!
//! Two layers. The differential corpus runs `programs::generate` seeds
//! under every installation arm with the trace tier off, default and
//! `eager`, and demands the same `RunOutput` — and, walking both machines
//! in lock step at budget cadences 1, 7 and 1000, the same checkpoint
//! bytes at every suspension. The hand-written cases each aim at one
//! hazard of lowering a stack machine to registers and check, besides
//! equality, that compiled code really was where the hazard is.

use gridvm::jvmio::NoIo;
use gridvm::machine::Machine;
use gridvm::{
    execute, programs, verify, Installation, Instr, ProgramImage, RunOutput, TraceConfig, VmStats,
};

/// Run `img` under `install` with the tier off and with `trace`, whole
/// and in lock step at budget cadences 1, 7 and 1000; every observable
/// must agree. Returns the traced run's tier counters. `swap` optionally
/// replaces the installation after that many instructions (on both sides).
fn agree(
    what: &str,
    img: &ProgramImage,
    install: &Installation,
    trace: TraceConfig,
    swap: Option<(u64, &Installation)>,
) -> VmStats {
    let cadences = [None, Some(1), Some(7), Some(1000)];
    walk(what, img, install, trace, swap, &cadences, |_| {})
}

/// [`agree`] at the given cadences (`None` is the whole run). `at_cut`
/// sees the checkpoint bytes of every suspension, after both sides have
/// been held to the same ones.
fn walk(
    what: &str,
    img: &ProgramImage,
    install: &Installation,
    trace: TraceConfig,
    swap: Option<(u64, &Installation)>,
    cadences: &[Option<u64>],
    mut at_cut: impl FnMut(&[u8]),
) -> VmStats {
    let off = |i: &Installation| i.clone().with_trace(TraceConfig::off());
    let on = |i: &Installation| i.clone().with_trace(trace);
    let digest = ckpt::fnv1a(&img.to_bytes());
    let mut stats = VmStats::default();
    for &cadence in cadences {
        let mut interp = Machine::new(img);
        let mut traced = Machine::new(img);
        let mut current = install;
        let (a, b): (RunOutput, RunOutput) = loop {
            let mut budget = cadence;
            if let Some((at, next)) = swap {
                if interp.instructions() >= at {
                    current = next;
                } else {
                    let left = at - interp.instructions();
                    budget = Some(budget.map_or(left, |b| b.min(left)));
                }
            }
            let a = interp.run(img, &off(current), &mut NoIo, budget);
            let b = traced.run(img, &on(current), &mut NoIo, budget);
            match (a, b) {
                (Some(a), Some(b)) => break (a, b),
                (None, None) => {
                    let cut = traced.snapshot(digest).to_bytes();
                    assert_eq!(
                        interp.snapshot(digest).to_bytes(),
                        cut,
                        "{what}, cadence {cadence:?}: checkpoints differ at {} instructions",
                        interp.instructions()
                    );
                    at_cut(&cut);
                }
                (a, b) => panic!(
                    "{what}, cadence {cadence:?}: one side suspended, one ended: {a:?} / {b:?}"
                ),
            }
        };
        assert_eq!(a, b, "{what}, cadence {cadence:?}");
        if cadence.is_none() {
            stats = b.vm;
        }
    }
    stats
}

/// Seeds 0..2000 under one installation arm, default and eager.
fn corpus(arm: &str, install: impl Fn(u64) -> Installation) {
    let mut compiled = 0;
    for seed in 0..2000 {
        let img = ProgramImage::from_bytes(&programs::generate(seed)).expect("generated loads");
        for (name, trace) in [
            ("default", TraceConfig::default()),
            ("eager", TraceConfig::eager()),
        ] {
            let what = format!("seed {seed}, {arm}, {name}");
            compiled += agree(&what, &img, &install(seed), trace, None).traces_compiled;
        }
    }
    assert!(compiled > 500, "{arm}: only {compiled} traces compiled");
}

#[test]
fn corpus_agrees_on_a_healthy_installation() {
    corpus("healthy", |_| Installation::healthy());
}

#[test]
fn corpus_agrees_on_a_small_heap() {
    corpus("small-heap", |_| {
        Installation::healthy().with_heap_limit(1 << 12)
    });
}

#[test]
fn corpus_agrees_under_tight_fuel() {
    // Fuel runs dry anywhere in the program, mid-trace included.
    corpus("tight-fuel", |seed| {
        Installation::healthy().with_fuel(50 + seed * 7919 % 2400)
    });
}

#[test]
fn corpus_agrees_without_a_stdlib() {
    corpus("missing-stdlib", |_| Installation::missing_stdlib());
}

// ---------------------------------------------------------------------
// Hand-written hazards
// ---------------------------------------------------------------------

/// `for (i = 0; i < bound; i++) { body }` over locals 0 = acc, 1 = i,
/// after `prologue`, printing acc. Jump targets inside `body` are written
/// relative to its own first instruction.
fn counted_loop(prologue: Vec<Instr>, bound: i64, body: Vec<Instr>) -> ProgramImage {
    let mut code = prologue;
    code.extend([
        Instr::Push(0),
        Instr::Store(0),
        Instr::Push(0),
        Instr::Store(1),
    ]);
    let head = code.len() as u32;
    let exit = head + 4 + body.len() as u32 + 5;
    code.extend([
        Instr::Load(1),
        Instr::Push(bound),
        Instr::CmpLt,
        Instr::JumpIfZero(exit),
    ]);
    let shift = head + 4;
    code.extend(body.into_iter().map(|i| match i {
        Instr::Jump(t) => Instr::Jump(t + shift),
        Instr::JumpIfZero(t) => Instr::JumpIfZero(t + shift),
        Instr::JumpIfNonZero(t) => Instr::JumpIfNonZero(t + shift),
        other => other,
    }));
    code.extend([
        Instr::Load(1),
        Instr::Push(1),
        Instr::Add,
        Instr::Store(1),
        Instr::Jump(head),
        Instr::Load(0),
        Instr::Print,
        Instr::Halt,
    ]);
    let img = ProgramImage::single("hazard", 4, code);
    verify(&img).expect("hazard program verifies");
    img
}

/// The case must agree with the interpreter under `eager`, compile, and
/// take at least `guards` guard exits.
fn hazard(what: &str, img: &ProgramImage, install: &Installation, guards: u64) -> RunOutput {
    let vm = agree(what, img, install, TraceConfig::eager(), None);
    assert!(vm.traces_compiled >= 1, "{what}: nothing compiled: {vm:?}");
    assert!(vm.compiled_instructions > 0, "{what}: {vm:?}");
    assert!(vm.guard_exits >= guards, "{what}: {vm:?}");
    execute(img, install, &mut NoIo)
}

fn exception(out: &RunOutput) -> &str {
    match &out.termination {
        gridvm::Termination::Exception { name, .. } => name,
        other => panic!("expected an exception, got {other:?}"),
    }
}

#[test]
fn an_accumulator_living_on_the_stack_is_read_from_the_real_stack() {
    // acc is pushed before the loop and only ever lives on the operand
    // stack: every circuit pops a value the trace never pushed.
    let head = 3;
    let img = ProgramImage::single(
        "stack-acc",
        2,
        vec![
            Instr::Push(0),        // 0  i = 0
            Instr::Store(1),       // 1
            Instr::Push(1000),     // 2  acc, on the stack
            Instr::Load(1),        // 3  loop:
            Instr::Push(200),      // 4
            Instr::CmpLt,          // 5
            Instr::JumpIfZero(16), // 6
            Instr::Load(1),        // 7
            Instr::Add,            // 8  acc += i   (pops the real stack)
            Instr::Dup,            // 9
            Instr::Store(0),       // 10 keep a copy in a local
            Instr::Load(1),        // 11
            Instr::Push(1),        // 12
            Instr::Add,            // 13
            Instr::Store(1),       // 14
            Instr::Jump(head),     // 15
            Instr::Print,          // 16 prints acc off the stack
            Instr::Halt,           // 17
        ],
    );
    verify(&img).unwrap();
    let out = hazard("stack accumulator", &img, &Installation::healthy(), 0);
    assert_eq!(out.stdout, format!("{}\n", 1000 + 199 * 200 / 2));
    // Fuel dry mid-trace, with the accumulator in a temp.
    for fuel in 100..130 {
        let tight = Installation::healthy().with_fuel(fuel);
        agree(
            "stack accumulator, tight",
            &img,
            &tight,
            TraceConfig::eager(),
            None,
        );
    }
}

#[test]
fn a_pending_load_survives_a_store_to_its_local() {
    // Fibonacci by `a, b = b, a + b`, written so that `Load b` is still
    // on the stack when b is stored to.
    let img = counted_loop(
        vec![Instr::Push(1), Instr::Store(3)], // b = 1 (a is local 0)
        60,
        vec![
            Instr::Load(3),  // old b, pending
            Instr::Load(0),  //
            Instr::Load(3),  //
            Instr::Add,      // a + b
            Instr::Store(3), // b = a + b   <- overwrites a pending local
            Instr::Store(0), // a = old b
        ],
    );
    let out = hazard("pending load", &img, &Installation::healthy(), 0);
    assert_eq!(out.stdout, "1548008755920\n"); // fib(60)
}

#[test]
fn dup_swap_pop_chains_only_move_names() {
    let img = counted_loop(
        vec![],
        300,
        vec![
            Instr::Load(0),  // acc
            Instr::Dup,      // acc acc
            Instr::Load(1),  // acc acc i
            Instr::Swap,     // acc i acc
            Instr::Pop,      // acc i
            Instr::Dup,      // acc i i
            Instr::Mul,      // acc i*i
            Instr::Swap,     // i*i acc
            Instr::Sub,      // i*i - acc
            Instr::Push(9),  // .. 9
            Instr::Dup,      // .. 9 9
            Instr::Pop,      // .. 9
            Instr::Swap,     // 9 ..
            Instr::Store(0), // acc = i*i - acc
            Instr::Pop,      //
        ],
    );
    let out = hazard("dup/swap/pop", &img, &Installation::healthy(), 0);
    let acc = (0..300i64).fold(0, |acc, i| i * i - acc);
    assert_eq!(out.stdout, format!("{acc}\n"));
}

/// A loop body that evaluates `acc + (i + <faulting expression>)`: when
/// the guard fires, acc and i are pending below its operands.
fn guarded(prologue: Vec<Instr>, faulting: Vec<Instr>) -> ProgramImage {
    let mut body = vec![Instr::Load(0), Instr::Load(1)];
    body.extend(faulting);
    body.extend([Instr::Add, Instr::Add, Instr::Store(0)]);
    counted_loop(prologue, 64, body)
}

#[test]
fn every_guard_class_restores_pending_values() {
    let healthy = Installation::healthy();
    let array = vec![Instr::Push(20), Instr::NewArray, Instr::Store(2)];

    // 100 / (i - 25)
    let div = guarded(
        vec![],
        vec![
            Instr::Push(100),
            Instr::Load(1),
            Instr::Push(25),
            Instr::Sub,
            Instr::Div,
        ],
    );
    let out = hazard("div by zero", &div, &healthy, 1);
    assert_eq!(exception(&out), "ArithmeticException");

    // 100 % (i - 25)
    let rem = guarded(
        vec![],
        vec![
            Instr::Push(100),
            Instr::Load(1),
            Instr::Push(25),
            Instr::Sub,
            Instr::Mod,
        ],
    );
    let out = hazard("mod by zero", &rem, &healthy, 1);
    assert_eq!(exception(&out), "ArithmeticException");

    // arr[i] with 20 elements
    let bounds = guarded(
        array.clone(),
        vec![Instr::Load(2), Instr::Load(1), Instr::ALoad],
    );
    let out = hazard("bounds", &bounds, &healthy, 1);
    assert_eq!(exception(&out), "ArrayIndexOutOfBoundsException");

    // arr[i] = i walks off the end too, with three operands of its own
    let store = counted_loop(
        array.clone(),
        64,
        vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::Load(2),
            Instr::Load(1),
            Instr::Load(1),
            Instr::AStore,
            Instr::Add,
            Instr::Store(0),
        ],
    );
    let out = hazard("store bounds", &store, &healthy, 1);
    assert_eq!(exception(&out), "ArrayIndexOutOfBoundsException");

    // len(arr * (1 - (i == 30))): the handle is null on circuit 30
    let null = guarded(
        array,
        vec![
            Instr::Load(2),
            Instr::Push(1),
            Instr::Load(1),
            Instr::Push(30),
            Instr::CmpEq,
            Instr::Sub,
            Instr::Mul,
            Instr::ALen,
        ],
    );
    let out = hazard("null", &null, &healthy, 1);
    assert_eq!(exception(&out), "NullPointerException");

    // len(new[64]) on a heap of 1024 words
    let alloc = guarded(vec![], vec![Instr::Push(64), Instr::NewArray, Instr::ALen]);
    let small = Installation::healthy().with_heap_limit(1 << 10);
    let out = hazard("heap limit", &alloc, &small, 1);
    assert_eq!(out.termination.scope(), errorscope::Scope::VirtualMachine);

    // new[20 - i]
    let negative = guarded(
        vec![],
        vec![
            Instr::Push(20),
            Instr::Load(1),
            Instr::Sub,
            Instr::NewArray,
            Instr::ALen,
        ],
    );
    let out = hazard("negative size", &negative, &healthy, 1);
    assert_eq!(exception(&out), "NegativeArraySizeException");

    // isqrt(20 - i)
    let isqrt = guarded(
        vec![],
        vec![
            Instr::Push(20),
            Instr::Load(1),
            Instr::Sub,
            Instr::StdCall(2),
        ],
    );
    let out = hazard("isqrt of a negative", &isqrt, &healthy, 1);
    assert_eq!(exception(&out), "ArithmeticException");

    // The standard library vanishes under a warm trace: the same machine
    // goes on under a broken installation.
    let abs = guarded(vec![], vec![Instr::Load(1), Instr::StdCall(0)]);
    let broken = Installation::missing_stdlib();
    let swap = Some((400, &broken));
    let vm = agree(
        "stdlib vanishes",
        &abs,
        &healthy,
        TraceConfig::eager(),
        swap,
    );
    assert!(vm.traces_compiled >= 1 && vm.guard_exits >= 1, "{vm:?}");
}

#[test]
fn a_branch_side_exit_carries_pending_values_out() {
    // acc and i are pending across a branch that diverges on every
    // seventh circuit; both arms consume them.
    let img = counted_loop(
        vec![],
        200,
        vec![
            Instr::Load(0),       // 0  acc
            Instr::Load(1),       // 1  acc i
            Instr::Load(1),       // 2
            Instr::Push(7),       // 3
            Instr::Mod,           // 4
            Instr::JumpIfZero(9), // 5  diverges with two values pending
            Instr::Add,           // 6  acc + i
            Instr::Store(0),      // 7
            Instr::Jump(11),      // 8
            Instr::Sub,           // 9  acc - i
            Instr::Store(0),      // 10
        ],
    );
    let out = hazard("side exit", &img, &Installation::healthy(), 0);
    let acc = (0..200i64).fold(0, |acc, i| if i % 7 == 0 { acc - i } else { acc + i });
    assert_eq!(out.stdout, format!("{acc}\n"));
}

#[test]
fn a_trace_too_big_for_the_register_file_is_blacklisted_not_truncated() {
    // 300 values alive at once: more than the register file holds.
    let mut body = Vec::new();
    for _ in 0..300 {
        body.extend([Instr::Load(1), Instr::Neg]);
    }
    body.extend([Instr::Add; 299]);
    body.extend([Instr::Load(0), Instr::Add, Instr::Store(0)]);
    let img = counted_loop(vec![], 50, body);
    let roomy = TraceConfig {
        max_trace_len: 4096,
        ..TraceConfig::eager()
    };
    let install = Installation::healthy();
    let vm = agree("register pressure", &img, &install, roomy, None);
    assert!(vm.traces_recorded >= 1, "{vm:?}");
    assert_eq!((vm.traces_compiled, vm.compiled_instructions), (0, 0));
    // A body that fits compiles under the same configuration.
    let mut body = Vec::new();
    for _ in 0..200 {
        body.extend([Instr::Load(1), Instr::Neg]);
    }
    body.extend([Instr::Add; 199]);
    body.extend([Instr::Load(0), Instr::Add, Instr::Store(0)]);
    let img = counted_loop(vec![], 50, body);
    let vm = agree("register pressure, fits", &img, &install, roomy, None);
    assert_eq!(vm.traces_compiled, 1, "{vm:?}");
}

// ---------------------------------------------------------------------
// Recorded constants: the machine's layout may move, its bytes may not
// ---------------------------------------------------------------------

/// Fold `bytes` into the running FNV-1a `h`.
fn fold(h: &mut u64, bytes: &[u8]) {
    let mut buf = h.to_le_bytes().to_vec();
    buf.extend_from_slice(bytes);
    *h = ckpt::fnv1a(&buf);
}

/// The ledger's five installation arms.
fn arms(seed: u64) -> [Installation; 5] {
    [
        Installation::healthy(),
        Installation::missing_stdlib(),
        Installation::healthy().with_heap_limit(1 << 12),
        Installation::healthy().with_fuel(500 + seed * 7919 % 4000),
        Installation::bad_path(),
    ]
}

/// `main` → `scale` → `sum` → `fold7`, thirty times over: every frame
/// has locals of its own, `sum`'s loop gets hot (at a threshold of 16,
/// two calls in), and a cut every 97 instructions lands at every depth.
fn call_chain() -> ProgramImage {
    use gridvm::Function;
    let function = |name: &str, max_locals, args, rets, code| Function {
        name: name.into(),
        max_locals,
        args,
        rets,
        code,
    };
    let img = ProgramImage {
        entry: 0,
        functions: vec![
            function(
                "main",
                2,
                0,
                0,
                vec![
                    Instr::Push(0),        // 0: acc = 0
                    Instr::Store(0),       // 1
                    Instr::Push(0),        // 2: i = 0
                    Instr::Store(1),       // 3
                    Instr::Load(1),        // 4: while i < 30
                    Instr::Push(30),       // 5
                    Instr::CmpLt,          // 6
                    Instr::JumpIfZero(19), // 7
                    Instr::Load(0),        // 8: acc += scale(i)
                    Instr::Load(1),        // 9
                    Instr::Call(1),        // 10
                    Instr::Add,            // 11
                    Instr::Store(0),       // 12
                    Instr::Load(1),        // 13: i += 1
                    Instr::Push(1),        // 14
                    Instr::Add,            // 15
                    Instr::Store(1),       // 16
                    Instr::Jump(4),        // 17
                    Instr::Halt,           // 18: (never reached)
                    Instr::Load(0),        // 19
                    Instr::Print,          // 20
                ],
            ),
            function(
                "scale",
                1,
                1,
                1,
                vec![
                    Instr::Store(0), // x
                    Instr::Load(0),
                    Instr::Push(3),
                    Instr::Mul,
                    Instr::Call(2),
                    Instr::Load(0),
                    Instr::Add,
                    Instr::Ret,
                ],
            ),
            function(
                "sum",
                3,
                1,
                1,
                vec![
                    Instr::Store(0),       // 0: n
                    Instr::Push(0),        // 1: j = 0
                    Instr::Store(1),       // 2
                    Instr::Load(1),        // 3: while j < 9
                    Instr::Push(9),        // 4
                    Instr::CmpLt,          // 5
                    Instr::JumpIfZero(19), // 6
                    Instr::Load(2),        // 7: s += fold7(n + j)
                    Instr::Load(0),        // 8
                    Instr::Load(1),        // 9
                    Instr::Add,            // 10
                    Instr::Call(3),        // 11
                    Instr::Add,            // 12
                    Instr::Store(2),       // 13
                    Instr::Load(1),        // 14: j += 1
                    Instr::Push(1),        // 15
                    Instr::Add,            // 16
                    Instr::Store(1),       // 17
                    Instr::Jump(3),        // 18
                    Instr::Load(2),        // 19
                    Instr::Ret,            // 20
                ],
            ),
            // Falls off its end: the implicit return.
            function(
                "fold7",
                1,
                1,
                1,
                vec![
                    Instr::Store(0),
                    Instr::Load(0),
                    Instr::Load(0),
                    Instr::Mul,
                    Instr::Push(7),
                    Instr::Mod,
                ],
            ),
        ],
        strings: vec![],
    };
    verify(&img).expect("call chain verifies");
    img
}

/// What the job path hands the starter, what the tier counted on the way
/// and what a checkpoint holds, as recorded by running this same test
/// body on the parent of the PR that moved the interpreter's frame into
/// locals (flat locals arena, operand stack depth over a pre-sized
/// buffer): neither the arena nor the slack above the stack depth may
/// reach an output or a checkpoint. The hot threshold is spelled out —
/// it was the parent's default — so the tier's counters are the parent's
/// whatever the default has moved to since.
#[test]
fn outputs_and_checkpoints_equal_the_recorded_ones() {
    use gridvm::run_wrapped;
    const RECORDED_OUTPUTS: u64 = 0xf965_9126_7fe3_95f5;
    const RECORDED_TIER: u64 = 0x8756_7454_ff36_0761;
    const RECORDED_CHECKPOINTS: u64 = 0x7f7b_b4db_03e2_2b1c;
    let at_16 = TraceConfig {
        hot_threshold: 16,
        ..TraceConfig::default()
    };

    let (mut outputs, mut tier) = (0, 0);
    for seed in 0..2000 {
        let bytes = programs::generate(seed);
        for install in arms(seed) {
            let w = run_wrapped(&bytes, &install.with_trace(at_16), &mut NoIo);
            fold(&mut outputs, &w.jvm_exit.0.to_le_bytes());
            fold(&mut outputs, w.result_file_bytes.as_bytes());
            fold(&mut outputs, w.stdout.as_bytes());
            fold(&mut outputs, &w.instructions.to_le_bytes());
            let vm = [
                w.vm.traces_recorded,
                w.vm.traces_compiled,
                w.vm.guard_exits,
                w.vm.compiled_instructions,
            ];
            for n in vm {
                fold(&mut tier, &n.to_le_bytes());
            }
        }
    }

    let load = |bytes: Vec<u8>| ProgramImage::from_bytes(&bytes).expect("loads");
    let mut images: Vec<ProgramImage> = (0..200).map(|s| load(programs::generate(s))).collect();
    images.push(load(programs::cpu_bound(300)));
    images.push(load(programs::heap_sum(150)));
    images.push(call_chain());
    let install = Installation::healthy();
    let (mut checkpoints, mut cuts) = (0, 0);
    for (i, img) in images.iter().enumerate() {
        let digest = ckpt::fnv1a(&img.to_bytes());
        let straight = execute(img, &install, &mut NoIo);
        let every_97 = [Some(97)];
        let what = format!("recorded image {i}");
        walk(&what, img, &install, at_16, None, &every_97, |cut| {
            fold(&mut checkpoints, cut);
            cuts += 1;
            let state = ckpt::MachineState::from_bytes(cut).expect("decodes");
            let mut back = Machine::restore(state, img, digest).expect("restores");
            let finished = back.run(img, &install, &mut NoIo, None);
            assert_eq!(finished.as_ref(), Some(&straight), "{what}, cut {cuts}");
        });
    }
    assert!(cuts > 900, "only {cuts} cuts");
    assert_eq!(
        (outputs, tier, checkpoints),
        (RECORDED_OUTPUTS, RECORDED_TIER, RECORDED_CHECKPOINTS),
        "got ({outputs:#018x}, {tier:#018x}, {checkpoints:#018x})"
    );
}
