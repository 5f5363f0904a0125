//! The per-job path's allocation diet, held by counts.
//!
//! A counting global allocator (`propcheck::counting`: in a test crate, so
//! the library keeps `forbid(unsafe_code)`) counts what the calling thread
//! requests.
//! The counts are a function of the code and the inputs, not of the host,
//! so the budgets below gate anywhere: each is the figure the path
//! achieves today plus a tenth.

use gridvm::jvmio::NoIo;
use gridvm::{
    execute, programs, run_wrapped, verify, Function, ImageError, Installation, Instr,
    ProgramImage, TraceConfig,
};
use propcheck::counting::{allocated, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The ledger's five installation arms.
fn arms(seed: u64) -> [(&'static str, Installation); 5] {
    [
        ("healthy", Installation::healthy()),
        ("missing-stdlib", Installation::missing_stdlib()),
        (
            "small-heap",
            Installation::healthy().with_heap_limit(1 << 12),
        ),
        (
            "tight-fuel",
            Installation::healthy().with_fuel(500 + seed * 7919 % 4000),
        ),
        ("bad-path", Installation::bad_path()),
    ]
}

/// `for i in 0..18 { acc += i; acc %= 7 }`: one loop, one trace.
fn one_hot_loop() -> ProgramImage {
    use Instr::*;
    let code = vec![
        Push(0),
        Store(0),
        Push(0),
        Store(1),
        Load(1), // 4: while i < 18
        Push(18),
        CmpLt,
        JumpIfZero(21),
        Load(0), // acc += i
        Load(1),
        Add,
        Store(0),
        Load(0), // acc %= 7
        Push(7),
        Mod,
        Store(0),
        Load(1), // i += 1
        Push(1),
        Add,
        Store(1),
        Jump(4),
        Halt, // 21
    ];
    let img = ProgramImage::single("one-hot-loop", 2, code);
    verify(&img).expect("verifies");
    img
}

const SEEDS: u64 = 2000;

#[test]
fn a_job_stays_on_its_allocation_diet() {
    // Mean allocations per job, by installation arm: the 23.27, 20.72,
    // 23.27, 23.08 and 7.00 achieved (39.61, 33.16, 39.61, 38.97 and 8.00
    // before the diet, compiling half as many traces), plus a tenth.
    const BUDGET: [f64; 5] = [25.6, 22.8, 25.6, 25.4, 7.7];
    let images: Vec<Vec<u8>> = (0..SEEDS).map(programs::generate).collect();
    // The trace tier's buffers pass from one machine of a thread to the
    // next; the first has none to inherit.
    run_wrapped(&images[0], &Installation::healthy(), &mut NoIo);

    let mut totals = [0u64; 5];
    for (seed, image) in (0..).zip(&images) {
        for (total, (_, install)) in totals.iter_mut().zip(arms(seed)) {
            *total += allocated(|| run_wrapped(image, &install, &mut NoIo)).1;
        }
    }
    let means = totals.map(|total| total as f64 / SEEDS as f64);
    for ((mean, budget), (arm, _)) in means.iter().zip(BUDGET).zip(arms(0)) {
        assert!(*mean <= budget, "{arm}: {means:.2?} allocations per job");
    }
}

#[test]
fn a_trace_costs_at_most_four_allocations() {
    let on = Installation::healthy();
    let off = Installation::healthy().with_trace(TraceConfig::off());
    let hot = one_hot_loop();
    execute(&hot, &on, &mut NoIo); // this thread's first machine
    let (traced, with_tier, _) = allocated(|| execute(&hot, &on, &mut NoIo));
    let (_, without, _) = allocated(|| execute(&hot, &off, &mut NoIo));
    assert_eq!(traced.vm.traces_compiled, 1);
    assert!(
        with_tier - without <= 4,
        "{with_tier} allocations with the tier on, {without} off"
    );

    // And over the corpus, everything the tier allocates — head table,
    // recording, lowering scratch, the traces themselves — per trace it
    // compiles: the trace's own four vectors at most (an empty one is no
    // allocation), where it was 13 allocations for each.
    let (mut extra, mut traces) = (0, 0);
    for seed in 0..SEEDS {
        let img = ProgramImage::from_bytes(&programs::generate(seed)).expect("loads");
        let (out, with_tier, _) = allocated(|| execute(&img, &on, &mut NoIo));
        let (_, without, _) = allocated(|| execute(&img, &off, &mut NoIo));
        extra += with_tier - without;
        traces += out.vm.traces_compiled;
    }
    assert!(traces > 1000, "only {traces} traces compiled");
    assert!(
        extra <= 4 * traces,
        "{extra} allocations for {traces} traces"
    );
}

#[test]
fn the_verifier_allocates_its_depth_array_and_nothing_else() {
    for seed in 0..SEEDS {
        let img = ProgramImage::from_bytes(&programs::generate(seed)).expect("loads");
        let (verdict, allocations, bytes) = allocated(|| verify(&img));
        verdict.expect("generated programs verify");
        let longest = img.functions.iter().map(|f| f.code.len()).max().unwrap();
        assert_eq!((allocations, bytes), (1, 8 * longest as u64), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Hostile images: refused before anything is sized by what they claim
// ---------------------------------------------------------------------

/// Re-sum `body`: the decoder, not the checksum, is what is under test.
/// (`ckpt::fnv1a` is the image checksum's own FNV-1a — the valid images
/// below would not load otherwise.)
fn summed(body: &[u8]) -> Vec<u8> {
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&ckpt::fnv1a(body).to_le_bytes());
    bytes
}

/// Decode under the allocation bound — 32 bytes per byte of input and a
/// page — and, whatever decodes, on through the verifier and 10⁴
/// instructions of execution: every stage ends in a value, never a panic.
fn load(bytes: &[u8], what: &str) -> Result<ProgramImage, ImageError> {
    let (loaded, _, requested) = allocated(|| ProgramImage::from_bytes(bytes));
    let bound = 32 * bytes.len() as u64 + 4096;
    assert!(
        requested <= bound,
        "{what}: decoding {} bytes requested {requested}",
        bytes.len()
    );
    if let Ok(img) = &loaded {
        if verify(img).is_ok() {
            let install = Installation::healthy()
                .with_fuel(10_000)
                .with_heap_limit(1 << 12);
            let out = execute(img, &install, &mut NoIo);
            assert!(out.instructions <= 10_000, "{what}");
            let _scoped = out.termination.scope();
        }
    }
    loaded
}

#[test]
fn a_count_the_bytes_cannot_back_is_truncation_before_allocation() {
    // `GVM1`, entry 0, one function named "", 1 local, no args, no rets,
    // and a code length of u32::MAX: 27 bytes with a matching sum.
    let mut code_length = b"GVM1".to_vec();
    code_length.extend_from_slice(&[0, 0, 1, 0]);
    code_length.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0]);
    code_length.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(summed(&code_length).len(), 27);
    // Its siblings, one per count: functions, a name's length, strings, a
    // string's length.
    let functions = [&b"GVM1"[..], &[0, 0, 0xff, 0xff]].concat();
    let name_length = [&b"GVM1"[..], &[0, 0, 1, 0], &u32::MAX.to_le_bytes()].concat();
    let no_functions = [&b"GVM1"[..], &[0, 0, 0, 0]].concat();
    let strings = [&no_functions[..], &[0xff, 0xff]].concat();
    let string_length = [&no_functions[..], &[1, 0], &u32::MAX.to_le_bytes()].concat();
    for (what, body) in [
        ("code length", code_length),
        ("function count", functions),
        ("name length", name_length),
        ("string count", strings),
        ("string length", string_length),
    ] {
        let bytes = summed(&body);
        assert_eq!(load(&bytes, what), Err(ImageError::Truncated), "{what}");
        // The wrapper turns it into Figure 4's last row: job scope.
        let w = run_wrapped(&bytes, &Installation::healthy(), &mut NoIo);
        assert_eq!(w.result_file.scope(), errorscope::Scope::Job, "{what}");
        assert_eq!(w.instructions, 0, "{what}");
    }
}

#[test]
fn every_prefix_and_every_bit_flip_of_a_valid_image_loads_or_is_refused() {
    let two_functions = ProgramImage {
        entry: 0,
        functions: vec![
            Function {
                name: "main".into(),
                max_locals: 1,
                args: 0,
                rets: 0,
                code: vec![Instr::Push(20), Instr::Call(1), Instr::Print, Instr::Halt],
            },
            Function {
                name: "twice".into(),
                max_locals: 0,
                args: 1,
                rets: 1,
                code: vec![Instr::Dup, Instr::Add, Instr::Ret],
            },
        ],
        strings: vec!["unused.txt".into()],
    };
    let images = [
        ("reads_and_writes", programs::reads_and_writes()),
        ("generate(7)", programs::generate(7)),
        ("two functions", two_functions.to_bytes()),
    ];
    let (mut loaded, mut refused) = (0, 0);
    for (name, bytes) in images {
        let body = &bytes[..bytes.len() - 8];
        assert_eq!(summed(body), bytes, "{name}: the image sum is FNV-1a");
        load(&bytes, name).expect("valid image loads");
        let mut tally = |outcome: Result<ProgramImage, ImageError>| match outcome {
            Ok(_) => loaded += 1,
            Err(_) => refused += 1,
        };
        for cut in 0..body.len() {
            tally(load(&summed(&body[..cut]), &format!("{name} cut at {cut}")));
            // And the bare prefix, sum and all: too short or mis-summed.
            assert!(load(&bytes[..cut], name).is_err(), "{name} cut at {cut}");
        }
        for bit in 0..body.len() * 8 {
            let mut flipped = body.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            tally(load(&summed(&flipped), &format!("{name} bit {bit}")));
        }
    }
    // Both ways out are taken: a flipped operand still loads, a flipped
    // count or opcode does not.
    assert!(
        loaded > 500 && refused > 500,
        "{loaded} loaded, {refused} refused"
    );
}
