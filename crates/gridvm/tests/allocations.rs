//! The per-job path's allocation diet, held by counts.
//!
//! A counting global allocator (`propcheck::counting`: in a test crate, so
//! the library keeps `forbid(unsafe_code)`) counts what the calling thread
//! requests.
//! The counts are a function of the code and the inputs, not of the host,
//! so the budgets below gate anywhere, and are exact.

use gridvm::image::MAGIC;
use gridvm::jvmio::NoIo;
use gridvm::{
    execute, programs, run_wrapped, verify, Function, ImageError, Installation, Instr,
    ProgramImage, TraceConfig,
};
use propcheck::counting::{allocated, retained, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

mod arms;
use arms::arms;

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
    // Allocations over the 2,000 jobs, by installation arm: means of
    // 16119 / 2000 = 8.06, 14597 / 2000 = 7.30, 15978 / 2000 = 7.99,
    // 16062 / 2000 = 8.03 and 14000 / 2000 = 7.00 a job. With a thread's
    // machine, image and depth array each starting on the last one's
    // buffers, what is left is what a job hands back — the result file
    // and its journey, stdout, an exception's text — and the traces it
    // compiles (23.27, 20.72, 23.27, 23.08 and 7.00 when each job
    // allocated its own heap arrays, frame buffers and load scratch;
    // 39.61, 33.16, 39.61, 38.97 and 8.00 before the trace tier recycled
    // its buffers).
    const TOTALS: [u64; 5] = [16119, 14597, 15978, 16062, 14000];
    let images: Vec<Vec<u8>> = (0..SEEDS).map(programs::generate).collect();
    // Working memory passes from one job of a thread to the next; the
    // first has none to inherit.
    run_wrapped(&images[0], &Installation::healthy(), &mut NoIo);

    let mut totals = [0u64; 5];
    for (seed, image) in (0..).zip(&images) {
        for (total, (_, install)) in totals.iter_mut().zip(arms(seed)) {
            *total += allocated(|| run_wrapped(image, &install, &mut NoIo)).1;
        }
    }
    let means = totals.map(|total| total as f64 / SEEDS as f64);
    assert_eq!(totals, TOTALS, "{means:.2?} allocations per job");
}

/// `for i in 0..k { new long[8] }`: `k` arrays, all live to the end.
fn k_arrays(k: i64) -> Vec<u8> {
    use Instr::*;
    let code = vec![
        Push(0),
        Store(0),
        Load(0), // 2: while i < k
        Push(k),
        CmpLt,
        JumpIfZero(14),
        Push(8),
        NewArray,
        Pop,
        Load(0), // i += 1
        Push(1),
        Add,
        Store(0),
        Jump(2),
        Halt, // 14
    ];
    ProgramImage::single("k-arrays", 1, code).to_bytes()
}

#[test]
fn a_warm_thread_allocates_no_more_for_more_arrays() {
    let install = Installation::healthy();
    let run = |k| allocated(|| run_wrapped(&k_arrays(k), &install, &mut NoIo)).1;
    let cold = run(64);
    let (four, sixty_four) = (run(4), run(64));
    // The image bytes themselves are the test's: counted on both sides.
    assert_eq!(four, sixty_four, "k = 4: {four}, k = 64: {sixty_four}");
    assert!(cold >= sixty_four + 64, "cold {cold}, warm {sixty_four}");
}

/// The most a thread keeps of any one kind of a job's working memory —
/// its arrays together, each frame buffer, its decoded image, its
/// verifier depths: `SPARE_BYTES` in `gridvm::machine`.
const SPARE_BYTES: i64 = 16 << 10;

#[test]
fn a_megabyte_array_is_freed_not_kept() {
    let install = Installation::healthy().with_fuel(u64::MAX);
    let image = programs::heap_sum(200_000);
    let (instructions, kept) = retained(|| run_wrapped(&image, &install, &mut NoIo).instructions);
    assert!(instructions > 1_000_000, "{instructions}");
    assert!(kept <= SPARE_BYTES, "the thread kept {kept} bytes");
    // And a warm thread keeps nothing more.
    let (_, again) = retained(|| run_wrapped(&image, &install, &mut NoIo).instructions);
    assert_eq!(again, 0);
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
    // A thread keeps its last depth array, so an image allocates one —
    // exactly as long as its longest function — only when that function
    // is longer than every one this thread verified before.
    let mut longest_yet = 0;
    for seed in 0..SEEDS {
        let img = ProgramImage::from_bytes(&programs::generate(seed)).expect("loads");
        let (verdict, allocations, bytes) = allocated(|| verify(&img));
        verdict.expect("generated programs verify");
        let longest = img.functions.iter().map(|f| f.code.len()).max().unwrap();
        let grew = if longest > longest_yet {
            (1, 8 * longest as u64)
        } else {
            (0, 0)
        };
        longest_yet = longest_yet.max(longest);
        assert_eq!((allocations, bytes), grew, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Hostile images: refused before anything is sized by what they claim
// ---------------------------------------------------------------------

/// Re-sum `body`: the decoder, not the checksum, is what is under test.
/// (`ckpt::body_sum` is the image format's own sum — the valid images
/// below would not load otherwise.)
fn summed(body: &[u8]) -> Vec<u8> {
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&ckpt::body_sum(body).to_le_bytes());
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
    // `GVM2`, entry 0, one function named "", 1 local, no args, no rets,
    // and a code length of u32::MAX: 27 bytes with a matching sum.
    let mut code_length = MAGIC.to_vec();
    code_length.extend_from_slice(&[0, 0, 1, 0]);
    code_length.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0]);
    code_length.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(summed(&code_length).len(), 27);
    // Its siblings, one per count: functions, a name's length, strings, a
    // string's length.
    let functions = [&MAGIC[..], &[0, 0, 0xff, 0xff]].concat();
    let name_length = [&MAGIC[..], &[0, 0, 1, 0], &u32::MAX.to_le_bytes()].concat();
    let no_functions = [&MAGIC[..], &[0, 0, 0, 0]].concat();
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

/// Three valid images: one with I/O and a string table, one generated,
/// and one with two functions and an unused string.
fn three_images() -> [(&'static str, Vec<u8>); 3] {
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
    [
        ("reads_and_writes", programs::reads_and_writes()),
        ("generate(7)", programs::generate(7)),
        ("two functions", two_functions.to_bytes()),
    ]
}

#[test]
fn every_prefix_and_every_bit_flip_of_a_valid_image_loads_or_is_refused() {
    let (mut loaded, mut refused) = (0, 0);
    for (name, bytes) in three_images() {
        let body = &bytes[..bytes.len() - 8];
        assert_eq!(summed(body), bytes, "{name}: the image sum is ckpt's");
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

// ---------------------------------------------------------------------
// Format version 2: the checkpoint format's sum, at exact size
// ---------------------------------------------------------------------

#[test]
fn every_single_bit_flip_of_a_v2_image_is_refused_before_it_allocates() {
    for (name, bytes) in three_images() {
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let (loaded, allocations, _) = allocated(|| ProgramImage::from_bytes(&flipped));
            // A flip in the magic is no image at all; anywhere else —
            // the sum's own eight bytes included — the sum catches it.
            let expected = if bit < 8 * MAGIC.len() {
                ImageError::BadMagic
            } else {
                ImageError::ChecksumMismatch
            };
            assert_eq!(loaded, Err(expected), "{name} bit {bit}");
            assert_eq!(allocations, 0, "{name} bit {bit}");
        }
    }
}

/// `bytes` as format version 1 wrote it: the same fields under `GVM1`
/// and a byte-wise FNV-1a sum.
fn as_version_1(bytes: &[u8]) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    body[..4].copy_from_slice(b"GVM1");
    let sum = ckpt::fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

#[test]
fn a_version_1_image_is_job_scope_and_runs_nothing() {
    for (name, bytes) in three_images() {
        let old = as_version_1(&bytes);
        assert_eq!(
            ProgramImage::from_bytes(&old),
            Err(ImageError::BadMagic),
            "{name}"
        );
        let w = run_wrapped(&old, &Installation::healthy(), &mut NoIo);
        assert_eq!(w.result_file.scope(), errorscope::Scope::Job, "{name}");
        assert_eq!(w.instructions, 0, "{name}");
        assert!(w.stdout.is_empty(), "{name}");
    }
}

#[test]
fn an_image_is_encoded_into_one_allocation_of_its_own_size() {
    let builders = [
        ("completes_main", programs::completes_main()),
        ("calls_exit", programs::calls_exit(3)),
        ("null_dereference", programs::null_dereference()),
        ("index_out_of_bounds", programs::index_out_of_bounds()),
        ("exhausts_memory", programs::exhausts_memory()),
        ("uses_stdlib", programs::uses_stdlib()),
        ("reads_and_writes", programs::reads_and_writes()),
        ("corrupt_image", programs::corrupt_image()),
        ("cpu_bound", programs::cpu_bound(1000)),
        ("heap_sum", programs::heap_sum(1000)),
        ("throws_user_exception", programs::throws_user_exception()),
    ];
    for (name, bytes) in builders {
        assert_eq!(bytes.capacity(), bytes.len(), "{name}");
    }
    for seed in 0..SEEDS {
        let bytes = programs::generate(seed);
        assert_eq!(bytes.capacity(), bytes.len(), "generate({seed})");
        // One allocation, the bytes' own.
        let img = ProgramImage::from_bytes(&bytes).expect("loads");
        let (again, allocations, requested) = allocated(|| img.to_bytes());
        assert_eq!(again, bytes, "generate({seed})");
        assert_eq!(
            (allocations, requested),
            (1, bytes.len() as u64),
            "generate({seed})"
        );
    }
}

#[test]
fn an_installation_allocates_nothing() {
    for (name, make) in [
        ("healthy", Installation::healthy as fn() -> Installation),
        ("bad_path", Installation::bad_path),
        ("missing_stdlib", Installation::missing_stdlib),
    ] {
        let (install, allocations, _) = allocated(make);
        assert_eq!(allocations, 0, "{name}");
        // Nor does a copy of one (what a startd hands a direct universe).
        let (_, allocations, _) = allocated(|| install.clone());
        assert_eq!(allocations, 0, "{name} cloned");
    }
}
