//! Experiment E14 — the trace-compiled gridvm: flattened guard-checked
//! hot loops with bit-identical error-scope semantics.
//!
//! The trace tier records hot bytecode loops and replays them as
//! register programs whose only error behavior is a *guard exit*:
//! a bail back to the interpreter at the exact faulting pc, before the
//! faulting instruction, so the interpreter re-executes it and produces
//! the identical scoped [`gridvm::Termination`] it always would. This
//! experiment gates that claim three ways:
//!
//! 1. **Differential corpus.** Every seed of the shared random-program
//!    generator ([`gridvm::programs::generate`]) runs twice — trace tier
//!    off vs. eager — under a seed-derived installation arm (healthy,
//!    missing stdlib, small heap, tight fuel, broken path) and I/O arm
//!    (no I/O, Chirp-over-MemFs, Chirp that goes offline mid-run). The
//!    two runs must agree on termination, stdout, instruction count, and
//!    the escaping error. A fixed set of **forced adversarial cases**
//!    guarantees every guard class fires mid-trace regardless of what the
//!    corpus samples: division by zero, out-of-bounds, null dereference,
//!    user throw, heap exhaustion, fuel exhaustion, a broken install
//!    under `StdCall`, and the home file system going offline between
//!    loop iterations.
//! 2. **Checkpoint interaction.** Budget-suspended machines snapshot
//!    byte-identically whether the host compiled traces or not (trace
//!    state is never checkpointed), and a snapshot taken on either host
//!    resumes to the same result on either host.
//! 3. **Hot-loop throughput.** The compiled tier must run the canonical
//!    arithmetic loop at ≥3x the interpreter's rate (gated in the full
//!    study; reported in smoke).
//!
//! Artifacts: `BENCH_gridvm.json` — a `deterministic` core (two passes
//! must serialize byte-identically) plus a `throughput` section
//! (wall-clock, excluded from the two-pass gate).
//!
//! Run with: `cargo run --release -p bench --bin exp -- e14`
//! (pass `--smoke` for the CI-sized study).

use crate::harness::{artifact, drive, Artifact, Size};
use crate::{f, render_table};
use chirp::backend::{EnvFault, MemFs};
use chirp::cookie::Cookie;
use chirp::server::ChirpServer;
use chirp::transport::DirectTransport;
use chirp::ChirpClient;
use ckpt::fnv1a;
use gridvm::jvmio::{ChirpJobIo, NoIo};
use gridvm::machine::{load_and_run, Machine, RunOutput, Termination};
use gridvm::programs::{self, Counted};
use gridvm::{Installation, Instr, IoMode, ProgramImage, TraceConfig};
use std::collections::BTreeMap;

/// SplitMix64 finalizer: derives the per-seed arm choices without
/// perturbing the program generator's own stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Arms: installation and I/O environments, derived from the seed
// ---------------------------------------------------------------------

fn install_arm(k: u64) -> (&'static str, Installation) {
    match k % 6 {
        0 | 1 => ("healthy", Installation::healthy()),
        2 => ("missing-stdlib", Installation::missing_stdlib()),
        3 => (
            "small-heap",
            Installation::healthy().with_heap_limit(1 << 12),
        ),
        4 => (
            "tight-fuel",
            Installation::healthy().with_fuel(500 + (k >> 8) % 4000),
        ),
        _ => ("bad-path", Installation::bad_path()),
    }
}

/// Which job I/O environment an arm runs against.
enum IoArm {
    /// No remote I/O available ([`NoIo`]).
    None,
    /// Chirp over an in-memory home file system.
    Chirp {
        /// Pre-load `input.txt` (otherwise opens raise `FileNotFound`).
        with_input: bool,
        /// Fail every backend op after this many with
        /// [`EnvFault::FilesystemOffline`] — the home file system going
        /// away *between* loop iterations, mid-trace.
        offline_after: Option<u64>,
    },
}

fn io_arm(k: u64) -> (&'static str, IoArm) {
    match k % 4 {
        0 | 1 => ("no-io", IoArm::None),
        2 => (
            "chirp",
            IoArm::Chirp {
                with_input: true,
                offline_after: None,
            },
        ),
        _ => (
            "chirp-offline",
            IoArm::Chirp {
                with_input: true,
                offline_after: Some(1 + (k >> 16) % 6),
            },
        ),
    }
}

/// Run one arm. Span ids are reset first so an escaping error's telemetry
/// identity is a pure function of the program, not of run order — which
/// is what lets the interpreted and compiled arms compare equal on
/// `env_error`.
fn run_arm(bytes: &[u8], install: &Installation, io: &IoArm) -> RunOutput {
    obs::reset_span_ids(0);
    match io {
        IoArm::None => load_and_run(bytes, install, &mut NoIo),
        IoArm::Chirp {
            with_input,
            offline_after,
        } => {
            let mut fs = MemFs::default();
            if *with_input {
                fs.put("input.txt", b"12 34 7 1005");
            }
            if let Some(n) = offline_after {
                fs.set_fault_after(*n, EnvFault::FilesystemOffline);
            }
            let server = ChirpServer::new(fs, Cookie::generate(9));
            let mut client = ChirpClient::new(DirectTransport::new(server));
            let _ = client.auth(Cookie::generate(9).as_bytes());
            let mut jio = ChirpJobIo::new(client);
            load_and_run(bytes, install, &mut jio)
        }
    }
}

fn category(t: &Termination) -> String {
    match t {
        Termination::Completed { .. } => "completed".into(),
        Termination::Exception { name, .. } => format!("exception:{name}"),
        Termination::EnvFailure { scope, code, .. } => {
            format!("env:{}:{}", scope.name(), code.as_str())
        }
    }
}

// ---------------------------------------------------------------------
// Section 1: the differential corpus
// ---------------------------------------------------------------------

struct CorpusResult {
    /// Per-category outcome counts (the coverage histogram).
    categories: BTreeMap<String, u64>,
    /// Digest over every per-seed outcome line.
    digest: u64,
    seeds: u64,
    /// Seeds whose compiled arm installed at least one trace.
    compiled_engaged: u64,
    /// Seeds whose compiled arm took at least one guard exit.
    guarded: u64,
    instructions: u64,
    vm: gridvm::VmStats,
}

fn corpus_differential(seeds: u64) -> CorpusResult {
    let mut categories: BTreeMap<String, u64> = BTreeMap::new();
    let mut lines = String::new();
    let mut compiled_engaged = 0u64;
    let mut guarded = 0u64;
    let mut instructions = 0u64;
    let mut vm = gridvm::VmStats::default();
    for seed in 0..seeds {
        let bytes = programs::generate(seed);
        let k = mix(seed);
        let (iname, install) = install_arm(k);
        let (aname, arm) = io_arm(mix(k));
        let interp = run_arm(
            &bytes,
            &install.clone().with_trace(TraceConfig::off()),
            &arm,
        );
        let compiled = run_arm(&bytes, &install.with_trace(TraceConfig::eager()), &arm);
        assert_eq!(
            interp, compiled,
            "seed {seed} ({iname}/{aname}): compiled run diverged from the interpreter"
        );
        let cat = category(&compiled.termination);
        *categories.entry(cat.clone()).or_insert(0) += 1;
        if compiled.vm.traces_compiled > 0 {
            compiled_engaged += 1;
        }
        if compiled.vm.guard_exits > 0 {
            guarded += 1;
        }
        instructions += compiled.instructions;
        vm.absorb(&compiled.vm);
        lines.push_str(&format!(
            "{seed}:{iname}:{aname}:{cat}:{}:{:016x}\n",
            compiled.instructions,
            fnv1a(compiled.stdout.as_bytes())
        ));
    }
    CorpusResult {
        categories,
        digest: fnv1a(lines.as_bytes()),
        seeds,
        compiled_engaged,
        guarded,
        instructions,
        vm,
    }
}

// ---------------------------------------------------------------------
// Forced adversarial cases: every guard class fires mid-trace
// ---------------------------------------------------------------------

struct Forced {
    name: &'static str,
    image: Vec<u8>,
    install: Installation,
    io: IoArm,
    /// The termination category the case must produce (coverage proof).
    expect: &'static str,
    /// Whether the compiled arm must take at least one guard exit.
    expect_guard: bool,
    /// Whether the compiled arm must actually compile a trace. False only
    /// for cases where the fault fires before any loop can become hot.
    expect_compiled: bool,
}

/// A case on the common arm: healthy installation, no I/O, the hot loop
/// compiles and the fault leaves through a guard exit.
fn guarded(name: &'static str, expect: &'static str, image: Vec<u8>) -> Forced {
    Forced {
        name,
        image,
        install: Installation::healthy(),
        io: IoArm::None,
        expect,
        expect_guard: true,
        expect_compiled: true,
    }
}

fn forced_cases() -> Vec<Forced> {
    vec![
        // acc /= (i - 25): divisor hits zero on iteration 25.
        guarded(
            "div-zero-mid-loop",
            "exception:ArithmeticException",
            programs::counted_loop(
                vec![],
                Counted::upto(60),
                vec![
                    Instr::Load(0),
                    Instr::Load(1),
                    Instr::Push(25),
                    Instr::Sub,
                    Instr::Div,
                    Instr::Store(0),
                ],
            )
            .to_bytes(),
        ),
        // arr[i] walks off the end of a 20-element array at i = 20.
        guarded(
            "bounds-mid-loop",
            "exception:ArrayIndexOutOfBoundsException",
            programs::counted_loop(
                vec![Instr::Push(20), Instr::NewArray, Instr::Store(2)],
                Counted::upto(64),
                vec![
                    Instr::Load(2),
                    Instr::Load(1),
                    Instr::Load(1),
                    Instr::AStore,
                ],
            )
            .to_bytes(),
        ),
        // The dereferenced handle is `arr * (1 - (i == 30))` — data-
        // dependently null on iteration 30, with no branch in the
        // body, so the ALoad *null guard* itself must fire (a
        // conditional fault block would exit through branch
        // divergence instead and never test the guard).
        guarded(
            "null-deref-mid-loop",
            "exception:NullPointerException",
            programs::counted_loop(
                vec![Instr::Push(8), Instr::NewArray, Instr::Store(2)],
                Counted::upto(64),
                vec![
                    Instr::Load(2),
                    Instr::Push(1),
                    Instr::Load(1),
                    Instr::Push(30),
                    Instr::CmpEq,
                    Instr::Sub,
                    Instr::Mul,
                    Instr::Push(0),
                    Instr::ALoad,
                    Instr::Pop,
                ],
            )
            .to_bytes(),
        ),
        // `Throw` lives behind an `i == 40` branch: the recorded
        // iteration skips it, so the compiled trace reaches it by
        // *branch divergence* — a committed side exit, not a guard —
        // and the interpreter throws. The differential still gates
        // bit-identity; `expect_guard` is false by design.
        Forced {
            expect_guard: false,
            ..guarded(
                "user-throw-mid-loop",
                "exception:UserException6",
                programs::counted_loop(
                    vec![],
                    Counted::upto(64),
                    vec![
                        Instr::Load(1),
                        Instr::Push(40),
                        Instr::CmpEq,
                        Instr::JumpIfZero(5), // skip the throw
                        Instr::Throw(6),
                    ],
                )
                .to_bytes(),
            )
        },
        // Allocate i+1 words per iteration under a small heap.
        Forced {
            install: Installation::healthy().with_heap_limit(1 << 8),
            ..guarded(
                "heap-exhaustion-mid-loop",
                "env:virtual-machine:OutOfMemoryError",
                programs::counted_loop(
                    vec![],
                    Counted::upto(200),
                    vec![
                        Instr::Load(1),
                        Instr::Push(1),
                        Instr::Add,
                        Instr::NewArray,
                        Instr::Pop,
                    ],
                )
                .to_bytes(),
            )
        },
        Forced {
            install: Installation::healthy().with_fuel(1_000),
            ..guarded(
                "fuel-exhaustion-mid-loop",
                "env:virtual-machine:CpuLimitExceeded",
                programs::cpu_bound(10_000),
            )
        },
        // abs(acc) every iteration against a stdlib-less install. A
        // statically broken install faults on the very first StdCall,
        // before the loop can ever become hot — so no trace compiles
        // and the in-trace install guard is purely defensive. The
        // differential equality is the gate: both tiers must escape
        // with the identical remote-resource scoped failure.
        Forced {
            install: Installation::missing_stdlib(),
            expect_guard: false,
            expect_compiled: false,
            ..guarded(
                "bad-install-stdcall",
                "env:remote-resource:MisconfiguredInstallation",
                programs::counted_loop(
                    vec![],
                    Counted::upto(64),
                    vec![Instr::Load(0), Instr::StdCall(0), Instr::Store(0)],
                )
                .to_bytes(),
            )
        },
        // Re-read input.txt every iteration; the home file system
        // goes offline after a few operations — the trace's terminal
        // bail hands the faulting IoOpen to the interpreter, which
        // escapes with local-resource scope.
        Forced {
            io: IoArm::Chirp {
                with_input: true,
                offline_after: Some(9),
            },
            expect_guard: false, // terminal bails are the exit path here
            ..guarded(
                "offline-io-mid-loop",
                "env:local-resource:FilesystemOffline",
                ProgramImage {
                    strings: vec!["input.txt".into()],
                    ..programs::counted_loop(
                        vec![],
                        Counted::upto(64),
                        vec![
                            Instr::IoOpen {
                                path: 0,
                                mode: IoMode::Read,
                            },
                            Instr::Dup,
                            Instr::IoReadSum,
                            Instr::Pop,
                            Instr::IoClose,
                        ],
                    )
                }
                .to_bytes(),
            )
        },
        // isqrt(100 - 3i): the operand decays and goes negative at
        // i == 34, well after the loop is hot — the compiled StdCall's
        // negative-operand guard fires mid-trace.
        guarded(
            "isqrt-negative-mid-loop",
            "exception:ArithmeticException",
            programs::counted_loop(
                vec![],
                Counted::upto(64),
                vec![
                    Instr::Push(100),
                    Instr::Load(1),
                    Instr::Push(3),
                    Instr::Mul,
                    Instr::Sub,
                    Instr::StdCall(2),
                    Instr::Pop,
                ],
            )
            .to_bytes(),
        ),
    ]
}

struct ForcedRow {
    name: &'static str,
    category: String,
    instructions: u64,
    guard_exits: u64,
    traces_compiled: u64,
}

fn forced_differential() -> Vec<ForcedRow> {
    forced_cases()
        .into_iter()
        .map(|c| {
            let interp = run_arm(
                &c.image,
                &c.install.clone().with_trace(TraceConfig::off()),
                &c.io,
            );
            let compiled = run_arm(&c.image, &c.install.with_trace(TraceConfig::eager()), &c.io);
            assert_eq!(interp, compiled, "{}: compiled run diverged", c.name);
            let cat = category(&compiled.termination);
            assert_eq!(cat, c.expect, "{}: unexpected outcome", c.name);
            if c.expect_compiled {
                assert!(
                    compiled.vm.traces_compiled > 0,
                    "{}: the hot loop never compiled",
                    c.name
                );
            }
            if c.expect_guard {
                assert!(
                    compiled.vm.guard_exits > 0,
                    "{}: the fault did not exit through a guard",
                    c.name
                );
            }
            ForcedRow {
                name: c.name,
                category: cat,
                instructions: compiled.instructions,
                guard_exits: compiled.vm.guard_exits,
                traces_compiled: compiled.vm.traces_compiled,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Section 2: checkpoint interaction
// ---------------------------------------------------------------------

struct CkptRow {
    program: &'static str,
    cuts: usize,
    snapshot_bytes: u64,
}

fn checkpoint_interaction() -> Vec<CkptRow> {
    let workloads: [(&'static str, Vec<u8>); 2] = [
        ("cpu-bound", programs::cpu_bound(2_000)),
        ("generated-7", programs::generate(7)),
    ];
    let on = Installation::healthy().with_trace(TraceConfig::eager());
    let off = Installation::healthy().with_trace(TraceConfig::off());
    let cuts = [40u64, 137, 300, 700, 1_100];
    workloads
        .into_iter()
        .map(|(name, bytes)| {
            let img = ProgramImage::from_bytes(&bytes).expect("workload loads");
            let digest = fnv1a(&bytes);
            obs::reset_span_ids(0);
            let straight = load_and_run(&bytes, &on, &mut NoIo);
            let mut snapshot_bytes = 0u64;
            let mut used = 0usize;
            for &cut in &cuts {
                // Budgeted run on both hosts; both must suspend at the
                // exact same instruction with byte-identical snapshots.
                let mut traced = Machine::new(&img);
                let mut interp = Machine::new(&img);
                let a = traced.run(&img, &on, &mut NoIo, Some(cut));
                let b = interp.run(&img, &off, &mut NoIo, Some(cut));
                if a.is_some() || b.is_some() {
                    // The program finished inside this budget; outputs
                    // must still agree (and there is nothing to resume).
                    assert_eq!(a.is_some(), b.is_some(), "{name}@{cut}: hosts disagree");
                    continue;
                }
                used += 1;
                assert_eq!(
                    traced.instructions(),
                    cut,
                    "{name}@{cut}: inexact suspension"
                );
                let snap = traced.snapshot(digest).to_bytes();
                let snap_interp = interp.snapshot(digest).to_bytes();
                assert_eq!(
                    snap, snap_interp,
                    "{name}@{cut}: snapshot depends on the trace tier"
                );
                snapshot_bytes += snap.len() as u64;
                // Resume the snapshot on both kinds of host; each must
                // finish exactly like the uninterrupted run.
                for resume_install in [&on, &off] {
                    let state = ckpt::MachineState::from_bytes(&snap).expect("snapshot parses");
                    let mut m = Machine::restore(state, &img, digest).expect("snapshot restores");
                    obs::reset_span_ids(0);
                    let out = m
                        .run(&img, resume_install, &mut NoIo, None)
                        .expect("unbudgeted run terminates");
                    assert_eq!(
                        out, straight,
                        "{name}@{cut}: resumed run diverged from the straight run"
                    );
                }
            }
            assert!(used >= 3, "{name}: too few mid-run cuts actually suspended");
            CkptRow {
                program: name,
                cuts: used,
                snapshot_bytes,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Section 3: hot-loop throughput
// ---------------------------------------------------------------------

struct Throughput {
    interp_mips: f64,
    compiled_mips: f64,
    speedup: f64,
    instructions: u64,
}

fn throughput_study(bytes: &[u8]) -> Throughput {
    let tiers = [TraceConfig::off(), TraceConfig::default()]
        .map(|cfg| Installation::healthy().with_fuel(u64::MAX).with_trace(cfg));
    // Rounds alternate the tiers, and each keeps its best, so a change
    // in the host's pace between rounds reaches both tiers alike rather
    // than the speedup.
    let (mut best, mut instructions) = ([0f64; 2], [0u64; 2]);
    for _ in 0..3 {
        for (tier, install) in tiers.iter().enumerate() {
            let start = std::time::Instant::now();
            let out = load_and_run(bytes, install, &mut NoIo);
            let secs = start.elapsed().as_secs_f64();
            assert!(matches!(out.termination, Termination::Completed { .. }));
            instructions[tier] = out.instructions;
            best[tier] = best[tier].max(out.instructions as f64 / secs / 1e6);
        }
    }
    let [interp_mips, compiled_mips] = best;
    assert_eq!(
        instructions[0], instructions[1],
        "tiers disagree on instruction count"
    );
    Throughput {
        interp_mips,
        compiled_mips,
        speedup: compiled_mips / interp_mips,
        instructions: instructions[0],
    }
}

/// What the circuit plans of `programs`' traces look like: traces
/// compiled, those whose loop test was hoisted, and chained ops.
fn plan_census(programs: impl Iterator<Item = Vec<u8>>) -> (usize, usize, usize) {
    let install = Installation::healthy().with_trace(TraceConfig::eager());
    let mut census = (0, 0, 0);
    for bytes in programs {
        let img = ProgramImage::from_bytes(&bytes).expect("program loads");
        let mut m = Machine::new(&img);
        let _ = m.run(&img, &install, &mut NoIo, None);
        for t in m.trace_state().compiled_traces() {
            census.0 += 1;
            census.1 += usize::from(t.hoists_bound());
            census.2 += t.plan().iter().filter(|op| op.kind.is_chained()).count();
        }
    }
    census
}

// ---------------------------------------------------------------------
// The deterministic core and its export
// ---------------------------------------------------------------------

struct Pass {
    corpus: CorpusResult,
    forced: Vec<ForcedRow>,
    ckpt: Vec<CkptRow>,
}

fn pass(size: Size) -> (Pass, Vec<Artifact>) {
    let pass = Pass {
        corpus: corpus_differential(size.pick(80, 600)),
        forced: forced_differential(),
        ckpt: checkpoint_interaction(),
    };
    let core = deterministic_core(&pass);
    (pass, vec![artifact("BENCH_gridvm.json", core)])
}

/// The deterministic core: outcome digests and counts only, no
/// wall-clock. Two passes must serialize byte-identically.
fn deterministic_core(pass: &Pass) -> String {
    let cats: Vec<String> = pass
        .corpus
        .categories
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let forced: Vec<String> = pass
        .forced
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"category\":\"{}\",\"instructions\":{},\
                 \"guard_exits\":{},\"traces_compiled\":{}}}",
                r.name, r.category, r.instructions, r.guard_exits, r.traces_compiled
            )
        })
        .collect();
    let ckpt: Vec<String> = pass
        .ckpt
        .iter()
        .map(|r| {
            format!(
                "{{\"program\":\"{}\",\"cuts\":{},\"snapshot_bytes\":{}}}",
                r.program, r.cuts, r.snapshot_bytes
            )
        })
        .collect();
    format!(
        "{{\"corpus\":{{\"seeds\":{},\"digest\":\"{:016x}\",\"compiled_engaged\":{},\
         \"guarded\":{},\"instructions\":{},\"traces_recorded\":{},\"traces_compiled\":{},\
         \"guard_exits\":{},\"compiled_instructions\":{},\"categories\":{{{}}}}},\
         \"forced\":[{}],\"checkpoint\":[{}]}}",
        pass.corpus.seeds,
        pass.corpus.digest,
        pass.corpus.compiled_engaged,
        pass.corpus.guarded,
        pass.corpus.instructions,
        pass.corpus.vm.traces_recorded,
        pass.corpus.vm.traces_compiled,
        pass.corpus.vm.guard_exits,
        pass.corpus.vm.compiled_instructions,
        cats.join(","),
        forced.join(","),
        ckpt.join(",")
    )
}

pub fn run(size: Size, _: &[String]) {
    println!(
        "E14: trace-compiled gridvm — {}-program differential corpus,\n\
         forced guard-class coverage, checkpoint interaction, hot-loop throughput\n",
        size.pick(80, 600)
    );
    drive(size, pass, |pass, files| {
        report(&pass);
        // Section 3, wall-clock: run once, after the two-pass comparison,
        // and spliced in beside the deterministic core.
        let throughput = throughput_section(size);
        files[0].body = format!(
            "{{\"deterministic\":{},\"throughput\":{throughput}}}",
            files[0].body
        );
    });
}

fn report(pass: &Pass) {
    // Corpus gates: the tier must actually engage, and guards must fire.
    assert!(
        pass.corpus.compiled_engaged * 2 > pass.corpus.seeds,
        "compiled tier engaged on only {}/{} seeds",
        pass.corpus.compiled_engaged,
        pass.corpus.seeds
    );
    assert!(
        pass.corpus.guarded > 0,
        "no corpus seed ever took a guard exit"
    );
    assert!(
        pass.corpus.categories.len() >= 5,
        "corpus outcome diversity collapsed: {:?}",
        pass.corpus.categories
    );

    println!(
        "{}",
        render_table(
            &["outcome category", "runs"],
            &pass
                .corpus
                .categories
                .iter()
                .map(|(k, v)| vec![k.clone(), v.to_string()])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "corpus: {} seeds bit-identical across tiers; tier engaged on {}, guard \
         exits on {}; {} instructions ({} via compiled traces)\n",
        pass.corpus.seeds,
        pass.corpus.compiled_engaged,
        pass.corpus.guarded,
        pass.corpus.instructions,
        pass.corpus.vm.compiled_instructions
    );

    println!(
        "{}",
        render_table(
            &["forced case", "outcome", "instr", "guard exits", "traces"],
            &pass
                .forced
                .iter()
                .map(|r| vec![
                    r.name.to_string(),
                    r.category.clone(),
                    r.instructions.to_string(),
                    r.guard_exits.to_string(),
                    r.traces_compiled.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "forced coverage: every guard class fired mid-trace and matched the \
         interpreter exactly\n"
    );

    for r in &pass.ckpt {
        println!(
            "checkpoint: {} — {} mid-run cuts, snapshots byte-identical with the \
             trace tier on or off, resumes agree on both hosts ({} snapshot bytes)",
            r.program, r.cuts, r.snapshot_bytes
        );
    }
    println!();
}

/// Run the hot-loop study, print and gate it, and return its JSON section.
fn throughput_section(size: Size) -> String {
    let loop_n: i64 = size.pick(200_000, 2_000_000);
    let heap_n: i64 = size.pick(100_000, 1_000_000);
    let t = throughput_study(&programs::cpu_bound(loop_n));
    let h = throughput_study(&programs::heap_sum(heap_n));
    let rows: Vec<Vec<String>> = [("cpu-bound", &t), ("heap-sum", &h)]
        .into_iter()
        .map(|(program, r)| {
            vec![
                program.into(),
                f(r.interp_mips, 1),
                f(r.compiled_mips, 1),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "loop",
                "interpreter Minstr/s",
                "trace-compiled Minstr/s",
                "speedup"
            ],
            &rows,
        )
    );
    // Stdout only: what the circuit plans look like, over the corpus and
    // the two timed loops.
    let corpus = plan_census((0..size.pick(80, 600)).map(programs::generate));
    let timed = plan_census([programs::cpu_bound(100), programs::heap_sum(100)].into_iter());
    for (what, (traces, hoisted, chained)) in [("corpus", corpus), ("timed loops", timed)] {
        println!(
            "circuit plans, {what}: {traces} traces, {hoisted} with the loop test hoisted, \
             {chained} chained ops"
        );
    }
    let gated = size == Size::Full;
    if gated {
        assert!(
            t.speedup >= 3.0,
            "hot-loop speedup gate: need >=3x, got {:.2}x",
            t.speedup
        );
        println!("throughput gate: {:.2}x (>=3x required)", t.speedup);
    } else {
        println!(
            "(smoke mode: throughput reported, not gated — the full study \
             requires >=3x)"
        );
    }
    format!(
        "{{\"loop_n\":{loop_n},\"instructions\":{},\"interpreter_minstr_s\":{:.3},\
         \"compiled_minstr_s\":{:.3},\"speedup\":{:.3},\"gated\":{gated},\
         \"heap_sum\":{{\"n\":{heap_n},\"instructions\":{},\"interpreter_minstr_s\":{:.3},\
         \"compiled_minstr_s\":{:.3},\"speedup\":{:.3}}}}}",
        t.instructions,
        t.interp_mips,
        t.compiled_mips,
        t.speedup,
        h.instructions,
        h.interp_mips,
        h.compiled_mips,
        h.speedup
    )
}
