//! `vm_short_jobs` and `vm_hot_loops` — the Java-universe job path with
//! no simulator around it.
//!
//! `vm_short_jobs` pushes generated programs through `run_wrapped` under
//! E14's installation and I/O arms: image decode, verifier, wrapper
//! classification, result file and chirp round-trips dominate, loops
//! rarely get hot. `vm_hot_loops` is the opposite: two long loops where
//! the interpreter, the trace tier and the checkpoint codec do all the
//! work, one with tiny read-mostly snapshots (`cpu_bound`) and one with
//! megabyte write-heavy ones (`heap_sum`).

use super::{derived_seed, Outcome, Sizes};
use crate::stats::{splitmix64, Fnv};
use crate::tracer::{Kind, Tracer};
use chirp::backend::{EnvFault, MemFs};
use chirp::transport::{Broken, DirectTransport, Transport};
use chirp::{ChirpClient, ChirpServer, Cookie, Fd, Request, Response};
use errorscope::Scope;
use gridvm::jvmio::{ChirpJobIo, IoOutcome, JobIo, NoIo};
use gridvm::machine::{Machine, RunOutput};
use gridvm::{
    classify, execute, programs, run_wrapped, verify, Installation, IoMode, ProgramImage,
    Termination, VmStats, WrappedRun,
};
use std::cell::Cell;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Harness decorators over the public I/O traits
// ---------------------------------------------------------------------

/// What the transport decorator counts.
#[derive(Debug, Default)]
pub struct ChirpCounters {
    /// Round trips attempted.
    pub calls: Cell<u64>,
    /// Replies that were an explicit `Response::Error`.
    pub error_replies: Cell<u64>,
    /// Calls that found the connection broken.
    pub broken: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// A [`Transport`] that times and counts every round trip and passes
/// request and reply through untouched.
pub struct TimedTransport<'a, T: Transport> {
    inner: T,
    tracer: &'a Tracer,
    counters: &'a ChirpCounters,
}

impl<'a, T: Transport> TimedTransport<'a, T> {
    /// Decorate `inner`.
    pub fn new(inner: T, tracer: &'a Tracer, counters: &'a ChirpCounters) -> Self {
        TimedTransport {
            inner,
            tracer,
            counters,
        }
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn call(&mut self, req: &Request) -> Result<Response, Broken> {
        let reply = self.tracer.span(Kind::ChirpCall, || self.inner.call(req));
        bump(&self.counters.calls);
        match &reply {
            Ok(Response::Error(_)) => bump(&self.counters.error_replies),
            Ok(_) => {}
            Err(_) => bump(&self.counters.broken),
        }
        reply
    }
}

/// A [`JobIo`] that times every I/O instruction the VM issues (the whole
/// chirp stack as the program sees it) and changes nothing.
pub struct TimedJobIo<'a> {
    inner: &'a mut dyn JobIo,
    tracer: &'a Tracer,
}

impl<'a> TimedJobIo<'a> {
    /// Decorate `inner`.
    pub fn new(inner: &'a mut dyn JobIo, tracer: &'a Tracer) -> Self {
        TimedJobIo { inner, tracer }
    }
}

impl JobIo for TimedJobIo<'_> {
    fn open(&mut self, path: &str, mode: IoMode) -> IoOutcome<Fd> {
        self.tracer
            .span(Kind::ChirpIo, || self.inner.open(path, mode))
    }
    fn read_all(&mut self, fd: Fd) -> IoOutcome<Vec<u8>> {
        self.tracer.span(Kind::ChirpIo, || self.inner.read_all(fd))
    }
    fn write(&mut self, fd: Fd, data: &[u8]) -> IoOutcome<()> {
        self.tracer
            .span(Kind::ChirpIo, || self.inner.write(fd, data))
    }
    fn close(&mut self, fd: Fd) -> IoOutcome<()> {
        self.tracer.span(Kind::ChirpIo, || self.inner.close(fd))
    }
}

// ---------------------------------------------------------------------
// vm_short_jobs
// ---------------------------------------------------------------------

/// Derives the arm choices from the program seed without touching the
/// program generator's own stream.
fn mix(mut z: u64) -> u64 {
    splitmix64(&mut z)
}

/// E14's installation arms: healthy (2 in 6), missing stdlib, small
/// heap, tight fuel, bad path.
fn install_arm(k: u64) -> Installation {
    match k % 6 {
        0 | 1 => Installation::healthy(),
        2 => Installation::missing_stdlib(),
        3 => Installation::healthy().with_heap_limit(1 << 12),
        4 => Installation::healthy().with_fuel(500 + (k >> 8) % 4000),
        _ => Installation::bad_path(),
    }
}

/// E14's I/O arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoArm {
    /// No remote I/O ([`NoIo`]): 2 in 4.
    None,
    /// Chirp over `DirectTransport` + `MemFs`; with `Some(k)` the home
    /// file system goes offline after `k` backend operations.
    Chirp {
        /// Operations before the backend goes offline.
        offline_after: Option<u64>,
    },
}

fn io_arm(k: u64) -> IoArm {
    match k % 4 {
        0 | 1 => IoArm::None,
        2 => IoArm::Chirp {
            offline_after: None,
        },
        _ => IoArm::Chirp {
            offline_after: Some(1 + (k >> 16) % 6),
        },
    }
}

/// One generated job: the image bytes and the environment it meets.
pub struct ShortJob {
    /// The serialized program image.
    pub image: Vec<u8>,
    /// The installation it runs under.
    pub install: Installation,
    /// The I/O environment it runs against.
    pub io: IoArm,
}

/// Generate job `i` of a run seeded `seed`.
pub fn short_job(seed: u64, i: u64) -> ShortJob {
    let s = derived_seed(seed, i);
    let k = mix(s);
    ShortJob {
        image: programs::generate(s),
        install: install_arm(k),
        io: io_arm(k >> 24),
    }
}

/// `setup`: generate every program and choose its arms.
pub fn setup_short(seed: u64, sizes: &Sizes) -> Vec<ShortJob> {
    (0..sizes.vm_programs).map(|i| short_job(seed, i)).collect()
}

/// The home file system a chirp arm starts from.
fn home_fs(offline_after: Option<u64>) -> ChirpServer<MemFs> {
    let mut fs = MemFs::default();
    fs.put("input.txt", b"12 34 7 1005");
    if let Some(n) = offline_after {
        fs.set_fault_after(n, EnvFault::FilesystemOffline);
    }
    ChirpServer::new(fs, Cookie::generate(9))
}

/// What one short job produced — the fields of `WrappedRun` that can be
/// rebuilt from the constituents' public results.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The VM process exit code the starter ignores.
    pub jvm_exit: i32,
    /// The serialized result file.
    pub result_file: String,
    /// The scope the result file assigns.
    pub scope: Scope,
    /// Collected standard output.
    pub stdout: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Trace-tier counters.
    pub vm: VmStats,
}

impl From<WrappedRun> for JobResult {
    fn from(w: WrappedRun) -> JobResult {
        JobResult {
            jvm_exit: w.jvm_exit.0,
            scope: w.result_file.scope(),
            result_file: w.result_file_bytes,
            stdout: w.stdout,
            instructions: w.instructions,
            vm: w.vm,
        }
    }
}

/// The job the way the starter runs it: one `run_wrapped` call.
pub fn run_job_plain(job: &ShortJob) -> JobResult {
    obs::reset_span_ids(0);
    match job.io {
        IoArm::None => run_wrapped(&job.image, &job.install, &mut NoIo),
        IoArm::Chirp { offline_after } => {
            let mut client = ChirpClient::new(DirectTransport::new(home_fs(offline_after)));
            let _ = client.auth(Cookie::generate(9).as_bytes());
            run_wrapped(&job.image, &job.install, &mut ChirpJobIo::new(client))
        }
    }
    .into()
}

/// The same job with every constituent of `run_wrapped` called from here
/// under its own span, and the I/O traits decorated. An installation
/// that cannot start, or an image the loader refuses, has no constituents
/// to time: the whole call is charged to the wrapper.
pub fn run_job_traced(job: &ShortJob, t: &Tracer, counters: &ChirpCounters) -> JobResult {
    obs::reset_span_ids(0);
    let run = |io: &mut dyn JobIo| -> JobResult {
        let loaded = if job.install.can_start() {
            t.span(Kind::GridvmImage, || {
                ProgramImage::from_bytes(&job.image).ok()
            })
            .filter(|img| t.span(Kind::GridvmVerify, || verify(img).is_ok()))
        } else {
            None
        };
        let Some(image) = loaded else {
            return t
                .span(Kind::GridvmWrapper, || {
                    run_wrapped(&job.image, &job.install, io)
                })
                .into();
        };
        // Each closure owns what it is the last to use, so the value is
        // dropped inside the span of the layer that allocated it.
        let out = t.span(Kind::GridvmExec, move || {
            execute(&image, &job.install, &mut TimedJobIo::new(io, t))
        });
        t.span(Kind::GridvmWrapper, move || {
            let result = classify(&out.termination);
            JobResult {
                jvm_exit: match out.termination {
                    Termination::Completed { exit_code } => exit_code,
                    _ => 1,
                },
                scope: result.scope(),
                result_file: result.to_json(),
                stdout: out.stdout,
                instructions: out.instructions,
                vm: out.vm,
            }
        })
    };
    match job.io {
        IoArm::None => run(&mut NoIo),
        IoArm::Chirp { offline_after } => {
            let mut io = t.span(Kind::ChirpSession, || {
                let transport =
                    TimedTransport::new(DirectTransport::new(home_fs(offline_after)), t, counters);
                let mut client = ChirpClient::new(transport);
                let _ = client.auth(Cookie::generate(9).as_bytes());
                ChirpJobIo::new(client)
            });
            let r = run(&mut io);
            t.span(Kind::ChirpSession, move || drop(io));
            r
        }
    }
}

fn vm_counts(counts: &mut BTreeMap<&'static str, f64>, instructions: u64, vm: &VmStats) {
    counts.insert("gridvm.instructions", instructions as f64);
    counts.insert(
        "gridvm.compiled_instructions",
        vm.compiled_instructions as f64,
    );
    counts.insert("gridvm.traces_compiled", vm.traces_compiled as f64);
    counts.insert("gridvm.guard_exits", vm.guard_exits as f64);
}

/// Run every job. A generated program is valid by construction, so a
/// job-scope result (the loader or verifier refused the image) is the
/// failure this workload counts.
pub fn run_short(jobs: &[ShortJob], t: &Tracer) -> Outcome {
    let counters = ChirpCounters::default();
    let mut h = Fnv::default();
    let mut out = Outcome::default();
    let mut vm = VmStats::default();
    for job in jobs {
        let r = if t.enabled() {
            run_job_traced(job, t, &counters)
        } else {
            run_job_plain(job)
        };
        out.attempted += 1;
        out.jobs += 1;
        out.failed += u64::from(r.scope == Scope::Job);
        out.instructions += r.instructions;
        vm.absorb(&r.vm);
        t.span(Kind::LedgerDigest, || {
            h.u64(r.jvm_exit as u64);
            h.bytes(r.result_file.as_bytes());
            h.bytes(r.stdout.as_bytes());
            h.u64(r.instructions);
            drop(r);
        });
    }
    out.digest = h.finish();
    vm_counts(&mut out.counts, out.instructions, &vm);
    if t.enabled() {
        let c = &mut out.counts;
        c.insert("chirp.calls", counters.calls.get() as f64);
        c.insert("chirp.error_replies", counters.error_replies.get() as f64);
        c.insert("chirp.broken", counters.broken.get() as f64);
    }
    out
}

// ---------------------------------------------------------------------
// vm_hot_loops
// ---------------------------------------------------------------------

/// One hot-loop program with its uninterrupted reference result.
pub struct HotProgram {
    image: ProgramImage,
    image_digest: u64,
    straight: RunOutput,
    runs: u32,
}

fn hot_install() -> Installation {
    Installation::healthy().with_fuel(u64::MAX)
}

/// `setup`: assemble both images and run each once, uninterrupted, for
/// the result every checkpointed run must reproduce. The seed nudges
/// each loop bound by under 1024 iterations (at most 0.5 % of the work),
/// so the printed results — and the digest — depend on it.
pub fn setup_hot(seed: u64, sizes: &Sizes) -> Vec<HotProgram> {
    let install = hot_install();
    let nudge = |i: u64| (mix(derived_seed(seed, i)) % 1024) as i64;
    [
        (
            programs::cpu_bound(sizes.hot_cpu.1 + nudge(0)),
            sizes.hot_cpu.0,
        ),
        (
            programs::heap_sum(sizes.hot_heap.1 + nudge(1)),
            sizes.hot_heap.0,
        ),
    ]
    .into_iter()
    .map(|(bytes, runs)| {
        let image = ProgramImage::from_bytes(&bytes).expect("hot-loop image loads");
        verify(&image).expect("hot-loop image verifies");
        let straight = execute(&image, &install, &mut NoIo);
        HotProgram {
            image_digest: ckpt::fnv1a(&bytes),
            image,
            straight,
            runs,
        }
    })
    .collect()
}

/// Run each program `runs` times, suspending every `hot_cut_every`
/// instructions for a full checkpoint round trip. A failed operation is
/// a restore error or a resumed result that differs from the straight
/// run.
pub fn run_hot(programs: &[HotProgram], sizes: &Sizes, t: &Tracer) -> Outcome {
    obs::reset_span_ids(0);
    let install = hot_install();
    let mut h = Fnv::default();
    let mut out = Outcome::default();
    let mut vm = VmStats::default();
    let (mut cuts, mut ckpt_bytes) = (0u64, 0u64);
    for p in programs {
        for _ in 0..p.runs {
            out.attempted += 1;
            out.jobs += 1;
            let mut m = Machine::new(&p.image);
            let finished = loop {
                let step = t.span(Kind::GridvmExec, || {
                    m.run(&p.image, &install, &mut NoIo, Some(sizes.hot_cut_every))
                });
                vm.absorb(&m.vm_stats());
                if let Some(done) = step {
                    break Some(done);
                }
                let bytes = t.span(Kind::CkptEncode, || m.snapshot(p.image_digest).to_bytes());
                cuts += 1;
                ckpt_bytes += bytes.len() as u64;
                let restored = t.span(Kind::CkptDecode, || {
                    ckpt::MachineState::from_bytes(&bytes)
                        .and_then(|s| Machine::restore(s, &p.image, p.image_digest))
                });
                match restored {
                    Ok(next) => m = next,
                    Err(_) => break None,
                }
            };
            match finished {
                Some(done) => {
                    out.instructions += done.instructions;
                    out.failed += u64::from(done != p.straight);
                    h.bytes(done.stdout.as_bytes());
                    h.u64(done.instructions);
                }
                None => out.failed += 1,
            }
        }
    }
    h.u64(cuts);
    h.u64(ckpt_bytes);
    out.digest = h.finish();
    vm_counts(&mut out.counts, out.instructions, &vm);
    out.counts.insert("ckpt.cuts", cuts as f64);
    out.counts.insert("ckpt.bytes", ckpt_bytes as f64);
    out
}
