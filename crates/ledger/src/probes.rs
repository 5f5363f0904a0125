//! Isolated layer probes: fixed small work through one layer's public
//! API, shaped like what the workloads feed it. They give the per-layer
//! unit costs (events dispatched per second by the bare kernel, ads
//! compiled per second, checkpoint megabytes per second, …) that the
//! workload attributions are read against, and they replace the
//! stub-criterion numbers. Each probe runs [`ROUNDS`] times and reports
//! the median rate.

use crate::stats::{median, splitmix64 as next};
use chirp::backend::MemFs;
use chirp::transport::DirectTransport;
use chirp::wire::{deframe_with_limit, encode_request, frame};
use chirp::{ChirpClient, ChirpServer, Cookie, OpenMode, Request};
use classads::compile::{symmetric_match_compiled, CompiledAd, Scratch};
use condor::prelude::*;
use condor::MatchEngine;
use desim::prelude::*;
use desim::{EventKey, EventQueue, KeyedEventQueue};
use gridvm::jvmio::NoIo;
use gridvm::{execute, programs, Installation, ProgramImage, TraceConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Rounds per probe; the median is reported.
pub const ROUNDS: usize = 3;

/// Queue depth of the hold-model probes: `fed_scale`'s pending depth.
const QUEUE_DEPTH: u64 = 40_000;

fn median_of(mut round: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS).map(|_| round()).collect();
    median(&samples)
}

/// `units` of work per second of `work`'s wall-clock, scaled by `scale`.
fn rate(units: f64, scale: f64, work: impl FnOnce()) -> f64 {
    let t = Instant::now();
    work();
    units / t.elapsed().as_secs_f64() / scale
}

#[derive(Debug, Clone)]
struct Ball(u64);

struct Player {
    peer: ActorId,
    serves: bool,
}

impl Actor<Ball> for Player {
    fn name(&self) -> String {
        if self.serves { "server" } else { "returner" }.into()
    }
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        if self.serves {
            ctx.send(self.peer, Ball(0));
        }
    }
    fn on_message(&mut self, _from: ActorId, msg: Ball, ctx: &mut Context<'_, Ball>) {
        ctx.emit(obs::Event::Dispatch {
            job: msg.0,
            machine: u64::from(self.serves),
        });
        ctx.send(self.peer, Ball(msg.0 + 1));
    }
}

/// Two-actor ping-pong through `World::run`, telemetry on, trace off.
fn desim_dispatch() -> f64 {
    const EVENTS: u64 = 400_000;
    median_of(|| {
        let mut w: World<Ball> = World::new(1).without_trace();
        let a = w.add_actor(Box::new(Player {
            peer: 1,
            serves: true,
        }));
        w.add_actor(Box::new(Player {
            peer: a,
            serves: false,
        }));
        rate(EVENTS as f64, 1e6, || {
            assert_eq!(w.run(EVENTS), EVENTS, "the rally must not stall");
        })
    })
}

/// The classic hold model: pop the earliest event, push one a random
/// increment later, at constant depth.
fn desim_queue() -> f64 {
    const HOLDS: u64 = 500_000;
    median_of(|| {
        let mut s = 7u64;
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..QUEUE_DEPTH {
            q.push(SimTime::from_micros(next(&mut s) % 10_000_000), i);
        }
        rate(HOLDS as f64, 1e6, || {
            for _ in 0..HOLDS {
                let (at, e) = q.pop().expect("constant depth");
                let later = at.as_micros() + 1 + next(&mut s) % 10_000_000;
                q.push(SimTime::from_micros(later), e);
            }
            black_box(q.len());
        })
    })
}

/// The same hold model on the keyed queue the parallel engine uses.
fn desim_keyed_queue() -> f64 {
    const HOLDS: u64 = 500_000;
    median_of(|| {
        let mut s = 7u64;
        let mut seq = 0u64;
        let mut key = |at: u64, s: &mut u64| {
            seq += 1;
            EventKey {
                at: SimTime::from_micros(at),
                src: next(s) % 20_000,
                seq,
            }
        };
        let mut q: KeyedEventQueue<u64> = KeyedEventQueue::new();
        for i in 0..QUEUE_DEPTH {
            let at = next(&mut s) % 10_000_000;
            q.push(key(at, &mut s), i);
        }
        rate(HOLDS as f64, 1e6, || {
            for _ in 0..HOLDS {
                let (k, e) = q.pop().expect("constant depth");
                let later = k.at.as_micros() + 1 + next(&mut s) % 10_000_000;
                q.push(key(later, &mut s), e);
            }
            black_box(q.len());
        })
    })
}

fn machine_ad(i: usize) -> classads::ClassAd {
    MachineSpec::healthy(&format!("p0m{i}"), 256).ad(true)
}

fn job_ad(i: u32) -> classads::ClassAd {
    crate::workloads::pool::java_job(i).ad()
}

/// `CompiledAd` lowering of a startd ad.
fn classads_compile() -> f64 {
    const ADS: usize = 20_000;
    let ad = machine_ad(0);
    median_of(|| {
        rate(ADS as f64, 1e3, || {
            for _ in 0..ADS {
                black_box(CompiledAd::compile(black_box(&ad)));
            }
        })
    })
}

/// `symmetric_match_compiled` of a job ad against a machine ad.
fn classads_match() -> f64 {
    const PAIRS: usize = 500_000;
    let machine = CompiledAd::compile(&machine_ad(0));
    let job = CompiledAd::compile(&job_ad(1));
    let mut scratch = Scratch::new();
    median_of(|| {
        rate(PAIRS as f64, 1e6, || {
            for _ in 0..PAIRS {
                black_box(symmetric_match_compiled(
                    black_box(&job),
                    black_box(&machine),
                    &mut scratch,
                ));
            }
        })
    })
}

/// Identical re-advertisement of 20 000 machine ads — what every idle
/// startd does to its matchmaker every few seconds.
fn matchmaker_insert() -> f64 {
    const ADS: usize = 20_000;
    let ads: Vec<classads::ClassAd> = (0..ADS).map(machine_ad).collect();
    let mut engine = MatchEngine::new();
    for (i, ad) in ads.iter().enumerate() {
        engine.insert_machine(i, ad.clone(), SimTime::ZERO);
    }
    let mut now = 0;
    median_of(|| {
        now += 5;
        rate(ADS as f64, 1e3, || {
            for (i, ad) in ads.iter().enumerate() {
                engine.insert_machine(i, ad.clone(), SimTime::from_secs(now));
            }
        })
    })
}

/// One cold negotiation cycle: one pool of `fed_scale` (4000 machines)
/// against 100 jobs — an eighth of the pool's 800, because the full
/// cycle takes four seconds and the probes share a two-second budget;
/// the cost is linear in jobs. Run once (each run needs a fresh engine).
/// Milliseconds, so lower is better.
fn matchmaker_negotiate() -> f64 {
    let mut engine = MatchEngine::new();
    for i in 0..4000 {
        engine.insert_machine(i, machine_ad(i), SimTime::ZERO);
    }
    for j in 1..=100 {
        engine.insert_job(4000, j, job_ad(j));
    }
    let mut rng = SimRng::seed_from_u64(1);
    let t = Instant::now();
    black_box(engine.negotiate(SimTime::from_secs(1), &mut rng));
    t.elapsed().as_secs_f64() * 1e3
}

/// `Collector::record` of a typed event, and `to_jsonl_with_meta` of the
/// full ring. Returns `(record Mev/s, export MB/s)`.
fn obs_record_export() -> (f64, f64) {
    const EVENTS: u64 = 500_000;
    let mut export = Vec::new();
    let record = median_of(|| {
        let mut c = obs::Collector::new();
        let r = rate(EVENTS as f64, 1e6, || {
            for i in 0..EVENTS {
                c.record(
                    i,
                    "startd",
                    obs::Event::Dispatch {
                        job: i,
                        machine: i % 1000,
                    },
                );
            }
        });
        let t = Instant::now();
        let jsonl = c.to_jsonl_with_meta();
        export.push(jsonl.len() as f64 / t.elapsed().as_secs_f64() / 1e6);
        r
    });
    (record, median(&export))
}

/// Encode + frame + `deframe_with_limit` of a small write request.
fn chirp_wire() -> f64 {
    const FRAMES: usize = 300_000;
    let req = Request::Write {
        fd: 3,
        data: b"12 34 7 1005".to_vec(),
    };
    median_of(|| {
        rate(FRAMES as f64, 1e6, || {
            for _ in 0..FRAMES {
                let framed = frame(&encode_request(black_box(&req)));
                black_box(deframe_with_limit(&framed, 1 << 16).expect("self-framed"));
            }
        })
    })
}

/// Open / read / close through client, wire encoding, server and
/// `MemFs`; each is one round trip.
fn chirp_roundtrip() -> f64 {
    const CYCLES: usize = 30_000;
    let mut fs = MemFs::default();
    fs.put("input.txt", b"12 34 7 1005");
    let server = ChirpServer::new(fs, Cookie::generate(9));
    let mut client = ChirpClient::new(DirectTransport::new(server));
    client
        .auth(Cookie::generate(9).as_bytes())
        .expect("probe client authenticates");
    median_of(|| {
        rate(3.0 * CYCLES as f64, 1e3, || {
            for _ in 0..CYCLES {
                let fd = client.open("input.txt", OpenMode::Read).expect("open");
                black_box(client.read_all(fd).expect("read"));
                client.close(fd).expect("close");
            }
        })
    })
}

/// `to_bytes` / `from_bytes` of a `heap_sum`-shaped snapshot (one
/// 200 000-word array). Returns `(encode MB/s, decode MB/s)`.
fn ckpt_codec() -> (f64, f64) {
    const ROUND_TRIPS: usize = 8;
    let state = ckpt::MachineState {
        image_digest: 1,
        instructions: 1_000_000,
        io_ops: 0,
        heap_words: 200_000,
        stdout: String::new(),
        frames: vec![ckpt::FrameState {
            func: 0,
            pc: 9,
            locals: vec![0, 100_000, 0],
        }],
        stack: Vec::new(),
        heap: vec![(0..200_000).collect()],
    };
    let bytes = state.to_bytes();
    let mb = (bytes.len() * ROUND_TRIPS) as f64 / 1e6;
    let encode = median_of(|| {
        rate(mb, 1.0, || {
            for _ in 0..ROUND_TRIPS {
                black_box(black_box(&state).to_bytes());
            }
        })
    });
    let decode = median_of(|| {
        rate(mb, 1.0, || {
            for _ in 0..ROUND_TRIPS {
                black_box(ckpt::MachineState::from_bytes(black_box(&bytes)).expect("round trip"));
            }
        })
    });
    (encode, decode)
}

/// `cpu_bound` through `execute` with the trace tier off or on.
fn gridvm_loop(n: i64, trace: TraceConfig) -> f64 {
    let image = ProgramImage::from_bytes(&programs::cpu_bound(n)).expect("cpu_bound loads");
    let install = Installation::healthy()
        .with_fuel(u64::MAX)
        .with_trace(trace);
    median_of(|| {
        let t = Instant::now();
        let out = execute(&image, &install, &mut NoIo);
        out.instructions as f64 / t.elapsed().as_secs_f64() / 1e6
    })
}

/// Run every probe once; keys are the `probe.*` metric names.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let (record, export) = obs_record_export();
    let (encode, decode) = ckpt_codec();
    BTreeMap::from([
        ("probe.desim.dispatch_mev_per_s", desim_dispatch()),
        ("probe.desim.queue_mops_per_s", desim_queue()),
        ("probe.desim.keyed_queue_mops_per_s", desim_keyed_queue()),
        ("probe.classads.compile_kads_per_s", classads_compile()),
        ("probe.classads.match_mpairs_per_s", classads_match()),
        (
            "probe.condor.matchmaker.insert_kads_per_s",
            matchmaker_insert(),
        ),
        (
            "probe.condor.matchmaker.negotiate_ms",
            matchmaker_negotiate(),
        ),
        ("probe.obs.record_mev_per_s", record),
        ("probe.obs.export_mb_per_s", export),
        ("probe.chirp.wire_mframes_per_s", chirp_wire()),
        ("probe.chirp.roundtrip_kops_per_s", chirp_roundtrip()),
        ("probe.ckpt.encode_mb_per_s", encode),
        ("probe.ckpt.decode_mb_per_s", decode),
        (
            "probe.gridvm.interp_minstr_per_s",
            gridvm_loop(500_000, TraceConfig::off()),
        ),
        (
            "probe.gridvm.trace_minstr_per_s",
            gridvm_loop(2_000_000, TraceConfig::default()),
        ),
    ])
}
