//! The ledger's own checks, at `Sizes::SMOKE`: digests are functions of
//! the seed, the harness decorators and decompositions change nothing,
//! both engines agree, span arithmetic holds, everything written
//! re-parses, and `BENCHMARK.json` names exactly what the binary emits.

use chirp::transport::DirectTransport;
use chirp::{ChirpClient, ChirpServer, Cookie, MemFs};
use gridvm::jvmio::ChirpJobIo;
use gridvm::{programs, run_wrapped, Installation};
use ledger::compare::{compare, judge, Verdict};
use ledger::measure::{measure, Config, Stop, Summary};
use ledger::metrics::{end_to_end, span_metric, END_TO_END, PER_LAYER};
use ledger::report::{as_f64, gate_line, parse_result_file, result_file, workload_entry};
use ledger::tracer::{Kind, Tracer};
use ledger::workloads::vm::{
    run_job_plain, run_job_traced, short_job, ChirpCounters, TimedJobIo, TimedTransport,
};
use ledger::workloads::{self, fed, pool, Outcome, Sizes, NAMES};
use obs::json::Json;
use std::collections::BTreeSet;

fn run_once(name: &str, seed: u64, t: &Tracer) -> Outcome {
    workloads::prepare(name, seed, &Sizes::SMOKE, t).expect("known workload")()
}

#[test]
fn digest_is_a_function_of_the_seed_alone() {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    for name in NAMES {
        let a = run_once(name, 1, &off);
        let b = run_once(name, 1, &off);
        let traced = run_once(name, 1, &on);
        let other = run_once(name, 2, &off);
        assert_eq!(a.digest, b.digest, "{name}: same seed, different digest");
        assert_eq!(
            a.digest, traced.digest,
            "{name}: tracing changed the digest"
        );
        assert_ne!(a.digest, other.digest, "{name}: the seed does not matter");
        assert!(a.attempted > 0, "{name}: nothing attempted");
        assert_eq!(a.failed, 0, "{name}: operations failed at smoke size");
        assert!(a.jobs > 0, "{name}: jobs_per_s would be zero");
    }
}

#[test]
fn traced_decomposition_equals_run_wrapped_on_500_programs() {
    let t = Tracer::new(true);
    let counters = ChirpCounters::default();
    let mut chirp_jobs = 0;
    for i in 0..500 {
        let job = short_job(7, i);
        let plain = run_job_plain(&job);
        let traced = run_job_traced(&job, &t, &counters);
        assert_eq!(
            plain, traced,
            "program {i} diverged under the decomposition"
        );
        chirp_jobs += u64::from(job.io != workloads::vm::IoArm::None);
    }
    assert!(chirp_jobs > 100, "the corpus must exercise the chirp arms");
    assert!(
        counters.calls.get() >= chirp_jobs,
        "every chirp session authenticates through the decorated transport"
    );
    assert!(counters.broken.get() > 0, "the offline arm never fired");
    let agg = t.take_aggregate();
    assert!(agg.get(Kind::GridvmExec).count > 0);
    assert_eq!(
        agg.get(Kind::ChirpCall).count,
        counters.calls.get(),
        "one span per counted round trip"
    );
}

#[test]
fn timing_decorators_are_transparent() {
    // The same program against the same home file system, once through
    // the bare chirp stack and once through both decorators: the whole
    // WrappedRun — result file, stdout, instruction count, error journey
    // — must be equal.
    let t = Tracer::new(true);
    let counters = ChirpCounters::default();
    let server = || {
        let mut fs = MemFs::default();
        fs.put("input.txt", b"12 34 7 1005");
        ChirpServer::new(fs, Cookie::generate(9))
    };
    for (name, image) in [
        ("reads_and_writes", programs::reads_and_writes()),
        ("generated", programs::generate(11)),
        ("generated", programs::generate(12)),
    ] {
        obs::reset_span_ids(0);
        let mut client = ChirpClient::new(DirectTransport::new(server()));
        client.auth(Cookie::generate(9).as_bytes()).expect("auth");
        let bare = run_wrapped(
            &image,
            &Installation::healthy(),
            &mut ChirpJobIo::new(client),
        );

        obs::reset_span_ids(0);
        let transport = TimedTransport::new(DirectTransport::new(server()), &t, &counters);
        let mut client = ChirpClient::new(transport);
        client.auth(Cookie::generate(9).as_bytes()).expect("auth");
        let mut io = ChirpJobIo::new(client);
        let decorated = run_wrapped(
            &image,
            &Installation::healthy(),
            &mut TimedJobIo::new(&mut io, &t),
        );
        assert_eq!(bare, decorated, "{name}: a decorator changed the run");
    }
    assert!(counters.calls.get() > 3, "the programs must do remote I/O");
}

#[test]
fn both_engines_agree_on_the_same_world() {
    let t = Tracer::new(false);
    let sizes = Sizes::SMOKE;
    let seq = fed::run_seq(fed::setup(3, &sizes, &t), &sizes, &t);
    let par = fed::run_par(fed::setup(3, &sizes, &t), &sizes, &t);
    assert!(seq.events > 0);
    assert_eq!(seq.events, par.events);
    assert_eq!(
        seq.counts["desim.pending_at_end"],
        par.counts["desim.pending_at_end"]
    );
    assert_eq!(seq.counts["desim.net.dropped"], 0.0);
    assert_eq!(
        seq.engine_digest, par.engine_digest,
        "engines disagree on (events, now_us, net dropped, pending)"
    );
}

#[test]
fn harness_pool_driver_reproduces_poolbuilder_run() {
    let t = Tracer::new(false);
    for seed in [1000, 1001, 1002, 1003] {
        let c = campaign::generate(seed);
        obs::reset_span_ids(0);
        let theirs = c.run(true);
        obs::reset_span_ids(0);
        let (ours, _) = pool::drain(
            pool::build(c.build_pool(true), &t),
            campaign::gen::deadline(),
            &t,
            None,
        );
        assert_eq!(ours.events, theirs.events, "seed {seed}");
        assert_eq!(ours.finished_at, theirs.finished_at, "seed {seed}");
        assert_eq!(ours.quiescent, theirs.quiescent, "seed {seed}");
        assert_eq!(
            ours.telemetry.to_jsonl_with_meta(),
            theirs.telemetry.to_jsonl_with_meta(),
            "seed {seed}"
        );
        assert_eq!(
            ours.registry().snapshot_json(),
            theirs.registry().snapshot_json(),
            "seed {seed}"
        );
        assert_eq!(
            format!("{:?}", ours.jobs),
            format!("{:?}", theirs.jobs),
            "seed {seed}"
        );
    }
}

#[test]
fn span_self_time_is_duration_minus_children() {
    let t = Tracer::new(true);
    // run 0..100: exec 10..70 containing io 20..50 containing call 30..40,
    // then a second top-level span 70..90.
    t.enter_at(Kind::GridvmExec, 10);
    t.enter_at(Kind::ChirpIo, 20);
    t.enter_at(Kind::ChirpCall, 30);
    t.exit_at(40);
    t.exit_at(50);
    t.exit_at(70);
    t.enter_at(Kind::GridvmWrapper, 70);
    t.exit_at(90);
    let (spans, dropped) = t.spans();
    assert_eq!(dropped, 0);
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[0].parent, None);
    let agg = t.take_aggregate();
    let exec = agg.get(Kind::GridvmExec);
    assert_eq!(
        (exec.total_ns, exec.self_ns, exec.top_level_ns),
        (60, 30, 60)
    );
    let io = agg.get(Kind::ChirpIo);
    assert_eq!((io.total_ns, io.self_ns, io.top_level_ns), (30, 20, 0));
    let call = agg.get(Kind::ChirpCall);
    assert_eq!((call.total_ns, call.self_ns, call.count), (10, 10, 1));
    // Self times partition the top-level time exactly.
    let self_sum: u64 = Kind::ALL.iter().map(|k| agg.get(*k).self_ns).sum();
    assert_eq!(self_sum, 80);
    assert_eq!(agg.top_level_s(), 80e-9);
    // Taking the aggregate resets it; the span list is kept.
    assert_eq!(t.take_aggregate().get(Kind::GridvmExec).count, 0);
    assert_eq!(t.spans().0.len(), 4);
}

#[test]
fn every_span_kind_has_a_per_layer_metric() {
    for &kind in Kind::ALL {
        let metric = span_metric(kind);
        assert_eq!(metric, format!("{}_s", kind.name()));
    }
}

fn smoke_measurement(name: &str) -> ledger::measure::Measurement {
    measure(&Config {
        workload: name,
        seed: 1,
        sizes: Sizes::SMOKE,
        stop: Stop::Reps(2),
        trace: false,
    })
    .expect("smoke measurement")
}

#[test]
fn result_file_and_trace_file_reparse() {
    let m = smoke_measurement("vm_hot_loops");
    let entry = workload_entry(&m);
    let parsed = obs::json::parse(&entry).expect("entry is JSON");
    assert_eq!(
        parsed.get("sim_digest").and_then(Json::as_str),
        Some(format!("{:016x}", m.outcome.digest).as_str())
    );
    let doc = result_file("run", 1, 2, "smoke", &[(m.workload.clone(), entry)]);
    let stored = parse_result_file(&doc).expect("result file re-parses");
    assert_eq!(stored.seed, 1);
    assert_eq!(stored.size, "smoke");
    let w = &stored.workloads["vm_hot_loops"];
    assert_eq!(w.ops_failed, 0);
    assert_eq!(w.end_to_end["wall_s"].n, 2);
    assert_eq!(w.end_to_end["wall_s"].median, m.end_to_end["wall_s"].median);
    // A file compared with itself neither regresses nor improves (two
    // smoke-sized reps may be too far apart to resolve anything).
    let cmp = compare(&stored, &stored);
    assert!(!cmp.failed(), "{}", cmp.render());
    assert!(cmp
        .rows
        .iter()
        .all(|r| matches!(r.verdict, Verdict::Unchanged | Verdict::Unresolved)));

    let t = Tracer::new(true);
    run_once("vm_hot_loops", 1, &t);
    let trace = obs::json::parse(&t.chrome_trace("vm_hot_loops")).expect("trace is JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert_eq!(events.len(), t.spans().0.len());
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("dur").and_then(as_f64).is_some()));
}

fn summary(median: f64, half_spread: f64) -> Summary {
    Summary {
        median,
        q1: median - half_spread,
        q3: median + half_spread,
        min: median - 2.0 * half_spread,
        max: median + 2.0 * half_spread,
        n: 5,
    }
}

#[test]
fn compare_verdicts() {
    let metric = |name: &str| end_to_end(name).expect("known metric");
    let wall = |a: Summary, b: Summary| judge(metric("wall_s"), &a, &b).1;
    assert_eq!(
        wall(summary(10.0, 0.1), summary(11.0, 0.1)),
        Verdict::Unchanged
    );
    assert_eq!(
        wall(summary(10.0, 0.1), summary(13.0, 0.1)),
        Verdict::Regressed
    );
    assert_eq!(
        wall(summary(10.0, 0.1), summary(7.0, 0.1)),
        Verdict::Improved
    );
    // A spread wider than the bound hides the answer…
    assert_eq!(
        wall(summary(10.0, 1.5), summary(13.0, 0.1)),
        Verdict::Unresolved
    );
    assert_eq!(
        wall(summary(10.0, 0.1), summary(10.1, 1.5)),
        Verdict::Unresolved
    );
    // …unless every run of B beat every run of A.
    assert_eq!(
        wall(summary(10.0, 1.5), summary(3.0, 0.5)),
        Verdict::Improved
    );
    // Higher-is-better metrics regress downward.
    let (worse, v) = judge(
        metric("jobs_per_s"),
        &summary(100.0, 1.0),
        &summary(70.0, 1.0),
    );
    assert_eq!(v, Verdict::Regressed);
    assert!((worse - 0.3).abs() < 1e-12);
    // Differences under the absolute floor are never regressions.
    let v = judge(
        metric("setup_s"),
        &summary(0.001, 0.0),
        &summary(0.004, 0.0),
    )
    .1;
    assert_eq!(v, Verdict::Unchanged);
    let rss = |a: f64, b: f64| {
        judge(
            metric("peak_rss_mb"),
            &Summary::single(a),
            &Summary::single(b),
        )
        .1
    };
    assert_eq!(rss(11.4, 13.3), Verdict::Unchanged);
    assert_eq!(rss(500.0, 600.0), Verdict::Regressed);
    assert_eq!(rss(500.0, 499.0), Verdict::Unchanged);
    // failed_share: any increase regresses.
    let v = judge(
        metric("failed_share"),
        &Summary::single(0.0),
        &Summary::single(0.001),
    )
    .1;
    assert_eq!(v, Verdict::Regressed);
}

#[test]
fn compare_fails_on_a_digest_difference() {
    let m = smoke_measurement("vm_short_jobs");
    let entry = workload_entry(&m);
    let a = result_file("run", 1, 2, "smoke", &[(m.workload.clone(), entry.clone())]);
    let forged = entry.replacen(&format!("{:016x}", m.outcome.digest), "00000000deadbeef", 1);
    let b = result_file("run", 1, 2, "smoke", &[(m.workload.clone(), forged)]);
    let cmp = compare(
        &parse_result_file(&a).expect("a"),
        &parse_result_file(&b).expect("b"),
    );
    assert!(cmp.failed());
    assert!(
        cmp.mismatches[0].contains("sim_digest"),
        "{:?}",
        cmp.mismatches
    );
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json`'s `(name, unit, better)` triples under `key`.
fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' array"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without '{k}'"))
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_what_the_binary_emits() {
    let doc = obs::json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json");

    // Workloads.
    let declared_workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(declared_workloads, NAMES);

    // End-to-end: the universal metrics, with their bounds.
    let universal: Vec<_> = END_TO_END.iter().filter(|e| e.universal).collect();
    let e2e = declared(&doc, "end_to_end");
    assert_eq!(e2e.len(), universal.len());
    for (d, (e, j)) in e2e.iter().zip(
        universal
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).expect("array")),
    ) {
        assert_eq!(
            (d.0.as_str(), d.1.as_str(), d.2.as_str()),
            (e.name, e.unit, e.better.as_str())
        );
        assert_eq!(j.get("bound").and_then(as_f64), Some(e.bound), "{}", e.name);
        assert!(e.bound <= 0.25);
    }

    // Per-layer: the whole table.
    let layers = declared(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (d, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(
            (d.0.as_str(), d.1.as_str(), d.2.as_str()),
            (name, unit, better.as_str())
        );
    }

    // Every name is well-formed and used once.
    let mut seen = BTreeSet::new();
    for name in declared_workloads
        .iter()
        .copied()
        .chain(e2e.iter().map(|d| d.0.as_str()))
        .chain(layers.iter().map(|d| d.0.as_str()))
    {
        assert!(well_formed(name) && name.len() <= 64, "bad name '{name}'");
        assert!(seen.insert(name.to_string()), "'{name}' is used twice");
    }

    // And the line the driver reads carries exactly those names.
    let mut m = smoke_measurement("pool_drain");
    for (trace, want) in [(false, &e2e), (true, &layers)] {
        if trace {
            m.layers.insert("desim.run_s", 0.5);
        }
        let line = obs::json::parse(&gate_line(&m, trace).expect("gate line")).expect("JSON");
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics object");
        };
        let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
        let declared: BTreeSet<&str> = want.iter().map(|d| d.0.as_str()).collect();
        assert_eq!(emitted, declared, "trace={trace}");
        for (name, unit, _) in want {
            assert_eq!(
                metrics[name].get("unit").and_then(Json::as_str),
                Some(unit.as_str())
            );
            assert!(metrics[name].get("value").and_then(as_f64).is_some());
        }
        if !trace {
            // End-to-end values are the run's fast quartile.
            let value = |name: &str| metrics[name].get("value").and_then(as_f64);
            assert_eq!(value("wall_s"), Some(m.end_to_end["wall_s"].q1));
            assert_eq!(value("setup_s"), Some(m.end_to_end["setup_s"].q1));
        }
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Json::as_u64) >= Some(1));
    }
}
