//! Experiment E10 — post-mortem fault localization from event streams.
//!
//! The runtime experiments prove errors are *routed* correctly while a
//! run is alive. This one proves the stream a run leaves behind is enough
//! to reconstruct what broke after the fact. For each fault scenario we
//! run a faulty pool and a fault-free reference pool from the *same
//! seed* — the simulator is deterministic, so the two event streams are
//! byte-identical until the fault first manifests — and hand both streams
//! to `obs_analyze::localize`, which diffs them, walks the error-scope
//! evidence forward from the divergence, and names a culprit. The verdict
//! is scored against the fault plan's own ground-truth labels.
//!
//! Scenarios (each exercising one evidence class):
//!
//! * **partition** — a timed partition cuts the schedd off from one
//!   machine; leases expire and claims time out. Expected: `link:{id}`.
//! * **blackhole** — a misconfigured high-memory machine attracts jobs
//!   and breaks every one, while staying perfectly reachable.
//!   Expected: `machine:{id}`.
//! * **badinstall** — a partial Java installation passes the trivial
//!   self-test but fails any job that touches the standard library.
//!   Expected: `machine:{id}`.
//! * **corrupt-ckpt** — the checkpoint server flips bits in stored
//!   images; every resume is discarded. Expected: `ckpt-server`.
//!
//! Gates: localization accuracy >= 95% across all scenario x seed cases;
//! two full passes produce byte-identical `BENCH_localize.json`; no
//! analyzed stream dropped a single event.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e10`
//! (pass `--smoke` for the CI-sized seed set, or
//! `exp e10 FAULTY.jsonl REFERENCE.jsonl` to localize exported streams).

use crate::harness::{artifact, drive, Artifact, Size};
use crate::render_table;
use crate::scenarios::adaptive_schedd_policy;
use condor::prelude::*;
use condor::{culprit_machine, CULPRIT_CKPT_SERVER};
use desim::{SimDuration, SimTime};
use gridvm::config::SelfTestDepth;
use gridvm::programs;
use obs_analyze::{localize, render_report, Localization, Stream};

const SCENARIOS: [&str; 4] = ["partition", "blackhole", "badinstall", "corrupt-ckpt"];
const ACCURACY_GATE: f64 = 0.95;

/// One scenario run: the fault plan carries its own ground-truth labels;
/// `faulty = false` builds the same pool with the fault removed.
fn run_scenario(scenario: &str, seed: u64, faulty: bool) -> (FaultPlan, RunReport) {
    let m0 = PoolBuilder::FIRST_MACHINE_ID;
    match scenario {
        "partition" => {
            let plan = if faulty {
                FaultPlan::none().net_partition(
                    [PoolBuilder::SCHEDD_ID],
                    [m0],
                    Window::new(SimTime::from_secs(60), SimTime::from_secs(400)),
                )
            } else {
                FaultPlan::none()
            };
            let report = PoolBuilder::new(seed)
                .machines((0..3).map(|i| MachineSpec::healthy(&format!("ws{i}"), 256)))
                .schedd_policy(adaptive_schedd_policy())
                .faults(plan.clone())
                .jobs((1..=4).map(|i| {
                    JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(120))
                }))
                .run(SimTime::from_secs(7200));
            (plan, report)
        }
        "blackhole" => {
            let plan = if faulty {
                FaultPlan::none().expect("black-hole", [culprit_machine(m0)])
            } else {
                FaultPlan::none()
            };
            let hole = if faulty {
                MachineSpec::misconfigured("hole", 4096)
            } else {
                MachineSpec::healthy("hole", 4096)
            };
            let report = PoolBuilder::new(seed)
                .machine(hole)
                .machine(MachineSpec::healthy("ok", 128))
                .schedd_policy(ScheddPolicy {
                    avoid_chronic_hosts: true,
                    avoid_threshold: 2,
                    ..ScheddPolicy::default()
                })
                .jobs((1..=4).map(|i| {
                    JobSpec::java(i, "ada", programs::completes_main(), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(20))
                }))
                .run(SimTime::from_secs(7200));
            (plan, report)
        }
        "badinstall" => {
            let plan = if faulty {
                FaultPlan::none().expect("bad-installation", [culprit_machine(m0)])
            } else {
                FaultPlan::none()
            };
            let half = if faulty {
                MachineSpec::partially_misconfigured("half", 4096)
            } else {
                MachineSpec::healthy("half", 4096)
            };
            let report = PoolBuilder::new(seed)
                .machine(half)
                .machine(MachineSpec::healthy("ok", 128))
                .startd_policy(StartdPolicy {
                    self_test: SelfTestDepth::Trivial,
                    learn_from_failures: true,
                    ..StartdPolicy::default()
                })
                .jobs((1..=3).map(|i| {
                    JobSpec::java(i, "ada", programs::uses_stdlib(), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(10))
                }))
                .run(SimTime::from_secs(7200));
            (plan, report)
        }
        "corrupt-ckpt" => {
            // Both runs share the owner-activity window (it is part of the
            // scenario, not the injected fault): the owner's return evicts
            // the job, forcing a checkpoint round-trip through the server.
            let plan = if faulty {
                FaultPlan::none()
                    .owner_activity(
                        m0,
                        Window::new(SimTime::from_secs(300), SimTime::from_secs(4000)),
                    )
                    .expect("corrupt-checkpoint", [CULPRIT_CKPT_SERVER.to_string()])
            } else {
                FaultPlan::none().owner_activity(
                    m0,
                    Window::new(SimTime::from_secs(300), SimTime::from_secs(4000)),
                )
            };
            let mut builder = PoolBuilder::new(seed)
                .machine(MachineSpec::healthy("interrupted", 1024))
                .machine(MachineSpec::healthy("backup", 128))
                .with_checkpoint_server()
                .faults(plan.clone())
                .job(JobSpec {
                    universe: Universe::Standard,
                    ..JobSpec::java(1, "ada", programs::calls_exit(0), JavaMode::Scoped)
                        .with_exec_time(SimDuration::from_secs(600))
                });
            if faulty {
                builder = builder.corrupt_checkpoints_for(1);
            }
            (plan, builder.run(SimTime::from_secs(48 * 3600)))
        }
        other => panic!("unknown scenario {other}"),
    }
}

/// One scored localization case.
struct Case {
    scenario: &'static str,
    seed: u64,
    expected: Vec<String>,
    loc: Localization,
    correct: bool,
}

fn run_case(scenario: &'static str, seed: u64) -> (Case, Stream) {
    let (plan, faulty) = run_scenario(scenario, seed, true);
    let (_, reference) = run_scenario(scenario, seed, false);
    // Gate: a truncated stream would silence the analysis, so refuse it.
    let fs = Stream::from_collector(&faulty.telemetry)
        .unwrap_or_else(|e| panic!("{scenario} seed {seed}: {e}"));
    let rs = Stream::from_collector(&reference.telemetry)
        .unwrap_or_else(|e| panic!("{scenario} seed {seed}: {e}"));
    let loc = localize(&fs, &rs);
    let expected = plan.accepted_culprits();
    let correct = loc.culprit.as_ref().is_some_and(|c| expected.contains(c));
    (
        Case {
            scenario,
            seed,
            expected,
            loc,
            correct,
        },
        fs,
    )
}

/// One full evaluation pass: every scenario x seed, scored.
fn evaluate(seeds: &[u64]) -> Vec<Case> {
    let mut cases = Vec::new();
    for scenario in SCENARIOS {
        for &seed in seeds {
            cases.push(run_case(scenario, seed).0);
        }
    }
    cases
}

/// Serialize a pass to the JSON snapshot. Deterministic by construction:
/// fixed iteration order, no timestamps.
fn snapshot(cases: &[Case]) -> String {
    let mut per_case = Vec::new();
    for c in cases {
        per_case.push(format!(
            "{{\"scenario\":\"{}\",\"seed\":{},\"expected\":[{}],\"culprit\":{},\
             \"class\":\"{}\",\"score\":{},\"correct\":{}}}",
            c.scenario,
            c.seed,
            c.expected
                .iter()
                .map(|e| format!("\"{e}\""))
                .collect::<Vec<_>>()
                .join(","),
            c.loc
                .culprit
                .as_ref()
                .map(|s| format!("\"{s}\""))
                .unwrap_or_else(|| "null".to_string()),
            c.loc.fault_class,
            c.loc.score,
            c.correct
        ));
    }
    let correct = cases.iter().filter(|c| c.correct).count();
    format!(
        "{{\"cases\":{},\"correct\":{},\"accuracy\":{:.4},\"gate\":{:.2},\"results\":[{}]}}",
        cases.len(),
        correct,
        correct as f64 / cases.len() as f64,
        ACCURACY_GATE,
        per_case.join(",")
    )
}

fn print_table(cases: &[Case]) {
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.scenario.to_string(),
                c.seed.to_string(),
                c.loc.fault_class.clone(),
                c.loc.culprit.clone().unwrap_or_else(|| "-".to_string()),
                c.expected.join(" | "),
                c.loc.score.to_string(),
                if c.correct { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["scenario", "seed", "class", "named", "accepted", "score", "correct"],
            &rows,
        )
    );
}

fn analyze_files(faulty_path: &str, reference_path: &str) {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let fs = Stream::parse(&read(faulty_path)).expect("faulty stream");
    let rs = Stream::parse(&read(reference_path)).expect("reference stream");
    let loc = localize(&fs, &rs);
    print!("{}", render_report(&fs, &loc));
}

/// One pass: every scenario x seed scored, plus the representative
/// blackhole post-mortem.
fn pass(size: Size) -> (Vec<Case>, Vec<Artifact>) {
    let seeds: Vec<u64> = size.pick(11..=12, 11..=20).collect();
    // The report quotes span ids, so its run goes first: they then depend
    // on the scenario alone, not on how many cases ran before it.
    let (case, stream) = run_case("blackhole", seeds[0]);
    let cases = evaluate(&seeds);
    let files = vec![
        artifact("BENCH_localize.json", snapshot(&cases)),
        artifact(
            "BENCH_localize.report.txt",
            render_report(&stream, &case.loc),
        ),
    ];
    (cases, files)
}

pub fn run(size: Size, operands: &[String]) {
    match operands {
        [] => {}
        [faulty, reference] => return analyze_files(faulty, reference),
        other => panic!("e10 takes FAULTY.jsonl REFERENCE.jsonl, got {other:?}"),
    }

    println!(
        "E10: post-mortem fault localization — faulty vs same-seed reference\n\
         {} scenarios x {} seeds; culprit named from the event streams alone\n",
        SCENARIOS.len(),
        size.pick(2, 10)
    );

    drive(size, pass, |cases, _| {
        print_table(&cases);

        // Gate: accuracy.
        let correct = cases.iter().filter(|c| c.correct).count();
        let accuracy = correct as f64 / cases.len() as f64;
        for c in cases.iter().filter(|c| !c.correct) {
            println!(
                "MISS: {} seed {}: named {:?} ({}), accepted {:?}",
                c.scenario, c.seed, c.loc.culprit, c.loc.fault_class, c.expected
            );
        }
        assert!(
            accuracy >= ACCURACY_GATE,
            "localization accuracy {accuracy:.3} below the {ACCURACY_GATE} gate \
             ({correct}/{} cases)",
            cases.len()
        );
        println!(
            "\naccuracy: {correct}/{} cases ({:.1}%) — gate {:.0}% passed",
            cases.len(),
            100.0 * accuracy,
            100.0 * ACCURACY_GATE
        );
    });
}
