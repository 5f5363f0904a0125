//! Figure 3 — "Error Scopes in the Java Universe".
//!
//! Regenerates Figure 3's scope/handler assignments two ways and checks
//! they agree:
//!
//! 1. **Theory**: route one error of every scope through the
//!    [`errorscope`] layer stack and record which program consumes it.
//! 2. **Practice**: inject the corresponding fault into a full simulated
//!    pool and observe which daemon acts and what the schedd's disposition
//!    is.
//!
//! Run with: `cargo run -p bench --bin exp -- f3`

use crate::harness::Size;
use crate::render_table;
use condor::prelude::*;
use desim::{SimDuration, SimTime};
use errorscope::prelude::*;
use gridvm::programs;

pub fn run(_: Size, _: &[String]) {
    // ── Theory: the layer stack of Figure 3 ────────────────────────────
    let stack = java_universe_stack();
    let cases = [
        (
            "program exception (array bounds)",
            codes::INDEX_OUT_OF_BOUNDS,
            Scope::Program,
            "user",
        ),
        (
            "not enough memory",
            codes::OUT_OF_MEMORY,
            Scope::VirtualMachine,
            "jvm",
        ),
        (
            "misconfigured installation",
            codes::MISCONFIGURED_INSTALLATION,
            Scope::RemoteResource,
            "starter",
        ),
        (
            "home file system offline",
            codes::FILESYSTEM_OFFLINE,
            Scope::LocalResource,
            "shadow",
        ),
        (
            "corrupt program image",
            codes::CORRUPT_IMAGE,
            Scope::Job,
            "schedd",
        ),
    ];

    let mut rows = Vec::new();
    for (what, code, scope, expected_handler) in &cases {
        let err = ScopedError::escaping(code.clone(), *scope, "wrapper", *what);
        let d = stack.propagate(err, "wrapper");
        assert_eq!(d.handled_by, Some(*expected_handler), "{what}");
        assert!(
            errorscope::audit::audit_delivery(&stack, &d).is_empty(),
            "principles hold for {what}"
        );
        rows.push(vec![
            what.to_string(),
            scope.name().to_string(),
            expected_handler.to_string(),
            d.handled_by.unwrap().to_string(),
            d.disposition.to_string(),
        ]);
    }
    println!("Figure 3 (theory): scopes and their handling programs\n");
    println!(
        "{}",
        render_table(
            &[
                "fault",
                "scope",
                "handler (paper)",
                "handler (ours)",
                "disposition"
            ],
            &rows,
        )
    );

    // ── Practice: the same faults through a live pool ──────────────────
    println!("Figure 3 (practice): the same faults through a simulated pool\n");
    let mut rows = Vec::new();

    // Program scope: the exception reaches the user as a result.
    let r = run_one(
        programs::index_out_of_bounds(),
        MachineSpec::healthy("m", 256),
    );
    rows.push(practice_row("program exception", &r, 1));

    // Remote-resource scope: rescheduled away from the bad host.
    let r = run_two(
        programs::completes_main(),
        MachineSpec::misconfigured("bad", 1024),
    );
    rows.push(practice_row("misconfigured installation", &r, 1));

    // Job scope: unexecutable, one attempt only.
    let r = run_one(programs::corrupt_image(), MachineSpec::healthy("m", 256));
    rows.push(practice_row("corrupt program image", &r, 1));

    println!(
        "{}",
        render_table(
            &["fault", "user outcome", "attempts", "env errors shown"],
            &rows
        )
    );
    println!("In every case the error reached the manager of its scope, and the");
    println!("user saw only program results — never the environment's problems.");
}

fn run_one(image: Vec<u8>, machine: MachineSpec) -> RunReport {
    PoolBuilder::new(3)
        .machine(machine)
        .job(
            JobSpec::java(1, "ada", image, JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(30)),
        )
        .run(SimTime::from_secs(3600))
}

fn run_two(image: Vec<u8>, bad: MachineSpec) -> RunReport {
    PoolBuilder::new(3)
        .machine(bad)
        .machine(MachineSpec::healthy("ok", 128))
        .schedd_policy(ScheddPolicy {
            avoid_chronic_hosts: true,
            ..ScheddPolicy::default()
        })
        .job(
            JobSpec::java(1, "ada", image, JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(30)),
        )
        .run(SimTime::from_secs(3600))
}

fn practice_row(what: &str, r: &RunReport, job: u32) -> Vec<String> {
    let rec = &r.jobs[&job];
    let outcome = r
        .user_log
        .iter()
        .find(|e| e.job == job)
        .map(|e| e.text.clone())
        .unwrap_or_else(|| "(nothing)".into());
    vec![
        what.to_string(),
        outcome,
        rec.attempts.len().to_string(),
        r.metrics.incidental_errors_shown_to_user.to_string(),
    ]
}
