//! Figure 1 — "The Condor Kernel".
//!
//! Regenerates the protocol structure of Figure 1 from the typed event
//! stream of one job's life: the matchmaking protocol (advertisement and
//! notification), the claiming protocol (request/accept), and the control
//! protocol (shadow ↔ starter activation and report).
//!
//! Run with: `cargo run -p bench --bin exp -- f1`

use crate::harness::Size;
use condor::prelude::*;
use condor::{PoolBuilder, Schedd};
use desim::{SimDuration, SimTime};
use gridvm::programs;

pub fn run(_: Size, _: &[String]) {
    let (mut world, schedd_id, _machines) = PoolBuilder::new(1)
        .machine(MachineSpec::healthy("node1", 256))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(60)),
        )
        .build();
    world.run_until(SimTime::from_secs(300));

    println!("Figure 1: The Condor Kernel — one job's protocol trace\n");
    let lines: Vec<String> = world.telemetry().iter().map(|r| r.to_string()).collect();
    println!("{}\n", lines.join("\n"));

    let schedd = world.get::<Schedd>(schedd_id).unwrap();
    assert!(schedd.all_done(), "the job must complete");

    println!("Protocol phases observed (the arrows of Figure 1):");
    let phases = [
        ("Matchmaking Protocol", "match job=1"),
        ("Claiming Protocol (schedd -> startd)", "requested"),
        ("Claiming Protocol (startd accepts)", "accepted"),
        ("Control Protocol (shadow activates)", "dispatch job=1"),
        ("Starter executes (fork)", "io auth ok"),
        ("Control Protocol (starter reports)", "disposition job=1"),
    ];
    // `any` consumes through its match, so each phase is searched for
    // strictly after the previous one: presence *and* order.
    let mut rest = lines.iter();
    for (phase, needle) in phases {
        let seen = rest.any(|l| l.contains(needle));
        println!("  [{}] {phase}", if seen { "x" } else { " " });
        assert!(seen, "phase missing or out of order: {phase}");
    }
    println!("\nAll Figure 1 protocol phases present, in causal order.");
}
