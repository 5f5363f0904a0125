//! Experiment E5 — the cost of disciplined error propagation.
//!
//! §4 claims the necessary changes were "small but powerful"; this
//! experiment times scoped errors against a bare `Result<_, String>`:
//! construction, propagation through the Figure 3 stack, auditing, and
//! result-file serialisation. Wall-clock, so nothing here is gated or
//! exported: the figures are a local signal on the machine that ran them.
//!
//! Run with: `cargo run --release -p bench --bin exp -- e5`

use crate::harness::{time_ns, Size};
use crate::{f, render_table};
use errorscope::audit::{audit_delivery, audit_error};
use errorscope::prelude::*;
use errorscope::resultfile::ResultFile;
use std::hint::black_box;

pub fn run(_: Size, _: &[String]) {
    println!("E5: the cost of disciplined error propagation (ns per operation)\n");

    let stack = java_universe_stack();
    let delivery = stack.propagate(
        ScopedError::escaping(
            codes::OUT_OF_MEMORY,
            Scope::VirtualMachine,
            "wrapper",
            "oom",
        ),
        "wrapper",
    );
    let err = delivery.error.clone();
    let rf = ResultFile::environment_failure(
        Scope::LocalResource,
        codes::FILESYSTEM_OFFLINE,
        "home file system offline",
    );
    let json = rf.to_json();

    let rows = [
        (
            "construct a bare String error",
            time_ns(|| -> Result<(), String> {
                Err(black_box("FileNotFound: data.in").to_string())
            }),
        ),
        (
            "construct a ScopedError",
            time_ns(|| {
                ScopedError::explicit(
                    codes::FILE_NOT_FOUND,
                    Scope::File,
                    "io-library",
                    black_box("no such file: data.in"),
                )
            }),
        ),
        (
            "route through the Figure 3 stack",
            time_ns(|| {
                let e = ScopedError::escaping(
                    codes::FILESYSTEM_OFFLINE,
                    Scope::LocalResource,
                    "wrapper",
                    "nfs down",
                );
                stack.propagate(e, "wrapper")
            }),
        ),
        (
            "widen, escape, forward, re-express, handle",
            time_ns(|| {
                ScopedError::explicit(codes::CONNECTION_TIMED_OUT, Scope::Network, "sock", "")
                    .widen(Scope::Process, "rpc")
                    .escape("rpc")
                    .forwarded("starter")
                    .reexpress("shadow")
                    .handle("schedd")
            }),
        ),
        (
            "audit an error's trail",
            time_ns(|| audit_error(black_box(&err))),
        ),
        (
            "audit a delivery",
            time_ns(|| audit_delivery(&stack, black_box(&delivery))),
        ),
        ("serialise a result file", time_ns(|| rf.to_json())),
        (
            "parse a result file",
            time_ns(|| ResultFile::from_json(black_box(&json)).unwrap()),
        ),
    ];

    println!(
        "{}",
        render_table(
            &["operation", "ns"],
            &rows
                .iter()
                .map(|(what, ns)| vec![what.to_string(), f(*ns, 0)])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "Paper's shape: the discipline costs tens to hundreds of nanoseconds per\n\
         error — nothing beside a job's seconds. 'Small but powerful.'"
    );
}
