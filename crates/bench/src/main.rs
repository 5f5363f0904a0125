//! `exp` — run the paper's figures and experiments by id.
//!
//! ```text
//! exp list                      the table: ids, titles, operands, artifacts
//! exp <id>... [--smoke]         run experiments in the order given
//! exp all [--smoke]             run every row
//! exp e7 --localize             E7's post-mortem cross-check
//! exp e13 --phases [--smoke]    where the scaling world's wall-clock goes
//! exp e10 <faulty> <reference>  localize two exported event streams
//! exp census [--cost] [--smoke] deliveries per message kind over the
//!                               ledger's three simulated worlds, and
//!                               with --cost the handler time by kind
//! ```
//!
//! Artifacts (`BENCH_*`) land in the working directory. Every gate is an
//! assertion: a failed one aborts with a non-zero exit.

use bench::harness::Size;
use bench::{experiment, Experiment, EXPERIMENTS};

fn usage(problem: &str) -> ! {
    eprintln!(
        "exp: {problem}\nusage: exp list | exp all [--smoke] | exp <id>... [--smoke] | exp census [--cost] [--smoke]"
    );
    std::process::exit(2);
}

fn list() {
    for e in &EXPERIMENTS {
        println!("{:<4} {}", e.id, e.title);
        if !e.operands.is_empty() {
            println!("       takes {}", e.operands);
        }
        for file in e.artifacts {
            println!("       writes {file}");
        }
    }
}

fn main() {
    let mut size = Size::Full;
    let mut chosen: Vec<&Experiment> = Vec::new();
    let mut operands: Vec<String> = Vec::new();
    let mut census = false;
    let mut cost = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "list" => return list(),
            "census" => census = true,
            "--cost" => cost = true,
            "--smoke" => size = Size::Smoke,
            "all" => chosen.extend(&EXPERIMENTS),
            other => match experiment(other) {
                Some(e) => chosen.push(e),
                None => operands.push(arg),
            },
        }
    }
    if census {
        if !(chosen.is_empty() && operands.is_empty()) {
            usage("census runs by itself");
        }
        return bench::experiments::census::run(size, cost);
    }
    if cost {
        usage("--cost goes with census");
    }
    match chosen.as_slice() {
        [] => usage(&format!("no experiment among {operands:?}")),
        [one] if !one.operands.is_empty() => {}
        _ if !operands.is_empty() => usage(&format!("unexpected arguments {operands:?}")),
        _ => {}
    }
    for (i, e) in chosen.iter().enumerate() {
        if chosen.len() > 1 {
            println!(
                "{}==> {} — {}\n",
                if i > 0 { "\n" } else { "" },
                e.id,
                e.title
            );
        }
        (e.run)(size, &operands);
    }
}
