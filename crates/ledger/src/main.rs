//! The `ledger` binary.
//!
//! ```text
//! ledger run     [--all | --workload W ...] [--seed S] [--reps N] [--out FILE] [--smoke]
//! ledger trace   [--all | --workload W ...] [--seed S] [--reps N] [--out FILE] [--smoke]
//! ledger compare A.json B.json
//! ledger gate    --workload W --seed S --seconds T --trace 0|1
//! ```
//!
//! `run` and `trace` re-execute this binary once per workload (as
//! `gate --entry …`), so each workload's `peak_rss_mb` is its own.

use ledger::compare::compare;
use ledger::measure::{measure, Config, Stop};
use ledger::report::{as_f64, gate_line, parse_result_file, result_file, workload_entry};
use ledger::workloads::{Sizes, NAMES};
use obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  ledger run     [--all | --workload W ...] [--seed S] [--reps N] [--out FILE] [--smoke]
  ledger trace   [--all | --workload W ...] [--seed S] [--reps N] [--out FILE] [--smoke]
  ledger compare A.json B.json
  ledger gate    --workload W --seed S --seconds T --trace 0|1";

/// Parsed command line: `--flag value` pairs, bare switches, positionals.
#[derive(Debug, Default)]
struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

const SWITCHES: [&str; 3] = ["--all", "--smoke", "--entry"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                args.values.push((a.clone(), v.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn all(&self, flag: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.all(flag).last().copied()
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad value '{v}'")),
        }
    }
}

/// `gate`: measure one workload in this process and print one line. With
/// `--entry` the line is a result-file entry (what `run`/`trace` collect)
/// instead of the acceptance driver's object.
fn gate(args: &Args) -> Result<(), String> {
    let workload = args.get("--workload").ok_or("gate needs --workload")?;
    let trace = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
    };
    let size = args.get("--size").unwrap_or("gate");
    let stop = match args.get("--reps") {
        Some(_) => Stop::Reps(args.number("--reps", 1usize)?.max(1)),
        None => Stop::Seconds(args.number("--seconds", 8.0)?),
    };
    let cfg = Config {
        workload,
        seed: args.number("--seed", 1)?,
        sizes: Sizes::by_name(size).ok_or(format!("unknown size class '{size}'"))?,
        stop,
        trace,
    };
    let m = measure(&cfg)?;
    if let (Some(path), Some(doc)) = (args.get("--trace-file"), &m.chrome_trace) {
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.has("--entry") {
        println!("{}", workload_entry(&m));
    } else {
        println!("{}", gate_line(&m, trace)?);
    }
    Ok(())
}

/// Print one collected entry: every metric by name, with its unit.
fn print_entry(name: &str, entry: &Json) {
    let text = |k: &str| {
        entry
            .get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let int = |k: &str| entry.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "{name}: sim_digest {} · {} thread(s) · {} of {} ops failed",
        text("sim_digest"),
        int("threads"),
        int("ops_failed"),
        int("ops_attempted")
    );
    if let Some(Json::Obj(metrics)) = entry.get("end_to_end") {
        for (metric, s) in metrics {
            let f = |k: &str| s.get(k).and_then(as_f64).unwrap_or(f64::NAN);
            println!(
                "  {metric:<18} {:>16.6} {:<9} [q1 {:.6}, q3 {:.6}] n={}",
                f("median"),
                s.get("unit").and_then(Json::as_str).unwrap_or(""),
                f("q1"),
                f("q3"),
                s.get("n").and_then(Json::as_u64).unwrap_or(0)
            );
        }
    }
    if let Some(Json::Obj(layers)) = entry.get("per_layer") {
        for (metric, v) in layers {
            println!(
                "  {metric:<44} {:>18.6} {}",
                v.get("value").and_then(as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
}

/// `run` / `trace`: one child process per workload, one result file.
fn run_all(args: &Args, trace: bool) -> Result<(), String> {
    let mut names: Vec<&str> = args.all("--workload");
    if names.is_empty() || args.has("--all") {
        names = NAMES.to_vec();
    }
    if let Some(bad) = names.iter().find(|n| !NAMES.contains(n)) {
        return Err(format!("unknown workload '{bad}'"));
    }
    let seed: u64 = args.number("--seed", 1)?;
    let reps: usize = args.number("--reps", 5)?;
    let size = if args.has("--smoke") { "smoke" } else { "full" };
    let kind = if trace { "trace" } else { "run" };
    let out = PathBuf::from(
        args.get("--out")
            .map_or_else(|| format!("crates/ledger/out/{kind}.json"), str::to_string),
    );
    let dir = out.parent().unwrap_or(Path::new(".")).to_path_buf();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;

    let mut entries = Vec::new();
    let mut failed_ops = 0;
    for name in names {
        let mut cmd = Command::new(&exe);
        cmd.args(["gate", "--entry", "--workload", name, "--size", size])
            .args(["--seed", &seed.to_string(), "--reps", &reps.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if trace {
            cmd.arg("--trace-file")
                .arg(dir.join(format!("{name}.trace.json")));
        }
        let child = cmd.output().map_err(|e| format!("{name}: {e}"))?;
        if !child.status.success() {
            return Err(format!("{name}: child exited with {}", child.status));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().last().unwrap_or("").to_string();
        let entry = obs::json::parse(&line).map_err(|e| format!("{name}: bad entry: {e}"))?;
        print_entry(name, &entry);
        failed_ops += entry.get("ops_failed").and_then(Json::as_u64).unwrap_or(0);
        entries.push((name.to_string(), line));
    }
    let doc = result_file(kind, seed, reps, size, &entries);
    parse_result_file(&doc).map_err(|e| format!("result file does not re-parse: {e}"))?;
    std::fs::write(&out, &doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if failed_ops > 0 {
        return Err(format!("{failed_ops} operation(s) failed"));
    }
    Ok(())
}

/// `compare`: exit status says whether B is no worse than A.
fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_result_file(&t).map_err(|e| format!("{p}: {e}")))
    };
    let cmp = compare(&load(a)?, &load(b)?);
    print!("{}", cmp.render());
    Ok(!cmp.failed())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => run_all(&args, false).map(|()| true),
        "trace" => run_all(&args, true).map(|()| true),
        "gate" => gate(&args).map(|()| true),
        "compare" => compare_files(&args),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
