//! Tier-1 coverage of the experiment table and its driver.

use bench::harness::{artifact, drive, Size};
use bench::{experiment, EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The ids EXPERIMENTS.md gives a harness: each `## F1 — …` / `## E7 — …` /
/// `## EXT — …` section whose **Harness:** line quotes `exp <id>`.
fn documented_ids() -> BTreeSet<String> {
    let doc =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"))
            .expect("EXPERIMENTS.md at the repo root");
    let mut ids = BTreeSet::new();
    for section in doc.split("\n## ").skip(1) {
        let id = section
            .split_whitespace()
            .next()
            .expect("a heading has a first word")
            .to_lowercase();
        let numbered = id
            .strip_prefix(['f', 'e'])
            .is_some_and(|n| n.parse::<u32>().is_ok());
        if !(numbered || id == "ext") {
            continue;
        }
        let Some(harness) = section.lines().find(|l| l.starts_with("**Harness:**")) else {
            continue;
        };
        assert!(
            harness.contains(&format!("`exp {id}`")),
            "EXPERIMENTS.md section {id}: the Harness line must quote `exp {id}`: {harness}"
        );
        ids.insert(id);
    }
    ids
}

#[test]
fn the_table_and_experiments_md_name_the_same_experiments() {
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
    assert_eq!(table.len(), EXPERIMENTS.len(), "ids must be unique");
    assert_eq!(table, documented_ids());
    let files: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.artifacts)
        .copied()
        .collect();
    assert_eq!(
        files.iter().collect::<BTreeSet<_>>().len(),
        files.len(),
        "no two experiments may write the same file"
    );
}

/// The experiments that finish in milliseconds and write nothing run here,
/// so their assertions — Figure 1's phase order, Figure 3's handlers,
/// Figure 4's scope column, the Chirp contract audit — execute in tier-1.
#[test]
fn the_quick_experiments_pass_their_own_gates() {
    for id in ["f1", "f2", "f3", "f4", "e3", "e4"] {
        let e = experiment(id).expect("row exists");
        assert!(e.artifacts.is_empty(), "{id} must not write into the cwd");
        (e.run)(Size::Smoke, &[]);
    }
}

/// Negative control for the determinism gate: a pass whose second call
/// differs by one byte must fail the drive, naming the file, before
/// anything is written.
#[test]
fn drive_names_the_file_that_differs_between_passes() {
    let mut calls = 0u8;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drive(
            Size::Smoke,
            |_| {
                calls += 1;
                let files = vec![
                    artifact("BENCH_stable.json", "{}".to_string()),
                    artifact("BENCH_wobbly.json", format!("{{\"pass\":{calls}}}")),
                ];
                ((), files)
            },
            |(), _| unreachable!("finish must not run after a failed comparison"),
        )
    }));
    let panic = outcome.expect_err("differing passes must fail");
    let message = panic
        .downcast_ref::<String>()
        .expect("the gate panics with a formatted message");
    assert!(message.contains("BENCH_wobbly.json"), "{message}");
    assert!(!message.contains("BENCH_stable.json"), "{message}");
    assert_eq!(calls, 2);
    assert!(!Path::new("BENCH_stable.json").exists());
}

/// An exported stream is a function of (scenario, seed), not of what ran
/// before it in the process: `exp e1 e2` and `exp e2 e1` write the same
/// bytes.
#[test]
fn artifacts_do_not_depend_on_the_order_experiments_run_in() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("order");
    let spawn = |order: [&str; 2]| {
        let dir = root.join(order.concat());
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let child = Command::new(env!("CARGO_BIN_EXE_exp"))
            .args(order)
            .current_dir(&dir)
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn exp");
        (dir, child)
    };
    let runs = [spawn(["e1", "e2"]), spawn(["e2", "e1"])];
    let [forward, backward] = runs.map(|(dir, mut child)| {
        assert!(child.wait().expect("exp ran").success());
        dir
    });
    let written: Vec<&str> = ["e1", "e2"]
        .iter()
        .flat_map(|id| experiment(id).expect("row exists").artifacts)
        .copied()
        .collect();
    assert_eq!(written.len(), 4);
    for name in written {
        let read = |dir: &Path| std::fs::read(dir.join(name)).expect(name);
        assert!(
            read(&forward) == read(&backward),
            "{name} depends on run order"
        );
    }
}
