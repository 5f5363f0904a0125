//! The paper's figures and experiments as one table over one harness.
//!
//! Each experiment is a module with a `run(size, operands)` entry point
//! and one row of [`EXPERIMENTS`]; the `exp` binary looks rows up by id.
//! Experiments that export artifacts run under [`harness::drive`]; worlds
//! more than one experiment builds live in [`scenarios`].

pub mod experiments;
pub mod harness;
pub mod scenarios;

use harness::Size;

/// One row of the table: what `exp <id>` runs and what it leaves in the
/// working directory. Sizes, gates and measured results are the matching
/// `## <ID>` section of EXPERIMENTS.md (tests/experiments.rs holds the two
/// to the same ids).
pub struct Experiment {
    /// The id EXPERIMENTS.md files the experiment under, lower-cased.
    pub id: &'static str,
    pub title: &'static str,
    /// Usage of the operands the experiment accepts after its id, if any.
    pub operands: &'static str,
    pub artifacts: &'static [&'static str],
    pub run: fn(Size, &[String]),
}

pub static EXPERIMENTS: [Experiment; 18] = [
    Experiment {
        id: "f1",
        title: "Figure 1: the Condor kernel — one job's protocol trace",
        operands: "",
        artifacts: &[],
        run: experiments::kernel_trace::run,
    },
    Experiment {
        id: "f2",
        title: "Figure 2: the Java Universe — component activation sequence",
        operands: "",
        artifacts: &[],
        run: experiments::java_universe_trace::run,
    },
    Experiment {
        id: "f3",
        title: "Figure 3: error scopes and their handlers, theory and practice",
        operands: "",
        artifacts: &[],
        run: experiments::scope_routing::run,
    },
    Experiment {
        id: "f4",
        title: "Figure 4: JVM result codes vs the wrapper's result file",
        operands: "",
        artifacts: &[],
        run: experiments::jvm_result_codes::run,
    },
    Experiment {
        id: "e1",
        title: "naive (§2.3) vs scoped (§4) Java Universe",
        operands: "",
        artifacts: &[
            "BENCH_naive_vs_scoped.json",
            "BENCH_naive_vs_scoped.events.jsonl",
        ],
        run: experiments::naive_vs_scoped::run,
    },
    Experiment {
        id: "e2",
        title: "black-hole machines and their remedies (§5)",
        operands: "",
        artifacts: &["BENCH_blackhole.json", "BENCH_blackhole.events.jsonl"],
        run: experiments::blackhole::run,
    },
    Experiment {
        id: "e3",
        title: "indeterminate scope: hard vs soft mounts vs per-job criteria (§5)",
        operands: "",
        artifacts: &[],
        run: experiments::timeout_scope::run,
    },
    Experiment {
        id: "e4",
        title: "generic vs finite error interfaces (Principle 4)",
        operands: "",
        artifacts: &[],
        run: experiments::generic_vs_finite::run,
    },
    Experiment {
        id: "e5",
        title: "the cost of disciplined error propagation",
        operands: "",
        artifacts: &[],
        run: experiments::errorscope_cost::run,
    },
    Experiment {
        id: "ext",
        title: "Standard vs Vanilla universe on owner-interrupted workstations",
        operands: "",
        artifacts: &[
            "BENCH_standard_universe.json",
            "BENCH_standard_universe.events.jsonl",
        ],
        run: experiments::standard_universe::run,
    },
    Experiment {
        id: "e6",
        title: "checkpoint scope: what the server saves, what a corrupt image must not do",
        operands: "",
        artifacts: &[
            "BENCH_checkpoint.json",
            "BENCH_checkpoint.events.jsonl",
            "BENCH_checkpoint_corrupt.events.jsonl",
        ],
        run: experiments::checkpoint::run,
    },
    Experiment {
        id: "e7",
        title: "the network as an error scope: partitions, leases, adaptive retry",
        operands: "[--localize]",
        artifacts: &["BENCH_partition.json", "BENCH_partition.events.jsonl"],
        run: experiments::partition::run,
    },
    Experiment {
        id: "e9",
        title: "pool-scale negotiation: compiled ads, shape x shape",
        operands: "",
        artifacts: &["BENCH_matchmaker.json", "BENCH_matchmaker.events.jsonl"],
        run: experiments::matchmaker::run,
    },
    Experiment {
        id: "e10",
        title: "post-mortem fault localization from event streams",
        operands: "[<faulty.jsonl> <reference.jsonl>]",
        artifacts: &["BENCH_localize.json", "BENCH_localize.report.txt"],
        run: experiments::localize::run,
    },
    Experiment {
        id: "e11",
        title: "flocking: every remote-pool failure an explicit pool-scope error",
        operands: "",
        artifacts: &["BENCH_flock.json", "BENCH_flock.events.jsonl"],
        run: experiments::flock::run,
    },
    Experiment {
        id: "e12",
        title: "fault-campaign fuzzing under the P1-P4 oracle, with SDC injection",
        operands: "",
        artifacts: &["BENCH_campaign.json", "BENCH_campaign.violations.txt"],
        run: experiments::campaign::run,
    },
    Experiment {
        id: "e13",
        title: "intra-world parallel simulation: bit-identical at 1/2/8 threads",
        operands: "[--phases | --crossover]",
        artifacts: &["BENCH_parworld.json"],
        run: experiments::parworld::run,
    },
    Experiment {
        id: "e14",
        title: "the trace-compiled gridvm: guard exits with bit-identical error scopes",
        operands: "",
        artifacts: &["BENCH_gridvm.json"],
        run: experiments::gridvm::run,
    },
];

/// The row for `id`, if the table has one.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Render a fixed-width text table: a header row followed by data rows.
/// Column widths are computed from the content.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<width$} |", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a float with fixed decimals, for table cells.
pub fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "10000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("10000"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }
}
