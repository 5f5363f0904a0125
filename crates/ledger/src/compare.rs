//! `ledger compare A.json B.json`: is B no worse than A?
//!
//! For every workload × end-to-end metric both files carry, the two
//! medians and quartiles, the relative change and the metric's bound. A
//! pairing whose run-to-run spread (inter-quartile distance over the
//! median, on either side) is wider than the bound is **unresolved**, not
//! unchanged — unless every run of B read better than every run of A.
//! Any regression, and any difference in `sim_digest` or `failed_share`,
//! fails the comparison.

use crate::measure::Summary;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::Stored;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// What a pairing shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Unchanged,
    /// Better by more than the bound, or better on every run.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The spread on one side is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric pairing.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Side A.
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// By what share of A's median B is worse (negative: better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A finished comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every pairing, workload-major.
    pub rows: Vec<Row>,
    /// Digest and failure-count differences, and workloads only one side
    /// has. Any entry fails the comparison.
    pub mismatches: Vec<String>,
    /// Differences that do not fail it (host class).
    pub warnings: Vec<String>,
}

fn spread(s: &Summary) -> f64 {
    if s.median == 0.0 {
        0.0
    } else {
        (s.q3 - s.q1) / s.median.abs()
    }
}

/// Judge one pairing of metric `e`: by what share of A's median B is
/// worse, and the verdict.
pub fn judge(e: &EndToEnd, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let (better, bound) = (e.better, e.bound);
    let worse_by = if a.median == 0.0 {
        match (b.median == 0.0, better) {
            (true, _) => 0.0,
            (false, Better::Lower) => f64::INFINITY,
            (false, Better::Higher) => f64::NEG_INFINITY,
        }
    } else {
        match better {
            Better::Lower => (b.median - a.median) / a.median,
            Better::Higher => (a.median - b.median) / a.median,
        }
    };
    // Only meaningful with several runs a side; a once-per-process value
    // (peak RSS) that is a hair lower is not an improvement.
    let b_always_better = a.n > 1
        && b.n > 1
        && match better {
            Better::Lower => b.max < a.min,
            Better::Higher => b.min > a.max,
        };
    let too_small = (b.median - a.median).abs() < e.abs_floor;
    let verdict = if b_always_better {
        Verdict::Improved
    } else if too_small {
        Verdict::Unchanged
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

/// Compare two parsed result files.
pub fn compare(a: &Stored, b: &Stored) -> Comparison {
    let mut out = Comparison::default();
    if a.nproc != b.nproc {
        out.warnings.push(format!(
            "host class differs: A ran on {} core(s), B on {}; timings are not comparable",
            a.nproc, b.nproc
        ));
    }
    if (a.seed, &a.size) != (b.seed, &b.size) {
        out.warnings.push(format!(
            "inputs differ: A is seed {} size {}, B is seed {} size {}",
            a.seed, a.size, b.seed, b.size
        ));
    }
    let names: BTreeSet<&String> = a.workloads.keys().chain(b.workloads.keys()).collect();
    for name in names {
        if !(a.workloads.contains_key(name) && b.workloads.contains_key(name)) {
            out.mismatches
                .push(format!("{name}: present on one side only"));
        }
    }
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            continue;
        };
        if wa.sim_digest != wb.sim_digest {
            out.mismatches.push(format!(
                "{name}: sim_digest {} vs {}",
                wa.sim_digest, wb.sim_digest
            ));
        }
        if (wa.ops_attempted, wa.ops_failed) != (wb.ops_attempted, wb.ops_failed) {
            out.mismatches.push(format!(
                "{name}: failed_share {}/{} vs {}/{}",
                wa.ops_failed, wa.ops_attempted, wb.ops_failed, wb.ops_attempted
            ));
        }
        for e in &END_TO_END {
            let (Some(sa), Some(sb)) = (wa.end_to_end.get(e.name), wb.end_to_end.get(e.name))
            else {
                continue;
            };
            let (worse_by, verdict) = judge(e, sa, sb);
            out.rows.push(Row {
                workload: name.clone(),
                metric: e.name,
                a: *sa,
                b: *sb,
                worse_by,
                bound: e.bound,
                verdict,
            });
        }
    }
    out
}

impl Comparison {
    /// Did any pairing regress, or any digest or failure count differ?
    pub fn failed(&self) -> bool {
        !self.mismatches.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// Pairings whose spread hides the answer.
    pub fn unresolved(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count()
    }

    /// The comparison as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<15} {:<16} {:>13} {:>22} {:>13} {:>22} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "A median",
            "A [q1, q3]",
            "B median",
            "B [q1, q3]",
            "worse",
            "bound"
        );
        for r in &self.rows {
            let iqr = |s: &Summary| format!("[{:.5}, {:.5}]", s.q1, s.q3);
            let _ = writeln!(
                out,
                "{:<15} {:<16} {:>13.5} {:>22} {:>13.5} {:>22} {:>+7.2}% {:>5.0}%  {}",
                r.workload,
                r.metric,
                r.a.median,
                iqr(&r.a),
                r.b.median,
                iqr(&r.b),
                r.worse_by * 100.0,
                r.bound * 100.0,
                r.verdict.as_str()
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH: {m}");
        }
        let regressed = self
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .count();
        let _ = writeln!(
            out,
            "{} pairings: {} regressed, {} unresolved, {} digest/failure mismatches",
            self.rows.len(),
            regressed,
            self.unresolved(),
            self.mismatches.len()
        );
        out
    }
}
