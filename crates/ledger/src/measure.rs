//! The measurement loop: one workload, one process, closed loop.
//!
//! A measurement is one untimed warm-up run followed by timed reps; every
//! rep sets the workload up from the seed again and runs it, and the two
//! are timed apart. Every rep's digest must equal the warm-up's. With
//! tracing on, each cycle runs the workload twice — once untraced, once
//! under the span recorder — so the traced wall-clock has an untraced
//! twin taken seconds apart (their ratio is the tracing overhead), and
//! the end-to-end figures never include tracing.

use crate::metrics::layer_metrics;
use crate::probes;
use crate::stats::{median, quartiles};
use crate::tracer::{Aggregate, Tracer};
use crate::workloads::{self, Outcome, Sizes};
use std::collections::BTreeMap;
use std::time::Instant;

/// When to stop taking timed reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After exactly this many.
    Reps(usize),
    /// When another rep would not fit in this many seconds, counted from
    /// the start of the measurement (probes, warm-up and the cross-engine
    /// check included) — but never before [`MIN_REPS`] reps were timed.
    Seconds(f64),
}

/// Fewest timed reps a time-boxed measurement takes.
pub const MIN_REPS: usize = 3;

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Config<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// The run's seed.
    pub seed: u64,
    /// Size class.
    pub sizes: Sizes,
    /// Stop rule.
    pub stop: Stop,
    /// Also take traced reps and per-layer metrics.
    pub trace: bool,
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            median: median(samples),
            q1,
            q3,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// A value measured once per process.
    pub fn single(v: f64) -> Summary {
        Summary::of(&[v])
    }
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Worker threads the workload used.
    pub threads: usize,
    /// The deterministic outcome every run agreed on.
    pub outcome: Outcome,
    /// End-to-end metrics that apply to this workload (tracing off).
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics (medians over the traced reps), when traced.
    pub layers: BTreeMap<&'static str, f64>,
    /// Chrome trace-event document of the traced reps, when traced.
    pub chrome_trace: Option<String>,
}

struct Rep {
    setup_s: f64,
    wall_s: f64,
    outcome: Outcome,
    setup_agg: Aggregate,
    run_agg: Aggregate,
}

fn one_rep(name: &str, seed: u64, sizes: &Sizes, t: &Tracer) -> Result<Rep, String> {
    t.next_run();
    let started = Instant::now();
    let run = workloads::prepare(name, seed, sizes, t)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let setup_s = started.elapsed().as_secs_f64();
    let setup_agg = t.take_aggregate();
    let started = Instant::now();
    let outcome = run();
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        wall_s,
        outcome,
        setup_agg,
        run_agg: t.take_aggregate(),
    })
}

/// Peak resident set of this process so far in MB (`VmHWM`); `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn same(what: &str, expected: &Outcome, got: &Outcome) -> Result<(), String> {
    if got.digest == expected.digest
        && (got.attempted, got.failed) == (expected.attempted, expected.failed)
    {
        Ok(())
    } else {
        Err(format!(
            "{what}: sim_digest {:016x} ({} of {} ops failed) differs from the warm-up's \
             {:016x} ({} of {})",
            got.digest,
            got.failed,
            got.attempted,
            expected.digest,
            expected.failed,
            expected.attempted
        ))
    }
}

/// Measure one workload in this process.
pub fn measure(cfg: &Config<'_>) -> Result<Measurement, String> {
    let started = Instant::now();
    let (name, seed, sizes) = (cfg.workload, cfg.seed, &cfg.sizes);
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let probe_values = if cfg.trace {
        probes::run_all()
    } else {
        BTreeMap::new()
    };
    let dispatch = probe_values
        .get("probe.desim.dispatch_mev_per_s")
        .copied()
        .unwrap_or(0.0);

    let warm = one_rep(name, seed, sizes, &off)?.outcome;
    if let Some(other) = workloads::companion(name) {
        let theirs = one_rep(other, seed, sizes, &off)?.outcome;
        if theirs.engine_digest != warm.engine_digest {
            return Err(format!(
                "{name} and {other} disagree on (events, now_us, net dropped, pending): \
                 {} vs {} events",
                warm.events, theirs.events
            ));
        }
    }

    let (mut setup_s, mut wall_s) = (Vec::new(), Vec::new());
    let (mut traced_wall, mut companion_wall) = (Vec::new(), Vec::new());
    let mut layer_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut longest_cycle = 0.0f64;
    let mut peak_rss = None;
    loop {
        let cycle_started = Instant::now();
        let rep = one_rep(name, seed, sizes, &off)?;
        same("timed rep", &warm, &rep.outcome)?;
        setup_s.push(rep.setup_s);
        wall_s.push(rep.wall_s);
        if wall_s.len() == 1 {
            // Read here, not at exit: the figure must not depend on how
            // many reps the time box allowed (allocator state drifts by a
            // couple of MB over dozens of reps), nor include span storage.
            peak_rss = peak_rss_mb();
        }
        if cfg.trace {
            let rep = one_rep(name, seed, sizes, &on)?;
            same("traced rep", &warm, &rep.outcome)?;
            traced_wall.push(rep.wall_s);
            let layers = layer_metrics(
                &rep.outcome,
                &rep.setup_agg,
                &rep.run_agg,
                rep.wall_s,
                dispatch,
            );
            for (k, v) in layers {
                layer_samples.entry(k).or_default().push(v);
            }
            if let Some(other) = workloads::companion(name) {
                companion_wall.push(one_rep(other, seed, sizes, &off)?.wall_s);
            }
        }
        let done = match cfg.stop {
            Stop::Reps(n) => wall_s.len() >= n,
            Stop::Seconds(s) => {
                // A traced cycle runs the workload two or three times;
                // one cycle is enough for figures that carry no bound.
                let min = if cfg.trace { 1 } else { MIN_REPS };
                longest_cycle = longest_cycle.max(cycle_started.elapsed().as_secs_f64());
                wall_s.len() >= min && started.elapsed().as_secs_f64() + longest_cycle > s
            }
        };
        if done {
            break;
        }
    }

    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s", Summary::of(&setup_s));
    end_to_end.insert("wall_s", Summary::of(&wall_s));
    let mut rate = |metric: &'static str, n: u64, scale: f64| {
        if n > 0 {
            let per_s: Vec<f64> = wall_s.iter().map(|w| n as f64 / w / scale).collect();
            end_to_end.insert(metric, Summary::of(&per_s));
        }
    };
    rate("events_per_s", warm.events, 1.0);
    rate("jobs_per_s", warm.jobs, 1.0);
    rate("campaigns_per_s", warm.campaigns, 1.0);
    rate("vm_minstr_per_s", warm.instructions, 1e6);
    if let Some(mb) = peak_rss {
        end_to_end.insert("peak_rss_mb", Summary::single(mb));
    }
    end_to_end.insert(
        "failed_share",
        Summary::single(warm.failed as f64 / warm.attempted.max(1) as f64),
    );

    let mut layers: BTreeMap<&'static str, f64> =
        layer_samples.iter().map(|(k, v)| (*k, median(v))).collect();
    if cfg.trace {
        layers.extend(probe_values);
        layers.insert(
            "ledger.trace_overhead_share",
            median(&traced_wall) / median(&wall_s) - 1.0,
        );
        if !companion_wall.is_empty() {
            layers.insert(
                "desim.par.overhead_vs_seq",
                median(&wall_s) / median(&companion_wall) - 1.0,
            );
        }
    }
    Ok(Measurement {
        workload: name.to_string(),
        threads: workloads::threads(name),
        outcome: warm,
        end_to_end,
        layers,
        chrome_trace: cfg.trace.then(|| on.chrome_trace(name)),
    })
}
