//! The one driver every exporting experiment runs under.
//!
//! An experiment's `pass(size)` computes everything its artifacts are made
//! of and returns them as named strings; [`drive`] owns the export
//! protocol: two passes from the same span base, a byte-for-byte
//! comparison, the write to the working directory, the re-parse with the
//! repo's own parsers, and the footer.

use std::time::Instant;

/// How big a study to run: `--smoke` is the CI-sized one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Smoke,
    Full,
}

impl Size {
    /// The value for this size.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Size::Smoke => smoke,
            Size::Full => full,
        }
    }
}

/// One file an experiment writes into the working directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    pub name: &'static str,
    pub body: String,
}

pub fn artifact(name: &'static str, body: String) -> Artifact {
    Artifact { name, body }
}

/// Run `pass` twice, each from span id 1, and require the two passes'
/// artifacts to be byte-identical — so an exported stream is a function
/// of (scenario, seed) and never of what ran before it in the process.
/// `finish` then gets the first pass's result and artifacts: it prints the
/// report, asserts the gates, and splices in anything wall-clock (which
/// must stay out of the comparison). Finally every artifact is written to
/// the working directory and re-parsed: `.json` with [`obs::json::parse`],
/// `.jsonl` with [`obs::Collector::parse_jsonl`].
///
/// Panics, like every other gate of the experiments, naming the first
/// file that differs.
pub fn drive<T>(
    size: Size,
    mut pass: impl FnMut(Size) -> (T, Vec<Artifact>),
    finish: impl FnOnce(T, &mut Vec<Artifact>),
) {
    obs::reset_span_ids(0);
    let (first, mut files) = pass(size);
    obs::reset_span_ids(0);
    let (_, again) = pass(size);
    assert_eq!(
        files.len(),
        again.len(),
        "two passes must write the same files"
    );
    if let Some((a, _)) = files.iter().zip(&again).find(|(a, b)| a != b) {
        panic!(
            "two passes must serialize byte-identically: {} differs",
            a.name
        );
    }
    println!(
        "determinism: two passes byte-identical ({} file(s), {} bytes)\n",
        files.len(),
        files.iter().map(|a| a.body.len()).sum::<usize>()
    );

    finish(first, &mut files);

    println!();
    for a in &files {
        std::fs::write(a.name, &a.body).unwrap_or_else(|e| panic!("write {}: {e}", a.name));
        if a.name.ends_with(".jsonl") {
            let events = obs::Collector::parse_jsonl(&a.body)
                .unwrap_or_else(|e| panic!("{} is not valid JSONL: {e}", a.name));
            println!("Telemetry: {} ({} events)", a.name, events.len());
        } else {
            if a.name.ends_with(".json") {
                obs::json::parse(&a.body)
                    .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", a.name));
            }
            println!("Telemetry: {} ({} bytes)", a.name, a.body.len());
        }
    }
    println!("written and re-parsed cleanly.");
}

/// Mean nanoseconds per call of `f`: a plain timing loop that doubles the
/// batch until one batch runs for at least 20 ms, then reports the best
/// of five such batches. A local signal, not a statistics package.
pub fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    fn batch<R>(n: u64, f: &mut impl FnMut() -> R) -> f64 {
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(f());
        }
        start.elapsed().as_secs_f64()
    }
    let mut n = 1u64;
    while batch(n, &mut f) < 0.020 {
        n *= 2;
    }
    let best = (0..5).map(|_| batch(n, &mut f)).fold(f64::MAX, f64::min);
    best * 1e9 / n as f64
}
