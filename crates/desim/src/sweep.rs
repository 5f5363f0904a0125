//! Parallel multi-seed sweeps.
//!
//! Experiments answer statistical questions ("median goodput over 32
//! seeds"), which means running the *same* scenario under many seeds. Each
//! [`crate::World`] is single-threaded and self-contained, so seeds are
//! embarrassingly parallel — [`run_sweep`] fans them out across the
//! process-wide [`crate::pool`] (shared with intra-world shard draining,
//! so nested parallelism never multiplies threads) and returns the results
//! **in seed order**, so whatever a caller builds from them — an event
//! stream, a registry snapshot — is bit-identical no matter how many
//! worker threads ran the sweep or which thread ran which seed.
//!
//! Three details make that guarantee hold:
//!
//! * Results are collected keyed by seed *index* and reassembled in index
//!   order; thread scheduling affects only wall-clock, never output order.
//! * Span ids are allocated from a thread-local counter
//!   ([`obs::next_span_id`]); before each seed's closure runs, the worker
//!   calls [`obs::reset_span_ids`] with a base derived from the seed's
//!   index ([`span_base`]). A seed's span ids are therefore a pure
//!   function of its own execution — and distinct across seeds.
//! * The submitting thread claims seeds inline alongside the pool
//!   helpers, so a sweep makes progress even when every pool worker is
//!   busy — it never blocks waiting for the pool.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Span-id stride between adjacent seeds: each seed `i` allocates span ids
/// in `[span_base(i), span_base(i+1))`. 2^40 ids per seed is unreachable
/// by any simulated run, so ranges never collide.
pub const SPAN_STRIDE: u64 = 1 << 40;

/// The first span id seed index `i` allocates (never 0, which is
/// [`obs::NO_SPAN`]).
pub fn span_base(seed_index: usize) -> u64 {
    (seed_index as u64) * SPAN_STRIDE + 1
}

/// The default fan-out width: one lane per core the host exposes
/// (floor 1). This is both the width experiments pass to sweeps when the
/// caller does not override it and the basis for the shared pool's size
/// ([`crate::pool::worker_count`]).
pub fn default_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Shared state for one in-flight sweep: the claim counter, the result
/// slots, and completion/panic plumbing. Lives in an `Arc` because pool
/// helpers are `'static` and may outlive a panicking driver's stack frame.
struct SweepJob<T, F> {
    seeds: Vec<u64>,
    run: F,
    next: AtomicUsize,
    slots: Mutex<Vec<Option<T>>>,
    done: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<T, F> SweepJob<T, F>
where
    T: Send + 'static,
    F: Fn(usize, u64) -> T + Send + Sync + 'static,
{
    /// Claim-and-run loop shared by the driver thread and pool helpers.
    /// Each claimed seed runs under its own span base; a panic is captured
    /// into the job (first one wins) and the loop keeps claiming so the
    /// driver is always released.
    fn drain_claims(&self) {
        let n = self.seeds.len();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                obs::reset_span_ids(span_base(i));
                (self.run)(i, self.seeds[i])
            }));
            match result {
                Ok(t) => self.slots.lock().expect("sweep slots")[i] = Some(t),
                Err(p) => {
                    let mut slot = self.panic.lock().expect("sweep panic slot");
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
            }
            let mut done = self.done.lock().expect("sweep done");
            *done += 1;
            if *done == n {
                self.all_done.notify_all();
            }
        }
    }

    fn wait_all_done(&self) {
        let n = self.seeds.len();
        let mut done = self.done.lock().expect("sweep done");
        while *done < n {
            done = self.all_done.wait(done).expect("sweep done");
        }
    }
}

/// Run `run(index, seed)` for every seed, fanning across at most
/// `threads` claim lanes (clamped to at least 1), and return the results
/// in seed order.
///
/// Lanes claim seeds from a shared counter, so a slow seed never stalls
/// the others. Before each claim the lane pins its thread-local span
/// counter to [`span_base`]`(index)`, making every result independent of
/// thread placement. The extra lanes run on the process-wide
/// [`crate::pool`]; the calling thread always claims inline, so the sweep
/// completes even if every pool worker is busy. Panics in `run`
/// propagate to the caller.
pub fn run_sweep<T, F>(seeds: &[u64], threads: usize, run: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize, u64) -> T + Send + Sync + 'static,
{
    let n = seeds.len();
    if n == 0 {
        return Vec::new();
    }
    let job = Arc::new(SweepJob {
        seeds: seeds.to_vec(),
        run,
        next: AtomicUsize::new(0),
        slots: Mutex::new((0..n).map(|_| None).collect()),
        done: Mutex::new(0),
        all_done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let helpers = threads.max(1).min(n).saturating_sub(1);
    for _ in 0..helpers {
        let job = Arc::clone(&job);
        crate::pool::spawn(move || job.drain_claims());
    }
    // The driver claims inline with its own span bracket: a sweep must
    // not disturb the caller's span-id position.
    let saved = obs::peek_span_id();
    job.drain_claims();
    obs::reset_span_ids(saved);
    job.wait_all_done();
    if let Some(p) = job.panic.lock().expect("sweep panic slot").take() {
        resume_unwind(p);
    }
    let slots = std::mem::take(&mut *job.slots.lock().expect("sweep slots"));
    slots
        .into_iter()
        .map(|s| s.expect("every seed produces exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, ActorId, Context};
    use crate::time::SimDuration;
    use crate::world::World;
    use obs::Event;

    #[derive(Debug, Clone)]
    struct Work;

    struct Churner {
        remaining: u32,
    }
    impl Actor<Work> for Churner {
        fn name(&self) -> String {
            "churner".into()
        }
        fn on_start(&mut self, ctx: &mut Context<'_, Work>) {
            ctx.send_self_after(SimDuration::from_micros(1), Work);
        }
        fn on_message(&mut self, _f: ActorId, _m: Work, ctx: &mut Context<'_, Work>) {
            if self.remaining == 0 {
                ctx.stop_world();
                return;
            }
            self.remaining -= 1;
            let span = obs::next_span_id();
            ctx.emit(Event::SpanHop {
                span,
                layer: "churner".into(),
                action: obs::SpanAction::Raised,
                scope: "local-job".into(),
            });
            let jitter = ctx.rng.range_u64(1, 50);
            ctx.send_self_after(SimDuration::from_micros(jitter), Work);
        }
    }

    /// One seed's run: the seed and the world's event stream.
    fn run_seed(_: usize, seed: u64) -> (u64, obs::Collector) {
        let mut w: World<Work> = World::new(seed);
        w.add_actor(Box::new(Churner { remaining: 40 }));
        w.run(10_000);
        (seed, w.telemetry().clone())
    }

    #[test]
    fn results_come_back_in_seed_order() {
        let seeds: Vec<u64> = (100..116).collect();
        let runs = run_sweep(&seeds, 4, run_seed);
        let got: Vec<u64> = runs.iter().map(|r| r.0).collect();
        assert_eq!(got, seeds);
    }

    #[test]
    fn merged_output_is_identical_across_thread_counts() {
        let seeds: Vec<u64> = (0..12).collect();
        let streams = |threads| -> Vec<String> {
            let runs = run_sweep(&seeds, threads, run_seed);
            runs.iter().map(|r| r.1.to_jsonl_with_meta()).collect()
        };
        let base = streams(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                base,
                streams(threads),
                "event streams must be bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn span_ids_are_disjoint_across_seeds() {
        let seeds: Vec<u64> = (0..4).collect();
        for (i, (_, telemetry)) in run_sweep(&seeds, 2, run_seed).iter().enumerate() {
            for r in telemetry.iter() {
                if let Some(span) = r.event.span() {
                    let base = span_base(i);
                    assert!(
                        span >= base && span < base + SPAN_STRIDE,
                        "seed index {i} produced span {span} outside its range"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_oversubscribed_sweeps_work() {
        assert!(run_sweep::<u64, _>(&[], 8, |_, s| s).is_empty());
        // More threads than seeds: clamped, still correct.
        let out = run_sweep(&[7, 9], 64, |_, s| s * 2);
        assert_eq!(out, vec![14, 18]);
    }
}
