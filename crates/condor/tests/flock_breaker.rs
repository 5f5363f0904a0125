//! Circuit-breaker recovery against a remote matchmaker.
//!
//! The flock probe doubles as the breaker's half-open trial request: when
//! a remote pool's breaker half-opens, the next starving-job escalation
//! sends one FlockRequest through it. A probe timeout while half-open
//! must reopen the breaker (with a longer open window); a successful
//! negotiation must close it and let flocked jobs flow again.

use condor::matchmaker::AD_LIFETIME;
use condor::prelude::*;
use condor::{CircuitBreaker, FederationBuilder, Matchmaker, Msg, Startd};
use desim::prelude::*;
use gridvm::programs;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Breaker transitions recorded for the remote matchmaker's actor id,
/// as (from, to) pairs in stream order.
fn transitions(report: &condor::FlockReport, matchmaker: usize) -> Vec<(String, String)> {
    report
        .telemetry
        .iter()
        .filter_map(|r| match &r.event {
            obs::Event::BreakerStateChange { machine, from, to }
                if *machine == matchmaker as u64 =>
            {
                Some((from.clone(), to.clone()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn pool_breaker_reopens_on_probe_timeout_and_closes_on_negotiation() {
    // Pool 1's matchmaker is dead until t=200: probes fail, the breaker
    // opens, the half-open trial probe times out and reopens it, and
    // after the heal a probe finally succeeds, closes the breaker, and
    // the job completes on pool 1's machine.
    let breaker = BreakerPolicy {
        threshold: 2,
        open_for: SimDuration::from_secs(60),
        max_open: SimDuration::from_secs(600),
    };
    let report = FederationBuilder::new(61)
        .pool([])
        .pool([MachineSpec::healthy("r1", 256)])
        .pool_breaker(breaker)
        .faults(FaultPlan::none().crash(
            FederationBuilder::matchmaker_id(1),
            Window::new(SimTime::ZERO, t(200)),
        ))
        .job(
            JobSpec::java(1, "ada", programs::completes_main(), JavaMode::Scoped)
                .with_exec_time(SimDuration::from_secs(30)),
        )
        .run(t(3600));

    assert!(report.quiescent, "{:?}", report.jobs);
    assert_eq!(report.metrics.jobs_completed, 1);

    let trs = transitions(&report, FederationBuilder::matchmaker_id(1));
    assert!(
        trs.iter().any(|(f, to)| f == "closed" && to == "open"),
        "repeated probe timeouts must open the breaker: {trs:?}"
    );
    assert!(
        trs.iter().any(|(f, to)| f == "half-open" && to == "open"),
        "a half-open trial probe that times out must reopen: {trs:?}"
    );
    assert!(
        trs.iter().any(|(f, to)| f == "half-open" && to == "closed"),
        "a successful negotiation must close the breaker: {trs:?}"
    );
    // The reopen window doubles: the close comes only after the heal.
    let unreachable = report
        .telemetry
        .iter()
        .filter(|r| {
            matches!(&r.event,
                obs::Event::FlockFault { pool, kind, .. } if *pool == 1 && kind == "unreachable")
        })
        .count();
    assert!(unreachable >= 3, "every failed probe is an explicit fault");
    // Time to detect, pinned (µs). The probes ride the schedd's 5-s tick,
    // which the idle job keeps armed; its patience runs from the instant
    // it went idle — submission — where it used to run from the first tick
    // that saw it idle, so every instant is 5 s sooner than under the
    // job-ad drumbeat (85 s, 155 s, 275.002 s): the probes fail at 40 and
    // 80, the breaker opens, reopens from half-open, and closes.
    let at: Vec<(u64, String)> = (report.telemetry.iter())
        .filter_map(|r| match &r.event {
            obs::Event::BreakerStateChange { machine, to, .. }
                if *machine == FederationBuilder::matchmaker_id(1) as u64 =>
            {
                Some((r.at_us, to.clone()))
            }
            _ => None,
        })
        .collect();
    let recorded = [
        (80_000_000, "open"),
        (150_000_000, "open"),
        (270_002_000, "closed"),
    ];
    assert_eq!(at, recorded.map(|(at, to)| (at, to.to_string())));
    // The job eventually ran on the once-broken pool.
    let machine = report.jobs[&1].attempts.last().unwrap().machine;
    assert_eq!(report.pool_of_machine[&machine], 1);
    assert!(
        report.jobs[&1].finished.unwrap() >= t(200),
        "after the heal"
    );
}

/// Probes a matchmaker at given instants and keeps what it grants.
struct Prober {
    matchmaker: ActorId,
    at: Vec<SimTime>,
    free: Vec<u64>,
}

impl Actor<Msg> for Prober {
    fn name(&self) -> String {
        "prober".into()
    }
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for &at in &self.at {
            let request = Msg::FlockRequest { pool: 1 };
            ctx.send_after(at - SimTime::ZERO, self.matchmaker, request);
        }
    }
    fn on_message(&mut self, _: ActorId, msg: Msg, _: &mut Context<'_, Msg>) {
        if let Msg::FlockGrant { free, .. } = msg {
            self.free.push(free);
        }
    }
}

/// A grant counts the machines whose lease holds *now*. Expiry used to run
/// only inside a negotiation cycle, so a grant counted ads up to a period
/// past their lease — and a matchmaker that runs cycles only while a job
/// is queued would count them for ever. Two startds advertise at start-up
/// and keep alive at 15, then fall silent; nobody queues a job; a probe
/// just inside the lease is granted both machines, one just past it is
/// told the pool has none — an explicit denial, not a grant of ghosts.
#[test]
fn a_pool_of_silent_startds_denies_a_lifetime_later_with_no_job_queued() {
    let mut world: World<Msg> = World::new(62);
    let mm = world.add_actor(Box::new(Matchmaker::new().with_pool(1)));
    let silent_from = Window::new(t(20), SimTime::MAX);
    let plan = FaultPlan::none()
        .crash(mm + 1, silent_from)
        .crash(mm + 2, silent_from)
        .build();
    for name in ["r1", "r2"] {
        let spec = MachineSpec::healthy(name, 256);
        let startd = Startd::new(spec, StartdPolicy::default(), mm, plan.clone());
        world.add_actor(Box::new(startd.with_pool(1)));
    }
    let last_ad = SimTime::from_millis(15_001);
    let hop = SimDuration::from_millis(1);
    let prober = world.add_actor(Box::new(Prober {
        matchmaker: mm,
        // Arriving exactly a lifetime after the last ad, and a hop later.
        at: vec![last_ad + AD_LIFETIME, last_ad + AD_LIFETIME + hop],
        free: Vec::new(),
    }));
    world.run_until(t(100));
    assert_eq!(world.get::<Prober>(prober).unwrap().free, [2, 0]);
    let stats = world.get::<Matchmaker>(mm).unwrap().stats();
    assert_eq!((stats.cycles, stats.ads_expired), (0, 2));
}

#[test]
fn breaker_reopen_window_grows_per_half_open_failure() {
    // Direct state-machine check with the same policy the federation
    // uses: each half-open failure reopens for open_for << reopens.
    let policy = BreakerPolicy {
        threshold: 1,
        open_for: SimDuration::from_secs(60),
        max_open: SimDuration::from_secs(600),
    };
    let mut b = CircuitBreaker::new(policy);
    // First failure opens for 60s.
    assert!(b.on_failure(t(0)).is_some());
    assert!(b.is_blocked(t(30)));
    assert!(!b.is_blocked(t(61)), "half-open admits the probe");
    // Probe timeout while half-open: reopens, now for 120s.
    let tr = b.on_failure(t(71)).expect("reopen transition");
    assert_eq!(tr.from.name(), "half-open");
    assert_eq!(tr.to.name(), "open");
    assert!(b.is_blocked(t(130)), "doubled window still blocks");
    assert!(!b.is_blocked(t(192)), "half-open again after 120s");
    // Successful negotiation closes from half-open.
    let tr = b.on_success(t(193)).expect("close transition");
    assert_eq!(tr.from.name(), "half-open");
    assert_eq!(tr.to.name(), "closed");
    assert!(!b.is_blocked(t(194)));
}
