//! What the wire-level integration tests share: a tap that stands where a
//! daemon would, and the 300 × 450 drain world the recorded-constant tests
//! pin.
#![allow(dead_code)] // each test crate uses its own part

use classads::ClassAd;
use condor::prelude::*;
use condor::Msg;
use desim::prelude::*;
use std::sync::Arc;

/// One machine ad as it arrived at the tap.
pub struct MachineAdSeen {
    pub at: SimTime,
    pub from: ActorId,
    /// The sequence number it was stamped with.
    pub claims: u64,
    pub ad: Arc<ClassAd>,
}

/// Stands where a matchmaker (or a machine) would and keeps every ad sent
/// to it, in arrival order.
#[derive(Default)]
pub struct Wiretap {
    pub machine_ads: Vec<MachineAdSeen>,
    /// `(arrival time, job, epoch, ad)`: every entry of every job-ad
    /// message.
    pub job_ads: Vec<(SimTime, u32, u64, Arc<ClassAd>)>,
    /// `(arrival time, entries)` of each job-ad message.
    pub job_ad_msgs: Vec<(SimTime, usize)>,
    pub claim_ads: Vec<Arc<ClassAd>>,
}

impl Actor<Msg> for Wiretap {
    fn name(&self) -> String {
        "wiretap".into()
    }
    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::MachineAd { ad, claims } => self.machine_ads.push(MachineAdSeen {
                at: ctx.now,
                from,
                claims,
                ad,
            }),
            Msg::JobAd(adverts) => {
                self.job_ad_msgs.push((ctx.now, adverts.len()));
                let seen = adverts
                    .iter()
                    .map(|a| (ctx.now, a.job, a.epoch, Arc::clone(&a.ad)));
                self.job_ads.extend(seen);
            }
            Msg::ClaimRequest { ad, .. } => self.claim_ads.push(ad),
            _ => {}
        }
    }
}

/// A schedd whose one job fits no machine. A matchmaker runs cycles only
/// while it holds a job ad, so the tests that watch machine ads come and
/// go cycle by cycle queue this job there: it is renewed like any other,
/// never matched, and counts one in `ads_active`.
pub fn stuck_schedd(matchmaker: ActorId) -> Box<condor::Schedd> {
    let policy = ScheddPolicy::default();
    let mut schedd = condor::Schedd::new(matchmaker, policy, FaultPlan::none().build());
    let mut job = JobSpec::java(1, "ada", Vec::new(), JavaMode::Scoped);
    job.image_size = 1 << 20;
    schedd.submit(job);
    Box::new(schedd)
}

/// The ledger's `pool_drain` world at a size a test can afford: 300
/// machines, 450 java jobs of 60–240 s, the ledger's lease policy.
pub fn drain_pool() -> PoolBuilder {
    pool_of(300, 450)
}

/// The same world at any size.
pub fn pool_of(machines: usize, jobs: u32) -> PoolBuilder {
    PoolBuilder::new(1)
        .machines((0..machines).map(|i| MachineSpec::healthy(&format!("m{i}"), 256)))
        .jobs((1..=jobs).map(|i| {
            JobSpec::java(
                i,
                "ada",
                gridvm::programs::completes_main(),
                JavaMode::Scoped,
            )
            .with_exec_time(SimDuration::from_secs(60 + u64::from(i % 7) * 30))
        }))
        .schedd_policy(ScheddPolicy {
            lease: Some(LeaseInfo {
                interval: SimDuration::from_secs(10),
                timeout: SimDuration::from_secs(30),
            }),
            max_attempts: 60,
            ..ScheddPolicy::default()
        })
}
