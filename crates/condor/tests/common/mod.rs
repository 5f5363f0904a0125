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
    /// `(arrival time, job, epoch, ad)`.
    pub job_ads: Vec<(SimTime, u32, u64, Arc<ClassAd>)>,
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
            Msg::JobAd { job, ad, epoch } => self.job_ads.push((ctx.now, job, epoch, ad)),
            Msg::ClaimRequest { ad, .. } => self.claim_ads.push(ad),
            _ => {}
        }
    }
}

/// The ledger's `pool_drain` world at a size a test can afford: 300
/// machines, 450 java jobs of 60–240 s, the ledger's lease policy.
pub fn drain_pool() -> PoolBuilder {
    PoolBuilder::new(1)
        .machines((0..300).map(|i| MachineSpec::healthy(&format!("m{i}"), 256)))
        .jobs((1..=450).map(|i| {
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
