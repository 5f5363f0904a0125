//! Time-based scope escalation for indeterminate errors — §5 of the paper.
//!
//! "The appropriate response to an error may be unclear if its scope is
//! indeterminate. … A failure to communicate for one second may be of
//! network scope, but a failure to communicate for a year likely has larger
//! scope. To distinguish between the two, a system must be given some
//! guidance in the form of timeouts or other resource constraints."
//!
//! [`EscalationPolicy`] maps elapsed failure duration to scope.
//! [`RetryCriteria`] models the NFS hard/soft-mount dilemma the paper cites:
//! a *hard* mount hides all network errors forever; a *soft* mount exposes
//! them after a fixed administrator-chosen retry period; neither lets "a
//! single program choose its own failure criteria" — which
//! [`RetryCriteria::PerJob`] provides.

use crate::scope::Scope;
use std::time::Duration;

/// A schedule of scope widenings keyed by how long the failure has
/// persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Scope assumed the instant the failure is observed.
    pub initial: Scope,
    /// `(after, scope)` pairs, sorted by `after` ascending: once the
    /// failure has persisted for at least `after`, its scope is at least
    /// `scope`. Every step must widen.
    steps: Vec<(Duration, Scope)>,
}

impl EscalationPolicy {
    /// Start from `initial` scope; with no steps added, it never widens.
    pub fn new(initial: Scope) -> Self {
        EscalationPolicy {
            initial,
            steps: Vec::new(),
        }
    }

    /// After `after` of persistent failure, widen to `scope`.
    ///
    /// # Panics
    /// If `scope` does not contain the previous step's scope, or `after` is
    /// not strictly increasing — escalation must be monotonic in both time
    /// and scope.
    pub fn after(mut self, after: Duration, scope: Scope) -> Self {
        let prev_scope = self.steps.last().map(|s| s.1).unwrap_or(self.initial);
        assert!(
            scope.contains(prev_scope),
            "escalation must widen: {prev_scope} -> {scope}"
        );
        if let Some(&(prev_after, _)) = self.steps.last() {
            assert!(
                after > prev_after,
                "escalation steps must be increasing in time"
            );
        }
        self.steps.push((after, scope));
        self
    }

    /// The scope of a failure that has persisted for `elapsed`.
    pub fn scope_at(&self, elapsed: Duration) -> Scope {
        self.steps
            .iter()
            .rev()
            .find(|(after, _)| elapsed >= *after)
            .map(|&(_, s)| s)
            .unwrap_or(self.initial)
    }

    /// The paper's canonical example for a refused connection: network
    /// scope for the first minute, process scope up to an hour, then
    /// cluster scope — "a failure to communicate for a year likely has
    /// larger scope".
    pub fn network_default() -> Self {
        EscalationPolicy::new(Scope::Network)
            .after(Duration::from_secs(60), Scope::Process)
            .after(Duration::from_secs(3600), Scope::Cluster)
    }
}

/// Failure criteria for an operation that may be retried — the NFS mount
/// analogy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCriteria {
    /// "Hard mounted": hide all network errors; retry forever. The caller
    /// never sees a failure — but may hang indefinitely.
    Hard,
    /// "Soft mounted": expose the error to callers after a fixed,
    /// administrator-chosen retry period. Every program on the machine gets
    /// the same deadline whether it wants it or not.
    Soft {
        /// The administrator-chosen retry period.
        timeout: Duration,
    },
    /// The mechanism the paper says both users and administrators want: a
    /// single program chooses its own failure criteria.
    PerJob {
        /// This job's own failure deadline.
        deadline: Duration,
    },
}

/// What the retry loop should do after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Try again (optionally after a pause chosen by the caller).
    Retry,
    /// Stop retrying and surface the error.
    GiveUp,
}

impl RetryCriteria {
    /// Decide whether to keep retrying after the failure has persisted for
    /// `elapsed`.
    pub fn decide(&self, elapsed: Duration) -> RetryDecision {
        match self {
            RetryCriteria::Hard => RetryDecision::Retry,
            RetryCriteria::Soft { timeout } => {
                if elapsed >= *timeout {
                    RetryDecision::GiveUp
                } else {
                    RetryDecision::Retry
                }
            }
            RetryCriteria::PerJob { deadline } => {
                if elapsed >= *deadline {
                    RetryDecision::GiveUp
                } else {
                    RetryDecision::Retry
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn fixed_policy_never_escalates() {
        let p = EscalationPolicy::new(Scope::Network);
        assert_eq!(p.scope_at(secs(0)), Scope::Network);
        assert_eq!(p.scope_at(secs(1_000_000)), Scope::Network);
    }

    #[test]
    fn network_default_escalates_monotonically() {
        let p = EscalationPolicy::network_default();
        assert_eq!(p.scope_at(secs(1)), Scope::Network);
        assert_eq!(p.scope_at(secs(59)), Scope::Network);
        assert_eq!(p.scope_at(secs(60)), Scope::Process);
        assert_eq!(p.scope_at(secs(3599)), Scope::Process);
        assert_eq!(p.scope_at(secs(3600)), Scope::Cluster);
        assert_eq!(p.scope_at(secs(86_400 * 365)), Scope::Cluster);
    }

    #[test]
    fn scope_never_shrinks_with_time() {
        let p = EscalationPolicy::network_default();
        let mut prev = p.scope_at(secs(0));
        for t in 0..5000 {
            let s = p.scope_at(secs(t));
            assert!(s.contains(prev), "scope shrank at t={t}");
            prev = s;
        }
    }

    #[test]
    #[should_panic]
    fn narrowing_step_is_rejected() {
        // Cluster -> Network would shrink.
        let _ = EscalationPolicy::new(Scope::Cluster).after(secs(10), Scope::Network);
    }

    #[test]
    #[should_panic]
    fn non_increasing_times_are_rejected() {
        let _ = EscalationPolicy::new(Scope::Network)
            .after(secs(10), Scope::Process)
            .after(secs(10), Scope::Cluster);
    }

    #[test]
    fn hard_mount_retries_forever() {
        let c = RetryCriteria::Hard;
        assert_eq!(c.decide(secs(86_400 * 365)), RetryDecision::Retry);
    }

    #[test]
    fn soft_mount_gives_up_at_admin_timeout() {
        let c = RetryCriteria::Soft { timeout: secs(30) };
        assert_eq!(c.decide(secs(29)), RetryDecision::Retry);
        assert_eq!(c.decide(secs(30)), RetryDecision::GiveUp);
    }

    #[test]
    fn per_job_deadline_is_independent_of_admin() {
        let patient = RetryCriteria::PerJob {
            deadline: secs(600),
        };
        let hasty = RetryCriteria::PerJob { deadline: secs(5) };
        assert_eq!(patient.decide(secs(100)), RetryDecision::Retry);
        assert_eq!(hasty.decide(secs(100)), RetryDecision::GiveUp);
    }
}
