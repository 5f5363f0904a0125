//! Pool-level accounting: the quantities the experiments report.
//!
//! [`Metrics`] keeps the typed counters the schedd updates as it runs, plus
//! a log-scale CPU histogram per outcome scope. [`Metrics::registry`]
//! projects everything into an [`obs::Registry`] (counters, gauges,
//! histograms with per-scope labels) for the JSON metrics snapshots the
//! experiment binaries export; [`MachineStats::register_into`] adds the
//! per-machine view under `machine=<name>` labels.

use desim::SimDuration;
use errorscope::Scope;
use std::collections::BTreeMap;

/// Counters accumulated by the schedd over one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Jobs that reached a true program result (completion or program
    /// exception) delivered to the user.
    pub jobs_completed: u64,
    /// Jobs marked unexecutable (job scope) and returned to the user.
    pub jobs_unexecutable: u64,
    /// Jobs parked after exhausting their attempt budget.
    pub jobs_held: u64,
    /// Incidental (environment-scope) errors delivered to the user as if
    /// they were program results — the naive system's signature failure.
    pub incidental_errors_shown_to_user: u64,
    /// Human postmortems performed (naive mode resubmissions).
    pub postmortems: u64,
    /// Times the schedd logged an environmental error and rescheduled.
    pub reschedules: u64,
    /// Claims that were rejected or timed out.
    pub failed_claims: u64,
    /// Execution reports that never arrived (machine crash / partition).
    pub vanished_attempts: u64,
    /// Claim leases the schedd declared expired (no heartbeat within the
    /// lease timeout) — silent partitions converted to explicit errors.
    pub leases_expired: u64,
    /// Messages fenced for carrying a stale claim epoch (late reports,
    /// duplicated frames, resurrected partitions). Counted, never acted on.
    pub stale_epochs_dropped: u64,
    /// Times a per-machine circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Times the schedd escalated an idle job to a remote pool (flocking).
    pub flock_escalations: u64,
    /// Remote-pool failures converted into explicit pool-scope errors
    /// (saturation, unreachable matchmaker, revoked or silent flock
    /// claims). Each one is a fault that, unscoped, would have hung a job.
    pub flock_faults: u64,
    /// Jobs evicted by owner activity.
    pub evictions: u64,
    /// Execution time preserved by checkpoints across evictions
    /// (microseconds in JSON).
    pub checkpointed_work: SimDuration,
    /// Execution time thrown away by evictions of non-checkpointable jobs
    /// (microseconds in JSON).
    pub work_lost_to_eviction: SimDuration,
    /// Checkpoints stored on the checkpoint server.
    pub checkpoints_taken: u64,
    /// Attempts that successfully resumed from a stored checkpoint.
    pub checkpoints_restored: u64,
    /// Stored checkpoints rejected at resume time (missing, corrupt, or
    /// version-mismatched) — each an explicit checkpoint-scope error
    /// followed by a cold restart.
    pub checkpoints_discarded: u64,
    /// Total serialized size of checkpoints stored on the server.
    pub checkpoint_bytes: u64,
    /// Execution time that resumed attempts did not have to redo
    /// (microseconds in JSON).
    pub work_saved_by_checkpoint: SimDuration,
    /// CPU time spent on attempts that produced a program result
    /// (microseconds in JSON).
    pub useful_cpu: SimDuration,
    /// CPU time spent on attempts that failed environmentally — the §5
    /// black-hole waste (microseconds in JSON).
    pub wasted_cpu: SimDuration,
    /// Execution outcomes by scope, as observed by the schedd (ground
    /// truth in naive mode comes from the report's accounting field).
    pub outcomes_by_scope: BTreeMap<String, u64>,
    /// Log-scale histogram of per-attempt CPU (µs) keyed by outcome scope.
    pub cpu_by_scope: BTreeMap<String, obs::Histogram>,
}

impl Metrics {
    /// Record an execution outcome of the given true scope.
    pub fn record_outcome(&mut self, scope: Scope, cpu: SimDuration) {
        *self
            .outcomes_by_scope
            .entry(scope.name().to_string())
            .or_insert(0) += 1;
        self.cpu_by_scope
            .entry(scope.name().to_string())
            .or_default()
            .record(cpu.as_micros());
        if scope == Scope::Program {
            self.useful_cpu += cpu;
        } else {
            self.wasted_cpu += cpu;
        }
    }

    /// Fraction of total execution CPU that was useful. 1.0 when no CPU
    /// was spent at all.
    pub fn cpu_efficiency(&self) -> f64 {
        let useful = self.useful_cpu.as_micros() as f64;
        let total = useful + self.wasted_cpu.as_micros() as f64;
        if total == 0.0 {
            1.0
        } else {
            useful / total
        }
    }

    /// Jobs that left the queue in any user-facing way.
    pub fn jobs_finished(&self) -> u64 {
        self.jobs_completed + self.jobs_unexecutable + self.jobs_held
    }

    /// Project the metrics into a registry. Counters are plain; outcome
    /// counts and CPU histograms carry a `scope` label.
    pub fn register_into(&self, reg: &mut obs::Registry) {
        for (name, value) in [
            ("jobs_completed", self.jobs_completed),
            ("jobs_unexecutable", self.jobs_unexecutable),
            ("jobs_held", self.jobs_held),
            (
                "incidental_errors_shown_to_user",
                self.incidental_errors_shown_to_user,
            ),
            ("postmortems", self.postmortems),
            ("reschedules", self.reschedules),
            ("failed_claims", self.failed_claims),
            ("vanished_attempts", self.vanished_attempts),
            ("leases_expired", self.leases_expired),
            ("stale_epochs_dropped", self.stale_epochs_dropped),
            ("breaker_opens", self.breaker_opens),
            ("flock_escalations", self.flock_escalations),
            ("flock_faults", self.flock_faults),
            ("evictions", self.evictions),
            ("checkpointed_work_us", self.checkpointed_work.as_micros()),
            (
                "work_lost_to_eviction_us",
                self.work_lost_to_eviction.as_micros(),
            ),
            ("checkpoints_taken", self.checkpoints_taken),
            ("checkpoints_restored", self.checkpoints_restored),
            ("checkpoints_discarded", self.checkpoints_discarded),
            ("checkpoint_bytes", self.checkpoint_bytes),
            (
                "work_saved_by_checkpoint_us",
                self.work_saved_by_checkpoint.as_micros(),
            ),
            ("useful_cpu_us", self.useful_cpu.as_micros()),
            ("wasted_cpu_us", self.wasted_cpu.as_micros()),
        ] {
            reg.counter_add(name, &[], value);
        }
        reg.gauge_set("cpu_efficiency", &[], self.cpu_efficiency());
        for (scope, n) in &self.outcomes_by_scope {
            reg.counter_add("outcomes", &[("scope", scope)], *n);
        }
        for (scope, hist) in &self.cpu_by_scope {
            reg.histogram_merge("attempt_cpu_us", &[("scope", scope)], hist);
        }
    }

    /// A fresh registry holding this metrics snapshot.
    pub fn registry(&self) -> obs::Registry {
        let mut reg = obs::Registry::new();
        self.register_into(&mut reg);
        reg
    }
}

/// The per-machine view, extracted from startds after a run.
#[derive(Debug, Clone, Default)]
pub struct MachineStats {
    /// Display name.
    pub name: String,
    /// Whether the startd advertised Java capability (post self-test,
    /// possibly revoked by learning).
    pub advertising_java: bool,
    /// Machine ads sent to the matchmaker: one per change (start-up, every
    /// time the machine frees itself) plus the keep-alives in between.
    pub ads_sent: u64,
    /// Claims accepted.
    pub claims_accepted: u64,
    /// Claims rejected.
    pub claims_rejected: u64,
    /// Executions performed.
    pub executions: u64,
    /// Executions that failed with remote-resource scope (this machine's
    /// own fault).
    pub remote_resource_failures: u64,
    /// Claim leases this startd declared expired (no heartbeat ack within
    /// the lease timeout) — the execute-side half of the lease.
    pub leases_expired: u64,
    /// Messages this startd fenced for carrying a stale claim epoch.
    pub stale_epochs_dropped: u64,
    /// Hot-loop recordings the machine's VMs closed into linear traces.
    /// Like every other counter here, a pure function of the executed
    /// instruction streams — byte-identical across same-seed runs.
    pub vm_traces_recorded: u64,
    /// Traces lowered and installed as compiled programs.
    pub vm_traces_compiled: u64,
    /// Guard exits: compiled executions that bailed back to the
    /// interpreter at a scope-relevant condition.
    pub vm_guard_exits: u64,
    /// Base instructions executed through the compiled tier.
    pub vm_compiled_instructions: u64,
}

impl MachineStats {
    /// Fold one VM run's trace-tier counters into this machine's view.
    pub fn absorb_vm(&mut self, vm: &gridvm::VmStats) {
        self.vm_traces_recorded += vm.traces_recorded;
        self.vm_traces_compiled += vm.traces_compiled;
        self.vm_guard_exits += vm.guard_exits;
        self.vm_compiled_instructions += vm.compiled_instructions;
    }

    /// Add this machine's counters to a registry under a `machine` label.
    pub fn register_into(&self, reg: &mut obs::Registry) {
        let labels: &[(&str, &str)] = &[("machine", &self.name)];
        reg.counter_add("claims_accepted", labels, self.claims_accepted);
        reg.counter_add("claims_rejected", labels, self.claims_rejected);
        reg.counter_add("executions", labels, self.executions);
        reg.counter_add(
            "remote_resource_failures",
            labels,
            self.remote_resource_failures,
        );
        reg.counter_add("leases_expired", labels, self.leases_expired);
        reg.counter_add("stale_epochs_dropped", labels, self.stale_epochs_dropped);
        reg.counter_add("vm_traces_recorded", labels, self.vm_traces_recorded);
        reg.counter_add("vm_traces_compiled", labels, self.vm_traces_compiled);
        reg.counter_add("vm_guard_exits", labels, self.vm_guard_exits);
        reg.counter_add(
            "vm_compiled_instructions",
            labels,
            self.vm_compiled_instructions,
        );
        reg.gauge_set(
            "advertising_java",
            labels,
            if self.advertising_java { 1.0 } else { 0.0 },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accounting() {
        let mut m = Metrics::default();
        m.record_outcome(Scope::Program, SimDuration::from_secs(60));
        m.record_outcome(Scope::RemoteResource, SimDuration::from_secs(20));
        m.record_outcome(Scope::RemoteResource, SimDuration::from_secs(20));
        assert_eq!(m.outcomes_by_scope["program"], 1);
        assert_eq!(m.outcomes_by_scope["remote-resource"], 2);
        assert_eq!(m.useful_cpu, SimDuration::from_secs(60));
        assert_eq!(m.wasted_cpu, SimDuration::from_secs(40));
        assert!((m.cpu_efficiency() - 0.6).abs() < 1e-9);
        assert_eq!(m.cpu_by_scope["remote-resource"].count(), 2);
    }

    #[test]
    fn efficiency_with_no_cpu_is_one() {
        assert_eq!(Metrics::default().cpu_efficiency(), 1.0);
    }

    #[test]
    fn finished_sums_terminal_states() {
        let m = Metrics {
            jobs_completed: 3,
            jobs_unexecutable: 2,
            jobs_held: 1,
            ..Metrics::default()
        };
        assert_eq!(m.jobs_finished(), 6);
    }

    #[test]
    fn vm_counters_flow_from_runs_into_the_machine_registry() {
        use gridvm::prelude::*;
        use gridvm::TraceConfig;
        let install = Installation::healthy().with_trace(TraceConfig::eager());
        let out = load_and_run(&gridvm::programs::cpu_bound(500), &install, &mut NoIo);
        assert!(out.vm.traces_compiled > 0);
        let mut stats = MachineStats {
            name: "node3".into(),
            ..MachineStats::default()
        };
        stats.absorb_vm(&out.vm);
        stats.absorb_vm(&out.vm);
        assert_eq!(stats.vm_traces_compiled, 2 * out.vm.traces_compiled);
        let mut reg = obs::Registry::new();
        stats.register_into(&mut reg);
        let labels = [("machine", "node3")];
        assert_eq!(
            reg.counter("vm_traces_recorded", &labels),
            2 * out.vm.traces_recorded
        );
        assert_eq!(
            reg.counter("vm_compiled_instructions", &labels),
            2 * out.vm.compiled_instructions
        );
        assert!(reg.counter("vm_compiled_instructions", &labels) > 0);
    }

    #[test]
    fn serialization_keeps_cpu_as_integer_micros() {
        let mut m = Metrics::default();
        m.record_outcome(Scope::Program, SimDuration::from_secs(60));
        m.record_outcome(Scope::Network, SimDuration::from_secs(30));
        let reg = m.registry();
        assert_eq!(reg.counter("useful_cpu_us", &[]), 60_000_000);
        assert_eq!(reg.counter("wasted_cpu_us", &[]), 30_000_000);
        // Efficiency is recomputable from the exported counters alone.
        let useful = reg.counter("useful_cpu_us", &[]) as f64;
        let wasted = reg.counter("wasted_cpu_us", &[]) as f64;
        assert!((useful / (useful + wasted) - m.cpu_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn registry_projection_carries_labels() {
        let mut m = Metrics {
            jobs_completed: 4,
            ..Metrics::default()
        };
        m.record_outcome(Scope::Program, SimDuration::from_secs(1));
        let mut reg = m.registry();
        let stats = MachineStats {
            name: "node7".into(),
            advertising_java: true,
            claims_accepted: 2,
            ..MachineStats::default()
        };
        stats.register_into(&mut reg);
        assert_eq!(reg.counter("jobs_completed", &[]), 4);
        assert_eq!(reg.counter("outcomes", &[("scope", "program")]), 1);
        assert_eq!(reg.counter("claims_accepted", &[("machine", "node7")]), 2);
        let h = reg
            .histogram("attempt_cpu_us", &[("scope", "program")])
            .unwrap();
        assert_eq!(h.count(), 1);
        // The snapshot parses back cleanly.
        assert!(obs::json::parse(&reg.snapshot_json()).is_ok());
    }
}
