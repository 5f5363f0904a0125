//! Propagation of errors to the manager of their scope — Principle 3.
//!
//! "An error must be propagated to the program that manages its scope."
//! A [`LayerStack`] models the chain of programs an error climbs through
//! (Figure 3: program wrapper → JVM → starter → shadow → schedd → user);
//! each [`Layer`] declares which scopes it manages and the error contract of
//! its upward interface. [`LayerStack::propagate`] walks an error up the
//! stack applying the paper's rules at every layer:
//!
//! 1. if the layer manages the error's scope, the error is **handled** here;
//! 2. otherwise, if the error conforms to the layer's upward interface
//!    contract, it passes up as an **explicit** error;
//! 3. otherwise it is converted to an **escaping** error (Principle 2) and
//!    carried upward until some layer manages a containing scope.
//!
//! The schedd's "last line of defense" behaviour (§4) is captured by
//! [`Disposition`]: program scope ⇒ the job completed; job scope ⇒ the job
//! is unexecutable; anything in between ⇒ log the error and try another
//! site.

use crate::comm::Comm;
use crate::error::ScopedError;
use crate::interface::{Conformance, InterfaceDecl};
use crate::scope::Scope;
use std::fmt;

/// One program in the propagation chain.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Program name, e.g. `"starter"`.
    pub name: &'static str,
    /// The scopes whose errors this program is responsible for consuming.
    pub manages: Vec<Scope>,
    /// The contract of the interface this layer presents to the layer
    /// above. `None` means the layer forwards anything (a pure conduit).
    pub upward_interface: Option<InterfaceDecl>,
    /// Scope reinterpretations this layer performs: when an error with
    /// scope `.0` crosses this layer, it is widened to `.1` (§3.3 — a lost
    /// connection becomes process scope in the context of RPC).
    pub widens: Vec<(Scope, Scope)>,
}

impl Layer {
    /// A layer that manages the given scopes and forwards everything else.
    pub fn new(name: &'static str, manages: impl IntoIterator<Item = Scope>) -> Self {
        Layer {
            name,
            manages: manages.into_iter().collect(),
            upward_interface: None,
            widens: Vec::new(),
        }
    }

    /// Attach an upward interface contract.
    pub fn with_interface(mut self, decl: InterfaceDecl) -> Self {
        self.upward_interface = Some(decl);
        self
    }

    /// Add a scope reinterpretation rule.
    pub fn widening(mut self, from: Scope, to: Scope) -> Self {
        assert!(
            to.contains(from),
            "widening rule must expand scope: {from} -> {to}"
        );
        self.widens.push((from, to));
        self
    }

    /// Does this layer manage `scope` (exactly)?
    pub fn manages(&self, scope: Scope) -> bool {
        self.manages.contains(&scope)
    }

    /// Does this layer manage `scope` or any scope containing it? A manager
    /// of process scope is "capable of handling" an error of any scope it
    /// contains, per §3.3 — but routing prefers the *tightest* manager, so
    /// this is used only as a fallback test.
    pub fn can_absorb(&self, scope: Scope) -> bool {
        self.manages.iter().any(|m| m.contains(scope))
    }
}

/// The outcome of propagating one error up a stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The final state of the error, trail included.
    pub error: ScopedError,
    /// The layer that consumed the error, or `None` if it fell off the top
    /// of the stack unmanaged (a system-scope failure needing a human).
    pub handled_by: Option<&'static str>,
    /// What the top-level manager should do with the job, if the stack
    /// models a grid scheduling chain.
    pub disposition: Disposition,
}

/// The schedd's last-line-of-defense decision (§4): "If it detects an error
/// of program scope, it identifies the job as complete and returns it to the
/// user. If it detects an error of job scope, it identifies the job as
/// unexecutable and also returns it to the user. Anything in between causes
/// it to log the error and then attempt to execute the program at a new
/// site."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Program scope: the result — even an error — belongs to the user.
    ReturnCompleted,
    /// Job scope: the job can never run as submitted; return it to the user
    /// marked unexecutable.
    ReturnUnexecutable,
    /// An environmental error between program and job scope: log it and try
    /// another execution site.
    LogAndReschedule,
    /// The error exceeded every scope the scheduling chain manages; only an
    /// administrator can act.
    EscalateToHuman,
}

impl Disposition {
    /// The disposition the schedd applies to an error of the given scope.
    pub fn for_scope(scope: Scope) -> Disposition {
        match scope {
            Scope::Program => Disposition::ReturnCompleted,
            Scope::Job => Disposition::ReturnUnexecutable,
            Scope::Pool | Scope::System => Disposition::EscalateToHuman,
            _ => Disposition::LogAndReschedule,
        }
    }

    /// Does the job leave the queue as a result?
    pub fn returns_to_user(self) -> bool {
        matches!(
            self,
            Disposition::ReturnCompleted | Disposition::ReturnUnexecutable
        )
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Disposition::ReturnCompleted => "return-completed",
            Disposition::ReturnUnexecutable => "return-unexecutable",
            Disposition::LogAndReschedule => "log-and-reschedule",
            Disposition::EscalateToHuman => "escalate-to-human",
        };
        f.write_str(s)
    }
}

/// A stack of layers, bottom (closest to the fault) first.
#[derive(Debug, Clone, Default)]
pub struct LayerStack {
    layers: Vec<Layer>,
}

impl LayerStack {
    /// An empty stack.
    pub fn new() -> Self {
        LayerStack { layers: Vec::new() }
    }

    /// Push the next layer up.
    pub fn layer(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// The layers, bottom first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Find the name of the layer that manages `scope`, if any — the
    /// *tightest* manager wins when several could absorb it.
    pub fn manager_of(&self, scope: Scope) -> Option<&'static str> {
        // Exact managers first…
        if let Some(l) = self.layers.iter().find(|l| l.manages(scope)) {
            return Some(l.name);
        }
        // …then the layer managing the smallest containing scope.
        self.layers
            .iter()
            .flat_map(|l| {
                l.manages
                    .iter()
                    .filter(|m| m.contains(scope))
                    .map(move |m| (m.depth(), l.name))
            })
            .max_by_key(|(depth, _)| *depth)
            .map(|(_, name)| name)
    }

    /// Propagate `err` from the bottom of the stack upward, applying the
    /// three rules described in the module documentation. The error's trail
    /// records every decision for later auditing.
    ///
    /// `from` names the layer that raised or received the error; the walk
    /// starts at the first layer **above** `from` (or at the bottom if
    /// `from` is unknown).
    pub fn propagate(&self, mut err: ScopedError, from: &str) -> Delivery {
        let start = self
            .layers
            .iter()
            .position(|l| l.name == from)
            .map(|i| i + 1)
            .unwrap_or(0);

        for layer in &self.layers[start..] {
            // Reinterpretation: this layer may widen the scope (§3.3).
            if let Some(&(_, to_s)) = layer.widens.iter().find(|(f, _)| *f == err.scope) {
                err = err.widen(to_s, layer.name);
            }

            // Rule 1: manager of this scope consumes the error.
            if layer.manages(err.scope) {
                let disposition = Disposition::for_scope(err.scope);
                let error = err.handle(layer.name);
                return Delivery {
                    error,
                    handled_by: Some(layer.name),
                    disposition,
                };
            }

            // Rules 2 & 3: cross this layer's upward interface.
            match &layer.upward_interface {
                None => {
                    err = err.forwarded(layer.name);
                }
                Some(decl) => {
                    if err.comm == Comm::Escaping {
                        err = err.forwarded(layer.name);
                    } else {
                        match decl.conformance("result", &err.code) {
                            Conformance::DeliverExplicit => err = err.forwarded(layer.name),
                            Conformance::MustEscape => err = err.escape(layer.name),
                        }
                    }
                }
            }
        }

        // No layer manages this scope exactly. The error is absorbed by
        // the manager of the tightest *containing* scope, if any — the
        // paper's "last line of defense" behaviour (a manager of process
        // scope is capable of handling any error its scope contains).
        if let Some(name) = self.manager_of(err.scope) {
            let disposition = Disposition::for_scope(err.scope);
            let error = err.handle(name);
            return Delivery {
                error,
                handled_by: Some(name),
                disposition,
            };
        }
        // Truly unmanaged: only a human can act.
        Delivery {
            disposition: Disposition::EscalateToHuman,
            handled_by: None,
            error: err,
        }
    }
}

/// The Java Universe propagation chain of Figure 3, with each program
/// managing the scopes the paper assigns to it. The `"user"` layer at the
/// top manages program scope: a program result, error or otherwise, belongs
/// to the user.
pub fn java_universe_stack() -> LayerStack {
    LayerStack::new()
        .layer(Layer::new("wrapper", []))
        .layer(Layer::new("jvm", [Scope::VirtualMachine]))
        .layer(Layer::new("starter", [Scope::RemoteResource]))
        .layer(Layer::new("shadow", [Scope::LocalResource]))
        .layer(Layer::new("schedd", [Scope::Job, Scope::Pool]))
        .layer(Layer::new("user", [Scope::Program]))
}

/// The paper's §3.3 RPC example: "a failure in remote procedure call has
/// process scope. It indicates that the mechanism of function call is no
/// longer valid within the process… The creator of a process is capable of
/// handling an RPC error of process scope." A lost connection is widened
/// to process scope as it crosses the RPC layer.
pub fn rpc_stack() -> LayerStack {
    LayerStack::new()
        .layer(Layer::new("socket", []))
        .layer(Layer::new("rpc", []).widening(Scope::Network, Scope::Process))
        .layer(Layer::new(
            "callee-function",
            [Scope::File, Scope::Function],
        ))
        .layer(Layer::new("process-creator", [Scope::Process]))
}

/// The paper's §3.3 PVM example: "a node failure in PVM has cluster scope.
/// If one node crashes, then the whole cluster of nodes is obliged to
/// fail… The creator of a PVM cluster is capable of handling an error of
/// cluster scope." The PVM layer widens both network- and process-scope
/// errors to cluster scope.
pub fn pvm_stack() -> LayerStack {
    LayerStack::new()
        .layer(Layer::new("node", []))
        .layer(
            Layer::new("pvm", [])
                .widening(Scope::Network, Scope::Cluster)
                .widening(Scope::Process, Scope::Cluster),
        )
        .layer(Layer::new("cluster-creator", [Scope::Cluster, Scope::Pool]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::codes::*;

    #[test]
    fn dispositions_match_section_4() {
        assert_eq!(
            Disposition::for_scope(Scope::Program),
            Disposition::ReturnCompleted
        );
        assert_eq!(
            Disposition::for_scope(Scope::Job),
            Disposition::ReturnUnexecutable
        );
        for s in [
            Scope::VirtualMachine,
            Scope::RemoteResource,
            Scope::LocalResource,
            Scope::Network,
        ] {
            assert_eq!(Disposition::for_scope(s), Disposition::LogAndReschedule);
        }
        assert!(Disposition::ReturnCompleted.returns_to_user());
        assert!(!Disposition::LogAndReschedule.returns_to_user());
    }

    #[test]
    fn figure3_routing_table() {
        let stack = java_universe_stack();
        assert_eq!(stack.manager_of(Scope::Program), Some("user"));
        assert_eq!(stack.manager_of(Scope::VirtualMachine), Some("jvm"));
        assert_eq!(stack.manager_of(Scope::RemoteResource), Some("starter"));
        assert_eq!(stack.manager_of(Scope::LocalResource), Some("shadow"));
        assert_eq!(stack.manager_of(Scope::Job), Some("schedd"));
    }

    #[test]
    fn oom_is_consumed_by_jvm_manager() {
        let stack = java_universe_stack();
        let e = ScopedError::explicit(
            OUT_OF_MEMORY,
            Scope::VirtualMachine,
            "wrapper",
            "heap exhausted",
        );
        let d = stack.propagate(e, "wrapper");
        assert_eq!(d.handled_by, Some("jvm"));
        assert_eq!(d.disposition, Disposition::LogAndReschedule);
        assert!(d.error.is_handled());
    }

    #[test]
    fn misconfigured_jvm_reaches_starter() {
        let stack = java_universe_stack();
        let e = ScopedError::escaping(
            MISCONFIGURED_INSTALLATION,
            Scope::RemoteResource,
            "jvm",
            "bad library path",
        );
        let d = stack.propagate(e, "jvm");
        assert_eq!(d.handled_by, Some("starter"));
        assert_eq!(d.disposition, Disposition::LogAndReschedule);
    }

    #[test]
    fn offline_filesystem_reaches_shadow() {
        let stack = java_universe_stack();
        let e = ScopedError::escaping(
            FILESYSTEM_OFFLINE,
            Scope::LocalResource,
            "wrapper",
            "home fs offline",
        );
        let d = stack.propagate(e, "wrapper");
        assert_eq!(d.handled_by, Some("shadow"));
    }

    #[test]
    fn corrupt_image_reaches_schedd_as_unexecutable() {
        let stack = java_universe_stack();
        let e = ScopedError::escaping(CORRUPT_IMAGE, Scope::Job, "wrapper", "bad checksum");
        let d = stack.propagate(e, "wrapper");
        assert_eq!(d.handled_by, Some("schedd"));
        assert_eq!(d.disposition, Disposition::ReturnUnexecutable);
    }

    #[test]
    fn program_exception_travels_to_user_untouched() {
        let stack = java_universe_stack();
        let e = ScopedError::explicit(
            INDEX_OUT_OF_BOUNDS,
            Scope::Program,
            "wrapper",
            "index 7 out of bounds for length 3",
        );
        let d = stack.propagate(e, "wrapper");
        assert_eq!(d.handled_by, Some("user"));
        assert_eq!(d.disposition, Disposition::ReturnCompleted);
        // No layer converted or widened it along the way.
        assert!(d.error.trail.iter().all(|h| !matches!(
            h.action,
            crate::error::HopAction::Escaped | crate::error::HopAction::Widened { .. }
        )));
    }

    #[test]
    fn widening_rule_applies_in_transit() {
        // A network error crossing an RPC layer becomes process scope.
        let stack = LayerStack::new()
            .layer(Layer::new("socket", []))
            .layer(Layer::new("rpc", []).widening(Scope::Network, Scope::Process))
            .layer(Layer::new("supervisor", [Scope::Process]));
        let e = ScopedError::explicit(
            CONNECTION_TIMED_OUT,
            Scope::Network,
            "socket",
            "no reply in 30s",
        );
        let d = stack.propagate(e, "socket");
        assert_eq!(d.error.scope, Scope::Process);
        assert_eq!(d.handled_by, Some("supervisor"));
    }

    #[test]
    fn interface_contract_escapes_in_transit() {
        use crate::interface::{ErrorVocabulary, InterfaceDecl};
        let stack = LayerStack::new()
            .layer(Layer::new("proxy", []))
            .layer(Layer::new("io-library", []).with_interface(
                InterfaceDecl::new("io").op("result", ErrorVocabulary::finite([DISK_FULL])),
            ))
            .layer(Layer::new("starter", [Scope::RemoteResource]))
            .layer(Layer::new(
                "schedd",
                [Scope::Job, Scope::Pool, Scope::Network],
            ));
        // CredentialsExpired is outside the io vocabulary: it must escape at
        // the io-library, then travel escaping until a manager absorbs it.
        let e = ScopedError::explicit(
            CREDENTIALS_EXPIRED,
            Scope::Network,
            "proxy",
            "GSI proxy expired",
        );
        let d = stack.propagate(e, "proxy");
        assert_eq!(d.handled_by, Some("schedd"));
        assert!(d
            .error
            .trail
            .iter()
            .any(|h| matches!(h.action, crate::error::HopAction::Escaped)));
    }

    #[test]
    fn unmanaged_scope_falls_to_human() {
        let stack = LayerStack::new().layer(Layer::new("only", [Scope::File]));
        let e = ScopedError::explicit("Meltdown", Scope::Pool, "only", "pool-wide outage");
        let d = stack.propagate(e, "only");
        assert_eq!(d.handled_by, None);
        assert_eq!(d.disposition, Disposition::EscalateToHuman);
    }

    #[test]
    fn manager_of_prefers_tightest_containing_scope() {
        let stack = LayerStack::new()
            .layer(Layer::new("narrow", [Scope::VirtualMachine]))
            .layer(Layer::new("broad", [Scope::Pool]));
        // Program scope has no exact manager; VirtualMachine is the
        // tightest containing managed scope.
        assert_eq!(stack.manager_of(Scope::Program), Some("narrow"));
        assert_eq!(stack.manager_of(Scope::Job), Some("broad"));
    }

    #[test]
    fn rpc_stack_matches_section_3_3() {
        let stack = rpc_stack();
        // A file error is handled by the calling function.
        let e = ScopedError::explicit(FILE_NOT_FOUND, Scope::File, "socket", "");
        let d = stack.propagate(e, "socket");
        assert_eq!(d.handled_by, Some("callee-function"));
        // A lost connection becomes process scope at the RPC layer and is
        // consumed by the process creator.
        let e = ScopedError::escaping(CONNECTION_TIMED_OUT, Scope::Network, "socket", "");
        let d = stack.propagate(e, "socket");
        assert_eq!(d.error.scope, Scope::Process);
        assert_eq!(d.handled_by, Some("process-creator"));
    }

    #[test]
    fn pvm_stack_matches_section_3_3() {
        let stack = pvm_stack();
        // "If one node crashes, then the whole cluster of nodes is obliged
        // to fail": a process-scope node death becomes cluster scope.
        let e = ScopedError::escaping("NodeDied", Scope::Process, "node", "SIGKILL");
        let d = stack.propagate(e, "node");
        assert_eq!(d.error.scope, Scope::Cluster);
        assert_eq!(d.handled_by, Some("cluster-creator"));
        // Network loss likewise dooms the cluster.
        let e = ScopedError::explicit(CONNECTION_TIMED_OUT, Scope::Network, "node", "");
        let d = stack.propagate(e, "node");
        assert_eq!(d.error.scope, Scope::Cluster);
        assert_eq!(d.handled_by, Some("cluster-creator"));
    }

    #[test]
    fn propagate_from_unknown_layer_starts_at_bottom() {
        let stack = java_universe_stack();
        let e = ScopedError::explicit(OUT_OF_MEMORY, Scope::VirtualMachine, "???", "");
        let d = stack.propagate(e, "not-a-layer");
        assert_eq!(d.handled_by, Some("jvm"));
    }
}
