//! The scope lattice.
//!
//! The central abstraction of the paper (§3.3): *the scope of an error is the
//! portion of a system which it invalidates*. Scopes form a containment
//! hierarchy — an error "may gain significance, or expand its scope, as it
//! travels up through layers of software".
//!
//! Two families of scopes appear in the paper and both are modelled here:
//!
//! * **Generic scopes** used in the theory sections: a [`Scope::File`] error
//!   (`FileNotFound`) is handled by the calling function, an RPC failure has
//!   [`Scope::Process`] scope, a PVM node failure has [`Scope::Cluster`]
//!   scope.
//! * **Grid scopes** from Figure 3 of the paper: [`Scope::Program`],
//!   [`Scope::VirtualMachine`], [`Scope::RemoteResource`],
//!   [`Scope::LocalResource`], and [`Scope::Job`], all contained in
//!   [`Scope::Pool`].
//!
//! The containment order is a tree rooted at [`Scope::System`]; the partial
//! order [`Scope::contains`] is the ancestor relation, and
//! [`Scope::join`] is the least common ancestor. [`Scope::Network`] is the
//! paper's example of an *indeterminate* scope (§5): it sits under
//! [`Scope::Process`] by default but is expected to be widened over time by
//! an [`crate::escalate::EscalationPolicy`].

use std::fmt;

/// A region of the system that an error can invalidate.
///
/// Ordered by containment: `Program ⊂ VirtualMachine ⊂ RemoteResource ⊂ Pool
/// ⊂ System`, and `File ⊂ Function ⊂ Process ⊂ Cluster ⊂ Pool`. `Job` and
/// `LocalResource` are siblings directly under `Pool`, exactly as drawn in
/// Figure 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// A single named file is invalid (e.g. `FileNotFound`). Handled by the
    /// calling function.
    File,
    /// The mechanism of function call within one routine is invalid.
    Function,
    /// Something network-level failed (lost connection, refused connection).
    /// Deliberately *indeterminate*: §5 of the paper observes that a failure
    /// to communicate for one second may be of network scope, but a failure
    /// for a year likely has larger scope. See [`crate::escalate`].
    Network,
    /// The whole process is invalid — e.g. a failure of remote procedure
    /// call means the mechanism of function call is no longer valid within
    /// the process. Handled by the creator of the process.
    Process,
    /// A whole cluster of cooperating processes is invalid — the paper's
    /// example is a node failure in PVM, which obliges the entire cluster of
    /// nodes to fail. Handled by the creator of the cluster.
    Cluster,
    /// The user's program itself produced this result: normal completion,
    /// `System.exit`, or a program-generated exception such as
    /// `ArrayIndexOutOfBoundsException`. Handled by the *user* — the grid
    /// must deliver it untouched.
    Program,
    /// The virtual machine cannot run the program under current conditions
    /// (e.g. not enough memory for the program). The JVM informs the starter.
    VirtualMachine,
    /// The execution site cannot run the program at all (e.g. the Java
    /// installation is misconfigured). The starter informs the shadow.
    RemoteResource,
    /// A resource at the submission site is unavailable right now (e.g. the
    /// home file system is offline). The shadow informs the schedd.
    LocalResource,
    /// The job itself can never run as submitted (e.g. the program image is
    /// corrupt, or an input file is missing). The schedd informs the user
    /// that the job is unexecutable.
    Job,
    /// The whole pool — the matchmaker's domain.
    Pool,
    /// Everything. The root of the lattice; errors of system scope can only
    /// be handled by a human.
    System,
}

impl Scope {
    /// All scopes, in an arbitrary but fixed order. Useful for exhaustive
    /// tests and for iterating registries.
    pub const ALL: [Scope; 12] = [
        Scope::File,
        Scope::Function,
        Scope::Network,
        Scope::Process,
        Scope::Cluster,
        Scope::Program,
        Scope::VirtualMachine,
        Scope::RemoteResource,
        Scope::LocalResource,
        Scope::Job,
        Scope::Pool,
        Scope::System,
    ];

    /// The immediate enclosing scope, or `None` for [`Scope::System`].
    ///
    /// This tree *is* the containment order: `a.contains(b)` iff `a` is an
    /// ancestor-or-self of `b`.
    pub fn parent(self) -> Option<Scope> {
        match self {
            Scope::File => Some(Scope::Function),
            Scope::Function => Some(Scope::Process),
            Scope::Network => Some(Scope::Process),
            Scope::Process => Some(Scope::Cluster),
            Scope::Cluster => Some(Scope::Pool),
            Scope::Program => Some(Scope::VirtualMachine),
            Scope::VirtualMachine => Some(Scope::RemoteResource),
            Scope::RemoteResource => Some(Scope::Pool),
            Scope::LocalResource => Some(Scope::Pool),
            Scope::Job => Some(Scope::Pool),
            Scope::Pool => Some(Scope::System),
            Scope::System => None,
        }
    }

    /// Distance from the root: `System` is 0, `Pool` is 1, and so on.
    pub fn depth(self) -> usize {
        let mut d = 0;
        let mut cur = self;
        while let Some(p) = cur.parent() {
            d += 1;
            cur = p;
        }
        d
    }

    /// Containment: does `self` invalidate at least everything `other`
    /// invalidates? Reflexive (`s.contains(s)` is true for every scope).
    pub fn contains(self, other: Scope) -> bool {
        let mut cur = Some(other);
        while let Some(s) = cur {
            if s == self {
                return true;
            }
            cur = s.parent();
        }
        false
    }

    /// Strict containment: `self.contains(other)` and `self != other`.
    pub fn strictly_contains(self, other: Scope) -> bool {
        self != other && self.contains(other)
    }

    /// The least scope containing both `self` and `other` (least common
    /// ancestor in the containment tree). Always defined because
    /// [`Scope::System`] contains everything.
    pub fn join(self, other: Scope) -> Scope {
        let mut cur = self;
        loop {
            if cur.contains(other) {
                return cur;
            }
            cur = cur.parent().expect("System contains every scope");
        }
    }

    /// Widening: the smallest strict superscope, if any. This is the step an
    /// error takes when a layer reinterprets it — "at the level of network
    /// communications, an error indicating a lost connection is simply that;
    /// interpreted in the context of RPC it becomes an error of process
    /// scope" (§3.3).
    pub fn widened(self) -> Option<Scope> {
        self.parent()
    }

    /// The chain of scopes from `self` up to and including
    /// [`Scope::System`].
    pub fn ancestry(self) -> Vec<Scope> {
        let mut v = vec![self];
        let mut cur = self;
        while let Some(p) = cur.parent() {
            v.push(p);
            cur = p;
        }
        v
    }

    /// True for the scopes drawn in Figure 3 of the paper (the Java Universe
    /// case study).
    pub fn is_grid_scope(self) -> bool {
        matches!(
            self,
            Scope::Program
                | Scope::VirtualMachine
                | Scope::RemoteResource
                | Scope::LocalResource
                | Scope::Job
                | Scope::Pool
        )
    }

    /// A short stable name, used in telemetry events and printed tables.
    pub fn name(self) -> &'static str {
        match self {
            Scope::File => "file",
            Scope::Function => "function",
            Scope::Network => "network",
            Scope::Process => "process",
            Scope::Cluster => "cluster",
            Scope::Program => "program",
            Scope::VirtualMachine => "virtual-machine",
            Scope::RemoteResource => "remote-resource",
            Scope::LocalResource => "local-resource",
            Scope::Job => "job",
            Scope::Pool => "pool",
            Scope::System => "system",
        }
    }

    /// Parse the stable name produced by [`Scope::name`].
    pub fn from_name(name: &str) -> Option<Scope> {
        Scope::ALL.iter().copied().find(|s| s.name() == name)
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl PartialOrd for Scope {
    /// `a < b` iff `b` strictly contains `a`. Scopes in different branches
    /// of the tree are incomparable and return `None`.
    fn partial_cmp(&self, other: &Scope) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        if self == other {
            Some(Ordering::Equal)
        } else if other.contains(*self) {
            Some(Ordering::Less)
        } else if self.contains(*other) {
            Some(Ordering::Greater)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_is_reflexive() {
        for s in Scope::ALL {
            assert!(s.contains(s), "{s} should contain itself");
        }
    }

    #[test]
    fn system_contains_everything() {
        for s in Scope::ALL {
            assert!(Scope::System.contains(s));
        }
    }

    #[test]
    fn figure3_grid_chain() {
        // Program ⊂ VirtualMachine ⊂ RemoteResource ⊂ Pool, as in Figure 3.
        assert!(Scope::VirtualMachine.strictly_contains(Scope::Program));
        assert!(Scope::RemoteResource.strictly_contains(Scope::VirtualMachine));
        assert!(Scope::RemoteResource.strictly_contains(Scope::Program));
        assert!(Scope::Pool.strictly_contains(Scope::RemoteResource));
        assert!(Scope::Pool.strictly_contains(Scope::LocalResource));
        assert!(Scope::Pool.strictly_contains(Scope::Job));
    }

    #[test]
    fn generic_chain() {
        assert!(Scope::Function.strictly_contains(Scope::File));
        assert!(Scope::Process.strictly_contains(Scope::Function));
        assert!(Scope::Cluster.strictly_contains(Scope::Process));
        assert!(Scope::Process.strictly_contains(Scope::Network));
    }

    #[test]
    fn siblings_are_incomparable() {
        assert!(!Scope::Job.contains(Scope::LocalResource));
        assert!(!Scope::LocalResource.contains(Scope::Job));
        assert_eq!(Scope::Job.partial_cmp(&Scope::LocalResource), None);
        // Grid family vs generic family.
        assert_eq!(Scope::Program.partial_cmp(&Scope::Process), None);
    }

    #[test]
    fn join_of_siblings_is_common_parent() {
        assert_eq!(Scope::Job.join(Scope::LocalResource), Scope::Pool);
        assert_eq!(Scope::Program.join(Scope::Program), Scope::Program);
        assert_eq!(
            Scope::Program.join(Scope::VirtualMachine),
            Scope::VirtualMachine
        );
        assert_eq!(Scope::File.join(Scope::Network), Scope::Process);
        assert_eq!(Scope::Program.join(Scope::File), Scope::Pool);
    }

    #[test]
    fn widened_climbs_one_step() {
        assert_eq!(Scope::Program.widened(), Some(Scope::VirtualMachine));
        assert_eq!(Scope::System.widened(), None);
        // Widening never shrinks.
        for s in Scope::ALL {
            if let Some(w) = s.widened() {
                assert!(w.strictly_contains(s));
            }
        }
    }

    #[test]
    fn depth_is_consistent_with_parent() {
        assert_eq!(Scope::System.depth(), 0);
        assert_eq!(Scope::Pool.depth(), 1);
        for s in Scope::ALL {
            if let Some(p) = s.parent() {
                assert_eq!(s.depth(), p.depth() + 1);
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for s in Scope::ALL {
            assert_eq!(Scope::from_name(s.name()), Some(s));
        }
        assert_eq!(Scope::from_name("bogus"), None);
    }

    #[test]
    fn ancestry_ends_at_system() {
        for s in Scope::ALL {
            let a = s.ancestry();
            assert_eq!(*a.first().unwrap(), s);
            assert_eq!(*a.last().unwrap(), Scope::System);
            assert_eq!(a.len(), s.depth() + 1);
        }
    }

    #[test]
    fn partial_order_is_antisymmetric() {
        for a in Scope::ALL {
            for b in Scope::ALL {
                if a.contains(b) && b.contains(a) {
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn partial_order_is_transitive() {
        for a in Scope::ALL {
            for b in Scope::ALL {
                for c in Scope::ALL {
                    if a.contains(b) && b.contains(c) {
                        assert!(a.contains(c));
                    }
                }
            }
        }
    }

    #[test]
    fn join_is_commutative_and_an_upper_bound() {
        for a in Scope::ALL {
            for b in Scope::ALL {
                let j = a.join(b);
                assert_eq!(j, b.join(a));
                assert!(j.contains(a));
                assert!(j.contains(b));
            }
        }
    }
}
