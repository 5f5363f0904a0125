//! The virtual machine installation.
//!
//! "The JVM binary, libraries, and configuration files are all specified by
//! the machine owner, as they are certain to differ from location to
//! location" (§2.2) — and the machine owner "might give an incorrect path
//! to the standard libraries" (§2.3), a **remote-resource-scope** failure.
//!
//! [`InstallHealth`] models the three interesting states: healthy, broken
//! at startup (wrong binary path — any program fails immediately), and the
//! more insidious *partially* broken installation whose standard library is
//! missing: trivial programs run fine, but any program touching the
//! standard library dies. The distinction matters for the §5 black-hole
//! experiment: a startd self-test that only runs a trivial program will
//! certify a partially broken installation as healthy.

use std::borrow::Cow;

/// The health of one machine's VM installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstallHealth {
    /// Fully working.
    Healthy,
    /// The owner's configured binary/library path is wrong: the VM cannot
    /// start at all.
    BadPath,
    /// The VM starts, but the standard library is missing: the first
    /// `StdCall` fails.
    MissingStdlib,
}

/// Configuration for the interpreter's trace-compilation tier.
///
/// The interpreter counts taken backward branches; when a target's count
/// reaches `hot_threshold` it records one linear trace through the loop and
/// lowers it into a three-address program over a register file with
/// explicit guard exits (see [`crate::compile`]). Compilation is a pure
/// *containment-preserving* optimization: every observable — exit codes,
/// [`crate::machine::Termination`] scopes, instruction counts, checkpoint
/// state — is bit-identical with the tier on or off, so it defaults to on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch for the trace tier.
    pub enabled: bool,
    /// Taken-backward-branch count at which a target is recorded. The
    /// default is 1 — a loop is recorded on its second iteration —
    /// because that is what measures best: a trace costs about what 120
    /// interpreted instructions do and a machine compiles each loop head
    /// at most once, so waiting for a loop to prove itself hot only
    /// interprets iterations the trace would have run (EXPERIMENTS E14
    /// has the curve: on the generated corpus, loops bounded 8–40, a
    /// threshold of 16 compiles 0.59 traces per job that mostly never pay
    /// back; on `cpu_bound`/`heap_sum` the threshold is invisible).
    pub hot_threshold: u32,
    /// Longest trace (in recorded instructions) worth compiling; longer
    /// recordings (typically unrolled inner loops) are abandoned and the
    /// head blacklisted.
    pub max_trace_len: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            hot_threshold: 1,
            max_trace_len: 256,
        }
    }
}

impl TraceConfig {
    /// Tracing disabled: the frozen pure-interpreter baseline that the
    /// differential suite (E14) pins the compiled tier against.
    pub fn off() -> TraceConfig {
        TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        }
    }

    /// Recording on the second taken edge: a second cadence for the tests
    /// and the differential corpus, which run this and the default.
    /// (Named when the default waited for sixteen edges; E14's recorded
    /// counters are this configuration's.)
    pub fn eager() -> TraceConfig {
        TraceConfig {
            hot_threshold: 2,
            ..TraceConfig::default()
        }
    }
}

/// An installation descriptor, as the machine owner would configure it.
#[derive(Debug, Clone, PartialEq)]
pub struct Installation {
    /// Owner-configured path to the VM (display only). Borrowed from a
    /// constant unless an owner names another, so the descriptor every
    /// job and every machine is handed costs no allocation.
    pub path: Cow<'static, str>,
    /// Maximum heap, in words.
    pub heap_limit: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Instruction budget per execution; exhausting it is a
    /// virtual-machine-scope failure (the machine reclaims its CPU).
    pub fuel: u64,
    /// Actual health of this installation.
    pub health: InstallHealth,
    /// Trace-compilation tier settings.
    pub trace: TraceConfig,
}

impl Default for Installation {
    fn default() -> Self {
        Installation::healthy()
    }
}

impl Installation {
    /// A healthy default installation.
    pub fn healthy() -> Installation {
        Installation {
            path: Cow::Borrowed("/usr/local/gridvm/bin/gvm"),
            heap_limit: 1 << 20, // 1M words = 8 MiB
            max_call_depth: 512,
            fuel: 50_000_000,
            health: InstallHealth::Healthy,
            trace: TraceConfig::default(),
        }
    }

    /// An installation with the owner's path pointing nowhere.
    pub fn bad_path() -> Installation {
        Installation {
            health: InstallHealth::BadPath,
            ..Installation::healthy()
        }
    }

    /// An installation whose standard library is missing.
    pub fn missing_stdlib() -> Installation {
        Installation {
            health: InstallHealth::MissingStdlib,
            ..Installation::healthy()
        }
    }

    /// Shrink the heap (builder style) — used to provoke
    /// `OutOfMemoryError`.
    pub fn with_heap_limit(mut self, words: u64) -> Installation {
        self.heap_limit = words;
        self
    }

    /// Cap the call depth (builder style).
    pub fn with_max_call_depth(mut self, depth: usize) -> Installation {
        self.max_call_depth = depth;
        self
    }

    /// Cap the instruction budget (builder style).
    pub fn with_fuel(mut self, fuel: u64) -> Installation {
        self.fuel = fuel;
        self
    }

    /// Override the trace-compilation settings (builder style).
    pub fn with_trace(mut self, trace: TraceConfig) -> Installation {
        self.trace = trace;
        self
    }

    /// Can the VM start at all?
    pub fn can_start(&self) -> bool {
        self.health != InstallHealth::BadPath
    }

    /// Is the standard library present?
    pub fn has_stdlib(&self) -> bool {
        self.health == InstallHealth::Healthy
    }
}

/// The depth of the startd's §5 self-test: "we modified the startd to test
/// the installation at startup. If found lacking, then the startd simply
/// declines to advertise its Java capability."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelfTestDepth {
    /// Trust the owner's assertion; no test (the pre-§5 behaviour).
    None,
    /// Run a trivial program — catches [`InstallHealth::BadPath`] but not a
    /// missing standard library.
    Trivial,
    /// Run a program that also exercises the standard library — catches
    /// both failure modes.
    Thorough,
}

/// Run the startd's self-test against an installation. Returns whether the
/// machine should advertise its VM capability.
pub fn self_test(install: &Installation, depth: SelfTestDepth) -> bool {
    match depth {
        SelfTestDepth::None => true, // blindly accept the owner's assertion
        SelfTestDepth::Trivial => install.can_start(),
        SelfTestDepth::Thorough => install.can_start() && install.has_stdlib(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_predicates() {
        assert!(Installation::healthy().can_start());
        assert!(Installation::healthy().has_stdlib());
        assert!(!Installation::bad_path().can_start());
        assert!(Installation::missing_stdlib().can_start());
        assert!(!Installation::missing_stdlib().has_stdlib());
    }

    #[test]
    fn self_test_depths() {
        let healthy = Installation::healthy();
        let bad = Installation::bad_path();
        let partial = Installation::missing_stdlib();

        // No test: everything advertises — the black-hole precondition.
        assert!(self_test(&healthy, SelfTestDepth::None));
        assert!(self_test(&bad, SelfTestDepth::None));
        assert!(self_test(&partial, SelfTestDepth::None));

        // Trivial test: catches the dead binary, misses the partial break.
        assert!(self_test(&healthy, SelfTestDepth::Trivial));
        assert!(!self_test(&bad, SelfTestDepth::Trivial));
        assert!(self_test(&partial, SelfTestDepth::Trivial));

        // Thorough test: catches both.
        assert!(self_test(&healthy, SelfTestDepth::Thorough));
        assert!(!self_test(&bad, SelfTestDepth::Thorough));
        assert!(!self_test(&partial, SelfTestDepth::Thorough));
    }

    #[test]
    fn builders() {
        let i = Installation::healthy()
            .with_heap_limit(10)
            .with_max_call_depth(3)
            .with_fuel(99);
        assert_eq!(i.heap_limit, 10);
        assert_eq!(i.max_call_depth, 3);
        assert_eq!(i.fuel, 99);
    }
}
