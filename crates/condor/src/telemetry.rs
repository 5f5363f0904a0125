//! Span-journey plumbing shared by the startd and the schedd.
//!
//! An environment failure's [`ScopedError`] is born with a span id (in the
//! Chirp library, the wrapper, or the starter) and rides the execution
//! report back to the schedd. Each daemon advances the journey through the
//! Figure 3 layers *it* hosts — the startd embodies `jvm` and `starter`,
//! the schedd embodies `shadow`, `schedd`, and `user` — consulting the
//! [`LayerStack`] for who manages the error's scope, and emits one
//! [`obs::Event::SpanHop`] per trail hop it appends (or, for the execute
//! side, per hop accumulated in-process before the report). The result: the
//! collector holds each journey hop by hop, and the P1–P4 oracle
//! (`campaign::oracle::check`) judges the stream as a trail-based audit of
//! the same errors would.

use desim::Context;
use errorscope::propagate::LayerStack;
use errorscope::ScopedError;

/// The Figure 3 layers hosted by the execution side (the startd's starter
/// process and the VM it launches), bottom first.
pub const EXECUTE_SIDE_LAYERS: &[&str] = &["jvm", "starter"];

/// The Figure 3 layers hosted by the submission side, bottom first.
pub const SUBMIT_SIDE_LAYERS: &[&str] = &["shadow", "schedd", "user"];

/// Advance a journey through `layers` (stack order, bottom first). At each
/// layer the error is handled if that layer manages its current scope per
/// `stack`, otherwise forwarded; the walk stops at the handling layer.
/// Returns the updated error and whether the journey terminated.
pub fn advance_journey(
    stack: &LayerStack,
    mut err: ScopedError,
    layers: &[&str],
) -> (ScopedError, bool) {
    if err.is_handled() {
        return (err, true);
    }
    for layer in layers {
        if stack.manager_of(err.scope) == Some(*layer) {
            err = err.handle(layer.to_string());
            return (err, true);
        }
        err = err.forwarded(layer.to_string());
    }
    (err, false)
}

/// Emit the journey's trail hops from index `from` onward as span events
/// attributed to the calling actor at the current virtual time.
pub fn emit_journey_hops<M>(ctx: &mut Context<'_, M>, err: &ScopedError, from: usize) {
    for ev in err.trail_events_from(from) {
        ctx.emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errorscope::error::codes;
    use errorscope::propagate::java_universe_stack;
    use errorscope::Scope;

    #[test]
    fn journeys_terminate_at_their_figure3_manager() {
        let stack = java_universe_stack();
        let cases = [
            (Scope::VirtualMachine, "jvm", true),
            (Scope::RemoteResource, "starter", true),
            (Scope::LocalResource, "shadow", false),
            (Scope::Job, "schedd", false),
            (Scope::Network, "schedd", false), // tightest container: pool
        ];
        for (scope, expected, execute_side) in cases {
            let e = ScopedError::escaping(codes::FILESYSTEM_OFFLINE, scope, "io-library", "t");
            let (e, done_exec) = advance_journey(&stack, e, EXECUTE_SIDE_LAYERS);
            assert_eq!(done_exec, execute_side, "{scope}");
            let (e, done) = if done_exec {
                (e, true)
            } else {
                advance_journey(&stack, e, SUBMIT_SIDE_LAYERS)
            };
            assert!(done, "{scope} journey must terminate");
            let last = e.trail.last().unwrap();
            assert_eq!(last.layer.as_ref(), expected, "{scope}");
            assert!(e.is_handled());
        }
    }

    #[test]
    fn advancing_a_handled_journey_is_a_no_op() {
        let stack = java_universe_stack();
        let e = ScopedError::escaping(codes::MISSING_INPUT, Scope::Job, "starter", "gone")
            .forwarded("shadow")
            .handle("schedd");
        let before = e.trail.len();
        let (e, done) = advance_journey(&stack, e, SUBMIT_SIDE_LAYERS);
        assert!(done);
        assert_eq!(e.trail.len(), before);
    }
}
