//! The typed event vocabulary of the grid.
//!
//! One [`Event`] per protocol-significant moment: the claiming handshake,
//! job dispatch, an error escaping an interface, a reschedule, the schedd's
//! final disposition, a remote I/O operation, a principle violation, and —
//! the heart of the layer — a [`SpanHop`](Event::SpanHop) for every hop of
//! an error's journey through the software stack.
//!
//! Events serialise to single-line JSON objects (see
//! [`Collector::to_jsonl_with_meta`](crate::Collector::to_jsonl_with_meta))
//! and parse back,
//! member by member, with the record they sit in
//! ([`EventRecord::from_json`](crate::EventRecord::from_json)), so an
//! exported stream can be re-read and audited offline.

use crate::json::{self, ParseError, Reader};
use crate::span::{SpanAction, SpanId};
use std::borrow::Cow;
use std::fmt;

/// How a claim attempt concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The schedd asked for the machine.
    Requested,
    /// The startd accepted.
    Accepted,
    /// The startd declined.
    Rejected {
        /// Why.
        reason: String,
    },
    /// No answer arrived in time.
    TimedOut,
}

impl ClaimOutcome {
    fn name(&self) -> &'static str {
        match self {
            ClaimOutcome::Requested => "requested",
            ClaimOutcome::Accepted => "accepted",
            ClaimOutcome::Rejected { .. } => "rejected",
            ClaimOutcome::TimedOut => "timed-out",
        }
    }
}

/// How a remote I/O operation concluded, from the library's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOutcome {
    /// Success.
    Ok,
    /// An explicit, in-vocabulary error.
    Error {
        /// The protocol error code.
        code: String,
    },
    /// The condition escaped the interface (Principle 2).
    Escaped {
        /// The escaping error's code.
        code: String,
    },
}

impl IoOutcome {
    fn name(&self) -> &'static str {
        match self {
            IoOutcome::Ok => "ok",
            IoOutcome::Error { .. } => "error",
            IoOutcome::Escaped { .. } => "escaped",
        }
    }
}

/// One typed telemetry event. Its strings are owned: the
/// [`Collector`](crate::Collector) keeps each event exactly as it was
/// handed one, and [`Collector::iter`](crate::Collector::iter) lends it
/// back unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A step of the claiming protocol for `job` on `machine`.
    Claim {
        /// Which job.
        job: u64,
        /// The machine (startd actor id).
        machine: u64,
        /// What happened.
        outcome: ClaimOutcome,
    },
    /// The shadow activated a claim: `job` begins executing on `machine`.
    Dispatch {
        /// Which job.
        job: u64,
        /// The machine.
        machine: u64,
    },
    /// The matchmaker paired `job` with `machine` in a negotiation cycle
    /// and notified the schedd ("notifies schedds and startds of
    /// compatible partners", §2.1).
    Match {
        /// Which job.
        job: u64,
        /// The machine (startd actor id).
        machine: u64,
    },
    /// An error escaped an interface (Principle 2 in action).
    Escape {
        /// The error's journey span.
        span: SpanId,
        /// The interface it escaped.
        layer: String,
        /// Machine-readable condition.
        code: String,
        /// The error's scope name.
        scope: String,
    },
    /// The schedd put a job back in the idle queue.
    Reschedule {
        /// Which job.
        job: u64,
        /// The machine the failed attempt ran on.
        machine: u64,
        /// Why, human-readable.
        reason: String,
    },
    /// The schedd's final ruling on an execution report.
    Disposition {
        /// Which job.
        job: u64,
        /// The disposition name (`return-completed`, `log-and-reschedule`…).
        disposition: String,
        /// The scope that drove the ruling.
        scope: String,
        /// The error journey that ended here ([`crate::NO_SPAN`] when the
        /// outcome carried no scoped error — completions, naive exits).
        span: SpanId,
    },
    /// One remote I/O operation observed at the Chirp boundary.
    IoOp {
        /// The operation name (`open`, `read`, `write`…).
        op: String,
        /// How it went.
        outcome: IoOutcome,
    },
    /// An error-scope principle was violated.
    Violation {
        /// Which principle (1–4).
        principle: u8,
        /// The machine whose report exposed the breach (0 when the
        /// violation is not attributable to one).
        machine: u64,
        /// What happened.
        detail: String,
    },
    /// A checkpoint of `job` was written to the checkpoint server.
    CheckpointTaken {
        /// Which job.
        job: u64,
        /// The machine that took the checkpoint.
        machine: u64,
        /// Size of the serialized image.
        bytes: u64,
        /// Progress banked by this checkpoint, in simulated microseconds.
        banked_us: u64,
    },
    /// A resumed activation restored `job` from a stored checkpoint.
    CheckpointRestored {
        /// Which job.
        job: u64,
        /// The machine that resumed it.
        machine: u64,
        /// Work recovered instead of recomputed, in simulated microseconds.
        saved_us: u64,
    },
    /// A stored checkpoint failed validation and was discarded — an
    /// *explicit* checkpoint-scope error. The job cold-restarts; the
    /// corruption never surfaces inside the resumed program.
    CheckpointDiscarded {
        /// Which job.
        job: u64,
        /// The machine that rejected the image.
        machine: u64,
        /// The validation failure, human-readable.
        reason: String,
    },
    /// A claim lease expired: heartbeats stopped flowing for longer than
    /// the lease timeout, converting a *silent* partition into an explicit
    /// scope-of-the-claim error on one side of the claim.
    LeaseExpired {
        /// Which job.
        job: u64,
        /// The machine holding (or held by) the claim.
        machine: u64,
        /// Which side noticed: `"schedd"` or `"startd"`.
        side: String,
    },
    /// A message stamped with a stale claim epoch was rejected and counted
    /// instead of acted on (late report, duplicated frame, resurrected
    /// partition).
    StaleEpochDropped {
        /// Which job the message referred to.
        job: u64,
        /// What kind of message carried the stale stamp (`"report"`,
        /// `"heartbeat"`, `"activation"`…).
        kind: String,
        /// The epoch stamped on the message.
        got: u64,
        /// The claim's current epoch at the receiver.
        current: u64,
    },
    /// A per-machine circuit breaker changed state.
    BreakerStateChange {
        /// The machine whose health the breaker tracks.
        machine: u64,
        /// The state it left (`"closed"`, `"open"`, `"half-open"`).
        from: String,
        /// The state it entered.
        to: String,
    },
    /// A scheduled network fault crossed a window edge and was applied to
    /// (or removed from) the fabric.
    NetFaultApplied {
        /// The fault kind: `"partition"`, `"loss"`, `"latency"`,
        /// `"duplication"`.
        kind: String,
        /// The affected link, as `"a-b"` (undirected host pair).
        link: String,
        /// `true` when entering the window, `false` when leaving it.
        active: bool,
    },
    /// A memory bit-flip was injected into live state — the fault
    /// campaign's silent-data-corruption model (a DRAM fault the scrubber
    /// logged). Unlike [`Event::NetFaultApplied`], this is evidence a real
    /// post-mortem could hold: hardware error logs exist, so the localizer
    /// is allowed to read it.
    MemFlip {
        /// The job whose state was hit.
        job: u64,
        /// The actor id of the host where the flip landed (the restoring
        /// machine for a heap flip, the checkpoint server for an image
        /// flip).
        machine: u64,
        /// What was hit: `"heap-word"` (live VM heap, post-validation) or
        /// `"ckpt-image"` (stored checkpoint bytes, pre-validation).
        target: String,
        /// The absolute bit index that changed within the target.
        bit: u64,
    },
    /// A remote-pool interaction failed during flocking — saturation,
    /// an unreachable matchmaker, a revoked flock claim, or silence on
    /// an inter-pool link — and the schedd converted it into an explicit
    /// pool-scope error instead of hanging.
    FlockFault {
        /// The job whose flock attempt (or remote claim) was hit.
        job: u64,
        /// The remote pool the failure is attributed to.
        pool: u64,
        /// What failed: `"saturated"`, `"unreachable"`, `"revoked"`,
        /// `"lease"`, or `"claim"`.
        kind: String,
    },
    /// One hop of an error's journey through the layer stack.
    SpanHop {
        /// The journey this hop belongs to.
        span: SpanId,
        /// The layer where it happened.
        layer: String,
        /// What the layer did.
        action: SpanAction,
        /// The error's scope name *after* the action.
        scope: String,
    },
}

impl Event {
    /// The event's wire name (the `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Claim { .. } => "claim",
            Event::Dispatch { .. } => "dispatch",
            Event::Match { .. } => "match",
            Event::Escape { .. } => "escape",
            Event::Reschedule { .. } => "reschedule",
            Event::Disposition { .. } => "disposition",
            Event::IoOp { .. } => "io-op",
            Event::Violation { .. } => "violation",
            Event::CheckpointTaken { .. } => "ckpt-taken",
            Event::CheckpointRestored { .. } => "ckpt-restored",
            Event::CheckpointDiscarded { .. } => "ckpt-discarded",
            Event::LeaseExpired { .. } => "lease-expired",
            Event::StaleEpochDropped { .. } => "stale-epoch-dropped",
            Event::BreakerStateChange { .. } => "breaker-state-change",
            Event::NetFaultApplied { .. } => "net-fault-applied",
            Event::MemFlip { .. } => "mem-flip",
            Event::FlockFault { .. } => "flock-fault",
            Event::SpanHop { .. } => "span-hop",
        }
    }

    /// The span this event belongs to, if any.
    pub fn span(&self) -> Option<SpanId> {
        match self {
            Event::Escape { span, .. } | Event::SpanHop { span, .. } => Some(*span),
            Event::Disposition { span, .. } if *span != crate::NO_SPAN => Some(*span),
            _ => None,
        }
    }

    /// Append this event as a JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"type\":\"");
        out.push_str(self.kind());
        out.push('"');
        // `,"k":` for a key, which is a plain ASCII word: nothing in it to
        // escape, and spelled whole at compile time.
        macro_rules! key {
            ($k:literal) => {
                concat!(",\"", $k, "\":")
            };
        }
        let field_u64 = |out: &mut String, key: &str, v: u64| {
            out.push_str(key);
            json::write_u64(out, v);
        };
        let field_str = |out: &mut String, key: &str, v: &str| {
            out.push_str(key);
            json::write_str(out, v);
        };
        match self {
            Event::Claim {
                job,
                machine,
                outcome,
            } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
                field_str(out, key!("outcome"), outcome.name());
                if let ClaimOutcome::Rejected { reason } = outcome {
                    field_str(out, key!("reason"), reason);
                }
            }
            Event::Dispatch { job, machine } | Event::Match { job, machine } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
            }
            Event::Escape {
                span,
                layer,
                code,
                scope,
            } => {
                field_u64(out, key!("span"), *span);
                field_str(out, key!("layer"), layer);
                field_str(out, key!("code"), code);
                field_str(out, key!("scope"), scope);
            }
            Event::Reschedule {
                job,
                machine,
                reason,
            } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
                field_str(out, key!("reason"), reason);
            }
            Event::Disposition {
                job,
                disposition,
                scope,
                span,
            } => {
                field_u64(out, key!("job"), *job);
                field_str(out, key!("disposition"), disposition);
                field_str(out, key!("scope"), scope);
                field_u64(out, key!("span"), *span);
            }
            Event::IoOp { op, outcome } => {
                field_str(out, key!("op"), op);
                field_str(out, key!("outcome"), outcome.name());
                match outcome {
                    IoOutcome::Ok => {}
                    IoOutcome::Error { code } | IoOutcome::Escaped { code } => {
                        field_str(out, key!("code"), code);
                    }
                }
            }
            Event::Violation {
                principle,
                machine,
                detail,
            } => {
                field_u64(out, key!("principle"), u64::from(*principle));
                field_u64(out, key!("machine"), *machine);
                field_str(out, key!("detail"), detail);
            }
            Event::CheckpointTaken {
                job,
                machine,
                bytes,
                banked_us,
            } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
                field_u64(out, key!("bytes"), *bytes);
                field_u64(out, key!("banked_us"), *banked_us);
            }
            Event::CheckpointRestored {
                job,
                machine,
                saved_us,
            } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
                field_u64(out, key!("saved_us"), *saved_us);
            }
            Event::CheckpointDiscarded {
                job,
                machine,
                reason,
            } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
                field_str(out, key!("reason"), reason);
            }
            Event::LeaseExpired { job, machine, side } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
                field_str(out, key!("side"), side);
            }
            Event::StaleEpochDropped {
                job,
                kind,
                got,
                current,
            } => {
                field_u64(out, key!("job"), *job);
                field_str(out, key!("kind"), kind);
                field_u64(out, key!("got"), *got);
                field_u64(out, key!("current"), *current);
            }
            Event::BreakerStateChange { machine, from, to } => {
                field_u64(out, key!("machine"), *machine);
                field_str(out, key!("from"), from);
                field_str(out, key!("to"), to);
            }
            Event::NetFaultApplied { kind, link, active } => {
                field_str(out, key!("kind"), kind);
                field_str(out, key!("link"), link);
                out.push_str(key!("active"));
                out.push_str(if *active { "true" } else { "false" });
            }
            Event::MemFlip {
                job,
                machine,
                target,
                bit,
            } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("machine"), *machine);
                field_str(out, key!("target"), target);
                field_u64(out, key!("bit"), *bit);
            }
            Event::FlockFault { job, pool, kind } => {
                field_u64(out, key!("job"), *job);
                field_u64(out, key!("pool"), *pool);
                field_str(out, key!("kind"), kind);
            }
            Event::SpanHop {
                span,
                layer,
                action,
                scope,
            } => {
                field_u64(out, key!("span"), *span);
                field_str(out, key!("layer"), layer);
                field_str(out, key!("action"), action.name());
                if let SpanAction::Widened { from } = action {
                    field_str(out, key!("from"), from);
                }
                field_str(out, key!("scope"), scope);
            }
        }
        out.push('}');
    }
}

/// The members of an event object its decoder knows, each the last value
/// the object gives for it and `None` when that value is missing or of
/// another type: what [`Json::get`](crate::json::Json::get) and the
/// `as_*` accessors would find in the object's tree. Unknown members are
/// read past.
#[derive(Default)]
pub(crate) struct EventFields<'a> {
    ty: Option<Cow<'a, str>>,
    job: Option<u64>,
    machine: Option<u64>,
    span: Option<u64>,
    principle: Option<u64>,
    bytes: Option<u64>,
    banked_us: Option<u64>,
    saved_us: Option<u64>,
    got: Option<u64>,
    current: Option<u64>,
    bit: Option<u64>,
    pool: Option<u64>,
    active: Option<bool>,
    outcome: Option<Cow<'a, str>>,
    reason: Option<Cow<'a, str>>,
    layer: Option<Cow<'a, str>>,
    code: Option<Cow<'a, str>>,
    scope: Option<Cow<'a, str>>,
    disposition: Option<Cow<'a, str>>,
    op: Option<Cow<'a, str>>,
    detail: Option<Cow<'a, str>>,
    side: Option<Cow<'a, str>>,
    kind: Option<Cow<'a, str>>,
    from: Option<Cow<'a, str>>,
    to: Option<Cow<'a, str>>,
    link: Option<Cow<'a, str>>,
    target: Option<Cow<'a, str>>,
    action: Option<Cow<'a, str>>,
}

impl<'a> EventFields<'a> {
    /// Read the next value of `r` as an event object into these fields,
    /// which start empty.
    pub(crate) fn read(&mut self, r: &mut Reader<'a>) -> Result<(), ParseError> {
        let f = self;
        r.object(|r, key| {
            match key {
                "type" => f.ty = r.str()?,
                "job" => f.job = r.u64()?,
                "machine" => f.machine = r.u64()?,
                "span" => f.span = r.u64()?,
                "principle" => f.principle = r.u64()?,
                "bytes" => f.bytes = r.u64()?,
                "banked_us" => f.banked_us = r.u64()?,
                "saved_us" => f.saved_us = r.u64()?,
                "got" => f.got = r.u64()?,
                "current" => f.current = r.u64()?,
                "bit" => f.bit = r.u64()?,
                "pool" => f.pool = r.u64()?,
                "active" => f.active = r.bool()?,
                "outcome" => f.outcome = r.str()?,
                "reason" => f.reason = r.str()?,
                "layer" => f.layer = r.str()?,
                "code" => f.code = r.str()?,
                "scope" => f.scope = r.str()?,
                "disposition" => f.disposition = r.str()?,
                "op" => f.op = r.str()?,
                "detail" => f.detail = r.str()?,
                "side" => f.side = r.str()?,
                "kind" => f.kind = r.str()?,
                "from" => f.from = r.str()?,
                "to" => f.to = r.str()?,
                "link" => f.link = r.str()?,
                "target" => f.target = r.str()?,
                "action" => f.action = r.str()?,
                _ => r.skip()?,
            }
            Ok(())
        })
    }

    /// The event these members spell, or what the `type` they name lacks.
    pub(crate) fn into_event(self) -> Result<Event, String> {
        let kind = self.ty.ok_or("event missing \"type\"")?;
        let u = |v: Option<u64>, k: &str| -> Result<u64, String> {
            v.ok_or_else(|| format!("{kind} event missing integer \"{k}\""))
        };
        let word = |v: Option<Cow<'a, str>>, k: &str| -> Result<Cow<'a, str>, String> {
            v.ok_or_else(|| format!("{kind} event missing string \"{k}\""))
        };
        let s = |v: Option<Cow<'a, str>>, k: &str| word(v, k).map(Cow::into_owned);
        match &*kind {
            "claim" => {
                let outcome = match &*word(self.outcome, "outcome")? {
                    "requested" => ClaimOutcome::Requested,
                    "accepted" => ClaimOutcome::Accepted,
                    "rejected" => ClaimOutcome::Rejected {
                        reason: s(self.reason, "reason")?,
                    },
                    "timed-out" => ClaimOutcome::TimedOut,
                    other => return Err(format!("unknown claim outcome {other:?}")),
                };
                Ok(Event::Claim {
                    job: u(self.job, "job")?,
                    machine: u(self.machine, "machine")?,
                    outcome,
                })
            }
            "dispatch" => Ok(Event::Dispatch {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
            }),
            "match" => Ok(Event::Match {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
            }),
            "escape" => Ok(Event::Escape {
                span: u(self.span, "span")?,
                layer: s(self.layer, "layer")?,
                code: s(self.code, "code")?,
                scope: s(self.scope, "scope")?,
            }),
            "reschedule" => Ok(Event::Reschedule {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
                reason: s(self.reason, "reason")?,
            }),
            "disposition" => Ok(Event::Disposition {
                job: u(self.job, "job")?,
                disposition: s(self.disposition, "disposition")?,
                scope: s(self.scope, "scope")?,
                span: u(self.span, "span")?,
            }),
            "io-op" => {
                let outcome = match &*word(self.outcome, "outcome")? {
                    "ok" => IoOutcome::Ok,
                    "error" => IoOutcome::Error {
                        code: s(self.code, "code")?,
                    },
                    "escaped" => IoOutcome::Escaped {
                        code: s(self.code, "code")?,
                    },
                    other => return Err(format!("unknown io outcome {other:?}")),
                };
                Ok(Event::IoOp {
                    op: s(self.op, "op")?,
                    outcome,
                })
            }
            "violation" => {
                let p = u(self.principle, "principle")?;
                Ok(Event::Violation {
                    principle: u8::try_from(p)
                        .map_err(|_| format!("principle {p} out of range"))?,
                    machine: self.machine.unwrap_or(0),
                    detail: s(self.detail, "detail")?,
                })
            }
            "ckpt-taken" => Ok(Event::CheckpointTaken {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
                bytes: u(self.bytes, "bytes")?,
                banked_us: u(self.banked_us, "banked_us")?,
            }),
            "ckpt-restored" => Ok(Event::CheckpointRestored {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
                saved_us: u(self.saved_us, "saved_us")?,
            }),
            "ckpt-discarded" => Ok(Event::CheckpointDiscarded {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
                reason: s(self.reason, "reason")?,
            }),
            "lease-expired" => Ok(Event::LeaseExpired {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
                side: s(self.side, "side")?,
            }),
            "stale-epoch-dropped" => Ok(Event::StaleEpochDropped {
                job: u(self.job, "job")?,
                kind: s(self.kind, "kind")?,
                got: u(self.got, "got")?,
                current: u(self.current, "current")?,
            }),
            "breaker-state-change" => Ok(Event::BreakerStateChange {
                machine: u(self.machine, "machine")?,
                from: s(self.from, "from")?,
                to: s(self.to, "to")?,
            }),
            "net-fault-applied" => Ok(Event::NetFaultApplied {
                kind: s(self.kind, "kind")?,
                link: s(self.link, "link")?,
                active: self
                    .active
                    .ok_or("net-fault-applied event missing boolean \"active\"")?,
            }),
            "mem-flip" => Ok(Event::MemFlip {
                job: u(self.job, "job")?,
                machine: u(self.machine, "machine")?,
                target: s(self.target, "target")?,
                bit: u(self.bit, "bit")?,
            }),
            "flock-fault" => Ok(Event::FlockFault {
                job: u(self.job, "job")?,
                pool: u(self.pool, "pool")?,
                kind: s(self.kind, "kind")?,
            }),
            "span-hop" => {
                let action = match &*word(self.action, "action")? {
                    "raised" => SpanAction::Raised,
                    "forwarded" => SpanAction::Forwarded,
                    "widened" => SpanAction::Widened {
                        from: s(self.from, "from")?,
                    },
                    "escaped" => SpanAction::Escaped,
                    "reexpressed" => SpanAction::Reexpressed,
                    "handled" => SpanAction::Handled,
                    "swallowed" => SpanAction::Swallowed,
                    other => return Err(format!("unknown span action {other:?}")),
                };
                Ok(Event::SpanHop {
                    span: u(self.span, "span")?,
                    layer: s(self.layer, "layer")?,
                    action,
                    scope: s(self.scope, "scope")?,
                })
            }
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Claim {
                job,
                machine,
                outcome,
            } => match outcome {
                ClaimOutcome::Rejected { reason } => {
                    write!(f, "claim job={job} machine={machine} rejected: {reason}")
                }
                o => write!(f, "claim job={job} machine={machine} {}", o.name()),
            },
            Event::Dispatch { job, machine } => {
                write!(f, "dispatch job={job} machine={machine}")
            }
            Event::Match { job, machine } => {
                write!(f, "match job={job} machine={machine}")
            }
            Event::Escape {
                span,
                layer,
                code,
                scope,
            } => write!(f, "escape span={span} at {layer}: {code} [{scope}]"),
            Event::Reschedule {
                job,
                machine,
                reason,
            } => write!(f, "reschedule job={job} from machine={machine}: {reason}"),
            Event::Disposition {
                job,
                disposition,
                scope,
                span,
            } => write!(
                f,
                "disposition job={job} {disposition} [{scope}] span={span}"
            ),
            Event::IoOp { op, outcome } => match outcome {
                IoOutcome::Ok => write!(f, "io {op} ok"),
                IoOutcome::Error { code } => write!(f, "io {op} error: {code}"),
                IoOutcome::Escaped { code } => write!(f, "io {op} escaped: {code}"),
            },
            Event::Violation {
                principle,
                machine,
                detail,
            } => {
                write!(f, "violation P{principle} machine={machine}: {detail}")
            }
            Event::CheckpointTaken {
                job,
                machine,
                bytes,
                banked_us,
            } => write!(
                f,
                "ckpt taken job={job} machine={machine} {bytes}B banked={banked_us}us"
            ),
            Event::CheckpointRestored {
                job,
                machine,
                saved_us,
            } => write!(
                f,
                "ckpt restored job={job} machine={machine} saved={saved_us}us"
            ),
            Event::CheckpointDiscarded {
                job,
                machine,
                reason,
            } => write!(f, "ckpt discarded job={job} machine={machine}: {reason}"),
            Event::LeaseExpired { job, machine, side } => {
                write!(
                    f,
                    "lease expired job={job} machine={machine} seen-by={side}"
                )
            }
            Event::StaleEpochDropped {
                job,
                kind,
                got,
                current,
            } => write!(
                f,
                "stale epoch dropped job={job} {kind} got={got} current={current}"
            ),
            Event::BreakerStateChange { machine, from, to } => {
                write!(f, "breaker machine={machine} {from} -> {to}")
            }
            Event::NetFaultApplied { kind, link, active } => write!(
                f,
                "net fault {kind} link={link} {}",
                if *active { "applied" } else { "cleared" }
            ),
            Event::MemFlip {
                job,
                machine,
                target,
                bit,
            } => write!(f, "mem flip job={job} machine={machine} {target} bit={bit}"),
            Event::FlockFault { job, pool, kind } => {
                write!(f, "flock fault job={job} pool={pool} {kind}")
            }
            Event::SpanHop {
                span,
                layer,
                action,
                scope,
            } => write!(f, "span={span} {action} at {layer} [{scope}]"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event of each of the 18 kinds.
    pub(crate) fn one_of_each_kind() -> Vec<Event> {
        let events = vec![
            Event::Claim {
                job: 1,
                machine: 3,
                outcome: ClaimOutcome::Rejected {
                    reason: "busy \"again\"".into(),
                },
            },
            Event::Dispatch { job: 2, machine: 4 },
            Event::Match { job: 2, machine: 4 },
            Event::Escape {
                span: 9,
                layer: "io-library".into(),
                code: "FilesystemOffline".into(),
                scope: "local-resource".into(),
            },
            Event::Reschedule {
                job: 5,
                machine: 2,
                reason: "machine vanished".into(),
            },
            Event::Disposition {
                job: 5,
                disposition: "log-and-reschedule".into(),
                scope: "remote-resource".into(),
                span: 9,
            },
            Event::IoOp {
                op: "read".into(),
                outcome: IoOutcome::Escaped {
                    code: "ConnectionTimedOut".into(),
                },
            },
            Event::Violation {
                principle: 1,
                machine: 4,
                detail: "swallowed at jvm".into(),
            },
            Event::CheckpointTaken {
                job: 3,
                machine: 2,
                bytes: 4096,
                banked_us: 1_500_000,
            },
            Event::CheckpointRestored {
                job: 3,
                machine: 4,
                saved_us: 1_500_000,
            },
            Event::CheckpointDiscarded {
                job: 3,
                machine: 4,
                reason: "checksum mismatch".into(),
            },
            Event::LeaseExpired {
                job: 4,
                machine: 6,
                side: "schedd".into(),
            },
            Event::StaleEpochDropped {
                job: 4,
                kind: "report".into(),
                got: 2,
                current: 3,
            },
            Event::BreakerStateChange {
                machine: 6,
                from: "closed".into(),
                to: "open".into(),
            },
            Event::NetFaultApplied {
                kind: "partition".into(),
                link: "1-5".into(),
                active: true,
            },
            Event::MemFlip {
                job: 4,
                machine: 2,
                target: "heap-word".into(),
                bit: 257,
            },
            Event::FlockFault {
                job: 3,
                pool: 2,
                kind: "unreachable".into(),
            },
            Event::SpanHop {
                span: 7,
                layer: "rpc".into(),
                action: SpanAction::Widened {
                    from: "network".into(),
                },
                scope: "process".into(),
            },
        ];
        let kinds: std::collections::BTreeSet<_> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds.len(), 18);
        events
    }

    fn round_trip(e: Event) {
        let mut doc = String::new();
        e.write_json(&mut doc);
        let mut fields = EventFields::default();
        json::read_all(&doc, |r| fields.read(r)).unwrap();
        let parsed = fields.into_event().unwrap();
        assert_eq!(parsed, e, "document was {doc}");

        // Byte identity: re-serializing the parsed event reproduces the
        // original document exactly, so the parser can never drift from
        // the writer.
        let mut redoc = String::new();
        parsed.write_json(&mut redoc);
        assert_eq!(redoc, doc, "reserialization must be byte-identical");
    }

    #[test]
    fn every_variant_round_trips() {
        for e in one_of_each_kind() {
            round_trip(e);
        }
        round_trip(Event::Claim {
            job: 1,
            machine: 3,
            outcome: ClaimOutcome::Requested,
        });
        round_trip(Event::NetFaultApplied {
            kind: "loss".into(),
            link: "1-2".into(),
            active: false,
        });
        round_trip(Event::MemFlip {
            job: 9,
            machine: 7,
            target: "ckpt-image".into(),
            bit: 40,
        });
        round_trip(Event::FlockFault {
            job: 4,
            pool: 1,
            kind: "saturated".into(),
        });
        round_trip(Event::SpanHop {
            span: 7,
            layer: "shadow".into(),
            action: SpanAction::Handled,
            scope: "local-resource".into(),
        });
    }

    #[test]
    fn span_accessor_finds_span_events() {
        let hop: Event = Event::SpanHop {
            span: 3,
            layer: "x".into(),
            action: SpanAction::Raised,
            scope: "job".into(),
        };
        assert_eq!(hop.span(), Some(3));
        let dispatch: Event = Event::Dispatch { job: 1, machine: 2 };
        assert_eq!(dispatch.span(), None);
        // A no-span disposition is not part of any journey.
        let no_span: Event = Event::Disposition {
            job: 1,
            disposition: "return-completed".into(),
            scope: "program".into(),
            span: crate::NO_SPAN,
        };
        assert_eq!(no_span.span(), None);
    }
}
