//! Scope-annotated error journeys, reconstructed per span.
//!
//! Grouping a stream by span id recovers each error's full trajectory:
//! where it was raised, which interfaces it escaped, which layer finally
//! consumed it, and the schedd's ruling. Each hop is classified into the
//! three phases of the HPC resilience-pattern taxonomy — *detection*
//! (the error became visible), *containment* (it was carried, widened, or
//! re-expressed without leaking), and *recovery* (it was handled, or
//! answered with a disposition).

use crate::chain::span_jobs;
use crate::stream::Stream;
use obs::{Event, SpanId};
use std::collections::BTreeMap;
use std::fmt;

/// Which resilience phase a hop belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The error became visible: raised at a layer, or escaped an
    /// interface's vocabulary.
    Detection,
    /// The error was carried without leaking: forwarded, widened to an
    /// enclosing scope, or re-expressed in a richer vocabulary.
    Containment,
    /// Something acted on the error: handled it as the manager of its
    /// scope, ruled a disposition — or swallowed it, which is
    /// recovery's *failure* mode (a Principle 1 violation).
    Recovery,
}

impl Phase {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Detection => "detection",
            Phase::Containment => "containment",
            Phase::Recovery => "recovery",
        }
    }

    /// The phase of a span-hop action (by wire name).
    pub fn of_action(action: &str) -> Phase {
        match action {
            "raised" | "escaped" => Phase::Detection,
            "forwarded" | "widened" | "reexpressed" => Phase::Containment,
            _ => Phase::Recovery,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One annotated hop of a journey.
#[derive(Debug, Clone)]
pub struct JourneyHop {
    /// When.
    pub at_us: u64,
    /// The recording actor.
    pub actor: String,
    /// The layer the hop happened at.
    pub layer: String,
    /// What the layer did (span-hop action name, or `"escape"` /
    /// `"disposition"` for the protocol events that border a journey).
    pub action: String,
    /// The error's scope after the hop.
    pub scope: String,
    /// The resilience phase this hop belongs to.
    pub phase: Phase,
}

/// One error's reconstructed journey.
#[derive(Debug, Clone)]
pub struct Journey {
    /// The span id.
    pub span: SpanId,
    /// The job the journey belongs to, when a disposition stitched it.
    pub job: Option<u64>,
    /// The daemon that first saw the error (actor of the first hop).
    pub first_seen_by: Option<String>,
    /// The layer the error was born at.
    pub origin_layer: Option<String>,
    /// Interfaces the error escaped, in order.
    pub escaped_layers: Vec<String>,
    /// `(layer, scope)` of the hop that consumed the error, if any.
    pub managed_by: Option<(String, String)>,
    /// The schedd's final ruling, if the journey ended in one.
    pub disposition: Option<String>,
    /// Every hop, annotated.
    pub hops: Vec<JourneyHop>,
}

impl Journey {
    /// Render the journey as an indented, human-readable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let job = self.job.map(|j| format!(" (job {j})")).unwrap_or_default();
        out.push_str(&format!("span {}{job}:\n", self.span));
        for h in &self.hops {
            out.push_str(&format!(
                "  [{:>10.3}s] {:<11} {:<12} at {:<12} [{}]\n",
                h.at_us as f64 / 1e6,
                h.phase,
                h.action,
                h.layer,
                h.scope
            ));
        }
        let summary = match (&self.managed_by, &self.disposition) {
            (Some((layer, scope)), Some(d)) => {
                format!("  managed by {layer} as {scope}-scope; disposition: {d}\n")
            }
            (Some((layer, scope)), None) => format!("  managed by {layer} as {scope}-scope\n"),
            (None, Some(d)) => format!("  disposition: {d}\n"),
            (None, None) => "  journey still in flight (no terminal hop)\n".to_string(),
        };
        out.push_str(&summary);
        out
    }
}

/// Reconstruct every error journey in a stream, ordered by span id.
pub fn journeys(stream: &Stream) -> Vec<Journey> {
    let span_to_job = span_jobs(&stream.records);
    let mut by_span: BTreeMap<SpanId, Journey> = BTreeMap::new();
    for r in &stream.records {
        let Some(span) = r.event.span() else {
            continue;
        };
        let j = by_span.entry(span).or_insert_with(|| Journey {
            span,
            job: span_to_job.get(&span).copied(),
            first_seen_by: None,
            origin_layer: None,
            escaped_layers: Vec::new(),
            managed_by: None,
            disposition: None,
            hops: Vec::new(),
        });
        let hop = match &r.event {
            Event::SpanHop {
                layer,
                action,
                scope,
                ..
            } => {
                let name = action.name();
                if name == "raised" && j.origin_layer.is_none() {
                    j.origin_layer = Some(layer.clone());
                }
                if name == "escaped" {
                    j.escaped_layers.push(layer.clone());
                }
                if name == "handled" {
                    j.managed_by = Some((layer.clone(), scope.clone()));
                }
                JourneyHop {
                    at_us: r.at_us,
                    actor: r.actor.clone(),
                    layer: layer.clone(),
                    action: name.to_string(),
                    scope: scope.clone(),
                    phase: Phase::of_action(name),
                }
            }
            Event::Escape { layer, scope, .. } => {
                j.escaped_layers.push(layer.clone());
                JourneyHop {
                    at_us: r.at_us,
                    actor: r.actor.clone(),
                    layer: layer.clone(),
                    action: "escape".to_string(),
                    scope: scope.clone(),
                    phase: Phase::Detection,
                }
            }
            Event::Disposition {
                disposition, scope, ..
            } => {
                j.disposition = Some(disposition.clone());
                JourneyHop {
                    at_us: r.at_us,
                    actor: r.actor.clone(),
                    layer: r.actor.clone(),
                    action: "disposition".to_string(),
                    scope: scope.clone(),
                    phase: Phase::Recovery,
                }
            }
            _ => continue,
        };
        if j.first_seen_by.is_none() {
            j.first_seen_by = Some(r.actor.clone());
        }
        j.hops.push(hop);
    }
    by_span.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Collector, SpanAction};

    #[test]
    fn journey_reconstruction_and_phases() {
        let mut c = Collector::new();
        c.record(
            1,
            "startd:m1",
            Event::SpanHop {
                span: 5,
                layer: "io-library".into(),
                action: SpanAction::Raised,
                scope: "local-resource".into(),
            },
        );
        c.record(
            2,
            "startd:m1",
            Event::Escape {
                span: 5,
                layer: "io-library".into(),
                code: "FilesystemOffline".into(),
                scope: "local-resource".into(),
            },
        );
        c.record(
            3,
            "startd:m1",
            Event::SpanHop {
                span: 5,
                layer: "rpc".into(),
                action: SpanAction::Widened {
                    from: "local-resource".into(),
                },
                scope: "network".into(),
            },
        );
        c.record(
            4,
            "schedd",
            Event::SpanHop {
                span: 5,
                layer: "shadow".into(),
                action: SpanAction::Handled,
                scope: "network".into(),
            },
        );
        c.record(
            5,
            "schedd",
            Event::Disposition {
                job: 9,
                disposition: "log-and-reschedule".into(),
                scope: "network".into(),
                span: 5,
            },
        );
        let s = Stream::from_collector(&c).unwrap();
        let js = journeys(&s);
        assert_eq!(js.len(), 1);
        let j = &js[0];
        assert_eq!(j.span, 5);
        assert_eq!(j.job, Some(9));
        assert_eq!(j.first_seen_by.as_deref(), Some("startd:m1"));
        assert_eq!(j.origin_layer.as_deref(), Some("io-library"));
        assert_eq!(j.escaped_layers, vec!["io-library"]);
        assert_eq!(
            j.managed_by,
            Some(("shadow".to_string(), "network".to_string()))
        );
        assert_eq!(j.disposition.as_deref(), Some("log-and-reschedule"));
        let phases: Vec<Phase> = j.hops.iter().map(|h| h.phase).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Detection,   // raised
                Phase::Detection,   // escape
                Phase::Containment, // widened
                Phase::Recovery,    // handled
                Phase::Recovery,    // disposition
            ]
        );
        let text = j.render();
        assert!(text.contains("managed by shadow as network-scope"));
        assert!(text.contains("disposition: log-and-reschedule"));
    }
}
