//! Bridge between the engine and `ipe-obs`: connector codes for compact
//! trace events, trace rendering against a schema, and report assembly.
//!
//! `ipe-obs` stores classes and connectors as raw integers so the search
//! hot path never touches strings; this module owns the encoding (the
//! index of the connector's base in [`Base::ALL`] with the `Possibly`
//! flag in bit 3) and the resolution back to display names.

use crate::engine::SearchOutcome;
use ipe_algebra::moose::{Base, Connector, Label};
use ipe_obs::{EventKind, Report, SearchTrace, TraceEvent, TraceEventView};
use ipe_schema::{ClassId, Schema};

/// Encodes a connector into the `u8` slot of a [`TraceEvent`].
pub fn conn_code(c: Connector) -> u8 {
    let base = Base::ALL
        .iter()
        .position(|&b| b == c.base)
        .expect("Base::ALL is exhaustive") as u8;
    base | (u8::from(c.possibly) << 3)
}

/// Decodes a [`conn_code`] back into a connector.
pub fn conn_from_code(code: u8) -> Connector {
    Connector::new(Base::ALL[(code & 7) as usize], code & 8 != 0)
}

/// Builds a compact trace event for a label seen at `class` and `depth`.
pub(crate) fn ev(kind: EventKind, class: ClassId, label: &Label, depth: usize) -> TraceEvent {
    TraceEvent {
        kind,
        class: class.index() as u32,
        conn: conn_code(label.connector),
        semlen: label.semlen,
        depth: depth as u32,
    }
}

/// Resolves a trace's compact events into display form against `schema`.
pub fn trace_to_views(schema: &Schema, trace: &SearchTrace) -> Vec<TraceEventView> {
    trace
        .events()
        .iter()
        .map(|e| {
            let idx = e.class as usize;
            let class = if idx < schema.class_count() {
                schema
                    .class_name(ClassId(ipe_graph::NodeId(e.class)))
                    .to_owned()
            } else {
                format!("#{idx}")
            };
            TraceEventView {
                kind: e.kind,
                class,
                connector: conn_from_code(e.conn).to_string(),
                semlen: e.semlen,
                depth: e.depth,
            }
        })
        .collect()
}

/// Assembles the full machine-readable report for one completion run:
/// query metadata, per-query [`crate::SearchStats`], the global
/// counter/timer registries, the resolved trace, and the serialized
/// completions (text plus structure).
pub fn build_report(
    schema: &Schema,
    query: &str,
    outcome: &SearchOutcome,
    trace: &SearchTrace,
) -> Report {
    let mut report = Report::new();
    report
        .meta("query", query)
        .stat("results", outcome.completions.len() as u64);
    for (name, value) in outcome.stats.fields() {
        report.stat(name, value);
    }
    report
        .capture_metrics()
        .set_trace(trace_to_views(schema, trace), trace.dropped());
    let texts: Vec<String> = outcome
        .completions
        .iter()
        .map(|c| c.display(schema).to_string())
        .collect();
    if let Ok(json) = serde_json::to_string(&texts) {
        report.attach_json("completions", json);
    }
    if let Ok(json) = serde_json::to_string(&outcome.completions) {
        report.attach_json("completion_details", json);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_codes_round_trip() {
        for c in Connector::all() {
            assert_eq!(conn_from_code(conn_code(c)), c, "{c}");
        }
    }

    #[test]
    fn codes_are_distinct() {
        let mut seen: Vec<u8> = Connector::all().map(conn_code).collect();
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
    }
}
