//! Chrome `trace_event` / Perfetto JSON export.

use std::fmt::Write as _;

use crate::attribution::LatencyAttribution;
use crate::event::{Event, EventKind};

/// Render one event stream per deployment as a Chrome `trace_event` JSON
/// document that `ui.perfetto.dev` loads directly.
///
/// Layout: one process per deployment (`pid` = index in `rings`), an async
/// span per completed request (`cat: "request"`, `id` = request id) tiled
/// with its additive attribution phases, and instant events for
/// preemptions, demotions, migrations, sheds, and elastic lifecycle
/// transitions. Timestamps are microseconds of deployment-local busy time.
pub fn perfetto_json(rings: &[&[Event]]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    // Every line is written straight into `out` (writing to a `String`
    // cannot fail); `line` puts the separator before all but the first.
    let mut first = true;
    let mut line = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };

    for (pid, ring) in rings.iter().enumerate() {
        if ring.is_empty() {
            continue;
        }
        line(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"deployment {pid}\"}}}}"
        );
    }

    // One async span per completed request, internally tiled with its
    // attribution phases so the child slices exactly partition the span.
    let attr = LatencyAttribution::analyze(rings);
    for r in &attr.rows {
        let pid = r.deployment;
        let id = r.id;
        let begin = r.arrival_s * 1e6;
        let end = r.finished_s * 1e6;
        line(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"request {id}\", \"cat\": \"request\", \"ph\": \"b\", \
             \"pid\": {pid}, \"id\": {id}, \"ts\": {begin}, \
             \"args\": {{\"ttft_ms\": {}, \"preemptions\": {}, \"reused_tokens\": {}}}}}",
            r.ttft_s * 1e3,
            r.preemptions,
            r.reused_tokens
        );
        let phases = [
            ("migration", r.migration_s),
            ("queue", r.queue_s),
            ("recall", r.recall_s),
            ("prefill", r.prefill_s),
            ("interference", r.interference_s),
            ("preempt_lost", r.preemption_lost_s),
            ("decode", r.decode_s),
        ];
        let mut t = begin;
        let last = phases.iter().rposition(|(_, d)| *d > 0.0);
        for (i, (name, dur)) in phases.iter().enumerate() {
            if *dur <= 0.0 {
                continue;
            }
            // The components sum to e2e, so sequential tiling lands on
            // `end`; clamp the final boundary to it against f64 drift.
            let stop = if Some(i) == last { end } else { (t + dur * 1e6).min(end) };
            line(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"{name}\", \"cat\": \"request\", \"ph\": \"b\", \
                 \"pid\": {pid}, \"id\": {id}, \"ts\": {t}}}"
            );
            line(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"{name}\", \"cat\": \"request\", \"ph\": \"e\", \
                 \"pid\": {pid}, \"id\": {id}, \"ts\": {stop}}}"
            );
            t = stop;
        }
        line(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"request {id}\", \"cat\": \"request\", \"ph\": \"e\", \
             \"pid\": {pid}, \"id\": {id}, \"ts\": {end}}}"
        );
    }

    // Instant markers for displacement and elastic lifecycle events.
    for (pid, ring) in rings.iter().enumerate() {
        for ev in ring.iter() {
            let mark = matches!(
                ev.kind,
                EventKind::Preempted { .. }
                    | EventKind::Demoted { .. }
                    | EventKind::Migrated { .. }
                    | EventKind::Shed
                    | EventKind::Rejected
                    | EventKind::ScaleUp
                    | EventKind::Warming
                    | EventKind::Activated
                    | EventKind::Drain
                    | EventKind::Retired
            );
            if !mark {
                continue;
            }
            line(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"lifecycle\", \"ph\": \"i\", \"s\": \"p\", \
                 \"pid\": {pid}, \"tid\": 0, \"ts\": {}",
                ev.kind.label(),
                ev.t_s * 1e6
            );
            if ev.request != crate::event::NO_REQUEST {
                let _ = write!(out, ", \"args\": {{\"request\": {}}}", ev.request);
            }
            out.push('}');
        }
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_REQUEST;
    use crate::json::{parse_json, spans_nest, validate_json, Json};

    fn ev(t_s: f64, request: u64, kind: EventKind) -> Event {
        Event { t_s, deployment: 0, request, kind }
    }

    fn sample_ring() -> Vec<Event> {
        vec![
            ev(1.0, 7, EventKind::Arrived { prompt_tokens: 100 }),
            ev(1.5, 7, EventKind::Admitted { reused_tokens: 0 }),
            ev(2.0, 7, EventKind::Joined),
            ev(2.5, 7, EventKind::Emit { index: 0, interference_s: 0.0 }),
            ev(2.5, 7, EventKind::Completed { output_tokens: 1 }),
            ev(3.0, NO_REQUEST, EventKind::Drain),
        ]
    }

    #[test]
    fn export_is_valid_json_with_nesting_spans() {
        let ring = sample_ring();
        let doc = perfetto_json(&[&ring]);
        validate_json(&doc).unwrap();
        let spans = spans_nest(&doc).unwrap();
        // The request span plus its queue/prefill/decode phase slices.
        assert_eq!(spans, 4);
    }

    #[test]
    fn export_contains_process_metadata_and_instants() {
        let ring = sample_ring();
        let doc = perfetto_json(&[&ring]);
        let parsed = parse_json(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        assert!(events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("i")
            && e.get("name").and_then(Json::as_str) == Some("drain")));
    }

    #[test]
    fn empty_rings_export_an_empty_document() {
        let doc = perfetto_json(&[]);
        validate_json(&doc).unwrap();
        assert_eq!(spans_nest(&doc).unwrap(), 0);
    }
}
