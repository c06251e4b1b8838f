//! # hilos-trace — deterministic request-lifecycle tracing
//!
//! A zero-cost, ring-buffered, structured event log for the serving stack,
//! plus the analysis layers built on top of it: exact per-request latency
//! attribution and a Chrome `trace_event` / Perfetto JSON exporter.
//!
//! ## Event taxonomy
//!
//! Every [`Event`] is stamped with the **deployment-local clock** (`t_s`,
//! seconds on that deployment's busy-time axis), the deployment index, and
//! a request id ([`NO_REQUEST`] for deployment-scoped events). The
//! [`EventKind`] payloads carry the byte/token quantities needed for
//! attribution:
//!
//! | phase        | events |
//! |--------------|--------|
//! | arrival      | [`EventKind::Arrived`], [`EventKind::Routed`] |
//! | admission    | [`EventKind::Admitted`], [`EventKind::PrefixHit`], [`EventKind::Recall`] |
//! | prefill      | [`EventKind::PrefillChunk`], [`EventKind::Joined`] |
//! | decode       | [`EventKind::Emit`] |
//! | displacement | [`EventKind::Preempted`], [`EventKind::Demoted`], [`EventKind::Migrated`] |
//! | terminal     | [`EventKind::Completed`], [`EventKind::Rejected`], [`EventKind::Shed`] |
//! | elastic      | [`EventKind::ScaleUp`], [`EventKind::Warming`], [`EventKind::Activated`], [`EventKind::Drain`], [`EventKind::Retired`] |
//!
//! Conservation invariant (proptested in `hilos-core`): every `Arrived` is
//! terminally paired with **exactly one** of `Completed | Rejected | Shed`,
//! across preemption, cross-deployment migration, and elastic drain. A
//! migrated request's terminal event lands on the *target* deployment's
//! ring; [`check_conservation`] therefore matches ids across all rings.
//!
//! ## Determinism contract
//!
//! Emission is **observational**: recording an event never mutates engine
//! clocks or accounting, so with tracing off (the default [`NullSink`])
//! every golden FNV pin of the serving stack is bit-identical, and with
//! tracing on the event stream itself is deterministic — same seed, same
//! stream — and pinned in CI via [`events_fnv`] (FNV-1a over each event's
//! kind code, `f64::to_bits` timestamp, ids, and payload fields in
//! declaration order). [`EventRing`] additionally keeps a stream FNV
//! ([`EventRing::stream_fnv`]) that covers events beyond the ring's
//! capacity. It is folded lazily, so recording stays hash-free: an event
//! enters the hash when it is evicted, and the retained events are folded
//! on top when the hash is asked for.
//!
//! ## Exporter format
//!
//! [`perfetto_json`] writes the Chrome `trace_event` JSON array format
//! (`{"displayTimeUnit": "ms", "traceEvents": [...]}`), which
//! `ui.perfetto.dev` and `chrome://tracing` both load directly:
//!
//! * one **process per deployment** (`pid` = deployment index, named via
//!   `process_name` metadata),
//! * one **async span per completed request** (`ph: "b"/"e"`, `cat:
//!   "request"`, `id` = request id) from (rebased) arrival to completion,
//!   tiled internally with the request's additive attribution phases
//!   (migration → queue → recall → prefill → interference → preempt-lost →
//!   decode) so the child slices exactly partition the parent span,
//! * **instant events** (`ph: "i"`) for preemptions, demotions,
//!   migrations, sheds, and elastic lifecycle transitions.
//!
//! Timestamps are microseconds (`t_s * 1e6`). [`validate_json`] and
//! [`spans_nest`] check the export without any external JSON dependency.
//!
//! ## Attribution
//!
//! [`LatencyAttribution`] folds each completed request's events into an
//! exact additive decomposition of its end-to-end latency
//! ([`RequestAttribution`]): `queue + recall + prefill + interference +
//! preemption-loss + migration + decode == e2e`, with decode defined as
//! the remainder so the identity holds to f64 exactness by construction.
//! Chunk totals reconcile against the engine's `PrefillBreakdown` via
//! [`prefill_chunk_totals`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod event;
mod export;
mod json;
mod sink;

pub use attribution::{
    check_conservation, prefill_chunk_totals, ConservationReport, LatencyAttribution,
    PrefillChunkTotals, RequestAttribution,
};
pub use event::{events_fnv, Event, EventKind, NO_REQUEST};
pub use export::perfetto_json;
pub use json::{parse_json, spans_nest, validate_json, Json};
pub use sink::{EventRing, NullSink, TraceSink};
