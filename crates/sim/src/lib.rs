//! # hilos-sim — deterministic flow-level discrete-event simulator
//!
//! This crate is the hardware substrate of the HILOS reproduction. Every
//! device in the modeled systems — PCIe links, DRAM and HBM ports, SSD read
//! and write channels, GPU/CPU/FPGA compute engines — is a *resource* with a
//! capacity in units/second. Work items (*jobs*) demand an amount of units
//! across a *route* of resources they occupy simultaneously; concurrent jobs
//! share capacity by **max-min fairness** (progressive filling with optional
//! per-job rate caps), the classical flow-level model of bandwidth sharing.
//!
//! # Two engines, one contract
//!
//! [`FlowEngine`] hides two interchangeable implementations behind the
//! [`FlowEngineImpl`] selector:
//!
//! * **Progressive filling** (default): exact max-min rates, recomputed
//!   whenever the active set changes. Each filling round costs O(Σ route +
//!   active resources) — the live jobs' routes plus the resources on them
//!   — and a recompute runs up to one round per distinct bottleneck: fine
//!   for thousands of concurrent flows, a wall at millions. It is
//!   bit-reproducible and serves as the *equivalence oracle*: every golden
//!   FNV pin in the serving and cluster layers is taken under it.
//! * **Virtual time**: the dslab-style `fair_fast_with_cancel`
//!   construction. The key observation is that under fair sharing the
//!   completion *order* of jobs on a resource is invariant — each job gets
//!   the same share `capacity / n`, so whoever needs the least service
//!   finishes first, no matter how `n` changes later. A per-resource
//!   *virtual clock* (cumulative per-job service, advanced by
//!   `share · dt`) therefore lets each job's completion be characterised
//!   *once at submit* by its virtual finish `V + demand`; the completion
//!   index is a min-heap on that number, and submit/complete/cancel are
//!   O(log n) with no per-job rate rescans. Multi-resource routes and
//!   rate-capped jobs fall outside the uniform model and are carried
//!   explicitly with re-anchored predictions; their completion times are
//!   conservative (never earlier than the oracle's). The module docs of
//!   `src/fair.rs` and the differential proptests in
//!   `tests/differential.rs` spell out the exact guarantees.
//!
//! The oracle is the right choice when bit-stable baselines matter
//! (golden-pinned regression runs); virtual time is the right choice when
//! trace scale matters (the 1M-request serving benchmark in
//! `bench_serving` runs under it).
//!
//! On top of the engine sits a [`TaskGraph`] layer: DAGs of transfers,
//! computes, fixed delays and milestones, with *background* tasks that
//! contend for bandwidth without extending the foreground makespan (used
//! for the paper's delayed KV-cache writeback). [`execute`] runs a graph
//! and returns a [`Timeline`] with per-task spans and per-resource
//! utilization — the raw material of the paper's breakdown and energy
//! figures.
//!
//! The simulation is single-threaded and bit-deterministic: time is integer
//! picoseconds and event ordering is tied to submission order.
//!
//! # Example
//!
//! Model a GPU loading weights over PCIe while a background spill contends
//! for the same link:
//!
//! ```
//! use hilos_sim::{execute, FlowEngine, ResourceKind, ResourceSpec, SimTime, TaskGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut eng = FlowEngine::new();
//! let pcie = eng.add_resource(ResourceSpec::new("pcie", ResourceKind::Link, 31.5e9));
//! let gpu = eng.add_resource(ResourceSpec::new("gpu", ResourceKind::Compute, 100e12));
//!
//! let mut g = TaskGraph::new();
//! let w = g.transfer("loadw:attn", 3.6e9, vec![pcie], &[]);
//! g.compute("qkv:proj", 14.5e9, gpu, &[w]);
//! let spill = g.transfer("spill:kv", 1.0e9, vec![pcie], &[]);
//! g.set_background(spill);
//!
//! let timeline = execute(&mut eng, &g)?;
//! assert!(timeline.makespan() > SimTime::ZERO);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod executor;
mod fair;
mod oracle;
mod resource;
mod task;
mod time;
mod trace;

pub use engine::{Completion, FlowEngine, FlowEngineImpl, JobId};
pub use error::SimError;
pub use executor::{execute, TaskSpan, Timeline};
pub use resource::{ResourceId, ResourceKind, ResourceSpec, ResourceStats};
pub use task::{Task, TaskGraph, TaskId, TaskKind};
pub use time::{SimTime, PS_PER_SEC};
pub use trace::{critical_path, gantt, GanttLane};
