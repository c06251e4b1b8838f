//! Forwarding policy wrappers that time every call into the scheduling
//! and routing layers.
//!
//! Each wrapper forwards every trait method to the policy it wraps, so a
//! run through the wrapper makes exactly the decisions the bare policy
//! makes; the benchmark checks that by comparing the traced and untraced
//! reports. Only the decision calls are timed, into shared counters: they
//! run once per serving step or per dispatched request, far too often to
//! keep a span each.

use hilos_core::{
    ClusterSnapshot, RouteRequest, RoutingPolicy, SchedDecision, SchedSnapshot, SchedulingPolicy,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Call counters shared between a wrapper and the benchmark. Every field
/// is a statistic that publishes no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    items: AtomicU64,
}

impl CallStats {
    fn record(&self, since: Instant, items: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the wrapped calls.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Mean items handed to each call (queued requests per `schedule`).
    pub fn items_mean(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.items.load(Ordering::Relaxed) as f64 / n as f64,
        }
    }
}

/// A [`SchedulingPolicy`] that times `schedule` and forwards everything.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    stats: Arc<CallStats>,
}

impl TimedPolicy {
    /// Wraps `inner`, counting into `stats`.
    pub fn new(inner: Box<dyn SchedulingPolicy>, stats: Arc<CallStats>) -> Self {
        TimedPolicy { inner, stats }
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn may_preempt(&self) -> bool {
        self.inner.may_preempt()
    }

    fn may_shed(&self) -> bool {
        self.inner.may_shed()
    }

    fn queue_horizon(&self, free_slots: usize) -> Option<usize> {
        self.inner.queue_horizon(free_slots)
    }

    fn schedule(&mut self, snapshot: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
        let start = Instant::now();
        let decisions = self.inner.schedule(snapshot);
        self.stats.record(start, snapshot.queue.len());
        decisions
    }
}

/// A [`RoutingPolicy`] that times `route` and forwards everything.
#[derive(Debug)]
pub struct TimedRouter {
    inner: Box<dyn RoutingPolicy>,
    stats: Arc<CallStats>,
}

impl TimedRouter {
    /// Wraps `inner`, counting into `stats`.
    pub fn new(inner: Box<dyn RoutingPolicy>, stats: Arc<CallStats>) -> Self {
        TimedRouter { inner, stats }
    }
}

impl RoutingPolicy for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        let start = Instant::now();
        let target = self.inner.route(request, snapshot);
        self.stats.record(start, snapshot.deployments.len());
        target
    }
}
