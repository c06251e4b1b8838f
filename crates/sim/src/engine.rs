//! The flow engine: max-min fair sharing of resources among concurrent jobs.
//!
//! Every active job demands a fixed amount of work (bytes, FLOPs) across a
//! *route* of resources it occupies simultaneously. At any instant each job
//! receives a rate determined by **max-min fairness with rate caps**
//! (progressive filling): rates grow uniformly until a resource saturates or
//! a job hits its cap, those jobs freeze, and filling continues among the
//! rest. This is the classical *flow-level* network simulation — exact for
//! bandwidth-shared links and a good first-order model for memory ports,
//! storage channels and compute engines.
//!
//! Two interchangeable implementations sit behind [`FlowEngine`], selected
//! by [`FlowEngineImpl`]:
//!
//! * [`FlowEngineImpl::ProgressiveFilling`] (the default) recomputes exact
//!   max-min rates on every composition change — O(Σ route + active
//!   resources) per filling round, where the active resources are those on
//!   some live job's route — bit-reproducible, and the equivalence oracle
//!   for everything else.
//! * [`FlowEngineImpl::VirtualTime`] exploits the invariance of completion
//!   *order* under fair sharing: per-resource virtual clocks advance with
//!   the active-job count and each job's completion is predicted once at
//!   submit, making submit/complete/cancel O(log n). See [`crate::fair`]'s
//!   module docs for the algorithm and its (bounded, conservative)
//!   divergence from the oracle on capped and multi-resource jobs.

use crate::error::SimError;
use crate::fair::FairEngine;
use crate::oracle::OracleEngine;
use crate::resource::{ResourceId, ResourceSpec, ResourceStats};
use crate::time::SimTime;

/// Identifier of an in-flight job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId {
    pub(crate) slot: u32,
    pub(crate) seq: u64,
}

impl JobId {
    /// Monotonic sequence number (unique across the engine's lifetime).
    pub fn sequence(self) -> u64 {
        self.seq
    }
}

/// A job that finished during [`FlowEngine::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The job that completed.
    pub job: JobId,
    /// The instant at which it completed (the time advanced to).
    pub at: SimTime,
}

/// A job is considered complete once its remaining demand drops below this
/// epsilon (absolute floor plus a term relative to the original demand).
pub(crate) fn completion_eps(demand: f64) -> f64 {
    1e-9 + 1e-12 * demand.abs()
}

/// Selects the rate-sharing algorithm behind a [`FlowEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlowEngineImpl {
    /// Exact max-min progressive filling; O(Σ route + active resources)
    /// per filling round on every composition change. Bit-reproducible —
    /// all golden pins are taken under this engine.
    #[default]
    ProgressiveFilling,
    /// Virtual-time fair sharing; O(log n) per composition change.
    /// Completion times are exact for single-resource uncapped jobs and
    /// conservative (never earlier than the oracle's) otherwise.
    VirtualTime,
}

#[derive(Debug)]
enum Inner {
    Oracle(OracleEngine),
    Fair(FairEngine),
}

/// Deterministic flow-level simulation engine.
///
/// # Examples
///
/// Two equal transfers sharing one link take twice as long as one:
///
/// ```
/// use hilos_sim::{FlowEngine, ResourceKind, ResourceSpec, SimTime};
///
/// let mut eng = FlowEngine::new();
/// let link = eng.add_resource(ResourceSpec::new("link", ResourceKind::Link, 1e9));
/// eng.submit(&[link], 1e9, None).unwrap();
/// eng.submit(&[link], 1e9, None).unwrap();
/// let end = eng.run_to_idle().unwrap();
/// assert_eq!(end, SimTime::from_secs(2));
/// ```
///
/// The same run under the O(log n) virtual-time engine:
///
/// ```
/// use hilos_sim::{FlowEngine, FlowEngineImpl, ResourceKind, ResourceSpec, SimTime};
///
/// let mut eng = FlowEngine::with_impl(FlowEngineImpl::VirtualTime);
/// let link = eng.add_resource(ResourceSpec::new("link", ResourceKind::Link, 1e9));
/// eng.submit(&[link], 1e9, None).unwrap();
/// eng.submit(&[link], 1e9, None).unwrap();
/// let end = eng.run_to_idle().unwrap();
/// assert_eq!(end, SimTime::from_secs(2));
/// ```
#[derive(Debug)]
pub struct FlowEngine {
    inner: Inner,
}

impl Default for FlowEngine {
    fn default() -> Self {
        FlowEngine::new()
    }
}

impl FlowEngine {
    /// Creates an empty engine at time zero, using the default
    /// (progressive-filling) implementation.
    pub fn new() -> Self {
        FlowEngine::with_impl(FlowEngineImpl::default())
    }

    /// Creates an empty engine at time zero with the given implementation.
    pub fn with_impl(sel: FlowEngineImpl) -> Self {
        let inner = match sel {
            FlowEngineImpl::ProgressiveFilling => Inner::Oracle(OracleEngine::new()),
            FlowEngineImpl::VirtualTime => Inner::Fair(FairEngine::new()),
        };
        FlowEngine { inner }
    }

    /// Which implementation this engine runs on.
    pub fn engine_impl(&self) -> FlowEngineImpl {
        match &self.inner {
            Inner::Oracle(_) => FlowEngineImpl::ProgressiveFilling,
            Inner::Fair(_) => FlowEngineImpl::VirtualTime,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Inner::Oracle(e) => e.now(),
            Inner::Fair(e) => e.now(),
        }
    }

    /// Number of jobs currently in flight.
    pub fn active_jobs(&self) -> usize {
        match &self.inner {
            Inner::Oracle(e) => e.active_jobs(),
            Inner::Fair(e) => e.active_jobs(),
        }
    }

    /// Registers a resource and returns its id.
    pub fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        match &mut self.inner {
            Inner::Oracle(e) => e.add_resource(spec),
            Inner::Fair(e) => e.add_resource(spec),
        }
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        match &self.inner {
            Inner::Oracle(e) => e.resource_count(),
            Inner::Fair(e) => e.resource_count(),
        }
    }

    /// The static description of a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn resource(&self, id: ResourceId) -> &ResourceSpec {
        match &self.inner {
            Inner::Oracle(e) => e.resource(id),
            Inner::Fair(e) => e.resource(id),
        }
    }

    /// Cumulative statistics of a resource since engine creation.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn stats(&self, id: ResourceId) -> ResourceStats {
        match &self.inner {
            Inner::Oracle(e) => e.stats(id),
            Inner::Fair(e) => e.stats(id),
        }
    }

    /// Snapshot of all resource statistics, indexed by resource index.
    pub fn stats_snapshot(&self) -> Vec<ResourceStats> {
        match &self.inner {
            Inner::Oracle(e) => e.stats_snapshot(),
            Inner::Fair(e) => e.stats_snapshot(),
        }
    }

    /// Total entries (live + stale) in the lazily-invalidated completion
    /// index. Diagnostic: the engines compact once stale entries outnumber
    /// live jobs 2:1, so this stays within a small factor of
    /// [`FlowEngine::active_jobs`] no matter how churn-heavy the workload.
    pub fn completion_index_len(&self) -> usize {
        match &self.inner {
            Inner::Oracle(e) => e.completion_index_len(),
            Inner::Fair(e) => e.completion_index_len(),
        }
    }

    /// Submits a job demanding `amount` units across `route`.
    ///
    /// The job occupies every resource in `route` simultaneously; its rate
    /// is bounded by the max-min fair share on each and by `rate_cap` if
    /// given. Zero-amount jobs are accepted and complete at the next
    /// [`FlowEngine::advance_to`] boundary.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyRoute`] if `route` is empty.
    /// * [`SimError::UnknownResource`] if any id is out of range.
    /// * [`SimError::InvalidAmount`] if `amount` is negative or non-finite,
    ///   or `rate_cap` is non-positive or non-finite.
    pub fn submit(
        &mut self,
        route: &[ResourceId],
        amount: f64,
        rate_cap: Option<f64>,
    ) -> Result<JobId, SimError> {
        match &mut self.inner {
            Inner::Oracle(e) => e.submit(route, amount, rate_cap),
            Inner::Fair(e) => e.submit(route, amount, rate_cap),
        }
    }

    /// Removes a job before it completes, returning its remaining demand,
    /// or `None` if the job already completed or was cancelled. The freed
    /// capacity redistributes among the remaining jobs — this is how
    /// `core::serve` preempts requests and `core::cluster` migrates them
    /// mid-flight.
    pub fn cancel(&mut self, id: JobId) -> Option<f64> {
        match &mut self.inner {
            Inner::Oracle(e) => e.cancel(id),
            Inner::Fair(e) => e.cancel(id),
        }
    }

    /// The next instant at which some job completes, if any job is active.
    ///
    /// Answered from a lazily-invalidated completion index: amortized
    /// `O(log n)` against the reference scan's `O(n)`, which is what keeps
    /// request-level serving loops (hundreds of concurrent flows polled
    /// every step) off the engine's critical path.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Oracle(e) => e.next_completion_time(),
            Inner::Fair(e) => e.next_completion_time(),
        }
    }

    /// Reference implementation of [`FlowEngine::next_completion_time`]:
    /// a linear scan over every active job. Kept for equivalence tests and
    /// the `bench_serving` heap-vs-scan and crossover comparisons.
    pub fn next_completion_time_scan(&mut self) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Oracle(e) => e.next_completion_time_scan(),
            Inner::Fair(e) => e.next_completion_time_scan(),
        }
    }

    /// Advances simulated time to `t`, progressing every active job at its
    /// current fair rate, and returns the jobs that completed (in
    /// submission order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimeReversal`] if `t` is earlier than
    /// [`FlowEngine::now`].
    pub fn advance_to(&mut self, t: SimTime) -> Result<Vec<Completion>, SimError> {
        let mut completions = Vec::new();
        self.advance_into(t, &mut completions)?;
        Ok(completions)
    }

    /// [`FlowEngine::advance_to`] appending into a caller's buffer, so a
    /// driver that advances many times (the task executor) reuses one.
    pub(crate) fn advance_into(
        &mut self,
        t: SimTime,
        out: &mut Vec<Completion>,
    ) -> Result<(), SimError> {
        match &mut self.inner {
            Inner::Oracle(e) => e.advance_into(t, out),
            Inner::Fair(e) => {
                out.extend(e.advance_to(t)?);
                Ok(())
            }
        }
    }

    /// Runs until no jobs remain, returning the final time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if active jobs exist but none can make
    /// progress (all rates zero), which indicates an engine bug or a
    /// zero-capacity configuration.
    pub fn run_to_idle(&mut self) -> Result<SimTime, SimError> {
        match &mut self.inner {
            Inner::Oracle(e) => e.run_to_idle(),
            Inner::Fair(e) => e.run_to_idle(),
        }
    }

    /// The current fair rate of a job, or `None` if it is not active.
    pub fn job_rate(&mut self, id: JobId) -> Option<f64> {
        match &mut self.inner {
            Inner::Oracle(e) => e.job_rate(id),
            Inner::Fair(e) => e.job_rate(id),
        }
    }

    /// Remaining demand of a job, or `None` if it is not active.
    pub fn job_remaining(&self, id: JobId) -> Option<f64> {
        match &self.inner {
            Inner::Oracle(e) => e.job_remaining(id),
            Inner::Fair(e) => e.job_remaining(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn link(eng: &mut FlowEngine, bw: f64) -> ResourceId {
        eng.add_resource(ResourceSpec::new("link", ResourceKind::Link, bw))
    }

    #[test]
    fn single_flow_exact_time() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 2e9);
        eng.submit(&[l], 1e9, None).unwrap();
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_millis(500));
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let a = eng.submit(&[l], 1e9, None).unwrap();
        eng.submit(&[l], 1e9, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn unequal_flows_short_finishes_first_then_speedup() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 0.5e9, None).unwrap();
        let b = eng.submit(&[l], 1.5e9, None).unwrap();
        // Short flow completes at t=1s (both at 0.5 GB/s). Long flow then has
        // 1.0e9 left at full rate -> finishes at 2s.
        let t1 = eng.next_completion_time().unwrap();
        assert_eq!(t1, SimTime::from_secs(1));
        let done = eng.advance_to(t1).unwrap();
        assert_eq!(done.len(), 1);
        assert!((eng.job_remaining(b).unwrap() - 1.0e9).abs() < 1.0);
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn route_bottleneck_is_min_link() {
        let mut eng = FlowEngine::new();
        let fast = link(&mut eng, 10e9);
        let slow = link(&mut eng, 1e9);
        eng.submit(&[fast, slow], 2e9, None).unwrap();
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn max_min_asymmetric_three_flows() {
        // Classic example: flows A (l1), B (l1+l2), C (l2).
        // l1 = 1 GB/s, l2 = 2 GB/s.
        // Fair shares: A = B = 0.5 on l1; C gets 2 - 0.5 = 1.5 on l2.
        let mut eng = FlowEngine::new();
        let l1 = link(&mut eng, 1e9);
        let l2 = link(&mut eng, 2e9);
        let a = eng.submit(&[l1], 1e18, None).unwrap();
        let b = eng.submit(&[l1, l2], 1e18, None).unwrap();
        let c = eng.submit(&[l2], 1e18, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(b).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(c).unwrap() - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn rate_cap_respected_and_redistributed() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 3e9);
        let a = eng.submit(&[l], 1e18, Some(0.5e9)).unwrap();
        let b = eng.submit(&[l], 1e18, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        // B picks up the slack: 3 - 0.5 = 2.5 GB/s.
        assert!((eng.job_rate(b).unwrap() - 2.5e9).abs() < 1.0);
    }

    #[test]
    fn zero_amount_job_completes_immediately() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 0.0, None).unwrap();
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn submit_validation() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        assert!(matches!(eng.submit(&[], 1.0, None), Err(SimError::EmptyRoute)));
        assert!(matches!(
            eng.submit(&[ResourceId(9)], 1.0, None),
            Err(SimError::UnknownResource(9))
        ));
        assert!(matches!(eng.submit(&[l], -1.0, None), Err(SimError::InvalidAmount(_))));
        assert!(matches!(eng.submit(&[l], 1.0, Some(0.0)), Err(SimError::InvalidAmount(_))));
        assert!(matches!(eng.submit(&[l], f64::NAN, None), Err(SimError::InvalidAmount(_))));
    }

    #[test]
    fn time_reversal_rejected() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 1e9, None).unwrap();
        eng.run_to_idle().unwrap();
        assert!(matches!(eng.advance_to(SimTime::ZERO), Err(SimError::TimeReversal { .. })));
    }

    #[test]
    fn stats_accumulate_served_units_and_busy_time() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 2e9);
        eng.submit(&[l], 1e9, None).unwrap();
        eng.run_to_idle().unwrap();
        // Idle second afterwards.
        let idle_until = eng.now() + SimTime::from_millis(500);
        eng.advance_to(idle_until).unwrap();
        let s = eng.stats(l);
        assert!((s.units_served - 1e9).abs() < 1e3);
        assert!((s.busy_seconds - 0.5).abs() < 1e-9);
        assert!((s.observed_seconds - 1.0).abs() < 1e-9);
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn idle_advances_observe_every_resource() {
        // No job ever runs, and a resource joins between advances: every
        // resource still accumulates the windows it was registered for.
        for sel in [FlowEngineImpl::ProgressiveFilling, FlowEngineImpl::VirtualTime] {
            let mut eng = FlowEngine::with_impl(sel);
            let a = link(&mut eng, 1e9);
            eng.advance_to(SimTime::from_secs(1)).unwrap();
            let b = link(&mut eng, 1e9);
            eng.advance_to(SimTime::from_secs(3)).unwrap();
            assert_eq!(eng.stats(a).observed_seconds, 3.0, "{sel:?}");
            assert_eq!(eng.stats(b).observed_seconds, 2.0, "{sel:?}");
            assert_eq!(eng.stats(b).busy_seconds, 0.0, "{sel:?}");
        }
    }

    #[test]
    fn slots_are_reused_but_ids_stay_unique() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let a = eng.submit(&[l], 1.0, None).unwrap();
        eng.run_to_idle().unwrap();
        let b = eng.submit(&[l], 1.0, None).unwrap();
        assert_ne!(a, b);
        assert_eq!(eng.job_remaining(a), None);
        assert!(eng.job_remaining(b).is_some());
    }

    #[test]
    fn simultaneous_completions_ordered_by_sequence() {
        // Pin for the heap refactor: when several jobs finish at exactly
        // the same SimTime, `advance_to` reports them in submission
        // (sequence) order regardless of heap pop order.
        let mut eng = FlowEngine::new();
        // Four equal jobs on four independent links: all complete at 1 s.
        let ids: Vec<JobId> = (0..4)
            .map(|_| {
                let l = link(&mut eng, 1e9);
                eng.submit(&[l], 1e9, None).unwrap()
            })
            .collect();
        let t = eng.next_completion_time().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        let done = eng.advance_to(t).unwrap();
        assert_eq!(done.len(), 4);
        let seqs: Vec<u64> = done.iter().map(|c| c.job.sequence()).collect();
        let expect: Vec<u64> = ids.iter().map(|id| id.sequence()).collect();
        assert_eq!(seqs, expect, "ties must resolve in submission order");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn heap_matches_reference_scan() {
        // The heap-indexed next_completion_time must agree with the
        // retained linear scan through a full churn of submissions,
        // completions and rate redistributions.
        let mut eng = FlowEngine::new();
        let shared = link(&mut eng, 4e9);
        let private: Vec<ResourceId> = (0..8).map(|_| link(&mut eng, 1e9)).collect();
        for i in 0..32u64 {
            let amount = 1e8 * (1 + (i * 7) % 13) as f64;
            if i % 3 == 0 {
                eng.submit(&[shared, private[(i % 8) as usize]], amount, None).unwrap();
            } else {
                eng.submit(&[private[(i % 8) as usize]], amount, None).unwrap();
            }
        }
        let mut guard = 0;
        while eng.active_jobs() > 0 {
            let scan = eng.next_completion_time_scan();
            let heap = eng.next_completion_time();
            // The heap's absolute prediction rounds `remaining/rate` once;
            // the scan re-divides a drifted `remaining` and can land one
            // picosecond away. Anything beyond that is a real divergence.
            let (h, s) = (heap.unwrap().as_picos(), scan.unwrap().as_picos());
            assert!(h.abs_diff(s) <= 1, "heap {h} ps diverged from reference scan {s} ps");
            eng.advance_to(heap.unwrap()).unwrap();
            guard += 1;
            assert!(guard < 1000, "engine failed to drain");
        }
        assert_eq!(eng.next_completion_time(), None);
        assert_eq!(eng.next_completion_time_scan(), None);
    }

    #[test]
    fn heap_survives_partial_advances() {
        // Advance to instants strictly before any completion (as the task
        // executor does when a delay wakeup fires first): predictions must
        // remain valid without a rate recompute.
        let mut eng = FlowEngine::new();
        let l1 = link(&mut eng, 1e9);
        let l2 = link(&mut eng, 2e9);
        eng.submit(&[l1], 3e9, None).unwrap(); // completes at 3 s
        eng.submit(&[l2], 2e9, None).unwrap(); // completes at 1 s
        let first = eng.next_completion_time().unwrap();
        assert_eq!(first, SimTime::from_secs(1));
        // Partial advance: no completions, rates unchanged.
        eng.advance_to(SimTime::from_millis(250)).unwrap();
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(1));
        eng.advance_to(SimTime::from_millis(999)).unwrap();
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(1));
        let done = eng.advance_to(SimTime::from_secs(1)).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(3));
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_secs(3));
    }

    #[test]
    fn many_flows_work_conservation() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let total: f64 = (1..=10).map(|i| i as f64 * 1e8).sum();
        for i in 1..=10 {
            eng.submit(&[l], i as f64 * 1e8, None).unwrap();
        }
        let end = eng.run_to_idle().unwrap();
        // Work conservation: single busy link serves total units at capacity.
        assert!((end.as_secs_f64() - total / 1e9).abs() < 1e-6);
        assert!((eng.stats(l).units_served - total).abs() < 1e3);
    }

    // ---- virtual-time engine ----

    fn fair() -> FlowEngine {
        FlowEngine::with_impl(FlowEngineImpl::VirtualTime)
    }

    #[test]
    fn impl_selector_round_trips() {
        assert_eq!(FlowEngine::new().engine_impl(), FlowEngineImpl::ProgressiveFilling);
        assert_eq!(fair().engine_impl(), FlowEngineImpl::VirtualTime);
        assert_eq!(FlowEngineImpl::default(), FlowEngineImpl::ProgressiveFilling);
    }

    #[test]
    fn fair_single_flow_exact_time() {
        let mut eng = fair();
        let l = link(&mut eng, 2e9);
        eng.submit(&[l], 1e9, None).unwrap();
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_millis(500));
    }

    #[test]
    fn fair_two_flows_share_fairly() {
        let mut eng = fair();
        let l = link(&mut eng, 1e9);
        let a = eng.submit(&[l], 1e9, None).unwrap();
        eng.submit(&[l], 1e9, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_secs(2));
    }

    #[test]
    fn fair_unequal_flows_speedup_after_first_completion() {
        let mut eng = fair();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 0.5e9, None).unwrap();
        let b = eng.submit(&[l], 1.5e9, None).unwrap();
        let t1 = eng.next_completion_time().unwrap();
        assert_eq!(t1, SimTime::from_secs(1));
        assert_eq!(eng.advance_to(t1).unwrap().len(), 1);
        assert!((eng.job_remaining(b).unwrap() - 1.0e9).abs() < 1.0);
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_secs(2));
    }

    #[test]
    fn fair_route_bottleneck_is_min_link() {
        let mut eng = fair();
        let fast = link(&mut eng, 10e9);
        let slow = link(&mut eng, 1e9);
        eng.submit(&[fast, slow], 2e9, None).unwrap();
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_secs(2));
    }

    #[test]
    fn fair_shares_are_conservative_on_shared_routes() {
        // Same topology as max_min_asymmetric_three_flows. The uniform
        // model gives C the share 2/2 = 1.0 GB/s instead of the oracle's
        // redistributed 1.5 GB/s: a *lower bound*, never an overestimate.
        let mut eng = fair();
        let l1 = link(&mut eng, 1e9);
        let l2 = link(&mut eng, 2e9);
        let a = eng.submit(&[l1], 1e18, None).unwrap();
        let b = eng.submit(&[l1, l2], 1e18, None).unwrap();
        let c = eng.submit(&[l2], 1e18, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(b).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(c).unwrap() - 1.0e9).abs() < 1.0);
    }

    #[test]
    fn fair_rate_cap_respected() {
        // The cap binds; the uncapped job keeps its uniform share (the
        // oracle would redistribute the capped job's slack — see
        // rate_cap_respected_and_redistributed).
        let mut eng = fair();
        let l = link(&mut eng, 3e9);
        let a = eng.submit(&[l], 1e18, Some(0.5e9)).unwrap();
        let b = eng.submit(&[l], 1e18, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(b).unwrap() - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn fair_zero_amount_job_completes_immediately() {
        let mut eng = fair();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 0.0, None).unwrap();
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::ZERO);
        // Zero-amount on a multi-resource route too.
        let l2 = link(&mut eng, 1e9);
        eng.submit(&[l, l2], 0.0, None).unwrap();
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn fair_submit_validation_matches_oracle() {
        let mut eng = fair();
        let l = link(&mut eng, 1e9);
        assert!(matches!(eng.submit(&[], 1.0, None), Err(SimError::EmptyRoute)));
        assert!(matches!(
            eng.submit(&[ResourceId(9)], 1.0, None),
            Err(SimError::UnknownResource(9))
        ));
        assert!(matches!(eng.submit(&[l], -1.0, None), Err(SimError::InvalidAmount(_))));
        assert!(matches!(eng.submit(&[l], 1.0, Some(0.0)), Err(SimError::InvalidAmount(_))));
        assert!(matches!(eng.submit(&[l], f64::NAN, None), Err(SimError::InvalidAmount(_))));
        assert!(matches!(eng.advance_to(SimTime::ZERO), Ok(v) if v.is_empty()));
    }

    #[test]
    fn fair_partial_advances_keep_predictions() {
        let mut eng = fair();
        let l1 = link(&mut eng, 1e9);
        let l2 = link(&mut eng, 2e9);
        eng.submit(&[l1], 3e9, None).unwrap(); // completes at 3 s
        eng.submit(&[l2], 2e9, None).unwrap(); // completes at 1 s
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(1));
        eng.advance_to(SimTime::from_millis(250)).unwrap();
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(1));
        eng.advance_to(SimTime::from_millis(999)).unwrap();
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(1));
        let done = eng.advance_to(SimTime::from_secs(1)).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(3));
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_secs(3));
    }

    #[test]
    fn fair_simultaneous_completions_ordered_by_sequence() {
        let mut eng = fair();
        let ids: Vec<JobId> = (0..4)
            .map(|_| {
                let l = link(&mut eng, 1e9);
                eng.submit(&[l], 1e9, None).unwrap()
            })
            .collect();
        let t = eng.next_completion_time().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        let done = eng.advance_to(t).unwrap();
        let seqs: Vec<u64> = done.iter().map(|c| c.job.sequence()).collect();
        let expect: Vec<u64> = ids.iter().map(|id| id.sequence()).collect();
        assert_eq!(seqs, expect, "ties must resolve in submission order");
    }

    #[test]
    fn fair_heap_matches_its_reference_scan() {
        let mut eng = fair();
        let shared = link(&mut eng, 4e9);
        let private: Vec<ResourceId> = (0..8).map(|_| link(&mut eng, 1e9)).collect();
        for i in 0..32u64 {
            let amount = 1e8 * (1 + (i * 7) % 13) as f64;
            if i % 3 == 0 {
                eng.submit(&[shared, private[(i % 8) as usize]], amount, None).unwrap();
            } else {
                eng.submit(&[private[(i % 8) as usize]], amount, None).unwrap();
            }
        }
        let mut guard = 0;
        while eng.active_jobs() > 0 {
            let scan = eng.next_completion_time_scan();
            let heap = eng.next_completion_time();
            let (h, s) = (heap.unwrap().as_picos(), scan.unwrap().as_picos());
            assert!(h.abs_diff(s) <= 1, "fair heap {h} ps diverged from its scan {s} ps");
            eng.advance_to(heap.unwrap()).unwrap();
            guard += 1;
            assert!(guard < 1000, "fair engine failed to drain");
        }
        assert_eq!(eng.next_completion_time(), None);
    }

    #[test]
    fn fair_stats_accumulate_like_oracle() {
        let mut eng = fair();
        let l = link(&mut eng, 2e9);
        eng.submit(&[l], 1e9, None).unwrap();
        eng.run_to_idle().unwrap();
        let idle_until = eng.now() + SimTime::from_millis(500);
        eng.advance_to(idle_until).unwrap();
        let s = eng.stats(l);
        assert!((s.units_served - 1e9).abs() < 1e3);
        assert!((s.busy_seconds - 0.5).abs() < 1e-9);
        assert!((s.observed_seconds - 1.0).abs() < 1e-9);
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }

    // ---- cancellation ----

    #[test]
    fn cancel_frees_capacity_for_both_impls() {
        for sel in [FlowEngineImpl::ProgressiveFilling, FlowEngineImpl::VirtualTime] {
            let mut eng = FlowEngine::with_impl(sel);
            let l = link(&mut eng, 1e9);
            let a = eng.submit(&[l], 1e9, None).unwrap();
            let b = eng.submit(&[l], 1e9, None).unwrap();
            // Both at 0.5 GB/s; advance half a second, then cancel A.
            eng.advance_to(SimTime::from_millis(500)).unwrap();
            let rem = eng.cancel(a).unwrap();
            assert!((rem - 0.75e9).abs() < 1e3, "{sel:?}: cancelled remaining {rem}");
            // B has 0.75e9 left at full rate: finishes 0.75 s later.
            assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_millis(1250), "{sel:?}");
            assert_eq!(eng.cancel(b), None, "{sel:?}: completed job cannot be cancelled");
            assert_eq!(eng.cancel(a), None, "{sel:?}: double cancel returns None");
        }
    }

    #[test]
    fn cancel_custom_job_reanchors_survivors() {
        // A multi-resource job and a capped job share a link with a simple
        // job; cancelling them must hand their share back.
        for sel in [FlowEngineImpl::ProgressiveFilling, FlowEngineImpl::VirtualTime] {
            let mut eng = FlowEngine::with_impl(sel);
            let l1 = link(&mut eng, 1e9);
            let l2 = link(&mut eng, 1e9);
            let multi = eng.submit(&[l1, l2], 1e9, None).unwrap();
            let capped = eng.submit(&[l1], 1e9, Some(0.1e9)).unwrap();
            let simple = eng.submit(&[l1], 1e9, None).unwrap();
            eng.advance_to(SimTime::from_millis(100)).unwrap();
            assert!(eng.cancel(multi).is_some(), "{sel:?}");
            assert!(eng.cancel(capped).is_some(), "{sel:?}");
            // The simple job is now alone on l1: full capacity.
            assert!((eng.job_rate(simple).unwrap() - 1e9).abs() < 1.0, "{sel:?}");
            eng.run_to_idle().unwrap();
            assert_eq!(eng.active_jobs(), 0, "{sel:?}");
        }
    }

    // ---- completion-index compaction (stale-entry growth bound) ----

    #[test]
    fn churn_heavy_cancel_trace_keeps_completion_index_compact() {
        // Regression pin: a submit/cancel churn loop must not grow the
        // lazily-invalidated completion index without bound. With
        // compaction at stale > 2x live + 64, peak length stays within
        // 2*live + 64 entries (+1 for the probe ordering) for both impls.
        for sel in [FlowEngineImpl::ProgressiveFilling, FlowEngineImpl::VirtualTime] {
            let mut eng = FlowEngine::with_impl(sel);
            let l = link(&mut eng, 1e9);
            let live = 8usize;
            let mut ids: Vec<JobId> =
                (0..live).map(|_| eng.submit(&[l], 1e9, None).unwrap()).collect();
            let mut peak = 0usize;
            for round in 0..200 {
                // Cancel the oldest job, replace it, poll the index (as the
                // serving loop does every step).
                let victim = ids.remove(0);
                assert!(eng.cancel(victim).is_some());
                ids.push(eng.submit(&[l], 1e9 + round as f64, None).unwrap());
                let _ = eng.next_completion_time();
                peak = peak.max(eng.completion_index_len());
            }
            let bound = 2 * live + 64 + 1;
            assert!(
                peak <= bound,
                "{sel:?}: completion index peaked at {peak} entries (bound {bound})"
            );
            assert_eq!(eng.active_jobs(), live, "{sel:?}");
        }
    }
}
