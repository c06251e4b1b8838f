//! The cluster engine: N independent deployments advanced under one
//! global arrival cursor, with dispatch through a [`RoutingPolicy`].
//!
//! Each round runs in **two phases**: phase A ([`advance_slots`]) steps
//! every deployment with work *in place* — inline, or over fixed
//! contiguous shards of the slot vector, one scoped thread each, the
//! scope join being the round's barrier — and each slot touches only its
//! own engine and state. Phase B merges the per-slot results — step
//! progress and freshly preempted migration offers — back **in
//! deployment-index order** on the driving thread, where all routing,
//! migration and stall decisions are made. Because phase A is
//! per-deployment-isolated and phase B is serial and ordered, the whole
//! run is bit-identical at any [`ClusterConfig::with_cluster_threads`]
//! setting.

use super::elastic::LifecycleState;
use super::policy::{ClusterSnapshot, DeploymentView, RouteRequest, RoutingPolicy};
use super::report::ClusterReport;
use crate::runner::CoreError;
use crate::serve::engine::{check_sorted, QueueEntry, RunState, SharedStepCache, StepProgress};
use crate::serve::ServeEngine;
use hilos_llm::{DeploymentId, Request};
use hilos_trace::EventKind;
use std::collections::HashMap;
use std::sync::Arc;

/// How a slot's last phase-A run ended.
#[derive(Debug)]
enum Halt {
    /// Every step before the cursor made progress; the slot stopped at
    /// its horizon or ran out of work.
    Ran,
    /// The step at the cursor returned [`StepProgress::Stalled`]; the
    /// round that reaches it decides whether the slot retries at the
    /// next step or the cluster jumps to the next arrival.
    Stalled,
    /// The step at the cursor failed.
    Failed(CoreError),
}

/// One deployment's engine plus its live run state, stepped in place by
/// phase A and never moved for the whole run.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) eng: ServeEngine,
    pub(crate) st: RunState,
    /// The next step this slot executes — or, unless `halt` is
    /// [`Halt::Ran`], the step whose result awaits its round.
    cursor: u64,
    halt: Halt,
    /// Victims the slot's last step preempted, offered to the router in
    /// phase B.
    pub(crate) moved: Vec<QueueEntry>,
}

impl Slot {
    pub(crate) fn new(eng: ServeEngine) -> Self {
        let st = eng.new_run_state();
        Slot { eng, st, cursor: 0, halt: Halt::Ran, moved: Vec::new() }
    }

    /// Executes steps `from, from + 1, …` until the slot runs out of
    /// work, reaches `horizon`, stalls or fails. Nothing outside the
    /// slot is read or written — the determinism contract.
    fn run_ahead(&mut self, from: u64, horizon: u64) {
        self.cursor = from;
        loop {
            self.st.step = self.cursor;
            let progress = match self.eng.advance_once(&mut self.st) {
                Ok(p) => p,
                Err(e) => {
                    self.halt = Halt::Failed(e);
                    return;
                }
            };
            if progress == StepProgress::Stalled {
                self.halt = Halt::Stalled;
            } else {
                self.cursor += 1;
                if self.cursor < horizon && self.st.has_work() {
                    // Run-ahead spans several steps only when no
                    // policy preempts: there is no victim to offer.
                    debug_assert!(
                        self.st.just_preempted.is_empty(),
                        "a policy that may not preempt preempted"
                    );
                    continue;
                }
            }
            self.moved = self.st.drain_just_preempted();
            return;
        }
    }
}

/// Phase A of round `g`: every slot with work whose cursor has come runs
/// ahead in place from step `g` toward `horizon` — exactly one step when
/// `horizon == g + 1`. With `threads > 1` the slots split into fixed
/// contiguous shards, one scoped thread each; the scope join is the
/// round's barrier, and a panic on any shard re-raises here.
pub(crate) fn advance_slots(slots: &mut [Slot], g: u64, horizon: u64, threads: usize) {
    let run = |slot: &mut Slot| {
        if slot.st.has_work() && matches!(slot.halt, Halt::Ran) && slot.cursor <= g {
            slot.run_ahead(g, horizon);
        }
    };
    if threads <= 1 {
        slots.iter_mut().for_each(run);
        return;
    }
    let mut shards = slots.chunks_mut(slots.len().div_ceil(threads));
    let first = shards.next().expect("a cluster has at least one slot");
    std::thread::scope(|scope| {
        for shard in shards {
            scope.spawn(move || shard.iter_mut().for_each(run));
        }
        first.iter_mut().for_each(run);
    });
}

/// Phase B's progress fold for round `g`, in deployment order: the
/// lowest-indexed failure at step `g` surfaces as the error; otherwise
/// returns whether every slot that executed step `g` stalled there. A
/// slot whose cursor is past `g` made progress at `g`. Stalled slots are
/// released to run again from the driver's next round.
pub(crate) fn settle_round(slots: &mut [Slot], g: u64) -> Result<bool, CoreError> {
    let mut progressed = false;
    for slot in slots.iter_mut() {
        if slot.cursor > g {
            progressed = true;
        } else if slot.cursor == g {
            match std::mem::replace(&mut slot.halt, Halt::Ran) {
                Halt::Failed(e) => return Err(e),
                Halt::Stalled | Halt::Ran => {}
            }
        }
    }
    Ok(!progressed)
}

/// The step of the next round after `g`: the lowest cursor of any slot
/// with work or an unsettled result, never before `g + 1` nor past
/// `horizon`.
fn next_round(slots: &[Slot], g: u64, horizon: u64) -> u64 {
    slots
        .iter()
        .filter(|s| s.st.has_work() || !matches!(s.halt, Halt::Ran))
        .map(|s| s.cursor.max(g + 1))
        .min()
        .unwrap_or(horizon)
        .min(horizon)
}

/// Re-queues a routed victim on slot `target`. When the router moved it
/// off slot `from`, its parked demoted KV is dropped at the source, its
/// timestamps are re-based onto the target's clock and a `Migrated`
/// event lands on the target.
pub(crate) fn hand_over(slots: &mut [Slot], from: usize, target: usize, mut entry: QueueEntry) {
    if target != from {
        // Demoted KV is parked in the *source* deployment's ladder; a
        // migrated victim cannot recall it from another deployment —
        // drop it there and let the target recompute (booked as wasted
        // prefill).
        let src = &mut slots[from];
        src.eng.forget_demoted(&mut src.st, entry.req.id);
        let from_clock = src.st.clock;
        // Deployment clocks are independent busy-time axes (idle gaps
        // are skipped, so they diverge freely); an absolute timestamp
        // from one domain is meaningless in another. Re-base the entry's
        // timestamps by the clock delta so the *durations* accrued so
        // far survive the move — TTFT/e2e then sum busy time spent on
        // each deployment, stay non-negative, and keep
        // `first_token_s <= finished_s`.
        let shift = slots[target].st.clock - from_clock;
        entry.arrival_s += shift;
        entry.first_token_s = entry.first_token_s.map(|t| t + shift);
        entry.first_admitted_s = entry.first_admitted_s.map(|t| t + shift);
        slots[target].st.emit(
            DeploymentId(target as u32),
            entry.req.id,
            EventKind::Migrated {
                from: from as u32,
                arrival_s: entry.arrival_s,
                first_token_s: entry.first_token_s.unwrap_or(0.0),
                emitted: entry.emitted,
            },
        );
    }
    let t = &mut slots[target];
    t.eng.requeue(&mut t.st, entry);
}

/// Cluster-execution knobs, shared by [`ClusterEngine`] and the elastic
/// engine (via
/// [`ElasticConfig::cluster`](super::elastic::ElasticConfig::cluster)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Threads stepping phase A, each over a fixed contiguous shard of
    /// the deployments. `1` (the default) steps them inline on the
    /// driving thread; any value produces bit-identical reports and
    /// trace streams.
    pub cluster_threads: usize,
    /// Share one step/prefill memo table among deployments with
    /// identical system fingerprints (on by default), so the fleet pays
    /// each memoization miss once instead of once per twin — and a
    /// freshly provisioned elastic slot warm-starts from its siblings.
    /// Purely a wall-clock optimization: results are bit-identical
    /// either way.
    pub shared_warm_start: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { cluster_threads: 1, shared_warm_start: true }
    }
}

impl ClusterConfig {
    /// The default configuration: single-threaded stepping, shared
    /// warm-start on.
    pub fn new() -> Self {
        ClusterConfig::default()
    }

    /// Sets the phase-A thread count (clamped to at least 1).
    #[must_use]
    pub fn with_cluster_threads(mut self, threads: usize) -> Self {
        self.cluster_threads = threads.max(1);
        self
    }

    /// Enables or disables the fingerprint-grouped shared memo tables.
    #[must_use]
    pub fn with_shared_warm_start(mut self, on: bool) -> Self {
        self.shared_warm_start = on;
        self
    }
}

/// Groups deployments by [`ServeEngine::system_fingerprint`] and hands
/// each group one shared step/prefill memo table.
pub(crate) fn install_shared_warm_start(deployments: &mut [ServeEngine]) {
    let mut groups: HashMap<u64, Arc<SharedStepCache>> = HashMap::new();
    for eng in deployments.iter_mut() {
        let shared = groups.entry(eng.system_fingerprint()).or_default().clone();
        eng.set_shared_cache(shared);
    }
}

/// Validates a routing policy's answer against the deployment count:
/// an out-of-range pick trips a `debug_assert!` (a buggy policy should
/// fail loudly in development), and in release builds is counted into
/// [`ClusterReport::misrouted`] and clamped to the last deployment so
/// the run can still complete.
pub(crate) fn clamp_route(pick: usize, n: usize, misrouted: &mut u64) -> usize {
    if pick < n {
        return pick;
    }
    debug_assert!(false, "routing policy picked deployment {pick} of a {n}-deployment cluster");
    *misrouted += 1;
    n - 1
}

/// Hourly provisioning price of one deployment: `(hourly cost USD,
/// full-utilization watts)`. Computed once per engine — the system spec
/// never changes mid-run — and stamped into every routing view.
pub(crate) fn provisioning_cost(eng: &ServeEngine) -> (f64, f64) {
    let spec = eng.system().spec();
    let power_w = hilos_metrics::provisioned_power_w(spec);
    (hilos_metrics::hourly_cost_usd(spec.total_price_usd(), power_w), power_w)
}

/// One slot's routing view, built once per run and then kept current by
/// [`refresh_view`] — shared by the fixed [`ClusterEngine`] (always
/// [`Active`](LifecycleState::Active)) and the elastic engine (which
/// passes each slot's actual lifecycle state).
pub(crate) fn deployment_view(slot: &Slot, cost: (f64, f64)) -> DeploymentView {
    let ledger = slot.eng.ledger();
    let mut view = DeploymentView {
        id: slot.eng.deployment().0,
        queued: 0,
        prefilling: 0,
        decoding: 0,
        max_batch: slot.eng.config().max_batch,
        clock_s: 0.0,
        pressure: 0.0,
        device_pressure: Vec::with_capacity(ledger.device_count()),
        placeable_free_bytes: 0,
        bandwidth_weight: 0.0,
        device_count: ledger.device_count(),
        dispatched: 0,
        prefill_backlog_tokens: 0,
        prefix_hit_rate: 0.0,
        lifecycle: LifecycleState::Active,
        hourly_cost_usd: cost.0,
        active_power_w: cost.1,
    };
    refresh_view(&mut view, slot, 0, LifecycleState::Active);
    view
}

/// Re-reads a slot's live state into its routing view in place; the
/// per-device pressure vector keeps its allocation.
pub(crate) fn refresh_view(
    view: &mut DeploymentView,
    slot: &Slot,
    dispatched: u64,
    lifecycle: LifecycleState,
) {
    let (eng, st) = (&slot.eng, &slot.st);
    let ledger = eng.ledger();
    view.queued = st.queued_len();
    view.prefilling = st.prefilling_len();
    view.decoding = st.decoding_len();
    view.clock_s = st.clock;
    view.pressure = ledger.pressure();
    view.device_pressure.clear();
    view.device_pressure.extend((0..ledger.device_count()).map(|i| ledger.device_pressure(i)));
    view.placeable_free_bytes = ledger.placeable_free();
    view.bandwidth_weight = ledger.total_weight();
    view.dispatched = dispatched;
    view.prefill_backlog_tokens = st.prefill_backlog_tokens();
    view.prefix_hit_rate = eng.prefix_hit_rate();
    view.lifecycle = lifecycle;
}

/// Re-reads every slot into its routing view, in place.
pub(crate) fn refresh_views(
    views: &mut [DeploymentView],
    slots: &[Slot],
    dispatched: &[u64],
    lifecycle: impl Fn(usize) -> LifecycleState,
) {
    for (d, view) in views.iter_mut().enumerate() {
        refresh_view(view, &slots[d], dispatched[d], lifecycle(d));
    }
}

/// Asks the routing policy for a target over the current views,
/// validating out-of-range answers ([`clamp_route`]).
pub(crate) fn route_views(
    routing: &mut dyn RoutingPolicy,
    views: &[DeploymentView],
    step: u64,
    request: RouteRequest,
    misrouted: &mut u64,
) -> usize {
    let snapshot = ClusterSnapshot { step, deployments: views };
    clamp_route(routing.route(&request, &snapshot), views.len(), misrouted)
}

/// A multi-deployment cluster: one trace balanced across heterogeneous
/// HILOS deployments.
///
/// Each deployment is a complete [`ServeEngine`] — its own
/// [`HilosSystem`](crate::HilosSystem) (device count, degradations), its
/// own [`SchedulingPolicy`](crate::SchedulingPolicy) and its own
/// per-device KV shard ledgers. The cluster engine owns the *global*
/// concerns: the arrival cursor every deployment shares, dispatch of each
/// arriving request through the [`RoutingPolicy`], cross-deployment
/// re-dispatch of preempted requests, and stall detection across the
/// whole cluster.
///
/// # Time
///
/// Deployments advance as if in lockstep — one serving iteration each
/// per global step (see the run-ahead on [`ClusterEngine::run_trace`])
/// — but keep their own simulated clocks, which only move
/// under work (the single-deployment engine's semantics: idle time is
/// skipped, not simulated). A cluster of one deployment is therefore
/// *bit-identical* to [`ServeEngine::run_trace`] on the same system,
/// whatever the routing policy — pinned by a golden test. Because the
/// clocks are independent busy-time axes, a request migrated between
/// deployments has its timestamps re-based by the clock delta: its
/// latencies sum the busy time it spent on each deployment, and stay
/// non-negative however far the clocks have diverged.
///
/// # Determinism
///
/// One round is two phases: deployments with work step in place,
/// concurrently over fixed shards when `cluster_threads > 1` (phase A —
/// each deployment touches only its own engine and state), and their
/// step progress plus preemption-migration offers are merged serially in
/// deployment-index order (phase B — where every routing and migration
/// decision happens). Reports, golden FNV pins and traced event streams
/// are therefore bit-identical at any `cluster_threads`; the thread
/// count only changes wall-clock.
///
/// # Examples
///
/// ```
/// use hilos_core::cluster::{ClusterEngine, LedgerPressure};
/// use hilos_core::{HilosConfig, HilosSystem, ServeConfig, ServeEngine};
/// use hilos_llm::{presets, TraceConfig};
/// use hilos_platform::SystemSpec;
///
/// # fn main() -> Result<(), hilos_core::CoreError> {
/// let deployment = |n: usize| -> Result<ServeEngine, hilos_core::CoreError> {
///     let sys = HilosSystem::new(
///         &SystemSpec::a100_smartssd(n),
///         &presets::opt_30b(),
///         &HilosConfig::new(n),
///     )?
///     .with_sim_layers(1);
///     ServeEngine::new(sys, ServeConfig::new(8))
/// };
/// let mut cluster = ClusterEngine::new(
///     vec![deployment(8)?, deployment(4)?],
///     Box::new(LedgerPressure::new()),
/// );
/// let trace = TraceConfig::azure_mix(32, 7).generate().unwrap();
/// let report = cluster.run_trace(&trace)?;
/// assert_eq!(report.completed() + report.rejected_len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClusterEngine {
    engines: Vec<ServeEngine>,
    routing: Box<dyn RoutingPolicy>,
    config: ClusterConfig,
    /// Per-deployment `(hourly cost USD, watts)`, in deployment order.
    costs: Vec<(f64, f64)>,
}

impl ClusterEngine {
    /// Assembles a cluster from fully-built deployments (each keeps the
    /// scheduling policy it was built with) and a routing policy, with
    /// the default [`ClusterConfig`]. Deployments are assigned
    /// [`DeploymentId`]s in vector order.
    ///
    /// # Panics
    ///
    /// Panics if `deployments` is empty.
    pub fn new(deployments: Vec<ServeEngine>, routing: Box<dyn RoutingPolicy>) -> Self {
        ClusterEngine::with_config(deployments, routing, ClusterConfig::default())
    }

    /// [`ClusterEngine::new`] with explicit execution knobs.
    ///
    /// # Panics
    ///
    /// Panics if `deployments` is empty.
    pub fn with_config(
        mut deployments: Vec<ServeEngine>,
        routing: Box<dyn RoutingPolicy>,
        config: ClusterConfig,
    ) -> Self {
        assert!(!deployments.is_empty(), "a cluster needs at least one deployment");
        for (i, d) in deployments.iter_mut().enumerate() {
            d.set_deployment(DeploymentId(i as u32));
        }
        if config.shared_warm_start {
            install_shared_warm_start(&mut deployments);
        }
        let costs = deployments.iter().map(provisioning_cost).collect();
        ClusterEngine { engines: deployments, routing, config, costs }
    }

    /// Number of deployments.
    pub fn deployment_count(&self) -> usize {
        self.engines.len()
    }

    /// The cluster-execution configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The active routing policy's name.
    pub fn routing_name(&self) -> &'static str {
        self.routing.name()
    }

    /// The deployments, in [`DeploymentId`] order.
    pub fn deployments(&self) -> &[ServeEngine] {
        &self.engines
    }

    /// Serves a trace of requests (sorted by `arrival_step`) across the
    /// cluster to completion.
    ///
    /// Each round at global step `g`: (1) arrivals whose step has come
    /// are dispatched through the routing policy to a deployment's
    /// admission queue, at that deployment's clock; (2) **phase A** —
    /// every deployment with work steps in place ([scheduling → join →
    /// decode → eviction](crate::serve)), touching only its own state;
    /// (3) **phase B** — per-slot results merge back in deployment-index
    /// order: requests a scheduling policy preempted this iteration are
    /// offered back to the *router*, which may re-dispatch them —
    /// progress retained — onto a less-pressured deployment. Phase B's
    /// routing sees every deployment post-advance, so its decisions (and
    /// the whole run) are independent of the thread count.
    ///
    /// # Run-ahead
    ///
    /// Deployments interact only through routing: arrivals, plus the
    /// victims of preempting policies. When no deployment's policy
    /// [`may_preempt`](crate::SchedulingPolicy::may_preempt), phase A
    /// runs each deployment ahead from its own step cursor up to the
    /// horizon — the next arrival's step, or unbounded once the trace is
    /// exhausted (conservative lookahead). Rounds then visit only the
    /// lowest cursor, which reproduces the one-step-per-round loop
    /// exactly: a `Stalled` step ends a deployment's run-ahead until its
    /// round decides between a retry and a jump to the next arrival, a
    /// deployment already past the round counts as having progressed at
    /// it, every deployment sits exactly at the horizon when the router
    /// sees it, and an error surfaces at the lowest (step, deployment).
    /// With a preempting policy anywhere, every round is one step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsortedTrace`] if the trace is not sorted by
    /// arrival step. Propagates simulation errors, or
    /// [`CoreError::SchedulerStalled`] if every deployment with queued
    /// work holds it forever with nothing in flight.
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<ClusterReport, CoreError> {
        check_sorted(trace)?;
        let n = self.engines.len();
        let threads = self.config.cluster_threads.min(n);
        let lookahead = !self.engines.iter().any(ServeEngine::may_preempt);
        let mut slots: Vec<Slot> =
            std::mem::take(&mut self.engines).into_iter().map(Slot::new).collect();
        let mut views: Vec<DeploymentView> =
            slots.iter().zip(&self.costs).map(|(s, &cost)| deployment_view(s, cost)).collect();
        let mut dispatched = vec![0u64; n];
        let mut redispatches = 0u64;
        let mut misrouted = 0u64;
        // A fixed fleet is permanently Active — the lifecycle field only
        // varies under the elastic engine.
        let active = LifecycleState::Active;

        let run = (|| -> Result<(), CoreError> {
            let mut idx = 0usize;
            let mut g = 0u64;
            loop {
                // 1: dispatch arrivals up to the global step. No
                // deployment has run past it, so the views are exact.
                if trace.get(idx).is_some_and(|r| r.arrival_step <= g) {
                    refresh_views(&mut views, &slots, &dispatched, |_| active);
                }
                while idx < trace.len() && trace[idx].arrival_step <= g {
                    let req = trace[idx];
                    let request = RouteRequest::of(&req, 0, false);
                    let d = route_views(self.routing.as_mut(), &views, g, request, &mut misrouted);
                    dispatched[d] += 1;
                    let slot = &mut slots[d];
                    slot.st.emit(DeploymentId(d as u32), req.id, EventKind::Routed);
                    slot.eng.enqueue_arrival(&mut slot.st, req);
                    refresh_view(&mut views[d], slot, dispatched[d], active);
                    idx += 1;
                }
                let next_arrival = trace.get(idx).map_or(u64::MAX, |r| r.arrival_step);
                // Fully idle everywhere with traffic still ahead: jump
                // the global cursor to the next arrival.
                if !slots.iter().any(|s| s.st.has_work()) {
                    if idx >= trace.len() {
                        break;
                    }
                    g = next_arrival;
                    continue;
                }

                // 2 / phase A: step every deployment whose cursor has
                // come, in place — ahead to the next arrival when no
                // policy preempts, one step otherwise.
                let horizon = if lookahead { next_arrival } else { g + 1 };
                advance_slots(&mut slots, g, horizon, threads);

                // 3 / phase B: merge in deployment-index order — freshly
                // preempted victims go back through the router (their
                // engine re-queued them locally; draining and re-queuing
                // on the same deployment is a no-op, so a router that
                // keeps them local preserves single-engine behavior
                // exactly).
                let all_stalled = settle_round(&mut slots, g)?;
                if slots.iter().any(|s| !s.moved.is_empty()) {
                    refresh_views(&mut views, &slots, &dispatched, |_| active);
                }
                for d in 0..n {
                    for entry in std::mem::take(&mut slots[d].moved) {
                        let request = RouteRequest::of(&entry.req, entry.emitted, true);
                        let target =
                            route_views(self.routing.as_mut(), &views, g, request, &mut misrouted);
                        if target != d {
                            redispatches += 1;
                        }
                        hand_over(&mut slots, d, target, entry);
                        for t in [d, target] {
                            refresh_view(&mut views[t], &slots[t], dispatched[t], active);
                        }
                    }
                }
                // Every working deployment stalled (policies holding
                // queues with nothing in flight): feed the cluster the
                // next arrival, or fail loudly once the trace is
                // exhausted.
                if all_stalled {
                    if idx >= trace.len() {
                        let queued = slots.iter().map(|s| s.st.queued_len()).sum();
                        return Err(CoreError::SchedulerStalled { queued });
                    }
                    g = next_arrival;
                    continue;
                }
                g = next_round(&slots, g, next_arrival);
            }
            Ok(())
        })();

        // Hand the engines back before surfacing any error — a failed
        // run must not eat the deployments.
        let (engines, states): (Vec<_>, Vec<_>) = slots.into_iter().map(|s| (s.eng, s.st)).unzip();
        self.engines = engines;
        run?;

        let deployments: Vec<_> =
            self.engines.iter().zip(states).map(|(eng, st)| eng.finish(st)).collect();
        Ok(ClusterReport::new(
            self.routing.name().to_string(),
            deployments,
            dispatched,
            redispatches,
            misrouted,
        ))
    }
}
