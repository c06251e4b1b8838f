//! The progressive-filling oracle: exact max-min fair sharing.
//!
//! This is the original `FlowEngine` implementation, retained verbatim as
//! the equivalence oracle for the virtual-time fast path in
//! [`crate::fair`] (the same pattern as `next_completion_time_scan`
//! inside this engine: the slow, obviously-correct formulation stays and
//! every fast path must match it). It recomputes **exact max-min rates**
//! (progressive filling with rate caps) on every composition change —
//! O(Σ route + active resources) per filling round, where the active
//! resources are those on some live job's route, and up to one round per
//! distinct bottleneck per submit, completion or cancel — which is what
//! the fast engine exists to avoid.

use crate::engine::{completion_eps, Completion, JobId};
use crate::error::SimError;
use crate::resource::{ResourceId, ResourceSpec, ResourceStats};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct JobState {
    seq: u64,
    demand: f64,
    remaining: f64,
    rate_cap: Option<f64>,
    rate: f64,
    /// Predicted absolute completion instant under the current rate, or
    /// `None` if the job cannot progress (rate zero). Valid as long as the
    /// rate is unchanged: progress is linear, so an absolute prediction
    /// survives pure time advances without recomputation.
    pred: Option<SimTime>,
}

#[derive(Debug, Clone)]
struct ResourceState {
    spec: ResourceSpec,
    stats: ResourceStats,
}

/// Run-long buffers of the rate recompute and of `advance_into`, kept so
/// neither allocates once warm; each sizes its per-resource buffers to the
/// resource table on use. Between calls `load` and `allocated` are all
/// zero; the other buffers carry no meaning across calls.
#[derive(Debug, Default)]
struct Scratch {
    /// Each job's rate before the recompute, slot-aligned.
    old_rates: Vec<f64>,
    /// Per resource: capacity not yet handed to frozen jobs.
    residual: Vec<f64>,
    /// Per resource: unfrozen jobs crossing it.
    load: Vec<u32>,
    /// Per resource: saturated at the current share.
    bottleneck: Vec<bool>,
    /// Resources on some live job's route, in discovery order.
    live: Vec<u32>,
    /// Slots of the jobs still filling, and the next round's survivors.
    unfrozen: Vec<u32>,
    next: Vec<u32>,
    /// Per resource: total rate allocated over an advance window.
    allocated: Vec<f64>,
    /// `(seq, job)` of the jobs completing in an advance.
    done: Vec<(u64, JobId)>,
}

/// Progressive-filling max-min engine (the equivalence oracle).
#[derive(Debug, Default)]
pub(crate) struct OracleEngine {
    resources: Vec<ResourceState>,
    jobs: Vec<Option<JobState>>,
    /// Each slot's route, slot-aligned with `jobs`. A freed slot keeps its
    /// buffer, which the next job in that slot overwrites, so submits stop
    /// allocating once the slots are warm; only live slots are read.
    routes: Vec<Vec<ResourceId>>,
    free_slots: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    rates_dirty: bool,
    active_jobs: usize,
    /// Min-heap of `(predicted completion, seq, slot)` — the completion
    /// index behind `next_completion_time`. Entries are lazily
    /// invalidated: a rate change re-pushes a fresh entry and the stale
    /// one is discarded when it surfaces (its time no longer matches the
    /// job's stored prediction, or the job is gone).
    pred_heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Boxed to keep the engine (and `FlowEngine`'s variants) small.
    scratch: Box<Scratch>,
}

impl OracleEngine {
    pub(crate) fn new() -> Self {
        OracleEngine::default()
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn active_jobs(&self) -> usize {
        self.active_jobs
    }

    pub(crate) fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(ResourceState { spec, stats: ResourceStats::default() });
        id
    }

    pub(crate) fn resource_count(&self) -> usize {
        self.resources.len()
    }

    pub(crate) fn resource(&self, id: ResourceId) -> &ResourceSpec {
        &self.resources[id.index()].spec
    }

    pub(crate) fn stats(&self, id: ResourceId) -> ResourceStats {
        self.resources[id.index()].stats
    }

    pub(crate) fn stats_snapshot(&self) -> Vec<ResourceStats> {
        self.resources.iter().map(|r| r.stats).collect()
    }

    /// Total entries in the lazily-invalidated completion index
    /// (live + stale). Diagnostic for the compaction regression tests.
    pub(crate) fn completion_index_len(&self) -> usize {
        self.pred_heap.len()
    }

    pub(crate) fn submit(
        &mut self,
        route: &[ResourceId],
        amount: f64,
        rate_cap: Option<f64>,
    ) -> Result<JobId, SimError> {
        if route.is_empty() {
            return Err(SimError::EmptyRoute);
        }
        for r in route {
            if r.index() >= self.resources.len() {
                return Err(SimError::UnknownResource(r.index()));
            }
        }
        if !amount.is_finite() || amount < 0.0 {
            return Err(SimError::InvalidAmount(amount));
        }
        if let Some(cap) = rate_cap {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(SimError::InvalidAmount(cap));
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let state =
            JobState { seq, demand: amount, remaining: amount, rate_cap, rate: 0.0, pred: None };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.jobs[s as usize] = Some(state);
                let buf = &mut self.routes[s as usize];
                buf.clear();
                buf.extend_from_slice(route);
                s
            }
            None => {
                self.jobs.push(Some(state));
                self.routes.push(route.to_vec());
                (self.jobs.len() - 1) as u32
            }
        };
        self.active_jobs += 1;
        self.rates_dirty = true;
        Ok(JobId { slot, seq })
    }

    /// Removes a job before it completes, returning its remaining demand.
    /// Returns `None` if the job is not active (already completed or
    /// cancelled). Freed capacity redistributes at the next recompute.
    pub(crate) fn cancel(&mut self, id: JobId) -> Option<f64> {
        match self.jobs.get(id.slot as usize)? {
            Some(j) if j.seq == id.seq => {
                let remaining = j.remaining.max(0.0);
                self.jobs[id.slot as usize] = None;
                self.free_slots.push(id.slot);
                self.active_jobs -= 1;
                self.rates_dirty = true;
                Some(remaining)
            }
            _ => None,
        }
    }

    /// Recomputes max-min fair rates (progressive filling with caps), then
    /// refreshes the completion index for every job whose rate changed.
    ///
    /// Each filling round scans the unfrozen jobs' routes and the resources
    /// on some live route, never the whole resource table: a resource no
    /// live job crosses has no load, so it can neither set the bottleneck
    /// share nor flag a job. The minimum share is exact whatever the scan
    /// order, so the rates are bit-identical to a scan of every resource.
    fn recompute_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        let OracleEngine { resources, jobs, routes, scratch: s, .. } = self;
        let n_res = resources.len();
        if s.load.len() != n_res {
            s.residual.resize(n_res, 0.0);
            s.load.resize(n_res, 0);
            s.bottleneck.resize(n_res, false);
        }

        // Old rates, slot-aligned, to detect which predictions survive.
        s.old_rates.clear();
        s.old_rates.extend(jobs.iter().map(|j| j.as_ref().map_or(0.0, |job| job.rate)));

        // Load every live job's route; a resource's first load makes it
        // live and resets its residual and flag.
        s.live.clear();
        s.unfrozen.clear();
        for (i, j) in jobs.iter().enumerate() {
            if j.is_some() {
                for r in &routes[i] {
                    let r = r.index();
                    if s.load[r] == 0 {
                        s.live.push(r as u32);
                        s.residual[r] = resources[r].spec.capacity();
                        s.bottleneck[r] = false;
                    }
                    s.load[r] += 1;
                }
                s.unfrozen.push(i as u32);
            }
        }

        // Progressive filling.
        while !s.unfrozen.is_empty() {
            // Bottleneck share among resources used by unfrozen jobs.
            let mut share = f64::INFINITY;
            for &r in &s.live {
                let r = r as usize;
                if s.load[r] > 0 {
                    let x = (s.residual[r] / s.load[r] as f64).max(0.0);
                    if x < share {
                        share = x;
                    }
                }
            }
            debug_assert!(share.is_finite(), "unfrozen jobs must load some resource");

            // Jobs whose cap is below the share freeze at their cap first.
            let min_cap = s
                .unfrozen
                .iter()
                .filter_map(|&i| jobs[i as usize].as_ref().unwrap().rate_cap)
                .fold(f64::INFINITY, f64::min);

            let eps = 1e-12 * (1.0 + share.abs());
            s.next.clear();
            if min_cap < share - eps {
                // Freeze every job whose cap is (close to) the minimum cap.
                for &i in &s.unfrozen {
                    let job = jobs[i as usize].as_mut().unwrap();
                    let frozen = match job.rate_cap {
                        Some(c) => c <= min_cap + eps,
                        None => false,
                    };
                    if frozen {
                        let rate = job.rate_cap.unwrap();
                        job.rate = rate;
                        for r in &routes[i as usize] {
                            s.residual[r.index()] = (s.residual[r.index()] - rate).max(0.0);
                            s.load[r.index()] -= 1;
                        }
                    } else {
                        s.next.push(i);
                    }
                }
            } else {
                // Freeze jobs that cross a bottleneck resource at `share`.
                for &r in &s.live {
                    let r = r as usize;
                    s.bottleneck[r] =
                        s.load[r] > 0 && s.residual[r] / s.load[r] as f64 <= share + eps;
                }
                let mut froze_any = false;
                for &i in &s.unfrozen {
                    let job = jobs[i as usize].as_mut().unwrap();
                    let route = &routes[i as usize];
                    if route.iter().any(|r| s.bottleneck[r.index()]) {
                        froze_any = true;
                        let rate = match job.rate_cap {
                            Some(c) => c.min(share),
                            None => share,
                        };
                        job.rate = rate;
                        for r in route {
                            s.residual[r.index()] = (s.residual[r.index()] - rate).max(0.0);
                            s.load[r.index()] -= 1;
                        }
                    } else {
                        s.next.push(i);
                    }
                }
                // Safety net against numerical stalls: freeze everything at
                // the current share if no bottleneck was detected.
                if !froze_any {
                    for &i in &s.next {
                        let job = jobs[i as usize].as_mut().unwrap();
                        job.rate = match job.rate_cap {
                            Some(c) => c.min(share),
                            None => share,
                        };
                    }
                    s.next.clear();
                }
            }
            std::mem::swap(&mut s.unfrozen, &mut s.next);
        }
        // The safety net can leave loads behind; restore the all-zero
        // invariant for the next recompute.
        for &r in &s.live {
            s.load[r as usize] = 0;
        }

        // Re-index completions for jobs whose rate changed (or that never
        // had a prediction). Unchanged-rate jobs progress linearly, so
        // their absolute predictions stay exact across time advances.
        let now = self.now;
        for (slot, (j, old)) in self.jobs.iter_mut().zip(&self.scratch.old_rates).enumerate() {
            let Some(j) = j else { continue };
            if j.rate.to_bits() == old.to_bits() && j.pred.is_some() {
                continue;
            }
            let pred = if j.remaining <= completion_eps(j.demand) {
                Some(now)
            } else if j.rate > 0.0 {
                Some(now + SimTime::from_secs_f64_ceil(j.remaining / j.rate))
            } else {
                None
            };
            j.pred = pred;
            if let Some(t) = pred {
                self.pred_heap.push(Reverse((t, j.seq, slot as u32)));
            }
        }
        // Bound stale-entry accumulation: compact when the heap holds far
        // more entries than live jobs.
        if self.pred_heap.len() > 2 * self.active_jobs + 64 {
            self.pred_heap.clear();
            for (slot, j) in self.jobs.iter().enumerate() {
                if let Some(j) = j {
                    if let Some(t) = j.pred {
                        self.pred_heap.push(Reverse((t, j.seq, slot as u32)));
                    }
                }
            }
        }
    }

    pub(crate) fn next_completion_time(&mut self) -> Option<SimTime> {
        if self.active_jobs == 0 {
            return None;
        }
        self.recompute_rates();
        while let Some(&Reverse((t, seq, slot))) = self.pred_heap.peek() {
            match self.jobs.get(slot as usize).and_then(Option::as_ref) {
                Some(j) if j.seq == seq && j.pred == Some(t) => return Some(t),
                _ => {
                    self.pred_heap.pop();
                }
            }
        }
        None
    }

    pub(crate) fn next_completion_time_scan(&mut self) -> Option<SimTime> {
        if self.active_jobs == 0 {
            return None;
        }
        self.recompute_rates();
        let mut best: Option<SimTime> = None;
        for j in self.jobs.iter().flatten() {
            let t = if j.remaining <= completion_eps(j.demand) {
                self.now
            } else if j.rate > 0.0 {
                self.now + SimTime::from_secs_f64_ceil(j.remaining / j.rate)
            } else {
                continue;
            };
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        best
    }

    /// Advances to `t` and appends the jobs that completed, in submission
    /// order, to `out`.
    pub(crate) fn advance_into(
        &mut self,
        t: SimTime,
        out: &mut Vec<Completion>,
    ) -> Result<(), SimError> {
        if t < self.now {
            return Err(SimError::TimeReversal { now: self.now, requested: t });
        }
        self.recompute_rates();
        let dt = (t - self.now).as_secs_f64();
        let s = &mut self.scratch;

        // Accumulate resource statistics for the elapsed window. A resource
        // with nothing allocated would add `+0.0` to its non-negative
        // served/busy totals, which leaves them unchanged, so it is skipped.
        if dt > 0.0 {
            s.allocated.resize(self.resources.len(), 0.0);
            for (j, route) in self.jobs.iter().zip(&self.routes) {
                if let Some(j) = j {
                    for r in route {
                        s.allocated[r.index()] += j.rate;
                    }
                }
            }
            for (state, allocated) in self.resources.iter_mut().zip(&mut s.allocated) {
                if *allocated != 0.0 {
                    let rate = allocated.min(state.spec.capacity());
                    state.stats.units_served += rate * dt;
                    state.stats.busy_seconds += (rate / state.spec.capacity()) * dt;
                    *allocated = 0.0;
                }
                state.stats.observed_seconds += dt;
            }
        }

        // Progress jobs and collect completions.
        s.done.clear();
        for (i, slot) in self.jobs.iter_mut().enumerate() {
            if let Some(j) = slot {
                if dt > 0.0 {
                    j.remaining -= j.rate * dt;
                }
                let eps = completion_eps(j.demand);
                if j.remaining <= eps {
                    s.done.push((j.seq, JobId { slot: i as u32, seq: j.seq }));
                }
            }
        }
        // Sequence numbers are unique, so the unstable sort is exact.
        s.done.sort_unstable_by_key(|(seq, _)| *seq);
        for &(_, id) in &s.done {
            self.jobs[id.slot as usize] = None;
            self.free_slots.push(id.slot);
            self.active_jobs -= 1;
            self.rates_dirty = true;
            out.push(Completion { job: id, at: t });
        }
        self.now = t;
        Ok(())
    }

    pub(crate) fn run_to_idle(&mut self) -> Result<SimTime, SimError> {
        while self.active_jobs > 0 {
            let t = self.next_completion_time().ok_or(SimError::Stalled)?;
            self.advance_into(t, &mut Vec::new())?;
        }
        Ok(self.now)
    }

    pub(crate) fn job_rate(&mut self, id: JobId) -> Option<f64> {
        self.recompute_rates();
        match self.jobs.get(id.slot as usize)? {
            Some(j) if j.seq == id.seq => Some(j.rate),
            _ => None,
        }
    }

    pub(crate) fn job_remaining(&self, id: JobId) -> Option<f64> {
        match self.jobs.get(id.slot as usize)? {
            Some(j) if j.seq == id.seq => Some(j.remaining),
            _ => None,
        }
    }
}
