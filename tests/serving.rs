//! Request-level serving integration tests: the continuous-batching layer
//! end to end, the pluggable scheduling-policy API (FIFO golden parity,
//! EDF/priority improvements), the decode-step context fix, and baseline
//! parity.

use hilos::baselines::VllmMultiNode;
use hilos::core::{
    ChunkMode, CoreError, DeadlineEdf, DecodeStepExecutor, Fifo, FlowEngineImpl, HilosConfig,
    HilosSystem, PrefixCacheConfig, PriorityPreempt, SchedulingPolicy, ServeConfig, ServeEngine,
    ServingCampaign, SpillDecision, TraceReport,
};
use hilos::llm::{presets, BatchSpec, RequestClass, TraceConfig};
use hilos::platform::SystemSpec;
use hilos::trace::{
    check_conservation, events_fnv, perfetto_json, prefill_chunk_totals, spans_nest, validate_json,
    LatencyAttribution,
};

fn hilos(n: usize, sim_layers: u32) -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_30b(), &HilosConfig::new(n))
        .unwrap()
        .with_sim_layers(sim_layers)
}

/// The decode-step context fix: the old frozen-midpoint approximation
/// (`mid_ctx = context + output_len/2` for every step) must agree with the
/// exact per-step sum over `BatchSpec::context_at_step` to within a
/// fraction of a percent for the paper's shapes — which is why `run_decode`
/// may sample a centered window and scale.
#[test]
fn midpoint_approximation_matches_exact_per_step_sum() {
    let quiet = SpillDecision { buffered_tokens: 0, spill_now: false, spill_tokens: 0 };
    for (batch, ctx) in [(16u32, 32 * 1024u64), (16, 128 * 1024), (64, 16 * 1024)] {
        let spec = BatchSpec::new(batch, ctx, 64);
        let system = hilos(8, 2);
        let alpha = system.select_alpha(batch, ctx).unwrap();
        let mut exec = DecodeStepExecutor::new(&system).unwrap();

        let exact: f64 = (0..spec.output_len)
            .map(|i| {
                exec.execute_step(batch, spec.context_at_step(i), alpha, &quiet).unwrap().seconds
            })
            .sum();
        let mid_ctx = ctx + spec.output_len / 2;
        let midpoint = spec.output_len as f64
            * exec.execute_step(batch, mid_ctx, alpha, &quiet).unwrap().seconds;

        let rel = (midpoint - exact).abs() / exact;
        assert!(
            rel < 0.01,
            "midpoint diverged from exact sum at bs={batch} s={ctx}: {rel:.4} ({midpoint} vs {exact})"
        );
    }
}

/// `run_decode` (centered exact window) stays within tolerance of the full
/// exact per-step sum, so the refactor did not change reported results.
#[test]
fn run_decode_window_matches_full_sum() {
    let quiet = SpillDecision { buffered_tokens: 0, spill_now: false, spill_tokens: 0 };
    let system = hilos(8, 2);
    let spec = BatchSpec::new(16, 32 * 1024, 64);
    let alpha = system.select_alpha(spec.batch, spec.context_len).unwrap();
    let report = system.run_decode(spec.batch, spec.context_len, spec.output_len).unwrap();

    let mut exec = DecodeStepExecutor::new(&system).unwrap();
    let exact: f64 = (0..spec.output_len)
        .map(|i| {
            exec.execute_step(spec.batch, spec.context_at_step(i), alpha, &quiet).unwrap().seconds
        })
        .sum();
    // The windowed run interleaves writeback phases the quiet sum does
    // not, so allow a few percent.
    let rel = (report.decode_seconds - exact).abs() / exact;
    assert!(rel < 0.05, "run_decode diverged from exact sum: {rel:.4}");
}

/// Acceptance: a 10k-request heterogeneous trace completes under
/// continuous batching, reports sane tail latencies, and two invocations
/// with the same seed are bit-identical.
#[test]
fn ten_thousand_request_trace_is_deterministic() {
    let trace = TraceConfig::azure_mix(10_000, 42).generate().unwrap();
    let run = || {
        let mut campaign = ServingCampaign::new(hilos(8, 1));
        campaign.run_trace(&trace, &ServeConfig::new(32)).unwrap()
    };
    let report = run();
    assert_eq!(report.outcomes.len() + report.rejected.len(), 10_000);
    assert!(report.rejected.is_empty());
    assert!(report.peak_batch > 8, "traffic should fill the batch");
    assert!(report.steps > 10_000);
    let ttft = report.ttft_stats();
    let itl = report.itl_stats();
    assert!(ttft.p50 > 0.0 && ttft.p50 <= ttft.p95 && ttft.p95 <= ttft.p99);
    assert!(itl.p50 > 0.0 && itl.p99 >= itl.p50);
    assert!(report.tokens_per_second() > 0.0);

    let again = run();
    assert_eq!(report, again, "same seed must serve bit-identically");
}

/// Intra-step sharding pin: building each step's per-device sub-graphs
/// on N workers must change *nothing* — the whole trace report, every
/// outcome timestamp included, is bit-identical to the serial build.
#[test]
fn step_thread_sharding_is_outcome_identical() {
    let trace = TraceConfig::azure_mix(256, 42).generate().unwrap();
    let run = |threads: usize| {
        let cfg = ServeConfig::new(16).with_step_threads(threads);
        let mut eng = ServeEngine::new(hilos(8, 1), cfg).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let serial = run(1);
    assert_eq!(serial.outcomes.len(), 256);
    assert_eq!(serial, run(4), "sharded step build drifted from the serial build");
}

/// The virtual-time flow engine serves the same workload to completion,
/// deterministically, and conserves the trace's token accounting — only
/// timing may differ (conservatively) from the progressive-filling
/// oracle.
#[test]
fn virtual_time_engine_serves_deterministically() {
    let trace = TraceConfig::azure_mix(512, 42).generate().unwrap();
    let run = |flow_impl| {
        let cfg = ServeConfig::new(16).with_flow_impl(flow_impl);
        let mut eng = ServeEngine::new(hilos(8, 1), cfg).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let fast = run(FlowEngineImpl::VirtualTime);
    assert_eq!(fast.outcomes.len(), 512);
    assert!(fast.rejected.is_empty());
    assert!(fast.tokens_per_second() > 0.0);
    assert_eq!(fast, run(FlowEngineImpl::VirtualTime), "same seed must serve bit-identically");

    // Work conservation across engines: identical requests, identical
    // token totals — only the clock may differ.
    let oracle = run(FlowEngineImpl::ProgressiveFilling);
    assert_eq!(fast.generated_tokens, oracle.generated_tokens);
    assert_eq!(fast.outcomes.len(), oracle.outcomes.len());
}

/// Golden pin of the FIFO policy against the pre-policy-API engine: the
/// hard-wired admission loop of PR 2 produced exactly these numbers on
/// the seeded Azure-mix trace, and the policy-generic engine driving
/// [`Fifo`] must reproduce them bit for bit — every field below,
/// including an FNV-1a hash over every outcome's id, lengths and
/// f64-bit-exact lifecycle timestamps.
#[test]
fn fifo_is_bit_identical_to_pre_policy_engine() {
    let trace = TraceConfig::azure_mix(512, 42).generate().unwrap();
    let mut eng = ServeEngine::new(hilos(8, 1), ServeConfig::new(16)).unwrap();
    let r = eng.run_trace(&trace).unwrap();

    assert_eq!(r.policy, "fifo");
    assert_eq!(r.outcomes.len(), 512);
    assert_eq!(r.rejected.len(), 0);
    assert_eq!(r.steps, 6562);
    assert_eq!(r.elapsed_s.to_bits(), 0x40ce34c80da9f4da, "elapsed_s drifted: {}", r.elapsed_s);
    assert_eq!(r.generated_tokens, 99_823);
    assert_eq!(r.peak_batch, 16);
    assert_eq!(r.joins, 512);
    assert_eq!(r.evictions, 512);
    assert_eq!(r.preemptions, 0);
    assert_eq!(r.alpha_recomputes, 928);
    assert_eq!(r.mean_alpha.to_bits(), 0x3fe8000000000000);
    assert_eq!(r.host_pcie_bytes.to_bits(), 0x42fbac24b5b80000);
    assert_eq!(r.internal_read_bytes.to_bits(), 0x42cdabf18c400000);

    assert_eq!(
        hilos::core::outcome_lifecycle_fnv(&r.outcomes),
        0x988a698736a9c8fe,
        "per-outcome lifecycle timings drifted"
    );

    // The default config *is* ChunkMode::Off; spelling it out must
    // reproduce the same run bit for bit (the chunked-prefill refactor
    // added no drift to the legacy side-prefill path).
    let mut off =
        ServeEngine::new(hilos(8, 1), ServeConfig::new(16).with_chunk_mode(ChunkMode::Off))
            .unwrap();
    assert_eq!(off.run_trace(&trace).unwrap(), r, "explicit ChunkMode::Off drifted");
}

/// The long-prompt contended trace of the chunked-vs-lump comparison
/// (`bench_serving`'s `chunked` section): Long-heavy prompts stretched 8x,
/// arriving fast enough that prompt ingestion overlaps running decodes.
fn long_prompt_trace() -> Vec<hilos::llm::Request> {
    let mut cfg = TraceConfig::long_context(96, 42, 8).with_mean_interarrival(80);
    cfg.class_weights = [1, 3, 6];
    cfg.generate().unwrap()
}

/// Acceptance: with chunking on, the decode-gap tail under the
/// long-prompt contended trace improves measurably over inline lump
/// prefill — p95, p99 and worst-case all shrink, because a whole-prompt
/// ingestion can no longer land inside a single decode step. Both modes
/// do the same total prefill work (conservation), and the legacy
/// side-prefill mode charges none of it.
#[test]
fn chunked_prefill_tames_the_decode_gap_tail_vs_lump() {
    let trace = long_prompt_trace();
    let run = |mode| {
        let mut eng =
            ServeEngine::new(hilos(8, 1), ServeConfig::new(8).with_chunk_mode(mode)).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let off = run(ChunkMode::Off);
    let lump = run(ChunkMode::Lump);
    let chunked = run(ChunkMode::chunked());

    for r in [&off, &lump, &chunked] {
        assert_eq!(r.outcomes.len(), 96, "incomplete");
        assert!(r.rejected.is_empty() && r.shed.is_empty());
    }

    let (ls, cs) = (lump.step_itl_stats(), chunked.step_itl_stats());
    assert!(cs.p95 < ls.p95, "chunked p95 {} must beat lump {}", cs.p95, ls.p95);
    assert!(cs.p99 < ls.p99, "chunked p99 {} must beat lump {}", cs.p99, ls.p99);
    assert!(
        cs.max * 2.0 < ls.max,
        "chunking must collapse the worst decode gap: {} vs {}",
        cs.max,
        ls.max
    );

    // Conservation: same prompts, same total ingestion seconds. This run
    // uses auto-α, where the admission α depends on the live batch size
    // and can in principle drift between the modes, so the seconds check
    // is loose here — the strict 1e-9 telescoping claim is pinned under
    // fixed α by the conservation proptest.
    assert_eq!(lump.prefill.chunk_tokens, chunked.prefill.chunk_tokens);
    let (a, b) = (lump.prefill.prefill_seconds(), chunked.prefill.prefill_seconds());
    assert!((a - b).abs() < 0.01 * a, "prefill totals diverged: {a} vs {b}");

    // The legacy mode models no contention at all — the inline modes
    // exist precisely because its decode tail is optimistic.
    assert_eq!(off.prefill.chunks, 0);
    assert_eq!(off.prefill.prefill_seconds(), 0.0);

    // Interference is visible and attributed: most chunk time coincided
    // with running decodes on this trace.
    assert!(chunked.prefill.interference_seconds > chunked.prefill.stall_seconds);
    assert!(chunked.prefill.interference_ratio() > 0.0);
}

/// Acceptance: EDF with overload shedding strictly lifts SLO goodput
/// over plain EDF on the overloaded seeded trace (the domino effect:
/// plain EDF burns capacity on requests whose deadlines are already
/// dead). The margin is recorded in `BENCH_serving.json` and gated
/// exactly in CI.
#[test]
fn edf_shedding_lifts_slo_goodput_under_overload() {
    let trace = TraceConfig::azure_mix(256, 42).with_mean_interarrival(10).generate().unwrap();
    let run = |policy: Box<dyn SchedulingPolicy>| {
        let mut eng = ServeEngine::with_policy(hilos(8, 1), ServeConfig::new(8), policy).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let plain = run(Box::new(DeadlineEdf::new()));
    let shed = run(Box::new(DeadlineEdf::with_shedding()));

    assert_eq!(plain.outcomes.len(), 256);
    assert!(plain.shed.is_empty());
    assert!(!shed.shed.is_empty(), "overload must shed");
    assert_eq!(shed.outcomes.len() + shed.shed.len(), 256, "partition must hold");
    assert!(
        shed.slo_token_goodput() > plain.slo_token_goodput(),
        "shedding goodput {} must beat plain EDF {}",
        shed.slo_token_goodput(),
        plain.slo_token_goodput()
    );
    assert!(shed.slo_hit_rate() > plain.slo_hit_rate());
    // Shedding sacrifices raw throughput only marginally.
    assert!(shed.tokens_per_second() > 0.9 * plain.tokens_per_second());
    // Every shed was past its deadline when dropped.
    for s in &shed.shed {
        assert!(s.overdue_s() >= 0.0, "{s:?}");
    }
    // Deterministic.
    assert_eq!(shed, run(Box::new(DeadlineEdf::with_shedding())));
}

/// The contended seeded trace of the three-way policy comparison
/// (`examples/serving_trace.rs`, `bench_serving`): arrivals at roughly
/// 2.3x the service rate, so a deep queue forms and admission order
/// decides who meets their SLO.
fn contended_trace() -> Vec<hilos::llm::Request> {
    TraceConfig { mean_interarrival_steps: 20, ..TraceConfig::azure_mix(256, 42) }
        .generate()
        .unwrap()
}

fn run_policy(policy: Box<dyn SchedulingPolicy>) -> TraceReport {
    let mut eng = ServeEngine::with_policy(hilos(8, 1), ServeConfig::new(8), policy).unwrap();
    eng.run_trace(&contended_trace()).unwrap()
}

/// Acceptance: on the contended seeded trace, deadline-EDF strictly
/// improves SLO goodput over FIFO, and priority-preemptive scheduling
/// strictly improves the high-class (Short) p95 TTFT over FIFO. All
/// three policies complete the full workload and release every shard
/// byte.
#[test]
fn edf_and_priority_beat_fifo_on_their_objectives() {
    let fifo = run_policy(Box::new(Fifo));
    let edf = run_policy(Box::new(DeadlineEdf::new()));
    let pp = run_policy(Box::new(PriorityPreempt::new()));

    for r in [&fifo, &edf, &pp] {
        assert_eq!(r.outcomes.len(), 256, "{}: incomplete", r.policy);
        assert!(r.rejected.is_empty(), "{}: rejected requests", r.policy);
    }

    // DeadlineEdf: strictly better SLO goodput and hit rate than FIFO.
    assert!(
        edf.slo_token_goodput() > fifo.slo_token_goodput(),
        "EDF goodput {} must beat FIFO {}",
        edf.slo_token_goodput(),
        fifo.slo_token_goodput()
    );
    assert!(
        edf.slo_hit_rate() > fifo.slo_hit_rate(),
        "EDF hit rate {} must beat FIFO {}",
        edf.slo_hit_rate(),
        fifo.slo_hit_rate()
    );

    // PriorityPreempt: strictly better high-class p95 TTFT than FIFO —
    // by a wide margin, so the gate survives any future re-tuning noise.
    let short_p95 = |r: &TraceReport| r.class_report(RequestClass::Short).unwrap().ttft.p95;
    assert!(
        short_p95(&pp) < short_p95(&fifo) / 10.0,
        "priority-preempt Short p95 TTFT {} must be far below FIFO {}",
        short_p95(&pp),
        short_p95(&fifo)
    );
    assert!(pp.preemptions > 0, "the contended trace must actually preempt");
    assert_eq!(fifo.preemptions, 0);
    assert_eq!(edf.preemptions, 0, "EDF is admission-only");

    // The preemption tax is visible but bounded: total throughput stays
    // within a few percent of FIFO's.
    assert!(pp.tokens_per_second() > 0.9 * fifo.tokens_per_second());

    // Per-class breakdown is present for all three classes.
    for r in [&fifo, &edf, &pp] {
        assert_eq!(r.class_breakdown().len(), 3, "{}", r.policy);
    }
}

/// The shared-prefix long-context trace of the prefix-cache comparison
/// (`bench_serving`'s `prefix_cache` section): prompts stretched 8x into
/// the paper's long-context regime, every fresh conversation opening
/// with the same 8192-token document prefix, and 60% of arrivals
/// continuing a session whose whole served context is cached. Light
/// arrival pressure, so TTFT is prefill-bound — the regime prefix reuse
/// exists for.
fn shared_prefix_trace() -> Vec<hilos::llm::Request> {
    let shared = hilos::llm::SharedPrefixConfig {
        system_prompt_tokens: 8192,
        follow_up_fraction: 0.6,
        follow_up_tokens: 256,
        max_turns: 8,
    };
    TraceConfig::long_context(192, 42, 8)
        .with_mean_interarrival(100)
        .with_shared_prefix(shared)
        .generate()
        .unwrap()
}

/// Acceptance: on the seeded shared-prefix trace, turning the prefix
/// cache on cuts TTFT p95 by at least 2x while serving exactly the same
/// tokens — hits skip their prefix's prefill chunks, and the recall I/O
/// they pay instead is priced by the residency ladder. The margin is
/// recorded in `BENCH_serving.json` and gated in CI; with the cache off
/// (the default) the report's cache section stays all-zero and the FIFO
/// golden pins above are untouched.
#[test]
fn prefix_cache_halves_ttft_p95_on_shared_prefix_trace() {
    let trace = shared_prefix_trace();
    let run = |cache: Option<PrefixCacheConfig>| {
        let mut cfg = ServeConfig::new(16);
        if let Some(pc) = cache {
            cfg = cfg.with_prefix_cache(pc);
        }
        let mut eng = ServeEngine::new(hilos(8, 1), cfg).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let off = run(None);
    let on = run(Some(PrefixCacheConfig::default()));

    // Identical service: same request set, same per-request tokens.
    assert_eq!(on.generated_tokens, off.generated_tokens);
    let served = |r: &TraceReport| {
        let mut v: Vec<(u64, u64)> = r.outcomes.iter().map(|o| (o.id, o.output_len)).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(served(&on), served(&off));
    assert!(on.rejected.is_empty() && off.rejected.is_empty());

    // The cache actually worked.
    assert!(on.prefix.hits > 0, "shared-prefix trace never hit");
    assert!(on.prefix.hit_rate() > 0.5, "most arrivals share a prefix: {}", on.prefix.hit_rate());
    assert!(on.prefix.saved_prefill_tokens > 0);
    assert_eq!(off.prefix.hits, 0, "cache off must not probe");

    // The headline: reuse at least halves the TTFT tail.
    let (t_on, t_off) = (on.ttft_stats(), off.ttft_stats());
    assert!(
        t_on.p95 * 2.0 <= t_off.p95,
        "cache-on TTFT p95 {} must be at most half of cache-off {}",
        t_on.p95,
        t_off.p95
    );
    assert!(t_on.p50 < t_off.p50, "the median must improve too");

    // Deterministic both ways.
    assert_eq!(on, run(Some(PrefixCacheConfig::default())));
}

/// Golden pin of the lifecycle event stream: on the seeded shared-prefix
/// trace under chunked prefill and the prefix cache, a tracing-enabled
/// run must (1) leave every serving number bit-identical to the untraced
/// run — emission is observational — and (2) produce exactly this
/// FNV-1a event-stream hash, gated again by CI's `trace-smoke` job. The
/// same stream must satisfy the conservation law (every arrival
/// terminates exactly once), reconcile its chunk events against
/// [`TraceReport::prefill`], decompose every completed request's e2e
/// additively, and export as a Perfetto document whose spans nest.
#[test]
fn event_stream_is_deterministic_and_reconciles_on_shared_prefix_trace() {
    let trace = shared_prefix_trace();
    let run = |tracing: Option<usize>| {
        let mut cfg = ServeConfig::new(16)
            .with_chunk_mode(ChunkMode::chunked())
            .with_prefix_cache(PrefixCacheConfig::default());
        if let Some(cap) = tracing {
            cfg = cfg.with_tracing(cap);
        }
        let mut eng = ServeEngine::new(hilos(8, 1), cfg).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let traced = run(Some(1 << 20));
    let plain = run(None);

    // Tracing is observational: strip the events and the reports agree
    // bit for bit; off leaves the stream empty.
    assert!(plain.events.is_empty() && plain.events_dropped == 0);
    assert!(!traced.events.is_empty());
    assert_eq!(traced.events_dropped, 0, "ring capacity must retain the whole run");
    let mut stripped = traced.clone();
    stripped.events = vec![];
    assert_eq!(stripped, plain, "emission must not perturb the serving numbers");

    // The pinned stream hash — deterministic across runs and platforms.
    assert_eq!(traced.events, run(Some(1 << 20)).events, "event stream must be reproducible");
    assert_eq!(
        events_fnv(&traced.events),
        0xb4a9f0c6ea15d652,
        "the lifecycle event stream drifted"
    );

    // Conservation: every arrival terminates exactly once.
    let cons = check_conservation(&[&traced.events]);
    assert!(cons.holds(), "conservation violated: {cons:?}");
    assert_eq!(cons.arrived, 192);
    assert_eq!(cons.completed, traced.outcomes.len());

    // Chunk events reconcile against the report's prefill breakdown.
    let totals = prefill_chunk_totals(&traced.events);
    assert_eq!(totals.chunks, traced.prefill.chunks);
    assert_eq!(totals.tokens, traced.prefill.chunk_tokens);
    assert!((totals.interference_seconds - traced.prefill.interference_seconds).abs() < 1e-9);
    assert!((totals.stall_seconds - traced.prefill.stall_seconds).abs() < 1e-9);

    // Per-request attribution: one row per completed request, each
    // decomposing its end-to-end latency additively and agreeing with
    // the outcome's own timestamps.
    let attr = LatencyAttribution::analyze(&[&traced.events]);
    assert_eq!(attr.rows.len(), traced.outcomes.len());
    for o in &traced.outcomes {
        let row = attr.get(o.id).expect("every outcome has a row");
        // e2e_s is the component fold; it matches the outcome's own
        // timestamps to within a ulp (see `RequestAttribution::e2e_s`).
        let e2e = o.finished_s - o.arrival_s;
        assert!((row.e2e_s - e2e).abs() <= 4.0 * f64::EPSILON * e2e.max(1.0));
        assert_eq!(row.ttft_s, o.first_token_s - o.arrival_s);
        assert_eq!(row.components_sum(), row.e2e_s, "request {} leaks time", o.id);
    }

    // The exporter produces a valid Chrome-trace document whose request
    // and phase spans nest on every track.
    let doc = perfetto_json(&[&traced.events]);
    validate_json(&doc).unwrap();
    assert!(spans_nest(&doc).unwrap() > traced.outcomes.len());
    // The export's bytes are pinned too: number formatting and line layout
    // are part of the format.
    let doc_fnv = doc
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert_eq!(
        (doc.len(), doc_fnv),
        (183_378, 0x2e01_9271_caae_3d0f),
        "the Perfetto export drifted"
    );
}

/// Baseline parity: the same trace driven through the serial
/// recompute-from-prefill vLLM baseline yields lower goodput than HILOS
/// continuous batching in the paper's regime — a >100B model whose KV
/// spills out of GPU memory (Fig. 17b). (For small models at short
/// context, the all-resident vLLM testbed legitimately wins; the
/// near-storage design pays off exactly where HBM capacity runs out.)
#[test]
fn continuous_batching_beats_serial_vllm_on_goodput() {
    let model = presets::opt_175b();
    let trace = TraceConfig::long_context(100, 42, 8).generate().unwrap();
    let deadline = 24.0 * 3600.0;

    let system = HilosSystem::new(&SystemSpec::a100_smartssd(16), &model, &HilosConfig::new(16))
        .unwrap()
        .with_sim_layers(1);
    let mut campaign = ServingCampaign::new(system);
    let h = campaign.run_trace(&trace, &ServeConfig::new(32).with_deadline(deadline)).unwrap();
    assert!(h.rejected.is_empty(), "all long-context requests should place");

    let v = VllmMultiNode::paper_testbed().run_trace(&model, &trace, deadline).unwrap();

    assert!(
        h.tokens_per_second() > v.tokens_per_second(),
        "HILOS {} tok/s vs vLLM {} tok/s",
        h.tokens_per_second(),
        v.tokens_per_second()
    );
    assert!(
        h.token_goodput() >= v.token_goodput(),
        "HILOS goodput {} vs vLLM {}",
        h.token_goodput(),
        v.token_goodput()
    );
}

/// A trace that is not sorted by arrival step is a typed error naming the
/// first request that arrives before its predecessor — not a panic.
#[test]
fn unsorted_trace_is_a_typed_error() {
    let mut trace = TraceConfig::azure_mix(8, 3).generate().unwrap();
    for (i, r) in trace.iter_mut().enumerate() {
        r.arrival_step = i as u64;
    }
    trace[5].arrival_step = 2;
    let mut eng = ServeEngine::new(hilos(8, 1), ServeConfig::new(4)).unwrap();
    assert_eq!(eng.run_trace(&trace).unwrap_err(), CoreError::UnsortedTrace { index: 5 });
}

/// Golden pin of the preempting path's event stream: the twin of
/// [`event_stream_is_deterministic_and_reconciles_on_shared_prefix_trace`]
/// under `PriorityPreempt`. At batch 16 that trace never preempts, so the
/// batch is cut to 4: the run then preempts, demotes the victims' KV and
/// recalls it, and the stream and outcome hashes pin those paths — and
/// the decode step's emit/complete order — alongside the FIFO pin.
#[test]
fn preempting_event_stream_is_pinned_on_shared_prefix_trace() {
    let trace = shared_prefix_trace();
    let run = |tracing: Option<usize>| {
        let mut cfg = ServeConfig::new(4)
            .with_chunk_mode(ChunkMode::chunked())
            .with_prefix_cache(PrefixCacheConfig::default());
        if let Some(cap) = tracing {
            cfg = cfg.with_tracing(cap);
        }
        let mut eng =
            ServeEngine::with_policy(hilos(8, 1), cfg, Box::new(PriorityPreempt::new())).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let traced = run(Some(1 << 20));
    let plain = run(None);
    assert_eq!(traced.events_dropped, 0, "ring capacity must retain the whole run");
    let mut stripped = traced.clone();
    stripped.events = vec![];
    assert_eq!(stripped, plain, "emission must not perturb the serving numbers");

    let count = |label: &str| traced.events.iter().filter(|e| e.kind.label() == label).count();
    assert_eq!(traced.preemptions, 13);
    assert_eq!(count("preempted"), 13);
    assert_eq!(count("demoted"), 13, "every victim's KV is demoted");
    assert!(count("recall") > 0);
    let cons = check_conservation(&[&traced.events]);
    assert!(cons.holds(), "conservation violated: {cons:?}");
    assert_eq!(cons.completed, 192);

    assert_eq!(
        events_fnv(&traced.events),
        0x7bb0b55ff7378fc5,
        "the preempting lifecycle event stream drifted"
    );
    assert_eq!(
        hilos::core::outcome_lifecycle_fnv(&traced.outcomes),
        0x8744b1d165ff05ed,
        "per-outcome lifecycle timings drifted under preemption"
    );
}

/// The DOM-based span check the streaming [`spans_nest`] replaced, kept as
/// its oracle: parse the whole document, then walk `traceEvents`.
fn spans_nest_oracle(s: &str) -> Result<usize, String> {
    use hilos::trace::{parse_json, Json};
    let doc = parse_json(s)?;
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<String>> =
        std::collections::HashMap::new();
    let mut spans = 0usize;
    let mut last_ts: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).ok_or("event missing ph")?;
        if ph != "b" && ph != "e" {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_f64).ok_or("async event missing pid")? as u64;
        let id = ev.get("id").and_then(Json::as_f64).ok_or("async event missing id")? as u64;
        let name =
            ev.get("name").and_then(Json::as_str).ok_or("async event missing name")?.to_string();
        let ts = ev.get("ts").and_then(Json::as_f64).ok_or("async event missing ts")?;
        let key = (pid, id);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!("track {key:?} not time-ordered: {ts} after {prev}"));
            }
        }
        last_ts.insert(key, ts);
        let stack = stacks.entry(key).or_default();
        if ph == "b" {
            stack.push(name);
        } else {
            match stack.pop() {
                Some(open) if open == name => spans += 1,
                Some(open) => return Err(format!("span 'e' {name} closes '{open}' on {key:?}")),
                None => return Err(format!("span 'e' {name} with empty stack on {key:?}")),
            }
        }
    }
    for (key, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("unclosed spans {stack:?} on {key:?}"));
        }
    }
    Ok(spans)
}

/// Replaces only the `n`-th occurrence of `from` in `s`.
fn replace_nth(s: &str, from: &str, to: &str, n: usize) -> String {
    match s.match_indices(from).nth(n) {
        Some((at, _)) => format!("{}{to}{}", &s[..at], &s[at + from.len()..]),
        None => s.to_string(),
    }
}

/// Differential check of the single-pass trace audits against the DOM
/// parser: on the traced shared-prefix export and on mutated copies of it
/// (truncations, swapped b/e phases, duplicate keys, non-object events,
/// escaped names), `validate_json` accepts exactly what `parse_json`
/// accepts, and `spans_nest` counts the same spans as the DOM oracle or
/// fails where it fails.
#[test]
fn streaming_trace_checks_match_the_dom_oracle() {
    let trace = shared_prefix_trace();
    let cfg = ServeConfig::new(16)
        .with_chunk_mode(ChunkMode::chunked())
        .with_prefix_cache(PrefixCacheConfig::default())
        .with_tracing(1 << 20);
    let report = ServeEngine::new(hilos(8, 1), cfg).unwrap().run_trace(&trace).unwrap();
    let doc = perfetto_json(&[&report.events]);

    let mut variants: Vec<String> = vec![doc.clone()];
    // Truncations: every byte of the head, then every k-th byte.
    let cuts = (0..512).chain((512..doc.len()).step_by(4093));
    variants.extend(cuts.filter(|&c| doc.is_char_boundary(c)).map(|c| doc[..c].to_string()));
    // Swapped phases: all of them, or one.
    let swapped =
        doc.replace("\"ph\": \"b\"", "\"ph\": \"x\"").replace("\"ph\": \"e\"", "\"ph\": \"b\"");
    variants.push(swapped.replace("\"ph\": \"x\"", "\"ph\": \"e\""));
    for n in [0, 1, 7, 500] {
        variants.push(replace_nth(&doc, "\"ph\": \"b\"", "\"ph\": \"e\"", n));
        variants.push(replace_nth(&doc, "\"ph\": \"e\"", "\"ph\": \"b\"", n));
    }
    // Duplicate keys: the first occurrence wins.
    for n in [0, 3, 400] {
        variants.push(replace_nth(&doc, "\"ph\": \"b\"", "\"ph\": \"b\", \"ph\": \"e\"", n));
        variants.push(replace_nth(&doc, "\"ph\": \"e\"", "\"ph\": \"i\", \"ph\": \"e\"", n));
        variants.push(replace_nth(&doc, "\"ts\": ", "\"ts\": 0, \"ts\": ", n));
    }
    variants.push(doc.replacen("{", "{\"traceEvents\": 1, ", 1));
    variants.push(doc.replacen("{", "{\"traceEvents\": [], ", 1));
    variants.push(format!("{}, \"traceEvents\": 2}}\n", doc.trim_end().trim_end_matches('}')));
    // Non-object events, at the head and mid-array.
    for junk in ["3", "null", "[]", "\"x\"", "{}", "[{\"ph\": \"b\"}]"] {
        variants.push(doc.replacen(
            "\"traceEvents\": [\n",
            &format!("\"traceEvents\": [\n{junk},\n"),
            1,
        ));
        variants.push(replace_nth(&doc, "},\n{", &format!("}},\n{junk},\n{{"), 900));
    }
    // Escaped names: decoded equal, decoded different, and a bad escape.
    for (from, to) in [
        ("\"name\": \"decode\"", "\"name\": \"\\u0064ecode\""),
        ("\"name\": \"decode\"", "\"name\": \"d\\u00e9code\""),
        ("\"name\": \"prefill\"", "\"name\": \"pre\\\\fill\""),
        ("\"name\": \"prefill\"", "\"name\": \"\\u+070refill\""),
        ("\"name\": \"request", "\"name\": \"r\\u00e9quest"),
    ] {
        variants.push(doc.replace(from, to));
        variants.push(replace_nth(&doc, from, to, 2));
    }

    let unchanged = variants[1..].iter().position(|v| *v == doc);
    assert_eq!(unchanged, None, "a mutation left the export unchanged");
    let mut agreed_ok = 0;
    for (i, v) in variants.iter().enumerate() {
        assert_eq!(
            validate_json(v).is_ok(),
            hilos::trace::parse_json(v).is_ok(),
            "variant {i}: validate_json and parse_json disagree"
        );
        match (spans_nest(v), spans_nest_oracle(v)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "variant {i}: span counts differ");
                agreed_ok += 1;
            }
            (Err(_), Err(_)) => {}
            (got, want) => panic!("variant {i}: spans_nest {got:?}, oracle {want:?}"),
        }
    }
    // The unmutated export and the harmless mutations must pass both.
    assert!(agreed_ok >= 4, "only {agreed_ok} variants passed");
    assert!(spans_nest(&doc).unwrap() > report.outcomes.len());
}
