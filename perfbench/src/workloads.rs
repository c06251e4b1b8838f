//! The four benchmark workloads: set-up (input generation and engine
//! construction) and the run phase (the simulation plus the summaries,
//! audits and export a user runs after it), with every correctness check
//! the run phase owes.
//!
//! Every run starts from freshly built engines, so the step/prefill memo
//! and the prefix ladder start empty: users pay that cost on every
//! simulation. All workloads run the library's default thread settings
//! and flow engine.

use crate::spans::Spans;
use crate::timed::{CallStats, TimedPolicy, TimedRouter};
use hilos_accel::{
    attention_kernel, attention_streaming_f16, sparse_topk_attention, AttentionInputs,
    EstimationNoise,
};
use hilos_baselines::{DEFAULT_ESTIMATION_NOISE, DEFAULT_KEEP_FRACTION};
use hilos_core::trace::{
    check_conservation, perfetto_json, spans_nest, validate_json, LatencyAttribution,
};
use hilos_core::{
    outcome_lifecycle_fnv, ChunkMode, ClusterConfig, ClusterEngine, ClusterReport, Fifo,
    HilosConfig, HilosSystem, PrefixCacheConfig, PriorityPreempt, RoundRobin, RoutingPolicy,
    SchedulingPolicy, ServeConfig, ServeEngine, TraceReport,
};
use hilos_llm::{
    presets, Request, RetrievalTask, RetrievalTaskConfig, SharedPrefixConfig, TraceConfig,
};
use hilos_platform::SystemSpec;
use std::hint::black_box;
use std::sync::Arc;

/// Requests in the `azure-1m` trace.
const AZURE_REQUESTS: usize = 1_000_000;
/// SmartSSDs in the `azure-1m` and `prefix-long` deployments.
const SERVE_DEVICES: usize = 8;
/// Deployments in the `fleet-32` cluster.
const FLEET_DEPLOYMENTS: usize = 32;
/// SmartSSDs per `fleet-32` deployment.
const FLEET_DEVICES: usize = 4;
/// Requests in the offline `fleet-32` trace.
const FLEET_REQUESTS: usize = 100_000;
/// Requests in the `prefix-long` trace.
const PREFIX_REQUESTS: usize = 8192;
/// Mean arrival gap (serving steps) of the `prefix-long` trace: every
/// seed runs backlogged, so preemption and whole-queue policy snapshots
/// happen on every seed (at a gap of 20 some seeds stay unloaded).
const PREFIX_ARRIVAL_GAP: u64 = 15;
/// Lifecycle-event ring capacity for `prefix-long`: large enough that
/// nothing is dropped (the ring grows lazily).
const PREFIX_RING: usize = 1 << 24;
/// Context length of the `longbench-attention` retrieval tasks.
pub const LONGBENCH_CONTEXT: usize = 32 * 1024;
/// Retrieval tasks (queries) per `longbench-attention` run.
const LONGBENCH_TASKS: u64 = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 1M-request Azure mix on one 8-SmartSSD deployment, FIFO.
    Azure1m,
    /// 32 four-device deployments serving an offline Azure trace.
    Fleet32,
    /// Long-context shared-prefix sessions with preemption and tracing.
    PrefixLong,
    /// The Fig. 18c retrieval comparison at 32K context.
    LongbenchAttention,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] =
        [Workload::Azure1m, Workload::Fleet32, Workload::PrefixLong, Workload::LongbenchAttention];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Azure1m => "azure-1m",
            Workload::Fleet32 => "fleet-32",
            Workload::PrefixLong => "prefix-long",
            Workload::LongbenchAttention => "longbench-attention",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the serving stack (and so the step
    /// executor the layer grid times).
    pub fn serves(self) -> bool {
        self != Workload::LongbenchAttention
    }

    /// Generates the inputs from `seed` and builds the engines. With
    /// `probes`, every policy is wrapped in a timing forwarder.
    pub fn setup(
        self,
        seed: u64,
        probes: Option<&Probes>,
        spans: &mut Spans,
    ) -> Result<Prepared, String> {
        match self {
            Workload::Azure1m => {
                let trace = spans.time("llm.generate", || {
                    TraceConfig::azure_mix(AZURE_REQUESTS, seed).generate()
                });
                let trace = trace.map_err(|e| format!("trace generation: {e:?}"))?;
                let engine = spans.time("build", || {
                    serve_engine(
                        SERVE_DEVICES,
                        ServeConfig::new(32),
                        wrap_policy(Box::new(Fifo), probes),
                    )
                })?;
                Ok(Prepared::Serve { trace, engine: Box::new(engine), lifecycle: false })
            }
            Workload::Fleet32 => {
                let trace = spans.time("llm.generate", || {
                    TraceConfig {
                        mean_interarrival_steps: 0,
                        ..TraceConfig::azure_mix(FLEET_REQUESTS, seed)
                    }
                    .generate()
                });
                let trace = trace.map_err(|e| format!("trace generation: {e:?}"))?;
                let cluster = spans.time("build", || {
                    let deployments = (0..FLEET_DEPLOYMENTS)
                        .map(|_| {
                            serve_engine(
                                FLEET_DEVICES,
                                ServeConfig::new(32),
                                wrap_policy(Box::new(Fifo), probes),
                            )
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let routing: Box<dyn RoutingPolicy> = match probes {
                        Some(p) => Box::new(TimedRouter::new(
                            Box::new(RoundRobin::new()),
                            Arc::clone(&p.route),
                        )),
                        None => Box::new(RoundRobin::new()),
                    };
                    Ok::<_, String>(ClusterEngine::with_config(
                        deployments,
                        routing,
                        ClusterConfig::default(),
                    ))
                })?;
                Ok(Prepared::Fleet { trace, cluster })
            }
            Workload::PrefixLong => {
                let shared = SharedPrefixConfig {
                    system_prompt_tokens: 8192,
                    follow_up_fraction: 0.6,
                    follow_up_tokens: 256,
                    max_turns: 8,
                };
                let trace = spans.time("llm.generate", || {
                    TraceConfig::long_context(PREFIX_REQUESTS, seed, 8)
                        .with_mean_interarrival(PREFIX_ARRIVAL_GAP)
                        .with_shared_prefix(shared)
                        .generate()
                });
                let trace = trace.map_err(|e| format!("trace generation: {e:?}"))?;
                let config = ServeConfig::new(16)
                    .with_chunk_mode(ChunkMode::chunked())
                    .with_prefix_cache(PrefixCacheConfig::default())
                    .with_tracing(PREFIX_RING);
                let engine = spans.time("build", || {
                    serve_engine(
                        SERVE_DEVICES,
                        config,
                        wrap_policy(Box::new(PriorityPreempt::new()), probes),
                    )
                })?;
                Ok(Prepared::Serve { trace, engine: Box::new(engine), lifecycle: true })
            }
            Workload::LongbenchAttention => {
                let tasks = spans.time("accel.taskgen", || {
                    (0..LONGBENCH_TASKS)
                        .map(|i| {
                            let task_seed = seed.wrapping_mul(1 << 20).wrapping_add(i);
                            let cfg =
                                RetrievalTaskConfig::longbench_like(LONGBENCH_CONTEXT, task_seed);
                            (task_seed, RetrievalTask::generate(&cfg))
                        })
                        .collect()
                });
                Ok(Prepared::Attention { tasks })
            }
        }
    }
}

/// Counters the timing wrappers of a traced run write into.
#[derive(Debug, Default)]
pub struct Probes {
    /// Every deployment's `SchedulingPolicy::schedule`.
    pub policy: Arc<CallStats>,
    /// The cluster's `RoutingPolicy::route`.
    pub route: Arc<CallStats>,
}

fn wrap_policy(
    inner: Box<dyn SchedulingPolicy>,
    probes: Option<&Probes>,
) -> Box<dyn SchedulingPolicy> {
    match probes {
        Some(p) => Box::new(TimedPolicy::new(inner, Arc::clone(&p.policy))),
        None => inner,
    }
}

/// The HILOS system every serving workload deploys: OPT-30B on `devices`
/// SmartSSDs behind one A100, simulated at one layer.
pub fn hilos_system(devices: usize) -> Result<HilosSystem, String> {
    HilosSystem::new(
        &SystemSpec::a100_smartssd(devices),
        &presets::opt_30b(),
        &HilosConfig::new(devices),
    )
    .map(|s| s.with_sim_layers(1))
    .map_err(|e| format!("system build: {e}"))
}

fn serve_engine(
    devices: usize,
    config: ServeConfig,
    policy: Box<dyn SchedulingPolicy>,
) -> Result<ServeEngine, String> {
    ServeEngine::with_policy(hilos_system(devices)?, config, policy)
        .map_err(|e| format!("engine build: {e}"))
}

/// A workload ready to run.
pub enum Prepared {
    /// One serving deployment and its trace.
    Serve {
        /// The request trace.
        trace: Vec<Request>,
        /// The deployment.
        engine: Box<ServeEngine>,
        /// Whether lifecycle tracing is on (and so audited).
        lifecycle: bool,
    },
    /// A fixed fleet and its trace.
    Fleet {
        /// The request trace.
        trace: Vec<Request>,
        /// The fleet.
        cluster: ClusterEngine,
    },
    /// Generated retrieval tasks, each with its seed.
    Attention {
        /// `(task seed, task)` pairs.
        tasks: Vec<(u64, RetrievalTask)>,
    },
}

/// What a run reports, compared whole between the traced and untraced
/// runs of one seed.
#[derive(Debug, PartialEq)]
pub enum Report {
    /// A single deployment's report.
    Serve(Box<TraceReport>),
    /// A fleet's report.
    Fleet(ClusterReport),
    /// Per-task `(flash, hilos, sparse)` F1 bit patterns.
    Attention(Vec<[u64; 3]>),
    /// The run failed before producing a report.
    None,
}

/// Simulated outputs of the model: a speed-up of the simulator must leave
/// them bit-identical. They are fingerprints, not validated against
/// hardware.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelOutputs {
    /// FNV-1a over the outcomes (see [`outcome_lifecycle_fnv`]).
    pub outcome_fnv: u64,
    /// Simulated generated tokens per simulated second.
    pub sim_tokens_per_s: f64,
    /// Simulated TTFT median, seconds.
    pub sim_ttft_p50_s: f64,
    /// Simulated TTFT p99, seconds.
    pub sim_ttft_p99_s: f64,
    /// Mean F1 of the HILOS kernel path.
    pub f1_hilos: f64,
    /// Mean F1 of flash-streaming attention.
    pub f1_flash: f64,
}

/// The result of one run phase.
#[derive(Debug)]
pub struct RunOutput {
    /// Requests (retrieval queries for `longbench-attention`) attempted.
    pub attempted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// The whole report, for the traced/untraced comparison.
    pub report: Report,
    /// Model outputs.
    pub model: ModelOutputs,
    /// Per-layer counts read off the report, by metric name.
    pub counters: Vec<(&'static str, f64)>,
}

impl RunOutput {
    fn error(attempted: u64, failure: String) -> Self {
        RunOutput {
            attempted,
            completed: 0,
            failures: vec![failure],
            report: Report::None,
            model: ModelOutputs::default(),
            counters: Vec::new(),
        }
    }

    /// Requests that did not complete (rejected, shed or lost).
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// The value of a per-layer counter, zero if this workload has none.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
    }
}

impl Prepared {
    /// Runs the simulation, then the summaries, audits and export. The
    /// engines are spent afterwards: their memo tables are warm.
    pub fn run(&mut self, spans: &mut Spans) -> RunOutput {
        match self {
            Prepared::Serve { trace, engine, lifecycle } => {
                run_serve(trace, engine, *lifecycle, spans)
            }
            Prepared::Fleet { trace, cluster } => run_fleet(trace, cluster, spans),
            Prepared::Attention { tasks } => run_attention(tasks, spans),
        }
    }
}

/// Checks that completed, rejected and shed ids partition the trace
/// `0..attempted` with no id twice.
fn audit_partition<'a>(
    attempted: u64,
    ids: impl Iterator<Item = &'a u64>,
    failures: &mut Vec<String>,
) {
    let mut seen = vec![false; attempted as usize];
    let mut count = 0u64;
    for &id in ids {
        count += 1;
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ => {
                failures.push(format!("request id {id} is unknown or terminated twice"));
                return;
            }
        }
    }
    if count != attempted {
        failures.push(format!("{count} terminated requests for {attempted} attempted"));
    }
}

fn prompt_tokens(trace: &[Request]) -> f64 {
    trace.iter().map(|r| r.prompt_len).sum::<u64>() as f64
}

fn serve_counters(r: &TraceReport) -> Vec<(&'static str, f64)> {
    vec![
        ("serve.steps", r.steps as f64),
        ("serve.joins", r.joins as f64),
        ("serve.preemptions", r.preemptions as f64),
        ("serve.alpha_recomputes", r.alpha_recomputes as f64),
        ("step.operating_points", r.step_cache_entries as f64),
        ("prefix.hit_rate", r.prefix.hit_rate()),
        ("prefix.saved_prefill_tokens", r.prefix.saved_prefill_tokens as f64),
        ("prefix.demoted_bytes", r.prefix.demoted_bytes() as f64),
        ("prefix.recalled_bytes", r.prefix.recalled_bytes() as f64),
        ("ledger.placed_bytes", r.kv_placed_bytes.iter().sum()),
        ("trace.events", r.events.len() as f64),
        ("trace.dropped", r.events_dropped as f64),
    ]
}

fn run_serve(
    trace: &[Request],
    engine: &mut ServeEngine,
    lifecycle: bool,
    spans: &mut Spans,
) -> RunOutput {
    let attempted = trace.len() as u64;
    let report = match spans.time("serve.run_trace", || engine.run_trace(trace)) {
        Ok(r) => r,
        Err(e) => return RunOutput::error(attempted, format!("run_trace: {e}")),
    };
    let (ttft, fnv) = spans.time("metrics.summarize", || {
        black_box((report.e2e_stats(), report.class_breakdown()));
        (report.ttft_stats(), outcome_lifecycle_fnv(&report.outcomes))
    });
    let mut failures = Vec::new();
    spans.time("audit", || {
        let ids = report.outcomes.iter().map(|o| &o.id);
        let ids = ids.chain(&report.rejected).chain(report.shed.iter().map(|s| &s.id));
        audit_partition(attempted, ids, &mut failures);
    });
    let mut counters = serve_counters(&report);
    counters.push(("llm.prompt_tokens", prompt_tokens(trace)));
    if lifecycle {
        let export_bytes = audit_lifecycle(&report, spans, &mut failures);
        counters.push(("trace.export_bytes", export_bytes as f64));
    }
    RunOutput {
        attempted,
        completed: report.outcomes.len() as u64,
        failures,
        model: ModelOutputs {
            outcome_fnv: fnv,
            sim_tokens_per_s: report.tokens_per_second(),
            sim_ttft_p50_s: ttft.p50,
            sim_ttft_p99_s: ttft.p99,
            ..ModelOutputs::default()
        },
        report: Report::Serve(Box::new(report)),
        counters,
    }
}

/// The lifecycle-trace audits: no event dropped, every request conserved,
/// attribution exact, and a Perfetto export that parses with nested
/// spans. Returns the export's size in bytes.
fn audit_lifecycle(report: &TraceReport, spans: &mut Spans, failures: &mut Vec<String>) -> usize {
    if report.events_dropped != 0 {
        failures.push(format!("{} lifecycle events dropped", report.events_dropped));
    }
    let rings = [report.events.as_slice()];
    let conservation = spans.time("trace.conservation", || check_conservation(&rings));
    if !conservation.holds() {
        failures.push(format!(
            "event conservation violated: {} unterminated, {} violations",
            conservation.unterminated.len(),
            conservation.violations.len()
        ));
    }
    let attribution = spans.time("trace.attribution", || LatencyAttribution::analyze(&rings));
    if attribution.rows.len() != report.outcomes.len() {
        failures.push(format!(
            "{} attribution rows for {} completions",
            attribution.rows.len(),
            report.outcomes.len()
        ));
    }
    if let Some(row) = attribution.rows.iter().find(|r| r.components_sum() != r.e2e_s) {
        failures.push(format!("attribution of request {} does not sum to its e2e", row.id));
    }
    let doc = spans.time("trace.export", || perfetto_json(&rings));
    if let Err(e) =
        spans.time("trace.validate", || validate_json(&doc).and_then(|()| spans_nest(&doc)))
    {
        failures.push(format!("Perfetto export rejected: {e}"));
    }
    doc.len()
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn run_fleet(trace: &[Request], cluster: &mut ClusterEngine, spans: &mut Spans) -> RunOutput {
    let attempted = trace.len() as u64;
    let report = match spans.time("cluster.run_trace", || cluster.run_trace(trace)) {
        Ok(r) => r,
        Err(e) => return RunOutput::error(attempted, format!("cluster run_trace: {e}")),
    };
    let (ttft, fnv) = spans.time("metrics.summarize", || {
        black_box((report.e2e_stats(), report.class_breakdown()));
        let per_deployment = report.deployments.iter().map(|d| outcome_lifecycle_fnv(&d.outcomes));
        (report.ttft_stats(), fnv1a(per_deployment))
    });
    let mut failures = Vec::new();
    spans.time("audit", || {
        let ids = report.deployments.iter().flat_map(|d| {
            let done = d.outcomes.iter().map(|o| &o.id);
            done.chain(&d.rejected).chain(d.shed.iter().map(|s| &s.id))
        });
        audit_partition(attempted, ids, &mut failures);
    });
    if report.completed() as u64 != attempted {
        failures.push(format!("{} of {attempted} fleet requests completed", report.completed()));
    }
    if report.misrouted != 0 {
        failures.push(format!("{} requests misrouted", report.misrouted));
    }
    let sum = |f: fn(&TraceReport) -> u64| report.deployments.iter().map(f).sum::<u64>() as f64;
    let counters = vec![
        ("llm.prompt_tokens", prompt_tokens(trace)),
        ("serve.steps", sum(|d| d.steps)),
        ("serve.joins", sum(|d| d.joins)),
        ("serve.preemptions", sum(|d| d.preemptions)),
        ("serve.alpha_recomputes", sum(|d| d.alpha_recomputes)),
        // Shared warm-start reports the shared union on every twin.
        (
            "step.operating_points",
            report.deployments.iter().map(|d| d.step_cache_entries).max().unwrap_or(0) as f64,
        ),
        ("ledger.placed_bytes", report.deployments.iter().flat_map(|d| &d.kv_placed_bytes).sum()),
        ("cluster.redispatches", report.redispatches as f64),
        ("cluster.misrouted", report.misrouted as f64),
    ];
    RunOutput {
        attempted,
        completed: report.completed() as u64,
        failures,
        model: ModelOutputs {
            outcome_fnv: fnv,
            sim_tokens_per_s: report.tokens_per_second(),
            sim_ttft_p50_s: ttft.p50,
            sim_ttft_p99_s: ttft.p99,
            ..ModelOutputs::default()
        },
        report: Report::Fleet(report),
        counters,
    }
}

/// The per-task pipeline of `hilos_baselines::accuracy_comparison`, one
/// layer call at a time: flash-streaming, the HILOS kernel and the
/// InstAttention sparse top-k on each task, decoded and scored.
pub fn run_attention(tasks: &[(u64, RetrievalTask)], spans: &mut Spans) -> RunOutput {
    let attempted = tasks.len() as u64;
    let mut f1s = Vec::with_capacity(tasks.len());
    let mut failures = Vec::new();
    for (seed, task) in tasks {
        let inputs = AttentionInputs {
            queries: &task.queries,
            keys: &task.keys,
            values: &task.values,
            valid: None,
            scale: task.scale,
            host_tail: None,
        };
        let flash = spans.time("accel.flash", || {
            attention_streaming_f16(&task.queries, &task.keys, &task.values, None, task.scale)
        });
        let hilos = spans.time("accel.kernel", || attention_kernel(&inputs));
        let noise = EstimationNoise {
            amplitude: DEFAULT_ESTIMATION_NOISE,
            seed: seed.wrapping_mul(7).wrapping_add(1),
        };
        let sparse = spans.time("accel.sparse", || {
            sparse_topk_attention(&inputs, DEFAULT_KEEP_FRACTION, Some(noise))
        });
        let (hilos, sparse) = match (hilos, sparse) {
            (Ok(h), Ok(s)) => (h, s),
            (Err(e), _) | (_, Err(e)) => {
                return RunOutput::error(attempted, format!("kernel: {e:?}"))
            }
        };
        let f1 = spans.time("accel.decode", || {
            [
                task.f1(&task.decode(&flash)),
                task.f1(&task.decode(&hilos)),
                task.f1(&task.decode(&sparse)),
            ]
        });
        if f1[1] != f1[0] {
            failures
                .push(format!("task {seed}: HILOS F1 {} differs from flash F1 {}", f1[1], f1[0]));
        }
        f1s.push(f1);
    }
    let n = f1s.len().max(1) as f64;
    let mean = |k: usize| f1s.iter().map(|f| f[k]).sum::<f64>() / n;
    let bits: Vec<[u64; 3]> = f1s.iter().map(|f| f.map(f64::to_bits)).collect();
    RunOutput {
        attempted,
        completed: attempted,
        failures,
        model: ModelOutputs {
            outcome_fnv: fnv1a(bits.iter().flatten().copied()),
            f1_flash: mean(0),
            f1_hilos: mean(1),
            ..ModelOutputs::default()
        },
        report: Report::Attention(bits),
        counters: vec![("llm.prompt_tokens", (tasks.len() * LONGBENCH_CONTEXT) as f64)],
    }
}
