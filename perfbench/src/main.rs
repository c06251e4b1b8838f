//! `perfbench` — host wall-time benchmark of the HILOS simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--spans-out <path>] [--provenance <text>]
//! ```
//!
//! With `--trace 0` the workload is set up and run repeatedly from fresh
//! engines for `--seconds` seconds, with no timing inside the run:
//! `requests_per_s` is completed requests over the summed run-phase time,
//! `setup_s` the median set-up, `peak_rss_mb` the process's peak. With
//! `--trace 1` one untraced and one traced run are made: the traced run
//! wraps the scheduling and routing policies in timing forwarders and
//! records a span around each call into a layer; the per-layer metrics
//! come from it, and its spans are written to `--spans-out` as Chrome
//! trace-event JSON. Either way the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and
//! the exit code is non-zero if any correctness check failed.

mod layers;
mod spans;
mod timed;
mod workloads;

use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{ModelOutputs, Prepared, Probes, Workload};

/// Fewest run phases in an end-to-end run.
const MIN_RUNS: usize = 3;
/// Fewest set-ups behind the `setup_s` median.
const MIN_SETUPS: usize = 5;
/// Extra set-ups are made until set-ups took this share of the run's wall
/// time (or [`MAX_SETUPS`] were made), so that a set-up of a millisecond
/// still gets a steady median.
const SETUP_SHARE: f64 = 0.05;
/// Most set-ups behind the `setup_s` median.
const MAX_SETUPS: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
    provenance: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut provenance = String::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            "--provenance" => provenance = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
        provenance,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// A benchmark run in the output contract's terms.
struct Summary {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or zero when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Whether two runs' model outputs are bit-identical.
fn same_model(a: &ModelOutputs, b: &ModelOutputs) -> bool {
    let bits = |m: &ModelOutputs| {
        [
            m.outcome_fnv,
            m.sim_tokens_per_s.to_bits(),
            m.sim_ttft_p50_s.to_bits(),
            m.sim_ttft_p99_s.to_bits(),
            m.f1_hilos.to_bits(),
            m.f1_flash.to_bits(),
        ]
    };
    bits(a) == bits(b)
}

/// The end-to-end run: repeated set-ups and run phases from fresh
/// engines, no wrappers, no spans.
fn untraced(args: &Args) -> Result<Summary, String> {
    let start = Instant::now();
    let mut off = Spans::disabled();
    let mut setups = Vec::new();
    let timed_setup = |setups: &mut Vec<f64>| -> Result<Prepared, String> {
        let t = Instant::now();
        let prepared = args.workload.setup(args.seed, None, &mut Spans::disabled());
        setups.push(t.elapsed().as_secs_f64());
        prepared
    };
    let (mut rates, mut run_s) = (Vec::new(), 0.0);
    let (mut attempted, mut failed) = (0, 0);
    let mut failures = Vec::new();
    let mut first: Option<ModelOutputs> = None;
    // Stop at the run phase whose end lies nearest the deadline, so that a
    // run lasts `--seconds` give or take half a run phase.
    let more = |runs: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        runs < MIN_RUNS || elapsed + elapsed / runs as f64 / 2.0 < args.seconds
    };
    while more(rates.len()) {
        let mut prepared = timed_setup(&mut setups)?;
        let t = Instant::now();
        let out = prepared.run(&mut off);
        let elapsed = t.elapsed().as_secs_f64();
        run_s += elapsed;
        rates.push(out.attempted as f64 / elapsed);
        drop(prepared);
        attempted += out.attempted;
        failed += out.failed();
        failures.extend(out.failures.iter().cloned());
        match &first {
            None => first = Some(out.model),
            Some(m) if !same_model(m, &out.model) => {
                failures.push("one seed gave two different model outputs".into());
            }
            Some(_) => {}
        }
        drop(out);
        // Extra set-ups, spread over the run so that one quiet or busy
        // moment of the machine does not decide the median.
        loop {
            let budget = SETUP_SHARE * start.elapsed().as_secs_f64();
            if setups.len() >= MAX_SETUPS || setups.iter().sum::<f64>() >= budget {
                break;
            }
            timed_setup(&mut setups)?;
        }
    }
    while setups.len() < MIN_SETUPS {
        timed_setup(&mut setups)?;
    }
    println!("run-phase requests/s of each of {} runs: {rates:.1?}", rates.len());
    println!("run phases took {run_s:.3} s; set-ups made: {}", setups.len());
    Ok(Summary {
        attempted,
        failed,
        failures,
        metrics: vec![
            metric("requests_per_s", "1/s", (attempted - failed) as f64 / run_s),
            metric("setup_s", "s", median(&mut setups)),
            metric("peak_rss_mb", "MB", peak_rss_mb()?),
        ],
    })
}

/// One set-up and run phase with no wrappers and no spans; returns the
/// output and the run phase's wall seconds.
fn plain_run(args: &Args) -> Result<(workloads::RunOutput, f64), String> {
    let mut off = Spans::disabled();
    let mut prepared = args.workload.setup(args.seed, None, &mut off)?;
    let t = Instant::now();
    let out = prepared.run(&mut off);
    Ok((out, t.elapsed().as_secs_f64()))
}

/// The per-layer run: an untraced reference run (which also warms the
/// process up), the same seed traced and compared whole with it, a second
/// untraced run to time the tracing overhead against, then the layer
/// probes.
fn traced(args: &Args) -> Result<Summary, String> {
    let w = args.workload;
    let (base, _) = plain_run(args)?;

    let probes = Probes::default();
    let mut spans = Spans::recording();
    spans.enter("setup");
    let prepared = w.setup(args.seed, Some(&probes), &mut spans);
    spans.exit();
    let mut prepared = prepared?;
    spans.enter("run");
    let t = Instant::now();
    let out = prepared.run(&mut spans);
    let traced_s = t.elapsed().as_secs_f64();
    spans.exit();
    drop(prepared);

    let mut failures = base.failures.clone();
    failures.extend(out.failures.iter().cloned());
    if out.report != base.report || !same_model(&out.model, &base.model) {
        failures.push("the traced run's report differs from the untraced run's".into());
    }
    drop(base);
    let (_, untraced_s) = plain_run(args)?;

    let (step_us, prefill_us) = if w.serves() {
        spans.enter("layers.step_grid");
        let grid = layers::step_grid(&mut spans);
        spans.exit();
        grid?
    } else {
        (0.0, 0.0)
    };
    if w == Workload::LongbenchAttention {
        if let Err(e) = spans.time("layers.accuracy_mirror", layers::attention_mirror_matches) {
            failures.push(e);
        }
    }

    let c = |name| out.counter(name);
    let steps = c("serve.steps");
    let serve_run_s = spans.total_s("serve.run_trace");
    let cluster_run_s = spans.total_s("cluster.run_trace");
    let attention_tokens = if w.serves() { 0.0 } else { c("llm.prompt_tokens") };
    let ns_per_token = |name| ratio(spans.total_s(name) * 1e9, attention_tokens);
    let m = &out.model;
    let metrics = vec![
        metric("llm.generate_s", "s", spans.total_s("llm.generate")),
        metric("llm.prompt_tokens", "count", c("llm.prompt_tokens")),
        metric("build.s", "s", spans.total_s("build")),
        metric("serve.run_s", "s", serve_run_s),
        metric("serve.steps", "count", steps),
        metric("serve.ns_per_step", "ns", ratio(serve_run_s * 1e9, steps)),
        metric("serve.joins", "count", c("serve.joins")),
        metric("serve.preemptions", "count", c("serve.preemptions")),
        metric("serve.alpha_recomputes", "count", c("serve.alpha_recomputes")),
        metric("step.operating_points", "count", c("step.operating_points")),
        metric(
            "step.memo_hit_rate",
            "ratio",
            ratio(steps - c("step.operating_points"), steps).max(0.0),
        ),
        metric("step.execute_step_us", "us", step_us),
        metric("step.execute_prefill_us", "us", prefill_us),
        metric("policy.calls", "count", probes.policy.calls() as f64),
        metric("policy.s", "s", probes.policy.seconds()),
        metric("policy.queue_views_mean", "count", probes.policy.items_mean()),
        metric("prefix.hit_rate", "ratio", c("prefix.hit_rate")),
        metric("prefix.saved_prefill_tokens", "count", c("prefix.saved_prefill_tokens")),
        metric("prefix.demoted_bytes", "bytes", c("prefix.demoted_bytes")),
        metric("prefix.recalled_bytes", "bytes", c("prefix.recalled_bytes")),
        metric("ledger.placed_bytes", "bytes", c("ledger.placed_bytes")),
        metric("cluster.run_s", "s", cluster_run_s),
        metric("cluster.ns_per_deployment_step", "ns", ratio(cluster_run_s * 1e9, steps)),
        metric("cluster.route_calls", "count", probes.route.calls() as f64),
        metric("cluster.route_s", "s", probes.route.seconds()),
        metric("cluster.redispatches", "count", c("cluster.redispatches")),
        metric("cluster.misrouted", "count", c("cluster.misrouted")),
        metric("trace.events", "count", c("trace.events")),
        metric("trace.dropped", "count", c("trace.dropped")),
        metric("trace.conservation_s", "s", spans.total_s("trace.conservation")),
        metric("trace.attribution_s", "s", spans.total_s("trace.attribution")),
        metric("trace.export_s", "s", spans.total_s("trace.export")),
        metric("trace.validate_s", "s", spans.total_s("trace.validate")),
        metric("trace.export_bytes", "bytes", c("trace.export_bytes")),
        metric("metrics.summarize_s", "s", spans.total_s("metrics.summarize")),
        metric("accel.taskgen_s", "s", spans.total_s("accel.taskgen")),
        metric("accel.kernel_ns_per_token", "ns", ns_per_token("accel.kernel")),
        metric("accel.flash_ns_per_token", "ns", ns_per_token("accel.flash")),
        metric("accel.sparse_ns_per_token", "ns", ns_per_token("accel.sparse")),
        // The low 53 bits, so the fingerprint survives a JSON double.
        metric("model.outcome_fnv", "hash", (m.outcome_fnv & ((1 << 53) - 1)) as f64),
        metric("model.sim_tokens_per_s", "tok/s", m.sim_tokens_per_s),
        metric("model.sim_ttft_p50_s", "s", m.sim_ttft_p50_s),
        metric("model.sim_ttft_p99_s", "s", m.sim_ttft_p99_s),
        metric("model.f1_hilos", "ratio", m.f1_hilos),
        metric("model.f1_flash", "ratio", m.f1_flash),
        metric("bench.trace_overhead", "ratio", traced_s / untraced_s),
    ];
    println!("model.outcome_fnv (full) = {:#018x}", m.outcome_fnv);

    if let Some(path) = &args.spans_out {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = spans.chrome_json(&[
            ("workload", w.name().to_string()),
            ("seed", args.seed.to_string()),
            ("provenance", args.provenance.clone()),
            ("logical_cores", cores.to_string()),
            ("untraced_run_s", untraced_s.to_string()),
            ("traced_run_s", traced_s.to_string()),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(Summary { attempted: out.attempted, failed: out.failed(), failures, metrics })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = if args.trace { traced(&args) } else { untraced(&args) };
    let mut summary = match summary {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    if let Some(m) = summary.metrics.iter().find(|m| !m.value.is_finite()) {
        summary.failures.push(format!("{} is not finite", m.name));
    }
    for f in &summary.failures {
        eprintln!("check failed: {f}");
    }
    // A failed correctness check fails every request of the run.
    let correct = summary.failures.is_empty();
    let failed = if correct { summary.failed } else { summary.attempted };
    for m in &summary.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("failed_fraction = {} ratio", ratio(failed as f64, summary.attempted as f64));
    let metrics: Vec<String> = summary
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        summary.attempted,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
