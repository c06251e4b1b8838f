//! Layer probes the traced run adds beside the workload itself.

use crate::spans::Spans;
use crate::workloads::{hilos_system, run_attention, Report, LONGBENCH_CONTEXT};
use hilos_baselines::{accuracy_comparison, DEFAULT_KEEP_FRACTION};
use hilos_core::{DecodeStepExecutor, SpillDecision};
use hilos_llm::{RetrievalTask, RetrievalTaskConfig};
use std::hint::black_box;

/// Batch sizes of the step-executor grid.
const GRID_BATCHES: [u32; 3] = [1, 8, 32];
/// Contexts (tokens) of the step-executor grid.
const GRID_CONTEXTS: [u64; 4] = [1024, 4096, 16_384, 65_536];
/// X-cache ratios α of the step-executor grid.
const GRID_ALPHAS: [f64; 2] = [0.0, 0.5];
/// Passes over the grid.
const GRID_PASSES: usize = 3;

/// Mean microseconds per `execute_step` and per `execute_prefill` call
/// over a fixed (batch, context, α) grid on a fresh 8-SmartSSD executor.
/// Both calls build a task graph and run it on the `hilos-sim` flow
/// engine: this is what a step-memo miss costs the serving loop.
pub fn step_grid(spans: &mut Spans) -> Result<(f64, f64), String> {
    let system = hilos_system(8)?;
    let mut exec = DecodeStepExecutor::new(&system).map_err(|e| format!("executor: {e}"))?;
    let none = SpillDecision { buffered_tokens: 0, spill_now: false, spill_tokens: 0 };
    let mut calls = 0u32;
    for _ in 0..GRID_PASSES {
        for &batch in &GRID_BATCHES {
            for &context in &GRID_CONTEXTS {
                for &alpha in &GRID_ALPHAS {
                    spans.enter("step.execute_step");
                    let step = exec.execute_step(batch, context, alpha, &none);
                    spans.exit();
                    spans.enter("step.execute_prefill");
                    let prefill = exec.execute_prefill(1, context, alpha);
                    spans.exit();
                    black_box(step.map_err(|e| format!("execute_step: {e}"))?);
                    black_box(prefill.map_err(|e| format!("execute_prefill: {e}"))?);
                    calls += 1;
                }
            }
        }
    }
    let per_call_us = |name| spans.total_s(name) / f64::from(calls) * 1e6;
    Ok((per_call_us("step.execute_step"), per_call_us("step.execute_prefill")))
}

/// Tasks of the faithfulness check.
const MIRROR_TASKS: u64 = 2;

/// Checks that the benchmark's per-task attention pipeline reproduces
/// `hilos_baselines::accuracy_comparison` bit for bit on the library's
/// own task seeds `0..MIRROR_TASKS`.
pub fn attention_mirror_matches() -> Result<(), String> {
    let tasks: Vec<(u64, RetrievalTask)> = (0..MIRROR_TASKS)
        .map(|s| {
            (s, RetrievalTask::generate(&RetrievalTaskConfig::longbench_like(LONGBENCH_CONTEXT, s)))
        })
        .collect();
    let mirror = run_attention(&tasks, &mut Spans::disabled());
    let library = accuracy_comparison(LONGBENCH_CONTEXT, MIRROR_TASKS, DEFAULT_KEEP_FRACTION)
        .map_err(|e| format!("accuracy_comparison: {e:?}"))?;
    let Report::Attention(bits) = &mirror.report else {
        return Err(format!("mirror failed: {:?}", mirror.failures));
    };
    let n = MIRROR_TASKS as f64;
    let mean = |k: usize| bits.iter().map(|b| f64::from_bits(b[k])).sum::<f64>() / n;
    let same = mean(0).to_bits() == library.flash_f1.to_bits()
        && mean(1).to_bits() == library.hilos_f1.to_bits()
        && mean(2).to_bits() == library.instattention_f1.to_bits();
    if same {
        Ok(())
    } else {
        Err(format!(
            "per-task pipeline ({}, {}, {}) differs from accuracy_comparison {library:?}",
            mean(0),
            mean(1),
            mean(2)
        ))
    }
}
