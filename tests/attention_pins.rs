//! Output pins of the three attention paths of the Fig. 18c experiment.
//!
//! Each case FNV-hashes the exact output bits of the HILOS kernel (two-pass
//! and fused), FlashAttention-style streaming over FP16 and InstAttention
//! top-k retrieval (with and without estimation noise). The constants were
//! captured from the straightforward tile-serial implementations; any
//! change to evaluation order, decode or top-k selection that moves a single
//! bit fails here, which F1 (a handful of decoded answers) is too coarse to
//! notice.

use hilos::accel::{
    attention_kernel, attention_kernel_fused, attention_streaming_f16, host_partial_scores,
    sparse_topk_attention, AttentionInputs, EstimationNoise, HostTail, MatrixF16, MatrixF32,
};
use hilos::baselines::{DEFAULT_ESTIMATION_NOISE, DEFAULT_KEEP_FRACTION};
use hilos::llm::{RetrievalTask, RetrievalTaskConfig};

fn fnv(m: &MatrixF32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in m.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hashes of the five pinned calls, in the order kernel, fused, streaming,
/// noisy sparse, noise-free sparse.
fn pin_hashes(inputs: &AttentionInputs<'_>, noise_seed: u64) -> [u64; 5] {
    let noise = EstimationNoise { amplitude: DEFAULT_ESTIMATION_NOISE, seed: noise_seed };
    [
        fnv(&attention_kernel(inputs).unwrap()),
        fnv(&attention_kernel_fused(inputs).unwrap()),
        fnv(&attention_streaming_f16(
            inputs.queries,
            inputs.keys,
            inputs.values,
            inputs.valid,
            inputs.scale,
        )),
        fnv(&sparse_topk_attention(inputs, DEFAULT_KEEP_FRACTION, Some(noise)).unwrap()),
        fnv(&sparse_topk_attention(inputs, DEFAULT_KEEP_FRACTION, None).unwrap()),
    ]
}

fn assert_pins(got: [u64; 5], want: [u64; 5], what: &str) {
    let names = ["kernel", "fused", "streaming_f16", "sparse(noise)", "sparse(None)"];
    for i in 0..5 {
        assert_eq!(
            got[i], want[i],
            "{what}: {} output moved (got {:#018x}, pinned {:#018x}; all: {got:#018x?})",
            names[i], got[i], want[i]
        );
    }
}

#[test]
fn longbench_retrieval_task_outputs_are_pinned() {
    let seed = 1u64 << 20;
    let task = RetrievalTask::generate(&RetrievalTaskConfig::longbench_like(8192, seed));
    let inputs = AttentionInputs {
        queries: &task.queries,
        keys: &task.keys,
        values: &task.values,
        valid: None,
        scale: task.scale,
        host_tail: None,
    };
    let pinned = [
        0x1c62_9e7b_ea99_1061,
        0x1c62_9e7b_ea99_1061,
        0x08bd_18d7_3681_0e53,
        0x73a4_6d6d_fdda_04ce,
        0xd4ef_6df4_31fb_77e2,
    ];
    assert_pins(pin_hashes(&inputs, seed * 7 + 1), pinned, "longbench_like(8192)");
}

fn xorshift_matrix(rows: usize, cols: usize, state: &mut u64) -> MatrixF16 {
    MatrixF32::from_fn(rows, cols, |_, _| {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        ((*state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
    })
    .to_f16()
}

#[test]
fn gqa_multi_tile_masked_host_tail_outputs_are_pinned() {
    // g = 4 queries, d = 160 (two TILE_DIM tiles, the second partial),
    // a padded tail plus interior holes, and a 37-token host tail.
    let (g, s, d, t) = (4, 700, 160, 37);
    let mut state = 0x5eed_u64;
    let q = xorshift_matrix(g, d, &mut state);
    let k = xorshift_matrix(s, d, &mut state);
    let v = xorshift_matrix(s, d, &mut state);
    let k_tail = xorshift_matrix(t, d, &mut state);
    let v_tail = xorshift_matrix(t, d, &mut state);
    let scale = 1.0 / (d as f32).sqrt();
    let tail_scores = host_partial_scores(&q, &k_tail, scale);
    let valid: Vec<bool> = (0..s).map(|j| j < 650 && j % 11 != 4).collect();
    let inputs = AttentionInputs {
        queries: &q,
        keys: &k,
        values: &v,
        valid: Some(&valid),
        scale,
        host_tail: Some(HostTail { scores: &tail_scores, values: &v_tail }),
    };
    let pinned = [
        0xd557_47be_cfa0_3fd3,
        0xd557_47be_cfa0_3fd3,
        0xdfcf_2161_f1af_2e40,
        0x4061_b414_462d_0a82,
        0xea07_6a29_d1e9_d589,
    ];
    assert_pins(pin_hashes(&inputs, 99), pinned, "g=4 d=160 masked + tail");
}
