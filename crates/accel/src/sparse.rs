//! InstAttention-style lossy sparse KV retrieval (§7.1, Fig. 18c).
//!
//! InstAttention meets in-storage resource constraints by retrieving only
//! the top-scoring fraction of the KV cache (default 1/8) per query, using
//! *approximate* score estimation. This module reproduces that scheme so
//! the accuracy experiment can contrast it with HILOS's lossless kernel:
//! exact attention restricted to the estimated top-k tokens, with optional
//! deterministic estimation noise standing in for the quantized score
//! approximation of the real system.

use crate::f16::f16_decode_lut;
use crate::kernel::{
    attention_kernel, dot_rows_into, validate, AttentionInputs, KernelError, BLOCK_TOKENS,
};
use crate::tensor::{MatrixF16, MatrixF32};
use std::cmp::Ordering;

/// Deterministic noise model for the approximate score estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimationNoise {
    /// Standard-deviation-like amplitude added to each estimated score.
    pub amplitude: f32,
    /// Seed of the internal xorshift generator.
    pub seed: u64,
}

fn xorshift(state: &mut u64) -> f32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    // Uniform in [-1, 1).
    ((*state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
}

/// Orders estimates highest first, with NaN below every number — a total
/// order that agrees with `partial_cmp` (so `-0.0` ties `+0.0`) wherever
/// both are numbers.
fn rank(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.partial_cmp(&a).unwrap_or(Ordering::Equal),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// Runs lossy sparse attention: estimates scores, keeps the top
/// `keep_fraction` of tokens (per query group, by the max score across the
/// group), and computes exact attention over the kept subset.
///
/// `keep_fraction` is clamped to `(0, 1]`; at 1.0 this degenerates to the
/// exact kernel. The host tail (if any) is always kept — buffered entries
/// are recent and cheap. Tokens are ranked by estimate, highest first,
/// ties broken by position (earliest first); a NaN estimate (possible
/// only from non-finite keys) ranks below every other.
///
/// # Errors
///
/// Returns [`KernelError::InvalidParameter`] for a NaN `keep_fraction` or
/// a non-finite or negative noise amplitude, and the kernel's
/// [`KernelError`] on shape mismatches or an empty context.
pub fn sparse_topk_attention(
    inputs: &AttentionInputs<'_>,
    keep_fraction: f64,
    noise: Option<EstimationNoise>,
) -> Result<MatrixF32, KernelError> {
    if keep_fraction.is_nan() {
        return Err(KernelError::InvalidParameter { what: "keep_fraction", reason: "is NaN" });
    }
    if let Some(n) = noise {
        if !n.amplitude.is_finite() || n.amplitude < 0.0 {
            return Err(KernelError::InvalidParameter {
                what: "noise.amplitude",
                reason: "must be finite and non-negative",
            });
        }
    }
    let (g, d, s, _) = validate(inputs)?;
    let keep_fraction = keep_fraction.clamp(1e-9, 1.0);
    if s == 0 {
        return attention_kernel(inputs);
    }

    // --- Score estimation (the lossy part) ---
    // Each 128-token block is scored for every query of the group straight
    // from the FP16 key rows (LUT-decoded inside the multiply, eight tokens
    // side by side), as the serial chain `f32`'s `Sum` evaluates. The max
    // over the group and the noise are then applied in token order, so the
    // noise stream is drawn exactly once per unmasked token, in order.
    let lut = f16_decode_lut();
    let mut q_dec = vec![0.0f32; g * d];
    inputs.queries.decode_rows_into(0, g, &mut q_dec);
    let mut dots = vec![0.0f32; g * BLOCK_TOKENS];
    let mut noise_state = noise.map(|n| (n.seed | 1, n.amplitude));
    let mut est = vec![f32::NEG_INFINITY; s];
    let mut block_start = 0;
    while block_start < s {
        let block_len = BLOCK_TOKENS.min(s - block_start);
        let k_rows = &inputs.keys.as_slice()[block_start * d..(block_start + block_len) * d];
        for qi in 0..g {
            let out = &mut dots[qi * BLOCK_TOKENS..][..block_len];
            dot_rows_into(&q_dec[qi * d..(qi + 1) * d], k_rows, lut, usize::MAX, -0.0, out);
        }
        for (j, e) in est[block_start..block_start + block_len].iter_mut().enumerate() {
            if inputs.valid.is_some_and(|v| !v[block_start + j]) {
                continue;
            }
            let mut best = f32::NEG_INFINITY;
            for qi in 0..g {
                best = best.max(dots[qi * BLOCK_TOKENS + j] * inputs.scale);
            }
            if let Some((state, amp)) = noise_state.as_mut() {
                best += xorshift(state) * *amp;
            }
            *e = best;
        }
        block_start += block_len;
    }

    // --- Top-k selection: O(s) partition, then sort only the kept indices ---
    let keep = ((s as f64 * keep_fraction).ceil() as usize).clamp(1, s);
    let mut selected: Vec<usize> = (0..s).collect();
    if keep < s {
        selected.select_nth_unstable_by(keep - 1, |&a, &b| rank(est[a], est[b]).then(a.cmp(&b)));
        selected.truncate(keep);
    }
    selected.sort_unstable();

    // --- Exact attention over the retrieved subset ---
    attend_selected(inputs, &selected)
}

/// Exact attention over the stored tokens `selected` (ascending) plus the
/// whole host tail.
fn attend_selected(
    inputs: &AttentionInputs<'_>,
    selected: &[usize],
) -> Result<MatrixF32, KernelError> {
    let d = inputs.queries.cols();
    let mut k_sel = MatrixF16::zeros(0, d);
    let mut v_sel = MatrixF16::zeros(0, d);
    let mut valid_sel = Vec::with_capacity(selected.len());
    for &j in selected {
        k_sel.push_row(inputs.keys.row(j));
        v_sel.push_row(inputs.values.row(j));
        valid_sel.push(inputs.valid.map(|v| v[j]).unwrap_or(true));
    }
    attention_kernel(&AttentionInputs {
        queries: inputs.queries,
        keys: &k_sel,
        values: &v_sel,
        valid: Some(&valid_sel),
        scale: inputs.scale,
        host_tail: inputs.host_tail,
    })
}

/// Traffic ratio of sparse retrieval: fraction of the stored KV bytes read
/// per decode step (the compression knob InstAttention trades accuracy
/// for).
pub fn sparse_read_fraction(keep_fraction: f64) -> f64 {
    keep_fraction.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(g: usize, s: usize, d: usize, seed: u64) -> (MatrixF16, MatrixF16, MatrixF16) {
        let mut state = seed | 1;
        let mut next = move || xorshift(&mut state);
        let q = MatrixF32::from_fn(g, d, |_, _| next()).to_f16();
        let k = MatrixF32::from_fn(s, d, |_, _| next()).to_f16();
        let v = MatrixF32::from_fn(s, d, |_, _| next()).to_f16();
        (q, k, v)
    }

    #[test]
    fn keep_all_matches_exact() {
        let (q, k, v) = toy(2, 100, 16, 3);
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.25,
            host_tail: None,
        };
        let exact = attention_kernel(&inputs).unwrap();
        let sparse = sparse_topk_attention(&inputs, 1.0, None).unwrap();
        assert!(exact.max_abs_diff(&sparse) < 1e-6);
    }

    #[test]
    fn lossy_retrieval_deviates_from_exact() {
        let (q, k, v) = toy(1, 512, 32, 9);
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.4,
            host_tail: None,
        };
        let exact = attention_kernel(&inputs).unwrap();
        let sparse = sparse_topk_attention(&inputs, 1.0 / 8.0, None).unwrap();
        // With near-uniform scores, dropping 7/8 of the context must move
        // the output measurably.
        assert!(exact.max_abs_diff(&sparse) > 1e-3);
    }

    #[test]
    fn dominant_token_survives_compression() {
        let d = 8;
        let g = 1;
        let s = 256;
        let (q, mut k, v) = toy(g, s, d, 11);
        // Plant a needle aligned with the query at position 77.
        for c in 0..d {
            k.set(77, c, q.at(0, c));
        }
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 4.0, // sharpen: the needle dominates softmax
            host_tail: None,
        };
        let exact = attention_kernel(&inputs).unwrap();
        let sparse = sparse_topk_attention(&inputs, 1.0 / 8.0, None).unwrap();
        assert!(exact.max_abs_diff(&sparse) < 1e-2);
    }

    #[test]
    fn estimation_noise_is_deterministic() {
        let (q, k, v) = toy(1, 256, 16, 13);
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.3,
            host_tail: None,
        };
        let n = EstimationNoise { amplitude: 0.5, seed: 42 };
        let a = sparse_topk_attention(&inputs, 0.125, Some(n)).unwrap();
        let b = sparse_topk_attention(&inputs, 0.125, Some(n)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn masked_tokens_never_selected() {
        let (q, k, v) = toy(1, 64, 8, 17);
        let valid: Vec<bool> = (0..64).map(|j| j < 32).collect();
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: Some(&valid),
            scale: 0.3,
            host_tail: None,
        };
        // keep half: exactly the valid half is eligible.
        let sparse = sparse_topk_attention(&inputs, 0.5, None).unwrap();
        let k32 = {
            let kf = k.to_f32();
            MatrixF32::from_fn(32, 8, |r, c| kf.at(r, c)).to_f16()
        };
        let v32 = {
            let vf = v.to_f32();
            MatrixF32::from_fn(32, 8, |r, c| vf.at(r, c)).to_f16()
        };
        let exact_valid = attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &k32,
            values: &v32,
            valid: None,
            scale: 0.3,
            host_tail: None,
        })
        .unwrap();
        assert!(sparse.max_abs_diff(&exact_valid) < 1e-4);
    }

    /// The selection as first written: per-row decode, `Sum` dot products
    /// and a stable sort of every estimate, keeping the first `keep`.
    fn stable_sort_oracle(
        inputs: &AttentionInputs<'_>,
        keep_fraction: f64,
        noise: Option<EstimationNoise>,
    ) -> MatrixF32 {
        let keep_fraction = keep_fraction.clamp(1e-9, 1.0);
        let (s, g, d) = (inputs.keys.rows(), inputs.queries.rows(), inputs.queries.cols());
        let mut q_dec = vec![0.0f32; g * d];
        inputs.queries.decode_rows_into(0, g, &mut q_dec);
        let mut k_row = vec![0.0f32; d];
        let mut noise_state = noise.map(|n| (n.seed | 1, n.amplitude));
        let mut est = vec![f32::NEG_INFINITY; s];
        for j in 0..s {
            if inputs.valid.map(|v| !v[j]).unwrap_or(false) {
                continue;
            }
            inputs.keys.decode_row_into(j, &mut k_row);
            let mut best = f32::NEG_INFINITY;
            for qi in 0..g {
                let q = &q_dec[qi * d..(qi + 1) * d];
                let dot: f32 = q.iter().zip(&k_row).map(|(&a, &b)| a * b).sum();
                best = best.max(dot * inputs.scale);
            }
            if let Some((state, amp)) = noise_state.as_mut() {
                best += xorshift(state) * *amp;
            }
            est[j] = best;
        }
        let keep = ((s as f64 * keep_fraction).ceil() as usize).clamp(1, s);
        let mut order: Vec<usize> = (0..s).collect();
        order.sort_by(|&a, &b| est[b].partial_cmp(&est[a]).unwrap_or(Ordering::Equal));
        let mut selected: Vec<usize> = order.into_iter().take(keep).collect();
        selected.sort_unstable();
        attend_selected(inputs, &selected).unwrap()
    }

    fn bits(m: &MatrixF32) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn selection_matches_stable_sort_oracle() {
        let s = 600;
        let d = 24;
        // Tie-heavy keys: only five distinct rows, so the stable sort's
        // index order decides which duplicates are kept.
        let (q1, k_rand, v) = toy(1, s, d, 71);
        let (q3, _, _) = toy(3, 1, d, 73);
        let kf = k_rand.to_f32();
        let k_dup = MatrixF32::from_fn(s, d, |r, c| kf.at(r % 5, c)).to_f16();
        let holes: Vec<bool> = (0..s).map(|j| j % 4 != 2 && j < 560).collect();
        for (k, kname) in [(&k_dup, "duplicated rows"), (&k_rand, "random rows")] {
            for (q, qname) in [(&q1, "g=1"), (&q3, "g=3")] {
                for (valid, vname) in [(None, "unmasked"), (Some(holes.as_slice()), "masked")] {
                    let inputs = AttentionInputs {
                        queries: q,
                        keys: k,
                        values: &v,
                        valid,
                        scale: 0.3,
                        host_tail: None,
                    };
                    for keep_fraction in [1.0 / s as f64, 1.0 / 8.0, 1.0] {
                        for noise in [None, Some(EstimationNoise { amplitude: 0.7, seed: 5 })] {
                            let what = format!(
                                "{kname}, {qname}, {vname}, keep {keep_fraction}, noise {}",
                                noise.is_some()
                            );
                            let got = sparse_topk_attention(&inputs, keep_fraction, noise)
                                .unwrap_or_else(|e| panic!("{what}: {e}"));
                            let want = stable_sort_oracle(&inputs, keep_fraction, noise);
                            assert_eq!(bits(&got), bits(&want), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        let (q, k, v) = toy(1, 4096, 16, 19);
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.3,
            host_tail: None,
        };
        for amplitude in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.5] {
            let err =
                sparse_topk_attention(&inputs, 0.125, Some(EstimationNoise { amplitude, seed: 1 }))
                    .unwrap_err();
            assert!(
                matches!(err, KernelError::InvalidParameter { what: "noise.amplitude", .. }),
                "amplitude {amplitude}: {err:?}"
            );
        }
        let err = sparse_topk_attention(&inputs, f64::NAN, None).unwrap_err();
        assert!(matches!(err, KernelError::InvalidParameter { what: "keep_fraction", .. }));
        assert_eq!(err.to_string(), "invalid keep_fraction: is NaN");
        // The domain edges stay valid: no noise, and fractions clamped.
        assert!(sparse_topk_attention(
            &inputs,
            0.125,
            Some(EstimationNoise { amplitude: 0.0, seed: 1 })
        )
        .is_ok());
        assert!(sparse_topk_attention(&inputs, f64::INFINITY, None).is_ok());
    }

    #[test]
    fn read_fraction_clamped() {
        assert_eq!(sparse_read_fraction(0.125), 0.125);
        assert_eq!(sparse_read_fraction(2.0), 1.0);
        assert_eq!(sparse_read_fraction(-1.0), 0.0);
    }
}
