//! Reference attention implementations the accelerator kernel is validated
//! against.
//!
//! * [`attention_reference`] — textbook masked attention with a three-pass
//!   softmax and `f64` accumulation: the gold standard.
//! * [`attention_streaming`] — a FlashAttention-style single-pass online
//!   softmax in `f32`: the algorithm the paper's prefill baseline uses and
//!   the "lossless" comparison point of Fig. 18c.

use crate::f16::f16_decode_lut;
use crate::kernel::{dot_rows_into, BLOCK_TOKENS};
use crate::softmax::MASK_VALUE;
use crate::tensor::{MatrixF16, MatrixF32};

/// Computes masked scaled-dot-product attention for a group of queries that
/// share one K/V cache (multi-head: group size 1; GQA: group size
/// `d_group`).
///
/// `queries` is `g×d`, `keys` and `values` are `s×d`; `valid[j] == false`
/// marks token `j` as padding (its score is forced to −10⁴ as in §5.4).
/// Scores are `scale · q·kⱼ`; accumulation is `f64`.
///
/// # Panics
///
/// Panics if shapes disagree or `s == 0`.
pub fn attention_reference(
    queries: &MatrixF32,
    keys: &MatrixF32,
    values: &MatrixF32,
    valid: Option<&[bool]>,
    scale: f32,
) -> MatrixF32 {
    let (g, d) = (queries.rows(), queries.cols());
    let s = keys.rows();
    assert!(s > 0, "attention over an empty context");
    assert_eq!(keys.cols(), d, "key dim mismatch");
    assert_eq!(values.rows(), s, "value rows mismatch");
    assert_eq!(values.cols(), d, "value dim mismatch");
    if let Some(v) = valid {
        assert_eq!(v.len(), s, "mask length mismatch");
    }

    let mut out = MatrixF32::zeros(g, d);
    for qi in 0..g {
        let q = queries.row(qi);
        // Pass 0: scores.
        let mut scores = vec![0.0f64; s];
        for (j, sc) in scores.iter_mut().enumerate() {
            let masked = valid.map(|v| !v[j]).unwrap_or(false);
            if masked {
                *sc = MASK_VALUE as f64;
            } else {
                let k = keys.row(j);
                let dot: f64 = q.iter().zip(k).map(|(&a, &b)| a as f64 * b as f64).sum();
                *sc = dot * scale as f64;
            }
        }
        // Pass 1: global max.
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Pass 2: denominator.
        let z: f64 = scores.iter().map(|&x| (x - m).exp()).sum();
        // Pass 3: weighted sum of values.
        let mut acc = vec![0.0f64; d];
        for (j, &x) in scores.iter().enumerate() {
            let w = (x - m).exp() / z;
            let v = values.row(j);
            for (a, &vv) in acc.iter_mut().zip(v) {
                *a += w * vv as f64;
            }
        }
        for (c, &a) in acc.iter().enumerate() {
            out.set(qi, c, a as f32);
        }
    }
    out
}

/// FlashAttention-style streaming attention: one pass over the context with
/// an online softmax, rescaling the output accumulator whenever the running
/// maximum grows. `f32` throughout.
///
/// # Panics
///
/// Panics if shapes disagree or `s == 0`.
pub fn attention_streaming(
    queries: &MatrixF32,
    keys: &MatrixF32,
    values: &MatrixF32,
    valid: Option<&[bool]>,
    scale: f32,
) -> MatrixF32 {
    let (g, d) = (queries.rows(), queries.cols());
    let s = keys.rows();
    assert!(s > 0, "attention over an empty context");
    assert_eq!(keys.cols(), d, "key dim mismatch");
    assert_eq!(values.rows(), s, "value rows mismatch");
    assert_eq!(values.cols(), d, "value dim mismatch");
    if let Some(v) = valid {
        assert_eq!(v.len(), s, "mask length mismatch");
    }

    let mut out = MatrixF32::zeros(g, d);
    for qi in 0..g {
        let q = queries.row(qi);
        let mut m = f32::NEG_INFINITY;
        let mut z = 0.0f32;
        let mut acc = vec![0.0f32; d];
        for j in 0..s {
            let masked = valid.map(|v| !v[j]).unwrap_or(false);
            let x = if masked {
                MASK_VALUE
            } else {
                let k = keys.row(j);
                let dot: f32 = q.iter().zip(k).map(|(&a, &b)| a * b).sum();
                dot * scale
            };
            if x > m {
                let r = (m - x).exp();
                z = z * r + 1.0;
                for a in acc.iter_mut() {
                    *a *= r;
                }
                m = x;
                let v = values.row(j);
                for (a, &vv) in acc.iter_mut().zip(v) {
                    *a += vv;
                }
            } else {
                let w = (x - m).exp();
                z += w;
                let v = values.row(j);
                for (a, &vv) in acc.iter_mut().zip(v) {
                    *a += w * vv;
                }
            }
        }
        for (c, &a) in acc.iter().enumerate() {
            out.set(qi, c, a / z);
        }
    }
    out
}

/// [`attention_streaming`] over FP16 storage, one 128-token block at a
/// time: each block's dot products are computed straight from the FP16
/// key rows (LUT-decoded inside the multiply, eight tokens side by side),
/// its value rows are LUT-decoded once for the whole query group, and the
/// token-sequential online-softmax update then runs unchanged.
///
/// Bit-identical to `attention_streaming(&q.to_f32(), &k.to_f32(),
/// &v.to_f32(), ...)`: the decode LUT reproduces `F16::to_f32` exactly,
/// every dot product is the same serial chain `f32`'s `Sum` evaluates
/// (starting from `-0.0`), and the softmax update order is unchanged. It
/// allocates `O(g·d + BLOCK_TOKENS·d)` rather than `O(s·d)` — this is
/// what the baselines use to model CPU attention over an FP16 KV cache
/// without materializing an FP32 copy of the context.
///
/// # Panics
///
/// Panics if shapes disagree or `s == 0`.
pub fn attention_streaming_f16(
    queries: &MatrixF16,
    keys: &MatrixF16,
    values: &MatrixF16,
    valid: Option<&[bool]>,
    scale: f32,
) -> MatrixF32 {
    let (g, d) = (queries.rows(), queries.cols());
    let s = keys.rows();
    assert!(s > 0, "attention over an empty context");
    assert_eq!(keys.cols(), d, "key dim mismatch");
    assert_eq!(values.rows(), s, "value rows mismatch");
    assert_eq!(values.cols(), d, "value dim mismatch");
    if let Some(v) = valid {
        assert_eq!(v.len(), s, "mask length mismatch");
    }

    let lut = f16_decode_lut();
    let mut q_dec = vec![0.0f32; g * d];
    queries.decode_rows_into(0, g, &mut q_dec);
    let mut dots = vec![0.0f32; BLOCK_TOKENS];
    let mut v_block = vec![0.0f32; BLOCK_TOKENS * d];
    // Online-softmax state per query: running max, denominator, output.
    let mut m = vec![f32::NEG_INFINITY; g];
    let mut z = vec![0.0f32; g];
    let mut acc = vec![0.0f32; g * d];

    let mut block_start = 0;
    while block_start < s {
        let block_len = BLOCK_TOKENS.min(s - block_start);
        let k_rows = &keys.as_slice()[block_start * d..(block_start + block_len) * d];
        values.decode_rows_into(block_start, block_len, &mut v_block);
        for qi in 0..g {
            let dots = &mut dots[..block_len];
            dot_rows_into(&q_dec[qi * d..(qi + 1) * d], k_rows, lut, usize::MAX, -0.0, dots);
            let (m, z) = (&mut m[qi], &mut z[qi]);
            let acc = &mut acc[qi * d..(qi + 1) * d];
            for (j, &dot) in dots.iter().enumerate() {
                let masked = valid.map(|v| !v[block_start + j]).unwrap_or(false);
                let x = if masked { MASK_VALUE } else { dot * scale };
                let v_row = &v_block[j * d..(j + 1) * d];
                if x > *m {
                    let r = (*m - x).exp();
                    *z = *z * r + 1.0;
                    for a in acc.iter_mut() {
                        *a *= r;
                    }
                    *m = x;
                    for (a, &vv) in acc.iter_mut().zip(v_row) {
                        *a += vv;
                    }
                } else {
                    let w = (x - *m).exp();
                    *z += w;
                    for (a, &vv) in acc.iter_mut().zip(v_row) {
                        *a += w * vv;
                    }
                }
            }
        }
        block_start += block_len;
    }

    let mut out = MatrixF32::zeros(g, d);
    for qi in 0..g {
        for c in 0..d {
            out.set(qi, c, acc[qi * d + c] / z[qi]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(g: usize, s: usize, d: usize, seed: u64) -> (MatrixF32, MatrixF32, MatrixF32) {
        // Deterministic pseudo-random fill (xorshift) — no rand dependency.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
        };
        let q = MatrixF32::from_fn(g, d, |_, _| next());
        let k = MatrixF32::from_fn(s, d, |_, _| next());
        let v = MatrixF32::from_fn(s, d, |_, _| next());
        (q, k, v)
    }

    #[test]
    fn single_token_returns_its_value() {
        let (q, k, v) = toy(1, 1, 8, 3);
        let out = attention_reference(&q, &k, &v, None, 0.35);
        for c in 0..8 {
            assert!((out.at(0, c) - v.at(0, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn dominant_score_selects_its_value() {
        let d = 4;
        let q = MatrixF32::from_fn(1, d, |_, _| 10.0);
        let mut k = MatrixF32::zeros(3, d);
        for c in 0..d {
            k.set(1, c, 10.0); // token 1 has a huge score
        }
        let v = MatrixF32::from_fn(3, d, |r, _| r as f32);
        let out = attention_reference(&q, &k, &v, None, 1.0);
        for c in 0..d {
            assert!((out.at(0, c) - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn streaming_matches_reference() {
        let (q, k, v) = toy(3, 300, 16, 42);
        let a = attention_reference(&q, &k, &v, None, 0.25);
        let b = attention_streaming(&q, &k, &v, None, 0.25);
        assert!(a.max_abs_diff(&b) < 1e-4, "diff={}", a.max_abs_diff(&b));
    }

    #[test]
    fn streaming_f16_is_bit_identical_to_widened_f32_path() {
        let (q, k, v) = toy(3, 260, 32, 51);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let mut valid = vec![true; 260];
        valid[200..].fill(false);
        for mask in [None, Some(valid.as_slice())] {
            let widened = attention_streaming(&qh.to_f32(), &kh.to_f32(), &vh.to_f32(), mask, 0.2);
            let direct = attention_streaming_f16(&qh, &kh, &vh, mask, 0.2);
            let a: Vec<u32> = widened.as_slice().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = direct.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "mask={:?}", mask.is_some());
        }
    }

    #[test]
    fn mask_excludes_padding() {
        let (q, k, v) = toy(1, 10, 8, 9);
        let mut valid = vec![true; 10];
        valid[5..10].fill(false);
        let masked = attention_reference(&q, &k, &v, Some(&valid), 0.3);
        // Same result as truncating the context to the valid prefix.
        let k5 = MatrixF32::from_fn(5, 8, |r, c| k.at(r, c));
        let v5 = MatrixF32::from_fn(5, 8, |r, c| v.at(r, c));
        let truncated = attention_reference(&q, &k5, &v5, None, 0.3);
        assert!(masked.max_abs_diff(&truncated) < 1e-5);
    }

    #[test]
    fn group_queries_processed_independently() {
        let (q, k, v) = toy(4, 64, 8, 17);
        let all = attention_reference(&q, &k, &v, None, 0.2);
        for qi in 0..4 {
            let single = MatrixF32::from_fn(1, 8, |_, c| q.at(qi, c));
            let one = attention_reference(&single, &k, &v, None, 0.2);
            for c in 0..8 {
                assert!((all.at(qi, c) - one.at(0, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty context")]
    fn empty_context_panics() {
        let q = MatrixF32::zeros(1, 4);
        let k = MatrixF32::zeros(0, 4);
        let v = MatrixF32::zeros(0, 4);
        let _ = attention_reference(&q, &k, &v, None, 1.0);
    }
}
