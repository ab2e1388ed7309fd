//! Property tests proving every SIMD backend bit-identical to the scalar
//! reference kernel, over adversarial shapes and values.
//!
//! Shapes draw from a pool straddling the 8-lane block width (0, 1, lane−1,
//! lane, lane+1, non-multiples); values draw from a pool of IEEE-754 corner
//! cases (`-0.0`, subnormals, `f32::MAX`, mixed signs, exact zeros) mixed
//! with ordinary magnitudes.  Every assertion compares raw bits, not
//! approximate values — the workspace contract is byte-equality, and these
//! tests are the kernel-level half of the scalar-vs-SIMD matrix in
//! `tests/workspace_bit_identity.rs`.  The direct convolution is checked
//! against an independent plain-loop oracle on every backend (NaN outputs
//! only NaN-for-NaN: their sign and payload are unspecified).

use nrsnn_tensor::simd::{
    available_backends, conv2d_bias_slices_with, im2col_slices_with, matmul_slices_with,
    matvec_bias_slices_with, matvec_slices_with, SimdBackend,
};
use nrsnn_tensor::{im2col_into, matmul_into, matvec_into, Conv2dGeometry, Tensor, TensorError};
use proptest::{rng_for, TestRng, CASES};
use rand::Rng;

/// Shape pool straddling the 8-lane block width.
const SHAPES: &[usize] = &[0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33];

/// Adversarial value pool: signed zeros, subnormals, extremes, mixed signs.
/// `f32::MAX` may overflow a product to `±inf` — still deterministic IEEE
/// results that must agree bitwise across backends.
const SPECIAL: &[f32] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -2.5,
    f32::MIN_POSITIVE, // smallest normal
    1.0e-41,           // subnormal
    -1.0e-41,          // negative subnormal
    f32::MAX,
    -f32::MAX,
    1.0e-20,
    3.4028,
];

fn draw_shape(rng: &mut TestRng) -> usize {
    SHAPES[rng.gen_range(0..SHAPES.len())]
}

/// Draws a value: half the time an adversarial special, half an ordinary
/// magnitude. `zero_bias` boosts the exact-zero probability so the mat-mul's
/// zero-skip sees genuinely sparse inputs (with both zero signs).
fn draw_value(rng: &mut TestRng, zero_bias: bool) -> f32 {
    if zero_bias && rng.gen_range(0.0f32..1.0) < 0.5 {
        return if rng.gen_range(0.0f32..1.0) < 0.25 {
            -0.0
        } else {
            0.0
        };
    }
    if rng.gen_range(0.0f32..1.0) < 0.5 {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        rng.gen_range(-4.0f32..4.0)
    }
}

fn draw_vec(rng: &mut TestRng, len: usize, zero_bias: bool) -> Vec<f32> {
    (0..len).map(|_| draw_value(rng, zero_bias)).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn simd_backends() -> Vec<SimdBackend> {
    available_backends()
        .into_iter()
        .filter(|&b| b != SimdBackend::Scalar)
        .collect()
}

#[test]
fn matvec_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("matvec_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for _ in 0..CASES {
        let (m, n) = (draw_shape(&mut rng), draw_shape(&mut rng));
        let a = draw_vec(&mut rng, m * n, false);
        let x = draw_vec(&mut rng, n, false);
        let mut reference = vec![f32::NAN; m];
        matvec_slices_with(SimdBackend::Scalar, &a, m, n, &x, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; m];
            matvec_slices_with(isa, &a, m, n, &x, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} m={m} n={n}");
        }
    }
}

#[test]
fn matvec_bias_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("matvec_bias_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for case in 0..CASES {
        let (m, n) = (draw_shape(&mut rng), draw_shape(&mut rng));
        // Every fourth case zeroes an entire row — the all-zero-row corner.
        let mut a = draw_vec(&mut rng, m * n, false);
        if case % 4 == 0 && m > 0 && n > 0 {
            let row = rng.gen_range(0..m);
            a[row * n..(row + 1) * n].fill(0.0);
        }
        let x = draw_vec(&mut rng, n, false);
        // Biases lean on the signed-zero corner hard.
        let bias: Vec<f32> = (0..m)
            .map(|_| {
                if rng.gen_range(0.0f32..1.0) < 0.3 {
                    -0.0
                } else {
                    draw_value(&mut rng, false)
                }
            })
            .collect();
        let mut reference = vec![f32::NAN; m];
        matvec_bias_slices_with(SimdBackend::Scalar, &a, m, n, &x, &bias, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; m];
            matvec_bias_slices_with(isa, &a, m, n, &x, &bias, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} m={m} n={n}");
        }
    }
}

#[test]
fn matmul_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("matmul_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for case in 0..CASES {
        let (m, k, n) = (
            draw_shape(&mut rng),
            draw_shape(&mut rng),
            draw_shape(&mut rng),
        );
        // Zero-heavy `a` exercises the skip-zero fast path.
        let a = draw_vec(&mut rng, m * k, case % 2 == 0);
        let b = draw_vec(&mut rng, k * n, false);
        let mut reference = vec![f32::NAN; m * n];
        matmul_slices_with(SimdBackend::Scalar, &a, m, k, &b, n, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; m * n];
            matmul_slices_with(isa, &a, m, k, &b, n, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} m={m} k={k} n={n}");
        }
    }
}

/// The plain-loop convolution oracle: for every `(c, oy, ox)`, seed
/// `bias[c] + 0.0`, then add `x·w` over the patch entries `(ci, ky, kx)` in
/// ascending order, skipping the padding and exact-zero inputs.
fn conv_oracle(x: &[f32], g: &Conv2dGeometry, weights: &[f32], bias: &[f32]) -> Vec<f32> {
    let (h, w, k) = (g.in_height, g.in_width, g.kernel);
    let mut out = Vec::new();
    for (c, &b) in bias.iter().enumerate() {
        for oy in 0..g.out_height() {
            for ox in 0..g.out_width() {
                let mut acc = b + 0.0;
                for ci in 0..g.in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            let v = x[ci * h * w + iy as usize * w + ix as usize];
                            if v != 0.0 {
                                acc += v * weights[c * g.patch_len() + (ci * k + ky) * k + kx];
                            }
                        }
                    }
                }
                out.push(acc);
            }
        }
    }
    out
}

#[test]
fn conv2d_every_isa_matches_plain_loop_oracle() {
    let mut rng = rng_for("conv2d_every_isa_matches_plain_loop_oracle");
    let mut chunk_tails = [false; 2];
    for case in 0..4 * CASES {
        let c = rng.gen_range(1usize..4);
        let h = rng.gen_range(1usize..15);
        let w = rng.gen_range(1usize..15);
        let k = rng.gen_range(1usize..6);
        let s = rng.gen_range(1usize..4);
        let p = rng.gen_range(0usize..3);
        let Ok(geom) = Conv2dGeometry::new(c, h, w, k, s, p) else {
            continue; // kernel larger than padded input: rejected upstream
        };
        let out_ch = rng.gen_range(1usize..30);
        let positions = geom.out_positions();
        chunk_tails[usize::from(positions % 32 == 0)] = true;
        // Zero-heavy inputs with both zero signs.
        let x = draw_vec(&mut rng, geom.in_len(), true);
        let mut weights = draw_vec(&mut rng, out_ch * geom.patch_len(), false);
        // Every fourth case plants ±inf/NaN weights; the zero-heavy inputs
        // put exact zeros opposite them, where the term must be skipped.
        if case % 4 == 0 {
            for _ in 0..rng.gen_range(1usize..4) {
                let i = rng.gen_range(0..weights.len());
                weights[i] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0usize..3)];
            }
        }
        let bias: Vec<f32> = (0..out_ch)
            .map(|_| {
                if rng.gen_range(0.0f32..1.0) < 0.3 {
                    -0.0
                } else {
                    draw_value(&mut rng, false)
                }
            })
            .collect();
        let reference = conv_oracle(&x, &geom, &weights, &bias);
        for isa in available_backends() {
            let mut unfold = vec![f32::NAN; geom.patch_len() * positions];
            let mut out = vec![f32::NAN; out_ch * positions];
            conv2d_bias_slices_with(isa, &x, &geom, &weights, &bias, &mut unfold, &mut out);
            for (i, (o, r)) in out.iter().zip(&reference).enumerate() {
                // NaN sign and payload are unspecified; NaN-ness is not.
                let same = if r.is_nan() {
                    o.is_nan()
                } else {
                    o.to_bits() == r.to_bits()
                };
                assert!(
                    same,
                    "{isa:?} out_ch={out_ch} geom {geom:?}: out[{i}] {o:?} != {r:?}"
                );
            }
        }
    }
    assert!(
        chunk_tails[0] && chunk_tails[1],
        "cases must cover positions with and without a sub-chunk tail"
    );
}

#[test]
fn im2col_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("im2col_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for _ in 0..CASES {
        let c = rng.gen_range(1usize..4);
        let h = rng.gen_range(1usize..12);
        let w = rng.gen_range(1usize..12);
        let k = rng.gen_range(1usize..6);
        let s = rng.gen_range(1usize..3);
        let p = rng.gen_range(0usize..3);
        let Ok(geom) = Conv2dGeometry::new(c, h, w, k, s, p) else {
            continue; // kernel larger than padded input: rejected upstream
        };
        let x = draw_vec(&mut rng, geom.in_len(), false);
        let len = geom.out_positions() * geom.patch_len();
        let mut reference = vec![f32::NAN; len];
        im2col_slices_with(SimdBackend::Scalar, &x, &geom, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; len];
            im2col_slices_with(isa, &x, &geom, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} geom {geom:?}");
        }
    }
}

#[test]
fn into_wrappers_return_typed_shape_errors() {
    let a = Tensor::zeros(&[3, 4]);
    let b_bad = Tensor::zeros(&[5, 2]); // inner dim mismatch
    let x_bad = Tensor::zeros(&[5]);
    let mut out = Vec::new();

    assert!(matches!(
        matmul_into(&a, &b_bad, &mut out),
        Err(TensorError::ShapeMismatch { op: "matmul", .. })
    ));
    assert!(matches!(
        matvec_into(&a, &x_bad, &mut out),
        Err(TensorError::ShapeMismatch { op: "matvec", .. })
    ));
    assert!(matches!(
        matvec_into(&a, &a, &mut out),
        Err(TensorError::RankMismatch { op: "matvec", .. })
    ));
    // im2col: wrong input length for the geometry.
    let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 0).unwrap();
    assert!(matches!(
        im2col_into(&x_bad, &geom, &mut out),
        Err(TensorError::ShapeDataMismatch { .. })
    ));
    // Valid calls still succeed after the failures (buffers are reusable).
    let b_ok = Tensor::zeros(&[4, 2]);
    assert!(matmul_into(&a, &b_ok, &mut out).is_ok());
    assert_eq!(out.len(), 6);
}
