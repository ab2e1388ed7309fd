//! Convolution and pooling geometry helpers.
//!
//! The DNN crate implements `Conv2d` layers via `im2col`: each convolution
//! becomes a single matrix multiplication between the unrolled input patches
//! and the flattened kernel bank, which keeps the training code simple and
//! reasonably fast for the laptop-scale models used in the reproduction.
//! The spiking simulator's forward pass instead runs
//! [`conv2d_bias_slices`], a bias-seeded direct convolution that writes the
//! channel-major output the next layer reads.

use serde::{Deserialize, Serialize};

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution over an input feature map stored as
/// `(channels, height, width)` in row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dGeometry {
    /// Number of input channels.
    pub in_channels: usize,
    /// Input height in pixels.
    pub in_height: usize,
    /// Input width in pixels.
    pub in_width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding added symmetrically to both sides.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry and validates that the output is non-empty.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit the
    /// padded input or any dimension is zero.
    pub fn new(
        in_channels: usize,
        in_height: usize,
        in_width: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if in_channels == 0 || in_height == 0 || in_width == 0 || kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "conv2d dimensions must be non-zero".to_string(),
            ));
        }
        if in_height + 2 * padding < kernel || in_width + 2 * padding < kernel {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} larger than padded input {}x{}",
                in_height + 2 * padding,
                in_width + 2 * padding
            )));
        }
        Ok(Conv2dGeometry {
            in_channels,
            in_height,
            in_width,
            kernel,
            stride,
            padding,
        })
    }

    /// Output height of the convolution.
    pub fn out_height(&self) -> usize {
        (self.in_height + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width of the convolution.
    pub fn out_width(&self) -> usize {
        (self.in_width + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of elements in one unrolled patch (`C·K·K`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of spatial output positions (`H_out·W_out`).
    pub fn out_positions(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Number of elements in the input feature map (`C·H·W`).
    pub fn in_len(&self) -> usize {
        self.in_channels * self.in_height * self.in_width
    }
}

/// Unrolls an input feature map (flat `C·H·W` vector) into a patch matrix of
/// shape `(out_positions, patch_len)` suitable for convolution by matmul.
///
/// # Errors
/// Returns [`TensorError::ShapeDataMismatch`] if `input.len()` does not match
/// the geometry.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Vec::new();
    im2col_into(input, geom, &mut out)?;
    Tensor::from_vec(out, &[geom.out_positions(), geom.patch_len()])
}

/// [`im2col`] into a reusable buffer: clears `out`, resizes it to
/// `out_positions·patch_len` (keeping its capacity) and writes the unrolled
/// patch matrix in row-major order.
///
/// # Errors
/// Same as [`im2col`].
pub fn im2col_into(input: &Tensor, geom: &Conv2dGeometry, out: &mut Vec<f32>) -> Result<()> {
    if input.len() != geom.in_len() {
        return Err(TensorError::ShapeDataMismatch {
            elements: input.len(),
            expected: geom.in_len(),
        });
    }
    out.clear();
    out.resize(geom.out_positions() * geom.patch_len(), 0.0);
    im2col_slices(input.as_slice(), geom, out);
    Ok(())
}

/// Raw kernel behind [`im2col`]: unrolls a flat `C·H·W` input into the
/// caller-provided patch matrix buffer, overwriting it.
///
/// Dispatches to the runtime-selected SIMD backend (see [`crate::simd`]):
/// each kernel row of a patch becomes "zero-fill padding, bulk-copy the
/// valid span, zero-fill padding", which is bitwise-identical on every
/// backend by construction (it only moves and zeroes values).
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn im2col_slices(x: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    crate::simd::im2col_slices_with(crate::simd::active_backend(), x, geom, out);
}

/// Bias-seeded direct convolution: writes
/// `out[c·P + p] = (bias[c] + 0.0) + Σ_kk weights[c·K + kk]·x_kk(p)` for
/// every output channel `c < bias.len()` and output position
/// `p < P = out_positions`, where `weights` is the `(out_ch × K)` kernel
/// bank (`K = patch_len`, patch entries in `(ci, ky, kx)` order) and
/// `x_kk(p)` the input under patch entry `kk` at position `p` (zero in the
/// padding).  The terms are added in ascending `kk` order, so every output
/// is the same sum as a row of the `im2col` patch matrix times the kernel
/// bank in `ikj` order.
///
/// `unfold` is caller-owned scratch of length `K·P` (its contents on entry
/// are ignored): the input is first unfolded into it as `K` rows of shifted
/// input, then each channel is accumulated in registers across positions
/// on the runtime-selected SIMD backend (see [`crate::simd`]) and stored
/// once.  Exact-zero inputs never change a result, exactly as if they were
/// skipped.
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn conv2d_bias_slices(
    x: &[f32],
    geom: &Conv2dGeometry,
    weights: &[f32],
    bias: &[f32],
    unfold: &mut [f32],
    out: &mut [f32],
) {
    crate::simd::conv2d_bias_slices_with(
        crate::simd::active_backend(),
        x,
        geom,
        weights,
        bias,
        unfold,
        out,
    );
}

/// Unfolds a flat `C·H·W` input into `unfold`, `patch_len` rows of
/// `out_positions` each: row `(ci, ky, kx)` holds, for every output
/// position `(oy, ox)`, the input at `(ci, oy·s + ky − p, ox·s + kx − p)`,
/// or `+0.0` where that lies in the padding.  Pure data movement, so it is
/// the same on every backend.
pub(crate) fn unfold_slices(x: &[f32], geom: &Conv2dGeometry, unfold: &mut [f32]) {
    let (h, w) = (geom.in_height, geom.in_width);
    let (k, s, pad) = (geom.kernel, geom.stride, geom.padding);
    let (oh, ow) = (geom.out_height(), geom.out_width());
    for (kk, row) in unfold.chunks_exact_mut(oh * ow).enumerate() {
        let (ci, ky, kx) = (kk / (k * k), kk / k % k, kk % k);
        let plane = &x[ci * h * w..(ci + 1) * h * w];
        // Output columns `lo..hi` read an in-bounds input column
        // `ox·s + kx − pad`; the rest read padding.
        let lo = pad.saturating_sub(kx).div_ceil(s).min(ow);
        let hi = (w + pad).saturating_sub(kx).div_ceil(s).clamp(lo, ow);
        for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
            let Some(iy) = (oy * s + ky).checked_sub(pad).filter(|&iy| iy < h) else {
                dst.fill(0.0);
                continue;
            };
            dst[..lo].fill(0.0);
            dst[hi..].fill(0.0);
            if lo == hi {
                continue;
            }
            let src = &plane[iy * w + lo * s + kx - pad..(iy + 1) * w];
            if s == 1 {
                dst[lo..hi].copy_from_slice(&src[..hi - lo]);
            } else {
                for (d, &v) in dst[lo..hi].iter_mut().zip(src.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

/// Scatters a patch matrix of shape `(out_positions, patch_len)` back into a
/// flat input-feature-map gradient (`C·H·W`), accumulating overlapping
/// contributions. This is the adjoint of [`im2col`] and is used by the
/// convolution backward pass.
///
/// # Errors
/// Returns [`TensorError::ShapeDataMismatch`] if `cols` has the wrong size.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let expected = geom.out_positions() * geom.patch_len();
    if cols.len() != expected {
        return Err(TensorError::ShapeDataMismatch {
            elements: cols.len(),
            expected,
        });
    }
    let (c, h, w) = (geom.in_channels, geom.in_height, geom.in_width);
    let k = geom.kernel;
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let cv = cols.as_slice();
    let mut out = vec![0.0f32; geom.in_len()];
    let mut row = 0usize;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * geom.patch_len();
            let mut idx = 0usize;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    for kx in 0..k {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            out[ci * h * w + iy as usize * w + ix as usize] += cv[base + idx];
                        }
                        idx += 1;
                    }
                }
            }
            row += 1;
        }
    }
    Tensor::from_vec(out, &[geom.in_len()])
}

/// Geometry of a 2-D max/average pooling operation over a `(C, H, W)` map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pool2dGeometry {
    /// Number of channels (unchanged by pooling).
    pub channels: usize,
    /// Input height in pixels.
    pub in_height: usize,
    /// Input width in pixels.
    pub in_width: usize,
    /// Square pooling window size.
    pub window: usize,
    /// Stride (commonly equal to the window).
    pub stride: usize,
}

impl Pool2dGeometry {
    /// Creates a pooling geometry.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit or
    /// any dimension is zero.
    pub fn new(
        channels: usize,
        in_height: usize,
        in_width: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        if channels == 0 || in_height == 0 || in_width == 0 || window == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "pool2d dimensions must be non-zero".to_string(),
            ));
        }
        if window > in_height || window > in_width {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {window} larger than input {in_height}x{in_width}"
            )));
        }
        Ok(Pool2dGeometry {
            channels,
            in_height,
            in_width,
            window,
            stride,
        })
    }

    /// Output height of the pooling.
    pub fn out_height(&self) -> usize {
        (self.in_height - self.window) / self.stride + 1
    }

    /// Output width of the pooling.
    pub fn out_width(&self) -> usize {
        (self.in_width - self.window) / self.stride + 1
    }

    /// Number of input elements (`C·H·W`).
    pub fn in_len(&self) -> usize {
        self.channels * self.in_height * self.in_width
    }

    /// Number of output elements (`C·H_out·W_out`).
    pub fn out_len(&self) -> usize {
        self.channels * self.out_height() * self.out_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_geom() -> Conv2dGeometry {
        Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap()
    }

    #[test]
    fn conv_geometry_output_dims() {
        let g = Conv2dGeometry::new(3, 16, 16, 3, 1, 1).unwrap();
        assert_eq!(g.out_height(), 16);
        assert_eq!(g.out_width(), 16);
        assert_eq!(g.patch_len(), 27);

        let g2 = Conv2dGeometry::new(1, 28, 28, 5, 1, 0).unwrap();
        assert_eq!(g2.out_height(), 24);
    }

    #[test]
    fn conv_geometry_rejects_bad_params() {
        assert!(Conv2dGeometry::new(0, 8, 8, 3, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 8, 8, 3, 0, 0).is_err());
    }

    #[test]
    fn im2col_known_patches() {
        let g = simple_geom();
        let input = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // first patch = top-left 2x2 window
        assert_eq!(cols.row(0).unwrap().as_slice(), &[1.0, 2.0, 4.0, 5.0]);
        // last patch = bottom-right 2x2 window
        assert_eq!(cols.row(3).unwrap().as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_with_padding_zero_borders() {
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        let input = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 9]);
        // Patch centred at (0,0): first row/col are padding.
        assert_eq!(
            cols.row(0).unwrap().as_slice(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_patches() {
        // stride == kernel -> patches are disjoint, so col2im(im2col(x)) == x.
        let g = Conv2dGeometry::new(1, 4, 4, 2, 2, 0).unwrap();
        let input = Tensor::from_slice(&[
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0,
        ]);
        let cols = im2col(&input, &g).unwrap();
        let back = col2im(&cols, &g).unwrap();
        assert_eq!(back.as_slice(), input.as_slice());
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        let g = simple_geom();
        let ones = Tensor::ones(&[g.out_positions(), g.patch_len()]);
        let acc = col2im(&ones, &g).unwrap();
        // centre pixel of a 3x3 input is covered by all four 2x2 patches.
        assert_eq!(acc.get(&[4]).unwrap(), 4.0);
        // corner pixel only by one.
        assert_eq!(acc.get(&[0]).unwrap(), 1.0);
    }

    #[test]
    fn conv2d_bias_matches_dense_scan_bitwise() {
        // Reference: the im2col patch matrix times the kernel bank, every
        // term added (no zero skip) in ascending patch order onto the
        // canonicalised bias.  Stride 2 with padding 1 exercises both the
        // strided unfold and the padding zeros.
        let g = Conv2dGeometry::new(2, 5, 4, 3, 2, 1).unwrap();
        let x: Vec<f32> = (0..g.in_len())
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => (i as f32 * 0.37).sin(),
            })
            .collect();
        let out_ch = 3;
        let weights: Vec<f32> = (0..out_ch * g.patch_len())
            .map(|i| (i as f32 * 0.53 - 1.0).cos())
            .collect();
        let bias = [0.25f32, -0.0, -1.5];
        let cols = im2col(&Tensor::from_slice(&x), &g).unwrap();
        let positions = g.out_positions();
        let mut reference = vec![0.0f32; out_ch * positions];
        for c in 0..out_ch {
            for p in 0..positions {
                let mut acc = bias[c] + 0.0;
                for kk in 0..g.patch_len() {
                    acc +=
                        cols.as_slice()[p * g.patch_len() + kk] * weights[c * g.patch_len() + kk];
                }
                reference[c * positions + p] = acc;
            }
        }
        let mut unfold = vec![f32::NAN; g.patch_len() * positions];
        let mut out = vec![f32::NAN; out_ch * positions];
        conv2d_bias_slices(&x, &g, &weights, &bias, &mut unfold, &mut out);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&reference));
        // The unfold is the transposed patch matrix.
        for p in 0..positions {
            for kk in 0..g.patch_len() {
                assert_eq!(
                    unfold[kk * positions + p].to_bits(),
                    cols.as_slice()[p * g.patch_len() + kk].to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv2d: unfold.len() != patch_len*out_positions")]
    fn conv2d_bias_rejects_a_short_unfold() {
        let g = simple_geom();
        let mut out = [0.0f32; 4];
        conv2d_bias_slices(&[0.0; 9], &g, &[1.0; 4], &[0.0], &mut [0.0; 3], &mut out);
    }

    #[test]
    fn pool_geometry() {
        let g = Pool2dGeometry::new(3, 16, 16, 2, 2).unwrap();
        assert_eq!(g.out_height(), 8);
        assert_eq!(g.out_len(), 3 * 8 * 8);
        assert!(Pool2dGeometry::new(3, 2, 2, 4, 2).is_err());
    }

    #[test]
    fn im2col_wrong_input_len() {
        let g = simple_geom();
        let bad = Tensor::zeros(&[5]);
        assert!(im2col(&bad, &g).is_err());
        let mut buf = Vec::new();
        assert!(im2col_into(&bad, &g, &mut buf).is_err());
    }

    #[test]
    fn im2col_into_matches_allocating_path_and_reuses_capacity() {
        let g = Conv2dGeometry::new(2, 4, 4, 3, 1, 1).unwrap();
        let input = Tensor::from_vec((0..32).map(|v| v as f32 * 0.25 - 3.0).collect(), &[32])
            .unwrap()
            .reshape(&[32])
            .unwrap();
        let reference = im2col(&input, &g).unwrap();
        let mut buf = vec![42.0f32; 3]; // dirty, wrongly sized: must be reset
        im2col_into(&input, &g, &mut buf).unwrap();
        assert_eq!(buf, reference.as_slice());
        let cap = buf.capacity();
        im2col_into(&input, &g, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap);
    }
}
