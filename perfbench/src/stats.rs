//! The harness's own arithmetic: order statistics, error accounting, the
//! client-side frontend subtraction and the per-layer operation/byte
//! formulas.  Kept free of I/O so every formula has a unit test.

/// Nearest-rank percentile summary of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    /// Number of samples the percentiles were selected from.
    pub count: usize,
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted` (ascending):
/// the smallest sample with at least `q · n` samples at or below it.
/// `0.0` for an empty population.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and selects p50/p90/p99/p999 from them.
pub fn percentiles(values: &mut [f64]) -> Percentiles {
    values.sort_by(f64::total_cmp);
    Percentiles {
        p50: nearest_rank(values, 0.50),
        p90: nearest_rank(values, 0.90),
        p99: nearest_rank(values, 0.99),
        p999: nearest_rank(values, 0.999),
        count: values.len(),
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Time a request spent outside the server's own measurement: the client's
/// round trip minus the server-reported `latency_us` (admission → reply
/// ready).  Saturates at zero; [`rtt_covers_server`] is the check that it
/// never needs to.
pub fn frontend_ns(rtt_ns: u64, server_latency_us: u64) -> u64 {
    rtt_ns.saturating_sub(server_latency_us.saturating_mul(1_000))
}

/// Closure check of one round trip: the server truncates its latency to
/// whole microseconds, so a client round trip that encloses the server's
/// interval is always at least `latency_us · 1000` ns.
pub fn rtt_covers_server(rtt_ns: u64, server_latency_us: u64) -> bool {
    rtt_ns >= server_latency_us.saturating_mul(1_000)
}

/// Operations attempted and failed by a run; `error_frac` is their ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation that `ok` says succeeded or failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a whole-run check (closure, reconciliation, replay) as one
    /// operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            warn!("check failed: {what}");
        }
        self.record(ok);
    }

    /// Failed ÷ attempted; `0.0` before anything was attempted.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Work of one executed layer kernel, computed from the tensor sizes and
/// the input density the kernel saw (never counted inside the kernel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelWork {
    /// Floating-point operations (one multiply-add counts as 2).
    pub flops: f64,
    /// Bytes of `f32` operands read and written, each touched once.
    pub bytes: f64,
}

/// Dense `out × in` matvec plus bias.  The sparse path touches only the
/// `density · in` active columns; the dense path scans every column.
pub fn linear_work(out: usize, inputs: usize, density: f64, sparse: bool) -> KernelWork {
    let cols = if sparse {
        density * inputs as f64
    } else {
        inputs as f64
    };
    let (out, inputs) = (out as f64, inputs as f64);
    KernelWork {
        flops: 2.0 * out * cols + out,
        bytes: 4.0 * (out * cols + inputs + 2.0 * out),
    }
}

/// Convolution lowered to im2col + matmul: a `positions × patch` patch
/// matrix times a `patch × channels` kernel bank.  The sparse path keeps
/// only the `density` share of patch entries.
pub fn conv_work(
    positions: usize,
    patch: usize,
    channels: usize,
    density: f64,
    sparse: bool,
) -> KernelWork {
    let share = if sparse { density } else { 1.0 };
    let (positions, patch, channels) = (positions as f64, patch as f64, channels as f64);
    let macs = positions * patch * channels * share;
    KernelWork {
        flops: 2.0 * macs + positions * channels,
        bytes: 4.0 * (positions * patch * share + patch * channels + 2.0 * positions * channels),
    }
}

/// Non-overlapping average pooling: one add per input, one scale per
/// output.
pub fn pool_work(inputs: usize, outputs: usize) -> KernelWork {
    KernelWork {
        flops: (inputs + outputs) as f64,
        bytes: 4.0 * (inputs + outputs) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selects_observed_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 0.999), 100.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn percentiles_sort_and_report_the_sample_count() {
        let mut values = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let p = percentiles(&mut values);
        assert_eq!(p.count, 5);
        assert_eq!(p.p50, 3.0);
        assert_eq!(p.p90, 5.0);
        assert_eq!(p.p99, 5.0);
        assert_eq!(p.p999, 5.0);
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // 1000 samples: p999 is the 999th, not the maximum.
        let mut many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = percentiles(&mut many);
        assert_eq!(
            (p.p50, p.p90, p.p99, p.p999, p.count),
            (500.0, 900.0, 990.0, 999.0, 1000)
        );
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn frontend_subtracts_server_latency_in_nanoseconds() {
        assert_eq!(frontend_ns(190_000, 25), 165_000);
        assert_eq!(frontend_ns(25_999, 25), 999);
        assert_eq!(frontend_ns(10_000, 25), 0);
        assert!(rtt_covers_server(25_000, 25));
        assert!(!rtt_covers_server(24_999, 25));
        assert!(rtt_covers_server(0, 0));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_frac(), 0.0);
        tally.record(true);
        tally.record(true);
        tally.record(false);
        tally.check(true, "closure");
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(tally.error_frac(), 0.25);
    }

    #[test]
    fn linear_work_counts_macs_bias_and_operands() {
        let dense = linear_work(256, 784, 0.25, false);
        assert_eq!(dense.flops, 2.0 * 256.0 * 784.0 + 256.0);
        assert_eq!(dense.bytes, 4.0 * (256.0 * 784.0 + 784.0 + 512.0));
        let sparse = linear_work(256, 784, 0.25, true);
        assert_eq!(sparse.flops, 2.0 * 256.0 * 196.0 + 256.0);
        assert_eq!(sparse.bytes, 4.0 * (256.0 * 196.0 + 784.0 + 512.0));
    }

    #[test]
    fn conv_and_pool_work_follow_the_lowering() {
        // 16x16 output, 3x3x3 patch, 12 channels.
        let dense = conv_work(256, 27, 12, 0.5, false);
        assert_eq!(dense.flops, 2.0 * 256.0 * 27.0 * 12.0 + 256.0 * 12.0);
        assert_eq!(
            dense.bytes,
            4.0 * (256.0 * 27.0 + 27.0 * 12.0 + 2.0 * 256.0 * 12.0)
        );
        let sparse = conv_work(256, 27, 12, 0.5, true);
        assert_eq!(sparse.flops, 256.0 * 27.0 * 12.0 + 256.0 * 12.0);
        let pool = pool_work(3072, 768);
        assert_eq!(pool.flops, 3840.0);
        assert_eq!(pool.bytes, 4.0 * 3840.0);
    }
}
