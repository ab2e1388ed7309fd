//! Phase coding (weighted spikes).

use nrsnn_tensor::simd::{
    active_backend, phase_bits, phase_bits_value, phase_pow2_sum_with, sum8_by,
};

use crate::coding::{encode_decode_symbols, encode_symbols_into, CodingScratch, SymbolCoding};
use crate::{CodingConfig, CodingKind, NeuralCoding, Result, SnnError, SpikeRaster};

/// Largest period whose phase pattern fits the `u64` bit representation
/// the lane-blocked encode computes; longer periods (beyond any realistic
/// resolution — 64 binary digits exhaust f32 long before) take the legacy
/// greedy path.
const MAX_LANE_PERIOD: u32 = 64;

/// Largest period decoded through the exact integer accumulator: the
/// weighted-spike sum `Σ 2^-(phase+1)` is accumulated as the integer
/// `Σ 2^(period-1-phase)`, which stays exact in a `u64` for any realistic
/// train while `period ≤ 24` keeps the largest per-spike term comfortably
/// below the overflow horizon.  Longer periods keep the float fold.
const MAX_EXACT_PERIOD: u32 = 24;

/// Bounds for the precomputed train and symbol tables: with `period ≤ 8`
/// there are at most 256 distinct bit patterns, so every canonical train
/// for a fixed window is tabulated once (≤ 1 MiB at the step cap, ~48 KiB
/// at the paper's windows) and each neuron's train becomes a single
/// `extend_from_slice` (or, on the clean path, one decode-table lookup).
const PHASE_TABLE_MAX_PERIOD: u32 = 8;
const PHASE_TABLE_MAX_STEPS: u32 = 2048;

/// Phase coding after Kim et al. ("Deep neural networks with weighted
/// spikes"): time is divided into periods of `period` steps driven by a
/// global oscillator, and a spike in phase `k` of a period carries the
/// binary weight `2^-(k+1)`.
///
/// An activation is encoded as its fixed-point binary expansion: the same
/// phase pattern is repeated in every period of the window, and the decoder
/// averages over periods.  Because the synaptic weight of a spike depends on
/// its phase, a one-step jitter changes the contribution of a spike by a
/// factor of two — phase coding is therefore efficient but fragile to jitter
/// (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCoding {
    period: u32,
}

impl PhaseCoding {
    /// Creates a phase coding with the canonical period of 8 phases.
    pub fn new() -> Self {
        PhaseCoding { period: 8 }
    }

    /// Creates a phase coding with a custom period (number of phases).
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] for a zero period: a period of 0
    /// phases carries no bits, and silently clamping it would change the
    /// coding's resolution behind the caller's back.
    pub fn with_period(period: u32) -> Result<Self> {
        if period == 0 {
            return Err(SnnError::InvalidConfig(
                "phase coding period must be at least 1 phase".to_string(),
            ));
        }
        Ok(PhaseCoding { period })
    }

    /// The number of phases per period.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Weight of a spike at absolute time `t`.
    fn phase_weight(&self, t: u32) -> f32 {
        let phase = t % self.period;
        0.5f32.powi(phase as i32 + 1)
    }

    /// The weighted-spike sum of a train as an exact integer: spike at
    /// phase `k` contributes `2^(period-1-k)`, i.e. the float sum
    /// `Σ 2^-(k+1)` scaled by `2^period`.  Integer addition is exact and
    /// associative, so this is independent of spike order, accumulation
    /// strategy and ISA by construction — the decoded value rounds exactly
    /// once, in [`PhaseCoding::scale_exact`].
    /// Exactness also frees the accumulation *shape*: power-of-two periods
    /// (the canonical 8, and every `with_period` of 1/2/4/16) dispatch to
    /// the runtime-selected [`phase_pow2_sum_with`] kernel — per-lane
    /// variable shifts on AVX2, unrolled scalar otherwise — which returns
    /// the identical `u64` on every ISA without any canonical-order
    /// machinery.
    fn weighted_sum_exact(&self, train: &[u32]) -> u64 {
        if self.period.is_power_of_two() {
            phase_pow2_sum_with(active_backend(), train, self.period - 1)
        } else {
            let top = self.period - 1;
            train
                .iter()
                .fold(0u64, |s, &t| s + (1u64 << (top - (t % self.period))))
        }
    }

    /// Scales an exact integer spike sum to the decoded activation:
    /// `θ · (s / 2^period) / num_periods`, evaluated in f64 (both factors
    /// of the denominator are exact) and rounded to f32 once.
    fn scale_exact(&self, s: u64, cfg: &CodingConfig) -> f32 {
        let denom = ((1u64 << self.period) * u64::from(self.num_periods(cfg))) as f64;
        (f64::from(cfg.threshold) * (s as f64) / denom) as f32
    }

    fn num_periods(&self, cfg: &CodingConfig) -> u32 {
        (cfg.time_steps / self.period).max(1)
    }

    /// Fills the per-phase weight (`2^-(k+1)`) and firing-threshold
    /// (`w_k − 1e-6`) tables the bit-pattern kernel consumes.
    fn fill_weight_tables(&self, weights: &mut Vec<f32>, thresholds: &mut Vec<f32>) {
        weights.clear();
        thresholds.clear();
        for k in 0..self.period {
            let w = 0.5f32.powi(k as i32 + 1);
            weights.push(w);
            thresholds.push(w - 1e-6);
        }
    }

    /// Replays one period's bit pattern across every period of the window:
    /// bit `k` of `bits` fires at `p·period + k`, times emitted strictly
    /// ascending and filtered to the window.  The pattern is decomposed
    /// into its set phases once, then replayed per period through
    /// `chunks_exact_mut` — straight adds and stores with no per-spike
    /// bounds or capacity checks (train materialisation is the scalar tail
    /// of the lane-blocked encode, so this loop is the hot path).  A
    /// window of at least one period never clips (`base + k < T` holds for
    /// every complete period), so the `t < T` filter only guards windows
    /// shorter than a single period.
    fn emit_bits(&self, bits: u64, cfg: &CodingConfig, out: &mut Vec<u32>) {
        if bits == 0 {
            return;
        }
        let mut phases = [0u32; MAX_LANE_PERIOD as usize];
        let mut m = 0usize;
        let mut b = bits;
        while b != 0 {
            phases[m] = b.trailing_zeros();
            m += 1;
            b &= b - 1;
        }
        let phases = &phases[..m];
        let periods = self.num_periods(cfg);
        let full = if self.period <= cfg.time_steps {
            periods
        } else {
            0
        };
        let start = out.len();
        out.resize(start + full as usize * m, 0);
        for (p, chunk) in out[start..].chunks_exact_mut(m).enumerate() {
            let base = p as u32 * self.period;
            for (slot, &k) in chunk.iter_mut().zip(phases) {
                *slot = base + k;
            }
        }
        for p in full..periods {
            let base = p * self.period;
            for &k in phases {
                let t = base + k;
                if t < cfg.time_steps {
                    out.push(t);
                }
            }
        }
    }

    /// The original greedy per-period expansion, kept for periods whose bit
    /// pattern does not fit a `u64` (the lane-blocked path covers every
    /// realistic period).
    fn encode_greedy(&self, ratio: f32, cfg: &CodingConfig, out: &mut Vec<u32>) {
        if ratio <= 0.0 {
            return;
        }
        for p in 0..self.num_periods(cfg) {
            let mut rem = ratio;
            for k in 0..self.period {
                let w = 0.5f32.powi(k as i32 + 1);
                if rem >= w - 1e-6 {
                    rem -= w;
                    let t = p * self.period + k;
                    if t < cfg.time_steps {
                        out.push(t);
                    }
                }
            }
        }
    }
}

impl Default for PhaseCoding {
    fn default() -> Self {
        PhaseCoding::new()
    }
}

impl NeuralCoding for PhaseCoding {
    fn name(&self) -> String {
        "phase".to_string()
    }

    fn kind(&self) -> CodingKind {
        CodingKind::Phase
    }

    fn encode(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32> {
        let mut out = Vec::new();
        self.encode_into(activation, cfg, &mut out);
        out
    }

    fn encode_into(&self, activation: f32, cfg: &CodingConfig, out: &mut Vec<u32>) {
        out.clear();
        if self.period > MAX_LANE_PERIOD {
            let ratio = nrsnn_tensor::simd::clamp_ratio(activation, cfg.threshold);
            self.encode_greedy(ratio, cfg, out);
            return;
        }
        let p = self.period as usize;
        let mut weights = [0.0f32; MAX_LANE_PERIOD as usize];
        let mut thresholds = [0.0f32; MAX_LANE_PERIOD as usize];
        for (k, (w, th)) in weights[..p]
            .iter_mut()
            .zip(&mut thresholds[..p])
            .enumerate()
        {
            *w = 0.5f32.powi(k as i32 + 1);
            *th = *w - 1e-6;
        }
        let bits = phase_bits_value(activation, cfg.threshold, &weights[..p], &thresholds[..p]);
        self.emit_bits(bits, cfg, out);
    }

    fn encode_raster_into(
        &self,
        values: &[f32],
        cfg: &CodingConfig,
        raster: &mut SpikeRaster,
        scratch: &mut CodingScratch,
    ) {
        encode_symbols_into(self, values, cfg, raster, scratch);
    }

    fn encode_decode_into(
        &self,
        values: &[f32],
        cfg: &CodingConfig,
        out: &mut Vec<f32>,
        scratch: &mut CodingScratch,
    ) -> (usize, usize) {
        encode_decode_symbols(self, values, cfg, out, scratch)
    }

    fn decode(&self, train: &[u32], cfg: &CodingConfig) -> f32 {
        if train.is_empty() {
            // A silent neuron decodes to exactly +0.0 (the NeuralCoding
            // contract); `Sum`'s float identity is -0.0, which would leak
            // a negative zero out of the empty fold below.
            return 0.0;
        }
        if self.period <= MAX_EXACT_PERIOD {
            return self.scale_exact(self.weighted_sum_exact(train), cfg);
        }
        let periods = self.num_periods(cfg) as f32;
        let sum = sum8_by(train.len(), |i| self.phase_weight(train[i]));
        cfg.threshold * sum / periods
    }
}

/// Symbol: one period's bit pattern (`2^period` of them); its canonical
/// train is [`PhaseCoding::emit_bits`].
impl SymbolCoding for PhaseCoding {
    const TABULATE_TRAINS: bool = true;

    fn structure(&self) -> u32 {
        self.period
    }

    fn symbol_count(&self, cfg: &CodingConfig) -> Option<usize> {
        (self.period <= PHASE_TABLE_MAX_PERIOD && cfg.time_steps <= PHASE_TABLE_MAX_STEPS)
            .then_some(1 << self.period)
    }

    fn head(&self, values: &[f32], cfg: &CodingConfig, scratch: &mut CodingScratch) -> bool {
        if self.period > MAX_LANE_PERIOD {
            return false;
        }
        self.fill_weight_tables(&mut scratch.weights, &mut scratch.thresholds);
        scratch.bits.clear();
        scratch.bits.resize(values.len(), 0);
        phase_bits(
            values,
            cfg.threshold,
            &scratch.weights,
            &scratch.thresholds,
            &mut scratch.bits,
        );
        true
    }

    fn symbol(&self, scratch: &CodingScratch, i: usize, _cfg: &CodingConfig) -> usize {
        scratch.bits[i] as usize
    }

    fn emit(&self, s: usize, cfg: &CodingConfig, out: &mut Vec<u32>) {
        self.emit_bits(s as u64, cfg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_quantisation() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = PhaseCoding::new();
        for v in [0.1, 0.3, 0.5, 0.75, 0.99] {
            let decoded = coding.decode(&coding.encode(v, &cfg), &cfg);
            // 8-bit expansion: resolution 1/256.
            assert!((decoded - v).abs() < 0.01, "v {v} decoded {decoded}");
        }
    }

    #[test]
    fn half_is_a_single_spike_per_period() {
        let cfg = CodingConfig::new(16, 1.0);
        let coding = PhaseCoding::new();
        let spikes = coding.encode(0.5, &cfg);
        // 0.5 = MSB only; two periods of 8 in a 16-step window.
        assert_eq!(spikes, vec![0, 8]);
    }

    #[test]
    fn one_step_jitter_changes_decoded_value_substantially() {
        let cfg = CodingConfig::new(8, 1.0);
        let coding = PhaseCoding::new();
        let spikes = coding.encode(0.5, &cfg); // spike at phase 0
        let jittered: Vec<u32> = spikes.iter().map(|&t| t + 1).collect();
        let clean = coding.decode(&spikes, &cfg);
        let noisy = coding.decode(&jittered, &cfg);
        // Weight halves: 0.5 -> 0.25.
        assert!((clean - 0.5).abs() < 1e-5);
        assert!((noisy - 0.25).abs() < 1e-5);
    }

    #[test]
    fn deletion_is_graded() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = PhaseCoding::new();
        let spikes = coding.encode(0.9, &cfg);
        // Remove one period's worth of spikes: value drops by ~1/num_periods.
        let kept: Vec<u32> = spikes.iter().copied().filter(|&t| t >= 8).collect();
        let decoded = coding.decode(&kept, &cfg);
        let expected = 0.9 * 7.0 / 8.0;
        assert!((decoded - expected).abs() < 0.02, "decoded {decoded}");
    }

    #[test]
    fn custom_period_is_respected() {
        let coding = PhaseCoding::with_period(4).unwrap();
        assert_eq!(coding.period(), 4);
        let cfg = CodingConfig::new(16, 1.0);
        let spikes = coding.encode(0.5, &cfg);
        assert_eq!(spikes.len(), 4); // one MSB spike per 4-step period
    }

    #[test]
    fn zero_period_is_a_typed_error_not_a_silent_clamp() {
        assert!(matches!(
            PhaseCoding::with_period(0),
            Err(SnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn long_periods_fall_back_to_the_greedy_path() {
        // 100 phases exceed the u64 bit representation; the greedy fallback
        // must still produce the canonical expansion for the leading bits
        // (trailing phases below the 1e-6 firing epsilon fire on their own,
        // as they always have — the fallback preserves that verbatim).
        let coding = PhaseCoding::with_period(100).unwrap();
        let cfg = CodingConfig::new(100, 1.0);
        let spikes = coding.encode(0.75, &cfg);
        assert_eq!(&spikes[..2], &[0, 1]); // 0.75 = 2^-1 + 2^-2
        assert!(spikes.windows(2).all(|w| w[0] < w[1]));
        assert!(spikes.iter().all(|&t| t < 100));
        assert!(coding.encode(0.0, &cfg).is_empty());
    }

    #[test]
    fn clipping_at_threshold() {
        let cfg = CodingConfig::new(64, 1.2);
        let coding = PhaseCoding::new();
        let decoded = coding.decode(&coding.encode(5.0, &cfg), &cfg);
        assert!(decoded <= 1.2 + 1e-5);
        assert!(decoded > 1.1);
    }
}
