//! Spike-jitter noise.

use std::fmt;

use rand::RngCore;

use nrsnn_snn::{SpikeRaster, SpikeTransform};

use crate::{NoiseError, Result, UNIT};

/// Half-width of the shift table in units of `σ`: shifts beyond `8.5σ`
/// have probability below `2^-53`, the resolution of one draw.
const TABLE_SIGMAS: f64 = 8.5;

/// Longest window, in time steps, that jitter writes through its on-stack
/// bitmap (`BITMAP_STEPS / 64` words).  Longer windows store the shifted
/// times and leave sort-and-merge to the raster's normalisation.
const BITMAP_STEPS: u32 = 1024;

/// `B`: the guide splits the `2^53` draws into `2^B` equal buckets.
const GUIDE_BITS: u32 = 8;

/// Spike-time jitter: every spike time is shifted by `round(σ·Z)` with
/// `Z ~ N(0, 1)` — a zero-mean Gaussian of standard deviation `σ`
/// quantised to integer time steps — and clamped to the window (the
/// paper's jitter model, §III).
///
/// Jitter corrupts *when* spikes arrive rather than destroying them, so
/// codings that read out timing (phase, TTFS) suffer while rate coding is
/// largely untouched.  Spikes are binary events, though: two spikes of one
/// neuron that collide on the same time step after shifting-and-clamping
/// merge into a single spike, so heavy jitter near the window edges can
/// reduce the spike count — the train, its count, and every decode stay
/// mutually consistent.
///
/// The quantised shift is sampled exactly by inverse CDF: [`JitterNoise::new`]
/// tabulates `cut_k = ⌊Φ((k+½)/σ)·2^53⌋` for `k ∈ [−K, K)`,
/// `K = ⌈8.5σ⌉ + 1`, and each spike draws one RNG word `w` and takes the
/// shift `k` whose cell `[cut_{k−1}, cut_k)` holds `w >> 11`.  A cell's
/// probability is the Gaussian mass of `((k−½)/σ, (k+½)/σ)` to within
/// `2e-15`; the per-spike path calls no libm function.
///
/// The cell is found through a guide table: `guide[b]` counts the cuts at
/// or below `b·2^45`, the lower edge of bucket `b` among `2^8` equal
/// buckets of draws.  A draw in bucket `b` has between `guide[b]` and
/// `guide[b+1]` cuts at or below it, so the lookup binary-searches only
/// that bucket's cuts, and returns exactly the shift a search of the whole
/// table would — the same shift for every RNG word.
///
/// ```
/// use nrsnn_noise::JitterNoise;
/// use nrsnn_snn::{SpikeRaster, SpikeTransform};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), nrsnn_noise::NoiseError> {
/// let noise = JitterNoise::new(2.0)?;
/// let mut raster = SpikeRaster::new(1, 64);
/// raster.set_train(0, vec![10, 20, 30]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let jittered = noise.apply(&raster, &mut rng);
/// // Spike count is preserved; only the timings move.
/// assert_eq!(jittered.total_spikes(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct JitterNoise {
    sigma: f64,
    /// `K`: shifts are confined to `[−K, K]`.
    radius: i64,
    /// `cut_k` for `k = −K … K−1` (index `k + K`), non-decreasing.  Empty
    /// at `σ = 0`, which is the identity and draws nothing.
    cuts: Box<[u64]>,
    /// `2^B + 1` entries: `guide[b]` is the number of cuts `≤ b·2^(53−B)`,
    /// so `guide[2^B] == cuts.len()`.  Empty at `σ = 0`, like `cuts`.
    guide: Box<[u32]>,
}

impl JitterNoise {
    /// Largest accepted `σ`, in time steps.  The shift table holds
    /// `2·(⌈8.5σ⌉ + 1)` words, about 136 KiB at this bound plus the 1 KiB
    /// guide; far larger values (say, read from a model file) would ask
    /// for an unbounded allocation, and already clamp nearly every spike
    /// of any practical window to its edges.
    pub const MAX_SIGMA: f64 = 1024.0;

    /// Creates a jitter model with standard deviation `sigma` (in time
    /// steps) and tabulates its shift distribution.
    ///
    /// # Errors
    /// Returns [`NoiseError::InvalidParameter`] for negative or non-finite
    /// values and for values above [`JitterNoise::MAX_SIGMA`].
    pub fn new(sigma: f64) -> Result<Self> {
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(NoiseError::InvalidParameter(format!(
                "jitter sigma must be a non-negative finite number, got {sigma}"
            )));
        }
        if sigma > Self::MAX_SIGMA {
            return Err(NoiseError::InvalidParameter(format!(
                "jitter sigma must be at most {}, got {sigma}",
                Self::MAX_SIGMA
            )));
        }
        if sigma == 0.0 {
            return Ok(JitterNoise {
                sigma,
                radius: 0,
                cuts: Box::default(),
                guide: Box::default(),
            });
        }
        let radius = (TABLE_SIGMAS * sigma).ceil() as i64 + 1;
        // A running maximum keeps the table sorted where rounding could
        // invert neighbours in the far tail (cells far below 2^-53).
        let mut floor = 0u64;
        let cuts: Box<[u64]> = (-radius..radius)
            .map(|k| {
                let phi = normal_cdf((k as f64 + 0.5) / sigma);
                floor = floor.max(((phi * UNIT).floor() as u64).min(1 << 53));
                floor
            })
            .collect();
        // At most 2·(8704 + 1) cuts (σ = MAX_SIGMA), so counts fit in u32.
        let guide = (0..=1u64 << GUIDE_BITS)
            .map(|b| {
                let edge = b << (53 - GUIDE_BITS);
                cuts.partition_point(|&cut| cut <= edge) as u32
            })
            .collect();
        Ok(JitterNoise {
            sigma,
            radius,
            cuts,
            guide,
        })
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// One quantised shift from one RNG word: the number of cuts at or
    /// below the draw's top 53 bits, re-centred on zero.  Only the cuts in
    /// the draw's guide bucket are searched; the rest are known to lie on
    /// one side of it.
    fn shift(&self, rng: &mut dyn RngCore) -> i64 {
        let draw = rng.next_u64() >> 11;
        let bucket = (draw >> (53 - GUIDE_BITS)) as usize;
        let lo = self.guide[bucket] as usize;
        let hi = self.guide[bucket + 1] as usize;
        let count = lo + self.cuts[lo..hi].partition_point(|&cut| cut <= draw);
        count as i64 - self.radius
    }

    /// Jitters one train in place, one RNG word per spike in spike order —
    /// the single kernel behind `apply`, `apply_into` and `apply_in_place`.
    ///
    /// Windows up to [`BITMAP_STEPS`] set each shifted time in an on-stack
    /// bitmap and read it back in ascending order, which sorts and merges
    /// colliding spikes with no scratch buffer; the train is cleared in
    /// between, so it never needs more than its own capacity.  Longer
    /// windows store the shifted times for the caller's normalisation.
    fn jitter_train(&self, train: &mut Vec<u32>, num_steps: u32, rng: &mut dyn RngCore) {
        if train.is_empty() {
            return;
        }
        let max_t = i64::from(num_steps.saturating_sub(1));
        let mut shifted = |t: u32| (i64::from(t) + self.shift(rng)).clamp(0, max_t) as u32;
        if num_steps > BITMAP_STEPS {
            for t in train.iter_mut() {
                *t = shifted(*t);
            }
            return;
        }
        let mut bitmap = [0u64; (BITMAP_STEPS / 64) as usize];
        for &t in train.iter() {
            let s = shifted(t);
            bitmap[(s >> 6) as usize] |= 1 << (s & 63);
        }
        train.clear();
        let words = (max_t >> 6) as usize + 1;
        for (base, &word) in (0u32..).step_by(64).zip(&bitmap[..words]) {
            let mut word = word;
            while word != 0 {
                train.push(base | word.trailing_zeros());
                word &= word - 1;
            }
        }
    }
}

impl fmt::Debug for JitterNoise {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The shift table is derived from σ; printing it would only bury σ.
        f.debug_struct("JitterNoise")
            .field("sigma", &self.sigma)
            .finish_non_exhaustive()
    }
}

/// The standard normal CDF `Φ(x) = ½(1 + erf(x/√2))`.
fn normal_cdf(x: f64) -> f64 {
    let half_erf = 0.5 * erf(x.abs() * std::f64::consts::FRAC_1_SQRT_2);
    if x < 0.0 {
        0.5 - half_erf
    } else {
        0.5 + half_erf
    }
}

/// `erf(y)` for `y ≥ 0` from the all-positive series
/// `erf(y) = (2/√π)·e^{−y²}·Σ_n (2y²)ⁿ·y / (1·3·…·(2n+1))`: no cancellation,
/// and `Φ` stays within `1e-15` absolute (8 units of `2^-53`) of a reference
/// `erfc` over `[−9, 9]`.  The rounded square enters both `e^{−y²}` and the
/// series, whose dependences on it cancel to first order.
fn erf(y: f64) -> f64 {
    if y >= 8.0 {
        // erfc(8) < 1e-29: indistinguishable from 1 at 2^-53 resolution.
        return 1.0;
    }
    let y2 = y * y;
    let mut term = y;
    let mut sum = y;
    let mut n = 0.0;
    while term > sum * f64::EPSILON * 0.25 {
        n += 1.0;
        term *= 2.0 * y2 / (2.0 * n + 1.0);
        sum += term;
    }
    std::f64::consts::FRAC_2_SQRT_PI * (-y2).exp() * sum
}

impl SpikeTransform for JitterNoise {
    fn apply(&self, raster: &SpikeRaster, rng: &mut dyn RngCore) -> SpikeRaster {
        if self.sigma == 0.0 {
            return raster.clone();
        }
        let num_steps = raster.num_steps();
        raster.map_trains(|_, train| {
            // Silent neurons draw no randomness and need no work — under
            // sparse temporal codings most trains are empty, so the
            // transform's cost tracks the active set, not the layer width.
            let mut shifted = train.to_vec();
            self.jitter_train(&mut shifted, num_steps, rng);
            shifted
        })
    }

    fn apply_into(&self, raster: &SpikeRaster, out: &mut SpikeRaster, rng: &mut dyn RngCore) {
        if self.sigma == 0.0 {
            out.copy_from(raster);
            return;
        }
        let num_steps = raster.num_steps();
        raster.map_trains_into(out, |_, train, shifted| {
            shifted.extend_from_slice(train);
            self.jitter_train(shifted, num_steps, rng);
        });
    }

    fn apply_in_place(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore) {
        if self.sigma == 0.0 {
            return;
        }
        let num_steps = raster.num_steps();
        raster.update_trains(|_, train| self.jitter_train(train, num_steps, rng));
    }

    fn is_identity(&self) -> bool {
        self.sigma == 0.0
    }

    fn describe(&self) -> String {
        format!("jitter(sigma={})", self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedWord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_sigma_rejected() {
        assert!(JitterNoise::new(-1.0).is_err());
        assert!(JitterNoise::new(f64::NAN).is_err());
        assert!(JitterNoise::new(f64::INFINITY).is_err());
        assert!(JitterNoise::new(0.0).is_ok());
    }

    #[test]
    fn sigma_above_the_bound_is_rejected_instead_of_tabulated() {
        let largest = JitterNoise::new(JitterNoise::MAX_SIGMA).unwrap();
        assert_eq!(largest.cuts.len(), 2 * (8704 + 1));
        for sigma in [JitterNoise::MAX_SIGMA * (1.0 + f64::EPSILON), 1e6, 1e300] {
            assert!(
                matches!(
                    JitterNoise::new(sigma),
                    Err(NoiseError::InvalidParameter(_))
                ),
                "sigma {sigma}"
            );
        }
    }

    /// `(cut_k − cut_{k−1}) / 2^53`, the probability of shift `k`.
    fn cell_probability(noise: &JitterNoise, k: i64) -> f64 {
        let index = (k + noise.radius) as usize;
        let upper = noise.cuts.get(index).copied().unwrap_or(1 << 53);
        let lower = index.checked_sub(1).map_or(0, |i| noise.cuts[i]);
        (upper - lower) as f64 / UNIT
    }

    #[test]
    fn cell_probabilities_match_hand_listed_normal_masses() {
        // (σ, k, Φ((k−½)/σ), Φ((k+½)/σ)), listed from a reference erfc.
        const CELLS: [(f64, i64, f64, f64); 16] = [
            (0.5, 0, 0.15865525393145707, 0.8413447460685429), // Φ(-1), Φ(1)
            (0.5, 1, 0.8413447460685429, 0.9986501019683699),  // Φ(1), Φ(3)
            (0.5, 2, 0.9986501019683699, 0.9999997133484281),  // Φ(3), Φ(5)
            (0.5, 3, 0.9999997133484281, 0.9999999999987201),  // Φ(5), Φ(7)
            (1.0, 0, 0.3085375387259869, 0.6914624612740131),  // Φ(-0.5), Φ(0.5)
            (1.0, 1, 0.6914624612740131, 0.9331927987311419),  // Φ(0.5), Φ(1.5)
            (1.0, 2, 0.9331927987311419, 0.9937903346742238),  // Φ(1.5), Φ(2.5)
            (1.0, 3, 0.9937903346742238, 0.9997673709209645),  // Φ(2.5), Φ(3.5)
            (4.0, 0, 0.4502617751698871, 0.5497382248301129),  // Φ(-0.125), Φ(0.125)
            (4.0, 1, 0.5497382248301129, 0.6461697666727237),  // Φ(0.125), Φ(0.375)
            (4.0, 2, 0.6461697666727237, 0.7340144709512995),  // Φ(0.375), Φ(0.625)
            (4.0, 8, 0.9696036382347386, 0.9832066935515512),  // Φ(1.875), Φ(2.125)
            (40.0, 0, 0.49501335135596203, 0.504986648644038), // Φ(-0.0125), Φ(0.0125)
            (40.0, 1, 0.504986648644038, 0.5149568299259097),  // Φ(0.0125), Φ(0.0375)
            (40.0, 40, 0.8383012085427143, 0.8443504766532315), // Φ(0.9875), Φ(1.0125)
            (40.0, 80, 0.9765664920471818, 0.9779163716597449), // Φ(1.9875), Φ(2.0125)
        ];
        for (sigma, k, phi_lo, phi_hi) in CELLS {
            let noise = JitterNoise::new(sigma).unwrap();
            let expected = phi_hi - phi_lo;
            // The Gaussian is symmetric: shift −k is as likely as k.
            for shift in [k, -k] {
                let got = cell_probability(&noise, shift);
                assert!(
                    (got - expected).abs() < 1e-12,
                    "sigma {sigma} shift {shift}: {got} vs {expected}"
                );
            }
        }
        // The cells partition the unit interval, and the two edge cells
        // (which absorb the tails beyond ±K) are below one draw in 2^52.
        for sigma in [0.5, 1.0, 4.0, 40.0] {
            let noise = JitterNoise::new(sigma).unwrap();
            let total: f64 = (-noise.radius..=noise.radius)
                .map(|k| cell_probability(&noise, k))
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "sigma {sigma}: {total}");
            assert!(noise.cuts.windows(2).all(|w| w[0] <= w[1]));
            assert!(cell_probability(&noise, -noise.radius) <= 2.0 / UNIT);
            assert!(cell_probability(&noise, noise.radius) <= 2.0 / UNIT);
        }
    }

    /// The shift for a 53-bit draw from a search of the whole cut table —
    /// the oracle for the guide lookup in `JitterNoise::shift`.
    fn full_table_shift(noise: &JitterNoise, draw: u64) -> i64 {
        noise.cuts.partition_point(|&cut| cut <= draw) as i64 - noise.radius
    }

    #[test]
    fn guide_lookup_matches_full_table_search() {
        const TOP: u64 = (1 << 53) - 1;
        let sigmas = (1..=8).map(|i| f64::from(i) * 0.5);
        for sigma in sigmas.chain([40.0, JitterNoise::MAX_SIGMA]) {
            let noise = JitterNoise::new(sigma).unwrap();
            assert_eq!(noise.guide.len(), (1 << GUIDE_BITS) + 1, "sigma {sigma}");
            assert_eq!(
                noise.guide[1 << GUIDE_BITS] as usize,
                noise.cuts.len(),
                "sigma {sigma}"
            );
            assert!(
                noise.guide.windows(2).all(|w| w[0] <= w[1]),
                "sigma {sigma}"
            );
            // Every cut and bucket edge (0 … 2^53) with its neighbours, then
            // random draws.
            let edges = (0..=1u64 << GUIDE_BITS).map(|b| b << (53 - GUIDE_BITS));
            let mut random = StdRng::seed_from_u64(sigma.to_bits());
            let draws = noise
                .cuts
                .iter()
                .copied()
                .chain(edges)
                .flat_map(|x| [x.saturating_sub(1), x, x + 1])
                .chain((0..100_000).map(|_| random.next_u64() >> 11))
                .map(|d| d.min(TOP));
            for draw in draws {
                // The low 11 bits are set: the lookup must ignore them.
                let got = noise.shift(&mut FixedWord(draw << 11 | 0x7ff));
                assert_eq!(
                    got,
                    full_table_shift(&noise, draw),
                    "sigma {sigma} draw {draw}"
                );
            }
        }
    }

    /// Every spike time shifted by its own draw, clamped, then sorted and
    /// merged: the oracle for both of the kernel's branches.
    fn shift_sort_merge(
        noise: &JitterNoise,
        raster: &SpikeRaster,
        rng: &mut dyn RngCore,
    ) -> Vec<Vec<u32>> {
        let max_t = i64::from(raster.num_steps() - 1);
        raster
            .iter()
            .map(|(_, train)| {
                let mut out: Vec<u32> = train
                    .iter()
                    .map(|&t| {
                        let shift = full_table_shift(noise, rng.next_u64() >> 11);
                        (i64::from(t) + shift).clamp(0, max_t) as u32
                    })
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect()
    }

    /// Rasters on both sides of the bitmap window (`T ≤ 1024` merges in
    /// the bitmap, `T = 1025` re-sorts): strided, edge-pinned, silent,
    /// single and saturated trains.
    fn window_rasters() -> Vec<SpikeRaster> {
        [64u32, 128, 1024, 1025]
            .into_iter()
            .map(|steps| {
                let last = steps - 1;
                let trains = vec![
                    (0..steps).step_by(3).collect(),
                    vec![0, 1, last - 1, last],
                    vec![],
                    vec![steps / 2],
                    (0..steps).collect(),
                ];
                SpikeRaster::from_trains(trains, steps)
            })
            .collect()
    }

    #[test]
    fn bitmap_and_resort_paths_match_shift_sort_merge() {
        for raster in window_rasters() {
            for sigma in [0.5, 2.0, 40.0] {
                let noise = JitterNoise::new(sigma).unwrap();
                let mut rng = StdRng::seed_from_u64(u64::from(raster.num_steps()));
                let mut rng_oracle = rng.clone();
                let out = noise.apply(&raster, &mut rng);
                let oracle = shift_sort_merge(&noise, &raster, &mut rng_oracle);
                let label = format!("T {} sigma {sigma}", raster.num_steps());
                for (n, train) in out.iter() {
                    assert_eq!(train, oracle[n].as_slice(), "{label} neuron {n}");
                }
                assert_eq!(rng, rng_oracle, "{label}");
            }
        }
    }

    #[test]
    fn jitter_stream_is_one_word_per_spike() {
        let raster = SpikeRaster::from_trains(vec![(0..40).collect(), vec![], vec![3, 9]], 48);
        let mut rng = StdRng::seed_from_u64(9);
        let mut words = rng.clone();
        JitterNoise::new(1.5)
            .unwrap()
            .apply_in_place(&mut raster.clone(), &mut rng);
        for _ in 0..raster.total_spikes() {
            words.next_u64();
        }
        assert_eq!(rng, words);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let raster = SpikeRaster::from_trains(vec![vec![1, 5, 9]], 16);
        let mut rng = StdRng::seed_from_u64(0);
        let out = JitterNoise::new(0.0).unwrap().apply(&raster, &mut rng);
        assert_eq!(out, raster);
    }

    #[test]
    fn jitter_never_creates_spikes_and_keeps_trains_binary() {
        let raster = SpikeRaster::from_trains(vec![(0..50).collect(), (10..30).collect()], 64);
        let mut rng = StdRng::seed_from_u64(1);
        let out = JitterNoise::new(3.0).unwrap().apply(&raster, &mut rng);
        // Jitter deletes nothing, but colliding spikes merge: the count can
        // only shrink, and every train stays strictly increasing.
        assert!(out.total_spikes() <= raster.total_spikes());
        assert!(out.total_spikes() > 0);
        for (_, train) in out.iter() {
            assert!(train.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Regression for jitter collisions at the window edges: spikes pinned
    /// at the first and last steps get clamped onto each other under heavy
    /// jitter, and the resulting trains must stay duplicate-free so
    /// train-based counts, dense 0/1 views and PSC decodes all agree.
    #[test]
    fn clamped_collisions_at_window_edges_merge_instead_of_duplicating() {
        let steps = 16u32;
        let raster =
            SpikeRaster::from_trains(vec![vec![0, 1, 2], vec![13, 14, 15], vec![0, 15]], steps);
        let noise = JitterNoise::new(40.0).unwrap(); // almost every spike clamps
        let mut merged_somewhere = false;
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = noise.apply(&raster, &mut rng);
            for (n, train) in out.iter() {
                // Strictly increasing == sorted and duplicate-free.
                assert!(
                    train.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} neuron {n}: {train:?}"
                );
                assert!(train.iter().all(|&t| t < steps));
                // The per-train count is the train length by construction;
                // a dense 0/1 view over the window carries the same count.
                let dense_count = (0..steps).filter(|t| train.contains(t)).count();
                assert_eq!(dense_count, train.len(), "seed {seed} neuron {n}");
            }
            if out.total_spikes() < raster.total_spikes() {
                merged_somewhere = true;
            }
        }
        // With σ = 40 on a 16-step window, collisions are guaranteed to
        // have happened across 32 seeds.
        assert!(merged_somewhere, "expected at least one clamped collision");
    }

    #[test]
    fn jittered_times_stay_inside_window() {
        let raster = SpikeRaster::from_trains(vec![vec![0, 1, 62, 63]], 64);
        let mut rng = StdRng::seed_from_u64(2);
        let out = JitterNoise::new(10.0).unwrap().apply(&raster, &mut rng);
        assert!(out.train(0).iter().all(|&t| t < 64));
    }

    #[test]
    fn average_shift_is_roughly_zero_and_spread_grows_with_sigma() {
        // One spike per neuron (trains are binary: 4000 coincident spikes
        // on one neuron would merge), all at t = 500 far from the clamps.
        let trains: Vec<Vec<u32>> = (0..4000).map(|_| vec![500]).collect();
        let raster = SpikeRaster::from_trains(trains, 1000);
        let mut rng = StdRng::seed_from_u64(3);
        for sigma in [1.0f64, 3.0] {
            let out = JitterNoise::new(sigma).unwrap().apply(&raster, &mut rng);
            let shifts: Vec<f64> = out
                .iter()
                .flat_map(|(_, t)| t.iter())
                .map(|&t| t as f64 - 500.0)
                .collect();
            assert_eq!(shifts.len(), 4000);
            let mean = shifts.iter().sum::<f64>() / shifts.len() as f64;
            let var =
                shifts.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / shifts.len() as f64;
            assert!(mean.abs() < 0.2, "sigma {sigma}: mean {mean}");
            assert!(
                (var.sqrt() - sigma).abs() < 0.35,
                "sigma {sigma}: std {}",
                var.sqrt()
            );
        }
    }

    #[test]
    fn describe_mentions_sigma() {
        assert!(JitterNoise::new(2.5).unwrap().describe().contains("2.5"));
    }

    #[test]
    fn apply_into_matches_apply_with_identical_rng_consumption() {
        for raster in window_rasters() {
            for sigma in [0.0, 0.5, 2.0, 40.0] {
                let noise = JitterNoise::new(sigma).unwrap();
                let mut rng_a = StdRng::seed_from_u64(21);
                let mut rng_b = StdRng::seed_from_u64(21);
                let reference = noise.apply(&raster, &mut rng_a);
                let mut reused = SpikeRaster::new(9, 9); // wrong shape: must be reset
                noise.apply_into(&raster, &mut reused, &mut rng_b);
                let label = format!("T {} sigma {sigma}", raster.num_steps());
                assert_eq!(reused, reference, "{label}");
                assert_eq!(rng_a, rng_b, "{label}");
            }
        }
    }

    #[test]
    fn apply_in_place_matches_apply_with_identical_rng_consumption() {
        for raster in window_rasters() {
            for sigma in [0.0, 0.5, 2.0, 40.0] {
                let noise = JitterNoise::new(sigma).unwrap();
                let mut rng_a = StdRng::seed_from_u64(41);
                let mut rng_b = StdRng::seed_from_u64(41);
                let reference = noise.apply(&raster, &mut rng_a);
                let mut in_place = raster.clone();
                noise.apply_in_place(&mut in_place, &mut rng_b);
                let label = format!("T {} sigma {sigma}", raster.num_steps());
                assert_eq!(in_place, reference, "{label}");
                assert_eq!(rng_a, rng_b, "{label}");
            }
        }
    }

    #[test]
    fn is_identity_only_at_zero_sigma() {
        assert!(JitterNoise::new(0.0).unwrap().is_identity());
        assert!(!JitterNoise::new(0.5).unwrap().is_identity());
    }
}
