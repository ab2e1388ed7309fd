//! Spike-deletion noise.

use rand::RngCore;

use nrsnn_snn::{SpikeRaster, SpikeTransform};

use crate::{NoiseError, Result, UNIT};

/// Independent per-spike deletion: every transmitted spike is dropped with
/// probability `p` (the paper's deletion model, §III).
///
/// Deletion destroys part of the post-synaptic-current sum; how much of the
/// carried *value* is destroyed depends entirely on the neural coding —
/// graded for rate/phase/burst, all-or-none for TTFS, near-all-or-none for
/// TTAS — which is the core observation of the paper.
///
/// Each spike draws one RNG word `w` and survives iff its uniform
/// `u = (w >> 11)·2^-53` satisfies `u ≥ p`.  Because `u` is an exact
/// multiple of `2^-53`, that test is evaluated as the integer comparison
/// `w >> 11 ≥ ⌈p·2^53⌉` against a cut computed once in
/// [`DeletionNoise::new`], and survivors are compacted without a branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeletionNoise {
    probability: f64,
    /// `⌈p·2^53⌉`: a spike whose draw has its top 53 bits below the cut is
    /// deleted.
    cut: u64,
}

impl DeletionNoise {
    /// Creates a deletion model with drop probability `probability`.
    ///
    /// # Errors
    /// Returns [`NoiseError::InvalidParameter`] unless `0.0 ≤ p ≤ 1.0`.
    pub fn new(probability: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&probability) || probability.is_nan() {
            return Err(NoiseError::InvalidParameter(format!(
                "deletion probability must be in [0, 1], got {probability}"
            )));
        }
        Ok(DeletionNoise {
            probability,
            cut: survival_cut(probability),
        })
    }

    /// The configured deletion probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Keeps each spike of `train` with probability `1 − p`, one RNG word
    /// per spike in spike order — the single kernel behind `apply`,
    /// `apply_into` and `apply_in_place`.  Order is preserved, so the train
    /// stays canonical.
    fn retain_train(&self, train: &mut Vec<u32>, rng: &mut dyn RngCore) {
        let mut kept = 0;
        for i in 0..train.len() {
            // Write unconditionally, advance only on survival: `kept ≤ i`,
            // so the write never clobbers an unread spike.
            train[kept] = train[i];
            kept += usize::from(rng.next_u64() >> 11 >= self.cut);
        }
        train.truncate(kept);
    }
}

/// `⌈p·2^53⌉`, the integer form of the survival test `u ≥ p` for the
/// 53-bit uniforms `u = m·2^-53`: `m·2^-53 ≥ p ⇔ m ≥ p·2^53 ⇔ m ≥ ⌈p·2^53⌉`.
/// Scaling by a power of two is exact, so the cut is exact for every `p` in
/// `[0, 1]`.
fn survival_cut(p: f64) -> u64 {
    (p * UNIT).ceil() as u64
}

impl SpikeTransform for DeletionNoise {
    fn apply(&self, raster: &SpikeRaster, rng: &mut dyn RngCore) -> SpikeRaster {
        if self.probability == 0.0 {
            return raster.clone();
        }
        raster.map_trains(|_, train| {
            // Silent neurons draw no randomness and need no work — under
            // sparse temporal codings most trains are empty, so the
            // transform's cost tracks the active set, not the layer width.
            let mut kept = train.to_vec();
            self.retain_train(&mut kept, rng);
            kept
        })
    }

    fn apply_into(&self, raster: &SpikeRaster, out: &mut SpikeRaster, rng: &mut dyn RngCore) {
        if self.probability == 0.0 {
            out.copy_from(raster);
            return;
        }
        raster.map_trains_into(out, |_, train, kept| {
            kept.extend_from_slice(train);
            self.retain_train(kept, rng);
        });
    }

    fn apply_in_place(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore) {
        if self.probability == 0.0 {
            return;
        }
        raster.update_trains(|_, train| self.retain_train(train, rng));
    }

    fn is_identity(&self) -> bool {
        self.probability == 0.0
    }

    fn describe(&self) -> String {
        format!("deletion(p={})", self.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedWord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Whether the kernel keeps a one-spike train under word `w`, next to
    /// the floating-point reference `unit(w) >= p` it replaces.
    fn kernel_and_reference(p: f64, w: u64) -> (bool, bool) {
        let noise = DeletionNoise::new(p).unwrap();
        let mut train = vec![7];
        noise.retain_train(&mut train, &mut FixedWord(w));
        (train == [7], FixedWord(w).gen::<f64>() >= p)
    }

    fn dense_raster(neurons: usize, steps: u32) -> SpikeRaster {
        let trains = (0..neurons).map(|_| (0..steps).collect()).collect();
        SpikeRaster::from_trains(trains, steps)
    }

    #[test]
    fn invalid_probabilities_rejected() {
        assert!(DeletionNoise::new(-0.1).is_err());
        assert!(DeletionNoise::new(1.5).is_err());
        assert!(DeletionNoise::new(f64::NAN).is_err());
        assert!(DeletionNoise::new(0.0).is_ok());
        assert!(DeletionNoise::new(1.0).is_ok());
    }

    #[test]
    fn zero_probability_is_identity() {
        let raster = dense_raster(3, 50);
        let mut rng = StdRng::seed_from_u64(0);
        let out = DeletionNoise::new(0.0).unwrap().apply(&raster, &mut rng);
        assert_eq!(out, raster);
    }

    #[test]
    fn full_probability_deletes_everything() {
        let raster = dense_raster(3, 50);
        let mut rng = StdRng::seed_from_u64(0);
        let out = DeletionNoise::new(1.0).unwrap().apply(&raster, &mut rng);
        assert_eq!(out.total_spikes(), 0);
    }

    #[test]
    fn survival_fraction_is_close_to_one_minus_p() {
        let raster = dense_raster(100, 100); // 10_000 spikes
        let mut rng = StdRng::seed_from_u64(7);
        for p in [0.2, 0.5, 0.8] {
            let out = DeletionNoise::new(p).unwrap().apply(&raster, &mut rng);
            let survived = out.total_spikes() as f64 / 10_000.0;
            assert!(
                (survived - (1.0 - p)).abs() < 0.03,
                "p {p}: survived {survived}"
            );
        }
    }

    #[test]
    fn surviving_spike_times_are_a_subset() {
        let raster = SpikeRaster::from_trains(vec![vec![3, 7, 11, 19]], 32);
        let mut rng = StdRng::seed_from_u64(3);
        let out = DeletionNoise::new(0.5).unwrap().apply(&raster, &mut rng);
        for &t in out.train(0) {
            assert!(raster.train(0).contains(&t));
        }
    }

    #[test]
    fn describe_mentions_probability() {
        assert!(DeletionNoise::new(0.3).unwrap().describe().contains("0.3"));
    }

    #[test]
    fn apply_into_matches_apply_with_identical_rng_consumption() {
        let raster = dense_raster(7, 40);
        for p in [0.0, 0.3, 0.8, 1.0] {
            let noise = DeletionNoise::new(p).unwrap();
            let mut rng_a = StdRng::seed_from_u64(11);
            let mut rng_b = StdRng::seed_from_u64(11);
            let reference = noise.apply(&raster, &mut rng_a);
            let mut reused = SpikeRaster::new(1, 2); // wrong shape: must be reset
            noise.apply_into(&raster, &mut reused, &mut rng_b);
            assert_eq!(reused, reference, "p {p}");
            // Both paths must have advanced the RNG identically.
            assert_eq!(rng_a, rng_b, "p {p}");
        }
    }

    #[test]
    fn apply_in_place_matches_apply_with_identical_rng_consumption() {
        let raster = dense_raster(5, 30);
        for p in [0.0, 0.4, 1.0] {
            let noise = DeletionNoise::new(p).unwrap();
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = StdRng::seed_from_u64(31);
            let reference = noise.apply(&raster, &mut rng_a);
            let mut in_place = raster.clone();
            noise.apply_in_place(&mut in_place, &mut rng_b);
            assert_eq!(in_place, reference, "p {p}");
            assert_eq!(rng_a, rng_b, "p {p}");
        }
    }

    #[test]
    fn integer_cut_matches_the_float_test_at_the_boundary() {
        let tiny = 1.0 / UNIT;
        for p in [tiny, 0.1, 0.5, 0.9, 1.0 - tiny, 1.0] {
            let cut = survival_cut(p);
            // Top-53-bit values either side of the cut, with the 11 low
            // bits (which `unit` discards) set to prove they are ignored.
            for m in [cut.wrapping_sub(1), cut, cut + 1] {
                if m >= 1 << 53 {
                    continue;
                }
                let (kernel, reference) = kernel_and_reference(p, m << 11 | 0x7ff);
                assert_eq!(kernel, reference, "p {p}: m {m} (cut {cut})");
            }
        }
        assert_eq!(survival_cut(0.5), 1 << 52);
        assert_eq!(survival_cut(1.0), 1 << 53, "p = 1 deletes every draw");
    }

    proptest! {
        #[test]
        fn integer_cut_matches_the_float_test(p in 0.0f64..1.0, w in 0u64..u64::MAX) {
            let (kernel, reference) = kernel_and_reference(p, w);
            prop_assert_eq!(kernel, reference);
        }
    }

    #[test]
    fn deletion_stream_is_one_word_per_spike() {
        let raster = dense_raster(4, 25); // 100 spikes
        let mut rng = StdRng::seed_from_u64(5);
        let mut words = rng.clone();
        DeletionNoise::new(0.4)
            .unwrap()
            .apply_in_place(&mut raster.clone(), &mut rng);
        for _ in 0..100 {
            words.next_u64();
        }
        assert_eq!(rng, words);
    }

    #[test]
    fn is_identity_only_at_zero_probability() {
        assert!(DeletionNoise::new(0.0).unwrap().is_identity());
        assert!(!DeletionNoise::new(0.01).unwrap().is_identity());
    }
}
