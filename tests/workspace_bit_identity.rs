//! Bit-identity contract of the allocation-free simulation engine.
//!
//! The workspace path (`simulate_with` / `simulate_batch` and the chunked
//! sweep engine built on them) must produce **byte-for-byte** the same
//! results as the seed per-sample path, which is preserved verbatim as
//! [`SnnNetwork::simulate_unbuffered`].  These tests pin that contract at
//! three levels: single inference, batched inference with workspace reuse,
//! and full sweep grids (`SweepPoint`s) at 1 and 4 worker threads.

use nrsnn::prelude::*;
use nrsnn_data::DatasetSpec;
use nrsnn_runtime::{derive_seed, parallel_map, ParallelConfig};
use nrsnn_snn::{BurstCoding, PhaseCoding, RateCoding, SimulationOutcome, SnnLayer, TtfsCoding};
use nrsnn_tensor::{Conv2dGeometry, Pool2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_pipeline() -> TrainedPipeline {
    let config = PipelineConfig {
        dataset: DatasetSpec::mnist_like().with_samples(90, 36),
        model: ModelKind::Mlp,
        dropout: 0.1,
        epochs: 6,
        batch_size: 18,
        learning_rate: 2e-3,
        percentile: 99.9,
        seed: 13,
    };
    TrainedPipeline::build(&config).expect("pipeline must build")
}

fn tiny_sweep() -> SweepConfig {
    SweepConfig {
        time_steps: 48,
        eval_samples: 20,
        seed: 77,
    }
}

fn all_codings() -> Vec<CodingKind> {
    vec![
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Burst,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ]
}

fn noise_models() -> Vec<(&'static str, Box<dyn SpikeTransform>)> {
    vec![
        ("identity", Box::new(IdentityTransform)),
        ("deletion0", Box::new(DeletionNoise::new(0.0).unwrap())),
        ("deletion", Box::new(DeletionNoise::new(0.35).unwrap())),
        ("jitter", Box::new(JitterNoise::new(1.5).unwrap())),
        (
            "composite",
            Box::new(
                CompositeNoise::new()
                    .then(DeletionNoise::new(0.2).unwrap())
                    .then(JitterNoise::new(1.0).unwrap()),
            ),
        ),
    ]
}

fn assert_outcomes_byte_identical(a: &SimulationOutcome, b: &SimulationOutcome, context: &str) {
    assert_eq!(a.predicted, b.predicted, "{context}: predicted");
    assert_eq!(a.total_spikes, b.total_spikes, "{context}: total spikes");
    assert_eq!(
        a.spikes_per_layer, b.spikes_per_layer,
        "{context}: spikes per layer"
    );
    let a_bits: Vec<u32> = a.logits.iter().map(|v| v.to_bits()).collect();
    let b_bits: Vec<u32> = b.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{context}: logit bits");
}

/// Property-style sweep: for every (coding × noise × sample), the workspace
/// wrapper `simulate` must reproduce the reference `simulate_unbuffered`
/// byte for byte, including the RNG stream it leaves behind.
#[test]
fn simulate_matches_unbuffered_reference_bitwise() {
    let pipeline = tiny_pipeline();
    let network = pipeline.to_snn(&WeightScaling::none()).unwrap();
    let cfg = CodingConfig::new(48, 1.0);
    let inputs = &pipeline.dataset().test.inputs;

    for kind in all_codings() {
        let coding = kind.build();
        for (noise_name, noise) in noise_models() {
            for sample in 0..6 {
                let row = inputs.row(sample).unwrap();
                let seed = derive_seed(999, sample as u64);
                let mut rng_ref = StdRng::seed_from_u64(seed);
                let mut rng_ws = StdRng::seed_from_u64(seed);
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ref,
                    )
                    .unwrap();
                let outcome = network
                    .simulate(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ws,
                    )
                    .unwrap();
                let context = format!("{} under {noise_name} sample {sample}", kind.label());
                assert_outcomes_byte_identical(&reference, &outcome, &context);
                assert_eq!(rng_ref, rng_ws, "{context}: RNG stream diverged");
            }
        }
    }
}

/// A deterministic Conv → AvgPool → Linear network: exercises the
/// convolution (the direct kernel over its unfold scratch, 36 output
/// positions: one 32-wide register chunk plus the sequential tail) and
/// pooling arms of `forward_analog_into`, which the MLP pipelines never
/// touch.  The reference path runs the convolution as plain loops.
fn conv_network() -> SnnNetwork {
    let fill = |rows: usize, cols: usize, scale: f32| -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31 + 7) % 19) as f32 / 19.0 * scale - scale / 4.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    };
    // 1x6x6 input -> conv(2ch, k3, s1, p1) -> 2x6x6 -> avgpool(2x2) ->
    // 2x3x3 -> linear -> 4 logits.
    let conv_geom = Conv2dGeometry::new(1, 6, 6, 3, 1, 1).unwrap();
    let pool_geom = Pool2dGeometry::new(2, 6, 6, 2, 2).unwrap();
    SnnNetwork::new(vec![
        SnnLayer::Conv {
            weights: fill(2, conv_geom.patch_len(), 0.5),
            bias: Tensor::from_slice(&[0.05, -0.02]),
            geometry: conv_geom,
        },
        SnnLayer::AvgPool {
            geometry: pool_geom,
        },
        SnnLayer::Linear {
            weights: fill(4, pool_geom.out_len(), 0.7),
            bias: Tensor::zeros(&[4]),
        },
    ])
    .unwrap()
}

/// The convolution and pooling arms of the workspace path must match the
/// allocating reference byte for byte, one-shot and batched, across every
/// coding and noise model.
#[test]
fn conv_and_pool_layers_match_unbuffered_reference_bitwise() {
    let network = conv_network();
    let cfg = CodingConfig::new(40, 1.0);
    let samples = 5usize;
    let inputs = Tensor::from_vec(
        (0..samples * 36)
            .map(|i| ((i * 17 + 3) % 23) as f32 / 23.0)
            .collect(),
        &[samples, 36],
    )
    .unwrap();

    let mut ws = SimWorkspace::new();
    let mut outcomes: Vec<BatchOutcome> = Vec::new();
    for kind in all_codings() {
        let coding = kind.build();
        for (noise_name, noise) in noise_models() {
            // One-shot wrapper vs reference, byte for byte.
            for sample in 0..samples {
                let row = inputs.row(sample).unwrap();
                let seed = derive_seed(31, sample as u64);
                let mut rng_ref = StdRng::seed_from_u64(seed);
                let mut rng_ws = StdRng::seed_from_u64(seed);
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ref,
                    )
                    .unwrap();
                let outcome = network
                    .simulate(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ws,
                    )
                    .unwrap();
                let context = format!("conv {} under {noise_name} sample {sample}", kind.label());
                assert_outcomes_byte_identical(&reference, &outcome, &context);
                assert_eq!(rng_ref, rng_ws, "{context}: RNG stream diverged");
            }
            // Batched path with a workspace reused across everything.
            network
                .simulate_batch(
                    &inputs,
                    0..samples,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    |sample| StdRng::seed_from_u64(derive_seed(31, sample as u64)),
                    &mut ws,
                    &mut outcomes,
                )
                .unwrap();
            for (sample, outcome) in outcomes.iter().enumerate() {
                let row = inputs.row(sample).unwrap();
                let mut rng = StdRng::seed_from_u64(derive_seed(31, sample as u64));
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng,
                    )
                    .unwrap();
                assert_eq!(
                    (outcome.predicted, outcome.total_spikes),
                    (reference.predicted, reference.total_spikes),
                    "conv batch: {} under {noise_name} sample {sample}",
                    kind.label()
                );
            }
        }
    }
}

/// One workspace reused across a whole batch — and across codings and noise
/// models — must equal the reference path sample by sample.
#[test]
fn simulate_batch_with_reused_workspace_matches_reference() {
    let pipeline = tiny_pipeline();
    let network = pipeline.to_snn(&WeightScaling::none()).unwrap();
    let cfg = CodingConfig::new(48, 1.0);
    let inputs = &pipeline.dataset().test.inputs;
    let samples = 12usize;
    let base_seed = 4242u64;

    // Deliberately one workspace and one outcome buffer for everything.
    let mut ws = SimWorkspace::new();
    let mut outcomes: Vec<BatchOutcome> = Vec::new();

    for kind in all_codings() {
        let coding = kind.build();
        for (noise_name, noise) in noise_models() {
            network
                .simulate_batch(
                    inputs,
                    0..samples,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    |sample| StdRng::seed_from_u64(derive_seed(base_seed, sample as u64)),
                    &mut ws,
                    &mut outcomes,
                )
                .unwrap();
            assert_eq!(outcomes.len(), samples);
            for (sample, outcome) in outcomes.iter().enumerate() {
                let row = inputs.row(sample).unwrap();
                let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, sample as u64));
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng,
                    )
                    .unwrap();
                assert_eq!(
                    outcome.predicted,
                    reference.predicted,
                    "{} under {noise_name} sample {sample}",
                    kind.label()
                );
                assert_eq!(
                    outcome.total_spikes,
                    reference.total_spikes,
                    "{} under {noise_name} sample {sample}",
                    kind.label()
                );
            }
        }
    }
}

/// A deterministic hand-built MLP for the scalar-vs-SIMD matrix: small
/// enough that the full `(coding × noise × batch) × ISA` grid runs in
/// seconds, with signed weights, a signed-zero bias entry and inputs
/// containing exact zeros (silent input neurons).
fn matrix_network() -> SnnNetwork {
    let fill = |rows: usize, cols: usize, scale: f32| -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 37 + 11) % 23) as f32 / 23.0 * scale - scale / 3.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    };
    let mut bias0 = vec![0.01f32; 18];
    bias0[3] = -0.0; // the signed-zero corner rides through every combo
    SnnNetwork::new(vec![
        SnnLayer::Linear {
            weights: fill(18, 24, 0.6),
            bias: Tensor::from_vec(bias0, &[18]).unwrap(),
        },
        SnnLayer::Linear {
            weights: fill(6, 18, 0.8),
            bias: Tensor::zeros(&[6]),
        },
    ])
    .unwrap()
}

fn matrix_inputs(samples: usize, width: usize) -> Tensor {
    let data: Vec<f32> = (0..samples * width)
        .map(|i| match i % 5 {
            0 => 0.0, // exact zeros: silent input neurons
            r => ((i * 13 + 5) % 29) as f32 / 29.0 * (r as f32 / 4.0),
        })
        .collect();
    Tensor::from_vec(data, &[samples, width]).unwrap()
}

/// Scalar-vs-SIMD matrix: 5 codings × {identity, deletion, jitter,
/// composite} ×
/// batch sizes 1..=16 × every ISA the host CPU supports, with the scalar
/// reference run both serially and fanned over 4 worker threads (the two
/// digests must agree bit for bit).  The per-ISA digests — outcomes and logit bits, a few draws from the
/// post-simulation RNG (so stream divergence is caught), and a conv →
/// pool → linear probe (so the conv/pooling arms ride through the same
/// matrix) — must be identical to the scalar backend's digest.  Together
/// with the lane-blocked coding layer this covers the *entire* noisy
/// pipeline per ISA — block encode → noise → block decode → forward — and
/// the clean path, which decodes each layer from per-symbol tables.  This
/// is the end-to-end half of the SIMD bit-identity contract; the
/// kernel-level half lives in `crates/tensor/tests/simd_kernel_proptest.rs`
/// and the coding-layer half in `crates/snn/tests/coding_simd_proptest.rs`.
#[test]
fn scalar_and_simd_backends_are_byte_identical_across_the_matrix() {
    use nrsnn_tensor::simd::{available_backends, set_backend, SimdBackend};
    use rand::Rng;

    let network = matrix_network();
    let inputs = matrix_inputs(16, 24);
    let conv_net = conv_network();
    let conv_inputs = matrix_inputs(2, 36);
    let conv_cfg = CodingConfig::new(40, 1.0);
    let cfg = CodingConfig::new(48, 1.0);
    let noise_names = ["identity", "deletion", "jitter", "composite"];
    let build_noise = |name: &str| -> Box<dyn SpikeTransform> {
        match name {
            "identity" => Box::new(IdentityTransform),
            "deletion" => Box::new(DeletionNoise::new(0.5).unwrap()),
            "jitter" => Box::new(JitterNoise::new(1.5).unwrap()),
            "composite" => Box::new(
                CompositeNoise::new()
                    .then(DeletionNoise::new(0.3).unwrap())
                    .then(JitterNoise::new(1.0).unwrap()),
            ),
            other => panic!("unknown noise {other}"),
        }
    };
    let combos: Vec<(CodingKind, &str)> = all_codings()
        .into_iter()
        .flat_map(|kind| noise_names.iter().map(move |&n| (kind, n)))
        .collect();

    // Runs one (coding × noise) combo over every batch size on the current
    // backend; returns the digest of every outcome and logit bit plus the
    // RNG-stream and conv probes.
    let digest_combo = |isa: SimdBackend, &(kind, noise_name): &(CodingKind, &str)| -> Vec<u32> {
        let coding = kind.build();
        let noise = build_noise(noise_name);
        let mut digest = Vec::new();
        for batch in 1..=16usize {
            let seed = derive_seed(8192, batch as u64);
            let mut ws = SimWorkspace::new();
            network
                .simulate_batch_each(
                    &inputs,
                    0..batch,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    |sample| StdRng::seed_from_u64(derive_seed(seed, sample as u64)),
                    &mut ws,
                    |_, outcome, ws| {
                        digest.push(outcome.predicted as u32);
                        digest.push(outcome.total_spikes as u32);
                        digest.extend(ws.logits().iter().map(|v| v.to_bits()));
                    },
                )
                .unwrap_or_else(|e| {
                    panic!("{isa:?} {} {noise_name} batch {batch}: {e}", kind.label())
                });
        }
        // RNG-stream probe: simulate one sample, then append a few
        // draws — if any backend consumed a different number of
        // random values, the cross-ISA digest comparison fails here.
        let row = inputs.row_slice(0).unwrap();
        let mut ws = SimWorkspace::new();
        let mut rng = StdRng::seed_from_u64(derive_seed(99, 1));
        network
            .simulate_with(
                row,
                coding.as_ref(),
                &cfg,
                noise.as_ref(),
                &mut rng,
                &mut ws,
            )
            .unwrap();
        digest.extend((0..4).map(|_| rng.gen::<u32>()));
        // Conv/pool probe: the direct convolution kernel and pooling
        // arms under the same coding, noise and ISA.
        let mut conv_ws = SimWorkspace::new();
        for sample in 0..2 {
            let row = conv_inputs.row_slice(sample).unwrap();
            let mut rng = StdRng::seed_from_u64(derive_seed(123, sample as u64));
            let outcome = conv_net
                .simulate_with(
                    row,
                    coding.as_ref(),
                    &conv_cfg,
                    noise.as_ref(),
                    &mut rng,
                    &mut conv_ws,
                )
                .unwrap();
            digest.push(outcome.total_spikes as u32);
            digest.extend(conv_ws.logits().iter().map(|v| v.to_bits()));
        }
        digest
    };
    // The whole grid, one pool task per combo.
    let digest_all = |isa: SimdBackend, threads: usize| -> Vec<Vec<u32>> {
        parallel_map(
            &ParallelConfig::with_threads(threads),
            &combos,
            |_, combo| digest_combo(isa, combo),
        )
    };

    let isas = available_backends();
    assert!(isas.contains(&SimdBackend::Scalar));
    let previous = set_backend(SimdBackend::Scalar);
    let reference = digest_all(SimdBackend::Scalar, 1);
    assert!(reference.iter().all(|digest| !digest.is_empty()));
    assert_eq!(
        digest_all(SimdBackend::Scalar, 4),
        reference,
        "matrix digests differ across thread counts"
    );
    for &isa in isas.iter().filter(|&&b| b != SimdBackend::Scalar) {
        assert_eq!(set_backend(isa), isa, "requested ISA must run unresolved");
        let digest = digest_all(isa, 1);
        for ((combo_digest, scalar_digest), &(kind, noise_name)) in
            digest.iter().zip(&reference).zip(&combos)
        {
            assert_eq!(
                combo_digest,
                scalar_digest,
                "{isa:?} digest diverged from scalar for {} under {noise_name}",
                kind.label()
            );
        }
    }
    set_backend(previous);
}

/// One workspace reused across coding configurations that differ in one
/// field at a time — θ, `ttfs_tau_fraction`, T, the phase period, the
/// burst `max_spikes`, the TTAS duration — must give, on the clean path,
/// exactly what a fresh workspace and the reference path give.  The clean
/// path decodes from per-symbol tables cached in the workspace; a table key
/// that missed any of these fields would serve stale values here.
#[test]
fn reused_workspace_across_config_changes_matches_fresh_and_reference() {
    let network = matrix_network();
    let inputs = matrix_inputs(4, 24);
    let base = CodingConfig::new(48, 1.0);
    let theta = CodingConfig::new(48, 0.8);
    let mut tau = base;
    tau.ttfs_tau_fraction = 0.11;
    let steps = CodingConfig::new(40, 1.0);
    let steps_theta = CodingConfig::new(40, 0.8);
    let phase =
        |period| -> Box<dyn NeuralCoding> { Box::new(PhaseCoding::with_period(period).unwrap()) };
    let burst =
        |max| -> Box<dyn NeuralCoding> { Box::new(BurstCoding::with_max_spikes(max).unwrap()) };
    let ttas = |duration| -> Box<dyn NeuralCoding> { Box::new(TtasCoding::new(duration).unwrap()) };
    // Consecutive entries differ in exactly one field of (coding, config).
    let runs: Vec<(Box<dyn NeuralCoding>, CodingConfig)> = vec![
        (Box::new(RateCoding::new()), base),
        (Box::new(RateCoding::new()), theta),
        (Box::new(RateCoding::new()), steps_theta),
        (Box::new(RateCoding::new()), steps),
        (Box::new(TtfsCoding::new()), steps),
        (Box::new(TtfsCoding::new()), base),
        (Box::new(TtfsCoding::new()), tau),
        (Box::new(TtfsCoding::new()), base),
        (Box::new(TtfsCoding::new()), theta),
        (ttas(5), theta),
        (ttas(5), base),
        (ttas(5), tau),
        (ttas(3), tau),
        (ttas(3), base),
        (phase(8), base),
        (phase(4), base),
        (phase(4), steps),
        (phase(4), steps_theta),
        (burst(8), steps_theta),
        (burst(8), base),
        (burst(4), base),
        (burst(4), theta),
        (burst(4), steps_theta),
    ];
    let mut reused = SimWorkspace::new();
    for (run, (coding, cfg)) in runs.iter().enumerate() {
        for sample in 0..inputs.dims()[0] {
            let row = inputs.row_slice(sample).unwrap();
            let context = format!(
                "run {run} {} T={} θ={} τ={} sample {sample}",
                coding.name(),
                cfg.time_steps,
                cfg.threshold,
                cfg.ttfs_tau_fraction
            );
            let mut rng = StdRng::seed_from_u64(derive_seed(31, sample as u64));
            let reference = network
                .simulate_unbuffered(row, coding.as_ref(), cfg, &IdentityTransform, &mut rng)
                .unwrap();
            let mut fresh = SimWorkspace::new();
            let mut digests = Vec::new();
            for ws in [&mut fresh, &mut reused] {
                let mut rng = StdRng::seed_from_u64(derive_seed(31, sample as u64));
                let outcome = network
                    .simulate_with(row, coding.as_ref(), cfg, &IdentityTransform, &mut rng, ws)
                    .unwrap();
                let logits: Vec<u32> = ws.logits().iter().map(|v| v.to_bits()).collect();
                digests.push((outcome, logits, ws.spikes_per_layer().to_vec()));
            }
            let reference_logits: Vec<u32> = reference.logits.iter().map(|v| v.to_bits()).collect();
            for (outcome, logits, spikes) in &digests {
                assert_eq!(outcome.predicted, reference.predicted, "{context}");
                assert_eq!(outcome.total_spikes, reference.total_spikes, "{context}");
                assert_eq!(logits, &reference_logits, "{context}: logit bits");
                assert_eq!(spikes, &reference.spikes_per_layer, "{context}");
            }
        }
    }
}

/// Rebuilds a deletion sweep with a hand-rolled per-sample loop over the
/// allocating reference simulator — exactly the seed engine's algorithm —
/// and requires the production sweep to match it byte for byte at 1 and 4
/// worker threads and for sample-level batching.
#[test]
fn sweep_points_match_seed_per_sample_reference_at_1_and_4_threads() {
    let pipeline = tiny_pipeline();
    let sweep = tiny_sweep();
    let codings = [CodingKind::Rate, CodingKind::Ttfs, CodingKind::Ttas(3)];
    let levels = [0.0, 0.3, 0.6];

    // --- reference: the seed per-sample path ---------------------------
    let subset = pipeline.test_subset(sweep.eval_samples).unwrap();
    let samples = subset.labels.len();
    let mut reference: Vec<SweepPoint> = Vec::new();
    for &coding_kind in &codings {
        for &p in &levels {
            let scaling = if p > 0.0 && p < 1.0 {
                WeightScaling::for_deletion_probability(p).unwrap()
            } else {
                WeightScaling::none()
            };
            let network = pipeline.to_snn(&scaling).unwrap();
            let coding = coding_kind.build();
            let cfg = pipeline.coding_config(coding_kind, sweep.time_steps);
            let noise: Box<dyn SpikeTransform> = if p <= 0.0 {
                Box::new(IdentityTransform)
            } else {
                Box::new(DeletionNoise::new(p).unwrap())
            };
            let mut correct = 0usize;
            let mut total_spikes = 0usize;
            for sample in 0..samples {
                let row = subset.inputs.row(sample).unwrap();
                let mut rng = StdRng::seed_from_u64(derive_seed(sweep.seed, sample as u64));
                let outcome = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng,
                    )
                    .unwrap();
                if outcome.predicted == subset.labels[sample] {
                    correct += 1;
                }
                total_spikes += outcome.total_spikes;
            }
            let denom = samples.max(1) as f32;
            reference.push(SweepPoint {
                coding: coding_kind,
                weight_scaled: true,
                noise_level: p,
                accuracy_percent: (correct as f32 / denom) * 100.0,
                mean_spikes: total_spikes as f32 / denom,
            });
        }
    }
    // Canonical result order: (noise level, coding, weight scaling).
    reference.sort_by(|a, b| {
        a.noise_level
            .partial_cmp(&b.noise_level)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.coding.order_index().cmp(&b.coding.order_index()))
            .then_with(|| a.weight_scaled.cmp(&b.weight_scaled))
    });

    // --- production engine at several scheduling configurations --------
    let run = |parallel: ParallelConfig| {
        DeletionSweep::new(&codings, &levels)
            .weight_scaling(true)
            .config(sweep)
            .parallel(parallel)
            .run(&pipeline)
            .unwrap()
    };
    for (label, parallel) in [
        ("1 thread", ParallelConfig::with_threads(1)),
        ("4 threads", ParallelConfig::with_threads(4)),
        (
            "4 threads, sample-sized chunks",
            ParallelConfig::with_threads(4).with_batch_size(1),
        ),
    ] {
        let points = run(parallel);
        assert_eq!(points.len(), reference.len(), "{label}: point count");
        for (point, expected) in points.iter().zip(&reference) {
            assert_eq!(point.coding, expected.coding, "{label}");
            assert_eq!(point.weight_scaled, expected.weight_scaled, "{label}");
            assert_eq!(
                point.noise_level.to_bits(),
                expected.noise_level.to_bits(),
                "{label}"
            );
            assert_eq!(
                point.accuracy_percent.to_bits(),
                expected.accuracy_percent.to_bits(),
                "{label}: accuracy bits for {} @ {}",
                expected.coding.label(),
                expected.noise_level
            );
            assert_eq!(
                point.mean_spikes.to_bits(),
                expected.mean_spikes.to_bits(),
                "{label}: spike bits for {} @ {}",
                expected.coding.label(),
                expected.noise_level
            );
        }
    }
}
