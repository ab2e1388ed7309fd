//! Cross-crate integration tests: the full train → convert → corrupt →
//! simulate pipeline, exercised end to end at a miniature scale.

use nrsnn::prelude::*;
use nrsnn_data::DatasetSpec;
use nrsnn_noise::paper_table_deletion_points;

fn tiny_pipeline(seed: u64) -> TrainedPipeline {
    let config = PipelineConfig {
        dataset: DatasetSpec::mnist_like().with_samples(100, 40),
        model: ModelKind::Mlp,
        dropout: 0.15,
        epochs: 8,
        batch_size: 20,
        learning_rate: 2e-3,
        percentile: 99.9,
        seed,
    };
    TrainedPipeline::build(&config).expect("pipeline must build")
}

fn tiny_sweep() -> SweepConfig {
    SweepConfig {
        time_steps: 64,
        eval_samples: 24,
        seed: 99,
    }
}

#[test]
fn dnn_to_snn_conversion_preserves_most_accuracy_for_every_coding() {
    let pipeline = tiny_pipeline(1);
    let dnn_acc = pipeline.dnn_test_accuracy();
    assert!(dnn_acc > 0.5, "source DNN too weak: {dnn_acc}");
    for kind in [
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Burst,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ] {
        let summary = pipeline
            .evaluate_snn(kind, 96, &IdentityTransform, &WeightScaling::none(), 24, 0)
            .expect("clean evaluation");
        assert!(
            summary.accuracy >= dnn_acc - 0.3,
            "{}: clean SNN accuracy {} too far below DNN {}",
            kind.label(),
            summary.accuracy,
            dnn_acc
        );
    }
}

#[test]
fn deletion_noise_reduces_both_accuracy_and_spike_count() {
    let pipeline = tiny_pipeline(2);
    let clean = pipeline
        .evaluate_snn(
            CodingKind::Rate,
            64,
            &IdentityTransform,
            &WeightScaling::none(),
            24,
            0,
        )
        .expect("clean");
    let heavy = DeletionNoise::new(0.8).expect("noise");
    let noisy = pipeline
        .evaluate_snn(CodingKind::Rate, 64, &heavy, &WeightScaling::none(), 24, 0)
        .expect("noisy");
    assert!(noisy.mean_spikes_per_sample < clean.mean_spikes_per_sample * 0.5);
    assert!(noisy.accuracy <= clean.accuracy + 1e-6);
}

#[test]
fn weight_scaling_recovers_accuracy_under_deletion() {
    let pipeline = tiny_pipeline(3);
    let p = 0.5;
    let noise = DeletionNoise::new(p).expect("noise");
    let unscaled = pipeline
        .evaluate_snn(CodingKind::Rate, 96, &noise, &WeightScaling::none(), 32, 7)
        .expect("unscaled");
    let scaled = pipeline
        .evaluate_snn(
            CodingKind::Rate,
            96,
            &noise,
            &WeightScaling::for_deletion_probability(p).expect("ws"),
            32,
            7,
        )
        .expect("scaled");
    assert!(
        scaled.accuracy >= unscaled.accuracy,
        "WS should not hurt under matched deletion: {} vs {}",
        scaled.accuracy,
        unscaled.accuracy
    );
}

#[test]
fn ttas_with_ws_beats_ttfs_with_ws_under_heavy_deletion() {
    // The paper's headline comparison (Fig. 7 / Table I): under substantial
    // deletion the proposed TTAS+WS retains more accuracy than TTFS+WS.
    let pipeline = tiny_pipeline(4);
    let p = 0.5;
    let noise = DeletionNoise::new(p).expect("noise");
    let ws = WeightScaling::for_deletion_probability(p).expect("ws");
    let ttfs = pipeline
        .evaluate_snn(CodingKind::Ttfs, 96, &noise, &ws, 40, 11)
        .expect("ttfs");
    let ttas = pipeline
        .evaluate_snn(CodingKind::Ttas(5), 96, &noise, &ws, 40, 11)
        .expect("ttas");
    assert!(
        ttas.accuracy >= ttfs.accuracy,
        "TTAS(5)+WS {} should be at least as robust as TTFS+WS {}",
        ttas.accuracy,
        ttfs.accuracy
    );
}

#[test]
fn ttas_beats_ttfs_under_jitter() {
    // Fig. 6: TTAS spreads a value over several spikes, so a shifted first
    // spike moves its decoded value less than TTFS's single spike.  Same
    // settings as the deletion ordering above, jitter instead of deletion.
    let pipeline = tiny_pipeline(4);
    let noise = JitterNoise::new(3.0).expect("noise");
    let ws = WeightScaling::none();
    let ttfs = pipeline
        .evaluate_snn(CodingKind::Ttfs, 96, &noise, &ws, 40, 11)
        .expect("ttfs");
    let ttas = pipeline
        .evaluate_snn(CodingKind::Ttas(5), 96, &noise, &ws, 40, 11)
        .expect("ttas");
    assert!(
        ttas.accuracy >= ttfs.accuracy,
        "TTAS(5) {} should be at least as robust as TTFS {} under σ=3 jitter",
        ttas.accuracy,
        ttfs.accuracy
    );
}

#[test]
fn rate_coding_is_unaffected_by_jitter_while_phase_degrades() {
    // Fig. 3's two extremes.
    let pipeline = tiny_pipeline(5);
    let jitter = JitterNoise::new(3.0).expect("noise");
    let rate_clean = pipeline
        .evaluate_snn(
            CodingKind::Rate,
            64,
            &IdentityTransform,
            &WeightScaling::none(),
            32,
            3,
        )
        .expect("rate clean");
    let rate_jittered = pipeline
        .evaluate_snn(CodingKind::Rate, 64, &jitter, &WeightScaling::none(), 32, 3)
        .expect("rate jitter");
    assert!(
        (rate_clean.accuracy - rate_jittered.accuracy).abs() < 0.15,
        "rate coding should be nearly flat under jitter: {} vs {}",
        rate_clean.accuracy,
        rate_jittered.accuracy
    );

    let phase_clean = pipeline
        .evaluate_snn(
            CodingKind::Phase,
            64,
            &IdentityTransform,
            &WeightScaling::none(),
            32,
            3,
        )
        .expect("phase clean");
    let phase_jittered = pipeline
        .evaluate_snn(
            CodingKind::Phase,
            64,
            &jitter,
            &WeightScaling::none(),
            32,
            3,
        )
        .expect("phase jitter");
    assert!(
        phase_jittered.accuracy < phase_clean.accuracy,
        "phase coding should degrade under σ=3 jitter: {} vs {}",
        phase_jittered.accuracy,
        phase_clean.accuracy
    );
}

#[test]
fn sweep_results_do_not_depend_on_thread_count() {
    // The determinism contract of the parallel sweep engine, end to end:
    // identical SweepPoint vectors at 1 and 4 worker threads for a fixed
    // seed, for both noise families.
    let pipeline = tiny_pipeline(8);
    let codings = [CodingKind::Rate, CodingKind::Ttfs, CodingKind::Ttas(5)];

    let deletion = |threads: usize| {
        DeletionSweep::new(&codings, &paper_table_deletion_points())
            .weight_scaling(true)
            .config(tiny_sweep())
            .parallel(ParallelConfig::with_threads(threads))
            .run(&pipeline)
            .expect("deletion sweep")
    };
    assert_eq!(deletion(1), deletion(4));

    let jitter = |threads: usize| {
        JitterSweep::new(&codings, &[0.0, 1.0, 2.0])
            .config(tiny_sweep())
            .parallel(ParallelConfig::with_threads(threads))
            .run(&pipeline)
            .expect("jitter sweep")
    };
    assert_eq!(jitter(1), jitter(4));
}

#[test]
fn robust_builder_and_sweeps_compose() {
    let pipeline = tiny_pipeline(6);
    let robust = RobustSnnBuilder::new()
        .burst_duration(4)
        .expected_deletion(0.2)
        .time_steps(64)
        .build(&pipeline)
        .expect("robust build");
    let summary = robust
        .evaluate_under_deletion(&pipeline, 0.2, 24, 0)
        .expect("robust eval");
    assert!(summary.accuracy > 0.3);

    let points = deletion_sweep(
        &pipeline,
        &[CodingKind::Ttas(4)],
        &paper_table_deletion_points(),
        true,
        &tiny_sweep(),
    )
    .expect("sweep");
    assert_eq!(points.len(), 4);
    let table = format_sweep_table(&points, "Deletion p");
    assert!(table.contains("TTAS(4)+WS"));
}

#[test]
fn spike_counts_follow_the_paper_efficiency_ordering() {
    // Table I: TTFS ≪ TTAS ≪ burst ≪ rate/phase in spikes per inference.
    let pipeline = tiny_pipeline(7);
    let count = |kind: CodingKind| {
        pipeline
            .evaluate_snn(kind, 96, &IdentityTransform, &WeightScaling::none(), 16, 0)
            .expect("eval")
            .mean_spikes_per_sample
    };
    let rate = count(CodingKind::Rate);
    let burst = count(CodingKind::Burst);
    let ttfs = count(CodingKind::Ttfs);
    let ttas = count(CodingKind::Ttas(5));
    assert!(ttfs < ttas, "ttfs {ttfs} < ttas {ttas}");
    assert!(
        ttas < burst * 2.0,
        "ttas {ttas} should be close to burst {burst}"
    );
    assert!(burst < rate, "burst {burst} < rate {rate}");
    assert!(rate / ttfs > 5.0, "rate/ttfs ratio {}", rate / ttfs);
}
