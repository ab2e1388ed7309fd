//! Property suite: `decode(encode(x)) == x` **bitwise** for every frame
//! type, for spike rasters and for model records (weights included).
//!
//! Equality is asserted two ways on purpose: structurally (`PartialEq`)
//! and on the re-encoded bytes — `PartialEq` treats `-0.0 == 0.0`, so only
//! the byte comparison proves the IEEE bits survived.  Generators draw
//! from a pool of adversarial values (`-0.0`, subnormals, `f32::MAX`,
//! infinities, seeds above 2^53) mixed with uniform randomness, all seeded
//! deterministically from the test name via the proptest shim's
//! [`proptest::rng_for`] — no wall-clock nondeterminism.

use nrsnn_dnn::NetworkWeights;
use nrsnn_snn::{CodingKind, SpikeRaster};
use nrsnn_tensor::Tensor;
use nrsnn_wire::{
    decode_frame, decode_model, decode_raster, encode_frame, encode_model, encode_raster, Frame,
    InferenceReply, LayerSpec, ModelRecord, NoiseSpec, Request, RequestTrace, Response,
    ServerStats, StageLatency, TraceSpan,
};
use proptest::{prop_assert_eq, rng_for, TestRng, CASES};
use rand::Rng;

/// f32 values that have historically broken lossy codecs.
const SPECIAL_F32: &[f32] = &[
    0.0,
    -0.0,
    1.5e-42, // subnormal
    -1.5e-42,
    f32::MIN_POSITIVE,
    f32::MIN_POSITIVE / 2.0, // subnormal
    f32::MAX,
    f32::MIN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0 / 3.0,
];

const SPECIAL_F64: &[f64] = &[
    0.0,
    -0.0,
    5e-324, // smallest subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1.0 / 3.0,
];

/// Seeds that must survive with all 64 bits (several above 2^53).
const SPECIAL_SEEDS: &[u64] = &[
    0,
    1,
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    1 << 60,
    u64::MAX - 1,
    u64::MAX,
];

fn gen_f32(rng: &mut TestRng) -> f32 {
    if rng.gen_range(0u32..4) == 0 {
        SPECIAL_F32[rng.gen_range(0..SPECIAL_F32.len())]
    } else {
        rng.gen_range(-1.0e6f32..1.0e6)
    }
}

fn gen_f64(rng: &mut TestRng) -> f64 {
    if rng.gen_range(0u32..4) == 0 {
        SPECIAL_F64[rng.gen_range(0..SPECIAL_F64.len())]
    } else {
        rng.gen_range(-1.0e12f64..1.0e12)
    }
}

fn gen_seed(rng: &mut TestRng) -> u64 {
    if rng.gen_range(0u32..2) == 0 {
        SPECIAL_SEEDS[rng.gen_range(0..SPECIAL_SEEDS.len())]
    } else {
        rng.gen::<u64>()
    }
}

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0usize..20);
    (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

/// Rasters across the density spectrum: empty, all-empty trains,
/// single-spike, random, and fully active (dense-mode territory), over
/// windows that exercise every spike-time width (1, 2 and 4 bytes).
fn gen_raster(rng: &mut TestRng) -> SpikeRaster {
    let num_steps = [0u32, 1, 9, 96, 256, 257, 65_536, 70_000][rng.gen_range(0usize..8)];
    let num_neurons = rng.gen_range(0usize..24);
    let mut raster = SpikeRaster::new(num_neurons, num_steps);
    if num_steps == 0 || num_neurons == 0 {
        return raster;
    }
    match rng.gen_range(0u32..5) {
        0 => {} // all-empty
        1 => {
            // single spike in one train
            let t = rng.gen_range(0..num_steps);
            raster.set_train(rng.gen_range(0..num_neurons), vec![t]);
        }
        2 => {
            // fully active: every neuron fires at every step
            for n in 0..num_neurons {
                raster.set_train(n, (0..num_steps.min(512)).collect());
            }
        }
        _ => {
            for n in 0..num_neurons {
                if rng.gen_range(0u32..3) == 0 {
                    continue;
                }
                let spikes = rng.gen_range(1u32..=num_steps.min(12));
                let times: Vec<u32> = (0..spikes).map(|_| rng.gen_range(0..num_steps)).collect();
                raster.set_train(n, times);
            }
        }
    }
    raster
}

fn gen_stats(rng: &mut TestRng) -> ServerStats {
    ServerStats {
        requests_received: rng.gen(),
        requests_served: rng.gen(),
        rejected_busy: rng.gen(),
        failed: rng.gen(),
        batches: rng.gen(),
        batch_size_histogram: (0..rng.gen_range(0usize..10)).map(|_| rng.gen()).collect(),
        mean_batch_size: gen_f64(rng),
        p50_latency_us: rng.gen(),
        p99_latency_us: rng.gen(),
        mean_latency_us: gen_f64(rng),
        total_spikes: rng.gen(),
        spikes_per_inference: gen_f64(rng),
        batch_size_offset: rng.gen(),
        p999_latency_us: rng.gen(),
        stage_latency_ns: (0..rng.gen_range(0usize..8))
            .map(|_| StageLatency {
                stage: gen_string(rng),
                p50_ns: rng.gen(),
                p99_ns: rng.gen(),
            })
            .collect(),
    }
}

fn gen_trace(rng: &mut TestRng) -> RequestTrace {
    RequestTrace {
        trace_id: gen_seed(rng),
        model: gen_string(rng),
        seed: gen_seed(rng),
        worker: rng.gen(),
        start_ns: rng.gen(),
        end_ns: rng.gen(),
        ok: rng.gen_range(0u32..2) == 0,
        backend: gen_string(rng),
        spans: (0..rng.gen_range(0usize..12))
            .map(|_| TraceSpan {
                stage: rng.gen(),
                // u32::MAX is the encoded "no layer" sentinel.
                layer: (rng.gen_range(0u32..4) != 0).then(|| rng.gen_range(0..u32::MAX)),
                start_ns: rng.gen(),
                end_ns: rng.gen(),
                kernel: rng.gen(),
                density: gen_f32(rng),
            })
            .collect(),
        dropped_spans: rng.gen(),
    }
}

fn gen_frame(rng: &mut TestRng) -> Frame {
    match rng.gen_range(0u32..12) {
        0 => Frame::Request(Request::Infer {
            model: gen_string(rng),
            seed: gen_seed(rng),
            input: (0..rng.gen_range(0usize..40))
                .map(|_| gen_f32(rng))
                .collect(),
        }),
        1 => Frame::Request(Request::Stats),
        2 => Frame::Request(Request::ListModels),
        3 => Frame::Request(Request::Ping),
        4 => Frame::Response(Response::Infer(InferenceReply {
            model: gen_string(rng),
            predicted: rng.gen::<u64>() as usize,
            logits: (0..rng.gen_range(0usize..20))
                .map(|_| gen_f32(rng))
                .collect(),
            total_spikes: rng.gen::<u64>() as usize,
            latency_us: rng.gen(),
            trace_id: gen_seed(rng),
        })),
        5 => Frame::Response(Response::Stats(gen_stats(rng))),
        6 => Frame::Response(Response::Models(
            (0..rng.gen_range(0usize..6))
                .map(|_| gen_string(rng))
                .collect(),
        )),
        7 => Frame::Response(Response::Pong),
        8 => Frame::Response(Response::Error {
            code: gen_string(rng),
            message: gen_string(rng),
        }),
        9 => Frame::Request(Request::Trace {
            last: rng.gen::<u32>() as usize,
        }),
        10 => Frame::Response(Response::Trace(
            (0..rng.gen_range(0usize..4))
                .map(|_| gen_trace(rng))
                .collect(),
        )),
        _ => Frame::Raster(gen_raster(rng)),
    }
}

/// Tensors covering all-empty (zero-element) and ordinary layers, with
/// adversarial f32 payloads.
fn gen_tensor(rng: &mut TestRng) -> Tensor {
    if rng.gen_range(0u32..8) == 0 {
        // an all-empty layer: zero rows
        return Tensor::from_vec(Vec::new(), &[0]).expect("empty tensor");
    }
    let rows = rng.gen_range(1usize..6);
    let cols = rng.gen_range(1usize..6);
    let data = (0..rows * cols).map(|_| gen_f32(rng)).collect();
    Tensor::from_vec(data, &[rows, cols]).expect("tensor")
}

fn gen_noise(rng: &mut TestRng, top_level: bool) -> NoiseSpec {
    match rng.gen_range(0u32..if top_level { 4 } else { 3 }) {
        0 => NoiseSpec::Clean,
        1 => NoiseSpec::Deletion(gen_f64(rng)),
        2 => NoiseSpec::Jitter(gen_f64(rng)),
        _ => NoiseSpec::Composite(
            (0..rng.gen_range(0usize..4))
                .map(|_| gen_noise(rng, false))
                .collect(),
        ),
    }
}

fn gen_layer(rng: &mut TestRng) -> LayerSpec {
    match rng.gen_range(0u32..3) {
        0 => LayerSpec::Linear {
            out: rng.gen_range(0usize..100),
            input: rng.gen_range(0usize..100),
        },
        1 => LayerSpec::Conv {
            out_channels: rng.gen_range(1usize..8),
            in_channels: rng.gen_range(1usize..4),
            in_height: rng.gen_range(1usize..32),
            in_width: rng.gen_range(1usize..32),
            kernel: rng.gen_range(1usize..5),
            stride: rng.gen_range(1usize..3),
            padding: rng.gen_range(0usize..3),
        },
        _ => LayerSpec::AvgPool {
            channels: rng.gen_range(1usize..8),
            in_height: rng.gen_range(1usize..32),
            in_width: rng.gen_range(1usize..32),
            window: rng.gen_range(1usize..4),
            stride: rng.gen_range(1usize..4),
        },
    }
}

fn gen_model(rng: &mut TestRng) -> ModelRecord {
    let coding = match rng.gen_range(0u32..5) {
        0 => CodingKind::Rate,
        1 => CodingKind::Phase,
        2 => CodingKind::Burst,
        3 => CodingKind::Ttfs,
        _ => CodingKind::Ttas(rng.gen_range(1u32..10)),
    };
    ModelRecord {
        name: gen_string(rng),
        coding,
        time_steps: rng.gen_range(0u32..200),
        threshold: gen_f32(rng),
        ttfs_tau_fraction: gen_f32(rng),
        scaling: gen_f32(rng),
        noise: gen_noise(rng, true),
        master_seed: gen_seed(rng),
        layers: (0..rng.gen_range(0usize..5))
            .map(|_| gen_layer(rng))
            .collect(),
        weights: NetworkWeights {
            params: (0..rng.gen_range(0usize..5))
                .map(|_| gen_tensor(rng))
                .collect(),
        },
    }
}

fn assert_raster_bit_equal(a: &SpikeRaster, b: &SpikeRaster) {
    assert_eq!(a, b);
    assert_eq!(a.num_steps(), b.num_steps());
    for ((na, ta), (nb, tb)) in a.iter().zip(b.iter()) {
        assert_eq!(na, nb);
        assert_eq!(ta, tb);
    }
}

#[test]
fn every_frame_round_trips_bitwise() {
    let mut rng = rng_for("every_frame_round_trips_bitwise");
    // 10x the usual case count so each of the ten frame types gets a full
    // complement of adversarial draws.
    for _ in 0..CASES * 10 {
        let frame = gen_frame(&mut rng);
        let bytes = encode_frame(&frame).expect("encode");
        let back = decode_frame(&bytes).expect("decode");
        assert_eq!(back, frame);
        // The bit-exactness proof: re-encoding reproduces the bytes, so no
        // -0.0/0.0 or NaN-payload drift can hide behind PartialEq.
        assert_eq!(encode_frame(&back).expect("re-encode"), bytes);
    }
}

#[test]
fn rasters_round_trip_across_the_density_spectrum() {
    let mut rng = rng_for("rasters_round_trip_across_the_density_spectrum");
    for _ in 0..CASES * 4 {
        let raster = gen_raster(&mut rng);
        let bytes = encode_raster(&raster).expect("encode");
        let back = decode_raster(&bytes).expect("decode");
        assert_raster_bit_equal(&back, &raster);
        assert_eq!(encode_raster(&back).expect("re-encode"), bytes);
    }
}

#[test]
fn models_round_trip_bitwise_including_weights() {
    let mut rng = rng_for("models_round_trip_bitwise_including_weights");
    for _ in 0..CASES * 2 {
        let record = gen_model(&mut rng);
        let bytes = encode_model(&record).expect("encode");
        let back = decode_model(&bytes).expect("decode");
        assert_eq!(back, record);
        for (a, b) in back.weights.params.iter().zip(&record.weights.params) {
            assert_eq!(a.dims(), b.dims());
            for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
        assert_eq!(encode_model(&back).expect("re-encode"), bytes);
    }
}

proptest::proptest! {
    #[test]
    fn seeds_above_2_53_survive_infer_frames(seed in 0u64..=u64::MAX) {
        let frame = Frame::Request(Request::Infer {
            model: "m".to_string(),
            seed,
            input: vec![0.5],
        });
        let back = decode_frame(&encode_frame(&frame).unwrap()).unwrap();
        let Frame::Request(Request::Infer { seed: back_seed, .. }) = back else {
            panic!("wrong frame type");
        };
        prop_assert_eq!(back_seed, seed);
    }

    #[test]
    fn logit_bits_survive_infer_replies(bits in 0u32..=u32::MAX) {
        let value = f32::from_bits(bits);
        let frame = Frame::Response(Response::Infer(InferenceReply {
            model: "m".to_string(),
            predicted: 0,
            logits: vec![value],
            total_spikes: 0,
            latency_us: 0,
            trace_id: 0,
        }));
        let bytes = encode_frame(&frame).unwrap();
        let Frame::Response(Response::Infer(InferenceReply { logits, .. })) =
            decode_frame(&bytes).unwrap()
        else {
            panic!("wrong frame type");
        };
        // Bit comparison, not ==: NaN payloads and -0.0 must survive too.
        prop_assert_eq!(logits[0].to_bits(), bits);
    }
}
