//! Adversarial decoder suite: hostile bytes must always produce a typed
//! [`WireError`] — never a panic, a hang or an attacker-sized allocation.
//!
//! Mutations are driven by the proptest shim's name-seeded RNG with fixed
//! iteration counts, so every run exercises the same byte positions — no
//! `Date::now`-style nondeterminism anywhere.

use nrsnn_dnn::NetworkWeights;
use nrsnn_snn::{CodingKind, SpikeRaster};
use nrsnn_tensor::Tensor;
use nrsnn_wire::{
    decode_frame, decode_model, decode_raster, encode_frame, encode_model, encode_raster, Frame,
    InferenceReply, LayerSpec, ModelRecord, NoiseSpec, Request, RequestTrace, Response,
    ServerStats, TraceSpan, WireError, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN, WIRE_VERSION,
};
use proptest::rng_for;
use rand::Rng;

fn sample_frame() -> Frame {
    let mut raster = SpikeRaster::new(6, 96);
    raster.set_train(1, vec![3, 40, 95]);
    Frame::Request(Request::Infer {
        model: "mnist".to_string(),
        seed: (1u64 << 60) + 5,
        input: vec![0.25, -0.0, 1.5e-42],
    })
}

fn sample_frames() -> Vec<Frame> {
    let mut raster = SpikeRaster::new(6, 96);
    raster.set_train(1, vec![3, 40, 95]);
    vec![
        sample_frame(),
        Frame::Request(Request::Stats),
        Frame::Request(Request::ListModels),
        Frame::Request(Request::Ping),
        Frame::Request(Request::Trace { last: 8 }),
        Frame::Response(Response::Infer(InferenceReply {
            model: "mnist".to_string(),
            predicted: 7,
            logits: vec![0.5, -1.25],
            total_spikes: 99,
            latency_us: 1000,
            trace_id: 77,
        })),
        Frame::Response(Response::Stats(ServerStats {
            batch_size_histogram: vec![1, 2, 3],
            ..ServerStats::default()
        })),
        Frame::Response(Response::Trace(vec![RequestTrace {
            trace_id: 77,
            model: "mnist".to_string(),
            seed: 5,
            worker: 0,
            start_ns: 10,
            end_ns: 900,
            ok: false,
            backend: "scalar".to_string(),
            spans: vec![TraceSpan {
                stage: 6,
                layer: None,
                start_ns: 10,
                end_ns: 900,
                kernel: 1,
                density: 1.0,
            }],
            dropped_spans: 1,
        }])),
        Frame::Response(Response::Models(vec!["a".to_string(), "b".to_string()])),
        Frame::Response(Response::Pong),
        Frame::Response(Response::Error {
            code: "busy".to_string(),
            message: "try later".to_string(),
        }),
        Frame::Raster(raster),
    ]
}

fn sample_model() -> ModelRecord {
    ModelRecord {
        name: "adv".to_string(),
        coding: CodingKind::Ttas(5),
        time_steps: 96,
        threshold: 1.0,
        ttfs_tau_fraction: 4.0,
        scaling: 0.5,
        noise: NoiseSpec::Deletion(0.35),
        master_seed: u64::MAX - 9,
        layers: vec![LayerSpec::Linear { out: 3, input: 4 }],
        weights: NetworkWeights {
            params: vec![
                Tensor::from_vec(vec![0.1; 12], &[3, 4]).unwrap(),
                Tensor::from_vec(vec![0.0, -0.0, 0.5], &[3]).unwrap(),
            ],
        },
    }
}

#[test]
fn every_truncation_of_every_frame_is_typed() {
    for frame in sample_frames() {
        let bytes = encode_frame(&frame).unwrap();
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!(
                    "tag 0x{:02X}, prefix {cut}/{}: expected Truncated, got {other:?}",
                    frame.tag(),
                    bytes.len()
                ),
            }
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    // A header announcing just over the cap: rejected at header-parse
    // time, before any payload buffer exists.
    let mut bytes = vec![FRAME_MAGIC, WIRE_VERSION];
    bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert_eq!(
        decode_frame(&bytes),
        Err(WireError::FrameTooLarge {
            len: u64::from(MAX_FRAME_LEN) + 1,
            max: u64::from(MAX_FRAME_LEN),
        })
    );
    // u32::MAX, same story.
    let mut bytes = vec![FRAME_MAGIC, WIRE_VERSION];
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&bytes),
        Err(WireError::FrameTooLarge { .. })
    ));
    // An in-cap header whose *payload* carries a hostile element count
    // (u32::MAX logits in a 30-byte frame): the element-presence check
    // fires before any Vec is sized from the count.
    let inner = encode_frame(&Frame::Request(Request::Infer {
        model: "m".to_string(),
        seed: 0,
        input: vec![1.0, 2.0],
    }))
    .unwrap();
    let mut hostile = inner.clone();
    let len = hostile.len();
    // input count sits 12 bytes before the end (count + two f32s).
    hostile[len - 12..len - 8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&hostile),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn wrong_magic_and_version_are_typed() {
    let bytes = encode_frame(&Frame::Request(Request::Ping)).unwrap();
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'{';
    assert_eq!(
        decode_frame(&wrong_magic),
        Err(WireError::BadMagic { found: b'{' })
    );
    let mut wrong_version = bytes.clone();
    wrong_version[1] = WIRE_VERSION + 1;
    assert_eq!(
        decode_frame(&wrong_version),
        Err(WireError::UnsupportedVersion {
            found: WIRE_VERSION + 1
        })
    );
}

/// Flip random bytes in valid encodings for a fixed number of seeded
/// iterations: the decoder must return `Ok` or a typed error, and when it
/// returns `Ok` the value must re-encode canonically.
#[test]
fn random_byte_mutations_never_panic_frames() {
    let mut rng = rng_for("random_byte_mutations_never_panic_frames");
    let originals: Vec<Vec<u8>> = sample_frames()
        .iter()
        .map(|f| encode_frame(f).unwrap())
        .collect();
    for _ in 0..2000 {
        let mut bytes = originals[rng.gen_range(0..originals.len())].clone();
        for _ in 0..rng.gen_range(1usize..4) {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= 1 << rng.gen_range(0u32..8);
        }
        if let Ok(frame) = decode_frame(&bytes) {
            // A surviving mutation must still be a canonical encoding.
            let re = encode_frame(&frame).unwrap();
            assert_eq!(re, bytes, "accepted mutation must re-encode identically");
        }
    }
}

#[test]
fn random_byte_mutations_never_panic_models() {
    let mut rng = rng_for("random_byte_mutations_never_panic_models");
    let original = encode_model(&sample_model()).unwrap();
    for _ in 0..2000 {
        let mut bytes = original.clone();
        for _ in 0..rng.gen_range(1usize..4) {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= 1 << rng.gen_range(0u32..8);
        }
        if let Ok(record) = decode_model(&bytes) {
            assert_eq!(encode_model(&record).unwrap(), bytes);
        }
    }
}

#[test]
fn random_byte_mutations_never_panic_rasters() {
    let mut rng = rng_for("random_byte_mutations_never_panic_rasters");
    let mut raster = SpikeRaster::new(12, 96);
    for n in 0..12 {
        if n % 3 != 0 {
            raster.set_train(n, vec![n as u32, 50 + n as u32]);
        }
    }
    let original = encode_raster(&raster).unwrap();
    for _ in 0..2000 {
        let mut bytes = original.clone();
        let pos = rng.gen_range(0..bytes.len());
        bytes[pos] ^= 1 << rng.gen_range(0u32..8);
        if let Ok(back) = decode_raster(&bytes) {
            // Mode choice is the encoder's; a decoded mutant re-encodes to
            // the canonical mode, which may legitimately differ from the
            // mutant's bytes only in representation, never in content.
            let re = encode_raster(&back).unwrap();
            let twice = decode_raster(&re).unwrap();
            assert_eq!(twice, back);
        }
    }
}

#[test]
fn truncated_and_mutated_model_files_are_typed() {
    let bytes = encode_model(&sample_model()).unwrap();
    for cut in 0..bytes.len() {
        match decode_model(&bytes[..cut]) {
            Err(
                WireError::Truncated { .. }
                | WireError::BadMagic { .. }
                | WireError::UnsupportedVersion { .. },
            ) => {}
            other => panic!("prefix {cut}: expected a typed error, got {other:?}"),
        }
    }
    // Trailing garbage after a complete model is corruption, not slack.
    let mut padded = bytes;
    padded.push(0);
    assert_eq!(
        decode_model(&padded),
        Err(WireError::TrailingBytes { count: 1 })
    );
}

#[test]
fn hostile_tensor_and_raster_counts_cannot_allocate() {
    // Model file announcing u32::MAX tensors: each costs >= 8 bytes, so
    // the count check fails against the few remaining bytes immediately.
    let record = ModelRecord {
        layers: Vec::new(),
        weights: NetworkWeights { params: Vec::new() },
        ..sample_model()
    };
    let mut bytes = encode_model(&record).unwrap();
    let len = bytes.len();
    bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_model(&bytes),
        Err(WireError::Truncated { .. })
    ));

    // Raster announcing u32::MAX active trains.
    let raster = SpikeRaster::new(4, 96);
    let mut bytes = encode_raster(&raster).unwrap();
    // Force sparse mode with a hostile count: header(8) + mode + count.
    bytes[8] = 0; // sparse
    let len = bytes.len();
    bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_raster(&bytes),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn header_len_constant_matches_the_layout() {
    let bytes = encode_frame(&Frame::Response(Response::Pong)).unwrap();
    assert_eq!(FRAME_HEADER_LEN, 6);
    assert_eq!(bytes.len(), FRAME_HEADER_LEN + 1); // tag-only payload
}
