//! Golden-file suite for the newline-delimited JSON protocol: the
//! `encode_line` output of one value per `Request`/`Response` variant is
//! pinned byte for byte by `tests/golden/protocol_lines.jsonl`.
//!
//! The JSON wire has no version byte, so a changed line breaks every
//! deployed client.  A mismatch without an intended protocol change means
//! the JSON codec regressed: fix the codec, do not re-bless.  An intended
//! change is re-blessed with
//! `NRSNN_WIRE_BLESS=1 cargo test -p nrsnn-serve --test golden_json` and
//! needs a CHANGES.md entry naming the cause (CI's `rebless-rule` job
//! enforces this).

use std::path::PathBuf;

use nrsnn_obs::{KernelPath, Stage};
use nrsnn_serve::protocol::{decode_request, decode_response, encode_line};
use nrsnn_serve::{
    InferenceReply, Request, RequestTrace, Response, ServerStats, StageLatency, TraceSpan,
};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/protocol_lines.jsonl")
}

/// The frozen requests.  Editing them invalidates the fixture just as
/// surely as editing the codec.
fn golden_requests() -> Vec<Request> {
    vec![
        Request::Infer {
            model: "mnist-ttas5-ws".to_string(),
            seed: 9_007_199_254_740_993, // 2^53 + 1: must survive as a string
            input: vec![-0.0, 1.5e-42, 0.5, 0.25],
        },
        Request::Stats,
        Request::ListModels,
        Request::Ping,
        Request::Trace { last: 16 },
    ]
}

/// The frozen responses, one per variant.
fn golden_responses() -> Vec<Response> {
    vec![
        Response::Infer(InferenceReply {
            model: "mnist-ttas5-ws".to_string(),
            predicted: 7,
            logits: vec![-0.25, 3.5, 0.0, 0.125],
            total_spikes: 12_345,
            latency_us: 678,
            trace_id: 9_007_199_254_740_995, // above 2^53
        }),
        Response::Stats(ServerStats {
            requests_received: 10,
            requests_served: 8,
            rejected_busy: 1,
            failed: 1,
            batches: 4,
            batch_size_histogram: vec![2, 1, 0, 1],
            mean_batch_size: 2.25,
            p50_latency_us: 120,
            p99_latency_us: 480,
            mean_latency_us: 150.5,
            total_spikes: 4096,
            spikes_per_inference: 512.0,
            batch_size_offset: 2,
            p999_latency_us: 495,
            stage_latency_ns: vec![
                StageLatency {
                    stage: "queue_wait".to_string(),
                    p50_ns: 11_000,
                    p99_ns: 72_000,
                },
                StageLatency {
                    stage: "simulate".to_string(),
                    p50_ns: 95_000,
                    p99_ns: 410_000,
                },
            ],
        }),
        Response::Models(vec!["mnist-ttas5-ws".to_string(), "mnist-rate".to_string()]),
        Response::Pong,
        Response::Trace(vec![RequestTrace {
            trace_id: 9_007_199_254_740_997, // above 2^53
            model: "mnist-ttas5-ws".to_string(),
            seed: u64::MAX - 5,
            worker: 1,
            start_ns: 1_000,
            end_ns: 250_000,
            ok: true,
            backend: "avx2".to_string(),
            spans: vec![
                TraceSpan {
                    stage: Stage::QueueWait.code(),
                    layer: None,
                    start_ns: 1_000,
                    end_ns: 12_000,
                    kernel: KernelPath::None.code(),
                    density: 0.0,
                },
                TraceSpan {
                    stage: Stage::Simulate.code(),
                    layer: Some(1),
                    start_ns: 12_000,
                    end_ns: 250_000,
                    kernel: KernelPath::Dense.code(),
                    density: 0.0625,
                },
            ],
            dropped_spans: 0,
        }]),
        Response::Error {
            code: "busy".to_string(),
            message: "server busy: queue holds 64 requests".to_string(),
        },
    ]
}

#[test]
fn json_lines_match_the_committed_fixture() {
    let requests = golden_requests();
    let responses = golden_responses();
    let lines: Vec<String> = requests
        .iter()
        .map(encode_line)
        .chain(responses.iter().map(encode_line))
        .collect();
    let text = lines.concat();
    if std::env::var("NRSNN_WIRE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
        std::fs::write(fixture_path(), &text).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             generate with NRSNN_WIRE_BLESS=1 cargo test -p nrsnn-serve --test golden_json",
            fixture_path().display()
        )
    });
    let expected: Vec<&str> = expected.split_inclusive('\n').collect();
    assert_eq!(expected.len(), lines.len(), "one fixture line per value");
    for (want, got) in expected.iter().zip(&lines) {
        assert_eq!(want, got, "JSON line drifted from the committed fixture");
    }

    // Every fixture line decodes back to the value it was encoded from.
    for (line, request) in expected.iter().zip(&requests) {
        assert_eq!(&decode_request(line).unwrap(), request, "{line}");
    }
    for (line, response) in expected[requests.len()..].iter().zip(&responses) {
        assert_eq!(&decode_response(line).unwrap(), response, "{line}");
    }
}
