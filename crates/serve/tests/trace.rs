//! Flight-recorder concurrency suite: under a seeded multi-client hammer,
//! every reply's trace id must resolve — through a concurrent `trace`
//! scrape — to a complete, monotonically ordered per-stage timeline whose
//! span durations tile at least 95 % of the recorded end-to-end latency.
//!
//! Runs the same checks over the in-process client and both TCP wire
//! formats (JSON and binary framing), which share one flight recorder.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use nrsnn_obs::{KernelPath, Stage};
use nrsnn_serve::{
    ModelRegistry, NoiseSpec, RequestTrace, ServedModel, Server, ServerConfig, TcpClient,
};
use nrsnn_snn::{CodingConfig, CodingKind, SnnLayer, SnnNetwork};
use nrsnn_tensor::Tensor;

const MASTER_SEED: u64 = 0x7EAC_E5EED;
const MODEL: &str = "trace-toy";
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 32;

fn toy_network() -> SnnNetwork {
    let l0 = SnnLayer::Linear {
        weights: Tensor::from_vec(
            vec![
                0.9, -0.2, 0.1, 0.3, //
                -0.1, 0.8, 0.2, -0.3, //
                0.2, 0.1, 0.7, 0.2, //
                0.3, -0.4, 0.1, 0.6,
            ],
            &[4, 4],
        )
        .unwrap(),
        bias: Tensor::from_vec(vec![0.05, -0.05, 0.0, 0.1], &[4]).unwrap(),
    };
    let l1 = SnnLayer::Linear {
        weights: Tensor::from_vec(
            vec![
                0.6, -0.2, 0.3, 0.1, //
                -0.3, 0.7, -0.1, 0.4, //
                0.1, 0.2, 0.5, -0.3,
            ],
            &[3, 4],
        )
        .unwrap(),
        bias: Tensor::zeros(&[3]),
    };
    SnnNetwork::new(vec![l0, l1]).unwrap()
}

fn registry() -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry
        .insert(
            ServedModel::new(
                MODEL,
                toy_network(),
                CodingKind::Ttas(3),
                CodingConfig::new(48, 1.0),
                NoiseSpec::Deletion(0.3),
                1.0,
                MASTER_SEED,
            )
            .unwrap(),
        )
        .unwrap();
    registry
}

fn input_for(i: u64) -> Vec<f32> {
    (0..4)
        .map(|j| (((i * 31 + j * 7 + 13) % 100) as f32) / 100.0)
        .collect()
}

/// Asserts the full per-timeline contract and returns the fraction of the
/// end-to-end latency covered by the spans.
fn check_timeline(trace: &RequestTrace, context: &str) -> f64 {
    assert!(trace.ok, "{context}: request did not fail");
    assert_eq!(trace.model, MODEL, "{context}");
    assert!(!trace.backend.is_empty(), "{context}: backend tag missing");
    assert_eq!(trace.dropped_spans, 0, "{context}: spans were dropped");
    assert!(trace.end_ns >= trace.start_ns, "{context}");
    assert!(!trace.spans.is_empty(), "{context}: timeline has no spans");

    // The timeline starts in the queue and ends serializing the reply.
    assert_eq!(
        trace.spans.first().unwrap().stage,
        Stage::QueueWait.code(),
        "{context}"
    );
    assert_eq!(
        trace.spans.last().unwrap().stage,
        Stage::ReplySerialize.code(),
        "{context}"
    );

    let mut covered_ns = 0u64;
    let mut previous_end = trace.start_ns;
    let mut simulate_spans = 0usize;
    for (s, span) in trace.spans.iter().enumerate() {
        assert!(
            span.end_ns >= span.start_ns,
            "{context}: span {s} ({}) runs backwards",
            span.stage
        );
        assert!(
            span.start_ns >= previous_end,
            "{context}: span {s} ({}) starts before span {} ends",
            span.stage,
            s.wrapping_sub(1)
        );
        assert!(
            span.start_ns >= trace.start_ns && span.end_ns <= trace.end_ns,
            "{context}: span {s} ({}) escapes the request window",
            span.stage
        );
        previous_end = span.end_ns;
        covered_ns += span.end_ns - span.start_ns;
        if span.stage == Stage::Simulate.code() {
            simulate_spans += 1;
            assert!(
                span.layer.is_some(),
                "{context}: simulate span without a layer tag"
            );
            assert_eq!(
                span.kernel,
                KernelPath::Dense.code(),
                "{context}: every layer has one (dense) forward kernel"
            );
            assert!(
                (0.0..=1.0).contains(&span.density),
                "{context}: density {} out of range",
                span.density
            );
        }
    }
    assert!(
        simulate_spans >= 2,
        "{context}: a two-layer network must record >= 2 simulate spans"
    );

    // Stage durations sum to no more than — and cover >= 95 % of — the
    // recorded end-to-end latency (monotone tiling guarantees <=; the
    // acceptance bar demands >=).
    let total_ns = trace.end_ns - trace.start_ns;
    assert!(covered_ns <= total_ns, "{context}: spans exceed the window");
    let coverage = if total_ns == 0 {
        1.0
    } else {
        covered_ns as f64 / total_ns as f64
    };
    assert!(
        coverage >= 0.95,
        "{context}: spans cover only {:.1}% of the end-to-end latency",
        coverage * 100.0
    );
    coverage
}

#[test]
fn hammered_flight_recorder_resolves_every_reply_to_a_complete_timeline() {
    let server = Server::start(
        registry(),
        ServerConfig {
            workers: 4,
            max_batch: 8,
            batch_window: Duration::from_micros(200),
            queue_capacity: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = server.client();

    // A scraper thread hammers the recorder *while* requests are in
    // flight: concurrent reads must never corrupt or block recording.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for trace in client.trace(16) {
                    // Mid-flight scrapes only ever see fully recorded
                    // timelines: records are published after completion.
                    check_timeline(&trace, "mid-flight scrape");
                }
                scrapes += 1;
            }
            scrapes
        })
    };

    let submitters: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = client.clone();
            std::thread::spawn(move || {
                (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        let seed = (c * REQUESTS_PER_CLIENT + r) as u64;
                        let reply = client
                            .infer_retrying(MODEL, &input_for(seed), seed)
                            .unwrap();
                        (seed, reply)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let replies: Vec<_> = submitters
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(scraper.join().unwrap() > 0, "scraper never ran");
    assert_eq!(replies.len(), CLIENTS * REQUESTS_PER_CLIENT);

    // Every reply's trace id resolves in the final scrape (the per-worker
    // rings hold 256 recent timelines — far more than this run records).
    let timelines: HashMap<u64, RequestTrace> = client
        .trace(usize::MAX)
        .into_iter()
        .map(|t| (t.trace_id, t))
        .collect();
    let mut ids = std::collections::HashSet::new();
    for (seed, reply) in &replies {
        assert_ne!(reply.trace_id, 0, "request {seed}: no trace id assigned");
        assert!(ids.insert(reply.trace_id), "duplicate trace id");
        let trace = timelines.get(&reply.trace_id).unwrap_or_else(|| {
            panic!(
                "request {seed}: trace id {} not in the recorder",
                reply.trace_id
            )
        });
        assert_eq!(trace.seed, *seed, "timeline belongs to another request");
        check_timeline(trace, &format!("request {seed}"));
    }
    server.shutdown();
}

#[test]
fn trace_scrapes_agree_across_json_and_binary_wires() {
    let mut server = Server::start(
        registry(),
        ServerConfig {
            workers: 2,
            max_batch: 4,
            batch_window: Duration::from_micros(100),
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.serve_tcp(("127.0.0.1", 0)).unwrap();

    // Drive load over both wire formats concurrently.
    let drivers: Vec<_> = (0..2)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = if w == 0 {
                    TcpClient::connect(addr).unwrap()
                } else {
                    TcpClient::connect_binary(addr).unwrap()
                };
                (0..8)
                    .map(|r| {
                        let seed = (w * 100 + r) as u64;
                        let reply = client
                            .infer_retrying(MODEL, &input_for(seed), seed)
                            .unwrap();
                        (seed, reply.trace_id)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let replies: Vec<(u64, u64)> = drivers
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();

    // Both wires must return the same recorder contents, span for span.
    let mut json = TcpClient::connect(addr).unwrap();
    let mut binary = TcpClient::connect_binary(addr).unwrap();
    let from_json: HashMap<u64, RequestTrace> = json
        .trace(256)
        .unwrap()
        .into_iter()
        .map(|t| (t.trace_id, t))
        .collect();
    let from_binary: HashMap<u64, RequestTrace> = binary
        .trace(256)
        .unwrap()
        .into_iter()
        .map(|t| (t.trace_id, t))
        .collect();

    for (seed, trace_id) in &replies {
        assert_ne!(*trace_id, 0, "request {seed}: no trace id over TCP");
        let via_json = from_json
            .get(trace_id)
            .unwrap_or_else(|| panic!("request {seed}: missing from JSON scrape"));
        let via_binary = from_binary
            .get(trace_id)
            .unwrap_or_else(|| panic!("request {seed}: missing from binary scrape"));
        check_timeline(via_json, &format!("request {seed} via JSON"));
        assert_eq!(
            via_json, via_binary,
            "request {seed}: wire formats disagree about the timeline"
        );
    }
    server.shutdown();
}
