//! Wire-protocol throughput: binary framing vs line-delimited JSON over the
//! same TCP front-end, request-at-a-time (batch 1).
//!
//! The served model is deliberately tiny (one linear layer, few time steps)
//! while the input vector is wide, so the per-request cost is dominated by
//! the protocol — encoding, parsing and socket traffic — rather than by
//! simulation.  That is the regime the binary framing exists for.
//!
//! Before any timing, every reply from both transports is asserted
//! **bit-identical** to the offline `simulate_with` reference: the wire
//! format is transport, never semantics.
//!
//! Reported into `BENCH_sim.json`: requests/s for each format, the binary
//! speedup, and mean bytes/request (request + reply) for each format.
//!
//! ```text
//! cargo bench -p nrsnn-bench --bench protocol_throughput
//! ```

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nrsnn_bench::record_bench_summary;
use nrsnn_runtime::derive_seed;
use nrsnn_serve::{
    binary, build_noise, protocol, InferenceReply, ModelRegistry, NoiseSpec, Request, Response,
    ServedModel, Server, ServerConfig, TcpClient,
};
use nrsnn_snn::{CodingConfig, CodingKind, SimWorkspace, SnnLayer, SnnNetwork};
use nrsnn_tensor::Tensor;
use nrsnn_wire::encode_frame;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODEL: &str = "wide-input-mlp";
const MASTER_SEED: u64 = 0xF0F0;
const INPUT_DIM: usize = 1024;
const CLASSES: usize = 10;
const TIME_STEPS: u32 = 12;
const REQUESTS: usize = 64;

fn toy_network() -> SnnNetwork {
    // Deterministic, structured weights: no RNG so the bench workload is
    // identical run to run.
    let weights: Vec<f32> = (0..CLASSES * INPUT_DIM)
        .map(|i| {
            let row = i / INPUT_DIM;
            let col = i % INPUT_DIM;
            (((row * 31 + col * 7) % 97) as f32 / 97.0 - 0.5) * 0.2
        })
        .collect();
    let bias: Vec<f32> = (0..CLASSES).map(|i| i as f32 * 0.01).collect();
    SnnNetwork::new(vec![SnnLayer::Linear {
        weights: Tensor::from_vec(weights, &[CLASSES, INPUT_DIM]).unwrap(),
        bias: Tensor::from_vec(bias, &[CLASSES]).unwrap(),
    }])
    .unwrap()
}

fn coding_config() -> CodingConfig {
    CodingConfig::new(TIME_STEPS, 1.0)
}

fn inputs() -> Vec<Vec<f32>> {
    (0..REQUESTS)
        .map(|r| {
            (0..INPUT_DIM)
                .map(|j| ((derive_seed(r as u64, j as u64) % 1000) as f32) / 1000.0)
                .collect()
        })
        .collect()
}

fn start_server() -> (Server, SocketAddr) {
    let mut registry = ModelRegistry::new();
    registry
        .insert(
            ServedModel::new(
                MODEL,
                toy_network(),
                CodingKind::Rate,
                coding_config(),
                NoiseSpec::Clean,
                1.0,
                MASTER_SEED,
            )
            .unwrap(),
        )
        .unwrap();
    let mut server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            max_batch: 1, // batch 1: the protocol tax is the subject
            batch_window: Duration::ZERO,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.serve_tcp(("127.0.0.1", 0)).expect("bind");
    (server, addr)
}

fn offline_reference(inputs: &[Vec<f32>]) -> Vec<(usize, Vec<u32>)> {
    let network = toy_network();
    let coding = CodingKind::Rate.build();
    let cfg = coding_config();
    let noise = build_noise(&NoiseSpec::Clean).unwrap();
    let mut ws = SimWorkspace::new();
    inputs
        .iter()
        .enumerate()
        .map(|(seed, input)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(MASTER_SEED, seed as u64));
            let outcome = network
                .simulate_with(
                    input,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    &mut rng,
                    &mut ws,
                )
                .unwrap();
            let bits = ws.logits().iter().map(|l| l.to_bits()).collect();
            (outcome.predicted, bits)
        })
        .collect()
}

fn run_round(client: &mut TcpClient, inputs: &[Vec<f32>]) -> Vec<InferenceReply> {
    inputs
        .iter()
        .enumerate()
        .map(|(seed, input)| {
            client
                .infer_retrying(MODEL, input, seed as u64)
                .expect("infer")
        })
        .collect()
}

/// Mean bytes per request on each wire: encoded request + encoded reply,
/// measured with the exact encoders the client and server use.
fn bytes_per_request(inputs: &[Vec<f32>], replies: &[InferenceReply]) -> (f64, f64) {
    let mut json_total = 0usize;
    let mut binary_total = 0usize;
    for (seed, (input, reply)) in inputs.iter().zip(replies.iter()).enumerate() {
        let request = Request::Infer {
            model: MODEL.to_string(),
            seed: seed as u64,
            input: input.clone(),
        };
        let response = Response::Infer(reply.clone());
        // The JSON transport sends one newline-terminated line each way.
        json_total += protocol::encode_line(&request).len() + 1;
        json_total += protocol::encode_line(&response).len() + 1;
        binary_total += encode_frame(&binary::request_to_frame(&request))
            .unwrap()
            .len();
        binary_total += encode_frame(&binary::response_to_frame(&response))
            .unwrap()
            .len();
    }
    (
        json_total as f64 / inputs.len() as f64,
        binary_total as f64 / inputs.len() as f64,
    )
}

fn equality_gate(replies: &[InferenceReply], reference: &[(usize, Vec<u32>)], label: &str) {
    assert_eq!(replies.len(), reference.len());
    for (index, reply) in replies.iter().enumerate() {
        assert_eq!(
            reply.predicted, reference[index].0,
            "{label} request {index}"
        );
        let bits: Vec<u32> = reply.logits.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            bits, reference[index].1,
            "{label} request {index}: reply depends on the wire format"
        );
    }
}

fn throughput_report() {
    let inputs = inputs();
    let reference = offline_reference(&inputs);
    let (server, addr) = start_server();

    let mut json_client = TcpClient::connect(addr).expect("json connect");
    let mut binary_client = TcpClient::connect_binary(addr).expect("binary connect");

    // Equality gate before any timing.
    let json_replies = run_round(&mut json_client, &inputs);
    let binary_replies = run_round(&mut binary_client, &inputs);
    equality_gate(&json_replies, &reference, "json");
    equality_gate(&binary_replies, &reference, "binary");

    let (json_bytes, binary_bytes) = bytes_per_request(&inputs, &json_replies);

    let rounds = 8;
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(run_round(&mut json_client, &inputs));
    }
    let json_rps = (rounds * REQUESTS) as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..rounds {
        black_box(run_round(&mut binary_client, &inputs));
    }
    let binary_rps = (rounds * REQUESTS) as f64 / start.elapsed().as_secs_f64();

    let speedup = binary_rps / json_rps;
    println!(
        "\n==== Protocol throughput (batch 1, {INPUT_DIM}-wide input, {CLASSES}-class toy) ===="
    );
    println!(
        "{:<24}{:>14}{:>18}",
        "wire format", "requests/s", "bytes/request"
    );
    println!("{:<24}{:>14.1}{:>18.1}", "json lines", json_rps, json_bytes);
    println!(
        "{:<24}{:>14.1}{:>18.1}",
        "binary frames", binary_rps, binary_bytes
    );
    println!(
        "binary speedup: {speedup:.2}x requests/s, {:.2}x smaller on the wire\n",
        json_bytes / binary_bytes
    );

    record_bench_summary(
        "protocol_throughput",
        &[
            ("json_rps", json_rps),
            ("binary_rps", binary_rps),
            ("binary_speedup", speedup),
            ("json_bytes_per_request", json_bytes),
            ("binary_bytes_per_request", binary_bytes),
        ],
    );

    drop(json_client);
    drop(binary_client);
    server.shutdown();
}

fn bench(c: &mut Criterion) {
    throughput_report();

    let inputs = inputs();
    let (server, addr) = start_server();
    let mut json_client = TcpClient::connect(addr).expect("json connect");
    let mut binary_client = TcpClient::connect_binary(addr).expect("binary connect");

    let mut group = c.benchmark_group("protocol_throughput");
    group.sample_size(10);
    group.bench_function("json_64_requests", |b| {
        b.iter(|| black_box(run_round(&mut json_client, &inputs)))
    });
    group.bench_function("binary_64_requests", |b| {
        b.iter(|| black_box(run_round(&mut binary_client, &inputs)))
    });
    group.finish();

    drop(json_client);
    drop(binary_client);
    server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
