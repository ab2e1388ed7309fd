//! Serving throughput: dynamic batching vs one-request-per-call, on the
//! Fig. 7 workload (CIFAR-10-like pipeline, TTAS(5) with weight scaling
//! under 50 % spike deletion).
//!
//! * **request-at-a-time** — the naive serving loop the repo offered before
//!   `nrsnn-serve`: every request is one `SnnNetwork::simulate` call with a
//!   one-shot workspace.
//! * **dynamic batching** — the real server: 4 concurrent in-process
//!   clients, one batcher worker with a warm `SimWorkspace`, same-model
//!   requests coalesced into batched simulation calls.
//!
//! Every server reply is asserted **bit-identical** to the request-at-a-time
//! reference before any timing happens — batching buys throughput, never
//! different results.  A single batcher worker is used so the comparison
//! isolates the batching/workspace effect from thread-level parallelism.
//!
//! ```text
//! cargo bench -p nrsnn-bench --bench serve_throughput
//! ```

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nrsnn::prelude::*;
use nrsnn_bench::{bench_sweep_config, cifar10_pipeline, record_bench_summary};
use nrsnn_runtime::derive_seed;
use nrsnn_serve::{ModelRegistry, ModelSpec, NoiseSpec, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODEL: &str = "fig7-ttas5-ws";
const MASTER_SEED: u64 = 2021;
const REQUESTS: usize = 48;
const CLIENTS: usize = 4;

struct Workload {
    network: SnnNetwork,
    coding: Box<dyn NeuralCoding>,
    cfg: CodingConfig,
    noise: DeletionNoise,
    inputs: Vec<Vec<f32>>,
}

fn workload() -> Workload {
    let pipeline = cifar10_pipeline();
    let scaling = WeightScaling::for_deletion_probability(0.5).expect("ws");
    let kind = CodingKind::Ttas(5);
    let test_inputs = &pipeline.dataset().test.inputs;
    let rows = test_inputs.dims()[0];
    let inputs = (0..REQUESTS)
        .map(|i| test_inputs.row_slice(i % rows).expect("row").to_vec())
        .collect();
    Workload {
        network: pipeline.to_snn(&scaling).expect("convert"),
        coding: kind.build(),
        cfg: pipeline.coding_config(kind, bench_sweep_config().time_steps),
        noise: DeletionNoise::new(0.5).expect("noise"),
        inputs,
    }
}

/// Registers the workload as a servable model through its `ModelSpec`
/// (the path model files take once decoded).
fn registry(w: &Workload) -> ModelRegistry {
    let spec = ModelSpec::from_network(
        MODEL,
        &w.network,
        CodingKind::Ttas(5),
        &w.cfg,
        NoiseSpec::Deletion(0.5),
        2.0,
        MASTER_SEED,
    );
    let mut registry = ModelRegistry::new();
    registry.register_spec(&spec).expect("register model spec");
    registry
}

/// The naive serving loop: one allocate-a-workspace `simulate` call per
/// request, seeds derived exactly as the server derives them.
fn run_request_at_a_time(w: &Workload) -> Vec<(usize, Vec<u32>)> {
    w.inputs
        .iter()
        .enumerate()
        .map(|(seed, input)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(MASTER_SEED, seed as u64));
            let outcome = w
                .network
                .simulate(input, w.coding.as_ref(), &w.cfg, &w.noise, &mut rng)
                .expect("simulate");
            let bits = outcome.logits.iter().map(|l| l.to_bits()).collect();
            (outcome.predicted, bits)
        })
        .collect()
}

/// Drives the running server with `CLIENTS` concurrent in-process clients
/// and returns the replies as `(request index, predicted, logit bits)`.
fn run_server_round(server: &Server, w: &Workload) -> Vec<(usize, usize, Vec<u32>)> {
    let threads: Vec<_> = (0..CLIENTS)
        .map(|client_index| {
            let client = server.client();
            let inputs: Vec<(usize, Vec<f32>)> = w
                .inputs
                .iter()
                .enumerate()
                .skip(client_index)
                .step_by(CLIENTS)
                .map(|(index, input)| (index, input.clone()))
                .collect();
            std::thread::spawn(move || {
                inputs
                    .into_iter()
                    .map(|(index, input)| {
                        let reply = client
                            .infer_retrying(MODEL, &input, index as u64)
                            .expect("serve");
                        let bits = reply.logits.iter().map(|l| l.to_bits()).collect();
                        (index, reply.predicted, bits)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut replies: Vec<(usize, usize, Vec<u32>)> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    replies.sort_by_key(|(index, _, _)| *index);
    replies
}

fn throughput_report(w: &Workload) -> Server {
    let server = Server::start(
        registry(w),
        ServerConfig {
            workers: 1,
            max_batch: 16,
            batch_window: Duration::ZERO,
            queue_capacity: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("start server");

    // Equality gate before timing: every served reply must be bit-identical
    // to the request-at-a-time reference.
    let reference = run_request_at_a_time(w);
    let served = run_server_round(&server, w);
    assert_eq!(served.len(), reference.len());
    for (index, predicted, bits) in &served {
        assert_eq!(*predicted, reference[*index].0, "request {index}");
        assert_eq!(
            *bits, reference[*index].1,
            "request {index} logits diverged"
        );
    }

    let rounds = 3;
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(run_request_at_a_time(w));
    }
    let unbatched_rps = (rounds * REQUESTS) as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..rounds {
        black_box(run_server_round(&server, w));
    }
    let batched_rps = (rounds * REQUESTS) as f64 / start.elapsed().as_secs_f64();

    let stats = server.stats();
    let speedup = batched_rps / unbatched_rps;
    println!("\n==== Serving throughput (fig7 workload: TTAS(5)+WS, deletion p=0.5) ====");
    println!("{:<32}{:>14}", "path", "requests/s");
    println!(
        "{:<32}{:>14.1}",
        "request-at-a-time (simulate)", unbatched_rps
    );
    println!(
        "{:<32}{:>14.1}",
        format!("dynamic batching ({CLIENTS} clients)"),
        batched_rps
    );
    println!("dynamic batching speedup: {speedup:.2}x");
    println!(
        "served {} requests in {} batches (mean batch {:.1}, p50 {} us, p99 {} us, {:.0} spikes/inf)\n",
        stats.requests_served,
        stats.batches,
        stats.mean_batch_size,
        stats.p50_latency_us,
        stats.p99_latency_us,
        stats.spikes_per_inference,
    );

    record_bench_summary(
        "serve_throughput",
        &[
            ("unbatched_rps", unbatched_rps),
            ("batched_rps", batched_rps),
            ("batching_speedup", speedup),
            ("mean_batch_size", stats.mean_batch_size),
            ("p50_latency_us", stats.p50_latency_us as f64),
            ("p99_latency_us", stats.p99_latency_us as f64),
            ("spikes_per_inference", stats.spikes_per_inference),
        ],
    );
    server
}

fn bench(c: &mut Criterion) {
    let w = workload();
    let server = throughput_report(&w);

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.bench_function("request_at_a_time_48", |b| {
        b.iter(|| black_box(run_request_at_a_time(&w)))
    });
    group.bench_function("dynamic_batching_48", |b| {
        b.iter(|| black_box(run_server_round(&server, &w)))
    });
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
