//! Load generator for the `nrsnn-serve` inference server: trains a small
//! pipeline, exports the paper's robust configuration (TTAS + weight
//! scaling) as a binary `NRSM` model file, serves it over TCP on an
//! ephemeral port, and drives it with N concurrent clients while printing
//! throughput and the server's own metrics (batch histogram, p50/p99
//! latency, spikes/inference).
//!
//! Run with:
//! ```text
//! cargo run --release --example serve_loadgen
//! cargo run --release --example serve_loadgen -- --clients 8 --requests 32
//! cargo run --release --example serve_loadgen -- --smoke   # tiny CI run
//! cargo run --release --example serve_loadgen -- --binary  # binary-framing clients
//! cargo run --release --example serve_loadgen -- --report  # per-stage latency table + traces
//! NRSNN_THREADS=4 cargo run --release --example serve_loadgen
//! ```

use std::time::{Duration, Instant};

use nrsnn::prelude::*;
use nrsnn_obs::{KernelPath, Stage};
use nrsnn_serve::{ModelRegistry, ModelSpec, NoiseSpec, Server, ServerConfig, TcpClient};

const MODEL: &str = "mnist-ttas5-ws";
const MASTER_SEED: u64 = 2021;

struct Options {
    clients: usize,
    requests_per_client: usize,
    smoke: bool,
    binary: bool,
    report: bool,
}

fn parse_options() -> Options {
    let mut options = Options {
        clients: 4,
        requests_per_client: 32,
        smoke: false,
        binary: false,
        report: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => {
                options.clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a positive integer");
            }
            "--requests" => {
                options.requests_per_client = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a positive integer");
            }
            "--smoke" => options.smoke = true,
            "--binary" => options.binary = true,
            "--report" => options.report = true,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: serve_loadgen [--clients N] [--requests M] [--smoke] [--binary] [--report]"
                );
                std::process::exit(2);
            }
        }
    }
    if options.smoke {
        options.clients = options.clients.min(4);
        options.requests_per_client = options.requests_per_client.min(8);
    }
    options
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = parse_options();

    // 1. Train + convert the paper's robust configuration.
    let mut pipeline_config = PipelineConfig::mnist_small();
    if options.smoke {
        pipeline_config.dataset = pipeline_config.dataset.with_samples(96, 48);
        pipeline_config.epochs = 5;
    }
    println!("training MLP on {} ...", pipeline_config.dataset.name);
    let pipeline = TrainedPipeline::build(&pipeline_config)?;
    let robust = RobustSnnBuilder::new()
        .burst_duration(5)
        .expected_deletion(0.5)
        .time_steps(if options.smoke { 64 } else { 96 })
        .build(&pipeline)?;

    // 2. Export the converted network as an NRSM model file and load it
    //    back through the registry — the same path a deployment uses.
    let spec = ModelSpec::from_network(
        MODEL,
        &robust.network,
        CodingKind::Ttas(5),
        &robust.config,
        NoiseSpec::Deletion(0.5),
        robust.scaling.factor(),
        MASTER_SEED,
    );
    let model_path = std::env::temp_dir().join("nrsnn_serve_loadgen_model.nrsm");
    std::fs::write(&model_path, spec.to_binary()?)?;
    println!(
        "exported NRSM model file: {} ({} bytes)",
        model_path.display(),
        std::fs::metadata(&model_path)?.len()
    );
    let mut registry = ModelRegistry::new();
    let loaded = registry.load_file(&model_path);
    std::fs::remove_file(&model_path)?;
    loaded?;

    // 3. Serve it over TCP on an ephemeral port.
    let mut server = Server::start(
        registry,
        ServerConfig {
            workers: 0, // auto (honours NRSNN_THREADS)
            max_batch: 16,
            batch_window: Duration::ZERO,
            queue_capacity: 1024,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.serve_tcp(("127.0.0.1", 0))?;
    println!(
        "serving {MODEL:?} on {addr} ({} wire) ...",
        if options.binary { "binary" } else { "JSON" }
    );

    // 4. Drive it with N concurrent TCP clients.
    let test_inputs = &pipeline.dataset().test.inputs;
    let rows = test_inputs.dims()[0];
    let total = options.clients * options.requests_per_client;
    let start = Instant::now();
    let clients: Vec<_> = (0..options.clients)
        .map(|client_index| {
            let inputs: Vec<Vec<f32>> = (0..options.requests_per_client)
                .map(|r| {
                    let index = client_index * options.requests_per_client + r;
                    test_inputs.row_slice(index % rows).expect("row").to_vec()
                })
                .collect();
            let binary = options.binary;
            std::thread::spawn(move || {
                let mut client = if binary {
                    TcpClient::connect_binary(addr).expect("connect")
                } else {
                    TcpClient::connect(addr).expect("connect")
                };
                let mut answered = 0usize;
                for (r, input) in inputs.iter().enumerate() {
                    let seed = (client_index * 1_000 + r) as u64;
                    let reply = client.infer_retrying(MODEL, input, seed).expect("infer");
                    assert!(!reply.logits.is_empty());
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    let mut answered = 0usize;
    for client in clients {
        answered += client.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(answered, total, "every request must receive a response");

    // 5. Report.
    let mut probe = if options.binary {
        TcpClient::connect_binary(addr)?
    } else {
        TcpClient::connect(addr)?
    };
    let stats = probe.stats()?;
    println!("\n==== serve_loadgen report ====");
    println!(
        "{total} requests from {} clients in {elapsed:.2}s -> {:.1} requests/s",
        options.clients,
        total as f64 / elapsed
    );
    println!(
        "served {} | busy-rejected {} | failed {} | batches {} (mean size {:.1})",
        stats.requests_served,
        stats.rejected_busy,
        stats.failed,
        stats.batches,
        stats.mean_batch_size
    );
    println!(
        "latency p50 {} us | p99 {} us | mean {:.0} us",
        stats.p50_latency_us, stats.p99_latency_us, stats.mean_latency_us
    );
    println!("spikes per inference: {:.0}", stats.spikes_per_inference);
    // Index i counts batches of size `batch_size_offset + i`: the leading
    // all-zero head of the histogram is trimmed on the wire.
    let sized: Vec<String> = stats
        .batch_size_histogram
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, count)| format!("{}:{count}", stats.batch_size_offset as usize + i))
        .collect();
    println!("batch-size histogram (size:count): {}", sized.join(" "));

    if options.report {
        println!("\n---- per-stage latency (from sharded stage histograms) ----");
        println!("{:<16} {:>12} {:>12}", "stage", "p50 (us)", "p99 (us)");
        for stage in &stats.stage_latency_ns {
            println!(
                "{:<16} {:>12.1} {:>12.1}",
                stage.stage,
                stage.p50_ns as f64 / 1_000.0,
                stage.p99_ns as f64 / 1_000.0
            );
        }
        println!("p999 end-to-end latency: {} us", stats.p999_latency_us);

        // Pull the most recent request timelines from the flight recorder
        // and print one fully decomposed: every microsecond accounted for.
        let traces = probe.trace(8)?;
        println!(
            "---- flight recorder: {} recent trace(s) ----",
            traces.len()
        );
        if let Some(trace) = traces.last() {
            let total_ns = trace.duration_ns().max(1);
            println!(
                "trace {} | model {} | seed {} | worker {} | backend {} | {} | {:.1} us total",
                trace.trace_id,
                trace.model,
                trace.seed,
                trace.worker,
                trace.backend,
                if trace.ok { "ok" } else { "failed" },
                total_ns as f64 / 1_000.0
            );
            let mut covered_ns = 0u64;
            for span in &trace.spans {
                let span_ns = span.end_ns.saturating_sub(span.start_ns);
                covered_ns += span_ns;
                let layer = span
                    .layer
                    .map_or_else(String::new, |l| format!(" layer {l}"));
                let kernel = KernelPath::from_code(span.kernel)
                    .and_then(KernelPath::as_str)
                    .map_or_else(String::new, |k| {
                        format!(" [{k}, density {:.3}]", span.density)
                    });
                println!(
                    "  {:<16}{layer}{kernel} {:>10.1} us ({:>4.1}%)",
                    Stage::from_code(span.stage).map_or("?", Stage::as_str),
                    span_ns as f64 / 1_000.0,
                    span_ns as f64 * 100.0 / total_ns as f64
                );
            }
            println!(
                "  span coverage: {:.1}% of end-to-end",
                covered_ns as f64 * 100.0 / total_ns as f64
            );
        }
    }

    server.shutdown();
    println!("server shut down cleanly");
    Ok(())
}
