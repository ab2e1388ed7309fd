//! The serving workload: the paper's proposed model (MLP, TTAS(5) + weight
//! scaling, served under 50 % deletion) behind the TCP front-end, driven by
//! two closed-loop clients, one per wire format.
//!
//! Both clients first send probe requests that are checked against an
//! offline `simulate_with` with the server's derived seed, meet at a
//! barrier, and then send test-set inputs back to back for the measuring
//! window.  Every round trip is timed by the client.

use std::error::Error;
use std::net::SocketAddr;
use std::sync::Barrier;
// nrsnn-lint: allow(forbidden-api) -- the benchmark times the library from outside, on its own clock
use std::time::{Duration, Instant};

use nrsnn::prelude::*;
use nrsnn_runtime::derive_seed;
use nrsnn_serve::binary::{
    frame_to_request, frame_to_response, request_to_frame, response_to_frame,
};
use nrsnn_serve::protocol::{decode_request, decode_response, encode_line};
use nrsnn_serve::{
    InferenceReply, ModelRegistry, ModelSpec, NoiseSpec, Request, Response, ServeError,
    ServedModel, Server, ServerConfig, ServerStats, TcpClient,
};
use nrsnn_snn::SimWorkspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::Metrics;
use crate::stats::{frontend_ns, median, percentiles, rtt_covers_server, Percentiles, Tally};
use crate::trace::{NoiseKind, StageTally};
use crate::{RunArgs, SETUP_REPS};

const MODEL: &str = "mnist-ttas5-ws";
const DELETION: f64 = 0.5;
const WORKERS: usize = 2;
const MAX_BATCH: usize = 16;
/// Checked requests each client sends before the measuring window.
const PROBES: usize = 64;
/// The traced offline replay repeats the probes this many times.
const TRACE_REPEATS: usize = 4;

/// The serve-only per-layer metrics; the sweep workloads report them as 0.
const SERVE_METRICS: &[(&str, &str)] = &[
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.simulate_p50_us", "us"),
    ("serve.reply_serialize_p50_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.binary.frontend_p50_us", "us"),
    ("serve.json.frontend_p50_us", "us"),
    ("serve.binary_p50_us", "us"),
    ("serve.binary_p99_us", "us"),
    ("serve.binary_p999_us", "us"),
    ("serve.binary_samples", "count"),
    ("serve.json_p50_us", "us"),
    ("serve.json_p99_us", "us"),
    ("serve.json_p999_us", "us"),
    ("serve.json_samples", "count"),
    ("serve.sent", "count"),
    ("serve.ok", "count"),
    ("serve.busy", "count"),
    ("serve.failed", "count"),
    ("wire.binary.request_encode_us", "us"),
    ("wire.binary.request_decode_us", "us"),
    ("wire.binary.reply_encode_us", "us"),
    ("wire.binary.reply_decode_us", "us"),
    ("wire.json.request_encode_us", "us"),
    ("wire.json.request_decode_us", "us"),
    ("wire.json.reply_encode_us", "us"),
    ("wire.json.reply_decode_us", "us"),
    ("wire.binary.request_bytes", "bytes"),
    ("wire.binary.reply_bytes", "bytes"),
    ("wire.json.request_bytes", "bytes"),
    ("wire.json.reply_bytes", "bytes"),
];

/// Pushes every serve-only per-layer metric as 0, for workloads that run
/// no server.
pub fn push_idle_metrics(metrics: &mut Metrics) {
    for &(name, unit) in SERVE_METRICS {
        metrics.push(name, 0.0, unit);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    Binary,
    Json,
}

impl Wire {
    fn label(self) -> &'static str {
        match self {
            Wire::Binary => "binary",
            Wire::Json => "json",
        }
    }

    fn connect(self, addr: SocketAddr) -> nrsnn_serve::Result<TcpClient> {
        match self {
            Wire::Binary => TcpClient::connect_binary(addr),
            Wire::Json => TcpClient::connect(addr),
        }
    }
}

struct ServeSetup {
    pipeline: TrainedPipeline,
    model_bytes: Vec<u8>,
    server: Server,
    addr: SocketAddr,
    train_s: f64,
    convert_s: f64,
    start_s: f64,
}

/// Trains, converts and exports the served model, then loads it into a
/// fresh server.  The model is trained with the preset's seed (as in the
/// sweeps); the workload seed sets the model's master noise seed.
fn setup(seed: u64) -> Result<ServeSetup, Box<dyn Error>> {
    let start = Instant::now();
    let pipeline = TrainedPipeline::build(&PipelineConfig {
        model: ModelKind::Mlp,
        ..PipelineConfig::mnist_small()
    })?;
    let train_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let robust = RobustSnnBuilder::new()
        .burst_duration(5)
        .expected_deletion(DELETION)
        .time_steps(128)
        .build(&pipeline)?;
    let spec = ModelSpec::from_network(
        MODEL,
        &robust.network,
        CodingKind::Ttas(5),
        &robust.config,
        NoiseSpec::Deletion(DELETION),
        robust.scaling.factor(),
        derive_seed(seed, 0x6d6f_64656c),
    );
    let model_bytes = spec.to_binary()?;
    let convert_s = start.elapsed().as_secs_f64();

    // Model load (from the NRSM bytes a deployment would read) and server
    // start.
    let start = Instant::now();
    let mut registry = ModelRegistry::new();
    registry.insert(ModelSpec::from_binary(&model_bytes)?.build()?)?;
    let mut server = Server::start(
        registry,
        ServerConfig {
            workers: WORKERS,
            max_batch: MAX_BATCH,
            batch_window: Duration::ZERO,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.serve_tcp(("127.0.0.1", 0))?;
    let start_s = start.elapsed().as_secs_f64();
    Ok(ServeSetup {
        pipeline,
        model_bytes,
        server,
        addr,
        train_s,
        convert_s,
        start_s,
    })
}

/// One checked probe: which test row and request seed, and the reply.
struct Probe {
    row: usize,
    seed: u64,
    reply: InferenceReply,
}

/// What one client thread observed.
#[derive(Default)]
struct ClientLog {
    probes: Vec<Probe>,
    /// Round trip and server-reported latency of each timed success.
    timed: Vec<(u64, u64)>,
    sent: u64,
    ok: u64,
    failed: u64,
    closure_violations: u64,
    label_matches: u64,
    spikes: u64,
    elapsed_s: f64,
}

/// The request schedule: client `client`'s `k`-th request serves test row
/// `order[k % rows]` with request seed `derive_seed(base, client << 32 | k)`.
struct Schedule {
    order: Vec<usize>,
    base: u64,
    client: u64,
}

impl Schedule {
    fn new(seed: u64, client: u64, rows: usize) -> Schedule {
        let mut order: Vec<usize> = (0..rows).collect();
        order.shuffle(&mut StdRng::seed_from_u64(derive_seed(seed, 100 + client)));
        Schedule {
            order,
            base: derive_seed(seed, 200),
            client,
        }
    }

    fn request(&self, k: usize) -> (usize, u64) {
        (
            self.order[k % self.order.len()],
            derive_seed(self.base, (self.client << 32) | k as u64),
        )
    }
}

fn drive_client(
    wire: Wire,
    addr: SocketAddr,
    schedule: &Schedule,
    set: &nrsnn_data::LabelledSet,
    window: Duration,
    barrier: &Barrier,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = wire.connect(addr).ok();
    if let Some(client) = client.as_mut() {
        for k in 0..PROBES {
            let (row, seed) = schedule.request(k);
            let input = set.inputs.row_slice(row).expect("row in range");
            log.sent += 1;
            match client.infer_retrying(MODEL, input, seed) {
                Ok(reply) => {
                    log.ok += 1;
                    log.probes.push(Probe { row, seed, reply });
                }
                Err(e) => {
                    warn!("{} probe failed: {e}", wire.label());
                    log.failed += 1;
                }
            }
        }
    } else {
        warn!("{} client could not connect", wire.label());
        log.failed += 1;
    }
    barrier.wait();
    let Some(mut client) = client else {
        return log;
    };
    let start = Instant::now();
    let mut k = PROBES;
    while start.elapsed() < window {
        let (row, seed) = schedule.request(k);
        k += 1;
        let input = set.inputs.row_slice(row).expect("row in range");
        log.sent += 1;
        let t = Instant::now();
        let result = client.infer_retrying(MODEL, input, seed);
        let rtt_ns = t.elapsed().as_nanos() as u64;
        match result {
            Ok(reply) => {
                log.ok += 1;
                if !rtt_covers_server(rtt_ns, reply.latency_us) {
                    log.closure_violations += 1;
                }
                log.label_matches += u64::from(reply.predicted == set.labels[row]);
                log.spikes += reply.total_spikes as u64;
                log.timed.push((rtt_ns, reply.latency_us));
            }
            Err(e) => {
                warn!("{} request failed: {e}", wire.label());
                log.failed += 1;
                // Only backpressure leaves the connection usable.
                if !matches!(e, ServeError::Busy { .. }) {
                    break;
                }
            }
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Offline `simulate_with` of every probe with the server's derived seed;
/// returns how many probes disagree with their reply and the replay time.
fn check_probes(
    model: &ServedModel,
    set: &nrsnn_data::LabelledSet,
    probes: &[&Probe],
    mut stages: Option<&mut StageTally>,
) -> Result<(u64, f64), Box<dyn Error>> {
    let mut ws = SimWorkspace::new();
    ws.set_stage_tracing(stages.is_some());
    let mut mismatches = 0;
    let start = Instant::now();
    for probe in probes {
        let mut rng = StdRng::seed_from_u64(derive_seed(model.master_seed, probe.seed));
        let t = Instant::now();
        let out = model.network.simulate_with(
            set.inputs.row_slice(probe.row)?,
            model.coding.as_ref(),
            &model.config,
            model.noise.as_ref(),
            &mut rng,
            &mut ws,
        )?;
        let call_ns = t.elapsed().as_nanos();
        if let Some(stages) = stages.as_deref_mut() {
            stages.record(
                &model.network,
                model.coding_kind,
                NoiseKind::Deletion,
                ws.stage_events(),
                call_ns,
                ws.spikes_per_layer(),
            );
        }
        let same_logits = ws.logits().len() == probe.reply.logits.len()
            && ws
                .logits()
                .iter()
                .zip(&probe.reply.logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !(same_logits
            && out.predicted == probe.reply.predicted
            && out.total_spikes == probe.reply.total_spikes)
        {
            mismatches += 1;
        }
    }
    Ok((mismatches, start.elapsed().as_secs_f64()))
}

/// Median per-call time in µs of `op`, over 7 batches of `reps` calls.
fn time_op_us<T>(reps: usize, mut op: impl FnMut() -> T) -> f64 {
    let mut batches = Vec::with_capacity(7);
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(op());
        }
        batches.push(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    median(&batches)
}

/// Times both codecs on the workload's real request and reply, checking
/// that each round-trips, and pushes the `wire.*` metrics.
fn push_wire_metrics(
    probe: &Probe,
    set: &nrsnn_data::LabelledSet,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), Box<dyn Error>> {
    const REPS: usize = 300;
    let request = Request::Infer {
        model: MODEL.to_string(),
        seed: probe.seed,
        input: set.inputs.row_slice(probe.row)?.to_vec(),
    };
    let response = Response::Infer(probe.reply.clone());

    let request_frame = nrsnn_wire::encode_frame(&request_to_frame(&request))?;
    let reply_frame = nrsnn_wire::encode_frame(&response_to_frame(&response))?;
    tally.check(
        frame_to_request(nrsnn_wire::decode_frame(&request_frame)?)? == request,
        "binary request round-trips",
    );
    tally.check(
        frame_to_response(nrsnn_wire::decode_frame(&reply_frame)?)? == response,
        "binary reply round-trips",
    );
    let request_line = encode_line(&request);
    let reply_line = encode_line(&response);
    tally.check(
        decode_request(&request_line)? == request,
        "JSON request round-trips",
    );
    tally.check(
        decode_response(&reply_line)? == response,
        "JSON reply round-trips",
    );

    metrics.push(
        "wire.binary.request_encode_us",
        time_op_us(REPS, || {
            nrsnn_wire::encode_frame(&request_to_frame(&request))
        }),
        "us",
    );
    metrics.push(
        "wire.binary.request_decode_us",
        time_op_us(REPS, || {
            nrsnn_wire::decode_frame(&request_frame)
                .ok()
                .map(frame_to_request)
        }),
        "us",
    );
    metrics.push(
        "wire.binary.reply_encode_us",
        time_op_us(REPS, || {
            nrsnn_wire::encode_frame(&response_to_frame(&response))
        }),
        "us",
    );
    metrics.push(
        "wire.binary.reply_decode_us",
        time_op_us(REPS, || {
            nrsnn_wire::decode_frame(&reply_frame)
                .ok()
                .map(frame_to_response)
        }),
        "us",
    );
    metrics.push(
        "wire.json.request_encode_us",
        time_op_us(REPS, || encode_line(&request)),
        "us",
    );
    metrics.push(
        "wire.json.request_decode_us",
        time_op_us(REPS, || decode_request(&request_line)),
        "us",
    );
    metrics.push(
        "wire.json.reply_encode_us",
        time_op_us(REPS, || encode_line(&response)),
        "us",
    );
    metrics.push(
        "wire.json.reply_decode_us",
        time_op_us(REPS, || decode_response(&reply_line)),
        "us",
    );
    metrics.push(
        "wire.binary.request_bytes",
        request_frame.len() as f64,
        "bytes",
    );
    metrics.push("wire.binary.reply_bytes", reply_frame.len() as f64, "bytes");
    metrics.push(
        "wire.json.request_bytes",
        request_line.len() as f64,
        "bytes",
    );
    metrics.push("wire.json.reply_bytes", reply_line.len() as f64, "bytes");
    Ok(())
}

/// p50 (or p99) of one server stage from the stats snapshot, in µs.
fn stage_us(stats: &ServerStats, stage: &str, p99: bool) -> f64 {
    stats
        .stage_latency_ns
        .iter()
        .find(|s| s.stage == stage)
        .map_or(
            0.0,
            |s| if p99 { s.p99_ns } else { s.p50_ns } as f64 / 1_000.0,
        )
}

fn print_latency(label: &str, p: &Percentiles) {
    say!(
        "  {label:<22} p50 {:>9.1} us  p90 {:>9.1} us  p99 {:>9.1} us  p999 {:>9.1} us  \
         ({} samples)",
        p.p50,
        p.p90,
        p.p99,
        p.p999,
        p.count
    );
}

/// Runs the serving workload and fills `metrics`.
pub fn run(args: &RunArgs, metrics: &mut Metrics) -> Result<Tally, Box<dyn Error>> {
    let mut tally = Tally::default();

    // Set-up, repeated; an earlier repetition's server stops before the
    // next one starts, and every repetition must export the same model.
    let (mut train_s, mut convert_s, mut start_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut current: Option<ServeSetup> = None;
    let mut first_model: Option<Vec<u8>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = current.take() {
            previous.server.shutdown();
        }
        let s = setup(args.seed)?;
        train_s.push(s.train_s);
        convert_s.push(s.convert_s);
        start_s.push(s.start_s);
        let first = first_model.get_or_insert_with(|| s.model_bytes.clone());
        tally.check(
            *first == s.model_bytes,
            "repeated set-ups export identical models",
        );
        current = Some(s);
    }
    let s = current.expect("at least one set-up");
    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|i| train_s[i] + convert_s[i] + start_s[i])
        .collect();

    let set = &s.pipeline.dataset().test;
    let wires = [Wire::Binary, Wire::Json];
    let schedules: Vec<Schedule> = (0..wires.len() as u64)
        .map(|c| Schedule::new(args.seed, c, set.labels.len()))
        .collect();
    let barrier = Barrier::new(wires.len());
    let window = Duration::from_secs(args.seconds);
    let addr = s.addr;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .zip(&schedules)
            .map(|(&wire, schedule)| {
                let barrier = &barrier;
                scope.spawn(move || drive_client(wire, addr, schedule, set, window, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats = s.server.stats();

    // Correctness: probes against the offline engine, closure of every
    // round trip, and the server's counters against the clients'.
    let model = ModelSpec::from_binary(&s.model_bytes)?.build()?;
    let probes: Vec<&Probe> = logs.iter().flat_map(|l| &l.probes).collect();
    let (mismatches, untraced_s) = check_probes(&model, set, &probes, None)?;
    for log in &logs {
        tally.attempted += log.sent;
        tally.failed += log.failed + log.closure_violations;
    }
    tally.failed += mismatches;
    tally.check(mismatches == 0, "served probes equal offline simulate_with");
    tally.check(
        logs.iter().all(|l| l.closure_violations == 0),
        "every round trip covers the server latency",
    );
    let client_ok: u64 = logs.iter().map(|l| l.ok).sum();
    tally.check(
        stats.requests_received == stats.requests_served + stats.rejected_busy + stats.failed,
        "server stats: received = served + busy + failed",
    );
    tally.check(
        stats.requests_served == client_ok,
        "server stats: served = client ok",
    );

    let timed: Vec<&(u64, u64)> = logs.iter().flat_map(|l| &l.timed).collect();
    let served = timed.len().max(1) as f64;
    let elapsed = logs.iter().map(|l| l.elapsed_s).fold(0.0, f64::max);
    let mut wire_rtt: Vec<Percentiles> = Vec::new();
    say!(
        "{}: {} timed requests in {:.2} s over {} closed-loop clients ({} server workers), \
         requests_per_s {:.1}, error_frac {}",
        args.workload,
        timed.len(),
        elapsed,
        wires.len(),
        WORKERS,
        timed.len() as f64 / elapsed,
        tally.error_frac()
    );
    for (wire, log) in wires.iter().zip(&logs) {
        let mut rtt: Vec<f64> = log.timed.iter().map(|&(ns, _)| ns as f64 / 1e3).collect();
        let p = percentiles(&mut rtt);
        print_latency(&format!("{}_rtt", wire.label()), &p);
        wire_rtt.push(p);
    }
    say!(
        "  server: received {} served {} busy {} failed {} mean batch {:.2}",
        stats.requests_received,
        stats.requests_served,
        stats.rejected_busy,
        stats.failed,
        stats.mean_batch_size
    );

    if !args.trace {
        let mut all: Vec<f64> = timed.iter().map(|&&(ns, _)| ns as f64 / 1e3).collect();
        let p = percentiles(&mut all);
        print_latency("all_rtt", &p);
        metrics.push("samples_per_s", timed.len() as f64 / elapsed, "1/s");
        metrics.push("latency_p50_us", p.p50, "us");
        metrics.push("latency_p90_us", p.p90, "us");
        let matches: u64 = logs.iter().map(|l| l.label_matches).sum();
        metrics.push("accuracy_pct", matches as f64 * 100.0 / served, "%");
        let spikes: u64 = logs.iter().map(|l| l.spikes).sum();
        metrics.push("spikes_per_sample", spikes as f64 / served, "count");
        metrics.push("setup_s", median(&setup_s), "s");
        s.server.shutdown();
        return Ok(tally);
    }

    // Traced offline replay of the probes: must reproduce the replies.
    let mut stages = StageTally::default();
    let mut traced_s = Vec::new();
    for _ in 0..TRACE_REPEATS {
        let (bad, secs) = check_probes(&model, set, &probes, Some(&mut stages))?;
        tally.check(bad == 0, "traced replay reproduces the served replies");
        traced_s.push(secs);
    }
    stages.print_shares();
    metrics.push("setup.train_s", median(&train_s), "s");
    metrics.push("setup.convert_s", median(&convert_s), "s");
    metrics.push("setup.serve_start_s", median(&start_s), "s");
    metrics.push("runtime.parallel_efficiency", 0.0, "ratio");
    metrics.push(
        "snn.trace_overhead",
        median(&traced_s) / untraced_s - 1.0,
        "ratio",
    );
    stages.push_metrics(metrics);

    metrics.push(
        "serve.queue_wait_p50_us",
        stage_us(&stats, "queue_wait", false),
        "us",
    );
    metrics.push(
        "serve.queue_wait_p99_us",
        stage_us(&stats, "queue_wait", true),
        "us",
    );
    metrics.push(
        "serve.simulate_p50_us",
        stage_us(&stats, "simulate", false),
        "us",
    );
    metrics.push(
        "serve.reply_serialize_p50_us",
        stage_us(&stats, "reply_serialize", false),
        "us",
    );
    metrics.push("serve.mean_batch", stats.mean_batch_size, "count");
    for (wire, log) in wires.iter().zip(&logs) {
        let mut frontend: Vec<f64> = log
            .timed
            .iter()
            .map(|&(rtt, server)| frontend_ns(rtt, server) as f64 / 1e3)
            .collect();
        metrics.push(
            &format!("serve.{}.frontend_p50_us", wire.label()),
            percentiles(&mut frontend).p50,
            "us",
        );
    }
    for (wire, p) in wires.iter().zip(&wire_rtt) {
        let w = wire.label();
        metrics.push(&format!("serve.{w}_p50_us"), p.p50, "us");
        metrics.push(&format!("serve.{w}_p99_us"), p.p99, "us");
        metrics.push(&format!("serve.{w}_p999_us"), p.p999, "us");
        metrics.push(&format!("serve.{w}_samples"), p.count as f64, "count");
    }
    metrics.push(
        "serve.sent",
        logs.iter().map(|l| l.sent).sum::<u64>() as f64,
        "count",
    );
    metrics.push("serve.ok", client_ok as f64, "count");
    metrics.push("serve.busy", stats.rejected_busy as f64, "count");
    metrics.push("serve.failed", stats.failed as f64, "count");
    match probes.first() {
        Some(probe) => push_wire_metrics(probe, set, &mut tally, metrics)?,
        None => tally.check(false, "a probe reply to time the codecs on"),
    }
    s.server.shutdown();
    Ok(tally)
}
