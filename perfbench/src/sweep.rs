//! The two sweep workloads: the paper's noise sweeps on the MNIST-like MLP
//! (Figs. 7–8) and the clean column of Tables I/II on the CIFAR-10-like
//! CNN.
//!
//! One run sets up (data, training, conversion) several times, replays the
//! whole grid single-threaded through `simulate_with` as the reference,
//! then repeats the library's 2-thread `DeletionSweep`/`JitterSweep` for
//! the measuring window, checking every pass against the reference bit for
//! bit.  The traced run adds a stage-traced replay that must reproduce the
//! untraced one.

use std::error::Error;
use std::ops::Range;
// nrsnn-lint: allow(forbidden-api) -- the benchmark times the library from outside, on its own clock
use std::time::{Duration, Instant};

use nrsnn::prelude::*;
use nrsnn_noise::{paper_deletion_probabilities, paper_jitter_intensities};
use nrsnn_runtime::derive_seed;
use nrsnn_snn::{BatchOutcome, NeuralCoding, SimWorkspace, SnnNetwork, SpikeTransform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Metrics;
use crate::stats::{median, percentiles, Tally};
use crate::trace::{NoiseKind, StageTally, CODINGS};
use crate::{RunArgs, SETUP_REPS};

/// Window length of every simulation (the paper's T).
const TIME_STEPS: u32 = 128;
/// Worker threads of the timed sweep passes.
const THREADS: usize = 2;

/// One grid of a workload, run through one sweep builder call.
struct Grid {
    kind: NoiseKind,
    levels: Vec<f64>,
    weight_scaling: bool,
}

/// A sweep workload: what to train and which grids to sweep.
///
/// The model is trained with the preset's own seed, so every run measures
/// the same network; the workload seed feeds the sweep's noise streams.
/// With a seed-dependent model, `accuracy_pct` spread by 18 % of its median
/// across five seeds, more than any bound allows.
pub struct SweepPlan {
    pipeline: PipelineConfig,
    grids: Vec<Grid>,
    eval_samples: usize,
}

impl SweepPlan {
    /// The MNIST-like MLP (784→256→128→10) under every noisy level of the
    /// Fig. 7 deletion grid (with weight scaling) and the Fig. 8 jitter
    /// grid.
    pub fn mlp_noise_sweep() -> SweepPlan {
        let noisy = |levels: Vec<f64>| levels.into_iter().filter(|&l| l > 0.0).collect();
        SweepPlan {
            pipeline: PipelineConfig {
                model: ModelKind::Mlp,
                ..PipelineConfig::mnist_small()
            },
            grids: vec![
                Grid {
                    kind: NoiseKind::Deletion,
                    levels: noisy(paper_deletion_probabilities()),
                    weight_scaling: true,
                },
                Grid {
                    kind: NoiseKind::Jitter,
                    levels: noisy(paper_jitter_intensities()),
                    weight_scaling: false,
                },
            ],
            eval_samples: 32,
        }
    }

    /// The CIFAR-10-like CNN, clean: the first column of Tables I/II.
    pub fn cnn_clean_sweep() -> SweepPlan {
        let base = PipelineConfig::cifar10_full();
        SweepPlan {
            pipeline: PipelineConfig {
                dataset: base.dataset.clone().with_samples(256, 128),
                model: ModelKind::Cnn,
                epochs: 8,
                ..base
            },
            grids: vec![Grid {
                kind: NoiseKind::Clean,
                levels: vec![0.0],
                weight_scaling: false,
            }],
            eval_samples: 128,
        }
    }
}

/// One `(coding, noise level)` point of a grid, ready to simulate.
struct Cell {
    grid: usize,
    coding: CodingKind,
    kind: NoiseKind,
    level: f64,
    weight_scaled: bool,
    network: usize,
    coding_impl: Box<dyn NeuralCoding>,
    config: nrsnn_snn::CodingConfig,
    noise: Box<dyn SpikeTransform>,
}

/// What the setup phase produces, and how long each part took.
struct Setup {
    pipeline: TrainedPipeline,
    networks: Vec<(WeightScaling, SnnNetwork)>,
    train_s: f64,
    convert_s: f64,
}

fn scaling_for(grid: &Grid, level: f64) -> Result<WeightScaling, NrsnnError> {
    if grid.weight_scaling && level > 0.0 {
        Ok(WeightScaling::for_deletion_probability(level)?)
    } else {
        Ok(WeightScaling::none())
    }
}

fn setup(plan: &SweepPlan) -> Result<Setup, NrsnnError> {
    let start = Instant::now();
    let pipeline = TrainedPipeline::build(&plan.pipeline)?;
    let train_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut networks: Vec<(WeightScaling, SnnNetwork)> = Vec::new();
    for grid in &plan.grids {
        for &level in &grid.levels {
            let scaling = scaling_for(grid, level)?;
            if !networks.iter().any(|(s, _)| *s == scaling) {
                networks.push((scaling, pipeline.to_snn(&scaling)?));
            }
        }
    }
    let convert_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        pipeline,
        networks,
        train_s,
        convert_s,
    })
}

fn build_cells(plan: &SweepPlan, setup: &Setup) -> Result<Vec<Cell>, NrsnnError> {
    let mut cells = Vec::new();
    for (g, grid) in plan.grids.iter().enumerate() {
        for coding in CODINGS {
            for &level in &grid.levels {
                let scaling = scaling_for(grid, level)?;
                let network = setup
                    .networks
                    .iter()
                    .position(|(s, _)| *s == scaling)
                    .expect("setup converts every scaling of the grid");
                // The same transform the sweep builders choose per level.
                let noise: Box<dyn SpikeTransform> = match grid.kind {
                    _ if level == 0.0 => Box::new(IdentityTransform),
                    NoiseKind::Deletion => Box::new(DeletionNoise::new(level)?),
                    NoiseKind::Jitter => Box::new(JitterNoise::new(level)?),
                    NoiseKind::Clean => Box::new(IdentityTransform),
                };
                cells.push(Cell {
                    grid: g,
                    coding,
                    kind: grid.kind,
                    level,
                    weight_scaled: grid.weight_scaling,
                    network,
                    coding_impl: coding.build(),
                    config: setup.pipeline.coding_config(coding, TIME_STEPS),
                    noise,
                });
            }
        }
    }
    Ok(cells)
}

/// Per-sample result of one replayed simulation, logits folded to a hash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SampleResult {
    predicted: usize,
    total_spikes: usize,
    logits: u64,
}

fn logits_hash(logits: &[f32]) -> u64 {
    logits.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything a single-threaded replay of the grid needs.
struct Replayer<'a> {
    cells: &'a [Cell],
    setup: &'a Setup,
    subset: &'a nrsnn_data::LabelledSet,
    sweep_seed: u64,
}

impl Replayer<'_> {
    fn samples(&self) -> usize {
        self.subset.labels.len()
    }

    /// Simulates samples `range` of every cell through `simulate_with` with
    /// the sweep engine's per-sample seeds, sample-major so that any
    /// stretch of the replay covers every cell.  Writes each result to
    /// `results[cell * samples + sample]` and appends each call's latency.
    fn replay(
        &self,
        range: Range<usize>,
        ws: &mut SimWorkspace,
        mut stages: Option<&mut StageTally>,
        results: &mut [SampleResult],
        latencies_us: &mut Vec<f64>,
    ) -> Result<(), Box<dyn Error>> {
        let samples = self.samples();
        ws.set_stage_tracing(stages.is_some());
        for s in range {
            let input = self.subset.inputs.row_slice(s)?;
            for (c, cell) in self.cells.iter().enumerate() {
                let network = &self.setup.networks[cell.network].1;
                let mut rng = StdRng::seed_from_u64(derive_seed(self.sweep_seed, s as u64));
                let t = Instant::now();
                let out: BatchOutcome = network.simulate_with(
                    input,
                    cell.coding_impl.as_ref(),
                    &cell.config,
                    cell.noise.as_ref(),
                    &mut rng,
                    ws,
                )?;
                let call = t.elapsed();
                latencies_us.push(call.as_secs_f64() * 1e6);
                if let Some(stages) = stages.as_deref_mut() {
                    stages.record(
                        network,
                        cell.coding,
                        cell.kind,
                        ws.stage_events(),
                        call.as_nanos(),
                        ws.spikes_per_layer(),
                    );
                }
                results[c * samples + s] = SampleResult {
                    predicted: out.predicted,
                    total_spikes: out.total_spikes,
                    logits: logits_hash(ws.logits()),
                };
            }
        }
        Ok(())
    }

    /// A whole-grid replay: its results and wall time.
    fn full(
        &self,
        ws: &mut SimWorkspace,
        stages: Option<&mut StageTally>,
    ) -> Result<(Vec<SampleResult>, f64), Box<dyn Error>> {
        let mut results = vec![SampleResult::default(); self.cells.len() * self.samples()];
        let mut latencies = Vec::with_capacity(results.len());
        let start = Instant::now();
        self.replay(0..self.samples(), ws, stages, &mut results, &mut latencies)?;
        Ok((results, start.elapsed().as_secs_f64()))
    }
}

/// The sweep points a replay implies, per grid, in the engine's order.
fn reference_points(
    cells: &[Cell],
    grids: usize,
    results: &[SampleResult],
    subset: &nrsnn_data::LabelledSet,
) -> Vec<Vec<SweepPoint>> {
    let samples = subset.labels.len();
    let mut points: Vec<Vec<SweepPoint>> = (0..grids).map(|_| Vec::new()).collect();
    for (c, cell) in cells.iter().enumerate() {
        let results = &results[c * samples..(c + 1) * samples];
        let correct = results
            .iter()
            .zip(&subset.labels)
            .filter(|(r, &label)| r.predicted == label)
            .count();
        let spikes: usize = results.iter().map(|r| r.total_spikes).sum();
        // The engine's reduction: integer counts, one f32 division each.
        points[cell.grid].push(SweepPoint {
            coding: cell.coding,
            weight_scaled: cell.weight_scaled,
            noise_level: cell.level,
            accuracy_percent: (correct as f32 / samples as f32) * 100.0,
            mean_spikes: spikes as f32 / samples as f32,
        });
    }
    for grid in &mut points {
        grid.sort_by(|a, b| {
            a.noise_level
                .total_cmp(&b.noise_level)
                .then_with(|| a.coding.order_index().cmp(&b.coding.order_index()))
        });
    }
    points
}

/// Bit-for-bit equality of two sweep points.
fn same_point(x: &SweepPoint, y: &SweepPoint) -> bool {
    x.coding == y.coding
        && x.weight_scaled == y.weight_scaled
        && x.noise_level.to_bits() == y.noise_level.to_bits()
        && x.accuracy_percent.to_bits() == y.accuracy_percent.to_bits()
        && x.mean_spikes.to_bits() == y.mean_spikes.to_bits()
}

/// One 2-thread pass over every grid through the library's sweep builders.
fn sweep_pass(
    plan: &SweepPlan,
    pipeline: &TrainedPipeline,
    config: SweepConfig,
) -> Result<Vec<Vec<SweepPoint>>, NrsnnError> {
    let parallel = ParallelConfig::with_threads(THREADS);
    plan.grids
        .iter()
        .map(|grid| match grid.kind {
            NoiseKind::Jitter => JitterSweep::new(&CODINGS, &grid.levels)
                .config(config)
                .parallel(parallel)
                .run(pipeline),
            NoiseKind::Deletion | NoiseKind::Clean => DeletionSweep::new(&CODINGS, &grid.levels)
                .weight_scaling(grid.weight_scaling)
                .config(config)
                .parallel(parallel)
                .run(pipeline),
        })
        .collect()
}

/// Runs one sweep workload and fills `metrics` with the end-to-end
/// (`trace == false`) or per-layer (`trace == true`) metrics.
pub fn run(
    plan: &SweepPlan,
    args: &RunArgs,
    metrics: &mut Metrics,
) -> Result<Tally, Box<dyn Error>> {
    let mut tally = Tally::default();

    // Set-up, repeated: every repetition must train the identical model.
    // Only the last one is kept, so peak memory holds one model.
    let (mut train_s, mut convert_s) = (Vec::new(), Vec::new());
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        let s = setup(plan)?;
        train_s.push(s.train_s);
        convert_s.push(s.convert_s);
        if let Some(previous) = &kept {
            tally.check(
                previous.pipeline.dnn_test_accuracy().to_bits()
                    == s.pipeline.dnn_test_accuracy().to_bits(),
                "repeated set-ups trained identical models",
            );
        }
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up");
    let setup_s: Vec<f64> = train_s.iter().zip(&convert_s).map(|(t, c)| t + c).collect();

    let sweep_seed = derive_seed(args.seed, 0x5eed);
    let config = SweepConfig {
        time_steps: TIME_STEPS,
        eval_samples: plan.eval_samples,
        seed: sweep_seed,
    };
    let subset = setup.pipeline.test_subset(plan.eval_samples)?;
    let cells = build_cells(plan, &setup)?;
    let replayer = Replayer {
        cells: &cells,
        setup: &setup,
        subset: &subset,
        sweep_seed,
    };
    let samples = subset.labels.len();
    let samples_per_pass = cells.len() * samples;
    let mut ws = SimWorkspace::new();
    let mut pass_s = Vec::new();
    let mut passes = Vec::new();
    let mut timed_pass = |passes: &mut Vec<Vec<Vec<SweepPoint>>>| -> Result<(), Box<dyn Error>> {
        let start = Instant::now();
        passes.push(sweep_pass(plan, &setup.pipeline, config)?);
        pass_s.push(start.elapsed().as_secs_f64());
        Ok(())
    };

    let mut latencies = Vec::new();
    let reference_results;
    let mut replay_s = Vec::new();
    if args.trace {
        let (results, secs) = replayer.full(&mut ws, None)?;
        reference_results = results;
        replay_s.push(secs);
        for _ in 0..3 {
            timed_pass(&mut passes)?;
        }
    } else {
        // The measuring window alternates one 2-thread sweep pass with one
        // single-threaded replay chunk of about the same length, so both
        // measurements see the same share of the run.  The replay cycles
        // through the samples; its first cycle is the reference, later
        // cycles must repeat it.
        let chunk = (samples / 2).max(1);
        let mut reference = vec![SampleResult::default(); samples_per_pass];
        let mut again = vec![SampleResult::default(); samples_per_pass];
        let mut next = 0;
        let mut cycles = 0;
        let window = Duration::from_secs(args.seconds);
        let start = Instant::now();
        while cycles == 0 || start.elapsed() < window {
            timed_pass(&mut passes)?;
            let end = (next + chunk).min(samples);
            let target = if cycles == 0 {
                &mut reference
            } else {
                &mut again
            };
            replayer.replay(next..end, &mut ws, None, target, &mut latencies)?;
            next = end % samples;
            if next == 0 {
                if cycles > 0 {
                    tally.check(again == reference, "replay repeats itself");
                }
                cycles += 1;
            }
        }
        reference_results = reference;
    }
    let reference = reference_points(&cells, plan.grids.len(), &reference_results, &subset);

    // Every timed pass must equal the single-threaded reference bit for bit.
    for points in &passes {
        for (grid, (got, want)) in points.iter().zip(&reference).enumerate() {
            for (g, w) in got.iter().zip(want) {
                tally.record(same_point(g, w));
            }
            tally.check(got.len() == want.len(), &format!("grid {grid} point count"));
        }
    }

    let all_points: Vec<&SweepPoint> = reference.iter().flatten().collect();
    let accuracy = all_points
        .iter()
        .map(|p| f64::from(p.accuracy_percent))
        .sum::<f64>()
        / all_points.len() as f64;
    let spikes = all_points
        .iter()
        .map(|p| f64::from(p.mean_spikes))
        .sum::<f64>()
        / all_points.len() as f64;

    say!(
        "{}: {} grid points x {} samples = {} samples per pass, {} timed 2-thread passes",
        args.workload,
        cells.len(),
        samples,
        samples_per_pass,
        pass_s.len(),
    );

    if !args.trace {
        let lat = percentiles(&mut latencies);
        say!(
            "  single-threaded replay, one simulate_with call: p50 {:.1} us, p90 {:.1} us, \
             p99 {:.1} us over {} samples",
            lat.p50,
            lat.p90,
            lat.p99,
            lat.count
        );
        let total_s: f64 = pass_s.iter().sum();
        metrics.push(
            "samples_per_s",
            (samples_per_pass * pass_s.len()) as f64 / total_s,
            "1/s",
        );
        metrics.push("latency_p50_us", lat.p50, "us");
        metrics.push("latency_p90_us", lat.p90, "us");
        metrics.push("accuracy_pct", accuracy, "%");
        metrics.push("spikes_per_sample", spikes, "count");
        metrics.push("setup_s", median(&setup_s), "s");
        return Ok(tally);
    }

    // Traced replays, alternating with untraced ones: each must reproduce
    // the reference exactly.
    let mut stages = StageTally::default();
    let mut traced_s = Vec::new();
    for _ in 0..2 {
        let (results, secs) = replayer.full(&mut ws, Some(&mut stages))?;
        tally.check(
            results == reference_results,
            "traced replay reproduces untraced outcomes",
        );
        traced_s.push(secs);
        let (results, secs) = replayer.full(&mut ws, None)?;
        tally.check(results == reference_results, "replay repeats itself");
        replay_s.push(secs);
    }
    let untraced_s = median(&replay_s);
    stages.print_shares();
    metrics.push("setup.train_s", median(&train_s), "s");
    metrics.push("setup.convert_s", median(&convert_s), "s");
    metrics.push("setup.serve_start_s", 0.0, "s");
    metrics.push(
        "runtime.parallel_efficiency",
        untraced_s / (THREADS as f64 * median(&pass_s)),
        "ratio",
    );
    metrics.push(
        "snn.trace_overhead",
        median(&traced_s) / untraced_s - 1.0,
        "ratio",
    );
    stages.push_metrics(metrics);
    crate::serve::push_idle_metrics(metrics);
    Ok(tally)
}
