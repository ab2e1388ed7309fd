//! The repository benchmark.  One run measures one workload for a fixed
//! window and prints, as its last stdout line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
//! declared in `BENCHMARK.json`.  `--workload all` runs every workload,
//! untraced then traced, each in its own process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlp_noise_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` there.

/// Writes one line of the run's report to stdout.
macro_rules! say {
    ($($arg:tt)*) => {
        $crate::report::say(format_args!($($arg)*))
    };
}

/// Writes one diagnostic line to stderr.
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::report::warn(format_args!($($arg)*))
    };
}

mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::error::Error;
use std::process::ExitCode;

use report::{declared_metrics, peak_rss_mb, provenance, result_line, Metrics};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

const WORKLOADS: [&str; 3] = ["mlp_noise_sweep", "cnn_clean_sweep", "serve_mixed_wire"];

/// Command-line arguments of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <mlp_noise_sweep|cnn_clean_sweep|serve_mixed_wire|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs every workload untraced and traced, each in a child process so
/// peak memory is per workload.
fn run_all(args: &RunArgs) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            say!("==== {workload} --trace {trace} ====");
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status()?;
            all_ok &= status.success();
        }
    }
    Ok(all_ok)
}

fn run_one(args: &RunArgs) -> Result<bool, Box<dyn Error>> {
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared_metrics(section)?;
    say!(
        "{}",
        provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    let mut metrics = Metrics::default();
    let tally = match args.workload.as_str() {
        "mlp_noise_sweep" => sweep::run(&sweep::SweepPlan::mlp_noise_sweep(), args, &mut metrics)?,
        "cnn_clean_sweep" => sweep::run(&sweep::SweepPlan::cnn_clean_sweep(), args, &mut metrics)?,
        _ => serve::run(args, &mut metrics)?,
    };
    if !args.trace {
        metrics.push("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let problems = metrics.mismatches(&declared);
    for problem in &problems {
        warn!("{problem}");
    }
    say!(
        "error_frac {} ({} failed of {} attempted operations)",
        tally.error_frac(),
        tally.failed,
        tally.attempted
    );
    metrics.print(if args.trace {
        "per-layer metrics (traced run)"
    } else {
        "end-to-end metrics (untraced run)"
    });
    let correct = tally.failed == 0 && problems.is_empty();
    say!(
        "{}",
        result_line(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            warn!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            warn!("{e}");
            ExitCode::FAILURE
        }
    }
}
