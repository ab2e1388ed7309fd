//! Result records: the named metrics of one run, their check against the
//! metric lists declared in `BENCHMARK.json`, the provenance line and the
//! final one-line JSON result.

use std::fmt::Arguments;
use std::path::Path;

use serde_json::Value;

/// Prints one report line.  Every stdout line of the benchmark goes
/// through here.
pub fn say(line: Arguments) {
    // nrsnn-lint: allow(forbidden-api) -- the benchmark's report is its stdout, by contract
    println!("{line}");
}

/// Prints one diagnostic line.
pub fn warn(line: Arguments) {
    // nrsnn-lint: allow(forbidden-api) -- a benchmark binary reports failed checks on stderr
    eprintln!("perfbench: {line}");
}

/// Named metrics of one run, in the order they were pushed.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Prints one `name value unit` line per metric.
    pub fn print(&self, title: &str) {
        say!("{title}:");
        for (name, value, unit) in &self.entries {
            say!("  {name:<34} {value:>16.4} {unit}");
        }
    }

    /// Problems with this record against the `(name, unit)` list the
    /// benchmark declares: missing, undeclared, duplicated or mis-united
    /// metrics, and values that are not finite numbers.
    pub fn mismatches(&self, declared: &[(String, String)]) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, unit) in declared {
            match self.entries.iter().filter(|(n, _, _)| n == name).count() {
                0 => problems.push(format!("metric {name} was not measured")),
                1 => {}
                _ => problems.push(format!("metric {name} was reported twice")),
            }
            if let Some((_, _, u)) = self.entries.iter().find(|(n, _, _)| n == name) {
                if u != unit {
                    problems.push(format!("metric {name} has unit {u}, declared {unit}"));
                }
            }
        }
        for (name, value, _) in &self.entries {
            if !declared.iter().any(|(n, _)| n == name) {
                problems.push(format!("metric {name} is not declared"));
            }
            if !value.is_finite() {
                problems.push(format!("metric {name} is not a finite number"));
            }
        }
        problems
    }

    /// The `metrics` object of the result line.  Values are printed with
    /// every digit Rust's shortest round-trip formatting gives.
    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Reads the `(name, unit)` list of `section` (`end_to_end` or
/// `per_layer`) from `BENCHMARK.json` at the root of the checkout.
pub fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let root: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(list)) = root.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    list.iter()
        .map(|entry| match (entry.get("name"), entry.get("unit")) {
            (Some(Value::String(name)), Some(Value::String(unit))) => {
                Ok((name.clone(), unit.clone()))
            }
            _ => Err(format!("BENCHMARK.json: malformed {section} entry")),
        })
        .collect()
}

/// The last stdout line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Commit of the checkout, read from `.git` without running git; a
/// checkout exported without its repository reports `unknown`.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance line printed before every result.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "provenance: {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"git_rev\": \"{}\", \"simd_backend\": \"{}\", \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        git_rev(),
        nrsnn_tensor::simd::active_backend().name(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let mut metrics = Metrics::default();
        metrics.push("latency_p50_us", 190.25, "us");
        metrics.push("setup_s", 2.0, "s");
        let line = result_line(true, 10, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 190.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        let parsed: Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(parsed.get("metrics").is_some());
    }

    #[test]
    fn mismatches_name_every_gap() {
        let mut metrics = Metrics::default();
        metrics.push("a", 1.0, "s");
        metrics.push("b", f64::NAN, "us");
        metrics.push("c", 1.0, "ms");
        let declared = vec![
            ("a".to_string(), "s".to_string()),
            ("b".to_string(), "us".to_string()),
            ("c".to_string(), "us".to_string()),
            ("d".to_string(), "s".to_string()),
        ];
        let problems = metrics.mismatches(&declared);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(metrics.mismatches(&declared[..1]).len() == 3);
    }
}
