//! Suite mode: every workload, untraced then traced, each in a fresh
//! child process of this binary — exactly how the acceptance driver
//! runs them — plus `--aa`, which runs the suite's untraced half twice
//! and compares the two sides against the frame's bounds.

use crate::stats::{median, quartile_spread};
use crate::tables::{END_TO_END, WORKLOADS};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Measured seconds per workload: standard and `--quick`.
const STANDARD_SECONDS: f64 = 30.0;
const QUICK_SECONDS: f64 = 5.0;

/// The traced run is this share of the untraced one's length.
const TRACED_SHARE: f64 = 1.0 / 3.0;

/// A child run's last line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Parse the one-line JSON object a workload run ends with.
pub fn parse_result(line: &str) -> Option<ChildResult> {
    let scalar = |key: &str| -> Option<&str> {
        let pattern = format!("\"{key}\": ");
        let rest = &line[line.find(&pattern)? + pattern.len()..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = BTreeMap::new();
    for entry in body.split("\"}").filter(|e| e.contains("{\"value\": ")) {
        let name_start = entry.find('"')? + 1;
        let name_end = name_start + entry[name_start..].find('"')?;
        let value = &entry[entry.find("{\"value\": ")? + "{\"value\": ".len()..];
        let value = value[..value.find(',')?].trim().parse().ok()?;
        metrics.insert(entry[name_start..name_end].to_string(), value);
    }
    Some(ChildResult {
        correct: scalar("correct")? == "true",
        attempted: scalar("attempted")?.parse().ok()?,
        failed: scalar("failed")?.parse().ok()?,
        metrics,
    })
}

/// Run one workload in a child process, echo its report, and return
/// its parsed last line (`None` if it printed no result).
fn run_child(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn workload run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{report}");
    let result = parse_result(last);
    if result.is_none() || !output.status.success() {
        println!("  {workload}: run failed ({})", output.status);
    }
    result
}

fn stamp(args: &Args, seconds: f64) {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!(
        "tt-benchmark suite: mode={} seconds={seconds} seed={} nproc={} commit={commit} rustc=\"{rustc}\"",
        if args.quick { "quick" } else { "standard" },
        args.seed,
        crate::deploy::nproc(),
    );
}

/// One A/A comparison row: both medians, the wider side's quartile
/// spread, and whether both stay inside the bound.
fn aa_row(name: &str, better: &str, bound: f64, a: &[f64], b: &[f64]) -> (String, bool) {
    let (ma, mb) = (median(a), median(b));
    let worse = if better == "lower" {
        mb / ma - 1.0
    } else {
        ma / mb - 1.0
    };
    let spread = if a.len() >= 2 {
        quartile_spread(a).max(quartile_spread(b))
    } else {
        0.0
    };
    // `setup_s` is held to the median drift only, as in acceptance.
    let inside = worse.abs() <= bound && (name == "setup_s" || spread <= bound);
    (
        format!(
            "  {name:<18} A={ma:<14.5} B={mb:<14.5} drift={:+.2}% spread={:.2}% bound={:.0}% {}",
            worse * 100.0,
            spread * 100.0,
            bound * 100.0,
            if inside { "inside" } else { "OUTSIDE" }
        ),
        inside,
    )
}

fn run_aa(args: &Args, seconds: f64) -> ExitCode {
    let mut all_inside = true;
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let mut sides: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..args.runs {
            for side in &mut sides {
                let seed = args.seed + run as u64;
                match run_child(args, workload.name, seed, seconds, false) {
                    Some(result) => {
                        all_correct &= result.correct;
                        for (name, value) in result.metrics {
                            side.entry(name).or_default().push(value);
                        }
                    }
                    None => all_correct = false,
                }
            }
        }
        println!("== A/A {} ({} runs a side) ==", workload.name, args.runs);
        for m in &END_TO_END {
            if let (Some(a), Some(b)) = (sides[0].get(m.name), sides[1].get(m.name)) {
                let (row, inside) = aa_row(m.name, m.better, m.bound, a, b);
                println!("{row}");
                all_inside &= inside;
            }
        }
    }
    println!(
        "A/A: every metric x workload inside its bound: {all_inside}; every run correct: {all_correct}"
    );
    if all_inside && all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn run(args: &Args) -> ExitCode {
    let default = if args.quick {
        QUICK_SECONDS
    } else {
        STANDARD_SECONDS
    };
    let seconds = args.seconds.unwrap_or(default);
    stamp(args, seconds);
    if args.aa {
        return run_aa(args, seconds);
    }
    let mut all_correct = true;
    for workload in &WORKLOADS {
        println!("-- {}: {}", workload.name, workload.why);
        for trace in [false, true] {
            let seconds = if trace {
                seconds * TRACED_SHARE
            } else {
                seconds
            };
            let correct = run_child(args, workload.name, args.seed, seconds, trace)
                .is_some_and(|r| r.correct);
            all_correct &= correct;
        }
    }
    println!(
        "suite: every gate passed: {all_correct}; traces in {}",
        args.out_dir.display()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Gate, Metric, Outcome};

    #[test]
    fn a_run_s_last_line_parses_back() {
        let outcome = Outcome {
            attempted: 1200,
            failed: 3,
            gates: vec![Gate::check("g", true, "")],
            metrics: vec![
                Metric::value("setup_s", "s", 0.8127),
                Metric::value("net.http.parse_ns", "ns", 1234.5),
                Metric::value("throughput_per_s", "1/s", 73_000.25),
            ],
            detail: Vec::new(),
            notes: Vec::new(),
        };
        let parsed = parse_result(&outcome.json_line()).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1200, 3));
        assert_eq!(parsed.metrics["setup_s"], 0.8127);
        assert_eq!(parsed.metrics["net.http.parse_ns"], 1234.5);
        assert_eq!(parsed.metrics["throughput_per_s"], 73_000.25);
        assert_eq!(parse_result("not a result"), None);
    }

    #[test]
    fn aa_rows_judge_drift_in_the_metric_s_direction() {
        let a = [10.0, 10.1, 9.9];
        let faster = [9.0, 9.1, 8.9];
        let (_, inside) = aa_row("request_us", "lower", 0.05, &a, &faster);
        assert!(!inside, "10% off is outside a 5% bound either way");
        let (_, inside) = aa_row("request_us", "lower", 0.15, &a, &faster);
        assert!(inside);
        let (row, inside) = aa_row("throughput_per_s", "higher", 0.05, &a, &[10.2, 10.0, 10.1]);
        assert!(inside, "{row}");
    }
}
