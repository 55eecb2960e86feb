//! The tolerance-tier stack's one benchmark.
//!
//! `tt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload once and prints, as its last line, one JSON
//! object: the gated end-to-end frame (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Without `--workload` it runs the whole suite
//! — every workload untraced, then traced — each in a fresh child
//! process, and prints every metric. `--quick` shortens the suite for
//! smoke use; `--aa` runs it twice and compares; `--calibrate` prints
//! this host's clock readings. See `README.md`.

mod affinity;
mod cache_inproc;
mod clock;
mod common;
mod deploy;
mod gates;
mod gen;
mod inproc;
mod path_inproc;
mod probes;
mod report;
mod rulegen_offline;
mod spans;
mod stats;
mod suite;
mod tables;
mod tiers_wire;

use common::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub aa: bool,
    pub calibrate: bool,
    pub runs: usize,
    pub out_dir: PathBuf,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 42,
            seconds: None,
            trace: false,
            quick: false,
            aa: false,
            calibrate: false,
            runs: 3,
            // Beside the sources, wherever the command is run from.
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value("a workload name")?),
                "--seed" => {
                    parsed.seed = value("a whole number")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number".to_string())?;
                }
                "--seconds" => {
                    let seconds: f64 = value("a number of seconds")?
                        .parse()
                        .map_err(|_| "--seconds needs a number".to_string())?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err("--seconds must be positive".to_string());
                    }
                    parsed.seconds = Some(seconds);
                }
                "--trace" => {
                    parsed.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace wants 0 or 1, not {other}")),
                    };
                }
                "--runs" => {
                    parsed.runs = value("a count")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--runs needs a positive count")?;
                }
                "--out" => parsed.out_dir = PathBuf::from(value("a directory")?),
                "--quick" => parsed.quick = true,
                "--aa" => parsed.aa = true,
                "--calibrate" => parsed.calibrate = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if let Some(name) = &parsed.workload {
            if !tables::WORKLOADS.iter().any(|w| w.name == name) {
                return Err(format!("unknown workload {name}"));
            }
        }
        Ok(parsed)
    }
}

/// Run one workload in this process and print its report; the JSON
/// object is the last line.
fn run_one(name: &str, ctx: &Ctx) -> ExitCode {
    let mut outcome = match name {
        "path_inproc" => path_inproc::run(ctx),
        "cache_inproc" => cache_inproc::run(ctx),
        "tiers_wire" => tiers_wire::run(ctx),
        "rulegen_offline" => rulegen_offline::run(ctx),
        other => unreachable!("workload {other} passed validation"),
    };
    tables::conform(&mut outcome, ctx.trace);
    let title = format!(
        "{name} seed={} seconds={} trace={} nproc={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        deploy::nproc()
    );
    print!("{}", outcome.render(&title));
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("tt-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        clock::print_readings();
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(
            name,
            &Ctx {
                seed: args.seed,
                seconds: args.seconds.unwrap_or(30.0),
                trace: args.trace,
                out_dir: args.out_dir.clone(),
            },
        ),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let args = parse(&[
            "--workload",
            "tiers_wire",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("tiers_wire"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(20.0), true));
        assert!(parse(&[]).unwrap().workload.is_none());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
