//! The warp stack's benchmark.
//!
//! ```text
//! warpbench --workload <cad-registry|fleet-warped|fleet-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks its outputs, prints a human summary on
//! stderr and, as the last line of stdout, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics and writes its spans to `<CARGO_TARGET_DIR or target>/warpbench-traces/`.
//! The exit code is 0 only when every output check passed.

mod cad;
mod clock;
mod fleet;
mod metrics;
mod stats;
mod trace;

use std::process::ExitCode;

use metrics::{Report, Workload};

/// Parsed command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds the fleets size their window for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("warpbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report: Report = match args.workload {
        Workload::CadRegistry => metrics::cad_registry(&args),
        Workload::FleetWarped => metrics::fleet(&args, fleet::Kind::Warped),
        Workload::FleetChurn => metrics::fleet(&args, fleet::Kind::Churn),
    };
    report.require_end_to_end();
    eprint!("{}", report.render_table());
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload fleet-churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a, Args { workload: Workload::FleetChurn, seed: 7, seconds: 10, trace: true });
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload cad-registry --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload cad-registry --seed").is_err());
    }
}
