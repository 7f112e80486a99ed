//! Performance benchmark of the OuterSPACE reproduction.
//!
//! ```text
//! perfbench --workload <simulate|dse_interval|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the program through its public entry points from
//! this one process, checks every output, and prints its metrics — one
//! human-readable line per metric with unit and sample count, then one JSON
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run on the same inputs that
//! times each layer by calling that layer's public functions from outside.
//! See `README.md` beside this file for the workloads and metrics.

mod alloc;
mod dse;
mod report;
mod serve;
mod simulate;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase; whole rounds run until it has passed.
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch space inside the working directory (DSE caches); the same
    /// path on every run, so path-keyed state in the program does not vary.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <simulate|dse_interval|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        work_dir: PathBuf::from(".bench_work").join(&workload),
        spans: PathBuf::from(".bench_work").join(format!("{workload}.spans.jsonl")),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

pub const WORKLOADS: &[&str] = &["simulate", "dse_interval", "serve"];

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report, checks) = match args.workload.as_str() {
        "simulate" => simulate::run(&args),
        "dse_interval" => dse::run(&args),
        _ => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let expected = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    report.print(expected, checks);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("serve", 7, true));
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve --seconds 1").is_err());
    }
}
