//! Shared harness code for the benchmarks that regenerate the paper's
//! evaluation section.
//!
//! Each harness regenerates one artifact (see DESIGN.md's experiment index)
//! and prints the same rows/series the paper reports, plus a JSON dump under
//! `bench_results/` for EXPERIMENTS.md. Absolute numbers are not expected to
//! match the authors' testbed — the *shape* (who wins, by what factor, where
//! crossovers fall) is the reproduction target.
//!
//! The harness bodies live in [`harnesses`] (one module per figure/table);
//! the `runall` driver runs them in-process (`runall --only NAME` for one),
//! and each executes its cases through the crash-safe, resumable [`runner`]
//! layer.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

use outerspace::prelude::*;
use outerspace::sim::xmodels::{gpu::row_imbalance, CpuModel, GpuModel};

pub mod harnesses;
pub mod runner;

/// A harness's defaults, applied when the corresponding flag is absent.
#[derive(Debug, Clone, Copy)]
pub struct HarnessDefaults {
    /// Default workload divisor (`--scale`).
    pub scale: u32,
    /// Default per-case watchdog budget in seconds (`--max-case-secs`).
    pub max_case_secs: f64,
}

/// A malformed command line, reported on stderr with exit code 2 (the
/// conventional usage-error status) instead of a panic + exit 101.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// Human-readable description of what was wrong.
    pub message: String,
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for UsageError {}

fn usage_error(message: impl Into<String>) -> UsageError {
    UsageError { message: message.into() }
}

/// One-line summary of the flags [`HarnessOpts::parse`] accepts.
pub const USAGE: &str =
    "[--scale N] [--full] [--seed N] [--out DIR] [--resume] [--max-case-secs S]";

/// Command-line options shared by all harnesses.
///
/// * `--scale N` — divide workload dimensions/non-zeros by `N` (default
///   chosen per harness so a full run takes minutes).
/// * `--full` — run at the paper's original sizes (`scale = 1`, suite caps
///   disabled).
/// * `--seed N` — change the workload seed.
/// * `--out DIR` — where JSON results go (default `bench_results/`).
/// * `--resume` — skip cases already checkpointed in `<out>/<name>.partial.json`
///   (or a previous final dump); failed cases are retried.
/// * `--max-case-secs S` — per-case wall-clock watchdog (fractional seconds
///   accepted; `0` disables it). Default is per harness.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Workload divisor.
    pub scale: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for JSON dumps.
    pub out_dir: PathBuf,
    /// `--full`: paper-sized workloads, per-matrix suite caps disabled.
    pub full: bool,
    /// `--resume`: skip checkpointed cases, retry failed ones.
    pub resume: bool,
    /// Per-case watchdog budget in seconds; `<= 0` disables the watchdog.
    pub max_case_secs: f64,
}

impl HarnessOpts {
    /// Parses an argument list (without the program name). Returns a typed
    /// [`UsageError`] on malformed input — callers decide whether to exit.
    pub fn parse<I>(args: I, defaults: HarnessDefaults) -> Result<Self, UsageError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = HarnessOpts {
            scale: defaults.scale,
            seed: 42,
            out_dir: PathBuf::from("bench_results"),
            full: false,
            resume: false,
            max_case_secs: defaults.max_case_secs,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args
                        .next()
                        .ok_or_else(|| usage_error("--scale needs a positive integer"))?;
                    opts.scale = v.parse().map_err(|_| {
                        usage_error(format!("--scale: '{v}' is not a positive integer"))
                    })?;
                    if opts.scale == 0 {
                        return Err(usage_error(
                            "--scale must be at least 1 (1 = the paper's full size; \
                             larger values shrink the workload)",
                        ));
                    }
                }
                "--full" => {
                    opts.full = true;
                    opts.scale = 1;
                }
                "--seed" => {
                    let v = args.next().ok_or_else(|| usage_error("--seed needs an integer"))?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| usage_error(format!("--seed: '{v}' is not an integer")))?;
                }
                "--out" => {
                    let v = args.next().ok_or_else(|| usage_error("--out needs a directory"))?;
                    opts.out_dir = PathBuf::from(v);
                }
                "--resume" => opts.resume = true,
                "--max-case-secs" => {
                    let v = args
                        .next()
                        .ok_or_else(|| usage_error("--max-case-secs needs a number of seconds"))?;
                    let secs: f64 = v.parse().map_err(|_| {
                        usage_error(format!("--max-case-secs: '{v}' is not a number"))
                    })?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err(usage_error(
                            "--max-case-secs must be a non-negative number (0 disables the watchdog)",
                        ));
                    }
                    opts.max_case_secs = secs;
                }
                other => {
                    return Err(usage_error(format!("unknown argument '{other}'")));
                }
            }
        }
        Ok(opts)
    }
}

/// All baseline timings for one SpGEMM workload (`C = A × A`).
#[derive(Debug, Clone)]
pub struct BaselineTimes {
    /// Host wall-clock of the Gustavson (MKL-analog) kernel, seconds.
    pub mkl_host_s: f64,
    /// Xeon model prediction for MKL, seconds.
    pub mkl_model_s: f64,
    /// K40 model prediction for cuSPARSE (row-hash), seconds.
    pub cusparse_model_s: f64,
    /// K40 model prediction for CUSP (ESC), seconds.
    pub cusp_model_s: f64,
    /// Useful flops of the product (2 × elementary products).
    pub flops: u64,
}

outerspace_json::impl_to_json!(BaselineTimes {
    mkl_host_s,
    mkl_model_s,
    cusparse_model_s,
    cusp_model_s,
    flops,
});

/// Runs every baseline for `C = A × A` and returns their timings.
///
/// # Panics
///
/// Panics if any kernel fails (shape errors cannot occur for square `A`).
pub fn run_baselines(a: &Csr) -> BaselineTimes {
    let profile = outerspace::sparse::stats::profile(a);
    let t0 = Instant::now();
    let (_, gus) = outerspace::baselines::gustavson::spgemm_parallel(a, a, 6)
        .expect("square operands");
    let mkl_host_s = t0.elapsed().as_secs_f64();
    let cpu = CpuModel::xeon_e5_1650_v4();
    let mkl_model_s = cpu.spgemm_seconds(
        &gus,
        12 * a.nnz() as u64,
        a.ncols() as u64,
        a.nrows() as u64,
        profile.diagonal_fraction,
    );
    let k40 = GpuModel::tesla_k40();
    let (_, hash) = outerspace::baselines::hash::spgemm(a, a).expect("square operands");
    let cusparse_model_s =
        k40.cusparse_time(&hash, a.nrows() as u64, row_imbalance(a, a)).total();
    let (_, esc) = outerspace::baselines::esc::spgemm(a, a).expect("square operands");
    let cusp_model_s = k40.cusp_time(&esc, a.nrows() as u64).total();
    BaselineTimes {
        mkl_host_s,
        mkl_model_s,
        cusparse_model_s,
        cusp_model_s,
        flops: gus.flops(),
    }
}

/// Simulates OuterSPACE for `C = A × A`, returning the report.
///
/// # Panics
///
/// Panics on simulation failure (cannot occur for a valid square `A`).
pub fn run_outerspace(a: &Csr) -> SimReport {
    let sim = Simulator::new(OuterSpaceConfig::default()).expect("default config");
    sim.spgemm(a, a).expect("square operands").1
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats seconds with an adaptive unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Measures this host's sustainable memory bandwidth with a STREAM-triad
/// style probe (used by the Table 1 reproduction as the "peak" reference).
pub fn host_peak_bandwidth_bytes_per_s() -> f64 {
    const N: usize = 8 * 1024 * 1024; // 3 x 64 MB working set
    let a = vec![1.0f64; N];
    let b = vec![2.0f64; N];
    let mut c = vec![0.0f64; N];
    // Warm-up + 3 timed passes, best of.
    let mut best = f64::MAX;
    for _ in 0..4 {
        let t = Instant::now();
        for i in 0..N {
            c[i] = a[i] + 3.0 * b[i];
        }
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        std::hint::black_box(&c);
    }
    (3 * N * 8) as f64 / best
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 8, max_case_secs: 300.0 };

    fn parse(args: &[&str]) -> Result<HarnessOpts, UsageError> {
        HarnessOpts::parse(args.iter().map(|s| s.to_string()), DEFAULTS)
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(0.0000025), "2.5 us");
    }

    #[test]
    fn parse_defaults_and_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, 8);
        assert_eq!(o.seed, 42);
        assert!(!o.resume && !o.full);
        assert_eq!(o.max_case_secs, 300.0);

        let o = parse(&[
            "--scale", "3", "--seed", "7", "--out", "x", "--resume", "--max-case-secs", "1.5",
        ])
        .unwrap();
        assert_eq!((o.scale, o.seed), (3, 7));
        assert_eq!(o.out_dir, PathBuf::from("x"));
        assert!(o.resume);
        assert_eq!(o.max_case_secs, 1.5);

        let o = parse(&["--full"]).unwrap();
        assert!(o.full);
        assert_eq!(o.scale, 1);
    }

    #[test]
    fn parse_rejects_malformed_arguments_with_typed_errors() {
        for bad in [
            vec!["--scale"],
            vec!["--scale", "zero"],
            vec!["--scale", "0"],
            vec!["--seed", "4x"],
            vec!["--out"],
            vec!["--max-case-secs", "-1"],
            vec!["--max-case-secs", "soon"],
            vec!["--frobnicate"],
            vec!["--table4"],
        ] {
            let err = parse(&bad).expect_err(&format!("accepted {bad:?}"));
            assert!(!err.message.is_empty());
        }
        // --scale 0 carries the specific guidance.
        let err = parse(&["--scale", "0"]).unwrap_err();
        assert!(err.message.contains("at least 1"), "{}", err.message);
    }

    #[test]
    fn baselines_run_on_small_input() {
        let a = outerspace::gen::uniform::matrix(64, 64, 400, 1);
        let b = run_baselines(&a);
        assert!(b.mkl_host_s > 0.0);
        assert!(b.mkl_model_s > 0.0);
        assert!(b.cusparse_model_s > 0.0);
        assert!(b.cusp_model_s > 0.0);
        assert!(b.flops > 0);
        let rep = run_outerspace(&a);
        assert!(rep.seconds() > 0.0);
    }
}
