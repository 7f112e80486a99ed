//! `dse` — design-space exploration driver.
//!
//! Sweeps a declarative parameter space over the OuterSPACE simulator,
//! memoizing every point in a content-addressed cache and emitting the
//! Pareto/sensitivity report. Rides the same crash-safe runner as the
//! figure harnesses, so `--resume` and the case manifest work identically.
//!
//! ```text
//! dse [--space NAME|FILE] [--samples N] [--threads N] [--pareto-out FILE]
//!     [--cache DIR] [--smoke] [--tier full|interval] [--abort]
//!     [--windows N] [--stride N] [--validate N] [--tiers-out FILE]
//!     [--min-speedup X] [--max-median-err X] [--min-within-bars X]
//!     [--scale N] [--full] [--seed N] [--out DIR] [--resume]
//!     [--max-case-secs S]
//! ```
//!
//! * `--space` — a bundled spec (`smoke`, `sec73_alpha`, `sec8_scaling`,
//!   `sparch_vs_ospace`, `fixtures`) or a path to a spec JSON file.
//!   Default `smoke`.
//! * `--samples N` — override the spec's sample count (`0` = full grid).
//! * `--threads N` — worker threads (default: one per core).
//! * `--pareto-out FILE` — where the Pareto report goes (default
//!   `<out>/dse_<spec>_pareto.json`).
//! * `--cache DIR` — the memo cache directory (default `<out>/dse_cache`).
//! * `--tier` — evaluation tier: `full` (exact, default) or `interval`
//!   (sampled windows with error bars).
//! * `--abort` — dominance early-abort: kill points whose lower bounds are
//!   already Pareto-dominated (reported as explicit `aborted` outcomes).
//! * `--windows N` / `--stride N` — interval-tier sampling parameters.
//! * `--validate N` — validate every `fnv(index) % N == 0`-th interval
//!   point against a full-fidelity rerun and write the tier report
//!   (`--tiers-out`, default `<out>/dse_<spec>_tiers.json`).
//! * `--min-speedup X`, `--max-median-err X`, `--min-within-bars X` —
//!   tier gates checked against the tier report; exit 1 on violation.
//! * `--smoke` — CI gate: run the bundled `smoke` grid unscaled and assert
//!   it has ≥ 64 points, includes the paper-default config, produces a
//!   non-empty frontier, and satisfies the accounting identity
//!   (evaluated + aborted + invalid + failed == points); exit 1 on any
//!   violation.
//!
//! Exit status: 0 on success, 1 on a failed sweep, smoke assertion, or
//! tier gate, 2 on a malformed command line.

use std::path::PathBuf;
use std::process::ExitCode;

use outerspace::dse::{EvalTier, SpaceSpec};
use outerspace::sim::interval::IntervalOpts;
use outerspace::sim::OuterSpaceConfig;
use outerspace_bench::harnesses::dse;
use outerspace_bench::runner::Runner;
use outerspace_bench::{HarnessOpts, UsageError};
use outerspace_json::{Json, ToJson};

const USAGE: &str = "usage: dse [--space NAME|FILE] [--samples N] [--threads N] \
     [--pareto-out FILE] [--cache DIR] [--smoke] [--tier full|interval] \
     [--abort] [--windows N] [--stride N] [--validate N] [--tiers-out FILE] \
     [--min-speedup X] [--max-median-err X] [--min-within-bars X] \
     [--scale N] [--full] [--seed N] [--out DIR] [--resume] [--max-case-secs S]";

struct DseArgs {
    space: String,
    samples: Option<usize>,
    threads: usize,
    pareto_out: Option<PathBuf>,
    cache: Option<PathBuf>,
    smoke: bool,
    tier_run: dse::TierRun,
    min_speedup: Option<f64>,
    max_median_err: Option<f64>,
    min_within_bars: Option<f64>,
    harness: HarnessOpts,
}

fn usage_error(message: impl Into<String>) -> UsageError {
    UsageError { message: message.into() }
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<DseArgs, UsageError> {
    let mut space = "smoke".to_string();
    let mut samples = None;
    let mut threads = dse::default_threads();
    let mut pareto_out = None;
    let mut cache = None;
    let mut smoke = false;
    let mut tier_run = dse::TierRun::default();
    let mut min_speedup = None;
    let mut max_median_err = None;
    let mut min_within_bars = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = args.into_iter();

    fn next_num<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        kind: &str,
    ) -> Result<T, UsageError> {
        let v = args.next().ok_or_else(|| usage_error(format!("{flag} needs {kind}")))?;
        v.parse().map_err(|_| usage_error(format!("{flag}: '{v}' is not {kind}")))
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--space" => {
                space = args.next().ok_or_else(|| usage_error("--space needs a name or file"))?;
            }
            "--samples" => {
                samples = Some(next_num(&mut args, "--samples", "a non-negative integer")?);
            }
            "--threads" => {
                threads = next_num(&mut args, "--threads", "a positive integer")?;
                if threads == 0 {
                    return Err(usage_error("--threads must be at least 1"));
                }
            }
            "--pareto-out" => {
                let v = args.next().ok_or_else(|| usage_error("--pareto-out needs a file"))?;
                pareto_out = Some(PathBuf::from(v));
            }
            "--cache" => {
                let v = args.next().ok_or_else(|| usage_error("--cache needs a directory"))?;
                cache = Some(PathBuf::from(v));
            }
            "--smoke" => smoke = true,
            "--tier" => {
                let v = args.next().ok_or_else(|| usage_error("--tier needs a tier name"))?;
                tier_run.sweep.tier = EvalTier::parse(&v)
                    .ok_or_else(|| usage_error(format!("--tier: unknown tier '{v}'")))?;
            }
            "--abort" => tier_run.sweep.abort = true,
            "--windows" => {
                let w: u32 = next_num(&mut args, "--windows", "a positive integer")?;
                if w == 0 {
                    return Err(usage_error("--windows must be at least 1"));
                }
                tier_run.sweep.interval = IntervalOpts { windows: w, ..tier_run.sweep.interval };
            }
            "--stride" => {
                let s: u32 = next_num(&mut args, "--stride", "a positive integer")?;
                if s == 0 {
                    return Err(usage_error("--stride must be at least 1"));
                }
                tier_run.sweep.interval = IntervalOpts { stride: s, ..tier_run.sweep.interval };
            }
            "--validate" => {
                tier_run.validate_every =
                    next_num(&mut args, "--validate", "a positive integer")?;
                if tier_run.validate_every == 0 {
                    return Err(usage_error("--validate must be at least 1"));
                }
            }
            "--tiers-out" => {
                let v = args.next().ok_or_else(|| usage_error("--tiers-out needs a file"))?;
                tier_run.tiers_path = Some(PathBuf::from(v));
            }
            "--min-speedup" => {
                min_speedup = Some(next_num(&mut args, "--min-speedup", "a number")?);
            }
            "--max-median-err" => {
                max_median_err = Some(next_num(&mut args, "--max-median-err", "a number")?);
            }
            "--min-within-bars" => {
                min_within_bars = Some(next_num(&mut args, "--min-within-bars", "a number")?);
            }
            other => rest.push(other.to_string()),
        }
    }
    let harness = HarnessOpts::parse(rest, dse::DEFAULTS)?;
    if (min_speedup.is_some() || max_median_err.is_some() || min_within_bars.is_some())
        && tier_run.validate_every == 0
    {
        return Err(usage_error("tier gates need --validate N to produce a tier report"));
    }
    Ok(DseArgs {
        space,
        samples,
        threads,
        pareto_out,
        cache,
        smoke,
        tier_run,
        min_speedup,
        max_median_err,
        min_within_bars,
        harness,
    })
}

fn load_spec(name_or_path: &str) -> Result<SpaceSpec, String> {
    if let Some(spec) = SpaceSpec::bundled(name_or_path) {
        return Ok(spec);
    }
    let text = std::fs::read_to_string(name_or_path)
        .map_err(|e| format!("'{name_or_path}' is not a bundled spec and not readable: {e}"))?;
    SpaceSpec::parse_str(&text)
}

fn smoke_gate(row: &Json, points: &[outerspace::dse::DsePoint]) -> Result<(), String> {
    let u = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    let n = u("points");
    if n < 64 {
        return Err(format!("smoke sweep has {n} points, needs >= 64"));
    }
    let default_canon = OuterSpaceConfig::default().to_json().to_string_compact();
    if !points.iter().any(|p| p.config_canonical() == default_canon) {
        return Err("smoke space does not include the paper-default config".into());
    }
    let frontier = u("frontier");
    if frontier == 0 {
        return Err("smoke sweep produced an empty Pareto frontier".into());
    }
    if row.get("failed").and_then(Json::as_u64).unwrap_or(1) != 0 {
        return Err("smoke sweep had failed points".into());
    }
    // Accounting identity: every point is an explicit outcome — evaluated,
    // aborted, invalid, or failed. Nothing is ever silently skipped.
    let accounted = u("simulated") + u("cache_hits") + u("aborted") + u("invalid") + u("failed");
    if accounted != n {
        return Err(format!("accounting identity violated: {accounted} outcomes != {n} points"));
    }
    Ok(())
}

/// Checks the tier gates against the written tier report.
fn tier_gates(a: &DseArgs, tiers_path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(tiers_path)
        .map_err(|e| format!("read {}: {e}", tiers_path.display()))?;
    let report = outerspace_json::parse(&text).map_err(|e| format!("parse tier report: {e}"))?;
    let f = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let v = report.get("validation").ok_or("tier report missing validation block")?;
    let vf = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    if let Some(min) = a.min_speedup {
        let got = f("speedup_vs_full");
        if got < min {
            return Err(format!("speedup {got:.2}x below the required {min:.2}x"));
        }
    }
    if let Some(max) = a.max_median_err {
        let got = vf("median_abs_err");
        if got > max {
            return Err(format!(
                "median |cycle error| {:.2}% above the allowed {:.2}%",
                100.0 * got,
                100.0 * max
            ));
        }
    }
    if let Some(min) = a.min_within_bars {
        let got = vf("within_bars_frac");
        if got < min {
            return Err(format!(
                "only {:.0}% of holdout points within their error bars (need {:.0}%)",
                100.0 * got,
                100.0 * min
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.smoke {
        // The CI gate pins the spec and runs it unscaled so the point count
        // and the default-config membership are invariant.
        a.space = "smoke".to_string();
        a.harness.full = true;
    }
    let spec = match load_spec(&a.space) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let pareto_path = a
        .pareto_out
        .clone()
        .unwrap_or_else(|| a.harness.out_dir.join(format!("dse_{}_pareto.json", spec.name)));
    let cache_dir = a.cache.clone().unwrap_or_else(|| dse::cache_dir(&a.harness));
    let tiers_path = a
        .tier_run
        .tiers_path
        .clone()
        .unwrap_or_else(|| a.harness.out_dir.join(format!("dse_{}_tiers.json", spec.name)));
    a.tier_run.tiers_path = Some(tiers_path.clone());

    println!(
        "# dse: space '{}' ({} axes, {} workloads), {} workers, tier {}{}",
        spec.name,
        spec.axes.len(),
        spec.workloads.len(),
        a.threads,
        a.tier_run.sweep.tier.tag(),
        if a.tier_run.sweep.abort { " + early-abort" } else { "" },
    );

    let mut runner = Runner::new("dse", &a.harness);
    let case_spec = spec.clone();
    let case_opts = a.harness.clone();
    let (samples, threads) = (a.samples, a.threads);
    let (case_cache, case_pareto) = (cache_dir.clone(), pareto_path.clone());
    let case_tier = a.tier_run.clone();
    let row = runner.run_case(&spec.name, move || {
        dse::sweep_spec(
            &case_spec,
            &case_opts,
            samples,
            threads,
            &case_cache,
            &case_pareto,
            &case_tier,
        )
    });
    let summary = runner.finalize();

    let Some(row) = row else {
        eprintln!("error: sweep did not complete (see {})", summary.out_path);
        return ExitCode::from(1);
    };
    if a.smoke {
        // Re-expand for the membership check (cheap; simulation is cached).
        let scaled = if a.harness.full { spec.clone() } else { spec.scaled(a.harness.scale) };
        match scaled
            .expand(a.samples, a.harness.seed)
            .map_err(|e| e.to_string())
            .and_then(|points| smoke_gate(&row, &points))
        {
            Ok(()) => println!("# smoke gate: ok"),
            Err(e) => {
                eprintln!("error: smoke gate failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if a.tier_run.validate_every > 0 {
        match tier_gates(&a, &tiers_path) {
            Ok(()) => println!("# tier gates: ok"),
            Err(e) => {
                eprintln!("error: tier gate failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    // Standing of the default design, for the terminal reader.
    if let Some(status) = row.get("default_config").and_then(Json::as_str) {
        println!("# paper-default config: {status}");
    }
    ExitCode::SUCCESS
}
