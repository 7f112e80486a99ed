//! Harness bodies, one module per figure/table artifact of the paper's
//! evaluation section.
//!
//! Each module exposes `NAME` (the artifact's JSON basename), `DEFAULTS`
//! (its `--scale` / `--max-case-secs` when those flags are absent), and
//! `run(&HarnessOpts) -> RunSummary`, which executes every benchmark case
//! through the crash-safe [`crate::runner`] layer. The `runall` driver
//! enters through [`ALL`] and [`RunallArgs`], so a sweep runs per figure
//! (`--only NAME`) or end to end with the same isolation, checkpointing,
//! and `--resume` semantics.

use crate::runner::{CaseResult, Runner, RunSummary};
use crate::{usage_error, HarnessDefaults, HarnessOpts, UsageError};

pub mod ablations;
pub mod dse;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig12;
pub mod fig_sparch;
pub mod kernels;
pub mod sec43;
pub mod sec73;
pub mod sec8;
pub mod table1;
pub mod table5;
pub mod table6;

/// A runnable harness: artifact name, its defaults, the workload divisor
/// `runall --smoke` uses for its tiny-scale gate, and the entry point.
pub struct Harness {
    /// Artifact basename (`<name>.json` under `--out`).
    pub name: &'static str,
    /// Defaults applied when `--scale` / `--max-case-secs` are absent.
    pub defaults: HarnessDefaults,
    /// Workload divisor used by `runall --smoke`.
    pub smoke_scale: u32,
    /// Entry point; runs every case and finalizes the JSON dump.
    pub run: fn(&HarnessOpts) -> RunSummary,
}

/// Every figure/table harness, in the order `runall` drives them.
pub const ALL: &[Harness] = &[
    Harness { name: fig03::NAME, defaults: fig03::DEFAULTS, smoke_scale: 64, run: fig03::run },
    Harness { name: table1::NAME, defaults: table1::DEFAULTS, smoke_scale: 256, run: table1::run },
    Harness { name: fig04::NAME, defaults: fig04::DEFAULTS, smoke_scale: 64, run: fig04::run },
    Harness { name: fig06::NAME, defaults: fig06::DEFAULTS, smoke_scale: 16, run: fig06::run },
    Harness { name: fig07::NAME, defaults: fig07::DEFAULTS, smoke_scale: 64, run: fig07::run },
    Harness { name: table5::NAME, defaults: table5::DEFAULTS, smoke_scale: 64, run: table5::run },
    Harness { name: table6::NAME, defaults: table6::DEFAULTS, smoke_scale: 32, run: table6::run },
    Harness { name: fig12::NAME, defaults: fig12::DEFAULTS, smoke_scale: 64, run: fig12::run },
    Harness {
        name: fig_sparch::NAME,
        defaults: fig_sparch::DEFAULTS,
        smoke_scale: 16,
        run: fig_sparch::run,
    },
    Harness { name: sec73::NAME, defaults: sec73::DEFAULTS, smoke_scale: 64, run: sec73::run },
    Harness { name: sec43::NAME, defaults: sec43::DEFAULTS, smoke_scale: 16, run: sec43::run },
    Harness { name: sec8::NAME, defaults: sec8::DEFAULTS, smoke_scale: 32, run: sec8::run },
    Harness {
        name: ablations::NAME,
        defaults: ablations::DEFAULTS,
        smoke_scale: 16,
        run: ablations::run,
    },
    Harness { name: dse::NAME, defaults: dse::DEFAULTS, smoke_scale: 32, run: dse::run },
    Harness {
        name: kernels::NAME,
        defaults: kernels::DEFAULTS,
        smoke_scale: kernels::DEFAULTS.scale,
        run: kernels::run,
    },
];

/// Per-case watchdog budget under `runall --smoke`: small, so a hung case
/// cannot stall CI for a harness's default (up to 15 minutes).
const SMOKE_MAX_CASE_SECS: f64 = 120.0;

/// `runall`'s command line, resolved into the harnesses to run and the
/// options of each.
///
/// The driver owns three flags:
///
/// * `--smoke` — tiny-scale CI gate: every harness runs at its
///   `smoke_scale` with a 120 s watchdog, and [`SMOKE_FAULT`] joins the
///   lineup;
/// * `--only NAME` (repeatable) — run a subset of the harnesses;
/// * `--max-retries N` — re-drive a harness that still has failed cases up
///   to `N` extra times (default 1).
///
/// Every other argument is handed to each harness's [`HarnessOpts::parse`]
/// over that harness's defaults, so `--scale` / `--max-case-secs` override
/// them and `--full` runs every harness at scale 1.
pub struct RunallArgs {
    /// `--smoke` was given.
    pub smoke: bool,
    /// Extra attempts for a harness with failed cases.
    pub max_retries: u32,
    /// The harnesses to run, in [`ALL`] order, each with its options. Never
    /// empty; every entry shares the same seed, output directory, `full`
    /// and `resume`.
    pub lineup: Vec<(&'static Harness, HarnessOpts)>,
}

impl RunallArgs {
    /// Parses `runall`'s argument list (without the program name).
    ///
    /// # Errors
    ///
    /// A [`UsageError`] for a malformed driver flag, an unknown `--only`
    /// name, or a shared flag [`HarnessOpts::parse`] rejects.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<RunallArgs, UsageError> {
        let mut smoke = false;
        let mut only: Vec<String> = Vec::new();
        let mut max_retries = 1;
        let mut shared: Vec<String> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--only" => {
                    let v = args.next().ok_or_else(|| usage_error("--only needs a harness name"))?;
                    only.push(v);
                }
                "--max-retries" => {
                    let v = args
                        .next()
                        .ok_or_else(|| usage_error("--max-retries needs a non-negative integer"))?;
                    max_retries = v.parse().map_err(|_| {
                        usage_error(format!("--max-retries: '{v}' is not a non-negative integer"))
                    })?;
                }
                _ => shared.push(arg),
            }
        }

        let mut harnesses: Vec<&'static Harness> = ALL.iter().collect();
        if smoke {
            harnesses.push(&SMOKE_FAULT);
        }
        if let Some(name) = only.iter().find(|n| !harnesses.iter().any(|h| h.name == n.as_str())) {
            let known: Vec<&str> = harnesses.iter().map(|h| h.name).collect();
            return Err(usage_error(format!(
                "--only: unknown harness '{name}' (known: {})",
                known.join(", ")
            )));
        }
        if !only.is_empty() {
            harnesses.retain(|h| only.iter().any(|n| n == h.name));
        }

        let lineup = harnesses
            .into_iter()
            .map(|h| {
                let defaults = if smoke {
                    HarnessDefaults { scale: h.smoke_scale, max_case_secs: SMOKE_MAX_CASE_SECS }
                } else {
                    h.defaults
                };
                Ok((h, HarnessOpts::parse(shared.iter().cloned(), defaults)?))
            })
            .collect::<Result<_, UsageError>>()?;
        Ok(RunallArgs { smoke, max_retries, lineup })
    }
}

/// The deliberately faulty harness `runall --smoke` appends: one healthy
/// case and one injected panic, proving case isolation end-to-end in CI
/// (the driver must exit 0 with the failure recorded in the manifest).
pub const SMOKE_FAULT: Harness = Harness {
    name: "smoke_fault",
    defaults: HarnessDefaults { scale: 1, max_case_secs: 60.0 },
    smoke_scale: 1,
    run: smoke_fault,
};

fn smoke_fault(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(SMOKE_FAULT.name, opts);
    runner.run_case("healthy", || -> CaseResult<u64> { Ok(42) });
    runner.run_case("injected-panic", || -> CaseResult<u64> {
        panic!("injected smoke-test panic (expected: exercises case isolation)")
    });
    runner.finalize()
}

/// Picks a workload scale for a Table 4 suite entry: dimension capped near
/// 100 k rows and intermediate products capped so a full 20-matrix sweep
/// finishes in minutes. `--full` disables both caps; `--scale` multiplies
/// the result. A flops-estimation failure becomes a skip reason (`Err`)
/// instead of aborting the sweep.
pub(crate) fn suite_scale(
    e: &outerspace::gen::suite::SuiteEntry,
    opts: &HarnessOpts,
) -> Result<u32, String> {
    if opts.full {
        return Ok(1);
    }
    const PRODUCT_CAP: u64 = 50_000_000;
    let mut scale = (e.dim / 100_000).max(1) * opts.scale;
    for _ in 0..6 {
        let probe = e.generate_scaled(scale.min(e.dim / 2).max(1), opts.seed);
        let products = outerspace::sparse::ops::spgemm_flops(&probe, &probe)
            .map_err(|err| format!("cannot estimate products for {}: {err}", e.name))?
            / 2;
        if products <= PRODUCT_CAP {
            break;
        }
        let grow = (products as f64 / PRODUCT_CAP as f64).ceil() as u32;
        scale = (scale * grow.clamp(2, 16)).min(e.dim / 2).max(1);
    }
    Ok(scale.min(e.dim / 2).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunallArgs, UsageError> {
        RunallArgs::parse(args.iter().map(|s| s.to_string()))
    }

    fn names(r: &RunallArgs) -> Vec<&'static str> {
        r.lineup.iter().map(|(h, _)| h.name).collect()
    }

    #[test]
    fn runall_gives_each_harness_its_own_defaults() {
        let r = parse(&[]).expect("no flags");
        assert!(!r.smoke);
        assert_eq!(r.max_retries, 1);
        assert_eq!(names(&r), ALL.iter().map(|h| h.name).collect::<Vec<_>>());
        for (h, o) in &r.lineup {
            assert_eq!((o.scale, o.max_case_secs), (h.defaults.scale, h.defaults.max_case_secs));
            assert_eq!((o.seed, o.full, o.resume), (42, false, false));
        }
    }

    #[test]
    fn runall_shared_flags_override_every_harness() {
        for (h, o) in parse(&["--scale", "3"]).expect("--scale").lineup {
            assert_eq!(o.scale, 3, "{}", h.name);
        }
        for (h, o) in parse(&["--full"]).expect("--full").lineup {
            assert!(o.full, "{}", h.name);
            assert_eq!(o.scale, 1, "{}", h.name);
        }
    }

    #[test]
    fn runall_smoke_uses_smoke_scales_unless_overridden() {
        let r = parse(&["--smoke"]).expect("--smoke");
        assert!(r.smoke);
        assert_eq!(r.lineup.len(), ALL.len() + 1);
        assert_eq!(names(&r).last(), Some(&SMOKE_FAULT.name));
        for (h, o) in &r.lineup {
            let want = (h.smoke_scale, SMOKE_MAX_CASE_SECS);
            assert_eq!((o.scale, o.max_case_secs), want, "{}", h.name);
        }
        for (h, o) in parse(&["--smoke", "--scale", "5"]).expect("--scale").lineup {
            assert_eq!((o.scale, o.max_case_secs), (5, SMOKE_MAX_CASE_SECS), "{}", h.name);
        }
        for (h, o) in parse(&["--smoke", "--max-case-secs", "9"]).expect("--max-case-secs").lineup {
            assert_eq!((o.scale, o.max_case_secs), (h.smoke_scale, 9.0), "{}", h.name);
        }
        // --only narrows the lineup and keeps ALL's order.
        let r = parse(&["--smoke", "--only", "fig_sparch", "--only", "fig03", "--max-retries", "0"])
            .expect("--only");
        assert_eq!(names(&r), ["fig03", "fig_sparch"]);
        assert_eq!((r.lineup[1].1.scale, r.lineup[1].1.seed), (16, 42));
        assert_eq!(r.max_retries, 0);
    }

    #[test]
    fn runall_rejects_malformed_arguments() {
        for bad in [
            vec!["--scale", "0"],
            vec!["--table4"],
            vec!["--only"],
            vec!["--only", "serve"],
            vec!["--only", "smoke_fault"],
            vec!["--max-retries", "-1"],
        ] {
            let Err(err) = parse(&bad) else { panic!("accepted {bad:?}") };
            assert!(!err.message.is_empty());
        }
    }
}
