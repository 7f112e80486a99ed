//! Design-space exploration harness: drives the bundled `outerspace-dse`
//! parameter spaces (the CI `smoke` grid, the §7.3 α sweep, the §8 scaling
//! study, the SpArch head-to-head, and the `.mtx` fixture corpus) through
//! the crash-safe runner.
//!
//! Each spec is one runner case: expand the space, fan it over a
//! work-stealing worker pool with the content-addressed sim cache under
//! `<out>/dse_cache/`, then emit the Pareto/sensitivity report to
//! `<out>/dse_<spec>_pareto.json`. The Pareto file contains no wall-clock
//! fields and is written in fixed field order, so two runs of the same spec
//! and seed produce byte-identical files — the property `ci.sh` diffs. The
//! point-level cache also makes the sweep resumable: a rerun (or a crash
//! recovery) re-simulates only points that never completed.
//!
//! The sweep can route through either [`dse::EvalTier`] (full or
//! interval); interval-tier runs can additionally validate a deterministic
//! sample against full-fidelity reruns and emit a *tier report*
//! (`dse_<spec>_tiers.json`) carrying the calibrated error distribution,
//! points-per-CPU-hour, and the measured full-vs-tier speedup. Wall-clock
//! numbers live only in that report and on stdout — never in the Pareto
//! file.

use std::path::{Path, PathBuf};
use std::time::Instant;

use outerspace::dse::{self, SimCache, SpaceSpec};
use outerspace_json::{dump, Json};

use crate::runner::{CaseResult, Runner, RunSummary};
use crate::{HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "dse";
/// Per-binary defaults.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 1200.0 };

/// Tier routing and validation options for one sweep (the harness-level
/// wrapper around [`dse::SweepOptions`]).
#[derive(Debug, Clone, Default)]
pub struct TierRun {
    /// Tier, early-abort, and interval sampling options.
    pub sweep: dse::SweepOptions,
    /// Validate every point with `fnv64(index) % N == 0` against a full
    /// rerun (interval tier only); 0 disables validation.
    pub validate_every: usize,
    /// Where the tier report goes (`None` = `<out>/dse_<spec>_tiers.json`
    /// when validation runs, nothing otherwise).
    pub tiers_path: Option<PathBuf>,
}

/// One spec's sweep summary row. Deliberately wall-clock-free: rows feed
/// the runner manifest, which must stay byte-deterministic.
pub struct Row {
    /// Spec name.
    pub spec: String,
    /// Evaluation tier tag.
    pub tier: String,
    /// Expanded points.
    pub points: u64,
    /// Points simulated this run.
    pub simulated: u64,
    /// Points served from the memo cache.
    pub cache_hits: u64,
    /// Points whose config failed `validate()`.
    pub invalid: u64,
    /// Points killed by the dominance early-abort.
    pub aborted: u64,
    /// Points that errored or panicked.
    pub failed: u64,
    /// Distinct configs after aggregation.
    pub configs: u64,
    /// Configs on the Pareto frontier.
    pub frontier: u64,
    /// Where the paper default landed: `on_frontier` / `dominated` / `absent`.
    pub default_config: String,
    /// Where the Pareto report was written.
    pub pareto_path: String,
}

outerspace_json::impl_to_json!(Row {
    spec,
    tier,
    points,
    simulated,
    cache_hits,
    invalid,
    aborted,
    failed,
    configs,
    frontier,
    default_config,
    pareto_path,
});

/// Default worker count: one per core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Expands and sweeps one spec through its tier, writes its Pareto report
/// (and, when validation ran, the tier report), and returns the summary
/// row. Shared by this harness and the `dse` binary.
///
/// # Errors
///
/// Expansion failures (bad spec), cache I/O errors, validation and
/// report-write failures — all as case-skipping strings.
pub fn sweep_spec(
    spec: &SpaceSpec,
    opts: &HarnessOpts,
    samples: Option<usize>,
    threads: usize,
    cache_dir: &Path,
    pareto_path: &Path,
    tier_run: &TierRun,
) -> CaseResult<Row> {
    let scaled = if opts.full { spec.clone() } else { spec.scaled(opts.scale) };
    let points = scaled.expand(samples, opts.seed)?;
    let mut cache = SimCache::open(cache_dir).map_err(|e| format!("open sim cache: {e}"))?;
    let t0 = Instant::now();
    let sweep = dse::run_sweep_opts(&points, &mut cache, threads, &tier_run.sweep);
    let sweep_wall_s = t0.elapsed().as_secs_f64();
    let report = dse::analyze(&points, &sweep.outcomes);

    let mut pareto = report.to_json().to_string_pretty();
    pareto.push('\n');
    dump::write_atomic(pareto_path, &pareto)
        .map_err(|e| format!("write {}: {e}", pareto_path.display()))?;

    let default_config = match &report.default_status {
        dse::DefaultStatus::Absent => "absent".to_string(),
        dse::DefaultStatus::OnFrontier => "on_frontier".to_string(),
        dse::DefaultStatus::DominatedBy(ids) => format!("dominated_by:{ids:?}"),
    };
    let row = Row {
        spec: scaled.name.clone(),
        tier: tier_run.sweep.tier.tag().to_string(),
        points: points.len() as u64,
        simulated: sweep.simulated as u64,
        cache_hits: sweep.cache_hits as u64,
        invalid: sweep.invalid as u64,
        aborted: sweep.aborted as u64,
        failed: sweep.failed as u64,
        configs: report.configs.len() as u64,
        frontier: report.frontier.len() as u64,
        default_config,
        pareto_path: pareto_path.display().to_string(),
    };
    print_row(&row, &sweep);

    if tier_run.validate_every > 0 {
        let validation =
            dse::validate_interval(&points, &sweep.outcomes, &mut cache, tier_run.validate_every)?;
        let tiers_path = tier_run.tiers_path.clone().unwrap_or_else(|| {
            opts.out_dir.join(format!("dse_{}_tiers.json", scaled.name))
        });
        let tier_json = tier_report_json(&row, &sweep, sweep_wall_s, &validation);
        let mut text = tier_json.to_string_pretty();
        text.push('\n');
        dump::write_atomic(&tiers_path, &text)
            .map_err(|e| format!("write {}: {e}", tiers_path.display()))?;
        print_tier_report(&tier_json, &tiers_path);
    }
    Ok(row)
}

/// Assembles the tier report: the sweep's accounting, the wall-clock
/// economics (points-per-CPU-hour, measured full-sim cost, speedup), and
/// the validation block.
fn tier_report_json(
    row: &Row,
    sweep: &dse::SweepResult,
    sweep_wall_s: f64,
    validation: &dse::TierValidation,
) -> Json {
    let evaluated = (sweep.simulated + sweep.cache_hits) as u64;
    let tier_per_point_s =
        if sweep.simulated > 0 { sweep_wall_s / sweep.simulated as f64 } else { 0.0 };
    let points_per_cpu_hour =
        if tier_per_point_s > 0.0 { 3600.0 / tier_per_point_s } else { 0.0 };
    let full_per_point_s = if validation.full_timed > 0 {
        validation.full_wall_s / validation.full_timed as f64
    } else {
        0.0
    };
    let speedup = if tier_per_point_s > 0.0 && full_per_point_s > 0.0 {
        full_per_point_s / tier_per_point_s
    } else {
        0.0
    };
    Json::Obj(vec![
        ("spec".into(), Json::Str(row.spec.clone())),
        ("tier".into(), Json::Str(row.tier.clone())),
        ("points".into(), Json::UInt(row.points)),
        ("evaluated".into(), Json::UInt(evaluated)),
        ("simulated".into(), Json::UInt(row.simulated)),
        ("cache_hits".into(), Json::UInt(row.cache_hits)),
        ("aborted".into(), Json::UInt(row.aborted)),
        ("invalid".into(), Json::UInt(row.invalid)),
        ("failed".into(), Json::UInt(row.failed)),
        ("sweep_wall_s".into(), Json::Float(sweep_wall_s)),
        ("tier_per_point_s".into(), Json::Float(tier_per_point_s)),
        ("points_per_cpu_hour".into(), Json::Float(points_per_cpu_hour)),
        ("full_per_point_s".into(), Json::Float(full_per_point_s)),
        ("speedup_vs_full".into(), Json::Float(speedup)),
        ("validation".into(), validation.to_json()),
    ])
}

fn print_tier_report(tier_json: &Json, path: &Path) {
    let f = |k: &str| tier_json.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let v = tier_json.get("validation");
    let vf = |k: &str| v.and_then(|j| j.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
    let vu = |k: &str| v.and_then(|j| j.get(k)).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "#   tier economics: {:.1} points/cpu-hour ({:.3}s/point) vs full {:.3}s/point \
         => {:.1}x speedup",
        f("points_per_cpu_hour"),
        f("tier_per_point_s"),
        f("full_per_point_s"),
        f("speedup_vs_full"),
    );
    println!(
        "#   tier validation: {} points | median |cycle err| {:.2}% | {:.0}% within bars | {}",
        vu("validated"),
        100.0 * vf("median_abs_err"),
        100.0 * vf("within_bars_frac"),
        path.display()
    );
}

fn print_row(row: &Row, sweep: &dse::SweepResult) {
    println!(
        "# dse spec {}: {} points | {} simulated, {} cache hits ({:.0}% hit rate), \
         {} invalid, {} failed, {} aborted [tier {}]",
        row.spec,
        row.points,
        row.simulated,
        row.cache_hits,
        100.0 * sweep.hit_rate(),
        row.invalid,
        row.failed,
        row.aborted,
        row.tier,
    );
    println!(
        "#   accounting: {} evaluated + {} aborted + {} invalid + {} failed == {} points: {}",
        row.simulated + row.cache_hits,
        row.aborted,
        row.invalid,
        row.failed,
        row.points,
        if row.simulated + row.cache_hits + row.aborted + row.invalid + row.failed == row.points
        {
            "ok"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "#   pareto: {} of {} configs on the frontier | default config {} | {}",
        row.frontier, row.configs, row.default_config, row.pareto_path
    );
}

/// Location of the shared point cache under the output directory.
pub fn cache_dir(opts: &HarnessOpts) -> PathBuf {
    opts.out_dir.join("dse_cache")
}

/// Runs every bundled space through the crash-safe runner (full tier).
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    println!(
        "# design-space exploration over the bundled specs (scale {}x, {} workers)",
        opts.scale,
        default_threads()
    );
    for &name in SpaceSpec::BUNDLED {
        let case_opts = opts.clone();
        runner.run_case(name, move || -> CaseResult<Row> {
            let spec = SpaceSpec::bundled(name).ok_or("bundled spec vanished")?;
            let pareto_path = case_opts.out_dir.join(format!("dse_{name}_pareto.json"));
            sweep_spec(
                &spec,
                &case_opts,
                None,
                default_threads(),
                &cache_dir(&case_opts),
                &pareto_path,
                &TierRun::default(),
            )
        });
    }
    runner.finalize()
}
