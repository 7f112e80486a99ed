//! Raw-speed microbenchmarks over the software SpGEMM kernels, with an
//! append-only perf trajectory and a pinned regression gate.
//!
//! Unlike the figure harnesses (which reproduce the paper's *relative*
//! results), this harness watches the absolute speed of the `outer` and
//! `baselines` hot paths that `ospace serve` executes per request: the
//! multiply phase into the arena intermediate, the merge phase (streaming
//! vs sort vs cache-blocked, timed in isolation on a once-built arena),
//! and the end-to-end SpGEMM drivers. Each kernel × workload cell is timed
//! with warmup, repetition, and median-of-k reporting. Three more cells
//! time the simulator's cycle engines alone — the OuterSPACE multiply
//! (`sim_multiply`) and merge (`sim_merge`) phases and the SpArch analog's
//! condensed multiply plus merge tree (`sparch_engines`) — on layouts,
//! merge shapes and plans built outside the timed region, so the gate
//! also guards engine speed.
//!
//! Every run appends one entry to `<out>/BENCH_kernels.json` (JSONL via
//! [`outerspace_json::dump::append_jsonl`], so concurrent/interrupted
//! writers cannot corrupt the history). [`check`] compares a fresh
//! measurement of the *pinned* cells against the latest trajectory entry
//! and fails on a >5% median regression — the `ci.sh` perf gate. To re-pin
//! after an intentional perf change, re-run the harness (a new entry
//! becomes the baseline) or run the gate with `BENCH_PIN=1`, mirroring the
//! simulator's `GOLDEN_CAPTURE=1` convention.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use outerspace::outer::{
    condense, merge, multiply, sparch_structural_plan, spgemm, spgemm_parallel,
    spgemm_with_stats, ArenaProducts, MergeKind,
};
use outerspace::prelude::*;
use outerspace::sim::phases::{merge as merge_phase, multiply as multiply_phase, sparch};

use crate::runner::{git_dirty, git_rev, CaseResult, Runner};
use crate::{fmt_secs, HarnessDefaults, HarnessOpts};
use outerspace_json::{dump, Json, ToJson};

/// Artifact basename.
pub const NAME: &str = "kernels";
/// Defaults for `--scale` / `--max-case-secs`. The default scale doubles as the smoke/pin scale:
/// trajectory entries are only comparable at equal `(scale, seed)`, so CI
/// and the committed baseline use the same cell sizes.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 8, max_case_secs: 600.0 };

/// Timed repetitions per cell; the reported time is their median.
const REPS: usize = 7;
/// Untimed warmup repetitions per cell (page-faults the inputs, warms
/// caches and the branch predictor).
const WARMUP: usize = 2;
/// Threads for the parallel cells (matches `serve`'s worker parallelism).
const THREADS: usize = 4;

/// A pinned cell regresses when the fresh median exceeds the baseline by
/// this factor **and** by [`ABS_SLACK_S`] — the relative gate from the
/// issue plus an absolute floor so micro-jitter on sub-millisecond noise
/// cannot trip CI.
const REL_TOL: f64 = 1.05;
/// Absolute regression floor in seconds.
const ABS_SLACK_S: f64 = 0.5e-3;

/// Cells the [`check`] gate compares (substring-free exact names). Chosen
/// to cover both tentpole fast paths, the end-to-end drivers and one
/// simulator engine, on the workloads where they run ≥ a few milliseconds
/// at the default scale, so the 5% gate is meaningful.
pub const PINNED_CELLS: &[&str] = &[
    "uniform/multiply_arena",
    "uniform/merge_blocked",
    "uniform/spgemm_outer_blocked",
    "uniform/spgemm_outer_streaming",
    "rmat/spgemm_outer_ws_par",
    "uniform/sim_merge",
];

/// Trajectory file name under `--out`.
pub const TRAJECTORY_FILE: &str = "BENCH_kernels.json";

/// One timed kernel × workload cell.
struct CellRow {
    cell: String,
    workload: String,
    kernel: String,
    median_s: f64,
    min_s: f64,
    max_s: f64,
    reps: u64,
    pinned: bool,
}

outerspace_json::impl_to_json!(CellRow {
    cell,
    workload,
    kernel,
    median_s,
    min_s,
    max_s,
    reps,
    pinned,
});

/// Times a fixed, repo-independent arithmetic loop — a probe of current
/// machine speed. Trajectory entries record the probe alongside the cell
/// medians; the gate compares *calibrated* ratios
/// (`fresh/probe_now : base/probe_then`), which cancels machine-wide
/// slowdowns (CPU contention, frequency scaling — this may be a busy
/// one-core box) while staying sensitive to per-kernel code regressions.
fn machine_probe() -> f64 {
    let (median, ..) = measure(&|| {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc: u64 = 0;
        for _ in 0..8_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        std::hint::black_box(acc);
    });
    median
}

/// Times `body` with warmup + repetition; returns `(median, min, max)`.
fn measure(body: &dyn Fn()) -> (f64, f64, f64) {
    for _ in 0..WARMUP {
        body();
    }
    let mut times = [0.0f64; REPS];
    for t in &mut times {
        let t0 = Instant::now();
        body();
        *t = t0.elapsed().as_secs_f64();
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (times[REPS / 2], times[0], times[REPS - 1])
}

/// One benchmarkable kernel closure, tagged with its cell coordinates.
struct CellSpec {
    workload: &'static str,
    kernel: &'static str,
    body: Box<dyn Fn() + Send + Sync>,
}

impl CellSpec {
    fn name(&self) -> String {
        format!("{}/{}", self.workload, self.kernel)
    }
}

/// The generator workloads. `uniform` is the regular-sparsity anchor,
/// `rmat` stresses skew (hub rows → huge chunks), `banded` stresses
/// many-small-chunk merges with near-total collision overlap.
fn workloads(opts: &HarnessOpts) -> Vec<(&'static str, Csr, Csr)> {
    let seed = opts.seed;
    let n_uni = (4096 / opts.scale).max(64);
    let n_rmat = (2048 / opts.scale).max(64);
    let n_band = (4096 / opts.scale).max(64);
    vec![
        (
            "uniform",
            outerspace::gen::uniform::matrix(n_uni, n_uni, 48 * n_uni as usize, seed),
            outerspace::gen::uniform::matrix(n_uni, n_uni, 48 * n_uni as usize, seed + 1),
        ),
        (
            "rmat",
            outerspace::gen::rmat::graph500(n_rmat, 24 * n_rmat as usize, seed),
            outerspace::gen::rmat::graph500(n_rmat, 24 * n_rmat as usize, seed + 1),
        ),
        (
            "banded",
            outerspace::gen::banded::circulant(n_band, 17, seed),
            outerspace::gen::banded::circulant(n_band, 17, seed + 1),
        ),
    ]
}

/// Builds every kernel × workload cell. Multiply cells time the phase from
/// the pre-converted CC operand; merge cells time the phase alone against
/// a pre-built arena intermediate (setup excluded from the timed region);
/// spgemm cells time the full driver including conversion; engine cells
/// time one simulated phase on the default machine.
fn build_cells(opts: &HarnessOpts) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    let cfg = Arc::new(OuterSpaceConfig::default());
    for (workload, a, b) in workloads(opts) {
        let a = Arc::new(a);
        let b = Arc::new(b);
        let a_cc: Arc<Csc> = Arc::new(a.to_csc());
        let (ap, _) = multiply(&a_cc, &b).expect("square operands");
        let ap = Arc::new(ap);

        let spec = |kernel: &'static str, body: Box<dyn Fn() + Send + Sync>| CellSpec {
            workload,
            kernel,
            body,
        };
        let (ac, bb) = (a_cc.clone(), b.clone());
        cells.push(spec(
            "multiply_arena",
            Box::new(move || {
                std::hint::black_box(multiply(&ac, &bb).expect("square operands"));
            }),
        ));
        for (kernel, kind) in [
            ("merge_streaming", MergeKind::Streaming),
            ("merge_sort", MergeKind::SortBased),
            ("merge_blocked", MergeKind::Blocked),
        ] {
            let ap: Arc<ArenaProducts> = ap.clone();
            cells.push(spec(
                kernel,
                Box::new(move || {
                    std::hint::black_box(merge(&*ap, kind));
                }),
            ));
        }
        let (aa, bb) = (a.clone(), b.clone());
        cells.push(spec(
            "spgemm_outer_streaming",
            Box::new(move || {
                std::hint::black_box(
                    spgemm_with_stats(&aa, &bb, MergeKind::Streaming).expect("square"),
                );
            }),
        ));
        let (aa, bb) = (a.clone(), b.clone());
        cells.push(spec(
            "spgemm_outer_blocked",
            Box::new(move || {
                std::hint::black_box(spgemm(&aa, &bb).expect("square"));
            }),
        ));
        let (aa, bb) = (a.clone(), b.clone());
        cells.push(spec(
            "spgemm_outer_ws_par",
            Box::new(move || {
                std::hint::black_box(spgemm_parallel(&aa, &bb, THREADS).expect("square"));
            }),
        ));
        // The simulator's functional product (both machine models).
        let (aa, bb) = (a.clone(), b.clone());
        cells.push(spec(
            "spgemm_gustavson",
            Box::new(move || {
                std::hint::black_box(
                    outerspace::baselines::gustavson::spgemm(&aa, &bb).expect("square"),
                );
            }),
        ));

        // Engine cells: what each timed phase reads (the intermediate
        // layout, per-row merge shapes, the SpArch plan) is built here.
        let c = spgemm(&a, &b).expect("square");
        let (_, layout) = multiply_phase::simulate_multiply(&cfg, &a_cc, &b).expect("fault-free");
        let rows = merge_phase::row_merge_infos(&layout, &c).expect("counts fit u32");
        let plan = sparch_structural_plan(&a, &b, cfg.merge_tree_ways as usize, c.nnz() as u64)
            .expect("square");
        let (layout, rows, plan) = (Arc::new(layout), Arc::new(rows), Arc::new(plan));
        let condensed = Arc::new(condense(&a));
        let (cf, ac, bb) = (cfg.clone(), a_cc.clone(), b.clone());
        cells.push(spec(
            "sim_multiply",
            Box::new(move || {
                std::hint::black_box(
                    multiply_phase::simulate_multiply_with_breakdown(&cf, &ac, &bb)
                        .expect("fault-free"),
                );
            }),
        ));
        let cf = cfg.clone();
        cells.push(spec(
            "sim_merge",
            Box::new(move || {
                std::hint::black_box(
                    merge_phase::simulate_merge_with_breakdown(&cf, &layout, &rows)
                        .expect("fault-free"),
                );
            }),
        ));
        let (cf, bb) = (cfg.clone(), b.clone());
        cells.push(spec(
            "sparch_engines",
            Box::new(move || {
                let mul = sparch::simulate_condensed_multiply(&cf, &condensed, &bb, &plan);
                std::hint::black_box(mul.expect("fault-free"));
                std::hint::black_box(sparch::simulate_merge_tree(&cf, &plan).expect("fault-free"));
            }),
        ));
    }
    cells
}

fn median_of(rows: &[CellRow], cell: &str) -> Option<f64> {
    rows.iter().find(|r| r.cell == cell).map(|r| r.median_s)
}

/// Per-workload speedup ratios of each fast path over its predecessor.
fn speedups(rows: &[CellRow]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for workload in ["uniform", "rmat", "banded"] {
        if let (Some(base), Some(fast)) = (
            median_of(rows, &format!("{workload}/merge_streaming")),
            median_of(rows, &format!("{workload}/merge_blocked")),
        ) {
            out.push((format!("merge_blocked_vs_streaming/{workload}"), base / fast));
        }
    }
    out
}

/// Serializes one trajectory entry. `probe_s` is the machine-speed probe
/// measured in the same session as `rows`.
fn trajectory_entry(opts: &HarnessOpts, rows: &[CellRow], repin: bool, probe_s: f64) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::UInt(1)),
        ("kind".into(), Json::Str("kernels-perf".into())),
        ("git_rev".into(), Json::Str(git_rev())),
        ("git_dirty".into(), git_dirty()),
        ("seed".into(), Json::UInt(opts.seed)),
        ("scale".into(), Json::UInt(opts.scale as u64)),
        ("threads".into(), Json::UInt(THREADS as u64)),
        ("repin".into(), Json::Bool(repin)),
        ("machine_probe_s".into(), Json::Float(probe_s)),
        ("cells".into(), Json::Arr(rows.iter().map(|r| r.to_json()).collect())),
        (
            "speedups".into(),
            Json::Obj(
                speedups(rows).into_iter().map(|(k, v)| (k, Json::Float(v))).collect(),
            ),
        ),
    ])
}

fn trajectory_path(opts: &HarnessOpts) -> std::path::PathBuf {
    opts.out_dir.join(TRAJECTORY_FILE)
}

/// Runs every cell through the crash-safe runner, prints the table and the
/// fast-path speedups, and appends one entry to the perf trajectory.
pub fn run(opts: &HarnessOpts) -> crate::runner::RunSummary {
    let mut runner = Runner::new(NAME, opts);
    println!(
        "# software-kernel raw speed: median of {REPS} reps after {WARMUP} warmups, \
         scale {}, seed {}",
        opts.scale, opts.seed
    );
    println!("{:<32} {:>10} {:>10} {:>10} {:>7}", "cell", "median", "min", "max", "pinned");
    let mut rows: Vec<CellRow> = Vec::new();
    for cell in build_cells(opts) {
        let name = cell.name();
        let pinned = PINNED_CELLS.contains(&name.as_str());
        let value = runner.run_case(&name, move || -> CaseResult<CellRow> {
            let (median_s, min_s, max_s) = measure(&*cell.body);
            let row = CellRow {
                cell: cell.name(),
                workload: cell.workload.to_string(),
                kernel: cell.kernel.to_string(),
                median_s,
                min_s,
                max_s,
                reps: REPS as u64,
                pinned,
            };
            println!(
                "{:<32} {:>10} {:>10} {:>10} {:>7}",
                row.cell,
                fmt_secs(row.median_s),
                fmt_secs(row.min_s),
                fmt_secs(row.max_s),
                if row.pinned { "yes" } else { "" }
            );
            Ok(row)
        });
        // Re-materialize the row from the runner's Json so `--resume`d
        // (cached) cases still contribute to speedups and the trajectory.
        if let Some(row) = value.as_ref().and_then(row_from_json) {
            rows.push(row);
        }
    }

    println!("\n# fast-path speedups (median ratio, >1.0 = fast path wins)");
    for (name, ratio) in speedups(&rows) {
        println!("{name:<44} {ratio:>6.2}x");
    }

    if rows.is_empty() {
        eprintln!("# {NAME}: no completed cells; trajectory entry not appended");
    } else {
        let path = trajectory_path(opts);
        match dump::append_jsonl(&path, &trajectory_entry(opts, &rows, false, machine_probe())) {
            Ok(()) => println!("\n# trajectory entry appended to {}", path.display()),
            Err(e) => eprintln!("# {NAME}: could not append trajectory entry: {e}"),
        }
    }
    runner.finalize()
}

fn row_from_json(j: &Json) -> Option<CellRow> {
    Some(CellRow {
        cell: j.get("cell")?.as_str()?.to_string(),
        workload: j.get("workload")?.as_str()?.to_string(),
        kernel: j.get("kernel")?.as_str()?.to_string(),
        median_s: j.get("median_s")?.as_f64()?,
        min_s: j.get("min_s").and_then(Json::as_f64).unwrap_or(0.0),
        max_s: j.get("max_s").and_then(Json::as_f64).unwrap_or(0.0),
        reps: j.get("reps").and_then(Json::as_u64).unwrap_or(REPS as u64),
        pinned: matches!(j.get("pinned"), Some(Json::Bool(true))),
    })
}

/// Reads the latest trajectory entry compatible with `opts` (same scale
/// and seed). `Ok(None)` when there is no comparable baseline.
fn latest_baseline(opts: &HarnessOpts) -> Result<Option<Json>, String> {
    let path = trajectory_path(opts);
    if !Path::new(&path).exists() {
        return Ok(None);
    }
    let entries = dump::read_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(entries
        .into_iter()
        .rev()
        .find(|e| {
            e.get("scale").and_then(Json::as_u64) == Some(opts.scale as u64)
                && e.get("seed").and_then(Json::as_u64) == Some(opts.seed)
        }))
}

/// Parses `BENCH_INJECT_SLOWDOWN=<cell>:<factor>` — a synthetic slowdown
/// multiplied into the fresh median of the matching cell(s), used by CI to
/// prove the gate actually fails on regressions.
fn injected_slowdown() -> Option<(String, f64)> {
    let spec = std::env::var("BENCH_INJECT_SLOWDOWN").ok()?;
    let (cell, factor) = spec.rsplit_once(':')?;
    let factor: f64 = factor.parse().ok()?;
    Some((cell.to_string(), factor))
}

/// True when `fresh` counts as a regression against `base`.
fn regressed(fresh: f64, base: f64) -> bool {
    fresh > base * REL_TOL && (fresh - base) > ABS_SLACK_S
}

/// Measures one cell's gated median, applying any injected slowdown.
fn gated_median(cell: &CellSpec, inject: &Option<(String, f64)>) -> (f64, f64, f64) {
    let (mut median_s, mut min_s, mut max_s) = measure(&*cell.body);
    if let Some((pattern, factor)) = inject {
        if cell.name().contains(pattern.as_str()) {
            median_s *= factor;
            min_s *= factor;
            max_s *= factor;
        }
    }
    (median_s, min_s, max_s)
}

/// The perf-trajectory regression gate (`kernels_bench --check`).
///
/// Freshly measures the pinned cells, compares each against the latest
/// comparable trajectory entry, and returns a non-zero exit code if any
/// pinned cell's median regressed by more than [`REL_TOL`] (and
/// [`ABS_SLACK_S`]). Scheduler noise on shared machines is bursty, so a
/// suspect cell is re-measured up to [`CONFIRM_ATTEMPTS`] times and fails
/// only if every attempt regresses — a real slowdown persists, a noise
/// spike does not. Without a comparable baseline the gate passes with a
/// note — a fresh checkout must not fail CI. `BENCH_PIN=1` appends the
/// fresh measurement as a new trajectory entry instead of judging it
/// (the re-pin path after an intentional perf change).
pub fn check(opts: &HarnessOpts) -> i32 {
    /// Total measurement attempts per suspect cell (first + re-measures).
    const CONFIRM_ATTEMPTS: usize = 3;

    let inject = injected_slowdown();
    let pin = std::env::var("BENCH_PIN").is_ok_and(|v| v == "1");
    let cells: Vec<CellSpec> = build_cells(opts)
        .into_iter()
        .filter(|c| PINNED_CELLS.contains(&c.name().as_str()))
        .collect();

    if pin {
        let rows: Vec<CellRow> = cells
            .iter()
            .map(|cell| {
                let (median_s, min_s, max_s) = gated_median(cell, &inject);
                CellRow {
                    cell: cell.name(),
                    workload: cell.workload.to_string(),
                    kernel: cell.kernel.to_string(),
                    median_s,
                    min_s,
                    max_s,
                    reps: REPS as u64,
                    pinned: true,
                }
            })
            .collect();
        let path = trajectory_path(opts);
        return match dump::append_jsonl(&path, &trajectory_entry(opts, &rows, true, machine_probe()))
        {
            Ok(()) => {
                println!("# BENCH_PIN=1: fresh baseline appended to {}", path.display());
                0
            }
            Err(e) => {
                eprintln!("# BENCH_PIN=1: could not append baseline: {e}");
                1
            }
        };
    }

    let baseline = match latest_baseline(opts) {
        Ok(Some(b)) => b,
        Ok(None) => {
            println!(
                "# perf gate: no trajectory entry for scale {} seed {} — nothing to \
                 compare (run the kernels harness once to pin a baseline)",
                opts.scale, opts.seed
            );
            return 0;
        }
        Err(e) => {
            eprintln!("# perf gate: unreadable trajectory ({e})");
            return 1;
        }
    };
    let empty = Vec::new();
    let base_cells = baseline.get("cells").and_then(Json::as_array).unwrap_or(&empty);
    let base_median = |cell: &str| -> Option<f64> {
        base_cells
            .iter()
            .find(|c| c.get("cell").and_then(Json::as_str) == Some(cell))
            .and_then(|c| c.get("median_s").and_then(Json::as_f64))
    };

    // Calibration: scale fresh medians by how fast this machine runs the
    // probe now vs when the baseline was pinned. Clamped so a wild probe
    // reading cannot hide (or invent) a large regression on its own.
    let base_probe = baseline.get("machine_probe_s").and_then(Json::as_f64);
    let speed_ratio = |probe_now: f64| -> f64 {
        match base_probe {
            Some(then) if then > 0.0 && probe_now > 0.0 => (then / probe_now).clamp(0.25, 4.0),
            _ => 1.0,
        }
    };

    let dirty = matches!(baseline.get("git_dirty"), Some(Json::Bool(true)));
    println!(
        "# perf gate vs baseline rev {}{} (>{:.0}% calibrated median regression fails)",
        baseline.get("git_rev").and_then(Json::as_str).unwrap_or("unknown"),
        if dirty { " plus uncommitted changes" } else { "" },
        (REL_TOL - 1.0) * 100.0
    );
    println!(
        "{:<32} {:>10} {:>10} {:>8} {:>9}  status",
        "pinned cell", "baseline", "fresh", "ratio", "attempts"
    );
    let mut regressions = 0;
    for cell in &cells {
        let name = cell.name();
        let (raw, ..) = gated_median(cell, &inject);
        let mut fresh = raw * speed_ratio(machine_probe());
        let Some(base) = base_median(&name) else {
            println!(
                "{:<32} {:>10} {:>10} {:>8} {:>9}  no-baseline",
                name, "-", fmt_secs(fresh), "-", 1
            );
            continue;
        };
        // Best-of-attempts: keep re-measuring while the cell looks slow.
        let mut attempts = 1;
        while regressed(fresh, base) && attempts < CONFIRM_ATTEMPTS {
            let (again, ..) = gated_median(cell, &inject);
            fresh = fresh.min(again * speed_ratio(machine_probe()));
            attempts += 1;
        }
        let is_regressed = regressed(fresh, base);
        if is_regressed {
            regressions += 1;
        }
        println!(
            "{:<32} {:>10} {:>10} {:>7.2}x {:>9}  {}",
            name,
            fmt_secs(base),
            fmt_secs(fresh),
            fresh / base,
            attempts,
            if is_regressed { "REGRESSED" } else { "ok" }
        );
    }
    if regressions > 0 {
        eprintln!(
            "# perf gate: {regressions} pinned cell(s) regressed >{:.0}% — if intentional, \
             re-pin with BENCH_PIN=1 (or re-run the kernels harness) and commit the new \
             trajectory entry",
            (REL_TOL - 1.0) * 100.0
        );
        return 1;
    }
    println!("# perf gate: all pinned cells within tolerance");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(out: &Path) -> HarnessOpts {
        HarnessOpts {
            scale: 64,
            seed: 42,
            out_dir: out.to_path_buf(),
            full: false,
            resume: false,
            max_case_secs: 0.0,
        }
    }

    #[test]
    fn pinned_cells_exist_in_the_cell_grid() {
        let out = std::env::temp_dir();
        let opts = tiny_opts(&out);
        let names: Vec<String> = build_cells(&opts).iter().map(CellSpec::name).collect();
        for pinned in PINNED_CELLS {
            assert!(names.iter().any(|n| n == pinned), "pinned cell {pinned} not produced");
        }
    }

    #[test]
    fn check_passes_without_a_baseline_and_fails_after_injection() {
        let dir = std::env::temp_dir().join(format!("kernels_gate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = tiny_opts(&dir);
        // No trajectory file: the gate must pass with a note.
        assert_eq!(check(&opts), 0);
        // Seed a baseline from a fresh measurement, then verify a clean
        // check passes against it. (Direct measurement, not `run`, keeps
        // this test independent of the runner's thread isolation.)
        let rows: Vec<CellRow> = build_cells(&opts)
            .into_iter()
            .filter(|c| PINNED_CELLS.contains(&c.name().as_str()))
            .map(|c| {
                let (median_s, min_s, max_s) = measure(&*c.body);
                CellRow {
                    cell: c.name(),
                    workload: c.workload.to_string(),
                    kernel: c.kernel.to_string(),
                    // Generous baseline so scheduler jitter cannot flake CI.
                    median_s: median_s * 100.0,
                    min_s,
                    max_s,
                    reps: REPS as u64,
                    pinned: true,
                }
            })
            .collect();
        dump::append_jsonl(
            &trajectory_path(&opts),
            &trajectory_entry(&opts, &rows, false, machine_probe()),
        )
        .unwrap();
        assert_eq!(check(&opts), 0, "clean tree must pass the gate");
        // A synthetic slowdown far beyond the inflated baseline must fail.
        std::env::set_var("BENCH_INJECT_SLOWDOWN", "multiply_arena:100000");
        let code = check(&opts);
        std::env::remove_var("BENCH_INJECT_SLOWDOWN");
        assert_eq!(code, 1, "injected slowdown must trip the gate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_filtering_ignores_mismatched_scale() {
        let dir = std::env::temp_dir().join(format!("kernels_base_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = tiny_opts(&dir);
        let mut other = opts.clone();
        other.scale = opts.scale + 1;
        let rows = vec![CellRow {
            cell: "uniform/multiply_arena".into(),
            workload: "uniform".into(),
            kernel: "multiply_arena".into(),
            median_s: 1.0,
            min_s: 1.0,
            max_s: 1.0,
            reps: REPS as u64,
            pinned: true,
        }];
        dump::append_jsonl(&trajectory_path(&opts), &trajectory_entry(&other, &rows, false, 1.0))
            .unwrap();
        assert!(latest_baseline(&opts).unwrap().is_none());
        assert!(latest_baseline(&other).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn speedup_table_pairs_fast_paths_with_predecessors() {
        let mk = |cell: &str, median: f64| CellRow {
            cell: cell.into(),
            workload: cell.split('/').next().unwrap().into(),
            kernel: cell.split('/').nth(1).unwrap().into(),
            median_s: median,
            min_s: median,
            max_s: median,
            reps: 1,
            pinned: false,
        };
        let rows = vec![
            mk("uniform/multiply_arena", 1.0),
            mk("uniform/merge_streaming", 3.0),
            mk("uniform/merge_blocked", 1.5),
            mk("rmat/merge_streaming", 2.0),
        ];
        let s = speedups(&rows);
        // Only complete pairs count: rmat lacks its blocked cell.
        assert_eq!(s, [("merge_blocked_vs_streaming/uniform".to_string(), 2.0)]);
    }
}
