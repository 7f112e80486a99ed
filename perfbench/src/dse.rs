//! `dse_interval`: one sweep thread through `run_sweep_opts` on the
//! interval tier with no abort. A result is one design point; every sweep
//! runs the same seeded sample against a fresh `SimCache`, so every point is
//! evaluated (a sampled repeat is a cache hit and is counted).

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use outerspace_dse::cache::key_material;
use outerspace_dse::{
    analyze, run_sweep_opts, validate_interval, Axis, AxisKind, DsePoint, EvalTier, PointOutcome,
    SimCache, SpaceSpec, SweepOptions, SweepResult,
};
use outerspace_energy::AreaPowerModel;
use outerspace_json::Json;
use outerspace_sim::interval::{estimate_spgemm, NoAbortProbe};
use outerspace_sparse::Csr;

use crate::alloc::HEAP;
use crate::report::{median, ms, process_cpu, timed_setups, Checks, ClosedLoop, Report};
use crate::trace::Tracer;
use crate::Args;

/// Sampled configurations per machine; each is crossed with the three
/// workloads, so a sweep holds `2 * SAMPLES_PER_MACHINE * 3` points.
pub const SAMPLES_PER_MACHINE: usize = 12;
/// Fewest timed sweeps, so the tail percentile has ten sweeps beyond it.
const MIN_SWEEPS: usize = 12;
/// Every `VALIDATE_EVERY`-th point (by index hash) gets a full-tier run
/// for `dse.cycle_err_median`.
const VALIDATE_EVERY: usize = 3;
/// Latency limit of one sweep for `slo_frac`.
pub const SWEEP_LIMIT_MS: f64 = 2000.0;

/// The space: the machines and workloads of the bundled `sparch_vs_ospace`
/// space, with its two knob axes widened so sampled points rarely repeat.
fn space(machine: f64) -> SpaceSpec {
    let mut s = SpaceSpec::bundled("sparch_vs_ospace").expect("sparch_vs_ospace is bundled");
    s.name = "perfbench_dse_interval".into();
    s.axes = vec![
        Axis {
            knob: "machine_model".into(),
            kind: AxisKind::Values(vec![machine]),
        },
        Axis {
            knob: "merge_tree_ways".into(),
            kind: AxisKind::Range {
                min: 2.0,
                max: 128.0,
            },
        },
        Axis {
            knob: "hbm_channels".into(),
            kind: AxisKind::Log2 { from: 2, to: 5 },
        },
    ];
    s
}

/// The seeded sample, stratified by machine (half the configurations each)
/// so the sweep's cost does not depend on how a seed splits the machines.
pub fn points(seed: u64) -> Vec<DsePoint> {
    let mut pts = Vec::new();
    for (i, machine) in [0.0, 1.0].into_iter().enumerate() {
        let sample = space(machine)
            .expand(Some(SAMPLES_PER_MACHINE), seed ^ i as u64)
            .expect("the space expands");
        pts.extend(sample);
    }
    for (i, p) in pts.iter_mut().enumerate() {
        p.index = i;
    }
    pts
}

fn options() -> SweepOptions {
    SweepOptions {
        tier: EvalTier::Interval,
        abort: false,
        ..SweepOptions::default()
    }
}

/// One cold sweep in its own cache directory.
fn sweep(points: &[DsePoint], dir: &Path) -> SweepResult {
    let mut cache = SimCache::open(dir).expect("open a fresh sweep cache");
    run_sweep_opts(points, &mut cache, 1, &options())
}

/// Empties the sweep cache directory. Every sweep reuses one path: the
/// program keys per-file state on the path, which must not vary.
fn fresh_dir(dir: &Path) -> &Path {
    let _ = std::fs::remove_dir_all(dir);
    dir
}

fn check_sweep(
    r: &SweepResult,
    points: usize,
    pareto: &str,
    first: &mut Option<String>,
    checks: &mut Checks,
) {
    let evaluated = r.cache_hits + r.simulated;
    checks.check(
        evaluated + r.aborted + r.invalid + r.failed == points,
        || {
            format!(
                "accounting: {evaluated} + {} + {} + {} != {points}",
                r.aborted, r.invalid, r.failed
            )
        },
    );
    for o in &r.outcomes {
        checks.check(matches!(o, PointOutcome::Ok { .. }), || {
            format!("point outcome {o:?}")
        });
    }
    match first {
        None => *first = Some(pareto.to_string()),
        Some(f) => checks.check(f == pareto, || {
            "Pareto report differs from the first sweep".into()
        }),
    }
}

pub fn run(args: &Args) -> (Report, Checks) {
    let mut checks = Checks::default();
    let dir = args.work_dir.join("sweep");
    let (pts, setup_secs) = timed_setups(|| {
        let pts = points(args.seed);
        black_box(sweep(&pts, fresh_dir(&dir)));
        pts
    });

    // Sized up front: no bookkeeping allocation near the peak window.
    let mut sweep_ms = Vec::with_capacity(4096);
    let mut cpu_ms = 0.0;
    let mut traced_ms = Vec::with_capacity(4096);
    let mut tracer = Tracer::new(Instant::now());
    let mut first_pareto = None;
    let mut first: Option<SweepResult> = None;
    let mut peak = 0usize;
    let t0 = Instant::now();
    while t0.elapsed() < args.seconds || sweep_ms.len() < MIN_SWEEPS {
        fresh_dir(&dir);
        HEAP.reset_peak();
        let cpu = process_cpu();
        let t = Instant::now();
        let r = sweep(&pts, &dir);
        sweep_ms.push(ms(t.elapsed()));
        cpu_ms += ms(process_cpu() - cpu);
        peak = peak.max(HEAP.peak());
        let pareto = analyze(&pts, &r.outcomes).to_json().to_string_compact();
        check_sweep(&r, pts.len(), &pareto, &mut first_pareto, &mut checks);
        if args.trace {
            let t = Instant::now();
            traced_sweep(
                &pts,
                &r,
                fresh_dir(&dir),
                &mut tracer,
                sweep_ms.len() as u64,
                &mut checks,
            );
            traced_ms.push(ms(t.elapsed()));
        }
        first.get_or_insert(r);
    }
    let first = first.expect("at least one sweep");
    let sweeps = sweep_ms.len();
    let results = sweeps * pts.len();

    let mut report = Report::new("dse_interval", results as u64);
    report.line(format!(
        "closed loop, 1 sweep thread, interval tier, no abort; {} points per sweep = 2 machines x \
         {SAMPLES_PER_MACHINE} sampled configs x 3 workloads (rmat, uniform, powerlaw n=1024 nnz=16000), seed {}",
        pts.len(),
        args.seed
    ));
    report.line(format!(
        "sweeps {sweeps}, points {results}, cache hits per sweep {}, sweep limit {SWEEP_LIMIT_MS} ms",
        first.cache_hits
    ));
    if args.trace {
        layer_metrics(
            &mut report,
            &tracer,
            &first,
            &sweep_ms,
            &traced_ms,
            pts.len(),
        );
        // Accuracy, outside the timed phase: full-tier runs of a fixed subset.
        let mut vcache = SimCache::open(fresh_dir(&dir)).expect("open the validation cache");
        match validate_interval(&pts, &first.outcomes, &mut vcache, VALIDATE_EVERY) {
            Ok(v) => {
                report.line(format!(
                    "validation: {} points, {} full-tier runs, within bars {:.3}",
                    v.validated, v.full_timed, v.within_bars_frac
                ));
                report.metric(
                    "dse.cycle_err_median",
                    v.median_abs_err,
                    v.validated,
                    "validate_interval holdout median |err|",
                );
            }
            Err(e) => checks.check(false, || format!("validate_interval: {e}")),
        }
        match tracer.write_jsonl(&args.spans) {
            Ok(()) => report.line(format!("spans: {}", args.spans.display())),
            Err(e) => checks.check(false, || format!("writing spans: {e}")),
        }
    } else {
        report.closed_loop(&ClosedLoop {
            unit: "sweep",
            unit_ms: &sweep_ms,
            per_unit: pts.len(),
            setup_secs: &setup_secs,
            cpu_ms,
            peak_bytes: peak,
            limit_ms: SWEEP_LIMIT_MS,
        });
    }
    (report, checks)
}

/// One sweep through the layers `run_sweep_opts` calls per point, each in
/// its own span (the mirror of `dse::executor::evaluate` on the interval
/// tier). The cache insert writes the untraced sweep's metrics, which the
/// traced estimate must reproduce.
fn traced_sweep(
    pts: &[DsePoint],
    untraced: &SweepResult,
    dir: &Path,
    tr: &mut Tracer,
    sweep: u64,
    checks: &mut Checks,
) {
    let opts = options();
    let root = tr.enter("dse.sweep", sweep);
    let mut cache = tr.span("dse.cache", sweep, || {
        SimCache::open(dir).expect("open a fresh sweep cache")
    });
    let mut memo: HashMap<String, Arc<Csr>> = HashMap::new();
    let model = AreaPowerModel::tsmc32nm();
    for (p, o) in pts.iter().zip(&untraced.outcomes) {
        let id = sweep * 10_000 + p.index as u64;
        let point = tr.enter("dse.point", id);
        checks.check(p.config.validate().is_ok(), || {
            format!("point {} config invalid", p.index)
        });
        let seed = p.workload_seed();
        let manifest = p.workload.manifest(seed).to_string_compact();
        let material = key_material(&p.config_canonical(), &manifest, p.alpha, opts.tier.tag());
        let hit = tr.span("dse.cache", id, || cache.lookup(&material).is_some());
        let PointOutcome::Ok { metrics, .. } = o else {
            tr.exit(point);
            continue;
        };
        if !hit {
            let a = match memo.get(&manifest) {
                Some(a) => Arc::clone(a),
                None => {
                    let a = tr.span("dse.generate", id, || {
                        Arc::new(p.workload.generate(seed).expect("generate"))
                    });
                    memo.insert(manifest, Arc::clone(&a));
                    a
                }
            };
            let est = tr.span("sim.interval", id, || {
                estimate_spgemm(&p.config, &a, &a, &opts.interval, &mut NoAbortProbe)
                    .expect("fault-free")
            });
            tr.span("energy.price", id, || {
                black_box(model.table6(&p.config, Some(&est.report)));
                black_box(model.energy_report(&p.config, &est.report));
            });
            let want = metrics.get("cycles").and_then(Json::as_u64);
            checks.check(want == Some(est.report.total_cycles()), || {
                format!(
                    "point {}: traced cycles {} != sweep {want:?}",
                    p.index,
                    est.report.total_cycles()
                )
            });
            tr.span("dse.cache", id, || {
                cache
                    .insert(&material, metrics.clone())
                    .expect("cache append")
            });
        }
        tr.exit(point);
    }
    tr.exit(root);
}

const LAYERS: &[(&str, &str)] = &[
    ("dse.generate", "dse.generate_ms"),
    ("sim.interval", "sim.interval_ms"),
    ("energy.price", "energy.price_ms"),
    ("dse.cache", "dse.cache_ms"),
];

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    first: &SweepResult,
    sweep_ms: &[f64],
    traced_ms: &[f64],
    points: usize,
) {
    // Per-sweep self time of each layer, then per point.
    let mut per_sweep: HashMap<(&str, u64), f64> = HashMap::new();
    for ((id, name), t) in tracer.self_ms_by_result() {
        let sweep = if id >= 10_000 { id / 10_000 } else { id };
        *per_sweep.entry((name, sweep)).or_insert(0.0) += t;
    }
    let sweeps = traced_ms.len();
    let untraced = median(sweep_ms) / points as f64;
    let mut attributed = 0.0;
    for (span, metric) in LAYERS {
        let xs: Vec<f64> = (1..=sweeps as u64)
            .map(|s| per_sweep.get(&(*span, s)).copied().unwrap_or(0.0))
            .collect();
        let v = median(&xs) / points as f64;
        attributed += v;
        report.metric(*metric, v, sweeps, "per point, median of traced sweeps");
    }
    report.metric(
        "dse.unattributed_ms",
        untraced - attributed,
        sweeps,
        format!("untraced {untraced:.4} ms/point minus the layers"),
    );
    let (mut sampled, mut total) = (0u64, 0u64);
    for o in &first.outcomes {
        if let PointOutcome::Ok { metrics, .. } = o {
            let iv = metrics.get("interval");
            sampled += iv
                .and_then(|b| b.get("work_sampled"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            total += iv
                .and_then(|b| b.get("work_total"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
    }
    report.metric(
        "dse.work_sampled_frac",
        sampled as f64 / total.max(1) as f64,
        points,
        "sampled / total work, exact",
    );
    report.metric(
        "dse.cache_hits",
        first.cache_hits as f64,
        1,
        "sampled repeats per sweep, exact",
    );
    let untraced_rps = points as f64 * 1e3 / median(sweep_ms);
    let traced_rps = points as f64 * 1e3 / median(traced_ms);
    report.metric(
        "trace.overhead_results_per_s",
        traced_rps - untraced_rps,
        sweeps,
        "traced minus untraced results_per_s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sets_the_sample() {
        let knobs = |seed| {
            points(seed)
                .iter()
                .map(|p| p.config_canonical())
                .collect::<Vec<_>>()
        };
        assert_eq!(knobs(1), knobs(1));
        assert_ne!(knobs(1), knobs(2));
        let pts = points(1);
        assert_eq!(pts.len(), 2 * SAMPLES_PER_MACHINE * 3);
        assert!(pts.iter().enumerate().all(|(i, p)| p.index == i));
    }
}
