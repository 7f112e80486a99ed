//! The parallel sweep executor: fans expanded [`DsePoint`]s over a
//! work-stealing pool of worker threads, memoizing every evaluated point in
//! the [`SimCache`].
//!
//! Workers pull point indices from one shared atomic counter (work stealing
//! without queues: whichever thread frees up takes the next index), so an
//! expensive point never serializes the sweep behind it. Each point:
//!
//! 1. `validate()`s its config — invalid corners of the space are *counted
//!    and reported* ([`PointOutcome::Invalid`]), never silently dropped;
//! 2. probes the cache under its content address (which includes the
//!    evaluation tier tag) — a hit costs one hash;
//! 3. on a miss, synthesizes the workload and evaluates it through the
//!    sweep's [`EvalTier`]: the full phase pipeline or a sampled-window
//!    interval estimate (see [`crate::tiers`]), priced by the Table 6
//!    area/power model.
//!
//! With [`SweepOptions::abort`] set, points run in fixed-size rounds; a
//! [`FrontierTracker`] frozen during each round supplies dominance abort
//! thresholds, and points killed by it surface as
//! [`PointOutcome::Aborted`] — an explicit, counted outcome. The round
//! barrier keeps the abort decisions (and therefore the whole sweep)
//! deterministic for a given point order, independent of thread count.
//!
//! Outcomes are returned sorted by point index, and every metric is a pure
//! function of (config, workload, seed, tier) — so a re-run with the same
//! seed produces byte-identical reports whether the numbers came from the
//! simulator or from the cache.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use outerspace_json::{Json, ToJson};
use outerspace_sparse::Csr;

use crate::cache::{key_material, SimCache};
use crate::spec::DsePoint;
use crate::tiers::{self, EvalTier, FrontierTracker, SweepOptions, TierFailure};

/// Points per abort round: long enough to keep every worker busy between
/// frontier refreshes, short enough that a freshly completed fast point
/// starts killing dominated stragglers within the same sweep.
const ABORT_ROUND: usize = 32;

/// What happened to one design point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// Simulated (or recalled) successfully.
    Ok {
        /// Point index in expansion order.
        index: usize,
        /// The deterministic metrics object (see [`module docs`](self)).
        metrics: Json,
        /// True when served from the memo cache without simulating.
        cached: bool,
    },
    /// The config failed `validate()`; the point was skipped.
    Invalid {
        /// Point index in expansion order.
        index: usize,
        /// The validation error.
        reason: String,
    },
    /// The dominance early-abort killed the point: its lower bound was
    /// already Pareto-dominated by a completed point of the same workload.
    Aborted {
        /// Point index in expansion order.
        index: usize,
        /// Why (which bound, against which frontier value).
        reason: String,
    },
    /// The simulator returned an error or panicked.
    Failed {
        /// Point index in expansion order.
        index: usize,
        /// What went wrong.
        error: String,
    },
}

impl PointOutcome {
    /// The point index this outcome belongs to.
    pub fn index(&self) -> usize {
        match *self {
            PointOutcome::Ok { index, .. }
            | PointOutcome::Invalid { index, .. }
            | PointOutcome::Aborted { index, .. }
            | PointOutcome::Failed { index, .. } => index,
        }
    }
}

/// Aggregate result of one sweep. The counters partition the point list:
/// `cache_hits + simulated + invalid + aborted + failed` always equals the
/// number of points swept (the accounting identity `ci.sh` asserts).
#[derive(Debug)]
pub struct SweepResult {
    /// One outcome per point, sorted by point index.
    pub outcomes: Vec<PointOutcome>,
    /// Points served from the cache.
    pub cache_hits: usize,
    /// Points actually simulated this run.
    pub simulated: usize,
    /// Points skipped because their config failed validation.
    pub invalid: usize,
    /// Points killed by the dominance early-abort.
    pub aborted: usize,
    /// Points that errored or panicked.
    pub failed: usize,
}

impl SweepResult {
    /// `cache_hits / (cache_hits + simulated)`, or 1.0 for an empty sweep.
    pub fn hit_rate(&self) -> f64 {
        let evaluated = self.cache_hits + self.simulated;
        if evaluated == 0 {
            1.0
        } else {
            self.cache_hits as f64 / evaluated as f64
        }
    }
}

/// Runs every point at full fidelity, fanning across `threads` workers
/// (≥ 1; a value of 0 is treated as 1) — [`run_sweep_opts`] with default
/// [`SweepOptions`]. The cache is shared under a mutex — held only around
/// the lookup and the insert, never across a simulation.
pub fn run_sweep(points: &[DsePoint], cache: &mut SimCache, threads: usize) -> SweepResult {
    run_sweep_opts(points, cache, threads, &SweepOptions::default())
}

/// [`run_sweep`] with explicit tier routing and early-abort control.
pub fn run_sweep_opts(
    points: &[DsePoint],
    cache: &mut SimCache,
    threads: usize,
    opts: &SweepOptions,
) -> SweepResult {
    let threads = threads.max(1).min(points.len().max(1));
    let shared_cache = Mutex::new(&mut *cache);
    // Workload synthesis memo, keyed by manifest (generator + shape +
    // seed): a sweep re-visits each workload once per config combo, and
    // for the interval tier generation is a visible share of the per-point
    // cost. Metrics stay pure functions of the manifest either way.
    let gen_memo: Mutex<HashMap<String, Arc<Csr>>> = Mutex::new(HashMap::new());
    let mut outcomes: Vec<PointOutcome> = Vec::with_capacity(points.len());
    let mut tracker = FrontierTracker::default();
    let round = if opts.abort {
        if opts.round > 0 { opts.round } else { ABORT_ROUND }
    } else {
        points.len().max(1)
    };

    let mut start = 0usize;
    while start < points.len() {
        let chunk = &points[start..(start + round).min(points.len())];
        let next = AtomicUsize::new(0);
        let chunk_mx: Mutex<Vec<PointOutcome>> = Mutex::new(Vec::with_capacity(chunk.len()));
        let frontier = opts.abort.then_some(&tracker);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(chunk.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunk.len() {
                        break;
                    }
                    let outcome = evaluate(&chunk[i], &shared_cache, &gen_memo, opts, frontier);
                    chunk_mx.lock().unwrap().push(outcome);
                });
            }
        });
        let mut chunk_outcomes = chunk_mx.into_inner().unwrap();
        chunk_outcomes.sort_by_key(PointOutcome::index);
        if opts.abort {
            // The frontier only advances at round barriers, so every point
            // in a round sees the same (frozen) thresholds regardless of
            // which worker ran it — abort decisions stay deterministic.
            for o in &chunk_outcomes {
                if let PointOutcome::Ok { metrics, .. } = o {
                    if let Some(p) = chunk.iter().find(|p| p.index == o.index()) {
                        tracker.record_metrics(p, metrics);
                    }
                }
            }
        }
        outcomes.extend(chunk_outcomes);
        start += chunk.len();
    }

    outcomes.sort_by_key(PointOutcome::index);
    let cache_hits =
        outcomes.iter().filter(|o| matches!(o, PointOutcome::Ok { cached: true, .. })).count();
    let simulated =
        outcomes.iter().filter(|o| matches!(o, PointOutcome::Ok { cached: false, .. })).count();
    let invalid = outcomes.iter().filter(|o| matches!(o, PointOutcome::Invalid { .. })).count();
    let aborted = outcomes.iter().filter(|o| matches!(o, PointOutcome::Aborted { .. })).count();
    let failed = outcomes.iter().filter(|o| matches!(o, PointOutcome::Failed { .. })).count();
    SweepResult { outcomes, cache_hits, simulated, invalid, aborted, failed }
}

fn evaluate(
    point: &DsePoint,
    cache: &Mutex<&mut SimCache>,
    gen_memo: &Mutex<HashMap<String, Arc<Csr>>>,
    opts: &SweepOptions,
    frontier: Option<&FrontierTracker>,
) -> PointOutcome {
    let index = point.index;
    if let Err(e) = point.config.validate() {
        return PointOutcome::Invalid { index, reason: e.to_string() };
    }
    // The workload seed folds in the generator identity via the manifest, so
    // two workloads in one spec get decorrelated streams from one sweep seed.
    let seed = point.workload_seed();
    let manifest = point.workload.manifest(seed).to_string_compact();
    let material =
        key_material(&point.config_canonical(), &manifest, point.alpha, opts.tier.tag());
    if let Some(metrics) = cache.lock().unwrap().lookup(&material) {
        return PointOutcome::Ok { index, metrics: metrics.clone(), cached: true };
    }
    let memoized = gen_memo.lock().unwrap().get(&manifest).cloned();
    let a: Arc<Csr> = match memoized {
        Some(a) => a,
        None => match point.workload.generate(seed) {
            Ok(a) => {
                let a = Arc::new(a);
                gen_memo.lock().unwrap().insert(manifest.clone(), Arc::clone(&a));
                a
            }
            Err(e) => return PointOutcome::Failed { index, error: e },
        },
    };

    // Dominance pre-check on config-only + workload-shape lower bounds: a
    // point that cannot beat the frozen frontier is never simulated at all.
    let threshold = frontier.and_then(|t| {
        t.abort_threshold(
            &point.workload.label(),
            tiers::power_floor_w(&point.config),
            tiers::config_area_mm2(&point.config),
        )
    });
    if let Some(t) = threshold {
        let floor = tiers::apriori_cycle_floor(&point.config, &a);
        if floor > t {
            return PointOutcome::Aborted {
                index,
                reason: format!(
                    "dominated before simulation: cycle floor {floor} > frontier {t}"
                ),
            };
        }
    }

    let sim = panic::catch_unwind(AssertUnwindSafe(|| match opts.tier {
        EvalTier::Full => tiers::simulate_full_tier(point, &a).map_err(TierFailure::Error),
        EvalTier::Interval => {
            tiers::simulate_interval_tier(point, &a, &opts.interval, threshold)
        }
    }));
    match sim {
        Ok(Ok(metrics)) => {
            if let Err(e) = cache.lock().unwrap().insert(&material, metrics.clone()) {
                return PointOutcome::Failed { index, error: format!("cache append: {e}") };
            }
            PointOutcome::Ok { index, metrics, cached: false }
        }
        // Aborted points are never cached: on a later run without (or with a
        // different) frontier they must be free to evaluate for real.
        Ok(Err(TierFailure::Aborted { frontier })) => PointOutcome::Aborted {
            index,
            reason: format!("dominated mid-simulation at cycle frontier {frontier}"),
        },
        Ok(Err(TierFailure::Error(error))) => PointOutcome::Failed { index, error },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            PointOutcome::Failed { index, error: format!("panic: {msg}") }
        }
    }
}

impl DsePoint {
    /// The workload-synthesis seed for this point: the sweep-independent
    /// generator identity keeps distinct workloads on distinct streams.
    pub fn workload_seed(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.workload.label().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Serializes one outcome for reports (fixed field order; `metrics` omitted
/// for non-`Ok` outcomes).
pub fn outcome_json(point: &DsePoint, outcome: &PointOutcome) -> Json {
    let mut pairs = vec![
        ("index".to_string(), Json::UInt(point.index as u64)),
        ("workload".to_string(), Json::Str(point.workload.label())),
        ("knobs".to_string(), point.knobs_json()),
    ];
    if let Some(a) = point.alpha {
        pairs.push(("alpha".to_string(), Json::Float(a)));
    }
    match outcome {
        PointOutcome::Ok { metrics, cached, .. } => {
            pairs.push(("status".to_string(), Json::Str("ok".into())));
            pairs.push(("cached".to_string(), cached.to_json()));
            pairs.push(("metrics".to_string(), metrics.clone()));
        }
        PointOutcome::Invalid { reason, .. } => {
            pairs.push(("status".to_string(), Json::Str("invalid".into())));
            pairs.push(("reason".to_string(), Json::Str(reason.clone())));
        }
        PointOutcome::Aborted { reason, .. } => {
            pairs.push(("status".to_string(), Json::Str("aborted".into())));
            pairs.push(("reason".to_string(), Json::Str(reason.clone())));
        }
        PointOutcome::Failed { error, .. } => {
            pairs.push(("status".to_string(), Json::Str("failed".into())));
            pairs.push(("reason".to_string(), Json::Str(error.clone())));
        }
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpaceSpec;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("outerspace-dse-exec-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_spec() -> SpaceSpec {
        SpaceSpec::parse_str(
            r#"{"name":"t","axes":[{"knob":"n_tiles","values":[4,8]}],
              "workloads":[{"kind":"uniform","n":48,"nnz":200}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn sweep_simulates_then_recalls_identically() {
        let dir = scratch("recall");
        let points = tiny_spec().expand(None, 9).unwrap();
        let mut cache = SimCache::open(&dir).unwrap();
        let first = run_sweep(&points, &mut cache, 2);
        assert_eq!(first.simulated, 2);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.failed + first.invalid + first.aborted, 0);

        let mut cache2 = SimCache::open(&dir).unwrap();
        let second = run_sweep(&points, &mut cache2, 2);
        assert_eq!(second.simulated, 0, "rerun must be all cache hits");
        assert_eq!(second.cache_hits, 2);
        assert!((second.hit_rate() - 1.0).abs() < 1e-12);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            let (PointOutcome::Ok { metrics: ma, .. }, PointOutcome::Ok { metrics: mb, .. }) =
                (a, b)
            else {
                panic!("non-ok outcome");
            };
            assert_eq!(
                ma.to_string_compact(),
                mb.to_string_compact(),
                "cached metrics must be byte-identical"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_points_are_skipped_not_fatal() {
        let dir = scratch("invalid");
        // l0_ways = 3 is not a power of two: validate() rejects it.
        let spec = SpaceSpec::parse_str(
            r#"{"name":"t","axes":[{"knob":"l0_ways","values":[3,4]}],
              "workloads":[{"kind":"uniform","n":48,"nnz":200}]}"#,
        )
        .unwrap();
        let points = spec.expand(None, 9).unwrap();
        let mut cache = SimCache::open(&dir).unwrap();
        let r = run_sweep(&points, &mut cache, 2);
        assert_eq!(r.invalid, 1);
        assert_eq!(r.simulated, 1);
        assert!(matches!(r.outcomes[0], PointOutcome::Invalid { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn alpha_points_carry_allocation_analysis() {
        let dir = scratch("alpha");
        let spec = SpaceSpec::parse_str(
            r#"{"name":"t","axes":[],"alphas":[1.0,2.0],
              "workloads":[{"kind":"uniform","n":48,"nnz":200}]}"#,
        )
        .unwrap();
        let points = spec.expand(None, 9).unwrap();
        let mut cache = SimCache::open(&dir).unwrap();
        let r = run_sweep(&points, &mut cache, 1);
        assert_eq!(r.simulated, 2);
        for o in &r.outcomes {
            let PointOutcome::Ok { metrics, .. } = o else { panic!("non-ok") };
            let alloc = metrics.get("alloc").expect("alpha point has alloc block");
            assert!(alloc.get("alpha").and_then(Json::as_f64).unwrap() >= 1.0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_workloads_use_distinct_seeds() {
        let spec = SpaceSpec::parse_str(
            r#"{"name":"t","axes":[],
              "workloads":[{"kind":"uniform","n":48,"nnz":200},
                           {"kind":"uniform","n":64,"nnz":200}]}"#,
        )
        .unwrap();
        let pts = spec.expand(None, 1).unwrap();
        assert_ne!(pts[0].workload_seed(), pts[1].workload_seed());
    }

    #[test]
    fn tiers_cache_separately_and_report_their_blocks() {
        let dir = scratch("tiers");
        let points = tiny_spec().expand(None, 9).unwrap();
        let mut cache = SimCache::open(&dir).unwrap();
        let full = run_sweep_opts(&points, &mut cache, 2, &SweepOptions::default());
        assert_eq!(full.simulated, 2);

        // A different tier misses the full tier's entries and re-evaluates.
        let interval_opts =
            SweepOptions { tier: EvalTier::Interval, ..SweepOptions::default() };
        let interval = run_sweep_opts(&points, &mut cache, 2, &interval_opts);
        assert_eq!(interval.cache_hits, 0, "tiers must not alias in the cache");
        assert_eq!(interval.simulated, 2);
        for o in &interval.outcomes {
            let PointOutcome::Ok { metrics, .. } = o else { panic!("non-ok") };
            assert!(metrics.get("interval").is_some(), "interval block present");
            assert!(metrics.get("cycles").is_some());
        }

        // Re-running each tier is now all hits, tier by tier.
        let mut cache2 = SimCache::open(&dir).unwrap();
        for o in [&SweepOptions::default(), &interval_opts] {
            let again = run_sweep_opts(&points, &mut cache2, 2, o);
            assert_eq!(again.cache_hits, 2, "{:?} rerun must hit", o.tier);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_accounting_identity_holds_and_is_thread_independent() {
        // Point 0 is the paper default: fast and cheap. The monster point
        // (huge L0 leakage floor + 200x HBM latency) is strictly dominated
        // once point 0 completes — its zero-activity power floor already
        // exceeds point 0's measured power, its area is larger, and its
        // cycles blow past point 0's mid-estimate — so it must abort.
        let dir = scratch("abort");
        let spec = SpaceSpec::parse_str(
            r#"{"name":"t","axes":[
                {"knob":"hbm_latency_max_ns","values":[100.0,20000.0]},
                {"knob":"l0_multiply_bytes","values":[16384.0,16777216.0]}],
              "workloads":[{"kind":"uniform","n":96,"nnz":900}]}"#,
        )
        .unwrap();
        let points = spec.expand(None, 9).unwrap();
        let opts = SweepOptions {
            abort: true,
            round: 1,
            tier: EvalTier::Interval,
            interval: outerspace_sim::interval::IntervalOpts { windows: 16, stride: 1 },
        };
        let mut reference: Option<Vec<String>> = None;
        for threads in [1usize, 4] {
            let tdir = scratch(&format!("abort-{threads}"));
            let mut cache = SimCache::open(&tdir).unwrap();
            let r = run_sweep_opts(&points, &mut cache, threads, &opts);
            assert_eq!(
                r.cache_hits + r.simulated + r.invalid + r.aborted + r.failed,
                points.len(),
                "accounting identity"
            );
            let summary: Vec<String> = r
                .outcomes
                .iter()
                .map(|o| match o {
                    PointOutcome::Ok { index, metrics, .. } => format!(
                        "{index}:ok:{}",
                        metrics.get("cycles").and_then(Json::as_u64).unwrap()
                    ),
                    PointOutcome::Invalid { index, .. } => format!("{index}:invalid"),
                    PointOutcome::Aborted { index, .. } => format!("{index}:aborted"),
                    PointOutcome::Failed { index, error } => {
                        format!("{index}:failed:{error}")
                    }
                })
                .collect();
            assert!(r.aborted >= 1, "the dominated monster point must abort");
            match &reference {
                None => reference = Some(summary),
                Some(first) => {
                    assert_eq!(first, &summary, "abort outcomes depend on thread count")
                }
            }
            let _ = fs::remove_dir_all(&tdir);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_points_are_explicit_not_silent() {
        let p = tiny_spec().expand(None, 9).unwrap().remove(0);
        let o = PointOutcome::Aborted { index: p.index, reason: "dominated".into() };
        let j = outcome_json(&p, &o);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("aborted"));
        assert_eq!(j.get("reason").and_then(Json::as_str), Some("dominated"));
    }
}
