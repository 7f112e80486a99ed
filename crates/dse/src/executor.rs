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
//!    evaluation tier tag, and only the config fields its machine reads)
//!    — a hit costs one hash, and a point sharing the address of an
//!    earlier point in its round takes that point's outcome undispatched;
//! 3. on a miss, takes its workload from the sweep's memo (generated and
//!    prepared once per workload) and evaluates it through the sweep's
//!    [`EvalTier`]: the full phase pipeline or a sampled-window interval
//!    estimate on the prepared workload (see [`crate::tiers`]), priced by
//!    the Table 6 area/power model.
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
use std::sync::{Arc, Mutex, OnceLock};

use outerspace_json::{Json, ToJson};
use outerspace_sim::interval::Prepared;
use outerspace_sparse::Csr;

use crate::cache::{key_material, SimCache};
use crate::knobs;
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
///
/// Each round resolves duplicates before dispatch: a point whose key
/// material an earlier point of the round shares (see
/// [`DsePoint::key_material`]) takes that point's outcome — a cache hit
/// when it is `Ok` — exactly as if the two had run one after the other, so
/// the split between simulated points and cache hits does not depend on
/// the thread count.
pub fn run_sweep_opts(
    points: &[DsePoint],
    cache: &mut SimCache,
    threads: usize,
    opts: &SweepOptions,
) -> SweepResult {
    let threads = threads.max(1).min(points.len().max(1));
    let shared_cache = Mutex::new(&mut *cache);
    let memo = WorkloadMemo::default();
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
        let keys: Vec<Result<String, String>> =
            chunk.iter().map(|p| point_key(p, opts.tier)).collect();
        let mut first_with: HashMap<&str, usize> = HashMap::new();
        let leader: Vec<Option<usize>> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let first = *first_with.entry(key.as_deref().ok()?).or_insert(i);
                (first != i).then_some(first)
            })
            .collect();
        let todo: Vec<usize> = (0..chunk.len()).filter(|&i| leader[i].is_none()).collect();
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<Option<PointOutcome>>> = Mutex::new(vec![None; chunk.len()]);
        let frontier = opts.abort.then_some(&tracker);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(todo.len()) {
                scope.spawn(|| {
                    while let Some(&i) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let outcome =
                            evaluate(&chunk[i], &keys[i], &shared_cache, &memo, opts, frontier);
                        done.lock().unwrap()[i] = Some(outcome);
                    }
                });
            }
        });
        let mut done = done.into_inner().unwrap();
        for (i, first) in leader.iter().enumerate() {
            if let Some(first) = *first {
                let outcome = done[first].as_ref().expect("a leader runs in its round");
                done[i] = Some(follow(outcome, chunk[i].index));
            }
        }
        let mut chunk_outcomes: Vec<PointOutcome> =
            done.into_iter().map(|o| o.expect("every point has an outcome")).collect();
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

/// One workload of a sweep: the generated matrix and its interval-tier
/// preparation, which also carries the outer-product sizes the abort
/// floor and the α analysis read.
struct Workload {
    a: Csr,
    prep: Prepared,
}

/// The sweep's workloads by manifest (generator + shape + seed). A sweep
/// visits each workload once per config combo, so the first point to need
/// one generates and prepares it while the others wait, and every later
/// point reuses it. Metrics stay pure functions of the manifest either way.
type WorkloadMemo = Mutex<HashMap<String, Arc<OnceLock<Result<Workload, String>>>>>;

/// A point's cache key material, or why its config is invalid.
fn point_key(point: &DsePoint, tier: EvalTier) -> Result<String, String> {
    point.config.validate().map_err(|e| e.to_string())?;
    Ok(point.key_material(tier))
}

/// The outcome of a point whose key an earlier point of its round shares:
/// the earlier point's, served from the cache when it is `Ok`.
fn follow(first: &PointOutcome, index: usize) -> PointOutcome {
    let mut outcome = first.clone();
    match &mut outcome {
        PointOutcome::Ok { index: i, cached, .. } => {
            *i = index;
            *cached = true;
        }
        PointOutcome::Invalid { index: i, .. }
        | PointOutcome::Aborted { index: i, .. }
        | PointOutcome::Failed { index: i, .. } => *i = index,
    }
    outcome
}

fn evaluate(
    point: &DsePoint,
    key: &Result<String, String>,
    cache: &Mutex<&mut SimCache>,
    memo: &WorkloadMemo,
    opts: &SweepOptions,
    frontier: Option<&FrontierTracker>,
) -> PointOutcome {
    let index = point.index;
    let material = match key {
        Ok(material) => material,
        Err(reason) => return PointOutcome::Invalid { index, reason: reason.clone() },
    };
    if let Some(metrics) = cache.lock().unwrap().lookup(material) {
        return PointOutcome::Ok { index, metrics: metrics.clone(), cached: true };
    }
    // The workload seed folds in the generator identity via the manifest, so
    // two workloads in one spec get decorrelated streams from one sweep seed.
    let seed = point.workload_seed();
    let manifest = point.workload.manifest(seed).to_string_compact();
    let slot = Arc::clone(memo.lock().unwrap().entry(manifest).or_default());
    let workload = slot.get_or_init(|| {
        let a = point.workload.generate(seed)?;
        let prep = Prepared::new(&a, &a, &opts.interval).map_err(|e| e.to_string())?;
        Ok(Workload { a, prep })
    });
    let Workload { a, prep } = match workload {
        Ok(w) => w,
        Err(e) => return PointOutcome::Failed { index, error: e.clone() },
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
        let floor = tiers::apriori_cycle_floor(&point.config, prep);
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
        EvalTier::Full => {
            tiers::simulate_full_tier(point, a, prep.work()).map_err(TierFailure::Error)
        }
        EvalTier::Interval => tiers::simulate_interval_tier(point, a, prep, threshold),
    }));
    match sim {
        Ok(Ok(metrics)) => {
            if let Err(e) = cache.lock().unwrap().insert(material, metrics.clone()) {
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

    /// The point's memo-cache key material under `tier`: the config fields
    /// its machine reads ([`knobs::read_canonical`]), the workload
    /// manifest, α and the tier tag. Points that differ only in fields
    /// their machine never reads share it. Pareto grouping keys on
    /// [`DsePoint::config_canonical`] instead, which keeps every field.
    pub fn key_material(&self, tier: EvalTier) -> String {
        let manifest = self.workload.manifest(self.workload_seed()).to_string_compact();
        key_material(&knobs::read_canonical(&self.config), &manifest, self.alpha, tier.tag())
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
    fn shared_keys_resolve_the_same_at_any_thread_count() {
        // OuterSPACE never reads merge_tree_ways, so its two points per
        // workload share one key and the later one is a cache hit; the
        // SpArch points are all distinct.
        let spec = SpaceSpec::parse_str(
            r#"{"name":"t","axes":[
                {"knob":"machine_model","values":[0,1]},
                {"knob":"merge_tree_ways","values":[16,64]}],
              "workloads":[{"kind":"uniform","n":48,"nnz":200},
                           {"kind":"rmat","n":64,"nnz":300}]}"#,
        )
        .unwrap();
        let points = spec.expand(None, 9).unwrap();
        assert_eq!(points.len(), 8);
        for tier in [EvalTier::Full, EvalTier::Interval] {
            let opts = SweepOptions { tier, ..SweepOptions::default() };
            let mut reference: Option<Vec<(usize, bool, String)>> = None;
            for threads in [1usize, 4] {
                let dir = scratch(&format!("shared-{}-{threads}", tier.tag()));
                let mut cache = SimCache::open(&dir).unwrap();
                let r = run_sweep_opts(&points, &mut cache, threads, &opts);
                assert_eq!((r.simulated, r.cache_hits), (6, 2), "{tier:?}, {threads} threads");
                assert_eq!(cache.len(), 6, "one entry per distinct key");
                let summary = r
                    .outcomes
                    .iter()
                    .map(|o| match o {
                        PointOutcome::Ok { index, metrics, cached } => {
                            (*index, *cached, metrics.to_string_compact())
                        }
                        other => panic!("non-ok outcome {other:?}"),
                    })
                    .collect();
                match &reference {
                    None => reference = Some(summary),
                    Some(first) => assert_eq!(first, &summary, "{tier:?}, {threads} threads"),
                }
                let _ = fs::remove_dir_all(&dir);
            }
        }
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
