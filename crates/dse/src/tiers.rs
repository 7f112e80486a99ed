//! Tiered fast-path evaluation: route each design point through one of
//! two evaluation tiers that trade fidelity for points-per-CPU-hour.
//!
//! * [`EvalTier::Full`] — today's transaction-level simulation of every
//!   phase. Exact, byte-identical to the pre-tier executor, and the
//!   reference the interval tier is validated against.
//! * [`EvalTier::Interval`] — sampled-window simulation
//!   ([`outerspace_sim::interval`]): simulate every stride-th column window
//!   of the outer-product work through the real machine pipeline and
//!   extrapolate by exact work weights, carrying a per-point sampling error
//!   bar.
//!
//! Fast-path estimates and full-fidelity results can never alias: the tier
//! tag is part of the memo-cache key material
//! ([`key_material`](crate::cache::key_material)).
//!
//! **Dominance early-abort.** When [`SweepOptions::abort`] is set, the
//! executor keeps a [`FrontierTracker`] of completed points per workload.
//! A candidate whose *lower bounds* — config-only power floor (zero-activity
//! Table 6), exact area, and the `elementary products / total PEs` cycle
//! roofline — are already strictly Pareto-dominated by a completed point of
//! the same workload is killed (before simulation, or mid-estimate through
//! [`interval::AbortProbe`]) and reported as an explicit
//! [`PointOutcome::Aborted`](crate::executor::PointOutcome) outcome, never a
//! silent skip. Soundness: the tracker only compares points of the *same
//! workload*, dominance requires the bound to strictly exceed a completed
//! point's cycles at no-worse power/area bounds, and aborted points are
//! excluded from (not mistaken in) the Pareto analysis — see `DESIGN.md`
//! §16 for the full argument and the cross-workload caveat.
//!
//! **Calibration and validation.** [`validate_interval`] re-runs a
//! deterministic sample of interval-tier points at full fidelity, splits it
//! into a calibration half (fits multiplicative factors hierarchically:
//! per (machine kind, workload) group, falling back to the machine-wide
//! factor) and a holdout half (scores calibrated error against each point's
//! own error bar), and reports the error distribution plus measured
//! full-simulation cost — the inputs to the harness's points-per-CPU-hour
//! and accuracy gates.

use std::collections::HashMap;

use outerspace_energy::{ActivityFactors, AreaPowerModel};
use outerspace_json::Json;
use outerspace_sim::interval::{self, AbortProbe, IntervalOpts, Prepared};
use outerspace_sim::{alloc, model, OuterSpaceConfig, SimError, SimReport};
use outerspace_sparse::Csr;

use crate::cache::SimCache;
use crate::executor::PointOutcome;
use crate::spec::DsePoint;

/// Which evaluation tier a sweep runs its points through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalTier {
    /// Full transaction-level simulation (exact; the reference).
    #[default]
    Full,
    /// Sampled-window interval estimation with error bars.
    Interval,
}

impl EvalTier {
    /// The stable tag used in cache key material, CLI flags, and reports.
    pub fn tag(self) -> &'static str {
        match self {
            EvalTier::Full => "full",
            EvalTier::Interval => "interval",
        }
    }

    /// Parses a [`tag`](Self::tag) back into a tier.
    pub fn parse(s: &str) -> Option<EvalTier> {
        match s {
            "full" => Some(EvalTier::Full),
            "interval" => Some(EvalTier::Interval),
            _ => None,
        }
    }
}

/// Options steering [`run_sweep_opts`](crate::executor::run_sweep_opts).
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// The evaluation tier every point routes through.
    pub tier: EvalTier,
    /// Enable dominance early-abort (see module docs).
    pub abort: bool,
    /// Points per abort round (frontier refresh interval); 0 = the
    /// executor's default. Only meaningful with `abort`.
    pub round: usize,
    /// Sampling parameters of the interval tier.
    pub interval: IntervalOpts,
}

/// Prices one evaluated point into the canonical metrics object every tier
/// emits: fixed key order, identical schema whether the counters came from
/// a full run or an interval extrapolation (the interval tier appends its
/// own sub-block after these shared keys). `work` holds the workload's
/// outer-product sizes ([`alloc::product_sizes`]), which the allocation
/// analysis of α points reads.
pub(crate) fn price_metrics(
    point: &DsePoint,
    report: &SimReport,
    result_nnz: u64,
    multiply_busy_share: f64,
    merge_busy_share: f64,
    hbm_mean_occupancy: f64,
    work: &[u64],
) -> Result<Json, String> {
    let cfg = &point.config;
    let model = AreaPowerModel::tsmc32nm();
    let table6 = model.table6(cfg, Some(report));
    let energy = model.energy_report(cfg, report);

    let mut pairs = vec![
        ("cycles".to_string(), Json::UInt(report.total_cycles())),
        ("seconds".to_string(), Json::Float(report.seconds())),
        ("gflops".to_string(), Json::Float(report.gflops())),
        ("power_w".to_string(), Json::Float(table6.total_power_w())),
        ("area_mm2".to_string(), Json::Float(table6.total_area_mm2())),
        ("energy_j".to_string(), Json::Float(energy.total_j)),
        ("edp_js".to_string(), Json::Float(energy.energy_delay_js)),
        ("nj_per_flop".to_string(), Json::Float(energy.nj_per_flop)),
        (
            "convert_cycles".to_string(),
            Json::UInt(report.convert.as_ref().map_or(0, |p| p.cycles)),
        ),
        ("multiply_cycles".to_string(), Json::UInt(report.multiply.cycles)),
        ("merge_cycles".to_string(), Json::UInt(report.merge.cycles)),
        ("flops".to_string(), Json::UInt(report.flops())),
        ("hbm_bytes".to_string(), Json::UInt(report.hbm_bytes())),
        ("result_nnz".to_string(), Json::UInt(result_nnz)),
        (
            "multiply_l0_hit_rate".to_string(),
            Json::Float(report.multiply.l0_hit_rate()),
        ),
        ("multiply_busy_share".to_string(), Json::Float(multiply_busy_share)),
        ("merge_busy_share".to_string(), Json::Float(merge_busy_share)),
        ("hbm_mean_occupancy".to_string(), Json::Float(hbm_mean_occupancy)),
    ];

    if let Some(alpha) = point.alpha {
        let reports = alloc::analyze_sizes(work, &[alpha]);
        let r = reports.first().ok_or("alloc::analyze_sizes returned nothing")?;
        pairs.push((
            "alloc".to_string(),
            Json::Obj(vec![
                ("alpha".into(), Json::Float(r.alpha)),
                ("dynamic_requests".into(), Json::UInt(r.dynamic_requests)),
                ("static_elements".into(), Json::UInt(r.static_elements)),
                ("spilled_elements".into(), Json::UInt(r.spilled_elements)),
                ("wasted_elements".into(), Json::UInt(r.wasted_elements)),
            ]),
        ));
    }
    Ok(Json::Obj(pairs))
}

/// Full-fidelity evaluation of one point on its pre-generated workload
/// (`work`: its outer-product sizes, for α points): the configured machine
/// model's whole phase pipeline, priced by the Table 6 area/power model.
/// Exactly the pre-tier executor's path.
pub(crate) fn simulate_full_tier(point: &DsePoint, a: &Csr, work: &[u64]) -> Result<Json, String> {
    let cfg = &point.config;
    let pipe = model::for_kind(cfg.machine)
        .spgemm(cfg, a, a)
        .map_err(|e| e.to_string())?;
    let report = SimReport {
        convert: pipe.convert,
        multiply: pipe.multiply,
        merge: pipe.merge,
        config: cfg.clone(),
    };
    let mult_bd = &pipe.multiply_breakdown;
    let merge_bd = &pipe.merge_breakdown;
    price_metrics(
        point,
        &report,
        pipe.c.nnz() as u64,
        mult_bd.busy_cycles as f64 / mult_bd.total_pe_cycles().max(1) as f64,
        merge_bd.busy_cycles as f64 / merge_bd.total_pe_cycles().max(1) as f64,
        mult_bd.mean_channel_occupancy(),
        work,
    )
}

/// Why a tier evaluation did not produce metrics.
pub(crate) enum TierFailure {
    /// The dominance probe killed the point mid-estimate; `frontier` is the
    /// cycle lower bound at the kill.
    Aborted {
        /// Cycle lower bound when the probe fired.
        frontier: u64,
    },
    /// A simulator error.
    Error(String),
}

/// [`interval::AbortProbe`] against a frozen frontier threshold: fire once
/// the monotone cycle lower bound strictly exceeds it.
struct ThresholdProbe(Option<u64>);

impl AbortProbe for ThresholdProbe {
    fn should_abort(&mut self, cycles_lower_bound: u64) -> bool {
        self.0.is_some_and(|t| cycles_lower_bound > t)
    }
}

/// Interval-tier evaluation on the workload `a` and its preparation (at
/// the sweep's sampling parameters): sampled-window estimate plus the
/// shared metrics schema and an `interval` sub-block carrying the sampling
/// evidence (error bar, window and work coverage).
pub(crate) fn simulate_interval_tier(
    point: &DsePoint,
    a: &Csr,
    prep: &Prepared,
    abort_threshold: Option<u64>,
) -> Result<Json, TierFailure> {
    let mut probe = ThresholdProbe(abort_threshold);
    let est = interval::estimate_prepared(&point.config, a, a, prep, &mut probe).map_err(
        |e| match e {
            SimError::Aborted { frontier, .. } => TierFailure::Aborted { frontier },
            other => TierFailure::Error(other.to_string()),
        },
    )?;
    let mut metrics = price_metrics(
        point,
        &est.report,
        est.result_nnz,
        est.multiply_busy_share,
        est.merge_busy_share,
        est.hbm_mean_occupancy,
        prep.work(),
    )
    .map_err(TierFailure::Error)?;
    if let Json::Obj(pairs) = &mut metrics {
        pairs.push((
            "interval".to_string(),
            Json::Obj(vec![
                ("rel_err".into(), Json::Float(est.rel_err)),
                ("windows_total".into(), Json::UInt(est.windows_total as u64)),
                ("windows_nonempty".into(), Json::UInt(est.windows_nonempty as u64)),
                ("windows_sampled".into(), Json::UInt(est.windows_sampled as u64)),
                ("work_total".into(), Json::UInt(est.work_total)),
                ("work_sampled".into(), Json::UInt(est.work_sampled)),
            ]),
        ));
    }
    Ok(metrics)
}

/// Config-only lower bound on sustained power: the zero-activity Table 6
/// column. Every dynamic term of the power model is non-decreasing in its
/// activity factor (the crossbar clamps activity at 0.5 from below, still a
/// bound), so no run of this config can draw less.
pub fn power_floor_w(cfg: &OuterSpaceConfig) -> f64 {
    let idle = ActivityFactors {
        pe_busy: 0.0,
        l0_accesses_per_cycle: 0.0,
        l1_accesses_per_cycle: 0.0,
        bw_utilization: 0.0,
    };
    AreaPowerModel::tsmc32nm().table6_with_activity(cfg, &idle).total_power_w()
}

/// Exact area of a config (activity-independent).
pub fn config_area_mm2(cfg: &OuterSpaceConfig) -> f64 {
    AreaPowerModel::tsmc32nm().table6(cfg, None).total_area_mm2()
}

/// A-priori cycle lower bound for `C = A x A` on `cfg`, from the prepared
/// workload's exact work (read once from `A`'s CC form): total elementary
/// products over total PEs — the 1-MAC-per-PE-per-cycle roofline, valid for
/// both machines (SpArch's multiplier array is a subset of the PE budget).
pub fn apriori_cycle_floor(cfg: &OuterSpaceConfig, prep: &Prepared) -> u64 {
    prep.work_total() / cfg.total_pes().max(1)
}

/// Per-workload record of completed points, frozen between executor rounds,
/// consulted by the dominance early-abort (see module docs for soundness).
#[derive(Debug, Default)]
pub struct FrontierTracker {
    completed: HashMap<String, Vec<(u64, f64, f64)>>,
}

impl FrontierTracker {
    /// Records one completed point's (cycles, power, area) under its
    /// workload label.
    pub fn record(&mut self, workload: &str, cycles: u64, power_w: f64, area_mm2: f64) {
        self.completed
            .entry(workload.to_string())
            .or_default()
            .push((cycles, power_w, area_mm2));
    }

    /// Records a completed point from its metrics object.
    pub fn record_metrics(&mut self, point: &DsePoint, metrics: &Json) {
        let (Some(c), Some(p), Some(ar)) = (
            metrics.get("cycles").and_then(Json::as_u64),
            metrics.get("power_w").and_then(Json::as_f64),
            metrics.get("area_mm2").and_then(Json::as_f64),
        ) else {
            return;
        };
        self.record(&point.workload.label(), c, p, ar);
    }

    /// The abort threshold for a candidate of `workload` whose power is at
    /// least `power_floor_w` and whose area is exactly `area_mm2`: the
    /// fewest cycles among completed same-workload points that are no worse
    /// on both other axes. A candidate whose cycle lower bound strictly
    /// exceeds this is Pareto-dominated no matter how it finishes.
    pub fn abort_threshold(
        &self,
        workload: &str,
        power_floor_w: f64,
        area_mm2: f64,
    ) -> Option<u64> {
        self.completed
            .get(workload)?
            .iter()
            .filter(|(_, p, ar)| *p <= power_floor_w && *ar <= area_mm2)
            .map(|(c, _, _)| *c)
            .min()
    }
}

/// FNV-1a over a little-endian u64 — the deterministic validation-sample
/// selector (`fnv64(index) % validate_every == 0`).
fn fnv64(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One validated point.
#[derive(Debug, Clone)]
pub struct ValidationSample {
    /// Point index in expansion order.
    pub index: usize,
    /// Machine kind tag.
    pub machine: String,
    /// `"calibration"` or `"holdout"`.
    pub role: String,
    /// Interval-tier cycle estimate (raw, uncalibrated).
    pub est_cycles: u64,
    /// Full-fidelity cycles.
    pub full_cycles: u64,
    /// The point's own error bar (holdout only; 0 for calibration).
    pub bar: f64,
    /// Relative error of the *calibrated* estimate against full.
    pub calibrated_err: f64,
    /// `|calibrated_err| <= bar` (holdout only; true for calibration).
    pub within: bool,
    /// Whether the full-fidelity result came from the memo cache.
    pub full_cached: bool,
}

/// Outcome of [`validate_interval`].
#[derive(Debug, Clone, Default)]
pub struct TierValidation {
    /// Points validated (calibration + holdout).
    pub validated: usize,
    /// Per-machine calibration: (machine tag, factor `full/est`, relative
    /// spread of the calibration ratios).
    pub calibration: Vec<(String, f64, f64)>,
    /// Median `|calibrated_err|` over the holdout half.
    pub median_abs_err: f64,
    /// Fraction of holdout points whose calibrated error lies within their
    /// own bar.
    pub within_bars_frac: f64,
    /// Wall seconds spent on full simulations run (not recalled) here —
    /// the measured cost basis for the full tier.
    pub full_wall_s: f64,
    /// Number of full simulations actually run (timed).
    pub full_timed: usize,
    /// Per-point details.
    pub samples: Vec<ValidationSample>,
}

impl TierValidation {
    /// Fixed-order JSON for the harness's tier report artifact.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("validated".into(), Json::UInt(self.validated as u64)),
            (
                "calibration".into(),
                Json::Arr(
                    self.calibration
                        .iter()
                        .map(|(m, f, s)| {
                            Json::Obj(vec![
                                ("machine".into(), Json::Str(m.clone())),
                                ("factor".into(), Json::Float(*f)),
                                ("spread".into(), Json::Float(*s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("median_abs_err".into(), Json::Float(self.median_abs_err)),
            ("within_bars_frac".into(), Json::Float(self.within_bars_frac)),
            ("full_wall_s".into(), Json::Float(self.full_wall_s)),
            ("full_timed".into(), Json::UInt(self.full_timed as u64)),
            (
                "samples".into(),
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("index".into(), Json::UInt(s.index as u64)),
                                ("machine".into(), Json::Str(s.machine.clone())),
                                ("role".into(), Json::Str(s.role.clone())),
                                ("est_cycles".into(), Json::UInt(s.est_cycles)),
                                ("full_cycles".into(), Json::UInt(s.full_cycles)),
                                ("bar".into(), Json::Float(s.bar)),
                                ("calibrated_err".into(), Json::Float(s.calibrated_err)),
                                ("within".into(), Json::Bool(s.within)),
                                ("full_cached".into(), Json::Bool(s.full_cached)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Error-bar floor: even a perfectly calibrated estimator keeps a ±3%
/// honesty margin against quantization and cross-window effects.
const BAR_FLOOR: f64 = 0.03;

/// Validates interval-tier outcomes against full-fidelity reruns.
///
/// Selects `Ok` outcomes with `fnv64(index) % validate_every == 0`
/// (deterministic, spec-independent), runs each at full fidelity *through
/// the memo cache* (so reruns are free and the full tier's own sweeps can
/// reuse them), then splits the sample by sorted position: even positions
/// calibrate multiplicative factors — hierarchically, per (machine kind,
/// workload) group with a per-machine fallback — and odd positions are
/// the holdout scored against each point's bar
/// `max(0.03, rel_err + 2 * machine_calibration_spread)`.
///
/// # Errors
///
/// Workload generation or full-simulation failures, and cache I/O.
pub fn validate_interval(
    points: &[DsePoint],
    outcomes: &[PointOutcome],
    cache: &mut SimCache,
    validate_every: usize,
) -> Result<TierValidation, String> {
    let validate_every = validate_every.max(1) as u64;
    let mut picked: Vec<(&DsePoint, u64, f64)> = Vec::new();
    for o in outcomes {
        let PointOutcome::Ok { index, metrics, .. } = o else { continue };
        if fnv64(*index as u64) % validate_every != 0 {
            continue;
        }
        let point = points
            .iter()
            .find(|p| p.index == *index)
            .ok_or("validation outcome without a matching point")?;
        let est = metrics
            .get("cycles")
            .and_then(Json::as_u64)
            .ok_or("interval metrics missing cycles")?;
        let rel_err = metrics
            .get("interval")
            .and_then(|b| b.get("rel_err"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        picked.push((point, est, rel_err));
    }

    let mut out = TierValidation { validated: picked.len(), ..TierValidation::default() };
    if picked.is_empty() {
        out.within_bars_frac = 1.0;
        return Ok(out);
    }

    // Full-fidelity reference for every picked point, through the cache.
    let mut fulls: Vec<(u64, bool)> = Vec::with_capacity(picked.len());
    for (p, _, _) in &picked {
        let material = p.key_material(EvalTier::Full);
        let cached_cycles = cache
            .lookup(&material)
            .and_then(|m| m.get("cycles"))
            .and_then(Json::as_u64);
        if let Some(c) = cached_cycles {
            fulls.push((c, true));
            continue;
        }
        let a = p.workload.generate(p.workload_seed())?;
        let work = alloc::product_sizes(&a.to_csc(), &a);
        let t0 = std::time::Instant::now();
        let metrics = simulate_full_tier(p, &a, &work)?;
        out.full_wall_s += t0.elapsed().as_secs_f64();
        out.full_timed += 1;
        let cycles = metrics
            .get("cycles")
            .and_then(Json::as_u64)
            .ok_or("full metrics missing cycles")?;
        cache
            .insert(&material, metrics)
            .map_err(|e| format!("cache append: {e}"))?;
        fulls.push((cycles, false));
    }

    // Even sorted positions calibrate, odd positions hold out. `picked`
    // is already in index order because `outcomes` is. Factors are fitted
    // hierarchically: the finest (machine, workload) group with
    // calibration data wins — the estimator's residual bias is workload-
    // systematic (regime effects like hub skew), and it transfers across
    // the config axes the DSE actually sweeps — falling back to the
    // machine-wide factor for workloads never calibrated. Bars always use
    // the machine-wide spread, which stays conservative once the group
    // factor has removed the workload-systematic component.
    let mut ratios_by_machine: HashMap<String, Vec<f64>> = HashMap::new();
    let mut ratios_by_group: HashMap<(String, String), Vec<f64>> = HashMap::new();
    for (pos, ((p, est, _), (full, _))) in picked.iter().zip(&fulls).enumerate() {
        if pos % 2 == 0 && *est > 0 {
            let tag = format!("{:?}", p.config.machine);
            let r = *full as f64 / *est as f64;
            ratios_by_machine.entry(tag.clone()).or_default().push(r);
            ratios_by_group.entry((tag, p.workload.label())).or_default().push(r);
        }
    }
    let mut tags: Vec<String> = ratios_by_machine.keys().cloned().collect();
    tags.sort();
    let mut factors: HashMap<String, (f64, f64)> = HashMap::new();
    for tag in &tags {
        let rs = ratios_by_machine.get_mut(tag).unwrap();
        let med = median(rs);
        let mut devs: Vec<f64> =
            rs.iter().map(|r| (r / med - 1.0).abs()).collect();
        let spread = median(&mut devs);
        factors.insert(tag.clone(), (med, spread));
        out.calibration.push((tag.clone(), med, spread));
    }
    let mut group_factors: HashMap<(String, String), f64> = HashMap::new();
    let mut gkeys: Vec<(String, String)> = ratios_by_group.keys().cloned().collect();
    gkeys.sort();
    for key in &gkeys {
        let rs = ratios_by_group.get_mut(key).unwrap();
        let med = median(rs);
        let mut devs: Vec<f64> = rs.iter().map(|r| (r / med - 1.0).abs()).collect();
        let gspread = median(&mut devs);
        group_factors.insert(key.clone(), med);
        out.calibration.push((format!("{}/{}", key.0, key.1), med, gspread));
    }

    let mut holdout_errs: Vec<f64> = Vec::new();
    let mut within = 0usize;
    let mut holdout_n = 0usize;
    for (pos, ((p, est, rel_err), (full, cached))) in picked.iter().zip(&fulls).enumerate() {
        let tag = format!("{:?}", p.config.machine);
        let (mfactor, spread) = factors.get(&tag).copied().unwrap_or((1.0, 0.0));
        let factor = group_factors
            .get(&(tag.clone(), p.workload.label()))
            .copied()
            .unwrap_or(mfactor);
        let est_cal = *est as f64 * factor;
        let err = if *full > 0 { (est_cal - *full as f64) / *full as f64 } else { 0.0 };
        let is_holdout = pos % 2 == 1;
        let bar = if is_holdout { (rel_err + 2.0 * spread).max(BAR_FLOOR) } else { 0.0 };
        let ok = !is_holdout || err.abs() <= bar;
        if is_holdout {
            holdout_n += 1;
            holdout_errs.push(err.abs());
            within += ok as usize;
        }
        out.samples.push(ValidationSample {
            index: p.index,
            machine: tag,
            role: if is_holdout { "holdout" } else { "calibration" }.to_string(),
            est_cycles: *est,
            full_cycles: *full,
            bar,
            calibrated_err: err,
            within: ok,
            full_cached: *cached,
        });
    }
    out.median_abs_err = if holdout_errs.is_empty() {
        // Degenerate tiny samples: fall back to calibration residuals.
        let mut all: Vec<f64> =
            out.samples.iter().map(|s| s.calibrated_err.abs()).collect();
        median(&mut all)
    } else {
        median(&mut holdout_errs)
    };
    out.within_bars_frac =
        if holdout_n == 0 { 1.0 } else { within as f64 / holdout_n as f64 };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_tags_round_trip() {
        for t in [EvalTier::Full, EvalTier::Interval] {
            assert_eq!(EvalTier::parse(t.tag()), Some(t));
        }
        assert_eq!(EvalTier::parse("trace"), None);
        assert_eq!(EvalTier::parse("nope"), None);
    }

    #[test]
    fn power_floor_is_below_measured_power() {
        let cfg = OuterSpaceConfig::default();
        let floor = power_floor_w(&cfg);
        let paper = AreaPowerModel::tsmc32nm()
            .table6_with_activity(&cfg, &ActivityFactors::paper_defaults())
            .total_power_w();
        assert!(floor > 0.0);
        assert!(floor < paper, "zero-activity floor {floor} vs paper activity {paper}");
    }

    #[test]
    fn frontier_tracker_thresholds_respect_dominance() {
        let mut t = FrontierTracker::default();
        t.record("w", 1000, 10.0, 50.0);
        t.record("w", 800, 12.0, 50.0);
        // Candidate floor power 11 W, area 50: only the 1000-cycle point has
        // power <= 11, so the threshold is 1000, not 800.
        assert_eq!(t.abort_threshold("w", 11.0, 50.0), Some(1000));
        // Power floor below both completed points: the faster one governs.
        assert_eq!(t.abort_threshold("w", 13.0, 50.0), Some(800));
        // Smaller candidate area than any completed point: no dominator.
        assert_eq!(t.abort_threshold("w", 13.0, 40.0), None);
        // Different workload: never compared.
        assert_eq!(t.abort_threshold("x", 13.0, 50.0), None);
    }

    #[test]
    fn fields_a_machine_never_reads_leave_both_tiers_unchanged() {
        use crate::knobs::{self, unread_by};
        use crate::spec::SpaceSpec;
        use outerspace_json::ToJson;
        use outerspace_sim::MachineKind;
        let spec = SpaceSpec::parse_str(
            r#"{"name":"t","axes":[],"alphas":[2.0],
              "workloads":[{"kind":"rmat","n":64,"nnz":400}]}"#,
        )
        .unwrap();
        let base = spec.expand(None, 3).unwrap().remove(0);
        let a = base.workload.generate(base.workload_seed()).unwrap();
        let prep = Prepared::new(&a, &a, &IntervalOpts { windows: 8, stride: 2 }).unwrap();
        let metrics = |p: &DsePoint| {
            let full = simulate_full_tier(p, &a, prep.work()).unwrap();
            let Ok(interval) = simulate_interval_tier(p, &a, &prep, None) else {
                panic!("interval tier failed");
            };
            (full.to_string_compact(), interval.to_string_compact())
        };
        let defaults = OuterSpaceConfig::default().to_json();
        for machine in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let mut p = base.clone();
            p.config.machine = machine;
            let want = metrics(&p);
            for &field in unread_by(machine) {
                let d = defaults.get(field).and_then(Json::as_f64).unwrap();
                let mut q = p.clone();
                knobs::apply(&mut q.config, field, (d / 2.0).round()).unwrap();
                assert_ne!(q.config, p.config, "{machine}: {field} unchanged");
                assert!(q.config.validate().is_ok(), "{machine}: {field}");
                for tier in [EvalTier::Full, EvalTier::Interval] {
                    assert_eq!(q.key_material(tier), p.key_material(tier), "{machine}: {field}");
                }
                assert_eq!(metrics(&q), want, "{machine}: {field} changed the metrics");
            }
        }
    }

    #[test]
    fn validation_selector_is_deterministic() {
        let a: Vec<u64> = (0..100).filter(|i| fnv64(*i) % 4 == 0).collect();
        let b: Vec<u64> = (0..100).filter(|i| fnv64(*i) % 4 == 0).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() < 100, "selector must thin the sample");
    }
}
