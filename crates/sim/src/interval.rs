//! Interval (sampled-window) simulation — the fast-path estimator behind
//! the DSE interval tier.
//!
//! A full simulation is dominated by two O(flops) costs: the functional
//! software SpGEMM that materialises every partial product, and the
//! multiply-phase engine that walks one item per operand element through
//! the cache and HBM models. The merge and convert engines, by contrast,
//! replay coarse *metadata* — stream lengths and collision counts — and
//! are cheap at any problem size. The estimator therefore avoids all
//! O(flops) work:
//!
//! 1. **Merge metadata is computed structurally, never functionally.**
//!    Per-row output lengths come from stamp-array unions
//!    ([`outer::PatternUnion`]) of `B`-row patterns over `A`'s rows (a
//!    couple of machine ops per elementary product, no allocation or
//!    sorting); the SpArch-analog merge schedule is synthesised from
//!    exact structural leaf sizes by replaying the planner's Huffman
//!    policy with a survival-rate shrink model fitted (by bisection) so
//!    the final stream matches the structural result estimate. The real
//!    merge kernels then replay that metadata exactly.
//! 2. **Sampled work runs in the full run's regime, not a miniature of
//!    it.** The OuterSPACE merge replays a row sample on a machine shrunk
//!    to match ([`structural_merge_outerspace`]) so utilization and HBM
//!    contention stay representative and the sampled makespan estimates
//!    the full makespan directly. OuterSPACE multiply column windows are
//!    sampled every [`IntervalOpts::stride`]-th and extrapolated by exact
//!    work weight — except heavy (hub-column) windows, which are always
//!    simulated, row-subsampled down to roughly one mean window's work
//!    and extrapolated within themselves. Leaving hubs to the stride
//!    lottery is a classic ratio-estimator skew: a sampled hub
//!    extrapolates its superlinear cost to the whole population, a
//!    skipped one vanishes from it (observed as 2-3x swings on RMAT).
//!    The SpArch-analog multiply instead samples `A` *rows* (interleaved
//!    groups of every stride-th non-empty row) against the full `B`:
//!    condensed column `k` of a row sample is a row-subset of the full
//!    condensed column `k`, so the leaf widths, per-entry `B`-row stream
//!    lengths and the spill regime all survive sampling — a re-condensed
//!    k-column slice preserves none of them (observed as a spill-regime
//!    dependent 20% underestimate on wide merge trees).
//!
//! The result is a synthetic [`SimReport`] whose counters feed the same
//! area/power/energy models as a full run. Residual systematic bias
//! (window-boundary cache warm-up, the shrink-model schedule) is absorbed
//! by the DSE tier's calibration factor, validated against full runs on a
//! held-out sample (see `DESIGN.md` §16).
//!
//! The estimate is a pure function of `(cfg, operands, opts)`: window
//! boundaries, strata and the sampled subsets are deterministic, so DSE
//! reports built from it stay byte-identical across runs and threads.
//!
//! **Prepare once, time per configuration.** Everything above that
//! depends only on the operands and `opts` — the work of every outer
//! product, the merge sample's chunk layout and row shapes, the window
//! plan and its sliced operands, the SpArch leaf sizes, fit target and
//! condensed row groups — lives in a [`Prepared`], built once per workload
//! (each machine's part on first use). [`estimate_prepared`] runs only the
//! engines, the per-arity Huffman fit and the extrapolation, so a DSE
//! sweep pays the preparation once per workload rather than once per
//! point; [`estimate_spgemm`] is the one-off form.
//!
//! An [`AbortProbe`] threads the DSE dominance early-abort through the
//! estimator: the exact convert + merge cycles seed the lower bound before
//! any multiply window runs, and between windows (plus inside the multiply
//! engine loop via [`KernelObserver::poll_abort`]) the probe sees a
//! monotone lower bound on the final estimated cycle count and may stop
//! the point with [`SimError::Aborted`].

use std::sync::OnceLock;

use outerspace_outer as outer;
use outerspace_outer::{CondensedA, PatternUnion, SparchMergeOp, SparchPlan};
use outerspace_sparse::{Csc, Csr, Index};

use crate::alloc;
use crate::config::{MachineKind, OuterSpaceConfig};
use crate::engine::{self, KernelObserver};
use crate::error::SimError;
use crate::layout::IntermediateLayout;
use crate::machine::PeArray;
use crate::mem::MemorySystem;
use crate::phases::merge::RowMergeInfo;
use crate::phases::multiply::MultiplyKernel;
use crate::phases::sparch::{simulate_merge_tree, CondensedMultiplyKernel};
use crate::phases::{convert, merge};
use crate::stats::{PhaseStats, SimReport};

/// A multiply window is "heavy" when it carries at least this many times
/// the mean non-empty window's work. Heavy windows are always simulated
/// (row-subsampled down to roughly one mean window's work) instead of
/// being left to the stride lottery: a skipped hub window extrapolates to
/// a large bias, a sampled one to a large overshoot.
const HEAVY_WINDOW_FACTOR: u128 = 4;

/// Sampling parameters of the interval estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalOpts {
    /// Number of equal column windows the shared dimension is split into.
    pub windows: u32,
    /// Every `stride`-th *light* window is simulated (1 = all of them,
    /// i.e. a full-fidelity multiply paid window by window); heavy
    /// windows are always simulated regardless of the stride.
    /// OuterSPACE's merge rows are sub-sampled at `min(stride, 4)` on a
    /// proportionally shrunken machine.
    pub stride: u32,
}

impl Default for IntervalOpts {
    fn default() -> Self {
        // 64 windows / stride 16 simulates ~1/16 of the light work plus
        // every heavy unit: comfortably past the 10x points-per-CPU-hour
        // target while keeping >= 4 sampled windows for the error bar.
        IntervalOpts { windows: 64, stride: 16 }
    }
}

/// Early-abort probe: consulted with monotone lower bounds on the final
/// estimated total cycles while the estimate is being built.
pub trait AbortProbe {
    /// Return `true` to abort the run ([`SimError::Aborted`]).
    fn should_abort(&mut self, cycles_lower_bound: u64) -> bool;
}

/// The probe that never aborts.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAbortProbe;

impl AbortProbe for NoAbortProbe {
    fn should_abort(&mut self, _cycles_lower_bound: u64) -> bool {
        false
    }
}

/// Everything one interval estimate produces.
#[derive(Debug, Clone)]
pub struct IntervalEstimate {
    /// Per-phase counters: convert exact, merge replayed from structural
    /// metadata (heavy rows exact, light rows extrapolated), multiply
    /// extrapolated from the sampled windows.
    pub report: SimReport,
    /// Result non-zeros — structural estimate from row-pattern unions
    /// (exact when `stride == 1` covers every row).
    pub result_nnz: u64,
    /// Relative 95% half-width of the cycle estimate from window-to-window
    /// multiply sampling variance alone (calibration spread is layered on
    /// by the DSE tier).
    pub rel_err: f64,
    /// Total sampling units: multiply column windows for OuterSPACE,
    /// interleaved `A`-row groups for the SpArch analog.
    pub windows_total: u32,
    /// Non-empty sampling units (positive work weight).
    pub windows_nonempty: u32,
    /// Units actually simulated (all heavy + every stride-th light).
    pub windows_sampled: u32,
    /// Exact total elementary products (= flops of the full run).
    pub work_total: u64,
    /// Elementary products covered by the simulated windows.
    pub work_sampled: u64,
    /// Busy share of the multiply-phase PE class over the sampled windows.
    pub multiply_busy_share: f64,
    /// Busy share of the merge-phase PE class (structural-metadata replay).
    pub merge_busy_share: f64,
    /// Work-weighted mean HBM channel occupancy over the sampled windows.
    pub hbm_mean_occupancy: f64,
}

/// Bridges the engine's [`KernelObserver::poll_abort`] hook to an
/// [`AbortProbe`], offsetting the in-phase frontier by the cycles already
/// accounted from the exact phases and earlier windows.
struct EngineAbort<'p> {
    offset: u64,
    probe: &'p mut dyn AbortProbe,
}

impl<T> KernelObserver<T> for EngineAbort<'_> {
    fn poll_abort(&mut self, frontier: u64) -> bool {
        self.probe.should_abort(self.offset.saturating_add(frontier))
    }
}

/// Columns `lo..hi` of `a` as a standalone `nrows x (hi-lo)` matrix.
fn csc_col_window(a: &Csc, lo: Index, hi: Index) -> Csc {
    let cp = a.col_ptr();
    let (s, e) = (cp[lo as usize], cp[hi as usize]);
    let col_ptr: Vec<usize> = cp[lo as usize..=hi as usize].iter().map(|p| p - s).collect();
    Csc::from_raw_parts_unchecked(
        a.nrows(),
        hi - lo,
        col_ptr,
        a.row_indices()[s..e].to_vec(),
        a.values()[s..e].to_vec(),
    )
}

/// `a` with only every `r`-th row's entries kept (same shape): the interior
/// row-subsample used to shrink a heavy window's work while preserving its
/// column (hub) structure.
fn csc_filter_rows(a: &Csc, r: u32) -> Csc {
    let mut col_ptr = Vec::with_capacity(a.ncols() as usize + 1);
    let mut rows = Vec::new();
    let mut vals = Vec::new();
    col_ptr.push(0);
    for k in 0..a.ncols() {
        let (ri, vi) = a.col(k);
        for (&i, &v) in ri.iter().zip(vi) {
            if i % r == 0 {
                rows.push(i);
                vals.push(v);
            }
        }
        col_ptr.push(rows.len());
    }
    Csc::from_raw_parts_unchecked(a.nrows(), a.ncols(), col_ptr, rows, vals)
}

/// Rows `lo..hi` of `b` as a standalone `(hi-lo) x ncols` matrix.
fn csr_row_window(b: &Csr, lo: Index, hi: Index) -> Csr {
    let rp = b.row_ptr();
    let (s, e) = (rp[lo as usize], rp[hi as usize]);
    let row_ptr: Vec<usize> = rp[lo as usize..=hi as usize].iter().map(|p| p - s).collect();
    Csr::from_raw_parts_unchecked(
        hi - lo,
        b.ncols(),
        row_ptr,
        b.col_indices()[s..e].to_vec(),
        b.values()[s..e].to_vec(),
    )
}

/// `a` with only the listed rows' entries kept (same shape). `keep` must
/// be sorted ascending. Used by the SpArch-analog multiply sampler, where
/// preserving the row indices keeps the condensed structure a faithful
/// row-subset of the full operand's.
fn csr_keep_rows(a: &Csr, keep: &[Index]) -> Csr {
    let mut row_ptr = Vec::with_capacity(a.nrows() as usize + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    let mut it = keep.iter().peekable();
    for i in 0..a.nrows() {
        if it.peek() == Some(&&i) {
            it.next();
            let (ci, vi) = a.row(i);
            cols.extend_from_slice(ci);
            vals.extend_from_slice(vi);
        }
        row_ptr.push(cols.len());
    }
    Csr::from_raw_parts_unchecked(a.nrows(), a.ncols(), row_ptr, cols, vals)
}

/// Element-wise sum of phase counters across sequential sub-simulations
/// (unlike [`PhaseStats::absorb_parallel`], cycles add: the pieces would
/// run back to back).
fn add_stats(acc: &mut PhaseStats, s: &PhaseStats) {
    acc.cycles += s.cycles;
    acc.flops += s.flops;
    acc.hbm_read_bytes += s.hbm_read_bytes;
    acc.hbm_write_bytes += s.hbm_write_bytes;
    acc.l0_hits += s.l0_hits;
    acc.l0_misses += s.l0_misses;
    acc.l1_hits += s.l1_hits;
    acc.l1_misses += s.l1_misses;
    acc.work_items += s.work_items;
    acc.active_pes = acc.active_pes.max(s.active_pes);
    acc.busy_pe_cycles += s.busy_pe_cycles;
    acc.ecc_retries += s.ecc_retries;
    acc.dropped_responses += s.dropped_responses;
    acc.fault_penalty_cycles += s.fault_penalty_cycles;
    acc.silent_corruptions += s.silent_corruptions;
    acc.requeued_work_items += s.requeued_work_items;
    acc.killed_pes = acc.killed_pes.max(s.killed_pes);
    acc.stall_l0_cycles += s.stall_l0_cycles;
    acc.stall_l1_cycles += s.stall_l1_cycles;
    acc.stall_hbm_cycles += s.stall_hbm_cycles;
    acc.idle_pe_cycles += s.idle_pe_cycles;
    acc.lost_pe_cycles += s.lost_pe_cycles;
}

/// `v * num / den` in u128, rounded to nearest.
fn scale_u64(v: u64, num: u64, den: u64) -> u64 {
    if den == 0 {
        return 0;
    }
    ((v as u128 * num as u128 + den as u128 / 2) / den as u128) as u64
}

/// Scales every extensive counter by `num/den` (u128 intermediate, round to
/// nearest), leaving the intensive fields (`active_pes`, `killed_pes`)
/// untouched.
fn scale_stats(s: &PhaseStats, num: u64, den: u64) -> PhaseStats {
    let sc = |v: u64| scale_u64(v, num, den);
    PhaseStats {
        cycles: sc(s.cycles),
        flops: sc(s.flops),
        hbm_read_bytes: sc(s.hbm_read_bytes),
        hbm_write_bytes: sc(s.hbm_write_bytes),
        l0_hits: sc(s.l0_hits),
        l0_misses: sc(s.l0_misses),
        l1_hits: sc(s.l1_hits),
        l1_misses: sc(s.l1_misses),
        work_items: sc(s.work_items),
        active_pes: s.active_pes,
        busy_pe_cycles: sc(s.busy_pe_cycles),
        ecc_retries: sc(s.ecc_retries),
        dropped_responses: sc(s.dropped_responses),
        fault_penalty_cycles: sc(s.fault_penalty_cycles),
        silent_corruptions: sc(s.silent_corruptions),
        requeued_work_items: sc(s.requeued_work_items),
        killed_pes: s.killed_pes,
        stall_l0_cycles: sc(s.stall_l0_cycles),
        stall_l1_cycles: sc(s.stall_l1_cycles),
        stall_hbm_cycles: sc(s.stall_hbm_cycles),
        idle_pe_cycles: sc(s.idle_pe_cycles),
        lost_pe_cycles: sc(s.lost_pe_cycles),
    }
}

/// Every `stride`-th non-empty product row, with the elementary-product
/// totals needed to extrapolate back to the full population.
struct RowSample {
    rows: Vec<Index>,
    produced_total: u64,
    produced_sampled: u64,
}

fn sample_rows(a: &Csr, b: &Csr, stride: u32) -> RowSample {
    let mut rows = Vec::new();
    let mut produced_total = 0u64;
    let mut produced_sampled = 0u64;
    let mut idx = 0usize;
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        let p: u64 = cols.iter().map(|&k| b.row_nnz(k) as u64).sum();
        if p == 0 {
            continue;
        }
        produced_total += p;
        if idx % stride.max(1) as usize == 0 {
            rows.push(i);
            produced_sampled += p;
        }
        idx += 1;
    }
    RowSample { rows, produced_total, produced_sampled }
}

/// The workload-only inputs of an interval estimate: everything
/// [`estimate_prepared`] would otherwise rebuild for every configuration.
/// Built once per `(A, B, opts)`; each machine's part is built on its
/// first use and shared by every later estimate, from any thread.
///
/// - Shared: the work of every outer product, read from `A`'s CC form,
///   its total, and whether a full run skips the conversion (symmetric
///   `A`).
/// - OuterSPACE: the merge sample's chunk layout and [`RowMergeInfo`]s,
///   and the multiply window plan with the sampled windows' operands.
/// - SpArch analog: the stride-shrunk leaf sizes, the fit target of the
///   Huffman schedule, and the condensed row groups of the multiply
///   sample.
///
/// The configuration-dependent work (the engines, the per-`ways` Huffman
/// fit and the extrapolation) stays in [`estimate_prepared`], so an
/// estimate from a shared `Prepared` equals one from a fresh `Prepared`.
#[derive(Debug)]
pub struct Prepared {
    opts: IntervalOpts,
    /// `(A rows, A cols, nnz(A), B cols, nnz(B))`: the operands this was
    /// built from, checked on every use.
    shape: (Index, Index, usize, Index, usize),
    skipped_symmetric: bool,
    /// Elementary products of each outer product `k`.
    work: Vec<u64>,
    total_ep: u64,
    outerspace: OnceLock<Result<OuterSpacePrep, SimError>>,
    sparch: OnceLock<SparchPrep>,
}

/// The OuterSPACE machine's part of a [`Prepared`].
#[derive(Debug)]
struct OuterSpacePrep {
    /// `None` when no product row is non-empty.
    merge: Option<MergeSample>,
    windows: WindowPlan,
}

/// The OuterSPACE merge sample (see [`structural_merge_outerspace`]).
#[derive(Debug)]
struct MergeSample {
    /// The merge stride ([`MERGE_STRIDE_CAP`]-capped).
    stride: u32,
    layout: IntermediateLayout,
    rows: Vec<RowMergeInfo>,
    /// Output non-zeros of the sampled rows.
    out_nnz: u64,
    produced_total: u64,
    produced_sampled: u64,
}

/// The OuterSPACE multiply's column windows (see
/// [`sample_multiply_outerspace`]).
#[derive(Debug)]
struct WindowPlan {
    windows_total: u32,
    windows_nonempty: u32,
    /// Work of every light window, sampled or not.
    light_ep_total: u64,
    /// The windows to simulate, in order.
    sampled: Vec<SampledWindow>,
}

/// One simulated multiply window: its slice of `A` (every `r`-th row only,
/// when heavy) and the matching rows of `B`.
#[derive(Debug)]
struct SampledWindow {
    a: Csc,
    b: Csr,
    /// The window's exact work.
    ep: u64,
    /// The work the simulated operands carry.
    ep_sim: u64,
    heavy: bool,
}

/// The SpArch analog's part of a [`Prepared`].
#[derive(Debug)]
struct SparchPrep {
    /// The merge stride the leaf sizes and the target are shrunk by.
    shrink: u64,
    /// Leaf sizes shrunk by `shrink`; their count is the full run's.
    leaf_scaled: Vec<u64>,
    /// The structural result estimate, shrunk the same way.
    target_scaled: u64,
    /// Row groups of the multiply sample, empty ones included.
    groups_total: u32,
    /// The non-empty groups' condensed operands and exact work, in order.
    groups: Vec<(CondensedA, u64)>,
}

impl Prepared {
    /// Prepares `A x B` for estimates at sampling parameters `opts`.
    ///
    /// # Errors
    ///
    /// Shape mismatch ([`SimError::Sparse`]).
    ///
    /// # Panics
    ///
    /// Panics if `opts.windows` or `opts.stride` is zero.
    pub fn new(a: &Csr, b: &Csr, opts: &IntervalOpts) -> Result<Prepared, SimError> {
        assert!(opts.windows > 0 && opts.stride > 0, "interval opts must be positive");
        outerspace_sparse::ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))
            .map_err(outerspace_sparse::SparseError::from)?;
        // Shared-dimension work weights: ep(k) = nnz(A[:,k]) * nnz(B[k,:]).
        // The CC form itself is not kept: only the OuterSPACE part slices
        // it, once, while it is built.
        let (a_cc, conv) = outer::csr_to_csc_via_outer(a);
        let work = alloc::product_sizes(&a_cc, b);
        let total_ep = work.iter().sum();
        Ok(Prepared {
            opts: *opts,
            shape: (a.nrows(), a.ncols(), a.nnz(), b.ncols(), b.nnz()),
            skipped_symmetric: conv.skipped_symmetric,
            work,
            total_ep,
            outerspace: OnceLock::new(),
            sparch: OnceLock::new(),
        })
    }

    /// Elementary products of each outer product `k` of `A x B`
    /// ([`alloc::product_sizes`]).
    pub fn work(&self) -> &[u64] {
        &self.work
    }

    /// Exact total elementary products of `A x B` (= flops of a full run).
    pub fn work_total(&self) -> u64 {
        self.total_ep
    }

    fn check_operands(&self, a: &Csr, b: &Csr) {
        assert_eq!(
            self.shape,
            (a.nrows(), a.ncols(), a.nnz(), b.ncols(), b.nnz()),
            "operands differ from the ones this preparation was built from"
        );
    }

    fn outerspace(&self, a: &Csr, b: &Csr) -> Result<&OuterSpacePrep, SimError> {
        self.outerspace
            .get_or_init(|| {
                let a_cc = a.to_csc();
                let merge = prepare_merge_outerspace(a, &a_cc, b, self.opts.stride)?;
                let windows = plan_windows(&a_cc, b, &self.work, self.total_ep, &self.opts);
                Ok(OuterSpacePrep { merge, windows })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn sparch(&self, a: &Csr, b: &Csr) -> &SparchPrep {
        self.sparch.get_or_init(|| prepare_sparch(a, b, &self.opts))
    }
}

/// The structurally derived non-multiply phases of one estimate.
struct ExactPhases {
    merge: PhaseStats,
    merge_busy: u64,
    merge_total_pe: u64,
    result_nnz: u64,
    /// SpArch only: whether the full run's leaf streams spill to DRAM —
    /// the sampled multiply windows must run in the same regime.
    spilled: bool,
}

/// Merge rows are sampled at most this coarsely, whatever the multiply
/// stride: the machine shrinks with the sample (see
/// [`structural_merge_outerspace`]), and below `n_tiles / 4` tiles the HBM
/// channel count can no longer scale down proportionally, which distorts
/// the contention regime the shrunken run is supposed to preserve.
const MERGE_STRIDE_CAP: u32 = 4;

/// The OuterSPACE merge sample: every `stride`-th non-empty product row
/// (capped at [`MERGE_STRIDE_CAP`]), with its complete cross-window chunk
/// list in the multiply kernel's k-major allocation order and its output
/// length from a [`PatternUnion`]. `None` when no row is non-empty.
fn prepare_merge_outerspace(
    a: &Csr,
    a_cc: &Csc,
    b: &Csr,
    stride: u32,
) -> Result<Option<MergeSample>, SimError> {
    let stride = stride.min(MERGE_STRIDE_CAP);
    let sample = sample_rows(a, b, stride);
    if sample.rows.is_empty() {
        return Ok(None);
    }
    // Chunk lengths per sampled row, in MultiplyKernel allocation order
    // (k-major over the shared dimension).
    let mut slot = vec![u32::MAX; a_cc.nrows() as usize];
    for (si, &i) in sample.rows.iter().enumerate() {
        slot[i as usize] = si as u32;
    }
    let mut chunk_lists: Vec<Vec<u32>> = vec![Vec::new(); sample.rows.len()];
    for k in 0..a_cc.ncols() {
        let cb = b.row_nnz(k);
        if cb == 0 {
            continue;
        }
        let (rows_k, _) = a_cc.col(k);
        for &i in rows_k {
            let si = slot[i as usize];
            if si != u32::MAX {
                chunk_lists[si as usize].push(cb as u32);
            }
        }
    }
    let mut union = PatternUnion::new(b.ncols());
    let mut layout = IntermediateLayout::new(sample.rows.len() as Index);
    let mut rows = Vec::with_capacity(sample.rows.len());
    let mut out_nnz = 0u64;
    for (si, &i) in sample.rows.iter().enumerate() {
        let mut prod = 0u64;
        for &len in &chunk_lists[si] {
            layout.alloc_chunk(si as Index, len);
            prod += len as u64;
        }
        let out = union.count(b, a.row(i).0.iter().copied());
        out_nnz += out;
        rows.push(RowMergeInfo::checked(i, prod, out, b.ncols())?);
    }
    Ok(Some(MergeSample {
        stride,
        layout,
        rows,
        out_nnz,
        produced_total: sample.produced_total,
        produced_sampled: sample.produced_sampled,
    }))
}

/// OuterSPACE merge from structural metadata: the prepared row sample
/// replayed on a machine shrunk to match — `n_tiles / stride` tiles and
/// the HBM channel count scaled the same way.
///
/// Shrinking the machine with the sample keeps the per-worker row load and
/// the worker:channel ratio — and therefore both the utilization and the
/// contention regime — equal to the full run's, so the simulated makespan
/// estimates the full makespan *directly*: in the throughput-bound regime
/// `1/stride` of the work on `1/stride` of the machine takes the same
/// time, and in the straggler-bound regime the sampled straggler costs
/// what it costs in the full run. (Scaling a small-sample makespan by work
/// instead was observed to overestimate skewed matrices ~3x — a
/// near-empty worker pool is latency-bound where the full pool is not —
/// and a shrunken pool on a full-size HBM underestimates bandwidth-bound
/// merges ~3x.) Cycles are corrected only by the residual factor
/// `work_ratio x tiles' / n_tiles`, which is 1 when the stride divides the
/// tile count evenly; the extensive counters scale by the work ratio.
fn structural_merge_outerspace(
    cfg: &OuterSpaceConfig,
    sample: Option<&MergeSample>,
) -> Result<ExactPhases, SimError> {
    let Some(sample) = sample else {
        return Ok(ExactPhases {
            merge: PhaseStats::default(),
            merge_busy: 0,
            merge_total_pe: 0,
            result_nnz: 0,
            spilled: false,
        });
    };
    let tiles = (cfg.n_tiles / sample.stride).max(1);
    let channels = (cfg.hbm_channels * tiles / cfg.n_tiles).max(1);
    let shrunk = OuterSpaceConfig { n_tiles: tiles, hbm_channels: channels, ..cfg.clone() };
    let (m, bd) = merge::simulate_merge_with_breakdown(&shrunk, &sample.layout, &sample.rows)?;

    let (num, den) = (sample.produced_total, sample.produced_sampled.max(1));
    let mut merged = scale_stats(&m, num, den);
    merged.cycles = ((m.cycles as u128 * num as u128 * tiles as u128
        + (den as u128 * cfg.n_tiles as u128) / 2)
        / (den as u128 * cfg.n_tiles as u128)) as u64;
    // The shrunken pool saw fewer workers; project occupancy back onto
    // the full machine, capped at its worker count.
    merged.active_pes = (m.active_pes.saturating_mul(cfg.n_tiles / tiles))
        .min(cfg.n_tiles * cfg.merge_pairs_per_tile());
    Ok(ExactPhases {
        merge: merged,
        merge_busy: bd.busy_cycles,
        merge_total_pe: bd.total_pe_cycles(),
        result_nnz: scale_u64(sample.out_nnz, num, den),
        spilled: false,
    })
}

/// Bisects the survival rate so a synthetic schedule's final stream hits
/// `target` (the structural result estimate) as closely as the shrink
/// model allows. The schedule is the SpArch planner's own Huffman loop
/// ([`outer::huffman_schedule`]) over the structural leaf sizes, with each
/// op's output shrunk to `clamp(round(in * survival), max_input, in)`. The
/// final size is monotone non-decreasing in the survival rate, so 50
/// halvings pin it to the model's granularity. Returns the ops and the
/// final stream size.
fn fit_sparch_ops(leaf_elems: &[u64], ways: usize, target: u64) -> (Vec<SparchMergeOp>, u64) {
    let synth = |survival: f64| {
        let (ops, fin) =
            outer::huffman_schedule(leaf_elems.to_vec(), ways, |&e| e, |inputs, _| {
                let in_sum: u64 = inputs.iter().sum();
                let max_in = inputs.iter().copied().max().unwrap_or(0);
                ((in_sum as f64 * survival).round() as u64).clamp(max_in, in_sum)
            });
        (ops, fin.unwrap_or(0))
    };
    if leaf_elems.len() <= 1 {
        return (Vec::new(), leaf_elems.first().copied().unwrap_or(0));
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        let (_, fin) = synth(mid);
        if fin < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    synth(hi)
}

/// The SpArch analog's workload-only inputs: exact leaf sizes (condensed
/// column `k` streams `B`'s rows for the `k`-th non-zero of every row),
/// the structural result-size estimate from the sampled rows' unions, both
/// shrunk by the merge stride, and the multiply sample's row groups.
///
/// Above stride 1 the merge tree replays leaf *sizes* shrunk by `s` and
/// scales the cycles back up: the leaf count, the spill regime and the
/// Huffman schedule's shape are all size-ratio driven, and the tree's
/// steady-state throughput is bandwidth-bound, so the replay cost is
/// linear in the stream volume. The elementwise `div_ceil` keeps every
/// non-empty leaf alive.
fn prepare_sparch(a: &Csr, b: &Csr, opts: &IntervalOpts) -> SparchPrep {
    let width = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap_or(0);
    let mut leaf_elems = vec![0u64; width];
    for r in 0..a.nrows() {
        for (k, &j) in a.row(r).0.iter().enumerate() {
            leaf_elems[k] += b.row_nnz(j) as u64;
        }
    }
    let total_products: u64 = leaf_elems.iter().sum();
    let max_leaf: u64 = leaf_elems.iter().copied().max().unwrap_or(0);

    // Structural result-size estimate from sampled row unions. The true
    // result holds every key of the largest leaf, so clamp from below.
    let sample = sample_rows(a, b, opts.stride);
    let mut union = PatternUnion::new(b.ncols());
    let out_sampled: u64 =
        sample.rows.iter().map(|&i| union.count(b, a.row(i).0.iter().copied())).sum();
    let target = scale_u64(out_sampled, sample.produced_total, sample.produced_sampled.max(1))
        .clamp(max_leaf, total_products.max(max_leaf));

    let shrink = opts.stride.clamp(1, MERGE_STRIDE_CAP) as u64;
    let leaf_scaled: Vec<u64> = leaf_elems.iter().map(|&e| e.div_ceil(shrink)).collect();
    let total_scaled: u64 = leaf_scaled.iter().sum();
    let max_scaled: u64 = leaf_scaled.iter().copied().max().unwrap_or(0);
    let target_scaled =
        scale_u64(target, 1, shrink).clamp(max_scaled, total_scaled.max(max_scaled));

    // At stride 1 a single group replays the full multiply exactly;
    // otherwise enough groups for a spread, capped by the sample size.
    let groups_total = if opts.stride == 1 {
        1
    } else {
        // 2..=6 groups: enough sizes for the intercept fit, and the
        // geometric weight pattern would starve further groups anyway.
        ((opts.windows / opts.stride).max(2) as usize)
            .min(6)
            .min(sample.rows.len().max(1))
    };
    // Interleaved assignment with geometric (1:2:4:...) group weights:
    // rows cycle through a pattern that gives group g twice group g-1's
    // share, so the group runs span a ~2^groups size range while staying
    // compositionally homogeneous. Distinct sizes let the estimate's fit
    // separate the per-run fill/drain intercept from the marginal cost.
    let period = (1usize << groups_total) - 1;
    let mut group_rows: Vec<Vec<Index>> = vec![Vec::new(); groups_total];
    let mut group_ep: Vec<u64> = vec![0; groups_total];
    for (si, &i) in sample.rows.iter().enumerate() {
        let p: u64 = a.row(i).0.iter().map(|&k| b.row_nnz(k) as u64).sum();
        let g = ((si % period) + 1).ilog2() as usize;
        group_rows[g].push(i);
        group_ep[g] += p;
    }
    let groups = group_rows
        .iter()
        .zip(group_ep)
        .filter(|&(_, ep)| ep > 0)
        .map(|(rows, ep)| (outer::condense(&csr_keep_rows(a, rows)), ep))
        .collect();
    SparchPrep {
        shrink,
        leaf_scaled,
        target_scaled,
        groups_total: groups_total as u32,
        groups,
    }
}

/// SpArch merge from structural metadata: the prepared leaf sizes, the
/// spill regime from the leaf count, and a synthetic Huffman schedule for
/// this tree's arity whose shrink rate is fitted to the structural result
/// estimate. The real merge-tree kernel replays the synthetic plan — its
/// internal selection re-derivation matches because the synthesis runs
/// the planner's own scheduling loop.
fn structural_merge_sparch(
    cfg: &OuterSpaceConfig,
    prep: &SparchPrep,
) -> Result<ExactPhases, SimError> {
    let ways = (cfg.merge_tree_ways as usize).max(2);
    let spilled = prep.leaf_scaled.len() > ways;
    let (ops, fin) = fit_sparch_ops(&prep.leaf_scaled, ways, prep.target_scaled);
    let plan = SparchPlan {
        condensed_width: prep.leaf_scaled.len(),
        leaf_elems: prep.leaf_scaled.clone(),
        spilled,
        ops,
        result_nnz: fin,
    };
    let (m, bd) = simulate_merge_tree(cfg, &plan)?;
    let s = prep.shrink;
    Ok(ExactPhases {
        merge: scale_stats(&m, s, 1),
        merge_busy: bd.busy_cycles.saturating_mul(s),
        merge_total_pe: bd.total_pe_cycles().saturating_mul(s),
        result_nnz: scale_u64(fin, s, 1),
        spilled,
    })
}

/// Shared inputs of the machine-specific multiply samplers.
struct MultiplyCtx<'x> {
    cfg: &'x OuterSpaceConfig,
    b: &'x Csr,
    /// Exact total elementary products (= flops of the full run).
    total_ep: u64,
    /// Cycles already accounted (convert + merge): offsets the abort probe.
    base_cycles: u64,
}

/// What a multiply sampler hands back for extrapolation: heavy units
/// already extrapolated within themselves, light units raw with their
/// sampled work and per-unit cycle ratios for the error bar.
#[derive(Default)]
struct MultiplySample {
    heavy: PhaseStats,
    light: PhaseStats,
    heavy_ep_sim: u64,
    light_ep_sampled: u64,
    light_ep_total: u64,
    windows_total: u32,
    windows_nonempty: u32,
    windows_sampled: u32,
    busy: u64,
    total_pe: u64,
    occ_weighted: f64,
    occ_ep: u64,
    ratios: Vec<f64>,
}

/// The OuterSPACE multiply's column windows of the shared dimension:
/// heavy (>= [`HEAVY_WINDOW_FACTOR`] x the mean non-empty window's work)
/// windows are always simulated, row-subsampled down to roughly one mean
/// window's work; light ones every stride-th. At stride 1 everything runs
/// at full fidelity, so no window is split out.
fn plan_windows(
    a_cc: &Csc,
    b: &Csr,
    work: &[u64],
    total_ep: u64,
    opts: &IntervalOpts,
) -> WindowPlan {
    let k_dim = a_cc.ncols();
    let width = k_dim.div_ceil(opts.windows.min(k_dim.max(1))).max(1);
    let mut windows: Vec<(Index, Index, u64)> = Vec::new();
    let mut lo = 0u32;
    while lo < k_dim {
        let hi = (lo + width).min(k_dim);
        windows.push((lo, hi, work[lo as usize..hi as usize].iter().sum()));
        lo = hi;
    }

    let nonempty_ct = windows.iter().filter(|w| w.2 > 0).count() as u128;
    let mut plan = WindowPlan {
        windows_total: windows.len() as u32,
        windows_nonempty: 0,
        light_ep_total: 0,
        sampled: Vec::new(),
    };
    let mut light_idx = 0usize;
    for &(w_lo, w_hi, ep) in &windows {
        if ep == 0 {
            continue;
        }
        plan.windows_nonempty += 1;
        let heavy = opts.stride > 1
            && ep as u128 * nonempty_ct >= HEAVY_WINDOW_FACTOR * total_ep as u128;
        let simulate = heavy || {
            let pick = light_idx % opts.stride as usize == 0;
            light_idx += 1;
            pick
        };
        if !heavy {
            plan.light_ep_total += ep;
        }
        if !simulate {
            continue;
        }
        let b_w = csr_row_window(b, w_lo, w_hi);
        let a_w_full = csc_col_window(a_cc, w_lo, w_hi);
        // Heavy windows keep every r-th row of A: the work shrinks ~r-fold
        // while the hub columns keep their relative weight. Falls back to
        // the whole window if the filter would leave it empty.
        let r = if heavy {
            ((ep as u128 * nonempty_ct).div_ceil(total_ep.max(1) as u128)) as u32
        } else {
            1
        };
        let (a_w, ep_sim) = if r > 1 {
            let f = csc_filter_rows(&a_w_full, r);
            let ep_sub: u64 =
                (0..f.ncols()).map(|j| f.col_nnz(j) as u64 * b_w.row_nnz(j) as u64).sum();
            if ep_sub == 0 { (a_w_full, ep) } else { (f, ep_sub) }
        } else {
            (a_w_full, ep)
        };
        plan.sampled.push(SampledWindow { a: a_w, b: b_w, ep, ep_sim, heavy });
    }
    plan
}

/// OuterSPACE multiply from the planned column windows: each heavy window
/// is extrapolated within itself, light ones by work weight.
fn sample_multiply_outerspace(
    ctx: &MultiplyCtx<'_>,
    plan: &WindowPlan,
    probe: &mut dyn AbortProbe,
) -> Result<MultiplySample, SimError> {
    let cfg = ctx.cfg;
    let mut ms = MultiplySample {
        windows_total: plan.windows_total,
        windows_nonempty: plan.windows_nonempty,
        light_ep_total: plan.light_ep_total,
        ..MultiplySample::default()
    };
    for w in &plan.sampled {
        let so_far = ctx.base_cycles + ms.heavy.cycles + ms.light.cycles;
        if probe.should_abort(so_far) {
            return Err(SimError::Aborted { phase: "interval", frontier: so_far });
        }
        let mut mem = MemorySystem::for_multiply(cfg);
        let mut obs = EngineAbort { offset: so_far, probe: &mut *probe };
        let mut pes = PeArray::new(
            cfg.n_tiles as usize,
            cfg.pes_per_tile as usize,
            cfg.outstanding_requests as usize,
        );
        let mut layout = IntermediateLayout::new(w.a.nrows());
        let kernel = MultiplyKernel::new(&w.a, &w.b, &mut layout);
        let (stats, bd) = engine::run_kernel_observed(cfg, &mut mem, &mut pes, kernel, &mut obs)?;
        ms.windows_sampled += 1;
        ms.busy += bd.busy_cycles;
        ms.total_pe += bd.total_pe_cycles();
        ms.occ_weighted += bd.mean_channel_occupancy() * w.ep as f64;
        ms.occ_ep += w.ep;
        if w.heavy {
            ms.heavy_ep_sim += w.ep_sim;
            // Extrapolate within the window: its own exact work over the
            // work the row-subsample kept.
            add_stats(&mut ms.heavy, &scale_stats(&stats, w.ep, w.ep_sim));
        } else {
            ms.ratios.push(stats.cycles as f64 / w.ep as f64);
            ms.light_ep_sampled += w.ep_sim;
            add_stats(&mut ms.light, &stats);
        }
    }
    Ok(ms)
}

/// SpArch-analog multiply from row-sampled operands: the prepared row
/// groups (every stride-th non-empty `A` row, split into a few interleaved
/// groups), each run against the *full* `B` and extrapolated by exact
/// work weight, with the group-to-group cycle ratios feeding the error
/// bar.
///
/// Row sampling preserves what makes the SpArch multiply expensive:
/// condensed column `k` of a row sample is a row-subset of the full
/// operand's condensed column `k`, so the leaf widths, the per-entry
/// `B`-row stream lengths and the spill regime all survive. A k-column
/// window — the OuterSPACE sampler's unit — preserves none of them once
/// re-condensed, which was observed as a spill-regime-dependent ~20%
/// underestimate on wide merge trees. Hub rows need no heavy stratum
/// here: a hub's products spread across its condensed columns and
/// parallelise like any other work, so systematic row sampling carries
/// no ratio-estimator skew.
fn sample_multiply_sparch(
    ctx: &MultiplyCtx<'_>,
    prep: &SparchPrep,
    spilled: bool,
    probe: &mut dyn AbortProbe,
) -> Result<MultiplySample, SimError> {
    let (cfg, b) = (ctx.cfg, ctx.b);
    let mut ms = MultiplySample {
        windows_total: prep.groups_total,
        light_ep_total: ctx.total_ep,
        ..MultiplySample::default()
    };
    let mut fit_pts: Vec<(f64, f64)> = Vec::with_capacity(prep.groups.len());
    for (condensed, ep) in &prep.groups {
        let ep = *ep;
        ms.windows_nonempty += 1;
        let so_far = ctx.base_cycles + ms.light.cycles;
        if probe.should_abort(so_far) {
            return Err(SimError::Aborted { phase: "interval", frontier: so_far });
        }
        let mut mem = MemorySystem::for_multiply(cfg);
        let mut obs = EngineAbort { offset: so_far, probe: &mut *probe };
        let mut pes = PeArray::new(
            cfg.sparch_mul_pes.max(1) as usize,
            1,
            cfg.outstanding_requests as usize,
        );
        // Run in the full run's spill regime: partials round-trip DRAM
        // iff the full leaf set exceeds the tree.
        let kernel = CondensedMultiplyKernel::new(condensed, b, spilled);
        let (stats, bd) = engine::run_kernel_observed(cfg, &mut mem, &mut pes, kernel, &mut obs)?;
        ms.windows_sampled += 1;
        ms.busy += bd.busy_cycles;
        ms.total_pe += bd.total_pe_cycles();
        ms.occ_weighted += bd.mean_channel_occupancy() * ep as f64;
        ms.occ_ep += ep;
        ms.ratios.push(stats.cycles as f64 / ep as f64);
        ms.light_ep_sampled += ep;
        fit_pts.push((ep as f64, stats.cycles as f64));
        add_stats(&mut ms.light, &stats);
    }

    // Intercept-corrected cycle extrapolation: each group run pays a
    // fill/drain cost the full (single-kernel) run pays only once, and
    // plain ratio scaling multiplies it by the sampling factor (observed
    // as a ~1.7x overshoot on light workloads). The geometric group sizes
    // span a wide enough range to fit `cycles = c0 + m * work` by least
    // squares; the full multiply is then `c0 + m * total_work`, encoded by
    // adjusting `light.cycles` so the caller's work-ratio scaling lands on
    // exactly that value. Degenerate fits (non-positive slope or
    // intercept) keep the plain conservative scaling.
    if fit_pts.len() >= 2 && ms.light_ep_sampled < ctx.total_ep {
        let n = fit_pts.len() as f64;
        let wbar = fit_pts.iter().map(|p| p.0).sum::<f64>() / n;
        let cbar = fit_pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = fit_pts.iter().map(|p| (p.0 - wbar) * (p.0 - wbar)).sum();
        let sxy: f64 = fit_pts.iter().map(|p| (p.0 - wbar) * (p.1 - cbar)).sum();
        if sxx > 0.0 {
            let slope = sxy / sxx;
            let c0 = cbar - slope * wbar;
            if slope > 0.0 && c0 >= 0.0 {
                let fit = (c0 + slope * ctx.total_ep as f64).round() as u64;
                ms.light.cycles = scale_u64(fit, ms.light_ep_sampled, ctx.total_ep);
            }
        }
    }
    Ok(ms)
}

/// Estimates a full `C = A x B` run on `cfg` from structurally derived
/// non-multiply phases plus a sampled multiply: column windows (all heavy
/// windows, every stride-th light window) for OuterSPACE, interleaved
/// `A`-row groups for the SpArch analog. A one-off [`estimate_prepared`]:
/// callers that estimate one workload under many configurations should
/// build its [`Prepared`] once instead.
///
/// See the module docs for the methodology. `probe` receives monotone
/// lower bounds on the final estimated total cycles and may abort the
/// point; pass [`NoAbortProbe`] to disable.
///
/// # Errors
///
/// Shape mismatch ([`SimError::Sparse`]), fault-injection failures from
/// the underlying phase simulations, or [`SimError::Aborted`] from the
/// probe.
///
/// # Panics
///
/// Panics if `opts.windows` or `opts.stride` is zero.
pub fn estimate_spgemm(
    cfg: &OuterSpaceConfig,
    a: &Csr,
    b: &Csr,
    opts: &IntervalOpts,
    probe: &mut dyn AbortProbe,
) -> Result<IntervalEstimate, SimError> {
    estimate_prepared(cfg, a, b, &Prepared::new(a, b, opts)?, probe)
}

/// [`estimate_spgemm`] on a [`Prepared`] workload at its sampling
/// parameters: runs only the configuration-dependent work — the
/// conversion, merge and sampled multiply engines, the SpArch analog's
/// Huffman fit for this tree's arity, and the extrapolation — building
/// the machine's part of `prep` first if no earlier estimate did.
///
/// # Errors
///
/// As [`estimate_spgemm`], plus a merge row with more than `u32::MAX`
/// collisions ([`SimError::MergeCountOverflow`]) when the OuterSPACE part
/// is built.
///
/// # Panics
///
/// Panics if `a` and `b` are not the operands `prep` was built from.
pub fn estimate_prepared(
    cfg: &OuterSpaceConfig,
    a: &Csr,
    b: &Csr,
    prep: &Prepared,
    probe: &mut dyn AbortProbe,
) -> Result<IntervalEstimate, SimError> {
    prep.check_operands(a, b);
    let total_ep = prep.total_ep;

    // Conversion is cheap relative to multiply: simulate it exactly
    // (OuterSPACE only, and only when a full run would charge it).
    let convert_stats = if cfg.machine == MachineKind::OuterSpace && !prep.skipped_symmetric {
        Some(convert::simulate_convert(cfg, a)?)
    } else {
        None
    };
    let convert_cycles = convert_stats.as_ref().map_or(0, |s| s.cycles);

    // Structural non-multiply phases seed the abort lower bound before
    // any engine run; multiply is then sampled machine-specifically
    // (column windows for OuterSPACE, row groups for the SpArch analog).
    let (exact, ms) = match cfg.machine {
        MachineKind::OuterSpace => {
            let part = prep.outerspace(a, b)?;
            let exact = structural_merge_outerspace(cfg, part.merge.as_ref())?;
            let base_cycles = convert_cycles + exact.merge.cycles;
            if probe.should_abort(base_cycles) {
                return Err(SimError::Aborted { phase: "interval", frontier: base_cycles });
            }
            let ctx = MultiplyCtx { cfg, b, total_ep, base_cycles };
            let ms = sample_multiply_outerspace(&ctx, &part.windows, probe)?;
            (exact, ms)
        }
        MachineKind::SpArch => {
            let part = prep.sparch(a, b);
            let exact = structural_merge_sparch(cfg, part)?;
            let base_cycles = convert_cycles + exact.merge.cycles;
            if probe.should_abort(base_cycles) {
                return Err(SimError::Aborted { phase: "interval", frontier: base_cycles });
            }
            let ctx = MultiplyCtx { cfg, b, total_ep, base_cycles };
            let ms = sample_multiply_sparch(&ctx, part, exact.spilled, probe)?;
            (exact, ms)
        }
    };
    let work_sampled = ms.heavy_ep_sim + ms.light_ep_sampled;

    // Extrapolate the light tail by work weight; heavy windows were
    // already extrapolated within themselves. An all-empty matrix
    // short-circuits to a zero-work (convert-only) report.
    let (num, den) = if ms.light_ep_sampled == 0 {
        (0, 1)
    } else {
        (ms.light_ep_total, ms.light_ep_sampled)
    };
    let light_scaled = scale_stats(&ms.light, num, den);
    let mut multiply = ms.heavy;
    add_stats(&mut multiply, &light_scaled);

    // Sampling error bar: spread of multiply cycles-per-product across the
    // sampled light units, weighted by the extrapolated (light) share of
    // the total estimate — heavy windows, convert and the heavy merge rows
    // carry no sampling error. Full coverage means no extrapolation, hence
    // no sampling error.
    let total_est = convert_cycles + multiply.cycles + exact.merge.cycles;
    let m = ms.ratios.len();
    let rel_err = if work_sampled == total_ep {
        0.0
    } else if m >= 2 && ms.light.cycles > 0 && total_est > 0 {
        let r_hat = ms.light.cycles as f64 / ms.light_ep_sampled as f64;
        let var = ms.ratios.iter().map(|r| (r - r_hat) * (r - r_hat)).sum::<f64>()
            / (m as f64 - 1.0);
        let mult_rel = 1.96 * var.sqrt() / (r_hat * (m as f64).sqrt());
        mult_rel * light_scaled.cycles as f64 / total_est as f64
    } else {
        0.0
    };

    Ok(IntervalEstimate {
        report: SimReport {
            convert: convert_stats,
            multiply,
            merge: exact.merge,
            config: cfg.clone(),
        },
        result_nnz: exact.result_nnz,
        rel_err,
        windows_total: ms.windows_total,
        windows_nonempty: ms.windows_nonempty,
        windows_sampled: ms.windows_sampled,
        work_total: total_ep,
        work_sampled,
        multiply_busy_share: ms.busy as f64 / ms.total_pe.max(1) as f64,
        merge_busy_share: exact.merge_busy as f64 / exact.merge_total_pe.max(1) as f64,
        hbm_mean_occupancy: if ms.occ_ep == 0 {
            0.0
        } else {
            ms.occ_weighted / ms.occ_ep as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::for_kind;
    use outerspace_gen::{rmat, uniform};

    fn full_cycles(cfg: &OuterSpaceConfig, a: &Csr) -> u64 {
        let pipe = for_kind(cfg.machine).spgemm(cfg, a, a).unwrap();
        let conv = pipe.convert.as_ref().map_or(0, |s| s.cycles);
        conv + pipe.multiply.cycles + pipe.merge.cycles
    }

    #[test]
    fn stride_one_covers_all_work_exactly() {
        let cfg = OuterSpaceConfig::default();
        let a = uniform::matrix(256, 256, 3000, 11);
        let opts = IntervalOpts { windows: 16, stride: 1 };
        let est = estimate_spgemm(&cfg, &a, &a, &opts, &mut NoAbortProbe).unwrap();
        assert_eq!(est.work_sampled, est.work_total);
        assert_eq!(est.windows_sampled, est.windows_nonempty);
        // All work simulated => flops are exact.
        assert_eq!(est.report.multiply.flops, est.work_total);
        assert_eq!(est.rel_err, 0.0, "no extrapolation, but spread still reported");
    }

    #[test]
    fn result_nnz_tracks_the_true_pattern() {
        for machine in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let cfg = OuterSpaceConfig { machine, ..OuterSpaceConfig::default() };
            let a = rmat::graph500(256, 3000, 5);
            let pipe = for_kind(machine).spgemm(&cfg, &a, &a).unwrap();
            let exact_nnz = pipe.c.nnz() as u64;

            // Stride 1 unions every row: OuterSPACE is exact; SpArch lands
            // within the shrink-model granularity of the exact count.
            let full = estimate_spgemm(
                &cfg,
                &a,
                &a,
                &IntervalOpts { windows: 32, stride: 1 },
                &mut NoAbortProbe,
            )
            .unwrap();
            match machine {
                MachineKind::OuterSpace => assert_eq!(full.result_nnz, exact_nnz),
                MachineKind::SpArch => {
                    let err = (full.result_nnz as f64 - exact_nnz as f64).abs()
                        / exact_nnz as f64;
                    assert!(err < 0.02, "{machine:?} result off by {err}");
                }
            }

            // Sampled rows still extrapolate close to the true count.
            let sampled = estimate_spgemm(
                &cfg,
                &a,
                &a,
                &IntervalOpts { windows: 32, stride: 8 },
                &mut NoAbortProbe,
            )
            .unwrap();
            let err =
                (sampled.result_nnz as f64 - exact_nnz as f64).abs() / exact_nnz as f64;
            assert!(err < 0.25, "{machine:?} sampled result off by {err}");
        }
    }

    #[test]
    fn estimate_is_deterministic_and_within_2x_of_full() {
        for machine in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let cfg = OuterSpaceConfig { machine, ..OuterSpaceConfig::default() };
            let a = rmat::graph500(512, 8000, 7);
            let opts = IntervalOpts { windows: 32, stride: 4 };
            let e1 = estimate_spgemm(&cfg, &a, &a, &opts, &mut NoAbortProbe).unwrap();
            let e2 = estimate_spgemm(&cfg, &a, &a, &opts, &mut NoAbortProbe).unwrap();
            assert_eq!(format!("{:?}", e1.report), format!("{:?}", e2.report));
            let est = e1.report.total_cycles() as f64;
            let full = full_cycles(&cfg, &a) as f64;
            let ratio = est / full;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{machine:?}: estimate {est} vs full {full} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn sampled_work_tracks_stride() {
        let cfg = OuterSpaceConfig::default();
        let a = uniform::matrix(512, 512, 6000, 13);
        let coarse = estimate_spgemm(
            &cfg,
            &a,
            &a,
            &IntervalOpts { windows: 64, stride: 16 },
            &mut NoAbortProbe,
        )
        .unwrap();
        // Uniform work has no heavy windows, so systematic 1-in-16
        // sampling covers roughly 1/16 of the products.
        let frac = coarse.work_sampled as f64 / coarse.work_total as f64;
        assert!((0.02..=0.2).contains(&frac), "sampled fraction {frac}");
        assert!(coarse.rel_err > 0.0);
        // The extrapolated flops still land on the exact total (+- rounding).
        let err = (coarse.report.multiply.flops as f64 - coarse.work_total as f64).abs()
            / coarse.work_total as f64;
        assert!(err < 0.02, "flops extrapolation off by {err}");
    }

    #[test]
    fn heavy_windows_survive_any_stride() {
        // A power-law matrix concentrates work in hub columns: those
        // windows must be simulated even when the stride would skip them.
        let cfg = OuterSpaceConfig::default();
        let a = rmat::graph500(512, 8000, 23);
        let est = estimate_spgemm(
            &cfg,
            &a,
            &a,
            &IntervalOpts { windows: 32, stride: 1000 },
            &mut NoAbortProbe,
        )
        .unwrap();
        // Stride >> window count keeps one light window plus every heavy
        // one; the heavy set alone must carry a meaningful work share.
        assert!(est.windows_sampled >= 1);
        let frac = est.work_sampled as f64 / est.work_total as f64;
        assert!(frac > 0.05, "heavy windows cover only {frac} of the work");
    }

    #[test]
    fn synthetic_sparch_schedule_matches_planner_shape() {
        // The synthetic Huffman replay must mirror the functional planner:
        // same op count, same per-op input sizes when fed the real leaf
        // sizes, and a final stream that hits the fitted target.
        let a = rmat::graph500(256, 3000, 29);
        let (_, plan) = outer::spgemm_sparch_with_plan(&a, &a, 16).unwrap();
        let (ops, fin) = fit_sparch_ops(&plan.leaf_elems, 16, plan.result_nnz);
        assert_eq!(ops.len(), plan.ops.len(), "op count diverged");
        assert_eq!(
            ops[0].input_elems.iter().sum::<u64>(),
            plan.ops[0].input_elems.iter().sum::<u64>(),
            "first-op inputs diverged from the planner's selection"
        );
        let err = (fin as f64 - plan.result_nnz as f64).abs() / plan.result_nnz as f64;
        assert!(err < 0.05, "fitted final stream off by {err}");
    }

    #[test]
    fn abort_probe_stops_the_estimate() {
        struct Trip(u64);
        impl AbortProbe for Trip {
            fn should_abort(&mut self, lb: u64) -> bool {
                lb > self.0
            }
        }
        let cfg = OuterSpaceConfig::default();
        let a = uniform::matrix(512, 512, 6000, 17);
        let opts = IntervalOpts { windows: 16, stride: 1 };
        let full = estimate_spgemm(&cfg, &a, &a, &opts, &mut NoAbortProbe).unwrap();
        let budget = full.report.total_cycles() / 20;
        let err = estimate_spgemm(&cfg, &a, &a, &opts, &mut Trip(budget)).unwrap_err();
        match err {
            SimError::Aborted { frontier, .. } => {
                assert!(frontier > budget, "abort fired below its threshold")
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }

    #[test]
    fn shared_preparation_matches_a_fresh_one_per_config() {
        // One `Prepared` serves both machines and every config, in any
        // order; each estimate equals the one-off estimate of its config.
        let a = rmat::graph500(256, 3000, 31);
        let opts = IntervalOpts { windows: 32, stride: 4 };
        let shared = Prepared::new(&a, &a, &opts).unwrap();
        let mut cfgs = Vec::new();
        for (n_tiles, hbm_channels, merge_tree_ways) in [(16, 16, 64), (8, 4, 2), (16, 32, 16)] {
            for machine in [MachineKind::SpArch, MachineKind::OuterSpace] {
                cfgs.push(OuterSpaceConfig {
                    machine,
                    n_tiles,
                    hbm_channels,
                    merge_tree_ways,
                    ..OuterSpaceConfig::default()
                });
            }
        }
        for cfg in &cfgs {
            let from_shared =
                estimate_prepared(cfg, &a, &a, &shared, &mut NoAbortProbe).unwrap();
            let fresh = estimate_spgemm(cfg, &a, &a, &opts, &mut NoAbortProbe).unwrap();
            assert_eq!(format!("{from_shared:?}"), format!("{fresh:?}"), "{cfg:?}");
        }
        let flops = outerspace_sparse::ops::spgemm_flops(&a, &a).unwrap();
        assert_eq!(shared.work_total() * 2, flops);
        assert_eq!(shared.work(), alloc::product_sizes(&a.to_csc(), &a));
    }

    #[test]
    #[should_panic(expected = "operands differ")]
    fn a_preparation_refuses_other_operands() {
        let a = uniform::matrix(64, 64, 300, 3);
        let other = uniform::matrix(64, 64, 301, 4);
        let prep = Prepared::new(&a, &a, &IntervalOpts::default()).unwrap();
        let cfg = OuterSpaceConfig::default();
        let _ = estimate_prepared(&cfg, &other, &other, &prep, &mut NoAbortProbe);
    }

    #[test]
    fn window_slices_partition_the_work() {
        let a = uniform::matrix(128, 128, 900, 19);
        let a_cc = a.to_csc();
        let w1 = csc_col_window(&a_cc, 0, 64);
        let w2 = csc_col_window(&a_cc, 64, 128);
        assert_eq!(w1.nnz() + w2.nnz(), a.nnz());
        assert_eq!(w1.ncols(), 64);
        let r1 = csr_row_window(&a, 0, 64);
        let r2 = csr_row_window(&a, 64, 128);
        assert_eq!(r1.nnz() + r2.nnz(), a.nnz());
        assert_eq!(r2.nrows(), 64);
        assert_eq!(r2.ncols(), 128);
    }
}
