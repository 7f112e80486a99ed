//! Timing model of the merge phase (§5.4.2).
//!
//! The system reconfigures: half the PEs per tile power-gate, the remainder
//! form loader/sorter pairs, and each pair's slice of the L0 becomes a
//! private cache plus a scratchpad holding the streaming merge's working set
//! (one head element per chunk). Rows are dispatched greedily to pairs; the
//! loader streams chunk data while the sorter inserts heads into the sorted
//! working set, so a row's duration is the max of its load and sort times.
//!
//! When a row has more chunks than the scratchpad can hold heads for, the
//! model performs the paper's recursive sub-merge: subsets of chunks are
//! merged into intermediate runs (extra HBM round trips) until the fan-in
//! fits.
//!
//! The phase is an engine kernel: [`MergeKernel`] yields one batch per
//! sub-merge pass (gated on the previous pass through
//! [`crate::engine::Batch::min_start`], fed back via
//! [`crate::engine::Feedback::batch_done`]) and one final batch per row;
//! the shared loop in [`crate::engine`] owns worker dispatch, fault hooks
//! and stat collection.

use outerspace_sparse::{Csr, Index};

use crate::config::OuterSpaceConfig;
use crate::engine::{self, Batch, CycleBreakdown, Feedback, PeCtx, PhaseKernel, Step};
use crate::error::SimError;
use crate::layout::{ChunkRef, IntermediateLayout, ELEM_BYTES, OUT_BASE, SCRATCH_BASE};
use crate::machine::PeArray;
use crate::mem::MemorySystem;
use crate::stats::PhaseStats;

const PHASE: &str = "merge";

/// Per-row merge work description: what the multiply phase produced and
/// what the merged row looks like (from the functional execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct RowMergeInfo {
    /// Entries in the merged result row.
    pub out_len: u32,
    /// Index collisions accumulated while merging this row.
    pub collisions: u32,
}

impl RowMergeInfo {
    /// The checked merge shape of result row `row`: `produced` elementary
    /// products merge down to `out_len` entries of a row `ncols` wide, and
    /// the difference is the row's collisions.
    ///
    /// # Errors
    ///
    /// [`SimError::MergeCountOverflow`] when the collisions exceed `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `out_len > ncols`: a merged row holds at most one entry
    /// per column.
    pub fn checked(
        row: Index,
        produced: u64,
        out_len: u64,
        ncols: Index,
    ) -> Result<RowMergeInfo, SimError> {
        let out_len = u32::try_from(out_len)
            .ok()
            .filter(|&n| n <= ncols)
            .expect("a merged row holds at most ncols entries");
        let excess = produced.saturating_sub(u64::from(out_len));
        let collisions = u32::try_from(excess)
            .map_err(|_| SimError::MergeCountOverflow { row, collisions: excess })?;
        Ok(RowMergeInfo { out_len, collisions })
    }
}

/// Per-row merge shapes of `layout` given the merged result `c`: each row's
/// output length, and its collisions as the elements the layout holds for
/// the row minus that length ([`RowMergeInfo::checked`]).
///
/// # Errors
///
/// [`SimError::MergeCountOverflow`] when a row's collisions exceed `u32`.
///
/// # Panics
///
/// Panics if `c` and `layout` disagree on the row count.
pub fn row_merge_infos(
    layout: &IntermediateLayout,
    c: &Csr,
) -> Result<Vec<RowMergeInfo>, SimError> {
    assert_eq!(c.nrows(), layout.nrows(), "result rows must align with the layout");
    (0..layout.nrows())
        .map(|i| {
            let produced: u64 = layout.row(i).iter().map(|ch| ch.len).sum();
            RowMergeInfo::checked(i, produced, c.row_nnz(i) as u64, c.ncols())
        })
        .collect()
}

/// One merge pass on one worker pair: stream `chunks` in, sort, write
/// `out_elems` to `out_addr`.
#[derive(Debug, Clone)]
pub(crate) struct MergePassItem {
    chunks: Vec<ChunkRef>,
    out_addr: u64,
    out_elems: u64,
}

/// The pass's memory script. The loader PE streams every chunk's blocks
/// through the private cache; the sorter PE runs concurrently, so the
/// pair's occupancy for the pass is max(load-issue time, sort time) — not
/// their sum. The sorted-list insert is log-depth in the fan-in (the
/// swizzle-switch comparator network). The pair does not stall for the
/// final block to arrive: the dependency rides in the outstanding queue
/// ([`PeCtx::track_tail`]), back-pressuring only when 64 rows are in flight
/// (§5.4.2: the scratchpad buffer "can help hide the latency of inserting
/// elements ... under the latency of grabbing a new element from main
/// memory").
fn merge_pass_script(item: &MergePassItem, ctx: &mut PeCtx<'_>) {
    let t0 = ctx.time();
    let total_elems: u64 = item.chunks.iter().map(|c| c.len).sum();
    for c in &item.chunks {
        if c.len == 0 {
            continue;
        }
        ctx.read_stream(c.addr, c.len * ELEM_BYTES);
    }
    let insert_cost = (u64::BITS - (item.chunks.len() as u64).leading_zeros()) as u64;
    ctx.wait_busy_until(t0 + total_elems * insert_cost.max(1));
    // Store the merged run (posted, after the operands exist).
    ctx.store_stream(item.out_addr, item.out_elems * ELEM_BYTES);
    ctx.track_tail();
}

/// Engine kernel for the merge phase. Walks rows of the intermediate
/// layout; for each non-empty row it emits recursive sub-merge passes until
/// the fan-in fits the scratchpad, then the final pass that writes the
/// merged result row. Groups within a pass are independent, so they fan out
/// across worker pairs; the next pass cannot start before all of them
/// finish — expressed as the batch's `min_start`, fed from the engine's
/// `batch_done` feedback.
#[derive(Debug)]
pub(crate) struct MergeKernel<'a> {
    layout: &'a IntermediateLayout,
    rows: &'a [RowMergeInfo],
    head_cap: usize,
    n_workers: u32,
    row: usize,
    in_row: bool,
    current: Vec<ChunkRef>,
    out_len: u64,
    row_ready: u64,
    awaiting_pass: bool,
    scratch_bump: u64,
    out_cursor: u64,
    flops: u64,
    work_items: u64,
}

impl<'a> MergeKernel<'a> {
    pub(crate) fn new(
        cfg: &OuterSpaceConfig,
        layout: &'a IntermediateLayout,
        rows: &'a [RowMergeInfo],
        n_workers: usize,
    ) -> Self {
        MergeKernel {
            layout,
            rows,
            head_cap: cfg.merge_head_capacity().max(2),
            // The worker count is `n_tiles × merge_pairs_per_tile`, and the
            // caller allocated one timeline per worker: far below u32::MAX.
            n_workers: u32::try_from(n_workers).expect("merge worker counts fit u32"),
            row: 0,
            in_row: false,
            current: Vec::new(),
            out_len: 0,
            row_ready: 0,
            awaiting_pass: false,
            scratch_bump: SCRATCH_BASE,
            out_cursor: OUT_BASE,
            flops: 0,
            work_items: 0,
        }
    }
}

impl PhaseKernel for MergeKernel<'_> {
    type Item = MergePassItem;

    fn phase(&self) -> &'static str {
        PHASE
    }

    fn pe_class(&self) -> &'static str {
        "merge_worker"
    }

    fn next(&mut self, fb: &Feedback) -> Step<MergePassItem> {
        if self.awaiting_pass {
            // The sub-merge pass just finished; its runs exist from
            // `batch_done` on.
            self.row_ready = fb.batch_done;
            self.awaiting_pass = false;
        }
        if !self.in_row {
            while self.row < self.rows.len() {
                let i = self.row;
                self.row += 1;
                let chunks = self.layout.row(i as u32);
                if chunks.is_empty() {
                    continue;
                }
                self.current = chunks.to_vec();
                self.out_len = self.rows[i].out_len as u64;
                self.row_ready = 0;
                self.work_items += 1;
                self.flops += self.rows[i].collisions as u64;
                self.in_row = true;
                break;
            }
            if !self.in_row {
                return Step::Done;
            }
        }
        if self.current.len() > self.head_cap {
            // Sub-merge pass: groups of head_cap chunks collapse into
            // intermediate runs in the scratch arena.
            let n_groups = self.current.len() / self.head_cap + 1;
            let mut items = Vec::with_capacity(n_groups);
            let mut next_refs = Vec::with_capacity(n_groups);
            for group in self.current.chunks(self.head_cap) {
                let total: u64 = group.iter().map(|c| c.len).sum();
                items.push(MergePassItem {
                    chunks: group.to_vec(),
                    out_addr: self.scratch_bump,
                    out_elems: total,
                });
                next_refs.push(ChunkRef { addr: self.scratch_bump, len: total });
                self.scratch_bump += total * ELEM_BYTES;
            }
            self.current = next_refs;
            self.awaiting_pass = true;
            return Step::Batch(Batch { items, min_start: self.row_ready });
        }
        // Final pass writes the merged result row.
        let item = MergePassItem {
            chunks: std::mem::take(&mut self.current),
            out_addr: self.out_cursor,
            out_elems: self.out_len,
        };
        self.out_cursor += self.out_len * ELEM_BYTES;
        self.in_row = false;
        Step::Batch(Batch { items: vec![item], min_start: self.row_ready })
    }

    fn execute(&mut self, item: &MergePassItem, ctx: &mut PeCtx<'_>) {
        merge_pass_script(item, ctx);
    }

    fn finish(&mut self, stats: &mut PhaseStats) {
        stats.flops = self.flops;
        stats.work_items = self.work_items;
        stats.active_pes = stats.active_pes.min(self.n_workers);
    }
}

/// Simulates the merge phase over the intermediate `layout`, with per-row
/// output shapes in `rows` (index-aligned with the layout's rows).
///
/// # Errors
///
/// Fault injection only: every PE dead, an access out of retries, or a
/// watchdog timeout ([`SimError`]). Fault-free configurations cannot fail.
///
/// # Panics
///
/// Panics if `rows.len() != layout.nrows()`.
pub fn simulate_merge(
    cfg: &OuterSpaceConfig,
    layout: &IntermediateLayout,
    rows: &[RowMergeInfo],
) -> Result<PhaseStats, SimError> {
    simulate_merge_with_breakdown(cfg, layout, rows).map(|(stats, _)| stats)
}

/// [`simulate_merge`] plus the hierarchical [`CycleBreakdown`] for the
/// merge-worker class (the Fig. 12 utilization accounting).
///
/// # Errors
///
/// As [`simulate_merge`].
///
/// # Panics
///
/// As [`simulate_merge`].
pub fn simulate_merge_with_breakdown(
    cfg: &OuterSpaceConfig,
    layout: &IntermediateLayout,
    rows: &[RowMergeInfo],
) -> Result<(PhaseStats, CycleBreakdown), SimError> {
    assert_eq!(rows.len(), layout.nrows() as usize, "row info must align with layout");
    let mut mem = MemorySystem::for_merge(cfg);
    let n_workers = (cfg.n_tiles * cfg.merge_pairs_per_tile()) as usize;
    // Each worker pair acts as one dispatchable unit.
    let mut pes = PeArray::new(n_workers, 1, cfg.outstanding_requests as usize);
    let kernel = MergeKernel::new(cfg, layout, rows, n_workers);
    engine::run_kernel(cfg, &mut mem, &mut pes, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::multiply::simulate_multiply;
    use outerspace_gen::uniform;

    /// Simulates the multiply phase of `a × a` and derives per-row merge
    /// info from the product.
    fn layout_and_rows(a: &Csr) -> (IntermediateLayout, Vec<RowMergeInfo>) {
        let cfg = OuterSpaceConfig::default();
        let (_, layout) = simulate_multiply(&cfg, &a.to_csc(), a).unwrap();
        let c = outerspace_outer::spgemm(a, a).unwrap();
        let rows = row_merge_infos(&layout, &c).unwrap();
        (layout, rows)
    }

    fn setup(n: u32, nnz: usize, seed: u64) -> (IntermediateLayout, Vec<RowMergeInfo>) {
        layout_and_rows(&uniform::matrix(n, n, nnz, seed))
    }

    #[test]
    fn row_infos_split_produced_elements_into_output_and_collisions() {
        let (layout, rows) = setup(64, 800, 4);
        for (i, info) in rows.iter().enumerate() {
            let produced: u64 = layout.row(i as u32).iter().map(|ch| ch.len).sum();
            assert_eq!(u64::from(info.out_len) + u64::from(info.collisions), produced);
        }
    }

    #[test]
    fn collision_overflow_is_a_typed_error() {
        // Two chunks whose lengths sum past u32::MAX in one row; the layout
        // stores only chunk references, so no element memory is needed.
        let mut layout = IntermediateLayout::new(2);
        layout.alloc_chunk(1, u32::MAX);
        layout.alloc_chunk(1, 2);
        let c = Csr::zero(2, 4);
        let err = row_merge_infos(&layout, &c).unwrap_err();
        let want = SimError::MergeCountOverflow { row: 1, collisions: u64::from(u32::MAX) + 2 };
        assert_eq!(err, want);
    }

    #[test]
    fn submerge_runs_longer_than_u32_keep_their_length() {
        // One row with more chunks than the scratchpad holds heads for, so
        // the kernel emits a sub-merge pass whose first group totals more
        // than u32::MAX elements. The layout stores only chunk references,
        // so no element memory is needed.
        let cfg = OuterSpaceConfig::default();
        let head_cap = cfg.merge_head_capacity();
        let mut layout = IntermediateLayout::new(1);
        layout.alloc_chunk(0, u32::MAX);
        layout.alloc_chunk(0, u32::MAX);
        for _ in 2..=head_cap {
            layout.alloc_chunk(0, 1);
        }
        let group_total = 2 * u64::from(u32::MAX) + (head_cap as u64 - 2);
        let rows = [RowMergeInfo { out_len: 4, collisions: 0 }];
        let mut kernel = MergeKernel::new(&cfg, &layout, &rows, 1);
        let Step::Batch(pass) = kernel.next(&Feedback::default()) else {
            panic!("a row of {} chunks needs a sub-merge pass", head_cap + 1);
        };
        assert_eq!(pass.items.len(), 2);
        assert_eq!(pass.items[0].out_elems, group_total);
        let Step::Batch(last) = kernel.next(&Feedback { batch_done: 100 }) else {
            panic!("the final pass follows the sub-merge");
        };
        assert_eq!(last.min_start, 100);
        let run_lens: Vec<u128> = last.items[0].chunks.iter().map(|c| u128::from(c.len)).collect();
        assert_eq!(run_lens, [u128::from(group_total), 1], "the sub-merge run must not wrap");
    }

    #[test]
    fn checked_row_info_splits_products_and_rejects_overflow() {
        let info = RowMergeInfo::checked(3, 10, 4, 8).unwrap();
        assert_eq!((info.out_len, info.collisions), (4, 6));
        // Fewer products than outputs saturates to zero collisions.
        let info = RowMergeInfo::checked(3, 2, 4, 8).unwrap();
        assert_eq!((info.out_len, info.collisions), (4, 0));
        let max = u64::from(u32::MAX);
        let info = RowMergeInfo::checked(0, max + 8, 8, 8).unwrap();
        assert_eq!(info.collisions, u32::MAX);
        let err = RowMergeInfo::checked(7, max + 9, 8, 8).unwrap_err();
        assert_eq!(err, SimError::MergeCountOverflow { row: 7, collisions: max + 1 });
    }

    #[test]
    #[should_panic(expected = "at most ncols entries")]
    fn checked_row_info_rejects_rows_wider_than_the_matrix() {
        let _ = RowMergeInfo::checked(0, 10, 9, 8);
    }

    #[test]
    fn merge_reads_what_multiply_wrote() {
        let (layout, rows) = setup(128, 1000, 1);
        let cfg = OuterSpaceConfig::default();
        let stats = simulate_merge(&cfg, &layout, &rows).unwrap();
        // Block-granular reads must cover the intermediate arena.
        assert!(stats.hbm_read_bytes >= layout.total_elements() * ELEM_BYTES / 2);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn collisions_become_merge_flops() {
        let (layout, rows) = setup(64, 800, 2);
        let cfg = OuterSpaceConfig::default();
        let stats = simulate_merge(&cfg, &layout, &rows).unwrap();
        let want: u64 = rows.iter().map(|r| r.collisions as u64).sum();
        assert_eq!(stats.flops, want);
    }

    #[test]
    fn deep_fanin_triggers_recursive_submerge() {
        // One row receiving many chunks: force fan-in beyond the 170-head
        // scratchpad via a dense column of A.
        let n = 512u32;
        let mut coo = outerspace_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, 0, 1.0); // col 0 dense
            coo.push(0, i, 1.0); // row 0 dense
        }
        let a = coo.to_csr();
        let cfg = OuterSpaceConfig::default();
        let (layout, rows) = layout_and_rows(&a);
        assert!(layout.row(0).len() > cfg.merge_head_capacity());
        let stats = simulate_merge(&cfg, &layout, &rows).unwrap();
        // Sub-merge passes re-read intermediate data: traffic must exceed a
        // single pass over the arena.
        assert!(stats.hbm_read_bytes > layout.total_elements() * ELEM_BYTES);
    }

    #[test]
    fn empty_layout_is_free() {
        let layout = IntermediateLayout::new(16);
        let rows = vec![RowMergeInfo::default(); 16];
        let cfg = OuterSpaceConfig::default();
        let stats = simulate_merge(&cfg, &layout, &rows).unwrap();
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.work_items, 0);
    }

    #[test]
    fn worker_count_respects_power_gating() {
        let (layout, rows) = setup(256, 4000, 3);
        let cfg = OuterSpaceConfig::default();
        let stats = simulate_merge(&cfg, &layout, &rows).unwrap();
        // 16 tiles x 4 pairs = 64 workers maximum.
        assert!(stats.active_pes <= 64);
        assert!(stats.active_pes > 16);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_row_info_panics() {
        let layout = IntermediateLayout::new(4);
        let cfg = OuterSpaceConfig::default();
        let _ = simulate_merge(&cfg, &layout, &[]);
    }

    #[test]
    fn submerge_dependency_shows_up_as_idle_cycles() {
        // The deep-fanin workload serializes passes per row: workers gated
        // on min_start must accumulate idle cycles in the breakdown.
        let n = 512u32;
        let mut coo = outerspace_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, 0, 1.0);
            coo.push(0, i, 1.0);
        }
        let a = coo.to_csr();
        let cfg = OuterSpaceConfig::default();
        let (layout, rows) = layout_and_rows(&a);
        let (stats, bd) = simulate_merge_with_breakdown(&cfg, &layout, &rows).unwrap();
        assert_eq!(bd.pe_class, "merge_worker");
        assert_eq!(bd.n_pes, 64);
        assert_eq!(bd.makespan, stats.cycles);
        assert_eq!(
            bd.busy_cycles + bd.stall_cycles() + bd.idle_cycles,
            bd.total_pe_cycles()
        );
        assert!(bd.idle_cycles > 0, "pass gating must leave workers idle");
    }
}
