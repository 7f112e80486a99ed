//! The merge phase (§4.2, §5.4.2): combine partial products into the result.
//!
//! Each result row is processed independently (the phase with *no* data
//! sharing, which OuterSPACE exploits by reconfiguring its caches into
//! private scratchpads). Three strategies are provided:
//!
//! * [`MergeKind::Streaming`] — the paper's algorithm: keep one *head*
//!   element per chunk in a sorted working set, repeatedly emit the smallest
//!   column index (summing collisions) and refill from that chunk. Local
//!   memory holds only `O(chunks)` elements, minimizing traffic; total work
//!   is `O(r³N³)` in the paper's uniform-density notation.
//! * [`MergeKind::SortBased`] — the algorithmically-cheaper alternative the
//!   paper rejects (§5.4.2): concatenate every chunk and sort
//!   (`O(rN log rN)` per row), at the cost of holding entire rows in local
//!   memory. Kept as the ablation baseline.
//! * [`MergeKind::Blocked`] — the software raw-speed variant: scatter each
//!   chunk segment into a dense accumulator covering one
//!   [`MERGE_BLOCK_COLS`]-column block (an L1-resident scratchpad, the
//!   software analogue of the paper's reconfigured caches), using
//!   generation stamps so the scratch is reused across rows without
//!   clearing. Per element this costs one array write instead of one heap
//!   sift, at `O(block)` local memory.
//!
//! All three accumulate collisions in chunk-index-ascending order, so for a
//! given intermediate their floating-point results are **bitwise
//! identical** — the property that lets the differential oracle and the
//! determinism tests use exact equality across variants and thread counts.

use std::borrow::Borrow;
use std::collections::BinaryHeap;

use outerspace_sparse::{Csr, Index, Value};

use crate::arena::ArenaProducts;
use crate::worksteal::WorkStealQueues;

/// Which merge algorithm to run. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// The paper's streaming multi-way merge.
    Streaming,
    /// Concatenate-and-sort ablation baseline.
    SortBased,
    /// Cache-blocked dense-accumulator merge (software fast path, used by
    /// the SpGEMM drivers).
    Blocked,
}

/// Columns covered by one blocked-merge accumulator block: 4096 columns of
/// (value, stamp) occupy 48 KiB — sized to sit in L1 alongside the chunk
/// cursors being streamed through it.
pub const MERGE_BLOCK_COLS: usize = 4096;

/// Result rows per parallel work item. Rows are batched so the stitch pass
/// handles `nrows / MERGE_ROW_BATCH` fragments instead of `nrows`, and so
/// one blocked-merge scratchpad serves a whole batch while it stays warm.
const MERGE_ROW_BATCH: u32 = 256;

/// Counters captured during a merge phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Entries in the merged result.
    pub output_entries: u64,
    /// Elementary additions performed (index collisions across outer
    /// products; rare for very sparse matrices, §4.2).
    pub collisions: u64,
    /// Bytes streamed in from the intermediate structure (12 B per element).
    pub bytes_read: u64,
    /// Bytes written to the result (12 B per element).
    pub bytes_written: u64,
    /// Working-set insertions (list/heap sort steps) — the hardware sort
    /// cost the simulator's merge model charges per element.
    pub sort_steps: u64,
}

impl MergeStats {
    fn absorb(&mut self, o: MergeStats) {
        self.output_entries += o.output_entries;
        self.collisions += o.collisions;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.sort_steps += o.sort_steps;
    }
}

/// Upper bound on merged output entries, used to pre-size the result
/// arrays: the output can be no larger than the intermediate
/// (`total_entries`) and no larger than a dense result (`nrows × ncols`).
///
/// This is the fix for the re-allocation churn audit (ISSUE 8 satellite):
/// `merge` previously grew its `cols`/`vals` output through the doubling
/// schedule — up to ~log₂(nnz) reallocation-plus-copy cycles of the entire
/// result. The dense cap uses saturating arithmetic: `u32 × u32` products
/// up to 2⁶⁴ must not overflow `usize` on 32-bit targets.
pub(crate) fn output_capacity_hint(
    total_entries: usize,
    nrows: Index,
    ncols: Index,
) -> usize {
    total_entries.min((nrows as usize).saturating_mul(ncols as usize))
}

/// Merges all rows of the intermediate sequentially with the chosen
/// algorithm, producing the final CSR result. Takes the arena by value or
/// by reference; nothing is consumed, so callers can compare merge
/// variants on identical input.
pub fn merge(ap: impl Borrow<ArenaProducts>, kind: MergeKind) -> (Csr, MergeStats) {
    let ap = ap.borrow();
    merge_rows(ap.nrows(), ap.ncols(), ap.total_entries(), kind, |i, chunks| {
        chunks.extend(ap.row_chunk_slices(i));
    })
}

/// Merges rows with `n_threads` workers over work-stealing row-batch
/// queues (see [`crate::worksteal`]), then stitches the per-batch outputs
/// in batch order — so the result is identical to [`merge`] for every
/// thread count.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn merge_parallel(
    ap: impl Borrow<ArenaProducts>,
    kind: MergeKind,
    n_threads: usize,
) -> (Csr, MergeStats) {
    let ap = ap.borrow();
    merge_batches_parallel(ap.nrows(), ap.ncols(), n_threads, &|i, cols, vals, blocked| {
        let scratch: Vec<(&[Index], &[Value])> = ap.row_chunk_slices(i).collect();
        merge_row(&scratch, kind, cols, vals, blocked)
    })
}

/// Shared sequential-merge skeleton: `row_chunks(i, chunks)` lists row
/// `i`'s chunks into the (cleared) `chunks` buffer, and each row is merged
/// with `kind` in row order. `total_entries` pre-sizes the output (see
/// [`output_capacity_hint`]).
pub(crate) fn merge_rows<'a>(
    nrows: Index,
    ncols: Index,
    total_entries: usize,
    kind: MergeKind,
    mut row_chunks: impl FnMut(Index, &mut Vec<(&'a [Index], &'a [Value])>),
) -> (Csr, MergeStats) {
    let hint = output_capacity_hint(total_entries, nrows, ncols);
    let mut row_ptr = Vec::with_capacity(nrows as usize + 1);
    row_ptr.push(0usize);
    let mut cols: Vec<Index> = Vec::with_capacity(hint);
    let mut vals: Vec<Value> = Vec::with_capacity(hint);
    let mut stats = MergeStats::default();
    let mut blocked = BlockedMerger::new();
    let mut scratch: Vec<(&[Index], &[Value])> = Vec::new();
    for i in 0..nrows {
        scratch.clear();
        row_chunks(i, &mut scratch);
        let s = merge_row(&scratch, kind, &mut cols, &mut vals, &mut blocked);
        stats.absorb(s);
        row_ptr.push(cols.len());
    }
    (Csr::from_raw_parts_unchecked(nrows, ncols, row_ptr, cols, vals), stats)
}

/// Shared parallel-merge skeleton: workers pull [`MERGE_ROW_BATCH`]-row
/// batches from work-stealing queues, merge each row via `merge_one` into
/// batch-local buffers, and the batches are stitched in index order.
/// `merge_one(i, cols, vals, blocked)` appends row `i`'s merged entries.
pub(crate) fn merge_batches_parallel<F>(
    nrows: Index,
    ncols: Index,
    n_threads: usize,
    merge_one: &F,
) -> (Csr, MergeStats)
where
    F: Fn(Index, &mut Vec<Index>, &mut Vec<Value>, &mut BlockedMerger) -> MergeStats + Sync,
{
    assert!(n_threads > 0, "need at least one thread");
    let n_batches = nrows.div_ceil(MERGE_ROW_BATCH);
    let queues = WorkStealQueues::split(n_batches, n_threads);

    type BatchOut = (u32, Vec<usize>, Vec<Index>, Vec<Value>, MergeStats);
    let mut outputs: Vec<BatchOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|me| {
                let queues = &queues;
                scope.spawn(move || {
                    let mut done: Vec<BatchOut> = Vec::new();
                    let mut blocked = BlockedMerger::new();
                    // Batches are already 256 rows; grain 1 maximizes balance.
                    while let Some((lo, hi)) = queues.take(me, 1) {
                        for batch in lo..hi {
                            let row_lo = batch * MERGE_ROW_BATCH;
                            let row_hi = (row_lo + MERGE_ROW_BATCH).min(nrows);
                            let mut cols = Vec::new();
                            let mut vals = Vec::new();
                            let mut sizes =
                                Vec::with_capacity((row_hi - row_lo) as usize);
                            let mut stats = MergeStats::default();
                            for i in row_lo..row_hi {
                                let before = cols.len();
                                let s = merge_one(i, &mut cols, &mut vals, &mut blocked);
                                stats.absorb(s);
                                sizes.push(cols.len() - before);
                            }
                            done.push((batch, sizes, cols, vals, stats));
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    outputs.sort_by_key(|&(idx, ..)| idx);
    let total: usize = outputs.iter().map(|(_, _, c, ..)| c.len()).sum();
    let mut row_ptr = Vec::with_capacity(nrows as usize + 1);
    row_ptr.push(0usize);
    let mut cols: Vec<Index> = Vec::with_capacity(total);
    let mut vals: Vec<Value> = Vec::with_capacity(total);
    let mut stats = MergeStats::default();
    for (_, sizes, bcols, bvals, s) in outputs {
        for size in sizes {
            let base = *row_ptr.last().expect("non-empty");
            row_ptr.push(base + size);
        }
        cols.extend_from_slice(&bcols);
        vals.extend_from_slice(&bvals);
        stats.absorb(s);
    }
    (Csr::from_raw_parts_unchecked(nrows, ncols, row_ptr, cols, vals), stats)
}

/// Merges one row's chunks, appending the combined entries to `cols`/`vals`.
pub(crate) fn merge_row(
    chunks: &[(&[Index], &[Value])],
    kind: MergeKind,
    cols: &mut Vec<Index>,
    vals: &mut Vec<Value>,
    blocked: &mut BlockedMerger,
) -> MergeStats {
    match kind {
        MergeKind::Streaming => merge_row_streaming(chunks, cols, vals),
        MergeKind::SortBased => merge_row_sort(chunks, cols, vals),
        MergeKind::Blocked => blocked.merge_row(chunks, cols, vals),
    }
}

/// Head entry in the streaming working set: smallest column first.
#[derive(PartialEq, Eq)]
struct Head {
    col: Index,
    chunk: u32,
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the minimum column.
        other.col.cmp(&self.col).then(other.chunk.cmp(&self.chunk))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn merge_row_streaming(
    chunks: &[(&[Index], &[Value])],
    cols: &mut Vec<Index>,
    vals: &mut Vec<Value>,
) -> MergeStats {
    let mut stats = MergeStats::default();
    // Step 1 (§5.4.2): fetch the head of each chunk into the sorted working
    // set. Only one element per chunk is ever resident.
    let mut heads = BinaryHeap::with_capacity(chunks.len());
    let mut cursor = vec![0usize; chunks.len()];
    for (ci, &(ccols, _)) in chunks.iter().enumerate() {
        if !ccols.is_empty() {
            heads.push(Head { col: ccols[0], chunk: ci as u32 });
            stats.sort_steps += 1;
            stats.bytes_read += 12;
        }
    }
    // Steps 2-3: repeatedly emit the smallest column, accumulating
    // collisions, and refill from the source chunk.
    let mut current: Option<(Index, Value)> = None;
    while let Some(Head { col, chunk }) = heads.pop() {
        let ci = chunk as usize;
        let pos = cursor[ci];
        let v = chunks[ci].1[pos];
        match current {
            Some((ccol, ref mut acc)) if ccol == col => {
                *acc += v;
                stats.collisions += 1;
            }
            Some((ccol, acc)) => {
                cols.push(ccol);
                vals.push(acc);
                current = Some((col, v));
            }
            None => current = Some((col, v)),
        }
        cursor[ci] += 1;
        if cursor[ci] < chunks[ci].0.len() {
            heads.push(Head { col: chunks[ci].0[cursor[ci]], chunk });
            stats.sort_steps += 1;
            stats.bytes_read += 12;
        }
    }
    if let Some((ccol, acc)) = current {
        cols.push(ccol);
        vals.push(acc);
    }
    // Every fetched element either became an output entry or a collision.
    stats.output_entries = (stats.bytes_read / 12) - stats.collisions;
    stats.bytes_written += stats.output_entries * 12;
    stats
}

fn merge_row_sort(
    chunks: &[(&[Index], &[Value])],
    cols: &mut Vec<Index>,
    vals: &mut Vec<Value>,
) -> MergeStats {
    let mut stats = MergeStats::default();
    let total: usize = chunks.iter().map(|(ccols, _)| ccols.len()).sum();
    let mut buf: Vec<(Index, Value)> = Vec::with_capacity(total);
    for &(ccols, cvals) in chunks {
        buf.extend(ccols.iter().copied().zip(cvals.iter().copied()));
    }
    stats.bytes_read += 12 * total as u64;
    // Stable sort keeps duplicate accumulation order deterministic.
    buf.sort_by_key(|&(c, _)| c);
    // log2(total) comparisons per element, as the merge-sort cost model.
    stats.sort_steps +=
        (total as u64) * (usize::BITS - total.leading_zeros().min(usize::BITS - 1)) as u64;
    let mut i = 0;
    while i < buf.len() {
        let (c, mut v) = buf[i];
        let mut j = i + 1;
        while j < buf.len() && buf[j].0 == c {
            v += buf[j].1;
            stats.collisions += 1;
            j += 1;
        }
        cols.push(c);
        vals.push(v);
        stats.output_entries += 1;
        i = j;
    }
    stats.bytes_written += stats.output_entries * 12;
    stats
}

/// Reusable scratch state for [`MergeKind::Blocked`].
///
/// Holds a dense accumulator over one [`MERGE_BLOCK_COLS`]-column window
/// plus a generation-stamp array: a slot belongs to the current block iff
/// its stamp equals the current generation, so advancing a block (or a
/// row) costs one counter increment instead of clearing 4096 slots. The
/// same scratch serves every row of a merge call — the row-batched reuse
/// that keeps it cache-resident.
#[derive(Debug)]
pub(crate) struct BlockedMerger {
    /// Dense value accumulator for the current block (lazily allocated so
    /// streaming/sort merges pay nothing for carrying one of these).
    acc: Vec<Value>,
    /// `stamp[off] == gen` marks `acc[off]` live in the current block.
    stamp: Vec<u32>,
    gen: u32,
    /// Block-local offsets touched in the current block, sorted at emit.
    touched: Vec<u32>,
    /// Per-chunk read positions for the current row.
    cursors: Vec<usize>,
}

impl BlockedMerger {
    pub(crate) fn new() -> BlockedMerger {
        BlockedMerger {
            acc: Vec::new(),
            stamp: Vec::new(),
            gen: 0,
            touched: Vec::new(),
            cursors: Vec::new(),
        }
    }

    fn merge_row(
        &mut self,
        chunks: &[(&[Index], &[Value])],
        cols: &mut Vec<Index>,
        vals: &mut Vec<Value>,
    ) -> MergeStats {
        let mut stats = MergeStats::default();
        let mut nonempty = chunks.iter().filter(|(ccols, _)| !ccols.is_empty());
        let Some(&(first_cols, first_vals)) = nonempty.next() else {
            return stats;
        };
        if nonempty.next().is_none() {
            // Single-chunk fast path: the chunk is already sorted and
            // collision-free, so the merged row is a straight copy.
            let n = first_cols.len() as u64;
            cols.extend_from_slice(first_cols);
            vals.extend_from_slice(first_vals);
            stats.bytes_read = 12 * n;
            stats.output_entries = n;
            stats.bytes_written = 12 * n;
            return stats;
        }
        if self.acc.is_empty() {
            self.acc = vec![0.0; MERGE_BLOCK_COLS];
            self.stamp = vec![0; MERGE_BLOCK_COLS];
        }
        self.cursors.clear();
        self.cursors.resize(chunks.len(), 0);
        loop {
            // Next block = the one holding the smallest unconsumed column;
            // blocks with no entries are skipped entirely.
            let mut min_col = Index::MAX;
            let mut exhausted = true;
            for (ci, &(ccols, _)) in chunks.iter().enumerate() {
                let pos = self.cursors[ci];
                if pos < ccols.len() {
                    min_col = min_col.min(ccols[pos]);
                    exhausted = false;
                }
            }
            if exhausted {
                break;
            }
            let block_lo = (min_col as usize / MERGE_BLOCK_COLS) * MERGE_BLOCK_COLS;
            let block_hi = block_lo + MERGE_BLOCK_COLS;
            self.gen = self.gen.wrapping_add(1);
            if self.gen == 0 {
                // Generation counter wrapped: stale stamps could alias the
                // new generation, so pay one full clear every 2^32 blocks.
                self.stamp.fill(0);
                self.gen = 1;
            }
            self.touched.clear();
            // Chunk-index-ascending scatter keeps collision accumulation
            // order identical to the streaming heap's tiebreak (bitwise-
            // equal floating point across merge kinds).
            for (ci, &(ccols, cvals)) in chunks.iter().enumerate() {
                let mut pos = self.cursors[ci];
                while pos < ccols.len() && (ccols[pos] as usize) < block_hi {
                    let off = ccols[pos] as usize - block_lo;
                    if self.stamp[off] == self.gen {
                        self.acc[off] += cvals[pos];
                        stats.collisions += 1;
                    } else {
                        self.stamp[off] = self.gen;
                        self.acc[off] = cvals[pos];
                        self.touched.push(off as u32);
                    }
                    stats.bytes_read += 12;
                    stats.sort_steps += 1;
                    pos += 1;
                }
                self.cursors[ci] = pos;
            }
            self.touched.sort_unstable();
            for &off in &self.touched {
                cols.push((block_lo + off as usize) as Index);
                vals.push(self.acc[off as usize]);
            }
            stats.output_entries += self.touched.len() as u64;
        }
        stats.bytes_written = stats.output_entries * 12;
        stats
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::reference_chunk_lists;
    use crate::multiply::multiply;
    use outerspace_sparse::{ops, Coo, Csc, Dense};

    type Chunk<'a> = &'a [(Index, Value)];

    /// An arena whose row `i` holds exactly the chunks `rows[i]`, in order,
    /// built by the multiply phase itself: the `k`-th chunk overall becomes
    /// row `k` of `B`, and `A` has a `1` at `(i, k)` when that chunk belongs
    /// to row `i` — so row `i`'s chunks are `1 · B[k,:]` in `k` order.
    fn arena(ncols: Index, rows: &[&[Chunk]]) -> ArenaProducts {
        let n_chunks = rows.iter().map(|r| r.len()).sum::<usize>() as Index;
        let mut a = Coo::new(rows.len() as Index, n_chunks);
        let mut b = Coo::new(n_chunks, ncols);
        let mut k = 0;
        for (i, chunks) in rows.iter().enumerate() {
            for chunk in *chunks {
                a.push(i as Index, k, 1.0);
                for &(c, v) in *chunk {
                    b.push(k, c, v);
                }
                k += 1;
            }
        }
        let (ap, _) = multiply(&a.to_csc(), &b.to_csr()).unwrap();
        ap
    }

    #[test]
    fn streaming_merges_disjoint_chunks() {
        let ap = arena(8, &[&[&[(0, 1.0), (4, 2.0)], &[(2, 3.0), (6, 4.0)]]]);
        let (c, stats) = merge(&ap, MergeKind::Streaming);
        assert_eq!(c.row(0).0, &[0, 2, 4, 6]);
        assert_eq!(c.row(0).1, &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(stats.collisions, 0);
        assert_eq!(stats.output_entries, 4);
    }

    #[test]
    fn streaming_accumulates_collisions() {
        let ap = arena(8, &[&[&[(3, 1.0), (5, 1.0)], &[(3, 2.0)], &[(3, 4.0), (5, 8.0)]]]);
        let (c, stats) = merge(&ap, MergeKind::Streaming);
        assert_eq!(c.row(0).0, &[3, 5]);
        assert_eq!(c.row(0).1, &[7.0, 9.0]);
        assert_eq!(stats.collisions, 3);
        assert_eq!(stats.output_entries, 2);
    }

    #[test]
    fn sort_based_agrees_with_streaming() {
        let ap = arena(
            16,
            &[&[&[(1, 1.0), (9, 2.0), (15, 3.0)], &[(0, 4.0), (9, 5.0)]], &[&[(7, 6.0)]]],
        );
        let (c1, s1) = merge(&ap, MergeKind::Streaming);
        let (c2, s2) = merge(&ap, MergeKind::SortBased);
        assert_eq!(c1, c2);
        assert_eq!(s1.collisions, s2.collisions);
        assert_eq!(s1.output_entries, s2.output_entries);
    }

    #[test]
    fn blocked_agrees_with_streaming_bitwise() {
        let ap = arena(
            16,
            &[
                &[&[(1, 0.1), (9, 2.0), (15, 3.0)], &[(0, 4.0), (9, 0.2)], &[(9, 0.7)]],
                &[&[(7, 6.0)]],
            ],
        );
        let (c1, s1) = merge(&ap, MergeKind::Streaming);
        let (c2, s2) = merge(&ap, MergeKind::Blocked);
        // Exact equality: collision accumulation order is pinned to chunk
        // index in both variants, so even 0.1 + 0.2-style non-associative
        // sums come out bit-identical.
        assert_eq!(c1, c2);
        assert_eq!(s1.collisions, s2.collisions);
        assert_eq!(s1.output_entries, s2.output_entries);
        assert_eq!(s1.bytes_read, s2.bytes_read);
        assert_eq!(s1.bytes_written, s2.bytes_written);
    }

    #[test]
    fn blocked_handles_columns_spanning_many_blocks() {
        // Columns straddle 3 accumulator blocks with a collision in each.
        let far = |b: u32, off: u32| b * MERGE_BLOCK_COLS as u32 + off;
        let ap = arena(
            far(3, 0),
            &[&[
                &[(far(0, 1), 1.0), (far(1, 5), 2.0), (far(2, 9), 3.0)],
                &[(far(0, 1), 4.0), (far(1, 5), 8.0), (far(2, 9), 16.0)],
            ]],
        );
        let (c, stats) = merge(&ap, MergeKind::Blocked);
        assert_eq!(c.row(0).0, &[far(0, 1), far(1, 5), far(2, 9)]);
        assert_eq!(c.row(0).1, &[5.0, 10.0, 19.0]);
        assert_eq!(stats.collisions, 3);
        assert_eq!(stats.output_entries, 3);
    }

    #[test]
    fn blocked_single_chunk_fast_path() {
        let ap = arena(8, &[&[&[(2, 1.5), (5, 2.5)]]]);
        let (c, stats) = merge(&ap, MergeKind::Blocked);
        assert_eq!(c.row(0).0, &[2, 5]);
        assert_eq!(c.row(0).1, &[1.5, 2.5]);
        assert_eq!(stats.bytes_read, 24);
        assert_eq!(stats.output_entries, 2);
    }

    #[test]
    fn empty_rows_produce_empty_result_rows() {
        let ap = arena(3, &[&[], &[], &[]]);
        for kind in [MergeKind::Streaming, MergeKind::SortBased, MergeKind::Blocked] {
            let (c, stats) = merge(&ap, kind);
            assert_eq!(c.nnz(), 0);
            assert_eq!(c.nrows(), 3);
            assert_eq!(stats.output_entries, 0);
        }
    }

    #[test]
    fn parallel_merge_matches_sequential() {
        let a = Dense::from_row_major(
            4,
            4,
            vec![
                1.0, 0.0, 2.0, 0.0, //
                0.0, 3.0, 0.0, 1.0, //
                4.0, 0.0, 0.0, 5.0, //
                0.0, 6.0, 7.0, 0.0,
            ],
        )
        .to_csr();
        let a_cc: Csc = a.to_csc();
        let (ap, _) = multiply(&a_cc, &a).unwrap();
        let (c_seq, s_seq) = merge(&ap, MergeKind::Streaming);
        let (c_par, s_par) = merge_parallel(&ap, MergeKind::Streaming, 3);
        assert_eq!(c_seq, c_par);
        assert_eq!(s_seq.output_entries, s_par.output_entries);
        let want = ops::spgemm_reference(&a, &a).unwrap();
        assert!(c_seq.approx_eq(&want, 1e-12));
    }

    #[test]
    fn arena_merge_matches_chunk_list_merge() {
        // The arena's row slices against the same chunks held as separate
        // owned lists (Fig. 2's naive layout), row by row through the same
        // per-row merge.
        let a = outerspace_gen::uniform::matrix(64, 64, 600, 17);
        let b = outerspace_gen::uniform::matrix(64, 64, 600, 18);
        let a_cc: Csc = a.to_csc();
        let (ap, _) = multiply(&a_cc, &b).unwrap();
        let lists = reference_chunk_lists(&a_cc, &b);
        for kind in [MergeKind::Streaming, MergeKind::SortBased, MergeKind::Blocked] {
            let (c_list, s_list) = merge_rows(64, 64, ap.total_entries(), kind, |i, chunks| {
                chunks.extend(lists[i as usize].iter().map(|(c, v)| (&c[..], &v[..])));
            });
            let (c_arena, s_arena) = merge(&ap, kind);
            assert_eq!(c_list, c_arena, "{kind:?}");
            assert_eq!(s_list, s_arena, "{kind:?}");
            let (c_arena_par, s_par) = merge_parallel(&ap, kind, 3);
            assert_eq!(c_list, c_arena_par, "{kind:?} parallel");
            assert_eq!(s_list, s_par, "{kind:?} parallel");
        }
    }

    #[test]
    fn merge_takes_the_arena_by_value_or_by_reference() {
        let a = outerspace_gen::uniform::matrix(32, 32, 200, 5);
        let (ap, _) = multiply(&a.to_csc(), &a).unwrap();
        for kind in [MergeKind::Streaming, MergeKind::SortBased, MergeKind::Blocked] {
            let by_ref = merge(&ap, kind);
            let by_value = merge(ap.clone(), kind);
            assert_eq!(by_ref, by_value, "{kind:?}");
            assert_eq!(merge_parallel(ap.clone(), kind, 2), by_ref, "{kind:?} parallel");
        }
    }

    #[test]
    fn merge_stats_byte_accounting() {
        let ap = arena(4, &[&[&[(0, 1.0), (1, 2.0)]]]);
        let (_, stats) = merge(&ap, MergeKind::Streaming);
        assert_eq!(stats.bytes_read, 24);
        assert_eq!(stats.bytes_written, 24);
    }

    #[test]
    fn capacity_hint_caps_at_dense_and_saturates() {
        // Intermediate smaller than dense: the intermediate bounds output.
        assert_eq!(output_capacity_hint(100, 64, 64), 100);
        // Collision-heavy intermediate larger than dense: dense bounds it.
        assert_eq!(output_capacity_hint(10_000, 8, 8), 64);
        // u32::MAX² must not overflow usize arithmetic on any target.
        let h = output_capacity_hint(usize::MAX, Index::MAX, Index::MAX);
        assert_eq!(h, (Index::MAX as usize).saturating_mul(Index::MAX as usize));
    }

    #[test]
    fn worst_offender_many_tiny_chunks_single_row() {
        // The re-allocation worst case found in the audit: one row fed by
        // thousands of one-entry chunks. Before the capacity hint, `merge`
        // grew its output arrays through ~log2(n) full copies; the hint
        // (total_entries = 4000, under the dense cap) sizes them once.
        let n_chunks = 4000u32;
        let entries: Vec<[(Index, Value); 1]> = (0..n_chunks).map(|c| [(c, 1.0)]).collect();
        let chunks: Vec<Chunk> = entries.iter().map(|e| &e[..]).collect();
        let ap = arena(n_chunks, &[&chunks]);
        assert_eq!(ap.row_chunk_count(0), n_chunks as usize);
        assert_eq!(
            output_capacity_hint(ap.total_entries(), ap.nrows(), ap.ncols()),
            n_chunks as usize
        );
        for kind in [MergeKind::Streaming, MergeKind::SortBased, MergeKind::Blocked] {
            let (c, stats) = merge(&ap, kind);
            assert_eq!(c.nnz(), n_chunks as usize, "{kind:?}");
            assert_eq!(stats.output_entries, u64::from(n_chunks), "{kind:?}");
            assert_eq!(stats.collisions, 0, "{kind:?}");
        }
    }
}
