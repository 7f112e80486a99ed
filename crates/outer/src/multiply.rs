//! The multiply phase (§4.1): generate all outer-product partial products.
//!
//! For every index `k` with a non-empty column `k` of `A` *and* row `k` of
//! `B`, each non-zero `a_ik` of the column scales the whole row-of-`B` into
//! one chunk appended to result row `i`. There is no index matching and
//! every fetched non-zero contributes to output — the two properties (§4)
//! that distinguish the outer-product method from inner-product SpGEMM.
//!
//! The chunks land in an [`ArenaProducts`]. [`multiply`] builds it in two
//! passes over the operands: pass 1 counts chunks and entries per result
//! row (touching only the index arrays), pass 2 writes every scaled payload
//! into its pre-computed slot. Total allocations for the whole phase: six,
//! regardless of input size. The layout is exactly the sequential fill
//! order, so [`multiply_parallel`] can reconstruct a **byte-identical**
//! arena from per-worker shards by replaying them in k order — the
//! determinism property the concurrency regression tests pin.

use outerspace_sparse::{Csc, Csr, Index, SparseError, Value};

use crate::arena::{ArenaBuilder, ArenaProducts};
use crate::worksteal::WorkStealQueues;

/// Outer products per work-stealing batch in [`multiply_parallel`].
/// Coarse enough to amortize queue traffic, fine enough that a dense
/// column cannot serialize the tail.
const MULTIPLY_GRAIN: u32 = 8;

/// Counters captured during a multiply phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiplyStats {
    /// Elementary products `a_ki · b_ij` performed (one multiply flop each).
    pub elementary_products: u64,
    /// Chunks emitted.
    pub chunks: u64,
    /// Outer products with both a non-empty column-of-A and row-of-B.
    pub nonempty_outer_products: u64,
    /// Bytes read from the operand matrices (12 B per non-zero touched,
    /// counting the reuse-free streaming the algorithm guarantees).
    pub bytes_read: u64,
    /// Bytes written to the intermediate structure (12 B per product).
    pub bytes_written: u64,
}

/// Runs the multiply phase sequentially in CR mode: `A` in CC format, `B`
/// in CR format (§4's required layouts), producing row-major partial
/// products in two passes over the operands and six allocations total.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn multiply(a: &Csc, b: &Csr) -> Result<(ArenaProducts, MultiplyStats), SparseError> {
    check_shapes(a, b)?;
    let mut builder = ArenaBuilder::new(a.nrows(), b.ncols());
    // Pass 1: only the index arrays are touched — column row-lists of A and
    // row lengths of B — so the counting sweep is cheap relative to pass 2.
    for k in 0..a.ncols() {
        let (a_rows, _) = a.col(k);
        let (b_cols, _) = b.row(k);
        if a_rows.is_empty() || b_cols.is_empty() {
            continue;
        }
        for &i in a_rows {
            builder.count_chunk(i, b_cols.len());
        }
    }
    builder.seal_counts();
    let mut stats = MultiplyStats::default();
    for k in 0..a.ncols() {
        outer_product(a, b, k, &mut builder, &mut stats);
    }
    Ok((builder.finish(), stats))
}

/// Computes outer product `k` (column-of-`A` × row-of-`B`) straight into
/// the arena, one chunk per non-zero of the column.
fn outer_product(
    a: &Csc,
    b: &Csr,
    k: Index,
    builder: &mut ArenaBuilder,
    stats: &mut MultiplyStats,
) {
    let (a_rows, a_vals) = a.col(k);
    let (b_cols, b_vals) = b.row(k);
    if a_rows.is_empty() || b_cols.is_empty() {
        // Fig. 2: an empty row-of-B (or column-of-A) produces no outer
        // product at all — those inputs are never even fetched, because the
        // pointer arrays reveal emptiness without touching element data.
        return;
    }
    stats.nonempty_outer_products += 1;
    // Column-of-A and row-of-B are each loaded exactly once per outer
    // product (§4: minimized loads).
    stats.bytes_read += 12 * (a_rows.len() + b_cols.len()) as u64;
    for (&i, &a_ik) in a_rows.iter().zip(a_vals) {
        builder.place_chunk(i, b_cols, |dst| {
            for (d, &b_kj) in dst.iter_mut().zip(b_vals) {
                *d = a_ik * b_kj;
            }
        });
        stats.elementary_products += b_cols.len() as u64;
        stats.bytes_written += 12 * b_cols.len() as u64;
        stats.chunks += 1;
    }
}

/// One worker's multiply output: payloads in processing order plus the
/// records needed to replay them in k order.
#[derive(Default)]
struct Shard {
    cols: Vec<Index>,
    vals: Vec<Value>,
    /// `(k, i, start, len)`: chunk for row `i` from outer product `k`,
    /// occupying `start..start+len` of this shard's payload arrays.
    recs: Vec<(Index, Index, usize, usize)>,
    stats: MultiplyStats,
}

/// Runs the multiply phase with `n_threads` workers over work-stealing
/// k-ranges (see [`crate::worksteal`]), then reconstructs the arena by
/// replaying every worker's records in k-ascending order.
///
/// Because each outer product is owned by exactly one worker and replay
/// order is k-ascending regardless of which worker ran what, the result is
/// **byte-identical** to [`multiply`] for every thread count — the
/// schedule cannot leak into the output. (On real OuterSPACE hardware the
/// grouping is free: chunks land in per-row linked lists via atomic
/// pointer bumps. The replay stands in for that.)
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn multiply_parallel(
    a: &Csc,
    b: &Csr,
    n_threads: usize,
) -> Result<(ArenaProducts, MultiplyStats), SparseError> {
    assert!(n_threads > 0, "need at least one thread");
    check_shapes(a, b)?;
    let n = a.ncols();
    let queues = WorkStealQueues::split(n, n_threads);
    let shards: Vec<Shard> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|me| {
                let queues = &queues;
                scope.spawn(move || {
                    let mut shard = Shard::default();
                    while let Some((lo, hi)) = queues.take(me, MULTIPLY_GRAIN) {
                        for k in lo..hi {
                            let (a_rows, a_vals) = a.col(k);
                            let (b_cols, b_vals) = b.row(k);
                            if a_rows.is_empty() || b_cols.is_empty() {
                                continue;
                            }
                            shard.stats.nonempty_outer_products += 1;
                            shard.stats.bytes_read +=
                                12 * (a_rows.len() + b_cols.len()) as u64;
                            for (&i, &a_ik) in a_rows.iter().zip(a_vals) {
                                let start = shard.cols.len();
                                shard.cols.extend_from_slice(b_cols);
                                shard.vals.extend(b_vals.iter().map(|&b_kj| a_ik * b_kj));
                                shard.recs.push((k, i, start, b_cols.len()));
                                shard.stats.elementary_products += b_cols.len() as u64;
                                shard.stats.bytes_written += 12 * b_cols.len() as u64;
                                shard.stats.chunks += 1;
                            }
                        }
                    }
                    shard
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    // Each k was processed wholly by one worker, as one contiguous run of
    // records; index those runs and replay them in k order.
    let mut runs: Vec<(Index, u32, u32, u32)> = Vec::new(); // (k, shard, rec_lo, rec_hi)
    for (s, shard) in shards.iter().enumerate() {
        let mut r = 0;
        while r < shard.recs.len() {
            let k = shard.recs[r].0;
            let lo = r;
            while r < shard.recs.len() && shard.recs[r].0 == k {
                r += 1;
            }
            runs.push((k, s as u32, lo as u32, r as u32));
        }
    }
    runs.sort_unstable_by_key(|&(k, ..)| k);

    let mut builder = ArenaBuilder::new(a.nrows(), b.ncols());
    for &(_, s, lo, hi) in &runs {
        for &(_, i, _, len) in &shards[s as usize].recs[lo as usize..hi as usize] {
            builder.count_chunk(i, len);
        }
    }
    builder.seal_counts();
    for &(_, s, lo, hi) in &runs {
        let shard = &shards[s as usize];
        for &(_, i, start, len) in &shard.recs[lo as usize..hi as usize] {
            builder.place_chunk(i, &shard.cols[start..start + len], |dst| {
                dst.copy_from_slice(&shard.vals[start..start + len]);
            });
        }
    }
    let mut stats = MultiplyStats::default();
    for shard in &shards {
        stats.elementary_products += shard.stats.elementary_products;
        stats.chunks += shard.stats.chunks;
        stats.nonempty_outer_products += shard.stats.nonempty_outer_products;
        stats.bytes_read += shard.stats.bytes_read;
        stats.bytes_written += shard.stats.bytes_written;
    }
    Ok((builder.finish(), stats))
}

fn check_shapes(a: &Csc, b: &Csr) -> Result<(), SparseError> {
    outerspace_sparse::ops::check_spgemm_dims(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_sparse::Dense;

    fn fig2_like() -> (Csc, Csr) {
        // B's third row is empty, as in Fig. 2 of the paper.
        let a = Dense::from_row_major(
            4,
            4,
            vec![
                1.0, 0.0, 0.0, 2.0, //
                0.0, 3.0, 0.0, 0.0, //
                0.0, 0.0, 4.0, 0.0, //
                5.0, 0.0, 0.0, 6.0,
            ],
        )
        .to_csr();
        let b = Dense::from_row_major(
            4,
            4,
            vec![
                0.0, 7.0, 0.0, 1.0, //
                2.0, 0.0, 3.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                0.0, 4.0, 5.0, 0.0,
            ],
        )
        .to_csr();
        (a.to_csc(), b)
    }

    #[test]
    fn fig2_empty_row_skips_outer_product() {
        let (a, b) = fig2_like();
        let (_, stats) = multiply(&a, &b).unwrap();
        // Outer products exist for k = 0, 1, 3 only (row 2 of B is empty).
        assert_eq!(stats.nonempty_outer_products, 3);
    }

    #[test]
    fn chunk_count_equals_column_nnz_sum_over_active_k() {
        let (a, b) = fig2_like();
        let (ap, stats) = multiply(&a, &b).unwrap();
        // k=0: col0 of A has 2 nnz; k=1: 1; k=3: 2 => 5 chunks.
        assert_eq!(stats.chunks, 5);
        assert_eq!(ap.total_chunks(), 5);
    }

    #[test]
    fn elementary_products_match_flop_formula() {
        let (a, b) = fig2_like();
        let (_, stats) = multiply(&a, &b).unwrap();
        let flops = outerspace_sparse::ops::spgemm_flops(&a.to_csr(), &b).unwrap();
        assert_eq!(stats.elementary_products * 2, flops);
    }

    #[test]
    fn chunks_carry_scaled_rows() {
        let (a, b) = fig2_like();
        let (ap, _) = multiply(&a, &b).unwrap();
        // Row 1 of the result receives a single chunk from k=1:
        // a[1,1]=3 times row 1 of B = [2,0,3,0] -> cols [0,2], vals [6,9].
        let chunks: Vec<_> = ap.row_chunk_slices(1).collect();
        assert_eq!(chunks, [(&[0, 2][..], &[6.0, 9.0][..])]);
        // Row 0 receives k=0 (a00=1) then k=3 (a03=2), in k order.
        let chunks: Vec<_> = ap.row_chunk_slices(0).collect();
        assert_eq!(chunks, [(&[1, 3][..], &[7.0, 1.0][..]), (&[1, 2][..], &[8.0, 10.0][..])]);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // Not just up to chunk order: the k-ordered replay makes every row's
        // chunk list identical to the sequential one.
        let (a, b) = fig2_like();
        let (seq, s_seq) = multiply(&a, &b).unwrap();
        for threads in [1, 2, 3, 5] {
            let (par, s_par) = multiply_parallel(&a, &b, threads).unwrap();
            assert_eq!(s_seq, s_par, "{threads} threads");
            for i in 0..seq.nrows() {
                assert!(
                    seq.row_chunk_slices(i).eq(par.row_chunk_slices(i)),
                    "row {i}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn shape_mismatch_detected() {
        let a = Csc::zero(2, 3);
        let b = Csr::zero(2, 2);
        assert!(multiply(&a, &b).is_err());
        assert!(multiply_parallel(&a, &b, 2).is_err());
    }

    #[test]
    fn empty_operands_yield_empty_products() {
        let a = Csc::zero(4, 4);
        let b = Csr::identity(4);
        let (ap, stats) = multiply(&a, &b).unwrap();
        assert_eq!(ap.total_chunks(), 0);
        assert_eq!(stats, MultiplyStats::default());
    }
}
