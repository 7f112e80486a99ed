//! N-way element-wise matrix operations (§5.6).
//!
//! Given matrices `A_1 … A_N` of equal shape, each result row's chunk list
//! is the Fig. 2 intermediate structure with one chunk per source matrix —
//! borrowed straight from the operands' rows — and the merge-phase
//! machinery combines them. The paper observes a one-to-one correspondence
//! between element-wise routines and the merge phase; this module realizes
//! that correspondence directly by reusing [`crate::merge`].

use outerspace_sparse::{Csr, Index, SparseError, Value};

use crate::merge::{merge_batches_parallel, merge_row, merge_rows, MergeKind, MergeStats};

/// Row `i`'s chunk list: the non-empty row `i` of every matrix, in matrix
/// order.
fn operand_row_chunks<'a>(
    mats: &[&'a Csr],
    i: Index,
    chunks: &mut Vec<(&'a [Index], &'a [Value])>,
) {
    chunks.extend(mats.iter().map(|m| m.row(i)).filter(|(cols, _)| !cols.is_empty()));
}

/// Combines `mats` element-wise with a reduction `op` applied pairwise in
/// matrix order over present entries (absent entries contribute nothing).
///
/// `op` must be associative and commutative for the result to be
/// well-defined (`+`, `min`, `max`, …); multiplication-like semantics that
/// need *intersection* patterns should use
/// [`outerspace_sparse::ops::hadamard`] instead, since merge-style
/// combination operates on the pattern *union*.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if shapes differ, and
/// [`SparseError::MalformedPointers`] if `mats` is empty.
pub fn elementwise_merge<F>(
    mats: &[&Csr],
    op: F,
) -> Result<(Csr, MergeStats), SparseError>
where
    F: Fn(Value, Value) -> Value,
{
    let first = mats.first().ok_or_else(|| {
        SparseError::MalformedPointers("elementwise_merge needs at least one matrix".into())
    })?;
    for m in &mats[1..] {
        if m.nrows() != first.nrows() || m.ncols() != first.ncols() {
            return Err(SparseError::ShapeMismatch {
                left: (first.nrows() as u64, first.ncols() as u64),
                right: (m.nrows() as u64, m.ncols() as u64),
                op: "elementwise",
            });
        }
    }
    // The streaming merge accumulates collisions with `+`; generalize by
    // re-running with the caller's op. To keep the merge code monomorphic,
    // sum-accumulation is the fast path and other ops go through a local
    // union merge.
    if is_plain_sum(&op) {
        let total_entries = mats.iter().map(|m| m.nnz()).sum();
        return Ok(merge_rows(
            first.nrows(),
            first.ncols(),
            total_entries,
            MergeKind::Streaming,
            |i, chunks| operand_row_chunks(mats, i, chunks),
        ));
    }
    let mut row_ptr = vec![0usize];
    let mut out_cols = Vec::new();
    let mut out_vals: Vec<Value> = Vec::new();
    let mut stats = MergeStats::default();
    let mut chunks = Vec::new();
    for i in 0..first.nrows() {
        chunks.clear();
        operand_row_chunks(mats, i, &mut chunks);
        let mut heads: Vec<(u32, usize)> = (0..chunks.len() as u32).map(|c| (c, 0)).collect();
        loop {
            // Find the smallest current column among chunk cursors.
            let mut best: Option<(u32, u32)> = None; // (col, chunk)
            for &(ci, pos) in &heads {
                let (ch_cols, _) = chunks[ci as usize];
                if pos < ch_cols.len() {
                    let col = ch_cols[pos];
                    if best.map_or(true, |(bc, _)| col < bc) {
                        best = Some((col, ci));
                    }
                }
            }
            let Some((col, _)) = best else { break };
            let mut acc: Option<Value> = None;
            for (ci, pos) in heads.iter_mut() {
                let (ch_cols, ch_vals) = chunks[*ci as usize];
                if *pos < ch_cols.len() && ch_cols[*pos] == col {
                    let v = ch_vals[*pos];
                    acc = Some(match acc {
                        None => v,
                        Some(prev) => {
                            stats.collisions += 1;
                            op(prev, v)
                        }
                    });
                    *pos += 1;
                    stats.bytes_read += 12;
                }
            }
            out_cols.push(col);
            out_vals.push(acc.expect("best column has at least one source"));
            stats.output_entries += 1;
        }
        row_ptr.push(out_cols.len());
    }
    stats.bytes_written = stats.output_entries * 12;
    Ok((
        Csr::from_raw_parts_unchecked(first.nrows(), first.ncols(), row_ptr, out_cols, out_vals),
        stats,
    ))
}

/// Sums `mats` element-wise — the N-way generalization of matrix addition,
/// implemented directly by the merge phase.
///
/// # Errors
///
/// Propagates [`elementwise_merge`] errors.
pub fn sum_all(mats: &[&Csr]) -> Result<(Csr, MergeStats), SparseError> {
    elementwise_merge(mats, std::ops::Add::add)
}

/// [`sum_all`] with `n_threads` workers over work-stealing row batches
/// (see [`crate::worksteal`]). The batch-stitched output is identical to
/// [`sum_all`] for every thread count.
///
/// # Errors
///
/// Propagates the same shape/emptiness errors as [`sum_all`].
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn sum_all_parallel(
    mats: &[&Csr],
    n_threads: usize,
) -> Result<(Csr, MergeStats), SparseError> {
    let first = mats.first().ok_or_else(|| {
        SparseError::MalformedPointers("sum_all_parallel needs at least one matrix".into())
    })?;
    for m in &mats[1..] {
        if m.nrows() != first.nrows() || m.ncols() != first.ncols() {
            return Err(SparseError::ShapeMismatch {
                left: (first.nrows() as u64, first.ncols() as u64),
                right: (m.nrows() as u64, m.ncols() as u64),
                op: "elementwise",
            });
        }
    }
    Ok(merge_batches_parallel(
        first.nrows(),
        first.ncols(),
        n_threads,
        &|i, cols, vals, blocked| {
            let mut chunks = Vec::with_capacity(mats.len());
            operand_row_chunks(mats, i, &mut chunks);
            merge_row(&chunks, MergeKind::Streaming, cols, vals, blocked)
        },
    ))
}

/// Detects the plain-`+` reduction so [`elementwise_merge`] can take the
/// merge-phase fast path. Probes the closure on sentinel values; exact for
/// every op whose behaviour on these probes distinguishes it from `+`.
fn is_plain_sum<F: Fn(Value, Value) -> Value>(op: &F) -> bool {
    op(1.5, 2.25) == 3.75 && op(-1.0, 1.0) == 0.0 && op(0.25, 0.5) == 0.75
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;
    use outerspace_sparse::ops;

    #[test]
    fn two_way_sum_matches_reference_add() {
        let a = uniform::matrix(32, 32, 128, 1);
        let b = uniform::matrix(32, 32, 128, 2);
        let (c, _) = sum_all(&[&a, &b]).unwrap();
        let want = ops::add(&a, &b).unwrap();
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn n_way_sum() {
        let mats: Vec<_> = (0..4).map(|s| uniform::matrix(16, 16, 32, s)).collect();
        let refs: Vec<&Csr> = mats.iter().collect();
        let (c, _) = sum_all(&refs).unwrap();
        let mut want = mats[0].clone();
        for m in &mats[1..] {
            want = ops::add(&want, m).unwrap();
        }
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn max_reduction() {
        let a = uniform::matrix(16, 16, 64, 5);
        let b = uniform::matrix(16, 16, 64, 6);
        let (c, _) = elementwise_merge(&[&a, &b], Value::max).unwrap();
        for (r, col, v) in c.iter() {
            let (x, y) = (a.get(r, col), b.get(r, col));
            let want = if x != 0.0 && y != 0.0 { x.max(y) } else if x != 0.0 { x } else { y };
            assert_eq!(v, want);
        }
    }

    #[test]
    fn parallel_sum_is_identical_to_sequential() {
        let mats: Vec<_> = (0..5).map(|s| uniform::matrix(200, 64, 900, s)).collect();
        let refs: Vec<&Csr> = mats.iter().collect();
        let (seq, s_seq) = sum_all(&refs).unwrap();
        for threads in [1, 2, 3, 4] {
            let (par, s_par) = sum_all_parallel(&refs, threads).unwrap();
            assert_eq!(seq, par, "{threads} threads");
            assert_eq!(s_seq.output_entries, s_par.output_entries);
            assert_eq!(s_seq.collisions, s_par.collisions);
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(elementwise_merge(&[], |a, _| a).is_err());
        assert!(sum_all_parallel(&[], 2).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = uniform::matrix(8, 8, 8, 1);
        let b = uniform::matrix(8, 9, 8, 1);
        assert!(sum_all(&[&a, &b]).is_err());
    }

    #[test]
    fn single_matrix_is_identity_op() {
        let a = uniform::matrix(8, 8, 20, 3);
        let (c, _) = sum_all(&[&a]).unwrap();
        assert!(c.approx_eq(&a, 0.0));
    }
}
