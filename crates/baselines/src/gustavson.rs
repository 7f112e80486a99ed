//! Row-wise Gustavson SpGEMM — the Intel MKL analog.
//!
//! For each output row `i`, scatter `a_ik · row_k(B)` into a dense
//! accumulator and gather the touched columns. MKL's SpGEMM is a heavily
//! vectorized variant of exactly this; its key behaviours reproduced here
//! are (a) run time proportional to flops with cache-friendly streaming of
//! `B`'s rows when the matrix is regular, and (b) repeated fetches of the
//! same rows-of-`B` across different output rows — the redundant traffic the
//! outer-product method eliminates.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use outerspace_sparse::{ops, Csr, Index, SparseError, Value};

use crate::TrafficStats;

/// Sequential Gustavson SpGEMM with a dense accumulator.
///
/// Summation order, which the simulator's functional product relies on:
/// each output entry's first product is assigned (not added to `0.0`), the
/// later ones are added in ascending `k`, and sums that cancel exactly stay
/// as entries. That is the order in which the outer-product merge (§4.2)
/// adds a `c_ij`'s partial products, so the result is bit-identical to the
/// outer-product pipeline's, signed zeros and infinities included. The
/// output arrays are sized exactly, with no growth slack.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Example
///
/// ```
/// use outerspace_sparse::Csr;
/// use outerspace_baselines::gustavson;
///
/// # fn main() -> Result<(), outerspace_sparse::SparseError> {
/// let a = Csr::identity(3);
/// let (c, stats) = gustavson::spgemm(&a, &a)?;
/// assert!(c.approx_eq(&a, 0.0));
/// assert_eq!(stats.multiplies, 3);
/// # Ok(())
/// # }
/// ```
pub fn spgemm(a: &Csr, b: &Csr) -> Result<(Csr, TrafficStats), SparseError> {
    check_shapes(a, b)?;
    let mut stats = TrafficStats::default();
    let mut acc = vec![0.0 as Value; b.ncols() as usize];
    let mut flags = vec![false; b.ncols() as usize];
    let mut touched: Vec<Index> = Vec::new();
    let mut row_ptr = Vec::with_capacity(a.nrows() as usize + 1);
    row_ptr.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        row_into(
            a, b, i, &mut acc, &mut flags, &mut touched, &mut cols, &mut vals, &mut stats,
        );
        row_ptr.push(cols.len());
    }
    cols.shrink_to_fit();
    vals.shrink_to_fit();
    stats.bytes_written += 12 * cols.len() as u64;
    Ok((Csr::from_raw_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals), stats))
}

/// Multi-threaded Gustavson SpGEMM: output rows are claimed greedily in
/// blocks by `n_threads` workers, each with a private dense accumulator —
/// the OpenMP threading structure of MKL's SpGEMM.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn spgemm_parallel(
    a: &Csr,
    b: &Csr,
    n_threads: usize,
) -> Result<(Csr, TrafficStats), SparseError> {
    assert!(n_threads > 0, "need at least one thread");
    check_shapes(a, b)?;
    const BLOCK: u32 = 128;
    let next_block = AtomicU32::new(0);
    let n_blocks = a.nrows().div_ceil(BLOCK);

    type BlockOut = (u32, Vec<usize>, Vec<Index>, Vec<Value>);
    let results: Mutex<Vec<BlockOut>> = Mutex::new(Vec::new());
    let total_stats: Mutex<TrafficStats> = Mutex::new(TrafficStats::default());

    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            let next_block = &next_block;
            let results = &results;
            let total_stats = &total_stats;
            scope.spawn(move || {
                let mut acc = vec![0.0 as Value; b.ncols() as usize];
                let mut flags = vec![false; b.ncols() as usize];
                let mut touched: Vec<Index> = Vec::new();
                let mut stats = TrafficStats::default();
                loop {
                    let blk = next_block.fetch_add(1, Ordering::Relaxed);
                    if blk >= n_blocks {
                        break;
                    }
                    let lo = blk * BLOCK;
                    let hi = ((blk + 1) * BLOCK).min(a.nrows());
                    let mut cols = Vec::new();
                    let mut vals = Vec::new();
                    let mut sizes = Vec::with_capacity((hi - lo) as usize);
                    for i in lo..hi {
                        let before = cols.len();
                        row_into(
                            a, b, i, &mut acc, &mut flags, &mut touched, &mut cols,
                            &mut vals, &mut stats,
                        );
                        sizes.push(cols.len() - before);
                    }
                    results.lock().expect("poisoned").push((blk, sizes, cols, vals));
                }
                let mut t = total_stats.lock().expect("poisoned");
                t.bytes_touched += stats.bytes_touched;
                t.multiplies += stats.multiplies;
                t.additions += stats.additions;
            });
        }
    });

    let mut blocks = results.into_inner().expect("poisoned");
    blocks.sort_by_key(|&(idx, ..)| idx);
    let mut row_ptr = vec![0usize];
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for (_, sizes, bcols, bvals) in blocks {
        for s in sizes {
            row_ptr.push(row_ptr.last().expect("non-empty") + s);
        }
        cols.extend_from_slice(&bcols);
        vals.extend_from_slice(&bvals);
    }
    let mut stats = total_stats.into_inner().expect("poisoned");
    stats.bytes_written = 12 * cols.len() as u64;
    Ok((Csr::from_raw_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals), stats))
}

/// Two-phase Gustavson SpGEMM: a *symbolic* pass computes the exact output
/// pattern size per row (no values), then a *numeric* pass fills
/// exactly-sized arrays. This is the inspector-executor structure of MKL's
/// two-stage `mkl_sparse_sp2m` API: twice the traversal work, but no
/// reallocation and a reusable inspection for repeated products with the
/// same pattern.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn spgemm_two_phase(a: &Csr, b: &Csr) -> Result<(Csr, TrafficStats), SparseError> {
    check_shapes(a, b)?;
    let mut stats = TrafficStats::default();

    // --- Symbolic pass: per-row output nnz via a visited-flag accumulator.
    let mut flags = vec![false; b.ncols() as usize];
    let mut touched: Vec<Index> = Vec::new();
    let mut row_ptr = vec![0usize; a.nrows() as usize + 1];
    for i in 0..a.nrows() {
        let (a_cols, _) = a.row(i);
        stats.bytes_touched += 12 * a_cols.len() as u64;
        for &k in a_cols {
            let (b_cols, _) = b.row(k);
            // Symbolic pass touches indices only: 4 B per entry.
            stats.bytes_touched += 4 * b_cols.len() as u64;
            for &j in b_cols {
                if !flags[j as usize] {
                    flags[j as usize] = true;
                    touched.push(j);
                }
            }
        }
        row_ptr[i as usize + 1] = row_ptr[i as usize] + touched.len();
        for &j in &touched {
            flags[j as usize] = false;
        }
        touched.clear();
    }

    // --- Numeric pass: fill pre-sized arrays.
    let total = row_ptr[a.nrows() as usize];
    let mut cols = vec![0 as Index; total];
    let mut vals = vec![0.0 as Value; total];
    let mut acc = vec![0.0 as Value; b.ncols() as usize];
    let mut cursor = 0usize;
    for i in 0..a.nrows() {
        let (a_cols, a_vals) = a.row(i);
        stats.bytes_touched += 12 * a_cols.len() as u64;
        for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            stats.bytes_touched += 12 * b_cols.len() as u64;
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                if !flags[j as usize] {
                    flags[j as usize] = true;
                    touched.push(j);
                    acc[j as usize] = a_ik * b_kj;
                } else {
                    acc[j as usize] += a_ik * b_kj;
                    stats.additions += 1;
                }
                stats.multiplies += 1;
            }
        }
        touched.sort_unstable();
        for &j in touched.iter() {
            cols[cursor] = j;
            vals[cursor] = acc[j as usize];
            flags[j as usize] = false;
            cursor += 1;
        }
        debug_assert_eq!(cursor, row_ptr[i as usize + 1]);
        touched.clear();
    }
    stats.bytes_written = 12 * total as u64;
    Ok((Csr::from_raw_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals), stats))
}

/// Computes one output row into `cols`/`vals` using the dense accumulator.
#[allow(clippy::too_many_arguments)]
fn row_into(
    a: &Csr,
    b: &Csr,
    i: Index,
    acc: &mut [Value],
    flags: &mut [bool],
    touched: &mut Vec<Index>,
    cols: &mut Vec<Index>,
    vals: &mut Vec<Value>,
    stats: &mut TrafficStats,
) {
    let (a_cols, a_vals) = a.row(i);
    stats.bytes_touched += 12 * a_cols.len() as u64;
    for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
        let (b_cols, b_vals) = b.row(k);
        // Every output row touching k re-reads row_k(B): the redundancy.
        stats.bytes_touched += 12 * b_cols.len() as u64;
        for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
            let slot = j as usize;
            if !flags[slot] {
                flags[slot] = true;
                touched.push(j);
                acc[slot] = a_ik * b_kj;
            } else {
                acc[slot] += a_ik * b_kj;
                stats.additions += 1;
            }
            stats.multiplies += 1;
        }
    }
    touched.sort_unstable();
    for &j in touched.iter() {
        cols.push(j);
        vals.push(acc[j as usize]);
        flags[j as usize] = false;
    }
    touched.clear();
}

fn check_shapes(a: &Csr, b: &Csr) -> Result<(), SparseError> {
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;
    use outerspace_sparse::ops;

    #[test]
    fn matches_reference() {
        for seed in 0..4 {
            let a = uniform::matrix(96, 96, 900, seed);
            let b = uniform::matrix(96, 96, 900, seed + 10);
            let (c, _) = spgemm(&a, &b).unwrap();
            let want = ops::spgemm_reference(&a, &b).unwrap();
            assert!(c.approx_eq(&want, 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = uniform::matrix(200, 200, 3000, 1);
        let b = uniform::matrix(200, 200, 3000, 2);
        let (c1, s1) = spgemm(&a, &b).unwrap();
        let (c2, s2) = spgemm_parallel(&a, &b, 4).unwrap();
        assert!(c1.approx_eq(&c2, 1e-9));
        assert_eq!(s1.multiplies, s2.multiplies);
        assert_eq!(s1.bytes_touched, s2.bytes_touched);
    }

    #[test]
    fn traffic_exceeds_compulsory_on_shared_rows() {
        // A dense column in A forces row 0 of B to be fetched once per
        // output row: traffic >> compulsory.
        let n = 64u32;
        let mut coo = outerspace_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, 0, 1.0); // column 0 of A fully dense
        }
        let a = coo.to_csr();
        let mut coo_b = outerspace_sparse::Coo::new(n, n);
        for j in 0..n {
            coo_b.push(0, j, 1.0); // row 0 of B fully dense
        }
        let b = coo_b.to_csr();
        let (_, stats) = spgemm(&a, &b).unwrap();
        let compulsory = 12 * (a.nnz() + b.nnz()) as u64;
        assert!(
            stats.bytes_touched > 10 * compulsory,
            "touched {} vs compulsory {compulsory}",
            stats.bytes_touched
        );
    }

    #[test]
    fn flop_count_matches_formula() {
        let a = uniform::matrix(64, 64, 512, 3);
        let b = uniform::matrix(64, 64, 512, 4);
        let (_, stats) = spgemm(&a, &b).unwrap();
        let flops = ops::spgemm_flops(&a, &b).unwrap();
        // The formula counts 2 flops per elementary product; Gustavson's
        // first write per slot is a multiply without an addition.
        assert_eq!(stats.multiplies * 2, flops);
        assert!(stats.additions < stats.multiplies);
    }

    #[test]
    fn two_phase_matches_single_phase() {
        let a = uniform::matrix(120, 120, 1400, 8);
        let b = uniform::matrix(120, 120, 1400, 9);
        let (c1, s1) = spgemm(&a, &b).unwrap();
        let (c2, s2) = spgemm_two_phase(&a, &b).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
        assert_eq!(s1.multiplies, s2.multiplies);
        // The symbolic pass adds index traffic on top of the numeric pass.
        assert!(s2.bytes_touched > s1.bytes_touched);
    }

    #[test]
    fn two_phase_handles_empty_rows() {
        let a = Csr::new(3, 3, vec![0, 0, 2, 2], vec![0, 2], vec![1.0, 2.0]).unwrap();
        let (c, _) = spgemm_two_phase(&a, &a).unwrap();
        let want = outerspace_sparse::ops::spgemm_reference(&a, &a).unwrap();
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn first_product_is_assigned_and_cancelled_sums_stay() {
        // c_00 = 1·(−0): assigned, so it keeps the sign `0.0 + −0.0` drops.
        // c_01 = 1·1 + 1·(−1): cancels exactly and stays an entry.
        let a = Csr::new(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let b = Csr::new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![-0.0, 1.0, -1.0]).unwrap();
        let (c, _) = spgemm(&a, &b).unwrap();
        assert_eq!(c.row_ptr(), &[0, 2]);
        assert_eq!(c.col_indices(), &[0, 1]);
        let bits: Vec<u64> = c.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [(-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }

    #[test]
    fn shape_mismatch() {
        let a = Csr::zero(3, 4);
        let b = Csr::zero(3, 3);
        assert!(spgemm(&a, &b).is_err());
    }

    #[test]
    fn identity_product() {
        let eye = Csr::identity(32);
        let (c, _) = spgemm_parallel(&eye, &eye, 3).unwrap();
        assert!(c.approx_eq(&eye, 0.0));
    }
}
