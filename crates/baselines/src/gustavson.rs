//! Row-wise Gustavson SpGEMM — the Intel MKL analog.
//!
//! For each output row `i`, scatter `a_ik · row_k(B)` into a dense
//! accumulator and gather the touched columns. MKL's SpGEMM is a heavily
//! vectorized variant of exactly this; its key behaviours reproduced here
//! are (a) run time proportional to flops with cache-friendly streaming of
//! `B`'s rows when the matrix is regular, and (b) repeated fetches of the
//! same rows-of-`B` across different output rows — the redundant traffic the
//! outer-product method eliminates.
//!
//! All three entry points share one row kernel, which keeps a `u64` bitmap
//! of touched columns and a dense accumulator holding `-0.0` in every column
//! between rows. A pass over `a_i*` first reads the ends of the rows of `B`
//! it visits: the row's products and the bitmap words they span. A row
//! spanning under 4 words per product is *dense*, any other *sparse*; the
//! rule is fixed, and both paths emit the same bits.
//!
//! * A dense row neither branches on a column's first touch nor sorts.
//!   Every product is added to the accumulator: `-0.0 + p` is bitwise `p`
//!   for every `p` (±0, ±inf and NaN included), so the first product is in
//!   effect assigned, which is the summation contract [`spgemm`] documents.
//!   Each column is stored at the end of the touched list unconditionally
//!   and the list grows only when the column's bit was clear, so the list
//!   needs `ncols + 1` slots. The row is gathered in column order by
//!   walking the set bits of its span.
//! * A sparse row assigns each column's first product and adds the later
//!   ones, behind a branch on the column's bit: nearly every product is a
//!   first touch, so the branch predicts well, and a first touch stores to
//!   the accumulator without loading it. The row is gathered by sorting its
//!   touched list, since walking its span would read more bitmap words than
//!   it has products.
//!
//! Gathering an entry re-seeds its column with `-0.0` and clears its bit.

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
/// outer-product pipeline's, signed zeros and infinities included. Dense
/// rows get the assignment without a branch by adding the first product to
/// a `-0.0` seed and are gathered from the bitmap; sparse rows branch on
/// first touch and are gathered by sorting (see the module docs). Neither
/// changes a bit of the result. The output arrays are sized exactly, with
/// no growth slack.
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
    let mut rows = RowAcc::new(b.ncols());
    let mut row_ptr = Vec::with_capacity(a.nrows() as usize + 1);
    row_ptr.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        rows.row_into(a, b, i, &mut cols, &mut vals, &mut stats);
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
                let mut rows = RowAcc::new(b.ncols());
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
                        rows.row_into(a, b, i, &mut cols, &mut vals, &mut stats);
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
/// same pattern. Both passes run on the row kernel's bitmap, and the
/// numeric pass is the row kernel [`spgemm`] runs.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn spgemm_two_phase(a: &Csr, b: &Csr) -> Result<(Csr, TrafficStats), SparseError> {
    check_shapes(a, b)?;
    let mut stats = TrafficStats::default();
    let mut rows = RowAcc::new(b.ncols());

    // --- Symbolic pass: per-row output nnz.
    let mut row_ptr = Vec::with_capacity(a.nrows() as usize + 1);
    row_ptr.push(0usize);
    for i in 0..a.nrows() {
        let nnz = rows.row_nnz(a, b, i, &mut stats);
        row_ptr.push(row_ptr[i as usize] + nnz);
    }

    // --- Numeric pass: fill exactly sized arrays.
    let total = row_ptr[a.nrows() as usize];
    let mut cols = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for i in 0..a.nrows() {
        rows.row_into(a, b, i, &mut cols, &mut vals, &mut stats);
        debug_assert_eq!(cols.len(), row_ptr[i as usize + 1]);
    }
    stats.bytes_written = 12 * total as u64;
    Ok((Csr::from_raw_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals), stats))
}

/// The accumulator's value between rows; see the module docs.
const SEED: Value = -0.0;

/// Whether a row whose products span bitmap words `wlo..=whi` is dense:
/// under 4 words per product, so the bitmap walk reads at most 4 words per
/// product the scatter already made.
fn is_dense(wlo: Index, whi: Index, products: usize) -> bool {
    ((whi - wlo + 1) as usize) < 4 * products
}

/// The row kernel's dense workspace for one `B`, reused across rows. Every
/// column of `acc` holds [`SEED`] and every bit of `bits` is clear between
/// rows.
struct RowAcc {
    acc: Vec<Value>,
    bits: Vec<u64>,
    /// The current row's distinct columns in first-touch order, with one
    /// spare slot for [`RowAcc::mark`]'s unconditional store.
    touched: Vec<Index>,
}

impl RowAcc {
    fn new(ncols: Index) -> RowAcc {
        let n = ncols as usize;
        RowAcc { acc: vec![SEED; n], bits: vec![0; n.div_ceil(64)], touched: vec![0; n + 1] }
    }

    /// Marks column `j` touched, given `n` distinct columns so far, and
    /// returns the new count: `j` is stored at slot `n` either way and kept
    /// only if its bit was clear.
    #[inline(always)]
    fn mark(bits: &mut [u64], touched: &mut [Index], n: usize, j: Index) -> usize {
        let (w, bit) = (j as usize >> 6, 1u64 << (j & 63));
        let word = bits[w];
        touched[n] = j;
        bits[w] = word | bit;
        n + usize::from(word & bit == 0)
    }

    /// Appends row `i` of `a · b` to `cols`/`vals`.
    fn row_into(
        &mut self,
        a: &Csr,
        b: &Csr,
        i: Index,
        cols: &mut Vec<Index>,
        vals: &mut Vec<Value>,
        stats: &mut TrafficStats,
    ) {
        let (a_cols, a_vals) = a.row(i);
        stats.bytes_touched += 12 * a_cols.len() as u64;
        // A CSR row's columns increase strictly, so the ends of the rows of
        // B it visits bound the output row.
        let (mut lo, mut hi, mut products) = (Index::MAX, 0, 0);
        for &k in a_cols {
            let (b_cols, _) = b.row(k);
            // Every output row touching k re-reads row_k(B): the redundancy.
            stats.bytes_touched += 12 * b_cols.len() as u64;
            if let (Some(&first), Some(&last)) = (b_cols.first(), b_cols.last()) {
                (lo, hi, products) = (lo.min(first), hi.max(last), products + b_cols.len());
            }
        }
        if products == 0 {
            return;
        }
        let (wlo, whi) = (lo >> 6, hi >> 6);
        let n = if is_dense(wlo, whi, products) {
            let n = self.scatter_dense(a_cols, a_vals, b);
            cols.reserve(n);
            vals.reserve(n);
            self.walk(wlo, whi, cols, vals);
            n
        } else {
            let n = self.scatter_sparse(a_cols, a_vals, b);
            cols.reserve(n);
            vals.reserve(n);
            self.sort_gather(n, cols, vals);
            n
        };
        stats.multiplies += products as u64;
        stats.additions += (products - n) as u64;
    }

    /// Adds every product to its column's accumulator, first touch or not,
    /// and returns the row's distinct columns.
    fn scatter_dense(&mut self, a_cols: &[Index], a_vals: &[Value], b: &Csr) -> usize {
        let mut n = 0;
        for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                n = Self::mark(&mut self.bits, &mut self.touched, n, j);
                self.acc[j as usize] += a_ik * b_kj;
            }
        }
        n
    }

    /// Assigns each column's first product and adds the later ones, and
    /// returns the row's distinct columns. On a sparse row nearly every
    /// product is a first touch, so the branch predicts well and the
    /// accumulator is only stored, never loaded, on a first touch.
    fn scatter_sparse(&mut self, a_cols: &[Index], a_vals: &[Value], b: &Csr) -> usize {
        let mut n = 0;
        for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                let (w, bit) = (j as usize >> 6, 1u64 << (j & 63));
                if self.bits[w] & bit == 0 {
                    self.bits[w] |= bit;
                    self.touched[n] = j;
                    n += 1;
                    self.acc[j as usize] = a_ik * b_kj;
                } else {
                    self.acc[j as usize] += a_ik * b_kj;
                }
            }
        }
        n
    }

    /// Appends the touched columns of words `wlo..=whi` in column order with
    /// their sums by walking the set bits, and leaves the workspace clean.
    fn walk(&mut self, wlo: Index, whi: Index, cols: &mut Vec<Index>, vals: &mut Vec<Value>) {
        for (w, word) in (wlo..).zip(&mut self.bits[wlo as usize..=whi as usize]) {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                let j = w << 6 | rest.trailing_zeros();
                rest &= rest - 1;
                cols.push(j);
                vals.push(std::mem::replace(&mut self.acc[j as usize], SEED));
            }
        }
    }

    /// Appends the `n` touched columns in column order with their sums by
    /// sorting them, and leaves the workspace clean.
    fn sort_gather(&mut self, n: usize, cols: &mut Vec<Index>, vals: &mut Vec<Value>) {
        let touched = &mut self.touched[..n];
        touched.sort_unstable();
        for &j in touched.iter() {
            cols.push(j);
            vals.push(std::mem::replace(&mut self.acc[j as usize], SEED));
            self.bits[j as usize >> 6] = 0;
        }
    }

    /// Row `i`'s output nnz: the symbolic pass of [`spgemm_two_phase`],
    /// which reads indices only (4 B per entry of `B`).
    fn row_nnz(&mut self, a: &Csr, b: &Csr, i: Index, stats: &mut TrafficStats) -> usize {
        let (a_cols, _) = a.row(i);
        stats.bytes_touched += 12 * a_cols.len() as u64;
        let mut n = 0;
        for &k in a_cols {
            let (b_cols, _) = b.row(k);
            stats.bytes_touched += 4 * b_cols.len() as u64;
            for &j in b_cols {
                n = Self::mark(&mut self.bits, &mut self.touched, n, j);
            }
        }
        for &j in &self.touched[..n] {
            self.bits[j as usize >> 6] = 0;
        }
        n
    }
}

fn check_shapes(a: &Csr, b: &Csr) -> Result<(), SparseError> {
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::rng::{Rng, SmallRng};
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

    /// The row kernel before the bitmap rewrite, kept as the reference of
    /// [`row_kernel_is_bitwise_the_assign_then_sort_kernel`]: a `bool` flag
    /// per column, the first product assigned and later ones added, the
    /// touched columns sorted.
    fn assign_then_sort(a: &Csr, b: &Csr) -> (Csr, TrafficStats) {
        let mut stats = TrafficStats::default();
        let n = b.ncols() as usize;
        let (mut acc, mut flags, mut touched) = (vec![0.0; n], vec![false; n], Vec::new());
        let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for i in 0..a.nrows() {
            let (a_cols, a_vals) = a.row(i);
            stats.bytes_touched += 12 * a_cols.len() as u64;
            for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k);
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
            for &j in &touched {
                cols.push(j);
                vals.push(acc[j as usize]);
                flags[j as usize] = false;
            }
            touched.clear();
            row_ptr.push(cols.len());
        }
        stats.bytes_written = 12 * cols.len() as u64;
        (Csr::from_raw_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals), stats)
    }

    fn assert_same_bits(got: &Csr, want: &Csr, what: &str) {
        assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{what}");
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}");
        assert_eq!(got.col_indices(), want.col_indices(), "{what}");
        let bits = |c: &Csr| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// A seeded random operand. Its rows are empty, a clustered window of
    /// columns, or a few columns scattered over the whole width, half of
    /// them from four columns spread across it, so that sparse rows of a
    /// product also sum several products into one column; a third of its
    /// values come from a palette whose products and sums reach ±0, ±inf,
    /// NaN and exact cancellations. The rows in `full` hold every column.
    fn operand(nrows: Index, ncols: Index, full: &[Index], rng: &mut SmallRng) -> Csr {
        const PALETTE: [Value; 8] =
            [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0, 0.5, -2.0];
        let mut row_ptr = vec![0usize];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for r in 0..nrows {
            let mut picks: Vec<Index> = match rng.gen_range(0..4u32) {
                _ if full.contains(&r) => (0..ncols).collect(),
                0 => Vec::new(),
                1 => {
                    let len = rng.gen_range(1..=ncols.min(300));
                    let start = rng.gen_range(0..=ncols - len);
                    (start..start + len).filter(|_| rng.gen_range(0..3u32) > 0).collect()
                }
                _ => {
                    let spread = [0, ncols / 3, 2 * ncols / 3, ncols - 1];
                    (0..rng.gen_range(1..=4u32))
                        .map(|_| match rng.gen_range(0..8u32) {
                            0..=3 => rng.gen_range(0..ncols),
                            s => spread[s as usize - 4],
                        })
                        .collect()
                }
            };
            picks.sort_unstable();
            picks.dedup();
            for j in picks {
                cols.push(j);
                vals.push(if rng.gen_range(0..3u32) == 0 {
                    PALETTE[rng.gen_range(0..PALETTE.len())]
                } else {
                    rng.gen::<f64>() * 2.0 - 1.0
                });
            }
            row_ptr.push(cols.len());
        }
        Csr::new(nrows, ncols, row_ptr, cols, vals).expect("sorted unique columns")
    }

    #[test]
    fn row_kernel_is_bitwise_the_assign_then_sort_kernel() {
        // c_0 = inf·1 + (−inf)·1 = NaN, c_1 = (−0) + (−0), c_2 = 1 − 1.
        let a = Csr::new(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let inf = f64::INFINITY;
        let b_vals = vec![inf, -0.0, 1.0, -inf, -0.0, -1.0];
        let b = Csr::new(2, 3, vec![0, 3, 6], vec![0, 1, 2, 0, 1, 2], b_vals).unwrap();
        let mut cases = vec![(a, b)];
        // (rows of A, inner dimension, columns of B, seeds). Row 0 of A and
        // rows 0 and 1 of B are full, so row 0 of C touches every column of B
        // with at least twice as many products as columns.
        let shapes = [
            (7, 2, 1, 3),
            (40, 17, 63, 3),
            (33, 64, 64, 3),
            (64, 20, 65, 3),
            (50, 80, 1000, 3),
            (300, 40, 4096, 2),
            (30, 12, 200_000, 1),
        ];
        for (m, p, ncols, seeds) in shapes {
            for seed in 0..seeds {
                let mut rng = SmallRng::seed_from_u64(seed * 1000 + u64::from(ncols));
                let a = operand(m, p, &[0], &mut rng);
                let b = operand(p, ncols, &[0, 1], &mut rng);
                cases.push((a, b));
            }
        }
        let mut seen = [false; 4]; // NaN, ±inf, -0.0, an exact cancellation's +0.0
        let mut rows = [0usize; 3]; // dense, sparse, sparse with a sum of products
        for (a, b) in &cases {
            let what = format!("{}x{} · {}x{}", a.nrows(), a.ncols(), b.nrows(), b.ncols());
            let (want, want_stats) = assign_then_sort(a, b);
            let (c, stats) = spgemm(a, b).unwrap();
            assert_same_bits(&c, &want, &what);
            assert_eq!(stats, want_stats, "{what}");
            for threads in [1, 3] {
                let (cp, sp) = spgemm_parallel(a, b, threads).unwrap();
                assert_same_bits(&cp, &c, &format!("{what}, {threads} threads"));
                assert_eq!(sp, stats, "{what}, {threads} threads");
            }
            let (c2, s2) = spgemm_two_phase(a, b).unwrap();
            assert_same_bits(&c2, &c, &format!("{what}, two-phase"));
            let symbolic = 12 * a.nnz() as u64 + 4 * stats.multiplies;
            assert_eq!(s2, TrafficStats { bytes_touched: stats.bytes_touched + symbolic, ..stats });
            for v in c.values() {
                seen[0] |= v.is_nan();
                seen[1] |= v.is_infinite();
                seen[2] |= v.to_bits() == (-0.0f64).to_bits();
                seen[3] |= v.to_bits() == 0;
            }
            // Which path each row takes, from the operands: its products,
            // and its span, which is that of its row of C.
            for i in 0..a.nrows() {
                let products: usize = a.row(i).0.iter().map(|&k| b.row(k).0.len()).sum();
                let c_cols = c.row(i).0;
                if let (Some(&lo), Some(&hi)) = (c_cols.first(), c_cols.last()) {
                    let sparse = !is_dense(lo >> 6, hi >> 6, products);
                    rows[usize::from(sparse)] += 1;
                    rows[2] += usize::from(sparse && products > c_cols.len());
                }
            }
        }
        assert_eq!(seen, [true; 4], "the operands reach every special value");
        assert!(rows.iter().all(|&r| r > 0), "rows: dense, sparse, sparse with a sum {rows:?}");
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
