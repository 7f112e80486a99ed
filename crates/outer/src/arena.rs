//! The intermediate partial-product structure of Fig. 2, in flat arena form.
//!
//! The multiply phase emits, for every result row `i`, a list of *chunks* —
//! each chunk is the contribution of one outer product to that row: the
//! paired row-of-`B` scaled by one non-zero of the column-of-`A`. Chunks are
//! contiguous runs of column-index/value pairs, already sorted by column
//! (they inherit the order of the source row-of-`B`); the per-row list
//! corresponds to the paper's linked list hanging off the row pointer `R_i`.
//! Because each producer appends whole chunks, processing units never
//! synchronize on element granularity — the property OuterSPACE exploits
//! for lock-free multiply-phase writes.
//!
//! [`ArenaProducts`] stores those lists in four flat arrays instead of one
//! heap allocation per chunk:
//!
//! ```text
//! cols/vals        all chunk payloads, grouped by result row, chunks in
//!                  k-ascending order within a row
//! chunk_ptr[c]     entry offset where chunk c starts (len total_chunks+1)
//! row_chunk_ptr[i] chunk index where row i's chunks start (len nrows+1)
//! ```
//!
//! Row `i`'s linked list survives as [`ArenaProducts::row_chunk_slices`].
//! [`ArenaBuilder`] fills the layout in two passes — count every chunk,
//! then place every chunk in the same order — so a whole multiply phase
//! costs six allocations regardless of input size (see [`crate::multiply`]).

use outerspace_sparse::{Index, Value};

/// The multiply phase's output: for every result row, the chunks to be
/// merged, in k-ascending order. See the module docs for the layout.
///
/// In CC mode the same structure is indexed by result *column*; the merge
/// code is agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaProducts {
    nrows: Index,
    ncols: Index,
    cols: Vec<Index>,
    vals: Vec<Value>,
    chunk_ptr: Vec<usize>,
    row_chunk_ptr: Vec<usize>,
}

impl ArenaProducts {
    /// Number of result rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of result columns (bound for merge output).
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Total stored elementary products.
    pub fn total_entries(&self) -> usize {
        self.cols.len()
    }

    /// Total number of chunks (the paper's linked-list node count).
    pub fn total_chunks(&self) -> usize {
        self.chunk_ptr.len() - 1
    }

    /// Number of chunks contributing to row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_chunk_count(&self, i: Index) -> usize {
        self.row_chunk_ptr[i as usize + 1] - self.row_chunk_ptr[i as usize]
    }

    /// The `(cols, vals)` slice pair of every chunk contributing to row
    /// `i`, in k-ascending order: Fig. 2's linked list for `R_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_chunk_slices(
        &self,
        i: Index,
    ) -> impl Iterator<Item = (&[Index], &[Value])> + '_ {
        let lo = self.row_chunk_ptr[i as usize];
        let hi = self.row_chunk_ptr[i as usize + 1];
        (lo..hi).map(move |c| {
            let s = self.chunk_ptr[c];
            let e = self.chunk_ptr[c + 1];
            (&self.cols[s..e], &self.vals[s..e])
        })
    }

    /// Memory footprint in bytes: 12 B per stored element (8 B value +
    /// 4 B index) plus 8 B per chunk pointer and 8 B per row pointer — the
    /// `α·N + β·N²·r + γ·N³·r²` structure of §5.5 made concrete.
    pub fn memory_footprint_bytes(&self) -> usize {
        self.cols.len() * 12 + self.chunk_ptr.len() * 8 + self.row_chunk_ptr.len() * 8
    }
}

/// Two-pass arena construction: count every chunk, seal the layout, then
/// place every chunk in the *same order*. Shared by the sequential build
/// and the parallel reconstruction.
pub(crate) struct ArenaBuilder {
    nrows: Index,
    ncols: Index,
    /// Pass 1: chunks per row. After `seal_counts`: next chunk slot per row.
    row_chunk_cursor: Vec<usize>,
    /// Pass 1: entries per row. After `seal_counts`: next entry slot per row.
    row_entry_cursor: Vec<usize>,
    row_chunk_ptr: Vec<usize>,
    chunk_ptr: Vec<usize>,
    cols: Vec<Index>,
    vals: Vec<Value>,
}

impl ArenaBuilder {
    pub(crate) fn new(nrows: Index, ncols: Index) -> ArenaBuilder {
        ArenaBuilder {
            nrows,
            ncols,
            row_chunk_cursor: vec![0; nrows as usize],
            row_entry_cursor: vec![0; nrows as usize],
            row_chunk_ptr: Vec::new(),
            chunk_ptr: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    pub(crate) fn count_chunk(&mut self, i: Index, len: usize) {
        self.row_chunk_cursor[i as usize] += 1;
        self.row_entry_cursor[i as usize] += len;
    }

    /// Turns the per-row counts into start cursors and allocates the whole
    /// arena — the only data-sized allocations of the build.
    pub(crate) fn seal_counts(&mut self) {
        let nrows = self.nrows as usize;
        self.row_chunk_ptr = Vec::with_capacity(nrows + 1);
        self.row_chunk_ptr.push(0);
        let mut chunk_acc = 0usize;
        let mut entry_acc = 0usize;
        for i in 0..nrows {
            chunk_acc += self.row_chunk_cursor[i];
            self.row_chunk_ptr.push(chunk_acc);
            let entries = self.row_entry_cursor[i];
            self.row_entry_cursor[i] = entry_acc;
            entry_acc += entries;
        }
        self.row_chunk_cursor.copy_from_slice(&self.row_chunk_ptr[..nrows]);
        self.chunk_ptr = vec![0; chunk_acc + 1];
        self.chunk_ptr[chunk_acc] = entry_acc;
        self.cols = vec![0; entry_acc];
        self.vals = vec![0.0; entry_acc];
    }

    /// Places one chunk into row `i`'s next slot: copies `src_cols` and
    /// lets `fill_vals` write the values in place (so the multiply phase
    /// scales straight into the arena with no bounce buffer).
    pub(crate) fn place_chunk<F: FnOnce(&mut [Value])>(
        &mut self,
        i: Index,
        src_cols: &[Index],
        fill_vals: F,
    ) {
        let r = i as usize;
        let c = self.row_chunk_cursor[r];
        self.row_chunk_cursor[r] = c + 1;
        let start = self.row_entry_cursor[r];
        let end = start + src_cols.len();
        self.row_entry_cursor[r] = end;
        self.chunk_ptr[c] = start;
        self.cols[start..end].copy_from_slice(src_cols);
        fill_vals(&mut self.vals[start..end]);
    }

    pub(crate) fn finish(self) -> ArenaProducts {
        debug_assert_eq!(self.row_chunk_cursor.last(), self.row_chunk_ptr.last());
        ArenaProducts {
            nrows: self.nrows,
            ncols: self.ncols,
            cols: self.cols,
            vals: self.vals,
            chunk_ptr: self.chunk_ptr,
            row_chunk_ptr: self.row_chunk_ptr,
        }
    }
}

/// Test support: Fig. 2's per-row chunk lists built the naive way, one
/// owned `(cols, vals)` pair per chunk — for every `k` in ascending order,
/// each non-zero `a_ik` of column `k` of `A` appends `a_ik · B[k,:]` to row
/// `i`'s list (skipping empty rows of `B`). The reference the arena and the
/// merges are held to.
#[cfg(test)]
pub(crate) fn reference_chunk_lists(
    a: &outerspace_sparse::Csc,
    b: &outerspace_sparse::Csr,
) -> Vec<Vec<(Vec<Index>, Vec<Value>)>> {
    let mut rows = vec![Vec::new(); a.nrows() as usize];
    for k in 0..a.ncols() {
        let (a_rows, a_vals) = a.col(k);
        let (b_cols, b_vals) = b.row(k);
        if b_cols.is_empty() {
            continue;
        }
        for (&i, &a_ik) in a_rows.iter().zip(a_vals) {
            let vals = b_vals.iter().map(|&b_kj| a_ik * b_kj).collect();
            rows[i as usize].push((b_cols.to_vec(), vals));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiply::{multiply, multiply_parallel};
    use outerspace_gen::uniform;
    use outerspace_sparse::{Csc, Csr, SparseError};

    fn operand_pair(n: u32, nnz: usize, seed: u64) -> (Csc, Csr) {
        let a = uniform::matrix(n, n, nnz, seed);
        let b = uniform::matrix(n, n, nnz, seed + 1);
        (a.to_csc(), b)
    }

    #[test]
    fn arena_matches_chunk_list_multiply_exactly() {
        // Shape and counters against the naive chunk lists; the payloads
        // are compared in `row_chunk_slices_reproduce_partial_products`.
        let (a, b) = operand_pair(64, 500, 7);
        let lists = reference_chunk_lists(&a, &b);
        let (ap, stats) = multiply(&a, &b).unwrap();
        assert_eq!(ap.nrows() as usize, lists.len());
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(ap.row_chunk_count(i as Index), list.len(), "row {i}");
        }
        let chunks: usize = lists.iter().map(Vec::len).sum();
        let entries: usize = lists.iter().flatten().map(|(cols, _)| cols.len()).sum();
        assert_eq!(ap.total_chunks(), chunks);
        assert_eq!(ap.total_entries(), entries);
        assert_eq!(stats.chunks, chunks as u64);
        assert_eq!(stats.elementary_products, entries as u64);
        assert_eq!(stats.bytes_written, 12 * entries as u64);
    }

    #[test]
    fn parallel_arena_is_byte_identical_to_sequential() {
        let (a, b) = operand_pair(96, 1200, 11);
        let (seq, s_seq) = multiply(&a, &b).unwrap();
        for threads in [1, 2, 3, 5] {
            let (par, s_par) = multiply_parallel(&a, &b, threads).unwrap();
            assert_eq!(seq, par, "{threads} threads");
            assert_eq!(s_seq, s_par, "{threads} threads");
        }
    }

    #[test]
    fn row_chunk_slices_reproduce_partial_products() {
        let (a, b) = operand_pair(32, 200, 3);
        let lists = reference_chunk_lists(&a, &b);
        let (ap, _) = multiply(&a, &b).unwrap();
        for (i, list) in lists.iter().enumerate() {
            let slices: Vec<_> = ap.row_chunk_slices(i as Index).collect();
            assert_eq!(list.len(), slices.len(), "row {i}");
            for ((cols, vals), (s_cols, s_vals)) in list.iter().zip(&slices) {
                assert_eq!(&cols[..], *s_cols);
                assert_eq!(&vals[..], *s_vals);
            }
        }
    }

    #[test]
    fn empty_operands_build_empty_arena() {
        let a = Csc::zero(4, 4);
        let b = Csr::identity(4);
        let (ap, _) = multiply(&a, &b).unwrap();
        assert_eq!((ap.nrows(), ap.ncols()), (4, 4));
        assert_eq!(ap.total_chunks(), 0);
        assert_eq!(ap.total_entries(), 0);
        assert!((0..4).all(|i| ap.row_chunk_count(i) == 0));
        // Only the pointer arrays remain: 1 chunk pointer + 5 row pointers.
        assert_eq!(ap.memory_footprint_bytes(), 6 * 8);
    }

    #[test]
    fn shape_mismatch_detected() {
        // Both arena builders refuse before allocating, at any worker count,
        // and report the two operand shapes.
        let a = Csc::zero(2, 3);
        let b = Csr::zero(2, 2);
        let shapes = |e: SparseError| match e {
            SparseError::ShapeMismatch { left, right, .. } => (left, right),
            other => panic!("unexpected error {other:?}"),
        };
        assert_eq!(shapes(multiply(&a, &b).unwrap_err()), ((2, 3), (2, 2)));
        for threads in [1, 2, 3] {
            let err = multiply_parallel(&a, &b, threads).unwrap_err();
            assert_eq!(shapes(err), ((2, 3), (2, 2)), "{threads} threads");
        }
    }

    #[test]
    fn footprint_is_leaner_than_chunk_lists() {
        let (a, b) = operand_pair(64, 800, 19);
        let (ap, _) = multiply(&a, &b).unwrap();
        let (rows, chunks, entries) =
            (ap.nrows() as usize, ap.total_chunks(), ap.total_entries());
        assert_eq!(ap.memory_footprint_bytes(), 12 * entries + 8 * (chunks + 1) + 8 * (rows + 1));
        // A Vec-per-chunk layout: 8 B per row pointer, 16 B per chunk.
        let chunk_lists = 8 * rows + 16 * chunks + 12 * entries;
        assert!(ap.memory_footprint_bytes() < chunk_lists);
    }
}
