//! SpArch-analog functional path: condensed outer-product multiply plus a
//! Huffman-scheduled merge tree.
//!
//! SpArch (Zhang et al., HPCA 2020) is the direct follow-on to OuterSPACE.
//! It keeps the outer-product decomposition but removes the linked-list
//! intermediate: matrix `A` is *condensed* — each row's non-zeros are pushed
//! left, so condensed column `k` holds the `k`-th non-zero of every row —
//! and each condensed column streams one sorted partial-product matrix into
//! a comparator-array merge tree. A Huffman-style scheduler merges the
//! smallest partials first, so when the partial count exceeds the tree's
//! arity only the cheapest streams round-trip DRAM.
//!
//! This module is the *functional* model: [`condense`] builds the condensed
//! representation, [`spgemm_sparch`] computes the exact product through the
//! condensed multiply + merge-tree pipeline, and [`SparchPlan`] records the
//! stream sizes and the merge schedule so the timing model
//! (`outerspace_sim::phases::sparch`) replays the very same dataflow.
//! [`sparch_structural_plan`] builds that plan from the operands' index
//! structure alone, for callers that take the product from another kernel.

use outerspace_sparse::{ops, Csr, Index, SparseError, Value};

/// Merge-tree arity used when no configuration is in play (the paper's
/// 64-way comparator array).
pub const DEFAULT_MERGE_WAYS: usize = 64;

/// One non-zero of the condensed matrix, remembering where it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CondensedEntry {
    /// Original row index (also the result row it contributes to).
    pub row: Index,
    /// Original column index (selects the row-of-B it multiplies).
    pub col: Index,
    /// The non-zero value.
    pub val: Value,
}

/// The condensed form of `A`: column `k` holds the `k`-th non-zero of every
/// row that has more than `k` non-zeros, ordered by row. Condensing never
/// reorders a row's non-zeros, so each condensed column is sorted by `row`
/// and holds at most one entry per row.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedA {
    cols: Vec<Vec<CondensedEntry>>,
    nrows: Index,
    ncols: Index,
}

impl CondensedA {
    /// Number of condensed columns (the maximum row population of `A`).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Condensed column `k`, sorted by original row index.
    pub fn col(&self, k: usize) -> &[CondensedEntry] {
        &self.cols[k]
    }

    /// Rows of the original matrix.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Columns of the original matrix.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Total non-zeros over all condensed columns (= `a.nnz()`).
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }
}

/// Condenses `A`: pushes every row's non-zeros leftward. Empty rows simply
/// contribute to no condensed column; the condensed width is the maximum
/// row population.
pub fn condense(a: &Csr) -> CondensedA {
    let width = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap_or(0);
    let mut cols: Vec<Vec<CondensedEntry>> = vec![Vec::new(); width];
    for r in 0..a.nrows() {
        let (rc, rv) = a.row(r);
        for (k, (&c, &v)) in rc.iter().zip(rv).enumerate() {
            cols[k].push(CondensedEntry { row: r, col: c, val: v });
        }
    }
    CondensedA { cols, nrows: a.nrows(), ncols: a.ncols() }
}

/// One scheduled merge step: up to `ways` input streams combine into one.
#[derive(Debug, Clone, PartialEq)]
pub struct SparchMergeOp {
    /// Element count of every input stream, in merge order.
    pub input_elems: Vec<u64>,
    /// Elements surviving the merge (collisions are summed away).
    pub out_elems: u64,
}

impl SparchMergeOp {
    /// Index collisions resolved by this op (adder activations).
    pub fn collisions(&self) -> u64 {
        self.input_elems.iter().sum::<u64>().saturating_sub(self.out_elems)
    }
}

/// The dataflow record the timing model replays: per-leaf stream sizes and
/// the Huffman merge schedule over them.
#[derive(Debug, Clone, PartialEq)]
pub struct SparchPlan {
    /// Condensed width of `A` (number of leaf partial matrices).
    pub condensed_width: usize,
    /// Elements of each leaf partial-product stream, in condensed-column
    /// order.
    pub leaf_elems: Vec<u64>,
    /// True when the leaf count exceeds the tree arity: every partial
    /// round-trips DRAM instead of streaming straight through the tree.
    pub spilled: bool,
    /// Merge steps in execution order (smallest-first Huffman schedule).
    pub ops: Vec<SparchMergeOp>,
    /// Non-zeros of the final product.
    pub result_nnz: u64,
}

impl SparchPlan {
    /// Total elementary products (multiplier activations).
    pub fn total_products(&self) -> u64 {
        self.leaf_elems.iter().sum()
    }

    /// Total collisions over the whole schedule.
    pub fn total_collisions(&self) -> u64 {
        self.ops.iter().map(SparchMergeOp::collisions).sum()
    }
}

/// A sorted partial-product stream: `(row, col, value)` in `(row, col)`
/// order with unique keys.
type Stream = Vec<(Index, Index, Value)>;

/// Generates the leaf partial-product stream of condensed column `k`: each
/// entry `(r, j, v)` scales the `j`-th row of `B`. At most one entry per
/// row, so the concatenation is fully `(row, col)`-sorted.
fn leaf_stream(col: &[CondensedEntry], b: &Csr) -> Stream {
    let mut out = Vec::new();
    for e in col {
        let (bc, bv) = b.row(e.col);
        out.reserve(bc.len());
        for (&c, &v) in bc.iter().zip(bv) {
            out.push((e.row, c, e.val * v));
        }
    }
    out
}

/// Merges up to `ways` sorted streams, summing colliding `(row, col)` keys
/// in stream order (deterministic for every input).
fn merge_streams(streams: &[Stream]) -> Stream {
    let mut heads = vec![0usize; streams.len()];
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out: Stream = Vec::with_capacity(total);
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(&(r, c, _)) = stream.get(heads[s]) {
                let key = (r as u64) << 32 | c as u64;
                if best.map_or(true, |(bk, _)| key < bk) {
                    best = Some((key, s));
                }
            }
        }
        let Some((key, _)) = best else { break };
        let mut acc = 0.0;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(&(r, c, v)) = stream.get(heads[s]) {
                if (r as u64) << 32 | c as u64 == key {
                    acc += v;
                    heads[s] += 1;
                }
            }
        }
        out.push(((key >> 32) as Index, (key & 0xffff_ffff) as Index, acc));
    }
    out
}

/// Builds the CR product from the final merged stream.
fn stream_to_csr(stream: Stream, nrows: Index, ncols: Index) -> Csr {
    let mut row_ptr = vec![0usize; nrows as usize + 1];
    let mut cols = Vec::with_capacity(stream.len());
    let mut vals = Vec::with_capacity(stream.len());
    for &(r, c, v) in &stream {
        row_ptr[r as usize + 1] += 1;
        cols.push(c);
        vals.push(v);
    }
    for i in 0..nrows as usize {
        row_ptr[i + 1] += row_ptr[i];
    }
    Csr::from_raw_parts_unchecked(nrows, ncols, row_ptr, cols, vals)
}

/// Runs the Huffman merge policy over `leaves`: while more than one stream
/// is live, merge the `ways` smallest by `(elements, creation order)`, where
/// leaves are created in index order and merged runs after them, in the
/// order they are produced. `merge(inputs, last)` combines the picked
/// streams, given in selection order; `last` marks the op that leaves a
/// single stream live. `ways` below 2 counts as 2. Returns the schedule
/// and the final stream (`None` without leaves).
///
/// Both planners, and the interval tier's synthetic schedule in `sim`, run
/// this one loop, so their plans cannot drift apart in selection order.
pub fn huffman_schedule<S>(
    leaves: Vec<S>,
    ways: usize,
    elems: impl Fn(&S) -> u64,
    mut merge: impl FnMut(Vec<S>, bool) -> S,
) -> (Vec<SparchMergeOp>, Option<S>) {
    let ways = ways.max(2);
    let mut seq = leaves.len();
    let mut live: Vec<(usize, S)> = leaves.into_iter().enumerate().collect();
    let mut ops = Vec::new();
    while live.len() > 1 {
        live.sort_by_key(|(s, st)| (elems(st), *s));
        let take = ways.min(live.len());
        let last = take == live.len();
        let inputs: Vec<S> = live.drain(..take).map(|(_, st)| st).collect();
        let input_elems = inputs.iter().map(&elems).collect();
        let merged = merge(inputs, last);
        ops.push(SparchMergeOp { input_elems, out_elems: elems(&merged) });
        live.push((seq, merged));
        seq += 1;
    }
    (ops, live.pop().map(|(_, st)| st))
}

/// Computes `C = A × B` through the SpArch pipeline with a `ways`-ary merge
/// tree, returning the product and the dataflow plan the timing model
/// replays. This is the SpArch reference model: it builds and merges every
/// partial-product stream, summing collisions in merge-tree order.
///
/// The scheduler is the Huffman policy: while more than one stream remains,
/// merge the `ways` smallest (ties broken by creation order). When every
/// leaf fits the tree at once (`width ≤ ways`) a single pass merges them
/// all and nothing spills.
///
/// # Errors
///
/// [`SparseError::DimMismatch`] when `a.ncols() != b.nrows()`.
pub fn spgemm_sparch_with_plan(
    a: &Csr,
    b: &Csr,
    ways: usize,
) -> Result<(Csr, SparchPlan), SparseError> {
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    let ways = ways.max(2);
    let condensed = condense(a);
    let leaves: Vec<Stream> =
        (0..condensed.width()).map(|k| leaf_stream(condensed.col(k), b)).collect();
    let leaf_elems: Vec<u64> = leaves.iter().map(|s| s.len() as u64).collect();
    let spilled = leaves.len() > ways;
    let (ops, final_stream) =
        huffman_schedule(leaves, ways, |s| s.len() as u64, |inputs, _| merge_streams(&inputs));
    let final_stream = final_stream.unwrap_or_default();
    let result_nnz = final_stream.len() as u64;
    let c = stream_to_csr(final_stream, a.nrows(), b.ncols());
    let plan = SparchPlan {
        condensed_width: leaf_elems.len(),
        leaf_elems,
        spilled,
        ops,
        result_nnz,
    };
    Ok((c, plan))
}

/// A live stream of the structural planner: which leaves (condensed
/// columns, ascending) it holds and how many distinct keys they cover.
struct LeafSet {
    leaves: Vec<usize>,
    elems: u64,
}

/// An epoch-stamped column set: counts the distinct column indices over a
/// set of rows of `B`, which is the pattern size of one row of a product,
/// in one pass with no allocation or sorting per count. Every count opens
/// a new epoch; the stamp array is cleared only when the epoch wraps.
///
/// The structural SpArch planner counts each merge op's output with it,
/// and the simulator's interval estimator counts sampled result rows.
#[derive(Debug, Clone)]
pub struct PatternUnion {
    stamp: Vec<u32>,
    epoch: u32,
}

impl PatternUnion {
    /// An empty set over `ncols` columns (the width of `B`).
    pub fn new(ncols: Index) -> Self {
        PatternUnion { stamp: vec![0; ncols as usize], epoch: 0 }
    }

    /// Distinct columns over the rows `ks` of `b`: the size of the union of
    /// their patterns.
    ///
    /// # Panics
    ///
    /// Panics if a row of `b` holds a column at or beyond the set's width.
    pub fn count(&mut self, b: &Csr, ks: impl IntoIterator<Item = Index>) -> u64 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let mut out = 0u64;
        for k in ks {
            for &c in b.row(k).0 {
                let slot = &mut self.stamp[c as usize];
                if *slot != self.epoch {
                    *slot = self.epoch;
                    out += 1;
                }
            }
        }
        out
    }
}

/// Counts the distinct `(row, col)` keys of a set of leaf streams without
/// building them. Leaf `k` holds the `k`-th non-zero of every row that has
/// one, so visiting rows by descending population makes the rows a leaf
/// set touches a prefix; each row's keys are one [`PatternUnion`] count.
struct LeafUnion<'m> {
    a: &'m Csr,
    b: &'m Csr,
    /// Rows of `A`, most populated first.
    rows: Vec<Index>,
    union: PatternUnion,
}

impl<'m> LeafUnion<'m> {
    fn new(a: &'m Csr, b: &'m Csr) -> Self {
        let mut rows: Vec<Index> = (0..a.nrows()).collect();
        rows.sort_by_key(|&r| std::cmp::Reverse(a.row_nnz(r)));
        LeafUnion { a, b, rows, union: PatternUnion::new(b.ncols()) }
    }

    /// Distinct keys over `leaves` (ascending condensed-column indices).
    fn count(&mut self, leaves: &[usize]) -> u64 {
        let Some(&first) = leaves.first() else { return 0 };
        let a = self.a;
        let touched = self.rows.partition_point(|&r| a.row_nnz(r) > first);
        let mut out = 0u64;
        for &r in &self.rows[..touched] {
            let a_cols = a.row(r).0;
            let ks = leaves.iter().take_while(|&&k| k < a_cols.len()).map(|&k| a_cols[k]);
            out += self.union.count(self.b, ks);
        }
        out
    }
}

/// Builds the [`SparchPlan`] of `A × B` at a `ways`-ary tree from the
/// operands' structure alone. The plan equals the one
/// [`spgemm_sparch_with_plan`] records: the same exact leaf sizes, the same
/// Huffman schedule, and each op's output counted as the union of its
/// leaves' key patterns. No values are touched and no streams are built.
///
/// The final op merges every leaf, so its output is `nnz(C)`, which the
/// caller passes as `result_nnz` from the product it already computed. As
/// in every outer-product merge, a sum that cancels to zero still counts
/// as an entry.
///
/// # Errors
///
/// [`SparseError::DimMismatch`] when `a.ncols() != b.nrows()`.
pub fn sparch_structural_plan(
    a: &Csr,
    b: &Csr,
    ways: usize,
    result_nnz: u64,
) -> Result<SparchPlan, SparseError> {
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    let ways = ways.max(2);
    let width = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap_or(0);
    let mut leaf_elems = vec![0u64; width];
    for r in 0..a.nrows() {
        for (k, &j) in a.row(r).0.iter().enumerate() {
            leaf_elems[k] += b.row_nnz(j) as u64;
        }
    }
    let leaves: Vec<LeafSet> = leaf_elems
        .iter()
        .enumerate()
        .map(|(k, &elems)| LeafSet { leaves: vec![k], elems })
        .collect();
    let mut union = LeafUnion::new(a, b);
    let (ops, final_set) = huffman_schedule(leaves, ways, |s| s.elems, |inputs, last| {
        let mut leaves: Vec<usize> = inputs.into_iter().flat_map(|s| s.leaves).collect();
        leaves.sort_unstable();
        let elems = if last { result_nnz } else { union.count(&leaves) };
        LeafSet { leaves, elems }
    });
    Ok(SparchPlan {
        condensed_width: width,
        spilled: width > ways,
        leaf_elems,
        ops,
        result_nnz: final_set.map_or(0, |s| s.elems),
    })
}

/// [`spgemm_sparch_with_plan`] at the paper's default 64-way tree,
/// discarding the plan.
///
/// # Errors
///
/// [`SparseError::DimMismatch`] when `a.ncols() != b.nrows()`.
pub fn spgemm_sparch(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    spgemm_sparch_with_plan(a, b, DEFAULT_MERGE_WAYS).map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;

    #[test]
    fn condense_preserves_every_nonzero() {
        let a = uniform::matrix(32, 32, 150, 3);
        let cd = condense(&a);
        assert_eq!(cd.nnz(), a.nnz());
        let mut triplets: Vec<(Index, Index, u64)> = (0..cd.width())
            .flat_map(|k| cd.col(k).iter().map(|e| (e.row, e.col, e.val.to_bits())))
            .collect();
        triplets.sort_unstable();
        let mut want: Vec<(Index, Index, u64)> =
            a.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        want.sort_unstable();
        assert_eq!(triplets, want);
    }

    #[test]
    fn condensed_columns_are_row_sorted_and_width_is_max_row_nnz() {
        let a = uniform::matrix(48, 48, 300, 7);
        let cd = condense(&a);
        let max_row = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap();
        assert_eq!(cd.width(), max_row);
        for k in 0..cd.width() {
            let rows: Vec<Index> = cd.col(k).iter().map(|e| e.row).collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "col {k} not row-sorted");
        }
    }

    #[test]
    fn pattern_union_counts_distinct_columns() {
        let b = uniform::matrix(40, 30, 300, 23);
        let mut union = PatternUnion::new(b.ncols());
        for ks in [vec![], vec![3], vec![0, 5, 5, 9], (0..40).collect::<Vec<Index>>()] {
            let want: std::collections::BTreeSet<Index> =
                ks.iter().flat_map(|&k| b.row(k).0.iter().copied()).collect();
            assert_eq!(union.count(&b, ks.iter().copied()), want.len() as u64, "{ks:?}");
        }
    }

    #[test]
    fn sparch_matches_reference_product() {
        let a = uniform::matrix(64, 64, 500, 11);
        let b = uniform::matrix(64, 64, 500, 12);
        let c = spgemm_sparch(&a, &b).unwrap();
        let want = ops::spgemm_reference(&a, &b).unwrap();
        assert!(c.approx_eq(&want, 1e-9));
    }

    #[test]
    fn narrow_tree_spills_but_stays_exact() {
        let a = uniform::matrix(64, 64, 600, 13);
        let b = uniform::matrix(64, 64, 600, 14);
        let (c, plan) = spgemm_sparch_with_plan(&a, &b, 2).unwrap();
        assert!(plan.spilled, "2-way tree must spill on a wide condensed A");
        assert!(plan.ops.len() > 1);
        assert!(c.approx_eq(&ops::spgemm_reference(&a, &b).unwrap(), 1e-9));
        // The wide tree computes the same product from the same leaves.
        let (c64, plan64) = spgemm_sparch_with_plan(&a, &b, 64).unwrap();
        assert_eq!(plan.leaf_elems, plan64.leaf_elems);
        assert!(c.approx_eq(&c64, 1e-9));
    }

    #[test]
    fn plan_accounting_is_consistent() {
        let a = uniform::matrix(96, 96, 900, 15);
        let (c, plan) = spgemm_sparch_with_plan(&a, &a, 4).unwrap();
        assert_eq!(plan.result_nnz, c.nnz() as u64);
        assert_eq!(
            plan.total_products() - plan.total_collisions(),
            plan.result_nnz,
            "products minus collisions must equal the surviving non-zeros"
        );
        let flops = ops::spgemm_flops(&a, &a).unwrap();
        assert_eq!(plan.total_products() * 2, flops);
    }

    #[test]
    fn empty_operand_yields_empty_plan() {
        let a = Csr::zero(16, 16);
        let (c, plan) = spgemm_sparch_with_plan(&a, &a, 64).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(plan.condensed_width, 0);
        assert!(plan.ops.is_empty());
        assert!(!plan.spilled);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let a = uniform::matrix(8, 9, 20, 1);
        let b = uniform::matrix(8, 8, 20, 2);
        assert!(spgemm_sparch(&a, &b).is_err());
    }

    #[test]
    fn condense_skips_empty_rows() {
        // nnz ≪ n leaves most rows empty; empty rows contribute nothing to
        // any condensed column, and the product is still exact.
        let a = uniform::matrix(64, 64, 12, 17);
        let cd = condense(&a);
        assert_eq!(cd.nnz(), a.nnz());
        for k in 0..cd.width() {
            for e in cd.col(k) {
                assert!(a.row_nnz(e.row) > k, "entry from a row shorter than col {k}");
            }
        }
        let c = spgemm_sparch(&a, &a).unwrap();
        assert!(c.approx_eq(&ops::spgemm_reference(&a, &a).unwrap(), 1e-9));
    }

    #[test]
    fn condense_stacks_duplicate_column_indices() {
        // Every row holds the same column set, so each condensed column k
        // carries one *identical* B-row index per row of A — the worst case
        // for merge-collision accounting: every product collides.
        let mut coo = outerspace_sparse::Coo::new(16, 16);
        for r in 0..16 {
            for (k, c) in [2u32, 7, 11].into_iter().enumerate() {
                coo.push(r, c, 1.0 + r as Value + k as Value * 0.25);
            }
        }
        let a = coo.to_csr();
        let cd = condense(&a);
        assert_eq!(cd.width(), 3);
        for (k, want_col) in [2u32, 7, 11].into_iter().enumerate() {
            assert_eq!(cd.col(k).len(), 16);
            assert!(cd.col(k).iter().all(|e| e.col == want_col));
        }
        let b = uniform::matrix(16, 16, 80, 18);
        let (c, plan) = spgemm_sparch_with_plan(&a, &b, DEFAULT_MERGE_WAYS).unwrap();
        assert!(c.approx_eq(&ops::spgemm_reference(&a, &b).unwrap(), 1e-9));
        assert!(plan.total_collisions() > 0, "identical column sets must collide");
    }

    #[test]
    fn condense_degenerate_vector_shapes() {
        // 1×N: the single row IS the condensed matrix (width = its nnz,
        // one entry per condensed column).
        let row = uniform::matrix(24, 1, 12, 19).transpose();
        let cd = condense(&row);
        assert_eq!(cd.width(), row.nnz());
        assert!((0..cd.width()).all(|k| cd.col(k).len() == 1));
        // N×1: every row has at most one entry, so width is 1 and the merge
        // tree degenerates to a single stream.
        let col = uniform::matrix(24, 1, 12, 21);
        let cdc = condense(&col);
        assert!(cdc.width() <= 1);
        // (1×N)·(N×1) and (N×1)·(1×N) both stay exact through the pipeline.
        let inner = spgemm_sparch(&row, &col).unwrap();
        assert!(inner.approx_eq(&ops::spgemm_reference(&row, &col).unwrap(), 1e-9));
        let outer_prod = spgemm_sparch(&col, &row).unwrap();
        assert!(outer_prod.approx_eq(&ops::spgemm_reference(&col, &row).unwrap(), 1e-9));
    }
}
