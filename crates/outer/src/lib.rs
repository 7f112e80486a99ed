//! The outer-product sparse matrix multiplication algorithm of the
//! OuterSPACE paper (§4), as portable software.
//!
//! `C = A × B` is decomposed into `N` rank-1 outer products: the *i*-th
//! column of `A` times the *i*-th row of `B`. Computation proceeds in two
//! phases with opposite data-sharing behaviour:
//!
//! 1. **Multiply** ([`multiply`]): every pair of non-zeros
//!    `(a_ki, b_ij)` produces a useful elementary product — no index
//!    matching, every element of a row-of-`B` is reused for every element of
//!    the paired column-of-`A`, and once an outer product is done its inputs
//!    are never touched again. The results are stored as per-result-row
//!    lists of contiguous *chunks* — Fig. 2's linked lists, laid out flat in
//!    one [`ArenaProducts`] and read back per row with
//!    [`ArenaProducts::row_chunk_slices`].
//! 2. **Merge** ([`merge`]): each result row's chunks are combined
//!    independently. [`MergeKind`] picks the algorithm: the paper's
//!    streaming multi-way merge that keeps only one head element per chunk
//!    resident (§5.4.2), the sort-based ablation it was chosen over, or a
//!    cache-blocked software fast path. All three are bitwise identical
//!    (see DESIGN.md §14); [`spgemm`] and [`spgemm_parallel`] use the
//!    blocked one.
//!
//! Both phases come in sequential and multi-threaded flavours; the
//! multi-threaded versions schedule over work-stealing ranges
//! ([`worksteal`]) and reconstruct their outputs in item order, so they are
//! byte-identical to the sequential paths for every thread count. Format
//! conversion (§4.3, `I_CC × A_CR → A_CC`), outer-product SpMV (§5.6) and
//! `N`-way element-wise operations (§5.6) are built from the same
//! machinery.
//!
//! # Example
//!
//! ```
//! use outerspace_sparse::Csr;
//! use outerspace_outer::spgemm;
//!
//! # fn main() -> Result<(), outerspace_sparse::SparseError> {
//! let a = Csr::identity(4);
//! let c = spgemm(&a, &a)?;
//! assert!(c.approx_eq(&a, 0.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod convert;
mod elementwise;
mod merge;
mod multiply;
mod sparch;
mod spgemm;
mod spmv;
pub mod worksteal;

pub use arena::ArenaProducts;
pub use convert::{csr_to_csc_via_outer, ConversionStats};
pub use elementwise::{elementwise_merge, sum_all, sum_all_parallel};
pub use merge::{merge, merge_parallel, MergeKind, MergeStats, MERGE_BLOCK_COLS};
pub use multiply::{multiply, multiply_parallel, MultiplyStats};
pub use sparch::{
    condense, huffman_schedule, sparch_structural_plan, spgemm_sparch, spgemm_sparch_with_plan,
    CondensedA, CondensedEntry, SparchMergeOp, SparchPlan, DEFAULT_MERGE_WAYS,
};
pub use spgemm::{spgemm, spgemm_cc, spgemm_parallel, spgemm_with_stats, SpGemmReport};
pub use spmv::{spmv, spmv_dense, SpmvStats};
