//! Top-level outer-product SpGEMM drivers: format conversion, the
//! multiply phase into the arena intermediate, then a merge.

use outerspace_sparse::{ops, Csc, Csr, SparseError};

use crate::convert::{csr_to_csc_via_outer, ConversionStats};
use crate::merge::{merge, merge_parallel, MergeKind, MergeStats};
use crate::multiply::{multiply, multiply_parallel, MultiplyStats};

/// Everything measured during one outer-product SpGEMM run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpGemmReport {
    /// Format-conversion counters (zero when `A` was already CC).
    pub conversion: ConversionStats,
    /// Multiply-phase counters.
    pub multiply: MultiplyStats,
    /// Merge-phase counters.
    pub merge: MergeStats,
    /// Peak bytes held by the intermediate partial-product structure.
    pub intermediate_bytes: usize,
}

/// Computes `C = A × B` with the outer-product algorithm, sequentially,
/// merging with [`MergeKind::Blocked`] (bit-identical to the paper's
/// streaming merge, and the fastest in software).
///
/// Inputs and output are CR (CSR); `A` is converted to CC internally via the
/// paper's `I_CC × A_CR` scheme, and that cost is included in the returned
/// report by [`spgemm_with_stats`]. This mirrors the paper's evaluation
/// protocol, which charges format conversion to OuterSPACE "to model the
/// worst-case scenario" (§7.1).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Example
///
/// ```
/// use outerspace_sparse::{ops, Csr};
/// use outerspace_outer::spgemm;
///
/// # fn main() -> Result<(), outerspace_sparse::SparseError> {
/// let a = Csr::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![2.0, 3.0])?;
/// let c = spgemm(&a, &a)?;
/// assert!(c.approx_eq(&ops::spgemm_reference(&a, &a)?, 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn spgemm(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    Ok(spgemm_with_stats(a, b, MergeKind::Blocked)?.0)
}

/// [`spgemm`] with full phase statistics and a selectable merge algorithm.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn spgemm_with_stats(
    a: &Csr,
    b: &Csr,
    kind: MergeKind,
) -> Result<(Csr, SpGemmReport), SparseError> {
    // Guard before the conversion phase so malformed operands are rejected
    // without doing (or charging) any work.
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    let (a_cc, conversion) = csr_to_csc_via_outer(a);
    let (ap, mul) = multiply(&a_cc, b)?;
    let intermediate_bytes = ap.memory_footprint_bytes();
    let (c, mrg) = merge(&ap, kind);
    Ok((c, SpGemmReport { conversion, multiply: mul, merge: mrg, intermediate_bytes }))
}

/// Computes `C = A × B` with `n_threads` work-stealing workers in both
/// phases and the [`MergeKind::Blocked`] merge. Deterministic: the result
/// is byte-identical to [`spgemm`] for every thread count.
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
) -> Result<(Csr, SpGemmReport), SparseError> {
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    let (a_cc, conversion) = csr_to_csc_via_outer(a);
    let (ap, mul) = multiply_parallel(&a_cc, b, n_threads)?;
    let intermediate_bytes = ap.memory_footprint_bytes();
    let (c, mrg) = merge_parallel(&ap, MergeKind::Blocked, n_threads);
    Ok((c, SpGemmReport { conversion, multiply: mul, merge: mrg, intermediate_bytes }))
}

/// Computes `C = A × B` with the result in CC format (§4.2: "the hardware
/// can be programmed to produce the resultant matrix in either the CR or the
/// CC format").
///
/// CC mode merges per result *column*: it is the CR-mode pipeline applied to
/// `Cᵀ = Bᵀ × Aᵀ` with the transposed operand roles, then relabelled — the
/// partial-product structure is identical with `R_i` pointers replaced by
/// `C_i` pointers (Fig. 2, bottom right).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn spgemm_cc(a: &Csr, b: &Csr) -> Result<Csc, SparseError> {
    // Guard on the *untransposed* operands so the error reports the shapes
    // the caller passed, not the relabelled ones fed to `multiply`.
    ops::check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    // Bᵀ in CC format is just B's arrays relabelled; same for Aᵀ in CR.
    let bt_cc: Csc = b.clone().into_csc_transposed();
    let at_cr: Csr = a.clone().to_csc().into_csr_transposed();
    let (ap, _) = multiply(&bt_cc, &at_cr)?;
    let (ct, _) = merge(&ap, MergeKind::Blocked);
    Ok(ct.into_csc_transposed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_sparse::ops;

    fn random_pair(n: u32, nnz: usize, seed: u64) -> (Csr, Csr) {
        (
            outerspace_gen::uniform::matrix(n, n, nnz, seed),
            outerspace_gen::uniform::matrix(n, n, nnz, seed + 1),
        )
    }

    #[test]
    fn matches_reference_on_random_matrices() {
        for seed in 0..5 {
            let (a, b) = random_pair(64, 400, seed);
            let c = spgemm(&a, &b).unwrap();
            let want = ops::spgemm_reference(&a, &b).unwrap();
            assert!(c.approx_eq(&want, 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let (a, b) = random_pair(128, 1500, 9);
        let (c, report) = spgemm_parallel(&a, &b, 4).unwrap();
        let want = ops::spgemm_reference(&a, &b).unwrap();
        assert!(c.approx_eq(&want, 1e-9));
        assert!(report.multiply.elementary_products > 0);
        assert!(report.merge.output_entries as usize == c.nnz());
    }

    #[test]
    fn rectangular_shapes() {
        let a = outerspace_gen::uniform::matrix(32, 64, 300, 1);
        let b = outerspace_gen::uniform::matrix(64, 16, 300, 2);
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.nrows(), 32);
        assert_eq!(c.ncols(), 16);
        let want = ops::spgemm_reference(&a, &b).unwrap();
        assert!(c.approx_eq(&want, 1e-9));
    }

    #[test]
    fn cc_mode_matches_cr_mode() {
        let (a, b) = random_pair(48, 300, 21);
        let cr = spgemm(&a, &b).unwrap();
        let cc = spgemm_cc(&a, &b).unwrap();
        assert!(cc.to_csr().approx_eq(&cr, 1e-9));
    }

    #[test]
    fn report_flop_accounting_consistent() {
        let (a, b) = random_pair(64, 500, 33);
        let (_, report) = spgemm_with_stats(&a, &b, MergeKind::Streaming).unwrap();
        let flops = ops::spgemm_flops(&a, &b).unwrap();
        assert_eq!(report.multiply.elementary_products * 2, flops);
        // Merge reads exactly what multiply wrote.
        assert_eq!(report.merge.bytes_read, report.multiply.bytes_written);
        // Output entries = products - collisions.
        assert_eq!(
            report.merge.output_entries,
            report.multiply.elementary_products - report.merge.collisions
        );
    }

    #[test]
    fn arena_paths_are_bitwise_identical_to_chunk_list_path() {
        // The paper's pipeline (§4): per-row chunk lists merged by the
        // streaming multi-way merge. Every driver must reproduce it bit for
        // bit, with identical phase counters.
        let (a, b) = random_pair(96, 1000, 55);
        let (c_list, r_list) = spgemm_with_stats(&a, &b, MergeKind::Streaming).unwrap();
        let (c_sort, r_sort) = spgemm_with_stats(&a, &b, MergeKind::SortBased).unwrap();
        let (c_blocked, r_blocked) = spgemm_with_stats(&a, &b, MergeKind::Blocked).unwrap();
        let (c_par, r_par) = spgemm_parallel(&a, &b, 4).unwrap();
        assert_eq!(c_list, c_sort);
        assert_eq!(c_list, c_blocked);
        assert_eq!(c_list, spgemm(&a, &b).unwrap());
        assert_eq!(c_list, c_par);
        assert_eq!(c_list, spgemm_cc(&a, &b).unwrap().to_csr());
        for r in [r_sort, r_blocked, r_par] {
            assert_eq!(r_list.multiply, r.multiply);
            assert_eq!(r_list.intermediate_bytes, r.intermediate_bytes);
            assert_eq!(r_list.merge.output_entries, r.merge.output_entries);
            assert_eq!(r_list.merge.collisions, r.merge.collisions);
        }
        assert_eq!(r_blocked.merge, r_par.merge);
    }

    #[test]
    fn arena_report_identities_hold() {
        let (a, b) = random_pair(64, 500, 77);
        for report in [
            spgemm_with_stats(&a, &b, MergeKind::Blocked).unwrap().1,
            spgemm_parallel(&a, &b, 3).unwrap().1,
        ] {
            assert_eq!(report.merge.bytes_read, report.multiply.bytes_written);
            assert_eq!(
                report.merge.output_entries,
                report.multiply.elementary_products - report.merge.collisions
            );
        }
    }

    #[test]
    fn sort_based_merge_gives_same_result() {
        let (a, b) = random_pair(64, 500, 44);
        let (c1, _) = spgemm_with_stats(&a, &b, MergeKind::Streaming).unwrap();
        let (c2, _) = spgemm_with_stats(&a, &b, MergeKind::SortBased).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn empty_times_anything_is_empty() {
        let a = Csr::zero(8, 8);
        let b = outerspace_gen::uniform::matrix(8, 8, 16, 5);
        assert_eq!(spgemm(&a, &b).unwrap().nnz(), 0);
        assert_eq!(spgemm(&b, &a).unwrap().nnz(), 0);
    }
}
