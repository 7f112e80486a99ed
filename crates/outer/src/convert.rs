//! Matrix format conversion (§4.3): `I_CC × A_CR → A_CC`.
//!
//! When `A` arrives in CR format it must be converted to CC before the
//! multiply phase. OuterSPACE performs this with its existing datapath, as a
//! multiplication by the identity: a *conversion-load* phase streams `A` into
//! the Fig. 2 intermediate structure (keyed by column instead of row), and a
//! *conversion-merge* phase combines each column's pieces in row order. For
//! chained multiplications (`A × B × C…`) the cost is paid once, and for
//! symmetric matrices it is skipped entirely since CR and CC coincide.
//!
//! The software path here is a plain transpose; it reports the traffic the
//! two hardware phases would move, and `sim::phases::convert` models their
//! timing.

use outerspace_sparse::{Csc, Csr};

/// Counters captured during a format conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionStats {
    /// Entries streamed through the conversion (0 when skipped).
    pub entries: u64,
    /// Bytes read in the load phase (12 B per entry).
    pub bytes_read: u64,
    /// Bytes written by load + merge (2 × 12 B per entry).
    pub bytes_written: u64,
    /// True when the conversion was skipped because `A` is symmetric.
    pub skipped_symmetric: bool,
}

/// Converts a CR (CSR) matrix to CC (CSC), returning the converted matrix
/// and the traffic counters of the §4.3 two-phase scheme.
///
/// Symmetric matrices are detected by comparing `A` with its transpose and
/// are not charged (CR ≡ CC for them), which is how the evaluation avoids
/// charging conversion to the many symmetric SuiteSparse inputs. The check
/// uses `==`, which treats `0.0` and `-0.0` as equal, so the operand
/// returned is always the transpose itself: a relabelled `A` would swap the
/// signs of mirrored zeros.
pub fn csr_to_csc_via_outer(a: &Csr) -> (Csc, ConversionStats) {
    let at = a.transpose();
    let stats = if at == *a {
        ConversionStats { skipped_symmetric: true, ..Default::default() }
    } else {
        ConversionStats {
            entries: a.nnz() as u64,
            bytes_read: 12 * a.nnz() as u64,
            bytes_written: 24 * a.nnz() as u64,
            skipped_symmetric: false,
        }
    };
    (at.into_csc_transposed(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_sparse::Dense;

    #[test]
    fn conversion_matches_direct_transpose_path() {
        let a = outerspace_gen::uniform::matrix(64, 48, 500, 7);
        let (cc, stats) = csr_to_csc_via_outer(&a);
        assert_eq!(cc, a.to_csc());
        assert!(!stats.skipped_symmetric);
        assert_eq!(stats.entries, 500);
        assert_eq!(stats.bytes_read, 500 * 12);
    }

    #[test]
    fn symmetric_matrix_skips_conversion() {
        let mut d = Dense::zeros(3, 3);
        *d.get_mut(0, 1) = 2.0;
        *d.get_mut(1, 0) = 2.0;
        *d.get_mut(2, 2) = 1.0;
        let a = d.to_csr();
        let (cc, stats) = csr_to_csc_via_outer(&a);
        assert!(stats.skipped_symmetric);
        assert_eq!(stats.bytes_read, 0);
        assert_eq!(cc, a.to_csc());
    }

    #[test]
    fn symmetric_skip_keeps_the_column_major_value_bits() {
        // Symmetric under `==`, but the mirrored zeros differ in sign.
        let a = Csr::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![0.0, -0.0]).unwrap();
        let (cc, stats) = csr_to_csc_via_outer(&a);
        assert!(stats.skipped_symmetric);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cc.values()), bits(a.to_csc().values()));
    }

    #[test]
    fn empty_matrix_conversion() {
        let a = Csr::zero(4, 4);
        // Zero matrix is trivially symmetric -> skipped.
        let (cc, stats) = csr_to_csc_via_outer(&a);
        assert_eq!(cc.nnz(), 0);
        assert!(stats.skipped_symmetric);
    }

    #[test]
    fn rectangular_matrix_conversion() {
        let a = outerspace_gen::uniform::matrix(10, 30, 50, 3);
        let (cc, _) = csr_to_csc_via_outer(&a);
        for (r, c, v) in a.iter() {
            assert_eq!(cc.get(r, c), v);
        }
    }
}
