//! Timing model of element-wise matrix operations (§5.6).
//!
//! "Element-wise matrix operations follow a similar procedure as the merge
//! phase of the matrix-matrix multiplication algorithm ... Given N matrices
//! A₁ … A_N with the same dimensions, the data can be reorganized into a
//! data structure similar to the one illustrated in Figure 2 and
//! element-wise operations (+, −, ×, /, ==) can be performed on it. There
//! is close to a one-to-one correspondence between data operations in each
//! of the typical element-wise matrix routines and the merge phase."
//!
//! This model realizes exactly that correspondence: each operand
//! contributes one chunk per row to a synthetic intermediate layout, and
//! the merge-phase timing model consumes it.

use outerspace_sparse::Csr;

use crate::config::OuterSpaceConfig;
use crate::error::SimError;
use crate::layout::IntermediateLayout;
use crate::phases::merge::{row_merge_infos, simulate_merge};
use crate::stats::PhaseStats;

/// Simulates an N-way element-wise combination of `mats` (all equal shape),
/// given the functional result `out` (for per-row output sizes).
///
/// # Errors
///
/// Fault injection: every PE dead, an access out of retries, or a watchdog
/// timeout ([`SimError`]); or a row with more than `u32::MAX` collisions
/// ([`SimError::MergeCountOverflow`]).
///
/// # Panics
///
/// Panics if `mats` is empty or shapes are inconsistent — the driver
/// validates before calling.
pub fn simulate_elementwise(
    cfg: &OuterSpaceConfig,
    mats: &[&Csr],
    out: &Csr,
) -> Result<PhaseStats, SimError> {
    let first = mats.first().expect("driver validates non-empty input");
    assert!(
        mats.iter().all(|m| m.nrows() == first.nrows() && m.ncols() == first.ncols()),
        "driver validates equal shapes"
    );
    // Reorganize: one chunk per operand per row (Fig. 2 layout). Chunk
    // addresses reuse each operand's natural location; the layout's bump
    // allocator is only used for address assignment, so relative placement
    // (distinct regions per operand) is what matters for the channel model.
    let mut layout = IntermediateLayout::new(first.nrows());
    for m in mats {
        for i in 0..m.nrows() {
            let len = m.row_nnz(i) as u32;
            if len > 0 {
                layout.alloc_chunk(i, len);
            }
        }
    }
    let rows = row_merge_infos(&layout, out)?;
    simulate_merge(cfg, &layout, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;
    use outerspace_sparse::ops;

    #[test]
    fn elementwise_cost_resembles_merge_of_same_volume() {
        let cfg = OuterSpaceConfig::default();
        let a = uniform::matrix(512, 512, 8000, 1);
        let b = uniform::matrix(512, 512, 8000, 2);
        let sum = ops::add(&a, &b).unwrap();
        let stats = simulate_elementwise(&cfg, &[&a, &b], &sum).unwrap();
        assert!(stats.cycles > 0);
        // Reads cover both operands at block granularity.
        assert!(stats.hbm_read_bytes >= 12 * (a.nnz() + b.nnz()) as u64 / 2);
        // Collisions = overlap of the two patterns.
        let overlap = (a.nnz() + b.nnz() - sum.nnz()) as u64;
        assert_eq!(stats.flops, overlap);
    }

    #[test]
    fn n_way_combination_scales_with_operand_count() {
        let cfg = OuterSpaceConfig::default();
        let mats: Vec<Csr> = (0..6).map(|s| uniform::matrix(256, 256, 4000, s)).collect();
        let two: Vec<&Csr> = mats[..2].iter().collect();
        let six: Vec<&Csr> = mats.iter().collect();
        let out2 = ops::add(&mats[0], &mats[1]).unwrap();
        let mut out6 = out2.clone();
        for m in &mats[2..] {
            out6 = ops::add(&out6, m).unwrap();
        }
        let s2 = simulate_elementwise(&cfg, &two, &out2).unwrap();
        let s6 = simulate_elementwise(&cfg, &six, &out6).unwrap();
        assert!(s6.cycles > s2.cycles);
        assert!(s6.hbm_read_bytes > 2 * s2.hbm_read_bytes);
    }

    #[test]
    fn disjoint_patterns_have_no_flops() {
        let cfg = OuterSpaceConfig::default();
        let a = outerspace_sparse::Csr::identity(64);
        // Shift the identity one column right: patterns are disjoint.
        let b = outerspace_sparse::Csr::new(
            64,
            64,
            (0..=64usize).map(|i| i.min(63)).collect(),
            (1..64).collect(),
            vec![1.0; 63],
        )
        .unwrap();
        let sum = ops::add(&a, &b).unwrap();
        let stats = simulate_elementwise(&cfg, &[&a, &b], &sum).unwrap();
        assert_eq!(stats.flops, 0);
    }
}
