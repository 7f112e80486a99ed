//! Dynamic memory-allocation model (§5.5, §7.3).
//!
//! Every outer product gets a static allocation of `α ×` the average product
//! size (computable from the compressed pointers before the phase begins);
//! a product larger than its static slot sends one atomic increment to the
//! global spill-over stack pointer. §7.3 sweeps `α` and reports the count of
//! these dynamic requests — near zero for `α ≥ 2` on most matrices, and
//! exactly zero for `m133-b3` (whose rows all have the same size) even at
//! `α = 1`.

use outerspace_sparse::{Csc, Csr};

/// Result of an allocation analysis at one `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocReport {
    /// The static multiplier analyzed.
    pub alpha: f64,
    /// Outer products whose size exceeded the static slot — each sends one
    /// atomic spill-over request.
    pub dynamic_requests: u64,
    /// Total statically allocated elements (`α · nnz_a·nnz_b/N`, §7.3's
    /// `α·nnz²/N` for square self-multiplication).
    pub static_elements: u64,
    /// Elements that landed in the spill-over region.
    pub spilled_elements: u64,
    /// Statically allocated elements that went unused (the storage side of
    /// the performance-storage trade-off).
    pub wasted_elements: u64,
}

/// Elementary products of each outer product `k` of `C = A × B`:
/// `nnz(A[:,k]) · nnz(B[k,:])`, read from `A`'s CC form.
///
/// # Panics
///
/// Panics if the shapes are incompatible.
pub fn product_sizes(a: &Csc, b: &Csr) -> Vec<u64> {
    assert_eq!(a.ncols(), b.nrows(), "shape mismatch");
    (0..a.ncols()).map(|k| a.col_nnz(k) as u64 * b.row_nnz(k) as u64).collect()
}

/// Analyzes the static/spill-over allocation scheme for `C = A × B` at the
/// given `α` values ([`analyze_sizes`] over [`product_sizes`]).
///
/// # Panics
///
/// Panics if any `alpha` is non-positive, or shapes are incompatible.
pub fn analyze(a: &Csc, b: &Csr, alphas: &[f64]) -> Vec<AllocReport> {
    analyze_sizes(&product_sizes(a, b), alphas)
}

/// Analyzes the allocation scheme at the given `α` values for outer
/// products of the given sizes ([`product_sizes`]).
///
/// # Panics
///
/// Panics if any `alpha` is non-positive.
pub fn analyze_sizes(sizes: &[u64], alphas: &[f64]) -> Vec<AllocReport> {
    let n = sizes.len();
    let total: u64 = sizes.iter().sum();
    let avg = total as f64 / n.max(1) as f64;

    alphas
        .iter()
        .map(|&alpha| {
            assert!(alpha > 0.0, "alpha must be positive");
            // Static slot per product: ceil(α · average size).
            let slot = (alpha * avg).ceil() as u64;
            let mut dynamic_requests = 0u64;
            let mut spilled = 0u64;
            let mut wasted = 0u64;
            for &s in sizes {
                if s > slot {
                    dynamic_requests += 1;
                    spilled += s - slot;
                } else {
                    wasted += slot - s;
                }
            }
            AllocReport {
                alpha,
                dynamic_requests,
                static_elements: slot * n as u64,
                spilled_elements: spilled,
                wasted_elements: wasted,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::{banded, powerlaw, uniform};

    #[test]
    fn fixed_size_rows_never_spill_at_alpha_one() {
        // m133-b3 stand-in: exactly 4 non-zeros per row and column.
        let a = banded::matrix(128, &[-2, -1, 1, 2], 1.0, 1);
        // Use a circulant-like band so interior sizes are uniform; edges of
        // the band clip, so restrict the check to the paper's claim shape:
        // products never exceed the average slot by more than the clip.
        let reports = analyze(&a.to_csc(), &a, &[1.0, 2.0]);
        // Edge rows are *smaller* than average, so nothing exceeds the slot.
        assert_eq!(reports[0].dynamic_requests, 0);
        assert_eq!(reports[1].dynamic_requests, 0);
    }

    #[test]
    fn uniform_matrices_settle_by_alpha_two() {
        let a = uniform::matrix(1024, 1024, 16_384, 2);
        let reports = analyze(&a.to_csc(), &a, &[1.0, 2.0, 4.0]);
        assert!(reports[0].dynamic_requests > reports[1].dynamic_requests);
        assert!(reports[1].dynamic_requests > reports[2].dynamic_requests);
        // §7.3: for uniformly distributed matrices α=2 eliminates most
        // dynamic requests.
        let frac = reports[1].dynamic_requests as f64 / 1024.0;
        assert!(frac < 0.15, "α=2 spill fraction {frac}");
    }

    #[test]
    fn power_law_spills_more_than_uniform() {
        let p = powerlaw::graph(1024, 16_384, 3);
        let u = uniform::matrix(1024, 1024, p.nnz(), 3);
        let rp = analyze(&p.to_csc(), &p, &[2.0]);
        let ru = analyze(&u.to_csc(), &u, &[2.0]);
        assert!(
            rp[0].spilled_elements > ru[0].spilled_elements,
            "power-law should spill more: {} vs {}",
            rp[0].spilled_elements,
            ru[0].spilled_elements
        );
    }

    #[test]
    fn bigger_alpha_wastes_more() {
        let a = uniform::matrix(512, 512, 4096, 4);
        let reports = analyze(&a.to_csc(), &a, &[1.0, 4.0]);
        assert!(reports[1].wasted_elements > reports[0].wasted_elements);
        assert!(reports[1].static_elements > reports[0].static_elements);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_rejected() {
        let a = uniform::matrix(8, 8, 16, 1);
        let _ = analyze(&a.to_csc(), &a, &[0.0]);
    }
}
