//! Reference sparse kernels used as golden models.
//!
//! These implementations optimize for clarity and obvious correctness, not
//! speed; the algorithm crates (`outerspace-outer`, `outerspace-baselines`)
//! are validated against them, and they in turn are validated against dense
//! arithmetic in the unit tests.

use crate::{Csr, DimError, Index, SparseError, Value};

/// Reference SpGEMM (`C = A × B`) using Gustavson's row-wise formulation
/// with a dense accumulator.
///
/// For each row *i* of `A`, scatter `a_ik · row_k(B)` into a dense
/// accumulator, then gather the touched columns in sorted order. This is the
/// textbook golden model — O(flops + nrows) time, O(ncols) workspace.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Example
///
/// ```
/// use outerspace_sparse::{Csr, ops};
///
/// # fn main() -> Result<(), outerspace_sparse::SparseError> {
/// let a = Csr::identity(3);
/// let c = ops::spgemm_reference(&a, &a)?;
/// assert!(c.approx_eq(&a, 0.0));
/// # Ok(())
/// # }
/// ```
pub fn spgemm_reference(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    check_mul_shapes(a, b)?;
    let n_out_cols = b.ncols() as usize;
    let mut acc = vec![0.0 as Value; n_out_cols];
    let mut touched: Vec<Index> = Vec::new();

    let mut row_ptr = Vec::with_capacity(a.nrows() as usize + 1);
    row_ptr.push(0usize);
    let mut cols: Vec<Index> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();

    for i in 0..a.nrows() {
        let (a_cols, a_vals) = a.row(i);
        for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                if acc[j as usize] == 0.0 && !touched.contains(&j) {
                    touched.push(j);
                }
                acc[j as usize] += a_ik * b_kj;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            cols.push(j);
            vals.push(acc[j as usize]);
            acc[j as usize] = 0.0;
        }
        touched.clear();
        row_ptr.push(cols.len());
    }
    Ok(Csr::from_raw_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals))
}

/// Reference SpMV (`y = A × x`) with a dense vector.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `x.len() != a.ncols()`.
pub fn spmv_reference(a: &Csr, x: &[Value]) -> Result<Vec<Value>, SparseError> {
    check_spmv_dims((a.nrows(), a.ncols()), x.len() as u64)?;
    let mut y = vec![0.0 as Value; a.nrows() as usize];
    for (yi, i) in y.iter_mut().zip(0..a.nrows()) {
        let (cols, vals) = a.row(i);
        *yi = cols.iter().zip(vals).map(|(&c, &v)| v * x[c as usize]).sum();
    }
    Ok(y)
}

/// Element-wise combination of two equally-shaped matrices:
/// `C[i,j] = op(A[i,j], B[i,j])` over the union of the two patterns.
///
/// The paper (§5.6) notes element-wise routines (`+`, `-`, `×`, `/`, `==`)
/// share their structure with the merge phase; this is the golden model for
/// them. Result entries that are exactly zero are kept (pattern union), so
/// callers control pruning.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the shapes differ.
pub fn elementwise<F>(a: &Csr, b: &Csr, mut op: F) -> Result<Csr, SparseError>
where
    F: FnMut(Value, Value) -> Value,
{
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows() as u64, a.ncols() as u64),
            right: (b.nrows() as u64, b.ncols() as u64),
            op: "elementwise",
        });
    }
    let mut row_ptr = Vec::with_capacity(a.nrows() as usize + 1);
    row_ptr.push(0usize);
    let mut cols: Vec<Index> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        // Two-pointer union merge of the sorted rows.
        while p < ac.len() || q < bc.len() {
            let take_a = q >= bc.len() || (p < ac.len() && ac[p] <= bc[q]);
            let take_b = p >= ac.len() || (q < bc.len() && bc[q] <= ac[p]);
            match (take_a, take_b) {
                (true, true) => {
                    cols.push(ac[p]);
                    vals.push(op(av[p], bv[q]));
                    p += 1;
                    q += 1;
                }
                (true, false) => {
                    cols.push(ac[p]);
                    vals.push(op(av[p], 0.0));
                    p += 1;
                }
                (false, true) => {
                    cols.push(bc[q]);
                    vals.push(op(0.0, bv[q]));
                    q += 1;
                }
                (false, false) => unreachable!("one side must advance"),
            }
        }
        row_ptr.push(cols.len());
    }
    Ok(Csr::from_raw_parts_unchecked(a.nrows(), a.ncols(), row_ptr, cols, vals))
}

/// Element-wise sum `A + B`.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    elementwise(a, b, |x, y| x + y)
}

/// Element-wise difference `A - B`.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the shapes differ.
pub fn sub(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    elementwise(a, b, |x, y| x - y)
}

/// Element-wise (Hadamard) product `A ∘ B`. The result pattern is the
/// *intersection* of the operands (zeros from the union pattern are pruned).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the shapes differ.
pub fn hadamard(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    Ok(elementwise(a, b, |x, y| x * y)?.pruned(0.0))
}

/// Total floating-point operations (multiplies + adds) that any
/// Gustavson/outer-product style SpGEMM performs for `C = A × B`:
/// `2 × Σ_k nnz(col_k(A)) · nnz(row_k(B))` minus the first write per output
/// entry is *not* subtracted — the paper counts multiply-and-accumulate pairs,
/// i.e. 2 flops per elementary product, which this mirrors.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `a.ncols() != b.nrows()`.
pub fn spgemm_flops(a: &Csr, b: &Csr) -> Result<u64, SparseError> {
    check_mul_shapes(a, b)?;
    let at = a.transpose(); // column nnz counts of A = row nnz counts of Aᵀ
    let mut flops = 0u64;
    for k in 0..b.nrows() {
        flops += 2 * (at.row_nnz(k) as u64) * (b.row_nnz(k) as u64);
    }
    Ok(flops)
}

/// The shared SpGEMM operand guard: `C = A × B` requires
/// `a.ncols() == b.nrows()`. Shape-only, so it takes the shapes directly and
/// works for CR and CC operands alike.
///
/// # Errors
///
/// Returns a typed [`DimError`] (convertible to
/// [`SparseError::ShapeMismatch`] via `?`) when the inner dimensions differ.
pub fn check_spgemm_dims(
    a_shape: (Index, Index),
    b_shape: (Index, Index),
) -> Result<(), DimError> {
    if a_shape.1 != b_shape.0 {
        return Err(DimError {
            left: (a_shape.0 as u64, a_shape.1 as u64),
            right: (b_shape.0 as u64, b_shape.1 as u64),
            op: "spgemm",
        });
    }
    Ok(())
}

/// The shared SpMV operand guard: `y = A × x` requires
/// `x_len == a_shape.1` (the vector is reported as an `x_len × 1` operand).
/// The length is a `u64`, so a dense vector longer than `Index::MAX` is a
/// mismatch rather than a wrapped length.
///
/// # Errors
///
/// Returns a typed [`DimError`] when the vector length differs from the
/// matrix column count.
pub fn check_spmv_dims(a_shape: (Index, Index), x_len: u64) -> Result<(), DimError> {
    if x_len != u64::from(a_shape.1) {
        return Err(DimError {
            left: (a_shape.0 as u64, a_shape.1 as u64),
            right: (x_len, 1),
            op: "spmv",
        });
    }
    Ok(())
}

fn check_mul_shapes(a: &Csr, b: &Csr) -> Result<(), SparseError> {
    check_spgemm_dims((a.nrows(), a.ncols()), (b.nrows(), b.ncols()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense;

    fn sample_a() -> Csr {
        // Fig. 2 of the paper uses 4x4 matrices; use a similar shape here.
        Dense::from_row_major(
            4,
            4,
            vec![
                1.0, 0.0, 2.0, 0.0, //
                0.0, 3.0, 0.0, 0.0, //
                4.0, 0.0, 0.0, 5.0, //
                0.0, 6.0, 0.0, 7.0,
            ],
        )
        .to_csr()
    }

    fn sample_b() -> Csr {
        Dense::from_row_major(
            4,
            4,
            vec![
                0.0, 1.0, 0.0, 2.0, //
                3.0, 0.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, // empty row, like Fig. 2
                0.0, 4.0, 5.0, 0.0,
            ],
        )
        .to_csr()
    }

    #[test]
    fn spgemm_matches_dense() {
        let (a, b) = (sample_a(), sample_b());
        let c = spgemm_reference(&a, &b).unwrap();
        let want = a.to_dense().matmul(&b.to_dense());
        assert!(c.to_dense().approx_eq(&want, 1e-12));
    }

    #[test]
    fn spgemm_shape_mismatch() {
        let a = Csr::zero(2, 3);
        let b = Csr::zero(2, 3);
        assert!(matches!(
            spgemm_reference(&a, &b),
            Err(SparseError::ShapeMismatch { op: "spgemm", .. })
        ));
    }

    #[test]
    fn spgemm_identity() {
        let a = sample_a();
        let eye = Csr::identity(4);
        assert!(spgemm_reference(&a, &eye).unwrap().approx_eq(&a, 0.0));
        assert!(spgemm_reference(&eye, &a).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample_a();
        let x = [1.0, -1.0, 0.5, 2.0];
        let y = spmv_reference(&a, &x).unwrap();
        let want = a.to_dense().matvec(&x);
        assert_eq!(y, want);
    }

    #[test]
    fn spmv_shape_mismatch() {
        let a = sample_a();
        assert!(spmv_reference(&a, &[1.0]).is_err());
    }

    #[test]
    fn spmv_guard_does_not_wrap_long_vectors() {
        // A length of 2^32 + 4 wrapped to an `Index` would read 4.
        let err = check_spmv_dims((4, 4), (1 << 32) + 4).unwrap_err();
        assert_eq!(err.right, ((1 << 32) + 4, 1));
        assert!(check_spmv_dims((4, 4), 4).is_ok());
    }

    #[test]
    fn add_and_sub_cancel() {
        let (a, b) = (sample_a(), sample_b());
        let sum = add(&a, &b).unwrap();
        let back = sub(&sum, &b).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn hadamard_intersects_patterns() {
        let (a, b) = (sample_a(), sample_b());
        let h = hadamard(&a, &b).unwrap();
        // A and B overlap only where both non-zero: check against dense.
        for (r, c, v) in h.iter() {
            assert_eq!(v, a.get(r, c) * b.get(r, c));
            assert!(a.get(r, c) != 0.0 && b.get(r, c) != 0.0);
        }
    }

    #[test]
    fn flop_count_matches_manual() {
        let (a, b) = (sample_a(), sample_b());
        // Column nnz of A: [2,2,1,2]; row nnz of B: [2,1,0,2].
        // Sum of products = 2*2 + 2*1 + 1*0 + 2*2 = 10; flops = 20.
        assert_eq!(spgemm_flops(&a, &b).unwrap(), 20);
    }

    #[test]
    fn elementwise_equality_indicator() {
        let (a, b) = (sample_a(), sample_a());
        let eq = elementwise(&a, &b, |x, y| if x == y { 1.0 } else { 0.0 }).unwrap();
        assert!(eq.iter().all(|(_, _, v)| v == 1.0));
    }
}
