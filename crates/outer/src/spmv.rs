//! Outer-product sparse matrix-vector multiplication (§5.6, Table 5).
//!
//! `y = A × x` decomposes into `y = Σ_k x_k · col_k(A)`: only the columns of
//! `A` whose index matches a non-zero of `x` are ever fetched, so the memory
//! traffic scales with `nnz(x)` — the property behind Table 5's linear
//! speedup scaling in vector density. Partial products need no sorting
//! (each column scatters to disjoint-or-accumulating output positions), so
//! the merge phase degenerates to accumulation without a scratchpad.

use outerspace_sparse::{Csc, Index, SparseError, SparseVector, Value};

/// Counters captured during an outer-product SpMV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpmvStats {
    /// Columns of `A` fetched (= non-zeros of `x`).
    pub columns_touched: u64,
    /// Elementary multiply-accumulates performed.
    pub macs: u64,
    /// Bytes read: matrix columns + vector entries, 12 B each.
    pub bytes_read: u64,
    /// Bytes written to the output vector (12 B per output non-zero).
    pub bytes_written: u64,
}

/// Computes `y = A × x` for a sparse vector `x`, returning a sparse result.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `x.len != a.ncols()`.
///
/// # Example
///
/// ```
/// use outerspace_sparse::Csr;
/// use outerspace_sparse::SparseVector;
/// use outerspace_outer::spmv;
///
/// # fn main() -> Result<(), outerspace_sparse::SparseError> {
/// let a = Csr::identity(3).to_csc();
/// let x = SparseVector { len: 3, indices: vec![1], values: vec![5.0] };
/// let (y, stats) = spmv(&a, &x)?;
/// assert_eq!(y.indices, vec![1]);
/// assert_eq!(y.values, vec![5.0]);
/// assert_eq!(stats.columns_touched, 1);
/// # Ok(())
/// # }
/// ```
pub fn spmv(a: &Csc, x: &SparseVector) -> Result<(SparseVector, SpmvStats), SparseError> {
    outerspace_sparse::ops::check_spmv_dims((a.nrows(), a.ncols()), x.len.into())?;
    let mut stats = SpmvStats::default();
    let mut acc = vec![0.0 as Value; a.nrows() as usize];
    let mut touched: Vec<Index> = Vec::new();
    for (&k, &xk) in x.indices.iter().zip(&x.values) {
        stats.columns_touched += 1;
        stats.bytes_read += 12; // the vector entry
        let (rows, vals) = a.col(k);
        stats.bytes_read += 12 * rows.len() as u64;
        stats.macs += rows.len() as u64;
        for (&r, &v) in rows.iter().zip(vals) {
            if acc[r as usize] == 0.0 {
                touched.push(r);
            }
            acc[r as usize] += xk * v;
        }
    }
    touched.sort_unstable();
    touched.dedup();
    let mut indices = Vec::with_capacity(touched.len());
    let mut values = Vec::with_capacity(touched.len());
    for &r in &touched {
        indices.push(r);
        values.push(acc[r as usize]);
    }
    stats.bytes_written = 12 * indices.len() as u64;
    Ok((SparseVector { len: a.nrows(), indices, values }, stats))
}

/// Computes `y = A × x` for a dense vector `x`, returning a dense result.
///
/// Equivalent to [`spmv`] with a fully dense input; provided because Table 5
/// sweeps the vector density up to `r = 1.0`.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `x.len() != a.ncols()`.
pub fn spmv_dense(a: &Csc, x: &[Value]) -> Result<(Vec<Value>, SpmvStats), SparseError> {
    outerspace_sparse::ops::check_spmv_dims((a.nrows(), a.ncols()), x.len() as u64)?;
    let mut stats = SpmvStats::default();
    let mut y = vec![0.0 as Value; a.nrows() as usize];
    for (k, &xk) in x.iter().enumerate() {
        if xk == 0.0 {
            continue;
        }
        stats.columns_touched += 1;
        let (rows, vals) = a.col(k as Index);
        stats.bytes_read += 12 * (rows.len() as u64 + 1);
        stats.macs += rows.len() as u64;
        for (&r, &v) in rows.iter().zip(vals) {
            y[r as usize] += xk * v;
        }
    }
    stats.bytes_written = 12 * y.iter().filter(|&&v| v != 0.0).count() as u64;
    Ok((y, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::{uniform, vector};
    use outerspace_sparse::ops;

    #[test]
    fn sparse_spmv_matches_reference() {
        let a = uniform::matrix(64, 64, 512, 1);
        let x = vector::sparse(64, 0.25, 2);
        let (y, stats) = spmv(&a.to_csc(), &x).unwrap();
        let want = ops::spmv_reference(&a, &x.to_dense()).unwrap();
        let dense_y = y.to_dense();
        for i in 0..64 {
            assert!((dense_y[i] - want[i]).abs() < 1e-9, "row {i}");
        }
        assert_eq!(stats.columns_touched as usize, x.nnz());
    }

    #[test]
    fn dense_spmv_matches_reference() {
        let a = uniform::matrix(48, 48, 300, 5);
        let x = vector::dense(48, 6);
        let (y, _) = spmv_dense(&a.to_csc(), &x).unwrap();
        let want = ops::spmv_reference(&a, &x).unwrap();
        for i in 0..48 {
            assert!((y[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn traffic_scales_with_vector_density() {
        let a = uniform::matrix(256, 256, 4096, 7).to_csc();
        let x_sparse = vector::sparse(256, 0.1, 8);
        let x_dense = vector::sparse(256, 1.0, 8);
        let (_, s1) = spmv(&a, &x_sparse).unwrap();
        let (_, s10) = spmv(&a, &x_dense).unwrap();
        let ratio = s10.bytes_read as f64 / s1.bytes_read as f64;
        assert!((5.0..20.0).contains(&ratio), "traffic ratio {ratio}");
    }

    #[test]
    fn empty_vector_reads_nothing() {
        let a = uniform::matrix(32, 32, 128, 9).to_csc();
        let x = vector::sparse(32, 0.0, 1);
        let (y, stats) = spmv(&a, &x).unwrap();
        assert_eq!(y.nnz(), 0);
        assert_eq!(stats.bytes_read, 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = uniform::matrix(8, 8, 16, 1).to_csc();
        let x = vector::sparse(9, 0.5, 1);
        assert!(spmv(&a, &x).is_err());
        assert!(spmv_dense(&a, &[0.0; 9]).is_err());
    }

    #[test]
    fn cancellation_keeps_explicit_zero() {
        // If accumulation cancels to exactly zero the entry is still
        // reported (touched positions are pattern, not value, driven).
        let a = outerspace_sparse::Csr::new(
            1,
            2,
            vec![0, 2],
            vec![0, 1],
            vec![1.0, -1.0],
        )
        .unwrap()
        .to_csc();
        let x = SparseVector { len: 2, indices: vec![0, 1], values: vec![1.0, 1.0] };
        let (y, _) = spmv(&a, &x).unwrap();
        assert_eq!(y.indices, vec![0]);
        assert_eq!(y.values, vec![0.0]);
    }
}
