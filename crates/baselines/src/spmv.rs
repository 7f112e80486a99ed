//! Baseline SpMV kernels for the Table 5 comparison.
//!
//! The paper observes (§7.2) that MKL's sparse matrix-vector method
//! "performs the best when the vector is treated as a dense vector
//! regardless of the number of zeros in the vector" — its run time is flat
//! across vector densities. cuSPARSE's kernel scales with vector density but
//! still reads the whole matrix. Both behaviours are reproduced here and
//! contrasted with the outer-product SpMV, whose traffic scales with
//! `nnz(x)`.

use outerspace_sparse::{Csr, SparseError, SparseVector, Value};

use crate::TrafficStats;

/// MKL-analog SpMV: the vector is densified and the *entire* matrix is
/// streamed row by row, regardless of vector sparsity.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `x.len != a.ncols()`.
pub fn spmv_dense_vector(
    a: &Csr,
    x: &SparseVector,
) -> Result<(Vec<Value>, TrafficStats), SparseError> {
    outerspace_sparse::ops::check_spmv_dims((a.nrows(), a.ncols()), x.len.into())?;
    let dense = x.to_dense();
    // Whole matrix + whole dense vector are touched, always.
    let mut stats = TrafficStats {
        bytes_touched: 12 * a.nnz() as u64 + 8 * dense.len() as u64,
        ..Default::default()
    };
    let mut y = vec![0.0 as Value; a.nrows() as usize];
    for (i, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row(i as u32);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * dense[c as usize];
            stats.multiplies += 1;
            stats.additions += 1;
        }
        *yi = acc;
    }
    stats.bytes_written = 8 * y.len() as u64;
    Ok((y, stats))
}

/// cuSPARSE-analog sparse-vector SpMV: rows are scanned and each matrix
/// entry is index-matched against the sparse vector (binary search), so
/// compute scales with vector density but the whole matrix is still read.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `x.len != a.ncols()`.
pub fn spmv_index_match(
    a: &Csr,
    x: &SparseVector,
) -> Result<(SparseVector, TrafficStats), SparseError> {
    outerspace_sparse::ops::check_spmv_dims((a.nrows(), a.ncols()), x.len.into())?;
    let mut stats = TrafficStats {
        bytes_touched: 12 * a.nnz() as u64 + 12 * x.nnz() as u64,
        ..Default::default()
    };
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        let mut hit = false;
        for (&c, &v) in cols.iter().zip(vals) {
            if let Ok(pos) = x.indices.binary_search(&c) {
                acc += v * x.values[pos];
                stats.multiplies += 1;
                if hit {
                    stats.additions += 1;
                }
                hit = true;
            }
        }
        if hit {
            indices.push(i);
            values.push(acc);
        }
    }
    stats.bytes_written = 12 * indices.len() as u64;
    Ok((SparseVector { len: a.nrows(), indices, values }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::{uniform, vector};
    use outerspace_sparse::ops;

    #[test]
    fn dense_vector_path_matches_reference() {
        let a = uniform::matrix(64, 64, 512, 1);
        let x = vector::sparse(64, 0.3, 2);
        let (y, _) = spmv_dense_vector(&a, &x).unwrap();
        let want = ops::spmv_reference(&a, &x.to_dense()).unwrap();
        for (got, want) in y.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn index_match_path_matches_reference() {
        let a = uniform::matrix(64, 64, 512, 3);
        let x = vector::sparse(64, 0.1, 4);
        let (y, _) = spmv_index_match(&a, &x).unwrap();
        let want = ops::spmv_reference(&a, &x.to_dense()).unwrap();
        let dense_y = y.to_dense();
        for i in 0..64 {
            assert!((dense_y[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn mkl_analog_traffic_is_density_independent() {
        let a = uniform::matrix(128, 128, 1024, 5);
        let (_, s1) = spmv_dense_vector(&a, &vector::sparse(128, 0.01, 6)).unwrap();
        let (_, s2) = spmv_dense_vector(&a, &vector::sparse(128, 1.0, 6)).unwrap();
        assert_eq!(s1.bytes_touched, s2.bytes_touched);
    }

    #[test]
    fn index_match_compute_scales_with_density() {
        let a = uniform::matrix(256, 256, 4096, 7);
        let (_, s_sparse) = spmv_index_match(&a, &vector::sparse(256, 0.05, 8)).unwrap();
        let (_, s_dense) = spmv_index_match(&a, &vector::sparse(256, 1.0, 8)).unwrap();
        assert!(s_dense.multiplies > 10 * s_sparse.multiplies);
        // ...but matrix traffic does not shrink.
        assert!(s_sparse.bytes_touched as f64 > 0.9 * (12 * a.nnz() as usize) as f64);
    }

    #[test]
    fn shape_mismatch() {
        let a = uniform::matrix(8, 8, 16, 1);
        let x = vector::sparse(9, 0.5, 2);
        assert!(spmv_dense_vector(&a, &x).is_err());
        assert!(spmv_index_match(&a, &x).is_err());
    }
}
