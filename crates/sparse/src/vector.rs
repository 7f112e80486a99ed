use crate::{Index, Value};

/// A sparse vector as parallel index/value arrays, indices strictly
/// increasing.
///
/// The SpMV experiments of Table 5 sweep the vector density `r` from 0.01 to
/// 1.0; the outer-product SpMV algorithm touches only the matrix columns
/// matching these indices.
///
/// # Example
///
/// ```
/// use outerspace_sparse::SparseVector;
///
/// let v = SparseVector { len: 4, indices: vec![1, 3], values: vec![2.0, -1.0] };
/// assert_eq!(v.nnz(), 2);
/// assert_eq!(v.to_dense(), vec![0.0, 2.0, 0.0, -1.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    /// Logical length of the vector.
    pub len: Index,
    /// Indices of the stored entries, strictly increasing.
    pub indices: Vec<Index>,
    /// Values of the stored entries.
    pub values: Vec<Value>,
}

impl SparseVector {
    /// Builds a sparse vector from a dense slice, dropping exact zeros.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is longer than `Index::MAX`, which no `Index`
    /// length can describe.
    pub fn from_dense(dense: &[Value]) -> Self {
        let len = Index::try_from(dense.len()).expect("a sparse vector's length fits an Index");
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in (0..len).zip(dense) {
            if v != 0.0 {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVector { len, indices, values }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density `nnz / len`.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.len as f64
        }
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> Vec<Value> {
        let mut out = vec![0.0; self.len as usize];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_round_trip() {
        let d = vec![0.0, 1.5, 0.0, -2.0, 0.0];
        let v = SparseVector::from_dense(&d);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.indices, vec![1, 3]);
        assert_eq!(v.to_dense(), d);
    }

    #[test]
    fn empty_vector() {
        let v = SparseVector::default();
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.density(), 0.0);
        assert!(v.to_dense().is_empty());
    }

    #[test]
    fn density_computation() {
        let v = SparseVector { len: 8, indices: vec![0, 7], values: vec![1.0, 1.0] };
        assert_eq!(v.density(), 0.25);
    }
}
