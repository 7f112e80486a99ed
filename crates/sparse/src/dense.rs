use crate::{Coo, Csr, Index, Value};

/// A dense row-major matrix.
///
/// Used exclusively as a *test oracle*: sparse kernels are verified against
/// straightforward dense arithmetic on small inputs. Not intended for large
/// matrices.
///
/// # Example
///
/// ```
/// use outerspace_sparse::Dense;
///
/// let mut m = Dense::zeros(2, 2);
/// *m.get_mut(0, 1) = 3.0;
/// assert_eq!(m.get(0, 1), 3.0);
/// let c = m.matmul(&m);
/// assert_eq!(c.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    nrows: Index,
    ncols: Index,
    data: Vec<Value>,
}

impl Dense {
    /// An all-zero `nrows` × `ncols` matrix.
    pub fn zeros(nrows: Index, ncols: Index) -> Self {
        Dense { nrows, ncols, data: vec![0.0; nrows as usize * ncols as usize] }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_row_major(nrows: Index, ncols: Index, data: Vec<Value>) -> Self {
        assert_eq!(
            data.len(),
            nrows as usize * ncols as usize,
            "data length must be nrows * ncols"
        );
        Dense { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// The value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: Index, col: Index) -> Value {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        self.data[row as usize * self.ncols as usize + col as usize]
    }

    /// Mutable access to the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get_mut(&mut self, row: Index, col: Index) -> &mut Value {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        &mut self.data[row as usize * self.ncols as usize + col as usize]
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: Index) -> &[Value] {
        let w = self.ncols as usize;
        &self.data[i as usize * w..(i as usize + 1) * w]
    }

    /// Dense matrix product `self × rhs` (inner-product formulation, the
    /// classical triple loop).
    ///
    /// # Panics
    ///
    /// Panics if `self.ncols != rhs.nrows`.
    pub fn matmul(&self, rhs: &Dense) -> Dense {
        assert_eq!(self.ncols, rhs.nrows, "inner dimensions must agree");
        let mut out = Dense::zeros(self.nrows, rhs.ncols);
        for i in 0..self.nrows as usize {
            for k in 0..self.ncols {
                let a = self.data[i * self.ncols as usize + k as usize];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.ncols as usize..(i + 1) * rhs.ncols as usize];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Dense matrix-vector product `self × x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[Value]) -> Vec<Value> {
        assert_eq!(x.len(), self.ncols as usize, "vector length must equal ncols");
        (0..self.nrows)
            .map(|i| self.row(i).iter().zip(x).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Converts to CSR, dropping exact zeros.
    pub fn to_csr(&self) -> Csr {
        let mut coo = Coo::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                let v = self.get(r, c);
                if v != 0.0 {
                    coo.push(r, c, v);
                }
            }
        }
        coo.to_csr()
    }

    /// True when all entries agree within `tol`.
    pub fn approx_eq(&self, other: &Dense, tol: Value) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Dense::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Dense::from_row_major(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn matvec_known_product() {
        let a = Dense::from_row_major(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let y = a.matvec(&[1.0, 10.0, 100.0]);
        assert_eq!(y, vec![201.0, 30.0]);
    }

    #[test]
    fn csr_round_trip() {
        let a = Dense::from_row_major(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let csr = a.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert!(csr.to_dense().approx_eq(&a, 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_checked() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Dense::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let eye = Csr::identity(2).to_dense();
        assert!(a.matmul(&eye).approx_eq(&a, 0.0));
        assert!(eye.matmul(&a).approx_eq(&a, 0.0));
    }
}
