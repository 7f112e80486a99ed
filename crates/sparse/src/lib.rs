//! Sparse matrix substrate for the OuterSPACE reproduction.
//!
//! The OuterSPACE paper (Pal et al., HPCA 2018) stores matrices in the
//! *Compressed Row* (CR) and *Compressed Column* (CC) formats — row (column)
//! pointers into contiguous arrays of column-index/value (row-index/value)
//! pairs. These are structurally identical to the classical CSR/CSC formats,
//! so this crate names the types [`Csr`] and [`Csc`] and the rest of the
//! workspace treats "CR" ≡ [`Csr`], "CC" ≡ [`Csc`].
//!
//! Provided here:
//!
//! * [`Coo`] — coordinate (triplet) format, the usual construction and
//!   interchange format.
//! * [`Csr`] / [`Csc`] — the compressed formats the accelerator operates on.
//! * [`Dense`] — a dense row-major matrix used as a test oracle.
//! * [`io`] — Matrix Market (`.mtx`) reading and writing, so real SuiteSparse
//!   matrices can be fed to the simulator when available.
//! * [`ops`] — reference kernels (Gustavson SpGEMM, SpMV, element-wise ops,
//!   transposition) used as golden models by the algorithm and simulator
//!   crates.
//! * [`stats`] — structural statistics (density, nnz/row distribution, …)
//!   used by the workload generators and the experiment harness.
//!
//! # Example
//!
//! ```
//! use outerspace_sparse::{Coo, Csr, ops};
//!
//! # fn main() -> Result<(), outerspace_sparse::SparseError> {
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 0, 1.0);
//! coo.push(0, 2, 2.0);
//! coo.push(2, 1, 3.0);
//! let a: Csr = coo.to_csr();
//! let c = ops::spgemm_reference(&a, &a)?;
//! assert_eq!(c.nnz(), 3); // row 0 of C = [1, 6, 2]
//! assert_eq!(c.get(0, 1), 6.0); // a[0,2] * a[2,1] = 2 * 3
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::cast_possible_truncation)]

mod coo;
mod csc;
mod csr;
mod dense;
mod error;
pub mod io;
pub mod ops;
pub mod stats;
mod vector;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::Dense;
pub use error::{DimError, SparseError};
pub use vector::SparseVector;

/// Column/row index type used across the workspace.
///
/// 32-bit indices match the paper's memory-traffic accounting (a
/// double-precision value plus an index is 12 bytes per element) and
/// comfortably cover the largest evaluated matrices (8.4 M rows).
pub type Index = u32;

/// Scalar value type. The paper evaluates double-precision throughput.
pub type Value = f64;
