//! Transaction-level timing simulator of the OuterSPACE accelerator.
//!
//! This crate reproduces the simulation methodology of the OuterSPACE paper
//! (§6): the outer-product algorithm's memory-access stream drives timing
//! models of the paper's hardware — 16 tiles × 16 PEs with 64-entry
//! outstanding-request queues, per-tile reconfigurable L0 caches (shared in
//! the multiply phase, private cache + scratchpad pairs in the merge phase),
//! four L1 victim caches, crossbars and a 16-pseudo-channel HBM (Table 2) —
//! and the functional result is the outer-product pipeline's, bit for bit
//! (see [`model`]). Start-up and scheduling delays are ignored, matching the
//! paper.
//!
//! The top-level entry point is [`Simulator`]:
//!
//! ```
//! use outerspace_sim::{OuterSpaceConfig, SimError, Simulator};
//! use outerspace_sparse::Csr;
//!
//! # fn main() -> Result<(), SimError> {
//! let sim = Simulator::new(OuterSpaceConfig::default())?;
//! let a = Csr::identity(64);
//! let (c, report) = sim.spgemm(&a, &a)?;
//! assert_eq!(c.nnz(), 64);
//! assert!(report.seconds() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Analytic models of the paper's baseline hardware (Xeon + MKL, K40 +
//! cuSPARSE/CUSP) live in [`xmodels`]; the dynamic-allocation analysis of
//! §7.3 lives in [`alloc`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
mod config;
pub mod engine;
mod error;
pub mod faults;
pub mod interval;
pub mod layout;
pub mod machine;
pub mod mem;
pub mod model;
pub mod phases;
mod stats;
pub mod trace;
pub mod xmodels;

pub use config::{ConfigError, FaultModel, MachineKind, OuterSpaceConfig};
pub use error::SimError;
pub use stats::{PhaseStats, SimReport};

use outerspace_outer as outer;
use outerspace_sparse::{Csc, Csr, SparseVector};

use model::SpgemmPipeline;

/// Seed-stream consumers for silent-corruption application, one per kernel
/// so identical fault seeds corrupt SpGEMM and SpMV results independently.
const SILENT_CONSUMER_SPGEMM: u64 = 0x51;
const SILENT_CONSUMER_ELEMENTWISE: u64 = 0x52;
const SILENT_CONSUMER_SPMV: u64 = 0x53;

/// The OuterSPACE system simulator.
///
/// Construction validates the configuration once; every simulation both
/// *executes* the kernel (returning real results, validated in tests against
/// the reference implementations) and *times* it on the modeled hardware.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: OuterSpaceConfig,
}

impl Simulator {
    /// Creates a simulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] describing the violated hardware
    /// invariant if `cfg` is inconsistent.
    pub fn new(cfg: OuterSpaceConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Simulator { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &OuterSpaceConfig {
        &self.cfg
    }

    /// The machine model this simulator runs (selected by
    /// [`OuterSpaceConfig::machine`]).
    pub fn machine_model(&self) -> &'static dyn model::MachineModel {
        model::for_kind(self.cfg.machine)
    }

    /// Simulates `C = A × B` (both CR in, CR out) on the configured machine
    /// model. Under [`MachineKind::OuterSpace`] format conversion is
    /// charged for non-symmetric `A` as the paper's evaluation does (§7.1:
    /// "we account for format conversion overheads for non-symmetric
    /// matrices ... to model the worst-case scenario"); under
    /// [`MachineKind::SpArch`] no conversion phase exists.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Sparse`] if `a.ncols() != b.nrows()`, or a
    /// fault-injection failure ([`SimError::AllPesFailed`],
    /// [`SimError::MemoryFailure`], [`SimError::WatchdogTimeout`]) when the
    /// configured [`FaultModel`] overwhelms the machine.
    pub fn spgemm(&self, a: &Csr, b: &Csr) -> Result<(Csr, SimReport), SimError> {
        // Reject malformed operands before simulating (and charging) any
        // phase — the same guard every software kernel uses.
        outerspace_sparse::ops::check_spgemm_dims(
            (a.nrows(), a.ncols()),
            (b.nrows(), b.ncols()),
        )
        .map_err(outerspace_sparse::SparseError::from)?;
        let pipe = self.machine_model().spgemm(&self.cfg, a, b)?;
        Ok(self.deliver(pipe))
    }

    /// Simulates `C = A × B` with `A` already in the machine's preferred
    /// operand format (no preprocessing charged) — the steady state of
    /// chained multiplications (§4.3).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Sparse`] if `a.ncols() != b.nrows()`, or a
    /// fault-injection failure under an overwhelming [`FaultModel`].
    pub fn spgemm_cc_operand(
        &self,
        a: &Csc,
        b: &Csr,
    ) -> Result<(Csr, SimReport), SimError> {
        let pipe = self.machine_model().spgemm_preconverted(&self.cfg, a, b)?;
        Ok(self.deliver(pipe))
    }

    /// Wraps a machine-model pipeline into the delivered result: builds the
    /// [`SimReport`] and materializes any silently-corrupted reads in the
    /// functional values.
    fn deliver(&self, pipe: SpgemmPipeline) -> (Csr, SimReport) {
        let SpgemmPipeline { mut c, convert, multiply, merge, .. } = pipe;
        let report = SimReport { convert, multiply, merge, config: self.cfg.clone() };
        self.apply_silent_corruption(
            c.values_mut(),
            report.silent_corruptions(),
            SILENT_CONSUMER_SPGEMM,
        );
        (c, report)
    }

    /// Materializes ECC-escaped bit flips in the functional result: the
    /// timing models tally how many reads were silently corrupted, and the
    /// same count of deterministic value corruptions is applied here so
    /// downstream verification layers see exactly what faulty hardware would
    /// have delivered. Zero events (the fault-free common case) is a no-op.
    fn apply_silent_corruption(&self, values: &mut [f64], events: u64, consumer: u64) {
        if events > 0 {
            faults::corrupt_values(
                values,
                events,
                faults::split_seed(self.cfg.faults.seed, consumer),
            );
        }
    }

    /// Simulates an N-way element-wise sum `A₁ + A₂ + … + A_N` (§5.6's
    /// element-wise routines reuse the merge-phase datapath). Returns the
    /// functional result and a report whose merge phase carries the timing
    /// (no multiply/convert phases run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Sparse`] on inconsistent shapes or an empty
    /// operand list, or a fault-injection failure under an overwhelming
    /// [`FaultModel`].
    pub fn elementwise_sum(&self, mats: &[&Csr]) -> Result<(Csr, SimReport), SimError> {
        let (mut out, _) = outer::sum_all(mats)?;
        let merge = phases::elementwise::simulate_elementwise(&self.cfg, mats, &out)?;
        self.apply_silent_corruption(
            out.values_mut(),
            merge.silent_corruptions,
            SILENT_CONSUMER_ELEMENTWISE,
        );
        Ok((
            out,
            SimReport {
                convert: None,
                multiply: PhaseStats::default(),
                merge,
                config: self.cfg.clone(),
            },
        ))
    }

    /// Simulates `y = A × x` with the outer-product SpMV (§5.6). `A` is
    /// consumed column-wise (CC); no conversion is charged, matching the
    /// paper's SpMV evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Sparse`] if `x.len != a.ncols()`, or a
    /// fault-injection failure under an overwhelming [`FaultModel`].
    pub fn spmv(
        &self,
        a: &Csc,
        x: &SparseVector,
    ) -> Result<(SparseVector, SimReport), SimError> {
        let (mut y, _) = outer::spmv(a, x)?;
        let report = phases::spmv::simulate_spmv(&self.cfg, a, x, y.nnz() as u64)?;
        self.apply_silent_corruption(
            &mut y.values,
            report.silent_corruptions(),
            SILENT_CONSUMER_SPMV,
        );
        Ok((y, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::{rmat, uniform, vector};
    use outerspace_sparse::ops;

    fn sim() -> Simulator {
        Simulator::new(OuterSpaceConfig::default()).expect("default config valid")
    }

    #[test]
    fn functional_result_matches_reference() {
        let a = uniform::matrix(96, 96, 800, 1);
        let b = uniform::matrix(96, 96, 800, 2);
        let (c, _) = sim().spgemm(&a, &b).unwrap();
        assert!(c.approx_eq(&ops::spgemm_reference(&a, &b).unwrap(), 1e-9));
    }

    #[test]
    fn report_has_all_phases_for_asymmetric_input() {
        let a = uniform::matrix(128, 128, 1000, 3);
        let (_, rep) = sim().spgemm(&a, &a).unwrap();
        assert!(rep.convert.is_some(), "asymmetric input must charge conversion");
        assert!(rep.multiply.cycles > 0);
        assert!(rep.merge.cycles > 0);
        assert!(rep.seconds() > 0.0);
        assert!(rep.gflops() > 0.0);
    }

    #[test]
    fn symmetric_input_skips_conversion() {
        let g = rmat::graph500(256, 2000, 4); // undirected = symmetric
        let (_, rep) = sim().spgemm(&g, &g).unwrap();
        assert!(rep.convert.is_none());
    }

    #[test]
    fn preconverted_operand_skips_conversion() {
        let a = uniform::matrix(64, 64, 400, 5);
        let (c1, rep) = sim().spgemm_cc_operand(&a.to_csc(), &a).unwrap();
        assert!(rep.convert.is_none());
        let (c2, _) = sim().spgemm(&a, &a).unwrap();
        assert!(c1.approx_eq(&c2, 0.0));
    }

    #[test]
    fn denser_work_achieves_higher_gflops() {
        // OuterSPACE's throughput grows with arithmetic intensity.
        let sparse = uniform::matrix(2048, 2048, 8_000, 6);
        let dense = uniform::matrix(512, 512, 8_000, 6);
        let (_, r1) = sim().spgemm(&sparse, &sparse).unwrap();
        let (_, r2) = sim().spgemm(&dense, &dense).unwrap();
        assert!(r2.gflops() > r1.gflops());
    }

    #[test]
    fn bandwidth_utilization_is_sane() {
        let a = uniform::matrix(4096, 4096, 60_000, 7);
        let (_, rep) = sim().spgemm(&a, &a).unwrap();
        let mult_bw = rep.multiply.bandwidth_utilization(&rep.config);
        let merge_bw = rep.merge.bandwidth_utilization(&rep.config);
        assert!((0.05..=1.0).contains(&mult_bw), "multiply bw {mult_bw}");
        assert!((0.05..=1.0).contains(&merge_bw), "merge bw {merge_bw}");
    }

    #[test]
    fn spmv_functional_and_timed() {
        let a = uniform::matrix(1024, 1024, 16_384, 8).to_csc();
        let x = vector::sparse(1024, 0.1, 9);
        let (y, rep) = sim().spmv(&a, &x).unwrap();
        assert!(y.nnz() > 0);
        assert!(rep.total_cycles() > 0);
    }

    #[test]
    fn silent_faults_corrupt_results_without_changing_timing() {
        let a = uniform::matrix(96, 96, 800, 21);
        let b = uniform::matrix(96, 96, 800, 22);
        let clean = sim().spgemm(&a, &b).unwrap();
        let faulty_sim = Simulator::new(OuterSpaceConfig {
            faults: FaultModel { ber_silent: 2e-6, seed: 77, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
        let (c, rep) = faulty_sim.spgemm(&a, &b).unwrap();
        assert!(rep.silent_corruptions() > 0, "silent events must be tallied");
        assert_eq!(
            rep.total_cycles(),
            clean.1.total_cycles(),
            "escaped faults are undetected: timing must match the clean run"
        );
        assert_eq!(rep.fault_events(), 0, "no detected fault events");
        let reference = ops::spgemm_reference(&a, &b).unwrap();
        assert!(clean.0.approx_eq(&reference, 1e-9));
        assert!(
            !c.approx_eq(&reference, 1e-9),
            "the delivered result must actually be corrupted"
        );
        assert_eq!(c.nnz(), reference.nnz(), "corruption flips values, not structure");
        assert!(c.values().iter().all(|v| v.is_finite()));
        // Deterministic: same config, same corruption.
        let (c2, _) = faulty_sim.spgemm(&a, &b).unwrap();
        assert!(c.approx_eq(&c2, 0.0));
    }

    #[test]
    fn silent_faults_corrupt_spmv_results() {
        let a = uniform::matrix(512, 512, 8_192, 23).to_csc();
        let x = vector::sparse(512, 0.2, 24);
        let faulty_sim = Simulator::new(OuterSpaceConfig {
            faults: FaultModel { ber_silent: 5e-6, seed: 78, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
        let (y, rep) = faulty_sim.spmv(&a, &x).unwrap();
        assert!(rep.silent_corruptions() > 0);
        let (y_clean, _) = sim().spmv(&a, &x).unwrap();
        assert_eq!(y.indices, y_clean.indices);
        assert_ne!(y.values, y_clean.values, "SpMV values must be corrupted");
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = OuterSpaceConfig { n_tiles: 0, ..Default::default() };
        assert!(Simulator::new(cfg).is_err());
    }

    #[test]
    fn shape_mismatch_propagates() {
        let a = uniform::matrix(8, 9, 20, 1);
        let b = uniform::matrix(8, 8, 20, 2);
        assert!(sim().spgemm(&a, &b).is_err());
    }
}
