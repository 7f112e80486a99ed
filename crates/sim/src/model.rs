//! The machine-model abstraction: which phase kernels run, in what order,
//! with which memory scripts.
//!
//! [`Simulator`](crate::Simulator) and the DSE executor do not hard-wire
//! the OuterSPACE pipeline any more — they ask [`for_kind`] for a
//! [`MachineModel`] and run whatever phase sequence it owns. Two machines
//! are implemented:
//!
//! - [`MachineKind::OuterSpace`]: format conversion (charged for
//!   asymmetric operands), tiled outer-product multiply into the chunked
//!   intermediate, streaming multi-way merge — the original pipeline,
//!   retrofitted with **zero drift** against the pinned golden cycle counts
//!   (`tests/golden_cycles.rs` asserts the pins byte-for-byte).
//! - [`MachineKind::SpArch`]: condensed multiply + pipelined merge tree
//!   (see [`crate::phases::sparch`]). No conversion phase exists — SpArch
//!   streams CSR `A` directly; that saving is part of the design's win and
//!   shows up as `convert: None` in every report.
//!
//! A model returns the full [`SpgemmPipeline`] — functional result, phase
//! stats, and per-class [`CycleBreakdown`]s — so callers can build
//! [`SimReport`](crate::SimReport)s, energy estimates, and utilization
//! plots without knowing which machine ran.
//!
//! Both machines take the functional result from the row-wise Gustavson
//! kernel ([`gustavson::spgemm`]) on the CR operands. The paper's merge
//! (§4.2, §5.4.2) adds each `c_ij`'s partial products in ascending `k`,
//! which is the order a row-wise accumulator visits them, so `C` is
//! bit-identical to the outer-product pipeline's ([`outer::spgemm`])
//! without building its intermediate. The timing models read only shapes
//! from it: per-row output lengths for the OuterSPACE merge, `nnz(C)` for
//! the SpArch plan, which is otherwise built from the operands' structure
//! ([`outer::sparch_structural_plan`]).

use outerspace_baselines::gustavson;
use outerspace_outer as outer;
use outerspace_sparse::{Csc, Csr};

use crate::config::{MachineKind, OuterSpaceConfig};
use crate::engine::CycleBreakdown;
use crate::error::SimError;
use crate::phases::{convert, merge, multiply, sparch};
use crate::stats::PhaseStats;

/// Everything one SpGEMM run through a machine model produces: the
/// functional product plus per-phase timing and attribution.
#[derive(Debug, Clone)]
pub struct SpgemmPipeline {
    /// The functional product `C = A × B`.
    pub c: Csr,
    /// Conversion-phase stats, when the machine charged one.
    pub convert: Option<PhaseStats>,
    /// Multiply-phase stats.
    pub multiply: PhaseStats,
    /// Merge-phase stats.
    pub merge: PhaseStats,
    /// Cycle attribution for the multiply-phase PE class.
    pub multiply_breakdown: CycleBreakdown,
    /// Cycle attribution for the merge-phase PE class.
    pub merge_breakdown: CycleBreakdown,
}

/// A machine model: owns the phase pipeline (which kernels run, in what
/// order, with which memory scripts) for one simulated design.
pub trait MachineModel: std::fmt::Debug + Sync {
    /// Which machine this is.
    fn kind(&self) -> MachineKind;

    /// Runs the full SpGEMM pipeline on CR operands, charging whatever
    /// preprocessing the machine needs (OuterSPACE: format conversion for
    /// asymmetric `A`; SpArch: nothing).
    ///
    /// Operand shapes must already be validated (`a.ncols() == b.nrows()`).
    ///
    /// # Errors
    ///
    /// Fault injection: every PE dead, an access out of retries, or a
    /// watchdog timeout ([`SimError`]); or a merge row with more than
    /// `u32::MAX` collisions ([`SimError::MergeCountOverflow`]).
    fn spgemm(&self, cfg: &OuterSpaceConfig, a: &Csr, b: &Csr)
        -> Result<SpgemmPipeline, SimError>;

    /// Runs the pipeline with `A` already in the machine's preferred
    /// operand format — the steady state of chained multiplications. No
    /// preprocessing is charged.
    ///
    /// # Errors
    ///
    /// As [`MachineModel::spgemm`].
    fn spgemm_preconverted(
        &self,
        cfg: &OuterSpaceConfig,
        a_cc: &Csc,
        b: &Csr,
    ) -> Result<SpgemmPipeline, SimError>;
}

/// The functional product both machines return: row-wise Gustavson, which
/// sums each entry's products in ascending `k` like the paper's merge, so
/// the bits equal [`outer::spgemm`]'s.
fn functional_product(a: &Csr, b: &Csr) -> Result<Csr, SimError> {
    Ok(gustavson::spgemm(a, b)?.0)
}

/// The OuterSPACE pipeline (§4–§5 of the paper).
#[derive(Debug)]
pub struct OuterSpaceModel;

impl OuterSpaceModel {
    /// Runs the pipeline on `a`, given in both row form (`a`, for the
    /// functional product) and column form (`a_cc`, for the multiply
    /// engine).
    fn run(
        &self,
        cfg: &OuterSpaceConfig,
        a: &Csr,
        a_cc: &Csc,
        b: &Csr,
        convert: Option<PhaseStats>,
    ) -> Result<SpgemmPipeline, SimError> {
        let c = functional_product(a, b)?;
        let (multiply, intermediate, multiply_breakdown) =
            multiply::simulate_multiply_with_breakdown(cfg, a_cc, b)?;
        let rows = merge::row_merge_infos(&intermediate, &c)?;
        let (merge, merge_breakdown) =
            merge::simulate_merge_with_breakdown(cfg, &intermediate, &rows)?;
        Ok(SpgemmPipeline { c, convert, multiply, merge, multiply_breakdown, merge_breakdown })
    }
}

impl MachineModel for OuterSpaceModel {
    fn kind(&self) -> MachineKind {
        MachineKind::OuterSpace
    }

    fn spgemm(
        &self,
        cfg: &OuterSpaceConfig,
        a: &Csr,
        b: &Csr,
    ) -> Result<SpgemmPipeline, SimError> {
        // §7.1: conversion is charged for non-symmetric matrices to model
        // the worst case; symmetric operands already are their own CC form.
        let (a_cc, conv_soft) = outer::csr_to_csc_via_outer(a);
        let convert_stats = if conv_soft.skipped_symmetric {
            None
        } else {
            Some(convert::simulate_convert(cfg, a)?)
        };
        self.run(cfg, a, &a_cc, b, convert_stats)
    }

    fn spgemm_preconverted(
        &self,
        cfg: &OuterSpaceConfig,
        a_cc: &Csc,
        b: &Csr,
    ) -> Result<SpgemmPipeline, SimError> {
        self.run(cfg, &a_cc.to_csr(), a_cc, b, None)
    }
}

/// The SpArch-analog pipeline: condensed multiply + Huffman-scheduled merge
/// tree (see `crate::phases::sparch` and PAPERS.md).
#[derive(Debug)]
pub struct SpArchModel;

impl SpArchModel {
    fn run(&self, cfg: &OuterSpaceConfig, a: &Csr, b: &Csr) -> Result<SpgemmPipeline, SimError> {
        let c = functional_product(a, b)?;
        // The dataflow plan the timing model replays: leaf stream sizes
        // plus the Huffman merge schedule.
        let plan = outer::sparch_structural_plan(
            a,
            b,
            cfg.merge_tree_ways as usize,
            c.nnz() as u64,
        )?;
        let condensed = outer::condense(a);
        let (multiply, multiply_breakdown) =
            sparch::simulate_condensed_multiply(cfg, &condensed, b, &plan)?;
        let (merge, merge_breakdown) = sparch::simulate_merge_tree(cfg, &plan)?;
        Ok(SpgemmPipeline {
            c,
            convert: None,
            multiply,
            merge,
            multiply_breakdown,
            merge_breakdown,
        })
    }
}

impl MachineModel for SpArchModel {
    fn kind(&self) -> MachineKind {
        MachineKind::SpArch
    }

    fn spgemm(
        &self,
        cfg: &OuterSpaceConfig,
        a: &Csr,
        b: &Csr,
    ) -> Result<SpgemmPipeline, SimError> {
        self.run(cfg, a, b)
    }

    fn spgemm_preconverted(
        &self,
        cfg: &OuterSpaceConfig,
        a_cc: &Csc,
        b: &Csr,
    ) -> Result<SpgemmPipeline, SimError> {
        // SpArch condenses CSR directly; a CC operand is simply handed back
        // in row form (no phase is charged either way).
        self.run(cfg, &a_cc.to_csr(), b)
    }
}

static OUTERSPACE_MODEL: OuterSpaceModel = OuterSpaceModel;
static SPARCH_MODEL: SpArchModel = SpArchModel;

/// The machine model for `kind`.
pub fn for_kind(kind: MachineKind) -> &'static dyn MachineModel {
    match kind {
        MachineKind::OuterSpace => &OUTERSPACE_MODEL,
        MachineKind::SpArch => &SPARCH_MODEL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::{banded, powerlaw, rmat, uniform};
    use outerspace_sparse::ops;

    #[test]
    fn both_machines_compute_the_same_product() {
        let a = uniform::matrix(96, 96, 900, 31);
        let b = uniform::matrix(96, 96, 900, 32);
        let cfg = OuterSpaceConfig::default();
        let want = ops::spgemm_reference(&a, &b).unwrap();
        for kind in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let model = for_kind(kind);
            assert_eq!(model.kind(), kind);
            let pipe = model.spgemm(&cfg, &a, &b).unwrap();
            assert!(pipe.c.approx_eq(&want, 1e-9), "{kind} product diverged");
            assert!(pipe.multiply.cycles > 0);
            assert!(pipe.merge.cycles > 0);
        }
    }

    /// `c`'s structure and value bits: unlike `Csr`'s `==`, this tells
    /// `0.0` from `-0.0` and compares NaNs.
    fn bits(c: &Csr) -> (&[usize], &[u32], Vec<u64>) {
        (c.row_ptr(), c.col_indices(), c.values().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn outerspace_product_is_bitwise_the_paper_pipeline() {
        // Products cancel exactly in c_00 (3 − 3) and add a −0.0 to c_10.
        let cancel_a = Csr::new(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1.0, 1.0, 0.5, 0.0])
            .unwrap();
        let cancel_b = Csr::new(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![3.0, 2.0, -3.0, 4.0])
            .unwrap();
        // Symmetric under `==`, yet A·A is −0.0 on the diagonal.
        let signed_zero = Csr::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![0.0, -0.0]).unwrap();
        let mut infinite = uniform::matrix(64, 64, 500, 47);
        for (i, v) in infinite.values_mut().iter_mut().enumerate() {
            match i % 11 {
                0 => *v = f64::INFINITY,
                5 => *v = f64::NEG_INFINITY,
                _ => {}
            }
        }
        // Output columns span three MERGE_BLOCK_COLS blocks.
        let wide_cols = 2 * outer::MERGE_BLOCK_COLS as u32 + 808;
        let cases = [
            ("rmat", rmat::graph500(128, 1500, 41), None),
            ("powerlaw", powerlaw::graph(128, 1200, 43), None),
            ("banded", banded::matrix(96, &[-5, -1, 0, 2, 9], 0.8, 44), None),
            ("rect", uniform::matrix(96, 80, 700, 37), Some(uniform::matrix(80, 72, 600, 137))),
            (
                "wide",
                uniform::matrix(40, 64, 400, 45),
                Some(uniform::matrix(64, wide_cols, 1500, 46)),
            ),
            ("cancel", cancel_a, Some(cancel_b)),
            ("signed_zero", signed_zero, None),
            ("infinite", infinite, None),
        ];
        for (name, a, b) in &cases {
            let b = b.as_ref().unwrap_or(a);
            let want = outer::spgemm(a, b).unwrap();
            for machine in [MachineKind::OuterSpace, MachineKind::SpArch] {
                let sim =
                    crate::Simulator::new(OuterSpaceConfig { machine, ..Default::default() })
                        .unwrap();
                let (c, _) = sim.spgemm(a, b).unwrap();
                assert_eq!(bits(&c), bits(&want), "{name} {machine} spgemm");
                let (c, _) = sim.spgemm_cc_operand(&a.to_csc(), b).unwrap();
                assert_eq!(bits(&c), bits(&want), "{name} {machine} spgemm_cc_operand");
            }
        }
    }

    #[test]
    fn sparch_product_matches_the_reference_model_up_to_summation_order() {
        let cfg = OuterSpaceConfig { machine: MachineKind::SpArch, ..Default::default() };
        let sim = crate::Simulator::new(cfg).unwrap();
        for (a, b) in [
            (uniform::matrix(96, 80, 900, 39), uniform::matrix(80, 72, 800, 40)),
            (rmat::graph500(128, 1500, 41), rmat::graph500(128, 1500, 42)),
        ] {
            let (c, _) = sim.spgemm(&a, &b).unwrap();
            let want = outer::spgemm_sparch(&a, &b).unwrap();
            assert_eq!(c.row_ptr(), want.row_ptr());
            assert_eq!(c.col_indices(), want.col_indices());
            for (&got, &exp) in c.values().iter().zip(want.values()) {
                assert!((got - exp).abs() <= 1e-12 * exp.abs(), "{got} vs {exp}");
            }
        }
    }

    #[test]
    fn sparch_never_charges_conversion() {
        let a = uniform::matrix(64, 64, 500, 33);
        let cfg = OuterSpaceConfig::default();
        let pipe = for_kind(MachineKind::SpArch).spgemm(&cfg, &a, &a).unwrap();
        assert!(pipe.convert.is_none());
        // OuterSPACE charges it for the same (asymmetric) operand.
        let pipe = for_kind(MachineKind::OuterSpace).spgemm(&cfg, &a, &a).unwrap();
        assert!(pipe.convert.is_some());
    }

    #[test]
    fn preconverted_paths_agree_with_direct_runs() {
        let a = uniform::matrix(64, 64, 450, 34);
        let b = uniform::matrix(64, 64, 450, 35);
        let cfg = OuterSpaceConfig::default();
        for kind in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let model = for_kind(kind);
            let direct = model.spgemm(&cfg, &a, &b).unwrap();
            let pre = model.spgemm_preconverted(&cfg, &a.to_csc(), &b).unwrap();
            assert!(pre.convert.is_none());
            assert!(pre.c.approx_eq(&direct.c, 1e-9));
        }
    }

    #[test]
    fn breakdown_classes_identify_the_machine() {
        let a = uniform::matrix(64, 64, 500, 36);
        let cfg = OuterSpaceConfig::default();
        let o = for_kind(MachineKind::OuterSpace).spgemm(&cfg, &a, &a).unwrap();
        assert_eq!(o.multiply_breakdown.pe_class, "tile_pe");
        assert_eq!(o.merge_breakdown.pe_class, "merge_worker");
        let s = for_kind(MachineKind::SpArch).spgemm(&cfg, &a, &a).unwrap();
        assert_eq!(s.multiply_breakdown.pe_class, "mul_pe");
        assert_eq!(s.merge_breakdown.pe_class, "merge_tree");
    }
}
