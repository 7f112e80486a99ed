//! Registry of every SpGEMM and SpMV path the oracle cross-checks.
//!
//! Each entry wraps one public entry point behind a uniform signature so the
//! driver can run arbitrary subsets (`--impl-subset`) and treat rejection
//! uniformly: errors are carried as strings, and the oracle asserts that all
//! implementations agree not just on *results* but on *rejecting* malformed
//! operands (the typed `DimError` guards).
//!
//! The golden model is [`spgemm_reference`] / [`spmv_reference`]
//! (`outerspace_sparse::ops`), itself validated against dense arithmetic in
//! the sparse crate's unit tests. The simulator's functional output is
//! registered as the `sim` implementation, so the timing model's dataflow
//! (multiply + merge phases, §4 of the paper) is differenced against the
//! same oracle as the software kernels.

use outerspace_baselines as baselines;
use outerspace_outer as outer;
use outerspace_sim::{OuterSpaceConfig, Simulator};
use outerspace_sparse::{ops, Csr, SparseVector};

/// Worker count used by the `*_par` registry entries.
const PAR_THREADS: usize = 3;

/// One SpGEMM implementation under test: `C = A × B`, CR results; rejection
/// is reported as `Err(message)`.
#[derive(Debug, Clone, Copy)]
pub struct SpgemmImpl {
    /// Registry name (stable; used by `--impl-subset` and repro manifests).
    pub name: &'static str,
    /// The wrapped entry point.
    pub run: fn(&Csr, &Csr) -> Result<Csr, String>,
}

/// One SpMV implementation under test: `y = A × x` with `A` in CR and a
/// sparse `x`; results normalize to [`SparseVector`].
#[derive(Debug, Clone, Copy)]
pub struct SpmvImpl {
    /// Registry name.
    pub name: &'static str,
    /// The wrapped entry point.
    pub run: fn(&Csr, &SparseVector) -> Result<SparseVector, String>,
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The golden-model SpGEMM (Gustavson with a dense accumulator).
pub fn spgemm_reference(a: &Csr, b: &Csr) -> Result<Csr, String> {
    ops::spgemm_reference(a, b).map_err(err)
}

/// The golden-model SpMV (row-wise against the densified vector).
pub fn spmv_reference(a: &Csr, x: &SparseVector) -> Result<SparseVector, String> {
    let y = ops::spmv_reference(a, &x.to_dense()).map_err(err)?;
    Ok(SparseVector::from_dense(&y))
}

/// Every SpGEMM path under test, in registry order.
pub fn spgemm_impls() -> Vec<SpgemmImpl> {
    vec![
        SpgemmImpl {
            name: "outer_streaming",
            run: |a, b| {
                outer::spgemm_with_stats(a, b, outer::MergeKind::Streaming)
                    .map(|(c, _)| c)
                    .map_err(err)
            },
        },
        SpgemmImpl {
            name: "outer_sort",
            run: |a, b| {
                outer::spgemm_with_stats(a, b, outer::MergeKind::SortBased)
                    .map(|(c, _)| c)
                    .map_err(err)
            },
        },
        SpgemmImpl {
            name: "outer_cc",
            run: |a, b| outer::spgemm_cc(a, b).map(|c| c.to_csr()).map_err(err),
        },
        SpgemmImpl {
            name: "outer_blocked",
            run: |a, b| outer::spgemm(a, b).map_err(err),
        },
        SpgemmImpl {
            name: "outer_ws_par",
            run: |a, b| {
                outer::spgemm_parallel(a, b, PAR_THREADS).map(|(c, _)| c).map_err(err)
            },
        },
        SpgemmImpl {
            name: "mkl_gustavson",
            run: |a, b| baselines::gustavson::spgemm(a, b).map(|(c, _)| c).map_err(err),
        },
        SpgemmImpl {
            name: "mkl_gustavson_par",
            run: |a, b| {
                baselines::gustavson::spgemm_parallel(a, b, PAR_THREADS)
                    .map(|(c, _)| c)
                    .map_err(err)
            },
        },
        SpgemmImpl {
            name: "cusparse_hash",
            run: |a, b| baselines::hash::spgemm(a, b).map(|(c, _)| c).map_err(err),
        },
        SpgemmImpl {
            name: "cusp_esc",
            run: |a, b| baselines::esc::spgemm(a, b).map(|(c, _)| c).map_err(err),
        },
        SpgemmImpl {
            name: "naive_inner",
            run: |a, b| {
                baselines::inner::spgemm(a, &b.to_csc()).map(|(c, _)| c).map_err(err)
            },
        },
        SpgemmImpl {
            name: "sim",
            run: |a, b| {
                let sim = Simulator::new(OuterSpaceConfig::default()).map_err(err)?;
                sim.spgemm(a, b).map(|(c, _)| c).map_err(err)
            },
        },
        SpgemmImpl {
            name: "sim_cc",
            run: |a, b| {
                // The preconverted-operand entry point (chained-multiply
                // steady state): skips the conversion phase, so its engine
                // dataflow is differenced independently of `sim`.
                let sim = Simulator::new(OuterSpaceConfig::default()).map_err(err)?;
                sim.spgemm_cc_operand(&a.to_csc(), b).map(|(c, _)| c).map_err(err)
            },
        },
        SpgemmImpl {
            name: "sparch_cc",
            run: |a, b| {
                // The SpArch-analog functional pipeline: condensed multiply
                // plus the Huffman-scheduled merge tree, at the default
                // tree width. Differenced against the same oracle so the
                // second machine model's dataflow is held to the same bar.
                outer::spgemm_sparch(a, b).map_err(err)
            },
        },
        SpgemmImpl {
            name: "serve",
            run: |a, b| {
                // End-to-end through the request service: admission,
                // classifier routing, watchdogged compute, delivery. Every
                // kernel the router can pick is itself in this registry, so
                // this entry checks the *service plumbing* preserves results
                // and surfaces rejections.
                use std::sync::Arc;
                use outerspace_serve::{Op, OpOutput, Server, ServerConfig, SubmitOpts};
                let server = Server::start(ServerConfig {
                    workers: 1,
                    cache_cap: 0,
                    ..ServerConfig::default()
                });
                let op = Op::Spgemm { a: Arc::new(a.clone()), b: Arc::new(b.clone()) };
                let opts = SubmitOpts {
                    deadline: Some(std::time::Duration::from_secs(600)),
                    force_kernel: None,
                };
                let result = match server.submit_opts(op, opts) {
                    Ok(ticket) => match ticket.wait().result {
                        Ok(out) => match &*out {
                            OpOutput::Matrix(c) => Ok(c.clone()),
                            OpOutput::Vector(_) => Err("serve returned a vector".to_string()),
                        },
                        Err(e) => Err(e.to_string()),
                    },
                    Err(rejected) => Err(rejected.to_string()),
                };
                server.shutdown();
                result
            },
        },
    ]
}

/// Every SpMV path under test, in registry order.
pub fn spmv_impls() -> Vec<SpmvImpl> {
    vec![
        SpmvImpl {
            name: "outer_spmv",
            run: |a, x| outer::spmv(&a.to_csc(), x).map(|(y, _)| y).map_err(err),
        },
        SpmvImpl {
            name: "outer_spmv_dense",
            run: |a, x| {
                outer::spmv_dense(&a.to_csc(), &x.to_dense())
                    .map(|(y, _)| SparseVector::from_dense(&y))
                    .map_err(err)
            },
        },
        SpmvImpl {
            name: "mkl_spmv_densified",
            run: |a, x| {
                baselines::spmv::spmv_dense_vector(a, x)
                    .map(|(y, _)| SparseVector::from_dense(&y))
                    .map_err(err)
            },
        },
        SpmvImpl {
            name: "cusparse_spmv_match",
            run: |a, x| baselines::spmv::spmv_index_match(a, x).map(|(y, _)| y).map_err(err),
        },
        SpmvImpl {
            name: "sim_spmv",
            run: |a, x| {
                let sim = Simulator::new(OuterSpaceConfig::default()).map_err(err)?;
                sim.spmv(&a.to_csc(), x).map(|(y, _)| y).map_err(err)
            },
        },
    ]
}

/// A deliberately broken SpGEMM used by `oracle --inject-fault` and the CI
/// gate: it computes the reference product, then perturbs the first stored
/// value. Any case whose product is non-empty must be flagged, shrunk, and
/// reported — proving the detection pipeline end to end.
pub fn injected_fault_impl() -> SpgemmImpl {
    SpgemmImpl {
        name: "injected_fault",
        run: |a, b| {
            let c = ops::spgemm_reference(a, b).map_err(err)?;
            if c.nnz() == 0 {
                return Ok(c);
            }
            let mut vals = c.values().to_vec();
            vals[0] = vals[0] * 1.5 + 1.0;
            Ok(Csr::from_raw_parts_unchecked(
                c.nrows(),
                c.ncols(),
                c.row_ptr().to_vec(),
                c.col_indices().to_vec(),
                vals,
            ))
        },
    }
}

/// Filters a registry to the comma-separated `--impl-subset` list; `None`
/// keeps everything. Unknown names are reported as an error so typos do not
/// silently shrink coverage.
pub fn filter_impls(
    impls: Vec<SpgemmImpl>,
    subset: Option<&str>,
) -> Result<Vec<SpgemmImpl>, String> {
    let Some(subset) = subset else { return Ok(impls) };
    let wanted: Vec<&str> = subset.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    for w in &wanted {
        if !impls.iter().any(|i| i.name == *w) {
            let names: Vec<&str> = impls.iter().map(|i| i.name).collect();
            return Err(format!("unknown impl '{w}' (known: {})", names.join(", ")));
        }
    }
    Ok(impls.into_iter().filter(|i| wanted.contains(&i.name)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_have_unique_names() {
        let mut names: Vec<&str> = spgemm_impls().iter().map(|i| i.name).collect();
        names.extend(spmv_impls().iter().map(|i| i.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn filter_rejects_unknown_names() {
        assert!(filter_impls(spgemm_impls(), Some("outer_streaming,cusp_esc")).unwrap().len() == 2);
        assert!(filter_impls(spgemm_impls(), Some("nope")).is_err());
        assert_eq!(filter_impls(spgemm_impls(), None).unwrap().len(), 14);
    }

    #[test]
    fn serve_router_names_are_a_subset_of_this_registry() {
        // Every kernel the service's classifier can route to must be
        // differentially tested here — the "known-good" guarantee the
        // degradation ladder leans on.
        let spgemm: Vec<&str> = spgemm_impls().iter().map(|i| i.name).collect();
        for name in outerspace_serve::kernels::SPGEMM_KERNELS {
            assert!(spgemm.contains(name), "serve routes to unregistered kernel '{name}'");
        }
        let spmv: Vec<&str> = spmv_impls().iter().map(|i| i.name).collect();
        for name in outerspace_serve::kernels::SPMV_KERNELS {
            assert!(spmv.contains(name), "serve routes to unregistered kernel '{name}'");
        }
    }

    #[test]
    fn injected_fault_diverges_on_nonempty_products() {
        let a = outerspace_gen::uniform::matrix(8, 8, 16, 1);
        let broken = (injected_fault_impl().run)(&a, &a).unwrap();
        let good = spgemm_reference(&a, &a).unwrap();
        assert!(!broken.approx_eq(&good, 1e-9));
    }
}
