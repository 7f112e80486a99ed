//! The oracle run loop: generate → execute everywhere → compare → shrink →
//! persist repros — reported through the bench crate's crash-safe
//! [`Runner`], so `oracle` emits the same `{manifest, cases}` JSON shape as
//! every figure/table harness and inherits checkpointing, `--resume`, panic
//! isolation and the per-case watchdog for free.

use std::path::PathBuf;

use outerspace_bench::runner::{Runner, RunSummary};
use outerspace_bench::HarnessOpts;
use outerspace_json::Json;
use outerspace_sparse::{Csr, SparseVector};

use crate::canon::CanonMatrix;
use crate::cases::{spgemm_case, spmv_case};
use crate::compare::Tolerance;
use crate::impls::{self, spgemm_reference, spmv_reference, SpgemmImpl};
use crate::repro::{diff_results, vector_from_column, Repro, ReproKind};
use crate::shrink::{shrink_pair, DEFAULT_MAX_EVALS};

/// Oracle-specific knobs layered on top of [`HarnessOpts`].
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// How many seeds to draw (each seed yields one SpGEMM and one SpMV
    /// case).
    pub seeds: u64,
    /// Append the deliberately broken implementation to the SpGEMM registry
    /// (`--inject-fault`) — the CI gate for the detection pipeline.
    pub inject_fault: bool,
    /// `--impl-subset a,b,c`: restrict the SpGEMM registry.
    pub impl_subset: Option<String>,
    /// Where shrunk repros are written (`--repro-dir`).
    pub repro_dir: PathBuf,
    /// Comparison tolerance.
    pub tol: Tolerance,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            seeds: 64,
            inject_fault: false,
            impl_subset: None,
            repro_dir: PathBuf::from("oracle_repros"),
            tol: Tolerance::default(),
        }
    }
}

/// Per-case row recorded in the JSON report.
struct CaseRow {
    kind: String,
    family: String,
    case_seed: u64,
    impls: u64,
    mismatches: u64,
    expect_reject: bool,
    a_nnz: u64,
    b_nnz: u64,
    /// Successful kernel results additionally probed by the Freivalds /
    /// residual secondary checker (`verify` crate).
    freivalds_checks: u64,
    /// Secondary-checker rejections. A rejection the canonical compare
    /// *missed* is counted as a mismatch (checker inconsistency).
    freivalds_rejects: u64,
    repros: Vec<String>,
}

outerspace_json::impl_to_json!(CaseRow {
    kind,
    family,
    case_seed,
    impls,
    mismatches,
    expect_reject,
    a_nnz,
    b_nnz,
    freivalds_checks,
    freivalds_rejects,
    repros,
});

/// Asserts the CR↔CC↔COO↔dense conversion cycle preserves a matrix
/// exactly; any divergence is reported like an implementation mismatch.
fn conversion_roundtrip_error(m: &Csr) -> Option<String> {
    let canon = CanonMatrix::from_csr(m);
    let via_csc = m.to_csc().to_csr();
    if CanonMatrix::from_csr(&via_csc) != canon {
        return Some("CR -> CC -> CR round trip diverged".into());
    }
    let mut coo = outerspace_sparse::Coo::new(m.nrows(), m.ncols());
    for (r, c, v) in m.iter() {
        coo.push(r, c, v);
    }
    if CanonMatrix::from_coo(&coo) != canon {
        return Some("CR -> COO round trip diverged".into());
    }
    if CanonMatrix::from_dense(&m.to_dense()) != canon {
        return Some("CR -> dense round trip diverged".into());
    }
    None
}

/// Runs one SpGEMM case against every registered implementation; on a
/// mismatch, shrinks and persists a repro. Returns the report row.
fn run_spgemm_case(
    registry: &[SpgemmImpl],
    name: &str,
    case: crate::cases::SpgemmCase,
    cfg: &OracleConfig,
    scale: u32,
) -> CaseRow {
    let mut row = CaseRow {
        kind: "spgemm".into(),
        family: case.family.into(),
        case_seed: case.seed,
        impls: registry.len() as u64,
        mismatches: 0,
        expect_reject: case.expect_reject,
        a_nnz: case.a.nnz() as u64,
        b_nnz: case.b.nnz() as u64,
        freivalds_checks: 0,
        freivalds_rejects: 0,
        repros: Vec::new(),
    };
    let mut failures: Vec<(String, String)> = Vec::new();
    // The operands also exercise the conversion cycle every kernel relies on.
    for (label, m) in [("A", &case.a), ("B", &case.b)] {
        if let Some(e) = conversion_roundtrip_error(m) {
            failures.push(("convert".into(), format!("operand {label}: {e}")));
        }
    }
    let reference = spgemm_reference(&case.a, &case.b).map(|c| CanonMatrix::from_csr(&c));
    if case.expect_reject && reference.is_ok() {
        failures.push(("reference".into(), "reference accepted malformed operands".into()));
    }
    // The Freivalds probe rides along as a cheap secondary checker: it must
    // agree with the canonical compare on every successful result.
    let vcfg = outerspace_verify::VerifyConfig { seed: case.seed, ..Default::default() };
    for imp in registry {
        let raw = (imp.run)(&case.a, &case.b);
        let probe_reject = match &raw {
            Ok(c) => {
                row.freivalds_checks += 1;
                outerspace_verify::freivalds_spgemm(&case.a, &case.b, c, &vcfg).err()
            }
            Err(_) => None,
        };
        if probe_reject.is_some() {
            row.freivalds_rejects += 1;
        }
        let candidate = raw.map(|c| CanonMatrix::from_csr(&c));
        if let Err(e) = diff_results(imp.name, reference.clone(), candidate, &cfg.tol) {
            let run = imp.run;
            let tol = cfg.tol;
            let still_fails = move |sa: &Csr, sb: &Csr| {
                diff_results(
                    imp.name,
                    spgemm_reference(sa, sb).map(|c| CanonMatrix::from_csr(&c)),
                    run(sa, sb).map(|c| CanonMatrix::from_csr(&c)),
                    &tol,
                )
                .is_err()
            };
            let (sa, sb, stats) =
                shrink_pair(&case.a, &case.b, false, DEFAULT_MAX_EVALS, &still_fails);
            let shrunk_error = diff_results(
                imp.name,
                spgemm_reference(&sa, &sb).map(|c| CanonMatrix::from_csr(&c)),
                run(&sa, &sb).map(|c| CanonMatrix::from_csr(&c)),
                &cfg.tol,
            )
            .err()
            .unwrap_or(e);
            record_repro(
                &mut row,
                &mut failures,
                Repro {
                    kind: ReproKind::Spgemm,
                    impl_name: imp.name.into(),
                    case: name.into(),
                    seed: case.seed,
                    scale,
                    error: shrunk_error,
                    shrink: stats,
                    a: sa,
                    b: sb,
                },
                cfg,
            );
        } else if let Some(p) = probe_reject {
            // The canonical compare accepted what the probe rejected — a
            // checker inconsistency that must fail the run loudly.
            failures.push((
                imp.name.to_string(),
                format!("freivalds probe rejected a canon-equal result: {p}"),
            ));
            row.mismatches += 1;
        }
    }
    report_failures(&mut row, name, failures);
    row
}

/// Runs one SpMV case against every registered vector path.
fn run_spmv_case(
    name: &str,
    case: crate::cases::SpmvCase,
    cfg: &OracleConfig,
    scale: u32,
) -> CaseRow {
    let mut row = CaseRow {
        kind: "spmv".into(),
        family: case.family.into(),
        case_seed: case.seed,
        impls: impls::spmv_impls().len() as u64,
        mismatches: 0,
        expect_reject: case.expect_reject,
        a_nnz: case.a.nnz() as u64,
        b_nnz: case.x.nnz() as u64,
        freivalds_checks: 0,
        freivalds_rejects: 0,
        repros: Vec::new(),
    };
    let mut failures: Vec<(String, String)> = Vec::new();
    let reference = spmv_reference(&case.a, &case.x).map(|y| CanonMatrix::from_sparse_vector(&y));
    if case.expect_reject && reference.is_ok() {
        failures.push(("reference".into(), "reference accepted malformed operands".into()));
    }
    // Encode x as an n × 1 matrix so the shared shrinker/repro format apply.
    let mut xcol = outerspace_sparse::Coo::new(case.x.len, 1);
    for (&i, &v) in case.x.indices.iter().zip(&case.x.values) {
        xcol.push(i, 0, v);
    }
    let xcol = xcol.to_csr();
    let vcfg = outerspace_verify::VerifyConfig { seed: case.seed, ..Default::default() };
    for imp in impls::spmv_impls() {
        let raw = (imp.run)(&case.a, &case.x);
        let probe_reject = match &raw {
            Ok(y) => {
                row.freivalds_checks += 1;
                outerspace_verify::spmv_residual(&case.a, &case.x, y, &vcfg).err()
            }
            Err(_) => None,
        };
        if probe_reject.is_some() {
            row.freivalds_rejects += 1;
        }
        let candidate = raw.map(|y| CanonMatrix::from_sparse_vector(&y));
        if let Err(e) = diff_results(imp.name, reference.clone(), candidate, &cfg.tol) {
            let run = imp.run;
            let tol = cfg.tol;
            let diff_on = move |sa: &Csr, sx: &Csr| -> Result<(), String> {
                let x: SparseVector = vector_from_column(sx)?;
                diff_results(
                    imp.name,
                    spmv_reference(sa, &x).map(|y| CanonMatrix::from_sparse_vector(&y)),
                    run(sa, &x).map(|y| CanonMatrix::from_sparse_vector(&y)),
                    &tol,
                )
            };
            let still_fails = move |sa: &Csr, sx: &Csr| diff_on(sa, sx).is_err();
            let (sa, sx, stats) =
                shrink_pair(&case.a, &xcol, true, DEFAULT_MAX_EVALS, &still_fails);
            let shrunk_error = diff_on(&sa, &sx).err().unwrap_or(e);
            record_repro(
                &mut row,
                &mut failures,
                Repro {
                    kind: ReproKind::Spmv,
                    impl_name: imp.name.into(),
                    case: name.into(),
                    seed: case.seed,
                    scale,
                    error: shrunk_error,
                    shrink: stats,
                    a: sa,
                    b: sx,
                },
                cfg,
            );
        } else if let Some(p) = probe_reject {
            failures.push((
                imp.name.to_string(),
                format!("residual probe rejected a canon-equal result: {p}"),
            ));
            row.mismatches += 1;
        }
    }
    report_failures(&mut row, name, failures);
    row
}

/// Persists a repro for a confirmed mismatch and accounts for it in the row.
fn record_repro(
    row: &mut CaseRow,
    failures: &mut Vec<(String, String)>,
    repro: Repro,
    cfg: &OracleConfig,
) {
    let impl_name = repro.impl_name.clone();
    let detail = format!(
        "{} (shrunk to {}x{} * {}x{}, {} + {} nnz in {} evals)",
        repro.error,
        repro.a.nrows(),
        repro.a.ncols(),
        repro.b.nrows(),
        repro.b.ncols(),
        repro.a.nnz(),
        repro.b.nnz(),
        repro.shrink.evals,
    );
    match repro.write(&cfg.repro_dir) {
        Ok(dir) => row.repros.push(dir.display().to_string()),
        Err(e) => failures.push((impl_name.clone(), format!("repro write failed: {e}"))),
    }
    failures.push((impl_name, detail));
    row.mismatches += 1;
}

/// Prints this case's failures to stderr (the JSON row carries them too).
fn report_failures(row: &mut CaseRow, name: &str, failures: Vec<(String, String)>) {
    for (who, what) in &failures {
        eprintln!("MISMATCH {name} [{who}]: {what}");
    }
    // Conversion/reference failures are not per-impl mismatches but must
    // still fail the run.
    let extra = failures
        .iter()
        .filter(|(who, _)| who == "convert" || who == "reference")
        .count() as u64;
    row.mismatches += extra;
}

/// Executes the full oracle sweep. Returns the run summary and the total
/// mismatch count (0 means every implementation agreed everywhere).
pub fn run(opts: &HarnessOpts, cfg: &OracleConfig) -> (RunSummary, u64) {
    let registry = match impls::filter_impls(impls::spgemm_impls(), cfg.impl_subset.as_deref()) {
        Ok(mut r) => {
            if cfg.inject_fault {
                r.push(impls::injected_fault_impl());
            }
            r
        }
        Err(e) => {
            // Unknown names were already rejected by the bin's flag parsing;
            // reaching this is a programming error worth failing loudly.
            panic!("impl subset: {e}");
        }
    };
    let mut runner = Runner::new("oracle", opts);
    eprintln!(
        "# oracle: {} seed(s), scale {}, {} spgemm impl(s), {} spmv impl(s)",
        cfg.seeds,
        opts.scale,
        registry.len(),
        impls::spmv_impls().len()
    );
    for i in 0..cfg.seeds {
        let gcase = spgemm_case(opts.seed, i, opts.scale);
        let gname = format!("spgemm:{}", gcase.name);
        let (reg, c, scale) = (registry.clone(), cfg.clone(), opts.scale);
        runner.run_case(&gname, {
            let gname = gname.clone();
            move || -> Result<CaseRow, String> {
                Ok(run_spgemm_case(&reg, &gname, gcase, &c, scale))
            }
        });
        let vcase = spmv_case(opts.seed, i, opts.scale);
        let vname = format!("spmv:{}", vcase.name);
        let (c, scale) = (cfg.clone(), opts.scale);
        runner.run_case(&vname, {
            let vname = vname.clone();
            move || -> Result<CaseRow, String> { Ok(run_spmv_case(&vname, vcase, &c, scale)) }
        });
    }
    let mismatches: u64 = runner
        .records()
        .iter()
        .filter_map(|r| r.value.as_ref())
        .filter_map(|v| v.get("mismatches").and_then(Json::as_u64))
        .sum();
    let summary = runner.finalize();
    (summary, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(out: &std::path::Path, seeds_tag: &str) -> HarnessOpts {
        let _ = seeds_tag;
        HarnessOpts {
            scale: 96, // 8-dim workloads: fast enough for unit tests
            seed: 42,
            out_dir: out.to_path_buf(),
            full: false,
            resume: false,
            max_case_secs: 0.0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("oracle_driver_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_run_finds_no_mismatches() {
        let dir = temp_dir("clean");
        let cfg = OracleConfig {
            seeds: crate::cases::SPGEMM_FAMILIES, // one full family rotation
            repro_dir: dir.join("repros"),
            ..Default::default()
        };
        let (summary, mismatches) = run(&opts(&dir, "clean"), &cfg);
        assert_eq!(mismatches, 0, "all implementations must agree");
        assert_eq!(summary.failures(), 0);
        assert_eq!(summary.ok as u64, 2 * cfg.seeds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fault_is_detected_shrunk_and_replayable() {
        let dir = temp_dir("fault");
        let cfg = OracleConfig {
            seeds: 1, // family 0: uniform_square — non-empty product
            inject_fault: true,
            impl_subset: Some("outer_streaming".into()), // keep the run tiny
            repro_dir: dir.join("repros"),
            ..Default::default()
        };
        let (_, mismatches) = run(&opts(&dir, "fault"), &cfg);
        assert!(mismatches > 0, "the broken impl must be flagged");
        // Exactly one repro directory, shrunk to the acceptance bound.
        let repros: Vec<_> = std::fs::read_dir(dir.join("repros")).unwrap().collect();
        assert_eq!(repros.len(), 1);
        let rdir = repros[0].as_ref().unwrap().path();
        let repro = Repro::load(&rdir).unwrap();
        assert!(repro.a.nrows() <= 8 && repro.a.ncols() <= 8, "{:?}", repro.a);
        assert!(repro.b.nrows() <= 8 && repro.b.ncols() <= 8, "{:?}", repro.b);
        // Deterministic replay: the mismatch reproduces from disk alone.
        let err = repro.replay(&Tolerance::default()).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
