//! Fig. 6: performance scaling on R-MAT vs uniformly random matrices.
//!
//! "Performance-scaling comparison of OuterSPACE with change in matrix
//! dimension and density. The set of data on the left is for R-MATs with
//! parameters (A=0.57, B=C=0.19) for undirected graphs. The set on the
//! right is for uniformly random matrices of the same size and density."
//! `nEdges = 100 000`, `nVertices` swept 5 000 → 80 000.
//!
//! Expected shape: OuterSPACE roughly flat across the sweep; larger margins
//! over the baselines on R-MAT than on uniform; cuSPARSE improving as
//! density rises (small `nVertices`).

use crate::runner::{field_f64, CaseResult, Runner, RunSummary};
use crate::{fmt_secs, geomean, run_baselines, run_outerspace, HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "fig06";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 4, max_case_secs: 300.0 };

struct Row {
    family: &'static str,
    n_vertices: u32,
    nnz: usize,
    outerspace_s: f64,
    mkl_model_s: f64,
    cusparse_model_s: f64,
    cusp_model_s: f64,
    speedup_mkl: f64,
    speedup_cusparse: f64,
    speedup_cusp: f64,
}

outerspace_json::impl_to_json!(Row { family, n_vertices, nnz, outerspace_s, mkl_model_s, cusparse_model_s, cusp_model_s, speedup_mkl, speedup_cusparse, speedup_cusp });

/// Runs the Fig. 6 sweep through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    let n_edges = 100_000 / opts.scale as usize;
    let vertex_counts: Vec<u32> =
        [5_000u32, 10_000, 20_000, 40_000, 80_000].iter().map(|v| v / opts.scale).collect();

    println!("# Fig. 6 reproduction: R-MAT vs uniform scaling");
    println!("# nEdges = {n_edges} (scale {}x)", opts.scale);
    println!(
        "{:>8} {:>9} {:>9} | {:>10} {:>10} {:>10} {:>10} | {:>6} {:>6} {:>6}",
        "family", "nVert", "nnz", "OuterSPACE", "MKL", "cuSPARSE", "CUSP", "xMKL", "xCUSP.", "xCUSP"
    );

    for family in ["rmat", "uniform"] {
        for &nv in &vertex_counts {
            let seed = opts.seed;
            runner.run_case(&format!("{family}-n{nv}"), move || -> CaseResult<Row> {
                let a = if family == "rmat" {
                    outerspace::gen::rmat::graph500(nv, n_edges, seed)
                } else {
                    let target = outerspace::gen::rmat::graph500(nv, n_edges, seed).nnz();
                    outerspace::gen::uniform::matrix(nv, nv, target, seed)
                };
                let rep = run_outerspace(&a);
                let base = run_baselines(&a);
                let ours = rep.seconds();
                let row = Row {
                    family,
                    n_vertices: nv,
                    nnz: a.nnz(),
                    outerspace_s: ours,
                    mkl_model_s: base.mkl_model_s,
                    cusparse_model_s: base.cusparse_model_s,
                    cusp_model_s: base.cusp_model_s,
                    speedup_mkl: base.mkl_model_s / ours,
                    speedup_cusparse: base.cusparse_model_s / ours,
                    speedup_cusp: base.cusp_model_s / ours,
                };
                println!(
                    "{:>8} {:>9} {:>9} | {:>10} {:>10} {:>10} {:>10} | {:>6.1} {:>6.1} {:>6.1}",
                    row.family,
                    row.n_vertices,
                    row.nnz,
                    fmt_secs(row.outerspace_s),
                    fmt_secs(row.mkl_model_s),
                    fmt_secs(row.cusparse_model_s),
                    fmt_secs(row.cusp_model_s),
                    row.speedup_mkl,
                    row.speedup_cusparse,
                    row.speedup_cusp,
                );
                Ok(row)
            });
        }
    }

    let mean = |f: &str, key: &str| {
        let v: Vec<f64> = runner
            .ok_values()
            .filter(|r| r.get("family").and_then(outerspace_json::Json::as_str) == Some(f))
            .filter_map(|r| field_f64(r, key))
            .collect();
        geomean(&v)
    };
    println!(
        "# shape: geomean speedups  rmat: MKL {:.1}x cuSPARSE {:.1}x CUSP {:.1}x | uniform: MKL {:.1}x cuSPARSE {:.1}x CUSP {:.1}x",
        mean("rmat", "speedup_mkl"),
        mean("rmat", "speedup_cusparse"),
        mean("rmat", "speedup_cusp"),
        mean("uniform", "speedup_mkl"),
        mean("uniform", "speedup_cusparse"),
        mean("uniform", "speedup_cusp"),
    );
    runner.finalize()
}
