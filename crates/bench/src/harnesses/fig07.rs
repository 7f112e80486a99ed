//! Fig. 7 + Table 4 + §7.1.2: speedups over MKL, cuSPARSE and CUSP on the
//! real-world matrix suite (synthetic stand-ins; see DESIGN.md §3), with
//! the throughput and bandwidth-utilization summary the section reports.
//!
//! Paper results: mean speedups 7.9× (MKL), 13.0× (cuSPARSE), 14.0× (CUSP);
//! average throughput 2.9 GFLOPS; multiply-phase bandwidth utilization
//! 59.5–68.9 %, merge-phase 46.5–64.8 %. Regular matrices (filter3D,
//! roadNet-CA) and m133-b3 show the smallest speedups.
//!
//! Every run opens with the Table 4 suite inventory.

use outerspace::gen::suite::TABLE4;

use crate::runner::{field_f64, CaseResult, Runner, RunSummary};
use crate::{fmt_secs, geomean, run_baselines, run_outerspace, HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "fig07";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 900.0 };

struct Row {
    name: &'static str,
    scale: u32,
    dim: u32,
    nnz: usize,
    gflops: f64,
    mult_bw_pct: f64,
    merge_bw_pct: f64,
    outerspace_s: f64,
    speedup_mkl: f64,
    speedup_cusparse: f64,
    speedup_cusp: f64,
}

outerspace_json::impl_to_json!(Row { name, scale, dim, nnz, gflops, mult_bw_pct, merge_bw_pct, outerspace_s, speedup_mkl, speedup_cusparse, speedup_cusp });

/// Prints the Table 4 suite inventory.
fn print_table4() {
    println!("{:<16} {:>9} {:>10} {:>7}  kind", "matrix", "dim", "nnz", "nnz/row");
    for e in TABLE4 {
        println!(
            "{:<16} {:>9} {:>10} {:>7.1}  {}",
            e.name,
            e.dim,
            e.nnz,
            e.nnz_per_row(),
            e.kind
        );
    }
}

/// Runs the Fig. 7 suite sweep through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    println!("# Table 4: the matrix suite");
    print_table4();
    println!("# Fig. 7 reproduction: speedups on the Table 4 suite (synthetic stand-ins)");
    println!(
        "{:<16} {:>5} {:>8} {:>9} | {:>7} {:>6} {:>6} | {:>10} | {:>6} {:>6} {:>6}",
        "matrix", "scale", "dim", "nnz", "GFLOPS", "mult%", "mrg%", "OuterSPACE", "xMKL",
        "xCUSPARSE", "xCUSP"
    );

    for e in TABLE4 {
        let case_opts = opts.clone();
        runner.run_case(e.name, move || -> CaseResult<Row> {
            // A flops-estimation failure is a structured skip, not an abort.
            let scale = super::suite_scale(e, &case_opts)?;
            let a = e.generate_scaled(scale, case_opts.seed);
            let rep = run_outerspace(&a);
            let base = run_baselines(&a);
            let ours = rep.seconds();
            let row = Row {
                name: e.name,
                scale,
                dim: a.nrows(),
                nnz: a.nnz(),
                gflops: rep.gflops(),
                mult_bw_pct: rep.multiply.bandwidth_utilization(&rep.config) * 100.0,
                merge_bw_pct: rep.merge.bandwidth_utilization(&rep.config) * 100.0,
                outerspace_s: ours,
                speedup_mkl: base.mkl_model_s / ours,
                speedup_cusparse: base.cusparse_model_s / ours,
                speedup_cusp: base.cusp_model_s / ours,
            };
            println!(
                "{:<16} {:>5} {:>8} {:>9} | {:>7.2} {:>6.1} {:>6.1} | {:>10} | {:>6.1} {:>6.1} {:>6.1}",
                row.name,
                row.scale,
                row.dim,
                row.nnz,
                row.gflops,
                row.mult_bw_pct,
                row.merge_bw_pct,
                fmt_secs(row.outerspace_s),
                row.speedup_mkl,
                row.speedup_cusparse,
                row.speedup_cusp,
            );
            Ok(row)
        });
    }

    let vals = |key: &str| -> Vec<f64> {
        runner.ok_values().filter_map(|r| field_f64(r, key)).collect()
    };
    let mkl = vals("speedup_mkl");
    let cus = vals("speedup_cusparse");
    let cusp = vals("speedup_cusp");
    let gflops = vals("gflops");
    let mult_bw = vals("mult_bw_pct");
    let merge_bw = vals("merge_bw_pct");
    let min_max =
        |v: &[f64]| (v.iter().cloned().fold(f64::MAX, f64::min), v.iter().cloned().fold(0.0, f64::max));
    if !gflops.is_empty() {
        println!("#");
        println!(
            "# geomean speedups: MKL {:.1}x (paper 7.9x), cuSPARSE {:.1}x (paper 13.0x), CUSP {:.1}x (paper 14.0x)",
            geomean(&mkl),
            geomean(&cus),
            geomean(&cusp)
        );
        println!(
            "# mean throughput: {:.2} GFLOPS (paper 2.9); mult BW {:.1}-{:.1}% (paper 59.5-68.9), merge BW {:.1}-{:.1}% (paper 46.5-64.8)",
            gflops.iter().sum::<f64>() / gflops.len() as f64,
            min_max(&mult_bw).0,
            min_max(&mult_bw).1,
            min_max(&merge_bw).0,
            min_max(&merge_bw).1,
        );
    }
    runner.finalize()
}
