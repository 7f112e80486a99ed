//! Fig. 3: CPU outer-product implementation vs Intel MKL.
//!
//! "Comparison of our outer product implementation against Intel MKL on a
//! Xeon multi-core CPU. The matrices are uniformly random with increasing
//! dimension and decreasing density, keeping the number of non-zeros
//! constant at 1 million." (6 threads; conversion/allocation excluded.)
//!
//! Reproduction: our multi-threaded software outer product vs the
//! Gustavson MKL-analog, both host-measured, plus the calibrated Xeon model
//! for reference. Expected shape: MKL's time *drops* with falling density
//! while the outer product pays growing bookkeeping — the paper's argument
//! for why the algorithm needs custom hardware.

use std::time::Instant;

use outerspace::outer::MergeKind;
use outerspace::sim::xmodels::CpuModel;

use crate::runner::{field_f64, CaseResult, Runner, RunSummary};
use crate::{fmt_secs, HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "fig03";
/// Per-binary defaults.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 8, max_case_secs: 600.0 };

struct Row {
    n: u32,
    density: f64,
    outer_multiply_s: f64,
    outer_merge_s: f64,
    outer_total_s: f64,
    mkl_host_s: f64,
    mkl_model_s: f64,
}

outerspace_json::impl_to_json!(Row { n, density, outer_multiply_s, outer_merge_s, outer_total_s, mkl_host_s, mkl_model_s });

/// Runs the Fig. 3 sweep through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    let nnz = 1_000_000 / opts.scale as usize;
    let dims: Vec<u32> =
        [32_768u32, 65_536, 131_072, 262_144, 524_288].iter().map(|d| d / opts.scale).collect();
    println!("# Fig. 3 reproduction: outer product vs MKL-analog on this host");
    println!("# nnz = {nnz} (scale {}x), 6 threads", opts.scale);
    println!(
        "{:>9} {:>10} | {:>10} {:>10} {:>10} | {:>10} {:>10}",
        "N", "density", "out-mult", "out-merge", "out-total", "mkl-host", "mkl-model"
    );

    for n in dims {
        let seed = opts.seed;
        runner.run_case(&format!("n{n}"), move || -> CaseResult<Row> {
            let a = outerspace::gen::uniform::matrix(n, n, nnz, seed);
            let b = outerspace::gen::uniform::matrix(n, n, nnz, seed + 1);

            // Outer product, phases timed separately (format conversion
            // excluded, matching the figure's caption).
            let a_cc = a.to_csc();
            let t0 = Instant::now();
            let (ap, _) = outerspace::outer::multiply_parallel(&a_cc, &b, 6).expect("shapes ok");
            let t_mult = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let _ = outerspace::outer::merge_parallel(&ap, MergeKind::Streaming, 6);
            let t_merge = t1.elapsed().as_secs_f64();

            // MKL analog on the host.
            let t2 = Instant::now();
            let (_, gus) =
                outerspace::baselines::gustavson::spgemm_parallel(&a, &b, 6).expect("shapes ok");
            let mkl_host = t2.elapsed().as_secs_f64();
            let mkl_model = CpuModel::xeon_e5_1650_v4().spgemm_seconds(
                &gus,
                12 * b.nnz() as u64,
                b.ncols() as u64,
                a.nrows() as u64,
                0.0,
            );

            let row = Row {
                n,
                density: a.density(),
                outer_multiply_s: t_mult,
                outer_merge_s: t_merge,
                outer_total_s: t_mult + t_merge,
                mkl_host_s: mkl_host,
                mkl_model_s: mkl_model,
            };
            println!(
                "{:>9} {:>10.2e} | {:>10} {:>10} {:>10} | {:>10} {:>10}",
                row.n,
                row.density,
                fmt_secs(row.outer_multiply_s),
                fmt_secs(row.outer_merge_s),
                fmt_secs(row.outer_total_s),
                fmt_secs(row.mkl_host_s),
                fmt_secs(row.mkl_model_s),
            );
            Ok(row)
        });
    }

    // Shape check the paper's Fig. 3 exhibits: MKL accelerates as density
    // falls; the outer product's total changes far less.
    let ok: Vec<_> = runner.ok_values().collect();
    if let (Some(first), Some(last)) = (ok.first(), ok.last()) {
        if ok.len() >= 2 {
            let ratio = field_f64(first, "mkl_host_s").unwrap_or(f64::NAN)
                / field_f64(last, "mkl_host_s").unwrap_or(f64::NAN);
            let change = field_f64(first, "outer_total_s").unwrap_or(f64::NAN)
                / field_f64(last, "outer_total_s").unwrap_or(f64::NAN);
            println!(
                "# shape: MKL-analog {}x faster at lowest density; outer product {change:.1}x change",
                ratio.round(),
            );
        }
    }
    runner.finalize()
}
