//! Fig. 4: GPU outer-product implementation vs CUSP.
//!
//! "Comparison of a GPU outer product implementation against CUSP. The
//! matrices are uniform random with increasing size while density is
//! decreased, keeping the number of non-zeros constant at 1 million."
//!
//! Paper findings: the outer-product multiply phase streams fast and scales
//! roughly linearly with falling density, but total latency is dominated by
//! the merge phase, whose data-dependent branches diverge within warps —
//! so the GPU cannot convert the algorithm's reduced traffic into a win.
//!
//! Reproduction: the K40 SIMT model applied to the measured operation counts
//! of our software outer product (per phase) and the ESC/CUSP analog.

use outerspace::outer::MergeKind;
use outerspace::sim::xmodels::GpuModel;

use crate::runner::{field_f64, CaseResult, Runner, RunSummary};
use crate::{fmt_secs, HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "fig04";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 8, max_case_secs: 300.0 };

struct Row {
    n: u32,
    density: f64,
    gpu_outer_multiply_s: f64,
    gpu_outer_merge_s: f64,
    gpu_outer_total_s: f64,
    cusp_expand_s: f64,
    cusp_merge_s: f64,
    cusp_total_s: f64,
}

outerspace_json::impl_to_json!(Row { n, density, gpu_outer_multiply_s, gpu_outer_merge_s, gpu_outer_total_s, cusp_expand_s, cusp_merge_s, cusp_total_s });

/// Runs the Fig. 4 sweep through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    let nnz = 1_000_000 / opts.scale as usize;
    let dims: Vec<u32> =
        [32_768u32, 65_536, 131_072, 262_144, 524_288].iter().map(|d| d / opts.scale).collect();

    println!("# Fig. 4 reproduction: GPU outer product vs CUSP (K40 model)");
    println!("# nnz = {nnz} (scale {}x)", opts.scale);
    println!(
        "{:>9} {:>10} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "N", "density", "out-mult", "out-merge", "out-total", "cusp-exp", "cusp-mrg", "cusp-tot"
    );

    for n in dims {
        let seed = opts.seed;
        runner.run_case(&format!("n{n}"), move || -> CaseResult<Row> {
            let k40 = GpuModel::tesla_k40();
            let a = outerspace::gen::uniform::matrix(n, n, nnz, seed);
            let b = outerspace::gen::uniform::matrix(n, n, nnz, seed + 1);

            // Operation counts from the software outer product.
            let (_, rep) =
                outerspace::outer::spgemm_with_stats(&a, &b, MergeKind::Streaming).expect("shapes");
            let fanin = rep.multiply.chunks as f64 / a.nrows().max(1) as f64;
            let outer = k40.outer_product_time(
                rep.multiply.bytes_read,
                rep.multiply.elementary_products,
                rep.multiply.elementary_products,
                fanin,
            );

            // CUSP from the ESC analog's counters.
            let (_, esc) = outerspace::baselines::esc::spgemm(&a, &b).expect("shapes");
            let cusp = k40.cusp_time(&esc, a.nrows() as u64);

            let row = Row {
                n,
                density: a.density(),
                gpu_outer_multiply_s: outer.expand,
                gpu_outer_merge_s: outer.merge,
                gpu_outer_total_s: outer.total(),
                cusp_expand_s: cusp.expand,
                cusp_merge_s: cusp.merge,
                cusp_total_s: cusp.total(),
            };
            println!(
                "{:>9} {:>10.2e} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
                row.n,
                row.density,
                fmt_secs(row.gpu_outer_multiply_s),
                fmt_secs(row.gpu_outer_merge_s),
                fmt_secs(row.gpu_outer_total_s),
                fmt_secs(row.cusp_expand_s),
                fmt_secs(row.cusp_merge_s),
                fmt_secs(row.cusp_total_s),
            );
            Ok(row)
        });
    }

    let ok: Vec<_> = runner.ok_values().collect();
    let merge_dominated = ok
        .iter()
        .filter(|r| {
            field_f64(r, "gpu_outer_merge_s").unwrap_or(0.0)
                > field_f64(r, "gpu_outer_multiply_s").unwrap_or(0.0)
        })
        .count();
    println!(
        "# shape: outer-product merge phase dominates in {merge_dominated}/{} points \
         (the SIMD-divergence wall of Section 4.4.2)",
        ok.len()
    );
    runner.finalize()
}
