//! Table 1: bandwidth utilization of MKL sparse GEMM.
//!
//! "Bandwidth utilization of the MKL sparse GEMM on an Intel Core i7
//! running 4 threads. Each matrix has a uniform random distribution of 10
//! million non-zeros." Paper values: dimensions 1 M → 8.4 M, average
//! utilization 44.2 % → 62.4 % (peak 62.5 → 85 %); the point being that MKL
//! *under-utilizes* bandwidth, so more bandwidth alone would not fix it.
//!
//! Reproduction: the Gustavson MKL-analog's touched bytes over its wall
//! time, against this host's measured STREAM-triad bandwidth. VTune's
//! sampled peak is approximated by the busiest quartile of per-row-block
//! timings.

use std::time::Instant;

use crate::runner::{CaseResult, Runner, RunSummary};
use crate::{HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "table1";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 16, max_case_secs: 600.0 };

struct Row {
    dimension: u32,
    avg_utilization_pct: f64,
    peak_utilization_pct: f64,
    model_utilization_pct: f64,
    paper_avg_pct: f64,
    paper_peak_pct: f64,
}

outerspace_json::impl_to_json!(Row { dimension, avg_utilization_pct, peak_utilization_pct, model_utilization_pct, paper_avg_pct, paper_peak_pct });

/// Runs the Table 1 study through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    let nnz = 10_000_000 / opts.scale as usize;
    let dims: Vec<u32> = [1_048_576u32, 2_097_152, 4_194_304, 8_388_608]
        .iter()
        .map(|d| d / opts.scale)
        .collect();
    let paper = [(44.2, 62.5), (58.4, 67.5), (62.0, 67.5), (62.4, 85.0)];

    let peak_bw = crate::host_peak_bandwidth_bytes_per_s();
    println!("# Table 1 reproduction: MKL-analog bandwidth utilization, 4 threads");
    println!(
        "# nnz = {nnz} (scale {}x); host triad bandwidth = {:.1} GB/s",
        opts.scale,
        peak_bw / 1e9
    );
    println!(
        "{:>10} | {:>8} {:>8} {:>8} | paper: {:>6} {:>6}",
        "dim", "avg%", "peak%", "model%", "avg%", "peak%"
    );

    for (i, n) in dims.iter().copied().enumerate() {
        let seed = opts.seed;
        let (paper_avg, paper_peak) = paper[i];
        runner.run_case(&format!("n{n}"), move || -> CaseResult<Row> {
            let a = outerspace::gen::uniform::matrix(n, n, nnz, seed);
            let b = outerspace::gen::uniform::matrix(n, n, nnz, seed + 1);
            // Split the multiplication into row blocks so we can sample
            // utilization over time (VTune-style peak vs average).
            let n_blocks = 16u32;
            let mut total_bytes = 0u64;
            let mut total_time = 0.0f64;
            let mut window_rates: Vec<f64> = Vec::new();
            let mut model_traffic = outerspace::baselines::TrafficStats::default();
            let rows_per_block = n / n_blocks;
            for blk in 0..n_blocks {
                let lo = blk * rows_per_block;
                let hi = if blk == n_blocks - 1 { n } else { (blk + 1) * rows_per_block };
                let sub = take_rows(&a, lo, hi);
                let t = Instant::now();
                let (_, stats) =
                    outerspace::baselines::gustavson::spgemm_parallel(&sub, &b, 4)
                        .expect("shapes ok");
                let dt = t.elapsed().as_secs_f64();
                total_bytes += stats.bytes_touched;
                total_time += dt;
                model_traffic.bytes_touched += stats.bytes_touched;
                model_traffic.multiplies += stats.multiplies;
                model_traffic.additions += stats.additions;
                if dt > 0.0 {
                    window_rates.push(stats.bytes_touched as f64 / dt);
                }
            }
            window_rates.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            let avg = (total_bytes as f64 / total_time) / peak_bw * 100.0;
            let peak = window_rates.last().copied().unwrap_or(0.0) / peak_bw * 100.0;
            // What the Xeon model (Table 3's machine) predicts for this load.
            let model = outerspace::sim::xmodels::CpuModel::xeon_e5_1650_v4()
                .spgemm_bandwidth_utilization(
                    &model_traffic,
                    12 * b.nnz() as u64,
                    b.ncols() as u64,
                    n as u64,
                    0.0,
                )
                * 100.0;
            let row = Row {
                dimension: n,
                avg_utilization_pct: avg,
                peak_utilization_pct: peak.min(100.0),
                model_utilization_pct: model,
                paper_avg_pct: paper_avg,
                paper_peak_pct: paper_peak,
            };
            println!(
                "{:>10} | {:>7.1} {:>7.1} {:>7.1} |        {:>6.1} {:>6.1}",
                row.dimension,
                row.avg_utilization_pct,
                row.peak_utilization_pct,
                row.model_utilization_pct,
                row.paper_avg_pct,
                row.paper_peak_pct
            );
            Ok(row)
        });
    }
    println!("# shape: utilization well below 100% -> bandwidth is not MKL's binding constraint");
    runner.finalize()
}

/// Extracts rows `[lo, hi)` of `a` as a standalone matrix.
fn take_rows(a: &outerspace::sparse::Csr, lo: u32, hi: u32) -> outerspace::sparse::Csr {
    let ptr = a.row_ptr();
    let base = ptr[lo as usize];
    let row_ptr: Vec<usize> = ptr[lo as usize..=hi as usize].iter().map(|p| p - base).collect();
    let cols = a.col_indices()[base..ptr[hi as usize]].to_vec();
    let vals = a.values()[base..ptr[hi as usize]].to_vec();
    outerspace::sparse::Csr::new(hi - lo, a.ncols(), row_ptr, cols, vals)
        .expect("slice of a valid matrix is valid")
}
