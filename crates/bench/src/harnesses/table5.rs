//! Table 5: sparse matrix-vector multiplication speedups.
//!
//! "Speedups of OuterSPACE over CPU (MKL) and GPU (cuSPARSE) for sparse
//! matrix-vector multiplication. The density of the vector (r) is varied
//! from 0.01 to 1.0. The sparse matrices contain uniformly random
//! distribution of one million non-zeros."
//!
//! Paper values: vs CPU 93.2→196.3× at r=0.01 falling to 0.8→1.7× at r=1.0;
//! vs GPU 92.5→154.4× falling to 2.2→3.8×. The headline shape: a 10×
//! reduction in vector density buys ≈10× speedup, and even dense vectors
//! stay within ~80 % of MKL.

use outerspace::prelude::*;
use outerspace::sim::xmodels::{CpuModel, GpuModel};

use crate::runner::{CaseResult, Runner, RunSummary};
use crate::{HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "table5";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 4, max_case_secs: 300.0 };

struct Row {
    dim: u32,
    speedup_cpu: [f64; 3],
    speedup_gpu: [f64; 3],
}

outerspace_json::impl_to_json!(Row { dim, speedup_cpu, speedup_gpu });

/// Runs the Table 5 SpMV study through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    let nnz = 1_000_000 / opts.scale as usize;
    let dims: Vec<u32> =
        [65_536u32, 131_072, 262_144, 524_287].iter().map(|d| d / opts.scale).collect();

    println!("# Table 5 reproduction: SpMV speedups, nnz = {nnz} (scale {}x)", opts.scale);
    println!(
        "{:>9} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "dim", "cpu r=.01", "r=.1", "r=1", "gpu r=.01", "r=.1", "r=1"
    );

    for n in dims {
        let seed = opts.seed;
        runner.run_case(&format!("n{n}"), move || -> CaseResult<Row> {
            let densities = [0.01f64, 0.1, 1.0];
            let sim = Simulator::new(OuterSpaceConfig::default()).expect("default config");
            let cpu = CpuModel::xeon_e5_1650_v4();
            let k40 = GpuModel::tesla_k40();
            let a = outerspace::gen::uniform::matrix(n, n, nnz, seed);
            let a_cc = a.to_csc();
            let matrix_bytes = 12 * a.nnz() as u64;
            let mut cpu_s = [0.0f64; 3];
            let mut gpu_s = [0.0f64; 3];
            for (i, &r) in densities.iter().enumerate() {
                let x = outerspace::gen::vector::sparse(n, r, seed + i as u64);
                let (_, rep) = sim.spmv(&a_cc, &x).expect("shapes ok");
                let ours = rep.seconds();
                // MKL treats the vector as dense: time independent of r (§7.2).
                let t_cpu = cpu.spmv_seconds(matrix_bytes, n as u64);
                // cuSPARSE scales compute with r but always streams the matrix.
                let (_, gstats) =
                    outerspace::baselines::spmv::spmv_index_match(&a, &x).expect("shapes ok");
                let t_gpu = k40.spmv_time(matrix_bytes, gstats.multiplies, n as u64);
                cpu_s[i] = t_cpu / ours;
                gpu_s[i] = t_gpu / ours;
            }
            println!(
                "{:>9} | {:>8.1} {:>8.1} {:>8.1} | {:>8.1} {:>8.1} {:>8.1}",
                n, cpu_s[0], cpu_s[1], cpu_s[2], gpu_s[0], gpu_s[1], gpu_s[2]
            );
            Ok(Row { dim: n, speedup_cpu: cpu_s, speedup_gpu: gpu_s })
        });
    }

    // Scaling-law summary over rows that survived (possibly checkpoint-loaded).
    let ratios: Vec<f64> = runner
        .ok_values()
        .filter_map(|r| {
            let arr = r.get("speedup_cpu")?.as_array()?;
            Some(arr.first()?.as_f64()? / arr.get(1)?.as_f64()?)
        })
        .collect::<Vec<f64>>();
    if !ratios.is_empty() {
        let scaling = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!(
            "# shape: 10x density reduction buys ~{scaling:.1}x speedup (paper: ~10x); \
             paper r=.01 row: 93-196x CPU, 92-154x GPU"
        );
    }
    runner.finalize()
}
