//! Table 6 + §7.4: power and area estimates, GFLOPS/W, and the perf/W
//! comparison against the K40.
//!
//! Paper values: 86.74 mm² total area, 23.99 W total power (14.60 W of it
//! HBM), 0.12 GFLOPS/W average, and ≈150× better GFLOPS/W than the K40
//! (which measured 85 W while averaging 0.067 GFLOPS → 0.8 MFLOPS/W).

use outerspace::energy::AreaPowerModel;
use outerspace::prelude::*;
use outerspace::sim::xmodels::{gpu::row_imbalance, GpuModel};

use crate::runner::{field_f64, CaseResult, Runner, RunSummary};
use crate::{HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "table6";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 300.0 };

struct SampleRow {
    name: &'static str,
    gflops: f64,
    power_w: f64,
    gflops_per_watt: f64,
    k40_mflops_per_watt: f64,
}

outerspace_json::impl_to_json!(SampleRow { name, gflops, power_w, gflops_per_watt, k40_mflops_per_watt });

/// Runs the Table 6 / §7.4 study through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);

    // --- Static Table 6 (paper's assumed suite-average activity). ---
    runner.run_case("static", move || -> CaseResult<outerspace::energy::Table6> {
        let model = AreaPowerModel::tsmc32nm();
        let cfg = OuterSpaceConfig::default();
        let t6 = model.table6(&cfg, None);
        println!("# Table 6 reproduction (32 nm)");
        println!("{:<28} {:>10} {:>10}   paper", "component", "area mm^2", "power W");
        let paper = [(49.14, 7.98), (34.40, 0.82), (3.13, 0.06), (0.07, 0.53), (f64::NAN, 14.60)];
        for (c, p) in t6.components.iter().zip(paper) {
            println!(
                "{:<28} {:>10} {:>10.2}   ({}, {:.2})",
                c.name,
                c.area_mm2.map(|a| format!("{a:.2}")).unwrap_or_else(|| "N/A".into()),
                c.power_w,
                if p.0.is_nan() { "N/A".into() } else { format!("{:.2}", p.0) },
                p.1
            );
        }
        println!(
            "{:<28} {:>10.2} {:>10.2}   (86.74, 23.99)",
            "Total",
            t6.total_area_mm2(),
            t6.total_power_w()
        );
        Ok(t6)
    });

    // --- Measured-activity power + GFLOPS/W on a suite sample. ---
    println!("\n# measured-activity energy on suite samples (scale {}x)", opts.scale);
    for name in ["email-Enron", "poisson3Da", "wiki-Vote", "facebook", "p2p-Gnutella31", "webbase-1M"] {
        let seed = opts.seed;
        let base_scale = opts.scale;
        runner.run_case(&format!("sample-{name}"), move || -> CaseResult<SampleRow> {
            let model = AreaPowerModel::tsmc32nm();
            let cfg = OuterSpaceConfig::default();
            let sim = Simulator::new(cfg.clone()).expect("valid config");
            let e = outerspace::gen::suite::by_name(name)
                .ok_or_else(|| format!("matrix '{name}' missing from the suite"))?;
            let scale = ((e.dim / 20_000).max(1)) * base_scale;
            let a = e.generate_scaled(scale, seed);
            let (_, rep) = sim.spgemm(&a, &a).expect("square");
            let t6_run = model.table6(&cfg, Some(&rep));
            let ours = model.gflops_per_watt(&cfg, &rep);

            let (_, hash) = outerspace::baselines::hash::spgemm(&a, &a).expect("square");
            let t_gpu = GpuModel::tesla_k40()
                .cusparse_time(&hash, a.nrows() as u64, row_imbalance(&a, &a))
                .total();
            let gpu = hash.traffic.flops() as f64 / t_gpu / 1e9 / 85.0 * 1e3; // mW basis
            println!(
                "  {name:<14} {:>6.2} GFLOPS  {:>6.2} W  -> {:>6.3} GFLOPS/W (K40 model: {:.2} MFLOPS/W)",
                rep.gflops(),
                t6_run.total_power_w(),
                ours,
                gpu
            );
            Ok(SampleRow {
                name: e.name,
                gflops: rep.gflops(),
                power_w: t6_run.total_power_w(),
                gflops_per_watt: ours,
                k40_mflops_per_watt: gpu,
            })
        });
    }

    // Geometric means: the arithmetic mean is dominated by the regular
    // matrices where cuSPARSE does comparatively well.
    let gpw: Vec<f64> = runner
        .ok_values()
        .filter_map(|r| field_f64(r, "gflops_per_watt"))
        .collect();
    let gpu_mflops_w: Vec<f64> = runner
        .ok_values()
        .filter_map(|r| field_f64(r, "k40_mflops_per_watt"))
        .collect();
    if !gpw.is_empty() && !gpu_mflops_w.is_empty() {
        let ours_avg = gpw.iter().sum::<f64>() / gpw.len() as f64;
        let gpu_avg = (gpu_mflops_w.iter().map(|x| x.ln()).sum::<f64>()
            / gpu_mflops_w.len() as f64)
            .exp();
        println!(
            "\n# avg: {ours_avg:.3} GFLOPS/W (paper 0.12); perf/W advantage over K40 model: {:.0}x (paper ~150x)",
            ours_avg * 1e3 / gpu_avg
        );
    }
    runner.finalize()
}
