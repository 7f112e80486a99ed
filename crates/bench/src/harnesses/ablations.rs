//! Ablation sweeps over the design choices DESIGN.md §6 calls out:
//! merge-phase PE count (§6 picked 8 of 16), scratchpad size (§5.4.2),
//! outstanding-queue depth, L0 capacity, streaming vs sort-based merge,
//! and HBM bandwidth.

use std::sync::Arc;

use outerspace::outer::MergeKind;
use outerspace::prelude::*;

use crate::runner::{CaseResult, Runner, RunSummary};
use crate::{fmt_secs, HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "ablations";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 600.0 };

struct Point {
    study: &'static str,
    setting: String,
    seconds: f64,
    merge_seconds: f64,
    hbm_gb: f64,
    l0_hit_rate: f64,
}

outerspace_json::impl_to_json!(Point { study, setting, seconds, merge_seconds, hbm_gb, l0_hit_rate });

struct SwMerge {
    streaming_s: f64,
    streaming_sort_steps: u64,
    sort_based_s: f64,
    sort_based_sort_steps: u64,
}

outerspace_json::impl_to_json!(SwMerge { streaming_s, streaming_sort_steps, sort_based_s, sort_based_sort_steps });

fn measure(cfg: OuterSpaceConfig, a: &Csr, study: &'static str, setting: String) -> Point {
    let sim = Simulator::new(cfg).expect("config valid");
    let (_, rep) = sim.spgemm(a, a).expect("square");
    let p = Point {
        study,
        setting,
        seconds: rep.seconds(),
        merge_seconds: rep.config.cycles_to_seconds(rep.merge.cycles),
        hbm_gb: rep.hbm_bytes() as f64 / 1e9,
        l0_hit_rate: rep.multiply.l0_hit_rate(),
    };
    println!(
        "{:<22} {:<14} {:>10} {:>10} {:>9.3} {:>7.3}",
        p.study,
        p.setting,
        fmt_secs(p.seconds),
        fmt_secs(p.merge_seconds),
        p.hbm_gb,
        p.l0_hit_rate
    );
    p
}

/// Runs the ablation sweeps through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    // A mid-size power-law workload stresses every knob (deep fan-in rows,
    // shared hub columns). Shared read-only across the case closures.
    let a = Arc::new(outerspace::gen::powerlaw::graph(
        16_384 / opts.scale,
        120_000 / opts.scale as usize,
        opts.seed,
    ));
    println!(
        "# Ablations on a power-law workload: {} rows, {} nnz",
        a.nrows(),
        a.nnz()
    );
    println!(
        "{:<22} {:<14} {:>10} {:>10} {:>9} {:>7}",
        "study", "setting", "total", "merge", "HBM GB", "L0 hit"
    );

    let base = OuterSpaceConfig::default();

    for active in [4u32, 8, 16] {
        let (a, base) = (a.clone(), base.clone());
        runner.run_case(&format!("merge-pes-{active}"), move || -> CaseResult<Point> {
            let mut cfg = base;
            cfg.merge_active_pes_per_tile = active;
            Ok(measure(cfg, &a, "merge PEs/tile", format!("{active} (paper: 8)")))
        });
    }
    for bytes in [256u32, 1024, 2048, 8192] {
        let (a, base) = (a.clone(), base.clone());
        runner.run_case(&format!("scratchpad-{bytes}"), move || -> CaseResult<Point> {
            let mut cfg = base;
            cfg.merge_scratchpad_bytes = bytes;
            Ok(measure(cfg, &a, "merge scratchpad", format!("{bytes} B (paper: 2048)")))
        });
    }
    for q in [4u32, 16, 64, 256] {
        let (a, base) = (a.clone(), base.clone());
        runner.run_case(&format!("queue-{q}"), move || -> CaseResult<Point> {
            let mut cfg = base;
            cfg.outstanding_requests = q;
            Ok(measure(cfg, &a, "outstanding queue", format!("{q} (paper: 64)")))
        });
    }
    for kb in [2u32, 8, 16, 64] {
        let (a, base) = (a.clone(), base.clone());
        runner.run_case(&format!("l0-{kb}k"), move || -> CaseResult<Point> {
            let mut cfg = base;
            cfg.l0_multiply_bytes = kb * 1024;
            Ok(measure(cfg, &a, "L0 capacity", format!("{kb} kB (paper: 16)")))
        });
    }
    for mb in [2000u32, 4000, 8000, 16000] {
        let (a, base) = (a.clone(), base.clone());
        runner.run_case(&format!("hbm-{mb}"), move || -> CaseResult<Point> {
            let mut cfg = base;
            cfg.hbm_channel_mb_per_sec = mb;
            Ok(measure(cfg, &a, "HBM ch. bandwidth", format!("{mb} MB/s (paper: 8000)")))
        });
    }

    // Software merge-kind ablation (sort-based vs streaming, §5.4.2).
    {
        let a = a.clone();
        runner.run_case("sw-merge", move || -> CaseResult<SwMerge> {
            let t0 = std::time::Instant::now();
            let (_, s1) = outerspace::outer::spgemm_with_stats(&a, &a, MergeKind::Streaming)
                .expect("square");
            let t_stream = t0.elapsed();
            let t1 = std::time::Instant::now();
            let (_, s2) =
                outerspace::outer::spgemm_with_stats(&a, &a, MergeKind::SortBased).expect("square");
            let t_sort = t1.elapsed();
            println!(
                "\n# merge algorithm (software): streaming {} ({} sort steps) vs sort-based {} ({} sort steps)",
                fmt_secs(t_stream.as_secs_f64()),
                s1.merge.sort_steps,
                fmt_secs(t_sort.as_secs_f64()),
                s2.merge.sort_steps
            );
            Ok(SwMerge {
                streaming_s: t_stream.as_secs_f64(),
                streaming_sort_steps: s1.merge.sort_steps,
                sort_based_s: t_sort.as_secs_f64(),
                sort_based_sort_steps: s2.merge.sort_steps,
            })
        });
    }
    runner.finalize()
}
