//! §8: OuterSPACE scaling — the silicon-interposed 4× system and multi-node
//! torus configurations.
//!
//! "In order to handle matrix sizes larger than a few million, a
//! silicon-interposed system with 4 HBMs and 4× the PEs on-chip could be
//! realized ... we conceive equipping our architecture with node-to-node
//! SerDes channels to allow multiple OuterSPACE nodes connected in a torus."
//!
//! This study runs the same workload on the Table 2 baseline, the
//! interposed 4× chip, and 4-/16-node tori, reporting how throughput scales
//! with resources (strong scaling) and how a proportionally grown workload
//! fares (weak scaling).

use outerspace::prelude::*;

use crate::runner::{field_f64, CaseResult, Runner, RunSummary};
use crate::{fmt_secs, HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "sec8_scaling";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 600.0 };

struct Row {
    system: String,
    pes: u64,
    bandwidth_gbps: u64,
    workload_nnz: usize,
    seconds: f64,
    gflops: f64,
    speedup_vs_base: f64,
}

outerspace_json::impl_to_json!(Row { system, pes, bandwidth_gbps, workload_nnz, seconds, gflops, speedup_vs_base });

/// The four §8 system configurations, index-addressable so a case closure
/// can rebuild its config without sharing state.
const SYSTEMS: [&str; 4] = ["baseline (Table 2)", "interposed 4x", "torus x4", "torus x16"];

fn system_config(idx: usize) -> OuterSpaceConfig {
    let base = OuterSpaceConfig::default();
    match idx {
        0 => base,
        1 => base.interposed_4x(),
        2 => base.torus(4),
        _ => base.torus(16),
    }
}

fn print_row(row: &Row) {
    println!(
        "{:<20} {:>6} {:>8} {:>10} | {:>10} {:>8.2} {:>8.2}",
        row.system,
        row.pes,
        row.bandwidth_gbps,
        row.workload_nnz,
        fmt_secs(row.seconds),
        row.gflops,
        row.speedup_vs_base
    );
}

/// Runs the §8 scaling study through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    println!("# Section 8 scaling study");
    println!(
        "{:<20} {:>6} {:>8} {:>10} | {:>10} {:>8} {:>8}",
        "system", "PEs", "GB/s", "nnz", "time", "GFLOPS", "speedup"
    );

    // --- Strong scaling: fixed workload, growing machine. The baseline case
    // runs first; later cases derive their speedup from its dumped value, so
    // the dependency also survives `--resume` (where the baseline is reused
    // from the checkpoint instead of re-run).
    let mut base_secs = f64::NAN;
    for (idx, name) in SYSTEMS.iter().enumerate() {
        let seed = opts.seed;
        let scale = opts.scale;
        let base = base_secs;
        let value = runner.run_case(&format!("strong-{idx}"), move || -> CaseResult<Row> {
            let cfg = system_config(idx);
            let a = outerspace::gen::rmat::graph500(
                32_768 / scale,
                400_000 / scale as usize,
                seed,
            );
            let sim = Simulator::new(cfg.clone()).expect("valid scaled config");
            let (_, rep) = sim.spgemm(&a, &a).expect("square");
            let base = if idx == 0 { rep.seconds() } else { base };
            let row = Row {
                system: format!("{name} [strong]"),
                pes: cfg.total_pes(),
                bandwidth_gbps: cfg.hbm_total_bandwidth_bytes_per_sec() / 1_000_000_000,
                workload_nnz: a.nnz(),
                seconds: rep.seconds(),
                gflops: rep.gflops(),
                speedup_vs_base: base / rep.seconds(),
            };
            print_row(&row);
            Ok(row)
        });
        if idx == 0 {
            base_secs = value.and_then(|v| field_f64(&v, "seconds")).unwrap_or(f64::NAN);
        }
    }

    // --- Weak scaling: workload grows with the machine. ---
    println!();
    let mut base_gflops = f64::NAN;
    for (idx, name) in SYSTEMS.iter().enumerate() {
        let seed = opts.seed;
        let scale = opts.scale;
        let base = base_gflops;
        let value = runner.run_case(&format!("weak-{idx}"), move || -> CaseResult<Row> {
            let cfg = system_config(idx);
            let grow = [1u32, 2, 4, 8][idx];
            let a = outerspace::gen::rmat::graph500(
                (12_288 / scale) * grow,
                (100_000 / scale as usize) * grow as usize,
                seed,
            );
            let sim = Simulator::new(cfg.clone()).expect("valid scaled config");
            let (_, rep) = sim.spgemm(&a, &a).expect("square");
            let base = if idx == 0 { rep.gflops() } else { base };
            let row = Row {
                system: format!("{name} [weak]"),
                pes: cfg.total_pes(),
                bandwidth_gbps: cfg.hbm_total_bandwidth_bytes_per_sec() / 1_000_000_000,
                workload_nnz: a.nnz(),
                seconds: rep.seconds(),
                gflops: rep.gflops(),
                speedup_vs_base: rep.gflops() / base,
            };
            print_row(&row);
            Ok(row)
        });
        if idx == 0 {
            base_gflops = value.and_then(|v| field_f64(&v, "gflops")).unwrap_or(f64::NAN);
        }
    }
    println!("# shape: throughput scales with node count under weak scaling; strong scaling");
    println!("# saturates once the fixed workload no longer fills the PE array (Amdahl).");
    runner.finalize()
}
