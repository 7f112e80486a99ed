//! Fig. 12-style utilization study: where every PE cycle goes.
//!
//! The paper's utilization discussion (§7, Fig. 12's active/stalled split)
//! attributes each processing element's time to useful work versus waiting
//! on the memory hierarchy. The engine's hierarchical
//! [`CycleBreakdown`] makes that first-class: this harness sweeps suite
//! matrices and reports, for the multiply and merge phases, the
//! busy / stall-L0 / stall-L1 / stall-HBM / idle shares per PE class plus
//! per-channel HBM bandwidth occupancy — and, through the shared
//! [`UtilizationShares`] type, the CPU (MKL analog) and GPU (cuSPARSE
//! analog) models' busy/memory/idle splits for the same workloads, so the
//! "OuterSPACE keeps its PEs busy where SIMT stalls" argument is one table.
//! Each phase's measured activity also prices a Table 6 power estimate via
//! [`ActivityFactors::from_phase`].

use outerspace::energy::{ActivityFactors, AreaPowerModel};
use outerspace::prelude::*;
use outerspace::sim::engine::{CycleBreakdown, UtilizationShares};
use outerspace::sim::model;
use outerspace::sim::xmodels::{gpu::row_imbalance, CpuModel, GpuModel};
use outerspace::sim::{MachineKind, PhaseStats};

use crate::runner::{CaseResult, Runner, RunSummary};
use crate::{HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "fig12";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 300.0 };

/// One phase's cycle accounting, as share-of-total-PE-cycles fractions.
struct PhaseRow {
    phase: &'static str,
    pe_class: String,
    makespan: u64,
    busy: f64,
    stall_l0: f64,
    stall_l1: f64,
    stall_hbm: f64,
    idle: f64,
    mean_channel_occupancy: f64,
    peak_channel_occupancy: f64,
    power_w: f64,
}

outerspace_json::impl_to_json!(PhaseRow {
    phase,
    pe_class,
    makespan,
    busy,
    stall_l0,
    stall_l1,
    stall_hbm,
    idle,
    mean_channel_occupancy,
    peak_channel_occupancy,
    power_w,
});

/// A baseline model's busy/memory/idle split for the same workload.
struct BaselineRow {
    model: &'static str,
    busy: f64,
    memory: f64,
    idle: f64,
}

outerspace_json::impl_to_json!(BaselineRow { model, busy, memory, idle });

/// Everything one matrix contributes to the figure.
struct MatrixRows {
    matrix: &'static str,
    nnz: u64,
    multiply: PhaseRow,
    merge: PhaseRow,
    baselines: Vec<BaselineRow>,
}

outerspace_json::impl_to_json!(MatrixRows { matrix, nnz, multiply, merge, baselines });

fn phase_row(
    cfg: &OuterSpaceConfig,
    phase: &'static str,
    stats: &PhaseStats,
    bd: &CycleBreakdown,
) -> PhaseRow {
    let total = bd.total_pe_cycles().max(1) as f64;
    let activity = ActivityFactors::from_phase(cfg, stats, bd);
    let power_w =
        AreaPowerModel::tsmc32nm().table6_with_activity(cfg, &activity).total_power_w();
    PhaseRow {
        phase,
        pe_class: bd.pe_class.clone(),
        makespan: bd.makespan,
        busy: bd.busy_cycles as f64 / total,
        stall_l0: bd.stall_l0_cycles as f64 / total,
        stall_l1: bd.stall_l1_cycles as f64 / total,
        stall_hbm: bd.stall_hbm_cycles as f64 / total,
        idle: bd.idle_cycles as f64 / total,
        mean_channel_occupancy: bd.mean_channel_occupancy(),
        peak_channel_occupancy: bd.peak_channel_occupancy(),
        power_w,
    }
}

fn print_phase(name: &str, row: &PhaseRow) {
    println!(
        "  {name:<14} {:<9} {:>5.1}% busy | stalls {:>4.1}% L0 {:>4.1}% L1 {:>5.1}% HBM | \
         {:>5.1}% idle | chan occ {:>4.2} mean {:>4.2} peak | {:>5.2} W",
        row.phase,
        100.0 * row.busy,
        100.0 * row.stall_l0,
        100.0 * row.stall_l1,
        100.0 * row.stall_hbm,
        100.0 * row.idle,
        row.mean_channel_occupancy,
        row.peak_channel_occupancy,
        row.power_w,
    );
}

fn baseline_row(model: &'static str, s: UtilizationShares) -> BaselineRow {
    println!(
        "  {:<24} {:>5.1}% busy | {:>5.1}% memory | {:>5.1}% idle",
        model,
        100.0 * s.busy,
        100.0 * s.memory,
        100.0 * s.idle
    );
    BaselineRow { model, busy: s.busy, memory: s.memory, idle: s.idle }
}

/// Runs the utilization study through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    println!("# per-phase cycle attribution and baseline-model shares (scale {}x)", opts.scale);

    for name in ["email-Enron", "wiki-Vote", "p2p-Gnutella31", "poisson3Da", "ca-CondMat"] {
        let seed = opts.seed;
        let base_scale = opts.scale;
        runner.run_case(name, move || -> CaseResult<MatrixRows> {
            let cfg = OuterSpaceConfig::default();
            let e = outerspace::gen::suite::by_name(name)
                .ok_or_else(|| format!("matrix '{name}' missing from the suite"))?;
            let scale = ((e.dim / 20_000).max(1)) * base_scale;
            let a = e.generate_scaled(scale, seed);
            let a_cc = a.to_csc();
            println!("{name} ({} nnz):", a.nnz());

            // Accelerator: both phases through the engine, with breakdowns.
            let pipe = model::for_kind(MachineKind::OuterSpace)
                .spgemm_preconverted(&cfg, &a_cc, &a)
                .expect("fault-free sim cannot fail");
            let mult_row =
                phase_row(&cfg, "multiply", &pipe.multiply, &pipe.multiply_breakdown);
            let merge_row = phase_row(&cfg, "merge", &pipe.merge, &pipe.merge_breakdown);
            print_phase(name, &mult_row);
            print_phase(name, &merge_row);

            // Baselines through the same share axes.
            let profile = outerspace::sparse::stats::profile(&a);
            let (_, gus) =
                outerspace::baselines::gustavson::spgemm(&a, &a).expect("square");
            let cpu_shares = CpuModel::xeon_e5_1650_v4()
                .spgemm_times(
                    &gus,
                    12 * a.nnz() as u64,
                    a.ncols() as u64,
                    a.nrows() as u64,
                    profile.diagonal_fraction,
                )
                .shares();
            let (_, hash) = outerspace::baselines::hash::spgemm(&a, &a).expect("square");
            let gpu_shares = GpuModel::tesla_k40()
                .cusparse_time(&hash, a.nrows() as u64, row_imbalance(&a, &a))
                .shares();
            let baselines = vec![
                baseline_row("cpu-mkl-model", cpu_shares),
                baseline_row("gpu-cusparse-model", gpu_shares),
            ];
            Ok(MatrixRows {
                matrix: e.name,
                nnz: a.nnz() as u64,
                multiply: mult_row,
                merge: merge_row,
                baselines,
            })
        });
    }
    runner.finalize()
}
