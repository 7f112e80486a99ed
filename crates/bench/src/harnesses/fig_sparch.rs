//! Head-to-head machine-model frontier: OuterSPACE vs the SpArch analog.
//!
//! Both machines run the same workloads through their own phase pipelines
//! (`sim::model::for_kind`): OuterSPACE charges format conversion + tiled
//! multiply + streaming merge, the SpArch analog a condensed multiply + the
//! pipelined merge tree. Each run is priced with the machine-aware Table 6
//! area/power model, so every row carries cycles, watts, and mm² — the three
//! axes of the frontier. Per workload, each machine is marked Pareto-optimal
//! or dominated on (cycles, power, area).
//!
//! Besides the runner artifact (`fig_sparch.json`, which carries wall-clock
//! metadata), the harness writes `fig_sparch_frontier.json`: fixed field
//! order, no timestamps — two runs at the same scale and seed produce
//! byte-identical files, the property `ci.sh` diffs.

use outerspace::energy::AreaPowerModel;
use outerspace::prelude::*;
use outerspace::sim::{model, MachineKind};
use outerspace_json::{dump, Json};

use crate::runner::{CaseResult, Runner, RunSummary};
use crate::{HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "fig_sparch";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 600.0 };

/// One machine × workload measurement.
struct Row {
    machine: String,
    workload: String,
    nnz: u64,
    result_nnz: u64,
    cycles: u64,
    convert_cycles: u64,
    multiply_cycles: u64,
    merge_cycles: u64,
    gflops: f64,
    power_w: f64,
    area_mm2: f64,
    energy_j: f64,
    edp_js: f64,
    multiply_busy_share: f64,
}

outerspace_json::impl_to_json!(Row {
    machine,
    workload,
    nnz,
    result_nnz,
    cycles,
    convert_cycles,
    multiply_cycles,
    merge_cycles,
    gflops,
    power_w,
    area_mm2,
    energy_j,
    edp_js,
    multiply_busy_share,
});

fn machine_label(kind: MachineKind) -> &'static str {
    match kind {
        MachineKind::OuterSpace => "outer_space",
        MachineKind::SpArch => "sparch",
    }
}

/// Runs one machine on one workload and prices the design.
fn measure(kind: MachineKind, workload: &'static str, a: &Csr) -> CaseResult<Row> {
    let cfg = OuterSpaceConfig { machine: kind, ..OuterSpaceConfig::default() };
    let pipe = model::for_kind(kind).spgemm(&cfg, a, a).map_err(|e| e.to_string())?;
    let busy_share = pipe.multiply_breakdown.busy_cycles as f64
        / pipe.multiply_breakdown.total_pe_cycles().max(1) as f64;
    let result_nnz = pipe.c.nnz() as u64;
    let report = SimReport {
        convert: pipe.convert,
        multiply: pipe.multiply,
        merge: pipe.merge,
        config: cfg.clone(),
    };
    let pricing = AreaPowerModel::tsmc32nm();
    let table6 = pricing.table6(&cfg, Some(&report));
    let energy = pricing.energy_report(&cfg, &report);
    let row = Row {
        machine: machine_label(kind).to_string(),
        workload: workload.to_string(),
        nnz: a.nnz() as u64,
        result_nnz,
        cycles: report.total_cycles(),
        convert_cycles: report.convert.as_ref().map_or(0, |p| p.cycles),
        multiply_cycles: report.multiply.cycles,
        merge_cycles: report.merge.cycles,
        gflops: report.gflops(),
        power_w: table6.total_power_w(),
        area_mm2: table6.total_area_mm2(),
        energy_j: energy.total_j,
        edp_js: energy.energy_delay_js,
        multiply_busy_share: busy_share,
    };
    println!(
        "  {:<11} {:<9} {:>10} cyc (conv {:>7} | mul {:>8} | merge {:>8}) | \
         {:>6.2} W {:>6.1} mm2 | busy {:>5.1}%",
        row.machine,
        row.workload,
        row.cycles,
        row.convert_cycles,
        row.multiply_cycles,
        row.merge_cycles,
        row.power_w,
        row.area_mm2,
        100.0 * row.multiply_busy_share,
    );
    Ok(row)
}

fn str_field<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("")
}

fn u64_field(row: &Json, key: &str) -> u64 {
    row.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn f64_field(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::MAX)
}

/// `a` dominates `b` when it is no worse on every frontier axis (cycles,
/// power, area) and strictly better on at least one.
fn dominates(a: &Json, b: &Json) -> bool {
    let (ac, bc) = (u64_field(a, "cycles"), u64_field(b, "cycles"));
    let (ap, bp) = (f64_field(a, "power_w"), f64_field(b, "power_w"));
    let (aa, ba) = (f64_field(a, "area_mm2"), f64_field(b, "area_mm2"));
    let no_worse = ac <= bc && ap <= bp && aa <= ba;
    let better = ac < bc || ap < bp || aa < ba;
    no_worse && better
}

/// True per row when no same-workload row dominates it.
pub fn frontier_flags(rows: &[Json]) -> Vec<bool> {
    (0..rows.len())
        .map(|i| {
            !(0..rows.len()).any(|j| {
                j != i
                    && str_field(&rows[j], "workload") == str_field(&rows[i], "workload")
                    && dominates(&rows[j], &rows[i])
            })
        })
        .collect()
}

fn with_pareto(row: Json, pareto: bool) -> Json {
    match row {
        Json::Obj(mut pairs) => {
            pairs.push(("pareto".to_string(), Json::Bool(pareto)));
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// The workload lineup: one generator call per family, divided by `--scale`.
fn workloads(opts: &HarnessOpts) -> Vec<(&'static str, Csr)> {
    let n = (4096 / opts.scale).max(64);
    let nnz = (n as usize) * 8;
    vec![
        ("rmat", outerspace::gen::rmat::graph500(n.next_power_of_two(), nnz, opts.seed)),
        ("uniform", outerspace::gen::uniform::matrix(n, n, nnz, opts.seed ^ 0x9e37)),
        ("powerlaw", outerspace::gen::powerlaw::graph(n, nnz, opts.seed ^ 0x5bd1)),
    ]
}

/// Runs the head-to-head study through the crash-safe runner and writes the
/// deterministic frontier artifact.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    println!("# OuterSPACE vs SpArch-analog machine models (scale {}x)", opts.scale);

    let mut rows: Vec<Json> = Vec::new();
    for (workload, a) in workloads(opts) {
        for kind in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let case = format!("{}:{workload}", machine_label(kind));
            let a = a.clone();
            if let Some(row) = runner.run_case(&case, move || measure(kind, workload, &a)) {
                rows.push(row);
            }
        }
    }

    // Cross-machine sanity: both machines must agree on every product size
    // (the functional claim the oracle's `sparch_cc` entry enforces at
    // scale; here it guards the artifact).
    for (workload, _) in workloads(opts) {
        let sizes: Vec<u64> = rows
            .iter()
            .filter(|r| str_field(r, "workload") == workload)
            .map(|r| u64_field(r, "result_nnz"))
            .collect();
        if sizes.windows(2).any(|p| p[0] != p[1]) {
            println!("# WARNING: machines disagree on result nnz for {workload}: {sizes:?}");
        }
    }

    let flags = frontier_flags(&rows);
    let rows: Vec<Json> =
        rows.into_iter().zip(flags).map(|(r, p)| with_pareto(r, p)).collect();
    for r in &rows {
        println!(
            "#   {:<11} {:<9} -> {}",
            str_field(r, "machine"),
            str_field(r, "workload"),
            if matches!(r.get("pareto"), Some(Json::Bool(true))) {
                "pareto"
            } else {
                "dominated"
            },
        );
    }

    let frontier_path = opts.out_dir.join("fig_sparch_frontier.json");
    let doc = Json::Obj(vec![
        ("scale".to_string(), Json::UInt(opts.scale as u64)),
        ("seed".to_string(), Json::UInt(opts.seed)),
        ("rows".to_string(), Json::Arr(rows)),
    ]);
    if let Err(e) = dump::write_json_atomic(&frontier_path, &doc) {
        eprintln!("error: write {}: {e}", frontier_path.display());
    } else {
        println!("# frontier artifact: {}", frontier_path.display());
    }
    runner.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, cycles: u64, power: f64, area: f64) -> Json {
        Json::Obj(vec![
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("cycles".to_string(), Json::UInt(cycles)),
            ("power_w".to_string(), Json::Float(power)),
            ("area_mm2".to_string(), Json::Float(area)),
        ])
    }

    #[test]
    fn frontier_marks_dominated_rows_per_workload() {
        let rows = vec![
            row("rmat", 100, 10.0, 80.0),
            row("rmat", 200, 12.0, 90.0), // dominated by the first row
            row("rmat", 300, 5.0, 50.0),  // cheaper: pareto
            row("uniform", 999, 99.0, 999.0), // alone in its workload: pareto
        ];
        assert_eq!(frontier_flags(&rows), vec![true, false, true, true]);
    }

    #[test]
    fn incomparable_rows_are_both_pareto() {
        let rows = vec![row("w", 100, 20.0, 80.0), row("w", 200, 10.0, 80.0)];
        assert_eq!(frontier_flags(&rows), vec![true, true]);
    }
}
