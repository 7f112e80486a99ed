//! Ad-hoc wall-clock profile of the interval estimator's cost components
//! against a full model run. Ignored by default: timing assertions don't
//! belong in CI; run manually with
//! `cargo test --release -p outerspace-sim --test interval_profile -- --ignored --nocapture`.

use std::time::Instant;

use outerspace_baselines::gustavson;
use outerspace_gen::{powerlaw, rmat, uniform};
use outerspace_outer as outer;
use outerspace_sim::interval::{estimate_spgemm, IntervalOpts, NoAbortProbe};
use outerspace_sim::{MachineKind, OuterSpaceConfig};
use outerspace_sparse::Csr;

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

#[test]
#[ignore = "wall-clock profiling aid, not a correctness test"]
fn profile_interval_components() {
    let n = 1024;
    let nnz = 16000;
    let mats: Vec<(&str, Csr)> = vec![
        ("rmat", rmat::graph500(n, nnz, 42)),
        ("uniform", uniform::matrix(n, n, nnz, 42)),
        ("powerlaw", powerlaw::graph(n, nnz, 42)),
    ];
    let opts = IntervalOpts::default();
    for machine in [MachineKind::OuterSpace, MachineKind::SpArch] {
        for (name, a) in &mats {
            let cfg = OuterSpaceConfig { machine, ..OuterSpaceConfig::default() };
            // The functional product both models run, and the structural
            // SpArch plan built from it.
            let (c, func_ms) = time(|| gustavson::spgemm(a, a).unwrap().0);
            let ways = cfg.merge_tree_ways as usize;
            let (_, sparch_plan_ms) = time(|| {
                outer::sparch_structural_plan(a, a, ways, c.nnz() as u64).unwrap()
            });
            let (full, full_ms) =
                time(|| outerspace_sim::model::for_kind(machine).spgemm(&cfg, a, a).unwrap());
            let (est, est_ms) =
                time(|| estimate_spgemm(&cfg, a, a, &opts, &mut NoAbortProbe).unwrap());
            let full_cyc = full.convert.as_ref().map_or(0, |s| s.cycles)
                + full.multiply.cycles
                + full.merge.cycles;
            let phase_ratio = |e: u64, f: u64| e as f64 / f.max(1) as f64;
            println!(
                "{machine:?} {name}: full {full_ms:.1}ms | est {est_ms:.1}ms ({:.1}x) | \
                 func {func_ms:.1}ms sparch_plan {sparch_plan_ms:.1}ms | \
                 est/full cycles {:.3} [conv {:.2} mult {:.2} merge {:.2}; \
                 full split c/m/g {}/{}/{}]",
                full_ms / est_ms,
                est.report.total_cycles() as f64 / full_cyc as f64,
                phase_ratio(
                    est.report.convert.as_ref().map_or(0, |s| s.cycles),
                    full.convert.as_ref().map_or(0, |s| s.cycles),
                ),
                phase_ratio(est.report.multiply.cycles, full.multiply.cycles),
                phase_ratio(est.report.merge.cycles, full.merge.cycles),
                full.convert.as_ref().map_or(0, |s| s.cycles),
                full.multiply.cycles,
                full.merge.cycles,
            );
        }
    }
}
