//! `simulate`: closed loop, one thread. A result is one
//! `Simulator::spgemm(A, A)`; a round is every machine of the bundled
//! `sparch_vs_ospace` space (OuterSPACE, SpArch analog, default configs)
//! crossed with every matrix of that space (R-MAT, uniform, power-law at
//! n = 1024, nnz = 16 000), generated from the seed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use outerspace_dse::SpaceSpec;
use outerspace_outer as outer;
use outerspace_sim::faults::split_seed;
use outerspace_sim::phases::merge::RowMergeInfo;
use outerspace_sim::phases::{convert, merge, multiply, sparch};
use outerspace_sim::{MachineKind, OuterSpaceConfig, SimReport, Simulator};
use outerspace_sparse::{ops, Csr};

use crate::alloc::HEAP;
use crate::report::{median, ms, process_cpu, timed_setups, Checks, ClosedLoop, Report};
use crate::trace::Tracer;
use crate::Args;

/// Fewest timed rounds, so the tail percentile has ten rounds beyond it.
const MIN_ROUNDS: usize = 12;
/// Latency limit of one round for `slo_frac`.
pub const ROUND_LIMIT_MS: f64 = 1500.0;
/// Result ids: `round * ID_STRIDE + item`.
const ID_STRIDE: u64 = 100;

/// The round's matrices — the workloads of the bundled `sparch_vs_ospace`
/// space — generated from `seed`.
pub fn inputs(seed: u64) -> Vec<(String, Csr)> {
    let space = SpaceSpec::bundled("sparch_vs_ospace").expect("sparch_vs_ospace is bundled");
    space
        .workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let a = w
                .generate(split_seed(seed, i as u64))
                .expect("bundled workloads generate");
            (w.kind.clone(), a)
        })
        .collect()
}

/// Content digest of a set of matrices.
#[cfg(test)]
pub fn digest(mats: &[&Csr]) -> String {
    let mut bytes = Vec::new();
    for m in mats {
        bytes.extend_from_slice(&u64::from(m.nrows()).to_le_bytes());
        bytes.extend_from_slice(&u64::from(m.ncols()).to_le_bytes());
        for &p in m.row_ptr() {
            bytes.extend_from_slice(&(p as u64).to_le_bytes());
        }
        for &c in m.col_indices() {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        for &v in m.values() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    outerspace_dse::cache::content_hash(&bytes)
}

/// `c` equals the reference product `r`: identical structure, values equal
/// up to summation order.
fn same_product(c: &Csr, r: &Csr) -> bool {
    if c.row_ptr() == r.row_ptr() && c.col_indices() == r.col_indices() {
        c.values()
            .iter()
            .zip(r.values())
            .all(|(x, y)| (x - y).abs() <= 1e-9 * y.abs().max(1.0))
    } else {
        c.approx_eq(r, 1e-9)
    }
}

struct Setup {
    mats: Vec<(String, Csr)>,
    sims: Vec<Simulator>,
}

/// Input generation, program construction and one warm-up round.
fn setup(seed: u64) -> Setup {
    let mats = inputs(seed);
    let sims: Vec<Simulator> = [MachineKind::OuterSpace, MachineKind::SpArch]
        .into_iter()
        .map(|machine| {
            Simulator::new(OuterSpaceConfig {
                machine,
                ..OuterSpaceConfig::default()
            })
            .expect("default configs validate")
        })
        .collect();
    for sim in &sims {
        for (_, a) in &mats {
            black_box(sim.spgemm(a, a).expect("fault-free simulation"));
        }
    }
    Setup { mats, sims }
}

/// Exact counts of one round, summed over its results.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    cycles: u64,
    products: u64,
    hbm_bytes: u64,
}

impl Counts {
    fn add(&mut self, rep: &SimReport) {
        self.cycles += rep.total_cycles();
        self.products += rep.multiply.flops;
        self.hbm_bytes += rep.hbm_bytes();
    }
}

/// Checks one result against the reference product and the cycles the
/// same item took in the first round (recorded into `cycles` then).
fn check_result(
    checks: &mut Checks,
    label: &dyn Fn() -> String,
    c: &Csr,
    rep: &SimReport,
    reference: &Csr,
    cycles: &mut Vec<u64>,
    item: usize,
) {
    checks.check(same_product(c, reference), || {
        format!("{}: product differs from spgemm_reference", label())
    });
    if cycles.len() == item {
        cycles.push(rep.total_cycles());
    }
    checks.check(cycles[item] == rep.total_cycles(), || {
        format!(
            "{}: {} cycles, first round {}",
            label(),
            rep.total_cycles(),
            cycles[item]
        )
    });
}

/// One round through `Simulator::spgemm`.
fn round(s: &Setup, refs: &[Csr], checks: &mut Checks, cycles: &mut Vec<u64>) -> Counts {
    let mut n = Counts::default();
    let mut item = 0;
    for sim in &s.sims {
        for ((name, a), r) in s.mats.iter().zip(refs) {
            match sim.spgemm(a, a) {
                Ok((c, rep)) => {
                    let label = || format!("{} {name}", sim.config().machine);
                    check_result(checks, &label, &c, &rep, r, cycles, item);
                    n.add(&rep);
                }
                Err(e) => checks.check(false, || format!("{} {name}: {e}", sim.config().machine)),
            }
            item += 1;
        }
    }
    n
}

pub fn run(args: &Args) -> (Report, Checks) {
    let mut checks = Checks::default();
    let (s, setup_secs) = timed_setups(|| setup(args.seed));
    let refs: Vec<Csr> = s
        .mats
        .iter()
        .map(|(_, a)| ops::spgemm_reference(a, a).expect("square operands"))
        .collect();

    // Sized up front: no bookkeeping allocation inside the peak window.
    let mut cycles = Vec::with_capacity(64);
    let mut round_ms = Vec::with_capacity(4096);
    let mut traced_ms = Vec::with_capacity(4096);
    let mut tracer = Tracer::new(Instant::now());
    let mut first = None;
    HEAP.reset_peak();
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    while t0.elapsed() < args.seconds || round_ms.len() < MIN_ROUNDS {
        let t = Instant::now();
        let n = round(&s, &refs, &mut checks, &mut cycles);
        round_ms.push(ms(t.elapsed()));
        let first = *first.get_or_insert(n);
        checks.check(n == first, || {
            format!("round counts {n:?}, first round {first:?}")
        });
        if args.trace {
            let t = Instant::now();
            traced_round(
                &s,
                &refs,
                &mut tracer,
                round_ms.len() as u64,
                &mut checks,
                &mut cycles,
            );
            traced_ms.push(ms(t.elapsed()));
        }
    }
    let cpu = ms(process_cpu() - cpu0);
    let peak = HEAP.peak();
    let counts = first.expect("at least one round");
    let rounds = round_ms.len();
    let results = rounds * cycles.len();

    let mut report = Report::new("simulate", results as u64);
    report.line(format!(
        "closed loop, 1 thread; round = {} machines x {} matrices ({}), n=1024 nnz=16000, seed {}",
        s.sims.len(),
        s.mats.len(),
        s.mats
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        args.seed
    ));
    report.line(format!(
        "rounds {rounds}, results {results}, round limit {ROUND_LIMIT_MS} ms"
    ));
    if args.trace {
        layer_metrics(
            &mut report,
            &tracer,
            &round_ms,
            &traced_ms,
            counts,
            cycles.len(),
        );
        match tracer.write_jsonl(&args.spans) {
            Ok(()) => report.line(format!("spans: {}", args.spans.display())),
            Err(e) => checks.check(false, || format!("writing spans: {e}")),
        }
    } else {
        report.closed_loop(&ClosedLoop {
            unit: "round",
            unit_ms: &round_ms,
            per_unit: cycles.len(),
            setup_secs: &setup_secs,
            cpu_ms: cpu,
            peak_bytes: peak,
            limit_ms: ROUND_LIMIT_MS,
        });
    }
    (report, checks)
}

/// One round through the layers `Simulator::spgemm` is built from, each
/// call in its own span: the mirror of `sim::model`.
fn traced_round(
    s: &Setup,
    refs: &[Csr],
    tr: &mut Tracer,
    round: u64,
    checks: &mut Checks,
    cycles: &mut Vec<u64>,
) {
    let mut item = 0;
    for sim in &s.sims {
        let cfg = sim.config();
        for ((name, a), r) in s.mats.iter().zip(refs) {
            let id = round * ID_STRIDE + item as u64;
            let root = tr.enter("sim.spgemm", id);
            let (c, rep) = match cfg.machine {
                MachineKind::OuterSpace => traced_outerspace(cfg, a, tr, id),
                MachineKind::SpArch => traced_sparch(cfg, a, tr, id),
            };
            tr.exit(root);
            let label = || format!("traced {} {name}", cfg.machine);
            check_result(checks, &label, &c, &rep, r, cycles, item);
            item += 1;
        }
    }
}

fn traced_outerspace(
    cfg: &OuterSpaceConfig,
    a: &Csr,
    tr: &mut Tracer,
    id: u64,
) -> (Csr, SimReport) {
    let (a_cc, conv) = tr.span("outer.os_product", id, || outer::csr_to_csc_via_outer(a));
    let convert = (!conv.skipped_symmetric).then(|| {
        tr.span("sim.convert", id, || {
            convert::simulate_convert(cfg, a).expect("fault-free")
        })
    });
    let c = tr.span("outer.os_product", id, || {
        let (pp, _) = outer::multiply(&a_cc, a).expect("square operands");
        outer::merge(pp, outer::MergeKind::Streaming).0
    });
    let (mult, layout, _) = tr.span("sim.multiply", id, || {
        multiply::simulate_multiply_with_breakdown(cfg, &a_cc, a).expect("fault-free")
    });
    let (merged, _) = tr.span("sim.merge", id, || {
        let rows: Vec<RowMergeInfo> = (0..layout.nrows())
            .map(|i| {
                let produced: u64 = layout.row(i).iter().map(|ch| u64::from(ch.len)).sum();
                let out = c.row_nnz(i) as u64;
                RowMergeInfo {
                    out_len: out as u32,
                    collisions: produced.saturating_sub(out) as u32,
                }
            })
            .collect();
        merge::simulate_merge_with_breakdown(cfg, &layout, &rows).expect("fault-free")
    });
    (
        c,
        SimReport {
            convert,
            multiply: mult,
            merge: merged,
            config: cfg.clone(),
        },
    )
}

fn traced_sparch(cfg: &OuterSpaceConfig, a: &Csr, tr: &mut Tracer, id: u64) -> (Csr, SimReport) {
    let ((c, plan), condensed) = tr.span("outer.sparch_plan", id, || {
        let product = outer::spgemm_sparch_with_plan(a, a, cfg.merge_tree_ways as usize);
        (product.expect("square operands"), outer::condense(a))
    });
    let (mult, _) = tr.span("sim.sparch_multiply", id, || {
        sparch::simulate_condensed_multiply(cfg, &condensed, a, &plan).expect("fault-free")
    });
    let (merged, _) = tr.span("sim.sparch_merge", id, || {
        sparch::simulate_merge_tree(cfg, &plan).expect("fault-free")
    });
    (
        c,
        SimReport {
            convert: None,
            multiply: mult,
            merge: merged,
            config: cfg.clone(),
        },
    )
}

/// Span name and metric of each layer, per round.
const LAYERS: &[(&str, &str)] = &[
    ("outer.os_product", "outer.os_product_ms"),
    ("outer.sparch_plan", "outer.sparch_plan_ms"),
    ("sim.convert", "sim.convert_ms"),
    ("sim.multiply", "sim.multiply_ms"),
    ("sim.merge", "sim.merge_ms"),
    ("sim.sparch_multiply", "sim.sparch_multiply_ms"),
    ("sim.sparch_merge", "sim.sparch_merge_ms"),
];

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    round_ms: &[f64],
    traced_ms: &[f64],
    n: Counts,
    per_round: usize,
) {
    let mut per_layer: BTreeMap<&str, BTreeMap<u64, f64>> = BTreeMap::new();
    for ((id, name), t) in tracer.self_ms_by_result() {
        *per_layer
            .entry(name)
            .or_default()
            .entry(id / ID_STRIDE)
            .or_insert(0.0) += t;
    }
    let rounds = traced_ms.len();
    let untraced = median(round_ms);
    let mut attributed = 0.0;
    for (span, metric) in LAYERS {
        let xs: Vec<f64> = per_layer
            .get(span)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        let v = if xs.is_empty() { 0.0 } else { median(&xs) };
        attributed += v;
        report.metric(*metric, v, rounds, "per round, median of traced rounds");
    }
    report.metric(
        "sim.unattributed_ms",
        untraced - attributed,
        rounds,
        format!("median untraced round {untraced:.3} ms minus the layers"),
    );
    report.metric(
        "sim.cycles",
        n.cycles as f64,
        1,
        "simulated cycles per round, exact",
    );
    report.metric(
        "sim.products",
        n.products as f64,
        1,
        "elementary products per round, exact",
    );
    report.metric(
        "sim.hbm_bytes",
        n.hbm_bytes as f64,
        1,
        "simulated HBM traffic per round, exact",
    );
    report.metric(
        "sim.host_ns_per_product",
        untraced * 1e6 / n.products as f64,
        round_ms.len(),
        "untraced round / products",
    );
    let untraced_rps = per_round as f64 * 1e3 / untraced;
    let traced_rps = per_round as f64 * 1e3 / median(traced_ms);
    report.metric(
        "trace.overhead_results_per_s",
        traced_rps - untraced_rps,
        rounds,
        "traced minus untraced results_per_s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sets_the_inputs() {
        let d = |seed| {
            let mats = inputs(seed);
            digest(&mats.iter().map(|(_, m)| m).collect::<Vec<_>>())
        };
        assert_eq!(d(1), d(1));
        assert_ne!(d(1), d(2));
    }
}
