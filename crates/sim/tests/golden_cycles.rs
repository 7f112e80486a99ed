//! Golden cycle-regression snapshots.
//!
//! Each scenario runs a fixed-seed workload through the public simulator
//! entry points and pins the resulting [`PhaseStats`] (cycles plus the
//! per-level hit/traffic counters) against numbers captured from the seed
//! timing model. Cycle counts may drift by at most 0.5%; the functional
//! counters (hits, misses, bytes, flops, work items) are scheduling-order
//! dependent only through cache state, so they get the same tolerance.
//!
//! The `exact_attribution_*` scenarios pin each phase's [`CycleBreakdown`]
//! from the machine model (`makespan`, busy, the three stall buckets, idle,
//! lost, per-channel busy cycles) with `==`: a host-speed change to the
//! engine, the PE queues or the caches must leave every one unmoved.
//!
//! If a deliberate timing-model change moves these numbers, re-capture by
//! running with `GOLDEN_CAPTURE=1 cargo test -p outerspace-sim --test
//! golden_cycles -- --nocapture` and paste the printed tables.

use outerspace_gen::{rmat, uniform, vector};
use outerspace_sim::engine::CycleBreakdown;
use outerspace_sim::model::{self, SpgemmPipeline};
use outerspace_sim::{MachineKind, OuterSpaceConfig, PhaseStats, Simulator};
use outerspace_sparse::Csr;

/// One pinned phase snapshot.
#[derive(Debug, Clone, Copy)]
struct Golden {
    cycles: u64,
    l0_hits: u64,
    l0_misses: u64,
    l1_hits: u64,
    l1_misses: u64,
    hbm_read_bytes: u64,
    hbm_write_bytes: u64,
    flops: u64,
    work_items: u64,
}

const DRIFT: f64 = 0.005;

fn capture_mode() -> bool {
    std::env::var("GOLDEN_CAPTURE").is_ok_and(|v| v == "1")
}

fn print_golden(scenario: &str, phase: &str, s: &PhaseStats) {
    println!(
        "({scenario}/{phase}) Golden {{ cycles: {}, l0_hits: {}, l0_misses: {}, \
         l1_hits: {}, l1_misses: {}, hbm_read_bytes: {}, hbm_write_bytes: {}, \
         flops: {}, work_items: {} }},",
        s.cycles,
        s.l0_hits,
        s.l0_misses,
        s.l1_hits,
        s.l1_misses,
        s.hbm_read_bytes,
        s.hbm_write_bytes,
        s.flops,
        s.work_items
    );
}

fn assert_close(scenario: &str, phase: &str, field: &str, got: u64, want: u64) {
    let tol = (want as f64 * DRIFT).max(0.0);
    let drift = (got as f64 - want as f64).abs();
    assert!(
        drift <= tol,
        "{scenario}/{phase}: {field} drifted beyond 0.5%: got {got}, golden {want} \
         (|Δ| = {drift}, tolerance {tol:.1})"
    );
}

fn check(scenario: &str, phase: &str, s: &PhaseStats, g: &Golden) {
    if capture_mode() {
        print_golden(scenario, phase, s);
        return;
    }
    assert_close(scenario, phase, "cycles", s.cycles, g.cycles);
    assert_close(scenario, phase, "l0_hits", s.l0_hits, g.l0_hits);
    assert_close(scenario, phase, "l0_misses", s.l0_misses, g.l0_misses);
    assert_close(scenario, phase, "l1_hits", s.l1_hits, g.l1_hits);
    assert_close(scenario, phase, "l1_misses", s.l1_misses, g.l1_misses);
    assert_close(scenario, phase, "hbm_read_bytes", s.hbm_read_bytes, g.hbm_read_bytes);
    assert_close(scenario, phase, "hbm_write_bytes", s.hbm_write_bytes, g.hbm_write_bytes);
    assert_close(scenario, phase, "flops", s.flops, g.flops);
    assert_close(scenario, phase, "work_items", s.work_items, g.work_items);
}

fn sim() -> Simulator {
    Simulator::new(OuterSpaceConfig::default()).expect("default config valid")
}

fn sparch_sim() -> Simulator {
    let cfg =
        OuterSpaceConfig { machine: MachineKind::SpArch, ..OuterSpaceConfig::default() };
    Simulator::new(cfg).expect("SpArch config valid")
}

/// Symmetric R-MAT product: conversion skipped, multiply + merge pinned.
#[test]
fn golden_rmat_spgemm() {
    let g = rmat::graph500(512, 8000, 4);
    let (_, rep) = sim().spgemm(&g, &g).unwrap();
    assert!(rep.convert.is_none(), "graph500 input is symmetric");
    check(
        "rmat_spgemm",
        "multiply",
        &rep.multiply,
        &Golden {
            cycles: 99152,
            l0_hits: 125313,
            l0_misses: 11150,
            l1_hits: 7325,
            l1_misses: 3825,
            hbm_read_bytes: 244800,
            hbm_write_bytes: 8095744,
            flops: 627471,
            work_items: 9357,
        },
    );
    check(
        "rmat_spgemm",
        "merge",
        &rep.merge,
        &Golden {
            cycles: 224343,
            l0_hits: 19,
            l0_misses: 129389,
            l1_hits: 27,
            l1_misses: 129362,
            hbm_read_bytes: 8279168,
            hbm_write_bytes: 1779328,
            flops: 497054,
            work_items: 461,
        },
    );
}

/// Asymmetric uniform product: all three SpGEMM phases pinned.
#[test]
fn golden_uniform_spgemm() {
    let a = uniform::matrix(384, 384, 6000, 7);
    let b = uniform::matrix(384, 384, 6000, 11);
    let (_, rep) = sim().spgemm(&a, &b).unwrap();
    let conv = rep.convert.expect("uniform input is asymmetric");
    check(
        "uniform_spgemm",
        "convert",
        &conv,
        &Golden {
            cycles: 4538,
            l0_hits: 264,
            l0_misses: 2706,
            l1_hits: 456,
            l1_misses: 2250,
            hbm_read_bytes: 144000,
            hbm_write_bytes: 190080,
            flops: 0,
            work_items: 6000,
        },
    );
    check(
        "uniform_spgemm",
        "multiply",
        &rep.multiply,
        &Golden {
            cycles: 20038,
            l0_hits: 25744,
            l0_misses: 4255,
            l1_hits: 1771,
            l1_misses: 2484,
            hbm_read_bytes: 158976,
            hbm_write_bytes: 1484736,
            flops: 93625,
            work_items: 6000,
        },
    );
    check(
        "uniform_spgemm",
        "merge",
        &rep.merge,
        &Golden {
            cycles: 28074,
            l0_hits: 5,
            l0_misses: 23194,
            l1_hits: 134,
            l1_misses: 23060,
            hbm_read_bytes: 1475840,
            hbm_write_bytes: 857472,
            flops: 24059,
            work_items: 384,
        },
    );
}

/// Outer-product SpMV: both passes fold into one report; multiply + merge
/// phases pinned.
#[test]
fn golden_spmv() {
    let a = uniform::matrix(1024, 1024, 16384, 8).to_csc();
    let x = vector::sparse(1024, 0.1, 9);
    let (_, rep) = sim().spmv(&a, &x).unwrap();
    check(
        "spmv",
        "multiply",
        &rep.multiply,
        &Golden {
            cycles: 825,
            l0_hits: 102,
            l0_misses: 431,
            l1_hits: 0,
            l1_misses: 431,
            hbm_read_bytes: 27584,
            hbm_write_bytes: 25536,
            flops: 1641,
            work_items: 102,
        },
    );
    check(
        "spmv",
        "merge",
        &rep.merge,
        &Golden {
            cycles: 512,
            l0_hits: 0,
            l0_misses: 360,
            l1_hits: 60,
            l1_misses: 300,
            hbm_read_bytes: 19200,
            hbm_write_bytes: 13824,
            flops: 821,
            work_items: 820,
        },
    );
}

/// SpArch machine model on the symmetric R-MAT workload: condensed multiply
/// and merge tree pinned. Same operands as `golden_rmat_spgemm`, so any
/// cross-machine drift shows up side by side.
#[test]
fn golden_sparch_rmat_spgemm() {
    let g = rmat::graph500(512, 8000, 4);
    let (_, rep) = sparch_sim().spgemm(&g, &g).unwrap();
    assert!(rep.convert.is_none(), "SpArch never charges conversion");
    check(
        "sparch_rmat",
        "multiply",
        &rep.multiply,
        &Golden {
            cycles: 147408,
            l0_hits: 59366,
            l0_misses: 76339,
            l1_hits: 12072,
            l1_misses: 64267,
            hbm_read_bytes: 4113088,
            hbm_write_bytes: 8090048,
            flops: 627471,
            work_items: 9357,
        },
    );
    check(
        "sparch_rmat",
        "merge",
        &rep.merge,
        &Golden {
            cycles: 435057,
            l0_hits: 39,
            l0_misses: 127693,
            l1_hits: 18,
            l1_misses: 127675,
            hbm_read_bytes: 8171200,
            hbm_write_bytes: 2194240,
            flops: 497054,
            work_items: 5,
        },
    );
}

/// SpArch machine model on the asymmetric uniform workload: no conversion
/// phase exists (SpArch consumes CSR directly), unlike the OuterSPACE pin
/// for the same operands.
#[test]
fn golden_sparch_uniform_spgemm() {
    let a = uniform::matrix(384, 384, 6000, 7);
    let b = uniform::matrix(384, 384, 6000, 11);
    let (_, rep) = sparch_sim().spgemm(&a, &b).unwrap();
    assert!(rep.convert.is_none(), "SpArch never charges conversion");
    check(
        "sparch_uniform",
        "multiply",
        &rep.multiply,
        &Golden {
            cycles: 12251,
            l0_hits: 7607,
            l0_misses: 21652,
            l1_hits: 6666,
            l1_misses: 14986,
            hbm_read_bytes: 959104,
            hbm_write_bytes: 0,
            flops: 93625,
            work_items: 6000,
        },
    );
    check(
        "sparch_uniform",
        "merge",
        &rep.merge,
        &Golden {
            cycles: 36458,
            l0_hits: 0,
            l0_misses: 0,
            l1_hits: 0,
            l1_misses: 0,
            hbm_read_bytes: 0,
            hbm_write_bytes: 834816,
            flops: 24059,
            work_items: 1,
        },
    );
}

/// N-way element-wise sum riding the merge datapath.
#[test]
fn golden_elementwise() {
    let mats: Vec<_> =
        (0..4).map(|s| uniform::matrix(256, 256, 3000, 20 + s)).collect();
    let refs: Vec<&_> = mats.iter().collect();
    let (_, rep) = sim().elementwise_sum(&refs).unwrap();
    check(
        "elementwise",
        "merge",
        &rep.merge,
        &Golden {
            cycles: 3688,
            l0_hits: 0,
            l0_misses: 3219,
            l1_hits: 946,
            l1_misses: 2273,
            hbm_read_bytes: 145472,
            hbm_write_bytes: 149504,
            flops: 790,
            work_items: 256,
        },
    );
}

/// One phase's pinned cycle attribution: every [`CycleBreakdown`] field the
/// engine computes, compared with `==` (no drift tolerance). The stall and
/// idle split comes from the PE queues and dispatch order, so these pins
/// catch attribution changes the ±0.5% [`PhaseStats`] pins cannot.
#[derive(Debug, Clone, Copy)]
struct Attribution {
    makespan: u64,
    busy: u64,
    stall_l0: u64,
    stall_l1: u64,
    stall_hbm: u64,
    idle: u64,
    lost: u64,
    channel_busy: &'static [u64],
}

fn check_attribution(scenario: &str, phase: &str, bd: &CycleBreakdown, want: &Attribution) {
    if capture_mode() {
        println!(
            "({scenario}/{phase}) Attribution {{ makespan: {}, busy: {}, stall_l0: {}, \
             stall_l1: {}, stall_hbm: {}, idle: {}, lost: {}, channel_busy: &{:?} }},",
            bd.makespan,
            bd.busy_cycles,
            bd.stall_l0_cycles,
            bd.stall_l1_cycles,
            bd.stall_hbm_cycles,
            bd.idle_cycles,
            bd.lost_cycles,
            bd.channel_busy_cycles
        );
        return;
    }
    let got = (
        bd.makespan,
        bd.busy_cycles,
        [bd.stall_l0_cycles, bd.stall_l1_cycles, bd.stall_hbm_cycles],
        bd.idle_cycles,
        bd.lost_cycles,
    );
    let pinned = (
        want.makespan,
        want.busy,
        [want.stall_l0, want.stall_l1, want.stall_hbm],
        want.idle,
        want.lost,
    );
    assert_eq!(got, pinned, "{scenario}/{phase}: (makespan, busy, stalls, idle, lost) moved");
    assert_eq!(bd.channel_busy_cycles, want.channel_busy, "{scenario}/{phase}: channel busy");
}

/// Runs `a × b` through the machine model directly, the path that hands
/// back per-phase [`CycleBreakdown`]s.
fn pipeline(cfg: &OuterSpaceConfig, a: &Csr, b: &Csr) -> SpgemmPipeline {
    model::for_kind(cfg.machine).spgemm(cfg, a, b).expect("pinned scenarios run clean")
}

fn machine(kind: MachineKind) -> OuterSpaceConfig {
    OuterSpaceConfig { machine: kind, ..OuterSpaceConfig::default() }
}

fn check_pipeline(scenario: &str, p: &SpgemmPipeline, multiply: &Attribution, merge: &Attribution) {
    check_attribution(scenario, "multiply", &p.multiply_breakdown, multiply);
    check_attribution(scenario, "merge", &p.merge_breakdown, merge);
}

fn rmat_operands() -> Csr {
    rmat::graph500(512, 8000, 4)
}

fn uniform_operands() -> (Csr, Csr) {
    (uniform::matrix(384, 384, 6000, 7), uniform::matrix(384, 384, 6000, 11))
}

#[test]
fn exact_attribution_rmat_outerspace() {
    let g = rmat_operands();
    let p = pipeline(&machine(MachineKind::OuterSpace), &g, &g);
    check_pipeline(
        "rmat_outerspace",
        &p,
        &Attribution {
            makespan: 99152,
            busy: 884805,
            stall_l0: 0,
            stall_l1: 10,
            stall_hbm: 15858392,
            idle: 8639705,
            lost: 0,
            channel_busy: &[
                97800, 98100, 97656, 97416, 97872, 98016, 97500, 97800,
                97740, 97476, 97908, 98040, 97884, 97608, 97740, 97296,
            ],
        },
        &Attribution {
            makespan: 224343,
            busy: 1626919,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 10735670,
            idle: 1995363,
            lost: 0,
            channel_busy: &[
                117528, 118092, 117816, 117660, 117996, 118200, 117744, 117936,
                117720, 117672, 117984, 118356, 118128, 117660, 117948, 117528,
            ],
        },
    );
}

#[test]
fn exact_attribution_uniform_outerspace() {
    let (a, b) = uniform_operands();
    let p = pipeline(&machine(MachineKind::OuterSpace), &a, &b);
    check_pipeline(
        "uniform_outerspace",
        &p,
        &Attribution {
            makespan: 20038,
            busy: 143109,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 2389596,
            idle: 2597023,
            lost: 0,
            channel_busy: &[
                19032, 18984, 19620, 19320, 19272, 19404, 19008, 19476,
                19284, 19224, 18996, 19524, 19128, 19224, 19008, 19692,
            ],
        },
        &Attribution {
            makespan: 28074,
            busy: 332491,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 861358,
            idle: 602887,
            lost: 0,
            channel_busy: &[
                27132, 27096, 27588, 27360, 27348, 27456, 27120, 27600,
                27288, 27192, 27072, 27672, 27276, 27420, 27168, 27708,
            ],
        },
    );
}

#[test]
fn exact_attribution_rmat_sparch() {
    let g = rmat_operands();
    let p = pipeline(&machine(MachineKind::SpArch), &g, &g);
    check_pipeline(
        "rmat_sparch",
        &p,
        &Attribution {
            makespan: 147408,
            busy: 884805,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 1458119,
            idle: 15604,
            lost: 0,
            channel_busy: &[
                143220, 141828, 141660, 143928, 143904, 145920, 140148, 142656,
                142896, 143868, 143148, 143832, 142080, 142584, 143448, 142968,
            ],
        },
        &Attribution {
            makespan: 435057,
            busy: 162016,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 273041,
            idle: 0,
            lost: 0,
            channel_busy: &[
                121416, 121464, 121500, 121596, 121404, 121416, 121500, 121500,
                121452, 121464, 121476, 121452, 121440, 121440, 121512, 121488,
            ],
        },
    );
}

#[test]
fn exact_attribution_uniform_sparch() {
    let (a, b) = uniform_operands();
    let p = pipeline(&machine(MachineKind::SpArch), &a, &b);
    check_pipeline(
        "uniform_sparch",
        &p,
        &Attribution {
            makespan: 12251,
            busy: 122856,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 71472,
            idle: 1688,
            lost: 0,
            channel_busy: &[
                11376, 11580, 11856, 11448, 11592, 11184, 11148, 10560,
                10452, 11220, 11148, 11388, 10512, 11616, 11676, 11076,
            ],
        },
        &Attribution {
            makespan: 36458,
            busy: 36458,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 0,
            idle: 0,
            lost: 0,
            channel_busy: &[
                9792, 9792, 9792, 9792, 9780, 9780, 9780, 9780,
                9780, 9780, 9780, 9780, 9780, 9780, 9780, 9780,
            ],
        },
    );
}

/// PE kills (so `lost` is non-zero in both phases) plus ECC retries and
/// dropped responses on the HBM read path.
#[test]
fn exact_attribution_rmat_outerspace_under_faults() {
    let g = rmat_operands();
    let mut cfg = machine(MachineKind::OuterSpace);
    cfg.faults.seed = 11;
    cfg.faults.pe_kill_count = 6;
    cfg.faults.pe_kill_cycle = 20_000;
    cfg.faults.hbm_ber = 1e-5;
    cfg.faults.drop_rate = 1e-3;
    let p = pipeline(&cfg, &g, &g);
    assert!(p.multiply.killed_pes > 0 && p.merge.killed_pes > 0, "kills must fire in both phases");
    assert!(p.multiply.ecc_retries + p.merge.ecc_retries > 0, "ECC must retry");
    check_pipeline(
        "rmat_outerspace_faults",
        &p,
        &Attribution {
            makespan: 99171,
            busy: 610082,
            stall_l0: 0,
            stall_l1: 2,
            stall_hbm: 16143508,
            idle: 7809481,
            lost: 824703,
            channel_busy: &[
                97728, 98112, 97752, 97416, 97860, 98040, 97524, 97824,
                97764, 97488, 97872, 98064, 97920, 97632, 97800, 97332,
            ],
        },
        &Attribution {
            makespan: 247717,
            busy: 1172623,
            stall_l0: 0,
            stall_l1: 0,
            stall_hbm: 11285450,
            idle: 1555621,
            lost: 1840194,
            channel_busy: &[
                118092, 118704, 118428, 118392, 118584, 118788, 118332, 118548,
                118428, 118308, 118680, 118944, 118788, 118224, 118428, 118032,
            ],
        },
    );
}
