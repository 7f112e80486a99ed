//! §4.3: format-conversion amortization over chained multiplications.
//!
//! "When matrices A and B are not available in the CC and CR formats ...
//! This is a one-time requirement for chained multiplication operations of
//! the type A×B×C..., since OuterSPACE can output the result in either CR
//! or CC formats. ... The requirement of conversion is obviated for
//! symmetric matrices."
//!
//! This study measures the conversion phase's share of total simulated time
//! as the chain grows (conversion paid once, at the head), and confirms the
//! symmetric-input exemption.

use outerspace::prelude::*;

use crate::runner::{field_f64, CaseResult, Runner, RunSummary};
use crate::{fmt_secs, HarnessDefaults, HarnessOpts};

/// Artifact basename.
pub const NAME: &str = "sec43";
/// Defaults for `--scale` / `--max-case-secs`.
pub const DEFAULTS: HarnessDefaults = HarnessDefaults { scale: 1, max_case_secs: 300.0 };

struct Row {
    chain_length: u32,
    total_s: f64,
    conversion_s: f64,
    conversion_pct: f64,
}

outerspace_json::impl_to_json!(Row { chain_length, total_s, conversion_s, conversion_pct });

struct SymRow {
    conversion_skipped: bool,
}

outerspace_json::impl_to_json!(SymRow { conversion_skipped });

/// Keeps the `k` largest-magnitude entries of each row.
fn sparsify_top_k(m: &Csr, k: usize) -> Csr {
    let mut row_ptr = vec![0usize];
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..m.nrows() {
        let (rc, rv) = m.row(i);
        let mut entries: Vec<(u32, f64)> =
            rc.iter().copied().zip(rv.iter().copied()).collect();
        entries.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
        entries.truncate(k);
        entries.sort_by_key(|&(c, _)| c);
        for (c, v) in entries {
            cols.push(c);
            vals.push(v);
        }
        row_ptr.push(cols.len());
    }
    Csr::new(m.nrows(), m.ncols(), row_ptr, cols, vals).expect("valid by construction")
}

/// Runs the §4.3 conversion-amortization study through the crash-safe runner.
pub fn run(opts: &HarnessOpts) -> RunSummary {
    let mut runner = Runner::new(NAME, opts);
    let n = 4096 / opts.scale;

    println!("# Section 4.3 reproduction: conversion amortization over chains");
    println!("# n = {n}, ~{} nnz per factor", 8 * n);
    println!("{:>6} {:>12} {:>12} {:>8}", "chain", "total", "conversion", "conv %");

    for len in 1..=8u32 {
        let seed = opts.seed;
        runner.run_case(&format!("chain{len}"), move || -> CaseResult<Row> {
            let sim = Simulator::new(OuterSpaceConfig::default()).expect("valid config");
            // Chain head: an asymmetric matrix that must be converted once.
            // Each subsequent factor multiplies on the right; the running
            // product is consumed in CC form (spgemm_cc_operand), so no
            // further conversions.
            let factors: Vec<Csr> = (0..len.max(2) as u64)
                .map(|i| outerspace::gen::uniform::matrix(n, n, 8 * n as usize, seed + i))
                .collect();
            let mut conversion_cycles = 0u64;
            let mut total_cycles = 0u64;
            // First product charges the conversion of the head factor.
            let (mut acc, rep) = sim
                .spgemm(&factors[0], &factors[1.min(len as usize - 1)])
                .expect("square");
            conversion_cycles += rep.convert.map(|c| c.cycles).unwrap_or(0);
            total_cycles += rep.total_cycles();
            // Remaining factors consume the CC-format running product directly.
            for f in factors.iter().take(len as usize).skip(2) {
                // Sparsify the running product (keep the strongest entries per
                // row) so the chain stays sparse, as iterative applications like
                // Markov clustering do between multiplications.
                acc = sparsify_top_k(&acc, 8);
                let (next, rep) = sim.spgemm_cc_operand(&acc.to_csc(), f).expect("square");
                assert!(rep.convert.is_none());
                total_cycles += rep.total_cycles();
                acc = next;
            }
            let cfg = OuterSpaceConfig::default();
            let row = Row {
                chain_length: len,
                total_s: cfg.cycles_to_seconds(total_cycles),
                conversion_s: cfg.cycles_to_seconds(conversion_cycles),
                conversion_pct: 100.0 * conversion_cycles as f64 / total_cycles.max(1) as f64,
            };
            println!(
                "{:>6} {:>12} {:>12} {:>7.1}%",
                row.chain_length,
                fmt_secs(row.total_s),
                fmt_secs(row.conversion_s),
                row.conversion_pct
            );
            Ok(row)
        });
    }

    // Symmetric exemption.
    {
        let seed = opts.seed;
        runner.run_case("symmetric", move || -> CaseResult<SymRow> {
            let sim = Simulator::new(OuterSpaceConfig::default()).expect("valid config");
            let sym = outerspace::gen::rmat::graph500(n, 6 * n as usize, seed);
            let (_, rep) = sim.spgemm(&sym, &sym).expect("square");
            println!(
                "# symmetric input: conversion phase {} (paper: obviated entirely)",
                if rep.convert.is_none() { "skipped" } else { "charged!" }
            );
            Ok(SymRow { conversion_skipped: rep.convert.is_none() })
        });
    }

    let pcts: Vec<f64> = runner
        .ok_values()
        .filter(|r| r.get("chain_length").is_some())
        .filter_map(|r| field_f64(r, "conversion_pct"))
        .collect();
    if pcts.len() >= 2 && pcts.last() >= pcts.first() {
        println!(
            "# WARNING: conversion share did not shrink with chain length \
             ({:.1}% -> {:.1}%) — expected amortization (§4.3)",
            pcts[0],
            pcts[pcts.len() - 1]
        );
    }
    runner.finalize()
}
