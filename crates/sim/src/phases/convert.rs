//! Timing model of format conversion (§4.3): `I_CC × A_CR → A_CC`.
//!
//! Both conversion phases are pure streams through the PEs: the
//! *conversion-load* pass reads `A` row by row and scatters entries into
//! per-column lists (the multiply phase's write pattern with the identity as
//! the left operand); the *conversion-merge* pass gathers each column list
//! into the final CC arrays. No arithmetic is performed, so the phase is
//! bandwidth-bound — which is why the paper amortizes it over chained
//! multiplications.

use outerspace_sparse::Csr;

use crate::config::OuterSpaceConfig;
use crate::error::SimError;
use crate::layout::{A_BASE, ELEM_BYTES, SCRATCH_BASE};
use crate::machine::PeArray;
use crate::mem::MemorySystem;
use crate::phases::{run_stream_phase, StreamItem};
use crate::stats::PhaseStats;

/// Simulates converting `a` (CR) to CC, returning the combined statistics of
/// the conversion-load and conversion-merge passes.
///
/// # Errors
///
/// Fault injection only: every PE dead, an access out of retries, or a
/// watchdog timeout ([`SimError`]). Fault-free configurations cannot fail.
pub fn simulate_convert(cfg: &OuterSpaceConfig, a: &Csr) -> Result<PhaseStats, SimError> {
    // --- Conversion-load: stream rows, scatter to column lists. ---
    let mut mem = MemorySystem::for_multiply(cfg);
    let mut pes = PeArray::new(
        cfg.n_tiles as usize,
        cfg.pes_per_tile as usize,
        cfg.outstanding_requests as usize,
    );
    let row_ptr = a.row_ptr();
    let load_items = (0..a.nrows() as usize).filter_map(|r| {
        let len = (row_ptr[r + 1] - row_ptr[r]) as u64;
        if len == 0 {
            return None;
        }
        Some(StreamItem {
            read_addr: A_BASE + row_ptr[r] as u64 * ELEM_BYTES,
            read_bytes: len * ELEM_BYTES,
            write_addr: SCRATCH_BASE + row_ptr[r] as u64 * ELEM_BYTES,
            write_bytes: len * ELEM_BYTES,
            compute_cycles: len, // one list-append per entry
        })
    });
    let load = run_stream_phase("convert", cfg, &mut mem, &mut pes, load_items)?;

    // --- Conversion-merge: gather each column list into the CC arrays. ---
    // Column lengths are counted in one pass over the column indices; the
    // per-column lists are pre-sorted by row (rows streamed in order), so
    // the merge is a gather with one cycle of bookkeeping per entry.
    let mut mem2 = MemorySystem::for_merge(cfg);
    let n_workers = (cfg.n_tiles * cfg.merge_pairs_per_tile()) as usize;
    let mut workers = PeArray::new(n_workers, 1, cfg.outstanding_requests as usize);
    let ncols = a.ncols() as usize;
    let mut col_ptr = vec![0usize; ncols + 1];
    for &c in a.col_indices() {
        col_ptr[c as usize + 1] += 1;
    }
    for c in 0..ncols {
        col_ptr[c + 1] += col_ptr[c];
    }
    let merge_items = (0..ncols).filter_map(|c| {
        let len = (col_ptr[c + 1] - col_ptr[c]) as u64;
        if len == 0 {
            return None;
        }
        Some(StreamItem {
            read_addr: SCRATCH_BASE + col_ptr[c] as u64 * ELEM_BYTES,
            read_bytes: len * ELEM_BYTES,
            write_addr: A_BASE + col_ptr[c] as u64 * ELEM_BYTES,
            write_bytes: len * ELEM_BYTES,
            compute_cycles: len,
        })
    });
    let merge = run_stream_phase("convert", cfg, &mut mem2, &mut workers, merge_items)?;

    let mut total = load;
    total.cycles += merge.cycles; // the passes are sequential
    total.flops += merge.flops;
    total.hbm_read_bytes += merge.hbm_read_bytes;
    total.hbm_write_bytes += merge.hbm_write_bytes;
    total.l0_hits += merge.l0_hits;
    total.l0_misses += merge.l0_misses;
    total.l1_hits += merge.l1_hits;
    total.l1_misses += merge.l1_misses;
    total.work_items = a.nnz() as u64;
    total.busy_pe_cycles += merge.busy_pe_cycles;
    total.ecc_retries += merge.ecc_retries;
    total.dropped_responses += merge.dropped_responses;
    total.fault_penalty_cycles += merge.fault_penalty_cycles;
    total.silent_corruptions += merge.silent_corruptions;
    total.requeued_work_items += merge.requeued_work_items;
    total.killed_pes += merge.killed_pes;
    total.stall_l0_cycles += merge.stall_l0_cycles;
    total.stall_l1_cycles += merge.stall_l1_cycles;
    total.stall_hbm_cycles += merge.stall_hbm_cycles;
    total.idle_pe_cycles += merge.idle_pe_cycles;
    total.lost_pe_cycles += merge.lost_pe_cycles;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;

    #[test]
    fn traffic_is_linear_in_nnz() {
        let cfg = OuterSpaceConfig::default();
        let a1 = uniform::matrix(256, 256, 2000, 1);
        let a2 = uniform::matrix(256, 256, 8000, 1);
        let s1 = simulate_convert(&cfg, &a1).unwrap();
        let s2 = simulate_convert(&cfg, &a2).unwrap();
        let ratio = s2.hbm_bytes() as f64 / s1.hbm_bytes() as f64;
        assert!((2.0..8.0).contains(&ratio), "traffic ratio {ratio}");
        assert!(s2.cycles > s1.cycles);
    }

    #[test]
    fn no_flops_charged() {
        let cfg = OuterSpaceConfig::default();
        let a = uniform::matrix(64, 64, 500, 2);
        let s = simulate_convert(&cfg, &a).unwrap();
        assert_eq!(s.flops, 0);
        assert_eq!(s.work_items, 500);
    }

    #[test]
    fn empty_matrix_costs_nothing() {
        let cfg = OuterSpaceConfig::default();
        let s = simulate_convert(&cfg, &outerspace_sparse::Csr::zero(64, 64)).unwrap();
        assert_eq!(s.hbm_bytes(), 0);
    }

    #[test]
    fn conversion_is_cheaper_than_multiply_for_dense_work() {
        // For a matrix with meaningful fill, conversion (O(nnz)) should be
        // far cheaper than the multiply phase (O(nnz^2/N)).
        let cfg = OuterSpaceConfig::default();
        let a = uniform::matrix(256, 256, 8000, 3);
        let conv = simulate_convert(&cfg, &a).unwrap();
        let (mul, _) = crate::phases::multiply::simulate_multiply(&cfg, &a.to_csc(), &a).unwrap();
        assert!(conv.cycles < mul.cycles);
    }
}
