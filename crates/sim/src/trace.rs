//! PE instruction traces — the paper's simulation methodology made explicit.
//!
//! §6: "We built an instruction trace generator for the PEs and ran the
//! generated traces through our gem5 model in order to process large
//! matrices." This module provides the same two artifacts for the multiply
//! phase:
//!
//! * [`record_multiply`] — runs the multiply-phase timing model while
//!   recording every PE work item (operand reads, MAC counts, chunk store)
//!   in dispatch order, producing a [`MultiplyTrace`];
//! * [`replay_multiply`] — re-times a recorded trace on a (possibly
//!   different) configuration without touching matrix data.
//!
//! Replaying on the *same* configuration reproduces the direct simulation
//! cycle-for-cycle (asserted in tests). Replaying on a different
//! configuration is a fast what-if study — note that the schedule is frozen
//! at recording time, so PE-count changes are not meaningful in replay;
//! cache, queue, latency and bandwidth changes are.

use outerspace_sparse::{Csc, Csr};

use crate::config::OuterSpaceConfig;
use crate::engine::{self, KernelObserver, PeCtx};
use crate::error::SimError;
use crate::layout::IntermediateLayout;
use crate::machine::PeArray;
use crate::mem::MemorySystem;
use crate::phases::collect_stats;
use crate::phases::multiply::{chunk_script, ChunkItem, MultiplyKernel};
use crate::stats::PhaseStats;

/// One entry of a multiply-phase trace, in global dispatch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A control-processor pointer-array read (scheduling stream).
    PtrRead {
        /// Tile whose L0 services the read.
        tile: usize,
        /// Byte address of the pointer entry.
        addr: u64,
    },
    /// One chunk computation on one PE: load an element of the column-of-A,
    /// stream the paired row-of-B, multiply, store the chunk.
    Chunk {
        /// Global PE index chosen by the greedy scheduler at record time.
        pe: usize,
        /// Tile (L0 domain) the PE belongs to.
        tile: usize,
        /// Address of the column-of-A element.
        a_addr: u64,
        /// Base address of the row-of-B.
        b_addr: u64,
        /// Bytes in the row-of-B (12 per element).
        b_bytes: u64,
        /// Elements in the row (MAC count).
        macs: u64,
        /// Destination address of the produced chunk.
        store_addr: u64,
    },
}

/// A recorded multiply phase: the dispatch-ordered record stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiplyTrace {
    /// Records in global dispatch order.
    pub records: Vec<TraceRecord>,
    /// The configuration active at record time.
    pub recorded_on: OuterSpaceConfig,
}

impl MultiplyTrace {
    /// Number of chunk work items in the trace.
    pub fn chunk_count(&self) -> usize {
        self.records.iter().filter(|r| matches!(r, TraceRecord::Chunk { .. })).count()
    }

    /// Total MACs across all chunks.
    pub fn total_macs(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                TraceRecord::Chunk { macs, .. } => *macs,
                TraceRecord::PtrRead { .. } => 0,
            })
            .sum()
    }
}

/// Observer that mirrors the engine's dispatch stream into trace records.
#[derive(Debug, Default)]
struct TraceObserver {
    records: Vec<TraceRecord>,
}

impl KernelObserver<ChunkItem> for TraceObserver {
    fn on_control_read(&mut self, group: usize, addr: u64) {
        self.records.push(TraceRecord::PtrRead { tile: group, addr });
    }

    fn on_item(&mut self, pe: usize, group: usize, item: &ChunkItem) {
        self.records.push(TraceRecord::Chunk {
            pe,
            tile: group,
            a_addr: item.a_addr,
            b_addr: item.b_addr,
            b_bytes: item.b_bytes,
            macs: item.macs,
            store_addr: item.store_addr,
        });
    }
}

/// Runs the multiply phase exactly like
/// [`crate::phases::multiply::simulate_multiply`] while recording the
/// trace: the same [`MultiplyKernel`] runs through the same engine loop,
/// with an observer tapping the dispatch stream.
///
/// # Errors
///
/// Fault injection only, as `simulate_multiply`.
///
/// # Panics
///
/// Panics if `a.ncols() != b.nrows()`.
pub fn record_multiply(
    cfg: &OuterSpaceConfig,
    a: &Csc,
    b: &Csr,
) -> Result<(PhaseStats, IntermediateLayout, MultiplyTrace), SimError> {
    assert_eq!(a.ncols(), b.nrows(), "driver must validate shapes");
    let mut mem = MemorySystem::for_multiply(cfg);
    let mut pes = PeArray::new(
        cfg.n_tiles as usize,
        cfg.pes_per_tile as usize,
        cfg.outstanding_requests as usize,
    );
    let mut layout = IntermediateLayout::new(a.nrows());
    let kernel = MultiplyKernel::new(a, b, &mut layout);
    let mut obs = TraceObserver::default();
    let (stats, _) = engine::run_kernel_observed(cfg, &mut mem, &mut pes, kernel, &mut obs)?;
    Ok((stats, layout, MultiplyTrace { records: obs.records, recorded_on: cfg.clone() }))
}

/// Re-times a recorded trace on `cfg` (frozen schedule; see module docs).
/// Each chunk record replays the same [`chunk_script`] the live simulation
/// runs, on a standalone [`PeCtx`].
pub fn replay_multiply(cfg: &OuterSpaceConfig, trace: &MultiplyTrace) -> PhaseStats {
    let mut mem = MemorySystem::for_multiply(cfg);
    let n_tiles = cfg.n_tiles as usize;
    let block = cfg.block_bytes as u64;
    let mut pes = PeArray::new(
        n_tiles,
        cfg.pes_per_tile as usize,
        cfg.outstanding_requests as usize,
    );
    let mut flops = 0u64;
    let mut work_items = 0u64;
    for rec in &trace.records {
        match *rec {
            TraceRecord::PtrRead { tile, addr } => {
                let tile = tile.min(n_tiles - 1);
                let t = pes.group_min_time(tile);
                let _ = mem.read(tile, addr, t);
            }
            TraceRecord::Chunk { pe, tile, a_addr, b_addr, b_bytes, macs, store_addr } => {
                let tile = tile.min(n_tiles - 1);
                let pe = pe.min(pes.len() - 1);
                work_items += 1;
                flops += macs;
                let item = ChunkItem { a_addr, b_addr, b_bytes, macs, store_addr };
                let mut ctx = PeCtx::new(&mut mem, pes.pe_mut(pe), tile, block);
                chunk_script(&item, &mut ctx);
            }
        }
    }
    let mut stats = collect_stats(cfg, &mut mem, &mut pes, flops);
    stats.work_items = work_items;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::multiply::simulate_multiply;
    use outerspace_gen::{powerlaw, uniform};

    #[test]
    fn replay_on_same_config_is_cycle_exact() {
        let cfg = OuterSpaceConfig::default();
        for seed in [1u64, 2] {
            let a = uniform::matrix(256, 256, 3000, seed);
            let (direct, _) = simulate_multiply(&cfg, &a.to_csc(), &a).unwrap();
            let (recorded, _, trace) = record_multiply(&cfg, &a.to_csc(), &a).unwrap();
            assert_eq!(direct.cycles, recorded.cycles, "recording must not perturb timing");
            let replayed = replay_multiply(&cfg, &trace);
            assert_eq!(replayed.cycles, direct.cycles, "replay must be cycle-exact");
            assert_eq!(replayed.hbm_read_bytes, direct.hbm_read_bytes);
            assert_eq!(replayed.flops, direct.flops);
        }
    }

    #[test]
    fn trace_counts_match_algorithm() {
        let cfg = OuterSpaceConfig::default();
        let a = powerlaw::graph(512, 6000, 3);
        let (_, _, trace) = record_multiply(&cfg, &a.to_csc(), &a).unwrap();
        let (_, soft) = outerspace_outer::multiply(&a.to_csc(), &a).unwrap();
        assert_eq!(trace.chunk_count() as u64, soft.chunks);
        assert_eq!(trace.total_macs(), soft.elementary_products);
    }

    #[test]
    fn replay_under_halved_bandwidth_is_slower() {
        let cfg = OuterSpaceConfig::default();
        let a = uniform::matrix(1024, 1024, 12_000, 4);
        let (_, _, trace) = record_multiply(&cfg, &a.to_csc(), &a).unwrap();
        let base = replay_multiply(&cfg, &trace);
        let mut slow = cfg.clone();
        slow.hbm_channel_mb_per_sec /= 4;
        let slowed = replay_multiply(&slow, &trace);
        assert!(slowed.cycles > base.cycles);
    }

    #[test]
    fn replay_under_bigger_l0_hits_more() {
        let cfg = OuterSpaceConfig::default();
        let a = powerlaw::graph(2048, 30_000, 5);
        let (_, _, trace) = record_multiply(&cfg, &a.to_csc(), &a).unwrap();
        let base = replay_multiply(&cfg, &trace);
        let mut big = cfg.clone();
        big.l0_multiply_bytes *= 8;
        let bigger = replay_multiply(&big, &trace);
        assert!(bigger.l0_hit_rate() >= base.l0_hit_rate());
    }
}
