//! The shared phase-execution engine.
//!
//! Every simulated phase used to carry its own copy of the same loop: pick
//! a PE with the greedy scheduler, walk a per-work-item memory script
//! through [`MemorySystem`], apply the fault model, collect [`PhaseStats`].
//! This module extracts that loop once. A phase now implements
//! [`PhaseKernel`] — a work *generator* ([`PhaseKernel::next`]) plus a
//! per-item memory *script* ([`PhaseKernel::execute`] over [`PeCtx`]) — and
//! [`run_kernel`] owns PE/tile iteration, memory access, fault-injection
//! hooks and stat collection for all of them.
//!
//! Because the engine sits on the issue/track path of every request, it can
//! attribute every PE cycle: busy, stalled on an L0/L1/HBM completion, or
//! idle. The result is a hierarchical [`CycleBreakdown`] (per PE class,
//! plus per-HBM-channel occupancy) — the accounting behind the paper's
//! Fig. 12 utilization and bandwidth plots. Every run satisfies
//! `busy + stalls + idle + lost == makespan × n_pes` exactly (asserted in
//! tests): the reap/requeue recovery path advances survivor clocks outside
//! the script wrappers, so those cycles — recovery waits, re-executed
//! overshoot, and each corpse's dead-silicon tail — land in the explicit
//! `lost` bucket rather than polluting busy or idle. Fault-free runs have
//! `lost == 0` and the classic three-way identity.
//!
//! [`KernelObserver`] taps the same loop for tracing: the multiply-phase
//! trace recorder is an observer, and [`EventLog`] serializes every engine
//! action as JSON lines through [`outerspace_json::dump`]'s append-safe
//! writer.

use std::io;
use std::path::Path;

use outerspace_json::{impl_to_json, Json, ToJson};

use crate::config::OuterSpaceConfig;
use crate::error::SimError;
use crate::machine::{PeArray, PeTimeline};
use crate::mem::{AccessOutcome, MemorySystem};
use crate::phases::{apply_fault_model, check_phase_health, collect_stats};
use crate::stats::PhaseStats;

/// How a batch's items map onto PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Each item goes to the globally earliest live PE (merge workers,
    /// stream phases).
    PerItem,
    /// Items are dealt to tiles in `pes_per_group`-sized runs so one tile
    /// shares one working set at a time (the multiply phase's B-row
    /// affinity, §5.4.1).
    TileBatched,
}

/// A run of independent work items released together.
#[derive(Debug, Clone)]
pub struct Batch<T> {
    /// The items, executed in order.
    pub items: Vec<T>,
    /// No item may start before this cycle (inter-pass dependencies: a
    /// merge sub-pass cannot start before the previous pass's runs exist).
    pub min_start: u64,
}

/// One step of a kernel's work stream.
#[derive(Debug, Clone)]
pub enum Step<T> {
    /// Control-processor reads (scheduling streams), charged to the
    /// earliest group's L0 at its current frontier.
    Control {
        /// Byte addresses to read.
        reads: Vec<u64>,
    },
    /// A batch of PE work items.
    Batch(Batch<T>),
    /// The kernel has no more work.
    Done,
}

/// What the engine reports back to the kernel between steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Feedback {
    /// Max PE completion time over the previous batch's items (0 before
    /// any batch ran) — the barrier a dependent pass waits on.
    pub batch_done: u64,
}

/// A phase model: a work generator plus a per-item memory script.
///
/// The contract mirrors the hand-rolled loops it replaced:
/// [`next`](Self::next) is called repeatedly and yields control reads,
/// batches, or [`Step::Done`]; [`execute`](Self::execute) runs one item on
/// the PE the engine selected, touching memory only through [`PeCtx`];
/// [`finish`](Self::finish) patches phase-specific fields (flops, work
/// items) into the collected stats.
pub trait PhaseKernel {
    /// One unit of PE work.
    type Item;

    /// Phase name for error reporting.
    fn phase(&self) -> &'static str;

    /// PE-class label for the [`CycleBreakdown`].
    fn pe_class(&self) -> &'static str {
        "pe"
    }

    /// How batches map onto PEs.
    fn dispatch(&self) -> Dispatch {
        Dispatch::PerItem
    }

    /// Produces the next step. `fb` carries the previous batch's
    /// completion frontier.
    fn next(&mut self, fb: &Feedback) -> Step<Self::Item>;

    /// Executes one item's memory script on the selected PE.
    fn execute(&mut self, item: &Self::Item, ctx: &mut PeCtx<'_>);

    /// Patches phase-specific fields into the collected stats.
    fn finish(&mut self, _stats: &mut PhaseStats) {}
}

/// Observer hooks on the engine loop (tracing, event logs). All hooks fire
/// *before* the corresponding timing action, in dispatch order.
pub trait KernelObserver<Item> {
    /// A control-processor read is about to be charged to `group`.
    fn on_control_read(&mut self, _group: usize, _addr: u64) {}
    /// `item` is about to execute on `pe` (global index) in `group`.
    fn on_item(&mut self, _pe: usize, _group: usize, _item: &Item) {}
    /// Polled at every dispatch step with the earliest live-PE cycle — a
    /// monotone lower bound on the phase's final makespan. Returning `true`
    /// stops the run with [`SimError::Aborted`]; the default never aborts,
    /// so observers that only trace see identical behavior to before the
    /// hook existed. This is the engine half of the DSE dominance
    /// early-abort: once the lower bound crosses a Pareto-dominated
    /// threshold, finishing the simulation cannot change any frontier.
    fn poll_abort(&mut self, _frontier: u64) -> bool {
        false
    }
}

/// The do-nothing observer [`run_kernel`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl<T> KernelObserver<T> for NoObserver {}

/// The memory-script surface a kernel's [`PhaseKernel::execute`] runs on:
/// one PE, one L0 domain, and the shared memory system. Each primitive
/// reproduces the timing idiom of the hand-rolled phase loops exactly; the
/// PE's own queue records where its waits came from.
#[derive(Debug)]
pub struct PeCtx<'a> {
    mem: &'a mut MemorySystem,
    pe: &'a mut PeTimeline,
    l0: usize,
    block: u64,
    last_data: u64,
    last_level: AccessOutcome,
}

impl<'a> PeCtx<'a> {
    /// A context running scripts on `pe` through L0 domain `l0` — the
    /// engine's per-item context, and the trace replayer's for frozen
    /// schedules.
    pub fn new(
        mem: &'a mut MemorySystem,
        pe: &'a mut PeTimeline,
        l0: usize,
        block_bytes: u64,
    ) -> Self {
        PeCtx {
            last_data: pe.time,
            last_level: AccessOutcome::Hbm,
            mem,
            pe,
            l0,
            block: block_bytes,
        }
    }

    /// Issues one read of the block containing `addr` (one issue cycle,
    /// completion tracked in the outstanding queue). Returns the data-ready
    /// cycle.
    pub fn read(&mut self, addr: u64) -> u64 {
        let t = self.pe.issue();
        let (c, level) = self.mem.read(self.l0, addr, t);
        self.pe.track(c, level);
        if c > self.last_data {
            self.last_data = c;
            self.last_level = level;
        }
        c
    }

    /// Streams `bytes` starting at `addr`: one [`read`](Self::read) per
    /// touched block. No-op for zero bytes.
    pub fn read_stream(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let first = addr / self.block;
        let last = (addr + bytes - 1) / self.block;
        for b in first..=last {
            self.read(b * self.block);
        }
    }

    /// Spends `cycles` computing.
    pub fn compute(&mut self, cycles: u64) {
        self.pe.advance(cycles);
    }

    /// Blocks until every read issued so far has delivered, attributing the
    /// wait to the slowest read's service level.
    pub fn wait_for_data(&mut self) {
        self.pe.stall_until(self.last_data, self.last_level);
    }

    /// Occupies the PE until cycle `t` (counted busy in the breakdown —
    /// the merge sorter's insertion network runs concurrently with the
    /// loader's issue stream).
    pub fn wait_busy_until(&mut self, t: u64) {
        self.pe.wait_until(t);
    }

    /// Posts a write-no-allocate store stream: it cannot start before the
    /// operands arrived, and the PE spends one issue cycle per block but
    /// does not wait for completion.
    pub fn store_stream(&mut self, addr: u64, bytes: u64) {
        self.mem.write_stream(addr, bytes, self.pe.time.max(self.last_data));
        self.pe.advance(bytes.div_ceil(self.block));
    }

    /// Parks the data dependency in the outstanding queue: the PE moves on
    /// and only stalls when the queue fills (the §5.4 latency-hiding idiom
    /// closing the multiply-chunk and merge-pass scripts).
    pub fn track_tail(&mut self) {
        self.pe.track(self.last_data, self.last_level);
    }

    /// The PE's current local cycle.
    pub fn time(&self) -> u64 {
        self.pe.time
    }
}

/// Runs `kernel` to completion on caller-owned machine state, returning the
/// phase statistics and the per-component cycle breakdown.
///
/// # Errors
///
/// Fault injection only: every PE dead, an access out of retries, or a
/// watchdog timeout. Fault-free configurations cannot fail.
pub fn run_kernel<K: PhaseKernel>(
    cfg: &OuterSpaceConfig,
    mem: &mut MemorySystem,
    pes: &mut PeArray,
    kernel: K,
) -> Result<(PhaseStats, CycleBreakdown), SimError> {
    run_kernel_observed(cfg, mem, pes, kernel, &mut NoObserver)
}

/// [`run_kernel`] with an observer tapped into the dispatch stream.
///
/// # Errors
///
/// Fault injection only, as [`run_kernel`].
pub fn run_kernel_observed<K, O>(
    cfg: &OuterSpaceConfig,
    mem: &mut MemorySystem,
    pes: &mut PeArray,
    mut kernel: K,
    obs: &mut O,
) -> Result<(PhaseStats, CycleBreakdown), SimError>
where
    K: PhaseKernel,
    O: KernelObserver<K::Item>,
{
    let phase = kernel.phase();
    let block = cfg.block_bytes as u64;
    apply_fault_model(cfg, pes);
    let n = pes.len();
    let group_size = if pes.n_groups() == 0 { 1 } else { n / pes.n_groups() };
    let mut fb = Feedback::default();

    loop {
        match kernel.next(&fb) {
            Step::Done => break,
            Step::Control { reads } => {
                check_phase_health(phase, cfg, mem, pes)?;
                let frontier = pes.min_live_time();
                if obs.poll_abort(frontier) {
                    return Err(SimError::Aborted { phase, frontier });
                }
                let (g, pe) = pes.try_dispatch().ok_or(SimError::AllPesFailed { phase })?;
                let l0 = g.min(mem.n_l0() - 1);
                let t = pes.pe(pe).time;
                for addr in reads {
                    obs.on_control_read(g, addr);
                    let _ = mem.read(l0, addr, t);
                }
            }
            Step::Batch(batch) => {
                let frontier = pes.min_live_time();
                if obs.poll_abort(frontier) {
                    return Err(SimError::Aborted { phase, frontier });
                }
                let mut done = 0u64;
                match kernel.dispatch() {
                    Dispatch::PerItem => {
                        for item in &batch.items {
                            check_phase_health(phase, cfg, mem, pes)?;
                            let (g, pe_idx) =
                                pes.try_dispatch().ok_or(SimError::AllPesFailed { phase })?;
                            run_one(
                                &mut kernel,
                                obs,
                                mem,
                                pes,
                                block,
                                batch.min_start,
                                g,
                                pe_idx,
                                item,
                            );
                            done = done.max(pes.pe(pe_idx).time);
                        }
                    }
                    Dispatch::TileBatched => {
                        let mut idx = 0usize;
                        while idx < batch.items.len() {
                            check_phase_health(phase, cfg, mem, pes)?;
                            let tile = pes
                                .try_earliest_group()
                                .ok_or(SimError::AllPesFailed { phase })?;
                            let end = (idx + group_size).min(batch.items.len());
                            while idx < end {
                                // The tile can lose its last PE mid-run;
                                // fall back to re-select a live tile.
                                let Some(pe_idx) = pes.try_earliest_pe_in_group(tile) else {
                                    break;
                                };
                                run_one(
                                    &mut kernel,
                                    obs,
                                    mem,
                                    pes,
                                    block,
                                    batch.min_start,
                                    tile,
                                    pe_idx,
                                    &batch.items[idx],
                                );
                                done = done.max(pes.pe(pe_idx).time);
                                idx += 1;
                            }
                        }
                    }
                }
                fb.batch_done = done;
            }
        }
    }

    check_phase_health(phase, cfg, mem, pes)?;
    // The end-of-phase drain jumps each PE over its remaining completions;
    // book those jumps as stalls now, from the queues the last items left.
    pes.book_drain_stalls();
    let mut stats = collect_stats(cfg, mem, pes, 0);
    let makespan = stats.cycles;
    let mut stall = [0u64; 3];
    let mut idle = 0u64;
    // Recovery waits and re-executed work already tallied by the reaper,
    // plus each corpse's post-death tail: a dead PE contributes no useful,
    // stalled, or idle cycles after its kill cycle — that silicon is lost.
    let mut lost = pes.recovery_lost();
    for i in 0..n {
        let pe = pes.pe(i);
        for (acc, s) in stall.iter_mut().zip(pe.stalls()) {
            *acc += s;
        }
        let tail = makespan.saturating_sub(pe.time);
        if pes.is_dead(i) {
            lost += tail;
            idle += pe.idle();
        } else {
            idle += pe.idle() + tail;
        }
    }
    // Indexed by `AccessOutcome as usize`.
    let [stall_l0, stall_l1, stall_hbm] = stall;
    stats.stall_l0_cycles = stall_l0;
    stats.stall_l1_cycles = stall_l1;
    stats.stall_hbm_cycles = stall_hbm;
    stats.idle_pe_cycles = idle;
    stats.lost_pe_cycles = lost;
    kernel.finish(&mut stats);

    let busy = (makespan * n as u64)
        .saturating_sub(stall.iter().sum::<u64>())
        .saturating_sub(idle)
        .saturating_sub(lost);
    let breakdown = CycleBreakdown {
        pe_class: kernel.pe_class().to_string(),
        // The array holds one timeline per PE, so `n` is far below u32::MAX.
        n_pes: u32::try_from(n).expect("PE counts fit u32"),
        makespan,
        busy_cycles: busy,
        stall_l0_cycles: stall_l0,
        stall_l1_cycles: stall_l1,
        stall_hbm_cycles: stall_hbm,
        idle_cycles: idle,
        lost_cycles: lost,
        channel_busy_cycles: mem.channel_busy(),
    };
    Ok((stats, breakdown))
}

/// One item's dispatch: honor the batch's release gate (idle time), notify
/// the observer, and run the kernel's script on the selected PE.
#[allow(clippy::too_many_arguments)]
fn run_one<K, O>(
    kernel: &mut K,
    obs: &mut O,
    mem: &mut MemorySystem,
    pes: &mut PeArray,
    block: u64,
    min_start: u64,
    g: usize,
    pe_idx: usize,
    item: &K::Item,
) where
    K: PhaseKernel,
    O: KernelObserver<K::Item>,
{
    pes.pe_mut(pe_idx).idle_until(min_start);
    obs.on_item(pe_idx, g, item);
    let l0 = g.min(mem.n_l0() - 1);
    let mut ctx = PeCtx::new(mem, pes.pe_mut(pe_idx), l0, block);
    kernel.execute(item, &mut ctx);
}

/// Hierarchical cycle attribution for one phase: where every PE cycle of
/// one PE class went, plus per-HBM-channel occupancy. Every phase satisfies
/// `busy + stall_* + idle + lost == makespan × n_pes` exactly: PE-kill
/// recovery (survivor waits, re-executed overshoot, dead-silicon tails) is
/// routed into [`lost_cycles`](Self::lost_cycles), which is 0 for
/// fault-free phases.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CycleBreakdown {
    /// PE class label ("tile_pe", "merge_worker", …).
    pub pe_class: String,
    /// PEs of this class.
    pub n_pes: u32,
    /// Phase makespan in cycles.
    pub makespan: u64,
    /// Cycles spent issuing, computing, or sorting.
    pub busy_cycles: u64,
    /// Cycles stalled on an L0-serviced completion.
    pub stall_l0_cycles: u64,
    /// Cycles stalled on an L1-serviced completion.
    pub stall_l1_cycles: u64,
    /// Cycles stalled on an HBM-serviced completion.
    pub stall_hbm_cycles: u64,
    /// Cycles idle (pass-dependency gates, post-work tail).
    pub idle_cycles: u64,
    /// Cycles consumed by PE-kill recovery: survivors waiting for a death
    /// to become observable, re-executed overshoot and re-issued requests,
    /// and each corpse's dead-silicon tail. 0 in fault-free runs.
    pub lost_cycles: u64,
    /// Service cycles booked per HBM pseudo-channel.
    pub channel_busy_cycles: Vec<u64>,
}

impl_to_json!(CycleBreakdown {
    pe_class,
    n_pes,
    makespan,
    busy_cycles,
    stall_l0_cycles,
    stall_l1_cycles,
    stall_hbm_cycles,
    idle_cycles,
    lost_cycles,
    channel_busy_cycles,
});

impl CycleBreakdown {
    /// Total PE cycles in the phase (`makespan × n_pes`).
    pub fn total_pe_cycles(&self) -> u64 {
        self.makespan * self.n_pes as u64
    }

    /// Total memory-stall cycles across levels.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_l0_cycles + self.stall_l1_cycles + self.stall_hbm_cycles
    }

    /// Normalized busy/memory/idle shares (each in [0, 1], summing to 1
    /// for fault-free phases).
    pub fn shares(&self) -> UtilizationShares {
        let total = self.total_pe_cycles();
        if total == 0 {
            return UtilizationShares::default();
        }
        let t = total as f64;
        UtilizationShares {
            busy: self.busy_cycles as f64 / t,
            memory: self.stall_cycles() as f64 / t,
            idle: self.idle_cycles as f64 / t,
        }
    }

    /// Per-channel occupancy (service cycles / makespan), in [0, 1] per
    /// channel for fault-free phases.
    pub fn channel_occupancy(&self) -> Vec<f64> {
        if self.makespan == 0 {
            return vec![0.0; self.channel_busy_cycles.len()];
        }
        self.channel_busy_cycles
            .iter()
            .map(|&b| b as f64 / self.makespan as f64)
            .collect()
    }

    /// Mean occupancy over all channels.
    pub fn mean_channel_occupancy(&self) -> f64 {
        let occ = self.channel_occupancy();
        if occ.is_empty() {
            0.0
        } else {
            occ.iter().sum::<f64>() / occ.len() as f64
        }
    }

    /// Peak single-channel occupancy.
    pub fn peak_channel_occupancy(&self) -> f64 {
        self.channel_occupancy().into_iter().fold(0.0, f64::max)
    }
}

/// Where a processor's time goes, normalized: actively computing,
/// stalled on the memory system, or idle. The accelerator's breakdowns
/// ([`CycleBreakdown::shares`]) and the CPU/GPU analytic models
/// ([`crate::xmodels`]) report through this one type so Fig. 12-style
/// comparisons line up.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilizationShares {
    /// Fraction of time doing useful work.
    pub busy: f64,
    /// Fraction stalled on memory.
    pub memory: f64,
    /// Fraction idle (load imbalance, launch gaps, dependency waits).
    pub idle: f64,
}

impl_to_json!(UtilizationShares { busy, memory, idle });

/// An observer that serializes every engine action as one JSON event, for
/// export as JSON lines through [`outerspace_json::dump::append_jsonl`].
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Json>,
    seq: u64,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in dispatch order.
    pub fn events(&self) -> &[Json] {
        &self.events
    }

    /// Appends every event to `path` in the append-safe JSONL format
    /// (readable back with [`outerspace_json::dump::read_jsonl`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        for e in &self.events {
            outerspace_json::dump::append_jsonl(path, e)?;
        }
        Ok(())
    }

    fn push(&mut self, kind: &str, mut fields: Vec<(String, Json)>) {
        let mut obj = vec![
            ("seq".to_string(), Json::UInt(self.seq)),
            ("kind".to_string(), Json::Str(kind.to_string())),
        ];
        obj.append(&mut fields);
        self.events.push(Json::Obj(obj));
        self.seq += 1;
    }
}

impl<T: ToJson> KernelObserver<T> for EventLog {
    fn on_control_read(&mut self, group: usize, addr: u64) {
        self.push(
            "control_read",
            vec![
                ("group".to_string(), Json::UInt(group as u64)),
                ("addr".to_string(), Json::UInt(addr)),
            ],
        );
    }

    fn on_item(&mut self, pe: usize, group: usize, item: &T) {
        self.push(
            "item",
            vec![
                ("pe".to_string(), Json::UInt(pe as u64)),
                ("group".to_string(), Json::UInt(group as u64)),
                ("item".to_string(), item.to_json()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::StreamItem;

    fn cfg() -> OuterSpaceConfig {
        OuterSpaceConfig::default()
    }

    fn stream_items(n: u64) -> Vec<StreamItem> {
        (0..n)
            .map(|i| StreamItem {
                read_addr: i * 6400,
                read_bytes: 640,
                write_addr: crate::layout::OUT_BASE + i * 640,
                write_bytes: 640,
                compute_cycles: 10,
            })
            .collect()
    }

    fn run_stream(
        c: &OuterSpaceConfig,
        items: Vec<StreamItem>,
    ) -> (PhaseStats, CycleBreakdown) {
        let mut mem = MemorySystem::for_multiply(c);
        let mut pes = PeArray::new(16, 16, 64);
        let kernel = crate::phases::StreamKernel::new("engine_test", items);
        run_kernel(c, &mut mem, &mut pes, kernel).unwrap()
    }

    #[test]
    fn fault_free_breakdown_is_exhaustive() {
        let c = cfg();
        let (stats, bd) = run_stream(&c, stream_items(200));
        assert_eq!(bd.makespan, stats.cycles);
        assert_eq!(
            bd.busy_cycles + bd.stall_cycles() + bd.idle_cycles,
            bd.total_pe_cycles(),
            "fault-free attribution must cover every PE cycle"
        );
        // The same attribution flows into PhaseStats.
        assert_eq!(stats.stall_hbm_cycles, bd.stall_hbm_cycles);
        assert_eq!(stats.idle_pe_cycles, bd.idle_cycles);
        assert!(bd.stall_hbm_cycles > 0, "cold streams must stall on HBM");
        let s = bd.shares();
        assert!((s.busy + s.memory + s.idle - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pe_kill_recovery_lands_in_the_lost_bucket() {
        let mut c = cfg();
        c.faults.seed = 11;
        c.faults.pe_kill_count = 6;
        c.faults.pe_kill_cycle = 40;
        let mut mem = MemorySystem::for_multiply(&c);
        let mut pes = PeArray::new(16, 16, 64);
        let kernel = crate::phases::StreamKernel::new("engine_test", stream_items(400));
        let (stats, bd) = run_kernel(&c, &mut mem, &mut pes, kernel).unwrap();
        assert!(stats.killed_pes > 0, "the kill set must fire");
        assert!(bd.lost_cycles > 0, "recovery must surface as lost cycles");
        assert_eq!(
            bd.busy_cycles + bd.stall_cycles() + bd.idle_cycles + bd.lost_cycles,
            bd.total_pe_cycles(),
            "the four-way identity must hold under PE-kill injection"
        );
        assert_eq!(stats.lost_pe_cycles, bd.lost_cycles);
        // Fault-free runs keep the bucket empty.
        let (s2, bd2) = run_stream(&cfg(), stream_items(400));
        assert_eq!(bd2.lost_cycles, 0);
        assert_eq!(s2.lost_pe_cycles, 0);
    }

    #[test]
    fn channel_occupancy_is_bounded() {
        let c = cfg();
        let (_, bd) = run_stream(&c, stream_items(400));
        assert_eq!(bd.channel_busy_cycles.len(), c.hbm_channels as usize);
        let mean = bd.mean_channel_occupancy();
        let peak = bd.peak_channel_occupancy();
        assert!(mean > 0.0 && mean <= peak, "mean {mean}, peak {peak}");
        assert!(peak <= 1.0, "no channel can exceed wall time: {peak}");
    }

    #[test]
    fn min_start_gates_become_idle_cycles() {
        struct Gated {
            emitted: bool,
        }
        impl PhaseKernel for Gated {
            type Item = ();
            fn phase(&self) -> &'static str {
                "gated"
            }
            fn next(&mut self, _fb: &Feedback) -> Step<()> {
                if self.emitted {
                    return Step::Done;
                }
                self.emitted = true;
                Step::Batch(Batch { items: vec![()], min_start: 1000 })
            }
            fn execute(&mut self, _item: &(), ctx: &mut PeCtx<'_>) {
                ctx.compute(5);
            }
        }
        let c = cfg();
        let mut mem = MemorySystem::for_multiply(&c);
        let mut pes = PeArray::new(1, 1, 4);
        let (stats, bd) =
            run_kernel(&c, &mut mem, &mut pes, Gated { emitted: false }).unwrap();
        assert_eq!(stats.cycles, 1005);
        assert_eq!(bd.idle_cycles, 1000);
        assert_eq!(bd.busy_cycles, 5);
    }

    #[test]
    fn event_log_round_trips_through_jsonl() {
        let c = cfg();
        let mut mem = MemorySystem::for_multiply(&c);
        let mut pes = PeArray::new(16, 16, 64);
        let kernel = crate::phases::StreamKernel::new("engine_test", stream_items(5));
        let mut log = EventLog::new();
        run_kernel_observed(&c, &mut mem, &mut pes, kernel, &mut log).unwrap();
        assert_eq!(log.events().len(), 5);
        let dir = std::env::temp_dir()
            .join(format!("outerspace-engine-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        log.write_jsonl(&path).unwrap();
        let back = outerspace_json::dump::read_jsonl(&path).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back[0].get("kind").and_then(Json::as_str), Some("item"));
        assert!(back[0].get("item").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_byte_stream_issues_nothing() {
        let c = cfg();
        let mut mem = MemorySystem::for_multiply(&c);
        let mut pe = PeTimeline::new(4);
        let mut ctx = PeCtx::new(&mut mem, &mut pe, 0, c.block_bytes as u64);
        ctx.read_stream(64, 0);
        ctx.wait_for_data();
        assert_eq!(ctx.time(), 0);
        assert_eq!(mem.counters.l0_hits + mem.counters.l0_misses, 0);
        assert_eq!(pe.stalls(), [0; 3]);
    }

    #[test]
    fn waits_are_booked_to_the_serving_level() {
        let c = cfg();
        let mut mem = MemorySystem::for_multiply(&c);
        let mut pe = PeTimeline::new(4);
        let mut ctx = PeCtx::new(&mut mem, &mut pe, 0, c.block_bytes as u64);
        let cold = ctx.read(0x1000);
        ctx.wait_for_data();
        assert_eq!(ctx.time(), cold);
        let warm = ctx.read(0x1008);
        ctx.wait_for_data();
        assert_eq!(warm, cold + 1 + c.l0_hit_cycles);
        // One issue cycle per read; everything else was a stall on the
        // level that served the read the PE waited for.
        assert_eq!(pe.stalls(), [c.l0_hit_cycles, 0, cold - 1]);
    }

    #[test]
    fn breakdown_serializes() {
        let (_, bd) = run_stream(&cfg(), stream_items(10));
        let json = bd.to_json().to_string_compact();
        assert!(json.contains("\"pe_class\""));
        assert!(json.contains("\"channel_busy_cycles\""));
    }
}
