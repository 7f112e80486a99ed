//! PE timing: local clocks, outstanding-request queues, greedy dispatch.
//!
//! OuterSPACE's PEs are asynchronous SPMD engines that drift apart and only
//! synchronize at phase boundaries (§5.3). Each PE is modeled as a local
//! cycle counter plus a bounded queue of in-flight memory completions (the
//! 64-entry outstanding-request queue of Table 2): issuing a request when
//! the queue is full stalls the PE until the oldest completes — which is how
//! MSHR/queue back-pressure limits memory-level parallelism in the model.
//!
//! Each queue entry carries the level that served it (L0, L1 or HBM) in the
//! low bits of its completion cycle, so the one queue both times the PE and
//! attributes its stalls: a full-queue stall is booked to the popped
//! entry's level. Greedy dispatch is one pass over the array that picks the
//! live PE with the smallest `(time, index)`; its group is the index divided
//! by the group size, so the lowest index wins ties exactly as a per-group
//! scan would.

use std::collections::VecDeque;

use crate::mem::AccessOutcome;

/// Low bits of a queue entry holding the serving level; the completion
/// cycle sits above them.
const LEVEL_BITS: u32 = 2;
const LEVEL_MASK: u64 = (1 << LEVEL_BITS) - 1;
/// Largest completion cycle a queue entry can hold (2^62 - 1 cycles, about
/// 97 years of simulated time at 1.5 GHz).
const MAX_COMPLETION: u64 = u64::MAX >> LEVEL_BITS;

/// One PE's timeline.
#[derive(Debug, Clone)]
pub struct PeTimeline {
    /// The PE's local cycle counter.
    pub time: u64,
    /// Cycles spent issuing or computing (for utilization accounting).
    pub busy: u64,
    /// Cycles stalled on a completion, indexed by the serving level
    /// (`AccessOutcome as usize`).
    stall: [u64; 3],
    /// Cycles idled at dispatch gates.
    idle: u64,
    /// In-flight completions, oldest first: `completion << LEVEL_BITS |
    /// level`.
    inflight: VecDeque<u64>,
    cap: usize,
}

impl PeTimeline {
    /// A PE starting at cycle 0 with an outstanding queue of `cap` entries.
    pub fn new(cap: usize) -> Self {
        PeTimeline {
            time: 0,
            busy: 0,
            stall: [0; 3],
            idle: 0,
            inflight: VecDeque::with_capacity(cap),
            cap: cap.max(1),
        }
    }

    /// Stalls until cycle `t` on a completion served by level `level`
    /// (`AccessOutcome as usize`); no-op if already past it.
    fn stall_on(&mut self, t: u64, level: usize) {
        if t > self.time {
            self.stall[level] += t - self.time;
            self.time = t;
        }
    }

    /// Frees a queue slot when the queue is full: waits for the oldest
    /// completion, booking the wait to the level that served it.
    fn make_room(&mut self) {
        if self.inflight.len() == self.cap {
            let oldest = self.inflight.pop_front().expect("queue full implies non-empty");
            self.stall_on(oldest >> LEVEL_BITS, (oldest & LEVEL_MASK) as usize);
        }
    }

    /// Spends one issue cycle, stalling first if the outstanding queue is
    /// full. Returns the cycle at which the request leaves the PE.
    pub fn issue(&mut self) -> u64 {
        self.make_room();
        self.time += 1;
        self.busy += 1;
        self.time
    }

    /// Records an issued request's completion time, and the level that
    /// served it, in the queue.
    ///
    /// # Panics
    ///
    /// Panics if `completion` is 2^62 or later (it must fit above the
    /// level bits of a queue entry).
    pub fn track(&mut self, completion: u64, level: AccessOutcome) {
        assert!(completion <= MAX_COMPLETION, "completion cycle {completion} overflows the queue");
        self.make_room();
        self.inflight.push_back(completion << LEVEL_BITS | level as u64);
    }

    /// Spends `cycles` computing.
    pub fn advance(&mut self, cycles: u64) {
        self.time += cycles;
        self.busy += cycles;
    }

    /// Stalls until cycle `t` (no-op if already past it), unattributed.
    pub fn wait_until(&mut self, t: u64) {
        if t > self.time {
            self.time = t;
        }
    }

    /// Stalls until cycle `t` on data served by `level` (no-op if already
    /// past it), booking the wait as a stall on that level.
    pub fn stall_until(&mut self, t: u64, level: AccessOutcome) {
        self.stall_on(t, level as usize);
    }

    /// Idles until cycle `t` (no-op if already past it), booking the gap as
    /// idle — a work item released no earlier than `t`.
    pub fn idle_until(&mut self, t: u64) {
        if t > self.time {
            self.idle += t - self.time;
            self.time = t;
        }
    }

    /// Stall cycles so far, indexed by serving level (`AccessOutcome as
    /// usize`: L0, L1, HBM).
    pub fn stalls(&self) -> [u64; 3] {
        self.stall
    }

    /// Idle cycles so far (dispatch gates only; the post-work tail is the
    /// caller's to count).
    pub fn idle(&self) -> u64 {
        self.idle
    }

    /// Books the stalls a drain would take — each queued completion past
    /// the clock, on the level that served it — without draining.
    fn book_pending_stalls(&mut self) {
        let mut t = self.time;
        for &e in &self.inflight {
            let c = e >> LEVEL_BITS;
            if c > t {
                self.stall[(e & LEVEL_MASK) as usize] += c - t;
                t = c;
            }
        }
    }

    /// Blocks until every in-flight request has completed (phase barrier).
    /// The waits are not booked; see [`PeArray::book_drain_stalls`].
    pub fn drain(&mut self) {
        while let Some(e) = self.inflight.pop_front() {
            self.wait_until(e >> LEVEL_BITS);
        }
    }
}

/// The PE array with greedy work dispatch (§6 assumes greedy scheduling).
///
/// Hard PE failures (fault injection) are modeled lazily: a PE condemned by
/// [`schedule_kill`](PeArray::schedule_kill) keeps executing until its local
/// clock passes the kill cycle; the next dispatch *reaps* it — the overshoot
/// (work issued past the point of death, which a real array would lose) is
/// re-executed by the earliest surviving PE of the same group, extending the
/// paper's §6 greedy load-balancing argument to partial arrays. Fault-free
/// arrays take none of these paths and schedule exactly as before.
#[derive(Debug, Clone)]
pub struct PeArray {
    pes: Vec<PeTimeline>,
    pes_per_group: usize,
    /// Per-PE hard-failure cycle (`u64::MAX` = never fails).
    kill_at: Vec<u64>,
    dead: Vec<bool>,
    any_kills: bool,
    /// Work items requeued from dead PEs onto survivors.
    pub requeued: u64,
    /// PEs reaped so far.
    pub killed: u32,
    /// Cycles consumed by reap/requeue recovery: the survivor's wait for a
    /// death to become observable plus the re-executed overshoot and
    /// re-issued abandoned requests. These cycles advance survivor
    /// timelines outside the engine's script wrappers, so the engine folds
    /// them into an explicit `lost` bucket instead of `busy`.
    lost: u64,
}

impl PeArray {
    /// Builds `n_groups × pes_per_group` PEs (groups are tiles in the
    /// multiply phase, worker pairs in the merge phase have one PE each).
    pub fn new(n_groups: usize, pes_per_group: usize, queue_cap: usize) -> Self {
        let n = n_groups * pes_per_group;
        PeArray {
            pes: (0..n).map(|_| PeTimeline::new(queue_cap)).collect(),
            pes_per_group,
            kill_at: vec![u64::MAX; n],
            dead: vec![false; n],
            any_kills: false,
            requeued: 0,
            killed: 0,
            lost: 0,
        }
    }

    /// Number of PE groups.
    pub fn n_groups(&self) -> usize {
        self.pes.len() / self.pes_per_group
    }

    /// Total number of PEs.
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// True when the array has no PEs.
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// Condemns PE `idx` to die once its local clock reaches `cycle`.
    pub fn schedule_kill(&mut self, idx: usize, cycle: u64) {
        self.kill_at[idx] = cycle;
        self.any_kills = true;
    }

    /// Number of PEs still alive.
    pub fn live_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Detects PEs whose clocks have crossed their kill cycle and requeues
    /// their lost work onto survivors. No-op when no kills are scheduled.
    fn reap(&mut self) {
        if !self.any_kills {
            return;
        }
        for p in 0..self.pes.len() {
            if self.dead[p] || self.pes[p].time < self.kill_at[p] {
                continue;
            }
            self.dead[p] = true;
            self.killed += 1;
            let at = self.kill_at[p];
            // Roll the corpse back to its moment of death: issue/compute
            // cycles past `at` never happened, and in-flight responses go
            // undelivered.
            let overshoot = self.pes[p].time - at;
            let abandoned = self.pes[p].inflight.len() as u64;
            self.pes[p].time = at;
            self.pes[p].busy = self.pes[p].busy.saturating_sub(overshoot);
            self.pes[p].inflight.clear();
            if overshoot == 0 && abandoned == 0 {
                continue; // died idle: nothing to recover
            }
            // The lost item re-executes on the earliest survivor of the same
            // group (the paper's load balancer is per-tile); if the whole
            // group is gone, any survivor takes it.
            let g = p / self.pes_per_group;
            let survivor = self
                .live_in_group(g)
                .or_else(|| self.earliest_pe());
            if let Some(s) = survivor {
                self.requeued += 1;
                // Re-issue of the abandoned requests plus redone compute;
                // recovery cannot begin before the death is observable.
                // Both the wait and the re-execution are recovery overhead,
                // tallied so the engine can attribute them as lost cycles.
                self.lost += at.saturating_sub(self.pes[s].time);
                self.lost += overshoot + abandoned;
                self.pes[s].wait_until(at);
                self.pes[s].advance(overshoot + abandoned);
            }
        }
    }

    /// The live PE among `range` with the smallest `(time, index)`, in one
    /// pass.
    fn earliest_live(&self, range: std::ops::Range<usize>) -> Option<usize> {
        let start = range.start;
        let pes = self.pes[range.clone()].iter().zip(&self.dead[range]);
        let mut best = None;
        let mut best_time = u64::MAX;
        for (i, (pe, &dead)) in pes.enumerate() {
            if !dead && (pe.time < best_time || best.is_none()) {
                best = Some(start + i);
                best_time = pe.time;
            }
        }
        best
    }

    /// Earliest live PE within group `g`, if any.
    fn live_in_group(&self, g: usize) -> Option<usize> {
        let base = g * self.pes_per_group;
        self.earliest_live(base..base + self.pes_per_group)
    }

    /// Earliest live PE of the whole array, if any. Groups are contiguous
    /// index ranges, so its group is also the group whose earliest live PE
    /// is earliest overall (lowest group on ties).
    fn earliest_pe(&self) -> Option<usize> {
        self.earliest_live(0..self.pes.len())
    }

    /// The group whose earliest-available live PE is earliest overall —
    /// where a greedy scheduler sends the next work item. `None` when every
    /// PE has failed.
    pub fn try_earliest_group(&mut self) -> Option<usize> {
        self.try_dispatch().map(|(g, _)| g)
    }

    /// Reaps once, then selects the earliest live PE and its group from the
    /// same post-reap snapshot: the live PE with the smallest `(time,
    /// index)`. `None` only when every PE has failed.
    ///
    /// Two-step selection ([`try_earliest_group`](Self::try_earliest_group)
    /// then [`try_earliest_pe_in_group`](Self::try_earliest_pe_in_group)) is
    /// not equivalent under fault injection: each call reaps, and the first
    /// reap's requeue can push a *condemned* survivor past its own kill
    /// cycle, so the second reap may empty the group the first call chose —
    /// misreporting total failure while most of the array is still alive.
    pub fn try_dispatch(&mut self) -> Option<(usize, usize)> {
        self.reap();
        let pe = self.earliest_pe()?;
        Some((pe / self.pes_per_group, pe))
    }

    /// The earliest-available live PE index within group `g`, or `None` if
    /// the whole group has failed.
    pub fn try_earliest_pe_in_group(&mut self, g: usize) -> Option<usize> {
        self.reap();
        self.live_in_group(g)
    }

    /// The minimum local time over live PEs in group `g` (`u64::MAX` when
    /// the group has fully failed, so greedy selection skips it).
    pub fn group_min_time(&self, g: usize) -> u64 {
        self.live_in_group(g).map_or(u64::MAX, |p| self.pes[p].time)
    }

    /// The minimum local time over all live PEs — the dispatch frontier the
    /// phase watchdog compares against (`u64::MAX` when all have failed).
    pub fn min_live_time(&self) -> u64 {
        self.earliest_pe().map_or(u64::MAX, |p| self.pes[p].time)
    }

    /// Mutable access to PE `idx`.
    pub fn pe_mut(&mut self, idx: usize) -> &mut PeTimeline {
        &mut self.pes[idx]
    }

    /// Shared access to PE `idx` (post-phase attribution walks).
    pub fn pe(&self, idx: usize) -> &PeTimeline {
        &self.pes[idx]
    }

    /// Books, on every PE, the stalls its end-of-phase drain is about to
    /// take: each queued completion past the PE's clock stalls it on the
    /// level that served it. Call before [`finish`](Self::finish), whose
    /// reap may roll a condemned PE back or requeue work onto a survivor:
    /// the attribution is taken from the queues as the last item left them.
    /// PEs reaped earlier have empty queues and book nothing.
    pub fn book_drain_stalls(&mut self) {
        for pe in &mut self.pes {
            pe.book_pending_stalls();
        }
    }

    /// Drains all queues and returns the phase makespan (max local time).
    pub fn finish(&mut self) -> u64 {
        self.reap();
        for (pe, &dead) in self.pes.iter_mut().zip(&self.dead) {
            if !dead {
                pe.drain();
            }
        }
        self.pes.iter().map(|p| p.time).max().unwrap_or(0)
    }

    /// Number of PEs that did any work.
    ///
    /// # Panics
    ///
    /// Never in practice: the count is at most [`len`](Self::len), and an
    /// array of more than `u32::MAX` timelines cannot be allocated.
    pub fn active_count(&self) -> u32 {
        let n = self.pes.iter().filter(|p| p.busy > 0).count();
        u32::try_from(n).expect("PE counts fit u32")
    }

    /// Total busy cycles over all PEs.
    pub fn total_busy(&self) -> u64 {
        self.pes.iter().map(|p| p.busy).sum()
    }

    /// Whether PE `idx` has been reaped. Its timeline is frozen at the kill
    /// cycle, so its post-death tail is dead silicon, not idle time.
    pub fn is_dead(&self, idx: usize) -> bool {
        self.dead[idx]
    }

    /// Recovery cycles accumulated by [`reap`](Self::reap) so far (0 in any
    /// kill-free run).
    pub fn recovery_lost(&self) -> u64 {
        self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_costs_one_cycle() {
        let mut pe = PeTimeline::new(4);
        assert_eq!(pe.issue(), 1);
        assert_eq!(pe.issue(), 2);
        assert_eq!(pe.busy, 2);
    }

    #[test]
    fn full_queue_stalls_on_oldest() {
        let mut pe = PeTimeline::new(2);
        pe.track(100, AccessOutcome::Hbm);
        pe.track(200, AccessOutcome::L1Hit);
        // Queue full: next issue must wait for the completion at cycle 100,
        // and the wait is a stall on the level that served it.
        assert_eq!(pe.issue(), 101);
        assert_eq!(pe.stalls(), [0, 0, 100]);
        pe.track(300, AccessOutcome::L0Hit);
        assert_eq!(pe.issue(), 201);
        assert_eq!(pe.stalls(), [0, 99, 100]);
    }

    #[test]
    fn drain_stalls_are_booked_before_the_drain() {
        let mut arr = PeArray::new(1, 1, 8);
        let pe = arr.pe_mut(0);
        pe.advance(10);
        pe.track(40, AccessOutcome::L1Hit);
        pe.track(30, AccessOutcome::L0Hit);
        pe.track(90, AccessOutcome::Hbm);
        pe.idle_until(15);
        assert_eq!(pe.idle(), 5);
        arr.book_drain_stalls();
        // 15 -> 40 on L1, 30 is already past, 40 -> 90 on HBM.
        assert_eq!(arr.pe(0).stalls(), [0, 25, 50]);
        assert_eq!(arr.finish(), 90);
        assert_eq!(arr.pe(0).stalls(), [0, 25, 50], "the drain itself books nothing");
    }

    #[test]
    fn drain_reaches_last_completion() {
        let mut pe = PeTimeline::new(8);
        pe.track(50, AccessOutcome::Hbm);
        pe.track(40, AccessOutcome::L0Hit);
        pe.drain();
        assert_eq!(pe.time, 50);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut pe = PeTimeline::new(2);
        pe.advance(10);
        pe.wait_until(5);
        assert_eq!(pe.time, 10);
        pe.wait_until(20);
        assert_eq!(pe.time, 20);
    }

    #[test]
    fn greedy_dispatch_prefers_idle_group() {
        let mut arr = PeArray::new(2, 2, 4);
        // Load up group 0.
        for pe in 0..2 {
            arr.pe_mut(pe).advance(100);
        }
        assert_eq!(arr.try_earliest_group(), Some(1));
        assert_eq!(arr.try_earliest_pe_in_group(1), Some(2));
        assert_eq!(arr.try_dispatch(), Some((1, 2)));
    }

    #[test]
    fn finish_reports_makespan() {
        let mut arr = PeArray::new(2, 2, 4);
        arr.pe_mut(3).advance(77);
        arr.pe_mut(0).track(99, AccessOutcome::Hbm);
        assert_eq!(arr.finish(), 99);
        assert_eq!(arr.active_count(), 1); // only PE 3 was busy
    }

    #[test]
    fn killed_pe_is_reaped_and_work_requeued_onto_group_survivor() {
        let mut arr = PeArray::new(2, 2, 4);
        arr.schedule_kill(0, 50);
        // PE 0 runs past its death: 30 cycles of overshoot are lost.
        arr.pe_mut(0).advance(80);
        arr.pe_mut(0).track(90, AccessOutcome::Hbm);
        let g = arr.try_earliest_group().expect("survivors exist");
        assert_eq!(arr.killed, 1);
        assert_eq!(arr.requeued, 1);
        assert_eq!(arr.live_count(), 3);
        // Group 1 is untouched, so greedy dispatch prefers it; PE 1 (the
        // group-0 survivor) carries the redone work: 30 overshoot cycles
        // plus one abandoned request, starting no earlier than the death.
        assert_eq!(g, 1);
        assert_eq!(arr.pe_mut(1).time, 50 + 30 + 1);
        // The corpse is frozen at its kill cycle and never selected again.
        assert_eq!(arr.pe_mut(0).time, 50);
        assert_eq!(arr.try_earliest_pe_in_group(0), Some(1));
        // Recovery overhead is tallied: the survivor idled 50 cycles until
        // the death was observable, then redid 30 + 1 cycles of work.
        assert!(arr.is_dead(0) && !arr.is_dead(1));
        assert_eq!(arr.recovery_lost(), 50 + 30 + 1);
    }

    #[test]
    fn fully_dead_group_is_skipped_and_empty_array_yields_none() {
        let mut arr = PeArray::new(2, 2, 4);
        arr.schedule_kill(0, 0);
        arr.schedule_kill(1, 0);
        // Group 0 is gone; dispatch must route everything to group 1.
        assert_eq!(arr.try_earliest_group(), Some(1));
        assert_eq!(arr.try_earliest_pe_in_group(0), None);
        assert_eq!(arr.group_min_time(0), u64::MAX);
        arr.schedule_kill(2, 0);
        arr.schedule_kill(3, 0);
        assert_eq!(arr.try_earliest_group(), None);
        assert_eq!(arr.min_live_time(), u64::MAX);
        // Dying idle (at cycle 0, nothing issued) requeues nothing.
        assert_eq!(arr.requeued, 0);
        assert_eq!(arr.killed, 4);
    }

    #[test]
    fn dispatch_survives_requeue_cascade_onto_condemned_pe() {
        // PE 2 dies with overshoot and its work is requeued onto PE 0 —
        // itself condemned, and pushed past its own kill cycle by the
        // requeue. Because the reap loop has already passed index 0, PE 0
        // stays unreaped-but-doomed, and two-step selection (group, then
        // re-reap, then PE) would observe its group emptying between the
        // calls and misreport total failure. Atomic dispatch must keep
        // returning live PEs until the array is genuinely dead.
        let mut arr = PeArray::new(3, 1, 4);
        arr.schedule_kill(0, 10);
        arr.schedule_kill(2, 10);
        arr.pe_mut(1).advance(100);
        arr.pe_mut(2).advance(15);
        // Reap kills PE 2; its 5 overshoot cycles land on PE 0 (earliest
        // live), pushing it to cycle 15 ≥ its own kill cycle of 10.
        let (g, p) = arr.try_dispatch().expect("two PEs still live");
        assert_eq!((g, p), (0, 0), "doomed-but-unreaped PE is dispatchable");
        // The next dispatch reaps PE 0 and falls through to the survivor.
        let (g, p) = arr.try_dispatch().expect("PE 1 still alive");
        assert_eq!((g, p), (1, 1));
        assert_eq!(arr.killed, 2);
        assert_eq!(arr.live_count(), 1);
        assert_eq!(arr.requeued, 2);
    }

    #[test]
    fn kill_free_array_matches_legacy_selection() {
        let mut arr = PeArray::new(2, 2, 4);
        for pe in 0..2 {
            arr.pe_mut(pe).advance(100);
        }
        assert_eq!(arr.try_earliest_group(), Some(1));
        assert_eq!(arr.try_earliest_pe_in_group(1), Some(2));
        assert_eq!(arr.try_dispatch(), Some((1, 2)));
        assert_eq!(arr.min_live_time(), 0);
        assert_eq!(arr.live_count(), 4);
    }
}
