//! Record → replay determinism for `sim::trace`.
//!
//! A recorded trace is a frozen schedule that what-if studies re-time on
//! other configurations, possibly from several threads at once, so both
//! record and replay must be reproducible across runs and across thread
//! counts. These tests pin that contract.

use outerspace_gen::{rmat, uniform};
use outerspace_sim::trace::{record_multiply, replay_multiply};
use outerspace_sim::{OuterSpaceConfig, PhaseStats};
use outerspace_sparse::Csr;

fn operands() -> Vec<(&'static str, Csr)> {
    vec![
        ("uniform", uniform::matrix(192, 192, 2200, 42)),
        ("rmat", rmat::graph500(256, 3000, 7)),
    ]
}

/// Recording the same operands twice yields identical traces, and replaying
/// a trace reproduces the recording run's stats exactly on the same config.
#[test]
fn record_is_deterministic_and_replay_matches_recording() {
    let cfg = OuterSpaceConfig::default();
    for (name, a) in operands() {
        let a_cc = a.to_csc();
        let (live1, _, t1) = record_multiply(&cfg, &a_cc, &a).unwrap();
        let (live2, _, t2) = record_multiply(&cfg, &a_cc, &a).unwrap();
        assert_eq!(t1, t2, "{name}: two recordings diverged");
        assert_eq!(live1, live2, "{name}: live stats diverged between runs");
        let r1 = replay_multiply(&cfg, &t1);
        let r2 = replay_multiply(&cfg, &t2);
        assert_eq!(r1, r2, "{name}: replays of identical traces diverged");
        // Replay reproduces the live run's performance counters exactly;
        // only the stall/idle *attribution* fields differ (the live engine
        // reports those through CycleBreakdown instead).
        assert_eq!(r1.cycles, live1.cycles, "{name}: cycles");
        assert_eq!(r1.flops, live1.flops, "{name}: flops");
        assert_eq!(r1.hbm_read_bytes, live1.hbm_read_bytes, "{name}: hbm reads");
        assert_eq!(r1.hbm_write_bytes, live1.hbm_write_bytes, "{name}: hbm writes");
        assert_eq!(r1.l0_hits, live1.l0_hits, "{name}: l0 hits");
        assert_eq!(r1.l0_misses, live1.l0_misses, "{name}: l0 misses");
        assert_eq!(r1.l1_hits, live1.l1_hits, "{name}: l1 hits");
        assert_eq!(r1.l1_misses, live1.l1_misses, "{name}: l1 misses");
        assert_eq!(r1.work_items, live1.work_items, "{name}: work items");
        assert_eq!(r1.busy_pe_cycles, live1.busy_pe_cycles, "{name}: busy cycles");
    }
}

/// Replaying one shared trace from many threads concurrently produces
/// byte-identical `PhaseStats` on every thread, including on what-if
/// configs that differ from the recording one.
#[test]
fn replay_is_identical_across_thread_counts() {
    let base = OuterSpaceConfig::default();
    let a = uniform::matrix(192, 192, 2200, 23);
    let a_cc = a.to_csc();
    let (_, _, trace) = record_multiply(&base, &a_cc, &a).unwrap();
    let what_if = OuterSpaceConfig {
        hbm_channels: base.hbm_channels * 2,
        l0_multiply_bytes: base.l0_multiply_bytes / 2,
        ..base.clone()
    };

    for cfg in [&base, &what_if] {
        let reference = replay_multiply(cfg, &trace);
        for n_threads in [1usize, 2, 4, 8] {
            let results: Vec<PhaseStats> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n_threads)
                    .map(|_| s.spawn(|| replay_multiply(cfg, &trace)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in &results {
                assert_eq!(
                    format!("{r:?}"),
                    format!("{reference:?}"),
                    "replay diverged at {n_threads} threads"
                );
            }
        }
    }
}
