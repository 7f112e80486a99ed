//! Concurrency regression tests for the work-stealing execution layer.
//!
//! The deques only redistribute *which worker* executes a column stripe or
//! row batch; results are stitched back in item order, so the output must be
//! byte-identical run-to-run for a fixed seed and thread count, and
//! identical across *different* thread counts (including 1, which exercises
//! the no-steal degenerate path). A scheduler leaking execution order into
//! the output would show up here as a flaky or thread-count-dependent diff.

use outerspace_gen::{rmat, uniform};
use outerspace_outer::{
    merge, merge_parallel, multiply, multiply_parallel, spgemm, spgemm_parallel,
    sum_all_parallel, worksteal, MergeKind,
};
use outerspace_sparse::Csr;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 5];

fn operands(seed: u64) -> (Csr, Csr) {
    let a = rmat::graph500(128, 1024, seed);
    let b = uniform::matrix(128, 128, 640, seed ^ 0x9e37);
    (a, b)
}

#[test]
fn same_seed_and_thread_count_is_byte_identical_across_runs() {
    for seed in [1, 17] {
        let (a, b) = operands(seed);
        for threads in THREAD_COUNTS {
            let (first, _) = spgemm_parallel(&a, &b, threads).unwrap();
            for _ in 0..3 {
                let (again, _) = spgemm_parallel(&a, &b, threads).unwrap();
                assert_eq!(
                    again, first,
                    "seed {seed}, {threads} threads: output changed between runs"
                );
            }
        }
    }
}

#[test]
fn thread_count_does_not_change_the_product() {
    for seed in [2, 23] {
        let (a, b) = operands(seed);
        let sequential = spgemm(&a, &b).unwrap();
        for threads in THREAD_COUNTS {
            let (par, _) = spgemm_parallel(&a, &b, threads).unwrap();
            assert_eq!(par, sequential, "seed {seed}: {threads} threads != sequential");
        }
    }
}

#[test]
fn multiply_and_merge_stages_are_individually_thread_invariant() {
    let (a, b) = operands(5);
    let a_cc = a.to_csc();
    let (seq_ap, seq_stats) = multiply(&a_cc, &b).unwrap();
    let (seq_merged, _) = merge(&seq_ap, MergeKind::Blocked);
    for threads in THREAD_COUNTS {
        // The stolen multiply must produce the same arena contents (observed
        // through the merge, which reads chunks in item order) and the same
        // aggregate stats.
        let (par_ap, par_stats) = multiply_parallel(&a_cc, &b, threads).unwrap();
        assert_eq!(
            par_stats.elementary_products, seq_stats.elementary_products,
            "{threads} threads: flop count diverged"
        );
        assert_eq!(
            par_stats.chunks, seq_stats.chunks,
            "{threads} threads: chunk count diverged"
        );
        for kind in [MergeKind::Streaming, MergeKind::SortBased, MergeKind::Blocked] {
            let (merged, _) = merge(&par_ap, kind);
            assert_eq!(merged, seq_merged, "{threads} threads, {kind:?}: merge diverged");
            let (merged_par, _) = merge_parallel(&par_ap, kind, threads);
            assert_eq!(
                merged_par, seq_merged,
                "{threads} threads, {kind:?}: parallel merge diverged"
            );
        }
    }
}

#[test]
fn elementwise_sum_is_thread_invariant() {
    let mats: Vec<Csr> =
        (0..6).map(|i| uniform::matrix(96, 96, 400 + 60 * i, 31 + i as u64)).collect();
    let refs: Vec<&Csr> = mats.iter().collect();
    let (one, _) = sum_all_parallel(&refs, 1).unwrap();
    for threads in &THREAD_COUNTS[1..] {
        let (par, _) = sum_all_parallel(&refs, *threads).unwrap();
        assert_eq!(par, one, "sum_all_parallel({threads}) != single-threaded");
    }
}

#[test]
fn stolen_iteration_covers_every_item_exactly_once() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let n: u32 = 509; // prime, so stripes never divide evenly
    for threads in THREAD_COUNTS {
        for grain in [1, 8, 64] {
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            worksteal::for_each_stolen(n, threads, grain, |_worker, item| {
                hits[item as usize].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "item {i} ran {} times ({threads} threads, grain {grain})",
                    h.load(Ordering::Relaxed)
                );
            }
        }
    }
}

#[test]
fn imbalanced_work_engages_the_stealers_without_changing_coverage() {
    use std::sync::atomic::{AtomicU32, Ordering};
    let n: u32 = 256;
    let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    // All the heavy items sit in the first worker's initial stripe; the other
    // workers drain their own stripes quickly and must steal to finish.
    let steals = worksteal::for_each_stolen(n, 4, 4, |_worker, item| {
        hits[item as usize].fetch_add(1, Ordering::Relaxed);
        if item < n / 4 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    });
    assert!(steals > 0, "skewed load should trigger at least one steal");
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}
