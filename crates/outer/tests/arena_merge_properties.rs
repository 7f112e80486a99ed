//! Exactness properties of the merge family: for every adversarial operand
//! shape, every [`MergeKind`], sequential and on 1/2/3/5 threads, must
//! produce output *identical* to the others — not merely approximately
//! equal. All kinds accumulate collisions in chunk-index order and the
//! parallel paths reconstruct output in item order, so `==` on the result
//! `Csr` (pointers, columns, and bit-patterns of the values) is the
//! contract under test. The anchor is the sort-based merge: a stable sort
//! of each row's concatenated chunks, whose summation order is evident.
//!
//! An independent Gustavson implementation anchors the whole family to a
//! non-outer-product reference (approximate equality there: different
//! accumulation orders legitimately differ in the last ulps).

use outerspace_baselines::gustavson;
use outerspace_gen::{powerlaw, rmat, uniform};
use outerspace_outer::{
    merge, merge_parallel, multiply, multiply_parallel, spgemm, spgemm_parallel,
    spgemm_with_stats, MergeKind,
};
use outerspace_sparse::{Coo, Csr, Index};

const KINDS: [MergeKind; 3] = [MergeKind::Streaming, MergeKind::SortBased, MergeKind::Blocked];
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 5];

/// Every merge kind × {sequential, each thread count}, through the phase
/// functions and the drivers, against the sort-based anchor.
fn assert_all_paths_identical(a: &Csr, b: &Csr, label: &str) {
    let (anchor, _) = spgemm_with_stats(a, b, MergeKind::SortBased)
        .unwrap_or_else(|e| panic!("{label}: anchor failed: {e}"));
    let a_cc = a.to_csc();
    let (ap, _) = multiply(&a_cc, b).unwrap();
    for kind in KINDS {
        let (c, _) = spgemm_with_stats(a, b, kind).unwrap();
        assert_eq!(c, anchor, "{label}: {kind:?} diverged");
        for threads in THREAD_COUNTS {
            let (par_ap, _) = multiply_parallel(&a_cc, b, threads).unwrap();
            let (c, _) = merge(&par_ap, kind);
            assert_eq!(c, anchor, "{label}: {kind:?} after multiply({threads}) diverged");
            let (c, _) = merge_parallel(&ap, kind, threads);
            assert_eq!(c, anchor, "{label}: {kind:?} merge({threads}) diverged");
        }
    }
    assert_eq!(spgemm(a, b).unwrap(), anchor, "{label}: spgemm diverged");
    for threads in THREAD_COUNTS {
        let (c, _) = spgemm_parallel(a, b, threads).unwrap();
        assert_eq!(c, anchor, "{label}: spgemm_parallel({threads}) diverged");
    }
    let (gus, _) = gustavson::spgemm(a, b).unwrap();
    assert!(anchor.approx_eq(&gus, 1e-9), "{label}: diverged from Gustavson");
}

#[test]
fn uniform_and_skewed_workloads_are_identical_across_paths() {
    for seed in [1, 7, 42] {
        let n = 96;
        let a = uniform::matrix(n, n, 4 * n as usize, seed);
        let b = uniform::matrix(n, n, 4 * n as usize, seed ^ 0x9e37);
        assert_all_paths_identical(&a, &b, &format!("uniform@{seed}"));

        let g = rmat::graph500(64, 512, seed);
        assert_all_paths_identical(&g, &g, &format!("rmat@{seed}"));

        let p = powerlaw::graph(96, 700, seed);
        assert_all_paths_identical(&p, &p, &format!("powerlaw@{seed}"));
    }
}

#[test]
fn mostly_empty_rows_and_columns() {
    for seed in [3, 11] {
        // nnz ≪ n: most rows and columns empty on both sides, so the arena's
        // prefix sums are dominated by zero-length rows and the merge sees
        // long empty stretches.
        let n: Index = 200;
        let a = uniform::matrix(n, n, (n / 8) as usize, seed);
        let b = uniform::matrix(n, n, (n / 8) as usize, seed ^ 0x9e37);
        assert_all_paths_identical(&a, &b, &format!("sparse@{seed}"));
    }
    // Fully empty operands in every position.
    let zero = Coo::new(64, 64).to_csr();
    let dense = uniform::matrix(64, 64, 256, 5);
    assert_all_paths_identical(&zero, &dense, "zero_left");
    assert_all_paths_identical(&dense, &zero, "zero_right");
    assert_all_paths_identical(&zero, &zero, "zero_both");
}

#[test]
fn dense_column_skew_makes_one_giant_merge_row() {
    for seed in [2, 9] {
        // Every non-zero of A lives in column 0; paired with a dense row 0
        // of B, every result row is one enormous chunk (the worst case for
        // per-chunk allocation, the best case for the arena).
        let n: Index = 80;
        let mut col = Coo::new(n, n);
        let mut row = Coo::new(n, n);
        for i in 0..n {
            let v = 0.5 + ((seed + i as u64 * 37) % 100) as f64 / 100.0;
            col.push(i, 0, v);
            row.push(0, i, 1.0 / v);
        }
        let a = col.to_csr();
        let b = row.to_csr();
        assert_all_paths_identical(&a, &b, &format!("dense_col_x_dense_row@{seed}"));
        // Dense column against a generic matrix: n chunks land in row 0's
        // product column range while all other source rows stay empty.
        let u = uniform::matrix(n, n, 4 * n as usize, seed);
        assert_all_paths_identical(&a, &u, &format!("dense_col_x_uniform@{seed}"));
    }
}

#[test]
fn duplicate_accumulation_collides_in_every_chunk() {
    // A's single dense column times B's duplicate-heavy rows: every output
    // entry is the sum of many elementary products, so any deviation in
    // accumulation *order* between the merge kinds would change the f64
    // bit-pattern and fail the exact comparison.
    for seed in [4, 13] {
        let n: Index = 64;
        let base = uniform::matrix(n, n, 6 * n as usize, seed);
        let mut coo = Coo::new(n, n);
        for (r, c, v) in base.iter() {
            coo.push(r, c, v);
            coo.push(r, c, 0.25 * v); // duplicate coordinate, different value
        }
        let b = coo.to_csr();
        let a = uniform::matrix(n, n, 6 * n as usize, seed ^ 0x5bd1);
        assert_all_paths_identical(&a, &b, &format!("duplicate_coo@{seed}"));
    }
}

#[test]
fn degenerate_one_by_n_and_n_by_one_products() {
    for seed in [6, 21] {
        let n: Index = 120;
        // (1×N)·(N×1): a single result row with one single-entry chunk per
        // active k — the single-chunk fast path and 1-row batching edge.
        let row_vec = uniform::matrix(n, 1, (n / 2) as usize, seed).transpose();
        let col_vec = uniform::matrix(n, 1, (n / 2) as usize, seed ^ 0x9e37);
        assert_all_paths_identical(&row_vec, &col_vec, &format!("1xN_Nx1@{seed}"));
        // (N×1)·(1×N): rank-one blowup — every result row is exactly one
        // chunk spanning the full column range.
        assert_all_paths_identical(
            &col_vec,
            &row_vec,
            &format!("Nx1_1xN@{seed}"),
        );
    }
}

#[test]
fn tall_and_wide_rectangles() {
    for seed in [8, 15] {
        let a = uniform::matrix(150, 40, 600, seed);
        let b = uniform::matrix(40, 230, 600, seed ^ 0x9e37);
        assert_all_paths_identical(&a, &b, &format!("rect@{seed}"));
    }
}

#[test]
fn columns_spanning_many_merge_blocks() {
    // ncols far beyond MERGE_BLOCK_COLS with entries at both extremes of
    // the column range, so the blocked merger must hop blocks sparsely
    // rather than sweep them densely.
    let ncols: Index = 3 * outerspace_outer::MERGE_BLOCK_COLS as Index + 17;
    let mut coo = Coo::new(4, ncols);
    for (i, &c) in [0, 1, 4095, 4096, 8191, 8192, ncols - 1].iter().enumerate() {
        coo.push(0, c % ncols, 1.0 + i as f64);
        coo.push(1, (c + 7) % ncols, 2.0 + i as f64);
    }
    let b = coo.to_csr();
    let mut left = Coo::new(3, 4);
    left.push(0, 0, 2.0);
    left.push(0, 1, -1.0);
    left.push(1, 1, 0.5);
    left.push(2, 0, 1.0);
    left.push(2, 1, 1.0); // rows 0 and 1 of B collide in result row 2
    let a = left.to_csr();
    assert_all_paths_identical(&a, &b, "wide_blocks");
}
