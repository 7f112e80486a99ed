//! Property tests for the merge phase (§4.2/§5.4.2): the streaming
//! multi-way merge and the sort-based ablation must agree with each other
//! and with an independent Gustavson implementation, including on the
//! awkward inputs — duplicate column indices spread across chunks, values
//! that cancel to exactly zero, and the single-chunk fast path where no
//! actual merging happens.

use outerspace_baselines::gustavson;
use outerspace_outer::{merge, merge_parallel, multiply, ArenaProducts, MergeKind};
use outerspace_sparse::{Coo, Csr, Index, Value};

type Chunk<'a> = &'a [(Index, Value)];

/// An intermediate whose row `i` holds exactly the chunks `rows[i]`, in
/// order, built by the multiply phase itself: the `k`-th chunk overall
/// becomes row `k` of `B`, and `A` has a `1` at `(i, k)` when that chunk
/// belongs to row `i` — so row `i`'s chunks are `1 · B[k,:]` in `k` order.
fn arena(ncols: Index, rows: &[&[Chunk]]) -> ArenaProducts {
    let n_chunks = rows.iter().map(|r| r.len()).sum::<usize>() as Index;
    let mut a = Coo::new(rows.len() as Index, n_chunks);
    let mut b = Coo::new(n_chunks, ncols);
    let mut k = 0;
    for (i, chunks) in rows.iter().enumerate() {
        for chunk in *chunks {
            a.push(i as Index, k, 1.0);
            for &(c, v) in *chunk {
                b.push(k, c, v);
            }
            k += 1;
        }
    }
    let (ap, _) = multiply(&a.to_csc(), &b.to_csr()).unwrap();
    for (i, chunks) in rows.iter().enumerate() {
        assert_eq!(ap.row_chunk_count(i as Index), chunks.len(), "row {i} chunk list");
    }
    ap
}

#[test]
fn duplicate_columns_across_many_chunks_accumulate_once() {
    // Column 5 appears in every chunk; both algorithms must sum all four
    // contributions into a single output entry.
    let ap = arena(
        16,
        &[&[
            &[(2, 1.0), (5, 0.25)],
            &[(5, 0.25), (9, 2.0)],
            &[(5, 0.25)],
            &[(0, 3.0), (5, 0.25), (14, 4.0)],
        ]],
    );
    let (c1, s1) = merge(&ap, MergeKind::Streaming);
    let (c2, s2) = merge(&ap, MergeKind::SortBased);
    assert_eq!(c1, c2);
    assert_eq!(c1.row(0).0, &[0, 2, 5, 9, 14]);
    assert_eq!(c1.get(0, 5), 1.0);
    assert_eq!(s1.collisions, 3, "four copies of column 5 = three additions");
    assert_eq!(s1.collisions, s2.collisions);
    assert_eq!(s1.output_entries, s2.output_entries);
}

#[test]
fn zero_sum_cancellation_keeps_an_explicit_zero() {
    // +1 and -1 collide at column 3. The merge *stores* the cancelled
    // entry (value 0.0) rather than re-compacting the row — the hardware
    // streams its output, it cannot retract an allocation. Downstream
    // comparisons treat explicit zeros as absent (see the oracle's
    // canonicalization), but the phase-level contract is "sum, keep".
    let ap = arena(8, &[&[&[(3, 1.0), (6, 2.0)], &[(3, -1.0)]]]);
    let (c1, s1) = merge(&ap, MergeKind::Streaming);
    let (c2, _) = merge(&ap, MergeKind::SortBased);
    assert_eq!(c1, c2);
    assert_eq!(c1.row(0).0, &[3, 6], "cancelled column is still present");
    assert_eq!(c1.get(0, 3), 0.0);
    assert_eq!(s1.collisions, 1);
}

#[test]
fn single_chunk_rows_pass_through_unchanged() {
    // One chunk per row: nothing to merge, output must be the chunk verbatim
    // with zero collisions — and both algorithms agree on the stats.
    let entries: Vec<(Index, Value)> = vec![(1, 0.5), (4, -2.0), (7, 3.25)];
    // Row 1 left empty: the empty-row path rides along.
    let ap = arena(8, &[&[&entries], &[]]);
    let (c1, s1) = merge(&ap, MergeKind::Streaming);
    let (c2, s2) = merge(&ap, MergeKind::SortBased);
    assert_eq!(c1, c2);
    assert_eq!(c1.row(0).0, &[1, 4, 7]);
    assert_eq!(c1.row(0).1, &[0.5, -2.0, 3.25]);
    assert_eq!(c1.row_nnz(1), 0);
    for s in [s1, s2] {
        assert_eq!(s.collisions, 0);
        assert_eq!(s.output_entries, 3);
    }
}

/// Full pipeline check: multiply + every merge flavour versus an
/// independent Gustavson implementation, over structurally diverse inputs.
#[test]
fn merged_products_match_gustavson_baseline() {
    let workloads: Vec<(Csr, Csr)> = vec![
        {
            let a = outerspace_gen::uniform::matrix(72, 72, 600, 21);
            let b = outerspace_gen::uniform::matrix(72, 72, 600, 22);
            (a, b)
        },
        {
            let g = outerspace_gen::rmat::graph500(64, 500, 23);
            (g.clone(), g)
        },
        {
            // Rectangular: every dimension distinct.
            let a = outerspace_gen::uniform::matrix(40, 25, 300, 24);
            let b = outerspace_gen::uniform::matrix(25, 55, 300, 25);
            (a, b)
        },
    ];
    for (a, b) in workloads {
        let (want, _) = gustavson::spgemm(&a, &b).expect("compatible shapes");
        let (ap, _) = multiply(&a.to_csc(), &b).unwrap();
        for kind in [MergeKind::Streaming, MergeKind::SortBased] {
            let (c, _) = merge(&ap, kind);
            assert!(c.approx_eq(&want, 1e-9), "{kind:?} diverges from Gustavson");
        }
        let (c_par, _) = merge_parallel(&ap, MergeKind::Streaming, 3);
        assert!(c_par.approx_eq(&want, 1e-9), "parallel merge diverges");
    }
}

#[test]
fn streaming_and_sort_based_agree_on_adversarial_chunk_layouts() {
    // Chunks with interleaved, overlapping, and disjoint column ranges —
    // the orderings that stress the heap refill logic.
    let ap = arena(
        32,
        &[
            &[
                &[(0, 1.0), (10, 1.0), (20, 1.0), (30, 1.0)],
                &[(5, 1.0), (15, 1.0), (25, 1.0)],
                &[(0, 1.0), (31, 1.0)],
            ],
            &[&[(7, -1.0), (8, -1.0), (9, -1.0)], &[(7, 1.0), (8, 1.0), (9, 1.0)]],
            &[&[(16, 2.0)]],
        ],
    );
    let (c1, s1) = merge(&ap, MergeKind::Streaming);
    let (c2, s2) = merge(&ap, MergeKind::SortBased);
    assert_eq!(c1, c2);
    assert_eq!(s1.collisions, s2.collisions);
    assert_eq!(s1.output_entries, s2.output_entries);
    // Row 1 cancelled everywhere but the entries remain, as zeros.
    assert_eq!(c1.row(1).0, &[7, 8, 9]);
    assert!(c1.row(1).1.iter().all(|&v| v == 0.0));
}
