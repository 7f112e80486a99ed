//! End-to-end walkthrough of the paper's Fig. 2 worked example.
//!
//! Fig. 2 multiplies two 4×4 sparse matrices with three processing
//! elements, showing: decomposition into column/row pairs, the skipped
//! outer product for B's empty third row, the per-row chunk lists, and the
//! merged result. This test reconstructs matrices with the same structural
//! features and checks every intermediate property the figure illustrates.

use outerspace::outer::{merge, multiply, MergeKind};
use outerspace::prelude::*;
use outerspace::sparse::Dense;

/// A and B shaped like Fig. 2: B's third row is empty, A's third column is
/// empty (so outer product 2 vanishes from both sides).
fn fig2_matrices() -> (Csr, Csr) {
    let a = Dense::from_row_major(
        4,
        4,
        vec![
            2.0, 0.0, 0.0, 1.0, //
            0.0, 3.0, 0.0, 0.0, //
            4.0, 0.0, 0.0, 0.0, //
            0.0, 5.0, 0.0, 6.0,
        ],
    )
    .to_csr();
    let b = Dense::from_row_major(
        4,
        4,
        vec![
            0.0, 1.0, 2.0, 0.0, //
            3.0, 0.0, 0.0, 4.0, //
            0.0, 0.0, 0.0, 0.0, // empty row, as in the figure
            0.0, 5.0, 0.0, 0.0,
        ],
    )
    .to_csr();
    (a, b)
}

#[test]
fn empty_row_of_b_forms_no_outer_product() {
    let (a, b) = fig2_matrices();
    let (_, stats) = multiply(&a.to_csc(), &b).unwrap();
    // Columns of A: 0 -> {2,4}, 1 -> {3,5}, 2 -> {} and 3 -> {1,6}; rows of
    // B: 0,1 non-empty, 2 empty, 3 non-empty. Active products: k = 0, 1, 3.
    assert_eq!(stats.nonempty_outer_products, 3);
}

#[test]
fn chunk_lists_match_figure_layout() {
    let (a, b) = fig2_matrices();
    let (ap, stats) = multiply(&a.to_csc(), &b).unwrap();
    // One chunk per non-zero of each active column of A: 2 + 2 + 2 = 6.
    assert_eq!(stats.chunks, 6);
    assert_eq!(ap.total_chunks(), 6);
    // Result row 0 receives chunks from k=0 (a00=2) and k=3 (a03=1).
    assert_eq!(ap.row_chunk_count(0), 2);
    // Result row 2 receives one chunk (a20=4 scaling row 0 of B).
    let r2: Vec<_> = ap.row_chunk_slices(2).collect();
    assert_eq!(r2, [(&[1, 2][..], &[4.0, 8.0][..])]);
}

#[test]
fn merged_result_matches_dense_oracle() {
    let (a, b) = fig2_matrices();
    let (ap, _) = multiply(&a.to_csc(), &b).unwrap();
    let (c, mstats) = merge(&ap, MergeKind::Streaming);
    let want = a.to_dense().matmul(&b.to_dense());
    assert!(c.to_dense().approx_eq(&want, 1e-12));
    // Row 0 of C = 2*row0(B) + 1*row3(B) = [0,2,4,0] + [0,5,0,0]: one
    // collision at column 1.
    assert_eq!(c.get(0, 1), 7.0);
    assert!(mstats.collisions >= 1);
}

#[test]
fn cr_and_cc_modes_agree_on_fig2() {
    let (a, b) = fig2_matrices();
    let cr = outerspace::outer::spgemm(&a, &b).unwrap();
    let cc = outerspace::outer::spgemm_cc(&a, &b).unwrap();
    assert!(cc.to_csr().approx_eq(&cr, 1e-12));
}

#[test]
fn simulator_runs_fig2_with_three_pe_system() {
    // The figure uses three processing units; configure a tiny OuterSPACE
    // (1 tile, 3 PEs... keep 4 for the pair structure) and check the
    // result is still exact.
    let (a, b) = fig2_matrices();
    let cfg = OuterSpaceConfig {
        n_tiles: 1,
        pes_per_tile: 4,
        merge_active_pes_per_tile: 2,
        ..Default::default()
    };
    let sim = Simulator::new(cfg).unwrap();
    let (c, rep) = sim.spgemm(&a, &b).unwrap();
    let want = a.to_dense().matmul(&b.to_dense());
    assert!(c.to_dense().approx_eq(&want, 1e-12));
    assert!(rep.multiply.active_pes <= 4);
}

#[test]
fn conversion_via_identity_reproduces_cc_form() {
    // §4.3: I_CC x A_CR -> A_CC. Verify against the direct transpose path.
    let (a, _) = fig2_matrices();
    let (cc, stats) = outerspace::outer::csr_to_csc_via_outer(&a);
    assert_eq!(cc, a.to_csc());
    assert!(!stats.skipped_symmetric);
    assert_eq!(stats.entries as usize, a.nnz());
}
