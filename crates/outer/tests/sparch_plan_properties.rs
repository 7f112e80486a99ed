//! The structural SpArch planner against the functional reference model:
//! on every operand shape and tree arity, `sparch_structural_plan` must
//! record exactly the plan `spgemm_sparch_with_plan` does (leaf sizes,
//! spill regime, every op's inputs and output, and the result size), while
//! touching only the operands' index structure.

use outerspace_gen::{rmat, uniform};
use outerspace_outer::{
    condense, sparch_structural_plan, spgemm, spgemm_sparch_with_plan, SparchPlan,
};
use outerspace_sparse::{Coo, Csr, Index};

/// Both planners on one operand pair and arity; returns the shared plan.
fn assert_plans_equal(a: &Csr, b: &Csr, ways: usize, label: &str) -> SparchPlan {
    let (_, want) = spgemm_sparch_with_plan(a, b, ways).unwrap();
    // The models pass nnz(C) of the arena + blocked product.
    let c = spgemm(a, b).unwrap();
    let got = sparch_structural_plan(a, b, ways, c.nnz() as u64).unwrap();
    assert_eq!(got, want, "{label}: structural plan diverged at ways {ways}");
    want
}

const WAYS: [usize; 4] = [2, 3, 16, 64];

#[test]
fn all_zero_operand_has_no_leaves() {
    let zero = Csr::zero(24, 24);
    let b = uniform::matrix(24, 24, 100, 1);
    for ways in WAYS {
        let plan = assert_plans_equal(&zero, &b, ways, "zero A");
        assert_eq!(plan.condensed_width, 0);
        assert!(plan.ops.is_empty());
        assert_plans_equal(&b, &zero, ways, "zero B");
    }
}

#[test]
fn empty_rows_of_b_make_zero_element_leaves() {
    // B keeps only its even rows. A's rows pair their second and fourth
    // non-zeros with odd rows of B, so condensed columns 1 and 3 are
    // zero-element leaves — the smallest streams, which the Huffman order
    // picks first.
    let n: Index = 40;
    let mut coo = Coo::new(n, n);
    for (r, c, v) in uniform::matrix(n, n, 500, 3).iter() {
        if r % 2 == 0 {
            coo.push(r, c, v);
        }
    }
    let b = coo.to_csr();
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        let cols: &[Index] = match r % 3 {
            0 => &[2, 5, 8, 11, 14],
            1 => &[4, 7, 10],
            _ => &[6, 9],
        };
        for (k, &c) in cols.iter().enumerate() {
            coo.push(r, c, 1.0 + k as f64);
        }
    }
    let a = coo.to_csr();
    for ways in WAYS {
        let plan = assert_plans_equal(&a, &b, ways, "empty B rows");
        let zero_leaves: Vec<bool> = plan.leaf_elems.iter().map(|&e| e == 0).collect();
        assert_eq!(zero_leaves, [false, true, false, true, false]);
        assert_eq!(plan.ops[0].input_elems[..2], [0, 0]);
    }
}

#[test]
fn identical_column_sets_collide_on_every_product() {
    let n: Index = 32;
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        for (k, c) in [3u32, 9, 14, 20, 27].into_iter().enumerate() {
            coo.push(r, c, 1.0 + k as f64);
        }
    }
    let a = coo.to_csr();
    let b = uniform::matrix(n, n, 200, 4);
    for ways in WAYS {
        let plan = assert_plans_equal(&a, &b, ways, "identical columns");
        assert!(plan.total_collisions() > 0);
    }
}

#[test]
fn vector_and_rectangular_shapes() {
    let row = uniform::matrix(30, 1, 20, 5).transpose(); // 1×30
    let col = uniform::matrix(30, 1, 20, 6); // 30×1
    let wide = uniform::matrix(30, 45, 300, 7);
    let tall = uniform::matrix(45, 20, 300, 8);
    for ways in WAYS {
        assert_plans_equal(&row, &col, ways, "1xN · Nx1");
        assert_plans_equal(&col, &row, ways, "Nx1 · 1xN");
        assert_plans_equal(&row, &wide, ways, "1xN · NxM");
        assert_plans_equal(&wide, &tall, ways, "rectangular");
    }
}

#[test]
fn arity_at_or_above_width_is_one_unspilled_pass() {
    let a = uniform::matrix(64, 64, 500, 9);
    let width = condense(&a).width();
    for ways in [width, width + 1, 4 * width] {
        let plan = assert_plans_equal(&a, &a, ways, "ways >= width");
        assert!(!plan.spilled);
        assert_eq!(plan.ops.len(), 1);
    }
    let plan = assert_plans_equal(&a, &a, width - 1, "ways = width - 1");
    assert!(plan.spilled);
    assert_eq!(plan.ops.len(), 2);
}

#[test]
fn rmat_operands_build_three_level_trees() {
    // A two-level tree merges at most ways² leaves, so a condensed width
    // above that forces merges of merged runs of merged runs.
    for (g, arities) in [
        (rmat::graph500(256, 3000, 10), &[2, 3, 4][..]),
        (rmat::graph500(1024, 16000, 42), &[16][..]),
    ] {
        let width = condense(&g).width();
        for &ways in arities {
            assert!(width > ways * ways, "R-MAT width {width} at ways {ways}");
            let plan = assert_plans_equal(&g, &g, ways, "rmat");
            assert!(plan.spilled);
        }
    }
}
