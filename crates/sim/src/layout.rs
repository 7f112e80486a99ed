//! Simulated address-space layout.
//!
//! The simulator assigns disjoint address regions to the operand matrices,
//! the Fig. 2 intermediate structure, and the result. Blocks interleave
//! across HBM pseudo-channels by address, so the layout determines channel
//! load balance exactly as it would in hardware. Chunks of the intermediate
//! are bump-allocated in creation order — the paper's static region plus
//! spillover stack collapse to one contiguous arena here, since the timing
//! difference (the spillover atomic) is modeled separately in
//! [`crate::alloc`].

use outerspace_sparse::Index;

/// Bytes per stored element: double-precision value + 32-bit index (§5.3's
/// "12 B per access for double-precision value and index pair").
pub const ELEM_BYTES: u64 = 12;

/// Base address of matrix `A`'s element data.
pub const A_BASE: u64 = 0x0000_0000_0000;
/// Base address of matrix `B`'s element data.
pub const B_BASE: u64 = 0x1000_0000_0000;
/// Base address of `A`'s column-pointer array.
pub const A_PTR_BASE: u64 = 0x2000_0000_0000;
/// Base address of `B`'s row-pointer array.
pub const B_PTR_BASE: u64 = 0x2100_0000_0000;
/// Base address of the vector operand (SpMV).
pub const X_BASE: u64 = 0x2200_0000_0000;
/// Base address of the intermediate partial-product arena.
pub const INTER_BASE: u64 = 0x3000_0000_0000;
/// Base address of merge-phase intermediate (recursive sub-merge) buffers.
pub const SCRATCH_BASE: u64 = 0x4000_0000_0000;
/// Base address of the result matrix.
pub const OUT_BASE: u64 = 0x5000_0000_0000;

/// A chunk of the intermediate structure: one outer product's contribution
/// to one result row, resident at `addr`. The merge model also describes
/// its sub-merge runs with chunk references, and a run can hold more than
/// `u32::MAX` elements, so the length is 64-bit (the struct is 16 bytes
/// either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Simulated byte address of the chunk's first element.
    pub addr: u64,
    /// Elements in the chunk.
    pub len: u64,
}

/// The simulated placement of the whole intermediate structure: per result
/// row, the chunks the multiply phase produced (in production order).
#[derive(Debug, Clone)]
pub struct IntermediateLayout {
    rows: Vec<Vec<ChunkRef>>,
    bump: u64,
}

impl IntermediateLayout {
    /// An empty layout for `nrows` result rows.
    pub fn new(nrows: Index) -> Self {
        IntermediateLayout { rows: vec![Vec::new(); nrows as usize], bump: INTER_BASE }
    }

    /// Allocates a chunk of `len` elements for row `i`, returning its
    /// address.
    pub fn alloc_chunk(&mut self, i: Index, len: u32) -> u64 {
        let addr = self.bump;
        let len = u64::from(len);
        self.bump += len * ELEM_BYTES;
        self.rows[i as usize].push(ChunkRef { addr, len });
        addr
    }

    /// The chunks of row `i`.
    pub fn row(&self, i: Index) -> &[ChunkRef] {
        &self.rows[i as usize]
    }

    /// Number of result rows.
    pub fn nrows(&self) -> Index {
        self.rows.len() as Index
    }

    /// Total elements across all chunks.
    pub fn total_elements(&self) -> u64 {
        self.rows.iter().flatten().map(|c| c.len).sum()
    }

    /// Total bytes occupied by the intermediate arena.
    pub fn arena_bytes(&self) -> u64 {
        self.bump - INTER_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_contiguous_in_allocation_order() {
        let mut l = IntermediateLayout::new(4);
        let a0 = l.alloc_chunk(2, 10);
        let a1 = l.alloc_chunk(0, 3);
        assert_eq!(a0, INTER_BASE);
        assert_eq!(a1, INTER_BASE + 10 * ELEM_BYTES);
        assert_eq!(l.row(2), &[ChunkRef { addr: a0, len: 10 }]);
        assert_eq!(l.total_elements(), 13);
        assert_eq!(l.arena_bytes(), 13 * ELEM_BYTES);
    }

    #[test]
    fn regions_do_not_overlap() {
        let bases =
            [A_BASE, B_BASE, A_PTR_BASE, B_PTR_BASE, X_BASE, INTER_BASE, SCRATCH_BASE, OUT_BASE];
        for w in bases.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
