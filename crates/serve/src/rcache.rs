//! Content-addressed result cache: identical products served without
//! recompute.
//!
//! The key is built from the *content* of the operands (dims, structure
//! arrays, value bits) plus the op kind — not from request ids — so two
//! clients submitting the same product share one entry. Storage is a map
//! keyed by that material, behind a mutex and with FIFO capacity eviction
//! so a long-running service cannot grow without bound. Results are
//! `Arc`-shared: a hit is a clone of the pointer, not of the matrix.
//!
//! Insertion is **verify-before-insert**: [`ResultCache::insert`] demands
//! the [`Attested`] token only [`crate::verifier::check`] can mint, so a
//! silently corrupted result cannot poison the cache — structurally, not by
//! reviewer diligence. A poisoned cache is the worst SDC amplifier a
//! service has (one bad compute served to every future client), which is
//! why the guarantee lives in the type system.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use outerspace_dse::cache::content_hash;
use outerspace_sparse::{Csr, SparseVector};

use crate::request::{Op, OpOutput};
use crate::verifier::Attested;

fn push_usize(bytes: &mut Vec<u8>, v: usize) {
    bytes.extend_from_slice(&(v as u64).to_le_bytes());
}

fn csr_digest(m: &Csr) -> String {
    let mut bytes = Vec::with_capacity(16 + 8 * (m.row_ptr().len() + 2 * m.nnz()));
    push_usize(&mut bytes, m.nrows() as usize);
    push_usize(&mut bytes, m.ncols() as usize);
    for &p in m.row_ptr() {
        push_usize(&mut bytes, p);
    }
    for &c in m.col_indices() {
        push_usize(&mut bytes, c as usize);
    }
    for &v in m.values() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    content_hash(&bytes)
}

fn vector_digest(x: &SparseVector) -> String {
    let mut bytes = Vec::with_capacity(8 + 16 * x.indices.len());
    push_usize(&mut bytes, x.len as usize);
    for &i in &x.indices {
        push_usize(&mut bytes, i as usize);
    }
    for &v in &x.values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    content_hash(&bytes)
}

/// The full key material for one op — op kind plus per-operand content
/// digests. [`ResultCache`] is keyed by it.
pub fn op_material(op: &Op) -> String {
    match op {
        Op::Spgemm { a, b } => format!("spgemm a={} b={}", csr_digest(a), csr_digest(b)),
        Op::Spmv { a, x } => format!("spmv a={} x={}", csr_digest(a), vector_digest(x)),
    }
}

struct Inner {
    map: HashMap<String, Arc<OpOutput>>,
    fifo: VecDeque<String>,
    hits: u64,
    misses: u64,
}

/// Bounded, thread-safe, content-addressed result store.
pub struct ResultCache {
    inner: Mutex<Inner>,
    cap: usize,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, hits, misses) = self.stats();
        f.debug_struct("ResultCache")
            .field("cap", &self.cap)
            .field("len", &len)
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

impl ResultCache {
    /// A cache holding at most `cap` results (0 disables caching).
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                fifo: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a result by pre-computed key material (see [`op_material`]).
    pub fn lookup(&self, material: &str) -> Option<Arc<OpOutput>> {
        let mut inner = self.lock();
        match inner.map.get(material).cloned() {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a *verified* result, evicting the oldest entry when full. A
    /// no-op on a zero-capacity cache. The [`Attested`] witness is the
    /// verify-before-insert guarantee: only results that passed
    /// [`crate::verifier::check`] against their own operands can get here.
    pub fn insert(&self, material: &str, value: Arc<OpOutput>, _attested: &Attested) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.map.insert(material.to_string(), value).is_none() {
            inner.fifo.push_back(material.to_string());
        }
        while inner.fifo.len() > self.cap {
            if let Some(oldest) = inner.fifo.pop_front() {
                inner.map.remove(&oldest);
            }
        }
    }

    /// `(entries, hits, misses)` counters.
    pub fn stats(&self) -> (usize, u64, u64) {
        let inner = self.lock();
        (inner.map.len(), inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;

    fn op(seed: u64) -> Op {
        let a = Arc::new(uniform::matrix(32, 32, 120, seed));
        Op::Spgemm { a: a.clone(), b: a }
    }

    /// The only way tests can mint an [`Attested`]: actually verify a
    /// result. `I × I = I` keeps it trivial.
    fn attested() -> Attested {
        let a = Arc::new(outerspace_sparse::Csr::identity(4));
        let op = Op::Spgemm { a: a.clone(), b: a.clone() };
        let out = OpOutput::Matrix(outerspace_sparse::Csr::identity(4));
        let policy = crate::verifier::VerifyPolicy::default();
        crate::verifier::check(&op, &out, &crate::verifier::config_for(&policy, 0))
            .expect("identity product must verify")
    }

    #[test]
    fn material_is_content_addressed() {
        // Same content in distinct allocations → same key.
        assert_eq!(op_material(&op(5)), op_material(&op(5)));
        // Different values → different key.
        assert_ne!(op_material(&op(5)), op_material(&op(6)));
        // SpGEMM and SpMV never collide even over identical matrices.
        let a = Arc::new(uniform::matrix(32, 32, 120, 5));
        let x = Arc::new(outerspace_gen::vector::sparse(32, 0.5, 1));
        let mm = op_material(&Op::Spgemm { a: a.clone(), b: a.clone() });
        let mv = op_material(&Op::Spmv { a, x });
        assert_ne!(mm, mv);
    }

    #[test]
    fn transposed_operands_do_not_collide() {
        let a = Arc::new(uniform::matrix(32, 32, 120, 5));
        let b = Arc::new(uniform::matrix(32, 32, 120, 6));
        let ab = op_material(&Op::Spgemm { a: a.clone(), b: b.clone() });
        let ba = op_material(&Op::Spgemm { a: b, b: a });
        assert_ne!(ab, ba);
    }

    #[test]
    fn hit_after_insert_and_fifo_eviction() {
        let cache = ResultCache::new(2);
        let att = attested();
        let out = |n| Arc::new(OpOutput::Matrix(outerspace_sparse::Csr::identity(n)));
        let (k1, k2, k3) = ("k1", "k2", "k3");
        assert!(cache.lookup(k1).is_none());
        cache.insert(k1, out(1), &att);
        cache.insert(k2, out(2), &att);
        assert!(cache.lookup(k1).is_some());
        cache.insert(k3, out(3), &att); // evicts k1, the oldest
        assert!(cache.lookup(k1).is_none());
        assert!(cache.lookup(k2).is_some());
        assert!(cache.lookup(k3).is_some());
        let (len, hits, misses) = cache.stats();
        assert_eq!(len, 2);
        assert_eq!(hits, 3);
        assert_eq!(misses, 2);
    }

    #[test]
    fn reinsert_does_not_double_count_fifo() {
        let cache = ResultCache::new(2);
        let att = attested();
        let out = Arc::new(OpOutput::Matrix(outerspace_sparse::Csr::identity(1)));
        cache.insert("k", out.clone(), &att);
        cache.insert("k", out.clone(), &att);
        cache.insert("j", out.clone(), &att);
        // Both still present: the duplicate insert must not have pushed a
        // second FIFO slot for "k" that would evict early.
        assert!(cache.lookup("k").is_some());
        assert!(cache.lookup("j").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        let att = attested();
        cache.insert("k", Arc::new(OpOutput::Matrix(outerspace_sparse::Csr::identity(1))), &att);
        assert!(cache.lookup("k").is_none());
    }
}
