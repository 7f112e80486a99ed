//! A counting wrapper around the system allocator: live bytes and their
//! peak, measured at the allocator rather than as the process's resident
//! high-water mark (which depends on arena reuse and page timing).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards every call to [`System`] and keeps the requested sizes of live
/// allocations. The counters publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest live-byte count since the last [`CountingAlloc::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Starts a new peak window at the current live-byte count.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the counters are plain atomics updated only after a successful call.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
pub static HEAP: CountingAlloc = CountingAlloc::new();

#[cfg(test)]
mod tests {
    use super::*;

    /// A private instance, so allocations by concurrently running tests
    /// (which go through the global instance) cannot disturb the counts.
    #[test]
    fn peak_tracks_a_known_allocation_pattern() {
        let a = CountingAlloc::new();
        let l1 = Layout::from_size_align(1000, 8).unwrap();
        let l2 = Layout::from_size_align(3000, 8).unwrap();
        // SAFETY: each pointer is freed once, with the layout (or the size
        // after realloc) it was allocated with.
        unsafe {
            let p1 = a.alloc(l1);
            let p2 = a.alloc_zeroed(l2);
            assert_eq!((a.live(), a.peak()), (4000, 4000));
            a.dealloc(p2, l2);
            assert_eq!((a.live(), a.peak()), (1000, 4000));
            let p1 = a.realloc(p1, l1, 5000);
            assert_eq!((a.live(), a.peak()), (5000, 5000));
            let p1 = a.realloc(p1, Layout::from_size_align(5000, 8).unwrap(), 200);
            assert_eq!((a.live(), a.peak()), (200, 5000));
            a.reset_peak();
            assert_eq!(a.peak(), 200);
            a.dealloc(p1, Layout::from_size_align(200, 8).unwrap());
            assert_eq!((a.live(), a.peak()), (0, 200));
        }
    }
}
