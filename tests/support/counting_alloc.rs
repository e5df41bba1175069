//! A std-only counting global allocator for tests that gate on *bytes*, not
//! on a clock: live bytes, the peak of live bytes since the last
//! [`CountingAlloc::measure`] began, and allocator calls. A test binary
//! installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//! ```
//!
//! and keeps to a single `#[test]`, so nothing else allocates while a
//! measurement is open. Counts are exact and repeat run to run: they are
//! the sizes the program asked for, not what the allocator or the kernel
//! made of them.
//!
//! A binary with several tests measures with [`CountingAlloc::on_this_thread`]
//! instead: the harness runs each test on a thread of its own, and that view
//! counts only what the calling thread did.

// Each binary that includes this file uses one of the two views.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A request of at least this many bytes counts as large: glibc serves
/// those from `mmap` or the heap top, where a free is a trim and the next
/// use a page fault per 4 KiB.
pub const LARGE: usize = 64 * 1024;

/// What one thread asked of the allocator.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    /// Calls that can return new memory: `alloc`, `alloc_zeroed`, `realloc`.
    pub calls: usize,
    /// Those of them that asked for [`LARGE`] bytes or more.
    pub large_calls: usize,
    /// Bytes those calls asked for, freed since or not.
    pub requested: usize,
    /// Bytes allocated less bytes freed. Wraps below zero when a thread
    /// frees what another allocated; the difference of two readings is
    /// still exact.
    pub live: usize,
}

thread_local! {
    // Const-initialised and without a destructor, so the allocator can reach
    // it at any point of a thread's life, and reaching it never allocates.
    static MINE: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            large_calls: 0,
            requested: 0,
            live: 0,
        })
    };
}

/// One allocator call on this thread: `grown` bytes asked for (0 for a
/// free), `shrunk` bytes given back.
fn tally(grown: usize, shrunk: usize) {
    // A thread past its thread-local teardown is not measuring anything.
    let _ = MINE.try_with(|t| {
        let mut now = t.get();
        if grown > 0 {
            now.calls += 1;
            now.large_calls += usize::from(grown >= LARGE);
            now.requested += grown;
        }
        now.live = now.live.wrapping_add(grown).wrapping_sub(shrunk);
        t.set(now);
    });
}

pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    calls: AtomicUsize,
    zeroed_large: AtomicUsize,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            calls: AtomicUsize::new(0),
            zeroed_large: AtomicUsize::new(0),
        }
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// Calls that could return new memory (`alloc`, `alloc_zeroed`,
    /// `realloc`) on any thread since the program started.
    pub fn calls(&self) -> usize {
        self.calls.load(Relaxed)
    }

    /// `alloc_zeroed` calls of [`LARGE`] bytes or more, on any thread: a
    /// zeroed block that size is one the program then writes over, or
    /// faults in page by page to read zeros.
    pub fn zeroed_large_calls(&self) -> usize {
        self.zeroed_large.load(Relaxed)
    }

    /// Runs `f` and returns its value with the most bytes that were live at
    /// any moment inside it, *above* what was live when it started — the
    /// memory `f` needed beyond its inputs, whether or not it gave it back.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let base = self.live();
        self.peak.store(base, Relaxed);
        let value = f();
        (value, self.peak.load(Relaxed).saturating_sub(base))
    }

    /// Runs `f` and returns its value with what the calling thread did
    /// inside it: the allocator calls it made, and the bytes it allocated
    /// and still holds (`f`'s value included).
    pub fn on_this_thread<T>(&self, f: impl FnOnce() -> T) -> (T, Tally) {
        let before = MINE.get();
        let value = f();
        let after = MINE.get();
        let during = Tally {
            calls: after.calls - before.calls,
            large_calls: after.large_calls - before.large_calls,
            requested: after.requested - before.requested,
            live: after.live.wrapping_sub(before.live),
        };
        (value, during)
    }

    fn grew(&self, bytes: usize) {
        self.calls.fetch_add(1, Relaxed);
        let now = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(now, Relaxed);
    }
}

// SAFETY: every request goes to `System` unchanged and its answer comes
// back unchanged, so `System`'s own `GlobalAlloc` guarantees carry over;
// the counters are side data that no pointer depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size());
            tally(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grew(layout.size());
            if layout.size() >= LARGE {
                self.zeroed_large.fetch_add(1, Relaxed);
            }
            tally(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, hence from `System`, with
        // this `layout`.
        unsafe { System.dealloc(p, layout) };
        self.live.fetch_sub(layout.size(), Relaxed);
        tally(0, layout.size());
    }

    /// Counted as the worst case — the new block live beside the old one —
    /// because whether a growth happens in place is the allocator's
    /// business, and a doubling `Vec` must not hide behind it.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `p` and `layout`
        // are `System`'s own.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            self.grew(new_size);
            self.live.fetch_sub(layout.size(), Relaxed);
            tally(new_size, layout.size());
        }
        q
    }
}
