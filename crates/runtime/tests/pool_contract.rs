//! The contract of [`parallel_chunks`] on its persistent workers: every
//! chunk exactly once and nothing after the call returns, whatever else the
//! process-wide pool is doing — a call nested inside a chunk, callers on
//! several OS threads at once, a chunk that panics while another is still
//! running, more threads than chunks or than cores.
//!
//! Where a check needs two chunks in flight at once, a barrier between the
//! caller's thread and a helper forces it. A barrier between two chunks
//! cannot deadlock only if they run on different threads, so each side is
//! picked by the thread it runs on, never by its index.

use openea_runtime::pool::parallel_chunks;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::Duration;

/// A value no scheduling can produce by accident: a hash of the element's
/// index and the call's salt.
fn expected(salt: u64, i: usize) -> u64 {
    (i as u64 ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// One call filling `len` elements in chunks of `chunk_len`.
fn fill(len: usize, chunk_len: usize, threads: usize, salt: u64) -> Vec<u64> {
    let mut data = vec![0u64; len];
    parallel_chunks(&mut data, chunk_len, threads, |c, chunk| {
        for (k, x) in chunk.iter_mut().enumerate() {
            *x = expected(salt, c * chunk_len + k);
        }
    });
    data
}

fn assert_exact(data: &[u64], salt: u64, what: &str) {
    for (i, &x) in data.iter().enumerate() {
        assert_eq!(x, expected(salt, i), "{what}: element {i}");
    }
}

#[test]
fn a_call_nested_inside_a_chunk_completes() {
    for threads in [2, 8] {
        // Every outer chunk makes an inner call of its own, and every inner
        // chunk one more: three levels of callers, each at `threads`, while
        // the workers are busy with the levels above.
        let mut outer = vec![Vec::new(); 12];
        parallel_chunks(&mut outer, 1, threads, |i, slot| {
            let mut inner = vec![Vec::new(); 6];
            parallel_chunks(&mut inner, 1, threads, |j, slot| {
                slot[0] = fill(50, 3, threads, (i * 6 + j) as u64);
            });
            slot[0] = inner;
        });
        for (i, inner) in outer.iter().enumerate() {
            assert_eq!(inner.len(), 6);
            for (j, data) in inner.iter().enumerate() {
                assert_eq!(data.len(), 50);
                assert_exact(
                    data,
                    (i * 6 + j) as u64,
                    &format!("threads {threads}, {i}/{j}"),
                );
            }
        }
    }
}

#[test]
fn a_panic_surfaces_after_every_claimed_chunk_and_the_pool_survives() {
    let caller = thread::current().id();
    let meet = Barrier::new(2);
    let (caller_met, helper_met) = (AtomicBool::new(false), AtomicBool::new(false));
    let panicked = AtomicBool::new(false);
    let helper_done = AtomicBool::new(false);
    let (started, ended) = (AtomicUsize::new(0), AtomicUsize::new(0));
    /// Counts a chunk as ended however it leaves, panic included.
    struct End<'a>(&'a AtomicUsize);
    impl Drop for End<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    let mut data = vec![0u8; 64];
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        parallel_chunks(&mut data, 1, 2, |_, _| {
            started.fetch_add(1, SeqCst);
            let _end = End(&ended);
            if thread::current().id() == caller {
                // The caller's first chunk waits for the helper's first
                // one, then panics while that one is still running.
                if !caller_met.swap(true, SeqCst) {
                    meet.wait();
                    panicked.store(true, SeqCst);
                    panic!("chunk boom");
                }
            } else if !helper_met.swap(true, SeqCst) {
                meet.wait();
                while !panicked.load(SeqCst) {
                    thread::yield_now();
                }
                // Not what makes the test pass — the pool's wait does — but
                // the window a pool that re-raised early would fall through.
                thread::sleep(Duration::from_millis(20));
                helper_done.store(true, SeqCst);
            }
        });
    }));

    let payload = outcome.expect_err("the chunk's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk boom"));
    assert!(
        helper_done.load(SeqCst),
        "the panic surfaced while the helper's chunk was still running"
    );
    assert_eq!(
        started.load(SeqCst),
        ended.load(SeqCst),
        "every claimed chunk ended before the panic surfaced"
    );

    for threads in [2, 4, 8] {
        assert_exact(&fill(1000, 7, threads, 99), 99, "the call after a panic");
    }
}

#[test]
fn eight_concurrent_callers_each_get_exact_results() {
    let start = Barrier::new(8);
    thread::scope(|s| {
        for t in 0..8u64 {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..50 {
                    let threads = [2, 3, 4, 8][(t as usize + round) % 4];
                    let salt = t << 32 | round as u64;
                    let len = 200 + 37 * round;
                    assert_exact(
                        &fill(len, 5, threads, salt),
                        salt,
                        &format!("caller {t} round {round}"),
                    );
                }
            });
        }
    });
}

#[test]
fn more_threads_than_chunks_or_cores_and_zero_length() {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    // More threads than chunks: five chunks, at most five runners.
    let runners = Mutex::new(Vec::new());
    let mut data = vec![0u64; 5];
    parallel_chunks(&mut data, 1, 32, |c, chunk| {
        chunk[0] = expected(5, c);
        runners.lock().unwrap().push(thread::current().id());
    });
    assert_exact(&data, 5, "threads > chunks");
    let runners: HashSet<_> = runners.into_inner().unwrap().into_iter().collect();
    assert!(
        runners.len() <= 5,
        "{} runners for five chunks",
        runners.len()
    );

    // More threads than cores, and a last chunk shorter than the rest.
    for threads in [cores + 1, 4 * cores, 64] {
        assert_exact(&fill(1001, 10, threads, 7), 7, "threads > cores");
    }
    // One chunk longer than the data.
    assert_exact(&fill(9, 100, 8, 8), 8, "chunk_len > len");

    // Zero length: nothing to run, at any thread count.
    for threads in [0, 1, 2, 8] {
        let called = AtomicBool::new(false);
        parallel_chunks(&mut Vec::<u64>::new(), 4, threads, |_, _| {
            called.store(true, SeqCst)
        });
        assert!(
            !called.load(SeqCst),
            "a chunk ran for no data at threads {threads}"
        );
    }
}

/// Calls far shorter than a worker's wake-up: most help requests are taken
/// after their call returned, by a helper that must find no chunk left.
#[test]
fn back_to_back_tiny_calls_leave_nothing_behind() {
    for round in 0..2000u64 {
        let len = 1 + (round % 3) as usize;
        assert_exact(&fill(len, 1, 8, round), round, "tiny call");
    }
}
