//! Data-parallelism on persistent workers with atomic work-stealing chunk
//! dispatch.
//!
//! The workspace's hot loops (all-pairs similarity, BootEA's candidate
//! refresh) write disjoint chunks of one output buffer. The old pattern —
//! statically splitting the buffer into `threads` equal parts — suffers
//! load imbalance when per-row cost is skewed: one unlucky worker finishes
//! last while the rest idle. Here the buffer is split into many *small*
//! chunks instead, and runners atomically claim the next unclaimed chunk
//! until none remain, so a slow chunk only delays its own runner.
//!
//! Scheduling never affects results: chunk `i` always covers the same
//! elements and is computed by a pure function of `i`, so output is
//! bit-identical for every thread count — a property the determinism test
//! matrix pins down.
//!
//! The runners of a call are its caller and up to `threads - 1` helpers
//! from one process-wide set of worker threads. A worker is started the
//! first time a call asks for more helpers than exist — so there are as many
//! as the largest `threads - 1` ever asked for — and between calls it sleeps
//! on a condition variable. A call does not wait for helpers to arrive: the
//! caller claims chunks from the start, and a helper that comes late finds
//! none left. So a call nested inside a chunk, or made while every worker
//! is busy with other callers, still runs all its chunks, on its caller if
//! need be, and never waits for a worker to come free.
//!
//! ```
//! let mut data = vec![0u64; 103];
//! openea_runtime::pool::parallel_chunks(&mut data, 10, 4, |chunk_idx, chunk| {
//!     for (k, x) in chunk.iter_mut().enumerate() {
//!         *x = (chunk_idx * 10 + k) as u64 * 2;
//!     }
//! });
//! assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64 * 2));
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// A raw pointer that may cross thread boundaries. Sound here because every
/// runner derives *disjoint* subslices from it (chunk indices are handed
/// out exactly once by the atomic counter).
struct SendPtr<T>(*mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// may be shorter) and runs `f(chunk_index, chunk)` for each, on up to
/// `threads` runners — the calling thread and `threads - 1` pool workers —
/// with atomic chunk claiming. Returns once every chunk has run.
///
/// With `threads <= 1`, or a single chunk, runs inline on the caller's
/// thread with no synchronization at all.
///
/// A panic in `f` stops the handing out of chunks; once every chunk already
/// claimed has finished, the first panic's payload is re-raised on the
/// caller. The pool stays usable.
pub fn parallel_chunks<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(chunk_len);
    let threads = threads.clamp(1, n_chunks);
    if threads == 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }

    let base = SendPtr(data.as_mut_ptr());
    let run_chunk = |i: usize| {
        let base = &base;
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunk i spans [start, end) and the counter hands each
        // i < n_chunks to exactly one runner, so the subslices are pairwise
        // disjoint views into `data`, which the exclusive borrow keeps alive
        // until every claimed chunk has finished (see `Job::task`).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
        f(i, chunk);
    };
    let task: &(dyn Fn(usize) + Sync) = &run_chunk;
    // SAFETY: only the lifetime changes. `Job::run` calls `task` for a
    // claimed index i < n_chunks alone, and every such call lies between a
    // runner's increment and decrement of `active`. This frame does not
    // return, nor unwind, before its own claiming loop has pushed `next`
    // past the last chunk and it has then read `active == 0` (`SeqCst`
    // throughout): a runner whose increment that read missed claims after
    // it, gets an index ≥ n_chunks, and leaves without calling `task`. So
    // every call of `task` finishes while `run_chunk` and the borrows it
    // holds are alive; a `Job` that outlives this frame, in the queue or
    // in a late helper's hands, keeps a reference that is never read.
    let task = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let job = Arc::new(Job {
        task,
        n_chunks,
        next: AtomicUsize::new(0),
        active: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
    });
    POOL.ask_for_helpers(&job, threads - 1);
    job.run();
    while job.active.load(SeqCst) != 0 {
        thread::park();
    }
    let panic = lock(&job.panic).take();
    if let Some(payload) = panic {
        panic::resume_unwind(payload);
    }
}

/// One multi-runner call of [`parallel_chunks`], shared by its caller and
/// the helpers that join it.
struct Job {
    /// Runs chunk `i`. Borrowed from the caller's frame under an erased
    /// lifetime: called only for `i < n_chunks`, which only the caller's
    /// call can hand out (the SAFETY argument in `parallel_chunks`).
    task: &'static (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// The next chunk to hand out; at or past `n_chunks` once none remain.
    next: AtomicUsize,
    /// Runners inside [`Job::run`], the caller among them.
    active: AtomicUsize,
    /// The first panic a chunk raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Unparked by the last runner to leave.
    caller: Thread,
}

impl Job {
    /// Claims and runs chunks until none remain.
    fn run(&self) {
        self.active.fetch_add(1, SeqCst);
        loop {
            let i = self.next.fetch_add(1, SeqCst);
            if i >= self.n_chunks {
                break;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                // Hand out nothing more; keep the first payload.
                self.next.fetch_max(self.n_chunks, SeqCst);
                lock(&self.panic).get_or_insert(payload);
            }
        }
        if self.active.fetch_sub(1, SeqCst) == 1 {
            self.caller.unpark();
        }
    }
}

/// The process-wide workers and the help they have been asked for.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled once per request queued.
    requests: Condvar,
}

struct Queue {
    /// One entry per helper a call asked for, oldest first. An entry
    /// whose call has finished costs its taker one failed claim.
    requests: VecDeque<Arc<Job>>,
    /// Workers started so far.
    workers: usize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        requests: VecDeque::new(),
        workers: 0,
    }),
    requests: Condvar::new(),
};

impl Pool {
    /// Queues `helpers` requests to join `job`, first starting workers
    /// until there are at least `helpers`.
    fn ask_for_helpers(&'static self, job: &Arc<Job>, helpers: usize) {
        let mut queue = lock(&self.queue);
        while queue.workers < helpers {
            thread::Builder::new()
                .name(format!("openea-pool-{}", queue.workers))
                .spawn(move || self.serve())
                .expect("the OS starts a pool worker");
            queue.workers += 1;
        }
        queue
            .requests
            .extend(std::iter::repeat_with(|| Arc::clone(job)).take(helpers));
        drop(queue);
        for _ in 0..helpers {
            self.requests.notify_one();
        }
    }

    /// A worker's life: join the oldest request's job, repeat. Never
    /// returns and never unwinds — every chunk runs under `catch_unwind` —
    /// so the worker is never joined, and there is no panic to lose.
    fn serve(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    match queue.requests.pop_front() {
                        Some(job) => break job,
                        None => {
                            queue = self
                                .requests
                                .wait(queue)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            job.run();
        }
    }
}

/// Locks `m`, poisoned or not: no lock of this module is held while a chunk
/// runs, and every update under one is a single push, pop or store, so the
/// data is whole even if a thread died holding it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A chunk length that yields several chunks per worker (so stealing can
/// balance skew) without making the dispatch overhead visible: aims for
/// `per_thread_chunks` chunks per thread, clamped to at least one item.
pub fn balanced_chunk_len(items: usize, threads: usize, per_thread_chunks: usize) -> usize {
    let tasks = threads.max(1) * per_thread_chunks.max(1);
    items.div_ceil(tasks.max(1)).max(1)
}

/// The default worker count: available parallelism, capped at 16.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_element_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for len in [0usize, 1, 7, 64, 1000] {
                let mut data = vec![0u32; len];
                parallel_chunks(&mut data, 7, threads, |_, chunk| {
                    for x in chunk.iter_mut() {
                        *x += 1;
                    }
                });
                assert!(data.iter().all(|&x| x == 1), "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn chunk_indices_match_positions() {
        let mut data = vec![0usize; 57];
        parallel_chunks(&mut data, 5, 4, |i, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = i * 5 + k;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let compute = |threads: usize| {
            let mut data = vec![0.0f32; 501];
            parallel_chunks(&mut data, 13, threads, |i, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = ((i * 13 + k) as f32).sin();
                }
            });
            data
        };
        let one = compute(1);
        for t in [2, 4, 8] {
            assert_eq!(one, compute(t));
        }
    }

    #[test]
    fn skewed_work_is_balanced() {
        // Not a timing assertion — just exercises the stealing path with
        // wildly uneven chunk costs and checks correctness.
        let mut data = vec![0u64; 64];
        parallel_chunks(&mut data, 1, 4, |i, chunk| {
            let mut acc = 0u64;
            for k in 0..(i * i * 100) as u64 {
                acc = acc.wrapping_add(k);
            }
            chunk[0] = acc.wrapping_add(i as u64);
        });
        for (i, &x) in data.iter().enumerate() {
            let mut acc = 0u64;
            for k in 0..(i * i * 100) as u64 {
                acc = acc.wrapping_add(k);
            }
            assert_eq!(x, acc.wrapping_add(i as u64));
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let mut data = vec![0u8; 32];
        parallel_chunks(&mut data, 4, 4, |i, _| {
            if i == 3 {
                panic!("worker boom");
            }
        });
    }

    #[test]
    fn balanced_chunk_len_bounds() {
        assert_eq!(balanced_chunk_len(0, 4, 4), 1);
        assert!(balanced_chunk_len(1000, 4, 4) >= 1000 / 32);
        assert_eq!(balanced_chunk_len(5, 8, 4), 1);
    }
}
