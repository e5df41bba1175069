//! The index-scale generator's allocations, gated by counts and not a
//! clock: *one 200 000 × 32 pair asks the allocator for its three outputs
//! and the cluster centres, writes each output once, and asks for nothing
//! zeroed*.
//!
//! A zeroed block of that size is either memory the kernel hands over
//! page by page and the sweep then overwrites, or, recycled from the
//! heap, 51 MB of `memset` before the first Gaussian. The outputs are
//! reserved, not filled, and the sweep writes every element once.
//!
//! Calls and bytes are the calling thread's: it allocates the outputs, the
//! centres and the task list, and at one thread runs every chunk itself.
//! The global view would also count what the pool's worker does as it
//! starts, which lands in the window in some runs and not in others. The
//! zeroed blocks are counted on every thread, which is why this binary
//! holds one `#[test]` only: nothing else may allocate while it measures.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea_synth::{generate_embedded_pair, ScaleConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The `scale_200k_ivf_uniform` benchmark workload's pair at seed 1.
fn benchmark_pair() -> ScaleConfig {
    ScaleConfig {
        entities: 200_000,
        dim: 32,
        seed: 1,
        ..Default::default()
    }
}

/// `(threads, calls, bytes)` beyond the outputs and the centres: the task
/// list, one 48-byte entry per chunk (4 chunks per thread), and at two
/// threads the pool's shared record of the call (88 bytes).
const ALLOWANCE: [(usize, usize, usize); 2] = [(1, 1, 4 * 48), (2, 2, 8 * 48 + 88)];

#[test]
fn the_200k_pair_is_written_once_into_reserved_outputs() {
    let cfg = benchmark_pair();
    // Starts the pool's worker before anything is counted.
    generate_embedded_pair(
        &ScaleConfig {
            entities: 64,
            ..cfg.clone()
        },
        2,
    );
    let (n, dim, k) = (cfg.entities, cfg.dim, cfg.resolved_communities());
    let outputs = 2 * n * dim * 4 + n * 4;
    let centres = k * dim * 4;
    for (threads, extra_calls, extra_bytes) in ALLOWANCE {
        let zeroed = ALLOC.zeroed_large_calls();
        let (pair, mine) = ALLOC.on_this_thread(|| generate_embedded_pair(&cfg, threads));
        let zeroed = ALLOC.zeroed_large_calls() - zeroed;
        let (calls, bytes) = (mine.calls, mine.requested);
        drop(pair);
        println!(
            "threads {threads}: {calls} allocator calls, {bytes} bytes requested \
             (outputs {outputs}, centres {centres}), {zeroed} zeroed blocks of 64 KiB or more"
        );
        assert_eq!(
            zeroed, 0,
            "threads {threads}: {zeroed} large zeroed blocks (the filled outputs were three: \
             2 × 25.6 MB and 0.8 MB)"
        );
        assert_eq!(calls, 4 + extra_calls, "threads {threads}: allocator calls");
        assert_eq!(
            bytes,
            outputs + centres + extra_bytes,
            "threads {threads}: bytes requested"
        );
    }
}
