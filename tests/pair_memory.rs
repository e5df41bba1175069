//! The memory contract of a generated pair, gated by counts and not a
//! clock: *the 15K pair the benchmark trains on holds at most 12 MB, and
//! generating it takes at most 3 000 allocator calls*.
//!
//! The two KGs of a pair are built on two threads, the caller and a pool
//! worker, and each frees memory the other allocated, so a per-thread view
//! sees half the pair and can read below zero. This binary reads the
//! counting allocator's global view instead, which is why it holds one
//! `#[test]` only: nothing else may allocate while it measures.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea_synth::{DatasetFamily, PresetConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The 15K D-Y pair the `iptranse_15k_exact_zipf` benchmark workload trains
/// on at seed 1.
#[test]
fn the_15k_pair_is_at_most_12_mb_live() {
    let before = ALLOC.live();
    let calls_before = ALLOC.calls();
    let (pair, peak) =
        ALLOC.measure(|| PresetConfig::new(DatasetFamily::DY, 15_000, false, 1).generate());
    let live = ALLOC.live() - before;
    let calls = ALLOC.calls() - calls_before;
    println!(
        "the pair holds {live} bytes; generating it peaked {peak} bytes above the start \
         and made {calls} allocator calls"
    );
    assert_eq!(pair.kg1.num_entities() + pair.kg2.num_entities(), 28_847);
    assert_eq!(
        pair.kg1.num_rel_triples() + pair.kg2.num_rel_triples(),
        62_701
    );
    assert!(
        live <= 12_000_000,
        "the pair holds {live} bytes (the nested-Vec, doubled-string model held 22 978 316)"
    );
    assert!(
        calls <= 3_000,
        "generating the pair made {calls} allocator calls (57 303 while the latent world \
         held one Vec per name and per token literal)"
    );
}
