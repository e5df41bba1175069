//! The memory contract of one GCNAlign generation, gated by bytes and not a
//! clock: *the autodiff tape holds only what `backward` reads, and a
//! checkpoint does not copy the embeddings out on top of the step pool*.
//!
//! The run is the `gcnalign_3k_exact_uniform` benchmark workload's at seed
//! 1: the 3 000-entity D-Y pair, fold 0, dimension 32, thirty epochs of
//! eight full-batch steps with validation every ten. Its peak is a training
//! step on top of the encoder, the attribute view and the retained best
//! checkpoint; `tests/autodiff_memory.rs` pins the step on its own.
//!
//! Validation's similarity sweeps run on pool workers, so this binary reads
//! the counting allocator's global view and holds one `#[test]` only.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea::approaches::gcnalign::GcnAlign;
use openea::prelude::*;
use openea_runtime::rng::{SeedableRng, SmallRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes above the inputs on this fixture: with one tape node per
/// propagation, the pre-activation `Â·X·W₁` kept beside `tanh` of it and
/// the adjacency stored beside its bit-identical transpose; and with one
/// node per layer and a symmetric adjacency stored once. The count repeats
/// exactly run to run.
const BEFORE: usize = 7_347_316;
const AFTER: usize = 6_317_916;
/// The gate, between the two readings.
const BOUND: usize = 6_700_000;

#[test]
fn a_gcnalign_generation_tapes_only_what_backward_reads() {
    let pair = PresetConfig::new(DatasetFamily::DY, 3000, false, 1).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
    let cfg = RunConfig {
        dim: 32,
        max_epochs: 30,
        patience: usize::MAX,
        threads: 2,
        seed: 1,
        ..RunConfig::default()
    };
    let (out, peak) = ALLOC.measure(|| GcnAlign::default().run(&pair, &fold, &cfg));
    println!(
        "a GCNAlign generation peaked {peak} bytes above its inputs \
         (bound {BOUND}; {BEFORE} with the old tape, {AFTER} with this one)"
    );
    assert_eq!(out.emb1.len(), pair.kg1.num_entities() * out.dim);
    assert!(
        peak <= BOUND,
        "a GCNAlign generation peaked {peak} bytes above its inputs, over {BOUND}"
    );
}
