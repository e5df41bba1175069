//! The memory contract of one GCNAlign generation, gated by bytes and
//! allocator calls and not a clock: *the autodiff tape holds only what
//! `backward` reads, a checkpoint does not copy the embeddings out on top of
//! the step pool, the attribute view is not stored beside the fused
//! checkpoint, and the best checkpoint is not kept beside the file a
//! snapshot writer holds it in*.
//!
//! The run is the `gcnalign_3k_exact_uniform` benchmark workload's at seed
//! 1: the 3 000-entity D-Y pair, fold 0, dimension 32, thirty epochs of
//! eight full-batch steps with validation every ten. Without a sink its
//! peak is a training step on top of the encoder and the retained best
//! checkpoint, with no stored view: AC2Vec keeps its trained model and each
//! KG's attribute ids, and computes its rows into each fused checkpoint,
//! whose attribute half is their only copy. With a `SnapshotWriter` — the
//! benchmark's generation — the engine drops the best's tables once the
//! writer holds them in `<label>.ckpt.snap` and reads them back at the end,
//! so the peak is the step on top of the encoder alone, and the model
//! returned is the sinkless one. `tests/autodiff_memory.rs` pins the step
//! on its own.
//!
//! Validation's similarity sweeps run on pool workers, so this binary reads
//! the counting allocator's global view and holds one `#[test]` only.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea::approaches::gcnalign::GcnAlign;
use openea::prelude::*;
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_serve::SnapshotWriter;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes above the inputs on this fixture: with AC2Vec's rows
/// stored in the view beside the fused checkpoint; and computed into the
/// checkpoint. The count repeats exactly run to run.
const BEFORE: usize = 6_317_916;
const AFTER: usize = 5_406_156;
/// The gate, between the two readings.
const BOUND: usize = 5_500_000;

/// Allocator calls on every thread during the generation: with AC2Vec
/// copying three rows into fresh `Vec`s for each of its ≈ 116 000 training
/// pairs; and copying them into the model's scratch. The count repeats
/// exactly run to run.
const CALLS_BEFORE: usize = 366_663;
const CALLS_AFTER: usize = 964;
/// The gate, between the two readings.
const CALLS_BOUND: usize = 20_000;

/// Peak live bytes above the inputs of the same generation with a
/// `SnapshotWriter` installed: the engine keeping the best beside the
/// written file; and restoring it from the file at the end. The count
/// repeats exactly run to run.
const HELD_BEFORE: usize = 5_407_280;
const HELD_AFTER: usize = 3_932_208;
/// The gate, between the two readings.
const HELD_BOUND: usize = 4_200_000;

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
    let calls_at_start = ALLOC.calls();
    let (out, peak) = ALLOC.measure(|| GcnAlign.run(&pair, &fold, &cfg));
    let calls = ALLOC.calls() - calls_at_start;
    println!(
        "a GCNAlign generation peaked {peak} bytes above its inputs \
         (bound {BOUND}; {BEFORE} with a stored attribute view, {AFTER} with \
         a computed one) in {calls} allocator calls (bound {CALLS_BOUND}; \
         {CALLS_BEFORE} with fresh row copies, {CALLS_AFTER} with scratch)"
    );
    assert_eq!(out.emb1.len(), pair.kg1.num_entities() * out.dim);
    assert!(
        peak <= BOUND,
        "a GCNAlign generation peaked {peak} bytes above its inputs, over {BOUND}"
    );
    assert!(
        calls <= CALLS_BOUND,
        "a GCNAlign generation made {calls} allocator calls, over {CALLS_BOUND}"
    );

    let dir = std::env::temp_dir().join(format!("openea-gcnalign-held-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
    let writer = SnapshotWriter::new(&dir, Vec::new(), Vec::new());
    let ctx = RunContext::new(&cfg).with_artifacts(&writer);
    let (held, held_peak) = ALLOC.measure(|| GcnAlign.run_with(&pair, &fold, &cfg, &ctx));
    let write_error = writer.take_error();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "with a snapshot writer it peaked {held_peak} bytes above its inputs \
         (bound {HELD_BOUND}; {HELD_BEFORE} keeping the best beside the file, \
         {HELD_AFTER} restoring it), content hash {:016x}",
        held.content_hash()
    );
    assert!(write_error.is_none(), "{write_error:?}");
    assert_eq!(
        held.content_hash(),
        out.content_hash(),
        "the restored best is the sinkless run's"
    );
    assert!(
        held_peak <= HELD_BOUND,
        "a GCNAlign generation with a snapshot writer peaked {held_peak} bytes \
         above its inputs, over {HELD_BOUND}"
    );
}
