//! The memory contract of one IPTransE generation, gated by bytes and not a
//! clock: *a generation holds at most one extracted copy of the trained
//! table*.
//!
//! The run is the `iptranse_15k_exact_zipf` benchmark workload's at seed 1:
//! the 15K D-Y pair, dimension 64, twenty epochs with validation every ten,
//! so the one self-training round (`BOOT_EVERY` = 20) falls in the last
//! epoch, right before the second checkpoint. The round streams its
//! candidates' rows a block at a time instead of gathering them all (5.9
//! MB); validation gathers only the validation pairs' rows; and the epoch-20
//! checkpoint, which improves on epoch 10's, is extracted (7.4 MB) only
//! after the retained epoch-10 best is dropped. The generation's peak is
//! then that one extract on top of the training state.
//!
//! The trainer and the similarity sweep run on pool workers, so this binary
//! reads the counting allocator's global view and holds one `#[test]` only.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea::approaches::iptranse::IpTransE;
use openea::prelude::*;
use openea_runtime::rng::{SeedableRng, SmallRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes above the inputs on this fixture: with every checkpoint
/// extracted to be scored beside the retained best, and with validation
/// scored in place, only an improving checkpoint extracted after the old
/// best is dropped, and proposals streamed in blocks. The count repeats
/// exactly run to run.
const BEFORE: usize = 23_657_392;
const AFTER: usize = 16_363_264;
/// The gate, between the two readings.
const BOUND: usize = 18_000_000;

#[test]
fn an_iptranse_generation_copies_no_table_it_does_not_return() {
    let pair = PresetConfig::new(DatasetFamily::DY, 15_000, false, 1).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
    let cfg = RunConfig {
        dim: 64,
        max_epochs: 20,
        patience: usize::MAX,
        threads: 2,
        seed: 1,
        ..RunConfig::default()
    };
    let (out, peak) = ALLOC.measure(|| IpTransE::default().run(&pair, &fold, &cfg));
    println!(
        "an IPTransE generation peaked {peak} bytes above its inputs \
         (bound {BOUND}; {BEFORE} extracting every checkpoint, {AFTER} scoring in place)"
    );
    assert_eq!(out.augmentation.len(), 1, "one self-training round");
    assert!(
        peak <= BOUND,
        "an IPTransE generation peaked {peak} bytes above its inputs, over {BOUND}"
    );
}
