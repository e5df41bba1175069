//! The memory contract of one IPTransE generation, gated by bytes and not a
//! clock: *training through a self-training round copies no whole embedding
//! table it does not return*.
//!
//! The run is the `iptranse_15k_exact_zipf` benchmark workload's at seed 1:
//! the 15K D-Y pair, dimension 64, twenty epochs with validation every ten,
//! so the one self-training round (`boot_every` = 20) falls in the last
//! epoch, right before the checkpoint. The round may hold its candidates'
//! rows (5.9 MB) on top of the training state, but no extract of both KGs
//! (7.4 MB) beside them; the generation's peak is then the epoch-20
//! checkpoint beside the retained best.
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

/// Peak live bytes above the inputs on this fixture: with a whole-table
/// extract per self-training round, and with the candidates' rows gathered
/// from the trained table. The count repeats exactly run to run.
const BEFORE: usize = 28_890_756;
const AFTER: usize = 23_657_392;
/// The gate, between the two readings.
const BOUND: usize = 26_000_000;

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
         (bound {BOUND}; {BEFORE} with an extract per round, {AFTER} gathering in place)"
    );
    assert_eq!(out.augmentation.len(), 1, "one self-training round");
    assert!(
        peak <= BOUND,
        "an IPTransE generation peaked {peak} bytes above its inputs, over {BOUND}"
    );
}
