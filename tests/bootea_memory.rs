//! The memory contract of BootEA's editing round, gated by bytes and not a
//! clock: *the round holds each candidate's ranked list, not a dense matrix
//! sorted cell by cell*.
//!
//! The run is BootEA at its default configuration (dimension 32, learning
//! rate 0.02) on the 1 000-entity D-Y pair at seed 1, fold 0, for fifteen
//! epochs with patience off, so exactly one editing round (`BOOT_EVERY` =
//! 15) happens, in the last epoch. The round's greedy collective matching is
//! stable marriage over every candidate's full list, streamed at 8 B per
//! candidate pair; sorting every cell of a dense similarity matrix held 22 B
//! per pair. The pair has 1 000 entities because at 3 000 and 15 000 BootEA
//! diverges at the default learning rate, so no round is ever reached.
//!
//! The trainer and the similarity sweep run on pool workers, so this binary
//! reads the counting allocator's global view and holds one `#[test]` only.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea::approaches::bootea::BootEa;
use openea::prelude::*;
use openea_runtime::rng::{SeedableRng, SmallRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes above the inputs on this fixture: editing by sorting
/// every cell of a dense similarity matrix, and by stable marriage over
/// streamed lists. The reading moves by a few hundred bytes run to run.
const BEFORE: usize = 17_951_574;
const AFTER: usize = 6_136_683;
/// The gate, between the two readings.
const BOUND: usize = 9_000_000;

/// Both editing paths train the same bits.
const CONTENT_HASH: u64 = 0x4d85_fb8b_bd5f_4894;

#[test]
fn a_bootea_editing_round_holds_no_dense_matrix() {
    let pair = PresetConfig::new(DatasetFamily::DY, 1_000, false, 1).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
    let cfg = RunConfig {
        max_epochs: 15,
        patience: usize::MAX,
        threads: 2,
        seed: 1,
        ..RunConfig::default()
    };
    let (out, peak) = ALLOC.measure(|| BootEa::default().run(&pair, &fold, &cfg));
    println!(
        "a BootEA run with one editing round peaked {peak} bytes above its inputs \
         (bound {BOUND}; {BEFORE} sorting every cell, {AFTER} streaming lists); \
         content hash {:#018x}",
        out.content_hash()
    );
    assert_eq!(out.augmentation.len(), 1, "one editing round");
    assert_eq!(out.content_hash(), CONTENT_HASH);
    assert!(
        peak <= BOUND,
        "a BootEA editing round peaked {peak} bytes above its inputs, over {BOUND}"
    );
}
