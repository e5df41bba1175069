//! The memory contract of a warm start: *absorbing a parent generation
//! reads its rows in place*. A resumed run asks the allocator for less than
//! one copy of the parent's two tables, `(n1 + n2) · dim · 4` bytes, beyond
//! what the same run asks for cold; a resume that first concatenated both
//! parent tables into one buffer would ask for at least that copy.
//!
//! Both runs train zero epochs at one worker thread, so every byte they
//! request is requested on the calling thread: the per-thread view counts
//! all of it, and the counts repeat exactly run to run.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea::approaches::iptranse::IpTransE;
use openea::approaches::{Budget, Lineage, WarmStart};
use openea::prelude::*;
use openea_runtime::rng::{SeedableRng, SmallRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_zero_epoch_iptranse_resume_copies_no_parent_table() {
    let pair = PresetConfig::new(DatasetFamily::DY, 1_000, false, 1).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
    let cfg = RunConfig {
        dim: 32,
        max_epochs: 5,
        threads: 1,
        seed: 1,
        ..RunConfig::default()
    };
    let approach = IpTransE::default();
    let parent = approach.run(&pair, &fold, &cfg);
    let warm = WarmStart {
        dim: parent.dim,
        emb1: &parent.emb1,
        emb2: &parent.emb2,
        parent_generation: 7,
        trained_epochs: 5,
    };
    let cold = RunContext::new(&cfg).with_budget(Budget::epochs(0));
    let resumed = cold.resume_from(&warm);
    let (_, cold) = ALLOC.on_this_thread(|| approach.run_with(&pair, &fold, &cfg, &cold));
    let (child, resumed) = ALLOC.on_this_thread(|| approach.run_with(&pair, &fold, &cfg, &resumed));
    assert_eq!(
        child.lineage,
        Some(Lineage {
            parent_generation: 7,
            trained_epochs: 5,
        }),
        "IPTransE absorbs a parent of its own width"
    );
    assert_eq!(child.content_hash(), parent.content_hash());

    let extra = resumed.requested - cold.requested;
    let copy = (pair.kg1.num_entities() + pair.kg2.num_entities()) * cfg.dim * 4;
    println!(
        "a zero-epoch resume requested {extra} bytes beyond the cold run's {} \
         (one parent copy: {copy})",
        cold.requested
    );
    assert!(
        extra < copy,
        "a zero-epoch resume requested {extra} bytes beyond the cold run, \
         not below one parent copy ({copy})"
    );
}
