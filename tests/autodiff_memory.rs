//! The memory contract of the autodiff tape, gated by counts and not a
//! clock: *a training step holds the forward values `backward` reads plus
//! the gradients in flight, from the second step on the tape asks the
//! allocator for nothing it does not already own, and a checkpoint peaks no
//! higher than a step*.
//!
//! The shape is the benchmark's `gcnalign_3k_exact_uniform` generation unit:
//! the seed-1 D-Y pair at 3 000 entities per KG, fold 0, a plain two-layer
//! GCN at dim 32 (5 762 nodes, 553 seeds). Every number is read from a
//! counting global allocator — the sizes the code asked for — so it repeats
//! exactly, on any host, under any load. One `#[test]` only: nothing else
//! may allocate while a measurement is open.
//!
//! | per steady-state step | fresh tensor per node and gradient | pooled tape |
//! |---|---|---|
//! | peak above the encoder, steps 0–2 | 10.14 MiB | 4.74 MiB |
//! | … one node per propagation, `x` lent to the tape | — | 3.33 MiB |
//! | … one node per layer, `tanh` in place | — | 2.63 MiB |
//! | allocator calls | 55 | 3 (the three index vectors) |
//! | of them ≥ 64 KiB | 29 | 0 |
//! | bytes requested | 11.55 MiB | 6.5 KiB |
//!
//! The left column is the tape that kept every node's value *and* gradient
//! until the next `reset()` and freed them there; this test fails on all
//! three gates against it. The pooled tape's 4.74 MiB held both `H·W`
//! products and a pooled copy of `x`, values no backward step reads, and its
//! checkpoint copied the embeddings out on top of the whole pool before
//! releasing it (5.43 MiB); it fails the step and the checkpoint gates. With
//! one node per propagation, `x` lent and the checkpoint moved out of the
//! pool, a checkpoint peaks at 3.32 MiB. That step (3.33 MiB) still held
//! the first layer's pre-activation `Â·X·W₁` beside `tanh` of it, which no
//! backward step reads, and fails the step gate; with one node per layer a
//! checkpoint peaks at 2.62 MiB.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{CountingAlloc, Tally, LARGE};
use openea_approaches::gcn::GcnEncoder;
use openea_core::k_fold_splits;
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_synth::{DatasetFamily, PresetConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MIB: usize = 1024 * 1024;

/// Losses of steps 0–3 (1.492645, 1.489810, 1.487812, 1.485914), read
/// before the tape was rebuilt: the pool and the kernels change where the
/// numbers live and how fast they are made, not one bit of them.
const LOSS_BITS: [u32; 4] = [0x3fbf_0efd, 0x3fbe_b21a, 0x3fbe_709d, 0x3fbe_3271];

#[test]
fn a_steady_state_step_allocates_nothing_it_does_not_own() {
    let pair = PresetConfig::new(DatasetFamily::DY, 3000, false, 1).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
    let mut enc = GcnEncoder::new(&pair, None, 32, false, false, &mut rng);

    let mut losses = Vec::with_capacity(LOSS_BITS.len());
    let mut steps: Vec<Tally> = Vec::with_capacity(LOSS_BITS.len());
    let mut step = |losses: &mut Vec<f32>, steps: &mut Vec<Tally>| {
        let (loss, during) = ALLOC.on_this_thread(|| enc.step(&fold.train, 1.5, 0.05, &mut rng));
        losses.push(loss);
        steps.push(during);
    };
    let base = ALLOC.live();
    let ((), peak) = ALLOC.measure(|| {
        for _ in 0..3 {
            step(&mut losses, &mut steps);
        }
    });
    step(&mut losses, &mut steps);
    // A checkpoint after the steps, with the pool they warmed still held:
    // its peak on the same footing as theirs, above the encoder.
    let held = ALLOC.live() - base;
    let (out, above) = ALLOC.measure(|| enc.output());
    let checkpoint = held + above;
    drop(out);

    for (i, (loss, during)) in losses.iter().zip(&steps).enumerate() {
        println!(
            "step {i}: loss {loss:.6} ({:#010x}), {} allocator calls, {} of them >= {} KiB, {} bytes requested",
            loss.to_bits(),
            during.calls,
            during.large_calls,
            LARGE / 1024,
            during.requested,
        );
    }
    println!(
        "peak over steps 0-2: {peak} bytes ({:.2} MiB) above the encoder",
        peak as f64 / MIB as f64
    );
    println!(
        "checkpoint after step 3: {checkpoint} bytes ({:.2} MiB) above the encoder",
        checkpoint as f64 / MIB as f64
    );

    let bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(bits, LOSS_BITS, "losses {losses:?}");
    // Every gate is read before any of them fails the test, so one run
    // against another tape shows all that it breaks.
    let mut broken = Vec::new();
    // Three values of 5 762 × 32 (the forward pass at the second layer:
    // `H₁`, the transient `H₁·W₂` and the output; backward never needs more
    // at once) are 2.11 MiB of the 2.63; a fourth is a regression.
    if peak > 2 * MIB + MIB * 4 / 5 {
        broken.push(format!("steps 0-2 peaked {peak} bytes above the encoder"));
    }
    if checkpoint > peak {
        broken.push(format!(
            "a checkpoint peaked {checkpoint} bytes above the encoder, over the steps' {peak}"
        ));
    }
    for (i, during) in steps.iter().enumerate().skip(1) {
        if during.large_calls > 0 {
            broken.push(format!(
                "step {i} made {} large allocator calls",
                during.large_calls
            ));
        }
        if during.requested > 64 * 1024 {
            broken.push(format!("step {i} requested {} bytes", during.requested));
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}
