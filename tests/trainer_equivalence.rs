//! Trainer-equivalence suite: the batched mini-batch engine must be
//! *bit-identical* across thread counts {1, 2, 8} at every batch size
//! {1, 7, 64}, and — at batch size 1 on one thread — bit-identical to the
//! kept serial reference `train_epoch_serial`, for every model. This is the
//! contract that lets every approach driver use the parallel engine without
//! changing a single reported number.
//!
//! TransE's `train_batch` is a kernel of its own, so it is also held, batch
//! by batch, to the recorded path it replaces: `pair_gradients` for the
//! whole batch against the untouched model, then `apply_gradients`.

use openea::math::negsamp::{RawTriple, UniformSampler};
use openea::models::translational::{LossKind, Norm};
use openea::models::{
    train_epoch_batched, train_epoch_serial, ComplEx, ConvE, DistMult, Gradients, HolE,
    PairGradients, ProjE, RelationModel, RotatE, SimplE, TrainOptions, TransD, TransE, TransH,
    TransR, TuckEr, Workspace,
};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::any_bool;
use openea_runtime::{prop_assert_eq, props};

const BATCH_SIZES: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 11;
const ENTITIES: u32 = 60;
const RELATIONS: u32 = 4;
const DIM: usize = 8;
const EPOCHS: u64 = 2;

fn triples(n: usize, rng: &mut SmallRng) -> Vec<RawTriple> {
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..ENTITIES),
                rng.gen_range(0..RELATIONS),
                rng.gen_range(0..ENTITIES),
            )
        })
        .collect()
}

/// Bit-level fingerprint: full entity table plus probe energies (which fold
/// relation-side parameters — hyperplanes, projections, phases — in).
fn fingerprint(model: &dyn RelationModel, probes: &[RawTriple]) -> Vec<u32> {
    let mut bits: Vec<u32> = model
        .entities()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    bits.extend(probes.iter().map(|&t| model.energy(t).to_bits()));
    bits
}

fn opts(batch_size: usize, threads: usize) -> TrainOptions {
    TrainOptions {
        lr: 0.05,
        negs_per_pos: 2,
        batch_size,
        threads,
        // Never let the thread clamp collapse the grid on small inputs:
        // the *requested* thread count must be unobservable, not avoided.
        min_pairs_per_thread: 1,
    }
}

fn check_model(name: &str, make: impl Fn() -> Box<dyn RelationModel>) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let tr = triples(120, &mut rng);
    let probes = &tr[..12];
    let sampler = UniformSampler {
        num_entities: ENTITIES,
    };
    // Serial reference, trained once.
    let mut serial = make();
    for e in 0..EPOCHS {
        train_epoch_serial(serial.as_mut(), &tr, &sampler, 0.05, 2, SEED + e).expect("valid");
    }
    let serial_fp = fingerprint(serial.as_ref(), probes);

    for bs in BATCH_SIZES {
        let mut reference: Option<Vec<u32>> = None;
        for t in THREADS {
            let mut model = make();
            let o = opts(bs, t);
            for e in 0..EPOCHS {
                train_epoch_batched(model.as_mut(), &tr, &sampler, &o, SEED + e).expect("valid");
            }
            let fp = fingerprint(model.as_ref(), probes);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(
                    *r, fp,
                    "{name}: batch_size {bs}, {t} threads diverges from 1 thread"
                ),
            }
        }
        if bs == 1 {
            assert_eq!(
                serial_fp,
                reference.expect("set above"),
                "{name}: batch_size 1 must reproduce the serial reference bitwise"
            );
        }
    }
}

macro_rules! equivalence_tests {
    ($($test:ident, $name:literal, $make:expr;)*) => {$(
        #[test]
        fn $test() {
            #[allow(clippy::redundant_closure)]
            check_model($name, || {
                let mut rng = SmallRng::seed_from_u64(SEED ^ 0x6d6f64);
                let b: Box<dyn RelationModel> = Box::new($make(&mut rng));
                b
            });
        }
    )*};
}

equivalence_tests! {
    transe_bit_identical, "TransE",
        |r: &mut SmallRng| TransE::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, r);
    transh_bit_identical, "TransH",
        |r: &mut SmallRng| TransH::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, r);
    transr_bit_identical, "TransR",
        |r: &mut SmallRng| TransR::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, r);
    transd_bit_identical, "TransD",
        |r: &mut SmallRng| TransD::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, r);
    distmult_bit_identical, "DistMult",
        |r: &mut SmallRng| DistMult::new(ENTITIES as usize, RELATIONS as usize, DIM, r);
    hole_bit_identical, "HolE",
        |r: &mut SmallRng| HolE::new(ENTITIES as usize, RELATIONS as usize, DIM, r);
    simple_bit_identical, "SimplE",
        |r: &mut SmallRng| SimplE::new(ENTITIES as usize, RELATIONS as usize, DIM, r);
    rotate_bit_identical, "RotatE",
        |r: &mut SmallRng| RotatE::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, r);
    complex_bit_identical, "ComplEx",
        |r: &mut SmallRng| ComplEx::new(ENTITIES as usize, RELATIONS as usize, DIM, r);
    tucker_bit_identical, "TuckER",
        |r: &mut SmallRng| TuckEr::new(ENTITIES as usize, RELATIONS as usize, DIM, r);
    proje_bit_identical, "ProjE",
        |r: &mut SmallRng| ProjE::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, r);
    conve_bit_identical, "ConvE",
        |r: &mut SmallRng| ConvE::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, r);
}

fn small_transe(entities: u32, seed: u64, norm: Norm, loss: LossKind) -> TransE {
    let mut m = TransE::new(
        entities as usize,
        2,
        DIM,
        1.5,
        &mut SmallRng::seed_from_u64(seed),
    );
    m.norm = norm;
    m.loss = loss;
    m
}

/// A batch of `len` pairs over `entities` entities, built to alias: runs of
/// one positive with several negatives (as the engine produces them), then
/// a self-loop positive, a negative that differs from its positive in one
/// place only (so it shares two rows), the first positive again — no longer
/// adjacent to its run — and an exact duplicate of the pair before it.
fn aliasing_batch(len: usize, entities: u32, rng: &mut SmallRng) -> Vec<(RawTriple, RawTriple)> {
    let triple = |rng: &mut SmallRng| {
        (
            rng.gen_range(0..entities),
            rng.gen_range(0..2u32),
            rng.gen_range(0..entities),
        )
    };
    let mut pairs: Vec<(RawTriple, RawTriple)> = Vec::with_capacity(len);
    while pairs.len() < len {
        let pos = match pairs.len() % 5 {
            3 => {
                let e = rng.gen_range(0..entities);
                (e, rng.gen_range(0..2u32), e)
            }
            4 => pairs[0].0,
            _ => triple(rng),
        };
        for _ in 0..rng.gen_range(1..4usize) {
            let neg = if rng.gen_bool(0.5) {
                (pos.0, pos.1, rng.gen_range(0..entities))
            } else {
                triple(rng)
            };
            pairs.push((pos, neg));
        }
        if rng.gen_bool(0.3) {
            pairs.push(*pairs.last().expect("pushed above"));
        }
    }
    pairs.truncate(len);
    pairs
}

props! {
    #![cases = 64]

    /// TransE's copy-on-first-write kernel leaves, batch after batch, the
    /// bits that recording the whole batch against the untouched model and
    /// replaying it leaves: both tables and the running loss total. One
    /// workspace serves every batch of both epochs — a row saved in an
    /// earlier batch must never read as saved in this one — after a model
    /// of another size has used it.
    #[test]
    fn transe_kernel_matches_recorded_replay_bitwise(
        seed in 0u64..u64::MAX,
        entities in 2u32..12,
        l1 in any_bool(),
        limit in any_bool(),
    ) {
        let norm = if l1 { Norm::L1 } else { Norm::L2Sq };
        let loss = if limit {
            LossKind::Limit { lambda_pos: 0.4, lambda_neg: 2.5, mu: 0.3 }
        } else {
            LossKind::Margin
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let opts = TrainOptions { lr: 0.07, ..TrainOptions::default() };
        let mut ws = Workspace::default();
        let mut other = small_transe(entities + 9, seed, norm, loss);
        other.train_batch(&aliasing_batch(7, entities + 9, &mut rng), &opts, &mut ws, &mut 0.0);

        let mut kernel = small_transe(entities, seed, norm, loss);
        let mut recorded = small_transe(entities, seed, norm, loss);
        let (mut total_k, mut total_r) = (0.0f64, 0.0f64);
        let mut grads = Gradients::new();
        for _epoch in 0..2 {
            for len in [1, 2, 7, 64, entities as usize + 5] {
                let pairs = aliasing_batch(len, entities, &mut rng);
                kernel.train_batch(&pairs, &opts, &mut ws, &mut total_k);
                grads.clear();
                for &(pos, neg) in &pairs {
                    total_r += recorded.pair_gradients(pos, neg, opts.lr, &mut grads) as f64;
                }
                recorded.apply_gradients(&grads);
                prop_assert_eq!(total_k.to_bits(), total_r.to_bits(), "losses, batch of {}", len);
                prop_assert_eq!(bits(kernel.entities.data()), bits(recorded.entities.data()));
                prop_assert_eq!(bits(kernel.relations.data()), bits(recorded.relations.data()));
            }
            kernel.epoch_hook();
            recorded.epoch_hook();
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn empty_triples_match_serial_at_every_config() {
    // Zero triples still runs the model's epoch hook (e.g. entity
    // renormalization), so the contract is "identical to the serial
    // reference", not "parameters untouched".
    let sampler = UniformSampler {
        num_entities: ENTITIES,
    };
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut serial = TransE::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, &mut rng);
    train_epoch_serial(&mut serial, &[], &sampler, 0.05, 2, SEED).expect("valid");
    let serial_bits: Vec<u32> = serial
        .entities()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for bs in BATCH_SIZES {
        for t in THREADS {
            let mut rng = SmallRng::seed_from_u64(SEED);
            let mut model = TransE::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, &mut rng);
            let stats =
                train_epoch_batched(&mut model, &[], &sampler, &opts(bs, t), SEED).expect("valid");
            assert_eq!(stats.pairs, 0);
            assert_eq!(stats.mean_loss, 0.0);
            let bits: Vec<u32> = model
                .entities()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(serial_bits, bits, "bs {bs}, {t} threads");
        }
    }
}

#[test]
fn single_triple_is_thread_invariant() {
    let tr = [(3u32, 1u32, 7u32)];
    let sampler = UniformSampler {
        num_entities: ENTITIES,
    };
    for bs in BATCH_SIZES {
        let mut reference: Option<Vec<u32>> = None;
        for t in THREADS {
            let mut rng = SmallRng::seed_from_u64(SEED);
            let mut model = TransE::new(ENTITIES as usize, RELATIONS as usize, DIM, 1.0, &mut rng);
            let stats =
                train_epoch_batched(&mut model, &tr, &sampler, &opts(bs, t), SEED).expect("valid");
            assert_eq!(stats.pairs, 2, "one positive x negs_per_pos");
            let fp = fingerprint(&model, &tr);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(*r, fp, "bs {bs}, {t} threads"),
            }
        }
    }
}
