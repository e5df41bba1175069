//! Every registered approach must run end-to-end on every dataset family and
//! beat random guessing. This is the library's broadest integration net.

use openea::approaches::TrainError;
use openea::prelude::*;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;

fn run_family(family: DatasetFamily, min_hits1: f64) {
    // Tiny budget: the bar is "clearly better than chance", not paper-level
    // accuracy (the bench harness runs the full-budget version).
    let pair = PresetConfig::new(family, 250, false, 300).generate();
    let mut rng = SmallRng::seed_from_u64(0);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let mut cfg = RunConfig {
        dim: 16,
        max_epochs: 40,
        threads: 2,
        ..RunConfig::default()
    };
    // Cross-lingual families get cross-lingual word vectors, as the paper
    // gives every literal-using approach pre-trained embeddings [4].
    if matches!(family, DatasetFamily::EnFr | DatasetFamily::EnDe) {
        let lang = if family == DatasetFamily::EnFr {
            openea::synth::Language::L2
        } else {
            openea::synth::Language::L3
        };
        let tr = Translator::new(lang, 4000, 0.02);
        cfg.word_vectors = openea::models::literal::WordVectors::cross_lingual(
            cfg.dim,
            tr.dictionary_pairs(),
            0.08,
        );
    }
    let random_level = 1.0 / folds[0].test.len() as f64;
    for approach in all_approaches() {
        let out = approach.run(&pair, &folds[0], &cfg);
        assert_eq!(
            out.emb1.len(),
            pair.kg1.num_entities() * out.dim,
            "{}",
            approach.name()
        );
        assert_eq!(
            out.emb2.len(),
            pair.kg2.num_entities() * out.dim,
            "{}",
            approach.name()
        );
        assert!(
            out.emb1.iter().all(|x| x.is_finite()),
            "{} emb1 finite",
            approach.name()
        );
        assert!(
            out.emb2.iter().all(|x| x.is_finite()),
            "{} emb2 finite",
            approach.name()
        );
        let eval = evaluate_output(&out, &folds[0].test, cfg.threads);
        assert!(
            eval.hits1 > (4.0 * random_level).max(min_hits1),
            "{} on {}: hits@1 {} ≈ random {}",
            approach.name(),
            family.label(),
            eval.hits1,
            random_level
        );
    }
}

/// Golden embedding hashes for every registry approach on the fixed fixture
/// below. Any change to the training arithmetic must land as an explicit,
/// reviewed update of this table (the test prints the replacement constants
/// on divergence); thread-count invariance is asserted unconditionally.
///
/// These constants pre-date the flat-arena trainer overhaul and TransE's
/// copy-on-first-write kernel and survived both unchanged: the chunked
/// gradient arenas, in-batch negative sampling and the kernel were all
/// engineered to replay the historical per-pair arithmetic bit-for-bit, and
/// this table is the proof.
const GOLDEN_HASHES: [(&str, u64); 12] = [
    ("MTransE", 0xa355c7feec9e21ea),
    ("IPTransE", 0xa56ddc7bdd0adbe9),
    ("JAPE", 0x0fc7784767afbdd3),
    ("KDCoE", 0x78bf8f6273bd11be),
    ("BootEA", 0x39132b756d3e4a88),
    ("GCNAlign", 0x5ce8852e49e845b5),
    ("AttrE", 0x2177c8e86f840264),
    ("IMUSE", 0xf35c1d45d91e4de0),
    ("SEA", 0x59c7d2f0d28313ae),
    ("RSN4EA", 0xc39968241666cf29),
    ("MultiKE", 0x56d6e596c82df369),
    ("RDGCN", 0x9573454193c2155c),
];

fn golden_fixture() -> (KgPair, Vec<FoldSplit>, RunConfig) {
    let pair = PresetConfig::new(DatasetFamily::EnFr, 150, false, 303).generate();
    let mut rng = SmallRng::seed_from_u64(3);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let mut cfg = RunConfig {
        dim: 16,
        max_epochs: 20,
        seed: 1234,
        ..RunConfig::default()
    };
    let tr = Translator::new(openea::synth::Language::L2, 4000, 0.02);
    cfg.word_vectors =
        openea::models::literal::WordVectors::cross_lingual(cfg.dim, tr.dictionary_pairs(), 0.08);
    (pair, folds, cfg)
}

#[test]
fn golden_hashes_bit_identical_across_thread_counts() {
    let (pair, folds, mut cfg) = golden_fixture();
    let golden: std::collections::HashMap<&str, u64> = GOLDEN_HASHES.into_iter().collect();
    let mut diverged = Vec::new();
    for approach in all_approaches() {
        let name = approach.name();
        let mut hashes = Vec::new();
        for threads in [1usize, 2, 8] {
            cfg.threads = threads;
            hashes.push(approach.run(&pair, &folds[0], &cfg).content_hash());
        }
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "{name}: embeddings must be thread-invariant, got {hashes:x?}"
        );
        println!("    (\"{name}\", {:#018x}),", hashes[0]);
        if hashes[0] != golden[name] {
            diverged.push(name);
        }
    }
    assert!(
        diverged.is_empty(),
        "embedding hashes diverged from golden for {diverged:?}"
    );
}

/// MTransE over every Figure-11 backbone, then TransE-backed MTransE with
/// its orthogonal map: the table above reaches only the default. A backbone
/// that diverges on this fixture pins its typed error instead of a hash.
const FIG11_GOLDEN: [(&str, bool, Result<u64, TrainError>); 10] = [
    ("TransE", false, Ok(0xa355c7feec9e21ea)),
    ("TransH", false, Ok(0x220487c6484d65ef)),
    ("TransR", false, Ok(0x85567a3d44f66d3c)),
    ("TransD", false, Ok(0x3416218bd0e4e53d)),
    ("HolE", false, Ok(0xb7a2c3a65ddc47fb)),
    ("SimplE", false, Ok(0x6801fa0400176c53)),
    ("RotatE", false, Ok(0x4dbb9b3681b1cfc8)),
    ("ProjE", false, Ok(0x520fc4001b0932eb)),
    ("ConvE", false, Ok(0x59807d738693d5bd)),
    ("TransE", true, Ok(0x5d23482e788e4138)),
];

#[test]
fn fig11_backbone_hashes_bit_identical_across_thread_counts() {
    use openea::approaches::mtranse::{MTransE, RelModelKind};
    let (pair, folds, mut cfg) = golden_fixture();
    let runs = RelModelKind::FIGURE11
        .into_iter()
        .map(|kind| (kind, false))
        .chain([(RelModelKind::TransE, true)]);
    let mut diverged = Vec::new();
    for ((model, orthogonal), &(label, ortho, want)) in runs.zip(&FIG11_GOLDEN) {
        assert_eq!((model.label(), orthogonal), (label, ortho), "table order");
        let approach = MTransE { model, orthogonal };
        let mut got = Vec::new();
        for threads in [1usize, 2, 8] {
            cfg.threads = threads;
            let ctx = RunContext::new(&cfg);
            got.push(
                approach
                    .try_run(&pair, &folds[0], &cfg, &ctx)
                    .map(|out| out.content_hash()),
            );
        }
        assert!(
            got.iter().all(|g| *g == got[0]),
            "{label} (orthogonal: {orthogonal}): must be thread-invariant, got {got:x?}"
        );
        match got[0] {
            Ok(h) => println!("    (\"{label}\", {orthogonal}, Ok({h:#018x})),"),
            Err(e) => println!("    (\"{label}\", {orthogonal}, Err(TrainError::{e:?})),"),
        }
        if got[0] != want {
            diverged.push((label, orthogonal));
        }
    }
    assert!(
        diverged.is_empty(),
        "Figure-11 hashes diverged from golden for {diverged:?}"
    );
}

/// The transformation mode's backbones train at `RunConfig::margin`, as
/// KDCoE's TransE does: a run at margin 2.0 is another model than one at the
/// default 1.0, which `FIG11_GOLDEN` and the table above pin.
#[test]
fn transformation_backbones_train_at_the_run_margin() {
    let (pair, folds, mut cfg) = golden_fixture();
    for name in ["MTransE", "SEA"] {
        let approach = approach_by_name(name).expect("registry approach");
        let mut hashes = Vec::new();
        for margin in [1.0, 2.0] {
            cfg.margin = margin;
            hashes.push(approach.run(&pair, &folds[0], &cfg).content_hash());
        }
        assert_ne!(hashes[0], hashes[1], "{name} ignored margin 2.0");
    }
}

/// AliNet is not in the registry (the paper defers it to a future release),
/// so the table above misses it; its hash on the same fixture is pinned here.
const ALINET_GOLDEN: u64 = 0x1b32b094a2cbc735;

#[test]
fn alinet_golden_hash_bit_identical_across_thread_counts() {
    use openea::approaches::alinet::AliNet;
    let (pair, folds, mut cfg) = golden_fixture();
    for threads in [1usize, 2, 8] {
        cfg.threads = threads;
        let hash = AliNet.run(&pair, &folds[0], &cfg).content_hash();
        assert_eq!(
            hash, ALINET_GOLDEN,
            "AliNet at {threads} threads: {hash:#018x}"
        );
    }
}

/// The GNN family's ablation paths, which the tables above never reach:
/// Table 8's `use_relations: false` (no training, the untrained encoder's
/// output, with GCNAlign's attribute view still combined) for all three, and
/// Figure 6's `use_attributes: false` for RDGCN (random trainable features,
/// relation-aware plain GCN without the highway gate) and for GCNAlign (the
/// trained structure alone, no attribute view fused).
const GNN_ABLATION_GOLDEN: [(&str, bool, bool, u64); 5] = [
    ("GCNAlign", false, true, 0x49f005e06a8ba451),
    ("RDGCN", false, true, 0xede94f1fb0776e82),
    ("AliNet", false, true, 0x28d7aecc8eca9d5f),
    ("RDGCN", true, false, 0x18d08dc78174103c),
    ("GCNAlign", true, false, 0x02ed31029334605d),
];

#[test]
fn gnn_ablation_hashes_bit_identical_across_thread_counts() {
    assert_ablation_hashes(&GNN_ABLATION_GOLDEN);
}

/// The side-view drivers' ablation paths, which the golden table never
/// reaches either: Figure 6's structure-only run (`use_attributes: false`,
/// no view fused) for every approach that fuses or pulls toward literal or
/// attribute features, and Table 8's untrained structure fused with the
/// views (`use_relations: false`) for the three `UnifiedTransE` drivers —
/// MultiKE's there with its name and attribute weights renormalised.
const VIEW_ABLATION_GOLDEN: [(&str, bool, bool, u64); 8] = [
    ("JAPE", true, false, 0x52affc9a506e3b6e),
    ("KDCoE", true, false, 0x680ef7c51259b1ce),
    ("AttrE", true, false, 0x52affc9a506e3b6e),
    ("IMUSE", true, false, 0x52affc9a506e3b6e),
    ("MultiKE", true, false, 0xb09a36855adf22df),
    ("JAPE", false, true, 0xd7e8e59301779e67),
    ("IMUSE", false, true, 0xf3e85f14717f3511),
    ("MultiKE", false, true, 0xaafe63d7540e4553),
];

#[test]
fn view_ablation_hashes_bit_identical_across_thread_counts() {
    assert_ablation_hashes(&VIEW_ABLATION_GOLDEN);
}

/// Runs each `(approach, use_relations, use_attributes, hash)` row on the
/// golden fixture at threads {1, 2, 8}: every run must agree, and with the
/// pinned hash (the replacement rows are printed either way).
fn assert_ablation_hashes(table: &[(&str, bool, bool, u64)]) {
    use openea::approaches::alinet::AliNet;
    let (pair, folds, mut cfg) = golden_fixture();
    let mut diverged = Vec::new();
    for &(name, use_relations, use_attributes, want) in table {
        let approach: Box<dyn Approach> = match name {
            "AliNet" => Box::new(AliNet),
            _ => approach_by_name(name).expect("registered"),
        };
        cfg.use_relations = use_relations;
        cfg.use_attributes = use_attributes;
        let mut hashes = Vec::new();
        for threads in [1usize, 2, 8] {
            cfg.threads = threads;
            hashes.push(approach.run(&pair, &folds[0], &cfg).content_hash());
        }
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "{name}: embeddings must be thread-invariant, got {hashes:x?}"
        );
        println!(
            "    (\"{name}\", {use_relations}, {use_attributes}, {:#018x}),",
            hashes[0]
        );
        if hashes[0] != want {
            diverged.push((name, use_relations, use_attributes));
        }
    }
    assert!(
        diverged.is_empty(),
        "ablation hashes diverged from golden for {diverged:?}"
    );
}

/// IPTransE's `BOOT_EVERY` is 20, the golden fixture's `max_epochs`, so its
/// one self-training round there falls in the last epoch and its proposals
/// never reach the hash. Forty epochs calibrate the round-20 proposals for
/// twenty more, so this pin holds the proposal path to its bits. Validation
/// runs once, at the end: with the fixture's cadence of 10 the epoch-20
/// checkpoint scores best and is what the run returns.
const IPTRANSE_40_GOLDEN: u64 = 0x27d22fb99a6d305b;

#[test]
fn iptranse_self_training_hash_bit_identical_across_thread_counts() {
    use openea::approaches::iptranse::IpTransE;
    let (pair, folds, mut cfg) = golden_fixture();
    cfg.max_epochs = 40;
    cfg.check_every = 40;
    for threads in [1usize, 2, 8] {
        cfg.threads = threads;
        let out = IpTransE::default().run(&pair, &folds[0], &cfg);
        assert_eq!(out.augmentation.len(), 2, "two self-training rounds");
        let hash = out.content_hash();
        assert_eq!(
            hash, IPTRANSE_40_GOLDEN,
            "IPTransE at 40 epochs, {threads} threads: {hash:#018x}"
        );
    }
    // The pin covers the proposals: with none accepted (cosine ≤ 1), the
    // same run hashes differently.
    let silent = IpTransE {
        threshold: 2.0,
        ..IpTransE::default()
    };
    assert_ne!(
        silent.run(&pair, &folds[0], &cfg).content_hash(),
        IPTRANSE_40_GOLDEN
    );
}

/// `align_unsupervised` proposes conflict-edited pairs at every round
/// boundary; its output and the size of its predicted alignment, pinned.
const UNSUPERVISED_GOLDEN: (u64, usize) = (0xd363eb6a5a7b06f6, 152);

#[test]
fn unsupervised_hash_bit_identical_across_thread_counts() {
    use openea::approaches::unsupervised::{align_unsupervised, UnsupervisedConfig};
    let pair = PresetConfig::new(DatasetFamily::DY, 200, false, 89).generate();
    let ucfg = UnsupervisedConfig {
        boot_rounds: 2,
        epochs_per_round: 5,
    };
    for threads in [1usize, 2, 8] {
        let cfg = RunConfig {
            dim: 16,
            threads,
            seed: 1234,
            ..RunConfig::default()
        };
        let outcome = align_unsupervised(&pair, ucfg, &cfg);
        assert!(
            outcome.predicted.len() > outcome.pseudo_seeds.len(),
            "self-training must propose pairs for the pin to cover it"
        );
        let got = (outcome.output.content_hash(), outcome.predicted.len());
        assert_eq!(
            got, UNSUPERVISED_GOLDEN,
            "unsupervised at {threads} threads: ({:#018x}, {})",
            got.0, got.1
        );
    }
}

mod self_training {
    //! What the embedding hashes above do not see: the Figure-7 curve of
    //! every semi-supervised approach, bit for bit per round, and the
    //! unsupervised pipeline's predicted alignment. Both proposal rules'
    //! paths are also shown to reach an output hash.

    use super::{golden_fixture, GOLDEN_HASHES};
    use openea::approaches::bootea::BootEa;
    use openea::approaches::iptranse::IpTransE;
    use openea::approaches::kdcoe::KdCoe;
    use openea::approaches::unsupervised::{align_unsupervised, UnsupervisedConfig};
    use openea::prelude::*;

    /// `to_bits` of each round's precision, recall and F1.
    fn curve(out: &ApproachOutput) -> Vec<[u64; 3]> {
        out.augmentation
            .iter()
            .map(|s| [s.precision.to_bits(), s.recall.to_bits(), s.f1.to_bits()])
            .collect()
    }

    /// IPTransE on `IPTRANSE_40_GOLDEN`'s run: two nearest-neighbour rounds,
    /// the second scored over both rounds' accumulated proposals.
    const IPTRANSE_40_CURVE: [[u64; 3]; 2] = [
        [0x3fb0bf66e0e5aea7, 0x3fb070bbe3d1070c, 0x3fb097b425ed097b],
        [0x3fb070bbe3d1070c, 0x3fb070bbe3d1070c, 0x3fb070bbe3d1070c],
    ];

    /// BootEA on the golden fixture: one edited round, at epoch 15.
    const BOOTEA_CURVE: [[u64; 3]; 1] =
        [[0x3fd999999999999a, 0x3fa2c9fb4d812ca0, 0x3fb135c81135c811]];

    /// KDCoE accepts nothing on the golden fixture: no description pair
    /// reaches a cosine of 0.9, and a Euclidean similarity (a negative
    /// distance) never reaches 0.85. So this run lowers both thresholds,
    /// and both views propose into each of its two rounds.
    fn kdcoe() -> KdCoe {
        KdCoe {
            desc_threshold: 0.7,
            rel_threshold: -1.0,
        }
    }

    /// The run above for 40 epochs, validated once at the end, so that the
    /// accepted pairs' seed steps reach the returned checkpoint.
    const KDCOE_40: (u64, [[u64; 3]; 2]) = (
        0xc27df0a94a6efb06,
        [
            [0x3fc1555555555555, 0x3fbe88385df1e884, 0x3fc03bf103bf103c],
            [0x3fbe88385df1e884, 0x3fbe88385df1e884, 0x3fbe88385df1e884],
        ],
    );

    fn forty_epochs(cfg: &mut RunConfig) {
        cfg.max_epochs = 40;
        cfg.check_every = 40;
    }

    #[test]
    fn figure7_curves_bit_identical_across_thread_counts() {
        let (pair, folds, mut cfg) = golden_fixture();
        for threads in [1usize, 2, 8] {
            cfg.threads = threads;
            cfg.max_epochs = 20;
            cfg.check_every = 10;
            let boot = BootEa::default().run(&pair, &folds[0], &cfg);
            assert_eq!(curve(&boot), BOOTEA_CURVE, "BootEA at {threads} threads");
            forty_epochs(&mut cfg);
            let ip = IpTransE::default().run(&pair, &folds[0], &cfg);
            assert_eq!(
                curve(&ip),
                IPTRANSE_40_CURVE,
                "IPTransE at {threads} threads"
            );
            let kd = kdcoe().run(&pair, &folds[0], &cfg);
            assert_eq!(
                (kd.content_hash(), curve(&kd)),
                (KDCOE_40.0, KDCOE_40.1.to_vec()),
                "KDCoE at {threads} threads: {:#018x} {:x?}",
                kd.content_hash(),
                curve(&kd)
            );
        }
    }

    /// With every proposal refused (a cosine never exceeds 1, a negative
    /// distance never reaches 2) each run hashes differently from its pin,
    /// so the pins hold the proposal paths. KDCoE's views are shown one at
    /// a time as well.
    #[test]
    fn bootea_and_kdcoe_proposals_reach_the_hash() {
        let (pair, folds, mut cfg) = golden_fixture();
        let golden: std::collections::HashMap<&str, u64> = GOLDEN_HASHES.into_iter().collect();
        let silent = BootEa {
            threshold: 2.0,
            ..BootEa::default()
        };
        assert_ne!(
            silent.run(&pair, &folds[0], &cfg).content_hash(),
            golden["BootEA"]
        );
        forty_epochs(&mut cfg);
        let hash = |desc_threshold, rel_threshold| {
            KdCoe {
                desc_threshold,
                rel_threshold,
            }
            .run(&pair, &folds[0], &cfg)
            .content_hash()
        };
        let silent = hash(2.0, 2.0);
        let (desc, rel) = (kdcoe().desc_threshold, kdcoe().rel_threshold);
        for (views, got) in [
            ("both", hash(desc, rel)),
            ("description", hash(desc, 2.0)),
            ("relation", hash(2.0, rel)),
        ] {
            assert_ne!(got, silent, "KDCoE's {views} view(s) must reach the hash");
        }
    }

    /// FNV-1a over the predicted pairs' ids in their order: the pseudo-seeds
    /// as string matching ranked them (score, then ids), then the
    /// bootstrapped pairs in the order they were proposed.
    const UNSUPERVISED_PREDICTED: u64 = 0x4feabc8cd53386fa;

    #[test]
    fn unsupervised_predicted_alignment_bit_identical_across_thread_counts() {
        let pair = PresetConfig::new(DatasetFamily::DY, 200, false, 89).generate();
        let ucfg = UnsupervisedConfig {
            boot_rounds: 2,
            epochs_per_round: 5,
        };
        for threads in [1usize, 2, 8] {
            let cfg = RunConfig {
                dim: 16,
                threads,
                seed: 1234,
                ..RunConfig::default()
            };
            let outcome = align_unsupervised(&pair, ucfg, &cfg);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &(a, b) in &outcome.predicted {
                for byte in a.0.to_le_bytes().into_iter().chain(b.0.to_le_bytes()) {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(
                h, UNSUPERVISED_PREDICTED,
                "unsupervised at {threads} threads: {h:#018x}"
            );
        }
    }
}

mod trainer_golden {
    //! Golden FNV-1a hashes of the raw batched-trainer output, one per
    //! gradient-pathway model — a tighter net than the approach-level table
    //! above: it pins the *engine arithmetic* itself, with no driver,
    //! alignment module or literal machinery in the loop. A trainer change
    //! either proves itself bit-preserving against these or lands an
    //! explicit reviewed update of the constants (the test prints the
    //! replacement table on divergence).

    use openea::math::negsamp::{RawTriple, UniformSampler};
    use openea::models::{
        train_epoch_batched, ComplEx, ConvE, DistMult, HolE, ProjE, RelationModel, RotatE, SimplE,
        TrainOptions, TransD, TransE, TransH, TransR, TuckEr,
    };
    use openea_runtime::rng::{Rng, SeedableRng, SmallRng};

    const SEED: u64 = 29;
    const ENTITIES: u32 = 50;
    const RELATIONS: u32 = 4;
    const DIM: usize = 8;

    /// Captured on the flat chunk-arena engine: gradients for each batch are
    /// recorded against batch-start parameters into per-chunk arenas and
    /// applied in ascending chunk order, so the concatenated entry sequence
    /// equals pair order — the exact arithmetic of the historical per-pair
    /// slot engine, independent of thread count and chunk geometry.
    const GOLDEN: [(&str, u64); 12] = [
        ("TransE", 0x0d480ae3ccdd1de9),
        ("TransH", 0x41bb246175357ff5),
        ("TransR", 0xf0bf6a88e5d4bc91),
        ("TransD", 0x8279cbc5277703ce),
        ("DistMult", 0xad7f7f215bebcce5),
        ("HolE", 0xfd3af46dbb0b9b82),
        ("SimplE", 0x0fe856a0b7d52559),
        ("RotatE", 0xe48025675704a481),
        ("ComplEx", 0x7b6812a168ad76c6),
        ("TuckER", 0x116f6fd51ab24da5),
        ("ProjE", 0x4bcc59ec58ccc2a5),
        ("ConvE", 0xd683ff3533cd8249),
    ];

    /// FNV-1a 64 over little-endian `f32` bit patterns — the repo's standard
    /// content-hash primitive, reimplemented locally so the pinned constants
    /// do not depend on any library hasher.
    fn fnv1a64(values: impl Iterator<Item = f32>) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    fn model(name: &str) -> Box<dyn RelationModel> {
        let mut rng = SmallRng::seed_from_u64(SEED ^ 0x6d6f64);
        let (n, r, d) = (ENTITIES as usize, RELATIONS as usize, DIM);
        match name {
            "TransE" => Box::new(TransE::new(n, r, d, 1.0, &mut rng)),
            "TransH" => Box::new(TransH::new(n, r, d, 1.0, &mut rng)),
            "TransR" => Box::new(TransR::new(n, r, d, 1.0, &mut rng)),
            "TransD" => Box::new(TransD::new(n, r, d, 1.0, &mut rng)),
            "DistMult" => Box::new(DistMult::new(n, r, d, &mut rng)),
            "HolE" => Box::new(HolE::new(n, r, d, &mut rng)),
            "SimplE" => Box::new(SimplE::new(n, r, d, &mut rng)),
            "RotatE" => Box::new(RotatE::new(n, r, d, 1.0, &mut rng)),
            "ComplEx" => Box::new(ComplEx::new(n, r, d, &mut rng)),
            "TuckER" => Box::new(TuckEr::new(n, r, d, &mut rng)),
            "ProjE" => Box::new(ProjE::new(n, r, d, 1.0, &mut rng)),
            _ => Box::new(ConvE::new(n, r, d, 1.0, &mut rng)),
        }
    }

    #[test]
    fn batched_trainer_output_is_pinned_per_model() {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let triples: Vec<RawTriple> = (0..100)
            .map(|_| {
                (
                    rng.gen_range(0..ENTITIES),
                    rng.gen_range(0..RELATIONS),
                    rng.gen_range(0..ENTITIES),
                )
            })
            .collect();
        let probes = &triples[..10];
        let sampler = UniformSampler {
            num_entities: ENTITIES,
        };
        let opts = TrainOptions {
            lr: 0.05,
            negs_per_pos: 2,
            batch_size: 7,
            threads: 2,
            min_pairs_per_thread: 1,
        };
        let mut diverged = Vec::new();
        for (name, want) in GOLDEN {
            let mut m = model(name);
            for epoch in 0..3u64 {
                train_epoch_batched(m.as_mut(), &triples, &sampler, &opts, SEED + epoch)
                    .expect("valid trainer config");
            }
            // Entity table bits plus probe energies: the energies fold the
            // relation-side parameters (hyperplanes, maps, phases) into the
            // digest, so no table can drift unobserved.
            let got = fnv1a64(
                m.entities()
                    .data()
                    .iter()
                    .copied()
                    .chain(probes.iter().map(|&t| m.energy(t))),
            );
            println!("        (\"{name}\", {got:#018x}),");
            if got != want {
                diverged.push(name);
            }
        }
        assert!(
            diverged.is_empty(),
            "trainer output hashes diverged from golden for {diverged:?}"
        );
    }
}

mod engine {
    //! Unit tests of the shared driver loop, using hooks with no model
    //! behind them so every assertion is about the engine itself.

    use openea::approaches::{StopReason, TrainError};
    use openea::models::EpochStats;
    use openea::prelude::*;
    use openea_runtime::rng::{SeedableRng, SmallRng};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    struct CountingHooks {
        trained: usize,
        checkpoints: usize,
    }

    impl CountingHooks {
        fn new() -> Self {
            Self {
                trained: 0,
                checkpoints: 0,
            }
        }
    }

    impl EpochHooks for CountingHooks {
        fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
            self.trained += 1;
            EpochStats {
                mean_loss: 1.0,
                pairs: 10,
            }
        }

        fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
            self.checkpoints += 1;
            ApproachOutput {
                dim: 2,
                metric: Metric::Euclidean,
                emb1: vec![0.0; 4],
                emb2: vec![0.0; 4],
                augmentation: Vec::new(),
                trace: Default::default(),
                lineage: None,
            }
        }
    }

    fn cfg() -> RunConfig {
        RunConfig {
            dim: 2,
            max_epochs: 10,
            check_every: 3,
            ..RunConfig::default()
        }
    }

    #[test]
    fn epoch_budget_stops_gracefully_at_the_boundary() {
        let mut hooks = CountingHooks::new();
        let cfg = cfg();
        let ctx = RunContext::new(&cfg).with_budget(Budget::epochs(4));
        let out = run_driver("test", &mut hooks, &ctx, &cfg).unwrap();
        assert_eq!(hooks.trained, 4);
        assert_eq!(out.trace.epochs.len(), 4);
        assert_eq!(out.trace.stop, StopReason::DeadlineExceeded { epoch: 4 });

        // A budget the run never reaches changes nothing: it ends on its own.
        for roomy in [Budget::wall_secs(600.0), Budget::epochs(cfg.max_epochs + 1)] {
            let mut hooks = CountingHooks::new();
            let ctx = RunContext::new(&cfg).with_budget(roomy);
            let out = run_driver("test", &mut hooks, &ctx, &cfg).unwrap();
            assert_eq!(hooks.trained, cfg.max_epochs);
            assert_eq!(out.trace.stop, StopReason::MaxEpochs);
        }
    }

    #[test]
    fn expired_wall_deadline_yields_a_zero_epoch_run() {
        let mut hooks = CountingHooks::new();
        let cfg = cfg();
        let ctx = RunContext::new(&cfg).with_budget(Budget::wall_secs(0.0));
        let out = run_driver("test", &mut hooks, &ctx, &cfg).unwrap();
        assert_eq!(hooks.trained, 0);
        assert!(out.trace.epochs.is_empty());
        assert_eq!(out.trace.stop, StopReason::DeadlineExceeded { epoch: 0 });
        // The output still comes from a (final) checkpoint.
        assert_eq!(hooks.checkpoints, 1);
        assert_eq!(out.emb1.len(), 4);
    }

    #[test]
    fn check_every_beyond_max_epochs_never_validates() {
        let mut hooks = CountingHooks::new();
        let mut cfg = cfg();
        cfg.check_every = cfg.max_epochs + 40;
        let valid = vec![(EntityId(0), EntityId(0))];
        let ctx = RunContext::new(&cfg).for_valid(&valid);
        let out = run_driver("test", &mut hooks, &ctx, &cfg).unwrap();
        assert_eq!(out.trace.stop, StopReason::MaxEpochs);
        assert_eq!(out.trace.epochs.len(), cfg.max_epochs);
        assert!(out.trace.epochs.iter().all(|e| e.val_hits1.is_none()));
        // One final checkpoint, zero validation checkpoints.
        assert_eq!(hooks.checkpoints, 1);
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let base = cfg();
        for (tweak, expect) in [
            (
                Box::new(|c: &mut RunConfig| c.check_every = 0) as Box<dyn Fn(&mut RunConfig)>,
                TrainError::ZeroCheckEvery,
            ),
            (Box::new(|c: &mut RunConfig| c.dim = 0), TrainError::ZeroDim),
            (
                Box::new(|c: &mut RunConfig| c.max_epochs = 0),
                TrainError::ZeroMaxEpochs,
            ),
        ] {
            let mut cfg = base.clone();
            tweak(&mut cfg);
            let mut hooks = CountingHooks::new();
            let ctx = RunContext::new(&cfg);
            let err = run_driver("test", &mut hooks, &ctx, &cfg).unwrap_err();
            assert_eq!(err, expect);
            assert_eq!(hooks.trained, 0, "no training on invalid config");
        }
    }

    #[test]
    fn registry_approaches_panic_on_invalid_config_via_run() {
        let pair = PresetConfig::new(DatasetFamily::EnFr, 60, false, 7).generate();
        let mut rng = SmallRng::seed_from_u64(0);
        let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
        let cfg = RunConfig {
            check_every: 0,
            ..RunConfig::default()
        };
        let a = approach_by_name("MTransE").unwrap();
        let err = a.try_run(&pair, &folds[0], &cfg, &RunContext::new(&cfg));
        assert_eq!(err.unwrap_err(), TrainError::ZeroCheckEvery);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.run(&pair, &folds[0], &cfg)
        }));
        assert!(panicked.is_err(), "run() must panic on an invalid config");
    }

    #[test]
    fn a_non_finite_loss_ends_the_run_with_a_typed_error() {
        struct Overflowing;
        impl EpochHooks for Overflowing {
            fn train_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
                EpochStats {
                    mean_loss: if epoch < 3 { 1.0 } else { f32::NAN },
                    pairs: 10,
                }
            }

            fn after_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) {
                assert!(epoch < 3, "no hook runs on diverged parameters");
            }

            fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
                panic!("a diverged run has no output to checkpoint");
            }
        }
        let cfg = RunConfig {
            check_every: 5,
            ..cfg()
        };
        let err = run_driver("test", &mut Overflowing, &RunContext::new(&cfg), &cfg).unwrap_err();
        assert_eq!(err, TrainError::Diverged { epoch: 3 });
    }

    /// Hooks with one scripted validation score per epoch. Scoring in place,
    /// they return it; on the default path the engine scores their outputs,
    /// which are built to score it (1.0 or 0.5 only). Every output carries
    /// the epoch it was extracted at in a KG2 row no validation pair ranks.
    struct Scripted {
        scores: Vec<f64>,
        in_place: bool,
        epoch: usize,
        extracted_at: Vec<usize>,
    }

    impl EpochHooks for Scripted {
        fn train_epoch(&mut self, epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
            self.epoch = epoch;
            EpochStats {
                mean_loss: 1.0,
                pairs: 10,
            }
        }

        fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
            self.extracted_at.push(self.epoch);
            // Source 1 on target 1 scores 1.0; on target 0, 0.5.
            let emb1 = if self.scores[self.epoch] == 1.0 {
                vec![1.0, 0.0, 0.0, 1.0]
            } else {
                vec![1.0, 0.0, 1.0, 0.0]
            };
            let emb2 = vec![1.0, 0.0, 0.0, 1.0, self.epoch as f32, 0.0];
            ApproachOutput::new(2, Metric::Cosine, emb1, emb2)
        }

        fn validate_in_place(
            &mut self,
            _valid: &[AlignedPair],
            _ctx: &RunContext<'_>,
        ) -> Option<f64> {
            self.in_place.then(|| self.scores[self.epoch])
        }
    }

    /// The checkpoints a sink was handed: `(epoch, score, epoch tag)`.
    #[derive(Default)]
    struct Handed(std::sync::Mutex<Vec<(usize, f64, f32)>>);

    impl CheckpointSink for Handed {
        fn on_checkpoint(&self, _label: &str, epoch: usize, out: &ApproachOutput, score: f64) {
            self.0.lock().unwrap().push((epoch, score, out.emb2[4]));
        }
    }

    /// Validates every epoch of a `scores.len()`-epoch run.
    fn scripted_run(
        scores: &[f64],
        in_place: bool,
        patience: usize,
    ) -> (Vec<usize>, Vec<(usize, f64, f32)>, ApproachOutput) {
        let cfg = RunConfig {
            dim: 2,
            max_epochs: scores.len(),
            check_every: 1,
            patience,
            ..RunConfig::default()
        };
        let valid = [(EntityId(0), EntityId(0)), (EntityId(1), EntityId(1))];
        let sink = Handed::default();
        let ctx = RunContext::new(&cfg)
            .for_valid(&valid)
            .with_artifacts(&sink);
        let mut hooks = Scripted {
            scores: scores.to_vec(),
            in_place,
            epoch: 0,
            extracted_at: Vec::new(),
        };
        let out = run_driver("test", &mut hooks, &ctx, &cfg).unwrap();
        let recorded: Vec<Option<f64>> = out.trace.epochs.iter().map(|e| e.val_hits1).collect();
        let expected: Vec<Option<f64>> =
            scores[..recorded.len()].iter().copied().map(Some).collect();
        assert_eq!(recorded, expected, "the trace records every score");
        (hooks.extracted_at, sink.0.into_inner().unwrap(), out)
    }

    #[test]
    fn in_place_scoring_extracts_and_hands_over_improving_checkpoints_only() {
        let (extracted_at, handed, out) = scripted_run(&[0.5, 0.5, 0.4, 0.6], true, 5);
        assert_eq!(extracted_at, [0, 3], "a tie and a drop are not extracted");
        assert_eq!(handed, [(0, 0.5, 0.0), (3, 0.6, 3.0)]);
        assert_eq!(out.emb2[4], 3.0, "the run returns epoch 3's output");
        assert_eq!(out.trace.stop, StopReason::MaxEpochs);
    }

    #[test]
    fn in_place_scoring_stops_early_on_the_one_extracted_checkpoint() {
        // Patience 1: the second check in a row without a gain stops the run.
        let (extracted_at, handed, out) = scripted_run(&[0.5, 0.4, 0.4, 0.9], true, 1);
        assert_eq!(extracted_at, [0]);
        assert_eq!(handed, [(0, 0.5, 0.0)]);
        assert_eq!(out.emb2[4], 0.0);
        assert_eq!(out.trace.stop, StopReason::EarlyStopped { epoch: 2 });
    }

    #[test]
    fn the_default_path_extracts_every_checkpoint_and_hands_over_improving_ones() {
        let (extracted_at, handed, out) = scripted_run(&[0.5, 0.5, 1.0, 0.5], false, 5);
        assert_eq!(extracted_at, [0, 1, 2, 3], "extract, then score");
        assert_eq!(
            handed,
            [(0, 0.5, 0.0), (2, 1.0, 2.0)],
            "a non-improving extract is dropped"
        );
        assert_eq!(out.emb2[4], 2.0, "the run returns epoch 2's output");
    }

    /// What [`Keeping`] does with the tables it stores.
    #[derive(Clone, Copy)]
    enum Keep {
        /// Gives back the last checkpoint's tables as they were handed over.
        Faithfully,
        /// Stores nothing from this epoch on, as a failed write would.
        FailingFrom(usize),
        /// Has lost them by the time the run ends.
        Losing,
        /// Gives them back with one bit flipped.
        Altering,
    }

    /// A sink that keeps the tables of the checkpoints it is handed in a
    /// `Mutex`, so that the engine can drop its own copy of the best.
    struct Keeping {
        keep: Keep,
        tables: Mutex<Option<(Vec<f32>, Vec<f32>)>>,
        restores: AtomicUsize,
    }

    impl Keeping {
        fn new(keep: Keep) -> Self {
            Self {
                keep,
                tables: Mutex::new(None),
                restores: AtomicUsize::new(0),
            }
        }
    }

    impl CheckpointSink for Keeping {
        fn on_checkpoint(&self, _label: &str, epoch: usize, out: &ApproachOutput, _score: f64) {
            let stored = match self.keep {
                Keep::FailingFrom(from) if epoch >= from => None,
                _ => Some((out.emb1.clone(), out.emb2.clone())),
            };
            *self.tables.lock().unwrap() = stored;
        }

        fn holds(&self, _label: &str) -> bool {
            self.tables.lock().unwrap().is_some()
        }

        fn restore(&self, _label: &str) -> Option<(Vec<f32>, Vec<f32>)> {
            self.restores.fetch_add(1, Ordering::SeqCst);
            let (emb1, mut emb2) = self.tables.lock().unwrap().take()?;
            match self.keep {
                Keep::Losing => return None,
                Keep::Altering => emb2[0] = f32::from_bits(emb2[0].to_bits() ^ 1),
                Keep::Faithfully | Keep::FailingFrom(_) => {}
            }
            Some((emb1, emb2))
        }
    }

    /// A scripted run scoring in place, with `sink` installed when given.
    fn scripted_with(
        scores: &[f64],
        sink: Option<&dyn CheckpointSink>,
    ) -> Result<ApproachOutput, TrainError> {
        let cfg = RunConfig {
            dim: 2,
            max_epochs: scores.len(),
            check_every: 1,
            ..RunConfig::default()
        };
        let valid = [(EntityId(0), EntityId(0)), (EntityId(1), EntityId(1))];
        let mut ctx = RunContext::new(&cfg).for_valid(&valid);
        if let Some(sink) = sink {
            ctx = ctx.with_artifacts(sink);
        }
        let mut hooks = Scripted {
            scores: scores.to_vec(),
            in_place: true,
            epoch: 0,
            extracted_at: Vec::new(),
        };
        run_driver("test", &mut hooks, &ctx, &cfg)
    }

    /// Runs `scores` with a [`Keeping`] sink and without one, and holds the
    /// two outputs to the same bits; returns the epoch tag and the restores.
    fn kept_run(scores: &[f64], keep: Keep) -> (f32, usize) {
        let plain = scripted_with(scores, None).unwrap();
        let sink = Keeping::new(keep);
        let kept = scripted_with(scores, Some(&sink)).unwrap();
        assert_eq!(kept.content_hash(), plain.content_hash());
        assert_eq!(kept.emb2[4].to_bits(), plain.emb2[4].to_bits());
        assert_eq!(kept.trace.epochs.len(), plain.trace.epochs.len());
        (kept.emb2[4], sink.restores.into_inner())
    }

    #[test]
    fn a_held_best_validated_last_is_restored_bit_for_bit() {
        assert_eq!(kept_run(&[0.5, 0.5, 1.0], Keep::Faithfully), (2.0, 1));
    }

    #[test]
    fn a_held_best_validated_early_is_restored_bit_for_bit() {
        assert_eq!(kept_run(&[0.5, 1.0, 0.5, 0.5], Keep::Faithfully), (1.0, 1));
    }

    #[test]
    fn a_best_the_sink_failed_to_store_stays_in_memory() {
        // Epoch 0 is stored and held; epoch 1 improves but is not stored.
        assert_eq!(kept_run(&[0.5, 1.0, 0.5], Keep::FailingFrom(1)), (1.0, 0));
    }

    #[test]
    fn a_held_best_lost_or_altered_is_a_typed_error() {
        for keep in [Keep::Losing, Keep::Altering] {
            let sink = Keeping::new(keep);
            let err = scripted_with(&[0.5, 1.0, 0.5], Some(&sink)).unwrap_err();
            assert_eq!(err, TrainError::CheckpointLost { epoch: 1 });
            assert_eq!(sink.restores.into_inner(), 1);
        }
    }

    /// `negs: 0` used to reach the trainer's `ZeroNegatives` behind an
    /// `expect` and panic nine approaches; the three that never sample
    /// negatives from it ran. Every approach now refuses it alike.
    #[test]
    fn zero_negatives_is_a_typed_error_for_every_approach() {
        let pair = PresetConfig::new(DatasetFamily::EnFr, 60, false, 7).generate();
        let mut rng = SmallRng::seed_from_u64(0);
        let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
        let cfg = RunConfig {
            negs: 0,
            ..RunConfig::default()
        };
        let ctx = RunContext::new(&cfg);
        for a in all_approaches() {
            let err = a.try_run(&pair, &folds[0], &cfg, &ctx).map(|_| ());
            assert_eq!(err, Err(TrainError::ZeroNegatives), "{}", a.name());
        }
    }

    /// The configuration the repository benchmark had to avoid: it trained
    /// to NaN and then panicked in inference.
    #[test]
    fn bootea_at_3k_dim32_lr002_diverges_into_a_typed_error() {
        let pair = PresetConfig::new(DatasetFamily::DY, 3000, false, 1).generate();
        let mut rng = SmallRng::seed_from_u64(1);
        let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
        let cfg = RunConfig {
            dim: 32,
            lr: 0.02,
            patience: usize::MAX,
            threads: 2,
            seed: 1,
            ..RunConfig::default()
        };
        let ctx = RunContext::new(&cfg).for_valid(&fold.valid);
        let bootea = approach_by_name("BootEA").unwrap();
        let err = bootea.try_run(&pair, &fold, &cfg, &ctx).map(|_| ());
        assert!(
            matches!(err, Err(TrainError::Diverged { .. })),
            "expected a diverged run, got {err:?}"
        );
        let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bootea.run_with(&pair, &fold, &cfg, &ctx)
        }))
        .map(|_| ())
        .unwrap_err();
        let message = message.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("diverged"), "{message}");
        assert!(!message.contains("invalid run config"), "{message}");
    }
}

mod warm_start {
    //! The warm-start refactor's bit-identity and lineage contract.
    //!
    //! Cold-path proof: `golden_hashes_bit_identical_across_thread_counts`
    //! above pins all 12 approaches — the engine refactor landed without
    //! touching a single golden constant. The tests here cover the other
    //! side: a *declined* resume must also stay on those exact bits, and
    //! an *accepted* one must stamp cumulative lineage and reproduce the
    //! parent generation bit-for-bit at zero extra epochs.

    use super::{golden_fixture, GOLDEN_HASHES};
    use openea::approaches::{Budget, Lineage, WarmStart};
    use openea::models::EpochStats;
    use openea::prelude::*;

    struct ProbeHooks {
        accept: bool,
        warm_calls: usize,
        trained: usize,
    }

    impl ProbeHooks {
        fn new(accept: bool) -> Self {
            Self {
                accept,
                warm_calls: 0,
                trained: 0,
            }
        }
    }

    impl EpochHooks for ProbeHooks {
        fn train_epoch(&mut self, _epoch: usize, _ctx: &RunContext<'_>) -> EpochStats {
            self.trained += 1;
            EpochStats {
                mean_loss: 1.0,
                pairs: 10,
            }
        }

        fn checkpoint(&mut self, _ctx: &RunContext<'_>) -> ApproachOutput {
            ApproachOutput::new(2, Metric::Euclidean, vec![0.0; 4], vec![0.0; 4])
        }

        fn warm_start(&mut self, _warm: &WarmStart<'_>, _ctx: &RunContext<'_>) -> bool {
            self.warm_calls += 1;
            self.accept
        }
    }

    fn cfg() -> RunConfig {
        RunConfig {
            dim: 2,
            max_epochs: 10,
            check_every: 3,
            ..RunConfig::default()
        }
    }

    const PARENT: WarmStart<'static> = WarmStart {
        dim: 2,
        emb1: &[0.5, 0.5, -0.5, 0.5],
        emb2: &[0.5, -0.5, -0.5, -0.5],
        parent_generation: 0xABCD,
        trained_epochs: 10,
    };

    #[test]
    fn cold_context_never_invokes_warm_start_and_stamps_no_lineage() {
        let cfg = cfg();
        let mut hooks = ProbeHooks::new(true);
        let out = run_driver("test", &mut hooks, &RunContext::new(&cfg), &cfg).unwrap();
        assert_eq!(hooks.warm_calls, 0);
        assert_eq!(out.lineage, None);
    }

    #[test]
    fn declined_resume_trains_cold_with_no_lineage() {
        let cfg = cfg();
        let mut hooks = ProbeHooks::new(false);
        let ctx = RunContext::new(&cfg).resume_from(&PARENT);
        let out = run_driver("test", &mut hooks, &ctx, &cfg).unwrap();
        assert_eq!(hooks.warm_calls, 1);
        assert_eq!(out.lineage, None, "declined resume must not stamp lineage");
        assert_eq!(hooks.trained, cfg.max_epochs);
    }

    #[test]
    fn accepted_resume_stamps_cumulative_lineage() {
        let cfg = cfg();
        let mut hooks = ProbeHooks::new(true);
        let ctx = RunContext::new(&cfg)
            .resume_from(&PARENT)
            .with_budget(Budget::epochs(4));
        let out = run_driver("test", &mut hooks, &ctx, &cfg).unwrap();
        assert_eq!(hooks.warm_calls, 1);
        assert_eq!(
            out.lineage,
            Some(Lineage {
                parent_generation: 0xABCD,
                trained_epochs: 14,
            }),
            "lineage must accumulate epochs across generations"
        );
    }

    /// A resume the driver cannot absorb (snapshot dimension differs)
    /// falls back to cold training on the exact golden bits — the same
    /// constant the cold-path matrix pins.
    #[test]
    fn dimension_mismatch_falls_back_to_golden_cold_bits() {
        let (pair, folds, mut cfg) = golden_fixture();
        cfg.threads = 2;
        let narrow = vec![0.25f32; pair.kg1.num_entities().max(pair.kg2.num_entities()) * 8];
        let warm = WarmStart {
            dim: 8, // cfg.dim is 16 — the absorber must refuse
            emb1: &narrow[..pair.kg1.num_entities() * 8],
            emb2: &narrow[..pair.kg2.num_entities() * 8],
            parent_generation: 0xBEEF,
            trained_epochs: 5,
        };
        let a = approach_by_name("MTransE").unwrap();
        let ctx = RunContext::new(&cfg).resume_from(&warm);
        let out = a.run_with(&pair, &folds[0], &cfg, &ctx);
        assert_eq!(out.lineage, None);
        let golden: std::collections::HashMap<&str, u64> = GOLDEN_HASHES.into_iter().collect();
        assert_eq!(
            out.content_hash(),
            golden["MTransE"],
            "declined warm start must reproduce the golden cold-path bits"
        );
    }

    /// Resume-identity: warm-starting from a parent's output and training
    /// zero extra epochs reproduces the parent bit-for-bit, with lineage
    /// citing the parent and no extra epochs accumulated.
    #[test]
    fn zero_epoch_resume_reproduces_parent_bits() {
        let (pair, folds, mut cfg) = golden_fixture();
        cfg.threads = 2;
        let a = approach_by_name("MTransE").unwrap();
        let parent = a.run(&pair, &folds[0], &cfg);
        let warm = WarmStart {
            dim: parent.dim,
            emb1: &parent.emb1,
            emb2: &parent.emb2,
            parent_generation: 0x1234,
            trained_epochs: parent.trace.epochs.len() as u64,
        };
        let ctx = RunContext::new(&cfg)
            .resume_from(&warm)
            .with_budget(Budget::epochs(0));
        let child = a.run_with(&pair, &folds[0], &cfg, &ctx);
        assert_eq!(
            child.content_hash(),
            parent.content_hash(),
            "zero-epoch warm resume must reproduce the parent generation"
        );
        assert_eq!(
            child.lineage,
            Some(Lineage {
                parent_generation: 0x1234,
                trained_epochs: parent.trace.epochs.len() as u64,
            })
        );
    }
}

#[test]
fn all_approaches_beat_random_on_en_fr() {
    run_family(DatasetFamily::EnFr, 0.025);
}

#[test]
fn all_approaches_beat_random_on_d_y() {
    run_family(DatasetFamily::DY, 0.025);
}

#[test]
fn approach_outputs_are_deterministic_per_seed() {
    let pair = PresetConfig::new(DatasetFamily::EnFr, 200, false, 301).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let cfg = RunConfig {
        dim: 16,
        max_epochs: 20,
        threads: 2,
        ..RunConfig::default()
    };
    let a = approach_by_name("MTransE").unwrap();
    let out1 = a.run(&pair, &folds[0], &cfg);
    let out2 = a.run(&pair, &folds[0], &cfg);
    assert_eq!(out1.emb1, out2.emb1);
    assert_eq!(out1.emb2, out2.emb2);
}

#[test]
fn literal_heavy_approaches_dominate_d_y() {
    // The paper's headline family contrast: on D-Y (near-identical
    // literals), literal-based approaches crush relation-only ones.
    let pair = PresetConfig::new(DatasetFamily::DY, 300, false, 302).generate();
    let mut rng = SmallRng::seed_from_u64(2);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    let cfg = RunConfig {
        dim: 16,
        max_epochs: 40,
        threads: 2,
        ..RunConfig::default()
    };
    let score = |name: &str| {
        let out = approach_by_name(name).unwrap().run(&pair, &folds[0], &cfg);
        evaluate_output(&out, &folds[0].test, 2).hits1
    };
    let literal_best = score("IMUSE").max(score("MultiKE"));
    let relation_best = score("MTransE").max(score("SEA"));
    assert!(
        literal_best > relation_best,
        "literal {literal_best} should beat relation-only {relation_best} on D-Y"
    );
}
