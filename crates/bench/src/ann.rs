//! `openea-bench ann` — self-validating benchmark of the two-stage
//! (IVF candidate generation → exact re-rank) alignment index.
//!
//! Every run proves correctness before timing anything: with **all**
//! partitions probed, [`IvfIndex::search`] must be bit-identical to the
//! dense streaming sweep ([`TopKMatrix::compute`]) under the shared tie
//! rule, across all four metrics and several `k`. Divergence exits
//! non-zero — the approximation knob is `nprobe` alone, never the scoring
//! path.
//!
//! The measured phase generates a million-entity embedded pair
//! ([`openea_synth::scale`]), builds the partition index once, computes
//! exact ground-truth top-`k` for a query sample (timing the dense sweep
//! as the baseline), then walks `nprobe` upward recording recall@1/@10
//! against ground truth, per-query latency, speedup over exact, and the
//! fraction of targets scored. The run fails unless some operating point
//! reaches recall@10 ≥ 0.95 at ≥ 5× speedup. `--smoke` shrinks the pair
//! so gate + curve finish in a few seconds and writes no JSON.

use crate::HarnessConfig;
use openea::align::{AnnConfig, IvfIndex, Metric, TopKMatrix, DEFAULT_TILE};
use openea::math::kernel;
use openea::synth::{generate_embedded_pair, EmbeddedPair, ScaleConfig};
use openea_runtime::json::{object, Json, ToJson};
use openea_runtime::timer::Monotonic;

/// Re-rank depth of the curve: the paper's Hits@10 shape.
const CURVE_K: usize = 10;
/// Recall/speedup targets the full run must reach at some `nprobe`.
const TARGET_RECALL: f64 = 0.95;
const TARGET_SPEEDUP: f64 = 5.0;

/// One operating point of the recall-vs-speedup curve.
struct CurvePoint {
    nprobe: usize,
    recall_at_1: f64,
    recall_at_10: f64,
    query_us: f64,
    speedup: f64,
    scanned_frac: f64,
}

impl ToJson for CurvePoint {
    fn to_json(&self) -> Json {
        object([
            ("nprobe", self.nprobe.to_json()),
            ("recall_at_1", self.recall_at_1.to_json()),
            ("recall_at_10", self.recall_at_10.to_json()),
            ("query_us", self.query_us.to_json()),
            ("speedup", self.speedup.to_json()),
            ("scanned_frac", self.scanned_frac.to_json()),
        ])
    }
}

/// Proves `nprobe = nlist` reproduces the dense sweep bit for bit on a
/// slice of the pair, for every metric × k combination. Returns the number
/// of (metric, k) configurations checked, or a description of the first
/// divergence.
fn equivalence_gate(pair: &EmbeddedPair, entities: usize, queries: usize) -> Result<usize, String> {
    let dim = pair.dim;
    let n = entities.min(pair.entities());
    let q = queries.min(pair.entities());
    let targets = &pair.emb2[..n * dim];
    let src = &pair.emb1[..q * dim];
    let mut checked = 0usize;
    for metric in [
        Metric::Cosine,
        Metric::Euclidean,
        Metric::Inner,
        Metric::Manhattan,
    ] {
        let ivf = IvfIndex::build(targets, dim, metric, &AnnConfig::default(), 1);
        for k in [1usize, CURVE_K, 50] {
            let dense = TopKMatrix::compute(src, targets, dim, metric, k, 1);
            for row in 0..q {
                let got = ivf.search(&src[row * dim..(row + 1) * dim], k, ivf.nlist());
                if got != dense.row(row) {
                    return Err(format!(
                        "metric {} k={k} query {row}: ivf {:?} != dense {:?}",
                        metric.label(),
                        got,
                        dense.row(row)
                    ));
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Overlap between an approximate answer and the exact top-`k` prefix.
fn recall(approx: &[(u32, f32)], exact: &[(u32, f32)], k: usize) -> f64 {
    let take = k.min(exact.len());
    if take == 0 {
        return 1.0;
    }
    let hits = approx
        .iter()
        .take(k)
        .filter(|(id, _)| exact[..take].iter().any(|(e, _)| e == id))
        .count();
    hits as f64 / take as f64
}

pub fn ann(cfg: &HarnessConfig, smoke: bool) {
    let scale = if smoke {
        ScaleConfig {
            entities: 2_000,
            dim: 16,
            communities: 64,
            seed: cfg.seed,
            ..Default::default()
        }
    } else {
        ScaleConfig {
            entities: 1_000_000,
            dim: 32,
            communities: 0,
            seed: cfg.seed,
            ..Default::default()
        }
    };
    let queries = if smoke { 64 } else { 256 };
    let dim = scale.dim;

    let t = Monotonic::start();
    let pair = generate_embedded_pair(&scale, cfg.threads);
    println!(
        "synth pair: {} entities/side, dim {}, {} communities ({:.1}s)",
        pair.entities(),
        dim,
        scale.resolved_communities(),
        t.seconds()
    );

    print!("equivalence gate (seed {}): ", cfg.seed);
    let gate_entities = if smoke { 2_000 } else { 20_000 };
    match equivalence_gate(&pair, gate_entities, 32) {
        Ok(n) => println!(
            "{n} metric/k configurations bit-identical to the dense sweep \
             at nprobe=nlist ({gate_entities} targets)"
        ),
        Err(msg) => {
            eprintln!("FAILED — two-stage answers diverge from the dense path: {msg}");
            std::process::exit(1);
        }
    }

    // Build the partition index for the measured curve (cosine, the
    // paper's default retrieval metric).
    let metric = Metric::Cosine;
    let nlist = if smoke { 0 } else { 512 };
    let t = Monotonic::start();
    let ivf = IvfIndex::build(
        &pair.emb2,
        dim,
        metric,
        &AnnConfig {
            nlist,
            seed: cfg.seed,
            ..Default::default()
        },
        cfg.threads,
    );
    let build_s = t.seconds();
    println!(
        "partition index: {} lists over {} targets ({:.1}s build)",
        ivf.nlist(),
        ivf.len(),
        build_s
    );

    // Exact ground truth over the query sample doubles as the latency
    // baseline the speedup column is measured against.
    let src = &pair.emb1[..queries * dim];
    let t = Monotonic::start();
    let exact = TopKMatrix::compute(src, &pair.emb2, dim, metric, CURVE_K, cfg.threads);
    let exact_us = t.seconds() * 1e6 / queries as f64;
    println!("exact baseline: {exact_us:.0} µs/query (k={CURVE_K}, {queries} queries)");

    let mut nprobes: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&n| n <= ivf.nlist())
        .collect();
    if !nprobes.contains(&ivf.default_nprobe()) {
        nprobes.push(ivf.default_nprobe());
        nprobes.sort_unstable();
    }

    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>13}",
        "nprobe", "recall@1", "recall@10", "query_us", "speedup", "scanned_frac"
    );
    let mut curve: Vec<CurvePoint> = Vec::new();
    for &nprobe in &nprobes {
        let t = Monotonic::start();
        let mut r1 = 0.0f64;
        let mut r10 = 0.0f64;
        let mut scanned = 0usize;
        for row in 0..queries {
            let (ans, s) = ivf.search_counted(&src[row * dim..(row + 1) * dim], CURVE_K, nprobe);
            scanned += s;
            r1 += recall(&ans, exact.row(row), 1);
            r10 += recall(&ans, exact.row(row), CURVE_K);
        }
        let query_us = t.seconds() * 1e6 / queries as f64;
        let point = CurvePoint {
            nprobe,
            recall_at_1: r1 / queries as f64,
            recall_at_10: r10 / queries as f64,
            query_us,
            speedup: exact_us / query_us.max(1e-9),
            scanned_frac: scanned as f64 / (queries * ivf.len()) as f64,
        };
        println!(
            "{:>8} {:>10.4} {:>10.4} {:>10.0} {:>9.1} {:>13.4}",
            point.nprobe,
            point.recall_at_1,
            point.recall_at_10,
            point.query_us,
            point.speedup,
            point.scanned_frac
        );
        curve.push(point);
    }

    let meets = curve
        .iter()
        .any(|p| p.recall_at_10 >= TARGET_RECALL && p.speedup >= TARGET_SPEEDUP);
    if smoke {
        // CI only checks that some probe width recovers the exact answers
        // well; tiny pairs are too noisy for a timing bound.
        let best = curve.iter().map(|p| p.recall_at_10).fold(0.0, f64::max);
        if best < 0.9 {
            eprintln!("FAILED — smoke curve never reaches recall@10 ≥ 0.9 (best {best:.3})");
            std::process::exit(1);
        }
        println!("\nsmoke OK: gate passed, best recall@10 = {best:.3} (no JSON written)");
        return;
    }
    if !meets {
        eprintln!(
            "FAILED — no operating point reaches recall@10 ≥ {TARGET_RECALL} \
             at ≥ {TARGET_SPEEDUP}× speedup"
        );
        std::process::exit(1);
    }

    let doc = object([
        ("experiment", "ann".to_json()),
        ("kernel_backend", kernel::active_backend().label().to_json()),
        ("tile", DEFAULT_TILE.to_json()),
        ("panel_rows", kernel::PANEL_ROWS.to_json()),
        ("entities", scale.entities.to_json()),
        ("dim", dim.to_json()),
        ("communities", scale.resolved_communities().to_json()),
        ("seed", (cfg.seed as usize).to_json()),
        ("metric", metric.label().to_json()),
        ("nlist", ivf.nlist().to_json()),
        ("default_nprobe", ivf.default_nprobe().to_json()),
        ("build_s", build_s.to_json()),
        ("queries", queries.to_json()),
        ("k", CURVE_K.to_json()),
        ("exact_query_us", exact_us.to_json()),
        (
            "gate",
            "nprobe=nlist bit-identical to dense sweep".to_json(),
        ),
        ("target_recall_at_10", TARGET_RECALL.to_json()),
        ("target_speedup", TARGET_SPEEDUP.to_json()),
        ("curve", curve.to_json()),
    ]);
    cfg.write_json("BENCH_ann", &doc);
}
