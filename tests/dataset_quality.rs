//! Dataset-generation quality: the Table 3 ordering (IDS ≻ PRS ≻ RAS) and
//! the V1/V2 density contrast of Table 2, on the synthetic source KGs.

use openea::prelude::*;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;

#[test]
fn table3_ordering_ids_beats_prs_beats_ras() {
    // The contrast between samplers grows with the source/target ratio (the
    // paper samples 500K → 15K); an 8× ratio is enough to order them.
    let source = PresetConfig::new(DatasetFamily::EnFr, 2400, false, 200).generate();
    let mut rng = SmallRng::seed_from_u64(3);
    let target = 300;
    let ras = ras_sample(&source, target, &mut rng);
    let prs = prs_sample(&source, target, &mut rng);
    let ids = ids_sample(&source, IdsConfig { target, mu: 8 }, &mut rng).pair;

    let q = |p: &KgPair| sample_quality(&source, p).0;
    let (ras_q, prs_q, ids_q) = (q(&ras), q(&prs), q(&ids));

    // Degree ordering of Table 3: IDS (6.31) > PRS (1.20) > RAS (0.27).
    assert!(
        ids_q.avg_degree > 1.2 * prs_q.avg_degree,
        "{} vs {}",
        ids_q.avg_degree,
        prs_q.avg_degree
    );
    assert!(
        prs_q.avg_degree > 1.5 * ras_q.avg_degree,
        "{} vs {}",
        prs_q.avg_degree,
        ras_q.avg_degree
    );
    // JS divergence: IDS smallest — the algorithm's defining property.
    assert!(
        ids_q.js_to_source < ras_q.js_to_source,
        "{} vs RAS {}",
        ids_q.js_to_source,
        ras_q.js_to_source
    );
    assert!(
        ids_q.js_to_source < prs_q.js_to_source,
        "{} vs PRS {}",
        ids_q.js_to_source,
        prs_q.js_to_source
    );
    // Isolates: IDS tracks the (filtered) source's isolated fraction —
    // zero for DBpedia in the paper, a few percent for our synthetic source
    // — while RAS multiplies it.
    let filtered = source.filter_to_alignment();
    let src_isolated = filtered.kg1.num_isolated() as f64 / filtered.kg1.num_entities() as f64;
    assert!(
        ids_q.isolated_fraction < src_isolated + 0.08,
        "IDS {} vs source {}",
        ids_q.isolated_fraction,
        src_isolated
    );
    assert!(ras_q.isolated_fraction > 2.0 * ids_q.isolated_fraction.max(0.05));
}

#[test]
fn v2_doubles_density_like_table2() {
    let v1 = PresetConfig::new(DatasetFamily::EnFr, 500, false, 201).generate();
    let v2 = PresetConfig::new(DatasetFamily::EnFr, 500, true, 201).generate();
    let r = v2.kg1.avg_degree() / v1.kg1.avg_degree();
    assert!(r > 1.6 && r < 2.6, "density ratio {r}");
}

#[test]
fn families_reproduce_schema_contrasts() {
    // D-Y: coarse YAGO schema (paper: 165 vs 28 relations at 15K V1).
    let dy = PresetConfig::new(DatasetFamily::DY, 500, false, 202).generate();
    assert!(dy.kg1.num_relations() as f64 / dy.kg2.num_relations() as f64 > 3.0);
    // D-W: Wikidata-style numeric property names.
    let dw = PresetConfig::new(DatasetFamily::DW, 300, false, 203).generate();
    let t = &dw.kg2.rel_triples()[0];
    assert!(dw.kg2.relation_name(t.rel).contains('P'));
}

#[test]
fn degree_distribution_of_ids_sample_tracks_source() {
    let source = PresetConfig::new(DatasetFamily::DW, 1000, false, 204).generate();
    let mut rng = SmallRng::seed_from_u64(1);
    let out = ids_sample(
        &source,
        IdsConfig {
            target: 300,
            mu: 15,
        },
        &mut rng,
    );
    assert!(out.js1 < 0.10, "js1 {}", out.js1);
    assert!(out.js2 < 0.10, "js2 {}", out.js2);
}

#[test]
fn five_fold_splits_partition_reference_alignment() {
    let pair = PresetConfig::new(DatasetFamily::EnDe, 400, false, 205).generate();
    let mut rng = SmallRng::seed_from_u64(2);
    let folds = k_fold_splits(&pair.alignment, 5, &mut rng);
    assert_eq!(folds.len(), 5);
    let n = pair.num_aligned();
    for f in &folds {
        assert_eq!(f.train.len() + f.valid.len() + f.test.len(), n);
        // 20/10/70 within rounding.
        assert!((f.train.len() as f64 / n as f64 - 0.2).abs() < 0.02);
        assert!((f.valid.len() as f64 / n as f64 - 0.1).abs() < 0.02);
    }
}

#[test]
fn medium_scale_generation_is_consistent() {
    // The bench harness's medium scale: make sure nothing degrades at 1500
    // entities (hub growth, attribute volume, alignment coverage).
    let pair = PresetConfig::new(DatasetFamily::EnFr, 1500, false, 206).generate();
    assert!(pair.num_aligned() > 1200);
    let deg = pair.kg1.avg_degree();
    assert!(deg > 3.0 && deg < 7.0, "avg degree {deg}");
    assert!(pair.kg1.num_attr_triples() > 3000);
    // Degree distribution stays heavy-tailed.
    let d = DegreeDistribution::of(&pair.kg1);
    assert!(d.max_degree().unwrap() > 20);
}

#[test]
fn dw_wikidata_side_has_no_readable_names() {
    // The paper deletes labels; on the Wikidata side that leaves numeric
    // properties and opaque URIs only (the D-W "symbolic heterogeneity").
    let pair = PresetConfig::new(DatasetFamily::DW, 300, false, 207).generate();
    // Opaque Q-ids.
    let e = pair.alignment[0].1;
    assert!(
        pair.kg2.entity_name(e).contains("Q"),
        "{}",
        pair.kg2.entity_name(e)
    );
    // The DBpedia side keeps meaningful URIs.
    let e1 = pair.alignment[0].0;
    let local = pair.kg1.entity_name(e1).rsplit('/').next().unwrap();
    assert!(
        local.chars().filter(|c| c.is_alphabetic()).count() >= 4,
        "{local}"
    );
    // KG2 has fewer attr triples per entity than KG1 (name attr dropped).
    let per1 = pair.kg1.num_attr_triples() as f64 / pair.kg1.num_entities() as f64;
    let per2 = pair.kg2.num_attr_triples() as f64 / pair.kg2.num_entities() as f64;
    assert!(per2 < per1, "{per2} vs {per1}");
}
