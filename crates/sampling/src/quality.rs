//! The dataset-quality report of Table 3: alignment size, average degree,
//! JS divergence to the source, isolated-entity fraction and clustering
//! coefficient, per KG.

use openea_core::{DegreeDistribution, KgPair};
use openea_graph::average_clustering_coefficient;

/// Quality metrics for one KG of a sampled dataset (one row of Table 3).
#[derive(Clone, Debug)]
pub struct SampleQuality {
    pub kg_name: String,
    pub num_aligned: usize,
    pub avg_degree: f64,
    /// JS divergence of the sample's degree distribution to the source's.
    pub js_to_source: f64,
    /// Fraction of entities with no relation triples.
    pub isolated_fraction: f64,
    pub clustering_coefficient: f64,
}

/// Computes Table-3 metrics for both KGs of `sample` against `source`
/// (which is filtered to its reference alignment first, as in the paper).
pub fn sample_quality(source: &KgPair, sample: &KgPair) -> (SampleQuality, SampleQuality) {
    let filtered = source.filter_to_alignment();
    let mk = |src_kg: &openea_core::KnowledgeGraph, smp_kg: &openea_core::KnowledgeGraph| {
        let q = DegreeDistribution::of(src_kg);
        let p = DegreeDistribution::of(smp_kg);
        let n = smp_kg.num_entities();
        SampleQuality {
            kg_name: smp_kg.name().to_owned(),
            num_aligned: sample.num_aligned(),
            avg_degree: smp_kg.avg_degree(),
            js_to_source: p.js_divergence(&q),
            isolated_fraction: if n == 0 {
                0.0
            } else {
                smp_kg.num_isolated() as f64 / n as f64
            },
            clustering_coefficient: average_clustering_coefficient(smp_kg),
        }
    };
    (
        mk(&filtered.kg1, &sample.kg1),
        mk(&filtered.kg2, &sample.kg2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ids_sample, ras_sample, IdsConfig};
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;
    use openea_synth::{DatasetFamily, PresetConfig};

    #[test]
    fn ids_beats_ras_on_table3_metrics() {
        let src = PresetConfig::new(DatasetFamily::EnFr, 1200, false, 31).generate();
        let mut rng = SmallRng::seed_from_u64(0);
        let ids = ids_sample(
            &src,
            IdsConfig {
                target: 300,
                mu: 15,
            },
            &mut rng,
        );
        let ras = ras_sample(&src, 300, &mut rng);
        let (ids_q, _) = sample_quality(&src, &ids.pair);
        let (ras_q, _) = sample_quality(&src, &ras);
        // The paper's Table 3 ordering: IDS has lower JS, higher degree,
        // fewer isolates.
        assert!(ids_q.js_to_source < ras_q.js_to_source);
        assert!(ids_q.avg_degree > ras_q.avg_degree);
        assert!(ids_q.isolated_fraction <= ras_q.isolated_fraction);
    }

    #[test]
    fn identity_sample_has_zero_divergence() {
        let src = PresetConfig::new(DatasetFamily::EnFr, 400, false, 32).generate();
        let filtered = src.filter_to_alignment();
        let (q1, q2) = sample_quality(&src, &filtered);
        assert!(q1.js_to_source < 1e-9);
        assert!(q2.js_to_source < 1e-9);
        assert_eq!(q1.num_aligned, filtered.num_aligned());
    }
}
