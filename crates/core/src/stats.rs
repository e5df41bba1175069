//! Dataset statistics used throughout the paper's tables and figures:
//! degree distributions (Figures 2/3), summary counts (Table 2) and the
//! sampling-quality metrics of Table 3.

use crate::kg::KnowledgeGraph;
use openea_runtime::json::{object, Json, ToJson};

/// An empirical distribution over entity degrees: `p[d]` is the proportion of
/// entities with relational degree `d`.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeDistribution {
    props: Vec<f64>,
}

impl DegreeDistribution {
    /// Computes the degree distribution of a KG. An empty KG yields an empty
    /// distribution.
    pub fn of(kg: &KnowledgeGraph) -> Self {
        Self::from_degrees(&kg.degrees())
    }

    /// Builds the distribution from raw degrees.
    pub fn from_degrees(degrees: &[usize]) -> Self {
        if degrees.is_empty() {
            return Self { props: Vec::new() };
        }
        let max = degrees.iter().copied().max().unwrap_or(0);
        let mut counts = vec![0usize; max + 1];
        for &d in degrees {
            counts[d] += 1;
        }
        let n = degrees.len() as f64;
        Self {
            props: counts.into_iter().map(|c| c as f64 / n).collect(),
        }
    }

    /// Proportion of entities with degree `d` (0 beyond the observed maximum).
    pub fn proportion(&self, d: usize) -> f64 {
        self.props.get(d).copied().unwrap_or(0.0)
    }

    /// The largest observed degree, or `None` for an empty distribution.
    pub fn max_degree(&self) -> Option<usize> {
        if self.props.is_empty() {
            None
        } else {
            Some(self.props.len() - 1)
        }
    }

    /// Jensen–Shannon divergence to another degree distribution (Eq. 6 of the
    /// paper), in nats. Zero iff the distributions are identical; bounded by
    /// `ln 2`.
    pub fn js_divergence(&self, other: &DegreeDistribution) -> f64 {
        let n = self.props.len().max(other.props.len());
        let mut js = 0.0;
        for d in 0..n {
            let q = self.proportion(d);
            let p = other.proportion(d);
            let m = 0.5 * (q + p);
            if q > 0.0 {
                js += 0.5 * q * (q / m).ln();
            }
            if p > 0.0 {
                js += 0.5 * p * (p / m).ln();
            }
        }
        js.max(0.0)
    }
}

/// Summary counts for one KG of a dataset, as reported in Table 2.
#[derive(Clone, Debug)]
pub struct KgStats {
    pub name: String,
    pub entities: usize,
    pub relations: usize,
    pub attributes: usize,
    pub rel_triples: usize,
    pub attr_triples: usize,
    pub avg_degree: f64,
    /// Fraction of entities with no relation triple (Table 3, "Isolates").
    pub isolated_fraction: f64,
}

impl KgStats {
    pub fn of(kg: &KnowledgeGraph) -> Self {
        let n = kg.num_entities();
        Self {
            name: kg.name().to_owned(),
            entities: n,
            relations: kg.num_relations(),
            attributes: kg.num_attributes(),
            rel_triples: kg.num_rel_triples(),
            attr_triples: kg.num_attr_triples(),
            avg_degree: kg.avg_degree(),
            isolated_fraction: if n == 0 {
                0.0
            } else {
                kg.num_isolated() as f64 / n as f64
            },
        }
    }
}

impl ToJson for KgStats {
    fn to_json(&self) -> Json {
        object([
            ("name", self.name.to_json()),
            ("entities", self.entities.to_json()),
            ("relations", self.relations.to_json()),
            ("attributes", self.attributes.to_json()),
            ("rel_triples", self.rel_triples.to_json()),
            ("attr_triples", self.attr_triples.to_json()),
            ("avg_degree", self.avg_degree.to_json()),
            ("isolated_fraction", self.isolated_fraction.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kg::KgBuilder;
    use openea_runtime::testkit::prelude::*;

    fn chain(n: usize) -> KnowledgeGraph {
        let mut b = KgBuilder::new("chain");
        for i in 0..n.saturating_sub(1) {
            b.add_rel_triple(&format!("e{i}"), "r", &format!("e{}", i + 1));
        }
        b.build()
    }

    #[test]
    fn chain_degree_distribution() {
        let kg = chain(5); // degrees: 1,2,2,2,1
        let d = DegreeDistribution::of(&kg);
        assert_eq!(d.max_degree(), Some(2));
        assert!((d.proportion(1) - 0.4).abs() < 1e-12);
        assert!((d.proportion(2) - 0.6).abs() < 1e-12);
        assert_eq!(d.proportion(0), 0.0);
        assert_eq!(d.proportion(77), 0.0);
    }

    #[test]
    fn js_divergence_identical_is_zero() {
        let kg = chain(10);
        let d = DegreeDistribution::of(&kg);
        assert!(d.js_divergence(&d) < 1e-12);
    }

    #[test]
    fn js_divergence_disjoint_is_ln2() {
        let a = DegreeDistribution::from_degrees(&[1, 1, 1]);
        let b = DegreeDistribution::from_degrees(&[2, 2, 2]);
        assert!((a.js_divergence(&b) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn js_divergence_is_symmetric() {
        let a = DegreeDistribution::from_degrees(&[1, 2, 2, 3, 5]);
        let b = DegreeDistribution::from_degrees(&[1, 1, 4, 4]);
        assert!((a.js_divergence(&b) - b.js_divergence(&a)).abs() < 1e-12);
    }

    #[test]
    fn kg_stats_counts() {
        let mut b = KgBuilder::new("s");
        b.add_rel_triple("a", "r", "b");
        b.add_attr_triple("a", "p", "v");
        b.add_entity("lonely");
        let kg = b.build();
        let s = KgStats::of(&kg);
        assert_eq!(s.entities, 3);
        assert_eq!(s.rel_triples, 1);
        assert_eq!(s.attr_triples, 1);
        assert!((s.isolated_fraction - 1.0 / 3.0).abs() < 1e-12);
    }

    props! {
        #[test]
        fn distribution_sums_to_one(degrees in vec_of(0usize..40, 1..200)) {
            let d = DegreeDistribution::from_degrees(&degrees);
            let total: f64 = d.props.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn js_divergence_bounds(
            a in vec_of(0usize..30, 1..100),
            b in vec_of(0usize..30, 1..100),
        ) {
            let da = DegreeDistribution::from_degrees(&a);
            let db = DegreeDistribution::from_degrees(&b);
            let js = da.js_divergence(&db);
            prop_assert!(js >= 0.0);
            prop_assert!(js <= std::f64::consts::LN_2 + 1e-9);
        }
    }
}
